//! Facade crate for the VersaSlot FPGA-sharing reproduction.
//!
//! Re-exports the public API of the four sub-crates so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`sim`] — discrete-event simulation kernel (pre-sized event queue and
//!   typed traces; steady-state simulation is allocation-free).
//! * [`fpga`] — FPGA cluster hardware models (slots, PCAP, DMA, Aurora, boards).
//! * [`workload`] — benchmark applications and workload generation.
//! * [`core`] — the VersaSlot system itself plus the baseline schedulers.

#![forbid(unsafe_code)]

pub use versaslot_core as core;
pub use versaslot_fpga as fpga;
pub use versaslot_sim as sim;
pub use versaslot_workload as workload;
