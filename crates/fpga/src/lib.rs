//! FPGA cluster hardware models for the VersaSlot reproduction.
//!
//! The VersaSlot paper runs on a cluster of Xilinx UltraScale+ ZCU216 boards whose
//! programmable logic is divided (via Dynamic Function eXchange) into a static
//! region plus reconfigurable *Big* and *Little* slots, reconfigured through the
//! PCAP and fed with data over AXI/DMA, with boards connected by Aurora 64B/66B
//! links.  No such hardware is available to this reproduction, so this crate models
//! each of those components as a parameterised latency/capacity model that the
//! scheduling simulation in `versaslot-core` drives:
//!
//! * [`resources`] — LUT/FF/DSP/BRAM resource vectors and capacities.
//! * [`slot`] — slot kinds, identities and board slot layouts
//!   (`Big.Little` = 2 Big + 4 Little, `Only.Little` = 8 Little, or custom).
//! * [`bitstream`] — partial/full bitstream sizes and the SD-card storage they are
//!   read from.
//! * [`pcap`] — the serial, CPU-suspending Processor Configuration Access Port.
//! * [`cpu`] — the PS-side ARM cores and the single-core/dual-core hypervisor split.
//! * [`interconnect`] — AXI/DMA data movement between PS memory and slots.
//! * [`aurora`] — the cross-board GT link used by live migration.
//! * [`board`] — a whole board (`zcu216` presets); the engine's multi-board
//!   cluster is `versaslot-core`'s `SystemConfig::switching_cluster`.
//!
//! # Example
//!
//! ```
//! use versaslot_fpga::board::BoardSpec;
//! use versaslot_fpga::slot::SlotKind;
//!
//! let board = BoardSpec::zcu216_big_little();
//! assert_eq!(board.layout.count_of(SlotKind::Big), 2);
//! assert_eq!(board.layout.count_of(SlotKind::Little), 4);
//! // A Big slot offers twice the resources of a Little slot.
//! let little = board.layout.capacity_of(SlotKind::Little);
//! let big = board.layout.capacity_of(SlotKind::Big);
//! assert_eq!(big.lut, 2 * little.lut);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aurora;
pub mod bitstream;
pub mod board;
pub mod cpu;
pub mod interconnect;
pub mod pcap;
pub mod resources;
pub mod slot;

pub use aurora::AuroraLink;
pub use bitstream::SdCard;
pub use board::BoardSpec;
pub use interconnect::DmaModel;
pub use pcap::{PcapModel, SerialServer};
pub use resources::ResourceVector;
pub use slot::SlotKind;
