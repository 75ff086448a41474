//! # VersaSlot — fine-grained FPGA sharing with Big.Little slots and live migration
//!
//! This crate implements the system contribution of the DAC 2025 paper
//! *"VersaSlot: Efficient Fine-grained FPGA Sharing with Big.Little Slots and Live
//! Migration in FPGA Cluster"* on top of the simulated FPGA cluster provided by
//! [`versaslot_fpga`] and the benchmark workloads of [`versaslot_workload`]:
//!
//! * the **Big.Little slot architecture** and **Algorithm 1** slot allocation
//!   (primary allocation, redistribution, binding/rebinding) — [`allocation`];
//! * **Algorithm 2** dual-core scheduling with online **3-in-1 bundling**
//!   (serial vs parallel selection) — [`policy::versaslot`] and [`bundling`];
//! * the **D_switch** degradation metric and the Schmitt-trigger **switch loop**
//!   with cross-board **live migration** — [`dswitch`] and [`migration`];
//! * the comparators of the evaluation: exclusive temporal multiplexing
//!   ([`baseline`]), FCFS, round-robin and Nimblock-style scheduling
//!   ([`policy`]);
//! * the sharing simulator itself ([`engine`]) and the experiment runners /
//!   reports used to regenerate every figure of the paper ([`runner`],
//!   [`metrics`]).
//!
//! # Quick start
//!
//! ```
//! use versaslot_core::runner::{run_workload, SchedulerKind};
//! use versaslot_core::metrics::{pooled_mean_response_ms, relative_reduction};
//! use versaslot_workload::{generate_workload, Congestion, WorkloadConfig};
//!
//! // A small Standard-congestion workload (the paper uses 10 sequences × 20 apps).
//! let config = WorkloadConfig::paper_default(Congestion::Standard).with_shape(1, 5);
//! let workload = generate_workload(&config);
//!
//! let baseline = run_workload(SchedulerKind::Baseline, &workload);
//! let versaslot = run_workload(SchedulerKind::VersaSlotBigLittle, &workload);
//!
//! let speedup = relative_reduction(
//!     pooled_mean_response_ms(&baseline),
//!     pooled_mean_response_ms(&versaslot),
//! );
//! assert!(speedup > 1.0, "sharing should beat exclusive multiplexing");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod baseline;
pub mod bundling;
pub mod config;
pub mod dswitch;
pub mod engine;
pub mod fault;
pub mod fleet;
pub mod ilp;
pub mod metrics;
pub mod migration;
pub mod par;
pub mod policy;
pub mod runner;
pub mod service;

pub use config::SwitchingConfig;
