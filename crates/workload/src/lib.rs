//! Benchmark applications and workload generation for the VersaSlot reproduction.
//!
//! The paper evaluates VersaSlot with the same application suite as Nimblock:
//! 3D Rendering (3 tasks), LeNet (6), Image Compression (6), AlexNet (6) and
//! Optical Flow (9), partitioned into Little-slot-sized tasks by an automated
//! Vivado HLS/TCL flow, and driven by randomly generated application sequences
//! (10 sequences × 20 apps, batch sizes 5–30) under four congestion conditions.
//!
//! Since neither the original bitstreams nor the Vivado flow are available, this
//! crate ships a *synthetic synthesis dataset* ([`benchmarks`]) calibrated to the
//! utilization numbers the paper reports (Figure 7), plus the workload generator
//! that reproduces the evaluation's arrival processes ([`generator`]).
//!
//! # Example
//!
//! ```
//! use versaslot_workload::benchmarks::BenchmarkApp;
//! use versaslot_workload::generator::{WorkloadConfig, generate_sequence};
//! use versaslot_workload::congestion::Congestion;
//!
//! let suite = BenchmarkApp::suite();
//! assert_eq!(suite.len(), 5);
//!
//! let config = WorkloadConfig::paper_default(Congestion::Standard);
//! let sequence = generate_sequence(&config, 0);
//! assert_eq!(sequence.arrivals.len(), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod application;
pub mod arrival;
pub mod benchmarks;
pub mod congestion;
pub mod generator;
pub mod routing;
pub mod task;

pub use application::{AppArrival, AppId, ApplicationSpec, BundleSpec};
pub use arrival::{ArrivalDriver, ArrivalProcess};
pub use benchmarks::BenchmarkApp;
pub use congestion::Congestion;
pub use generator::{
    generate_sequence, generate_workload, Workload, WorkloadConfig, WorkloadSequence,
};
pub use routing::{Placement, ShardRouter};
pub use task::TaskSpec;

/// FNV-1a digest of `value`'s JSON, for tests that pin a serialized form.
#[cfg(test)]
pub(crate) fn json_digest<T: serde::Serialize>(value: &T) -> String {
    fnv1a_hex(
        serde_json::to_string(value)
            .expect("value serialises")
            .as_bytes(),
    )
}

/// FNV-1a digest of `bytes`, as 16 hex digits.
#[cfg(test)]
pub(crate) fn fnv1a_hex(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}
