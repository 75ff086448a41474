//! Discrete-event simulation kernel for the VersaSlot reproduction.
//!
//! The VersaSlot paper evaluates an FPGA-sharing system on a physical cluster of
//! Xilinx ZCU216 boards.  This repository reproduces the system on top of a
//! deterministic discrete-event simulation, and this crate is the kernel of that
//! simulation.  It deliberately knows nothing about FPGAs: it provides
//!
//! * simulated time ([`SimTime`], [`SimDuration`]) with microsecond resolution,
//! * a generic time-ordered [`EventQueue`] with deterministic FIFO tie-breaking,
//!   one sorted run that, pre-sized, never allocates in steady state (see the
//!   [`event`] module docs),
//! * a seedable, reproducible random number generator ([`SimRng`]),
//! * a deterministic, replayable fault schedule ([`fault`]) — PR failure
//!   outcomes, board MTTF/MTTR timers, and link flap timelines,
//! * the typed [`ConfigError`] that configuration validation returns,
//! * summary statistics used by the experiment harnesses ([`stats`]),
//! * exact multi-lane time-weighted means of integer ratios for utilization
//!   accounting ([`series`]), and
//! * a lightweight structured trace ([`trace`]) whose typed [`TraceDetail`]
//!   payloads and fixed-array counters keep logging allocation-free.
//!
//! # Example
//!
//! ```
//! use versaslot_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, Clone, Copy, PartialEq)]
//! enum Ev { PrDone, BatchDone }
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_millis(25), Ev::PrDone);
//! queue.push(SimTime::ZERO + SimDuration::from_millis(10), Ev::BatchDone);
//!
//! let (time, event) = queue.pop().expect("queue is non-empty");
//! assert_eq!(event, Ev::BatchDone);
//! assert_eq!(time, SimTime::from_micros(10_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod event;
pub mod fault;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod trace;

pub use error::ConfigError;
pub use event::EventQueue;
pub use fault::{FaultProfile, FaultSchedule, FaultStats};
pub use rng::SimRng;
pub use series::TimeWeightedRatios;
pub use stats::{
    percentile, LogHistogram, StreamingSummary, Summary, TumblingWindow, Welford, WindowSummary,
};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceDetail, TraceKind};
