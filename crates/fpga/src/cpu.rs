//! Processing System (PS) cores and the hypervisor core assignment.
//!
//! The VersaSlot hypervisor runs bare-metal on the ARM cores of the PS.  The paper
//! identifies single-core operation (scheduler and PR handling share one core, as
//! in Nimblock and DML) as the cause of *task execution blocking*: while the PCAP
//! suspends the core for a partial reconfiguration, the scheduler cannot launch
//! batch executions.  VersaSlot's *dual-core* design dedicates a second core to the
//! PR server so the scheduler keeps running.
//!
//! [`CoreAssignment`] says whether scheduling and PR share a core.  A core's busy
//! window is a [`SerialServer`](crate::pcap::SerialServer), the same model as the
//! PCAP path: a PCAP load suspends the issuing core for its duration, and a
//! launch on the scheduler core starts once the core is free.  Dual-core and
//! single-core systems differ only in which core a load occupies.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How the hypervisor's scheduler and PR server map onto PS cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreAssignment {
    /// Scheduler and PR handling share a single core (Nimblock / DML / FCFS / RR).
    /// Every PCAP load suspends scheduling for its whole duration.
    SingleCore,
    /// Scheduler and PR server run on separate cores (VersaSlot).  PCAP loads only
    /// suspend the PR-server core.
    DualCore,
}

impl fmt::Display for CoreAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreAssignment::SingleCore => f.write_str("single-core"),
            CoreAssignment::DualCore => f.write_str("dual-core"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_blocking_semantics() {
        assert_eq!(CoreAssignment::SingleCore.to_string(), "single-core");
        assert_eq!(CoreAssignment::DualCore.to_string(), "dual-core");
    }
}
