//! Processing System (PS) cores and the hypervisor core assignment.
//!
//! The VersaSlot hypervisor runs bare-metal on the ARM cores of the PS.  The paper
//! identifies single-core operation (scheduler and PR handling share one core, as
//! in Nimblock and DML) as the cause of *task execution blocking*: while the PCAP
//! suspends the core for a partial reconfiguration, the scheduler cannot launch
//! batch executions.  VersaSlot's *dual-core* design dedicates a second core to the
//! PR server so the scheduler keeps running.
//!
//! [`CpuCore`] tracks the busy window of one core; [`CoreAssignment`] says whether
//! scheduling and PR share a core.

use std::fmt;

use serde::{Deserialize, Serialize};
use versaslot_sim::{SimDuration, SimTime};

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

/// Busy-window model of one PS core.
///
/// Work items occupy the core back to back, exactly like a
/// [`SerialServer`](crate::pcap::SerialServer), but the core additionally
/// distinguishes *blocked* time (suspended by the PCAP) so the simulation can
/// count how often task launches were delayed.
///
/// # Example
///
/// ```
/// use versaslot_fpga::cpu::CpuCore;
/// use versaslot_sim::{SimDuration, SimTime};
///
/// let mut core = CpuCore::new();
/// // The core is suspended by a 25 ms PCAP load...
/// core.block(SimTime::ZERO, SimDuration::from_millis(25));
/// // ...so a launch requested at 10 ms cannot run before 25 ms.
/// assert_eq!(core.earliest_start(SimTime::from_millis(10)), SimTime::from_millis(25));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CpuCore {
    busy_until: SimTime,
    blocked_total: SimDuration,
    work_items: u64,
}

impl CpuCore {
    /// Creates an idle core.
    pub fn new() -> Self {
        CpuCore {
            busy_until: SimTime::ZERO,
            blocked_total: SimDuration::ZERO,
            work_items: 0,
        }
    }

    /// Earliest time at which work requested at `now` can start on this core.
    pub fn earliest_start(&self, now: SimTime) -> SimTime {
        now.max_of(self.busy_until)
    }

    /// Runs a work item of length `duration` starting no earlier than `now`;
    /// returns the time the work completes.
    pub fn run(&mut self, now: SimTime, duration: SimDuration) -> SimTime {
        let start = self.earliest_start(now);
        self.busy_until = start + duration;
        self.work_items += 1;
        self.busy_until
    }

    /// Suspends the core (PCAP block) for `duration` starting no earlier than `now`;
    /// returns the time the core becomes free again.
    pub fn block(&mut self, now: SimTime, duration: SimDuration) -> SimTime {
        let start = self.earliest_start(now);
        self.busy_until = start + duration;
        self.blocked_total += duration;
        self.busy_until
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

    #[test]
    fn run_serialises_work() {
        let mut core = CpuCore::new();
        let t1 = core.run(SimTime::ZERO, SimDuration::from_micros(100));
        let t2 = core.run(SimTime::ZERO, SimDuration::from_micros(50));
        assert_eq!(t1, SimTime::from_micros(100));
        assert_eq!(t2, SimTime::from_micros(150));
        assert_eq!(core.work_items, 2);
        assert_eq!(core.blocked_total, SimDuration::ZERO);
    }

    #[test]
    fn block_accumulates_blocked_time() {
        let mut core = CpuCore::new();
        core.block(SimTime::ZERO, SimDuration::from_millis(25));
        core.block(SimTime::from_millis(30), SimDuration::from_millis(10));
        assert_eq!(core.blocked_total, SimDuration::from_millis(35));
        assert_eq!(core.busy_until, SimTime::from_millis(40));
    }

    #[test]
    fn earliest_start_respects_block() {
        let mut core = CpuCore::new();
        core.block(SimTime::from_millis(5), SimDuration::from_millis(20));
        assert_eq!(
            core.earliest_start(SimTime::from_millis(10)),
            SimTime::from_millis(25)
        );
        assert_eq!(
            core.earliest_start(SimTime::from_millis(30)),
            SimTime::from_millis(30)
        );
    }
}
