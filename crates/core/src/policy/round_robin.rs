//! Round-robin spatio-temporal sharing.
//!
//! The round-robin comparator (after the OS-style FPGA scheduling of Coyote) hands
//! free Little slots to applications one at a time in a rotating order, so every
//! active application makes progress, at the price of many more partial
//! reconfigurations and — with the single-core hypervisor — more task-launch
//! blocking.

use versaslot_fpga::slot::SlotKind;
use versaslot_workload::AppId;

use super::{Policy, ScratchMeter};
use crate::engine::SharingSimulator;

/// Round-robin slot allocation (single-core comparator).
#[derive(Debug, Clone, Default)]
pub struct RoundRobinPolicy {
    cursor: usize,
    /// Reusable needy-application list (no steady-state allocation).
    needy: Vec<AppId>,
    meter: ScratchMeter,
}

impl RoundRobinPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        RoundRobinPolicy::default()
    }
}

impl Policy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn scratch_allocs(&self) -> u64 {
        self.meter.allocs()
    }

    fn schedule(&mut self, sim: &mut SharingSimulator) {
        if sim.active_apps().is_empty() {
            return;
        }

        // Round-robin time-slices the fabric: once a resident task has used up its
        // quantum and another application is starving, its slot rotates onwards.
        super::preempt_for_starving_apps(sim);

        // Keep handing out one slot per needy application, starting after the last
        // application served, until either slots or demand run out.  The active
        // set is already in identifier (arrival) order.
        loop {
            self.needy.clear();
            self.needy.extend(
                sim.active_apps()
                    .iter()
                    .copied()
                    .filter(|&a| sim.app(a).unplaced_units() > 0),
            );
            if self.needy.is_empty() {
                break;
            }
            let mut granted_any = false;
            for offset in 0..self.needy.len() {
                let app = self.needy[(self.cursor + offset) % self.needy.len()];
                let Some(slot) = sim.first_grantable_slot(app, Some(SlotKind::Little)) else {
                    continue;
                };
                if sim.grant_slot(slot, app) {
                    self.cursor = (self.cursor + offset + 1) % self.needy.len().max(1);
                    granted_any = true;
                    break;
                }
            }
            if !granted_any {
                break;
            }
        }
        self.meter.observe(self.needy.capacity());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::engine::SharingSimulator;
    use crate::policy::fcfs::FcfsPolicy;
    use versaslot_fpga::board::BoardSpec;
    use versaslot_fpga::cpu::CoreAssignment;
    use versaslot_sim::{SimDuration, SimTime};
    use versaslot_workload::benchmarks::BenchmarkApp;
    use versaslot_workload::AppArrival;

    fn board() -> BoardSpec {
        BoardSpec::zcu216_only_little().with_cores(CoreAssignment::SingleCore)
    }

    fn arrivals(n: u32) -> Vec<AppArrival> {
        (0..n)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    BenchmarkApp::ImageCompression.suite_index(),
                    8,
                    SimTime::ZERO + SimDuration::from_millis(u64::from(i) * 100),
                )
            })
            .collect()
    }

    #[test]
    fn all_apps_complete() {
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(board()),
            BenchmarkApp::suite(),
            &arrivals(4),
        );
        let report = sim.run(&mut RoundRobinPolicy::new());
        assert_eq!(report.completed(), 4);
    }

    #[test]
    fn fairness_spreads_slots_compared_to_fcfs() {
        // Under round-robin, the *last* arrival should wait less (relative to FCFS)
        // because it receives slots before earlier apps finish.
        let work = arrivals(4);

        let mut rr_sim = SharingSimulator::new(
            SystemConfig::single_board(board()),
            BenchmarkApp::suite(),
            &work,
        );
        let rr = rr_sim.run(&mut RoundRobinPolicy::new());

        let mut fcfs_sim = SharingSimulator::new(
            SystemConfig::single_board(board()),
            BenchmarkApp::suite(),
            &work,
        );
        let fcfs = fcfs_sim.run(&mut FcfsPolicy::new());

        let rr_first_completion = rr.apps.iter().map(|a| a.completion).min().unwrap();
        let fcfs_last = fcfs.apps.iter().map(|a| a.completion).max().unwrap();
        // Round-robin interleaves, so its earliest completion cannot be later than
        // the FCFS makespan (a very weak but robust fairness property).
        assert!(rr_first_completion <= fcfs_last);
        // And round-robin performs at least as many PRs as FCFS (it interleaves).
        assert!(rr.total_pr >= fcfs.total_pr);
    }
}
