//! First-come-first-served spatio-temporal sharing.
//!
//! The simplest slot-sharing comparator in the paper's evaluation: applications are
//! served strictly in arrival order, each receiving as many Little slots as it has
//! remaining pipeline stages before any later application receives one.  There is
//! no preemption and no optimal-slot-count reasoning, and the hypervisor runs
//! single-core, so partial reconfigurations block task launches.

use versaslot_fpga::slot::SlotKind;
use versaslot_workload::AppId;

use super::{grant_little_slots, Policy, ScratchMeter};
use crate::engine::SharingSimulator;

/// First-come-first-served slot allocation (single-core comparator).
#[derive(Debug, Clone, Default)]
pub struct FcfsPolicy {
    /// Reusable application list (no steady-state allocation).
    scratch: Vec<AppId>,
    meter: ScratchMeter,
}

impl FcfsPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FcfsPolicy::default()
    }
}

impl Policy for FcfsPolicy {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn scratch_allocs(&self) -> u64 {
        self.meter.allocs()
    }

    /// FCFS never preempts, so no preemption victim opens a pass.
    fn preempts(&self) -> bool {
        false
    }

    fn schedule(&mut self, sim: &mut SharingSimulator) {
        // Arrival order == AppId order; the engine's active set is already sorted
        // by identifier.
        self.scratch.clear();
        self.scratch.extend_from_slice(sim.active_apps());
        self.meter.observe(self.scratch.capacity());
        let slot_total = sim.enabled_slot_total(SlotKind::Little).max(1);
        for i in 0..self.scratch.len() {
            let app = self.scratch[i];
            let want = sim.app(app).unplaced_units().min(slot_total);
            if want == 0 {
                continue;
            }
            if sim.app(app).started {
                // An admitted application continues: it picks up freed slots for its
                // remaining tasks, and while it is unsatisfied nobody behind it runs.
                let granted = grant_little_slots(sim, app, want);
                if granted < want {
                    break;
                }
            } else {
                // Admission is atomic and strictly in order: the next application
                // starts only when enough slots are free for its whole pipeline,
                // even if that leaves slots idle (head-of-line blocking).
                let free = sim.free_slot_count(SlotKind::Little);
                if free < want {
                    break;
                }
                grant_little_slots(sim, app, want);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::engine::SharingSimulator;
    use versaslot_fpga::board::BoardSpec;
    use versaslot_fpga::cpu::CoreAssignment;
    use versaslot_sim::{SimDuration, SimTime};
    use versaslot_workload::benchmarks::BenchmarkApp;
    use versaslot_workload::AppArrival;

    fn board() -> BoardSpec {
        BoardSpec::zcu216_only_little().with_cores(CoreAssignment::SingleCore)
    }

    #[test]
    fn all_apps_complete_in_arrival_order_bias() {
        let arrivals = vec![
            AppArrival::new(
                AppId(0),
                BenchmarkApp::OpticalFlow.suite_index(),
                8,
                SimTime::ZERO,
            ),
            AppArrival::new(
                AppId(1),
                BenchmarkApp::LeNet.suite_index(),
                8,
                SimTime::ZERO + SimDuration::from_millis(10),
            ),
        ];
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(board()),
            BenchmarkApp::suite(),
            &arrivals,
        );
        let report = sim.run(&mut FcfsPolicy::new());
        assert_eq!(report.completed(), 2);
        // The 9-task Optical Flow app arrived first and hogged the 8 slots, so it
        // should complete no later than the later arrival finishing behind it.
        let of = report.apps.iter().find(|a| a.id == AppId(0)).unwrap();
        let lenet = report.apps.iter().find(|a| a.id == AppId(1)).unwrap();
        assert!(of.completion <= lenet.completion + lenet.response());
        assert!(report.total_pr >= 9 + 6);
    }

    #[test]
    fn single_core_blocking_is_observed() {
        // With many apps contending on a single-core hypervisor, some launches or
        // PRs must end up blocked.
        let arrivals: Vec<AppArrival> = (0..6)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    BenchmarkApp::AlexNet.suite_index(),
                    10,
                    SimTime::ZERO + SimDuration::from_millis(u64::from(i) * 50),
                )
            })
            .collect();
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(board()),
            BenchmarkApp::suite(),
            &arrivals,
        );
        let report = sim.run(&mut FcfsPolicy::new());
        assert_eq!(report.completed(), 6);
        assert!(report.blocked_events > 0, "expected PR-induced blocking");
    }
}
