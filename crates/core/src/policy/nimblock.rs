//! Nimblock-style priority scheduling on uniform slots.
//!
//! Nimblock (ISCA'23) is the state-of-the-art comparator in the paper: it shares a
//! uniform-slot FPGA among applications using ILP-derived optimal slot counts,
//! priority-based selection with ageing, and preemption so long-running
//! applications cannot monopolise the fabric.  Crucially — and this is the gap
//! VersaSlot attacks — it runs scheduling and partial reconfiguration on a single
//! core, so every PCAP load suspends task launching, and its uniform slots leave
//! PR contention unresolved.
//!
//! This implementation reproduces those scheduling decisions at task-boundary
//! granularity: slots freed at task completion are re-granted to the
//! highest-priority application (ageing favours applications that have waited long
//! relative to their remaining work), each application is capped at its ILP-optimal
//! slot count while others are waiting, and leftover slots are redistributed.

use versaslot_workload::AppId;

use super::{sort_by_priority, Policy, ScratchMeter};
use crate::engine::SharingSimulator;

/// Nimblock-style priority + optimal-slot-count policy (single-core comparator).
#[derive(Debug, Clone, Default)]
pub struct NimblockPolicy {
    /// Reusable priority-sorted application list (no steady-state allocation).
    scratch: Vec<AppId>,
    /// Reusable (priority, id) pairs so each priority is computed once per pass.
    keyed: Vec<(f64, AppId)>,
    meter: ScratchMeter,
}

impl NimblockPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        NimblockPolicy::default()
    }
}

impl Policy for NimblockPolicy {
    fn name(&self) -> &'static str {
        "nimblock"
    }

    fn scratch_allocs(&self) -> u64 {
        self.meter.allocs()
    }

    fn schedule(&mut self, sim: &mut SharingSimulator) {
        if sim.active_apps().is_empty() {
            return;
        }

        // Nimblock preempts long-running applications so waiting applications are
        // not starved; preemption happens at item boundaries after a quantum.
        super::preempt_for_starving_apps(sim);

        // Priority with ageing (see `ageing_priority`): each priority is computed
        // once from O(1) per-application counters, then the list is sorted on
        // the cached keys.
        self.scratch.clear();
        self.scratch.extend_from_slice(sim.active_apps());
        sort_by_priority(sim, &mut self.keyed, &mut self.scratch);

        let contended = self.scratch.len() > 1;

        // First pass: respect the ILP-optimal slot count per application while the
        // fabric is contended.
        for i in 0..self.scratch.len() {
            let app = self.scratch[i];
            let (_, optimal) = sim.app(app).optimal_slots();
            let (_, in_use) = sim.slots_in_use_by(app);
            let cap = if contended {
                optimal.saturating_sub(in_use)
            } else {
                u32::MAX
            };
            let want = sim.app(app).unplaced_units().min(cap);
            super::grant_little_slots(sim, app, want);
        }

        // Second pass: hand any leftover slots to applications that can still use
        // them (redistribution keeps slots from idling).
        for i in 0..self.scratch.len() {
            let app = self.scratch[i];
            let want = sim.app(app).unplaced_units();
            if want > 0 {
                super::grant_little_slots(sim, app, want);
            }
        }

        self.meter
            .observe(self.scratch.capacity() + self.keyed.capacity());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::engine::SharingSimulator;
    use crate::metrics::{pooled_percentile_ms, RunReport};
    use crate::policy::fcfs::FcfsPolicy;
    use versaslot_fpga::board::BoardSpec;
    use versaslot_fpga::cpu::CoreAssignment;
    use versaslot_sim::{SimDuration, SimTime};
    use versaslot_workload::benchmarks::BenchmarkApp;
    use versaslot_workload::AppArrival;

    fn board() -> BoardSpec {
        BoardSpec::zcu216_only_little().with_cores(CoreAssignment::SingleCore)
    }

    fn crowded_arrivals() -> Vec<AppArrival> {
        let apps = [
            BenchmarkApp::OpticalFlow,
            BenchmarkApp::ImageCompression,
            BenchmarkApp::AlexNet,
            BenchmarkApp::LeNet,
            BenchmarkApp::Rendering3D,
            BenchmarkApp::ImageCompression,
        ];
        apps.iter()
            .enumerate()
            .map(|(i, app)| {
                AppArrival::new(
                    AppId(i as u32),
                    app.suite_index(),
                    12,
                    SimTime::ZERO + SimDuration::from_millis(i as u64 * 200),
                )
            })
            .collect()
    }

    #[test]
    fn all_apps_complete() {
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(board()),
            BenchmarkApp::suite(),
            &crowded_arrivals(),
        );
        let report = sim.run(&mut NimblockPolicy::new());
        assert_eq!(report.completed(), 6);
    }

    #[test]
    fn stays_within_15_percent_of_fcfs_under_contention() {
        // The paper's Figure 5 has Nimblock well ahead of FCFS once the system is
        // loaded.  This model does not reproduce that ordering (see below), so
        // the test bounds how far Nimblock may trail FCFS instead.
        let work = crowded_arrivals();

        let mut nb_sim = SharingSimulator::new(
            SystemConfig::single_board(board()),
            BenchmarkApp::suite(),
            &work,
        );
        let nb = nb_sim.run(&mut NimblockPolicy::new());

        let mut fcfs_sim = SharingSimulator::new(
            SystemConfig::single_board(board()),
            BenchmarkApp::suite(),
            &work,
        );
        let fcfs = fcfs_sim.run(&mut FcfsPolicy::new());

        // This checks only that priority scheduling stays within 15% of
        // head-of-line FCFS, on both the mean and the P99 response time, on a
        // small six-application workload where Nimblock pays extra preemption
        // PRs on a single core.  It does not check that Nimblock beats FCFS:
        // at the paper's Figure 5 workload shape it trails FCFS in most
        // (seed, congestion) cells.
        assert!(
            nb.mean_response_ms() < fcfs.mean_response_ms() * 1.15,
            "nimblock {} ms should stay within 15% of fcfs {} ms",
            nb.mean_response_ms(),
            fcfs.mean_response_ms()
        );
        let p99 = |report: &RunReport| pooled_percentile_ms(std::slice::from_ref(report), 0.99);
        assert!(p99(&nb) <= p99(&fcfs) * 1.15);
    }

    #[test]
    fn respects_optimal_cap_under_contention() {
        // With several applications present, no application should be holding more
        // slots than it has tasks (sanity on the granting loop).
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(board()),
            BenchmarkApp::suite(),
            &crowded_arrivals(),
        );
        let report = sim.run(&mut NimblockPolicy::new());
        for app in &report.apps {
            let spec = &BenchmarkApp::suite()[app.app_index];
            assert!(app.pr_count >= spec.task_count());
        }
    }
}
