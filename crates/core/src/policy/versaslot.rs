//! The VersaSlot scheduling policy (Algorithms 1 and 2 of the paper).
//!
//! Every scheduling pass the policy
//!
//! 1. runs **Algorithm 1** (slot allocation — see [`crate::allocation`]) over the
//!    current candidate applications: bundle-capable waiting applications bind to
//!    Big slots, the rest receive their ILP-optimal number of Little slots, idle
//!    Little slots are redistributed, and not-yet-started Little-bound applications
//!    are rebound to Big slots when one frees up; then
//! 2. performs the granting part of **Algorithm 2** (on-board scheduling): each
//!    bound application receives free slots of its kind up to its allocation
//!    `R_Ai`, which makes the engine load the next task — or the next online-
//!    bundled 3-in-1 task, chosen serial or parallel by the criterion in
//!    [`crate::bundling`] — and issue the asynchronous PR request.
//!
//! The batch-execution launching and the decoupled dual-core PR server of
//! Algorithm 2 are mechanics of the engine itself: launches never wait for PR
//! completions because the boards this policy is intended for run the dual-core
//! hypervisor ([`versaslot_fpga::cpu::CoreAssignment::DualCore`]).
//!
//! A pass that changes the allocator state (a binding, an allocation, a new
//! waiting application) reports it through
//! `SharingSimulator::note_policy_state_changed`, so the engine does not
//! skip the next pass as settled; debug builds check every pass for it.
//!
//! On an `Only.Little` board there are simply no Big slots, so the same policy
//! degenerates to the VersaSlot Only.Little configuration of the paper.

use versaslot_fpga::slot::SlotKind;
use versaslot_workload::AppId;

use super::{sort_by_priority, Policy, ScratchMeter};
use crate::allocation::{allocate, AllocInputs, AllocationState, AppAllocInfo};
use crate::engine::{AppState, SharingSimulator};

/// The VersaSlot slot-allocation and scheduling policy.
#[derive(Debug, Clone, Default)]
pub struct VersaSlotPolicy {
    state: AllocationState,
    /// Reusable Algorithm 1 input table (no steady-state allocation).
    info: AllocInputs,
    /// Reusable active-application list.
    active: Vec<AppId>,
    /// Reusable work-conserving candidate list.
    candidates: Vec<AppId>,
    /// Reusable (priority, id) pairs so each priority is computed once per sort.
    keyed: Vec<(f64, AppId)>,
    meter: ScratchMeter,
}

impl VersaSlotPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        VersaSlotPolicy::default()
    }

    /// Exposes the allocator state (used by tests).
    #[cfg(test)]
    pub(crate) fn allocation_state(&self) -> &AllocationState {
        &self.state
    }
}

impl Policy for VersaSlotPolicy {
    fn name(&self) -> &'static str {
        "versaslot"
    }

    fn scratch_allocs(&self) -> u64 {
        self.meter.allocs()
    }

    fn schedule(&mut self, sim: &mut SharingSimulator) {
        #[cfg(debug_assertions)]
        let before = self.state.clone();
        self.active.clear();
        self.active.extend_from_slice(sim.active_apps());

        // Preemption applies to Little slots only (an application cannot occupy
        // both Big and Little slots, and Big-bound applications finish all their
        // tasks in the Big slot); the shared helper only ever preempts Little
        // slots, and the work-conserving pass below hands the freed slot to the
        // starving application.
        super::preempt_for_starving_apps(sim, super::PREEMPTION_QUANTUM);

        // Register new arrivals with the allocator.  `changed` tracks whether
        // this pass changed the allocator state a later pass reads (the
        // waiting list's order is not state: it is re-sorted before use).
        // The bindings the grants below record need no flag: a grant marks
        // the next pass due itself.
        let mut changed = false;
        for i in 0..self.active.len() {
            let app = self.active[i];
            if sim.app(app).state == AppState::Waiting
                && !self.state.is_bound_big(app)
                && !self.state.is_bound_little(app)
            {
                changed |= self.state.add_waiting(app);
            }
        }

        // Process the waiting list in runnable-queue priority order (ageing).
        // VersaSlot inherits the runnable-queue ordering and preemption mechanism
        // of Nimblock for its candidate list, so the waiting list `C_wait` is
        // sorted by the shared ageing priority.
        sort_by_priority(sim, &mut self.keyed, &mut self.state.waiting);

        // Build the Algorithm 1 inputs (reused table, no per-pass map).
        self.info.clear();
        for i in 0..self.active.len() {
            let app = self.active[i];
            let runtime = sim.app(app);
            let (optimal_big, optimal_little) = runtime.optimal_slots();
            self.info.insert(
                app,
                AppAllocInfo {
                    can_bundle: sim.can_bundle(app),
                    unfinished_tasks: runtime.unfinished_units(),
                    optimal_little,
                    optimal_big,
                    started: runtime.started,
                },
            );
        }

        changed |= allocate(
            &mut self.state,
            sim.enabled_slot_total(SlotKind::Big),
            sim.enabled_slot_total(SlotKind::Little),
            sim.free_slot_count(SlotKind::Big),
            sim.free_slot_count(SlotKind::Little),
            &self.info,
        );

        // Granting pass of Algorithm 2: top every bound application up to its
        // allocation R_Ai.  Applications bound to Big slots complete all their
        // 3-in-1 tasks there; Little-bound applications may also keep draining on
        // their home board after a cross-board switch.
        for i in 0..self.state.bound_big.len() {
            let app = self.state.bound_big[i];
            let target = self.state.allocation(app).big;
            loop {
                let (used_big, _) = sim.slots_in_use_by(app);
                if used_big >= target {
                    break;
                }
                let Some(slot) = sim.first_grantable_slot(app, Some(SlotKind::Big)) else {
                    break;
                };
                if !sim.grant_slot(slot, app) {
                    break;
                }
            }
        }

        for i in 0..self.state.bound_little.len() {
            let app = self.state.bound_little[i];
            let target = self.state.allocation(app).little;
            loop {
                let (_, used_little) = sim.slots_in_use_by(app);
                if used_little >= target {
                    break;
                }
                let Some(slot) = sim.first_grantable_slot(app, Some(SlotKind::Little)) else {
                    break;
                };
                if !sim.grant_slot(slot, app) {
                    break;
                }
            }
        }

        // Work-conserving redistribution: whatever Little slots remain free after
        // the allocation-driven grants go to candidate applications (front of the
        // runnable queue first) rather than idling — the paper's redistribution
        // goal of "effectively avoiding slot idling".
        self.candidates.clear();
        for i in 0..self.active.len() {
            let app = self.active[i];
            if !self.state.is_bound_big(app) && sim.app(app).unplaced_units() > 0 {
                self.candidates.push(app);
            }
        }
        sort_by_priority(sim, &mut self.keyed, &mut self.candidates);
        for i in 0..self.candidates.len() {
            let app = self.candidates[i];
            // Bundle-capable applications that are still waiting are left for the
            // Big-slot binding of the next pass when a Big slot is available.
            let still_waiting = self.state.waiting.contains(&app);
            if still_waiting && sim.can_bundle(app) && sim.free_slot_count(SlotKind::Big) > 0 {
                continue;
            }
            let want = sim.app(app).unplaced_units();
            let granted = super::grant_little_slots(sim, app, want);
            if granted > 0 && still_waiting {
                // The application is now executing in Little slots: record the
                // binding so rebinding and future allocation passes see it.
                self.state.waiting.retain(|a| *a != app);
                self.state.bound_little.push(app);
                self.state.allocations.insert(
                    app,
                    crate::allocation::Allocation {
                        big: 0,
                        little: granted,
                    },
                );
            }
        }
        if changed {
            sim.note_policy_state_changed();
        }
        #[cfg(debug_assertions)]
        debug_assert_change_noted(&before, &self.state, sim);

        self.meter.observe(
            self.active.capacity()
                + self.candidates.capacity()
                + self.keyed.capacity()
                + self.info.capacity()
                + self.state.waiting.capacity()
                + self.state.bound_big.capacity()
                + self.state.bound_little.capacity(),
        );
    }
}

/// Debug check of the engine contract: a pass that changed the allocator
/// state left the engine's next pass due.  The waiting list is compared as a
/// set, because every pass re-sorts it before reading it.
#[cfg(debug_assertions)]
fn debug_assert_change_noted(
    before: &AllocationState,
    after: &AllocationState,
    sim: &SharingSimulator,
) {
    let as_set = |state: &AllocationState| {
        let mut waiting = state.waiting.clone();
        waiting.sort_unstable();
        AllocationState {
            waiting,
            ..state.clone()
        }
    };
    assert!(
        as_set(before) == as_set(after) || sim.pass_due(),
        "VersaSlot changed its allocation state at {} without noting it",
        sim.now()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::engine::SharingSimulator;
    use crate::policy::nimblock::NimblockPolicy;
    use versaslot_fpga::board::BoardSpec;
    use versaslot_fpga::cpu::CoreAssignment;
    use versaslot_sim::{SimDuration, SimTime};
    use versaslot_workload::benchmarks::BenchmarkApp;
    use versaslot_workload::AppArrival;

    fn crowded_arrivals(n: u32, spacing_ms: u64) -> Vec<AppArrival> {
        let kinds = [
            BenchmarkApp::ImageCompression,
            BenchmarkApp::AlexNet,
            BenchmarkApp::OpticalFlow,
            BenchmarkApp::LeNet,
            BenchmarkApp::Rendering3D,
        ];
        (0..n)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    kinds[i as usize % kinds.len()].suite_index(),
                    10 + (i % 15),
                    SimTime::ZERO + SimDuration::from_millis(u64::from(i) * spacing_ms),
                )
            })
            .collect()
    }

    #[test]
    fn big_little_binds_bundleable_apps_to_big_slots() {
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(BoardSpec::zcu216_big_little()),
            BenchmarkApp::suite(),
            &crowded_arrivals(4, 100),
        );
        let report = sim.run(&mut VersaSlotPolicy::new());
        assert_eq!(report.completed(), 4);
        assert!(
            report.apps.iter().any(|a| a.used_big_slot),
            "at least one application should have used a Big slot"
        );
    }

    #[test]
    fn big_little_reduces_pr_count_versus_only_little() {
        let work = crowded_arrivals(6, 150);
        let suite = BenchmarkApp::suite();

        let mut bl_sim = SharingSimulator::new(
            SystemConfig::single_board(BoardSpec::zcu216_big_little()),
            suite.clone(),
            &work,
        );
        let bl = bl_sim.run(&mut VersaSlotPolicy::new());

        let mut ol_sim = SharingSimulator::new(
            SystemConfig::single_board(BoardSpec::zcu216_only_little()),
            suite,
            &work,
        );
        let ol = ol_sim.run(&mut VersaSlotPolicy::new());

        assert!(
            bl.total_pr < ol.total_pr,
            "bundling should reduce PR operations ({} vs {})",
            bl.total_pr,
            ol.total_pr
        );
    }

    #[test]
    fn dual_core_beats_single_core_nimblock_under_load() {
        // VersaSlot Only.Little vs Nimblock: same uniform slots, the difference is
        // the dual-core decoupling (plus allocation details).  Under a loaded
        // arrival pattern VersaSlot should not be slower.
        let work = crowded_arrivals(10, 180);
        let suite = BenchmarkApp::suite();

        let mut vs_sim = SharingSimulator::new(
            SystemConfig::single_board(BoardSpec::zcu216_only_little()),
            suite.clone(),
            &work,
        );
        let vs = vs_sim.run(&mut VersaSlotPolicy::new());

        let mut nb_sim = SharingSimulator::new(
            SystemConfig::single_board(
                BoardSpec::zcu216_only_little().with_cores(CoreAssignment::SingleCore),
            ),
            suite,
            &work,
        );
        let nb = nb_sim.run(&mut NimblockPolicy::new());

        // The paper reports VersaSlot Only.Little ahead of Nimblock by up to 1.35x;
        // in this reproduction the two are close on small workloads (the dual-core
        // benefit is limited by how often PRs occur), so the invariant checked here
        // is "not meaningfully worse", with the blocking counters showing where the
        // dual-core decoupling helps.
        assert!(
            vs.mean_response_ms() <= nb.mean_response_ms() * 1.10,
            "versaslot only-little ({:.1} ms) should stay within 10% of nimblock ({:.1} ms)",
            vs.mean_response_ms(),
            nb.mean_response_ms()
        );
        assert!(vs.blocked_events <= nb.blocked_events);
    }

    #[test]
    fn allocation_state_is_cleaned_up() {
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(BoardSpec::zcu216_big_little()),
            BenchmarkApp::suite(),
            &crowded_arrivals(3, 200),
        );
        let mut policy = VersaSlotPolicy::new();
        sim.run(&mut policy);
        // After everything completed, one final schedule pass prunes all bindings.
        policy.schedule(&mut sim);
        assert!(policy.allocation_state().bound_big.is_empty());
        assert!(policy.allocation_state().bound_little.is_empty());
        assert!(policy.allocation_state().waiting.is_empty());
    }
}
