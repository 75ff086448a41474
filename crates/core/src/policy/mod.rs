//! Scheduling policies.
//!
//! A policy decides, at every scheduling point, which application gets which free
//! slot; the mechanics (partial reconfiguration, pipeline dependencies, launch
//! overheads, CPU blocking) are handled by the [`crate::engine::SharingSimulator`].
//! The crate ships the four comparators the paper evaluates against plus VersaSlot
//! itself:
//!
//! * [`fcfs::FcfsPolicy`] — first-come-first-served spatio-temporal sharing,
//! * [`round_robin::RoundRobinPolicy`] — round-robin slot sharing,
//! * [`nimblock::NimblockPolicy`] — Nimblock-style priority scheduling with
//!   ILP-optimal slot counts (single-core),
//! * [`versaslot::VersaSlotPolicy`] — Algorithm 1 + Algorithm 2 of the paper
//!   (Big.Little allocation, 3-in-1 bundling, dual-core scheduling),
//!
//! and the whole-FPGA temporal-multiplexing baseline lives in [`crate::baseline`]
//! because it does not share slots at all.
//!
//! # The engine contract: when a pass runs
//!
//! The engine calls [`Policy::schedule`] at most once per simulation instant,
//! and only when the pass is *due* and some free slot is grantable, or when
//! the policy preempts ([`Policy::preempts`]) and
//! `SharingSimulator::preemption_victim` finds a victim.  A pass is due
//! after any change of the engine state a policy reads (see the `engine`
//! module docs) or after the previous pass called
//! `SharingSimulator::note_policy_state_changed`.  Skipping the other
//! instants is exact for a policy that
//!
//! * changes engine state only through `SharingSimulator::grant_slot` and
//!   `preempt_for_starving_apps` (never `SharingSimulator::release_slot`
//!   directly);
//! * reads the state of loaded or reconfiguring slots (which slots are
//!   loaded, idle or busy, and how many items a loaded unit has run) only
//!   through `SharingSimulator::preemption_victim`.  A PR completion, which
//!   turns a reconfiguring slot into a loaded one, therefore does not make
//!   a pass due: its only policy-visible effect is a new loaded-idle slot,
//!   and every flush that runs no pass still asks `preemption_victim`
//!   (for a policy that preempts);
//! * preempts only if [`Policy::preempts`] returns `true`.  The default is
//!   `true`, which is exact for any policy: it only lets a victim open a
//!   pass.  A policy that never calls `preempt_for_starving_apps` may return
//!   `false`, and the engine then neither scans for a victim nor runs a pass
//!   for one; FCFS does.  Such a pass could grant nothing new: without a
//!   grantable slot nothing can be granted, and with one the pass is
//!   settled;
//! * calls `SharingSimulator::note_policy_state_changed` whenever its pass
//!   changed state a later pass reads.  Grants and releases need no call.
//!   VersaSlot reports changed bindings, allocations and waiting-list
//!   membership; the waiting list's *order* is not state, because a total
//!   order re-sorts it before every read.  FCFS and Nimblock keep no state
//!   across passes, and round-robin moves its cursor only on a grant;
//! * is exhaustive within one pass: it grants everything it would grant, so
//!   a pass that changed nothing would change nothing if rerun later with
//!   only time and item progress moved.  Those reach the shipped policies
//!   only through the ageing-priority order, which decides who goes first,
//!   not whether a grant or binding is feasible.
//!
//! Debug builds rerun every pass skipped as settled and assert that it left
//! the pass undue, and VersaSlot asserts after each pass that any change of
//! its allocation state left the engine's next pass due.
//!
//! # Hot-path discipline
//!
//! A scheduling pass runs at every simulation instant where an input changed
//! and a slot can change hands, so the policies avoid heap allocation in
//! steady state: slot probes go through the engine's O(1) indexed API
//! (`SharingSimulator::first_grantable_slot`,
//! `SharingSimulator::has_grantable_slot`) instead of materialising candidate
//! vectors, and each policy keeps reusable scratch buffers for the application
//! lists it sorts; a list of one or no application is not sorted at all.
//! Per-application inputs are O(1) reads of
//! [`SharingSimulator::app`]: unplaced demand, unfinished units and remaining
//! work are counters the engine keeps in step with every unit change, and the
//! ILP-optimal slot counts `(O_B, O_L)` that Nimblock and VersaSlot cap
//! allocations with (`crate::engine::AppRuntime::optimal_slots`) are set
//! once per admission from the engine's per-suite-application slot curve
//! (`crate::ilp::SlotCurve`), so no policy keeps a per-application cache
//! (which would grow without bound in service mode).
//!
//! A pass also skips the work whose inputs did not change since the previous
//! pass.  The simulator records whether an arrival was admitted or an
//! application completed since then (`SharingSimulator::pass_changes`), and
//! VersaSlot registers waiting applications only after an admission and
//! prunes finished ones only after a completion.  Those records belong to the
//! simulator, not the policy: a policy that copied counts out of one
//! simulator would misread the next one it is reused on.  VersaSlot reads
//! Algorithm 1's inputs straight from the application store
//! (`SharingSimulator::alloc_info`) instead of building a table, and builds
//! its work-conserving candidate list only while some Little slot is free.
//! Debug builds check each skip against the work it skipped.

pub mod fcfs;
pub mod nimblock;
pub mod round_robin;
pub mod versaslot;

use versaslot_fpga::slot::SlotKind;
use versaslot_workload::AppId;

use crate::engine::SharingSimulator;

/// A slot-granting scheduling policy.
///
/// The simulator calls [`Policy::schedule`] at most once per simulation instant
/// (after every batch of same-timestamp events), and only when the pass is due
/// or a preemption is and the policy [preempts](Policy::preempts) — see the module docs for the contract that makes
/// skipping the other instants exact.  The policy acts only by granting free
/// slots via `SharingSimulator::grant_slot` and by preempting through
/// `preempt_for_starving_apps`, reports its own state changes through
/// `SharingSimulator::note_policy_state_changed`, and must be exhaustive
/// within one pass.
pub trait Policy {
    /// Stable identifier used in reports (e.g. `"nimblock"`).
    fn name(&self) -> &'static str;

    /// One scheduling pass over the current system state.  It must grant
    /// everything it would grant right now, and call
    /// `SharingSimulator::note_policy_state_changed` if it changed state a
    /// later pass reads (see the module docs).
    fn schedule(&mut self, sim: &mut SharingSimulator);

    /// Whether a pass may preempt through `preempt_for_starving_apps`.  The
    /// engine runs an otherwise skipped pass for a preemption victim only
    /// when this is `true`, the default, which is exact for every policy; a
    /// policy that never preempts returns `false` and saves the victim scan
    /// and those passes (see the module docs).
    fn preempts(&self) -> bool {
        true
    }

    /// How many times this policy's reusable scratch buffers have grown, the
    /// policy-side mirror of [`versaslot_sim::EventQueue::grow_events`].
    ///
    /// Stays constant once the buffers reach their high-water capacity, so a
    /// steady value across passes certifies an allocation-free scheduling pass.
    fn scratch_allocs(&self) -> u64 {
        0
    }
}

/// Tracks capacity growth of a policy's reusable scratch buffers.
///
/// Feed it the *total* capacity of every scratch buffer after each pass: since
/// `Vec` capacities never shrink under `clear()`, the total is monotone and each
/// strict increase corresponds to at least one heap (re)allocation.  Mirrors the
/// accounting style of `EventQueue::grow_events`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScratchMeter {
    high_water: usize,
    allocs: u64,
}

impl ScratchMeter {
    /// Records the current total scratch capacity, counting growth events.
    pub(crate) fn observe(&mut self, total_capacity: usize) {
        if total_capacity > self.high_water {
            self.high_water = total_capacity;
            self.allocs += 1;
        }
    }

    /// Number of observed growth events so far.
    pub(crate) fn allocs(&self) -> u64 {
        self.allocs
    }
}

/// Ageing priority shared by the priority-ordered policies: time waited divided
/// by remaining work, so small or long-waiting applications rise to the front.
///
/// Reads the application's arrival and its O(1) remaining-work counter
/// ([`crate::engine::AppRuntime::remaining_work`]).
pub(crate) fn ageing_priority(sim: &SharingSimulator, app: AppId) -> f64 {
    let runtime = sim.app(app);
    let waited = sim.now().saturating_since(runtime.arrival).as_millis_f64();
    (waited + 1.0) / runtime.remaining_work().as_millis_f64().max(1.0)
}

/// Sorts `list` by descending [`ageing_priority`] (ties broken by ascending id),
/// computing each priority exactly once via the reusable `keyed` scratch buffer.
///
/// The comparator is identical to sorting the ids directly with per-comparison
/// priority recomputation — priorities are pure functions of pre-pass state — so
/// the resulting permutation (and therefore every report) is unchanged; the
/// difference is O(n) instead of O(n log n) priority evaluations.  A list of
/// one or no application is already sorted and costs nothing.
pub(crate) fn sort_by_priority(
    sim: &SharingSimulator,
    keyed: &mut Vec<(f64, AppId)>,
    list: &mut Vec<AppId>,
) {
    if list.len() <= 1 {
        return;
    }
    keyed.clear();
    keyed.extend(list.iter().map(|&app| (ageing_priority(sim, app), app)));
    keyed.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("priorities are finite")
            .then(a.1.cmp(&b.1))
    });
    list.clear();
    list.extend(keyed.iter().map(|&(_, app)| app));
}

/// Grants up to `want` Little slots to `app`, returning how many grants succeeded.
///
/// Shared helper used by the uniform-slot policies.  Each probe is an O(1)
/// indexed lookup ([`SharingSimulator::first_grantable_slot`]); no candidate
/// vector is built.
pub(crate) fn grant_little_slots(sim: &mut SharingSimulator, app: AppId, want: u32) -> u32 {
    let mut granted = 0;
    while granted < want {
        let Some(slot) = sim.first_grantable_slot(app, Some(SlotKind::Little)) else {
            break;
        };
        if !sim.grant_slot(slot, app) {
            break;
        }
        granted += 1;
    }
    granted
}

/// Default preemption quantum: a unit may be preempted once it has processed this
/// many batch items since it was last loaded.
pub(crate) const PREEMPTION_QUANTUM: u32 = 6;

/// Quantum-based preemption at task-item boundaries, shared by the preemptive
/// policies (round-robin, Nimblock, and VersaSlot's Little slots).
///
/// If some application is *starving* — it has unplaced work, holds no slot, and no
/// free slot is grantable to it — one loaded, idle Little slot is taken away from
/// an application that holds at least two slots and whose unit has processed at
/// least [`PREEMPTION_QUANTUM`] items since it was loaded.  At most one slot is
/// released per call to avoid thrashing; the caller's normal granting pass then
/// hands the freed slot to the starving application.
///
/// The search is [`SharingSimulator::preemption_victim`], the same scan the
/// engine uses to run a pass that is not otherwise due, so skipping the
/// other passes stays exact.
///
/// Returns `true` if a slot was preempted.
pub(crate) fn preempt_for_starving_apps(sim: &mut SharingSimulator) -> bool {
    sim.preemption_victim()
        .is_some_and(|slot| sim.release_slot(slot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use versaslot_fpga::board::BoardSpec;
    use versaslot_sim::SimTime;
    use versaslot_workload::benchmarks::BenchmarkApp;
    use versaslot_workload::AppArrival;

    /// A minimal policy built directly on the shared helper: every pass it tops
    /// each active application up to its unplaced demand, first come first
    /// served.  Exercises `grant_little_slots` through the normal scheduling
    /// path.
    struct GreedyLittle {
        scratch: Vec<AppId>,
    }

    impl Policy for GreedyLittle {
        fn name(&self) -> &'static str {
            "greedy-little"
        }

        fn schedule(&mut self, sim: &mut SharingSimulator) {
            self.scratch.clear();
            self.scratch.extend_from_slice(sim.active_apps());
            for i in 0..self.scratch.len() {
                let app = self.scratch[i];
                let want = sim.app(app).unplaced_units();
                grant_little_slots(sim, app, want);
            }
        }
    }

    #[test]
    fn grant_little_slots_stops_at_demand_and_capacity() {
        let config = SystemConfig::single_board(BoardSpec::zcu216_only_little());
        let arrivals = vec![AppArrival::new(
            AppId(0),
            BenchmarkApp::LeNet.suite_index(),
            5,
            SimTime::ZERO,
        )];
        let mut sim = SharingSimulator::new(config, BenchmarkApp::suite(), &arrivals);
        let mut policy = GreedyLittle {
            scratch: Vec::new(),
        };
        let report = sim.run(&mut policy);
        assert_eq!(report.completed(), 1);
        // LeNet has 6 tasks and 8 Little slots were available: demand was capped by
        // the task count, not the slot count.
        assert_eq!(report.apps[0].pr_count, 6);
        assert_eq!(report.scheduler, "greedy-little");
    }

    #[test]
    fn preemption_frees_a_slot_for_a_starving_app() {
        // Two six-task applications on a 4-slot board: the first hogs every slot,
        // so once its units exhaust the quantum the helper must release one for
        // the second.
        let board = BoardSpec::zcu216_only_little().with_layout(
            versaslot_fpga::slot::SlotLayout::with_counts(
                0,
                4,
                BoardSpec::zcu216_little_capacity(),
            ),
        );
        let arrivals = vec![
            AppArrival::new(
                AppId(0),
                BenchmarkApp::LeNet.suite_index(),
                30,
                SimTime::ZERO,
            ),
            AppArrival::new(
                AppId(1),
                BenchmarkApp::LeNet.suite_index(),
                8,
                SimTime::ZERO,
            ),
        ];
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(board),
            BenchmarkApp::suite(),
            &arrivals,
        );
        let mut policy = crate::policy::round_robin::RoundRobinPolicy::new();
        let report = sim.run(&mut policy);
        assert_eq!(report.completed(), 2);
        // Preemption forces extra reconfigurations beyond one per task.
        assert!(
            report.total_pr > 12,
            "expected preemption PRs, got {}",
            report.total_pr
        );
    }

    /// The scratch audit: after one warm-up run has grown every reusable buffer
    /// to its high-water capacity, a second identical run must not allocate —
    /// [`Policy::scratch_allocs`] (the policy-side mirror of the event queue's
    /// `grow_events`) stays constant across all of its passes.
    #[test]
    fn scheduling_passes_are_allocation_free_after_warmup() {
        use crate::policy::fcfs::FcfsPolicy;
        use crate::policy::nimblock::NimblockPolicy;
        use crate::policy::round_robin::RoundRobinPolicy;
        use crate::policy::versaslot::VersaSlotPolicy;

        let kinds = [
            BenchmarkApp::ImageCompression,
            BenchmarkApp::AlexNet,
            BenchmarkApp::OpticalFlow,
            BenchmarkApp::LeNet,
            BenchmarkApp::Rendering3D,
        ];
        let arrivals: Vec<AppArrival> = (0..10u32)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    kinds[i as usize % kinds.len()].suite_index(),
                    8 + (i % 5),
                    SimTime::ZERO + versaslot_sim::SimDuration::from_millis(u64::from(i) * 120),
                )
            })
            .collect();
        let run_once = |policy: &mut dyn Policy| {
            let mut sim = SharingSimulator::new(
                SystemConfig::single_board(BoardSpec::zcu216_big_little()),
                BenchmarkApp::suite(),
                &arrivals,
            );
            let report = sim.run(policy);
            assert_eq!(report.completed(), 10, "{}", policy.name());
        };

        let mut policies: Vec<Box<dyn Policy>> = vec![
            Box::new(FcfsPolicy::new()),
            Box::new(RoundRobinPolicy::new()),
            Box::new(NimblockPolicy::new()),
            Box::new(VersaSlotPolicy::new()),
        ];
        for policy in &mut policies {
            run_once(policy.as_mut());
            let warm = policy.scratch_allocs();
            assert!(
                warm > 0,
                "{} never grew its scratch — the meter is not wired up",
                policy.name()
            );
            run_once(policy.as_mut());
            assert_eq!(
                policy.scratch_allocs(),
                warm,
                "{} allocated scratch after warm-up",
                policy.name()
            );
        }
    }
}
