//! The spatio-temporal FPGA sharing simulator.
//!
//! [`SharingSimulator`] models one (or, for the switching experiment, two) FPGA
//! boards whose slots are shared by a stream of applications, driving the hardware
//! models of `versaslot-fpga` with a discrete-event loop.  Batch item *b* of a
//! unit can only start once the predecessor unit has produced item *b* and the
//! hosting slot is loaded and idle; every launch costs the scheduler core a
//! small overhead and is therefore delayed while that core is suspended.
//!
//! The *policy* (which application gets which slot, and when) is pluggable — see
//! [`crate::policy`].
//!
//! # The planes
//!
//! This module holds the stepping path: [`SharingSimulator::step`], the
//! common instant's handlers, the pass and the launch sweep, admission and
//! the policy-facing API.  Each plane is a module and a simulator field: `hw`
//! (cores, PR cost, slot masks), `faults` and `switch` (their state private
//! to them, absent when off) and `report` (utilization, the run report).
//! Each slot set is one `u64` mask, so a run has at most `MAX_SLOTS` = 64
//! slots: a fleet scales out by shards, so one simulator models at most a
//! small cluster.
//!
//! # At most one scheduling pass per simulation instant
//!
//! Discrete-event workloads cluster: a PR completion, the item completions it
//! unblocks and a batch arrival frequently share one timestamp.  Rerunning the
//! policy after every individual event would schedule against half-applied
//! state and burn most of the hot path re-sorting unchanged queues, so the
//! engine separates *applying* events from *reacting* to them:
//! [`SharingSimulator::step`] applies one event but *defers* its `flush` — a
//! policy pass (unless it is settled, see below) followed by a launch
//! sweep — while more events remain at the same timestamp, including events
//! the instant itself schedules (e.g. a zero-overhead switch).
//! [`SharingSimulator::run`] is just `step` until the queue drains.  The
//! launch sweep is *targeted*: applying an event returns the application
//! and unit it touched, the flush sweeps only the touched units, and debug
//! builds cross-check with `debug_assert_no_launchable` that nothing else
//! could have launched.
//!
//! Nearly every instant is one event.  On perfbench's `service_diurnal`
//! workload (seed 1), 2,561,090 of 2,561,481 instants hold one event,
//! 2,157,109 of those are a lone item completion that runs no pass, and only
//! 360 instants touch a second application.  So `step` hands the flush the
//! touch of the instant's last event unrecorded, and the flush of a
//! one-event instant sweeps that touch straight from the event.  Only an
//! instant of several events records its touches in the touched list, in
//! first-touch order with each application's range widened, and the flush
//! sweeps the list in that order.
//!
//! # Settled scheduling passes are skipped
//!
//! Most instants change no input of the policy: a batch item completes, its
//! slot goes idle, and the pipeline launches the next one.  The simulator
//! keeps one `pass_due` flag, which starts set and is set again by every
//! change a policy can observe:
//!
//! * a slot change that flips the slot's free or enabled bit — grant,
//!   release, PR abandonment, unit finish, eviction, quarantine release,
//!   board enable or disable — all through one funnel, `update_slot`;
//! * an admitted arrival and an application completion;
//! * a board failure or repair, and a switch completion;
//! * `SharingSimulator::note_policy_state_changed`, which a policy calls
//!   when its pass changed state a later pass reads.
//!
//! A non-final item completion (busy to idle, item counters, remaining
//! work) sets nothing, and neither does a PR completion (reconfiguring to
//! loaded), which flips neither bit: policies read loaded and reconfiguring
//! slots only through `SharingSimulator::preemption_victim`, which every
//! flush that runs no pass evaluates for a preempting policy.
//!
//! The flush calls [`Policy::schedule`] only when the pass is due and some
//! free slot is grantable to an active application (or any slot is free and
//! no application is active, so policies prune finished applications at the
//! end of a run), or when the policy preempts ([`Policy::preempts`]) and
//! `SharingSimulator::preemption_victim` finds a victim.  It clears the flag
//! just before the call.  The launch sweep runs at every instant regardless.
//!
//! Beside the flag the simulator keeps two narrower signals, together a
//! `PassChanges`: whether an arrival was admitted and whether an application
//! completed since the last pass began.  Admission and completion set them
//! with the flag, and where the flag is cleared they move into the record
//! the running pass reads (`SharingSimulator::pass_changes`), so a pass can
//! skip what only they change: VersaSlot registers waiting applications only
//! after an admission and prunes finished ones only after a completion.  A
//! pass skipped while one is set leaves it set for the next pass that runs.
//! Both start set, so the first pass on every simulator does the full work;
//! that keeps a policy reused from an earlier run exact.
//!
//! A pass that leaves the flag clear changed nothing, so it is a fixed point.
//! Why skipping it is exact, and what a policy must do for that, is the
//! engine contract in the `policy` module docs.  The flag belongs to the
//! simulator, so it assumes the same policy on every
//! [`SharingSimulator::step`].  Debug builds rerun every pass skipped as
//! settled and assert it left the flag clear, assert that a pass skipped for
//! want of a grantable slot had none (and, for a preempting policy, no
//! victim), and the `behaviour_lock` test pins the outputs of every
//! scheduler and run mode to digests recorded from the always-pass engine.
//!
//! # O(1) per-event bookkeeping
//!
//! Nothing an event handler or a flush does walks every slot or every live
//! application; state the engine already knows is kept incrementally, and
//! each operation resolves its application once:
//!
//! * **One lookup per operation.** A grant, an item completion and a launch
//!   sweep each look their application up in the store once and do all of
//!   its bookkeeping in that one borrow: a grant runs every rejection check,
//!   places the unit, moves the occupancy counters (under one
//!   `track_idle_demand`) and counts a blocked PR there, beside disjoint
//!   borrows of the board's PR path and cores; an item completion records
//!   the item, frees a finished unit's occupancy and marks the application
//!   completed there.  The slot side (masks, state, trace) follows; of it
//!   only a slot turning loaded reads the application again (its unit's
//!   resources), and a launch only when it is blocked.
//! * **Utilization.** The integers behind the utilization ratios change only
//!   at slot-state transitions and board enable/disable, all through one
//!   funnel, `update_slot`, which integrates them exactly (see the `report`
//!   module).
//! * **Starvation gate.** `idle_demand` counts the stored applications that
//!   have unplaced units and hold no slot; only such an application can
//!   starve, so while it is 0 a flush asks for no preemption victim (see
//!   `SharingSimulator::preemption_victim`).  One before/after helper,
//!   `track_idle_demand`, moves it wherever an application's unplaced units
//!   or occupied slots change.
//! * **Optimal slot counts.** `AppRuntime::optimal_slots` serves each
//!   application's ILP-optimal `(O_B, O_L)`, read at admission off its suite
//!   application's `crate::ilp::SlotCurve`, built at that application's first
//!   admission and kept for the run.
//! * **Retirement.** [`SharingSimulator::retire_completed`] folds the
//!   applications recorded as they completed and returns at once when none
//!   did.
//! * **Launch sweep.** A completion of unit `u` changes the readiness inputs
//!   of units `u` and `u + 1` only, so the flush sweeps each touched
//!   application's *dirty unit range* (see
//!   `SharingSimulator::launch_sweep_app`).  A one-event instant's range is
//!   `u..=u + 1`, read from the event itself; the touched list holds the
//!   ranges of an instant of several events only.
//! * **Preemption candidates.** `SharingSimulator::preemption_victim` walks
//!   the `ripe` slot mask (units past `PREEMPTION_QUANTUM` items since their
//!   load) instead of every loaded-idle Little slot.
//!
//! `SharingSimulator::verify_indexes` (debug builds, after every event)
//! recounts every such index from the slots and the application store.  Unit
//! tests drive board outages and cross-board switches through that recount,
//! and run VersaSlot and Nimblock in service mode past 5,000 retirements to
//! bound the curve table and the store.
//!
//! # One application store
//!
//! Each live [`AppRuntime`] is kept once, in a flat window indexed by
//! identifier (`AppStore`), whose memory stays proportional to the live
//! identifier span and whose iteration is in identifier order, the order
//! every report relies on.  What a policy pass reads per application is
//! O(1): the remaining work, unfinished units and unplaced units are counters
//! inside the runtime, moved by the engine in the same borrow as the unit
//! change, and recounted by `SharingSimulator::verify_indexes` in debug
//! builds.
//!
//! # Allocation-free event spine
//!
//! Steady-state simulation performs **zero heap allocations per event**:
//!
//! * the [`EventQueue`] is one sorted run, pre-sized at construction with
//!   `SharingSimulator::event_queue_capacity`, so it never grows
//!   ([`SharingSimulator::step`] debug-asserts
//!   [`SharingSimulator::event_queue_grow_events`] stays `0`); a push moves
//!   the new entry back past the pending events due at or before it, and a
//!   finite run's arrivals are bulk-loaded with one stable sort, so tied
//!   arrivals are admitted in input order;
//! * an arrival event carries its application's record (identifier, suite
//!   index, batch size; its time is the arrival time) within the 16-byte
//!   event, so admission looks nothing up and the engine keeps only a count
//!   of pending arrivals, no table of them;
//! * the utilization integrator and the starvation gate cost O(1) per event
//!   (see above): a non-final item completion touches no utilization state,
//!   and a flush with no application waiting slotless skips the preemption
//!   scan;
//! * [`Trace::log`] takes a `Copy` [`TraceDetail`] payload and bumps a
//!   fixed-array counter, so a counting-only trace never formats or allocates;
//! * the touched list and the policies reuse scratch buffers that reach
//!   their high-water mark during warm-up; every policy reports
//!   reallocations via `Policy::scratch_allocs`, and the allocation-audit
//!   test asserts the count stays flat after the first run.
//!
//! # The per-event hot path
//!
//! Most events are item completions, and the common instant is one item
//! completing, nothing else due, and the next item of that unit launching.
//! That instant's flush sweeps the event's own touch, through one call to
//! the out-of-line `launch_sweep_app`; the touched list's bookkeeping
//! (`record_touch`, `sweep_touched`) is `#[cold]`, since instants of several
//! events are rare.  The instant runs its no-op checks inline, without
//! calls: the completion acceptance (`accept_completion` is one `Option`
//! test while the fault plane is off), the pass gate (`any_slot_grantable`
//! over one-word masks), the victim pre-check (`loaded_idle & ripe &
//! Little` must be non-empty before `preemption_victim` is called), the
//! trace count ([`Trace::log`] inlines only the counter bump) and the
//! service loop's fold ([`SharingSimulator::retire_completed`] returns
//! inline when nothing completed).  Every rare path runs out of line: arrival admission, PR
//! failure, board failure and repair, switch completion, the D_switch
//! update, the stale-completion release, retiring and recording a trace
//! body are `#[inline(never)]` or `#[cold]`.  A rare handler must not be
//! inlined into [`SharingSimulator::step`]: its code would sit between the
//! common path's instructions and spread them over more cache lines, and
//! its locals would raise the frame and register pressure of every event,
//! for work that runs on a small share of events.

pub mod app;
mod faults;
mod hw;
mod mask;
mod report;
pub mod slot;
mod switch;

#[cfg(any(test, debug_assertions))]
use std::collections::BTreeMap;

use versaslot_fpga::board::BoardId;
use versaslot_fpga::interconnect::DmaModel;
use versaslot_fpga::pcap::SerialServer;
use versaslot_fpga::resources::ResourceVector;
use versaslot_fpga::slot::SlotKind;
use versaslot_sim::{
    EventQueue, SimDuration, SimTime, TimeWeightedRatios, Trace, TraceDetail, TraceKind,
};
use versaslot_workload::{AppArrival, AppId, ApplicationSpec};

use crate::allocation::AppAllocInfo;
use crate::config::SystemConfig;
use crate::ilp::{optimal_big_slots, optimal_little_slots, SlotCurve};
use crate::metrics::RunReport;
use crate::policy::{Policy, PREEMPTION_QUANTUM};

use app::AppStore;
use faults::FaultState;
use hw::{kind_bit, BoardCores, SlotIndex};
use mask::SlotMask;
use report::UtilTotals;
use switch::SwitchPlane;

pub use app::{AppRuntime, AppState, ExecMode, UnitRuntime};
pub use slot::{ExecUnit, SlotRuntime, SlotState};

/// Livelock bound of a finite workload's [`SharingSimulator::run`] (a run of
/// the paper's largest workload needs well under a million events).  Service
/// and fleet runs step past it: their stop condition bounds them.
const MAX_EVENTS: u64 = 50_000_000;

/// The most slots one run can have: each slot set is one `u64` [`SlotMask`].
/// A fleet scales out by shards, one simulator each, so a simulator models
/// at most a small cluster (the paper's two-board cluster has 14 slots).
/// `SystemConfig::validate` rejects a larger configuration.
pub(crate) const MAX_SLOTS: usize = u64::BITS as usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// An application arrives at the event's time; the event carries the
    /// rest of its record.
    Arrival {
        id: AppId,
        app_index: u32,
        batch: u32,
    },
    /// `gen` is the slot's eviction generation at push time (see the
    /// `faults` module); always `0` when the fault plane is off.
    PrComplete {
        slot: usize,
        gen: u32,
    },
    ItemComplete {
        slot: usize,
        gen: u32,
    },
    SwitchComplete {
        board: usize,
    },
    /// Fault plane: the board fails (occupants evicted, slots offline).
    BoardDown {
        board: usize,
    },
    /// Fault plane: the board finished repair (slots back online).
    BoardUp {
        board: usize,
    },
}

impl Event {
    /// The arrival event of `arrival`, due at its arrival time.  The caller
    /// has checked the suite index against the suite.
    fn arrival(arrival: &AppArrival) -> (SimTime, Event) {
        let event = Event::Arrival {
            id: arrival.id,
            app_index: arrival.app_index as u32,
            batch: arrival.batch_size,
        };
        (arrival.arrival, event)
    }
}

/// DMA time of `spec`'s largest per-item transfer on `dma`: what every unit
/// of the application pays per item to move its data.
fn largest_item_dma(dma: &DmaModel, spec: &ApplicationSpec) -> SimDuration {
    dma.transfer_duration(
        spec.tasks()
            .iter()
            .map(|t| t.data_per_item_bytes())
            .max()
            .unwrap_or(0),
    )
}

/// Applies `change` to `app` and moves `idle_demand` by the change of the
/// application's [`AppRuntime::has_idle_demand`] predicate.  Every change of
/// an application's unplaced units or occupied slots goes through here (or
/// through [`SharingSimulator::update_app`], which calls it), so the counter
/// always equals the number of stored applications the predicate holds for.
fn track_idle_demand<R>(
    idle_demand: &mut u32,
    app: &mut AppRuntime,
    change: impl FnOnce(&mut AppRuntime) -> R,
) -> R {
    let before = app.has_idle_demand();
    let result = change(app);
    match (before, app.has_idle_demand()) {
        (false, true) => *idle_demand += 1,
        (true, false) => *idle_demand -= 1,
        _ => {}
    }
    result
}

/// The two policy inputs a scheduling pass may skip re-deriving when they did
/// not change since the previous pass: an admitted arrival (the only source
/// of an application the policy has not seen) and an application completion
/// (the only way an application the policy lists stops being live).
///
/// Both start set, so a policy's first pass on a simulator sees every
/// application it lists and every one that waits, even a policy reused from
/// an earlier run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PassChanges {
    /// An arrival was admitted since the previous pass.
    pub admitted: bool,
    /// An application completed since the previous pass.
    pub completed: bool,
}

impl PassChanges {
    const ALL: PassChanges = PassChanges {
        admitted: true,
        completed: true,
    };
}

/// Discrete-event simulator of fine-grained FPGA sharing on one or two boards.
#[derive(Debug)]
pub struct SharingSimulator {
    config: SystemConfig,
    /// The specifications the arrivals index into; each shares its data with
    /// the caller's copy (see [`ApplicationSpec`]).
    suite: Vec<ApplicationSpec>,
    now: SimTime,
    events: EventQueue<Event>,
    apps: AppStore,
    slots: Vec<SlotRuntime>,
    index: SlotIndex,
    /// Arrived, not-yet-completed applications, sorted by identifier.
    active: Vec<AppId>,
    /// Stored applications with unplaced units and no slot (see
    /// [`AppRuntime::has_idle_demand`]): while it is 0 no application can
    /// starve, so [`Self::preemption_victim`] returns at once.
    idle_demand: u32,
    cores: Vec<BoardCores>,
    /// One serial PR path (SD read + PCAP load) per board.
    pr_paths: Vec<SerialServer>,

    total_pr: u64,
    blocked_events: u64,
    blocked_tasks: u64,
    events_processed: u64,
    arrivals_admitted: u64,
    /// Arrival events scheduled but not yet admitted.
    pending_arrivals: u64,

    /// Running utilization totals (see [`UtilTotals`]).
    util: UtilTotals,
    /// Each slot's current share of `util`, kept by [`Self::update_slot`] so
    /// a slot change recomputes only the new share.
    slot_share: Vec<UtilTotals>,
    /// Occupancy, LUT and FF utilization over time, one lane each, set by
    /// [`Self::update_slot`] whenever `util` changes.
    utilization: TimeWeightedRatios<3>,
    trace: Trace,

    /// The switch plane; `None` without switching.
    switch: Option<SwitchPlane>,
    /// The fault plane; `None` disables fault injection entirely.
    fault: Option<Box<FaultState>>,

    /// The ILP slot curve of each suite application, indexed by suite index
    /// and built at its first admission; each admission reads its `O_L` off
    /// the curve into the admitted [`AppRuntime`].  Sized at the first
    /// admission, so constructing a simulator allocates nothing for it.
    slot_curves: Vec<Option<SlotCurve>>,
    /// Applications completed since the last [`Self::retire_completed`].
    completed: Vec<AppId>,

    /// Applications whose units progressed since the last scheduling pass,
    /// each with its dirty unit range `lo..=hi` — the only candidates for
    /// the launch sweep (no steady-state allocation).
    touched_scratch: Vec<(AppId, usize, usize)>,
    /// The ready `(unit, slot, item duration)` triples of the application
    /// the launch sweep is on, in ascending unit order (no steady-state
    /// allocation).
    ready_scratch: Vec<(usize, usize, SimDuration)>,
    /// Whether a policy input changed since the last scheduling pass began
    /// (see the module docs): a pass that leaves it clear reached a fixed
    /// point, and the next one is skipped unless a preemption is due.
    pass_due: bool,
    /// Admissions and completions since the last scheduling pass began; set
    /// with `pass_due` and moved into `pass_changes` where it is cleared.
    changes_since_pass: PassChanges,
    /// What changed before the running (or last) pass began, read by the
    /// policy through [`Self::pass_changes`].
    pass_changes: PassChanges,
    /// Scheduling passes run so far.  Passes skipped as settled are not
    /// counted, although debug builds run them as a check.
    passes: u64,
}

impl SharingSimulator {
    /// Creates a simulator for `arrivals` drawn from `suite`, on the boards of
    /// `config` (board 0 starts active).  The simulator keeps `suite` as
    /// given: a clone of [`BenchmarkApp::suite`]'s specifications shares their
    /// data, so passing one costs a vector, not a copy of every application.
    ///
    /// [`BenchmarkApp::suite`]: versaslot_workload::BenchmarkApp::suite
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails `SystemConfig::validate`, an arrival
    /// references an application outside the suite, or two arrivals share an
    /// identifier.
    pub fn new(config: SystemConfig, suite: Vec<ApplicationSpec>, arrivals: &[AppArrival]) -> Self {
        Self::build(config, suite, arrivals, arrivals.len())
    }

    /// Creates a simulator for **service mode**: no arrivals are scheduled up
    /// front; the caller injects them one at a time with
    /// [`Self::inject_arrival`] and retires finished applications with
    /// [`Self::retire_completed`], so the application tables stay O(live apps)
    /// over an unbounded run.
    ///
    /// The event queue is pre-sized for at most `arrival_lookahead` pending
    /// injected arrivals (the service runner injects the next one only once
    /// none is pending, so it keeps exactly one in flight), so the
    /// allocation-free spine invariant holds in service mode too.
    pub fn for_service(
        config: SystemConfig,
        suite: Vec<ApplicationSpec>,
        arrival_lookahead: usize,
    ) -> Self {
        Self::build(config, suite, &[], arrival_lookahead)
    }

    /// The one constructor: schedules `arrivals` up front in a queue sized for
    /// `arrival_capacity` pending arrival events at once.
    fn build(
        config: SystemConfig,
        suite: Vec<ApplicationSpec>,
        arrivals: &[AppArrival],
        arrival_capacity: usize,
    ) -> Self {
        config.validate().unwrap_or_else(|err| panic!("{err}"));
        for arrival in arrivals {
            assert!(
                arrival.app_index < suite.len(),
                "arrival {} references application index {} outside the suite",
                arrival.id,
                arrival.app_index
            );
        }

        let total_slots: usize = config
            .boards
            .iter()
            .map(|board| board.layout.slots().len())
            .sum();

        let mut slots = Vec::new();
        let mut cores = Vec::new();
        let mut index = SlotIndex::new(config.boards.len());
        for (board_idx, board) in config.boards.iter().enumerate() {
            for descriptor in board.layout.slots() {
                let slot_idx = slots.len();
                let enabled = board_idx == 0;
                index.free.insert(slot_idx);
                if enabled {
                    index.enabled.insert(slot_idx);
                }
                index.kind[kind_bit(descriptor.kind)].insert(slot_idx);
                index.board[board_idx].insert(slot_idx);
                slots.push(SlotRuntime {
                    descriptor: *descriptor,
                    board: BoardId(board_idx as u32),
                    enabled,
                    state: SlotState::Free,
                });
            }
            cores.push(BoardCores::new(board));
        }
        let pr_paths = vec![SerialServer::new(); config.boards.len()];

        let fault = config
            .active_faults()
            .map(|profile| Box::new(FaultState::new(profile, config.boards.len(), total_slots)));

        let mut events = EventQueue::with_capacity(Self::event_queue_capacity(
            &config,
            arrival_capacity,
            slots.len(),
        ));
        let mut ids: Vec<AppId> = arrivals.iter().map(|arrival| arrival.id).collect();
        ids.sort_unstable();
        if let Some(pair) = ids.windows(2).find(|pair| pair[0] == pair[1]) {
            panic!("duplicate application id {}", pair[0]);
        }
        // One stable sort: tied arrivals are admitted in input order.
        events.extend(arrivals.iter().map(Event::arrival));

        let switch = SwitchPlane::new(&config);
        let trace = if config.record_trace {
            Trace::recording()
        } else {
            Trace::counting_only()
        };

        let mut sim = SharingSimulator {
            config,
            suite,
            pending_arrivals: arrivals.len() as u64,
            now: SimTime::ZERO,
            events,
            apps: AppStore::default(),
            slots,
            index,
            active: Vec::new(),
            idle_demand: 0,
            cores,
            pr_paths,
            total_pr: 0,
            blocked_events: 0,
            blocked_tasks: 0,
            events_processed: 0,
            arrivals_admitted: 0,
            util: UtilTotals::default(),
            slot_share: Vec::new(),
            utilization: TimeWeightedRatios::new(SimTime::ZERO, [(0, 0); 3]),
            trace,
            switch,
            fault,
            slot_curves: Vec::new(),
            completed: Vec::new(),
            touched_scratch: Vec::new(),
            ready_scratch: Vec::new(),
            pass_due: true,
            changes_since_pass: PassChanges::ALL,
            pass_changes: PassChanges::ALL,
            passes: 0,
        };
        sim.slot_share = (0..sim.slots.len())
            .map(|idx| sim.slot_utilization(idx))
            .collect();
        for &share in &sim.slot_share {
            sim.util.add(share);
        }
        sim.utilization = TimeWeightedRatios::new(SimTime::ZERO, sim.util.lanes());
        sim
    }

    /// Schedules one externally generated arrival (service mode).
    ///
    /// # Panics
    ///
    /// Panics if the arrival references an application outside the suite, lies
    /// in the past, or reuses the identifier of a live application.  An
    /// identifier injected twice before its first admission panics at the
    /// second admission.
    pub fn inject_arrival(&mut self, arrival: AppArrival) {
        assert!(
            arrival.app_index < self.suite.len(),
            "arrival {} references application index {} outside the suite",
            arrival.id,
            arrival.app_index
        );
        assert!(
            arrival.arrival >= self.now,
            "arrival {} at {} lies in the past (now {})",
            arrival.id,
            arrival.arrival,
            self.now
        );
        assert!(
            self.apps.get(arrival.id).is_none(),
            "duplicate application id {}",
            arrival.id
        );
        self.pending_arrivals += 1;
        let (time, event) = Event::arrival(&arrival);
        self.events.push(time, event);
    }

    /// Removes every completed application from the runtime tables, calling
    /// `fold` on each before it is dropped, and returns how many were retired.
    ///
    /// This is what keeps service-mode memory O(live applications): the caller
    /// folds whatever it needs (response time, PR count, …) into its own
    /// constant-size accumulators and the records are gone.  The D_switch
    /// inputs count nothing from the retired records, so switching behaviour
    /// is identical with and without retirement.
    ///
    /// Completion-driven: the engine records each application as it completes,
    /// so a call with no completion since the previous one returns at once,
    /// and the others fold just the new completions, in identifier order.
    /// The emptiness check is inlined into the caller, which makes it once
    /// per event; the retiring itself runs out of line, because most events
    /// complete no application.
    #[inline]
    pub fn retire_completed<F: FnMut(&AppRuntime)>(&mut self, fold: F) -> usize {
        if self.completed.is_empty() {
            return 0;
        }
        self.retire_now(fold)
    }

    /// The out-of-line body of [`Self::retire_completed`]: retires the
    /// recorded completions, at least one.
    #[inline(never)]
    fn retire_now<F: FnMut(&AppRuntime)>(&mut self, mut fold: F) -> usize {
        let mut completed = std::mem::take(&mut self.completed);
        completed.sort_unstable();
        for &id in &completed {
            let app = self.apps.remove(id).expect("app present");
            debug_assert!(!app.has_idle_demand(), "completed {id} has idle demand");
            fold(&app);
        }
        let retired = completed.len();
        completed.clear();
        self.completed = completed;
        retired
    }

    // ------------------------------------------------------------------
    // Policy-facing read API
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The time of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Arrival events admitted into the runtime tables so far.
    pub fn arrivals_admitted(&self) -> u64 {
        self.arrivals_admitted
    }

    /// Arrival events scheduled and not yet admitted.
    pub(crate) fn pending_arrivals(&self) -> u64 {
        self.pending_arrivals
    }

    /// Partial reconfigurations performed so far.
    pub fn total_pr(&self) -> u64 {
        self.total_pr
    }

    /// Blocked events (PR contention + scheduler suspension) counted so far.
    pub fn blocked_events(&self) -> u64 {
        self.blocked_events
    }

    /// Applications that have arrived and are not yet completed, in identifier
    /// order.  Borrowed from the incrementally maintained active set — policies
    /// copy it into a reusable scratch buffer before granting.
    pub fn active_apps(&self) -> &[AppId] {
        &self.active
    }

    /// Runtime state of an application.
    ///
    /// # Panics
    ///
    /// Panics if the application has not arrived yet.
    pub fn app(&self, id: AppId) -> &AppRuntime {
        self.apps.expect(id)
    }

    /// The suite the arrivals index into, in suite order.
    pub(crate) fn suite(&self) -> &[ApplicationSpec] {
        &self.suite
    }

    /// The specification an application was instantiated from.
    pub(crate) fn spec_of(&self, id: AppId) -> &ApplicationSpec {
        &self.suite[self.apps.expect(id).app_index]
    }

    /// Number of enabled slots of `kind` (the totals Algorithm 1 works with).
    pub(crate) fn enabled_slot_total(&self, kind: SlotKind) -> u32 {
        (self.index.enabled & self.index.kind[kind_bit(kind)]).count()
    }

    /// Number of enabled, free slots of `kind`.
    pub fn free_slot_count(&self, kind: SlotKind) -> u32 {
        (self.index.free & self.index.enabled & self.index.kind[kind_bit(kind)]).count()
    }

    /// The slots grantable to `app` right now: free slots on an enabled
    /// board, plus free slots on the application's home board (so pipelines
    /// in flight when a cross-board switch happens can drain).  Restricted
    /// to `kind` when given.
    fn grantable_query(&self, runtime: &AppRuntime, kind: Option<SlotKind>) -> SlotMask {
        let home = runtime
            .started
            .then_some(runtime.home_board)
            .flatten()
            // The home-board drain exception must not resurrect grants on a
            // board the fault plane has taken down.
            .filter(|&home| !self.board_fault_down(home))
            .map_or(SlotMask::EMPTY, |home| self.index.board[home]);
        let kind = kind.map_or(SlotMask::FULL, |kind| self.index.kind[kind_bit(kind)]);
        self.index.free & (self.index.enabled | home) & kind
    }

    /// The lowest-indexed slot grantable to `app`, if any — the slot the
    /// first-fit policies pick.
    pub(crate) fn first_grantable_slot(&self, app: AppId, kind: Option<SlotKind>) -> Option<usize> {
        self.grantable_query(self.apps.expect(app), kind).first()
    }

    /// Whether any slot is grantable to `app`.
    pub(crate) fn has_grantable_slot(&self, app: AppId, kind: Option<SlotKind>) -> bool {
        !self.grantable_query(self.apps.expect(app), kind).is_empty()
    }

    /// The slot quantum-based preemption would release right now, if any —
    /// the single scan behind both [`crate::policy::preempt_for_starving_apps`]
    /// and the engine's pass gate, so the two cannot drift apart.
    ///
    /// The victim is a loaded, idle Little slot whose unit has processed at
    /// least [`PREEMPTION_QUANTUM`] items since it was loaded, owned by the
    /// application holding the most slots (at least two; ties go to the
    /// lowest slot).  It is returned only while some application is
    /// *starving*: it has unplaced work, holds no slot, and no free Little
    /// slot is grantable to it.
    ///
    /// A starving application has unplaced units and holds no slot, so while
    /// the `idle_demand` counter is 0 none exists and this returns `None` at
    /// once; debug builds then run the scan anyway and assert it finds no
    /// victim.  Otherwise it runs on the incremental indexes (the
    /// loaded-idle, ripe and grantable bitmasks, occupancy counters) without
    /// allocating: only slots in `loaded_idle & ripe & Little` are examined.
    pub(crate) fn preemption_victim(&self) -> Option<usize> {
        if self.idle_demand == 0 {
            #[cfg(debug_assertions)]
            assert_eq!(
                self.preemption_victim_scan(),
                None,
                "the idle-demand gate hid a preemption victim at {}",
                self.now
            );
            return None;
        }
        self.preemption_victim_scan()
    }

    /// The ungated search behind [`Self::preemption_victim`].
    fn preemption_victim_scan(&self) -> Option<usize> {
        // A free, enabled Little slot is grantable to every application, so
        // none can be starving.
        let little = self.index.kind[kind_bit(SlotKind::Little)];
        if !(self.index.free & self.index.enabled & little).is_empty() {
            return None;
        }
        let mut victim: Option<(usize, u32)> = None;
        for idx in self.victim_candidates().iter() {
            let SlotState::Loaded {
                app,
                unit,
                busy: false,
            } = self.slots[idx].state
            else {
                continue;
            };
            let runtime = self.apps.expect(app);
            if runtime.units[unit].items_since_load < PREEMPTION_QUANTUM {
                continue;
            }
            let held = runtime.in_use_big + runtime.in_use_little;
            if held < 2 {
                continue;
            }
            if victim.is_none_or(|(_, best)| held > best) {
                victim = Some((idx, held));
            }
        }
        let (slot, _) = victim?;
        let starving = self.active.iter().any(|&app| {
            let runtime = self.apps.expect(app);
            runtime.unplaced_units() > 0
                && runtime.in_use_big + runtime.in_use_little == 0
                && self
                    .grantable_query(runtime, Some(SlotKind::Little))
                    .is_empty()
        });
        starving.then_some(slot)
    }

    /// The slots a preemption victim is chosen from, `loaded_idle & ripe &
    /// Little`.
    #[inline]
    fn victim_candidates(&self) -> SlotMask {
        self.index.loaded_idle & self.index.ripe & self.index.kind[kind_bit(SlotKind::Little)]
    }

    /// The victim pre-check of the pass gate: whether any slot is in
    /// `loaded_idle & ripe & Little`.  Without one there is no victim, so the
    /// gate skips the call to [`Self::preemption_victim`]; debug builds then
    /// run the ungated scan whenever an application waits slotless and
    /// assert it finds no victim.
    #[inline]
    fn has_victim_candidate(&self) -> bool {
        let any = !self.victim_candidates().is_empty();
        #[cfg(debug_assertions)]
        if !any && self.idle_demand > 0 {
            assert_eq!(
                self.preemption_victim_scan(),
                None,
                "the victim pre-check hid a preemption victim at {}",
                self.now
            );
        }
        any
    }

    /// Number of (Big, Little) slots currently occupied by `app` (loading or
    /// loaded) — an O(1) counter read.
    pub(crate) fn slots_in_use_by(&self, app: AppId) -> (u32, u32) {
        let runtime = self.apps.expect(app);
        (runtime.in_use_big, runtime.in_use_little)
    }

    /// Whether the application's specification has 3-in-1 bundles.
    pub(crate) fn can_bundle(&self, app: AppId) -> bool {
        self.spec_of(app).can_bundle()
    }

    /// Algorithm 1's inputs for `app`, read from the application store, or
    /// `None` once it has completed or been retired (O(1)).
    pub(crate) fn alloc_info(&self, app: AppId) -> Option<AppAllocInfo> {
        let runtime = self
            .apps
            .get(app)
            .filter(|runtime| runtime.state != AppState::Completed)?;
        let (optimal_big, optimal_little) = runtime.optimal_slots();
        Some(AppAllocInfo {
            can_bundle: self.suite[runtime.app_index].can_bundle(),
            unfinished_tasks: runtime.unfinished_units(),
            optimal_little,
            optimal_big,
            started: runtime.started,
        })
    }

    /// Whether some slot of `kind` is free on any board, enabled or not: a
    /// necessary condition for any grant of that kind, a home-board drain
    /// included.
    pub(crate) fn has_free_slot(&self, kind: SlotKind) -> bool {
        !(self.index.free & self.index.kind[kind_bit(kind)]).is_empty()
    }

    /// Whether an arrival was admitted or an application completed before
    /// the running pass began, since the pass before it (see [`PassChanges`]).
    pub(crate) fn pass_changes(&self) -> PassChanges {
        self.pass_changes
    }

    /// The event trace (counters always; bodies only when tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Upper bound on the number of *concurrently pending* events of a run, used
    /// to pre-size the [`EventQueue`] so the steady state never allocates.
    ///
    /// At most `num_arrivals` arrival events are pending at once (a finite
    /// run schedules all of them up front); beyond those, every one of the
    /// `num_slots` slots has at most one in-flight completion (`PrComplete`
    /// while reconfiguring *or* `ItemComplete` while busy — the states are
    /// exclusive), every board at most one pending `SwitchComplete`, and, when
    /// the fault plane is on, every board at most one pending `BoardDown`
    /// *or* `BoardUp` timer — never both.  This bound is much tighter than the
    /// apps × tasks worst case: pending events are limited by the hardware
    /// (slots), not by the backlog of work.
    pub(crate) fn event_queue_capacity(
        config: &SystemConfig,
        num_arrivals: usize,
        num_slots: usize,
    ) -> usize {
        let boards = config.boards.len();
        let fault_timers = if config.active_faults().is_some() {
            boards
        } else {
            0
        };
        num_arrivals + num_slots + boards + fault_timers
    }

    /// Number of event-queue operations that had to grow a backing store.
    ///
    /// Stays `0` for the whole run because [`Self::new`] pre-sizes the queue
    /// with `Self::event_queue_capacity`; [`Self::step`] debug-asserts this
    /// after every event and the steady-state allocation tests check it in
    /// release builds too.
    pub fn event_queue_grow_events(&self) -> u64 {
        self.events.grow_events()
    }

    // ------------------------------------------------------------------
    // Index maintenance
    // ------------------------------------------------------------------

    /// Applies `change` to application `id`, keeping `idle_demand` in step
    /// (see [`track_idle_demand`]).
    fn update_app<R>(&mut self, id: AppId, change: impl FnOnce(&mut AppRuntime) -> R) -> R {
        track_idle_demand(&mut self.idle_demand, self.apps.expect_mut(id), change)
    }

    /// Moves a freed slot's mask bits; its former occupant's counters are
    /// the caller's, moved in the same borrow as its other changes.
    fn index_slot_freed(&mut self, slot_idx: usize) {
        self.index.free.insert(slot_idx);
        self.index.loaded_idle.remove(slot_idx);
        self.index.ripe.remove(slot_idx);
    }

    /// Enables or disables every slot of `board_idx` for new grants, keeping
    /// the enabled mask and the utilization totals in step.
    fn set_board_enabled(&mut self, board_idx: usize, enabled: bool) {
        for idx in 0..self.slots.len() {
            let slot = &self.slots[idx];
            if slot.board.0 as usize == board_idx && slot.enabled != enabled {
                self.update_slot(idx, |slot| slot.enabled = enabled);
            }
        }
        let (mask, board) = (self.index.enabled, self.index.board[board_idx]);
        self.index.enabled = if enabled { mask | board } else { mask & !board };
    }

    /// Moves `slot_idx` to `state`, keeping the utilization totals in step.
    /// Every change of a slot's occupancy goes through here; flipping the
    /// `busy` flag of a loaded slot leaves its share unchanged and is done in
    /// place.
    fn set_slot_state(&mut self, slot_idx: usize, state: SlotState) {
        self.update_slot(slot_idx, |slot| slot.state = state);
    }

    /// Applies `change` to one slot, moving its share of the utilization
    /// totals from the old slot to the new one.  Every slot-state and
    /// enabled-flag change passes here, so this is the one place the
    /// utilization integrator is fed: when the slot's share changed, the new
    /// totals are set at `now`.  The old share is read from `slot_share`, so
    /// only the new one is computed.  A change that leaves the share as it
    /// was (disabling an occupied slot) does no utilization work, and a
    /// non-final item completion flips `busy` in place and never comes here.
    /// A change that flips the slot's free or enabled bit marks the next
    /// scheduling pass due (see the module docs).
    fn update_slot(&mut self, slot_idx: usize, change: impl FnOnce(&mut SlotRuntime)) {
        let bits = |slot: &SlotRuntime| (slot.is_free(), slot.enabled);
        let before_bits = bits(&self.slots[slot_idx]);
        change(&mut self.slots[slot_idx]);
        self.pass_due |= bits(&self.slots[slot_idx]) != before_bits;
        let after = self.slot_utilization(slot_idx);
        let before = std::mem::replace(&mut self.slot_share[slot_idx], after);
        if after != before {
            self.util.sub(before);
            self.util.add(after);
            self.utilization.set(self.now, self.util.lanes());
        }
    }

    /// One slot's share of the utilization totals.
    fn slot_utilization(&self, slot_idx: usize) -> UtilTotals {
        let slot = &self.slots[slot_idx];
        if !slot.enabled && slot.is_free() {
            return UtilTotals::default();
        }
        let mut share = UtilTotals {
            counted: 1,
            cap_lut: slot.descriptor.capacity.lut,
            cap_ff: slot.descriptor.capacity.ff,
            occupied: u32::from(!slot.is_free()),
            ..UtilTotals::default()
        };
        if let SlotState::Loaded { app, unit, .. } = slot.state {
            let resources = self.unit_resources(app, unit);
            share.used_lut = resources.lut;
            share.used_ff = resources.ff;
        }
        share
    }

    /// The fabric resources of `app`'s unit `unit` (a task's Little
    /// implementation or a bundle's Big one).
    fn unit_resources(&self, app: AppId, unit: usize) -> ResourceVector {
        let runtime = self.apps.expect(app);
        let spec = &self.suite[runtime.app_index];
        match runtime.units[unit].unit {
            ExecUnit::Task(i) => spec.tasks()[i as usize].little_impl(),
            ExecUnit::Bundle(i) => spec.bundles()[i as usize].big_impl,
        }
    }

    /// Recomputes every incremental index naively from [`Self::slots`] and the
    /// application store, panicking on any divergence: the slot masks (the
    /// ripe mask must cover every loaded slot whose unit is past the
    /// preemption quantum and hold only occupied slots), the touched list
    /// (empty once the instant is flushed), occupancy counters, each
    /// application's remaining work, unfinished and unplaced units (by a scan
    /// of its unit vector), the store's placement and count, the active set,
    /// the utilization totals (by the full slot walk), the D_switch PR-task
    /// counter, the completed list, and each live application's `(O_B, O_L)`
    /// against its suite application's slot curve.  (A curve never changes
    /// once built, and each admission debug-checks the curve's answer against
    /// a fresh ILP solve, so the stored counts equal a fresh solve too,
    /// without re-solving every live application after every event.)  Debug
    /// builds call this after every event; the index-consistency property
    /// tests call it through [`Self::step`].
    ///
    /// # Panics
    ///
    /// Panics when an incremental index disagrees with the naive recount.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn verify_indexes(&self) {
        let mut free = SlotMask::EMPTY;
        let mut enabled = SlotMask::EMPTY;
        let mut loaded_idle = SlotMask::EMPTY;
        let mut in_use: BTreeMap<AppId, (u32, u32)> = BTreeMap::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            if slot.is_free() {
                free.insert(idx);
            }
            if slot.enabled {
                enabled.insert(idx);
            }
            if matches!(slot.state, SlotState::Loaded { busy: false, .. }) {
                loaded_idle.insert(idx);
            }
            if let Some(app) = slot.occupant() {
                let entry = in_use.entry(app).or_insert((0, 0));
                match slot.descriptor.kind {
                    SlotKind::Big => entry.0 += 1,
                    SlotKind::Little => entry.1 += 1,
                }
            }
        }
        assert_eq!(self.index.free, free, "free-slot mask diverged");
        assert_eq!(self.index.enabled, enabled, "enabled-slot mask diverged");
        assert_eq!(
            self.index.loaded_idle, loaded_idle,
            "loaded-idle mask diverged"
        );
        for idx in self.index.ripe.iter() {
            assert!(!self.slots[idx].is_free(), "ripe slot {idx} is free");
        }
        for (idx, slot) in self.slots.iter().enumerate() {
            let SlotState::Loaded { app, unit, .. } = slot.state else {
                continue;
            };
            // A slot evicted by a board failure still shows its former
            // occupant until its stale completion drains; skip it.
            let unit = &self.apps.expect(app).units[unit];
            if unit.slot == Some(idx) && unit.items_since_load >= PREEMPTION_QUANTUM {
                assert!(
                    self.index.ripe.contains(idx),
                    "ripe mask misses loaded slot {idx}"
                );
            }
        }
        if self.events.peek_time() != Some(self.now) {
            assert!(
                self.touched_scratch.is_empty(),
                "touched list not empty after a flush"
            );
        }
        for app in self.apps.iter() {
            assert_eq!(
                self.apps.get(app.id).map(|a| a.id),
                Some(app.id),
                "application store misplaced {}",
                app.id
            );
            let (big, little) = in_use.get(&app.id).copied().unwrap_or((0, 0));
            assert_eq!(
                (app.in_use_big, app.in_use_little),
                (big, little),
                "occupancy counters of {} diverged",
                app.id
            );
            let unfinished = app.units.iter().filter(|u| u.items_done < app.batch);
            let remaining: SimDuration = unfinished
                .clone()
                .map(|u| u.per_item * u64::from(app.batch - u.items_done))
                .sum();
            assert_eq!(
                (
                    app.remaining_work(),
                    app.unfinished_units(),
                    app.unplaced_units()
                ),
                (
                    remaining,
                    unfinished.clone().count() as u32,
                    unfinished.filter(|u| u.slot.is_none()).count() as u32
                ),
                "unit counters of {} diverged",
                app.id
            );
        }
        assert_eq!(
            self.apps.iter().count(),
            self.apps.len(),
            "application store count diverged"
        );
        let naive_active: Vec<AppId> = self
            .apps
            .iter()
            .filter(|a| a.state != AppState::Completed)
            .map(|a| a.id)
            .collect();
        assert_eq!(self.active, naive_active, "active-application set diverged");
        assert_eq!(
            self.idle_demand as usize,
            self.apps.iter().filter(|a| a.has_idle_demand()).count(),
            "idle-demand counter diverged"
        );
        self.verify_utilization();
        self.verify_switch_plane();
        for app in self.apps.iter() {
            let curve = self.slot_curves[app.app_index]
                .as_ref()
                .unwrap_or_else(|| panic!("{} was admitted without a slot curve", app.id));
            assert_eq!(
                app.optimal_slots(),
                (
                    optimal_big_slots(&self.suite[app.app_index]),
                    curve.optimal_little_slots(app.batch)
                ),
                "optimal slot counts of {} diverged from the slot curve",
                app.id
            );
        }
        let naive_completed: Vec<AppId> = self
            .apps
            .iter()
            .filter(|a| a.state == AppState::Completed)
            .map(|a| a.id)
            .collect();
        let mut completed = self.completed.clone();
        completed.sort_unstable();
        assert_eq!(
            completed, naive_completed,
            "completed-application list diverged"
        );
    }

    // ------------------------------------------------------------------
    // Policy-facing actions
    // ------------------------------------------------------------------

    /// Grants `slot_idx` to `app`: the application's next unfinished, unplaced unit
    /// (task or bundle, depending on the slot kind) starts partial reconfiguration
    /// into the slot.
    ///
    /// Returns `false` — without side effects — when the grant is not possible:
    /// the slot is not free, the board is disabled for this application, the
    /// application already started in the other execution mode, it cannot bundle
    /// (for Big slots), or it has no unplaced unit left.  The application is
    /// looked up once (see the module docs).
    pub(crate) fn grant_slot(&mut self, slot_idx: usize, app_id: AppId) -> bool {
        let now = self.now;
        let slot = &self.slots[slot_idx];
        let (slot_kind, slot_board, slot_enabled) =
            (slot.descriptor.kind, slot.board.0 as usize, slot.enabled);
        if !slot.is_free() || self.board_fault_down(slot_board) {
            return false;
        }
        let target_mode = match slot_kind {
            SlotKind::Big => ExecMode::Big,
            SlotKind::Little => ExecMode::Little,
        };

        // Borrow the suite and the application store simultaneously
        // (disjoint fields) so no per-grant specification clone is needed.
        let app = self.apps.expect_mut(app_id);
        let spec = &self.suite[app.app_index];
        if app.state == AppState::Completed {
            return false;
        }
        if !slot_enabled && (!app.started || app.home_board != Some(slot_board)) {
            return false;
        }
        if app.started && app.mode != target_mode {
            return false;
        }
        if !app.started && app.mode != target_mode {
            if target_mode == ExecMode::Big && !spec.can_bundle() {
                return false;
            }
            let dma = &self.config.boards[slot_board].dma;
            track_idle_demand(&mut self.idle_demand, app, |app| {
                app.rebuild_units(spec, target_mode, largest_item_dma(dma, spec));
            });
        }
        let Some(unit_idx) = app.next_unit_to_place() else {
            return false;
        };

        let window =
            self.cores[slot_board].issue_pr(&mut self.pr_paths[slot_board], slot_kind, now);
        let queued = window.queueing_delay(now) > self.config.blocked_threshold;
        if queued {
            self.blocked_events += 1;
            if !app.units[unit_idx].blocked_counted {
                app.units[unit_idx].blocked_counted = true;
                self.blocked_tasks += 1;
            }
        }
        track_idle_demand(&mut self.idle_demand, app, |app| {
            app.place_unit(unit_idx, slot_idx);
            app.occupy(slot_kind);
        });
        let first_start = (!app.started).then(|| spec.task_count());
        app.state = AppState::Running;
        app.started = true;
        app.home_board.get_or_insert(slot_board);
        app.pr_count += 1;
        if slot_kind == SlotKind::Big {
            app.used_big = true;
        }

        self.index.free.remove(slot_idx);
        self.set_slot_state(
            slot_idx,
            SlotState::Reconfiguring {
                app: app_id,
                unit: unit_idx,
            },
        );
        self.total_pr += 1;
        if let Some(tasks) = first_start {
            self.record_app_started(tasks);
        }
        let gen = self
            .fault
            .as_deref_mut()
            .map_or(0, |f| f.pr_issued(slot_idx));
        self.events.push(
            window.finish,
            Event::PrComplete {
                slot: slot_idx,
                gen,
            },
        );
        self.trace.log(
            now,
            TraceKind::PrRequested,
            Some(app_id.0),
            Some(unit_idx as u32),
            Some(self.slots[slot_idx].descriptor.id.0),
            TraceDetail::PrRequest { queued },
        );
        if queued {
            self.trace.log(
                now,
                TraceKind::TaskBlocked,
                Some(app_id.0),
                Some(unit_idx as u32),
                Some(self.slots[slot_idx].descriptor.id.0),
                TraceDetail::PrContention,
            );
        }
        true
    }

    /// Preempts a loaded, idle slot: its unit loses the slot (keeping its batch
    /// progress) and will need a new partial reconfiguration before continuing.
    ///
    /// This is the task-boundary preemption Nimblock and VersaSlot use to keep
    /// long-running applications from monopolising the fabric (VersaSlot applies it
    /// to Little slots only).  Returns `false` — without side effects — if the slot
    /// is not currently loaded and idle.
    pub(crate) fn release_slot(&mut self, slot_idx: usize) -> bool {
        let (app_id, unit_idx) = match self.slots[slot_idx].state {
            SlotState::Loaded {
                app,
                unit,
                busy: false,
            } => (app, unit),
            _ => return false,
        };
        let slot_kind = self.slots[slot_idx].descriptor.kind;
        self.set_slot_state(slot_idx, SlotState::Free);
        self.index_slot_freed(slot_idx);
        // A loaded slot always hosts an unfinished unit.
        self.update_app(app_id, |app| {
            app.vacate(slot_kind);
            app.unplace_unit(unit_idx);
        });
        self.trace.log(
            self.now,
            TraceKind::SlotPreempted,
            Some(app_id.0),
            Some(unit_idx as u32),
            Some(self.slots[slot_idx].descriptor.id.0),
            TraceDetail::None,
        );
        true
    }

    /// Tells the engine that the running pass changed policy state a later
    /// pass reads (a binding, an allocation, waiting-list membership), so
    /// the next instant with a grantable slot runs a pass again.  Grants and
    /// releases need no call: every slot change already marks a pass due.
    pub(crate) fn note_policy_state_changed(&mut self) {
        self.pass_due = true;
    }

    /// Whether the next instant with a grantable slot runs a scheduling pass
    /// (read by the policies' debug checks).
    #[cfg(debug_assertions)]
    pub(crate) fn pass_due(&self) -> bool {
        self.pass_due
    }

    // ------------------------------------------------------------------
    // Simulation loop
    // ------------------------------------------------------------------

    /// Processes the next pending event and returns `true`, or returns `false`
    /// when the event queue is empty.
    ///
    /// The scheduling pass and launch sweep run once per simulation *instant*,
    /// and a settled pass is skipped (see the module docs), so every call must
    /// pass the same policy.
    /// Tests can interleave calls with `Self::verify_indexes` to check the
    /// incremental indexes after every event.
    ///
    /// `step` sets no bound on the number of events: a service or fleet run
    /// is bounded by its own stop condition, and [`Self::run`] bounds a
    /// finite workload.
    pub fn step(&mut self, policy: &mut dyn Policy) -> bool {
        let Some((time, event)) = self.events.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "event time went backwards");
        self.now = time;
        let touch = self.apply_event(event);
        self.events_processed += 1;
        if self.events.peek_time() != Some(self.now) {
            self.flush_pass(policy, touch);
        } else if let Some(touch) = touch {
            self.record_touch(touch);
        }
        #[cfg(debug_assertions)]
        self.verify_indexes();
        debug_assert_eq!(
            self.events.grow_events(),
            0,
            "the pre-sized event queue should never grow ({} events pending)",
            self.events.len()
        );
        true
    }

    /// Runs the simulation to completion under `policy` and returns the
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if the policy starves an application (the event queue drains while
    /// unfinished applications remain) or the event bound is exceeded.
    pub fn run(&mut self, policy: &mut dyn Policy) -> RunReport {
        while self.step(policy) {
            assert!(
                self.events_processed < MAX_EVENTS,
                "simulation exceeded {MAX_EVENTS} events — livelock in policy `{}`?",
                policy.name()
            );
        }
        assert!(
            self.active.is_empty() && self.pending_arrivals == 0,
            "policy `{}` left applications unfinished: {:?}",
            policy.name(),
            self.active
        );
        self.build_report(policy.name())
    }

    /// Applies one event's state transition and returns the application
    /// and unit whose progress it changed, if any (the only launch-sweep
    /// candidates: launches depend solely on an app's own slot states and
    /// intra-pipeline progress).
    ///
    /// A completion of unit `u` changes the readiness inputs of `u` (its
    /// slot) and `u + 1` (its predecessor's progress) only, so its dirty
    /// range is `u..=u + 1`.
    fn apply_event(&mut self, event: Event) -> Option<(AppId, usize)> {
        match event {
            Event::Arrival {
                id,
                app_index,
                batch,
            } => {
                self.handle_arrival(id, [app_index, batch]);
                None
            }
            Event::PrComplete { slot, gen } => self
                .accept_completion(slot, gen)
                .then(|| self.handle_pr_complete(slot)),
            Event::ItemComplete { slot, gen } => self
                .accept_completion(slot, gen)
                .then(|| self.handle_item_complete(slot)),
            Event::SwitchComplete { board } => {
                self.handle_switch_complete(board);
                None
            }
            Event::BoardDown { board } => {
                self.handle_board_down(board);
                None
            }
            Event::BoardUp { board } => {
                self.handle_board_up(board);
                None
            }
        }
    }

    /// Records a touch of an instant of several events in the touched list:
    /// an application's first touch appends its entry, and a later touch
    /// widens the entry's dirty range to cover `unit..=unit + 1`.  Such
    /// instants are rare (see the module docs), so this stays out of line.
    #[cold]
    fn record_touch(&mut self, (app, unit): (AppId, usize)) {
        match self.touched_scratch.iter_mut().find(|(id, ..)| *id == app) {
            Some((_, lo, hi)) => {
                *lo = (*lo).min(unit);
                *hi = (*hi).max(unit + 1);
            }
            None => self.touched_scratch.push((app, unit, unit + 1)),
        }
    }

    /// One scheduling pass of `policy`, unless it is settled and no
    /// preemption is due (see the module docs), followed by a launch sweep
    /// over the dirty unit range of every application the instant touched.
    /// Runs once per simulation instant; `last` is the touch of the instant's
    /// last event, which [`Self::step`] does not record.  An instant of one
    /// event (the touched list is empty) sweeps `last`'s range directly; an
    /// instant of several records `last` and sweeps the list in first-touch
    /// order.
    fn flush_pass(&mut self, policy: &mut dyn Policy, last: Option<(AppId, usize)>) {
        let due = self.pass_due && self.any_slot_grantable();
        // The inline tests come first, so a flush without slotless demand or
        // without a victim candidate pays neither the policy call nor the
        // victim scan.
        if due
            || (self.idle_demand > 0
                && self.has_victim_candidate()
                && policy.preempts()
                && self.preemption_victim().is_some())
        {
            self.begin_pass();
            self.passes += 1;
            policy.schedule(self);
        } else {
            #[cfg(debug_assertions)]
            self.debug_check_skipped_pass(policy);
        }
        if self.touched_scratch.is_empty() {
            if let Some((app_id, unit)) = last {
                self.launch_sweep_app(app_id, unit, unit + 1);
            }
        } else {
            self.sweep_touched(last);
        }
        #[cfg(debug_assertions)]
        self.debug_assert_no_launchable();
    }

    /// The launch sweep of an instant of several events: records `last`,
    /// then sweeps every touched application's dirty range in first-touch
    /// order and empties the list.
    #[cold]
    fn sweep_touched(&mut self, last: Option<(AppId, usize)>) {
        if let Some(touch) = last {
            self.record_touch(touch);
        }
        for i in 0..self.touched_scratch.len() {
            let (app_id, lo, hi) = self.touched_scratch[i];
            self.launch_sweep_app(app_id, lo, hi);
        }
        self.touched_scratch.clear();
    }

    /// Clears the due flag and hands the admissions and completions since the
    /// last pass to the one about to run.
    fn begin_pass(&mut self) {
        self.pass_due = false;
        self.pass_changes = std::mem::take(&mut self.changes_since_pass);
    }

    /// Whether a free slot is grantable to some active application.  With no
    /// active application any free slot counts, so a policy prunes its
    /// bookkeeping of finished applications at the end of every run.  The
    /// common case — every slot occupied — costs one word test.
    #[inline]
    fn any_slot_grantable(&self) -> bool {
        if self.index.free.is_empty() {
            false
        } else if self.active.is_empty() || !(self.index.free & self.index.enabled).is_empty() {
            true
        } else {
            // Only slots of disabled boards are free (the inactive cluster
            // board, a failed board): they are grantable only to applications
            // draining onto their home board.
            self.active
                .iter()
                .any(|&app| self.has_grantable_slot(app, None))
        }
    }

    /// Debug cross-check of a skipped pass.  A pass skipped as settled (a
    /// slot is grantable, but no input changed since the last pass) still
    /// runs here and must leave the pass undue — it changed nothing.  That
    /// covers a non-preempting policy's pass skipped while a preemption
    /// victim exists.  A pass skipped for want of a grantable slot goes to
    /// [`Self::debug_assert_idle_pass`].
    #[cfg(debug_assertions)]
    fn debug_check_skipped_pass(&mut self, policy: &mut dyn Policy) {
        if !self.any_slot_grantable() {
            self.debug_assert_idle_pass(policy.preempts());
            return;
        }
        // Admissions and completions set the due flag, so a settled pass
        // has neither to hand over.
        assert_eq!(self.changes_since_pass, PassChanges::default());
        self.begin_pass();
        policy.schedule(self);
        assert!(
            !self.pass_due,
            "a pass skipped as settled at {} changed state",
            self.now
        );
    }

    /// Debug cross-check of a pass skipped without a grantable slot: no slot
    /// is grantable to any active application and, if the policy `preempts`,
    /// the shared preemption has no victim, so the policy could not have
    /// changed anything.
    #[cfg(debug_assertions)]
    fn debug_assert_idle_pass(&self, preempts: bool) {
        for &app in &self.active {
            assert_eq!(
                self.first_grantable_slot(app, None),
                None,
                "skipped a pass while a slot was grantable to {app}"
            );
        }
        if preempts {
            assert_eq!(
                self.preemption_victim(),
                None,
                "skipped a pass while the shared preemption had a victim"
            );
        }
    }

    /// Debug cross-check of the targeted launch sweep: after a scheduling
    /// pass, no launchable item may remain anywhere — including in apps the
    /// sweep skipped as untouched and units outside the dirty ranges.
    #[cfg(debug_assertions)]
    fn debug_assert_no_launchable(&self) {
        for app in self.apps.iter() {
            if app.state != AppState::Running {
                continue;
            }
            for (unit_idx, unit) in app.units.iter().enumerate() {
                let Some(slot_idx) = unit.slot else { continue };
                if unit.items_done >= app.batch {
                    continue;
                }
                if !matches!(
                    self.slots[slot_idx].state,
                    SlotState::Loaded { busy: false, .. }
                ) {
                    continue;
                }
                if unit_idx > 0 && app.units[unit_idx - 1].items_done <= unit.items_done {
                    continue;
                }
                panic!(
                    "launchable unit {unit_idx} of {} left unlaunched after a scheduling pass",
                    app.id
                );
            }
        }
    }

    /// Admits the arrival of application `id` (suite application
    /// `app_index`, `batch` items) at the current instant, its arrival time.
    /// The two `u32`s travel as one array, in the one register the event
    /// word already occupies, so [`Self::step`] does not split it.
    #[inline(never)]
    fn handle_arrival(&mut self, id: AppId, [app_index, batch]: [u32; 2]) {
        self.pending_arrivals -= 1;
        let suite_index = app_index as usize;
        let spec = &self.suite[suite_index];
        let arrival = AppArrival {
            id,
            app_index: suite_index,
            batch_size: batch,
            arrival: self.now,
        };
        let dma_per_item = largest_item_dma(&self.config.boards[self.active_board()].dma, spec);
        let app = AppRuntime::new(&arrival, spec, dma_per_item);
        self.trace.log(
            self.now,
            TraceKind::AppArrived,
            Some(id.0),
            None,
            None,
            TraceDetail::SuiteApp {
                suite_index: app_index,
            },
        );
        if self.slot_curves.is_empty() {
            self.slot_curves.resize(self.suite.len(), None);
        }
        let curve = self.slot_curves[suite_index].get_or_insert_with(|| SlotCurve::of(spec));
        let optimal = (optimal_big_slots(spec), curve.optimal_little_slots(batch));
        debug_assert_eq!(
            optimal,
            (optimal_big_slots(spec), optimal_little_slots(spec, batch)),
            "the slot curve diverged from a fresh ILP solve"
        );
        self.idle_demand += u32::from(app.has_idle_demand());
        self.apps.insert(app, optimal);
        if let Err(pos) = self.active.binary_search(&id) {
            self.active.insert(pos, id);
        }
        self.pass_due = true;
        self.changes_since_pass.admitted = true;
        self.arrivals_admitted += 1;
        self.candidate_queue_updated();
        self.arm_board_timers();
    }

    /// Whether a completion event for `slot` is still current (its
    /// generation is the slot's), so a stale one never reaches the
    /// state-machine asserts below.  Without a fault plane every completion
    /// is current, and the check is one inline `Option` test.
    #[inline]
    fn accept_completion(&mut self, slot: usize, gen: u32) -> bool {
        if self.fault.is_none() || self.slot_event_gen(slot) == gen {
            return true;
        }
        self.release_quarantined(slot);
        false
    }

    fn handle_pr_complete(&mut self, slot_idx: usize) -> (AppId, usize) {
        let (app, unit) = match self.slots[slot_idx].state {
            SlotState::Reconfiguring { app, unit } => (app, unit),
            other => panic!("PR completion on a slot in state {other:?}"),
        };
        if self
            .fault
            .as_deref_mut()
            .is_some_and(|f| f.pr_load_fails(slot_idx))
        {
            return self.handle_pr_failed(slot_idx, app, unit);
        }
        self.set_slot_state(
            slot_idx,
            SlotState::Loaded {
                app,
                unit,
                busy: false,
            },
        );
        self.index.loaded_idle.insert(slot_idx);
        self.trace.log(
            self.now,
            TraceKind::PrCompleted,
            Some(app.0),
            Some(unit as u32),
            Some(self.slots[slot_idx].descriptor.id.0),
            TraceDetail::None,
        );
        (app, unit)
    }

    fn handle_item_complete(&mut self, slot_idx: usize) -> (AppId, usize) {
        let (app_id, unit_idx) = match self.slots[slot_idx].state {
            SlotState::Loaded {
                app,
                unit,
                busy: true,
            } => (app, unit),
            other => panic!("item completion on a slot in state {other:?}"),
        };

        let slot_kind = self.slots[slot_idx].descriptor.kind;
        let app = self.apps.expect_mut(app_id);
        let unit_finished = app.complete_item(unit_idx);
        let ripe = app.units[unit_idx].items_since_load >= PREEMPTION_QUANTUM;
        let batch = app.batch;
        if unit_finished {
            // The finished unit leaves its slot.
            track_idle_demand(&mut self.idle_demand, app, |app| app.vacate(slot_kind));
        }
        let app_finished = app.is_finished();
        if app_finished {
            app.state = AppState::Completed;
            app.completion = Some(self.now);
        }

        self.trace.log(
            self.now,
            TraceKind::BatchCompleted,
            Some(app_id.0),
            Some(unit_idx as u32),
            Some(self.slots[slot_idx].descriptor.id.0),
            TraceDetail::None,
        );

        if unit_finished {
            self.set_slot_state(slot_idx, SlotState::Free);
            self.index_slot_freed(slot_idx);
            self.trace.log(
                self.now,
                TraceKind::TaskCompleted,
                Some(app_id.0),
                Some(unit_idx as u32),
                Some(self.slots[slot_idx].descriptor.id.0),
                TraceDetail::BatchDone { items: batch },
            );
        } else {
            // Busy → idle: the slot's utilization share is unchanged.
            self.slots[slot_idx].state = SlotState::Loaded {
                app: app_id,
                unit: unit_idx,
                busy: false,
            };
            self.index.loaded_idle.insert(slot_idx);
            if ripe {
                self.index.ripe.insert(slot_idx);
            }
        }

        if app_finished {
            if let Ok(pos) = self.active.binary_search(&app_id) {
                self.active.remove(pos);
            }
            self.completed.push(app_id);
            self.pass_due = true;
            self.changes_since_pass.completed = true;
            self.trace.log(
                self.now,
                TraceKind::AppCompleted,
                Some(app_id.0),
                None,
                None,
                TraceDetail::None,
            );
            self.candidate_queue_updated();
        }
        (app_id, unit_idx)
    }

    /// Launches every batch item of `app_id`'s units `lo..=hi` that is ready:
    /// its unit is loaded in an idle slot, the predecessor unit has produced
    /// the next item, and the batch is not done.
    ///
    /// Only units whose own slot or predecessor progressed since the last
    /// pass can have become launchable (grants produce `Reconfiguring` slots,
    /// releases remove idle slots, and launches never cross application
    /// boundaries), so [`Self::flush_pass`] sweeps just the dirty range of
    /// each touched application — [`Self::debug_assert_no_launchable`]
    /// cross-checks the claim in debug builds.
    ///
    /// The application is looked up once: the scan collects the ready
    /// `(unit, slot, duration)` triples in ascending unit order into
    /// `ready_scratch`, then launches them.  A launch changes neither its
    /// unit's progress nor any other unit's slot, so no launch makes another
    /// unit ready or unready, and launching after the scan is the same as
    /// launching as the scan reaches each unit.  Units launch in ascending
    /// order, which fixes the order the scheduler core runs them in and the
    /// event queue receives their completions.
    ///
    /// Never inlined: [`Self::step`]'s size and throughput were measured
    /// with the sweep out of line, called from the one-event flush and from
    /// `sweep_touched`.
    #[inline(never)]
    fn launch_sweep_app(&mut self, app_id: AppId, lo: usize, hi: usize) {
        let Some(app) = self
            .apps
            .get(app_id)
            .filter(|app| app.state == AppState::Running)
        else {
            return;
        };
        let (end, batch) = (app.units.len().min(hi + 1), app.batch);
        let mut predecessor_done = match lo {
            0 => u32::MAX,
            _ => app.units[lo - 1].items_done,
        };
        for (unit_idx, unit) in app.units[..end].iter().enumerate().skip(lo) {
            let has_input = predecessor_done > unit.items_done;
            predecessor_done = unit.items_done;
            let Some(slot_idx) = unit.slot else { continue };
            if has_input
                && unit.items_done < batch
                && matches!(
                    self.slots[slot_idx].state,
                    SlotState::Loaded { busy: false, .. }
                )
            {
                self.ready_scratch
                    .push((unit_idx, slot_idx, unit.next_item_duration()));
            }
        }
        for i in 0..self.ready_scratch.len() {
            let (unit_idx, slot_idx, duration) = self.ready_scratch[i];
            self.launch(app_id, unit_idx, slot_idx, duration);
        }
        self.ready_scratch.clear();
    }

    /// Starts the next batch item of `app_id`'s unit `unit_idx` in its loaded,
    /// idle slot `slot_idx`.
    fn launch(&mut self, app_id: AppId, unit_idx: usize, slot_idx: usize, duration: SimDuration) {
        let board = self.slots[slot_idx].board.0 as usize;
        let launch = self.cores[board]
            .sched
            .submit(self.now, self.config.launch_overhead);
        let blocked = launch.queueing_delay(self.now) > self.config.blocked_threshold;
        let complete = launch.finish + duration;

        if blocked {
            self.blocked_events += 1;
            let app = self.apps.expect_mut(app_id);
            if !app.units[unit_idx].blocked_counted {
                app.units[unit_idx].blocked_counted = true;
                self.blocked_tasks += 1;
            }
            self.trace.log(
                self.now,
                TraceKind::TaskBlocked,
                Some(app_id.0),
                Some(unit_idx as u32),
                Some(self.slots[slot_idx].descriptor.id.0),
                TraceDetail::SchedulerSuspended,
            );
        }

        if let SlotState::Loaded { busy, .. } = &mut self.slots[slot_idx].state {
            *busy = true;
        }
        self.index.loaded_idle.remove(slot_idx);
        let gen = self.slot_event_gen(slot_idx);
        self.events.push(
            complete,
            Event::ItemComplete {
                slot: slot_idx,
                gen,
            },
        );
        self.trace.log(
            self.now,
            TraceKind::BatchLaunched,
            Some(app_id.0),
            Some(unit_idx as u32),
            Some(self.slots[slot_idx].descriptor.id.0),
            TraceDetail::None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::versaslot::VersaSlotPolicy;
    use versaslot_fpga::board::BoardSpec;
    use versaslot_fpga::cpu::CoreAssignment;
    use versaslot_workload::benchmarks::BenchmarkApp;

    fn single_arrival(app: BenchmarkApp, batch: u32) -> Vec<AppArrival> {
        vec![AppArrival::new(
            AppId(0),
            app.suite_index(),
            batch,
            SimTime::ZERO,
        )]
    }

    #[test]
    fn one_app_runs_to_completion_on_big_little() {
        let config = SystemConfig::single_board(BoardSpec::zcu216_big_little());
        let mut sim = SharingSimulator::new(
            config,
            BenchmarkApp::suite(),
            &single_arrival(BenchmarkApp::ImageCompression, 8),
        );
        let mut policy = VersaSlotPolicy::new();
        let report = sim.run(&mut policy);
        assert_eq!(report.completed(), 1);
        let record = &report.apps[0];
        // A bundle-capable app on a Big.Little board should have been bound to a
        // Big slot and needed only its two bundle PRs.
        assert!(record.used_big_slot);
        assert_eq!(record.pr_count, 2);
        assert!(record.response().as_millis_f64() > 0.0);
    }

    #[test]
    fn one_app_runs_to_completion_on_only_little() {
        let config = SystemConfig::single_board(BoardSpec::zcu216_only_little());
        let mut sim = SharingSimulator::new(
            config,
            BenchmarkApp::suite(),
            &single_arrival(BenchmarkApp::LeNet, 6),
        );
        let mut policy = VersaSlotPolicy::new();
        let report = sim.run(&mut policy);
        assert_eq!(report.completed(), 1);
        assert!(!report.apps[0].used_big_slot);
        // One PR per task (6 tasks), since 8 Little slots are available.
        assert_eq!(report.apps[0].pr_count, 6);
        assert!(report.mean_slot_occupancy > 0.0);
    }

    #[test]
    fn response_time_is_at_least_the_critical_path() {
        let config = SystemConfig::single_board(BoardSpec::zcu216_big_little());
        let suite = BenchmarkApp::suite();
        let spec = BenchmarkApp::Rendering3D.spec();
        let batch = 10u32;
        let mut sim = SharingSimulator::new(
            config,
            suite,
            &single_arrival(BenchmarkApp::Rendering3D, batch),
        );
        let mut policy = VersaSlotPolicy::new();
        let report = sim.run(&mut policy);
        // The app cannot finish faster than its bottleneck stage times the batch.
        let lower_bound = spec.max_stage_time() * batch as u64;
        assert!(report.apps[0].response() >= lower_bound);
    }

    #[test]
    #[should_panic(expected = "duplicate application id")]
    fn duplicate_arrival_ids_are_rejected() {
        let mut arrivals = crowded_arrivals(4);
        arrivals[2].id = AppId(3);
        SharingSimulator::new(
            SystemConfig::single_board(BoardSpec::zcu216_big_little()),
            BenchmarkApp::suite(),
            &arrivals,
        );
    }

    fn lenet_at(id: u32, ms: u64) -> AppArrival {
        let suite_index = BenchmarkApp::LeNet.suite_index();
        AppArrival::new(AppId(id), suite_index, 3, SimTime::from_millis(ms))
    }

    /// A service-mode simulator with room for `lookahead` pending arrivals
    /// that has admitted `lenet_at(0, 100)`.
    fn service_sim_after_one_admission(lookahead: usize) -> SharingSimulator {
        let config = SystemConfig::single_board(BoardSpec::zcu216_big_little());
        let mut sim = SharingSimulator::for_service(config, BenchmarkApp::suite(), lookahead);
        sim.inject_arrival(lenet_at(0, 100));
        assert_eq!(sim.pending_arrivals(), 1);
        assert!(sim.step(&mut VersaSlotPolicy::new()));
        sim
    }

    /// The arrival event carries its application's record in the 16 bytes
    /// every event takes, and admission builds the application from it.
    #[test]
    fn an_arrival_event_carries_its_record_in_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 16);
        let sim = service_sim_after_one_admission(1);
        assert_eq!((sim.pending_arrivals(), sim.arrivals_admitted()), (0, 1));
        let (app, arrival) = (sim.app(AppId(0)), lenet_at(0, 100));
        assert_eq!(
            (app.app_index, app.batch, app.arrival),
            (arrival.app_index, arrival.batch_size, arrival.arrival)
        );
    }

    #[test]
    #[should_panic(expected = "outside the suite")]
    fn injecting_an_arrival_outside_the_suite_panics() {
        let mut sim = service_sim_after_one_admission(1);
        let outside = sim.suite().len();
        sim.inject_arrival(AppArrival::new(AppId(1), outside, 3, SimTime::from_secs(1)));
    }

    #[test]
    #[should_panic(expected = "lies in the past")]
    fn injecting_an_arrival_in_the_past_panics() {
        service_sim_after_one_admission(1).inject_arrival(lenet_at(1, 50));
    }

    #[test]
    #[should_panic(expected = "duplicate application id app-0")]
    fn injecting_a_live_id_panics() {
        service_sim_after_one_admission(1).inject_arrival(lenet_at(0, 200));
    }

    /// The engine keeps no table of pending arrivals, so an identifier
    /// injected twice before its first admission is caught at the second.
    #[test]
    #[should_panic(expected = "application app-1 inserted twice")]
    fn an_id_injected_twice_before_admission_panics_at_admission() {
        let mut sim = service_sim_after_one_admission(2);
        sim.inject_arrival(lenet_at(1, 200));
        sim.inject_arrival(lenet_at(1, 300));
        while sim.step(&mut VersaSlotPolicy::new()) {}
    }

    /// The arrivals are bulk-loaded into the event queue with one stable
    /// sort, so arrivals with the same time are admitted in input order,
    /// whatever their identifiers.
    #[test]
    fn tied_arrivals_are_admitted_in_input_order() {
        // 48 arrivals at five instants, identifiers scrambled.
        let at = |ms| SimTime::from_millis(ms);
        let input: Vec<(u32, u64)> = (0..48u32)
            .map(|i| ((i * 29) % 48, u64::from((i * 7) % 5) * 40))
            .collect();
        let arrivals: Vec<AppArrival> = input
            .iter()
            .map(|&(id, ms)| {
                AppArrival::new(AppId(id), BenchmarkApp::LeNet.suite_index(), 2, at(ms))
            })
            .collect();
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(BoardSpec::zcu216_big_little()).with_trace(),
            BenchmarkApp::suite(),
            &arrivals,
        );
        sim.run(&mut VersaSlotPolicy::new());
        let admitted: Vec<(SimTime, u32)> = sim
            .trace()
            .events_of(TraceKind::AppArrived)
            .map(|event| (event.time, event.app.expect("arrival names its app")))
            .collect();
        let mut expected: Vec<(SimTime, u32)> =
            input.iter().map(|&(id, ms)| (at(ms), id)).collect();
        expected.sort_by_key(|&(time, _)| time);
        assert_eq!(admitted, expected);
    }

    /// Sweeps hold many reports at once, so each report's application list
    /// is allocated at its exact length.
    #[test]
    fn report_application_list_is_sized_exactly() {
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(BoardSpec::zcu216_big_little()),
            BenchmarkApp::suite(),
            &crowded_arrivals(13),
        );
        let report = sim.run(&mut VersaSlotPolicy::new());
        assert_eq!(report.apps.len(), 13);
        assert_eq!(report.apps.capacity(), report.apps.len());
    }

    #[test]
    fn indexed_queries_match_naive_slot_scans() {
        let config = SystemConfig::single_board(BoardSpec::zcu216_big_little());
        let mut sim = SharingSimulator::new(
            config,
            BenchmarkApp::suite(),
            &single_arrival(BenchmarkApp::ImageCompression, 8),
        );
        let mut policy = VersaSlotPolicy::new();
        while sim.step(&mut policy) {
            sim.verify_indexes();
            for &app in sim.active_apps() {
                for kind in [None, Some(SlotKind::Big), Some(SlotKind::Little)] {
                    let naive: Vec<usize> = sim
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.is_free())
                        .filter(|(_, s)| kind.is_none_or(|k| s.descriptor.kind == k))
                        .filter(|(_, s)| {
                            s.enabled
                                || (sim.app(app).started
                                    && sim.app(app).home_board == Some(s.board.0 as usize))
                        })
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(
                        sim.grantable_query(sim.app(app), kind)
                            .iter()
                            .collect::<Vec<_>>(),
                        naive
                    );
                    assert_eq!(sim.first_grantable_slot(app, kind), naive.first().copied());
                    assert_eq!(sim.has_grantable_slot(app, kind), !naive.is_empty());
                }
            }
        }
    }

    #[test]
    fn steady_state_event_queue_never_allocates() {
        // Release builds skip the debug assert in `step`, so check the
        // allocation-free property explicitly: a counting-only run (the
        // benchmark configuration) must never grow the pre-sized event queue.
        let config = SystemConfig::single_board(BoardSpec::zcu216_big_little());
        let arrivals: Vec<AppArrival> = (0..12)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    BenchmarkApp::ImageCompression.suite_index(),
                    6,
                    SimTime::from_millis(u64::from(i) * 40),
                )
            })
            .collect();
        let mut sim = SharingSimulator::new(config, BenchmarkApp::suite(), &arrivals);
        assert!(!sim.trace().is_recording(), "benchmarks run counting-only");
        let mut policy = VersaSlotPolicy::new();
        let report = sim.run(&mut policy);
        assert_eq!(report.completed(), 12);
        assert_eq!(
            sim.event_queue_grow_events(),
            0,
            "event queue reallocated mid-run"
        );
        assert!(sim.trace().events().is_empty());
        assert!(sim.trace().total() > 0, "counters still maintained");
    }

    #[test]
    fn event_capacity_hint_is_a_true_pending_bound() {
        // Drive a switching cluster (the busiest event mix: arrivals, PRs, item
        // completions and switch completions) and check the pending-event count
        // never exceeds the documented bound.
        let config = SystemConfig::switching_cluster(
            BoardSpec::zcu216_only_little(),
            BoardSpec::zcu216_big_little(),
        )
        .with_switching(crate::config::SwitchingConfig::default());
        let arrivals: Vec<AppArrival> = (0..16)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    BenchmarkApp::LeNet.suite_index(),
                    4,
                    SimTime::from_millis(u64::from(i) * 10),
                )
            })
            .collect();
        let slots = config.boards.iter().map(|b| b.layout.slots().len()).sum();
        let bound = SharingSimulator::event_queue_capacity(&config, arrivals.len(), slots);
        let mut sim = SharingSimulator::new(config, BenchmarkApp::suite(), &arrivals);
        let mut policy = VersaSlotPolicy::new();
        loop {
            assert!(
                sim.events.len() <= bound,
                "{} pending events exceed the bound {bound}",
                sim.events.len()
            );
            if !sim.step(&mut policy) {
                break;
            }
        }
        assert_eq!(sim.event_queue_grow_events(), 0);
    }

    /// End-to-end on the widest board a run allows, 64 Little slots: slot 63,
    /// the masks' top bit, must be occupied, and the run must complete with
    /// the incremental indexes agreeing with a naive recount throughout.
    #[test]
    fn widest_board_occupies_its_last_slot_and_runs_to_completion() {
        let board = BoardSpec::zcu216_only_little().with_layout(
            versaslot_fpga::slot::SlotLayout::with_counts(
                0,
                MAX_SLOTS as u32,
                BoardSpec::zcu216_little_capacity(),
            ),
        );
        let arrivals: Vec<AppArrival> = (0..24)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    BenchmarkApp::ImageCompression.suite_index(),
                    5,
                    SimTime::from_millis(u64::from(i) * 20),
                )
            })
            .collect();
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(board),
            BenchmarkApp::suite(),
            &arrivals,
        );
        let mut policy = VersaSlotPolicy::new();
        let mut steps = 0u32;
        let mut saw_last_slot = false;
        while sim.step(&mut policy) {
            steps += 1;
            if steps.is_multiple_of(64) {
                sim.verify_indexes();
            }
            saw_last_slot |= !sim.slots[MAX_SLOTS - 1].is_free();
        }
        sim.verify_indexes();
        let report = sim.build_report("widest-board");
        assert_eq!(report.completed(), 24);
        assert!(
            saw_last_slot,
            "slot 63, the mask's top bit, was never occupied"
        );
    }

    fn crowded_arrivals(n: u32) -> Vec<AppArrival> {
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
                    6 + i % 9,
                    SimTime::from_millis(u64::from(i) * 150),
                )
            })
            .collect()
    }

    #[test]
    fn idle_instants_skip_the_scheduling_pass() {
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(BoardSpec::zcu216_big_little()),
            BenchmarkApp::suite(),
            &crowded_arrivals(16),
        );
        let report = sim.run(&mut VersaSlotPolicy::new());
        assert_eq!(report.completed(), 16);
        let passes = sim.passes;
        assert!(passes > 0);
        assert!(
            passes * 3 < report.events_processed,
            "{passes} passes for {} events: too few instants were skipped",
            report.events_processed
        );
    }

    /// A policy that never grants.  It records the instant of every pass the
    /// engine runs (ignoring the debug builds' re-run of a pass skipped as
    /// settled, which the engine does not count) and, with `note_first`,
    /// reports a policy state change on its first pass.
    struct Observer {
        note_first: bool,
        seen: u64,
        calls: Vec<SimTime>,
    }

    impl Policy for Observer {
        fn name(&self) -> &'static str {
            "observer"
        }

        fn schedule(&mut self, sim: &mut SharingSimulator) {
            if sim.passes == self.seen {
                return;
            }
            self.seen = sim.passes;
            if self.note_first && self.calls.is_empty() {
                sim.note_policy_state_changed();
            }
            self.calls.push(sim.now());
        }
    }

    /// Two LeNet applications (six tasks each) arrive at t = 0 on a board of
    /// `slots` Little slots.  Between the two arrivals the test itself grants
    /// the first one every slot it can use, so it runs its batch of 4 (under
    /// the preemption quantum, so no preemption is ever due) while the
    /// second waits.  Returns the observer's pass instants and the trace.
    fn observe_two_lenets(slots: u32, note_first: bool) -> (Vec<SimTime>, Trace) {
        let board = BoardSpec::zcu216_only_little().with_layout(
            versaslot_fpga::slot::SlotLayout::with_counts(
                0,
                slots,
                BoardSpec::zcu216_little_capacity(),
            ),
        );
        let arrivals = [
            AppArrival::new(
                AppId(0),
                BenchmarkApp::LeNet.suite_index(),
                4,
                SimTime::ZERO,
            ),
            AppArrival::new(
                AppId(1),
                BenchmarkApp::LeNet.suite_index(),
                4,
                SimTime::ZERO,
            ),
        ];
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(board).with_trace(),
            BenchmarkApp::suite(),
            &arrivals,
        );
        let mut observer = Observer {
            note_first,
            seen: 0,
            calls: Vec::new(),
        };
        assert!(sim.step(&mut observer));
        assert!(observer.calls.is_empty(), "the pass waits for the instant");
        while let Some(slot) = sim.first_grantable_slot(AppId(0), Some(SlotKind::Little)) {
            if !sim.grant_slot(slot, AppId(0)) {
                break;
            }
        }
        while sim.step(&mut observer) {}
        assert_eq!(sim.app(AppId(0)).state, AppState::Completed);
        (observer.calls, sim.trace().clone())
    }

    /// A settled policy runs once after each change of its inputs — an
    /// arrival, a unit or application finishing — and not at the instants
    /// that only complete PRs or non-final batch items.
    /// Everything a grant may change: the PR paths and cores, the engine's
    /// counters, the switch plane (its D_switch window), the slots with
    /// their masks and utilization shares, the queue and the application.
    fn grant_state(sim: &SharingSimulator, app: AppId) -> String {
        format!(
            "{:?}",
            (
                (&sim.pr_paths, &sim.cores),
                (sim.total_pr, sim.blocked_events, sim.blocked_tasks),
                (&sim.switch, sim.idle_demand, sim.pass_due),
                (&sim.slots, &sim.index, &sim.slot_share, sim.util),
                (sim.events.len(), sim.apps.get(app)),
            )
        )
    }

    /// Asserts that granting `slot` to `app` is rejected (`why`) and leaves
    /// the engine as it was.
    fn assert_grant_rejected(sim: &mut SharingSimulator, slot: usize, app: AppId, why: &str) {
        let before = grant_state(sim, app);
        assert!(!sim.grant_slot(slot, app), "{why}: the grant went through");
        assert_eq!(
            grant_state(sim, app),
            before,
            "{why}: the rejection changed state"
        );
        sim.verify_indexes();
    }

    /// Every rejection `grant_slot` documents returns before the PR is
    /// issued and before any counter, slot or application moves.
    #[test]
    fn every_grant_rejection_leaves_the_engine_untouched() {
        let mut observer = Observer {
            note_first: false,
            seen: 0,
            calls: Vec::new(),
        };
        let arrivals = [
            AppArrival::new(
                AppId(0),
                BenchmarkApp::Rendering3D.suite_index(),
                2,
                SimTime::ZERO,
            ),
            AppArrival::new(
                AppId(1),
                BenchmarkApp::LeNet.suite_index(),
                2,
                SimTime::ZERO,
            ),
        ];

        // Two Big slots (0, 1), then eight Little ones (2..10).
        let board = BoardSpec::zcu216_big_little().with_layout(
            versaslot_fpga::slot::SlotLayout::with_counts(
                2,
                8,
                BoardSpec::zcu216_little_capacity(),
            ),
        );
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(board),
            BenchmarkApp::suite(),
            &arrivals,
        );
        while sim.arrivals_admitted() < 2 {
            assert!(sim.step(&mut observer));
        }
        let (big, little) = (0, 2);
        // Application 0's three tasks take three Little slots.
        for slot in little..little + 3 {
            assert!(sim.grant_slot(slot, AppId(0)));
        }
        assert_grant_rejected(&mut sim, little, AppId(1), "slot not free");
        assert_grant_rejected(&mut sim, little + 3, AppId(0), "no unplaced unit");
        assert_grant_rejected(&mut sim, big, AppId(0), "wrong mode");
        while sim.app(AppId(0)).state != AppState::Completed {
            assert!(sim.step(&mut observer));
        }
        assert_grant_rejected(&mut sim, little, AppId(0), "application completed");

        // A cluster whose second board is disabled: its slots take grants
        // only from applications that started there.
        let mut sim = SharingSimulator::new(
            SystemConfig::switching_cluster(
                BoardSpec::zcu216_only_little(),
                BoardSpec::zcu216_big_little(),
            ),
            BenchmarkApp::suite(),
            &arrivals,
        );
        while sim.arrivals_admitted() < 2 {
            assert!(sim.step(&mut observer));
        }
        let off = sim
            .slots
            .iter()
            .position(|slot| slot.board.0 == 1 && slot.descriptor.kind == SlotKind::Little)
            .expect("the second board has Little slots");
        assert!(!sim.slots[off].enabled);
        assert_grant_rejected(&mut sim, off, AppId(0), "disabled board, not started");
        assert!(sim.grant_slot(0, AppId(0)));
        assert_grant_rejected(&mut sim, off, AppId(0), "disabled board, not home");
    }

    #[test]
    fn a_settled_policy_runs_only_after_its_inputs_change() {
        let (calls, trace) = observe_two_lenets(8, false);
        let mut changed: Vec<SimTime> = trace
            .events()
            .iter()
            .filter(|event| {
                matches!(
                    event.kind,
                    TraceKind::AppArrived | TraceKind::TaskCompleted | TraceKind::AppCompleted
                )
            })
            .map(|event| event.time)
            .collect();
        changed.dedup();
        let item_only = trace
            .events_of(TraceKind::BatchCompleted)
            .filter(|event| !changed.contains(&event.time))
            .count();
        assert!(item_only > 0, "no instant completed only non-final items");
        assert_eq!(calls, changed);
        // The t = 0 instant and six unit completions (the last also
        // completes the application).
        assert_eq!(calls.len(), 7);
    }

    /// The trace kinds of the events applied at each instant, in time order
    /// (launches, grants and preemptions happen in the instant's flush).
    fn applied_kinds_by_instant(trace: &Trace) -> Vec<(SimTime, Vec<TraceKind>)> {
        let mut instants: Vec<(SimTime, Vec<TraceKind>)> = Vec::new();
        for event in trace.events() {
            if matches!(
                event.kind,
                TraceKind::BatchLaunched
                    | TraceKind::PrRequested
                    | TraceKind::TaskBlocked
                    | TraceKind::SlotPreempted
            ) {
                continue;
            }
            match instants.last_mut() {
                Some((time, kinds)) if *time == event.time => kinds.push(event.kind),
                _ => instants.push((event.time, vec![event.kind])),
            }
        }
        instants
    }

    /// A PR completion is not a policy input: an instant whose only event is
    /// one runs no pass.  A quantum crossing still runs one through the
    /// preemption gate, even though no input changed.
    #[test]
    fn pr_completions_run_no_pass_and_quantum_crossings_still_preempt() {
        let (calls, trace) = observe_two_lenets(8, false);
        let pr_only: Vec<SimTime> = applied_kinds_by_instant(&trace)
            .into_iter()
            .filter(|(_, kinds)| kinds.iter().all(|&kind| kind == TraceKind::PrCompleted))
            .map(|(time, _)| time)
            .collect();
        assert!(!pr_only.is_empty(), "no instant completed only a PR");
        assert!(
            pr_only.iter().all(|time| !calls.contains(time)),
            "a pass ran at an instant that only completed a PR"
        );

        // Two LeNets on four Little slots: the first holds every slot, so
        // the second starves until a unit of the first crosses the quantum.
        let board = BoardSpec::zcu216_only_little().with_layout(
            versaslot_fpga::slot::SlotLayout::with_counts(
                0,
                4,
                BoardSpec::zcu216_little_capacity(),
            ),
        );
        let arrivals = [
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
            SystemConfig::single_board(board).with_trace(),
            BenchmarkApp::suite(),
            &arrivals,
        );
        let report = sim.run(&mut crate::policy::round_robin::RoundRobinPolicy::new());
        assert_eq!(report.completed(), 2);
        let preempted: Vec<SimTime> = sim
            .trace()
            .events_of(TraceKind::SlotPreempted)
            .map(|event| event.time)
            .collect();
        assert!(!preempted.is_empty(), "no preemption");
        let item_only = applied_kinds_by_instant(sim.trace())
            .into_iter()
            .filter(|(time, kinds)| {
                preempted.contains(time)
                    && kinds.iter().all(|&kind| kind == TraceKind::BatchCompleted)
            })
            .count();
        assert!(
            item_only > 0,
            "no preemption at an instant that only completed non-final items"
        );
    }

    /// A pass that reports a state change is followed by one more pass at
    /// the next instant, even though no engine input changed, and then the
    /// policy is settled again.  On a full board the first pass comes only
    /// when the first unit finishes and frees its slot.
    #[test]
    fn a_noted_state_change_makes_the_next_pass_due() {
        let (plain, trace) = observe_two_lenets(6, false);
        let (noted, _) = observe_two_lenets(6, true);
        let first = plain[0];
        let next = trace
            .events()
            .iter()
            .map(|event| event.time)
            .find(|&time| time > first)
            .expect("events follow the first pass");
        assert!(!plain.contains(&next), "the next instant changed an input");
        let mut expected = plain.clone();
        expected.insert(1, next);
        assert_eq!(noted, expected);
    }

    /// A policy reused for a second run behaves like a fresh one: the pass at
    /// the last completion of a run (no active application, a free slot) is
    /// never skipped, so VersaSlot prunes every binding before the next run.
    ///
    /// The second pair runs three LeNets admitted at t = 0 twice, so the
    /// second run's first pass sees the same admission count as the first
    /// run's last pass.  It fails a policy that decides whether to register
    /// waiting applications from counts it copied out of the previous
    /// simulator; the simulator's own `PassChanges` start set instead.
    #[test]
    fn a_reused_policy_matches_a_fresh_one() {
        let config = SystemConfig::single_board(BoardSpec::zcu216_big_little());
        let lenets: Vec<AppArrival> = (0..3)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    BenchmarkApp::LeNet.suite_index(),
                    8,
                    SimTime::ZERO,
                )
            })
            .collect();
        let pairs = [
            (
                crowded_arrivals(12),
                crowded_arrivals(14).into_iter().rev().take(10).collect(),
            ),
            (lenets.clone(), lenets),
        ];
        let run = |policy: &mut VersaSlotPolicy, arrivals: &[AppArrival]| {
            let mut sim = SharingSimulator::new(config.clone(), BenchmarkApp::suite(), arrivals);
            sim.run(policy)
        };
        for (first, second) in &pairs {
            let mut reused = VersaSlotPolicy::new();
            run(&mut reused, first);
            assert_eq!(reused.allocation_state().listed().count(), 0);
            assert_eq!(
                run(&mut reused, second),
                run(&mut VersaSlotPolicy::new(), second)
            );
        }
    }

    /// FCFS behind a wrapper that keeps the default `Policy::preempts`: the
    /// engine then runs a pass whenever a preemption victim exists, as it
    /// did for every policy before the gate.
    struct DefaultPreempts(crate::policy::fcfs::FcfsPolicy);

    impl Policy for DefaultPreempts {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn schedule(&mut self, sim: &mut SharingSimulator) {
            self.0.schedule(sim);
        }
    }

    /// A policy that never preempts skips the passes a preemption victim
    /// would open, and nothing it reports changes: on a contended
    /// single-core Only.Little board, where the head-of-line application
    /// holds slots past the quantum while later ones wait, FCFS run directly
    /// and FCFS behind the default `preempts` give byte-identical reports,
    /// and the direct run executes strictly fewer passes.
    #[test]
    fn a_non_preempting_policy_skips_victim_passes_and_reports_the_same() {
        use crate::policy::fcfs::FcfsPolicy;

        let run = |policy: &mut dyn Policy| {
            let mut sim = SharingSimulator::new(
                SystemConfig::single_board(
                    BoardSpec::zcu216_only_little().with_cores(CoreAssignment::SingleCore),
                ),
                BenchmarkApp::suite(),
                &crowded_arrivals(16),
            );
            let report = sim.run(policy);
            assert_eq!(report.completed(), 16);
            (serde_json::to_string(&report).unwrap(), sim.passes)
        };
        let (direct, direct_passes) = run(&mut FcfsPolicy::new());
        let (wrapped, wrapped_passes) = run(&mut DefaultPreempts(FcfsPolicy::new()));
        assert_eq!(direct, wrapped, "the victim gate changed an FCFS report");
        assert!(
            direct_passes < wrapped_passes,
            "FCFS ran {direct_passes} passes directly and {wrapped_passes} behind the \
             default gate: no preemption victim ever opened a pass"
        );
    }

    /// Service mode must stay O(live applications): after thousands of
    /// retirements the application store holds only live applications and the
    /// slot-curve table at most one curve per suite application.
    #[test]
    fn service_mode_keeps_slot_curves_and_app_table_bounded() {
        use crate::policy::nimblock::NimblockPolicy;
        use versaslot_workload::{ArrivalDriver, ArrivalProcess};

        const BATCH_RANGE: (u32, u32) = (2, 5);
        const RETIRED: usize = 5_000;
        let suite = BenchmarkApp::suite();
        let policies: [(Box<dyn Policy>, BoardSpec); 2] = [
            (
                Box::new(VersaSlotPolicy::new()),
                BoardSpec::zcu216_big_little(),
            ),
            (
                Box::new(NimblockPolicy::new()),
                BoardSpec::zcu216_only_little().with_cores(CoreAssignment::SingleCore),
            ),
        ];
        for (mut policy, board) in policies {
            let mut driver = ArrivalDriver::new(
                ArrivalProcess::Poisson { rate_per_sec: 1.0 },
                suite.len(),
                BATCH_RANGE,
                11,
            );
            let mut sim =
                SharingSimulator::for_service(SystemConfig::single_board(board), suite.clone(), 1);
            let mut retired = 0;
            while retired < RETIRED {
                if sim.pending_arrivals() == 0 {
                    sim.inject_arrival(driver.next_arrival());
                }
                assert!(sim.step(policy.as_mut()), "an arrival is always pending");
                retired += sim.retire_completed(|app| {
                    assert_eq!(app.state, AppState::Completed);
                });
                assert_eq!(
                    sim.apps.len(),
                    sim.active.len(),
                    "{}: retired applications left in the application store",
                    policy.name()
                );
            }
            assert!(
                sim.slot_curves.len() <= suite.len(),
                "{}: the curve table holds {} entries for a suite of {}",
                policy.name(),
                sim.slot_curves.len(),
                suite.len()
            );
            assert!(
                sim.apps.len() < 100,
                "{}: {} live applications — the run is backlogged",
                policy.name(),
                sim.apps.len()
            );
            sim.verify_indexes();
        }
    }

    /// The idle-demand counter behind the preemption gate stays exact through
    /// preemptions (a release, then a re-grant of the unit) and board
    /// outages (eviction, PR give-up, quarantine release): `verify_indexes`
    /// recounts it after every event, and debug builds also run the ungated
    /// victim scan whenever the gate is closed.
    #[test]
    fn preemptions_and_outages_keep_the_idle_demand_counter_exact() {
        use crate::policy::nimblock::NimblockPolicy;
        use crate::policy::round_robin::RoundRobinPolicy;
        use versaslot_sim::fault::FaultProfile;

        let step_verified = |sim: &mut SharingSimulator, policy: &mut dyn Policy| {
            sim.verify_indexes();
            while sim.step(policy) {
                sim.verify_indexes();
            }
            sim.trace().count(TraceKind::SlotPreempted)
        };

        // Two LeNets on four Little slots: the first holds every slot, so
        // the second starves until a unit of the first is preempted.
        let board = BoardSpec::zcu216_only_little().with_layout(
            versaslot_fpga::slot::SlotLayout::with_counts(
                0,
                4,
                BoardSpec::zcu216_little_capacity(),
            ),
        );
        let arrivals = [(0, 30), (1, 8)].map(|(id, batch)| {
            AppArrival::new(
                AppId(id),
                BenchmarkApp::LeNet.suite_index(),
                batch,
                SimTime::ZERO,
            )
        });
        let mut starving = SharingSimulator::new(
            SystemConfig::single_board(board),
            BenchmarkApp::suite(),
            &arrivals,
        );
        let preempted = step_verified(&mut starving, &mut RoundRobinPolicy::new());
        assert!(preempted > 0, "no preemption");
        assert_eq!(starving.idle_demand, 0);

        let faults = FaultProfile::new(3)
            .with_pr_failures(0.3)
            .with_pr_retry(0, SimDuration::from_millis(1), SimDuration::from_millis(4))
            .with_board_failures(SimDuration::from_secs(3), SimDuration::from_secs(1));
        let mut faulted = SharingSimulator::new(
            SystemConfig::single_board(
                BoardSpec::zcu216_only_little().with_cores(CoreAssignment::SingleCore),
            )
            .with_faults(faults),
            BenchmarkApp::suite(),
            &crowded_arrivals(30),
        );
        let preempted = step_verified(&mut faulted, &mut NimblockPolicy::new());
        let stats = faulted.fault_stats();
        assert!(stats.board_failures > 0, "no board outage: {stats:?}");
        assert!(stats.pr_gave_up > 0, "no abandoned PR: {stats:?}");
        assert!(stats.cancelled_events > 0, "no quarantined slot: {stats:?}");
        assert!(preempted > 0, "no preemption under faults");
    }

    /// The pass gate's victim pre-check agrees with the victim scan: at every
    /// instant of a crowded run, where the flush evaluates the gate, no
    /// `loaded_idle & ripe & Little` slot means no victim.  The test steps
    /// like [`SharingSimulator::step`] but checks just before each flush.
    /// Both policies preempt during the run, and the pre-check both opens
    /// and closes the gate while an application waits slotless.
    #[test]
    fn the_victim_pre_check_never_hides_a_victim() {
        use crate::policy::round_robin::RoundRobinPolicy;

        let policies: [Box<dyn Policy>; 2] = [
            Box::new(RoundRobinPolicy::new()),
            Box::new(VersaSlotPolicy::new()),
        ];
        for mut policy in policies {
            let mut sim = SharingSimulator::new(
                SystemConfig::single_board(BoardSpec::zcu216_big_little()),
                BenchmarkApp::suite(),
                &crowded_arrivals(40),
            );
            let (mut opened, mut closed) = (0u32, 0u32);
            while let Some((time, event)) = sim.events.pop() {
                sim.now = time;
                let touch = sim.apply_event(event);
                if sim.events.peek_time() == Some(time) {
                    if let Some(touch) = touch {
                        sim.record_touch(touch);
                    }
                    continue;
                }
                let candidate = sim.has_victim_candidate();
                if !candidate {
                    assert_eq!(
                        sim.preemption_victim(),
                        None,
                        "{}: a victim without a candidate slot at {time}",
                        policy.name()
                    );
                }
                if sim.idle_demand > 0 && candidate {
                    opened += 1;
                } else if sim.idle_demand > 0 {
                    closed += 1;
                }
                sim.flush_pass(policy.as_mut(), touch);
            }
            sim.verify_indexes();
            assert!(sim.active.is_empty(), "{}: unfinished run", policy.name());
            let preempted = sim.trace().count(TraceKind::SlotPreempted);
            assert!(preempted > 0, "{}: no preemption", policy.name());
            assert!(
                opened > 0 && closed > 0,
                "{}: the pre-check opened {opened} and closed {closed} times",
                policy.name()
            );
        }
    }

    /// An instant of several events sweeps the touched list: its launches
    /// come in the order the instant first touched each application, and in
    /// ascending unit order within one.  The instant is built by hand: once
    /// application 0's units 0 and 1 and application 1's unit 0 are all busy,
    /// the pending events are replaced by their three item completions at
    /// the latest one's timestamp, application 1's first, then application
    /// 0's unit 1 and unit 0.
    #[test]
    fn an_instant_of_several_events_launches_in_first_touch_order() {
        let board = BoardSpec::zcu216_only_little().with_layout(
            versaslot_fpga::slot::SlotLayout::with_counts(
                0,
                8,
                BoardSpec::zcu216_little_capacity(),
            ),
        );
        let arrivals = [AppId(0), AppId(1)]
            .map(|id| AppArrival::new(id, BenchmarkApp::LeNet.suite_index(), 16, SimTime::ZERO));
        let mut sim = SharingSimulator::new(
            SystemConfig::single_board(board).with_trace(),
            BenchmarkApp::suite(),
            &arrivals,
        );
        let mut observer = Observer {
            note_first: false,
            seen: 0,
            calls: Vec::new(),
        };
        while sim.arrivals_admitted() < 2 {
            assert!(sim.step(&mut observer));
        }
        // The PR path loads one unit at a time, application 1's first.
        for app in [AppId(1), AppId(0), AppId(0)] {
            let slot = sim
                .first_grantable_slot(app, Some(SlotKind::Little))
                .expect("eight Little slots hold three units");
            assert!(sim.grant_slot(slot, app));
        }
        // A unit running an item that is not its last, so it launches again.
        let busy_slot = |sim: &SharingSimulator, app: u32, unit: usize| {
            let unit = &sim.app(AppId(app)).units[unit];
            unit.slot.filter(|&slot| {
                unit.items_done + 1 < 16
                    && matches!(sim.slots[slot].state, SlotState::Loaded { busy: true, .. })
            })
        };
        let slots = loop {
            assert!(sim.step(&mut observer), "the units never ran together");
            if sim.events.peek_time() == Some(sim.now) {
                continue;
            }
            if let (Some(b0), Some(a1), Some(a0)) = (
                busy_slot(&sim, 1, 0),
                busy_slot(&sim, 0, 1),
                busy_slot(&sim, 0, 0),
            ) {
                break [b0, a1, a0];
            }
        };
        let mut at = sim.now;
        while let Some((time, event)) = sim.events.pop() {
            if let Event::ItemComplete { slot, .. } = event {
                if slots.contains(&slot) {
                    at = at.max_of(time);
                }
            }
        }
        for slot in slots {
            sim.events.push(at, Event::ItemComplete { slot, gen: 0 });
        }
        let before = sim.trace().events().len();
        for _ in slots {
            assert!(sim.step(&mut observer));
        }
        let launched: Vec<(u32, u32)> = sim.trace().events()[before..]
            .iter()
            .filter(|event| event.kind == TraceKind::BatchLaunched)
            .map(|event| (event.app.unwrap(), event.task.unwrap()))
            .collect();
        // Application 1 was touched first; application 0's range widened to
        // units 0..=2 (unit 2 holds no slot).
        assert_eq!(launched, [(1, 0), (0, 0), (0, 1)]);
    }

    /// Board outages (eviction, quarantine, disable/enable) and cross-board
    /// switches (disable the source, enable the target) driven through `step`
    /// with the full index recount — running utilization totals included —
    /// after every event, in release builds too.
    #[test]
    fn outages_and_switches_keep_utilization_totals_exact() {
        use crate::config::SwitchingConfig;
        use crate::dswitch::SwitchThresholds;
        use versaslot_sim::fault::FaultProfile;
        use versaslot_workload::{generate_workload, Congestion, WorkloadConfig};

        let step_verified = |sim: &mut SharingSimulator| {
            let mut policy = VersaSlotPolicy::new();
            while sim.step(&mut policy) {
                sim.verify_indexes();
            }
        };

        let faults = FaultProfile::new(5)
            .with_pr_failures(0.1)
            .with_board_failures(SimDuration::from_secs(4), SimDuration::from_secs(1));
        let mut faulted = SharingSimulator::new(
            SystemConfig::single_board(BoardSpec::zcu216_big_little()).with_faults(faults),
            BenchmarkApp::suite(),
            &crowded_arrivals(30),
        );
        step_verified(&mut faulted);
        let stats = faulted.fault_stats();
        assert!(stats.board_failures > 0, "no board outage: {stats:?}");
        assert!(stats.evictions > 0, "no eviction: {stats:?}");
        assert!(stats.cancelled_events > 0, "no quarantined slot: {stats:?}");

        let eager = SwitchingConfig {
            thresholds: SwitchThresholds::new(0.03, 0.02),
            ..SwitchingConfig::default()
        };
        let config = SystemConfig::switching_cluster(
            BoardSpec::zcu216_only_little(),
            BoardSpec::zcu216_big_little(),
        )
        .with_switching(eager);
        let workload =
            generate_workload(&WorkloadConfig::paper_default(Congestion::Stress).with_shape(2, 30));
        let mut switches = 0;
        for sequence in &workload.sequences {
            let mut switching =
                SharingSimulator::new(config.clone(), workload.suite.clone(), &sequence.arrivals);
            step_verified(&mut switching);
            switches += switching.build_report("switching").switches;
        }
        assert!(switches >= 2, "only {switches} switches");
    }

    /// D_switch reads no state that retirement drops: a switching cluster
    /// that retires every completed application after each step records the
    /// same D_switch samples and migrations as one that retires none.  The
    /// eager thresholds make it switch.
    #[test]
    fn retirement_leaves_dswitch_and_migrations_unchanged() {
        use crate::config::SwitchingConfig;
        use crate::dswitch::SwitchThresholds;
        use versaslot_workload::{generate_workload, Congestion, WorkloadConfig};

        let config = SystemConfig::switching_cluster(
            BoardSpec::zcu216_only_little(),
            BoardSpec::zcu216_big_little(),
        )
        .with_switching(SwitchingConfig {
            thresholds: SwitchThresholds::new(0.03, 0.02),
            ..SwitchingConfig::default()
        });
        let workload =
            generate_workload(&WorkloadConfig::paper_default(Congestion::Stress).with_shape(2, 30));
        let mut switches = 0;
        for sequence in &workload.sequences {
            let [kept, retired] = [false, true].map(|retire| {
                let mut sim = SharingSimulator::new(
                    config.clone(),
                    workload.suite.clone(),
                    &sequence.arrivals,
                );
                let mut policy = VersaSlotPolicy::new();
                let mut retired = 0;
                while sim.step(&mut policy) {
                    if retire {
                        retired += sim.retire_completed(|_| {});
                    }
                }
                assert_eq!(retired, if retire { sequence.arrivals.len() } else { 0 });
                sim.build_report("retire")
            });
            assert_eq!(kept.dswitch_trace, retired.dswitch_trace);
            assert_eq!(kept.migrations, retired.migrations);
            switches += kept.switches;
        }
        assert!(switches >= 1, "no switch");
    }

    /// The reported utilization is the exact time-weighted mean of the
    /// totals the engine held, cross-board switches included: the totals
    /// recounted by the full slot walk after every event, integrated in
    /// `u128` per denominator (a denominator moves only when a board is
    /// enabled or disabled; a span with nothing counted adds 0).  The eager
    /// thresholds make the cluster switch both ways, disabling a board
    /// mid-run, on arrivals as well as on completions; the faulted run adds
    /// PR failures and link flaps, which lengthen the window in which
    /// neither board is enabled.
    #[test]
    fn utilization_is_the_exact_time_weighted_mean_across_switches() {
        use crate::config::SwitchingConfig;
        use crate::dswitch::SwitchThresholds;
        use versaslot_sim::fault::FaultProfile;
        use versaslot_workload::{generate_workload, Congestion, WorkloadConfig};

        let eager = SwitchingConfig {
            thresholds: SwitchThresholds::new(0.03, 0.02),
            ..SwitchingConfig::default()
        };
        let config = SystemConfig::switching_cluster(
            BoardSpec::zcu216_only_little(),
            BoardSpec::zcu216_big_little(),
        )
        .with_switching(eager);
        let faults = FaultProfile::new(41)
            .with_pr_failures(0.08)
            .with_link_flaps(0.5, SimDuration::from_millis(200));
        let workload = generate_workload(
            &WorkloadConfig::paper_default(Congestion::Standard).with_shape(2, 30),
        );
        let mut switches = 0;
        for config in [config.clone(), config.with_faults(faults)] {
            for sequence in &workload.sequences {
                let mut sim = SharingSimulator::new(
                    config.clone(),
                    workload.suite.clone(),
                    &sequence.arrivals,
                );
                let mut policy = VersaSlotPolicy::new();
                // Per lane: Σ numerator·µs for each denominator.
                let mut integral: [BTreeMap<u64, u128>; 3] = Default::default();
                let (mut at, mut totals) = (SimTime::ZERO, sim.recount_utilization());
                while sim.step(&mut policy) {
                    let span = u128::from((sim.now - at).as_micros());
                    for (lane, (num, den)) in integral.iter_mut().zip(totals.lanes()) {
                        *lane.entry(den).or_default() += u128::from(num) * span;
                    }
                    (at, totals) = (sim.now, sim.recount_utilization());
                }
                let total = sim.now.as_micros() as f64;
                let report = sim.build_report("exact");
                switches += report.switches;
                let reported = [
                    report.mean_slot_occupancy,
                    report.mean_lut_utilization,
                    report.mean_ff_utilization,
                ];
                for (lane, mean) in integral.iter().zip(reported) {
                    let exact = lane
                        .iter()
                        .filter(|(&den, _)| den > 0)
                        .map(|(&den, &sum)| sum as f64 / den as f64)
                        .sum::<f64>()
                        / total;
                    assert!(
                        (mean - exact).abs() <= 1e-12 * exact,
                        "reported {mean}, exact {exact}"
                    );
                }
            }
        }
        assert!(switches >= 4, "only {switches} switches");
    }
}
