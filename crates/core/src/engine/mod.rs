//! The spatio-temporal FPGA sharing simulator.
//!
//! [`SharingSimulator`] models one (or, for the switching experiment, two) FPGA
//! boards whose slots are shared by a stream of applications, driving the hardware
//! models of `versaslot-fpga` with a discrete-event loop:
//!
//! * **PR mechanics** — every partial reconfiguration occupies the issuing core
//!   (the scheduler core in single-core systems, the PR-server core in dual-core
//!   systems) for the SD-read plus PCAP-load duration, serialising concurrent
//!   requests and — in single-core systems — suspending scheduling, exactly the
//!   contention/blocking behaviour the paper analyses.
//! * **Pipelines** — batch item *b* of a unit can only start once the predecessor
//!   unit has produced item *b* and the hosting slot is loaded and idle; every
//!   launch costs the scheduler core a small overhead and is therefore delayed
//!   while that core is suspended.
//! * **Cross-board switching** — the D_switch metric is recomputed every *n*
//!   candidate-queue updates; crossing a Schmitt-trigger threshold migrates the
//!   ready applications to the other board while in-flight work drains on the
//!   source board.
//!
//! The *policy* (which application gets which slot, and when) is pluggable — see
//! [`crate::policy`].
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
//! launch sweep is *targeted*: applying an event records the applications it
//! touched, the flush sweeps only those, and debug builds cross-check with
//! `debug_assert_no_launchable` that no other application could have
//! launched.
//!
//! # Settled scheduling passes are skipped
//!
//! Most instants change no input of the policy: a batch item completes, its
//! slot goes idle, and the pipeline launches the next one.  The simulator
//! keeps one `pass_due` flag, which starts set and is set again by every
//! change a policy can observe:
//!
//! * any slot-state or enabled-flag change — grant, release, PR completion
//!   or abandonment, unit finish, eviction, quarantine release, board enable
//!   or disable — all through one funnel, `update_slot`;
//! * an admitted arrival and an application completion;
//! * a board failure or repair, and a switch completion;
//! * `SharingSimulator::note_policy_state_changed`, which a policy calls
//!   when its pass changed state a later pass reads.
//!
//! A non-final item completion (busy to idle, item counters, remaining
//! work) sets nothing.  The flush calls [`Policy::schedule`] only when the
//! pass is due and some free slot is grantable to an active application (or
//! any slot is free and no application is active, so policies prune finished
//! applications at the end of a run), or when
//! `SharingSimulator::preemption_victim` finds a slot the shared quantum
//! preemption would release.  It clears the flag just before the call.  The
//! launch sweep runs at every instant regardless.
//!
//! A pass that leaves the flag clear granted, released and changed nothing,
//! so it is a fixed point: the next pass sees the same slots, applications
//! and policy state.  Time and item progress reach the policies only through
//! the ageing-priority order, which cannot make a grant or binding feasible
//! in a pass that granted nothing, and quantum crossings still reach them
//! through the victim check.  The skip is exact because policies act on the
//! engine only through `SharingSimulator::grant_slot` and
//! `crate::policy::preempt_for_starving_apps`, report their own state
//! changes, and are exhaustive within one pass; see the `policy` module docs
//! for the contract.  The flag belongs to the simulator, so it assumes the
//! same policy on every [`SharingSimulator::step`].
//!
//! Debug builds check the skip on every instant.  A pass skipped as settled
//! still runs and must leave the flag clear; a pass skipped for want of a
//! grantable slot asserts that none is grantable and no preemption victim
//! exists; and VersaSlot asserts that any change of its allocation state
//! left the next pass due.  The `behaviour_lock` test pins the outputs of
//! every scheduler and run mode to digests recorded from the always-pass
//! engine.
//!
//! # O(1) per-event bookkeeping
//!
//! Nothing an event handler or a flush does walks every slot or every live
//! application; state the engine already knows is kept incrementally:
//!
//! * **Utilization totals.** The integers behind the occupancy, LUT and FF
//!   series (counted slots, their capacity, occupied slots, the resources of
//!   loaded units) change only at slot-state transitions and board
//!   enable/disable, each through one helper (`set_slot_state`,
//!   `set_board_enabled`).  `refresh_utilization` turns them into the same
//!   `TimeWeightedSeries::set` calls, at the same points, with the same
//!   values, as the slot walk it replaces.
//! * **Optimal slot counts.** `AppRuntime::optimal_slots` serves each
//!   application's ILP-optimal `(O_B, O_L)`, set at admission from a
//!   per-simulator memo keyed by (suite index, batch), so the memo is bounded
//!   by suite size × batch-range width however long a service run lasts.
//! * **Retirement.** [`SharingSimulator::retire_completed`] folds the
//!   applications recorded as they completed and returns at once when none
//!   did.
//! * **Launch sweep.** A touched application's ready units are found under
//!   one borrow and launched in ascending unit order, and completion is read
//!   from the application's unfinished-units counter.
//!
//! `SharingSimulator::verify_indexes` (debug builds, after every event)
//! recounts the utilization totals with the full slot walk, checks the
//! completed list against the application store and each live application's
//! `(O_B, O_L)` against the memo; each admission debug-checks its memo entry
//! against a fresh ILP solve.  Unit tests drive board outages (eviction,
//! quarantine, disable/enable) and cross-board switches through that
//! recount, and run VersaSlot and Nimblock in service mode past 5,000
//! retirements to bound the memo and the store.
//!
//! # One application store
//!
//! Each live [`AppRuntime`] is kept once, in a window indexed by
//! `id - base` (a `VecDeque` of `Option<AppRuntime>`; `base` is the lowest
//! live identifier and slides past vacant entries on retirement), so a lookup
//! is one subtraction and memory stays proportional to the live identifier
//! span, which keeps the infinite-stream service mode constant-memory.
//! Iterating the window yields ascending identifiers, the order every report
//! relies on.  What a policy pass reads per application is O(1): the
//! remaining work, unfinished units and unplaced units are counters inside
//! the runtime, set by `AppRuntime::rebuild_units` and moved by the engine
//! in the same borrow as the unit change (grant, item completion, release,
//! PR abandonment, board-failure eviction).  In debug builds
//! `SharingSimulator::verify_indexes` recounts them from the unit vector
//! after every event.
//!
//! # Multi-word slot masks
//!
//! Slot sets are [`mask::SlotMask`]es — two inline `u64` words spilling to a
//! heap vector beyond 128 slots, lifting the ceiling to `MAX_SLOTS` (4096)
//! without allocating for ordinary boards.  The simulator maintains `free`,
//! `enabled`, `loaded_idle`, static per-kind and static per-board masks
//! incrementally at every slot transition (grant, release, PR completion, item
//! completion, switch trigger/completion); every policy-facing query
//! ([`SharingSimulator::free_slot_count`],
//! `SharingSimulator::first_grantable_slot`,
//! `SharingSimulator::has_grantable_slot`) is popcounts and trailing-zeros
//! over lazily-ANDed words.
//! `SharingSimulator::verify_indexes` recomputes all masks and counters from
//! the slot runtimes and panics on any divergence; debug builds run
//! it after every event.
//!
//! # Allocation-free event spine
//!
//! Steady-state simulation performs **zero heap allocations per event**:
//!
//! * the [`EventQueue`] is pre-sized at construction with
//!   `SharingSimulator::event_queue_capacity` (arrivals + slots + boards, the
//!   tight bound on concurrently pending events), so its heap never grows —
//!   [`SharingSimulator::step`] debug-asserts
//!   [`SharingSimulator::event_queue_grow_events`] stays `0`;
//! * [`Trace::log`] takes a `Copy` [`TraceDetail`] payload and bumps a
//!   fixed-array counter, so a counting-only trace never formats or allocates;
//! * the touched-application set, the launch sweep's ready list and the
//!   policies reuse scratch buffers that reach their high-water mark during
//!   warm-up; every
//!   policy reports reallocations via `Policy::scratch_allocs`, and the
//!   allocation-audit test asserts the count stays flat after the first run.

pub mod app;
pub mod mask;
pub mod slot;

use std::collections::BTreeMap;

use versaslot_fpga::bitstream::BitstreamKind;
use versaslot_fpga::board::BoardId;
use versaslot_fpga::cpu::{CoreAssignment, CpuCore};
use versaslot_fpga::pcap::SerialServer;
use versaslot_fpga::resources::ResourceVector;
use versaslot_fpga::slot::{LayoutKind, SlotKind};
use versaslot_sim::fault::{FaultSchedule, FaultStats};
use versaslot_sim::{
    EventQueue, SimDuration, SimTime, TimeWeightedSeries, Trace, TraceDetail, TraceKind,
};
use versaslot_workload::{AppArrival, AppId, ApplicationSpec};

use crate::config::SystemConfig;
use crate::dswitch::{dswitch_value, DswitchInputs, DswitchSample, SwitchLoop};
use crate::ilp::{optimal_big_slots, optimal_little_slots};
use crate::metrics::{AppRecord, RunReport};
use crate::migration::{migration_overhead, MigrationRecord};
use crate::policy::{Policy, PREEMPTION_QUANTUM};

use app::AppStore;
use mask::MaskQuery;

pub use app::{AppRuntime, AppState, ExecMode, UnitRuntime};
pub use mask::{SlotIndexIter, SlotMask};
pub use slot::{ExecUnit, SlotRuntime, SlotState};

/// Safety bound on the number of processed events (a run of the paper's largest
/// workload needs well under a million).
const MAX_EVENTS: u64 = 50_000_000;

/// Sanity bound on the number of slots per run.  The multi-word [`SlotMask`]s
/// scale to any fleet size; this only guards against absurd configurations
/// (the former `u64` masks capped this at 64).
pub(crate) const MAX_SLOTS: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(AppId),
    /// `gen` is the slot's eviction generation at push time: a fault eviction
    /// bumps the slot's counter, turning any in-flight completion for the old
    /// occupant into a no-op.  Always `0` when the fault plane is off.
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

/// Runtime state of the fault plane; present only when
/// [`SystemConfig::active_faults`] is `Some`, so the fault-free hot path (an
/// empty schedule included) pays one `Option` check per event at most.
#[derive(Debug)]
struct FaultState {
    schedule: FaultSchedule,
    stats: FaultStats,
    /// Per-slot eviction generation (see [`Event::PrComplete`]).
    slot_gen: Vec<u32>,
    /// Failed attempts of the in-flight reconfiguration per slot.
    pr_attempts: Vec<u32>,
    /// Boards currently failed.
    board_down: Vec<bool>,
    /// Whether the board accepted grants when it failed (restored on repair).
    board_was_enabled: Vec<bool>,
    /// Boards with a pending `BoardDown`/`BoardUp` timer in the queue (at most
    /// one per board, which is what the queue capacity reserves).
    board_timer_armed: Vec<bool>,
    /// Slots evicted by a board failure whose in-flight completion event is
    /// still in the queue.  The occupant is detached immediately, but the slot
    /// itself is only returned to the free pool when that stale event drains —
    /// this keeps the queue at one pending event per slot, which is what the
    /// pre-sized queue reserves.
    slot_quarantined: Vec<bool>,
}

/// The scheduler and PR-server cores of one board.
#[derive(Debug, Clone, Copy)]
struct BoardCores {
    assignment: CoreAssignment,
    sched: CpuCore,
    pr: CpuCore,
}

/// Maps a slot kind to its bit in [`SlotIndex::kind`].
fn kind_bit(kind: SlotKind) -> usize {
    match kind {
        SlotKind::Big => 0,
        SlotKind::Little => 1,
    }
}

/// Incrementally maintained slot bitmasks (bit *i* ↔ slot index *i*), each a
/// multi-word [`SlotMask`] sized once for the run's slot count.
#[derive(Debug, Clone)]
struct SlotIndex {
    /// Slots in [`SlotState::Free`].
    free: SlotMask,
    /// Slots accepting new grants.
    enabled: SlotMask,
    /// Slots in [`SlotState::Loaded`] with `busy == false`.
    loaded_idle: SlotMask,
    /// Static: slots of each [`SlotKind`] (indexed by [`kind_bit`]).
    kind: [SlotMask; 2],
    /// Static: slots of each board.
    board: Vec<SlotMask>,
}

/// The ILP-optimal `(O_B, O_L)` slot counts of `spec` at `batch` items.
fn solve_optimal_slots(spec: &ApplicationSpec, batch: u32) -> (u32, u32) {
    (optimal_big_slots(spec), optimal_little_slots(spec, batch))
}

/// Integer totals behind the utilization series.  A slot is *counted* while
/// it is enabled or occupied; an occupied slot adds to `occupied`, and a
/// loaded one adds its occupant's resources to `used_*`.  The simulator keeps
/// one running total, updated at every slot-state and board-enable transition
/// ([`SharingSimulator::set_slot_state`], [`SharingSimulator::set_board_enabled`]);
/// a single slot's share is the same struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct UtilTotals {
    counted: u32,
    cap_lut: u64,
    cap_ff: u64,
    occupied: u32,
    used_lut: u64,
    used_ff: u64,
}

impl UtilTotals {
    fn add(&mut self, share: UtilTotals) {
        self.counted += share.counted;
        self.cap_lut += share.cap_lut;
        self.cap_ff += share.cap_ff;
        self.occupied += share.occupied;
        self.used_lut += share.used_lut;
        self.used_ff += share.used_ff;
    }

    fn sub(&mut self, share: UtilTotals) {
        self.counted -= share.counted;
        self.cap_lut -= share.cap_lut;
        self.cap_ff -= share.cap_ff;
        self.occupied -= share.occupied;
        self.used_lut -= share.used_lut;
        self.used_ff -= share.used_ff;
    }
}

/// Discrete-event simulator of fine-grained FPGA sharing on one or two boards.
#[derive(Debug)]
pub struct SharingSimulator {
    config: SystemConfig,
    suite: Vec<ApplicationSpec>,
    /// Arrivals scheduled but not yet admitted.
    pending_arrivals: BTreeMap<AppId, AppArrival>,
    now: SimTime,
    events: EventQueue<Event>,
    apps: AppStore,
    slots: Vec<SlotRuntime>,
    index: SlotIndex,
    /// Arrived, not-yet-completed applications, sorted by identifier.
    active: Vec<AppId>,
    cores: Vec<BoardCores>,
    /// One serial PR path (SD read + PCAP load) per board.
    pr_paths: Vec<SerialServer>,
    active_board: usize,
    pending_switch: bool,

    total_pr: u64,
    blocked_events: u64,
    blocked_tasks: u64,
    switches: u64,
    window_blocked: u64,
    candidate_updates: u32,
    events_processed: u64,
    arrivals_admitted: u64,
    /// Completed applications removed from the tables by
    /// [`Self::retire_completed`] (service mode), with the PR-task total they
    /// contributed — the D_switch inputs are compensated with these so
    /// retirement does not change the metric.
    retired_apps: u64,
    retired_pr_tasks: u64,

    /// Running utilization totals (see [`UtilTotals`]).
    util: UtilTotals,
    occupancy: TimeWeightedSeries,
    lut_util: TimeWeightedSeries,
    ff_util: TimeWeightedSeries,
    trace: Trace,

    switch_loop: Option<SwitchLoop>,
    dswitch_trace: Vec<DswitchSample>,
    migrations: Vec<MigrationRecord>,

    /// Fault-injection state; `None` disables the fault plane entirely.
    fault: Option<Box<FaultState>>,

    /// Memo of the ILP-optimal `(O_B, O_L)` slot counts per (suite index,
    /// batch), read once per arrival into the admitted [`AppRuntime`].
    /// Bounded by the suite size times the batch-range width.
    optimal_memo: BTreeMap<(usize, u32), (u32, u32)>,
    /// Applications completed since the last [`Self::retire_completed`].
    completed: Vec<AppId>,

    /// Applications whose units progressed since the last scheduling pass —
    /// the only candidates for the launch sweep (no steady-state allocation).
    touched_scratch: Vec<AppId>,
    /// Ready `(unit, slot, item duration)` launches of one application,
    /// gathered by the launch sweep (no steady-state allocation).
    ready_scratch: Vec<(usize, usize, SimDuration)>,
    /// Whether a policy input changed since the last scheduling pass began
    /// (see the module docs): a pass that leaves it clear reached a fixed
    /// point, and the next one is skipped unless a preemption is due.
    pass_due: bool,
    /// Scheduling passes run so far.  Passes skipped as settled are not
    /// counted, although debug builds run them as a check.
    passes: u64,
}

impl SharingSimulator {
    /// Creates a simulator for `arrivals` drawn from `suite`, on the boards of
    /// `config` (board 0 starts active).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails `SystemConfig::validate`, an arrival
    /// references an application outside the suite, or two arrivals share an
    /// identifier.
    pub fn new(config: SystemConfig, suite: Vec<ApplicationSpec>, arrivals: &[AppArrival]) -> Self {
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
        let mut index = SlotIndex {
            free: SlotMask::empty(total_slots),
            enabled: SlotMask::empty(total_slots),
            loaded_idle: SlotMask::empty(total_slots),
            kind: [SlotMask::empty(total_slots), SlotMask::empty(total_slots)],
            board: vec![SlotMask::empty(total_slots); config.boards.len()],
        };
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
            cores.push(BoardCores {
                assignment: board.cores,
                sched: CpuCore::new(),
                pr: CpuCore::new(),
            });
        }
        let pr_paths = vec![SerialServer::new(); config.boards.len()];

        let fault = config.active_faults().map(|profile| {
            Box::new(FaultState {
                schedule: FaultSchedule::new(profile, config.boards.len()),
                stats: FaultStats::default(),
                slot_gen: vec![0; total_slots],
                pr_attempts: vec![0; total_slots],
                board_down: vec![false; config.boards.len()],
                board_was_enabled: vec![false; config.boards.len()],
                board_timer_armed: vec![false; config.boards.len()],
                slot_quarantined: vec![false; total_slots],
            })
        });

        let mut events = EventQueue::with_capacity(Self::queue_capacity_for(
            &config,
            arrivals.len(),
            slots.len(),
        ));
        let mut pending_arrivals = BTreeMap::new();
        for arrival in arrivals {
            let previous = pending_arrivals.insert(arrival.id, *arrival);
            assert!(
                previous.is_none(),
                "duplicate application id {}",
                arrival.id
            );
            events.push(arrival.arrival, Event::Arrival(arrival.id));
        }

        let switch_loop = config
            .switching
            .map(|cfg| SwitchLoop::new(cfg.thresholds, config.boards[0].layout.kind()));

        let trace = if config.record_trace {
            Trace::recording()
        } else {
            Trace::counting_only()
        };

        let mut sim = SharingSimulator {
            config,
            suite,
            pending_arrivals,
            now: SimTime::ZERO,
            events,
            apps: AppStore::default(),
            slots,
            index,
            active: Vec::new(),
            cores,
            pr_paths,
            active_board: 0,
            pending_switch: false,
            total_pr: 0,
            blocked_events: 0,
            blocked_tasks: 0,
            switches: 0,
            window_blocked: 0,
            candidate_updates: 0,
            events_processed: 0,
            arrivals_admitted: 0,
            retired_apps: 0,
            retired_pr_tasks: 0,
            util: UtilTotals::default(),
            occupancy: TimeWeightedSeries::new(SimTime::ZERO, 0.0),
            lut_util: TimeWeightedSeries::new(SimTime::ZERO, 0.0),
            ff_util: TimeWeightedSeries::new(SimTime::ZERO, 0.0),
            trace,
            switch_loop,
            dswitch_trace: Vec::new(),
            migrations: Vec::new(),
            fault,
            optimal_memo: BTreeMap::new(),
            completed: Vec::new(),
            touched_scratch: Vec::new(),
            ready_scratch: Vec::new(),
            pass_due: true,
            passes: 0,
        };
        sim.util = sim.recount_utilization();
        sim
    }

    /// Creates a simulator for **service mode**: no arrivals are scheduled up
    /// front; the caller injects them one at a time with
    /// [`Self::inject_arrival`] and retires finished applications with
    /// [`Self::retire_completed`], so the application tables stay O(live apps)
    /// over an unbounded run.
    ///
    /// The event queue is pre-sized for at most `arrival_lookahead` pending
    /// injected arrivals (the service runner keeps exactly one in flight), so
    /// the allocation-free spine invariant holds in service mode too.
    pub fn for_service(
        config: SystemConfig,
        suite: Vec<ApplicationSpec>,
        arrival_lookahead: usize,
    ) -> Self {
        let mut sim = Self::new(config, suite, &[]);
        sim.events = EventQueue::with_capacity(Self::queue_capacity_for(
            &sim.config,
            arrival_lookahead,
            sim.slots.len(),
        ));
        sim
    }

    /// Schedules one externally generated arrival (service mode).
    ///
    /// # Panics
    ///
    /// Panics if the arrival references an application outside the suite, lies
    /// in the past, or reuses an identifier that is still live.
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
        let previous = self.pending_arrivals.insert(arrival.id, arrival);
        assert!(
            previous.is_none() && self.apps.get(arrival.id).is_none(),
            "duplicate application id {}",
            arrival.id
        );
        self.events
            .push(arrival.arrival, Event::Arrival(arrival.id));
    }

    /// Removes every completed application from the runtime tables, calling
    /// `fold` on each before it is dropped, and returns how many were retired.
    ///
    /// This is what keeps service-mode memory O(live applications): the caller
    /// folds whatever it needs (response time, PR count, …) into its own
    /// constant-size accumulators and the records are gone.  The D_switch
    /// inputs are compensated via retirement counters, so switching behaviour
    /// is identical with and without retirement.
    ///
    /// Completion-driven: the engine records each application as it completes,
    /// so a call with no completion since the previous one returns at once,
    /// and the others fold just the new completions, in identifier order.
    pub fn retire_completed<F: FnMut(&AppRuntime)>(&mut self, mut fold: F) -> usize {
        if self.completed.is_empty() {
            return 0;
        }
        let mut completed = std::mem::take(&mut self.completed);
        completed.sort_unstable();
        for &id in &completed {
            let app = self.apps.remove(id).expect("app present");
            self.retired_apps += 1;
            self.retired_pr_tasks += self.suite[app.app_index].task_count() as u64;
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

    /// The specification an application was instantiated from.
    pub(crate) fn spec_of(&self, id: AppId) -> &ApplicationSpec {
        &self.suite[self.apps.expect(id).app_index]
    }

    /// Number of enabled slots of `kind` (the totals Algorithm 1 works with).
    pub(crate) fn enabled_slot_total(&self, kind: SlotKind) -> u32 {
        MaskQuery::and(&self.index.enabled, &self.index.kind[kind_bit(kind)]).count() as u32
    }

    /// Number of enabled, free slots of `kind`.
    pub fn free_slot_count(&self, kind: SlotKind) -> u32 {
        MaskQuery::grantable(
            &self.index.free,
            &self.index.enabled,
            None,
            Some(&self.index.kind[kind_bit(kind)]),
        )
        .count() as u32
    }

    /// Combined-mask query for the slots grantable to `app` right now: free
    /// slots on an enabled board, plus free slots on the application's home
    /// board (so pipelines in flight when a cross-board switch happens can
    /// drain).  Restricted to `kind` when given.  Evaluated lazily word by
    /// word — no combined mask is ever materialised.
    fn grantable_query(&self, app: AppId, kind: Option<SlotKind>) -> MaskQuery<'_> {
        let runtime = self.apps.expect(app);
        let home = runtime
            .started
            .then_some(runtime.home_board)
            .flatten()
            // The home-board drain exception must not resurrect grants on a
            // board the fault plane has taken down.
            .filter(|&home| !self.board_fault_down(home))
            .map(|home| &self.index.board[home]);
        MaskQuery::grantable(
            &self.index.free,
            &self.index.enabled,
            home,
            kind.map(|kind| &self.index.kind[kind_bit(kind)]),
        )
    }

    /// The lowest-indexed slot grantable to `app`, if any — the slot the
    /// first-fit policies pick, via a word scan.
    pub(crate) fn first_grantable_slot(&self, app: AppId, kind: Option<SlotKind>) -> Option<usize> {
        self.grantable_query(app, kind).first()
    }

    /// Whether any slot is grantable to `app`, via a word scan.
    pub(crate) fn has_grantable_slot(&self, app: AppId, kind: Option<SlotKind>) -> bool {
        self.grantable_query(app, kind).any()
    }

    /// Iterates the indices of loaded, idle slots of `kind` (the preemption
    /// candidates) in ascending order, without allocating.
    pub(crate) fn loaded_idle_slots(&self, kind: SlotKind) -> SlotIndexIter<'_> {
        MaskQuery::and(&self.index.loaded_idle, &self.index.kind[kind_bit(kind)]).iter()
    }

    /// The slot quantum-based preemption would release right now, if any —
    /// the single scan behind both [`crate::policy::preempt_for_starving_apps`]
    /// and the engine's pass gate, so the two cannot drift apart.
    ///
    /// The victim is a loaded, idle Little slot whose unit has processed at
    /// least `quantum` items since it was loaded, owned by the application
    /// holding the most slots (at least two; ties go to the lowest slot).  It
    /// is returned only while some application is *starving*: it has unplaced
    /// work, holds no slot, and no free Little slot is grantable to it.
    ///
    /// Runs on the incremental indexes (loaded-idle and grantable bitmasks,
    /// occupancy counters) without allocating.
    pub(crate) fn preemption_victim(&self, quantum: u32) -> Option<usize> {
        // A free, enabled Little slot is grantable to every application, so
        // none can be starving.
        let little = &self.index.kind[kind_bit(SlotKind::Little)];
        if MaskQuery::grantable(&self.index.free, &self.index.enabled, None, Some(little)).any() {
            return None;
        }
        let mut victim: Option<(usize, u32)> = None;
        for idx in self.loaded_idle_slots(SlotKind::Little) {
            let SlotState::Loaded {
                app,
                unit,
                busy: false,
            } = self.slots[idx].state
            else {
                continue;
            };
            let runtime = self.apps.expect(app);
            if runtime.units[unit].items_since_load < quantum {
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
            self.apps.expect(app).unplaced_units() > 0
                && self.slots_in_use_by(app) == (0, 0)
                && !self.has_grantable_slot(app, Some(SlotKind::Little))
        });
        starving.then_some(slot)
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

    /// The slot layout of the currently active board.
    pub(crate) fn active_layout(&self) -> LayoutKind {
        self.config.boards[self.active_board].layout.kind()
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
    /// All arrival events are scheduled up front (`num_arrivals`); beyond those,
    /// every slot has at most one in-flight completion (`PrComplete` while
    /// reconfiguring *or* `ItemComplete` while busy — the states are exclusive)
    /// and every board at most one pending `SwitchComplete`.  This bound is much
    /// tighter than the apps × tasks worst case: pending events are limited by
    /// the hardware (slots), not by the backlog of work.
    pub(crate) fn event_queue_capacity(
        num_arrivals: usize,
        num_slots: usize,
        num_boards: usize,
    ) -> usize {
        num_arrivals + num_slots + num_boards
    }

    /// Queue capacity for a concrete configuration: the public bound above,
    /// plus one slot per board when the fault plane is on (each board has at
    /// most one pending `BoardDown` *or* `BoardUp` timer — never both).
    fn queue_capacity_for(config: &SystemConfig, num_arrivals: usize, num_slots: usize) -> usize {
        let boards = config.boards.len();
        let fault_events = if config.active_faults().is_some() {
            boards
        } else {
            0
        };
        Self::event_queue_capacity(num_arrivals, num_slots, boards) + fault_events
    }

    /// Counters of the fault plane; all-zero when no fault profile is
    /// attached (kept out of [`RunReport`] so fault-free reports are
    /// byte-identical to builds without the fault plane).
    pub(crate) fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Whether the fault plane was built (see [`SystemConfig::active_faults`]).
    #[cfg(test)]
    pub(crate) fn has_fault_plane(&self) -> bool {
        self.fault.is_some()
    }

    /// Whether `board` is currently failed by the fault plane.
    fn board_fault_down(&self, board: usize) -> bool {
        self.fault.as_ref().is_some_and(|f| f.board_down[board])
    }

    /// The eviction generation completion events for `slot_idx` must carry.
    fn slot_event_gen(&self, slot_idx: usize) -> u32 {
        self.fault.as_ref().map_or(0, |f| f.slot_gen[slot_idx])
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

    fn index_slot_granted(&mut self, slot_idx: usize, app_id: AppId, slot_kind: SlotKind) {
        self.index.free.remove(slot_idx);
        let app = self.apps.expect_mut(app_id);
        match slot_kind {
            SlotKind::Big => app.in_use_big += 1,
            SlotKind::Little => app.in_use_little += 1,
        }
    }

    fn index_slot_freed(&mut self, slot_idx: usize, app_id: AppId, slot_kind: SlotKind) {
        self.index.free.insert(slot_idx);
        self.index.loaded_idle.remove(slot_idx);
        let app = self.apps.expect_mut(app_id);
        match slot_kind {
            SlotKind::Big => app.in_use_big -= 1,
            SlotKind::Little => app.in_use_little -= 1,
        }
    }

    fn index_slot_loaded_idle(&mut self, slot_idx: usize) {
        self.index.loaded_idle.insert(slot_idx);
    }

    fn index_slot_busy(&mut self, slot_idx: usize) {
        self.index.loaded_idle.remove(slot_idx);
    }

    fn index_app_arrived(&mut self, id: AppId) {
        match self.active.binary_search(&id) {
            Ok(_) => {}
            Err(pos) => self.active.insert(pos, id),
        }
    }

    fn index_app_completed(&mut self, id: AppId) {
        if let Ok(pos) = self.active.binary_search(&id) {
            self.active.remove(pos);
        }
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
        let SlotIndex {
            enabled: enabled_mask,
            board,
            ..
        } = &mut self.index;
        if enabled {
            enabled_mask.union_with(&board[board_idx]);
        } else {
            enabled_mask.subtract(&board[board_idx]);
        }
    }

    /// Moves `slot_idx` to `state`, keeping the utilization totals in step.
    /// Every change of a slot's occupancy goes through here; flipping the
    /// `busy` flag of a loaded slot leaves its share unchanged and is done in
    /// place.
    fn set_slot_state(&mut self, slot_idx: usize, state: SlotState) {
        self.update_slot(slot_idx, |slot| slot.state = state);
    }

    /// Applies `change` to one slot, moving its share of the utilization
    /// totals from the old slot to the new one.
    /// Every slot-state and enabled-flag change passes here, so this is also
    /// where a slot change marks the next scheduling pass due.
    fn update_slot(&mut self, slot_idx: usize, change: impl FnOnce(&mut SlotRuntime)) {
        self.pass_due = true;
        let before = self.slot_utilization(slot_idx);
        change(&mut self.slots[slot_idx]);
        let after = self.slot_utilization(slot_idx);
        self.util.sub(before);
        self.util.add(after);
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

    /// The utilization totals recounted by walking every slot — the
    /// reference [`Self::verify_indexes`] checks the running totals against.
    fn recount_utilization(&self) -> UtilTotals {
        let mut totals = UtilTotals::default();
        for slot in &self.slots {
            if !slot.enabled && slot.is_free() {
                continue;
            }
            totals.counted += 1;
            totals.cap_lut += slot.descriptor.capacity.lut;
            totals.cap_ff += slot.descriptor.capacity.ff;
            match slot.state {
                SlotState::Free => {}
                SlotState::Reconfiguring { .. } => totals.occupied += 1,
                SlotState::Loaded { app, unit, .. } => {
                    totals.occupied += 1;
                    let resources = self.unit_resources(app, unit);
                    totals.used_lut += resources.lut;
                    totals.used_ff += resources.ff;
                }
            }
        }
        totals
    }

    /// Recomputes every incremental index naively from [`Self::slots`] and the
    /// application store, panicking on any divergence: the slot masks,
    /// occupancy counters, each application's remaining work, unfinished and
    /// unplaced units (by a scan of its unit vector), the store's placement
    /// and count, the active set, the utilization totals (by the full slot
    /// walk), the completed list, and each live application's `(O_B, O_L)`
    /// against the memo.  (The memo is insert-only and each admission
    /// debug-checks its entry against a fresh ILP solve, so the stored counts
    /// equal a fresh solve too, without re-solving every live application
    /// after every event.)  Debug builds call this after every event; the
    /// index-consistency property tests call it through [`Self::step`].
    ///
    /// # Panics
    ///
    /// Panics when an incremental index disagrees with the naive recount.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn verify_indexes(&self) {
        let bits = self.slots.len();
        let mut free = SlotMask::empty(bits);
        let mut enabled = SlotMask::empty(bits);
        let mut loaded_idle = SlotMask::empty(bits);
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
            self.util,
            self.recount_utilization(),
            "utilization totals diverged"
        );
        for app in self.apps.iter() {
            assert_eq!(
                Some(&app.optimal_slots()),
                self.optimal_memo.get(&(app.app_index, app.batch)),
                "optimal slot counts of {} diverged from the memo",
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
    /// (for Big slots), or it has no unplaced unit left.
    pub(crate) fn grant_slot(&mut self, slot_idx: usize, app_id: AppId) -> bool {
        let now = self.now;
        let (slot_kind, slot_board, slot_enabled, slot_free) = {
            let slot = &self.slots[slot_idx];
            (
                slot.descriptor.kind,
                slot.board.0 as usize,
                slot.enabled,
                slot.is_free(),
            )
        };
        if !slot_free {
            return false;
        }
        if self.board_fault_down(slot_board) {
            return false;
        }

        let target_mode = match slot_kind {
            SlotKind::Big => ExecMode::Big,
            SlotKind::Little => ExecMode::Little,
        };

        let dma = self.config.boards[slot_board].dma;

        let unit_idx = {
            // Borrow the suite and the application store simultaneously
            // (disjoint fields) so no per-grant specification clone is needed.
            let suite = &self.suite;
            let app = self.apps.expect_mut(app_id);
            let spec = &suite[app.app_index];
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
                let dma_per_item = dma.transfer_duration(
                    spec.tasks()
                        .iter()
                        .map(|t| t.data_per_item_bytes())
                        .max()
                        .unwrap_or(0),
                );
                app.rebuild_units(spec, target_mode, dma_per_item);
            }
            match app.next_unit_to_place() {
                Some(idx) => idx,
                None => return false,
            }
        };

        // Model the PR as the paper describes it: the PR server reads the
        // pre-generated bitstream from the SD card into memory and then pushes it
        // through the PCAP; the issuing core is occupied for the whole sequence
        // (and, in single-core systems, scheduling is suspended for its duration).
        let board_cfg = &self.config.boards[slot_board];
        let bitstream_kind = match slot_kind {
            SlotKind::Big => BitstreamKind::BigPartial,
            SlotKind::Little => BitstreamKind::LittlePartial,
        };
        let size = board_cfg.bitstream_sizes.size_of(bitstream_kind);
        let sd_read = board_cfg.sd_card.read_duration(size);
        let pcap_load = board_cfg.pcap.load_duration(size);

        // The PR path (SD read followed by the PCAP load) serves one request at a
        // time per board; concurrent requests queue behind it (PR contention).
        let window = self.pr_paths[slot_board].submit(now, sd_read + pcap_load);
        let queued = window.queueing_delay(now) > self.config.blocked_threshold;
        let finish = window.finish;

        // While the PCAP loads the bitstream it suspends the issuing CPU.  In
        // single-core systems that is the scheduling core, so batch launches stall
        // for the load duration; in dual-core systems the PR-server core absorbs it.
        let cores = &mut self.cores[slot_board];
        let issuing_core = match cores.assignment {
            CoreAssignment::SingleCore => &mut cores.sched,
            CoreAssignment::DualCore => &mut cores.pr,
        };
        issuing_core.block(now, pcap_load);

        {
            let app = self.apps.expect_mut(app_id);
            if queued {
                self.blocked_events += 1;
                self.window_blocked += 1;
                if !app.units[unit_idx].blocked_counted {
                    app.units[unit_idx].blocked_counted = true;
                    self.blocked_tasks += 1;
                }
            }
            app.place_unit(unit_idx, slot_idx);
            app.state = AppState::Running;
            app.started = true;
            app.home_board.get_or_insert(slot_board);
            app.pr_count += 1;
            if slot_kind == SlotKind::Big {
                app.used_big = true;
            }
        }

        self.set_slot_state(
            slot_idx,
            SlotState::Reconfiguring {
                app: app_id,
                unit: unit_idx,
            },
        );
        self.index_slot_granted(slot_idx, app_id, slot_kind);
        self.total_pr += 1;
        let gen = self.slot_event_gen(slot_idx);
        if let Some(fault) = self.fault.as_mut() {
            fault.pr_attempts[slot_idx] = 0;
        }
        self.events.push(
            finish,
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
        self.refresh_utilization();
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
        self.index_slot_freed(slot_idx, app_id, slot_kind);
        // A loaded slot always hosts an unfinished unit.
        self.apps.expect_mut(app_id).unplace_unit(unit_idx);
        self.trace.log(
            self.now,
            TraceKind::SlotPreempted,
            Some(app_id.0),
            Some(unit_idx as u32),
            Some(self.slots[slot_idx].descriptor.id.0),
            TraceDetail::None,
        );
        self.refresh_utilization();
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
    /// The scheduling pass and launch sweep run once per simulation *instant*:
    /// they are deferred while further events share the current timestamp.
    /// The pass is skipped when it is settled — no policy input changed since
    /// the last pass, or no slot is grantable — and no preemption is due (see
    /// `Self::preemption_victim` and the module docs).  Whether a pass is
    /// due is simulator state, so every call must pass the same policy.
    /// Tests can interleave calls with `Self::verify_indexes` to check the
    /// incremental indexes after every event.
    ///
    /// # Panics
    ///
    /// Panics if the event bound is exceeded.
    pub fn step(&mut self, policy: &mut dyn Policy) -> bool {
        let Some((time, event)) = self.events.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "event time went backwards");
        self.now = time;
        self.apply_event(event);
        self.events_processed += 1;
        assert!(
            self.events_processed < MAX_EVENTS,
            "simulation exceeded {MAX_EVENTS} events — livelock in policy `{}`?",
            policy.name()
        );
        if self.events.peek_time() != Some(self.now) {
            self.flush_pass(policy);
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
        while self.step(policy) {}
        assert!(
            self.active.is_empty() && self.pending_arrivals.is_empty(),
            "policy `{}` left applications unfinished: {:?}",
            policy.name(),
            self.active
        );
        self.build_report(policy.name())
    }

    /// Applies one event's state transition and records which application's
    /// units progressed (the only launch-sweep candidates: launches depend
    /// solely on an app's own slot states and intra-pipeline progress).
    fn apply_event(&mut self, event: Event) {
        let touched = match event {
            Event::Arrival(id) => {
                self.handle_arrival(id);
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
        };
        if let Some(app) = touched {
            if !self.touched_scratch.contains(&app) {
                self.touched_scratch.push(app);
            }
        }
    }

    /// One scheduling pass of `policy` followed by a launch sweep over every
    /// application touched since the previous pass.  Runs once per simulation
    /// instant.
    ///
    /// The pass runs only when it is due and some slot is grantable, or when
    /// [`Self::preemption_victim`] finds a slot the shared preemption would
    /// release; the due flag is cleared just before the call.  A pass is due
    /// after any policy input changed (a slot change, an admission, a
    /// completion, a board failure, repair or switch, or
    /// [`Self::note_policy_state_changed`]), so a pass that leaves the flag
    /// clear is a fixed point and the next one could change nothing (see the
    /// module docs).  The launch sweep always runs.
    fn flush_pass(&mut self, policy: &mut dyn Policy) {
        let due = self.pass_due && self.any_slot_grantable();
        if due || self.preemption_victim(PREEMPTION_QUANTUM).is_some() {
            self.pass_due = false;
            self.passes += 1;
            policy.schedule(self);
        } else {
            #[cfg(debug_assertions)]
            self.debug_check_skipped_pass(policy);
        }
        let touched = std::mem::take(&mut self.touched_scratch);
        for &app_id in &touched {
            self.launch_sweep_app(app_id);
        }
        self.touched_scratch = touched;
        self.touched_scratch.clear();
        #[cfg(debug_assertions)]
        self.debug_assert_no_launchable();
    }

    /// Whether a free slot is grantable to some active application.  With no
    /// active application any free slot counts, so a policy prunes its
    /// bookkeeping of finished applications at the end of every run.  The
    /// common case — every slot occupied — costs one mask-word scan.
    fn any_slot_grantable(&self) -> bool {
        if self.index.free.is_empty() {
            false
        } else if self.active.is_empty()
            || MaskQuery::and(&self.index.free, &self.index.enabled).any()
        {
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
    /// runs here and must leave the pass undue — it changed nothing.  A pass
    /// skipped for want of a grantable slot goes to
    /// [`Self::debug_assert_idle_pass`].
    #[cfg(debug_assertions)]
    fn debug_check_skipped_pass(&mut self, policy: &mut dyn Policy) {
        if !self.any_slot_grantable() {
            self.debug_assert_idle_pass();
            return;
        }
        policy.schedule(self);
        assert!(
            !self.pass_due,
            "a pass skipped as settled at {} changed state",
            self.now
        );
    }

    /// Debug cross-check of a pass skipped without a grantable slot: no slot
    /// is grantable to any active application and the shared preemption has
    /// no victim, so the policy could not have changed anything.
    #[cfg(debug_assertions)]
    fn debug_assert_idle_pass(&self) {
        for &app in &self.active {
            assert_eq!(
                self.first_grantable_slot(app, None),
                None,
                "skipped a pass while a slot was grantable to {app}"
            );
        }
        assert_eq!(
            self.preemption_victim(PREEMPTION_QUANTUM),
            None,
            "skipped a pass while the shared preemption had a victim"
        );
    }

    /// Debug cross-check of the targeted launch sweep: after a scheduling
    /// pass, no launchable item may remain anywhere — including in apps the
    /// sweep skipped as untouched.
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

    fn handle_arrival(&mut self, id: AppId) {
        let arrival = self
            .pending_arrivals
            .remove(&id)
            .expect("admitted arrival was pending");
        let spec = &self.suite[arrival.app_index];
        let dma = self.config.boards[self.active_board].dma;
        let dma_per_item = dma.transfer_duration(
            spec.tasks()
                .iter()
                .map(|t| t.data_per_item_bytes())
                .max()
                .unwrap_or(0),
        );
        let app = AppRuntime::new(&arrival, spec, dma_per_item);
        self.trace.log(
            self.now,
            TraceKind::AppArrived,
            Some(id.0),
            None,
            None,
            TraceDetail::SuiteApp {
                suite_index: arrival.app_index as u32,
            },
        );
        let optimal = *self
            .optimal_memo
            .entry((arrival.app_index, arrival.batch_size))
            .or_insert_with(|| solve_optimal_slots(spec, arrival.batch_size));
        debug_assert_eq!(
            optimal,
            solve_optimal_slots(spec, arrival.batch_size),
            "optimal-slot memo diverged from a fresh ILP solve"
        );
        self.apps.insert(app, optimal);
        self.index_app_arrived(id);
        self.pass_due = true;
        self.arrivals_admitted += 1;
        self.candidate_queue_updated();
        self.arm_board_timers();
    }

    /// Whether a completion event for `slot` is still current.  A fault
    /// eviction bumps the slot's generation, so a completion pushed for the
    /// evicted occupant is dropped here (counted, never a panic) instead of
    /// hitting the state-machine asserts below.
    fn accept_completion(&mut self, slot: usize, gen: u32) -> bool {
        let stale = self
            .fault
            .as_ref()
            .is_some_and(|fault| fault.slot_gen[slot] != gen);
        if stale {
            self.release_quarantined(slot);
        }
        !stale
    }

    /// Consumes the stale completion of a slot evicted by a board failure and
    /// returns the slot to the free pool.  The release is deferred to this
    /// point (rather than eviction time) so each slot keeps at most one event
    /// in flight — the bound the pre-sized queue reserves.
    fn release_quarantined(&mut self, slot_idx: usize) {
        {
            let fault = self
                .fault
                .as_mut()
                .expect("stale completion without fault state");
            fault.stats.cancelled_events += 1;
            debug_assert!(
                fault.slot_quarantined[slot_idx],
                "stale completion on a slot that was never quarantined"
            );
            fault.slot_quarantined[slot_idx] = false;
        }
        let app_id = match self.slots[slot_idx].state {
            SlotState::Reconfiguring { app, .. } => app,
            SlotState::Loaded { app, .. } => app,
            SlotState::Free => unreachable!("quarantined slots stay occupied until released"),
        };
        let kind = self.slots[slot_idx].descriptor.kind;
        self.set_slot_state(slot_idx, SlotState::Free);
        self.index_slot_freed(slot_idx, app_id, kind);
        self.refresh_utilization();
    }

    fn handle_pr_complete(&mut self, slot_idx: usize) -> AppId {
        let (app, unit) = match self.slots[slot_idx].state {
            SlotState::Reconfiguring { app, unit } => (app, unit),
            other => panic!("PR completion on a slot in state {other:?}"),
        };
        if self
            .fault
            .as_mut()
            .is_some_and(|f| f.schedule.next_pr_outcome())
        {
            return self.handle_pr_failed(slot_idx, app, unit);
        }
        if let Some(fault) = self.fault.as_mut() {
            fault.pr_attempts[slot_idx] = 0;
        }
        self.set_slot_state(
            slot_idx,
            SlotState::Loaded {
                app,
                unit,
                busy: false,
            },
        );
        self.index_slot_loaded_idle(slot_idx);
        self.trace.log(
            self.now,
            TraceKind::PrCompleted,
            Some(app.0),
            Some(unit as u32),
            Some(self.slots[slot_idx].descriptor.id.0),
            TraceDetail::None,
        );
        self.refresh_utilization();
        app
    }

    /// A PCAP bitstream load failed.  While retries remain the same bitstream
    /// is re-driven through the board's serial PR path after a capped
    /// exponential backoff (occupying the issuing core again, exactly like a
    /// fresh load); once retries are exhausted the placement is abandoned and
    /// the unit returns to the unplaced set for the policy to re-place.
    fn handle_pr_failed(&mut self, slot_idx: usize, app_id: AppId, unit_idx: usize) -> AppId {
        let now = self.now;
        let slot_board = self.slots[slot_idx].board.0 as usize;
        let (attempt, backoff, retry) = {
            let fault = self.fault.as_mut().expect("PR failure without fault state");
            fault.stats.pr_failures += 1;
            let attempt = fault.pr_attempts[slot_idx] + 1;
            let backoff = fault.schedule.pr_backoff(attempt);
            let retry = attempt <= fault.schedule.profile().max_pr_retries;
            (attempt, backoff, retry)
        };
        self.trace.log(
            now,
            TraceKind::PrFailed,
            Some(app_id.0),
            Some(unit_idx as u32),
            Some(self.slots[slot_idx].descriptor.id.0),
            TraceDetail::PrFault { attempt },
        );
        if retry {
            let board_cfg = &self.config.boards[slot_board];
            let bitstream_kind = match self.slots[slot_idx].descriptor.kind {
                SlotKind::Big => BitstreamKind::BigPartial,
                SlotKind::Little => BitstreamKind::LittlePartial,
            };
            let size = board_cfg.bitstream_sizes.size_of(bitstream_kind);
            let sd_read = board_cfg.sd_card.read_duration(size);
            let pcap_load = board_cfg.pcap.load_duration(size);
            let window = self.pr_paths[slot_board].submit(now + backoff, sd_read + pcap_load);
            let cores = &mut self.cores[slot_board];
            let issuing_core = match cores.assignment {
                CoreAssignment::SingleCore => &mut cores.sched,
                CoreAssignment::DualCore => &mut cores.pr,
            };
            issuing_core.block(now + backoff, pcap_load);
            let gen = {
                let fault = self.fault.as_mut().expect("fault state present");
                fault.pr_attempts[slot_idx] = attempt;
                fault.stats.pr_retries += 1;
                fault.slot_gen[slot_idx]
            };
            self.total_pr += 1;
            self.apps.expect_mut(app_id).pr_count += 1;
            self.events.push(
                window.finish,
                Event::PrComplete {
                    slot: slot_idx,
                    gen,
                },
            );
            self.trace.log(
                now,
                TraceKind::PrRetried,
                Some(app_id.0),
                Some(unit_idx as u32),
                Some(self.slots[slot_idx].descriptor.id.0),
                TraceDetail::PrRetry { attempt, backoff },
            );
        } else {
            // Out of retries: free the slot and hand the unit back to the
            // scheduler (the next flush pass re-places it, possibly elsewhere).
            {
                let fault = self.fault.as_mut().expect("fault state present");
                fault.stats.pr_gave_up += 1;
                fault.stats.evictions += 1;
                fault.pr_attempts[slot_idx] = 0;
            }
            let slot_kind = self.slots[slot_idx].descriptor.kind;
            self.set_slot_state(slot_idx, SlotState::Free);
            self.index_slot_freed(slot_idx, app_id, slot_kind);
            self.apps.expect_mut(app_id).unplace_unit(unit_idx);
            self.refresh_utilization();
        }
        app_id
    }

    /// The fault plane takes `board` offline: every occupant (reconfiguring or
    /// loaded) is evicted back to the unplaced set with its in-flight
    /// completion cancelled via the slot generation, the board's slots leave
    /// the enabled mask, and a repair (`BoardUp`) is scheduled from the MTTR
    /// stream.
    fn handle_board_down(&mut self, board: usize) {
        let now = self.now;
        {
            let fault = self
                .fault
                .as_mut()
                .expect("board fault without fault state");
            debug_assert!(
                !fault.board_down[board],
                "board failed twice without repair"
            );
            fault.board_down[board] = true;
            fault.stats.board_failures += 1;
        }
        self.pass_due = true;
        let was_enabled = MaskQuery::and(&self.index.enabled, &self.index.board[board]).any();
        if was_enabled {
            self.set_board_enabled(board, false);
        }
        let mut evicted = 0u32;
        for slot_idx in 0..self.slots.len() {
            if self.slots[slot_idx].board.0 as usize != board {
                continue;
            }
            if self
                .fault
                .as_ref()
                .is_some_and(|f| f.slot_quarantined[slot_idx])
            {
                // Already evicted by a previous failure of this board; its
                // stale event has not drained yet.
                continue;
            }
            // `in_flight` tells whether the slot has a completion event in the
            // queue: a reconfiguring slot awaits `PrComplete`, a busy slot
            // awaits `ItemComplete`, an idle loaded slot awaits nothing.
            let (app_id, unit_idx, in_flight) = match self.slots[slot_idx].state {
                SlotState::Reconfiguring { app, unit } => (app, unit, true),
                SlotState::Loaded { app, unit, busy } => (app, unit, busy),
                SlotState::Free => continue,
            };
            self.apps.expect_mut(app_id).unplace_unit(unit_idx);
            if in_flight {
                // Detach the occupant now, free the slot when its stale event
                // drains (see `release_quarantined`).
                let fault = self.fault.as_mut().expect("fault state present");
                fault.slot_gen[slot_idx] = fault.slot_gen[slot_idx].wrapping_add(1);
                fault.slot_quarantined[slot_idx] = true;
                fault.pr_attempts[slot_idx] = 0;
            } else {
                let slot_kind = self.slots[slot_idx].descriptor.kind;
                self.set_slot_state(slot_idx, SlotState::Free);
                self.index_slot_freed(slot_idx, app_id, slot_kind);
                let fault = self.fault.as_mut().expect("fault state present");
                fault.pr_attempts[slot_idx] = 0;
            }
            evicted += 1;
        }
        let repair = {
            let fault = self.fault.as_mut().expect("fault state present");
            fault.board_was_enabled[board] = was_enabled;
            fault.stats.evictions += evicted as u64;
            fault.schedule.board_repair(board)
        };
        self.events.push(now + repair, Event::BoardUp { board });
        self.trace.log(
            now,
            TraceKind::BoardDown,
            None,
            None,
            None,
            TraceDetail::BoardFailed {
                board: board as u32,
                evicted,
                repair,
            },
        );
        self.refresh_utilization();
    }

    /// The fault plane repairs `board`: its slots rejoin the enabled mask (if
    /// the board accepted grants when it failed) and the next failure timer is
    /// armed — but only while the run still has work, so finite workloads
    /// always drain the queue.
    fn handle_board_up(&mut self, board: usize) {
        let restore = {
            let fault = self
                .fault
                .as_mut()
                .expect("board repair without fault state");
            debug_assert!(fault.board_down[board], "repair of a healthy board");
            fault.board_down[board] = false;
            fault.board_timer_armed[board] = false;
            fault.stats.board_repairs += 1;
            fault.board_was_enabled[board]
        };
        self.pass_due = true;
        if restore {
            self.set_board_enabled(board, true);
        }
        self.trace.log(
            self.now,
            TraceKind::BoardUp,
            None,
            None,
            None,
            TraceDetail::BoardRepaired {
                board: board as u32,
            },
        );
        self.refresh_utilization();
        self.arm_board_timers();
    }

    /// Arms one pending failure timer per healthy board, drawing the delay
    /// from the board's MTTF stream.  Called from arrivals and repairs only,
    /// and only while work remains (live applications or future arrivals), so
    /// a finite run's queue drains once its workload does.
    fn arm_board_timers(&mut self) {
        let Some(fault) = self.fault.as_ref() else {
            return;
        };
        if fault.schedule.profile().board_mttf.is_none() {
            return;
        }
        if self.active.is_empty() && self.pending_arrivals.is_empty() {
            return;
        }
        let now = self.now;
        for board in 0..self.config.boards.len() {
            let delay = {
                let fault = self.fault.as_mut().expect("fault state present");
                if fault.board_timer_armed[board] || fault.board_down[board] {
                    continue;
                }
                let Some(delay) = fault.schedule.next_board_failure(board) else {
                    continue;
                };
                fault.board_timer_armed[board] = true;
                delay
            };
            self.events.push(now + delay, Event::BoardDown { board });
        }
    }

    fn handle_item_complete(&mut self, slot_idx: usize) -> AppId {
        let (app_id, unit_idx) = match self.slots[slot_idx].state {
            SlotState::Loaded {
                app,
                unit,
                busy: true,
            } => (app, unit),
            other => panic!("item completion on a slot in state {other:?}"),
        };

        let (unit_finished, app_finished, batch) = {
            let app = self.apps.expect_mut(app_id);
            let unit_finished = app.complete_item(unit_idx);
            (unit_finished, app.is_finished(), app.batch)
        };

        self.trace.log(
            self.now,
            TraceKind::BatchCompleted,
            Some(app_id.0),
            Some(unit_idx as u32),
            Some(self.slots[slot_idx].descriptor.id.0),
            TraceDetail::None,
        );

        if unit_finished {
            let slot_kind = self.slots[slot_idx].descriptor.kind;
            self.set_slot_state(slot_idx, SlotState::Free);
            self.index_slot_freed(slot_idx, app_id, slot_kind);
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
            self.index_slot_loaded_idle(slot_idx);
        }

        if app_finished {
            let app = self.apps.expect_mut(app_id);
            app.state = AppState::Completed;
            app.completion = Some(self.now);
            self.index_app_completed(app_id);
            self.completed.push(app_id);
            self.pass_due = true;
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
        self.refresh_utilization();
        app_id
    }

    fn handle_switch_complete(&mut self, board: usize) {
        self.set_board_enabled(board, true);
        self.active_board = board;
        self.pending_switch = false;
        self.pass_due = true;
        self.trace.log(
            self.now,
            TraceKind::Note,
            None,
            None,
            None,
            TraceDetail::SwitchComplete {
                board: board as u32,
            },
        );
    }

    /// Launches every batch item of `app_id` that is ready: its unit is loaded
    /// in an idle slot, the predecessor unit has produced the next item, and
    /// the batch is not done.
    ///
    /// Only applications whose own units progressed since the last pass can
    /// have become launchable (grants produce `Reconfiguring` slots, releases
    /// remove idle slots, and launches never cross application boundaries), so
    /// [`Self::flush_pass`] sweeps just the touched set —
    /// [`Self::debug_assert_no_launchable`] cross-checks the claim in debug
    /// builds.
    ///
    /// The ready units are found under one borrow of the application: a launch
    /// changes neither its unit's progress nor any other unit's slot, so no
    /// launch makes another ready or unready.  They launch in ascending unit
    /// order, which fixes the order the scheduler core runs them in and the
    /// event queue receives their completions.
    fn launch_sweep_app(&mut self, app_id: AppId) {
        let mut ready = std::mem::take(&mut self.ready_scratch);
        if let Some(app) = self
            .apps
            .get(app_id)
            .filter(|app| app.state == AppState::Running)
        {
            let mut predecessor_done = u32::MAX;
            for (unit_idx, unit) in app.units.iter().enumerate() {
                let has_input = predecessor_done > unit.items_done;
                predecessor_done = unit.items_done;
                let Some(slot_idx) = unit.slot else { continue };
                if has_input
                    && unit.items_done < app.batch
                    && matches!(
                        self.slots[slot_idx].state,
                        SlotState::Loaded { busy: false, .. }
                    )
                {
                    ready.push((unit_idx, slot_idx, unit.next_item_duration()));
                }
            }
        }
        for &(unit_idx, slot_idx, duration) in &ready {
            self.launch(app_id, unit_idx, slot_idx, duration);
        }
        ready.clear();
        self.ready_scratch = ready;
    }

    /// Starts the next batch item of `app_id`'s unit `unit_idx` in its loaded,
    /// idle slot `slot_idx`.
    fn launch(&mut self, app_id: AppId, unit_idx: usize, slot_idx: usize, duration: SimDuration) {
        let board = self.slots[slot_idx].board.0 as usize;
        let cores = &mut self.cores[board];
        let blocked =
            cores.sched.earliest_start(self.now) > self.now + self.config.blocked_threshold;
        let launch_done = cores.sched.run(self.now, self.config.launch_overhead);
        let complete = launch_done + duration;

        if blocked {
            self.blocked_events += 1;
            self.window_blocked += 1;
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
        self.index_slot_busy(slot_idx);
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

    // ------------------------------------------------------------------
    // D_switch and cross-board switching
    // ------------------------------------------------------------------

    fn candidate_queue_updated(&mut self) {
        self.candidate_updates += 1;
        let Some(cfg) = self.config.switching else {
            return;
        };
        if self.switch_loop.is_none() || !self.candidate_updates.is_multiple_of(cfg.period) {
            return;
        }

        let pr_tasks: u64 = self.retired_pr_tasks
            + self
                .apps
                .iter()
                .filter(|a| a.started || a.state == AppState::Completed)
                .map(|a| self.suite[a.app_index].task_count() as u64)
                .sum::<u64>();
        let candidate_apps = self.active.len() as u64;
        let candidate_batch: u64 = self
            .active
            .iter()
            .map(|id| self.apps.expect(*id).batch as u64)
            .sum();
        let inputs = DswitchInputs {
            blocked_tasks: self.window_blocked,
            pr_tasks,
            candidate_apps,
            candidate_batch,
        };
        let value = dswitch_value(inputs);
        self.window_blocked = 0;

        let completed_apps = (self.apps.len() - self.active.len()) as u64 + self.retired_apps;

        let mut triggered = false;
        let target = self
            .switch_loop
            .as_mut()
            .expect("switch loop present")
            .observe(value);
        if let Some(target_layout) = target {
            if !self.pending_switch {
                triggered = self.perform_switch(target_layout, value);
            }
        }

        self.dswitch_trace.push(DswitchSample {
            completed_apps,
            value,
            active_layout: self.active_layout(),
            triggered_switch: triggered,
        });
    }

    fn perform_switch(&mut self, target: LayoutKind, dswitch: f64) -> bool {
        let Some(target_board) = self
            .config
            .boards
            .iter()
            .position(|b| b.layout.kind() == target)
        else {
            return false;
        };
        if target_board == self.active_board {
            return false;
        }

        let migrated_apps = self.active.len() as u32;
        let switching_cfg = self.config.switching.expect("switching configured");
        let mut overhead = migration_overhead(
            migrated_apps,
            switching_cfg.payload_per_app_bytes,
            &self.config.boards[self.active_board].aurora,
        );
        // An Aurora link flap in progress on the source board stalls the
        // migration payload for the flap's remainder.
        let stall = match self.fault.as_mut() {
            Some(fault) => fault.schedule.link_stall(self.active_board, self.now),
            None => SimDuration::ZERO,
        };
        if !stall.is_zero() {
            let fault = self.fault.as_mut().expect("stall implies fault state");
            fault.stats.link_flaps += 1;
            fault.stats.flap_stall += stall;
            overhead += stall;
            self.trace.log(
                self.now,
                TraceKind::LinkFlap,
                None,
                None,
                None,
                TraceDetail::LinkFlapped {
                    link: self.active_board as u32,
                    stall,
                },
            );
        }

        self.set_board_enabled(self.active_board, false);
        self.pending_switch = true;
        self.switches += 1;
        self.events.push(
            self.now + overhead,
            Event::SwitchComplete {
                board: target_board,
            },
        );
        self.migrations.push(MigrationRecord {
            triggered_at: self.now,
            migrated_apps,
            overhead,
            dswitch,
        });
        self.trace.log(
            self.now,
            TraceKind::SwitchTriggered,
            None,
            None,
            None,
            TraceDetail::SwitchTriggered {
                board: target_board as u32,
                migrated_apps,
                overhead,
            },
        );
        self.trace.log(
            self.now,
            TraceKind::AppMigrated,
            None,
            None,
            None,
            TraceDetail::Migrated {
                apps: migrated_apps,
            },
        );
        true
    }

    // ------------------------------------------------------------------
    // Utilization accounting and reporting
    // ------------------------------------------------------------------

    /// Records the current utilization in the time-weighted series, from the
    /// running totals (O(1)).
    fn refresh_utilization(&mut self) {
        let UtilTotals {
            counted,
            cap_lut,
            cap_ff,
            occupied,
            used_lut,
            used_ff,
        } = self.util;
        if counted == 0 {
            return;
        }
        self.occupancy
            .set(self.now, occupied as f64 / counted as f64);
        self.lut_util
            .set(self.now, used_lut as f64 / cap_lut.max(1) as f64);
        self.ff_util
            .set(self.now, used_ff as f64 / cap_ff.max(1) as f64);
    }

    fn build_report(&self, scheduler: &str) -> RunReport {
        // Sized exactly: the store's iterator gives no exact size hint, and
        // sweeps hold many reports at once.
        let mut apps = Vec::with_capacity(self.apps.len());
        apps.extend(self.apps.iter().map(|a| {
            AppRecord {
                id: a.id,
                app_index: a.app_index,
                batch_size: a.batch,
                arrival: a.arrival,
                completion: a
                    .completion
                    .expect("completed application has a completion time"),
                pr_count: a.pr_count,
                used_big_slot: a.used_big,
            }
        }));
        apps.sort_by_key(|a| a.completion);
        let makespan = apps
            .iter()
            .map(|a| a.completion)
            .max()
            .unwrap_or(SimTime::ZERO);

        RunReport {
            scheduler: scheduler.to_string(),
            apps,
            total_pr: self.total_pr,
            blocked_events: self.blocked_events,
            blocked_tasks: self.blocked_tasks,
            switches: self.switches,
            events_processed: self.events_processed,
            makespan,
            mean_slot_occupancy: self.occupancy.time_weighted_mean(self.now),
            mean_lut_utilization: self.lut_util.time_weighted_mean(self.now),
            mean_ff_utilization: self.ff_util.time_weighted_mean(self.now),
            dswitch_trace: self.dswitch_trace.clone(),
            migrations: self.migrations.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::versaslot::VersaSlotPolicy;
    use versaslot_fpga::board::BoardSpec;
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
                        sim.grantable_query(app, kind).iter().collect::<Vec<_>>(),
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
        let bound = SharingSimulator::event_queue_capacity(arrivals.len(), slots, 2);
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

    /// End-to-end on a board wider than one mask word: 160 Little slots span
    /// three 64-bit words (past the 128-bit inline region into the spill
    /// vector), and the run must complete with the incremental indexes agreeing
    /// with a naive recount throughout.
    #[test]
    fn wide_board_with_more_than_64_slots_runs_to_completion() {
        let board = BoardSpec::zcu216_only_little().with_layout(
            versaslot_fpga::slot::SlotLayout::with_counts(
                0,
                160,
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
        let mut saw_high_slot = false;
        while sim.step(&mut policy) {
            steps += 1;
            if steps.is_multiple_of(64) {
                sim.verify_indexes();
            }
            saw_high_slot |= sim.slots[64..].iter().any(|s| !s.is_free());
        }
        sim.verify_indexes();
        let report = sim.build_report("wide-board");
        assert_eq!(report.completed(), 24);
        assert!(
            saw_high_slot,
            "no slot beyond the first mask word was ever occupied"
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
    /// arrival, a PR completion, a unit or application finishing — and not
    /// at the instants that only complete non-final batch items.
    #[test]
    fn a_settled_policy_runs_only_after_its_inputs_change() {
        let (calls, trace) = observe_two_lenets(8, false);
        let mut changed: Vec<SimTime> = trace
            .events()
            .iter()
            .filter(|event| {
                matches!(
                    event.kind,
                    TraceKind::AppArrived
                        | TraceKind::PrCompleted
                        | TraceKind::TaskCompleted
                        | TraceKind::AppCompleted
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
        // The t = 0 instant, six PR completions and six unit completions
        // (the last also completes the application).
        assert_eq!(calls.len(), 13);
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
    #[test]
    fn a_reused_policy_matches_a_fresh_one() {
        let config = SystemConfig::single_board(BoardSpec::zcu216_big_little());
        let first = crowded_arrivals(12);
        let second: Vec<AppArrival> = crowded_arrivals(14).into_iter().rev().take(10).collect();
        let run = |policy: &mut VersaSlotPolicy, arrivals: &[AppArrival]| {
            let mut sim = SharingSimulator::new(config.clone(), BenchmarkApp::suite(), arrivals);
            sim.run(policy)
        };
        let mut reused = VersaSlotPolicy::new();
        run(&mut reused, &first);
        assert!(reused.allocation_state().allocations.is_empty());
        assert_eq!(
            run(&mut reused, &second),
            run(&mut VersaSlotPolicy::new(), &second)
        );
    }

    /// Service mode must stay O(live applications): after thousands of
    /// retirements the application store holds only live applications and the
    /// optimal-slot memo at most one entry per (suite index, batch) pair.
    #[test]
    fn service_mode_keeps_optimal_slot_memo_and_app_table_bounded() {
        use crate::policy::nimblock::NimblockPolicy;
        use versaslot_workload::{ArrivalDriver, ArrivalProcess};

        const BATCH_RANGE: (u32, u32) = (2, 5);
        const RETIRED: usize = 5_000;
        let suite = BenchmarkApp::suite();
        let memo_bound = suite.len() * (BATCH_RANGE.1 - BATCH_RANGE.0 + 1) as usize;
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
            let mut injected = 0u64;
            let mut retired = 0;
            while retired < RETIRED {
                if injected == sim.arrivals_admitted() {
                    sim.inject_arrival(driver.next_arrival());
                    injected += 1;
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
                sim.optimal_memo.len() <= memo_bound,
                "{}: memo holds {} entries, bound {memo_bound}",
                policy.name(),
                sim.optimal_memo.len()
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
            switches += switching.migrations.len();
        }
        assert!(switches >= 2, "only {switches} switches");
    }
}
