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
//! launch sweep is *targeted*: applying an event records the application
//! and the units it touched, the flush sweeps only those, and debug builds
//! cross-check with `debug_assert_no_launchable` that nothing else could
//! have launched.
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
//! loaded), which flips neither bit.  A policy sees free slots, enabled
//! slots and per-application occupancy counters, and a PR completion
//! changes none of them: its only effect a policy can observe is a new
//! loaded, idle slot, and policies read loaded and reconfiguring slots only
//! through `SharingSimulator::preemption_victim` (see the `policy` module
//! docs), which every flush that runs no pass evaluates for a preempting
//! policy.
//!
//! The flush calls [`Policy::schedule`] only when the pass is due and some
//! free slot is grantable to an active application (or any slot is free and
//! no application is active, so policies prune finished applications at the
//! end of a run), or when the policy preempts ([`Policy::preempts`]) and
//! `SharingSimulator::preemption_victim` finds a slot the shared quantum
//! preemption would release.  It clears the flag just before the call.  The
//! launch sweep runs at every instant regardless.
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
//! The victim check only hands a due preemption to a policy that acts on
//! it.  For a policy that never preempts (FCFS) a victim would open a pass
//! that can grant nothing new: without a grantable slot it cannot grant,
//! and with one the pass is settled.  So FCFS skips both the victim scan
//! and that pass.
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
//! still runs and must leave the flag clear (a non-preempting policy's pass
//! included, whatever the victim check would have said); a pass skipped for
//! want of a grantable slot asserts that none is grantable and, for a
//! preempting policy, that no preemption victim exists; and VersaSlot
//! asserts that any change of its allocation state left the next pass due.
//! The `behaviour_lock` test pins the outputs of every scheduler and run
//! mode to digests recorded from the always-pass engine.
//!
//! # O(1) per-event bookkeeping
//!
//! Nothing an event handler or a flush does walks every slot or every live
//! application; state the engine already knows is kept incrementally:
//!
//! * **Utilization.** The integers behind the occupancy, LUT and FF ratios
//!   (counted slots, their capacity, occupied slots, the resources of loaded
//!   units) change only at slot-state transitions and board enable/disable,
//!   all through one funnel, `update_slot`.  When a slot's share of them
//!   changes, `update_slot` sets the new totals at `now` in a three-lane
//!   [`TimeWeightedRatios`] (occupancy, LUT, FF as integer
//!   numerator/denominator pairs): a few `u128` multiply-adds, and a
//!   division only for a lane whose denominator moved, which happens only
//!   when a board is enabled or disabled.  So the integral is exact between
//!   changes, covers every change wherever it happens (a cross-board switch
//!   included), and a non-final item completion, which leaves the totals
//!   as they were, does no utilization work at all.
//! * **Starvation gate.** `idle_demand` counts the stored applications that
//!   have unplaced units and hold no slot.  Only such an application can
//!   starve, so while the counter is 0 a flush asks for no preemption
//!   victim, and `SharingSimulator::preemption_victim` returns at once
//!   (debug builds then run the ungated scan and assert it finds no
//!   victim).  While it is not 0, an inline pre-check still skips the call
//!   when `loaded_idle & ripe & Little` is empty, since the victim comes
//!   from that set (debug builds again assert the ungated scan agrees).
//!   One before/after helper (`track_idle_demand`) moves the counter
//!   wherever an application's unplaced units or occupied slots change:
//!   placing and unplacing a unit (grant, release, PR abandonment, board
//!   eviction), rebuilding its units, the slot-occupancy counters
//!   (`index_slot_granted`, `index_slot_freed`) and admission.
//! * **Optimal slot counts.** `AppRuntime::optimal_slots` serves each
//!   application's ILP-optimal `(O_B, O_L)`, set at admission from the
//!   suite application's `crate::ilp::SlotCurve`.  A curve is built at the
//!   first admission of its suite application (never at construction, so a
//!   run pays only for the applications it meets) and serves every later
//!   admission at any batch size without a partition search; the table
//!   holds at most one curve per suite application however long a service
//!   run lasts.
//! * **Retirement.** [`SharingSimulator::retire_completed`] folds the
//!   applications recorded as they completed and returns at once when none
//!   did.
//! * **Launch sweep.** A completion of unit `u` changes the readiness inputs
//!   of units `u` (its slot) and `u + 1` (its predecessor's progress) only.
//!   The touched list keeps each application once, beside its *dirty unit
//!   range*, widened to `u..=u + 1` by every completion of one of its units
//!   at the instant.  The flush scans that range in ascending unit order and
//!   launches each ready unit as it reaches it (a launch makes no other unit
//!   ready or unready), so no unit outside a dirty range is ever scanned and
//!   no ready list is kept; completion is read from the application's
//!   unfinished-units counter.
//! * **Preemption candidates.** The `ripe` slot mask holds the occupied
//!   slots whose unit has completed at least `PREEMPTION_QUANTUM` items
//!   since it was loaded: an item completion sets the bit when the unit
//!   crosses the quantum, and freeing the slot clears it.
//!   `SharingSimulator::preemption_victim` walks
//!   `loaded_idle & ripe & Little` instead of every loaded-idle Little
//!   slot, and reads each active application from the store once in its
//!   starving scan.
//!
//! `SharingSimulator::verify_indexes` (debug builds, after every event)
//! recounts the utilization totals with the full slot walk and the
//! idle-demand counter from the application store, checks that the
//! ripe mask covers every loaded slot past the quantum and holds only
//! occupied slots, that the touched list is empty once the instant is
//! flushed, the completed list against the application store and each live
//! application's `(O_B, O_L)` against its curve; each admission
//! debug-checks the curve's answer against a fresh ILP solve.  Unit tests
//! drive board outages (eviction, quarantine, disable/enable) and
//! cross-board switches through that recount, and run VersaSlot and
//! Nimblock in service mode past 5,000 retirements to bound the curve table
//! and the store.
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
//! completion, switch trigger/completion), and the `ripe` mask at item
//! completions and slot releases; every policy-facing query
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
//! * the [`EventQueue`] is one sorted run, pre-sized at construction with
//!   `SharingSimulator::event_queue_capacity` (arrivals + slots + boards,
//!   and boards again with the fault plane on: the tight bound on
//!   concurrently pending events), so it never grows —
//!   [`SharingSimulator::step`] debug-asserts
//!   [`SharingSimulator::event_queue_grow_events`] stays `0`.  A pop is
//!   `Vec::pop`, and a push appends the new entry and moves it back, in one
//!   pass, past the pending events due at or before it, which here are at
//!   most one completion per slot, one timer per board and the arrivals due
//!   sooner;
//!   the arrivals of a finite run are bulk-loaded with one stable sort, so
//!   tied arrivals are admitted in input order;
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
//! That instant runs its no-op checks inline, without calls: the completion
//! acceptance (`accept_completion` is one `Option` test while the fault
//! plane is off), the pass gate (`any_slot_grantable` over always-inlined
//! mask words), the victim pre-check (`loaded_idle & ripe & Little` must be
//! non-empty before `preemption_victim` is called), the trace count
//! ([`Trace::log`] inlines only the counter bump) and the service loop's
//! fold ([`SharingSimulator::retire_completed`] returns inline when nothing
//! completed).  Every rare path runs out of line: arrival admission, PR
//! failure, board failure and repair, switch completion, the D_switch
//! update, the stale-completion release, retiring and recording a trace
//! body are `#[inline(never)]` or `#[cold]`.  A rare handler must not be
//! inlined into [`SharingSimulator::step`]: its code would sit between the
//! common path's instructions and spread them over more cache lines, and
//! its locals would raise the frame and register pressure of every event,
//! for work that runs on a small share of events.  `step` shrank from
//! 12.0 KB to 5.3 KB of x86_64 code when the handlers moved out of line.

pub mod app;
pub mod mask;
pub mod slot;

use std::cmp::Reverse;
#[cfg(any(test, debug_assertions))]
use std::collections::BTreeMap;

use versaslot_fpga::bitstream::BitstreamKind;
use versaslot_fpga::board::{BoardId, BoardSpec};
use versaslot_fpga::cpu::CoreAssignment;
use versaslot_fpga::interconnect::DmaModel;
use versaslot_fpga::pcap::{SerialServer, ServiceWindow};
use versaslot_fpga::resources::ResourceVector;
use versaslot_fpga::slot::{LayoutKind, SlotKind};
use versaslot_sim::fault::{FaultSchedule, FaultStats};
use versaslot_sim::{
    EventQueue, SimDuration, SimTime, TimeWeightedRatios, Trace, TraceDetail, TraceKind,
};
use versaslot_workload::{AppArrival, AppId, ApplicationSpec};

use crate::allocation::AppAllocInfo;
use crate::config::SystemConfig;
use crate::dswitch::{dswitch_value, DswitchInputs, DswitchSample, SwitchLoop};
use crate::ilp::{optimal_big_slots, optimal_little_slots, SlotCurve};
use crate::metrics::{AppRecord, RunReport};
use crate::migration::{migration_overhead, MigrationRecord};
use crate::policy::{Policy, PREEMPTION_QUANTUM};

use app::AppStore;
use mask::MaskQuery;

pub use app::{AppRuntime, AppState, ExecMode, UnitRuntime};
pub use mask::SlotMask;
pub use slot::{ExecUnit, SlotRuntime, SlotState};

/// Livelock bound of a finite workload's [`SharingSimulator::run`] (a run of
/// the paper's largest workload needs well under a million events).  Service
/// and fleet runs step past it: their stop condition bounds them.
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

/// The scheduler and PR-server cores of one board, each a serial server: a
/// PCAP load suspends the issuing core, and a launch runs on the scheduler
/// core behind whatever occupies it.
#[derive(Debug, Clone, Copy)]
struct BoardCores {
    assignment: CoreAssignment,
    sched: SerialServer,
    pr: SerialServer,
    /// The board's PR cost per slot kind (indexed by [`kind_bit`]).
    pr_cost: [PrCost; 2],
}

/// What one partial reconfiguration of a slot kind costs on one board.  Both
/// durations are fixed by the board's bitstream size, SD card and PCAP, so
/// they are computed once at construction, not per grant.
#[derive(Debug, Clone, Copy)]
struct PrCost {
    /// The PR path's service time: the SD read followed by the PCAP load.
    path: SimDuration,
    /// The PCAP load alone, which suspends the issuing core.
    pcap_load: SimDuration,
}

impl PrCost {
    fn of(board: &BoardSpec, kind: SlotKind) -> Self {
        let bitstream_kind = match kind {
            SlotKind::Big => BitstreamKind::BigPartial,
            SlotKind::Little => BitstreamKind::LittlePartial,
        };
        let size = board.bitstream_sizes.size_of(bitstream_kind);
        let pcap_load = board.pcap.load_duration(size);
        PrCost {
            path: board.sd_card.read_duration(size) + pcap_load,
            pcap_load,
        }
    }
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
    /// Occupied slots whose unit has completed at least
    /// [`PREEMPTION_QUANTUM`] items since it was loaded: set by item
    /// completions, cleared when the slot is freed.
    ripe: SlotMask,
    /// Static: slots of each [`SlotKind`] (indexed by [`kind_bit`]).
    kind: [SlotMask; 2],
    /// Static: slots of each board.
    board: Vec<SlotMask>,
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

/// The ILP-optimal `(O_B, O_L)` slot counts of `spec` at `batch` items.
fn solve_optimal_slots(spec: &ApplicationSpec, batch: u32) -> (u32, u32) {
    (optimal_big_slots(spec), optimal_little_slots(spec, batch))
}

/// Integer totals behind the utilization integrator.  A slot is *counted*
/// while it is enabled or occupied; an occupied slot adds to `occupied`, and a
/// loaded one adds its occupant's resources to `used_*`.  The simulator keeps
/// one running total, updated at every slot-state and board-enable transition
/// ([`SharingSimulator::set_slot_state`], [`SharingSimulator::set_board_enabled`],
/// both through [`SharingSimulator::update_slot`]); a single slot's share is
/// the same struct.
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

    /// The occupancy, LUT and FF ratios as `(numerator, denominator)` lanes
    /// of the utilization integrator.
    fn lanes(&self) -> [(u64, u64); 3] {
        [
            (u64::from(self.occupied), u64::from(self.counted)),
            (self.used_lut, self.cap_lut),
            (self.used_ff, self.cap_ff),
        ]
    }
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
    /// Arrivals scheduled but not yet admitted, sorted by *descending*
    /// identifier: arrivals are usually admitted in identifier order, so an
    /// admission removes the last entry.
    pending_arrivals: Vec<AppArrival>,
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
    /// Occupancy, LUT and FF utilization over time, one lane each, set by
    /// [`Self::update_slot`] whenever `util` changes.
    utilization: TimeWeightedRatios<3>,
    trace: Trace,

    switch_loop: Option<SwitchLoop>,
    dswitch_trace: Vec<DswitchSample>,
    migrations: Vec<MigrationRecord>,

    /// Fault-injection state; `None` disables the fault plane entirely.
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
    /// injected arrivals (the service runner keeps exactly one in flight), so
    /// the allocation-free spine invariant holds in service mode too.
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
        let mut index = SlotIndex {
            free: SlotMask::empty(total_slots),
            enabled: SlotMask::empty(total_slots),
            loaded_idle: SlotMask::empty(total_slots),
            ripe: SlotMask::empty(total_slots),
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
                sched: SerialServer::new(),
                pr: SerialServer::new(),
                pr_cost: [
                    PrCost::of(board, SlotKind::Big),
                    PrCost::of(board, SlotKind::Little),
                ],
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

        let mut events = EventQueue::with_capacity(Self::event_queue_capacity(
            &config,
            arrival_capacity,
            slots.len(),
        ));
        // Reversed first: identifiers usually ascend, so the sort finds its
        // input already in order.
        let mut pending_arrivals: Vec<AppArrival> = arrivals.iter().rev().copied().collect();
        pending_arrivals.sort_unstable_by_key(|arrival| Reverse(arrival.id));
        if let Some(pair) = pending_arrivals
            .windows(2)
            .find(|pair| pair[0].id == pair[1].id)
        {
            panic!("duplicate application id {}", pair[0].id);
        }
        // One stable sort: tied arrivals are admitted in input order.
        events.extend(
            arrivals
                .iter()
                .map(|arrival| (arrival.arrival, Event::Arrival(arrival.id))),
        );

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
            idle_demand: 0,
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
            utilization: TimeWeightedRatios::new(SimTime::ZERO, [(0, 0); 3]),
            trace,
            switch_loop,
            dswitch_trace: Vec::new(),
            migrations: Vec::new(),
            fault,
            slot_curves: Vec::new(),
            completed: Vec::new(),
            touched_scratch: Vec::new(),
            pass_due: true,
            changes_since_pass: PassChanges::ALL,
            pass_changes: PassChanges::ALL,
            passes: 0,
        };
        sim.util = sim.recount_utilization();
        sim.utilization = TimeWeightedRatios::new(SimTime::ZERO, sim.util.lanes());
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
        let position = self.pending_position(arrival.id);
        assert!(
            position.is_err() && self.apps.get(arrival.id).is_none(),
            "duplicate application id {}",
            arrival.id
        );
        self.pending_arrivals.insert(position.unwrap_err(), arrival);
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
    fn grantable_query(&self, runtime: &AppRuntime, kind: Option<SlotKind>) -> MaskQuery<'_> {
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
        self.grantable_query(self.apps.expect(app), kind).first()
    }

    /// Whether any slot is grantable to `app`, via a word scan.
    pub(crate) fn has_grantable_slot(&self, app: AppId, kind: Option<SlotKind>) -> bool {
        self.grantable_query(self.apps.expect(app), kind).any()
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
        let little = &self.index.kind[kind_bit(SlotKind::Little)];
        if MaskQuery::grantable(&self.index.free, &self.index.enabled, None, Some(little)).any() {
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
                && !self.grantable_query(runtime, Some(SlotKind::Little)).any()
        });
        starving.then_some(slot)
    }

    /// The slots a preemption victim is chosen from, `loaded_idle & ripe &
    /// Little`.
    #[inline]
    fn victim_candidates(&self) -> MaskQuery<'_> {
        MaskQuery::grantable(
            &self.index.loaded_idle,
            &self.index.ripe,
            None,
            Some(&self.index.kind[kind_bit(SlotKind::Little)]),
        )
    }

    /// The victim pre-check of the pass gate: whether any slot is in
    /// `loaded_idle & ripe & Little`.  Without one there is no victim, so the
    /// gate skips the call to [`Self::preemption_victim`]; debug builds then
    /// run the ungated scan whenever an application waits slotless and
    /// assert it finds no victim.
    #[inline]
    fn has_victim_candidate(&self) -> bool {
        let any = self.victim_candidates().any();
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
        MaskQuery::and(&self.index.free, &self.index.kind[kind_bit(kind)]).any()
    }

    /// Whether an arrival was admitted or an application completed before
    /// the running pass began, since the pass before it (see [`PassChanges`]).
    pub(crate) fn pass_changes(&self) -> PassChanges {
        self.pass_changes
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

    /// Applies `change` to application `id`, keeping `idle_demand` in step
    /// (see [`track_idle_demand`]).
    fn update_app<R>(&mut self, id: AppId, change: impl FnOnce(&mut AppRuntime) -> R) -> R {
        track_idle_demand(&mut self.idle_demand, self.apps.expect_mut(id), change)
    }

    fn index_slot_granted(&mut self, slot_idx: usize, app_id: AppId, slot_kind: SlotKind) {
        self.index.free.remove(slot_idx);
        self.update_app(app_id, |app| match slot_kind {
            SlotKind::Big => app.in_use_big += 1,
            SlotKind::Little => app.in_use_little += 1,
        });
    }

    fn index_slot_freed(&mut self, slot_idx: usize, app_id: AppId, slot_kind: SlotKind) {
        self.index.free.insert(slot_idx);
        self.index.loaded_idle.remove(slot_idx);
        self.index.ripe.remove(slot_idx);
        self.update_app(app_id, |app| match slot_kind {
            SlotKind::Big => app.in_use_big -= 1,
            SlotKind::Little => app.in_use_little -= 1,
        });
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
    /// totals from the old slot to the new one.  Every slot-state and
    /// enabled-flag change passes here, so this is the one place the
    /// utilization integrator is fed: when the slot's share changed, the new
    /// totals are set at `now`.  A change that leaves the share as it was
    /// (disabling an occupied slot) does no utilization work, and a
    /// non-final item completion flips `busy` in place and never comes here.
    ///
    /// It is also where a slot change marks the next scheduling pass due:
    /// one that flips the slot's free or enabled bit does.  A PR completion
    /// (reconfiguring to loaded) flips neither; see the module docs.
    fn update_slot(&mut self, slot_idx: usize, change: impl FnOnce(&mut SlotRuntime)) {
        let bits = |slot: &SlotRuntime| (slot.is_free(), slot.enabled);
        let before_bits = bits(&self.slots[slot_idx]);
        let before = self.slot_utilization(slot_idx);
        change(&mut self.slots[slot_idx]);
        self.pass_due |= bits(&self.slots[slot_idx]) != before_bits;
        let after = self.slot_utilization(slot_idx);
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
    /// application store, panicking on any divergence: the slot masks (the
    /// ripe mask must cover every loaded slot whose unit is past the
    /// preemption quantum and hold only occupied slots), the touched list
    /// (empty once the instant is flushed), occupancy counters, each
    /// application's remaining work, unfinished and unplaced units (by a scan
    /// of its unit vector), the store's placement
    /// and count, the active set, the utilization totals (by the full slot
    /// walk), the completed list, and each live application's `(O_B, O_L)`
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
        assert_eq!(
            self.util,
            self.recount_utilization(),
            "utilization totals diverged"
        );
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

    /// Issues one partial reconfiguration of `slot_idx` at `at`, modelled as
    /// the paper describes it: the PR server reads the slot kind's
    /// pre-generated bitstream from the SD card into memory and then pushes it
    /// through the PCAP.  The board's PR path (SD read followed by the PCAP
    /// load) serves one request at a time; concurrent requests queue behind it
    /// (PR contention).  While the PCAP loads the bitstream it suspends the
    /// issuing CPU: in single-core systems that is the scheduling core, so
    /// batch launches stall for the load duration; in dual-core systems the
    /// PR-server core absorbs it.  Returns the request's window on the PR path.
    /// Both durations come from the board's [`PrCost`] for the slot's kind.
    fn issue_pr(&mut self, slot_idx: usize, at: SimTime) -> ServiceWindow {
        let slot = &self.slots[slot_idx];
        let board = slot.board.0 as usize;
        let cores = &mut self.cores[board];
        let cost = cores.pr_cost[kind_bit(slot.descriptor.kind)];
        let window = self.pr_paths[board].submit(at, cost.path);
        let issuing_core = match cores.assignment {
            CoreAssignment::SingleCore => &mut cores.sched,
            CoreAssignment::DualCore => &mut cores.pr,
        };
        issuing_core.submit(at, cost.pcap_load);
        window
    }

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

        let dma = &self.config.boards[slot_board].dma;

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
                track_idle_demand(&mut self.idle_demand, app, |app| {
                    app.rebuild_units(spec, target_mode, largest_item_dma(dma, spec));
                });
            }
            match app.next_unit_to_place() {
                Some(idx) => idx,
                None => return false,
            }
        };

        let window = self.issue_pr(slot_idx, now);
        let queued = window.queueing_delay(now) > self.config.blocked_threshold;
        let finish = window.finish;

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
            track_idle_demand(&mut self.idle_demand, app, |app| {
                app.place_unit(unit_idx, slot_idx);
            });
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
        self.update_app(app_id, |app| app.unplace_unit(unit_idx));
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
    /// The scheduling pass and launch sweep run once per simulation *instant*:
    /// they are deferred while further events share the current timestamp.
    /// The pass is skipped when it is settled — no policy input changed since
    /// the last pass, or no slot is grantable — and no preemption is due (see
    /// `Self::preemption_victim` and the module docs).  Whether a pass is
    /// due is simulator state, so every call must pass the same policy.
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
        self.apply_event(event);
        self.events_processed += 1;
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
        while self.step(policy) {
            assert!(
                self.events_processed < MAX_EVENTS,
                "simulation exceeded {MAX_EVENTS} events — livelock in policy `{}`?",
                policy.name()
            );
        }
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
    ///
    /// A completion of unit `u` changes the readiness inputs of `u` (its
    /// slot) and `u + 1` (its predecessor's progress) only, so the touched
    /// entry's dirty range widens to cover `u..=u + 1`.
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
        if let Some((app, unit)) = touched {
            match self.touched_scratch.iter_mut().find(|(id, ..)| *id == app) {
                Some((_, lo, hi)) => {
                    *lo = (*lo).min(unit);
                    *hi = (*hi).max(unit + 1);
                }
                None => self.touched_scratch.push((app, unit, unit + 1)),
            }
        }
    }

    /// One scheduling pass of `policy` followed by a launch sweep over the
    /// dirty unit range of every application touched since the previous
    /// pass.  Runs once per simulation instant.
    ///
    /// The pass runs only when it is due and some slot is grantable, or when
    /// the policy preempts ([`Policy::preempts`]) and
    /// [`Self::preemption_victim`] finds a slot the shared preemption would
    /// release; the due flag is cleared just before the call.  A pass is due
    /// after any policy input changed (a slot change, an admission, a
    /// completion, a board failure, repair or switch, or
    /// [`Self::note_policy_state_changed`]), so a pass that leaves the flag
    /// clear is a fixed point and the next one could change nothing (see the
    /// module docs).  The launch sweep always runs.
    fn flush_pass(&mut self, policy: &mut dyn Policy) {
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
        let touched = std::mem::take(&mut self.touched_scratch);
        for &(app_id, lo, hi) in &touched {
            self.launch_sweep_app(app_id, lo, hi);
        }
        self.touched_scratch = touched;
        self.touched_scratch.clear();
        #[cfg(debug_assertions)]
        self.debug_assert_no_launchable();
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
    /// common case — every slot occupied — costs one mask-word scan.
    #[inline]
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

    /// Where `id` sits in `pending_arrivals` (`Ok`), or where it would be
    /// inserted (`Err`).
    fn pending_position(&self, id: AppId) -> Result<usize, usize> {
        self.pending_arrivals
            .binary_search_by(|pending| id.cmp(&pending.id))
    }

    #[inline(never)]
    fn handle_arrival(&mut self, id: AppId) {
        let at = self
            .pending_position(id)
            .expect("admitted arrival was pending");
        let arrival = self.pending_arrivals.remove(at);
        let spec = &self.suite[arrival.app_index];
        let dma_per_item = largest_item_dma(&self.config.boards[self.active_board].dma, spec);
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
        if self.slot_curves.is_empty() {
            self.slot_curves.resize(self.suite.len(), None);
        }
        let curve = self.slot_curves[arrival.app_index].get_or_insert_with(|| SlotCurve::of(spec));
        let optimal = (
            optimal_big_slots(spec),
            curve.optimal_little_slots(arrival.batch_size),
        );
        debug_assert_eq!(
            optimal,
            solve_optimal_slots(spec, arrival.batch_size),
            "the slot curve diverged from a fresh ILP solve"
        );
        self.idle_demand += u32::from(app.has_idle_demand());
        self.apps.insert(app, optimal);
        self.index_app_arrived(id);
        self.pass_due = true;
        self.changes_since_pass.admitted = true;
        self.arrivals_admitted += 1;
        self.candidate_queue_updated();
        self.arm_board_timers();
    }

    /// Whether a completion event for `slot` is still current.  A fault
    /// eviction bumps the slot's generation, so a completion pushed for the
    /// evicted occupant is dropped here (counted, never a panic) instead of
    /// hitting the state-machine asserts below.  Without a fault plane every
    /// completion is current, and the check is one inline `Option` test.
    #[inline]
    fn accept_completion(&mut self, slot: usize, gen: u32) -> bool {
        let Some(fault) = self.fault.as_ref() else {
            return true;
        };
        if fault.slot_gen[slot] == gen {
            return true;
        }
        self.release_quarantined(slot);
        false
    }

    /// Consumes the stale completion of a slot evicted by a board failure and
    /// returns the slot to the free pool.  The release is deferred to this
    /// point (rather than eviction time) so each slot keeps at most one event
    /// in flight — the bound the pre-sized queue reserves.
    #[cold]
    #[inline(never)]
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
    }

    fn handle_pr_complete(&mut self, slot_idx: usize) -> (AppId, usize) {
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
        (app, unit)
    }

    /// A PCAP bitstream load failed.  While retries remain the same bitstream
    /// is re-driven through the board's serial PR path after a capped
    /// exponential backoff (occupying the issuing core again, exactly like a
    /// fresh load); once retries are exhausted the placement is abandoned and
    /// the unit returns to the unplaced set for the policy to re-place.
    #[inline(never)]
    fn handle_pr_failed(
        &mut self,
        slot_idx: usize,
        app_id: AppId,
        unit_idx: usize,
    ) -> (AppId, usize) {
        let now = self.now;
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
            let window = self.issue_pr(slot_idx, now + backoff);
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
            self.update_app(app_id, |app| app.unplace_unit(unit_idx));
        }
        (app_id, unit_idx)
    }

    /// The fault plane takes `board` offline: every occupant (reconfiguring or
    /// loaded) is evicted back to the unplaced set with its in-flight
    /// completion cancelled via the slot generation, the board's slots leave
    /// the enabled mask, and a repair (`BoardUp`) is scheduled from the MTTR
    /// stream.
    #[inline(never)]
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
            self.update_app(app_id, |app| app.unplace_unit(unit_idx));
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
    }

    /// The fault plane repairs `board`: its slots rejoin the enabled mask (if
    /// the board accepted grants when it failed) and the next failure timer is
    /// armed — but only while the run still has work, so finite workloads
    /// always drain the queue.
    #[inline(never)]
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

    fn handle_item_complete(&mut self, slot_idx: usize) -> (AppId, usize) {
        let (app_id, unit_idx) = match self.slots[slot_idx].state {
            SlotState::Loaded {
                app,
                unit,
                busy: true,
            } => (app, unit),
            other => panic!("item completion on a slot in state {other:?}"),
        };

        let (unit_finished, app_finished, batch, ripe) = {
            let app = self.apps.expect_mut(app_id);
            let unit_finished = app.complete_item(unit_idx);
            let ripe = app.units[unit_idx].items_since_load >= PREEMPTION_QUANTUM;
            (unit_finished, app.is_finished(), app.batch, ripe)
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
            if ripe {
                self.index.ripe.insert(slot_idx);
            }
        }

        if app_finished {
            let app = self.apps.expect_mut(app_id);
            app.state = AppState::Completed;
            app.completion = Some(self.now);
            self.index_app_completed(app_id);
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

    #[inline(never)]
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
    /// Each ready unit launches as soon as the scan reaches it: a launch
    /// changes neither its unit's progress nor any other unit's slot, so no
    /// launch makes another unit ready or unready, and no ready list is
    /// needed.  Units launch in ascending order, which fixes the order the
    /// scheduler core runs them in and the event queue receives their
    /// completions.
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
        for unit_idx in lo..end {
            let unit = &self.apps.expect(app_id).units[unit_idx];
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
                let duration = unit.next_item_duration();
                self.launch(app_id, unit_idx, slot_idx, duration);
            }
        }
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

    #[inline(never)]
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
    // Reporting
    // ------------------------------------------------------------------

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
        let [mean_slot_occupancy, mean_lut_utilization, mean_ff_utilization] =
            self.utilization.time_weighted_mean(self.now);

        RunReport {
            scheduler: scheduler.to_string(),
            apps,
            total_pr: self.total_pr,
            blocked_events: self.blocked_events,
            blocked_tasks: self.blocked_tasks,
            switches: self.switches,
            events_processed: self.events_processed,
            makespan,
            mean_slot_occupancy,
            mean_lut_utilization,
            mean_ff_utilization,
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
    /// arrival, a unit or application finishing — and not at the instants
    /// that only complete PRs or non-final batch items.
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
                sim.apply_event(event);
                if sim.events.peek_time() == Some(time) {
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
                sim.flush_pass(policy.as_mut());
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
                switches += sim.switches;
                let total = sim.now.as_micros() as f64;
                let report = sim.build_report("exact");
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
