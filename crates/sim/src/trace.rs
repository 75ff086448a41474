//! Structured simulation trace.
//!
//! The D_switch metric of the paper (Eq. 1) needs to know how many tasks were
//! *blocked by PR contention* during an observation window, and debugging a
//! scheduler is much easier with a timeline of what happened.  [`Trace`] is a
//! lightweight append-only log of [`TraceEvent`]s that both needs are served by.
//! Recording can be disabled entirely for large benchmark runs.
//!
//! # Allocation behaviour
//!
//! Logging is allocation-free on the hot path:
//!
//! * event details are a typed, `Copy` [`TraceDetail`] enum — structured fields
//!   (batch counts, board ids, migration overheads) that are only rendered to
//!   text on `Display` / serialization, never at log time, and
//! * the per-kind counters are a fixed `[u64; TraceKind::COUNT]` array indexed
//!   by discriminant, not a hash map.
//!
//! A counting-only trace ([`Trace::counting_only`]) therefore never touches the
//! heap, no matter how many events are logged.  Only a *recording* trace stores
//! event bodies, growing its `Vec`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// The category of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceKind {
    /// An application entered the system.
    AppArrived,
    /// An application finished all of its tasks.
    AppCompleted,
    /// A partial reconfiguration request was enqueued on the PCAP.
    PrRequested,
    /// A partial reconfiguration finished.
    PrCompleted,
    /// A batch item execution was launched on a slot.
    BatchLaunched,
    /// A batch item execution completed.
    BatchCompleted,
    /// A task finished its whole batch.
    TaskCompleted,
    /// A task launch or PR was delayed by PR contention or a blocked CPU core.
    TaskBlocked,
    /// A slot was preempted from an application.
    SlotPreempted,
    /// A cross-board switch was triggered.
    SwitchTriggered,
    /// An application was migrated to another board.
    AppMigrated,
    /// Free-form annotation.
    Note,
    /// A partial reconfiguration failed at the PCAP (fault injection).
    PrFailed,
    /// A failed partial reconfiguration was resubmitted with backoff.
    PrRetried,
    /// A whole board failed; its slots went offline and occupants were evicted.
    BoardDown,
    /// A failed board finished repair and its slots came back online.
    BoardUp,
    /// An Aurora link flap stalled a cross-board transfer.
    LinkFlap,
}

impl TraceKind {
    /// Number of trace-event categories (the size of the [`Trace`] counter
    /// array).
    pub(crate) const COUNT: usize = 17;

    /// All categories, in discriminant order.
    #[cfg(test)]
    const ALL: [TraceKind; TraceKind::COUNT] = [
        TraceKind::AppArrived,
        TraceKind::AppCompleted,
        TraceKind::PrRequested,
        TraceKind::PrCompleted,
        TraceKind::BatchLaunched,
        TraceKind::BatchCompleted,
        TraceKind::TaskCompleted,
        TraceKind::TaskBlocked,
        TraceKind::SlotPreempted,
        TraceKind::SwitchTriggered,
        TraceKind::AppMigrated,
        TraceKind::Note,
        TraceKind::PrFailed,
        TraceKind::PrRetried,
        TraceKind::BoardDown,
        TraceKind::BoardUp,
        TraceKind::LinkFlap,
    ];

    /// The category's discriminant, used to index the counter array.
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TraceKind::AppArrived => "app-arrived",
            TraceKind::AppCompleted => "app-completed",
            TraceKind::PrRequested => "pr-requested",
            TraceKind::PrCompleted => "pr-completed",
            TraceKind::BatchLaunched => "batch-launched",
            TraceKind::BatchCompleted => "batch-completed",
            TraceKind::TaskCompleted => "task-completed",
            TraceKind::TaskBlocked => "task-blocked",
            TraceKind::SlotPreempted => "slot-preempted",
            TraceKind::SwitchTriggered => "switch-triggered",
            TraceKind::AppMigrated => "app-migrated",
            TraceKind::Note => "note",
            TraceKind::PrFailed => "pr-failed",
            TraceKind::PrRetried => "pr-retried",
            TraceKind::BoardDown => "board-down",
            TraceKind::BoardUp => "board-up",
            TraceKind::LinkFlap => "link-flap",
        };
        f.write_str(name)
    }
}

/// Typed, `Copy` detail payload of a trace event.
///
/// Carries the structured fields the old free-form `String` detail used to
/// describe; the text form is only produced on [`fmt::Display`] (or via
/// [`TraceEvent::detail_string`]), so logging never formats or allocates.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum TraceDetail {
    /// No extra detail.
    #[default]
    None,
    /// A PR request was issued; `queued` is set when it had to wait behind an
    /// in-flight PR on the board's serial PR path.
    PrRequest {
        /// Whether the request queued behind the PCAP.
        queued: bool,
    },
    /// A task was blocked by PR contention on the serial PR path.
    PrContention,
    /// A launch was delayed because the scheduler core was suspended (e.g. by a
    /// PCAP load in a single-core system).
    SchedulerSuspended,
    /// The arriving application's index into the benchmark suite.
    SuiteApp {
        /// Index of the application's specification in the suite.
        suite_index: u32,
    },
    /// A unit finished its whole batch.
    BatchDone {
        /// Number of items in the batch.
        items: u32,
    },
    /// A cross-board switch was triggered.
    SwitchTriggered {
        /// Index of the board being switched to.
        board: u32,
        /// Number of applications migrated along with the switch.
        migrated_apps: u32,
        /// Migration overhead of the switch.
        overhead: SimDuration,
    },
    /// Applications were migrated to another board.
    Migrated {
        /// Number of migrated applications.
        apps: u32,
    },
    /// A cross-board switch completed and the target board became active.
    SwitchComplete {
        /// Index of the board that became active.
        board: u32,
    },
    /// A partial reconfiguration failed at the PCAP.
    PrFault {
        /// Which load attempt of the in-flight reconfiguration failed (1-based).
        attempt: u32,
    },
    /// A failed partial reconfiguration was resubmitted through the serial PR
    /// path after an exponential backoff.
    PrRetry {
        /// The attempt number being retried (1-based).
        attempt: u32,
        /// How long the retry waited before re-entering the PR queue.
        backoff: SimDuration,
    },
    /// A board failed: its slots went offline and every occupant was evicted.
    BoardFailed {
        /// Index of the failed board.
        board: u32,
        /// Number of slot occupants evicted back to the unplaced set.
        evicted: u32,
        /// Scheduled repair delay (MTTR draw).
        repair: SimDuration,
    },
    /// A failed board finished repair.
    BoardRepaired {
        /// Index of the repaired board.
        board: u32,
    },
    /// An Aurora link flap stalled a transfer in flight.
    LinkFlapped {
        /// Index of the flapping link (board-local).
        link: u32,
        /// Extra latency charged to the in-flight transfer.
        stall: SimDuration,
    },
}

impl TraceDetail {
    /// Returns `true` when there is no detail payload.
    pub(crate) fn is_none(&self) -> bool {
        matches!(self, TraceDetail::None)
            || matches!(self, TraceDetail::PrRequest { queued: false })
    }
}

impl fmt::Display for TraceDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDetail::None | TraceDetail::PrRequest { queued: false } => Ok(()),
            TraceDetail::PrRequest { queued: true } => f.write_str("queued behind PCAP"),
            TraceDetail::PrContention => f.write_str("PR contention"),
            TraceDetail::SchedulerSuspended => f.write_str("scheduler core suspended"),
            TraceDetail::SuiteApp { suite_index } => write!(f, "suite app #{suite_index}"),
            TraceDetail::BatchDone { items } => write!(f, "{items} items"),
            TraceDetail::SwitchTriggered {
                board,
                migrated_apps,
                overhead,
            } => write!(
                f,
                "switch to board {board} ({migrated_apps} apps, {overhead})"
            ),
            TraceDetail::Migrated { apps } => write!(f, "{apps} applications"),
            TraceDetail::SwitchComplete { board } => {
                write!(f, "switch to board {board} complete")
            }
            TraceDetail::PrFault { attempt } => write!(f, "attempt {attempt} failed"),
            TraceDetail::PrRetry { attempt, backoff } => {
                write!(f, "retry {attempt} after {backoff}")
            }
            TraceDetail::BoardFailed {
                board,
                evicted,
                repair,
            } => write!(f, "board {board} down ({evicted} evicted, repair {repair})"),
            TraceDetail::BoardRepaired { board } => write!(f, "board {board} repaired"),
            TraceDetail::LinkFlapped { link, stall } => {
                write!(f, "link {link} flapped (+{stall})")
            }
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the event happened.
    pub time: SimTime,
    /// What kind of event it was.
    pub kind: TraceKind,
    /// Identifier of the application involved, if any.
    pub app: Option<u32>,
    /// Identifier of the task involved, if any.
    pub task: Option<u32>,
    /// Identifier of the slot involved, if any.
    pub slot: Option<u32>,
    /// Structured detail payload (see [`TraceDetail`]).
    pub detail: TraceDetail,
}

impl TraceEvent {
    /// The detail rendered as text — the shim that replaces the old `String`
    /// detail field for human-facing consumers.
    pub fn detail_string(&self) -> String {
        self.detail.to_string()
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.time, self.kind)?;
        if let Some(app) = self.app {
            write!(f, " app={app}")?;
        }
        if let Some(task) = self.task {
            write!(f, " task={task}")?;
        }
        if let Some(slot) = self.slot {
            write!(f, " slot={slot}")?;
        }
        if !self.detail.is_none() {
            write!(f, " — {}", self.detail)?;
        }
        Ok(())
    }
}

/// An append-only log of simulation events with per-kind counters.
///
/// Counters are always maintained (they are cheap and D_switch depends on them);
/// full event bodies are only stored when recording is enabled.  See the
/// [module docs](self) for the allocation guarantees.
///
/// # Example
///
/// ```
/// use versaslot_sim::{SimTime, Trace, TraceDetail, TraceKind};
///
/// let mut trace = Trace::recording();
/// trace.log(
///     SimTime::from_millis(1),
///     TraceKind::PrRequested,
///     Some(0),
///     Some(0),
///     Some(2),
///     TraceDetail::PrRequest { queued: false },
/// );
/// trace.log(
///     SimTime::from_millis(2),
///     TraceKind::TaskBlocked,
///     Some(1),
///     Some(0),
///     None,
///     TraceDetail::PrContention,
/// );
/// assert_eq!(trace.count(TraceKind::TaskBlocked), 1);
/// assert_eq!(trace.events().len(), 2);
/// assert_eq!(trace.events()[1].detail_string(), "PR contention");
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    record_events: bool,
    events: Vec<TraceEvent>,
    counts: [u64; TraceKind::COUNT],
}

impl Trace {
    /// Creates a trace that only maintains counters (no event bodies).  Never
    /// allocates, no matter how many events are logged.
    pub fn counting_only() -> Self {
        Trace {
            record_events: false,
            events: Vec::new(),
            counts: [0; TraceKind::COUNT],
        }
    }

    /// Creates a trace that stores full event bodies in addition to counters.
    pub fn recording() -> Self {
        Trace {
            record_events: true,
            events: Vec::new(),
            counts: [0; TraceKind::COUNT],
        }
    }

    /// Returns `true` if full event bodies are stored.
    pub fn is_recording(&self) -> bool {
        self.record_events
    }

    /// Records an event.
    ///
    /// Bumps the kind's counter (an array write) and, only when recording is
    /// enabled, stores the event body.  `detail` is a `Copy` payload — nothing
    /// is formatted here.  Only the count and the recording test are inlined
    /// into the caller; storing the body is a cold out-of-line call, so a
    /// counting-only trace costs each call site an increment and a branch.
    #[inline]
    pub fn log(
        &mut self,
        time: SimTime,
        kind: TraceKind,
        app: Option<u32>,
        task: Option<u32>,
        slot: Option<u32>,
        detail: TraceDetail,
    ) {
        self.counts[kind.index()] += 1;
        if self.record_events {
            self.record(TraceEvent {
                time,
                kind,
                app,
                task,
                slot,
                detail,
            });
        }
    }

    /// Stores one event body: the out-of-line half of [`Self::log`].
    #[cold]
    #[inline(never)]
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Returns how many events of `kind` were recorded.
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Returns the stored event bodies (empty when counting only).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Returns stored events of a particular kind.
    pub fn events_of(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Total number of events recorded (counted), across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_only_keeps_counters_but_not_bodies() {
        let mut trace = Trace::counting_only();
        assert!(!trace.is_recording());
        for i in 0..5 {
            trace.log(
                SimTime::from_micros(i),
                TraceKind::PrCompleted,
                None,
                None,
                None,
                TraceDetail::None,
            );
        }
        assert_eq!(trace.count(TraceKind::PrCompleted), 5);
        assert_eq!(trace.count(TraceKind::TaskBlocked), 0);
        assert!(trace.events().is_empty());
        assert_eq!(trace.total(), 5);
    }

    #[test]
    fn recording_stores_bodies_in_order() {
        let mut trace = Trace::recording();
        trace.log(
            SimTime::from_millis(1),
            TraceKind::AppArrived,
            Some(3),
            None,
            None,
            TraceDetail::SuiteApp { suite_index: 2 },
        );
        trace.log(
            SimTime::from_millis(2),
            TraceKind::AppCompleted,
            Some(3),
            None,
            None,
            TraceDetail::None,
        );
        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceKind::AppArrived);
        assert_eq!(events[1].kind, TraceKind::AppCompleted);
        assert_eq!(trace.events_of(TraceKind::AppArrived).count(), 1);
    }

    #[test]
    fn display_is_informative() {
        let event = TraceEvent {
            time: SimTime::from_millis(1),
            kind: TraceKind::TaskBlocked,
            app: Some(2),
            task: Some(1),
            slot: Some(4),
            detail: TraceDetail::PrContention,
        };
        let text = event.to_string();
        assert!(text.contains("task-blocked"));
        assert!(text.contains("app=2"));
        assert!(text.contains("slot=4"));
        assert!(text.contains("PR contention"));
    }

    #[test]
    fn kind_indexes_cover_the_counter_array_exactly() {
        for (expected, kind) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), expected);
        }
        assert_eq!(TraceKind::ALL.len(), TraceKind::COUNT);
        // Every kind's counter is reachable.
        let mut trace = Trace::counting_only();
        for kind in TraceKind::ALL {
            trace.log(SimTime::ZERO, kind, None, None, None, TraceDetail::None);
        }
        for kind in TraceKind::ALL {
            assert_eq!(trace.count(kind), 1, "{kind}");
        }
        assert_eq!(trace.total(), TraceKind::COUNT as u64);
    }

    #[test]
    fn every_kind_display_renders_uniquely() {
        // Guards the fixed counter array against a variant added to the enum
        // but forgotten in ALL/COUNT/Display: every kind must render to a
        // distinct, non-empty name, and ALL must cover the array exactly.
        let mut seen = std::collections::BTreeSet::new();
        for kind in TraceKind::ALL {
            let text = kind.to_string();
            assert!(!text.is_empty(), "{kind:?} renders empty");
            assert!(seen.insert(text), "duplicate display name for {kind:?}");
        }
        assert_eq!(seen.len(), TraceKind::COUNT);
        assert_eq!(TraceKind::ALL.len(), TraceKind::COUNT);
    }

    #[test]
    fn fault_details_render_lazily_with_structured_fields() {
        assert_eq!(
            TraceDetail::PrFault { attempt: 2 }.to_string(),
            "attempt 2 failed"
        );
        assert_eq!(
            TraceDetail::PrRetry {
                attempt: 3,
                backoff: SimDuration::from_millis(4),
            }
            .to_string(),
            format!("retry 3 after {}", SimDuration::from_millis(4))
        );
        assert_eq!(
            TraceDetail::BoardFailed {
                board: 1,
                evicted: 5,
                repair: SimDuration::from_secs(10),
            }
            .to_string(),
            format!(
                "board 1 down (5 evicted, repair {})",
                SimDuration::from_secs(10)
            )
        );
        assert_eq!(
            TraceDetail::BoardRepaired { board: 1 }.to_string(),
            "board 1 repaired"
        );
        assert_eq!(
            TraceDetail::LinkFlapped {
                link: 0,
                stall: SimDuration::from_millis(7),
            }
            .to_string(),
            format!("link 0 flapped (+{})", SimDuration::from_millis(7))
        );
    }

    #[test]
    fn details_render_lazily_with_structured_fields() {
        assert_eq!(TraceDetail::None.to_string(), "");
        assert_eq!(TraceDetail::PrRequest { queued: false }.to_string(), "");
        assert_eq!(
            TraceDetail::PrRequest { queued: true }.to_string(),
            "queued behind PCAP"
        );
        assert_eq!(TraceDetail::BatchDone { items: 12 }.to_string(), "12 items");
        assert_eq!(
            TraceDetail::SwitchTriggered {
                board: 1,
                migrated_apps: 7,
                overhead: SimDuration::from_millis(2),
            }
            .to_string(),
            format!(
                "switch to board 1 (7 apps, {})",
                SimDuration::from_millis(2)
            )
        );
        assert_eq!(
            TraceDetail::Migrated { apps: 3 }.to_string(),
            "3 applications"
        );
        assert_eq!(
            TraceDetail::SwitchComplete { board: 0 }.to_string(),
            "switch to board 0 complete"
        );
    }
}
