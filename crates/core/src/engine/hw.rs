//! The hardware plane: each board's cores and PR cost (the PR mechanics are
//! [`BoardCores::issue_pr`]'s), and the slot masks.
//!
//! # Slot masks
//!
//! [`SlotIndex`] keeps the run's slot sets, one `u64` [`SlotMask`] each (see
//! the `mask` module), moved incrementally at every slot transition, so
//! every policy-facing query is one bit expression over them, read with a
//! popcount or a trailing-zeros scan.  `SharingSimulator::verify_indexes`
//! recomputes them from the slot runtimes after every event in debug builds.

use versaslot_fpga::bitstream::BitstreamKind;
use versaslot_fpga::board::BoardSpec;
use versaslot_fpga::cpu::CoreAssignment;
use versaslot_fpga::pcap::{SerialServer, ServiceWindow};
use versaslot_fpga::slot::SlotKind;
use versaslot_sim::{SimDuration, SimTime};

use super::mask::SlotMask;

/// The scheduler and PR-server cores of one board, each a serial server: a
/// PCAP load suspends the issuing core, and a launch runs on the scheduler
/// core behind whatever occupies it.
#[derive(Debug, Clone, Copy)]
pub(super) struct BoardCores {
    assignment: CoreAssignment,
    pub(super) sched: SerialServer,
    pr: SerialServer,
    /// The board's PR cost per slot kind (indexed by [`kind_bit`]).
    pr_cost: [PrCost; 2],
}

impl BoardCores {
    /// Idle cores of `board`, with its PR cost per slot kind.
    pub(super) fn new(board: &BoardSpec) -> Self {
        BoardCores {
            assignment: board.cores,
            sched: SerialServer::new(),
            pr: SerialServer::new(),
            pr_cost: [
                PrCost::of(board, SlotKind::Big),
                PrCost::of(board, SlotKind::Little),
            ],
        }
    }

    /// Issues one partial reconfiguration of a `kind` slot at `at`, modelled
    /// as the paper describes it: the PR server reads the slot kind's
    /// pre-generated bitstream from the SD card into memory and then pushes
    /// it through the PCAP.  The board's PR path (`pr_path`: SD read followed
    /// by the PCAP load) serves one request at a time; concurrent requests
    /// queue behind it (PR contention).  While the PCAP loads the bitstream
    /// it suspends the issuing CPU: in single-core systems that is the
    /// scheduling core, so batch launches stall for the load duration; in
    /// dual-core systems the PR-server core absorbs it.  Returns the
    /// request's window on the PR path.  Both durations come from the
    /// board's [`PrCost`] for the slot's kind.
    pub(super) fn issue_pr(
        &mut self,
        pr_path: &mut SerialServer,
        kind: SlotKind,
        at: SimTime,
    ) -> ServiceWindow {
        let cost = self.pr_cost[kind_bit(kind)];
        let window = pr_path.submit(at, cost.path);
        let issuing_core = match self.assignment {
            CoreAssignment::SingleCore => &mut self.sched,
            CoreAssignment::DualCore => &mut self.pr,
        };
        issuing_core.submit(at, cost.pcap_load);
        window
    }
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
pub(super) fn kind_bit(kind: SlotKind) -> usize {
    match kind {
        SlotKind::Big => 0,
        SlotKind::Little => 1,
    }
}

/// Incrementally maintained slot bitmasks (bit *i* ↔ slot index *i*), each
/// one word: a run has at most [`MAX_SLOTS`](super::MAX_SLOTS) slots.
#[derive(Debug, Clone)]
pub(super) struct SlotIndex {
    /// Slots in [`SlotState::Free`](super::SlotState::Free).
    pub(super) free: SlotMask,
    /// Slots accepting new grants.
    pub(super) enabled: SlotMask,
    /// Slots in [`SlotState::Loaded`](super::SlotState::Loaded) with
    /// `busy == false`.
    pub(super) loaded_idle: SlotMask,
    /// Occupied slots whose unit has completed at least
    /// [`PREEMPTION_QUANTUM`](crate::policy::PREEMPTION_QUANTUM) items since
    /// it was loaded: set by item completions, cleared when the slot is
    /// freed.
    pub(super) ripe: SlotMask,
    /// Static: slots of each [`SlotKind`] (indexed by [`kind_bit`]).
    pub(super) kind: [SlotMask; 2],
    /// Static: slots of each board.
    pub(super) board: Vec<SlotMask>,
}

impl SlotIndex {
    /// Empty masks for a run on `boards` boards.
    pub(super) fn new(boards: usize) -> Self {
        SlotIndex {
            free: SlotMask::EMPTY,
            enabled: SlotMask::EMPTY,
            loaded_idle: SlotMask::EMPTY,
            ripe: SlotMask::EMPTY,
            kind: [SlotMask::EMPTY; 2],
            board: vec![SlotMask::EMPTY; boards],
        }
    }
}
