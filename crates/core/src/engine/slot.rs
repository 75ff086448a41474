//! Runtime state of reconfigurable slots.

use serde::{Deserialize, Serialize};
use versaslot_fpga::board::BoardId;
use versaslot_fpga::slot::SlotDescriptor;
use versaslot_workload::AppId;

/// What is loaded into a slot: a single task (Little slots) or a 3-in-1 bundle
/// (Big slots).  The index refers to the owning application's unit list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecUnit {
    /// A single task; the value is the task index within the application.
    Task(u32),
    /// A 3-in-1 bundle; the value is the bundle index within the application.
    Bundle(u32),
}

/// The runtime state of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotState {
    /// Nothing loaded; the slot can be granted to an application.
    Free,
    /// A partial reconfiguration is in progress.
    Reconfiguring {
        /// The application the slot was granted to.
        app: AppId,
        /// Index into that application's unit list.
        unit: usize,
    },
    /// A unit is loaded; `busy` is `true` while a batch item is executing.
    Loaded {
        /// The owning application.
        app: AppId,
        /// Index into that application's unit list.
        unit: usize,
        /// Whether a batch item is currently executing.
        busy: bool,
    },
}

/// A slot of one board together with its runtime state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotRuntime {
    /// Static description (id, kind, capacity).
    pub descriptor: SlotDescriptor,
    /// The board this slot belongs to (index into the run's board list).
    pub board: BoardId,
    /// Whether new grants are allowed on this slot (cleared on the source board
    /// during cross-board switching).
    pub enabled: bool,
    /// Current state.
    pub state: SlotState,
}

impl SlotRuntime {
    /// Returns `true` if the slot is free.
    pub(crate) fn is_free(&self) -> bool {
        matches!(self.state, SlotState::Free)
    }

    /// Returns the application currently occupying the slot, if any.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn occupant(&self) -> Option<AppId> {
        match self.state {
            SlotState::Free => None,
            SlotState::Reconfiguring { app, .. } | SlotState::Loaded { app, .. } => Some(app),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use versaslot_fpga::slot::{SlotId, SlotKind};
    use versaslot_fpga::ResourceVector;

    fn slot(state: SlotState) -> SlotRuntime {
        SlotRuntime {
            descriptor: SlotDescriptor {
                id: SlotId(0),
                kind: SlotKind::Little,
                capacity: ResourceVector::new(1, 1, 1, 1),
            },
            board: BoardId(0),
            enabled: true,
            state,
        }
    }

    #[test]
    fn free_slot_has_no_occupant() {
        let s = slot(SlotState::Free);
        assert!(s.is_free());
        assert_eq!(s.occupant(), None);
    }

    #[test]
    fn occupied_slot_reports_owner() {
        let s = slot(SlotState::Reconfiguring {
            app: AppId(3),
            unit: 1,
        });
        assert!(!s.is_free());
        assert_eq!(s.occupant(), Some(AppId(3)));

        let s = slot(SlotState::Loaded {
            app: AppId(4),
            unit: 0,
            busy: true,
        });
        assert_eq!(s.occupant(), Some(AppId(4)));
    }
}
