//! Utilization accounting and the run report.
//!
//! # Utilization
//!
//! The integers behind the occupancy, LUT and FF ratios ([`UtilTotals`]:
//! counted slots, their capacity, occupied slots, the resources of loaded
//! units) change only at slot-state transitions and board enable/disable,
//! all through one funnel, `SharingSimulator::update_slot`.  When a slot's
//! share of them changes, `update_slot` sets the new totals at `now` in a
//! three-lane [`TimeWeightedRatios`] (occupancy, LUT, FF as integer
//! numerator/denominator pairs): a few `u128` multiply-adds, and a division
//! only for a lane whose denominator moved, which happens only when a board
//! is enabled or disabled.  So the integral is exact between changes, covers
//! every change wherever it happens (a cross-board switch included), and a
//! non-final item completion, which leaves the totals as they were, does no
//! utilization work at all.  Each slot's current share is cached
//! (`slot_share`), so a change computes only the new share: a loaded slot's
//! share reads its occupant's resources, which costs an application lookup,
//! and the old share costs none.
//!
//! `SharingSimulator::verify_indexes` (debug builds, after every event)
//! recounts the totals with the full slot walk and checks each cached share.
//!
//! [`TimeWeightedRatios`]: versaslot_sim::TimeWeightedRatios

use versaslot_sim::SimTime;

use crate::metrics::{AppRecord, RunReport};

use super::switch::SwitchPlane;
use super::SharingSimulator;
#[cfg(any(test, debug_assertions))]
use super::SlotState;

/// Integer totals behind the utilization integrator, and one slot's share of
/// them.  A slot is *counted* while it is enabled or occupied; an occupied
/// slot adds to `occupied`, and a loaded one adds its occupant's resources to
/// `used_*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct UtilTotals {
    pub(super) counted: u32,
    pub(super) cap_lut: u64,
    pub(super) cap_ff: u64,
    pub(super) occupied: u32,
    pub(super) used_lut: u64,
    pub(super) used_ff: u64,
}

impl UtilTotals {
    pub(super) fn add(&mut self, share: UtilTotals) {
        self.counted += share.counted;
        self.cap_lut += share.cap_lut;
        self.cap_ff += share.cap_ff;
        self.occupied += share.occupied;
        self.used_lut += share.used_lut;
        self.used_ff += share.used_ff;
    }

    pub(super) fn sub(&mut self, share: UtilTotals) {
        self.counted -= share.counted;
        self.cap_lut -= share.cap_lut;
        self.cap_ff -= share.cap_ff;
        self.occupied -= share.occupied;
        self.used_lut -= share.used_lut;
        self.used_ff -= share.used_ff;
    }

    /// The occupancy, LUT and FF ratios as `(numerator, denominator)` lanes
    /// of the utilization integrator.
    pub(super) fn lanes(&self) -> [(u64, u64); 3] {
        [
            (u64::from(self.occupied), u64::from(self.counted)),
            (self.used_lut, self.cap_lut),
            (self.used_ff, self.cap_ff),
        ]
    }
}

impl SharingSimulator {
    /// The utilization totals recounted by walking every slot — the
    /// reference `Self::verify_indexes` checks the running totals against.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn recount_utilization(&self) -> UtilTotals {
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

    /// Checks the running utilization totals against the full slot walk and
    /// each cached slot share against a fresh one.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn verify_utilization(&self) {
        assert_eq!(
            self.util,
            self.recount_utilization(),
            "utilization totals diverged"
        );
        for idx in 0..self.slots.len() {
            assert_eq!(
                self.slot_share[idx],
                self.slot_utilization(idx),
                "cached utilization share of slot {idx} diverged"
            );
        }
    }

    pub(super) fn build_report(&self, scheduler: &str) -> RunReport {
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
        let (dswitch_trace, migrations) = self
            .switch
            .as_ref()
            .map_or((&[][..], &[][..]), SwitchPlane::records);

        RunReport {
            scheduler: scheduler.to_string(),
            apps,
            total_pr: self.total_pr,
            blocked_events: self.blocked_events,
            blocked_tasks: self.blocked_tasks,
            switches: migrations.len() as u64,
            events_processed: self.events_processed,
            makespan,
            mean_slot_occupancy,
            mean_lut_utilization,
            mean_ff_utilization,
            dswitch_trace: dswitch_trace.to_vec(),
            migrations: migrations.to_vec(),
        }
    }
}
