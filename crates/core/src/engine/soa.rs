//! Struct-of-arrays storage for the engine's hot per-app and per-slot fields.
//!
//! [`AppTable`] is a dense slab of [`AppRuntime`]s with a free list (so service
//! mode can retire completed apps without compacting) plus an id-ordered
//! `BTreeMap` index.  All *ordered* traversals — report building, debug
//! recounts — go through the index so their iteration order stays
//! the application-id order the deterministic reports rely on; hot reads go
//! through the slab and the parallel columns.
//!
//! Alongside the slab, the table maintains struct-of-arrays **hot columns**,
//! one entry per dense row:
//!
//! * `arrival` — static copy of the arrival time (priority numerator),
//! * `remaining` — estimated remaining work, kept incrementally in sync with
//!   [`AppRuntime::remaining_work`] (priority denominator),
//! * `unfinished` / `unplaced` — unit counts backing the former
//!   [`AppRuntime::unfinished_units`]/[`AppRuntime::unplaced_units`] scans,
//! * `optimal` — static ILP-optimal `(O_B, O_L)` slot counts, supplied at
//!   insertion from the engine's per-(suite index, batch) memo.
//!
//! The scheduling pass reads these columns in O(1) per app instead of walking
//! each app's unit vector; `verify_indexes` recounts them from the runtimes in
//! debug builds.  [`SlotColumns`] does the same for the static per-slot fields
//! (kind, board) so event handlers avoid chasing through `SlotRuntime`.

use std::collections::{BTreeMap, VecDeque};

use versaslot_fpga::slot::SlotKind;
use versaslot_sim::{SimDuration, SimTime};
use versaslot_workload::AppId;

use super::app::AppRuntime;
use super::slot::SlotRuntime;

/// Sentinel marking a vacant entry of the direct-map id window.
const VACANT: u32 = u32::MAX;

/// Dense application storage with id-ordered indexing and SoA hot columns.
///
/// See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct AppTable {
    /// Application id → dense row.  Iterated for every ordered traversal.
    by_id: BTreeMap<AppId, u32>,
    /// Direct-map mirror of `by_id` for the hot lookups: `window[id - base]`
    /// is the dense row of `id` (or [`VACANT`]).  The window spans the live id
    /// range only — removal advances `base` past leading vacants — so service
    /// mode's ever-growing ids keep it at O(concurrent span), not O(total
    /// arrivals).
    window: VecDeque<u32>,
    /// Id of `window[0]`.
    base: u32,
    /// Slab of runtimes; `None` rows sit on `free`.
    rows: Vec<Option<AppRuntime>>,
    /// Vacant rows, reused LIFO.
    free: Vec<u32>,
    /// Hot column: arrival time (static per app).
    arrival: Vec<SimTime>,
    /// Hot column: remaining work, mirrors [`AppRuntime::remaining_work`].
    remaining: Vec<SimDuration>,
    /// Hot column: units with items left, mirrors
    /// [`AppRuntime::unfinished_units`].
    unfinished: Vec<u32>,
    /// Hot column: unfinished units without a slot, mirrors
    /// [`AppRuntime::unplaced_units`].
    unplaced: Vec<u32>,
    /// Static column: ILP-optimal `(O_B, O_L)` slot counts.
    optimal: Vec<(u32, u32)>,
}

impl AppTable {
    /// Number of live applications.
    pub(crate) fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Inserts `runtime` with its ILP-optimal `(O_B, O_L)` slot counts,
    /// initialising its hot columns.
    ///
    /// # Panics
    ///
    /// Panics if an application with the same id is already stored.
    pub(crate) fn insert(&mut self, runtime: AppRuntime, optimal: (u32, u32)) {
        let id = runtime.id;
        let row = match self.free.pop() {
            Some(row) => {
                debug_assert!(self.rows[row as usize].is_none());
                row
            }
            None => {
                let row = u32::try_from(self.rows.len()).expect("app rows fit in u32");
                self.rows.push(None);
                self.arrival.push(SimTime::ZERO);
                self.remaining.push(SimDuration::ZERO);
                self.unfinished.push(0);
                self.unplaced.push(0);
                self.optimal.push((0, 0));
                row
            }
        };
        let prev = self.by_id.insert(id, row);
        assert!(prev.is_none(), "application {id:?} inserted twice");
        self.window_insert(id, row);
        self.rows[row as usize] = Some(runtime);
        self.optimal[row as usize] = optimal;
        self.refresh_columns(id);
    }

    /// Removes and returns the application, freeing its dense row.
    pub(crate) fn remove(&mut self, id: AppId) -> Option<AppRuntime> {
        let row = self.by_id.remove(&id)?;
        self.window_remove(id);
        self.free.push(row);
        let runtime = self.rows[row as usize].take();
        debug_assert!(runtime.is_some(), "index pointed at a vacant row");
        runtime
    }

    fn window_insert(&mut self, id: AppId, row: u32) {
        if self.window.is_empty() {
            self.base = id.0;
        } else if id.0 < self.base {
            for _ in id.0..self.base {
                self.window.push_front(VACANT);
            }
            self.base = id.0;
        }
        let off = (id.0 - self.base) as usize;
        if off >= self.window.len() {
            self.window.resize(off + 1, VACANT);
        }
        debug_assert_eq!(self.window[off], VACANT);
        self.window[off] = row;
    }

    fn window_remove(&mut self, id: AppId) {
        let off = (id.0 - self.base) as usize;
        self.window[off] = VACANT;
        // Trim leading vacants so the window tracks the live id span.
        while self.window.front() == Some(&VACANT) {
            self.window.pop_front();
            self.base += 1;
        }
    }

    /// Direct-map lookup: O(1), [`VACANT`] when `id` is not stored.
    #[inline]
    fn window_get(&self, id: AppId) -> u32 {
        let off = id.0.wrapping_sub(self.base) as usize;
        self.window.get(off).copied().unwrap_or(VACANT)
    }

    #[inline]
    fn row_of(&self, id: AppId) -> usize {
        let row = self.window_get(id);
        if row == VACANT {
            panic!("unknown application {id:?}");
        }
        row as usize
    }

    pub(crate) fn get(&self, id: AppId) -> Option<&AppRuntime> {
        let row = self.window_get(id);
        if row == VACANT {
            return None;
        }
        self.rows[row as usize].as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: AppId) -> Option<&mut AppRuntime> {
        let row = self.window_get(id);
        if row == VACANT {
            return None;
        }
        self.rows[row as usize].as_mut()
    }

    /// The runtime of `id`; panics if absent (mirrors the old `apps[&id]`).
    pub(crate) fn expect(&self, id: AppId) -> &AppRuntime {
        let row = self.row_of(id);
        self.rows[row].as_ref().expect("row is live")
    }

    pub(crate) fn expect_mut(&mut self, id: AppId) -> &mut AppRuntime {
        let row = self.row_of(id);
        self.rows[row].as_mut().expect("row is live")
    }

    /// Iterates live runtimes in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &AppRuntime> {
        self.by_id
            .values()
            .map(|&row| self.rows[row as usize].as_ref().expect("row is live"))
    }

    /// The priority inputs of `id` — `(arrival, remaining work)` — with one
    /// index lookup and two contiguous column reads.
    pub(crate) fn priority_inputs(&self, id: AppId) -> (SimTime, SimDuration) {
        let row = self.row_of(id);
        (self.arrival[row], self.remaining[row])
    }

    /// O(1) mirror of [`AppRuntime::unfinished_units`].
    pub(crate) fn unfinished_units(&self, id: AppId) -> u32 {
        self.unfinished[self.row_of(id)]
    }

    /// O(1) mirror of [`AppRuntime::unplaced_units`].
    pub(crate) fn unplaced_units(&self, id: AppId) -> u32 {
        self.unplaced[self.row_of(id)]
    }

    /// The ILP-optimal `(O_B, O_L)` slot counts of `id`.
    pub(crate) fn optimal_slots(&self, id: AppId) -> (u32, u32) {
        self.optimal[self.row_of(id)]
    }

    /// Column update for a placed unit (its `slot` went `None` → `Some`).
    pub(crate) fn note_unit_placed(&mut self, id: AppId) {
        let row = self.row_of(id);
        debug_assert!(self.unplaced[row] > 0);
        self.unplaced[row] -= 1;
    }

    /// Column update for a vacated *unfinished* unit (`slot` → `None`).
    pub(crate) fn note_unit_unplaced(&mut self, id: AppId) {
        let row = self.row_of(id);
        self.unplaced[row] += 1;
    }

    /// Column update for one completed item of a unit with `per_item` service
    /// time; `unit_finished` marks the item that completed the unit's batch.
    ///
    /// An item never places or unplaces a unit: a finishing unit leaves its
    /// slot, but a finished unit is not "unplaced" (no items left).
    pub(crate) fn note_item_done(&mut self, id: AppId, per_item: SimDuration, unit_finished: bool) {
        let row = self.row_of(id);
        self.remaining[row] -= per_item;
        if unit_finished {
            debug_assert!(self.unfinished[row] > 0);
            self.unfinished[row] -= 1;
        }
    }

    /// Recomputes every hot column of `id` from its runtime.  Used after bulk
    /// unit changes (insertion, execution-mode rebuilds).
    pub(crate) fn refresh_columns(&mut self, id: AppId) {
        let row = self.row_of(id);
        let runtime = self.rows[row].as_ref().expect("row is live");
        self.arrival[row] = runtime.arrival;
        self.remaining[row] = runtime.remaining_work();
        self.unfinished[row] = runtime.unfinished_units();
        self.unplaced[row] = runtime.unplaced_units();
    }

    /// Asserts every hot column equals a fresh recount from its runtime.
    /// Debug/verification use (O(apps × units)).
    pub(crate) fn verify_columns(&self) {
        for (&id, &row) in &self.by_id {
            let row = row as usize;
            let runtime = self.rows[row].as_ref().expect("row is live");
            assert_eq!(runtime.id, id, "app table index points at the wrong app");
            assert_eq!(
                self.arrival[row], runtime.arrival,
                "arrival column diverged for {id:?}"
            );
            assert_eq!(
                self.remaining[row],
                runtime.remaining_work(),
                "remaining-work column diverged for {id:?}"
            );
            assert_eq!(
                self.unfinished[row],
                runtime.unfinished_units(),
                "unfinished-units column diverged for {id:?}"
            );
            assert_eq!(
                self.unplaced[row],
                runtime.unplaced_units(),
                "unplaced-units column diverged for {id:?}"
            );
        }
        for (row, runtime) in self.rows.iter().enumerate() {
            if let Some(runtime) = runtime {
                assert_eq!(
                    self.by_id.get(&runtime.id).copied(),
                    Some(row as u32),
                    "live row missing from the id index"
                );
            }
        }
        for (&id, &row) in &self.by_id {
            assert_eq!(
                self.window_get(id),
                row,
                "direct-map window diverged from the id index for {id:?}"
            );
        }
        assert_eq!(
            self.window.iter().filter(|&&r| r != VACANT).count(),
            self.by_id.len(),
            "direct-map window holds stale entries"
        );
    }
}

/// Static per-slot hot fields as parallel arrays: the slot's kind and board.
///
/// Built once at construction; event handlers index these instead of reading
/// through [`SlotRuntime`] for fields that never change.
#[derive(Debug, Default)]
pub(crate) struct SlotColumns {
    kind: Vec<SlotKind>,
    board: Vec<usize>,
}

impl SlotColumns {
    pub(crate) fn from_slots(slots: &[SlotRuntime]) -> Self {
        SlotColumns {
            kind: slots.iter().map(|s| s.descriptor.kind).collect(),
            board: slots.iter().map(|s| s.board.0 as usize).collect(),
        }
    }

    #[inline]
    pub(crate) fn kind(&self, slot: usize) -> SlotKind {
        self.kind[slot]
    }

    #[inline]
    pub(crate) fn board(&self, slot: usize) -> usize {
        self.board[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use versaslot_sim::SimTime;
    use versaslot_workload::benchmarks::BenchmarkApp;
    use versaslot_workload::AppArrival;

    fn runtime(id: u32) -> AppRuntime {
        let spec = BenchmarkApp::LeNet.spec();
        AppRuntime::new(
            &AppArrival::new(
                AppId(id),
                BenchmarkApp::LeNet.suite_index(),
                10,
                SimTime::from_millis(id as u64),
            ),
            &spec,
            SimDuration::ZERO,
        )
    }

    #[test]
    fn rows_are_recycled_and_iteration_stays_id_ordered() {
        let mut table = AppTable::default();
        for id in [5u32, 1, 3] {
            table.insert(runtime(id), (0, 0));
        }
        assert_eq!(
            table.iter().map(|a| a.id).collect::<Vec<_>>(),
            vec![AppId(1), AppId(3), AppId(5)]
        );

        let removed = table.remove(AppId(3)).expect("app 3 is stored");
        assert_eq!(removed.id, AppId(3));
        let rows_before = table.rows.len();
        table.insert(runtime(2), (0, 0));
        assert_eq!(table.rows.len(), rows_before, "vacant row was not reused");
        assert_eq!(
            table.iter().map(|a| a.id).collect::<Vec<_>>(),
            vec![AppId(1), AppId(2), AppId(5)]
        );
        table.verify_columns();
    }

    /// Service mode's constant-memory contract: the direct-map window must
    /// track the live id span, not the total number of ids ever inserted.
    #[test]
    fn direct_map_window_slides_with_retirement() {
        let mut table = AppTable::default();
        for id in 0..8u32 {
            table.insert(runtime(id), (0, 0));
        }
        for id in 0..6u32 {
            table.remove(AppId(id)).expect("app is stored");
        }
        assert_eq!(table.base, 6, "window did not slide past retired ids");
        assert_eq!(table.window.len(), 2);

        table.insert(runtime(100), (0, 0));
        table.verify_columns();
        assert_eq!(
            table.iter().map(|a| a.id).collect::<Vec<_>>(),
            vec![AppId(6), AppId(7), AppId(100)]
        );

        table.remove(AppId(6)).expect("app is stored");
        table.remove(AppId(7)).expect("app is stored");
        assert_eq!(table.base, 100, "window kept vacant leading entries");
        assert_eq!(table.window.len(), 1);
        table.verify_columns();
    }

    #[test]
    fn columns_track_incremental_updates() {
        let mut table = AppTable::default();
        table.insert(runtime(7), (0, 0));
        let id = AppId(7);
        let units = table.expect(id).units.len() as u32;
        assert_eq!(table.unfinished_units(id), units);
        assert_eq!(table.unplaced_units(id), units);

        // Place unit 0, run one item, then finish it outright.
        table.expect_mut(id).units[0].slot = Some(0);
        table.note_unit_placed(id);
        assert_eq!(table.unplaced_units(id), units - 1);

        let per_item = table.expect(id).units[0].per_item;
        let before = table.priority_inputs(id).1;
        table.expect_mut(id).units[0].items_done += 1;
        table.note_item_done(id, per_item, false);
        assert_eq!(table.priority_inputs(id).1, before - per_item);
        table.verify_columns();

        let batch = table.expect(id).batch;
        let left = {
            let unit = &mut table.expect_mut(id).units[0];
            let left = batch - unit.items_done;
            unit.items_done = batch;
            unit.slot = None;
            left
        };
        for i in 0..left {
            // The batch-completing item is the one that finishes the unit.
            table.note_item_done(id, per_item, i + 1 == left);
        }
        assert_eq!(table.unfinished_units(id), units - 1);
        assert_eq!(table.unplaced_units(id), units - 1);
        table.verify_columns();
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut table = AppTable::default();
        table.insert(runtime(1), (0, 0));
        table.insert(runtime(1), (0, 0));
    }
}
