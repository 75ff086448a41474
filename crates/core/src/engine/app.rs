//! Runtime state of applications and their execution units, and the
//! simulator's one application store.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use versaslot_sim::{SimDuration, SimTime};
use versaslot_workload::{AppArrival, AppId, ApplicationSpec};

use super::slot::ExecUnit;
use crate::bundling::plan_bundle;

/// Whether the application runs as individual tasks in Little slots or as 3-in-1
/// bundles in a Big slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// One execution unit per task, running in Little slots.
    Little,
    /// One execution unit per 3-in-1 bundle, running in Big slots.
    Big,
}

/// Lifecycle state of an application in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppState {
    /// Arrived, waiting for its first slot.
    Waiting,
    /// Has at least one slot granted (or had, and still has work left).
    Running,
    /// All units have finished their batch.
    Completed,
}

/// Runtime state of one execution unit (a task or a bundle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitRuntime {
    /// What this unit is (task index or bundle index).
    pub unit: ExecUnit,
    /// Service time of the first batch item (includes pipeline fill for parallel
    /// bundles).
    pub first_item: SimDuration,
    /// Steady-state service time per item.
    pub per_item: SimDuration,
    /// Completed batch items.
    pub items_done: u32,
    /// Batch items completed since the unit was last loaded into a slot (used by
    /// quantum-based preemption).
    pub items_since_load: u32,
    /// Slot currently hosting (or reconfiguring for) this unit, as an index into
    /// the simulator's slot list.
    pub slot: Option<usize>,
    /// Whether this unit has already been counted in `N_blocked_tasks`.
    pub blocked_counted: bool,
}

impl UnitRuntime {
    /// Service time of the next item to run.
    pub(crate) fn next_item_duration(&self) -> SimDuration {
        if self.items_done == 0 {
            self.first_item
        } else {
            self.per_item
        }
    }
}

/// Runtime state of one application instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRuntime {
    /// Identifier within the workload sequence.
    pub id: AppId,
    /// Index into the benchmark suite.
    pub app_index: usize,
    /// Batch size of this request.
    pub batch: u32,
    /// Arrival time.
    pub arrival: SimTime,
    /// Lifecycle state.
    pub state: AppState,
    /// Current execution mode.
    pub mode: ExecMode,
    /// Execution units in pipeline order (tasks for Little mode, bundles for Big).
    /// The simulator changes a unit's progress and slot only together with
    /// the unit counters below, so outside code should treat it as read-only.
    pub units: Vec<UnitRuntime>,
    /// Whether any PR has been issued for this application (after which its mode
    /// can no longer change — the paper's binding rule).
    pub started: bool,
    /// Board the application first started executing on (grants on this board stay
    /// allowed after a cross-board switch so in-flight pipelines can drain).
    pub home_board: Option<usize>,
    /// Partial reconfigurations issued for this application.
    pub pr_count: u32,
    /// Whether the application ever occupied a Big slot.
    pub used_big: bool,
    /// Completion time, once finished.
    pub completion: Option<SimTime>,
    /// Big slots currently occupied (reconfiguring or loaded), maintained
    /// incrementally by the engine so occupancy queries are O(1).
    pub in_use_big: u32,
    /// Little slots currently occupied, maintained like `in_use_big`.
    pub in_use_little: u32,
    /// Estimated remaining work, kept in step with `units` (see
    /// [`Self::remaining_work`]).
    remaining: SimDuration,
    /// Units with items left (see [`Self::unfinished_units`]).
    unfinished: u32,
    /// Unfinished units without a slot (see [`Self::unplaced_units`]).
    unplaced: u32,
    /// ILP-optimal `(O_B, O_L)` slot counts, set at admission.
    optimal: (u32, u32),
}

impl AppRuntime {
    /// Creates the runtime for an arrival, starting in Little mode.
    pub(crate) fn new(
        arrival: &AppArrival,
        spec: &ApplicationSpec,
        dma_per_item: SimDuration,
    ) -> Self {
        let mut app = AppRuntime {
            id: arrival.id,
            app_index: arrival.app_index,
            batch: arrival.batch_size,
            arrival: arrival.arrival,
            state: AppState::Waiting,
            mode: ExecMode::Little,
            units: Vec::new(),
            started: false,
            home_board: None,
            pr_count: 0,
            used_big: false,
            completion: None,
            in_use_big: 0,
            in_use_little: 0,
            remaining: SimDuration::ZERO,
            unfinished: 0,
            unplaced: 0,
            optimal: (0, 0),
        };
        app.rebuild_units(spec, ExecMode::Little, dma_per_item);
        app
    }

    /// Rebuilds the unit list for `mode` and resets the unit counters.
    ///
    /// # Panics
    ///
    /// Panics if called after the application has started executing, or if `Big`
    /// mode is requested for an application without bundles.
    pub(crate) fn rebuild_units(
        &mut self,
        spec: &ApplicationSpec,
        mode: ExecMode,
        dma_per_item: SimDuration,
    ) {
        assert!(
            !self.started,
            "cannot change the execution mode of an application that already started"
        );
        self.units = match mode {
            ExecMode::Little => spec
                .tasks()
                .iter()
                .enumerate()
                .map(|(i, task)| UnitRuntime {
                    unit: ExecUnit::Task(i as u32),
                    first_item: task.exec_per_item() + dma_per_item,
                    per_item: task.exec_per_item() + dma_per_item,
                    items_done: 0,
                    items_since_load: 0,
                    slot: None,
                    blocked_counted: false,
                })
                .collect(),
            ExecMode::Big => {
                assert!(
                    spec.can_bundle(),
                    "application `{}` has no 3-in-1 bundles",
                    spec.name()
                );
                spec.bundles()
                    .iter()
                    .enumerate()
                    .map(|(i, bundle)| {
                        let exec = plan_bundle(spec, bundle, self.batch, dma_per_item);
                        UnitRuntime {
                            unit: ExecUnit::Bundle(i as u32),
                            first_item: exec.first_item,
                            per_item: exec.per_item,
                            items_done: 0,
                            items_since_load: 0,
                            slot: None,
                            blocked_counted: false,
                        }
                    })
                    .collect()
            }
        };
        self.mode = mode;
        let units = self.units.len() as u32;
        self.unfinished = units;
        self.unplaced = units;
        self.remaining = self
            .units
            .iter()
            .map(|u| u.per_item * u64::from(self.batch))
            .sum();
    }

    /// Whether every unit has finished its batch.
    pub(crate) fn is_finished(&self) -> bool {
        self.unfinished == 0
    }

    /// Number of units that still have items to process (O(1)).
    pub(crate) fn unfinished_units(&self) -> u32 {
        self.unfinished
    }

    /// Number of unfinished units that are not placed in (or loading into) a
    /// slot (O(1)).
    pub(crate) fn unplaced_units(&self) -> u32 {
        self.unplaced
    }

    /// The ILP-optimal `(O_B, O_L)` slot counts at this application's batch
    /// size, set when the simulator admits it (`(0, 0)` before).
    pub(crate) fn optimal_slots(&self) -> (u32, u32) {
        self.optimal
    }

    /// Index of the next unfinished, unplaced unit in pipeline order, if any.
    pub(crate) fn next_unit_to_place(&self) -> Option<usize> {
        self.units
            .iter()
            .position(|u| u.items_done < self.batch && u.slot.is_none())
    }

    /// Estimated remaining work, the steady-state service time of every item
    /// left (used by priority schedulers; O(1)).
    pub(crate) fn remaining_work(&self) -> SimDuration {
        self.remaining
    }

    /// Places unfinished, unplaced unit `unit` into slot `slot`.
    pub(crate) fn place_unit(&mut self, unit: usize, slot: usize) {
        let runtime = &mut self.units[unit];
        debug_assert!(runtime.slot.is_none() && runtime.items_done < self.batch);
        runtime.slot = Some(slot);
        runtime.items_since_load = 0;
        self.unplaced -= 1;
    }

    /// Takes unfinished unit `unit` out of its slot; it keeps its progress.
    pub(crate) fn unplace_unit(&mut self, unit: usize) {
        let runtime = &mut self.units[unit];
        debug_assert!(runtime.slot.is_some() && runtime.items_done < self.batch);
        runtime.slot = None;
        self.unplaced += 1;
    }

    /// Records one completed item of unit `unit` and returns whether it was
    /// the unit's last; a finished unit leaves its slot.
    pub(crate) fn complete_item(&mut self, unit: usize) -> bool {
        let runtime = &mut self.units[unit];
        runtime.items_done += 1;
        runtime.items_since_load += 1;
        self.remaining -= runtime.per_item;
        let finished = runtime.items_done >= self.batch;
        if finished {
            runtime.slot = None;
            self.unfinished -= 1;
        }
        finished
    }
}

/// The simulator's one application store: each live [`AppRuntime`] sits in a
/// window indexed by `id - base`, so an identifier is its own index.
///
/// Removal slides `base` past leading vacant entries, so the window spans the
/// live identifier range, not every identifier ever admitted.  That keeps the
/// infinite-stream service mode constant-memory, and a fleet shard that sees
/// every n-th identifier spans about n times its live applications.
/// Iteration walks the window, so it is in ascending identifier order, the
/// order the deterministic reports rely on.
#[derive(Debug, Default)]
pub(crate) struct AppStore {
    window: VecDeque<Option<AppRuntime>>,
    /// Identifier of `window[0]`.
    base: u32,
    /// Number of live applications.
    len: usize,
}

impl AppStore {
    /// Number of live applications.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Inserts `runtime` with its ILP-optimal `(O_B, O_L)` slot counts.
    ///
    /// # Panics
    ///
    /// Panics if an application with the same id is already stored.
    pub(crate) fn insert(&mut self, mut runtime: AppRuntime, optimal: (u32, u32)) {
        let id = runtime.id.0;
        if self.window.is_empty() {
            self.base = id;
        } else if id < self.base {
            for _ in id..self.base {
                self.window.push_front(None);
            }
            self.base = id;
        }
        let off = (id - self.base) as usize;
        if off >= self.window.len() {
            self.window.resize_with(off + 1, || None);
        }
        let entry = &mut self.window[off];
        assert!(entry.is_none(), "application {} inserted twice", runtime.id);
        runtime.optimal = optimal;
        *entry = Some(runtime);
        self.len += 1;
    }

    /// Removes and returns the application, or `None` if it is not stored.
    pub(crate) fn remove(&mut self, id: AppId) -> Option<AppRuntime> {
        let off = id.0.wrapping_sub(self.base) as usize;
        let runtime = self.window.get_mut(off)?.take()?;
        self.len -= 1;
        while matches!(self.window.front(), Some(None)) {
            self.window.pop_front();
            self.base += 1;
        }
        Some(runtime)
    }

    #[inline]
    pub(crate) fn get(&self, id: AppId) -> Option<&AppRuntime> {
        let off = id.0.wrapping_sub(self.base) as usize;
        self.window.get(off)?.as_ref()
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, id: AppId) -> Option<&mut AppRuntime> {
        let off = id.0.wrapping_sub(self.base) as usize;
        self.window.get_mut(off)?.as_mut()
    }

    /// The runtime of `id`; panics if absent.
    #[inline]
    pub(crate) fn expect(&self, id: AppId) -> &AppRuntime {
        self.get(id)
            .unwrap_or_else(|| panic!("unknown application {id}"))
    }

    #[inline]
    pub(crate) fn expect_mut(&mut self, id: AppId) -> &mut AppRuntime {
        self.get_mut(id)
            .unwrap_or_else(|| panic!("unknown application {id}"))
    }

    /// Iterates live runtimes in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &AppRuntime> {
        self.window.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use versaslot_sim::SimTime;
    use versaslot_workload::benchmarks::BenchmarkApp;

    fn arrival(batch: u32) -> AppArrival {
        AppArrival::new(
            AppId(0),
            BenchmarkApp::LeNet.suite_index(),
            batch,
            SimTime::ZERO,
        )
    }

    #[test]
    fn little_mode_has_one_unit_per_task() {
        let spec = BenchmarkApp::LeNet.spec();
        let app = AppRuntime::new(&arrival(10), &spec, SimDuration::ZERO);
        assert_eq!(app.units.len(), spec.task_count() as usize);
        assert_eq!(app.mode, ExecMode::Little);
        assert_eq!(app.unfinished_units(), 6);
        assert_eq!(app.unplaced_units(), 6);
        assert_eq!(app.next_unit_to_place(), Some(0));
        assert!(!app.is_finished());
    }

    #[test]
    fn big_mode_has_one_unit_per_bundle() {
        let spec = BenchmarkApp::OpticalFlow.spec();
        let mut app = AppRuntime::new(
            &AppArrival::new(
                AppId(1),
                BenchmarkApp::OpticalFlow.suite_index(),
                20,
                SimTime::ZERO,
            ),
            &spec,
            SimDuration::ZERO,
        );
        app.rebuild_units(&spec, ExecMode::Big, SimDuration::ZERO);
        assert_eq!(app.units.len(), spec.bundles().len());
        assert_eq!(app.mode, ExecMode::Big);
    }

    #[test]
    fn parallel_bundle_first_item_includes_fill() {
        let spec = BenchmarkApp::ImageCompression.spec();
        let mut app = AppRuntime::new(
            &AppArrival::new(
                AppId(1),
                BenchmarkApp::ImageCompression.suite_index(),
                25,
                SimTime::ZERO,
            ),
            &spec,
            SimDuration::ZERO,
        );
        app.rebuild_units(&spec, ExecMode::Big, SimDuration::ZERO);
        let unit = &app.units[0];
        assert!(unit.first_item > unit.per_item);
        assert_eq!(unit.next_item_duration(), unit.first_item);
    }

    #[test]
    #[should_panic(expected = "cannot change the execution mode")]
    fn mode_change_after_start_panics() {
        let spec = BenchmarkApp::LeNet.spec();
        let mut app = AppRuntime::new(&arrival(10), &spec, SimDuration::ZERO);
        app.started = true;
        app.rebuild_units(&spec, ExecMode::Big, SimDuration::ZERO);
    }

    #[test]
    fn remaining_work_shrinks_with_progress() {
        let spec = BenchmarkApp::LeNet.spec();
        let mut app = AppRuntime::new(&arrival(10), &spec, SimDuration::ZERO);
        let before = app.remaining_work();
        app.place_unit(0, 0);
        for _ in 0..5 {
            assert!(!app.complete_item(0));
        }
        assert_eq!(app.remaining_work(), before - app.units[0].per_item * 5);
    }

    #[test]
    fn counters_track_incremental_updates() {
        let spec = BenchmarkApp::LeNet.spec();
        let mut app = AppRuntime::new(&arrival(3), &spec, SimDuration::ZERO);
        app.place_unit(0, 4);
        app.place_unit(1, 5);
        assert_eq!((app.unfinished_units(), app.unplaced_units()), (6, 4));
        app.unplace_unit(1);
        assert_eq!(app.unplaced_units(), 5);
        assert_eq!(app.next_unit_to_place(), Some(1));

        // The batch-completing item finishes the unit and frees its slot, but
        // a finished unit is not unplaced.
        assert!(!app.complete_item(0));
        assert!(!app.complete_item(0));
        assert!(app.complete_item(0));
        assert_eq!(app.units[0].slot, None);
        assert_eq!((app.unfinished_units(), app.unplaced_units()), (5, 5));
        assert!(!app.is_finished());
    }

    fn runtime(id: u32) -> AppRuntime {
        AppRuntime::new(
            &AppArrival::new(
                AppId(id),
                BenchmarkApp::LeNet.suite_index(),
                10,
                SimTime::from_millis(u64::from(id)),
            ),
            &BenchmarkApp::LeNet.spec(),
            SimDuration::ZERO,
        )
    }

    fn ids(store: &AppStore) -> Vec<AppId> {
        store.iter().map(|a| a.id).collect()
    }

    #[test]
    fn iteration_stays_id_ordered() {
        let mut store = AppStore::default();
        for id in [5u32, 1, 3] {
            store.insert(runtime(id), (id, 0));
        }
        assert_eq!(ids(&store), vec![AppId(1), AppId(3), AppId(5)]);
        assert_eq!(store.expect(AppId(3)).optimal_slots(), (3, 0));

        let removed = store.remove(AppId(3)).expect("app 3 is stored");
        assert_eq!(removed.id, AppId(3));
        store.insert(runtime(2), (0, 0));
        assert_eq!(ids(&store), vec![AppId(1), AppId(2), AppId(5)]);
        assert_eq!(store.len(), 3);
    }

    /// Service mode's constant-memory contract: the window must track the
    /// live id span, not the total number of ids ever inserted.
    #[test]
    fn direct_map_window_slides_with_retirement() {
        let mut store = AppStore::default();
        for id in 0..8u32 {
            store.insert(runtime(id), (0, 0));
        }
        for id in 0..6u32 {
            store.remove(AppId(id)).expect("app is stored");
        }
        assert_eq!(store.base, 6, "window did not slide past retired ids");
        assert_eq!(store.window.len(), 2);

        store.insert(runtime(100), (0, 0));
        assert_eq!(ids(&store), vec![AppId(6), AppId(7), AppId(100)]);

        store.remove(AppId(6)).expect("app is stored");
        store.remove(AppId(7)).expect("app is stored");
        assert_eq!(store.base, 100, "window kept vacant leading entries");
        assert_eq!(store.window.len(), 1);
        assert_eq!(store.len(), 1);
    }

    /// A fleet shard sees every n-th id: its window spans the live ids and
    /// the gaps between them, and slides as the oldest retire.
    #[test]
    fn store_window_spans_sparse_live_ids() {
        let mut store = AppStore::default();
        for id in (0..40u32).step_by(4) {
            store.insert(runtime(id), (0, 0));
        }
        assert_eq!(store.window.len(), 37);
        for id in (0..32u32).step_by(4) {
            store.remove(AppId(id)).expect("app is stored");
        }
        assert_eq!((store.base, store.window.len()), (32, 5));
        assert_eq!(ids(&store), vec![AppId(32), AppId(36)]);
        assert!(store.get(AppId(34)).is_none());
    }

    #[test]
    fn removing_an_unknown_id_returns_none() {
        let mut store = AppStore::default();
        assert!(store.remove(AppId(0)).is_none());
        store.insert(runtime(4), (0, 0));
        store.insert(runtime(6), (0, 0));
        for id in [0, 3, 5, 7, 1000, u32::MAX] {
            assert!(store.remove(AppId(id)).is_none(), "{id}");
        }
        assert!(store.remove(AppId(4)).is_some());
        assert!(store.remove(AppId(4)).is_none(), "removed twice");
        assert_eq!(store.len(), 1);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut store = AppStore::default();
        store.insert(runtime(1), (0, 0));
        store.insert(runtime(1), (0, 0));
    }
}
