//! Slot allocation (Algorithm 1 of the paper).
//!
//! For the heterogeneous Big.Little architecture the paper proposes an adaptive
//! allocation built from four steps:
//!
//! 1. **Rebinding** — applications bound to Little slots that have not started
//!    executing are unbound back to the waiting list whenever a Big slot is idle,
//!    so Big slots never sit empty while Little slots are overloaded.
//! 2. **Primary allocation** — waiting applications are bound first to Big slots
//!    (if they can bundle tasks), otherwise to their ILP-optimal number of Little
//!    slots.
//! 3. **Redistribution** — leftover Little slots are handed to already-bound
//!    applications (front of the runnable queue first) up to their unfinished task
//!    count, avoiding idle slots.
//! 4. Applications bound to Big slots stay there until all their tasks complete
//!    (to avoid Big-slot blocking from cross-slot dependencies); preemption applies
//!    only to Little slots.
//!
//! This module implements the algorithm as a pure function over a small state
//! snapshot so it can be unit-tested independently of the simulator; the
//! `versaslot` policy drives it every scheduling pass.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use versaslot_workload::AppId;

/// The per-application input table of one [`allocate`] pass.
///
/// A sorted vector with binary-search lookup, reused across passes by the
/// VersaSlot policy so the per-event scheduling pass performs no allocation in
/// steady state (a `BTreeMap` would churn nodes every pass).
#[derive(Debug, Clone, Default)]
pub(crate) struct AllocInputs {
    entries: Vec<(AppId, AppAllocInfo)>,
}

impl AllocInputs {
    /// Clears the table, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Inserts (or replaces) the info of `app`.
    pub(crate) fn insert(&mut self, app: AppId, info: AppAllocInfo) {
        match self.entries.binary_search_by_key(&app, |(id, _)| *id) {
            Ok(pos) => self.entries[pos].1 = info,
            Err(pos) => self.entries.insert(pos, (app, info)),
        }
    }

    /// Looks up the info of `app`.
    pub(crate) fn get(&self, app: AppId) -> Option<&AppAllocInfo> {
        self.entries
            .binary_search_by_key(&app, |(id, _)| *id)
            .ok()
            .map(|pos| &self.entries[pos].1)
    }

    /// Capacity of the backing vector (scratch-allocation accounting).
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }
}

/// Per-application inputs to Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct AppAllocInfo {
    /// Whether 3-in-1 bundle bitstreams exist for this application.
    pub can_bundle: bool,
    /// `N_T_Ai`: unfinished ready tasks of the application.
    pub unfinished_tasks: u32,
    /// `O_L`: ILP-optimal number of Little slots for its pipeline.
    pub optimal_little: u32,
    /// `O_B`: optimal number of Big slots (1 for bundle-capable applications).
    pub optimal_big: u32,
    /// Whether the application has started executing (issued a PR or run an item).
    pub started: bool,
}

/// `R_Ai`: the Big/Little slots allocated to one application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct Allocation {
    /// Number of Big slots the application may occupy.
    pub big: u32,
    /// Number of Little slots the application may occupy.
    pub little: u32,
}

/// The allocator's persistent state: which applications are bound where, and their
/// current allocations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct AllocationState {
    /// `S_Big`: applications bound to Big slots, in binding order.
    pub bound_big: Vec<AppId>,
    /// `S_Little`: applications bound to Little slots, in binding order (front of
    /// the runnable queue first).
    pub bound_little: Vec<AppId>,
    /// `C_wait`: applications waiting for an allocation, in arrival order.
    pub waiting: Vec<AppId>,
    /// Current `R_Ai` for every bound application.
    pub allocations: BTreeMap<AppId, Allocation>,
}

impl AllocationState {
    /// Adds a newly arrived application to the waiting list, returning
    /// whether it was not there yet.
    pub(crate) fn add_waiting(&mut self, app: AppId) -> bool {
        let inserted = !self.waiting.contains(&app);
        if inserted {
            self.waiting.push(app);
        }
        inserted
    }

    /// Returns the current allocation of `app` (zero if unbound).
    pub(crate) fn allocation(&self, app: AppId) -> Allocation {
        self.allocations.get(&app).copied().unwrap_or_default()
    }

    /// Returns `true` if `app` is bound to Big slots.
    pub(crate) fn is_bound_big(&self, app: AppId) -> bool {
        self.bound_big.contains(&app)
    }

    /// Returns `true` if `app` is bound to Little slots.
    pub(crate) fn is_bound_little(&self, app: AppId) -> bool {
        self.bound_little.contains(&app)
    }
}

/// Runs one pass of Algorithm 1.
///
/// * `big_total` / `little_total` — slots of each kind on the active board.
/// * `big_free` / `little_free` — slots of each kind that are currently idle.
/// * `info` — per-application inputs; applications missing from `info` are treated
///   as completed and dropped from the state.
///
/// Updates `state.allocations` in place; callers read the result through
/// [`AllocationState::allocation`].  Returns whether the pass changed the
/// state: a prune, rebind, bind or redistribution raise.  The pass performs
/// no allocation beyond occasional growth of the state's own vectors.
pub(crate) fn allocate(
    state: &mut AllocationState,
    big_total: u32,
    little_total: u32,
    big_free: u32,
    little_free: u32,
    info: &AllocInputs,
) -> bool {
    // Drop completed applications (absent from `info` or out of work).
    let live = |a: &AppId| info.get(*a).is_some_and(|i| i.unfinished_tasks > 0);
    let entries = |s: &AllocationState| {
        s.bound_big.len() + s.bound_little.len() + s.waiting.len() + s.allocations.len()
    };
    let before = entries(state);
    state.bound_big.retain(live);
    state.bound_little.retain(live);
    state.waiting.retain(live);
    state.allocations.retain(|a, _| live(a));
    let mut changed = entries(state) != before;

    // Line 1: Big slots still available for binding new applications (slots already
    // promised to bound applications with remaining work are not available).
    let bound_big_active: u32 = state
        .bound_big
        .iter()
        .map(|a| state.allocation(*a).big.max(1))
        .sum();
    let mut big_avail = big_total.saturating_sub(bound_big_active).min(big_free);

    // Line 2-3: nothing to hand out.
    if big_avail == 0 && little_free == 0 {
        return changed;
    }

    // Lines 4-6: rebinding — unbind not-yet-started Little-bound apps when a Big
    // slot could take them, returning them to the waiting list.  Rebound apps go
    // to the front of the waiting list: they were admitted before the apps
    // currently waiting.
    if big_avail > 0 {
        let mut i = 0;
        while i < state.bound_little.len() {
            let app = state.bound_little[i];
            let app_info = info.get(app).expect("bound application has info");
            if !app_info.started && app_info.can_bundle {
                state.bound_little.remove(i);
                state.allocations.remove(&app);
                state.waiting.insert(0, app);
                changed = true;
            } else {
                i += 1;
            }
        }
    }

    // Line 7: Little slots not yet promised to bound applications.
    let promised: u32 = state
        .bound_little
        .iter()
        .map(|a| {
            let app_info = info.get(*a).expect("bound application has info");
            state.allocation(*a).little.min(app_info.unfinished_tasks)
        })
        .sum();
    let mut little_left = little_total.saturating_sub(promised);

    // Lines 7-13: primary allocation for waiting applications, in order.  Bound
    // applications leave the waiting list; the rest keep their position.
    let mut i = 0;
    while i < state.waiting.len() {
        let app = state.waiting[i];
        let app_info = *info.get(app).expect("waiting application has info");
        if big_avail > 0 && app_info.can_bundle {
            // Lines 8-10: bind to Big slots, up to the application's optimal count
            // `O_B` and the slots still available.
            let grant = app_info.optimal_big.max(1).min(big_avail);
            state.waiting.remove(i);
            state.bound_big.push(app);
            state.allocations.insert(
                app,
                Allocation {
                    big: grant,
                    little: 0,
                },
            );
            big_avail -= grant;
            changed = true;
            continue;
        }
        if little_free > 0 && little_left > 0 {
            // Lines 11-13: bind to Little slots.
            let grant = app_info
                .optimal_little
                .max(1)
                .min(app_info.unfinished_tasks)
                .min(little_left);
            state.waiting.remove(i);
            state.bound_little.push(app);
            state.allocations.insert(
                app,
                Allocation {
                    big: 0,
                    little: grant,
                },
            );
            little_left -= grant;
            changed = true;
            continue;
        }
        i += 1;
    }

    // Lines 14-18: redistribute leftover Little slots to bound applications
    // (front of the runnable queue first).
    if little_left > 0 {
        for i in 0..state.bound_little.len() {
            if little_left == 0 {
                break;
            }
            let app = state.bound_little[i];
            let app_info = info.get(app).expect("bound application has info");
            let current = state.allocation(app);
            let max_useful = app_info.unfinished_tasks;
            if current.little >= max_useful {
                continue;
            }
            let extra = (max_useful - current.little).min(little_left);
            state.allocations.insert(
                app,
                Allocation {
                    big: 0,
                    little: current.little + extra,
                },
            );
            little_left -= extra;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(can_bundle: bool, tasks: u32, o_l: u32, started: bool) -> AppAllocInfo {
        AppAllocInfo {
            can_bundle,
            unfinished_tasks: tasks,
            optimal_little: o_l,
            optimal_big: 1,
            started,
        }
    }

    fn big_little_totals() -> (u32, u32) {
        (2, 4)
    }

    #[test]
    fn bundleable_apps_prefer_big_slots() {
        let (bt, lt) = big_little_totals();
        let mut state = AllocationState::default();
        state.add_waiting(AppId(0));
        state.add_waiting(AppId(1));
        let mut apps = AllocInputs::default();
        apps.insert(AppId(0), info(true, 6, 3, false));
        apps.insert(AppId(1), info(true, 3, 2, false));

        allocate(&mut state, bt, lt, bt, lt, &apps);
        assert_eq!(state.allocation(AppId(0)), Allocation { big: 1, little: 0 });
        assert_eq!(state.allocation(AppId(1)), Allocation { big: 1, little: 0 });
        assert!(state.is_bound_big(AppId(0)));
        assert!(state.is_bound_big(AppId(1)));
        assert!(state.waiting.is_empty());
    }

    #[test]
    fn overflow_apps_fall_back_to_little_slots() {
        let (bt, lt) = big_little_totals();
        let mut state = AllocationState::default();
        let mut apps = AllocInputs::default();
        for i in 0..3 {
            state.add_waiting(AppId(i));
            apps.insert(AppId(i), info(true, 6, 3, false));
        }

        allocate(&mut state, bt, lt, bt, lt, &apps);
        // Only two Big slots exist: the third app gets Little slots instead — its
        // optimal 3 from the primary allocation plus the one leftover Little slot
        // from redistribution.
        assert_eq!(state.allocation(AppId(2)).big, 0);
        assert_eq!(state.allocation(AppId(2)).little, 4);
        assert!(state.is_bound_little(AppId(2)));
    }

    #[test]
    fn redistribution_uses_leftover_little_slots() {
        // Only.Little board: 8 Little slots, one app wanting 3 optimally but having
        // 6 unfinished tasks — redistribution tops it up to 6.
        let mut state = AllocationState::default();
        state.add_waiting(AppId(0));
        let mut apps = AllocInputs::default();
        apps.insert(AppId(0), info(true, 6, 3, false));

        allocate(&mut state, 0, 8, 0, 8, &apps);
        assert_eq!(state.allocation(AppId(0)), Allocation { big: 0, little: 6 });
    }

    #[test]
    fn redistribution_prefers_front_of_queue() {
        let mut state = AllocationState::default();
        state.add_waiting(AppId(0));
        state.add_waiting(AppId(1));
        let mut apps = AllocInputs::default();
        apps.insert(AppId(0), info(false, 6, 2, false));
        apps.insert(AppId(1), info(false, 6, 2, false));

        allocate(&mut state, 0, 8, 0, 8, &apps);
        // Primary: 2 + 2 slots; redistribution hands the remaining 4 to the front
        // app first (up to its 6 tasks), then the second app.
        assert_eq!(state.allocation(AppId(0)).little, 6);
        assert_eq!(state.allocation(AppId(1)).little, 2);
    }

    #[test]
    fn rebinding_moves_unstarted_little_apps_to_big() {
        let (bt, lt) = big_little_totals();
        let mut state = AllocationState::default();
        // App 0 was previously bound to Little slots but has not started.
        state.bound_little.push(AppId(0));
        state
            .allocations
            .insert(AppId(0), Allocation { big: 0, little: 3 });
        let mut apps = AllocInputs::default();
        apps.insert(AppId(0), info(true, 6, 3, false));

        allocate(&mut state, bt, lt, bt, lt, &apps);
        assert!(state.is_bound_big(AppId(0)));
        assert!(!state.is_bound_little(AppId(0)));
        assert_eq!(state.allocation(AppId(0)), Allocation { big: 1, little: 0 });
    }

    #[test]
    fn started_little_apps_are_not_rebound() {
        let (bt, lt) = big_little_totals();
        let mut state = AllocationState::default();
        state.bound_little.push(AppId(0));
        state
            .allocations
            .insert(AppId(0), Allocation { big: 0, little: 3 });
        let mut apps = AllocInputs::default();
        apps.insert(AppId(0), info(true, 6, 3, true));

        allocate(&mut state, bt, lt, bt, lt, &apps);
        assert!(state.is_bound_little(AppId(0)));
        assert!(!state.is_bound_big(AppId(0)));
    }

    #[test]
    fn completed_apps_are_pruned() {
        let mut state = AllocationState::default();
        state.bound_big.push(AppId(0));
        state
            .allocations
            .insert(AppId(0), Allocation { big: 1, little: 0 });
        // App 0 no longer appears in the info table (completed).
        let apps = AllocInputs::default();
        allocate(&mut state, 2, 4, 2, 4, &apps);
        assert!(state.allocations.is_empty());
        assert!(state.bound_big.is_empty());
    }

    #[test]
    fn no_free_slots_is_a_no_op() {
        let mut state = AllocationState::default();
        state.add_waiting(AppId(0));
        let mut apps = AllocInputs::default();
        apps.insert(AppId(0), info(true, 6, 3, false));
        assert!(!allocate(&mut state, 2, 4, 0, 0, &apps));
        assert!(state.allocations.is_empty());
        assert_eq!(state.waiting, vec![AppId(0)]);
    }

    #[test]
    fn allocate_reports_whether_it_changed_the_state() {
        // A started application bound to 2 of 8 Little slots, 6 of them free.
        let mut state = AllocationState::default();
        assert!(state.add_waiting(AppId(0)));
        assert!(!state.add_waiting(AppId(0)));
        state.waiting.clear();
        state.bound_little.push(AppId(0));
        state
            .allocations
            .insert(AppId(0), Allocation { big: 0, little: 2 });
        let mut apps = AllocInputs::default();
        apps.insert(AppId(0), info(false, 6, 2, true));
        // A lone redistribution raise (2 -> 6) is a change ...
        assert!(allocate(&mut state, 0, 8, 0, 6, &apps));
        assert_eq!(state.allocation(AppId(0)).little, 6);
        // ... after which the same inputs are a fixed point ...
        assert!(!allocate(&mut state, 0, 8, 0, 6, &apps));
        // ... and a prune is a change again.
        assert!(allocate(&mut state, 0, 8, 0, 6, &AllocInputs::default()));
    }

    #[test]
    fn allocation_never_exceeds_totals() {
        // Property-style check over a crowded system.
        let mut state = AllocationState::default();
        let mut apps = AllocInputs::default();
        for i in 0..10 {
            state.add_waiting(AppId(i));
            apps.insert(AppId(i), info(i % 2 == 0, 6, 3, false));
        }
        allocate(&mut state, 2, 4, 2, 4, &apps);
        let total_big: u32 = state.allocations.values().map(|a| a.big).sum();
        let total_little: u32 = state.allocations.values().map(|a| a.little).sum();
        assert!(total_big <= 2, "allocated {total_big} big slots out of 2");
        assert!(
            total_little <= 4,
            "allocated {total_little} little slots out of 4"
        );
    }
}
