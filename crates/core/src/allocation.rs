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
//! This module implements the algorithm as a pure function over the
//! allocator's state and a per-application lookup, so it can be unit-tested
//! independently of the simulator; the `versaslot` policy drives it every
//! scheduling pass, and its lookup reads each application's inputs straight
//! from the simulator's application store
//! (`crate::engine::SharingSimulator::alloc_info`), so a pass builds no input
//! table.  Each allocation `R_Ai` is stored beside its application in the
//! bound list of its slot kind: a binding and its allocation are made and
//! dropped together, so no bound application lacks an allocation and no
//! allocation outlives its binding.

use versaslot_workload::AppId;

/// Per-application inputs to Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The allocator's persistent state: which applications are bound where, each
/// with its allocation `R_Ai`, and which wait for a binding.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct AllocationState {
    /// `S_Big`: applications bound to Big slots, in binding order, each with
    /// the number of Big slots it may occupy.
    pub bound_big: Vec<(AppId, u32)>,
    /// `S_Little`: applications bound to Little slots, in binding order (front of
    /// the runnable queue first), each with the number of Little slots it may
    /// occupy.
    pub bound_little: Vec<(AppId, u32)>,
    /// `C_wait`: applications waiting for an allocation, in arrival order.
    pub waiting: Vec<AppId>,
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

    /// Returns `true` if `app` is bound to Big slots.
    pub(crate) fn is_bound_big(&self, app: AppId) -> bool {
        self.bound_big.iter().any(|&(bound, _)| bound == app)
    }

    /// Returns `true` if `app` is bound to Little slots.
    pub(crate) fn is_bound_little(&self, app: AppId) -> bool {
        self.bound_little.iter().any(|&(bound, _)| bound == app)
    }

    /// Every application the state lists: bound to either kind or waiting.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn listed(&self) -> impl Iterator<Item = AppId> + '_ {
        self.bound_big
            .iter()
            .chain(&self.bound_little)
            .map(|&(app, _)| app)
            .chain(self.waiting.iter().copied())
    }
}

/// Runs one pass of Algorithm 1.
///
/// * `big_total` / `little_total` — slots of each kind on the active board.
/// * `big_free` / `little_free` — slots of each kind that are currently idle.
/// * `prune` — whether a listed application may have completed since the
///   previous pass.  Only then are the completed applications (those `info`
///   returns `None` for, or that have no unfinished task) dropped from the
///   state; without it every listed application must be live.
/// * `info` — the inputs of a live application, `None` once it completed.
///
/// Updates the allocations in place; callers read them beside the bindings
/// in [`AllocationState::bound_big`] and [`AllocationState::bound_little`].
/// Returns whether the pass changed the state: a prune, rebind, bind or
/// redistribution raise.  The pass performs no allocation beyond occasional
/// growth of the state's own vectors.
pub(crate) fn allocate(
    state: &mut AllocationState,
    big_total: u32,
    little_total: u32,
    big_free: u32,
    little_free: u32,
    prune: bool,
    info: impl Fn(AppId) -> Option<AppAllocInfo>,
) -> bool {
    let info_of = |app: AppId| info(app).expect("listed application is live");
    let mut changed = false;
    if prune {
        // Drop completed applications (no inputs, or out of work).
        let live = |app: AppId| info(app).is_some_and(|i| i.unfinished_tasks > 0);
        let entries =
            |s: &AllocationState| s.bound_big.len() + s.bound_little.len() + s.waiting.len();
        let before = entries(state);
        state.bound_big.retain(|&(app, _)| live(app));
        state.bound_little.retain(|&(app, _)| live(app));
        state.waiting.retain(|&app| live(app));
        changed = entries(state) != before;
    }

    // Line 1: Big slots still available for binding new applications (slots already
    // promised to bound applications with remaining work are not available).
    let bound_big_active: u32 = state.bound_big.iter().map(|&(_, big)| big.max(1)).sum();
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
            let (app, _) = state.bound_little[i];
            let app_info = info_of(app);
            if !app_info.started && app_info.can_bundle {
                state.bound_little.remove(i);
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
        .map(|&(app, little)| little.min(info_of(app).unfinished_tasks))
        .sum();
    let mut little_left = little_total.saturating_sub(promised);

    // Lines 7-13: primary allocation for waiting applications, in order.  Bound
    // applications leave the waiting list; the rest keep their position.
    let mut i = 0;
    while i < state.waiting.len() {
        let app = state.waiting[i];
        let app_info = info_of(app);
        if big_avail > 0 && app_info.can_bundle {
            // Lines 8-10: bind to Big slots, up to the application's optimal count
            // `O_B` and the slots still available.
            let grant = app_info.optimal_big.max(1).min(big_avail);
            state.waiting.remove(i);
            state.bound_big.push((app, grant));
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
            state.bound_little.push((app, grant));
            little_left -= grant;
            changed = true;
            continue;
        }
        i += 1;
    }

    // Lines 14-18: redistribute leftover Little slots to bound applications
    // (front of the runnable queue first), raising each allocation in place.
    for (app, little) in &mut state.bound_little {
        if little_left == 0 {
            break;
        }
        let max_useful = info_of(*app).unfinished_tasks;
        if *little >= max_useful {
            continue;
        }
        let extra = (max_useful - *little).min(little_left);
        *little += extra;
        little_left -= extra;
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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

    /// The live applications' inputs, keyed by id.
    type Apps = BTreeMap<AppId, AppAllocInfo>;

    /// One pass with the prune, the way the first pass of a run calls it.
    fn run(state: &mut AllocationState, totals: (u32, u32, u32, u32), apps: &Apps) -> bool {
        let (bt, lt, bf, lf) = totals;
        allocate(state, bt, lt, bf, lf, true, |app| apps.get(&app).copied())
    }

    /// `R_Ai` of `app` as `(big, little)`, zero if it is unbound.
    fn allocation(state: &AllocationState, app: AppId) -> (u32, u32) {
        let find = |list: &[(AppId, u32)]| {
            list.iter()
                .find(|&&(bound, _)| bound == app)
                .map_or(0, |&(_, slots)| slots)
        };
        (find(&state.bound_big), find(&state.bound_little))
    }

    #[test]
    fn bundleable_apps_prefer_big_slots() {
        let (bt, lt) = big_little_totals();
        let mut state = AllocationState::default();
        state.add_waiting(AppId(0));
        state.add_waiting(AppId(1));
        let mut apps = Apps::new();
        apps.insert(AppId(0), info(true, 6, 3, false));
        apps.insert(AppId(1), info(true, 3, 2, false));

        run(&mut state, (bt, lt, bt, lt), &apps);
        assert_eq!(allocation(&state, AppId(0)), (1, 0));
        assert_eq!(allocation(&state, AppId(1)), (1, 0));
        assert!(state.is_bound_big(AppId(0)));
        assert!(state.is_bound_big(AppId(1)));
        assert!(state.waiting.is_empty());
    }

    #[test]
    fn overflow_apps_fall_back_to_little_slots() {
        let (bt, lt) = big_little_totals();
        let mut state = AllocationState::default();
        let mut apps = Apps::new();
        for i in 0..3 {
            state.add_waiting(AppId(i));
            apps.insert(AppId(i), info(true, 6, 3, false));
        }

        run(&mut state, (bt, lt, bt, lt), &apps);
        // Only two Big slots exist: the third app gets Little slots instead — its
        // optimal 3 from the primary allocation plus the one leftover Little slot
        // from redistribution.
        assert_eq!(allocation(&state, AppId(2)), (0, 4));
        assert!(state.is_bound_little(AppId(2)));
    }

    #[test]
    fn redistribution_uses_leftover_little_slots() {
        // Only.Little board: 8 Little slots, one app wanting 3 optimally but having
        // 6 unfinished tasks — redistribution tops it up to 6.
        let mut state = AllocationState::default();
        state.add_waiting(AppId(0));
        let mut apps = Apps::new();
        apps.insert(AppId(0), info(true, 6, 3, false));

        run(&mut state, (0, 8, 0, 8), &apps);
        assert_eq!(allocation(&state, AppId(0)), (0, 6));
    }

    #[test]
    fn redistribution_prefers_front_of_queue() {
        let mut state = AllocationState::default();
        state.add_waiting(AppId(0));
        state.add_waiting(AppId(1));
        let mut apps = Apps::new();
        apps.insert(AppId(0), info(false, 6, 2, false));
        apps.insert(AppId(1), info(false, 6, 2, false));

        run(&mut state, (0, 8, 0, 8), &apps);
        // Primary: 2 + 2 slots; redistribution hands the remaining 4 to the front
        // app first (up to its 6 tasks), then the second app.
        assert_eq!(allocation(&state, AppId(0)), (0, 6));
        assert_eq!(allocation(&state, AppId(1)), (0, 2));
    }

    #[test]
    fn rebinding_moves_unstarted_little_apps_to_big() {
        let (bt, lt) = big_little_totals();
        let mut state = AllocationState::default();
        // App 0 was previously bound to Little slots but has not started.
        state.bound_little.push((AppId(0), 3));
        let mut apps = Apps::new();
        apps.insert(AppId(0), info(true, 6, 3, false));

        run(&mut state, (bt, lt, bt, lt), &apps);
        assert!(state.is_bound_big(AppId(0)));
        assert!(!state.is_bound_little(AppId(0)));
        assert_eq!(allocation(&state, AppId(0)), (1, 0));
    }

    #[test]
    fn started_little_apps_are_not_rebound() {
        let (bt, lt) = big_little_totals();
        let mut state = AllocationState::default();
        state.bound_little.push((AppId(0), 3));
        let mut apps = Apps::new();
        apps.insert(AppId(0), info(true, 6, 3, true));

        run(&mut state, (bt, lt, bt, lt), &apps);
        assert!(state.is_bound_little(AppId(0)));
        assert!(!state.is_bound_big(AppId(0)));
    }

    #[test]
    fn completed_apps_are_pruned() {
        let mut state = AllocationState::default();
        state.bound_big.push((AppId(0), 1));
        // App 0 no longer has inputs (completed).
        run(&mut state, (2, 4, 2, 4), &Apps::new());
        assert!(state.bound_big.is_empty());
    }

    #[test]
    fn no_free_slots_is_a_no_op() {
        let mut state = AllocationState::default();
        state.add_waiting(AppId(0));
        let mut apps = Apps::new();
        apps.insert(AppId(0), info(true, 6, 3, false));
        assert!(!run(&mut state, (2, 4, 0, 0), &apps));
        assert_eq!(state.listed().count(), 1);
        assert_eq!(state.waiting, vec![AppId(0)]);
    }

    #[test]
    fn allocate_reports_whether_it_changed_the_state() {
        // A started application bound to 2 of 8 Little slots, 6 of them free.
        let mut state = AllocationState::default();
        assert!(state.add_waiting(AppId(0)));
        assert!(!state.add_waiting(AppId(0)));
        state.waiting.clear();
        state.bound_little.push((AppId(0), 2));
        let mut apps = Apps::new();
        apps.insert(AppId(0), info(false, 6, 2, true));
        // A lone redistribution raise (2 -> 6) is a change ...
        assert!(run(&mut state, (0, 8, 0, 6), &apps));
        assert_eq!(allocation(&state, AppId(0)), (0, 6));
        // ... after which the same inputs are a fixed point ...
        assert!(!run(&mut state, (0, 8, 0, 6), &apps));
        // ... and a prune is a change again.
        assert!(run(&mut state, (0, 8, 0, 6), &Apps::new()));
    }

    #[test]
    fn allocations_live_and_die_with_their_bindings() {
        // Apps 0 and 1 bound to Little slots (0 not started yet), app 2 to a
        // Big slot that is still busy.
        let mut state = AllocationState::default();
        state.bound_little.push((AppId(0), 2));
        state.bound_little.push((AppId(1), 1));
        state.bound_big.push((AppId(2), 1));
        let mut apps = Apps::new();
        apps.insert(AppId(0), info(true, 6, 2, false));
        apps.insert(AppId(1), info(false, 4, 1, true));
        apps.insert(AppId(2), info(true, 3, 1, true));

        // A Big slot frees: app 0 is rebound with a fresh Big allocation, and
        // its Little allocation goes with its Little binding.  The Little
        // slots no binding holds now are redistributed to app 1, whose
        // allocation is raised in place (1 -> 4).
        run(&mut state, (2, 4, 1, 4), &apps);
        assert_eq!(state.bound_big, vec![(AppId(2), 1), (AppId(0), 1)]);
        assert_eq!(state.bound_little, vec![(AppId(1), 4)]);
        assert!(state.waiting.is_empty());

        // App 2 completes: the prune drops its binding and its allocation.
        apps.remove(&AppId(2));
        assert!(run(&mut state, (2, 4, 1, 0), &apps));
        assert_eq!(state.bound_big, vec![(AppId(0), 1)]);
        assert_eq!(allocation(&state, AppId(2)), (0, 0));
        assert_eq!(state.listed().collect::<Vec<_>>(), vec![AppId(0), AppId(1)]);
    }

    #[test]
    fn the_prune_is_a_no_op_while_every_listed_app_is_live() {
        // A crowded mix of bound and waiting applications, all live: the pass
        // without the prune leaves the same state and reports the same change
        // as the pass with it, whatever slots are free.
        let mut seeded = AllocationState::default();
        let mut apps = Apps::new();
        for i in 0..8 {
            apps.insert(AppId(i), info(i % 3 == 0, 2 + i % 5, 1 + i % 3, i % 2 == 0));
        }
        seeded.bound_big.push((AppId(0), 1));
        seeded.bound_little.push((AppId(1), 2));
        seeded.bound_little.push((AppId(3), 1));
        seeded.bound_little.push((AppId(4), 3));
        seeded
            .waiting
            .extend([AppId(6), AppId(2), AppId(5), AppId(7)]);
        for free in [(0, 0), (1, 0), (0, 2), (1, 4), (2, 8)] {
            let with = {
                let mut state = seeded.clone();
                let changed = allocate(&mut state, 2, 8, free.0, free.1, true, |app| {
                    apps.get(&app).copied()
                });
                (state, changed)
            };
            let without = {
                let mut state = seeded.clone();
                let changed = allocate(&mut state, 2, 8, free.0, free.1, false, |app| {
                    apps.get(&app).copied()
                });
                (state, changed)
            };
            assert_eq!(with, without, "free slots {free:?}");
        }
    }

    #[test]
    fn allocation_never_exceeds_totals() {
        // Property-style check over a crowded system.
        let mut state = AllocationState::default();
        let mut apps = Apps::new();
        for i in 0..10 {
            state.add_waiting(AppId(i));
            apps.insert(AppId(i), info(i % 2 == 0, 6, 3, false));
        }
        run(&mut state, (2, 4, 2, 4), &apps);
        let total = |list: &[(AppId, u32)]| list.iter().map(|&(_, slots)| slots).sum::<u32>();
        let total_big = total(&state.bound_big);
        let total_little = total(&state.bound_little);
        assert!(total_big <= 2, "allocated {total_big} big slots out of 2");
        assert!(
            total_little <= 4,
            "allocated {total_little} little slots out of 4"
        );
    }
}
