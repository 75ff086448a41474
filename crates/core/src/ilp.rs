//! Optimal slot count estimation.
//!
//! Both Nimblock and VersaSlot derive, per application, the "optimal" number of
//! Little slots `O_L` for pipelined execution via integer linear programming.  The
//! optimum is usually lower than the task count because pipeline throughput is
//! limited by the slowest stage: once the stages assigned to each slot are balanced,
//! extra slots stop paying for themselves.
//!
//! This module solves the same problem by exhaustive search over the (tiny) slot
//! count range, which is exact for the paper's applications (3–9 tasks) and avoids
//! an ILP dependency: for each candidate slot count it computes the optimal
//! contiguous partition of the task pipeline into that many groups (minimising the
//! largest group time — the classic linear-partition problem) and picks the
//! smallest count whose estimated makespan is within a tolerance of the best
//! achievable.

use versaslot_sim::SimDuration;
use versaslot_workload::ApplicationSpec;

/// Tolerance used when picking the smallest "good enough" slot count: a count is
/// accepted if its estimated makespan is within this factor of the best achievable
/// makespan (one slot per task).
pub(crate) const MAKESPAN_TOLERANCE: f64 = 1.15;

/// Estimated pipelined makespan of running `stage_times` (one entry per slot,
/// each the sum of its assigned tasks' per-item times) over `batch` items.
///
/// The classic pipeline bound: fill time (sum of all stages for the first item)
/// plus `(batch - 1)` times the slowest stage.
pub(crate) fn pipeline_makespan(stage_times: &[SimDuration], batch: u32) -> SimDuration {
    if stage_times.is_empty() || batch == 0 {
        return SimDuration::ZERO;
    }
    let fill: SimDuration = stage_times.iter().copied().sum();
    let bottleneck = stage_times
        .iter()
        .copied()
        .fold(SimDuration::ZERO, SimDuration::max_of);
    fill + bottleneck * (batch as u64 - 1)
}

/// Optimal contiguous partition of `task_times` into `groups` groups minimising the
/// largest group sum (returned).  Uses binary search over the answer, which is exact
/// and fast for the sizes involved.
fn min_bottleneck_partition(task_times: &[SimDuration], groups: u32) -> SimDuration {
    assert!(groups >= 1, "need at least one group");
    let lo = task_times
        .iter()
        .copied()
        .fold(SimDuration::ZERO, SimDuration::max_of);
    let hi: SimDuration = task_times.iter().copied().sum();
    let mut lo_us = lo.as_micros();
    let mut hi_us = hi.as_micros();
    let feasible = |limit: u64| {
        let mut used = 1u32;
        let mut current = 0u64;
        for t in task_times {
            let t = t.as_micros();
            if current + t > limit {
                used += 1;
                current = t;
            } else {
                current += t;
            }
        }
        used <= groups
    };
    while lo_us < hi_us {
        let mid = lo_us + (hi_us - lo_us) / 2;
        if feasible(mid) {
            hi_us = mid;
        } else {
            lo_us = mid + 1;
        }
    }
    SimDuration::from_micros(lo_us)
}

/// Estimated makespan of running `app` with `batch` items on `slots` Little slots,
/// assuming the best contiguous assignment of tasks to slots.
pub(crate) fn estimated_makespan(app: &ApplicationSpec, batch: u32, slots: u32) -> SimDuration {
    let task_times: Vec<SimDuration> = app.tasks().iter().map(|t| t.exec_per_item()).collect();
    if slots == 0 || task_times.is_empty() {
        return SimDuration::MAX;
    }
    let slots = slots.min(task_times.len() as u32);
    let bottleneck = min_bottleneck_partition(&task_times, slots);
    // With `slots` groups the fill is bounded by the total work of one item and the
    // steady state is governed by the bottleneck group.
    let fill: SimDuration = task_times.iter().copied().sum();
    fill + bottleneck * (batch.max(1) as u64 - 1)
}

/// The ILP-style optimal number of Little slots `O_L` for `app` at `batch` items:
/// the smallest slot count whose estimated makespan is within
/// `MAKESPAN_TOLERANCE` of the one-slot-per-task makespan.
///
/// # Example
///
/// ```
/// use versaslot_core::ilp::optimal_little_slots;
/// use versaslot_workload::benchmarks::BenchmarkApp;
///
/// let of = BenchmarkApp::OpticalFlow.spec();
/// let o_l = optimal_little_slots(&of, 20);
/// assert!(o_l >= 1 && o_l <= of.task_count());
/// ```
pub fn optimal_little_slots(app: &ApplicationSpec, batch: u32) -> u32 {
    let n = app.task_count();
    if n <= 1 {
        return n.max(1);
    }
    let best = estimated_makespan(app, batch, n);
    for slots in 1..n {
        let makespan = estimated_makespan(app, batch, slots);
        if makespan.as_micros() as f64 <= best.as_micros() as f64 * MAKESPAN_TOLERANCE {
            return slots;
        }
    }
    n
}

/// The optimal number of Big slots `O_B` for a bundle-capable application: enough
/// Big slots to pipeline consecutive 3-in-1 bundles (bounded by the two Big slots a
/// `Big.Little` board offers), zero for applications without bundles.
pub(crate) fn optimal_big_slots(app: &ApplicationSpec) -> u32 {
    if app.can_bundle() {
        (app.bundles().len() as u32).min(2)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use versaslot_workload::benchmarks::BenchmarkApp;
    use versaslot_workload::TaskSpec;

    #[test]
    fn pipeline_makespan_basics() {
        let stages = [SimDuration::from_millis(10), SimDuration::from_millis(30)];
        // fill 40ms + 9 * 30ms = 310ms
        assert_eq!(
            pipeline_makespan(&stages, 10),
            SimDuration::from_millis(310)
        );
        assert_eq!(pipeline_makespan(&[], 10), SimDuration::ZERO);
        assert_eq!(pipeline_makespan(&stages, 0), SimDuration::ZERO);
    }

    #[test]
    fn partition_balances_stages() {
        let times = [
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
            SimDuration::from_millis(30),
        ];
        // Two groups: best split is [10,10,10] / [30] → bottleneck 30.
        assert_eq!(
            min_bottleneck_partition(&times, 2),
            SimDuration::from_millis(30)
        );
        // One group: everything together.
        assert_eq!(
            min_bottleneck_partition(&times, 1),
            SimDuration::from_millis(60)
        );
        // As many groups as tasks: bottleneck is the largest task.
        assert_eq!(
            min_bottleneck_partition(&times, 4),
            SimDuration::from_millis(30)
        );
    }

    #[test]
    fn optimal_slots_never_exceed_task_count_on_suite() {
        for app in BenchmarkApp::suite() {
            for batch in [5u32, 17, 30] {
                let o_l = optimal_little_slots(&app, batch);
                assert!(o_l >= 1);
                assert!(o_l <= app.task_count());
            }
        }
    }

    #[test]
    fn optimal_slots_below_task_count_for_small_batches() {
        // The paper notes O_L is "usually lower than the task count".  With this
        // makespan model that shows up whenever the pipeline fill dominates (small
        // batches) or stage times are skewed; Optical Flow at small batch sizes
        // needs fewer than its 9 task slots.
        let of = BenchmarkApp::OpticalFlow.spec();
        assert!(optimal_little_slots(&of, 1) < of.task_count());
        assert!(optimal_little_slots(&of, 3) < of.task_count());
    }

    #[test]
    fn uneven_pipeline_needs_few_slots() {
        // One dominant stage means extra slots barely help.
        let app = versaslot_workload::ApplicationSpec::new(
            "skewed",
            vec![
                TaskSpec::new("fast1", SimDuration::from_millis(5)),
                TaskSpec::new("slow", SimDuration::from_millis(100)),
                TaskSpec::new("fast2", SimDuration::from_millis(5)),
            ],
        );
        assert_eq!(optimal_little_slots(&app, 20), 1);
    }

    #[test]
    fn big_slot_optimum_follows_bundleability() {
        // LeNet has two bundles, 3DR one, Optical Flow three (capped at the two
        // Big slots of a board).
        assert_eq!(optimal_big_slots(&BenchmarkApp::LeNet.spec()), 2);
        assert_eq!(optimal_big_slots(&BenchmarkApp::Rendering3D.spec()), 1);
        assert_eq!(optimal_big_slots(&BenchmarkApp::OpticalFlow.spec()), 2);
        let unbundled = versaslot_workload::ApplicationSpec::new(
            "two",
            vec![
                TaskSpec::new("a", SimDuration::from_millis(5)),
                TaskSpec::new("b", SimDuration::from_millis(5)),
            ],
        );
        assert_eq!(optimal_big_slots(&unbundled), 0);
    }

    proptest! {
        /// Makespan estimates are monotonically non-increasing in the slot count.
        #[test]
        fn prop_makespan_monotone_in_slots(
            times in prop::collection::vec(1u64..200, 1..10),
            batch in 1u32..40,
        ) {
            let app = versaslot_workload::ApplicationSpec::new(
                "gen",
                times
                    .iter()
                    .enumerate()
                    .map(|(i, ms)| TaskSpec::new(format!("t{i}"), SimDuration::from_millis(*ms)))
                    .collect(),
            );
            let mut last = SimDuration::MAX;
            for slots in 1..=app.task_count() {
                let m = estimated_makespan(&app, batch, slots);
                prop_assert!(m <= last);
                last = m;
            }
        }

        /// The chosen optimum is never worse than tolerance times the best makespan.
        #[test]
        fn prop_optimum_within_tolerance(
            times in prop::collection::vec(1u64..200, 1..10),
            batch in 1u32..40,
        ) {
            let app = versaslot_workload::ApplicationSpec::new(
                "gen",
                times
                    .iter()
                    .enumerate()
                    .map(|(i, ms)| TaskSpec::new(format!("t{i}"), SimDuration::from_millis(*ms)))
                    .collect(),
            );
            let o_l = optimal_little_slots(&app, batch);
            let best = estimated_makespan(&app, batch, app.task_count());
            let chosen = estimated_makespan(&app, batch, o_l);
            prop_assert!(
                chosen.as_micros() as f64 <= best.as_micros() as f64 * MAKESPAN_TOLERANCE + 1.0
            );
        }
    }
}
