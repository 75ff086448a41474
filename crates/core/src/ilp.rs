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
//!
//! # One curve per application, one answer per batch
//!
//! The estimated makespan `fill + bottleneck(k) × (batch − 1)` depends on the
//! batch only through the factor `batch − 1`: the fill (one item's total work)
//! and the min-bottleneck of each slot count `k` are properties of the
//! pipeline.  A `SlotCurve` holds those once, and answers `O_L` for any batch
//! with the same integer-µs makespans and the same `f64` comparison against
//! `MAKESPAN_TOLERANCE` as [`optimal_little_slots`], so the two agree exactly.
//! The engine builds one curve per suite application at its first admission;
//! [`optimal_little_slots`] stays the definition the curve is tested against.
//!
//! A curve is not built by `n` partition searches (one binary search over
//! the answer per slot count, as [`optimal_little_slots`] does through
//! `estimated_makespan`) but by one `O(n²·k)` dynamic program over the
//! prefix sums, `best_k(i) = min_j max(best_{k−1}(j), sum(j..i))`, that
//! reads the bottleneck of `k` slots as `best_k(n)` for every `k` at once
//! and keeps its one row in the curve's own vector.  Both return the least
//! integer-µs bottleneck of a contiguous partition, so the curve is
//! unchanged; a property test checks the two against each other at every
//! slot count.

use versaslot_sim::SimDuration;
use versaslot_workload::{ApplicationSpec, TaskSpec};

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
fn min_bottleneck_partition(
    task_times: impl Iterator<Item = SimDuration> + Clone,
    groups: u32,
) -> SimDuration {
    assert!(groups >= 1, "need at least one group");
    let lo = task_times
        .clone()
        .fold(SimDuration::ZERO, SimDuration::max_of);
    let hi: SimDuration = task_times.clone().sum();
    let mut lo_us = lo.as_micros();
    let mut hi_us = hi.as_micros();
    let feasible = |limit: u64| {
        let mut used = 1u32;
        let mut current = 0u64;
        for t in task_times.clone() {
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
    let task_times = app.tasks().iter().map(TaskSpec::exec_per_item);
    if slots == 0 || app.tasks().is_empty() {
        return SimDuration::MAX;
    }
    let slots = slots.min(app.task_count());
    let bottleneck = min_bottleneck_partition(task_times.clone(), slots);
    // With `slots` groups the fill is bounded by the total work of one item and the
    // steady state is governed by the bottleneck group.
    let fill: SimDuration = task_times.sum();
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

/// The batch-independent part of [`optimal_little_slots`] for one pipeline:
/// its fill and the min-bottleneck of every slot count `k = 1..=n`.
///
/// [`SlotCurve::optimal_little_slots`] then costs at most `n` multiply-adds
/// per batch, where a fresh solve runs `n` partition searches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotCurve {
    /// One item's total work: the sum of every task's per-item time.
    fill: SimDuration,
    /// Min-bottleneck of a contiguous partition into `k` groups, at `k - 1`.
    bottleneck: Vec<SimDuration>,
}

impl SlotCurve {
    /// The curve of a pipeline with these per-item task times, by one
    /// dynamic program over the slot counts instead of a partition search
    /// per count.  Allocates the one bottleneck vector and nothing else.
    ///
    /// With `B_k(i)` the min-bottleneck of the first `i` tasks in at most `k`
    /// groups and `P(i)` their sum, `B_1(i) = P(i)` and
    /// `B_k(i) = min_{j<i} max(B_{k−1}(j), P(i) − P(j))`; the curve holds
    /// `B_k(n)`.  `B_k(j)` for `j ≤ k` is the largest of the first `j` tasks
    /// (one group each), so a row needs storing only at `j > k`, and it
    /// shares the output vector: before round `k`, `bottleneck[k'−1]` holds
    /// `B_{k'}(n)` for `k' < k` and `bottleneck[j−1]` holds `B_{k−1}(j)` for
    /// `k ≤ j < n`.  Round `k` computes `B_k(n)` first, then `B_k(i)` for `i`
    /// from `n − 1` down to `k + 1`, each over entries below its own, so
    /// every read sees the previous row.  The bottleneck of an integer
    /// partition is an integer number of µs, so this equals
    /// [`min_bottleneck_partition`] exactly.
    pub(crate) fn new(
        task_times: impl ExactSizeIterator<Item = SimDuration> + DoubleEndedIterator + Clone,
    ) -> Self {
        let n = task_times.len();
        // Row k = 1: P(j) at j - 1 for 2 <= j < n, and B_1(n) = P(n) at 0.
        let mut fill = SimDuration::ZERO;
        let mut bottleneck: Vec<SimDuration> = task_times
            .clone()
            .map(|t| {
                fill += t;
                fill
            })
            .collect();
        if let Some(first) = bottleneck.first_mut() {
            *first = fill;
        }
        // B_k(i) from the previous row, with P(i) = `prefix_i`.
        let best = |row: &[SimDuration], k: usize, i: usize, prefix_i: SimDuration| {
            let mut best = SimDuration::MAX;
            let (mut prefix_j, mut largest) = (SimDuration::ZERO, SimDuration::ZERO);
            for (j, t) in task_times.clone().take(i).enumerate() {
                let previous = if j < k { largest } else { row[j - 1] };
                best = best.min(previous.max_of(prefix_i - prefix_j));
                prefix_j += t;
                largest = largest.max_of(t);
            }
            best
        };
        for k in 2..=n {
            let whole = best(&bottleneck, k, n, fill);
            // P(i) for i = n - 1, n - 2, …: P(n) less the tasks after i.
            let mut prefix_i = fill;
            for (i, t) in (k + 1..n).rev().zip(task_times.clone().rev()) {
                prefix_i -= t;
                bottleneck[i - 1] = best(&bottleneck, k, i, prefix_i);
            }
            bottleneck[k - 1] = whole;
        }
        SlotCurve { fill, bottleneck }
    }

    /// The curve of `app`'s pipeline.
    pub(crate) fn of(app: &ApplicationSpec) -> Self {
        Self::new(app.tasks().iter().map(TaskSpec::exec_per_item))
    }

    /// `O_L` at `batch` items: exactly [`optimal_little_slots`] of the
    /// pipeline the curve was built from.
    pub(crate) fn optimal_little_slots(&self, batch: u32) -> u32 {
        let n = self.bottleneck.len() as u32;
        if n <= 1 {
            return n.max(1);
        }
        let steady = batch.max(1) as u64 - 1;
        let makespan = |k: u32| self.fill + self.bottleneck[k as usize - 1] * steady;
        let limit = makespan(n).as_micros() as f64 * MAKESPAN_TOLERANCE;
        (1..n)
            .find(|&k| makespan(k).as_micros() as f64 <= limit)
            .unwrap_or(n)
    }
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
            min_bottleneck_partition(times.iter().copied(), 2),
            SimDuration::from_millis(30)
        );
        // One group: everything together.
        assert_eq!(
            min_bottleneck_partition(times.iter().copied(), 1),
            SimDuration::from_millis(60)
        );
        // As many groups as tasks: bottleneck is the largest task.
        assert_eq!(
            min_bottleneck_partition(times.iter().copied(), 4),
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

        /// A curve gives the `O_L` of a fresh solve for every pipeline and
        /// batch.  Batch 0 is drawn because the makespan clamps it to 1 (a
        /// curve using `batch - 1` overflows there), and the empty pipeline
        /// because only there does the `n <= 1` case differ from the loop
        /// (`O_L` is 1; `ApplicationSpec` itself needs one task).
        #[test]
        fn prop_slot_curve_matches_a_fresh_solve(
            times_us in prop::collection::vec(1u64..200_000, 0..13),
            batches in prop::collection::vec(0u32..65, 1..8),
        ) {
            let times: Vec<SimDuration> =
                times_us.iter().map(|&us| SimDuration::from_micros(us)).collect();
            let curve = SlotCurve::new(times.iter().copied());
            let app = (!times.is_empty()).then(|| {
                versaslot_workload::ApplicationSpec::new(
                    "gen",
                    times
                        .iter()
                        .enumerate()
                        .map(|(i, t)| TaskSpec::new(format!("t{i}"), *t))
                        .collect(),
                )
            });
            for batch in batches {
                let expected = app.as_ref().map_or(1, |app| optimal_little_slots(app, batch));
                prop_assert_eq!(curve.optimal_little_slots(batch), expected, "batch {}", batch);
            }
        }

        /// The curve's dynamic program gives the bottleneck of the partition
        /// search at every slot count.
        #[test]
        fn prop_slot_curve_bottlenecks_match_the_partition_search(
            times_us in prop::collection::vec(1u64..200_001, 0..13),
        ) {
            let times: Vec<SimDuration> =
                times_us.iter().map(|&us| SimDuration::from_micros(us)).collect();
            let curve = SlotCurve::new(times.iter().copied());
            prop_assert_eq!(curve.bottleneck.len(), times.len());
            prop_assert_eq!(curve.fill, times.iter().copied().sum::<SimDuration>());
            for (k, &bottleneck) in (1u32..).zip(&curve.bottleneck) {
                let expected = min_bottleneck_partition(times.iter().copied(), k);
                prop_assert_eq!(bottleneck, expected, "{} groups of {:?}", k, times_us);
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
