//! Time-weighted means of integer ratios.
//!
//! Resource utilization in the paper (Figure 7 and the headline "+35 % LUT / +29 %
//! FF") is an average over *time*: a slot that is 80 % full for 10 ms and idle for
//! 90 ms contributes 8 %.  [`TimeWeightedRatios`] tracks piecewise-constant
//! ratios `numerator / denominator` of integers over simulated time and
//! integrates them exactly.
//!
//! One integrator carries `LANES` ratios that change at the same instants — the
//! simulators record slot occupancy, LUT and FF utilization as three lanes —
//! so a change costs one time check and one span conversion however many
//! lanes it updates.  Per lane it keeps
//!
//! * the current numerator and denominator,
//! * the exact `u128` sum of numerator·µs over the *open segment*, the time
//!   since the denominator last changed, and
//! * the `f64` sum of the closed segments, each folded once as
//!   `Σ numerator·µs / denominator` when its denominator changes.
//!
//! So a change that keeps every denominator costs one integer multiply-add
//! per lane and no division, and the mean is the exact time-weighted mean
//! rounded a few times, not a sum of per-change rounded products.  A span
//! whose denominator is 0 adds 0 to the mean.

use crate::time::SimTime;

/// `LANES` piecewise-constant integer ratios over simulated time, changing at
/// the same instants, with exact time-weighted averaging.
///
/// Each lane is a `(numerator, denominator)` pair; a span with denominator 0
/// contributes 0 to the mean.
///
/// # Example
///
/// ```
/// use versaslot_sim::{SimTime, TimeWeightedRatios};
///
/// let mut ratios = TimeWeightedRatios::new(SimTime::ZERO, [(0, 4), (1, 1)]);
/// ratios.set(SimTime::from_millis(10), [(4, 4), (1, 1)]);
/// ratios.set(SimTime::from_millis(30), [(0, 4), (1, 2)]);
/// // Lane 0: 0/4 for 10 ms, then 4/4 for 20 ms, observed over 40 ms => 0.5.
/// // Lane 1: 1/1 for 30 ms, then 1/2 for 10 ms => 0.875.
/// let [first, second] = ratios.time_weighted_mean(SimTime::from_millis(40));
/// assert_eq!(first, 0.5);
/// assert_eq!(second, 0.875);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeightedRatios<const LANES: usize> {
    start: SimTime,
    last_change: SimTime,
    /// Each lane's current `(numerator, denominator)`.
    current: [(u64, u64); LANES],
    /// Σ numerator·µs of each lane's open segment, up to `last_change`.
    open: [u128; LANES],
    /// Σ numerator·µs / denominator of each lane's closed segments.
    closed: [f64; LANES],
}

/// One segment's contribution to the integral in ratio·µs: `open / den`, or 0
/// for a span with no denominator.
fn fold(open: u128, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        open as f64 / den as f64
    }
}

impl<const LANES: usize> TimeWeightedRatios<LANES> {
    /// Creates an integrator whose lanes hold the `(numerator, denominator)`
    /// pairs `initial` starting at `start`.
    pub fn new(start: SimTime, initial: [(u64, u64); LANES]) -> Self {
        TimeWeightedRatios {
            start,
            last_change: start,
            current: initial,
            open: [0; LANES],
            closed: [0.0; LANES],
        }
    }

    /// Sets every lane's `(numerator, denominator)` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous change (time must move forward).
    #[inline]
    pub fn set(&mut self, at: SimTime, values: [(u64, u64); LANES]) {
        assert!(
            at >= self.last_change,
            "series updated backwards in time: {at} < {}",
            self.last_change
        );
        let span = u128::from((at - self.last_change).as_micros());
        let lanes = self.current.iter().zip(&values);
        for (((num, den), (_, next_den)), (open, closed)) in
            lanes.zip(self.open.iter_mut().zip(&mut self.closed))
        {
            *open += u128::from(*num) * span;
            if next_den != den {
                *closed += fold(*open, *den);
                *open = 0;
            }
        }
        self.last_change = at;
        self.current = values;
    }

    /// Returns each lane's time-weighted mean from the start until `until`.
    ///
    /// Returns the current ratios if `until` does not extend past the start
    /// (zero observation window).
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last recorded change.
    pub fn time_weighted_mean(&self, until: SimTime) -> [f64; LANES] {
        assert!(
            until >= self.last_change,
            "observation end {until} precedes last change {}",
            self.last_change
        );
        let total = (until - self.start).as_micros();
        let tail = u128::from((until - self.last_change).as_micros());
        std::array::from_fn(|lane| {
            let (num, den) = self.current[lane];
            if total == 0 {
                return fold(u128::from(num), den);
            }
            let open = self.open[lane] + u128::from(num) * tail;
            (self.closed[lane] + fold(open, den)) / total as f64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn constant_series_mean_is_the_constant() {
        let ratios = TimeWeightedRatios::new(SimTime::ZERO, [(3, 4)]);
        assert_eq!(ratios.time_weighted_mean(SimTime::from_secs(10)), [0.75]);
    }

    #[test]
    fn zero_window_returns_current() {
        let ratios = TimeWeightedRatios::new(SimTime::from_millis(5), [(3, 10), (1, 0)]);
        assert_eq!(
            ratios.time_weighted_mean(SimTime::from_millis(5)),
            [0.3, 0.0]
        );
    }

    #[test]
    fn step_function_integrates_exactly() {
        let mut ratios = TimeWeightedRatios::new(SimTime::ZERO, [(0, 1)]);
        ratios.set(SimTime::from_millis(10), [(2, 1)]);
        ratios.set(SimTime::from_millis(20), [(1, 1)]);
        // integral = 0*10ms + 2*10ms + 1*10ms = 30 ms·value over a 30 ms window
        let [mean] = ratios.time_weighted_mean(SimTime::from_millis(30));
        assert_eq!(mean, 1.0);
    }

    #[test]
    fn spans_without_a_denominator_add_zero() {
        // 1/2 for 10 ms, nothing counted for 20 ms, then 3/3 for 10 ms.
        let mut ratios = TimeWeightedRatios::new(SimTime::ZERO, [(1, 2)]);
        ratios.set(SimTime::from_millis(10), [(0, 0)]);
        ratios.set(SimTime::from_millis(30), [(3, 3)]);
        let [mean] = ratios.time_weighted_mean(SimTime::from_millis(40));
        assert_eq!(mean, (5.0 + 10.0) / 40.0);
    }

    #[test]
    #[should_panic(expected = "backwards in time")]
    fn updating_backwards_panics() {
        let mut ratios = TimeWeightedRatios::new(SimTime::from_millis(10), [(0, 1)]);
        ratios.set(SimTime::from_millis(5), [(1, 1)]);
    }

    /// The `f64` nearest to `p / q`: both are below 2^53, so they convert
    /// exactly and the one division rounds once.
    fn nearest(p: u128, q: u128) -> f64 {
        assert!(p < 1 << 53 && q < 1 << 53, "{p} / {q} is not exact in f64");
        p as f64 / q as f64
    }

    /// Distance between two non-negative finite `f64`s in units in the last
    /// place: adjacent doubles have adjacent bit patterns.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// One piecewise-constant segment of constant denominator: the
    /// denominator and its `(µs, numerator)` steps, each numerator at most
    /// the denominator.
    fn segment() -> impl Strategy<Value = (u64, Vec<(u64, u64)>)> {
        (
            1u64..500,
            prop::collection::vec((1u64..5_000, 0u64..500), 1..8),
        )
            .prop_map(|(den, steps)| {
                let steps = steps.into_iter().map(|(us, num)| (us, num % (den + 1)));
                (den, steps.collect())
            })
    }

    proptest! {
        /// The time-weighted mean always lies within [min, max] of the
        /// recorded ratios.
        #[test]
        fn prop_mean_bounded_by_extremes(
            steps in prop::collection::vec((1u64..1_000, 0u64..100, 1u64..100), 1..50),
        ) {
            let mut ratios = TimeWeightedRatios::new(SimTime::ZERO, [(50, 100)]);
            let mut t = SimTime::ZERO;
            let mut lo = 0.5f64;
            let mut hi = 0.5f64;
            for &(dt, num, den) in &steps {
                t += SimDuration::from_micros(dt);
                ratios.set(t, [(num, den)]);
                lo = lo.min(num as f64 / den as f64);
                hi = hi.max(num as f64 / den as f64);
            }
            let end = t + SimDuration::from_micros(1_000);
            let [mean] = ratios.time_weighted_mean(end);
            prop_assert!(mean >= lo - 1e-9);
            prop_assert!(mean <= hi + 1e-9);
        }

        /// Over up to three counted segments of different denominators and
        /// one span with denominator 0, each lane's mean is within 4 ulp of
        /// the exact rational `Σ_s (Σ numerator·µs)_s / den_s / total µs`.
        /// The second lane holds the same steps with every numerator
        /// doubled and every denominator tripled.
        #[test]
        fn prop_mean_matches_the_exact_rational(
            counted in prop::collection::vec(segment(), 1..4),
            uncounted_at in 0usize..4,
            uncounted_us in 1u64..5_000,
        ) {
            let mut segments: Vec<(u64, Vec<(u64, u64)>)> = counted;
            let uncounted_at = uncounted_at.min(segments.len());
            segments.insert(uncounted_at, (0, vec![(uncounted_us, 0)]));

            let mut ratios = TimeWeightedRatios::new(SimTime::ZERO, [(0, 0); 2]);
            let mut t = SimTime::ZERO;
            // The exact integral as p / q over the product of the counted
            // denominators, and the total observed time.
            let dens: Vec<u128> = segments
                .iter()
                .filter(|(den, _)| *den > 0)
                .map(|(den, _)| u128::from(*den))
                .collect();
            let product: u128 = dens.iter().product();
            let mut p = 0u128;
            let mut total = 0u128;
            for (den, steps) in &segments {
                let mut sum = 0u128;
                for &(us, num) in steps {
                    ratios.set(t, [(num, *den), (2 * num, 3 * den)]);
                    t += SimDuration::from_micros(us);
                    sum += u128::from(num) * u128::from(us);
                    total += u128::from(us);
                }
                if *den > 0 {
                    p += sum * (product / u128::from(*den));
                }
            }
            let [mean, scaled] = ratios.time_weighted_mean(t);
            let exact = nearest(p, product * total);
            let exact_scaled = nearest(2 * p, 3 * product * total);
            prop_assert!(ulps(mean, exact) <= 4, "{} vs exact {}", mean, exact);
            prop_assert!(
                ulps(scaled, exact_scaled) <= 4,
                "{} vs exact {}",
                scaled,
                exact_scaled
            );
        }
    }
}
