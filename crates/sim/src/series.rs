//! Time-weighted series.
//!
//! Resource utilization in the paper (Figure 7 and the headline "+35 % LUT / +29 %
//! FF") is an average over *time*: a slot that is 80 % full for 10 ms and idle for
//! 90 ms contributes 8 %.  [`TimeWeightedSeries`] tracks a piecewise-constant value
//! over simulated time and integrates it exactly.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// A piecewise-constant value over simulated time with exact time-weighted
/// averaging.
///
/// # Example
///
/// ```
/// use versaslot_sim::{SimTime, TimeWeightedSeries};
///
/// let mut series = TimeWeightedSeries::new(SimTime::ZERO, 0.0);
/// series.set(SimTime::from_millis(10), 1.0);
/// series.set(SimTime::from_millis(30), 0.0);
/// // 0.0 for 10 ms, then 1.0 for 20 ms, observed over 40 ms => 0.5
/// let avg = series.time_weighted_mean(SimTime::from_millis(40));
/// assert!((avg - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeWeightedSeries {
    start: SimTime,
    last_change: SimTime,
    current: f64,
    /// Integral of the value from `start` to `last_change`, in value·µs.
    accumulated: f64,
}

impl TimeWeightedSeries {
    /// Creates a series that holds `initial` starting at `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeightedSeries {
            start,
            last_change: start,
            current: initial,
            accumulated: 0.0,
        }
    }

    /// Sets the value at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous change (time must move forward) or if
    /// `value` is NaN.
    pub fn set(&mut self, at: SimTime, value: f64) {
        assert!(
            at >= self.last_change,
            "series updated backwards in time: {at} < {}",
            self.last_change
        );
        assert!(!value.is_nan(), "cannot record NaN");
        let span = at - self.last_change;
        self.accumulated += self.current * span.as_micros() as f64;
        self.last_change = at;
        self.current = value;
    }

    /// Returns the time-weighted mean of the value from the series start until
    /// `until`.
    ///
    /// Returns the current value if `until` does not extend past the start (zero
    /// observation window).
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last recorded change.
    pub fn time_weighted_mean(&self, until: SimTime) -> f64 {
        assert!(
            until >= self.last_change,
            "observation end {until} precedes last change {}",
            self.last_change
        );
        let total: SimDuration = until - self.start;
        if total.is_zero() {
            return self.current;
        }
        let tail = (until - self.last_change).as_micros() as f64 * self.current;
        (self.accumulated + tail) / total.as_micros() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_series_mean_is_the_constant() {
        let series = TimeWeightedSeries::new(SimTime::ZERO, 0.75);
        assert_eq!(series.time_weighted_mean(SimTime::from_secs(10)), 0.75);
    }

    #[test]
    fn zero_window_returns_current() {
        let series = TimeWeightedSeries::new(SimTime::from_millis(5), 0.3);
        assert_eq!(series.time_weighted_mean(SimTime::from_millis(5)), 0.3);
    }

    #[test]
    fn step_function_integrates_exactly() {
        let mut series = TimeWeightedSeries::new(SimTime::ZERO, 0.0);
        series.set(SimTime::from_millis(10), 2.0);
        series.set(SimTime::from_millis(20), 1.0);
        // integral = 0*10ms + 2*10ms + 1*10ms = 30 ms·value over a 30 ms window
        let mean = series.time_weighted_mean(SimTime::from_millis(30));
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "backwards in time")]
    fn updating_backwards_panics() {
        let mut series = TimeWeightedSeries::new(SimTime::from_millis(10), 0.0);
        series.set(SimTime::from_millis(5), 1.0);
    }

    proptest! {
        /// The time-weighted mean always lies within [min, max] of the recorded values.
        #[test]
        fn prop_mean_bounded_by_extremes(
            steps in prop::collection::vec((1u64..1_000, 0.0f64..100.0), 1..50),
        ) {
            let mut series = TimeWeightedSeries::new(SimTime::ZERO, 50.0);
            let mut t = SimTime::ZERO;
            let mut lo = 50.0f64;
            let mut hi = 50.0f64;
            for (dt, v) in &steps {
                t += SimDuration::from_micros(*dt);
                series.set(t, *v);
                lo = lo.min(*v);
                hi = hi.max(*v);
            }
            let end = t + SimDuration::from_micros(1_000);
            let mean = series.time_weighted_mean(end);
            prop_assert!(mean >= lo - 1e-9);
            prop_assert!(mean <= hi + 1e-9);
        }
    }
}
