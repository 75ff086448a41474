//! Summary statistics for experiment reports — batch and streaming.
//!
//! The paper reports *average* relative response time (Figure 5) and *P95/P99 tail*
//! response time (Figure 6).  This module provides the statistics toolkit the
//! harnesses use to compute those aggregates, in two flavours:
//!
//! * **Batch**: the exact nearest-rank quantile of a stored sample,
//!   [`percentile`] (or [`sorted_percentile`] for a sample already sorted).
//!   Used by the finite figure runs, whose reports keep every response time;
//!   their mean is a plain sum over the same responses.
//! * **Streaming**: constant-memory online accumulators for service mode, where
//!   a run is open-ended and storing samples is impossible — a [`Welford`]
//!   mean/variance accumulator, a mergeable [`LogHistogram`] for tail
//!   quantiles, the [`StreamingSummary`] that pairs them (every service,
//!   shard and fleet summary folds through it), and a [`TumblingWindow`] that
//!   emits one [`WindowSummary`] per elapsed time window.  All of them are
//!   `Copy` and perform **zero heap allocations**, at construction or
//!   afterwards, so the engine's `grow_events() == 0` allocation-free
//!   invariant extends to service-mode metrics.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// The 0-based index of the nearest-rank `q`-quantile in a sorted sample of `n`.
fn nearest_rank_index(q: f64, n: usize) -> usize {
    debug_assert!(n > 0);
    // Nearest-rank: ceil(q * n), 1-based; clamp for q = 0.
    let rank = (q * n as f64).ceil() as usize;
    (rank.max(1) - 1).min(n - 1)
}

/// Computes the `q`-quantile (0.0–1.0) of `values` using the nearest-rank method.
///
/// The input does not need to be sorted; the value is found with a linear-time
/// selection ([`slice::select_nth_unstable_by`]) on a scratch copy rather than a
/// full sort.  Returns `None` for an empty slice.
///
/// # Example
///
/// ```
/// use versaslot_sim::percentile;
///
/// let latencies = vec![10.0, 20.0, 30.0, 40.0, 50.0];
/// assert_eq!(percentile(&latencies, 0.5), Some(30.0));
/// assert_eq!(percentile(&latencies, 0.95), Some(50.0));
/// assert_eq!(percentile(&[], 0.5), None);
/// ```
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or a NaN is encountered while selecting.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut scratch: Vec<f64> = values.to_vec();
    let idx = nearest_rank_index(q, scratch.len());
    let (_, nth, _) = scratch.select_nth_unstable_by(idx, |a, b| {
        a.partial_cmp(b).expect("NaN in percentile input")
    });
    Some(*nth)
}

/// Nearest-rank `q`-quantile of an **already sorted** slice, in O(1).
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.  Debug builds also verify the input is
/// sorted.
pub fn sorted_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "sorted_percentile input is not sorted"
    );
    if sorted.is_empty() {
        None
    } else {
        Some(sorted[nearest_rank_index(q, sorted.len())])
    }
}

/// A fixed summary of a sample: count, mean, min/max and the tail percentiles the
/// paper reports, as [`StreamingSummary::summary`] gives it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (P50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

// ---------------------------------------------------------------------------
// Streaming accumulators (service mode)
// ---------------------------------------------------------------------------

/// Online mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable single-pass computation of count, mean, population
/// variance, min and max in O(1) memory.  `Copy`, allocation-free.
///
/// # Example
///
/// ```
/// use versaslot_sim::Welford;
///
/// let mut acc = Welford::new();
/// for v in [2.0, 4.0, 6.0] {
///     acc.record(v);
/// }
/// assert_eq!(acc.count(), 3);
/// assert!((acc.mean().unwrap() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Welford::new()
    }
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (parallel-combine formula).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance, or `None` when empty.
    pub(crate) fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Population standard deviation, or `None` when empty.
    pub(crate) fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation, or `None` when empty.
    pub(crate) fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// The one streaming accumulator service mode folds every response time
/// through, in constant memory: a [`Welford`]
/// accumulator for the exact count, mean, extremes and standard deviation,
/// plus a [`LogHistogram`] for the P50/P95/P99 the paper reports.  Both halves
/// merge exactly, so [`StreamingSummary::merge`] folds per-shard accumulators
/// into a fleet-wide one, and the merge of two summaries equals the summary of
/// the concatenated streams (up to floating-point rounding of the moments).
///
/// `Copy`, allocation-free, about 2 KiB — one pooled, one per suite
/// application and one per open window is all a service run ever holds.
///
/// # Example
///
/// ```
/// use versaslot_sim::StreamingSummary;
///
/// let mut left = StreamingSummary::new();
/// let mut right = StreamingSummary::new();
/// for i in 1..=500 {
///     left.record(i as f64);
///     right.record((500 + i) as f64);
/// }
/// left.merge(&right);
/// let summary = left.summary().unwrap();
/// assert_eq!(summary.count, 1_000);
/// assert!((summary.mean - 500.5).abs() < 1e-9);
/// assert!((summary.p99 - 990.0).abs() / 990.0 < 0.032);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingSummary {
    moments: Welford,
    tails: LogHistogram,
}

impl Default for StreamingSummary {
    fn default() -> Self {
        StreamingSummary::new()
    }
}

impl StreamingSummary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingSummary {
            moments: Welford::new(),
            tails: LogHistogram::new(),
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        self.moments.record(value);
        self.tails.record(value);
    }

    /// Merges another accumulator into this one (Welford merge of the moments,
    /// bin-wise addition of the histograms).
    pub fn merge(&mut self, other: &StreamingSummary) {
        self.moments.merge(&other.moments);
        self.tails.merge(&other.tails);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// `true` when nothing has been recorded yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.moments.is_empty()
    }

    /// Nearest-rank `q`-quantile estimate from the histogram (within half a
    /// bin, ≤ 3.2%, of the exact value), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.tails.quantile(q)
    }

    /// Snapshot as a [`Summary`] (exact moments and extremes, histogram
    /// quantiles), or `None` when empty.
    pub fn summary(&self) -> Option<Summary> {
        if self.is_empty() {
            return None;
        }
        Some(Summary {
            count: self.count() as usize,
            mean: self.moments.mean().expect("non-empty"),
            min: self.moments.min().expect("non-empty"),
            max: self.moments.max().expect("non-empty"),
            p50: self.quantile(0.50).expect("non-empty"),
            p95: self.quantile(0.95).expect("non-empty"),
            p99: self.quantile(0.99).expect("non-empty"),
            std_dev: self.moments.std_dev().expect("non-empty"),
        })
    }
}

/// Summary of one completed time window of a [`TumblingWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowSummary {
    /// Window index (`start = index × width`).  Empty windows are skipped, so
    /// consecutive summaries may have non-consecutive indices.
    pub index: u64,
    /// Start of the window (inclusive).
    pub start: SimTime,
    /// End of the window (exclusive).
    pub end: SimTime,
    /// Observations recorded in the window.
    pub count: u64,
    /// Exact mean over all observations of the window.
    pub mean: f64,
    /// Exact maximum over all observations of the window.
    pub max: f64,
    /// Median estimate from the window histogram.
    pub p50: f64,
    /// P95 estimate from the window histogram.
    pub p95: f64,
    /// P99 estimate from the window histogram.
    pub p99: f64,
}

/// Tumbling time windows over a stream: observations are bucketed into
/// fixed-width time windows, each accumulated by its own
/// [`StreamingSummary`].  Crossing a window boundary emits the finished
/// window as a [`WindowSummary`] and resets.
///
/// `Copy`, allocation-free: windowed tail timelines cost O(1) memory over an
/// unbounded run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TumblingWindow {
    width: SimDuration,
    window: u64,
    current: StreamingSummary,
}

impl TumblingWindow {
    /// Creates an accumulator with windows of `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "window width must be positive");
        TumblingWindow {
            width,
            window: 0,
            current: StreamingSummary::new(),
        }
    }

    /// Records an observation at simulated time `time`.
    ///
    /// Returns the summary of the previous window when `time` crosses a window
    /// boundary (the caller sees each window exactly once, in order).
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or `time` moves backwards across a window
    /// boundary.
    pub fn record(&mut self, time: SimTime, value: f64) -> Option<WindowSummary> {
        let index = time.as_micros() / self.width.as_micros();
        let finished = if !self.current.is_empty() && index != self.window {
            assert!(index > self.window, "window time went backwards");
            self.flush()
        } else {
            None
        };
        self.window = index;
        self.current.record(value);
        finished
    }

    /// Finishes the current window (if it has observations) and returns its
    /// summary, resetting the accumulator.  Call once at the end of a run to
    /// emit the final partial window.
    pub fn flush(&mut self) -> Option<WindowSummary> {
        let summary = self.current.summary()?;
        self.current = StreamingSummary::new();
        let start = SimTime::from_micros(self.window * self.width.as_micros());
        Some(WindowSummary {
            index: self.window,
            start,
            end: start + self.width,
            count: summary.count as u64,
            mean: summary.mean,
            max: summary.max,
            p50: summary.p50,
            p95: summary.p95,
            p99: summary.p99,
        })
    }
}

/// Octaves (powers of two) covered by a [`LogHistogram`].
const LOG_HIST_OCTAVES: usize = 32;

/// Linear subdivisions per octave in a [`LogHistogram`].
const LOG_HIST_SUBDIVISIONS: usize = 16;

/// `log2(LOG_HIST_SUBDIVISIONS)` — mantissa bits used for the sub-bin.
const LOG_HIST_SUB_BITS: u32 = 4;

/// Exponent of the smallest tracked bin edge (`2^MIN_EXP`).
const LOG_HIST_MIN_EXP: i32 = -4;

/// Number of bins in a [`LogHistogram`].
pub(crate) const LOG_HIST_BINS: usize = LOG_HIST_OCTAVES * LOG_HIST_SUBDIVISIONS;

const BIN_OVERFLOW: &str = "LogHistogram bin holds more than u32::MAX observations";

/// Exact power of two, built from IEEE-754 bits (no libm, bit-exact on every
/// platform).
fn pow2(exp: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&exp));
    f64::from_bits(((1023 + exp) as u64) << 52)
}

/// A **mergeable** fixed-bin logarithmic histogram for tail quantiles — the
/// quantile half of [`StreamingSummary`].
///
/// Fleet-scale runs need per-shard tail state that folds into a fleet-wide
/// summary, so this histogram trades a fixed 2 KiB of bins for an exact,
/// associative [`LogHistogram::merge`] (bin-wise addition).  Bins count in
/// `u32` to keep that footprint small, since service mode holds one
/// histogram per suite application, per window and per run: a single bin
/// holds at most `u32::MAX` observations, and recording or merging past that
/// panics rather than wrapping.
///
/// Values are binned by order of magnitude: 32 octaves starting at `2^-4`,
/// each split into 16 linear
/// sub-bins taken straight from the top mantissa bits of the `f64` — no
/// `log()` calls, so binning is cheap and bit-exact across platforms.  Within
/// the tracked range `[2^-4, 2^28)` a bin spans 1/16 of an octave, which
/// bounds the relative quantile error by half a bin width: **≤ 3.2%**.
/// Values below/above the range clamp into the first/last bin; the exact
/// `min`/`max` are tracked separately and quantile estimates are clamped to
/// `[min, max]`, so degenerate and out-of-range streams still report sane
/// tails.
///
/// `Copy`, allocation-free, like every other streaming accumulator here.
///
/// # Example
///
/// ```
/// use versaslot_sim::LogHistogram;
///
/// let mut left = LogHistogram::new();
/// let mut right = LogHistogram::new();
/// for i in 1..=500 {
///     left.record(i as f64);
///     right.record((500 + i) as f64);
/// }
/// left.merge(&right);
/// let p99 = left.quantile(0.99).unwrap();
/// assert!((p99 - 990.0).abs() / 990.0 < 0.04);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogHistogram {
    count: u64,
    min: f64,
    max: f64,
    bins: [u32; LOG_HIST_BINS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            bins: [0; LOG_HIST_BINS],
        }
    }

    /// Bin index for `value`, clamped into `[0, LOG_HIST_BINS)`.
    fn index_of(value: f64) -> usize {
        if value <= 0.0 {
            return 0;
        }
        let bits = value.to_bits();
        // Unbiased binary exponent; subnormals (biased 0) land far below
        // MIN_EXP and clamp to bin 0 like any other underflow.
        let exp = ((bits >> 52) & 0x7FF) as i32 - 1023;
        let octave = exp - LOG_HIST_MIN_EXP;
        if octave < 0 {
            return 0;
        }
        let sub =
            ((bits >> (52 - LOG_HIST_SUB_BITS)) & (LOG_HIST_SUBDIVISIONS as u64 - 1)) as usize;
        (octave as usize * LOG_HIST_SUBDIVISIONS + sub).min(LOG_HIST_BINS - 1)
    }

    /// Midpoint of bin `idx` — the representative value quantiles report.
    fn midpoint(idx: usize) -> f64 {
        let octave = (idx / LOG_HIST_SUBDIVISIONS) as i32 + LOG_HIST_MIN_EXP;
        let sub = (idx % LOG_HIST_SUBDIVISIONS) as f64;
        let base = pow2(octave);
        let width = base / LOG_HIST_SUBDIVISIONS as f64;
        base + (sub + 0.5) * width
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or its bin already holds `u32::MAX`
    /// observations.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bin = &mut self.bins[Self::index_of(value)];
        *bin = bin.checked_add(1).expect(BIN_OVERFLOW);
    }

    /// Merges another histogram into this one.
    ///
    /// Bin-wise addition — exact and associative: the merge of two histograms
    /// is bit-identical to the histogram of the concatenated streams, in any
    /// merge order.
    ///
    /// # Panics
    ///
    /// Panics if a merged bin would exceed `u32::MAX` observations.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (bin, &add) in self.bins.iter_mut().zip(other.bins.iter()) {
            *bin = bin.checked_add(add).expect(BIN_OVERFLOW);
        }
    }

    /// Nearest-rank `q`-quantile estimate, or `None` when empty.
    ///
    /// Walks the cumulative bin counts to the nearest-rank bin and reports its
    /// midpoint, clamped to the exact `[min, max]` — within the tracked range
    /// the relative error is at most half a bin width (≤ 3.2%).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (idx, &n) in self.bins.iter().enumerate() {
            cumulative += u64::from(n);
            if cumulative >= rank {
                return Some(Self::midpoint(idx).clamp(self.min, self.max));
            }
        }
        // Unreachable (bins sum to count), but stay total.
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn summary_of_known_sample() {
        // Exact quantiles of the stored sample, and the streaming summary's
        // exact moments and near quantiles of the same sample.
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&values, 0.50), Some(3.0));
        assert_eq!(percentile(&values, 0.95), Some(5.0));
        assert_eq!(percentile(&values, 0.99), Some(5.0));
        let mut acc = StreamingSummary::new();
        values.iter().for_each(|&v| acc.record(v));
        let summary = acc.summary().unwrap();
        assert_eq!(summary.count, 5);
        assert!((summary.mean - 3.0).abs() < 1e-12);
        assert_eq!(summary.min, 1.0);
        assert_eq!(summary.max, 5.0);
        assert!((summary.std_dev - 2.0_f64.sqrt()).abs() < 1e-12);
        for (q, estimate, exact, error) in quantile_errors(&summary, &values) {
            assert!(error < HALF_BIN, "q{q}: {estimate} vs {exact}");
        }
    }

    #[test]
    fn empty_sample_has_no_summary() {
        assert_eq!(percentile(&[], 0.5), None);
        assert!(StreamingSummary::new().summary().is_none());
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 0.0), Some(42.0));
        assert_eq!(percentile(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn percentile_is_order_insensitive() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&a, 0.8), percentile(&b, 0.8));
    }

    #[test]
    fn sorted_percentile_matches_percentile() {
        let mut values: Vec<f64> = (0..97).map(|i| ((i * 37) % 89) as f64).collect();
        let unsorted = values.clone();
        values.sort_unstable_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(sorted_percentile(&values, q), percentile(&unsorted, q));
        }
        assert_eq!(sorted_percentile(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_rejects_bad_quantile() {
        percentile(&[1.0], 1.5);
    }

    #[test]
    fn welford_known_sample() {
        let mut acc = Welford::new();
        assert!(acc.is_empty());
        assert_eq!(acc.mean(), None);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            acc.record(v);
        }
        assert_eq!(acc.count(), 5);
        assert!((acc.mean().unwrap() - 3.0).abs() < 1e-12);
        assert!((acc.variance().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(acc.min(), Some(1.0));
        assert_eq!(acc.max(), Some(5.0));
    }

    #[test]
    fn welford_merge_matches_single_stream() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 31) % 97) as f64).collect();
        let mut whole = Welford::new();
        for &v in &values {
            whole.record(v);
        }
        let (left, right) = values.split_at(73);
        let mut a = Welford::new();
        let mut b = Welford::new();
        left.iter().for_each(|&v| a.record(v));
        right.iter().for_each(|&v| b.record(v));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merging into/from empty accumulators is the identity.
        let mut empty = Welford::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
        whole.merge(&Welford::new());
        assert_eq!(empty, whole);
    }

    #[test]
    fn streaming_summary_snapshot_is_consistent() {
        let mut acc = StreamingSummary::new();
        assert!(acc.summary().is_none());
        for i in 1..=1_000 {
            acc.record(i as f64);
        }
        let summary = acc.summary().unwrap();
        assert_eq!(summary.count, 1_000);
        assert!((summary.mean - 500.5).abs() < 1e-9);
        assert_eq!(summary.min, 1.0);
        assert_eq!(summary.max, 1_000.0);
        assert!(summary.p50 <= summary.p95 && summary.p95 <= summary.p99);
        assert!(summary.p99 <= summary.max);
    }

    #[test]
    fn tumbling_window_emits_finished_windows_in_order() {
        let mut window = TumblingWindow::new(SimDuration::from_millis(100));
        let mut emitted = Vec::new();
        for i in 0..1_000u64 {
            // One observation per millisecond: ten 100-observation windows.
            if let Some(summary) = window.record(SimTime::from_millis(i), i as f64) {
                emitted.push(summary);
            }
        }
        let last = window.flush().unwrap();
        emitted.push(last);
        assert_eq!(emitted.len(), 10);
        for (i, summary) in emitted.iter().enumerate() {
            assert_eq!(summary.index, i as u64);
            assert_eq!(summary.count, 100);
            assert_eq!(summary.start, SimTime::from_millis(i as u64 * 100));
            let lo = (i * 100) as f64;
            let hi = lo + 99.0;
            assert!((summary.mean - (lo + hi) / 2.0).abs() < 1e-9);
            assert_eq!(summary.max, hi);
            assert!(summary.p50 >= lo && summary.p50 <= hi);
            assert!(summary.p99 >= summary.p95 && summary.p95 >= summary.p50);
        }
        assert!(window.flush().is_none(), "flush is idempotent");
    }

    #[test]
    fn tumbling_window_skips_empty_windows_and_is_deterministic() {
        let make = || {
            let mut window = TumblingWindow::new(SimDuration::from_secs(1));
            let mut out = Vec::new();
            for i in 0..500u64 {
                // Burst in window 0, silence, burst in window 7.
                let t = if i < 250 { i } else { 7_000 + i };
                if let Some(s) = window.record(SimTime::from_millis(t), (i % 97) as f64) {
                    out.push(s);
                }
            }
            out.extend(window.flush());
            out
        };
        let a = make();
        let b = make();
        assert_eq!(a, b, "same stream, same windows");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].index, 0);
        assert_eq!(a[1].index, 7);
        assert_eq!(a[0].count, 250);
        assert_eq!(a[1].count, 250);
    }

    #[test]
    fn log_histogram_empty_and_single_value() {
        let hist = LogHistogram::new();
        assert_eq!(hist.count, 0);
        assert_eq!(hist.quantile(0.99), None);

        let mut hist = LogHistogram::new();
        hist.record(42.0);
        assert_eq!(hist.count, 1);
        // A single value: every quantile clamps onto it exactly.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(hist.quantile(q), Some(42.0));
        }
    }

    #[test]
    fn log_histogram_quantiles_are_monotone_and_bounded() {
        let mut hist = LogHistogram::new();
        for i in 1..=10_000 {
            hist.record(i as f64);
        }
        let p50 = hist.quantile(0.50).unwrap();
        let p95 = hist.quantile(0.95).unwrap();
        let p99 = hist.quantile(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= hist.max);
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.04);
        assert!((p95 - 9_500.0).abs() / 9_500.0 < 0.04);
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.04);
    }

    #[test]
    fn log_histogram_clamps_out_of_range_values() {
        let mut hist = LogHistogram::new();
        hist.record(0.0); // below the first bin edge
        hist.record(1e-300); // subnormal-adjacent underflow
        hist.record(1e300); // far past the last bin
        assert_eq!(hist.count, 3);
        assert_eq!(hist.min, 0.0);
        assert_eq!(hist.max, 1e300);
        // Quantiles stay inside the exact observed range.
        for q in [0.0, 0.5, 1.0] {
            let v = hist.quantile(q).unwrap();
            assert!((0.0..=1e300).contains(&v));
        }
    }

    #[test]
    fn log_histogram_merge_is_bin_exact() {
        let values: Vec<f64> = (0..500).map(|i| 1.0 + ((i * 37) % 997) as f64).collect();
        let mut whole = LogHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        let (left, right) = values.split_at(123);
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        left.iter().for_each(|&v| a.record(v));
        right.iter().for_each(|&v| b.record(v));
        a.merge(&b);
        // Bin-wise addition: the merge is bit-identical to one stream.
        assert_eq!(a, whole);
        // Merging with an empty histogram is the identity in both directions.
        let mut empty = LogHistogram::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
        whole.merge(&LogHistogram::new());
        assert_eq!(whole, empty);
    }

    #[test]
    #[should_panic(expected = "u32::MAX")]
    fn log_histogram_bin_overflow_panics_instead_of_wrapping() {
        let mut hist = LogHistogram::new();
        hist.record(1.0);
        // Doubling the one occupied bin reaches 2^32 after 32 merges.
        for _ in 0..32 {
            let copy = hist;
            hist.merge(&copy);
        }
    }

    #[test]
    fn streaming_summary_merge_combines_moments_and_tails() {
        let values: Vec<f64> = (1..=2_000).map(|i| i as f64).collect();
        let (left, right) = values.split_at(613);
        let mut merged = StreamingSummary::new();
        let mut other = StreamingSummary::new();
        left.iter().for_each(|&v| merged.record(v));
        right.iter().for_each(|&v| other.record(v));
        merged.merge(&other);
        let merged = merged.summary().unwrap();
        // Two-pass moments of the whole sample are the reference.
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let std_dev = (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt();
        assert_eq!(merged.count, values.len());
        assert!((merged.mean - mean).abs() < 1e-9);
        assert_eq!(merged.min, 1.0);
        assert_eq!(merged.max, 2_000.0);
        assert!((merged.std_dev - std_dev).abs() < 1e-6);
        for (q, estimate, exact, error) in quantile_errors(&merged, &values) {
            assert!(error < HALF_BIN, "q{q}: {estimate} vs {exact}");
        }
        let mut empty = StreamingSummary::new();
        empty.merge(&StreamingSummary::new());
        assert!(empty.summary().is_none());
    }

    #[test]
    fn tumbling_window_tails_track_exact_window_quantiles() {
        // Four one-second windows of 2,000 exponential observations each:
        // every window's tails land within the histogram's half-bin bound of
        // that window's exact quantiles.
        const PER_WINDOW: usize = 2_000;
        let values = sample(1, 7, 4 * PER_WINDOW);
        let mut window = TumblingWindow::new(SimDuration::from_secs(1));
        let mut emitted = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            let time = SimTime::from_micros((i * 1_000_000 / PER_WINDOW) as u64);
            emitted.extend(window.record(time, v));
        }
        emitted.extend(window.flush());
        assert_eq!(emitted.len(), 4);
        for (summary, chunk) in emitted.iter().zip(values.chunks(PER_WINDOW)) {
            assert_eq!(summary.count, PER_WINDOW as u64);
            for (q, estimate) in [
                (0.50, summary.p50),
                (0.95, summary.p95),
                (0.99, summary.p99),
            ] {
                let exact = percentile(chunk, q).unwrap();
                assert!(
                    (estimate - exact).abs() / exact < HALF_BIN,
                    "window {}: q{q} {estimate} vs exact {exact}",
                    summary.index
                );
            }
        }
    }

    /// The histogram's documented bound on the relative quantile error: half
    /// a bin, 1/32 of an octave.
    const HALF_BIN: f64 = 0.032;

    /// `(q, estimate, exact, relative error)` of `summary`'s p50/p95/p99
    /// against the exact nearest-rank quantiles of `values`.
    fn quantile_errors(summary: &Summary, values: &[f64]) -> [(f64, f64, f64, f64); 3] {
        [
            (0.50, summary.p50),
            (0.95, summary.p95),
            (0.99, summary.p99),
        ]
        .map(|(q, estimate)| {
            let exact = percentile(values, q).unwrap();
            (
                q,
                estimate,
                exact,
                (estimate - exact).abs() / exact.abs().max(1e-12),
            )
        })
    }

    /// Deterministic sample from one of the three accuracy-test distributions.
    fn sample(distribution: usize, seed: u64, n: usize) -> Vec<f64> {
        let mut rng = SimRng::seed_from(seed ^ 0xACC0_01D5);
        (0..n)
            .map(|_| {
                let u = rng.gen_unit();
                match distribution {
                    // Uniform on [100, 1000).
                    0 => 100.0 + 900.0 * u,
                    // Exponential with mean 100.
                    1 => -(1.0 - u).ln() * 100.0,
                    // Bimodal: 25% fast mode, 75% slow mode.
                    _ => {
                        if rng.gen_bool(0.25) {
                            10.0 + 20.0 * u
                        } else {
                            60.0 + 60.0 * u
                        }
                    }
                }
            })
            .collect()
    }

    /// Deterministic response-time stream shaped like service mode's: i.i.d.
    /// exponential (mean 100), exponential whose scale ramps up tenfold over
    /// the stream (a rising arrival rate), or a backlog that grows
    /// monotonically with per-request service noise on top.
    fn service_stream(kind: usize, seed: u64, n: usize) -> Vec<f64> {
        let mut rng = SimRng::seed_from(seed ^ 0x57_12EA);
        let mut backlog = 0.0;
        (0..n)
            .map(|i| {
                let exponential = -(1.0 - rng.gen_unit()).ln() * 100.0;
                match kind {
                    0 => exponential,
                    1 => exponential * (1.0 + 9.0 * i as f64 / n as f64),
                    _ => {
                        backlog += exponential / 10.0;
                        backlog + 100.0 * rng.gen_unit()
                    }
                }
            })
            .collect()
    }

    proptest! {
        /// The plain mean always lies between min and max, and the exact
        /// percentiles are monotone from the minimum (q = 0) to the maximum
        /// (q = 1).
        #[test]
        fn prop_summary_invariants(values in prop::collection::vec(0.0f64..1e6, 1..200)) {
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let q = |q| percentile(&values, q).unwrap();
            let (min, max) = (q(0.0), q(1.0));
            prop_assert!(values.iter().all(|&v| min <= v && v <= max));
            prop_assert!(min <= mean + 1e-9);
            prop_assert!(mean <= max + 1e-9);
            prop_assert!(min <= q(0.50));
            prop_assert!(q(0.50) <= q(0.95));
            prop_assert!(q(0.95) <= q(0.99));
            prop_assert!(q(0.99) <= max);
        }

        /// The reported percentile is always one of the observed values.
        #[test]
        fn prop_percentile_is_an_observation(
            values in prop::collection::vec(0.0f64..1e6, 1..100),
            q in 0.0f64..=1.0,
        ) {
            let p = percentile(&values, q).unwrap();
            prop_assert!(values.iter().any(|v| (*v - p).abs() < f64::EPSILON));
        }

        /// Selection-based percentile agrees with a full sort at every rank.
        #[test]
        fn prop_percentile_matches_full_sort(
            values in prop::collection::vec(0.0f64..1e6, 1..150),
            q in 0.0f64..=1.0,
        ) {
            let mut sorted = values.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            prop_assert_eq!(percentile(&values, q), sorted_percentile(&sorted, q));
        }

        /// Welford matches the two-pass mean/variance to 1e-9 (relative).
        #[test]
        fn prop_welford_matches_two_pass(
            values in prop::collection::vec(-1e6f64..1e6, 1..400),
        ) {
            let mut acc = Welford::new();
            for &v in &values {
                acc.record(v);
            }
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let variance = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
            prop_assert!(close(acc.mean().unwrap(), mean), "mean {} vs {}", acc.mean().unwrap(), mean);
            prop_assert!(close(acc.variance().unwrap(), variance), "variance {} vs {}", acc.variance().unwrap(), variance);
        }

        /// Sharded-merge accuracy bound: split a sample across four shards,
        /// record each shard into its own StreamingSummary, merge, and pin the
        /// merged quantiles within the histogram's half-bin error bound of the
        /// exact *pooled* nearest-rank quantiles.  The moments must match the
        /// two-pass pooled values almost exactly — the Welford merge is not an
        /// approximation.
        #[test]
        fn prop_log_histogram_merged_quantiles_track_pooled(
            seed in 0u64..48,
            distribution in 0usize..3,
        ) {
            const SHARDS: usize = 4;
            let values = sample(distribution, seed, 40_000);
            let mut pooled = StreamingSummary::new();
            for shard in 0..SHARDS {
                let mut acc = StreamingSummary::new();
                for v in values.iter().skip(shard).step_by(SHARDS) {
                    acc.record(*v);
                }
                pooled.merge(&acc);
            }
            let merged = pooled.summary().unwrap();
            prop_assert_eq!(merged.count, values.len());
            let exact_mean = values.iter().sum::<f64>() / values.len() as f64;
            prop_assert!((merged.mean - exact_mean).abs() <= 1e-9 * exact_mean.abs().max(1.0));
            for (q, estimate, exact, error) in quantile_errors(&merged, &values) {
                prop_assert!(
                    error < HALF_BIN,
                    "distribution {} seed {}: q{} merged {} vs pooled exact {} ({:.3}% off)",
                    distribution, seed, q, estimate, exact, error * 100.0
                );
            }
        }

        /// Accuracy on the streams service mode produces, not just i.i.d.
        /// draws: on i.i.d., ramped-rate and backlogged streams the
        /// StreamingSummary p50/p95/p99 stay within the histogram's half-bin
        /// bound of the exact nearest-rank quantiles.
        #[test]
        fn prop_streaming_summary_tracks_non_stationary_streams(seed in 0u64..1_000) {
            for kind in 0..3 {
                let values = service_stream(kind, seed, 20_000);
                let mut acc = StreamingSummary::new();
                values.iter().for_each(|&v| acc.record(v));
                let summary = acc.summary().unwrap();
                for (q, estimate, exact, error) in quantile_errors(&summary, &values) {
                    prop_assert!(
                        error < HALF_BIN,
                        "stream {} seed {}: q{} estimate {} vs exact {} ({:.3}% off)",
                        kind, seed, q, estimate, exact, error * 100.0
                    );
                }
            }
        }
    }
}
