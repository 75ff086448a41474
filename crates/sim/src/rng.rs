//! Deterministic random number generation.
//!
//! The paper's evaluation uses randomly generated application sequences (random
//! batch sizes and arrival intervals).  To make every experiment reproducible the
//! simulation draws all randomness from a [`SimRng`], a thin wrapper around a
//! ChaCha stream cipher RNG seeded explicitly by the harness.  The same seed always
//! yields the same workload and therefore the same simulation result.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::time::SimDuration;

/// A deterministic, seedable random number generator for simulations.
///
/// # Example
///
/// ```
/// use versaslot_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.gen_range(0..100u32), b.gen_range(0..100u32));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha12Rng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: ChaCha12Rng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator.
    ///
    /// Each `(seed, stream)` pair produces a distinct, reproducible stream; the
    /// workload generator uses one stream per application sequence so that adding a
    /// sequence never perturbs the others.
    pub fn derive(&self, stream: u64) -> Self {
        let mut child = self.inner.clone();
        child.set_stream(stream);
        SimRng { inner: child }
    }

    /// Samples a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// Samples a uniformly distributed value in `[0, 1)`.
    pub fn gen_unit(&mut self) -> f64 {
        self.inner.gen_range(0.0..1.0)
    }

    /// Samples a duration uniformly between `lo` and `hi` (inclusive bounds in
    /// microseconds).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn gen_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "empty duration range: {lo} > {hi}");
        if lo == hi {
            return lo;
        }
        SimDuration::from_micros(self.inner.gen_range(lo.as_micros()..=hi.as_micros()))
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derived_streams_are_independent_and_reproducible() {
        let root = SimRng::seed_from(9);
        let mut s1 = root.derive(1);
        let mut s1_again = root.derive(1);
        let mut s2 = root.derive(2);
        assert_eq!(s1.next_u64(), s1_again.next_u64());
        assert_ne!(root.derive(1).next_u64(), s2.next_u64());
    }

    #[test]
    fn gen_duration_respects_bounds() {
        let mut rng = SimRng::seed_from(3);
        let lo = SimDuration::from_millis(150);
        let hi = SimDuration::from_millis(200);
        for _ in 0..200 {
            let d = rng.gen_duration(lo, hi);
            assert!(d >= lo && d <= hi, "{d} outside [{lo}, {hi}]");
        }
        assert_eq!(rng.gen_duration(lo, lo), lo);
    }
}
