//! FPGA fabric resources.
//!
//! Slot capacities and task footprints are expressed as a [`ResourceVector`] of the
//! four resource classes the paper reports on (LUTs, flip-flops, DSP slices and
//! BRAM tiles).  Figure 7 of the paper is entirely about how well task
//! implementations fill these vectors inside Little versus Big slots.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

use serde::{Deserialize, Serialize};

/// Quantities of the four fabric resource classes.
///
/// # Example
///
/// ```
/// use versaslot_fpga::ResourceVector;
///
/// let task = ResourceVector::new(22_800, 36_000, 48, 30);
/// let slot = ResourceVector::new(40_000, 80_000, 160, 120);
/// assert!(task.fits_within(&slot));
/// assert!((task.utilization_of(&slot).lut - 0.57).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ResourceVector {
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// DSP slices.
    pub dsp: u64,
    /// Block RAM tiles.
    pub bram: u64,
}

/// Per-class utilization fractions produced by [`ResourceVector::utilization_of`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Utilization {
    /// LUT utilization in `[0, ∞)` (values above 1.0 mean over-subscription).
    pub lut: f64,
    /// FF utilization.
    pub ff: f64,
    /// DSP utilization.
    pub dsp: f64,
    /// BRAM utilization.
    pub bram: f64,
}

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector {
        lut: 0,
        ff: 0,
        dsp: 0,
        bram: 0,
    };

    /// Creates a vector from explicit quantities.
    pub const fn new(lut: u64, ff: u64, dsp: u64, bram: u64) -> Self {
        ResourceVector { lut, ff, dsp, bram }
    }

    /// Returns `true` if every component of `self` fits in `capacity`.
    pub fn fits_within(&self, capacity: &ResourceVector) -> bool {
        self.lut <= capacity.lut
            && self.ff <= capacity.ff
            && self.dsp <= capacity.dsp
            && self.bram <= capacity.bram
    }

    /// Per-class utilization of this footprint inside `capacity`.
    ///
    /// Classes with zero capacity report zero utilization (rather than dividing by
    /// zero), which matches how synthesis reports treat absent resources.
    pub fn utilization_of(&self, capacity: &ResourceVector) -> Utilization {
        fn ratio(used: u64, cap: u64) -> f64 {
            if cap == 0 {
                0.0
            } else {
                used as f64 / cap as f64
            }
        }
        Utilization {
            lut: ratio(self.lut, capacity.lut),
            ff: ratio(self.ff, capacity.ff),
            dsp: ratio(self.dsp, capacity.dsp),
            bram: ratio(self.bram, capacity.bram),
        }
    }

    /// Scales every component by `factor`, rounding to the nearest unit.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(&self, factor: f64) -> ResourceVector {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        ResourceVector {
            lut: (self.lut as f64 * factor).round() as u64,
            ff: (self.ff as f64 * factor).round() as u64,
            dsp: (self.dsp as f64 * factor).round() as u64,
            bram: (self.bram as f64 * factor).round() as u64,
        }
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;

    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            dsp: self.dsp + rhs.dsp,
            bram: self.bram + rhs.bram,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;

    fn sub(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            lut: self.lut.checked_sub(rhs.lut).expect("LUT underflow"),
            ff: self.ff.checked_sub(rhs.ff).expect("FF underflow"),
            dsp: self.dsp.checked_sub(rhs.dsp).expect("DSP underflow"),
            bram: self.bram.checked_sub(rhs.bram).expect("BRAM underflow"),
        }
    }
}

impl Mul<u64> for ResourceVector {
    type Output = ResourceVector;

    fn mul(self, rhs: u64) -> ResourceVector {
        ResourceVector {
            lut: self.lut * rhs,
            ff: self.ff * rhs,
            dsp: self.dsp * rhs,
            bram: self.bram * rhs,
        }
    }
}

impl Sum for ResourceVector {
    fn sum<I: Iterator<Item = ResourceVector>>(iter: I) -> ResourceVector {
        iter.fold(ResourceVector::ZERO, |acc, v| acc + v)
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} LUT / {} FF / {} DSP / {} BRAM",
            self.lut, self.ff, self.dsp, self.bram
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_vector() -> impl Strategy<Value = ResourceVector> {
        (0u64..100_000, 0u64..200_000, 0u64..512, 0u64..512)
            .prop_map(|(lut, ff, dsp, bram)| ResourceVector::new(lut, ff, dsp, bram))
    }

    #[test]
    fn fits_within_is_component_wise() {
        let slot = ResourceVector::new(40_000, 80_000, 160, 120);
        assert!(ResourceVector::new(40_000, 80_000, 160, 120).fits_within(&slot));
        assert!(!ResourceVector::new(40_001, 0, 0, 0).fits_within(&slot));
        assert!(!ResourceVector::new(0, 0, 161, 0).fits_within(&slot));
    }

    #[test]
    fn utilization_handles_zero_capacity() {
        let used = ResourceVector::new(10, 10, 10, 10);
        let cap = ResourceVector::new(20, 0, 40, 0);
        let util = used.utilization_of(&cap);
        assert_eq!(util.lut, 0.5);
        assert_eq!(util.ff, 0.0);
        assert_eq!(util.dsp, 0.25);
        assert_eq!(util.bram, 0.0);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = ResourceVector::new(1, 2, 3, 4);
        let b = ResourceVector::new(10, 20, 30, 40);
        assert_eq!(a + b, ResourceVector::new(11, 22, 33, 44));
        assert_eq!(b - a, ResourceVector::new(9, 18, 27, 36));
        assert_eq!(a * 3, ResourceVector::new(3, 6, 9, 12));
        let total: ResourceVector = [a, b].into_iter().sum();
        assert_eq!(total, a + b);
    }

    #[test]
    #[should_panic(expected = "LUT underflow")]
    fn subtraction_underflow_panics() {
        let _ = ResourceVector::new(1, 0, 0, 0) - ResourceVector::new(2, 0, 0, 0);
    }

    #[test]
    fn scale_rounds() {
        let v = ResourceVector::new(100, 200, 5, 3);
        assert_eq!(v.scale(0.5), ResourceVector::new(50, 100, 3, 2));
        assert_eq!(v.scale(0.0), ResourceVector::ZERO);
    }

    #[test]
    fn display_lists_all_classes() {
        let text = ResourceVector::new(1, 2, 3, 4).to_string();
        assert!(text.contains("1 LUT") && text.contains("4 BRAM"));
    }

    proptest! {
        /// A footprint always fits in itself, and fits_within is monotone in the capacity.
        #[test]
        fn prop_fits_within_monotone(a in small_vector(), extra in small_vector()) {
            prop_assert!(a.fits_within(&a));
            prop_assert!(a.fits_within(&(a + extra)));
        }

        /// Utilization of a footprint inside a capacity it fits is at most 1 per class.
        #[test]
        fn prop_utilization_bounded_when_fitting(a in small_vector(), extra in small_vector()) {
            let cap = a + extra;
            let util = a.utilization_of(&cap);
            prop_assert!(util.lut <= 1.0 + 1e-12);
            prop_assert!(util.ff <= 1.0 + 1e-12);
            prop_assert!(util.dsp <= 1.0 + 1e-12);
            prop_assert!(util.bram <= 1.0 + 1e-12);
        }

        /// Addition then subtraction round-trips.
        #[test]
        fn prop_add_sub_roundtrip(a in small_vector(), b in small_vector()) {
            prop_assert_eq!((a + b) - b, a);
        }
    }
}
