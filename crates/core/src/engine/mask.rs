//! One-word slot bitmasks.
//!
//! [`SlotMask`] is a set of slot indices held in one `u64`, bit *i* for slot
//! *i*, so a run has at most [`MAX_SLOTS`] = 64 slots (enforced by
//! `SystemConfig::validate`).  That is ample: a fleet scales out by shards,
//! one simulator per shard, so one simulator models at most a small cluster
//! (the paper's two-board cluster has 14 slots).
//!
//! A mask is `Copy`, and every policy-facing query is one eager bit
//! expression over the `SlotIndex` masks, such as
//! `free & (enabled | home) & kind`, read with a popcount, a trailing-zeros
//! scan or [`SlotMask::iter`].

use std::ops::{BitAnd, BitOr, Not};

use super::MAX_SLOTS;

/// A set of slot indices below [`MAX_SLOTS`].
///
/// Indexing at or past [`MAX_SLOTS`] is a bug, caught in debug builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotMask(u64);

impl SlotMask {
    /// The empty set.
    pub(crate) const EMPTY: SlotMask = SlotMask(0);
    /// Every index below [`MAX_SLOTS`]: the identity of `&`.
    pub(crate) const FULL: SlotMask = SlotMask(u64::MAX);

    #[inline(always)]
    fn bit(idx: usize) -> u64 {
        debug_assert!(idx < MAX_SLOTS, "slot {idx} past the {MAX_SLOTS}-slot mask");
        1 << idx
    }

    /// Adds `idx`.
    #[inline]
    pub(crate) fn insert(&mut self, idx: usize) {
        self.0 |= Self::bit(idx);
    }

    /// Removes `idx`.
    #[inline]
    pub(crate) fn remove(&mut self, idx: usize) {
        self.0 &= !Self::bit(idx);
    }

    /// Whether `idx` is in the set.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn contains(self, idx: usize) -> bool {
        self.0 & Self::bit(idx) != 0
    }

    /// Number of indices in the set.
    #[inline]
    pub(crate) fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    #[inline(always)]
    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The lowest index in the set, if any.
    #[inline]
    pub(crate) fn first(self) -> Option<usize> {
        (self.0 != 0).then(|| self.0.trailing_zeros() as usize)
    }

    /// The indices in the set, ascending.
    #[inline]
    pub(crate) fn iter(self) -> SlotIndexIter {
        SlotIndexIter(self.0)
    }
}

impl BitAnd for SlotMask {
    type Output = SlotMask;

    #[inline(always)]
    fn bitand(self, rhs: SlotMask) -> SlotMask {
        SlotMask(self.0 & rhs.0)
    }
}

impl BitOr for SlotMask {
    type Output = SlotMask;

    #[inline(always)]
    fn bitor(self, rhs: SlotMask) -> SlotMask {
        SlotMask(self.0 | rhs.0)
    }
}

impl Not for SlotMask {
    type Output = SlotMask;

    #[inline(always)]
    fn not(self) -> SlotMask {
        SlotMask(!self.0)
    }
}

/// The set bits of a [`SlotMask`], ascending, by trailing-zeros and
/// clear-lowest-bit steps.
#[derive(Debug, Clone)]
pub(crate) struct SlotIndexIter(u64);

impl Iterator for SlotIndexIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let idx = SlotMask(self.0).first()?;
        self.0 &= self.0 - 1;
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Applies set/clear operations to a mask and to a plain boolean model.
    fn model_ops(ops: &[(bool, usize)]) -> (SlotMask, [bool; MAX_SLOTS]) {
        let mut mask = SlotMask::EMPTY;
        let mut model = [false; MAX_SLOTS];
        for &(set, idx) in ops {
            if set {
                mask.insert(idx);
            } else {
                mask.remove(idx);
            }
            model[idx] = set;
        }
        (mask, model)
    }

    fn model_bits(model: &[bool]) -> Vec<usize> {
        model
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// A slot index; one draw in five is bit 0 or bit 63, the word's ends.
    fn any_idx() -> impl Strategy<Value = usize> {
        (0..MAX_SLOTS + 16).prop_map(|i| match i {
            i if i < MAX_SLOTS => i,
            i if i % 2 == 0 => 0,
            _ => MAX_SLOTS - 1,
        })
    }

    fn any_ops() -> impl Strategy<Value = Vec<(bool, usize)>> {
        prop::collection::vec((prop::bool::ANY, any_idx()), 0..120)
    }

    #[test]
    fn word_boundary_bits_round_trip() {
        let mut mask = SlotMask::EMPTY;
        for idx in [0, 31, MAX_SLOTS - 1] {
            assert!(!mask.contains(idx));
            mask.insert(idx);
            assert!(mask.contains(idx), "bit {idx} did not stick");
        }
        assert_eq!(mask.count(), 3);
        assert_eq!(mask.first(), Some(0));
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![0, 31, MAX_SLOTS - 1]);
        mask.remove(0);
        assert!(!mask.contains(0));
        assert_eq!(mask.first(), Some(31));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past the 64-slot mask")]
    fn debug_builds_catch_out_of_capacity_bits() {
        let mut mask = SlotMask::EMPTY;
        mask.insert(MAX_SLOTS);
    }

    proptest! {
        /// Set/clear sequences agree with a `[bool; 64]` model: membership,
        /// popcount, lowest bit and iteration.
        #[test]
        fn prop_mask_matches_bool_vec_model(ops in any_ops()) {
            let (mask, model) = model_ops(&ops);
            let expected = model_bits(&model);

            prop_assert_eq!(mask.count() as usize, expected.len());
            prop_assert_eq!(mask.is_empty(), expected.is_empty());
            prop_assert_eq!(mask.first(), expected.first().copied());
            prop_assert_eq!(mask.iter().collect::<Vec<_>>(), expected);
            for (idx, &bit) in model.iter().enumerate() {
                prop_assert_eq!(mask.contains(idx), bit);
            }
        }

        /// Union and subtraction (`a & !b`) agree with element-wise boolean
        /// operations, and equality with the models' equality.
        #[test]
        fn prop_set_ops_match_bool_vec_model(a_ops in any_ops(), b_ops in any_ops()) {
            let (a, a_model) = model_ops(&a_ops);
            let (b, b_model) = model_ops(&b_ops);

            let union: Vec<bool> = a_model.iter().zip(&b_model).map(|(&x, &y)| x || y).collect();
            prop_assert_eq!((a | b).iter().collect::<Vec<_>>(), model_bits(&union));
            let diff: Vec<bool> = a_model.iter().zip(&b_model).map(|(&x, &y)| x && !y).collect();
            prop_assert_eq!((a & !b).iter().collect::<Vec<_>>(), model_bits(&diff));
            prop_assert_eq!(a_model == b_model, a == b);
        }

        /// The grant query's shape, `base & (and | or) & FULL`, equals the
        /// expression evaluated bit by bit on the models.
        #[test]
        fn prop_query_matches_materialised_model(
            base_ops in any_ops(),
            and_ops in any_ops(),
            or_ops in any_ops(),
        ) {
            let (base, base_model) = model_ops(&base_ops);
            let (and, and_model) = model_ops(&and_ops);
            let (or, or_model) = model_ops(&or_ops);

            let query = base & (and | or) & SlotMask::FULL;
            let expected: Vec<usize> = (0..MAX_SLOTS)
                .filter(|&i| base_model[i] && (and_model[i] || or_model[i]))
                .collect();

            prop_assert_eq!(query.iter().collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(query.count() as usize, expected.len());
            prop_assert_eq!(query.first(), expected.first().copied());
            prop_assert_eq!(query.is_empty(), expected.is_empty());
        }
    }
}
