//! Multi-word slot bitmasks and the non-allocating combined-mask iterator.
//!
//! [`SlotMask`] replaces the engine's former raw `u64` masks: one bit per slot,
//! stored as a fixed number of 64-bit words.  The first two (`INLINE_WORDS`)
//! words live inline in the struct (so runs of up to 128 slots never follow a
//! heap pointer); larger fleets spill the remaining words into a `Vec` that is
//! allocated once at construction and never resized.  All masks of one
//! simulator share the same word count, so word-wise set operations
//! (union/subtract) and comparisons are straight loops over `u64`s.
//!
//! Policy-facing queries (`grantable_slots`, `loaded_idle_slots`, slot counts)
//! never materialise a combined mask: a `MaskQuery` lazily evaluates
//! `base & (and | or_into_and) & kind` one word at a time, and
//! [`SlotIndexIter`] walks the set bits of that expression with
//! trailing-zeros/clear-lowest-bit scans — zero allocation, zero temporary
//! masks, regardless of fleet size.

/// Bits per mask word.
pub(crate) const WORD_BITS: usize = 64;

/// Words stored inline before spilling to the heap (128 slots inline).
const INLINE_WORDS: usize = 2;

/// Splits a bit index into its word index and a single-bit word mask.
///
/// The shift amount is always `< 64`, so this is well-defined for *any* index
/// (the former `1u64 << idx` construction was UB-shaped for `idx >= 64`).
#[inline]
fn split(idx: usize) -> (usize, u64) {
    (idx / WORD_BITS, 1u64 << (idx % WORD_BITS))
}

/// A fixed-width bitmask over slot indices.
///
/// Created with a capacity in bits; see the [module docs](self) for the
/// inline-then-spill layout.  Indexing past the capacity is a bug: it panics
/// in debug builds (and at worst panics — never wraps or aliases a low bit —
/// in release builds).
#[derive(Debug, Clone)]
pub struct SlotMask {
    inline: [u64; INLINE_WORDS],
    /// Words beyond [`INLINE_WORDS`]; empty for runs of ≤ 128 slots.
    spill: Vec<u64>,
    words: u32,
}

impl SlotMask {
    /// An all-zero mask able to hold bits `0..bits`.
    pub(crate) fn empty(bits: usize) -> Self {
        let words = bits.div_ceil(WORD_BITS).max(1);
        SlotMask {
            inline: [0; INLINE_WORDS],
            spill: vec![0; words.saturating_sub(INLINE_WORDS)],
            words: u32::try_from(words).expect("mask word count fits in u32"),
        }
    }

    /// Number of 64-bit words backing this mask.
    #[inline]
    pub(crate) fn word_count(&self) -> usize {
        self.words as usize
    }

    /// Number of bit positions this mask can hold.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.word_count() * WORD_BITS
    }

    /// Returns word `w` (zero for padding bits past the capacity is an
    /// invariant: no mutator ever sets them).
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        if w < INLINE_WORDS {
            self.inline[w]
        } else {
            self.spill[w - INLINE_WORDS]
        }
    }

    #[inline]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w < INLINE_WORDS {
            &mut self.inline[w]
        } else {
            &mut self.spill[w - INLINE_WORDS]
        }
    }

    /// Sets bit `idx`.
    #[inline]
    pub(crate) fn insert(&mut self, idx: usize) {
        debug_assert!(idx < self.capacity(), "bit {idx} out of mask capacity");
        let (w, bit) = split(idx);
        *self.word_mut(w) |= bit;
    }

    /// Clears bit `idx`.
    #[inline]
    pub(crate) fn remove(&mut self, idx: usize) {
        debug_assert!(idx < self.capacity(), "bit {idx} out of mask capacity");
        let (w, bit) = split(idx);
        *self.word_mut(w) &= !bit;
    }

    /// Returns whether bit `idx` is set.
    #[cfg(test)]
    fn contains(&self, idx: usize) -> bool {
        debug_assert!(idx < self.capacity(), "bit {idx} out of mask capacity");
        let (w, bit) = split(idx);
        self.word(w) & bit != 0
    }

    /// Number of set bits.
    #[cfg(test)]
    fn count(&self) -> usize {
        (0..self.word_count())
            .map(|w| self.word(w).count_ones() as usize)
            .sum()
    }

    /// Returns `true` when no bit is set.
    pub(crate) fn is_empty(&self) -> bool {
        (0..self.word_count()).all(|w| self.word(w) == 0)
    }

    /// Lowest set bit, if any.
    #[cfg(test)]
    fn first(&self) -> Option<usize> {
        (0..self.word_count()).find_map(|w| {
            let word = self.word(w);
            (word != 0).then(|| w * WORD_BITS + word.trailing_zeros() as usize)
        })
    }

    /// `self |= other`.  Both masks must share a word count.
    pub(crate) fn union_with(&mut self, other: &SlotMask) {
        debug_assert_eq!(self.words, other.words, "mask widths diverged");
        for w in 0..self.word_count() {
            *self.word_mut(w) |= other.word(w);
        }
    }

    /// `self &= !other`.  Both masks must share a word count.
    pub(crate) fn subtract(&mut self, other: &SlotMask) {
        debug_assert_eq!(self.words, other.words, "mask widths diverged");
        for w in 0..self.word_count() {
            *self.word_mut(w) &= !other.word(w);
        }
    }

    /// Iterates the set bit indices, ascending.
    #[cfg(test)]
    fn iter(&self) -> SlotIndexIter<'_> {
        MaskQuery::all(self).iter()
    }
}

impl PartialEq for SlotMask {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words && (0..self.word_count()).all(|w| self.word(w) == other.word(w))
    }
}

impl Eq for SlotMask {}

/// A lazily evaluated combined mask: `base & (and | or_into_and) & kind`.
///
/// `and`, `or_into_and` and `kind` are optional; a missing `and`/`kind` drops
/// that AND term, a missing `or_into_and` contributes nothing to the OR.  This
/// single shape covers every policy-facing slot query:
///
/// | query                  | `base`        | `and`     | `or_into_and` | `kind` |
/// |------------------------|---------------|-----------|---------------|--------|
/// | grantable slots        | `free`        | `enabled` | home board    | kind   |
/// | free enabled slots     | `free`        | `enabled` | —             | kind   |
/// | enabled slots of kind  | `enabled`     | kind      | —             | —      |
/// | loaded-idle of kind    | `loaded_idle` | kind      | —             | —      |
#[derive(Debug, Clone, Copy)]
pub(crate) struct MaskQuery<'a> {
    base: &'a SlotMask,
    and: Option<&'a SlotMask>,
    or_into_and: Option<&'a SlotMask>,
    kind: Option<&'a SlotMask>,
}

impl<'a> MaskQuery<'a> {
    /// The identity query: just `base`.
    #[cfg(test)]
    fn all(base: &'a SlotMask) -> Self {
        MaskQuery {
            base,
            and: None,
            or_into_and: None,
            kind: None,
        }
    }

    /// `base & and`.
    pub(crate) fn and(base: &'a SlotMask, and: &'a SlotMask) -> Self {
        MaskQuery {
            base,
            and: Some(and),
            or_into_and: None,
            kind: None,
        }
    }

    /// The grant visibility query: `base & (and | or_into_and?) & kind?`.
    pub(crate) fn grantable(
        base: &'a SlotMask,
        and: &'a SlotMask,
        or_into_and: Option<&'a SlotMask>,
        kind: Option<&'a SlotMask>,
    ) -> Self {
        MaskQuery {
            base,
            and: Some(and),
            or_into_and,
            kind,
        }
    }

    #[inline]
    pub(crate) fn word_count(&self) -> usize {
        self.base.word_count()
    }

    /// Word `w` of the combined expression.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        let mut word = self.base.word(w);
        if let Some(and) = self.and {
            let mut visible = and.word(w);
            if let Some(or) = self.or_into_and {
                visible |= or.word(w);
            }
            word &= visible;
        }
        if let Some(kind) = self.kind {
            word &= kind.word(w);
        }
        word
    }

    /// Set-bit count of the combined expression.
    pub(crate) fn count(&self) -> usize {
        (0..self.word_count())
            .map(|w| self.word(w).count_ones() as usize)
            .sum()
    }

    /// Lowest set bit of the combined expression, if any.
    pub(crate) fn first(&self) -> Option<usize> {
        (0..self.word_count()).find_map(|w| {
            let word = self.word(w);
            (word != 0).then(|| w * WORD_BITS + word.trailing_zeros() as usize)
        })
    }

    /// Whether any bit of the combined expression is set.
    pub(crate) fn any(&self) -> bool {
        (0..self.word_count()).any(|w| self.word(w) != 0)
    }

    pub(crate) fn iter(self) -> SlotIndexIter<'a> {
        SlotIndexIter {
            query: self,
            next_word: 0,
            bits: 0,
            base: 0,
        }
    }
}

/// Non-allocating iterator over the set bits of a combined slot-mask query,
/// ascending (see `MaskQuery::iter`).
///
/// Borrows the index masks it combines; each word of the expression is
/// evaluated once and scanned with trailing-zeros/clear-lowest-bit steps.
#[derive(Debug, Clone, Copy)]
pub struct SlotIndexIter<'a> {
    query: MaskQuery<'a>,
    /// Next word of the query to evaluate.
    next_word: usize,
    /// Unconsumed set bits of the current word.
    bits: u64,
    /// Bit offset of the current word.
    base: usize,
}

impl Iterator for SlotIndexIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let idx = self.base + self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(idx);
            }
            if self.next_word >= self.query.word_count() {
                return None;
            }
            self.bits = self.query.word(self.next_word);
            self.base = self.next_word * WORD_BITS;
            self.next_word += 1;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let mut n = self.bits.count_ones() as usize;
        for w in self.next_word..self.query.word_count() {
            n += self.query.word(w).count_ones() as usize;
        }
        (n, Some(n))
    }
}

impl ExactSizeIterator for SlotIndexIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The naive model: a plain bit-per-slot boolean vector.
    fn model_ops(bits: usize, ops: &[(bool, usize)]) -> (SlotMask, Vec<bool>) {
        let mut mask = SlotMask::empty(bits);
        let mut model = vec![false; mask.capacity()];
        for &(set, raw_idx) in ops {
            let idx = raw_idx % bits;
            if set {
                mask.insert(idx);
                model[idx] = true;
            } else {
                mask.remove(idx);
                model[idx] = false;
            }
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

    #[test]
    fn word_boundary_bits_round_trip() {
        for bits in [63, 64, 65, 128, 129, 200] {
            let mut mask = SlotMask::empty(bits);
            for idx in [0, bits / 2, bits - 1] {
                assert!(!mask.contains(idx));
                mask.insert(idx);
                assert!(mask.contains(idx), "bit {idx} of {bits} did not stick");
            }
            assert_eq!(mask.count(), 3.min(bits));
            assert_eq!(mask.first(), Some(0));
            mask.remove(0);
            assert!(!mask.contains(0));
        }
    }

    #[test]
    fn sixty_fourth_bit_does_not_wrap() {
        // The regression the bounds-checked `split` fixes: with a raw
        // `1u64 << 64` this would alias bit 0 (or be UB); here it must land in
        // word 1.
        let mut mask = SlotMask::empty(65);
        mask.insert(64);
        assert!(mask.contains(64));
        assert!(!mask.contains(0));
        assert_eq!(mask.word(0), 0);
        assert_eq!(mask.word(1), 1);
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of mask capacity")]
    fn debug_builds_catch_out_of_capacity_bits() {
        let mut mask = SlotMask::empty(64);
        mask.insert(64);
    }

    #[test]
    fn query_combines_across_words() {
        let mut free = SlotMask::empty(130);
        let mut enabled = SlotMask::empty(130);
        let mut home = SlotMask::empty(130);
        for idx in [3, 63, 64, 127, 128, 129] {
            free.insert(idx);
        }
        enabled.insert(63);
        enabled.insert(129);
        home.insert(64);
        home.insert(5); // not free: must not surface

        let query = MaskQuery::grantable(&free, &enabled, Some(&home), None);
        assert_eq!(query.iter().collect::<Vec<_>>(), vec![63, 64, 129]);
        assert_eq!(query.count(), 3);
        assert_eq!(query.first(), Some(63));
        assert!(query.any());
        assert_eq!(query.iter().len(), 3);
    }

    proptest! {
        /// Set/clear sequences agree with a `Vec<bool>` model across word
        /// boundaries: membership, popcount, lowest bit and full iteration.
        #[test]
        fn prop_mask_matches_bool_vec_model(
            bits in prop::sample::select(vec![63usize, 64, 65, 128]),
            ops in prop::collection::vec((prop::bool::ANY, 0usize..128), 0..200),
        ) {
            let (mask, model) = model_ops(bits, &ops);
            let expected = model_bits(&model);

            prop_assert_eq!(mask.count(), expected.len());
            prop_assert_eq!(mask.is_empty(), expected.is_empty());
            prop_assert_eq!(mask.first(), expected.first().copied());
            prop_assert_eq!(mask.iter().collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(mask.iter().len(), expected.len());
            for (idx, &bit) in model.iter().enumerate() {
                prop_assert_eq!(mask.contains(idx), bit);
            }
        }

        /// Word-wise union/subtract agree with element-wise boolean ops.
        #[test]
        fn prop_set_ops_match_bool_vec_model(
            bits in prop::sample::select(vec![63usize, 64, 65, 128]),
            a_ops in prop::collection::vec((prop::bool::ANY, 0usize..128), 0..120),
            b_ops in prop::collection::vec((prop::bool::ANY, 0usize..128), 0..120),
        ) {
            let (a, a_model) = model_ops(bits, &a_ops);
            let (b, b_model) = model_ops(bits, &b_ops);

            let mut union = a.clone();
            union.union_with(&b);
            let union_model: Vec<bool> =
                a_model.iter().zip(&b_model).map(|(&x, &y)| x || y).collect();
            prop_assert_eq!(union.iter().collect::<Vec<_>>(), model_bits(&union_model));

            let mut diff = a.clone();
            diff.subtract(&b);
            let diff_model: Vec<bool> =
                a_model.iter().zip(&b_model).map(|(&x, &y)| x && !y).collect();
            prop_assert_eq!(diff.iter().collect::<Vec<_>>(), model_bits(&diff_model));

            // Equality is word-wise equality.
            prop_assert_eq!(a_model == b_model, a == b);
        }

        /// The lazy combined query equals materialising the expression in the
        /// model: `base & (and | or) `.
        #[test]
        fn prop_query_matches_materialised_model(
            bits in prop::sample::select(vec![63usize, 64, 65, 128]),
            base_ops in prop::collection::vec((prop::bool::ANY, 0usize..128), 0..120),
            and_ops in prop::collection::vec((prop::bool::ANY, 0usize..128), 0..120),
            or_ops in prop::collection::vec((prop::bool::ANY, 0usize..128), 0..120),
        ) {
            let (base, base_model) = model_ops(bits, &base_ops);
            let (and, and_model) = model_ops(bits, &and_ops);
            let (or, or_model) = model_ops(bits, &or_ops);

            let query = MaskQuery::grantable(&base, &and, Some(&or), None);
            let expected: Vec<usize> = (0..base.capacity())
                .filter(|&i| base_model[i] && (and_model[i] || or_model[i]))
                .collect();

            prop_assert_eq!(query.iter().collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(query.count(), expected.len());
            prop_assert_eq!(query.first(), expected.first().copied());
            prop_assert_eq!(query.any(), !expected.is_empty());
        }
    }
}
