//! Reconfigurable slots and board slot layouts.
//!
//! The PL of each board is split into a *static region* (AXI interfaces, DFX
//! decouplers, the cross-board switching module) and a set of partially
//! reconfigurable slots.  VersaSlot's contribution is the heterogeneous
//! *Big.Little* layout: an FPGA carries either 2 Big + 4 Little slots
//! (`Big.Little`) or 8 Little slots (`Only.Little`); a Big slot has twice the
//! resource capacity of a Little slot and hosts a 3-in-1 task bundle.
//! The layout is fixed by the static region at start-up — changing it requires the
//! cross-board switching mechanism modelled in `versaslot-core`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::resources::ResourceVector;

/// The kind of a reconfigurable slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SlotKind {
    /// A standard-resource slot hosting a single task.
    Little,
    /// A double-resource slot hosting a 3-in-1 task bundle.
    Big,
}

impl fmt::Display for SlotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotKind::Little => f.write_str("Little"),
            SlotKind::Big => f.write_str("Big"),
        }
    }
}

/// Identifier of a slot within one board (index into the board's slot list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SlotId(pub u32);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot-{}", self.0)
    }
}

impl From<u32> for SlotId {
    fn from(value: u32) -> Self {
        SlotId(value)
    }
}

/// Static description of one slot: its identity, kind and resource capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotDescriptor {
    /// The slot's identifier within its board.
    pub id: SlotId,
    /// Whether this is a Big or Little slot.
    pub kind: SlotKind,
    /// The fabric resources available inside the slot.
    pub capacity: ResourceVector,
}

/// The named slot configurations a board can be flashed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayoutKind {
    /// 2 Big slots + 4 Little slots (the VersaSlot heterogeneous layout).
    BigLittle,
    /// 8 uniform Little slots (the layout used by Nimblock-style systems).
    OnlyLittle,
    /// Any other combination.
    Custom,
}

impl fmt::Display for LayoutKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutKind::BigLittle => f.write_str("Big.Little"),
            LayoutKind::OnlyLittle => f.write_str("Only.Little"),
            LayoutKind::Custom => f.write_str("Custom"),
        }
    }
}

/// The slot layout programmed into a board's static region.
///
/// # Example
///
/// ```
/// use versaslot_fpga::slot::{SlotKind, SlotLayout};
/// use versaslot_fpga::ResourceVector;
///
/// let little = ResourceVector::new(40_000, 80_000, 160, 120);
/// let layout = SlotLayout::big_little(little);
/// assert_eq!(layout.slots().len(), 6);
/// assert_eq!(layout.count_of(SlotKind::Big), 2);
/// assert_eq!(layout.capacity_of(SlotKind::Big).lut, 80_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotLayout {
    kind: LayoutKind,
    slots: Vec<SlotDescriptor>,
    little_capacity: ResourceVector,
}

impl SlotLayout {
    /// Builds the VersaSlot `Big.Little` layout: 2 Big slots followed by 4 Little
    /// slots.  `little_capacity` is the capacity of one Little slot; a Big slot is
    /// exactly twice that, as in the paper.
    pub fn big_little(little_capacity: ResourceVector) -> Self {
        Self::custom_counts(LayoutKind::BigLittle, 2, 4, little_capacity)
    }

    /// Builds the `Only.Little` layout: 8 uniform Little slots.
    pub(crate) fn only_little(little_capacity: ResourceVector) -> Self {
        Self::custom_counts(LayoutKind::OnlyLittle, 0, 8, little_capacity)
    }

    /// Builds an arbitrary layout with `big` Big slots and `little` Little slots.
    ///
    /// The paper notes the system "can be extended to any Big/Little configuration";
    /// this constructor is how the ablation benchmarks explore that space.
    ///
    /// # Panics
    ///
    /// Panics if the layout would contain no slots at all.
    pub fn with_counts(big: u32, little: u32, little_capacity: ResourceVector) -> Self {
        let kind = match (big, little) {
            (2, 4) => LayoutKind::BigLittle,
            (0, 8) => LayoutKind::OnlyLittle,
            _ => LayoutKind::Custom,
        };
        Self::custom_counts(kind, big, little, little_capacity)
    }

    fn custom_counts(
        kind: LayoutKind,
        big: u32,
        little: u32,
        little_capacity: ResourceVector,
    ) -> Self {
        assert!(
            big + little > 0,
            "a slot layout must contain at least one slot"
        );
        let mut slots = Vec::with_capacity((big + little) as usize);
        let mut next = 0u32;
        for _ in 0..big {
            slots.push(SlotDescriptor {
                id: SlotId(next),
                kind: SlotKind::Big,
                capacity: little_capacity * 2,
            });
            next += 1;
        }
        for _ in 0..little {
            slots.push(SlotDescriptor {
                id: SlotId(next),
                kind: SlotKind::Little,
                capacity: little_capacity,
            });
            next += 1;
        }
        SlotLayout {
            kind,
            slots,
            little_capacity,
        }
    }

    /// Returns the named kind of this layout.
    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// Returns all slot descriptors, Big slots first.
    pub fn slots(&self) -> &[SlotDescriptor] {
        &self.slots
    }

    /// Returns how many slots of `kind` the layout contains.
    pub fn count_of(&self, kind: SlotKind) -> u32 {
        self.slots.iter().filter(|s| s.kind == kind).count() as u32
    }

    /// Returns the capacity of slots of `kind` in this layout.
    pub fn capacity_of(&self, kind: SlotKind) -> ResourceVector {
        match kind {
            SlotKind::Little => self.little_capacity,
            SlotKind::Big => self.little_capacity * 2,
        }
    }

    /// Total fabric resources offered by all slots together.
    pub fn total_capacity(&self) -> ResourceVector {
        self.slots.iter().map(|s| s.capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn little_cap() -> ResourceVector {
        ResourceVector::new(40_000, 80_000, 160, 120)
    }

    #[test]
    fn big_little_layout_matches_paper() {
        let layout = SlotLayout::big_little(little_cap());
        assert_eq!(layout.kind(), LayoutKind::BigLittle);
        assert_eq!(layout.slots().len(), 6);
        assert_eq!(layout.count_of(SlotKind::Big), 2);
        assert_eq!(layout.count_of(SlotKind::Little), 4);
        // Big slots come first and have exactly double capacity.
        assert_eq!(layout.slots()[0].kind, SlotKind::Big);
        assert_eq!(layout.slots()[0].capacity, little_cap() * 2);
        assert_eq!(layout.capacity_of(SlotKind::Big), little_cap() * 2);
    }

    #[test]
    fn only_little_layout_matches_paper() {
        let layout = SlotLayout::only_little(little_cap());
        assert_eq!(layout.kind(), LayoutKind::OnlyLittle);
        assert_eq!(layout.slots().len(), 8);
        assert_eq!(layout.count_of(SlotKind::Big), 0);
        assert_eq!(layout.count_of(SlotKind::Little), 8);
    }

    #[test]
    fn with_counts_recognises_named_layouts() {
        assert_eq!(
            SlotLayout::with_counts(2, 4, little_cap()).kind(),
            LayoutKind::BigLittle
        );
        assert_eq!(
            SlotLayout::with_counts(0, 8, little_cap()).kind(),
            LayoutKind::OnlyLittle
        );
        assert_eq!(
            SlotLayout::with_counts(1, 6, little_cap()).kind(),
            LayoutKind::Custom
        );
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_layout_panics() {
        SlotLayout::with_counts(0, 0, little_cap());
    }

    #[test]
    fn total_capacity_sums_slots() {
        let layout = SlotLayout::big_little(little_cap());
        // 2 big (2x) + 4 little = 8 little-equivalents.
        assert_eq!(layout.total_capacity(), little_cap() * 8);
    }

    #[test]
    fn display_impls() {
        assert_eq!(SlotKind::Big.to_string(), "Big");
        assert_eq!(SlotId(3).to_string(), "slot-3");
        assert_eq!(LayoutKind::BigLittle.to_string(), "Big.Little");
        assert_eq!(SlotId::from(7u32), SlotId(7));
    }

    proptest! {
        /// Any constructed layout has unique, dense slot ids and consistent counts.
        #[test]
        fn prop_layout_ids_dense_and_counts_consistent(big in 0u32..5, little in 0u32..12) {
            prop_assume!(big + little > 0);
            let layout = SlotLayout::with_counts(big, little, little_cap());
            prop_assert_eq!(layout.count_of(SlotKind::Big), big);
            prop_assert_eq!(layout.count_of(SlotKind::Little), little);
            for (i, slot) in layout.slots().iter().enumerate() {
                prop_assert_eq!(slot.id, SlotId(i as u32));
            }
            // Big.Little equivalence: total capacity equals (2*big + little) little slots.
            prop_assert_eq!(
                layout.total_capacity(),
                little_cap() * (2 * big as u64 + little as u64)
            );
        }
    }
}
