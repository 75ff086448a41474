//! Whole-board description.
//!
//! A [`BoardSpec`] bundles everything the scheduling simulation needs to know about
//! one FPGA board: its slot layout, PCAP and SD-card models, DMA model, Aurora
//! uplink and how the hypervisor maps onto the PS cores.  Two presets mirror the
//! boards used in the paper's cluster: a ZCU216 flashed with the `Big.Little`
//! static region and one flashed with `Only.Little`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::aurora::AuroraLink;
use crate::bitstream::{BitstreamSizes, SdCard};
use crate::cpu::CoreAssignment;
use crate::interconnect::DmaModel;
use crate::pcap::PcapModel;
use crate::resources::ResourceVector;
use crate::slot::SlotLayout;

/// Identifier of a board within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BoardId(pub u32);

impl fmt::Display for BoardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "board-{}", self.0)
    }
}

impl From<u32> for BoardId {
    fn from(value: u32) -> Self {
        BoardId(value)
    }
}

/// Static description of one FPGA board.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoardSpec {
    /// Human-readable name (e.g. `"zcu216-big-little"`).
    pub name: String,
    /// The slot layout programmed into the static region.
    pub layout: SlotLayout,
    /// PCAP load-latency model.
    pub pcap: PcapModel,
    /// SD-card storage the partial bitstreams are read from.
    pub sd_card: SdCard,
    /// Sizes of the pre-generated bitstreams for this board.
    pub bitstream_sizes: BitstreamSizes,
    /// DMA model for PS↔PL data staging.
    pub dma: DmaModel,
    /// Aurora uplink used for cross-board switching.
    pub aurora: AuroraLink,
    /// How the hypervisor maps onto the PS cores.
    pub cores: CoreAssignment,
}

impl BoardSpec {
    /// Capacity of one Little slot on the ZCU216 presets.
    ///
    /// The ZCU216 PL offers roughly 425 k LUTs and 850 k FFs; after the static
    /// region, eight Little-slot-equivalents of 40 k LUT / 80 k FF remain.
    pub fn zcu216_little_capacity() -> ResourceVector {
        ResourceVector::new(40_000, 80_000, 160, 120)
    }

    /// A ZCU216 flashed with the VersaSlot `Big.Little` static region
    /// (2 Big + 4 Little slots) and the dual-core hypervisor.
    pub fn zcu216_big_little() -> Self {
        BoardSpec {
            name: "zcu216-big-little".to_string(),
            layout: SlotLayout::big_little(Self::zcu216_little_capacity()),
            pcap: PcapModel::zynq_ultrascale(),
            sd_card: SdCard::uhs_i(),
            bitstream_sizes: BitstreamSizes::zcu216(),
            dma: DmaModel::zynq_hp_port(),
            aurora: AuroraLink::zsfp_plus(),
            cores: CoreAssignment::DualCore,
        }
    }

    /// A ZCU216 flashed with the uniform `Only.Little` static region (8 Little
    /// slots) and the dual-core hypervisor (VersaSlot Only.Little configuration).
    pub fn zcu216_only_little() -> Self {
        BoardSpec {
            name: "zcu216-only-little".to_string(),
            layout: SlotLayout::only_little(Self::zcu216_little_capacity()),
            ..Self::zcu216_big_little()
        }
    }

    /// Returns a copy of this board with a different hypervisor core assignment.
    ///
    /// The single-core variant is what the Nimblock / FCFS / RR comparators run on.
    pub fn with_cores(mut self, cores: CoreAssignment) -> Self {
        self.cores = cores;
        self
    }

    /// Returns a copy of this board with a different slot layout.
    pub fn with_layout(mut self, layout: SlotLayout) -> Self {
        self.layout = layout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::{LayoutKind, SlotKind};

    #[test]
    fn big_little_preset_matches_paper_configuration() {
        let board = BoardSpec::zcu216_big_little();
        assert_eq!(board.layout.kind(), LayoutKind::BigLittle);
        assert_eq!(board.layout.count_of(SlotKind::Big), 2);
        assert_eq!(board.layout.count_of(SlotKind::Little), 4);
        assert_eq!(board.cores, CoreAssignment::DualCore);
    }

    #[test]
    fn only_little_preset_has_eight_uniform_slots() {
        let board = BoardSpec::zcu216_only_little();
        assert_eq!(board.layout.kind(), LayoutKind::OnlyLittle);
        assert_eq!(board.layout.count_of(SlotKind::Little), 8);
        assert_eq!(board.layout.count_of(SlotKind::Big), 0);
        // Everything except the layout matches the Big.Little preset.
        assert_eq!(board.pcap, BoardSpec::zcu216_big_little().pcap);
    }

    #[test]
    fn builder_style_overrides() {
        let board = BoardSpec::zcu216_only_little().with_cores(CoreAssignment::SingleCore);
        assert_eq!(board.cores, CoreAssignment::SingleCore);
        let custom = BoardSpec::zcu216_big_little().with_layout(SlotLayout::with_counts(
            1,
            6,
            BoardSpec::zcu216_little_capacity(),
        ));
        assert_eq!(custom.layout.slots().len(), 7);
    }

    #[test]
    fn both_presets_expose_equal_total_capacity() {
        // 2 Big + 4 Little == 8 Little in total fabric, as in the paper.
        let bl = BoardSpec::zcu216_big_little().layout.total_capacity();
        let ol = BoardSpec::zcu216_only_little().layout.total_capacity();
        assert_eq!(bl, ol);
    }

    #[test]
    fn board_id_display() {
        assert_eq!(BoardId(1).to_string(), "board-1");
        assert_eq!(BoardId::from(2u32), BoardId(2));
    }
}
