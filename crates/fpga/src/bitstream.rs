//! Partial bitstreams and the SD card they are stored on.
//!
//! In the real system an automated Vivado TCL flow pre-generates, for every task of
//! every application, one partial bitstream per compatible slot (and 3-in-1 bundle
//! bitstreams for Big slots), all stored on the board's SD card.  The PR server
//! reads a bitstream from SD into DDR and then pushes it through the PCAP.  This
//! module models the artefacts (sizes) and the SD read latency; the Vivado flow
//! itself is replaced by the synthetic synthesis dataset in `versaslot-workload`.

use std::fmt;

use serde::{Deserialize, Serialize};
use versaslot_sim::SimDuration;

/// What a bitstream programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BitstreamKind {
    /// A partial bitstream for a Little slot (one task).
    LittlePartial,
    /// A partial bitstream for a Big slot (a 3-in-1 task bundle).
    BigPartial,
    /// A full-fabric bitstream (used by the exclusive temporal-multiplexing baseline).
    Full,
}

impl fmt::Display for BitstreamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitstreamKind::LittlePartial => f.write_str("little-partial"),
            BitstreamKind::BigPartial => f.write_str("big-partial"),
            BitstreamKind::Full => f.write_str("full"),
        }
    }
}

/// Default bitstream sizes used by the ZCU216 presets (see DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitstreamSizes {
    /// Size of a Little-slot partial bitstream.
    pub little_partial: u64,
    /// Size of a Big-slot partial bitstream.
    pub big_partial: u64,
    /// Size of a full-fabric bitstream.
    pub full: u64,
}

impl BitstreamSizes {
    /// Sizes calibrated for a ZCU216-class device: ≈9 MB Little, ≈18 MB Big,
    /// ≈75 MB full fabric.
    pub(crate) fn zcu216() -> Self {
        BitstreamSizes {
            little_partial: 9_000_000,
            big_partial: 18_000_000,
            full: 75_000_000,
        }
    }

    /// Size of a bitstream of the given kind.
    pub fn size_of(&self, kind: BitstreamKind) -> u64 {
        match kind {
            BitstreamKind::LittlePartial => self.little_partial,
            BitstreamKind::BigPartial => self.big_partial,
            BitstreamKind::Full => self.full,
        }
    }
}

impl Default for BitstreamSizes {
    fn default() -> Self {
        BitstreamSizes::zcu216()
    }
}

/// SD-card storage model: where partial bitstreams live before the PR server copies
/// them into DDR.
///
/// # Example
///
/// ```
/// use versaslot_fpga::SdCard;
///
/// let sd = SdCard::uhs_i();
/// // Reading a 9 MB bitstream takes about 100 ms at ~90 MB/s...
/// let cold = sd.read_duration(9_000_000);
/// assert!(cold.as_millis_f64() > 90.0);
/// // ...but a cached (pre-warmed) bitstream costs almost nothing.
/// assert!(sd.cached_read_duration().as_millis_f64() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SdCard {
    /// Sustained sequential read throughput in bytes per second.
    pub throughput_bytes_per_sec: u64,
    /// Fixed per-read overhead (file system, driver).
    pub access_overhead: SimDuration,
    /// Cost of handing an already-cached (in-DDR) bitstream to the PCAP.
    pub cached_overhead: SimDuration,
}

impl SdCard {
    /// A UHS-I class SD card (≈ 90 MB/s sequential read).
    pub fn uhs_i() -> Self {
        SdCard {
            throughput_bytes_per_sec: 90_000_000,
            access_overhead: SimDuration::from_micros(800),
            cached_overhead: SimDuration::from_micros(120),
        }
    }

    /// Duration of a cold read of `size_bytes` from the card into DDR.
    pub fn read_duration(&self, size_bytes: u64) -> SimDuration {
        let micros =
            (size_bytes as u128 * 1_000_000 / self.throughput_bytes_per_sec as u128) as u64;
        self.access_overhead + SimDuration::from_micros(micros)
    }

    /// Duration of serving a bitstream that is already cached in DDR (e.g. because
    /// the PR server pre-loaded it, or it was used recently).
    pub fn cached_read_duration(&self) -> SimDuration {
        self.cached_overhead
    }
}

impl Default for SdCard {
    fn default() -> Self {
        SdCard::uhs_i()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zcu216_sizes_are_ordered() {
        let sizes = BitstreamSizes::zcu216();
        assert!(sizes.little_partial < sizes.big_partial);
        assert!(sizes.big_partial < sizes.full);
        assert_eq!(sizes.size_of(BitstreamKind::Full), sizes.full);
        assert_eq!(sizes.size_of(BitstreamKind::BigPartial), sizes.big_partial);
    }

    #[test]
    fn sd_read_scales_with_size_and_cached_is_cheap() {
        let sd = SdCard::uhs_i();
        let small = sd.read_duration(1_000_000);
        let large = sd.read_duration(10_000_000);
        assert!(large > small);
        assert!(sd.cached_read_duration() < small);
    }

    #[test]
    fn display_impls() {
        assert_eq!(BitstreamKind::Full.to_string(), "full");
        assert_eq!(BitstreamKind::LittlePartial.to_string(), "little-partial");
    }

    #[test]
    fn defaults_match_presets() {
        assert_eq!(BitstreamSizes::default(), BitstreamSizes::zcu216());
        assert_eq!(SdCard::default(), SdCard::uhs_i());
    }
}
