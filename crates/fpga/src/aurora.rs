//! Cross-board Aurora 64B/66B link.
//!
//! The cross-board switching module in the PL connects boards through GT
//! transceivers (zSFP+) running the Aurora 64B/66B protocol, and live migration
//! pushes the ready list, task metadata and data buffers over this link via DMA.
//! [`AuroraLink`] models the link as bandwidth plus a fixed protocol latency; the
//! paper measures an average switching overhead of ≈ 1.13 ms, which the default
//! parameters reproduce for a typical migration payload.

use serde::{Deserialize, Serialize};
use versaslot_sim::SimDuration;

/// Latency/bandwidth model of one Aurora lane between two boards.
///
/// # Example
///
/// ```
/// use versaslot_fpga::AuroraLink;
///
/// let link = AuroraLink::zsfp_plus();
/// // A ~1.2 MB migration payload crosses the link in roughly a millisecond.
/// let d = link.transfer_duration(1_200_000);
/// assert!(d.as_millis_f64() > 0.5 && d.as_millis_f64() < 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuroraLink {
    /// Effective payload bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed per-transfer latency (channel bring-up, flow control, DMA setup).
    pub base_latency: SimDuration,
}

impl AuroraLink {
    /// A single zSFP+ lane at 10 Gb/s line rate ≈ 1.2 GB/s effective payload.
    pub fn zsfp_plus() -> Self {
        AuroraLink::new(1_200_000_000, SimDuration::from_micros(120))
    }

    /// Creates a link model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_sec` is zero.
    fn new(bandwidth_bytes_per_sec: u64, base_latency: SimDuration) -> Self {
        assert!(
            bandwidth_bytes_per_sec > 0,
            "link bandwidth must be positive"
        );
        AuroraLink {
            bandwidth_bytes_per_sec,
            base_latency,
        }
    }

    /// Duration of moving `size_bytes` of migration payload across the link.
    pub fn transfer_duration(&self, size_bytes: u64) -> SimDuration {
        let micros = (size_bytes as u128 * 1_000_000 / self.bandwidth_bytes_per_sec as u128) as u64;
        self.base_latency + SimDuration::from_micros(micros)
    }
}

impl Default for AuroraLink {
    fn default() -> Self {
        AuroraLink::zsfp_plus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_migration_payload_is_about_a_millisecond() {
        // The paper reports an average switching overhead of 1.13 ms; the default
        // link reproduces that order of magnitude for a ~1.2 MB payload.
        let link = AuroraLink::zsfp_plus();
        let d = link.transfer_duration(1_200_000);
        assert!((d.as_millis_f64() - 1.13).abs() < 0.5, "got {d}");
    }

    #[test]
    fn transfer_scales_with_size() {
        let link = AuroraLink::zsfp_plus();
        assert!(link.transfer_duration(10 << 20) > link.transfer_duration(1 << 20));
        assert_eq!(link.transfer_duration(0), link.base_latency);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        AuroraLink::new(0, SimDuration::ZERO);
    }
}
