//! PS↔PL data movement (AXI interconnect + DMA).
//!
//! Application data buffers travel between DDR and the slot interfaces over the AXI
//! interconnect, driven by DMA and translated by the SMMU.  For scheduling purposes
//! only the transfer latency matters; [`DmaModel`] converts a buffer size to a
//! duration and is used both for per-batch data staging and (together with
//! [`crate::aurora::AuroraLink`]) for live-migration transfers.

use serde::{Deserialize, Serialize};
use versaslot_sim::SimDuration;

/// Latency model of a DMA engine on the AXI interconnect.
///
/// # Example
///
/// ```
/// use versaslot_fpga::DmaModel;
///
/// let dma = DmaModel::zynq_hp_port();
/// // Staging a 256 KiB batch buffer costs well under a millisecond.
/// assert!(dma.transfer_duration(256 * 1024).as_millis_f64() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DmaModel {
    /// Sustained throughput in bytes per second.
    pub throughput_bytes_per_sec: u64,
    /// Fixed per-transfer setup cost (descriptor setup, SMMU translation, interrupt).
    pub setup_overhead: SimDuration,
}

impl DmaModel {
    /// A high-performance (HP) AXI port on a Zynq UltraScale+ (≈ 2.4 GB/s effective).
    pub fn zynq_hp_port() -> Self {
        DmaModel::new(2_400_000_000, SimDuration::from_micros(30))
    }

    /// Creates a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `throughput_bytes_per_sec` is zero.
    fn new(throughput_bytes_per_sec: u64, setup_overhead: SimDuration) -> Self {
        assert!(
            throughput_bytes_per_sec > 0,
            "DMA throughput must be positive"
        );
        DmaModel {
            throughput_bytes_per_sec,
            setup_overhead,
        }
    }

    /// Duration of transferring `size_bytes` in one DMA operation.
    pub fn transfer_duration(&self, size_bytes: u64) -> SimDuration {
        let micros =
            (size_bytes as u128 * 1_000_000 / self.throughput_bytes_per_sec as u128) as u64;
        self.setup_overhead + SimDuration::from_micros(micros)
    }
}

impl Default for DmaModel {
    fn default() -> Self {
        DmaModel::zynq_hp_port()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_with_size() {
        let dma = DmaModel::zynq_hp_port();
        assert!(dma.transfer_duration(1 << 20) < dma.transfer_duration(8 << 20));
        assert_eq!(dma.transfer_duration(0), dma.setup_overhead);
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn zero_throughput_panics() {
        DmaModel::new(0, SimDuration::ZERO);
    }

    #[test]
    fn default_is_hp_port() {
        assert_eq!(DmaModel::default(), DmaModel::zynq_hp_port());
    }
}
