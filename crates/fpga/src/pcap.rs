//! The Processor Configuration Access Port (PCAP).
//!
//! On Zynq UltraScale+ devices all partial bitstreams are loaded through the PCAP,
//! which is fundamentally *serial*: it loads one bitstream at a time and suspends
//! the issuing CPU until the load completes.  These two properties are the root
//! cause of the *PR contention* and *task execution blocking* problems the paper
//! sets out to solve, so they are modelled explicitly here:
//!
//! * [`PcapModel`] converts a bitstream size into a load duration, and
//! * [`SerialServer`] is the single-server FIFO queue that serialises loads (it is
//!   also reused for other serial resources such as the DMA engine).

use serde::{Deserialize, Serialize};
use versaslot_sim::{SimDuration, SimTime};

/// Latency model of the PCAP bitstream loader.
///
/// # Example
///
/// ```
/// use versaslot_fpga::PcapModel;
///
/// let pcap = PcapModel::zynq_ultrascale();
/// // A ~9 MB Little-slot bitstream loads in roughly 25 ms.
/// let d = pcap.load_duration(9_000_000);
/// assert!(d.as_millis_f64() > 20.0 && d.as_millis_f64() < 35.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcapModel {
    /// Sustained PCAP throughput in bytes per second.
    pub throughput_bytes_per_sec: u64,
    /// Fixed per-load overhead (driver setup, DFX decoupling, completion check).
    pub setup_overhead: SimDuration,
}

impl PcapModel {
    /// The default model calibrated for a Zynq UltraScale+ PCAP
    /// (≈ 360 MB/s sustained plus ≈ 400 µs fixed overhead).
    pub fn zynq_ultrascale() -> Self {
        PcapModel::new(360_000_000, SimDuration::from_micros(400))
    }

    /// Creates a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `throughput_bytes_per_sec` is zero.
    fn new(throughput_bytes_per_sec: u64, setup_overhead: SimDuration) -> Self {
        assert!(
            throughput_bytes_per_sec > 0,
            "PCAP throughput must be positive"
        );
        PcapModel {
            throughput_bytes_per_sec,
            setup_overhead,
        }
    }

    /// Duration to load a partial bitstream of `size_bytes` through the PCAP.
    pub fn load_duration(&self, size_bytes: u64) -> SimDuration {
        let micros =
            (size_bytes as u128 * 1_000_000 / self.throughput_bytes_per_sec as u128) as u64;
        self.setup_overhead + SimDuration::from_micros(micros)
    }
}

impl Default for PcapModel {
    fn default() -> Self {
        PcapModel::zynq_ultrascale()
    }
}

/// A single-server FIFO resource.
///
/// Requests occupy the server back to back: a request submitted at `now` starts at
/// `max(now, busy_until)` and finishes `duration` later.  This is exactly the
/// behaviour of the PCAP (one bitstream at a time) and is also used for the DMA
/// engine and the Aurora link.
///
/// # Example
///
/// ```
/// use versaslot_fpga::SerialServer;
/// use versaslot_sim::{SimDuration, SimTime};
///
/// let mut pcap = SerialServer::new();
/// let first = pcap.submit(SimTime::ZERO, SimDuration::from_millis(25));
/// let second = pcap.submit(SimTime::ZERO, SimDuration::from_millis(25));
/// assert_eq!(first.start, SimTime::ZERO);
/// assert_eq!(second.start, first.finish); // serialised behind the first load
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SerialServer {
    busy_until: SimTime,
    completed: u64,
}

/// The time window a request occupies on a [`SerialServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceWindow {
    /// When the request actually starts being served.
    pub start: SimTime,
    /// When the request finishes.
    pub finish: SimTime,
}

impl ServiceWindow {
    /// Time spent waiting before service began, relative to `submitted`.
    pub fn queueing_delay(&self, submitted: SimTime) -> SimDuration {
        self.start.saturating_since(submitted)
    }
}

impl SerialServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        SerialServer {
            busy_until: SimTime::ZERO,
            completed: 0,
        }
    }

    /// Submits a request at `now` that needs `duration` of service and returns the
    /// window during which it is served.
    pub fn submit(&mut self, now: SimTime, duration: SimDuration) -> ServiceWindow {
        let start = now.max_of(self.busy_until);
        let finish = start + duration;
        self.busy_until = finish;
        self.completed += 1;
        ServiceWindow { start, finish }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn load_duration_scales_with_size() {
        let pcap = PcapModel::zynq_ultrascale();
        let little = pcap.load_duration(9_000_000);
        let big = pcap.load_duration(18_000_000);
        let full = pcap.load_duration(75_000_000);
        assert!(big > little);
        assert!(full > big);
        // Big should be roughly twice Little minus the shared fixed overhead.
        let ratio = (big.as_millis_f64() - 0.4) / (little.as_millis_f64() - 0.4);
        assert!((ratio - 2.0).abs() < 0.05, "ratio was {ratio}");
    }

    #[test]
    fn zero_size_costs_only_overhead() {
        let pcap = PcapModel::new(100_000_000, SimDuration::from_micros(300));
        assert_eq!(pcap.load_duration(0), SimDuration::from_micros(300));
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn zero_throughput_panics() {
        PcapModel::new(0, SimDuration::ZERO);
    }

    #[test]
    fn serial_server_serialises_overlapping_requests() {
        let mut server = SerialServer::new();
        let a = server.submit(SimTime::ZERO, SimDuration::from_millis(10));
        let b = server.submit(SimTime::from_millis(2), SimDuration::from_millis(5));
        let c = server.submit(SimTime::from_millis(30), SimDuration::from_millis(1));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.finish, SimTime::from_millis(10));
        assert_eq!(b.start, SimTime::from_millis(10));
        assert_eq!(b.finish, SimTime::from_millis(15));
        // c arrives after the backlog drained, so it starts immediately.
        assert_eq!(c.start, SimTime::from_millis(30));
        assert_eq!(server.completed, 3);
        assert_eq!(
            b.queueing_delay(SimTime::from_millis(2)),
            SimDuration::from_millis(8)
        );
    }

    #[test]
    fn availability_and_backlog() {
        let mut server = SerialServer::new();
        let first = server.submit(SimTime::from_millis(1), SimDuration::from_millis(10));
        assert_eq!(
            first.start,
            SimTime::from_millis(1),
            "an idle server starts at once"
        );
        // Submitted at 5 ms, behind 6 ms of backlog.
        let queued = server.submit(SimTime::from_millis(5), SimDuration::from_millis(1));
        assert_eq!(queued.start, SimTime::from_millis(11));
        assert_eq!(
            queued.queueing_delay(SimTime::from_millis(5)),
            SimDuration::from_millis(6)
        );
        // The backlog has drained by 20 ms.
        let drained = server.submit(SimTime::from_millis(20), SimDuration::from_millis(1));
        assert_eq!(drained.start, SimTime::from_millis(20));
    }

    proptest! {
        /// Service windows never overlap and never start before submission.
        #[test]
        fn prop_windows_disjoint_and_causal(
            requests in prop::collection::vec((0u64..10_000, 1u64..1_000), 1..100)
        ) {
            // Submissions must be in non-decreasing time order for a FIFO server.
            let mut sorted = requests.clone();
            sorted.sort_by_key(|(t, _)| *t);

            let mut server = SerialServer::new();
            let mut last_finish = SimTime::ZERO;
            for (t, d) in sorted {
                let now = SimTime::from_micros(t);
                let window = server.submit(now, SimDuration::from_micros(d));
                prop_assert!(window.start >= now);
                prop_assert!(window.start >= last_finish);
                prop_assert_eq!(window.finish, window.start + SimDuration::from_micros(d));
                last_finish = window.finish;
            }
        }
    }
}
