//! Random workload generation.
//!
//! The paper evaluates each scheduler on 10 randomly generated application
//! sequences of 20 applications each, with random batch sizes between 5 and 30 and
//! arrival intervals drawn from the chosen congestion condition.  The cross-board
//! switching experiment (Figure 8) uses 3 longer sequences of 80 applications under
//! Standard arrivals.  [`generate_workload`] reproduces both, deterministically
//! from a seed.
//!
//! A sequence is arrivals only: it indexes the suite by position, so generating
//! one builds no application specification ([`BenchmarkApp::ALL`] gives the
//! suite's size).

use serde::{Deserialize, Serialize};
use versaslot_sim::{SimRng, SimTime};

use crate::application::{AppArrival, AppId, ApplicationSpec};
use crate::benchmarks::BenchmarkApp;
use crate::congestion::Congestion;

/// Parameters of a randomly generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of independent sequences to generate.
    pub sequences: u32,
    /// Applications per sequence.
    pub apps_per_sequence: u32,
    /// Inclusive batch size range.
    pub batch_range: (u32, u32),
    /// Arrival process.
    pub congestion: Congestion,
    /// Root seed; sequence `i` uses the derived stream `i`.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's Figure 5/6 configuration: 10 sequences × 20 apps, batch 5–30.
    pub fn paper_default(congestion: Congestion) -> Self {
        WorkloadConfig {
            sequences: 10,
            apps_per_sequence: 20,
            batch_range: (5, 30),
            congestion,
            seed: 0x5EED_2025,
        }
    }

    /// The paper's Figure 8 configuration: 3 long workloads × 80 apps under
    /// Standard arrivals.
    pub fn paper_switching() -> Self {
        WorkloadConfig {
            sequences: 3,
            apps_per_sequence: 80,
            batch_range: (5, 30),
            congestion: Congestion::Standard,
            seed: 0x5EED_8080,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different sequence shape (used by small examples and
    /// tests that do not need the full evaluation size).
    pub fn with_shape(mut self, sequences: u32, apps_per_sequence: u32) -> Self {
        self.sequences = sequences;
        self.apps_per_sequence = apps_per_sequence;
        self
    }
}

/// One generated sequence of application arrivals (sorted by arrival time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSequence {
    /// Index of the sequence within its workload.
    pub index: u32,
    /// The application arrivals, in non-decreasing arrival order.
    pub arrivals: Vec<AppArrival>,
}

/// A full workload: the benchmark suite plus the generated sequences.
///
/// The suite's specifications share the process-wide copy of their data (see
/// [`BenchmarkApp::suite`]), so cloning it allocates only the vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// The application specifications the arrivals index into.
    pub suite: Vec<ApplicationSpec>,
    /// The generated sequences.
    pub sequences: Vec<WorkloadSequence>,
    /// The configuration this workload was generated from.
    pub config: WorkloadConfig,
}

/// Generates a single sequence (`index`) of the given configuration.
///
/// The same `(config, index)` pair always produces the same sequence.
///
/// # Example
///
/// ```
/// use versaslot_workload::{generate_sequence, Congestion, WorkloadConfig};
///
/// let config = WorkloadConfig::paper_default(Congestion::Stress);
/// let a = generate_sequence(&config, 3);
/// let b = generate_sequence(&config, 3);
/// assert_eq!(a, b);
/// ```
pub fn generate_sequence(config: &WorkloadConfig, index: u32) -> WorkloadSequence {
    let suite_len = BenchmarkApp::ALL.len();
    let root = SimRng::seed_from(config.seed);
    let mut rng = root.derive(index as u64 + 1);

    let (batch_lo, batch_hi) = config.batch_range;
    assert!(batch_lo >= 1 && batch_lo <= batch_hi, "invalid batch range");

    let mut arrivals = Vec::with_capacity(config.apps_per_sequence as usize);
    let mut clock = SimTime::ZERO;
    for i in 0..config.apps_per_sequence {
        // The first application arrives at t = 0; subsequent arrivals are spaced by
        // the congestion condition's interval.
        if i > 0 {
            clock += config.congestion.sample_interval(&mut rng);
        }
        let app_index = rng.gen_range(0..suite_len);
        let batch_size = rng.gen_range(batch_lo..=batch_hi);
        arrivals.push(AppArrival::new(AppId(i), app_index, batch_size, clock));
    }
    WorkloadSequence { index, arrivals }
}

/// Generates the full workload described by `config`.
pub fn generate_workload(config: &WorkloadConfig) -> Workload {
    let sequences = (0..config.sequences)
        .map(|i| generate_sequence(config, i))
        .collect();
    Workload {
        suite: BenchmarkApp::suite(),
        sequences,
        config: *config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_default_shape() {
        let workload = generate_workload(&WorkloadConfig::paper_default(Congestion::Standard));
        assert_eq!(workload.sequences.len(), 10);
        assert!(workload.sequences.iter().all(|s| s.arrivals.len() == 20));
        assert_eq!(workload.suite.len(), 5);
    }

    /// Pins the serialized form of whole workloads: suite, sequences and
    /// config.
    #[test]
    fn generated_workload_is_unchanged() {
        let config = WorkloadConfig::paper_default(Congestion::Stress).with_shape(3, 8);
        assert_eq!(
            crate::json_digest(&generate_workload(&config)),
            "9caa065192149086"
        );
        let paper = WorkloadConfig::paper_default(Congestion::Standard);
        assert_eq!(
            crate::json_digest(&generate_workload(&paper)),
            "b42fb50bd26e2dbe"
        );
    }

    #[test]
    fn switching_config_shape() {
        let workload = generate_workload(&WorkloadConfig::paper_switching());
        assert_eq!(workload.sequences.len(), 3);
        assert!(workload.sequences.iter().all(|s| s.arrivals.len() == 80));
        assert_eq!(workload.config.congestion, Congestion::Standard);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let config = WorkloadConfig::paper_default(Congestion::Stress);
        assert_eq!(generate_sequence(&config, 2), generate_sequence(&config, 2));
        assert_ne!(generate_sequence(&config, 2), generate_sequence(&config, 3));
        let other = config.with_seed(99);
        assert_ne!(generate_sequence(&config, 2), generate_sequence(&other, 2));
    }

    #[test]
    fn first_arrival_is_at_time_zero() {
        let config = WorkloadConfig::paper_default(Congestion::Loose);
        let sequence = generate_sequence(&config, 0);
        assert_eq!(sequence.arrivals[0].arrival, SimTime::ZERO);
        assert_eq!(sequence.arrivals[0].id, AppId(0));
    }

    #[test]
    fn with_shape_overrides_size() {
        let config = WorkloadConfig::paper_default(Congestion::Standard).with_shape(2, 5);
        let workload = generate_workload(&config);
        assert_eq!(workload.sequences.len(), 2);
        assert_eq!(workload.sequences[0].arrivals.len(), 5);
        assert!(workload.sequences[0]
            .arrivals
            .iter()
            .all(|a| a.batch_size > 0));
    }

    proptest! {
        /// Arrivals are sorted, batch sizes stay in range and app indices are valid.
        #[test]
        fn prop_generated_sequences_are_well_formed(seed in 0u64..1_000, idx in 0u32..5) {
            let config = WorkloadConfig::paper_default(Congestion::Standard).with_seed(seed);
            let sequence = generate_sequence(&config, idx);
            prop_assert_eq!(sequence.arrivals.len(), 20);
            let suite_len = BenchmarkApp::suite().len();
            let mut last = SimTime::ZERO;
            for (i, arrival) in sequence.arrivals.iter().enumerate() {
                prop_assert_eq!(arrival.id, AppId(i as u32));
                prop_assert!(arrival.arrival >= last);
                prop_assert!(arrival.batch_size >= 5 && arrival.batch_size <= 30);
                prop_assert!(arrival.app_index < suite_len);
                last = arrival.arrival;
            }
        }

        /// Inter-arrival gaps respect the congestion condition.
        #[test]
        fn prop_arrival_gaps_match_congestion(seed in 0u64..200) {
            let config = WorkloadConfig::paper_default(Congestion::Stress).with_seed(seed);
            let sequence = generate_sequence(&config, 0);
            let (lo, hi) = Congestion::Stress.interval_range();
            for pair in sequence.arrivals.windows(2) {
                let gap = pair[1].arrival - pair[0].arrival;
                prop_assert!(gap >= lo && gap <= hi);
            }
        }
    }
}
