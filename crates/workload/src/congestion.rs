//! Congestion conditions (application arrival processes).
//!
//! The paper generates workloads under four congestion conditions, defined by the
//! interval between consecutive application arrivals: Loose (5000 ms), Standard
//! (1500–2000 ms), Stress (150–200 ms) and Real-time (50 ms).

use std::fmt;

use serde::{Deserialize, Serialize};
use versaslot_sim::{SimDuration, SimRng};

/// The four congestion conditions of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Congestion {
    /// 5000 ms between arrivals — essentially one application at a time.
    Loose,
    /// 1500–2000 ms between arrivals — the regime where sharing pays off most.
    Standard,
    /// 150–200 ms between arrivals — heavy overload.
    Stress,
    /// 50 ms between arrivals — extreme overload.
    RealTime,
}

impl Congestion {
    /// All four conditions in the order the paper's Figure 5 lists them.
    pub fn all() -> [Congestion; 4] {
        [
            Congestion::Loose,
            Congestion::Standard,
            Congestion::Stress,
            Congestion::RealTime,
        ]
    }

    /// The inclusive range of inter-arrival intervals for this condition.
    pub(crate) fn interval_range(&self) -> (SimDuration, SimDuration) {
        match self {
            Congestion::Loose => (
                SimDuration::from_millis(5_000),
                SimDuration::from_millis(5_000),
            ),
            Congestion::Standard => (
                SimDuration::from_millis(1_500),
                SimDuration::from_millis(2_000),
            ),
            Congestion::Stress => (SimDuration::from_millis(150), SimDuration::from_millis(200)),
            Congestion::RealTime => (SimDuration::from_millis(50), SimDuration::from_millis(50)),
        }
    }

    /// Samples one inter-arrival interval.
    pub(crate) fn sample_interval(&self, rng: &mut SimRng) -> SimDuration {
        let (lo, hi) = self.interval_range();
        rng.gen_duration(lo, hi)
    }

    /// Label used in reports ("Loose", "Standard", "Stress", "Real-time").
    pub fn label(&self) -> &'static str {
        match self {
            Congestion::Loose => "Loose",
            Congestion::Standard => "Standard",
            Congestion::Stress => "Stress",
            Congestion::RealTime => "Real-time",
        }
    }
}

impl fmt::Display for Congestion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_match_paper() {
        let (lo, hi) = Congestion::Loose.interval_range();
        assert_eq!(lo, SimDuration::from_millis(5_000));
        assert_eq!(lo, hi);
        let (lo, hi) = Congestion::Standard.interval_range();
        assert_eq!(lo, SimDuration::from_millis(1_500));
        assert_eq!(hi, SimDuration::from_millis(2_000));
        let (lo, hi) = Congestion::Stress.interval_range();
        assert_eq!(lo, SimDuration::from_millis(150));
        assert_eq!(hi, SimDuration::from_millis(200));
        let (lo, hi) = Congestion::RealTime.interval_range();
        assert_eq!(lo, SimDuration::from_millis(50));
        assert_eq!(lo, hi);
    }

    #[test]
    fn sampled_intervals_stay_in_range() {
        let mut rng = SimRng::seed_from(1);
        for condition in Congestion::all() {
            let (lo, hi) = condition.interval_range();
            for _ in 0..100 {
                let d = condition.sample_interval(&mut rng);
                assert!(d >= lo && d <= hi, "{condition}: {d} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn ordering_of_congestion_severity() {
        // Later conditions in `all()` arrive strictly faster.
        let all = Congestion::all();
        for pair in all.windows(2) {
            assert!(
                pair[0].interval_range().0 > pair[1].interval_range().1
                    || pair[0] == Congestion::Loose
            );
            assert!(pair[0].interval_range().0 >= pair[1].interval_range().0);
        }
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(Congestion::RealTime.label(), "Real-time");
        assert_eq!(Congestion::Standard.to_string(), "Standard");
        assert_eq!(Congestion::all().len(), 4);
    }
}
