//! Unbounded arrival processes for service mode.
//!
//! The figure experiments replay *finite* generated sequences ([`crate::generator`]);
//! service mode instead draws applications from an **open-ended stochastic
//! arrival process** and stops on a condition, not when a list runs out.  This
//! module provides the three processes the service harness supports:
//!
//! * [`ArrivalProcess::Poisson`] — stationary Poisson arrivals (exponential
//!   inter-arrival gaps) at a constant rate, the classical steady-state model;
//! * [`ArrivalProcess::Diurnal`] — a sinusoidally modulated Poisson process
//!   whose rate swings around a base level, modelling a day/night load curve;
//! * [`ArrivalProcess::Burst`] — a flash-crowd square wave: quiet base load
//!   with periodic bursts at a much higher rate.
//!
//! Non-stationary processes are sampled by **thinning** (Lewis & Shedler):
//! candidate gaps are drawn at the peak rate and accepted with probability
//! `rate(t) / max_rate`, which is exact for any bounded rate function.  All
//! randomness flows through the deterministic [`SimRng`], so an
//! [`ArrivalDriver`] with a fixed seed always produces the same stream.

use serde::{Deserialize, Serialize};
use versaslot_sim::{ConfigError, SimDuration, SimRng, SimTime};

use crate::application::{AppArrival, AppId};

/// An unbounded stochastic arrival process, described by its rate function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Stationary Poisson arrivals at a constant rate.
    Poisson {
        /// Mean arrivals per simulated second.
        rate_per_sec: f64,
    },
    /// Sinusoidal (diurnal) load: `rate(t) = base · (1 + amplitude · sin(2πt/period))`.
    Diurnal {
        /// Mean arrivals per simulated second, averaged over a period.
        base_rate_per_sec: f64,
        /// Relative swing around the base rate, in `[0, 1)`.
        amplitude: f64,
        /// Length of one full day/night cycle.
        period: SimDuration,
    },
    /// Flash-crowd square wave: `burst_rate` for the first `burst_len` of every
    /// `period`, `base_rate` otherwise.
    Burst {
        /// Arrivals per simulated second outside bursts.
        base_rate_per_sec: f64,
        /// Arrivals per simulated second during bursts.
        burst_rate_per_sec: f64,
        /// Interval between burst onsets.
        period: SimDuration,
        /// Duration of each burst (must not exceed `period`).
        burst_len: SimDuration,
    },
}

impl ArrivalProcess {
    /// The instantaneous arrival rate (per simulated second) at time `t`.
    pub(crate) fn rate_at(&self, t: SimTime) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                amplitude,
                period,
            } => {
                let phase = 2.0 * std::f64::consts::PI * t.as_secs_f64() / period.as_secs_f64();
                base_rate_per_sec * (1.0 + amplitude * phase.sin())
            }
            ArrivalProcess::Burst {
                base_rate_per_sec,
                burst_rate_per_sec,
                period,
                burst_len,
            } => {
                let offset = t.as_micros() % period.as_micros();
                if offset < burst_len.as_micros() {
                    burst_rate_per_sec
                } else {
                    base_rate_per_sec
                }
            }
        }
    }

    /// The peak of the rate function — the thinning envelope.
    pub(crate) fn max_rate_per_sec(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                amplitude,
                ..
            } => base_rate_per_sec * (1.0 + amplitude),
            ArrivalProcess::Burst {
                base_rate_per_sec,
                burst_rate_per_sec,
                ..
            } => base_rate_per_sec.max(burst_rate_per_sec),
        }
    }

    /// Returns a copy with every rate multiplied by `factor` (the shape of the
    /// rate function — relative amplitude, periods — is preserved).  This is
    /// how the service matrix sweeps load levels over one process definition.
    pub fn scaled(&self, factor: f64) -> ArrivalProcess {
        assert!(factor > 0.0, "load factor must be positive, got {factor}");
        let mut scaled = *self;
        match &mut scaled {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec *= factor,
            ArrivalProcess::Diurnal {
                base_rate_per_sec, ..
            } => *base_rate_per_sec *= factor,
            ArrivalProcess::Burst {
                base_rate_per_sec,
                burst_rate_per_sec,
                ..
            } => {
                *base_rate_per_sec *= factor;
                *burst_rate_per_sec *= factor;
            }
        }
        scaled
    }

    /// Checks that the process parameters are not degenerate (non-positive
    /// or non-finite rates, out-of-range amplitude, zero period, or a burst
    /// longer than its period), naming the first offending parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let positive = |rate: f64, parameter: &'static str, what: &str| {
            ConfigError::ensure(
                rate.is_finite() && rate > 0.0,
                parameter,
                format_args!("{what} must be positive and finite, got {rate}"),
            )
        };
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                positive(rate_per_sec, "rate_per_sec", "Poisson rate")
            }
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                amplitude,
                period,
            } => {
                positive(base_rate_per_sec, "base_rate_per_sec", "diurnal base rate")?;
                ConfigError::ensure(
                    (0.0..1.0).contains(&amplitude),
                    "amplitude",
                    format_args!("diurnal amplitude must be in [0, 1), got {amplitude}"),
                )?;
                ConfigError::ensure(
                    !period.is_zero(),
                    "period",
                    format_args!("diurnal period must be positive"),
                )
            }
            ArrivalProcess::Burst {
                base_rate_per_sec,
                burst_rate_per_sec,
                period,
                burst_len,
            } => {
                positive(base_rate_per_sec, "base_rate_per_sec", "burst base rate")?;
                positive(burst_rate_per_sec, "burst_rate_per_sec", "burst peak rate")?;
                ConfigError::ensure(
                    !period.is_zero(),
                    "period",
                    format_args!("burst period must be positive"),
                )?;
                ConfigError::ensure(
                    !burst_len.is_zero(),
                    "burst_len",
                    format_args!("burst length must be positive"),
                )?;
                ConfigError::ensure(
                    burst_len <= period,
                    "burst_len",
                    format_args!("burst length {burst_len} exceeds period {period}"),
                )
            }
        }
    }
}

/// Draws an unbounded stream of [`AppArrival`]s from an [`ArrivalProcess`].
///
/// Application identity (suite index, batch size) is drawn uniformly per
/// arrival from the same RNG stream as the timing, so one seed fixes the whole
/// trace.  The driver is an [`Iterator`] that never ends — callers stop by
/// their own condition (the service runner's [`StopCondition`][stop]).
///
/// [stop]: ../../versaslot_core/service/enum.StopCondition.html
///
/// # Example
///
/// ```
/// use versaslot_workload::{ArrivalDriver, ArrivalProcess};
///
/// let process = ArrivalProcess::Poisson { rate_per_sec: 2.0 };
/// let mut driver = ArrivalDriver::new(process, 5, (5, 30), 0xD1CE);
/// let first = driver.next_arrival();
/// let mut replay = ArrivalDriver::new(process, 5, (5, 30), 0xD1CE);
/// assert_eq!(replay.next_arrival(), first);
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalDriver {
    process: ArrivalProcess,
    suite_len: usize,
    batch_range: (u32, u32),
    rng: SimRng,
    clock: SimTime,
    next_id: u32,
}

impl ArrivalDriver {
    /// Creates a driver for `process` over a suite of `suite_len` applications,
    /// with uniform batch sizes in the inclusive `batch_range`.
    ///
    /// # Panics
    ///
    /// Panics if the process fails [`ArrivalProcess::validate`], `suite_len` is
    /// zero, or the batch range is empty or starts at zero.
    pub fn new(
        process: ArrivalProcess,
        suite_len: usize,
        batch_range: (u32, u32),
        seed: u64,
    ) -> Self {
        process.validate().unwrap_or_else(|err| panic!("{err}"));
        assert!(suite_len > 0, "suite must not be empty");
        let (lo, hi) = batch_range;
        assert!(lo >= 1 && lo <= hi, "invalid batch range {lo}..={hi}");
        ArrivalDriver {
            process,
            suite_len,
            batch_range,
            rng: SimRng::seed_from(seed),
            clock: SimTime::ZERO,
            next_id: 0,
        }
    }

    /// Number of arrivals generated so far.
    pub fn generated(&self) -> u64 {
        self.next_id as u64
    }

    /// Generates the next arrival.  Sampling is exact for any bounded rate
    /// function via thinning: gaps are drawn at the peak rate and candidates
    /// are accepted with probability `rate(t) / max_rate`.
    pub fn next_arrival(&mut self) -> AppArrival {
        let max_rate = self.process.max_rate_per_sec();
        loop {
            // Exponential gap at the envelope rate; gen_unit() is in [0, 1) so
            // the log argument is strictly positive.
            let gap_secs = -(1.0 - self.rng.gen_unit()).ln() / max_rate;
            self.clock += SimDuration::from_millis_f64(gap_secs * 1_000.0);
            if self.rng.gen_unit() * max_rate <= self.process.rate_at(self.clock) {
                break;
            }
        }
        let app_index = self.rng.gen_range(0..self.suite_len);
        let (lo, hi) = self.batch_range;
        let batch_size = self.rng.gen_range(lo..=hi);
        let id = AppId(self.next_id);
        self.next_id = self
            .next_id
            .checked_add(1)
            .expect("arrival id space exhausted");
        AppArrival::new(id, app_index, batch_size, self.clock)
    }
}

impl Iterator for ArrivalDriver {
    type Item = AppArrival;

    fn next(&mut self) -> Option<AppArrival> {
        Some(self.next_arrival())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn processes() -> [ArrivalProcess; 3] {
        [
            ArrivalProcess::Poisson { rate_per_sec: 2.0 },
            ArrivalProcess::Diurnal {
                base_rate_per_sec: 2.0,
                amplitude: 0.8,
                period: SimDuration::from_secs(60),
            },
            ArrivalProcess::Burst {
                base_rate_per_sec: 0.5,
                burst_rate_per_sec: 8.0,
                period: SimDuration::from_secs(30),
                burst_len: SimDuration::from_secs(5),
            },
        ]
    }

    #[test]
    fn drivers_are_deterministic_and_seed_sensitive() {
        for process in processes() {
            let draw = |seed: u64| {
                ArrivalDriver::new(process, 5, (5, 30), seed)
                    .take(50)
                    .collect::<Vec<_>>()
            };
            assert_eq!(draw(7), draw(7), "{process:?}: same seed differs");
            assert_ne!(draw(7), draw(8), "{process:?}: seed ignored");
        }
    }

    #[test]
    fn arrivals_are_well_formed_and_time_ordered() {
        for process in processes() {
            let mut driver = ArrivalDriver::new(process, 5, (5, 30), 42);
            let mut last = SimTime::ZERO;
            for i in 0..200u32 {
                let arrival = driver.next_arrival();
                assert_eq!(arrival.id, AppId(i));
                assert!(arrival.arrival >= last, "{process:?}: time reversed");
                assert!(arrival.app_index < 5);
                assert!((5..=30).contains(&arrival.batch_size));
                last = arrival.arrival;
            }
            assert_eq!(driver.generated(), 200);
            assert_eq!(driver.clock, last);
        }
    }

    #[test]
    fn poisson_rate_is_approximately_met() {
        let mut driver =
            ArrivalDriver::new(ArrivalProcess::Poisson { rate_per_sec: 4.0 }, 5, (5, 30), 1);
        let n = 4_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = driver.next_arrival().arrival;
        }
        let observed = n as f64 / last.as_secs_f64();
        assert!(
            (observed - 4.0).abs() / 4.0 < 0.1,
            "observed rate {observed:.2}/s, expected 4/s"
        );
    }

    #[test]
    fn burst_process_concentrates_arrivals_in_bursts() {
        let period = SimDuration::from_secs(30);
        let burst_len = SimDuration::from_secs(5);
        let process = ArrivalProcess::Burst {
            base_rate_per_sec: 0.2,
            burst_rate_per_sec: 10.0,
            period,
            burst_len,
        };
        let driver = ArrivalDriver::new(process, 5, (5, 30), 3);
        let arrivals: Vec<_> = driver.take(2_000).collect();
        let in_burst = arrivals
            .iter()
            .filter(|a| a.arrival.as_micros() % period.as_micros() < burst_len.as_micros())
            .count();
        // Expected fraction: (10·5) / (10·5 + 0.2·25) = ~0.91.
        let fraction = in_burst as f64 / arrivals.len() as f64;
        assert!(fraction > 0.8, "burst fraction only {fraction:.2}");
    }

    #[test]
    fn diurnal_rate_peaks_a_quarter_period_in() {
        let process = ArrivalProcess::Diurnal {
            base_rate_per_sec: 2.0,
            amplitude: 0.5,
            period: SimDuration::from_secs(100),
        };
        let quarter = SimTime::from_secs(25);
        let trough = SimTime::from_secs(75);
        assert!((process.rate_at(quarter) - 3.0).abs() < 1e-9);
        assert!((process.rate_at(trough) - 1.0).abs() < 1e-9);
        assert!((process.max_rate_per_sec() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_multiplies_rates_and_preserves_shape() {
        for process in processes() {
            let scaled = process.scaled(2.5);
            assert_eq!(scaled.validate(), Ok(()));
            let t = SimTime::from_secs(13);
            assert!((scaled.rate_at(t) - 2.5 * process.rate_at(t)).abs() < 1e-9);
            assert!((scaled.max_rate_per_sec() - 2.5 * process.max_rate_per_sec()).abs() < 1e-9);
            assert_eq!(
                std::mem::discriminant(&scaled),
                std::mem::discriminant(&process)
            );
        }
    }

    /// `process` fails validation on `parameter`; `ArrivalDriver::new` then
    /// refuses it, panicking with the error's text (which the caller's
    /// `should_panic` checks).
    fn assert_rejects(process: ArrivalProcess, parameter: &str) {
        let err = process.validate().unwrap_err();
        // The failure message names no parameter: either name may be the
        // caller's `should_panic` text.
        assert!(
            err.parameter() == parameter,
            "validation blamed another parameter"
        );
        ArrivalDriver::new(process, 5, (5, 30), 1);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn validate_rejects_full_amplitude() {
        let process = ArrivalProcess::Diurnal {
            base_rate_per_sec: 1.0,
            amplitude: 1.0,
            period: SimDuration::from_secs(10),
        };
        assert_rejects(process, "amplitude");
    }

    #[test]
    #[should_panic(expected = "exceeds period")]
    fn validate_rejects_overlong_burst() {
        let process = ArrivalProcess::Burst {
            base_rate_per_sec: 1.0,
            burst_rate_per_sec: 2.0,
            period: SimDuration::from_secs(5),
            burst_len: SimDuration::from_secs(6),
        };
        assert_rejects(process, "burst_len");
    }
}
