//! Deterministic, seeded fault injection.
//!
//! Real FPGA clusters fail in exactly the places the VersaSlot paper's happy
//! path exercises hardest: partial reconfigurations abort at the PCAP, Aurora
//! links flap mid-transfer, and whole boards die.  This module provides the
//! *schedule* side of the fault plane — a replayable, seeded description of
//! when and where faults strike — while the engine in `versaslot-core`
//! consumes it to inject retries, stalls, and evictions.
//!
//! # Determinism
//!
//! Every decision is a pure function of the [`FaultProfile`] seed and a
//! monotone draw index, never of wall-clock state or iteration order:
//!
//! * **PR outcomes** hash `(seed, draw-index)` through splitmix64, so the
//!   k-th reconfiguration completion fails or succeeds identically whether
//!   the engine steps per-event or drains whole timestamp batches.
//! * **Board failure/repair delays** come from per-board derived [`SimRng`]
//!   streams, so adding boards (or reordering their timers) never perturbs
//!   another board's timeline.
//! * **Link flaps** are per-link renewal processes (exponential gaps and
//!   durations) generated lazily under monotone-time queries.
//!
//! A profile with all fault classes disabled ([`FaultProfile::is_noop`])
//! draws nothing from any stream, which is what lets the engine guarantee
//! byte-identical reports when the schedule is empty.

use serde::{Deserialize, Serialize};

use crate::error::ConfigError;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Stream ids for per-board failure timers (board `i` uses `BOARD_STREAM + i`).
const BOARD_STREAM: u64 = 0x1000;
/// Stream ids for per-link flap timelines (link `i` uses `LINK_STREAM + i`).
const LINK_STREAM: u64 = 0x2000;
/// Salt folded into the PR-outcome hash so it never collides with seeds used
/// elsewhere (workload generation, routing) at the same numeric value.
const PR_OUTCOME_SALT: u64 = 0x9E6D_5EC7_FA17_0001;

/// Declarative description of a fault scenario.
///
/// All three fault classes default to *off*; builders switch them on.  The
/// profile is `Copy` and serializable so it can ride inside system and fleet
/// configuration structs.
///
/// ```
/// use versaslot_sim::fault::FaultProfile;
/// use versaslot_sim::SimDuration;
///
/// let storm = FaultProfile::new(7)
///     .with_pr_failures(0.05)
///     .with_board_failures(SimDuration::from_secs(120), SimDuration::from_secs(10))
///     .with_link_flaps(0.01, SimDuration::from_millis(200));
/// assert!(!storm.is_noop());
/// assert!(storm.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Seed of the whole fault schedule; all streams derive from it.
    pub seed: u64,
    /// Probability that any single PCAP bitstream load fails.
    pub pr_fail_prob: f64,
    /// How many times a failed load is retried before the placement is
    /// abandoned and the unit returned to the scheduler.
    pub max_pr_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub pr_retry_backoff: SimDuration,
    /// Upper bound on the exponential backoff.
    pub pr_retry_backoff_cap: SimDuration,
    /// Mean time to failure per board (`None` disables board failures).
    pub board_mttf: Option<SimDuration>,
    /// Mean time to repair a failed board.
    pub board_mttr: SimDuration,
    /// Mean Aurora link flaps per second (0 disables flaps).
    pub link_flap_rate_per_sec: f64,
    /// Mean duration of one link flap.
    pub link_flap_mean_duration: SimDuration,
}

impl FaultProfile {
    /// A profile with every fault class disabled — attaching it to an engine
    /// must be a strict no-op (asserted by tests in `versaslot-core`).
    pub fn new(seed: u64) -> Self {
        FaultProfile {
            seed,
            pr_fail_prob: 0.0,
            max_pr_retries: 4,
            pr_retry_backoff: SimDuration::from_micros(500),
            pr_retry_backoff_cap: SimDuration::from_millis(8),
            board_mttf: None,
            board_mttr: SimDuration::from_secs(10),
            link_flap_rate_per_sec: 0.0,
            link_flap_mean_duration: SimDuration::from_millis(200),
        }
    }

    /// Replaces the schedule seed (used by the fleet to derive per-shard
    /// schedules from one profile).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables transient PR failures: each PCAP load fails with probability
    /// `prob` and is retried with capped exponential backoff.
    pub fn with_pr_failures(mut self, prob: f64) -> Self {
        self.pr_fail_prob = prob;
        self
    }

    /// Overrides the retry policy for failed PR loads.
    pub fn with_pr_retry(
        mut self,
        max_retries: u32,
        backoff: SimDuration,
        cap: SimDuration,
    ) -> Self {
        self.max_pr_retries = max_retries;
        self.pr_retry_backoff = backoff;
        self.pr_retry_backoff_cap = cap;
        self
    }

    /// Enables whole-board failures with exponential MTTF/MTTR.
    pub fn with_board_failures(mut self, mttf: SimDuration, mttr: SimDuration) -> Self {
        self.board_mttf = Some(mttf);
        self.board_mttr = mttr;
        self
    }

    /// Enables Aurora link flaps as a renewal process: `rate_per_sec` flap
    /// onsets per second on average, each lasting `mean_duration` on average.
    pub fn with_link_flaps(mut self, rate_per_sec: f64, mean_duration: SimDuration) -> Self {
        self.link_flap_rate_per_sec = rate_per_sec;
        self.link_flap_mean_duration = mean_duration;
        self
    }

    /// `true` when no fault class is enabled (the schedule draws nothing).
    pub fn is_noop(&self) -> bool {
        self.pr_fail_prob <= 0.0 && self.board_mttf.is_none() && self.link_flap_rate_per_sec <= 0.0
    }

    /// Checks that the profile is not degenerate, naming the first offending
    /// parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::ensure(
            self.pr_fail_prob.is_finite() && (0.0..=1.0).contains(&self.pr_fail_prob),
            "pr_fail_prob",
            format_args!(
                "PR failure probability must be within [0, 1], got {}",
                self.pr_fail_prob
            ),
        )?;
        if self.pr_fail_prob > 0.0 {
            ConfigError::ensure(
                !self.pr_retry_backoff.is_zero(),
                "pr_retry_backoff",
                format_args!("PR retry backoff must be positive when PR failures are enabled"),
            )?;
            ConfigError::ensure(
                self.pr_retry_backoff_cap >= self.pr_retry_backoff,
                "pr_retry_backoff_cap",
                format_args!("PR retry backoff cap must be at least the base backoff"),
            )?;
        }
        if let Some(mttf) = self.board_mttf {
            ConfigError::ensure(
                !mttf.is_zero(),
                "board_mttf",
                format_args!("board MTTF must be positive"),
            )?;
            ConfigError::ensure(
                !self.board_mttr.is_zero(),
                "board_mttr",
                format_args!("board MTTR must be positive"),
            )?;
        }
        ConfigError::ensure(
            self.link_flap_rate_per_sec.is_finite() && self.link_flap_rate_per_sec >= 0.0,
            "link_flap_rate_per_sec",
            format_args!(
                "link flap rate must be finite and non-negative, got {}",
                self.link_flap_rate_per_sec
            ),
        )?;
        if self.link_flap_rate_per_sec > 0.0 {
            ConfigError::ensure(
                !self.link_flap_mean_duration.is_zero(),
                "link_flap_mean_duration",
                format_args!("link flap mean duration must be positive when flaps are enabled"),
            )?;
        }
        Ok(())
    }

    /// Compact human-readable label ("fault-free" for a no-op profile).
    pub fn describe(&self) -> String {
        if self.is_noop() {
            return "fault-free".to_string();
        }
        let mut parts = Vec::new();
        if self.pr_fail_prob > 0.0 {
            parts.push(format!("pr={:.1}%", self.pr_fail_prob * 100.0));
        }
        if let Some(mttf) = self.board_mttf {
            parts.push(format!("board mttf={mttf}/mttr={}", self.board_mttr));
        }
        if self.link_flap_rate_per_sec > 0.0 {
            parts.push(format!("flaps={}/s", self.link_flap_rate_per_sec));
        }
        parts.join(" ")
    }
}

/// Running counters of injected faults and their consequences.
///
/// Kept separate from the engine's reports so an empty fault schedule changes
/// no report bytes; exposed via `fault_stats()` accessors and folded across
/// fleet shards with [`FaultStats::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// PCAP bitstream loads that failed.
    pub pr_failures: u64,
    /// Failed loads that were resubmitted with backoff.
    pub pr_retries: u64,
    /// Placements abandoned after exhausting retries.
    pub pr_gave_up: u64,
    /// Whole-board failures injected.
    pub board_failures: u64,
    /// Boards repaired and brought back online.
    pub board_repairs: u64,
    /// Slot occupants evicted back to the unplaced set (board failures plus
    /// abandoned reconfigurations).
    pub evictions: u64,
    /// Aurora link flaps that stalled an in-flight transfer.
    pub link_flaps: u64,
    /// Total stall time charged by link flaps.
    pub flap_stall: SimDuration,
    /// Completion events cancelled because an eviction raced them.
    pub cancelled_events: u64,
}

impl FaultStats {
    /// Accumulates another stats block (used to fold fleet shards).
    pub fn merge(&mut self, other: &FaultStats) {
        self.pr_failures += other.pr_failures;
        self.pr_retries += other.pr_retries;
        self.pr_gave_up += other.pr_gave_up;
        self.board_failures += other.board_failures;
        self.board_repairs += other.board_repairs;
        self.evictions += other.evictions;
        self.link_flaps += other.link_flaps;
        self.flap_stall += other.flap_stall;
        self.cancelled_events += other.cancelled_events;
    }

    /// `true` when nothing was injected or cancelled.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Instantiated fault schedule: the profile plus the per-board and per-link
/// random streams, owned by one engine (or one fleet forwarding fabric).
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    profile: FaultProfile,
    /// Monotone index of PR-outcome draws (the hash input).
    pr_draws: u64,
    /// One failure-timer stream per board.
    board_rngs: Vec<SimRng>,
    /// One flap renewal process per link.
    links: Vec<LinkFlapTimeline>,
}

impl FaultSchedule {
    /// Builds the schedule for a system with `num_boards` boards (each board
    /// also owns one Aurora link timeline).
    pub fn new(profile: FaultProfile, num_boards: usize) -> Self {
        profile.validate().unwrap_or_else(|err| panic!("{err}"));
        let root = SimRng::seed_from(profile.seed);
        let board_rngs = (0..num_boards)
            .map(|i| root.derive(BOARD_STREAM + i as u64))
            .collect();
        let links = (0..num_boards)
            .map(|i| {
                LinkFlapTimeline::new(
                    root.derive(LINK_STREAM + i as u64),
                    profile.link_flap_rate_per_sec,
                    profile.link_flap_mean_duration,
                )
            })
            .collect();
        FaultSchedule {
            profile,
            pr_draws: 0,
            board_rngs,
            links,
        }
    }

    /// The profile this schedule was built from.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Decides the fate of the next PCAP load completion: `true` means the
    /// load failed.  The outcome is a pure hash of `(seed, draw index)`, so
    /// it is independent of how the engine batches events — the k-th load
    /// decided is the k-th hash, full stop.
    pub fn next_pr_outcome(&mut self) -> bool {
        let k = self.pr_draws;
        self.pr_draws += 1;
        let p = self.profile.pr_fail_prob;
        if p <= 0.0 {
            return false;
        }
        let z = splitmix64(
            self.profile
                .seed
                .wrapping_add(PR_OUTCOME_SALT)
                .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        // Top 53 bits → uniform in [0, 1).
        let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Backoff before retrying the `attempt`-th failed load (1-based):
    /// `base * 2^(attempt-1)`, capped.
    pub fn pr_backoff(&self, attempt: u32) -> SimDuration {
        let base = self.profile.pr_retry_backoff.as_micros();
        let shift = attempt.saturating_sub(1).min(62);
        let scaled = base.saturating_mul(1u64 << shift);
        SimDuration::from_micros(scaled.min(self.profile.pr_retry_backoff_cap.as_micros()))
    }

    /// Draws the delay until `board`'s next failure (exponential with the
    /// profile MTTF), or `None` when board failures are disabled.
    pub fn next_board_failure(&mut self, board: usize) -> Option<SimDuration> {
        let mttf = self.profile.board_mttf?;
        Some(exp_duration(&mut self.board_rngs[board], mttf))
    }

    /// Draws how long `board` stays down (exponential with the profile MTTR).
    pub fn board_repair(&mut self, board: usize) -> SimDuration {
        exp_duration(&mut self.board_rngs[board], self.profile.board_mttr)
    }

    /// Residual flap stall on `link` for a transfer starting at `at`: zero
    /// when the link is clean, otherwise the time until the flap ends.
    /// Queries per link must be monotone in time (debug-asserted) so the
    /// timeline can be generated lazily and dropped behind the cursor.
    pub fn link_stall(&mut self, link: usize, at: SimTime) -> SimDuration {
        self.links[link].stall_at(at)
    }
}

/// Lazily generated renewal process of link flap intervals.
#[derive(Debug, Clone)]
struct LinkFlapTimeline {
    rng: SimRng,
    rate_per_sec: f64,
    mean_duration: SimDuration,
    flap_start: SimTime,
    flap_end: SimTime,
    primed: bool,
    last_query: SimTime,
}

impl LinkFlapTimeline {
    fn new(rng: SimRng, rate_per_sec: f64, mean_duration: SimDuration) -> Self {
        LinkFlapTimeline {
            rng,
            rate_per_sec,
            mean_duration,
            flap_start: SimTime::ZERO,
            flap_end: SimTime::ZERO,
            primed: false,
            last_query: SimTime::ZERO,
        }
    }

    /// Generates the next flap interval starting strictly after `cursor`.
    fn advance_from(&mut self, cursor: SimTime) {
        let mean_gap_micros = 1e6 / self.rate_per_sec;
        let gap = exp_duration_micros(&mut self.rng, mean_gap_micros);
        let duration = exp_duration(&mut self.rng, self.mean_duration);
        self.flap_start = cursor + gap;
        self.flap_end = self.flap_start + duration;
    }

    fn stall_at(&mut self, at: SimTime) -> SimDuration {
        debug_assert!(
            at >= self.last_query,
            "link flap queries must be monotone in time"
        );
        self.last_query = at;
        if self.rate_per_sec <= 0.0 {
            return SimDuration::ZERO;
        }
        if !self.primed {
            self.advance_from(SimTime::ZERO);
            self.primed = true;
        }
        while self.flap_end <= at {
            let cursor = self.flap_end;
            self.advance_from(cursor);
        }
        if at >= self.flap_start {
            self.flap_end - at
        } else {
            SimDuration::ZERO
        }
    }
}

/// Exponential draw with the given mean, floored at one microsecond so
/// repairs and gaps are never zero-length (a `BoardUp` must be strictly
/// later than its `BoardDown`).
fn exp_duration(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    exp_duration_micros(rng, mean.as_micros() as f64)
}

fn exp_duration_micros(rng: &mut SimRng, mean_micros: f64) -> SimDuration {
    let unit = rng.gen_unit();
    let factor = -(1.0 - unit).ln();
    let micros = (mean_micros * factor).round();
    SimDuration::from_micros((micros as u64).max(1))
}

/// The same splitmix64 finalizer the fleet router uses for shard hashing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm() -> FaultProfile {
        FaultProfile::new(11)
            .with_pr_failures(0.2)
            .with_board_failures(SimDuration::from_secs(60), SimDuration::from_secs(5))
            .with_link_flaps(0.05, SimDuration::from_millis(100))
    }

    #[test]
    fn noop_profile_draws_nothing() {
        let mut schedule = FaultSchedule::new(FaultProfile::new(3), 2);
        for _ in 0..100 {
            assert!(!schedule.next_pr_outcome());
        }
        assert_eq!(schedule.next_board_failure(0), None);
        assert_eq!(
            schedule.link_stall(0, SimTime::from_secs(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            schedule.link_stall(1, SimTime::from_secs(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn pr_outcomes_are_a_pure_function_of_seed_and_index() {
        let mut a = FaultSchedule::new(storm(), 1);
        let mut b = FaultSchedule::new(storm(), 4);
        let outcomes_a: Vec<bool> = (0..500).map(|_| a.next_pr_outcome()).collect();
        let outcomes_b: Vec<bool> = (0..500).map(|_| b.next_pr_outcome()).collect();
        assert_eq!(outcomes_a, outcomes_b, "board count must not matter");
        let failures = outcomes_a.iter().filter(|&&f| f).count();
        assert!(
            (50..200).contains(&failures),
            "0.2 failure rate should land near 100/500, got {failures}"
        );
        let mut c = FaultSchedule::new(storm().with_seed(12), 1);
        let outcomes_c: Vec<bool> = (0..500).map(|_| c.next_pr_outcome()).collect();
        assert_ne!(outcomes_a, outcomes_c, "different seeds must differ");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let profile = FaultProfile::new(0).with_pr_failures(0.1).with_pr_retry(
            6,
            SimDuration::from_micros(500),
            SimDuration::from_millis(2),
        );
        let schedule = FaultSchedule::new(profile, 1);
        assert_eq!(schedule.pr_backoff(1), SimDuration::from_micros(500));
        assert_eq!(schedule.pr_backoff(2), SimDuration::from_micros(1000));
        assert_eq!(schedule.pr_backoff(3), SimDuration::from_micros(2000));
        assert_eq!(schedule.pr_backoff(4), SimDuration::from_micros(2000));
        assert_eq!(schedule.pr_backoff(40), SimDuration::from_micros(2000));
    }

    #[test]
    fn board_streams_are_independent_and_replayable() {
        let mut a = FaultSchedule::new(storm(), 3);
        let mut b = FaultSchedule::new(storm(), 3);
        // Interleave draws differently; per-board sequences must still match.
        let a0: Vec<_> = (0..5).map(|_| a.next_board_failure(0).unwrap()).collect();
        let a2: Vec<_> = (0..5).map(|_| a.next_board_failure(2).unwrap()).collect();
        let b2: Vec<_> = (0..5).map(|_| b.next_board_failure(2).unwrap()).collect();
        let b0: Vec<_> = (0..5).map(|_| b.next_board_failure(0).unwrap()).collect();
        assert_eq!(a0, b0);
        assert_eq!(a2, b2);
        assert_ne!(a0, a2, "different boards should see different timelines");
        // Repairs are strictly positive so BoardUp is strictly after BoardDown.
        for _ in 0..100 {
            assert!(!a.board_repair(1).is_zero());
        }
    }

    #[test]
    fn link_flaps_form_a_replayable_monotone_timeline() {
        let mut a = FaultSchedule::new(storm(), 2);
        let mut b = FaultSchedule::new(storm(), 2);
        let mut stalled = 0u32;
        for step in 0..2_000u64 {
            let at = SimTime::from_millis(step * 50);
            let sa = a.link_stall(0, at);
            assert_eq!(sa, b.link_stall(0, at), "replay must match at {at}");
            if !sa.is_zero() {
                stalled += 1;
            }
        }
        // rate 0.05/s × mean 100 ms → roughly 0.5% of instants stalled; just
        // require the process actually produces flaps over 100 s of queries.
        assert!(
            stalled > 0,
            "a 0.05/s flap process should hit 100 s of probes"
        );
    }

    #[test]
    fn describe_labels_are_stable() {
        assert_eq!(FaultProfile::new(0).describe(), "fault-free");
        let label = storm().describe();
        assert!(label.contains("pr=20.0%"), "{label}");
        assert!(label.contains("mttf"), "{label}");
        assert!(label.contains("flaps=0.05/s"), "{label}");
    }

    /// `profile` fails validation on `parameter`; the schedule then refuses
    /// it, panicking with the error's text (which the caller's
    /// `should_panic` checks).
    fn assert_rejects(profile: FaultProfile, parameter: &str) {
        let err = profile.validate().unwrap_err();
        // The failure message names no parameter: either name may be the
        // caller's `should_panic` text.
        assert!(
            err.parameter() == parameter,
            "validation blamed another parameter"
        );
        FaultSchedule::new(profile, 1);
    }

    #[test]
    #[should_panic(expected = "PR failure probability")]
    fn validate_rejects_nan_probability() {
        assert_rejects(
            FaultProfile::new(0).with_pr_failures(f64::NAN),
            "pr_fail_prob",
        );
    }

    #[test]
    #[should_panic(expected = "board MTTF must be positive")]
    fn validate_rejects_zero_mttf() {
        assert_rejects(
            FaultProfile::new(0).with_board_failures(SimDuration::ZERO, SimDuration::from_secs(1)),
            "board_mttf",
        );
    }

    #[test]
    fn stats_merge_accumulates_every_field() {
        let mut a = FaultStats {
            pr_failures: 1,
            pr_retries: 2,
            pr_gave_up: 3,
            board_failures: 4,
            board_repairs: 5,
            evictions: 6,
            link_flaps: 7,
            flap_stall: SimDuration::from_millis(8),
            cancelled_events: 9,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.pr_failures, 2);
        assert_eq!(a.pr_gave_up, 6);
        assert_eq!(a.board_repairs, 10);
        assert_eq!(a.link_flaps, 14);
        assert_eq!(a.flap_stall, SimDuration::from_millis(16));
        assert_eq!(a.cancelled_events, 18);
        assert!(!a.is_zero());
        assert!(FaultStats::default().is_zero());
    }
}
