//! System configuration.
//!
//! [`SystemConfig`] collects everything the sharing simulator needs besides the
//! workload: the board (or boards, for the switching experiment), the hypervisor
//! overheads and the optional cross-board switching controller parameters.

use serde::{Deserialize, Serialize};
use versaslot_fpga::board::BoardSpec;
use versaslot_sim::fault::FaultProfile;
use versaslot_sim::{ConfigError, SimDuration};

use crate::dswitch::SwitchThresholds;
use crate::engine::MAX_SLOTS;

/// How often the D_switch metric is recomputed, in candidate-queue updates
/// (the paper recalculates "after every *n* updates"; Figure 8 uses 4).
pub(crate) const DEFAULT_DSWITCH_PERIOD: u32 = 4;

/// Configuration of the cross-board switching controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchingConfig {
    /// Schmitt-trigger thresholds for the switch loop.
    pub thresholds: SwitchThresholds,
    /// Number of candidate-queue updates between D_switch recomputations.
    pub period: u32,
    /// Payload transferred per migrated application (ready-list entry, task
    /// metadata and data buffers), in bytes.
    pub payload_per_app_bytes: u64,
}

impl Default for SwitchingConfig {
    fn default() -> Self {
        SwitchingConfig {
            thresholds: SwitchThresholds::paper_default(),
            period: DEFAULT_DSWITCH_PERIOD,
            payload_per_app_bytes: 300_000,
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The boards available to the run.  Non-switching runs use exactly one board;
    /// the switching experiment uses two (index 0 is active first).
    pub boards: Vec<BoardSpec>,
    /// CPU cost of launching one batch execution from the scheduler core.
    pub launch_overhead: SimDuration,
    /// Delay above which a postponed launch or PR is counted as a *blocked task*.
    pub blocked_threshold: SimDuration,
    /// Cross-board switching controller; `None` disables switching.
    pub switching: Option<SwitchingConfig>,
    /// Record a full event trace (slower; used by tests and debugging).
    pub record_trace: bool,
    /// Deterministic fault injection; `None` disables the fault plane
    /// entirely (the default for every existing run mode), and so does a
    /// profile that injects nothing (see `Self::active_faults`).
    pub faults: Option<FaultProfile>,
}

impl SystemConfig {
    /// Single-board configuration with paper-default overheads.
    pub fn single_board(board: BoardSpec) -> Self {
        SystemConfig {
            boards: vec![board],
            launch_overhead: SimDuration::from_micros(60),
            blocked_threshold: SimDuration::from_micros(500),
            switching: None,
            record_trace: false,
            faults: None,
        }
    }

    /// Two-board configuration with the switching controller enabled.
    ///
    /// `first` is the board the workload starts on (the paper starts on
    /// `Only.Little` and switches to `Big.Little` as contention grows).
    pub fn switching_cluster(first: BoardSpec, second: BoardSpec) -> Self {
        SystemConfig {
            boards: vec![first, second],
            switching: Some(SwitchingConfig::default()),
            ..Self::single_board(BoardSpec::zcu216_only_little())
        }
    }

    /// Returns a copy with trace recording enabled.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Returns a copy with custom switching parameters.
    pub fn with_switching(mut self, switching: SwitchingConfig) -> Self {
        self.switching = Some(switching);
        self
    }

    /// Returns a copy with a fault profile attached.  The profile is
    /// validated when the simulator is constructed; board MTTF/MTTR faults
    /// are mutually exclusive with the switching controller.
    pub fn with_faults(mut self, faults: FaultProfile) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Checks that the configuration is not degenerate, naming the first
    /// offending parameter.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::ensure(
            !self.boards.is_empty(),
            "boards",
            format_args!("at least one board is required"),
        )?;
        let total_slots: usize = self.boards.iter().map(|b| b.layout.slots().len()).sum();
        ConfigError::ensure(
            total_slots <= MAX_SLOTS,
            "boards",
            format_args!("at most {MAX_SLOTS} slots are supported per run, got {total_slots}"),
        )?;
        if let Some(switching) = &self.switching {
            // A zero period would never recompute D_switch: no candidate count
            // is a multiple of zero.
            ConfigError::ensure(
                switching.period > 0,
                "period",
                format_args!("the D_switch period must be positive"),
            )?;
            let SwitchThresholds { upper, lower } = switching.thresholds;
            ConfigError::ensure(
                0.0 < lower && lower < upper && upper < 1.0,
                "thresholds",
                format_args!(
                    "thresholds must satisfy 0 < lower < upper < 1 (got lower={lower}, upper={upper})"
                ),
            )?;
            ConfigError::ensure(
                self.boards.len() >= 2,
                "switching",
                format_args!("cross-board switching needs at least two boards"),
            )?;
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
            ConfigError::ensure(
                faults.board_mttf.is_none() || self.switching.is_none(),
                "board_mttf",
                format_args!(
                    "board failure injection and cross-board switching are mutually exclusive"
                ),
            )?;
        }
        Ok(())
    }

    /// The profile the simulator builds a fault plane for: the attached one
    /// unless it injects nothing ([`FaultProfile::is_noop`]).  An empty
    /// schedule therefore runs the fault-free code path itself.
    pub(crate) fn active_faults(&self) -> Option<FaultProfile> {
        self.faults.filter(|profile| !profile.is_noop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_board_defaults() {
        let config = SystemConfig::single_board(BoardSpec::zcu216_big_little());
        assert_eq!(config.boards.len(), 1);
        assert!(config.switching.is_none());
        assert!(!config.record_trace);
        assert_eq!(config.launch_overhead, SimDuration::from_micros(60));
    }

    #[test]
    fn switching_cluster_has_two_boards_and_controller() {
        let config = SystemConfig::switching_cluster(
            BoardSpec::zcu216_only_little(),
            BoardSpec::zcu216_big_little(),
        );
        assert_eq!(config.boards.len(), 2);
        let switching = config.switching.expect("switching enabled");
        assert_eq!(switching.period, DEFAULT_DSWITCH_PERIOD);
        assert!(switching.thresholds.upper > switching.thresholds.lower);
    }

    fn cluster() -> SystemConfig {
        SystemConfig::switching_cluster(
            BoardSpec::zcu216_only_little(),
            BoardSpec::zcu216_big_little(),
        )
    }

    /// `config` fails validation on `parameter`.
    fn assert_rejects(config: SystemConfig, parameter: &str) {
        let err = config.validate().expect_err("degenerate config accepted");
        assert_eq!(err.parameter(), parameter, "{err}");
    }

    #[test]
    fn presets_validate() {
        assert_eq!(cluster().validate(), Ok(()));
        let single = SystemConfig::single_board(BoardSpec::zcu216_big_little());
        assert_eq!(single.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_switching_period() {
        let switching = SwitchingConfig {
            period: 0,
            ..SwitchingConfig::default()
        };
        assert_rejects(cluster().with_switching(switching), "period");
    }

    #[test]
    fn validate_rejects_thresholds_outside_the_unit_interval() {
        for (upper, lower) in [(0.1, 0.0), (0.1, 0.2), (1.0, 0.5), (0.05, 0.05)] {
            let switching = SwitchingConfig {
                thresholds: SwitchThresholds { upper, lower },
                ..SwitchingConfig::default()
            };
            assert_rejects(cluster().with_switching(switching), "thresholds");
        }
    }

    #[test]
    fn validate_rejects_switching_on_one_board() {
        let config = SystemConfig::single_board(BoardSpec::zcu216_only_little())
            .with_switching(SwitchingConfig::default());
        assert_rejects(config, "switching");
    }

    #[test]
    fn validate_rejects_an_empty_board_list() {
        let config = SystemConfig {
            boards: Vec::new(),
            ..SystemConfig::single_board(BoardSpec::zcu216_big_little())
        };
        assert_rejects(config, "boards");
    }

    #[test]
    fn validate_rejects_more_than_max_slots() {
        // 8 slots per board.
        let boards = MAX_SLOTS / 8 + 1;
        let config = SystemConfig {
            boards: vec![BoardSpec::zcu216_only_little(); boards],
            ..SystemConfig::single_board(BoardSpec::zcu216_only_little())
        };
        assert_rejects(config, "boards");
    }

    #[test]
    fn validate_rejects_board_mttf_with_switching() {
        let faults = FaultProfile::new(1)
            .with_board_failures(SimDuration::from_secs(600), SimDuration::from_secs(60));
        assert_rejects(cluster().with_faults(faults), "board_mttf");
        let single = SystemConfig::single_board(BoardSpec::zcu216_big_little()).with_faults(faults);
        assert_eq!(single.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_an_invalid_fault_profile() {
        let faults = FaultProfile::new(1).with_pr_failures(1.5);
        let config = SystemConfig::single_board(BoardSpec::zcu216_big_little()).with_faults(faults);
        assert_rejects(config, "pr_fail_prob");
    }

    #[test]
    fn builder_helpers() {
        let config = SystemConfig::single_board(BoardSpec::zcu216_big_little())
            .with_trace()
            .with_switching(SwitchingConfig::default());
        assert!(config.record_trace);
        assert!(config.switching.is_some());
    }
}
