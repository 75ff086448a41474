//! The D_switch performance-degradation metric and the Schmitt-trigger switch loop.
//!
//! Equation 1 of the paper defines
//!
//! ```text
//! D_switch = (N_blocked_tasks / N_PR) · (N_apps / N_batch),   0 < D_switch < 1
//! ```
//!
//! where `N_blocked_tasks` is the number of tasks blocked by PR contention during
//! the current observation period, `N_PR` the number of PR tasks of completed and
//! running applications, `N_apps` the number of applications in the candidate
//! queue, and `N_batch` their total batch size.  The metric is recalculated after
//! every *n* updates of the candidate queue.
//!
//! Inspired by a Schmitt trigger, the switch loop uses two thresholds with a buffer
//! zone: rising through `T(OL→BL)` switches an `Only.Little` board to a
//! `Big.Little` board, falling through `T(BL→OL)` switches back, and entering the
//! buffer zone pre-warms the target board.

use serde::{Deserialize, Serialize};
use versaslot_fpga::slot::LayoutKind;

/// The Schmitt-trigger thresholds of the switch loop (Figure 8 uses 0.1 / 0.0125).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchThresholds {
    /// `T(Only.Little → Big.Little)`: switching up when D_switch rises above this.
    pub upper: f64,
    /// `T(Big.Little → Only.Little)`: switching down when D_switch falls below this.
    pub lower: f64,
}

impl SwitchThresholds {
    /// The thresholds used in the paper's Figure 8: 0.1 and 0.0125.
    pub fn paper_default() -> Self {
        SwitchThresholds {
            upper: 0.1,
            lower: 0.0125,
        }
    }

    /// Creates custom thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lower < upper < 1`.
    pub fn new(upper: f64, lower: f64) -> Self {
        assert!(
            0.0 < lower && lower < upper && upper < 1.0,
            "thresholds must satisfy 0 < lower < upper < 1 (got lower={lower}, upper={upper})"
        );
        SwitchThresholds { upper, lower }
    }

    /// Returns `true` if `value` lies inside the buffer zone between the thresholds.
    pub(crate) fn in_buffer_zone(&self, value: f64) -> bool {
        value > self.lower && value < self.upper
    }
}

impl Default for SwitchThresholds {
    fn default() -> Self {
        SwitchThresholds::paper_default()
    }
}

/// Inputs of one D_switch evaluation (the counters of Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct DswitchInputs {
    /// Tasks blocked by PR contention during the current observation period.
    pub blocked_tasks: u64,
    /// PR tasks of completed and running applications.
    pub pr_tasks: u64,
    /// Applications in the candidate queue.
    pub candidate_apps: u64,
    /// Total batch size of the candidate applications.
    pub candidate_batch: u64,
}

/// Evaluates Equation 1 and clamps the result into the open interval `(0, 1)` as
/// the paper requires (degenerate inputs — no PR tasks or no candidates — evaluate
/// to the lower bound).
pub(crate) fn dswitch_value(inputs: DswitchInputs) -> f64 {
    const EPSILON: f64 = 1e-6;
    if inputs.pr_tasks == 0 || inputs.candidate_batch == 0 {
        return EPSILON;
    }
    let contention = inputs.blocked_tasks as f64 / inputs.pr_tasks as f64;
    let pressure = inputs.candidate_apps as f64 / inputs.candidate_batch as f64;
    (contention * pressure).clamp(EPSILON, 1.0 - EPSILON)
}

/// One recorded point of the D_switch trace (Figure 8, left plot).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DswitchSample {
    /// Number of applications completed when the sample was taken.
    pub completed_apps: u64,
    /// The D_switch value.
    pub value: f64,
    /// Layout that was active when the sample was taken.
    pub active_layout: LayoutKind,
    /// Whether this sample triggered a cross-board switch.
    pub triggered_switch: bool,
}

/// The Schmitt-trigger switch loop: tracks the active layout and decides when to
/// switch, with hysteresis provided by the buffer zone.
///
/// # Example
///
/// ```
/// use versaslot_core::dswitch::{SwitchLoop, SwitchThresholds};
/// use versaslot_fpga::slot::LayoutKind;
///
/// let mut sw = SwitchLoop::new(SwitchThresholds::paper_default(), LayoutKind::OnlyLittle);
/// assert_eq!(sw.observe(0.05), None);          // buffer zone: pre-warm, no switch
/// assert!(sw.prewarm_target().is_some());
/// assert_eq!(sw.observe(0.15), Some(LayoutKind::BigLittle)); // crossed T1
/// assert_eq!(sw.observe(0.05), None);          // hysteresis: stay on Big.Little
/// assert_eq!(sw.observe(0.01), Some(LayoutKind::OnlyLittle)); // crossed T2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchLoop {
    thresholds: SwitchThresholds,
    active: LayoutKind,
    last_value: f64,
}

impl SwitchLoop {
    /// Creates a switch loop starting on `initial` layout.
    pub fn new(thresholds: SwitchThresholds, initial: LayoutKind) -> Self {
        SwitchLoop {
            thresholds,
            active: initial,
            last_value: thresholds.lower,
        }
    }

    /// Feeds a new D_switch observation.  Returns `Some(target)` when a switch to
    /// `target` should be performed now, `None` otherwise.
    pub fn observe(&mut self, value: f64) -> Option<LayoutKind> {
        self.last_value = value;
        match self.active {
            LayoutKind::OnlyLittle if value >= self.thresholds.upper => {
                self.active = LayoutKind::BigLittle;
                Some(LayoutKind::BigLittle)
            }
            LayoutKind::BigLittle if value <= self.thresholds.lower => {
                self.active = LayoutKind::OnlyLittle;
                Some(LayoutKind::OnlyLittle)
            }
            _ => None,
        }
    }

    /// While the value sits in the buffer zone the system pre-warms the board it
    /// would switch to next; returns that layout, or `None` outside the buffer zone.
    pub fn prewarm_target(&self) -> Option<LayoutKind> {
        if self.thresholds.in_buffer_zone(self.last_value) {
            Some(match self.active {
                LayoutKind::OnlyLittle => LayoutKind::BigLittle,
                LayoutKind::BigLittle => LayoutKind::OnlyLittle,
                LayoutKind::Custom => LayoutKind::Custom,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equation_matches_hand_computed_value() {
        // 6 blocked tasks out of 40 PR tasks, 5 candidates with total batch 50:
        // (6/40)·(5/50) = 0.015
        let value = dswitch_value(DswitchInputs {
            blocked_tasks: 6,
            pr_tasks: 40,
            candidate_apps: 5,
            candidate_batch: 50,
        });
        assert!((value - 0.015).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_fall_to_lower_bound() {
        assert!(dswitch_value(DswitchInputs::default()) < 1e-5);
        assert!(
            dswitch_value(DswitchInputs {
                blocked_tasks: 10,
                pr_tasks: 0,
                candidate_apps: 1,
                candidate_batch: 1,
            }) < 1e-5
        );
    }

    #[test]
    fn worst_case_is_clamped_below_one() {
        // batch of one per app and every task blocked: the paper's worst case.
        let value = dswitch_value(DswitchInputs {
            blocked_tasks: 100,
            pr_tasks: 100,
            candidate_apps: 20,
            candidate_batch: 20,
        });
        assert!(value < 1.0 && value > 0.9);
    }

    #[test]
    fn schmitt_trigger_hysteresis() {
        let mut sw = SwitchLoop::new(SwitchThresholds::paper_default(), LayoutKind::OnlyLittle);
        assert_eq!(sw.active, LayoutKind::OnlyLittle);
        // Rising but still below the upper threshold: no switch.
        assert_eq!(sw.observe(0.09), None);
        // Crossing the upper threshold switches up.
        assert_eq!(sw.observe(0.12), Some(LayoutKind::BigLittle));
        // Values in the buffer zone do not switch back (hysteresis).
        assert_eq!(sw.observe(0.05), None);
        assert_eq!(sw.active, LayoutKind::BigLittle);
        // Falling through the lower threshold switches down.
        assert_eq!(sw.observe(0.01), Some(LayoutKind::OnlyLittle));
        assert_eq!(sw.active, LayoutKind::OnlyLittle);
    }

    #[test]
    fn prewarm_only_inside_buffer_zone() {
        let mut sw = SwitchLoop::new(SwitchThresholds::paper_default(), LayoutKind::OnlyLittle);
        sw.observe(0.005);
        assert_eq!(sw.prewarm_target(), None);
        sw.observe(0.05);
        assert_eq!(sw.prewarm_target(), Some(LayoutKind::BigLittle));
        sw.observe(0.2);
        assert_eq!(sw.prewarm_target(), None); // switched and above the zone
    }

    #[test]
    #[should_panic(expected = "thresholds must satisfy")]
    fn invalid_thresholds_panic() {
        SwitchThresholds::new(0.01, 0.1);
    }

    proptest! {
        /// D_switch always stays strictly inside (0, 1).
        #[test]
        fn prop_dswitch_bounded(
            blocked in 0u64..10_000,
            pr in 0u64..10_000,
            apps in 0u64..1_000,
            batch in 0u64..30_000,
        ) {
            let v = dswitch_value(DswitchInputs {
                blocked_tasks: blocked,
                pr_tasks: pr,
                candidate_apps: apps,
                candidate_batch: batch,
            });
            prop_assert!(v > 0.0 && v < 1.0);
        }

        /// The switch loop only ever toggles between the two named layouts and
        /// never switches inside the buffer zone.
        #[test]
        fn prop_switch_loop_hysteresis(values in prop::collection::vec(0.0f64..1.0, 1..200)) {
            let thresholds = SwitchThresholds::paper_default();
            let mut sw = SwitchLoop::new(thresholds, LayoutKind::OnlyLittle);
            for v in values {
                let before = sw.active;
                let switched = sw.observe(v);
                if thresholds.in_buffer_zone(v) {
                    prop_assert_eq!(switched, None);
                    prop_assert_eq!(sw.active, before);
                }
                if let Some(target) = switched {
                    prop_assert_ne!(target, before);
                    prop_assert_eq!(sw.active, target);
                }
            }
        }
    }
}
