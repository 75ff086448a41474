//! The typed error of configuration validation.

use std::fmt;

/// A degenerate configuration parameter, as reported by the `validate`
/// methods of the fault, arrival, system, service and fleet configurations.
///
/// It names the offending parameter and displays a human-readable message.
///
/// ```
/// use versaslot_sim::fault::FaultProfile;
///
/// let err = FaultProfile::new(0).with_pr_failures(1.5).validate().unwrap_err();
/// assert_eq!(err.parameter(), "pr_fail_prob");
/// assert_eq!(err.to_string(), "PR failure probability must be within [0, 1], got 1.5");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    parameter: &'static str,
    message: String,
}

impl ConfigError {
    /// `Ok(())` when `ok` holds, otherwise the error for `parameter` with
    /// `message` (formatted only on failure).
    pub fn ensure(
        ok: bool,
        parameter: &'static str,
        message: fmt::Arguments<'_>,
    ) -> Result<(), ConfigError> {
        if ok {
            Ok(())
        } else {
            Err(ConfigError {
                parameter,
                message: message.to_string(),
            })
        }
    }

    /// The name of the offending parameter (a field name, such as `"load"`).
    pub fn parameter(&self) -> &'static str {
        self.parameter
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ConfigError {}
