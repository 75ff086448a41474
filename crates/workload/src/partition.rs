//! HLS-style task partitioning and bundle generation.
//!
//! In the real system an automated TCL script partitions each application into
//! Little-slot-sized tasks based on HLS synthesis resource usage (which grows in
//! steps rather than linearly) and generates, per task and per 3-in-1 bundle, a
//! partial bitstream for every compatible slot.  This module is the offline part of
//! that flow for the simulation: it validates that a partitioning fits the target
//! slots and derives 3-in-1 bundle implementations for applications whose dataset
//! does not already specify them.

use std::fmt;

use serde::{Deserialize, Serialize};
use versaslot_fpga::ResourceVector;

use crate::application::{ApplicationSpec, BundleSpec};

/// Packing efficiency assumed when deriving a bundle implementation from its three
/// member tasks: bundling removes per-task AXI interface and control duplication,
/// but adds shared-decoupler overhead, so the bundle footprint is slightly below
/// the plain sum of the members.
pub(crate) const DEFAULT_PACKING_EFFICIENCY: f64 = 0.95;

/// Fraction of a Big slot a derived bundle may occupy at most (routing margin).
pub(crate) const MAX_BUNDLE_FILL: f64 = 0.97;

/// Errors produced by [`partition_application`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionError {
    /// A task's implementation does not fit the Little slot capacity.
    TaskTooLarge {
        /// Name of the offending task.
        task: String,
    },
    /// A pre-specified bundle does not fit the Big slot capacity.
    BundleTooLarge {
        /// Index of the first task of the offending bundle.
        first_task: u32,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::TaskTooLarge { task } => {
                write!(f, "task `{task}` does not fit a Little slot")
            }
            PartitionError::BundleTooLarge { first_task } => {
                write!(
                    f,
                    "bundle starting at task {first_task} does not fit a Big slot"
                )
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Validates an application against the slot capacities and fills in any missing
/// 3-in-1 bundle implementations.
///
/// Applications with fewer than three tasks, or whose derived bundles would not fit
/// a Big slot, simply end up without bundles (they can only use Little slots) — that
/// is not an error.  A *pre-specified* bundle that does not fit is an error, because
/// it indicates an inconsistent dataset.
///
/// # Errors
///
/// Returns [`PartitionError::TaskTooLarge`] if any task exceeds the Little slot
/// capacity, or [`PartitionError::BundleTooLarge`] if a pre-specified bundle exceeds
/// the Big slot capacity.
///
/// # Example
///
/// ```
/// use versaslot_workload::{partition_application, benchmarks::BenchmarkApp};
/// use versaslot_fpga::board::BoardSpec;
///
/// let little = BoardSpec::zcu216_little_capacity();
/// let app = partition_application(BenchmarkApp::LeNet.spec(), little)?;
/// assert!(app.can_bundle());
/// # Ok::<(), versaslot_workload::PartitionError>(())
/// ```
pub fn partition_application(
    spec: ApplicationSpec,
    little_capacity: ResourceVector,
) -> Result<ApplicationSpec, PartitionError> {
    let big_capacity = little_capacity * 2;

    for task in spec.tasks() {
        if !task.little_impl().fits_within(&little_capacity) {
            return Err(PartitionError::TaskTooLarge {
                task: task.name().to_string(),
            });
        }
    }
    for bundle in spec.bundles() {
        if !bundle.big_impl.fits_within(&big_capacity) {
            return Err(PartitionError::BundleTooLarge {
                first_task: bundle.first_task,
            });
        }
    }

    if spec.can_bundle() || spec.task_count() < 3 {
        return Ok(spec);
    }

    let bundles = derive_bundles(&spec, little_capacity, DEFAULT_PACKING_EFFICIENCY);
    Ok(if bundles.is_empty() {
        spec
    } else {
        let name = spec.name().to_string();
        let tasks = spec.tasks().to_vec();
        ApplicationSpec::new(name, tasks).with_bundles(bundles)
    })
}

/// Derives 3-in-1 bundle implementations for consecutive task triples.
///
/// A bundle is derived as the sum of its members scaled by `packing_efficiency`,
/// capped at [`MAX_BUNDLE_FILL`] of the Big slot.  Triples whose scaled sum exceeds
/// the Big slot are skipped, and only a prefix of complete triples is produced
/// (an application can only be bound to a Big slot if every bundle exists, so a gap
/// makes the remaining triples useless).
pub(crate) fn derive_bundles(
    spec: &ApplicationSpec,
    little_capacity: ResourceVector,
    packing_efficiency: f64,
) -> Vec<BundleSpec> {
    let big_capacity = little_capacity * 2;
    let cap = big_capacity.scale(MAX_BUNDLE_FILL);
    let mut bundles = Vec::new();
    let tasks = spec.tasks();
    let mut first = 0usize;
    while first + 3 <= tasks.len() {
        let sum: ResourceVector = tasks[first..first + 3]
            .iter()
            .map(|t| t.little_impl())
            .sum();
        let scaled = sum.scale(packing_efficiency);
        if !scaled.fits_within(&cap) {
            break;
        }
        bundles.push(BundleSpec {
            first_task: first as u32,
            task_count: 3,
            big_impl: scaled,
        });
        first += 3;
    }
    // Only keep bundle sets that tile the whole pipeline; a partial tiling cannot be
    // used by the Big-slot binding rule (an app bound to Big slots completes all of
    // its tasks there).
    if bundles.len() * 3 == tasks.len() {
        bundles
    } else {
        Vec::new()
    }
}

/// Models the stepwise resource growth of HLS synthesis: resource usage jumps to the
/// next "step" (multiples of `step` LUTs) rather than growing linearly with the
/// requested amount of logic.
///
/// The paper motivates heterogeneous slots with exactly this effect: stepwise growth
/// makes uniform slots prone to over-subscription and under-utilization.
///
/// # Example
///
/// ```
/// use versaslot_workload::partition::hls_step_lut;
///
/// assert_eq!(hls_step_lut(18_200, 8_000), 24_000);
/// assert_eq!(hls_step_lut(24_000, 8_000), 24_000);
/// ```
pub fn hls_step_lut(requested_lut: u64, step: u64) -> u64 {
    if step == 0 {
        return requested_lut;
    }
    requested_lut.div_ceil(step) * step
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::BenchmarkApp;
    use crate::task::TaskSpec;
    use versaslot_sim::SimDuration;

    fn little() -> ResourceVector {
        ResourceVector::new(40_000, 80_000, 160, 120)
    }

    #[test]
    fn suite_apps_pass_partitioning_unchanged() {
        for app in BenchmarkApp::suite() {
            let before = app.bundles().len();
            let partitioned = partition_application(app, little()).expect("suite apps fit");
            assert_eq!(partitioned.bundles().len(), before);
        }
    }

    #[test]
    fn oversized_task_is_rejected() {
        let app = ApplicationSpec::new(
            "huge",
            vec![TaskSpec::new("huge0", SimDuration::from_millis(10))
                .with_little_impl(ResourceVector::new(80_000, 10, 0, 0))],
        );
        let err = partition_application(app, little()).unwrap_err();
        assert_eq!(
            err,
            PartitionError::TaskTooLarge {
                task: "huge0".to_string()
            }
        );
        assert!(err.to_string().contains("huge0"));
    }

    #[test]
    fn oversized_prespecified_bundle_is_rejected() {
        let tasks: Vec<TaskSpec> = (0..3)
            .map(|i| {
                TaskSpec::new(format!("t{i}"), SimDuration::from_millis(5))
                    .with_little_impl(ResourceVector::new(10_000, 10_000, 1, 1))
            })
            .collect();
        let app = ApplicationSpec::new("bad-bundle", tasks).with_bundles(vec![BundleSpec {
            first_task: 0,
            task_count: 3,
            big_impl: ResourceVector::new(200_000, 0, 0, 0),
        }]);
        let err = partition_application(app, little()).unwrap_err();
        assert_eq!(err, PartitionError::BundleTooLarge { first_task: 0 });
    }

    #[test]
    fn bundles_are_derived_when_missing() {
        let tasks: Vec<TaskSpec> = (0..6)
            .map(|i| {
                TaskSpec::new(format!("t{i}"), SimDuration::from_millis(5))
                    .with_little_impl(ResourceVector::new(15_000, 25_000, 20, 10))
            })
            .collect();
        let app = ApplicationSpec::new("derive-me", tasks);
        let partitioned = partition_application(app, little()).unwrap();
        assert!(partitioned.can_bundle());
        assert_eq!(partitioned.bundles().len(), 2);
        // Derived bundle is slightly less than the plain sum of three tasks.
        assert!(partitioned.bundles()[0].big_impl.lut < 45_000);
        assert!(partitioned.bundles()[0].big_impl.lut > 40_000);
    }

    #[test]
    fn too_large_triples_yield_no_bundles() {
        // Three tasks at 0.9 little-slot utilization each cannot share a Big slot.
        let tasks: Vec<TaskSpec> = (0..3)
            .map(|i| {
                TaskSpec::new(format!("t{i}"), SimDuration::from_millis(5))
                    .with_little_impl(ResourceVector::new(36_000, 72_000, 100, 100))
            })
            .collect();
        let app = ApplicationSpec::new("too-big", tasks);
        let partitioned = partition_application(app, little()).unwrap();
        assert!(!partitioned.can_bundle());
    }

    #[test]
    fn short_pipelines_get_no_bundles() {
        let app = ApplicationSpec::new(
            "short",
            vec![
                TaskSpec::new("a", SimDuration::from_millis(5)),
                TaskSpec::new("b", SimDuration::from_millis(5)),
            ],
        );
        let partitioned = partition_application(app, little()).unwrap();
        assert!(!partitioned.can_bundle());
    }

    #[test]
    fn derive_bundles_requires_whole_pipeline_tiling() {
        // 4 tasks: one triple fits but the pipeline is not a multiple of 3 → no bundles.
        let tasks: Vec<TaskSpec> = (0..4)
            .map(|i| {
                TaskSpec::new(format!("t{i}"), SimDuration::from_millis(5))
                    .with_little_impl(ResourceVector::new(10_000, 10_000, 5, 5))
            })
            .collect();
        let app = ApplicationSpec::new("four", tasks);
        assert!(derive_bundles(&app, little(), DEFAULT_PACKING_EFFICIENCY).is_empty());
    }

    #[test]
    fn hls_step_function_rounds_up() {
        assert_eq!(hls_step_lut(1, 8_000), 8_000);
        assert_eq!(hls_step_lut(8_001, 8_000), 16_000);
        assert_eq!(hls_step_lut(16_000, 8_000), 16_000);
        assert_eq!(hls_step_lut(123, 0), 123);
    }
}
