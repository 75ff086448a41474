//! Application specifications and workload arrivals.
//!
//! An *application* is an ordered pipeline of tasks plus, for bundle-capable
//! applications, the pre-generated 3-in-1 bundle implementations that can be loaded
//! into a Big slot.  An [`ApplicationSpec`] is immutable once built and its data
//! is shared: every clone points at the same name, tasks and bundles, so handing
//! the suite to a simulator costs one reference-count bump per application.  An
//! [`AppArrival`] is one concrete request in a workload sequence: which
//! application, what batch size, and when it arrives.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};
use versaslot_fpga::ResourceVector;
use versaslot_sim::{SimDuration, SimTime};

use crate::task::TaskSpec;

/// Identifier of one application instance within a workload sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AppId(pub u32);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app-{}", self.0)
    }
}

impl From<u32> for AppId {
    fn from(value: u32) -> Self {
        AppId(value)
    }
}

/// A pre-generated 3-in-1 bundle: three consecutive tasks implemented together for
/// a Big slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundleSpec {
    /// Index (within the application) of the first bundled task.
    pub first_task: u32,
    /// Number of tasks in the bundle (always 3 for the paper's applications).
    pub task_count: u32,
    /// Post-implementation footprint of the bundle in a Big slot.
    pub big_impl: ResourceVector,
}

impl BundleSpec {
    /// The task indices covered by this bundle.
    pub fn task_range(&self) -> std::ops::Range<u32> {
        self.first_task..self.first_task + self.task_count
    }
}

/// Static description of one benchmark application.
///
/// Immutable and shared: the name, tasks and bundles sit behind one [`Arc`], so
/// a clone is a reference-count bump that allocates nothing.  Its serialized
/// and `Debug` forms are those of the plain `{ name, tasks, bundles }` struct.
///
/// # Example
///
/// ```
/// use versaslot_workload::benchmarks::BenchmarkApp;
///
/// let ic = BenchmarkApp::ImageCompression.spec();
/// assert_eq!(ic.task_count(), 6);
/// assert!(ic.can_bundle());
/// assert_eq!(ic.bundles().len(), 2);
/// ```
#[derive(Clone, PartialEq, Deserialize)]
pub struct ApplicationSpec {
    data: Arc<SpecData>,
}

/// The shared data behind an [`ApplicationSpec`].
#[derive(Clone, PartialEq, Serialize)]
struct SpecData {
    name: String,
    tasks: Vec<TaskSpec>,
    bundles: Vec<BundleSpec>,
}

impl Serialize for ApplicationSpec {
    fn serialize(&self) -> Value {
        self.data.serialize()
    }
}

impl fmt::Debug for ApplicationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ApplicationSpec")
            .field("name", &self.data.name)
            .field("tasks", &self.data.tasks)
            .field("bundles", &self.data.bundles)
            .finish()
    }
}

impl ApplicationSpec {
    /// Creates an application from its ordered task pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn new(name: impl Into<String>, tasks: Vec<TaskSpec>) -> Self {
        assert!(!tasks.is_empty(), "an application needs at least one task");
        ApplicationSpec {
            data: Arc::new(SpecData {
                name: name.into(),
                tasks,
                bundles: Vec::new(),
            }),
        }
    }

    /// Attaches pre-generated 3-in-1 bundle implementations.
    ///
    /// # Panics
    ///
    /// Panics if any bundle references tasks outside the pipeline.
    pub(crate) fn with_bundles(mut self, bundles: Vec<BundleSpec>) -> Self {
        let data = Arc::make_mut(&mut self.data);
        for bundle in &bundles {
            assert!(
                bundle.task_range().end as usize <= data.tasks.len(),
                "bundle starting at task {} exceeds the {}-task pipeline",
                bundle.first_task,
                data.tasks.len()
            );
        }
        data.bundles = bundles;
        self
    }

    /// Whether `self` and `other` share one copy of their data.
    #[cfg(test)]
    pub(crate) fn shares_data_with(&self, other: &ApplicationSpec) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// The application's name (e.g. `"image-compression"`).
    pub fn name(&self) -> &str {
        &self.data.name
    }

    /// The ordered task pipeline.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.data.tasks
    }

    /// Number of tasks in the pipeline.
    pub fn task_count(&self) -> u32 {
        self.data.tasks.len() as u32
    }

    /// The pre-generated 3-in-1 bundles (empty if the app cannot be bundled).
    pub fn bundles(&self) -> &[BundleSpec] {
        &self.data.bundles
    }

    /// Whether the application has 3-in-1 bundle bitstreams and can therefore be
    /// bound to a Big slot.
    pub fn can_bundle(&self) -> bool {
        !self.data.bundles.is_empty()
    }

    /// The slowest pipeline stage, which bounds pipelined throughput.
    pub fn max_stage_time(&self) -> SimDuration {
        self.data
            .tasks
            .iter()
            .map(|t| t.exec_per_item())
            .fold(SimDuration::ZERO, SimDuration::max_of)
    }
}

/// One application request within a workload sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppArrival {
    /// Unique identifier within the sequence.
    pub id: AppId,
    /// Index into the benchmark suite (see [`crate::benchmarks::BenchmarkApp::suite`]).
    pub app_index: usize,
    /// Batch size (number of items processed by every task).
    pub batch_size: u32,
    /// Arrival time of the request.
    pub arrival: SimTime,
}

impl AppArrival {
    /// Creates an arrival record.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(id: AppId, app_index: usize, batch_size: u32, arrival: SimTime) -> Self {
        assert!(batch_size > 0, "batch size must be at least 1");
        AppArrival {
            id,
            app_index,
            batch_size,
            arrival,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use versaslot_sim::SimDuration;

    fn two_task_app() -> ApplicationSpec {
        ApplicationSpec::new(
            "demo",
            vec![
                TaskSpec::new("a", SimDuration::from_millis(10)),
                TaskSpec::new("b", SimDuration::from_millis(30)),
            ],
        )
    }

    #[test]
    fn pipeline_aggregates() {
        let app = two_task_app();
        assert_eq!(app.task_count(), 2);
        assert_eq!(app.max_stage_time(), SimDuration::from_millis(30));
        assert_eq!(app.tasks()[1].name(), "b");
        assert!(!app.can_bundle());
    }

    #[test]
    fn bundles_validate_against_pipeline() {
        let tasks: Vec<TaskSpec> = (0..6)
            .map(|i| TaskSpec::new(format!("t{i}"), SimDuration::from_millis(5)))
            .collect();
        let app = ApplicationSpec::new("six", tasks).with_bundles(vec![
            BundleSpec {
                first_task: 0,
                task_count: 3,
                big_impl: ResourceVector::new(1, 1, 1, 1),
            },
            BundleSpec {
                first_task: 3,
                task_count: 3,
                big_impl: ResourceVector::new(1, 1, 1, 1),
            },
        ]);
        assert!(app.can_bundle());
        assert_eq!(app.bundles()[0].task_range(), 0..3);
        assert_eq!(app.bundles()[1].task_range(), 3..6);
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn out_of_range_bundle_panics() {
        let app = two_task_app();
        let _ = app.with_bundles(vec![BundleSpec {
            first_task: 0,
            task_count: 3,
            big_impl: ResourceVector::ZERO,
        }]);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_application_panics() {
        ApplicationSpec::new("empty", vec![]);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        AppArrival::new(AppId(0), 0, 0, SimTime::ZERO);
    }

    #[test]
    fn app_id_display() {
        assert_eq!(AppId(3).to_string(), "app-3");
        assert_eq!(AppId::from(9u32), AppId(9));
    }
}
