//! Task specifications.
//!
//! A *task* is the basic execution unit of a slot: a portion of an application
//! produced by the HLS partitioning flow, sized to fit a Little slot.  Each task is
//! characterised by its per-batch-item execution latency, its implementation
//! footprint in a Little slot, and the amount of data staged per batch item.

use serde::{Deserialize, Serialize};
use versaslot_fpga::ResourceVector;
use versaslot_sim::SimDuration;

/// Static description of one task.
///
/// # Example
///
/// ```
/// use versaslot_workload::TaskSpec;
/// use versaslot_fpga::ResourceVector;
/// use versaslot_sim::SimDuration;
///
/// let dct = TaskSpec::new("dct", SimDuration::from_millis(80))
///     .with_little_impl(ResourceVector::new(22_800, 36_800, 64, 40))
///     .with_data_per_item(256 * 1024);
/// assert_eq!(dct.name(), "dct");
/// assert_eq!(dct.exec_per_item(), SimDuration::from_millis(80));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    name: String,
    exec_per_item: SimDuration,
    little_impl: ResourceVector,
    data_per_item_bytes: u64,
}

impl TaskSpec {
    /// Creates a task with the given name and per-batch-item execution latency.
    ///
    /// # Panics
    ///
    /// Panics if `exec_per_item` is zero.
    pub fn new(name: impl Into<String>, exec_per_item: SimDuration) -> Self {
        assert!(
            !exec_per_item.is_zero(),
            "a task needs a positive execution time"
        );
        TaskSpec {
            name: name.into(),
            exec_per_item,
            little_impl: ResourceVector::ZERO,
            data_per_item_bytes: 0,
        }
    }

    /// Sets the post-implementation footprint of this task in a Little slot.
    pub fn with_little_impl(mut self, resources: ResourceVector) -> Self {
        self.little_impl = resources;
        self
    }

    /// Sets the per-batch-item input/output buffer size staged over DMA.
    pub fn with_data_per_item(mut self, bytes: u64) -> Self {
        self.data_per_item_bytes = bytes;
        self
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execution latency of one batch item.
    pub fn exec_per_item(&self) -> SimDuration {
        self.exec_per_item
    }

    /// Post-implementation footprint in a Little slot.
    pub fn little_impl(&self) -> ResourceVector {
        self.little_impl
    }

    /// Per-batch-item data buffer size in bytes.
    pub fn data_per_item_bytes(&self) -> u64 {
        self.data_per_item_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TaskSpec {
        TaskSpec::new("conv1", SimDuration::from_millis(40))
            .with_little_impl(ResourceVector::new(20_000, 30_000, 64, 32))
            .with_data_per_item(64 * 1024)
    }

    #[test]
    fn builder_sets_all_fields() {
        let task = sample();
        assert_eq!(task.name(), "conv1");
        assert_eq!(task.exec_per_item(), SimDuration::from_millis(40));
        assert_eq!(task.little_impl().lut, 20_000);
        assert_eq!(task.data_per_item_bytes(), 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "positive execution time")]
    fn zero_exec_time_panics() {
        TaskSpec::new("bad", SimDuration::ZERO);
    }
}
