//! Run reports: response times, tail latency, PR/blocking counters and slot
//! utilization.
//!
//! Every simulation run produces a [`RunReport`] containing one [`AppRecord`] per
//! application plus the aggregate counters the paper's figures are computed from:
//! mean and tail (P95/P99) response time (Figures 5, 6 and 8), PR and blocked-task
//! counts (the inputs to D_switch) and time-weighted slot occupancy.

use serde::{Deserialize, Serialize};
use versaslot_sim::{SimDuration, SimTime, Summary, SummaryBuilder};
use versaslot_workload::AppId;

use crate::dswitch::DswitchSample;
use crate::migration::MigrationRecord;

/// Per-application outcome of one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppRecord {
    /// The application's identifier within its sequence.
    pub id: AppId,
    /// Index of the application in the benchmark suite.
    pub app_index: usize,
    /// Batch size of the request.
    pub batch_size: u32,
    /// Arrival time.
    pub arrival: SimTime,
    /// Completion time of the last task.
    pub completion: SimTime,
    /// Number of partial (or full) reconfigurations performed for this application.
    pub pr_count: u32,
    /// Whether the application ever executed in a Big slot.
    pub used_big_slot: bool,
}

impl AppRecord {
    /// Response time (completion − arrival).
    pub fn response(&self) -> SimDuration {
        self.completion - self.arrival
    }
}

/// Aggregate outcome of simulating one workload sequence under one scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Name of the scheduler that produced this run (e.g. `"versaslot-big-little"`).
    pub scheduler: String,
    /// Per-application outcomes, in completion order.
    pub apps: Vec<AppRecord>,
    /// Total partial/full reconfigurations performed.
    pub total_pr: u64,
    /// Task launches or PRs delayed past the blocking threshold.
    pub blocked_events: u64,
    /// Distinct tasks that were blocked at least once (the `N_blocked_tasks` of
    /// Eq. 1 is counted at task granularity).
    pub blocked_tasks: u64,
    /// Number of cross-board switches performed (zero for single-board runs).
    pub switches: u64,
    /// Simulation events processed to produce this run (deterministic; the
    /// bench harness divides it by wall-clock time for a throughput metric).
    pub events_processed: u64,
    /// Time at which the last application completed.
    pub makespan: SimTime,
    /// Time-weighted mean fraction of slots that were occupied (loaded or
    /// reconfiguring) over the run.
    pub mean_slot_occupancy: f64,
    /// Time-weighted mean LUT utilization across all slots.
    pub mean_lut_utilization: f64,
    /// Time-weighted mean FF utilization across all slots.
    pub mean_ff_utilization: f64,
    /// D_switch samples recorded over the run (empty unless cross-board switching
    /// was enabled) — the data behind the left plot of Figure 8.
    pub dswitch_trace: Vec<DswitchSample>,
    /// Cross-board migrations performed during the run.
    pub migrations: Vec<MigrationRecord>,
}

impl RunReport {
    /// Response-time summary over all applications, in milliseconds.
    ///
    /// Returns `None` if the run completed no applications.
    pub(crate) fn response_summary(&self) -> Option<Summary> {
        let mut builder = SummaryBuilder::new();
        for app in &self.apps {
            builder.record(app.response().as_millis_f64());
        }
        builder.build()
    }

    /// Mean response time in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the run completed no applications.
    pub fn mean_response_ms(&self) -> f64 {
        self.response_summary()
            .expect("run completed no applications")
            .mean
    }

    /// Number of applications completed.
    pub fn completed(&self) -> usize {
        self.apps.len()
    }
}

/// Relative response-time reduction of `system` versus `baseline`
/// (`baseline mean / system mean`, higher is better) — the normalisation used by
/// Figure 5 and Figure 8 of the paper.
///
/// # Example
///
/// ```
/// use versaslot_core::metrics::relative_reduction;
///
/// // A system twice as fast as the baseline has a 2.0x reduction factor.
/// assert!((relative_reduction(1000.0, 500.0) - 2.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `system_mean_ms` is not strictly positive.
pub fn relative_reduction(baseline_mean_ms: f64, system_mean_ms: f64) -> f64 {
    assert!(
        system_mean_ms > 0.0,
        "system mean response must be positive, got {system_mean_ms}"
    );
    baseline_mean_ms / system_mean_ms
}

/// Relative tail response time of `system` versus `baseline`
/// (`system tail / baseline tail`, lower is better) — the normalisation used by
/// Figure 6.
///
/// # Panics
///
/// Panics if `baseline_tail_ms` is not strictly positive.
pub fn relative_tail(baseline_tail_ms: f64, system_tail_ms: f64) -> f64 {
    assert!(
        baseline_tail_ms > 0.0,
        "baseline tail response must be positive, got {baseline_tail_ms}"
    );
    system_tail_ms / baseline_tail_ms
}

/// Merges per-sequence reports of the same scheduler into a single pool of
/// application records (the paper averages over the 10 random sequences).
pub fn pooled_mean_response_ms(reports: &[RunReport]) -> f64 {
    let mut builder = SummaryBuilder::new();
    for report in reports {
        for app in &report.apps {
            builder.record(app.response().as_millis_f64());
        }
    }
    builder
        .build()
        .expect("no applications across the pooled reports")
        .mean
}

/// Pooled percentile (e.g. 0.95 or 0.99) across per-sequence reports.
pub fn pooled_percentile_ms(reports: &[RunReport], q: f64) -> f64 {
    let values: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.apps.iter().map(|a| a.response().as_millis_f64()))
        .collect();
    versaslot_sim::percentile(&values, q).expect("no applications across the pooled reports")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u32, arrival_ms: u64, completion_ms: u64) -> AppRecord {
        AppRecord {
            id: AppId(id),
            app_index: 0,
            batch_size: 10,
            arrival: SimTime::from_millis(arrival_ms),
            completion: SimTime::from_millis(completion_ms),
            pr_count: 3,
            used_big_slot: false,
        }
    }

    fn report(responses_ms: &[u64]) -> RunReport {
        RunReport {
            scheduler: "test".to_string(),
            apps: responses_ms
                .iter()
                .enumerate()
                .map(|(i, r)| record(i as u32, 0, *r))
                .collect(),
            total_pr: 10,
            blocked_events: 2,
            blocked_tasks: 1,
            switches: 0,
            events_processed: 0,
            makespan: SimTime::from_millis(*responses_ms.iter().max().unwrap_or(&0)),
            mean_slot_occupancy: 0.5,
            mean_lut_utilization: 0.3,
            mean_ff_utilization: 0.25,
            dswitch_trace: Vec::new(),
            migrations: Vec::new(),
        }
    }

    #[test]
    fn response_is_completion_minus_arrival() {
        let r = record(0, 100, 350);
        assert_eq!(r.response(), SimDuration::from_millis(250));
    }

    #[test]
    fn summary_over_apps() {
        let report = report(&[100, 200, 300]);
        assert_eq!(report.completed(), 3);
        assert!((report.mean_response_ms() - 200.0).abs() < 1e-9);
        let summary = report.response_summary().expect("three completions");
        assert!((summary.p95 - 300.0).abs() < 1e-9);
        assert!((summary.p99 - 300.0).abs() < 1e-9);
    }

    #[test]
    fn relative_factors() {
        assert!((relative_reduction(1366.0, 100.0) - 13.66).abs() < 1e-9);
        assert!((relative_tail(100.0, 83.0) - 0.83).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn relative_reduction_rejects_zero_system() {
        relative_reduction(1.0, 0.0);
    }

    #[test]
    fn pooling_across_reports() {
        let a = report(&[100, 200]);
        let b = report(&[300, 400]);
        let pooled = pooled_mean_response_ms(&[a.clone(), b.clone()]);
        assert!((pooled - 250.0).abs() < 1e-9);
        let p95 = pooled_percentile_ms(&[a, b], 0.95);
        assert!((p95 - 400.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_has_no_summary() {
        let empty = RunReport {
            apps: vec![],
            ..report(&[1])
        };
        assert!(empty.response_summary().is_none());
        assert_eq!(empty.completed(), 0);
    }
}
