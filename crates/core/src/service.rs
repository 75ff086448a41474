//! Service mode: open-ended runs with streaming metrics.
//!
//! The figure experiments replay finite workload sequences and materialise a
//! full [`RunReport`][crate::metrics::RunReport] — per-application records,
//! D_switch traces — which is exactly right for a 20-application run and
//! exactly wrong for the ROADMAP's north star, a *service* that keeps serving
//! arrivals indefinitely.  This module adds that second execution mode without
//! touching the figure path:
//!
//! * a [`ServiceRunner`] drives [`SharingSimulator`] from an unbounded
//!   [`ArrivalDriver`] (Poisson, diurnal or flash-crowd processes), keeping
//!   exactly **one** future arrival in the event queue at any time so the
//!   pre-sized, allocation-free event spine carries over unchanged
//!   (`grow_events() == 0` for the whole run);
//! * completed applications are **retired** out of the runtime tables
//!   ([`SharingSimulator::retire_completed`]) and folded into constant-memory
//!   accumulators — a pooled [`StreamingSummary`] (Welford moments plus a
//!   mergeable log-histogram for p50/p95/p99), one `StreamingSummary` per
//!   suite application, and a [`TumblingWindow`] for windowed tail timelines.
//!   Nothing per event or per application is stored, so a 10M-event run uses
//!   the same memory as a 10k-event run;
//! * a **warm-up cutoff** excludes applications that arrived before the warm-up
//!   horizon from the measured statistics (they still execute and load the
//!   fabric), the standard steady-state methodology;
//! * a [`StopCondition`] ends the run on an event budget or a simulated-time
//!   horizon;
//! * [`run_service_matrix`] fans a (scheduler × process × load) matrix through
//!   [`crate::par::parallel_map`] with input-order results, so
//!   parallel service sweeps are byte-identical to sequential ones, same as the
//!   figure jobs.
//!
//! # Example
//!
//! ```
//! use versaslot_core::service::{ServiceConfig, ServiceRunner, StopCondition};
//! use versaslot_core::config::SystemConfig;
//! use versaslot_core::policy::versaslot::VersaSlotPolicy;
//! use versaslot_fpga::board::BoardSpec;
//! use versaslot_workload::benchmarks::BenchmarkApp;
//! use versaslot_workload::ArrivalProcess;
//!
//! let config = ServiceConfig::new(ArrivalProcess::Poisson { rate_per_sec: 0.5 })
//!     .with_stop(StopCondition::Events(5_000));
//! let mut runner = ServiceRunner::new(
//!     SystemConfig::single_board(BoardSpec::zcu216_big_little()),
//!     BenchmarkApp::suite(),
//!     config,
//! );
//! let report = runner.run(&mut VersaSlotPolicy::new());
//! assert!(report.completions > 0);
//! assert_eq!(runner.simulator().event_queue_grow_events(), 0);
//! ```

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use versaslot_sim::{
    ConfigError, FaultProfile, FaultStats, SimDuration, SimTime, StreamingSummary, Summary,
    TumblingWindow, WindowSummary,
};
use versaslot_workload::benchmarks::BenchmarkApp;
use versaslot_workload::{AppArrival, ApplicationSpec, ArrivalDriver, ArrivalProcess};

use crate::config::SystemConfig;
use crate::engine::SharingSimulator;
use crate::par::{parallel_map, Parallelism};
use crate::policy::Policy;
use crate::runner::SchedulerKind;

/// Pending injected arrivals the service runner keeps in the event queue.  The
/// loop injects the next arrival only once the previous one has been admitted,
/// so one slot of queue capacity is enough — that is what keeps the pre-sized
/// event queue valid for an unbounded arrival stream.
const ARRIVAL_LOOKAHEAD: usize = 1;

/// When to end an open-ended service run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StopCondition {
    /// Stop once this many simulator events have been processed.
    Events(u64),
    /// Stop once simulated time reaches this horizon.
    Horizon(SimDuration),
}

/// Parameters of one service run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// The arrival process (before load scaling).
    pub process: ArrivalProcess,
    /// Load multiplier applied to the process rates ([`ArrivalProcess::scaled`]).
    pub load: f64,
    /// Inclusive batch-size range of generated applications.
    pub batch_range: (u32, u32),
    /// Seed of the arrival driver.
    pub seed: u64,
    /// Applications arriving before this cutoff execute but are excluded from
    /// the measured statistics.
    pub warmup: SimDuration,
    /// When the run ends.
    pub stop: StopCondition,
    /// Width of the tumbling windows for the tail-latency timeline.
    pub window: SimDuration,
}

impl ServiceConfig {
    /// A service configuration with the evaluation's defaults: unit load, the
    /// paper's batch sizes (5–30), a 30-second warm-up, a 200k-event stop and
    /// one-minute timeline windows.
    pub fn new(process: ArrivalProcess) -> Self {
        ServiceConfig {
            process,
            load: 1.0,
            batch_range: (5, 30),
            seed: 0x5EED_5EBF,
            warmup: SimDuration::from_secs(30),
            stop: StopCondition::Events(200_000),
            window: SimDuration::from_secs(60),
        }
    }

    /// Returns a copy with a different arrival seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different warm-up cutoff.
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Returns a copy with a different stop condition.
    pub fn with_stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Returns a copy with a different timeline window width.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// Checks that the configuration is not degenerate (invalid process,
    /// non-positive load, empty batch range, zero window, or a zero stop
    /// bound), naming the first offending parameter.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        self.process.validate()?;
        // Reject NaN/zero/negative/infinite loads explicitly: a degenerate
        // multiplier would otherwise silently produce an arrival process that
        // never fires (or fires pathologically fast).
        ConfigError::ensure(
            self.load.is_finite() && self.load > 0.0,
            "load",
            format_args!(
                "load multiplier must be positive and finite, got {}",
                self.load
            ),
        )?;
        let (lo, hi) = self.batch_range;
        ConfigError::ensure(
            lo >= 1 && lo <= hi,
            "batch_range",
            format_args!("invalid batch range {lo}..={hi}"),
        )?;
        ConfigError::ensure(
            !self.window.is_zero(),
            "window",
            format_args!("window width must be positive"),
        )?;
        let stop =
            |ok: bool, message: &str| ConfigError::ensure(ok, "stop", format_args!("{message}"));
        match self.stop {
            StopCondition::Events(n) => stop(n > 0, "event stop bound must be positive"),
            StopCondition::Horizon(h) => stop(!h.is_zero(), "horizon must be positive"),
        }
    }
}

/// Pooled response-time statistics of one suite application in a service run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppServiceStats {
    /// Application name (from the benchmark suite).
    pub app: String,
    /// Measured (post-warm-up) completions of this application.
    pub completions: u64,
    /// Response-time summary in milliseconds (`None` if nothing was measured).
    pub response: Option<Summary>,
}

/// The fold result of a service run: pooled accumulators only, no per-event or
/// per-application records.  It reports what the run did, not its inputs:
/// the caller holds the [`ServiceConfig`] it ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Scheduler label.
    pub scheduler: String,
    /// Simulator events processed.
    pub events_processed: u64,
    /// Arrivals admitted into the simulator.
    pub arrivals_admitted: u64,
    /// Applications that completed (measured or not).
    pub completions: u64,
    /// Completions that counted toward the statistics.
    pub measured_completions: u64,
    /// Completions excluded by the warm-up cutoff.
    pub warmup_completions: u64,
    /// Simulated time when the run stopped.
    pub end_time: SimTime,
    /// Partial reconfigurations performed.
    pub total_pr: u64,
    /// Blocked events (PR contention + scheduler suspension).
    pub blocked_events: u64,
    /// Pooled response-time summary in milliseconds (exact moments,
    /// log-histogram quantiles within 3.2%), `None` if nothing was measured.
    pub overall: Option<Summary>,
    /// Per-suite-application response statistics.
    pub per_app: Vec<AppServiceStats>,
}

/// Where a [`ServiceRunner`] gets its arrivals from.
///
/// The classic service mode owns an unbounded [`ArrivalDriver`]; a fleet shard
/// instead receives arrivals routed to it by the admission layer
/// ([`ServiceRunner::enqueue_arrivals`]) and holds them in a time-ordered
/// queue until the one-at-a-time injection protocol drains them.
#[derive(Debug)]
enum ArrivalSource {
    /// Self-generated arrivals from a seeded process.
    Driver(ArrivalDriver),
    /// Externally routed arrivals (fleet shard mode), front is next to inject.
    Routed(VecDeque<AppArrival>),
}

/// Drives a [`SharingSimulator`] from an unbounded arrival process and folds
/// completions into constant-memory streaming accumulators.
///
/// See the [module docs](self) for the design; the short version: inject one
/// arrival at a time, retire completions into [`StreamingSummary`] /
/// [`TumblingWindow`] accumulators, stop on the configured condition.
///
/// Fleet shards reuse the same runner with two differences: arrivals come from
/// `ServiceRunner::enqueue_arrivals` instead of an internal driver
/// (`ServiceRunner::new_routed`), and execution is segmented into epochs by
/// [`ServiceRunner::run_to_barrier`].  Segmenting is transparent: a run split
/// at any sequence of barriers processes the byte-identical event sequence as
/// an unsegmented [`ServiceRunner::run_with`], because both go through the one
/// stepping loop (`ServiceRunner::run_until`), injection is a pure function of
/// the simulator state, and completions are folded after every step either
/// way.
#[derive(Debug)]
pub struct ServiceRunner {
    sim: SharingSimulator,
    source: ArrivalSource,
    /// Applications arriving before this instant are not measured.
    warmup_end: SimTime,
    stop: StopCondition,
    injected: u64,
    overall: StreamingSummary,
    per_app: Vec<StreamingSummary>,
    completions: u64,
    warmup_completions: u64,
    window: TumblingWindow,
}

impl ServiceRunner {
    /// Creates a runner for `config` arrivals drawn from `suite` on the boards
    /// of `system`.
    ///
    /// The simulator takes `suite` as it is: its specifications share their
    /// data with the caller's (a clone of a spec is a reference-count bump),
    /// and the report's per-application names are read from them.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails `ServiceConfig::validate` or `suite`
    /// is empty.
    pub fn new(system: SystemConfig, suite: Vec<ApplicationSpec>, config: ServiceConfig) -> Self {
        config.validate().unwrap_or_else(|err| panic!("{err}"));
        let driver = ArrivalDriver::new(
            config.process.scaled(config.load),
            suite.len(),
            config.batch_range,
            config.seed,
        );
        ServiceRunner {
            source: ArrivalSource::Driver(driver),
            ..Self::new_routed(system, suite, config.warmup, config.stop, config.window)
        }
    }

    /// Creates a runner whose arrivals are routed in from the outside (a fleet
    /// shard): no internal driver, arrivals arrive via
    /// [`ServiceRunner::enqueue_arrivals`].  It measures the applications
    /// arriving after `warmup`, in timeline windows `window` wide, until
    /// `stop`; the caller has validated these.
    pub(crate) fn new_routed(
        system: SystemConfig,
        suite: Vec<ApplicationSpec>,
        warmup: SimDuration,
        stop: StopCondition,
        window: SimDuration,
    ) -> Self {
        let per_app = vec![StreamingSummary::new(); suite.len()];
        let window = TumblingWindow::new(window);
        let sim = SharingSimulator::for_service(system, suite, ARRIVAL_LOOKAHEAD);
        ServiceRunner {
            sim,
            source: ArrivalSource::Routed(VecDeque::new()),
            warmup_end: SimTime::ZERO + warmup,
            stop,
            injected: 0,
            overall: StreamingSummary::new(),
            per_app,
            completions: 0,
            warmup_completions: 0,
            window,
        }
    }

    /// Read access to the underlying simulator (for invariant checks).
    pub fn simulator(&self) -> &SharingSimulator {
        &self.sim
    }

    /// Counters of the engine's fault plane (all-zero when the system config
    /// carries no fault profile).  Kept out of [`ServiceReport`] so fault-free
    /// reports stay byte-identical to builds without the fault plane.
    pub fn fault_stats(&self) -> FaultStats {
        self.sim.fault_stats()
    }

    /// Applications completed so far (measured or not).
    pub(crate) fn completions(&self) -> u64 {
        self.completions
    }

    /// The pooled streaming accumulator over the measured completions so
    /// far; fleet reports merge the shards' accumulators
    /// ([`StreamingSummary::merge`]).
    pub(crate) fn overall_stream(&self) -> &StreamingSummary {
        &self.overall
    }

    /// Routed arrivals queued but not yet injected (always `0` for a
    /// driver-backed runner).
    pub(crate) fn pending_routed(&self) -> usize {
        match &self.source {
            ArrivalSource::Driver(_) => 0,
            ArrivalSource::Routed(queue) => queue.len(),
        }
    }

    /// Hands a batch of routed arrivals to a [`ServiceRunner::new_routed`]
    /// runner.  Batches must be sorted by arrival time and must not predate
    /// previously enqueued or already-processed arrivals — the fleet engine's
    /// epoch barriers guarantee this.
    ///
    /// # Panics
    ///
    /// Panics if this runner owns an arrival driver.
    pub(crate) fn enqueue_arrivals<I: IntoIterator<Item = AppArrival>>(&mut self, arrivals: I) {
        let ArrivalSource::Routed(queue) = &mut self.source else {
            panic!("enqueue_arrivals on a driver-backed service runner");
        };
        for arrival in arrivals {
            debug_assert!(
                queue
                    .back()
                    .is_none_or(|last| last.arrival <= arrival.arrival),
                "routed arrivals must be enqueued in time order"
            );
            queue.push_back(arrival);
        }
    }

    /// Runs until the stop condition holds and returns the report.
    pub fn run(&mut self, policy: &mut dyn Policy) -> ServiceReport {
        self.run_with(policy, &mut |_| {})
    }

    /// Runs until the stop condition holds, invoking `on_window` for every
    /// finished tumbling window (including the final partial one), and returns
    /// the report.
    pub fn run_with(
        &mut self,
        policy: &mut dyn Policy,
        on_window: &mut dyn FnMut(&WindowSummary),
    ) -> ServiceReport {
        self.run_until(policy, None, on_window);
        self.flush_windows(on_window);
        self.service_report(policy.name())
    }

    /// Keeps exactly one future arrival pending: injects the next one only
    /// once the previous one has been admitted, so the queue never holds more
    /// than [`ARRIVAL_LOOKAHEAD`] arrival events and (in driver mode) never
    /// drains.  Routed mode injects nothing when its queue is empty.
    fn inject_pending(&mut self) {
        if self.injected != self.sim.arrivals_admitted() {
            return;
        }
        match &mut self.source {
            ArrivalSource::Driver(driver) => {
                self.sim.inject_arrival(driver.next_arrival());
                self.injected += 1;
            }
            ArrivalSource::Routed(queue) => {
                if let Some(arrival) = queue.pop_front() {
                    self.sim.inject_arrival(arrival);
                    self.injected += 1;
                }
            }
        }
    }

    /// Folds finished applications into the streaming accumulators and drops
    /// their records (disjoint field borrows around the closure).  Inlined
    /// into the stepping loop, so an event that completed no application
    /// pays one emptiness check; the retiring runs out of line (see
    /// [`SharingSimulator::retire_completed`]).
    #[inline]
    fn fold_completions(&mut self, on_window: &mut dyn FnMut(&WindowSummary)) {
        let Self {
            sim,
            warmup_end,
            overall,
            per_app,
            completions,
            warmup_completions,
            window,
            ..
        } = self;
        sim.retire_completed(|app| {
            *completions += 1;
            if app.arrival < *warmup_end {
                *warmup_completions += 1;
                return;
            }
            let completion = app.completion.expect("retired application completed");
            let response_ms = (completion - app.arrival).as_millis_f64();
            overall.record(response_ms);
            per_app[app.app_index].record(response_ms);
            if let Some(finished) = window.record(completion, response_ms) {
                on_window(&finished);
            }
        });
    }

    /// The one stepping loop: until the stop condition holds, inject → peek
    /// → step → fold.  With a `barrier` it returns before the first event at
    /// or past it (an event at exactly the barrier belongs to the next
    /// segment, and a barrier never splits a same-instant event group because
    /// the whole group shares one timestamp); without one it runs until the
    /// stop condition holds or, in routed mode, the event queue runs dry.
    /// Does **not** flush the final tumbling window or build a report —
    /// [`ServiceRunner::run_with`] and the fleet engine's final epoch do that.
    pub(crate) fn run_until(
        &mut self,
        policy: &mut dyn Policy,
        barrier: Option<SimTime>,
        on_window: &mut dyn FnMut(&WindowSummary),
    ) {
        while !self.stop_reached() {
            self.inject_pending();
            let Some(next) = self.sim.next_event_time() else {
                debug_assert!(
                    matches!(self.source, ArrivalSource::Routed(_)),
                    "an arrival is always pending in driver mode"
                );
                break;
            };
            if barrier.is_some_and(|barrier| next >= barrier) {
                break;
            }
            let stepped = self.sim.step(policy);
            debug_assert!(stepped, "a pending event was peeked");
            self.fold_completions(on_window);
        }
    }

    /// Runs the stepping loop for the events **strictly before** `barrier`,
    /// or until the stop condition holds, and returns.  The fleet engine runs
    /// each non-final epoch this way; a run split at any sequence of barriers
    /// and then finished with [`ServiceRunner::run_with`] processes the
    /// byte-identical event sequence as an unsegmented run.
    pub fn run_to_barrier(
        &mut self,
        policy: &mut dyn Policy,
        barrier: SimTime,
        on_window: &mut dyn FnMut(&WindowSummary),
    ) {
        self.run_until(policy, Some(barrier), on_window);
    }

    /// Flushes the final (partial) tumbling window into `on_window`.  Call
    /// once at the very end of a segmented run; [`ServiceRunner::run_with`]
    /// does it automatically.
    pub(crate) fn flush_windows(&mut self, on_window: &mut dyn FnMut(&WindowSummary)) {
        if let Some(finished) = self.window.flush() {
            on_window(&finished);
        }
    }

    fn stop_reached(&self) -> bool {
        match self.stop {
            StopCondition::Events(bound) => self.sim.events_processed() >= bound,
            StopCondition::Horizon(horizon) => self.sim.now() >= SimTime::ZERO + horizon,
        }
    }

    /// Builds the report of the run so far under the given scheduler label.
    /// Idempotent — the fleet engine calls it after its final epoch.
    pub(crate) fn service_report(&self, scheduler: &str) -> ServiceReport {
        let per_app = self
            .per_app
            .iter()
            .zip(self.sim.suite())
            .map(|(stats, spec)| AppServiceStats {
                app: spec.name().to_string(),
                completions: stats.count(),
                response: stats.summary(),
            })
            .collect();
        ServiceReport {
            scheduler: scheduler.to_string(),
            events_processed: self.sim.events_processed(),
            arrivals_admitted: self.sim.arrivals_admitted(),
            completions: self.completions,
            measured_completions: self.overall.count(),
            warmup_completions: self.warmup_completions,
            end_time: self.sim.now(),
            total_pr: self.sim.total_pr(),
            blocked_events: self.sim.blocked_events(),
            overall: self.overall.summary(),
            per_app,
        }
    }
}

/// One cell of a (scheduler × arrival process × load) service matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCell {
    /// The scheduler under test (its board layout comes with it).
    pub scheduler: SchedulerKind,
    /// The arrival process shape.
    pub process: ArrivalProcess,
    /// Load multiplier applied to the process.
    pub load: f64,
}

/// The cross product of schedulers, processes and load levels, in row-major
/// (scheduler-outermost) order.
pub fn service_matrix(
    schedulers: &[SchedulerKind],
    processes: &[ArrivalProcess],
    loads: &[f64],
) -> Vec<ServiceCell> {
    let mut cells = Vec::with_capacity(schedulers.len() * processes.len() * loads.len());
    for &scheduler in schedulers {
        for &process in processes {
            for &load in loads {
                cells.push(ServiceCell {
                    scheduler,
                    process,
                    load,
                });
            }
        }
    }
    cells
}

/// Runs one service cell on the benchmark suite on a single board with
/// `faults` attached (`None` builds a fault-free board), with `base`
/// providing the non-cell parameters (seed, warm-up, stop condition, window
/// width), and returns the report together with what the fault plane
/// injected.
///
/// # Panics
///
/// Panics for [`SchedulerKind::Baseline`]: exclusive temporal multiplexing
/// bypasses the sharing engine and has no service-mode equivalent.  Panics
/// for an invalid fault profile.
pub(crate) fn run_cell(
    cell: &ServiceCell,
    base: &ServiceConfig,
    faults: Option<FaultProfile>,
) -> (ServiceReport, FaultStats) {
    let mut policy = cell
        .scheduler
        .policy()
        .expect("the Baseline comparator is not supported in service mode");
    let config = ServiceConfig {
        process: cell.process,
        load: cell.load,
        ..*base
    };
    let system = SystemConfig {
        faults,
        ..SystemConfig::single_board(cell.scheduler.board())
    };
    let mut runner = ServiceRunner::new(system, BenchmarkApp::suite(), config);
    let mut report = runner.run(policy.as_mut());
    report.scheduler = cell.scheduler.label().to_string();
    (report, runner.fault_stats())
}

/// Runs a service matrix through the deterministic parallel fan-out: results
/// come back in input order and are byte-identical to a sequential run.
pub fn run_service_matrix(
    parallelism: Parallelism,
    cells: &[ServiceCell],
    base: &ServiceConfig,
) -> Vec<ServiceReport> {
    let base = *base;
    parallel_map(parallelism, cells, move |cell| {
        run_cell(cell, &base, None).0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::versaslot::VersaSlotPolicy;
    use versaslot_fpga::board::BoardSpec;

    fn poisson() -> ArrivalProcess {
        ArrivalProcess::Poisson { rate_per_sec: 0.6 }
    }

    fn runner(config: ServiceConfig) -> ServiceRunner {
        ServiceRunner::new(
            SystemConfig::single_board(BoardSpec::zcu216_big_little()),
            BenchmarkApp::suite(),
            config,
        )
    }

    fn with_load(load: f64) -> ServiceConfig {
        ServiceConfig {
            load,
            ..ServiceConfig::new(poisson())
        }
    }

    /// `config` fails validation on `parameter`; the runner then refuses it,
    /// panicking with the error's text (which the caller's `should_panic`
    /// checks).
    fn assert_rejects(config: ServiceConfig, parameter: &str) {
        let err = config.validate().unwrap_err();
        // The failure message names no parameter: either name may be the
        // caller's `should_panic` text.
        assert!(
            err.parameter() == parameter,
            "validation blamed another parameter"
        );
        runner(config);
    }

    #[test]
    #[should_panic(expected = "load multiplier must be positive and finite")]
    fn validate_rejects_nan_load() {
        assert_rejects(with_load(f64::NAN), "load");
    }

    #[test]
    #[should_panic(expected = "load multiplier must be positive and finite")]
    fn validate_rejects_negative_load() {
        assert_rejects(with_load(-0.5), "load");
    }

    #[test]
    #[should_panic(expected = "load multiplier must be positive and finite")]
    fn validate_rejects_zero_load() {
        assert_rejects(with_load(0.0), "load");
    }

    #[test]
    #[should_panic(expected = "load multiplier must be positive and finite")]
    fn validate_rejects_infinite_load() {
        assert_rejects(with_load(f64::INFINITY), "load");
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn validate_rejects_zero_window() {
        assert_rejects(
            ServiceConfig::new(poisson()).with_window(SimDuration::ZERO),
            "window",
        );
    }

    #[test]
    #[should_panic(expected = "event stop bound must be positive")]
    fn validate_rejects_zero_event_stop() {
        assert_rejects(
            ServiceConfig::new(poisson()).with_stop(StopCondition::Events(0)),
            "stop",
        );
    }

    #[test]
    fn service_run_completes_and_stays_allocation_free() {
        let config = ServiceConfig::new(poisson()).with_stop(StopCondition::Events(30_000));
        let mut service = runner(config);
        let report = service.run(&mut VersaSlotPolicy::new());
        assert!(report.events_processed >= 30_000);
        assert!(report.completions > 0, "no application ever finished");
        assert!(report.measured_completions > 0);
        assert_eq!(
            report.completions,
            report.measured_completions + report.warmup_completions
        );
        let summary = report.overall.expect("measured completions exist");
        assert_eq!(summary.count as u64, report.measured_completions);
        assert!(summary.p50 <= summary.p95 && summary.p95 <= summary.p99);
        // The allocation-free spine extends to service mode: the pre-sized
        // event queue never grew despite the unbounded arrival stream.
        assert_eq!(service.simulator().event_queue_grow_events(), 0);
        // Retirement keeps the runtime tables bounded by the live applications.
        assert!(service.simulator().active_apps().len() < 64);
    }

    #[test]
    fn warmup_cutoff_excludes_early_arrivals() {
        let config = ServiceConfig::new(poisson())
            .with_warmup(SimDuration::from_secs(120))
            .with_stop(StopCondition::Events(30_000));
        let report = runner(config).run(&mut VersaSlotPolicy::new());
        assert!(
            report.warmup_completions > 0,
            "two minutes at 0.6/s must complete something during warm-up"
        );
        assert!(report.measured_completions > 0);
        // Per-app measured counts add up to the pooled measured count.
        let per_app_total: u64 = report.per_app.iter().map(|a| a.completions).sum();
        assert_eq!(per_app_total, report.measured_completions);

        // A zero-warm-up run measures strictly more of the same stream.
        let no_warmup = ServiceConfig::new(poisson())
            .with_warmup(SimDuration::ZERO)
            .with_stop(StopCondition::Events(30_000));
        let full = runner(no_warmup).run(&mut VersaSlotPolicy::new());
        assert_eq!(full.warmup_completions, 0);
        assert!(full.measured_completions > report.measured_completions);
    }

    #[test]
    fn horizon_stop_ends_at_the_horizon() {
        let horizon = SimDuration::from_secs(300);
        let config = ServiceConfig::new(poisson()).with_stop(StopCondition::Horizon(horizon));
        let report = runner(config).run(&mut VersaSlotPolicy::new());
        assert!(report.end_time >= SimTime::ZERO + horizon);
        // The run stops at the first event past the horizon, not far beyond.
        assert!(report.end_time < SimTime::ZERO + horizon + SimDuration::from_secs(60));
    }

    #[test]
    fn barrier_segments_then_run_match_an_unsegmented_run() {
        // A horizon past every barrier, and an event budget the segments
        // reach: the segmented run must stop where the unsegmented one does.
        for stop in [
            StopCondition::Horizon(SimDuration::from_secs(900)),
            StopCondition::Events(5_000),
        ] {
            let config = ServiceConfig::new(poisson())
                .with_warmup(SimDuration::from_secs(60))
                .with_window(SimDuration::from_secs(120))
                .with_stop(stop);

            let mut whole_windows = Vec::new();
            let whole = runner(config)
                .run_with(&mut VersaSlotPolicy::new(), &mut |w| whole_windows.push(*w));

            // Segments that split a window, repeat a barrier and land past the
            // warm-up, then `run` to the stop.
            let mut segmented = runner(config);
            let mut policy = VersaSlotPolicy::new();
            let mut segmented_windows = Vec::new();
            for barrier in [45, 150, 150, 301, 700] {
                segmented.run_to_barrier(&mut policy, SimTime::from_secs(barrier), &mut |w| {
                    segmented_windows.push(*w)
                });
            }
            let resumed = segmented.run_with(&mut policy, &mut |w| segmented_windows.push(*w));

            assert!(whole.measured_completions > 0, "{stop:?}");
            assert_eq!(
                serde_json::to_string(&whole).expect("serialises"),
                serde_json::to_string(&resumed).expect("serialises"),
                "{stop:?}"
            );
            assert_eq!(whole_windows, segmented_windows, "{stop:?}");

            // Once the stop condition holds, a further segment runs nothing.
            segmented.run_to_barrier(&mut policy, SimTime::from_secs(5_000), &mut |_| {});
            assert_eq!(
                segmented.simulator().events_processed(),
                resumed.events_processed,
                "{stop:?}"
            );
        }
    }

    #[test]
    fn window_timeline_is_ordered_and_covers_measured_completions() {
        let config = ServiceConfig::new(poisson())
            .with_window(SimDuration::from_secs(120))
            .with_stop(StopCondition::Events(40_000));
        let mut windows = Vec::new();
        let report = runner(config).run_with(&mut VersaSlotPolicy::new(), &mut |w| {
            windows.push(*w);
        });
        assert!(!windows.is_empty());
        for pair in windows.windows(2) {
            assert!(pair[0].index < pair[1].index, "windows out of order");
        }
        let windowed: u64 = windows.iter().map(|w| w.count).sum();
        assert_eq!(windowed, report.measured_completions);
        for w in &windows {
            assert!(w.p50 <= w.p95 && w.p95 <= w.p99 && w.p99 <= w.max);
        }
    }

    #[test]
    fn service_reports_are_reproducible_run_to_run() {
        let config = ServiceConfig::new(ArrivalProcess::Diurnal {
            base_rate_per_sec: 0.5,
            amplitude: 0.6,
            period: SimDuration::from_secs(600),
        })
        .with_stop(StopCondition::Events(20_000));
        let run = || {
            let report = runner(config).run(&mut VersaSlotPolicy::new());
            serde_json::to_string(&report).expect("report serializes")
        };
        assert_eq!(run(), run(), "same seed, same report bytes");
        let other = ServiceConfig { seed: 1, ..config };
        let differs = serde_json::to_string(&runner(other).run(&mut VersaSlotPolicy::new()))
            .expect("report serializes");
        assert_ne!(run(), differs, "seed is ignored");
    }

    #[test]
    fn matrix_covers_the_cross_product() {
        let schedulers = [SchedulerKind::Nimblock, SchedulerKind::VersaSlotBigLittle];
        let processes = [poisson()];
        let loads = [0.5, 1.0, 2.0];
        let cells = service_matrix(&schedulers, &processes, &loads);
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].scheduler, SchedulerKind::Nimblock);
        assert_eq!(cells[0].load, 0.5);
        assert_eq!(cells[5].scheduler, SchedulerKind::VersaSlotBigLittle);
        assert_eq!(cells[5].load, 2.0);
    }

    #[test]
    #[should_panic(expected = "not supported in service mode")]
    fn baseline_cells_are_rejected() {
        let cell = ServiceCell {
            scheduler: SchedulerKind::Baseline,
            process: poisson(),
            load: 1.0,
        };
        run_cell(&cell, &ServiceConfig::new(poisson()), None);
    }

    /// The acceptance-criteria run: 10M events under sustained load with O(1)
    /// memory per app.  Ignored by default (minutes in debug builds because of
    /// the per-event index verification); run explicitly with
    /// `cargo test --release -p versaslot-core -- --ignored ten_million`.
    #[test]
    #[ignore = "long: 10M-event service run (use --release)"]
    fn ten_million_event_run_is_allocation_free() {
        // 0.7 apps/s is just under the Big.Little board's service capacity
        // (~1 app/s for the benchmark mix), so the run is a loaded but stable
        // steady state rather than an ever-growing backlog.
        let config = ServiceConfig::new(ArrivalProcess::Poisson { rate_per_sec: 0.7 })
            .with_stop(StopCondition::Events(10_000_000));
        let mut service = runner(config);
        let report = service.run(&mut VersaSlotPolicy::new());
        assert!(report.events_processed >= 10_000_000);
        assert_eq!(service.simulator().event_queue_grow_events(), 0);
        assert!(report.measured_completions > 10_000);
    }

    /// A valid service run may outlast the livelock bound of a finite run
    /// (50M events, applied by `SharingSimulator::run` only): it runs to its
    /// own stop condition.  Ignored by default (about 15 s in release builds);
    /// run with `cargo test --release -p versaslot-core -- --ignored past_the`.
    #[test]
    #[ignore = "long: 50M-event service run (use --release)"]
    fn service_runs_past_the_finite_run_event_bound() {
        let config = ServiceConfig::new(ArrivalProcess::Poisson { rate_per_sec: 0.7 })
            .with_stop(StopCondition::Events(50_000_100));
        let report = runner(config).run(&mut VersaSlotPolicy::new());
        assert!(report.events_processed >= 50_000_100);
    }
}
