//! `paper_sweep`: the Fig 5/6 matrix (6 systems × 4 congestion levels × 20-app
//! sequences) plus the Fig 8 cluster modes, one run at a time on one thread.
//!
//! The measured path is `run_sequence` / `run_cluster_sequence`, one timed
//! segment per run.  The checking
//! and traced path ([`replica`]) runs every sharing system through
//! `SharingSimulator::new` + `run` with a timed policy, and must reproduce the
//! measured reports byte for byte.

use std::time::Instant;

use versaslot::core::config::{SwitchingConfig, SystemConfig};
use versaslot::core::engine::SharingSimulator;
use versaslot::core::metrics::RunReport;
use versaslot::core::runner::{run_cluster_sequence, run_sequence, ClusterMode, SchedulerKind};
use versaslot::fpga::BoardSpec;
use versaslot::workload::{generate_workload, Congestion, Workload, WorkloadConfig};

use crate::trace::{Acc, PolicyTotals, TimedPolicy};
use crate::{mix, Args, Digest, Laps, Report, Responses};

/// Fig 5/6 sequences per congestion level: 4 × 15 × 20 = 1,200 VersaSlot
/// Big.Little completions back the p99.
const SEQUENCES: u32 = 40;
const APPS: u32 = 20;
/// Fig 8 shape (the paper's 3 × 80).
const SWITCH_SEQUENCES: u32 = 3;
const SWITCH_APPS: u32 = 80;
/// Latency limit of `sim_slo_miss_share`.
pub const LIMIT_MS: f64 = 10_000.0;
const SEED_SALT: u64 = 0xF165_0000;
/// The system whose responses the `sim_*` metrics describe.
const SUBJECT: SchedulerKind = SchedulerKind::VersaSlotBigLittle;

/// Generated inputs: one workload per congestion level, one for Fig 8.
struct Inputs {
    matrix: Vec<(Congestion, Workload)>,
    switching: Workload,
}

fn generate(seed: u64) -> Inputs {
    let matrix = Congestion::all()
        .into_iter()
        .zip(0u64..)
        .map(|(congestion, salt)| {
            let config = WorkloadConfig::paper_default(congestion)
                .with_shape(SEQUENCES, APPS)
                .with_seed(mix(seed, SEED_SALT + salt));
            (congestion, generate_workload(&config))
        })
        .collect();
    let switching = generate_workload(
        &WorkloadConfig::paper_switching()
            .with_shape(SWITCH_SEQUENCES, SWITCH_APPS)
            .with_seed(mix(seed, SEED_SALT + 8)),
    );
    Inputs { matrix, switching }
}

/// One simulated run of the sweep.
#[derive(Debug, Clone, Copy)]
enum Job {
    Matrix {
        congestion: usize,
        kind: SchedulerKind,
        sequence: usize,
    },
    Cluster {
        mode: ClusterMode,
        sequence: usize,
    },
}

fn jobs(inputs: &Inputs) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (congestion, (_, workload)) in inputs.matrix.iter().enumerate() {
        for kind in SchedulerKind::all() {
            for sequence in 0..workload.sequences.len() {
                jobs.push(Job::Matrix {
                    congestion,
                    kind,
                    sequence,
                });
            }
        }
    }
    for mode in ClusterMode::all() {
        for sequence in 0..inputs.switching.sequences.len() {
            jobs.push(Job::Cluster { mode, sequence });
        }
    }
    jobs
}

/// Runs every job, lapping after each.
fn run_all(inputs: &Inputs, laps: &mut Laps) -> Vec<RunReport> {
    jobs(inputs)
        .into_iter()
        .map(|job| {
            let report = match job {
                Job::Matrix {
                    congestion,
                    kind,
                    sequence,
                } => {
                    let workload = &inputs.matrix[congestion].1;
                    run_sequence(kind, workload, &workload.sequences[sequence])
                }
                Job::Cluster { mode, sequence } => run_cluster_sequence(
                    mode,
                    &inputs.switching,
                    &inputs.switching.sequences[sequence],
                    SwitchingConfig::default(),
                ),
            };
            laps.lap();
            report
        })
        .collect()
}

fn measure(inputs: &mut Inputs, laps: &mut Laps) -> (u64, Vec<RunReport>) {
    let reports = run_all(inputs, laps);
    let apps = reports.iter().map(|r| r.apps.len() as u64).sum();
    (apps, reports)
}

fn digest(reports: &[RunReport]) -> u64 {
    let mut digest = Digest::default();
    for report in reports {
        digest.json(serde_json::to_string(report));
    }
    digest.finish()
}

/// Metric-name slug of a system's run time.
fn runner_metric(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Baseline => "runner.s.baseline",
        SchedulerKind::Fcfs => "runner.s.fcfs",
        SchedulerKind::RoundRobin => "runner.s.rr",
        SchedulerKind::Nimblock => "runner.s.nimblock",
        SchedulerKind::VersaSlotOnlyLittle => "runner.s.versaslot_only_little",
        SchedulerKind::VersaSlotBigLittle => "runner.s.versaslot_big_little",
    }
}

fn cluster_system(mode: ClusterMode) -> SystemConfig {
    match mode {
        ClusterMode::OnlyLittle => SystemConfig::single_board(BoardSpec::zcu216_only_little()),
        ClusterMode::OnlyBigLittle => SystemConfig::single_board(BoardSpec::zcu216_big_little()),
        ClusterMode::Switching => SystemConfig::switching_cluster(
            BoardSpec::zcu216_only_little(),
            BoardSpec::zcu216_big_little(),
        )
        .with_switching(SwitchingConfig::default()),
    }
}

/// What the replica measured.
#[derive(Default)]
struct Replica {
    reports: Vec<RunReport>,
    /// Run spans per system (index of `SchedulerKind::all()`), then cluster.
    runs: [Acc; 7],
    policy: PolicyTotals,
    grow_events: u64,
    /// Events of the sharing-engine runs (the Baseline has its own model).
    events: u64,
}

/// Every job of the sweep with one span per run: the Baseline through
/// `run_sequence` (it bypasses the sharing engine), every sharing system and
/// cluster mode through `SharingSimulator::new` + `run` with a timed policy.
fn replica(inputs: &Inputs) -> Replica {
    let mut out = Replica::default();
    let all = SchedulerKind::all();
    for job in jobs(inputs) {
        let start = Instant::now();
        let (slot, report) = match job {
            Job::Matrix {
                congestion,
                kind,
                sequence,
            } => {
                let workload = &inputs.matrix[congestion].1;
                let sequence = &workload.sequences[sequence];
                let slot = all.iter().position(|&k| k == kind).expect("known system");
                match kind.policy() {
                    None => (slot, run_sequence(kind, workload, sequence)),
                    Some(inner) => {
                        let system = SystemConfig::single_board(kind.board());
                        let mut sim = SharingSimulator::new(
                            system,
                            workload.suite.clone(),
                            &sequence.arrivals,
                        );
                        let mut policy = TimedPolicy::new(inner);
                        let mut report = sim.run(&mut policy);
                        report.scheduler = kind.label().to_string();
                        out.policy.add(&policy);
                        out.grow_events += sim.event_queue_grow_events();
                        out.events += report.events_processed;
                        (slot, report)
                    }
                }
            }
            Job::Cluster { mode, sequence } => {
                let sequence = &inputs.switching.sequences[sequence];
                let mut sim = SharingSimulator::new(
                    cluster_system(mode),
                    inputs.switching.suite.clone(),
                    &sequence.arrivals,
                );
                let mut policy = TimedPolicy::new(SUBJECT.policy().expect("sharing policy"));
                let mut report = sim.run(&mut policy);
                report.scheduler = format!("versaslot-cluster:{}", mode.label());
                out.policy.add(&policy);
                out.grow_events += sim.event_queue_grow_events();
                out.events += report.events_processed;
                (6, report)
            }
        };
        out.runs[slot].add(start.elapsed());
        out.reports.push(report);
    }
    out
}

/// Mean response (ms) of every application in `reports`.
fn mean_ms<'a>(reports: impl Iterator<Item = &'a RunReport>) -> f64 {
    let (sum, n) = reports
        .flat_map(|r| r.apps.iter())
        .fold((0.0, 0u64), |(sum, n), app| {
            (sum + app.response().as_millis_f64(), n + 1)
        });
    sum / n as f64
}

/// Checks the replica against the measured reports, records the request
/// accounting, the exact `sim_*` metrics, and returns the paper's two
/// headline ratios (best over congestion levels).
fn check_and_report(
    report: &mut Report,
    inputs: &Inputs,
    measured: &[RunReport],
    replica: &Replica,
) -> (f64, f64) {
    let jobs = jobs(inputs);
    let generated: u64 = jobs
        .iter()
        .map(|job| match *job {
            Job::Matrix {
                congestion,
                sequence,
                ..
            } => inputs.matrix[congestion].1.sequences[sequence]
                .arrivals
                .len() as u64,
            Job::Cluster { sequence, .. } => {
                inputs.switching.sequences[sequence].arrivals.len() as u64
            }
        })
        .sum();
    let completed: u64 = measured.iter().map(|r| r.apps.len() as u64).sum();
    report.attempted = generated;
    // Finite runs: nothing is in flight or undelivered at the end.
    report.lost = generated.abs_diff(completed);
    report.check(
        "accounting: generated = completed + in flight + undelivered",
        report.lost == 0,
    );
    report.check(
        "queue never grew on any sharing run",
        replica.grow_events == 0,
    );
    let same = measured.len() == replica.reports.len()
        && measured.iter().zip(&replica.reports).all(|(a, b)| {
            serde_json::to_string(a).expect("serializes")
                == serde_json::to_string(b).expect("serializes")
        });
    report.check(
        "replica reports are byte-identical to run_sequence/run_cluster_sequence",
        same,
    );
    report.digest(digest(measured));

    let matrix_reports = |congestion: usize, kind: SchedulerKind| {
        jobs.iter()
            .zip(measured)
            .filter_map(move |(job, r)| match *job {
                Job::Matrix {
                    congestion: c,
                    kind: k,
                    ..
                } if c == congestion && k == kind => Some(r),
                _ => None,
            })
    };
    let (mut vs_baseline, mut vs_nimblock) = (0.0f64, 0.0f64);
    let mut subject_ms = Vec::new();
    for (index, (congestion, _)) in inputs.matrix.iter().enumerate() {
        let subject = mean_ms(matrix_reports(index, SUBJECT));
        let baseline = mean_ms(matrix_reports(index, SchedulerKind::Baseline)) / subject;
        let nimblock = mean_ms(matrix_reports(index, SchedulerKind::Nimblock)) / subject;
        report.note(format!(
            "{:<9} VersaSlot Big.Little mean {subject:.1} ms: {baseline:.2}x vs Baseline, \
             {nimblock:.2}x vs Nimblock",
            congestion.label()
        ));
        vs_baseline = vs_baseline.max(baseline);
        vs_nimblock = vs_nimblock.max(nimblock);
        for r in matrix_reports(index, SUBJECT) {
            subject_ms.extend(r.apps.iter().map(|app| app.response().as_millis_f64()));
        }
    }
    let mean = subject_ms.iter().sum::<f64>() / subject_ms.len() as f64;
    Responses {
        completed_ms: subject_ms,
        mean_ms: mean,
        in_flight: 0,
        in_flight_late: 0,
    }
    .report(report, LIMIT_MS);
    (vs_baseline, vs_nimblock)
}

pub fn run(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let reps = crate::repeat(
        args.seconds,
        || generate(seed),
        measure,
        |reports| digest(reports),
    );
    crate::report_reps(report, &reps);
    let (inputs, measured) = &reps.first;
    let replica = replica(inputs);
    let (vs_baseline, vs_nimblock) = check_and_report(report, inputs, measured, &replica);
    // Completions of each system behind each ratio.
    let per_system = u64::from(SEQUENCES * APPS) * inputs.matrix.len() as u64;
    report.metric("sim_speedup_vs_baseline", vs_baseline, "ratio", per_system);
    report.metric("sim_speedup_vs_nimblock", vs_nimblock, "ratio", per_system);
}

pub fn run_traced(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let start = Instant::now();
    let (_, measured) = measure(&mut generate(seed), &mut Laps::start());
    let untraced_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let inputs = generate(seed);
    let generator_s = start.elapsed().as_secs_f64();
    let replica = replica(&inputs);
    let wall_s = start.elapsed().as_secs_f64();

    let pass = replica.policy.pass;
    let sharing_s: f64 = replica.runs[1..].iter().map(Acc::secs).sum();
    let engine_s = sharing_s - pass.secs();
    let events = replica.events as f64;
    let sharing_reports = || {
        replica
            .reports
            .iter()
            .filter(|r| r.scheduler != SchedulerKind::Baseline.label())
    };
    let cluster = || {
        replica
            .reports
            .iter()
            .filter(|r| r.scheduler.starts_with("versaslot-cluster:"))
    };
    report.layer("policy.passes", pass.calls as f64);
    report.layer("policy.self_s", pass.secs());
    report.layer("policy.ns_per_pass", pass.ns_per_call());
    report.layer("policy.share", pass.secs() / wall_s);
    report.layer(
        "policy.productive_share",
        replica.policy.productive as f64 / pass.calls as f64,
    );
    report.layer("engine.events", events);
    report.layer("engine.events_per_s", events / sharing_s);
    report.layer("engine.self_s", engine_s);
    report.layer("engine.ns_per_event", engine_s * 1e9 / events);
    report.layer("engine.events_per_pass", events / pass.calls as f64);
    report.layer("engine.queue_grow_events", replica.grow_events as f64);
    report.layer(
        "engine.total_pr",
        sharing_reports().map(|r| r.total_pr).sum::<u64>() as f64,
    );
    report.layer(
        "engine.blocked_events",
        sharing_reports().map(|r| r.blocked_events).sum::<u64>() as f64,
    );
    report.layer("runner.runs", replica.reports.len() as f64);
    for (kind, acc) in SchedulerKind::all().into_iter().zip(&replica.runs) {
        report.layer(runner_metric(kind), acc.secs());
    }
    report.layer("runner.s.cluster", replica.runs[6].secs());
    report.layer("generator.s", generator_s);
    report.layer(
        "migration.switches",
        cluster().map(|r| r.switches).sum::<u64>() as f64,
    );
    report.layer(
        "migration.overhead_ms",
        cluster()
            .flat_map(|r| r.migrations.iter())
            .fold(0.0, |sum, m| sum + m.overhead.as_millis_f64()),
    );
    let covered = generator_s + replica.runs.iter().map(Acc::secs).sum::<f64>();
    crate::report_trace(report, wall_s, untraced_s, covered);
    let (vs_baseline, vs_nimblock) = check_and_report(report, &inputs, &measured, &replica);
    report.layer("sim_speedup_vs_baseline", vs_baseline);
    report.layer("sim_speedup_vs_nimblock", vs_nimblock);
}
