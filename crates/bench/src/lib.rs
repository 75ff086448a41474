//! Experiment harnesses that regenerate every figure of the VersaSlot paper.
//!
//! The evaluation section of the paper contains four result figures; each has a
//! function here that produces the same rows/series, plus a `fig*` binary that
//! prints them and a Criterion benchmark that exercises a reduced-size version:
//!
//! | Paper figure | Function | Binary |
//! |---|---|---|
//! | Figure 5 — relative response time reduction vs congestion | [`figure5`] | `cargo run -p versaslot-bench --release --bin fig5` |
//! | Figure 6 — P95/P99 tail response time | [`figure6`] | `--bin fig6` |
//! | Figure 7 — 3-in-1 resource utilization increase | [`figure7`] | `--bin fig7` |
//! | Figure 8 — D_switch trace and cross-board switching gain | [`figure8`] | `--bin fig8` |
//!
//! Absolute latencies come from the simulated cluster, not the authors' ZCU216
//! testbed, so the harness is judged on *shape*: which system wins, by roughly what
//! factor, and where the crossovers fall.
//!
//! Figures 5 and 6 fold their congestion conditions into **one** global
//! (congestion × scheduler × sequence) job list drained by a single
//! [`parallel_map`] call, so high-core-count machines stay busy across
//! congestion boundaries; Figure 8 does the same over (mode × sequence).  All
//! fan-outs regroup results in input order, so sequential and parallel runs are
//! byte-identical (checked by the determinism tests in this crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use versaslot_core::fleet::{run_fleet, FleetConfig};
use versaslot_core::metrics::{
    pooled_mean_response_ms, pooled_percentile_ms, relative_reduction, relative_tail, RunReport,
};
use versaslot_core::par::{parallel_map, Parallelism};
use versaslot_core::runner::{run_cluster_sequence, run_sequence, ClusterMode, SchedulerKind};
use versaslot_core::service::{run_service_cell, ServiceCell, ServiceConfig, StopCondition};
use versaslot_core::SwitchingConfig;
use versaslot_fpga::board::BoardSpec;
use versaslot_sim::fault::FaultProfile;
use versaslot_sim::SimDuration;
use versaslot_workload::benchmarks::BenchmarkApp;
use versaslot_workload::{generate_workload, ArrivalProcess, Congestion, Workload, WorkloadConfig};

/// Shape of the generated workloads: `(sequences, apps per sequence)`.
///
/// The paper uses 10×20 for Figures 5/6 and 3×80 for Figure 8; the Criterion
/// benches use smaller shapes so a full `cargo bench` stays quick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shape {
    /// Number of random sequences.
    pub sequences: u32,
    /// Applications per sequence.
    pub apps_per_sequence: u32,
}

impl Shape {
    /// The paper's Figure 5/6 shape (10 sequences × 20 applications).
    pub fn paper() -> Self {
        Shape {
            sequences: 10,
            apps_per_sequence: 20,
        }
    }

    /// The paper's Figure 8 shape (3 workloads × 80 applications).
    pub fn paper_switching() -> Self {
        Shape {
            sequences: 3,
            apps_per_sequence: 80,
        }
    }

    /// A reduced shape for quick runs (benchmarks, CI).
    pub fn quick() -> Self {
        Shape {
            sequences: 2,
            apps_per_sequence: 10,
        }
    }
}

/// The command line of the `fig*` binaries: `[--quick] [--json]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FigArgs {
    /// `--quick`: the reduced workload (a no-op for `fig7`, which runs none).
    pub quick: bool,
    /// `--json`: machine-readable output.
    pub json: bool,
}

impl FigArgs {
    /// Parses the arguments after the program name of the binary `bin`.
    ///
    /// Any argument other than `--quick` and `--json` is an error carrying a
    /// usage line, so a typo such as `--quikc` never silently runs the full
    /// paper shape.
    pub fn parse<I: IntoIterator<Item = String>>(bin: &str, args: I) -> Result<Self, String> {
        let mut parsed = FigArgs::default();
        for arg in args {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--json" => parsed.json = true,
                other => {
                    return Err(format!(
                        "{bin}: unknown argument `{other}`\nusage: {bin} [--quick] [--json]"
                    ))
                }
            }
        }
        Ok(parsed)
    }

    /// [`Self::parse`] over the process arguments; on an error, prints it to
    /// stderr and exits with status 2.
    pub fn from_env(bin: &str) -> Self {
        Self::parse(bin, std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2)
        })
    }
}

fn workload_for(congestion: Congestion, shape: Shape) -> Workload {
    generate_workload(
        &WorkloadConfig::paper_default(congestion)
            .with_shape(shape.sequences, shape.apps_per_sequence),
    )
}

/// Runs every scheduler over the workload of one congestion condition, fanning
/// the whole (scheduler × sequence) job matrix out across worker threads.
pub fn run_matrix(congestion: Congestion, shape: Shape) -> BTreeMap<String, Vec<RunReport>> {
    run_matrix_with(congestion, shape, Parallelism::Auto)
}

/// [`run_matrix`] with an explicit execution mode (the determinism tests compare
/// the two paths).
///
/// Every (scheduler, sequence) cell is an independent simulation, so all
/// `6 × sequences` jobs go through one [`parallel_map`] call; the results are
/// regrouped per scheduler in input order, making the output byte-identical
/// between sequential and parallel runs.
pub fn run_matrix_with(
    congestion: Congestion,
    shape: Shape,
    parallelism: Parallelism,
) -> BTreeMap<String, Vec<RunReport>> {
    run_congestion_matrices(&[congestion], shape, parallelism)
        .pop()
        .expect("one matrix per congestion")
}

/// Runs the full (congestion × scheduler × sequence) job matrix of several
/// congestion conditions through **one** [`parallel_map`] call, returning one
/// per-scheduler report map per congestion, in the order given.
///
/// This is the global fan-out [`figure5`] and [`figure6`] sit on: instead of
/// parallelising each congestion's matrix internally and walking the
/// congestion conditions sequentially (which leaves cores idle at every
/// congestion boundary), all `congestions × 6 × sequences` independent
/// simulations form a single job list that scoped worker threads drain
/// end-to-end.  Results are regrouped in input order, so the per-congestion
/// matrices are byte-identical to separate [`run_matrix`] calls — and to a
/// [`Parallelism::Sequential`] run.
fn run_congestion_matrices(
    congestions: &[Congestion],
    shape: Shape,
    parallelism: Parallelism,
) -> Vec<BTreeMap<String, Vec<RunReport>>> {
    let workloads: Vec<Workload> = congestions
        .iter()
        .map(|&congestion| workload_for(congestion, shape))
        .collect();
    let jobs: Vec<(usize, SchedulerKind, usize)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(ci, workload)| {
            SchedulerKind::all()
                .into_iter()
                .flat_map(move |kind| (0..workload.sequences.len()).map(move |seq| (ci, kind, seq)))
        })
        .collect();
    let reports = parallel_map(parallelism, &jobs, |&(ci, kind, seq)| {
        run_sequence(kind, &workloads[ci], &workloads[ci].sequences[seq])
    });
    let mut matrices: Vec<BTreeMap<String, Vec<RunReport>>> =
        congestions.iter().map(|_| BTreeMap::new()).collect();
    for (&(ci, kind, _), report) in jobs.iter().zip(reports) {
        matrices[ci]
            .entry(kind.label().to_string())
            .or_default()
            .push(report);
    }
    matrices
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// One bar of Figure 5: a scheduler's mean-response reduction factor relative to
/// the Baseline under one congestion condition (higher is better).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Congestion condition label.
    pub congestion: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Mean response time in milliseconds.
    pub mean_response_ms: f64,
    /// `baseline mean / scheduler mean` (the quantity Figure 5 plots).
    pub relative_reduction: f64,
}

/// Regenerates Figure 5: average relative response-time reduction (normalised to
/// the Baseline) for all six systems under the four congestion conditions.
pub fn figure5(shape: Shape) -> Vec<Fig5Row> {
    figure5_with(shape, Parallelism::Auto)
}

/// [`figure5`] with an explicit execution mode (the determinism tests compare
/// the two paths).
///
/// All four congestion conditions are folded into one global
/// (congestion × scheduler × sequence) job list and fanned out through a single
/// [`parallel_map`] call — see [`run_congestion_matrices`].
pub fn figure5_with(shape: Shape, parallelism: Parallelism) -> Vec<Fig5Row> {
    let congestions = Congestion::all();
    let matrices = run_congestion_matrices(&congestions, shape, parallelism);
    let mut rows = Vec::new();
    for (congestion, matrix) in congestions.iter().zip(&matrices) {
        let baseline_mean = pooled_mean_response_ms(&matrix[SchedulerKind::Baseline.label()]);
        for kind in SchedulerKind::all() {
            let mean = pooled_mean_response_ms(&matrix[kind.label()]);
            rows.push(Fig5Row {
                congestion: congestion.label().to_string(),
                scheduler: kind.label().to_string(),
                mean_response_ms: mean,
                relative_reduction: relative_reduction(baseline_mean, mean),
            });
        }
    }
    rows
}

/// Renders Figure 5 rows as an aligned text table.
pub fn format_figure5(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 5 — Average relative response time reduction (normalised to Baseline, higher is better)\n");
    out.push_str(&format!(
        "{:<24} {:>10} {:>10} {:>10} {:>10}\n",
        "Scheduler", "Loose", "Standard", "Stress", "Real-time"
    ));
    for kind in SchedulerKind::all() {
        let mut line = format!("{:<24}", kind.label());
        for congestion in Congestion::all() {
            let row = rows
                .iter()
                .find(|r| r.scheduler == kind.label() && r.congestion == congestion.label())
                .expect("complete figure 5 matrix");
            line.push_str(&format!(" {:>10.2}", row.relative_reduction));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// One bar of Figure 6: tail response time relative to the Baseline (lower is
/// better).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Congestion condition label (Standard / Stress / Real-time).
    pub congestion: String,
    /// `"P95"` or `"P99"`.
    pub percentile: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Tail response time in milliseconds.
    pub tail_ms: f64,
    /// `scheduler tail / baseline tail` (the quantity Figure 6 plots).
    pub relative_tail: f64,
}

/// Regenerates Figure 6: P95/P99 tail response time normalised to the Baseline for
/// the Standard, Stress and Real-time conditions.
pub fn figure6(shape: Shape) -> Vec<Fig6Row> {
    figure6_with(shape, Parallelism::Auto)
}

/// [`figure6`] with an explicit execution mode (the determinism tests compare
/// the two paths).
///
/// Like [`figure5_with`], the three congestion conditions share one global job
/// list through a single [`parallel_map`] call.
pub fn figure6_with(shape: Shape, parallelism: Parallelism) -> Vec<Fig6Row> {
    let congestions = [
        Congestion::Standard,
        Congestion::Stress,
        Congestion::RealTime,
    ];
    let matrices = run_congestion_matrices(&congestions, shape, parallelism);
    let mut rows = Vec::new();
    for (congestion, matrix) in congestions.iter().zip(&matrices) {
        for (label, q) in [("P95", 0.95), ("P99", 0.99)] {
            let baseline_tail = pooled_percentile_ms(&matrix[SchedulerKind::Baseline.label()], q);
            for kind in SchedulerKind::all() {
                let tail = pooled_percentile_ms(&matrix[kind.label()], q);
                rows.push(Fig6Row {
                    congestion: congestion.label().to_string(),
                    percentile: label.to_string(),
                    scheduler: kind.label().to_string(),
                    tail_ms: tail,
                    relative_tail: relative_tail(baseline_tail, tail),
                });
            }
        }
    }
    rows
}

/// Renders Figure 6 rows as an aligned text table.
pub fn format_figure6(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 6 — Tail response time normalised to Baseline (lower is better)\n");
    out.push_str(&format!(
        "{:<24} {:>9} {:>9} {:>10} {:>10} {:>8} {:>8}\n",
        "Scheduler", "Std-95", "Std-99", "Stress-95", "Stress-99", "RT-95", "RT-99"
    ));
    for kind in SchedulerKind::all() {
        let mut line = format!("{:<24}", kind.label());
        for congestion in ["Standard", "Stress", "Real-time"] {
            for percentile in ["P95", "P99"] {
                let row = rows
                    .iter()
                    .find(|r| {
                        r.scheduler == kind.label()
                            && r.congestion == congestion
                            && r.percentile == percentile
                    })
                    .expect("complete figure 6 matrix");
                line.push_str(&format!(" {:>9.2}", row.relative_tail));
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// Per-application utilization improvement of 3-in-1 bundles (Figure 7, left).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Application short name ("IC", "AN", "3DR", "OF").
    pub app: String,
    /// LUT utilization increase of bundled execution over Little-slot execution, in
    /// percent.
    pub lut_increase_pct: f64,
    /// FF utilization increase, in percent.
    pub ff_increase_pct: f64,
}

/// The task-level detail of Figure 7 (right): LUT utilization of the first three
/// Image Compression tasks and of their 3-in-1 bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Detail {
    /// Task name and its LUT utilization in a Little slot.
    pub task_utilization: Vec<(String, f64)>,
    /// Mean of the individual task utilizations.
    pub average_task_utilization: f64,
    /// LUT utilization of the 3-in-1 bundle in a Big slot.
    pub bundle_utilization: f64,
}

/// Complete Figure 7 output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7 {
    /// Per-application LUT/FF improvements.
    pub rows: Vec<Fig7Row>,
    /// Average LUT improvement over the reported applications (the paper's ~35 %).
    pub mean_lut_increase_pct: f64,
    /// Average FF improvement (the paper's ~29 %).
    pub mean_ff_increase_pct: f64,
    /// The Image Compression task-level detail.
    pub ic_detail: Fig7Detail,
}

/// Regenerates Figure 7 from the synthesis dataset: for every application the paper
/// reports, the relative increase of bundle utilization in a Big slot over the mean
/// task utilization in Little slots, averaged over the application's bundles.
pub fn figure7() -> Fig7 {
    let little = BoardSpec::zcu216_little_capacity();
    let big = little * 2;

    let mut rows = Vec::new();
    for app_kind in BenchmarkApp::figure7_apps() {
        let app = app_kind.spec();
        let mut lut_gains = Vec::new();
        let mut ff_gains = Vec::new();
        for bundle in app.bundles() {
            let member_lut: Vec<f64> = bundle
                .task_range()
                .map(|i| {
                    app.tasks()[i as usize]
                        .little_impl()
                        .utilization_of(&little)
                        .lut
                })
                .collect();
            let member_ff: Vec<f64> = bundle
                .task_range()
                .map(|i| {
                    app.tasks()[i as usize]
                        .little_impl()
                        .utilization_of(&little)
                        .ff
                })
                .collect();
            let avg_lut = member_lut.iter().sum::<f64>() / member_lut.len() as f64;
            let avg_ff = member_ff.iter().sum::<f64>() / member_ff.len() as f64;
            let bundle_util = bundle.big_impl.utilization_of(&big);
            lut_gains.push((bundle_util.lut / avg_lut - 1.0) * 100.0);
            ff_gains.push((bundle_util.ff / avg_ff - 1.0) * 100.0);
        }
        rows.push(Fig7Row {
            app: app_kind.short_name().to_string(),
            lut_increase_pct: lut_gains.iter().sum::<f64>() / lut_gains.len() as f64,
            ff_increase_pct: ff_gains.iter().sum::<f64>() / ff_gains.len() as f64,
        });
    }

    let mean_lut = rows.iter().map(|r| r.lut_increase_pct).sum::<f64>() / rows.len() as f64;
    let mean_ff = rows.iter().map(|r| r.ff_increase_pct).sum::<f64>() / rows.len() as f64;

    let ic = BenchmarkApp::ImageCompression.spec();
    let first_bundle = &ic.bundles()[0];
    let task_utilization: Vec<(String, f64)> = first_bundle
        .task_range()
        .map(|i| {
            let task = &ic.tasks()[i as usize];
            (
                task.name().to_string(),
                task.little_impl().utilization_of(&little).lut,
            )
        })
        .collect();
    let average =
        task_utilization.iter().map(|(_, u)| *u).sum::<f64>() / task_utilization.len() as f64;
    let ic_detail = Fig7Detail {
        average_task_utilization: average,
        bundle_utilization: first_bundle.big_impl.utilization_of(&big).lut,
        task_utilization,
    };

    Fig7 {
        rows,
        mean_lut_increase_pct: mean_lut,
        mean_ff_increase_pct: mean_ff,
        ic_detail,
    }
}

/// Renders Figure 7 as text.
pub fn format_figure7(fig: &Fig7) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 7 — Resource utilization increase of 3-in-1 tasks (percent, higher is better)\n",
    );
    out.push_str(&format!("{:<6} {:>8} {:>8}\n", "App", "LUT", "FF"));
    for row in &fig.rows {
        out.push_str(&format!(
            "{:<6} {:>8.1} {:>8.1}\n",
            row.app, row.lut_increase_pct, row.ff_increase_pct
        ));
    }
    out.push_str(&format!(
        "mean   {:>8.1} {:>8.1}\n",
        fig.mean_lut_increase_pct, fig.mean_ff_increase_pct
    ));
    out.push_str("\nImage Compression detail (LUT utilization):\n");
    for (name, util) in &fig.ic_detail.task_utilization {
        out.push_str(&format!("  {name:<18} {util:.2}\n"));
    }
    out.push_str(&format!(
        "  average individual  {:.2}\n  3-in-1 bundle       {:.2}\n",
        fig.ic_detail.average_task_utilization, fig.ic_detail.bundle_utilization
    ));
    out
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// One sample of the D_switch trace (Figure 8, left).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Sample {
    /// Number of completed applications at the time of the sample.
    pub completed_apps: u64,
    /// D_switch value.
    pub dswitch: f64,
    /// Layout active at the time of the sample.
    pub layout: String,
    /// Whether this sample triggered a cross-board switch.
    pub switched: bool,
}

/// Complete Figure 8 output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8 {
    /// Mean response per cluster mode, in milliseconds.
    pub mean_response_ms: BTreeMap<String, f64>,
    /// Relative response-time reduction versus the Only.Little mode (Figure 8,
    /// right; higher is better).
    pub relative_to_only_little: BTreeMap<String, f64>,
    /// Number of cross-board switches in the switching runs.
    pub switches: u64,
    /// Average switching (migration) overhead in milliseconds.
    pub mean_switch_overhead_ms: f64,
    /// D_switch trace of the first switching workload.
    pub dswitch_trace: Vec<Fig8Sample>,
}

/// Regenerates Figure 8: three long workloads run under the three cluster modes
/// (Only.Little, Only Big.Little, Switching), reporting the D_switch trace, the
/// relative response-time reduction versus Only.Little, and the switching overhead.
pub fn figure8(shape: Shape) -> Fig8 {
    figure8_with(shape, Parallelism::Auto)
}

/// [`figure8`] with an explicit execution mode (the determinism tests compare
/// the two paths).  Like [`run_matrix_with`], the whole (mode × sequence) job
/// matrix goes through one [`parallel_map`] call.
pub fn figure8_with(shape: Shape, parallelism: Parallelism) -> Fig8 {
    let workload = generate_workload(
        &WorkloadConfig::paper_switching().with_shape(shape.sequences, shape.apps_per_sequence),
    );
    let switching_cfg = SwitchingConfig::default();

    let jobs: Vec<(ClusterMode, usize)> = ClusterMode::all()
        .into_iter()
        .flat_map(|mode| (0..workload.sequences.len()).map(move |seq| (mode, seq)))
        .collect();
    let mode_reports = parallel_map(parallelism, &jobs, |&(mode, seq)| {
        run_cluster_sequence(mode, &workload, &workload.sequences[seq], switching_cfg)
    });
    let mut reports: BTreeMap<String, Vec<RunReport>> = BTreeMap::new();
    for (&(mode, _), report) in jobs.iter().zip(mode_reports) {
        reports
            .entry(mode.label().to_string())
            .or_default()
            .push(report);
    }

    let mean_response_ms: BTreeMap<String, f64> = reports
        .iter()
        .map(|(mode, rs)| (mode.clone(), pooled_mean_response_ms(rs)))
        .collect();
    let only_little = mean_response_ms[ClusterMode::OnlyLittle.label()];
    let relative_to_only_little: BTreeMap<String, f64> = mean_response_ms
        .iter()
        .map(|(mode, mean)| (mode.clone(), relative_reduction(only_little, *mean)))
        .collect();

    let switching_reports = &reports[ClusterMode::Switching.label()];
    let switches: u64 = switching_reports.iter().map(|r| r.switches).sum();
    let overheads: Vec<f64> = switching_reports
        .iter()
        .flat_map(|r| r.migrations.iter().map(|m| m.overhead.as_millis_f64()))
        .collect();
    let mean_switch_overhead_ms = if overheads.is_empty() {
        0.0
    } else {
        overheads.iter().sum::<f64>() / overheads.len() as f64
    };
    let dswitch_trace = switching_reports
        .first()
        .map(|r| {
            r.dswitch_trace
                .iter()
                .map(|s| Fig8Sample {
                    completed_apps: s.completed_apps,
                    dswitch: s.value,
                    layout: s.active_layout.to_string(),
                    switched: s.triggered_switch,
                })
                .collect()
        })
        .unwrap_or_default();

    Fig8 {
        mean_response_ms,
        relative_to_only_little,
        switches,
        mean_switch_overhead_ms,
        dswitch_trace,
    }
}

/// Renders Figure 8 as text.
pub fn format_figure8(fig: &Fig8) -> String {
    let mut out = String::new();
    out.push_str("Figure 8 — Cross-board switching (relative response time reduction vs Only.Little, higher is better)\n");
    for mode in ClusterMode::all() {
        let label = mode.label();
        out.push_str(&format!(
            "{:<18} {:>10.2}x   (mean response {:.0} ms)\n",
            label, fig.relative_to_only_little[label], fig.mean_response_ms[label]
        ));
    }
    out.push_str(&format!(
        "switches: {}   mean switching overhead: {:.2} ms\n",
        fig.switches, fig.mean_switch_overhead_ms
    ));
    out.push_str("\nD_switch trace (first switching workload):\n");
    out.push_str("  completed  D_switch  layout         switched\n");
    for sample in &fig.dswitch_trace {
        out.push_str(&format!(
            "  {:>9}  {:>8.4}  {:<13} {}\n",
            sample.completed_apps,
            sample.dswitch,
            sample.layout,
            if sample.switched { "yes" } else { "" }
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Hot-path throughput
// ---------------------------------------------------------------------------

/// Wall-clock throughput of the scheduler hot path (see [`hot_path_throughput`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotPathStats {
    /// Total simulated events processed.
    pub simulated_events: u64,
    /// Wall-clock time of the run, in seconds.
    pub wall_seconds: f64,
    /// Simulated events per wall-clock second — the metric successive PRs track
    /// in `BENCH_hotpath.json`.
    pub events_per_sec: f64,
}

/// Runs one stress-congestion sequence through the VersaSlot Big.Little system on
/// a single thread and reports simulated events per wall-clock second.
///
/// Single-threaded on purpose: the number measures the scheduling loop (the
/// indexed engine queries plus the policy), not the harness fan-out.
pub fn hot_path_throughput() -> HotPathStats {
    hot_path_run(&hot_path_workload())
}

/// The one-sequence stress workload the hot-path numbers are measured on.
///
/// Generated once and reused by the Criterion bench so its timing loop covers
/// only [`hot_path_run`], not workload generation.
pub fn hot_path_workload() -> Workload {
    generate_workload(&WorkloadConfig::paper_default(Congestion::Stress).with_shape(1, 60))
}

/// Runs the first sequence of `workload` through the VersaSlot Big.Little
/// system on a single thread and reports simulated events per wall-clock
/// second.
///
/// Drives [`SharingSimulator::run`] — one scheduling pass per simulation
/// instant; the headline `events_per_sec` in `BENCH_hotpath.json` tracks this
/// loop.
///
/// [`SharingSimulator::run`]: versaslot_core::engine::SharingSimulator::run
pub fn hot_path_run(workload: &Workload) -> HotPathStats {
    let start = Instant::now();
    let report = run_sequence(
        SchedulerKind::VersaSlotBigLittle,
        workload,
        &workload.sequences[0],
    );
    let wall_seconds = start.elapsed().as_secs_f64();
    HotPathStats {
        simulated_events: report.events_processed,
        wall_seconds,
        events_per_sec: report.events_processed as f64 / wall_seconds.max(1e-9),
    }
}

/// The fault-plane overhead control: the same stress sequence as
/// [`hot_path_run`], but with an **empty** fault schedule
/// attached (a default [`FaultProfile`] injects nothing).
///
/// With the schedule empty the engine takes the fault branches — generation
/// tags on completion events, the per-slot acceptance check, the hashed PR
/// outcome draw — without ever injecting a fault, so the gap between this and
/// [`hot_path_run`] is the pure bookkeeping cost of the fault plane.
/// `bench_compare` gates that gap (`fault_overhead_pct`) at 5%.
pub fn fault_noop_hot_path_run(workload: &Workload) -> HotPathStats {
    use versaslot_core::config::SystemConfig;
    use versaslot_core::engine::SharingSimulator;

    let kind = SchedulerKind::VersaSlotBigLittle;
    let mut policy = kind.policy().expect("versaslot is not the baseline");
    let config = SystemConfig::single_board(kind.board()).with_faults(FaultProfile::new(0));
    let mut sim = SharingSimulator::new(
        config,
        workload.suite.clone(),
        &workload.sequences[0].arrivals,
    );
    let start = Instant::now();
    let report = sim.run(policy.as_mut());
    let wall_seconds = start.elapsed().as_secs_f64();
    debug_assert!(sim.fault_stats().is_zero(), "no-op profile injected faults");
    HotPathStats {
        simulated_events: report.events_processed,
        wall_seconds,
        events_per_sec: report.events_processed as f64 / wall_seconds.max(1e-9),
    }
}

// ---------------------------------------------------------------------------
// Service steady-state throughput
// ---------------------------------------------------------------------------

/// The service cell the steady-state numbers are measured on: the VersaSlot
/// Big.Little system under stationary Poisson arrivals at 0.6 apps/s — just
/// under the board's service capacity for the benchmark mix (~1 app/s), so the
/// run is a loaded but stable steady state rather than a growing backlog.
pub fn service_bench_cell() -> ServiceCell {
    ServiceCell {
        scheduler: SchedulerKind::VersaSlotBigLittle,
        process: ArrivalProcess::Poisson { rate_per_sec: 0.6 },
        load: 1.0,
    }
}

/// The non-cell service parameters of the steady-state measurement.  The run
/// stops on a fixed event count, so `simulated_events` is identical across
/// runs and only wall-clock varies.
pub fn service_bench_config() -> ServiceConfig {
    ServiceConfig::new(service_bench_cell().process).with_stop(StopCondition::Events(300_000))
}

/// Runs the service-mode steady state ([`service_bench_cell`]) on a single
/// thread and reports simulated events per wall-clock second — the second
/// metric successive PRs track in `BENCH_hotpath.json`.
///
/// Where [`hot_path_throughput`] measures the per-event scheduling pass over a
/// finite batch, this covers the streaming path: online arrival generation,
/// the inject-one lookahead, app retirement and the constant-memory statistics
/// fold.
pub fn service_steady_state_throughput() -> HotPathStats {
    let cell = service_bench_cell();
    let config = service_bench_config();
    let start = Instant::now();
    let report = run_service_cell(&cell, &config);
    let wall_seconds = start.elapsed().as_secs_f64();
    HotPathStats {
        simulated_events: report.events_processed,
        wall_seconds,
        events_per_sec: report.events_processed as f64 / wall_seconds.max(1e-9),
    }
}

// ---------------------------------------------------------------------------
// Fleet steady-state throughput
// ---------------------------------------------------------------------------

/// The fleet the scale-out numbers are measured on: four VersaSlot Big.Little
/// shards fed by one shared Poisson stream at 2.4 apps/s fleet-wide — the same
/// ~0.6 apps/s per shard as [`service_bench_cell`], so per-shard load matches
/// the single-spine steady state and the aggregate events/s isolates the
/// scale-out factor.  Hash placement, no spillover (the cheapest admission
/// path), 500 s epochs over a fixed simulated horizon so `simulated_events` is
/// identical across runs and only wall-clock varies.
pub fn fleet_bench_config() -> FleetConfig {
    FleetConfig::new(4, ArrivalProcess::Poisson { rate_per_sec: 2.4 })
        .with_horizon(SimDuration::from_secs(10_000))
        .with_epoch(SimDuration::from_secs(500))
        .with_window(SimDuration::from_secs(1_000))
}

/// Runs the fleet steady state ([`fleet_bench_config`]) under
/// [`Parallelism::Auto`] and reports **aggregate** simulated events per
/// wall-clock second across all shards — the scale-out metric tracked in
/// `BENCH_hotpath.json`.  On a multi-core host the shards run concurrently,
/// so this exceeds [`service_steady_state_throughput`]'s single-spine rate;
/// on one core it degrades to roughly the single-spine rate plus barrier
/// overhead.
pub fn fleet_steady_state_throughput() -> HotPathStats {
    let config = fleet_bench_config();
    let start = Instant::now();
    let report = run_fleet(Parallelism::Auto, SchedulerKind::VersaSlotBigLittle, config);
    let wall_seconds = start.elapsed().as_secs_f64();
    HotPathStats {
        simulated_events: report.events_processed,
        wall_seconds,
        events_per_sec: report.events_processed as f64 / wall_seconds.max(1e-9),
    }
}

// ---------------------------------------------------------------------------
// Small-epoch fleet throughput (barrier-overhead stress)
// ---------------------------------------------------------------------------

/// Worker count of the small-epoch barrier measurements.  Forced (rather than
/// `Auto`) so the multi-threaded epoch machinery is exercised even on a
/// single-core CI container — the same device the determinism tests use to
/// force the threaded path.  With 4 shards this spawns one worker per shard.
pub const FLEET_SMALL_EPOCH_WORKERS: usize = 4;

/// The barrier-rate stress configuration: the same fleet as
/// [`fleet_bench_config`] but with epochs two orders of magnitude shorter
/// (2 s instead of 500 s), i.e. 5 000 epoch barriers over the same simulated
/// horizon.  At this rate the pooled path's per-epoch park/unpark rendezvous
/// dominates, which is exactly what the gated
/// `fleet_small_epoch_events_per_sec` metric is meant to expose.
pub fn fleet_small_epoch_config() -> FleetConfig {
    fleet_bench_config().with_epoch(SimDuration::from_secs(2))
}

/// Runs the small-epoch fleet ([`fleet_small_epoch_config`]) on the
/// persistent shard-pinned worker pool at [`FLEET_SMALL_EPOCH_WORKERS`]
/// workers and reports aggregate simulated events per wall-clock second —
/// a metric tracked in `BENCH_hotpath.json`.  Each of the 5 000 epochs costs
/// one atomic-countdown rendezvous.
pub fn fleet_small_epoch_throughput() -> HotPathStats {
    let config = fleet_small_epoch_config();
    let start = Instant::now();
    let report = run_fleet(
        Parallelism::Threads(FLEET_SMALL_EPOCH_WORKERS),
        SchedulerKind::VersaSlotBigLittle,
        config,
    );
    let wall_seconds = start.elapsed().as_secs_f64();
    HotPathStats {
        simulated_events: report.events_processed,
        wall_seconds,
        events_per_sec: report.events_processed as f64 / wall_seconds.max(1e-9),
    }
}

/// The committed benchmark baseline: the hot path, the service-mode steady
/// state, the sharded fleet steady state (plus its small-epoch barrier-stress
/// variant) and the empty-fault-schedule control, tracked together in
/// `BENCH_hotpath.json`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// Simulated events of the hot-path run.
    pub simulated_events: u64,
    /// Wall-clock time of the hot-path run, in seconds.
    pub wall_seconds: f64,
    /// Hot-path throughput (the original gated metric).
    pub events_per_sec: f64,
    /// Simulated events of the service steady-state run.
    pub service_simulated_events: u64,
    /// Wall-clock time of the service steady-state run, in seconds.
    pub service_wall_seconds: f64,
    /// Service steady-state throughput (gated alongside `events_per_sec`).
    pub service_events_per_sec: f64,
    /// Simulated events of the fleet steady-state run, summed over shards.
    pub fleet_simulated_events: u64,
    /// Wall-clock time of the fleet steady-state run, in seconds.
    pub fleet_wall_seconds: f64,
    /// Fleet aggregate throughput (gated alongside `events_per_sec`).
    pub fleet_events_per_sec: f64,
    /// Simulated events of the small-epoch (barrier-stress) fleet run, summed
    /// over shards.
    pub fleet_small_epoch_simulated_events: u64,
    /// Wall-clock time of the small-epoch fleet run, in seconds.
    pub fleet_small_epoch_wall_seconds: f64,
    /// Small-epoch fleet throughput on the persistent worker pool (gated
    /// alongside `events_per_sec`): 5 000 epoch barriers over the standard
    /// fleet horizon, where per-epoch fixed costs dominate.
    pub fleet_small_epoch_events_per_sec: f64,
    /// Simulated events of the empty-fault-schedule control run (identical to
    /// `simulated_events` by the strict-no-op contract).
    pub fault_noop_simulated_events: u64,
    /// Wall-clock time of the empty-fault-schedule control run, in seconds.
    pub fault_noop_wall_seconds: f64,
    /// Empty-fault-schedule throughput; `bench_compare` gates its gap to
    /// `events_per_sec` (`fault_overhead_pct`) at 5%.
    pub fault_noop_events_per_sec: f64,
}

impl BenchBaseline {
    /// Combines the five throughput measurements into the committed format.
    pub fn new(
        hot_path: &HotPathStats,
        service: &HotPathStats,
        fleet: &HotPathStats,
        fleet_small_epoch: &HotPathStats,
        fault_noop: &HotPathStats,
    ) -> Self {
        BenchBaseline {
            simulated_events: hot_path.simulated_events,
            wall_seconds: hot_path.wall_seconds,
            events_per_sec: hot_path.events_per_sec,
            service_simulated_events: service.simulated_events,
            service_wall_seconds: service.wall_seconds,
            service_events_per_sec: service.events_per_sec,
            fleet_simulated_events: fleet.simulated_events,
            fleet_wall_seconds: fleet.wall_seconds,
            fleet_events_per_sec: fleet.events_per_sec,
            fleet_small_epoch_simulated_events: fleet_small_epoch.simulated_events,
            fleet_small_epoch_wall_seconds: fleet_small_epoch.wall_seconds,
            fleet_small_epoch_events_per_sec: fleet_small_epoch.events_per_sec,
            fault_noop_simulated_events: fault_noop.simulated_events,
            fault_noop_wall_seconds: fault_noop.wall_seconds,
            fault_noop_events_per_sec: fault_noop.events_per_sec,
        }
    }
}

/// Path of the committed benchmark baseline at the repository root.
///
/// Shared by the `hot_path` Criterion bench (which refreshes the file) and the
/// `bench_compare` CI gate (which reads it), so the two can never drift onto
/// different files.
pub fn bench_baseline_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json")
}

/// Writes `baseline` to [`bench_baseline_path`] in the committed format.
pub fn write_bench_baseline(baseline: &BenchBaseline) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(baseline).expect("baseline serialises");
    std::fs::write(bench_baseline_path(), format!("{json}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_quick_shape_has_all_cells() {
        let rows = figure5(Shape::quick());
        assert_eq!(rows.len(), 6 * 4);
        // The baseline is its own normalisation, so its factor is exactly 1.
        for row in rows.iter().filter(|r| r.scheduler == "Baseline") {
            assert!((row.relative_reduction - 1.0).abs() < 1e-9);
        }
        // VersaSlot Big.Little beats the baseline under Standard congestion.
        let bl = rows
            .iter()
            .find(|r| r.scheduler == "VersaSlot Big.Little" && r.congestion == "Standard")
            .unwrap();
        assert!(bl.relative_reduction > 1.0);
        assert!(!format_figure5(&rows).is_empty());
    }

    #[test]
    fn figure7_matches_paper_shape() {
        let fig = figure7();
        assert_eq!(fig.rows.len(), 4);
        let get = |name: &str| fig.rows.iter().find(|r| r.app == name).unwrap();
        // IC and AlexNet see large gains; 3DR and Optical Flow only modest ones.
        assert!(get("IC").lut_increase_pct > 35.0);
        assert!(get("AN").lut_increase_pct > 30.0);
        assert!(get("3DR").lut_increase_pct < 15.0);
        assert!(get("OF").lut_increase_pct < 15.0);
        // The IC detail reproduces the 0.57/0.38/0.28 → 0.60 story.
        assert!((fig.ic_detail.bundle_utilization - 0.60).abs() < 0.02);
        assert!((fig.ic_detail.average_task_utilization - 0.41).abs() < 0.02);
        assert!(!format_figure7(&fig).is_empty());
    }

    #[test]
    fn figure8_quick_shape_is_well_formed() {
        let fig = figure8(Shape {
            sequences: 1,
            apps_per_sequence: 30,
        });
        // The Only.Little mode normalises to exactly 1.0 and the other modes stay
        // in a sane range (at this reduced scale the Big.Little advantage the paper
        // reports only emerges under heavier contention — see EXPERIMENTS.md).
        assert!((fig.relative_to_only_little["Only.Little"] - 1.0).abs() < 1e-9);
        assert!(fig.relative_to_only_little["Switching"] >= 0.9);
        assert!(fig.relative_to_only_little["Only Big.Little"] >= 0.8);
        assert!(!fig.dswitch_trace.is_empty());
        assert!(!format_figure8(&fig).is_empty());
    }

    /// Determinism is sacred: a fixed seed must produce a byte-identical report
    /// set regardless of how the harness schedules the jobs.
    #[test]
    fn matrix_is_byte_identical_between_sequential_and_parallel_runs() {
        let shape = Shape::quick();
        let sequential = run_matrix_with(Congestion::Standard, shape, Parallelism::Sequential);
        let parallel = run_matrix_with(Congestion::Standard, shape, Parallelism::Threads(4));
        let auto = run_matrix_with(Congestion::Standard, shape, Parallelism::Auto);
        let serialize =
            |m: &BTreeMap<String, Vec<RunReport>>| serde_json::to_string(m).expect("serialises");
        assert_eq!(serialize(&sequential), serialize(&parallel));
        assert_eq!(serialize(&sequential), serialize(&auto));
    }

    #[test]
    fn same_seed_reproduces_an_identical_matrix_across_runs() {
        let shape = Shape::quick();
        let first = run_matrix_with(Congestion::Stress, shape, Parallelism::Threads(3));
        let second = run_matrix_with(Congestion::Stress, shape, Parallelism::Threads(3));
        assert_eq!(
            serde_json::to_string(&first).expect("serialises"),
            serde_json::to_string(&second).expect("serialises")
        );
    }

    /// The unified (congestion × scheduler × sequence) fan-out must not change
    /// results: Figure 5 is byte-identical between sequential, forced-threaded
    /// and auto execution.
    #[test]
    fn figure5_is_byte_identical_between_sequential_and_parallel_runs() {
        let shape = Shape::quick();
        let sequential = figure5_with(shape, Parallelism::Sequential);
        let threaded = figure5_with(shape, Parallelism::Threads(4));
        let auto = figure5_with(shape, Parallelism::Auto);
        let serialize = |rows: &Vec<Fig5Row>| serde_json::to_string(rows).expect("serialises");
        assert_eq!(serialize(&sequential), serialize(&threaded));
        assert_eq!(serialize(&sequential), serialize(&auto));
    }

    /// Same for Figure 6 (three congestions × two percentiles).
    #[test]
    fn figure6_is_byte_identical_between_sequential_and_parallel_runs() {
        let shape = Shape::quick();
        let sequential = figure6_with(shape, Parallelism::Sequential);
        let threaded = figure6_with(shape, Parallelism::Threads(4));
        let auto = figure6_with(shape, Parallelism::Auto);
        let serialize = |rows: &Vec<Fig6Row>| serde_json::to_string(rows).expect("serialises");
        assert_eq!(serialize(&sequential), serialize(&threaded));
        assert_eq!(serialize(&sequential), serialize(&auto));
    }

    /// The global fan-out regroups per congestion exactly as the per-congestion
    /// matrix API does.
    #[test]
    fn unified_fanout_matches_per_congestion_matrices() {
        let shape = Shape::quick();
        let unified = run_congestion_matrices(
            &[Congestion::Loose, Congestion::Stress],
            shape,
            Parallelism::Auto,
        );
        let loose = run_matrix_with(Congestion::Loose, shape, Parallelism::Sequential);
        let stress = run_matrix_with(Congestion::Stress, shape, Parallelism::Sequential);
        let serialize =
            |m: &BTreeMap<String, Vec<RunReport>>| serde_json::to_string(m).expect("serialises");
        assert_eq!(serialize(&unified[0]), serialize(&loose));
        assert_eq!(serialize(&unified[1]), serialize(&stress));
    }

    #[test]
    fn figure8_is_byte_identical_between_sequential_and_parallel_runs() {
        let shape = Shape {
            sequences: 2,
            apps_per_sequence: 16,
        };
        let sequential = figure8_with(shape, Parallelism::Sequential);
        let parallel = figure8_with(shape, Parallelism::Threads(4));
        assert_eq!(
            serde_json::to_string(&sequential).expect("serialises"),
            serde_json::to_string(&parallel).expect("serialises")
        );
    }

    use versaslot_core::service::{run_service_matrix, service_matrix, ServiceReport};
    use versaslot_sim::SimDuration;

    fn quick_service_cells() -> Vec<ServiceCell> {
        service_matrix(
            &[SchedulerKind::Nimblock, SchedulerKind::VersaSlotBigLittle],
            &[
                ArrivalProcess::Poisson { rate_per_sec: 0.5 },
                ArrivalProcess::Diurnal {
                    base_rate_per_sec: 0.4,
                    amplitude: 0.6,
                    period: SimDuration::from_secs(600),
                },
            ],
            &[0.8, 1.2],
        )
    }

    fn quick_service_base() -> ServiceConfig {
        ServiceConfig::new(ArrivalProcess::Poisson { rate_per_sec: 0.5 })
            .with_stop(StopCondition::Events(3_000))
    }

    /// Service mode inherits the figure harness's determinism contract: a fixed
    /// seed must produce byte-identical reports regardless of how the
    /// (scheduler × process × load) matrix is fanned out.
    #[test]
    fn service_matrix_is_byte_identical_between_sequential_and_parallel_runs() {
        let cells = quick_service_cells();
        let base = quick_service_base();
        let sequential = run_service_matrix(Parallelism::Sequential, &cells, &base);
        let threaded = run_service_matrix(Parallelism::Threads(4), &cells, &base);
        let auto = run_service_matrix(Parallelism::Auto, &cells, &base);
        let serialize =
            |reports: &Vec<ServiceReport>| serde_json::to_string(reports).expect("serialises");
        assert_eq!(serialize(&sequential), serialize(&threaded));
        assert_eq!(serialize(&sequential), serialize(&auto));
    }

    #[test]
    fn same_seed_reproduces_an_identical_service_matrix_across_runs() {
        let cells = quick_service_cells();
        let base = quick_service_base();
        let first = run_service_matrix(Parallelism::Threads(3), &cells, &base);
        let second = run_service_matrix(Parallelism::Threads(3), &cells, &base);
        assert_eq!(
            serde_json::to_string(&first).expect("serialises"),
            serde_json::to_string(&second).expect("serialises")
        );
    }

    /// The steady-state service bench must be a stable, deterministic run: the
    /// fixed stop condition pins `simulated_events` so only wall-clock varies
    /// between measurement runs.
    #[test]
    fn service_bench_configuration_is_valid_and_deterministic() {
        service_bench_config().validate();
        let base = service_bench_config().with_stop(StopCondition::Events(2_000));
        let first = run_service_cell(&service_bench_cell(), &base);
        let second = run_service_cell(&service_bench_cell(), &base);
        assert_eq!(first.events_processed, second.events_processed);
        assert_eq!(first.completions, second.completions);
    }

    #[test]
    fn hot_path_throughput_reports_consistent_numbers() {
        let stats = hot_path_throughput();
        assert!(stats.simulated_events > 0);
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.events_per_sec > 0.0);
        // Two runs simulate the identical event stream (only wall-clock varies).
        assert_eq!(
            stats.simulated_events,
            hot_path_throughput().simulated_events
        );
    }

    /// The fleet bench configuration is valid and, because the run stops on a
    /// fixed simulated horizon, its event count is byte-identical across runs
    /// and parallelism modes — only wall-clock varies in the gated metric.
    #[test]
    fn fleet_bench_configuration_is_valid_and_deterministic() {
        fleet_bench_config().validate();
        // A shortened horizon keeps the debug-mode test quick.
        let config = fleet_bench_config()
            .with_horizon(SimDuration::from_secs(400))
            .with_epoch(SimDuration::from_secs(100));
        let run = |parallelism| {
            let report = run_fleet(parallelism, SchedulerKind::VersaSlotBigLittle, config);
            serde_json::to_string(&report).expect("report serializes")
        };
        let sequential = run(Parallelism::Sequential);
        assert_eq!(sequential, run(Parallelism::Auto));
        assert_eq!(sequential, run(Parallelism::Threads(2)));
    }

    /// The small-epoch barrier-stress measurement runs the exact same
    /// simulation as a sequential run, byte for byte, so its events/s gap to
    /// the fleet steady state is pure barrier overhead.
    #[test]
    fn small_epoch_pooled_and_sequential_paths_are_byte_identical() {
        // A shortened horizon keeps the debug-mode test quick while still
        // crossing many barriers (125 epochs).
        let config = fleet_small_epoch_config().with_horizon(SimDuration::from_secs(250));
        let kind = SchedulerKind::VersaSlotBigLittle;
        let sequential = run_fleet(Parallelism::Sequential, kind, config);
        let pooled = run_fleet(
            Parallelism::Threads(FLEET_SMALL_EPOCH_WORKERS),
            kind,
            config,
        );
        assert_eq!(
            serde_json::to_string(&sequential).expect("serialises"),
            serde_json::to_string(&pooled).expect("serialises")
        );
    }
}
