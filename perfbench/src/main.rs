//! End-to-end and per-layer benchmark of the VersaSlot simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <service_diurnal|fleet_faults|paper_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  Every input is generated in-process from
//! `--seed`.  With `--trace 0` the workload is set up and run repeatedly for
//! `--seconds` of wall time, and the host times are taken from each segment's
//! fastest repetition and the median set-up, scaled to a nominal host speed
//! (see [`report_reps`]); with `--trace 1` one untraced and one traced run give
//! the per-layer metrics.  Both modes check the simulated outputs (see
//! `Report::check`) and print a human-readable table followed by one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `perfbench/README.md` records why each workload was chosen, its latency
//! limit, its default and held-out seeds and what each layer should move.

#![forbid(unsafe_code)]

mod fleet;
mod paper;
mod service;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use versaslot::sim::stats::sorted_percentile;

/// End-to-end metrics printed with `--trace 0`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("apps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_response_mean_ms", "ms"),
    ("sim_response_p50_ms", "ms"),
    ("sim_response_p99_ms", "ms"),
    ("sim_slo_miss_share", "share"),
];

/// Per-layer metrics printed with `--trace 1`, in `BENCHMARK.json` order.  A
/// layer a workload bypasses reports 0.
const PER_LAYER: [(&str, &str); 55] = [
    ("policy.passes", "count"),
    ("policy.self_s", "s"),
    ("policy.ns_per_pass", "ns"),
    ("policy.share", "share"),
    ("policy.productive_share", "share"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.self_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.events_per_pass", "ratio"),
    ("engine.queue_grow_events", "count"),
    ("engine.total_pr", "count"),
    ("engine.blocked_events", "count"),
    ("service.inject_s", "s"),
    ("service.fold_s", "s"),
    ("service.completions", "count"),
    ("service.backlog_end", "count"),
    ("arrival.generated", "count"),
    ("arrival.ns_per_arrival", "ns"),
    ("routing.ns_per_route", "ns"),
    ("routing.forward_share", "share"),
    ("routing.undelivered", "count"),
    ("fleet.epochs", "count"),
    ("fleet.epoch_ms_p50", "ms"),
    ("fleet.epoch_ms_p99", "ms"),
    ("fleet.barrier_s", "s"),
    ("fleet.sequential_s", "s"),
    ("fleet.pooled_s", "s"),
    ("fleet.workers", "count"),
    ("fleet.parallel_efficiency", "ratio"),
    ("fleet.shard_imbalance", "ratio"),
    ("fault.pr_failures", "count"),
    ("fault.pr_retries", "count"),
    ("fault.evictions", "count"),
    ("fault.board_failures", "count"),
    ("fault.cancelled_events", "count"),
    ("fault.link_flaps", "count"),
    ("runner.runs", "count"),
    ("runner.s.baseline", "s"),
    ("runner.s.fcfs", "s"),
    ("runner.s.rr", "s"),
    ("runner.s.nimblock", "s"),
    ("runner.s.versaslot_only_little", "s"),
    ("runner.s.versaslot_big_little", "s"),
    ("runner.s.cluster", "s"),
    ("generator.s", "s"),
    ("migration.switches", "count"),
    ("migration.overhead_ms", "ms"),
    ("sim_speedup_vs_baseline", "ratio"),
    ("sim_speedup_vs_nimblock", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.coverage", "share"),
    ("host.nproc", "count"),
];

/// Set-ups timed per measured repetition for `setup_s`.
const SETUPS_PER_REP: usize = 8;

/// Fewest measured repetitions a `--trace 0` run makes, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

/// Iterations of one host-speed reference sample ([`reference_sample`]).
const REFERENCE_ITERS: u64 = 2_500_000;
/// Host times are reported as they would read on a host on which one
/// reference sample takes this long.
const REFERENCE_NOMINAL_S: f64 = 0.003;
/// Measured time between two reference samples.
const REFERENCE_EVERY_S: f64 = 0.05;

const USAGE: &str = "usage: perfbench --workload <service_diurnal|fleet_faults|paper_sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what} {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !["service_diurnal", "fleet_faults", "paper_sweep"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// One reported metric with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Everything a workload run reports: request accounting, named output
/// checks, and metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Simulated requests generated.
    pub attempted: u64,
    /// Generated requests that fail the accounting identity
    /// (generated = completed + in flight + undelivered).
    pub lost: u64,
    checks: Vec<(String, bool)>,
    metrics: BTreeMap<&'static str, Metric>,
    notes: Vec<String>,
}

impl Report {
    /// Records one named output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        let previous = self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
        assert!(previous.is_none(), "metric {name} reported twice");
    }

    /// Records a per-layer metric; its unit comes from [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(known, _)| *known == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .1;
        self.metric(name, value, unit, 1);
    }

    /// A free-form line printed above the metrics table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the digest of the simulated outputs, so any change that moves
    /// them shows in the output.
    pub fn digest(&mut self, digest: u64) {
        self.note(format!("simulated-output digest: {digest:016x}"));
    }

    fn checks_pass(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    fn print(&self, trace: bool, panicked: bool) {
        for line in &self.notes {
            println!("{line}");
        }
        for (name, ok) in &self.checks {
            println!("check {:<4} {name}", if *ok { "ok" } else { "FAIL" });
        }
        if panicked {
            println!("check FAIL the workload panicked");
        }
        println!(
            "{:<34} {:>18} {:<6} {:>10}",
            "metric", "value", "unit", "samples"
        );
        for (name, m) in &self.metrics {
            println!(
                "{name:<34} {:>18.6} {:<6} {:>10}",
                m.value, m.unit, m.samples
            );
        }

        let attempted = self.attempted.max(1);
        let correct = !panicked && self.checks_pass() && self.lost == 0;
        let failed = if !panicked && self.checks_pass() {
            self.lost
        } else {
            attempted
        };
        println!(
            "{:<34} {:>18.6} {:<6} {:>10}",
            "failed_share",
            failed as f64 / attempted as f64,
            "share",
            attempted
        );
        let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in wanted {
            let value = match self.metrics.get(name) {
                Some(m) => m.value,
                // Per-layer metrics of a bypassed layer are 0; a missing
                // end-to-end metric only happens after a panic.
                None if trace || panicked => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            fields.join(", ")
        );
    }
}

/// One host-speed reference sample: the wall time of a serial chain of
/// integer multiply-xor-adds.  It lives here, not in the simulator, so no
/// change to the simulator moves it.
fn reference_sample() -> f64 {
    let start = Instant::now();
    let n = std::hint::black_box(REFERENCE_ITERS);
    let mut x = 0u64;
    for i in 0..n {
        x = x.wrapping_add(i.wrapping_mul(i) ^ (x >> 3));
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// Segment clock of one measured repetition: the workload calls
/// [`Laps::lap`] at the end of every segment of its measured path (a block of
/// epochs, a stretch of simulated time, one sequence run), so the same input
/// always splits into the same segments.  Laps made by [`repeat`] also take a
/// reference sample after every [`REFERENCE_EVERY_S`] of measured time,
/// outside the segments.
pub struct Laps {
    last: Instant,
    secs: Vec<f64>,
    /// Measured time since the last reference sample, when sampling.
    since_reference: Option<f64>,
    reference_s: Vec<f64>,
}

impl Laps {
    /// Laps that take no reference samples.
    pub fn start() -> Self {
        Laps {
            last: Instant::now(),
            secs: Vec::new(),
            since_reference: None,
            reference_s: Vec::new(),
        }
    }

    /// Laps whose first segment is followed by a reference sample.
    fn sampling() -> Self {
        Laps {
            since_reference: Some(REFERENCE_EVERY_S),
            ..Laps::start()
        }
    }

    /// Ends the current segment and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        let secs = (now - self.last).as_secs_f64();
        self.secs.push(secs);
        self.last = now;
        if let Some(since) = self.since_reference.as_mut() {
            *since += secs;
            if *since >= REFERENCE_EVERY_S {
                *since = 0.0;
                self.reference_s.push(reference_sample());
                self.last = Instant::now();
            }
        }
    }
}

/// The measured repetitions of a `--trace 0` run.
pub struct Reps<S, O> {
    /// Wall time of each measured repetition.
    pub run_s: Vec<f64>,
    /// Fastest time of each segment over all repetitions.
    pub segment_min_s: Vec<f64>,
    /// Applications each repetition completed (the input is fixed, so this
    /// is the same number every time).
    pub apps: u64,
    /// Wall time of every timed set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of every reference sample.
    pub reference_s: Vec<f64>,
    /// The first repetition's state and output, kept for the checks.
    pub first: (S, O),
    /// Whether every repetition had the first one's segments and digest.
    pub identical: bool,
}

/// Sets up and runs a workload until `seconds` of wall time have passed (and
/// at least [`MIN_REPS`] times).  Each repetition times [`SETUPS_PER_REP`]
/// set-ups and measures the last.  `measure` laps its segments, and returns
/// the applications it completed and its output.  `digest` summarises an
/// output outside the timed region, and only the first state and output are
/// kept.
pub fn repeat<S, O>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut measure: impl FnMut(&mut S, &mut Laps) -> (u64, O),
    digest: impl Fn(&O) -> u64,
) -> Reps<S, O> {
    let started = Instant::now();
    let (mut run_s, mut setup_s, mut reference_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut segment_min_s: Vec<f64> = Vec::new();
    let mut first: Option<(S, O, u64)> = None;
    let mut identical = true;
    let mut apps_seen = None;
    while run_s.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let mut state = None;
        for _ in 0..SETUPS_PER_REP {
            drop(state.take());
            let start = Instant::now();
            state = Some(std::hint::black_box(setup()));
            setup_s.push(start.elapsed().as_secs_f64());
        }
        let mut state = state.expect("at least one set-up per repetition");
        let mut laps = Laps::sampling();
        let (apps, output) = measure(&mut state, &mut laps);
        assert!(!laps.secs.is_empty(), "the measured path laps its segments");
        run_s.push(laps.secs.iter().sum());
        reference_s.append(&mut laps.reference_s);
        if segment_min_s.is_empty() {
            segment_min_s = laps.secs;
        } else {
            identical &= segment_min_s.len() == laps.secs.len();
            for (min, &secs) in segment_min_s.iter_mut().zip(&laps.secs) {
                *min = min.min(secs);
            }
        }
        let output_digest = digest(&output);
        identical &= *apps_seen.get_or_insert(apps) == apps;
        match &first {
            None => first = Some((state, output, output_digest)),
            Some((_, _, d)) => identical &= *d == output_digest,
        }
    }
    let (state, output, _) = first.expect("at least one repetition");
    Reps {
        run_s,
        segment_min_s,
        apps: apps_seen.expect("at least one repetition"),
        setup_s,
        reference_s,
        first: (state, output),
        identical,
    }
}

/// Records the host-time end-to-end metrics of a `--trace 0` run and checks
/// that every repetition produced the same segments and simulated output.
///
/// This host is shared, and its speed moves in two ways.  Load from other
/// tenants comes in episodes of a few seconds that slow everything 1.5-2x;
/// a segment lasts tens of milliseconds, so over many repetitions each
/// segment is almost surely caught at least once outside an episode, where a
/// whole repetition often is not.  So the run time is the sum over segments
/// of each segment's fastest time.  Under that, the speed of the host's
/// fastest state drifts by 15-30% over minutes, and the fastest reference
/// sample drifts with it (their ratio held within 2% over four minutes, while
/// either alone moved 14%).  So host times are scaled by
/// [`REFERENCE_NOMINAL_S`] / fastest reference sample: they read as on a host
/// on which a reference sample takes [`REFERENCE_NOMINAL_S`].  `setup_s` is
/// the median set-up, scaled the same way.  The raw times are printed
/// alongside.
pub fn report_reps<S, O>(report: &mut Report, reps: &Reps<S, O>) {
    let n = reps.run_s.len() as u64;
    let fastest = |samples: &[f64]| samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let reference_s = fastest(&reps.reference_s);
    let scale = REFERENCE_NOMINAL_S / reference_s;
    let fastest_run_s: f64 = reps.segment_min_s.iter().sum();
    let setup_s = median(&mut reps.setup_s.clone());
    report.metric(
        "apps_per_s",
        reps.apps as f64 / (fastest_run_s * scale),
        "1/s",
        n,
    );
    report.metric("setup_s", setup_s * scale, "s", reps.setup_s.len() as u64);
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    report.note(format!(
        "host speed: fastest of {} reference samples {reference_s:.6} s (nominal \
         {REFERENCE_NOMINAL_S} s), host times scaled by {scale:.4}",
        reps.reference_s.len()
    ));
    report.note(format!(
        "segments: {} per repetition, sum of per-segment fastest {fastest_run_s:.6} s \
         (raw {:.3} apps/s); median set-up {setup_s:.6} s raw",
        reps.segment_min_s.len(),
        reps.apps as f64 / fastest_run_s,
    ));
    for (what, samples) in [
        ("run_s", &reps.run_s),
        ("setup_s", &reps.setup_s),
        ("reference_s", &reps.reference_s),
    ] {
        report.note(format!(
            "{what}: {} samples, fastest {:.6}, median {:.6}, slowest {:.6}",
            samples.len(),
            fastest(samples),
            median(&mut samples.clone()),
            samples.iter().cloned().fold(0.0, f64::max),
        ));
    }
    report.check(
        "every repetition produced identical segments and simulated output",
        reps.identical,
    );
}

/// Records the tracing totals of a `--trace 1` run: traced wall time, the
/// untraced wall time of the same work, and the share of traced wall time the
/// layer spans cover.
pub fn report_trace(report: &mut Report, wall_s: f64, untraced_s: f64, covered_s: f64) {
    let coverage = covered_s / wall_s;
    report.layer("trace.wall_s", wall_s);
    report.layer("trace.untraced_s", untraced_s);
    report.layer("trace.overhead_share", wall_s / untraced_s - 1.0);
    report.layer("trace.coverage", coverage);
    report.layer("host.nproc", nproc() as f64);
    report.check(
        "layer spans cover at least 95% of traced wall time",
        coverage >= 0.95,
    );
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of unsorted values.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    sorted_percentile(values, q).expect("percentile of nothing")
}

/// High-water mark of this process's resident memory, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Exact response-time statistics of one workload's measured requests.
pub struct Responses {
    /// Response times (ms) of the measured completions.
    pub completed_ms: Vec<f64>,
    /// Mean response of the completions, as the simulator's own accumulator
    /// computed it.
    pub mean_ms: f64,
    /// Measured requests still in flight when the run ended.
    pub in_flight: u64,
    /// Of those, requests already older than the latency limit.
    pub in_flight_late: u64,
}

impl Responses {
    /// Records the `sim_*` end-to-end metrics against `limit_ms`.
    pub fn report(mut self, report: &mut Report, limit_ms: f64) {
        let n = self.completed_ms.len() as u64;
        assert!(n > 0, "no measured completions");
        let misses = self
            .completed_ms
            .iter()
            .filter(|&&ms| ms > limit_ms)
            .count() as u64
            + self.in_flight_late;
        let judged = n + self.in_flight;
        report.metric("sim_response_mean_ms", self.mean_ms, "ms", n);
        report.metric(
            "sim_response_p50_ms",
            percentile(&mut self.completed_ms, 0.50),
            "ms",
            n,
        );
        // The p99 is only reported with at least 1,000 completions behind it.
        report.check("at least 1000 completions back the p99", n >= 1_000);
        report.metric(
            "sim_response_p99_ms",
            percentile(&mut self.completed_ms, 0.99),
            "ms",
            n,
        );
        report.metric(
            "sim_slo_miss_share",
            misses as f64 / judged as f64,
            "share",
            judged,
        );
        report.note(format!(
            "latency limit {limit_ms} ms: {misses} of {judged} requests missed it \
             ({} still in flight, {} of them late); p90 {:.1} ms, p95 {:.1} ms",
            self.in_flight,
            self.in_flight_late,
            percentile(&mut self.completed_ms, 0.90),
            percentile(&mut self.completed_ms, 0.95),
        ));
    }
}

/// FNV-1a over a byte stream: a stable digest of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Digest of a value's JSON serialization.
    pub fn json(&mut self, json: Result<String, serde_json::Error>) {
        self.bytes(json.expect("output serializes").as_bytes());
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64 of `seed ^ salt`: derives independent per-purpose seeds from
/// the one `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = (seed ^ salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Host context, printed with every result: fleet numbers from hosts with
/// different core counts must never be compared silently.
fn host_context() -> String {
    let revision = if Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    } else {
        "unknown (not a git checkout)".to_string()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host: nproc={} fleet_workers={} fleet_pool_workers={} profile={profile} \
         revision={revision} source_digest={:016x}",
        nproc(),
        fleet::WORKERS,
        fleet::pool_workers(),
        source_digest(),
    )
}

/// Digest of the simulator's sources, so a result names the code it measured
/// even outside a git checkout.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|ext| ext == "rs" || ext == "toml")
            {
                files.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut digest = Digest::default();
    for file in files {
        digest.bytes(file.to_string_lossy().as_bytes());
        digest.bytes(&std::fs::read(&file).unwrap_or_default());
    }
    digest.finish()
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_context());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        match (args.workload.as_str(), args.trace) {
            ("service_diurnal", false) => service::run(&args, &mut report),
            ("service_diurnal", true) => service::run_traced(&args, &mut report),
            ("fleet_faults", false) => fleet::run(&args, &mut report),
            ("fleet_faults", true) => fleet::run_traced(&args, &mut report),
            ("paper_sweep", false) => paper::run(&args, &mut report),
            ("paper_sweep", true) => paper::run_traced(&args, &mut report),
            _ => unreachable!("workload names are validated by Args::parse"),
        }
    }));
    report.print(args.trace, outcome.is_err());
    ExitCode::SUCCESS
}
