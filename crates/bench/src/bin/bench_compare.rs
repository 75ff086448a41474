//! CI gate for the scheduler hot path, the service steady state and the
//! sharded fleet engine: rerun the throughput measurements and fail when
//! `events_per_sec` (the hot path), `service_events_per_sec`,
//! `fleet_events_per_sec`, `fleet_small_epoch_events_per_sec` (the pooled
//! barrier-stress run with 100x shorter epochs) or
//! `fault_noop_events_per_sec` regresses more than 15% against the committed
//! `BENCH_hotpath.json`.  Additionally gates `fault_overhead_pct`: an empty
//! fault schedule must not cost the hot path more than 5% events/s.
//!
//! ```text
//! cargo run -p versaslot-bench --release --bin bench_compare           # gate
//! cargo run -p versaslot-bench --release --bin bench_compare -- --update
//! ```
//!
//! `--update` additionally rewrites `BENCH_hotpath.json` with the fresh
//! numbers, which is how a PR commits its refreshed baseline.  Each
//! measurement takes the best of several runs so a single scheduler hiccup on
//! a busy CI machine doesn't fail the gate spuriously.

use std::process::ExitCode;

use versaslot_bench::{
    bench_baseline_path, fault_noop_hot_path_run, fleet_small_epoch_throughput,
    fleet_steady_state_throughput, hot_path_run, hot_path_workload,
    service_steady_state_throughput, write_bench_baseline, BenchBaseline, HotPathStats,
};

/// Relative regression that fails the gate (ROADMAP: "regressions on the
/// scheduler hot path should fail review").  Wide enough to absorb
/// runner-to-runner hardware variance on top of the best-of-N noise floor.
const TOLERANCE: f64 = 0.15;

/// Measurement runs per metric; the best (highest events/sec) one is compared.
const RUNS: usize = 5;

/// Largest tolerated throughput cost of an **empty** fault schedule relative
/// to the plain hot path, in percent.  The fault plane's dormant
/// bookkeeping (generation tags, acceptance checks, the hashed PR outcome
/// draw) must stay effectively free.
const FAULT_OVERHEAD_PCT: f64 = 5.0;

/// Extracts `"<key>": <number>` from the committed baseline.  The file is
/// written by this workspace (see the `hot_path` bench and `--update`), so a
/// targeted scan beats pulling in a whole JSON parser the vendored stub does
/// not provide.  The full quoted key is matched, so `"events_per_sec"` never
/// aliases onto `"service_events_per_sec"`.
fn parse_metric(json: &str, key: &str) -> Option<f64> {
    let quoted = format!("\"{key}\"");
    let rest = &json[json.find(&quoted)? + quoted.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Takes the best of [`RUNS`] measurements of one metric.
fn best_of(label: &str, mut measure: impl FnMut() -> HotPathStats) -> HotPathStats {
    let mut best: Option<HotPathStats> = None;
    for run in 1..=RUNS {
        let stats = measure();
        eprintln!(
            "{label} run {run}/{RUNS}: {} events in {:.1} ms — {:.0} events/s",
            stats.simulated_events,
            stats.wall_seconds * 1e3,
            stats.events_per_sec
        );
        if best.is_none_or(|b| stats.events_per_sec > b.events_per_sec) {
            best = Some(stats);
        }
    }
    best.expect("at least one measurement run")
}

/// Gates one metric against the committed baseline, returning whether it
/// passed.  A missing key is a warn-and-skip (the gate cannot fail on a
/// baseline written before the metric existed); a present key regressing past
/// [`TOLERANCE`] fails.
fn gate_metric(json: &str, key: &str, measured: f64) -> bool {
    match parse_metric(json, key) {
        Some(baseline) => {
            let ratio = measured / baseline;
            println!(
                "{key}: {measured:.0} events/s vs committed {baseline:.0} events/s ({:+.1}%)",
                (ratio - 1.0) * 100.0
            );
            if ratio < 1.0 - TOLERANCE {
                eprintln!(
                    "FAIL: {key} regressed more than {:.0}% — investigate before \
                     merging (or refresh the baseline with --update if the \
                     regression is understood)",
                    TOLERANCE * 100.0
                );
                false
            } else {
                println!("OK: {key} within the {:.0}% gate", TOLERANCE * 100.0);
                true
            }
        }
        None => {
            let path = bench_baseline_path();
            eprintln!("WARN: {path} has no {key} field; skipping that gate");
            true
        }
    }
}

fn main() -> ExitCode {
    let update = std::env::args().any(|arg| arg == "--update");

    let workload = hot_path_workload();
    let hot_path = best_of("hot path", || hot_path_run(&workload));
    let service = best_of("service steady state", service_steady_state_throughput);
    let fleet = best_of("fleet steady state", fleet_steady_state_throughput);
    let fleet_small_epoch = best_of("fleet small-epoch (pooled barriers)", || {
        fleet_small_epoch_throughput()
    });
    let fault_noop = best_of("empty-fault-schedule control", || {
        fault_noop_hot_path_run(&workload)
    });

    // The fault plane with an empty schedule must cost (almost) nothing.
    // Both sides are best-of-N from the same process, so the ratio is a
    // hardware-independent measure of the dormant bookkeeping.
    let fault_overhead_pct = (1.0 - fault_noop.events_per_sec / hot_path.events_per_sec) * 100.0;
    println!(
        "fault_overhead_pct: {fault_overhead_pct:+.2}% \
         (empty schedule {:.0} events/s vs plain {:.0} events/s)",
        fault_noop.events_per_sec, hot_path.events_per_sec
    );
    let fault_overhead_ok = if fault_overhead_pct > FAULT_OVERHEAD_PCT {
        eprintln!(
            "FAIL: the dormant fault plane costs {fault_overhead_pct:.2}% events/s \
             (allowed: {FAULT_OVERHEAD_PCT:.0}%)"
        );
        false
    } else {
        println!("OK: dormant fault plane within the {FAULT_OVERHEAD_PCT:.0}% overhead gate");
        true
    };

    let path = bench_baseline_path();
    let verdict = match std::fs::read_to_string(path) {
        Ok(json) => {
            let hot_ok = gate_metric(&json, "events_per_sec", hot_path.events_per_sec);
            let service_ok = gate_metric(&json, "service_events_per_sec", service.events_per_sec);
            let fleet_ok = gate_metric(&json, "fleet_events_per_sec", fleet.events_per_sec);
            let fleet_small_epoch_ok = gate_metric(
                &json,
                "fleet_small_epoch_events_per_sec",
                fleet_small_epoch.events_per_sec,
            );
            let fault_noop_ok = gate_metric(
                &json,
                "fault_noop_events_per_sec",
                fault_noop.events_per_sec,
            );
            if hot_ok
                && service_ok
                && fleet_ok
                && fleet_small_epoch_ok
                && fault_noop_ok
                && fault_overhead_ok
            {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("WARN: could not read {path} ({err}); skipping the gate");
            if fault_overhead_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    };

    if update {
        match write_bench_baseline(&BenchBaseline::new(
            &hot_path,
            &service,
            &fleet,
            &fleet_small_epoch,
            &fault_noop,
        )) {
            Ok(()) => println!("refreshed {path}"),
            Err(err) => {
                eprintln!("ERROR: could not refresh {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    verdict
}
