//! Hot-path benchmark: one stress-congestion sequence through the sharing
//! simulator (plain, and with an empty fault schedule attached), plus the
//! service-mode steady state and the sharded fleet engine (standard and
//! small-epoch barrier-stress variants), tracking simulated events per
//! wall-clock second for all of them.
//!
//! Besides printing Criterion-style samples, the bench writes
//! `BENCH_hotpath.json` at the repository root so successive PRs can follow
//! the scheduler hot-path and service steady-state trajectories.

use criterion::{criterion_group, criterion_main, Criterion};
use versaslot_bench::{
    bench_baseline_path, fault_noop_hot_path_run, fleet_small_epoch_throughput,
    fleet_steady_state_throughput, hot_path_run, hot_path_workload,
    service_steady_state_throughput, write_bench_baseline, BenchBaseline,
};

fn bench_hot_path(c: &mut Criterion) {
    let workload = hot_path_workload();
    let stats = hot_path_run(&workload);
    eprintln!(
        "\nhot path: {} simulated events in {:.1} ms — {:.0} events/s",
        stats.simulated_events,
        stats.wall_seconds * 1e3,
        stats.events_per_sec
    );
    let service = service_steady_state_throughput();
    eprintln!(
        "service steady state: {} simulated events in {:.1} ms — {:.0} events/s",
        service.simulated_events,
        service.wall_seconds * 1e3,
        service.events_per_sec
    );
    let fleet = fleet_steady_state_throughput();
    eprintln!(
        "fleet steady state: {} simulated events in {:.1} ms — {:.0} events/s",
        fleet.simulated_events,
        fleet.wall_seconds * 1e3,
        fleet.events_per_sec
    );
    let fleet_small_epoch = fleet_small_epoch_throughput();
    eprintln!(
        "fleet small-epoch (pooled barriers): {} simulated events in {:.1} ms — {:.0} events/s",
        fleet_small_epoch.simulated_events,
        fleet_small_epoch.wall_seconds * 1e3,
        fleet_small_epoch.events_per_sec
    );
    let fault_noop = fault_noop_hot_path_run(&workload);
    eprintln!(
        "empty-fault-schedule control: {} simulated events in {:.1} ms — {:.0} events/s",
        fault_noop.simulated_events,
        fault_noop.wall_seconds * 1e3,
        fault_noop.events_per_sec
    );
    if let Err(err) = write_bench_baseline(&BenchBaseline::new(
        &stats,
        &service,
        &fleet,
        &fleet_small_epoch,
        &fault_noop,
    )) {
        eprintln!("could not write {}: {err}", bench_baseline_path());
    }

    let mut group = c.benchmark_group("hot_path");
    group.sample_size(10);
    group.bench_function("hot_path", |b| {
        // The workload is pre-generated: only the simulation run is timed.
        b.iter(|| hot_path_run(&workload).simulated_events);
    });
    group.bench_function("service_steady_state", |b| {
        b.iter(|| service_steady_state_throughput().simulated_events);
    });
    group.bench_function("fleet_steady_state", |b| {
        b.iter(|| fleet_steady_state_throughput().simulated_events);
    });
    group.bench_function("fleet_small_epoch", |b| {
        b.iter(|| fleet_small_epoch_throughput().simulated_events);
    });
    group.bench_function("fault_noop_control", |b| {
        b.iter(|| fault_noop_hot_path_run(&workload).simulated_events);
    });
    group.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
