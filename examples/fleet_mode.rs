//! Fleet mode: one shared arrival stream scattered over K independent
//! simulator shards, comparing hash placement against least-loaded-snapshot
//! placement with spillover.  Each shard is a full service-mode spine; the
//! fleet report folds their constant-memory accumulators (Welford moments +
//! mergeable log-histogram tails) into fleet-wide percentiles, so the
//! fleet-wide p99 printed below is computed without ever pooling samples.
//!
//! ```text
//! cargo run --release --example fleet_mode
//! ```

use versaslot::core::fleet::{FleetConfig, FleetEngine, FleetReport};
use versaslot::core::par::{Parallelism, WorkerPool};
use versaslot::core::runner::SchedulerKind;
use versaslot::sim::SimDuration;
use versaslot::workload::{ArrivalProcess, Placement};

fn fleet(pool: &WorkerPool, placement: Placement, spillover: bool) -> FleetReport {
    // Four shards sharing one 2.4 apps/s Poisson stream — about 0.6 apps/s
    // per shard, comfortably inside a Big.Little board's capacity but bursty
    // enough that backlog-aware placement has something to smooth out.
    let mut config = FleetConfig::new(4, ArrivalProcess::Poisson { rate_per_sec: 2.4 })
        .with_warmup(SimDuration::from_secs(120))
        .with_horizon(SimDuration::from_secs(7_200))
        .with_epoch(SimDuration::from_secs(300))
        .with_window(SimDuration::from_secs(600))
        .with_placement(placement);
    if spillover {
        // Spillover admission: when the primary shard's backlog snapshot
        // reaches the threshold, the arrival is forwarded to the least-loaded
        // shard and pays a 50 ms forwarding charge instead of queueing behind
        // the burst.
        config = config.with_spillover(4, SimDuration::from_millis(50));
    }
    // All three comparison runs share one persistent pool: the workers are
    // spawned once for the whole example, and within each run every shard
    // stays pinned to its worker across all epoch barriers.
    let mut engine = FleetEngine::new(SchedulerKind::VersaSlotBigLittle, config);
    engine.run_on(pool);
    engine.report()
}

fn print_fleet(label: &str, report: &FleetReport) {
    println!(
        "admission: {:<17}  {} shards, {} epochs, {} arrivals ({} forwarded)",
        label, report.shard_count, report.epochs, report.arrivals_generated, report.forwarded
    );
    println!(
        "  {:<8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "shard", "routed", "measured", "p50 ms", "p99 ms", "events"
    );
    for shard in &report.shards {
        let service = &shard.service;
        match &service.overall {
            Some(overall) => println!(
                "  {:<8} {:>8} {:>10} {:>10.0} {:>10.0} {:>10}",
                format!("#{}", shard.shard),
                shard.routed,
                service.measured_completions,
                overall.p50,
                overall.p99,
                service.events_processed
            ),
            None => println!(
                "  {:<8} {:>8} {:>10} {:>10} {:>10} {:>10}",
                format!("#{}", shard.shard),
                shard.routed,
                service.measured_completions,
                "-",
                "-",
                service.events_processed
            ),
        }
    }
    let overall = report
        .overall
        .as_ref()
        .expect("two simulated hours produce measured completions");
    println!(
        "  {:<8} {:>8} {:>10} {:>10.0} {:>10.0} {:>10}   <- merged accumulators",
        "fleet",
        report.arrivals_generated - report.undelivered,
        report.measured_completions,
        overall.p50,
        overall.p99,
        report.events_processed
    );
    println!();
}

fn main() {
    println!("Fleet mode — per-shard vs fleet-wide tail latency (VersaSlot Big.Little)");
    println!();
    let runs = [
        ("hash", Placement::Hash, false),
        ("hash + spillover", Placement::Hash, true),
        ("least-loaded", Placement::LeastLoaded, false),
    ];
    // One pool for all three runs — sized once from `Parallelism::Auto` for
    // the 4-shard fleets below, spawned before the first run and joined when
    // it drops at the end of `main`.
    let pool = WorkerPool::new(Parallelism::Auto.workers(4));
    for (label, placement, spillover) in runs {
        print_fleet(label, &fleet(&pool, placement, spillover));
    }
    println!(
        "The fleet-wide percentiles come from merging each shard's log-histogram\n\
         tail sketch — the same numbers a metrics pipeline would get by shipping\n\
         one fixed-size sketch per shard per epoch, with no sample pooling."
    );
}
