//! Policy robustness under a deterministic fault storm.
//!
//! The fault plane injects seeded, replayable failures into the engine:
//! transient partial-reconfiguration failures retried with capped exponential
//! backoff, Aurora link flaps that stall migrations and forwards, and whole
//! board outages (MTTF/MTTR) that evict every occupant for re-placement.
//! This example runs every sharing policy through two fault scenarios — a PR
//! failure storm and repeated board outages — against its own fault-free
//! baseline, and ranks the policies by how gracefully they degrade
//! (goodput retained divided by p99 inflation).
//!
//! The whole grid is deterministic: same seeds, same ranking, byte-identical
//! reports on every run and parallelism mode.
//!
//! ```text
//! cargo run --release --example fault_storm
//! ```

use versaslot::core::fault::{format_robustness, run_robustness_matrix, FaultScenario};
use versaslot::core::par::Parallelism;
use versaslot::core::runner::SchedulerKind;
use versaslot::core::service::{ServiceConfig, StopCondition};
use versaslot::sim::fault::FaultProfile;
use versaslot::sim::SimDuration;
use versaslot::workload::ArrivalProcess;

fn main() {
    let schedulers = [
        SchedulerKind::Fcfs,
        SchedulerKind::RoundRobin,
        SchedulerKind::Nimblock,
        SchedulerKind::VersaSlotBigLittle,
    ];
    let processes = [ArrivalProcess::Poisson { rate_per_sec: 0.6 }];
    let loads = [0.8, 1.2];
    let scenarios = [
        // One in twelve reconfigurations fails at the PCAP and is retried
        // with 0.5 ms..8 ms exponential backoff.
        FaultScenario::new(
            "pr-storm",
            FaultProfile::new(2025).with_pr_failures(1.0 / 12.0),
        ),
        // The board dies about every two simulated minutes and takes ten
        // seconds to repair; every occupant is evicted and re-placed.
        FaultScenario::new(
            "board-outages",
            FaultProfile::new(2026)
                .with_board_failures(SimDuration::from_secs(120), SimDuration::from_secs(10)),
        ),
    ];
    let base = ServiceConfig::new(processes[0])
        .with_warmup(SimDuration::from_secs(60))
        .with_stop(StopCondition::Events(40_000));

    let report = run_robustness_matrix(
        Parallelism::Auto,
        &schedulers,
        &processes,
        &loads,
        &scenarios,
        &base,
    )
    .expect("the storm's cells and scenarios are valid");

    println!("== policy robustness under fault storms ==");
    println!(
        "{} cells: {} schedulers x {} loads x {} fault scenarios (vs fault-free baselines)",
        report.cells.len(),
        schedulers.len(),
        loads.len(),
        scenarios.len(),
    );
    println!();
    print!("{}", format_robustness(&report));

    // The storm is deterministic: re-running the whole grid sequentially must
    // reproduce every byte.
    let again = run_robustness_matrix(
        Parallelism::Sequential,
        &schedulers,
        &processes,
        &loads,
        &scenarios,
        &base,
    )
    .expect("the storm's cells and scenarios are valid");
    assert_eq!(report, again, "fault storm must be replayable");
    println!();
    println!("replay check: sequential re-run reproduced the grid exactly");
}
