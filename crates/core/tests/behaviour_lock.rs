//! Behaviour lock: committed digests of serialized simulator outputs.
//!
//! Every case below runs a deterministic scenario and hashes the JSON of what
//! it produced — the `RunReport` plus the full recorded event trace for the
//! paper-shaped runs, the `ServiceReport` for service runs and the
//! `FleetReport` for the faulted fleet.  The digests in
//! `behaviour_lock.digests` were recorded from the always-pass engine (one
//! policy pass at every simulation instant); an engine optimisation that
//! claims to be exact must reproduce every one of them byte for byte.
//!
//! The cases cover every `SchedulerKind` at all four congestion levels over
//! several workload seeds, the Figure 8 cluster modes (plus a switching
//! cluster with thresholds low enough to switch back and forth, with and
//! without PR faults and link flaps), a VersaSlot service run, a backlogged
//! Nimblock service run, faulted single-board service runs and a faulted,
//! spilling fleet over several fault seeds.
//!
//! On a mismatch the test prints the full table of current digests, in the
//! file's format.  Regenerate the file only for an intended behaviour change,
//! and say why in the same commit.

use serde::Serialize;
use versaslot_core::config::{SwitchingConfig, SystemConfig};
use versaslot_core::dswitch::SwitchThresholds;
use versaslot_core::engine::SharingSimulator;
use versaslot_core::fleet::{FleetConfig, FleetEngine};
use versaslot_core::par::Parallelism;
use versaslot_core::runner::{run_sequence, ClusterMode, SchedulerKind};
use versaslot_core::service::{ServiceConfig, ServiceRunner, StopCondition};
use versaslot_fpga::board::BoardSpec;
use versaslot_sim::fault::FaultProfile;
use versaslot_sim::SimDuration;
use versaslot_workload::benchmarks::BenchmarkApp;
use versaslot_workload::{generate_workload, ArrivalProcess, Congestion, WorkloadConfig};

const DIGESTS: &str = include_str!("behaviour_lock.digests");

/// FNV-1a over the serialized bytes: stable across platforms and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest<T: Serialize>(value: &T) -> String {
    let json = serde_json::to_string(value).expect("outputs serialise");
    format!("{:016x}", fnv1a(json.as_bytes()))
}

/// A case name without spaces (the digest file is `name digests` per line).
fn slug(label: &str) -> String {
    label.replace(' ', "-")
}

/// Runs every sequence of `workload_config` on `config` under `kind`'s policy
/// with the event trace recorded.  Returns the digests of each report
/// together with its trace events, comma-joined, and the total number of
/// cross-board switches.
fn traced_runs(
    config: &SystemConfig,
    kind: SchedulerKind,
    workload_config: WorkloadConfig,
) -> (String, u64) {
    let workload = generate_workload(&workload_config);
    let mut switches = 0;
    let digests: Vec<String> = workload
        .sequences
        .iter()
        .map(|sequence| {
            let mut policy = kind.policy().expect("sharing scheduler");
            let mut sim = SharingSimulator::new(
                config.clone().with_trace(),
                workload.suite.clone(),
                &sequence.arrivals,
            );
            let report = sim.run(policy.as_mut());
            switches += report.switches;
            digest(&(&report, sim.trace().events()))
        })
        .collect();
    (digests.join(","), switches)
}

fn paper_cases(out: &mut Vec<(String, String)>) {
    for seed in [0x5EED_2025, 7, 1001] {
        for congestion in Congestion::all() {
            let workload_config = WorkloadConfig::paper_default(congestion)
                .with_seed(seed)
                .with_shape(2, 14);
            for kind in SchedulerKind::all() {
                let name = format!(
                    "paper/{}/{}/seed-{seed}",
                    slug(kind.label()),
                    congestion.label()
                );
                let digests = if kind == SchedulerKind::Baseline {
                    let workload = generate_workload(&workload_config);
                    let digests: Vec<String> = workload
                        .sequences
                        .iter()
                        .map(|sequence| digest(&run_sequence(kind, &workload, sequence)))
                        .collect();
                    digests.join(",")
                } else {
                    let config = SystemConfig::single_board(kind.board());
                    traced_runs(&config, kind, workload_config).0
                };
                out.push((name, digests));
            }
        }
    }
}

fn cluster_config(mode: ClusterMode, switching: SwitchingConfig) -> SystemConfig {
    match mode {
        ClusterMode::OnlyLittle => SystemConfig::single_board(BoardSpec::zcu216_only_little()),
        ClusterMode::OnlyBigLittle => SystemConfig::single_board(BoardSpec::zcu216_big_little()),
        ClusterMode::Switching => SystemConfig::switching_cluster(
            BoardSpec::zcu216_only_little(),
            BoardSpec::zcu216_big_little(),
        )
        .with_switching(switching),
    }
}

fn cluster_cases(out: &mut Vec<(String, String)>) {
    let workload_config = WorkloadConfig::paper_switching().with_shape(2, 40);
    for mode in ClusterMode::all() {
        let config = cluster_config(mode, SwitchingConfig::default());
        let (digests, _) = traced_runs(&config, SchedulerKind::VersaSlotBigLittle, workload_config);
        out.push((format!("cluster/{}", slug(mode.label())), digests));
    }

    // Thresholds inside the observed D_switch range, so the cluster switches
    // both ways and apps drain onto their home board after a switch.
    let eager = SwitchingConfig {
        thresholds: SwitchThresholds::new(0.03, 0.02),
        ..SwitchingConfig::default()
    };
    for congestion in [Congestion::Standard, Congestion::Stress] {
        let workload_config = WorkloadConfig::paper_default(congestion).with_shape(2, 30);
        let faults = FaultProfile::new(41)
            .with_pr_failures(0.08)
            .with_link_flaps(0.5, SimDuration::from_millis(200));
        let clean = cluster_config(ClusterMode::Switching, eager);
        let faulted = clean.clone().with_faults(faults);
        for (variant, config) in [
            ("eager-switching", clean),
            ("eager-switching-faults", faulted),
        ] {
            let (digests, switches) =
                traced_runs(&config, SchedulerKind::VersaSlotBigLittle, workload_config);
            assert!(switches >= 2, "{variant}: only {switches} switches");
            out.push((format!("cluster/{variant}/{}", congestion.label()), digests));
        }
    }
}

fn service_run(kind: SchedulerKind, system: SystemConfig, config: ServiceConfig) -> String {
    let faulted = system.faults.is_some();
    let mut policy = kind.policy().expect("sharing scheduler");
    let mut runner = ServiceRunner::new(system, BenchmarkApp::suite(), config);
    let report = runner.run(policy.as_mut());
    let faults = runner.fault_stats();
    assert_eq!(faulted, faults.board_failures > 0, "{}", kind.label());
    digest(&(&report, faults))
}

fn service_cases(out: &mut Vec<(String, String)>) {
    let diurnal = ArrivalProcess::Diurnal {
        base_rate_per_sec: 0.6,
        amplitude: 0.5,
        period: SimDuration::from_secs(900),
    };
    let base = ServiceConfig::new(diurnal)
        .with_seed(3)
        .with_warmup(SimDuration::from_secs(60))
        .with_stop(StopCondition::Events(40_000));
    let kind = SchedulerKind::VersaSlotBigLittle;
    out.push((
        "service/VersaSlot-Big.Little/diurnal".to_string(),
        service_run(kind, SystemConfig::single_board(kind.board()), base),
    ));

    // 0.5 apps/s is past Nimblock's capacity: the backlog (and the active
    // set every pass walks) grows for the whole run.
    let backlogged = ServiceConfig::new(ArrivalProcess::Poisson { rate_per_sec: 0.5 })
        .with_seed(5)
        .with_stop(StopCondition::Events(25_000));
    let kind = SchedulerKind::Nimblock;
    out.push((
        "service/Nimblock/backlogged".to_string(),
        service_run(kind, SystemConfig::single_board(kind.board()), backlogged),
    ));

    let poisson = ServiceConfig::new(ArrivalProcess::Poisson { rate_per_sec: 0.6 })
        .with_seed(9)
        .with_stop(StopCondition::Events(15_000));
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::RoundRobin,
        SchedulerKind::Nimblock,
        SchedulerKind::VersaSlotBigLittle,
    ] {
        let faults = FaultProfile::new(17)
            .with_pr_failures(0.1)
            .with_board_failures(SimDuration::from_secs(90), SimDuration::from_secs(8));
        let system = SystemConfig::single_board(kind.board()).with_faults(faults);
        out.push((
            format!("service/{}/faulted", slug(kind.label())),
            service_run(kind, system, poisson),
        ));
    }
}

fn fleet_cases(out: &mut Vec<(String, String)>) {
    for fault_seed in [1, 2, 3] {
        let faults = FaultProfile::new(fault_seed)
            .with_pr_failures(0.05)
            .with_board_failures(SimDuration::from_secs(120), SimDuration::from_secs(10))
            .with_link_flaps(0.05, SimDuration::from_secs(1));
        let config = FleetConfig::new(3, ArrivalProcess::Poisson { rate_per_sec: 1.8 })
            .with_seed(fault_seed * 101)
            .with_horizon(SimDuration::from_secs(900))
            .with_epoch(SimDuration::from_secs(10))
            .with_window(SimDuration::from_secs(300))
            .with_spillover(6, SimDuration::from_millis(50))
            .with_faults(faults);
        let mut engine = FleetEngine::new(SchedulerKind::VersaSlotBigLittle, config);
        engine.run(Parallelism::Sequential);
        assert!(engine.fault_stats().board_failures > 0);
        out.push((
            format!("fleet/faults/seed-{fault_seed}"),
            digest(&(&engine.report(), engine.fault_stats())),
        ));
    }
}

#[test]
fn engine_reproduces_the_committed_behaviour_lock() {
    let mut current = Vec::new();
    paper_cases(&mut current);
    cluster_cases(&mut current);
    service_cases(&mut current);
    fleet_cases(&mut current);

    let table: String = current
        .iter()
        .map(|(name, digests)| format!("{name} {digests}\n"))
        .collect();
    let committed: Vec<(&str, &str)> = DIGESTS
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.split_once(' ').expect("`name digests` lines"))
        .collect();
    let mismatched: Vec<&str> = current
        .iter()
        .filter(|(name, digests)| !committed.contains(&(name.as_str(), digests.as_str())))
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        mismatched.is_empty() && committed.len() == current.len(),
        "behaviour lock broken ({} of {} cases differ: {mismatched:?}); current digests:\n{table}",
        mismatched.len(),
        current.len(),
    );
}
