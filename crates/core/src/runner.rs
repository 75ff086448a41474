//! Experiment runners.
//!
//! The evaluation compares six systems (Figure 5/6) and three cluster running
//! modes (Figure 8).  [`SchedulerKind`] names the six systems and maps each to the
//! board configuration and policy it runs with; [`run_sequence`] simulates one
//! workload sequence under one system and [`run_workload`] does so for a whole
//! generated workload.  [`ClusterMode`] and [`run_cluster_sequence`] cover the
//! cross-board switching experiment.
//!
//! Every simulator these runners construct starts pre-sized:
//! [`SharingSimulator::new`] derives an event-queue capacity from the arrival
//! count and the board's slot count
//! ([`SharingSimulator::event_queue_capacity`]), so a steady-state run never
//! allocates on the event path — see `steady_state_runs_start_pre_sized` in
//! this module's tests.

use serde::{Deserialize, Serialize};
use versaslot_fpga::board::BoardSpec;
use versaslot_fpga::cpu::CoreAssignment;
use versaslot_workload::{Workload, WorkloadSequence};

use crate::baseline::run_baseline;
use crate::config::{SwitchingConfig, SystemConfig};
use crate::engine::SharingSimulator;
use crate::metrics::RunReport;
use crate::par::{parallel_map, Parallelism};
use crate::policy::fcfs::FcfsPolicy;
use crate::policy::nimblock::NimblockPolicy;
use crate::policy::round_robin::RoundRobinPolicy;
use crate::policy::versaslot::VersaSlotPolicy;
use crate::policy::Policy;

/// The six systems compared in Figures 5 and 6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Exclusive whole-FPGA temporal multiplexing (full reconfiguration per app).
    Baseline,
    /// First-come-first-served spatio-temporal sharing (single-core).
    Fcfs,
    /// Round-robin spatio-temporal sharing (single-core).
    RoundRobin,
    /// Nimblock-style priority scheduling on uniform slots (single-core).
    Nimblock,
    /// VersaSlot on an `Only.Little` board (dual-core, uniform slots).
    VersaSlotOnlyLittle,
    /// VersaSlot on a `Big.Little` board (dual-core, Algorithms 1+2, bundling).
    VersaSlotBigLittle,
}

impl SchedulerKind {
    /// All six systems in the order Figure 5 lists them.
    pub fn all() -> [SchedulerKind; 6] {
        [
            SchedulerKind::Baseline,
            SchedulerKind::Fcfs,
            SchedulerKind::RoundRobin,
            SchedulerKind::Nimblock,
            SchedulerKind::VersaSlotOnlyLittle,
            SchedulerKind::VersaSlotBigLittle,
        ]
    }

    /// Short label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Baseline => "Baseline",
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::RoundRobin => "RR",
            SchedulerKind::Nimblock => "Nimblock",
            SchedulerKind::VersaSlotOnlyLittle => "VersaSlot Only.Little",
            SchedulerKind::VersaSlotBigLittle => "VersaSlot Big.Little",
        }
    }

    /// The board each system runs on: the comparators use the uniform-slot board
    /// with the single-core hypervisor; VersaSlot uses the dual-core hypervisor and
    /// (for Big.Little) the heterogeneous board.
    pub fn board(&self) -> BoardSpec {
        match self {
            SchedulerKind::Baseline => BoardSpec::zcu216_only_little(),
            SchedulerKind::Fcfs | SchedulerKind::RoundRobin | SchedulerKind::Nimblock => {
                BoardSpec::zcu216_only_little().with_cores(CoreAssignment::SingleCore)
            }
            SchedulerKind::VersaSlotOnlyLittle => BoardSpec::zcu216_only_little(),
            SchedulerKind::VersaSlotBigLittle => BoardSpec::zcu216_big_little(),
        }
    }

    /// A fresh policy instance for this scheduler, or `None` for the Baseline
    /// (exclusive temporal multiplexing bypasses the sharing engine).
    ///
    /// The box is `Send` so a policy can live inside fleet shard state that a
    /// session worker thread borrows.
    pub fn policy(&self) -> Option<Box<dyn Policy + Send>> {
        match self {
            SchedulerKind::Baseline => None,
            SchedulerKind::Fcfs => Some(Box::new(FcfsPolicy::new())),
            SchedulerKind::RoundRobin => Some(Box::new(RoundRobinPolicy::new())),
            SchedulerKind::Nimblock => Some(Box::new(NimblockPolicy::new())),
            SchedulerKind::VersaSlotOnlyLittle | SchedulerKind::VersaSlotBigLittle => {
                Some(Box::new(VersaSlotPolicy::new()))
            }
        }
    }
}

/// Simulates one workload sequence under one system.
pub fn run_sequence(
    kind: SchedulerKind,
    workload: &Workload,
    sequence: &WorkloadSequence,
) -> RunReport {
    let board = kind.board();
    match kind.policy() {
        None => {
            let mut report = run_baseline(&board, &workload.suite, &sequence.arrivals);
            report.scheduler = kind.label().to_string();
            report
        }
        Some(mut policy) => {
            let config = SystemConfig::single_board(board);
            let mut sim = SharingSimulator::new(config, workload.suite.clone(), &sequence.arrivals);
            let mut report = sim.run(policy.as_mut());
            report.scheduler = kind.label().to_string();
            report
        }
    }
}

/// Simulates every sequence of `workload` under one system, fanning the
/// independent sequences out across worker threads.
///
/// Reports come back in sequence order and are byte-identical to a sequential
/// run (see [`crate::par::parallel_map`]).
pub fn run_workload(kind: SchedulerKind, workload: &Workload) -> Vec<RunReport> {
    run_workload_with(kind, workload, Parallelism::Auto)
}

/// [`run_workload`] with an explicit execution mode (the determinism tests
/// compare the two paths).
pub fn run_workload_with(
    kind: SchedulerKind,
    workload: &Workload,
    parallelism: Parallelism,
) -> Vec<RunReport> {
    parallel_map(parallelism, &workload.sequences, |sequence| {
        run_sequence(kind, workload, sequence)
    })
}

/// The three running modes of the cross-board switching experiment (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClusterMode {
    /// A single `Only.Little` board (no switching) — the normalisation baseline.
    OnlyLittle,
    /// A single `Big.Little` board (no switching).
    OnlyBigLittle,
    /// Two boards with D_switch-driven cross-board switching and live migration.
    Switching,
}

impl ClusterMode {
    /// All three modes in the order Figure 8 reports them.
    pub fn all() -> [ClusterMode; 3] {
        [
            ClusterMode::OnlyLittle,
            ClusterMode::OnlyBigLittle,
            ClusterMode::Switching,
        ]
    }

    /// Label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            ClusterMode::OnlyLittle => "Only.Little",
            ClusterMode::OnlyBigLittle => "Only Big.Little",
            ClusterMode::Switching => "Switching",
        }
    }
}

/// Simulates one (long) workload sequence under a cluster running mode, always with
/// the VersaSlot policy.
pub fn run_cluster_sequence(
    mode: ClusterMode,
    workload: &Workload,
    sequence: &WorkloadSequence,
    switching: SwitchingConfig,
) -> RunReport {
    let config = match mode {
        ClusterMode::OnlyLittle => SystemConfig::single_board(BoardSpec::zcu216_only_little()),
        ClusterMode::OnlyBigLittle => SystemConfig::single_board(BoardSpec::zcu216_big_little()),
        ClusterMode::Switching => SystemConfig::switching_cluster(
            BoardSpec::zcu216_only_little(),
            BoardSpec::zcu216_big_little(),
        )
        .with_switching(switching),
    };
    let mut sim = SharingSimulator::new(config, workload.suite.clone(), &sequence.arrivals);
    let mut policy = VersaSlotPolicy::new();
    let mut report = sim.run(&mut policy);
    report.scheduler = format!("versaslot-cluster:{}", mode.label());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use versaslot_workload::{generate_workload, Congestion, WorkloadConfig};

    fn tiny_workload(congestion: Congestion) -> Workload {
        generate_workload(&WorkloadConfig::paper_default(congestion).with_shape(1, 6))
    }

    #[test]
    fn every_scheduler_completes_a_tiny_workload() {
        let workload = tiny_workload(Congestion::Standard);
        for kind in SchedulerKind::all() {
            let reports = run_workload(kind, &workload);
            assert_eq!(reports.len(), 1, "{kind:?}");
            assert_eq!(reports[0].completed(), 6, "{kind:?}");
            assert_eq!(reports[0].scheduler, kind.label());
        }
    }

    #[test]
    fn sharing_beats_baseline_under_standard_congestion() {
        let workload = tiny_workload(Congestion::Standard);
        let baseline = run_workload(SchedulerKind::Baseline, &workload);
        let versa = run_workload(SchedulerKind::VersaSlotBigLittle, &workload);
        let base_mean = crate::metrics::pooled_mean_response_ms(&baseline);
        let versa_mean = crate::metrics::pooled_mean_response_ms(&versa);
        assert!(
            versa_mean < base_mean,
            "VersaSlot ({versa_mean:.0} ms) should beat the baseline ({base_mean:.0} ms)"
        );
    }

    #[test]
    fn run_workload_is_deterministic_across_execution_modes() {
        let workload =
            generate_workload(&WorkloadConfig::paper_default(Congestion::Stress).with_shape(3, 8));
        for kind in [SchedulerKind::Baseline, SchedulerKind::VersaSlotBigLittle] {
            let sequential = run_workload_with(kind, &workload, Parallelism::Sequential);
            let threaded = run_workload_with(kind, &workload, Parallelism::Threads(4));
            assert_eq!(
                serde_json::to_string(&sequential).expect("reports serialise"),
                serde_json::to_string(&threaded).expect("reports serialise"),
                "{kind:?}"
            );
        }
    }

    /// Property-style check of the tentpole invariant: after every event, under
    /// every policy, the incremental indexes must match a naive recount of the
    /// slot table ([`SharingSimulator::verify_indexes`] panics on divergence).
    #[test]
    fn indexes_survive_every_policy_and_congestion() {
        for congestion in [Congestion::Standard, Congestion::Stress] {
            let workload = tiny_workload(congestion);
            for kind in SchedulerKind::all() {
                let Some(mut policy) = kind.policy() else {
                    continue; // the baseline bypasses the sharing engine
                };
                let config = SystemConfig::single_board(kind.board());
                let mut sim = SharingSimulator::new(
                    config,
                    workload.suite.clone(),
                    &workload.sequences[0].arrivals,
                );
                while sim.step(policy.as_mut()) {
                    sim.verify_indexes();
                }
            }
        }
    }

    /// Satellite of the allocation-free spine: every system the experiment
    /// harness can construct starts with an event queue pre-sized to the
    /// engine-derived capacity hint, so no run ever grows it.
    #[test]
    fn steady_state_runs_start_pre_sized() {
        let workload = tiny_workload(Congestion::Stress);
        for kind in SchedulerKind::all() {
            let Some(mut policy) = kind.policy() else {
                continue; // the baseline bypasses the sharing engine
            };
            let config = SystemConfig::single_board(kind.board());
            let mut sim = SharingSimulator::new(
                config,
                workload.suite.clone(),
                &workload.sequences[0].arrivals,
            );
            sim.run(policy.as_mut());
            assert_eq!(
                sim.event_queue_grow_events(),
                0,
                "{kind:?} grew its event queue"
            );
        }

        let switching = generate_workload(&WorkloadConfig::paper_switching().with_shape(1, 12));
        for mode in ClusterMode::all() {
            let config = match mode {
                ClusterMode::OnlyLittle => {
                    SystemConfig::single_board(BoardSpec::zcu216_only_little())
                }
                ClusterMode::OnlyBigLittle => {
                    SystemConfig::single_board(BoardSpec::zcu216_big_little())
                }
                ClusterMode::Switching => SystemConfig::switching_cluster(
                    BoardSpec::zcu216_only_little(),
                    BoardSpec::zcu216_big_little(),
                )
                .with_switching(SwitchingConfig::default()),
            };
            let mut sim = SharingSimulator::new(
                config,
                switching.suite.clone(),
                &switching.sequences[0].arrivals,
            );
            let mut policy = VersaSlotPolicy::new();
            sim.run(&mut policy);
            assert_eq!(
                sim.event_queue_grow_events(),
                0,
                "{mode:?} grew its event queue"
            );
        }
    }

    #[test]
    fn cluster_modes_complete_and_switching_records_dswitch() {
        let workload = generate_workload(&WorkloadConfig::paper_switching().with_shape(1, 16));
        let sequence = &workload.sequences[0];
        for mode in ClusterMode::all() {
            let report =
                run_cluster_sequence(mode, &workload, sequence, SwitchingConfig::default());
            assert_eq!(report.completed(), 16, "{mode:?}");
            match mode {
                ClusterMode::Switching => {
                    assert!(
                        !report.dswitch_trace.is_empty(),
                        "switching mode should record D_switch samples"
                    );
                }
                _ => assert!(report.dswitch_trace.is_empty()),
            }
        }
    }
}
