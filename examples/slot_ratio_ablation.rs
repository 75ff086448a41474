//! Ablation of two design choices the paper calls out, under Standard
//! congestion (2 sequences × 10 applications):
//!
//! * the Big/Little slot ratio (the paper uses 2 Big + 4 Little but notes any
//!   configuration is possible; each Big slot displaces two Little slots), and
//! * the dual-core hypervisor split (VersaSlot) versus a single scheduling core
//!   (Nimblock-style) on the same uniform-slot board.
//!
//! ```text
//! cargo run --release --example slot_ratio_ablation
//! ```

use versaslot::core::config::SystemConfig;
use versaslot::core::engine::SharingSimulator;
use versaslot::core::metrics::pooled_mean_response_ms;
use versaslot::core::policy::versaslot::VersaSlotPolicy;
use versaslot::fpga::board::BoardSpec;
use versaslot::fpga::cpu::CoreAssignment;
use versaslot::fpga::slot::SlotLayout;
use versaslot::workload::{generate_workload, Congestion, WorkloadConfig};

/// Pooled mean response (ms) of the VersaSlot policy on `board`.
fn run_board(board: BoardSpec) -> f64 {
    let workload =
        generate_workload(&WorkloadConfig::paper_default(Congestion::Standard).with_shape(2, 10));
    let reports: Vec<_> = workload
        .sequences
        .iter()
        .map(|sequence| {
            let mut sim = SharingSimulator::new(
                SystemConfig::single_board(board.clone()),
                workload.suite.clone(),
                &sequence.arrivals,
            );
            sim.run(&mut VersaSlotPolicy::new())
        })
        .collect();
    pooled_mean_response_ms(&reports)
}

fn ratio_board(big: u32, little: u32) -> BoardSpec {
    BoardSpec::zcu216_big_little().with_layout(SlotLayout::with_counts(
        big,
        little,
        BoardSpec::zcu216_little_capacity(),
    ))
}

fn main() {
    println!("Ablation — Big/Little slot ratio (Standard congestion, mean response in ms):");
    for (big, little) in [(0u32, 8u32), (1, 6), (2, 4), (3, 2)] {
        println!(
            "  {big} Big + {little} Little: {:.0} ms",
            run_board(ratio_board(big, little))
        );
    }
    println!("Ablation — hypervisor core split (Only.Little board):");
    println!(
        "  dual-core:   {:.0} ms",
        run_board(BoardSpec::zcu216_only_little())
    );
    println!(
        "  single-core: {:.0} ms",
        run_board(BoardSpec::zcu216_only_little().with_cores(CoreAssignment::SingleCore))
    );
}
