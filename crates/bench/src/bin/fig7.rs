//! Regenerates Figure 7 of the paper (resource utilization increase of 3-in-1
//! tasks, plus the Image Compression task-level detail).
//!
//! Pass `--json` for machine-readable output (`--quick` is accepted like in
//! the other figure binaries, but there is no workload to reduce); any other
//! argument prints a usage line and exits with status 2.

use versaslot_bench::{figure7, format_figure7, FigArgs};

fn main() {
    let args = FigArgs::from_env("fig7");
    let fig = figure7();
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&fig).expect("figure 7 serialises")
        );
    } else {
        print!("{}", format_figure7(&fig));
    }
}
