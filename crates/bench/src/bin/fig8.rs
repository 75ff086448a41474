//! Regenerates Figure 8 of the paper (D_switch trace and cross-board switching
//! response-time gain over Only.Little) at the paper's workload size.
//!
//! Pass `--quick` for a reduced workload, `--json` for machine-readable output;
//! any other argument prints a usage line and exits with status 2.

use versaslot_bench::{figure8, format_figure8, FigArgs, Shape};

fn main() {
    let args = FigArgs::from_env("fig8");
    let shape = if args.quick {
        Shape {
            sequences: 1,
            apps_per_sequence: 30,
        }
    } else {
        Shape::paper_switching()
    };
    let fig = figure8(shape);
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&fig).expect("figure 8 serialises")
        );
    } else {
        print!("{}", format_figure8(&fig));
    }
}
