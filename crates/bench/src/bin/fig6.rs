//! Regenerates Figure 6 of the paper (P95/P99 tail response time normalised to the
//! Baseline) at the paper's workload size.
//!
//! Pass `--quick` for a reduced workload, `--json` for machine-readable output;
//! any other argument prints a usage line and exits with status 2.

use versaslot_bench::{figure6, format_figure6, FigArgs, Shape};

fn main() {
    let args = FigArgs::from_env("fig6");
    let shape = if args.quick {
        Shape::quick()
    } else {
        Shape::paper()
    };
    let rows = figure6(shape);
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("figure 6 rows serialise")
        );
    } else {
        print!("{}", format_figure6(&rows));
    }
}
