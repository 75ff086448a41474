//! Regenerates Figure 5 of the paper (average relative response time reduction
//! under the four congestion conditions) at the paper's workload size.
//!
//! Pass `--quick` for a reduced workload, `--json` for machine-readable output;
//! any other argument prints a usage line and exits with status 2.

use versaslot_bench::{figure5, format_figure5, FigArgs, Shape};

fn main() {
    let args = FigArgs::from_env("fig5");
    let shape = if args.quick {
        Shape::quick()
    } else {
        Shape::paper()
    };
    let rows = figure5(shape);
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("figure 5 rows serialise")
        );
    } else {
        print!("{}", format_figure5(&rows));
    }
}
