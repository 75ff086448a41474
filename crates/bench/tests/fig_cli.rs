//! The figure binaries' command line: unknown flags are rejected before any
//! simulation runs, and the `--json` output is locked by golden files.

use std::process::Command;

use versaslot_bench::FigArgs;

const FIG_BINARIES: [(&str, &str); 4] = [
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("fig8", env!("CARGO_BIN_EXE_fig8")),
];

#[test]
fn fig_binaries_reject_a_typoed_flag_with_usage_and_status_2() {
    for (name, path) in FIG_BINARIES {
        let output = Command::new(path)
            .args(["--quick", "--quikc"])
            .output()
            .expect("figure binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains("unknown argument `--quikc`")
                && stderr.contains(&format!("usage: {name} [--quick] [--json]")),
            "{name}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{name} ran despite the bad flag");
    }
}

/// Each figure binary's `--json` output (`--quick` for the simulated
/// figures; Figure 7 has no workload) must match its committed file under
/// `golden/` byte for byte.  Regenerate a file only for an intended change to
/// the figure path, and say why in the same commit.
#[test]
fn fig_json_output_matches_the_golden_files() {
    for (name, path) in FIG_BINARIES {
        let args: &[&str] = if name == "fig7" {
            &["--json"]
        } else {
            &["--quick", "--json"]
        };
        let output = Command::new(path)
            .args(args)
            .output()
            .expect("figure binary runs");
        assert!(output.status.success(), "{name} failed: {output:?}");
        let golden = format!("{}/../../golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let expected = std::fs::read(&golden).expect("golden file exists");
        assert!(
            output.stdout == expected,
            "{name} {} differs from {golden}",
            args.join(" ")
        );
    }
}

#[test]
fn fig_args_parse_known_flags_in_any_order() {
    let parse = |args: &[&str]| FigArgs::parse("fig5", args.iter().map(|a| a.to_string()));
    assert_eq!(parse(&[]), Ok(FigArgs::default()));
    assert_eq!(
        parse(&["--json", "--quick"]),
        Ok(FigArgs {
            quick: true,
            json: true
        })
    );
    assert!(parse(&["--quick", "-q"]).is_err());
    assert!(parse(&["quick"]).is_err());
}
