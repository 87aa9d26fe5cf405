//! Tiny-budget self-test of the benchmark: every workload, with tracing off
//! and on, passes its checks and prints every metric `BENCHMARK.json` names
//! in its final JSON line.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// The `name`s listed in one array of `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array is closed")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name has a value") + 1..];
            s[..s.find('"').expect("name is a string")].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--quick"])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a final line").to_string()
}

fn check_workload(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let line = run(workload, trace);
        assert!(
            line.starts_with("{\"correct\": true,"),
            "{workload}: {line}"
        );
        for name in names(section) {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload} trace={trace} lacks {name}: {line}"
            );
        }
    }
}

#[test]
fn detailed_prints_every_metric() {
    check_workload("detailed");
}

#[test]
fn sampled_prints_every_metric() {
    check_workload("sampled");
}

#[test]
fn sweep_prints_every_metric() {
    check_workload("sweep");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nonesuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
