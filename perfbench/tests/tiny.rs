//! The benchmark's own tiny-scale test: every metric `BENCHMARK.json`
//! names is emitted with a finite value, by every workload, in both modes,
//! and every hard check passes.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

/// The `"name"` values listed in one section of `BENCHMARK.json`.
fn contract_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let end = body.find(']').expect("section is an array");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key)? + key.len();
    let rest = &line[at..];
    rest[..rest.find(',')?].parse().ok()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check_workload(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let line = run(workload, trace);
        assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
        let names = contract_names(section);
        assert!(!names.is_empty());
        for name in names {
            let v = metric(&line, &name)
                .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing in {line}"));
            assert!(v.is_finite(), "{workload}: {name} = {v}");
            if trace == 0 {
                assert!(v > 0.0, "{workload}: end-to-end {name} is {v}");
            }
        }
    }
}

#[test]
fn telemetry_churn_emits_every_metric() {
    check_workload("telemetry_churn");
}

#[test]
fn proposal_storm_emits_every_metric() {
    check_workload("proposal_storm");
}

#[test]
fn api_mixed_emits_every_metric() {
    check_workload("api_mixed");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
