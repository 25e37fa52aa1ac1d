//! Runs every workload at tiny size, untraced and traced, and checks
//! that the result line names every metric of `BENCHMARK.json` with its
//! unit and that no operation failed.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::fs;
use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric listed in `section` of BENCHMARK.json.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in a flat JSON object.
fn field(object: &str, key: &str) -> String {
    let at = object.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = &object[at..];
    let open = rest.find('"').expect("string value") + 1;
    let close = open + rest[open..].find('"').expect("closed string");
    rest[open..close].to_string()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: u8, section: &str) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, "),
        "{workload}: {line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
    assert!(!line.contains("\"attempted\": 0,"), "{workload}: {line}");
    for (name, unit) in listed(section) {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let rest = &line[at + key.len()..];
        let comma = rest.find(',').expect("value then unit");
        let value: f64 = rest[..comma]
            .parse()
            .unwrap_or_else(|_| panic!("{workload}: {name} is not a number"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest[comma..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{workload}: {name} lacks unit {unit}"
        );
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for workload in ["paper16", "predictors", "wide256", "faulty16"] {
        check(workload, 0, "end_to_end");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    for workload in ["paper16", "predictors", "wide256", "faulty16"] {
        check(workload, 1, "per_layer");
    }
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
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
