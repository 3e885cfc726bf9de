//! Smoke test of the benchmark itself: every workload at a tiny size,
//! untraced and traced. Each run must pass every check, exit 0, and
//! report every metric that BENCHMARK.json names, with its unit.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn field(entry: &str, key: &str) -> String {
    let at = entry
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} in {entry}"));
    let rest = &entry[at + key.len() + 2..];
    let open = rest.find('"').expect("string value") + 1;
    rest[open..open + rest[open..].find('"').expect("closing quote")].to_string()
}

fn workloads() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let start = json.find("\"workloads\"").unwrap();
    let body = &json[start..start + json[start..].find(']').unwrap()];
    body.split('{').skip(1).map(|e| field(e, "name")).collect()
}

fn run(workload: &str, trace: &str) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, trace: &str, section: &str) {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,"), "{workload}: {last}");
    assert!(last.contains("\"failed\":0,"), "{workload}: {last}");
    for (name, unit) in declared(section) {
        let entry = format!("\"{name}\":{{\"value\":");
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: no {name} in {last}"));
        let rest = &last[at + entry.len()..];
        let comma = rest.find(',').expect("unit follows the value");
        let value: f64 = rest[..comma].parse().expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            (0.0..1e15).contains(&value.abs()),
            "{workload}: {name} = {value} reads like a wrapped counter"
        );
        assert!(
            rest[comma..].starts_with(&format!(",\"unit\":\"{unit}\"}}")),
            "{workload}: {name} lacks unit {unit}"
        );
        let printed = stdout
            .lines()
            .any(|l| l.split_whitespace().next() == Some(&name) && l.trim_end().ends_with(&unit));
        assert!(printed, "{workload}: {name} not printed with {unit}");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in workloads() {
        check(&w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_when_traced() {
    for w in workloads() {
        check(&w, "1", "per_layer");
    }
}
