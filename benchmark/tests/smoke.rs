//! Runs every workload with a 0.2 s window and checks that what the
//! binary prints is what `BENCHMARK.json` declares: the same workloads,
//! and for each of them exactly the declared metric names.

#[path = "../src/manifest.rs"]
#[allow(dead_code)]
mod manifest;

use manifest::{Json, Manifest};
use std::process::Command;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let manifest = Manifest::load();
    assert_eq!(manifest.workloads.len(), 8);
    let mut declared: Vec<&str> = manifest
        .end_to_end
        .iter()
        .chain(&manifest.per_layer)
        .map(|m| m.name.as_str())
        .collect();
    let workload_names = manifest.workloads.iter().map(|(n, _)| n.as_str());
    for name in declared.iter().copied().chain(workload_names) {
        assert!(well_formed(name), "malformed name {name:?}");
    }
    assert!(
        manifest
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"),
        "setup_s is a required end-to-end metric"
    );
    assert!(manifest
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    declared.sort_unstable();

    let out = Command::new(env!("CARGO_BIN_EXE_gcx_benchmark"))
        .args(["--seed", "7", "--seconds", "0.2"])
        .output()
        .expect("run gcx_benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = Json::parse(stdout.lines().last().expect("a last line")).expect("summary JSON");
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(summary.get("failed"), Some(&Json::Num(0.0)));
    let Some(Json::Obj(workloads)) = summary.get("workloads") else {
        panic!("summary has no workloads object: {summary:?}");
    };
    let printed: Vec<&str> = workloads.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = manifest.workloads.iter().map(|(n, _)| n.as_str()).collect();
    expected.sort_unstable();
    assert_eq!(printed, expected);
    for (workload, metrics) in workloads {
        let Json::Obj(metrics) = metrics else {
            panic!("{workload}: metrics are not an object");
        };
        // BTreeMap keys come out sorted, like `declared`.
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        assert_eq!(names, declared, "{workload}");
        for (name, metric) in metrics {
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{workload} {name}: no numeric value"
            );
            // Every metric is also printed by name on a line of its own.
            assert!(
                stdout.lines().any(|l| {
                    let mut f = l.split_ascii_whitespace();
                    f.next() == Some(workload) && f.next() == Some(name)
                }),
                "{workload} {name}: no printed line"
            );
        }
    }
}
