//! Self-test at a tiny scale: every workload runs untraced and traced
//! through the real command line, prints every metric `BENCHMARK.json`
//! names with its unit, and checks its results.

use serde_json::Value;
use std::process::Command;

/// Run the benchmark at a tiny scale and return its result line.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seconds", "0", "--scale", "0.002"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.starts_with("{\"host\": {\"nproc\": "), "{stdout}");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    bench
        .get(section)
        .and_then(Value::as_array)
        .expect("section")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn check(result: &Value, section: &str) {
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{result:?}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| {
            let unit = v.get("unit").and_then(Value::as_str).expect("unit");
            (k.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(printed, declared(section));
}

#[test]
fn every_workload_prints_every_declared_metric() {
    for workload in ["fig_lowend", "fig_highend", "sweep_warm"] {
        let untraced = run(workload, 0);
        check(&untraced, "end_to_end");
        assert!(metric(&untraced, "wall_s") > 0.0);
        let traced = run(workload, 1);
        check(&traced, "per_layer");
        let warm = workload == "sweep_warm";
        assert_eq!(
            metric(&traced, "sweep.hit_ratio"),
            if warm { 1.0 } else { 0.0 }
        );
        assert_eq!(metric(&traced, "mem.replay_mismatches"), 0.0);
        let remote = metric(&traced, "mem.remote_frac");
        match workload {
            "fig_lowend" => assert_eq!(remote, 0.0),
            "fig_highend" => assert!(remote > 0.0),
            _ => {}
        }
    }
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "fig_lowend", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
