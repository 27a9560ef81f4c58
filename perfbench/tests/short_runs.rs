//! Short-size runs of the benchmark binary: outputs check out, every
//! metric `BENCHMARK.json` declares is emitted, and exact counters repeat
//! from one run to the next.

use std::process::Command;

use tg_analyze::Json;

const WORKLOADS: [&str; 3] = ["stencil64", "stencil16_lossy", "kv"];

/// Counters that must read the same on every run of the same inputs.
const EXACT: [&str; 12] = [
    "sim.events",
    "sim.peak_queue",
    "sim.allocs_per_event",
    "net.packets",
    "rel.retransmits",
    "rel.retx_bytes",
    "node.remote_reads",
    "node.atomics",
    "kv.events_per_request",
    "kv.timeouts",
    "kv.p99_us",
    "trace.probe_events",
];

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = json.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, seed: Option<&str>, trace: bool) -> Json {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seconds", "0", "--shrink", "32"]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seed) = seed {
        cmd.args(["--seed", seed]);
    }
    let out = cmd.output().expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0));
    result
}

fn metric_names(result: &Json) -> Vec<String> {
    let Some(Json::Obj(entries)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    entries.iter().map(|(name, _)| name.clone()).collect()
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_declared_metric_is_emitted() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in WORKLOADS {
        assert_eq!(metric_names(&run(w, None, false)), end_to_end, "{w}");
        assert_eq!(metric_names(&run(w, None, true)), per_layer, "{w}");
    }
}

#[test]
fn exact_counters_repeat_between_runs() {
    for w in WORKLOADS {
        let (a, b) = (run(w, None, true), run(w, None, true));
        for name in EXACT {
            assert_eq!(value(&a, name), value(&b, name), "{w}: {name}");
        }
        let (a, b) = (run(w, None, false), run(w, None, false));
        assert_eq!(value(&a, "sim_us"), value(&b, "sim_us"), "{w}: sim_us");
    }
}

#[test]
fn a_held_out_seed_passes_every_check() {
    for w in ["stencil16_lossy", "kv"] {
        let default = run(w, None, true);
        let held_out = run(w, Some("7"), true);
        assert_ne!(
            value(&default, "sim.events"),
            value(&held_out, "sim.events"),
            "{w}: the seed should change the inputs"
        );
    }
}
