//! The `tg` binary end to end: the perf gate passes a baseline against
//! itself and fires on a synthetic 10% latency regression, bad command
//! lines exit 1 with one line on stderr, a crash run that cannot finish
//! exits 1 instead of hanging, and a crash window that closes before the
//! failure detector could convict passes `--check`.

use std::path::Path;
use std::process::{Command, Output};

use tg_analyze::{scale_matching, Json};

fn tg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tg"))
        .args(args)
        .output()
        .expect("run tg")
}

#[test]
fn gate_passes_the_baseline_and_fires_on_a_10pct_regression() {
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/baselines/report_stencil16.json"
    );
    let gate = |current: &str| {
        tg(&[
            "gate",
            "--baseline",
            baseline,
            "--current",
            current,
            "--default-tol",
            "0.03",
        ])
    };
    let same = gate(baseline);
    assert!(same.status.success(), "{same:?}");

    let metric = "latency.remote-read.p50_ns";
    let mut doc = Json::parse(&std::fs::read_to_string(baseline).unwrap()).unwrap();
    assert!(tg_analyze::flatten(&doc).contains(&(metric.to_string(), 9087.0)));
    assert_eq!(scale_matching(&mut doc, metric, 1.1), 1);
    let current = Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate_regressed.json");
    std::fs::write(&current, doc.to_string_pretty()).unwrap();
    let worse = gate(current.to_str().unwrap());
    assert_eq!(worse.status.code(), Some(1), "{worse:?}");
    let stderr = String::from_utf8_lossy(&worse.stderr);
    assert!(stderr.contains(&format!("REGRESSION {metric}")), "{stderr}");
}

#[test]
fn bad_command_lines_exit_1_with_one_line() {
    for line in [
        "report --drop 1.5",
        "trace --restart 100 --crash 1,150",
        "kv --seeds x",
        "fault --seeds",
        "trace pingpong --crash 9,150 --check",
        "report stencil16 --nodes 80 --bogus",
        "simtrace",
    ] {
        let out = tg(&line.split(' ').collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line}");
    }
}

/// A crash run whose survivors wait forever at the stencil barrier ends
/// at the run limit and reports the deadlock instead of hanging.
#[test]
fn a_crash_run_that_cannot_finish_exits_1() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("crash_trace.json");
    let args = ["trace", "stencil", "--crash", "1,20", "--out"];
    let run = tg(&[&args[..], &[out.to_str().unwrap()]].concat());
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("workload deadlocked"), "{stderr}");
}

/// A crash window of 60 µs closes before the detector's 100 µs silence
/// floor elapses, so the run correctly convicts no one: `--check` must
/// not demand a peer-down verdict.
#[test]
fn a_crash_shorter_than_the_peer_timeout_passes_the_check() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("short_crash_trace.json");
    let args = ["trace", "pingpong", "--crash", "1,40", "--restart", "100"];
    let run = tg(&[
        &args[..],
        &["--check", "--quiet", "--out", out.to_str().unwrap()],
    ]
    .concat());
    assert!(run.status.success(), "{run:?}");
}
