//! `tg kv` — the replicated KV service under the crash campaign (E21).
//!
//! Drives the `tg-kv` service — open-loop heavy-tailed client load over
//! posted-write mailboxes, eager-update replication fenced before every
//! ack, directory failover on remote atomics — through a matrix of
//! fault scenarios × retransmit disciplines × seeds:
//!
//! - `baseline`  — healthy fabric (the control: no failovers allowed);
//! - `crash`     — a replica crash-stops mid-run, permanently;
//! - `crashrestart` — the replica restarts later and must be harmless
//!   (its leftovers refused by the directory check, never re-promoted);
//! - `switchout` — the replica's switch goes dark and recovers: a
//!   transient partition the ring routes around;
//! - `ctrl`      — a hostile control plane (acks/nacks/resyncs dropped
//!   and corrupted) degrades the transport under the service.
//!
//! Every run is audited against the service contract (`tg_kv::audit`):
//! every request terminally resolved, **zero lost acknowledged writes**
//! (the ack-after-fence durability invariant, checked against every
//! replica the fault plan never silenced), **zero duplicate applies**
//! (idempotent retries), final-state attribution, and get sanity. Each
//! configuration then runs a second time and must reproduce the same
//! observable-history fingerprint bit for bit. Committed-request
//! latency (resolved − scheduled arrival) goes through a log-histogram
//! to p50/p99/p999, and the campaign hard-fails if p999 is unbounded
//! by `P999_LIMIT_US` — the tail is the whole point of request-level
//! robustness.
//!
//! `--seeds N` sets the seeds per cell (default 3), `--requests N` the
//! requests per client (default 16). `--report FILE` writes a
//! `tg-report-v2` document; the whole campaign is seeded and
//! deterministic, so CI diffs it exactly against a committed baseline.

use std::num::NonZeroU32;

use telegraphos::RetxMode;
use telegraphos_suite::harness::{self, Args, HarnessOptions};
use tg_analyze::Json;
use tg_kv::{audit, drive, AuditReport, KvConfig};
use tg_sim::{LogHistogram, RunLimit, SimTime};
use tg_wire::NodeId;

use crate::write_report;

const MODES: [(&str, RetxMode); 2] = [("gbn", RetxMode::GoBackN), ("sack", RetxMode::Sack)];
const SCENARIOS: [&str; 5] = ["baseline", "crash", "crashrestart", "switchout", "ctrl"];
/// Hard ceiling on committed-request p999 latency, µs.
const P999_LIMIT_US: f64 = 50_000.0;
/// The replica node every crash-stop scenario targets.
const VICTIM: u16 = 1;

/// Fault options for a scenario. The victim is always replica node 1;
/// node 0 (the directory) is never faulted — the service's split-brain
/// guard depends on the directory being a reliable arbiter, which is a
/// documented deployment assumption, not an accident.
fn scenario_opts(scenario: &str, mode: RetxMode, seed: u64) -> HarnessOptions {
    let mut o = HarnessOptions {
        reliable: true,
        heartbeats: true,
        mode,
        fault_seed: 0xFA_4B56 ^ (seed << 8),
        ..HarnessOptions::default()
    };
    match scenario {
        "baseline" => {}
        "crash" => o.crash = Some((VICTIM, 400)),
        "crashrestart" => {
            o.crash = Some((VICTIM, 400));
            o.restart_us = Some(3_000);
        }
        "switchout" => o.switch_out = Some((VICTIM, 400, 1_500)),
        "ctrl" => {
            o.ctrl_drop = 0.15;
            o.ctrl_corrupt = 0.15;
        }
        other => panic!("unknown scenario {other}"),
    }
    o
}

/// Replica nodes the scenario's fault plan silences at some point —
/// exempt from the durability gate (they miss eager updates while dark;
/// the client's sticky suspicion guarantees they are never re-promoted,
/// so their staleness is unobservable through the service interface).
fn silenced(scenario: &str) -> Vec<NodeId> {
    match scenario {
        "crash" | "crashrestart" | "switchout" => vec![NodeId::new(VICTIM)],
        _ => Vec::new(),
    }
}

struct KvRun {
    report: AuditReport,
    finished: bool,
}

fn run_once(scenario: &str, mode: RetxMode, seed: u64, requests: u32) -> KvRun {
    let cfg = KvConfig {
        requests_per_client: requests,
        seed: 0x4B56_0000 ^ seed,
        ..KvConfig::default()
    };
    let opts = scenario_opts(scenario, mode, seed);
    let (mut cluster, handles) = harness::build_kv(&opts, &cfg);
    let outcome = drive(
        &mut cluster,
        &handles,
        SimTime::from_us(50),
        SimTime::from_ms(200),
    );
    let report = audit(&cluster, &handles, &silenced(scenario));
    KvRun {
        report,
        finished: outcome != RunLimit::Deadline,
    }
}

pub fn main(mut args: Args) -> Result<(), String> {
    let (n_seeds, report) = harness::campaign(&mut args)?;
    let requests = args.value("--requests")?.map_or(16, NonZeroU32::get);
    args.finish()?;

    let mut metrics = Json::obj();
    let mut failures = 0u32;
    println!("replicated KV service under the crash campaign");
    println!(
        "{:<13} {:>5} {:>6} {:>5} {:>5} {:>5} {:>6} {:>5} {:>9} {:>9} {:>9}  gate",
        "scenario", "mode", "commit", "busy", "fail", "fo", "fresh", "dedup", "p50", "p99", "p999"
    );
    for scenario in SCENARIOS {
        for (mode_name, mode) in MODES {
            let mut ok = true;
            let mut lat = LogHistogram::new();
            let mut committed = 0u64;
            let mut busy = 0u64;
            let mut failed = 0u64;
            let mut failovers = 0u64;
            let mut fresh = 0u64;
            let mut dedup = 0u64;
            let mut timeouts = 0u64;
            for seed in 0..n_seeds {
                let r = run_once(scenario, mode, seed, requests);
                if !r.finished {
                    ok = false;
                    eprintln!("  {scenario}/{mode_name}/seed{seed}: run never finished");
                }
                for v in &r.report.violations {
                    ok = false;
                    eprintln!("  {scenario}/{mode_name}/seed{seed}: {v}");
                }
                committed += r.report.committed_puts + r.report.committed_gets;
                busy += r.report.rejected_busy;
                failed += r.report.failed_unreachable;
                failovers += r.report.failovers;
                fresh += r.report.fresh_applies;
                dedup += r.report.dedup_hits;
                timeouts += r.report.timeouts;
                for &ns in &r.report.latencies_ns {
                    lat.record(ns.max(1));
                }
                // Byte-determinism gate: the same configuration must
                // reproduce the same observable history.
                let again = run_once(scenario, mode, seed, requests);
                if again.report.fingerprint != r.report.fingerprint {
                    ok = false;
                    eprintln!("  {scenario}/{mode_name}/seed{seed}: seeded replay diverged");
                }
            }
            // Scenario-shape gates.
            if scenario == "baseline" && (failovers > 0 || failed > 0) {
                ok = false;
                eprintln!(
                    "  {scenario}/{mode_name}: healthy fabric saw {failovers} failover(s), \
                     {failed} unreachable"
                );
            }
            if matches!(scenario, "crash" | "crashrestart" | "switchout") && failovers == 0 {
                ok = false;
                eprintln!("  {scenario}/{mode_name}: the dead replica's ranges never moved");
            }
            if committed == 0 {
                ok = false;
                eprintln!("  {scenario}/{mode_name}: nothing ever committed");
            }
            let q = |p: f64| lat.quantile(p) as f64 / 1_000.0;
            let (p50, p99, p999) = (q(0.50), q(0.99), q(0.999));
            if p999 > P999_LIMIT_US {
                ok = false;
                eprintln!(
                    "  {scenario}/{mode_name}: p999 {p999:.1}us breaches the \
                     {P999_LIMIT_US:.0}us ceiling"
                );
            }
            for (leaf, v) in [
                ("committed", committed as f64),
                ("rejected_busy", busy as f64),
                ("failed_unreachable", failed as f64),
                ("failovers", failovers as f64),
                ("fresh_applies", fresh as f64),
                ("dedup_hits", dedup as f64),
                ("timeouts", timeouts as f64),
                ("latency_p50_us", p50),
                ("latency_p99_us", p99),
                ("latency_p999_us", p999),
            ] {
                metrics.set(&format!("kv.{scenario}.{mode_name}.{leaf}"), Json::Num(v));
            }
            if !ok {
                failures += 1;
            }
            println!(
                "{:<13} {:>5} {:>6} {:>5} {:>5} {:>5} {:>6} {:>5} {:>8.1}u {:>8.1}u {:>8.1}u  {}",
                scenario,
                mode_name,
                committed,
                busy,
                failed,
                failovers,
                fresh,
                dedup,
                p50,
                p99,
                p999,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }

    if let Some(path) = &report {
        write_report(
            path,
            "simkv",
            [
                ("seeds", Json::Num(n_seeds as f64)),
                ("requests_per_client", Json::Num(f64::from(requests))),
                ("metrics", metrics),
            ],
        )?;
        println!();
        println!("wrote {path}");
    }

    println!();
    if failures > 0 {
        Err(format!(
            "{failures} scenario/mode cell(s) violated the service contract"
        ))
    } else {
        println!("tg kv: service contract held in every scenario, both disciplines");
        Ok(())
    }
}
