//! `tg fault` — seeded fault campaigns against the reliable fabric.
//!
//! Runs a fixed cluster workload under a matrix of fault scenarios
//! (frame drops, corruption, a link outage window, credit loss, and a
//! hostile control plane that drops or corrupts acks/nacks/resyncs) ×
//! seeds × retransmit disciplines (go-back-N and selective retransmit),
//! and checks that every faulted run is *fully masked*: same final
//! memory contents and operation counts as the fault-free reference, no
//! dead links, and the quiescence-time conservation invariants intact.
//!
//! A recovery-latency vs drop-rate sweep then runs many seeds per point
//! through a [`tg_sim::LogHistogram`], reporting p50/p99 recovery
//! latency and the wire cost (retransmitted frames and bytes) per
//! discipline — the E19 wire-efficiency comparison. The campaign
//! hard-fails if selective retransmit does not beat go-back-N on
//! retransmitted bytes at drop rates ≥ 5%.
//!
//! A crash-stop campaign follows (E20): node crash, crash + restart, a
//! routed-around switch outage and a disconnecting partition, per
//! discipline. Every scenario must be *detected* (heartbeat conviction),
//! *survived* (survivors complete; in-flight ops to the dead fail
//! structurally; a disconnecting cut is named as a partition) and
//! *replayed bit for bit* under the same seed; detection and recovery
//! latency go through p50/p99 log-histograms into the report. A final
//! gate bounds heartbeat overhead on the zero-fault reliable ping-pong
//! workload at 2% of mean remote-op latency.
//!
//! `--seeds N` sets the matrix seeds (default 3), `--sweep-seeds N`
//! the sweep seeds per point (default 10). `--report FILE` writes a
//! `tg-report-v2` JSON document with the per-run recovery metrics so the
//! CI perf gate can diff fault-recovery behaviour against a committed
//! baseline — the whole campaign is seeded, so the report is
//! deterministic.

use std::num::NonZeroU64;

use telegraphos::{
    Action, Cluster, ClusterBuilder, DetectParams, Drive, FaultPlan, LinkId, RelParams, RetxMode,
    Script, SharedPage, Topology,
};
use telegraphos_suite::harness::{self, Args, HarnessOptions};
use tg_analyze::Json;
use tg_sim::{LogHistogram, RunLimit, SimTime};
use tg_wire::trace::{Site, Stage};
use tg_wire::NodeId;

use crate::write_report;

const NODES: u16 = 3;
const WRITES: u64 = 60;
const MODES: [(&str, RetxMode); 2] = [("gbn", RetxMode::GoBackN), ("sack", RetxMode::Sack)];
const SCENARIOS: [&str; 6] = [
    "drop",
    "corrupt",
    "outage",
    "creditloss",
    "ctrldrop",
    "ctrlcorrupt",
];
const SWEEP_PCTS: [u64; 4] = [1, 5, 15, 30];

/// The workload every run executes: two writer nodes stream writes into a
/// shared page on the third, fence, then read a sample back.
fn script(page: &SharedPage, base: u64) -> Script {
    let mut acts: Vec<Action> = (0..WRITES)
        .map(|i| Action::Write(page.va((base + i % 16) * 8), i + 1))
        .collect();
    acts.push(Action::Fence);
    acts.push(Action::Read(page.va(base * 8)));
    Script::new(acts)
}

/// Everything a campaign compares between a faulted run and the
/// fault-free reference.
#[derive(PartialEq, Eq, Debug)]
struct Outcome {
    memory: Vec<u64>,
    writes: (u64, u64),
    reads: (u64, u64),
    fences: (u64, u64),
}

struct RunReport {
    outcome: Outcome,
    finished_at: SimTime,
    halted: bool,
    retransmits: u64,
    retx_bytes: u64,
    resyncs: u64,
    frames_lost: u64,
    corrupted: u64,
    credits_lost: u64,
    ctrl_lost: u64,
    ctrl_corrupted: u64,
    violations: Vec<String>,
    dead_links: bool,
}

impl RunReport {
    /// True if the run halted with `reference`'s outcome, conservation
    /// intact and no link declared dead.
    fn masked(&self, reference: &RunReport) -> bool {
        self.halted
            && self.outcome == reference.outcome
            && self.violations.is_empty()
            && !self.dead_links
    }
}

fn run(plan: Option<FaultPlan>, mode: RetxMode) -> RunReport {
    let mut b = ClusterBuilder::new(NODES).reliable_links(RelParams::with_mode(mode));
    if let Some(p) = plan {
        b = b.with_faults(p);
    }
    let mut cluster = b.build();
    let page = cluster.alloc_shared(2);
    cluster.set_process(0, script(&page, 0));
    cluster.set_process(1, script(&page, 16));
    cluster.run();
    let memory: Vec<u64> = (0..32).map(|w| cluster.read_shared(&page, w)).collect();
    let st0 = cluster.node(0).stats();
    let st1 = cluster.node(1).stats();
    let fs = cluster.fault_stats();
    RunReport {
        outcome: Outcome {
            memory,
            writes: (st0.remote_writes.count(), st1.remote_writes.count()),
            reads: (st0.remote_reads.count(), st1.remote_reads.count()),
            fences: (st0.fences.count(), st1.fences.count()),
        },
        finished_at: cluster.now(),
        halted: cluster.all_halted(),
        retransmits: cluster.fabric_retransmits(),
        retx_bytes: cluster.fabric_retx_bytes(),
        resyncs: cluster.fabric_resyncs(),
        frames_lost: fs.as_ref().map_or(0, |s| s.drops + s.outage_drops),
        corrupted: fs.as_ref().map_or(0, |s| s.corrupts),
        credits_lost: fs.as_ref().map_or(0, |s| s.credits_lost),
        ctrl_lost: fs.as_ref().map_or(0, |s| s.ctrl_drops),
        ctrl_corrupted: fs.as_ref().map_or(0, |s| s.ctrl_corrupts),
        violations: cluster.conservation_violations(),
        dead_links: !cluster.link_errors().is_empty(),
    }
}

fn victim_uplink() -> LinkId {
    LinkId::new(Site::Node(NodeId::new(0)), Site::Switch(0))
}

fn scenario_plan(name: &str, seed: u64) -> FaultPlan {
    match name {
        "drop" => FaultPlan::new(seed).drop(0.20),
        "corrupt" => FaultPlan::new(seed).corrupt(0.15),
        "outage" => FaultPlan::new(seed).drop(0.05).outage(
            victim_uplink(),
            SimTime::from_us(5),
            SimTime::from_us(40),
        ),
        "creditloss" => FaultPlan::new(seed).credit_loss(0.5),
        // The hostile control plane: data faults force recovery traffic,
        // then the injector attacks the recovery protocol itself.
        "ctrldrop" => FaultPlan::new(seed).drop(0.10).ctrl_drop(0.25),
        "ctrlcorrupt" => FaultPlan::new(seed)
            .corrupt(0.10)
            .ctrl_corrupt(0.25)
            .credit_loss(0.1),
        other => panic!("unknown scenario {other}"),
    }
}

/// The crash-stop fault domains: a permanent node crash, a crash with a
/// later restart, a switch outage the ring routes around, and a chain cut
/// that disconnects the fabric.
const CRASH_SCENARIOS: [&str; 4] = ["crash", "crashrestart", "switchout", "partition"];

/// What a crash-stop run is judged and replay-compared on.
struct CrashOutcome {
    completed: bool,
    finished_at: SimTime,
    /// First heartbeat conviction after the crash window opened, in ns.
    detect_ns: Option<u64>,
    peer_downs: u64,
    peer_ups: u64,
    op_failures: u64,
    partition: Vec<u16>,
    violations: Vec<String>,
    fingerprint: String,
}

/// The crash-campaign workload: rounds of write / compute / read against
/// one page, sized to straddle the scenario's crash window.
fn pound(page: &SharedPage, rounds: u64) -> Script {
    let mut acts = Vec::new();
    for i in 0..rounds {
        acts.push(Action::Write(page.va((i % 16) * 8), i + 1));
        acts.push(Action::Compute(SimTime::from_us(20)));
        acts.push(Action::Read(page.va((i % 16) * 8)));
    }
    Script::new(acts)
}

/// The cluster of one crash-stop scenario, with its workload installed,
/// and the instant its crash window opens. `seed: None` builds the
/// fault-free reference for the same workload, topology and discipline.
fn crash_cluster(scenario: &str, mode: RetxMode, seed: Option<u64>) -> (Cluster, SimTime) {
    let params = RelParams::with_mode(mode);
    let faulted = seed.is_some();
    let seedv = seed.unwrap_or(0);
    let build =
        |b: ClusterBuilder, plan: FaultPlan| if faulted { b.with_faults(plan) } else { b }.build();
    let crash_from;
    let cluster = match scenario {
        "crash" | "crashrestart" => {
            crash_from = SimTime::from_us(200);
            let mut plan = FaultPlan::new(seedv).node_crash(NodeId::new(1), crash_from);
            let rounds = if scenario == "crashrestart" {
                plan = plan.node_restart(NodeId::new(1), SimTime::from_us(2_500));
                200
            } else {
                60
            };
            let mut cluster = build(ClusterBuilder::new(3).reliable_links(params), plan);
            let victim_page = cluster.alloc_shared(1);
            let survivor_page = cluster.alloc_shared(0);
            cluster.set_process(0, pound(&victim_page, rounds));
            cluster.set_process(2, pound(&survivor_page, 40));
            cluster
        }
        "switchout" => {
            crash_from = SimTime::from_us(100);
            let plan = FaultPlan::new(seedv).switch_outage(1, crash_from, SimTime::from_ms(100));
            let ring = ClusterBuilder::new(4).topology(Topology::ring(4));
            let mut cluster = build(ring.reliable_links(params), plan);
            let page = cluster.alloc_shared(2);
            let mut acts = Vec::new();
            for i in 0..30u64 {
                acts.push(Action::Write(page.va((i % 16) * 8), 1000 + i));
                acts.push(Action::Compute(SimTime::from_us(25)));
            }
            acts.push(Action::Fence);
            cluster.set_process(0, Script::new(acts));
            cluster
        }
        "partition" => {
            crash_from = SimTime::from_us(50);
            let plan = FaultPlan::new(seedv).switch_outage(1, crash_from, SimTime::from_ms(500));
            let chain = ClusterBuilder::new(3).topology(Topology::chain(3));
            let mut cluster = build(chain.reliable_links(params), plan);
            let page = cluster.alloc_shared(2);
            cluster.set_process(0, pound(&page, 20));
            cluster
        }
        other => panic!("unknown crash scenario {other}"),
    };
    (cluster, crash_from)
}

/// One crash-stop run. `seed: None` runs the fault-free reference,
/// driven identically, so finish-time deltas isolate what the crash cost.
fn crash_run(scenario: &str, mode: RetxMode, seed: Option<u64>) -> CrashOutcome {
    let faulted = seed.is_some();
    let (mut cluster, crash_from) = crash_cluster(scenario, mode, seed);
    let collector = cluster.enable_tracing();
    let mut partition = Vec::new();
    cluster.enable_heartbeats(DetectParams::default());
    let completed = if scenario == "partition" && faulted {
        // Recovery is impossible across a disconnecting cut: the run must
        // degrade into a structured report naming the partition.
        match cluster.drive(Drive::watchdog(SimTime::from_us(300))) {
            Err(report) => {
                partition = report.partition.iter().map(|n| n.raw()).collect();
                !partition.is_empty()
            }
            Ok(_) => false,
        }
    } else {
        let plan = Drive::quiescent(SimTime::from_us(50), SimTime::from_ms(100));
        cluster.drive(plan).is_ok_and(|r| r != RunLimit::Deadline) && cluster.node(0).halted()
    };
    let detect_ns = faulted
        .then(|| {
            collector
                .packet_events()
                .iter()
                .filter(|e| e.stage == Stage::PeerDown && e.at >= crash_from)
                .map(|e| e.at.saturating_sub(crash_from).as_ps() / 1_000)
                .min()
        })
        .flatten();
    let (mut peer_downs, mut peer_ups, mut op_failures) = (0u64, 0u64, 0u64);
    let mut stats = Vec::new();
    for i in 0..cluster.node_count() {
        let st = cluster.node(i).stats();
        peer_downs += st.peer_downs;
        peer_ups += st.peer_ups;
        op_failures += st.op_failures;
        stats.push(format!("{st:?}"));
    }
    // The conservation audit is meant for quiescence; a partition run is
    // stopped mid-flight by the watchdog, so its books stay open.
    let violations = if scenario == "partition" {
        Vec::new()
    } else {
        cluster.conservation_violations()
    };
    let fingerprint = format!(
        "{:?}|{}|{}|{:?}|{:?}|{:?}",
        cluster.now(),
        cluster.fabric_packets(),
        cluster.fabric_retransmits(),
        detect_ns,
        partition,
        stats,
    );
    CrashOutcome {
        completed,
        finished_at: cluster.now(),
        detect_ns,
        peer_downs,
        peer_ups,
        op_failures,
        partition,
        violations,
        fingerprint,
    }
}

/// Count-weighted mean latency of the remote operation classes on the
/// zero-fault reliable ping-pong, in µs — the metric the
/// heartbeat-overhead gate compares with and without the detector.
fn pingpong_op_latency(heartbeats: bool) -> f64 {
    let opts = HarnessOptions {
        reliable: true,
        heartbeats,
        ..HarnessOptions::default()
    };
    let mut cluster = harness::build_pingpong(&opts);
    assert!(
        harness::run_cluster(&mut cluster, &opts, None),
        "pingpong wedged (heartbeats: {heartbeats})"
    );
    let (mut sum, mut n) = (0.0, 0u64);
    for i in 0..cluster.node_count() {
        let st = cluster.node(i).stats();
        for s in [&st.remote_writes, &st.remote_reads, &st.atomics] {
            sum += s.mean() * s.count() as f64;
            n += s.count();
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

pub(crate) fn main(mut args: Args) -> Result<(), String> {
    let (n_seeds, report) = harness::campaign(&mut args)?;
    let sweep_seeds = args.value("--sweep-seeds")?.map_or(10, NonZeroU64::get);
    args.finish()?;

    // Fault-free reference per discipline. The committed payload state
    // must be identical across disciplines — SACK vs go-back-N is a
    // wire-efficiency choice, never a semantic one.
    let reference: Vec<RunReport> = MODES.iter().map(|&(_, m)| run(None, m)).collect();
    for ((name, _), r) in MODES.iter().zip(&reference) {
        assert!(r.halted, "fault-free {name} reference did not halt");
        assert!(
            r.violations.is_empty(),
            "fault-free {name} reference broke conservation: {:?}",
            r.violations
        );
    }
    assert_eq!(
        reference[0].outcome, reference[1].outcome,
        "fault-free outcome differs between disciplines"
    );
    println!(
        "reference: completed at {} ({} retransmits)",
        reference[0].finished_at, reference[0].retransmits
    );
    println!();
    println!(
        "{:<11} {:>4} {:>6} {:>7} {:>7} {:>6} {:>5} {:>6} {:>7} {:>12} {:>10}  status",
        "scenario",
        "mode",
        "seed",
        "lost",
        "corrupt",
        "closs",
        "ctrl",
        "retx",
        "rtxB",
        "finished",
        "recovery"
    );

    let mut failures = 0u32;
    let mut metrics = Json::obj();
    metrics.set(
        "reference.finished_us",
        Json::Num(reference[0].finished_at.as_us_f64()),
    );
    for scenario in SCENARIOS {
        for (mi, &(mode_name, mode)) in MODES.iter().enumerate() {
            for s in 0..n_seeds {
                let seed = 0xFA_0001 + 0x1000 * s;
                let r = run(Some(scenario_plan(scenario, seed)), mode);
                let masked = r.masked(&reference[mi]);
                let recovery = r.finished_at.saturating_sub(reference[mi].finished_at);
                for (leaf, v) in [
                    ("frames_lost", r.frames_lost as f64),
                    ("retransmits", r.retransmits as f64),
                    ("retx_bytes", r.retx_bytes as f64),
                    ("resyncs", r.resyncs as f64),
                    ("recovery_us", recovery.as_us_f64()),
                    ("masked", if masked { 1.0 } else { 0.0 }),
                ] {
                    metrics.set(
                        &format!("{scenario}.{mode_name}.seed{s}.{leaf}"),
                        Json::Num(v),
                    );
                }
                println!(
                    "{:<11} {:>4} {:>6x} {:>7} {:>7} {:>6} {:>5} {:>6} {:>7} {:>12} {:>10}  {}",
                    scenario,
                    mode_name,
                    seed,
                    r.frames_lost,
                    r.corrupted,
                    r.credits_lost,
                    r.ctrl_lost + r.ctrl_corrupted,
                    r.retransmits,
                    r.retx_bytes,
                    r.finished_at.to_string(),
                    recovery.to_string(),
                    if masked { "ok" } else { "FAIL" }
                );
                if !masked {
                    failures += 1;
                    if !r.halted {
                        eprintln!("  {scenario}/{mode_name}/{seed:x}: cluster wedged");
                    }
                    if r.outcome != reference[mi].outcome {
                        eprintln!("  {scenario}/{mode_name}/{seed:x}: outcome diverged");
                    }
                    for v in &r.violations {
                        eprintln!("  {scenario}/{mode_name}/{seed:x}: {v}");
                    }
                    if r.dead_links {
                        eprintln!("  {scenario}/{mode_name}/{seed:x}: link declared dead");
                    }
                }
            }
        }
    }

    // Recovery-latency vs drop-rate sweep: many seeds per point through a
    // log-scale histogram, per retransmit discipline. This is the E19
    // wire-efficiency comparison: at equal drop rates, SACK must spend
    // fewer retransmitted bytes than go-back-N while keeping recovery
    // latency in the same band.
    println!();
    println!("recovery latency vs drop rate ({sweep_seeds} seeds per point):");
    println!(
        "{:>7} {:>5} {:>7} {:>7} {:>9} {:>10} {:>10} {:>10}",
        "drop%", "mode", "lost", "retx", "rtxB", "p50", "p99", "p999"
    );
    let mut sweep_bytes = vec![vec![0u64; SWEEP_PCTS.len()]; MODES.len()];
    for (mi, &(mode_name, mode)) in MODES.iter().enumerate() {
        for (pi, &pct) in SWEEP_PCTS.iter().enumerate() {
            let mut hist = LogHistogram::new();
            let (mut lost, mut retx, mut retx_bytes) = (0u64, 0u64, 0u64);
            for s in 0..sweep_seeds {
                let plan = FaultPlan::new(0xFA2001 + 0x77 * s).drop(pct as f64 / 100.0);
                let r = run(Some(plan), mode);
                let masked = r.masked(&reference[mi]);
                if !masked {
                    failures += 1;
                    eprintln!("  sweep drop{pct}/{mode_name}/seed{s}: diverged");
                }
                let recovery = r.finished_at.saturating_sub(reference[mi].finished_at);
                // Record in nanoseconds: sub-microsecond recoveries stay
                // resolvable and the histogram's ≤1% relative error is
                // far below run-to-run variance.
                hist.record(recovery.as_ps() / 1_000);
                lost += r.frames_lost;
                retx += r.retransmits;
                retx_bytes += r.retx_bytes;
            }
            sweep_bytes[mi][pi] = retx_bytes;
            let p50_us = hist.quantile(0.50) as f64 / 1_000.0;
            let p99_us = hist.quantile(0.99) as f64 / 1_000.0;
            let p999_us = hist.quantile(0.999) as f64 / 1_000.0;
            for (leaf, v) in [
                ("frames_lost", lost as f64),
                ("retransmits", retx as f64),
                ("retx_bytes", retx_bytes as f64),
                ("recovery_p50_us", p50_us),
                ("recovery_p99_us", p99_us),
                ("recovery_p999_us", p999_us),
            ] {
                metrics.set(&format!("sweep.{mode_name}.drop{pct}.{leaf}"), Json::Num(v));
            }
            println!(
                "{:>7} {:>5} {:>7} {:>7} {:>9} {:>9.3}u {:>9.3}u {:>9.3}u",
                pct, mode_name, lost, retx, retx_bytes, p50_us, p99_us, p999_us
            );
        }
    }
    // The wire-efficiency gate: selective retransmit exists to resend
    // less. At drop rates ≥ 5% it must beat go-back-N on retransmitted
    // bytes, strictly.
    for (pi, &pct) in SWEEP_PCTS.iter().enumerate() {
        if pct < 5 {
            continue;
        }
        let (gbn, sack) = (sweep_bytes[0][pi], sweep_bytes[1][pi]);
        if sack >= gbn {
            failures += 1;
            eprintln!(
                "tg fault: at drop{pct}% SACK retransmitted {sack} bytes, \
                 go-back-N {gbn} — selective retransmit is not paying for itself"
            );
        }
    }

    // ---- Crash-stop campaign -------------------------------------------
    //
    // Node crashes, crash+restart, a routed-around switch outage and a
    // disconnecting partition, per retransmit discipline: every scenario
    // must detect the failure (heartbeat conviction), resolve or route
    // around it, and replay bit for bit under the same seed. Detection
    // and recovery latency go through log-scale histograms.
    println!();
    println!("crash-stop campaign ({n_seeds} seeds per scenario x discipline):");
    println!(
        "{:<13} {:>5} {:>6} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}  status",
        "scenario",
        "mode",
        "downs",
        "ups",
        "opfail",
        "det p50",
        "det p99",
        "det p999",
        "rec p50",
        "rec p99",
        "rec p999"
    );
    for scenario in CRASH_SCENARIOS {
        for &(mode_name, mode) in MODES.iter() {
            let reference = (scenario != "partition").then(|| crash_run(scenario, mode, None));
            let ref_finish = reference.as_ref().map(|r| r.finished_at);
            let mut detect = LogHistogram::new();
            let mut recover = LogHistogram::new();
            let (mut downs, mut ups, mut opfails) = (0u64, 0u64, 0u64);
            let mut ok = true;
            for s in 0..n_seeds {
                let seed = 0xC8A5_0001 + 0x915 * s;
                let r = crash_run(scenario, mode, Some(seed));
                downs += r.peer_downs;
                ups += r.peer_ups;
                opfails += r.op_failures;
                let mut bad = Vec::new();
                if !r.completed {
                    bad.push("did not complete".to_string());
                }
                if !r.violations.is_empty() {
                    bad.push(format!("conservation: {:?}", r.violations));
                }
                match r.detect_ns {
                    Some(d) => detect.record(d),
                    None => bad.push("failure never detected".to_string()),
                }
                if let Some(reft) = ref_finish {
                    let rec_ns = r.finished_at.saturating_sub(reft).as_ps() / 1_000;
                    recover.record(rec_ns);
                    metrics.set(
                        &format!("campaign.{scenario}.{mode_name}.seed{s}.recovery_us"),
                        Json::Num(rec_ns as f64 / 1_000.0),
                    );
                }
                match scenario {
                    "crash" if r.op_failures == 0 => {
                        bad.push("no structured op failure on a crashed peer".to_string());
                    }
                    "crashrestart" if r.peer_ups == 0 => {
                        bad.push("restart never rehabilitated the peer".to_string());
                    }
                    "partition" if r.partition.is_empty() => {
                        bad.push("disconnecting cut did not name the partition".to_string());
                    }
                    _ => {}
                }
                metrics.set(
                    &format!("campaign.{scenario}.{mode_name}.seed{s}.detect_us"),
                    Json::Num(r.detect_ns.unwrap_or(0) as f64 / 1_000.0),
                );
                if !bad.is_empty() {
                    failures += 1;
                    ok = false;
                    for b in bad {
                        eprintln!("  campaign {scenario}/{mode_name}/seed{s}: {b}");
                    }
                }
            }
            // Replay gate: the same seeded schedule must reproduce the
            // run bit for bit — memory, counters, verdicts and times.
            let a = crash_run(scenario, mode, Some(0xC8A5_0001));
            let b = crash_run(scenario, mode, Some(0xC8A5_0001));
            if a.fingerprint != b.fingerprint {
                failures += 1;
                ok = false;
                eprintln!("  campaign {scenario}/{mode_name}: seeded replay diverged");
                eprintln!("    first : {}", a.fingerprint);
                eprintln!("    second: {}", b.fingerprint);
            }
            let q = |h: &LogHistogram, p: f64| h.quantile(p) as f64 / 1_000.0;
            for (leaf, v) in [
                ("detect_p50_us", q(&detect, 0.50)),
                ("detect_p99_us", q(&detect, 0.99)),
                ("detect_p999_us", q(&detect, 0.999)),
                ("recovery_p50_us", q(&recover, 0.50)),
                ("recovery_p99_us", q(&recover, 0.99)),
                ("recovery_p999_us", q(&recover, 0.999)),
            ] {
                metrics.set(
                    &format!("campaign.{scenario}.{mode_name}.{leaf}"),
                    Json::Num(v),
                );
            }
            println!(
                "{:<13} {:>5} {:>6} {:>6} {:>6} {:>9.1}u {:>9.1}u {:>9.1}u {:>9.1}u {:>9.1}u \
                 {:>9.1}u  {}",
                scenario,
                mode_name,
                downs,
                ups,
                opfails,
                q(&detect, 0.50),
                q(&detect, 0.99),
                q(&detect, 0.999),
                q(&recover, 0.50),
                q(&recover, 0.99),
                q(&recover, 0.999),
                if ok { "ok" } else { "FAIL" }
            );
        }
    }

    // Heartbeat overhead gate: on the zero-fault reliable ping-pong
    // workload, running the failure detector must cost at most 2% on the
    // mean remote-operation latency.
    let (base, with_hb) = (pingpong_op_latency(false), pingpong_op_latency(true));
    let overhead = (with_hb - base) / base;
    metrics.set(
        "campaign.heartbeat_overhead_pct",
        Json::Num(overhead * 100.0),
    );
    println!();
    println!(
        "heartbeat overhead on zero-fault ping-pong: {:.3}us -> {:.3}us ({:+.2}%)",
        base,
        with_hb,
        overhead * 100.0
    );
    if overhead > 0.02 {
        failures += 1;
        eprintln!(
            "tg fault: heartbeat overhead {:.2}% exceeds the 2% budget",
            overhead * 100.0
        );
    }

    if let Some(path) = &report {
        write_report(
            path,
            "simfault",
            [
                ("nodes", Json::Num(f64::from(NODES))),
                ("seeds", Json::Num(n_seeds as f64)),
                ("sweep_seeds", Json::Num(sweep_seeds as f64)),
                ("metrics", metrics),
            ],
        )?;
        println!();
        println!("wrote {path}");
    }

    println!();
    if failures > 0 {
        Err(format!("{failures} run(s) diverged"))
    } else {
        println!("tg fault: all faulted runs fully masked in both disciplines");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deadlock report of the campaign's partition scenario (first
    /// seed), in both disciplines. Node 0 hears the partition's verdict
    /// notice as soon as switch 0 convicts switch 1, so its operations
    /// fail, and the run stops progressing, a watchdog window earlier
    /// than when it waited out per-period digests (1.200ms).
    #[test]
    fn partition_report_text_is_pinned() {
        let want = "no progress for a full watchdog window (declared at 900.000us, \
                    66 units committed):\n\
                    \x20 PARTITION: live nodes unreachable by routing: node1, node2\n";
        for mode in [RetxMode::GoBackN, RetxMode::Sack] {
            let (mut cluster, _) = crash_cluster("partition", mode, Some(0xC8A5_0001));
            let _collector = cluster.enable_tracing();
            cluster.enable_heartbeats(DetectParams::default());
            let report = cluster
                .drive(Drive::watchdog(SimTime::from_us(300)))
                .expect_err("a disconnecting cut trips the watchdog");
            assert_eq!(report.to_string(), want, "{mode:?}");
        }
    }
}
