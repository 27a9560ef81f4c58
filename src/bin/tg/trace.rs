//! `tg trace` — packet-lifecycle tracing and Chrome-trace export.
//!
//! Runs a small cluster workload with the observability probe installed,
//! then writes a Chrome trace-event JSON file (loadable in Perfetto or
//! `chrome://tracing`, default `trace.json`) and prints the per-stage
//! latency breakdown the paper's §3.2 cost analysis is built from.
//!
//! * `pingpong` (default) — every node stores into, fences on, reads from
//!   and atomically increments a page homed on its ring neighbor.
//! * `stencil` — an N-node Jacobi stencil over eager-update boundary
//!   pages, at trace-friendly scale (4 sweeps).
//! * `--metrics` — sample congestion metrics every `--interval-us` while
//!   running (crash runs included) and print the registry.
//! * Harness flags — injected frame faults make the trace show `dropped`,
//!   `retransmit` and `credit-resync` lifecycle points; crash-stop flags
//!   add `peer-down` / `peer-up` verdict points.
//! * `--check` — verify the export: the JSON is well-formed, timestamps
//!   are monotonically non-decreasing per track, per-stage breakdowns
//!   sum exactly to the end-to-end latencies in `NodeStats`, and the
//!   fault-recovery trace reconciles with the fabric counters (traced
//!   retransmits == `fabric_retransmits()`, traced drops == injector
//!   drops + outage drops + link-layer discards, traced credit-resync
//!   events == resync probes issued + resyncs applied, control-frame
//!   checksum discards == injector control corruptions, no drops traced
//!   on a lossless run, conservation intact). Exits non-zero on any
//!   violation. Under a crash-stop plan the masking checks give way to
//!   verdict reconciliation: every traced `peer-down` names a site inside
//!   a declared crash window, every `peer-up` follows a declared restart,
//!   a crash window still open while traffic flows past the detector's
//!   silence floor produced at least one verdict, and a crash-free run
//!   traced no verdicts at all.

use std::collections::HashMap;

use telegraphos::observe::{
    breakdown_report, chrome_events, chrome_trace_json, json_is_wellformed, ChromeEvent,
};
use telegraphos::{
    Cluster, ClusterEvent, ComponentDetail, CrashWindow, DetectParams, TraceCollector,
};
use telegraphos_suite::harness::Args;
use tg_sim::SimTime;
use tg_wire::trace::{OpKind, PacketEvent, Site, Stage};

use crate::{Run, Workload, PINGPONG};

static WORKLOADS: [Workload; 2] = [
    PINGPONG,
    Workload {
        name: "stencil",
        stencil_iters: Some(4),
        nodes: 4,
    },
];

/// Verifies the export invariants; returns a list of violations.
fn check_export(
    cluster: &Cluster,
    collector: &TraceCollector,
    events: &[ChromeEvent],
    json: &str,
) -> Vec<String> {
    let mut problems = Vec::new();
    if !json_is_wellformed(json) {
        problems.push("exported Chrome trace is not well-formed JSON".to_string());
    }
    // Monotonically non-decreasing timestamps per (pid, tid) track.
    let mut last: HashMap<(u32, u32), f64> = HashMap::new();
    for ev in events {
        let t = last.entry((ev.pid, ev.tid)).or_insert(0.0);
        if ev.ts_us < *t {
            problems.push(format!(
                "ts went backwards on track ({}, {}): {} < {}",
                ev.pid, ev.tid, ev.ts_us, t
            ));
        }
        *t = ev.ts_us;
    }
    let packets = collector.packet_events();
    let windows = cluster
        .fault_plan()
        .map(|p| p.crash_windows().to_vec())
        .unwrap_or_default();
    // The masking reconciliations below assume every fault is recovered
    // from; a crash-stop plan deliberately breaks that (ops fail
    // structurally, frames are abandoned to dead incarnations), so those
    // checks only run on crash-free plans. Crash runs get the peer-verdict
    // reconciliation at the end instead.
    let crashy = !windows.is_empty();
    if crashy {
        check_peer_verdicts(&windows, &packets, &mut problems);
        problems.extend(cluster.conservation_violations());
        return problems;
    }
    // Per-stage breakdowns telescope to the op's end-to-end window.
    for b in collector.breakdowns() {
        let total = b.total();
        let window = b.op.end.saturating_sub(b.op.start);
        if total != window {
            problems.push(format!(
                "breakdown for {} on node{} sums to {} but the op took {}",
                b.op.kind,
                b.op.node.raw(),
                total,
                window
            ));
        }
    }
    // Probe-observed latencies reconcile with the NodeStats summaries the
    // experiments read (within float rounding: summaries store microsecond
    // floats).
    let mut observed: HashMap<(u16, &'static str), (u64, f64)> = HashMap::new();
    for op in collector.op_events() {
        let e = observed
            .entry((op.node.raw(), op.kind.label()))
            .or_insert((0, 0.0));
        e.0 += 1;
        e.1 += op.end.saturating_sub(op.start).as_us_f64();
    }
    for i in 0..cluster.node_count() {
        let st = cluster.node(i).stats();
        let classes = [
            (OpKind::RemoteRead.label(), &st.remote_reads),
            (OpKind::RemoteWrite.label(), &st.remote_writes),
            (OpKind::Atomic.label(), &st.atomics),
        ];
        for (label, summary) in classes {
            let (count, sum_us) = observed.get(&(i, label)).copied().unwrap_or((0, 0.0));
            if count != summary.count() {
                problems.push(format!(
                    "node{i} {label}: probe saw {count} ops, NodeStats {}",
                    summary.count()
                ));
                continue;
            }
            let want = summary.mean() * summary.count() as f64;
            if (sum_us - want).abs() > 1e-6 * (1.0 + want.abs()) {
                problems.push(format!(
                    "node{i} {label}: probe total {sum_us:.6}us, NodeStats {want:.6}us"
                ));
            }
        }
    }
    // Fault-recovery trace reconciles with the fabric counters: the probe
    // sees exactly the retransmissions the ports count, every frame the
    // injector killed shows up as a dropped lifecycle point, and a
    // lossless run traces no drops at all. Either way, a drained fabric
    // must still conserve credits and packets.
    let stage_count = |stage: Stage| packets.iter().filter(|e| e.stage == stage).count() as u64;
    let retx = stage_count(Stage::Retransmit);
    if retx != cluster.fabric_retransmits() {
        problems.push(format!(
            "trace saw {retx} retransmits, ports count {}",
            cluster.fabric_retransmits()
        ));
    }
    // Credit-resync events reconcile exactly: every probe issued and every
    // applied resync is traced once (outage recovery included — resyncs
    // triggered by an outage window land in the same counters).
    let resync_events = stage_count(Stage::CreditResync);
    let resync_counters = cluster.fabric_resync_probes() + cluster.fabric_resyncs();
    if resync_events != resync_counters {
        problems.push(format!(
            "trace saw {resync_events} credit-resync events, ports count \
             {} probes + {} applied = {resync_counters}",
            cluster.fabric_resync_probes(),
            cluster.fabric_resyncs()
        ));
    }
    // Dropped events reconcile exactly against the port counters: every
    // injector kill (random drops + outage windows) and every link-layer
    // discard (corrupt frames, sequence gaps, duplicates) is traced once.
    // Receive-FIFO overflows are recorded as link errors without a
    // lifecycle point, so exactness is only claimed on overflow-free runs.
    let dropped = stage_count(Stage::Dropped);
    let injected = cluster
        .fault_stats()
        .map_or(0, |fs| fs.drops + fs.outage_drops);
    let discards = cluster.fabric_rx_discards();
    if cluster.link_errors().is_empty() {
        if dropped != injected + discards {
            problems.push(format!(
                "trace saw {dropped} dropped frames, counters say \
                 {injected} injected + {discards} link-layer discards"
            ));
        }
    } else if dropped < injected {
        problems.push(format!(
            "injector killed {injected} frames but only {dropped} traced as dropped"
        ));
    }
    if cluster.fault_stats().is_none() && dropped != discards {
        problems.push(format!(
            "{dropped} frames traced as dropped on a lossless run \
             ({discards} link-layer discards)"
        ));
    }
    // Control-plane reconciliation: a corrupted control frame always
    // arrives and is discarded on its checksum, so the fabric's discard
    // counter must equal the injector's corruption counter exactly.
    // (Dropped control frames never arrive and leave no receiver-side
    // trace; the retransmit/resync machinery absorbs them.)
    let ctrl_corrupts = cluster.fault_stats().map_or(0, |fs| fs.ctrl_corrupts);
    let ctrl_discards = cluster.fabric_ctrl_discards();
    if ctrl_discards != ctrl_corrupts {
        problems.push(format!(
            "fabric discarded {ctrl_discards} control frames, \
             injector corrupted {ctrl_corrupts}"
        ));
    }
    // No crash windows were declared, so no peer may have been convicted:
    // a peer-down verdict on a healthy fabric is a false conviction.
    let false_convictions = stage_count(Stage::PeerDown);
    if false_convictions > 0 {
        problems.push(format!(
            "{false_convictions} peer-down verdict(s) traced with no crash window declared"
        ));
    }
    problems.extend(cluster.conservation_violations());
    problems
}

/// Deliveries per event kind, summed over nodes and over switches: one
/// line each, nonzero kinds only, in [`ClusterEvent::KINDS`] order.
fn kind_report(cluster: &Cluster) -> String {
    let (mut nodes, mut switches) = (
        [0u64; ClusterEvent::KINDS.len()],
        [0u64; ClusterEvent::KINDS.len()],
    );
    for r in cluster.component_stats() {
        let sum = match r.detail {
            ComponentDetail::Node { .. } => &mut nodes,
            ComponentDetail::Switch { .. } => &mut switches,
        };
        for (s, k) in sum.iter_mut().zip(r.kinds) {
            *s += k;
        }
    }
    let line = |who: &str, sum: &[u64]| {
        let kinds: Vec<String> = ClusterEvent::KINDS
            .iter()
            .zip(sum)
            .filter(|(_, &n)| n > 0)
            .map(|(name, n)| format!("{name} {n}"))
            .collect();
        format!("{who} deliveries by kind: {}\n", kinds.join(", "))
    };
    line("node", &nodes) + &line("switch", &switches)
}

/// Reconciles traced peer-down / peer-up verdicts against the injector's
/// declared crash schedule: every conviction names a site the plan could
/// actually have silenced, no earlier than its window opens (a dead
/// *switch* cuts node↔node heartbeat paths, so node verdicts during a
/// switch window are legitimate indirect observations); every
/// rehabilitation follows a closed window; and a crash window still open
/// while traffic flows past the detector's silence floor
/// (`DetectParams::default().peer_timeout`, the floor `tg trace` runs
/// with) produced at least one conviction.
fn check_peer_verdicts(
    windows: &[CrashWindow],
    packets: &[PacketEvent],
    problems: &mut Vec<String>,
) {
    // Switch peers ride in the trace id with the top bit set (node ids
    // stay below it); see the switch-side `emit_peer`.
    let peer_of = |ev: &PacketEvent| -> Site {
        let raw = ev.trace.src().raw();
        if raw & 0x8000 != 0 {
            Site::Switch(raw & 0x7fff)
        } else {
            Site::Node(tg_wire::NodeId::new(raw))
        }
    };
    // A window explains a verdict about `peer` observed from `from` if it
    // names the peer itself, the observer (a crashed workstation's world
    // goes dark: its own detector convicts everyone, then rehabilitates
    // them after its restart), or a switch (whose silence severs paths
    // between arbitrary node pairs).
    let explains = |w: &CrashWindow, peer: Site, observer: Site| -> bool {
        w.site == peer || w.site == observer || matches!(w.site, Site::Switch(_))
    };
    let mut convictions = 0u64;
    for ev in packets.iter().filter(|e| e.stage == Stage::PeerDown) {
        let peer = peer_of(ev);
        convictions += 1;
        if !windows
            .iter()
            .any(|w| explains(w, peer, ev.site) && ev.at >= w.from)
        {
            problems.push(format!(
                "peer-down verdict for {peer:?} at {} matches no declared crash window",
                ev.at
            ));
        }
    }
    for ev in packets.iter().filter(|e| e.stage == Stage::PeerUp) {
        let peer = peer_of(ev);
        if !windows
            .iter()
            .any(|w| explains(w, peer, ev.site) && w.until != SimTime::MAX && ev.at >= w.until)
        {
            problems.push(format!(
                "peer-up verdict for {peer:?} at {} precedes any declared restart",
                ev.at
            ));
        }
    }
    // Only demand a conviction of a window that stays open past the
    // detector's silence floor while the fabric still carries traffic: a
    // crash scheduled after quiescence (or after heartbeats stopped), or
    // one that restarts before the floor elapses, convicts no one, and
    // that is correct.
    let timeout = DetectParams::default().peer_timeout;
    let overdue = windows.iter().any(|w| {
        let due = w.from + timeout;
        packets.iter().any(|ev| {
            (due..w.until).contains(&ev.at) && !matches!(ev.stage, Stage::PeerDown | Stage::PeerUp)
        })
    });
    if convictions == 0 && overdue {
        problems.push("a crash was declared but no peer-down verdict was traced".to_string());
    }
}

pub fn main(mut args: Args) -> Result<(), String> {
    let run = Run::parse(&mut args, &WORKLOADS, "trace.json")?;
    let (sampled, check) = (args.switch("--metrics"), args.switch("--check"));
    args.finish()?;
    let (cluster, collector, metrics) = run.execute(sampled)?;

    let ops = collector.op_events();
    let packets = collector.packet_events();
    let events = chrome_events(&ops, &packets);
    let json = chrome_trace_json(&events);
    std::fs::write(&run.out, &json).map_err(|e| format!("write {}: {e}", run.out))?;

    if !run.quiet {
        println!(
            "{}: {} ops, {} packet events, {} trace events -> {}",
            run.workload.name,
            ops.len(),
            packets.len(),
            events.len(),
            run.out
        );
        // On stderr, so the stdout summary keeps its shape.
        let engine = cluster.engine_stats();
        eprintln!(
            "engine: {} events delivered, {} absorbed, {} inlined",
            engine.events_delivered, engine.events_absorbed, engine.events_inlined
        );
        eprint!("{}", kind_report(&cluster));
        print!("{}", breakdown_report(&collector.breakdowns()));
        if run.opts.reliable {
            let fs = cluster.fault_stats();
            println!(
                "recovery: {} retransmits ({} bytes), {} resyncs, {} frames lost, \
                 {} corrupted, {} ctrl lost, {} ctrl corrupted",
                cluster.fabric_retransmits(),
                cluster.fabric_retx_bytes(),
                cluster.fabric_resyncs(),
                fs.as_ref().map_or(0, |s| s.drops + s.outage_drops),
                fs.as_ref().map_or(0, |s| s.corrupts),
                fs.as_ref().map_or(0, |s| s.ctrl_drops),
                fs.as_ref().map_or(0, |s| s.ctrl_corrupts),
            );
        }
        if sampled {
            print!("{metrics}");
        }
    }

    if check {
        let problems = check_export(&cluster, &collector, &events, &json);
        for p in &problems {
            eprintln!("tg trace check: {p}");
        }
        if !problems.is_empty() {
            return Err(format!("check found {} problem(s)", problems.len()));
        }
        println!(
            "check: ok (json well-formed, tracks monotonic, breakdowns and \
             fault-recovery counters reconcile)"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use telegraphos_suite::harness::{self, HarnessOptions};

    /// `tg trace pingpong --crash 1,40` with its peer-down verdicts
    /// removed: the window stays open long past the silence floor while
    /// survivors retransmit into it, so the check must fire.
    #[test]
    fn a_long_window_without_verdicts_fails_the_check() {
        let opts = HarnessOptions {
            reliable: true,
            heartbeats: true,
            crash: Some((1, 40)),
            ..HarnessOptions::default()
        };
        let mut cluster = harness::build_pingpong(&opts);
        let collector = cluster.enable_tracing();
        assert!(harness::run_cluster(&mut cluster, &opts, None));
        let windows = cluster
            .fault_plan()
            .expect("crash plan")
            .crash_windows()
            .to_vec();
        let mut packets = collector.packet_events();
        let check = |packets: &[PacketEvent]| {
            let mut problems = Vec::new();
            check_peer_verdicts(&windows, packets, &mut problems);
            problems
        };
        assert_eq!(check(&packets), Vec::<String>::new());
        packets.retain(|ev| ev.stage != Stage::PeerDown);
        assert_eq!(
            check(&packets),
            ["a crash was declared but no peer-down verdict was traced"]
        );
    }
}
