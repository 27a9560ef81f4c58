//! `tg report` — critical-path latency attribution and the congestion
//! observatory; `tg gate` — the perf-regression gate.
//!
//! * `report` runs a harness workload (`stencil16`, the default, on 16
//!   nodes at 12 sweeps, or `pingpong` on 4) with tracing and metric
//!   sampling enabled, prints the per-hop critical-path attribution
//!   (p50/p99 exemplars whose segments sum *exactly* to their measured
//!   latency), names the hottest `--top K` links (default 5), and writes
//!   a `tg-report-v2` report (default `report.json`). `--perfetto FILE`
//!   additionally exports a Chrome trace with the congestion time series
//!   as counter tracks.
//! * `gate` diffs a current report against a committed baseline with
//!   direction-aware per-metric tolerances and exits non-zero on any
//!   regression — the CI perf gate.

use std::collections::HashMap;

use telegraphos::observe::{chrome_events, chrome_trace_json, counter_track_events};
use telegraphos_suite::harness::Args;
use tg_analyze::{
    attribute_ops, exemplar_at, gate_reports, hottest_links, link_usage, Json, LinkUsage,
    OpAttribution, SegClass, Tolerances,
};
use tg_sim::{LogHistogram, SimTime};

use crate::{write_report, Run, Workload, PINGPONG};

static WORKLOADS: [Workload; 2] = [
    Workload {
        name: "stencil16",
        stencil_iters: Some(12),
        nodes: 16,
    },
    PINGPONG,
];

/// Latency aggregate of one op kind.
struct KindStats {
    kind: &'static str,
    attribs: Vec<OpAttribution>,
    hist: LogHistogram,
}

fn kind_stats(attribs: Vec<OpAttribution>) -> Vec<KindStats> {
    let mut order: Vec<&'static str> = Vec::new();
    let mut by_kind: HashMap<&'static str, Vec<OpAttribution>> = HashMap::new();
    for a in attribs {
        let kind = a.op.kind.label();
        if !by_kind.contains_key(kind) {
            order.push(kind);
        }
        by_kind.entry(kind).or_default().push(a);
    }
    order
        .into_iter()
        .map(|kind| {
            let attribs = by_kind.remove(kind).expect("indexed");
            let mut hist = LogHistogram::new();
            for a in &attribs {
                hist.record(a.latency().as_ns());
            }
            KindStats {
                kind,
                attribs,
                hist,
            }
        })
        .collect()
}

fn exemplar_json(a: &OpAttribution) -> Json {
    let mut e = Json::obj();
    e.set("latency_ns", Json::Num(a.latency().as_ns() as f64));
    e.set(
        "segments",
        Json::Arr(
            a.segments
                .iter()
                .filter(|s| !s.dur.is_zero())
                .map(|s| {
                    let mut seg = Json::obj();
                    seg.set("name", Json::Str(s.hop_label()));
                    seg.set("ns", Json::Num(s.dur.as_ns() as f64));
                    seg
                })
                .collect(),
        ),
    );
    e
}

fn link_json(u: &LinkUsage) -> Json {
    let mut l = Json::obj();
    l.set("link", Json::Str(u.name.clone()));
    l.set("mean_utilization", Json::Num(u.mean_utilization));
    l.set("peak_utilization", Json::Num(u.peak_utilization));
    l.set("peak_fifo_depth", Json::Num(u.peak_fifo_depth));
    l.set("fifo_high_water", Json::Num(u.fifo_high_water));
    l.set("stall_us", Json::Num(u.stall_us));
    l.set("tx_packets", Json::Num(u.tx_packets as f64));
    l.set("tx_bytes", Json::Num(u.tx_bytes as f64));
    l.set("retransmits", Json::Num(u.retransmits as f64));
    l.set("rx_discards", Json::Num(u.rx_discards as f64));
    l
}

fn print_exemplar(tag: &str, kind: &str, a: &OpAttribution) {
    let mut sum = SimTime::ZERO;
    println!(
        "  {tag} {kind} exemplar ({:.3} us):",
        a.latency().as_us_f64()
    );
    for s in &a.segments {
        if s.dur.is_zero() {
            continue;
        }
        sum += s.dur;
        println!("    {:<32} {:>9.3} us", s.hop_label(), s.dur.as_us_f64());
    }
    // The telescoping invariant, surfaced where a reader can see it.
    let exact = if sum == a.latency() {
        "exact"
    } else {
        "MISMATCH"
    };
    println!("    {:<32} {:>9.3} us ({exact})", "sum", sum.as_us_f64());
}

pub(crate) fn main(mut args: Args) -> Result<(), String> {
    let perfetto: Option<String> = args.value("--perfetto")?;
    let top = args.value("--top")?.unwrap_or(5);
    let run = Run::parse(&mut args, &WORKLOADS, "report.json")?;
    args.finish()?;
    let (cluster, collector, metrics) = run.execute(true)?;

    let ops = collector.op_events();
    let packets = collector.packet_events();
    let attribs = attribute_ops(&ops, &packets);
    for a in &attribs {
        if a.total() != a.latency() {
            return Err(format!(
                "attribution for {} on node{} sums to {} but the op took {}",
                a.op.kind,
                a.op.node.raw(),
                a.total(),
                a.latency()
            ));
        }
    }
    let kinds = kind_stats(attribs);
    let usage = link_usage(&metrics);
    let hottest = hottest_links(&usage, top);

    // ---- report.json ------------------------------------------------
    let mut latency = Json::obj();
    let mut attribution = Json::obj();
    let mut exemplars = Json::obj();
    for k in &kinds {
        let mut l = Json::obj();
        l.set("count", Json::Num(k.hist.count() as f64));
        l.set("mean_ns", Json::Num(k.hist.mean()));
        l.set("p50_ns", Json::Num(k.hist.quantile(0.5) as f64));
        l.set("p99_ns", Json::Num(k.hist.quantile(0.99) as f64));
        l.set("p999_ns", Json::Num(k.hist.quantile(0.999) as f64));
        latency.set(k.kind, l);

        let mut cl = Json::obj();
        for &class in &SegClass::ALL {
            let total = k
                .attribs
                .iter()
                .flat_map(|a| &a.segments)
                .filter(|s| s.class == class)
                .fold(SimTime::ZERO, |acc, s| acc + s.dur);
            cl.set(
                &format!("{}_us", class.label()),
                Json::Num(total.as_us_f64()),
            );
        }
        attribution.set(k.kind, cl);

        let mut ex = Json::obj();
        for (tag, q) in [("p50", 0.5), ("p99", 0.99)] {
            if let Some(a) = exemplar_at(&k.attribs, q) {
                ex.set(tag, exemplar_json(a));
            }
        }
        exemplars.set(k.kind, ex);
    }
    let mut counters = Json::obj();
    for (name, value) in metrics.counters() {
        counters.set(name, Json::Num(value as f64));
    }
    let nodes = run.opts.nodes;
    write_report(
        &run.out,
        run.workload.name,
        [
            ("nodes", Json::Num(f64::from(nodes))),
            ("sim_time_us", Json::Num(cluster.now().as_us_f64())),
            ("latency", latency),
            ("attribution", attribution),
            ("exemplars", exemplars),
            (
                "hottest_links",
                Json::Arr(hottest.iter().map(link_json).collect()),
            ),
            ("metrics", counters),
        ],
    )?;

    // ---- Perfetto export with counter tracks ------------------------
    if let Some(path) = &perfetto {
        let mut events = chrome_events(&ops, &packets);
        events.extend(counter_track_events(&metrics));
        std::fs::write(path, chrome_trace_json(&events))
            .map_err(|e| format!("write {path}: {e}"))?;
    }

    // ---- console report ---------------------------------------------
    if !run.quiet {
        println!(
            "{}: {} nodes, {} traced ops, {} packet events, sim time {:.1} us -> {}",
            run.workload.name,
            nodes,
            kinds.iter().map(|k| k.hist.count()).sum::<u64>(),
            packets.len(),
            cluster.now().as_us_f64(),
            run.out
        );
        println!("latency (us): kind count p50 p99 p999");
        for k in &kinds {
            println!(
                "  {:<14} x{:<5} {:>8.3} {:>8.3} {:>8.3}",
                k.kind,
                k.hist.count(),
                k.hist.quantile(0.5) as f64 / 1000.0,
                k.hist.quantile(0.99) as f64 / 1000.0,
                k.hist.quantile(0.999) as f64 / 1000.0,
            );
        }
        println!("critical-path attribution:");
        for k in &kinds {
            for (tag, q) in [("p50", 0.5), ("p99", 0.99)] {
                if let Some(a) = exemplar_at(&k.attribs, q) {
                    print_exemplar(tag, k.kind, a);
                }
            }
        }
        println!("hottest links (top {top}):");
        for (i, u) in hottest.iter().enumerate() {
            println!(
                "  {}. {:<22} util {:.3} (peak {:.3})  stall {:>8.1} us  fifo hw {:>3}  {} pkts",
                i + 1,
                u.name,
                u.mean_utilization,
                u.peak_utilization,
                u.stall_us,
                u.fifo_high_water,
                u.tx_packets
            );
        }
        if let Some(top) = hottest.first() {
            println!("saturated link: {}", top.name);
        }
    }
    Ok(())
}

pub(crate) fn gate(mut args: Args) -> Result<(), String> {
    let baseline: String = args.value("--baseline")?.ok_or("needs --baseline")?;
    let current: String = args.value("--current")?.ok_or("needs --current")?;
    let mut tol = Tolerances::exact();
    tol.default_rel = args.value("--default-tol")?.unwrap_or(tol.default_rel);
    tol.skip = args.values("--skip")?;
    for v in args.values::<String>("--tol")? {
        let bad = || format!("bad --tol {v} (want PATTERN=REL)");
        let (pattern, rel) = v.split_once('=').ok_or_else(bad)?;
        let rel = rel.parse().map_err(|_| bad())?;
        tol.per_metric.push((pattern.to_string(), rel));
    }
    args.finish()?;
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        // v1 baselines stay gateable: they are a strict field subset of
        // v2, and current-only metrics are informational, not failures.
        if let Some(tag) = doc.get("schema").and_then(|s| s.as_str()) {
            if !tg_analyze::schema_accepted(tag) {
                return Err(format!("{path}: unsupported report schema {tag:?}"));
            }
        }
        Ok(doc)
    };
    let result = gate_reports(&read(&baseline)?, &read(&current)?, &tol);
    for f in &result.failures {
        eprintln!("gate: REGRESSION {f}");
    }
    if !result.new_metrics.is_empty() {
        println!(
            "gate: note: {} new metric(s) absent from the baseline (refresh it to gate them)",
            result.new_metrics.len()
        );
    }
    if result.passed() {
        println!(
            "gate: ok ({} metrics within tolerance, {baseline} vs {current})",
            result.checked
        );
        Ok(())
    } else {
        Err(format!(
            "FAILED ({} of {} metrics regressed)",
            result.failures.len(),
            result.checked
        ))
    }
}
