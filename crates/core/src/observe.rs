//! Cluster-level observability: per-stage latency breakdowns and Chrome
//! trace-event export.
//!
//! [`Cluster::enable_tracing`](crate::Cluster::enable_tracing) gives every
//! HIB, switch and node CPU a [`Tracer`](tg_wire::trace::Tracer) on one
//! [`TraceCollector`](tg_wire::trace::TraceCollector), which logs raw [`PacketEvent`]s and [`OpEvent`]s;
//! this module turns them into the artifacts the paper's §3.2 evaluation
//! is built from:
//!
//! * [`OpBreakdown`] — where one CPU-visible operation spent its time,
//!   stage by stage, telescoping exactly to the end-to-end latency the
//!   node's [`NodeStats`](crate::NodeStats) summaries record;
//! * [`chrome_events`] / [`chrome_trace_json`] — a Chrome trace-event
//!   (Perfetto-loadable) export of the whole run, with
//!   [`counter_track_events`] adding the congestion observatory's metric
//!   time series as counter tracks;
//! * [`op_chains`] — the merged request→response event chains the
//!   breakdowns are built from, for analyzers needing site/stage context;
//! * [`breakdown_report`] — a human-readable aggregate table.

use std::collections::HashMap;
use std::fmt::Write as _;

use tg_sim::{MetricsRegistry, SimTime};
use tg_wire::trace::{OpEvent, PacketEvent, Site, TraceId};

/// One segment of an operation's latency: the time spent reaching the
/// named lifecycle point from the previous one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Stage label (e.g. `"tx-launch"`); response-packet stages carry a
    /// `"resp-"` prefix. The first segment is `"cpu-issue"`, the last
    /// `"cpu-complete"`.
    pub label: String,
    /// Time spent in this segment.
    pub(crate) dur: SimTime,
}

/// Where one CPU-visible operation spent its time, stage by stage.
///
/// The segments telescope: they always sum exactly to `op.end - op.start`,
/// the same latency the issuing node's [`NodeStats`](crate::NodeStats)
/// summary recorded for this operation.
#[derive(Clone, Debug)]
pub struct OpBreakdown {
    /// The operation.
    pub op: OpEvent,
    /// Ordered per-stage segments.
    pub segments: Vec<Segment>,
}

impl OpBreakdown {
    /// Sum of all segments — by construction the operation's end-to-end
    /// latency.
    pub fn total(&self) -> SimTime {
        self.segments
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc + s.dur)
    }
}

/// One event on an operation's critical path: the merged, clamped view
/// that [`op_breakdowns`] builds its segments from, with the raw
/// [`PacketEvent`] retained so analyzers can attribute segments to sites,
/// stages and links.
#[derive(Clone, Copy, Debug)]
pub struct ChainedEvent {
    /// The underlying packet-lifecycle observation.
    pub event: PacketEvent,
    /// Observation time clamped into the op's `[start, end]` window — the
    /// instant the corresponding segment ends at.
    pub at: SimTime,
    /// True when the event belongs to a response packet chained to the
    /// op's request (its segment labels carry the `resp-` prefix).
    pub response: bool,
}

/// The merged request → response event chain of one traced operation, in
/// the exact order [`op_breakdowns`] consumes: stable-sorted by clamped
/// time, so segment `i` of the breakdown spans `events[i-1].at ..
/// events[i].at`.
#[derive(Clone, Debug)]
pub struct OpChain {
    /// The operation.
    pub op: OpEvent,
    /// Its critical-path events, clamped and time-ordered.
    pub events: Vec<ChainedEvent>,
}

/// Computes the merged critical-path event chain of every operation that
/// injected a traceable packet.
///
/// For each op the packet events of its request (same [`TraceId`]) and of
/// any response chained to it (`parent` equal to the request id) are
/// merged in time order and clamped to the op's `[start, end]` window.
/// [`op_breakdowns`] turns these chains into telescoping segments;
/// analyzers that need site/stage context (e.g. per-link attribution)
/// consume the chains directly.
pub fn op_chains(ops: &[OpEvent], packets: &[PacketEvent]) -> Vec<OpChain> {
    // Index packet events by the op they belong to (request id).
    let mut by_req: HashMap<TraceId, Vec<&PacketEvent>> = HashMap::new();
    for ev in packets {
        by_req.entry(ev.trace).or_default().push(ev);
        if let Some(parent) = ev.parent {
            if parent != ev.trace {
                by_req.entry(parent).or_default().push(ev);
            }
        }
    }
    // Chain responses: an event of trace R with parent Q files under Q
    // above; later events of trace R (switch hops, rx, commit) must follow.
    let mut resp_of: HashMap<TraceId, TraceId> = HashMap::new();
    for ev in packets {
        if let Some(parent) = ev.parent {
            if parent != ev.trace {
                resp_of.insert(ev.trace, parent);
            }
        }
    }
    for ev in packets {
        if let Some(&req) = resp_of.get(&ev.trace) {
            let entry = by_req.entry(req).or_default();
            if !entry.iter().any(|e| std::ptr::eq(*e, ev)) {
                entry.push(ev);
            }
        }
    }

    let mut out = Vec::new();
    for op in ops {
        let Some(req) = op.trace else { continue };
        let mut events: Vec<&PacketEvent> = by_req.get(&req).cloned().unwrap_or_default();
        // Emission order is delivery order; a stable sort on the clamped
        // time preserves causal order for same-instant events.
        events.sort_by_key(|e| e.at.max(op.start).min(op.end));
        let events = events
            .into_iter()
            .map(|ev| ChainedEvent {
                event: *ev,
                at: ev.at.max(op.start).min(op.end),
                response: ev.trace != req,
            })
            .collect();
        out.push(OpChain { op: *op, events });
    }
    out
}

/// Computes per-stage breakdowns for every operation that injected a
/// traceable packet.
///
/// The [`op_chains`] events become telescoping segments: `cpu-issue`
/// (issue to first packet event), one segment per lifecycle point
/// reached (`resp-`-prefixed for response packets), and `cpu-complete`
/// (last packet event to CPU-observed completion).
pub fn op_breakdowns(ops: &[OpEvent], packets: &[PacketEvent]) -> Vec<OpBreakdown> {
    op_chains(ops, packets)
        .into_iter()
        .map(|chain| {
            let op = chain.op;
            let mut segments = Vec::with_capacity(chain.events.len() + 2);
            let mut prev = op.start;
            for ev in &chain.events {
                let label = if ev.response {
                    format!("resp-{}", ev.event.stage.label())
                } else {
                    ev.event.stage.label().to_string()
                };
                segments.push(Segment {
                    label,
                    dur: ev.at.saturating_sub(prev),
                });
                prev = ev.at;
            }
            segments.insert(
                0,
                Segment {
                    label: "cpu-issue".to_string(),
                    dur: SimTime::ZERO,
                },
            );
            // Merge the leading zero-length placeholder with the first real
            // segment: time from issue to the first packet event is the CPU
            // issue cost.
            if segments.len() > 1 {
                let first = segments.remove(1);
                segments[0].dur = first.dur;
                segments[0].label = format!("cpu-issue\u{2192}{}", first.label);
            }
            segments.push(Segment {
                label: "cpu-complete".to_string(),
                dur: op.end.saturating_sub(prev),
            });
            OpBreakdown { op, segments }
        })
        .collect()
}

/// One Chrome trace-event, pre-serialization — exposed so checkers can
/// verify track monotonicity without re-parsing JSON.
#[derive(Clone, Debug)]
pub struct ChromeEvent {
    /// Event name shown on the track.
    pub(crate) name: String,
    /// Category (`"op"`, `"packet"`, `"metric"`, or `"__metadata"`).
    pub(crate) cat: &'static str,
    /// Phase: `'X'` complete, `'i'` instant, `'C'` counter, `'M'` metadata.
    pub ph: char,
    /// Timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (complete events only).
    pub(crate) dur_us: f64,
    /// Process id (track group): node index, or `1000 + switch index`.
    pub pid: u32,
    /// Thread id within the process: 0 = CPU ops, 1 = packets.
    pub tid: u32,
    /// Extra `args` key/value pairs (both rendered as JSON strings).
    pub(crate) args: Vec<(String, String)>,
    /// Numeric `args` entries, rendered as bare JSON numbers — counter
    /// (`'C'`) tracks need numeric values to plot.
    pub(crate) num_args: Vec<(String, f64)>,
}

/// Track-group id for a trace site.
fn site_pid(site: Site) -> u32 {
    match site {
        Site::Node(n) => u32::from(n.raw()),
        Site::Switch(s) => 1000 + u32::from(s),
    }
}

/// Builds the Chrome trace-event list for a run: one `'X'` span per
/// completed CPU operation (tid 0 of its node), one `'X'` span per
/// packet-lifecycle transition at each site (tid 1), and `'M'` metadata
/// naming the tracks. Events are sorted by timestamp, so `ts` is
/// monotonically non-decreasing on every track.
pub fn chrome_events(ops: &[OpEvent], packets: &[PacketEvent]) -> Vec<ChromeEvent> {
    let mut events = Vec::new();
    let mut pids: Vec<(u32, String)> = Vec::new();
    let note_pid = |pids: &mut Vec<(u32, String)>, site: Site| {
        let pid = site_pid(site);
        if !pids.iter().any(|(p, _)| *p == pid) {
            pids.push((pid, site.to_string()));
        }
        pid
    };

    for op in ops {
        let pid = note_pid(&mut pids, Site::Node(op.node));
        let mut args = vec![("kind".to_string(), op.kind.label().to_string())];
        if let Some(t) = op.trace {
            args.push(("trace".to_string(), t.to_string()));
        }
        events.push(ChromeEvent {
            name: op.kind.label().to_string(),
            cat: "op",
            ph: 'X',
            ts_us: op.start.as_us_f64(),
            dur_us: op.end.saturating_sub(op.start).as_us_f64(),
            pid,
            tid: 0,
            args,
            num_args: Vec::new(),
        });
    }

    // Packet spans: consecutive lifecycle points of one packet at one site
    // become a span named after the point reached; a site's first
    // observation becomes an instant marker.
    let mut by_packet_site: HashMap<(TraceId, Site), Vec<&PacketEvent>> = HashMap::new();
    for ev in packets {
        by_packet_site
            .entry((ev.trace, ev.site))
            .or_default()
            .push(ev);
    }
    let mut groups: Vec<(&(TraceId, Site), &Vec<&PacketEvent>)> = by_packet_site.iter().collect();
    groups.sort_by_key(|((trace, site), _)| (*trace, site_pid(*site)));
    for ((trace, site), evs) in groups {
        let pid = note_pid(&mut pids, *site);
        let args = |ev: &PacketEvent| {
            vec![
                ("trace".to_string(), trace.to_string()),
                ("kind".to_string(), ev.kind.to_string()),
                ("bytes".to_string(), ev.bytes.to_string()),
            ]
        };
        let mut prev: Option<&PacketEvent> = None;
        for ev in evs {
            match prev {
                None => events.push(ChromeEvent {
                    name: ev.stage.label().to_string(),
                    cat: "packet",
                    ph: 'i',
                    ts_us: ev.at.as_us_f64(),
                    dur_us: 0.0,
                    pid,
                    tid: 1,
                    args: args(ev),
                    num_args: Vec::new(),
                }),
                Some(p) => events.push(ChromeEvent {
                    name: format!("{}\u{2192}{}", p.stage.label(), ev.stage.label()),
                    cat: "packet",
                    ph: 'X',
                    ts_us: p.at.as_us_f64(),
                    dur_us: ev.at.saturating_sub(p.at).as_us_f64(),
                    pid,
                    tid: 1,
                    args: args(ev),
                    num_args: Vec::new(),
                }),
            }
            prev = Some(ev);
        }
    }

    events.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));

    // Metadata first (ts 0): process and thread names.
    let mut meta = Vec::new();
    pids.sort_by_key(|(p, _)| *p);
    for (pid, name) in pids {
        meta.push(ChromeEvent {
            name: "process_name".to_string(),
            cat: "__metadata",
            ph: 'M',
            ts_us: 0.0,
            dur_us: 0.0,
            pid,
            tid: 0,
            args: vec![("name".to_string(), name)],
            num_args: Vec::new(),
        });
        for (tid, tname) in [(0, "cpu-ops"), (1, "packets")] {
            meta.push(ChromeEvent {
                name: "thread_name".to_string(),
                cat: "__metadata",
                ph: 'M',
                ts_us: 0.0,
                dur_us: 0.0,
                pid,
                tid,
                args: vec![("name".to_string(), tname.to_string())],
                num_args: Vec::new(),
            });
        }
    }
    meta.extend(events);
    meta
}

/// Track-group id for the metrics pseudo-process hosting counter tracks —
/// distinct from node pids (raw index) and switch pids (`1000 +`).
pub(crate) const METRICS_PID: u32 = 2000;

/// Renders every time series in a [`MetricsRegistry`] as Perfetto counter
/// tracks: one `'C'` event per sample, all under the `"metrics"`
/// pseudo-process (`METRICS_PID`), named by the series' canonical
/// metric name (`link.<a>-<b>.utilization`, `fabric.credit_stall_us`, …).
/// Events are sorted by timestamp so every track stays monotonic when the
/// list is appended to a [`chrome_events`] export.
pub fn counter_track_events(metrics: &MetricsRegistry) -> Vec<ChromeEvent> {
    let mut events = vec![ChromeEvent {
        name: "process_name".to_string(),
        cat: "__metadata",
        ph: 'M',
        ts_us: 0.0,
        dur_us: 0.0,
        pid: METRICS_PID,
        tid: 0,
        args: vec![("name".to_string(), "metrics".to_string())],
        num_args: Vec::new(),
    }];
    let mut samples = Vec::new();
    for (name, series) in metrics.all_series() {
        for s in series {
            samples.push(ChromeEvent {
                name: name.to_string(),
                cat: "metric",
                ph: 'C',
                ts_us: s.at.as_us_f64(),
                dur_us: 0.0,
                pid: METRICS_PID,
                tid: 0,
                args: Vec::new(),
                num_args: vec![("value".to_string(), s.value)],
            });
        }
    }
    // Stable sort: equal instants keep registration order; within one
    // series the samples were already time-ordered.
    samples.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    events.extend(samples);
    events
}

/// Renders a finite `f64` as a JSON number (`NaN`/`±inf` have no JSON
/// spelling and degrade to `0`).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Minimal JSON string escaping for controlled label/arg content.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes a Chrome trace-event list to the JSON object format
/// (`{"traceEvents": [...]}`) that `chrome://tracing` and Perfetto load.
pub fn chrome_trace_json(events: &[ChromeEvent]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.6},\"pid\":{},\"tid\":{}",
            json_escape(&ev.name),
            ev.cat,
            ev.ph,
            ev.ts_us,
            ev.pid,
            ev.tid
        );
        if ev.ph == 'X' {
            let _ = write!(s, ",\"dur\":{:.6}", ev.dur_us);
        }
        if ev.ph == 'i' {
            s.push_str(",\"s\":\"t\"");
        }
        if !ev.args.is_empty() || !ev.num_args.is_empty() {
            s.push_str(",\"args\":{");
            let mut j = 0;
            for (k, v) in &ev.args {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
                j += 1;
            }
            for (k, v) in &ev.num_args {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{}", json_escape(k), fmt_f64(*v));
                j += 1;
            }
            s.push('}');
        }
        s.push('}');
    }
    s.push_str("\n]}\n");
    s
}

/// A human-readable aggregate of per-stage breakdowns: one line per
/// operation kind with the mean end-to-end latency and the mean time in
/// each stage (stages in first-seen order).
pub fn breakdown_report(breakdowns: &[OpBreakdown]) -> String {
    /// Per-kind aggregate: count, total latency, per-stage label -> total
    /// time (stages in first-seen order).
    type KindAgg = (u64, SimTime, Vec<(String, SimTime)>);
    let mut kinds: Vec<&'static str> = Vec::new();
    let mut agg: HashMap<&'static str, KindAgg> = HashMap::new();
    for b in breakdowns {
        let kind = b.op.kind.label();
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
        let entry = agg.entry(kind).or_insert((0, SimTime::ZERO, Vec::new()));
        entry.0 += 1;
        entry.1 += b.total();
        for seg in &b.segments {
            match entry.2.iter_mut().find(|(l, _)| *l == seg.label) {
                Some((_, t)) => *t += seg.dur,
                None => entry.2.push((seg.label.clone(), seg.dur)),
            }
        }
    }
    let mut s = String::new();
    let _ = writeln!(s, "per-operation stage breakdown (mean us per stage)");
    for kind in kinds {
        let (count, total, stages) = &agg[kind];
        let n = *count as f64;
        let _ = write!(
            s,
            "{:<14} x{:<5} total {:>8.3}",
            kind,
            count,
            total.as_us_f64() / n
        );
        for (label, t) in stages {
            let _ = write!(s, " | {} {:.3}", label, t.as_us_f64() / n);
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_wire::trace::{OpKind, Stage};
    use tg_wire::NodeId;

    fn pe(at_ns: u64, trace: TraceId, site: Site, stage: Stage) -> PacketEvent {
        PacketEvent {
            at: SimTime::from_ns(at_ns),
            trace,
            parent: None,
            site,
            stage,
            kind: "write_req",
            bytes: 22,
        }
    }

    #[test]
    fn breakdown_segments_sum_to_end_to_end() {
        let req = TraceId::packet(NodeId::new(0), 0);
        let op = OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteWrite,
            start: SimTime::from_ns(100),
            end: SimTime::from_ns(900),
            trace: Some(req),
        };
        let packets = vec![
            pe(150, req, Site::Node(NodeId::new(0)), Stage::TxEnqueue),
            pe(200, req, Site::Node(NodeId::new(0)), Stage::TxLaunch),
            pe(400, req, Site::Switch(0), Stage::SwitchEnqueue),
            pe(450, req, Site::Switch(0), Stage::SwitchTx),
            pe(700, req, Site::Node(NodeId::new(1)), Stage::RxEnqueue),
            pe(750, req, Site::Node(NodeId::new(1)), Stage::Commit),
        ];
        let b = op_breakdowns(&[op], &packets);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].total(), SimTime::from_ns(800));
        assert_eq!(b[0].segments.last().unwrap().label, "cpu-complete");
        assert_eq!(b[0].segments.last().unwrap().dur, SimTime::from_ns(150));
    }

    #[test]
    fn breakdown_chains_response_packets() {
        let req = TraceId::packet(NodeId::new(0), 0);
        let resp = TraceId::packet(NodeId::new(1), 0);
        let op = OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteRead,
            start: SimTime::ZERO,
            end: SimTime::from_ns(1000),
            trace: Some(req),
        };
        let mut resp_ev = pe(500, resp, Site::Node(NodeId::new(1)), Stage::TxEnqueue);
        resp_ev.parent = Some(req);
        let packets = vec![
            pe(100, req, Site::Node(NodeId::new(0)), Stage::TxEnqueue),
            pe(400, req, Site::Node(NodeId::new(1)), Stage::Commit),
            resp_ev,
            pe(900, resp, Site::Node(NodeId::new(0)), Stage::Commit),
        ];
        let b = op_breakdowns(&[op], &packets);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].segments.len(), 5); // cpu-issue + 3 more + cpu-complete
        assert!(b[0].segments.iter().any(|s| s.label == "resp-commit"));
        assert_eq!(b[0].total(), SimTime::from_ns(1000));
    }

    #[test]
    fn breakdown_clips_events_outside_the_op_window() {
        let req = TraceId::packet(NodeId::new(0), 3);
        let op = OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteWrite,
            start: SimTime::from_ns(100),
            end: SimTime::from_ns(200),
            trace: Some(req),
        };
        // The commit lands after the CPU already moved on (write latency is
        // CPU-latch-only); it must clip to the window, not inflate it.
        let packets = vec![
            pe(150, req, Site::Node(NodeId::new(0)), Stage::TxEnqueue),
            pe(900, req, Site::Node(NodeId::new(1)), Stage::Commit),
        ];
        let b = op_breakdowns(&[op], &packets);
        assert_eq!(b[0].total(), SimTime::from_ns(100));
    }

    #[test]
    fn chrome_events_are_monotonic_per_track() {
        let req = TraceId::packet(NodeId::new(0), 0);
        let ops = vec![OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteWrite,
            start: SimTime::from_ns(10),
            end: SimTime::from_ns(500),
            trace: Some(req),
        }];
        let packets = vec![
            pe(50, req, Site::Node(NodeId::new(0)), Stage::TxEnqueue),
            pe(90, req, Site::Node(NodeId::new(0)), Stage::TxLaunch),
            pe(200, req, Site::Switch(0), Stage::SwitchEnqueue),
            pe(230, req, Site::Switch(0), Stage::SwitchTx),
        ];
        let events = chrome_events(&ops, &packets);
        let mut last: HashMap<(u32, u32), f64> = HashMap::new();
        for ev in &events {
            let t = last.entry((ev.pid, ev.tid)).or_insert(0.0);
            assert!(ev.ts_us >= *t, "ts went backwards on a track");
            *t = ev.ts_us;
        }
        assert!(events.iter().any(|e| e.ph == 'M'));
    }

    #[test]
    fn report_aggregates_by_kind() {
        let req = TraceId::packet(NodeId::new(0), 0);
        let op = OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteWrite,
            start: SimTime::ZERO,
            end: SimTime::from_ns(600),
            trace: Some(req),
        };
        let packets = vec![pe(200, req, Site::Node(NodeId::new(0)), Stage::TxEnqueue)];
        let report = breakdown_report(&op_breakdowns(&[op], &packets));
        assert!(report.contains("remote-write"));
        assert!(report.contains("cpu-complete"));
    }
}
