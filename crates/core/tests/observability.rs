//! End-to-end observability: packet-lifecycle tracing, per-stage latency
//! breakdowns, congestion metrics and the Chrome trace-event export.

use std::collections::HashMap;

use telegraphos::observe::{breakdown_report, chrome_events, op_breakdowns};
use telegraphos::{Action, Cluster, ClusterBuilder, ComponentDetail, Drive, Script};
use tg_sim::{MetricsRegistry, RunLimit, SimTime};
use tg_wire::trace::{OpKind, Stage};

/// Two nodes; node 0 exercises remote writes, a blocking read and an
/// atomic against a page homed on node 1.
fn traced_cluster() -> (
    Cluster,
    telegraphos::TraceCollector,
    telegraphos::SharedPage,
) {
    let mut cluster = ClusterBuilder::new(2).build();
    let page = cluster.alloc_shared(1);
    let collector = cluster.enable_tracing();
    cluster.set_process(
        0,
        Script::new(vec![
            Action::Write(page.va(0), 7),
            Action::Fence,
            Action::Read(page.va(0)),
            Action::FetchAdd(page.va(8), 5),
            Action::Write(page.va(16), 9),
            Action::Fence,
        ]),
    );
    (cluster, collector, page)
}

#[test]
fn tracing_records_full_packet_lifecycles() {
    let (mut cluster, collector, page) = traced_cluster();
    cluster.run();
    assert!(cluster.all_halted());
    assert_eq!(cluster.read_shared(&page, 0), 7);

    let packets = collector.packet_events();
    assert!(!packets.is_empty(), "no packet events recorded");
    // Every stage of the request path shows up for at least one packet.
    for stage in [
        Stage::TxEnqueue,
        Stage::TxLaunch,
        Stage::SwitchEnqueue,
        Stage::SwitchTx,
        Stage::RxEnqueue,
        Stage::RxStart,
        Stage::Commit,
    ] {
        assert!(
            packets.iter().any(|p| p.stage == stage),
            "no event for stage {stage}"
        );
    }
    // Events arrive in non-decreasing time order (engine delivery order).
    for w in packets.windows(2) {
        assert!(w[0].at <= w[1].at, "packet events out of order");
    }
    // Responses are chained to their requests.
    assert!(
        packets.iter().any(|p| p.parent.is_some()),
        "no response was chained to a request"
    );
}

#[test]
fn op_events_reconcile_with_node_stats() {
    let (mut cluster, collector, _page) = traced_cluster();
    cluster.run();

    let ops = collector.op_events();
    let st = cluster.node(0).stats();
    let mut sums: HashMap<&'static str, (u64, f64)> = HashMap::new();
    for op in &ops {
        assert_eq!(op.node.raw(), 0, "only node 0 issues ops");
        let e = sums.entry(op.kind.label()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += op.end.saturating_sub(op.start).as_us_f64();
    }
    for (label, summary) in [
        (OpKind::RemoteWrite.label(), &st.remote_writes),
        (OpKind::RemoteRead.label(), &st.remote_reads),
        (OpKind::Atomic.label(), &st.atomics),
        (OpKind::Fence.label(), &st.fences),
    ] {
        let (count, sum_us) = sums.get(label).copied().unwrap_or((0, 0.0));
        assert_eq!(count, summary.count(), "{label}: op-event count mismatch");
        let want = summary.mean() * summary.count() as f64;
        assert!(
            (sum_us - want).abs() <= 1e-6 * (1.0 + want.abs()),
            "{label}: traced total {sum_us}us vs NodeStats {want}us"
        );
    }
}

#[test]
fn breakdowns_telescope_to_end_to_end_latency() {
    let (mut cluster, collector, _page) = traced_cluster();
    cluster.run();

    let breakdowns = op_breakdowns(&collector.op_events(), &collector.packet_events());
    // Remote writes, the read and the atomic all injected traceable
    // requests.
    assert!(
        breakdowns.len() >= 4,
        "expected breakdowns, got {}",
        breakdowns.len()
    );
    for b in &breakdowns {
        assert_eq!(
            b.total(),
            b.op.end.saturating_sub(b.op.start),
            "breakdown of {} does not telescope",
            b.op.kind
        );
    }
    // The blocking read's breakdown reaches the remote commit and comes
    // back: it must contain both request and response segments.
    let read = breakdowns
        .iter()
        .find(|b| b.op.kind == OpKind::RemoteRead)
        .expect("a remote-read breakdown");
    assert!(read.segments.iter().any(|s| s.label == "commit"));
    assert!(read.segments.iter().any(|s| s.label.starts_with("resp-")));

    let report = breakdown_report(&breakdowns);
    assert!(report.contains("remote-read"));
    assert!(report.contains("cpu-complete"));
}

#[test]
fn chrome_export_is_monotonic_per_track() {
    let (mut cluster, collector, _page) = traced_cluster();
    cluster.run();

    let events = chrome_events(&collector.op_events(), &collector.packet_events());
    assert!(events.iter().any(|e| e.ph == 'M'), "no track metadata");
    assert!(events.iter().any(|e| e.ph == 'X'), "no spans");
    let mut last: HashMap<(u32, u32), f64> = HashMap::new();
    for ev in &events {
        let t = last.entry((ev.pid, ev.tid)).or_insert(0.0);
        assert!(ev.ts_us >= *t, "ts went backwards on a track");
        *t = ev.ts_us;
    }
}

#[test]
fn component_stats_surface_congestion_detail() {
    let (mut cluster, _collector, _page) = traced_cluster();
    cluster.run();

    let reports = cluster.component_stats();
    assert_eq!(reports.len(), 3, "2 nodes + 1 switch");
    let mut saw_node1_rx = false;
    for r in &reports {
        match &r.detail {
            ComponentDetail::Node {
                rx_fifo_high_water,
                rx_fifo_depth,
                tx_queue_depth,
                ..
            } => {
                // Queues drained at end of run.
                assert_eq!(*rx_fifo_depth, 0);
                assert_eq!(*tx_queue_depth, 0);
                if r.name == "node1" {
                    assert!(*rx_fifo_high_water >= 1, "node1 never queued an rx packet");
                    saw_node1_rx = true;
                }
            }
            ComponentDetail::Switch {
                packets,
                fifo_high_water,
                fifo_depth,
                ..
            } => {
                assert!(*packets > 0, "switch forwarded nothing");
                assert!(*fifo_high_water >= 1);
                assert_eq!(*fifo_depth, 0);
            }
        }
        assert!(r.events.delivered > 0, "{} handled no events", r.name);
    }
    assert!(saw_node1_rx);
    // Unreliable links: credits and idle port-free events are absorbed,
    // and zero-delay CPU continuations run in place. Every event
    // scheduled was delivered, absorbed or inlined, per component and in
    // total, and the per-kind delivery counts add up to the deliveries.
    let engine = cluster.engine_stats();
    for r in &reports {
        let e = r.events;
        assert_eq!(
            e.delivered + e.absorbed + e.inlined,
            e.scheduled,
            "{}",
            r.name
        );
        assert_eq!(r.kinds.iter().sum::<u64>(), e.delivered, "{}", r.name);
    }
    let total = |count: fn(&tg_sim::ComponentStats) -> u64| -> u64 {
        reports.iter().map(|r| count(&r.events)).sum()
    };
    let (delivered, absorbed, inlined) = (
        total(|e| e.delivered),
        total(|e| e.absorbed),
        total(|e| e.inlined),
    );
    assert!(absorbed > 0, "nothing absorbed on an unreliable fabric");
    assert!(inlined > 0, "no CPU continuation ran in place");
    assert_eq!(delivered, engine.events_delivered);
    assert_eq!(absorbed, engine.events_absorbed);
    assert_eq!(inlined, engine.events_inlined);
    assert_eq!(engine.logical_events(), engine.events_scheduled);
}

#[test]
fn a_sampled_drive_populates_the_metrics_registry() {
    let mut cluster = ClusterBuilder::new(2).build();
    let page = cluster.alloc_shared(1);
    cluster.set_process(
        0,
        Script::new(vec![
            Action::Write(page.va(0), 1),
            Action::Fence,
            Action::Read(page.va(0)),
        ]),
    );
    let mut metrics = MetricsRegistry::new();
    let plan = Drive {
        slice: SimTime::from_us(1),
        metrics: Some(&mut metrics),
        ..Drive::drained()
    };
    assert_eq!(cluster.drive(plan).unwrap(), RunLimit::Drained);
    assert!(cluster.all_halted());

    let series = |name| metrics.all_series().find(|(n, _)| *n == name);
    let (_, samples) = series("fabric.bytes_total").expect("series registered");
    assert!(!samples.is_empty(), "no samples recorded");
    // Cumulative byte counts never decrease and end positive.
    for w in samples.windows(2) {
        assert!(w[0].value <= w[1].value);
        assert!(w[0].at <= w[1].at);
    }
    assert!(samples.last().unwrap().value > 0.0);

    assert!(metrics.counters().any(|c| c == ("node0.remote_writes", 1)));
    assert!(series("node0.rx_fifo_depth").is_some());
}

#[test]
fn tracing_off_records_nothing_and_costs_nothing_visible() {
    // Same workload, no probe: results identical, no events anywhere.
    let mut cluster = ClusterBuilder::new(2).build();
    let page = cluster.alloc_shared(1);
    cluster.set_process(
        0,
        Script::new(vec![Action::Write(page.va(0), 7), Action::Fence]),
    );
    cluster.run();
    assert_eq!(cluster.read_shared(&page, 0), 7);
}
