//! The Chrome trace-event exporter writes JSON that the report reader
//! parses: every event of a traced run, counter tracks included, comes
//! back as one element of `traceEvents`.

use telegraphos::observe::{chrome_events, chrome_trace_json, counter_track_events};
use telegraphos::{Action, ClusterBuilder, Drive, Script};
use tg_analyze::Json;
use tg_sim::{MetricsRegistry, SimTime};
use tg_wire::trace::{OpEvent, OpKind, PacketEvent, Site, Stage, TraceId};
use tg_wire::NodeId;

/// Parses an export and returns its `traceEvents` array.
fn trace_events(json: &str) -> Vec<Json> {
    let doc = Json::parse(json).expect("exporter emitted invalid JSON");
    match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events.clone(),
        other => panic!("no traceEvents array: {other:?}"),
    }
}

#[test]
fn synthetic_export_parses() {
    let req = TraceId::packet(NodeId::new(0), 0);
    let ops = [OpEvent {
        node: NodeId::new(0),
        kind: OpKind::RemoteWrite,
        start: SimTime::from_ns(10),
        end: SimTime::from_ns(500),
        trace: Some(req),
    }];
    let pe = |at_ns, site, stage| PacketEvent {
        at: SimTime::from_ns(at_ns),
        trace: req,
        parent: None,
        site,
        stage,
        kind: "write_req",
        bytes: 22,
    };
    let packets = [
        pe(50, Site::Node(NodeId::new(0)), Stage::TxEnqueue),
        pe(90, Site::Node(NodeId::new(0)), Stage::TxLaunch),
        pe(200, Site::Switch(0), Stage::SwitchEnqueue),
        pe(230, Site::Switch(0), Stage::SwitchTx),
    ];
    let events = chrome_events(&ops, &packets);
    assert_eq!(
        trace_events(&chrome_trace_json(&events)).len(),
        events.len()
    );
}

#[test]
fn traced_run_export_with_counter_tracks_parses() {
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
        ]),
    );
    let mut metrics = MetricsRegistry::new();
    let plan = Drive {
        slice: SimTime::from_us(1),
        metrics: Some(&mut metrics),
        ..Drive::drained()
    };
    cluster.drive(plan).unwrap();
    assert!(cluster.all_halted());

    let mut events = chrome_events(&collector.op_events(), &collector.packet_events());
    events.extend(counter_track_events(&metrics));
    assert!(events.iter().any(|e| e.ph == 'C'), "no counter samples");
    let parsed = trace_events(&chrome_trace_json(&events));
    assert_eq!(parsed.len(), events.len());
    assert_eq!(
        parsed[0].get("name").and_then(Json::as_str),
        Some("process_name")
    );
}
