//! Fault-masking property tests: a reliable fabric under any seeded,
//! recoverable fault plan (drop/corrupt probabilities below one, finite
//! outages, lost credits) must deliver exactly the fault-free outcome —
//! every packet, in per-source order — and identical seeds must replay
//! bit-for-bit identical delivery streams.
//!
//! Hand-rolled seeded sweeps over [`tg_sim::SimRng`] stand in for a
//! property-testing framework: each case is fully determined by the sweep
//! seed, so failures reproduce exactly.

use std::collections::HashMap;

use tg_net::testing::{kick, Receipt, SourceSink};
use tg_net::{
    build_network_with, FaultInjector, FaultPlan, LinkId, NetConfig, PortSnapshot, RelParams,
    RetxMode, Topology,
};
use tg_sim::{CompId, Engine, RunLimit, SimRng, SimTime};
use tg_wire::trace::Site;
use tg_wire::{GOffset, NodeId, TimingConfig, WireMsg};

fn build_with(
    topo: &Topology,
    timing: &TimingConfig,
    config: &NetConfig,
) -> (Engine<tg_net::NetEvent>, Vec<CompId>, Vec<CompId>) {
    let mut engine = Engine::new();
    let n = topo.endpoint_count();
    let ids: Vec<CompId> = (0..n)
        .map(|i| engine.add(SourceSink::new(NodeId::new(i as u16), timing.clone())))
        .collect();
    let handles = build_network_with(&mut engine, topo, timing, &ids, config).expect("connected");
    for (id, w) in ids.iter().zip(handles.endpoints) {
        let ss = engine.get_mut::<SourceSink>(*id).unwrap();
        ss.wire(w.tx, w.rx_upstream);
        if let Some(inj) = config.injector.as_ref() {
            ss.set_injector(inj.clone());
        }
    }
    (engine, ids, handles.switches)
}

/// The read-out of endpoint `id`'s port.
fn port(engine: &Engine<tg_net::NetEvent>, id: CompId) -> PortSnapshot {
    let ss = engine.get::<SourceSink>(id).unwrap();
    ss.port_snapshot().expect("wired endpoint")
}

/// The read-out of every port of switch `id`.
fn switch_ports(engine: &Engine<tg_net::NetEvent>, id: CompId) -> Vec<PortSnapshot> {
    let sw = engine.get::<tg_net::Switch>(id).unwrap();
    sw.port_snapshots().collect()
}

fn write(addr: u64, val: u64) -> WireMsg {
    WireMsg::WriteReq {
        addr: GOffset::new(addr),
        val,
        tag: 0,
    }
}

/// One deterministic workload: `n_sends` random (src, dst, val) triples
/// drawn from `seed`, enqueued on a given fabric. Returns the expected
/// per-(src, dst) value sequences.
fn load_workload(
    engine: &mut Engine<tg_net::NetEvent>,
    ids: &[CompId],
    seed: u64,
    n_sends: usize,
) -> HashMap<(u16, u16), Vec<u64>> {
    let mut rng = SimRng::new(seed);
    let n = ids.len() as u16;
    let mut expected: HashMap<(u16, u16), Vec<u64>> = HashMap::new();
    for _ in 0..n_sends {
        let (src, dst) = (
            rng.range(u64::from(n)) as u16,
            rng.range(u64::from(n)) as u16,
        );
        if src == dst {
            continue;
        }
        let val = rng.range(1000);
        engine
            .get_mut::<SourceSink>(ids[src as usize])
            .unwrap()
            .enqueue(NodeId::new(dst), write(val * 8, val));
        expected.entry((src, dst)).or_default().push(val);
    }
    for &id in ids {
        kick(engine, id);
    }
    expected
}

/// Runs the workload to drain and reassembles observed per-pair sequences.
fn observe(engine: &Engine<tg_net::NetEvent>, ids: &[CompId]) -> HashMap<(u16, u16), Vec<u64>> {
    let mut observed: HashMap<(u16, u16), Vec<u64>> = HashMap::new();
    for (dst, &id) in ids.iter().enumerate() {
        for r in &engine.get::<SourceSink>(id).unwrap().received {
            if let WireMsg::WriteReq { val, .. } = r.packet.msg {
                observed
                    .entry((r.packet.src.raw(), dst as u16))
                    .or_default()
                    .push(val);
            }
        }
    }
    observed
}

/// Property: any seeded fault plan with drop/corrupt probabilities below
/// one and only finite outages is fully masked by the link layer — the
/// run drains, and every endpoint observes exactly the fault-free
/// per-source in-order delivery.
#[test]
fn recoverable_faults_are_fully_masked() {
    let timing = TimingConfig::telegraphos_i();
    let mut sweep = SimRng::new(0xFA11_7E57);
    let mut total_retx = 0u64;
    for case in 0..10 {
        let nodes = sweep.range_between(2, 5) as u16;
        let n_sends = sweep.range_between(20, 120) as usize;
        let drop_p = sweep.range_between(1, 25) as f64 / 100.0;
        let corrupt_p = sweep.range_between(1, 15) as f64 / 100.0;
        let credit_p = sweep.range_between(0, 10) as f64 / 100.0;
        let ctrl_drop_p = sweep.range_between(0, 25) as f64 / 100.0;
        let ctrl_corrupt_p = sweep.range_between(0, 20) as f64 / 100.0;
        let case_seed = sweep.range(u64::MAX);
        // Alternate retransmit disciplines so the sweep proves the
        // masking guarantee for both.
        let mode = if case % 2 == 0 {
            RetxMode::GoBackN
        } else {
            RetxMode::Sack
        };
        let topo = Topology::star(nodes);

        // Fault-free reference.
        let reliable = NetConfig {
            reliability: Some(RelParams::with_mode(mode)),
            injector: None,
        };
        let (mut engine, ids, _) = build_with(&topo, &timing, &reliable);
        let expected = load_workload(&mut engine, &ids, case_seed, n_sends);
        assert_eq!(engine.run_events(4_000_000), RunLimit::Drained);
        let reference = observe(&engine, &ids);
        assert_eq!(reference, expected, "lossless baseline broke (case {case})");

        // The same workload under a seeded fault plan, including a finite
        // outage on the first node's uplink and a hostile control plane
        // (acks, nacks and resync frames dropped or corrupted).
        let victim = LinkId::new(Site::Node(NodeId::new(0)), Site::Switch(0));
        let plan = FaultPlan::new(case_seed ^ 0xD15EA5E)
            .drop(drop_p)
            .corrupt(corrupt_p)
            .credit_loss(credit_p)
            .ctrl_drop(ctrl_drop_p)
            .ctrl_corrupt(ctrl_corrupt_p)
            .outage(victim, SimTime::from_us(5), SimTime::from_us(30));
        let faulty = NetConfig {
            reliability: Some(RelParams::with_mode(mode)),
            injector: Some(FaultInjector::new(plan)),
        };
        let (mut engine, ids, _) = build_with(&topo, &timing, &faulty);
        let expected = load_workload(&mut engine, &ids, case_seed, n_sends);
        assert_eq!(
            engine.run_events(8_000_000),
            RunLimit::Drained,
            "faulted run wedged (case {case})"
        );
        assert_eq!(
            observe(&engine, &ids),
            expected,
            "faults leaked through the link layer (case {case})"
        );
        assert_eq!(
            observe(&engine, &ids),
            reference,
            "faulted outcome differs from fault-free outcome (case {case})"
        );
        for &id in &ids {
            let ss = engine.get::<SourceSink>(id).unwrap();
            assert!(
                !port(&engine, id).dead,
                "recoverable plan killed a link (case {case})"
            );
            assert!(ss.link_errors().is_empty(), "case {case}");
            total_retx += ss.retransmits();
        }
    }
    assert!(
        total_retx > 0,
        "the sweep never exercised a retransmission — faults too weak"
    );
}

/// Property: the same seed replays the exact same delivery stream —
/// every receipt, timestamp and payload, bit for bit.
#[test]
fn identical_seeds_replay_identical_delivery_streams() {
    let timing = TimingConfig::telegraphos_i();
    let run = || -> Vec<Vec<Receipt>> {
        let topo = Topology::star(4);
        let victim = LinkId::new(Site::Node(NodeId::new(1)), Site::Switch(0));
        let plan = FaultPlan::new(0x5EED_CAFE)
            .drop(0.15)
            .corrupt(0.10)
            .credit_loss(0.05)
            .outage(victim, SimTime::from_us(8), SimTime::from_us(40));
        let config = NetConfig {
            reliability: Some(RelParams::default()),
            injector: Some(FaultInjector::new(plan)),
        };
        let (mut engine, ids, _) = build_with(&topo, &timing, &config);
        load_workload(&mut engine, &ids, 0xB17F_0B17, 150);
        assert_eq!(engine.run_events(8_000_000), RunLimit::Drained);
        ids.iter()
            .map(|&id| engine.get::<SourceSink>(id).unwrap().received.clone())
            .collect()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "seeded replay diverged");
    assert!(
        first.iter().map(Vec::len).sum::<usize>() > 0,
        "nothing was delivered"
    );
}

/// A credit lost in flight starves the sender; the credit-resync
/// handshake must recover the allowance and let traffic finish.
#[test]
fn lost_credits_are_resynced() {
    let timing = TimingConfig::telegraphos_i();
    let topo = Topology::star(2).with_endpoint_fifo(2).with_switch_fifo(2);
    // Heavy credit loss, no frame faults: only the resync path recovers.
    let plan = FaultPlan::new(0xC4ED17).credit_loss(0.5);
    let config = NetConfig {
        reliability: Some(RelParams::default()),
        injector: Some(FaultInjector::new(plan)),
    };
    let (mut engine, ids, _) = build_with(&topo, &timing, &config);
    for i in 0..40u64 {
        engine
            .get_mut::<SourceSink>(ids[0])
            .unwrap()
            .enqueue(NodeId::new(1), write(i * 8, i));
    }
    kick(&mut engine, ids[0]);
    assert_eq!(engine.run_events(4_000_000), RunLimit::Drained);
    let rx = &engine.get::<SourceSink>(ids[1]).unwrap().received;
    assert_eq!(rx.len(), 40, "traffic wedged on lost credits");
    for (i, r) in rx.iter().enumerate() {
        assert_eq!(r.packet.inject_seq, i as u64, "reordered at {i}");
    }
    let injector = config.injector.as_ref().unwrap();
    if injector.stats().credits_lost > 0 {
        let resyncs: u64 = ids.iter().map(|&id| port(&engine, id).resyncs).sum();
        let sw_resyncs = tg_net_switch_resyncs(&engine);
        assert!(
            resyncs + sw_resyncs > 0,
            "credits were lost but no resync ran"
        );
    }
}

fn tg_net_switch_resyncs(_engine: &Engine<tg_net::NetEvent>) -> u64 {
    // Switch ids are not tracked in this harness; endpoint resyncs are
    // enough for the assertion above, so this stays zero.
    0
}

/// A permanent outage must not wedge the simulation: the retry budget
/// runs out, the link is declared dead with a structured error, and the
/// event queue still drains.
#[test]
fn permanent_outage_degrades_into_a_dead_link() {
    let timing = TimingConfig::telegraphos_i();
    let topo = Topology::star(2);
    let victim = LinkId::new(Site::Node(NodeId::new(0)), Site::Switch(0));
    let plan = FaultPlan::new(0xDEAD).permanent_outage(victim, SimTime::ZERO);
    let config = NetConfig {
        reliability: Some(RelParams::default()),
        injector: Some(FaultInjector::new(plan)),
    };
    let (mut engine, ids, _) = build_with(&topo, &timing, &config);
    for i in 0..5u64 {
        engine
            .get_mut::<SourceSink>(ids[0])
            .unwrap()
            .enqueue(NodeId::new(1), write(i * 8, i));
    }
    kick(&mut engine, ids[0]);
    assert_eq!(
        engine.run_events(4_000_000),
        RunLimit::Drained,
        "dead link left the engine spinning"
    );
    let src = engine.get::<SourceSink>(ids[0]).unwrap();
    assert!(port(&engine, ids[0]).dead, "link should be declared dead");
    assert!(
        src.link_errors()
            .iter()
            .any(|e| matches!(e, tg_net::LinkError::RetryExhausted { .. })),
        "no structured dead-link error recorded"
    );
    assert!(
        engine
            .get::<SourceSink>(ids[1])
            .unwrap()
            .received
            .is_empty(),
        "nothing can cross a dead link"
    );
}

/// Property: selective retransmit and go-back-N are interchangeable at
/// the payload level. Under the same seeded fault plan — data faults,
/// lost credits, AND a hostile control plane — both disciplines must
/// drain and commit byte-identical per-pair payload sequences, while
/// SACK spends no more retransmitted frames than go-back-N.
#[test]
fn sack_and_gbn_commit_identical_payload_streams() {
    let timing = TimingConfig::telegraphos_i();
    let mut sweep = SimRng::new(0x5AC6_B47E);
    let (mut gbn_total_bytes, mut sack_total_bytes) = (0u64, 0u64);
    for case in 0..6 {
        let nodes = sweep.range_between(2, 5) as u16;
        let n_sends = sweep.range_between(40, 120) as usize;
        let drop_p = sweep.range_between(5, 25) as f64 / 100.0;
        let corrupt_p = sweep.range_between(1, 10) as f64 / 100.0;
        let ctrl_drop_p = sweep.range_between(5, 25) as f64 / 100.0;
        let ctrl_corrupt_p = sweep.range_between(1, 15) as f64 / 100.0;
        let case_seed = sweep.range(u64::MAX);
        let topo = Topology::star(nodes);

        let run = |mode: RetxMode| {
            let plan = FaultPlan::new(case_seed ^ 0x0DDB_A115)
                .drop(drop_p)
                .corrupt(corrupt_p)
                .credit_loss(0.05)
                .ctrl_drop(ctrl_drop_p)
                .ctrl_corrupt(ctrl_corrupt_p);
            let config = NetConfig {
                reliability: Some(RelParams::with_mode(mode)),
                injector: Some(FaultInjector::new(plan)),
            };
            let (mut engine, ids, _) = build_with(&topo, &timing, &config);
            let expected = load_workload(&mut engine, &ids, case_seed, n_sends);
            assert_eq!(
                engine.run_events(16_000_000),
                RunLimit::Drained,
                "{mode:?} wedged (case {case})"
            );
            let (mut retx, mut retx_bytes) = (0u64, 0u64);
            for &id in &ids {
                let p = port(&engine, id);
                assert!(!p.dead, "{mode:?} killed a link (case {case})");
                retx += p.retransmits;
                retx_bytes += p.retx_bytes;
            }
            (observe(&engine, &ids), expected, retx, retx_bytes)
        };

        let (gbn, expected, _, gbn_bytes) = run(RetxMode::GoBackN);
        let (sack, _, _, sack_bytes) = run(RetxMode::Sack);
        assert_eq!(gbn, expected, "go-back-N leaked faults (case {case})");
        assert_eq!(
            sack, gbn,
            "SACK and go-back-N committed different payload streams (case {case})"
        );
        gbn_total_bytes += gbn_bytes;
        sack_total_bytes += sack_bytes;
    }
    // Aggregate wire efficiency: per-case fault realizations differ (the
    // two disciplines interleave events differently, so the injector dice
    // land differently), but across the sweep selective retransmit must
    // spend strictly fewer retransmitted bytes.
    assert!(
        sack_total_bytes < gbn_total_bytes,
        "selective retransmit did not beat go-back-N across the sweep \
         ({sack_total_bytes} vs {gbn_total_bytes} retransmitted bytes)"
    );
}

/// Regression for the credit-stall undercount in `Switch::pump`: while a
/// dropped frame's retransmission waits for a busy wire, fresh traffic
/// queued behind it is a deferral — `stats.blocked` must count it and the
/// TxPort stall clock must run, because fault recovery is exactly when the
/// credit-stall series matters. The old loop `continue`d past this case
/// and recorded nothing.
#[test]
fn drop_recovery_records_switch_stall_time() {
    let timing = TimingConfig::telegraphos_i();
    let topo = Topology::star(2);
    let load = |engine: &mut Engine<tg_net::NetEvent>, ids: &[CompId]| {
        for i in 0..60u64 {
            engine
                .get_mut::<SourceSink>(ids[0])
                .unwrap()
                .enqueue(NodeId::new(1), write(i * 8, i + 1));
        }
        for &id in ids {
            kick(engine, id);
        }
    };

    // Control: the same stream over a fault-free reliable fabric.
    let clean = NetConfig {
        reliability: Some(RelParams::default()),
        injector: None,
    };
    let (mut engine, ids, switches) = build_with(&topo, &timing, &clean);
    load(&mut engine, &ids);
    assert_eq!(engine.run_events(2_000_000), RunLimit::Drained);
    let stall = |engine: &Engine<tg_net::NetEvent>, id| -> SimTime {
        switch_ports(engine, id)
            .iter()
            .map(|p| p.credit_stall)
            .sum()
    };
    let sw = engine.get::<tg_net::Switch>(switches[0]).unwrap();
    let (clean_blocked, clean_stall) = (sw.stats().blocked, stall(&engine, switches[0]));

    // Faulted: an outage on the switch → node 1 downlink drops every frame
    // inside the window, forcing retransmissions while the backlog keeps
    // the output requested.
    let victim = LinkId::new(Site::Switch(0), Site::Node(NodeId::new(1)));
    let plan = FaultPlan::new(0xB10C_0C45).drop(0.10).outage(
        victim,
        SimTime::from_us(2),
        SimTime::from_us(40),
    );
    let faulty = NetConfig {
        reliability: Some(RelParams::default()),
        injector: Some(FaultInjector::new(plan)),
    };
    let (mut engine, ids, switches) = build_with(&topo, &timing, &faulty);
    load(&mut engine, &ids);
    assert_eq!(
        engine.run_events(4_000_000),
        RunLimit::Drained,
        "recovery wedged"
    );
    let got: Vec<u64> = engine
        .get::<SourceSink>(ids[1])
        .unwrap()
        .received
        .iter()
        .filter_map(|r| match r.packet.msg {
            WireMsg::WriteReq { val, .. } => Some(val),
            _ => None,
        })
        .collect();
    assert_eq!(got, (1..=60).collect::<Vec<u64>>(), "drops leaked through");

    let sw = engine.get::<tg_net::Switch>(switches[0]).unwrap();
    assert!(
        sw.stats().blocked > clean_blocked,
        "recovery deferrals were not counted as blocks ({} vs clean {})",
        sw.stats().blocked,
        clean_blocked
    );
    let faulted_stall = stall(&engine, switches[0]);
    assert!(
        faulted_stall > clean_stall,
        "the stall clock never ran during recovery ({faulted_stall:?} vs clean {clean_stall:?})"
    );
}

/// Satellite regression: a SACK reorder window squeezed down to two
/// frames overflows constantly under a lossy plan, and every overflow
/// must come back as a NACK — never a silent drop. The run still drains
/// to the exact fault-free delivery, and the switch credit books close.
#[test]
fn tiny_sack_window_overflow_nacks_and_conserves() {
    let timing = TimingConfig::telegraphos_i();
    let topo = Topology::star(3);
    let params = RelParams::with_mode(RetxMode::Sack).with_sack_window(2);
    let plan = FaultPlan::new(0x0F10_5ACC).drop(0.30).corrupt(0.10);
    let config = NetConfig {
        reliability: Some(params),
        injector: Some(FaultInjector::new(plan)),
    };
    let (mut engine, ids, switches) = build_with(&topo, &timing, &config);
    let expected = load_workload(&mut engine, &ids, 0x5ACC_F00D, 200);
    assert_eq!(
        engine.run_events(8_000_000),
        RunLimit::Drained,
        "overflowing the reorder window wedged the fabric"
    );
    assert_eq!(
        observe(&engine, &ids),
        expected,
        "a reorder-window overflow lost a frame"
    );
    // The two-frame window must actually have overflowed somewhere —
    // endpoint receivers or switch input ports — or the case is vacuous.
    let mut gap_nacks = 0u64;
    for &id in &ids {
        gap_nacks += port(&engine, id).gap_discards;
    }
    for &id in &switches {
        gap_nacks += switch_ports(&engine, id)
            .iter()
            .map(|p| p.gap_discards)
            .sum::<u64>();
    }
    assert!(
        gap_nacks > 0,
        "a 2-frame window under 30% loss never overflowed — dead test"
    );
    // Conservation audit: at quiescence every switch credit is either in
    // hand or riding an unacked frame, and no frame is parked forever.
    for &id in &switches {
        for p in switch_ports(&engine, id) {
            assert!(p.balanced(), "credit leak after overflow: {p:?}");
            assert_eq!(p.reorder_depth, 0, "frames stranded in a window");
        }
    }
}
