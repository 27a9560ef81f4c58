//! End-to-end network tests: delivery, ordering, back-pressure, and
//! deadlock freedom under randomized topologies and traffic.

use tg_net::testing::{kick, Receipt, SourceSink};
use tg_net::{build_network_with, NetConfig, RelParams, Switch, Topology, Vertex};
use tg_sim::{CompId, Engine, RunLimit, SimTime};
use tg_wire::{GOffset, NodeId, TimingConfig, WireMsg};

fn build(
    topo: &Topology,
    timing: &TimingConfig,
) -> (Engine<tg_net::NetEvent>, Vec<CompId>, Vec<CompId>) {
    let mut engine = Engine::new();
    let n = topo.endpoint_count();
    let ids: Vec<CompId> = (0..n)
        .map(|i| engine.add(SourceSink::new(NodeId::new(i as u16), timing.clone())))
        .collect();
    let handles = build_network_with(&mut engine, topo, timing, &ids, &NetConfig::default())
        .expect("connected");
    for (id, w) in ids.iter().zip(handles.endpoints) {
        engine
            .get_mut::<SourceSink>(*id)
            .unwrap()
            .wire(w.tx, w.rx_upstream);
    }
    (engine, ids, handles.switches)
}

fn write(addr: u64, val: u64) -> WireMsg {
    WireMsg::WriteReq {
        addr: GOffset::new(addr),
        val,
        tag: 0,
    }
}

#[test]
fn star_delivers_across_the_switch() {
    let timing = TimingConfig::telegraphos_i();
    let (mut engine, ids, _sw) = build(&Topology::star(2), &timing);
    engine
        .get_mut::<SourceSink>(ids[0])
        .unwrap()
        .enqueue(NodeId::new(1), write(0, 42));
    kick(&mut engine, ids[0]);
    assert_eq!(engine.run(), RunLimit::Drained);
    let rx = &engine.get::<SourceSink>(ids[1]).unwrap().received;
    assert_eq!(rx.len(), 1);
    assert!(rx[0].at > SimTime::from_ns(500), "must cross the fabric");
}

#[test]
fn chain_delivers_end_to_end() {
    let timing = TimingConfig::telegraphos_i();
    let (mut engine, ids, _sw) = build(&Topology::chain(5), &timing);
    engine
        .get_mut::<SourceSink>(ids[0])
        .unwrap()
        .enqueue(NodeId::new(4), write(8, 7));
    kick(&mut engine, ids[0]);
    engine.run();
    assert_eq!(engine.get::<SourceSink>(ids[4]).unwrap().received.len(), 1);
}

#[test]
fn latency_grows_with_hop_count() {
    let timing = TimingConfig::telegraphos_i();
    let arrival_at = |hops_topo: Topology, dst: u16| {
        let (mut engine, ids, _sw) = build(&hops_topo, &timing);
        engine
            .get_mut::<SourceSink>(ids[0])
            .unwrap()
            .enqueue(NodeId::new(dst), write(0, 1));
        kick(&mut engine, ids[0]);
        engine.run();
        engine
            .get::<SourceSink>(ids[dst as usize])
            .unwrap()
            .received[0]
            .at
    };
    let one_switch = arrival_at(Topology::star(2), 1);
    let four_switches = arrival_at(Topology::chain(4), 3);
    assert!(four_switches > one_switch);
    // Each extra switch adds at least its cut-through latency.
    assert!(four_switches - one_switch >= timing.switch_latency * 3);
}

#[test]
fn in_order_delivery_per_source() {
    let timing = TimingConfig::telegraphos_i();
    let (mut engine, ids, _sw) = build(&Topology::chain(3), &timing);
    for i in 0..200u64 {
        engine
            .get_mut::<SourceSink>(ids[0])
            .unwrap()
            .enqueue(NodeId::new(2), write(i * 8, i));
    }
    kick(&mut engine, ids[0]);
    engine.run();
    let rx = &engine.get::<SourceSink>(ids[2]).unwrap().received;
    assert_eq!(rx.len(), 200);
    for (i, r) in rx.iter().enumerate() {
        assert_eq!(r.packet.inject_seq, i as u64, "reordered at {i}");
    }
}

#[test]
fn backpressure_throttles_a_fast_source_into_a_slow_sink() {
    let timing = TimingConfig::telegraphos_i();
    let topo = Topology::star(2).with_endpoint_fifo(2).with_switch_fifo(2);
    let (mut engine, ids, _sw) = build(&topo, &timing);
    // The sink consumes very slowly.
    engine
        .get_mut::<SourceSink>(ids[1])
        .unwrap()
        .set_consume_delay(SimTime::from_us(50));
    let n = 20u64;
    for i in 0..n {
        engine
            .get_mut::<SourceSink>(ids[0])
            .unwrap()
            .enqueue(NodeId::new(1), write(i * 8, i));
    }
    kick(&mut engine, ids[0]);
    assert_eq!(engine.run(), RunLimit::Drained);
    let rx = &engine.get::<SourceSink>(ids[1]).unwrap().received;
    assert_eq!(rx.len(), n as usize, "all packets eventually delivered");
    // Delivery is paced by the sink: with 2 endpoint credits, at most two
    // packets land per 50 us consume cycle after the initial burst.
    let total = rx.last().unwrap().at;
    assert!(
        total >= SimTime::from_us(50) * ((n - 2) / 2),
        "back-pressure failed: finished in {total}"
    );
    // And nothing overflowed (RxFifo would have panicked), so ordering held:
    for (i, r) in rx.iter().enumerate() {
        assert_eq!(r.packet.inject_seq, i as u64);
    }
}

#[test]
fn bidirectional_traffic_both_arrive() {
    let timing = TimingConfig::telegraphos_i();
    let (mut engine, ids, _sw) = build(&Topology::star(2), &timing);
    engine
        .get_mut::<SourceSink>(ids[0])
        .unwrap()
        .enqueue(NodeId::new(1), write(0, 1));
    engine
        .get_mut::<SourceSink>(ids[1])
        .unwrap()
        .enqueue(NodeId::new(0), write(8, 2));
    kick(&mut engine, ids[0]);
    kick(&mut engine, ids[1]);
    engine.run();
    assert_eq!(engine.get::<SourceSink>(ids[0]).unwrap().received.len(), 1);
    assert_eq!(engine.get::<SourceSink>(ids[1]).unwrap().received.len(), 1);
}

#[test]
fn switch_counts_traffic() {
    let timing = TimingConfig::telegraphos_i();
    let (mut engine, ids, switches) = build(&Topology::star(3), &timing);
    for dst in [1u16, 2u16] {
        for i in 0..5 {
            engine
                .get_mut::<SourceSink>(ids[0])
                .unwrap()
                .enqueue(NodeId::new(dst), write(i * 8, i));
        }
    }
    kick(&mut engine, ids[0]);
    engine.run();
    let stats = engine.get::<Switch>(switches[0]).unwrap().stats();
    assert_eq!(stats.packets, 10);
    assert!(stats.bytes >= 10 * 22);
}

/// Random traffic over random topologies: every packet is delivered,
/// per-(src,dst) order is preserved, and the simulation always drains
/// (deadlock freedom of tree routing under credit flow control). Cases are
/// drawn from a seeded [`tg_sim::SimRng`] so the sweep is deterministic.
#[test]
fn random_traffic_is_delivered_in_order() {
    let mut rng = tg_sim::SimRng::new(0x7A55);
    for case in 0..24 {
        let topo_kind = rng.range(4) as u8;
        let size = (3 + rng.range(4)) as u16;
        let fifo = (1 + rng.range(3)) as u32;
        let n_sends = (1 + rng.range(119)) as usize;
        let topo = match topo_kind {
            0 => Topology::star(size),
            1 => Topology::chain(size),
            2 => Topology::ring(size.max(3)),
            _ => Topology::mesh(2, (size / 2).max(1)),
        }
        .with_switch_fifo(fifo)
        .with_endpoint_fifo(fifo);
        let n = topo.endpoint_count() as u16;
        let timing = TimingConfig::telegraphos_i();
        let (mut engine, ids, _sw) = build(&topo, &timing);

        let mut expected: std::collections::HashMap<(u16, u16), Vec<u64>> =
            std::collections::HashMap::new();
        for _ in 0..n_sends {
            let (src, dst) = (
                rng.range(u64::from(n)) as u16,
                rng.range(u64::from(n)) as u16,
            );
            let val = rng.range(1000);
            if src == dst {
                continue;
            }
            engine
                .get_mut::<SourceSink>(ids[src as usize])
                .unwrap()
                .enqueue(NodeId::new(dst), write(val * 8, val));
            expected.entry((src, dst)).or_default().push(val);
        }
        for &id in &ids {
            kick(&mut engine, id);
        }
        let outcome = engine.run_until(SimTime::from_ms(1_000));
        assert_eq!(
            outcome,
            RunLimit::Drained,
            "network livelock/deadlock (case {case})"
        );

        // Reassemble observed per-pair value sequences.
        let mut observed: std::collections::HashMap<(u16, u16), Vec<u64>> =
            std::collections::HashMap::new();
        for (dst_idx, &id) in ids.iter().enumerate() {
            for r in &engine.get::<SourceSink>(id).unwrap().received {
                if let WireMsg::WriteReq { val, .. } = r.packet.msg {
                    observed
                        .entry((r.packet.src.raw(), dst_idx as u16))
                        .or_default()
                        .push(val);
                }
            }
        }
        assert_eq!(observed, expected, "case {case}");
    }
}

#[test]
fn switchless_direct_wiring_delivers_both_ways() {
    let timing = TimingConfig::telegraphos_i();
    let (mut engine, ids, switches) = build(&Topology::direct(), &timing);
    assert!(switches.is_empty(), "no switches in a direct wiring");
    engine
        .get_mut::<SourceSink>(ids[0])
        .unwrap()
        .enqueue(NodeId::new(1), write(0, 5));
    engine
        .get_mut::<SourceSink>(ids[1])
        .unwrap()
        .enqueue(NodeId::new(0), write(8, 6));
    kick(&mut engine, ids[0]);
    kick(&mut engine, ids[1]);
    assert_eq!(engine.run(), RunLimit::Drained);
    assert_eq!(engine.get::<SourceSink>(ids[0]).unwrap().received.len(), 1);
    assert_eq!(engine.get::<SourceSink>(ids[1]).unwrap().received.len(), 1);
}

/// Node 0 fans out to every other node while every other node floods
/// node 0, on an `n_nodes` star: each output then arbitrates among inputs
/// that also compete for other outputs. Asserts no flow starves in either
/// direction and returns node 0's receipts in arrival order.
fn cross_output_flood(n_nodes: u16, per_flow: u64) -> Vec<Receipt> {
    let timing = TimingConfig::telegraphos_i();
    let (mut engine, ids, _sw) = build(&Topology::star(n_nodes), &timing);
    // Node 0 fans out to everyone.
    for dst in 1..n_nodes {
        for i in 0..per_flow {
            engine
                .get_mut::<SourceSink>(ids[0])
                .unwrap()
                .enqueue(NodeId::new(dst), write(i * 8, i));
        }
    }
    // Everyone floods node 0.
    for src in 1..n_nodes {
        for i in 0..per_flow {
            engine
                .get_mut::<SourceSink>(ids[src as usize])
                .unwrap()
                .enqueue(NodeId::new(0), write(i * 8, i));
        }
    }
    for id in &ids {
        kick(&mut engine, *id);
    }
    assert_eq!(engine.run(), RunLimit::Drained);
    let flows = u64::from(n_nodes) - 1;
    let rx0 = &engine.get::<SourceSink>(ids[0]).unwrap().received;
    assert_eq!(rx0.len() as u64, flows * per_flow, "a flow starved");
    for src in 1..n_nodes {
        let from_src = rx0
            .iter()
            .filter(|r| r.packet.src == NodeId::new(src))
            .count() as u64;
        assert_eq!(from_src, per_flow, "source {src} starved");
    }
    for dst in 1..n_nodes {
        let rx = &engine
            .get::<SourceSink>(ids[dst as usize])
            .unwrap()
            .received;
        assert_eq!(rx.len() as u64, per_flow, "fan-out to {dst} starved");
    }
    std::mem::take(&mut engine.get_mut::<SourceSink>(ids[0]).unwrap().received)
}

/// Regression test for cross-output arbitration interference: node 0
/// streams to every other node (keeping its input port permanently busy on
/// *other* outputs) while all other nodes stream back to node 0 through one
/// contended output. With a single switch-wide round-robin pointer, every
/// forward of node 0's stream reset the pointer past the high-numbered
/// inputs, which then starved on the contended output; per-output pointers
/// must deliver everything.
#[test]
fn arbitration_survives_cross_output_interference() {
    cross_output_flood(12, 40);
}

/// The same cross-output flood on a 130-port switch, whose per-output
/// arbitration state spans three 64-bit words. Besides fairness, the
/// exact grant order is pinned: an FNV-1a fingerprint over node 0's
/// receipt sequence `(src, inject_seq, arrival time)` must not move when
/// the arbitration implementation changes.
#[test]
fn wide_star_arbitration_order_is_pinned() {
    let rx0 = cross_output_flood(130, 6);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in &rx0 {
        for v in [
            u64::from(r.packet.src.raw()),
            r.packet.inject_seq,
            r.at.as_ps(),
        ] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    assert_eq!(h, 0xb7cb_f1e3_634d_da50, "wide-star grant order moved");
}

/// A route refresh while packets sit in a switch FIFO: node 0's input
/// FIFO is full of packets for slow node 3 when node 3 is declared dead,
/// so the refresh drains them and input 0's head changes under the
/// arbiter. Every packet must then be delivered or counted as
/// blackholed, and unrelated traffic must be untouched.
#[test]
fn route_refresh_under_queued_heads_keeps_arbitration_in_step() {
    let timing = TimingConfig::telegraphos_i();
    let topo = Topology::star(5);
    let config = NetConfig {
        reliability: Some(RelParams::default()),
        injector: None,
    };
    let mut engine = Engine::new();
    let ids: Vec<CompId> = (0..5)
        .map(|i| engine.add(SourceSink::new(NodeId::new(i), timing.clone())))
        .collect();
    let handles =
        build_network_with(&mut engine, &topo, &timing, &ids, &config).expect("connected");
    let view = handles.view.expect("heartbeats give the fabric a view");
    for (id, w) in ids.iter().zip(handles.endpoints) {
        engine
            .get_mut::<SourceSink>(*id)
            .unwrap()
            .wire(w.tx, w.rx_upstream);
    }
    engine
        .get_mut::<SourceSink>(ids[3])
        .unwrap()
        .set_consume_delay(SimTime::from_us(2));
    let per_flow = 40u64;
    for i in 0..per_flow {
        engine
            .get_mut::<SourceSink>(ids[0])
            .unwrap()
            .enqueue(NodeId::new(3), write(i * 8, i));
        engine
            .get_mut::<SourceSink>(ids[1])
            .unwrap()
            .enqueue(NodeId::new(4), write(i * 8, i));
    }
    kick(&mut engine, ids[0]);
    kick(&mut engine, ids[1]);
    engine.run_until(SimTime::from_us(10));
    let sw = handles.switches[0];
    assert!(
        engine
            .get::<Switch>(sw)
            .unwrap()
            .port_snapshots()
            .any(|p| p.rx_fifo_depth > 0),
        "node 0's packets should be queued behind slow node 3"
    );
    assert!(view.declare_down(Vertex::Node(3), engine.now()));
    // A verdict from outside any handler: queue the switch's deferred
    // events, which assumed the old routes.
    engine.get_mut::<Switch>(sw).expect("switch");
    assert_eq!(engine.run(), RunLimit::Drained);
    let blackholed = engine.get::<Switch>(sw).unwrap().stats().blackholed;
    let to3 = engine.get::<SourceSink>(ids[3]).unwrap().received.len() as u64;
    assert!(blackholed > 0, "the refresh orphaned no queued packet");
    assert_eq!(to3 + blackholed, per_flow, "a packet for node 3 vanished");
    let to4 = &engine.get::<SourceSink>(ids[4]).unwrap().received;
    assert_eq!(to4.len() as u64, per_flow, "unrelated traffic lost");
}

#[test]
fn arbitration_shares_a_contended_output_fairly() {
    // Two sources blast one sink through a single switch; round-robin
    // arbitration must interleave them rather than starve either side.
    let timing = TimingConfig::telegraphos_i();
    let (mut engine, ids, _sw) = build(&Topology::star(3), &timing);
    let n = 60u64;
    for src in [0u16, 1u16] {
        for i in 0..n {
            engine
                .get_mut::<SourceSink>(ids[src as usize])
                .unwrap()
                .enqueue(NodeId::new(2), write(i * 8, u64::from(src) * 1000 + i));
        }
    }
    kick(&mut engine, ids[0]);
    kick(&mut engine, ids[1]);
    assert_eq!(engine.run(), RunLimit::Drained);
    let rx = &engine.get::<SourceSink>(ids[2]).unwrap().received;
    assert_eq!(rx.len(), 2 * n as usize);
    // Fairness: in any window of 16 arrivals, both sources appear.
    for window in rx.chunks(16) {
        if window.len() < 16 {
            continue;
        }
        let from0 = window
            .iter()
            .filter(|r| r.packet.src == NodeId::new(0))
            .count();
        assert!(
            from0 > 0 && from0 < 16,
            "starvation in a window: {from0}/16 from source 0"
        );
    }
    // And per-source order still holds.
    for src in [0u16, 1u16] {
        let seqs: Vec<u64> = rx
            .iter()
            .filter(|r| r.packet.src == NodeId::new(src))
            .map(|r| r.packet.inject_seq)
            .collect();
        assert!(seqs.windows(2).all(|w| w[1] > w[0]), "src {src} reordered");
    }
}

/// Regression for round-robin advancement under batched same-instant
/// grants: several sources kicked at the same instant produce identical
/// arrival times, which the engine delivers as one batch — each delivery
/// pumps the switch, and `rr_next` must still advance exactly one step per
/// grant (one grant per pump pass per output, since the wire goes busy) so
/// no input is starved or double-served across a batch.
#[test]
fn arbitration_stays_fair_across_batched_same_instant_grants() {
    let timing = TimingConfig::telegraphos_i();
    let (mut engine, ids, _sw) = build(&Topology::star(4), &timing);
    let n = 48u64;
    let sources = [0u16, 1, 2];
    for &src in &sources {
        for i in 0..n {
            engine
                .get_mut::<SourceSink>(ids[src as usize])
                .unwrap()
                .enqueue(NodeId::new(3), write(i * 8, u64::from(src) * 1000 + i));
        }
    }
    // Kick every source in the same instant: their first arrivals (and the
    // switch pumps they trigger) share delivery instants throughout.
    for &src in &sources {
        kick(&mut engine, ids[src as usize]);
    }
    assert_eq!(engine.run(), RunLimit::Drained);
    let rx = &engine.get::<SourceSink>(ids[3]).unwrap().received;
    assert_eq!(rx.len(), sources.len() * n as usize, "lost packets");
    // Fairness: every source appears in any window of 24 arrivals.
    for window in rx.chunks(24) {
        if window.len() < 24 {
            continue;
        }
        for &src in &sources {
            let cnt = window
                .iter()
                .filter(|r| r.packet.src == NodeId::new(src))
                .count();
            assert!(
                cnt > 0,
                "source {src} starved in a window of 24 same-instant-batched grants"
            );
        }
    }
    // Per-source FIFO order must survive batching.
    for &src in &sources {
        let seqs: Vec<u64> = rx
            .iter()
            .filter(|r| r.packet.src == NodeId::new(src))
            .map(|r| r.packet.inject_seq)
            .collect();
        assert_eq!(seqs.len(), n as usize);
        assert!(seqs.windows(2).all(|w| w[1] > w[0]), "src {src} reordered");
    }
}
