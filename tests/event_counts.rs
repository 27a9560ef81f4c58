//! Exact event-count pins, one per rung of the stack: a bare engine
//! ping-pong, a two-endpoint stream through a star fabric without and
//! with link-level reliability, and the 16-node Jacobi stencil untraced
//! and traced. Each pins `EngineStats::logical_events()` (delivered +
//! absorbed + inlined, so the count does not depend on which events the
//! engine deferred or ran in place) and the peak queue length, in both
//! directions: a change that adds or removes events, or deepens or
//! drains the queue, fails here. The values read the same in debug and
//! release builds. Tracing and metric sampling observe the stencil
//! without adding events, so the traced run pins the same counts.

use telegraphos_suite::harness::{self, HarnessOptions};
use tg_net::testing::{kick, SourceSink};
use tg_net::{build_network_with, NetConfig, RelParams, Topology};
use tg_sim::{CompId, Component, Ctx, Engine, EngineStats, MetricsRegistry, SimTime};
use tg_wire::{GOffset, NodeId, TimingConfig, WireMsg};

/// The pinned pair: logical events and the deepest queue.
fn counts(s: EngineStats) -> (u64, usize) {
    (s.logical_events(), s.max_queue_len)
}

struct Relay {
    peer: Option<CompId>,
    remaining: u64,
}

impl Component<u64> for Relay {
    fn on_event(&mut self, v: u64, ctx: &mut Ctx<'_, u64>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let dst = self.peer.unwrap_or(ctx.self_id());
            ctx.send(dst, SimTime::from_ns(10), v + 1);
        }
    }
    fn name(&self) -> &str {
        "relay"
    }
}

/// Two relays bouncing one event back and forth: the scheduler's pop,
/// deliver, push path with no payload work.
#[test]
fn engine_ping_pong_is_pinned() {
    const ROUNDS: u64 = 1_000_000;
    let mut eng: Engine<u64> = Engine::new();
    let a = eng.add(Relay {
        peer: None,
        remaining: ROUNDS / 2,
    });
    let b = eng.add(Relay {
        peer: Some(a),
        remaining: ROUNDS / 2,
    });
    eng.get_mut::<Relay>(a).unwrap().peer = Some(b);
    eng.schedule(SimTime::ZERO, a, 0);
    eng.run();
    assert_eq!(counts(eng.stats()), (1_000_001, 1));
}

/// 30,000 writes each way between two endpoints on a star: switch
/// routing, FIFO queues and credit flow control, with or without the
/// link-level reliability protocol on every hop.
fn fabric_stream(reliable: bool) -> (u64, usize) {
    const MSGS: u64 = 30_000;
    let timing = TimingConfig::telegraphos_i();
    let config = NetConfig {
        reliability: reliable.then(RelParams::default),
        injector: None,
    };
    let mut engine = Engine::new();
    let ids: Vec<CompId> = (0..2)
        .map(|i| engine.add(SourceSink::new(NodeId::new(i), timing.clone())))
        .collect();
    let handles = build_network_with(&mut engine, &Topology::star(2), &timing, &ids, &config)
        .expect("connected");
    for (&id, w) in ids.iter().zip(handles.endpoints) {
        engine
            .get_mut::<SourceSink>(id)
            .unwrap()
            .wire(w.tx, w.rx_upstream);
    }
    for i in 0..MSGS {
        let msg = WireMsg::WriteReq {
            addr: GOffset::new(i * 8),
            val: i,
            tag: 0,
        };
        for (from, to) in [(0, 1), (1, 0)] {
            engine
                .get_mut::<SourceSink>(ids[from])
                .unwrap()
                .enqueue(NodeId::new(to), msg.clone());
        }
    }
    kick(&mut engine, ids[0]);
    kick(&mut engine, ids[1]);
    engine.run();
    for &id in &ids {
        let ss = engine.get::<SourceSink>(id).unwrap();
        assert_eq!(ss.received.len(), MSGS as usize, "stream wedged");
        assert_eq!(ss.retransmits(), 0, "lossless run retransmitted");
    }
    counts(engine.stats())
}

#[test]
fn fabric_stream_is_pinned() {
    assert_eq!(fabric_stream(false), (360_002, 14));
}

/// The switches absorb the endpoints' acks, which therefore never queue:
/// the peak was 20 while reliable links absorbed nothing.
#[test]
fn reliable_fabric_stream_is_pinned() {
    assert_eq!(fabric_stream(true), (500_000, 18));
}

/// The 16-node stencil at 12 sweeps (`tg report stencil16`), verified
/// against the sequential reference; `traced` adds packet tracing and
/// the 1 µs congestion sampler, which must both record something.
fn stencil_16(traced: bool) -> (u64, usize) {
    let opts = HarnessOptions {
        nodes: 16,
        ..HarnessOptions::default()
    };
    let (mut cluster, check) = harness::build_stencil(&opts, 8, 12);
    let collector = traced.then(|| cluster.enable_tracing());
    let mut metrics = MetricsRegistry::new();
    let sampled = traced.then_some((SimTime::from_us(1), &mut metrics));
    assert!(
        harness::run_cluster(&mut cluster, &opts, sampled),
        "stencil deadlocked"
    );
    assert!(
        !traced || metrics.all_series().next().is_some(),
        "sampler recorded nothing"
    );
    if let Some(c) = &collector {
        assert!(!c.packet_events().is_empty(), "probes saw no packets");
    }
    harness::verify_stencil(&cluster, &check).expect("stencil verification");
    counts(cluster.engine_stats())
}

#[test]
fn stencil_16_is_pinned_traced_or_not() {
    assert_eq!(stencil_16(false), (43_540, 75));
    assert_eq!(stencil_16(true), (43_540, 75));
}
