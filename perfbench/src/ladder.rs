//! The layer ladder: one fixed piece of work per layer, each driven
//! through that layer's public entry point, so a rung's cost is its time
//! net of the rungs below it and a regression names its layer.
//!
//! 1. engine — `Engine::run` bouncing one event between two relays;
//! 2. fabric — `build_network_with` plus a two-way `SourceSink` stream
//!    over a star switch, no link reliability;
//! 3. reliability — the same stream with SACK `RelParams` on every link;
//! 4. loss recovery — the same reliable stream under a seeded 20% drop
//!    plan;
//! 5. node — a 2-node `Cluster` running a fixed write/read/fetch-add
//!    `Script` against a page homed on the other node.
//!
//! Each rung reports wall time and the counts its unit cost is taken
//! over; [`costs`] turns the rung timings into per-unit deltas.

use std::time::Instant;

use telegraphos::{Action, ClusterBuilder, Script};
use tg_net::testing::{kick, SourceSink};
use tg_net::{
    build_network_with, FaultInjector, FaultPlan, NetConfig, RelParams, RetxMode, Switch, Topology,
};
use tg_sim::{CompId, Component, Ctx, Engine, SimTime};
use tg_wire::{GOffset, NodeId, TimingConfig, WireMsg};

/// What one run of a rung did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RungWork {
    /// Engine events delivered.
    pub events: u64,
    /// Frame launches on directed links (endpoint injections, switch
    /// forwards and retransmissions).
    pub hops: u64,
    /// Retransmitted frames.
    pub retransmits: u64,
    /// Remote operations completed by the node rung.
    pub remote_ops: u64,
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

/// Rung 1: the bare scheduler loop — pop, deliver, push.
pub fn engine(events: u64) -> RungWork {
    let mut eng: Engine<u64> = Engine::new();
    let a = eng.add(Relay {
        peer: None,
        remaining: events / 2,
    });
    let b = eng.add(Relay {
        peer: Some(a),
        remaining: events / 2,
    });
    eng.get_mut::<Relay>(a).expect("relay").peer = Some(b);
    eng.schedule(SimTime::ZERO, a, 0);
    eng.run();
    RungWork {
        events: eng.stats().events_delivered,
        ..RungWork::default()
    }
}

/// Rungs 2–4: `msgs` writes each way between two endpoints of a star,
/// optionally over reliable links and through a seeded drop plan.
pub fn stream(msgs: u64, reliable: bool, drop_seed: Option<u64>) -> RungWork {
    let timing = TimingConfig::telegraphos_i();
    let topo = Topology::star(2);
    let config = NetConfig {
        reliability: reliable.then(|| RelParams::with_mode(RetxMode::Sack)),
        injector: drop_seed.map(|seed| FaultInjector::new(FaultPlan::new(seed).drop(0.2))),
    };
    let mut engine = Engine::new();
    let ids: Vec<CompId> = (0..2)
        .map(|i| engine.add(SourceSink::new(NodeId::new(i), timing.clone())))
        .collect();
    let handles =
        build_network_with(&mut engine, &topo, &timing, &ids, &config).expect("star is connected");
    for (id, w) in ids.iter().zip(handles.endpoints) {
        let ss = engine.get_mut::<SourceSink>(*id).expect("endpoint");
        ss.wire(w.tx, w.rx_upstream);
        if let Some(inj) = &config.injector {
            ss.set_injector(inj.clone());
        }
    }
    for i in 0..msgs {
        for (from, to) in [(0, 1), (1, 0)] {
            let msg = WireMsg::WriteReq {
                addr: GOffset::new(i * 8),
                val: i,
                tag: 0,
            };
            engine
                .get_mut::<SourceSink>(ids[from])
                .expect("endpoint")
                .enqueue(NodeId::new(to), msg);
        }
    }
    for &id in &ids {
        kick(&mut engine, id);
    }
    engine.run();
    let mut work = RungWork {
        events: engine.stats().events_delivered,
        ..RungWork::default()
    };
    for &id in &ids {
        let ss = engine.get::<SourceSink>(id).expect("endpoint");
        assert_eq!(ss.received.len() as u64, msgs, "stream lost messages");
        work.hops += ss.injected_at.len() as u64;
        work.retransmits += ss.retransmits();
    }
    for &id in &handles.switches {
        let sw = engine.get::<Switch>(id).expect("switch");
        work.hops += sw.stats().packets;
        work.retransmits += sw.retransmits();
    }
    work.hops += work.retransmits;
    work
}

/// Rung 5: node 0 runs `rounds` × (remote write, remote read, remote
/// fetch-add) against a page homed on node 1.
pub fn node(rounds: u64) -> RungWork {
    let mut cluster = ClusterBuilder::new(2).build();
    let page = cluster.alloc_shared(1);
    let mut actions = Vec::with_capacity(rounds as usize * 3);
    for i in 0..rounds {
        actions.push(Action::Write(page.va(0), i));
        actions.push(Action::Read(page.va(8)));
        actions.push(Action::FetchAdd(page.va(16), 1));
    }
    cluster.set_process(0, Script::new(actions));
    cluster.run();
    assert!(cluster.all_halted(), "node rung did not finish");
    assert_eq!(
        cluster.read_shared(&page, 2),
        rounds,
        "fetch-add lost updates"
    );
    let s = cluster.node(0).stats();
    RungWork {
        events: cluster.engine_stats().events_delivered,
        hops: cluster.link_snapshots().iter().map(|l| l.tx_packets).sum(),
        retransmits: 0,
        remote_ops: s.remote_writes.count() + s.remote_reads.count() + s.atomics.count(),
    }
}

/// The rungs, bottom first.
pub const RUNGS: [&str; 5] = ["engine", "fabric", "reliability", "loss", "node"];

/// Seed of the loss rung's drop plan.
const LOSS_SEED: u64 = 0x001A_DDE4;

/// Runs rung `k` of [`RUNGS`] at its benchmark size divided by `shrink`,
/// returning wall seconds and the work done.
pub fn time(k: usize, shrink: u64) -> (f64, RungWork) {
    let t = Instant::now();
    let work = match k {
        0 => engine(4_000_000 / shrink),
        1 => stream(20_000 / shrink, false, None),
        2 => stream(20_000 / shrink, true, None),
        3 => stream(20_000 / shrink, true, Some(LOSS_SEED)),
        _ => node(10_000 / shrink),
    };
    (t.elapsed().as_secs_f64(), work)
}

/// Per-unit costs of each layer, in nanoseconds, each net of the layers
/// below it.
#[derive(Clone, Copy, Debug)]
pub struct Costs {
    pub ns_per_event: f64,
    pub ns_per_hop: f64,
    pub ns_per_frame: f64,
    pub ns_per_retx: f64,
    pub ns_per_remote_op: f64,
}

/// Turns one wall time per rung (seconds, in [`RUNGS`] order) and each
/// rung's work into layer costs.
pub fn costs(wall: [f64; 5], work: [RungWork; 5]) -> Costs {
    let ns = wall.map(|s| s * 1e9);
    let e = ns[0] / work[0].events as f64;
    let below_fabric = |k: usize| ns[k] - work[k].events as f64 * e;
    let h = below_fabric(1) / work[1].hops as f64;
    let r = (below_fabric(2) - work[2].hops as f64 * h) / work[2].hops as f64;
    let x = (below_fabric(3) - work[3].hops as f64 * (h + r)) / work[3].retransmits as f64;
    let n = (below_fabric(4) - work[4].hops as f64 * h) / work[4].remote_ops as f64;
    Costs {
        ns_per_event: e,
        ns_per_hop: h,
        ns_per_frame: r,
        ns_per_retx: x,
        ns_per_remote_op: n,
    }
}
