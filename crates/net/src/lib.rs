//! # tg-net — the Telegraphos switch network
//!
//! Models the switch fabric of the Telegraphos prototypes (Katevenis et al.,
//! SIGCOMM'95 / HotI'95): cut-through switches with per-input FIFOs,
//! credit-based back-pressure on every link, and deterministic routing that
//! delivers packets **in order** per (source, destination) pair and is
//! **deadlock-free** — the three properties the paper's coherence protocol
//! depends on (§2.3.1: "This also assumes a network that delivers packets
//! in-order from a certain source to a certain destination").
//!
//! Routing is the always-legal core of up*/down*: a BFS spanning tree is
//! computed over the topology and every route follows tree edges (up toward
//! the root, then down). Tree routing cannot create a cyclic channel
//! dependency, so the credit loops cannot deadlock; a property test in this
//! crate exercises random topologies under random traffic to back the claim.
//!
//! The crate is generic over the simulation's message type via
//! [`NetMessage`], so the cluster model in `telegraphos` can embed network
//! events inside its own event enum while this crate stays independently
//! testable (see [`testing`]).
//!
//! # Example
//!
//! ```
//! use tg_net::{build_network, testing::SourceSink, Topology};
//! use tg_sim::Engine;
//! use tg_wire::{GOffset, NodeId, TimingConfig, WireMsg};
//!
//! # fn main() -> Result<(), tg_net::RouteError> {
//! let timing = TimingConfig::telegraphos_i();
//! let topo = Topology::star(2);
//! let mut engine = Engine::new();
//! let a = engine.add(SourceSink::new(NodeId::new(0), timing.clone()));
//! let b = engine.add(SourceSink::new(NodeId::new(1), timing.clone()));
//! let handles = build_network(&mut engine, &topo, &timing, &[a, b])?;
//! for (id, w) in [a, b].into_iter().zip(handles.endpoints) {
//!     engine
//!         .get_mut::<SourceSink>(id)
//!         .unwrap()
//!         .wire(w.tx, w.rx_upstream);
//! }
//! engine
//!     .get_mut::<SourceSink>(a)
//!     .unwrap()
//!     .enqueue(NodeId::new(1), WireMsg::WriteReq { addr: GOffset::new(0), val: 7, tag: 1 });
//! tg_net::testing::kick(&mut engine, a);
//! engine.run();
//! assert_eq!(engine.get::<SourceSink>(b).unwrap().received.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod detect;
mod end;
mod event;
pub mod fault;
mod link;
mod port;
mod route;
mod switch;
pub mod testing;
mod topology;

pub use detect::{DetectParams, HeartbeatDetector, Liveness};
pub use end::{Arrival, CtrlOutcome, LinkCtx, LinkEnd, PortSnapshot, StalledLink};
pub use event::{NetEvent, NetMessage};
pub use fault::{
    CrashWindow, FaultInjector, FaultPlan, FaultStats, FrameFate, LinkId, Outage, Wedge,
};
pub use link::{LinkError, LinkRx, RelParams, RetxMode, RxVerdict};
pub use port::{RxFifo, TimerAction, TxPort, TxTimes};
pub use route::{FabricView, RouteError, Routes};
pub use switch::{Switch, SwitchStats};
pub use topology::{Topology, TopologyError, Vertex};

use tg_sim::{CompId, Engine};
use tg_wire::trace::Site;
use tg_wire::{NodeId, TimingConfig};

/// What the network builder hands back for each endpoint: the endpoint's
/// transmit port (with credits toward its switch) and the receive wiring it
/// must honor (FIFO capacity granted upstream, and where to return
/// credits as packets are consumed).
#[derive(Debug)]
pub struct EndpointWiring {
    /// The endpoint's transmit port into the fabric.
    pub tx: TxPort,
    /// Capacity of the endpoint's receive FIFO: the upstream switch holds
    /// this many credits, so the endpoint may buffer at most this many
    /// unconsumed packets.
    pub rx_capacity: u32,
    /// Where to send credits for consumed packets: `(component, port)`.
    /// Always the transmit port's own `(neighbor(), neighbor_port())`:
    /// the receive link pairs with the transmit link, and the endpoints
    /// derive it from `tx`.
    pub rx_upstream: (CompId, u32),
}

/// Everything [`build_network`] created: per-endpoint wiring plus the
/// engine ids of the instantiated switches (for stats inspection).
#[derive(Debug)]
pub struct NetworkHandles {
    /// Wiring for each endpoint, in topology order.
    pub endpoints: Vec<EndpointWiring>,
    /// Engine ids of the switches, in topology order.
    pub switches: Vec<CompId>,
    /// The shared dead-set + route view the switches report failure
    /// verdicts to; present when the reliability parameters enable
    /// heartbeats (the failure-detection substrate).
    pub view: Option<FabricView>,
}

/// Optional fabric behaviors threaded through [`build_network_with`]:
/// link-level reliability and fault injection.
#[derive(Clone, Debug, Default)]
pub struct NetConfig {
    /// When `Some`, every link in the fabric (switch ports *and* endpoint
    /// transmit ports) runs the link-level reliability protocol.
    pub reliability: Option<RelParams>,
    /// When `Some`, every frame launch and credit return consults this
    /// injector.
    pub injector: Option<FaultInjector>,
}

fn site_of(v: Vertex) -> Site {
    match v {
        Vertex::Switch(s) => Site::Switch(s),
        Vertex::Node(n) => Site::Node(NodeId::new(n)),
    }
}

/// Instantiates switches for `topology` inside `engine` and wires them to
/// the given endpoint components (one per topology endpoint, in order).
///
/// Returns per-endpoint wiring and the switch component ids. Endpoint
/// components must interpret [`NetEvent`]s embedded in `M`.
///
/// # Errors
///
/// Returns [`RouteError`] if the topology is disconnected.
///
/// # Panics
///
/// Panics if `endpoints.len()` differs from the topology's endpoint count.
pub fn build_network<M: NetMessage>(
    engine: &mut Engine<M>,
    topology: &Topology,
    timing: &TimingConfig,
    endpoints: &[CompId],
) -> Result<NetworkHandles, RouteError> {
    build_network_with(engine, topology, timing, endpoints, &NetConfig::default())
}

/// [`build_network`] with explicit fabric options: reliability protocol
/// parameters and a fault injector. Every transmit port is labeled with its
/// directed [`LinkId`] so the injector and diagnostics can name links.
///
/// # Errors
///
/// Returns [`RouteError`] if the topology is disconnected.
///
/// # Panics
///
/// Panics if `endpoints.len()` differs from the topology's endpoint count.
pub fn build_network_with<M: NetMessage>(
    engine: &mut Engine<M>,
    topology: &Topology,
    timing: &TimingConfig,
    endpoints: &[CompId],
    config: &NetConfig,
) -> Result<NetworkHandles, RouteError> {
    assert_eq!(
        endpoints.len(),
        topology.endpoint_count(),
        "one engine component required per topology endpoint"
    );
    let routes = Routes::compute(topology)?;
    // With heartbeats on, the switches share a fabric view: their port
    // detectors report dead vertices into it and every switch refreshes
    // its table from the one globally-consistent recomputed tree.
    let view = config
        .reliability
        .filter(|p| p.heartbeat_every.is_some())
        .map(|_| FabricView::new(topology.clone(), routes.clone()));

    // Create the switch components first so every CompId is known.
    let mut switch_ids = Vec::with_capacity(topology.switch_count());
    for s in 0..topology.switch_count() {
        let v = Vertex::Switch(s as u16);
        let mut sw = Switch::new(
            format!("switch{s}"),
            topology.ports_of(v).len(),
            routes.table_for_switch(s as u16),
            timing.clone(),
        );
        sw.set_fifo_capacity(topology.fifo_capacity(v));
        sw.set_site(s as u16);
        if let Some(params) = config.reliability {
            sw.set_reliability(params);
        }
        if let Some(injector) = &config.injector {
            sw.set_injector(injector.clone());
        }
        if let Some(view) = &view {
            sw.set_fabric(view.clone());
        }
        switch_ids.push(engine.add(sw));
    }
    let comp_of = |v: Vertex| -> CompId {
        match v {
            Vertex::Switch(s) => switch_ids[s as usize],
            Vertex::Node(n) => endpoints[n as usize],
        }
    };

    // Wire every switch port: credits granted = the neighbor's FIFO size.
    for (s, &switch_id) in switch_ids.iter().enumerate() {
        let v = Vertex::Switch(s as u16);
        for (port, &(nbr, nbr_port)) in topology.ports_of(v).iter().enumerate() {
            let mut tx = TxPort::new(comp_of(nbr), nbr_port, topology.fifo_capacity(nbr));
            tx.set_link(LinkId::new(site_of(v), site_of(nbr)));
            engine
                .get_mut::<Switch>(switch_id)
                .expect("switch component")
                .attach_port(port as u32, tx);
        }
    }

    // Hand each endpoint its wiring.
    let mut wirings = Vec::with_capacity(endpoints.len());
    for n in 0..topology.endpoint_count() {
        let v = Vertex::Node(n as u16);
        let ports = topology.ports_of(v);
        assert_eq!(ports.len(), 1, "endpoints have exactly one network port");
        let (nbr, nbr_port) = ports[0];
        let mut tx = TxPort::new(comp_of(nbr), nbr_port, topology.fifo_capacity(nbr));
        tx.set_link(LinkId::new(site_of(v), site_of(nbr)));
        if let Some(params) = config.reliability {
            tx.enable_reliability(params);
        }
        wirings.push(EndpointWiring {
            tx,
            rx_capacity: topology.fifo_capacity(v),
            rx_upstream: (comp_of(nbr), nbr_port),
        });
    }
    Ok(NetworkHandles {
        endpoints: wirings,
        switches: switch_ids,
        view,
    })
}
