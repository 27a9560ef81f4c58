//! The cut-through switch component.

use std::collections::BTreeMap;

use tg_sim::{Component, Ctx, SimTime};
use tg_wire::trace::{PacketEvent, SharedProbe, Site, Stage, TraceId};
use tg_wire::{CtrlMsg, NodeId, Packet, TimingConfig};

use crate::detect::{HeartbeatDetector, Liveness};
use crate::end::{Arrival, CtrlOutcome, LinkEnd, PortSnapshot};
use crate::event::{NetEvent, NetMessage};
use crate::fault::{FaultInjector, FrameFate};
use crate::link::{LinkError, RelParams};
use crate::port::{RxFifo, TimerAction, TxPort};
use crate::route::FabricView;
use crate::topology::Vertex;

/// Traffic counters for one switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SwitchStats {
    /// Packets forwarded.
    pub packets: u64,
    /// Payload + header bytes forwarded.
    pub bytes: u64,
    /// Forwarding attempts deferred for want of credit or a busy output.
    pub blocked: u64,
    /// Packets dropped (counted, credit returned) because no surviving
    /// route reaches their destination — the graceful degradation of a
    /// partitioned fabric, in place of the old no-route panic.
    pub blackholed: u64,
}

/// The "no output" marker, shared with the routing table's no-route entry.
const NO_PORT: u32 = u32::MAX;

/// Adds port `i` to a port set packed one bit per port into `u64` words.
fn set_bit(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

/// True when port `i` is in a packed port set.
fn has_bit(set: &[u64], i: usize) -> bool {
    set[i / 64] & (1 << (i % 64)) != 0
}

/// Removes port `i` from a packed port set.
fn clear_bit(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1 << (i % 64));
}

/// The lowest port at or above `start` in a packed port set.
fn first_set_from(set: &[u64], start: usize) -> Option<usize> {
    let mut w = start / 64;
    let mut bits = *set.get(w)? & (!0 << (start % 64));
    loop {
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        w += 1;
        bits = *set.get(w)?;
    }
}

/// The first port of a packed port set met walking upward from `start`
/// and wrapping past the top back to port 0.
fn first_set_cyclic(set: &[u64], start: usize) -> Option<usize> {
    first_set_from(set, start).or_else(|| first_set_from(set, 0))
}

/// The fabric vertex at the far end of a port's directed link.
fn vertex_of_site(s: Site) -> Vertex {
    match s {
        Site::Switch(i) => Vertex::Switch(i),
        Site::Node(n) => Vertex::Node(n.raw()),
    }
}

/// A Telegraphos switch: one input FIFO per port, a routing table mapping
/// destination nodes to output ports, round-robin arbitration across
/// inputs, and credit-based back-pressure on every link.
///
/// Forwarding a packet costs the configured cut-through latency plus
/// serialization on the output link; a credit is returned to the upstream
/// sender the moment the packet leaves the input FIFO.
///
/// Every port is one [`LinkEnd`]. With [`Switch::set_reliability`] the
/// switch additionally runs the link-level reliability protocol on every
/// port: arriving frames are checksum- and sequence-verified by the
/// port's [`LinkRx`](crate::LinkRx), acknowledged or NACKed, and each output's
/// [`TxPort`] buffers frames for go-back-N retransmission. A
/// [`FaultInjector`] installed with
/// [`Switch::set_injector`] then decides the fate of every launched frame
/// and returned credit.
#[derive(Debug)]
pub struct Switch {
    name: String,
    fifos: Vec<RxFifo>,
    /// Per port, the link end: output `i` and input `i` connect to the
    /// same neighbor.
    ports: Vec<Option<LinkEnd>>,
    /// dst node index -> output port.
    table: Vec<u32>,
    timing: TimingConfig,
    /// Per-output-port round-robin pointer: the input to consider first the
    /// next time this output is free. A single shared pointer would let
    /// traffic on one output reset the arbitration state of another and
    /// starve high-numbered inputs under saturation.
    rr_next: Vec<usize>,
    fifo_capacity: u32,
    /// `u64` words per packed port set: one bit per port.
    words: usize,
    /// The requester index: row `o` (`words` words from `o * words`) holds
    /// the inputs whose FIFO head routes to output `o`, so arbitration is
    /// a first-set-bit search instead of a walk over every input head.
    /// Kept in step with `head_out` at every head change.
    requesters: Vec<u64>,
    /// Per input, the output its FIFO head routes to (`NO_PORT` when the
    /// FIFO is empty): the row whose bit this input currently holds.
    head_out: Vec<u32>,
    /// The pending-work set: output ports whose state changed since the
    /// last pump (new routed arrival, freed wire, returned credit, ack,
    /// armed retransmission). `pump` examines only these, so quiescent
    /// ports cost nothing; every event handler marks the ports it touches.
    pending: Vec<u64>,
    /// Ports examined during the current pump call; only these can need a
    /// recovery timer (re)armed, since `TxPort::poll_timer` is a pure
    /// function of port state and these are the only ports whose state
    /// changed since the last pump armed everything it touched.
    touched: Vec<u64>,
    stats: SwitchStats,
    /// Observability sink; `None` (the default) costs one branch per hook.
    probe: Option<SharedProbe>,
    /// This switch's fabric index, reported as the probe [`Site`].
    site: Site,
    reliability: Option<RelParams>,
    /// Handed to every port's link end as it attaches.
    injector: Option<FaultInjector>,
    /// Neighbor-originated protocol violations and dead-link declarations
    /// observed so far.
    errors: Vec<LinkError>,
    /// Per-port failure detector over heartbeat arrivals; present when
    /// the reliability parameters enable heartbeats. Ports are watched
    /// lazily, from their first beacon.
    detector: Option<HeartbeatDetector>,
    /// Per-origin highest heartbeat sequence flooded so far: the dedupe
    /// that keeps beacon floods from circulating forever on cyclic
    /// topologies.
    hb_last: BTreeMap<u16, u64>,
    /// The fabric's shared dead-set + route view; `None` leaves the
    /// boot-time table in place forever.
    view: Option<FabricView>,
    /// Version of `view` the cached `table` reflects.
    view_version: u64,
    /// Outputs whose pending `PumpOut` was sent deferrable: only these
    /// can have a deferred port-free event.
    lazy_free: Vec<u64>,
    /// Set when this event may have made a deferred credit or port-free
    /// event unabsorbable: a new requester on a `lazy_free` output, or a
    /// credit stall opening. The handler then asks the engine to
    /// re-check.
    recheck: bool,
    /// Deliveries per event variant, indexed by [`NetEvent::kind`].
    kinds: [u64; NetEvent::KINDS.len()],
}

impl Switch {
    /// Creates a switch with `ports` ports and the given routing table
    /// (`table[dst.index()]` = output port). Ports must then be attached
    /// with [`Switch::attach_port`] before traffic flows.
    pub fn new(name: String, ports: usize, table: Vec<u32>, timing: TimingConfig) -> Self {
        let words = ports.div_ceil(64);
        Switch {
            name,
            fifos: Vec::new(),
            ports: (0..ports).map(|_| None).collect(),
            table,
            timing,
            rr_next: Vec::new(),
            fifo_capacity: 8,
            words,
            requesters: vec![0; ports * words],
            head_out: vec![NO_PORT; ports],
            pending: vec![0; words],
            touched: vec![0; words],
            stats: SwitchStats::default(),
            probe: None,
            site: Site::Switch(0),
            reliability: None,
            injector: None,
            errors: Vec::new(),
            detector: None,
            hb_last: BTreeMap::new(),
            view: None,
            view_version: 0,
            lazy_free: vec![0; words],
            recheck: false,
            kinds: [0; NetEvent::KINDS.len()],
        }
    }

    /// Installs a packet-lifecycle probe, reporting this switch as fabric
    /// index `index` in emitted events.
    pub fn set_probe(&mut self, probe: SharedProbe, index: u16) {
        self.probe = Some(probe);
        self.site = Site::Switch(index);
    }

    /// Sets this switch's fabric index (the [`Site`] used in probe events
    /// and link diagnostics) without installing a probe.
    pub fn set_site(&mut self, index: u16) {
        self.site = Site::Switch(index);
    }

    /// Turns on the link-level reliability protocol for every port. Must be
    /// called before [`Switch::attach_port`].
    pub fn set_reliability(&mut self, params: RelParams) {
        assert!(self.fifos.is_empty(), "set reliability before wiring ports");
        if params.heartbeat_every.is_some() {
            self.detector = Some(HeartbeatDetector::new(
                params.peer_timeout,
                params.phi_factor,
            ));
        }
        self.reliability = Some(params);
    }

    /// Installs the shared fabric view this switch reports peer verdicts
    /// to and refreshes its routing table from.
    pub fn set_fabric(&mut self, view: FabricView) {
        self.view_version = view.version();
        self.view = Some(view);
    }

    /// Installs the fault injector consulted at every frame launch,
    /// control frame and credit return, on attached ports and on those
    /// attached later.
    pub fn set_injector(&mut self, injector: FaultInjector) {
        for end in self.ports.iter_mut().flatten() {
            end.set_injector(injector.clone());
        }
        self.injector = Some(injector);
    }

    fn emit(&self, at: SimTime, packet: &Packet, stage: Stage) {
        if let Some(probe) = &self.probe {
            probe.packet(PacketEvent {
                at,
                trace: packet.trace_id(),
                parent: None,
                site: self.site,
                stage,
                kind: packet.msg.kind_str(),
                bytes: packet.size_bytes(),
            });
        }
    }

    /// Marks a credit-resync probe launch in the packet trace. Probes carry
    /// no [`Packet`], so the event is keyed by the switch index and the
    /// handshake token instead of an inject sequence.
    fn emit_resync(&self, at: SimTime, token: u64) {
        if let Some(probe) = &self.probe {
            let Site::Switch(idx) = self.site else {
                return;
            };
            probe.packet(PacketEvent {
                at,
                trace: TraceId::packet(NodeId::new(idx), token),
                parent: None,
                site: self.site,
                stage: Stage::CreditResync,
                kind: "credit-resync",
                bytes: 0,
            });
        }
    }

    /// Overrides the per-port input FIFO capacity (must match the credits
    /// granted to upstream senders; the network builder keeps these in
    /// sync).
    pub fn set_fifo_capacity(&mut self, cap: u32) {
        assert!(self.fifos.is_empty(), "set capacity before traffic");
        self.fifo_capacity = cap;
    }

    /// Wires output port `port` (and implicitly its input FIFO). If
    /// reliability is on, the transmit port is enrolled in the protocol.
    ///
    /// # Panics
    ///
    /// Panics if the port index is out of range or already attached.
    pub fn attach_port(&mut self, port: u32, mut tx: TxPort) {
        if let Some(params) = self.reliability {
            if !tx.is_reliable() {
                tx.enable_reliability(params);
            }
        }
        let slot = self
            .ports
            .get_mut(port as usize)
            .expect("port index in range");
        assert!(slot.is_none(), "port attached twice");
        let mut end = LinkEnd::new(tx);
        if let Some(injector) = &self.injector {
            end.set_injector(injector.clone());
        }
        *slot = Some(end);
        while self.fifos.len() < self.ports.len() {
            let cap = self.fifo_capacity;
            self.fifos.push(RxFifo::new(cap));
            self.rr_next.push(0);
        }
    }

    /// The transmit side of port `port`, when attached.
    #[inline]
    fn tx(&self, port: usize) -> Option<&TxPort> {
        self.ports.get(port)?.as_ref().map(LinkEnd::tx)
    }

    /// The transmit side of port `port`, mutably, when attached.
    #[inline]
    fn tx_mut(&mut self, port: usize) -> Option<&mut TxPort> {
        self.ports.get_mut(port)?.as_mut().map(LinkEnd::tx_mut)
    }

    /// The link end of port `port`, which must be attached.
    #[inline]
    fn end_mut(&mut self, port: usize) -> &mut LinkEnd {
        self.ports[port].as_mut().expect("port attached")
    }

    /// Adds `port` to the pending-work set examined by the next pump.
    fn mark_pending(&mut self, port: usize) {
        if port < self.fifos.len() {
            set_bit(&mut self.pending, port);
        }
    }

    /// Moves input `in_port` to the requester row of its current FIFO
    /// head's output. Called after every change of that head or of the
    /// routing table.
    fn sync_head(&mut self, in_port: usize) {
        let out = self.fifos[in_port]
            .head()
            .map_or(NO_PORT, |p| self.table[p.dst.index()]);
        let old = std::mem::replace(&mut self.head_out[in_port], out);
        if old == out {
            return;
        }
        let row_bits = self.words * 64;
        if old != NO_PORT {
            clear_bit(&mut self.requesters, old as usize * row_bits + in_port);
        }
        if out != NO_PORT {
            set_bit(&mut self.requesters, out as usize * row_bits + in_port);
            // A deferred `PumpOut` on this output is no longer idle.
            self.recheck |= has_bit(&self.lazy_free, out as usize);
        }
    }

    /// True when some input's FIFO head routes to `out_port`.
    #[inline]
    fn requested(&self, out_port: usize) -> bool {
        let row = out_port * self.words;
        self.requesters[row..row + self.words]
            .iter()
            .any(|&w| w != 0)
    }

    /// Deferred delivery (see [`Component::can_absorb`]): a `Credit` or
    /// `PumpOut` on an unreliable port of a switch without a fabric view
    /// is absorbable when its `pump` would grant nothing. A credit then
    /// only adds a credit (counting a block if an input waits on the busy
    /// wire); a port-free event only frees the wire. A fabric view can
    /// refresh routes at any event, and a reliable port can arm a timer,
    /// so neither ever absorbs.
    #[inline]
    fn absorbable(&self, ev: &NetEvent) -> bool {
        let (NetEvent::Credit { port } | NetEvent::PumpOut { port }) = *ev else {
            return false;
        };
        let p = port as usize;
        let Some(tx) = self.tx(p) else {
            return false;
        };
        if self.view.is_some() || tx.is_reliable() {
            return false;
        }
        match ev {
            NetEvent::Credit { .. } => {
                !tx.is_credit_stalled()
                    && tx.credits() < tx.allowance()
                    && (!tx.wire_free() || !self.requested(p))
            }
            _ => !self.requested(p),
        }
    }

    /// Traffic counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Events delivered to this switch per variant, indexed by
    /// [`NetEvent::kind`]; absorbed events are not deliveries.
    pub fn event_kinds(&self) -> [u64; NetEvent::KINDS.len()] {
        self.kinds
    }

    /// Frames retransmitted across all output ports.
    pub fn retransmits(&self) -> u64 {
        self.port_snapshots().map(|p| p.retransmits).sum()
    }

    /// The read-out of every labeled port, in port order: the transmit
    /// side of the directed link it drives and the receive side of the
    /// reverse hop (links come in bidirectional pairs, so output `i` and
    /// input `i` share a neighbor).
    pub fn port_snapshots(&self) -> impl Iterator<Item = PortSnapshot> + '_ {
        self.ports
            .iter()
            .zip(&self.fifos)
            .filter_map(|(end, fifo)| end.as_ref()?.snapshot(Some(fifo)))
    }

    /// Neighbor-originated protocol violations and dead-link declarations
    /// recorded so far.
    pub fn link_errors(&self) -> &[LinkError] {
        &self.errors
    }

    /// The output port toward `packet.dst`, or `None` when no surviving
    /// route reaches it (the caller blackholes the packet, counted).
    fn route(&self, packet: &Packet) -> Option<u32> {
        let port = self.table[packet.dst.index()];
        (port != NO_PORT).then_some(port)
    }

    /// The input port whose head is routed to `out_port`, round-robin from
    /// this output's arbitration pointer.
    fn pick_input(&self, out_port: usize) -> Option<usize> {
        let row = out_port * self.words;
        let requesters = &self.requesters[row..row + self.words];
        first_set_cyclic(requesters, self.rr_next[out_port])
    }

    /// Queues a packet that arrived (or left a reorder window) on
    /// `in_port` and marks its output as pending work; with no surviving
    /// route it is blackholed instead. If it queued behind others the mark
    /// is a cheap no-op grant check.
    fn enqueue<M: NetMessage>(&mut self, in_port: usize, packet: Packet, ctx: &mut Ctx<'_, M>) {
        match self.route(&packet) {
            Some(out) => {
                self.emit(ctx.now(), &packet, Stage::SwitchEnqueue);
                if let Err(err) = self.fifos[in_port].push(packet) {
                    self.errors.push(err);
                }
                self.sync_head(in_port);
                self.mark_pending(out as usize);
            }
            None => self.blackhole_one(in_port, &packet, ctx),
        }
    }

    /// Disposes of a packet with no surviving route: counted drop, drain
    /// bookkeeping, and the upstream credit returned — the slot it held
    /// must not leak just because its destination is partitioned away.
    fn blackhole_one<M: NetMessage>(
        &mut self,
        in_port: usize,
        packet: &Packet,
        ctx: &mut Ctx<'_, M>,
    ) {
        self.emit(ctx.now(), packet, Stage::Dropped);
        self.stats.blackholed += 1;
        self.return_credit(in_port, ctx);
    }

    /// Re-reads the routing table from the shared fabric view when its
    /// version moved (one compare in the common case), then blackholes
    /// any already-queued traffic the new table orphans and re-examines
    /// every output for redirected heads.
    fn refresh_routes<M: NetMessage>(&mut self, ctx: &mut Ctx<'_, M>) {
        let Some(view) = self.view.clone() else {
            return;
        };
        let version = view.version();
        if version == self.view_version {
            return;
        }
        self.view_version = version;
        let Site::Switch(idx) = self.site else {
            return;
        };
        self.table = view.table_for_switch(idx);
        for in_port in 0..self.fifos.len() {
            let table = &self.table;
            let orphaned = self.fifos[in_port].drain_matching(|p| table[p.dst.index()] == NO_PORT);
            for p in orphaned {
                self.blackhole_one(in_port, &p, ctx);
            }
            self.sync_head(in_port);
        }
        for port in 0..self.ports.len() {
            if self.ports[port].is_some() {
                self.mark_pending(port);
            }
        }
    }

    /// Marks a peer liveness transition in the packet trace. The trace id
    /// encodes the convicted peer (switch peers carry bit 15) and this
    /// observer's running verdict count; the site is the observer.
    fn emit_peer(&self, at: SimTime, peer: Site, stage: Stage, count: u64) {
        if let Some(probe) = &self.probe {
            let raw = match peer {
                Site::Node(n) => n.raw(),
                Site::Switch(s) => 0x8000 | s,
            };
            probe.packet(PacketEvent {
                at,
                trace: TraceId::packet(NodeId::new(raw), count),
                parent: None,
                site: self.site,
                stage,
                kind: match stage {
                    Stage::PeerDown => "peer-down",
                    _ => "peer-up",
                },
                bytes: 0,
            });
        }
    }

    /// Handles a beacon arriving on `in_port`: feeds the port detector
    /// (reviving a convicted port if its silence ended), floods the
    /// beacon out every other port unless an equal-or-newer sequence from
    /// this origin was already flooded (the loop-killer on rings), and
    /// sweeps all watched ports for silence — detection is event-driven,
    /// clocked by the surviving ports' beacon arrivals.
    fn on_heartbeat<M: NetMessage>(
        &mut self,
        in_port: usize,
        origin: NodeId,
        seq: u64,
        ctx: &mut Ctx<'_, M>,
    ) {
        let now = ctx.now();
        let revived = self
            .detector
            .as_mut()
            .and_then(|d| d.saw(in_port as u64, now))
            == Some(Liveness::Up);
        if revived {
            self.on_peer_up(in_port, ctx);
        }
        let fresh = self
            .hb_last
            .get(&origin.raw())
            .is_none_or(|&last| seq > last);
        if fresh {
            self.hb_last.insert(origin.raw(), seq);
            let prop = self.timing.link_prop;
            for (port, end) in self.ports.iter_mut().enumerate() {
                if port != in_port {
                    if let Some(end) = end {
                        end.send_ctrl(CtrlMsg::Heartbeat { origin, seq }, prop, ctx);
                    }
                }
            }
        }
        let newly_down = self
            .detector
            .as_mut()
            .map(|d| d.check(now))
            .unwrap_or_default();
        for port in newly_down {
            self.on_peer_down(port as usize, ctx);
        }
        self.pump(ctx);
    }

    /// Reacts to a transmit port dying of exhausted recovery (retransmit
    /// or resync-probe budget): records the error and — like a heartbeat
    /// conviction — declares the silent neighbor down in the fabric view
    /// so routes recompute around it even when no detector is running.
    fn on_link_dead<M: NetMessage>(&mut self, port: usize, err: LinkError, ctx: &mut Ctx<'_, M>) {
        self.errors.push(err);
        let Some(link) = self.tx(port).and_then(TxPort::link) else {
            return;
        };
        if let Some(view) = self.view.clone() {
            if !view.is_dead(vertex_of_site(link.to)) {
                view.declare_down(vertex_of_site(link.to));
                self.refresh_routes(ctx);
            }
        }
    }

    /// Reacts to this switch's own detector convicting the peer on
    /// `port`: trace the verdict and report it to the fabric view, which
    /// recomputes routes around the dead vertex for every switch.
    fn on_peer_down<M: NetMessage>(&mut self, port: usize, ctx: &mut Ctx<'_, M>) {
        let Some(link) = self.tx(port).and_then(TxPort::link) else {
            return;
        };
        let downs = self
            .detector
            .as_ref()
            .map_or(0, |d| d.transition_counts().0);
        self.emit_peer(ctx.now(), link.to, Stage::PeerDown, downs);
        if let Some(view) = self.view.clone() {
            view.declare_down(vertex_of_site(link.to));
            self.refresh_routes(ctx);
        }
    }

    /// Reacts to beacons resuming on a convicted `port`: trace the
    /// revival, restore the vertex in the fabric view, and start a fresh
    /// link epoch on the transmit side (abandoning frames stranded for
    /// the dead incarnation), announcing it to the receiver so both ends
    /// agree on sequence numbers and drain counts.
    fn on_peer_up<M: NetMessage>(&mut self, port: usize, ctx: &mut Ctx<'_, M>) {
        let Some(link) = self.tx(port).and_then(TxPort::link) else {
            return;
        };
        let ups = self
            .detector
            .as_ref()
            .map_or(0, |d| d.transition_counts().1);
        self.emit_peer(ctx.now(), link.to, Stage::PeerUp, ups);
        if let Some(view) = self.view.clone() {
            view.declare_up(vertex_of_site(link.to));
            self.refresh_routes(ctx);
        }
        if self.tx(port).is_some_and(TxPort::is_reliable) {
            let prop = self.timing.link_prop;
            self.end_mut(port).revive(prop, ctx);
            self.mark_pending(port);
        }
    }

    /// Counts a frame drained from input `in_port` and returns its
    /// credit, unless the injector loses it in flight.
    fn return_credit<M: NetMessage>(&mut self, in_port: usize, ctx: &mut Ctx<'_, M>) {
        let end = self.end_mut(in_port);
        let Some((up, credit)) = end.drain(ctx) else {
            return;
        };
        let (reliable, credit) = (end.rx().is_some(), M::from_net(credit));
        // The sender on a reliable link can never absorb a credit (it may
        // arm a timer), so only unreliable links offer one for deferral.
        if reliable {
            ctx.send(up, self.timing.link_prop, credit);
        } else {
            ctx.send_deferrable(up, self.timing.link_prop, credit);
        }
    }

    /// Occupies output `out_port` with `packet` (a fresh launch consumes a
    /// credit; a retransmission reuses its original reservation), consults
    /// the fault injector, and schedules the arrival unless the frame was
    /// lost.
    fn dispatch<M: NetMessage>(
        &mut self,
        out_port: usize,
        mut packet: Packet,
        fresh: bool,
        ctx: &mut Ctx<'_, M>,
    ) {
        let lat = self.timing.switch_latency;
        let now = ctx.now();
        let (times, nbr, nbr_port) = {
            let tx = self.ports[out_port]
                .as_mut()
                .expect("dispatch on attached port")
                .tx_mut();
            let times = if fresh {
                tx.launch(&packet, &self.timing)
            } else {
                tx.relaunch(&packet, &self.timing)
            };
            (times, tx.neighbor(), tx.neighbor_port())
        };
        // An output that cannot absorb its `PumpOut` now cannot by the
        // end of this event either (its requesters stay until it grants
        // again), so only the others are offered for deferral.
        let free = NetEvent::PumpOut {
            port: out_port as u32,
        };
        if self.absorbable(&free) {
            set_bit(&mut self.lazy_free, out_port);
            ctx.send_deferrable(ctx.self_id(), lat + times.free, M::from_net(free));
        } else {
            ctx.send_self(lat + times.free, M::from_net(free));
        }
        if self.end_mut(out_port).frame_fate(now, &mut packet) == FrameFate::Drop {
            self.emit(now, &packet, Stage::Dropped);
            return;
        }
        ctx.send(
            nbr,
            lat + times.arrival,
            M::from_net(NetEvent::Arrive {
                port: nbr_port,
                packet,
            }),
        );
    }

    /// Arms the recovery timer on `out_port` if the port needs one and none
    /// is pending.
    fn arm_timer<M: NetMessage>(&mut self, out_port: usize, ctx: &mut Ctx<'_, M>) {
        if let Some(tx) = self.tx_mut(out_port) {
            if let Some((delay, gen)) = tx.poll_timer(ctx.now()) {
                ctx.send_self(
                    delay,
                    M::from_net(NetEvent::RetxTimer {
                        port: out_port as u32,
                        gen,
                    }),
                );
            }
        }
    }

    /// Forwards as many FIFO heads as ports allow: each marked output port
    /// arbitrates round-robin over the inputs requesting it. Go-back-N
    /// retransmissions outrank fresh traffic on their output.
    ///
    /// Only ports in the pending-work set are examined, in ascending order
    /// from port 0, wrapping from the top back to 0 until the set is empty
    /// (quiescent ports cost nothing). A grant that exposes a new FIFO
    /// head re-marks that head's output: a mark above the current port is
    /// reached on this sweep, one at or below it after the wrap. The grant
    /// order, and so every scheduled event, depends only on this order.
    /// An output leaves the set when it grants (wire now busy until
    /// `PumpOut`), blocks on credit (woken by `Credit`), or has no
    /// requesting input (woken by `Arrive`); each wake-up event re-marks
    /// it. Recovery timers are then armed over the examined ports in
    /// ascending order.
    fn pump<M: NetMessage>(&mut self, ctx: &mut Ctx<'_, M>) {
        let nports = self.fifos.len();
        let mut cursor = 0;
        while let Some(out_port) = first_set_cyclic(&self.pending, cursor) {
            cursor = out_port + 1;
            clear_bit(&mut self.pending, out_port);
            set_bit(&mut self.touched, out_port);
            // Recovery first: a retransmission reuses the receiver slot
            // its original launch reserved, so it needs no credit —
            // only a free wire — and fresh traffic must wait behind it
            // to preserve go-back-N order.
            if self.tx(out_port).is_some_and(TxPort::has_retx_pending) {
                if self.tx(out_port).is_some_and(TxPort::wire_free) {
                    let packet = self
                        .tx_mut(out_port)
                        .and_then(TxPort::take_retx)
                        .expect("retx pending on a free wire");
                    self.emit(ctx.now(), &packet, Stage::Retransmit);
                    self.dispatch(out_port, packet, false, ctx);
                } else if let Some(in_port) = self.pick_input(out_port) {
                    // Fresh traffic is waiting behind the in-flight
                    // recovery frame: that deferral is a block, and if
                    // it is credits holding the port (the dropped
                    // frame's credit never came back), the stall clock
                    // must run — recovery is exactly when the
                    // credit-stall series matters.
                    self.stats.blocked += 1;
                    let opened = self
                        .tx_mut(out_port)
                        .is_some_and(|tx| tx.note_blocked(ctx.now()));
                    if opened {
                        self.recheck = true;
                        if let Some(head) = self.fifos[in_port].head() {
                            self.emit(ctx.now(), head, Stage::CreditStall);
                        }
                    }
                }
                continue;
            }
            let can_send = self.tx(out_port).is_some_and(TxPort::can_send_new);
            let Some(in_port) = self.pick_input(out_port) else {
                continue;
            };
            if !can_send {
                self.stats.blocked += 1;
                // Start the credit-stall clock when it is specifically
                // credits (not a busy wire) holding this output back.
                let opened = self
                    .tx_mut(out_port)
                    .is_some_and(|tx| tx.note_blocked(ctx.now()));
                if opened {
                    self.recheck = true;
                    if let Some(head) = self.fifos[in_port].head() {
                        self.emit(ctx.now(), head, Stage::CreditStall);
                    }
                }
                continue;
            }
            let mut packet = self.fifos[in_port].pop().expect("head checked");
            self.sync_head(in_port);
            self.emit(ctx.now(), &packet, Stage::SwitchTx);
            self.return_credit(in_port, ctx);
            self.stats.packets += 1;
            self.stats.bytes += u64::from(packet.size_bytes());
            if let Some(tx) = self.tx_mut(out_port).filter(|tx| tx.is_reliable()) {
                packet = tx.frame(packet, ctx.now());
            }
            self.dispatch(out_port, packet, true, ctx);
            // An output grants at most once until its wire frees (the
            // `PumpOut` re-marks it), so advancing past the granted input
            // here is exactly one round-robin step.
            self.rr_next[out_port] = (in_port + 1) % nports;
            // The pop may have exposed a new head behind this one; its
            // output has new work.
            let next_out = self.head_out[in_port];
            if next_out != NO_PORT {
                self.mark_pending(next_out as usize);
            }
        }
        for w in 0..self.words {
            let mut bits = std::mem::take(&mut self.touched[w]);
            while bits != 0 {
                self.arm_timer(w * 64 + bits.trailing_zeros() as usize, ctx);
                bits &= bits - 1;
            }
        }
        #[cfg(debug_assertions)]
        self.check_index();
    }

    /// Debug-build cross-check at every pump exit: the pending set is
    /// empty and the requester index equals a recomputation from the FIFO
    /// heads and the current routing table.
    #[cfg(debug_assertions)]
    fn check_index(&self) {
        assert!(
            self.pending.iter().all(|&w| w == 0),
            "{}: pump left pending work",
            self.name
        );
        let mut expect = vec![0; self.requesters.len()];
        for (in_port, fifo) in self.fifos.iter().enumerate() {
            let out = fifo.head().map_or(NO_PORT, |p| self.table[p.dst.index()]);
            assert_eq!(
                self.head_out[in_port], out,
                "{}: stale head output on input {in_port}",
                self.name
            );
            if out != NO_PORT {
                set_bit(&mut expect, out as usize * self.words * 64 + in_port);
            }
        }
        assert_eq!(
            self.requesters, expect,
            "{}: requester index out of step with the FIFO heads",
            self.name
        );
    }
}

impl Switch {
    /// Handles one network event.
    fn handle<M: NetMessage>(&mut self, ev: NetEvent, ctx: &mut Ctx<'_, M>) {
        // Another switch may have moved the fabric view since our last
        // event; one version compare keeps every switch's table current.
        self.refresh_routes(ctx);
        match ev {
            NetEvent::Arrive { port, packet } => {
                let in_port = port as usize;
                let prop = self.timing.link_prop;
                match self.end_mut(in_port).receive(packet, prop, ctx) {
                    // Successors released from the reorder window follow
                    // in sequence order. Credit accounting bounds FIFO +
                    // window occupancy by the allowance, so the burst
                    // cannot overflow.
                    Arrival::Deliver(packet, released) => {
                        self.enqueue(in_port, packet, ctx);
                        for p in released {
                            self.enqueue(in_port, p, ctx);
                        }
                        self.pump(ctx);
                    }
                    Arrival::Held => {}
                    Arrival::Dropped(packet) => self.emit(ctx.now(), &packet, Stage::Dropped),
                }
            }
            NetEvent::Credit { port } => {
                let result = self
                    .tx_mut(port as usize)
                    .expect("credited port attached")
                    .on_credit_at(ctx.now());
                if let Err(err) = result {
                    self.errors.push(err);
                }
                self.mark_pending(port as usize);
                self.pump(ctx);
            }
            NetEvent::PumpOut { port } => {
                clear_bit(&mut self.lazy_free, port as usize);
                self.tx_mut(port as usize)
                    .expect("pumped port attached")
                    .on_free();
                self.mark_pending(port as usize);
                self.pump(ctx);
            }
            NetEvent::Ctrl { port, frame } => {
                let p = port as usize;
                let prop = self.timing.link_prop;
                match self.end_mut(p).on_ctrl(frame, prop, ctx) {
                    CtrlOutcome::Done => return,
                    CtrlOutcome::Heartbeat { origin, seq } => {
                        self.on_heartbeat(p, origin, seq, ctx);
                        return;
                    }
                    CtrlOutcome::Dead(err) => self.on_link_dead(p, err, ctx),
                    // Mirror the HIB: a completed handshake is traced too,
                    // so collectors can reconcile traced resync events
                    // against probe + completion counters.
                    CtrlOutcome::SyncAck(Some(token)) => self.emit_resync(ctx.now(), token),
                    CtrlOutcome::Acked | CtrlOutcome::SyncAck(None) => {}
                }
                self.mark_pending(p);
                self.pump(ctx);
            }
            NetEvent::RetxTimer { port, gen } => {
                let p = port as usize;
                let prop = self.timing.link_prop;
                match self.end_mut(p).on_timer(gen, prop, ctx) {
                    TimerAction::Retransmit => {
                        self.mark_pending(p);
                        self.pump(ctx);
                    }
                    TimerAction::Resync { token } => self.emit_resync(ctx.now(), token),
                    TimerAction::Dead(err) => self.on_link_dead(p, err, ctx),
                    TimerAction::Stale | TimerAction::Idle => {}
                }
                self.arm_timer(p, ctx);
            }
        }
    }
}

impl<M: NetMessage> Component<M> for Switch {
    fn on_event(&mut self, ev: M, ctx: &mut Ctx<'_, M>) {
        let ev = match ev.into_net() {
            Ok(ev) => ev,
            Err(_) => panic!("switch {} received a non-network event", self.name),
        };
        self.kinds[ev.kind()] += 1;
        self.handle(ev, ctx);
        if std::mem::take(&mut self.recheck) {
            ctx.recheck_deferred();
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn can_absorb(&self, ev: &M) -> bool {
        ev.as_net().is_some_and(|ev| self.absorbable(ev))
    }

    fn absorb(&mut self, ev: M, at: SimTime) {
        // Debug-build guard: the absorbed event must still be one its
        // handler would not act on.
        #[cfg(debug_assertions)]
        assert!(
            self.can_absorb(&ev),
            "{}: absorbed an event its handler would act on",
            self.name
        );
        match ev.into_net() {
            Ok(NetEvent::Credit { port }) => {
                let p = port as usize;
                let tx = self.tx_mut(p).expect("credited port attached");
                if let Err(err) = tx.on_credit_at(at) {
                    self.errors.push(err);
                }
                if self.requested(p) {
                    self.stats.blocked += 1;
                }
            }
            Ok(NetEvent::PumpOut { port }) => {
                clear_bit(&mut self.lazy_free, port as usize);
                self.tx_mut(port as usize)
                    .expect("pumped port attached")
                    .on_free();
            }
            _ => unreachable!("{}: only credits and port-free events absorb", self.name),
        }
    }
}

// Unit tests for the switch live in tests/network.rs (they need endpoints
// and an engine); pure routing/port logic is tested in `route` and `port`.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_zero() {
        let s = Switch::new("s".into(), 2, vec![0, 1], TimingConfig::telegraphos_i());
        assert_eq!(s.stats(), SwitchStats::default());
        assert!(s.link_errors().is_empty());
        assert_eq!(s.port_snapshots().count(), 0, "no port attached");
    }

    /// A three-word port set holding exactly `ports`.
    fn set_of(ports: &[usize]) -> Vec<u64> {
        let mut set = vec![0; 3];
        for &p in ports {
            set_bit(&mut set, p);
        }
        set
    }

    #[test]
    fn first_set_search_crosses_word_boundaries() {
        let set = set_of(&[5, 63, 64, 130]);
        for (start, from, cyclic) in [
            (0, Some(5), Some(5)),
            (63, Some(63), Some(63)),
            (64, Some(64), Some(64)),
            (65, Some(130), Some(130)),
            (127, Some(130), Some(130)),
            (131, None, Some(5)),
            (192, None, Some(5)),
        ] {
            assert_eq!(first_set_from(&set, start), from, "from {start}");
            assert_eq!(first_set_cyclic(&set, start), cyclic, "cyclic {start}");
        }
    }

    #[test]
    fn first_set_search_on_an_empty_set_finds_nothing() {
        let set = set_of(&[]);
        for start in [0, 63, 64, 127, 191] {
            assert_eq!(first_set_from(&set, start), None);
            assert_eq!(first_set_cyclic(&set, start), None);
        }
    }

    #[test]
    fn a_single_bit_just_below_start_is_found_only_by_wrapping() {
        for start in [1, 63, 64, 65, 127, 128] {
            let set = set_of(&[start - 1]);
            assert_eq!(first_set_from(&set, start), None, "from {start}");
            assert_eq!(first_set_cyclic(&set, start), Some(start - 1));
        }
    }

    #[test]
    fn clear_bit_removes_only_its_port() {
        let mut set = set_of(&[63, 64]);
        clear_bit(&mut set, 63);
        assert_eq!(set, set_of(&[64]));
        clear_bit(&mut set, 63);
        assert_eq!(set, set_of(&[64]));
    }

    #[test]
    #[should_panic(expected = "attached twice")]
    fn double_attach_rejected() {
        let mut s = Switch::new("s".into(), 1, vec![0], TimingConfig::telegraphos_i());
        let id = {
            struct Noop;
            impl Component<NetEvent> for Noop {
                fn on_event(&mut self, _: NetEvent, _: &mut Ctx<'_, NetEvent>) {}
                fn name(&self) -> &str {
                    "noop"
                }
            }
            let mut eng: tg_sim::Engine<NetEvent> = tg_sim::Engine::new();
            eng.add(Noop)
        };
        s.attach_port(0, TxPort::new(id, 0, 8));
        s.attach_port(0, TxPort::new(id, 0, 8));
    }

    /// Deferred delivery rules: a credit or port-free event on a busy,
    /// unreliable port with nothing waiting absorbs; a credit-stalled
    /// port, a reliable port or a switch holding a fabric view does not.
    #[test]
    fn absorption_needs_an_unreliable_port_without_a_view_or_stall() {
        struct Noop;
        impl Component<NetEvent> for Noop {
            fn on_event(&mut self, _: NetEvent, _: &mut Ctx<'_, NetEvent>) {}
            fn name(&self) -> &str {
                "noop"
            }
        }
        let mut eng: tg_sim::Engine<NetEvent> = tg_sim::Engine::new();
        let id = eng.add(Noop);
        let timing = TimingConfig::telegraphos_i();
        let msg = tg_wire::WireMsg::WriteReq {
            addr: tg_wire::GOffset::new(0),
            val: 0,
            tag: 0,
        };
        let packet = Packet::new(NodeId::new(0), NodeId::new(0), msg, 0);
        // One port, allowance `credits`, one frame launched on it.
        let switch = |credits: u32, rel: Option<RelParams>| {
            let mut s = Switch::new("s".into(), 1, vec![0], timing.clone());
            if let Some(rel) = rel {
                s.set_reliability(rel);
            }
            s.attach_port(0, TxPort::new(id, 0, credits));
            s.tx_mut(0).unwrap().launch(&packet, &timing);
            s
        };
        let absorbs = |s: &Switch, ev: NetEvent| Component::<NetEvent>::can_absorb(s, &ev);
        let (credit, free) = (NetEvent::Credit { port: 0 }, NetEvent::PumpOut { port: 0 });

        let mut idle = switch(8, None);
        assert!(absorbs(&idle, credit.clone()) && absorbs(&idle, free.clone()));
        let topo = crate::Topology::star(1);
        let routes = crate::Routes::compute(&topo).unwrap();
        idle.set_fabric(FabricView::new(topo, routes));
        assert!(!absorbs(&idle, credit.clone()) && !absorbs(&idle, free.clone()));

        let reliable = switch(8, Some(RelParams::default()));
        assert!(!absorbs(&reliable, credit.clone()) && !absorbs(&reliable, free.clone()));

        let mut stalled = switch(1, None);
        let tx = stalled.tx_mut(0).unwrap();
        tx.on_free();
        assert!(tx.note_blocked(SimTime::from_ns(1)));
        assert!(!absorbs(&stalled, credit) && absorbs(&stalled, free));
    }
}
