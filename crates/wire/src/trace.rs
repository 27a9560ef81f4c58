//! Packet-lifecycle tracing: the vocabulary and the event log.
//!
//! The paper's evaluation (§3.2) is a *breakdown*: where a remote operation
//! spends its microseconds — CPU store, TurboChannel, HIB, link, switch,
//! remote memory. This module defines the shared vocabulary every layer of
//! the simulated cluster uses to report those stages — a [`TraceId`] naming
//! one packet, a [`Stage`] naming one lifecycle point — and the log that
//! records them: a [`TraceCollector`] holds a run's events, and a
//! [`Tracer`] is its handle stamped with the [`Site`] that emits.
//!
//! Tracing is strictly optional: every hook site (HIB, switch, node CPU)
//! holds an `Option<Tracer>`, so an untraced run pays one branch per hook.
//! Each kind of event is built in one place, a [`Tracer`] method.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use tg_sim::SimTime;

use crate::ids::NodeId;
use crate::Packet;

/// Identity of one traced packet.
///
/// Every [`Packet`] is already uniquely named by its
/// `(src, inject_seq)` pair — the injecting HIB assigns a per-source
/// sequence number at injection — so the trace id is a stamp derived from
/// fields the packet carries on the wire rather than an extra header byte.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceId(u64);

impl TraceId {
    /// The trace id of the packet injected by `src` with sequence `seq`.
    pub fn packet(src: NodeId, seq: u64) -> Self {
        debug_assert!(seq < 1 << 48, "inject_seq exceeds the trace-id field");
        TraceId((u64::from(src.raw()) << 48) | (seq & ((1 << 48) - 1)))
    }

    /// The injecting node encoded in the id.
    pub fn src(self) -> NodeId {
        NodeId::new((self.0 >> 48) as u16)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.0 >> 48, self.0 & ((1 << 48) - 1))
    }
}

/// Where a lifecycle event was observed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Site {
    /// A workstation (its HIB or CPU side).
    Node(NodeId),
    /// A switch, by fabric index.
    Switch(u16),
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Node(n) => write!(f, "node{}", n.raw()),
            Site::Switch(s) => write!(f, "switch{s}"),
        }
    }
}

/// One point in a packet's lifecycle, in causal order along its path.
///
/// The stages map onto the paper's §3.2 cost centers: the TurboChannel
/// latch and HIB transmit queue ([`TxEnqueue`](Stage::TxEnqueue)), HIB
/// processing + link serialization ([`TxLaunch`](Stage::TxLaunch)), switch
/// queueing and arbitration ([`SwitchEnqueue`](Stage::SwitchEnqueue) /
/// [`SwitchTx`](Stage::SwitchTx)), the remote HIB's input FIFO and receive
/// pipeline ([`RxEnqueue`](Stage::RxEnqueue) / [`RxStart`](Stage::RxStart))
/// and the final memory/protocol action ([`Commit`](Stage::Commit)).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stage {
    /// The packet entered the injecting HIB's transmit queue (the CPU-side
    /// store has been latched off the TurboChannel).
    TxEnqueue,
    /// The injecting HIB won the link and began serializing the packet.
    TxLaunch,
    /// The packet fully arrived in a switch input FIFO.
    SwitchEnqueue,
    /// The switch's round-robin arbitration picked the packet and launched
    /// it on its output port.
    SwitchTx,
    /// The packet fully arrived in the destination HIB's input FIFO.
    RxEnqueue,
    /// The destination HIB's receive pipeline started processing it.
    RxStart,
    /// The destination HIB finished the packet: memory committed, protocol
    /// action applied, or completion consumed (acks/responses).
    Commit,
    /// The frame was lost or discarded on a link hop: dropped in flight by
    /// an injected fault, or discarded by the receiving link layer on a
    /// checksum/sequence violation. Link-level retransmission recovers it.
    Dropped,
    /// The transmitting port re-sent the frame from its retransmit buffer
    /// (timeout or NACK driven).
    Retransmit,
    /// The transmitting port completed a credit-resync handshake with its
    /// neighbor after losing credits.
    CreditResync,
    /// The packet is at the head of a transmit queue but the port has no
    /// credits: a stall window opened. Emitted once per window (the window
    /// closes when a credit arrives), so attribution can classify the
    /// queue time that follows as credit-stall rather than arbitration.
    CreditStall,
    /// A node's failure detector declared a peer dead (heartbeat silence
    /// exceeded the phi/timeout threshold). The trace id encodes the
    /// *declared-dead peer* and the per-observer verdict count; the site
    /// is the observing node. `tg trace --check` reconciles these
    /// verdicts against the fault plan's crash/outage windows.
    PeerDown,
    /// A node's failure detector saw heartbeats resume from a peer it
    /// had declared dead. Same id/site convention as
    /// [`Stage::PeerDown`].
    PeerUp,
}

impl Stage {
    /// Stable label used by exporters and reports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::TxEnqueue => "tx-enqueue",
            Stage::TxLaunch => "tx-launch",
            Stage::SwitchEnqueue => "switch-enqueue",
            Stage::SwitchTx => "switch-tx",
            Stage::RxEnqueue => "rx-enqueue",
            Stage::RxStart => "rx-start",
            Stage::Commit => "commit",
            Stage::Dropped => "dropped",
            Stage::Retransmit => "retransmit",
            Stage::CreditResync => "credit-resync",
            Stage::CreditStall => "credit-stall",
            Stage::PeerDown => "peer-down",
            Stage::PeerUp => "peer-up",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One timestamped packet-lifecycle observation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketEvent {
    /// Simulated instant of the observation.
    pub at: SimTime,
    /// The observed packet.
    pub trace: TraceId,
    /// The packet this one was sent in response to, when known (set on the
    /// injection event of acks, read responses, atomic responses and
    /// reflected writes, which lets collectors chain request → response).
    pub parent: Option<TraceId>,
    /// Where the event was observed.
    pub site: Site,
    /// Which lifecycle point.
    pub stage: Stage,
    /// Message kind (stable label from `WireMsg::kind_str`).
    pub kind: &'static str,
    /// Total bytes on the wire.
    pub bytes: u32,
}

/// CPU-observed operation classes, mirroring the per-node latency
/// summaries the cluster already keeps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Blocking remote (window) read.
    RemoteRead,
    /// Non-blocking remote (window) write.
    RemoteWrite,
    /// Local shared-segment read.
    LocalRead,
    /// Local shared-segment write (incl. replica/owned/eager pages).
    LocalWrite,
    /// Atomic operation (full launch sequence).
    Atomic,
    /// Remote-copy launch.
    Copy,
    /// FENCE stall.
    Fence,
    /// OS message send.
    Send,
    /// OS message receive.
    Recv,
}

impl OpKind {
    /// Stable label used by exporters and reports.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::RemoteRead => "remote-read",
            OpKind::RemoteWrite => "remote-write",
            OpKind::LocalRead => "local-read",
            OpKind::LocalWrite => "local-write",
            OpKind::Atomic => "atomic",
            OpKind::Copy => "copy",
            OpKind::Fence => "fence",
            OpKind::Send => "send",
            OpKind::Recv => "recv",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One completed CPU-visible operation, as the issuing node observed it.
///
/// `end - start` is exactly the latency the node's per-class summaries
/// record, so collectors can reconcile per-stage breakdowns against the
/// end-to-end numbers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpEvent {
    /// The issuing node.
    pub node: NodeId,
    /// Operation class.
    pub kind: OpKind,
    /// When the CPU issued the operation.
    pub start: SimTime,
    /// When the CPU observed completion.
    pub end: SimTime,
    /// Trace id of the request packet this operation injected, when one
    /// was injected and could be attributed.
    pub trace: Option<TraceId>,
}

/// The event log of one traced run: every packet-lifecycle and
/// completed-operation event, in emission order (the engine's
/// deterministic delivery order).
///
/// Cloning the collector clones the *handle*; all clones and every
/// [`Tracer`] made from them share one log.
#[derive(Clone, Debug, Default)]
pub struct TraceCollector {
    log: Rc<Log>,
}

#[derive(Debug, Default)]
struct Log {
    packets: RefCell<Vec<PacketEvent>>,
    ops: RefCell<Vec<OpEvent>>,
}

impl TraceCollector {
    /// A fresh, empty log.
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// A handle on this log that stamps every event it records with `site`.
    pub fn tracer(&self, site: Site) -> Tracer {
        Tracer {
            log: self.log.clone(),
            site,
        }
    }

    /// All packet-lifecycle events recorded so far, in emission order.
    pub fn packet_events(&self) -> Vec<PacketEvent> {
        self.log.packets.borrow().clone()
    }

    /// All completed-operation events recorded so far.
    pub fn op_events(&self) -> Vec<OpEvent> {
        self.log.ops.borrow().clone()
    }

    /// Number of packet events recorded.
    pub fn packet_event_count(&self) -> usize {
        self.log.packets.borrow().len()
    }

    /// Number of operation events recorded.
    pub fn op_event_count(&self) -> usize {
        self.log.ops.borrow().len()
    }
}

/// A [`TraceCollector`] handle stamped with the [`Site`] it records for:
/// the one builder of every traced event.
#[derive(Debug)]
pub struct Tracer {
    log: Rc<Log>,
    site: Site,
}

impl Tracer {
    /// Records `packet` reaching `stage` here; `parent` chains a response
    /// to the request it answers.
    pub fn stage(&self, at: SimTime, packet: &Packet, stage: Stage, parent: Option<TraceId>) {
        self.log.packets.borrow_mut().push(PacketEvent {
            at,
            trace: packet.trace_id(),
            parent,
            site: self.site,
            stage,
            kind: packet.msg.kind_str(),
            bytes: packet.size_bytes(),
        });
    }

    /// Records a credit-resync probe launch or completion. Probes carry no
    /// [`Packet`], so the id is this site's index (a switch's carries no
    /// bit 15) and the handshake token.
    pub fn resync(&self, at: SimTime, token: u64) {
        let raw = match self.site {
            Site::Node(n) => n.raw(),
            Site::Switch(s) => s,
        };
        self.mark(at, raw, token, Stage::CreditResync);
    }

    /// Records a [`Stage::PeerDown`] or [`Stage::PeerUp`] verdict on
    /// `peer`. The id encodes the peer (a switch peer carries bit 15) and
    /// this observer's running verdict `count`.
    pub fn peer(&self, at: SimTime, peer: Site, stage: Stage, count: u64) {
        debug_assert!(matches!(stage, Stage::PeerDown | Stage::PeerUp));
        let raw = match peer {
            Site::Node(n) => n.raw(),
            Site::Switch(s) => 0x8000 | s,
        };
        self.mark(at, raw, count, stage);
    }

    /// Records a CPU operation this node issued at `start` and saw
    /// complete at `end`; `trace` is the request packet it injected.
    pub fn op(&self, kind: OpKind, start: SimTime, end: SimTime, trace: Option<TraceId>) {
        let Site::Node(node) = self.site else {
            unreachable!("only nodes complete CPU operations")
        };
        self.log.ops.borrow_mut().push(OpEvent {
            node,
            kind,
            start,
            end,
            trace,
        });
    }

    /// A packet-less event: keyed by `(raw, seq)`, labelled by its stage.
    fn mark(&self, at: SimTime, raw: u16, seq: u64, stage: Stage) {
        self.log.packets.borrow_mut().push(PacketEvent {
            at,
            trace: TraceId::packet(NodeId::new(raw), seq),
            parent: None,
            site: self.site,
            stage,
            kind: stage.label(),
            bytes: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_round_trips_src() {
        let t = TraceId::packet(NodeId::new(7), 12345);
        assert_eq!(t.src(), NodeId::new(7));
        assert_eq!(t.0 & 0xFFFF_FFFF_FFFF, 12345);
        assert_eq!(t.to_string(), "t7.12345");
    }

    #[test]
    fn ids_are_unique_across_sources() {
        let a = TraceId::packet(NodeId::new(0), 5);
        let b = TraceId::packet(NodeId::new(1), 5);
        assert_ne!(a, b);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Stage::TxEnqueue.label(), "tx-enqueue");
        assert_eq!(Stage::Commit.to_string(), "commit");
        assert_eq!(OpKind::RemoteRead.label(), "remote-read");
        assert_eq!(Site::Switch(2).to_string(), "switch2");
        assert_eq!(Site::Node(NodeId::new(3)).to_string(), "node3");
    }

    #[test]
    fn tracer_stamps_site_and_encodes_markers() {
        let log = TraceCollector::new();
        let sw = log.tracer(Site::Switch(2));
        sw.resync(SimTime::from_ns(1), 9);
        sw.peer(SimTime::from_ns(2), Site::Switch(3), Stage::PeerDown, 1);
        let node = log.tracer(Site::Node(NodeId::new(4)));
        node.peer(
            SimTime::from_ns(3),
            Site::Node(NodeId::new(5)),
            Stage::PeerUp,
            2,
        );
        node.op(OpKind::Fence, SimTime::ZERO, SimTime::from_ns(4), None);
        let ids: Vec<_> = log.packet_events().iter().map(|e| e.trace.0).collect();
        assert_eq!(ids, [(2 << 48) | 9, (0x8003 << 48) | 1, (5 << 48) | 2]);
        let kinds: Vec<_> = log.packet_events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["credit-resync", "peer-down", "peer-up"]);
        assert_eq!(log.packet_events()[1].site, Site::Switch(2));
        assert_eq!(log.op_events()[0].node, NodeId::new(4));
        assert_eq!((log.packet_event_count(), log.op_event_count()), (3, 1));
    }
}
