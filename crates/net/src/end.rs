//! One link end: the link-layer reactions every fabric element shares.
//!
//! A switch drives one [`LinkEnd`] per port; a HIB and a test endpoint
//! drive one each. The end decides how the link reacts to data frames,
//! control frames and recovery timers, and sends the protocol's replies
//! itself; the owner keeps what differs between elements: where
//! delivered frames go, tracing, how it schedules ([`LinkCtx`]) and with
//! what delay, and what it wakes afterwards.
//!
//! The end is also the one read-out of a link's counters: every owner,
//! and the cluster above them, reads a port through
//! [`LinkEnd::snapshot`]. That read-out includes the port's wire log
//! ([`PortSnapshot::wire`]), a fingerprint of every frame the end put on
//! its wire.

use std::fmt;
use std::hash::Hasher;
use std::rc::Rc;

use tg_sim::{CompId, Ctx, SimTime};
use tg_wire::{CtrlFrame, CtrlMsg, Fnv1a, Notice, Packet};

use crate::event::{NetEvent, NetMessage};
use crate::fault::{FaultInjector, FrameFate, LinkId};
use crate::link::{LinkError, LinkRx, RxVerdict};
use crate::port::{RxFifo, TimerAction, TxPort};

/// How a [`LinkEnd`]'s owner schedules network events: an engine
/// [`Ctx`], or a host that forwards to one.
pub trait LinkCtx {
    /// The current simulated instant.
    fn now(&self) -> SimTime;
    /// Schedules `ev` at component `dst` after `delay`.
    fn send_net(&mut self, dst: CompId, delay: SimTime, ev: NetEvent);
    /// Like [`send_net`](LinkCtx::send_net), for an event the receiver
    /// may absorb instead of handling (see [`Ctx::send_deferrable`]).
    fn send_net_deferrable(&mut self, dst: CompId, delay: SimTime, ev: NetEvent) {
        self.send_net(dst, delay, ev);
    }
}

impl<M: NetMessage> LinkCtx for Ctx<'_, M> {
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }

    fn send_net(&mut self, dst: CompId, delay: SimTime, ev: NetEvent) {
        self.send(dst, delay, M::from_net(ev));
    }

    fn send_net_deferrable(&mut self, dst: CompId, delay: SimTime, ev: NetEvent) {
        self.send_deferrable(dst, delay, M::from_net(ev));
    }
}

/// What became of an arrived data frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Arrival {
    /// Deliver the frame, then the successors it released from the
    /// reorder window, in this order.
    Deliver(Packet, Vec<Packet>),
    /// Parked in the reorder window until the gap before it fills.
    Held,
    /// Discarded (corrupt, duplicate, or past a gap); the owner traces
    /// the drop.
    Dropped(Packet),
}

/// What an arrived control frame leaves for the owner to do.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CtrlOutcome {
    /// Nothing: the frame was corrupt (counted), a resync probe (answered)
    /// or an epoch reset (applied).
    Done,
    /// An Ack or Nack moved the transmit side: pump it.
    Acked,
    /// A Nack started a retransmission sweep: pump the transmit side.
    Retransmit,
    /// A Nack exhausted the retry budget and the link is now dead; pump
    /// the transmit side all the same.
    Dead(LinkError),
    /// A resync reply, carrying its token when it completed the
    /// handshake; pump the transmit side.
    SyncAck(Option<u64>),
    /// A verdict notice, already acknowledged to the neighbour: a switch
    /// floods it on, a HIB applies it.
    Notice(Rc<Notice>),
    /// The neighbour acknowledged the notice with this id.
    NoticeAck(u64),
}

/// One end of a link: the transmit port ([`TxPort`]), the receive half
/// of the reliability protocol (`LinkRx`) when the port is enrolled,
/// and the reactions of both. Control frames and credits pass the fault
/// injector on the transmit port's link.
///
/// | input | sent to the neighbor | handed back |
/// |---|---|---|
/// | frame, unreliable link | — | [`Arrival::Deliver`] |
/// | frame in order | Ack + SACK bits | [`Arrival::Deliver`] with released successors |
/// | frame parked out of order | Nack on a new gap, else Ack + bits | [`Arrival::Held`] |
/// | parked duplicate, or past a NACKed gap | — | [`Arrival::Dropped`] |
/// | duplicate | Ack + bits | [`Arrival::Dropped`] |
/// | corrupt, or a new gap | Nack + bits | [`Arrival::Dropped`] |
/// | Ack, Nack | — | [`CtrlOutcome::Acked`], [`CtrlOutcome::Retransmit`] or [`CtrlOutcome::Dead`] |
/// | SyncReq | SyncAck with the monotone drain count | [`CtrlOutcome::Done`] |
/// | SyncAck | — | [`CtrlOutcome::SyncAck`] |
/// | Reset | — (the receive sequence is reseated) | [`CtrlOutcome::Done`] |
/// | Keepalive | — | [`CtrlOutcome::Done`] |
/// | Notice | NoticeAck | [`CtrlOutcome::Notice`] |
/// | NoticeAck | — | [`CtrlOutcome::NoticeAck`] |
/// | corrupt control frame | — (counted) | [`CtrlOutcome::Done`] |
/// | recovery timer | SyncReq on a resync | the [`TimerAction`] |
#[derive(Debug)]
pub struct LinkEnd {
    tx: TxPort,
    /// Boxed, like the sender's state inside [`TxPort`], so that an
    /// unreliable end stays compact.
    rx: Option<Box<LinkRx>>,
    injector: Option<FaultInjector>,
    /// Control frames discarded because their checksum failed.
    ctrl_discards: u64,
    /// The wire log: every frame this end launched, folded at launch.
    wire: Fnv1a,
}

/// The kind of a frame in the wire log; a control frame adds its
/// message's index to [`Launch::Ctrl`].
#[derive(Clone, Copy)]
enum Launch {
    Data,
    Retransmit,
    Credit,
    Ctrl,
}

impl LinkEnd {
    /// A link end driving `tx`. A reliability-enrolled port implies the
    /// matching receiver on the paired input link.
    pub fn new(tx: TxPort) -> Self {
        LinkEnd {
            rx: tx
                .rel
                .as_ref()
                .map(|r| Box::new(LinkRx::for_params(&r.params))),
            tx,
            injector: None,
            ctrl_discards: 0,
            wire: Fnv1a::default(),
        }
    }

    /// Folds one frame launched at `at` into the wire log: its instant,
    /// its kind and the word that tells it apart from its neighbours (a
    /// sequence number, a control checksum or a drain count), mixed into
    /// one FNV-1a word step, since a multiply per frame is what the log
    /// costs. Called before the injector rules on the frame, so a frame
    /// lost in flight is logged all the same.
    #[inline]
    fn log(&mut self, at: SimTime, kind: u64, word: u64) {
        self.wire
            .write_u64(at.as_ps().rotate_left(24) ^ (kind << 60) ^ word);
    }

    /// The wire log so far: it moves with every frame this end launches.
    pub(crate) fn wire_log(&self) -> u64 {
        self.wire.finish()
    }

    /// Installs the fault injector consulted at every frame launch,
    /// control frame and credit return on this link.
    pub fn set_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The transmit port.
    #[inline]
    pub fn tx(&self) -> &TxPort {
        &self.tx
    }

    /// The transmit port, mutably.
    #[inline]
    pub fn tx_mut(&mut self) -> &mut TxPort {
        &mut self.tx
    }

    /// The port's read-out: the transmit side of the link it drives and
    /// the receive side of the reverse hop, whose input FIFO the owner
    /// holds (`None` for an owner that consumes arrivals at once). `None`
    /// while the transmit port carries no link label.
    pub fn snapshot(&self, fifo: Option<&RxFifo>) -> Option<PortSnapshot> {
        let (tx, rx) = (&self.tx, self.rx.as_deref());
        Some(PortSnapshot {
            link: tx.link()?,
            tx_packets: tx.tx_packets(),
            tx_bytes: tx.tx_bytes(),
            credits: tx.credits(),
            allowance: tx.allowance(),
            credit_stall: tx.credit_stall(),
            retransmits: tx.retransmits(),
            retx_bytes: tx.retx_bytes(),
            resyncs: tx.resyncs(),
            resync_probes: tx.resync_probes(),
            unacked: tx.unacked(),
            dead: tx.is_dead(),
            consecutive_attempts: tx.consecutive_attempts(),
            ack_starved: tx.ack_starved(),
            credit_stalled: tx.is_credit_stalled(),
            rx_fifo_depth: fifo.map_or(0, |f| f.len() as u32),
            rx_fifo_high_water: fifo.map_or(0, RxFifo::high_water),
            rx_discards: rx.map_or(0, |rx| rx.corrupt_discards() + rx.seq_discards()),
            gap_discards: rx.map_or(0, LinkRx::gap_discards),
            reorder_depth: rx.map_or(0, LinkRx::reorder_depth),
            ctrl_discards: self.ctrl_discards,
            wire: self.wire.finish(),
        })
    }

    /// Judges an arrived data frame and sends the receiver's reply after
    /// `delay`.
    #[inline]
    pub fn receive<C: LinkCtx + ?Sized>(
        &mut self,
        packet: Packet,
        delay: SimTime,
        ctx: &mut C,
    ) -> Arrival {
        let Some(rx) = self.rx.as_mut() else {
            return Arrival::Deliver(packet, Vec::new());
        };
        let verdict = rx.accept(&packet);
        let sack = rx.sack_bits();
        let (reply, arrival) = match verdict {
            RxVerdict::Accept { ack } => (
                Some(CtrlMsg::Ack { seq: ack, sack }),
                Arrival::Deliver(packet, rx.take_ready()),
            ),
            // A spurious retransmit of a parked frame: drop the copy
            // silently (the sweep that resent it leads with the missing
            // base frame, whose ack will carry the bitmap).
            RxVerdict::Held { dup: true, .. } | RxVerdict::Discard => {
                (None, Arrival::Dropped(packet))
            }
            RxVerdict::Held {
                ack, nack: true, ..
            } => (
                Some(CtrlMsg::Nack {
                    expected: ack + 1,
                    sack,
                }),
                Arrival::Held,
            ),
            // Refresh the sender's view of the window with a duplicate
            // cumulative ack and the grown bitmap.
            RxVerdict::Held { ack, .. } => (Some(CtrlMsg::Ack { seq: ack, sack }), Arrival::Held),
            RxVerdict::DupAck { ack } => (
                Some(CtrlMsg::Ack { seq: ack, sack }),
                Arrival::Dropped(packet),
            ),
            RxVerdict::NackCorrupt { expected } | RxVerdict::NackGap { expected } => (
                Some(CtrlMsg::Nack { expected, sack }),
                Arrival::Dropped(packet),
            ),
        };
        if let Some(msg) = reply {
            self.send_ctrl(msg, delay, ctx);
        }
        arrival
    }

    /// Reacts to an arrived control frame; a resync probe or a notice is
    /// answered after `delay`.
    pub fn on_ctrl<C: LinkCtx + ?Sized>(
        &mut self,
        frame: CtrlFrame,
        delay: SimTime,
        ctx: &mut C,
    ) -> CtrlOutcome {
        if !frame.checksum_ok() {
            self.ctrl_discards += 1;
            return CtrlOutcome::Done;
        }
        match frame.msg {
            CtrlMsg::Ack { seq, sack } => {
                self.tx.on_ack(seq, sack, ctx.now());
                CtrlOutcome::Acked
            }
            CtrlMsg::Nack { expected, sack } => match self.tx.on_nack(expected, sack, ctx.now()) {
                TimerAction::Dead(err) => CtrlOutcome::Dead(err),
                TimerAction::Retransmit => CtrlOutcome::Retransmit,
                _ => CtrlOutcome::Acked,
            },
            CtrlMsg::SyncReq { token } => {
                // Resync replies are idempotent: the drain counter is
                // monotone, so answering a retried (or duplicated) probe
                // never double-credits.
                let drained = self.rx.as_deref().map_or(0, LinkRx::drained);
                self.send_ctrl(CtrlMsg::SyncAck { token, drained }, delay, ctx);
                CtrlOutcome::Done
            }
            CtrlMsg::SyncAck { token, drained } => {
                let done = self.tx.on_sync_ack(token, drained, ctx.now());
                CtrlOutcome::SyncAck(done.then_some(token))
            }
            CtrlMsg::Keepalive => CtrlOutcome::Done,
            CtrlMsg::Notice(notice) => {
                self.send_ctrl(CtrlMsg::NoticeAck { id: notice.id }, delay, ctx);
                CtrlOutcome::Notice(notice)
            }
            CtrlMsg::NoticeAck { id } => CtrlOutcome::NoticeAck(id),
            CtrlMsg::Reset { next } => {
                // The neighbor's transmit side started a fresh epoch:
                // reseat the expected sequence, flush the reorder window
                // (counted) and zero the drain counter for resync math.
                if let Some(rx) = self.rx.as_mut() {
                    rx.on_reset(next);
                }
                CtrlOutcome::Done
            }
        }
    }

    /// Reacts to a fired recovery timer of generation `gen`: a resync
    /// sends its probe after `delay`. The owner acts on the returned
    /// action and then re-arms the timer.
    pub fn on_timer<C: LinkCtx + ?Sized>(
        &mut self,
        gen: u64,
        delay: SimTime,
        ctx: &mut C,
    ) -> TimerAction {
        let action = self.tx.on_timer(gen, ctx.now());
        if let TimerAction::Resync { token } = action {
            self.send_ctrl(CtrlMsg::SyncReq { token }, delay, ctx);
        }
        action
    }

    /// Starts a fresh transmit epoch after the peer revived and announces
    /// it after `delay`, so the receiver reseats its sequence and zeroes
    /// its drain counter.
    pub fn revive<C: LinkCtx + ?Sized>(&mut self, delay: SimTime, ctx: &mut C) {
        let next = self.tx.reset_epoch(ctx.now());
        self.send_ctrl(CtrlMsg::Reset { next }, delay, ctx);
    }

    /// Seals `msg` and sends it to the neighbor after `delay`. Control
    /// frames are wire traffic like any other: the injector may drop one
    /// outright, or corrupt it so that the receiver's checksum discards
    /// it. The transmit link and the credit-return path share one
    /// physical link, so control traffic in either role rides
    /// `tx.link()`. An intact Ack or Keepalive goes deferrable: when it
    /// only moves a window nobody waits on, or only tells a detector that
    /// already trusts the sender it lives, the neighbor absorbs it.
    /// Every other control frame acts, and goes plain.
    pub fn send_ctrl<C: LinkCtx + ?Sized>(&mut self, msg: CtrlMsg, delay: SimTime, ctx: &mut C) {
        let mut frame = CtrlFrame::seal(msg);
        let index = match frame.msg {
            CtrlMsg::Ack { .. } => 0,
            CtrlMsg::Nack { .. } => 1,
            CtrlMsg::SyncReq { .. } => 2,
            CtrlMsg::SyncAck { .. } => 3,
            CtrlMsg::Keepalive => 4,
            CtrlMsg::Reset { .. } => 5,
            CtrlMsg::Notice(_) => 6,
            CtrlMsg::NoticeAck { .. } => 7,
        };
        let word = u64::from(frame.checksum);
        self.log(ctx.now(), Launch::Ctrl as u64 + index, word);
        let fate = match (&self.injector, self.tx.link()) {
            (Some(inj), Some(link)) => inj.ctrl_fate(link, ctx.now(), &mut frame),
            _ => FrameFate::Deliver,
        };
        let (dst, port) = (self.tx.neighbor(), self.tx.neighbor_port());
        match fate {
            FrameFate::Drop => {}
            FrameFate::Deliver if matches!(frame.msg, CtrlMsg::Ack { .. } | CtrlMsg::Keepalive) => {
                ctx.send_net_deferrable(dst, delay, NetEvent::Ctrl { port, frame });
            }
            _ => ctx.send_net(dst, delay, NetEvent::Ctrl { port, frame }),
        }
    }

    /// Counts one frame drained from the input FIFO and returns the
    /// credit for the neighbor, `(component, event)`, unless the
    /// injector loses it in flight.
    pub fn drain<C: LinkCtx + ?Sized>(&mut self, ctx: &C) -> Option<(CompId, NetEvent)> {
        let drained = match self.rx.as_mut() {
            Some(rx) => {
                rx.on_drain();
                rx.drained()
            }
            None => 0,
        };
        self.log(ctx.now(), Launch::Credit as u64, drained);
        if let (Some(inj), Some(link)) = (&self.injector, self.tx.link()) {
            if inj.credit_lost(link, ctx.now()) {
                return None;
            }
        }
        let port = self.tx.neighbor_port();
        Some((self.tx.neighbor(), NetEvent::Credit { port }))
    }

    /// Logs a data frame launched now (`fresh`, or a retransmission) and
    /// returns the injector's verdict on it, corrupting `packet` in place
    /// when that is its fate.
    #[inline]
    pub fn frame_fate(&mut self, now: SimTime, packet: &mut Packet, fresh: bool) -> FrameFate {
        let kind = if fresh {
            Launch::Data
        } else {
            Launch::Retransmit
        };
        let id = (u64::from(packet.src.raw()) << 48) ^ packet.inject_seq;
        self.log(now, kind as u64, id ^ packet.link_seq.rotate_left(32));
        match (&self.injector, self.tx.link()) {
            (Some(inj), Some(link)) => inj.frame_fate(link, now, packet),
            _ => FrameFate::Deliver,
        }
    }
}

/// Point-in-time counters of one port, read by [`LinkEnd::snapshot`]:
/// the transmit half of the directed link the port drives (`link`) and
/// the receive half of the reverse hop (neighbor → self), which arrives
/// at the same port. `Cluster::link_snapshots` joins the halves per
/// directed link with [`PortSnapshot::joined`], under the canonical
/// `link.<a>-<b>.<metric>` names (see [`tg_wire::metric`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortSnapshot {
    /// The directed link this port transmits on (self → neighbor).
    pub link: LinkId,
    /// Frames launched on `link` (fresh + retransmitted).
    pub tx_packets: u64,
    /// Wire bytes launched on `link`.
    pub tx_bytes: u64,
    /// Credits currently in hand for `link`.
    pub credits: u32,
    /// Initial credit allowance of `link`.
    pub allowance: u32,
    /// Cumulative credit-stall time on `link` (closed windows).
    pub credit_stall: SimTime,
    /// Frames retransmitted on `link`.
    pub retransmits: u64,
    /// Wire bytes of retransmitted frames on `link` (header + payload of
    /// every retransmission: the wire-efficiency cost of recovery).
    pub retx_bytes: u64,
    /// Completed credit-resync handshakes on `link`.
    pub resyncs: u64,
    /// Credit-resync probes issued on `link`.
    pub resync_probes: u64,
    /// Frames launched on `link` but not yet acknowledged; each holds a
    /// credit.
    pub unacked: usize,
    /// Whether `link` has been declared dead (retry budget exhausted).
    pub dead: bool,
    /// Consecutive unanswered (re)transmissions of the oldest frame.
    pub(crate) consecutive_attempts: u32,
    /// Whether the ack-starvation watchdog considers `link` starved
    /// (half the retry budget burned with no ack progress).
    pub(crate) ack_starved: bool,
    /// Whether a credit-stall window is open on `link` right now.
    pub credit_stalled: bool,
    /// Current depth of the input FIFO fed by the reverse hop, in
    /// packets.
    pub rx_fifo_depth: u32,
    /// Deepest occupancy that FIFO ever reached.
    pub rx_fifo_high_water: u32,
    /// Frames the reverse hop's link layer rejected here (checksum or
    /// sequence violations, duplicates).
    pub rx_discards: u64,
    /// Of those, frames NACKed for landing beyond the reorder window
    /// (go-back-N: past the expected frame).
    pub gap_discards: u64,
    /// Frames parked in the reverse hop's SACK reorder window (zero at
    /// quiescence).
    pub reorder_depth: usize,
    /// Control frames that arrived over the reverse hop and failed their
    /// checksum.
    pub ctrl_discards: u64,
    /// The wire log of `link`: an FNV-1a fold, one 64-bit word per frame,
    /// of every frame this port launched (data, retransmissions, control
    /// frames and credits), each word mixing its launch instant, kind and
    /// sequence number or checksum, logged before the injector's verdict.
    pub wire: u64,
}

impl PortSnapshot {
    /// True when credits in hand plus unacknowledged frames exceed the
    /// allowance: a duplicate credit was minted.
    pub fn overcommitted(&self) -> bool {
        u64::from(self.credits) + self.unacked as u64 > u64::from(self.allowance)
    }

    /// True when every credit is accounted for: once all FIFOs have
    /// drained, each credit is either in hand or riding an unacknowledged
    /// frame. A shortfall means a credit leaked (lost in flight and never
    /// resynced).
    pub fn balanced(&self) -> bool {
        u64::from(self.credits) + self.unacked as u64 == u64::from(self.allowance)
    }

    /// The link as a no-progress suspect, when it is holding the fabric:
    /// dead, carrying unacknowledged frames, or `blocked` (the owner's
    /// word that traffic waits on it for a credit).
    pub fn stalled(&self, blocked: bool) -> Option<StalledLink> {
        (self.dead || self.unacked > 0 || blocked).then_some(StalledLink {
            link: self.link,
            dead: self.dead,
            stranded: self.unacked,
            credits: self.credits,
            retransmits: self.retransmits,
            attempts: self.consecutive_attempts,
            starved: self.ack_starved,
        })
    }

    /// The whole directed link `self.link`: this port's transmit half
    /// joined with the receive half read at `far`, the port at the link's
    /// other end (which drives the reverse hop).
    pub fn joined(&self, far: &PortSnapshot) -> PortSnapshot {
        PortSnapshot {
            rx_fifo_depth: far.rx_fifo_depth,
            rx_fifo_high_water: far.rx_fifo_high_water,
            rx_discards: far.rx_discards,
            gap_discards: far.gap_discards,
            reorder_depth: far.reorder_depth,
            ctrl_discards: far.ctrl_discards,
            ..*self
        }
    }
}

/// A structured no-progress diagnosis: which link is holding the fabric,
/// assembled by the cluster from [`PortSnapshot::stalled`] when the
/// engine watchdog trips.
#[derive(Clone, Debug)]
pub struct StalledLink {
    /// The stalled directed link.
    pub link: LinkId,
    /// Whether the link has been declared dead (retry budget exhausted).
    pub(crate) dead: bool,
    /// Frames stranded in the retransmit buffer.
    pub(crate) stranded: usize,
    /// Credits in hand at the transmit port.
    pub(crate) credits: u32,
    /// Retransmissions attempted on this link.
    pub(crate) retransmits: u64,
    /// Consecutive unanswered (re)transmissions of the oldest frame.
    pub(crate) attempts: u32,
    /// Whether the ack-starvation watchdog considers the link starved
    /// (half the retry budget burned with no ack progress).
    pub(crate) starved: bool,
}

impl fmt::Display for StalledLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}, {} stranded, {} credits, {} retransmits ({} unanswered)",
            self.link,
            if self.dead {
                "DEAD"
            } else if self.starved {
                "ack-starved"
            } else {
                "stalled"
            },
            self.stranded,
            self.credits,
            self.retransmits,
            self.attempts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, LinkId};
    use crate::link::{RelParams, RetxMode};
    use tg_wire::trace::Site;
    use tg_wire::{NodeId, TimingConfig, WireMsg};

    /// The delay every reply in these tests is sent with.
    const DELAY: SimTime = SimTime::from_ns(50);

    /// A scheduler that records what the link end sends.
    #[derive(Default)]
    struct Rec {
        now: SimTime,
        sent: Vec<(CompId, SimTime, NetEvent)>,
    }

    impl LinkCtx for Rec {
        fn now(&self) -> SimTime {
            self.now
        }

        fn send_net(&mut self, dst: CompId, delay: SimTime, ev: NetEvent) {
            self.sent.push((dst, delay, ev));
        }
    }

    impl Rec {
        /// The control messages sent since the last call, each checked to
        /// go to the neighbor's paired port after [`DELAY`].
        fn ctrl(&mut self) -> Vec<CtrlMsg> {
            let sent = std::mem::take(&mut self.sent);
            sent.into_iter()
                .map(|(dst, delay, ev)| match ev {
                    NetEvent::Ctrl { port: 3, frame } if (dst, delay) == (neighbor(), DELAY) => {
                        frame.msg
                    }
                    other => panic!("not a control frame to the neighbor: {other:?}"),
                })
                .collect()
        }
    }

    /// The far end's component id (one from a throwaway engine).
    fn neighbor() -> CompId {
        struct Noop;
        impl tg_sim::Component<u32> for Noop {
            fn on_event(&mut self, _: u32, _: &mut Ctx<'_, u32>) {}
            fn name(&self) -> &str {
                "noop"
            }
        }
        tg_sim::Engine::<u32>::new().add(Noop)
    }

    /// A link end toward port 3 of the neighbor with 8 credits, running
    /// the reliability protocol under `params` when given.
    fn end(params: Option<RelParams>) -> LinkEnd {
        let mut tx = TxPort::new(neighbor(), 3, 8);
        tx.set_link(LinkId::new(Site::Node(NodeId::new(0)), Site::Switch(0)));
        if let Some(params) = params {
            tx.enable_reliability(params);
        }
        LinkEnd::new(tx)
    }

    fn reliable(mode: RetxMode) -> LinkEnd {
        end(Some(RelParams::with_mode(mode)))
    }

    /// An intact frame carrying link sequence number `seq`.
    fn frame(seq: u64) -> Packet {
        let mut p = Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            WireMsg::WriteAck { tag: 0 },
            seq,
        );
        p.link_seq = seq;
        p.seal();
        p
    }

    fn ctrl(msg: CtrlMsg) -> CtrlFrame {
        CtrlFrame::seal(msg)
    }

    /// Frames and launches one fresh packet on the end's transmit port.
    fn launch(end: &mut LinkEnd, now: SimTime) {
        let tx = end.tx_mut();
        let p = tx.frame(frame(0), now);
        tx.launch(&p, &TimingConfig::telegraphos_i());
        tx.on_free();
    }

    #[test]
    fn an_unreliable_end_delivers_every_frame_without_a_reply() {
        let (mut e, mut ctx) = (end(None), Rec::default());
        let arrival = e.receive(frame(5), DELAY, &mut ctx);
        assert_eq!(arrival, Arrival::Deliver(frame(5), Vec::new()));
        assert!(ctx.sent.is_empty());
        let credit = NetEvent::Credit { port: 3 };
        assert_eq!(e.drain(&Rec::default()), Some((neighbor(), credit)));
    }

    #[test]
    fn go_back_n_verdicts_map_to_replies_and_drops() {
        let (mut e, mut ctx) = (reliable(RetxMode::GoBackN), Rec::default());
        let ack = |seq| CtrlMsg::Ack { seq, sack: 0 };
        let nack = |expected| CtrlMsg::Nack { expected, sack: 0 };
        // Accept: deliver and ack.
        let arrival = e.receive(frame(1), DELAY, &mut ctx);
        assert_eq!(arrival, Arrival::Deliver(frame(1), Vec::new()));
        assert_eq!(ctx.ctrl(), [ack(1)]);
        // DupAck: drop and re-ack.
        let arrival = e.receive(frame(1), DELAY, &mut ctx);
        assert_eq!(arrival, Arrival::Dropped(frame(1)));
        assert_eq!(ctx.ctrl(), [ack(1)]);
        // NackGap (frame 2 lost), then Discard while the NACK is out.
        let arrival = e.receive(frame(3), DELAY, &mut ctx);
        assert_eq!(arrival, Arrival::Dropped(frame(3)));
        assert_eq!(ctx.ctrl(), [nack(2)]);
        let arrival = e.receive(frame(4), DELAY, &mut ctx);
        assert_eq!(arrival, Arrival::Dropped(frame(4)));
        assert_eq!(ctx.ctrl(), []);
        // NackCorrupt.
        let mut bad = frame(2);
        bad.checksum ^= 0x10;
        assert_eq!(
            e.receive(bad.clone(), DELAY, &mut ctx),
            Arrival::Dropped(bad)
        );
        assert_eq!(ctx.ctrl(), [nack(2)]);
    }

    #[test]
    fn sack_verdicts_park_release_and_carry_the_bitmap() {
        let (mut e, mut ctx) = (reliable(RetxMode::Sack), Rec::default());
        e.receive(frame(1), DELAY, &mut ctx);
        assert_eq!(ctx.ctrl(), [CtrlMsg::Ack { seq: 1, sack: 0 }]);
        // Frame 2 lost: 3 opens the gap (NACK), 4 grows the bitmap (ACK).
        // Bit i stands for frame 2 + i.
        assert_eq!(e.receive(frame(3), DELAY, &mut ctx), Arrival::Held);
        let nack = CtrlMsg::Nack {
            expected: 2,
            sack: 0b10,
        };
        assert_eq!(ctx.ctrl(), [nack]);
        assert_eq!(e.receive(frame(4), DELAY, &mut ctx), Arrival::Held);
        assert_eq!(
            ctx.ctrl(),
            [CtrlMsg::Ack {
                seq: 1,
                sack: 0b110
            }]
        );
        // A spurious retransmit of a parked frame is dropped silently.
        let arrival = e.receive(frame(3), DELAY, &mut ctx);
        assert_eq!(arrival, Arrival::Dropped(frame(3)));
        assert_eq!(ctx.ctrl(), []);
        // The missing frame releases its parked successors in order.
        let arrival = e.receive(frame(2), DELAY, &mut ctx);
        assert_eq!(
            arrival,
            Arrival::Deliver(frame(2), vec![frame(3), frame(4)])
        );
        assert_eq!(ctx.ctrl(), [CtrlMsg::Ack { seq: 4, sack: 0 }]);
    }

    #[test]
    fn control_frames_map_to_outcomes() {
        let (mut e, mut ctx) = (reliable(RetxMode::GoBackN), Rec::default());
        launch(&mut e, ctx.now);
        launch(&mut e, ctx.now);
        let mut on = |e: &mut LinkEnd, frame| e.on_ctrl(frame, DELAY, &mut ctx);
        // A corrupt frame is counted and never acted on.
        let mut bad = ctrl(CtrlMsg::Ack { seq: 2, sack: 0 });
        bad.corrupt();
        assert_eq!(on(&mut e, bad), CtrlOutcome::Done);
        let p = e.snapshot(None).expect("labeled port");
        assert_eq!((p.ctrl_discards, p.unacked), (1, 2));
        let ack = ctrl(CtrlMsg::Ack { seq: 1, sack: 0 });
        assert_eq!(on(&mut e, ack), CtrlOutcome::Acked);
        assert_eq!(e.tx().unacked(), 1);
        let nack = ctrl(CtrlMsg::Nack {
            expected: 2,
            sack: 0,
        });
        assert_eq!(on(&mut e, nack), CtrlOutcome::Retransmit);
        assert!(e.tx().has_retx_pending());
        // A resync reply with no probe outstanding completes nothing.
        let stray = ctrl(CtrlMsg::SyncAck {
            token: 9,
            drained: 0,
        });
        assert_eq!(on(&mut e, stray), CtrlOutcome::SyncAck(None));
        let keepalive = ctrl(CtrlMsg::Keepalive);
        assert_eq!(on(&mut e, keepalive), CtrlOutcome::Done);
        assert_eq!(
            on(&mut e, ctrl(CtrlMsg::NoticeAck { id: 4 })),
            CtrlOutcome::NoticeAck(4)
        );
        assert!(ctx.sent.is_empty(), "only a probe or a notice is answered");
        let notice = Rc::new(Notice {
            id: 4,
            version: 2,
            unreachable: vec![1],
        });
        let outcome = CtrlOutcome::Notice(notice.clone());
        assert_eq!(
            e.on_ctrl(ctrl(CtrlMsg::Notice(notice)), DELAY, &mut ctx),
            outcome
        );
        assert_eq!(ctx.ctrl(), [CtrlMsg::NoticeAck { id: 4 }]);
    }

    /// A tick sends a keepalive only on a port that launched nothing
    /// since the previous tick; the keepalive itself counts as a launch
    /// only until the next tick has looked.
    #[test]
    fn keepalives_go_only_on_ports_idle_for_a_whole_period() {
        let (mut e, mut ctx) = (reliable(RetxMode::GoBackN), Rec::default());
        let mut beacons = None;
        let params = crate::DetectParams::default();
        let b = crate::Beacons::<()>::start(
            &mut beacons,
            &params,
            &std::rc::Rc::new(std::cell::Cell::new(true)),
        )
        .unwrap();
        let mut tick = |e: &mut LinkEnd, ctx: &mut Rec| b.keep_alive(0, e, DELAY, ctx);
        assert!(!tick(&mut e, &mut ctx), "the first tick only looks");
        assert!(tick(&mut e, &mut ctx));
        assert_eq!(ctx.ctrl(), [CtrlMsg::Keepalive]);
        assert!(tick(&mut e, &mut ctx), "an idle link gets one per period");
        assert_eq!(ctx.ctrl(), [CtrlMsg::Keepalive]);
        e.frame_fate(ctx.now, &mut frame(1), true);
        assert!(!tick(&mut e, &mut ctx), "a launch stands in for it");
        assert!(tick(&mut e, &mut ctx));
    }

    #[test]
    fn a_resync_probe_is_answered_from_the_monotone_drain_count() {
        let (mut e, mut ctx) = (reliable(RetxMode::GoBackN), Rec::default());
        e.receive(frame(1), DELAY, &mut ctx);
        e.receive(frame(2), DELAY, &mut ctx);
        ctx.sent.clear();
        e.drain(&ctx);
        e.drain(&ctx);
        for _ in 0..2 {
            let probe = ctrl(CtrlMsg::SyncReq { token: 5 });
            assert_eq!(e.on_ctrl(probe, DELAY, &mut ctx), CtrlOutcome::Done);
            let reply = CtrlMsg::SyncAck {
                token: 5,
                drained: 2,
            };
            assert_eq!(ctx.ctrl(), [reply], "a retried probe gets the same count");
        }
    }

    #[test]
    fn a_reset_reseats_the_receive_sequence() {
        let (mut e, mut ctx) = (reliable(RetxMode::Sack), Rec::default());
        e.receive(frame(1), DELAY, &mut ctx);
        e.receive(frame(3), DELAY, &mut ctx);
        e.drain(&ctx);
        let reset = ctrl(CtrlMsg::Reset { next: 10 });
        assert_eq!(e.on_ctrl(reset, DELAY, &mut ctx), CtrlOutcome::Done);
        let rx = e.rx.as_deref().expect("reliable end");
        assert_eq!((rx.reorder_depth(), rx.drained()), (0, 0));
        ctx.sent.clear();
        // Pre-epoch frames are duplicates; the new epoch flows in order.
        let arrival = e.receive(frame(2), DELAY, &mut ctx);
        assert_eq!(arrival, Arrival::Dropped(frame(2)));
        assert_eq!(ctx.ctrl(), [CtrlMsg::Ack { seq: 9, sack: 0 }]);
        let arrival = e.receive(frame(10), DELAY, &mut ctx);
        assert_eq!(arrival, Arrival::Deliver(frame(10), Vec::new()));
    }

    #[test]
    fn a_resync_timer_probes_and_the_reply_completes_the_handshake() {
        let (mut e, mut ctx) = (reliable(RetxMode::GoBackN), Rec::default());
        launch(&mut e, ctx.now);
        let ack = ctrl(CtrlMsg::Ack { seq: 1, sack: 0 });
        e.on_ctrl(ack, DELAY, &mut ctx);
        // Nothing unacked, but the frame's credit never came back.
        let (delay, gen) = e.tx_mut().poll_timer(ctx.now).expect("probe timer");
        ctx.now += delay;
        let TimerAction::Resync { token } = e.on_timer(gen, DELAY, &mut ctx) else {
            panic!("a starved port probes");
        };
        assert_eq!(ctx.ctrl(), [CtrlMsg::SyncReq { token }]);
        let reply = ctrl(CtrlMsg::SyncAck { token, drained: 1 });
        let outcome = e.on_ctrl(reply, DELAY, &mut ctx);
        assert_eq!(outcome, CtrlOutcome::SyncAck(Some(token)));
        assert_eq!(e.tx().credits(), 8);
    }

    #[test]
    fn a_link_dies_on_a_nack_or_a_timer_past_its_retry_budget() {
        let params = RelParams {
            max_retries: 1,
            ..RelParams::default()
        };
        let dead = LinkError::RetryExhausted {
            retries: 1,
            stranded: 1,
        };
        let timing = TimingConfig::telegraphos_i();
        let resend = |e: &mut LinkEnd| {
            let tx = e.tx_mut();
            let p = tx.take_retx().expect("retransmission");
            tx.relaunch(&p, &timing);
            tx.on_free();
        };
        // On NACKs: the first asks for a retransmission, the second
        // exhausts the budget.
        let (mut e, mut ctx) = (end(Some(params)), Rec::default());
        launch(&mut e, ctx.now);
        let nack = || {
            ctrl(CtrlMsg::Nack {
                expected: 1,
                sack: 0,
            })
        };
        assert_eq!(e.on_ctrl(nack(), DELAY, &mut ctx), CtrlOutcome::Retransmit);
        resend(&mut e);
        assert_eq!(e.on_ctrl(nack(), DELAY, &mut ctx), CtrlOutcome::Dead(dead));
        assert!(e.tx().is_dead());
        // On timers, the same.
        let (mut e, mut ctx) = (end(Some(params)), Rec::default());
        launch(&mut e, ctx.now);
        let mut fire = |e: &mut LinkEnd| {
            let (delay, gen) = e.tx_mut().poll_timer(ctx.now).expect("armed");
            ctx.now += delay;
            e.on_timer(gen, DELAY, &mut ctx)
        };
        assert_eq!(fire(&mut e), TimerAction::Retransmit);
        resend(&mut e);
        assert_eq!(fire(&mut e), TimerAction::Dead(dead));
        assert!(ctx.sent.is_empty());
    }

    #[test]
    fn the_injector_decides_control_frames_and_credits() {
        let plan = FaultPlan::new(1).ctrl_drop(1.0).credit_loss(1.0);
        let injector = FaultInjector::new(plan);
        let (mut e, mut ctx) = (reliable(RetxMode::GoBackN), Rec::default());
        e.set_injector(injector.clone());
        let arrival = e.receive(frame(1), DELAY, &mut ctx);
        assert_eq!(arrival, Arrival::Deliver(frame(1), Vec::new()));
        assert_eq!(e.drain(&ctx), None);
        assert!(ctx.sent.is_empty(), "the ack was dropped");
        let stats = injector.stats();
        assert_eq!((stats.ctrl_drops, stats.credits_lost), (1, 1));
        assert_eq!(
            e.rx.as_deref().map(LinkRx::drained),
            Some(1),
            "a lost credit still drains"
        );
    }

    #[test]
    fn one_extra_ack_changes_the_wire_log() {
        let run = |extra: bool| {
            let (mut e, mut ctx) = (reliable(RetxMode::GoBackN), Rec::default());
            e.receive(frame(1), DELAY, &mut ctx);
            if extra {
                e.send_ctrl(CtrlMsg::Ack { seq: 1, sack: 0 }, DELAY, &mut ctx);
            }
            ctx.now += DELAY;
            e.drain(&ctx);
            e.snapshot(None).expect("labeled port").wire
        };
        assert_eq!(run(false), run(false));
        assert_ne!(run(false), run(true));
        // Logged at launch: a frame the injector loses still counts.
        let lost = {
            let (mut e, mut ctx) = (reliable(RetxMode::GoBackN), Rec::default());
            e.set_injector(FaultInjector::new(FaultPlan::new(1).ctrl_drop(1.0)));
            e.receive(frame(1), DELAY, &mut ctx);
            assert!(ctx.sent.is_empty(), "the ack was dropped");
            ctx.now += DELAY;
            e.drain(&ctx);
            e.snapshot(None).expect("labeled port").wire
        };
        assert_eq!(lost, run(false));
    }

    #[test]
    fn the_snapshot_reads_both_halves_and_joins_with_the_far_end() {
        let (mut e, mut ctx) = (reliable(RetxMode::Sack), Rec::default());
        assert!(end(None).snapshot(None).unwrap().stalled(false).is_none());
        launch(&mut e, ctx.now);
        // Frame 2 parks behind the gap at 1; a corrupt ack is discarded.
        e.receive(frame(2), DELAY, &mut ctx);
        let mut bad = ctrl(CtrlMsg::Ack { seq: 1, sack: 0 });
        bad.corrupt();
        e.on_ctrl(bad, DELAY, &mut ctx);
        let mut fifo = RxFifo::new(4);
        fifo.push(frame(7)).unwrap();
        let p = e.snapshot(Some(&fifo)).expect("labeled port");
        assert_eq!(
            (p.tx_packets, p.unacked, p.credits, p.allowance),
            (1, 1, 7, 8)
        );
        assert_eq!(
            (p.rx_fifo_depth, p.reorder_depth, p.ctrl_discards),
            (1, 1, 1)
        );
        assert!(p.balanced(), "the unacked frame holds the spent credit");
        // One stall rule: an unacked frame holds the link, whoever owns it.
        let stalled = p.stalled(false).expect("an unacked frame stalls");
        assert_eq!(
            (stalled.link, stalled.stranded, stalled.credits),
            (p.link, 1, 7)
        );
        // The directed link keeps this end's transmit half and takes the
        // receive half read at the far end.
        let far = end(None).snapshot(None).unwrap();
        let link = p.joined(&far);
        assert_eq!((link.link, link.tx_packets, link.unacked), (p.link, 1, 1));
        assert_eq!(
            (link.rx_fifo_depth, link.reorder_depth, link.ctrl_discards),
            (0, 0, 0)
        );
    }
}
