//! Test endpoints for standalone network experiments.
//!
//! These components speak raw [`NetEvent`]s: a [`SourceSink`] injects a
//! scripted list of packets into the fabric (respecting credit flow
//! control) and records everything it receives, with timestamps. The
//! crate's integration and property tests — and the network micro-benches —
//! are built from them. The endpoint drives its link through the same
//! [`LinkEnd`] as the switches and the HIB, so when its transmit port was
//! enrolled in the link-level reliability protocol (see
//! [`build_network_with`](crate::build_network_with)), fault-injection
//! tests exercise the shared recovery path end to end.

use std::collections::VecDeque;

use tg_sim::{Component, Ctx, SimTime};
use tg_wire::{NodeId, Packet, TimingConfig, WireMsg};

use crate::end::{Arrival, CtrlOutcome, LinkEnd, PortSnapshot};
use crate::event::NetEvent;
use crate::fault::{FaultInjector, FrameFate};
use crate::link::LinkError;
use crate::port::{TimerAction, TxPort};

/// A packet receipt recorded by a [`SourceSink`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Receipt {
    /// When the packet arrived.
    pub at: SimTime,
    /// The packet.
    pub packet: Packet,
}

/// A scriptable endpoint: injects queued packets as fast as flow control
/// allows and sinks arrivals (consuming each after a fixed delay, then
/// returning the credit).
#[derive(Debug)]
pub struct SourceSink {
    name: String,
    node: NodeId,
    /// The endpoint's one link end, once wired.
    link: Option<LinkEnd>,
    timing: TimingConfig,
    consume_delay: SimTime,
    pending: VecDeque<Packet>,
    next_seq: u64,
    /// Everything received, in arrival order.
    pub received: Vec<Receipt>,
    /// When each injected packet left the endpoint (issue completion).
    pub injected_at: Vec<SimTime>,
    errors: Vec<LinkError>,
}

impl SourceSink {
    /// Creates an endpoint for cluster node `node`.
    pub fn new(node: NodeId, timing: TimingConfig) -> Self {
        SourceSink {
            name: format!("endpoint{}", node.raw()),
            node,
            link: None,
            timing,
            consume_delay: SimTime::from_ns(100),
            pending: VecDeque::new(),
            next_seq: 0,
            received: Vec::new(),
            injected_at: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Wires the endpoint after [`build_network_with`](crate::build_network_with).
    /// A reliability-enrolled transmit port implies the receiver half on
    /// the input link. Credits and control frames go back to the transmit
    /// port's own neighbor, which `rx_upstream` must name (it is checked
    /// in debug builds).
    pub fn wire(&mut self, tx: TxPort, rx_upstream: (tg_sim::CompId, u32)) {
        debug_assert_eq!(rx_upstream, (tx.neighbor(), tx.neighbor_port()));
        self.link = Some(LinkEnd::new(tx));
    }

    /// Installs the fault injector consulted when this endpoint launches
    /// frames, sends control frames and returns credits.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint is not wired yet.
    pub fn set_injector(&mut self, injector: FaultInjector) {
        self.link
            .as_mut()
            .expect("wire the endpoint first")
            .set_injector(injector);
    }

    /// Sets how long the sink takes to consume each arrival before
    /// returning its credit.
    pub fn set_consume_delay(&mut self, d: SimTime) {
        self.consume_delay = d;
    }

    /// Queues a message for `dst`; it is injected when flow control allows.
    pub fn enqueue(&mut self, dst: NodeId, msg: WireMsg) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending
            .push_back(Packet::new(self.node, dst, msg, seq));
    }

    /// Link errors observed by this endpoint (duplicate credits, dead
    /// link declarations).
    pub fn link_errors(&self) -> &[LinkError] {
        &self.errors
    }

    /// Frames retransmitted by this endpoint.
    pub fn retransmits(&self) -> u64 {
        self.port_snapshot().map_or(0, |p| p.retransmits)
    }

    /// The read-out of this endpoint's port, once wired. The sink
    /// consumes arrivals at once, so its receive half has no FIFO.
    pub fn port_snapshot(&self) -> Option<PortSnapshot> {
        self.link.as_ref()?.snapshot(None)
    }

    /// Launches `packet` (fresh or retransmission), consulting the fault
    /// injector for its fate.
    fn dispatch(&mut self, mut packet: Packet, fresh: bool, ctx: &mut Ctx<'_, NetEvent>) {
        let now = ctx.now();
        let end = self.link.as_mut().expect("wired endpoint");
        let tx = end.tx_mut();
        let times = if fresh {
            tx.launch(&packet, &self.timing)
        } else {
            tx.relaunch(&packet, &self.timing)
        };
        let (nbr, nbr_port) = (tx.neighbor(), tx.neighbor_port());
        ctx.send_self(times.free, NetEvent::PumpOut { port: 0 });
        if fresh {
            self.injected_at.push(now + times.free);
        }
        if end.frame_fate(now, &mut packet, fresh) == FrameFate::Drop {
            return;
        }
        ctx.send(
            nbr,
            times.arrival,
            NetEvent::Arrive {
                port: nbr_port,
                packet,
            },
        );
    }

    fn pump(&mut self, ctx: &mut Ctx<'_, NetEvent>) {
        loop {
            let Some(tx) = self.link.as_mut().map(LinkEnd::tx_mut) else {
                return;
            };
            if tx.has_retx_pending() {
                if !tx.wire_free() {
                    break;
                }
                let packet = tx.take_retx().expect("retx pending on a free wire");
                self.dispatch(packet, false, ctx);
                continue;
            }
            if self.pending.is_empty() {
                break;
            }
            if !tx.can_send_new() {
                tx.note_blocked(ctx.now());
                break;
            }
            let mut packet = self.pending.pop_front().expect("checked non-empty");
            if tx.is_reliable() {
                packet = tx.frame(packet, ctx.now());
            }
            self.dispatch(packet, true, ctx);
        }
        self.arm_timer(ctx);
    }

    /// Arms the link-recovery timer when one is needed and none is armed.
    fn arm_timer(&mut self, ctx: &mut Ctx<'_, NetEvent>) {
        if let Some(end) = self.link.as_mut() {
            if let Some((delay, gen)) = end.tx_mut().poll_timer(ctx.now()) {
                ctx.send_self(delay, NetEvent::RetxTimer { port: 0, gen });
            }
        }
    }

    /// Sinks one accepted arrival: record the receipt, then count the
    /// drain and start the credit on its way back, unless the injector
    /// loses it.
    fn consume(&mut self, packet: Packet, ctx: &mut Ctx<'_, NetEvent>) {
        self.received.push(Receipt {
            at: ctx.now(),
            packet,
        });
        let end = self.link.as_mut().expect("wired endpoint");
        if let Some((up, credit)) = end.drain(ctx) {
            ctx.send(up, self.consume_delay + self.timing.link_prop, credit);
        }
    }
}

impl Component<NetEvent> for SourceSink {
    fn on_event(&mut self, ev: NetEvent, ctx: &mut Ctx<'_, NetEvent>) {
        let prop = self.timing.link_prop;
        let Some(end) = self.link.as_mut() else {
            return;
        };
        match ev {
            NetEvent::Arrive { packet, .. } => {
                // The sink consumes at once, in sequence order; the drain
                // counter feeds resync.
                if let Arrival::Deliver(packet, released) = end.receive(packet, prop, ctx) {
                    self.consume(packet, ctx);
                    for p in released {
                        self.consume(p, ctx);
                    }
                }
            }
            NetEvent::Credit { .. } => {
                if let Err(err) = end.tx_mut().on_credit_at(ctx.now()) {
                    self.errors.push(err);
                }
                self.pump(ctx);
            }
            NetEvent::PumpOut { .. } => {
                end.tx_mut().on_free();
                self.pump(ctx);
            }
            NetEvent::Ctrl { frame, .. } => {
                // The resync reply travels with the same latency as credit
                // returns, so it can never overtake a credit already in
                // flight (which the drain count includes).
                match end.on_ctrl(frame, self.consume_delay + prop, ctx) {
                    CtrlOutcome::Dead(err) => self.errors.push(err),
                    CtrlOutcome::Acked | CtrlOutcome::Retransmit | CtrlOutcome::SyncAck(_) => {}
                    // Test endpoints run no failure detector: verdict
                    // notices are acknowledged and sunk.
                    CtrlOutcome::Done | CtrlOutcome::Notice(_) | CtrlOutcome::NoticeAck(_) => {
                        return
                    }
                }
                self.pump(ctx);
            }
            NetEvent::RetxTimer { gen, .. } => {
                match end.on_timer(gen, prop, ctx) {
                    TimerAction::Retransmit => self.pump(ctx),
                    TimerAction::Dead(err) => self.errors.push(err),
                    TimerAction::Resync { .. } | TimerAction::Stale | TimerAction::Idle => {}
                }
                self.arm_timer(ctx);
            }
            NetEvent::Beacon { .. } => {
                panic!("{}: endpoints run no liveness ticks", self.name)
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Kicks an endpoint's injection pump: schedule this once after enqueueing.
/// (Any credit-shaped event wakes the pump; this sends a zero-cost one.)
pub fn kick(engine: &mut tg_sim::Engine<NetEvent>, endpoint: tg_sim::CompId) {
    // A PumpOut on an idle port is a no-op apart from running the pump.
    engine.schedule(SimTime::ZERO, endpoint, NetEvent::PumpOut { port: 0 });
}
