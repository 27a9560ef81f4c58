//! The Host Interface Board state machine.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use tg_mem::{Decoded, PAddr};
use tg_net::{
    Arrival, Beacons, CtrlOutcome, DetectParams, FaultInjector, FrameFate, LinkEnd, LinkError,
    Liveness, NetEvent, PortSnapshot, RxFifo, TimerAction, TxPort,
};
use tg_proto::PendingCam;
use tg_sim::SimTime;
use tg_wire::trace::{Site, Stage, TraceCollector, TraceId, Tracer};
use tg_wire::{
    AtomicOp, CtrlFrame, CtrlMsg, GOffset, IntMap, NodeId, Packet, PageNum, PayloadPool,
    TimingConfig, WireMsg,
};

use crate::config::{HibConfig, LaunchMode, LocalWritePolicy};
use crate::host::{
    CounterKind, CpuResult, HibFault, HibHost, HibInterrupt, HibTick, LoadOutcome, OpError,
    StoreOutcome,
};

/// Recently-seen request tags remembered per source for idempotent
/// re-send deduplication. Re-sends arrive well within this window: a
/// source has at most `tx_queue_depth` (64) requests in flight toward one
/// destination.
const DEDUPE_WINDOW: usize = 128;
use crate::pagemode::{PageMode, SharedMap};
use crate::regs::{decode_ctx_reg, opcode, reg, ShadowArg};

/// Operation counters exported for the experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HibStats {
    /// Remote writes issued by the local CPU.
    pub remote_writes: u64,
    /// Remote (blocking) reads issued.
    pub remote_reads: u64,
    /// Remote atomic operations launched.
    pub atomics: u64,
    /// Remote copies launched.
    pub copies: u64,
    /// Reflected writes received.
    pub reflections_rx: u64,
    /// Reflected writes ignored under rule 3 (counter non-zero).
    pub reflections_filtered: u64,
    /// Own reflected writes consumed under rule 2.
    pub reflections_own: u64,
    /// Multicast/reflected packets fanned out by this board.
    pub fanout_tx: u64,
    /// Write acknowledgements received.
    pub acks_rx: u64,
    /// Packets transmitted.
    pub pkts_tx: u64,
    /// CPU stalls because the TX queue was full.
    pub tx_stalls: u64,
    /// Page-access alarms raised.
    pub alarms: u64,
    /// Deepest TX-queue occupancy observed.
    pub(crate) tx_high_water: usize,
    /// Received packets fully processed (committed) by the rx pipeline.
    pub committed: u64,
    /// Liveness frames this board launched: keepalives on an idle
    /// uplink and acks of verdict notices.
    pub liveness_tx: u64,
    /// Peers this board convicted.
    pub(crate) peer_downs: u64,
    /// Convicted peers this board later re-admitted.
    pub(crate) peer_ups: u64,
    /// Tagged requests failed with [`OpError::PeerUnreachable`].
    pub(crate) op_failures: u64,
    /// Completions that arrived for an operation already resolved (late
    /// acks after a failover, duplicate responses to a re-send).
    pub(crate) stale_acks: u64,
    /// OS messages refused at issue time because the destination peer was
    /// already convicted (fail-fast instead of burning the retry budget).
    pub os_sends_refused: u64,
}

/// A board's peer verdicts, kept in its liveness state.
#[derive(Debug, Default)]
struct Peers {
    /// Per node, whether this board holds it convicted: while the switch
    /// is, or while the newest verdict notice names it.
    down: Vec<bool>,
    /// Per node, whether the newest verdict notice names it.
    named: Vec<bool>,
    /// The fabric-view version of the newest notice applied.
    version: u64,
}

/// Why a store is parked at the HIB waiting to retry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StallReason {
    TxFull,
    CamFull,
    WaitReflect,
}

#[derive(Clone, Copy, Debug)]
struct StalledStore {
    pa: PAddr,
    val: u64,
    reason: StallReason,
}

#[derive(Clone, Debug)]
struct CopyInFlight {
    dst: GOffset,
}

/// Enough of a tagged request to rebuild its wire message for an
/// idempotent re-send.
#[derive(Clone, Copy, Debug)]
enum OpKind {
    Write {
        addr: GOffset,
        val: u64,
    },
    Multicast {
        addr: GOffset,
        val: u64,
    },
    Read {
        addr: GOffset,
    },
    Atomic {
        op: AtomicOp,
        addr: GOffset,
        arg0: u64,
        arg1: u64,
    },
    Copy {
        from: GOffset,
        words: u32,
    },
}

/// A tagged remote request awaiting its completion, tracked so a
/// conviction can fail it and a route change can re-send it.
#[derive(Clone, Copy, Debug)]
struct PendingOp {
    dst: NodeId,
    kind: OpKind,
}

#[derive(Clone, Copy, Debug, Default)]
struct Context {
    key: u32,
    op: u64,
    addr: [Option<PAddr>; 2],
    datum: [u64; 2],
}

#[derive(Clone, Debug)]
struct SpecialMode {
    op: u64,
    args: Vec<(PAddr, u64)>,
}

/// The Telegraphos Host Interface Board (§2.2).
///
/// A passive state machine hosted inside a workstation component: the node
/// feeds it CPU transactions ([`cpu_store`], [`cpu_load`], [`fence`]) and
/// network events ([`on_net`], [`on_tick`]), and it reacts through the
/// [`HibHost`] callbacks. See the crate docs for the full transaction map.
///
/// [`cpu_store`]: Hib::cpu_store
/// [`cpu_load`]: Hib::cpu_load
/// [`fence`]: Hib::fence
/// [`on_net`]: Hib::on_net
/// [`on_tick`]: Hib::on_tick
#[derive(Debug)]
pub struct Hib {
    node: NodeId,
    config: HibConfig,
    timing: TimingConfig,
    // Network wiring.
    /// The board's link end: its transmit port and, when reliability is
    /// on, the receive half of the protocol on the input link.
    link: Option<LinkEnd>,
    rx_fifo: RxFifo,
    tx_queue: VecDeque<Packet>,
    rx_current: Option<Packet>,
    inject_seq: u64,
    // Sharing metadata.
    shared: SharedMap,
    // Outstanding-operation state (§2.2, completion detection).
    cam: PendingCam,
    outstanding_writes: u64,
    outstanding_updates: u64,
    copies_in_flight: IntMap<u32, CopyInFlight>,
    read_pending: Option<u32>,
    launch_pending: Option<u32>,
    next_tag: u32,
    fence_waiting: bool,
    stalled_store: Option<StalledStore>,
    /// The pending `TxFree` was sent deferrable: only then can one be
    /// deferred.
    lazy_free: bool,
    /// Set when a deferred `TxFree`, credit or ack may have stopped being
    /// absorbable: work arrived while `lazy_free` (a packet queued, a
    /// store parked, a fence armed), a credit stall opened, a
    /// retransmission became pending, the link died or revived, or a
    /// resync reset the credits. Taken by the owner with
    /// [`Hib::take_recheck`].
    recheck: bool,
    // Special-operation launch.
    special: Option<SpecialMode>,
    contexts: Vec<Context>,
    /// Freelist for outgoing `CopyData`/`PageData` burst buffers; consumed
    /// incoming bursts are recycled here too, so a node in a symmetric
    /// copy exchange stops allocating once warm.
    pool: PayloadPool,
    stats: HibStats,
    /// Trace handle; `None` (the default) costs one branch per hook.
    tracer: Option<Tracer>,
    /// Trace id of the packet currently being processed in `handle_rx`;
    /// packets enqueued while set are responses and get it as parent.
    rx_handling: Option<TraceId>,
    /// Trace id of the most recently injected packet, for the host to
    /// attribute to the CPU operation that caused it.
    last_injected: Option<TraceId>,
    /// Structured link errors observed (also surfaced as interrupts).
    link_errors: Vec<LinkError>,
    /// Watchdog progress meter, ticked on every packet commit.
    meter: Option<tg_sim::ProgressMeter>,
    /// Tagged remote requests in flight, for verdict-driven recovery.
    pending_ops: BTreeMap<u32, PendingOp>,
    /// Tags of pending requests a route change re-sends that the TX
    /// queue had no room for yet; `TxFree` sends them as room frees.
    resends: VecDeque<u32>,
    /// Liveness state once heartbeats start: the detector watches the
    /// switch across the uplink (key 0), the Heartbeat tick sends a
    /// keepalive when the uplink was idle for a period, and the state
    /// holds the peers' verdicts. The tick rearms while it has a period;
    /// absent by default so fault-free runs stay beacon-free and drain.
    beacons: Option<Box<Beacons<Peers>>>,
    /// Word keys of coherent updates awaiting their reflection, per owner:
    /// released one-by-one by rule-2 reflections, or wholesale when the
    /// owner is declared dead.
    updates_to: BTreeMap<u16, Vec<u64>>,
    /// Last atomic served per requester `(tag, old)`: a retried atomic is
    /// answered from here instead of being re-applied (idempotence).
    atomic_served: IntMap<u16, (u32, u64)>,
    /// Recently applied write/multicast tags per source, so a retried
    /// write is acked but not re-applied.
    writes_seen: IntMap<u16, VecDeque<u32>>,
}

impl Hib {
    /// Creates a board for `node`.
    pub fn new(node: NodeId, config: HibConfig, timing: TimingConfig) -> Self {
        let contexts = vec![Context::default(); config.contexts];
        let cam = PendingCam::new(config.cam_entries.max(1));
        Hib {
            node,
            config,
            timing,
            link: None,
            rx_fifo: RxFifo::new(8),
            tx_queue: VecDeque::new(),
            rx_current: None,
            inject_seq: 0,
            shared: SharedMap::new(),
            cam,
            outstanding_writes: 0,
            outstanding_updates: 0,
            copies_in_flight: IntMap::default(),
            read_pending: None,
            launch_pending: None,
            next_tag: 1,
            fence_waiting: false,
            stalled_store: None,
            lazy_free: false,
            recheck: false,
            special: None,
            contexts,
            pool: PayloadPool::new(),
            stats: HibStats::default(),
            tracer: None,
            rx_handling: None,
            last_injected: None,
            link_errors: Vec::new(),
            meter: None,
            pending_ops: BTreeMap::new(),
            resends: VecDeque::new(),
            beacons: None,
            updates_to: BTreeMap::new(),
            atomic_served: IntMap::default(),
            writes_seen: IntMap::default(),
        }
    }

    /// Records this board's packet-lifecycle events into `log`, stamped
    /// with its node as the [`Site`].
    pub fn set_tracer(&mut self, log: &TraceCollector) {
        self.tracer = Some(log.tracer(Site::Node(self.node)));
    }

    /// Trace id of the most recently injected packet, consumed by the host
    /// to attribute an injection to the CPU operation that caused it.
    pub fn take_last_injected(&mut self) -> Option<TraceId> {
        self.last_injected.take()
    }

    /// Packets queued behind the transmit port.
    pub fn tx_queue_depth(&self) -> usize {
        self.tx_queue.len()
    }

    fn emit(&self, now: SimTime, packet: &Packet, stage: Stage, parent: Option<TraceId>) {
        if let Some(tracer) = &self.tracer {
            tracer.stage(now, packet, stage, parent);
        }
    }

    /// Wires the board to the fabric (from `tg-net`'s builder output). A
    /// reliability-enrolled transmit port implies the receiver half of the
    /// protocol on the input link; credits and control frames go back to
    /// the transmit port's neighbor.
    pub fn wire(&mut self, tx: TxPort, rx_capacity: u32) {
        self.link = Some(LinkEnd::new(tx));
        self.rx_fifo = RxFifo::new(rx_capacity);
    }

    #[inline]
    fn tx(&self) -> Option<&TxPort> {
        self.link.as_ref().map(LinkEnd::tx)
    }

    #[inline]
    fn tx_mut(&mut self) -> Option<&mut TxPort> {
        self.link.as_mut().map(LinkEnd::tx_mut)
    }

    /// Starts liveness at `now` for a cluster of `peers` (everyone, this
    /// board included), with the tick period and suspicion thresholds of
    /// `params` (which the caller has validated); the caller runs the
    /// link reliably. The board then watches its switch and convicts the
    /// others as the switch's verdict notices name them. Returns `true`
    /// when it started: the caller must then route a
    /// [`HibTick::Heartbeat`] into [`on_tick`], and the tick self-rearms
    /// every `heartbeat_every` while `on` is set. Returns `false`, and
    /// changes nothing, while beacons already run.
    ///
    /// [`on_tick`]: Hib::on_tick
    pub fn prime_heartbeats(
        &mut self,
        peers: &[NodeId],
        now: SimTime,
        params: &DetectParams,
        on: &Rc<Cell<bool>>,
    ) -> bool {
        let Some(beacons) = Beacons::start(&mut self.beacons, params, on) else {
            return false;
        };
        beacons.detector.track(0, now);
        let nodes = peers.iter().chain([&self.node]).map(|p| p.index() + 1);
        let nodes = nodes.max().unwrap_or(0);
        beacons.state.down.resize(nodes, false);
        beacons.state.named.resize(nodes, false);
        true
    }

    /// The tick period while liveness runs.
    fn beacon_every(&self) -> Option<SimTime> {
        self.beacons.as_ref().and_then(|b| b.every())
    }

    /// True while this board holds `peer` convicted.
    pub fn peer_down(&self, peer: NodeId) -> bool {
        self.beacons
            .as_ref()
            .is_some_and(|b| b.state.down.get(peer.index()) == Some(&true))
    }

    /// Installs the fault injector consulted when this board launches
    /// frames, sends control frames or returns credits.
    ///
    /// # Panics
    ///
    /// Panics if the board is not wired yet.
    pub fn set_injector(&mut self, injector: FaultInjector) {
        self.link
            .as_mut()
            .expect("wire the board first")
            .set_injector(injector);
    }

    /// Installs a watchdog progress meter, ticked on every committed
    /// packet — the fabric-side signal that work is still flowing.
    pub fn set_progress_meter(&mut self, meter: tg_sim::ProgressMeter) {
        self.meter = Some(meter);
    }

    /// Structured link errors observed so far.
    pub fn link_errors(&self) -> &[LinkError] {
        &self.link_errors
    }

    /// The read-out of this board's port: the transmit side of its
    /// uplink and the receive side of the reverse hop, with its receive
    /// FIFO. `None` until the board is wired.
    pub fn port_snapshot(&self) -> Option<PortSnapshot> {
        self.link.as_ref()?.snapshot(Some(&self.rx_fifo))
    }

    /// Operation counters.
    pub fn stats(&self) -> HibStats {
        self.stats
    }

    /// The pending-write CAM (stall/occupancy statistics for E7).
    pub fn cam(&self) -> &PendingCam {
        &self.cam
    }

    /// The sharing-metadata table (privileged driver access).
    pub fn shared_map(&mut self) -> &mut SharedMap {
        &mut self.shared
    }

    /// Installs the authentication key of a Telegraphos context
    /// (privileged; done by the OS when handing a context to a process).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn install_context_key(&mut self, ctx: usize, key: u32) {
        self.contexts[ctx].key = key;
    }

    /// True when every outstanding remote operation has completed — the
    /// FENCE condition of §2.3.5.
    pub fn quiescent(&self) -> bool {
        self.tx_queue.is_empty()
            && self.tx().is_none_or(TxPort::wire_free)
            && self.outstanding_writes == 0
            && self.outstanding_updates == 0
            && self.copies_in_flight.is_empty()
            && self.read_pending.is_none()
            && self.launch_pending.is_none()
    }

    // ------------------------------------------------------------------
    // CPU side
    // ------------------------------------------------------------------

    /// Presents a CPU store that decoded to HIB-visible space.
    pub fn cpu_store(&mut self, pa: PAddr, val: u64, host: &mut dyn HibHost) -> StoreOutcome {
        if pa.is_shadow() {
            return self.shadow_store(pa, val);
        }
        if let Some(special) = self.special.as_mut() {
            if matches!(
                pa.decode(),
                Decoded::Remote { .. } | Decoded::LocalShared { .. }
            ) {
                // Telegraphos I special mode: shared-space stores are
                // latched as operands, not performed (§2.2.4).
                special.args.push((pa, val));
                return StoreOutcome::Done;
            }
        }
        match pa.decode() {
            Decoded::Remote { node, off } => self.store_remote(node, off, val, host),
            Decoded::LocalShared { off } => self.store_local_shared(off, val, host),
            Decoded::HibReg { reg: r } => self.store_reg(r, val),
            Decoded::Private { .. } => {
                unreachable!("private stores never reach the HIB")
            }
        }
    }

    /// Presents a CPU load that decoded to HIB-visible space.
    pub fn cpu_load(&mut self, pa: PAddr, host: &mut dyn HibHost) -> LoadOutcome {
        match pa.unshadow().decode() {
            Decoded::Remote { node, off } => self.load_remote(node, off, host),
            Decoded::LocalShared { off } => {
                if !self.in_segment(off) {
                    return LoadOutcome::Fault(HibFault::OutOfSegment);
                }
                LoadOutcome::Ready(host.segment().read(off))
            }
            Decoded::HibReg { reg: r } => self.load_reg(r, host),
            Decoded::Private { .. } => {
                unreachable!("private loads never reach the HIB")
            }
        }
    }

    /// CPU fence (§2.3.5): returns `true` if already complete; otherwise
    /// the HIB will deliver [`CpuResult::FenceDone`] when the outstanding
    /// counters drain.
    pub fn fence(&mut self) -> bool {
        if self.quiescent() {
            true
        } else {
            self.fence_waiting = true;
            self.recheck |= self.lazy_free;
            false
        }
    }

    /// Parks a store the CPU must retry once the HIB has room.
    fn park(&mut self, store: StalledStore) {
        self.stalled_store = Some(store);
        self.recheck |= self.lazy_free;
    }

    fn store_remote(
        &mut self,
        node: NodeId,
        off: GOffset,
        val: u64,
        host: &mut dyn HibHost,
    ) -> StoreOutcome {
        if node == self.node {
            // The window decodes back to ourselves: treat as local shared.
            return self.store_local_shared(off, val, host);
        }
        if self.peer_down(node) {
            // Fail fast: posted writes to a convicted peer resolve as a
            // recorded structured error instead of burning retries.
            return self.fail_posted();
        }
        if !self.tx_has_room(1) {
            self.stats.tx_stalls += 1;
            self.park(StalledStore {
                pa: PAddr::remote(node, off),
                val,
                reason: StallReason::TxFull,
            });
            return StoreOutcome::Stalled;
        }
        self.count_page_access(node, off.page(), CounterKind::Write, host);
        self.stats.remote_writes += 1;
        self.outstanding_writes += 1;
        let tag = self.alloc_tag();
        self.register_op(tag, node, OpKind::Write { addr: off, val });
        self.enqueue(
            node,
            WireMsg::WriteReq {
                addr: off,
                val,
                tag,
            },
            host,
        );
        StoreOutcome::Done
    }

    /// Resolves a posted (non-blocking) operation to a convicted peer: the
    /// failure is counted, the CPU proceeds — posted semantics never stall
    /// on a dead destination.
    fn fail_posted(&mut self) -> StoreOutcome {
        self.stats.op_failures += 1;
        StoreOutcome::Done
    }

    fn store_local_shared(
        &mut self,
        off: GOffset,
        val: u64,
        host: &mut dyn HibHost,
    ) -> StoreOutcome {
        if !self.in_segment(off) {
            return StoreOutcome::Fault(HibFault::OutOfSegment);
        }
        match self.shared.mode(off.page()).clone() {
            PageMode::Plain => {
                host.segment().write(off, val);
                StoreOutcome::Done
            }
            PageMode::EagerMapped { outs } => {
                if !self.tx_has_room(outs.len()) {
                    self.stats.tx_stalls += 1;
                    self.park(StalledStore {
                        pa: PAddr::local_shared(off),
                        val,
                        reason: StallReason::TxFull,
                    });
                    return StoreOutcome::Stalled;
                }
                host.segment().write(off, val);
                let in_page = off.in_page();
                for (dst, dst_page) in outs {
                    if self.peer_down(dst) {
                        self.fail_posted();
                        continue;
                    }
                    self.outstanding_writes += 1;
                    self.stats.fanout_tx += 1;
                    let addr = GOffset::from_page(dst_page, in_page);
                    let tag = self.alloc_tag();
                    self.register_op(tag, dst, OpKind::Multicast { addr, val });
                    self.enqueue(dst, WireMsg::MulticastWrite { addr, val, tag }, host);
                }
                StoreOutcome::Done
            }
            PageMode::Owned { copies } => {
                if !self.tx_has_room(copies.len()) {
                    self.stats.tx_stalls += 1;
                    self.park(StalledStore {
                        pa: PAddr::local_shared(off),
                        val,
                        reason: StallReason::TxFull,
                    });
                    return StoreOutcome::Stalled;
                }
                host.segment().write(off, val);
                self.reflect_to_copies(&copies, off.in_page(), val, self.node, host);
                StoreOutcome::Done
            }
            PageMode::Replica { owner, owner_page } => {
                self.store_replica(off, val, owner, owner_page, host)
            }
        }
    }

    fn store_replica(
        &mut self,
        off: GOffset,
        val: u64,
        owner: NodeId,
        owner_page: PageNum,
        host: &mut dyn HibHost,
    ) -> StoreOutcome {
        if self.peer_down(owner) {
            // The serializing owner is dead: apply locally so the store is
            // at least visible here, record the structured error. Ownership
            // failover (the OS layer) re-homes the page.
            host.segment().write(off, val);
            return self.fail_posted();
        }
        if !self.tx_has_room(1) {
            self.stats.tx_stalls += 1;
            self.park(StalledStore {
                pa: PAddr::local_shared(off),
                val,
                reason: StallReason::TxFull,
            });
            return StoreOutcome::Stalled;
        }
        let owner_addr = GOffset::from_page(owner_page, off.in_page());
        match self.config.local_write_policy {
            LocalWritePolicy::CountFiltered => {
                // §2.3.3 rule 1: update the local copy, bump the counter,
                // send the value to the owner.
                if !self.cam.try_increment(off.word_index()) {
                    self.park(StalledStore {
                        pa: PAddr::local_shared(off),
                        val,
                        reason: StallReason::CamFull,
                    });
                    return StoreOutcome::Stalled;
                }
                host.segment().write(off, val);
                self.outstanding_updates += 1;
                self.updates_to
                    .entry(owner.raw())
                    .or_default()
                    .push(off.word_index());
                self.enqueue(
                    owner,
                    WireMsg::UpdateToOwner {
                        addr: owner_addr,
                        val,
                        writer: self.node,
                    },
                    host,
                );
                StoreOutcome::Done
            }
            LocalWritePolicy::StallUntilReflected => {
                // The rejected §2.3.2 alternative: do not touch the local
                // copy; hold the CPU until our reflected write applies it.
                self.outstanding_updates += 1;
                self.updates_to
                    .entry(owner.raw())
                    .or_default()
                    .push(off.word_index());
                self.enqueue(
                    owner,
                    WireMsg::UpdateToOwner {
                        addr: owner_addr,
                        val,
                        writer: self.node,
                    },
                    host,
                );
                self.park(StalledStore {
                    pa: PAddr::local_shared(off),
                    val,
                    reason: StallReason::WaitReflect,
                });
                StoreOutcome::Stalled
            }
        }
    }

    fn store_reg(&mut self, r: u64, val: u64) -> StoreOutcome {
        if r == reg::SPECIAL_MODE {
            if self.config.launch_mode != LaunchMode::SpecialModePal {
                return StoreOutcome::Fault(HibFault::BadRegister);
            }
            self.special = if val == 0 {
                None
            } else {
                Some(SpecialMode {
                    op: val,
                    args: Vec::new(),
                })
            };
            return StoreOutcome::Done;
        }
        if let Some((ctx, slot)) = decode_ctx_reg(r) {
            if self.config.launch_mode != LaunchMode::ContextShadow || ctx >= self.contexts.len() {
                return StoreOutcome::Fault(HibFault::BadRegister);
            }
            // Direct context-register stores are protected by the mapping:
            // the OS maps each context's register page only into its owner
            // process, so no key check is needed here (§2.2.4).
            match slot {
                reg::SLOT_OP => self.contexts[ctx].op = val,
                reg::SLOT_DATUM0 => self.contexts[ctx].datum[0] = val,
                reg::SLOT_DATUM1 => self.contexts[ctx].datum[1] = val,
                _ => return StoreOutcome::Fault(HibFault::BadRegister),
            }
            return StoreOutcome::Done;
        }
        StoreOutcome::Fault(HibFault::BadRegister)
    }

    fn shadow_store(&mut self, pa: PAddr, val: u64) -> StoreOutcome {
        if self.config.launch_mode != LaunchMode::ContextShadow {
            return StoreOutcome::Fault(HibFault::BadRegister);
        }
        let arg = ShadowArg::decode(val);
        let Some(ctx) = self.contexts.get_mut(arg.ctx as usize) else {
            return StoreOutcome::Fault(HibFault::BadContextKey);
        };
        if ctx.key != arg.key {
            // §2.2.5: "Only processes that know the key that corresponds to
            // a specific context can write physical addresses into it."
            return StoreOutcome::Fault(HibFault::BadContextKey);
        }
        if arg.slot > 1 {
            return StoreOutcome::Fault(HibFault::MalformedLaunch);
        }
        ctx.addr[arg.slot as usize] = Some(pa.unshadow());
        StoreOutcome::Done
    }

    fn load_remote(&mut self, node: NodeId, off: GOffset, host: &mut dyn HibHost) -> LoadOutcome {
        if node == self.node {
            if !self.in_segment(off) {
                return LoadOutcome::Fault(HibFault::OutOfSegment);
            }
            return LoadOutcome::Ready(host.segment().read(off));
        }
        if self.read_pending.is_some() {
            // Footnote ¶: "there can be no more than one outstanding read".
            return LoadOutcome::Fault(HibFault::ReadBusy);
        }
        if self.peer_down(node) {
            return self.fail_blocking(node, host);
        }
        self.count_page_access(node, off.page(), CounterKind::Read, host);
        self.stats.remote_reads += 1;
        let tag = self.alloc_tag();
        self.read_pending = Some(tag);
        self.register_op(tag, node, OpKind::Read { addr: off });
        self.enqueue(node, WireMsg::ReadReq { addr: off, tag }, host);
        LoadOutcome::Pending
    }

    /// Resolves a blocking operation addressed to a convicted peer: the
    /// CPU stalls as usual but is released immediately with the structured
    /// error instead of a value.
    fn fail_blocking(&mut self, peer: NodeId, host: &mut dyn HibHost) -> LoadOutcome {
        let err = OpError::PeerUnreachable { peer };
        self.stats.op_failures += 1;
        host.cpu_complete(SimTime::ZERO, CpuResult::OpFailed { err });
        LoadOutcome::Pending
    }

    fn load_reg(&mut self, r: u64, host: &mut dyn HibHost) -> LoadOutcome {
        if r == reg::GO {
            if self.config.launch_mode != LaunchMode::SpecialModePal {
                return LoadOutcome::Fault(HibFault::BadRegister);
            }
            let Some(sp) = self.special.take() else {
                return LoadOutcome::Fault(HibFault::MalformedLaunch);
            };
            return self.launch(sp.op, &sp.args, host);
        }
        if let Some((ctx_idx, slot)) = decode_ctx_reg(r) {
            if self.config.launch_mode != LaunchMode::ContextShadow
                || ctx_idx >= self.contexts.len()
            {
                return LoadOutcome::Fault(HibFault::BadRegister);
            }
            if slot != reg::SLOT_GO {
                return LoadOutcome::Fault(HibFault::BadRegister);
            }
            let ctx = self.contexts[ctx_idx];
            let mut args: Vec<(PAddr, u64)> = Vec::new();
            if let Some(a0) = ctx.addr[0] {
                args.push((a0, ctx.datum[0]));
                match ctx.addr[1] {
                    Some(a1) => args.push((a1, ctx.datum[1])),
                    // Single-address operations (e.g. compare-and-swap)
                    // still consume the second datum register.
                    None => args.push((a0, ctx.datum[1])),
                }
            }
            let out = self.launch(ctx.op, &args, host);
            if !matches!(out, LoadOutcome::Fault(_)) {
                // Launch consumed the context arguments.
                let c = &mut self.contexts[ctx_idx];
                c.addr = [None, None];
            }
            return out;
        }
        LoadOutcome::Fault(HibFault::BadRegister)
    }

    /// Executes a special operation with latched arguments.
    fn launch(&mut self, op: u64, args: &[(PAddr, u64)], host: &mut dyn HibHost) -> LoadOutcome {
        match op {
            opcode::FETCH_STORE | opcode::FETCH_INC | opcode::COMPARE_SWAP => {
                let Some(&(target, datum0)) = args.first() else {
                    return LoadOutcome::Fault(HibFault::MalformedLaunch);
                };
                let datum1 = args.get(1).map(|&(_, d)| d).unwrap_or(0);
                let aop = match op {
                    opcode::FETCH_STORE => AtomicOp::FetchStore,
                    opcode::FETCH_INC => AtomicOp::FetchInc,
                    _ => AtomicOp::CompareSwap,
                };
                self.stats.atomics += 1;
                match target.decode() {
                    Decoded::Remote { node, off } if node != self.node => {
                        if self.peer_down(node) {
                            return self.fail_blocking(node, host);
                        }
                        self.count_page_access(node, off.page(), CounterKind::Write, host);
                        let tag = self.alloc_tag();
                        self.launch_pending = Some(tag);
                        self.register_op(
                            tag,
                            node,
                            OpKind::Atomic {
                                op: aop,
                                addr: off,
                                arg0: datum0,
                                arg1: datum1,
                            },
                        );
                        self.enqueue(
                            node,
                            WireMsg::AtomicReq {
                                op: aop,
                                addr: off,
                                arg0: datum0,
                                arg1: datum1,
                                tag,
                            },
                            host,
                        );
                        LoadOutcome::Pending
                    }
                    Decoded::Remote { off, .. } | Decoded::LocalShared { off } => {
                        if !self.in_segment(off) {
                            return LoadOutcome::Fault(HibFault::OutOfSegment);
                        }
                        if let PageMode::Replica { owner, owner_page } =
                            self.shared.mode(off.page()).clone()
                        {
                            // Atomics on a replicated page must be
                            // serialized by its owner like any other write
                            // (§2.3.1); executing them on the local copy
                            // would break atomicity across copies.
                            if self.peer_down(owner) {
                                return self.fail_blocking(owner, host);
                            }
                            let owner_addr = GOffset::from_page(owner_page, off.in_page());
                            let tag = self.alloc_tag();
                            self.launch_pending = Some(tag);
                            self.register_op(
                                tag,
                                owner,
                                OpKind::Atomic {
                                    op: aop,
                                    addr: owner_addr,
                                    arg0: datum0,
                                    arg1: datum1,
                                },
                            );
                            self.enqueue(
                                owner,
                                WireMsg::AtomicReq {
                                    op: aop,
                                    addr: owner_addr,
                                    arg0: datum0,
                                    arg1: datum1,
                                    tag,
                                },
                                host,
                            );
                            return LoadOutcome::Pending;
                        }
                        let old = self.apply_atomic(aop, off, datum0, datum1, host);
                        LoadOutcome::Ready(old)
                    }
                    _ => LoadOutcome::Fault(HibFault::MalformedLaunch),
                }
            }
            opcode::COPY => {
                // args[0] = remote source, args[1] = local destination;
                // datum of the source argument = word count.
                let (Some(&(src, words)), Some(&(dst, _))) = (args.first(), args.get(1)) else {
                    return LoadOutcome::Fault(HibFault::MalformedLaunch);
                };
                let (Decoded::Remote { node, off }, Decoded::LocalShared { off: dst_off }) =
                    (src.decode(), dst.decode())
                else {
                    return LoadOutcome::Fault(HibFault::MalformedLaunch);
                };
                if words == 0 {
                    return LoadOutcome::Fault(HibFault::MalformedLaunch);
                }
                if self.peer_down(node) {
                    // Copies are posted (§2.2.2): record the error and
                    // return control without tracking a transfer that can
                    // never complete.
                    self.fail_posted();
                    return LoadOutcome::Ready(0);
                }
                self.count_page_access(node, off.page(), CounterKind::Read, host);
                self.stats.copies += 1;
                let tag = self.alloc_tag();
                self.copies_in_flight
                    .insert(tag, CopyInFlight { dst: dst_off });
                self.register_op(
                    tag,
                    node,
                    OpKind::Copy {
                        from: off,
                        words: words as u32,
                    },
                );
                self.enqueue(
                    node,
                    WireMsg::CopyReq {
                        from: off,
                        words: words as u32,
                        tag,
                    },
                    host,
                );
                // §2.2.2: "it returns control to the processor without
                // waiting for the completion of the operation".
                LoadOutcome::Ready(0)
            }
            _ => LoadOutcome::Fault(HibFault::MalformedLaunch),
        }
    }

    // ------------------------------------------------------------------
    // Network side
    // ------------------------------------------------------------------

    /// Handles a network event addressed to this board. The board times
    /// its own wire and recovery timers with [`HibTick`]s, so a port-free
    /// or timer event is foreign to it.
    ///
    /// # Panics
    ///
    /// Panics on [`NetEvent::PumpOut`] and [`NetEvent::RetxTimer`].
    pub fn on_net(&mut self, ev: NetEvent, host: &mut dyn HibHost) {
        let prop = self.timing.link_prop;
        if self.beacons.is_some()
            && matches!(
                ev,
                NetEvent::Arrive { .. } | NetEvent::Credit { .. } | NetEvent::Ctrl { .. }
            )
        {
            self.saw_switch(host);
        }
        match ev {
            NetEvent::Arrive { packet, .. } => {
                let Some(end) = self.link.as_mut() else {
                    return;
                };
                match end.receive(packet, prop, host) {
                    // Successors released from the reorder window follow
                    // in sequence order. Credit accounting bounds FIFO +
                    // window occupancy by the allowance, so the burst
                    // cannot overflow.
                    Arrival::Deliver(packet, released) => {
                        self.enqueue_rx(packet, host);
                        for p in released {
                            self.enqueue_rx(p, host);
                        }
                        self.pump_rx(host);
                    }
                    Arrival::Held => {}
                    Arrival::Dropped(packet) => {
                        self.emit(host.now(), &packet, Stage::Dropped, None);
                    }
                }
            }
            NetEvent::Credit { .. } => {
                let now = host.now();
                if let Some(tx) = self.tx_mut() {
                    if let Err(err) = tx.on_credit_at(now) {
                        self.record_link_error(err, host);
                    }
                }
                self.pump_tx(host);
            }
            NetEvent::Ctrl { frame, .. } => {
                let Some(end) = self.link.as_mut() else {
                    return;
                };
                match end.on_ctrl(frame, prop, host) {
                    CtrlOutcome::Done => {}
                    CtrlOutcome::Acked => self.pump_tx(host),
                    CtrlOutcome::Retransmit => {
                        self.recheck = true;
                        self.pump_tx(host);
                    }
                    CtrlOutcome::Dead(err) => {
                        self.recheck = true;
                        self.record_link_error(err, host);
                        self.pump_tx(host);
                    }
                    CtrlOutcome::SyncAck(done) => {
                        // A completed handshake reset the credits in hand.
                        self.recheck |= done.is_some();
                        if let (Some(tracer), Some(token)) = (&self.tracer, done) {
                            tracer.resync(host.now(), token);
                        }
                        self.pump_tx(host);
                    }
                    CtrlOutcome::Notice(notice) => {
                        self.stats.liveness_tx += 1;
                        self.apply_notice(notice.version, &notice.unreachable, host);
                    }
                    // A board originates no notices.
                    CtrlOutcome::NoticeAck(_) => {}
                }
            }
            NetEvent::PumpOut { .. } | NetEvent::RetxTimer { .. } | NetEvent::Beacon { .. } => {
                panic!("node {}: HIB wire and timer events are HibTicks", self.node)
            }
        }
    }

    /// Handles an internal timer scheduled through the host.
    pub fn on_tick(&mut self, tick: HibTick, host: &mut dyn HibHost) {
        match tick {
            HibTick::TxFree => {
                self.lazy_free = false;
                if let Some(tx) = self.tx_mut() {
                    tx.on_free();
                }
                self.send_resends(host);
                self.retry_stalled(host);
                self.pump_tx(host);
                self.check_fence(host);
            }
            HibTick::RxDone => {
                let packet = self.rx_current.take().expect("rx pipeline was busy");
                self.handle_rx(packet, host);
                self.return_rx_credit(host);
                self.pump_rx(host);
                self.check_fence(host);
            }
            HibTick::RetxTimer { gen } => {
                let prop = self.timing.link_prop;
                let action = match self.link.as_mut() {
                    Some(end) => end.on_timer(gen, prop, host),
                    None => TimerAction::Stale,
                };
                match action {
                    TimerAction::Retransmit => {
                        self.recheck = true;
                        self.pump_tx(host);
                    }
                    TimerAction::Resync { token } => {
                        if let Some(tracer) = &self.tracer {
                            tracer.resync(host.now(), token);
                        }
                    }
                    TimerAction::Dead(err) => {
                        self.recheck = true;
                        self.record_link_error(err, host);
                    }
                    TimerAction::Stale | TimerAction::Idle => {}
                }
                self.arm_timer(host);
            }
            HibTick::Heartbeat => {
                let Some(every) = self.beacon_every() else {
                    return;
                };
                let beacons = self.beacons.as_mut().expect("beacons run");
                let end = self.link.as_mut().expect("tx wired");
                if beacons.keep_alive(0, end, self.timing.link_prop, host) {
                    self.stats.liveness_tx += 1;
                }
                self.sweep_detector(host);
                host.schedule_tick(every, HibTick::Heartbeat);
            }
        }
    }

    // ------------------------------------------------------------------
    // Deferred delivery
    // ------------------------------------------------------------------

    /// True when `pump_tx` on a free wire would do nothing: no
    /// retransmission is pending, no packet is queued, and a port that
    /// cannot launch needs no recovery timer armed
    /// ([`TxPort::timer_settled`]). An ack, a credit or a freed wire
    /// keeps it true.
    #[inline]
    fn tx_settled(&self) -> bool {
        self.tx().is_some_and(|tx| {
            !tx.has_retx_pending()
                && self.tx_queue.is_empty()
                && (tx.can_send_new() || tx.timer_settled())
        })
    }

    /// True when evidence from the switch would only refresh its watch:
    /// no detector runs, or it has not convicted the switch and the
    /// uplink is not dead (evidence revives either).
    #[inline]
    fn trusts_switch(&self) -> bool {
        self.beacons
            .as_ref()
            .is_none_or(|b| !b.detector.is_down(0) && !self.tx().is_some_and(TxPort::is_dead))
    }

    /// True when a returned credit would only add a credit: no credit
    /// stall is open, the credit fits the allowance, the wire is busy
    /// or nothing waits on it, and the switch is trusted. See
    /// [`Component::can_absorb`](tg_sim::Component::can_absorb).
    #[inline]
    pub fn can_absorb_credit(&self) -> bool {
        self.tx().is_some_and(|tx| {
            !tx.is_credit_stalled()
                && tx.credits() < tx.allowance()
                && (!tx.wire_free() || self.tx_settled())
        }) && self.trusts_switch()
    }

    /// True when an arrived control frame is intact and would only
    /// refresh the switch's watch: a keepalive, or an ack that only moves
    /// the transmit window (the link is alive with no credit stall open,
    /// and the wire is busy or nothing waits on it), from a trusted
    /// switch.
    #[inline]
    pub fn can_absorb_ctrl(&self, frame: &CtrlFrame) -> bool {
        let inert = match frame.msg {
            CtrlMsg::Keepalive => true,
            CtrlMsg::Ack { .. } => self.tx().is_some_and(|tx| {
                !tx.is_dead() && !tx.is_credit_stalled() && (!tx.wire_free() || self.tx_settled())
            }),
            _ => false,
        };
        inert && frame.checksum_ok() && self.trusts_switch()
    }

    /// True when a `TxFree` tick would only free the wire: nothing waits
    /// to launch, and no re-send, parked store or fence waits on the
    /// transmit side.
    #[inline]
    pub fn can_absorb_tx_free(&self) -> bool {
        self.tx_settled()
            && self.resends.is_empty()
            && self.stalled_store.is_none()
            && !self.fence_waiting
    }

    /// Applies an absorbed credit arriving at `at`, as
    /// [`Hib::on_net`] would.
    #[inline]
    pub fn absorb_credit(&mut self, at: SimTime) {
        // Debug-build guard: the credit must still be one the handler
        // would not act on.
        #[cfg(debug_assertions)]
        assert!(
            self.can_absorb_credit(),
            "node {}: absorbed an active credit",
            self.node
        );
        self.saw_switch_at(at);
        self.tx_mut()
            .expect("tx wired")
            .on_credit_at(at)
            .expect("an absorbable credit fits the allowance");
    }

    /// Applies an absorbed control frame arriving at `at`, as
    /// [`Hib::on_net`] would: the switch's watch is refreshed, and an
    /// ack moves the window.
    #[inline]
    pub fn absorb_ctrl(&mut self, frame: CtrlFrame, at: SimTime) {
        #[cfg(debug_assertions)]
        assert!(
            self.can_absorb_ctrl(&frame),
            "node {}: absorbed an active control frame",
            self.node
        );
        self.saw_switch_at(at);
        match frame.msg {
            CtrlMsg::Keepalive => {}
            CtrlMsg::Ack { seq, sack } => self.tx_mut().expect("tx wired").on_ack(seq, sack, at),
            _ => unreachable!("only an ack or a keepalive absorbs"),
        }
    }

    /// Applies an absorbed `TxFree` tick, as [`Hib::on_tick`] would.
    #[inline]
    pub fn absorb_tx_free(&mut self) {
        #[cfg(debug_assertions)]
        assert!(
            self.can_absorb_tx_free(),
            "node {}: absorbed an active TxFree",
            self.node
        );
        self.lazy_free = false;
        self.tx_mut().expect("tx wired").on_free();
    }

    /// Whether the transmit side stopped being idle since the last call
    /// (see [`Ctx::recheck_deferred`](tg_sim::Ctx::recheck_deferred));
    /// clears the flag.
    #[inline]
    pub fn take_recheck(&mut self) -> bool {
        std::mem::take(&mut self.recheck)
    }

    /// Refreshes the switch's watch with evidence at `at`, for an
    /// absorbed frame: [`Hib::trusts_switch`] held, so nothing revives.
    #[inline]
    fn saw_switch_at(&mut self, at: SimTime) {
        if let Some(b) = self.beacons.as_mut() {
            b.detector.saw(0, at);
        }
    }

    /// A frame reached this board from its switch, so the fabric path to
    /// it works: the switch's watch is refreshed. If the switch was
    /// convicted, the peers return to what the newest notice says; if the
    /// uplink had been declared dead (a switch outage severs both
    /// directions), it revives under a fresh epoch and tells the
    /// neighbor to resynchronize its receive sequence.
    #[inline(never)]
    fn saw_switch(&mut self, host: &mut dyn HibHost) {
        let Some(b) = self.beacons.as_mut() else {
            return;
        };
        let revived = b.detector.saw(0, host.now()) == Some(Liveness::Up);
        if self.tx().is_some_and(TxPort::is_dead) {
            let end = self.link.as_mut().expect("tx wired");
            end.revive(self.timing.link_prop, host);
            self.recheck = true;
            self.pump_tx(host);
            self.arm_timer(host);
        }
        if revived {
            self.settle_peers(host);
        }
    }

    /// Applies a verdict notice from the switch, unless a newer one
    /// already reached this board: the peers it names are convicted, the
    /// others re-admitted. A newer view version is a route change: once
    /// the verdicts have failed the requests to convicted peers, the
    /// pending ones are re-sent.
    fn apply_notice(&mut self, version: u64, unreachable: &[u16], host: &mut dyn HibHost) {
        let Some(peers) = self.beacons.as_mut().map(|b| &mut b.state) else {
            return;
        };
        if version < peers.version {
            return;
        }
        let route_change = version > peers.version;
        peers.version = version;
        peers.named.fill(false);
        for &n in unreachable {
            if let Some(named) = peers.named.get_mut(usize::from(n)) {
                *named = true;
            }
        }
        self.settle_peers(host);
        if route_change {
            self.resend_pending(host);
        }
    }

    /// Runs the failure detector over the switch; a conviction convicts
    /// every peer with it.
    fn sweep_detector(&mut self, host: &mut dyn HibHost) {
        let convicted = match self.beacons.as_mut() {
            Some(b) => !b.detector.check(host.now()).is_empty(),
            None => return,
        };
        if convicted {
            // Evidence deferred from the switch now re-admits it.
            self.recheck = true;
            self.settle_peers(host);
        }
    }

    /// Brings every peer's verdict in line with the switch's and the
    /// newest notice's: a peer is down while the switch is convicted or
    /// the notice names it. Each change is a down or up transition.
    fn settle_peers(&mut self, host: &mut dyn HibHost) {
        let Some(b) = self.beacons.as_mut() else {
            return;
        };
        let cut_off = b.detector.is_down(0);
        let mut changed = Vec::new();
        for i in 0..b.state.down.len() {
            let down = cut_off || b.state.named[i];
            if i != self.node.index() && std::mem::replace(&mut b.state.down[i], down) != down {
                changed.push((NodeId::new(i as u16), down));
            }
        }
        for (peer, down) in changed {
            if down {
                self.peer_down_transition(peer, host);
            } else {
                self.peer_up_transition(peer, host);
            }
        }
    }

    fn peer_down_transition(&mut self, peer: NodeId, host: &mut dyn HibHost) {
        self.stats.peer_downs += 1;
        if let Some(tracer) = &self.tracer {
            let count = self.stats.peer_downs;
            tracer.peer(host.now(), Site::Node(peer), Stage::PeerDown, count);
        }
        host.interrupt(
            self.timing.interrupt_latency,
            HibInterrupt::PeerDown { peer },
        );
        self.fail_ops_to(peer, host);
    }

    fn peer_up_transition(&mut self, peer: NodeId, host: &mut dyn HibHost) {
        self.stats.peer_ups += 1;
        // The restarted peer lost its volatile state and restarts its tag
        // space; stale dedupe entries would suppress its fresh requests.
        self.atomic_served.remove(&peer.raw());
        self.writes_seen.remove(&peer.raw());
        if let Some(tracer) = &self.tracer {
            let count = self.stats.peer_ups;
            tracer.peer(host.now(), Site::Node(peer), Stage::PeerUp, count);
        }
        host.interrupt(self.timing.interrupt_latency, HibInterrupt::PeerUp { peer });
    }

    /// Resolves every in-flight operation addressed to a convicted peer
    /// with [`OpError::PeerUnreachable`] so nothing hangs on a dead node.
    fn fail_ops_to(&mut self, peer: NodeId, host: &mut dyn HibHost) {
        let err = OpError::PeerUnreachable { peer };
        let tags: Vec<u32> = self
            .pending_ops
            .iter()
            .filter(|(_, op)| op.dst == peer)
            .map(|(&t, _)| t)
            .collect();
        for tag in tags {
            self.fail_op(tag, err, host);
        }
        // Coherent updates sent to a dead owner never reflect back:
        // release their completion accounting and pending-write counters.
        if let Some(keys) = self.updates_to.remove(&peer.raw()) {
            self.outstanding_updates = self.outstanding_updates.saturating_sub(keys.len() as u64);
            if self.config.local_write_policy == LocalWritePolicy::CountFiltered {
                for key in keys {
                    self.cam.decrement(key);
                }
            }
            self.retry_stalled(host);
        }
        // A store stalled on the dead owner's reflection resolves with the
        // error instead of holding the CPU forever.
        if let Some(s) = self.stalled_store {
            if s.reason == StallReason::WaitReflect {
                if let Decoded::LocalShared { off } = s.pa.decode() {
                    if let PageMode::Replica { owner, .. } = self.shared.mode(off.page()).clone() {
                        if owner == peer {
                            self.stalled_store = None;
                            self.stats.op_failures += 1;
                            host.cpu_complete(SimTime::ZERO, CpuResult::OpFailed { err });
                        }
                    }
                }
            }
        }
        self.check_fence(host);
    }

    /// Registers a tagged request for verdict-driven recovery.
    fn register_op(&mut self, tag: u32, dst: NodeId, kind: OpKind) {
        self.pending_ops.insert(tag, PendingOp { dst, kind });
    }

    /// Re-sends every pending request once, under its own tag. None is
    /// addressed to a down peer: a conviction fails them, and no request
    /// is issued to a convicted peer. A route change is the one event
    /// besides a conviction that loses a request: frames acked hop by hop
    /// into a switch that then died are gone, and the reliable links mask
    /// every other loss. The board cannot tell which paths changed, so it
    /// re-sends them all; receivers deduplicate by tag.
    fn resend_pending(&mut self, host: &mut dyn HibHost) {
        self.resends = self.pending_ops.keys().copied().collect();
        self.send_resends(host);
    }

    /// Sends the re-sends the TX queue has room for, in tag order; the
    /// rest wait for the next `TxFree`. A request resolved meanwhile
    /// (completed, or failed by a conviction) is skipped.
    fn send_resends(&mut self, host: &mut dyn HibHost) {
        while let Some(&tag) = self.resends.front() {
            if !self.tx_has_room(1) {
                self.recheck |= self.lazy_free;
                return;
            }
            self.resends.pop_front();
            if let Some(op) = self.pending_ops.get(&tag).copied() {
                self.enqueue(op.dst, Self::rebuild_msg(tag, op.kind), host);
            }
        }
    }

    fn rebuild_msg(tag: u32, kind: OpKind) -> WireMsg {
        match kind {
            OpKind::Write { addr, val } => WireMsg::WriteReq { addr, val, tag },
            OpKind::Multicast { addr, val } => WireMsg::MulticastWrite { addr, val, tag },
            OpKind::Read { addr } => WireMsg::ReadReq { addr, tag },
            OpKind::Atomic {
                op,
                addr,
                arg0,
                arg1,
            } => WireMsg::AtomicReq {
                op,
                addr,
                arg0,
                arg1,
                tag,
            },
            OpKind::Copy { from, words } => WireMsg::CopyReq { from, words, tag },
        }
    }

    /// Resolves one tagged request as failed, releasing whatever CPU or
    /// fence accounting it held.
    fn fail_op(&mut self, tag: u32, err: OpError, host: &mut dyn HibHost) {
        let Some(op) = self.pending_ops.remove(&tag) else {
            return;
        };
        self.stats.op_failures += 1;
        match op.kind {
            OpKind::Write { .. } | OpKind::Multicast { .. } => {
                self.outstanding_writes = self.outstanding_writes.saturating_sub(1);
            }
            OpKind::Read { .. } => {
                if self.read_pending == Some(tag) {
                    self.read_pending = None;
                    host.cpu_complete(SimTime::ZERO, CpuResult::OpFailed { err });
                }
            }
            OpKind::Atomic { .. } => {
                if self.launch_pending == Some(tag) {
                    self.launch_pending = None;
                    host.cpu_complete(SimTime::ZERO, CpuResult::OpFailed { err });
                }
            }
            OpKind::Copy { .. } => {
                self.copies_in_flight.remove(&tag);
            }
        }
        self.check_fence(host);
    }

    /// True when `(src, tag)` has not been applied before; records it.
    /// Retried requests (same tag) are acked but not re-applied.
    fn note_first_delivery(&mut self, src: NodeId, tag: u32) -> bool {
        let window = self.writes_seen.entry(src.raw()).or_default();
        if window.contains(&tag) {
            return false;
        }
        window.push_back(tag);
        if window.len() > DEDUPE_WINDOW {
            window.pop_front();
        }
        true
    }

    fn record_link_error(&mut self, err: LinkError, host: &mut dyn HibHost) {
        self.link_errors.push(err);
        host.interrupt(
            self.timing.interrupt_latency,
            HibInterrupt::LinkFault { error: err },
        );
    }

    /// Counts the consumed arrival and returns its credit, unless the
    /// injector loses it on the way back upstream.
    fn return_rx_credit(&mut self, host: &mut dyn HibHost) {
        let Some(end) = self.link.as_mut() else {
            return;
        };
        if let Some((up, credit)) = end.drain(host) {
            host.schedule_net_deferrable(self.timing.link_prop, up, credit);
        }
    }

    /// Arms the link-recovery timer when one is needed and none is armed.
    fn arm_timer(&mut self, host: &mut dyn HibHost) {
        if let Some(tx) = self.tx_mut() {
            if let Some((delay, gen)) = tx.poll_timer(host.now()) {
                host.schedule_tick(delay, HibTick::RetxTimer { gen });
            }
        }
    }

    /// Queues an accepted frame in the receive FIFO.
    fn enqueue_rx(&mut self, packet: Packet, host: &mut dyn HibHost) {
        self.emit(host.now(), &packet, Stage::RxEnqueue, None);
        if let Err(err) = self.rx_fifo.push(packet) {
            self.record_link_error(err, host);
        }
    }

    fn pump_rx(&mut self, host: &mut dyn HibHost) {
        if self.rx_current.is_some() {
            return;
        }
        let Some(packet) = self.rx_fifo.pop() else {
            return;
        };
        let touches_memory = matches!(
            packet.msg,
            WireMsg::WriteReq { .. }
                | WireMsg::ReadReq { .. }
                | WireMsg::AtomicReq { .. }
                | WireMsg::CopyReq { .. }
                | WireMsg::CopyData { .. }
                | WireMsg::UpdateToOwner { .. }
                | WireMsg::ReflectedWrite { .. }
                | WireMsg::MulticastWrite { .. }
                | WireMsg::PageFetchReq { .. }
        );
        let delay = if touches_memory {
            self.timing.hib_proc + self.timing.hib_sram_access
        } else {
            self.timing.hib_proc
        };
        self.emit(host.now(), &packet, Stage::RxStart, None);
        self.rx_current = Some(packet);
        host.schedule_tick(delay, HibTick::RxDone);
    }

    fn handle_rx(&mut self, packet: Packet, host: &mut dyn HibHost) {
        self.emit(host.now(), &packet, Stage::Commit, None);
        self.stats.committed += 1;
        if let Some(meter) = self.meter.as_ref() {
            meter.tick();
        }
        self.rx_handling = Some(packet.trace_id());
        self.dispatch_rx(packet, host);
        self.rx_handling = None;
    }

    fn dispatch_rx(&mut self, packet: Packet, host: &mut dyn HibHost) {
        let src = packet.src;
        match packet.msg {
            WireMsg::WriteReq { addr, val, tag } => {
                if self.note_first_delivery(src, tag) {
                    self.apply_home_write(addr, val, None, host);
                }
                self.enqueue(src, WireMsg::WriteAck { tag }, host);
            }
            WireMsg::WriteAck { tag } => {
                if self.pending_ops.remove(&tag).is_some() {
                    self.outstanding_writes = self.outstanding_writes.saturating_sub(1);
                    self.stats.acks_rx += 1;
                } else {
                    // A late ack for a write already failed over (or a
                    // duplicate answer to a retry): accounting is done.
                    self.stats.stale_acks += 1;
                }
            }
            WireMsg::ReadReq { addr, tag } => {
                let val = host.segment().read(addr);
                self.enqueue(src, WireMsg::ReadResp { tag, val }, host);
            }
            WireMsg::ReadResp { tag, val } => {
                if self.read_pending == Some(tag) {
                    self.read_pending = None;
                    self.pending_ops.remove(&tag);
                    host.cpu_complete(SimTime::ZERO, CpuResult::LoadDone { val });
                } else {
                    self.stats.stale_acks += 1;
                }
            }
            WireMsg::AtomicReq {
                op,
                addr,
                arg0,
                arg1,
                tag,
            } => {
                // Idempotent retry: a requester has at most one atomic in
                // flight, so remembering the last `(tag, old)` served per
                // requester suffices to answer a retry without re-applying.
                if let Some(&(t, old)) = self.atomic_served.get(&src.raw()) {
                    if t == tag {
                        self.enqueue(src, WireMsg::AtomicResp { tag, old }, host);
                        return;
                    }
                }
                let old = self.apply_atomic(op, addr, arg0, arg1, host);
                self.atomic_served.insert(src.raw(), (tag, old));
                self.enqueue(src, WireMsg::AtomicResp { tag, old }, host);
            }
            WireMsg::AtomicResp { tag, old } => {
                if self.launch_pending == Some(tag) {
                    self.launch_pending = None;
                    self.pending_ops.remove(&tag);
                    host.cpu_complete(SimTime::ZERO, CpuResult::LaunchDone { result: old });
                } else {
                    self.stats.stale_acks += 1;
                }
            }
            WireMsg::CopyReq { from, words, tag } => {
                self.stream_block(src, from, words, tag, false, host);
            }
            WireMsg::CopyData {
                tag,
                index,
                vals,
                last,
            } => {
                let Some(copy) = self.copies_in_flight.get(&tag) else {
                    // Data for a copy already failed over, or a duplicate
                    // stream from a retried CopyReq finishing late.
                    self.stats.stale_acks += 1;
                    self.pool.recycle(vals);
                    return;
                };
                let base = copy.dst.add(u64::from(index) * 8);
                host.segment().write_block(base, &vals);
                self.pool.recycle(vals);
                if last {
                    self.copies_in_flight.remove(&tag);
                    self.pending_ops.remove(&tag);
                }
            }
            WireMsg::UpdateToOwner { addr, val, writer } => {
                self.apply_home_write(addr, val, Some(writer), host);
            }
            WireMsg::ReflectedWrite { addr, val, writer } => {
                self.apply_reflected(src, addr, val, writer, host);
            }
            WireMsg::MulticastWrite { addr, val, tag } => {
                if self.note_first_delivery(src, tag) && self.in_segment(addr) {
                    host.segment().write(addr, val);
                }
                self.enqueue(src, WireMsg::WriteAck { tag }, host);
            }
            WireMsg::PageFetchReq { page, tag } => {
                let from = PageNum::new(page).base();
                self.stream_block(src, from, tg_wire::PAGE_WORDS as u32, tag, true, host);
                // The OS may track who fetched which page (VSM copysets).
                host.to_os(SimTime::ZERO, src, WireMsg::PageFetchReq { page, tag });
            }
            msg @ (WireMsg::PageData { .. }
            | WireMsg::InvalidateReq { .. }
            | WireMsg::InvalidateAck { .. }
            | WireMsg::DmaData { .. }
            | WireMsg::OsCtl { .. }) => {
                // Software-level traffic: hand to the OS layer.
                host.to_os(SimTime::ZERO, src, msg);
            }
        }
    }

    /// Applies a write arriving at this node as the page's home. `writer`
    /// is `Some` for coherent updates (§2.3); reflected writes then carry
    /// it so the writer can consume its own update (rule 2).
    fn apply_home_write(
        &mut self,
        addr: GOffset,
        val: u64,
        writer: Option<NodeId>,
        host: &mut dyn HibHost,
    ) {
        if !self.in_segment(addr) {
            debug_assert!(false, "network write outside segment at {addr}");
            return;
        }
        host.segment().write(addr, val);
        if let PageMode::Owned { copies } = self.shared.mode(addr.page()).clone() {
            // The owner serializes and multicasts in arrival order
            // (§2.3.1). Plain remote writes into an owned page reflect with
            // the owner as writer so no copy mistakes them for its own.
            let w = writer.unwrap_or(self.node);
            self.reflect_to_copies(&copies, addr.in_page(), val, w, host);
        }
    }

    fn reflect_to_copies(
        &mut self,
        copies: &[(NodeId, PageNum)],
        in_page: u64,
        val: u64,
        writer: NodeId,
        host: &mut dyn HibHost,
    ) {
        for &(dst, dst_page) in copies {
            self.stats.fanout_tx += 1;
            self.enqueue(
                dst,
                WireMsg::ReflectedWrite {
                    addr: GOffset::from_page(dst_page, in_page),
                    val,
                    writer,
                },
                host,
            );
        }
    }

    /// §2.3.3 rules 2 and 3 at a copy holder. `src` is the reflecting
    /// owner, which keys the update-completion accounting.
    fn apply_reflected(
        &mut self,
        src: NodeId,
        addr: GOffset,
        val: u64,
        writer: NodeId,
        host: &mut dyn HibHost,
    ) {
        self.stats.reflections_rx += 1;
        if !self.in_segment(addr) {
            debug_assert!(false, "reflected write outside segment at {addr}");
            return;
        }
        let key = addr.word_index();
        if writer == self.node {
            // Rule 2: our own write came back — consume, do not re-apply.
            self.stats.reflections_own += 1;
            if !self.note_reflection(src.raw(), key) {
                // A late reflection from an owner already failed over: its
                // accounting was released at the peer-down transition.
                self.stats.stale_acks += 1;
                return;
            }
            match self.config.local_write_policy {
                LocalWritePolicy::CountFiltered => {
                    self.cam.decrement(key);
                }
                LocalWritePolicy::StallUntilReflected => {
                    // The stalled store completes now: apply and release
                    // the CPU.
                    host.segment().write(addr, val);
                    if let Some(s) = self.stalled_store.take() {
                        debug_assert_eq!(s.reason, StallReason::WaitReflect);
                        host.cpu_complete(SimTime::ZERO, CpuResult::StoreRetired);
                    }
                }
            }
            self.outstanding_updates = self.outstanding_updates.saturating_sub(1);
            self.retry_stalled(host);
        } else if self.cam.is_pending(key) {
            // Rule 3: older than our pending write — ignore.
            self.stats.reflections_filtered += 1;
        } else {
            host.segment().write(addr, val);
        }
    }

    /// Consumes one pending-update entry for `(owner, key)`; `false` when
    /// none is tracked (the owner was already failed over).
    fn note_reflection(&mut self, owner: u16, key: u64) -> bool {
        if let Some(keys) = self.updates_to.get_mut(&owner) {
            if let Some(pos) = keys.iter().position(|&k| k == key) {
                keys.remove(pos);
                if keys.is_empty() {
                    self.updates_to.remove(&owner);
                }
                return true;
            }
        }
        false
    }

    fn apply_atomic(
        &mut self,
        op: AtomicOp,
        addr: GOffset,
        arg0: u64,
        arg1: u64,
        host: &mut dyn HibHost,
    ) -> u64 {
        let old = host.segment().read(addr);
        let new = match op {
            AtomicOp::FetchStore => Some(arg0),
            AtomicOp::FetchInc => Some(old.wrapping_add(arg0)),
            AtomicOp::CompareSwap => {
                if old == arg0 {
                    Some(arg1)
                } else {
                    None
                }
            }
        };
        if let Some(new) = new {
            host.segment().write(addr, new);
            if let PageMode::Owned { copies } = self.shared.mode(addr.page()).clone() {
                self.reflect_to_copies(&copies, addr.in_page(), new, self.node, host);
            }
        }
        old
    }

    /// Streams `words` words starting at `from` back to `dst` as
    /// `CopyData` (or `PageData` when `as_page`) bursts.
    fn stream_block(
        &mut self,
        dst: NodeId,
        from: GOffset,
        words: u32,
        tag: u32,
        as_page: bool,
        host: &mut dyn HibHost,
    ) {
        let burst = self.config.copy_burst_words.max(1);
        let mut index = 0u32;
        while index < words {
            let n = burst.min(words - index);
            let mut buf = self.pool.take();
            host.segment()
                .read_block_into(from.add(u64::from(index) * 8), u64::from(n), &mut buf);
            let vals = self.pool.seal(buf);
            let last = index + n >= words;
            let msg = if as_page {
                WireMsg::PageData {
                    tag,
                    index,
                    vals,
                    last,
                }
            } else {
                WireMsg::CopyData {
                    tag,
                    index,
                    vals,
                    last,
                }
            };
            self.enqueue(dst, msg, host);
            index += n;
        }
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// Sends an OS-generated message (VSM traffic, DMA bursts) through the
    /// board. OS traffic bypasses the posted-write accounting.
    ///
    /// Returns `false` — refusing the send — when the failure detector has
    /// already convicted `dst`: frames to a declared-dead peer would only
    /// burn the link retry budget before failing anyway, so the caller
    /// hears `PeerUnreachable` at issue time instead.
    pub fn send_os_message(&mut self, dst: NodeId, msg: WireMsg, host: &mut dyn HibHost) -> bool {
        if self.peer_down(dst) {
            self.stats.os_sends_refused += 1;
            return false;
        }
        self.enqueue(dst, msg, host);
        true
    }

    fn tx_has_room(&self, needed: usize) -> bool {
        self.tx_queue.len() + needed <= self.config.tx_queue_depth
    }

    fn alloc_tag(&mut self) -> u32 {
        let t = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        t
    }

    fn enqueue(&mut self, dst: NodeId, msg: WireMsg, host: &mut dyn HibHost) {
        debug_assert_ne!(dst, self.node, "packet to self");
        let seq = self.inject_seq;
        self.inject_seq += 1;
        let packet = Packet::new(self.node, dst, msg, seq);
        // Injections made while a received packet is being processed are
        // responses; chain them to their request.
        self.emit(host.now(), &packet, Stage::TxEnqueue, self.rx_handling);
        self.last_injected = Some(packet.trace_id());
        self.recheck |= self.lazy_free && self.tx_queue.is_empty();
        self.tx_queue.push_back(packet);
        self.stats.tx_high_water = self.stats.tx_high_water.max(self.tx_queue.len());
        self.pump_tx(host);
    }

    fn pump_tx(&mut self, host: &mut dyn HibHost) {
        let Some(tx) = self.tx().filter(|tx| tx.wire_free()) else {
            return;
        };
        // Go-back-N recovery outranks fresh traffic and needs no credit:
        // the original launch already reserved the receiver's FIFO slot.
        if tx.has_retx_pending() {
            let packet = self
                .tx_mut()
                .and_then(TxPort::take_retx)
                .expect("retx pending");
            self.emit(host.now(), &packet, Stage::Retransmit, None);
            self.dispatch_frame(packet, false, host);
            self.arm_timer(host);
            return;
        }
        if !tx.can_send_new() {
            if !self.tx_queue.is_empty() {
                let opened = self.tx_mut().expect("tx wired").note_blocked(host.now());
                if opened {
                    self.recheck = true;
                    // One CreditStall event per stall window, stamped on
                    // the packet at the head of the queue: attribution
                    // classifies its queue time that follows as
                    // credit-stall rather than arbitration.
                    if let Some(head) = self.tx_queue.front() {
                        self.emit(host.now(), head, Stage::CreditStall, None);
                    }
                }
            }
            self.arm_timer(host);
            return;
        }
        if self.tx_queue.is_empty() {
            return;
        }
        let mut packet = self.tx_queue.pop_front().expect("nonempty queue");
        self.stats.pkts_tx += 1;
        if self.tx().expect("tx wired").is_reliable() {
            packet = self.tx_mut().expect("tx wired").frame(packet, host.now());
        }
        self.emit(host.now(), &packet, Stage::TxLaunch, None);
        self.dispatch_frame(packet, true, host);
        self.arm_timer(host);
    }

    /// Occupies the wire with `packet` (a fresh launch consumes a credit;
    /// a retransmission reuses its reservation), consults the fault
    /// injector, and schedules the arrival unless the frame was lost.
    fn dispatch_frame(&mut self, mut packet: Packet, fresh: bool, host: &mut dyn HibHost) {
        let now = host.now();
        let (times, nbr, nbr_port) = {
            let tx = self.link.as_mut().expect("tx wired").tx_mut();
            let times = if fresh {
                tx.launch(&packet, &self.timing)
            } else {
                tx.relaunch(&packet, &self.timing)
            };
            (times, tx.neighbor(), tx.neighbor_port())
        };
        let proc = self.timing.hib_proc;
        // A packet queued behind this one, a frame left to resend or a
        // waiting fence (the busy wire keeps it waiting) keeps the
        // `TxFree` active, so it is offered for deferral only otherwise.
        if self.tx_queue.is_empty()
            && !self.fence_waiting
            && !self.tx().is_some_and(TxPort::has_retx_pending)
        {
            self.lazy_free = true;
            host.schedule_tick_deferrable(proc + times.free, HibTick::TxFree);
        } else {
            host.schedule_tick(proc + times.free, HibTick::TxFree);
        }
        let end = self.link.as_mut().expect("tx wired");
        if end.frame_fate(now, &mut packet, fresh) == FrameFate::Drop {
            self.emit(now, &packet, Stage::Dropped, None);
            return;
        }
        host.schedule_net(
            proc + times.arrival,
            nbr,
            NetEvent::Arrive {
                port: nbr_port,
                packet,
            },
        );
    }

    fn retry_stalled(&mut self, host: &mut dyn HibHost) {
        let Some(s) = self.stalled_store else {
            return;
        };
        if s.reason == StallReason::WaitReflect {
            // Released only by the matching reflected write.
            return;
        }
        self.stalled_store = None;
        match self.cpu_store(s.pa, s.val, host) {
            StoreOutcome::Done => {
                host.cpu_complete(SimTime::ZERO, CpuResult::StoreRetired);
            }
            StoreOutcome::Stalled => {
                // Still blocked; cpu_store re-parked it.
            }
            StoreOutcome::Fault(f) => {
                unreachable!("a stalled store cannot become invalid: {f}")
            }
        }
    }

    fn check_fence(&mut self, host: &mut dyn HibHost) {
        if self.fence_waiting && self.quiescent() {
            self.fence_waiting = false;
            host.cpu_complete(SimTime::ZERO, CpuResult::FenceDone);
        }
    }

    fn count_page_access(
        &mut self,
        node: NodeId,
        page: PageNum,
        kind: CounterKind,
        host: &mut dyn HibHost,
    ) {
        if self.shared.count_access(node, page, kind) {
            self.stats.alarms += 1;
            host.interrupt(
                self.timing.interrupt_latency,
                HibInterrupt::PageAlarm {
                    node,
                    page,
                    counter: kind,
                },
            );
        }
    }

    fn in_segment(&self, off: GOffset) -> bool {
        off.page().raw() < self.config.segment_pages
    }
}
