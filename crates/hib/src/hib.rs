//! The Host Interface Board state machine.

use std::collections::{BTreeMap, HashMap, VecDeque};

use tg_mem::{Decoded, PAddr};
use tg_net::{
    Arrival, CtrlOutcome, DetectParams, FaultInjector, FrameFate, HeartbeatDetector, LinkEnd,
    LinkError, Liveness, NetEvent, PortSnapshot, RxFifo, TimerAction, TxPort,
};
use tg_proto::PendingCam;
use tg_sim::SimTime;
use tg_wire::trace::{PacketEvent, SharedProbe, Site, Stage, TraceId};
use tg_wire::{
    AtomicOp, CtrlMsg, GOffset, NodeId, Packet, PageNum, PayloadPool, TimingConfig, WireMsg,
};

use crate::config::{HibConfig, LaunchMode, LocalWritePolicy};
use crate::host::{
    CounterKind, CpuResult, HibFault, HibHost, HibInterrupt, HibTick, LoadOutcome, OpError,
    StoreOutcome,
};

/// Recently-seen request tags remembered per source for idempotent-retry
/// deduplication. Retries arrive well within this window: a source has at
/// most `tx_queue_depth` (64) requests in flight toward one destination.
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
    /// Coherent updates sent to page owners.
    pub updates_sent: u64,
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
    /// Packets transmitted / received.
    pub pkts_tx: u64,
    /// Packets received.
    pub pkts_rx: u64,
    /// Bytes transmitted.
    pub bytes_tx: u64,
    /// Bytes received.
    pub bytes_rx: u64,
    /// CPU stalls because the TX queue was full.
    pub tx_stalls: u64,
    /// Page-access alarms raised.
    pub alarms: u64,
    /// Deepest TX-queue occupancy observed.
    pub tx_high_water: usize,
    /// Received packets fully processed (committed) by the rx pipeline.
    pub committed: u64,
    /// Link-layer faults surfaced as [`HibInterrupt::LinkFault`].
    pub link_faults: u64,
    /// Ack-starvation episodes surfaced as [`HibInterrupt::LinkStarved`].
    pub starvation_alarms: u64,
    /// Liveness beacons originated by this board.
    pub heartbeats_tx: u64,
    /// Liveness beacons received from peers.
    pub heartbeats_rx: u64,
    /// Peers this board's failure detector convicted.
    pub peer_downs: u64,
    /// Convicted peers whose beacons later resumed.
    pub peer_ups: u64,
    /// Tagged requests retried after the request timeout.
    pub op_retries: u64,
    /// Tagged requests failed with [`OpError::PeerUnreachable`].
    pub op_failures: u64,
    /// Completions that arrived for an operation already resolved (late
    /// acks after a failover, duplicate responses to a retry).
    pub stale_acks: u64,
    /// Duplicate requests suppressed by the idempotent-retry dedupe.
    pub dup_requests: u64,
    /// OS messages refused at issue time because the destination peer was
    /// already convicted (fail-fast instead of burning the retry budget).
    pub os_sends_refused: u64,
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
/// idempotent retry.
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

/// A tagged remote request awaiting its completion, tracked for
/// request-level timeout/retry recovery.
#[derive(Clone, Copy, Debug)]
struct PendingOp {
    dst: NodeId,
    kind: OpKind,
    issued_at: SimTime,
    attempts: u32,
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
    tx_busy: bool,
    rx_current: Option<Packet>,
    inject_seq: u64,
    // Sharing metadata.
    shared: SharedMap,
    // Outstanding-operation state (§2.2, completion detection).
    cam: PendingCam,
    outstanding_writes: u64,
    outstanding_updates: u64,
    copies_in_flight: HashMap<u32, CopyInFlight>,
    read_pending: Option<u32>,
    launch_pending: Option<u32>,
    next_tag: u32,
    fence_waiting: bool,
    stalled_store: Option<StalledStore>,
    /// The pending `TxFree` was sent deferrable: only then can one be
    /// deferred.
    lazy_free: bool,
    /// Set when a deferred `TxFree` or credit may have stopped being
    /// absorbable: work arrived while `lazy_free` (a packet queued, a
    /// store parked, a fence armed), or a credit stall opened. Taken by
    /// the owner with [`Hib::take_recheck`].
    recheck: bool,
    // Special-operation launch.
    special: Option<SpecialMode>,
    contexts: Vec<Context>,
    /// Freelist for outgoing `CopyData`/`PageData` burst buffers; consumed
    /// incoming bursts are recycled here too, so a node in a symmetric
    /// copy exchange stops allocating once warm.
    pool: PayloadPool,
    stats: HibStats,
    // Observability (all `None`/no-op unless a probe is installed).
    probe: Option<SharedProbe>,
    /// Trace id of the packet currently being processed in `handle_rx`;
    /// packets enqueued while set are responses and get it as parent.
    rx_handling: Option<TraceId>,
    /// Trace id of the most recently injected packet, for the host to
    /// attribute to the CPU operation that caused it.
    last_injected: Option<TraceId>,
    /// Structured link errors observed (also surfaced as interrupts).
    link_errors: Vec<LinkError>,
    /// An RxUnwedge tick is already scheduled.
    unwedge_scheduled: bool,
    /// Watchdog progress meter, ticked on every packet commit.
    meter: Option<tg_sim::ProgressMeter>,
    /// The current ack-starvation episode has already raised its
    /// interrupt; cleared when ack progress resumes.
    starvation_alarmed: bool,
    /// Tagged remote requests in flight, for timeout/retry recovery.
    pending_ops: BTreeMap<u32, PendingOp>,
    /// An OpCheck sweep tick is already scheduled.
    op_check_armed: bool,
    /// Per-peer failure detector, fed by heartbeat beacons; present when
    /// the link reliability parameters enable heartbeats.
    detector: Option<HeartbeatDetector>,
    /// Beacon origination period, from the link reliability parameters.
    hb_every: Option<SimTime>,
    /// Sequence number of the next beacon (for switch flood dedupe).
    hb_seq: u64,
    /// Beacons are being originated; the Heartbeat tick rearms while set.
    /// Off by default so fault-free runs stay beacon-free and drain.
    hb_active: bool,
    /// Word keys of coherent updates awaiting their reflection, per owner:
    /// released one-by-one by rule-2 reflections, or wholesale when the
    /// owner is declared dead.
    updates_to: BTreeMap<u16, Vec<u64>>,
    /// Last atomic served per requester `(tag, old)`: a retried atomic is
    /// answered from here instead of being re-applied (idempotence).
    atomic_served: HashMap<u16, (u32, u64)>,
    /// Recently applied write/multicast tags per source, so a retried
    /// write is acked but not re-applied.
    writes_seen: HashMap<u16, VecDeque<u32>>,
    /// Structured request failures observed (also posted to the CPU for
    /// blocking operations).
    op_errors: Vec<OpError>,
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
            tx_busy: false,
            rx_current: None,
            inject_seq: 0,
            shared: SharedMap::new(),
            cam,
            outstanding_writes: 0,
            outstanding_updates: 0,
            copies_in_flight: HashMap::new(),
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
            probe: None,
            rx_handling: None,
            last_injected: None,
            link_errors: Vec::new(),
            unwedge_scheduled: false,
            meter: None,
            starvation_alarmed: false,
            pending_ops: BTreeMap::new(),
            op_check_armed: false,
            detector: None,
            hb_every: None,
            hb_seq: 0,
            hb_active: false,
            updates_to: BTreeMap::new(),
            atomic_served: HashMap::new(),
            writes_seen: HashMap::new(),
            op_errors: Vec::new(),
        }
    }

    /// Installs a packet-lifecycle probe; events report this board's node
    /// as their [`Site`].
    pub fn set_probe(&mut self, probe: SharedProbe) {
        self.probe = Some(probe);
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
        if let Some(probe) = &self.probe {
            probe.packet(PacketEvent {
                at: now,
                trace: packet.trace_id(),
                parent,
                site: Site::Node(self.node),
                stage,
                kind: packet.msg.kind_str(),
                bytes: packet.size_bytes(),
            });
        }
    }

    /// Wires the board to the fabric (from `tg-net`'s builder output). A
    /// reliability-enrolled transmit port implies the receiver half of the
    /// protocol on the input link; credits and control frames go back to
    /// the transmit port's neighbor.
    pub fn wire(&mut self, tx: TxPort, rx_capacity: u32) {
        if let Some(params) = tx.rel_params() {
            if let Some(every) = params.heartbeat_every {
                self.hb_every = Some(every);
                self.detector = Some(HeartbeatDetector::new(
                    params.peer_timeout,
                    params.phi_factor,
                ));
            }
        }
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

    /// Starts originating liveness beacons and arms the failure detector
    /// for `peers` (everyone else in the cluster), reconfiguring the
    /// beacon period and suspicion thresholds from `params` (which the
    /// caller has validated). The caller must follow up by routing a
    /// [`HibTick::Heartbeat`] into [`on_tick`]; the tick then self-rearms
    /// every `heartbeat_every` until [`stop_heartbeats`]. No-op unless
    /// the link reliability parameters enable heartbeats.
    ///
    /// [`on_tick`]: Hib::on_tick
    /// [`stop_heartbeats`]: Hib::stop_heartbeats
    pub fn prime_heartbeats(&mut self, peers: &[NodeId], now: SimTime, params: &DetectParams) {
        if self.hb_every.is_none() {
            return;
        }
        self.hb_every = Some(params.heartbeat_every);
        self.detector = Some(HeartbeatDetector::new(
            params.peer_timeout,
            params.phi_factor,
        ));
        self.hb_active = true;
        if let Some(det) = self.detector.as_mut() {
            for &p in peers {
                if p != self.node {
                    det.track(u64::from(p.raw()), now);
                }
            }
        }
    }

    /// Stops beacon origination: the next Heartbeat tick does not rearm,
    /// letting the event queue drain.
    pub fn stop_heartbeats(&mut self) {
        self.hb_active = false;
    }

    /// True while this board originates beacons.
    pub fn heartbeats_active(&self) -> bool {
        self.hb_active
    }

    /// True once this board's failure detector convicted `peer`.
    pub fn peer_down(&self, peer: NodeId) -> bool {
        self.detector
            .as_ref()
            .is_some_and(|d| d.is_down(u64::from(peer.raw())))
    }

    /// Peers currently convicted by this board's failure detector.
    pub fn down_peers(&self) -> Vec<NodeId> {
        self.detector
            .as_ref()
            .map(|d| {
                d.down_keys()
                    .into_iter()
                    .map(|k| NodeId::new(k as u16))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Structured request failures observed so far, in order.
    pub fn op_errors(&self) -> &[OpError] {
        &self.op_errors
    }

    /// Tagged remote requests currently awaiting completion.
    pub fn pending_op_count(&self) -> usize {
        self.pending_ops.len()
    }

    /// Installs the fault injector consulted when this board launches
    /// frames, sends control frames or returns credits (and for the
    /// rx-wedge fault).
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

    /// This board's node id.
    pub fn node(&self) -> NodeId {
        self.node
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

    /// Read-only sharing metadata.
    pub fn shared_map_ref(&self) -> &SharedMap {
        &self.shared
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
            && !self.tx_busy
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
            return self.shadow_store(pa, val, host);
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
            return self.fail_posted(node);
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
        self.register_op(tag, node, OpKind::Write { addr: off, val }, host);
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
    /// error is recorded, the CPU proceeds — posted semantics never stall
    /// on a dead destination.
    fn fail_posted(&mut self, peer: NodeId) -> StoreOutcome {
        self.stats.op_failures += 1;
        self.op_errors.push(OpError::PeerUnreachable { peer });
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
                        self.fail_posted(dst);
                        continue;
                    }
                    self.outstanding_writes += 1;
                    self.stats.fanout_tx += 1;
                    let addr = GOffset::from_page(dst_page, in_page);
                    let tag = self.alloc_tag();
                    self.register_op(tag, dst, OpKind::Multicast { addr, val }, host);
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
            return self.fail_posted(owner);
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
                self.stats.updates_sent += 1;
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
                self.stats.updates_sent += 1;
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

    fn shadow_store(&mut self, pa: PAddr, val: u64, host: &mut dyn HibHost) -> StoreOutcome {
        if self.config.launch_mode != LaunchMode::ContextShadow {
            return StoreOutcome::Fault(HibFault::BadRegister);
        }
        let arg = ShadowArg::decode(val);
        let Some(ctx) = self.contexts.get_mut(arg.ctx as usize) else {
            host.interrupt(self.timing.interrupt_latency, HibInterrupt::Protection);
            return StoreOutcome::Fault(HibFault::BadContextKey);
        };
        if ctx.key != arg.key {
            // §2.2.5: "Only processes that know the key that corresponds to
            // a specific context can write physical addresses into it."
            host.interrupt(self.timing.interrupt_latency, HibInterrupt::Protection);
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
        self.register_op(tag, node, OpKind::Read { addr: off }, host);
        self.enqueue(node, WireMsg::ReadReq { addr: off, tag }, host);
        LoadOutcome::Pending
    }

    /// Resolves a blocking operation addressed to a convicted peer: the
    /// CPU stalls as usual but is released immediately with the structured
    /// error instead of a value.
    fn fail_blocking(&mut self, peer: NodeId, host: &mut dyn HibHost) -> LoadOutcome {
        let err = OpError::PeerUnreachable { peer };
        self.stats.op_failures += 1;
        self.op_errors.push(err);
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
                            host,
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
                                host,
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
                    self.fail_posted(node);
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
                    host,
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
                    CtrlOutcome::Acked => {
                        self.check_starvation(host);
                        self.pump_tx(host);
                    }
                    CtrlOutcome::Dead(err) => {
                        self.record_link_error(err, host);
                        self.check_starvation(host);
                        self.pump_tx(host);
                    }
                    CtrlOutcome::SyncAck(done) => {
                        if let Some(token) = done {
                            self.emit_resync(host.now(), token);
                        }
                        self.pump_tx(host);
                    }
                    CtrlOutcome::Heartbeat { origin, .. } => self.on_heartbeat(origin, host),
                }
            }
            NetEvent::PumpOut { .. } | NetEvent::RetxTimer { .. } => {
                panic!("node {}: HIB wire and timer events are HibTicks", self.node)
            }
        }
    }

    /// Handles an internal timer scheduled through the host.
    pub fn on_tick(&mut self, tick: HibTick, host: &mut dyn HibHost) {
        match tick {
            HibTick::TxFree => {
                self.lazy_free = false;
                self.tx_busy = false;
                if let Some(tx) = self.tx_mut() {
                    tx.on_free();
                }
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
                        self.check_starvation(host);
                        self.pump_tx(host);
                    }
                    TimerAction::Resync { token } => self.emit_resync(host.now(), token),
                    TimerAction::Dead(err) => self.record_link_error(err, host),
                    TimerAction::Stale | TimerAction::Idle => {}
                }
                self.arm_timer(host);
            }
            HibTick::RxUnwedge => {
                self.unwedge_scheduled = false;
                self.pump_rx(host);
                self.check_fence(host);
            }
            HibTick::Heartbeat => {
                if !self.hb_active {
                    return;
                }
                self.hb_seq += 1;
                self.stats.heartbeats_tx += 1;
                let beacon = CtrlMsg::Heartbeat {
                    origin: self.node,
                    seq: self.hb_seq,
                };
                if let Some(end) = self.link.as_mut() {
                    end.send_ctrl(beacon, self.timing.link_prop, host);
                }
                self.sweep_detector(host);
                // Operations issued before heartbeats were enabled get
                // their sweep armed here.
                self.arm_op_check(host);
                if let Some(every) = self.hb_every {
                    host.schedule_tick(every, HibTick::Heartbeat);
                }
            }
            HibTick::OpCheck => {
                self.op_check_armed = false;
                self.scan_pending_ops(host);
                self.arm_op_check(host);
            }
        }
    }

    // ------------------------------------------------------------------
    // Deferred delivery
    // ------------------------------------------------------------------

    /// True when a returned credit would only add a credit: the output
    /// link is unreliable (a reliable one can arm a timer), no credit
    /// stall is open, the credit fits the allowance, and nothing waits to
    /// launch on a free wire. See
    /// [`Component::can_absorb`](tg_sim::Component::can_absorb).
    #[inline]
    pub fn can_absorb_credit(&self) -> bool {
        self.tx().is_some_and(|tx| {
            !tx.is_reliable()
                && !tx.is_credit_stalled()
                && tx.credits() < tx.allowance()
                && (self.tx_busy || self.tx_queue.is_empty())
        })
    }

    /// True when a `TxFree` tick would only free the wire: the output
    /// link is unreliable, and no packet, parked store or fence waits on
    /// the transmit side.
    #[inline]
    pub fn can_absorb_tx_free(&self) -> bool {
        self.tx().is_some_and(|tx| !tx.is_reliable())
            && self.tx_queue.is_empty()
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
        self.tx_mut()
            .expect("tx wired")
            .on_credit_at(at)
            .expect("an absorbable credit fits the allowance");
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
        self.tx_busy = false;
        self.tx_mut().expect("tx wired").on_free();
    }

    /// Whether the transmit side stopped being idle since the last call
    /// (see [`Ctx::recheck_deferred`](tg_sim::Ctx::recheck_deferred));
    /// clears the flag.
    #[inline]
    pub fn take_recheck(&mut self) -> bool {
        std::mem::take(&mut self.recheck)
    }

    /// A peer's beacon reached this board (flooded by the switches).
    fn on_heartbeat(&mut self, origin: NodeId, host: &mut dyn HibHost) {
        if origin == self.node {
            return;
        }
        self.stats.heartbeats_rx += 1;
        let now = host.now();
        // A beacon reached this board, so the fabric path to it works
        // again; if our own uplink had been declared dead (a switch outage
        // severs both directions), revive it under a fresh epoch and tell
        // the neighbor to resynchronize its receive sequence.
        if self.tx().is_some_and(TxPort::is_dead) {
            let end = self.link.as_mut().expect("tx wired");
            end.revive(self.timing.link_prop, host);
            self.pump_tx(host);
            self.arm_timer(host);
        }
        let revived = self
            .detector
            .as_mut()
            .and_then(|d| d.saw(u64::from(origin.raw()), now));
        if revived == Some(Liveness::Up) {
            self.peer_up_transition(origin, host);
        }
        self.sweep_detector(host);
    }

    /// Runs the failure detector; every newly-convicted peer triggers the
    /// down transition (interrupt, trace point, sweep-fail of its ops).
    fn sweep_detector(&mut self, host: &mut dyn HibHost) {
        let newly = match self.detector.as_mut() {
            Some(d) => d.check(host.now()),
            None => return,
        };
        for key in newly {
            self.peer_down_transition(NodeId::new(key as u16), host);
        }
    }

    fn peer_down_transition(&mut self, peer: NodeId, host: &mut dyn HibHost) {
        self.stats.peer_downs += 1;
        self.emit_peer(host.now(), peer, Stage::PeerDown, self.stats.peer_downs);
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
        self.emit_peer(host.now(), peer, Stage::PeerUp, self.stats.peer_ups);
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
                            self.op_errors.push(err);
                            host.cpu_complete(SimTime::ZERO, CpuResult::OpFailed { err });
                        }
                    }
                }
            }
        }
        self.check_fence(host);
    }

    /// Registers a tagged request for timeout/retry recovery.
    fn register_op(&mut self, tag: u32, dst: NodeId, kind: OpKind, host: &mut dyn HibHost) {
        self.pending_ops.insert(
            tag,
            PendingOp {
                dst,
                kind,
                issued_at: host.now(),
                attempts: 1,
            },
        );
        self.arm_op_check(host);
    }

    /// Arms the pending-operation sweep. Only active alongside heartbeats:
    /// without a failure detector there is no conviction to act on, and
    /// the reliable link layer already guarantees delivery to live peers.
    fn arm_op_check(&mut self, host: &mut dyn HibHost) {
        if self.op_check_armed || !self.hb_active || self.pending_ops.is_empty() {
            return;
        }
        self.op_check_armed = true;
        host.schedule_tick(self.config.op_timeout, HibTick::OpCheck);
    }

    /// Retries or fails every tagged request older than the op timeout.
    fn scan_pending_ops(&mut self, host: &mut dyn HibHost) {
        let now = host.now();
        let timeout = self.config.op_timeout;
        let due: Vec<u32> = self
            .pending_ops
            .iter()
            .filter(|(_, op)| now >= op.issued_at + timeout)
            .map(|(&t, _)| t)
            .collect();
        for tag in due {
            let Some(op) = self.pending_ops.get(&tag).copied() else {
                continue;
            };
            if self.peer_down(op.dst) || op.attempts >= self.config.op_retries.max(1) {
                self.fail_op(tag, OpError::PeerUnreachable { peer: op.dst }, host);
            } else if self.tx_has_room(1) {
                let entry = self.pending_ops.get_mut(&tag).expect("present");
                entry.attempts += 1;
                entry.issued_at = now;
                self.stats.op_retries += 1;
                self.enqueue(op.dst, Self::rebuild_msg(tag, op.kind), host);
            }
            // No TX room: leave issued_at alone; the next sweep retries.
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
        self.op_errors.push(err);
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
            self.stats.dup_requests += 1;
            return false;
        }
        window.push_back(tag);
        if window.len() > DEDUPE_WINDOW {
            window.pop_front();
        }
        true
    }

    fn emit_peer(&self, now: SimTime, peer: NodeId, stage: Stage, count: u64) {
        if let Some(probe) = &self.probe {
            probe.packet(PacketEvent {
                at: now,
                trace: TraceId::packet(peer, count),
                parent: None,
                site: Site::Node(self.node),
                stage,
                kind: if stage == Stage::PeerDown {
                    "peer-down"
                } else {
                    "peer-up"
                },
                bytes: 0,
            });
        }
    }

    fn record_link_error(&mut self, err: LinkError, host: &mut dyn HibHost) {
        self.stats.link_faults += 1;
        self.link_errors.push(err);
        host.interrupt(
            self.timing.interrupt_latency,
            HibInterrupt::LinkFault { error: err },
        );
    }

    /// Ack-starvation watchdog: when half the retransmit budget has been
    /// burned on the oldest frame with no ack progress, the control plane
    /// toward the neighbor is effectively down — raise one interrupt per
    /// episode so the OS can react before the link is declared dead.
    fn check_starvation(&mut self, host: &mut dyn HibHost) {
        let starved = self.tx().is_some_and(TxPort::ack_starved);
        if starved && !self.starvation_alarmed {
            self.starvation_alarmed = true;
            self.stats.starvation_alarms += 1;
            let attempts = self.tx().map_or(0, TxPort::consecutive_attempts);
            host.interrupt(
                self.timing.interrupt_latency,
                HibInterrupt::LinkStarved { attempts },
            );
        } else if !starved {
            self.starvation_alarmed = false;
        }
    }

    /// Counts the consumed arrival and returns its credit, unless the
    /// injector loses it on the way back upstream.
    fn return_rx_credit(&mut self, host: &mut dyn HibHost) {
        let Some(end) = self.link.as_mut() else {
            return;
        };
        let Some((up, credit)) = end.drain(host) else {
            return;
        };
        // The sender on a reliable link can never absorb a credit (it may
        // arm a timer), so only unreliable links offer one for deferral.
        if end.rx().is_some() {
            host.schedule_net(self.timing.link_prop, up, credit);
        } else {
            host.schedule_net_deferrable(self.timing.link_prop, up, credit);
        }
    }

    fn emit_resync(&self, now: SimTime, token: u64) {
        if let Some(probe) = &self.probe {
            probe.packet(PacketEvent {
                at: now,
                trace: TraceId::packet(self.node, token),
                parent: None,
                site: Site::Node(self.node),
                stage: Stage::CreditResync,
                kind: "credit-resync",
                bytes: 0,
            });
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
        // A fault-injected wedge freezes the receive pipeline: frames sit
        // in the FIFO undrained and no credits flow back until release.
        if let Some(inj) = self.link.as_ref().and_then(LinkEnd::injector) {
            if let Some(until) = inj.wedged_until(self.node, host.now()) {
                if !self.unwedge_scheduled {
                    self.unwedge_scheduled = true;
                    host.schedule_tick(until - host.now(), HibTick::RxUnwedge);
                }
                return;
            }
        }
        let Some(packet) = self.rx_fifo.pop() else {
            return;
        };
        self.stats.pkts_rx += 1;
        self.stats.bytes_rx += u64::from(packet.size_bytes());
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
                        self.stats.dup_requests += 1;
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
        if self.probe.is_some() {
            // Injections made while a received packet is being processed
            // are responses; chain them to their request.
            self.emit(host.now(), &packet, Stage::TxEnqueue, self.rx_handling);
        }
        self.last_injected = Some(packet.trace_id());
        self.recheck |= self.lazy_free && self.tx_queue.is_empty();
        self.tx_queue.push_back(packet);
        self.stats.tx_high_water = self.stats.tx_high_water.max(self.tx_queue.len());
        self.pump_tx(host);
    }

    fn pump_tx(&mut self, host: &mut dyn HibHost) {
        if self.tx_busy {
            return;
        }
        let Some(tx) = self.tx() else {
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
        self.stats.bytes_tx += u64::from(packet.size_bytes());
        if self.tx().expect("tx wired").is_reliable() {
            packet = self.tx_mut().expect("tx wired").frame(packet, host.now());
        }
        if self.probe.is_some() {
            self.emit(host.now(), &packet, Stage::TxLaunch, None);
        }
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
        self.tx_busy = true;
        // A packet queued behind this one, a waiting fence (the busy wire
        // keeps it waiting) or a reliable link keeps the `TxFree` active,
        // so it is offered for deferral only otherwise.
        if self.tx_queue.is_empty()
            && !self.fence_waiting
            && !self.tx().is_some_and(TxPort::is_reliable)
        {
            self.lazy_free = true;
            host.schedule_tick_deferrable(proc + times.free, HibTick::TxFree);
        } else {
            host.schedule_tick(proc + times.free, HibTick::TxFree);
        }
        let end = self.link.as_ref().expect("tx wired");
        if end.frame_fate(now, &mut packet) == FrameFate::Drop {
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
