//! The workstation component: CPU, MMU, private memory, shared segment,
//! HIB, and the OS layer, driven by the cluster event loop.
//!
//! # Multiprogramming model
//!
//! A node runs one or more processes ("threads" of the single simulated
//! CPU). Scheduling is faithful to the paper's hardware:
//!
//! * **Hardware-blocking operations freeze the CPU.** An uncached Alpha
//!   load (remote read, GO register) stalls the processor on the
//!   TurboChannel — no other process can run until it completes. The same
//!   holds for back-pressured stores and the FENCE.
//! * **OS-level blocks switch processes.** A blocking message receive, a
//!   VSM page fault, or a pager fault traps into the OS, which dispatches
//!   another ready process — this is where Telegraphos' *contexts with
//!   keys* (§2.2.4–2.2.5) earn their keep: each process launches special
//!   operations through its own context, and nothing is saved or restored
//!   at the HIB across switches.
//! * **Action boundaries are scheduling points** (cooperative round-robin
//!   among ready processes); launch micro-sequences are uninterruptible,
//!   standing in for the PAL-code guarantee of Telegraphos I.

use std::collections::VecDeque;
use std::rc::Rc;

use tg_hib::regs::{opcode, reg, ShadowArg};
use tg_hib::{
    CpuResult, Hib, HibConfig, HibHost, HibInterrupt, HibTick, LaunchMode, LoadOutcome,
    StoreOutcome,
};
use tg_mem::{AccessKind, Decoded, Fault, Mmu, PAddr, PhysMem, SharedWindow, VAddr};
use tg_net::NetEvent;
use tg_sim::{CompId, Component, Ctx, SimTime};
use tg_wire::trace::{Site, TraceCollector, TraceId, Tracer};
use tg_wire::{GOffset, NodeId, TimingConfig, WireMsg};

use crate::event::ClusterEvent;
use crate::os::{task, Os, OsEffect, PageTag};
use crate::process::{Action, Process, Resume};
use crate::stats::{NodeStats, OpClass};

/// Micro-instructions of a special-operation launch sequence (§2.2.4).
#[derive(Clone, Copy, Debug)]
enum MicroOp {
    /// Uncached store to a HIB register.
    RegStore(u64, u64),
    /// Store latched by the HIB (special-mode argument or shadow store).
    RawStore(PAddr, u64),
    /// The GO load that fires the operation and collects the result.
    Go(u64),
}

/// A resume waiting to be delivered, with the CPU time still to charge
/// before delivery.
#[derive(Clone, Copy, Debug)]
struct SavedResume {
    r: Resume,
    cost: SimTime,
}

#[derive(Debug)]
enum ThreadState {
    /// In the ready queue, waiting for the CPU.
    Queued(SavedResume),
    /// Currently mid-action (the chain is executing on its behalf).
    Running,
    /// Mid launch micro-sequence (uninterruptible).
    MicroSeq(VecDeque<MicroOp>),
    /// The CPU is frozen on this thread's hardware operation.
    Frozen,
    /// Blocked in the OS on a message receive.
    WaitRecv(u32),
    /// Blocked in the OS on a page fault (VSM or pager).
    WaitFault,
    /// Waiting for the node's single fault slot to free.
    WaitFaultSlot(Action),
    /// Finished.
    Halted,
}

#[derive(Debug)]
struct Thread {
    proc: Box<dyn Process>,
    state: ThreadState,
    cur_start: SimTime,
    cur_class: OpClass,
    /// Trace id of the request packet the current operation injected, for
    /// linking the CPU-level [`OpEvent`](tg_wire::trace::OpEvent) to the
    /// packet lifecycle.
    cur_trace: Option<TraceId>,
    /// Telegraphos context id + key (Telegraphos II launch).
    ctx: (u16, u32),
}

impl std::fmt::Debug for Box<dyn Process> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("<process>")
    }
}

/// One simulated workstation: the component registered with the engine.
///
/// Created by [`ClusterBuilder`](crate::ClusterBuilder); not normally
/// constructed directly.
pub struct Node {
    id: NodeId,
    name: String,
    timing: TimingConfig,
    launch_mode: LaunchMode,
    mmu: Mmu,
    private: PhysMem,
    segment: PhysMem,
    hib: Hib,
    os: Os,
    threads: Vec<Thread>,
    /// Ready-queue of thread indices (round-robin).
    rq: VecDeque<usize>,
    /// True while a `CpuStep` is scheduled.
    step_scheduled: bool,
    /// Thread the CPU is frozen on (hardware-blocking op in flight).
    frozen: Option<usize>,
    /// Thread mid launch micro-sequence.
    micro_thread: Option<usize>,
    /// Thread whose OS fault is in progress, with the action to retry.
    fault_thread: Option<(usize, Action)>,
    /// VSM DONE notifications held back until the faulted access has been
    /// retried — otherwise the manager could grant a racing invalidation
    /// into the retry window and livelock the page (ping-pong before any
    /// instruction completes).
    deferred_os_sends: Vec<(NodeId, WireMsg)>,
    stats: NodeStats,
    outbox: Vec<Outgoing>,
    /// Engine time of the event being handled, mirrored into the HIB host
    /// shim so the HIB can timestamp observability events.
    now: SimTime,
    /// Operation trace handle; `None` (the default) costs one branch per
    /// completed operation.
    tracer: Option<Tracer>,
    /// Watchdog progress meter, ticked on every completed CPU operation.
    meter: Option<tg_sim::ProgressMeter>,
    /// Deliveries per event variant, indexed by [`ClusterEvent::kind`];
    /// events handled in place or absorbed are not deliveries.
    kinds: [u64; ClusterEvent::KINDS.len()],
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("threads", &self.threads.len())
            .field("frozen", &self.frozen)
            .finish_non_exhaustive()
    }
}

/// Where an event scheduled during one delivery goes, and whether its
/// receiver may absorb it (see [`Ctx::send_deferrable`]).
#[derive(Clone, Copy)]
enum To {
    Me,
    MeDeferrable,
    Peer(CompId),
    PeerDeferrable(CompId),
}

/// An event scheduled while the node handles one delivery.
type Outgoing = (SimTime, To, ClusterEvent);

/// Host shim: buffers HIB requests for the node to drain into the engine.
struct Shim<'a> {
    segment: &'a mut PhysMem,
    out: &'a mut Vec<Outgoing>,
    now: SimTime,
}

impl HibHost for Shim<'_> {
    fn schedule_net(&mut self, delay: SimTime, dst: CompId, ev: NetEvent) {
        self.out.push((delay, To::Peer(dst), ClusterEvent::Net(ev)));
    }
    fn schedule_tick(&mut self, delay: SimTime, tick: HibTick) {
        self.out.push((delay, To::Me, ClusterEvent::HibTick(tick)));
    }
    fn schedule_net_deferrable(&mut self, delay: SimTime, dst: CompId, ev: NetEvent) {
        self.out
            .push((delay, To::PeerDeferrable(dst), ClusterEvent::Net(ev)));
    }
    fn schedule_tick_deferrable(&mut self, delay: SimTime, tick: HibTick) {
        self.out
            .push((delay, To::MeDeferrable, ClusterEvent::HibTick(tick)));
    }
    fn cpu_complete(&mut self, delay: SimTime, res: CpuResult) {
        self.out.push((delay, To::Me, ClusterEvent::HibDone(res)));
    }
    fn interrupt(&mut self, delay: SimTime, int: HibInterrupt) {
        self.out.push((delay, To::Me, ClusterEvent::Interrupt(int)));
    }
    fn to_os(&mut self, delay: SimTime, _src: NodeId, msg: WireMsg) {
        self.out.push((delay, To::Me, ClusterEvent::OsMsg { msg }));
    }
    fn segment(&mut self) -> &mut PhysMem {
        self.segment
    }
    fn now(&self) -> SimTime {
        self.now
    }
}

/// Delay for looping an OS message back to ourselves (local trap handling).
const OS_LOOPBACK: SimTime = SimTime::from_ns(500);
/// DMA burst size for the messaging baseline.
const DMA_BURST: u32 = 1024;
/// Words per `PageData` burst of an OS page stream.
const PAGE_BURST: u32 = 64;

impl Node {
    /// Creates a workstation node (cluster-builder internal).
    pub(crate) fn new(
        id: NodeId,
        timing: TimingConfig,
        hib_config: HibConfig,
        os: Os,
        window: Rc<SharedWindow>,
    ) -> Self {
        let launch_mode = hib_config.launch_mode;
        let hib = Hib::new(id, hib_config, timing.clone());
        Node {
            id,
            name: format!("node{}", id.raw()),
            timing,
            launch_mode,
            mmu: Mmu::with_window(id, window),
            private: PhysMem::new(),
            segment: PhysMem::new(),
            hib,
            os,
            threads: Vec::new(),
            rq: VecDeque::new(),
            step_scheduled: false,
            frozen: None,
            micro_thread: None,
            fault_thread: None,
            deferred_os_sends: Vec::new(),
            stats: NodeStats::default(),
            outbox: Vec::new(),
            now: SimTime::ZERO,
            tracer: None,
            meter: None,
            kinds: [0; ClusterEvent::KINDS.len()],
        }
    }

    /// The node id.
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// Installs a process (run from the engine's `Start` event).
    /// Equivalent to [`Node::add_process`]; kept for the common
    /// one-process-per-workstation case.
    pub(crate) fn set_process(&mut self, p: Box<dyn Process>) {
        self.add_process(p);
    }

    /// Adds a process to this workstation. Each process receives its own
    /// Telegraphos context and key (§2.2.4); processes are scheduled
    /// cooperatively, switching on OS-level blocks.
    pub(crate) fn add_process(&mut self, p: Box<dyn Process>) -> usize {
        let idx = self.threads.len();
        let key = 0x5EED_0000 | (u32::from(self.id.raw()) << 8) | idx as u32;
        if self.launch_mode == LaunchMode::ContextShadow {
            self.hib.install_context_key(idx, key);
        }
        self.threads.push(Thread {
            proc: p,
            state: ThreadState::Queued(SavedResume {
                r: Resume::Start,
                cost: SimTime::ZERO,
            }),
            cur_start: SimTime::ZERO,
            cur_class: OpClass::Compute,
            cur_trace: None,
            ctx: (idx as u16, key),
        });
        idx
    }

    /// The node's MMU (cluster-builder mapping operations).
    pub fn mmu_mut(&mut self) -> &mut Mmu {
        &mut self.mmu
    }

    /// The node's MMU (address-map read-out).
    pub(crate) fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// The node's HIB (cluster-builder driver operations).
    pub(crate) fn hib_mut(&mut self) -> &mut Hib {
        &mut self.hib
    }

    /// The node's HIB (link-state inspection).
    pub fn hib(&self) -> &Hib {
        &self.hib
    }

    /// Installs a watchdog progress meter on this node and its HIB: the
    /// CPU ticks it on every completed operation, the HIB on every
    /// committed packet.
    pub(crate) fn set_progress_meter(&mut self, meter: tg_sim::ProgressMeter) {
        self.hib.set_progress_meter(meter.clone());
        self.meter = Some(meter);
    }

    /// HIB statistics.
    pub fn hib_stats(&self) -> tg_hib::HibStats {
        self.hib.stats()
    }

    /// Records this node's operation events, and its HIB's packet events,
    /// into `log`. Without a log, every hook is a single `None` branch.
    pub(crate) fn set_tracer(&mut self, log: &TraceCollector) {
        self.hib.set_tracer(log);
        self.tracer = Some(log.tracer(Site::Node(self.id)));
    }

    /// Packets currently queued for transmission at the HIB.
    pub(crate) fn tx_queue_depth(&self) -> usize {
        self.hib.tx_queue_depth()
    }

    /// The HIB's pending-write CAM (experiment E7).
    pub fn cam(&self) -> &tg_proto::PendingCam {
        self.hib.cam()
    }

    /// CPU-side statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Events delivered to this node per variant, indexed by
    /// [`ClusterEvent::kind`].
    pub(crate) fn event_kinds(&self) -> [u64; ClusterEvent::KINDS.len()] {
        self.kinds
    }

    /// The OS layer (cluster-builder configuration).
    pub fn os_mut(&mut self) -> &mut Os {
        &mut self.os
    }

    /// Reads a word of the exported shared segment (inspection).
    pub(crate) fn segment_read(&self, off: GOffset) -> u64 {
        self.segment.read(off)
    }

    /// Writes a word of the exported shared segment (test setup).
    pub fn segment_write(&mut self, off: GOffset, val: u64) {
        self.segment.write(off, val);
    }

    /// True if at least one process was installed on this node.
    pub(crate) fn has_process(&self) -> bool {
        !self.threads.is_empty()
    }

    /// True when every installed process has halted.
    pub fn halted(&self) -> bool {
        self.has_process()
            && self
                .threads
                .iter()
                .all(|t| matches!(t.state, ThreadState::Halted))
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    fn schedule_self(&mut self, delay: SimTime, ev: ClusterEvent) {
        self.outbox.push((delay, To::Me, ev));
    }

    /// Ensures exactly one `CpuStep` is pending (unless the CPU is frozen
    /// or mid micro-sequence, whose steps are scheduled explicitly).
    fn kick(&mut self, delay: SimTime) {
        if self.step_scheduled || self.frozen.is_some() || self.micro_thread.is_some() {
            return;
        }
        if self.rq.is_empty() {
            return;
        }
        self.step_scheduled = true;
        self.schedule_self(delay, ClusterEvent::CpuStep);
    }

    /// Schedules the next micro-sequence step (bypasses the ready queue).
    fn kick_micro(&mut self, delay: SimTime) {
        debug_assert!(self.micro_thread.is_some());
        debug_assert!(!self.step_scheduled);
        self.step_scheduled = true;
        self.schedule_self(delay, ClusterEvent::CpuStep);
    }

    /// Queues `r` for delivery to thread `i` after charging `cost`.
    fn requeue(&mut self, i: usize, r: Resume, cost: SimTime) {
        self.threads[i].state = ThreadState::Queued(SavedResume { r, cost });
        self.rq.push_back(i);
    }

    fn step_cpu(&mut self, now: SimTime) {
        self.step_scheduled = false;
        if let Some(m) = self.micro_thread {
            self.step_micro(m, now);
            return;
        }
        let Some(i) = self.rq.pop_front() else {
            return; // CPU idles; the next unblock kicks the chain.
        };
        let saved = match std::mem::replace(&mut self.threads[i].state, ThreadState::Running) {
            ThreadState::Queued(s) => s,
            other => unreachable!("queued thread in state {other:?}"),
        };
        if !saved.cost.is_zero() {
            // Charge the CPU time, then deliver (thread stays at the front).
            self.threads[i].state = ThreadState::Queued(SavedResume {
                r: saved.r,
                cost: SimTime::ZERO,
            });
            self.rq.push_front(i);
            self.step_scheduled = true;
            self.schedule_self(saved.cost, ClusterEvent::CpuStep);
            return;
        }
        if !matches!(saved.r, Resume::Start) {
            let (class, start) = (self.threads[i].cur_class, self.threads[i].cur_start);
            self.stats.record(class, now - start);
            if let Some(meter) = self.meter.as_ref() {
                meter.tick();
            }
            if let (Some(tracer), Some(kind)) = (&self.tracer, class.op_kind()) {
                tracer.op(kind, start, now, self.threads[i].cur_trace.take());
            }
        }
        let action = self.threads[i].proc.resume_at(saved.r, now);
        self.dispatch(i, action, now, true);
    }

    fn dispatch(&mut self, i: usize, action: Action, now: SimTime, fresh: bool) {
        if fresh {
            self.threads[i].cur_start = now;
            self.threads[i].cur_trace = None;
        }
        match action {
            Action::Halt => {
                self.threads[i].state = ThreadState::Halted;
                if self.halted() {
                    self.stats.halted_at = Some(now);
                }
                self.kick(SimTime::ZERO);
            }
            Action::Compute(d) => {
                self.threads[i].cur_class = OpClass::Compute;
                self.requeue(i, Resume::Done, d);
                self.kick(SimTime::ZERO);
            }
            Action::Read(va) => self.do_read(i, va, action),
            Action::Write(va, val) => self.do_write(i, va, val, action),
            Action::FetchStore(va, v) => {
                self.launch_atomic(i, opcode::FETCH_STORE, va, v, 0, action)
            }
            Action::FetchAdd(va, v) => self.launch_atomic(i, opcode::FETCH_INC, va, v, 0, action),
            Action::CompareSwap(va, expect, new) => {
                self.launch_atomic(i, opcode::COMPARE_SWAP, va, expect, new, action)
            }
            Action::Copy { from, to, words } => self.launch_copy(i, from, to, words, action),
            Action::Fence => {
                self.threads[i].cur_class = OpClass::Fence;
                if self.hib.fence() {
                    self.requeue(i, Resume::Done, self.timing.tc_write_latch);
                    self.kick(SimTime::ZERO);
                } else {
                    self.freeze(i);
                }
            }
            Action::Send { dst, bytes, tag } => self.do_send(i, dst, bytes, tag),
            Action::Recv { tag } => self.do_recv(i, tag),
        }
    }

    /// The CPU stalls on a hardware operation: nothing runs until the HIB
    /// completes it.
    fn freeze(&mut self, i: usize) {
        debug_assert!(self.frozen.is_none(), "CPU already frozen");
        self.threads[i].state = ThreadState::Frozen;
        self.frozen = Some(i);
    }

    fn unfreeze(&mut self, r: Resume, cost: SimTime) {
        let i = self.frozen.take().expect("completion without a frozen op");
        debug_assert!(matches!(self.threads[i].state, ThreadState::Frozen));
        self.requeue(i, r, cost);
        self.kick(SimTime::ZERO);
    }

    // ------------------------------------------------------------------
    // Action execution
    // ------------------------------------------------------------------

    fn translate(
        &mut self,
        i: usize,
        va: VAddr,
        kind: AccessKind,
        action: Action,
    ) -> Option<PAddr> {
        match self.mmu.translate(va, kind) {
            Ok(pa) => Some(pa),
            Err(fault) => {
                self.take_fault(i, va, fault, action);
                None
            }
        }
    }

    fn take_fault(&mut self, i: usize, va: VAddr, fault: Fault, action: Action) {
        let vpage = va.vpage();
        // The access kind that must be granted on retry follows from the
        // faulting action, not from the fault variant.
        let write = matches!(
            action,
            Action::Write(..)
                | Action::FetchStore(..)
                | Action::FetchAdd(..)
                | Action::CompareSwap(..)
                | Action::Copy { .. }
        );
        let managed = self.os.vsm.manages(vpage) || self.os.pager_manages(vpage);
        if !managed {
            panic!("{}: unhandled {fault} during {action:?}", self.name);
        }
        self.stats.faults += 1;
        if self.fault_thread.is_some() {
            // One OS fault at a time; this thread waits for the slot.
            self.threads[i].state = ThreadState::WaitFaultSlot(action);
            self.kick(SimTime::ZERO);
            return;
        }
        self.fault_thread = Some((i, action));
        self.threads[i].state = ThreadState::WaitFault;
        let kind_task = if self.os.vsm.manages(vpage) {
            task::VSM_FAULT
        } else {
            task::PAGER_FAULT
        };
        self.schedule_self(
            self.timing.os_trap,
            ClusterEvent::OsTask {
                kind: kind_task,
                a: vpage,
                b: u64::from(write),
            },
        );
        // The OS switches to another ready process while the fault is
        // serviced.
        self.kick(SimTime::ZERO);
    }

    fn do_read(&mut self, i: usize, va: VAddr, action: Action) {
        let Some(pa) = self.translate(i, va, AccessKind::Read, action) else {
            return;
        };
        match pa.decode() {
            Decoded::Private { off } => {
                self.threads[i].cur_class = OpClass::Private;
                let v = self.private.read(GOffset::new(off));
                self.requeue(i, Resume::Value(v), self.timing.local_mem_access);
                self.kick(SimTime::ZERO);
            }
            Decoded::Remote { node, .. } if node != self.id => {
                self.threads[i].cur_class = OpClass::RemoteRead;
                match self.with_hib_traced(i, |hib, shim| hib.cpu_load(pa, shim)) {
                    LoadOutcome::Pending => self.freeze(i),
                    LoadOutcome::Ready(v) => {
                        self.requeue(i, Resume::Value(v), self.timing.tc_read_overhead);
                        self.kick(SimTime::ZERO);
                    }
                    LoadOutcome::Fault(f) => panic!("{}: read fault {f}", self.name),
                }
            }
            _ => {
                self.threads[i].cur_class = OpClass::LocalRead;
                self.os.pager_touch(va.vpage());
                match self.with_hib(|hib, shim| hib.cpu_load(pa, shim)) {
                    LoadOutcome::Ready(v) => {
                        self.requeue(i, Resume::Value(v), self.timing.tc_local_shared_read);
                        self.kick(SimTime::ZERO);
                    }
                    other => panic!("{}: local read came back {other:?}", self.name),
                }
            }
        }
    }

    fn do_write(&mut self, i: usize, va: VAddr, val: u64, action: Action) {
        let Some(pa) = self.translate(i, va, AccessKind::Write, action) else {
            return;
        };
        match pa.decode() {
            Decoded::Private { off } => {
                self.threads[i].cur_class = OpClass::Private;
                self.private.write(GOffset::new(off), val);
                self.requeue(i, Resume::Done, self.timing.local_mem_access);
                self.kick(SimTime::ZERO);
            }
            region => {
                self.threads[i].cur_class = match region {
                    Decoded::Remote { node, .. } if node != self.id => OpClass::RemoteWrite,
                    _ => OpClass::LocalWrite,
                };
                if matches!(self.threads[i].cur_class, OpClass::LocalWrite) {
                    self.os.pager_touch(va.vpage());
                }
                match self.with_hib_traced(i, |hib, shim| hib.cpu_store(pa, val, shim)) {
                    StoreOutcome::Done => {
                        self.requeue(i, Resume::Done, self.timing.tc_write_latch);
                        self.kick(SimTime::ZERO);
                    }
                    StoreOutcome::Stalled => self.freeze(i),
                    StoreOutcome::Fault(f) => panic!("{}: write fault {f}", self.name),
                }
            }
        }
    }

    fn launch_atomic(&mut self, i: usize, op: u64, va: VAddr, d0: u64, d1: u64, action: Action) {
        let Some(target) = self.translate(i, va, AccessKind::Write, action) else {
            return;
        };
        self.threads[i].cur_class = OpClass::Atomic;
        let mut ops = VecDeque::new();
        let mut pre = SimTime::ZERO;
        match self.launch_mode {
            LaunchMode::SpecialModePal => {
                pre += self.timing.pal_entry;
                ops.push_back(MicroOp::RegStore(reg::SPECIAL_MODE, op));
                ops.push_back(MicroOp::RawStore(target, d0));
                if op == opcode::COMPARE_SWAP {
                    ops.push_back(MicroOp::RawStore(target, d1));
                }
                ops.push_back(MicroOp::Go(reg::GO));
            }
            LaunchMode::ContextShadow => {
                let (ctx, key) = self.threads[i].ctx;
                let base = reg::CTX_BASE + u64::from(ctx) * reg::CTX_STRIDE;
                ops.push_back(MicroOp::RegStore(base + reg::SLOT_OP * 8, op));
                ops.push_back(MicroOp::RegStore(base + reg::SLOT_DATUM0 * 8, d0));
                if op == opcode::COMPARE_SWAP {
                    ops.push_back(MicroOp::RegStore(base + reg::SLOT_DATUM1 * 8, d1));
                }
                let arg = ShadowArg { ctx, key, slot: 0 };
                ops.push_back(MicroOp::RawStore(target.shadow(), arg.encode()));
                ops.push_back(MicroOp::Go(base + reg::SLOT_GO * 8));
            }
        }
        self.threads[i].state = ThreadState::MicroSeq(ops);
        self.micro_thread = Some(i);
        self.kick_micro(pre);
    }

    fn launch_copy(&mut self, i: usize, from: VAddr, to: VAddr, words: u32, action: Action) {
        let Some(src) = self.translate(i, from, AccessKind::Read, action) else {
            return;
        };
        let Some(dst) = self.translate(i, to, AccessKind::Write, action) else {
            return;
        };
        self.threads[i].cur_class = OpClass::Copy;
        let mut ops = VecDeque::new();
        let mut pre = SimTime::ZERO;
        match self.launch_mode {
            LaunchMode::SpecialModePal => {
                pre += self.timing.pal_entry;
                ops.push_back(MicroOp::RegStore(reg::SPECIAL_MODE, opcode::COPY));
                ops.push_back(MicroOp::RawStore(src, u64::from(words)));
                ops.push_back(MicroOp::RawStore(dst, 0));
                ops.push_back(MicroOp::Go(reg::GO));
            }
            LaunchMode::ContextShadow => {
                let (ctx, key) = self.threads[i].ctx;
                let base = reg::CTX_BASE + u64::from(ctx) * reg::CTX_STRIDE;
                ops.push_back(MicroOp::RegStore(base + reg::SLOT_OP * 8, opcode::COPY));
                ops.push_back(MicroOp::RegStore(
                    base + reg::SLOT_DATUM0 * 8,
                    u64::from(words),
                ));
                let a0 = ShadowArg { ctx, key, slot: 0 };
                let a1 = ShadowArg { ctx, key, slot: 1 };
                ops.push_back(MicroOp::RawStore(src.shadow(), a0.encode()));
                ops.push_back(MicroOp::RawStore(dst.shadow(), a1.encode()));
                ops.push_back(MicroOp::Go(base + reg::SLOT_GO * 8));
            }
        }
        self.threads[i].state = ThreadState::MicroSeq(ops);
        self.micro_thread = Some(i);
        self.kick_micro(pre);
    }

    fn step_micro(&mut self, i: usize, _now: SimTime) {
        let op = match &mut self.threads[i].state {
            ThreadState::MicroSeq(ops) => ops.pop_front().expect("non-empty micro sequence"),
            other => unreachable!("micro thread in state {other:?}"),
        };
        match op {
            MicroOp::RegStore(r, val) => {
                let pa = PAddr::hib_reg(r);
                match self.with_hib(|hib, shim| hib.cpu_store(pa, val, shim)) {
                    StoreOutcome::Done => {}
                    other => panic!("{}: register store failed: {other:?}", self.name),
                }
                self.kick_micro(self.timing.tc_write_latch);
            }
            MicroOp::RawStore(pa, val) => {
                match self.with_hib(|hib, shim| hib.cpu_store(pa, val, shim)) {
                    StoreOutcome::Done => {}
                    other => panic!("{}: launch-argument store failed: {other:?}", self.name),
                }
                self.kick_micro(self.timing.tc_write_latch);
            }
            MicroOp::Go(r) => {
                self.micro_thread = None;
                let pa = PAddr::hib_reg(r);
                match self.with_hib_traced(i, |hib, shim| hib.cpu_load(pa, shim)) {
                    LoadOutcome::Pending => self.freeze(i),
                    LoadOutcome::Ready(v) => {
                        let resume = self.finish_value(i, v);
                        self.requeue(i, resume, self.timing.tc_local_shared_read);
                        self.kick(SimTime::ZERO);
                    }
                    LoadOutcome::Fault(f) => panic!("{}: launch failed: {f}", self.name),
                }
            }
        }
    }

    /// Copies resume with `Done` (non-blocking); atomics with the value.
    fn finish_value(&mut self, i: usize, v: u64) -> Resume {
        if self.threads[i].cur_class == OpClass::Copy {
            Resume::Done
        } else {
            Resume::Value(v)
        }
    }

    fn do_send(&mut self, i: usize, dst: NodeId, bytes: u32, tag: u32) {
        self.threads[i].cur_class = OpClass::Send;
        let cost = self.timing.os_trap + self.timing.copy_cost(u64::from(bytes));
        if dst == self.id {
            // Local loopback message.
            self.schedule_self(
                cost + OS_LOOPBACK,
                ClusterEvent::OsMsg {
                    msg: WireMsg::DmaData {
                        tag,
                        nbytes: bytes,
                        last: true,
                    },
                },
            );
        } else {
            let mut sent = 0;
            while sent < bytes {
                let n = DMA_BURST.min(bytes - sent);
                let last = sent + n >= bytes;
                let accepted = self.with_hib_traced(i, |hib, shim| {
                    hib.send_os_message(
                        dst,
                        WireMsg::DmaData {
                            tag,
                            nbytes: n,
                            last,
                        },
                        shim,
                    )
                });
                if !accepted {
                    // The destination is already convicted: fail the send
                    // at issue time instead of streaming DMA bursts into a
                    // dead link's retry budget.
                    self.stats.op_failures += 1;
                    self.requeue(
                        i,
                        Resume::Failed(tg_hib::OpError::PeerUnreachable { peer: dst }),
                        cost,
                    );
                    self.kick(SimTime::ZERO);
                    return;
                }
                sent += n;
            }
        }
        self.requeue(i, Resume::Done, cost);
        self.kick(SimTime::ZERO);
    }

    fn do_recv(&mut self, i: usize, tag: u32) {
        self.threads[i].cur_class = OpClass::Recv;
        if let Some(bytes) = self.os.take_message(tag) {
            let cost = self.timing.os_trap + self.timing.copy_cost(bytes);
            self.requeue(i, Resume::Value(bytes), cost);
        } else {
            // OS-level block: the scheduler runs another process.
            self.threads[i].state = ThreadState::WaitRecv(tag);
        }
        self.kick(SimTime::ZERO);
    }

    // ------------------------------------------------------------------
    // Completions, interrupts, OS
    // ------------------------------------------------------------------

    fn on_hib_done(&mut self, res: CpuResult) {
        match res {
            CpuResult::LoadDone { val } => {
                self.unfreeze(Resume::Value(val), self.timing.tc_read_overhead)
            }
            CpuResult::LaunchDone { result } => {
                let i = *self.frozen.as_ref().expect("frozen launch");
                let r = self.finish_value(i, result);
                self.unfreeze(r, self.timing.tc_read_overhead);
            }
            CpuResult::StoreRetired => self.unfreeze(Resume::Done, SimTime::ZERO),
            CpuResult::FenceDone => self.unfreeze(Resume::Done, SimTime::ZERO),
            CpuResult::OpFailed { err } => {
                // A blocking remote operation resolved structurally (its
                // destination was convicted dead) instead of completing:
                // release the CPU with the failure, never stall forever.
                self.stats.op_failures += 1;
                self.unfreeze(Resume::Failed(err), self.timing.tc_read_overhead);
            }
        }
    }

    fn on_interrupt(&mut self, int: HibInterrupt) {
        match int {
            HibInterrupt::PageAlarm { node, page, .. } => {
                if !self.os.wants_replication(node, page) {
                    return;
                }
                if let Some(vpage) = self.mmu.remote_vpage(node, page) {
                    self.schedule_self(
                        self.timing.os_trap,
                        ClusterEvent::OsTask {
                            kind: task::REPLICATE,
                            a: vpage,
                            b: u64::from(node.raw()) << 32 | u64::from(page.raw()),
                        },
                    );
                }
            }
            HibInterrupt::LinkFault { .. } => {
                // The OS records the degradation; recovery (or the
                // watchdog's deadlock report) is the cluster's business.
                self.stats.link_failures += 1;
            }
            HibInterrupt::PeerDown { peer } => {
                // Crash-stop conviction: fail over VSM ownership and any
                // fault in flight toward the dead node, and release a
                // pager fetch bound for a dead memory server.
                self.stats.peer_downs += 1;
                let mut fx = self.os.vsm.on_peer_down(peer);
                if let Some(p) = self.os.pager.as_mut() {
                    fx.extend(p.on_peer_down(peer));
                }
                self.apply_effects(fx);
            }
            HibInterrupt::PeerUp { peer } => {
                // Crash-stop restart: reconcile — copies of pages the
                // restarted node manages are stale against its rebuilt
                // directory and must refault.
                self.stats.peer_ups += 1;
                let fx = self.os.vsm.on_peer_up(peer);
                self.apply_effects(fx);
                if let Some(p) = self.os.pager.as_mut() {
                    p.on_peer_up(peer);
                }
            }
        }
    }

    /// Releases the thread frozen on an OS page fault with a structured
    /// failure: the home/server the fault depended on was convicted dead.
    fn fail_fault_thread(&mut self, peer: NodeId) {
        let Some((i, _action)) = self.fault_thread.take() else {
            return; // the fault resolved before the conviction landed
        };
        debug_assert!(matches!(self.threads[i].state, ThreadState::WaitFault));
        self.stats.op_failures += 1;
        self.requeue(
            i,
            Resume::Failed(tg_hib::OpError::PeerUnreachable { peer }),
            self.timing.os_trap,
        );
        self.kick(SimTime::ZERO);
        self.start_queued_fault();
    }

    fn on_os_task(&mut self, kind: u16, a: u64, b: u64) {
        match kind {
            task::VSM_FAULT => {
                let home = self.os.vsm.home(a);
                let effects = if home != self.id && self.hib.peer_down(home) {
                    // Fail fast: the manager is already convicted dead.
                    // Sending the request into the void would only stall
                    // the thread until the next conviction sweep.
                    self.os.vsm.fail_fast_fault(a)
                } else {
                    self.os.vsm.on_fault(a, b != 0)
                };
                self.apply_effects(effects);
            }
            task::VSM_RETRY => {
                let (i, action) = self
                    .fault_thread
                    .take()
                    .expect("retry without pending fault");
                // Keep cur_start: the fault time counts into the op latency.
                let start = self.threads[i].cur_start;
                self.dispatch(i, action, start, false);
                // Only now tell the manager we are done: the access above
                // has executed against the fresh mapping, so a subsequent
                // invalidation can no longer starve it.
                for (dst, msg) in std::mem::take(&mut self.deferred_os_sends) {
                    self.send_os(dst, msg);
                }
                self.start_queued_fault();
            }
            task::REPLICATE => {
                let home = NodeId::new((b >> 32) as u16);
                let page = tg_wire::PageNum::new(b as u32);
                let effects = self.os.start_replication(home, page, a);
                self.apply_effects(effects);
            }
            task::PAGER_FAULT => {
                let effects = self.pager().on_fault(a);
                self.apply_effects(effects);
            }
            task::PAGER_DISK_DONE => {
                let effects = self.pager().on_disk_done(a);
                self.apply_effects(effects);
            }
            other => unreachable!("unknown OS task {other:#x}"),
        }
    }

    /// After a fault resolves, admit the next thread waiting for the
    /// fault slot by re-dispatching its access.
    fn start_queued_fault(&mut self) {
        if self.fault_thread.is_some() {
            return;
        }
        let waiting = self
            .threads
            .iter()
            .position(|t| matches!(t.state, ThreadState::WaitFaultSlot(_)));
        if let Some(j) = waiting {
            let action = match std::mem::replace(&mut self.threads[j].state, ThreadState::Running) {
                ThreadState::WaitFaultSlot(a) => a,
                other => unreachable!("checked state, got {other:?}"),
            };
            let start = self.threads[j].cur_start;
            self.dispatch(j, action, start, false);
        }
    }

    /// The pager (configured on every node that takes pager faults).
    fn pager(&mut self) -> &mut crate::pager::RemotePager {
        self.os.pager.as_mut().expect("pager work without a pager")
    }

    fn on_os_msg(&mut self, msg: WireMsg) {
        let effects = match msg {
            WireMsg::OsCtl { kind, a, b } => self.os.vsm.on_ctl(kind, a, b),
            WireMsg::PageData {
                tag,
                index,
                vals,
                last,
            } => match PageTag::decode(tag) {
                Some(PageTag::Vsm(gpage)) => self.os.vsm.on_page_data(gpage, index, vals, last),
                Some(PageTag::Replica(n)) => self.os.replication_data(n, index, vals, last),
                Some(PageTag::Fetch(vpage)) => self.pager().on_page_data(vpage, index, vals, last),
                // We are a memory server receiving an evicted page.
                Some(PageTag::Push(frame)) => vec![OsEffect::WriteBurst { frame, index, vals }],
                None => unreachable!("{}: untagged page data {tag:#x}", self.name),
            },
            WireMsg::DmaData { tag, nbytes, last } => {
                if self.os.accept_dma(tag, nbytes, last).is_some() {
                    let waiting = self
                        .threads
                        .iter()
                        .position(|t| matches!(t.state, ThreadState::WaitRecv(w) if w == tag));
                    if let Some(i) = waiting {
                        let total = self.os.take_message(tag).expect("just completed");
                        let cost = self.timing.os_trap + self.timing.copy_cost(total);
                        self.requeue(i, Resume::Value(total), cost);
                        self.kick(SimTime::ZERO);
                    }
                }
                return;
            }
            // Hardware-served page fetch; nothing for this OS to do.
            WireMsg::PageFetchReq { .. } => return,
            // Unclaimed software traffic is a wiring bug.
            other => unreachable!("{}: unhandled OS message {other:?}", self.name),
        };
        self.apply_effects(effects);
    }

    /// Sends an OS message through the HIB, or loops it back after
    /// [`OS_LOOPBACK`] if it is addressed to this node.
    fn send_os(&mut self, dst: NodeId, msg: WireMsg) {
        if dst == self.id {
            self.schedule_self(OS_LOOPBACK, ClusterEvent::OsMsg { msg });
        } else {
            self.with_hib(|hib, shim| hib.send_os_message(dst, msg, shim));
        }
    }

    /// Executes an OS protocol's effects in order. A batch that resumes a
    /// fault holds its VSM done-notices back until the retried access has
    /// run (see `deferred_os_sends`).
    fn apply_effects(&mut self, effects: Vec<OsEffect>) {
        let retrying = effects.contains(&OsEffect::Resume);
        for eff in effects {
            match eff {
                OsEffect::Send { dst, msg } => {
                    if retrying && crate::vsm::is_done_notice(&msg) {
                        self.deferred_os_sends.push((dst, msg));
                    } else {
                        self.send_os(dst, msg);
                    }
                }
                OsEffect::SendPage { dst, tag, frame } => {
                    debug_assert_ne!(dst, self.id, "page to self");
                    let words = tg_wire::PAGE_WORDS as u32;
                    let mut index = 0;
                    while index < words {
                        let n = PAGE_BURST.min(words - index);
                        let vals = self
                            .segment
                            .read_block(frame.base().add(u64::from(index) * 8), u64::from(n));
                        let last = index + n >= words;
                        let msg = WireMsg::PageData {
                            tag,
                            index,
                            vals: vals.into(),
                            last,
                        };
                        self.with_hib(|hib, shim| hib.send_os_message(dst, msg, shim));
                        index += n;
                    }
                }
                OsEffect::WriteBurst { frame, index, vals } => {
                    self.segment
                        .write_block(frame.base().add(u64::from(index) * 8), &vals);
                }
                OsEffect::Map {
                    vpage,
                    frame,
                    writable,
                } => {
                    let flags = if writable {
                        tg_mem::PageFlags::RW
                    } else {
                        tg_mem::PageFlags::RO
                    };
                    self.mmu
                        .table_mut()
                        .map(vpage, PAddr::local_shared(frame.base()), flags);
                }
                OsEffect::Unmap { vpage } => {
                    self.mmu.table_mut().unmap(vpage);
                }
                OsEffect::DisarmCounters { node, page } => {
                    self.hib.shared_map().disarm_counters(node, page);
                }
                OsEffect::DiskWait { vpage } => {
                    // Disk transfer: eviction write-back overlaps the fetch.
                    self.schedule_self(
                        self.timing.disk_page_transfer,
                        ClusterEvent::OsTask {
                            kind: task::PAGER_DISK_DONE,
                            a: vpage,
                            b: 0,
                        },
                    );
                }
                OsEffect::Resume => {
                    // Charge map + trap-return costs, then retry the access.
                    self.schedule_self(
                        self.timing.os_page_map + self.timing.os_trap,
                        ClusterEvent::OsTask {
                            kind: task::VSM_RETRY,
                            a: 0,
                            b: 0,
                        },
                    );
                }
                OsEffect::FailFault { peer, .. } => self.fail_fault_thread(peer),
            }
        }
        // The protocols count their own decisions; NodeStats reports them.
        self.stats.invalidations = self.os.vsm.invalidations;
        self.stats.replications = self.os.replications;
    }

    fn with_hib<R>(&mut self, f: impl FnOnce(&mut Hib, &mut Shim<'_>) -> R) -> R {
        let mut shim = Shim {
            segment: &mut self.segment,
            out: &mut self.outbox,
            now: self.now,
        };
        f(&mut self.hib, &mut shim)
    }

    /// Like [`Node::with_hib`], but attributes any packet the call injects
    /// to thread `i`'s current operation (for its traced op event). Stale
    /// injections from interleaved rx handling are discarded first.
    fn with_hib_traced<R>(&mut self, i: usize, f: impl FnOnce(&mut Hib, &mut Shim<'_>) -> R) -> R {
        if self.tracer.is_some() {
            let _ = self.hib.take_last_injected();
        }
        let r = self.with_hib(f);
        if self.tracer.is_some() {
            if let Some(t) = self.hib.take_last_injected() {
                self.threads[i].cur_trace = Some(t);
            }
        }
        r
    }
}

impl Node {
    /// Handles one event at `self.now`, buffering what it sends in the
    /// outbox.
    fn handle(&mut self, ev: ClusterEvent) {
        match ev {
            ClusterEvent::Start => {
                // Build the ready queue from every queued (fresh) process.
                self.rq.clear();
                for (i, t) in self.threads.iter().enumerate() {
                    if matches!(t.state, ThreadState::Queued(_)) {
                        self.rq.push_back(i);
                    }
                }
                self.kick(SimTime::ZERO);
            }
            ClusterEvent::CpuStep => self.step_cpu(self.now),
            ClusterEvent::Net(nev) => self.with_hib(|hib, shim| hib.on_net(nev, shim)),
            ClusterEvent::HibTick(t) => self.with_hib(|hib, shim| hib.on_tick(t, shim)),
            ClusterEvent::HibDone(res) => self.on_hib_done(res),
            ClusterEvent::Interrupt(int) => self.on_interrupt(int),
            ClusterEvent::OsMsg { msg } => self.on_os_msg(msg),
            ClusterEvent::OsTask { kind, a, b } => self.on_os_task(kind, a, b),
        }
    }
}

impl Component<ClusterEvent> for Node {
    fn on_event(&mut self, ev: ClusterEvent, ctx: &mut Ctx<'_, ClusterEvent>) {
        self.now = ctx.now();
        self.kinds[ev.kind()] += 1;
        self.handle(ev);
        // Same-instant continuations (DESIGN.md §7): while nothing else is
        // due now, the first zero-delay event sent to ourselves would be
        // the next delivery, so handle it here instead of queueing it.
        loop {
            if self.hib.take_recheck() {
                ctx.recheck_deferred();
            }
            if !ctx.quiet() {
                break;
            }
            let Some(j) = self.outbox.iter().position(|o| o.0.is_zero()) else {
                break;
            };
            if !matches!(self.outbox[j].1, To::Me) {
                break;
            }
            let (_, _, ev) = self.outbox.remove(j);
            ctx.count_inlined();
            self.handle(ev);
        }
        // Drain everything scheduled during this event.
        let self_id = ctx.self_id();
        for (delay, to, ev) in self.outbox.drain(..) {
            match to {
                To::Me => ctx.send(self_id, delay, ev),
                To::MeDeferrable => ctx.send_deferrable(self_id, delay, ev),
                To::Peer(dst) => ctx.send(dst, delay, ev),
                To::PeerDeferrable(dst) => ctx.send_deferrable(dst, delay, ev),
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// Deferred delivery: the HIB absorbs returned credits, acks,
    /// keepalives and `TxFree` ticks that would only update its link
    /// state and its switch's watch.
    fn can_absorb(&self, ev: &ClusterEvent) -> bool {
        match ev {
            ClusterEvent::Net(NetEvent::Credit { .. }) => self.hib.can_absorb_credit(),
            ClusterEvent::Net(NetEvent::Ctrl { frame, .. }) => self.hib.can_absorb_ctrl(frame),
            ClusterEvent::HibTick(HibTick::TxFree) => self.hib.can_absorb_tx_free(),
            _ => false,
        }
    }

    fn absorb(&mut self, ev: ClusterEvent, at: SimTime) {
        self.now = at;
        match ev {
            ClusterEvent::Net(NetEvent::Credit { .. }) => self.hib.absorb_credit(at),
            ClusterEvent::Net(NetEvent::Ctrl { frame, .. }) => self.hib.absorb_ctrl(frame, at),
            ClusterEvent::HibTick(HibTick::TxFree) => self.hib.absorb_tx_free(),
            _ => unreachable!("{}: only link bookkeeping absorbs", self.name),
        }
    }
}
