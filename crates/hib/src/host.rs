//! The interface between the HIB state machine and its hosting node.

use tg_mem::PhysMem;
use tg_net::{LinkCtx, NetEvent};
use tg_sim::{CompId, SimTime};
use tg_wire::{NodeId, PageNum, WireMsg};

/// Services the hosting workstation component provides to its HIB.
///
/// The HIB is a passive state machine: the node drives it with CPU
/// transactions and network events, and the HIB responds by asking the host
/// to schedule things. Keeping the HIB free of direct engine access makes
/// it unit-testable with a mock host.
pub trait HibHost {
    /// Schedules a network event (packet arrival or credit) at a fabric
    /// neighbor.
    fn schedule_net(&mut self, delay: SimTime, dst: CompId, ev: NetEvent);
    /// Schedules an internal HIB timer; the node must route it back into
    /// [`Hib::on_tick`](crate::Hib::on_tick).
    fn schedule_tick(&mut self, delay: SimTime, tick: HibTick);
    /// Like [`schedule_net`](HibHost::schedule_net), for an event the
    /// receiver may absorb instead of handling (a returned credit or an
    /// ack; see
    /// [`Ctx::send_deferrable`](tg_sim::Ctx::send_deferrable)).
    fn schedule_net_deferrable(&mut self, delay: SimTime, dst: CompId, ev: NetEvent) {
        self.schedule_net(delay, dst, ev);
    }
    /// Like [`schedule_tick`](HibHost::schedule_tick), for a tick the HIB may absorb
    /// instead of handling (`TxFree`).
    fn schedule_tick_deferrable(&mut self, delay: SimTime, tick: HibTick) {
        self.schedule_tick(delay, tick);
    }
    /// Completes a CPU-visible operation (blocking load, stalled store,
    /// fence, special-operation result).
    fn cpu_complete(&mut self, delay: SimTime, res: CpuResult);
    /// Raises a HIB interrupt (page-access alarm, protection violation).
    fn interrupt(&mut self, delay: SimTime, int: HibInterrupt);
    /// Delivers a message the hardware does not handle to the OS layer
    /// (VSM invalidations, page images, DMA message bursts).
    fn to_os(&mut self, delay: SimTime, src: NodeId, msg: WireMsg);
    /// The node's exported shared segment (Telegraphos I: HIB SRAM;
    /// Telegraphos II: main-memory carve-out).
    fn segment(&mut self) -> &mut PhysMem;
    /// Current simulated time, for observability timestamps and credit-
    /// stall accounting. Defaults to [`SimTime::ZERO`] so mock hosts that
    /// don't model a clock keep working; the cluster's real host reports
    /// engine time.
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
}

/// The board's link end schedules its control frames through the host.
impl LinkCtx for dyn HibHost + '_ {
    fn now(&self) -> SimTime {
        HibHost::now(self)
    }

    fn send_net(&mut self, dst: CompId, delay: SimTime, ev: NetEvent) {
        self.schedule_net(delay, dst, ev);
    }

    fn send_net_deferrable(&mut self, dst: CompId, delay: SimTime, ev: NetEvent) {
        self.schedule_net_deferrable(delay, dst, ev);
    }
}

/// Internal HIB timers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HibTick {
    /// The transmit port finished serializing; pump the TX queue.
    TxFree,
    /// The receive pipeline finished processing the current packet.
    RxDone,
    /// The link-level retransmission/resync timer fired (see
    /// [`TxPort::poll_timer`](tg_net::TxPort::poll_timer)); `gen` guards
    /// against stale timers.
    RetxTimer {
        /// Timer generation at scheduling time.
        gen: u64,
    },
    /// The periodic liveness tick: send a keepalive when the uplink was
    /// idle for a whole period, and sweep the detector watching the
    /// switch. Self-rearming while heartbeats are enabled.
    Heartbeat,
}

/// Why a remote operation could not complete (§crash-stop fault model):
/// the structured resolution every in-flight request to a crashed peer
/// receives instead of hanging or panicking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpError {
    /// The destination node was declared dead by the failure detector.
    PeerUnreachable {
        /// The unreachable destination.
        peer: NodeId,
    },
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::PeerUnreachable { peer } => {
                write!(f, "peer {peer} unreachable")
            }
        }
    }
}

impl std::error::Error for OpError {}

/// CPU-visible completions delivered through [`HibHost::cpu_complete`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CpuResult {
    /// A blocking load (remote read) finished.
    LoadDone {
        /// The word read.
        val: u64,
    },
    /// A store that had stalled (TX queue or CAM full) has been accepted.
    StoreRetired,
    /// All outstanding remote operations have completed (§2.3.5 FENCE).
    FenceDone,
    /// A special operation launched through the GO register finished.
    LaunchDone {
        /// Atomic result (old value) or 0 for remote-copy acceptance.
        result: u64,
    },
    /// A blocking remote operation (read or atomic launch) failed
    /// structurally instead of completing: its destination crashed. The
    /// CPU is released with the error rather than stalling forever.
    OpFailed {
        /// Why the operation could not complete.
        err: OpError,
    },
}

/// Faults the HIB raises synchronously on a bad CPU transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HibFault {
    /// The key presented with a shadow store does not match the context.
    BadContextKey,
    /// A GO was issued with incomplete or inconsistent arguments.
    MalformedLaunch,
    /// A second blocking read was issued while one is outstanding (the
    /// current Telegraphos allows a single outstanding read).
    ReadBusy,
    /// The register number does not exist.
    BadRegister,
    /// The address targets a page outside the exported segment.
    OutOfSegment,
}

impl std::fmt::Display for HibFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HibFault::BadContextKey => "context key mismatch",
            HibFault::MalformedLaunch => "malformed special-operation launch",
            HibFault::ReadBusy => "a remote read is already outstanding",
            HibFault::BadRegister => "no such HIB register",
            HibFault::OutOfSegment => "address outside the shared segment",
        };
        f.write_str(s)
    }
}

impl std::error::Error for HibFault {}

/// Interrupts the HIB raises toward the operating system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HibInterrupt {
    /// A page-access counter crossed from one to zero (§2.2.6): the OS
    /// should consider replicating the page.
    PageAlarm {
        /// Home node of the hot remote page.
        node: NodeId,
        /// The hot page (within the home node's segment).
        page: PageNum,
        /// Which counter fired.
        counter: CounterKind,
    },
    /// The link layer degraded: a neighbor-originated protocol violation
    /// was detected or the retransmit budget was exhausted (the link is
    /// then dead). The OS sees the structured error instead of the
    /// simulation panicking.
    LinkFault {
        /// What went wrong on the link.
        error: tg_net::LinkError,
    },
    /// The board convicted a peer: a verdict notice from its switch named
    /// it, or the switch itself went silent past the suspicion
    /// threshold. The OS layer
    /// should fail over ownership of pages homed or owned there and stop
    /// routing work to it.
    PeerDown {
        /// The node declared dead.
        peer: NodeId,
    },
    /// A previously-convicted peer is reachable again (crash-stop
    /// restart, or the switch back in touch):
    /// the OS layer should reconcile — the restarted node lost its volatile
    /// state, so copysets and replica maps referencing it are stale.
    PeerUp {
        /// The node that came back.
        peer: NodeId,
    },
}

/// Which of the two per-page access counters is meant (§2.2.6: "one that
/// counts read operations and one that counts write operations").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CounterKind {
    /// The read counter.
    Read,
    /// The write counter.
    Write,
}

/// Outcome of a CPU store presented to the HIB.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreOutcome {
    /// Accepted; the TurboChannel is released after the latch time.
    Done,
    /// The HIB cannot take the store now (TX queue or CAM full); the CPU
    /// stalls and the HIB will deliver [`CpuResult::StoreRetired`].
    Stalled,
    /// The store is architecturally invalid.
    Fault(HibFault),
}

/// Outcome of a CPU load presented to the HIB.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoadOutcome {
    /// Satisfied immediately (local shared memory, ready registers).
    Ready(u64),
    /// In flight; the HIB will deliver [`CpuResult::LoadDone`] or
    /// [`CpuResult::LaunchDone`].
    Pending,
    /// The load is architecturally invalid.
    Fault(HibFault),
}
