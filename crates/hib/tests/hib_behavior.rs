//! Behavioral tests of the Host Interface Board, driven through a mock
//! host and a zero-switch "hub" that routes packets between boards.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tg_hib::regs::{opcode, reg, ShadowArg};
use tg_hib::{
    CounterKind, CpuResult, Hib, HibConfig, HibFault, HibHost, HibInterrupt, HibTick, LoadOutcome,
    LocalWritePolicy, PageMode, StoreOutcome,
};
use tg_mem::{PAddr, PhysMem};
use tg_net::{LinkId, NetEvent, RelParams, TxPort};
use tg_sim::{CompId, SimTime};
use tg_wire::trace::Site;
use tg_wire::{CtrlFrame, CtrlMsg, GOffset, NodeId, PageNum, TimingConfig, WireMsg, PAGE_BYTES};

/// Events queued by the harness.
#[derive(Debug)]
enum Ev {
    Net(NetEvent),
    Tick(HibTick),
}

/// Per-dispatch host implementation: collects everything the HIB asks for.
struct Host<'a> {
    segment: &'a mut PhysMem,
    hub: CompId,
    board: usize,
    out: Vec<(SimTime, usize, Ev)>,
    completions: &'a mut Vec<(SimTime, CpuResult)>,
    interrupts: &'a mut Vec<(SimTime, HibInterrupt)>,
    os_msgs: &'a mut Vec<(NodeId, WireMsg)>,
    now: SimTime,
}

impl HibHost for Host<'_> {
    fn schedule_net(&mut self, delay: SimTime, dst: CompId, ev: NetEvent) {
        assert_eq!(dst, self.hub, "all traffic flows through the hub");
        if let NetEvent::Arrive { packet, .. } = ev {
            let target = packet.dst.index();
            self.out.push((
                self.now + delay,
                target,
                Ev::Net(NetEvent::Arrive { port: 0, packet }),
            ));
        }
        // Credits to the hub are dropped: the hub has infinite capacity.
    }
    fn schedule_tick(&mut self, delay: SimTime, tick: HibTick) {
        self.out
            .push((self.now + delay, self.board, Ev::Tick(tick)));
    }
    fn cpu_complete(&mut self, delay: SimTime, res: CpuResult) {
        self.completions.push((self.now + delay, res));
    }
    fn interrupt(&mut self, delay: SimTime, int: HibInterrupt) {
        self.interrupts.push((self.now + delay, int));
    }
    fn to_os(&mut self, _delay: SimTime, src: NodeId, msg: WireMsg) {
        self.os_msgs.push((src, msg));
    }
    fn segment(&mut self) -> &mut PhysMem {
        self.segment
    }
    fn now(&self) -> SimTime {
        self.now
    }
}

struct Bench {
    boards: Vec<Hib>,
    segments: Vec<PhysMem>,
    completions: Vec<Vec<(SimTime, CpuResult)>>,
    interrupts: Vec<Vec<(SimTime, HibInterrupt)>>,
    os_msgs: Vec<Vec<(NodeId, WireMsg)>>,
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    payloads: Vec<Option<Ev>>,
    hub: CompId,
    now: SimTime,
}

fn dummy_comp_id() -> CompId {
    struct Noop;
    impl tg_sim::Component<u32> for Noop {
        fn on_event(&mut self, _: u32, _: &mut tg_sim::Ctx<'_, u32>) {}
        fn name(&self) -> &str {
            "hub"
        }
    }
    let mut eng: tg_sim::Engine<u32> = tg_sim::Engine::new();
    eng.add(Noop)
}

impl Bench {
    fn new(n: usize, config: HibConfig) -> Self {
        let timing = TimingConfig::telegraphos_i();
        let hub = dummy_comp_id();
        let mut boards = Vec::new();
        for i in 0..n {
            let mut hib = Hib::new(NodeId::new(i as u16), config.clone(), timing.clone());
            hib.wire(tg_net::TxPort::new(hub, i as u32, 1_000_000), 1_000_000);
            boards.push(hib);
        }
        Bench {
            boards,
            segments: (0..n).map(|_| PhysMem::new()).collect(),
            completions: (0..n).map(|_| Vec::new()).collect(),
            interrupts: (0..n).map(|_| Vec::new()).collect(),
            os_msgs: (0..n).map(|_| Vec::new()).collect(),
            queue: BinaryHeap::new(),
            payloads: Vec::new(),
            hub,
            now: SimTime::ZERO,
        }
    }

    /// Runs `f` against one board with a fresh host, then queues whatever
    /// the board scheduled.
    fn with_board<R>(&mut self, board: usize, f: impl FnOnce(&mut Hib, &mut Host) -> R) -> R {
        let out;
        let r;
        {
            let Bench {
                boards,
                segments,
                completions,
                interrupts,
                os_msgs,
                hub,
                now,
                ..
            } = self;
            let mut host = Host {
                segment: &mut segments[board],
                hub: *hub,
                board,
                out: Vec::new(),
                completions: &mut completions[board],
                interrupts: &mut interrupts[board],
                os_msgs: &mut os_msgs[board],
                now: *now,
            };
            r = f(&mut boards[board], &mut host);
            out = std::mem::take(&mut host.out);
        }
        self.absorb(out);
        r
    }

    fn absorb(&mut self, out: Vec<(SimTime, usize, Ev)>) {
        for (at, board, ev) in out {
            let idx = self.payloads.len() as u64;
            self.payloads.push(Some(ev));
            self.queue.push(Reverse((at, idx, board)));
        }
    }

    fn store(&mut self, board: usize, pa: PAddr, val: u64) -> StoreOutcome {
        self.with_board(board, |b, host| b.cpu_store(pa, val, host))
    }

    fn load(&mut self, board: usize, pa: PAddr) -> LoadOutcome {
        self.with_board(board, |b, host| b.cpu_load(pa, host))
    }

    fn fence(&mut self, board: usize) -> bool {
        self.boards[board].fence()
    }

    fn run(&mut self) {
        self.drive(None);
    }

    /// Runs like [`Bench::run`], but every packet board `src` launches is
    /// lost in the fabric (a switch that died with it inside) and
    /// returned instead of delivered.
    fn run_losing_from(&mut self, src: usize) -> Vec<WireMsg> {
        self.drive(Some(src))
    }

    fn drive(&mut self, lose_from: Option<usize>) -> Vec<WireMsg> {
        let mut lost = Vec::new();
        let mut guard = 0u64;
        while let Some(Reverse((at, payload_idx, board))) = self.queue.pop() {
            guard += 1;
            assert!(guard < 1_000_000, "harness livelock");
            self.now = at;
            let ev = self.payloads[payload_idx as usize]
                .take()
                .expect("payload consumed once");
            if let Ev::Net(NetEvent::Arrive { packet, .. }) = &ev {
                if Some(packet.src.index()) == lose_from {
                    lost.push(packet.msg.clone());
                    continue;
                }
            }
            self.with_board(board, |b, host| match ev {
                Ev::Net(ev) => b.on_net(ev, host),
                Ev::Tick(t) => b.on_tick(t, host),
            });
        }
        lost
    }
}

fn remote(node: u16, off: u64) -> PAddr {
    PAddr::remote(NodeId::new(node), GOffset::new(off))
}

fn local(off: u64) -> PAddr {
    PAddr::local_shared(GOffset::new(off))
}

#[test]
fn remote_write_lands_and_acks() {
    let mut b = Bench::new(2, HibConfig::default());
    assert_eq!(b.store(0, remote(1, 64), 99), StoreOutcome::Done);
    assert!(!b.boards[0].quiescent(), "write outstanding");
    b.run();
    assert_eq!(b.segments[1].read(GOffset::new(64)), 99);
    assert!(b.boards[0].quiescent(), "ack consumed");
    assert_eq!(b.boards[0].stats().remote_writes, 1);
    assert_eq!(b.boards[0].stats().acks_rx, 1);
}

#[test]
fn remote_read_returns_value() {
    let mut b = Bench::new(2, HibConfig::default());
    b.segments[1].write(GOffset::new(128), 7777);
    assert_eq!(b.load(0, remote(1, 128)), LoadOutcome::Pending);
    b.run();
    assert_eq!(b.completions[0].len(), 1);
    assert_eq!(b.completions[0][0].1, CpuResult::LoadDone { val: 7777 });
    // Read latency is multiple microseconds end to end.
    assert!(b.completions[0][0].0 > SimTime::from_us(1));
}

#[test]
fn only_one_outstanding_read() {
    let mut b = Bench::new(2, HibConfig::default());
    assert_eq!(b.load(0, remote(1, 0)), LoadOutcome::Pending);
    assert_eq!(
        b.load(0, remote(1, 8)),
        LoadOutcome::Fault(HibFault::ReadBusy)
    );
    b.run();
    assert_eq!(b.completions[0].len(), 1);
}

#[test]
fn special_mode_atomic_fetch_inc() {
    let mut b = Bench::new(2, HibConfig::default()); // Telegraphos I launch
    b.segments[1].write(GOffset::new(40), 10);
    // PAL sequence: enter special mode, pass the target address (datum =
    // increment), then GO.
    assert_eq!(
        b.store(0, PAddr::hib_reg(reg::SPECIAL_MODE), opcode::FETCH_INC),
        StoreOutcome::Done
    );
    assert_eq!(b.store(0, remote(1, 40), 5), StoreOutcome::Done);
    assert_eq!(b.load(0, PAddr::hib_reg(reg::GO)), LoadOutcome::Pending);
    b.run();
    assert_eq!(
        b.completions[0].last().unwrap().1,
        CpuResult::LaunchDone { result: 10 }
    );
    assert_eq!(b.segments[1].read(GOffset::new(40)), 15);
    assert_eq!(b.boards[0].stats().atomics, 1);
}

#[test]
fn special_mode_compare_swap_failure_leaves_value() {
    let mut b = Bench::new(2, HibConfig::default());
    b.segments[1].write(GOffset::new(0), 3);
    b.store(0, PAddr::hib_reg(reg::SPECIAL_MODE), opcode::COMPARE_SWAP);
    // expected = 9 (mismatch), new = 1.
    assert_eq!(b.store(0, remote(1, 0), 9), StoreOutcome::Done);
    assert_eq!(b.store(0, remote(1, 0), 1), StoreOutcome::Done);
    assert_eq!(b.load(0, PAddr::hib_reg(reg::GO)), LoadOutcome::Pending);
    b.run();
    assert_eq!(
        b.completions[0].last().unwrap().1,
        CpuResult::LaunchDone { result: 3 }
    );
    assert_eq!(b.segments[1].read(GOffset::new(0)), 3, "CAS must not store");
}

#[test]
fn context_shadow_launch_with_key() {
    let mut b = Bench::new(2, HibConfig::telegraphos_ii());
    b.boards[0].install_context_key(1, 0xABCD);
    b.segments[1].write(GOffset::new(16), 100);
    let ctx_reg = |slot: u64| PAddr::hib_reg(reg::CTX_BASE + reg::CTX_STRIDE + slot * 8);
    assert_eq!(
        b.store(0, ctx_reg(reg::SLOT_OP), opcode::FETCH_STORE),
        StoreOutcome::Done
    );
    assert_eq!(
        b.store(0, ctx_reg(reg::SLOT_DATUM0), 555),
        StoreOutcome::Done
    );
    // Shadow store: the physical address rides in the address, the context
    // id + key + slot in the datum.
    let arg = ShadowArg {
        ctx: 1,
        key: 0xABCD,
        slot: 0,
    };
    assert_eq!(
        b.store(0, remote(1, 16).shadow(), arg.encode()),
        StoreOutcome::Done
    );
    assert_eq!(b.load(0, ctx_reg(reg::SLOT_GO)), LoadOutcome::Pending);
    b.run();
    assert_eq!(
        b.completions[0].last().unwrap().1,
        CpuResult::LaunchDone { result: 100 }
    );
    assert_eq!(b.segments[1].read(GOffset::new(16)), 555);
}

/// A launch argument stored under a wrong context key faults (the node
/// panics on it); the board raises no interrupt of its own.
#[test]
fn bad_context_key_faults_without_an_interrupt() {
    let mut b = Bench::new(2, HibConfig::telegraphos_ii());
    b.boards[0].install_context_key(0, 42);
    let arg = ShadowArg {
        ctx: 0,
        key: 41,
        slot: 0,
    };
    assert_eq!(
        b.store(0, remote(1, 16).shadow(), arg.encode()),
        StoreOutcome::Fault(HibFault::BadContextKey)
    );
    assert!(b.interrupts[0].is_empty());
}

#[test]
fn remote_copy_streams_into_local_segment() {
    let mut b = Bench::new(2, HibConfig::telegraphos_ii());
    b.boards[0].install_context_key(0, 1);
    for i in 0..20u64 {
        b.segments[1].write(GOffset::new(i * 8), 1000 + i);
    }
    let ctx_reg = |slot: u64| PAddr::hib_reg(reg::CTX_BASE + slot * 8);
    b.store(0, ctx_reg(reg::SLOT_OP), opcode::COPY);
    // datum0 = word count travels with the source address slot.
    b.store(0, ctx_reg(reg::SLOT_DATUM0), 20);
    let src = ShadowArg {
        ctx: 0,
        key: 1,
        slot: 0,
    };
    let dst = ShadowArg {
        ctx: 0,
        key: 1,
        slot: 1,
    };
    b.store(0, remote(1, 0).shadow(), src.encode());
    b.store(0, local(PAGE_BYTES).shadow(), dst.encode());
    // Copy returns immediately (non-blocking).
    assert_eq!(b.load(0, ctx_reg(reg::SLOT_GO)), LoadOutcome::Ready(0));
    assert!(!b.boards[0].quiescent(), "copy outstanding");
    b.run();
    for i in 0..20u64 {
        assert_eq!(
            b.segments[0].read(GOffset::new(PAGE_BYTES + i * 8)),
            1000 + i
        );
    }
    assert!(b.boards[0].quiescent());
    assert_eq!(b.boards[0].stats().copies, 1);
}

#[test]
fn fence_waits_for_acks() {
    let mut b = Bench::new(2, HibConfig::default());
    for i in 0..10u64 {
        assert_eq!(b.store(0, remote(1, i * 8), i), StoreOutcome::Done);
    }
    assert!(!b.fence(0), "writes still outstanding");
    b.run();
    let fences: Vec<_> = b.completions[0]
        .iter()
        .filter(|(_, r)| matches!(r, CpuResult::FenceDone))
        .collect();
    assert_eq!(fences.len(), 1);
    // Fence completes only after the last ack.
    assert!(b.boards[0].quiescent());
}

#[test]
fn fence_on_quiescent_board_is_immediate() {
    let mut b = Bench::new(2, HibConfig::default());
    assert!(b.fence(0));
}

#[test]
fn eager_multicast_fans_out_on_local_store() {
    let mut b = Bench::new(3, HibConfig::default());
    // Page 0 of node 0 maps out to page 2 of node 1 and page 3 of node 2.
    b.boards[0].shared_map().set_mode(
        PageNum::new(0),
        PageMode::EagerMapped {
            outs: vec![
                (NodeId::new(1), PageNum::new(2)),
                (NodeId::new(2), PageNum::new(3)),
            ],
        },
    );
    assert_eq!(b.store(0, local(24), 4242), StoreOutcome::Done);
    b.run();
    assert_eq!(b.segments[0].read(GOffset::new(24)), 4242);
    assert_eq!(b.segments[1].read(GOffset::new(2 * PAGE_BYTES + 24)), 4242);
    assert_eq!(b.segments[2].read(GOffset::new(3 * PAGE_BYTES + 24)), 4242);
    assert_eq!(b.boards[0].stats().fanout_tx, 2);
    assert!(b.boards[0].quiescent(), "multicasts acked");
}

/// Sets up the coherent-page triangle used by several tests: node 1 owns
/// page 0; nodes 0 and 2 hold replicas on their own page 0.
fn coherent_triangle(config: HibConfig) -> Bench {
    let mut b = Bench::new(3, config);
    b.boards[1].shared_map().set_mode(
        PageNum::new(0),
        PageMode::Owned {
            copies: vec![
                (NodeId::new(0), PageNum::new(0)),
                (NodeId::new(2), PageNum::new(0)),
            ],
        },
    );
    for i in [0usize, 2] {
        b.boards[i].shared_map().set_mode(
            PageNum::new(0),
            PageMode::Replica {
                owner: NodeId::new(1),
                owner_page: PageNum::new(0),
            },
        );
    }
    b
}

#[test]
fn coherent_write_propagates_through_owner() {
    let mut b = coherent_triangle(HibConfig::default());
    assert_eq!(b.store(0, local(8), 5), StoreOutcome::Done);
    // Immediate local visibility (§2.3.2: read your own writes).
    assert_eq!(b.segments[0].read(GOffset::new(8)), 5);
    b.run();
    for i in 0..3 {
        assert_eq!(b.segments[i].read(GOffset::new(8)), 5, "node {i}");
    }
    assert!(b.boards[0].quiescent());
    assert!(b.boards[0].cam().is_empty(), "pending counter consumed");
    assert_eq!(b.boards[0].stats().reflections_own, 1);
    assert_eq!(b.boards[2].stats().reflections_rx, 1);
}

#[test]
fn owner_write_multicasts_directly() {
    let mut b = coherent_triangle(HibConfig::default());
    assert_eq!(b.store(1, local(16), 9), StoreOutcome::Done);
    b.run();
    for i in 0..3 {
        assert_eq!(b.segments[i].read(GOffset::new(16)), 9, "node {i}");
    }
}

#[test]
fn pending_counter_filters_older_updates() {
    // Drive rule 3 deterministically: node 0 stores locally (counter = 1),
    // then a foreign reflected write arrives before node 0's own — it must
    // be ignored; after node 0's own reflection, later foreign updates
    // apply again.
    let mut b = coherent_triangle(HibConfig::default());
    assert_eq!(b.store(0, local(8), 5), StoreOutcome::Done);
    // Craft the foreign reflection ahead of the in-flight traffic by
    // injecting directly.
    b.with_board(0, |board, host| {
        board.on_net(
            NetEvent::Arrive {
                port: 0,
                packet: tg_wire::Packet::new(
                    NodeId::new(1),
                    NodeId::new(0),
                    WireMsg::ReflectedWrite {
                        addr: GOffset::new(8),
                        val: 777,
                        writer: NodeId::new(2),
                    },
                    0,
                ),
            },
            host,
        );
    });
    b.run();
    // The foreign 777 was older than our pending 5: never applied.
    assert_eq!(b.segments[0].read(GOffset::new(8)), 5);
    assert_eq!(b.boards[0].stats().reflections_filtered, 1);
}

#[test]
fn cam_full_stalls_until_reflection_returns() {
    let config = HibConfig {
        cam_entries: 1,
        ..HibConfig::default()
    };
    let mut b = coherent_triangle(config);
    assert_eq!(b.store(0, local(8), 1), StoreOutcome::Done);
    // Second store to a *different* word needs a second CAM entry: stall.
    assert_eq!(b.store(0, local(16), 2), StoreOutcome::Stalled);
    b.run();
    // After the reflection freed the entry, the store retried and retired.
    let retired: Vec<_> = b.completions[0]
        .iter()
        .filter(|(_, r)| matches!(r, CpuResult::StoreRetired))
        .collect();
    assert_eq!(retired.len(), 1);
    assert_eq!(b.segments[0].read(GOffset::new(16)), 2);
    assert_eq!(b.segments[1].read(GOffset::new(16)), 2);
    assert!(b.boards[0].cam().stall_events() >= 1);
}

/// Deferred delivery: a `TxFree` is absorbable only while no packet,
/// parked store or fence waits on the transmit side, and a credit only
/// while nothing waits on a free wire.
#[test]
fn tx_free_absorbs_only_while_nothing_waits() {
    let config = HibConfig {
        cam_entries: 1,
        ..HibConfig::default()
    };
    let mut b = coherent_triangle(config);
    assert_eq!(b.store(0, local(8), 1), StoreOutcome::Done);
    assert!(
        b.boards[0].can_absorb_tx_free(),
        "the update left nothing waiting"
    );
    assert!(b.boards[0].can_absorb_credit(), "the wire is busy");
    // A parked store is retried at the next `TxFree`.
    assert_eq!(b.store(0, local(16), 2), StoreOutcome::Stalled);
    assert!(!b.boards[0].can_absorb_tx_free());
    b.run();

    let mut b = Bench::new(2, HibConfig::default());
    assert_eq!(b.store(0, remote(1, 0), 7), StoreOutcome::Done);
    assert!(b.boards[0].can_absorb_tx_free());
    // A waiting fence may complete at the next `TxFree`.
    assert!(!b.fence(0));
    assert!(!b.boards[0].can_absorb_tx_free());
    b.run();
    assert!(b.boards[0].can_absorb_credit(), "idle wire, empty queue");
}

/// Deferred delivery on a reliable link: with frames in flight and the
/// recovery timer armed, an intact ack and a credit only move the
/// window, on a busy wire or a free one; a Nack, a SyncAck or a corrupt
/// ack always acts. A go-back-N sweep asks for a re-check and keeps the
/// `TxFree` active until the last frame is resent.
#[test]
fn reliable_link_absorbs_acks_and_credits_that_only_move_the_window() {
    let mut b = Bench::new(2, HibConfig::default());
    let mut tx = TxPort::new(b.hub, 0, 8);
    tx.set_link(LinkId::new(Site::Node(NodeId::new(0)), Site::Switch(0)));
    tx.enable_reliability(RelParams::default());
    b.boards[0].wire(tx, 8);
    let ctrl = |msg| CtrlFrame::seal(msg);
    let ack = ctrl(CtrlMsg::Ack { seq: 1, sack: 0 });
    let free_wire = |b: &mut Bench| b.with_board(0, |h, host| h.on_tick(HibTick::TxFree, host));
    let deliver = |b: &mut Bench, frame| {
        b.with_board(0, |h, host| {
            h.on_net(NetEvent::Ctrl { port: 0, frame }, host)
        })
    };

    // Frame 1 on the wire.
    assert_eq!(b.store(0, remote(1, 0), 7), StoreOutcome::Done);
    let board = &b.boards[0];
    assert!(board.can_absorb_ctrl(&ack) && board.can_absorb_credit());
    // Frame 2 launches on the freed wire; then the wire frees again.
    free_wire(&mut b);
    assert_eq!(b.store(0, remote(1, 8), 8), StoreOutcome::Done);
    free_wire(&mut b);
    let board = &b.boards[0];
    assert!(board.can_absorb_ctrl(&ack) && board.can_absorb_credit());
    assert!(board.can_absorb_tx_free(), "nothing waits on the wire");
    let mut corrupt = ack.clone();
    corrupt.corrupt();
    let acting = [
        ctrl(CtrlMsg::Nack {
            expected: 1,
            sack: 0,
        }),
        ctrl(CtrlMsg::SyncAck {
            token: 1,
            drained: 0,
        }),
        corrupt,
    ];
    assert!(!acting.iter().any(|f| board.can_absorb_ctrl(f)));

    // A Nack starts a sweep: frame 1 is resent, frame 2 still waits.
    let _ = b.boards[0].take_recheck();
    deliver(&mut b, acting[0].clone());
    assert!(b.boards[0].take_recheck(), "a sweep asks for a re-check");
    assert!(!b.boards[0].can_absorb_tx_free(), "frame 2 waits");
    free_wire(&mut b);
    free_wire(&mut b);
    assert!(b.boards[0].can_absorb_tx_free(), "the sweep is done");
    // The ack is absorbed: the window moves, nothing is sent.
    b.boards[0].absorb_ctrl(ctrl(CtrlMsg::Ack { seq: 2, sack: 0 }), b.now);
    let port = b.boards[0].port_snapshot().expect("labeled port");
    assert_eq!(port.unacked, 0);
}

#[test]
fn same_word_rewrites_share_a_cam_entry() {
    let config = HibConfig {
        cam_entries: 1,
        ..HibConfig::default()
    };
    let mut b = coherent_triangle(config);
    assert_eq!(b.store(0, local(8), 1), StoreOutcome::Done);
    assert_eq!(b.store(0, local(8), 2), StoreOutcome::Done, "same entry");
    b.run();
    for i in 0..3 {
        assert_eq!(b.segments[i].read(GOffset::new(8)), 2, "node {i}");
    }
}

#[test]
fn stall_until_reflected_policy_blocks_the_store() {
    let config = HibConfig {
        local_write_policy: LocalWritePolicy::StallUntilReflected,
        ..HibConfig::default()
    };
    let mut b = coherent_triangle(config);
    assert_eq!(b.store(0, local(8), 5), StoreOutcome::Stalled);
    // Not locally visible yet — the cost the paper rejects.
    assert_eq!(b.segments[0].read(GOffset::new(8)), 0);
    b.run();
    assert_eq!(b.segments[0].read(GOffset::new(8)), 5);
    let retired = b.completions[0]
        .iter()
        .any(|(_, r)| matches!(r, CpuResult::StoreRetired));
    assert!(retired, "CPU released after the reflection");
}

#[test]
fn tx_queue_full_stalls_and_retries() {
    let config = HibConfig {
        tx_queue_depth: 2,
        ..HibConfig::default()
    };
    let mut b = Bench::new(2, config);
    let mut stalls = 0;
    for i in 0..5u64 {
        match b.store(0, remote(1, i * 8), i + 1) {
            StoreOutcome::Done => {}
            StoreOutcome::Stalled => {
                stalls += 1;
                b.run(); // drain, then the stalled store retires
            }
            StoreOutcome::Fault(f) => panic!("unexpected fault {f}"),
        }
    }
    b.run();
    assert!(stalls > 0, "a 2-deep queue must backpressure 5 writes");
    for i in 0..5u64 {
        assert_eq!(b.segments[1].read(GOffset::new(i * 8)), i + 1);
    }
    assert!(b.boards[0].stats().tx_stalls > 0);
}

#[test]
fn page_access_counters_raise_alarm_once() {
    let mut b = Bench::new(2, HibConfig::default());
    b.boards[0]
        .shared_map()
        .arm_counters(NodeId::new(1), PageNum::new(0), 100, 3);
    for i in 0..5u64 {
        assert_eq!(b.store(0, remote(1, i * 8), i), StoreOutcome::Done);
    }
    b.run();
    let alarms: Vec<_> = b.interrupts[0]
        .iter()
        .filter(|(_, i)| {
            matches!(
                i,
                HibInterrupt::PageAlarm {
                    counter: CounterKind::Write,
                    ..
                }
            )
        })
        .collect();
    assert_eq!(alarms.len(), 1, "alarm fires exactly on the 1->0 edge");
    assert_eq!(b.boards[0].stats().alarms, 1);
}

#[test]
fn os_messages_are_routed_up() {
    let mut b = Bench::new(2, HibConfig::default());
    // Board 1's OS sends an invalidation to board 0.
    b.with_board(1, |board, host| {
        board.send_os_message(NodeId::new(0), WireMsg::InvalidateReq { page: 7 }, host);
    });
    b.run();
    assert_eq!(
        b.os_msgs[0].as_slice(),
        &[(NodeId::new(1), WireMsg::InvalidateReq { page: 7 })]
    );
}

#[test]
fn launch_mode_mismatch_faults() {
    let mut b = Bench::new(2, HibConfig::telegraphos_ii());
    assert_eq!(
        b.store(0, PAddr::hib_reg(reg::SPECIAL_MODE), 1),
        StoreOutcome::Fault(HibFault::BadRegister)
    );
    let mut b1 = Bench::new(2, HibConfig::default());
    assert_eq!(
        b1.store(0, remote(1, 0).shadow(), 0),
        StoreOutcome::Fault(HibFault::BadRegister)
    );
}

#[test]
fn out_of_segment_access_faults() {
    let mut b = Bench::new(2, HibConfig::default());
    let beyond = (HibConfig::default().segment_pages as u64 + 1) * PAGE_BYTES;
    assert_eq!(
        b.store(0, local(beyond), 1),
        StoreOutcome::Fault(HibFault::OutOfSegment)
    );
    assert_eq!(
        b.load(0, local(beyond)),
        LoadOutcome::Fault(HibFault::OutOfSegment)
    );
}

#[test]
fn go_without_arming_faults() {
    let mut b = Bench::new(2, HibConfig::default());
    assert_eq!(
        b.load(0, PAddr::hib_reg(reg::GO)),
        LoadOutcome::Fault(HibFault::MalformedLaunch)
    );
}

#[test]
fn interleaved_context_launches_do_not_corrupt_each_other() {
    // §2.2.4's whole point: two processes' launch sequences, interleaved
    // instruction by instruction (as a context switch would interleave
    // them), stay isolated because each writes its own context registers.
    let mut b = Bench::new(2, HibConfig::telegraphos_ii());
    b.boards[0].install_context_key(0, 100);
    b.boards[0].install_context_key(1, 200);
    b.segments[1].write(GOffset::new(0), 7);
    b.segments[1].write(GOffset::new(8), 50);

    let ctx_reg =
        |ctx: u64, slot: u64| PAddr::hib_reg(reg::CTX_BASE + ctx * reg::CTX_STRIDE + slot * 8);
    // Process A arms a fetch&inc(+1) on word 0 in context 0...
    b.store(0, ctx_reg(0, reg::SLOT_OP), opcode::FETCH_INC);
    // ...interleaved: process B arms a fetch&store(999) on word 1 in
    // context 1.
    b.store(0, ctx_reg(1, reg::SLOT_OP), opcode::FETCH_STORE);
    b.store(0, ctx_reg(0, reg::SLOT_DATUM0), 1);
    b.store(0, ctx_reg(1, reg::SLOT_DATUM0), 999);
    let arg_a = ShadowArg {
        ctx: 0,
        key: 100,
        slot: 0,
    };
    let arg_b = ShadowArg {
        ctx: 1,
        key: 200,
        slot: 0,
    };
    b.store(0, remote(1, 8).shadow(), arg_b.encode());
    b.store(0, remote(1, 0).shadow(), arg_a.encode());
    // B fires first, then A.
    assert_eq!(b.load(0, ctx_reg(1, reg::SLOT_GO)), LoadOutcome::Pending);
    b.run();
    assert_eq!(b.load(0, ctx_reg(0, reg::SLOT_GO)), LoadOutcome::Pending);
    b.run();
    // B's fetch&store hit word 1 with 999; A's fetch&inc hit word 0.
    assert_eq!(b.segments[1].read(GOffset::new(8)), 999);
    assert_eq!(b.segments[1].read(GOffset::new(0)), 8);
    let results: Vec<_> = b.completions[0]
        .iter()
        .filter_map(|(_, r)| match r {
            CpuResult::LaunchDone { result } => Some(*result),
            _ => None,
        })
        .collect();
    assert_eq!(results, vec![50, 7], "old values, B then A");
}

#[test]
fn multicast_write_is_acked_for_fence_coverage() {
    let mut b = Bench::new(3, HibConfig::default());
    b.boards[0].shared_map().set_mode(
        PageNum::new(0),
        PageMode::EagerMapped {
            outs: vec![
                (NodeId::new(1), PageNum::new(0)),
                (NodeId::new(2), PageNum::new(0)),
            ],
        },
    );
    assert_eq!(b.store(0, local(0), 5), StoreOutcome::Done);
    assert!(!b.boards[0].quiescent(), "multicasts outstanding");
    assert!(!b.fence(0), "fence must wait for multicast acks");
    b.run();
    let fences = b.completions[0]
        .iter()
        .filter(|(_, r)| matches!(r, CpuResult::FenceDone))
        .count();
    assert_eq!(fences, 1);
    assert_eq!(b.boards[0].stats().acks_rx, 2);
}

#[test]
fn hardware_page_fetch_streams_a_whole_page() {
    let mut b = Bench::new(2, HibConfig::default());
    for w in 0..1024u64 {
        b.segments[1].write(GOffset::new(w * 8), w + 1);
    }
    // Board 0's OS requests a page image via the hardware stream.
    b.with_board(0, |board, host| {
        board.send_os_message(
            NodeId::new(1),
            WireMsg::PageFetchReq { page: 0, tag: 77 },
            host,
        );
    });
    b.run();
    // Board 0's OS received the full page as PageData bursts.
    let mut words = 0u64;
    let mut saw_last = false;
    for (_, msg) in &b.os_msgs[0] {
        if let WireMsg::PageData {
            tag, vals, last, ..
        } = msg
        {
            assert_eq!(*tag, 77);
            words += vals.len() as u64;
            saw_last |= *last;
        }
    }
    assert_eq!(words, 1024);
    assert!(saw_last);
    // The home OS was notified who fetched (VSM copyset tracking hook).
    assert!(b.os_msgs[1]
        .iter()
        .any(|(src, msg)| *src == NodeId::new(0)
            && matches!(msg, WireMsg::PageFetchReq { tag: 77, .. })));
}

/// Liveness at a board: it watches only its switch, convicts the far
/// peers a verdict notice names (acknowledging the notice), ignores a
/// notice older than one it applied, re-admits them on a newer one, and
/// convicts every peer when the switch itself falls silent. A keepalive
/// from a trusted switch is absorbable; from a convicted one it acts.
#[test]
fn notices_and_the_switch_verdict_drive_peer_verdicts() {
    let mut b = Bench::new(3, HibConfig::default());
    let mut tx = TxPort::new(b.hub, 0, 8);
    tx.set_link(LinkId::new(Site::Node(NodeId::new(0)), Site::Switch(0)));
    tx.enable_reliability(RelParams::default());
    b.boards[0].wire(tx, 8);
    let peers: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let params = tg_net::DetectParams::default();
    let on = std::rc::Rc::new(std::cell::Cell::new(true));
    assert!(b.boards[0].prime_heartbeats(&peers, b.now, &params, &on));
    let notice = |version, unreachable: &[u16]| {
        let msg = CtrlMsg::Notice(std::rc::Rc::new(tg_wire::Notice {
            id: version,
            version,
            unreachable: unreachable.to_vec(),
        }));
        NetEvent::Ctrl {
            port: 0,
            frame: CtrlFrame::seal(msg),
        }
    };
    let deliver = |b: &mut Bench, ev| b.with_board(0, |h, host| h.on_net(ev, host));
    let verdicts = |b: &mut Bench| -> Vec<HibInterrupt> {
        std::mem::take(&mut b.interrupts[0])
            .into_iter()
            .map(|(_, int)| int)
            .collect()
    };
    let down = |p| HibInterrupt::PeerDown {
        peer: NodeId::new(p),
    };
    let up = |p| HibInterrupt::PeerUp {
        peer: NodeId::new(p),
    };

    deliver(&mut b, notice(2, &[0, 2]));
    assert_eq!(verdicts(&mut b), [down(2)], "its own node is never a peer");
    assert!(b.boards[0].peer_down(NodeId::new(2)));
    assert_eq!(b.boards[0].stats().liveness_tx, 1, "the notice is acked");
    deliver(&mut b, notice(1, &[]));
    assert!(verdicts(&mut b).is_empty(), "an older notice is stale");
    deliver(&mut b, notice(3, &[]));
    assert_eq!(verdicts(&mut b), [up(2)]);

    let keepalive = CtrlFrame::seal(CtrlMsg::Keepalive);
    assert!(b.boards[0].can_absorb_ctrl(&keepalive));
    // The switch goes silent past the 100us floor: every peer goes down.
    b.now = SimTime::from_us(101);
    b.with_board(0, |h, host| h.on_tick(HibTick::Heartbeat, host));
    assert_eq!(verdicts(&mut b), [down(1), down(2)]);
    assert!(!b.boards[0].can_absorb_ctrl(&keepalive), "it re-admits");
    deliver(
        &mut b,
        NetEvent::Ctrl {
            port: 0,
            frame: keepalive,
        },
    );
    assert_eq!(verdicts(&mut b), [up(1), up(2)]);
}

/// Board 0 of an `n`-board bench with liveness primed, and a way to hand
/// it a verdict notice of a given view version.
fn notice_bench(n: usize, config: HibConfig) -> Bench {
    let mut b = Bench::new(n, config);
    let peers: Vec<NodeId> = (0..n as u16).map(NodeId::new).collect();
    let on = std::rc::Rc::new(std::cell::Cell::new(true));
    let params = tg_net::DetectParams::default();
    assert!(b.boards[0].prime_heartbeats(&peers, b.now, &params, &on));
    b
}

fn deliver_notice(b: &mut Bench, version: u64, unreachable: &[u16]) {
    let msg = CtrlMsg::Notice(std::rc::Rc::new(tg_wire::Notice {
        id: version,
        version,
        unreachable: unreachable.to_vec(),
    }));
    let ev = NetEvent::Ctrl {
        port: 0,
        frame: CtrlFrame::seal(msg),
    };
    b.with_board(0, |h, host| h.on_net(ev, host));
}

fn write_req(off: u64, val: u64, tag: u32) -> WireMsg {
    WireMsg::WriteReq {
        addr: GOffset::new(off),
        val,
        tag,
    }
}

/// Request recovery is driven by verdicts: a notice with a newer view
/// version re-sends every pending request to a live peer once, under its
/// original tag; an equal or older version re-sends nothing; a request
/// to a peer the notice names is failed instead. The re-sends then
/// complete what the lost originals did not.
#[test]
fn a_route_change_resends_each_pending_op_once_under_its_tag() {
    let mut b = notice_bench(4, HibConfig::default());
    for (dst, off) in [(1u16, 0u64), (2, 8), (3, 16)] {
        assert_eq!(b.store(0, remote(dst, off), off + 1), StoreOutcome::Done);
    }
    assert_eq!(b.load(0, remote(1, 24)), LoadOutcome::Pending);
    let sent = [
        write_req(0, 1, 1),
        write_req(8, 9, 2),
        write_req(16, 17, 3),
        WireMsg::ReadReq {
            addr: GOffset::new(24),
            tag: 4,
        },
    ];
    assert_eq!(b.run_losing_from(0), sent, "the switch swallows them all");

    deliver_notice(&mut b, 1, &[]);
    assert_eq!(
        b.run_losing_from(0),
        sent,
        "a route change re-sends each once"
    );
    deliver_notice(&mut b, 1, &[]);
    assert!(
        b.run_losing_from(0).is_empty(),
        "an equal version is no change"
    );
    deliver_notice(&mut b, 0, &[]);
    assert!(b.run_losing_from(0).is_empty(), "an older version is stale");

    deliver_notice(&mut b, 2, &[2]);
    assert_eq!(
        b.run_losing_from(0),
        [sent[0].clone(), sent[2].clone(), sent[3].clone()],
        "the write to the convicted peer is failed, not re-sent"
    );
    assert!(b.boards[0].peer_down(NodeId::new(2)));

    deliver_notice(&mut b, 3, &[2]);
    b.run();
    assert_eq!(b.segments[1].read(GOffset::new(0)), 1);
    assert_eq!(b.segments[2].read(GOffset::new(8)), 0, "never delivered");
    assert_eq!(b.segments[3].read(GOffset::new(16)), 17);
    assert!(matches!(
        b.completions[0].as_slice(),
        [(_, CpuResult::LoadDone { val: 0 })]
    ));
    assert!(b.fence(0), "every surviving request completed");
}

/// A re-send never pushes the transmit queue past its depth: what does
/// not fit waits, keeps `TxFree` from being absorbed, and goes out as
/// the wire frees room.
#[test]
fn resends_that_find_the_tx_queue_full_go_out_as_room_frees() {
    let config = HibConfig {
        tx_queue_depth: 2,
        ..HibConfig::default()
    };
    let mut b = notice_bench(2, config);
    let mut sent = Vec::new();
    for i in 0..5u64 {
        assert_eq!(b.store(0, remote(1, i * 8), i + 1), StoreOutcome::Done);
        sent.extend(b.run_losing_from(0));
    }
    assert_eq!(sent.len(), 5);

    deliver_notice(&mut b, 1, &[]);
    // One re-send is on the wire and two fill the queue; two wait.
    assert_eq!(b.boards[0].tx_queue_depth(), 2);
    assert!(!b.boards[0].can_absorb_tx_free());
    assert_eq!(
        b.run_losing_from(0),
        sent,
        "each re-sent once, in tag order"
    );

    deliver_notice(&mut b, 2, &[]);
    b.run();
    for i in 0..5u64 {
        assert_eq!(b.segments[1].read(GOffset::new(i * 8)), i + 1);
    }
    assert!(b.fence(0));
}
