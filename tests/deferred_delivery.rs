//! Exactness pins for the engine's event elisions: deferred delivery
//! (absorbed events) and same-instant continuations (inlined events).
//!
//! Each trace test rebuilds a `tg trace` configuration, exports its trace
//! the way `tg trace --out` does, and compares an FNV-1a fingerprint of
//! the file bytes with the one recorded from the trace the simulator
//! wrote before the engine learnt to absorb events, and each also pins
//! the fabric's wire fingerprint (every frame launched on every link,
//! with its instant), recorded before reliable links absorbed anything:
//! an absorbed ack, credit or port-free event must leave every frame on
//! its wire where it was. Every run absorbs link bookkeeping: the
//! unreliable stencil its credits and port-free events, and the fault
//! runs (a fabric view with go-back-N links, SACK links with a crash and
//! restart, and lossy control planes on both disciplines) their acks,
//! credits and idle port-free events too. Two more traces pin the rare lifecycle points: a switch that
//! returns mid-run (peer-down and peer-up verdicts at nodes and switches)
//! and a credit-loss plan (credit stalls and resyncs at both site kinds).
//! The logical event count (delivered +
//! absorbed + inlined) is pinned to what the simulator delivered before
//! it inlined anything. The KV test pins a shrunk `perfbench` `kv` run
//! the same way, by its audit fingerprint and latency percentiles, and a
//! zero-latency-link run pins the rule that a continuation never runs
//! ahead of a zero-delay send to another component.

use telegraphos::observe::{chrome_events, chrome_trace_json};
use telegraphos::{
    Action, Cluster, ClusterBuilder, ComponentDetail, FaultPlan, RelParams, RetxMode, Script,
    TraceCollector,
};
use telegraphos_suite::harness::{self, HarnessOptions};
use tg_sim::{EngineStats, RunLimit, SimTime};
use tg_wire::trace::{PacketEvent, Site, Stage};
use tg_wire::TimingConfig;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The fingerprint of the trace `tg trace --out` would export from
/// `collector`.
fn export_pin(collector: &TraceCollector) -> u64 {
    let json = chrome_trace_json(&chrome_events(
        &collector.op_events(),
        &collector.packet_events(),
    ));
    fnv1a(json.as_bytes())
}

/// What a traced run is pinned by: the fingerprint of the exported
/// trace, the fabric's wire fingerprint (every frame put on a wire, see
/// `Cluster::wire_fingerprint`) and the engine counters.
struct Pin {
    trace: u64,
    wire: u64,
    engine: EngineStats,
}

/// Runs `cluster` as `tg trace` does and returns its [`Pin`].
fn trace_pin(cluster: Cluster, opts: &HarnessOptions) -> Pin {
    traced_run(cluster, opts).0
}

/// [`trace_pin`], also returning the traced packet events.
fn traced_run(mut cluster: Cluster, opts: &HarnessOptions) -> (Pin, Vec<PacketEvent>) {
    let collector = cluster.enable_tracing();
    assert!(harness::run_cluster(&mut cluster, opts, None), "run wedged");
    let pin = Pin {
        trace: export_pin(&collector),
        wire: cluster.wire_fingerprint(),
        engine: cluster.engine_stats(),
    };
    (pin, collector.packet_events())
}

/// Whether `stage` was traced at a node and at a switch.
fn traced_at(packets: &[PacketEvent], stage: Stage) -> (bool, bool) {
    let at = |switch: bool| {
        packets
            .iter()
            .any(|e| e.stage == stage && matches!(e.site, Site::Switch(_)) == switch)
    };
    (at(false), at(true))
}

/// `tg trace stencil --nodes 16`: unreliable links on one star, so the
/// engine absorbs credits and idle port-free events.
#[test]
fn stencil16_trace_is_pinned_and_absorbs() {
    let opts = HarnessOptions {
        nodes: 16,
        ..HarnessOptions::default()
    };
    let (cluster, _) = harness::build_stencil(&opts, 8, 4);
    let Pin {
        trace,
        wire,
        engine,
    } = trace_pin(cluster, &opts);
    assert_eq!(
        (trace, wire),
        (0xf8bb_9761_8edb_8c3d, 0x3f4c_f328_c0be_24c5)
    );
    assert!(
        engine.events_absorbed > 0,
        "the unreliable stencil absorbed nothing"
    );
    assert!(engine.events_inlined > 0, "no continuation ran in place");
    assert_eq!(engine.logical_events(), 16_127);
}

/// `tg trace pingpong --switch-out 1,100,100000`: switches hold a fabric
/// view that moves when the switch goes out, and links are reliable.
#[test]
fn switch_out_trace_is_pinned_and_absorbs() {
    let opts = HarnessOptions {
        reliable: true,
        heartbeats: true,
        switch_out: Some((1, 100, 100_000)),
        ..HarnessOptions::default()
    };
    let Pin {
        trace,
        wire,
        engine,
    } = trace_pin(harness::build_pingpong(&opts), &opts);
    assert_eq!(
        (trace, wire),
        (0x83a8_5362_b6e6_6688, 0x4d24_648d_8499_7e9c)
    );
    assert!(engine.events_absorbed > 0, "no link bookkeeping absorbed");
    assert!(engine.events_inlined > 0, "no continuation ran in place");
    assert_eq!(engine.logical_events(), 2_220);
}

/// `tg trace pingpong --switch-out 1,100,400`: switch 1 returns while
/// ping-pong still runs, so nodes and switches trace both peer-down and
/// peer-up verdicts (a switch peer's id carries bit 15), and a node traces
/// a credit resync.
#[test]
fn switch_return_trace_is_pinned() {
    let opts = HarnessOptions {
        reliable: true,
        heartbeats: true,
        switch_out: Some((1, 100, 400)),
        ..HarnessOptions::default()
    };
    let (pin, packets) = traced_run(harness::build_pingpong(&opts), &opts);
    assert_eq!(traced_at(&packets, Stage::PeerDown), (true, true));
    assert_eq!(traced_at(&packets, Stage::PeerUp), (true, true));
    assert!(traced_at(&packets, Stage::CreditResync).0);
    assert_eq!(
        (pin.trace, pin.wire),
        (0xf340_047a_59bd_e3df, 0xdd20_7551_7990_222a)
    );
    assert_eq!(pin.engine.logical_events(), 2_226);
}

/// The `tg fault` `creditloss` workload with fault seed 1 on go-back-N
/// links: two writers stream into a page on the third node while half of
/// all returned credits are lost, so nodes and switches both trace credit
/// stalls and credit resyncs.
#[test]
fn credit_loss_trace_is_pinned() {
    let mut cluster = ClusterBuilder::new(3)
        .reliable_links(RelParams::with_mode(RetxMode::GoBackN))
        .with_faults(FaultPlan::new(1).credit_loss(0.5))
        .build();
    let page = cluster.alloc_shared(2);
    for (node, base) in [(0, 0), (1, 16)] {
        let mut acts: Vec<Action> = (0..60u64)
            .map(|i| Action::Write(page.va((base + i % 16) * 8), i + 1))
            .collect();
        acts.extend([Action::Fence, Action::Read(page.va(base * 8))]);
        cluster.set_process(node, Script::new(acts));
    }
    let collector = cluster.enable_tracing();
    cluster.run();
    assert!(cluster.all_halted());
    let packets = collector.packet_events();
    assert_eq!(traced_at(&packets, Stage::CreditStall), (true, true));
    assert_eq!(traced_at(&packets, Stage::CreditResync), (true, true));
    assert_eq!(export_pin(&collector), 0x52f2_e5e9_71c5_085a);
    assert_eq!(cluster.wire_fingerprint(), 0x68c0_efef_a2d5_1c65);
    assert_eq!(cluster.engine_stats().logical_events(), 2_569);
}

/// `tg trace pingpong --sack --crash 1,40 --restart 150` and `--crash
/// 1,150 --restart 2500`: SACK links and a crash-restart cycle. Ping-pong's last event falls at 79.3 µs, so only
/// the first window opens while the workload runs; the second crashes a
/// node that has already finished. In the second run every continuation
/// ties with another node's event at the same instant, so none runs in
/// place; in the first, 26 do (none did while every element sent a
/// digest at every tick).
#[test]
fn sack_crash_restart_trace_is_pinned_and_absorbs() {
    for (crash, restart_us, pins, inlined, logical) in [
        (
            (1, 40),
            150,
            (0xaafb_e3a8_66c0_f922, 0xb0c0_ca26_fef7_6612),
            26,
            1_139,
        ),
        (
            (1, 150),
            2500,
            (0x6f7b_6d32_e307_bc1c, 0xf796_80d1_9d36_78b5),
            0,
            1_243,
        ),
    ] {
        let opts = HarnessOptions {
            reliable: true,
            heartbeats: true,
            mode: RetxMode::Sack,
            crash: Some(crash),
            restart_us: Some(restart_us),
            ..HarnessOptions::default()
        };
        let Pin {
            trace,
            wire,
            engine,
        } = trace_pin(harness::build_pingpong(&opts), &opts);
        assert_eq!((trace, wire), pins, "{crash:?}");
        assert!(engine.events_absorbed > 0, "{crash:?}");
        assert_eq!(engine.events_inlined, inlined, "{crash:?}");
        assert_eq!(engine.logical_events(), logical, "{crash:?}");
    }
}

/// `tg trace stencil --drop 0.10 --ctrl-drop 0.25 --ctrl-corrupt 0.10`
/// and its `--sack` twin: lossy data and control planes on go-back-N and
/// SACK links, the main exercise of the held, NACK and credit-resync
/// reactions. Pinned to the traces the simulator wrote before the switch,
/// the HIB and the test endpoint shared one link end. Reliable links
/// absorb the acks, credits and port-free events that only move a window
/// or free a wire, though lost and corrupt frames keep recovery busy.
#[test]
fn ctrl_fault_traces_are_pinned_and_absorbs() {
    for (mode, pins, logical) in [
        (
            RetxMode::GoBackN,
            (0x4af7_ebfd_14b7_960c, 0xf76d_1b7d_322b_0736),
            4_669,
        ),
        (
            RetxMode::Sack,
            (0x11df_27a7_2487_f89f, 0x6453_f7c5_9731_0261),
            4_434,
        ),
    ] {
        let opts = HarnessOptions {
            reliable: true,
            mode,
            drop: 0.10,
            ctrl_drop: 0.25,
            ctrl_corrupt: 0.10,
            ..HarnessOptions::default()
        };
        let (cluster, _) = harness::build_stencil(&opts, 8, 4);
        let Pin {
            trace,
            wire,
            engine,
        } = trace_pin(cluster, &opts);
        assert_eq!((trace, wire), pins, "{mode:?}");
        assert!(engine.events_absorbed > 0, "{mode:?}");
        assert_eq!(engine.logical_events(), logical, "{mode:?}");
    }
}

/// The `perfbench` `kv` workload shrunk to 4 clients x 64 requests: a
/// go-back-N ring with heartbeats, where most inlined events are the
/// CPU's charge-only steps and most absorbed ones are acks and credits.
/// Pins the audit fingerprint, the wire fingerprint, the latency
/// percentiles, the delivered, absorbed, inlined and logical event counts
/// and the peak queue, and checks the per-kind delivery counts.
#[test]
fn shrunk_kv_run_is_pinned_and_inlines() {
    let opts = HarnessOptions {
        reliable: true,
        mode: RetxMode::GoBackN,
        ..HarnessOptions::default()
    };
    let cfg = tg_kv::KvConfig {
        requests_per_client: 64,
        ..tg_kv::KvConfig::default()
    };
    let (mut cluster, handles) = harness::build_kv(&opts, &cfg);
    let (step, limit) = (SimTime::from_us(50), SimTime::from_ms(2_000));
    let outcome = tg_kv::drive(&mut cluster, &handles, step, limit);
    assert_ne!(outcome, RunLimit::Deadline, "clients did not finish");
    let report = tg_kv::audit(&cluster, &handles, &[]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let mut lat = report.latencies_ns.clone();
    lat.sort_unstable();
    // Nearest rank, as perfbench computes `kv.p50_us` and `kv.p99_us`.
    let rank = |q: f64| lat[((q * lat.len() as f64).ceil() as usize).clamp(1, lat.len()) - 1];
    assert_eq!(report.fingerprint, 0xa6b1_cd91_a9d4_7aa5);
    assert_eq!(cluster.wire_fingerprint(), 0xa139_778d_9dce_5b31);
    assert_eq!(lat.len(), 256);
    assert_eq!((rank(0.50), rank(0.99)), (57_840, 137_560));
    let engine = cluster.engine_stats();
    assert!(engine.events_inlined > 0, "no continuation ran in place");
    assert_eq!(engine.logical_events(), 119_618);
    // Go-back-N links absorb their acks, credits and idle wire-free
    // events (108,482 delivered and 21,429 inlined before they did). The
    // last tick's 32 keepalives are absorbed too (59,393 delivered and
    // 38,525 absorbed while stopping the heartbeats reached every element
    // and so queued them). The peak counts queued events, so no event
    // queue design may move it.
    assert_eq!(
        (
            engine.events_delivered,
            engine.events_absorbed,
            engine.events_inlined
        ),
        (59_283, 38_557, 21_778)
    );
    // Absorbed events never queue: the peak fell from 68, from 65
    // when liveness stopped sending digests every period, and from 51
    // when the boards stopped arming op-timeout sweep ticks.
    assert_eq!(engine.max_queue_len, 44);
    // Heartbeats, acks and timers included, every delivery has a kind;
    // nodes and switches both absorb.
    let mut absorbed = (0, 0);
    for r in cluster.component_stats() {
        assert_eq!(
            r.kinds.iter().sum::<u64>(),
            r.events.delivered,
            "{}",
            r.name
        );
        match r.detail {
            ComponentDetail::Node { .. } => absorbed.0 += r.events.absorbed,
            ComponentDetail::Switch { .. } => absorbed.1 += r.events.absorbed,
        }
    }
    assert!(absorbed.0 > 0 && absorbed.1 > 0, "{absorbed:?}");
    // Deliveries by kind. Liveness is one `tick.heartbeat` per board and
    // one `net.beacon` per switch per period: 7,552 deliveries in all,
    // where per-period digests took 26,352 (the switches ticked twice per
    // period, and every ctrl delivery was a digest). The last tick's
    // keepalive on each of the 32 ports is absorbed: stopping the
    // heartbeats turns a shared switch off and reaches no element, so it
    // no longer queues their deferred events (8 node and 24 switch
    // `net.ctrl` deliveries before). With no digest due at their
    // instants, 29 `cpu_step` and one `hib_done` continuation now run in
    // place.
    assert_eq!(
        harness::kind_report(&cluster),
        "node deliveries by kind: net.arrive 2276, tick.tx_free 390, \
         tick.rx_done 2276, tick.retx_timer 1780, tick.heartbeat 3776, \
         hib_done 10, cpu_step 30369, start 7\n\
         switch deliveries by kind: net.arrive 7962, net.pump_out 352, \
         net.retx_timer 6309, net.beacon 3776\n"
    );
}

/// `tg kv`'s `switchout` cell (go-back-N, seed 0): switch 1 of the
/// 8-switch ring goes silent at 400 µs and returns at 1.5 ms. Its
/// neighbours convict and revive it, and each verdict moves the fabric
/// view under switches that hold deferred acks and credits: those keyed
/// after the verdict must be delivered, so that the switch refreshes its
/// routes first. Pins the audit fingerprint, the wire fingerprint and
/// the logical event count.
#[test]
fn kv_switch_outage_run_is_pinned_and_absorbs() {
    let opts = HarnessOptions {
        reliable: true,
        heartbeats: true,
        mode: RetxMode::GoBackN,
        fault_seed: 0xFA_4B56,
        switch_out: Some((1, 400, 1_500)),
        ..HarnessOptions::default()
    };
    let cfg = tg_kv::KvConfig {
        requests_per_client: 16,
        seed: 0x4B56_0000,
        ..tg_kv::KvConfig::default()
    };
    let (mut cluster, handles) = harness::build_kv(&opts, &cfg);
    let (step, limit) = (SimTime::from_us(50), SimTime::from_ms(200));
    let outcome = tg_kv::drive(&mut cluster, &handles, step, limit);
    assert_ne!(outcome, RunLimit::Deadline, "clients did not finish");
    let silenced = [tg_wire::NodeId::new(1)];
    let report = tg_kv::audit(&cluster, &handles, &silenced);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.fingerprint, 0x7872_8d72_cd7e_9e6e);
    assert_eq!(cluster.wire_fingerprint(), 0x3485_faa7_e141_1274);
    let engine = cluster.engine_stats();
    assert!(engine.events_absorbed > 0, "no link bookkeeping absorbed");
    assert_eq!(engine.logical_events(), 39_731);
}

/// Three nodes on go-back-N links with zero propagation delay, so the
/// receive path returns credits and acks at zero delay, ahead of the
/// zero-delay load completion in the same outbox: the completion must
/// wait for them. Their order is invisible in the trace (a credit and a
/// CPU continuation touch different components), so the exact inlined
/// count pins the rule; inlining behind those sends would take 129.
#[test]
fn zero_delay_peer_sends_are_pinned() {
    let timing = TimingConfig {
        link_prop: SimTime::ZERO,
        ..TimingConfig::telegraphos_i()
    };
    let mut cluster = ClusterBuilder::new(3)
        .timing(timing)
        .reliable_links(RelParams::with_mode(RetxMode::GoBackN))
        .build();
    let pages: Vec<_> = (0..3).map(|n| cluster.alloc_shared(n)).collect();
    let collector = cluster.enable_tracing();
    for n in 0..3u16 {
        let page = &pages[usize::from((n + 1) % 3)];
        let script = (0..12u64)
            .flat_map(|i| {
                [
                    Action::Write(page.va(8 * i), i),
                    Action::Read(page.va(8 * i)),
                    Action::Compute(SimTime::from_ns(10 * u64::from(n))),
                ]
            })
            .collect();
        cluster.set_process(n, Script::new(script));
    }
    cluster.run();
    assert!(cluster.all_halted());
    assert_eq!(export_pin(&collector), 0xc3c1_41d4_c3c6_18af);
    assert_eq!(cluster.wire_fingerprint(), 0x3653_ab06_c1bf_81bb);
    assert_eq!(cluster.now(), SimTime::from_ps(92_640_000));
    let engine = cluster.engine_stats();
    assert_eq!(engine.logical_events(), 1_614);
    assert_eq!(engine.events_inlined, 96);
}
