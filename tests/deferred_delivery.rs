//! Exactness pins for the engine's event elisions: deferred delivery
//! (absorbed events) and same-instant continuations (inlined events).
//!
//! Each trace test rebuilds a `tg trace` configuration, exports its trace
//! the way `tg trace --out` does, and compares an FNV-1a fingerprint of
//! the file bytes with the one recorded from the trace the simulator
//! wrote before the engine learnt to absorb events. The stencil run
//! absorbs credits and port-free events; the fault runs (a fabric view
//! with go-back-N links, SACK links with a crash and restart, and lossy
//! control planes on both disciplines) must absorb nothing and stay
//! eager. The logical event count (delivered +
//! absorbed + inlined) is pinned to what the simulator delivered before
//! it inlined anything. The KV test pins a shrunk `perfbench` `kv` run
//! the same way, by its audit fingerprint and latency percentiles, and a
//! zero-latency-link run pins the rule that a continuation never runs
//! ahead of a zero-delay send to another component.

use telegraphos::observe::{chrome_events, chrome_trace_json};
use telegraphos::{Action, Cluster, ClusterBuilder, RelParams, RetxMode, Script};
use telegraphos_suite::harness::{self, HarnessOptions};
use tg_sim::{EngineStats, RunLimit, SimTime};
use tg_wire::TimingConfig;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `cluster` as `tg trace` does and returns the fingerprint of the
/// exported trace and the engine counters.
fn trace_pin(mut cluster: Cluster, opts: &HarnessOptions) -> (u64, EngineStats) {
    let collector = cluster.enable_tracing();
    assert!(harness::run_cluster(&mut cluster, opts, None), "run wedged");
    let json = chrome_trace_json(&chrome_events(
        &collector.op_events(),
        &collector.packet_events(),
    ));
    (fnv1a(json.as_bytes()), cluster.engine_stats())
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
    let (fingerprint, engine) = trace_pin(cluster, &opts);
    assert_eq!(fingerprint, 0xf8bb_9761_8edb_8c3d);
    assert!(
        engine.events_absorbed > 0,
        "the unreliable stencil absorbed nothing"
    );
    assert!(engine.events_inlined > 0, "no continuation ran in place");
    assert_eq!(engine.logical_events(), 16_127);
}

/// `tg trace pingpong --switch-out 1,100,100000`: switches hold a fabric
/// view and links are reliable, so nothing is absorbed.
#[test]
fn switch_out_trace_is_pinned_and_eager() {
    let opts = HarnessOptions {
        reliable: true,
        heartbeats: true,
        switch_out: Some((1, 100, 100_000)),
        ..HarnessOptions::default()
    };
    let (fingerprint, engine) = trace_pin(harness::build_pingpong(&opts), &opts);
    assert_eq!(fingerprint, 0xa850_1d27_ab7e_f53f);
    assert_eq!(engine.events_absorbed, 0);
    assert!(engine.events_inlined > 0, "no continuation ran in place");
    assert_eq!(engine.logical_events(), 3_152);
}

/// `tg trace pingpong --sack --crash 1,40 --restart 150` and `--crash
/// 1,150 --restart 2500`: SACK links and a crash-restart cycle, so
/// nothing is absorbed. Ping-pong's last event falls at 79.3 µs, so only
/// the first window opens while the workload runs; the second crashes a
/// node that has already finished. The four nodes run in lockstep: every
/// continuation ties with another node's event at the same instant, so
/// none runs in place.
#[test]
fn sack_crash_restart_trace_is_pinned_and_eager() {
    for (crash, restart_us, pin, logical) in [
        ((1, 40), 150, 0x5855_77e5_863e_65a5, 1_231),
        ((1, 150), 2500, 0x6f7b_6d32_e307_bc1c, 1_328),
    ] {
        let opts = HarnessOptions {
            reliable: true,
            heartbeats: true,
            mode: RetxMode::Sack,
            crash: Some(crash),
            restart_us: Some(restart_us),
            ..HarnessOptions::default()
        };
        let (fingerprint, engine) = trace_pin(harness::build_pingpong(&opts), &opts);
        assert_eq!(fingerprint, pin, "{crash:?}");
        assert_eq!(engine.events_absorbed, 0, "{crash:?}");
        assert_eq!(engine.events_inlined, 0, "{crash:?}");
        assert_eq!(engine.logical_events(), logical, "{crash:?}");
    }
}

/// `tg trace stencil --drop 0.10 --ctrl-drop 0.25 --ctrl-corrupt 0.10`
/// and its `--sack` twin: lossy data and control planes on go-back-N and
/// SACK links, the main exercise of the held, NACK and credit-resync
/// reactions. Pinned to the traces the simulator wrote before the switch,
/// the HIB and the test endpoint shared one link end. Reliable links
/// absorb nothing.
#[test]
fn ctrl_fault_traces_are_pinned_and_eager() {
    for (mode, pin, logical) in [
        (RetxMode::GoBackN, 0x4af7_ebfd_14b7_960c, 4_669),
        (RetxMode::Sack, 0x11df_27a7_2487_f89f, 4_434),
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
        let (fingerprint, engine) = trace_pin(cluster, &opts);
        assert_eq!(fingerprint, pin, "{mode:?}");
        assert_eq!(engine.events_absorbed, 0, "{mode:?}");
        assert_eq!(engine.logical_events(), logical, "{mode:?}");
    }
}

/// The `perfbench` `kv` workload shrunk to 4 clients x 64 requests: a
/// go-back-N ring with heartbeats, where most inlined events are the
/// CPU's charge-only steps. Pins the audit fingerprint, the latency
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
    assert_eq!(lat.len(), 256);
    assert_eq!((rank(0.50), rank(0.99)), (57_840, 137_560));
    let engine = cluster.engine_stats();
    assert!(engine.events_inlined > 0, "no continuation ran in place");
    assert_eq!(engine.logical_events(), 171_391);
    // Go-back-N links defer nothing. The peak counts queued events, so no
    // event queue design may move it.
    assert_eq!(
        (
            engine.events_delivered,
            engine.events_absorbed,
            engine.events_inlined
        ),
        (149_969, 0, 21_422)
    );
    assert_eq!(engine.max_queue_len, 82);
    // Heartbeats, acks and timers included, every delivery has a kind.
    for r in cluster.component_stats() {
        assert_eq!(
            r.kinds.iter().sum::<u64>(),
            r.events.delivered,
            "{}",
            r.name
        );
    }
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
    let json = chrome_trace_json(&chrome_events(
        &collector.op_events(),
        &collector.packet_events(),
    ));
    assert_eq!(fnv1a(json.as_bytes()), 0xc3c1_41d4_c3c6_18af);
    assert_eq!(cluster.now(), SimTime::from_ps(92_640_000));
    let engine = cluster.engine_stats();
    assert_eq!(engine.logical_events(), 1_614);
    assert_eq!(engine.events_inlined, 96);
}
