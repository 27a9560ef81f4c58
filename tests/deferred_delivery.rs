//! Exactness pins for deferred delivery.
//!
//! Each test rebuilds a `simtrace` configuration, exports its trace the
//! way `simtrace --out` does, and compares an FNV-1a fingerprint of the
//! file bytes with the one recorded from the trace the simulator wrote
//! before the engine learnt to absorb events. The stencil run absorbs
//! credits and port-free events; the two fault runs (a fabric view with
//! go-back-N links, SACK links with a crash and restart) must absorb
//! nothing and stay eager.

use telegraphos::observe::{chrome_events, chrome_trace_json};
use telegraphos::{Cluster, RetxMode};
use telegraphos_suite::harness::{self, HarnessOptions};

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `cluster` as `simtrace` does and returns the fingerprint of the
/// exported trace and the number of events the engine absorbed.
fn trace_pin(mut cluster: Cluster, opts: &HarnessOptions) -> (u64, u64) {
    let collector = cluster.enable_tracing();
    assert!(harness::run_cluster(&mut cluster, opts, None), "run wedged");
    let json = chrome_trace_json(&chrome_events(
        &collector.op_events(),
        &collector.packet_events(),
    ));
    (
        fnv1a(json.as_bytes()),
        cluster.engine_stats().events_absorbed,
    )
}

/// `simtrace stencil --nodes 16`: unreliable links on one star, so the
/// engine absorbs credits and idle port-free events.
#[test]
fn stencil16_trace_is_pinned_and_absorbs() {
    let opts = HarnessOptions {
        nodes: 16,
        ..HarnessOptions::default()
    };
    let (cluster, _) = harness::build_stencil(&opts, 8, 4);
    let (fingerprint, absorbed) = trace_pin(cluster, &opts);
    assert_eq!(fingerprint, 0xf8bb_9761_8edb_8c3d);
    assert!(absorbed > 0, "the unreliable stencil absorbed nothing");
}

/// `simtrace pingpong --switch-out 1,100,100000`: switches hold a fabric
/// view and links are reliable, so nothing is absorbed.
#[test]
fn switch_out_trace_is_pinned_and_eager() {
    let opts = HarnessOptions {
        reliable: true,
        heartbeats: true,
        switch_out: Some((1, 100, 100_000)),
        ..HarnessOptions::default()
    };
    let (fingerprint, absorbed) = trace_pin(harness::build_pingpong(&opts), &opts);
    assert_eq!(fingerprint, 0xa850_1d27_ab7e_f53f);
    assert_eq!(absorbed, 0);
}

/// `simtrace pingpong --sack --crash 1,150 --restart 2500`: SACK links
/// and a crash-restart cycle, so nothing is absorbed.
#[test]
fn sack_crash_restart_trace_is_pinned_and_eager() {
    let opts = HarnessOptions {
        reliable: true,
        heartbeats: true,
        mode: RetxMode::Sack,
        crash: Some((1, 150)),
        restart_us: Some(2500),
        ..HarnessOptions::default()
    };
    let (fingerprint, absorbed) = trace_pin(harness::build_pingpong(&opts), &opts);
    assert_eq!(fingerprint, 0x6f7b_6d32_e307_bc1c);
    assert_eq!(absorbed, 0);
}
