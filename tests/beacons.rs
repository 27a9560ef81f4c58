//! Scale pin of the liveness traffic: with heartbeats on, every element
//! sends one digest per beacon period on each attached link, so the
//! beacon frames delivered per period equal the number of directed links
//! — 128 on a 64-node star, where a per-origin flood would deliver
//! 64 × 64 = 4,096 — and 32 on an 8-node ring (8 uplinks, 8 downlinks
//! and 8 switch-to-switch links each way), where it would deliver 136.
//! Enabling heartbeats twice must not double that.

use telegraphos::{Cluster, ComponentDetail, DetectParams};
use telegraphos_suite::harness::{self, HarnessOptions};
use tg_sim::SimTime;

/// Beacon frames delivered so far: digests received intact by every HIB
/// and every switch.
fn beacon_frames(cluster: &Cluster) -> u64 {
    let hibs: u64 = (0..cluster.node_count())
        .map(|i| cluster.node(i).hib_stats().heartbeats_rx)
        .sum();
    let switches: u64 = cluster
        .component_stats()
        .iter()
        .map(|r| match r.detail {
            ComponentDetail::Switch { heartbeats_rx, .. } => heartbeats_rx,
            ComponentDetail::Node { .. } => 0,
        })
        .sum();
    hibs + switches
}

/// Beacon frames delivered per period over twenty periods in mid-run,
/// measured between two instants that fall between beacon rounds, on a
/// cluster whose heartbeats run at the default period.
fn frames_per_period(mut cluster: Cluster) -> u64 {
    let every = DetectParams::default().heartbeat_every;
    let mid = |k: u64| SimTime::from_ps(every.as_ps() * k + every.as_ps() / 2);
    cluster.run_until(mid(5));
    let before = beacon_frames(&cluster);
    cluster.run_until(mid(25));
    (beacon_frames(&cluster) - before) / 20
}

#[test]
fn a_64_node_star_delivers_one_digest_per_directed_link_per_period() {
    let opts = HarnessOptions {
        nodes: 64,
        reliable: true,
        heartbeats: true,
        ..HarnessOptions::default()
    };
    let (mut cluster, _) = harness::build_stencil(&opts, 8, 4);
    cluster.enable_heartbeats(DetectParams::default());
    assert_eq!(frames_per_period(cluster), 2 * 64);
}

/// The KV deployment on its 8-node ring, which enables heartbeats itself.
fn kv_ring() -> Cluster {
    let opts = HarnessOptions {
        nodes: 8,
        reliable: true,
        heartbeats: true,
        ..HarnessOptions::default()
    };
    harness::build_kv(&opts, &tg_kv::KvConfig::default()).0
}

#[test]
fn an_8_node_ring_delivers_one_digest_per_directed_link_per_period() {
    assert_eq!(frames_per_period(kv_ring()), 2 * 8 + 2 * 8);
}

#[test]
fn a_second_enable_keeps_one_beacon_chain() {
    let mut cluster = kv_ring();
    cluster.enable_heartbeats(DetectParams::default());
    assert_eq!(frames_per_period(cluster), 2 * 8 + 2 * 8);
}
