//! Scale pin of the liveness traffic: with heartbeats on, a port sends a
//! keepalive only after a whole period in which it launched nothing, and
//! any frame it does launch stands in for one. An idle 64-node star
//! therefore launches one keepalive per directed link per period (128,
//! what per-period digests cost on any load), while the busy KV ring
//! launches far fewer than its 32 directed links would need. Enabling
//! heartbeats twice must not double that.

use telegraphos::{Cluster, ClusterBuilder, ComponentDetail, DetectParams, RelParams};
use telegraphos_suite::harness::{self, HarnessOptions};
use tg_sim::SimTime;

/// Liveness frames launched so far by every HIB and every switch:
/// keepalives, verdict notices and their acks.
fn liveness_frames(cluster: &Cluster) -> u64 {
    let hibs: u64 = (0..cluster.node_count())
        .map(|i| cluster.node(i).hib_stats().liveness_tx)
        .sum();
    let switches: u64 = cluster
        .component_stats()
        .iter()
        .map(|r| match r.detail {
            ComponentDetail::Switch { liveness_tx, .. } => liveness_tx,
            ComponentDetail::Node { .. } => 0,
        })
        .sum();
    hibs + switches
}

/// Liveness frames launched per period over twenty periods in mid-run,
/// measured between two instants that fall between ticks, on a cluster
/// whose heartbeats run at the default period.
fn frames_per_period(mut cluster: Cluster) -> u64 {
    let every = DetectParams::default().heartbeat_every;
    let mid = |k: u64| SimTime::from_ps(every.as_ps() * k + every.as_ps() / 2);
    cluster.run_until(mid(5));
    let before = liveness_frames(&cluster);
    cluster.run_until(mid(25));
    (liveness_frames(&cluster) - before) / 20
}

#[test]
fn an_idle_64_node_star_launches_one_keepalive_per_directed_link_per_period() {
    let mut cluster = ClusterBuilder::new(64)
        .reliable_links(RelParams::default())
        .build();
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

/// Per-period digests cost 32 frames here (8 uplinks, 8 downlinks and
/// 8 switch-to-switch links each way); the requests keep most links busy.
#[test]
fn the_busy_kv_ring_launches_far_fewer_liveness_frames_than_its_links() {
    assert_eq!(frames_per_period(kv_ring()), 10);
}

#[test]
fn a_second_enable_keeps_one_beacon_chain() {
    let mut cluster = kv_ring();
    cluster.enable_heartbeats(DetectParams::default());
    assert_eq!(frames_per_period(cluster), 10);
}

/// The last halt instant of a 256-node stencil (strip 8, 2 sweeps) on one
/// reliable star, and its operation failures. Node 0's fetch-and-add
/// barrier queues healthy requests for hundreds of microseconds at this
/// size.
fn stencil256(heartbeats: bool) -> (SimTime, u64) {
    let opts = HarnessOptions {
        nodes: 256,
        reliable: true,
        heartbeats,
        ..HarnessOptions::default()
    };
    let (mut cluster, check) = harness::build_stencil(&opts, 8, 2);
    assert!(harness::run_cluster(&mut cluster, &opts, None));
    harness::verify_stencil(&cluster, &check).expect("the stencil matches its reference");
    let stats: Vec<_> = (0..cluster.node_count())
        .map(|i| cluster.node(i).stats())
        .collect();
    let halt = stats
        .iter()
        .map(|s| s.halted_at.expect("every node halts"))
        .max()
        .expect("nodes");
    (halt, stats.iter().map(|s| s.op_failures).sum())
}

/// Liveness costs a healthy fabric nothing at scale: a slow answer is
/// not a lost one, so heartbeats neither retry nor fail the queued
/// requests, and the run halts when the heartbeat-free run does.
#[test]
fn a_healthy_heartbeat_stencil_halts_on_time_at_256_nodes() {
    let (quiet, failures) = stencil256(false);
    assert_eq!(failures, 0);
    assert_eq!(stencil256(true), (quiet, 0));
}
