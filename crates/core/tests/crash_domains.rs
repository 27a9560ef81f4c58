//! Crash-stop fault domains at the full-cluster level: heartbeat
//! conviction of a silenced node, structured failure of in-flight remote
//! operations, bit-for-bit crash replay, route-around recovery past a dead
//! switch, named partitions when the cut disconnects the fabric, and
//! restart reconciliation.

use telegraphos::{
    Action, ClusterBuilder, DetectParams, Drive, FaultPlan, OpError, RelParams, Script, Topology,
};
use tg_sim::{MetricsRegistry, RunLimit, SimTime};
use tg_wire::NodeId;

/// A write/read loop against a page homed on `page_home`, padded with
/// compute so it straddles a mid-run crash window.
fn pounding_script(page: &telegraphos::SharedPage, rounds: u64) -> Script {
    let mut acts = Vec::new();
    for i in 0..rounds {
        acts.push(Action::Write(page.va((i % 16) * 8), i + 1));
        acts.push(Action::Compute(SimTime::from_us(20)));
        acts.push(Action::Read(page.va((i % 16) * 8)));
    }
    Script::new(acts)
}

/// In-flight and future remote operations against a crashed peer resolve
/// as structured `OpError::PeerUnreachable` — the survivor's script runs
/// to completion, nothing hangs, nothing panics, and the relaxed
/// conservation audit still closes its books. The run is sampled, and the
/// fabric byte series keeps recording past the crash instant.
#[test]
fn ops_to_a_crashed_peer_fail_structurally() {
    let crash = SimTime::from_us(100);
    let plan = FaultPlan::new(0xC0FFEE).node_crash(NodeId::new(1), crash);
    let mut cluster = ClusterBuilder::new(2)
        .reliable_links(RelParams::default())
        .with_faults(plan)
        .build();
    cluster.enable_heartbeats(DetectParams::default());
    let page = cluster.alloc_shared(1);
    cluster.set_process(0, pounding_script(&page, 40));
    let mut metrics = MetricsRegistry::new();
    let plan = Drive {
        metrics: Some(&mut metrics),
        ..Drive::quiescent(SimTime::from_us(50), SimTime::from_ms(80))
    };
    let outcome = cluster.drive(plan).unwrap();
    assert_ne!(
        outcome,
        RunLimit::Deadline,
        "the survivor never finished: ops to the dead peer hung"
    );
    let st = cluster.node(0).stats();
    assert!(st.peer_downs > 0, "node 0 never convicted the dead peer");
    assert!(st.op_failures > 0, "no op ever failed structurally");
    let errs = cluster.node(0).hib().op_errors();
    assert!(
        errs.iter()
            .any(|e| matches!(e, OpError::PeerUnreachable { peer } if *peer == NodeId::new(1))),
        "no PeerUnreachable{{peer: node1}} was recorded: {errs:?}"
    );
    let cons = cluster.conservation_violations();
    assert!(cons.is_empty(), "crash run broke conservation: {cons:?}");
    let samples = metrics
        .series_by_name("fabric.bytes_total")
        .expect("series registered");
    assert!(
        samples.iter().filter(|s| s.at > crash).count() > 1,
        "no samples after the crash: {samples:?}"
    );
}

/// The same seeded crash plan replays bit for bit: identical final
/// memory, identical operation/failure counters, identical fabric
/// traffic, identical finish time.
#[test]
fn seeded_crash_runs_replay_bit_for_bit() {
    let run = || {
        let plan = FaultPlan::new(0x5EED_DEAD)
            .drop(0.05)
            .node_crash(NodeId::new(1), SimTime::from_us(120));
        let mut cluster = ClusterBuilder::new(3)
            .reliable_links(RelParams::default())
            .with_faults(plan)
            .build();
        cluster.enable_heartbeats(DetectParams::default());
        let page = cluster.alloc_shared(1);
        let page0 = cluster.alloc_shared(0);
        cluster.set_process(0, pounding_script(&page, 30));
        cluster.set_process(2, pounding_script(&page0, 30));
        cluster
            .drive(Drive::quiescent(SimTime::from_us(50), SimTime::from_ms(80)))
            .unwrap();
        let mem: Vec<u64> = (0..16).map(|w| cluster.read_shared(&page0, w)).collect();
        let stats: Vec<String> = (0..3)
            .map(|i| format!("{:?}", cluster.node(i).stats()))
            .collect();
        (
            mem,
            stats,
            cluster.fabric_packets(),
            cluster.fabric_retransmits(),
            cluster.now(),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "seeded crash replay diverged");
}

/// A crashed peer must not be blamed by the no-progress diagnosis: the
/// survivor's run ends cleanly even though the dead node never halts,
/// because declared-dead sites are filtered out of the deadlock report.
#[test]
fn crashed_peers_are_not_reported_as_deadlocks() {
    let plan = FaultPlan::new(0xDEAD0).node_crash(NodeId::new(1), SimTime::from_us(80));
    let mut cluster = ClusterBuilder::new(2)
        .reliable_links(RelParams::default())
        .with_faults(plan)
        .build();
    cluster.enable_heartbeats(DetectParams::default());
    let page0 = cluster.alloc_shared(0);
    // The doomed node pounds a page homed on the survivor; after the
    // crash its traffic is silenced and it never halts.
    cluster.set_process(1, pounding_script(&page0, 200));
    cluster.set_process(
        0,
        Script::new(vec![Action::Write(page0.va(0), 7), Action::Fence]),
    );
    let outcome = cluster
        .drive(Drive::quiescent(SimTime::from_us(50), SimTime::from_ms(60)))
        .unwrap();
    assert_ne!(
        outcome,
        RunLimit::Deadline,
        "survivor wedged behind the dead peer"
    );
    assert!(
        cluster.node(0).halted(),
        "the survivor's own work did not finish"
    );
}

/// On a switch ring, traffic routes around a dead switch: the fabric
/// recomputes paths from the shared view and the workload completes with
/// correct memory contents.
#[test]
fn traffic_routes_around_a_dead_switch() {
    // Ring of 4 switches, one node each. Switch 1 dies early and stays
    // dead; node 0's traffic to node 2 must fail over to the 0-3-2 arc.
    let plan = FaultPlan::new(0x0FF).switch_outage(1, SimTime::from_us(40), SimTime::from_ms(500));
    let params = RelParams {
        max_retries: 6,
        ..RelParams::default()
    };
    let mut cluster = ClusterBuilder::new(4)
        .topology(Topology::ring(4))
        .reliable_links(params)
        .with_faults(plan)
        .build();
    cluster.enable_heartbeats(DetectParams::default());
    let page = cluster.alloc_shared(2);
    let mut acts = Vec::new();
    for i in 0..24u64 {
        acts.push(Action::Write(page.va((i % 16) * 8), 1000 + i));
        acts.push(Action::Compute(SimTime::from_us(25)));
    }
    acts.push(Action::Fence);
    cluster.set_process(0, Script::new(acts));
    let outcome = cluster
        .drive(Drive::quiescent(
            SimTime::from_us(50),
            SimTime::from_ms(100),
        ))
        .unwrap();
    assert_ne!(
        outcome,
        RunLimit::Deadline,
        "traffic never routed around the dead switch"
    );
    assert!(cluster.node(0).halted(), "writer never finished");
    // Writes from both before and after the outage landed.
    assert_eq!(cluster.read_shared(&page, 0), 1000 + 16);
    assert_eq!(cluster.read_shared(&page, 15), 1000 + 15);
}

/// When the cut disconnects the fabric (a chain loses its middle
/// switch), recovery is impossible — the run degrades into a structured
/// deadlock report that names the partition instead of hanging.
#[test]
fn a_disconnecting_cut_names_the_partition() {
    let plan = FaultPlan::new(0xC07).switch_outage(1, SimTime::ZERO, SimTime::from_ms(500));
    let params = RelParams {
        max_retries: 4,
        ..RelParams::default()
    };
    let mut cluster = ClusterBuilder::new(3)
        .topology(Topology::chain(3))
        .reliable_links(params)
        .with_faults(plan)
        .build();
    let page = cluster.alloc_shared(2);
    cluster.set_process(
        0,
        Script::new(vec![Action::Write(page.va(0), 9), Action::Fence]),
    );
    let report = cluster
        .drive(Drive::watchdog(SimTime::from_us(500)))
        .expect_err("a disconnected fabric must trip the watchdog");
    assert!(
        !report.partition.is_empty(),
        "the report does not name the partition: {report}"
    );
    assert_eq!(
        report.to_string(),
        "no progress for a full watchdog window (declared at 230.810us, 1 units committed):\n\
         \x20 PARTITION: live nodes unreachable by routing: node1, node2\n"
    );
}

/// An OS-trap send issued *after* the destination's conviction fails fast
/// at issue time (`OpError::PeerUnreachable`, refused-send counted)
/// instead of streaming DMA bursts into a dead link's retry budget.
#[test]
fn sends_issued_after_conviction_fail_at_issue_time() {
    let plan = FaultPlan::new(0xFA57).node_crash(NodeId::new(1), SimTime::from_us(100));
    let mut cluster = ClusterBuilder::new(2)
        .reliable_links(RelParams::default())
        .with_faults(plan)
        .build();
    cluster.enable_heartbeats(DetectParams::default());
    // Wait out the crash + conviction locally, then try to message the
    // corpse: nothing here touches node 1 before its conviction.
    cluster.set_process(
        0,
        Script::new(vec![
            Action::Compute(SimTime::from_ms(1)),
            Action::Send {
                dst: NodeId::new(1),
                bytes: 4096,
                tag: 7,
            },
            Action::Halt,
        ]),
    );
    let outcome = cluster
        .drive(Drive::quiescent(SimTime::from_us(50), SimTime::from_ms(10)))
        .unwrap();
    assert_ne!(outcome, RunLimit::Deadline, "sender never finished");
    let hib = cluster.node(0).hib().stats();
    assert!(
        hib.os_sends_refused > 0,
        "the post-conviction send was not refused at issue time"
    );
    assert!(
        cluster.node(0).stats().op_failures > 0,
        "the refused send never surfaced as a structured op failure"
    );
}

/// `DetectParams` is a real knob, not decoration: the same crash is
/// convicted under the default thresholds but goes unnoticed when the
/// caller stretches `peer_timeout` past the whole run.
#[test]
fn detect_params_tune_the_conviction_threshold() {
    let run = |params: DetectParams| {
        let plan = FaultPlan::new(0xD7EC).node_crash(NodeId::new(1), SimTime::from_us(100));
        let mut cluster = ClusterBuilder::new(2)
            .reliable_links(RelParams::default())
            .with_faults(plan)
            .build();
        cluster.enable_heartbeats(params);
        // Pure local compute: the survivor never touches the dead peer,
        // so the only down verdict can come from the detector.
        cluster.set_process(
            0,
            Script::new(vec![Action::Compute(SimTime::from_ms(1)), Action::Halt]),
        );
        cluster
            .drive(Drive::quiescent(SimTime::from_us(50), SimTime::from_ms(10)))
            .unwrap();
        cluster.node(0).stats().peer_downs
    };
    assert!(
        run(DetectParams::default()) > 0,
        "default thresholds missed a 100us crash over a 1ms run"
    );
    let deaf = DetectParams {
        peer_timeout: SimTime::from_ms(50),
        ..DetectParams::default()
    };
    assert_eq!(
        run(deaf),
        0,
        "a 50ms peer_timeout convicted within a 1ms run"
    );
}

/// Invalid detector knobs are rejected at `enable_heartbeats` instead of
/// silently convicting healthy peers between their own beacons.
#[test]
#[should_panic(expected = "inverted")]
fn inverted_detect_params_are_rejected_at_enable() {
    let mut cluster = ClusterBuilder::new(2)
        .reliable_links(RelParams::default())
        .build();
    cluster.enable_heartbeats(DetectParams {
        heartbeat_every: SimTime::from_us(100),
        peer_timeout: SimTime::from_us(50),
        phi_factor: 8,
    });
}

/// A crashed node that restarts is convicted, then rehabilitated: the
/// survivor sees both transitions and finishes its workload, and the
/// revived peer's stale copies were discarded on rejoin.
#[test]
fn a_restarted_peer_is_convicted_then_rehabilitated() {
    let plan = FaultPlan::new(0x12E5)
        .node_crash(NodeId::new(1), SimTime::from_us(100))
        .node_restart(NodeId::new(1), SimTime::from_ms(4));
    let mut cluster = ClusterBuilder::new(2)
        .reliable_links(RelParams::default())
        .with_faults(plan)
        .build();
    cluster.enable_heartbeats(DetectParams::default());
    let page = cluster.alloc_shared(0);
    // Long-running survivor workload spanning crash and restart.
    cluster.set_process(0, pounding_script(&page, 400));
    let outcome = cluster
        .drive(Drive::quiescent(
            SimTime::from_us(50),
            SimTime::from_ms(120),
        ))
        .unwrap();
    assert_ne!(
        outcome,
        RunLimit::Deadline,
        "survivor wedged across the restart"
    );
    let st = cluster.node(0).stats();
    assert!(st.peer_downs > 0, "the crash was never detected");
    assert!(
        st.peer_ups > 0,
        "the restart was never detected (peer_downs={}, now={:?})",
        st.peer_downs,
        cluster.now()
    );
}

/// A failover-aware writer that re-targets on structural failure using
/// the service-layer successor rule ([`tg_proto::RangeMap::promote`]:
/// smallest-id live replica). Each round fetch-stores the round number
/// into the current owner's page; a `Resume::Failed` convicts the
/// target locally and promotes the next live replica, retrying the same
/// round — so a crash of the *promoted* owner mid-migration cascades to
/// the next survivor.
struct CascadingWriter {
    map: tg_proto::RangeMap,
    pages: Vec<telegraphos::SharedPage>,
    live: Vec<bool>,
    target: usize,
    round: u64,
    rounds: u64,
    reroutes: u32,
    /// True while waiting out the per-round compute padding (which makes
    /// the migration span both crash windows).
    padding: bool,
}

impl CascadingWriter {
    fn new(pages: Vec<telegraphos::SharedPage>, rounds: u64) -> Self {
        let replicas: Vec<NodeId> = pages.iter().map(|p| p.home).collect();
        CascadingWriter {
            map: tg_proto::RangeMap::new(1, &replicas),
            pages,
            live: vec![true; 3],
            target: 0,
            round: 0,
            rounds,
            reroutes: 0,
            padding: false,
        }
    }

    fn store(&self) -> Action {
        Action::FetchStore(self.pages[self.target].va(0), self.round + 1)
    }
}

impl telegraphos::Process for CascadingWriter {
    fn resume(&mut self, r: telegraphos::Resume) -> Action {
        match r {
            telegraphos::Resume::Start => self.store(),
            telegraphos::Resume::Failed(OpError::PeerUnreachable { peer }) => {
                // Convict and promote: the same smallest-id-live rule the
                // KV service's clients use.
                if let Some(i) = self.pages.iter().position(|p| p.home == peer) {
                    self.live[i] = false;
                }
                self.live[self.target] = false;
                self.reroutes += 1;
                let live = self.live.clone();
                let next = self.map.promote(|n| {
                    self.pages
                        .iter()
                        .position(|p| p.home == n)
                        .is_some_and(|i| live[i])
                });
                match next {
                    Some(n) => {
                        self.target = self
                            .pages
                            .iter()
                            .position(|p| p.home == n)
                            .expect("promoted a non-replica");
                        self.store()
                    }
                    None => Action::Halt,
                }
            }
            _ => {
                if self.padding {
                    self.padding = false;
                    return self.store();
                }
                self.round += 1;
                if self.round >= self.rounds {
                    return Action::Halt;
                }
                self.padding = true;
                Action::Compute(SimTime::from_us(20))
            }
        }
    }
}

/// Cascading failover: the owner crashes, writes migrate to the promoted
/// successor, then the *successor* crashes mid-migration and ownership
/// must settle on the third replica — with every round's write landing
/// exactly once on whichever replica finally owned it, nothing hung, and
/// both convictions visible at the writer.
#[test]
fn cascading_failover_settles_on_the_third_replica() {
    let plan = FaultPlan::new(0xCA5CADE)
        .node_crash(NodeId::new(1), SimTime::from_us(150))
        .node_crash(NodeId::new(2), SimTime::from_us(700));
    let mut cluster = ClusterBuilder::new(4)
        .reliable_links(RelParams::default())
        .with_faults(plan)
        .build();
    cluster.enable_heartbeats(DetectParams::default());
    let pages: Vec<_> = (1..4).map(|n| cluster.alloc_shared(n)).collect();
    let rounds = 40u64;
    cluster.set_process(0, CascadingWriter::new(pages.clone(), rounds));
    let outcome = cluster
        .drive(Drive::quiescent(
            SimTime::from_us(50),
            SimTime::from_ms(120),
        ))
        .unwrap();
    assert_ne!(
        outcome,
        RunLimit::Deadline,
        "writer wedged across the cascade"
    );
    assert!(cluster.node(0).halted(), "writer never finished its rounds");
    let st = cluster.node(0).stats();
    assert!(
        st.peer_downs >= 2,
        "both crashes must be convicted (peer_downs={})",
        st.peer_downs
    );
    assert!(
        st.op_failures >= 2,
        "each crash should fail at least one in-flight op (op_failures={})",
        st.op_failures
    );
    // Ownership settled on the third replica: the final rounds landed on
    // node 3's page and reached the last round number.
    assert_eq!(
        cluster.read_shared(&pages[2], 0),
        rounds,
        "the last write did not land on the final owner"
    );
    let cons = cluster.conservation_violations();
    assert!(cons.is_empty(), "cascade broke conservation: {cons:?}");
}
