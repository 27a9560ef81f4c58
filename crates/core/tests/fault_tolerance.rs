//! Fault-tolerance regressions at the full-cluster level: fault masking
//! (same memory and operation counts as a fault-free run), the
//! no-progress watchdog naming a dead link (at a node and at a switch
//! port, its rendered report pinned), conservation checks catching
//! a leaked credit, and fence completion surviving a retransmit storm.

use telegraphos::{Action, ClusterBuilder, Drive, FaultPlan, LinkId, RelParams, Script};
use tg_sim::{RunLimit, SimTime};
use tg_wire::trace::Site;
use tg_wire::NodeId;

fn victim_uplink(node: u16) -> LinkId {
    LinkId::new(Site::Node(NodeId::new(node)), Site::Switch(0))
}

/// A ping-pong workload under drop + corruption faults finishes with the
/// same memory contents and the same per-node operation counts as the
/// fault-free run — the link layer fully masks the lossy fabric.
#[test]
fn faulted_run_matches_fault_free_outcome() {
    let script = |page: &telegraphos::SharedPage| {
        let mut acts = Vec::new();
        for i in 0..50u64 {
            acts.push(Action::Write(page.va((i % 16) * 8), i));
        }
        acts.push(Action::Fence);
        for i in 0..10u64 {
            acts.push(Action::Read(page.va((i % 16) * 8)));
        }
        Script::new(acts)
    };

    let run = |plan: Option<FaultPlan>| {
        let mut b = ClusterBuilder::new(2).reliable_links(RelParams::default());
        if let Some(p) = plan {
            b = b.with_faults(p);
        }
        let mut cluster = b.build();
        let page = cluster.alloc_shared(1);
        cluster.set_process(0, script(&page));
        cluster.run();
        let mem: Vec<u64> = (0..16).map(|w| cluster.read_shared(&page, w)).collect();
        let st = cluster.node(0).stats();
        (
            mem,
            st.remote_writes.count(),
            st.remote_reads.count(),
            st.fences.count(),
            cluster.fabric_retransmits(),
            cluster.conservation_violations(),
        )
    };

    let (mem0, w0, r0, f0, retx0, cons0) = run(None);
    assert_eq!(retx0, 0, "lossless run must not retransmit");
    assert!(
        cons0.is_empty(),
        "lossless run broke conservation: {cons0:?}"
    );

    let plan = FaultPlan::new(0xFEED_FACE).drop(0.2).corrupt(0.1);
    let (mem1, w1, r1, f1, retx1, cons1) = run(Some(plan));
    assert_eq!(mem1, mem0, "faults changed memory contents");
    assert_eq!(
        (w1, r1, f1),
        (w0, r0, f0),
        "faults changed operation counts"
    );
    assert!(retx1 > 0, "a 20% drop rate must force retransmissions");
    assert!(
        cons1.is_empty(),
        "faulted run broke conservation: {cons1:?}"
    );
}

/// A permanently dead uplink stops all progress; the watchdog must stop
/// the run and name the dead link in its report instead of panicking or
/// spinning.
#[test]
fn watchdog_names_a_permanently_dead_link() {
    let plan = FaultPlan::new(0xBAD11).outage(victim_uplink(0), SimTime::ZERO, SimTime::MAX);
    // A small retry budget so the link is declared dead (rather than
    // still mid-storm) by the time the watchdog window closes.
    let params = RelParams {
        max_retries: 5,
        ..RelParams::default()
    };
    let mut cluster = ClusterBuilder::new(2)
        .reliable_links(params)
        .with_faults(plan)
        .build();
    let page = cluster.alloc_shared(1);
    cluster.set_process(
        0,
        Script::new(vec![Action::Write(page.va(0), 7), Action::Fence]),
    );
    let report = cluster
        .drive(Drive::watchdog(SimTime::from_us(500)))
        .expect_err("a dead link must trip the watchdog");
    assert_eq!(
        report.to_string(),
        "no progress for a full watchdog window (declared at 315.000us, 1 units committed):\n\
         \x20 link node0->switch0: DEAD, 1 stranded, 7 credits, 5 retransmits (6 unanswered)\n\
         \x20 node0: 0 queued, 0 in rx FIFO, 1 unacked, 7 credits, link DEAD\n"
    );
    assert!(
        report.nodes.iter().any(|n| n.node == NodeId::new(0)),
        "report does not name the stuck node: {report}"
    );
    // The degradation was also surfaced as a structured error + interrupt.
    assert!(
        cluster
            .link_errors()
            .iter()
            .any(|(who, e)| who == "node0"
                && matches!(e, telegraphos::LinkError::RetryExhausted { .. })),
        "no structured dead-link error: {:?}",
        cluster.link_errors()
    );
    assert!(
        cluster.node(0).stats().link_failures > 0,
        "the OS never saw a link-failure interrupt"
    );
}

/// A switch port whose link died: the watchdog names the switch's
/// transmit side of the dead hop and the nodes still holding work.
#[test]
fn watchdog_names_a_dead_switch_port() {
    let downlink = LinkId::new(Site::Switch(0), Site::Node(NodeId::new(1)));
    let plan = FaultPlan::new(0xBAD12).outage(downlink, SimTime::ZERO, SimTime::MAX);
    let params = RelParams {
        max_retries: 5,
        ..RelParams::default()
    };
    let mut cluster = ClusterBuilder::new(3)
        .reliable_links(params)
        .with_faults(plan)
        .build();
    let page = cluster.alloc_shared(1);
    for n in [0, 2] {
        let acts = (0..4).flat_map(|i| [Action::Write(page.va(8 * i), i), Action::Fence]);
        cluster.set_process(n, Script::new(acts.collect()));
    }
    let report = cluster
        .drive(Drive::watchdog(SimTime::from_us(500)))
        .expect_err("a dead downlink must trip the watchdog");
    assert_eq!(
        report.to_string(),
        "no progress for a full watchdog window (declared at 310.810us, 2 units committed):\n\
         \x20 link switch0->node1: DEAD, 2 stranded, 6 credits, 10 retransmits (6 unanswered)\n\
         \x20 PARTITION: live nodes unreachable by routing: node1\n"
    );
}

/// A fault-free run under the watchdog simply drains.
#[test]
fn watchdog_is_silent_on_a_healthy_run() {
    let mut cluster = ClusterBuilder::new(2)
        .reliable_links(RelParams::default())
        .build();
    let page = cluster.alloc_shared(1);
    cluster.set_process(
        0,
        Script::new(vec![Action::Write(page.va(0), 1), Action::Fence]),
    );
    let outcome = cluster
        .drive(Drive::watchdog(SimTime::from_us(100)))
        .expect("healthy run must not trip the watchdog");
    assert_eq!(outcome, RunLimit::Drained);
}

/// A credit leaked on the wire is caught by the traffic-quiescent
/// conservation check, naming the starved link instead of silently
/// shrinking the fabric's capacity. (Left to itself the periodic resync
/// probe would eventually reclaim the credit — the huge timeouts here
/// keep that recovery far in the future: the probe interval is derived
/// from the adaptive RTO, so the RTO clamps must be pinned high along
/// with the resync ceiling. The bounded run then inspects the ledgers
/// while the leak is live.)
#[test]
fn conservation_check_catches_a_leaked_credit() {
    // Lose every credit return; one write is enough to strand one credit.
    let params = RelParams {
        resync_timeout: SimTime::from_us(1_000_000),
        rto_min: SimTime::from_us(1_000_000),
        rto_max: SimTime::from_us(1_000_000),
        ..RelParams::default()
    };
    let plan = FaultPlan::new(0xC4ED17).credit_loss(1.0);
    let mut cluster = ClusterBuilder::new(2)
        .reliable_links(params)
        .with_faults(plan)
        .build();
    let page = cluster.alloc_shared(1);
    cluster.set_process(
        0,
        Script::new(vec![Action::Write(page.va(0), 9), Action::Fence]),
    );
    // All real traffic settles within a millisecond; the resync probe is
    // still 999ms out.
    cluster.run_until(SimTime::from_us(1_000));
    let violations = cluster.conservation_violations();
    assert_eq!(
        violations,
        [
            "credit leak on switch0->node0: 7 in hand + 0 unacked != allowance 8",
            "credit leak on switch0->node1: 7 in hand + 0 unacked != allowance 8",
            "credit leak on node0->switch0: 7 in hand + 0 unacked != allowance 8",
            "credit leak on node1->switch0: 7 in hand + 0 unacked != allowance 8",
        ]
    );
    assert!(
        violations.iter().any(|v| v.contains("credit leak")),
        "leaked credit not caught: {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.contains("node0->switch0") || v.contains("switch0->node1")),
        "violation does not name a culprit link: {violations:?}"
    );
    assert!(
        cluster
            .fault_stats()
            .expect("injector installed")
            .credits_lost
            > 0,
        "the plan never actually lost a credit"
    );
}

/// FENCE semantics survive a retransmit storm: the outstanding-operation
/// counters drain to zero and the fence completes even when every other
/// frame needs recovery.
#[test]
fn fence_drains_after_a_retransmit_storm() {
    let plan = FaultPlan::new(0x57012).drop(0.4).corrupt(0.2);
    let mut cluster = ClusterBuilder::new(2).with_faults(plan).build();
    let page = cluster.alloc_shared(1);
    let mut acts: Vec<Action> = (0..100u64)
        .map(|i| Action::Write(page.va((i % 32) * 8), i + 1))
        .collect();
    acts.push(Action::Fence);
    acts.push(Action::Read(page.va(0)));
    cluster.set_process(0, Script::new(acts));
    cluster.run();
    let st = cluster.node(0).stats();
    assert_eq!(st.fences.count(), 1, "the fence never completed");
    assert!(st.halted_at.is_some(), "the process never halted");
    assert!(
        cluster.fabric_retransmits() > 0,
        "storm too weak to exercise retransmission"
    );
    assert!(
        cluster.conservation_violations().is_empty(),
        "storm broke conservation: {:?}",
        cluster.conservation_violations()
    );
    // All writes landed despite the storm.
    for w in 0..32u64 {
        assert!(cluster.read_shared(&page, w) != 0, "word {w} lost");
    }
}

/// Identical builder + identical fault seed replays the exact same
/// simulation: same final time, same stats, same fault tallies.
#[test]
fn identical_fault_seeds_replay_identically() {
    let run = || {
        let plan = FaultPlan::new(0xD0_0D1E).drop(0.25).corrupt(0.05);
        let mut cluster = ClusterBuilder::new(3).with_faults(plan).build();
        let page = cluster.alloc_shared(2);
        cluster.set_process(
            0,
            Script::new(
                (0..40u64)
                    .map(|i| Action::Write(page.va((i % 8) * 8), i))
                    .chain([Action::Fence])
                    .collect(),
            ),
        );
        cluster.set_process(
            1,
            Script::new(
                (0..40u64)
                    .map(|i| Action::Write(page.va(64 + (i % 8) * 8), i))
                    .chain([Action::Fence])
                    .collect(),
            ),
        );
        cluster.run();
        (
            cluster.now(),
            cluster.fabric_retransmits(),
            cluster.fault_stats().unwrap(),
            cluster.node(0).stats().remote_writes.count(),
        )
    };
    assert_eq!(run(), run(), "seeded cluster replay diverged");
}
