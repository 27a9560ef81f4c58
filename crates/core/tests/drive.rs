//! The run driver's stop rules: a drained engine ends the run, and a run
//! that ends before its stop condition holds reports itself unfinished.

use telegraphos::sync::{BarrierWait, SyncStep};
use telegraphos::{
    Action, ClusterBuilder, DetectParams, Drive, FaultPlan, RelParams, Resume, Script,
};
use tg_sim::{RunLimit, SimTime};
use tg_wire::NodeId;

/// A receive nobody answers: the queue drains with node 0 still blocked.
fn orphan_recv() -> telegraphos::Cluster {
    let mut cluster = ClusterBuilder::new(2).build();
    cluster.set_process(0, Script::new(vec![Action::Recv { tag: 7 }]));
    cluster
}

/// Regression: a drained queue leaves the clock where it is, and the old
/// quiescence loop re-ran empty slices forever instead of returning.
#[test]
fn a_drained_queue_ends_a_quiescent_run_unfinished() {
    let mut cluster = orphan_recv();
    let plan = Drive::quiescent(SimTime::from_us(50), SimTime::from_ms(1));
    assert_eq!(cluster.drive(plan).unwrap(), RunLimit::Deadline);
    assert!(!cluster.node(0).halted());
    assert!(
        cluster.now() < SimTime::from_ms(1),
        "the clock ran to the limit"
    );
}

/// Under the watchdog the same unfinished drain is a report, not a
/// completion.
#[test]
fn a_drained_queue_with_the_stop_unmet_trips_the_watchdog() {
    let mut cluster = orphan_recv();
    let plan = Drive {
        watchdog: true,
        ..Drive::quiescent(SimTime::from_us(50), SimTime::from_ms(1))
    };
    let report = cluster
        .drive(plan)
        .expect_err("an unfinished drain must report");
    assert!(report.at < SimTime::from_ms(1));
}

/// A quiescent plan whose limit falls short of the workload returns
/// `Deadline`: heartbeats stop at the limit, before the detector convicts
/// the crashed peer, so the survivor's op to it never resolves. With room
/// to convict, the same run finishes.
#[test]
fn a_quiescent_limit_shorter_than_the_workload_is_a_deadline() {
    let run = |limit| {
        let plan = FaultPlan::new(0xC0FFEE).node_crash(NodeId::new(1), SimTime::from_us(100));
        let mut cluster = ClusterBuilder::new(2)
            .reliable_links(RelParams::default())
            .with_faults(plan)
            .build();
        cluster.enable_heartbeats(DetectParams::default());
        let page = cluster.alloc_shared(1);
        let acts = (0..40).flat_map(|i| {
            [
                Action::Write(page.va(0), i),
                Action::Compute(SimTime::from_us(20)),
                Action::Read(page.va(0)),
            ]
        });
        cluster.set_process(0, Script::new(acts.collect()));
        let outcome = cluster
            .drive(Drive::quiescent(SimTime::from_us(50), limit))
            .unwrap();
        (outcome, cluster.node(0).halted())
    };
    assert_eq!(run(SimTime::from_us(150)), (RunLimit::Deadline, false));
    assert_eq!(run(SimTime::from_ms(80)), (RunLimit::Drained, true));
}

/// Regression: survivors of a crash spin forever on a fetch-add barrier
/// the dead node never reaches, so a quiescent plan must stop at its
/// limit instead of draining the unfinished workload (the drain used to
/// run with no limit and never end). Four nodes run stencil-style sweeps
/// separated by the stencil's sense-reversing barrier on node 0; node 1
/// crashes at 20 µs.
#[test]
fn a_crashed_barrier_peer_ends_a_quiescent_run_at_its_limit() {
    let plan = FaultPlan::new(0xFA_0001).node_crash(NodeId::new(1), SimTime::from_us(20));
    let mut cluster = ClusterBuilder::new(4)
        .reliable_links(RelParams::default())
        .with_faults(plan)
        .build();
    cluster.enable_heartbeats(DetectParams::default());
    let coord = cluster.alloc_shared(0);
    for n in 0..4 {
        let (mut episode, mut barrier) = (0u64, None::<BarrierWait>);
        let sweep = move |r: Resume| loop {
            let Some(wait) = barrier.as_mut() else {
                if episode == 1_000 {
                    return Action::Halt;
                }
                barrier = Some(BarrierWait::new(coord.va(0), coord.va(8), 4, episode % 2));
                episode += 1;
                return Action::Compute(SimTime::from_us(1));
            };
            match wait.step(r) {
                SyncStep::Do(a) => return a,
                SyncStep::Ready => barrier = None,
            }
        };
        cluster.set_process(n, sweep);
    }
    let limit = SimTime::from_ms(2);
    let outcome = cluster.drive(Drive::quiescent(SimTime::from_us(50), limit));
    assert_eq!(outcome.unwrap(), RunLimit::Deadline);
    assert!(!cluster.node(0).halted());
    assert_eq!(cluster.now(), limit);
}
