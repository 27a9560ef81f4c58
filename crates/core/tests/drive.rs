//! The run driver's stop rules: a drained engine ends the run, and a run
//! that ends before its stop condition holds reports itself unfinished.

use telegraphos::{Action, ClusterBuilder, DetectParams, Drive, FaultPlan, RelParams, Script};
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
