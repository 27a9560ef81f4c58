//! End-to-end service tests: the contract gates on a healthy cluster,
//! under a replica crash, and under crash+restart — in miniature (the
//! full sweep lives in the `simkv` campaign binary).

use telegraphos::{ClusterBuilder, DetectParams, FaultPlan, RelParams, Topology};
use tg_kv::{audit, deploy, drive, fingerprint, KvConfig};
use tg_sim::{RunLimit, SimTime};
use tg_wire::NodeId;

fn small_cfg() -> KvConfig {
    KvConfig {
        requests_per_client: 12,
        ..KvConfig::default()
    }
}

fn run_service(
    cfg: &KvConfig,
    plan: Option<FaultPlan>,
    crashed: &[NodeId],
) -> (tg_kv::AuditReport, u64) {
    let mut b = ClusterBuilder::new(cfg.nodes_required())
        .topology(Topology::ring(cfg.nodes_required()))
        .reliable_links(RelParams::default());
    if let Some(plan) = plan {
        b = b.with_faults(plan);
    }
    let mut cluster = b.build();
    cluster.enable_heartbeats(DetectParams::default());
    let handles = deploy(&mut cluster, cfg);
    let outcome = drive(
        &mut cluster,
        &handles,
        SimTime::from_us(50),
        SimTime::from_ms(200),
    );
    assert_ne!(outcome, RunLimit::Deadline, "service run never finished");
    let report = audit(&cluster, &handles, crashed);
    let fp = fingerprint(&cluster, &handles);
    (report, fp)
}

/// Fault-free: everything commits first try, nothing sheds terminally,
/// nothing fails over, and every gate holds.
#[test]
fn healthy_cluster_commits_everything_and_passes_every_gate() {
    let cfg = small_cfg();
    let (report, _) = run_service(&cfg, None, &[]);
    assert!(
        report.violations.is_empty(),
        "contract violated on a healthy cluster: {:?}",
        report.violations
    );
    let total = u64::from(cfg.clients) * u64::from(cfg.requests_per_client);
    assert_eq!(report.committed_puts + report.committed_gets, total);
    assert_eq!(report.failed_unreachable, 0);
    assert_eq!(report.failovers, 0, "failover on a healthy cluster");
    assert!(report.fresh_applies > 0, "no put ever applied");
}

/// A replica crash mid-run: requests re-route, ownership fails over, and
/// the contract still holds — in particular zero lost acknowledged
/// writes and zero duplicate applies.
#[test]
fn replica_crash_fails_over_without_losing_acked_writes() {
    let cfg = small_cfg();
    let victim = NodeId::new(1);
    let plan = FaultPlan::new(0x4B56_0001).node_crash(victim, SimTime::from_us(300));
    let (report, _) = run_service(&cfg, Some(plan), &[victim]);
    assert!(
        report.violations.is_empty(),
        "contract violated under a replica crash: {:?}",
        report.violations
    );
    assert!(
        report.failovers > 0,
        "the dead replica's ranges never moved"
    );
    assert!(
        report.committed_puts > 0,
        "nothing committed after the crash"
    );
}

/// Same seed, same faults ⇒ byte-identical observable history.
#[test]
fn same_seed_replays_to_an_identical_fingerprint() {
    let cfg = small_cfg();
    let victim = NodeId::new(2);
    let mk_plan = || FaultPlan::new(0xD15EA5E).node_crash(victim, SimTime::from_us(250));
    let (r1, fp1) = run_service(&cfg, Some(mk_plan()), &[victim]);
    let (r2, fp2) = run_service(&cfg, Some(mk_plan()), &[victim]);
    assert_eq!(fp1, fp2, "replay diverged");
    assert_eq!(r1.fingerprint, r2.fingerprint);
    assert_eq!(r1.committed_puts, r2.committed_puts);
    assert!(r1.violations.is_empty(), "{:?}", r1.violations);
}

/// Admission control under a deliberately strangled server queue: some
/// requests shed with explicit `Busy`, each shed is visible at both
/// ends, and shed requests are never applied.
#[test]
fn load_shedding_is_explicit_and_never_applies_shed_requests() {
    let cfg = KvConfig {
        queue_cap: 1,
        busy_budget: 0,
        arrival_gap: SimTime::from_us(2),
        tail_shift_max: 1,
        requests_per_client: 16,
        ..KvConfig::default()
    };
    let (report, _) = run_service(&cfg, None, &[]);
    assert!(
        report.violations.is_empty(),
        "shedding broke the contract: {:?}",
        report.violations
    );
    // With a queue of one, zero busy budget, and a hot arrival rate,
    // the shed path must actually exercise.
    assert!(report.rejected_busy > 0, "admission control never shed");
}

/// A drive limit far short of the schedule cuts the run: `Deadline`.
#[test]
fn a_one_millisecond_drive_is_a_deadline() {
    let cfg = small_cfg();
    let mut cluster = ClusterBuilder::new(cfg.nodes_required())
        .topology(Topology::ring(cfg.nodes_required()))
        .reliable_links(RelParams::default())
        .build();
    cluster.enable_heartbeats(DetectParams::default());
    let handles = deploy(&mut cluster, &cfg);
    let outcome = drive(
        &mut cluster,
        &handles,
        SimTime::from_us(50),
        SimTime::from_ms(1),
    );
    assert_eq!(outcome, RunLimit::Deadline);
}
