//! Integration tests for `tg-analyze`: the telescoping invariant of
//! critical-path attribution under link faults, and determinism of the
//! stencil_16 congestion report that the CI perf gate diffs.

use telegraphos_suite::harness::{self, HarnessOptions};
use tg_analyze::{
    attribute_ops, class_breakdown, hottest_links, latency_histogram, link_usage, SegClass,
};
use tg_sim::{MetricsRegistry, SimTime};

/// Every traced operation's attributed segments must sum *exactly* to its
/// end-to-end latency — even when the reliable link layer is retransmitting
/// through injected drops and corruption, which stretches chains across
/// recovery events.
#[test]
fn segments_telescope_under_faults() {
    let mut saw_retransmit = false;
    for seed in [0xFA_0001u64, 0xFA_1001, 0xFA_2001] {
        let opts = HarnessOptions {
            nodes: 4,
            reliable: true,
            drop: 0.15,
            corrupt: 0.05,
            fault_seed: seed,
            ..HarnessOptions::default()
        };
        let mut cluster = harness::build_pingpong(&opts);
        let collector = cluster.enable_tracing();
        cluster.run();
        assert!(cluster.all_halted(), "seed {seed:#x}: cluster wedged");

        let ops = collector.op_events();
        let packets = collector.packet_events();
        let attribs = attribute_ops(&ops, &packets);
        assert!(!attribs.is_empty(), "seed {seed:#x}: no traced operations");
        for a in &attribs {
            assert_eq!(
                a.total(),
                a.latency(),
                "seed {seed:#x}: segments do not telescope for {:?} on node{} \
                 (sum {} vs latency {})",
                a.op.kind,
                a.op.node.raw(),
                a.total(),
                a.latency()
            );
            saw_retransmit |= a.segments.iter().any(|s| s.class == SegClass::Retransmit);
        }
    }
    assert!(
        saw_retransmit,
        "15% drop + 5% corrupt over three seeds never attributed a retransmit segment"
    );
}

/// One traced + sampled stencil run, reduced to the pieces the report
/// compares: the hottest-link table, the latency percentiles, and the
/// per-class attribution totals.
fn stencil_snapshot() -> (String, Vec<u64>, Vec<(SegClass, SimTime)>) {
    let opts = HarnessOptions {
        nodes: 16,
        ..HarnessOptions::default()
    };
    let (mut cluster, check) = harness::build_stencil(&opts, 4, 4);
    let collector = cluster.enable_tracing();
    let mut metrics = MetricsRegistry::new();
    let sampled = Some((SimTime::from_us(1), &mut metrics));
    assert!(
        harness::run_cluster(&mut cluster, &opts, sampled),
        "stencil deadlocked"
    );
    harness::verify_stencil(&cluster, &check).expect("stencil result");

    let attribs = attribute_ops(&collector.op_events(), &collector.packet_events());
    for a in &attribs {
        assert_eq!(a.total(), a.latency(), "stencil segments do not telescope");
    }
    let hist = latency_histogram(&attribs);
    let quantiles = [0.5, 0.99, 0.999]
        .iter()
        .map(|&q| hist.quantile(q))
        .collect();
    let hottest = hottest_links(&link_usage(&metrics), 5);
    let table = hottest
        .iter()
        .map(|l| format!("{} {:?}", l.name, l))
        .collect::<Vec<_>>()
        .join("\n");
    (table, quantiles, class_breakdown(&attribs))
}

/// The congestion observatory must be byte-for-byte deterministic: two
/// identical stencil_16 runs produce the same hottest-link ranking, the
/// same latency percentiles, and the same attribution totals — that is
/// what lets CI gate `report.json` at zero tolerance.
#[test]
fn stencil16_hottest_link_report_is_deterministic() {
    let (table_a, quantiles_a, classes_a) = stencil_snapshot();
    let (table_b, quantiles_b, classes_b) = stencil_snapshot();
    assert_eq!(table_a, table_b, "hottest-link report differs between runs");
    assert_eq!(quantiles_a, quantiles_b, "latency percentiles differ");
    assert_eq!(classes_a, classes_b, "attribution totals differ");

    let top = table_a.lines().next().expect("at least one hot link");
    assert!(
        top.starts_with("switch0-node0 "),
        "saturated link moved: expected the switch->node0 hop \
         (barrier and coordination pages are homed on node 0), got {top}"
    );
}
