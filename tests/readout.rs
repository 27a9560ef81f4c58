//! Pins of the fabric read-out: the per-directed-link join
//! (`Cluster::link_snapshots`), the six `fabric_*` reliability totals and
//! the conservation books, on a lossy SACK stencil and on crash runs.
//!
//! Each case rebuilds a `tg trace` command line, runs it as `tg trace`
//! does, and compares the read-out with the values recorded before the
//! switch, the HIB and the cluster shared one port read-out. The link
//! snapshots are pinned by an FNV-1a fingerprint of the `Debug` text of
//! their thirteen traffic fields, link by link, in `link_snapshots`
//! order.

use telegraphos::Cluster;
use telegraphos_suite::harness::{self, Args, HarnessOptions};

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Builds and runs `tg trace WORKLOAD FLAGS` on 4 nodes, tracing on.
fn run(line: &str) -> Cluster {
    let mut args = Args::new(line.split_whitespace().map(String::from));
    let stencil = args.switch("stencil");
    args.switch("pingpong");
    let opts = HarnessOptions {
        nodes: 4,
        ..HarnessOptions::default()
    }
    .parse(&mut args)
    .expect("harness flags");
    args.finish().expect("no stray arguments");
    let mut cluster = if stencil {
        harness::build_stencil(&opts, 8, 4).0
    } else {
        harness::build_pingpong(&opts)
    };
    let _collector = cluster.enable_tracing();
    assert!(harness::run_cluster(&mut cluster, &opts, None), "{line}");
    cluster
}

/// The link-snapshot fingerprint, the six `fabric_*` totals (retransmits,
/// retransmitted bytes, resyncs, resync probes, receive discards, control
/// discards) and the conservation violations of a finished run.
fn readout(cluster: &Cluster) -> (u64, [u64; 6], Vec<String>) {
    let links: String = cluster
        .link_snapshots()
        .iter()
        .map(|l| {
            let tx = (l.link, l.tx_packets, l.tx_bytes, l.credits, l.allowance);
            let rel = (l.credit_stall, l.retransmits, l.retx_bytes);
            let rs = (l.resyncs, l.resync_probes);
            let rx = (l.rx_fifo_depth, l.rx_fifo_high_water, l.rx_discards);
            format!("{:?}\n", (tx, rel, rs, rx))
        })
        .collect();
    let totals = [
        cluster.fabric_retransmits(),
        cluster.fabric_retx_bytes(),
        cluster.fabric_resyncs(),
        cluster.fabric_resync_probes(),
        cluster.fabric_rx_discards(),
        cluster.fabric_ctrl_discards(),
    ];
    (
        fnv1a(links.as_bytes()),
        totals,
        cluster.conservation_violations(),
    )
}

#[test]
fn lossy_sack_stencil_readout_is_pinned() {
    let cluster = run("stencil --sack --drop 0.10 --ctrl-drop 0.25 --ctrl-corrupt 0.10");
    let (links, totals, violations) = readout(&cluster);
    assert_eq!(links, 0x9722_ed49_6f43_42fe);
    assert_eq!(totals, [181, 3686, 0, 0, 107, 58]);
    assert_eq!(violations, Vec::<String>::new());
}

#[test]
fn crash_readouts_are_pinned() {
    for (line, pin, want) in [
        (
            "pingpong --crash 1,40",
            0xf764_5a7f_0b2e_f830,
            [32, 832, 0, 0, 0, 0],
        ),
        (
            "pingpong --sack --crash 1,40 --restart 150",
            0x162a_865d_396a_3b40,
            [10, 260, 0, 0, 1, 0],
        ),
    ] {
        let cluster = run(line);
        let (links, totals, violations) = readout(&cluster);
        assert_eq!(links, pin, "{line}");
        assert_eq!(totals, want, "{line}");
        assert_eq!(violations, Vec::<String>::new(), "{line}");
    }
}
