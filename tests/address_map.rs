//! The address map's stored state at the benchmark's scale, pinned
//! exactly. Translation is one cluster-wide rule (the private heap and the
//! shared page window) plus each node's own exceptions, so the state
//! grows as nodes + pages. A change that stores a page once per node
//! again fails here on a count that does not depend on the machine: the
//! same 64-node build once held 12,352 page-table entries (64 × (64
//! private + 129 shared)) and 8,127 reverse entries (129 × 63).

use telegraphos_suite::harness::{self, HarnessOptions};

/// perfbench's `stencil64` build: 64 nodes on one star, strip 8.
#[test]
fn the_stencil64_build_stores_each_page_once() {
    let opts = HarnessOptions {
        nodes: 64,
        ..HarnessOptions::default()
    };
    let (cluster, _) = harness::build_stencil(&opts, 8, 128);
    let (window, per_node) = cluster.address_map_entries();
    // A boundary page and a result page per node, and the barrier page.
    assert_eq!(window, 129);
    // The only per-node entries are the eager remaps: each node reads its
    // neighbours' boundary pages from a local read-only frame (one
    // neighbour at either end of the line, two elsewhere).
    let eager: Vec<usize> = (0..64)
        .map(|n| if n == 0 || n == 63 { 1 } else { 2 })
        .collect();
    assert_eq!(per_node, eager);
    assert_eq!(per_node.iter().sum::<usize>(), 126);
}
