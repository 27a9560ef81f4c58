//! End-to-end stencil verification: the distributed Jacobi sweep over
//! eager-update boundary pages must agree bit-for-bit with the sequential
//! reference, across node counts and iteration counts.

use telegraphos::ClusterBuilder;
use tg_workloads::{jacobi_reference, JacobiShared, JacobiWorker};

fn run_jacobi(nodes: u16, strip_len: usize, iters: u32) -> (Vec<u64>, Vec<u64>) {
    let (left_bc, right_bc) = (900u64, 100u64);
    let total = strip_len * nodes as usize;
    let initial: Vec<u64> = (0..total).map(|i| (i as u64 * 53) % 777).collect();

    let mut cluster = ClusterBuilder::new(nodes).build();
    let boundary: Vec<_> = (0..nodes).map(|n| cluster.alloc_shared(n)).collect();
    for n in 0..nodes {
        let mut consumers = Vec::new();
        if n > 0 {
            consumers.push(n - 1);
        }
        if n + 1 < nodes {
            consumers.push(n + 1);
        }
        if !consumers.is_empty() {
            cluster.make_eager(&boundary[n as usize], &consumers);
        }
    }
    let results: Vec<_> = (0..nodes).map(|n| cluster.alloc_shared(n)).collect();
    let coord = cluster.alloc_shared(0);

    for n in 0..nodes {
        let i = n as usize;
        let strip = initial[i * strip_len..(i + 1) * strip_len].to_vec();
        let shared = JacobiShared {
            my_boundary: boundary[i],
            left_boundary: (n > 0).then(|| boundary[i - 1]),
            right_boundary: (n + 1 < nodes).then(|| boundary[i + 1]),
            result: results[i],
            barrier_counter: coord.va(0),
            barrier_sense: coord.va(8),
        };
        cluster.set_process(
            n,
            JacobiWorker::new(shared, u64::from(nodes), iters, strip, left_bc, right_bc),
        );
    }
    cluster.run();
    assert!(cluster.all_halted(), "stencil deadlocked");

    let mut distributed = Vec::with_capacity(total);
    for page in &results {
        for w in 0..strip_len {
            distributed.push(cluster.read_shared(page, w as u64));
        }
    }
    (
        distributed,
        jacobi_reference(&initial, iters, left_bc, right_bc),
    )
}

#[test]
fn two_nodes_match_reference() {
    let (got, want) = run_jacobi(2, 8, 6);
    assert_eq!(got, want);
}

#[test]
fn three_nodes_match_reference() {
    let (got, want) = run_jacobi(3, 5, 9);
    assert_eq!(got, want);
}

#[test]
fn five_nodes_many_iterations_match_reference() {
    let (got, want) = run_jacobi(5, 4, 20);
    assert_eq!(got, want);
}

#[test]
fn single_cell_strips_match_reference() {
    // The degenerate case: every node holds one cell, so both edges of a
    // strip are the same word and every value crosses the network each
    // iteration.
    let (got, want) = run_jacobi(4, 1, 7);
    assert_eq!(got, want);
}

/// Regression test for switch-arbitration starvation: with the old single
/// shared round-robin pointer, node 0's reply traffic kept resetting the
/// arbitration state of the contended output toward node 0, so the
/// highest-numbered input port never won a grant and the barrier livelocked
/// at 15+ nodes (spin-reads forever, simulated time unbounded). Per-output
/// pointers drain this configuration; the event cap turns any relapse into
/// a fast failure instead of a hung test.
#[test]
fn sixteen_nodes_drain_and_match_reference() {
    let nodes = 16u16;
    let strip_len = 4usize;
    let iters = 3u32;
    let (left_bc, right_bc) = (900u64, 100u64);
    let total = strip_len * nodes as usize;
    let initial: Vec<u64> = (0..total).map(|i| (i as u64 * 53) % 777).collect();
    let mut cluster = ClusterBuilder::new(nodes).build();
    let boundary: Vec<_> = (0..nodes).map(|n| cluster.alloc_shared(n)).collect();
    for n in 0..nodes {
        let mut consumers = Vec::new();
        if n > 0 {
            consumers.push(n - 1);
        }
        if n + 1 < nodes {
            consumers.push(n + 1);
        }
        cluster.make_eager(&boundary[n as usize], &consumers);
    }
    let results: Vec<_> = (0..nodes).map(|n| cluster.alloc_shared(n)).collect();
    let coord = cluster.alloc_shared(0);
    for n in 0..nodes {
        let i = n as usize;
        let strip = initial[i * strip_len..(i + 1) * strip_len].to_vec();
        let shared = JacobiShared {
            my_boundary: boundary[i],
            left_boundary: (n > 0).then(|| boundary[i - 1]),
            right_boundary: (n + 1 < nodes).then(|| boundary[i + 1]),
            result: results[i],
            barrier_counter: coord.va(0),
            barrier_sense: coord.va(8),
        };
        cluster.set_process(
            n,
            JacobiWorker::new(shared, u64::from(nodes), iters, strip, left_bc, right_bc),
        );
    }
    let limit = cluster.run_until(tg_sim::SimTime::from_ms(1_000));
    assert_eq!(limit, tg_sim::RunLimit::Drained, "stencil livelocked");
    assert!(cluster.all_halted(), "stencil deadlocked");
    let mut distributed = Vec::with_capacity(total);
    for page in &results {
        for w in 0..strip_len {
            distributed.push(cluster.read_shared(page, w as u64));
        }
    }
    let want = jacobi_reference(&initial, iters, left_bc, right_bc);
    assert_eq!(distributed, want);
}

/// The distributed stencil agrees with the sequential reference for any
/// node count, strip length and iteration count (randomized sweep from a
/// fixed seed).
#[test]
fn distributed_always_matches_reference() {
    let mut rng = tg_sim::SimRng::new(0x57E1);
    for _ in 0..12 {
        let nodes = (2 + rng.range(3)) as u16;
        let strip_len = (1 + rng.range(6)) as usize;
        let iters = (1 + rng.range(8)) as u32;
        let (got, want) = run_jacobi(nodes, strip_len, iters);
        assert_eq!(
            got, want,
            "nodes={nodes} strip_len={strip_len} iters={iters}"
        );
    }
}
