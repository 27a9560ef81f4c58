//! Randomized tests at the full-system level: random workloads over random
//! sharing setups must always drain, converge, and respect write
//! ownership. Cases are drawn from a seeded [`tg_sim::SimRng`] so the
//! sweep is deterministic and dependency-free.

use telegraphos::{Action, ClusterBuilder, Script};
use tg_sim::{RunLimit, SimRng, SimTime};

/// Disjoint-word writers over plain shared pages: every write lands, the
/// simulation drains, and the result is exactly the last write per word.
#[test]
fn plain_writes_always_land() {
    let mut cases = SimRng::new(0x11AD);
    for _ in 0..16 {
        let nodes = (2 + cases.range(3)) as u16;
        let writes_per_node = (1 + cases.range(39)) as usize;
        let home = (cases.range(5) as u16) % nodes;
        let seed = cases.next_u64();

        let mut cluster = ClusterBuilder::new(nodes).build();
        let page = cluster.alloc_shared(home);
        let mut rng = SimRng::new(seed);
        let mut expected = std::collections::HashMap::new();
        for n in 0..nodes {
            // Each node owns words [n*64, n*64+64).
            let base = u64::from(n) * 64;
            let mut actions = Vec::new();
            for _ in 0..writes_per_node {
                let w = base + rng.range(64);
                let v = rng.next_u64() | 1;
                actions.push(Action::Write(page.va(w * 8), v));
                expected.insert(w, v);
            }
            actions.push(Action::Fence);
            cluster.set_process(n, Script::new(actions));
        }
        assert_eq!(
            cluster.run_until(SimTime::from_ms(1_000)),
            RunLimit::Drained
        );
        assert!(cluster.all_halted());
        for (w, v) in expected {
            assert_eq!(cluster.read_shared(&page, w), v, "word {w}");
        }
    }
}

/// Coherent replication with disjoint-word writers: the owner and every
/// replica converge to the same final image.
#[test]
fn coherent_replicas_always_converge() {
    let mut cases = SimRng::new(0xC0CE);
    for _ in 0..16 {
        let nodes = (3 + cases.range(2)) as u16;
        let writes_per_node = (1 + cases.range(24)) as usize;
        let cam = (1 + cases.range(19)) as usize;
        let seed = cases.next_u64();

        let hib = tg_hib::HibConfig {
            cam_entries: cam,
            ..tg_hib::HibConfig::telegraphos_i()
        };
        let mut cluster = ClusterBuilder::new(nodes).hib_config(hib).build();
        let page = cluster.alloc_shared(0);
        let copies: Vec<u16> = (1..nodes).collect();
        cluster.make_coherent(&page, &copies);
        let mut rng = SimRng::new(seed);
        for n in 0..nodes {
            let base = u64::from(n) * 32;
            let mut actions = Vec::new();
            for _ in 0..writes_per_node {
                let w = base + rng.range(32);
                actions.push(Action::Write(page.va(w * 8), rng.next_u64() | 1));
            }
            actions.push(Action::Fence);
            cluster.set_process(n, Script::new(actions));
        }
        assert_eq!(
            cluster.run_until(SimTime::from_ms(1_000)),
            RunLimit::Drained
        );
        // Every replica frame equals the owner's page image.
        let owner_image: Vec<u64> = (0..1024).map(|w| cluster.read_shared(&page, w)).collect();
        for c in copies {
            let pa = cluster
                .node_mut(c)
                .mmu_mut()
                .translate(page.va(0), tg_mem::AccessKind::Read)
                .expect("replica mapped");
            let frame = match pa.decode() {
                tg_mem::Decoded::LocalShared { off } => off.page(),
                other => panic!("replica not local: {other:?}"),
            };
            for (w, &expect) in owner_image.iter().enumerate() {
                assert_eq!(
                    cluster.read_local_frame(c, frame, w as u64),
                    expect,
                    "node {c} word {w}"
                );
            }
        }
    }
}

/// Mixed random reads/writes/atomics/fences over several pages never
/// deadlock or livelock, and the run is deterministic.
#[test]
fn chaotic_mixes_always_drain() {
    let mut cases = SimRng::new(0xC4A0);
    for _ in 0..16 {
        let nodes = (2 + cases.range(2)) as u16;
        let ops = (5 + cases.range(45)) as usize;
        let seed = cases.next_u64();

        let build = || {
            let mut cluster = ClusterBuilder::new(nodes).build();
            let pages: Vec<_> = (0..nodes).map(|n| cluster.alloc_shared(n)).collect();
            let mut rng = SimRng::new(seed);
            for n in 0..nodes {
                let mut actions = Vec::new();
                for i in 0..ops {
                    let page = pages[rng.range(pages.len() as u64) as usize];
                    let va = page.va(rng.range(128) * 8);
                    actions.push(match rng.range(5) {
                        0 => Action::Read(va),
                        1 => Action::Write(va, i as u64 + 1),
                        2 => Action::FetchAdd(va, 1),
                        3 => Action::Fence,
                        _ => Action::Compute(tg_sim::SimTime::from_us(rng.range(5) + 1)),
                    });
                }
                cluster.set_process(n, Script::new(actions));
            }
            let outcome = cluster.run_until(SimTime::from_ms(1_000));
            (outcome, cluster.now(), cluster.fabric_bytes())
        };
        let a = build();
        assert_eq!(a.0, RunLimit::Drained, "livelock/deadlock");
        let b = build();
        assert_eq!(a, b, "nondeterministic run");
    }
}
