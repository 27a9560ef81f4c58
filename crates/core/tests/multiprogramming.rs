//! Multiprogramming tests: several processes per workstation, scheduled
//! cooperatively. OS-level blocks (receives, pager faults) overlap with
//! other processes' computation; hardware-blocking operations freeze the
//! whole CPU — faithful to uncached Alpha loads on the TurboChannel.

use telegraphos::{Action, Backing, ClusterBuilder, Script};
use tg_hib::HibConfig;
use tg_sim::SimTime;
use tg_wire::NodeId;

#[test]
fn two_compute_processes_serialize_on_one_cpu() {
    let mut cluster = ClusterBuilder::new(1).build();
    let work = SimTime::from_us(500);
    cluster.set_process(0, Script::new(vec![Action::Compute(work)]));
    cluster.add_process(0, Script::new(vec![Action::Compute(work)]));
    cluster.run();
    assert!(cluster.all_halted());
    // One CPU: the computes cannot overlap.
    assert!(
        cluster.now() >= SimTime::from_us(1000),
        "computes overlapped on a single CPU: {}",
        cluster.now()
    );
}

#[test]
fn recv_block_overlaps_with_computation() {
    // Process A blocks in Recv for ~1 ms; process B computes 900 us. With
    // switching on the OS block, the node finishes shortly after the
    // message arrives — not after the sum.
    let mut cluster = ClusterBuilder::new(2).build();
    cluster.set_process(
        1,
        Script::new(vec![
            Action::Compute(SimTime::from_ms(1)),
            Action::Send {
                dst: NodeId::new(0),
                bytes: 64,
                tag: 5,
            },
        ]),
    );
    cluster.set_process(0, Script::new(vec![Action::Recv { tag: 5 }]));
    cluster.add_process(0, Script::new(vec![Action::Compute(SimTime::from_us(900))]));
    cluster.run();
    assert!(cluster.all_halted());
    let total = cluster.now();
    assert!(
        total < SimTime::from_us(1_500),
        "no overlap: finished at {total} (expected ~1.1 ms, not ~2 ms)"
    );
    // And the receive really did wait for the late message.
    assert!(total > SimTime::from_ms(1));
}

#[test]
fn hardware_reads_freeze_every_process() {
    // Process A performs 20 remote reads (~7.2 us each, CPU frozen);
    // process B wants 100 us of compute. The CPU freeze means NO overlap:
    // total >= reads + compute.
    let mut cluster = ClusterBuilder::new(2).build();
    let page = cluster.alloc_shared(1);
    cluster.set_process(
        0,
        Script::new((0..20).map(|i| Action::Read(page.va(i * 8))).collect()),
    );
    cluster.add_process(0, Script::new(vec![Action::Compute(SimTime::from_us(100))]));
    cluster.run();
    assert!(cluster.all_halted());
    let total_us = cluster.now().as_us_f64();
    assert!(
        total_us >= 20.0 * 6.7 + 100.0 - 1.0,
        "uncached loads must freeze the CPU: {total_us:.0} us"
    );
}

#[test]
fn pager_faults_overlap_with_computation() {
    // Process A thrashes the remote pager (each fault ~300+ us of OS
    // waiting); process B computes. The OS switches during faults.
    let faults = 6u64;
    let compute_total = 1_500.0;

    let run = |with_b: bool| {
        let mut cluster = ClusterBuilder::new(2).build();
        let pages = cluster.make_paged(
            0,
            Backing::RemoteMemory {
                server: NodeId::new(1),
            },
            faults as u32,
            1,
        );
        let acts: Vec<Action> = pages.iter().map(|va| Action::Read(*va)).collect();
        cluster.set_process(0, Script::new(acts));
        if with_b {
            // Chunked compute: every action boundary is a yield point, so
            // the cooperative scheduler can interleave it with the faults.
            cluster.add_process(
                0,
                Script::new(
                    (0..150)
                        .map(|_| Action::Compute(SimTime::from_us(10)))
                        .collect(),
                ),
            );
        }
        cluster.run();
        assert!(cluster.all_halted());
        cluster.now().as_us_f64()
    };
    let alone = run(false);
    let together = run(true);
    let sum = alone + compute_total;
    assert!(
        together < sum * 0.75,
        "expected fault/compute overlap: alone {alone:.0} + compute \
         {compute_total:.0} vs together {together:.0}"
    );
}

#[test]
fn processes_use_separate_contexts_for_atomics() {
    // Two processes on node 0 interleave fetch&adds through their own
    // Telegraphos II contexts; the counter must be exact.
    let mut cluster = ClusterBuilder::new(2)
        .hib_config(HibConfig::telegraphos_ii())
        .build();
    let page = cluster.alloc_shared(1);
    let per_proc = 25u64;
    let adds = |_salt: u64| -> Script {
        Script::new(
            (0..per_proc)
                .flat_map(|_| {
                    [
                        Action::FetchAdd(page.va(0), 1),
                        // A recv-less yield point between atomics.
                        Action::Compute(SimTime::from_us(1)),
                    ]
                })
                .collect(),
        )
    };
    cluster.set_process(0, adds(0));
    cluster.add_process(0, adds(1));
    cluster.run();
    assert!(cluster.all_halted());
    assert_eq!(cluster.read_shared(&page, 0), 2 * per_proc);
}

#[test]
fn many_processes_round_robin_fairly() {
    let mut cluster = ClusterBuilder::new(1).build();
    let k = 4;
    for _ in 0..k {
        cluster.add_process(
            0,
            Script::new(
                (0..10)
                    .map(|_| Action::Compute(SimTime::from_us(10)))
                    .collect(),
            ),
        );
    }
    cluster.run();
    assert!(cluster.all_halted());
    // Total = k * 10 * 10us of serialized compute.
    let total = cluster.now().as_us_f64();
    assert!((395.0..=450.0).contains(&total), "total {total:.1}");
}

#[test]
fn mixed_page_faults_from_two_processes_queue_safely() {
    // Both processes fault on pager pages; the node's single fault slot
    // serializes them without loss.
    let mut cluster = ClusterBuilder::new(2).build();
    let pages = cluster.make_paged(
        0,
        Backing::RemoteMemory {
            server: NodeId::new(1),
        },
        4,
        2,
    );
    cluster.set_process(
        0,
        Script::new(vec![
            Action::Write(pages[0], 11),
            Action::Read(pages[2]),
            Action::Read(pages[0]),
        ]),
    );
    cluster.add_process(
        0,
        Script::new(vec![
            Action::Write(pages[1], 22),
            Action::Read(pages[3]),
            Action::Read(pages[1]),
        ]),
    );
    cluster.run();
    assert!(cluster.all_halted(), "fault queueing deadlocked");
    let stats = cluster.node(0).stats();
    assert!(stats.faults >= 4, "faults: {}", stats.faults);
}
