//! Shape assertions for every experiment: who wins, by roughly what
//! factor, and where the crossovers fall — the reproduction criteria from
//! DESIGN.md §3.

use tg_bench::coherence::SharingMode;
use tg_bench::*;
use tg_wire::TimingConfig;

#[test]
fn e1_table1_matches_paper() {
    let t = table1();
    assert_eq!(t.built.gates(tg_hw::BlockClass::Message), 3300);
    assert_eq!(t.built.gates(tg_hw::BlockClass::SharedMemory), 2700);
    assert_eq!(t.built.mpm_mbits(), 128);
    let shared = |inv: &tg_hw::Inventory| inv.gates(tg_hw::BlockClass::SharedMemory);
    assert!(
        shared(&t.with_cam) > shared(&t.built),
        "the CAM adds shared-memory logic"
    );
    let s = t.to_string();
    assert!(s.contains("Page Access Counters"));
}

#[test]
fn e2_basic_latency_matches_paper() {
    let r = basic_latency(TimingConfig::telegraphos_i());
    assert!(
        (6.7..7.7).contains(&r.read_us),
        "read {:.2}us vs paper 7.2us",
        r.read_us
    );
    assert!(
        (0.6..0.8).contains(&r.write_us),
        "write {:.2}us vs paper 0.70us",
        r.write_us
    );
    // The read/write gap is about an order of magnitude.
    assert!(r.read_us / r.write_us > 8.0);
}

#[test]
fn e2_memory_bus_ablation() {
    let io = basic_latency(TimingConfig::telegraphos_i());
    let mem = basic_latency(TimingConfig::memory_bus());
    // Reads shed the whole I/O-bus overhead.
    assert!(mem.read_us < io.read_us - 2.0);
    // Sustained writes are network-service-bound in both designs (§2.1's
    // trade-off buys latency, not write bandwidth).
    assert!(mem.write_us <= io.write_us + 0.01);
    // The bus advantage shows on short bursts: per-write issue cost drops
    // to the bus latch time.
    let burst = {
        let mut cluster = telegraphos::ClusterBuilder::new(2)
            .timing(TimingConfig::memory_bus())
            .build();
        let page = cluster.alloc_shared(1);
        cluster.set_process(0, tg_workloads::stream_writes(&page, 50));
        cluster.run();
        cluster.node(0).stats().halted_at.unwrap().as_us_f64() / 50.0
    };
    assert!(burst < 0.2, "memory-bus burst writes cost {burst:.2}us");
}

#[test]
fn e3_batch_crossover() {
    let b = batch_writes(&[1, 10, 100, 1000, 5000]);
    let small = b.row(100).unwrap();
    assert!(
        small.total_us < 50.0,
        "paper: 100 writes < 50us, got {:.1}",
        small.total_us
    );
    assert!(small.per_write_us < 0.5, "paper: < 0.5us per write");
    let large = b.row(5000).unwrap();
    assert!(
        (0.6..0.8).contains(&large.per_write_us),
        "long streams run at the network rate, got {:.3}",
        large.per_write_us
    );
    // Monotone: longer bursts can only slow down per-write.
    for w in b.rows.windows(2) {
        assert!(w[1].per_write_us >= w[0].per_write_us - 1e-9);
    }
}

#[test]
fn e4_fig2_shapes() {
    let r = fig2_inconsistency(256);
    assert!(
        r.naive_diverged > 25,
        "naive should diverge often, got {}/{}",
        r.naive_diverged,
        r.seeds
    );
    assert_eq!(r.owner_diverged, 0);
    assert_eq!(r.owner_violations, 0);
}

#[test]
fn e5_galactica_shapes() {
    let r = galactica_anomaly(256);
    assert!(r.ring_anomalies > 0, "ring should show 1,2,1 revisits");
    assert_eq!(r.ring_diverged, 0, "back-off must converge");
    assert_eq!(r.owner_anomalies, 0);
}

#[test]
fn e6_update_wins_producer_consumer() {
    let r = update_vs_invalidate(32, 6, 256);
    assert_eq!(r.to_string(), E6_TABLE, "the printed table moved");
    let upd = r.pc(SharingMode::Update);
    let inv = r.pc(SharingMode::Invalidate);
    let rem = r.pc(SharingMode::RemoteOnly);
    assert!(
        upd.total_us < inv.total_us,
        "update {:.0}us should beat invalidate {:.0}us on producer/consumer",
        upd.total_us,
        inv.total_us
    );
    assert!(
        upd.read_us < rem.read_us / 2.0,
        "replicated reads should be much cheaper than remote reads"
    );
    assert!(inv.faults > 0, "VSM must fault");
    assert_eq!(upd.faults, 0);
}

#[test]
fn e6_invalidate_wins_migratory_on_traffic() {
    let r = update_vs_invalidate(32, 6, 256);
    let upd = r.mig(SharingMode::Update);
    let inv = r.mig(SharingMode::Invalidate);
    // §2.3.6: eager updates pay network traffic on *every* store; one page
    // migration amortizes over the whole burst. Update never loses on
    // store latency (stores are non-blocking), so traffic is the honest
    // crossover metric.
    assert!(
        inv.bytes < upd.bytes,
        "invalidate should move fewer bytes on migratory: {} vs {}",
        inv.bytes,
        upd.bytes
    );
    // And producer/consumer goes the other way (update moves less).
    let pc_upd = r.pc(SharingMode::Update);
    let pc_inv = r.pc(SharingMode::Invalidate);
    assert!(pc_upd.bytes < pc_inv.bytes);
}

#[test]
fn e7_cam_sweep_shapes() {
    let r = cam_sweep(&[1, 2, 4, 8, 16, 32, 64]);
    let tiny = &r.rows[0];
    let paper_size = r.rows.iter().find(|x| x.entries == 32).unwrap();
    assert!(tiny.stalls > 0, "a 1-entry CAM must stall");
    assert_eq!(
        paper_size.stalls, 0,
        "the paper's 16-32 entry CAM should not stall (got {} stalls)",
        paper_size.stalls
    );
    // Stalls are monotonically non-increasing with size.
    for w in r.rows.windows(2) {
        assert!(w[1].stalls <= w[0].stalls);
    }
    // And a stalling CAM slows the workload down.
    assert!(tiny.total_us >= paper_size.total_us);
}

#[test]
fn e8_alarm_replication_shapes() {
    let r = access_counter_replication(150, &[8, 32]);
    assert_eq!(r.to_string(), E8_TABLE, "the printed table moved");
    let never = &r.rows[0];
    let alarm8 = &r.rows[1];
    let alarm32 = &r.rows[2];
    assert_eq!(never.replications, 0);
    assert!(alarm8.replications >= 1);
    assert!(
        alarm8.mean_read_us < never.mean_read_us / 2.0,
        "alarm replication should slash mean read latency: {:.2} vs {:.2}",
        alarm8.mean_read_us,
        never.mean_read_us
    );
    // A lower threshold replicates earlier: fewer remote reads.
    assert!(alarm8.remote_reads <= alarm32.remote_reads);
}

#[test]
fn e9_fence_shapes() {
    let r = fence_consistency();
    assert_eq!(r.fenced_value, 42);
    assert_ne!(r.unfenced_value, 42, "the race should bite without a fence");
    assert!(r.fence_us > 0.0);
}

#[test]
fn e10_messaging_shapes() {
    let r = messaging_comparison(&[8, 64, 256, 8192]);
    // Small messages: user-level remote writes win by a large factor (the
    // paper's motivation — no OS on the critical path).
    let small = &r.rows[0];
    assert!(
        small.os_trap_us / small.telegraphos_us > 5.0,
        "expected >5x at 8B, got {:.1}x",
        small.os_trap_us / small.telegraphos_us
    );
    assert!(
        r.rows[1].telegraphos_us < r.rows[1].os_trap_us,
        "64B still wins"
    );
    // Bulk messages cross over: per-word stores cannot beat DMA streaming,
    // which is why Telegraphos also offers remote copy for bulk data.
    let bulk = r.rows.last().unwrap();
    assert!(
        bulk.telegraphos_us > bulk.os_trap_us,
        "expected the DMA crossover at {} bytes",
        bulk.bytes
    );
}

#[test]
fn e11_remote_paging_shapes() {
    let r = remote_paging(6, 2, 3);
    assert_eq!(r.to_string(), E11_TABLE, "the printed table moved");
    let disk = &r.rows[0];
    let remote = &r.rows[1];
    assert_eq!(disk.faults, remote.faults, "same fault pattern");
    assert!(
        disk.total_us / remote.total_us > 20.0,
        "remote paging should be >20x faster (ref [21]): {:.0} vs {:.0}",
        disk.total_us,
        remote.total_us
    );
    // A remote fault costs a few hundred microseconds (traps + page wire
    // time), not milliseconds.
    assert!(remote.per_fault_us < 1_000.0);
    assert!(disk.per_fault_us > 14_000.0);
}

#[test]
fn e12_latency_grows_linearly_with_hops() {
    let r = hop_scaling(6);
    // Strictly increasing.
    for w in r.rows.windows(2) {
        assert!(w[1].read_us > w[0].read_us);
    }
    // Roughly constant per-switch increment (linearity).
    let d1 = r.rows[1].read_us - r.rows[0].read_us;
    let d4 = r.rows[5].read_us - r.rows[4].read_us;
    assert!(
        (d1 - d4).abs() < 0.3,
        "per-switch increments diverge: {d1:.2} vs {d4:.2}"
    );
}

#[test]
fn e13_lock_contention_shapes() {
    let r = lock_contention(5, 10);
    // Every configuration completes all its critical sections (no lost
    // wakeups / livelock), and per-section cost stays bounded: the
    // test-and-set + backoff protocol degrades gracefully.
    for row in &r.rows {
        assert!(row.per_section_us > 5.0, "a section needs multiple RTTs");
        assert!(
            row.per_section_us < 200.0,
            "contention collapse at {} nodes: {:.1} us",
            row.nodes,
            row.per_section_us
        );
        // The FIFO ticket lock also completes and stays bounded; its
        // hand-off adds spin-notice latency, so it may run somewhat slower.
        assert!(row.ticket_us > 5.0 && row.ticket_us < 300.0);
    }
}

#[test]
fn e14_trace_driven_shapes() {
    let r = trace_driven(&[0.2], 150);
    let aligned = r.rows.iter().find(|x| x.aligned).unwrap();
    let unaligned = r.rows.iter().find(|x| !x.aligned).unwrap();
    // Aligned data: invalidate is competitive (within ~2x of update).
    assert!(
        aligned.invalidate_us < aligned.update_us * 3.0,
        "aligned invalidate should be competitive: {:.0} vs {:.0}",
        aligned.invalidate_us,
        aligned.update_us
    );
    // Page-level false sharing wrecks invalidate (ref [22]'s factor).
    assert!(
        unaligned.invalidate_us > aligned.invalidate_us * 3.0,
        "false sharing should hurt invalidate: {:.0} vs {:.0}",
        unaligned.invalidate_us,
        aligned.invalidate_us
    );
    // Update-based coherence is insensitive to alignment (word granular).
    let ratio = unaligned.update_us / aligned.update_us;
    assert!(
        (0.5..2.0).contains(&ratio),
        "update should be alignment-insensitive, ratio {ratio:.2}"
    );
}

#[test]
fn e7b_stalling_writes_cost_more() {
    let r = write_policy_ablation(200);
    let filtered = &r.rows[0];
    let stalled = &r.rows[1];
    // §2.3.2: stalling each store for the owner round trip is the
    // "non-trivial performance cost" the counter protocol removes.
    assert!(
        stalled.write_us > filtered.write_us * 4.0,
        "stall-until-reflected should cost several RTTs per store: \
         {:.2} vs {:.2} us",
        stalled.write_us,
        filtered.write_us
    );
    assert!(stalled.total_us > filtered.total_us);
}

#[test]
fn e15_multiprogramming_overlap_shapes() {
    let r = multiprogramming_overlap(6, 150);
    assert_eq!(r.to_string(), E15_TABLE, "the printed table moved");
    let paging = r.rows[0].total_us;
    let compute = r.rows[1].total_us;
    let together = r.rows[2].total_us;
    // Overlap recovers a large share of the shorter job.
    assert!(
        together < (paging + compute) * 0.8,
        "no overlap: {together:.0} vs serial {:.0}",
        paging + compute
    );
    // But never finishes before the longer one.
    assert!(together >= paging.max(compute) - 1.0);
}

#[test]
fn e16_incast_shapes() {
    let r = incast_congestion(5, 150);
    // Aggregate throughput saturates near the receiver's service rate
    // (~1.4 writes/us) and never collapses.
    let single = r.rows[0].throughput;
    let five = r.rows.last().unwrap().throughput;
    assert!(
        five >= single * 0.9,
        "throughput collapsed under incast: {five:.2} vs {single:.2}"
    );
    assert!(five < 2.5, "throughput cannot exceed the service rate");
    // Every sender completes (the runner asserts all_halted), and the
    // fairness column is reported for inspection: deterministic
    // tie-breaking serializes issue completion under perfect symmetry, an
    // artifact the bench documents. Conservation is the hard guarantee:
    for row in &r.rows {
        assert!(row.fairness > 0.0 && row.fairness <= 1.0);
        assert!(row.throughput > 1.0, "throughput collapsed");
    }
}

// Exact tables for the OS-layer experiments. They print simulated time
// only, so a refactor of the VSM, replication or pager code that moves a
// single number fails here even when the shapes above still hold.

/// `update_vs_invalidate(32, 6, 256)`: the VSM baseline against the update hardware.
const E6_TABLE: &str = r"E6 / §2.3.6 — update vs invalidate coherence

producer/consumer:
mode             total (us)    read (us)        bytes   faults
update                449.6         1.20         5088        0
invalidate           1682.6         4.04        51784       11
remote-only          1541.0         5.97         7776        0

migratory:
mode             total (us)    read (us)        bytes   faults
update               7974.5         1.64       307666        0
invalidate          11935.3         2.48       163534       34
remote-only         27832.8         5.21       274106        0
";

/// `access_counter_replication(150, &[8, 32])`: alarm-driven page replication.
const E8_TABLE: &str = r"E8 / §2.2.6 — page-access counters and alarm-based replication
policy                    read (us)   remote    local   repl   total (us)
never (always remote)          7.21      150        0      0       4081.5
alarm at 8 accesses            2.59       10      140      1       3389.0
alarm at 32 accesses           3.56       34      116      1       3533.3
";

/// `remote_paging(6, 2, 3)`: the pager on a disk and on remote memory.
const E11_TABLE: &str = r"E11 / ref [21] — paging a thrashing working set: disk vs remote memory
backing                          total (us)   faults per fault (us)
disk (15 ms/page)                    271102       18        15061.2
remote memory (Telegraphos)            5861       18          325.6
speedup: 46x
";

/// `multiprogramming_overlap(6, 150)`: pager faults overlapped with compute.
const E15_TABLE: &str = r"E15 — multiprogramming with per-process contexts (§2.2.4)
configuration                total (us)
paging process alone               1921
compute process alone              1500
both (multiprogrammed)             1938
serial sum                         3421
overlap recovered: 99% of the shorter job
";
