//! Coherence experiments: the Figure 2 race, the Galactica contrast, the
//! update-vs-invalidate comparison, and the counter-CAM sweep.

use std::fmt;

use telegraphos::{ClusterBuilder, SharedPage};
use tg_hib::HibConfig;
use tg_proto::{galactica::GalacticaRing, naive::NaiveMulticast, owner::OwnerSerialized, Scenario};
use tg_sim::SimTime;
use tg_workloads::{
    bursty_scatter, synthetic_trace, Consumer, Migratory, PcConfig, Producer, TraceConfig,
};

/// E4 / Figure 2: run the two-writer race over many interleavings under
/// naive multicast and under the owner-serialized protocol.
pub fn fig2_inconsistency(seeds: u64) -> Fig2 {
    let mut naive_diverged = 0;
    let mut owner_diverged = 0;
    let mut owner_violations = 0;
    for seed in 0..seeds {
        let s = Scenario::figure2(seed);
        if !NaiveMulticast::run(&s).converged() {
            naive_diverged += 1;
        }
        let out = OwnerSerialized::run(&s);
        if !out.converged() {
            owner_diverged += 1;
        }
        if !out.subsequence_violations().is_empty() || !out.anomalies().is_empty() {
            owner_violations += 1;
        }
    }
    Fig2 {
        seeds,
        naive_diverged,
        owner_diverged,
        owner_violations,
    }
}

/// Result of [`fig2_inconsistency`].
#[derive(Clone, Copy, Debug)]
pub struct Fig2 {
    /// Interleavings tried.
    pub seeds: u64,
    /// Naive-multicast runs that ended with divergent copies.
    pub naive_diverged: u64,
    /// Owner-protocol runs that diverged (must be 0).
    pub owner_diverged: u64,
    /// Owner-protocol runs with sequence violations (must be 0).
    pub owner_violations: u64,
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E4 / Figure 2 — two concurrent writers, one observer")?;
        writeln!(
            f,
            "naive eager multicast: {}/{} interleavings end inconsistent",
            self.naive_diverged, self.seeds
        )?;
        writeln!(
            f,
            "owner-serialized (§2.3.3): {}/{} diverged, {}/{} invalid sequences",
            self.owner_diverged, self.seeds, self.owner_violations, self.seeds
        )
    }
}

/// E5 / §2.4: Galactica's ring shows "1,2,1" revisit anomalies; the
/// owner protocol never does, over the same scenarios.
pub fn galactica_anomaly(seeds: u64) -> Galactica {
    let mut ring_anomalies = 0;
    let mut ring_diverged = 0;
    let mut owner_anomalies = 0;
    for seed in 0..seeds {
        let s = Scenario {
            nodes: 5,
            writes: vec![
                tg_proto::ScriptedWrite { node: 0, value: 1 },
                tg_proto::ScriptedWrite { node: 2, value: 2 },
            ],
            seed,
        };
        let ring = GalacticaRing::run(&s);
        if !ring.anomalies().is_empty() {
            ring_anomalies += 1;
        }
        if !ring.converged() {
            ring_diverged += 1;
        }
        if !OwnerSerialized::run(&s).anomalies().is_empty() {
            owner_anomalies += 1;
        }
    }
    Galactica {
        seeds,
        ring_anomalies,
        ring_diverged,
        owner_anomalies,
    }
}

/// Result of [`galactica_anomaly`].
#[derive(Clone, Copy, Debug)]
pub struct Galactica {
    /// Interleavings tried.
    pub(crate) seeds: u64,
    /// Ring runs where some node observed a "1,2,1"-style revisit.
    pub ring_anomalies: u64,
    /// Ring runs that failed to converge (back-off must prevent this).
    pub ring_diverged: u64,
    /// Owner-protocol runs with revisit anomalies (must be 0).
    pub owner_anomalies: u64,
}

impl fmt::Display for Galactica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E5 / §2.4 — Galactica ring vs owner serialization")?;
        writeln!(
            f,
            "Galactica ring: {}/{} interleavings show a 1,2,1 revisit ({} diverged)",
            self.ring_anomalies, self.seeds, self.ring_diverged
        )?;
        writeln!(
            f,
            "Telegraphos owner protocol: {}/{} revisits (guaranteed none)",
            self.owner_anomalies, self.seeds
        )
    }
}

/// Data-page sharing modes compared in E6.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SharingMode {
    /// Owner-serialized coherent update replication (the paper's hardware).
    Update,
    /// Page-fault-driven invalidate VSM (the software baseline).
    Invalidate,
    /// No replication: every consumer access is a remote read.
    RemoteOnly,
}

impl fmt::Display for SharingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SharingMode::Update => "update",
            SharingMode::Invalidate => "invalidate",
            SharingMode::RemoteOnly => "remote-only",
        };
        f.write_str(s)
    }
}

/// One E6 measurement row.
#[derive(Clone, Copy, Debug)]
pub struct SharingRow {
    /// The sharing mode.
    pub(crate) mode: SharingMode,
    /// Completion time of the whole workload (µs).
    pub total_us: f64,
    /// Mean consumer-side data read latency (µs).
    pub read_us: f64,
    /// Fabric traffic (bytes).
    pub bytes: u64,
    /// Page faults taken (VSM only).
    pub faults: u64,
}

/// Result of [`update_vs_invalidate`].
#[derive(Clone, Debug)]
pub struct UpdateVsInvalidate {
    /// Producer/consumer rows.
    pub(crate) producer_consumer: Vec<SharingRow>,
    /// Migratory rows.
    pub(crate) migratory: Vec<SharingRow>,
}

impl UpdateVsInvalidate {
    /// Looks up a producer/consumer row.
    pub fn pc(&self, mode: SharingMode) -> &SharingRow {
        self.producer_consumer
            .iter()
            .find(|r| r.mode == mode)
            .expect("measured mode")
    }

    /// Looks up a migratory row.
    pub fn mig(&self, mode: SharingMode) -> &SharingRow {
        self.migratory
            .iter()
            .find(|r| r.mode == mode)
            .expect("measured mode")
    }
}

/// E6 / §2.3.6: producer/consumer favors update-based coherence (lower
/// latency *and* less traffic); long migratory read-modify-write phases
/// favor invalidation on traffic — one page move amortizes over the whole
/// burst, while eager updates pay per store.
pub fn update_vs_invalidate(words: u64, rounds: u64, burst: u64) -> UpdateVsInvalidate {
    let pc = [
        SharingMode::Update,
        SharingMode::Invalidate,
        SharingMode::RemoteOnly,
    ]
    .into_iter()
    .map(|mode| run_pc(mode, words, rounds))
    .collect();
    let mig = [
        SharingMode::Update,
        SharingMode::Invalidate,
        SharingMode::RemoteOnly,
    ]
    .into_iter()
    .map(|mode| run_migratory(mode, burst, rounds.max(2)))
    .collect();
    UpdateVsInvalidate {
        producer_consumer: pc,
        migratory: mig,
    }
}

fn setup_data_page(
    cluster: &mut telegraphos::Cluster,
    mode: SharingMode,
    home: u16,
    sharers: &[u16],
) -> SharedPage {
    let data = cluster.alloc_shared(home);
    match mode {
        SharingMode::Update => cluster.make_coherent(&data, sharers),
        SharingMode::Invalidate => cluster.make_vsm(&data),
        SharingMode::RemoteOnly => {}
    }
    data
}

fn run_pc(mode: SharingMode, words: u64, rounds: u64) -> SharingRow {
    let mut cluster = ClusterBuilder::new(2).build();
    let data = setup_data_page(&mut cluster, mode, 0, &[1]);
    let flag = cluster.alloc_shared(1);
    let ack = cluster.alloc_shared(0);
    let cfg = PcConfig {
        data,
        flag,
        ack,
        words,
        rounds,
        poll: SimTime::from_us(2),
        fence: true,
    };
    cluster.set_process(0, Producer::new(cfg));
    cluster.set_process(1, Consumer::new(cfg));
    cluster.run();
    assert!(
        cluster.all_halted(),
        "producer/consumer deadlocked ({mode})"
    );
    let consumer = cluster.node(1).stats();
    let reads = {
        // Data reads are whichever class dominates under this mode.
        let mut s = consumer.local_reads.clone();
        s.merge(&consumer.remote_reads);
        s
    };
    SharingRow {
        mode,
        total_us: cluster.now().as_us_f64(),
        read_us: reads.mean(),
        bytes: cluster.fabric_bytes(),
        faults: consumer.faults + cluster.node(0).stats().faults,
    }
}

fn run_migratory(mode: SharingMode, burst: u64, turns: u64) -> SharingRow {
    let n = 3u16;
    let mut cluster = ClusterBuilder::new(n).build();
    let sharers: Vec<u16> = (1..n).collect();
    let data = setup_data_page(&mut cluster, mode, 0, &sharers);
    let token = cluster.alloc_shared(0);
    for i in 0..n {
        cluster.set_process(
            i,
            Migratory::new(
                data,
                token,
                u64::from(i),
                u64::from(n),
                turns,
                burst,
                // A lazy token poll keeps spin traffic from drowning the
                // coherence traffic this experiment measures.
                SimTime::from_us(25),
            ),
        );
    }
    cluster.run();
    assert!(cluster.all_halted(), "migratory deadlocked ({mode})");
    let faults: u64 = (0..n).map(|i| cluster.node(i).stats().faults).sum();
    let mut reads = tg_sim::Summary::new();
    for i in 0..n {
        reads.merge(&cluster.node(i).stats().local_reads);
        reads.merge(&cluster.node(i).stats().remote_reads);
    }
    SharingRow {
        mode,
        total_us: cluster.now().as_us_f64(),
        read_us: reads.mean(),
        bytes: cluster.fabric_bytes(),
        faults,
    }
}

impl fmt::Display for UpdateVsInvalidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E6 / §2.3.6 — update vs invalidate coherence")?;
        for (name, rows) in [
            ("producer/consumer", &self.producer_consumer),
            ("migratory", &self.migratory),
        ] {
            writeln!(f, "\n{name}:")?;
            writeln!(
                f,
                "{:<14} {:>12} {:>12} {:>12} {:>8}",
                "mode", "total (us)", "read (us)", "bytes", "faults"
            )?;
            for r in rows {
                writeln!(
                    f,
                    "{:<14} {:>12.1} {:>12.2} {:>12} {:>8}",
                    r.mode.to_string(),
                    r.total_us,
                    r.read_us,
                    r.bytes,
                    r.faults
                )?;
            }
        }
        Ok(())
    }
}

/// One CAM-size measurement.
#[derive(Clone, Copy, Debug)]
pub struct CamRow {
    /// CAM entries.
    pub entries: usize,
    /// Write stalls for want of a free entry.
    pub stalls: u64,
    /// Peak simultaneous non-zero counters.
    pub(crate) high_water: usize,
    /// Workload completion (µs).
    pub total_us: f64,
}

/// Result of [`cam_sweep`].
#[derive(Clone, Debug)]
pub struct CamSweep {
    /// One row per CAM size.
    pub rows: Vec<CamRow>,
}

/// E7 / §2.3.4: scatter coherent writes over many words and sweep the CAM
/// size; the paper expects 16–32 entries to eliminate stalls.
pub fn cam_sweep(sizes: &[usize]) -> CamSweep {
    let rows = sizes
        .iter()
        .map(|&entries| {
            let hib = HibConfig {
                cam_entries: entries,
                ..HibConfig::telegraphos_i()
            };
            let mut cluster = ClusterBuilder::new(2).hib_config(hib).build();
            // Node 1 owns the page; node 0 writes its replica in bursts of
            // 12 back-to-back stores (the realistic peak of pending writes
            // between synchronization points).
            let data = cluster.alloc_shared(1);
            cluster.make_coherent(&data, &[0]);
            cluster.set_process(0, bursty_scatter(&data, 64, 12, SimTime::from_us(40), 120));
            cluster.run();
            let cam = cluster.node(0).cam();
            CamRow {
                entries,
                stalls: cam.stall_events(),
                high_water: cam.high_water(),
                total_us: cluster.now().as_us_f64(),
            }
        })
        .collect();
    CamSweep { rows }
}

impl fmt::Display for CamSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E7 / §2.3.4 — pending-write CAM sizing (paper: 16-32 entries suffice)"
        )?;
        writeln!(
            f,
            "{:>8} {:>10} {:>12} {:>12}",
            "entries", "stalls", "high water", "total (us)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8} {:>10} {:>12} {:>12.1}",
                r.entries, r.stalls, r.high_water, r.total_us
            )?;
        }
        Ok(())
    }
}

/// One trace-driven measurement (E14).
#[derive(Clone, Debug)]
pub struct TraceRow {
    /// Write fraction of the traces.
    pub(crate) write_fraction: f64,
    /// Data alignment (false = false sharing).
    pub aligned: bool,
    /// Update-mode completion (µs).
    pub update_us: f64,
    /// Invalidate-mode completion (µs).
    pub invalidate_us: f64,
    /// Update-mode wire bytes.
    pub(crate) update_bytes: u64,
    /// Invalidate-mode wire bytes.
    pub(crate) invalidate_bytes: u64,
}

/// Result of [`trace_driven`].
#[derive(Clone, Debug)]
pub struct TraceDriven {
    /// One row per (write fraction, alignment) point.
    pub rows: Vec<TraceRow>,
}

/// E14 / ref \[22\]: trace-driven comparison of update vs invalidate
/// coherence over write fraction and data alignment. "Aligned" data gives
/// each node its own page (each mostly private); "unaligned" data makes
/// every node roam all pages — page-level false sharing, the factor ref
/// \[22\] isolates.
pub fn trace_driven(write_fracs: &[f64], ops: u64) -> TraceDriven {
    let mut rows = Vec::new();
    for &wf in write_fracs {
        for aligned in [true, false] {
            let run = |mode: SharingMode| -> (f64, u64) {
                let n = 3u16;
                let mut cluster = ClusterBuilder::new(n).build();
                let sharers: Vec<u16> = (1..n).collect();
                // One data page per node, all shareable under `mode`.
                let pages: Vec<_> = (0..n)
                    .map(|_| setup_data_page(&mut cluster, mode, 0, &sharers))
                    .collect();
                for node in 0..n {
                    let my_pages: Vec<_> = if aligned {
                        vec![pages[node as usize]]
                    } else {
                        pages.clone()
                    };
                    let cfg = TraceConfig {
                        ops,
                        write_fraction: wf,
                        aligned,
                        writer: (u64::from(node), u64::from(n)),
                        seed: 7 + u64::from(node),
                        ..TraceConfig::default()
                    };
                    cluster.set_process(node, synthetic_trace(&my_pages, cfg));
                }
                cluster.run();
                (cluster.now().as_us_f64(), cluster.fabric_bytes())
            };
            let (update_us, update_bytes) = run(SharingMode::Update);
            let (invalidate_us, invalidate_bytes) = run(SharingMode::Invalidate);
            rows.push(TraceRow {
                write_fraction: wf,
                aligned,
                update_us,
                invalidate_us,
                update_bytes,
                invalidate_bytes,
            });
        }
    }
    TraceDriven { rows }
}

impl fmt::Display for TraceDriven {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E14 / ref [22] — trace-driven update vs invalidate (3 sharers)"
        )?;
        writeln!(
            f,
            "{:>7} {:>9} {:>12} {:>12} {:>12} {:>12}",
            "writes", "aligned", "upd (us)", "inv (us)", "upd bytes", "inv bytes"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6.0}% {:>9} {:>12.0} {:>12.0} {:>12} {:>12}",
                r.write_fraction * 100.0,
                r.aligned,
                r.update_us,
                r.invalidate_us,
                r.update_bytes,
                r.invalidate_bytes
            )?;
        }
        Ok(())
    }
}

/// One write-policy measurement (the §2.3.2 ablation).
#[derive(Clone, Debug)]
pub struct WritePolicyRow {
    /// Policy label.
    pub(crate) policy: String,
    /// Mean CPU-observed cost of a coherent store (µs).
    pub write_us: f64,
    /// Workload completion (µs).
    pub total_us: f64,
}

/// Result of [`write_policy_ablation`].
#[derive(Clone, Debug)]
pub struct WritePolicyAblation {
    /// CountFiltered vs StallUntilReflected.
    pub rows: Vec<WritePolicyRow>,
}

/// E7b / §2.3.2: the paper rejects stalling each store until its reflected
/// write returns ("non-trivial performance cost") in favor of immediate
/// local application with counter filtering. Measure both.
pub fn write_policy_ablation(writes: u64) -> WritePolicyAblation {
    let run = |policy: tg_hib::LocalWritePolicy, label: &str| -> WritePolicyRow {
        let hib = HibConfig {
            local_write_policy: policy,
            ..HibConfig::telegraphos_i()
        };
        let mut cluster = ClusterBuilder::new(2).hib_config(hib).build();
        let data = cluster.alloc_shared(1);
        cluster.make_coherent(&data, &[0]);
        cluster.set_process(
            0,
            tg_workloads::bursty_scatter(&data, 64, 8, SimTime::from_us(30), (writes / 8).max(1)),
        );
        cluster.run();
        WritePolicyRow {
            policy: label.to_string(),
            write_us: cluster.node(0).stats().local_writes.mean(),
            total_us: cluster.now().as_us_f64(),
        }
    };
    WritePolicyAblation {
        rows: vec![
            run(
                tg_hib::LocalWritePolicy::CountFiltered,
                "count-filtered (§2.3.3)",
            ),
            run(
                tg_hib::LocalWritePolicy::StallUntilReflected,
                "stall-until-reflected",
            ),
        ],
    }
}

impl fmt::Display for WritePolicyAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E7b / §2.3.2 — coherent-store policy ablation (2 nodes, bursts of 8)"
        )?;
        writeln!(
            f,
            "{:<26} {:>12} {:>12}",
            "policy", "store (us)", "total (us)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<26} {:>12.2} {:>12.1}",
                r.policy, r.write_us, r.total_us
            )?;
        }
        Ok(())
    }
}
