//! Extension experiments: remote-memory paging (E11, ref \[21\]), network
//! scaling (E12), and synchronization contention (E13).

use std::fmt;

use telegraphos::sync::{LockAcquire, LockRelease, SyncStep, TicketAcquire, TicketRelease};
use telegraphos::{Action, Backing, ClusterBuilder, Process, Resume, Script};
use tg_net::Topology;
use tg_wire::NodeId;
use tg_workloads::stream_reads;

/// One paging measurement.
#[derive(Clone, Debug)]
pub struct PagingRow {
    /// Backing-store label.
    pub(crate) backing: String,
    /// Total workload time (µs).
    pub total_us: f64,
    /// Page faults taken.
    pub faults: u64,
    /// Mean cost per fault (µs).
    pub per_fault_us: f64,
}

/// Result of [`remote_paging`].
#[derive(Clone, Debug)]
pub struct PagingSweep {
    /// Disk vs remote-memory rows.
    pub rows: Vec<PagingRow>,
}

/// E11 / ref \[21\]: a thrashing sweep over `pages` pages with `capacity`
/// resident slots, paged against a disk and against remote memory.
pub fn remote_paging(pages: u32, capacity: usize, passes: u32) -> PagingSweep {
    let run = |backing: Backing, label: &str| -> PagingRow {
        let nodes = if matches!(backing, Backing::Disk) {
            1
        } else {
            2
        };
        let mut cluster = ClusterBuilder::new(nodes).build();
        let vas = cluster.make_paged(0, backing, pages, capacity);
        let mut actions = Vec::new();
        for _ in 0..passes {
            for va in &vas {
                actions.push(Action::Read(*va));
            }
        }
        cluster.set_process(0, Script::new(actions));
        cluster.run();
        let faults = cluster.node(0).stats().faults;
        let total_us = cluster.now().as_us_f64();
        PagingRow {
            backing: label.to_string(),
            total_us,
            faults,
            per_fault_us: if faults > 0 {
                total_us / faults as f64
            } else {
                0.0
            },
        }
    };
    PagingSweep {
        rows: vec![
            run(Backing::Disk, "disk (15 ms/page)"),
            run(
                Backing::RemoteMemory {
                    server: NodeId::new(1),
                },
                "remote memory (Telegraphos)",
            ),
        ],
    }
}

impl fmt::Display for PagingSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E11 / ref [21] — paging a thrashing working set: disk vs remote memory"
        )?;
        writeln!(
            f,
            "{:<30} {:>12} {:>8} {:>14}",
            "backing", "total (us)", "faults", "per fault (us)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<30} {:>12.0} {:>8} {:>14.1}",
                r.backing, r.total_us, r.faults, r.per_fault_us
            )?;
        }
        if self.rows.len() == 2 && self.rows[1].total_us > 0.0 {
            writeln!(
                f,
                "speedup: {:.0}x",
                self.rows[0].total_us / self.rows[1].total_us
            )?;
        }
        Ok(())
    }
}

/// One hop-count measurement.
#[derive(Clone, Copy, Debug)]
pub struct HopRow {
    /// Switches between the endpoints.
    pub(crate) switches: u16,
    /// Remote read latency (µs).
    pub read_us: f64,
}

/// Result of [`hop_scaling`].
#[derive(Clone, Debug)]
pub struct HopScaling {
    /// One row per chain length.
    pub rows: Vec<HopRow>,
}

/// E12: remote-read latency as the fabric grows — each switch adds its
/// cut-through latency plus serialization twice (request + response).
pub fn hop_scaling(max_switches: u16) -> HopScaling {
    let rows = (1..=max_switches)
        .map(|n| {
            let (topo, dst) = if n == 1 {
                (Topology::star(2), 1u16)
            } else {
                (Topology::chain(n), n - 1)
            };
            let nodes = topo.endpoint_count() as u16;
            let mut cluster = ClusterBuilder::new(nodes).topology(topo).build();
            // Page on the far node.
            let page = cluster.alloc_shared(dst);
            cluster.set_process(0, stream_reads(&page, 200));
            cluster.run();
            HopRow {
                switches: n,
                read_us: cluster.node(0).stats().remote_reads.mean(),
            }
        })
        .collect();
    HopScaling { rows }
}

impl fmt::Display for HopScaling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E12 — remote-read latency vs switch count")?;
        writeln!(f, "{:>10} {:>12}", "switches", "read (us)")?;
        for r in &self.rows {
            writeln!(f, "{:>10} {:>12.2}", r.switches, r.read_us)?;
        }
        Ok(())
    }
}

/// One contention measurement.
#[derive(Clone, Copy, Debug)]
pub struct LockRow {
    /// Contending nodes.
    pub nodes: u16,
    /// Total critical sections completed.
    pub(crate) sections: u64,
    /// Mean time per critical section, test-and-set lock (µs).
    pub per_section_us: f64,
    /// Mean time per critical section, ticket lock (µs).
    pub ticket_us: f64,
}

/// Result of [`lock_contention`].
#[derive(Clone, Debug)]
pub struct LockContention {
    /// One row per cluster size.
    pub rows: Vec<LockRow>,
}

/// A looping locked-increment worker (acquire, increment, release).
struct LockWorker {
    lock: tg_mem::VAddr,
    data: tg_mem::VAddr,
    remaining: u32,
    state: LwState,
    acq: LockAcquire,
    rel: LockRelease,
    temp: u64,
}

enum LwState {
    Acquire,
    Read,
    Write,
    Release(u8),
}

impl LockWorker {
    fn new(lock: tg_mem::VAddr, data: tg_mem::VAddr, n: u32) -> Self {
        LockWorker {
            lock,
            data,
            remaining: n,
            state: LwState::Acquire,
            acq: LockAcquire::new(lock),
            rel: LockRelease::new(lock),
            temp: 0,
        }
    }
}

impl Process for LockWorker {
    fn resume(&mut self, r: Resume) -> Action {
        match self.state {
            LwState::Acquire => match self.acq.step(r) {
                SyncStep::Do(a) => a,
                SyncStep::Ready => {
                    self.state = LwState::Read;
                    Action::Read(self.data)
                }
            },
            LwState::Read => {
                self.temp = r.value();
                self.state = LwState::Write;
                Action::Write(self.data, self.temp + 1)
            }
            LwState::Write => {
                self.state = LwState::Release(0);
                self.rel = LockRelease::new(self.lock);
                match self.rel.step(Resume::Start) {
                    SyncStep::Do(a) => a,
                    SyncStep::Ready => unreachable!("release starts with a fence"),
                }
            }
            LwState::Release(step) => {
                if step == 0 {
                    self.state = LwState::Release(1);
                    match self.rel.step(r) {
                        SyncStep::Do(a) => a,
                        SyncStep::Ready => unreachable!("two-step release"),
                    }
                } else {
                    self.remaining -= 1;
                    if self.remaining == 0 {
                        return Action::Halt;
                    }
                    self.state = LwState::Acquire;
                    self.acq = LockAcquire::new(self.lock);
                    self.resume(Resume::Start)
                }
            }
        }
    }
}

/// E13: lock throughput under contention — `per_node` critical sections
/// per node, cluster sizes 2..=`max_nodes`, for both the test-and-set
/// spinlock and the FIFO ticket lock.
pub fn lock_contention(max_nodes: u16, per_node: u32) -> LockContention {
    let rows = (2..=max_nodes)
        .map(|n| {
            let sections = u64::from(per_node) * u64::from(n - 1);
            let tas = {
                let mut cluster = ClusterBuilder::new(n).build();
                let page = cluster.alloc_shared(0);
                for i in 1..n {
                    cluster.set_process(i, LockWorker::new(page.va(0), page.va(8), per_node));
                }
                cluster.run();
                cluster.now().as_us_f64() / sections as f64
            };
            let ticket = {
                let mut cluster = ClusterBuilder::new(n).build();
                let page = cluster.alloc_shared(0);
                for i in 1..n {
                    cluster.set_process(
                        i,
                        TicketWorker::new(page.va(0), page.va(8), page.va(16), per_node),
                    );
                }
                cluster.run();
                assert!(cluster.all_halted(), "ticket workers deadlocked");
                cluster.now().as_us_f64() / sections as f64
            };
            LockRow {
                nodes: n,
                sections,
                per_section_us: tas,
                ticket_us: ticket,
            }
        })
        .collect();
    LockContention { rows }
}

/// A looping ticket-locked increment worker.
struct TicketWorker {
    ticket_word: tg_mem::VAddr,
    serving_word: tg_mem::VAddr,
    data: tg_mem::VAddr,
    remaining: u32,
    state: TwState,
    acq: TicketAcquire,
    rel: TicketRelease,
    temp: u64,
}

enum TwState {
    Acquire,
    Read,
    Write,
    Release(u8),
}

impl TicketWorker {
    fn new(
        ticket_word: tg_mem::VAddr,
        serving_word: tg_mem::VAddr,
        data: tg_mem::VAddr,
        n: u32,
    ) -> Self {
        TicketWorker {
            ticket_word,
            serving_word,
            data,
            remaining: n,
            state: TwState::Acquire,
            acq: TicketAcquire::new(ticket_word, serving_word),
            rel: TicketRelease::new(serving_word, 0),
            temp: 0,
        }
    }
}

impl Process for TicketWorker {
    fn resume(&mut self, r: Resume) -> Action {
        match self.state {
            TwState::Acquire => match self.acq.step(r) {
                SyncStep::Do(a) => a,
                SyncStep::Ready => {
                    self.state = TwState::Read;
                    Action::Read(self.data)
                }
            },
            TwState::Read => {
                self.temp = r.value();
                self.state = TwState::Write;
                Action::Write(self.data, self.temp + 1)
            }
            TwState::Write => {
                self.state = TwState::Release(0);
                self.rel = TicketRelease::new(self.serving_word, self.acq.ticket());
                match self.rel.step(Resume::Start) {
                    SyncStep::Do(a) => a,
                    SyncStep::Ready => unreachable!("release starts with a fence"),
                }
            }
            TwState::Release(step) => {
                if step == 0 {
                    self.state = TwState::Release(1);
                    match self.rel.step(r) {
                        SyncStep::Do(a) => a,
                        SyncStep::Ready => unreachable!("two-step release"),
                    }
                } else {
                    self.remaining -= 1;
                    if self.remaining == 0 {
                        return Action::Halt;
                    }
                    self.state = TwState::Acquire;
                    self.acq = TicketAcquire::new(self.ticket_word, self.serving_word);
                    self.resume(Resume::Start)
                }
            }
        }
    }
}

impl fmt::Display for LockContention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E13 — fetch&store spinlock under contention (fence-embedding UNLOCK)"
        )?;
        writeln!(
            f,
            "{:>8} {:>10} {:>18} {:>14}",
            "nodes", "sections", "test&set (us)", "ticket (us)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8} {:>10} {:>18.2} {:>14.2}",
                r.nodes, r.sections, r.per_section_us, r.ticket_us
            )?;
        }
        Ok(())
    }
}

/// One multiprogramming measurement.
#[derive(Clone, Debug)]
pub struct OverlapRow {
    /// Configuration label.
    pub(crate) config: String,
    /// Completion time (µs).
    pub total_us: f64,
}

/// Result of [`multiprogramming_overlap`].
#[derive(Clone, Debug)]
pub struct MultiprogrammingOverlap {
    /// Measured configurations.
    pub rows: Vec<OverlapRow>,
    /// Sum of the two single-process runs (no overlap baseline).
    pub(crate) serial_sum_us: f64,
}

/// E15: multiprogramming on one workstation — a paging-bound process and a
/// compute-bound process. OS-level blocks (pager faults) let the scheduler
/// overlap them; the §2.2.4 contexts let both use the HIB without any
/// state save/restore.
pub fn multiprogramming_overlap(faults: u32, compute_chunks: u32) -> MultiprogrammingOverlap {
    let pager_run = |add_compute: bool| {
        let mut cluster = ClusterBuilder::new(2).build();
        let pages = cluster.make_paged(
            0,
            telegraphos::Backing::RemoteMemory {
                server: NodeId::new(1),
            },
            faults,
            1,
        );
        let acts: Vec<Action> = pages.iter().map(|va| Action::Read(*va)).collect();
        cluster.set_process(0, Script::new(acts));
        if add_compute {
            cluster.add_process(
                0,
                Script::new(
                    (0..compute_chunks)
                        .map(|_| Action::Compute(tg_sim::SimTime::from_us(10)))
                        .collect(),
                ),
            );
        }
        cluster.run();
        assert!(cluster.all_halted(), "overlap run deadlocked");
        cluster.now().as_us_f64()
    };
    let paging_only = pager_run(false);
    let compute_only = f64::from(compute_chunks) * 10.0;
    let together = pager_run(true);
    MultiprogrammingOverlap {
        rows: vec![
            OverlapRow {
                config: "paging process alone".into(),
                total_us: paging_only,
            },
            OverlapRow {
                config: "compute process alone".into(),
                total_us: compute_only,
            },
            OverlapRow {
                config: "both (multiprogrammed)".into(),
                total_us: together,
            },
        ],
        serial_sum_us: paging_only + compute_only,
    }
}

impl fmt::Display for MultiprogrammingOverlap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E15 — multiprogramming with per-process contexts (§2.2.4)"
        )?;
        writeln!(f, "{:<26} {:>12}", "configuration", "total (us)")?;
        for r in &self.rows {
            writeln!(f, "{:<26} {:>12.0}", r.config, r.total_us)?;
        }
        writeln!(f, "{:<26} {:>12.0}", "serial sum", self.serial_sum_us)?;
        let together = self.rows.last().map(|r| r.total_us).unwrap_or(0.0);
        if together > 0.0 {
            writeln!(
                f,
                "overlap recovered: {:.0}% of the shorter job",
                (self.serial_sum_us - together)
                    / self.rows[..2]
                        .iter()
                        .map(|r| r.total_us)
                        .fold(f64::INFINITY, f64::min)
                    * 100.0
            )?;
        }
        Ok(())
    }
}

/// One incast measurement.
#[derive(Clone, Copy, Debug)]
pub struct IncastRow {
    /// Concurrent senders.
    pub(crate) senders: u16,
    /// Aggregate delivered write throughput (writes/µs).
    pub throughput: f64,
    /// Worst/best sender completion ratio (1.0 = perfectly fair).
    pub fairness: f64,
}

/// Result of [`incast_congestion`].
#[derive(Clone, Debug)]
pub struct IncastCongestion {
    /// One row per sender count.
    pub rows: Vec<IncastRow>,
}

/// E16: incast — many senders blast remote writes at one home node. The
/// credit back-pressure must saturate aggregate throughput at the
/// receiver's service rate without starving anyone.
///
/// Fairness note: the simulator is deterministic, and in a perfectly
/// symmetric incast every contention decision is a timestamp tie, broken
/// the same way every cycle — so issue-completion times skew toward the
/// earlier-registered senders even though every sender makes continuous
/// progress. Real systems see jitter that randomizes these ties.
pub fn incast_congestion(max_senders: u16, writes_each: u64) -> IncastCongestion {
    let rows = (1..=max_senders)
        .map(|s| {
            let n = s + 1;
            let mut cluster = ClusterBuilder::new(n).build();
            let page = cluster.alloc_shared(0);
            for i in 1..n {
                // Disjoint word ranges per sender.
                let base = u64::from(i) * 128;
                let acts: Vec<Action> = (0..writes_each)
                    .map(|k| Action::Write(page.va((base + (k % 128)) * 8), k + 1))
                    .collect();
                cluster.set_process(i, Script::new(acts));
            }
            cluster.run();
            assert!(cluster.all_halted(), "incast deadlocked at {s} senders");
            let total_us = cluster.now().as_us_f64();
            let done: Vec<f64> = (1..n)
                .map(|i| {
                    cluster
                        .node(i)
                        .stats()
                        .halted_at
                        .expect("halted")
                        .as_us_f64()
                })
                .collect();
            let worst = done.iter().cloned().fold(0.0_f64, f64::max);
            let best = done.iter().cloned().fold(f64::INFINITY, f64::min);
            IncastRow {
                senders: s,
                throughput: (u64::from(s) * writes_each) as f64 / total_us,
                fairness: if worst > 0.0 { best / worst } else { 1.0 },
            }
        })
        .collect();
    IncastCongestion { rows }
}

impl fmt::Display for IncastCongestion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E16 — incast: senders blasting one home node (credit back-pressure)"
        )?;
        writeln!(
            f,
            "{:>9} {:>22} {:>10}",
            "senders", "throughput (wr/us)", "fairness"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>9} {:>22.2} {:>10.2}",
                r.senders, r.throughput, r.fairness
            )?;
        }
        Ok(())
    }
}
