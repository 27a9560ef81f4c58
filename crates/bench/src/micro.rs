//! Micro-benchmark experiments: Table 1, the §3.2 latency table, the
//! batch-write sweep, fence consistency, and the messaging comparison.

use std::fmt;

use telegraphos::{Action, ClusterBuilder, Script};
use tg_hw::HwConfig;
use tg_net::Topology;
use tg_sim::SimTime;
use tg_wire::{NodeId, TimingConfig};
use tg_workloads::{message_ping, message_pong, stream_reads, stream_writes};

/// E1: regenerates Table 1 from the hardware-cost model.
pub fn table1() -> Table1 {
    Table1 {
        built: HwConfig::telegraphos_i().inventory(),
        with_cam: HwConfig::telegraphos_i().with_cam(16).inventory(),
    }
}

/// Result of [`table1`].
#[derive(Debug)]
pub struct Table1 {
    /// Telegraphos I as built.
    pub built: tg_hw::Inventory,
    /// With the proposed 16-entry pending-write CAM.
    pub with_cam: tg_hw::Inventory,
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E1 / Table 1 — gate count for Telegraphos I HIB")?;
        writeln!(f, "{}", self.built)?;
        writeln!(
            f,
            "paper: message subtotal 3300 gates / 4.5 Kbit; shared-memory"
        )?;
        writeln!(
            f,
            "       subtotal 2700 gates / ~2500 Kbit; MPM 128 Mbit DRAM"
        )?;
        writeln!(f)?;
        writeln!(f, "ablation — §2.3.4 pending-write CAM added:")?;
        writeln!(f, "{}", self.with_cam)
    }
}

/// E2: the §3.2 basic-latency table on the two-workstation testbed.
pub fn basic_latency(timing: TimingConfig) -> BasicLatency {
    let ops = 2_000u64;
    let mut cluster = ClusterBuilder::new(2).timing(timing.clone()).build();
    let page = cluster.alloc_shared(1);
    cluster.set_process(0, stream_writes(&page, ops));
    cluster.run();
    let write_us = cluster.node(0).stats().remote_writes.mean();

    let mut cluster = ClusterBuilder::new(2).timing(timing).build();
    let page = cluster.alloc_shared(1);
    cluster.set_process(0, stream_reads(&page, 500));
    cluster.run();
    let read_us = cluster.node(0).stats().remote_reads.mean();
    BasicLatency { read_us, write_us }
}

/// Result of [`basic_latency`].
#[derive(Clone, Copy, Debug)]
pub struct BasicLatency {
    /// Measured remote-read latency (µs).
    pub read_us: f64,
    /// Measured sustained remote-write cost (µs).
    pub write_us: f64,
}

impl fmt::Display for BasicLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E2 / §3.2 — basic operation latency (2 nodes, 1 switch)")?;
        writeln!(f, "{:<16} {:>10} {:>10}", "Operation", "paper", "measured")?;
        writeln!(
            f,
            "{:<16} {:>8.1}us {:>8.2}us",
            "Remote Read", 7.2, self.read_us
        )?;
        writeln!(
            f,
            "{:<16} {:>8.2}us {:>8.2}us",
            "Remote Write", 0.70, self.write_us
        )
    }
}

/// E3: write bursts of various sizes; short bursts issue at TurboChannel
/// speed (< 0.5 µs/write, §3.2), long streams at the network service rate.
pub fn batch_writes(sizes: &[u64]) -> BatchWrites {
    let mut rows = Vec::new();
    for &n in sizes {
        let mut cluster = ClusterBuilder::new(2).build();
        let page = cluster.alloc_shared(1);
        cluster.set_process(0, stream_writes(&page, n));
        cluster.run();
        let issued = cluster
            .node(0)
            .stats()
            .halted_at
            .expect("writer halted")
            .as_us_f64();
        rows.push(BatchRow {
            n,
            total_us: issued,
            per_write_us: issued / n as f64,
        });
    }
    BatchWrites { rows }
}

/// One burst size measurement.
#[derive(Clone, Copy, Debug)]
pub struct BatchRow {
    /// Writes in the burst.
    pub(crate) n: u64,
    /// CPU-side time to issue the whole burst (µs).
    pub total_us: f64,
    /// Per-write issue cost (µs).
    pub per_write_us: f64,
}

/// Result of [`batch_writes`].
#[derive(Clone, Debug)]
pub struct BatchWrites {
    /// One row per burst size.
    pub rows: Vec<BatchRow>,
}

impl BatchWrites {
    /// The row for a given burst size, if measured.
    pub fn row(&self, n: u64) -> Option<&BatchRow> {
        self.rows.iter().find(|r| r.n == n)
    }
}

impl fmt::Display for BatchWrites {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E3 / §3.2 — remote-write bursts (paper: 100 writes < 50us;"
        )?;
        writeln!(f, "long streams at the network rate, ~0.70us each)")?;
        writeln!(
            f,
            "{:>8} {:>12} {:>12}",
            "writes", "total (us)", "per write"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8} {:>12.1} {:>12.3}",
                r.n, r.total_us, r.per_write_us
            )?;
        }
        Ok(())
    }
}

/// E9: the §2.3.5 flag/data race — stale reads without a fence, safety
/// with one — plus the measured fence cost.
pub fn fence_consistency() -> FenceConsistency {
    let run = |with_fence: bool| -> (u64, f64) {
        let topo = Topology::chain(6);
        let mut cluster = ClusterBuilder::new(6).topology(topo).build();
        let data = cluster.alloc_shared(5);
        let flag = cluster.alloc_shared(1);
        let out = cluster.alloc_shared(2);
        cluster.make_coherent(&data, &[0, 2]);
        cluster.make_coherent(&flag, &[0, 2]);
        let mut producer = vec![Action::Write(data.va(0), 42)];
        if with_fence {
            producer.push(Action::Fence);
        }
        producer.push(Action::Write(flag.va(0), 1));
        cluster.set_process(0, Script::new(producer));
        cluster.set_process(2, SpinReadOut::new(flag.va(0), data.va(0), out.va(0)));
        cluster.run();
        let observed = cluster.read_shared(&out, 0);
        let fence_us = cluster.node(0).stats().fences.mean();
        (observed, fence_us)
    };
    let (unfenced_value, _) = run(false);
    let (fenced_value, fence_us) = run(true);
    FenceConsistency {
        unfenced_value,
        fenced_value,
        fence_us,
    }
}

/// Result of [`fence_consistency`].
#[derive(Clone, Copy, Debug)]
pub struct FenceConsistency {
    /// What the consumer read without the producer fencing (0 = stale).
    pub unfenced_value: u64,
    /// What it read with the fence (must be 42).
    pub fenced_value: u64,
    /// Measured fence stall (µs).
    pub fence_us: f64,
}

impl fmt::Display for FenceConsistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E9 / §2.3.5 — MEMORY_BARRIER and the flag/data race")?;
        writeln!(
            f,
            "unfenced producer: consumer read {} (stale: {})",
            self.unfenced_value,
            self.unfenced_value != 42
        )?;
        writeln!(
            f,
            "fenced producer:   consumer read {} (correct)",
            self.fenced_value
        )?;
        writeln!(f, "fence stall: {:.2}us", self.fence_us)
    }
}

struct SpinReadOut {
    flag: tg_mem::VAddr,
    data: tg_mem::VAddr,
    out: tg_mem::VAddr,
    phase: u8,
}

impl SpinReadOut {
    fn new(flag: tg_mem::VAddr, data: tg_mem::VAddr, out: tg_mem::VAddr) -> Self {
        SpinReadOut {
            flag,
            data,
            out,
            phase: 0,
        }
    }
}

impl telegraphos::Process for SpinReadOut {
    fn resume(&mut self, r: telegraphos::Resume) -> Action {
        match self.phase {
            0 => {
                self.phase = 1;
                Action::Read(self.flag)
            }
            1 => {
                if matches!(r, telegraphos::Resume::Value(1)) {
                    self.phase = 2;
                    Action::Read(self.data)
                } else {
                    self.phase = 0;
                    Action::Compute(SimTime::from_ns(200))
                }
            }
            2 => {
                self.phase = 3;
                Action::Write(self.out, r.value())
            }
            _ => Action::Halt,
        }
    }
}

/// E10: one-way message delivery measured at the *receiver* — OS-trap
/// (PVM-style) messaging versus user-level remote writes into the
/// receiver's memory, across message sizes.
pub fn messaging_comparison(sizes: &[u32]) -> MessagingComparison {
    let mut rows = Vec::new();
    for &bytes in sizes {
        // OS path: one message; the receiver halts when Recv returns.
        let mut cluster = ClusterBuilder::new(2).build();
        cluster.set_process(0, message_ping(NodeId::new(1), bytes, 1));
        cluster.set_process(1, message_pong(NodeId::new(0), bytes, 1));
        cluster.run();
        // One-way delivery = the sender's trap/copy before any wire
        // activity plus the receiver's blocked time in Recv.
        let os_us = cluster.node(0).stats().sends.mean() + cluster.node(1).stats().recvs.mean();

        // User-level path: payload and flag live in the receiver's memory;
        // the sender streams plain stores, the receiver spins locally and
        // reads the payload locally.
        let words = u64::from(bytes.div_ceil(8)).max(1);
        let mut cluster = ClusterBuilder::new(2).build();
        let data = cluster.alloc_shared(1);
        let flag = cluster.alloc_shared(1);
        let mut actions: Vec<Action> = (0..words)
            .map(|w| Action::Write(data.va((w % tg_wire::PAGE_WORDS) * 8), w + 1))
            .collect();
        actions.push(Action::Write(flag.va(0), 1));
        cluster.set_process(0, Script::new(actions));
        cluster.set_process(
            1,
            ReceiveBurst {
                flag: flag.va(0),
                data,
                words,
                read: 0,
                phase: 0,
            },
        );
        cluster.run();
        let tg_us = cluster
            .node(1)
            .stats()
            .halted_at
            .expect("receiver done")
            .as_us_f64();
        rows.push(MessagingRow {
            bytes,
            os_trap_us: os_us,
            telegraphos_us: tg_us,
        });
    }
    MessagingComparison { rows }
}

/// Receiver for the user-level path: spin on the local flag, then read the
/// payload from local shared memory.
struct ReceiveBurst {
    flag: tg_mem::VAddr,
    data: telegraphos::SharedPage,
    words: u64,
    read: u64,
    phase: u8,
}

impl telegraphos::Process for ReceiveBurst {
    fn resume(&mut self, r: telegraphos::Resume) -> Action {
        use telegraphos::Resume;
        match self.phase {
            0 => {
                self.phase = 1;
                Action::Read(self.flag)
            }
            1 => {
                if matches!(r, Resume::Value(1)) {
                    self.phase = 2;
                    self.read = 0;
                    Action::Read(self.data.va(0))
                } else {
                    self.phase = 0;
                    Action::Compute(SimTime::from_ns(300))
                }
            }
            2 => {
                self.read += 1;
                if self.read < self.words {
                    Action::Read(self.data.va((self.read % tg_wire::PAGE_WORDS) * 8))
                } else {
                    Action::Halt
                }
            }
            _ => Action::Halt,
        }
    }
}

/// One message-size measurement.
#[derive(Clone, Copy, Debug)]
pub struct MessagingRow {
    /// Message size.
    pub bytes: u32,
    /// One-way latency through the OS-trap path (µs).
    pub os_trap_us: f64,
    /// Delivery via user-level remote writes + fence (µs).
    pub telegraphos_us: f64,
}

/// Result of [`messaging_comparison`].
#[derive(Clone, Debug)]
pub struct MessagingComparison {
    /// One row per message size.
    pub rows: Vec<MessagingRow>,
}

impl fmt::Display for MessagingComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E10 / §1 — message delivery: OS-trap sockets vs user-level writes"
        )?;
        writeln!(
            f,
            "{:>10} {:>14} {:>16} {:>8}",
            "bytes", "OS path (us)", "user-level (us)", "speedup"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>10} {:>14.1} {:>16.1} {:>7.1}x",
                r.bytes,
                r.os_trap_us,
                r.telegraphos_us,
                r.os_trap_us / r.telegraphos_us
            )?;
        }
        Ok(())
    }
}
