//! The three fixed-work workloads: how each is built, run and checked,
//! and the counters read back from the finished cluster.

use telegraphos::{Cluster, ComponentDetail, RetxMode};
use telegraphos_suite::harness::{self, HarnessOptions, StencilCheck};
use tg_kv::{audit, drive, KvConfig, KvHandles};
use tg_sim::{RunLimit, SimTime, Summary};

/// Which workload a run measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Jacobi stencil, 64 nodes on one star switch, unreliable links.
    Stencil64,
    /// Jacobi stencil, 16 nodes, SACK links under seeded drop + corrupt.
    Stencil16Lossy,
    /// Replicated KV service, 8-node ring, GBN links, healthy fabric.
    Kv,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Stencil64, Workload::Stencil16Lossy, Workload::Kv];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Stencil64 => "stencil64",
            Workload::Stencil16Lossy => "stencil16_lossy",
            Workload::Kv => "kv",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when `--seed` is absent: the crates' own defaults
    /// (`HarnessOptions::fault_seed`, `KvConfig::seed`). `stencil64`
    /// draws nothing at random, so its seed is unused.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Stencil64 => 0,
            Workload::Stencil16Lossy => HarnessOptions::default().fault_seed,
            Workload::Kv => KvConfig::default().seed,
        }
    }
}

/// Simulated deadline handed to `tg_kv::drive`: well past the ~270 ms a
/// healthy run needs (and the 200 ms `simkv` default).
const KV_LIMIT: SimTime = SimTime::from_ms(2_000);
const KV_STEP: SimTime = SimTime::from_us(50);

/// A workload at a given seed and size.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    /// Divides the iteration or request count; 1 is the benchmark size,
    /// larger values give the short runs the tests use.
    pub shrink: u32,
}

/// A built and deployed workload, ready to run.
pub struct Deployed {
    pub cluster: Cluster,
    verify: Verify,
}

/// What a finished run's outputs are checked against.
enum Verify {
    Stencil(StencilCheck),
    Kv(Box<KvHandles>),
}

impl Spec {
    fn stencil_opts(&self) -> (HarnessOptions, u32) {
        match self.workload {
            Workload::Stencil64 => (
                HarnessOptions {
                    nodes: 64,
                    ..HarnessOptions::default()
                },
                128,
            ),
            _ => (
                HarnessOptions {
                    nodes: 16,
                    reliable: true,
                    mode: RetxMode::Sack,
                    drop: 0.05,
                    corrupt: 0.02,
                    fault_seed: self.seed,
                    ..HarnessOptions::default()
                },
                480,
            ),
        }
    }

    fn kv_config(&self) -> KvConfig {
        KvConfig {
            requests_per_client: 2048 / self.shrink,
            seed: self.seed,
            ..KvConfig::default()
        }
    }

    /// Builds the cluster and deploys the workload on it: the set-up cost.
    pub fn deploy(&self) -> Deployed {
        match self.workload {
            Workload::Kv => {
                let opts = HarnessOptions {
                    reliable: true,
                    mode: RetxMode::GoBackN,
                    ..HarnessOptions::default()
                };
                let (cluster, handles) = harness::build_kv(&opts, &self.kv_config());
                Deployed {
                    cluster,
                    verify: Verify::Kv(Box::new(handles)),
                }
            }
            _ => {
                let (opts, iters) = self.stencil_opts();
                let (cluster, check) = harness::build_stencil(&opts, 8, iters / self.shrink);
                Deployed {
                    cluster,
                    verify: Verify::Stencil(check),
                }
            }
        }
    }
}

/// Everything a finished run is judged and measured by. Fields are
/// simulator counters, so identical inputs give identical values.
#[derive(Clone, Debug, PartialEq)]
pub struct Counters {
    pub events: u64,
    pub peak_queue: u64,
    /// Simulated completion time, picoseconds.
    pub sim_ps: u64,
    pub packets: u64,
    /// Frame launches on every directed link, retransmissions included.
    pub tx_frames: u64,
    pub retransmits: u64,
    pub retx_bytes: u64,
    pub ctrl_discards: u64,
    pub switch_events: u64,
    /// Credit-stall time summed over every node and switch port, ps.
    pub credit_stall_ps: u64,
    pub fifo_hwm: u64,
    pub remote_writes: u64,
    pub remote_reads: u64,
    pub atomics: u64,
    pub fences: u64,
    pub atomic_us: f64,
    pub fence_us: f64,
    /// Operations the workload attempted: remote operations on the
    /// stencils, issued requests on `kv`.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    pub kv: Option<KvCounters>,
}

/// The KV service's own counters.
#[derive(Clone, Debug, PartialEq)]
pub struct KvCounters {
    pub requests: u64,
    pub timeouts: u64,
    pub busy_acks: u64,
    pub stale_acks: u64,
    pub dir_refreshes: u64,
    pub dedup_hits: u64,
    pub fresh_applies: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub fingerprint: u64,
}

impl Deployed {
    /// Runs the workload's simulated work to completion: the timed part.
    pub fn run(&mut self) -> RunLimit {
        match &self.verify {
            Verify::Stencil(_) => self.cluster.run(),
            Verify::Kv(handles) => drive(&mut self.cluster, handles, KV_STEP, KV_LIMIT),
        }
    }

    /// Checks the outputs of a finished run and reads its counters. Any
    /// verification, audit or conservation violation is an error.
    pub fn check(&self, outcome: RunLimit) -> Result<Counters, String> {
        let cluster = &self.cluster;
        let violations = cluster.conservation_violations();
        if !violations.is_empty() {
            return Err(format!("conservation: {}", violations.join("; ")));
        }
        let mut c = counters(cluster);
        match &self.verify {
            Verify::Stencil(check) => {
                if !cluster.all_halted() {
                    return Err("stencil did not halt".into());
                }
                harness::verify_stencil(cluster, check)?;
            }
            Verify::Kv(handles) => {
                if outcome == RunLimit::Deadline {
                    return Err("kv clients did not finish before the drive limit".into());
                }
                let report = audit(cluster, handles, &[]);
                if !report.violations.is_empty() {
                    return Err(format!("kv audit: {}", report.violations.join("; ")));
                }
                let requests = handles
                    .client_logs
                    .iter()
                    .map(|l| l.borrow().requests.len() as u64)
                    .sum();
                let client = |f: fn(&tg_kv::ClientLog) -> u64| -> u64 {
                    handles.client_logs.iter().map(|l| f(&l.borrow())).sum()
                };
                let mut lat = report.latencies_ns.clone();
                lat.sort_unstable();
                c.attempted = requests;
                c.failed = report.failed_unreachable + report.rejected_busy;
                c.kv = Some(KvCounters {
                    requests,
                    timeouts: client(|l| l.timeouts),
                    busy_acks: client(|l| l.busy_acks),
                    stale_acks: client(|l| l.stale_acks),
                    dir_refreshes: client(|l| l.dir_refreshes),
                    dedup_hits: report.dedup_hits,
                    fresh_applies: report.fresh_applies,
                    p50_ns: rank(&lat, 0.50),
                    p99_ns: rank(&lat, 0.99),
                    fingerprint: report.fingerprint,
                });
            }
        }
        Ok(c)
    }
}

/// Nearest-rank quantile of sorted values (0 when empty).
fn rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let i = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[i - 1]
}

fn counters(cluster: &Cluster) -> Counters {
    let engine = cluster.engine_stats();
    let (mut switch_events, mut stall, mut fifo_hwm) = (0u64, SimTime::ZERO, 0u32);
    for r in cluster.component_stats() {
        match r.detail {
            ComponentDetail::Node {
                rx_fifo_high_water,
                credit_stall,
                ..
            } => {
                stall += credit_stall;
                fifo_hwm = fifo_hwm.max(rx_fifo_high_water);
            }
            ComponentDetail::Switch {
                fifo_high_water,
                credit_stall,
                ..
            } => {
                switch_events += r.events.delivered;
                stall += credit_stall;
                fifo_hwm = fifo_hwm.max(fifo_high_water);
            }
        }
    }
    let tx_frames = cluster.link_snapshots().iter().map(|l| l.tx_packets).sum();
    let (mut writes, mut reads, mut atomics, mut fences) = (
        Summary::new(),
        Summary::new(),
        Summary::new(),
        Summary::new(),
    );
    let mut op_failures = 0;
    for i in 0..cluster.node_count() {
        let s = cluster.node(i).stats();
        writes.merge(&s.remote_writes);
        reads.merge(&s.remote_reads);
        atomics.merge(&s.atomics);
        fences.merge(&s.fences);
        op_failures += s.op_failures;
    }
    let mean = |s: &Summary| if s.count() == 0 { 0.0 } else { s.mean() };
    Counters {
        events: engine.events_delivered,
        peak_queue: engine.max_queue_len as u64,
        sim_ps: cluster.now().as_ps(),
        packets: cluster.fabric_packets(),
        tx_frames,
        retransmits: cluster.fabric_retransmits(),
        retx_bytes: cluster.fabric_retx_bytes(),
        ctrl_discards: cluster.fabric_ctrl_discards(),
        switch_events,
        credit_stall_ps: stall.as_ps(),
        fifo_hwm: u64::from(fifo_hwm),
        remote_writes: writes.count(),
        remote_reads: reads.count(),
        atomics: atomics.count(),
        fences: fences.count(),
        atomic_us: mean(&atomics),
        fence_us: mean(&fences),
        attempted: writes.count() + reads.count() + atomics.count(),
        failed: op_failures,
        kv: None,
    }
}
