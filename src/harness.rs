//! Shared workload harness for the suite binaries.
//!
//! `simtrace`, `simreport` and `simbench` all drive the same two
//! canonical workloads — the all-pairs ring ping-pong and the N-node
//! Jacobi stencil over eager-update boundary pages — so the builders
//! live here once. Keeping one construction path is what makes the CI
//! perf-gate baselines meaningful: every binary's "stencil_16" is
//! byte-for-byte the same cluster.

use telegraphos::{
    Action, Cluster, ClusterBuilder, DetectParams, Drive, FaultPlan, RelParams, RetxMode, Script,
    SharedPage, Topology,
};
use tg_sim::{MetricsRegistry, RunLimit, SimTime};
use tg_wire::NodeId;
use tg_workloads::{jacobi_reference, JacobiShared, JacobiWorker};

/// Reliability / fault-injection knobs shared by every harness workload.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Cluster size (≥ 2).
    pub nodes: u16,
    /// Run the link-level reliability protocol.
    pub reliable: bool,
    /// Seeded frame-drop probability (implies `reliable` at the CLI).
    pub drop: f64,
    /// Seeded frame-corruption probability (implies `reliable`).
    pub corrupt: f64,
    /// Seeded control-frame drop probability — acks, nacks and resync
    /// handshakes silently lost (implies `reliable`).
    pub ctrl_drop: f64,
    /// Seeded control-frame corruption probability — the receiver
    /// discards the frame on its checksum (implies `reliable`).
    pub ctrl_corrupt: f64,
    /// Retransmit discipline for reliable links.
    pub mode: RetxMode,
    /// Fault-injector seed.
    pub fault_seed: u64,
    /// Run per-link heartbeats (crash-stop failure detection) during the
    /// workload. Implied by any crash-stop fault below — a crashed peer
    /// can only be convicted, and blocked ops only resolved, by the
    /// detector.
    pub heartbeats: bool,
    /// Crash workstation `(node, at_us)`. Permanent unless `restart_us`
    /// closes the window.
    pub crash: Option<(u16, u64)>,
    /// Restart time (µs) closing the crash window of [`Self::crash`].
    pub restart_us: Option<u64>,
    /// Take switch `(s, from_us, until_us)` out — crash-stop silence on
    /// every link touching it. Switches the fabric to a ring of one
    /// switch per node so surviving routes exist to recompute onto.
    pub switch_out: Option<(u16, u64, u64)>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            nodes: 4,
            reliable: false,
            drop: 0.0,
            corrupt: 0.0,
            ctrl_drop: 0.0,
            ctrl_corrupt: 0.0,
            mode: RetxMode::GoBackN,
            fault_seed: 0xFA_0001,
            heartbeats: false,
            crash: None,
            restart_us: None,
            switch_out: None,
        }
    }
}

impl HarnessOptions {
    /// True if any seeded fault probability is non-zero or a crash-stop
    /// window is scheduled.
    pub fn any_faults(&self) -> bool {
        self.drop > 0.0
            || self.corrupt > 0.0
            || self.ctrl_drop > 0.0
            || self.ctrl_corrupt > 0.0
            || self.crash.is_some()
            || self.switch_out.is_some()
    }

    /// True when a crash-stop window (node crash or switch outage) is
    /// scheduled: such runs never drain on their own and must be driven
    /// with heartbeats through [`run_cluster`].
    pub fn any_crash(&self) -> bool {
        self.crash.is_some() || self.switch_out.is_some()
    }
}

/// A cluster builder reflecting the reliability / fault options.
pub fn builder(opts: &HarnessOptions) -> ClusterBuilder {
    let mut b = ClusterBuilder::new(opts.nodes);
    if opts.switch_out.is_some() {
        b = b.topology(Topology::ring(opts.nodes));
    }
    if opts.reliable {
        b = b.reliable_links(RelParams::with_mode(opts.mode));
    }
    if opts.any_faults() {
        let mut plan = FaultPlan::new(opts.fault_seed)
            .drop(opts.drop)
            .corrupt(opts.corrupt)
            .ctrl_drop(opts.ctrl_drop)
            .ctrl_corrupt(opts.ctrl_corrupt);
        if let Some((node, at_us)) = opts.crash {
            plan = plan.node_crash(NodeId::new(node), SimTime::from_us(at_us));
            if let Some(restart_us) = opts.restart_us {
                plan = plan.node_restart(NodeId::new(node), SimTime::from_us(restart_us));
            }
        }
        if let Some((s, from_us, until_us)) = opts.switch_out {
            plan = plan.switch_outage(s, SimTime::from_us(from_us), SimTime::from_us(until_us));
        }
        b = b.with_faults(plan);
    }
    b
}

/// Drives `cluster` to completion the way the options demand: a plain
/// drain for fault-masked workloads, a stepped heartbeat-driven run for
/// crash-stop plans (whose event queues never drain on their own — the
/// detector must convict the dead and fail blocked ops). With `sampled`
/// set, congestion metrics land in the registry once per interval.
/// Returns `true` when the surviving workload completed within the time
/// limit.
pub fn run_cluster(
    cluster: &mut Cluster,
    opts: &HarnessOptions,
    sampled: Option<(SimTime, &mut MetricsRegistry)>,
) -> bool {
    let quiescent = opts.heartbeats || opts.any_crash();
    let mut plan = if quiescent {
        cluster.enable_heartbeats(DetectParams::default());
        Drive::quiescent(SimTime::from_us(50), SimTime::from_ms(200))
    } else {
        Drive::drained()
    };
    if let Some((interval, metrics)) = sampled {
        plan.slice = interval;
        plan.metrics = Some(metrics);
    }
    let outcome = cluster.drive(plan).expect("the watchdog is off");
    outcome != RunLimit::Deadline && (quiescent || cluster.all_halted())
}

/// Every node writes to / fences on / reads from / atomically increments
/// a page homed on its ring neighbor: remote writes, blocking reads and
/// atomic launches on every node, crossing the full fabric.
pub fn build_pingpong(opts: &HarnessOptions) -> Cluster {
    let nodes = opts.nodes;
    let mut cluster = builder(opts).build();
    let pages: Vec<_> = (0..nodes).map(|n| cluster.alloc_shared(n)).collect();
    for n in 0..nodes {
        let peer = &pages[((n + 1) % nodes) as usize];
        let mut actions = Vec::new();
        for round in 0..4u64 {
            actions.push(Action::Write(peer.va(0), round + 1));
            actions.push(Action::Fence);
            actions.push(Action::Read(peer.va(0)));
            actions.push(Action::FetchAdd(peer.va(8), 1));
            actions.push(Action::Compute(SimTime::from_ns(200)));
        }
        cluster.set_process(n, Script::new(actions));
    }
    cluster
}

/// What [`build_stencil`] leaves behind for result verification.
#[derive(Debug)]
pub struct StencilCheck {
    /// The sequential Jacobi reference result.
    pub want: Vec<u64>,
    /// The per-node result pages to read back.
    pub results: Vec<SharedPage>,
}

/// The N-node Jacobi stencil over eager-update boundary pages, `strip`
/// interior cells per node, `iters` sweeps, with the sequential
/// reference computed for verification. `simbench`'s `stencil_16` is
/// `nodes = 16, strip = 8, iters = 12`; `simtrace`'s trace-friendly
/// variant is `iters = 4`.
pub fn build_stencil(opts: &HarnessOptions, strip: usize, iters: u32) -> (Cluster, StencilCheck) {
    let nodes = opts.nodes;
    let (left_bc, right_bc) = (900u64, 100u64);
    let total = strip * nodes as usize;
    let initial: Vec<u64> = (0..total).map(|i| (i as u64 * 53) % 777).collect();

    let mut cluster = builder(opts).build();
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
        let strip_cells = initial[i * strip..(i + 1) * strip].to_vec();
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
            JacobiWorker::new(
                shared,
                u64::from(nodes),
                iters,
                strip_cells,
                left_bc,
                right_bc,
            ),
        );
    }
    let want = jacobi_reference(&initial, iters, left_bc, right_bc);
    (cluster, StencilCheck { want, results })
}

/// The replicated KV service deployed on a fabric that reflects the
/// fault options. The topology is always a ring — the campaign's
/// switch-outage scenarios need surviving routes to recompute onto, and
/// the healthy scenarios must measure the same fabric they are compared
/// against. Heartbeats are enabled unconditionally: the service's
/// failover path runs on conviction verdicts.
pub fn build_kv(opts: &HarnessOptions, cfg: &tg_kv::KvConfig) -> (Cluster, tg_kv::KvHandles) {
    let mut opts = opts.clone();
    opts.nodes = cfg.nodes_required();
    let mut cluster = builder(&opts).topology(Topology::ring(opts.nodes)).build();
    cluster.enable_heartbeats(DetectParams::default());
    let handles = tg_kv::deploy(&mut cluster, cfg);
    (cluster, handles)
}

/// Reads the stencil result back and compares it to the sequential
/// reference, returning a description of the first divergence.
pub fn verify_stencil(cluster: &Cluster, check: &StencilCheck) -> Result<(), String> {
    let strip = check.want.len() / check.results.len();
    let mut got = Vec::with_capacity(check.want.len());
    for page in &check.results {
        for w in 0..strip {
            got.push(cluster.read_shared(page, w as u64));
        }
    }
    if got != check.want {
        return Err(format!(
            "stencil diverged from reference: got {:?}, want {:?}",
            got, check.want
        ));
    }
    Ok(())
}
