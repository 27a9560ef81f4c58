//! Shared workload harness for the `tg` binary and the benchmark.
//!
//! The `tg` subcommands and `perfbench` all drive the same canonical
//! workloads — the all-pairs ring ping-pong, the N-node Jacobi stencil
//! over eager-update boundary pages and the replicated KV service — so
//! the builders live here once. Keeping one construction path is what
//! makes the CI perf-gate baselines meaningful: every tool's 16-node
//! stencil is byte-for-byte the same cluster.
//!
//! The command-line flags that shape these workloads are parsed here
//! too, once: [`HarnessOptions::parse`] takes them from an [`Args`],
//! range-checks them and applies their implications, so every
//! subcommand rejects the same bad input the same way.

use std::num::NonZeroU64;
use std::str::FromStr;

use telegraphos::{
    Action, Cluster, ClusterBuilder, ClusterEvent, ComponentDetail, DetectParams, Drive, FaultPlan,
    RelParams, RetxMode, Script, SharedPage, Topology,
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
    /// detector. Implies `reliable` at the CLI: beacons ride reliable
    /// links.
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
    pub(crate) fn any_faults(&self) -> bool {
        self.drop > 0.0
            || self.corrupt > 0.0
            || self.ctrl_drop > 0.0
            || self.ctrl_corrupt > 0.0
            || self.any_crash()
    }

    /// True when a crash-stop window (node crash or switch outage) is
    /// scheduled: such runs never drain on their own and must be driven
    /// with heartbeats through [`run_cluster`].
    pub fn any_crash(&self) -> bool {
        self.crash.is_some() || self.switch_out.is_some()
    }

    /// Takes the harness flags from `args` over the values in `self`,
    /// checks them and applies their implications: a crash-stop window
    /// needs heartbeats (detection and structured op failure both live
    /// there), and injected faults and heartbeats need reliable links.
    ///
    /// ```text
    /// --nodes N  --reliable  --sack  --drop P  --corrupt P  --ctrl-drop P
    /// --ctrl-corrupt P  --fault-seed S  --heartbeats  --crash NODE,AT_US
    /// --restart AT_US  --switch-out SWITCH,FROM_US,UNTIL_US
    /// ```
    pub fn parse(mut self, args: &mut Args) -> Result<HarnessOptions, String> {
        self.nodes = args.value("--nodes")?.unwrap_or(self.nodes);
        if self.nodes < 2 {
            return Err("need at least 2 nodes".to_string());
        }
        self.reliable |= args.switch("--reliable");
        if args.switch("--sack") {
            self.mode = RetxMode::Sack;
        }
        self.drop = args.value("--drop")?.unwrap_or(self.drop);
        self.corrupt = args.value("--corrupt")?.unwrap_or(self.corrupt);
        self.ctrl_drop = args.value("--ctrl-drop")?.unwrap_or(self.ctrl_drop);
        self.ctrl_corrupt = args.value("--ctrl-corrupt")?.unwrap_or(self.ctrl_corrupt);
        for p in [self.drop, self.corrupt, self.ctrl_drop, self.ctrl_corrupt] {
            if !(0.0..=1.0).contains(&p) {
                return Err("fault probabilities must be within [0, 1]".to_string());
            }
        }
        self.fault_seed = args.value("--fault-seed")?.unwrap_or(self.fault_seed);
        self.heartbeats |= args.switch("--heartbeats");
        if let Some(v) = args.value::<String>("--crash")? {
            let [node, at_us] = numbers(&v).ok_or(format!("bad --crash {v} (want NODE,AT_US)"))?;
            self.crash = Some((self.index("--crash", node)?, at_us));
        }
        self.restart_us = args.value("--restart")?.or(self.restart_us);
        match (self.crash, self.restart_us) {
            (None, Some(_)) => return Err("--restart needs --crash".to_string()),
            (Some((_, at_us)), Some(restart_us)) if restart_us < at_us => {
                return Err("--restart precedes the --crash it closes".to_string());
            }
            _ => {}
        }
        if let Some(v) = args.value::<String>("--switch-out")? {
            let [s, from_us, until_us] = numbers(&v).ok_or(format!(
                "bad --switch-out {v} (want SWITCH,FROM_US,UNTIL_US)"
            ))?;
            // The ring a switch outage runs on has one switch per node.
            self.switch_out = Some((self.index("--switch-out", s)?, from_us, until_us));
        }
        self.heartbeats |= self.any_crash();
        self.reliable |= self.any_faults() || self.heartbeats;
        Ok(self)
    }

    /// `n` as the index of one of the cluster's nodes.
    fn index(&self, flag: &str, n: u64) -> Result<u16, String> {
        u16::try_from(n)
            .ok()
            .filter(|&n| n < self.nodes)
            .ok_or(format!(
                "{flag} index {n} out of range ({} nodes)",
                self.nodes
            ))
    }
}

/// `N` comma-separated numbers, or `None` if `v` is not that.
fn numbers<const N: usize>(v: &str) -> Option<[u64; N]> {
    let numbers: Option<Vec<u64>> = v.split(',').map(|n| n.parse().ok()).collect();
    numbers?.try_into().ok()
}

/// A command line from which each reader takes the flags it knows;
/// [`Args::finish`] rejects what is left.
#[derive(Debug)]
pub struct Args(Vec<String>);

impl Args {
    /// The arguments to read, without the program and subcommand names.
    pub fn new(args: impl IntoIterator<Item = String>) -> Args {
        Args(args.into_iter().collect())
    }

    /// Takes every `flag VALUE` pair, returning the values parsed, in
    /// order.
    pub fn values<T: FromStr>(&mut self, flag: &str) -> Result<Vec<T>, String> {
        let mut values = Vec::new();
        while let Some(i) = self.0.iter().position(|a| a == flag) {
            self.0.remove(i);
            if i == self.0.len() {
                return Err(format!("{flag} needs a value"));
            }
            let v = self.0.remove(i);
            values.push(v.parse().map_err(|_| format!("bad {flag} {v}"))?);
        }
        Ok(values)
    }

    /// Takes `flag VALUE`; the last one given wins.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        Ok(self.values(flag)?.pop())
    }

    /// Takes a bare `flag`, returning whether it was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let given = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() < given
    }

    /// Fails on the first argument no reader took.
    pub fn finish(self) -> Result<(), String> {
        self.0
            .first()
            .map_or(Ok(()), |a| Err(format!("unknown argument {a}")))
    }
}

/// Takes a seeded campaign's flags from `args`: `--seeds N`, the seeds
/// per scenario (default 3, at least 1), and `--report FILE`, where to
/// write the campaign's `tg-report-v2` document.
pub fn campaign(args: &mut Args) -> Result<(u64, Option<String>), String> {
    let seeds = args.value("--seeds")?.map_or(3, NonZeroU64::get);
    Ok((seeds, args.value("--report")?))
}

/// A cluster builder reflecting the reliability / fault options.
pub(crate) fn builder(opts: &HarnessOptions) -> ClusterBuilder {
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
    pub(crate) want: Vec<u64>,
    /// The per-node result pages to read back.
    pub(crate) results: Vec<SharedPage>,
}

/// The N-node Jacobi stencil over eager-update boundary pages, `strip`
/// interior cells per node, `iters` sweeps, with the sequential
/// reference computed for verification. `tg report stencil16` runs
/// `nodes = 16, strip = 8, iters = 12`; `tg trace stencil` is the
/// trace-friendly variant, `iters = 4`.
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

/// Deliveries per event kind, summed over nodes and over switches: one
/// line each, nonzero kinds only, in [`ClusterEvent::KINDS`] order.
pub fn kind_report(cluster: &Cluster) -> String {
    let (mut nodes, mut switches) = (
        [0u64; ClusterEvent::KINDS.len()],
        [0u64; ClusterEvent::KINDS.len()],
    );
    for r in cluster.component_stats() {
        let sum = match r.detail {
            ComponentDetail::Node { .. } => &mut nodes,
            ComponentDetail::Switch { .. } => &mut switches,
        };
        for (s, k) in sum.iter_mut().zip(r.kinds) {
            *s += k;
        }
    }
    let line = |who: &str, sum: &[u64]| {
        let kinds: Vec<String> = ClusterEvent::KINDS
            .iter()
            .zip(sum)
            .filter(|(_, &n)| n > 0)
            .map(|(name, n)| format!("{name} {n}"))
            .collect();
        format!("{who} deliveries by kind: {}\n", kinds.join(", "))
    };
    line("node", &nodes) + &line("switch", &switches)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(String::from))
    }

    fn parse(line: &str) -> Result<HarnessOptions, String> {
        let mut args = args(line);
        let opts = HarnessOptions::default().parse(&mut args)?;
        args.finish().map(|()| opts)
    }

    #[test]
    fn flags_apply_their_implications() {
        let o = parse("--sack --drop 0.1 --nodes 6 --fault-seed 7").unwrap();
        assert!(o.reliable && !o.heartbeats);
        assert_eq!((o.nodes, o.drop, o.fault_seed), (6, 0.1, 7));
        assert_eq!(o.mode, RetxMode::Sack);
        let o = parse("--crash 1,150 --restart 2500").unwrap();
        assert!(o.reliable && o.heartbeats);
        assert_eq!((o.crash, o.restart_us), (Some((1, 150)), Some(2500)));
        let o = parse("--switch-out 3,100,100000").unwrap();
        assert!(o.reliable && o.heartbeats);
        assert_eq!(o.switch_out, Some((3, 100, 100_000)));
        let o = parse("--heartbeats").unwrap();
        assert!(o.reliable && o.heartbeats);
        assert!(!parse("").unwrap().reliable);
        assert_eq!(parse("--drop 0.2 --drop 0.3").unwrap().drop, 0.3);
    }

    #[test]
    fn bad_harness_flags_are_rejected() {
        for (line, want) in [
            ("--drop 1.5", "within [0, 1]"),
            ("--ctrl-corrupt -0.1", "within [0, 1]"),
            ("--restart 100 --crash 1,150", "--restart precedes"),
            ("--restart 100", "--restart needs --crash"),
            ("--crash 9,150", "--crash index 9 out of range"),
            ("--crash 4,150", "--crash index 4 out of range"),
            ("--crash 70000,150", "--crash index 70000 out of range"),
            ("--crash 1", "bad --crash 1"),
            ("--switch-out 4,100,200", "index 4 out of range"),
            ("--switch-out 1,100", "bad --switch-out"),
            ("--nodes 1", "need at least 2 nodes"),
            ("--nodes x", "bad --nodes x"),
            ("--drop", "--drop needs a value"),
            ("--bogus", "unknown argument --bogus"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(want), "{line}: {err}");
        }
        assert!(parse("--nodes 16 --crash 9,150").is_ok());
    }

    #[test]
    fn campaign_flags_are_read_or_rejected() {
        assert_eq!(campaign(&mut args("")), Ok((3, None)));
        let want = Ok((5, Some("r.json".to_string())));
        assert_eq!(campaign(&mut args("--report r.json --seeds 5")), want);
        for (line, want) in [
            ("--seeds x", "bad --seeds x"),
            ("--seeds", "--seeds needs a value"),
            ("--seeds 0", "bad --seeds 0"),
            ("--report", "--report needs a value"),
        ] {
            assert_eq!(campaign(&mut args(line)), Err(want.to_string()));
        }
    }
}
