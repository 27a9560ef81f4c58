//! The run driver: [`Cluster::drive`] runs a workload in slices of
//! simulated time and, between slices, samples congestion metrics,
//! checks the no-progress watchdog and tests the plan's stop condition.

use tg_sim::{MetricsRegistry, ProgressMeter, RunLimit, SeriesId, SimTime};
use tg_wire::metric;
use tg_wire::trace::{OpKind, Site};
use tg_wire::NodeId;

use super::{Cluster, DeadlockReport, PortSnapshot};

/// When a [`Cluster::drive`] run has done its work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stop<'a> {
    /// The event queue drains.
    Drained,
    /// Every node with processes has halted or sits inside an active
    /// crash window; heartbeats then stop and the residual events drain.
    /// A run that reaches its limit first ends there, unfinished, with
    /// heartbeats running and events still queued.
    Quiescent,
    /// Every listed node has halted; the run stops there with events
    /// still queued.
    Halted(&'a [NodeId]),
}

/// A run plan for [`Cluster::drive`].
#[derive(Debug)]
pub struct Drive<'a> {
    /// Simulated time between checks: the sampling interval, the
    /// watchdog window and the quiescence step in one.
    pub slice: SimTime,
    /// Simulated instant that cuts the run short.
    pub limit: SimTime,
    /// Registry sampled after every slice.
    pub metrics: Option<&'a mut MetricsRegistry>,
    /// Run under the no-progress watchdog.
    pub watchdog: bool,
    /// When the run is done.
    pub stop: Stop<'a>,
}

impl Drive<'_> {
    /// Runs until the event queue drains: one unbounded slice, exactly
    /// [`Cluster::run`].
    pub fn drained() -> Self {
        Drive {
            slice: SimTime::MAX,
            limit: SimTime::MAX,
            metrics: None,
            watchdog: false,
            stop: Stop::Drained,
        }
    }

    /// Runs a heartbeat-enabled cluster, which never drains on its own,
    /// in `step` slices until the workload is done, then stops heartbeats
    /// and drains. A workload still unfinished when `limit` passes ends
    /// the run there as [`RunLimit::Deadline`].
    pub fn quiescent(step: SimTime, limit: SimTime) -> Self {
        Drive {
            slice: step,
            limit,
            stop: Stop::Quiescent,
            ..Drive::drained()
        }
    }

    /// Runs until drained under the no-progress watchdog, one check per
    /// `window`.
    pub fn watchdog(window: SimTime) -> Self {
        Drive {
            slice: window,
            watchdog: true,
            ..Drive::drained()
        }
    }
}

impl Cluster {
    /// Runs the cluster by `plan`, slice by slice: each slice runs the
    /// engine to `min(now + slice, limit)`, then samples into the plan's
    /// registry, checks the watchdog, and stops when the [`Stop`]
    /// condition holds, `limit` passes, or the engine drains.
    ///
    /// Returns [`RunLimit::Drained`] (`Halted` for [`Stop::Halted`]) when
    /// the stop condition was met and [`RunLimit::Deadline`] when the run
    /// ended first. The watchdog counts committed packets and completed
    /// CPU operations as progress; a full slice without any — a dead link
    /// retransmitting into the void — is an `Err` naming the stalled
    /// links and nodes. So is a drain that leaves the workload unfinished:
    /// a dead link strands its frames and stops its timers.
    ///
    /// A sampled run records, after every slice:
    ///
    /// * `fabric.bytes_total` — cumulative bytes switched;
    /// * `fabric.link_utilization` — wire time of the slice's traffic
    ///   over the slice (aggregated across links, so it can exceed 1.0
    ///   on a multi-link fabric);
    /// * `fabric.credit_stall_us` — cumulative credit-stall time summed
    ///   over nodes and switches;
    /// * `node{i}.rx_fifo_depth` / `switch{k}.fifo_depth` — queue depths
    ///   at the sampling instant;
    /// * `link.<a>-<b>.utilization` / `.fifo_depth` / `.stall_us` — the
    ///   same congestion signals per **directed** link hop, under the
    ///   canonical names of [`tg_wire::metric`] (the congestion
    ///   observatory `simreport` renders).
    ///
    /// On completion the registry's gauges hold the final high-water marks
    /// (`node{i}.rx_fifo_high_water`, `switch{k}.fifo_high_water`,
    /// `link.<a>-<b>.fifo_high_water` and `.stall_us`) and its counters
    /// the per-node operation mix (`node{i}.remote_writes`, ...) plus
    /// per-link traffic and reliability totals (`link.<a>-<b>.tx_packets`
    /// / `.tx_bytes` / `.retransmits` / `.resyncs` / `.resync_probes` /
    /// `.rx_discards`; totals as of this run — sample once per registry).
    ///
    /// # Panics
    ///
    /// Panics if `plan.slice` is zero.
    pub fn drive(&mut self, plan: Drive<'_>) -> Result<RunLimit, DeadlockReport> {
        assert!(!plan.slice.is_zero(), "drive slice must be positive");
        let mut checks = Checks {
            slice: plan.slice,
            sampler: plan.metrics.map(|m| Sampler::new(self, m)),
            meter: plan.watchdog.then(ProgressMeter::new),
        };
        if let Some(meter) = &checks.meter {
            for i in 0..self.n {
                self.node_mut(i).set_progress_meter(meter.clone());
            }
        }
        let mut ended = self.slices(&mut checks, plan.limit, plan.stop);
        if plan.stop == Stop::Quiescent && matches!(ended, Ok(None)) {
            // The workload is done, so heartbeats are all that keeps the
            // queue busy: stop them and let the residual acks, credits and
            // beacons in flight drain, so the final counters settle.
            // Detector verdicts already delivered stay in force. An
            // unfinished workload is not drained: survivors spinning on a
            // crashed peer would keep the queue busy forever.
            for i in 0..self.n {
                self.node_mut(i).hib_mut().stop_heartbeats();
            }
            ended = self
                .slices(&mut checks, SimTime::MAX, Stop::Drained)
                .map(|_| None);
        }
        if let Some(sampler) = checks.sampler {
            sampler.finish(self);
        }
        let ended = ended?;
        if let (Some(meter), Some(RunLimit::Drained)) = (&checks.meter, ended) {
            if !self.workload_done() {
                return Err(self.deadlock_report(self.now(), meter.count()));
            }
        }
        Ok(match (plan.stop, ended) {
            (Stop::Drained, Some(why)) => why,
            (_, Some(_)) => RunLimit::Deadline,
            (Stop::Halted(_), None) => RunLimit::Halted,
            (_, None) => RunLimit::Drained,
        })
    }

    /// The slice loop. Returns `Ok(None)` once `stop` holds and
    /// `Ok(Some(why))` when the engine drained or halted, or `limit`
    /// passed, first. With nothing to check between slices it runs one
    /// unbounded slice.
    fn slices(
        &mut self,
        checks: &mut Checks<'_>,
        limit: SimTime,
        stop: Stop<'_>,
    ) -> Result<Option<RunLimit>, DeadlockReport> {
        let checked = checks.sampler.is_some() || checks.meter.is_some() || stop != Stop::Drained;
        let slice = if checked { checks.slice } else { SimTime::MAX };
        let mut last = checks.meter.as_ref().map(ProgressMeter::count);
        while self.now() < limit {
            let deadline = self.now().checked_add(slice).unwrap_or(SimTime::MAX);
            let why = self.engine.run_until(deadline.min(limit));
            if let Some(sampler) = &mut checks.sampler {
                sampler.sample(self, checks.slice);
            }
            let done = match stop {
                Stop::Drained => false,
                Stop::Quiescent => self.workload_done(),
                Stop::Halted(nodes) => nodes.iter().all(|n| self.node(n.raw()).halted()),
            };
            if done {
                return Ok(None);
            }
            if why != RunLimit::Deadline {
                return Ok(Some(why));
            }
            if let Some(meter) = &checks.meter {
                let count = meter.count();
                if last == Some(count) {
                    return Err(self.deadlock_report(self.now(), count));
                }
                last = Some(count);
            }
        }
        Ok(Some(RunLimit::Deadline))
    }
}

/// What [`Cluster::drive`] does between slices.
struct Checks<'a> {
    slice: SimTime,
    sampler: Option<Sampler<'a>>,
    meter: Option<ProgressMeter>,
}

/// Series handles and running totals of a sampled run.
struct Sampler<'a> {
    metrics: &'a mut MetricsRegistry,
    /// `fabric.bytes_total`, `.link_utilization` and `.credit_stall_us`.
    fabric: [SeriesId; 3],
    node_depth: Vec<SeriesId>,
    switch_depth: Vec<SeriesId>,
    /// Per directed link: utilization, FIFO depth and stall series.
    links: Vec<[SeriesId; 3]>,
    prev_link_bytes: Vec<u64>,
    prev_bytes: u64,
}

impl<'a> Sampler<'a> {
    fn new(c: &Cluster, metrics: &'a mut MetricsRegistry) -> Self {
        let mut series = |name: String| metrics.series(&name);
        let fabric = ["bytes_total", "link_utilization", "credit_stall_us"]
            .map(|leaf| series(metric::fabric_metric(leaf)));
        let node_depth = (0..c.n)
            .map(|i| series(metric::site_metric(node_site(i), "rx_fifo_depth")))
            .collect();
        let switch_depth = (0..c.switches.len())
            .map(|k| series(metric::site_metric(Site::Switch(k as u16), "fifo_depth")))
            .collect();
        let snapshots = c.link_snapshots();
        let links = snapshots
            .iter()
            .map(|l| {
                ["utilization", "fifo_depth", "stall_us"].map(|leaf| series(link_name(l, leaf)))
            })
            .collect();
        Sampler {
            metrics,
            fabric,
            node_depth,
            switch_depth,
            links,
            prev_link_bytes: snapshots.iter().map(|l| l.tx_bytes).collect(),
            prev_bytes: c.fabric_bytes(),
        }
    }

    fn sample(&mut self, c: &Cluster, interval: SimTime) {
        // Wire time of `bytes` over the interval.
        let utilization = |bytes: u64| {
            let bytes = bytes.min(u64::from(u32::MAX)) as u32;
            c.timing.serialize(bytes).as_us_f64() / interval.as_us_f64()
        };
        let at = c.now();
        let bytes = c.fabric_bytes();
        let util = utilization(bytes - self.prev_bytes);
        self.prev_bytes = bytes;
        let (nodes, switches) = c.occupancy();
        let mut stall = SimTime::ZERO;
        let depths = self.node_depth.iter().zip(&nodes);
        for (&series, o) in depths.chain(self.switch_depth.iter().zip(&switches)) {
            stall += o.stall;
            self.metrics.record(series, at, o.depth as f64);
        }
        let fabric = [bytes as f64, util, stall.as_us_f64()];
        for (series, value) in self.fabric.into_iter().zip(fabric) {
            self.metrics.record(series, at, value);
        }
        for (i, l) in c.link_snapshots().iter().enumerate() {
            let util = utilization(l.tx_bytes.saturating_sub(self.prev_link_bytes[i]));
            self.prev_link_bytes[i] = l.tx_bytes;
            let values = [util, f64::from(l.rx_fifo_depth), l.credit_stall.as_us_f64()];
            for (series, value) in self.links[i].into_iter().zip(values) {
                self.metrics.record(series, at, value);
            }
        }
    }

    /// Final high-water gauges, the per-node operation mix, and per-link
    /// and fabric-wide traffic and reliability totals.
    fn finish(self, c: &Cluster) {
        let m = self.metrics;
        let links = c.link_snapshots();
        let (nodes, switches) = c.occupancy();
        let mut gauge = |name: String, value: u32| {
            let g = m.gauge(&name);
            m.set_gauge(g, f64::from(value));
        };
        for (i, o) in (0..c.n).zip(&nodes) {
            let name = metric::site_metric(node_site(i), "rx_fifo_high_water");
            gauge(name, o.high_water);
        }
        for (k, o) in switches.iter().enumerate() {
            let name = metric::site_metric(Site::Switch(k as u16), "fifo_high_water");
            gauge(name, o.high_water);
        }
        // (Final link credit-stall totals live in the `.stall_us` series'
        // last sample; registering a same-named gauge would collide.)
        for l in &links {
            gauge(link_name(l, "fifo_high_water"), l.rx_fifo_high_water);
        }
        let mut count = |name: String, n: u64| {
            let id = m.counter(&name);
            m.inc(id, n);
        };
        for i in 0..c.n {
            let st = c.node(i).stats();
            let mix = [
                (OpKind::RemoteRead, st.remote_reads.count()),
                (OpKind::RemoteWrite, st.remote_writes.count()),
                (OpKind::LocalRead, st.local_reads.count()),
                (OpKind::LocalWrite, st.local_writes.count()),
                (OpKind::Atomic, st.atomics.count()),
                (OpKind::Copy, st.copies.count()),
                (OpKind::Send, st.sends.count()),
                (OpKind::Recv, st.recvs.count()),
            ];
            for (kind, n) in mix {
                count(metric::op_counter(node_site(i), kind), n);
            }
        }
        for l in &links {
            let totals = [
                ("tx_packets", l.tx_packets),
                ("tx_bytes", l.tx_bytes),
                ("retransmits", l.retransmits),
                ("retx_bytes", l.retx_bytes),
                ("resyncs", l.resyncs),
                ("resync_probes", l.resync_probes),
                ("rx_discards", l.rx_discards),
            ];
            for (leaf, n) in totals {
                count(link_name(l, leaf), n);
            }
        }
        // Reliability-layer counters (all zero on a lossless fabric).
        let mut rel = vec![
            ("retransmits", c.fabric_retransmits()),
            ("retx_bytes", c.fabric_retx_bytes()),
            ("credit_resyncs", c.fabric_resyncs()),
            ("credit_resync_probes", c.fabric_resync_probes()),
            ("rx_discards", c.fabric_rx_discards()),
            ("ctrl_discards", c.fabric_ctrl_discards()),
            ("link_errors", c.link_errors().len() as u64),
        ];
        if let Some(fs) = c.fault_stats() {
            rel.extend([
                ("frames_dropped", fs.drops + fs.outage_drops),
                ("frames_corrupted", fs.corrupts),
                ("credits_lost", fs.credits_lost),
                ("ctrl_dropped", fs.ctrl_drops),
                ("ctrl_corrupted", fs.ctrl_corrupts),
            ]);
        }
        for (leaf, n) in rel {
            count(metric::fabric_metric(leaf), n);
        }
    }
}

fn node_site(i: u16) -> Site {
    Site::Node(NodeId::new(i))
}

fn link_name(l: &PortSnapshot, leaf: &str) -> String {
    metric::link_metric(l.link.from, l.link.to, leaf)
}
