//! The congestion observatory: per-link usage summaries and the top-K
//! "hottest links" report.
//!
//! A sampled `Cluster::drive` records, for every directed link, windowed time
//! series (`link.<a>-<b>.utilization`, `.fifo_depth`, `.stall_us`), final
//! counters (`.tx_packets`, `.tx_bytes`, `.retransmits`, `.resyncs`,
//! `.resync_probes`, `.rx_discards`) and a `.fifo_high_water` gauge — all
//! under the canonical [`tg_wire::metric`] naming convention. This module
//! joins them back into one [`LinkUsage`] per link with *no ad-hoc string
//! mapping*: every name is split by [`tg_wire::metric::parse_link_metric`].

use std::collections::HashMap;

use tg_sim::MetricsRegistry;
use tg_wire::metric::parse_link_metric;
use tg_wire::trace::Site;

/// Joined per-directed-link usage summary.
#[derive(Clone, Debug, Default)]
pub struct LinkUsage {
    /// Rendered `"<a>-<b>"` link name (e.g. `node3-switch0`).
    pub name: String,
    /// Mean of the windowed utilization samples (0..=1).
    pub mean_utilization: f64,
    /// Peak windowed utilization (0..=1).
    pub peak_utilization: f64,
    /// Peak sampled receive-FIFO depth at the `<b>` end (packets).
    pub peak_fifo_depth: f64,
    /// High-water mark of the receive FIFO over the whole run (packets).
    pub fifo_high_water: f64,
    /// Cumulative credit-stall time at the `<a>` end (µs).
    pub stall_us: f64,
    /// Frames launched at `<a>`.
    pub tx_packets: u64,
    /// Bytes launched at `<a>`.
    pub tx_bytes: u64,
    /// Timeout-driven relaunches at `<a>`.
    pub retransmits: u64,
    /// Completed credit resynchronizations at `<a>`.
    pub(crate) resyncs: u64,
    /// Frames the `<b>` end's link layer rejected.
    pub rx_discards: u64,
}

impl LinkUsage {
    /// Saturation score used to rank links: mean utilization dominates,
    /// stall time breaks ties among equally-busy links (a link can be
    /// fully utilized without anyone queueing behind it — stall is the
    /// *harm* signal).
    pub(crate) fn score(&self) -> f64 {
        self.mean_utilization + self.stall_us / 1e6 + self.peak_fifo_depth / 1e9
    }
}

/// Joins every `link.<a>-<b>.<metric>` instrument in the registry into
/// one [`LinkUsage`] per directed link, in first-registration order
/// (deterministic across runs: the sampler registers links in fabric
/// order).
pub fn link_usage(metrics: &MetricsRegistry) -> Vec<LinkUsage> {
    let mut order: Vec<String> = Vec::new();
    let mut by_link: HashMap<String, LinkUsage> = HashMap::new();
    let slot = |order: &mut Vec<String>,
                by_link: &mut HashMap<String, LinkUsage>,
                a: Site,
                b: Site|
     -> String {
        let name = format!("{a}-{b}");
        if !by_link.contains_key(&name) {
            order.push(name.clone());
            by_link.insert(
                name.clone(),
                LinkUsage {
                    name: name.clone(),
                    ..LinkUsage::default()
                },
            );
        }
        name
    };

    for (name, samples) in metrics.all_series() {
        let Some((a, b, leaf)) = parse_link_metric(name) else {
            continue;
        };
        let key = slot(&mut order, &mut by_link, a, b);
        let u = by_link.get_mut(&key).expect("just inserted");
        match leaf {
            "utilization" if !samples.is_empty() => {
                let sum: f64 = samples.iter().map(|s| s.value).sum();
                u.mean_utilization = sum / samples.len() as f64;
                u.peak_utilization = samples.iter().map(|s| s.value).fold(0.0, f64::max);
            }
            "fifo_depth" => {
                u.peak_fifo_depth = samples.iter().map(|s| s.value).fold(0.0, f64::max);
            }
            "stall_us" => {
                u.stall_us = samples.last().map(|s| s.value).unwrap_or(0.0);
            }
            _ => {}
        }
    }
    for (name, value) in metrics.counters() {
        let Some((a, b, leaf)) = parse_link_metric(name) else {
            continue;
        };
        let key = slot(&mut order, &mut by_link, a, b);
        let u = by_link.get_mut(&key).expect("just inserted");
        match leaf {
            "tx_packets" => u.tx_packets = value,
            "tx_bytes" => u.tx_bytes = value,
            "retransmits" => u.retransmits = value,
            "resyncs" => u.resyncs = value,
            "rx_discards" => u.rx_discards = value,
            _ => {}
        }
    }
    for (name, _, max) in metrics.gauges() {
        let Some((a, b, leaf)) = parse_link_metric(name) else {
            continue;
        };
        if leaf == "fifo_high_water" {
            let key = slot(&mut order, &mut by_link, a, b);
            by_link
                .get_mut(&key)
                .expect("just inserted")
                .fifo_high_water = max;
        }
    }

    order
        .into_iter()
        .map(|name| by_link.remove(&name).expect("indexed"))
        .collect()
}

/// The `k` most saturated links, hottest first. Deterministic: ties in
/// `LinkUsage::score` are broken by link name.
pub fn hottest_links(usage: &[LinkUsage], k: usize) -> Vec<LinkUsage> {
    let mut ranked: Vec<LinkUsage> = usage.to_vec();
    ranked.sort_by(|x, y| {
        y.score()
            .total_cmp(&x.score())
            .then_with(|| x.name.cmp(&y.name))
    });
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_sim::SimTime;
    use tg_wire::metric::link_metric;
    use tg_wire::NodeId;

    #[test]
    fn joins_series_counters_and_gauges_per_link() {
        let mut m = MetricsRegistry::new();
        let a = Site::Node(NodeId::new(0));
        let s = Site::Switch(0);
        let util = m.series(&link_metric(a, s, "utilization"));
        let depth = m.series(&link_metric(s, a, "fifo_depth"));
        let stall = m.series(&link_metric(a, s, "stall_us"));
        m.record(util, SimTime::from_us(1), 0.5);
        m.record(util, SimTime::from_us(2), 1.0);
        m.record(depth, SimTime::from_us(1), 3.0);
        m.record(stall, SimTime::from_us(2), 42.0);
        let c = m.counter(&link_metric(a, s, "tx_packets"));
        m.inc(c, 7);
        let g = m.gauge(&link_metric(a, s, "fifo_high_water"));
        m.set_gauge(g, 5.0);
        m.set_gauge(g, 2.0);

        let usage = link_usage(&m);
        assert_eq!(usage.len(), 2);
        let fwd = usage.iter().find(|u| u.name == "node0-switch0").unwrap();
        assert!((fwd.mean_utilization - 0.75).abs() < 1e-12);
        assert_eq!(fwd.peak_utilization, 1.0);
        assert_eq!(fwd.stall_us, 42.0);
        assert_eq!(fwd.tx_packets, 7);
        assert_eq!(fwd.fifo_high_water, 5.0);
        let rev = usage.iter().find(|u| u.name == "switch0-node0").unwrap();
        assert_eq!(rev.peak_fifo_depth, 3.0);
    }

    #[test]
    fn hottest_links_rank_deterministically() {
        let mk = |name: &str, util: f64, stall: f64| LinkUsage {
            name: name.to_string(),
            mean_utilization: util,
            stall_us: stall,
            ..LinkUsage::default()
        };
        let usage = vec![
            mk("node0-switch0", 0.2, 0.0),
            mk("switch0-node3", 0.9, 10.0),
            mk("switch0-node1", 0.9, 10.0),
        ];
        let top = hottest_links(&usage, 2);
        assert_eq!(top.len(), 2);
        // Equal scores: lexicographic tie-break.
        assert_eq!(top[0].name, "switch0-node1");
        assert_eq!(top[1].name, "switch0-node3");
    }
}
