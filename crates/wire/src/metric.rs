//! Canonical metric-name convention shared by every layer.
//!
//! Before this module each layer invented its own spelling — the registry
//! had `fabric.link_utilization`, `NodeStats` had per-class op labels, the
//! switch exposed bare counters — and joining them required ad-hoc string
//! mapping in every consumer. The convention is now:
//!
//! | shape                       | meaning                                  |
//! |-----------------------------|------------------------------------------|
//! | `link.<a>-<b>.<metric>`     | one **directed** link hop from site `a` to site `b` |
//! | `<site>.<metric>`           | one site (`node3`, `switch0`)            |
//! | `fabric.<metric>`           | whole-cluster aggregate                  |
//!
//! Sites render exactly as [`Site`]'s `Display` does (`node3`, `switch0`),
//! so a name round-trips through [`parse_link_metric`] without a lookup
//! table. The stable per-link metric leaves are:
//!
//! * `utilization` — serialization time / window (0..=1)
//! * `fifo_depth` / `fifo_high_water` — receive FIFO occupancy at the `<b>`
//!   end of the link (packets)
//! * `stall_us` — cumulative credit-stall time at the `<a>` end (µs)
//! * `tx_packets` / `tx_bytes` — frames and bytes launched at `<a>`
//! * `retransmits` / `resyncs` / `resync_probes` — reliability-layer
//!   activity at `<a>`
//! * `rx_discards` — frames the `<b>` end's link layer rejected
//!   (checksum / sequence violations, duplicates)

use crate::trace::{OpKind, Site};
use crate::NodeId;

/// Name of a per-link metric: `link.<from>-<to>.<metric>`.
pub fn link_metric(from: Site, to: Site, metric: &str) -> String {
    format!("link.{from}-{to}.{metric}")
}

/// Name of a per-site metric: `<site>.<metric>`.
pub fn site_metric(site: Site, metric: &str) -> String {
    format!("{site}.{metric}")
}

/// Name of a cluster-wide metric: `fabric.<metric>`.
pub fn fabric_metric(metric: &str) -> String {
    format!("fabric.{metric}")
}

/// The canonical counter leaf for an op class, as a sampled `Cluster::drive`
/// records the per-node operation mix (`OpKind::RemoteWrite` →
/// `remote_writes`, so the full name is [`site_metric`]`(site,
/// op_counter_leaf(kind))`, e.g. `node3.remote_writes`). One mapping,
/// shared by the producer and every report consumer.
pub(crate) fn op_counter_leaf(kind: OpKind) -> &'static str {
    match kind {
        OpKind::RemoteRead => "remote_reads",
        OpKind::RemoteWrite => "remote_writes",
        OpKind::LocalRead => "local_reads",
        OpKind::LocalWrite => "local_writes",
        OpKind::Atomic => "atomics",
        OpKind::Copy => "copies",
        OpKind::Fence => "fences",
        OpKind::Send => "sends",
        OpKind::Recv => "recvs",
    }
}

/// Full canonical name of a per-site op-mix counter:
/// `<site>.<op_counter_leaf>`.
pub fn op_counter(site: Site, kind: OpKind) -> String {
    site_metric(site, op_counter_leaf(kind))
}

/// Parses one site label as [`Site`]'s `Display` renders it
/// (`node<n>` or `switch<s>`).
pub(crate) fn parse_site(s: &str) -> Option<Site> {
    if let Some(n) = s.strip_prefix("node") {
        return n.parse::<u16>().ok().map(|n| Site::Node(NodeId::new(n)));
    }
    if let Some(n) = s.strip_prefix("switch") {
        return n.parse::<u16>().ok().map(Site::Switch);
    }
    None
}

/// Splits a `link.<a>-<b>.<metric>` name back into its parts. Returns
/// `None` for names outside the link namespace or with malformed sites.
pub fn parse_link_metric(name: &str) -> Option<(Site, Site, &str)> {
    let rest = name.strip_prefix("link.")?;
    let (pair, metric) = rest.split_once('.')?;
    let (a, b) = pair.split_once('-')?;
    Some((parse_site(a)?, parse_site(b)?, metric))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_names_round_trip() {
        let from = Site::Node(NodeId::new(3));
        let to = Site::Switch(0);
        let name = link_metric(from, to, "utilization");
        assert_eq!(name, "link.node3-switch0.utilization");
        assert_eq!(parse_link_metric(&name), Some((from, to, "utilization")));
    }

    #[test]
    fn dotted_metric_leaves_survive() {
        let name = link_metric(Site::Switch(1), Site::Node(NodeId::new(9)), "stall.p99");
        let (a, b, leaf) = parse_link_metric(&name).unwrap();
        assert_eq!((a, b), (Site::Switch(1), Site::Node(NodeId::new(9))));
        assert_eq!(leaf, "stall.p99");
    }

    #[test]
    fn malformed_names_are_rejected() {
        assert_eq!(parse_link_metric("fabric.bytes_total"), None);
        assert_eq!(parse_link_metric("link.node1-node"), None);
        assert_eq!(parse_link_metric("link.node1.depth"), None);
        assert_eq!(parse_link_metric("link.host1-switch0.depth"), None);
        assert_eq!(parse_site("node"), None);
        assert_eq!(parse_site("switch99999"), None);
    }
}
