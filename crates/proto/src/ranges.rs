//! Key-range ownership for the replicated KV service.
//!
//! `tg-kv` partitions its key space into fixed ranges, each homed on one
//! replica of a small replica set. This module is the *pure* ownership
//! logic — deterministic range hashing, the home assignment, and the
//! failover rule — factored out of the service so the client, the server,
//! and the crash-campaign audits all compute ownership the same way.
//!
//! The failover rule matches the rest of the stack (VSM copyset
//! promotion, [`crate::owner::OwnerFailover`]): when a range's owner is
//! convicted, ownership settles on the **smallest-id live replica**.
//! Smallest-id is not arbitrary: every survivor can evaluate it locally
//! from its own liveness verdicts, without coordination, and two
//! survivors with the same verdicts agree on the successor — which is
//! what lets retries re-route without a leader election.

use tg_wire::NodeId;

/// A static partition of the KV key space over a replica set.
///
/// Ranges are `key % ranges` (keys are already client-scrambled in the
/// campaign workloads, so modulo is as good as a hash and keeps the
/// mapping auditable by hand). Range `r` is homed on replica
/// `replicas[r % replicas.len()]`, spreading primaries round-robin.
#[derive(Clone, Debug)]
pub struct RangeMap {
    ranges: u32,
    replicas: Vec<NodeId>,
}

impl RangeMap {
    /// A map of `ranges` key ranges over `replicas` (sorted ascending
    /// internally; duplicates removed).
    ///
    /// # Panics
    ///
    /// Panics if `ranges` is zero or `replicas` is empty.
    pub fn new(ranges: u32, replicas: &[NodeId]) -> Self {
        assert!(ranges > 0, "a RangeMap needs at least one range");
        assert!(
            !replicas.is_empty(),
            "a RangeMap needs at least one replica"
        );
        let mut replicas = replicas.to_vec();
        replicas.sort();
        replicas.dedup();
        RangeMap { ranges, replicas }
    }

    /// Number of key ranges.
    pub fn ranges(&self) -> u32 {
        self.ranges
    }

    /// The range `key` falls in.
    pub fn range_of(&self, key: u64) -> u32 {
        (key % u64::from(self.ranges)) as u32
    }

    /// The range's *home* replica — its owner while alive.
    pub fn home_of(&self, range: u32) -> NodeId {
        assert!(range < self.ranges, "range {range} out of bounds");
        self.replicas[range as usize % self.replicas.len()]
    }

    /// The failover successor rule by itself: the smallest-id live
    /// replica, or `None` when the whole set is dead.
    pub fn promote(&self, live: impl Fn(NodeId) -> bool) -> Option<NodeId> {
        self.replicas.iter().copied().find(|&r| live(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u16]) -> Vec<NodeId> {
        raw.iter().map(|&n| NodeId::new(n)).collect()
    }

    #[test]
    fn homes_spread_round_robin_over_sorted_deduped_replicas() {
        // Given unsorted with a duplicate: canonicalized to [1, 2, 3].
        let m = RangeMap::new(6, &ids(&[3, 1, 2, 1]));
        let homes: Vec<u16> = (0..6).map(|r| m.home_of(r).raw()).collect();
        assert_eq!(homes, vec![1, 2, 3, 1, 2, 3]);
        assert_eq!(m.range_of(7), 1);
        assert_eq!(m.range_of(12), 0);
    }
}
