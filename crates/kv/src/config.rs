//! Service configuration and node-role layout.

use tg_sim::SimTime;
use tg_wire::NodeId;

/// Static configuration of a deployed KV service.
///
/// Node roles are positional: node 0 is the **directory** (it holds the
/// ownership page and is never a replica — the campaign never crashes
/// it), nodes `1..=replicas` are the **replica set**, and the next
/// `clients` nodes are the load generators.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// Replica-set size (nodes `1..=replicas`).
    pub replicas: u16,
    /// Number of client nodes (`replicas+1 ..`).
    pub clients: u16,
    /// Keys each client owns for writes (gets range over all keys).
    pub keys_per_client: u32,
    /// Requests each client issues (open-loop schedule length).
    pub requests_per_client: u32,
    /// Key ranges for ownership arbitration (homed round-robin).
    pub ranges: u32,
    /// Percentage of requests that are puts (rest are gets).
    pub write_ratio_pct: u32,
    /// Server admission bound: pending requests beyond this are shed
    /// with an explicit `Busy` ack instead of queueing.
    pub queue_cap: usize,
    /// `Busy` acks a client absorbs (with backoff) before resolving the
    /// request as [`Outcome::RejectedBusy`](crate::Outcome::RejectedBusy).
    pub busy_budget: u32,
    /// Timeouts against one target before the client suspects it and
    /// fails over.
    pub retries_per_target: u32,
    /// Total attempts across all targets before a request resolves as
    /// [`Outcome::FailedUnreachable`](crate::Outcome::FailedUnreachable).
    pub attempt_budget: u32,
    /// Initial request timeout before any RTT sample exists.
    pub rto_init: SimTime,
    /// Adaptive-timeout clamp floor.
    pub rto_min: SimTime,
    /// Adaptive-timeout clamp ceiling (also the per-retry backoff cap).
    pub rto_max: SimTime,
    /// Client ack-poll and server mailbox-sweep interval.
    pub poll_every: SimTime,
    /// Base inter-arrival gap of the open-loop schedule.
    pub arrival_gap: SimTime,
    /// Heavy-tail cap: gaps are `arrival_gap << k`, `P(k) = 2^-(k+1)`,
    /// `k` capped here — a capped power-of-two Pareto approximation that
    /// stays integer-deterministic.
    pub tail_shift_max: u32,
    /// Workload seed (each client forks its own stream from it).
    pub seed: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            replicas: 3,
            clients: 4,
            keys_per_client: 8,
            requests_per_client: 24,
            ranges: 6,
            write_ratio_pct: 70,
            queue_cap: 2,
            busy_budget: 8,
            retries_per_target: 3,
            attempt_budget: 30,
            rto_init: SimTime::from_us(60),
            rto_min: SimTime::from_us(20),
            rto_max: SimTime::from_ms(2),
            poll_every: SimTime::from_us(2),
            arrival_gap: SimTime::from_us(30),
            tail_shift_max: 6,
            seed: 0x5EED_4B5A,
        }
    }
}

impl KvConfig {
    /// Cluster size this deployment needs: directory + replicas + clients.
    pub fn nodes_required(&self) -> u16 {
        1 + self.replicas + self.clients
    }

    /// Total keys in the service (clients × keys each).
    pub(crate) fn total_keys(&self) -> u32 {
        u32::from(self.clients) * self.keys_per_client
    }

    /// The replica node ids, ascending.
    pub(crate) fn replica_nodes(&self) -> Vec<NodeId> {
        (1..=self.replicas).map(NodeId::new).collect()
    }

    /// The client node ids, ascending.
    pub(crate) fn client_nodes(&self) -> Vec<NodeId> {
        (self.replicas + 1..self.nodes_required())
            .map(NodeId::new)
            .collect()
    }

    /// Checks structural bounds: non-empty roles, the single-page layouts
    /// fit (mailbox slot per client, store word per key, 2 directory
    /// words per range), and the encodings' field widths hold.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.replicas == 0 {
            return Err("at least one replica required".into());
        }
        if self.clients == 0 {
            return Err("at least one client required".into());
        }
        if self.ranges == 0 {
            return Err("at least one key range required".into());
        }
        if self.keys_per_client == 0 || self.requests_per_client == 0 {
            return Err("keys_per_client and requests_per_client must be positive".into());
        }
        let words = u64::from(tg_wire::PAGE_BYTES as u32) / 8;
        if u64::from(self.total_keys()) > words {
            return Err(format!("{} keys exceed one store page", self.total_keys()));
        }
        if u64::from(self.clients) > words {
            return Err("more clients than mailbox slots".into());
        }
        if 2 * u64::from(self.ranges) > words {
            return Err("too many ranges for the directory page".into());
        }
        if u64::from(self.requests_per_client) >= (1 << crate::layout::REQ_BITS) {
            return Err("requests_per_client exceeds the request-id field".into());
        }
        if u64::from(self.total_keys()) >= (1 << crate::layout::KEY_BITS) {
            return Err("total keys exceed the key field".into());
        }
        if u64::from(self.attempt_budget) >= (1 << crate::layout::ATTEMPT_BITS) {
            return Err("attempt_budget exceeds the attempt field".into());
        }
        if self.write_ratio_pct > 100 {
            return Err("write_ratio_pct over 100".into());
        }
        if self.rto_min.is_zero() || self.rto_max < self.rto_min || self.poll_every.is_zero() {
            return Err("inverted or zero timeout configuration".into());
        }
        if self.arrival_gap.is_zero() {
            return Err("zero arrival gap".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_sized() {
        let c = KvConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.nodes_required(), 8);
        assert_eq!(c.total_keys(), 32);
        assert_eq!(c.replica_nodes().len(), 3);
        assert_eq!(c.client_nodes().first().map(|n| n.raw()), Some(4));
    }

    #[test]
    fn validation_rejects_oversized_layouts() {
        let too_many_keys = KvConfig {
            clients: 4,
            keys_per_client: 300,
            ..KvConfig::default()
        };
        assert!(too_many_keys.validate().is_err());
        let inverted = KvConfig {
            rto_min: SimTime::from_ms(5),
            rto_max: SimTime::from_us(10),
            ..KvConfig::default()
        };
        assert!(inverted.validate().is_err());
    }
}
