//! E8: alarm-driven page replication (§2.2.6).

use std::fmt;

use telegraphos::{ClusterBuilder, ReplicatePolicy};
use tg_sim::SimTime;
use tg_workloads::hot_page_reader;

/// One policy measurement.
#[derive(Clone, Debug)]
pub struct ReplicationRow {
    /// Policy label.
    pub(crate) policy: String,
    /// Mean latency over all data reads (µs).
    pub mean_read_us: f64,
    /// Remote reads performed.
    pub remote_reads: u64,
    /// Local reads performed.
    pub(crate) local_reads: u64,
    /// Pages replicated.
    pub replications: u64,
    /// Workload completion (µs).
    pub(crate) total_us: f64,
}

/// Result of [`access_counter_replication`].
#[derive(Clone, Debug)]
pub struct ReplicationSweep {
    /// Static policies plus one row per alarm threshold.
    pub rows: Vec<ReplicationRow>,
}

/// E8: a hot-page reader under (a) never replicate, (b) alarm-based
/// replication at several thresholds — the §2.2.6 policy the paper's
/// companion studies (\[21, 22\]) evaluate.
pub fn access_counter_replication(reads: u64, thresholds: &[u16]) -> ReplicationSweep {
    let mut rows = Vec::new();
    rows.push(run(reads, None));
    for &t in thresholds {
        rows.push(run(reads, Some(t)));
    }
    ReplicationSweep { rows }
}

fn run(reads: u64, threshold: Option<u16>) -> ReplicationRow {
    let policy = match threshold {
        None => ReplicatePolicy::Never,
        Some(_) => ReplicatePolicy::OnAlarm,
    };
    let mut cluster = ClusterBuilder::new(2).replicate_policy(policy).build();
    let page = cluster.alloc_shared(1);
    if let Some(t) = threshold {
        cluster.arm_counters(0, &page, t, u16::MAX);
    }
    cluster.set_process(0, hot_page_reader(&page, reads, SimTime::from_us(20)));
    cluster.run();
    let stats = cluster.node(0).stats();
    let mut all_reads = stats.local_reads.clone();
    all_reads.merge(&stats.remote_reads);
    ReplicationRow {
        policy: match threshold {
            None => "never (always remote)".into(),
            Some(t) => format!("alarm at {t} accesses"),
        },
        mean_read_us: all_reads.mean(),
        remote_reads: stats.remote_reads.count(),
        local_reads: stats.local_reads.count(),
        replications: stats.replications,
        total_us: cluster.now().as_us_f64(),
    }
}

impl fmt::Display for ReplicationSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E8 / §2.2.6 — page-access counters and alarm-based replication"
        )?;
        writeln!(
            f,
            "{:<24} {:>10} {:>8} {:>8} {:>6} {:>12}",
            "policy", "read (us)", "remote", "local", "repl", "total (us)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<24} {:>10.2} {:>8} {:>8} {:>6} {:>12.1}",
                r.policy, r.mean_read_us, r.remote_reads, r.local_reads, r.replications, r.total_us
            )?;
        }
        Ok(())
    }
}
