//! # tg-bench — the experiment harness
//!
//! One runner per experiment in DESIGN.md's index (E1–E10). Each runner
//! builds the cluster(s), executes the workload, and returns a structured
//! result with a `Display` that prints the paper-style table including the
//! paper's reference numbers where they exist. The `benches/` targets are
//! thin wrappers (`harness = false`) so `cargo bench` regenerates every
//! table and figure; the repository tests assert the *shapes* (who wins,
//! rough factors) on the same runners.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coherence;
pub(crate) mod micro;
pub(crate) mod replication;
pub(crate) mod scale;

pub use coherence::{
    cam_sweep, fig2_inconsistency, galactica_anomaly, trace_driven, update_vs_invalidate,
    write_policy_ablation,
};
pub use micro::{basic_latency, batch_writes, fence_consistency, messaging_comparison, table1};
pub use replication::access_counter_replication;
pub use scale::{
    hop_scaling, incast_congestion, lock_contention, multiprogramming_overlap, remote_paging,
};
