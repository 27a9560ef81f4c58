//! # telegraphos — the cluster model and user-level shared-memory API
//!
//! The top of the reproduction stack: simulated DEC-Alpha-class
//! workstations (CPU + MMU + private memory + exported shared segment +
//! Host Interface Board + OS layer) wired through the `tg-net` switch
//! fabric, exposing the paper's programming model:
//!
//! * user-level **remote writes** triggered by plain stores to window
//!   addresses, **blocking remote reads**, **remote atomics** and
//!   **non-blocking remote copy** launched by the §2.2.4 instruction
//!   sequences (PAL special mode or contexts + shadow addressing);
//! * **FENCE** and fence-embedding locks/barriers ([`sync`]);
//! * **eager-update multicast** pages and **owner-serialized coherent
//!   replication** (§2.3), set up by the privileged [`Cluster`] API exactly
//!   like the paper's "initialization phase that maps the shared pages";
//! * the software baselines the paper argues against: a page-fault-driven
//!   **VSM** (invalidate) protocol and **OS-trap message passing**.
//!
//! # Quickstart
//!
//! ```
//! use telegraphos::{Action, ClusterBuilder, Script};
//!
//! // Two workstations on one switch — the paper's §3.2 testbed.
//! let mut cluster = ClusterBuilder::new(2).build();
//! let page = cluster.alloc_shared(1); // physically on node 1
//!
//! // Node 0 stores into node 1's memory with a single store instruction,
//! // then reads it back across the network.
//! cluster.set_process(
//!     0,
//!     Script::new(vec![
//!         Action::Write(page.va(0), 7),
//!         Action::Fence,
//!         Action::Read(page.va(0)),
//!     ]),
//! );
//! cluster.run();
//! assert_eq!(cluster.read_shared(&page, 0), 7);
//! let stats = cluster.node(0).stats();
//! // Remote writes cost well under a microsecond; reads several (§3.2).
//! assert!(stats.remote_writes.mean() < 1.0);
//! assert!(stats.remote_reads.mean() > 2.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod event;
mod node;
pub mod observe;
mod os;
pub mod pager;
mod process;
mod stats;
pub mod sync;
pub mod vsm;

pub use cluster::{
    Cluster, ClusterBuilder, ComponentDetail, ComponentReport, DeadlockReport, Drive, SharedPage,
    StalledNode, Stop, PAGED_VA_BASE, PRIVATE_VA_BASE, SHARED_VA_BASE,
};
pub use event::ClusterEvent;
pub use node::Node;
pub use observe::{OpBreakdown, Segment, TraceCollector};
pub use os::{Os, OsEffect, ReplicatePolicy};
pub use pager::{Backing, RemotePager};
pub use process::{Action, Process, Resume, Script};
pub use stats::NodeStats;

// Fault-injection and reliability vocabulary, re-exported so experiments
// and binaries need only this crate.
pub use tg_hib::OpError;
pub use tg_net::{
    CrashWindow, DetectParams, FaultPlan, FaultStats, LinkError, LinkId, PortSnapshot, RelParams,
    RetxMode, StalledLink, Topology,
};
