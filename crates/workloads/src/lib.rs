//! # tg-workloads — workload generators for the Telegraphos experiments
//!
//! Parameterized simulated applications exercising the access patterns the
//! paper's evaluation and motivation discuss: streaming remote writes
//! (§3.2), hot-page readers (§2.2.6), producer/consumer rounds (§2.2.7,
//! §2.3.6), migratory read-modify-write phases (§2.3.6), scattered
//! coherent writes for the counter-CAM sizing question (§2.3.4), and
//! message-passing round trips for the OS-trap baseline.
//!
//! Simple access streams are built as [`Script`](telegraphos::Script)s;
//! the reactive workloads
//! (handshake-driven producer/consumer, token-passing migratory phases)
//! implement [`Process`](telegraphos::Process) directly.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod phased;
mod scripts;
mod stencil;
mod trace;

pub use phased::{Consumer, Migratory, PcConfig, Producer};
pub use scripts::{
    bursty_scatter, hot_page_reader, message_ping, message_pong, stream_reads, stream_writes,
    uniform_mixed,
};
pub use stencil::{jacobi_reference, JacobiShared, JacobiWorker};
pub use trace::{synthetic_trace, TraceConfig};
