//! # tg-wire — shared vocabulary of the simulated Telegraphos cluster
//!
//! Pure data types exchanged between the subsystem crates: node identifiers,
//! the shared-segment address geometry (8 KB Alpha pages, 64-bit words), the
//! wire-message protocol spoken between Host Interface Boards, network
//! packets with their size model, the cluster-wide timing calibration, and
//! the packet-lifecycle trace log every layer records into.
//!
//! Nothing in this crate has behaviour beyond encoding/decoding, size
//! arithmetic and appending to the trace log; the state machines live in
//! `tg-net`, `tg-hib`, `tg-proto` and `telegraphos`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod ctrl;
mod ids;
pub mod metric;
mod msg;
mod payload;
mod timing;
pub mod trace;

pub use addr::{GOffset, PageNum, PAGE_BYTES, PAGE_SHIFT, PAGE_WORDS, WORD_BYTES};
pub use ctrl::{CtrlFrame, CtrlMsg, Notice};
pub use ids::NodeId;
pub use msg::{AtomicOp, Fnv1a, IntHasher, IntMap, Packet, WireMsg};
pub use payload::{Payload, PayloadPool};
pub use timing::TimingConfig;
pub use trace::{OpEvent, OpKind, PacketEvent, Site, Stage, TraceCollector, TraceId, Tracer};
