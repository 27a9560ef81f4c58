//! # tg-hib — the Telegraphos Host Interface Board
//!
//! The paper's §2.2 hardware, as a deterministic state machine:
//!
//! * **Remote writes** — non-blocking; latched off the (simulated)
//!   TurboChannel into a 64-deep transmit queue, acknowledged for the
//!   outstanding-operation counters. Bursts issue at bus speed until the
//!   queue fills, then at network speed — the §3.2 behaviour.
//! * **Remote reads** — blocking, one outstanding (footnote ¶).
//! * **Remote atomics** — fetch-and-store, fetch-and-increment,
//!   compare-and-swap, executed at the home board.
//! * **Remote copy** — non-blocking memory-to-memory streams (§2.2.2).
//! * **Special-operation launch** — both prototypes' mechanisms (§2.2.4):
//!   Telegraphos I's special mode + PAL sequence and Telegraphos II's
//!   contexts + keys + shadow addressing, selected by [`LaunchMode`].
//! * **Page-access counters** with alarm interrupts (§2.2.6).
//! * **Eager-update multicast** (§2.2.7) and the **owner-serialized,
//!   counter-filtered coherent update protocol** (§2.3), with the
//!   pending-write CAM from `tg-proto`.
//! * **FENCE** — completion detection over all outstanding operations
//!   (§2.3.5).
//!
//! The board is *passive*: a workstation component (in `telegraphos`) feeds
//! it CPU transactions and network events and implements [`HibHost`] for
//! its responses, which keeps every path unit-testable without an engine.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod hib;
mod host;
mod pagemode;
pub mod regs;

pub use config::{HibConfig, LaunchMode, LocalWritePolicy};
pub use hib::{Hib, HibStats};

pub use host::{
    CounterKind, CpuResult, HibFault, HibHost, HibInterrupt, HibTick, LoadOutcome, OpError,
    StoreOutcome,
};
pub use pagemode::{AccessCounters, PageMode, SharedMap};
