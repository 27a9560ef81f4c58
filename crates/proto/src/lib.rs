//! # tg-proto — update-coherence protocol logic
//!
//! The paper's central correctness contribution is the *owner-serialized,
//! counter-filtered* update protocol of §2.3.3: all updates to a replicated
//! page are serialized through its owner, writers apply their stores locally
//! at once, and a small counter per outstanding write lets each node ignore
//! exactly the incoming updates that are older than its own pending stores.
//! The result (§2.4): every node observes a *subsequence of the owner's
//! serialization* — never an invalid sequence like Galactica Net's "1,2,1".
//!
//! This crate implements that logic in three layers:
//!
//! * [`PendingCam`] — the content-addressable counter cache of §2.3.4,
//!   reused by `tg-hib` as the hardware CAM;
//! * recorders and checkers (`SeqRecorder`, `is_subsequence`,
//!   `revisit_anomalies`) that the protocol simulators use to verify
//!   sequence validity and convergence;
//! * abstract, timing-free simulators of three protocols over an in-order
//!   channel network with adversarial (seeded-random) interleaving:
//!   [`naive::NaiveMulticast`] (Figure 2's inconsistency),
//!   [`owner::OwnerSerialized`] (the paper's protocol), and
//!   [`galactica::GalacticaRing`] (the §2.4 baseline).
//!
//! The full-system versions — with real switches, HIBs and timing — live in
//! `tg-hib` and `telegraphos`; the abstract ones here let property tests
//! explore millions of interleavings cheaply.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod abstract_net;
mod cam;
pub mod galactica;
pub mod naive;
pub mod owner;
pub(crate) mod ranges;
mod recorder;
mod scenario;

pub use cam::PendingCam;
pub use ranges::RangeMap;
pub use scenario::{Outcome, Scenario, ScriptedWrite};
