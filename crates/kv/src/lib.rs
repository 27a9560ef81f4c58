//! A replicated key-value service built on the Telegraphos primitives.
//!
//! This crate is the paper's "what the hardware buys you" argument run
//! end-to-end: a small replicated KV service whose *entire* data path is
//! the fabric's user-level memory operations — no OS messaging, no
//! sockets:
//!
//! - **Requests** ride posted remote writes into per-replica mailbox
//!   pages (the paper's cheap user-level communication).
//! - **Replication** is the eager-update multicast of shared pages: a
//!   committed put is one local store that the hardware fans out to the
//!   replica set, fenced before the ack (§ eager sharing).
//! - **Ownership** is arbitrated with remote fetch-and-Φ atomics on a
//!   directory page (§2.3.4), so racing clients converge on one owner
//!   per key range without a lock server.
//!
//! On top of that data path sits the *robustness layer* this crate
//! exists to measure, with every mechanism scoped to what a real
//! workstation cluster of the era could do: per-request adaptive
//! deadlines (Jacobson/Karn in integer picoseconds), bounded
//! exponential-backoff retries that re-route on structural failure
//! signals, idempotent request ids with exact duplicate suppression,
//! directory-published failover driven by the heartbeat detector's
//! verdicts, and explicit admission control at the servers.
//!
//! The crash campaign (`tg kv`) drives the service through crash,
//! crash+restart, switch-outage, and control-plane-fault scenarios and
//! audits the logs for the service-level contract: **no acknowledged
//! write is ever lost, no retried request is ever applied twice**, and
//! the whole run replays byte-identically from the same seed.

#![warn(missing_docs)]

pub mod audit;
pub mod client;
pub mod config;
pub mod layout;
pub mod server;
pub mod service;

pub use audit::{audit, fingerprint, AuditReport};
pub use client::KvClient;
pub use config::KvConfig;
pub use layout::{
    dec_ack, dec_req, enc_ack, enc_req, value_of, AckCode, AckWord, OpKindKv, ReqWord,
};
pub use server::KvServer;
pub use service::{
    deploy, drive, ApplyEvent, ClientLog, KvHandles, KvPages, Outcome, RequestRecord, ServerLog,
};
