//! # tg-analyze — post-run analysis for the Telegraphos reproduction
//!
//! The simulation layers *record* (trace events, metric time series, port
//! counters); this crate *explains*. It consumes the artifacts a run
//! leaves behind and produces the three things the paper's §3.2-style
//! evaluation needs:
//!
//! * [`attrib`] — **critical-path latency attribution**: every traced
//!   operation's end-to-end latency decomposed into tx-queue / wire /
//!   switch-queue / credit-stall / retransmit / delivery segments per
//!   link, with the segments provably telescoping to the whole (the same
//!   invariant `telegraphos::observe::op_breakdowns` guarantees, here
//!   carried across request→response parent chains and attributed to
//!   fabric hops). Aggregates use [`tg_sim::LogHistogram`] percentiles
//!   with exemplar operations whose printed segments sum exactly.
//! * [`congestion`] — the **congestion observatory**: joins the
//!   `link.<a>-<b>.<metric>` time series and counters recorded by
//!   a sampled `Cluster::drive` into per-link usage summaries and a top-K
//!   "hottest links" report that names the saturated hop.
//! * [`report`] / [`gate`] — the **`tg-report-v2` JSON schema** shared by
//!   `tg report`, `tg fault` and `tg kv`, and the CI perf-regression
//!   gate that diffs a current report against a committed baseline with
//!   per-metric, direction-aware tolerances.
//!
//! Everything here is std-only, like the rest of the workspace: the JSON
//! reader/writer in [`report`] is a small recursive-descent parser, not a
//! dependency.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attrib;
pub mod congestion;
pub mod gate;
pub mod report;

pub use attrib::{
    attribute_ops, class_breakdown, exemplar_at, hop_breakdown, latency_histogram,
    AttributedSegment, OpAttribution, SegClass,
};
pub use congestion::{hottest_links, link_usage, LinkUsage};
pub use gate::{gate_reports, Direction, GateFailure, GateResult, Tolerances};
pub use report::{flatten, scale_matching, schema_accepted, Json, SCHEMA, SCHEMA_V1};
