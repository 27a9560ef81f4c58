//! `tg` — the Telegraphos simulator's command-line tool.
//!
//! ```text
//! tg trace  [pingpong|stencil] [--out FILE] [--metrics] [--interval-us U]
//!           [--check] [--quiet] [HARNESS FLAGS]
//! tg report [stencil16|pingpong] [--out FILE] [--perfetto FILE] [--top K]
//!           [--interval-us U] [--quiet] [HARNESS FLAGS]
//! tg gate   --baseline FILE --current FILE [--default-tol R]
//!           [--tol PATTERN=R]... [--skip PATTERN]...
//! tg fault  [--seeds N] [--sweep-seeds N] [--report FILE]
//! tg kv     [--seeds N] [--requests N] [--report FILE]
//! ```
//!
//! The harness flags shape the cluster `trace` and `report` run: node
//! count, link reliability and retransmit discipline, seeded frame and
//! control-frame faults, crash and switch-outage windows. One parser,
//! [`HarnessOptions::parse`], reads and documents them. A bad argument or
//! a failed check ends any subcommand with a one-line message on stderr
//! and exit status 1.
//!
//! Dependency-free by design (hand-rolled argv and JSON) so it builds in
//! offline/vendored environments.

mod fault;
mod kv;
mod report;
mod trace;

use std::num::NonZeroU64;
use std::process::ExitCode;

use telegraphos::{Cluster, TraceCollector};
use telegraphos_suite::harness::{self, Args, HarnessOptions};
use tg_analyze::{Json, SCHEMA};
use tg_sim::{MetricsRegistry, SimTime};

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().unwrap_or_default();
    let args = Args::new(argv);
    let result = match sub.as_str() {
        "trace" => trace::main(args),
        "report" => report::main(args),
        "gate" => report::gate(args),
        "fault" => fault::main(args),
        "kv" => kv::main(args),
        _ => Err("expected a subcommand: trace, report, gate, fault or kv".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tg {sub}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A workload `trace` and `report` can run.
struct Workload {
    /// Its name on the command line and in the output.
    name: &'static str,
    /// Jacobi sweeps for the stencil; `None` runs the ring ping-pong.
    stencil_iters: Option<u32>,
    /// Cluster size when `--nodes` is absent.
    nodes: u16,
}

/// The ring ping-pong, which `trace` and `report` both run on 4 nodes.
const PINGPONG: Workload = Workload {
    name: "pingpong",
    stencil_iters: None,
    nodes: 4,
};

/// One traced harness run, as `trace` and `report` read it from the
/// command line.
struct Run {
    workload: &'static Workload,
    opts: HarnessOptions,
    out: String,
    interval_us: NonZeroU64,
    quiet: bool,
}

impl Run {
    /// Takes `--out FILE` (default `out`), `--interval-us U` (default 1),
    /// `--quiet`, a workload name from `workloads` (the first is the
    /// default; it also sets the default `--nodes`) and the harness flags.
    fn parse(args: &mut Args, workloads: &'static [Workload], out: &str) -> Result<Run, String> {
        let out = args.value("--out")?.unwrap_or_else(|| out.to_string());
        let interval_us = args.value("--interval-us")?.unwrap_or(NonZeroU64::MIN);
        let quiet = args.switch("--quiet");
        let workload = workloads
            .iter()
            .find(|w| args.switch(w.name))
            .unwrap_or(&workloads[0]);
        let opts = HarnessOptions {
            nodes: workload.nodes,
            ..HarnessOptions::default()
        };
        Ok(Run {
            workload,
            opts: opts.parse(args)?,
            out,
            interval_us,
            quiet,
        })
    }

    /// Builds the workload, runs it with tracing on (and congestion
    /// metrics sampled every `--interval-us` when `sampled`), then checks
    /// the stencil against its sequential reference. Under a crash-stop
    /// plan only the survivors' strips are checkable, so the stencil
    /// check is skipped there.
    fn execute(&self, sampled: bool) -> Result<(Cluster, TraceCollector, MetricsRegistry), String> {
        let (mut cluster, check) = match self.workload.stencil_iters {
            Some(iters) => {
                let (cluster, check) = harness::build_stencil(&self.opts, 8, iters);
                (cluster, Some(check))
            }
            None => (harness::build_pingpong(&self.opts), None),
        };
        let collector = cluster.enable_tracing();
        let mut metrics = MetricsRegistry::new();
        let interval = SimTime::from_us(self.interval_us.get());
        let sampling = sampled.then_some((interval, &mut metrics));
        if !harness::run_cluster(&mut cluster, &self.opts, sampling) {
            return Err("workload deadlocked".to_string());
        }
        if let Some(check) = check.filter(|_| !self.opts.any_crash()) {
            harness::verify_stencil(&cluster, &check)?;
        }
        Ok((cluster, collector, metrics))
    }
}

/// Writes a `tg-report-v2` document to `path`: the schema tag, `name`,
/// then `fields` in order.
fn write_report(
    path: &str,
    name: &str,
    fields: impl IntoIterator<Item = (&'static str, Json)>,
) -> Result<(), String> {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str(SCHEMA.to_string()));
    doc.set("name", Json::Str(name.to_string()));
    for (key, value) in fields {
        doc.set(key, value);
    }
    std::fs::write(path, doc.to_string_pretty()).map_err(|e| format!("write {path}: {e}"))
}
