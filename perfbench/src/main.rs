//! `perfbench` — the repository benchmark: fixed simulated work, timed on
//! the host, with outputs checked on every run.
//!
//! ```text
//! perfbench --workload <stencil64|stencil16_lossy|kv> [--seed N]
//!           [--seconds S] [--trace 0|1] [--shrink K]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures the per-layer metrics: exact counters, the layer
//! ladder, and one traced run fed through the attribution pipeline.
//! `--shrink K` divides the workload's iterations or requests by `K`, for
//! quick runs; the benchmark size is `K = 1`. Every host timing is
//! bracketed by passes of a fixed calibration loop (`calib.rs`) and
//! reported at a reference host speed. Every metric is printed by
//! name with its unit, and the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` beside this crate for what each metric means.

mod alloc;
mod calib;
mod ladder;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use telegraphos::TraceCollector;
use tg_analyze::{attribute_ops, class_breakdown};
use workload::{Counters, Spec, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Extra cluster builds timed before each sample, so `setup_s` draws on
/// many builds spread over the whole run.
const SETUP_REPS: usize = 10;
/// Fewest timed samples a run takes, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;
/// Times each ladder rung is run.
const LADDER_REPS: usize = 9;
/// Calibration passes run between two timed pieces of work.
const CAL_PASSES: usize = 3;
/// Host seconds one calibration pass takes at the reference speed: about
/// its time on a 2-vCPU Xeon VM at 2.0 GHz. Every host timing is reported
/// at this speed, `measured × REFERENCE_PASS_S / pass time measured
/// around it`, which cancels drift in the host's speed.
const REFERENCE_PASS_S: f64 = 0.1;

struct Args {
    spec: Spec,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut shrink = 1;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--shrink" => shrink = value.parse::<u32>().map_err(|_| bad())?.max(1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        spec: Spec {
            workload,
            seed: seed.unwrap_or(workload.default_seed()),
            shrink,
        },
        seconds,
        trace,
    })
}

/// One deploy-and-run of the workload.
struct Sample {
    run_s: f64,
    /// Heap allocations made while the simulation ran.
    allocs: u64,
    counters: Counters,
}

fn sample(spec: &Spec, trace: bool) -> Result<(Sample, Option<TraceCollector>), String> {
    let mut deployed = spec.deploy();
    let collector = trace.then(|| deployed.cluster.enable_tracing());
    let allocs_before = alloc::count();
    let t = Instant::now();
    let outcome = deployed.run();
    let run_s = t.elapsed().as_secs_f64();
    let allocs = alloc::count() - allocs_before;
    let counters = deployed.check(outcome)?;
    Ok((
        Sample {
            run_s,
            allocs,
            counters,
        },
        collector,
    ))
}

/// Fails unless `b` repeats `a`'s simulator counters exactly.
fn same_counters(a: &Counters, b: &Counters) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "exact counters differ between samples:\n  {a:?}\n  {b:?}"
        ))
    }
}

/// An untraced sample that must repeat `first` exactly: its simulator
/// counters and its heap allocation count.
fn repeat_sample(spec: &Spec, first: &Sample) -> Result<Sample, String> {
    let (s, _) = sample(spec, false)?;
    same_counters(&first.counters, &s.counters)?;
    if s.allocs != first.allocs {
        return Err(format!(
            "allocation count differs between samples: {} vs {}",
            first.allocs, s.allocs
        ));
    }
    Ok(s)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    let i = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[i - 1]
}

/// The host's speed around one piece of timed work, read from the
/// calibration passes run just before and just after it.
#[derive(Clone, Copy)]
struct Calibration {
    /// Mean host seconds of one calibration pass, before and after.
    pass_s: f64,
}

impl Calibration {
    /// Factor that turns host seconds measured under this calibration
    /// into seconds at the reference speed.
    fn scale(self) -> f64 {
        REFERENCE_PASS_S / self.pass_s
    }
}

/// Calibration passes chained between timed pieces of work: each piece
/// is read against the passes just before and just after it, and the
/// passes after one piece are the passes before the next.
struct Yardstick {
    /// Mean pass time of the latest set of passes.
    last_s: f64,
}

impl Yardstick {
    fn new() -> Self {
        Yardstick {
            last_s: Self::passes(),
        }
    }

    /// Mean host seconds of one pass, over `CAL_PASSES` passes.
    fn passes() -> f64 {
        (0..CAL_PASSES).map(|_| calib::time()).sum::<f64>() / CAL_PASSES as f64
    }

    /// Runs `work`, then the next set of passes.
    fn measure<T>(
        &mut self,
        work: impl FnOnce() -> Result<T, String>,
    ) -> Result<(T, Calibration), String> {
        let out = work()?;
        let next = Self::passes();
        let pass_s = (self.last_s + next) / 2.0;
        self.last_s = next;
        Ok((out, Calibration { pass_s }))
    }
}

/// Interquartile range as a share of the median.
fn spread(xs: &[f64]) -> f64 {
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

/// Named metrics with units, in emission order.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }

    fn tally(&mut self, counters: &Counters) {
        self.attempted += counters.attempted;
        self.failed += counters.failed;
    }

    /// Prints the human table, then the result line.
    fn print(&self, correct: bool) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The untraced run: `run_s`, `setup_s`, `peak_heap_mb`, `sim_us`.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let spec = &args.spec;
    let start = Instant::now();
    let mut report = Report::default();
    // The first sample warms caches and lazy state: checked, not timed.
    let (first, _) = sample(spec, false)?;
    report.tally(&first.counters);
    // Read before the calibration passes add their own heap.
    let peak_heap = alloc::peak_bytes();
    let (mut runs, mut setups, mut raw_runs, mut cals) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut yardstick = Yardstick::new();
    while runs.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < args.seconds {
        let (builds, build_cal) = yardstick.measure(|| {
            // Untimed: re-warms the heap the calibration passes churned.
            drop(spec.deploy());
            Ok((0..SETUP_REPS)
                .map(|_| {
                    let t = Instant::now();
                    let deployed = spec.deploy();
                    let elapsed = t.elapsed().as_secs_f64();
                    drop(deployed);
                    elapsed
                })
                .collect::<Vec<f64>>())
        })?;
        let (s, cal) = yardstick.measure(|| repeat_sample(spec, &first))?;
        report.tally(&s.counters);
        runs.push(s.run_s * cal.scale());
        setups.extend(builds.iter().map(|b| b * build_cal.scale()));
        raw_runs.push(s.run_s);
        cals.push(cal.pass_s);
    }
    eprintln!(
        "{}: {} samples; calibration pass median {:.4}s (IQR/median {:.3}); \
         raw run median {:.4}s (IQR/median {:.3}); at reference speed: \
         run_s median {:.4} (IQR/median {:.3}), setup_s median {:.6} \
         (IQR/median {:.3}) over {} builds",
        spec.workload.name(),
        runs.len(),
        median(&cals),
        spread(&cals),
        median(&raw_runs),
        spread(&raw_runs),
        median(&runs),
        spread(&runs),
        median(&setups),
        spread(&setups),
        setups.len()
    );
    report.put("run_s", median(&runs), "s");
    report.put("setup_s", median(&setups), "s");
    report.put("peak_heap_mb", peak_heap as f64 / (1024.0 * 1024.0), "MiB");
    report.put("sim_us", first.counters.sim_ps as f64 / 1e6, "sim-us");
    Ok(report)
}

/// The per-layer run: exact counters, the layer ladder, host cost per
/// unit of work, and one traced run through the attribution pipeline.
fn per_layer(args: &Args) -> Result<Report, String> {
    let spec = &args.spec;
    let start = Instant::now();
    let mut report = Report::default();

    let mut walls: [Vec<f64>; 5] = Default::default();
    let mut works = [ladder::RungWork::default(); 5];
    let mut yardstick = Yardstick::new();
    for rep in 0..LADDER_REPS {
        let (rungs, cal) = yardstick.measure(|| {
            Ok((0..ladder::RUNGS.len())
                .map(|k| ladder::time(k, u64::from(spec.shrink)))
                .collect::<Vec<_>>())
        })?;
        for (k, (wall, work)) in rungs.into_iter().enumerate() {
            if rep > 0 && work != works[k] {
                return Err(format!(
                    "ladder rung {} did different work",
                    ladder::RUNGS[k]
                ));
            }
            works[k] = work;
            walls[k].push(wall * cal.scale());
        }
    }
    for (k, rung) in ladder::RUNGS.iter().enumerate() {
        eprintln!(
            "ladder {rung:<12} median {:.4}s at reference speed (IQR/median {:.3}); {:?}",
            median(&walls[k]),
            spread(&walls[k]),
            works[k]
        );
    }
    let costs = ladder::costs(walls.each_ref().map(|w| median(w)), works);

    let (first, _) = sample(spec, false)?;
    report.tally(&first.counters);
    let (mut plain, mut raw_plain, mut overheads, mut cals) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut probe_events = None;
    let mut attribution = Vec::new();
    while plain.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < args.seconds {
        let (s, cal) = yardstick.measure(|| repeat_sample(spec, &first))?;
        // Timed against the plain sample beside it, not the calibration.
        let ((t, collector), _) = yardstick.measure(|| sample(spec, true))?;
        report.tally(&s.counters);
        plain.push(s.run_s * cal.scale());
        raw_plain.push(s.run_s);
        cals.push(cal.pass_s);

        // Probes observe; they must not change what is simulated.
        same_counters(&first.counters, &t.counters)?;
        report.tally(&t.counters);
        overheads.push(t.run_s / s.run_s);
        let collector = collector.expect("traced sample has a collector");
        let events = collector.packet_event_count() + collector.op_event_count();
        match probe_events {
            Some(n) if n != events => {
                return Err(format!(
                    "probe events differ between traced samples: {n} vs {events}"
                ))
            }
            Some(_) => {}
            None => {
                probe_events = Some(events);
                let attribs = attribute_ops(&collector.op_events(), &collector.packet_events());
                attribution = class_breakdown(&attribs);
            }
        }
    }

    let c = &first.counters;
    let run_s = median(&plain);
    report.count("sim.events", c.events);
    report.put(
        "sim.ns_per_event",
        run_s * 1e9 / c.events as f64,
        "ns/event",
    );
    report.count("sim.peak_queue", c.peak_queue);
    report.put(
        "sim.allocs_per_event",
        ratio(first.allocs, c.events),
        "allocs/event",
    );
    report.put("sim.ladder_ns_per_event", costs.ns_per_event, "ns/event");

    report.count("net.packets", c.packets);
    report.put(
        "net.switch_event_frac",
        ratio(c.switch_events, c.events),
        "ratio",
    );
    report.put(
        "net.credit_stall_us",
        c.credit_stall_ps as f64 / 1e6,
        "sim-us",
    );
    report.count("net.fifo_hwm", c.fifo_hwm);
    report.put("net.ladder_ns_per_hop", costs.ns_per_hop, "ns/hop");

    report.count("rel.retransmits", c.retransmits);
    report.put("rel.retx_bytes", c.retx_bytes as f64, "bytes");
    report.count("rel.ctrl_discards", c.ctrl_discards);
    report.put(
        "rel.goodput_frac",
        ratio(c.tx_frames - c.retransmits, c.tx_frames),
        "ratio",
    );
    report.put("rel.ladder_ns_per_frame", costs.ns_per_frame, "ns/frame");
    report.put("rel.ladder_ns_per_retx", costs.ns_per_retx, "ns/retx");

    report.count("node.remote_writes", c.remote_writes);
    report.count("node.remote_reads", c.remote_reads);
    report.count("node.atomics", c.atomics);
    report.count("node.fences", c.fences);
    report.put("node.atomic_us", c.atomic_us, "sim-us");
    report.put("node.fence_us", c.fence_us, "sim-us");
    report.put(
        "node.ladder_ns_per_remote_op",
        costs.ns_per_remote_op,
        "ns/op",
    );
    report.put("fail_frac", ratio(c.failed, c.attempted), "ratio");

    let kv = c.kv.clone();
    let kv_count = |f: fn(&workload::KvCounters) -> u64| kv.as_ref().map_or(0, f);
    let requests = kv_count(|k| k.requests);
    report.put(
        "kv.events_per_request",
        if requests == 0 {
            0.0
        } else {
            ratio(c.events, requests)
        },
        "events/req",
    );
    report.put(
        "kv.host_us_per_request",
        if requests == 0 {
            0.0
        } else {
            run_s * 1e6 / requests as f64
        },
        "us/req",
    );
    report.count("kv.timeouts", kv_count(|k| k.timeouts));
    report.count("kv.busy_acks", kv_count(|k| k.busy_acks));
    report.count("kv.stale_acks", kv_count(|k| k.stale_acks));
    report.count("kv.dir_refreshes", kv_count(|k| k.dir_refreshes));
    report.count("kv.dedup_hits", kv_count(|k| k.dedup_hits));
    let fresh = kv_count(|k| k.fresh_applies);
    report.put(
        "kv.fresh_frac",
        ratio(fresh, fresh + kv_count(|k| k.dedup_hits)),
        "ratio",
    );
    report.put("kv.p50_us", kv_count(|k| k.p50_ns) as f64 / 1e3, "sim-us");
    report.put("kv.p99_us", kv_count(|k| k.p99_ns) as f64 / 1e3, "sim-us");

    report.put("trace.overhead_x", median(&overheads), "x");
    report.count("trace.probe_events", probe_events.unwrap_or(0) as u64);
    for (class, total) in attribution {
        let name = format!("attr.{}_us", class.label().replace('-', "_"));
        report.put(&name, total.as_ps() as f64 / 1e6, "sim-us");
    }

    report.put("host.run_s_raw", median(&raw_plain), "s");
    report.put("host.run_s_iqr_frac", spread(&plain), "ratio");
    report.put("host.calib_pass_s", median(&cals), "s");
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <stencil64|stencil16_lossy|kv> [--seed N] \
                 [--seconds S] [--trace 0|1] [--shrink K]"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(report) => {
            report.print(true);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} failed its checks: {e}",
                args.spec.workload.name()
            );
            Report::default().print(false);
            ExitCode::FAILURE
        }
    }
}
