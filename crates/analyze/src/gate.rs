//! The CI perf-regression gate: diff a current report against a
//! committed baseline with per-metric, direction-aware tolerances.
//!
//! Both documents are [`flatten`]ed to dotted numeric paths
//! (`latency.remote-write.p99_ns`, `stencil_16.events_per_sec`, …), then
//! each baseline metric is compared under the direction its name
//! implies:
//!
//! * **higher is better** (`*_per_sec`, `*throughput*`) — fail when the
//!   current value drops more than the tolerance below the baseline;
//! * **lower is better** (`*_us`/`*_ns` latencies, `p50`/`p99`/`p999`
//!   tails, `drops`/`retransmits`/`stall`/`discards` counters) — fail
//!   when it rises more than the tolerance above;
//! * **two-sided** (everything else: event counts, bytes moved) — fail
//!   when it moves in either direction.
//!
//! Simulated-time reports are fully deterministic, so their natural
//! tolerance is `0.0`; wall-clock benchmark numbers get loose per-metric
//! overrides. A metric present in the baseline but missing from the
//! current report always fails (a silently vanished metric is how
//! regressions hide).

use crate::report::{flatten, Json};

/// Which way a metric is allowed to move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Direction {
    /// Larger values are improvements (throughput).
    HigherBetter,
    /// Smaller values are improvements (latency, loss, stall).
    LowerBetter,
    /// Any drift beyond tolerance is suspicious (structural counts).
    TwoSided,
}

/// Infers a metric's direction from its canonical name.
pub(crate) fn direction_of(name: &str) -> Direction {
    let leaf = name.rsplit('.').next().unwrap_or(name);
    if leaf.ends_with("_per_sec") || leaf.contains("throughput") {
        return Direction::HigherBetter;
    }
    let lower_markers = [
        "_us",
        "_ns",
        "_ms",
        "p50",
        "p99",
        "p999",
        "drops",
        "dropped",
        "retransmits",
        "stall",
        "discards",
        "latency",
        "wall_seconds",
        "high_water",
        "depth",
    ];
    if lower_markers.iter().any(|m| leaf.contains(m)) {
        return Direction::LowerBetter;
    }
    Direction::TwoSided
}

/// Tolerance configuration: a default relative tolerance plus per-metric
/// overrides (longest matching suffix/exact path wins) and skip
/// patterns (substring match) for metrics that must not be gated at all.
#[derive(Clone, Debug)]
pub struct Tolerances {
    /// Relative tolerance applied when no override matches (e.g. `0.0`
    /// for deterministic simulated-time reports, `0.08` for 8%).
    pub default_rel: f64,
    /// `(pattern, tolerance)` overrides; a pattern matches a metric path
    /// equal to it or ending in `.<pattern>`.
    pub per_metric: Vec<(String, f64)>,
    /// Substring patterns for metrics to exclude from gating entirely
    /// (machine-dependent wall-clock numbers).
    pub skip: Vec<String>,
}

impl Tolerances {
    /// Exact gate for deterministic reports.
    pub fn exact() -> Tolerances {
        Tolerances {
            default_rel: 0.0,
            per_metric: Vec::new(),
            skip: Vec::new(),
        }
    }

    /// The tolerance in effect for `name`, or `None` when skipped.
    pub(crate) fn for_metric(&self, name: &str) -> Option<f64> {
        if self.skip.iter().any(|p| name.contains(p.as_str())) {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for (pattern, tol) in &self.per_metric {
            let hit = name == pattern || name.ends_with(&format!(".{pattern}"));
            if hit && best.map(|(len, _)| pattern.len() > len).unwrap_or(true) {
                best = Some((pattern.len(), *tol));
            }
        }
        Some(best.map(|(_, t)| t).unwrap_or(self.default_rel))
    }
}

/// One gated metric that moved beyond its tolerance (or vanished).
#[derive(Clone, Debug)]
pub struct GateFailure {
    /// Flattened metric path.
    pub(crate) metric: String,
    /// Baseline value.
    pub(crate) baseline: f64,
    /// Current value (`None` when the metric disappeared).
    pub(crate) current: Option<f64>,
    /// Tolerance that was in effect.
    pub(crate) tolerance: f64,
    /// Direction the metric was judged under.
    pub(crate) direction: Direction,
}

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.current {
            None => write!(f, "{}: missing (baseline {})", self.metric, self.baseline),
            Some(cur) => {
                let change = if self.baseline != 0.0 {
                    format!("{:+.1}%", (cur - self.baseline) / self.baseline * 100.0)
                } else {
                    format!("{cur:+}")
                };
                write!(
                    f,
                    "{}: {} -> {} ({}, tol {:.1}%, {:?})",
                    self.metric,
                    self.baseline,
                    cur,
                    change,
                    self.tolerance * 100.0,
                    self.direction
                )
            }
        }
    }
}

/// Outcome of gating one current report against one baseline.
#[derive(Clone, Debug, Default)]
pub struct GateResult {
    /// Metrics compared (baseline metrics not skipped).
    pub checked: usize,
    /// Every metric that regressed beyond tolerance.
    pub failures: Vec<GateFailure>,
    /// Metrics in the current report absent from the baseline —
    /// informational (new metrics are fine; the baseline wants
    /// refreshing).
    pub new_metrics: Vec<String>,
}

impl GateResult {
    /// True when nothing regressed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Is `cur` within `tol` of `base`, judged under `dir`?
fn within(base: f64, cur: f64, tol: f64, dir: Direction) -> bool {
    // Relative slack; a zero baseline leaves no relative room, so any
    // increase of a lower-better metric from 0 (new drops, new stall)
    // fails unless the tolerance explicitly allows an absolute margin —
    // `tol` doubles as the absolute slack there.
    let slack = if base != 0.0 { tol * base.abs() } else { tol };
    match dir {
        Direction::HigherBetter => cur >= base - slack,
        Direction::LowerBetter => cur <= base + slack,
        Direction::TwoSided => (cur - base).abs() <= slack,
    }
}

/// Diffs `current` against `baseline` under the given tolerances.
pub fn gate_reports(baseline: &Json, current: &Json, tol: &Tolerances) -> GateResult {
    let base_flat = flatten(baseline);
    let cur_flat = flatten(current);
    let cur_map: std::collections::HashMap<&str, f64> = cur_flat
        .iter()
        .map(|(name, value)| (name.as_str(), *value))
        .collect();

    let mut result = GateResult::default();
    for (name, base) in &base_flat {
        let Some(metric_tol) = tol.for_metric(name) else {
            continue;
        };
        result.checked += 1;
        let dir = direction_of(name);
        match cur_map.get(name.as_str()) {
            None => result.failures.push(GateFailure {
                metric: name.clone(),
                baseline: *base,
                current: None,
                tolerance: metric_tol,
                direction: dir,
            }),
            Some(&cur) => {
                if !within(*base, cur, metric_tol, dir) {
                    result.failures.push(GateFailure {
                        metric: name.clone(),
                        baseline: *base,
                        current: Some(cur),
                        tolerance: metric_tol,
                        direction: dir,
                    });
                }
            }
        }
    }
    let base_names: std::collections::HashSet<&str> =
        base_flat.iter().map(|(n, _)| n.as_str()).collect();
    for (name, _) in &cur_flat {
        if !base_names.contains(name.as_str()) {
            result.new_metrics.push(name.clone());
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(pairs: &[(&str, f64)]) -> Json {
        let mut o = Json::obj();
        for (k, v) in pairs {
            o.set(k, Json::Num(*v));
        }
        o
    }

    #[test]
    fn directions_are_inferred_from_names() {
        assert_eq!(
            direction_of("stencil_16.events_per_sec"),
            Direction::HigherBetter
        );
        assert_eq!(
            direction_of("latency.remote-write.p99_ns"),
            Direction::LowerBetter
        );
        assert_eq!(
            direction_of("metrics.fabric.retransmits"),
            Direction::LowerBetter
        );
        assert_eq!(
            direction_of("metrics.fabric.bytes_total"),
            Direction::TwoSided
        );
    }

    #[test]
    fn throughput_regression_beyond_tolerance_fails() {
        let base = doc(&[("bench.events_per_sec", 1000.0)]);
        let tol = Tolerances {
            default_rel: 0.08,
            per_metric: Vec::new(),
            skip: Vec::new(),
        };
        // 10% drop vs 8% tolerance: fail.
        let r = gate_reports(&base, &doc(&[("bench.events_per_sec", 900.0)]), &tol);
        assert!(!r.passed());
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].metric, "bench.events_per_sec");
        // 5% drop: pass. 20% *gain*: also pass (higher is better).
        assert!(gate_reports(&base, &doc(&[("bench.events_per_sec", 950.0)]), &tol).passed());
        assert!(gate_reports(&base, &doc(&[("bench.events_per_sec", 1200.0)]), &tol).passed());
    }

    #[test]
    fn tail_latency_regression_fails_and_improvement_passes() {
        let base = doc(&[("latency.send.p99_ns", 800.0)]);
        let tol = Tolerances {
            default_rel: 0.05,
            per_metric: Vec::new(),
            skip: Vec::new(),
        };
        assert!(!gate_reports(&base, &doc(&[("latency.send.p99_ns", 900.0)]), &tol).passed());
        assert!(gate_reports(&base, &doc(&[("latency.send.p99_ns", 600.0)]), &tol).passed());
    }

    #[test]
    fn missing_metrics_fail_and_new_metrics_inform() {
        let base = doc(&[("a.p99_ns", 1.0)]);
        let cur = doc(&[("b.p99_ns", 1.0)]);
        let r = gate_reports(&base, &cur, &Tolerances::exact());
        assert!(!r.passed());
        assert!(r.failures[0].current.is_none());
        assert_eq!(r.new_metrics, vec!["b.p99_ns".to_string()]);
    }

    /// Reader tolerance across the v1 → v2 schema bump: a v1 baseline
    /// (no p999 fields) gates cleanly against a v2 report whose extra
    /// p999 metrics surface as informational `new_metrics`, and both
    /// schema tags are accepted.
    #[test]
    fn v1_field_set_gates_cleanly_against_a_v2_report() {
        use crate::report::{schema_accepted, SCHEMA, SCHEMA_V1};
        assert!(schema_accepted(SCHEMA));
        assert!(schema_accepted(SCHEMA_V1));
        assert!(!schema_accepted("tg-report-v0"));
        let base = doc(&[
            ("campaign.crash.gbn.detect_p50_us", 140.0),
            ("campaign.crash.gbn.detect_p99_us", 150.0),
        ]);
        let cur = doc(&[
            ("campaign.crash.gbn.detect_p50_us", 140.0),
            ("campaign.crash.gbn.detect_p99_us", 150.0),
            ("campaign.crash.gbn.detect_p999_us", 155.0),
        ]);
        let r = gate_reports(&base, &cur, &Tolerances::exact());
        assert!(r.passed(), "failures: {:?}", r.failures);
        assert_eq!(
            r.new_metrics,
            vec!["campaign.crash.gbn.detect_p999_us".to_string()]
        );
    }

    #[test]
    fn overrides_and_skips_apply() {
        let base = doc(&[
            ("bench.events_per_sec", 1000.0),
            ("bench.wall_seconds", 1.0),
        ]);
        let cur = doc(&[
            ("bench.events_per_sec", 500.0),
            ("bench.wall_seconds", 50.0),
        ]);
        let tol = Tolerances {
            default_rel: 0.0,
            per_metric: vec![("events_per_sec".to_string(), 3.0)],
            skip: vec!["wall_seconds".to_string()],
        };
        // events_per_sec halved but tolerance is 300%; wall_seconds skipped.
        let r = gate_reports(&base, &cur, &tol);
        assert!(r.passed(), "failures: {:?}", r.failures);
        assert_eq!(r.checked, 1);
    }

    #[test]
    fn zero_baseline_lower_better_rejects_any_increase() {
        let base = doc(&[("metrics.fabric.drops", 0.0)]);
        let cur = doc(&[("metrics.fabric.drops", 1.0)]);
        assert!(!gate_reports(&base, &cur, &Tolerances::exact()).passed());
    }
}
