//! A small counters/gauges/time-series registry for simulation metrics.
//!
//! The engine's [`EngineStats`](crate::EngineStats) and per-component
//! counters describe the *scheduler*; this registry is for the *simulated
//! hardware*: link utilization, FIFO depths, credit-stall time, per-node
//! operation mixes. Instruments are named once (get-or-create by name) and
//! then updated through cheap integer ids, so hot paths never hash or
//! allocate.
//!
//! Three instrument kinds:
//!
//! - **counter** — a monotonically increasing `u64` (packets forwarded,
//!   picoseconds stalled).
//! - **gauge** — a last-written `f64` with a tracked maximum (current
//!   queue depth, utilization).
//! - **series** — `(SimTime, f64)` samples appended by a periodic
//!   sampler, for post-run plotting and export.
//!
//! Iteration order is registration order everywhere, keeping reports and
//! exported JSON deterministic across runs.

use std::collections::HashMap;
use std::fmt;

use crate::time::SimTime;

/// Handle of a registered counter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CounterId(usize);

/// Handle of a registered gauge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GaugeId(usize);

/// Handle of a registered time series.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SeriesId(usize);

/// One time-series observation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Sample {
    /// Simulated instant of the observation.
    pub at: SimTime,
    /// Observed value.
    pub value: f64,
}

#[derive(Debug)]
struct Gauge {
    value: f64,
    max: f64,
}

/// The registry: named counters (monotone `u64`), gauges (last-written
/// `f64` with a tracked maximum) and time series (`(SimTime, f64)`
/// samples). Instruments are registered once by name and then updated
/// through integer ids; every iteration follows registration order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counter_names: Vec<Box<str>>,
    counters: Vec<u64>,
    gauge_names: Vec<Box<str>>,
    gauges: Vec<Gauge>,
    series_names: Vec<Box<str>>,
    series: Vec<Vec<Sample>>,
    lookup: HashMap<Box<str>, Instrument>,
}

/// What a name resolves to (each namespace is separate per kind, but one
/// name may only be used for one kind — re-registering as another kind
/// panics, catching copy-paste mistakes early).
#[derive(Clone, Copy, Debug)]
enum Instrument {
    Counter(usize),
    Gauge(usize),
    Series(usize),
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument kind.
    pub fn counter(&mut self, name: &str) -> CounterId {
        match self.lookup.get(name) {
            Some(Instrument::Counter(i)) => CounterId(*i),
            Some(other) => panic!("metric {name:?} already registered as {other:?}"),
            None => {
                let i = self.counters.len();
                self.counter_names.push(name.into());
                self.counters.push(0);
                self.lookup.insert(name.into(), Instrument::Counter(i));
                CounterId(i)
            }
        }
    }

    /// Adds `delta` to a counter.
    pub fn inc(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0] += delta;
    }

    /// Gets or creates the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument kind.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        match self.lookup.get(name) {
            Some(Instrument::Gauge(i)) => GaugeId(*i),
            Some(other) => panic!("metric {name:?} already registered as {other:?}"),
            None => {
                let i = self.gauges.len();
                self.gauge_names.push(name.into());
                self.gauges.push(Gauge {
                    value: 0.0,
                    max: f64::NEG_INFINITY,
                });
                self.lookup.insert(name.into(), Instrument::Gauge(i));
                GaugeId(i)
            }
        }
    }

    /// Sets a gauge's current value (its maximum is tracked automatically).
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        let g = &mut self.gauges[id.0];
        g.value = value;
        if value > g.max {
            g.max = value;
        }
    }

    /// Gets or creates the time series named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument kind.
    pub fn series(&mut self, name: &str) -> SeriesId {
        match self.lookup.get(name) {
            Some(Instrument::Series(i)) => SeriesId(*i),
            Some(other) => panic!("metric {name:?} already registered as {other:?}"),
            None => {
                let i = self.series.len();
                self.series_names.push(name.into());
                self.series.push(Vec::new());
                self.lookup.insert(name.into(), Instrument::Series(i));
                SeriesId(i)
            }
        }
    }

    /// Appends one sample to a series.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last recorded sample — the
    /// sampler drives forward in simulated time, so a regression is a bug.
    pub fn record(&mut self, id: SeriesId, at: SimTime, value: f64) {
        let s = &mut self.series[id.0];
        if let Some(last) = s.last() {
            assert!(at >= last.at, "series sample time went backwards");
        }
        s.push(Sample { at, value });
    }

    /// All counters as `(name, value)`, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names
            .iter()
            .map(|n| &**n)
            .zip(self.counters.iter().copied())
    }

    /// All gauges as `(name, last, max)`, in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64, f64)> {
        self.gauge_names
            .iter()
            .zip(self.gauges.iter())
            .map(|(n, g)| {
                let max = if g.max == f64::NEG_INFINITY {
                    0.0
                } else {
                    g.max
                };
                (&**n, g.value, max)
            })
    }

    /// All series as `(name, samples)`, in registration order.
    pub fn all_series(&self) -> impl Iterator<Item = (&str, &[Sample])> {
        self.series_names
            .iter()
            .zip(self.series.iter())
            .map(|(n, s)| (&**n, s.as_slice()))
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in self.counters() {
            writeln!(f, "counter {name} = {v}")?;
        }
        for (name, v, max) in self.gauges() {
            writeln!(f, "gauge   {name} = {v} (max {max})")?;
        }
        for (name, s) in self.all_series() {
            writeln!(f, "series  {name}: {} samples", s.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_and_accumulate() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("fabric.packets");
        let a2 = m.counter("fabric.packets");
        assert_eq!(a, a2, "same name, same id");
        m.inc(a, 3);
        m.inc(a2, 4);
        assert_eq!(
            m.counters().collect::<Vec<_>>(),
            vec![("fabric.packets", 7)]
        );
    }

    #[test]
    fn gauges_track_last_and_max() {
        let mut m = MetricsRegistry::new();
        let g = m.gauge("fifo.depth");
        assert_eq!(
            m.gauges().collect::<Vec<_>>(),
            vec![("fifo.depth", 0.0, 0.0)]
        );
        m.set_gauge(g, 4.0);
        m.set_gauge(g, 9.0);
        m.set_gauge(g, 2.0);
        assert_eq!(
            m.gauges().collect::<Vec<_>>(),
            vec![("fifo.depth", 2.0, 9.0)]
        );
    }

    #[test]
    fn series_append_in_time_order() {
        let mut m = MetricsRegistry::new();
        let s = m.series("link.util");
        m.record(s, SimTime::from_ns(10), 0.5);
        m.record(s, SimTime::from_ns(10), 0.6); // equal instants allowed
        m.record(s, SimTime::from_ns(20), 0.7);
        let (name, samples) = m.all_series().next().unwrap();
        assert_eq!(name, "link.util");
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[2].at, SimTime::from_ns(20));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn series_reject_time_regressions() {
        let mut m = MetricsRegistry::new();
        let s = m.series("x");
        m.record(s, SimTime::from_ns(10), 1.0);
        m.record(s, SimTime::from_ns(5), 2.0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_panics() {
        let mut m = MetricsRegistry::new();
        m.counter("x");
        m.gauge("x");
    }

    #[test]
    fn iteration_is_registration_order() {
        let mut m = MetricsRegistry::new();
        m.counter("b");
        m.counter("a");
        m.gauge("z");
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
        let rendered = m.to_string();
        assert!(rendered.contains("counter b = 0"));
        assert!(rendered.contains("gauge   z = 0"));
    }
}
