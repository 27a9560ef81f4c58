//! Online summary statistics and histograms for experiment reporting.

use std::fmt;

/// Streaming mean/variance/extrema accumulator (Welford's algorithm),
/// used by the benchmark harness to summarize per-operation latencies.
///
/// # Example
///
/// ```
/// use tg_sim::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.add(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty accumulator.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two samples).
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub(crate) fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (+inf when empty).
    pub(crate) fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (-inf when empty).
    pub(crate) fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.stddev(),
            self.min(),
            self.max()
        )
    }
}

/// An HDR-style log-bucketed histogram over `u64` values with bounded
/// relative error, for tail-latency percentiles (p50/p99/p999) over wide
/// dynamic ranges — picosecond latencies span six orders of magnitude in
/// one run, which linear buckets cannot cover without either losing the
/// tail or burning memory.
///
/// Values up to `2^sub_bits` are recorded exactly; beyond that, each
/// power-of-two octave is split into `2^(sub_bits-1)` linear sub-buckets,
/// so any recorded value is off by at most a factor of `1 + 2^-(sub_bits-1)`
/// (under 1% at the default precision). Memory is a flat `Vec<u64>` grown
/// lazily to the highest bucket touched.
///
/// # Example
///
/// ```
/// use tg_sim::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.quantile(1.0), 1000);
/// let p50 = h.quantile(0.50);
/// assert!((495..=505).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    /// Sub-bucket precision: values below `1 << sub_bits` are exact.
    sub_bits: u32,
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

/// Default precision: exact below 256, ≤ 0.8% relative error above.
const LOG_HIST_DEFAULT_SUB_BITS: u32 = 8;

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// A histogram at the default precision (exact below 256, under 1%
    /// relative error above).
    pub fn new() -> Self {
        LogHistogram::with_precision(LOG_HIST_DEFAULT_SUB_BITS)
    }

    /// A histogram with `sub_bits` bits of sub-bucket precision: values
    /// below `1 << sub_bits` are exact, larger values carry at most
    /// `2^-(sub_bits-1)` relative error.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= sub_bits <= 16`.
    pub(crate) fn with_precision(sub_bits: u32) -> Self {
        assert!((2..=16).contains(&sub_bits), "sub_bits out of range");
        LogHistogram {
            sub_bits,
            counts: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index holding `v`.
    fn index_of(&self, v: u64) -> usize {
        let sb = self.sub_bits;
        if v < 1 << sb {
            return v as usize;
        }
        // 2^k <= v < 2^(k+1), k >= sub_bits; the octave is split into
        // 2^(sb-1) linear sub-buckets of width 2^(k-sb+1).
        let k = 63 - v.leading_zeros();
        let sub = (v - (1 << k)) >> (k - sb + 1);
        ((1u64 << sb) + u64::from(k - sb) * (1 << (sb - 1)) + sub) as usize
    }

    /// Inclusive upper edge of bucket `idx` — the value [`quantile`]
    /// reports for samples that landed there.
    ///
    /// [`quantile`]: LogHistogram::quantile
    fn upper_edge(&self, idx: usize) -> u64 {
        let sb = self.sub_bits;
        let idx = idx as u64;
        if idx < 1 << sb {
            return idx;
        }
        let r = idx - (1 << sb);
        let k = sb + (r >> (sb - 1)) as u32;
        if k >= 64 {
            return u64::MAX;
        }
        let sub = r & ((1 << (sb - 1)) - 1);
        let width = 1u128 << (k - sb + 1);
        let edge = (1u128 << k) + (u128::from(sub) + 1) * width - 1;
        edge.min(u128::from(u64::MAX)) as u64
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`.
    pub(crate) fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the recorded values (0.0 when empty), exact —
    /// the sum is kept alongside the buckets.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (0..=1): the upper edge of the bucket
    /// holding the `ceil(q * count)`-th smallest sample, clamped to the
    /// recorded maximum so `quantile(1.0) == max()`. Returns 0 when the
    /// histogram is empty or `q` is 0.
    pub fn quantile(&self, q: f64) -> u64 {
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        if target == 0 {
            return 0;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= target {
                return self.upper_edge(idx).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = Summary::new();
        for &x in &data {
            s.add(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_sane() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn summary_merge_equals_combined() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.add(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &data[..37] {
            left.add(x);
        }
        for &x in &data[37..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.add(3.0);
        let b = Summary::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Summary::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 3.0);
    }

    #[test]
    fn log_histogram_exact_region() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 200, 255] {
            h.record(v);
        }
        // Every value below 2^sub_bits sits in its own bucket, so the
        // quantile walk reports it exactly.
        assert_eq!(h.quantile(1.0 / 6.0), 0);
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(1.0), 255);
    }

    #[test]
    fn log_histogram_quantiles_within_relative_error() {
        // Deterministic pseudo-random values across six orders of magnitude.
        let mut rng = crate::SimRng::new(0xC0FFEE);
        let mut values: Vec<u64> = (0..10_000).map(|_| 1 + rng.range(10_000_000)).collect();
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.50, 0.90, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            // The report is the bucket's upper edge: never below the exact
            // sample, and within the precision's relative-error bound.
            assert!(got >= exact, "q{q}: {got} < exact {exact}");
            assert!(
                got <= exact * (1.0 + 1.0 / 128.0) + 1.0,
                "q{q}: {got} too far above exact {exact}"
            );
        }
        assert_eq!(h.count(), 10_000);
        let exact_mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        assert!((h.mean() - exact_mean).abs() < 1e-6, "mean is kept exactly");
    }

    #[test]
    fn log_histogram_empty_and_extremes() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);

        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record_n(0, 3);
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.75), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn log_histogram_bucket_mapping_round_trips() {
        let h = LogHistogram::new();
        let mut rng = crate::SimRng::new(99);
        for _ in 0..10_000 {
            let v = rng.range(u64::MAX);
            let idx = h.index_of(v);
            let edge = h.upper_edge(idx);
            assert!(edge >= v, "upper edge below the value itself");
            // Monotone: the next bucket's edge is strictly larger, except
            // at the saturated top of the range where both clamp to MAX.
            if edge < u64::MAX {
                assert!(h.upper_edge(idx + 1) > edge);
            }
        }
    }
}
