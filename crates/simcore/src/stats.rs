//! Online statistics used by the metrics pipeline.
//!
//! Fig. 7 of the paper reports "the mean and standard deviation of [the
//! percentage of local tasks] in each workload"; Figs. 8–10 report averages
//! of completion times and scheduler delays. [`Welford`] provides the
//! numerically stable mean/variance estimator, [`Summary`] retains samples
//! for exact percentiles, and [`Histogram`] buckets values for distribution
//! displays.

/// Numerically stable online mean / variance (Welford's algorithm).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance; 0.0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
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
        *self = Welford { n, mean, m2 };
    }
}

/// A sample-retaining summary supporting exact percentiles, min/max, mean
/// and standard deviation. Suitable for the sample counts this reproduction
/// produces (thousands of jobs/tasks per run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
    welford: Welford,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation. Non-finite values are rejected with a panic —
    /// they always indicate a modelling bug upstream.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample: {x}");
        self.samples.push(x);
        self.sorted = false;
        self.welford.push(x);
    }

    /// Extends with many observations.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        self.welford.mean()
    }

    /// Population standard deviation; 0.0 when empty.
    pub fn std_dev(&self) -> f64 {
        self.welford.std_dev()
    }

    /// Minimum; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Maximum; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Exact percentile via nearest-rank on the sorted samples;
    /// `q` in `[0, 1]`. `None` when empty.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "percentile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples")); // lint: allow(panic) — samples are finite by construction; NaN means corrupted metrics
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Read-only view of the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
        self.welford.merge(&other.welford);
    }
}

/// A fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    width: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `n` equal buckets spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo < hi && n > 0, "bad histogram spec");
        Histogram {
            lo,
            width: (hi - lo) / n as f64,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.buckets.len() {
            self.overflow += 1;
        } else {
            self.buckets[idx] += 1;
        }
    }

    /// Counts per bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Count of values below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of values at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded values, including out-of-range.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.buckets.iter().sum::<u64>()
    }

    /// The `[lo, hi)` bounds of bucket `i`.
    pub fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        let lo = self.lo + self.width * i as f64;
        (lo, lo + self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.push(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let empty = Welford::new();
        let mut b = a.clone();
        b.merge(&empty);
        assert_eq!(b.mean(), 1.0);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.mean(), 1.0);
    }

    #[test]
    fn summary_percentiles() {
        let mut s = Summary::new();
        s.extend((1..=100).map(|i| i as f64));
        assert_eq!(s.percentile(0.5), Some(50.0));
        assert_eq!(s.percentile(0.95), Some(95.0));
        assert_eq!(s.percentile(1.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
        assert!((s.mean() - 50.5).abs() < 1e-12);
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 5050.0);
    }

    #[test]
    fn summary_empty() {
        let mut s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn summary_rejects_nan() {
        let mut s = Summary::new();
        s.push(f64::NAN);
    }

    #[test]
    fn summary_merge() {
        let mut a = Summary::new();
        a.extend([1.0, 2.0]);
        let mut b = Summary::new();
        b.extend([3.0, 4.0]);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert!((a.mean() - 2.5).abs() < 1e-12);
        assert_eq!(a.percentile(1.0), Some(4.0));
    }

    #[test]
    fn summary_push_after_percentile() {
        let mut s = Summary::new();
        s.extend([3.0, 1.0, 2.0]);
        assert_eq!(s.median(), Some(2.0));
        s.push(0.5);
        assert_eq!(s.percentile(0.0), Some(0.5));
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.9, 10.0, -0.1, 100.0] {
            h.record(x);
        }
        assert_eq!(h.buckets(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
        assert_eq!(h.bucket_bounds(0), (0.0, 2.0));
        assert_eq!(h.bucket_bounds(4), (8.0, 10.0));
    }
}
