//! Sampling distributions used by the workload and placement models.
//!
//! The paper's evaluation needs three kinds of randomness:
//!
//! * **Exponential inter-arrival times** — "the distribution of
//!   inter-arrival times is roughly exponential with a mean of 4 seconds in
//!   accordance with the Facebook trace" (§VI-A2).
//! * **Uniform job input sizes** — WordCount inputs are 4–8 GB, Sort inputs
//!   1–8 GB (§VI-A2).
//! * **Zipf block popularity** — the popularity-based replication extension
//!   (Scarlett \[9\], discussed in §II and §VII) models skewed access
//!   frequency.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A sampleable distribution over non-negative reals.
pub trait Distribution: std::fmt::Debug {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution's mean, if finite and known in closed form.
    fn mean(&self) -> Option<f64>;

    /// Draws a sample interpreted as seconds and converts it to a
    /// [`SimDuration`], clamping below at zero.
    fn sample_duration(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(self.sample(rng).max(0.0))
    }
}

/// A point mass: always returns the same value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.0
    }
    fn mean(&self) -> Option<f64> {
        Some(self.0)
    }
}

/// Uniform over `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution over `[lo, hi)`. Panics if the range
    /// is empty or invalid.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }
    fn mean(&self) -> Option<f64> {
        Some((self.lo + self.hi) / 2.0)
    }
}

/// Exponential with the given mean (inverse rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean`. Panics unless
    /// `mean > 0`.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "bad mean");
        Exponential { mean }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse-CDF. `1 - unit()` is in (0, 1], avoiding ln(0).
        -self.mean * (1.0 - rng.unit()).ln()
    }
    fn mean(&self) -> Option<f64> {
        Some(self.mean)
    }
}

/// Truncated normal: samples `N(mean, std)` and clamps to `[lo, hi]`.
/// Used for task-duration jitter so simulated stages have realistic spread
/// without negative durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    mean: f64,
    std: f64,
    lo: f64,
    hi: f64,
}

impl TruncatedNormal {
    /// Creates the distribution. Panics on invalid parameters.
    pub fn new(mean: f64, std: f64, lo: f64, hi: f64) -> Self {
        assert!(std >= 0.0 && lo <= hi, "bad parameters");
        TruncatedNormal { mean, std, lo, hi }
    }
}

impl Distribution for TruncatedNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Box–Muller; one draw per sample keeps the stream simple.
        let u1 = (1.0 - rng.unit()).max(f64::MIN_POSITIVE);
        let u2 = rng.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mean + self.std * z).clamp(self.lo, self.hi)
    }
    fn mean(&self) -> Option<f64> {
        // Clamping shifts the mean; report None rather than an approximation.
        None
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Sampling uses the precomputed CDF (O(log n) per draw). Rank 1 is the most
/// popular item.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with skew `s`. Panics if
    /// `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(s >= 0.0 && s.is_finite(), "bad exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Samples a 0-based rank (0 = most popular).
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of 0-based rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - lo
    }
}

impl Distribution for Zipf {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_rank(rng) as f64
    }
    fn mean(&self) -> Option<f64> {
        Some(
            (0..self.cdf.len())
                .map(|k| k as f64 * self.pmf(k))
                .sum::<f64>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &dyn Distribution, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant(3.25);
        let mut rng = SimRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.25);
        }
        assert_eq!(d.mean(), Some(3.25));
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        assert!((mean_of(&d, 20_000, 2) - 4.0).abs() < 0.05);
        assert_eq!(d.mean(), Some(4.0));
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(4.0);
        assert!((mean_of(&d, 50_000, 3) - 4.0).abs() < 0.1);
        assert_eq!(d.mean(), Some(4.0));
    }

    #[test]
    fn exponential_non_negative() {
        let d = Exponential::with_mean(1.0);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let d = TruncatedNormal::new(10.0, 5.0, 8.0, 12.0);
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((8.0..=12.0).contains(&x));
        }
    }

    #[test]
    fn truncated_normal_centers_near_mean() {
        let d = TruncatedNormal::new(10.0, 1.0, 0.0, 20.0);
        assert!((mean_of(&d, 20_000, 6) - 10.0).abs() < 0.1);
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_monotone() {
        let z = Zipf::new(10, 1.0);
        let total: f64 = (0..10).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for k in 1..10 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12, "pmf not decreasing");
        }
    }

    #[test]
    fn zipf_skew_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = Zipf::new(5, 1.2);
        let mut rng = SimRng::seed_from_u64(7);
        let mut counts = [0usize; 5];
        let n = 50_000;
        for _ in 0..n {
            counts[z.sample_rank(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.pmf(k)).abs() < 0.01,
                "rank {k}: empirical {emp} vs pmf {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    fn sample_duration_is_non_negative() {
        let d = Exponential::with_mean(0.001);
        let mut rng = SimRng::seed_from_u64(8);
        for _ in 0..100 {
            let _ = d.sample_duration(&mut rng); // would panic if negative
        }
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn uniform_rejects_empty_range() {
        let _ = Uniform::new(5.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "bad mean")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::with_mean(0.0);
    }
}
