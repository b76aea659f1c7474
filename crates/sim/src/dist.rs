//! Random distributions used by the evaluation workloads.
//!
//! The paper's rack benchmark offers Poisson RPC arrivals (§5.2); the
//! upgrade study (Fig. 9) has a heavy-tailed state-size distribution;
//! the RDMA hot-spotting discussion (§5.4) needs skewed key popularity.
//! This module provides exactly those primitives on top of [`Rng`].

use crate::rng::Rng;
use crate::time::Nanos;

/// Samples an exponentially distributed value with the given mean.
///
/// Used for Poisson-process inter-arrival gaps.
///
/// # Panics
///
/// Panics if `mean` is not positive and finite.
pub fn exponential(rng: &mut Rng, mean: f64) -> f64 {
    assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
    // Inverse CDF; 1 - u avoids ln(0).
    -mean * (1.0 - rng.f64()).ln()
}

/// Samples an exponential inter-arrival gap for a Poisson process with
/// the given event rate (events per second).
pub fn poisson_gap(rng: &mut Rng, rate_per_sec: f64) -> Nanos {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    Nanos::from_secs_f64(exponential(rng, 1.0 / rate_per_sec))
}

/// Samples a standard normal variate (Box–Muller, one value per call).
pub fn standard_normal(rng: &mut Rng) -> f64 {
    let u1 = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a log-normal variate parameterized by the *median* and the
/// shape `sigma` (std-dev of the underlying normal).
///
/// Fig. 9's blackout distribution is "heavy-tailed, strongly correlated
/// with the amount of state checkpointed"; engine state sizes are drawn
/// from this distribution.
pub fn log_normal(rng: &mut Rng, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0 && sigma >= 0.0);
    median * (sigma * standard_normal(rng)).exp()
}

/// A Zipf-like discrete distribution over `n` items with exponent `s`.
///
/// Used to model hot-spotting access patterns that thrash hardware RDMA
/// connection caches (§5.4). Sampling is O(log n) via binary search on
/// the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution for ranks `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(s >= 0.0, "negative Zipf exponent");
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

    /// Samples a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false; a Zipf distribution has at least one item.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A diurnal load curve: a base rate modulated by a day-scale sinusoid
/// plus bounded noise, mimicking the production dashboard of Fig. 8.
#[derive(Debug, Clone, Copy)]
pub struct DiurnalLoad {
    /// Trough-to-peak midpoint rate, in operations per second.
    pub base_rate: f64,
    /// Fraction of `base_rate` swung by the sinusoid (0..1).
    pub swing: f64,
    /// Period of the cycle.
    pub period: Nanos,
    /// Multiplicative noise amplitude (0..1).
    pub noise: f64,
}

impl DiurnalLoad {
    /// Rate at virtual time `t`, with noise drawn from `rng`.
    pub fn rate_at(&self, t: Nanos, rng: &mut Rng) -> f64 {
        let phase = (t.as_nanos() % self.period.as_nanos()) as f64
            / self.period.as_nanos() as f64;
        let wave = (std::f64::consts::TAU * phase).sin();
        let noisy = 1.0 + self.noise * (2.0 * rng.f64() - 1.0);
        (self.base_rate * (1.0 + self.swing * wave) * noisy).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_converges() {
        let mut rng = Rng::new(1);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, 5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = Rng::new(2);
        assert!((0..10_000).all(|_| exponential(&mut rng, 1.0) >= 0.0));
    }

    #[test]
    fn poisson_gap_rate_roundtrip() {
        let mut rng = Rng::new(3);
        let n = 100_000u64;
        let total: Nanos = (0..n).map(|_| poisson_gap(&mut rng, 10_000.0)).sum();
        // 10k/sec -> mean gap 100us.
        let mean_us = total.as_micros_f64() / n as f64;
        assert!((mean_us - 100.0).abs() < 2.0, "mean gap {mean_us}us");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(4);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn log_normal_median() {
        let mut rng = Rng::new(5);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| log_normal(&mut rng, 250.0, 0.8)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        assert!((median / 250.0 - 1.0).abs() < 0.05, "median {median}");
        // Heavy tail: p99 well above the median.
        let p99 = xs[(n as f64 * 0.99) as usize];
        assert!(p99 > 2.0 * median, "p99 {p99} vs median {median}");
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(6);
        let mut count0 = 0;
        let n = 50_000;
        for _ in 0..n {
            if z.sample(&mut rng) == 0 {
                count0 += 1;
            }
        }
        // Rank 0 mass for s=1.1, n=1000 is ~13%; uniform would be 0.1%.
        assert!(count0 > n / 20, "rank-0 count {count0}");
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(17, 0.9);
        let mut rng = Rng::new(7);
        assert!((0..10_000).all(|_| z.sample(&mut rng) < 17));
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = Rng::new(8);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn diurnal_rate_swings_and_stays_positive() {
        let d = DiurnalLoad {
            base_rate: 1_000_000.0,
            swing: 0.6,
            period: Nanos::from_millis(60_000),
            noise: 0.05,
        };
        let mut rng = Rng::new(9);
        let peak = d.rate_at(Nanos::from_millis(15_000), &mut rng);
        let trough = d.rate_at(Nanos::from_millis(45_000), &mut rng);
        assert!(peak > 1.4e6, "peak {peak}");
        assert!(trough < 0.6e6, "trough {trough}");
        assert!(trough >= 0.0);
    }
}
