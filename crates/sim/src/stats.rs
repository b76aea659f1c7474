//! Statistics collection: histograms, counters, and utilization meters.
//!
//! The paper reports mean latency (Fig. 6a), p99 tail latency
//! (Fig. 6c/d, Fig. 7), CPU time per machine (Fig. 6b), op-rate time
//! series (Fig. 8) and a blackout-duration distribution (Fig. 9). The
//! types here back all of those measurements.

use crate::time::Nanos;

/// Number of linear sub-buckets per power-of-two magnitude.
///
/// 32 sub-buckets bound the relative quantization error at ~3%, which is
/// plenty for reproducing figure shapes.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// A log-linear histogram of `u64` values (HdrHistogram-style).
///
/// Recording is O(1); memory is fixed (~16 KiB); values up to `u64::MAX`
/// are representable with bounded relative error.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // 64 magnitudes x 32 sub-buckets covers the full u64 range.
        Histogram {
            buckets: vec![0; 64 * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        // Values below SUB_BUCKETS are stored exactly; above that, the
        // range [2^m, 2^(m+1)) is split into SUB_BUCKETS equal slots.
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let m = 63 - value.leading_zeros();
        let level = (m - SUB_BITS) as usize;
        let sub = ((value - (1u64 << m)) >> level) as usize;
        SUB_BUCKETS + level * SUB_BUCKETS + sub
    }

    /// Representative (midpoint) value for a bucket index.
    fn value_of(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let k = index - SUB_BUCKETS;
        let level = (k / SUB_BUCKETS) as u32;
        let sub = (k % SUB_BUCKETS) as u64;
        let width = 1u64 << level;
        let lo = (1u64 << (level + SUB_BITS)) + sub * width;
        lo + width / 2
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration in nanoseconds.
    pub fn record_nanos(&mut self, value: Nanos) {
        self.record(value.as_nanos());
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn min(&self) -> u64 {
        assert!(self.count > 0, "min() of empty histogram");
        self.min
    }

    /// Largest recorded value.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn max(&self) -> u64 {
        assert!(self.count > 0, "max() of empty histogram");
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (e.g. 0.99 for p99).
    ///
    /// Returns 0 for an empty histogram. The result is the bucket
    /// midpoint, clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Shorthand for `quantile(0.50)`.
    pub fn median(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Shorthand for `quantile(0.99)`.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Shorthand for `quantile(0.999)`.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The histogram of values recorded since `earlier` was captured,
    /// assuming `earlier` is a past snapshot of this histogram (its
    /// per-bucket counts are a prefix of ours). Used for snapshot/delta
    /// telemetry export: `current.diff(&previous)` is the activity in
    /// the window between the two snapshots.
    ///
    /// Min/max are recomputed from the surviving buckets' midpoint
    /// values (the exact extremes of the window are not recoverable),
    /// clamped to the cumulative observed range. If `earlier` is not
    /// actually a prefix (e.g. the histogram was reset in between),
    /// per-bucket subtraction saturates at zero, which degrades to
    /// "everything recorded since the reset" — never a double count.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (i, (a, b)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            let d = a.saturating_sub(*b);
            if d > 0 {
                let v = Self::value_of(i);
                out.buckets[i] = d;
                out.count += d;
                out.sum += v as u128 * d as u128;
                out.min = out.min.min(v);
                out.max = out.max.max(v);
            }
        }
        if out.count > 0 {
            // Clamp both ends into the cumulative range as an interval:
            // a bucket midpoint can sit just outside [min, max] (e.g. a
            // single value 202 lives in the bucket whose midpoint is
            // 200), and clamping the ends independently would cross.
            out.min = out.min.clamp(self.min, self.max);
            out.max = out.max.clamp(self.min, self.max);
        }
        out
    }

    /// Clears all recorded data.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// One-line summary treating values as nanoseconds; convenient for
    /// the figure harnesses.
    pub fn latency_summary(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        format!(
            "n={} mean={:.1}us p50={:.1}us p90={:.1}us p99={:.1}us p999={:.1}us max={:.1}us",
            self.count,
            self.mean() / 1e3,
            self.median() as f64 / 1e3,
            self.quantile(0.90) as f64 / 1e3,
            self.p99() as f64 / 1e3,
            self.quantile(0.999) as f64 / 1e3,
            self.max() as f64 / 1e3,
        )
    }
}

/// A windowed rate counter for time-series output (Fig. 8's per-minute
/// IOPS dashboard).
#[derive(Debug, Clone)]
pub struct RateSeries {
    window: Nanos,
    current_window_start: Nanos,
    current_count: u64,
    /// Completed (window start, events in window) pairs.
    points: Vec<(Nanos, u64)>,
}

impl RateSeries {
    /// Creates a series with the given aggregation window.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window: Nanos) -> Self {
        assert!(!window.is_zero(), "zero rate window");
        RateSeries {
            window,
            current_window_start: Nanos::ZERO,
            current_count: 0,
            points: Vec::new(),
        }
    }

    /// Records `n` events at time `now`, closing any elapsed windows.
    pub fn record_at(&mut self, now: Nanos, n: u64) {
        self.roll_to(now);
        self.current_count += n;
    }

    /// Closes windows up to `now` (recording zeros for empty windows).
    pub fn roll_to(&mut self, now: Nanos) {
        while now >= self.current_window_start + self.window {
            self.points
                .push((self.current_window_start, self.current_count));
            self.current_count = 0;
            self.current_window_start += self.window;
        }
    }

    /// Completed (window start, count) points.
    pub fn points(&self) -> &[(Nanos, u64)] {
        &self.points
    }

    /// Per-second rates for completed windows.
    pub fn rates_per_sec(&self) -> Vec<(Nanos, f64)> {
        let w = self.window.as_secs_f64();
        self.points
            .iter()
            .map(|&(t, c)| (t, c as f64 / w))
            .collect()
    }

    /// Highest per-second rate over completed windows (0 if none).
    pub fn peak_rate(&self) -> f64 {
        self.rates_per_sec()
            .iter()
            .map(|&(_, r)| r)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        assert_eq!(h.quantile(0.0), 42);
        assert_eq!(h.quantile(1.0), 42);
        assert_eq!(h.mean(), 42.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        // ceil(0.5 * 32) = 16th value in rank order, i.e. value 15.
        assert_eq!(h.median(), SUB_BUCKETS as u64 / 2 - 1);
    }

    #[test]
    fn quantiles_on_uniform_data() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.05, "p50 {p50}");
        assert!((p99 / 99_000.0 - 1.0).abs() < 0.05, "p99 {p99}");
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        for &v in &[1_000u64, 123_456, 9_876_543, 1_234_567_890] {
            h.reset();
            h.record(v);
            let got = h.quantile(0.5) as f64;
            assert!(
                (got / v as f64 - 1.0).abs() < 0.04,
                "value {v} quantized to {got}"
            );
        }
    }

    #[test]
    fn p999_pins_interpolation_at_bucket_edges() {
        // 999 small values + 1 large: the p999 rank (ceil(0.999*1000) =
        // 999) still lands on the small cluster; only p(>999/1000)
        // crosses into the outlier bucket.
        let mut h = Histogram::new();
        for _ in 0..999 {
            h.record(16); // < SUB_BUCKETS: stored exactly
        }
        h.record(1_000_000);
        assert_eq!(h.p999(), 16);
        assert!(h.quantile(0.9995) >= 990_000);

        // Exactly at a power-of-two bucket edge: the value 2^SUB_BITS
        // (= 32) is the first non-exact bucket, whose midpoint is the
        // value itself (width 1) — no quantization error at the edge.
        let mut edge = Histogram::new();
        for _ in 0..1_000 {
            edge.record(SUB_BUCKETS as u64);
        }
        assert_eq!(edge.p999(), SUB_BUCKETS as u64);

        // Top of a level: 2^(m+1)-1 is the last sub-bucket of level m;
        // the midpoint is clamped into [min, max], so p999 never
        // escapes the observed range even at the ring edge.
        let mut top = Histogram::new();
        for _ in 0..1_000 {
            top.record((1u64 << 20) - 1);
        }
        assert_eq!(top.p999(), (1u64 << 20) - 1);

        // Uniform data: p999 tracks the true 99.9th percentile within
        // the histogram's ~3% relative quantization error.
        let mut u = Histogram::new();
        for v in 1..=100_000u64 {
            u.record(v);
        }
        let p999 = u.p999() as f64;
        assert!((p999 / 99_900.0 - 1.0).abs() < 0.05, "p999 {p999}");
        // And it sits between p99 and max, monotone.
        assert!(u.p999() >= u.p99());
        assert!(u.p999() <= u.max());
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert!(a.max() >= 990_000);
    }

    #[test]
    fn quantile_monotone() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..1000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) % 10_000_000;
            h.record(x);
        }
        let mut last = 0;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0);
            assert!(q >= last, "quantile not monotone at {i}");
            last = q;
        }
    }

    #[test]
    fn diff_isolates_the_window() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(10_000);
        let snap = h.clone();
        h.record(1_000_000);
        for _ in 0..3 {
            h.record(500);
        }
        let d = h.diff(&snap);
        assert_eq!(d.count(), 4);
        assert!(d.min() >= 100, "window min {}", d.min());
        assert!(d.max() >= 990_000, "window max {}", d.max());
        // p50 of the window sits at the 500-value cluster.
        let p50 = d.median() as f64;
        assert!((p50 / 500.0 - 1.0).abs() < 0.05, "p50 {p50}");
        // Empty window.
        let none = h.diff(&h.clone());
        assert!(none.is_empty());
        // A reset in between saturates instead of double counting.
        let mut r = Histogram::new();
        r.record(42);
        let d = r.diff(&snap);
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn rate_series_windows() {
        let mut s = RateSeries::new(Nanos::from_millis(1_000));
        s.record_at(Nanos::from_millis(100), 5);
        s.record_at(Nanos::from_millis(900), 5);
        s.record_at(Nanos::from_millis(1_100), 20);
        s.roll_to(Nanos::from_millis(3_000));
        let rates = s.rates_per_sec();
        assert_eq!(rates.len(), 3);
        assert_eq!(rates[0].1, 10.0);
        assert_eq!(rates[1].1, 20.0);
        assert_eq!(rates[2].1, 0.0);
        assert_eq!(s.peak_rate(), 20.0);
    }

    #[test]
    fn latency_summary_formats() {
        let mut h = Histogram::new();
        h.record(10_000);
        let s = h.latency_summary();
        assert!(s.contains("n=1"), "{s}");
        assert!(s.contains("mean=10.0us"), "{s}");
        assert!(s.contains("p90="), "{s}");
    }
}
