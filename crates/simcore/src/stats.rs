//! Latency distributions: [`Histogram`], the log-bucketed histogram the
//! layers' `*Stats` structs and the bench harness record samples into.
//!
//! Histograms use log-linear bucketing (32 linear sub-buckets per power of
//! two), giving a worst-case quantile error of ~3% — the same trade-off as
//! HDR histograms — with a fixed 2 KiB footprint and no allocation on the
//! record path.

const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS; // 32
const BUCKET_GROUPS: usize = 64;

/// A log-linear histogram of `u64` samples (typically nanoseconds).
///
/// # Examples
///
/// ```
/// use rapilog_simcore::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1_000, 2_000, 3_000, 100_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(50.0) >= 2_000);
/// assert_eq!(h.max(), 100_000);
/// ```
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKET_GROUPS * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        // Values in [2^k, 2^(k+1)) split into 32 linear sub-buckets of width
        // 2^(k-5), bounding relative error by 1/32.
        let k = (63 - value.leading_zeros()) as usize;
        let shift = k - SUB_BUCKET_BITS as usize;
        let sub = ((value >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
        SUB_BUCKETS + (k - SUB_BUCKET_BITS as usize) * SUB_BUCKETS + sub
    }

    /// Representative (upper-bound) value for a bucket index.
    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let rel = index - SUB_BUCKETS;
        let k = SUB_BUCKET_BITS as usize + rel / SUB_BUCKETS;
        let sub = (rel % SUB_BUCKETS) as u64;
        let shift = k - SUB_BUCKET_BITS as usize;
        let lower = (SUB_BUCKETS as u64 + sub) << shift;
        lower + ((1u64 << shift) - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum sample; 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum sample; 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (`p` in `[0, 100]`); exact min/max at the
    /// extremes, ~3% relative error elsewhere. Returns 0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0;
        }
        if p <= 0.0 {
            return self.min();
        }
        if p >= 100.0 {
            return self.max;
        }
        let target = ((p / 100.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets to empty.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// One-line summary (`count / mean / p50 / p95 / p99 / max`), values
    /// interpreted as nanoseconds and printed in human units.
    pub fn summary(&self) -> String {
        fn fmt_ns(ns: u64) -> String {
            crate::SimDuration::from_nanos(ns).to_string()
        }
        format!(
            "n={} mean={} p50={} p95={} p99={} max={}",
            self.count,
            fmt_ns(self.mean() as u64),
            fmt_ns(self.percentile(50.0)),
            fmt_ns(self.percentile(95.0)),
            fmt_ns(self.percentile(99.0)),
            fmt_ns(self.max()),
        )
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    /// Prints the distribution's shape, not the bucket array.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("mean", &self.mean())
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.count(), 32);
        // Small values land in the exact linear buckets.
        assert_eq!(h.percentile(100.0), 31);
    }

    #[test]
    fn percentile_error_is_bounded() {
        let mut h = Histogram::new();
        // A known uniform distribution over [1, 1_000_000].
        for v in (1..=1_000_000u64).step_by(997) {
            h.record(v);
        }
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
            let expect = (p / 100.0 * 1_000_000.0) as u64;
            let got = h.percentile(p);
            let rel = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(rel < 0.05, "p{p}: got {got}, want ~{expect} (rel {rel})");
        }
    }

    #[test]
    fn mean_and_sum_are_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.sum(), 60);
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(42);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.percentile(50.0) > 0);
    }

    #[test]
    fn summary_is_humane() {
        let mut h = Histogram::new();
        h.record(1_500_000);
        let s = h.summary();
        assert!(s.contains("n=1"), "summary: {s}");
        assert!(s.contains("ms"), "summary: {s}");
    }
}
