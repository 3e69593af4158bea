//! Host-side measurement helpers: quartiles, exact percentiles, the
//! equal-work-slice estimator, peak RSS and seed derivation.

use std::time::Instant;

use rapilog_simcore::SimRng;

/// The three quartile cut points, by the exclusive method that Python's
/// `statistics.quantiles(values, n=4)` uses (the benchmark contract's
/// spread is defined with it).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return [v[0]; 3];
    }
    let n = v.len() as i64;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i as i64 + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Negative or above 1 at the clamped ends: Python extrapolates too.
        let delta = (pos - j * 4) as f64 / 4.0;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *q = lo + (hi - lo) * delta;
    }
    out
}

/// Exact nearest-rank percentile of unsorted samples (`p` in `(0, 100]`).
/// Sorts in place.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of nothing");
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The equal-work-slice estimator for host cost per operation.
///
/// The timed section is cut into many short slices and each yields one
/// ns/op figure. Slices of equal work form a *stratum*: a steady workload
/// has one, a trial campaign has one per kind of trial. The work is
/// deterministic, so interference from the shared host only ever adds
/// time: the estimate is the lower quartile of each stratum's slices,
/// averaged over strata by their share of the operations. The median and
/// upper quartile, combined the same way, show how noisy the run was.
/// Slices are short (~50 ms) because the interference comes in bursts:
/// with 0.5 s slices hardly one in four escaped it.
#[derive(Default)]
pub struct Slices {
    /// Per stratum: its slices' ns/op and its total operations.
    strata: Vec<(Vec<f64>, u64)>,
    pub host_ns: u64,
    pub ops: u64,
}

impl Slices {
    /// A slice of a single-stratum workload.
    pub fn push(&mut self, host_ns: u64, ops: u64) {
        self.push_in(0, host_ns, ops);
    }

    pub fn push_in(&mut self, stratum: usize, host_ns: u64, ops: u64) {
        assert!(ops > 0, "a slice with no completed operation");
        if self.strata.len() <= stratum {
            self.strata.resize_with(stratum + 1, Default::default);
        }
        let (slices, total) = &mut self.strata[stratum];
        slices.push(host_ns as f64 / ops as f64);
        *total += ops;
        self.host_ns += host_ns;
        self.ops += ops;
    }

    pub fn len(&self) -> usize {
        self.strata.iter().map(|(s, _)| s.len()).sum()
    }

    /// Re-expresses slices that were pushed per unit of work (bytes, say)
    /// per operation: `per_op` units make one operation, `ops` in all.
    pub fn rescale(&mut self, per_op: f64, ops: u64) {
        for (slices, total) in &mut self.strata {
            slices.iter_mut().for_each(|v| *v *= per_op);
            *total = (*total as f64 / per_op).round() as u64;
        }
        self.ops = ops;
    }

    /// Lower quartile, median and upper quartile of ns/op.
    pub fn quartiles(&self) -> [f64; 3] {
        let mut out = [0.0; 3];
        for (slices, ops) in self.strata.iter().filter(|(s, _)| !s.is_empty()) {
            let q = quartiles(slices);
            for (o, q) in out.iter_mut().zip(q) {
                *o += q * *ops as f64 / self.ops as f64;
            }
        }
        out
    }
}

/// Wall-clock stopwatch in nanoseconds.
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the last lap (or start), restarting the watch.
    pub fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status (the benchmark runs on Linux)");
    kib / 1024.0
}

/// The `n`-th seed of the stream `stream` derived from the run's `--seed`.
/// Streams keep warm-up trials and measured trials on disjoint seeds.
pub fn derive_seed(seed: u64, stream: u64, n: u64) -> u64 {
    let mut rng = SimRng::seed_from_u64(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    rng.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut [7], 99.9), 7);
    }
}
