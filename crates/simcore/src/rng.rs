//! Deterministic random numbers: the suite's own PRNG plus distribution
//! helpers.
//!
//! [`SimRng`] is a xoshiro256++ generator seeded through SplitMix64. It is
//! self-contained (the workspace builds with no external crates), cheap,
//! and — most importantly — *stable*: the stream produced by a given seed
//! is part of the simulation's determinism contract, so two runs with the
//! same seed replay identical randomness regardless of platform.
//!
//! The workload generators need a handful of classical distributions:
//! exponential inter-arrival/think times, Zipf-skewed keys and TPC-C's
//! non-uniform random (NURand) — the last lives in the `workload` crate
//! because its constants are part of the TPC-C specification; the generic
//! building blocks live here.

use std::ops::{Range, RangeInclusive};

/// A deterministic xoshiro256++ pseudo-random generator.
///
/// # Examples
///
/// ```
/// use rapilog_simcore::rng::SimRng;
///
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let die = a.gen_range(1..=6u32);
/// assert!((1..=6).contains(&die));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> SimRng {
        // SplitMix64 expansion of the seed into the 256-bit state; this is
        // the initialisation recommended by the xoshiro authors and avoids
        // the all-zero state for every input.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer from `lo..hi` or `lo..=hi`.
    ///
    /// Uses a widening multiply to bound the draw; the bias is at most
    /// `width / 2^64`, far below anything a simulation can observe.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: UniformInt, R: IntRange<T>>(&mut self, range: R) -> T {
        let (lo, hi) = range.bounds_inclusive();
        match T::steps_inclusive(lo, hi) {
            None => T::offset(lo, self.next_u64()),
            Some(width) => {
                let n = ((self.next_u64() as u128 * width as u128) >> 64) as u64;
                T::offset(lo, n)
            }
        }
    }
}

mod sealed {
    pub trait Sealed {}
}

/// Integer types [`SimRng::gen_range`] can sample uniformly.
pub trait UniformInt: Copy + PartialOrd + sealed::Sealed {
    /// Number of values in `[lo, hi]`; `None` when it is the full 2^64.
    #[doc(hidden)]
    fn steps_inclusive(lo: Self, hi: Self) -> Option<u64>;
    /// `lo + n`, where `n` is strictly below the inclusive width.
    #[doc(hidden)]
    fn offset(lo: Self, n: u64) -> Self;
    /// `v - 1` (used to convert an exclusive bound to inclusive).
    #[doc(hidden)]
    fn dec(v: Self) -> Self;
}

macro_rules! uniform_unsigned {
    ($($t:ty),* $(,)?) => {$(
        impl sealed::Sealed for $t {}
        impl UniformInt for $t {
            fn steps_inclusive(lo: Self, hi: Self) -> Option<u64> {
                let w = hi.wrapping_sub(lo) as u64;
                if w == u64::MAX { None } else { Some(w + 1) }
            }
            fn offset(lo: Self, n: u64) -> Self {
                lo.wrapping_add(n as $t)
            }
            fn dec(v: Self) -> Self { v - 1 }
        }
    )*};
}

macro_rules! uniform_signed {
    ($($t:ty => $u:ty),* $(,)?) => {$(
        impl sealed::Sealed for $t {}
        impl UniformInt for $t {
            fn steps_inclusive(lo: Self, hi: Self) -> Option<u64> {
                // Two's-complement distance in the unsigned image.
                let w = (hi.wrapping_sub(lo)) as $u as u64;
                if w == u64::MAX { None } else { Some(w + 1) }
            }
            fn offset(lo: Self, n: u64) -> Self {
                ((lo as $u).wrapping_add(n as $u)) as $t
            }
            fn dec(v: Self) -> Self { v - 1 }
        }
    )*};
}

uniform_unsigned!(u8, u16, u32, u64, usize);
uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// Ranges accepted by [`SimRng::gen_range`].
pub trait IntRange<T> {
    /// The `(lo, hi)` inclusive bounds; panics on an empty range.
    fn bounds_inclusive(self) -> (T, T);
}

impl<T: UniformInt> IntRange<T> for Range<T> {
    fn bounds_inclusive(self) -> (T, T) {
        assert!(self.start < self.end, "gen_range: empty range");
        (self.start, T::dec(self.end))
    }
}

impl<T: UniformInt> IntRange<T> for RangeInclusive<T> {
    fn bounds_inclusive(self) -> (T, T) {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        (lo, hi)
    }
}

/// Samples an exponential distribution with the given mean.
///
/// Uses inverse-transform sampling; the mean is expressed in whatever unit
/// the caller wants back (typically nanoseconds).
///
/// # Panics
///
/// Panics if `mean` is not finite and positive.
pub fn exponential(rng: &mut SimRng, mean: f64) -> f64 {
    assert!(
        mean.is_finite() && mean > 0.0,
        "exponential: mean must be positive, got {mean}"
    );
    // Avoid ln(0): u is in (0, 1].
    let u: f64 = 1.0 - rng.next_f64();
    -mean * u.ln()
}

/// Samples a Zipf-distributed rank in `[1, n]` with exponent `theta`.
///
/// Uses the rejection-inversion-free direct CDF walk for small `n`, and the
/// standard approximation of Gray et al. (as used by YCSB) otherwise.
///
/// # Panics
///
/// Panics if `n == 0` or `theta <= 0.0` or `theta == 1.0` is fine; only
/// non-finite `theta` is rejected.
pub fn zipf(rng: &mut SimRng, n: u64, theta: f64) -> u64 {
    assert!(n > 0, "zipf: n must be positive");
    assert!(theta.is_finite() && theta > 0.0, "zipf: bad theta {theta}");
    // Gray et al. approximation (also YCSB's ZipfianGenerator).
    let zetan = zeta(n, theta);
    let alpha = 1.0 / (1.0 - theta);
    let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan);
    let u: f64 = rng.next_f64();
    let uz = u * zetan;
    if uz < 1.0 {
        return 1;
    }
    if uz < 1.0 + 0.5f64.powf(theta) {
        return 2;
    }
    let rank = 1.0 + (n as f64) * (eta * u - eta + 1.0).powf(alpha);
    (rank as u64).clamp(1, n)
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Direct sum for small n; the workloads here use n <= 100_000 at setup
    // time only, so this is never on a hot path.
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(12345)
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "streams from different seeds collided");
    }

    #[test]
    fn f64_in_unit_interval_and_fills_it() {
        let mut r = rng();
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v), "escaped [0,1): {v}");
            if v < 0.01 {
                lo_seen = true;
            }
            if v > 0.99 {
                hi_seen = true;
            }
        }
        assert!(lo_seen && hi_seen, "the unit interval is not covered");
    }

    #[test]
    fn ranges_are_bounded_and_cover() {
        let mut r = rng();
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = r.gen_range(1..=6u32);
            assert!((1..=6).contains(&v));
            seen[(v - 1) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "a die face never came up: {seen:?}"
        );
        for _ in 0..1000 {
            let v = r.gen_range(10..20u64);
            assert!((10..20).contains(&v));
        }
        for _ in 0..1000 {
            let v = r.gen_range(0..100usize);
            assert!(v < 100);
        }
    }

    #[test]
    fn signed_ranges_cover_both_signs() {
        let mut r = rng();
        let (mut neg, mut pos) = (false, false);
        for _ in 0..2000 {
            let v = r.gen_range(-5000..=5000i64);
            assert!((-5000..=5000).contains(&v));
            neg |= v < 0;
            pos |= v > 0;
        }
        assert!(neg && pos, "signed range never crossed zero");
        // Extreme bounds must not overflow the width computation.
        let v = r.gen_range(i64::MIN..=i64::MAX);
        let _ = v;
    }

    #[test]
    fn degenerate_range_returns_the_value() {
        let mut r = rng();
        assert_eq!(r.gen_range(9..=9u64), 9);
        assert_eq!(r.gen_range(-3..=-3i32), -3);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let mut r = rng();
        let _ = r.gen_range(5..5u32);
    }

    #[test]
    fn range_mean_is_near_centre() {
        let mut r = rng();
        let n = 20_000u64;
        let sum: u64 = (0..n).map(|_| r.gen_range(0..=1000u64)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 500.0).abs() < 10.0, "uniform mean drifted: {mean}");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng();
        let n = 20_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| exponential(&mut r, mean)).sum();
        let empirical = sum / n as f64;
        assert!(
            (empirical - mean).abs() < 0.15,
            "empirical mean {empirical} too far from {mean}"
        );
    }

    #[test]
    fn exponential_is_positive() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(exponential(&mut r, 1.0) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn exponential_rejects_zero_mean() {
        let mut r = rng();
        let _ = exponential(&mut r, 0.0);
    }

    #[test]
    fn zipf_in_range_and_skewed() {
        let mut r = rng();
        let n = 1000u64;
        let mut count_first_decile = 0u32;
        let samples = 10_000;
        for _ in 0..samples {
            let v = zipf(&mut r, n, 0.99);
            assert!((1..=n).contains(&v));
            if v <= n / 10 {
                count_first_decile += 1;
            }
        }
        // Under uniform, the first decile would get ~10%; Zipf(0.99) puts
        // well over half of the mass there.
        assert!(
            count_first_decile as f64 / samples as f64 > 0.5,
            "zipf not skewed: {count_first_decile}/{samples}"
        );
    }

    #[test]
    fn zipf_n_one_always_one() {
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(zipf(&mut r, 1, 0.99), 1);
        }
    }
}
