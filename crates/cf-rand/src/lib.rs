//! A self-contained deterministic PRNG exposing the subset of the
//! `rand` 0.8 API this workspace uses (`StdRng`, `SeedableRng`, `Rng`
//! with `gen`/`gen_range`/`gen_bool`).
//!
//! The build environment has no access to crates.io, so the workspace
//! aliases `rand = { package = "cf-rand" }` to this crate. The generator
//! is xoshiro256** seeded through SplitMix64 — statistically strong far
//! beyond what workload generation and randomized tests need, and fully
//! deterministic per seed (important: every workload in `cf-workload`
//! documents its seed).
//!
//! Every `pub` item mirrors a `rand` name that the workspace uses.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Random number generators (layout mirrors `rand::rngs`).
pub mod rngs {
    /// The standard deterministic generator: xoshiro256**.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

pub use rngs::StdRng;

/// Seeding interface (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state; this
        // is the seeding scheme the xoshiro authors recommend.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }
}

impl StdRng {
    fn next_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Types producible by [`Rng::gen`] (stand-in for the `Standard`
/// distribution).
pub trait Standard: Sized {
    /// Draws one value.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

/// Types uniformly sampleable from a range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)` (`hi` inclusive when `inclusive`).
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: Rng + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let span = (hi as i128) - (lo as i128) + i128::from(inclusive);
                assert!(span > 0, "cannot sample from empty range");
                // Multiply-shift bounded draw (Lemire); the slight bias
                // for huge spans is irrelevant at test/workload scale.
                let r = rng.next_u64() as u128;
                let v = ((r * span as u128) >> 64) as i128;
                (lo as i128 + v) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: Rng + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                if inclusive {
                    assert!(lo <= hi, "cannot sample from empty range");
                } else {
                    assert!(lo < hi, "cannot sample from empty range");
                }
                let u = <f64 as Standard>::from_rng(rng);
                let v = lo as f64 + u * (hi as f64 - lo as f64);
                // Guard the inclusive upper bound against rounding.
                if v > hi as f64 { hi } else { v as $t }
            }
        }
    )*};
}
impl_sample_uniform_float!(f32, f64);

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, *self.start(), *self.end(), true)
    }
}

/// The generator interface (subset of `rand::Rng`).
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Draws a value of type `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Uniform draw from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        <f64 as Standard>::from_rng(self) < p
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let f: f64 = rng.gen_range(-2.5..9.25);
            assert!((-2.5..9.25).contains(&f));
            let i: i64 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn gen_range_hits_every_bucket() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_float_distribution_sane() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / 100_000.0 - 0.25).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _: u32 = rng.gen_range(5..5);
    }
}
