//! Offline stand-in for the `rand` crate (0.8-era API surface).
//!
//! The build environment cannot reach crates.io, so this crate vendors
//! exactly what the workspace uses: `rngs::StdRng`, `SeedableRng::seed_from_u64`,
//! `Rng::gen_range(low..high)` over the integer types, and `Rng::gen::<f64>()`.
//! The generator is xoshiro256++ seeded via SplitMix64 — deterministic for a
//! given seed, which is all the workload generators need. The stream differs
//! from upstream `StdRng` (ChaCha12), so seeds produce different — but still
//! reproducible — datasets.

use std::ops::Range;

/// Minimal core trait: everything derives from a 64-bit output.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that `Rng::gen` can produce.
pub trait Standard: Sized {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types samplable uniformly from a half-open range.
pub trait UniformSample: Sized {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Multiply-shift bounded sampling (Lemire); bias is < 2^-64,
                // irrelevant for workload generation.
                let x = rng.next_u64() as u128;
                let off = (x * span) >> 64;
                (range.start as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_uniform_int!(i64, u64, i32, u32, usize, u16, u8, i8);

impl UniformSample for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        range.start + f64::standard(rng) * (range.end - range.start)
    }
}

/// The user-facing extension trait, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    fn gen_range<T: UniformSample>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }

    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ generator, seeded through SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
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
}

pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1000), b.gen_range(0u64..1000));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3i64..17);
            assert!((3..17).contains(&v));
            let u = rng.gen_range(0usize..5);
            assert!(u < 5);
        }
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        // Mean of uniform [0,1) samples should be near 0.5.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }
}
