//! Deterministic, splittable random number generation.
//!
//! Every stochastic component in the workspace (weight init, data synthesis,
//! augmentation, dropout, stochastic depth) draws from an explicitly seeded
//! [`Rng`]. There is no ambient entropy: two runs with the same seeds produce
//! bitwise-identical results regardless of thread scheduling, because each
//! replica/worker derives its own independent stream via [`Rng::split`].
//!
//! The generator is xoshiro256++ seeded through SplitMix64, a standard
//! combination with good statistical quality and a tiny state.

/// SplitMix64 step: used for seeding and stream splitting.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ PRNG.
///
/// Cheap to construct, `Clone`, and splittable into statistically
/// independent child streams — the property the distributed trainer relies
/// on to give every replica its own reproducible randomness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child stream tagged by `stream`.
    ///
    /// Children with distinct tags (or from distinct parents) are
    /// statistically independent; the parent is left unchanged.
    pub fn split(&self, stream: u64) -> Rng {
        // Mix the parent state with the stream tag through SplitMix64 so
        // nearby tags land in far-apart states.
        let mut sm = self.s[0] ^ self.s[2] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        // 24 high-quality mantissa bits.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // the ranges used here (dataset indices, class counts).
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal sample via Box–Muller.
    #[inline]
    pub fn normal(&mut self) -> f32 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = (self.uniform() as f64).max(1e-12);
        let u2 = self.uniform() as f64;
        let r = (-2.0 * u1.ln()).sqrt();
        (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Normal sample with given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Bernoulli trial with probability `p` of `true`.
    #[inline]
    pub fn coin(&mut self, p: f32) -> bool {
        self.uniform() < p
    }

    /// Fills a slice with standard-normal samples scaled by `std`.
    pub fn fill_normal(&mut self, out: &mut [f32], mean: f32, std: f32) {
        for v in out.iter_mut() {
            *v = self.normal_with(mean, std);
        }
    }

    /// Fills a slice with uniform samples in `[lo, hi)`.
    pub fn fill_uniform(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        for v in out.iter_mut() {
            *v = self.uniform_in(lo, hi);
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// A deterministic permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_independent_of_parent_consumption() {
        let parent = Rng::new(7);
        let mut c1 = parent.split(3);
        let mut parent2 = parent.clone();
        let _ = parent2.next_u64(); // consuming a clone must not matter
        let mut c2 = parent.split(3);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn split_streams_differ() {
        let parent = Rng::new(7);
        let mut a = parent.split(0);
        let mut b = parent.split(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_bounds_and_coverage() {
        let mut r = Rng::new(11);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let k = r.below(10);
            assert!(k < 10);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(13);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let x = r.normal() as f64;
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn permutation_is_valid() {
        let mut r = Rng::new(5);
        let p = r.permutation(100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
