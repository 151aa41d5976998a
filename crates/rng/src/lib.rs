//! Deterministic, dependency-free randomness for the whole workspace.
//!
//! Every stochastic component (event samplers, census jitter, topology
//! synthesis, chaos fault plans) derives its generator from an explicit
//! `u64` seed through [`StdRng`], a xoshiro256++ generator seeded via
//! SplitMix64. The stream is stable across platforms and Rust versions, so
//! experiments regenerate bit-identically everywhere.
//!
//! The API mirrors the subset of the `rand` crate the workspace uses
//! (`seed_from_u64`, `gen`, `gen_range`, slice shuffling, weighted
//! sampling) so call sites read idiomatically, without the external
//! dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::ops::Range;

/// The workspace's standard deterministic generator: xoshiro256++ with
/// SplitMix64 seeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl StdRng {
    /// Seed the generator from a `u64` (SplitMix64-expanded, so nearby
    /// seeds produce uncorrelated streams).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }

    /// The next raw 64-bit output (xoshiro256++).
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

    /// A uniform sample of type `T` (`u64`, `u32`, or `f64` in `[0, 1)`).
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from a half-open range (`f64` or `usize` ranges).
    ///
    /// # Panics
    /// Panics on an empty range, matching `rand`'s contract.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }
}

/// Types [`StdRng::gen`] can produce.
pub trait Sample {
    /// Draw one uniform value.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Sample for u64 {
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for f64 {
    fn sample(rng: &mut StdRng) -> Self {
        rng.gen_f64()
    }
}

/// Ranges [`StdRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one uniform value from the range.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * rng.gen_f64()
    }
}

impl SampleRange for Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut StdRng) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = (self.end - self.start) as u64;
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let v = rng.next_u64();
            if v < zone {
                return self.start + (v % span) as usize;
            }
        }
    }
}

impl SampleRange for Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut StdRng) -> u64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = self.end - self.start;
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let v = rng.next_u64();
            if v < zone {
                return self.start + v % span;
            }
        }
    }
}

/// Slice helpers mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Element type.
    type Item;
    /// Shuffle in place.
    fn shuffle(&mut self, rng: &mut StdRng);
    /// A uniformly chosen element, `None` for an empty slice.
    fn choose(&self, rng: &mut StdRng) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;
    fn shuffle(&mut self, rng: &mut StdRng) {
        rng.shuffle(self);
    }
    fn choose(&self, rng: &mut StdRng) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }
}

/// Errors from [`WeightedIndex`] construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightError {
    /// No weights supplied.
    Empty,
    /// A weight was negative or non-finite, or all weights were zero.
    InvalidWeight,
}

impl std::fmt::Display for WeightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightError::Empty => write!(f, "no weights supplied"),
            WeightError::InvalidWeight => {
                write!(f, "weights must be finite, non-negative, and not all zero")
            }
        }
    }
}

impl std::error::Error for WeightError {}

/// Weighted index sampling (CDF inversion), mirroring
/// `rand::distributions::WeightedIndex`.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Build from non-negative weights.
    ///
    /// # Errors
    /// Rejects empty, negative, non-finite, or all-zero weight sets.
    pub fn new(weights: &[f64]) -> Result<Self, WeightError> {
        if weights.is_empty() {
            return Err(WeightError::Empty);
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(WeightError::InvalidWeight);
            }
            total += w;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return Err(WeightError::InvalidWeight);
        }
        Ok(WeightedIndex { cumulative, total })
    }

    /// Draw an index with probability proportional to its weight.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let ticket = rng.gen_f64() * self.total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&ticket).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// A seeded standard generator (convenience constructor).
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn reproducible_streams() {
        let a: Vec<u64> = (0..8).map(|_| seeded(7).next_u64()).collect();
        let mut rng = seeded(7);
        let b: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(a[0], b[0]);
        assert_ne!(b[0], b[1], "stream advances");
        assert_ne!(seeded(7).next_u64(), seeded(8).next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = seeded(1);
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = seeded(2);
        for _ in 0..10_000 {
            let f = rng.gen_range(3.0..7.0);
            assert!((3.0..7.0).contains(&f));
            let u = rng.gen_range(10..20usize);
            assert!((10..20).contains(&u));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = seeded(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<usize> = (0..100).collect();
        let mut rng = seeded(4);
        v.shuffle(&mut rng);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_covers_all_elements() {
        let xs = [1, 2, 3];
        let mut rng = seeded(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(*xs.choose(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3);
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn weighted_index_tracks_weights() {
        let wi = WeightedIndex::new(&[1.0, 0.0, 3.0]).unwrap();
        let mut rng = seeded(6);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[wi.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero weight never sampled");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn weighted_index_rejects_bad_weights() {
        assert_eq!(WeightedIndex::new(&[]), Err(WeightError::Empty));
        assert_eq!(
            WeightedIndex::new(&[1.0, -1.0]),
            Err(WeightError::InvalidWeight)
        );
        assert_eq!(
            WeightedIndex::new(&[f64::NAN]),
            Err(WeightError::InvalidWeight)
        );
        assert_eq!(
            WeightedIndex::new(&[0.0, 0.0]),
            Err(WeightError::InvalidWeight)
        );
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = seeded(8);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits {hits}");
        assert!(!seeded(1).gen_bool(0.0));
        assert!(seeded(1).gen_bool(1.0));
    }
}
