//! Fixed-bucket histograms with log-spaced bounds.

/// A fixed-bucket histogram: `bounds` are ascending inclusive upper limits
/// (`le` semantics, as in Prometheus); one extra overflow bucket catches
/// everything above the last bound. Observation cost is a binary search
/// over a small, fixed bound set — cheap enough for hot loops.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// Build from explicit bucket upper bounds. Non-finite bounds are
    /// discarded; the rest are sorted and deduplicated.
    pub fn new(mut bounds: Vec<f64>) -> Histogram {
        bounds.retain(|b| b.is_finite());
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            sum: 0.0,
            count: 0,
        }
    }

    /// `buckets` log-spaced upper bounds: `first, first·ratio,
    /// first·ratio², …`.
    pub fn log_spaced(first: f64, ratio: f64, buckets: usize) -> Histogram {
        let mut bounds = Vec::with_capacity(buckets);
        let mut b = first;
        for _ in 0..buckets {
            bounds.push(b);
            b *= ratio;
        }
        Histogram::new(bounds)
    }

    /// The default latency buckets: powers of two from 1 µs to ~2 s
    /// (seconds).
    pub fn latency_default() -> Histogram {
        Histogram::log_spaced(1e-6, 2.0, 22)
    }

    /// Latency buckets for values recorded in **microseconds** rather than
    /// seconds: powers of two from 1 µs to ~8 s.
    pub fn micros_default() -> Histogram {
        Histogram::log_spaced(1.0, 2.0, 24)
    }

    /// The bucket `v` falls into: the first bound with `v <= bound`, or
    /// the overflow index `bounds.len()`.
    pub fn bucket_index(&self, v: f64) -> usize {
        self.bounds.partition_point(|&b| b < v)
    }

    /// Record one observation. NaN is ignored (it belongs to no bucket).
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self.bucket_index(v);
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Cumulative per-bucket counts (Prometheus `_bucket` semantics,
    /// including the final `+Inf` entry).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut running = 0;
        self.counts
            .iter()
            .map(|&c| {
                running += c;
                running
            })
            .collect()
    }

    /// Rebuild from exported parts (JSONL import). `None` when the counts
    /// length does not match the bounds.
    pub fn from_parts(bounds: Vec<f64>, counts: Vec<u64>, sum: f64) -> Option<Histogram> {
        if counts.len() != bounds.len() + 1 {
            return None;
        }
        let count = counts.iter().sum();
        Some(Histogram {
            bounds,
            counts,
            sum,
            count,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn log_spaced_bounds_are_geometric() {
        let h = Histogram::log_spaced(1e-6, 2.0, 4);
        assert_eq!(h.bounds(), &[1e-6, 2e-6, 4e-6, 8e-6]);
        assert_eq!(h.counts().len(), 5);
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(vec![1.0, 10.0, 100.0]);
        assert_eq!(h.bucket_index(0.5), 0);
        assert_eq!(h.bucket_index(1.0), 0, "le: exactly on a bound stays in it");
        assert_eq!(h.bucket_index(1.0000001), 1);
        assert_eq!(h.bucket_index(10.0), 1);
        assert_eq!(h.bucket_index(100.0), 2);
        assert_eq!(h.bucket_index(100.1), 3, "overflow bucket");
        assert_eq!(h.bucket_index(f64::INFINITY), 3);
    }

    #[test]
    fn observe_accumulates_and_skips_nan() {
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        h.observe(1.5);
        h.observe(9.0);
        h.observe(f64::NAN);
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 12.5).abs() < 1e-12);
        assert_eq!(h.cumulative(), vec![1, 3, 4]);
    }

    #[test]
    fn unsorted_and_nonfinite_bounds_are_sanitized() {
        let h = Histogram::new(vec![10.0, f64::NAN, 1.0, f64::INFINITY, 10.0]);
        assert_eq!(h.bounds(), &[1.0, 10.0]);
    }

    #[test]
    fn from_parts_validates_lengths() {
        assert!(Histogram::from_parts(vec![1.0], vec![1, 2], 3.0).is_some());
        assert!(Histogram::from_parts(vec![1.0], vec![1], 3.0).is_none());
        let h = Histogram::from_parts(vec![1.0, 2.0], vec![1, 2, 3], 9.0).unwrap();
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn defaults_cover_realistic_ranges() {
        let lat = Histogram::latency_default();
        assert!(lat.bounds().first().copied().unwrap() <= 1e-6);
        assert!(lat.bounds().last().copied().unwrap() >= 1.0);
        let micros = Histogram::micros_default();
        assert!(micros.bounds().first().copied().unwrap() <= 1.0);
        assert!(micros.bounds().last().copied().unwrap() >= 1e6);
    }
}
