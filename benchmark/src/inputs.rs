//! Seeded workload inputs. Every input a workload sends is drawn here from
//! `--seed`, so one seed always gives one input set, and the programs under
//! test receive only the generated inputs.

use riskroute_rng::{StdRng, WeightedIndex};

/// Share of serve-mixed requests that are `ratio` ops.
pub const RATIO_SHARE: f64 = 0.05;

/// An independent generator for one named input stream of `seed`, so the
/// streams a workload draws from one seed do not repeat each other.
pub fn rng(seed: u64, stream: &str, index: u64) -> StdRng {
    // FNV-1a over the stream name; the generator's SplitMix64 seeding
    // decorrelates the nearby seeds this produces.
    let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    StdRng::seed_from_u64(seed ^ tag ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `k` ordered pairs of distinct PoPs among `n`.
pub fn pairs(rng: &mut StdRng, n: usize, k: usize) -> Vec<(usize, usize)> {
    (0..k)
        .map(|_| {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n - 1);
            (i, if j >= i { j + 1 } else { j })
        })
        .collect()
}

/// A `route` query of the serve pool: network index, source, destination.
pub type RouteQuery = (usize, usize, usize);

/// `size` route queries over networks with the given PoP counts: network
/// uniform, then a pair of distinct PoPs.
pub fn route_pool(pop_counts: &[usize], size: usize, seed: u64) -> Vec<RouteQuery> {
    let mut rng = rng(seed, "serve-pool", 0);
    (0..size)
        .map(|_| {
            let net = rng.gen_range(0..pop_counts.len());
            let (src, dst) = pairs(&mut rng, pop_counts[net], 1)[0];
            (net, src, dst)
        })
        .collect()
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)`.
pub struct Zipf(WeightedIndex);

impl Zipf {
    /// The distribution over `n ≥ 1` ranks.
    pub fn new(n: usize) -> Zipf {
        let weights: Vec<f64> = (1..=n.max(1)).map(|r| 1.0 / r as f64).collect();
        Zipf(WeightedIndex::new(&weights).expect("Zipf weights are positive and finite"))
    }

    /// One rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        self.0.sample(rng)
    }
}

/// One serve-mixed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeOp {
    /// `route` on the pool query at this index.
    Route(usize),
    /// `ratio` on the regional network at this index.
    Ratio(usize),
}

/// The serve-mixed traffic mix: Zipf-ranked pool routes plus a
/// [`RATIO_SHARE`] of ratio ops on uniformly drawn regional networks.
pub struct ServeMix {
    zipf: Zipf,
    regional: usize,
}

impl ServeMix {
    /// The mix over a pool of `pool` queries and `regional` networks.
    pub fn new(pool: usize, regional: usize) -> ServeMix {
        ServeMix {
            zipf: Zipf::new(pool),
            regional,
        }
    }

    /// Draw the next request.
    pub fn draw(&self, rng: &mut StdRng) -> ServeOp {
        if rng.gen_f64() < RATIO_SHARE {
            ServeOp::Ratio(rng.gen_range(0..self.regional))
        } else {
            ServeOp::Route(self.zipf.sample(rng))
        }
    }
}

/// The order in which one replay round visits `cases` cases.
pub fn case_order(seed: u64, round: u64, cases: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cases).collect();
    rng(seed, "replay-order", round).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> Vec<ServeOp> {
        let mix = ServeMix::new(1024, 16);
        let mut r = rng(seed, "serve-client", 0);
        (0..2000).map(|_| mix.draw(&mut r)).collect()
    }

    #[test]
    fn pools_repeat_per_seed_and_differ_across_seeds() {
        let counts = [233, 25, 10, 70];
        assert_eq!(route_pool(&counts, 1024, 42), route_pool(&counts, 1024, 42));
        assert_ne!(route_pool(&counts, 1024, 42), route_pool(&counts, 1024, 7));
        let p = |seed, index| pairs(&mut rng(seed, "scale-pairs", index), 10_000, 4);
        assert_eq!(p(42, 3), p(42, 3));
        assert_ne!(p(42, 3), p(42, 4));
        assert_ne!(p(42, 3), p(7, 3));
        assert_eq!(case_order(42, 1, 14), case_order(42, 1, 14));
        assert_ne!(case_order(42, 1, 14), case_order(42, 2, 14));
    }

    #[test]
    fn pool_queries_are_valid_pairs() {
        let counts = [233, 25, 10, 2];
        for (net, src, dst) in route_pool(&counts, 4096, 9) {
            assert!(src != dst && src < counts[net] && dst < counts[net]);
        }
    }

    #[test]
    fn zipf_draws_repeat_per_seed_and_follow_rank() {
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(7));
        let ops = draws(42);
        let rank = |r| ops.iter().filter(|&&o| o == ServeOp::Route(r)).count();
        assert!(rank(0) > rank(1) && rank(1) > rank(9));
        let ratios = ops
            .iter()
            .filter(|o| matches!(o, ServeOp::Ratio(_)))
            .count();
        assert!((50..=150).contains(&ratios), "{ratios} ratio ops of 2000");
    }
}
