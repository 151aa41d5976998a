//! Nearest-neighbour population assignment and outage impact (§5.1).
//!
//! "The population for a given census block is assigned to the nearest
//! infrastructure location" — each PoP's share `c_i` is the fraction of the
//! (in-scope) population it serves, and the impact of an outage between PoPs
//! i and j is `β(i,j) = c_i + c_j`.

use crate::blocks::PopulationModel;
use riskroute_geo::distance::great_circle_miles;
use riskroute_geo::GeoPoint;
use riskroute_topology::{Network, PopId};
use std::cmp::Ordering;

/// Per-PoP population shares for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct PopShares {
    shares: Vec<f64>,
}

impl PopShares {
    /// Build shares directly from raw values.
    ///
    /// §5 of the paper notes operators "could easily insert their own
    /// intuition about the risk and impact of outages"; this constructor is
    /// that hook (e.g. shares derived from traffic matrices or SLAs rather
    /// than census population).
    ///
    /// # Panics
    /// Panics when any share is negative or non-finite.
    pub fn from_shares(shares: Vec<f64>) -> PopShares {
        assert!(
            shares.iter().all(|s| s.is_finite() && *s >= 0.0),
            "shares must be finite and non-negative"
        );
        PopShares { shares }
    }

    /// Assign every census block of `model` to its nearest PoP of `network`.
    ///
    /// `state_filter` implements the paper's rule for geographically
    /// constrained regional networks: "we only consider the population
    /// confined to the states where these networks have infrastructure".
    /// Pass `None` for nationwide (Tier-1) networks.
    ///
    /// Returned shares are fractions of the *in-scope* population and sum to
    /// 1 (when any block is in scope). Networks with zero PoPs or zero
    /// in-scope population get all-zero shares.
    pub fn assign(
        model: &PopulationModel,
        network: &Network,
        state_filter: Option<&[&str]>,
    ) -> PopShares {
        let n = network.pop_count();
        let mut totals = vec![0.0; n];
        if n == 0 {
            return PopShares { shares: totals };
        }
        let index = LatBandIndex::build(network);
        let mut in_scope = 0.0;
        for b in model.blocks() {
            if let Some(states) = state_filter {
                if !states.contains(&b.state) {
                    continue;
                }
            }
            // `n == 0` returned early above, so a nearest PoP always exists.
            let Some((pop, _)) = index.nearest(network, b.location) else {
                debug_assert!(false, "nearest_pop on a non-empty network");
                continue;
            };
            totals[pop] += b.population;
            in_scope += b.population;
        }
        if in_scope > 0.0 {
            for t in &mut totals {
                *t /= in_scope;
            }
        }
        PopShares { shares: totals }
    }

    /// Share `c_i` of PoP `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn share(&self, i: PopId) -> f64 {
        self.shares[i]
    }

    /// All shares, indexed by PoP.
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// Outage impact `β(i,j) = c_i + c_j` (§5.1).
    ///
    /// # Panics
    /// Panics when either PoP is out of range.
    pub fn impact(&self, i: PopId, j: PopId) -> f64 {
        self.shares[i] + self.shares[j]
    }
}

/// Miles per degree of latitude used as a *lower bound* on great-circle
/// distance. Deliberately below the true ≈69.09 mi/° so that floating-point
/// error in the haversine can never let the bound prune a candidate whose
/// exact distance ties the current best — pruned PoPs are strictly farther,
/// and the index returns the same `(distance, index)` minimum as
/// [`Network::nearest_pop`]'s linear scan, bit for bit.
const LAT_BAND_LOWER_BOUND_MI_PER_DEG: f64 = 69.0;

/// Latitude-sorted nearest-PoP index.
///
/// [`PopShares::assign`] calls nearest-PoP once per census block; on
/// continental-scale synthetic networks (10k–100k PoPs, see
/// `riskroute synth`) the linear scan turns assignment into a
/// blocks × PoPs quadratic pass. This index sorts PoPs by latitude once
/// and answers each query by expanding outward from the query latitude,
/// stopping as soon as the latitude separation alone exceeds the best
/// distance found — `O(log n + k)` per query with `k` the PoPs inside the
/// winning latitude band.
struct LatBandIndex {
    /// `(latitude, PoP id)`, sorted ascending.
    by_lat: Vec<(f64, PopId)>,
}

impl LatBandIndex {
    fn build(network: &Network) -> Self {
        let mut by_lat: Vec<(f64, PopId)> = network
            .pops()
            .iter()
            .enumerate()
            .map(|(i, p)| (p.location.lat(), i))
            .collect();
        by_lat.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        LatBandIndex { by_lat }
    }

    /// Nearest PoP to `q` with the exact tie semantics of
    /// [`Network::nearest_pop`]: minimal `(distance, PoP id)` under
    /// `total_cmp`.
    fn nearest(&self, network: &Network, q: GeoPoint) -> Option<(PopId, f64)> {
        let pops = network.pops();
        let start = self.by_lat.partition_point(|&(lat, _)| lat < q.lat());
        let mut lo = start.checked_sub(1);
        let mut hi = (start < self.by_lat.len()).then_some(start);
        let mut best: Option<(f64, PopId)> = None;
        loop {
            // Visit whichever unexplored side is nearer in latitude; once
            // its latitude bound exceeds the best distance, the other side's
            // bound does too and the search is complete.
            let lo_gap = lo.map(|i| q.lat() - self.by_lat[i].0);
            let hi_gap = hi.map(|i| self.by_lat[i].0 - q.lat());
            let (at, gap, from_lo) = match (lo, hi) {
                (None, None) => break,
                (Some(i), None) => (i, lo_gap.unwrap_or(0.0), true),
                (None, Some(i)) => (i, hi_gap.unwrap_or(0.0), false),
                (Some(li), Some(hi_i)) => {
                    let lg = lo_gap.unwrap_or(0.0);
                    let hg = hi_gap.unwrap_or(0.0);
                    if lg <= hg {
                        (li, lg, true)
                    } else {
                        (hi_i, hg, false)
                    }
                }
            };
            if let Some((best_d, _)) = best {
                if gap * LAT_BAND_LOWER_BOUND_MI_PER_DEG > best_d {
                    break;
                }
            }
            let id = self.by_lat[at].1;
            let d = great_circle_miles(q, pops[id].location);
            best = Some(match best {
                None => (d, id),
                Some(b) => {
                    if d.total_cmp(&b.0).then(id.cmp(&b.1)) == Ordering::Less {
                        (d, id)
                    } else {
                        b
                    }
                }
            });
            if from_lo {
                lo = at.checked_sub(1);
            } else {
                hi = (at + 1 < self.by_lat.len()).then_some(at + 1);
            }
        }
        best.map(|(d, i)| (i, d))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_geo::GeoPoint;
    use riskroute_topology::{NetworkKind, Pop};

    fn two_pop_network() -> Network {
        Network::new(
            "pair",
            NetworkKind::Tier1,
            vec![
                Pop {
                    name: "NYC".into(),
                    location: GeoPoint::new(40.71, -74.01).unwrap(),
                },
                Pop {
                    name: "LA".into(),
                    location: GeoPoint::new(34.05, -118.24).unwrap(),
                },
            ],
            vec![(0, 1)],
        )
        .unwrap()
    }

    #[test]
    fn shares_sum_to_one() {
        let model = PopulationModel::synthesize(1, 3000);
        let net = two_pop_network();
        let shares = PopShares::assign(&model, &net, None);
        let sum: f64 = shares.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(shares.share(0) > 0.0 && shares.share(1) > 0.0);
    }

    #[test]
    fn east_coast_pop_serves_more_than_half() {
        // NYC vs LA split of the national population: the eastern half of the
        // country (everything nearer NYC) holds the majority.
        let model = PopulationModel::synthesize(1, 5000);
        let net = two_pop_network();
        let shares = PopShares::assign(&model, &net, None);
        assert!(shares.share(0) > 0.5, "NYC share = {}", shares.share(0));
    }

    #[test]
    fn impact_is_sum_of_shares() {
        let model = PopulationModel::synthesize(2, 2000);
        let net = two_pop_network();
        let shares = PopShares::assign(&model, &net, None);
        let b = shares.impact(0, 1);
        assert!((b - (shares.share(0) + shares.share(1))).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-9, "two PoPs capture everything");
    }

    #[test]
    fn state_filter_restricts_scope() {
        let model = PopulationModel::synthesize(3, 4000);
        let net = two_pop_network();
        // TX + NY scope: Texas blocks are all nearer LA (even Houston, by
        // ~45 miles), New York blocks all nearer NYC, so both PoPs hold a
        // strictly interior share and the shares still sum to 1.
        let shares = PopShares::assign(&model, &net, Some(&["TX", "NY"]));
        let sum: f64 = shares.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(shares.share(0) > 0.1 && shares.share(1) > 0.1);
        // And a TX-only scope hands essentially everything to LA.
        let tx_only = PopShares::assign(&model, &net, Some(&["TX"]));
        assert!(tx_only.share(1) > 0.95, "LA share = {}", tx_only.share(1));
    }

    #[test]
    fn empty_filter_gives_zero_shares() {
        let model = PopulationModel::synthesize(3, 1000);
        let net = two_pop_network();
        let shares = PopShares::assign(&model, &net, Some(&["ZZ"]));
        assert!(shares.shares().iter().all(|&s| s == 0.0));
    }

    #[test]
    fn single_pop_network_takes_all() {
        let model = PopulationModel::synthesize(4, 1000);
        let net = Network::new(
            "solo",
            NetworkKind::Regional,
            vec![Pop {
                name: "X".into(),
                location: GeoPoint::new(39.0, -95.0).unwrap(),
            }],
            vec![],
        )
        .unwrap();
        let shares = PopShares::assign(&model, &net, None);
        assert!((shares.share(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lat_band_index_matches_linear_scan_exactly() {
        // Random PoP clouds — including exact duplicate locations, which
        // force the (distance, index) tie-break — must agree with
        // Network::nearest_pop bit for bit at every query point.
        let mut rng = riskroute_rng::StdRng::seed_from_u64(9);
        for trial in 0..5u64 {
            let n = 3 + (trial as usize) * 17;
            let mut pops = Vec::with_capacity(n);
            for i in 0..n {
                let lat = 25.0 + rng.gen_f64() * 24.0;
                let lon = -124.0 + rng.gen_f64() * 57.0;
                pops.push(Pop {
                    name: format!("p{i}"),
                    location: GeoPoint::new(lat, lon).unwrap(),
                });
            }
            // Duplicate an existing location under a higher index.
            let dup = pops[trial as usize % n].location;
            pops.push(Pop {
                name: "dup".into(),
                location: dup,
            });
            let net = Network::new("cloud", NetworkKind::Tier1, pops, vec![]).unwrap();
            let index = LatBandIndex::build(&net);
            for _ in 0..200 {
                let q = GeoPoint::new(24.6 + rng.gen_f64() * 24.8, -124.9 + rng.gen_f64() * 58.0)
                    .unwrap();
                let fast = index.nearest(&net, q);
                let slow = net.nearest_pop(q);
                match (fast, slow) {
                    (Some((fi, fd)), Some((si, sd))) => {
                        assert_eq!(fi, si, "trial {trial}");
                        assert_eq!(fd.to_bits(), sd.to_bits(), "trial {trial}");
                    }
                    other => panic!("trial {trial}: mismatch {other:?}"),
                }
            }
            // PoP locations themselves are zero-distance queries.
            for (i, p) in net.pops().iter().enumerate() {
                let fast = index.nearest(&net, p.location);
                let slow = net.nearest_pop(p.location);
                assert_eq!(fast, slow, "trial {trial} pop {i}");
            }
        }
    }

    #[test]
    fn empty_network_has_no_shares() {
        let model = PopulationModel::synthesize(4, 1000);
        let net = Network::new("none", NetworkKind::Regional, vec![], vec![]).unwrap();
        let shares = PopShares::assign(&model, &net, None);
        assert!(shares.shares().is_empty());
    }
}
