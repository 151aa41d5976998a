//! Nearest-neighbour population assignment and outage impact (§5.1).
//!
//! "The population for a given census block is assigned to the nearest
//! infrastructure location" — each PoP's share `c_i` is the fraction of the
//! (in-scope) population it serves, and the impact of an outage between PoPs
//! i and j is `β(i,j) = c_i + c_j`.

use crate::blocks::PopulationModel;
use riskroute_geo::distance::{chord_sq, great_circle_miles, unit_vector};
use riskroute_geo::GeoPoint;
use riskroute_topology::{Network, PopId};

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

/// Chord slack, 2⁻⁴⁰ of a unit-sphere chord (≈3.6e-9 miles): PoPs whose
/// chord to a query is within this of the shortest are re-ranked by
/// haversine. It is over 200× the bound on the rounding, relative and
/// absolute, of the chord and the haversine (DESIGN.md, "Nearest PoP by
/// chord").
const CHORD_SLACK: f64 = 1.0 / 1_099_511_627_776.0;

/// Latitude gap, in degrees, past which every PoP's chord to the query is
/// longer than `reach`: the inverse of `chord ≥ 2·sin(|Δφ|/2)`, padded by
/// the slack on both sides of the `asin`. Infinite when `reach` spans the
/// sphere.
fn stop_gap_deg(reach: f64) -> f64 {
    let half = 0.5 * reach + CHORD_SLACK;
    if half >= 1.0 {
        f64::INFINITY
    } else {
        (2.0 * half.asin() + CHORD_SLACK).to_degrees()
    }
}

/// Latitude-sorted nearest-PoP index.
///
/// [`PopShares::assign`] calls nearest-PoP once per census block; on
/// continental-scale synthetic networks (10k–100k PoPs, see
/// `riskroute synth`) the linear scan turns assignment into a
/// blocks × PoPs quadratic pass. This index sorts PoPs by latitude once
/// and answers each query by expanding outward from the query latitude.
///
/// The walk ranks PoPs by the squared chord between unit 3-vectors
/// ([`chord_sq`]), which rises strictly with great-circle distance and
/// needs no trig. Each time the shortest chord improves it becomes a
/// latitude-gap stop (one `asin`); the walk ends once the latitude
/// separation alone puts every unvisited PoP beyond the slack. Only the
/// visited PoPs whose chord lies within [`CHORD_SLACK`] of the best are
/// then re-ranked by [`great_circle_miles`] under `(distance, PoP id)`
/// `total_cmp` — usually one, more where PoPs coincide. DESIGN.md
/// ("Nearest PoP by chord") proves that the slack covers the rounding of
/// both the chord and the haversine, so every PoP the filter drops has a
/// computed haversine strictly above a kept one's, and the answer is
/// [`Network::nearest_pop`]'s linear scan, bit for bit, anywhere on the
/// sphere (poles and the antimeridian included).
struct LatBandIndex {
    /// `(latitude, unit vector, PoP id)`, sorted by latitude, then id.
    by_lat: Vec<(f64, [f64; 3], PopId)>,
}

impl LatBandIndex {
    fn build(network: &Network) -> Self {
        let mut by_lat: Vec<(f64, [f64; 3], PopId)> = network
            .pops()
            .iter()
            .enumerate()
            .map(|(i, p)| (p.location.lat(), unit_vector(p.location), i))
            .collect();
        by_lat.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        LatBandIndex { by_lat }
    }

    /// Nearest PoP to `q` with the exact tie semantics of
    /// [`Network::nearest_pop`]: minimal `(distance, PoP id)` under
    /// `total_cmp`.
    fn nearest(&self, network: &Network, q: GeoPoint) -> Option<(PopId, f64)> {
        let u = unit_vector(q);
        let start = self.by_lat.partition_point(|e| e.0 < q.lat());
        // The visited PoPs are always the contiguous run `by_lat[lo..hi]`.
        let (mut lo, mut hi) = (start, start);
        let mut best_sq = f64::INFINITY;
        let mut stop_deg = f64::INFINITY;
        loop {
            // Visit whichever unexplored side is nearer in latitude; once
            // its gap passes the stop, the other side's gap does too.
            let lo_gap = lo
                .checked_sub(1)
                .map_or(f64::INFINITY, |i| q.lat() - self.by_lat[i].0);
            let hi_gap = self.by_lat.get(hi).map_or(f64::INFINITY, |e| e.0 - q.lat());
            let gap = lo_gap.min(hi_gap);
            if gap == f64::INFINITY || gap > stop_deg {
                break;
            }
            let at = if lo_gap <= hi_gap {
                lo -= 1;
                lo
            } else {
                hi += 1;
                hi - 1
            };
            let c = chord_sq(u, self.by_lat[at].1);
            if c < best_sq {
                best_sq = c;
                stop_deg = stop_gap_deg(c.sqrt() + CHORD_SLACK);
            }
        }
        let reach = best_sq.sqrt() + CHORD_SLACK;
        let reach_sq = reach * reach;
        let pops = network.pops();
        self.by_lat[lo..hi]
            .iter()
            .filter(|e| chord_sq(u, e.1) <= reach_sq)
            .map(|e| (great_circle_miles(q, pops[e.2].location), e.2))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(d, i)| (i, d))
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

    fn cloud(name: &str, points: &[(f64, f64)]) -> Network {
        let pops = points
            .iter()
            .enumerate()
            .map(|(i, &(lat, lon))| Pop {
                name: format!("{name}{i}"),
                location: GeoPoint::new(lat, lon).unwrap(),
            })
            .collect();
        Network::new(name, NetworkKind::Tier1, pops, vec![]).unwrap()
    }

    /// Degrees of latitude per mile, for sub-mile offsets.
    const DEG_PER_MILE: f64 = 1.0 / 69.09;

    /// Networks that sit where the chord filter's rounding matters:
    /// coincident PoPs, PoPs a micro-mile apart, one PoP, the poles, the
    /// antimeridian, and mirror pairs whose distances tie exactly.
    fn adversarial_networks() -> Vec<Network> {
        let micro = 1e-6 * DEG_PER_MILE;
        vec![
            cloud("solo", &[(38.0, -97.0)]),
            cloud(
                "colocated",
                &[(40.0, -90.0), (35.0, -100.0), (40.0, -90.0), (40.0, -90.0)],
            ),
            cloud(
                "micro",
                &[
                    (30.0, -95.0),
                    (30.0 + micro, -95.0),
                    (30.0, -95.0 + micro),
                    (30.0 - micro, -95.0 - micro),
                    (30.5, -95.5),
                ],
            ),
            cloud(
                "polar",
                &[
                    (89.0, 0.0),
                    (89.0, 120.0),
                    (89.0, -120.0),
                    (89.999_999, 45.0),
                    (90.0, 0.0),
                    (-89.0, 10.0),
                    (-89.5, -170.0),
                    (-90.0, 0.0),
                ],
            ),
            cloud(
                "antimeridian",
                &[
                    (10.0, 179.999),
                    (10.0, -179.999),
                    (10.0, 180.0),
                    (10.0, -180.0),
                    (-5.0, 179.5),
                    (25.0, -179.5),
                ],
            ),
            cloud(
                "mirror",
                &[
                    (35.0, -100.0 - 2.0),
                    (35.0, -100.0 + 2.0),
                    (35.0 + 1.5, -100.0),
                    (35.0 - 1.5, -100.0),
                    (35.0, -100.0 - 2.0 - micro),
                ],
            ),
            cloud(
                "antipodal",
                &[
                    (-40.0, 80.0),
                    (-40.0, 80.0 + micro),
                    (-40.0 - micro, 80.0),
                    (-39.999_9, 79.999_9),
                    (40.0, -100.0),
                ],
            ),
        ]
    }

    /// Query points around every PoP: on it, nudged by 1e-9…1e-3 degrees,
    /// at its antipode, at ±89.9/±90 on its meridian, across the
    /// antimeridian from it, and midway between every pair of PoPs.
    fn adversarial_queries(net: &Network) -> Vec<GeoPoint> {
        let clamp_pt = |lat: f64, lon: f64| {
            let lon = if lon > 180.0 { lon - 360.0 } else { lon };
            let lon = if lon < -180.0 { lon + 360.0 } else { lon };
            GeoPoint::new(lat.clamp(-90.0, 90.0), lon).unwrap()
        };
        let mut out = Vec::new();
        for p in net.pops() {
            let (lat, lon) = (p.location.lat(), p.location.lon());
            out.push(p.location);
            for eps in [1e-9, 1e-7, 1e-5, 1e-3] {
                out.push(clamp_pt(lat + eps, lon));
                out.push(clamp_pt(lat - eps, lon - eps));
                out.push(clamp_pt(lat, lon + eps));
            }
            out.push(clamp_pt(-lat, lon + 180.0));
            out.push(clamp_pt(-lat + 1e-7, lon + 180.0 - 1e-7));
            out.push(clamp_pt(89.9, lon));
            out.push(clamp_pt(-89.9, lon));
            out.push(clamp_pt(90.0, lon));
            out.push(clamp_pt(-90.0, lon));
            out.push(clamp_pt(lat, -lon));
            for q in net.pops() {
                let (qlat, qlon) = (q.location.lat(), q.location.lon());
                out.push(clamp_pt((lat + qlat) / 2.0, (lon + qlon) / 2.0));
            }
        }
        for lat in [-89.99, -45.0, 0.0, 35.0, 89.99] {
            out.push(clamp_pt(lat, 180.0));
            out.push(clamp_pt(lat, -180.0));
        }
        out
    }

    #[test]
    fn chord_index_matches_linear_scan_on_adversarial_networks() {
        for net in adversarial_networks() {
            let index = LatBandIndex::build(&net);
            for q in adversarial_queries(&net) {
                let fast = index.nearest(&net, q);
                let slow = net.nearest_pop(q);
                let (Some((fi, fd)), Some((si, sd))) = (fast, slow) else {
                    panic!("{}: {fast:?} vs {slow:?} at {q:?}", net.name());
                };
                assert_eq!(
                    (fi, fd.to_bits()),
                    (si, sd.to_bits()),
                    "{} at {q:?}",
                    net.name()
                );
            }
        }
        // Coincident PoPs: the lowest id wins.
        let net = &adversarial_networks()[1];
        let at = GeoPoint::new(40.0, -90.0).unwrap();
        assert_eq!(LatBandIndex::build(net).nearest(net, at), Some((0, 0.0)));
    }

    #[test]
    fn assign_matches_linear_scan_on_adversarial_networks() {
        let model = PopulationModel::synthesize(5, 2_000);
        // Every block is also a PoP of one network: zero-distance queries.
        let on_blocks: Vec<(f64, f64)> = model
            .blocks()
            .iter()
            .step_by(40)
            .map(|b| (b.location.lat(), b.location.lon()))
            .collect();
        let mut nets = adversarial_networks();
        nets.push(cloud("on-blocks", &on_blocks));
        for net in &nets {
            let mut totals = vec![0.0; net.pop_count()];
            for b in model.blocks() {
                totals[net.nearest_pop(b.location).unwrap().0] += b.population;
            }
            let total: f64 = model.blocks().iter().map(|b| b.population).sum();
            let want: Vec<u64> = totals.iter().map(|t| (t / total).to_bits()).collect();
            let got: Vec<u64> = PopShares::assign(&model, net, None)
                .shares()
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(got, want, "{}", net.name());
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
