//! Synthesizers for the seven Tier-1 networks of the paper.
//!
//! Table 2 of the paper fixes the PoP counts: Level3 233, AT&T 25, Deutsche
//! Telekom 10, NTT 12, Sprint 24, Tinet 35, Teliasonera 15 (354 total, as in
//! §4.1). Each network's PoPs are drawn from the gazetteer by
//! population-weighted sampling without replacement (big networks reach into
//! smaller markets exactly the way the Topology Zoo maps do), then wired
//! with a Gabriel-graph mesh — the classical proximity-graph model for
//! infrastructure built along line-of-sight corridors — plus express links
//! among the largest hub cities.

use crate::gazetteer::{self, City};
use crate::model::{Network, NetworkKind, Pop};
use riskroute_geo::distance::great_circle_miles;
use riskroute_graph::gabriel::gabriel_graph;
use riskroute_rng::{derive_seed, StdRng, WeightedIndex};

/// Specification for one Tier-1 network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier1Spec {
    /// Network name as used throughout the paper.
    pub name: &'static str,
    /// Number of PoPs (Table 2).
    pub pops: usize,
    /// Number of top-population hub PoPs to interconnect with express links.
    pub hubs: usize,
}

/// The seven Tier-1 networks with the paper's PoP counts.
pub const TIER1_SPECS: &[Tier1Spec] = &[
    Tier1Spec {
        name: "Level3",
        pops: 233,
        hubs: 8,
    },
    Tier1Spec {
        name: "AT&T",
        pops: 25,
        hubs: 5,
    },
    Tier1Spec {
        name: "Deutsche Telekom",
        pops: 10,
        hubs: 3,
    },
    Tier1Spec {
        name: "NTT",
        pops: 12,
        hubs: 3,
    },
    Tier1Spec {
        name: "Sprint",
        pops: 24,
        hubs: 5,
    },
    Tier1Spec {
        name: "Tinet",
        pops: 35,
        hubs: 5,
    },
    Tier1Spec {
        name: "Teliasonera",
        pops: 15,
        hubs: 4,
    },
];

/// Synthesize one Tier-1 network deterministically from `master_seed`.
///
/// The same `(spec, master_seed)` pair always yields the same network.
pub fn synthesize_tier1(spec: &Tier1Spec, master_seed: u64) -> Network {
    let seed = derive_seed(master_seed, spec.name);
    let mut rng = seeded(seed);
    let cities = sample_cities(spec.pops, &mut rng);
    build_network(spec.name, NetworkKind::Tier1, &cities, spec.hubs, &mut rng)
}

/// Synthesize all seven Tier-1 networks.
pub fn tier1_networks(master_seed: u64) -> Vec<Network> {
    TIER1_SPECS
        .iter()
        .map(|s| synthesize_tier1(s, master_seed))
        .collect()
}

/// Population-weighted sampling of `count` distinct cities.
///
/// The pool is restricted to the top `4·count` markets by population — a
/// 10-PoP Tier-1 builds in the 10–40 biggest US metros, not in random small
/// towns — and within the pool the weight is `population^0.7`, so sibling
/// networks of the same size still differ under the same seed.
fn sample_cities(count: usize, rng: &mut StdRng) -> Vec<&'static City> {
    let pool_size = (4 * count).min(gazetteer::CITIES.len());
    let mut pool: Vec<&City> = gazetteer::top_by_population(pool_size);
    assert!(
        count <= pool.len(),
        "requested {count} PoPs but gazetteer has {}",
        pool.len()
    );
    let mut chosen = Vec::with_capacity(count);
    for _ in 0..count {
        let weights: Vec<f64> = pool
            .iter()
            .map(|c| f64::from(c.population).powf(0.7))
            .collect();
        // Weights are strictly positive powers of population, so the
        // weighted index cannot fail; fall back to the top market if it
        // somehow does.
        let idx = WeightedIndex::new(&weights)
            .map(|w| w.sample(rng))
            .unwrap_or(0);
        chosen.push(pool.swap_remove(idx));
    }
    chosen
}

/// Wire a city set into a network: Gabriel mesh plus hub express links.
/// `rng` drives the corridor pruning that carves realistic coverage holes.
pub(crate) fn build_network(
    name: &str,
    kind: NetworkKind,
    cities: &[&'static City],
    hubs: usize,
    rng: &mut StdRng,
) -> Network {
    let pops: Vec<Pop> = cities
        .iter()
        .map(|c| Pop {
            name: format!("{} {}", c.name, c.state),
            location: c.location(),
        })
        .collect();
    let links = wire_pops(&pops, cities, hubs, rng);
    match Network::new(name, kind, pops, links) {
        Ok(net) => net,
        Err(e) => unreachable!("synthesized links violate model invariants: {e}"),
    }
}

/// Two-tier wiring, matching the character of real Topology Zoo maps:
///
/// - A **backbone** over the largest markets: Gabriel mesh ∪ 2-NN for
///   parallel-corridor redundancy, plus a west→east express ring over the
///   `hubs` top cities.
/// - **Stub PoPs** (everything else) homed to their nearest backbone node;
///   every third stub is dual-homed to its second-nearest backbone node.
///
/// Real ISP maps are stub-heavy (mean degree ≈ 2, with a third of PoPs at
/// degree 1): the bigger the network, the larger its stub share — which is
/// exactly why the paper finds the 233-PoP Level3 benefits *least* from
/// risk-aware routing (stub hops admit no detour).
fn wire_pops(
    pops: &[Pop],
    cities: &[&'static City],
    hubs: usize,
    rng: &mut StdRng,
) -> Vec<(usize, usize)> {
    let n = pops.len();
    if n < 2 {
        return Vec::new();
    }
    // Backbone: the biggest markets. Maps up to ~40 PoPs (AT&T, Sprint,
    // Tinet scale) are meshes without stubs; only the very large maps
    // (Level3's 233 PoPs) are stub-dominated.
    let backbone_count = if n <= 40 { n } else { (n / 4).max(16) };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cities[b].population.cmp(&cities[a].population));
    let backbone: Vec<usize> = order[..backbone_count].to_vec();
    let stubs: Vec<usize> = order[backbone_count..].to_vec();

    let mut links: Vec<(usize, usize)> = Vec::new();
    let push = |links: &mut Vec<(usize, usize)>, a: usize, b: usize| {
        let key = (a.min(b), a.max(b));
        if !links.contains(&key) {
            links.push(key);
        }
    };

    // Backbone mesh. Mid-size maps (<= 40 backbone nodes) use the sparser
    // relative neighborhood graph — real maps that size are chains and
    // rings with coverage holes, which is what gives the provisioning
    // analysis (Eq. 4) genuine >50% shortcut candidates. Large backbones
    // use Gabriel ∪ 2-NN for corridor redundancy.
    let backbone_pops: Vec<Pop> = backbone.iter().map(|&i| pops[i].clone()).collect();
    let metric = |i: usize, j: usize| {
        great_circle_miles(backbone_pops[i].location, backbone_pops[j].location)
    };
    if backbone_pops.len() <= 40 {
        // Small and mid-size maps: a Gabriel mesh with a fraction of its
        // non-MST corridors pruned. Real Topology Zoo maps are *subsets* of
        // the potential corridor graph — the missing corridors are the
        // coverage holes that give Eq. 4 genuine >50% shortcut candidates —
        // while the MST skeleton plus the surviving loops keep route
        // alternatives (and connectivity) intact.
        let mesh = gabriel_graph(backbone_pops.len(), metric);
        let keep: std::collections::HashSet<usize> =
            riskroute_graph::mst::minimum_spanning_forest(&mesh)
                .into_iter()
                .collect();
        for (e, a, b, _) in mesh.edges() {
            if keep.contains(&e) || rng.gen_range(0.0..1.0) >= CORRIDOR_PRUNE_PROB {
                push(&mut links, backbone[a], backbone[b]);
            }
        }
    } else {
        let mesh = gabriel_graph(backbone_pops.len(), metric);
        for (_, a, b, _) in mesh.edges() {
            push(&mut links, backbone[a], backbone[b]);
        }
        for (a, b) in knn_edges(&backbone_pops, 2) {
            push(&mut links, backbone[a], backbone[b]);
        }
    }

    // Express ring over the top hubs, ordered west→east so the ring looks
    // like a long-haul backbone rather than a star.
    let mut hub_ids: Vec<usize> = backbone.clone();
    hub_ids.sort_by(|&a, &b| cities[b].population.cmp(&cities[a].population));
    hub_ids.truncate(hubs.min(backbone.len()));
    hub_ids.sort_by(|&a, &b| pops[a].location.lon().total_cmp(&pops[b].location.lon()));
    if hub_ids.len() >= 2 {
        for w in hub_ids.windows(2) {
            push(&mut links, w[0], w[1]);
        }
    }

    // Stubs: home each to its nearest backbone node; dual-home every third.
    for (si, &s) in stubs.iter().enumerate() {
        let mut nearest: Vec<(usize, f64)> = backbone
            .iter()
            .map(|&b| (b, great_circle_miles(pops[s].location, pops[b].location)))
            .collect();
        nearest.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        push(&mut links, s, nearest[0].0);
        if si % 3 == 2 && nearest.len() > 1 {
            push(&mut links, s, nearest[1].0);
        }
    }
    links
}

/// Probability that a non-MST Gabriel corridor is left unbuilt in small
/// and mid-size maps (see `wire_pops`).
const CORRIDOR_PRUNE_PROB: f64 = 0.6;

/// Each PoP's `k` nearest neighbours as normalized undirected edges.
pub(crate) fn knn_edges(pops: &[Pop], k: usize) -> Vec<(usize, usize)> {
    let n = pops.len();
    let mut out = Vec::new();
    for i in 0..n {
        let mut dists: Vec<(usize, f64)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| (j, great_circle_miles(pops[i].location, pops[j].location)))
            .collect();
        dists.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        for &(j, _) in dists.iter().take(k) {
            let key = (i.min(j), i.max(j));
            if !out.contains(&key) {
                out.push(key);
            }
        }
    }
    out
}

fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_graph::components::is_connected;

    #[test]
    fn specs_match_paper_totals() {
        let total: usize = TIER1_SPECS.iter().map(|s| s.pops).sum();
        assert_eq!(total, 354, "paper reports 354 Tier-1 PoPs");
        assert_eq!(TIER1_SPECS.len(), 7);
        let level3 = TIER1_SPECS.iter().find(|s| s.name == "Level3").unwrap();
        assert_eq!(level3.pops, 233);
    }

    #[test]
    fn synthesis_matches_spec_pop_counts() {
        for spec in TIER1_SPECS {
            let net = synthesize_tier1(spec, 42);
            assert_eq!(net.pop_count(), spec.pops, "{}", spec.name);
            assert_eq!(net.kind(), NetworkKind::Tier1);
            assert_eq!(net.name(), spec.name);
        }
    }

    #[test]
    fn synthesized_networks_are_connected() {
        for spec in TIER1_SPECS {
            let net = synthesize_tier1(spec, 42);
            assert!(
                is_connected(&net.distance_graph()),
                "{} is disconnected",
                spec.name
            );
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synthesize_tier1(&TIER1_SPECS[1], 7);
        let b = synthesize_tier1(&TIER1_SPECS[1], 7);
        assert_eq!(a.pops(), b.pops());
        assert_eq!(a.links(), b.links());
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthesize_tier1(&TIER1_SPECS[1], 7);
        let b = synthesize_tier1(&TIER1_SPECS[1], 8);
        assert_ne!(a.pops(), b.pops());
    }

    #[test]
    fn different_networks_differ_under_same_seed() {
        let nets = tier1_networks(42);
        assert_ne!(nets[1].pops(), nets[4].pops(), "AT&T vs Sprint must differ");
    }

    #[test]
    fn no_duplicate_pops_within_network() {
        let net = synthesize_tier1(&TIER1_SPECS[0], 42); // Level3, 233 PoPs
        let mut names: Vec<&str> = net.pops().iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            net.pop_count(),
            "sampling is without replacement"
        );
    }

    #[test]
    fn mesh_is_sparse_like_real_isps() {
        // Gabriel graphs have at most 3n-8 edges; real PoP meshes sit around
        // 1.2–2 links per PoP. Guard the synthesizer against accidental
        // densification.
        for spec in TIER1_SPECS {
            let net = synthesize_tier1(spec, 42);
            let ratio = net.link_count() as f64 / net.pop_count() as f64;
            assert!(
                (0.9..=3.0).contains(&ratio),
                "{}: {} links for {} PoPs",
                spec.name,
                net.link_count(),
                net.pop_count()
            );
        }
    }

    #[test]
    fn footprint_is_nationwide() {
        // Tier-1 networks must span the country (paper Figure 1-left).
        for spec in TIER1_SPECS {
            let net = synthesize_tier1(spec, 42);
            assert!(
                net.footprint_miles() > 1500.0,
                "{} footprint {}",
                spec.name,
                net.footprint_miles()
            );
        }
    }
}
