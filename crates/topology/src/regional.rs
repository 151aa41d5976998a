//! Synthesizers for the sixteen regional networks of the paper.
//!
//! Figure 2 of the paper names the regional providers; §4.1 reports 455
//! regional PoPs in total. Each regional network here is anchored to the US
//! region the real provider served (Telepak in Mississippi, Bluebird in
//! Missouri, Epoch in Texas, …). PoPs are taken from the gazetteer cities of
//! the anchor states, largest first; when a network has more PoPs than the
//! gazetteer has in-region cities, the synthesizer infills procedurally with
//! small-town PoPs placed deterministically around in-region anchors —
//! mirroring how regional access networks reach towns too small for any
//! national gazetteer.

use crate::gazetteer::{self, City};
use crate::model::{Network, NetworkKind, Pop};
use crate::tier1::build_network;
use riskroute_geo::bbox::CONUS;
use riskroute_geo::distance::{destination, great_circle_miles};
use riskroute_graph::gabriel::gabriel_graph;
use riskroute_rng::StdRng;

/// Specification for one regional network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionalSpec {
    /// Network name as it appears in Figures 2/8/11/13 of the paper.
    pub name: &'static str,
    /// Number of PoPs.
    pub pops: usize,
    /// Anchor states (USPS codes) defining the provider's footprint.
    pub states: &'static [&'static str],
}

/// The sixteen regional networks (Figure 2), PoP counts summing to the
/// paper's 455.
pub const REGIONAL_SPECS: &[RegionalSpec] = &[
    RegionalSpec {
        name: "Abilene",
        pops: 11,
        states: &["CA", "WA", "CO", "TX", "MO", "IL", "IN", "GA", "DC", "NY"],
    },
    RegionalSpec {
        name: "ANS",
        pops: 18,
        states: &["NY", "NJ", "PA", "MD", "VA", "OH", "IL", "CA", "TX"],
    },
    RegionalSpec {
        name: "Bandcon",
        pops: 20,
        states: &["CA", "NV", "AZ", "OR", "WA", "TX", "IL", "NY"],
    },
    RegionalSpec {
        name: "Bluebird",
        pops: 42,
        states: &["MO", "IL", "KS", "IA"],
    },
    RegionalSpec {
        name: "British Telecom",
        pops: 25,
        states: &["NY", "NJ", "MA", "PA", "VA", "IL", "TX", "CA", "GA", "FL"],
    },
    RegionalSpec {
        name: "CoStreet",
        pops: 12,
        states: &["ME", "NH", "VT", "MA"],
    },
    RegionalSpec {
        name: "Digex",
        pops: 18,
        states: &["MD", "VA", "DC", "NJ", "PA", "NY"],
    },
    RegionalSpec {
        name: "Epoch",
        pops: 17,
        states: &["TX"],
    },
    RegionalSpec {
        name: "Globalcenter",
        pops: 16,
        states: &["CA", "NY", "TX", "IL", "WA", "GA"],
    },
    RegionalSpec {
        name: "Goodnet",
        pops: 15,
        states: &["AZ", "NM", "NV", "UT"],
    },
    RegionalSpec {
        name: "Gridnet",
        pops: 25,
        states: &["OH", "MI", "IN", "KY", "PA"],
    },
    RegionalSpec {
        name: "Hibernia",
        pops: 30,
        states: &["MA", "NY", "NJ", "CT", "NH", "ME", "RI", "PA", "VA"],
    },
    RegionalSpec {
        name: "Iris",
        pops: 50,
        states: &["WI", "MN", "IA", "IL", "MI"],
    },
    RegionalSpec {
        name: "NTS",
        pops: 50,
        states: &["TX", "OK", "NM", "LA"],
    },
    RegionalSpec {
        name: "Telepak",
        pops: 70,
        states: &["MS", "LA", "AL", "TN"],
    },
    RegionalSpec {
        name: "USA Network",
        pops: 36,
        states: &["FL", "GA", "SC", "NC", "AL"],
    },
];

/// Look up the spec of a regional network by name (e.g. for its anchor
/// states when applying the paper's state-confined population rule).
pub fn spec_for(name: &str) -> Option<&'static RegionalSpec> {
    REGIONAL_SPECS.iter().find(|s| s.name == name)
}

/// Synthesize one regional network deterministically from `master_seed`.
pub fn synthesize_regional(spec: &RegionalSpec, master_seed: u64) -> Network {
    let seed = derive_seed(master_seed, spec.name);
    let mut rng = StdRng::seed_from_u64(seed);
    let in_region: Vec<&'static City> = gazetteer::cities_in_states(spec.states);
    assert!(
        !in_region.is_empty(),
        "{}: no gazetteer cities in {:?}",
        spec.name,
        spec.states
    );

    if in_region.len() >= spec.pops {
        // Largest in-region markets first — regional providers build out
        // from their biggest markets.
        let mut cities = in_region;
        cities.sort_by(|a, b| b.population.cmp(&a.population).then(a.name.cmp(b.name)));
        cities.truncate(spec.pops);
        build_network(
            spec.name,
            NetworkKind::Regional,
            &cities,
            hub_count(spec.pops),
            &mut rng,
        )
    } else {
        // Use every in-region city, then infill with procedural small towns.
        build_with_infill(spec, &in_region, &mut rng)
    }
}

/// Synthesize all sixteen regional networks.
pub fn regional_networks(master_seed: u64) -> Vec<Network> {
    REGIONAL_SPECS
        .iter()
        .map(|s| synthesize_regional(s, master_seed))
        .collect()
}

fn hub_count(pops: usize) -> usize {
    (pops / 8).clamp(2, 6)
}

/// Build a regional network whose PoP count exceeds the in-region gazetteer:
/// every gazetteer city plus procedurally placed towns 15–80 miles from a
/// population-weighted anchor, kept inside CONUS.
fn build_with_infill(
    spec: &RegionalSpec,
    in_region: &[&'static City],
    rng: &mut StdRng,
) -> Network {
    let mut pops: Vec<Pop> = in_region
        .iter()
        .map(|c| Pop {
            name: format!("{} {}", c.name, c.state),
            location: c.location(),
        })
        .collect();
    let total_pop: f64 = in_region.iter().map(|c| f64::from(c.population)).sum();
    let mut infill_idx = 1;
    while pops.len() < spec.pops {
        // Weighted anchor pick (larger markets sprout more satellite towns).
        let mut ticket = rng.gen_range(0.0..total_pop);
        let mut anchor = in_region[0];
        for c in in_region {
            ticket -= f64::from(c.population);
            if ticket <= 0.0 {
                anchor = c;
                break;
            }
        }
        let bearing = rng.gen_range(0.0..360.0);
        let dist = rng.gen_range(15.0..80.0);
        let loc = destination(anchor.location(), bearing, dist);
        if !CONUS.contains(loc) {
            continue;
        }
        // Keep satellite towns from stacking on existing PoPs.
        let too_close = pops
            .iter()
            .any(|p| great_circle_miles(p.location, loc) < 8.0);
        if too_close {
            continue;
        }
        pops.push(Pop {
            name: format!("{} satellite {} ({})", spec.name, infill_idx, anchor.state),
            location: loc,
        });
        infill_idx += 1;
    }
    let links = wire_gabriel(&pops);
    match Network::new(spec.name, NetworkKind::Regional, pops, links) {
        Ok(net) => net,
        Err(e) => unreachable!("synthesized links violate model invariants: {e}"),
    }
}

fn wire_gabriel(pops: &[Pop]) -> Vec<(usize, usize)> {
    if pops.len() < 2 {
        return Vec::new();
    }
    let mesh = gabriel_graph(pops.len(), |i, j| {
        great_circle_miles(pops[i].location, pops[j].location)
    });
    let mut links: Vec<(usize, usize)> = mesh
        .edges()
        .map(|(_, a, b, _)| (a.min(b), a.max(b)))
        .collect();
    // Same diversity rationale as the Tier-1 synthesizer: Gabriel + 3-NN.
    for (a, b) in crate::tier1::knn_edges(pops, 3) {
        if !links.contains(&(a, b)) {
            links.push((a, b));
        }
    }
    links
}

/// FNV-1a seed derivation (see `tier1` module note on the duplication).
fn derive_seed(master: u64, label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut h = FNV_OFFSET ^ master;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_graph::components::is_connected;

    #[test]
    fn specs_match_paper_totals() {
        let total: usize = REGIONAL_SPECS.iter().map(|s| s.pops).sum();
        assert_eq!(total, 455, "paper reports 455 regional PoPs");
        assert_eq!(
            REGIONAL_SPECS.len(),
            16,
            "paper studies 16 regional networks"
        );
    }

    #[test]
    fn all_figure2_names_present() {
        let names: Vec<&str> = REGIONAL_SPECS.iter().map(|s| s.name).collect();
        for expected in [
            "Abilene",
            "ANS",
            "Bandcon",
            "Bluebird",
            "British Telecom",
            "CoStreet",
            "Digex",
            "Epoch",
            "Globalcenter",
            "Goodnet",
            "Gridnet",
            "Hibernia",
            "Iris",
            "NTS",
            "Telepak",
            "USA Network",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn synthesis_matches_spec_pop_counts() {
        for spec in REGIONAL_SPECS {
            let net = synthesize_regional(spec, 42);
            assert_eq!(net.pop_count(), spec.pops, "{}", spec.name);
            assert_eq!(net.kind(), NetworkKind::Regional);
        }
    }

    #[test]
    fn synthesized_networks_are_connected() {
        for spec in REGIONAL_SPECS {
            let net = synthesize_regional(spec, 42);
            assert!(
                is_connected(&net.distance_graph()),
                "{} is disconnected",
                spec.name
            );
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let telepak = REGIONAL_SPECS.iter().find(|s| s.name == "Telepak").unwrap();
        let a = synthesize_regional(telepak, 9);
        let b = synthesize_regional(telepak, 9);
        assert_eq!(a.pops(), b.pops());
        assert_eq!(a.links(), b.links());
    }

    #[test]
    fn regional_footprints_are_smaller_than_tier1() {
        // Geographically constrained regionals (Telepak, Epoch, Bluebird,
        // CoStreet, Goodnet) must have sub-national footprints.
        for name in ["Telepak", "Epoch", "Bluebird", "CoStreet", "Goodnet"] {
            let spec = REGIONAL_SPECS.iter().find(|s| s.name == name).unwrap();
            let net = synthesize_regional(spec, 42);
            assert!(
                net.footprint_miles() < 1500.0,
                "{} footprint {}",
                name,
                net.footprint_miles()
            );
        }
    }

    #[test]
    fn infill_pops_stay_in_conus_and_apart() {
        let telepak = REGIONAL_SPECS.iter().find(|s| s.name == "Telepak").unwrap();
        let net = synthesize_regional(telepak, 42);
        for p in net.pops() {
            assert!(CONUS.contains(p.location), "{} outside CONUS", p.name);
        }
        for i in 0..net.pop_count() {
            for j in (i + 1)..net.pop_count() {
                let d = great_circle_miles(net.location(i), net.location(j));
                assert!(d > 1.0, "PoPs {i} and {j} are stacked ({d} miles)");
            }
        }
    }

    #[test]
    fn telepak_is_anchored_in_the_south() {
        let telepak = REGIONAL_SPECS.iter().find(|s| s.name == "Telepak").unwrap();
        let net = synthesize_regional(telepak, 42);
        let bb = net.bounding_box().unwrap();
        // Mississippi-centered footprint: roughly 29–37°N, 95–84°W.
        assert!(bb.south() > 28.0 && bb.north() < 38.0, "{bb:?}");
        assert!(bb.west() > -96.5 && bb.east() < -82.0, "{bb:?}");
    }

    #[test]
    fn gabriel_wiring_is_sparse() {
        for spec in REGIONAL_SPECS {
            let net = synthesize_regional(spec, 42);
            let ratio = net.link_count() as f64 / net.pop_count() as f64;
            assert!(
                (0.8..=3.0).contains(&ratio),
                "{}: {} links / {} PoPs",
                spec.name,
                net.link_count(),
                net.pop_count()
            );
        }
    }
}
