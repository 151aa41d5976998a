//! Continental-scale synthetic topologies (`riskroute synth`).
//!
//! The paper's ground-truth maps top out at 233 PoPs (Level3). To exercise
//! the engine at 100–1000× that scale, this module grows the gazetteer
//! procedurally: a nationwide **backbone** over the largest real markets
//! (Gabriel mesh ∪ 2-NN plus a west→east express ring, exactly the Tier-1
//! wiring recipe), surrounded by population-weighted **satellite** PoPs
//! scattered 2–55 miles from real anchor cities — the same infill idiom as
//! the regional synthesizer, but with a spatial hash so placement and
//! wiring stay `O(n)` instead of `O(n²)` and 100k-PoP networks build in
//! seconds.
//!
//! Determinism: the same `(n, seed)` pair always yields the same network.
//! All hash-map usage is keyed lookups in fixed iteration order (cell
//! offsets are enumerated deterministically), so no randomized iteration
//! order can leak into the output.

use crate::gazetteer::{self, City};
use crate::model::{Network, NetworkKind, Pop, TopologyError};
use riskroute_geo::bbox::CONUS;
use riskroute_geo::distance::{destination, great_circle_miles};
use riskroute_geo::GeoPoint;
use riskroute_graph::gabriel::gabriel_graph;
use riskroute_rng::StdRng;
use std::collections::HashMap;

/// Approximate continental-US land area, used only to scale the minimum
/// PoP separation with density.
const CONUS_AREA_SQ_MILES: f64 = 3.0e6;

/// Miles per degree of latitude (and per degree of longitude at the
/// equator); the spatial hash sizes its cells conservatively with the
/// *smallest* miles-per-degree-longitude inside CONUS (at 49.5°N).
const MILES_PER_DEG_LON_MIN: f64 = 44.0;

/// Satellite placement distances from the anchor city, in miles.
const SATELLITE_DIST_MILES: std::ops::Range<f64> = 2.0..55.0;

/// Placement attempts before the min-separation constraint is waived for a
/// satellite (guarantees termination on very dense requests).
const MAX_PLACEMENT_ATTEMPTS: usize = 48;

/// Every `DUAL_HOME_STRIDE`-th satellite gets an extra link to its nearest
/// backbone node, bounding stub-tree depth on big networks.
const DUAL_HOME_STRIDE: usize = 16;

/// Synthesize a deterministic `n`-PoP continental network from `seed`.
///
/// The backbone takes the top `clamp(n/50, 40, 400)` gazetteer markets
/// (all of them when `n` is smaller); the remaining PoPs are satellites.
/// Each satellite links to its nearest already-placed PoP (which keeps the
/// network connected by induction), every third also to its second-nearest,
/// and every sixteenth directly to the backbone.
///
/// # Errors
/// Propagates [`TopologyError`] from model construction; the generator
/// itself never produces invalid links, so in practice this is infallible.
pub fn synth_network(n: usize, seed: u64) -> Result<Network, TopologyError> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, "synth"));
    let backbone_count = if n <= 40 {
        n
    } else {
        (n / 50).clamp(40, 400).min(gazetteer::CITIES.len())
    };
    let backbone_cities = gazetteer::top_by_population(backbone_count);
    let mut pops: Vec<Pop> = backbone_cities
        .iter()
        .map(|c| Pop {
            name: format!("{} {}", c.name, c.state),
            location: c.location(),
        })
        .collect();

    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut have: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    let push = |links: &mut Vec<(usize, usize)>,
                have: &mut std::collections::HashSet<(usize, usize)>,
                a: usize,
                b: usize| {
        let key = (a.min(b), a.max(b));
        if a != b && have.insert(key) {
            links.push(key);
        }
    };
    wire_backbone(&pops, &backbone_cities, &mut |a, b| {
        push(&mut links, &mut have, a, b)
    });

    // Spatial hash over every placed PoP. Cell edge covers at least one
    // minimum separation in both axes, so a 3×3 neighborhood scan decides
    // the min-separation test exactly.
    let min_sep = ((CONUS_AREA_SQ_MILES / n.max(1) as f64).sqrt() * 0.45).clamp(1.0, 8.0);
    let cell_deg = min_sep / MILES_PER_DEG_LON_MIN;
    let mut grid = SpatialHash::new(cell_deg);
    for (i, p) in pops.iter().enumerate() {
        grid.insert(p.location, i);
    }

    let total_pop: f64 = gazetteer::CITIES
        .iter()
        .map(|c| f64::from(c.population))
        .sum();
    while pops.len() < n {
        let idx = pops.len();
        let (anchor, loc) = place_satellite(&mut rng, total_pop, &grid, &pops, min_sep);
        pops.push(Pop {
            name: format!("{} {} synth {}", anchor.name, anchor.state, idx),
            location: loc,
        });
        // Nearest two already-placed PoPs: link the first always (keeps the
        // network connected), the second on every third satellite.
        let nn = grid.nearest(loc, 2, &pops);
        if let Some(&first) = nn.first() {
            push(&mut links, &mut have, idx, first);
        }
        if idx % 3 == 2 {
            if let Some(&second) = nn.get(1) {
                push(&mut links, &mut have, idx, second);
            }
        }
        if idx.is_multiple_of(DUAL_HOME_STRIDE) {
            if let Some(bb) = nearest_backbone(loc, &pops, backbone_count) {
                push(&mut links, &mut have, idx, bb);
            }
        }
        grid.insert(loc, idx);
    }

    Network::new(format!("synth-{n}"), NetworkKind::Tier1, pops, links)
}

/// Backbone wiring: Gabriel mesh ∪ 2-NN for corridor redundancy, plus a
/// west→east express ring over the 12 biggest markets — the large-map arm
/// of the Tier-1 recipe.
fn wire_backbone(pops: &[Pop], cities: &[&'static City], push: &mut impl FnMut(usize, usize)) {
    let b = pops.len();
    if b < 2 {
        return;
    }
    let metric = |i: usize, j: usize| great_circle_miles(pops[i].location, pops[j].location);
    for (_, a, c, _) in gabriel_graph(b, metric).edges() {
        push(a, c);
    }
    for (a, c) in crate::tier1::knn_edges(pops, 2) {
        push(a, c);
    }
    let mut hubs: Vec<usize> = (0..b).collect();
    hubs.sort_by(|&x, &y| cities[y].population.cmp(&cities[x].population));
    hubs.truncate(12.min(b));
    hubs.sort_by(|&x, &y| pops[x].location.lon().total_cmp(&pops[y].location.lon()));
    for w in hubs.windows(2) {
        push(w[0], w[1]);
    }
}

/// Pick a population-weighted anchor city and scatter a satellite 2–55
/// miles from it, inside CONUS and at least `min_sep` miles from every
/// placed PoP. After [`MAX_PLACEMENT_ATTEMPTS`] rejected candidates the
/// separation constraint is waived (the anchor's location itself is the
/// final in-CONUS fallback), so the loop always terminates.
fn place_satellite(
    rng: &mut StdRng,
    total_pop: f64,
    grid: &SpatialHash,
    pops: &[Pop],
    min_sep: f64,
) -> (&'static City, GeoPoint) {
    let mut last: Option<(&'static City, GeoPoint)> = None;
    for attempt in 0..MAX_PLACEMENT_ATTEMPTS {
        let mut ticket = rng.gen_range(0.0..total_pop);
        let mut anchor = &gazetteer::CITIES[0];
        for c in gazetteer::CITIES {
            ticket -= f64::from(c.population);
            if ticket <= 0.0 {
                anchor = c;
                break;
            }
        }
        let bearing = rng.gen_range(0.0..360.0);
        let dist = rng.gen_range(SATELLITE_DIST_MILES);
        let loc = destination(anchor.location(), bearing, dist);
        if !CONUS.contains(loc) {
            continue;
        }
        last = Some((anchor, loc));
        let crowded = grid
            .neighborhood(loc)
            .any(|i| great_circle_miles(pops[i].location, loc) < min_sep);
        if !crowded || attempt + 1 == MAX_PLACEMENT_ATTEMPTS {
            return (anchor, loc);
        }
    }
    match last {
        Some(found) => found,
        // Every attempt left CONUS: fall back to the top market itself,
        // which is inside CONUS by gazetteer invariant.
        None => (&gazetteer::CITIES[0], gazetteer::CITIES[0].location()),
    }
}

/// Nearest backbone PoP (indices `0..backbone_count`) by great-circle
/// distance, ties toward the lower index.
fn nearest_backbone(loc: GeoPoint, pops: &[Pop], backbone_count: usize) -> Option<usize> {
    (0..backbone_count.min(pops.len())).min_by(|&a, &b| {
        great_circle_miles(pops[a].location, loc)
            .total_cmp(&great_circle_miles(pops[b].location, loc))
            .then(a.cmp(&b))
    })
}

/// Uniform-cell spatial hash over (lat, lon) degrees.
///
/// Only ever *queried* in deterministic cell-offset order; map iteration
/// order is never observed, so `HashMap` randomization cannot perturb the
/// synthesized network.
struct SpatialHash {
    cells: HashMap<(i64, i64), Vec<usize>>,
    cell_deg: f64,
}

impl SpatialHash {
    fn new(cell_deg: f64) -> Self {
        SpatialHash {
            cells: HashMap::new(),
            cell_deg: cell_deg.max(1e-6),
        }
    }

    fn cell_of(&self, p: GeoPoint) -> (i64, i64) {
        (
            (p.lat() / self.cell_deg).floor() as i64,
            (p.lon() / self.cell_deg).floor() as i64,
        )
    }

    fn insert(&mut self, p: GeoPoint, idx: usize) {
        self.cells.entry(self.cell_of(p)).or_default().push(idx);
    }

    /// All indices in the 3×3 cell neighborhood of `p`, in deterministic
    /// (cell-offset, insertion) order.
    fn neighborhood(&self, p: GeoPoint) -> impl Iterator<Item = usize> + '_ {
        let (cr, cc) = self.cell_of(p);
        (-1i64..=1).flat_map(move |dr| {
            (-1i64..=1).flat_map(move |dc| {
                self.cells
                    .get(&(cr + dr, cc + dc))
                    .map(|v| v.iter().copied())
                    .into_iter()
                    .flatten()
            })
        })
    }

    /// The `k` nearest placed PoPs to `p` via expanding ring search: scan
    /// cell perimeters of growing Chebyshev radius, and once `k` candidates
    /// are in hand scan one extra ring (a point in ring `r+1` can still
    /// beat one found in ring `r`) before returning the `(distance, index)`
    /// minima.
    fn nearest(&self, p: GeoPoint, k: usize, pops: &[Pop]) -> Vec<usize> {
        let (cr, cc) = self.cell_of(p);
        let mut found: Vec<(f64, usize)> = Vec::new();
        let mut extra_rings = 0usize;
        // CONUS spans < 60° of longitude; beyond that radius in cells the
        // grid is exhausted.
        let max_r = (60.0 / self.cell_deg).ceil() as i64 + 1;
        for r in 0..=max_r {
            let visit = |cell: (i64, i64), found: &mut Vec<(f64, usize)>| {
                if let Some(v) = self.cells.get(&cell) {
                    for &i in v {
                        found.push((great_circle_miles(pops[i].location, p), i));
                    }
                }
            };
            if r == 0 {
                visit((cr, cc), &mut found);
            } else {
                for dc in -r..=r {
                    visit((cr - r, cc + dc), &mut found);
                    visit((cr + r, cc + dc), &mut found);
                }
                for dr in (-r + 1)..r {
                    visit((cr + dr, cc - r), &mut found);
                    visit((cr + dr, cc + r), &mut found);
                }
            }
            if found.len() >= k {
                extra_rings += 1;
                if extra_rings > 1 {
                    break;
                }
            }
        }
        found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        found.truncate(k);
        found.into_iter().map(|(_, i)| i).collect()
    }
}

/// FNV-1a seed derivation (see the `tier1` module note on why this is
/// duplicated rather than imported from the stats crate).
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
    fn synthesis_is_deterministic() {
        let a = synth_network(300, 7).unwrap();
        let b = synth_network(300, 7).unwrap();
        assert_eq!(a.pops(), b.pops());
        assert_eq!(a.links(), b.links());
    }

    #[test]
    fn different_seeds_differ() {
        let a = synth_network(300, 7).unwrap();
        let b = synth_network(300, 8).unwrap();
        assert_ne!(a.pops(), b.pops());
    }

    #[test]
    fn pop_counts_are_exact() {
        for n in [1, 25, 40, 41, 300, 1000] {
            let net = synth_network(n, 42).unwrap();
            assert_eq!(net.pop_count(), n, "n = {n}");
        }
    }

    #[test]
    fn network_is_connected() {
        let net = synth_network(600, 42).unwrap();
        assert!(is_connected(&net.distance_graph()));
    }

    #[test]
    fn all_pops_inside_conus_with_unique_names() {
        let net = synth_network(500, 42).unwrap();
        let mut names: Vec<&str> = Vec::new();
        for p in net.pops() {
            assert!(CONUS.contains(p.location), "{} outside CONUS", p.name);
            names.push(&p.name);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), net.pop_count(), "names must be unique");
    }

    #[test]
    fn mesh_stays_sparse_like_real_isps() {
        for n in [300, 2000] {
            let net = synth_network(n, 42).unwrap();
            let ratio = net.link_count() as f64 / net.pop_count() as f64;
            assert!(
                (0.9..=3.0).contains(&ratio),
                "{n} PoPs wired with {} links",
                net.link_count()
            );
        }
    }

    #[test]
    fn footprint_is_nationwide() {
        let net = synth_network(1000, 42).unwrap();
        assert!(net.footprint_miles() > 1500.0);
    }

    #[test]
    fn small_n_is_all_backbone() {
        // n ≤ 40 networks are pure backbone: every PoP is a real market.
        let net = synth_network(25, 1).unwrap();
        for p in net.pops() {
            assert!(!p.name.contains("synth"), "{} is a satellite", p.name);
        }
    }
}
