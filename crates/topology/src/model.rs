//! The PoP / link / network data model.

use riskroute_geo::distance::great_circle_miles;
use riskroute_geo::{BoundingBox, GeoPoint};
use riskroute_graph::Graph;
use std::fmt;

/// Index of a PoP within its network (dense, `0..pop_count`).
pub type PopId = usize;

/// Errors from topology construction.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// A link referenced a PoP id at or beyond the PoP count.
    PopOutOfRange {
        /// Offending PoP id.
        pop: PopId,
        /// Number of PoPs in the network.
        count: usize,
    },
    /// A link joined a PoP to itself.
    SelfLink(PopId),
    /// Duplicate link between the same PoP pair.
    DuplicateLink(PopId, PopId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::PopOutOfRange { pop, count } => {
                write!(f, "PoP {pop} out of range (network has {count} PoPs)")
            }
            TopologyError::SelfLink(p) => write!(f, "self-link on PoP {p}"),
            TopologyError::DuplicateLink(a, b) => {
                write!(f, "duplicate link between PoPs {a} and {b}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Whether a network is a nationwide Tier-1 or a smaller regional provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// Nationwide backbone (the paper studies 7 of these, 354 PoPs total).
    Tier1,
    /// Geographically constrained regional provider (16 studied, 455 PoPs).
    Regional,
}

/// A Point of Presence: a named physical infrastructure location.
#[derive(Debug, Clone, PartialEq)]
pub struct Pop {
    /// Human-readable name, usually "City ST".
    pub name: String,
    /// Geographic location.
    pub location: GeoPoint,
}

/// An undirected PoP-to-PoP link with its great-circle length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: PopId,
    /// The other endpoint.
    pub b: PopId,
    /// Line-of-sight length in miles.
    pub miles: f64,
}

/// A single provider's physical infrastructure: PoPs plus line-of-sight
/// links (§4.1 of the paper).
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    kind: NetworkKind,
    pops: Vec<Pop>,
    links: Vec<Link>,
}

impl Network {
    /// Create a network from PoPs and links.
    ///
    /// Link lengths are recomputed from PoP coordinates (callers supply only
    /// endpoints via [`Link`] `a`/`b`; any provided `miles` is ignored), so
    /// the geometry is always self-consistent.
    ///
    /// # Errors
    /// Rejects out-of-range endpoints, self-links, and duplicate links.
    pub fn new(
        name: impl Into<String>,
        kind: NetworkKind,
        pops: Vec<Pop>,
        links: Vec<(PopId, PopId)>,
    ) -> Result<Self, TopologyError> {
        let n = pops.len();
        let mut seen = std::collections::HashSet::new();
        let mut out_links = Vec::with_capacity(links.len());
        for (a, b) in links {
            if a >= n {
                return Err(TopologyError::PopOutOfRange { pop: a, count: n });
            }
            if b >= n {
                return Err(TopologyError::PopOutOfRange { pop: b, count: n });
            }
            if a == b {
                return Err(TopologyError::SelfLink(a));
            }
            let key = (a.min(b), a.max(b));
            if !seen.insert(key) {
                return Err(TopologyError::DuplicateLink(key.0, key.1));
            }
            let miles = great_circle_miles(pops[a].location, pops[b].location);
            out_links.push(Link { a, b, miles });
        }
        Ok(Network {
            name: name.into(),
            kind,
            pops,
            links: out_links,
        })
    }

    /// Network name (e.g. "Level3").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tier-1 or regional.
    pub fn kind(&self) -> NetworkKind {
        self.kind
    }

    /// The network's PoPs, indexed by [`PopId`].
    pub fn pops(&self) -> &[Pop] {
        &self.pops
    }

    /// Number of PoPs.
    pub fn pop_count(&self) -> usize {
        self.pops.len()
    }

    /// The network's links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Location of PoP `p`.
    ///
    /// # Panics
    /// Panics when `p` is out of range.
    pub fn location(&self, p: PopId) -> GeoPoint {
        self.pops[p].location
    }

    /// Whether a link joins `a` and `b`.
    pub fn has_link(&self, a: PopId, b: PopId) -> bool {
        self.links
            .iter()
            .any(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
    }

    /// Build the bit-mile graph: nodes are PoPs, edge weights are link
    /// lengths in miles. This is the substrate for shortest-path (baseline)
    /// routing.
    pub fn distance_graph(&self) -> Graph {
        let mut g = Graph::with_nodes(self.pops.len());
        for l in &self.links {
            // Links were validated in `Network::new` and miles come from
            // great-circle distance, so insertion cannot fail.
            if let Err(e) = g.add_edge(l.a, l.b, l.miles) {
                debug_assert!(false, "validated link rejected: {e}");
            }
        }
        g
    }

    /// The PoP nearest to `p`, with its distance in miles. `None` for an
    /// empty network.
    pub fn nearest_pop(&self, p: GeoPoint) -> Option<(PopId, f64)> {
        self.pops
            .iter()
            .enumerate()
            .map(|(i, pop)| (i, great_circle_miles(p, pop.location)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// Geographic footprint: the largest great-circle distance between any
    /// two PoPs, in miles (Table 3's "Geographic Footprint"). Zero for
    /// networks with fewer than two PoPs.
    pub fn footprint_miles(&self) -> f64 {
        let mut best = 0.0_f64;
        for i in 0..self.pops.len() {
            for j in (i + 1)..self.pops.len() {
                best = best.max(great_circle_miles(
                    self.pops[i].location,
                    self.pops[j].location,
                ));
            }
        }
        best
    }

    /// Bounding box of all PoPs; `None` for an empty network.
    pub fn bounding_box(&self) -> Option<BoundingBox> {
        let pts: Vec<GeoPoint> = self.pops.iter().map(|p| p.location).collect();
        BoundingBox::enclosing(&pts)
    }

    /// Total link mileage.
    pub fn total_link_miles(&self) -> f64 {
        self.links.iter().map(|l| l.miles).sum()
    }

    /// Mean PoP outdegree (2·links / PoPs); zero for an empty network.
    pub fn mean_outdegree(&self) -> f64 {
        if self.pops.is_empty() {
            0.0
        } else {
            2.0 * self.links.len() as f64 / self.pops.len() as f64
        }
    }
}

impl riskroute_json::ToJson for Network {
    fn to_json(&self) -> riskroute_json::Json {
        use riskroute_json::Json;
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            (
                "kind",
                Json::Str(
                    match self.kind {
                        NetworkKind::Tier1 => "tier1",
                        NetworkKind::Regional => "regional",
                    }
                    .to_string(),
                ),
            ),
            (
                "pops",
                Json::Arr(
                    self.pops
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("name", Json::Str(p.name.clone())),
                                ("lat", Json::Num(p.location.lat())),
                                ("lon", Json::Num(p.location.lon())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "links",
                Json::Arr(
                    self.links
                        .iter()
                        .map(|l| Json::Arr(vec![Json::Num(l.a as f64), Json::Num(l.b as f64)]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl riskroute_json::FromJson for Network {
    fn from_json(v: &riskroute_json::Json) -> Result<Self, riskroute_json::JsonError> {
        use riskroute_json::JsonError;
        let name = v.field("name")?.as_str()?.to_string();
        let kind = match v.field("kind")?.as_str()? {
            "tier1" => NetworkKind::Tier1,
            "regional" => NetworkKind::Regional,
            other => return Err(JsonError::Shape(format!("unknown network kind '{other}'"))),
        };
        let mut pops = Vec::new();
        for p in v.field("pops")?.as_arr()? {
            let lat = p.field("lat")?.as_f64()?;
            let lon = p.field("lon")?.as_f64()?;
            pops.push(Pop {
                name: p.field("name")?.as_str()?.to_string(),
                location: GeoPoint::new(lat, lon).map_err(|e| JsonError::Shape(e.to_string()))?,
            });
        }
        let mut links = Vec::new();
        for l in v.field("links")?.as_arr()? {
            let parts = l.as_arr()?;
            if parts.len() != 2 {
                return Err(JsonError::Shape("link must be [a, b]".to_string()));
            }
            links.push((parts[0].as_usize()?, parts[1].as_usize()?));
        }
        Network::new(name, kind, pops, links).map_err(|e| JsonError::Shape(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn pop(name: &str, lat: f64, lon: f64) -> Pop {
        Pop {
            name: name.to_string(),
            location: GeoPoint::new(lat, lon).unwrap(),
        }
    }

    fn triangle() -> Network {
        Network::new(
            "tri",
            NetworkKind::Regional,
            vec![
                pop("Houston TX", 29.76, -95.37),
                pop("Dallas TX", 32.78, -96.80),
                pop("Austin TX", 30.27, -97.74),
            ],
            vec![(0, 1), (1, 2), (2, 0)],
        )
        .unwrap()
    }

    #[test]
    fn construction_computes_link_miles() {
        let net = triangle();
        assert_eq!(net.pop_count(), 3);
        assert_eq!(net.link_count(), 3);
        let houston_dallas = net.links()[0].miles;
        assert!(
            (houston_dallas - 225.0).abs() < 15.0,
            "got {houston_dallas}"
        );
    }

    #[test]
    fn rejects_out_of_range_link() {
        let err = Network::new(
            "bad",
            NetworkKind::Regional,
            vec![pop("A", 30.0, -95.0)],
            vec![(0, 1)],
        )
        .unwrap_err();
        assert_eq!(err, TopologyError::PopOutOfRange { pop: 1, count: 1 });
    }

    #[test]
    fn rejects_self_link() {
        let err = Network::new(
            "bad",
            NetworkKind::Regional,
            vec![pop("A", 30.0, -95.0), pop("B", 31.0, -95.0)],
            vec![(1, 1)],
        )
        .unwrap_err();
        assert_eq!(err, TopologyError::SelfLink(1));
    }

    #[test]
    fn rejects_duplicate_link_any_orientation() {
        let err = Network::new(
            "bad",
            NetworkKind::Regional,
            vec![pop("A", 30.0, -95.0), pop("B", 31.0, -95.0)],
            vec![(0, 1), (1, 0)],
        )
        .unwrap_err();
        assert_eq!(err, TopologyError::DuplicateLink(0, 1));
    }

    #[test]
    fn distance_graph_mirrors_links() {
        let net = triangle();
        let g = net.distance_graph();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for (i, l) in net.links().iter().enumerate() {
            assert_eq!(g.edge_endpoints(i), (l.a, l.b));
            assert_eq!(g.edge_weight(i), l.miles);
        }
    }

    #[test]
    fn nearest_pop_finds_closest() {
        let net = triangle();
        // San Antonio is nearest to Austin (PoP 2).
        let sa = GeoPoint::new(29.42, -98.49).unwrap();
        let (id, d) = net.nearest_pop(sa).unwrap();
        assert_eq!(id, 2);
        assert!(d < 90.0);
    }

    #[test]
    fn footprint_is_max_pairwise() {
        let net = triangle();
        let fp = net.footprint_miles();
        let max_link = net.links().iter().map(|l| l.miles).fold(0.0_f64, f64::max);
        assert!(
            (fp - max_link).abs() < 1e-9,
            "triangle footprint = longest side"
        );
    }

    #[test]
    fn has_link_both_orientations() {
        let net = triangle();
        assert!(net.has_link(0, 1));
        assert!(net.has_link(1, 0));
        let net2 = Network::new(
            "pair",
            NetworkKind::Regional,
            vec![
                pop("A", 30.0, -95.0),
                pop("B", 31.0, -95.0),
                pop("C", 32.0, -95.0),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        assert!(!net2.has_link(0, 2));
    }

    #[test]
    fn mean_outdegree_triangle_is_two() {
        assert!((triangle().mean_outdegree() - 2.0).abs() < 1e-12);
        let empty = Network::new("e", NetworkKind::Regional, vec![], vec![]).unwrap();
        assert_eq!(empty.mean_outdegree(), 0.0);
        assert_eq!(empty.footprint_miles(), 0.0);
        assert!(empty.bounding_box().is_none());
        assert!(empty
            .nearest_pop(GeoPoint::new(30.0, -95.0).unwrap())
            .is_none());
    }

    #[test]
    fn bounding_box_contains_all_pops() {
        let net = triangle();
        let bb = net.bounding_box().unwrap();
        for p in net.pops() {
            assert!(bb.contains(p.location));
        }
    }

    #[test]
    fn json_round_trip() {
        let net = triangle();
        let json = riskroute_json::to_string(&net);
        let back: Network = riskroute_json::from_str(&json).unwrap();
        assert_eq!(back.name(), "tri");
        assert_eq!(back.pop_count(), 3);
        assert_eq!(back.link_count(), 3);
    }
}
