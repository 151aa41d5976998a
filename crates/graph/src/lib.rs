//! A from-scratch graph substrate for the RiskRoute reproduction.
//!
//! RiskRoute reduces to shortest-path computations over a *risk graph* whose
//! link weights are bit-risk miles (§6.4 of the paper). Rather than pulling in
//! an external graph library, this crate implements the needed machinery
//! directly, in the spirit of a self-contained, auditable network stack:
//!
//! - [`Graph`] — a compact undirected adjacency-list graph with `f64` edge
//!   weights and stable node/edge identifiers.
//! - [`dijkstra`] — binary-heap Dijkstra: point-to-point queries with path
//!   reconstruction and full single-source trees.
//! - [`components`] — BFS reachability and connected components.
//! - [`centrality`] — weighted betweenness and articulation points (the
//!   criticality measures behind the failure analyses).
//! - [`yen`] — Yen's algorithm for k loopless shortest paths (used to offer
//!   ranked backup-route alternatives).
//! - [`mst`] — Kruskal minimum spanning tree (used to wire synthetic network
//!   backbones).
//! - [`gabriel`] — Gabriel-graph construction over metric point sets (used to
//!   synthesize realistic sparse PoP meshes).
//! - [`unionfind`] — the disjoint-set forest backing Kruskal and components.
//! - [`queue`] — the shared frontier comparator ([`CostEntry`]) and the
//!   monotone [`BucketQueue`] used by the continental-scale SSSP fast path.
//!
//! Weights must be non-negative and finite; [`Graph::add_edge`] enforces this
//! at the boundary so the algorithms never need defensive checks.
//!
//! # Example
//!
//! ```
//! use riskroute_graph::{Graph, dijkstra};
//!
//! let mut g = Graph::with_nodes(4);
//! g.add_edge(0, 1, 1.0).unwrap();
//! g.add_edge(1, 2, 1.0).unwrap();
//! g.add_edge(0, 2, 5.0).unwrap();
//! g.add_edge(2, 3, 1.0).unwrap();
//!
//! let (cost, path) = dijkstra::shortest_path(&g, 0, 3).unwrap();
//! assert_eq!(cost, 3.0);
//! assert_eq!(path, vec![0, 1, 2, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod centrality;
pub mod components;
pub mod dijkstra;
pub mod gabriel;
pub mod graph;
pub mod mst;
pub mod queue;
pub mod unionfind;
pub mod yen;

pub use graph::{EdgeId, Graph, GraphError, NodeId};
pub use queue::{BucketQueue, CostEntry};
