//! A from-scratch graph substrate for the RiskRoute reproduction.
//!
//! RiskRoute reduces to shortest-path computations over a *risk graph* whose
//! link weights are bit-risk miles (§6.4 of the paper). Those searches all
//! run on one kernel, the CSR engine of the core crate (`riskroute::engine`);
//! this crate holds the data structures and the algorithms that are not
//! shortest paths, implemented directly rather than pulled in from an
//! external graph library, in the spirit of a self-contained, auditable
//! network stack:
//!
//! - [`Graph`] — a compact undirected adjacency-list graph with `f64` edge
//!   weights and stable node/edge identifiers.
//! - [`components`] — BFS reachability and connected components.
//! - [`centrality`] — weighted betweenness and articulation points (the
//!   criticality measures behind the failure analyses). Brandes counts every
//!   shortest path, so it keeps its own search.
//! - [`mst`] — Kruskal minimum spanning tree (used to wire synthetic network
//!   backbones).
//! - [`gabriel`] — Gabriel-graph construction over metric point sets (used to
//!   synthesize realistic sparse PoP meshes).
//! - [`unionfind`] — the disjoint-set forest backing Kruskal and components.
//! - [`queue`] — the shared frontier comparator ([`CostEntry`]) and the
//!   monotone [`BucketQueue`] the engine's SSSP runs on.
//!
//! Weights must be non-negative and finite; [`Graph::add_edge`] enforces this
//! at the boundary so the algorithms never need defensive checks.
//!
//! # Example
//!
//! ```
//! use riskroute_graph::{components, Graph};
//!
//! let mut g = Graph::with_nodes(4);
//! g.add_edge(0, 1, 1.0).unwrap();
//! g.add_edge(1, 2, 1.0).unwrap();
//! g.add_edge(0, 2, 5.0).unwrap();
//!
//! assert_eq!(components::connected_components(&g), vec![vec![0, 1, 2], vec![3]]);
//! assert!(!components::is_connected(&g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod centrality;
pub mod components;
pub mod gabriel;
pub mod graph;
pub mod mst;
pub mod queue;
pub mod unionfind;

pub use graph::{EdgeId, Graph, GraphError, NodeId};
pub use queue::{BucketQueue, CostEntry};
