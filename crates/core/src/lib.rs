//! # RiskRoute
//!
//! A reproduction of *RiskRoute: A Framework for Mitigating Network Outage
//! Threats* (Eriksson, Durairajan, Barford — ACM CoNEXT 2013).
//!
//! RiskRoute routes and provisions networks around **bit-risk miles**: the
//! geographic distance network traffic travels plus the impact-scaled,
//! expected outage risk it encounters along the way (Definition 1 / Eq. 1 of
//! the paper). On top of that metric the framework provides:
//!
//! - **Intradomain RiskRoute** ([`intradomain`]): the minimum bit-risk-mile
//!   path between two PoPs of one provider (Eq. 3), and the aggregate
//!   risk-reduction / distance-increase trade-off against shortest-path
//!   routing (Eqs. 5–6).
//! - **Interdomain RiskRoute** ([`interdomain`]): upper/lower bit-risk
//!   bounds when traffic crosses peering networks (§6.2).
//! - **Provisioning** ([`provisioning`]): the new PoP-to-PoP links that most
//!   reduce total bit-risk miles (Eq. 4, with the paper's >50 % bit-mile
//!   shortcut filter), greedily extended to k links.
//! - **Peering recommendations** ([`peering`]): the best new peering /
//!   multihoming egress for a network (§6.3).
//! - **Disaster replay** ([`replay`]): advisory-by-advisory evaluation of
//!   routing during Hurricanes Irene, Katrina, and Sandy (§7.3).
//! - **Backup routing** ([`backup`]): the §3.1 deployment shapes — ranked
//!   loopless alternates (MPLS failover) and RFC 5714-style loop-free
//!   alternate next hops, both under the bit-risk metric.
//! - **Failure injection** ([`failure`]): impose a storm's damage on a
//!   topology and measure partitions and stranded population; rank PoPs by
//!   risk-weighted criticality.
//! - **Corridor risk** ([`corridor`]): integrate hazard risk along each
//!   link's line-of-sight fiber path and group links into shared-risk link
//!   groups.
//! - **Deployment paths** (§3.1): risk-aware OSPF link weights with a
//!   fidelity evaluation against the exact optimum ([`ospf`]).
//! - **Scenario forks & resilience sweeps** ([`scenario`]): copy-on-write
//!   failure forks of a planner (deactivated PoPs/links, forecast
//!   overrides) that compose for N-2, plus deterministic N-1/N-2 sweep
//!   drivers and seeded Monte-Carlo hazard ensembles producing ranked
//!   criticality reports.
//! - **Budgeted execution & checkpoints** ([`budget`], [`checkpoint`]):
//!   cooperative deadlines, work caps, and cancellation for the expensive
//!   computations, plus crash-safe snapshot/resume of provisioning,
//!   replay, and scenario sweeps.
//!
//! # Quickstart
//!
//! ```
//! use riskroute::prelude::*;
//!
//! // Synthesize the paper's evaluation corpus (23 US networks) and a
//! // reduced-size population/hazard substrate for speed.
//! let corpus = Corpus::standard(42);
//! let population = PopulationModel::synthesize(42, 2_000);
//! let hazards = HistoricalRisk::standard(42, Some(300));
//!
//! let level3 = corpus.network("Level3").unwrap();
//! let planner = Planner::for_network(level3, &population, &hazards, RiskWeights::default());
//!
//! // Minimum bit-risk-mile route vs geographic shortest path.
//! let risky = planner.shortest_route(0, 5).unwrap();
//! let safe = planner.risk_route(0, 5).unwrap();
//! assert!(safe.bit_risk_miles <= risky.bit_risk_miles + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod backup;
pub mod budget;
pub mod chaos;
pub mod checkpoint;
pub mod corridor;
pub mod engine;
pub mod error;
pub mod failure;
pub mod interdomain;
pub mod intradomain;
pub mod metric;
pub mod ospf;
pub mod peering;
pub mod provisioning;
pub mod ratios;
pub mod replay;
pub mod routing;
pub mod scenario;

pub use budget::{Budgeted, StopReason, WorkBudget};
pub use error::{render_chain, Error, Result};
pub use intradomain::{Planner, PlannerPool};
pub use metric::{NodeRisk, RiskWeights};
pub use ratios::{PairOutcome, RatioReport};
pub use riskroute_par::Parallelism;
pub use routing::RoutedPath;
pub use scenario::{
    base_exposure, run_sweep, run_sweep_budgeted, scenario_specs, ExposureReport, FailElement,
    ScenarioDelta, ScenarioFork, ScenarioSpec, SweepMode, SweepOutcome, SweepPrior, SweepRecord,
};

/// Convenient re-exports for driving the framework end to end.
pub mod prelude {
    pub use crate::backup::{backup_paths, lfa_next_hops};
    pub use crate::budget::{Budgeted, StopReason, WorkBudget};
    pub use crate::checkpoint::{LoadOutcome, Snapshot};
    pub use crate::failure::{criticality_ranking, storm_failure};
    pub use crate::interdomain::InterdomainAnalysis;
    pub use crate::intradomain::{Planner, PlannerPool};
    pub use crate::metric::{NodeRisk, RiskWeights};
    pub use crate::provisioning::{best_additional_link, greedy_links};
    pub use crate::ratios::RatioReport;
    pub use crate::replay::DisasterReplay;
    pub use crate::routing::RoutedPath;
    pub use crate::scenario::{run_sweep, ScenarioDelta, ScenarioFork, SweepMode, SweepOutcome};
    pub use riskroute_forecast::{advisories_for, Storm};
    pub use riskroute_hazard::HistoricalRisk;
    pub use riskroute_par::Parallelism;
    pub use riskroute_population::{PopShares, PopulationModel};
    pub use riskroute_topology::{Corpus, Network, NetworkKind};
}
