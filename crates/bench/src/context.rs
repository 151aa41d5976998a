//! The shared experiment context.

use riskroute::prelude::*;
use riskroute_hazard::HistoricalRisk;
use riskroute_population::{PopulationModel, PAPER_BLOCK_COUNT};
use riskroute_topology::Corpus;

/// The master seed for every experiment: all tables and figures regenerate
/// bit-identically from it.
pub const MASTER_SEED: u64 = 42;

/// Everything the experiments share: the 23-network corpus, the census
/// block model, and the five-corpus hazard model.
pub struct ExperimentContext {
    /// The 23 synthesized networks plus Figure-2 peering.
    pub corpus: Corpus,
    /// Synthetic census blocks (paper count: 215,932).
    pub population: PopulationModel,
    /// The aggregate historical risk model (full paper event counts).
    pub hazards: HistoricalRisk,
}

impl ExperimentContext {
    /// Build the full-scale context (paper-sized corpora; a few seconds).
    pub fn standard() -> Self {
        ExperimentContext {
            corpus: Corpus::standard(MASTER_SEED),
            population: PopulationModel::synthesize(MASTER_SEED, PAPER_BLOCK_COUNT),
            hazards: HistoricalRisk::standard(MASTER_SEED, Some(20_000)),
        }
    }

    /// Intradomain planner for a corpus network under `weights`.
    pub fn planner_for(&self, network: &Network, weights: RiskWeights) -> Planner {
        Planner::for_network(network, &self.population, &self.hazards, weights)
    }
}
