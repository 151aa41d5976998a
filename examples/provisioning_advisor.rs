//! Provisioning advisor: where should a provider add links, and with whom
//! should a regional network peer, to best reduce bit-risk miles? (§6.3 of
//! the paper — Figures 9, 10, and 11 as a runnable tool.)
//!
//! ```text
//! cargo run --release --example provisioning_advisor            # Sprint
//! cargo run --release --example provisioning_advisor Telepak
//! ```

use riskroute::interdomain::InterdomainAnalysis;
use riskroute::peering::score_peerings;
use riskroute::prelude::*;
use riskroute::provisioning::greedy_links;
use riskroute_topology::colocation::DEFAULT_COLOCATION_MILES;
use riskroute_topology::Network;

fn main() {
    let target = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Sprint".to_string());
    println!("Synthesizing corpus and risk substrate…");
    let corpus = Corpus::standard(42);
    let population = PopulationModel::synthesize(42, 50_000);
    let hazards = HistoricalRisk::standard(42, Some(4_000));
    let Some(net) = corpus.network(&target) else {
        eprintln!(
            "unknown network {target:?}; corpus members: {:?}",
            corpus.all_networks().map(Network::name).collect::<Vec<_>>()
        );
        std::process::exit(2);
    };

    // ── New links (Eq. 4, greedy) ───────────────────────────────────────
    println!(
        "\nBest additional links for {} ({} PoPs, {} links):",
        net.name(),
        net.pop_count(),
        net.link_count()
    );
    let planner = Planner::for_network(
        net,
        &population,
        &hazards,
        RiskWeights::historical_only(1e5),
    );
    let result = greedy_links(net, &planner, 5);
    if result.added.is_empty() {
        println!("  no candidate link passes the >50% bit-mile shortcut filter");
    }
    for (i, link) in result.added.iter().enumerate() {
        println!(
            "  {}. {} <-> {} ({:.0} mi) -> total bit-risk falls to {:.2}% of original",
            i + 1,
            net.pops()[link.a].name,
            net.pops()[link.b].name,
            link.miles,
            100.0 * link.total_bit_risk / result.original_bit_risk
        );
    }

    // ── New peerings (§6.3, Figure 11) ──────────────────────────────────
    println!("\nBest new peering relationships for {}:", net.name());
    let networks: Vec<&Network> = corpus.all_networks().collect();
    let analysis = InterdomainAnalysis::new(
        &networks,
        &corpus.peering,
        &population,
        &hazards,
        RiskWeights::historical_only(1e5),
    );
    let sources = analysis
        .topology()
        .pops_of(net.name())
        .expect("network is in the merged topology");
    let mut dests = Vec::new();
    for r in &corpus.regional {
        dests.extend(
            analysis
                .topology()
                .pops_of(r.name())
                .expect("merged member"),
        );
    }
    let scored = score_peerings(
        &analysis,
        net,
        &networks,
        &corpus.peering,
        DEFAULT_COLOCATION_MILES,
        &sources,
        &dests,
    );
    if scored.is_empty() {
        println!("  no co-located, un-peered candidate networks");
    }
    for (i, s) in scored.iter().take(5).enumerate() {
        println!(
            "  {}. peer with {} ({} co-located hand-off sites) -> lower-bound total bit-risk {:.3e}",
            i + 1,
            s.peer,
            s.handoff_count,
            s.total_bit_risk
        );
    }
    println!("\nCurrent peers: {:?}", corpus.peering.peers_of(net.name()));
}
