//! Digest guard on the historical risk `o_h` the planner is built from.
//!
//! Hashes the `f64::to_bits` of `NodeRisk::from_historical` for every PoP of
//! the 23 corpus networks and of a 1,000-PoP synthetic network, under the
//! CLI's hazard model (seed 42, at most 3,000 events per kind). The
//! expected digest was recorded before the hazard kernel learned to skip
//! events whose Gaussian underflows, so it pins the pruned kernel to the
//! plain sum bit for bit. A change that moves any o_h value must update
//! [`EXPECTED_DIGEST`] and say why in CHANGES.md.

use riskroute::checkpoint::fnv1a_64;
use riskroute::prelude::*;
use riskroute_topology::scale::synth_network;

/// FNV-1a 64 of every o_h value's little-endian bits, corpus networks in
/// `Corpus::all_networks` order, then the synthetic network.
const EXPECTED_DIGEST: u64 = 0xf67a_1f62_c76c_f03e;

#[test]
fn node_risk_digest_is_unchanged() {
    let corpus = Corpus::standard(42);
    let hazards = HistoricalRisk::standard(42, Some(3_000));
    let synth = synth_network(1_000, 42).expect("synthetic network");
    let mut bytes = Vec::new();
    let mut pops = 0;
    for net in corpus.all_networks().chain(std::iter::once(&synth)) {
        let risk = NodeRisk::from_historical(net, &hazards);
        for v in 0..risk.len() {
            bytes.extend_from_slice(&risk.historical(v).to_bits().to_le_bytes());
        }
        pops += risk.len();
    }
    assert_eq!(pops, 809 + 1_000);
    let digest = fnv1a_64(&bytes);
    assert_eq!(
        digest, EXPECTED_DIGEST,
        "o_h digest moved: {digest:#018x} (expected {EXPECTED_DIGEST:#018x})"
    );
}
