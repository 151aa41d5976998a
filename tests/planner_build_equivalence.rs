//! Bit-pinning guards on the two per-location pieces of a planner build.
//!
//! 1. **o_h memo.** `HistoricalRisk::risk_at_all` memoises o_h per exact
//!    `(lat, lon)`. Over all 809 corpus PoPs (392 distinct locations) it
//!    must return `risk` of each point bit for bit — on the first call, on a
//!    repeat, and through a clone sharing the memo — and the first call must
//!    sum exactly the kernel terms of the 392 distinct locations.
//! 2. **Population shares.** `PopShares::assign` ranks PoPs by chord before
//!    re-ranking near-ties by haversine; the shares of every corpus network
//!    and of a 10,000-PoP synthetic network hash to the digest recorded
//!    with the plain haversine index, under the CLI's population model.

use riskroute::checkpoint::fnv1a_64;
use riskroute::prelude::*;
use riskroute_geo::GeoPoint;
use riskroute_obs::{trace_counters, ObsScope};
use riskroute_topology::scale::synth_network;
use std::collections::HashSet;

/// FNV-1a 64 of every share's little-endian bits, corpus networks in
/// `Corpus::all_networks` order, then `synth_network(10_000, 42)`.
const EXPECTED_SHARES_DIGEST: u64 = 0x9084_1a52_6054_0a2e;

/// Run `f` under its own trace: its value and the kernel terms it summed.
fn kde_terms<T>(f: impl FnOnce() -> T) -> (T, u64) {
    riskroute_obs::enable();
    let scope = ObsScope::begin("risk_at_all");
    let value = {
        let _in_scope = scope.enter();
        f()
    };
    let counters = trace_counters(scope.trace_id());
    let terms = counters.get("kde_terms_evaluated").copied().unwrap_or(0);
    (value, terms)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn memoised_o_h_matches_pointwise_on_every_corpus_pop() {
    let corpus = Corpus::standard(42);
    let pops: Vec<GeoPoint> = corpus
        .all_networks()
        .flat_map(|n| n.pops().iter().map(|p| p.location))
        .collect();
    let mut seen = HashSet::new();
    let unique: Vec<GeoPoint> = pops
        .iter()
        .copied()
        .filter(|p| seen.insert((p.lat().to_bits(), p.lon().to_bits())))
        .collect();
    assert_eq!((pops.len(), unique.len()), (809, 392));

    let hazards = HistoricalRisk::standard(42, Some(3_000));
    let ((first, misses), terms_all) = kde_terms(|| hazards.risk_at_all_counted(&pops));
    assert_eq!(misses, 392, "one evaluation per distinct location");
    let pointwise: Vec<f64> = pops.iter().map(|&p| hazards.risk(p)).collect();
    assert_eq!(bits(&first), bits(&pointwise));

    // A model with an empty memo, asked only the distinct locations, sums
    // the same kernel terms as the 809-point call.
    let fresh = HistoricalRisk::standard(42, Some(3_000));
    let (_, terms_unique) = kde_terms(|| fresh.risk_at_all(&unique));
    assert!(terms_unique > 0);
    assert_eq!(terms_all, terms_unique);

    // Repeats and clones are pure memo hits with the same bits.
    let ((again, misses), terms) = kde_terms(|| hazards.risk_at_all_counted(&pops));
    assert_eq!((misses, terms), (0, 0));
    assert_eq!(bits(&again), bits(&pointwise));
    let clone = hazards.clone();
    let ((cloned, misses), terms) = kde_terms(|| clone.risk_at_all_counted(&pops));
    assert_eq!((misses, terms), (0, 0), "clones share the memo");
    assert_eq!(bits(&cloned), bits(&pointwise));

    // The memo stays out of `Debug`.
    assert_eq!(
        format!("{:?}", HistoricalRisk::new(Vec::new())),
        "HistoricalRisk { surfaces: [], .. }"
    );
}

#[test]
fn pop_shares_digest_is_unchanged() {
    let corpus = Corpus::standard(42);
    let population = PopulationModel::synthesize(42, 20_000);
    let synth = synth_network(10_000, 42).expect("synthetic network");
    let mut bytes = Vec::new();
    let mut pops = 0;
    for net in corpus.all_networks().chain(std::iter::once(&synth)) {
        let shares = PopShares::assign(&population, net, None);
        for s in shares.shares() {
            bytes.extend_from_slice(&s.to_bits().to_le_bytes());
        }
        pops += shares.shares().len();
    }
    assert_eq!(pops, 809 + 10_000);
    let digest = fnv1a_64(&bytes);
    assert_eq!(
        digest, EXPECTED_SHARES_DIGEST,
        "shares digest moved: {digest:#018x} (expected {EXPECTED_SHARES_DIGEST:#018x})"
    );
}
