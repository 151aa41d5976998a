//! Digest guard on the bits the `backup` golden rounds away.
//!
//! `scripts/backup_golden.txt` pins the ranked paths `riskroute backup`
//! prints, but miles are printed with `{:.0}`, so a one-ulp move in any
//! Eq. 1 term would pass it. This test hashes the exact values instead,
//! over the CLI's planners (seed 42, default λ weights):
//!
//! - every path of `backup_paths` at k = 5 for the golden's three pairs
//!   (Level3 0→100, Level3 17→201, Telepak 3→60): node ids, then the
//!   `to_bits` of `bit_miles`, `risk_miles` and `bit_risk_miles`;
//! - `lfa_next_hops` toward every Telepak destination (primary and
//!   alternate next hop per source, `u64::MAX` for none);
//! - `ospf::risk_aware_weights` on Level3 at the mean impact, as
//!   `riskroute ospf` computes it.
//!
//! The expected digest was recorded before the budgeted-job driver was
//! unified, from the same code the backup golden was made with. A change
//! that moves any of these values must update [`EXPECTED_DIGEST`] and say
//! why in CHANGES.md.

use riskroute::backup::{backup_paths, lfa_next_hops};
use riskroute::checkpoint::fnv1a_64;
use riskroute::ospf::{mean_impact, risk_aware_weights};
use riskroute_cli::{parse_args, CliContext};

/// FNV-1a 64 of the little-endian words listed in the module docs, in
/// that order.
const EXPECTED_DIGEST: u64 = 0x1dbc_eaf3_0317_3dac;

fn push(bytes: &mut Vec<u8>, word: u64) {
    bytes.extend_from_slice(&word.to_le_bytes());
}

fn hop(v: Option<usize>) -> u64 {
    v.map_or(u64::MAX, |v| v as u64)
}

#[test]
fn backup_lfa_and_ospf_digest_is_unchanged() {
    let ctx = CliContext::build(&[]).expect("CLI context");
    let weights = parse_args(&["corpus".to_string()])
        .expect("corpus parses")
        .weights();
    let mut bytes = Vec::new();
    let mut paths = 0;
    for (name, src, dst) in [("Level3", 0, 100), ("Level3", 17, 201), ("Telepak", 3, 60)] {
        let net = ctx.network(name).expect("corpus network");
        let planner = ctx.planner(net, weights);
        let plan = backup_paths(&planner, net, src, dst, 5).expect("reachable pair");
        for path in std::iter::once(&plan.primary).chain(&plan.alternates) {
            for &v in &path.nodes {
                push(&mut bytes, v as u64);
            }
            push(&mut bytes, path.bit_miles.to_bits());
            push(&mut bytes, path.risk_miles.to_bits());
            push(&mut bytes, path.bit_risk_miles.to_bits());
            paths += 1;
        }
    }
    assert_eq!(paths, 15, "k = 5 yields five paths per golden pair");

    let telepak = ctx.network("Telepak").expect("corpus network");
    let planner = ctx.planner(telepak, weights);
    for dst in 0..telepak.pop_count() {
        for hops in lfa_next_hops(&planner, telepak, dst) {
            push(&mut bytes, hops.src as u64);
            push(&mut bytes, hop(hops.primary));
            push(&mut bytes, hop(hops.alternate));
        }
    }

    let level3 = ctx.network("Level3").expect("corpus network");
    let planner = ctx.planner(level3, weights);
    for w in risk_aware_weights(level3, &planner, mean_impact(&planner)) {
        push(&mut bytes, w.to_bits());
    }

    let digest = fnv1a_64(&bytes);
    assert_eq!(
        digest, EXPECTED_DIGEST,
        "backup/LFA/OSPF digest moved: {digest:#018x} (expected {EXPECTED_DIGEST:#018x})"
    );
}
