//! Tracing must be free of observable effect: daemon responses are
//! byte-identical with collection enabled or disabled at any worker count,
//! and when eight clients hammer the daemon concurrently, the per-trace
//! attribution tables account for *all* engine work — per-trace SSSP-run
//! and route-cache counters sum exactly to the global deltas, with no lost
//! or cross-attributed work. The Figure-11 peering scores are identical
//! with tracing off, on, and on inside a request scope.
//!
//! One `#[test]` on purpose: the obs collector is process-global, and the
//! enable/disable toggling here needs exclusive ownership of it.

use riskroute::interdomain::InterdomainAnalysis;
use riskroute::peering::score_peerings;
use riskroute::prelude::*;
use riskroute_topology::colocation::DEFAULT_COLOCATION_MILES;
use riskroute_topology::Network;
use riskroute_cli::commands::ServeHandler;
use riskroute_cli::{parse_args, CliContext};
use riskroute_serve::{ServeConfig, Server, SpawnedServer};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// Spawn an in-process daemon whose handler runs at `workers` threads.
fn daemon(workers: Parallelism) -> (SpawnedServer, SocketAddr) {
    let mut ctx = CliContext::build(&[]).expect("context");
    ctx.parallelism = workers;
    let cli = parse_args(&["corpus".to_string()]).expect("parse");
    let handler = Arc::new(ServeHandler::new(ctx, cli.weights(), None));
    let server = Server::bind_tcp("127.0.0.1:0", handler, ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    (server.spawn(), addr)
}

/// One request line in, the raw response line out (byte comparison needs
/// the unparsed wire bytes).
fn query_raw(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    let mut reader = BufReader::new(stream);
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    out
}

/// Requests that exercise SSSP, the route-tree cache, parallel pair
/// sweeps, and the scenario engine.
const CASES: &[&str] = &[
    r#"{"id":1,"op":"route","network":"Sprint","src":"0","dst":"5"}"#,
    r#"{"id":2,"op":"ratio","network":"Telepak"}"#,
    r#"{"id":3,"op":"sweep","network":"Telepak","mode":"n1"}"#,
    r#"{"id":4,"op":"corpus"}"#,
];

#[test]
fn tracing_never_changes_bytes_and_attribution_sums_to_global_deltas() {
    // Part 1: byte-identical responses with tracing off vs on, at one, two,
    // and eight workers.
    for workers in [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ] {
        riskroute_obs::disable();
        riskroute_obs::reset();
        let (server, addr) = daemon(workers);
        let plain: Vec<String> = CASES.iter().map(|req| query_raw(addr, req)).collect();
        let report = server.drain_and_join();
        assert!(!report.forced, "{workers:?}");

        riskroute_obs::reset();
        riskroute_obs::enable();
        let (server, addr) = daemon(workers);
        let traced: Vec<String> = CASES.iter().map(|req| query_raw(addr, req)).collect();
        let report = server.drain_and_join();
        assert!(!report.forced, "{workers:?}");
        riskroute_obs::disable();

        assert_eq!(
            plain, traced,
            "tracing changed response bytes at {workers:?}"
        );
    }

    // Part 2: eight concurrent clients; per-trace engine counters must sum
    // exactly to the global deltas — nothing lost, nothing cross-attributed
    // to a foreign trace or left unattributed.
    riskroute_obs::reset();
    riskroute_obs::enable();
    let (server, addr) = daemon(Parallelism::Threads(2));
    let tracked = ["risk_sssp_runs", "route_cache_hits", "route_cache_misses"];
    let before: Vec<u64> = tracked
        .iter()
        .map(|n| riskroute_obs::counter_value(n))
        .collect();
    let requests: Vec<String> = (0..8)
        .map(|i| match i % 4 {
            0 => format!(
                r#"{{"id":{i},"op":"route","network":"Sprint","src":"0","dst":"{}"}}"#,
                i + 2
            ),
            1 => format!(
                r#"{{"id":{i},"op":"route","network":"Telepak","src":"1","dst":"{}"}}"#,
                i + 2
            ),
            2 => format!(r#"{{"id":{i},"op":"ratio","network":"Telepak"}}"#),
            _ => format!(r#"{{"id":{i},"op":"sweep","network":"Telepak","mode":"n1"}}"#),
        })
        .collect();
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|req| scope.spawn(move || query_raw(addr, req)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (req, reply) in requests.iter().zip(&replies) {
        assert!(
            reply.contains("\"status\":\"ok\""),
            "{req} failed: {reply}"
        );
    }
    let report = server.drain_and_join();
    assert!(!report.forced, "{report:?}");
    riskroute_obs::disable();

    let snap = riskroute_obs::snapshot();
    assert_eq!(
        snap.traces.len(),
        8,
        "one trace per admitted request: {:?}",
        snap.traces
    );
    for (name, before) in tracked.iter().zip(before) {
        let global_delta = snap.counters.get(*name).copied().unwrap_or(0) - before;
        let per_trace_sum: u64 = snap
            .traces
            .values()
            .map(|t| t.counters.get(*name).copied().unwrap_or(0))
            .sum();
        assert_eq!(
            per_trace_sum, global_delta,
            "{name}: per-trace attribution must sum to the global delta"
        );
    }
    // The workload actually exercised the engine — the equality above is
    // not vacuous.
    assert!(
        snap.counters.get("risk_sssp_runs").copied().unwrap_or(0) > 0,
        "workload drove no SSSP runs"
    );

    // Part 3: the Figure-11 peering scores for a few sources of the first
    // regional network, tracing off, on, and on inside a request scope.
    let corpus = Corpus::standard(42);
    let population = PopulationModel::synthesize(42, 4_000);
    let hazards = riskroute_hazard::HistoricalRisk::standard(42, Some(800));
    let networks: Vec<&Network> = corpus.all_networks().collect();
    let analysis = InterdomainAnalysis::new(
        &networks,
        &corpus.peering,
        &population,
        &hazards,
        RiskWeights::historical_only(1e5),
    );
    let regional = &corpus.regional[0];
    let sources: Vec<usize> = analysis.topology().pops_of(regional.name()).unwrap()[..3].to_vec();
    let dests: Vec<usize> = corpus
        .regional
        .iter()
        .flat_map(|net| analysis.topology().pops_of(net.name()).unwrap())
        .collect();
    let sweep = || {
        score_peerings(
            &analysis,
            regional,
            &networks,
            &corpus.peering,
            DEFAULT_COLOCATION_MILES,
            &sources,
            &dests,
        )
    };
    riskroute_obs::disable();
    let off = sweep();
    riskroute_obs::enable();
    let on = sweep();
    let scope = riskroute_obs::ObsScope::begin("peering_sweep");
    let scoped = {
        let _attr = scope.enter();
        sweep()
    };
    riskroute_obs::disable();
    assert!(!off.is_empty(), "{} has no candidate peering", regional.name());
    assert_eq!(off, on, "tracing changed the peering scores");
    assert_eq!(off, scoped, "scoped attribution changed the peering scores");
}
