//! Serve-vs-batch equivalence: a query answered by the warm daemon must be
//! byte-identical to the same command run one-shot — at any worker count,
//! across repeated requests against the same warm engine, and for budgeted
//! partials. The daemon reuses the CLI's pure command functions over a
//! pooled planner, so these are `assert_eq!` checks on the full output
//! strings, not shape checks.

use riskroute::Parallelism;
use riskroute_cli::commands::ServeHandler;
use riskroute_cli::{parse_args, run, CliContext, CliError};
use riskroute_serve::{ServeConfig, Server, SpawnedServer};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// Run the one-shot CLI in-process (no argv[0]), argument errors included.
fn one_shot(argv: &str) -> Result<String, CliError> {
    let args: Vec<String> = argv.split_whitespace().map(String::from).collect();
    parse_args(&args).and_then(|cli| run(&cli))
}

/// Spawn an in-process daemon whose handler runs at `workers` threads,
/// default weights, no default deadline.
fn daemon(workers: Parallelism) -> (SpawnedServer, SocketAddr) {
    let mut ctx = CliContext::build(&[]).expect("context");
    ctx.parallelism = workers;
    let cli = parse_args(&["corpus".to_string()]).expect("parse");
    let handler = Arc::new(ServeHandler::new(ctx, cli.weights(), None));
    let server = Server::bind_tcp("127.0.0.1:0", handler, ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    (server.spawn(), addr)
}

/// One request line in, one raw response line out.
fn query_line(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    let mut reader = BufReader::new(stream);
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    out
}

/// One request line in, one parsed response document out.
fn query(addr: SocketAddr, line: &str) -> riskroute_json::Json {
    riskroute_json::parse(query_line(addr, line).trim_end()).expect("response parses")
}

fn field<'a>(doc: &'a riskroute_json::Json, name: &str) -> &'a str {
    doc.field(name)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|e| panic!("field {name}: {e} in {doc:?}"))
}

/// The two surfaces, row by row: each one-shot command, its serve request,
/// and the one-shot exit code. Every served op appears with defaults only
/// and with every field set (a budget loose enough never to cut); the error
/// rows pair the same bad input on both surfaces.
const CASES: &[(&str, &str, i32)] = &[
    ("corpus", r#"{"op":"corpus"}"#, 0),
    (
        "--lambda-h 1e6 --lambda-f 1e2 corpus",
        r#"{"op":"corpus","lambda_h":1e6,"lambda_f":1e2}"#,
        0,
    ),
    (
        "route Sprint 0 5",
        r#"{"op":"route","network":"Sprint","src":"0","dst":"5"}"#,
        0,
    ),
    (
        "--lambda-h 1e6 --lambda-f 1e2 route Sprint 0 5",
        r#"{"op":"route","network":"Sprint","src":"0","dst":"5","lambda_h":1e6,"lambda_f":1e2}"#,
        0,
    ),
    // A zero-length path: both surfaces print `n/a`, not NaN percentages.
    (
        "route Level3 3 3",
        r#"{"op":"route","network":"Level3","src":"3","dst":"3"}"#,
        0,
    ),
    ("ratio Telepak", r#"{"op":"ratio","network":"Telepak"}"#, 0),
    (
        "--lambda-h 1e6 --lambda-f 1e2 ratio Telepak --sample 32 --seed 7",
        r#"{"op":"ratio","network":"Telepak","sample":32,"seed":7,"lambda_h":1e6,"lambda_f":1e2}"#,
        0,
    ),
    (
        "provision Telepak",
        r#"{"op":"provision","network":"Telepak"}"#,
        0,
    ),
    (
        "provision Telepak -k 2",
        r#"{"op":"provision","network":"Telepak","k":2}"#,
        0,
    ),
    (
        "--lambda-h 1e6 --lambda-f 1e2 provision Telepak -k 2 --max-work 1000000 \
         --deadline-ms 600000",
        r#"{"op":"provision","network":"Telepak","k":2,"max_work":1000000,"deadline_ms":600000,"lambda_h":1e6,"lambda_f":1e2}"#,
        0,
    ),
    (
        "replay Telepak katrina",
        r#"{"op":"replay","network":"Telepak","storm":"katrina"}"#,
        0,
    ),
    (
        "--lambda-h 1e6 --lambda-f 1e2 replay Telepak katrina --stride 20 --max-work 1000000 \
         --deadline-ms 600000",
        r#"{"op":"replay","network":"Telepak","storm":"katrina","stride":20,"max_work":1000000,"deadline_ms":600000,"lambda_h":1e6,"lambda_f":1e2}"#,
        0,
    ),
    ("sweep Telepak", r#"{"op":"sweep","network":"Telepak"}"#, 0),
    (
        "sweep Telepak --mode n1",
        r#"{"op":"sweep","network":"Telepak","mode":"n1"}"#,
        0,
    ),
    (
        "--lambda-h 1e6 --lambda-f 1e2 sweep Telepak --mode n2 --samples 4 --seed 3 \
         --max-work 1000000 --deadline-ms 600000",
        r#"{"op":"sweep","network":"Telepak","mode":"n2","samples":4,"seed":3,"max_work":1000000,"deadline_ms":600000,"lambda_h":1e6,"lambda_f":1e2}"#,
        0,
    ),
    // Error rows: the serve exit code must be the one-shot exit code.
    (
        "route Sprint 0",
        r#"{"op":"route","network":"Sprint","src":"0"}"#,
        2,
    ),
    (
        "route Nope 0 5",
        r#"{"op":"route","network":"Nope","src":"0","dst":"5"}"#,
        3,
    ),
    (
        "--lambda-h -1 route Sprint 0 5",
        r#"{"op":"route","network":"Sprint","src":"0","dst":"5","lambda_h":-1}"#,
        2,
    ),
    (
        "--lambda-f -1 route Sprint 0 5",
        r#"{"op":"route","network":"Sprint","src":"0","dst":"5","lambda_f":-1}"#,
        2,
    ),
    (
        "route Sprint 0 5 --lamda-h 5",
        r#"{"op":"route","network":"Sprint","src":"0","dst":"5","lamda_h":5}"#,
        2,
    ),
    (
        "provision Telepak -k 0",
        r#"{"op":"provision","network":"Telepak","k":0}"#,
        2,
    ),
    (
        "sweep Telepak --samples 0",
        r#"{"op":"sweep","network":"Telepak","samples":0}"#,
        2,
    ),
    (
        "sweep Telepak --mode n3",
        r#"{"op":"sweep","network":"Telepak","mode":"n3"}"#,
        2,
    ),
    (
        "ratio Telepak --sample 0",
        r#"{"op":"ratio","network":"Telepak","sample":0}"#,
        2,
    ),
    (
        "replay Telepak katrina --stride 0",
        r#"{"op":"replay","network":"Telepak","storm":"katrina","stride":0}"#,
        2,
    ),
    // Counts that size up-front work are capped: without the cap these
    // asked for terabytes and aborted the process (the daemon with it).
    (
        "ratio Sprint --sample 1000000000000",
        r#"{"op":"ratio","network":"Sprint","sample":1000000000000}"#,
        2,
    ),
    (
        "sweep Sprint --mode ensemble --samples 1000000000000",
        r#"{"op":"sweep","network":"Sprint","mode":"ensemble","samples":1000000000000}"#,
        2,
    ),
    (
        "provision Telepak -k 1048577",
        r#"{"op":"provision","network":"Telepak","k":1048577}"#,
        2,
    ),
];

/// Assert that a serve reply answers exactly like the one-shot run: the
/// same output bytes, the same typed partial, or the same exit code.
fn assert_same_answer(doc: &riskroute_json::Json, want: &Result<String, CliError>, what: &str) {
    match want {
        Ok(output) => {
            assert_eq!(field(doc, "status"), "ok", "{what}: {doc:?}");
            assert_eq!(field(doc, "output"), output, "{what}");
        }
        Err(CliError::Budget { report, stopped }) => {
            assert_eq!(field(doc, "status"), "partial", "{what}: {doc:?}");
            assert_eq!(field(doc, "stopped"), stopped.to_string(), "{what}");
            assert_eq!(field(doc, "output"), report, "{what}");
        }
        Err(err) => {
            assert_eq!(field(doc, "status"), "error", "{what}: {doc:?}");
            let code = doc
                .field("exit_code")
                .and_then(|v| v.as_usize())
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(code as i32, err.exit_code(), "{what}: {doc:?}");
        }
    }
}

#[test]
fn warm_daemon_answers_byte_identical_to_one_shot_at_any_worker_count() {
    let expected: Vec<Result<String, CliError>> = CASES
        .iter()
        .map(|(cmd, _, code)| {
            let got = one_shot(cmd);
            assert_eq!(
                got.as_ref().map_or_else(CliError::exit_code, |_| 0),
                *code,
                "{cmd}"
            );
            got
        })
        .collect();
    for workers in [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ] {
        let (server, addr) = daemon(workers);
        for ((cmd, request, _), want) in CASES.iter().zip(&expected) {
            // Twice per case: the second answer comes from the warm pool
            // (and, for route-bearing ops, the warm route-tree cache).
            for round in 0..2 {
                let doc = query(addr, request);
                assert_same_answer(&doc, want, &format!("{cmd} @ {workers:?} round {round}"));
            }
        }
        let report = server.drain_and_join();
        assert!(!report.forced, "{workers:?}");
    }
}

#[test]
fn budgeted_partials_match_the_one_shot_cli() {
    // --max-work cuts at a deterministic stage boundary, so the partial
    // report is byte-identical; --deadline-ms 0 exhausts at the first
    // boundary check, which is equally deterministic.
    let (server, addr) = daemon(Parallelism::Sequential);
    for (cmd, request) in [
        (
            "sweep Telepak --mode n1 --max-work 3",
            r#"{"op":"sweep","network":"Telepak","mode":"n1","max_work":3}"#,
        ),
        (
            "provision Telepak -k 2 --max-work 0",
            r#"{"op":"provision","network":"Telepak","k":2,"max_work":0}"#,
        ),
        (
            "replay Telepak katrina --stride 20 --deadline-ms 0",
            r#"{"op":"replay","network":"Telepak","storm":"katrina","stride":20,"deadline_ms":0}"#,
        ),
    ] {
        let want = one_shot(cmd);
        assert!(
            matches!(want, Err(CliError::Budget { .. })),
            "{cmd}: {want:?}"
        );
        assert_same_answer(&query(addr, request), &want, cmd);
    }
    // A nonzero deadline is wall-clock dependent, so only the response
    // shape is asserted: it must come back typed (partial or ok) in
    // bounded time, never hang.
    let doc = query(
        addr,
        r#"{"op":"sweep","network":"Telepak","mode":"n1","deadline_ms":1}"#,
    );
    let status = field(&doc, "status");
    assert!(
        status == "partial" || status == "ok",
        "tight deadline must answer typed, got {doc:?}"
    );
    if status == "partial" {
        assert_eq!(field(&doc, "stopped"), "wall-clock deadline exceeded");
        assert!(field(&doc, "output").contains("budget exhausted"));
    }
    let report = server.drain_and_join();
    assert!(!report.forced);
}

#[test]
fn per_request_lambda_overrides_match_weight_flags() {
    let want = one_shot("--lambda-h 1e6 --lambda-f 1e2 route Sprint 0 5").expect("one-shot");
    let (server, addr) = daemon(Parallelism::Sequential);
    let doc = query(
        addr,
        r#"{"op":"route","network":"Sprint","src":"0","dst":"5","lambda_h":1e6,"lambda_f":1e2}"#,
    );
    assert_eq!(field(&doc, "status"), "ok");
    assert_eq!(field(&doc, "output"), want);
    // Typed failures carry the CLI exit-code taxonomy.
    let doc = query(
        addr,
        r#"{"op":"route","network":"Nope","src":"0","dst":"5"}"#,
    );
    assert_eq!(field(&doc, "status"), "error");
    assert_eq!(field(&doc, "kind"), "unknown-name");
    assert_eq!(
        doc.field("exit_code")
            .and_then(|v| v.as_usize())
            .unwrap_or_else(|e| panic!("{e}")),
        3
    );
    let report = server.drain_and_join();
    assert!(!report.forced);
}

#[test]
fn argv_only_and_unknown_fields_are_bad_requests() {
    let (server, addr) = daemon(Parallelism::Sequential);
    for (request, token) in [
        (
            r#"{"op":"route","network":"Sprint","src":"0","dst":"5","lamda_h":5}"#,
            "lamda_h",
        ),
        (r#"{"op":"ratio","network":"Telepak","bogus":1}"#, "bogus"),
        // `checkpoint` and `stream` act on the daemon's own files and stdin,
        // so the wire does not offer them.
        (
            r#"{"op":"provision","network":"Telepak","k":1,"checkpoint":"p.snap"}"#,
            "checkpoint",
        ),
        (
            r#"{"op":"replay","network":"Telepak","storm":"katrina","stream":true}"#,
            "stream",
        ),
        (
            r#"{"op":"route","network":"Sprint","src":"0","dst":"5","lambda_h":-5}"#,
            "lambda_h",
        ),
        (r#"{"op":"ratio","network":"Telepak","sample":0}"#, "sample"),
        (
            r#"{"op":"route","network":"Sprint","src":0,"dst":"5"}"#,
            "src",
        ),
        (r#"{"op":"no-such-op"}"#, "no-such-op"),
        // The fault-injection harness is a test suite, not an op.
        (r#"{"op":"chaos","plans":2}"#, "chaos"),
    ] {
        let line = query_line(addr, request);
        let doc = riskroute_json::parse(line.trim_end()).expect("response parses");
        assert_eq!(field(&doc, "kind"), "bad-request", "{request}");
        assert_eq!(
            doc.field("exit_code").and_then(|v| v.as_usize()).ok(),
            Some(2),
            "{request}"
        );
        let error = field(&doc, "error");
        assert!(error.contains(token), "{request}: {error}");
        // The CLI usage text documents flags, not wire fields.
        assert!(!error.contains("USAGE"), "{request}: {error}");
        assert!(line.len() < 1024, "{request}: {} bytes", line.len());
    }
    let report = server.drain_and_join();
    assert!(!report.forced);
}
