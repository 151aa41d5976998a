//! Connection-level chaos against a live `riskroute serve` daemon: seeded
//! adversarial clients (garbage bytes, truncated frames, mid-request
//! disconnects, stalled writers, over-deep and oversized frames) plus an
//! induced worker panic. The daemon must stay up through all of it — every
//! fault degrades one connection or one request, drives its obs counter,
//! and the process drains cleanly afterwards.
//!
//! One `#[test]` on purpose: the obs collector is process-global, and the
//! counter assertions here need exclusive ownership of it.

mod support;

use riskroute_cli::commands::ServeHandler;
use riskroute_serve::{QueryCx, QueryHandler, Reply, Request};
use std::io::{BufReader, Read as _, Write};
use std::net::TcpStream;
use std::sync::Arc;
use support::conn_faults::{
    cli_handler, counter, fire, roundtrip, start, wait_counter_above, wait_settled, ConnFaultPlan,
};

/// The real CLI handler, with one extra op for the panic-isolation probe.
struct PanicOnBoom(ServeHandler);

impl QueryHandler for PanicOnBoom {
    fn handle(&self, request: &Request, cx: &QueryCx) -> Reply {
        if request.op == "boom" {
            panic!("induced worker panic (chaos suite)");
        }
        self.0.handle(request, cx)
    }
}

#[test]
fn daemon_survives_the_connection_fault_suite() {
    riskroute_obs::reset();
    riskroute_obs::enable();

    let (addr, server) = start(Arc::new(PanicOnBoom(cli_handler())));

    let plans = ConnFaultPlan::suite(7, 6);
    fire(addr, &plans, |plan| {
        // The daemon is still answering after every single fault.
        assert!(
            roundtrip(addr, r#"{"op":"ping"}"#).contains("pong"),
            "daemon unresponsive after seed {} {:?}",
            plan.seed,
            plan.fault
        );
    });

    // Induced worker panic: fails that request alone, typed on the wire.
    let before = counter("serve_requests_panicked");
    let line = roundtrip(addr, r#"{"id":99,"op":"boom"}"#);
    let doc = riskroute_json::parse(&line).expect("panic reply parses");
    assert_eq!(
        doc.field("kind").and_then(|v| v.as_str()).expect("kind"),
        "panic"
    );
    assert!(wait_counter_above("serve_requests_panicked", before));
    assert!(roundtrip(addr, r#"{"op":"ping"}"#).contains("pong"));

    // The scrape endpoint reports the fault counters that just fired.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("write scrape");
    let mut body = String::new();
    BufReader::new(stream)
        .read_to_string(&mut body)
        .expect("read scrape");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
    for name in [
        "riskroute_serve_frames_malformed",
        "riskroute_serve_frames_truncated",
        "riskroute_serve_frames_oversized",
        "riskroute_serve_clients_stalled",
        "riskroute_serve_requests_panicked",
    ] {
        assert!(body.contains(name), "scrape missing {name}");
    }

    // Protocol shutdown: acknowledged, then a clean (never forced) drain.
    wait_settled();
    assert!(roundtrip(addr, r#"{"op":"shutdown"}"#).contains("draining"));
    let report = server.join();
    assert!(!report.forced, "{report:?}");
    assert!(report.connections_total >= plans.len() as u64);
    riskroute_obs::disable();
}
