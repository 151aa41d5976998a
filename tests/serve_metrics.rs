//! `/metrics` exposition correctness under fire: after the seeded
//! connection-fault suite runs against a live daemon, the scrape must lint
//! clean (metric-name charset, label syntax, cumulative `le` buckets with
//! `+Inf` and a matching `_count`) and carry a nonzero counter for every
//! connection-fault kind that just fired.
//!
//! One `#[test]` on purpose: the obs collector is process-global, and the
//! counter assertions here need exclusive ownership of it.

mod support;

use std::io::{BufReader, Read as _, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use support::conn_faults::{cli_handler, fire, roundtrip, start, ConnFaultPlan, ALL_CONN_FAULTS};

/// Scrape `path` over HTTP and return the body after the header block.
fn scrape(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("write scrape");
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .expect("read scrape");
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .expect("header/body split")
}

#[test]
fn metrics_exposition_stays_well_formed_after_the_fault_suite() {
    riskroute_obs::reset();
    riskroute_obs::enable();

    let (addr, server) = start(Arc::new(cli_handler()));

    // Fire the whole fault suite so every fault-kind counter is nonzero.
    fire(addr, &ConnFaultPlan::suite(5, 17), |_| {});
    // One clean request so the per-op latency histograms have observations.
    assert!(roundtrip(addr, r#"{"op":"ping"}"#).contains("pong"));

    let body = scrape(addr, "/metrics");

    // The whole exposition parses under the in-tree lint: names, labels,
    // values, and histogram bucket invariants (cumulative, +Inf, _count).
    let samples = riskroute_obs::export::lint_prometheus(&body)
        .unwrap_or_else(|e| panic!("exposition lint failed: {e}\n{body}"));
    assert!(samples > 20, "suspiciously small scrape: {samples} samples");

    // Every sample series carries the sanitized riskroute_ prefix.
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        assert!(line.starts_with("riskroute_"), "unprefixed series: {line}");
    }

    // The request-latency histogram exports cumulative le buckets ending
    // in +Inf, and its _count matches the +Inf bucket.
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("riskroute_serve_request_us_bucket{le=\"") {
            let (le, value) = rest.split_once("\"} ").expect("bucket shape");
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>().expect("le parses")
            };
            buckets.push((le, value.trim().parse::<u64>().expect("count parses")));
        }
    }
    assert!(buckets.len() > 2, "missing request histogram:\n{body}");
    assert!(
        buckets.last().is_some_and(|(le, _)| le.is_infinite()),
        "+Inf bucket must close the series"
    );
    assert!(
        buckets.windows(2).all(|w| w[0].1 <= w[1].1),
        "buckets must be cumulative: {buckets:?}"
    );
    let inf_count = buckets.last().map(|(_, c)| *c).expect("inf bucket");
    let count_line = body
        .lines()
        .find_map(|l| l.strip_prefix("riskroute_serve_request_us_count "))
        .expect("histogram _count line");
    assert_eq!(count_line.trim().parse::<u64>().expect("count"), inf_count);

    // Every connection-fault kind fired and is visible in the scrape with
    // a nonzero counter.
    for fault in ALL_CONN_FAULTS {
        let series = format!("riskroute_{} ", fault.expected_counter());
        let value = body
            .lines()
            .find_map(|l| l.strip_prefix(series.as_str()))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0);
        assert!(
            value > 0.0,
            "no nonzero counter for {} ({series}):\n{body}",
            fault.name()
        );
    }

    let report = server.drain_and_join();
    assert!(!report.forced, "{report:?}");
    riskroute_obs::disable();
}
