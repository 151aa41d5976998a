//! Std-only query-daemon transport for RiskRoute (`riskroute serve`).
//!
//! This crate owns everything about serving **except** the queries
//! themselves: listener management (TCP and, on Unix, a Unix-domain
//! socket), newline-delimited-JSON framing with per-connection size and
//! depth caps, admission control and load shedding, slow-client read/write
//! timeouts, per-request panic isolation, a Prometheus scrape endpoint
//! multiplexed on the same listener, and graceful drain with a shed
//! deadline. Query semantics are injected through [`QueryHandler`] — the
//! CLI crate implements it over its warm engine context, which is how
//! serve responses stay byte-identical to one-shot CLI invocations.
//!
//! ## Wire protocol
//!
//! One request per line, one response line per request, both compact JSON:
//!
//! ```text
//! → {"id":1,"op":"route","network":"Sprint","src":"0","dst":"5"}
//! ← {"id":1,"output":"…","status":"ok"}
//! ```
//!
//! Responses carry a `status` of `ok`, `partial` (budget ran out — the
//! `output` is the typed partial report and `stopped` names the limit),
//! `error` (typed `kind` + CLI-compatible `exit_code`), `overloaded`
//! (admission refused; `retry_after_ms` hints when to retry), or
//! `draining` (shutdown acknowledged). A first line starting with `GET `
//! is answered as HTTP: `GET /metrics` serves the obs registry in
//! Prometheus text exposition, `GET /slow` serves the slow-query log as
//! JSON (newest SLO breach first), and either closes.
//!
//! ## Tracing and attribution
//!
//! Every admitted request runs under its own [`riskroute_obs::ObsScope`]
//! trace: engine counters the handler touches (SSSP runs, route-cache
//! traffic, adopted trees) are attributed to that request, per-op latency
//! and queue-wait histograms (`serve_request_us_*`,
//! `serve_queue_wait_us_*`) are recorded in microseconds, and requests
//! slower than their per-op objective count as `obs_slo_bad_<op>` and land
//! in the ring-buffer slow-query log ([`SlowLog`]). Trace IDs never appear
//! in reply bytes, so responses stay byte-identical with tracing on or
//! off.
//!
//! ## Robustness contract
//!
//! Every failure mode degrades one request or one connection, never the
//! process: malformed frames get typed error responses and the connection
//! resyncs at the next newline; oversized or over-deep frames are rejected
//! by limit (never by allocation); clients that stall mid-frame or stop
//! reading are timed out and disconnected; a panicking worker fails only
//! its request (`serve_requests_panicked`); saturation sheds with
//! `overloaded` instead of queueing without bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod protocol;
pub mod server;
pub mod slowlog;

pub use protocol::{FrameError, Reply, Request};
pub use server::{
    DrainReport, QueryCx, QueryHandler, ServeConfig, Server, ShutdownHandle, SpawnedServer,
};
pub use slowlog::{SlowLog, SlowQuery};
