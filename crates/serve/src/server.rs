//! The daemon: listener loop, connection threads, admission, timeouts,
//! panic isolation, Prometheus scrape, and graceful drain.

use crate::protocol::{
    parse_request, render_draining, render_overloaded, render_reply, Reply, Request,
};
use crate::slowlog::{SlowLog, SlowQuery};
use riskroute_json::ParseLimits;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Knobs for the daemon's robustness envelope. Every limit is per the
/// contract in the crate docs; defaults suit an interactive deployment and
/// tests override them for speed.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently open connections; excess accepts are answered
    /// with an `overloaded` line and closed.
    pub max_connections: usize,
    /// Maximum queries executing at once across all connections; excess
    /// requests get `overloaded` with `retry_after_ms`.
    pub max_inflight: usize,
    /// Per-frame byte cap (request lines over this are rejected and the
    /// connection closed, since resync inside an unbounded frame is
    /// unbounded work).
    pub frame_cap_bytes: usize,
    /// Wire nesting limit for request documents.
    pub max_depth: usize,
    /// How long a connection may sit idle mid-frame before it is dropped
    /// as a stalled writer.
    pub read_timeout_ms: u64,
    /// How long one response write may block before the client is dropped
    /// as a stalled reader.
    pub write_timeout_ms: u64,
    /// After drain starts: how long in-flight work gets to finish before
    /// the shed flag cancels it, and then how long shed work gets to
    /// unwind cooperatively.
    pub drain_ms: u64,
    /// The retry hint attached to `overloaded` responses.
    pub retry_after_ms: u64,
    /// Ops that get per-endpoint counters and latency histograms; unknown
    /// ops are counted under `other` to bound metric cardinality.
    pub metric_ops: &'static [&'static str],
    /// Ring-buffer capacity of the slow-query log served by `GET /slow`.
    pub slow_log_capacity: usize,
    /// Per-op latency objectives in microseconds. A request slower than
    /// its op's objective counts as `obs_slo_bad_<op>` (otherwise
    /// `obs_slo_good_<op>`) and lands in the slow-query log. Ops without
    /// an entry fall back to the `"other"` row.
    pub slo_us: &'static [(&'static str, u64)],
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_connections: 64,
            max_inflight: 8,
            frame_cap_bytes: 1 << 20,
            max_depth: 32,
            read_timeout_ms: 10_000,
            write_timeout_ms: 5_000,
            drain_ms: 2_000,
            retry_after_ms: 100,
            metric_ops: &["ping", "route", "ratio", "provision", "replay", "sweep", "corpus"],
            slow_log_capacity: 128,
            slo_us: &[
                ("ping", 1_000),
                ("corpus", 50_000),
                ("route", 250_000),
                ("ratio", 2_000_000),
                ("provision", 30_000_000),
                ("replay", 30_000_000),
                ("sweep", 30_000_000),
                ("other", 1_000_000),
            ],
        }
    }
}

impl ServeConfig {
    /// The latency objective for `op` in microseconds: the op's row in
    /// [`slo_us`](ServeConfig::slo_us), else the `"other"` row, else 1 s.
    pub fn slo_for(&self, op: &str) -> u64 {
        self.slo_us
            .iter()
            .find(|(o, _)| *o == op)
            .or_else(|| self.slo_us.iter().find(|(o, _)| *o == "other"))
            .map_or(1_000_000, |&(_, us)| us)
    }
}

/// Per-request context the transport hands to the handler.
#[derive(Debug, Clone)]
pub struct QueryCx {
    /// The daemon's shed flag. Handlers must wire it into the request's
    /// `WorkBudget` (via `with_cancel`) so a drain past its deadline sheds
    /// in-flight work at the next stage boundary as a typed partial.
    pub cancel: Arc<AtomicBool>,
}

/// Query semantics, injected by the embedding binary. Implementations are
/// called from connection threads — one call per admitted request — and
/// must be panic-tolerant only in the sense that a panic fails that
/// request alone (the transport catches it).
pub trait QueryHandler: Send + Sync {
    /// Answer one request. The returned [`Reply`] is rendered verbatim.
    fn handle(&self, request: &Request, cx: &QueryCx) -> Reply;
}

/// What the drain observed, returned by [`Server::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections accepted over the daemon's lifetime.
    pub connections_total: u64,
    /// Requests admitted to a handler over the daemon's lifetime.
    pub requests_total: u64,
    /// Whether the shed flag had to be flipped (in-flight work outlived
    /// the first drain window).
    pub shed: bool,
    /// Whether connections were still active when the shed grace window
    /// closed — their threads are detached and the process should exit
    /// with the forced-drain code.
    pub forced: bool,
    /// How many connections were abandoned by a forced drain.
    pub abandoned_connections: usize,
}

struct State {
    draining: AtomicBool,
    shed: Arc<AtomicBool>,
    active_conns: AtomicUsize,
    inflight: AtomicUsize,
    connections_total: AtomicU64,
    requests_total: AtomicU64,
}

impl State {
    fn new() -> State {
        State {
            draining: AtomicBool::new(false),
            shed: Arc::new(AtomicBool::new(false)),
            active_conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            connections_total: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
        }
    }
}

/// A clonable handle that triggers drain from outside the listener loop
/// (tests, or an embedding binary's signal story).
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<State>,
}

impl ShutdownHandle {
    /// Begin graceful drain: stop accepting, let in-flight work finish or
    /// be shed within the configured windows.
    pub fn drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Listener {
    fn set_nonblocking(&self, v: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(v),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(v),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

impl Conn {
    fn set_nonblocking(&self, v: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(v),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(v),
        }
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(d),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

struct Shared {
    state: Arc<State>,
    handler: Arc<dyn QueryHandler>,
    config: ServeConfig,
    slow_log: SlowLog,
}

/// The daemon. Bind, then [`run`](Server::run) on the current thread or
/// [`spawn`](Server::spawn) for in-process embedding (tests).
pub struct Server {
    listener: Listener,
    addr: Option<SocketAddr>,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind a TCP listener (use port 0 for an ephemeral port; the resolved
    /// address is available via [`local_addr`](Server::local_addr)).
    ///
    /// # Errors
    /// Any bind failure, verbatim.
    pub fn bind_tcp(
        addr: &str,
        handler: Arc<dyn QueryHandler>,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr().ok();
        register_latency_histograms(&config);
        Ok(Server {
            listener: Listener::Tcp(listener),
            addr,
            shared: Arc::new(Shared {
                state: Arc::new(State::new()),
                handler,
                slow_log: SlowLog::new(config.slow_log_capacity),
                config,
            }),
        })
    }

    /// Bind a Unix-domain socket listener at `path` (removed first if it
    /// is a stale socket file).
    ///
    /// # Errors
    /// Any bind failure, verbatim.
    #[cfg(unix)]
    pub fn bind_unix(
        path: &str,
        handler: Arc<dyn QueryHandler>,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        register_latency_histograms(&config);
        Ok(Server {
            listener: Listener::Unix(listener),
            addr: None,
            shared: Arc::new(Shared {
                state: Arc::new(State::new()),
                handler,
                slow_log: SlowLog::new(config.slow_log_capacity),
                config,
            }),
        })
    }

    /// The resolved TCP address (None for Unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// A handle that can trigger drain from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.shared.state),
        }
    }

    /// Run the accept loop on the current thread until drain completes.
    pub fn run(self) -> DrainReport {
        let Server {
            listener, shared, ..
        } = self;
        // Nonblocking accept + sleep keeps drain responsive without any
        // platform signal machinery.
        if listener.set_nonblocking(true).is_err() {
            // Extremely unlikely; degrade to an immediate forced drain
            // rather than risking an unbreakable blocking accept.
            shared.state.draining.store(true, Ordering::SeqCst);
        }
        let state = Arc::clone(&shared.state);
        while !state.draining.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok(conn) => accept_connection(conn, &shared),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                // Transient accept errors (ECONNABORTED etc.) must not
                // kill the daemon.
                Err(_) => thread::sleep(Duration::from_millis(2)),
            }
        }
        drain(&shared)
    }

    /// Run on a background thread; returns once the listener is live.
    pub fn spawn(self) -> SpawnedServer {
        let addr = self.addr;
        let handle = self.shutdown_handle();
        let join = thread::spawn(move || self.run());
        SpawnedServer { addr, handle, join }
    }
}

/// An in-process daemon started by [`Server::spawn`].
pub struct SpawnedServer {
    /// The resolved TCP address (None for Unix sockets).
    pub addr: Option<SocketAddr>,
    handle: ShutdownHandle,
    join: thread::JoinHandle<DrainReport>,
}

impl SpawnedServer {
    /// A drain trigger for this daemon.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.handle.clone()
    }

    /// Trigger drain and wait for the listener thread to finish.
    pub fn drain_and_join(self) -> DrainReport {
        self.handle.drain();
        self.join_inner()
    }

    /// Wait for a drain that is already underway (e.g. after a protocol
    /// `shutdown` request).
    pub fn join(self) -> DrainReport {
        self.join_inner()
    }

    fn join_inner(self) -> DrainReport {
        self.join.join().unwrap_or(DrainReport {
            connections_total: 0,
            requests_total: 0,
            shed: false,
            forced: true,
            abandoned_connections: 0,
        })
    }
}

fn counter(name: &str) {
    riskroute_obs::counter_add(name, 1);
}

/// Pre-register the µs-scaled request and queue-wait histograms so a
/// scrape before the first admitted request still exports complete
/// zero-observation series with sensible bucket bounds. No-op while the
/// collector is disabled (the embedding binary enables it before binding).
fn register_latency_histograms(config: &ServeConfig) {
    use riskroute_obs::Histogram;
    for family in ["serve_request_us", "serve_queue_wait_us"] {
        riskroute_obs::histogram_register(family, Histogram::micros_default());
        for op in config.metric_ops.iter().chain(std::iter::once(&"other")) {
            riskroute_obs::histogram_register(&format!("{family}_{op}"), Histogram::micros_default());
        }
    }
}

fn accept_connection(conn: Conn, shared: &Arc<Shared>) {
    let state = &shared.state;
    state.connections_total.fetch_add(1, Ordering::Relaxed);
    counter("serve_connections_total");
    let admitted = state
        .active_conns
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < shared.config.max_connections).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        counter("serve_connections_rejected");
        let mut conn = conn;
        let _ = conn.set_nonblocking(false);
        let _ = conn.set_write_timeout(Some(Duration::from_millis(
            shared.config.write_timeout_ms.max(1),
        )));
        let mut line = render_overloaded(None, shared.config.retry_after_ms);
        line.push('\n');
        let _ = conn.write_all(line.as_bytes());
        return;
    }
    let shared = Arc::clone(shared);
    // Detached on purpose: drain tracks liveness through active_conns, and
    // a stuck thread must never wedge shutdown (forced drain abandons it).
    let _ = thread::Builder::new()
        .name("riskroute-serve-conn".to_string())
        .spawn(move || {
            let _guard = ConnGuard(Arc::clone(&shared.state));
            connection_loop(conn, &shared);
        });
}

struct ConnGuard(Arc<State>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

struct InflightGuard(Arc<State>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The read tick: short enough that drain and stall checks stay
/// responsive, independent of the configured stall timeout.
const READ_TICK_MS: u64 = 25;

fn connection_loop(mut conn: Conn, shared: &Arc<Shared>) {
    let config = &shared.config;
    let state = &shared.state;
    // Accepted sockets inherit the listener's nonblocking flag on some
    // platforms; normalize to blocking-with-timeout semantics.
    if conn.set_nonblocking(false).is_err() {
        return;
    }
    let tick = Duration::from_millis(READ_TICK_MS.min(config.read_timeout_ms.max(1)));
    if conn.set_read_timeout(Some(tick)).is_err() {
        return;
    }
    let _ = conn.set_write_timeout(Some(Duration::from_millis(config.write_timeout_ms.max(1))));

    let mut buf: Vec<u8> = Vec::new();
    let mut idle = Duration::ZERO;
    let mut first_frame = true;
    let mut chunk = [0u8; 4096];
    // Stamped at the read that completed each frame, so a pipelined frame's
    // queue wait includes the time it sat buffered behind its predecessors.
    let mut received = Instant::now();
    loop {
        // Drain complete frames already buffered.
        while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = buf.drain(..=nl).collect();
            line.pop(); // newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if first_frame && line.starts_with(b"GET ") {
                serve_http(&mut conn, &line, shared);
                return;
            }
            first_frame = false;
            if line.is_empty() {
                continue;
            }
            if !handle_frame(&mut conn, &line, shared, received) {
                return;
            }
        }
        if buf.len() > config.frame_cap_bytes {
            counter("serve_frames_oversized");
            write_line(
                &mut conn,
                &render_reply(
                    None,
                    &Reply::Err {
                        kind: "oversized-frame".to_string(),
                        exit_code: 2,
                        message: format!(
                            "frame exceeds cap of {} bytes",
                            config.frame_cap_bytes
                        ),
                    },
                ),
                state,
            );
            return;
        }
        if state.draining.load(Ordering::SeqCst) {
            // Stop taking new frames; in-flight work (other connections)
            // finishes under the drain windows.
            return;
        }
        match conn.read(&mut chunk) {
            Ok(0) => {
                if !buf.is_empty() {
                    counter("serve_frames_truncated");
                }
                return;
            }
            Ok(n) => {
                idle = Duration::ZERO;
                received = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                idle += tick;
                if idle.as_millis() as u64 >= config.read_timeout_ms {
                    counter("serve_clients_stalled");
                    if !buf.is_empty() {
                        counter("serve_frames_truncated");
                    }
                    return;
                }
            }
            Err(_) => {
                counter("serve_clients_disconnected");
                return;
            }
        }
    }
}

/// Handle one complete frame; returns false when the connection must close.
fn handle_frame(conn: &mut Conn, line: &[u8], shared: &Arc<Shared>, received: Instant) -> bool {
    let config = &shared.config;
    let state = &shared.state;
    let text = match std::str::from_utf8(line) {
        Ok(t) => t,
        Err(_) => {
            counter("serve_frames_malformed");
            return write_line(
                conn,
                &render_reply(
                    None,
                    &Reply::Err {
                        kind: "malformed-frame".to_string(),
                        exit_code: 2,
                        message: "frame is not valid UTF-8".to_string(),
                    },
                ),
                state,
            );
        }
    };
    let limits = ParseLimits {
        max_depth: config.max_depth,
        max_bytes: config.frame_cap_bytes,
    };
    let request = match parse_request(text, limits) {
        Ok(r) => r,
        Err(e) => {
            match e {
                crate::protocol::FrameError::Oversized { .. } => counter("serve_frames_oversized"),
                _ => counter("serve_frames_malformed"),
            }
            return write_line(
                conn,
                &render_reply(
                    None,
                    &Reply::Err {
                        kind: e.kind().to_string(),
                        exit_code: 2,
                        message: e.message(),
                    },
                ),
                state,
            );
        }
    };
    match request.op.as_str() {
        "shutdown" => {
            counter("serve_shutdown_requests");
            state.draining.store(true, Ordering::SeqCst);
            write_line(conn, &render_draining(request.id), state);
            false
        }
        _ => execute(conn, &request, shared, received),
    }
}

/// Admission-check, execute, and answer one query; returns false when the
/// connection must close.
///
/// Each admitted request runs under its own [`riskroute_obs::ObsScope`]
/// trace, so engine counters (SSSP runs, cache traffic, adopted trees) are
/// attributed per request. Trace IDs never appear in reply bytes —
/// responses stay byte-identical with tracing on or off.
fn execute(conn: &mut Conn, request: &Request, shared: &Arc<Shared>, received: Instant) -> bool {
    let config = &shared.config;
    let state = &shared.state;
    let admitted = state
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < config.max_inflight).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        counter("serve_requests_overloaded");
        return write_line(
            conn,
            &render_overloaded(request.id, config.retry_after_ms),
            state,
        );
    }
    let _guard = InflightGuard(Arc::clone(state));
    state.requests_total.fetch_add(1, Ordering::Relaxed);
    counter("serve_requests_total");
    let op_metric = if config.metric_ops.contains(&request.op.as_str()) {
        request.op.as_str()
    } else {
        "other"
    };
    riskroute_obs::counter_add(&format!("serve_op_{op_metric}"), 1);
    let queue_us = received.elapsed().as_micros() as u64;
    riskroute_obs::histogram_observe("serve_queue_wait_us", queue_us as f64);
    riskroute_obs::histogram_observe(&format!("serve_queue_wait_us_{op_metric}"), queue_us as f64);
    let cx = QueryCx {
        cancel: Arc::clone(&state.shed),
    };
    let scope = riskroute_obs::ObsScope::begin(op_metric);
    let start = Instant::now();
    let outcome = {
        let _obs = scope.enter();
        // `ping` is answered here, not by the handler — it is a protocol
        // liveness probe, but it still rides the full accounting path
        // (admission, queue wait, latency histograms, SLO counters).
        if request.op.as_str() == "ping" {
            Ok(Reply::Ok {
                output: "pong".to_string(),
            })
        } else {
            catch_unwind(AssertUnwindSafe(|| shared.handler.handle(request, &cx)))
        }
    };
    let wall_us = start.elapsed().as_micros() as u64;
    riskroute_obs::histogram_observe("serve_request_us", wall_us as f64);
    riskroute_obs::histogram_observe(&format!("serve_request_us_{op_metric}"), wall_us as f64);
    let (reply, stop) = match outcome {
        Ok(reply) => {
            let class = match &reply {
                Reply::Ok { .. } => "serve_requests_ok",
                Reply::Partial { .. } => "serve_requests_partial",
                Reply::Err { .. } => "serve_requests_error",
            };
            counter(class);
            let stop = match &reply {
                Reply::Ok { .. } => "-".to_string(),
                Reply::Partial { stopped, .. } => stopped.clone(),
                Reply::Err { kind, .. } => format!("error:{kind}"),
            };
            (reply, stop)
        }
        Err(_) => {
            counter("serve_requests_panicked");
            (
                Reply::Err {
                    kind: "panic".to_string(),
                    exit_code: 7,
                    message: "worker panicked while answering this request".to_string(),
                },
                "error:panic".to_string(),
            )
        }
    };
    let line = render_reply(request.id, &reply);
    let slo_us = config.slo_for(op_metric);
    if wall_us <= slo_us {
        riskroute_obs::counter_add(&format!("obs_slo_good_{op_metric}"), 1);
    } else {
        riskroute_obs::counter_add(&format!("obs_slo_bad_{op_metric}"), 1);
        // The slow log is the daemon's own accounting — it works even with
        // the obs collector disabled (per-trace counters are then zero).
        let traced = riskroute_obs::trace_counters(scope.trace_id());
        let attributed = |name: &str| traced.get(name).copied().unwrap_or(0);
        shared.slow_log.push(SlowQuery {
            trace_id: scope.trace_id(),
            op: op_metric.to_string(),
            lambda_h: request.body.field("lambda_h").ok().and_then(|v| v.as_f64().ok()),
            lambda_f: request.body.field("lambda_f").ok().and_then(|v| v.as_f64().ok()),
            wall_us,
            queue_us,
            slo_us,
            sssp_runs: attributed("risk_sssp_runs"),
            cache_hits: attributed("route_cache_hits"),
            cache_misses: attributed("route_cache_misses"),
            trees_adopted: attributed("scenario_trees_adopted"),
            bytes: line.len() as u64 + 1,
            stop,
        });
    }
    write_line(conn, &line, state)
}

/// Write one response line; returns false (close connection) on failure.
fn write_line(conn: &mut Conn, line: &str, _state: &Arc<State>) -> bool {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    match conn.write_all(&bytes).and_then(|()| conn.flush()) {
        Ok(()) => true,
        Err(e)
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
        {
            counter("serve_clients_stalled");
            false
        }
        Err(_) => {
            counter("serve_clients_disconnected");
            false
        }
    }
}

/// Answer a `GET` first line as HTTP: `/metrics` scrapes the obs registry
/// in Prometheus text exposition, `/slow` serves the slow-query log as
/// JSON (newest breach first); anything else is 404. The connection closes
/// after the response (HTTP/1.0 semantics).
fn serve_http(conn: &mut Conn, request_line: &[u8], shared: &Arc<Shared>) {
    counter("serve_scrapes_total");
    let path = std::str::from_utf8(request_line)
        .ok()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = if path == "/metrics" {
        let snap = riskroute_obs::snapshot();
        (
            "200 OK",
            "text/plain; version=0.0.4",
            riskroute_obs::export::to_prometheus(&snap),
        )
    } else if path == "/slow" {
        let mut body = shared.slow_log.render_json();
        body.push('\n');
        ("200 OK", "application/json", body)
    } else {
        (
            "404 Not Found",
            "text/plain; version=0.0.4",
            String::from("not found\n"),
        )
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = conn.write_all(response.as_bytes());
    let _ = conn.flush();
}

fn drain(shared: &Arc<Shared>) -> DrainReport {
    let state = &shared.state;
    let window = Duration::from_millis(shared.config.drain_ms.max(1));
    // Window one: let in-flight work finish untouched.
    let deadline = Instant::now() + window;
    while state.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(2));
    }
    let mut shed = false;
    if state.active_conns.load(Ordering::SeqCst) > 0 {
        // Window two: shed — every budget wired to the shed flag stops at
        // its next stage boundary and the request answers `partial`.
        shed = true;
        counter("serve_drain_shed");
        state.shed.store(true, Ordering::SeqCst);
        let grace = Instant::now() + window;
        while state.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < grace {
            thread::sleep(Duration::from_millis(2));
        }
    }
    let abandoned = state.active_conns.load(Ordering::SeqCst);
    if abandoned > 0 {
        counter("serve_drain_forced");
    }
    DrainReport {
        connections_total: state.connections_total.load(Ordering::Relaxed),
        requests_total: state.requests_total.load(Ordering::Relaxed),
        shed,
        forced: abandoned > 0,
        abandoned_connections: abandoned,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    struct EchoHandler;

    impl QueryHandler for EchoHandler {
        fn handle(&self, request: &Request, _cx: &QueryCx) -> Reply {
            match request.op.as_str() {
                "boom" => panic!("induced worker panic"),
                "slow" => {
                    thread::sleep(Duration::from_millis(300));
                    Reply::Ok {
                        output: "slow done".to_string(),
                    }
                }
                "slowboom" => {
                    thread::sleep(Duration::from_millis(60));
                    panic!("induced slow worker panic")
                }
                other => Reply::Ok {
                    output: format!("echo:{other}"),
                },
            }
        }
    }

    fn fast_config() -> ServeConfig {
        ServeConfig {
            max_inflight: 2,
            frame_cap_bytes: 1 << 12,
            read_timeout_ms: 200,
            write_timeout_ms: 200,
            drain_ms: 400,
            ..ServeConfig::default()
        }
    }

    fn start() -> (SpawnedServer, SocketAddr) {
        let server = Server::bind_tcp("127.0.0.1:0", Arc::new(EchoHandler), fast_config())
            .expect("bind");
        let addr = server.local_addr().expect("tcp addr");
        (server.spawn(), addr)
    }

    fn roundtrip(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        out.trim_end().to_string()
    }

    #[test]
    fn answers_ping_and_echoes_ids() {
        let (server, addr) = start();
        let line = roundtrip(addr, r#"{"id":9,"op":"ping"}"#);
        let doc = riskroute_json::parse(&line).unwrap();
        assert_eq!(doc.field("status").unwrap().as_str().unwrap(), "ok");
        assert_eq!(doc.field("output").unwrap().as_str().unwrap(), "pong");
        assert_eq!(doc.field("id").unwrap().as_usize().unwrap(), 9);
        let report = server.drain_and_join();
        assert!(!report.forced);
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_resync() {
        let (server, addr) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{ not json\n{\"op\":\"ping\"}\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        let doc = riskroute_json::parse(first.trim_end()).unwrap();
        assert_eq!(doc.field("status").unwrap().as_str().unwrap(), "error");
        assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "malformed-frame");
        // The same connection resyncs at the newline and answers the ping.
        let mut second = String::new();
        reader.read_line(&mut second).unwrap();
        let doc = riskroute_json::parse(second.trim_end()).unwrap();
        assert_eq!(doc.field("output").unwrap().as_str().unwrap(), "pong");
        server.drain_and_join();
    }

    #[test]
    fn worker_panic_fails_only_that_request() {
        let (server, addr) = start();
        let line = roundtrip(addr, r#"{"id":1,"op":"boom"}"#);
        let doc = riskroute_json::parse(&line).unwrap();
        assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "panic");
        assert_eq!(doc.field("exit_code").unwrap().as_usize().unwrap(), 7);
        // The daemon is still alive.
        let line = roundtrip(addr, r#"{"op":"ping"}"#);
        assert!(line.contains("pong"));
        let report = server.drain_and_join();
        assert!(!report.forced);
    }

    #[test]
    fn saturation_sheds_with_retry_hint() {
        let (server, addr) = start();
        // Two slow requests occupy both inflight slots…
        let busy: Vec<_> = (0..2)
            .map(|_| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(b"{\"op\":\"slow\"}\n").unwrap();
                s
            })
            .collect();
        thread::sleep(Duration::from_millis(80));
        // …so the third is refused with a retry hint.
        let line = roundtrip(addr, r#"{"id":3,"op":"slow"}"#);
        let doc = riskroute_json::parse(&line).unwrap();
        assert_eq!(doc.field("status").unwrap().as_str().unwrap(), "overloaded");
        assert!(doc.field("retry_after_ms").unwrap().as_usize().unwrap() > 0);
        for s in busy {
            let mut reader = BufReader::new(s);
            let mut out = String::new();
            reader.read_line(&mut out).unwrap();
            assert!(out.contains("slow done"));
        }
        server.drain_and_join();
    }

    #[test]
    fn shutdown_request_drains_cleanly() {
        let (server, addr) = start();
        let line = roundtrip(addr, r#"{"op":"shutdown"}"#);
        assert!(line.contains("draining"));
        let report = server.join();
        assert!(!report.forced);
        assert!(!report.shed);
        // The listener is gone.
        thread::sleep(Duration::from_millis(50));
        assert!(TcpStream::connect(addr).is_err() || {
            // A lingering accept queue entry may connect but must see EOF.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let mut out = String::new();
            BufReader::new(s).read_line(&mut out).unwrap_or(0) == 0
        });
    }

    #[test]
    fn slo_breaches_feed_the_slow_log_endpoint() {
        riskroute_obs::enable();
        let config = ServeConfig {
            slo_us: &[("ping", 1_000), ("other", 10_000)],
            slow_log_capacity: 4,
            ..fast_config()
        };
        let server =
            Server::bind_tcp("127.0.0.1:0", Arc::new(EchoHandler), config).expect("bind");
        let addr = server.local_addr().expect("tcp addr");
        let server = server.spawn();
        let bad_before = riskroute_obs::counter_value("obs_slo_bad_other");
        let line = roundtrip(addr, r#"{"id":1,"op":"slow","lambda_h":250000.0}"#);
        assert!(line.contains("slow done"), "{line}");
        let line = roundtrip(addr, r#"{"id":2,"op":"slowboom"}"#);
        assert!(line.contains("panic"), "{line}");
        assert!(
            riskroute_obs::counter_value("obs_slo_bad_other") >= bad_before + 2,
            "both breaches must count against the objective"
        );
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /slow HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        BufReader::new(stream).read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("application/json"), "{body}");
        let json = body.split("\r\n\r\n").nth(1).unwrap().trim();
        let doc = riskroute_json::parse(json).unwrap();
        let rows = doc.field("slow_queries").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2, "{json}");
        // Newest breach first: the panicked request, then the slow one.
        assert_eq!(
            rows[0].field("stop").unwrap().as_str().unwrap(),
            "error:panic"
        );
        assert_eq!(rows[1].field("stop").unwrap().as_str().unwrap(), "-");
        assert_eq!(rows[1].field("op").unwrap().as_str().unwrap(), "other");
        let lh = rows[1].field("lambda_h").unwrap().as_f64().unwrap();
        assert!((lh - 250_000.0).abs() < 1e-9, "{lh}");
        assert!(rows[1].field("trace_id").unwrap().as_usize().unwrap() > 0);
        assert!(rows[1].field("wall_us").unwrap().as_usize().unwrap() > 10_000);
        assert!(rows[1].field("bytes").unwrap().as_usize().unwrap() > 0);
        server.drain_and_join();
    }

    #[test]
    fn metrics_endpoint_scrapes_prometheus_text() {
        riskroute_obs::enable();
        let (server, addr) = start();
        roundtrip(addr, r#"{"op":"ping"}"#);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        BufReader::new(stream).read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("riskroute_serve_connections_total"), "{body}");
        server.drain_and_join();
    }
}
