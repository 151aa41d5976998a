//! Connection-level chaos against a live `riskroute serve` daemon: seeded
//! adversarial client scripts ([`ConnFaultPlan`]), the daemon set-up they
//! run against, and the client that throws them.
//!
//! Every fault must degrade one connection, never the process, and drive
//! the obs counter [`ConnFault::expected_counter`] names. The collector is
//! process-global, so each test binary using this holds a single `#[test]`.

use riskroute_cli::commands::ServeHandler;
use riskroute_cli::{parse_args, CliContext};
use riskroute_rng::StdRng;
use riskroute_serve::{QueryHandler, ServeConfig, Server, SpawnedServer};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The frame cap the daemon is configured with, so
/// [`ConnFault::OversizedFrame`] payloads are reliably over it without
/// being expensive to generate.
const CHAOS_FRAME_CAP: usize = 4 << 10;

/// The wire nesting limit the daemon is configured with (matches
/// `riskroute_json::ParseLimits::strict`).
const CHAOS_WIRE_DEPTH: usize = 32;

/// The daemon's read timeout; a stalled writer outlasts it.
const READ_TIMEOUT_MS: u64 = 150;

/// Connection-level fault kinds the daemon must absorb without exiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Random non-protocol bytes terminated by a newline.
    GarbageBytes,
    /// A valid request frame cut mid-document, then disconnect.
    TruncatedFrame,
    /// A complete request, then disconnect before reading the response.
    MidRequestDisconnect,
    /// A partial frame, then the client stalls without ever finishing it.
    StalledWriter,
    /// A frame nested deeper than the wire parse limit allows.
    DeepNesting,
    /// A single frame larger than the connection's frame cap.
    OversizedFrame,
}

/// All connection fault kinds, in suite order.
pub const ALL_CONN_FAULTS: &[ConnFault] = &[
    ConnFault::GarbageBytes,
    ConnFault::TruncatedFrame,
    ConnFault::MidRequestDisconnect,
    ConnFault::StalledWriter,
    ConnFault::DeepNesting,
    ConnFault::OversizedFrame,
];

impl ConnFault {
    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            ConnFault::GarbageBytes => "garbage-bytes",
            ConnFault::TruncatedFrame => "truncated-frame",
            ConnFault::MidRequestDisconnect => "mid-request-disconnect",
            ConnFault::StalledWriter => "stalled-writer",
            ConnFault::DeepNesting => "deep-nesting",
            ConnFault::OversizedFrame => "oversized-frame",
        }
    }

    /// The obs counter this fault must drive when thrown at a live daemon.
    pub fn expected_counter(self) -> &'static str {
        match self {
            ConnFault::GarbageBytes | ConnFault::DeepNesting => "serve_frames_malformed",
            ConnFault::TruncatedFrame => "serve_frames_truncated",
            // The request itself is well-formed; the daemon must still have
            // executed it (and survived the dead peer on write-back).
            ConnFault::MidRequestDisconnect => "serve_requests_total",
            ConnFault::StalledWriter => "serve_clients_stalled",
            ConnFault::OversizedFrame => "serve_frames_oversized",
        }
    }
}

/// A seed-derived adversarial client script for one connection: the exact
/// bytes written and how the client behaves afterwards. Everything is a
/// pure function of the seed, so a failing plan replays exactly.
#[derive(Debug)]
pub struct ConnFaultPlan {
    /// The driving seed.
    pub seed: u64,
    /// Which fault this connection injects.
    pub fault: ConnFault,
    /// The bytes the chaotic client writes before its fault behavior.
    pub payload: Vec<u8>,
    /// Whether the client reads responses before closing (`false` models
    /// a peer that vanishes or stalls).
    pub reads_response: bool,
}

impl ConnFaultPlan {
    /// Derive the plan for `seed` deterministically.
    fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ed_270b_8d3c_91a7);
        let fault = ALL_CONN_FAULTS[rng.gen_range(0..ALL_CONN_FAULTS.len())];
        let base = br#"{"op":"ratio","network":"Sprint"}"#;
        let (payload, reads_response) = match fault {
            ConnFault::GarbageBytes => {
                let len = rng.gen_range(16..200usize);
                let mut bytes: Vec<u8> = (0..len)
                    .map(|_| rng.gen_range(0x21..0x7fusize) as u8)
                    .collect();
                // Never start with 'G': the daemon multiplexes an HTTP
                // scrape endpoint on a "GET " prefix, and this fault must
                // exercise the NDJSON parse path.
                bytes[0] = b'?';
                bytes.push(b'\n');
                (bytes, true)
            }
            ConnFault::TruncatedFrame | ConnFault::StalledWriter => {
                let cut = rng.gen_range(1..base.len());
                (base[..cut].to_vec(), false)
            }
            ConnFault::MidRequestDisconnect => {
                let mut bytes = base.to_vec();
                bytes.push(b'\n');
                (bytes, false)
            }
            ConnFault::DeepNesting => {
                let depth = CHAOS_WIRE_DEPTH + 1 + rng.gen_range(0..32usize);
                let mut doc = String::from(r#"{"op":"#);
                doc.push_str(&"[".repeat(depth));
                doc.push('0');
                doc.push_str(&"]".repeat(depth));
                doc.push_str("}\n");
                (doc.into_bytes(), true)
            }
            ConnFault::OversizedFrame => {
                let pad = CHAOS_FRAME_CAP + rng.gen_range(1..1024usize);
                let mut doc = String::from(r#"{"op":"ping","pad":""#);
                doc.push_str(&"x".repeat(pad));
                doc.push_str("\"}\n");
                (doc.into_bytes(), true)
            }
        };
        ConnFaultPlan {
            seed,
            fault,
            payload,
            reads_response,
        }
    }

    /// A deterministic suite of `count` plans seeded `base_seed..`,
    /// extended so every [`ConnFault`] kind appears at least once (tail
    /// plans use seeds `base_seed + 1000 + kind_index`).
    pub fn suite(base_seed: u64, count: usize) -> Vec<ConnFaultPlan> {
        let mut plans: Vec<ConnFaultPlan> = (0..count as u64)
            .map(|i| ConnFaultPlan::from_seed(base_seed + i))
            .collect();
        for (i, &fault) in ALL_CONN_FAULTS.iter().enumerate() {
            if !plans.iter().any(|p| p.fault == fault) {
                plans.push(ConnFaultPlan::forced(base_seed + 1000 + i as u64, fault));
            }
        }
        plans
    }

    /// Derive a plan for a specific fault kind (payload still seeded): the
    /// first of the derived seeds `seed + 7919·probe` whose kind matches.
    fn forced(seed: u64, fault: ConnFault) -> Self {
        // Bounded because the kind draw is uniform over six variants.
        for probe in 0..1024u64 {
            let plan = ConnFaultPlan::from_seed(seed.wrapping_add(probe.wrapping_mul(7919)));
            if plan.fault == fault {
                return ConnFaultPlan { seed, ..plan };
            }
        }
        // Statistically unreachable (p ≈ (5/6)^1024).
        panic!("no derived seed of {seed} yields {}", fault.name());
    }
}

/// The real CLI query handler over a freshly built context.
pub fn cli_handler() -> ServeHandler {
    let ctx = CliContext::build(&[]).expect("context");
    let cli = parse_args(&["corpus".to_string()]).expect("parse");
    ServeHandler::new(ctx, cli.weights(), None)
}

/// Bind `handler` on an ephemeral loopback port with the frame cap, wire
/// depth and timeouts the faults are sized for, and start serving.
pub fn start(handler: Arc<dyn QueryHandler>) -> (SocketAddr, SpawnedServer) {
    let config = ServeConfig {
        frame_cap_bytes: CHAOS_FRAME_CAP,
        max_depth: CHAOS_WIRE_DEPTH,
        read_timeout_ms: READ_TIMEOUT_MS,
        write_timeout_ms: 500,
        drain_ms: 1_000,
        ..ServeConfig::default()
    };
    let server = Server::bind_tcp("127.0.0.1:0", handler, config).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    (addr, server.spawn())
}

pub fn counter(name: &str) -> u64 {
    riskroute_obs::counter_value(name)
}

/// Poll until `name` exceeds `before` (the counters fire from detached
/// connection threads).
pub fn wait_counter_above(name: &str, before: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if counter(name) > before {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Wait until every admitted request has been answered (ok, partial,
/// error, or panic) so a later request is never shed by admission and
/// shutdown never races in-flight work.
pub fn wait_settled() {
    let deadline = Instant::now() + Duration::from_secs(120);
    while Instant::now() < deadline {
        let total = counter("serve_requests_total");
        let done = counter("serve_requests_ok")
            + counter("serve_requests_partial")
            + counter("serve_requests_error")
            + counter("serve_requests_panicked");
        if done >= total {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("in-flight requests never settled");
}

/// Replay one adversarial client script against the daemon.
fn drive(addr: SocketAddr, plan: &ConnFaultPlan) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&plan.payload).expect("write payload");
    let _ = stream.flush();
    if plan.fault == ConnFault::StalledWriter {
        // Hold the half-written frame open past the server's stall window.
        std::thread::sleep(Duration::from_millis(READ_TIMEOUT_MS * 3));
    } else if plan.reads_response {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let mut line = String::new();
        let _ = BufReader::new(&stream).read_line(&mut line);
    }
    // Else: vanish without reading (truncation / mid-request disconnect).
}

/// Throw every plan at the daemon in order. Each must drive its expected
/// counter; in-flight work settles before `after_each` runs, so the heavy
/// mid-request work never makes admission shed a later plan's request.
pub fn fire(addr: SocketAddr, plans: &[ConnFaultPlan], mut after_each: impl FnMut(&ConnFaultPlan)) {
    for fault in ALL_CONN_FAULTS {
        assert!(
            plans.iter().any(|p| p.fault == *fault),
            "suite must cover {}",
            fault.name()
        );
    }
    for plan in plans {
        let name = plan.fault.expected_counter();
        let before = counter(name);
        drive(addr, plan);
        assert!(
            wait_counter_above(name, before),
            "fault did not drive {name}: seed {} {:?}",
            plan.seed,
            plan.fault
        );
        wait_settled();
        after_each(plan);
    }
}

/// Send one request line and return the one-line reply.
pub fn roundtrip(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    let mut reader = BufReader::new(stream);
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    out.trim_end().to_string()
}
