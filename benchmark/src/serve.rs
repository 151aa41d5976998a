//! serve-mixed: one closed-loop connection against a spawned `riskroute
//! serve` daemon over loopback. The client, the daemon and the calibration
//! loop share one core, so a reply wakes the client by a context switch
//! rather than a cross-core wake-up whose cost swings with the other core's
//! idle state; a second connection on that core would only queue behind
//! the first and double the noise of the latency it reports.

use crate::calib::{self, Calibrator, Samples, Slices};
use crate::inputs::{self, ServeMix, ServeOp};
use crate::prom::{self, Scrape};
use crate::{stats, sys, Measured, Run, Tally, Traced};
use riskroute_cli::{commands, CliContext, CLI_SEED};
use riskroute_json::Json;
use riskroute_rng::StdRng;
use riskroute_serve::protocol::render_reply;
use riskroute_serve::Reply;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Route queries in the Zipf-ranked pool.
const POOL: usize = 1024;

/// A `riskroute serve` child; killed and reaped if dropped while running.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Start a daemon on an ephemeral loopback port and wait for its
    /// `listening on` line.
    fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("the daemon has no stdout".into());
        };
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read the daemon's announcement: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected daemon announcement {line:?}"))?;
        Ok(daemon)
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("cannot connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone the socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// `GET /metrics`, parsed.
    fn scrape(&self) -> Result<Scrape, String> {
        let mut stream =
            TcpStream::connect(self.addr).map_err(|e| format!("cannot connect: {e}"))?;
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .map_err(|e| format!("cannot request /metrics: {e}"))?;
        let mut text = String::new();
        stream
            .read_to_string(&mut text)
            .map_err(|e| format!("cannot read /metrics: {e}"))?;
        Scrape::parse(&text)
    }

    /// Send `shutdown` and wait for the drain; whether the daemon reported
    /// a clean drain and exited 0.
    fn shutdown(mut self) -> Result<bool, String> {
        let reply = self.connect()?.call("{\"op\":\"shutdown\"}")?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot wait for the daemon: {e}"))?;
        let mut rest = String::new();
        let read = self.stdout.read_to_string(&mut rest);
        Ok(reply == "{\"status\":\"draining\"}"
            && status.success()
            && read.is_ok()
            && rest.starts_with("drained cleanly"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection speaking NDJSON.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Send one request line; its reply line, without the newline.
    fn call(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("cannot send a request: {e}"))?;
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("cannot read a reply: {e}"))?;
        if n == 0 {
            return Err("the daemon closed the connection".into());
        }
        line.pop();
        Ok(line)
    }
}

/// A request line and the exact reply line it must get.
struct Query {
    request: String,
    expected: String,
}

/// Every query the mix can send, answered in-process by the same command
/// functions the daemon wraps.
struct Queries {
    routes: Vec<Query>,
    ratios: Vec<Query>,
    /// One route per corpus network, sent during set-up so the daemon
    /// builds every planner before the first timed request.
    warm: Vec<String>,
}

fn queries(run: &Run) -> Result<Queries, String> {
    let ctx = CliContext::build(&[]).map_err(|e| e.to_string())?;
    let weights = crate::cli_weights();
    let networks: Vec<_> = ctx.corpus.all_networks().collect();
    let counts: Vec<usize> = networks.iter().map(|n| n.pop_count()).collect();
    let ok = |output: Result<String, riskroute_cli::CliError>| {
        output
            .map(|output| render_reply(None, &Reply::Ok { output }))
            .map_err(|e| e.to_string())
    };
    let route_request = |net: &str, s: usize, d: usize| {
        Json::obj([
            ("op", Json::Str("route".into())),
            ("network", Json::Str(net.into())),
            ("src", Json::Str(s.to_string())),
            ("dst", Json::Str(d.to_string())),
        ])
        .to_string_compact()
    };
    let routes = inputs::route_pool(&counts, POOL, run.seed)
        .into_iter()
        .map(|(n, s, d)| {
            let name = networks[n].name();
            Ok(Query {
                request: route_request(name, s, d),
                expected: ok(commands::route(
                    &ctx,
                    name,
                    &s.to_string(),
                    &d.to_string(),
                    weights,
                ))?,
            })
        })
        .collect::<Result<_, String>>()?;
    let ratios = ctx
        .corpus
        .regional
        .iter()
        .map(|net| {
            Ok(Query {
                request: Json::obj([
                    ("op", Json::Str("ratio".into())),
                    ("network", Json::Str(net.name().into())),
                ])
                .to_string_compact(),
                expected: ok(commands::ratio(&ctx, net.name(), weights, None, CLI_SEED))?,
            })
        })
        .collect::<Result<_, String>>()?;
    let warm = networks
        .iter()
        .map(|n| route_request(n.name(), 0, 1))
        .collect();
    Ok(Queries {
        routes,
        ratios,
        warm,
    })
}

/// Start a daemon and send the warm-up routes; the daemon and the
/// calibrated seconds from spawn to the last warm reply.
fn start_daemon(run: &Run, cal: &mut Calibrator, warm: &[String]) -> Result<(Daemon, f64), String> {
    calib::timed(
        || Ok(cal.factor()),
        || {
            let daemon = Daemon::spawn(&run.riskroute)?;
            let mut conn = daemon.connect()?;
            for request in warm {
                let reply = conn.call(request)?;
                if !reply.contains("\"status\":\"ok\"") {
                    return Err(format!("warm-up request {request} failed: {reply}"));
                }
            }
            Ok(daemon)
        },
    )
}

/// What the client saw in one phase.
#[derive(Default)]
struct Phase {
    ops: Vec<ServeOp>,
    routes: usize,
    tally: Tally,
}

/// The benchmark's client: one connection and a seeded request stream.
struct Client<'q> {
    conn: Conn,
    queries: &'q Queries,
    mix: ServeMix,
    seed: u64,
    rng: StdRng,
}

impl<'q> Client<'q> {
    fn connect(daemon: &Daemon, queries: &'q Queries, seed: u64) -> Result<Client<'q>, String> {
        Ok(Client {
            conn: daemon.connect()?,
            queries,
            mix: ServeMix::new(queries.routes.len(), queries.ratios.len()),
            seed,
            rng: inputs::rng(seed, "serve-warm-up", 0),
        })
    }

    /// Send the next request and check its reply; its wall milliseconds.
    fn request(&mut self, phase: &mut Phase) -> Result<f64, String> {
        let op = self.mix.draw(&mut self.rng);
        let query = match op {
            ServeOp::Route(i) => &self.queries.routes[i],
            ServeOp::Ratio(i) => &self.queries.ratios[i],
        };
        let t = Instant::now();
        let reply = self.conn.call(&query.request)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        phase.tally.check(reply == query.expected, || {
            format!(
                "{} got {}",
                query.request,
                reply.get(..160).unwrap_or(&reply)
            )
        });
        phase.routes += usize::from(matches!(op, ServeOp::Route(_)));
        phase.ops.push(op);
        Ok(ms)
    }

    /// The closed loop for `seconds` in calibrated slices, drawing input
    /// stream `stream`: the phase, its latencies, and its calibrated time.
    fn run_for(
        &mut self,
        stream: &str,
        seconds: f64,
        cal: &mut Calibrator,
    ) -> Result<(Phase, Samples, f64), String> {
        self.rng = inputs::rng(self.seed, stream, 0);
        let mut slices = Slices::start(calib::SLICE_S, || Ok(cal.factor()))?;
        let mut phase = Phase::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            slices.next()?;
            let ms = self.request(&mut phase)?;
            slices.push(ms);
        }
        let (units, calibrated_s) = slices.finish()?;
        Ok((phase, units, calibrated_s))
    }

    /// Requests for [`crate::WARMUP_S`], discarded.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut phase = Phase::default();
        crate::warm_up(|_| self.request(&mut phase).map(|_| ()))
    }
}

/// Tracing off: `setup_s` is daemon start to every planner warm, latency
/// one request, memory the daemon's peak.
pub fn measure(run: &Run) -> Result<Measured, String> {
    calib::pin_to_first()?;
    let mut cal = Calibrator::default();
    let queries = queries(run)?;
    let mut tally = Tally::default();
    let (daemon, setup_s) = crate::repeat_setup(
        || start_daemon(run, &mut cal, &queries.warm),
        |earlier: Daemon| {
            let drained = earlier.shutdown()?;
            tally.check(drained, || "a set-up daemon did not drain cleanly".into());
            Ok(())
        },
    )?;
    let mut client = Client::connect(&daemon, &queries, run.seed)?;
    client.warm_up()?;
    let (phase, units, phase_s) = client.run_for("serve-client", run.seconds, &mut cal)?;
    let peak_rss_mib = sys::vm_hwm_mib(Some(daemon.child.id()))?;
    drop(client);
    let drained = daemon.shutdown()?;
    tally.check(drained, || "the daemon did not drain cleanly".into());
    tally.attempted += phase.tally.attempted;
    tally.failures.extend(phase.tally.failures);
    let distinct: HashSet<ServeOp> = phase.ops.iter().copied().collect();
    let repeat_share = 1.0 - distinct.len() as f64 / phase.ops.len().max(1) as f64;
    Ok(Measured {
        setup_s,
        units,
        phase_s,
        peak_rss_mib,
        tally,
        notes: vec![("repeat_share", repeat_share, "ratio")],
    })
}

/// The traced pass: the closed loop, split by the daemon's own request and
/// queue-wait histograms and engine counters, scraped before and after (the
/// daemon always collects them; its histograms are wall time). The client
/// records one span for the pass, not one per request: on a round trip of
/// tens of microseconds, per-request client work moves the scheduling
/// enough to make traced requests read faster. With nothing traced per
/// request, the overhead ratio compares alternate requests and reads 1 up
/// to noise.
pub fn trace(run: &Run) -> Result<Traced, String> {
    calib::pin_to_first()?;
    let mut cal = Calibrator::default();
    let queries = queries(run)?;
    let (daemon, _) = start_daemon(run, &mut cal, &queries.warm)?;
    let mut client = Client::connect(&daemon, &queries, run.seed)?;
    client.warm_up()?;
    let before = daemon.scrape()?;
    riskroute_obs::enable();
    let span = riskroute_obs::Span::enter("serve.closed_loop");
    let (phase, units, _) = client.run_for("serve-client", run.seconds, &mut cal)?;
    drop(span);
    let after = daemon.scrape()?;
    drop(client);
    let mut tally = phase.tally;
    let drained = daemon.shutdown()?;
    tally.check(drained, || "the daemon did not drain cleanly".into());

    let quantile = |family: &str, q: f64| {
        prom::quantile_between(&before, &after, &format!("riskroute_{family}"), q).unwrap_or(0.0)
    };
    let request_p50 = quantile("serve_request_us", 0.5);
    let client_p50_us = stats::median(&units.wall_ms).unwrap_or(0.0) * 1e3;
    let counters = crate::layers::ENGINE_COUNTERS
        .iter()
        .map(|&name| (name, after.delta(&before, &format!("riskroute_{name}"))))
        .collect();
    let mut metrics = vec![
        ("serve.request_us_p50", request_p50),
        ("serve.request_us_p99", quantile("serve_request_us", 0.99)),
        (
            "serve.queue_wait_us_p99",
            quantile("serve_queue_wait_us", 0.99),
        ),
        ("serve.transport_us_p50", client_p50_us - request_p50),
        (
            "serve.overloaded",
            after.delta(&before, "riskroute_serve_requests_overloaded"),
        ),
    ];
    metrics.extend(crate::layers::engine_metrics(
        &counters,
        units.len(),
        phase.routes,
    ));
    let handled = after.delta(&before, "riskroute_serve_request_us_count");
    let handler_ms =
        after.delta(&before, "riskroute_serve_request_us_sum") / handled.max(1.0) / 1e3;
    let factor = stats::mean(&units.factors).unwrap_or(1.0);
    let [untraced, traced]: [Samples; 2] = units.deal(2).try_into().expect("two sets");
    Ok(Traced {
        untraced_ms: untraced.calibrated(),
        traced_ms: traced.calibrated(),
        attributed_ms: handler_ms * factor,
        layers: metrics,
        tally,
    })
}
