//! Daemon load generator: N connections × M requests against `ape-serve`.
//!
//! Two phases per run:
//!
//! * **closed loop** — each connection sends one request and waits for its
//!   response before sending the next; the per-request latency histogram
//!   comes from this phase.
//! * **open loop (pipelined)** — each connection keeps a window of
//!   requests in flight; the sustained req/s number comes from this phase.
//!
//! By default the daemon runs in-process on an ephemeral port (so the
//! bench is self-contained); `--addr HOST:PORT` drives an external daemon
//! instead (the CI workflow starts one and points the bench at it).
//! Request streams across connections overlap on purpose. For an
//! in-process daemon the bench then checks, by construction, that answers
//! land in the shared estimation graph: a graph on the bench thread over
//! the daemon's store must be served a request the daemon answered,
//! bit-identical to the wire answer.
//!
//! Writes `results/BENCH_serve.json` (schema 2). `--smoke` shrinks the
//! request counts for CI.
//!
//! Run with `cargo run --release -p ape-bench --bin serve`.

use ape_bench::report::{latency_section, write_bench};
use ape_bench::{fmt_val, render_table};
use ape_core::basic::MirrorTopology;
use ape_core::graph::with_graph;
use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
use ape_netlist::Technology;
use ape_serve::client::Client;
use ape_serve::json::{n, obj, s, Value};
use ape_serve::proto::design_result;
use ape_serve::{Server, ServerConfig, ServerState};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const CONNECTIONS: usize = 4;
/// Open-loop pipelining window, kept under the server's per-connection
/// in-flight budget so admission control never rejects the bench's own
/// well-behaved stream.
const WINDOW: usize = 16;

fn design_fields(gain: f64, ugf: f64) -> Value {
    obj([
        ("topology", obj([("mirror", s("simple"))])),
        (
            "spec",
            obj([
                ("gain", n(gain)),
                ("ugf_hz", n(ugf)),
                ("area_max_m2", n(20e-9)),
                ("ibias", n(1e-5)),
                ("cl", n(1e-11)),
            ]),
        ),
    ])
}

/// The request stream for one connection. Streams overlap between
/// neighbouring connections (half the points are shared) so the daemon's
/// shared graph gets cross-connection traffic without farm-level dedup
/// hiding it (dedup only folds *concurrent* identical jobs).
fn stream(conn: usize, requests: usize) -> Vec<(f64, f64)> {
    (0..requests)
        .map(|i| {
            let k = ((i * CONNECTIONS + (conn % 2)) % 160) as f64;
            (100.0 + k * 3.0, 1e6 + k * 2.9e4)
        })
        .collect()
}

struct PhaseOutcome {
    secs: f64,
    ok: u64,
    errors: u64,
    dropped: u64,
    latency: ape_probe::HistogramSnapshot,
}

fn run_phase(addr: SocketAddr, requests: usize, pipelined: bool) -> PhaseOutcome {
    let hist = Arc::new(ape_probe::Histogram::new());
    let t0 = Instant::now();
    let handles: Vec<_> = (0..CONNECTIONS)
        .map(|conn| {
            let hist = hist.clone();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut errors = 0u64;
                let mut dropped = 0u64;
                let Ok(mut client) = Client::connect(addr) else {
                    return (0, 0, requests as u64);
                };
                let points = stream(conn, requests);
                if pipelined {
                    let mut inflight = 0usize;
                    let mut iter = points.iter();
                    let mut sent = 0usize;
                    let mut received = 0usize;
                    while received < points.len() {
                        while inflight < WINDOW && sent < points.len() {
                            if let Some((gain, ugf)) = iter.next() {
                                if client.send("design", design_fields(*gain, *ugf)).is_err() {
                                    dropped += 1;
                                    received += 1;
                                } else {
                                    inflight += 1;
                                }
                                sent += 1;
                            }
                        }
                        match client.recv() {
                            Ok(reply) => {
                                if reply.outcome.is_ok() {
                                    ok += 1;
                                } else {
                                    errors += 1;
                                }
                            }
                            Err(_) => dropped += 1,
                        }
                        inflight = inflight.saturating_sub(1);
                        received += 1;
                    }
                } else {
                    for (gain, ugf) in points {
                        let t = Instant::now();
                        match client.call("design", design_fields(gain, ugf)) {
                            Ok(reply) => {
                                hist.record(t.elapsed().as_nanos() as f64);
                                if reply.outcome.is_ok() {
                                    ok += 1;
                                } else {
                                    errors += 1;
                                }
                            }
                            Err(_) => dropped += 1,
                        }
                    }
                }
                (ok, errors, dropped)
            })
        })
        .collect();
    let mut ok = 0;
    let mut errors = 0;
    let mut dropped = 0;
    for h in handles {
        let (o, e, d) = h.join().unwrap_or((0, 0, 0));
        ok += o;
        errors += e;
        dropped += d;
    }
    PhaseOutcome {
        secs: t0.elapsed().as_secs_f64(),
        ok,
        errors,
        dropped,
        latency: hist.snapshot(),
    }
}

fn shared_graph_hits(addr: SocketAddr) -> u64 {
    let Ok(mut client) = Client::connect(addr) else {
        return 0;
    };
    let Ok(reply) = client.call("stats", obj([])) else {
        return 0;
    };
    reply
        .outcome
        .ok()
        .and_then(|r| {
            r.get("shared_graph")
                .and_then(|g| g.get("hits"))
                .and_then(Value::as_f64)
        })
        .map_or(0, |v| v as u64)
}

/// The by-construction shared-store check: asks the daemon for `point`
/// over the wire, then designs it on this thread in a graph over the
/// daemon's store. The top-level lookup must hit (so
/// nothing is computed and nothing misses), and the design must render
/// exactly like the wire answer.
fn store_serves_answered_request(
    state: &ServerState,
    addr: SocketAddr,
    (gain, ugf): (f64, f64),
) -> Result<(), String> {
    let store = state
        .farm()
        .shared_memo()
        .ok_or("shared graph is off")?
        .clone();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let wire = client
        .call("design", design_fields(gain, ugf))
        .map_err(|e| format!("design call: {e}"))?
        .outcome
        .map_err(|e| format!("design refused: {e:?}"))?;
    let before = store.stats();
    let spec = OpAmpSpec {
        gain,
        ugf_hz: ugf,
        area_max_m2: 20e-9,
        ibias: 1e-5,
        zout_ohm: None,
        cl: 1e-11,
    };
    let direct = with_graph(&Technology::default_1p2um(), None, Some(&store), |g| {
        OpAmp::design_in(
            g,
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            spec,
        )
    });
    let direct = direct.map_err(|e| format!("direct design: {e}"))?;
    let after = store.stats();
    if after.hits <= before.hits || after.misses != before.misses {
        return Err(format!(
            "answer not in the shared store: {before:?} -> {after:?}"
        ));
    }
    if wire.render() != design_result(&direct).render() {
        return Err("store-served design differs from the wire answer".to_string());
    }
    Ok(())
}

fn main() {
    let _trace = ape_probe::install_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let external: Option<SocketAddr> = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .and_then(|a| a.parse().ok());
    let requests_per_conn = if smoke { 25 } else { 200 };

    let detected = ape_exec::detected_parallelism();
    println!("== ape-serve sustained load: {CONNECTIONS} connections ==");
    println!("detected parallelism: {detected}");
    if detected == 1 {
        eprintln!(
            "serve bench: WARNING: detected parallelism is 1 — connections and workers \
             serialize on one core; latency quantiles are valid but req/s does NOT \
             demonstrate concurrent scaling"
        );
    }

    // In-process daemon unless --addr points at an external one.
    let server = if external.is_none() {
        let config = ServerConfig {
            inflight_per_conn: 64,
            ..ServerConfig::default()
        };
        let srv = Server::bind("127.0.0.1:0", Technology::default_1p2um(), config)
            .expect("bind in-process daemon");
        Some(srv.spawn().expect("spawn daemon"))
    } else {
        None
    };
    let addr = external.unwrap_or_else(|| server.as_ref().map(|s| s.addr()).expect("addr"));

    let closed = run_phase(addr, requests_per_conn, false);
    let open = run_phase(addr, requests_per_conn * 2, true);
    let hits = shared_graph_hits(addr);
    let store_check = server
        .as_ref()
        .map(|h| store_serves_answered_request(h.state(), addr, stream(0, 1)[0]));

    let closed_total = (CONNECTIONS * requests_per_conn) as f64;
    let open_total = (CONNECTIONS * requests_per_conn * 2) as f64;
    let closed_rps = closed_total / closed.secs;
    let sustained_rps = open_total / open.secs;

    println!(
        "{}",
        render_table(
            &[
                "phase",
                "requests",
                "wall (ms)",
                "req/s",
                "ok",
                "errors",
                "dropped"
            ],
            &[
                vec![
                    "closed".into(),
                    format!("{closed_total}"),
                    fmt_val(closed.secs * 1e3),
                    fmt_val(closed_rps),
                    closed.ok.to_string(),
                    closed.errors.to_string(),
                    closed.dropped.to_string(),
                ],
                vec![
                    "open".into(),
                    format!("{open_total}"),
                    fmt_val(open.secs * 1e3),
                    fmt_val(sustained_rps),
                    open.ok.to_string(),
                    open.errors.to_string(),
                    open.dropped.to_string(),
                ],
            ],
        )
    );
    println!(
        "closed-loop latency: p50 {}  p99 {}  (n={})",
        ape_probe::fmt_nanos(closed.latency.p50() as u64),
        ape_probe::fmt_nanos(closed.latency.p99() as u64),
        closed.latency.count
    );
    println!("shared graph cross-request hits: {hits}");

    let dropped = closed.dropped + open.dropped;
    let errors = closed.errors + open.errors;

    write_bench(
        "serve",
        obj([
            ("connections", n(CONNECTIONS as f64)),
            ("requests_per_connection", n(requests_per_conn as f64)),
            ("closed_loop_req_per_s", n(closed_rps)),
            ("sustained_req_per_s", n(sustained_rps)),
            ("ok", n((closed.ok + open.ok) as f64)),
            ("errors", n(errors as f64)),
            ("dropped", n(dropped as f64)),
            ("shared_graph_hits", n(hits as f64)),
            (
                "latency_ns",
                latency_section(&[("request", &closed.latency)]),
            ),
        ]),
    )
    .expect("write BENCH_serve.json");

    if let Some(server) = server {
        server.stop();
    }
    ape_probe::finish();

    assert_eq!(dropped, 0, "daemon dropped responses under load");
    if let Some(Err(e)) = store_check {
        eprintln!("FAIL: shared-store check: {e}");
        std::process::exit(1);
    }
}
