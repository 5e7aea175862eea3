//! The daemon: a TCP accept loop handing connections to per-connection
//! reader/completion thread pairs, all submitting into one resident
//! [`Farm`] with a pool-wide shared estimation graph.
//!
//! # Admission control
//!
//! A request passes three gates before it runs:
//!
//! 1. **connection budget** — each connection may have at most
//!    [`ServerConfig::inflight_per_conn`] farm-backed requests in flight;
//!    excess requests fail fast with `overloaded` (429).
//! 2. **farm admission** — submissions are fail-fast: a full farm answers
//!    `overloaded` (429) instead of blocking the connection's reader.
//! 3. **deadline** — `deadline_ms` (or the server default) becomes a timed
//!    cancellation token; expiry surfaces as `deadline_exceeded` (504).
//!
//! Cancellation is a tree: server root → connection → request. Client
//! disconnect cancels the connection token, which abandons every job the
//! connection still has in flight at the estimator's next checkpoint.

use crate::json::{obj, s, Value};
use crate::proto::{
    self, err_response, ok_response, ErrorCode, WireError, WireRequest, DEFAULT_MAX_LINE,
};
use ape_core::cancel::CancelToken;
use ape_farm::{Farm, FarmConfig, FarmError, JobHandle, Request, SubmitOptions};
use ape_netlist::{parse_spice, Technology};
use ape_probe::render_prometheus;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Farm admission bound (gate 2 of admission control).
    pub queue_capacity: usize,
    /// Maximum concurrent connections; excess accepts are closed
    /// immediately after a `shutting_down`-style error line.
    pub max_connections: usize,
    /// Per-connection in-flight budget (gate 1 of admission control).
    pub inflight_per_conn: usize,
    /// Deadline applied when a request carries no `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Request line size cap, bytes; longer lines answer `oversized` (413).
    pub max_line_bytes: usize,
    /// Honour the `shutdown` op (tests and benches); when `false` the op
    /// answers `bad_request`.
    pub allow_remote_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 256,
            max_connections: 64,
            inflight_per_conn: 32,
            default_deadline: None,
            max_line_bytes: DEFAULT_MAX_LINE,
            allow_remote_shutdown: true,
        }
    }
}

/// Monotonic counters for the daemon itself (the farm keeps its own).
#[derive(Default)]
struct ServeStats {
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    cancelled: AtomicU64,
}

/// State shared by the accept loop and every connection.
pub struct ServerState {
    farm: Farm,
    config: ServerConfig,
    registry: ape_probe::Registry,
    root: CancelToken,
    shutting_down: AtomicBool,
    open_conns: AtomicUsize,
    stats: ServeStats,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("config", &self.config)
            .finish()
    }
}

impl ServerState {
    fn new(tech: Technology, config: ServerConfig) -> Arc<ServerState> {
        // The pool-wide shared estimation graph is the point of a resident
        // daemon, so its farm always has one.
        let farm_config = FarmConfig {
            queue_capacity: config.queue_capacity,
            job_timeout: None,
            shared_graph: true,
        };
        Arc::new(ServerState {
            farm: Farm::new(tech, farm_config),
            config,
            registry: ape_probe::Registry::new(),
            root: CancelToken::new(),
            shutting_down: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            stats: ServeStats::default(),
        })
    }

    /// The resident farm (to register technologies in-process, inspect
    /// stats, or reach the shared memo).
    pub fn farm(&self) -> &Farm {
        &self.farm
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.root.cancel();
        self.farm.cancel_all();
    }

    /// A full metrics snapshot: the daemon's own registry merged with the
    /// farm's lifetime counters, latency histograms, and the shared
    /// graph's hit/miss counters — ready for [`render_prometheus`].
    pub fn metrics_snapshot(&self) -> ape_probe::RegistrySnapshot {
        let mut snap = self.registry.snapshot();
        let f = self.farm.stats();
        for (name, v) in [
            ("ape.farm.submitted", f.submitted),
            ("ape.farm.executed", f.executed),
            ("ape.farm.cache_hits", f.cache_hits),
            ("ape.farm.deduped", f.deduped),
            ("ape.farm.cancelled", f.cancelled),
            ("ape.farm.panicked", f.panicked),
            ("ape.farm.rejected", f.rejected),
        ] {
            snap.counters.insert(name.to_string(), v);
        }
        let st = &self.stats;
        for (name, v) in [
            (
                "ape.serve.connections.total",
                st.connections.load(Ordering::Relaxed),
            ),
            ("ape.serve.requests", st.requests.load(Ordering::Relaxed)),
            ("ape.serve.errors", st.errors.load(Ordering::Relaxed)),
            (
                "ape.serve.overloaded",
                st.overloaded.load(Ordering::Relaxed),
            ),
            ("ape.serve.cancelled", st.cancelled.load(Ordering::Relaxed)),
        ] {
            snap.counters.insert(name.to_string(), v);
        }
        snap.values.insert(
            "ape.farm.queue.wait_ns".to_string(),
            self.farm.queue_wait_ns(),
        );
        snap.values.insert(
            "ape.farm.job.latency_ns".to_string(),
            self.farm.job_latency_ns(),
        );
        if let Some(store) = self.farm.shared_memo() {
            let g = store.stats();
            snap.counters
                .insert("ape.graph.shared.hits".to_string(), g.hits);
            snap.counters
                .insert("ape.graph.shared.misses".to_string(), g.misses);
            snap.counters
                .insert("ape.graph.shared.inserts".to_string(), g.inserts);
            snap.counters
                .insert("ape.graph.shared.evictions".to_string(), g.evictions);
        }
        snap
    }

    fn stats_value(&self, conn_inflight: usize) -> Value {
        let f = self.farm.stats();
        let st = &self.stats;
        let shared = self.farm.shared_memo().map(|m| m.stats());
        obj([
            (
                "farm",
                obj([
                    ("submitted", Value::Num(f.submitted as f64)),
                    ("executed", Value::Num(f.executed as f64)),
                    ("cache_hits", Value::Num(f.cache_hits as f64)),
                    ("deduped", Value::Num(f.deduped as f64)),
                    ("cancelled", Value::Num(f.cancelled as f64)),
                    ("panicked", Value::Num(f.panicked as f64)),
                    ("rejected", Value::Num(f.rejected as f64)),
                ]),
            ),
            (
                "serve",
                obj([
                    (
                        "connections",
                        Value::Num(self.open_conns.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "requests",
                        Value::Num(st.requests.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "errors",
                        Value::Num(st.errors.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "overloaded",
                        Value::Num(st.overloaded.load(Ordering::Relaxed) as f64),
                    ),
                    ("conn_inflight", Value::Num(conn_inflight as f64)),
                ]),
            ),
            (
                "shared_graph",
                shared.map_or(Value::Null, |g| {
                    obj([
                        ("hits", Value::Num(g.hits as f64)),
                        ("misses", Value::Num(g.misses as f64)),
                        ("inserts", Value::Num(g.inserts as f64)),
                        ("evictions", Value::Num(g.evictions as f64)),
                    ])
                }),
            ),
        ])
    }
}

/// A bound, not-yet-running daemon.
#[derive(Debug)]
pub struct Server {
    state: Arc<ServerState>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over a
    /// fresh farm running `tech` as the default technology.
    pub fn bind(addr: &str, tech: Technology, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            state: ServerState::new(tech, config),
            listener,
            addr,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared server state (farm access, metrics snapshot).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Runs the accept loop on the calling thread until shutdown.
    pub fn run(self) -> io::Result<()> {
        let Server {
            state, listener, ..
        } = self;
        for stream in listener.incoming() {
            if state.is_shutting_down() {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            if state.open_conns.load(Ordering::Relaxed) >= state.config.max_connections {
                // Over the connection cap: one typed error line, then close.
                let mut stream = stream;
                let err = WireError::new(ErrorCode::Overloaded, "connection limit reached");
                let _ = writeln!(stream, "{}", err_response(0, &err));
                continue;
            }
            // Count the connection before its thread exists, so the next
            // accept already sees it against the cap.
            state.open_conns.fetch_add(1, Ordering::Relaxed);
            let conn_state = state.clone();
            let spawned = std::thread::Builder::new()
                .name("ape-serve-conn".to_string())
                .spawn(move || {
                    conn_state.stats.connections.fetch_add(1, Ordering::Relaxed);
                    handle_conn(&conn_state, stream);
                    conn_state.open_conns.fetch_sub(1, Ordering::Relaxed);
                });
            if spawned.is_err() {
                state.open_conns.fetch_sub(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Spawns the accept loop on a background thread and returns a handle
    /// that can stop it.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.addr;
        let state = self.state.clone();
        let thread = std::thread::Builder::new()
            .name("ape-serve-accept".to_string())
            .spawn(move || {
                let _ = self.run();
            })?;
        Ok(ServerHandle {
            addr,
            state,
            thread: Some(thread),
        })
    }
}

/// Handle to a daemon running on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared server state.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Requests shutdown and joins the accept loop.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.state.begin_shutdown();
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.shutdown_and_join();
        }
    }
}

/// Reads one `\n`-terminated line with a hard byte cap.
///
/// Returns `Ok(Some(line))` (terminator stripped), `Ok(None)` at EOF, and
/// `Err(bytes_discarded)` when the cap was exceeded — the rest of the
/// oversized line (to its newline) has been drained so the protocol can
/// resync.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    cap: usize,
) -> io::Result<Result<Option<String>, usize>> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF. A non-empty partial line without terminator still counts.
            if buf.is_empty() {
                return Ok(Ok(None));
            }
            let line = String::from_utf8_lossy(&buf).into_owned();
            return Ok(Ok(Some(line)));
        }
        if let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + nl > cap {
                let discarded = buf.len() + nl;
                reader.consume(nl + 1);
                return Ok(Err(discarded));
            }
            buf.extend_from_slice(&chunk[..nl]);
            reader.consume(nl + 1);
            let line = String::from_utf8_lossy(&buf).into_owned();
            return Ok(Ok(Some(line)));
        }
        let take = chunk.len();
        if buf.len() + take > cap {
            // Oversized: drain to the newline without buffering.
            reader.consume(take);
            let mut discarded = buf.len() + take;
            loop {
                let chunk = reader.fill_buf()?;
                if chunk.is_empty() {
                    return Ok(Err(discarded));
                }
                if let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
                    discarded += nl;
                    reader.consume(nl + 1);
                    return Ok(Err(discarded));
                }
                discarded += chunk.len();
                let n = chunk.len();
                reader.consume(n);
            }
        }
        buf.extend_from_slice(chunk);
        reader.consume(take);
    }
}

fn handle_conn(state: &Arc<ServerState>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);

    // Sniff HTTP: a browser/Prometheus scraper opening with `GET ` gets a
    // one-shot HTTP response on the same port.
    let first = match read_line_capped(&mut reader, state.config.max_line_bytes) {
        Ok(Ok(Some(line))) => line,
        Ok(Ok(None)) => return,
        Ok(Err(_)) => {
            // Oversized first line: report it and fall through to the
            // NDJSON loop — the reader already resynced past the newline.
            let mut w = &write_half;
            let err = WireError::new(ErrorCode::Oversized, "first line exceeds the size cap");
            let _ = writeln!(w, "{}", err_response(0, &err));
            let _ = w.flush();
            serve_ndjson(state, None, reader, write_half);
            return;
        }
        Err(_) => return,
    };
    if first.starts_with("GET ") || first.starts_with("HEAD ") {
        serve_http(state, &first, reader, write_half);
        return;
    }

    serve_ndjson(state, Some(first), reader, write_half);
}

fn serve_http<R: Read>(
    state: &ServerState,
    request_line: &str,
    mut reader: BufReader<R>,
    mut w: TcpStream,
) {
    // Drain the header block so the peer isn't hit with a reset while
    // still sending.
    let mut header = String::new();
    while let Ok(n) = reader.read_line(&mut header) {
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
        header.clear();
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            render_prometheus(&state.metrics_snapshot()),
        ),
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let _ = write!(
        w,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

/// Metadata for one farm-backed request awaiting completion.
struct Pending {
    id: u64,
    started: Instant,
    deadline: Option<Instant>,
    /// Set by an explicit `cancel` op, to disambiguate `cancelled` from
    /// `deadline_exceeded` when the farm reports [`FarmError::Cancelled`].
    cancelled_explicitly: Arc<AtomicBool>,
}

type CancelMap = Arc<Mutex<HashMap<u64, (CancelToken, Arc<AtomicBool>)>>>;

struct ConnShared<W: Write> {
    writer: Mutex<W>,
    inflight: AtomicUsize,
    cancel_map: CancelMap,
}

impl<W: Write> ConnShared<W> {
    fn write_line(&self, line: &str) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

fn serve_ndjson<R: Read, W: Write + Send + 'static>(
    state: &Arc<ServerState>,
    first_line: Option<String>,
    mut reader: BufReader<R>,
    writer: W,
) {
    let conn = Arc::new(ConnShared {
        writer: Mutex::new(writer),
        inflight: AtomicUsize::new(0),
        cancel_map: Arc::new(Mutex::new(HashMap::new())),
    });
    let conn_token = state.root.child();
    let latency = state.registry.histogram("ape.serve.request.latency_ns");

    // Completion thread: waits farm-backed requests FIFO and writes their
    // responses. Immediate ops answer from the reader thread; the writer
    // mutex keeps lines atomic.
    let (tx, rx) = mpsc::channel::<(JobHandle, Pending)>();
    let completion = {
        let conn = conn.clone();
        let state = state.clone();
        let latency = latency.clone();
        std::thread::Builder::new()
            .name("ape-serve-complete".to_string())
            .spawn(move || {
                while let Ok((handle, p)) = rx.recv() {
                    let outcome = handle.wait();
                    latency.record(p.started.elapsed().as_nanos() as f64);
                    conn.inflight.fetch_sub(1, Ordering::SeqCst);
                    conn.cancel_map
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(&p.id);
                    let line = match outcome {
                        Ok(resp) => {
                            let result = match &resp {
                                ape_farm::Response::OpAmp(amp) => proto::design_result(amp),
                                ape_farm::Response::Netlist(est) => proto::estimate_result(est),
                                other => s(&format!("{other:?}")),
                            };
                            ok_response(p.id, result)
                        }
                        Err(e) => {
                            let err = map_farm_error(&e, &p);
                            if err.code == ErrorCode::Cancelled {
                                state.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                            }
                            state.stats.errors.fetch_add(1, Ordering::Relaxed);
                            err_response(p.id, &err)
                        }
                    };
                    conn.write_line(&line);
                }
            })
    };

    let mut pending_first = first_line;
    loop {
        let line = match pending_first.take() {
            Some(l) => l,
            None => match read_line_capped(&mut reader, state.config.max_line_bytes) {
                Ok(Ok(Some(l))) => l,
                Ok(Ok(None)) | Err(_) => break,
                Ok(Err(discarded)) => {
                    state.stats.errors.fetch_add(1, Ordering::Relaxed);
                    let err = WireError::new(
                        ErrorCode::Oversized,
                        format!(
                            "request line of {discarded}+ bytes exceeds the {}-byte cap",
                            state.config.max_line_bytes
                        ),
                    );
                    conn.write_line(&err_response(0, &err));
                    continue;
                }
            },
        };
        if line.trim().is_empty() {
            continue;
        }
        state.stats.requests.fetch_add(1, Ordering::Relaxed);
        state.registry.counter_add("ape.serve.requests", 1);
        let (id, req) = match proto::parse_request(&line) {
            Ok(parsed) => parsed,
            Err((id, err)) => {
                state.stats.errors.fetch_add(1, Ordering::Relaxed);
                state.registry.counter_add("ape.serve.bad_request", 1);
                conn.write_line(&err_response(id, &err));
                continue;
            }
        };
        let stop = dispatch(state, &conn, &conn_token, &tx, id, req);
        if stop {
            break;
        }
    }

    // Disconnect (or shutdown): cancel everything this connection still
    // has in flight, then let the completion thread drain.
    conn_token.cancel();
    drop(tx);
    if let Ok(t) = completion {
        let _ = t.join();
    }
}

/// Handles one parsed request. Returns `true` when the connection should
/// stop reading (shutdown).
fn dispatch<W: Write>(
    state: &Arc<ServerState>,
    conn: &Arc<ConnShared<W>>,
    conn_token: &CancelToken,
    tx: &mpsc::Sender<(JobHandle, Pending)>,
    id: u64,
    req: WireRequest,
) -> bool {
    match req {
        WireRequest::Ping => {
            conn.write_line(&ok_response(id, obj([("pong", Value::Bool(true))])));
        }
        WireRequest::Stats => {
            let inflight = conn.inflight.load(Ordering::SeqCst);
            conn.write_line(&ok_response(id, state.stats_value(inflight)));
        }
        WireRequest::Metrics => {
            let text = render_prometheus(&state.metrics_snapshot());
            conn.write_line(&ok_response(id, obj([("text", s(&text))])));
        }
        WireRequest::RegisterTech { base, overrides } => {
            let tech = overrides.apply(base);
            let fp = state.farm.register_technology(tech);
            state.registry.counter_add("ape.serve.register_tech", 1);
            conn.write_line(&ok_response(
                id,
                obj([("technology", s(&proto::fingerprint_hex(fp)))]),
            ));
        }
        WireRequest::RegisterCalibration { table } => {
            let fp = state.farm.register_calibration(table);
            state
                .registry
                .counter_add("ape.serve.register_calibration", 1);
            conn.write_line(&ok_response(
                id,
                obj([("calibration", s(&proto::fingerprint_hex(fp)))]),
            ));
        }
        WireRequest::Cancel { target } => {
            let entry = conn
                .cancel_map
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&target)
                .cloned();
            let hit = match entry {
                Some((token, flag)) => {
                    flag.store(true, Ordering::SeqCst);
                    token.cancel();
                    true
                }
                None => false,
            };
            conn.write_line(&ok_response(id, obj([("cancelled", Value::Bool(hit))])));
        }
        WireRequest::Shutdown => {
            if !state.config.allow_remote_shutdown {
                let err = WireError::new(ErrorCode::BadRequest, "remote shutdown is disabled");
                conn.write_line(&err_response(id, &err));
                return false;
            }
            // Flip the state before acknowledging: a client that has read
            // the reply must observe `is_shutting_down()` as true.
            state.begin_shutdown();
            conn.write_line(&ok_response(id, obj([("stopping", Value::Bool(true))])));
            return true;
        }
        WireRequest::Design {
            topology,
            spec,
            technology,
            calibration,
            deadline_ms,
        } => {
            submit_job(
                state,
                conn,
                conn_token,
                tx,
                id,
                Request::OpAmpDesign { topology, spec },
                technology,
                calibration,
                deadline_ms,
            );
        }
        WireRequest::Estimate {
            deck,
            output,
            technology,
            calibration,
            deadline_ms,
        } => {
            // Parse on the connection thread: a bad deck never occupies an
            // executor thread or an admission slot.
            let (circuit, _deck_tech) = match parse_spice(&deck) {
                Ok(parsed) => parsed,
                Err(e) => {
                    state.stats.errors.fetch_add(1, Ordering::Relaxed);
                    let err = WireError::new(ErrorCode::EstimatorError, format!("bad deck: {e}"));
                    conn.write_line(&err_response(id, &err));
                    return false;
                }
            };
            let Some(node) = circuit.find_node(&output) else {
                state.stats.errors.fetch_add(1, Ordering::Relaxed);
                let err = WireError::new(
                    ErrorCode::EstimatorError,
                    format!("output node `{output}` is not in the deck"),
                );
                conn.write_line(&err_response(id, &err));
                return false;
            };
            submit_job(
                state,
                conn,
                conn_token,
                tx,
                id,
                Request::NetlistEstimate {
                    circuit: Box::new(circuit),
                    output: node,
                },
                technology,
                calibration,
                deadline_ms,
            );
        }
    }
    false
}

#[allow(clippy::too_many_arguments)]
fn submit_job<W: Write>(
    state: &Arc<ServerState>,
    conn: &Arc<ConnShared<W>>,
    conn_token: &CancelToken,
    tx: &mpsc::Sender<(JobHandle, Pending)>,
    id: u64,
    req: Request,
    technology: Option<u64>,
    calibration: Option<u64>,
    deadline_ms: Option<u64>,
) {
    // Gate 1: the connection's in-flight budget.
    let budget = state.config.inflight_per_conn;
    if conn.inflight.load(Ordering::SeqCst) >= budget {
        state.stats.overloaded.fetch_add(1, Ordering::Relaxed);
        state.stats.errors.fetch_add(1, Ordering::Relaxed);
        state.registry.counter_add("ape.serve.overloaded", 1);
        let err = WireError::new(
            ErrorCode::Overloaded,
            format!("connection budget of {budget} in-flight requests exhausted"),
        );
        conn.write_line(&err_response(id, &err));
        return;
    }

    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(state.config.default_deadline);
    let token = match deadline {
        Some(d) => conn_token.child_with_timeout(d),
        None => conn_token.child(),
    };
    let cancelled_explicitly = Arc::new(AtomicBool::new(false));
    conn.cancel_map
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id, (token.clone(), cancelled_explicitly.clone()));

    // Gate 2: fail-fast farm submission.
    let opts = SubmitOptions {
        technology,
        calibration,
        token: Some(token),
        deadline: None,
        fail_fast: true,
    };
    let handle = state.farm.submit_opts(req, opts);
    conn.inflight.fetch_add(1, Ordering::SeqCst);
    let pending = Pending {
        id,
        started: Instant::now(),
        deadline: deadline.map(|d| Instant::now() + d),
        cancelled_explicitly,
    };
    if tx.send((handle, pending)).is_err() {
        // Completion thread is gone (connection tearing down).
        conn.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn map_farm_error(e: &FarmError, p: &Pending) -> WireError {
    match e {
        FarmError::Ape(err) => WireError::new(ErrorCode::EstimatorError, err.to_string()),
        FarmError::Oblx(err) => WireError::new(ErrorCode::EstimatorError, err.to_string()),
        FarmError::Cancelled => {
            if p.cancelled_explicitly.load(Ordering::SeqCst) {
                WireError::new(ErrorCode::Cancelled, "cancelled by request")
            } else if p.deadline.is_some_and(|d| Instant::now() >= d) {
                WireError::new(ErrorCode::DeadlineExceeded, "deadline expired")
            } else {
                WireError::new(ErrorCode::Cancelled, "cancelled (connection closed)")
            }
        }
        FarmError::Panicked(m) => WireError::new(ErrorCode::Internal, format!("job panicked: {m}")),
        FarmError::WorkerLost(m) => WireError::new(ErrorCode::Internal, m.clone()),
        FarmError::QueueFull => WireError::new(ErrorCode::Overloaded, "farm queue full"),
        FarmError::ShuttingDown => WireError::new(ErrorCode::ShuttingDown, "server shutting down"),
        FarmError::UnknownTechnology(fp) => WireError::new(
            ErrorCode::UnknownTechnology,
            format!(
                "technology {} is not registered",
                proto::fingerprint_hex(*fp)
            ),
        ),
        FarmError::UnknownCalibration(fp) => WireError::new(
            ErrorCode::UnknownCalibration,
            format!(
                "calibration {} is not registered",
                proto::fingerprint_hex(*fp)
            ),
        ),
        FarmError::CalibrationMismatch { expected, got } => WireError::new(
            ErrorCode::CalibrationMismatch,
            format!(
                "calibration was fitted for technology {}, request runs on {}",
                proto::fingerprint_hex(*got),
                proto::fingerprint_hex(*expected)
            ),
        ),
        other => WireError::new(ErrorCode::Internal, other.to_string()),
    }
}

/// Serves the NDJSON protocol over arbitrary streams — the `--stdio` mode
/// used by tests and the `ape-check` driver. Semantics match a TCP
/// connection (including pipelining via the completion thread).
pub fn serve_stream<R: Read, W: Write + Send + 'static>(
    state: &Arc<ServerState>,
    reader: R,
    writer: W,
) {
    serve_ndjson(state, None, BufReader::new(reader), writer);
}

/// Builds a standalone server state without binding a socket (stdio mode).
pub fn standalone_state(tech: Technology, config: ServerConfig) -> Arc<ServerState> {
    ServerState::new(tech, config)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn capped_reader_resyncs_after_oversized_line() {
        let data = format!("{}\nnext\n", "x".repeat(100));
        let mut r = BufReader::new(data.as_bytes());
        match read_line_capped(&mut r, 10).unwrap() {
            Err(discarded) => assert!(discarded >= 10),
            other => panic!("expected oversize, got {other:?}"),
        }
        assert_eq!(
            read_line_capped(&mut r, 10).unwrap().unwrap(),
            Some("next".to_string())
        );
        assert_eq!(read_line_capped(&mut r, 10).unwrap().unwrap(), None);
    }

    #[test]
    fn capped_reader_accepts_unterminated_final_line() {
        let mut r = BufReader::new(&b"tail"[..]);
        assert_eq!(
            read_line_capped(&mut r, 10).unwrap().unwrap(),
            Some("tail".to_string())
        );
    }
}
