//! The daemon workloads: `wire-closed` and `wire-mixed-open`, both
//! against an in-process `ape-serve` with the default `ServerConfig` on
//! loopback.

use crate::gen::{
    design_line, estimate_line, mixed_schedule, Arrival, DesignInput, DesignStream, MixedKind,
    Target, Tenant,
};
use crate::ladder::LadderInput;
use crate::run::{kept, op_id, repeat_setup, Lane, Measured, RunOpts, Status, Window, SLICES};
use crate::stats::{process_cpu_s, rss_peak_mb};
use crate::trace::now_ns;
use ape_calib::json::{n, obj, s};
use ape_calib::Calibration;
use ape_core::graph::set_thread_calibration;
use ape_core::netest::estimate_netlist;
use ape_core::opamp::OpAmp;
use ape_netlist::{parse_spice, Technology};
use ape_serve::proto::{design_result, estimate_result, ok_response};
use ape_serve::{Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop connections (one generator thread each).
pub const CONNECTIONS: usize = 2;
/// Offered open-loop rate, requests per second. It must stay below what
/// the daemon answers once a stall has filled the connection's in-flight
/// budget: the sender then stops sending, so the client no longer
/// acknowledges the daemon's replies on its next request and each batch
/// of replies waits out the ~44 ms delayed-ACK stall, about 32 requests
/// per 44 ms (~730 req/s). Above that rate one stall turns into a
/// backlog that never drains; below it the run recovers.
pub const OPEN_RATE: f64 = 500.0;
/// Decks in the `wire-mixed-open` estimate pool.
pub const DECK_POOL: usize = 64;

/// One NDJSON connection to the daemon.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with Nagle off, as a latency-sensitive client would.
    pub fn connect(addr: std::net::SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one newline-terminated request and reads one reply line
    /// into `reply`.
    pub fn call(&mut self, line: &str, reply: &mut String) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        recv(&mut self.reader, reply)
    }
}

fn recv(reader: &mut BufReader<TcpStream>, reply: &mut String) -> std::io::Result<()> {
    reply.clear();
    if reader.read_line(reply)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        ));
    }
    Ok(())
}

/// A running in-process daemon and the benchmark's connections to it.
#[derive(Debug)]
pub struct Daemon {
    handle: ServerHandle,
    /// Open connections, pinged once each.
    pub conns: Vec<Conn>,
}

impl Daemon {
    /// Binds a daemon on loopback, opens `conns` connections and pings
    /// each; with a `tenant`, registers its technology and calibration
    /// and checks the fingerprints the daemon answers.
    pub fn start(conns: usize, tenant: Option<&Tenant>) -> Result<Daemon, String> {
        let server = Server::bind(
            "127.0.0.1:0",
            Technology::default_1p2um(),
            ServerConfig::default(),
        )
        .map_err(|e| format!("bind daemon: {e}"))?;
        let addr = server.local_addr();
        let handle = server.spawn().map_err(|e| format!("spawn daemon: {e}"))?;
        let mut daemon = Daemon {
            handle,
            conns: Vec::with_capacity(conns),
        };
        let mut reply = String::new();
        for _ in 0..conns {
            let mut c = Conn::connect(addr)?;
            c.call("{\"op\":\"ping\",\"id\":0}\n", &mut reply)
                .map_err(|e| format!("ping: {e}"))?;
            if !reply.contains("\"pong\":true") {
                return Err(format!("ping answered {reply}"));
            }
            daemon.conns.push(c);
        }
        if let (Some(t), Some(c)) = (tenant, daemon.conns.first_mut()) {
            let tech = obj([
                ("op", s("register_tech")),
                ("id", n(0.0)),
                ("base", s("0p5um")),
            ]);
            c.call(&format!("{}\n", tech.render()), &mut reply)
                .map_err(|e| format!("register_tech: {e}"))?;
            if !reply.contains(&t.tech_ref()) {
                return Err(format!("register_tech answered {reply}"));
            }
            let cal = obj([
                ("op", s("register_calibration")),
                ("id", n(0.0)),
                ("table", t.calibration.to_json()),
            ]);
            c.call(&format!("{}\n", cal.render()), &mut reply)
                .map_err(|e| format!("register_calibration: {e}"))?;
            if !reply.contains(&t.calibration_ref()) {
                return Err(format!("register_calibration answered {reply}"));
            }
        }
        Ok(daemon)
    }

    /// Closes the connections and stops the daemon.
    pub fn stop(self) {
        drop(self.conns);
        self.handle.stop();
    }
}

/// Renders the deck pool: each spec sized by APE and written out as its
/// open-loop testbench. Runs on a fresh thread so every set-up pays the
/// same cold estimation graph.
pub fn render_decks(specs: &[DesignInput]) -> Result<Vec<String>, String> {
    std::thread::scope(|sc| {
        sc.spawn(|| {
            let tech = Technology::default_1p2um();
            specs
                .iter()
                .map(|d| {
                    let amp =
                        OpAmp::design(&tech, d.topology, d.spec).map_err(|e| e.to_string())?;
                    let ckt = amp.testbench_open_loop(&tech).map_err(|e| e.to_string())?;
                    Ok(ckt.to_spice_deck(&tech))
                })
                .collect()
        })
        .join()
        .map_err(|_| "deck rendering panicked".to_string())?
    })
}

/// The id a reply line answers. Success envelopes lead with it; error
/// envelopes (`{"error":…,"id":…}`, keys sorted) are parsed in full.
pub fn reply_id(line: &str) -> Option<u64> {
    if let Some(rest) = line.strip_prefix("{\"id\":") {
        let end = rest.find(|c: char| !c.is_ascii_digit())?;
        return rest[..end].parse().ok();
    }
    let id = ape_calib::json::parse(line.trim_end())
        .ok()?
        .get("id")?
        .as_f64()?;
    (id >= 0.0 && id.fract() == 0.0).then_some(id as u64)
}

/// Classifies a reply line.
pub fn status_of(line: &str) -> Status {
    if line.contains("\"ok\":true") {
        Status::Ok
    } else if line.contains("\"code\":\"overloaded\"") {
        Status::Refused
    } else {
        Status::Failed
    }
}

/// The exact reply line the daemon owes a `design` of `input` on
/// `tech` (under whatever calibration this thread has installed): a
/// direct `OpAmp::design` rendered through the protocol's own encoder.
pub fn expected_design(id: u64, input: &DesignInput, tech: &Technology) -> Result<String, String> {
    let amp = OpAmp::design(tech, input.topology, input.spec).map_err(|e| e.to_string())?;
    Ok(ok_response(id, design_result(&amp)))
}

/// The exact reply line the daemon owes an `estimate` of `deck` (output
/// node `out`) on its default technology. The daemon's farm starts every
/// job with a cold solver cache, so the direct computation does too.
pub fn expected_estimate(id: u64, deck: &str, tech: &Technology) -> Result<String, String> {
    let (ckt, _) = parse_spice(deck).map_err(|e| e.to_string())?;
    let out = ckt.find_node("out").ok_or("deck has no `out` node")?;
    ape_spice::reset_symbolic_cache();
    let est = estimate_netlist(&ckt, tech, out).map_err(|e| e.to_string())?;
    Ok(ok_response(id, estimate_result(&est)))
}

/// `true` when `reply` is exactly `expected` (bit-exact floats included).
pub fn check_reply(reply: &str, expected: &str) -> bool {
    reply.trim_end_matches(['\n', '\r']) == expected
}

fn set_up(
    tenant: Option<&Tenant>,
    conns: usize,
    decks: &[DesignInput],
) -> Result<(Vec<f64>, Daemon, Vec<String>), String> {
    let mut last = None;
    let setup_s = repeat_setup(|| {
        if let Some((d, _)) = last.take() {
            Daemon::stop(d);
        }
        let t0 = Instant::now();
        let daemon = Daemon::start(conns, tenant)?;
        let pool = render_decks(decks)?;
        let took = t0.elapsed().as_secs_f64();
        last = Some((daemon, pool));
        Ok(took)
    })?;
    let (daemon, pool) = last.ok_or("no set-up ran")?;
    Ok((setup_s, daemon, pool))
}

fn sample_ops(total: usize, seed: u64) -> Vec<usize> {
    let mut r = crate::gen::rng(seed, crate::gen::stream::SAMPLE);
    crate::ladder::sample_indices(total, crate::ladder::MAX_CALLS, &mut r)
}

/// One closed-loop lane's position in its request stream.
struct LaneState {
    stream: DesignStream,
    next: u64,
    lane: Lane,
    replies: Vec<(u64, String)>,
}

/// `wire-closed`: two connections, one thread each, closed loop; every
/// request a distinct Table-1-like `design`.
///
/// Each slice of the window runs against its own daemon, connections
/// and generator threads. Most of a request's CPU is thread wake-ups,
/// and a wake-up across CPUs costs far more than one on the same CPU, so
/// CPU per request depends on where the scheduler happened to put the
/// threads; a fresh set per slice lets the median range over placements
/// instead of inheriting one for the whole run.
pub fn closed(opts: &RunOpts, tenant: &Tenant) -> Result<Measured, String> {
    let (setup_s, daemon, _) = set_up(None, CONNECTIONS, &[])?;
    daemon.stop();
    let mut states: Vec<LaneState> = (0..CONNECTIONS)
        .map(|c| LaneState {
            stream: DesignStream::new(opts.seed, c as u64),
            next: 0,
            lane: Lane::default(),
            replies: Vec::new(),
        })
        .collect();
    let mut m = Measured {
        setup_s,
        lanes: CONNECTIONS,
        ..Measured::default()
    };
    let slice_ns = (opts.seconds * 1e9 / SLICES as f64) as u64;
    for _ in 0..SLICES {
        let mut daemon = Daemon::start(CONNECTIONS, None)?;
        let conns = std::mem::take(&mut daemon.conns);
        let (cpu0, t0) = (process_cpu_s(), now_ns());
        std::thread::scope(|sc| {
            for (c, (conn, state)) in conns.into_iter().zip(states.iter_mut()).enumerate() {
                sc.spawn(move || closed_lane(c, conn, opts, t0 + slice_ns, tenant, state));
            }
        });
        let t1 = now_ns();
        m.slices.push((t0, t1, process_cpu_s() - cpu0));
        daemon.stop();
    }
    m.elapsed_s = m.slices.iter().map(|s| (s.1 - s.0) as f64 / 1e9).sum();
    m.rss_mb = rss_peak_mb();

    let tech = Technology::default_1p2um();
    let mut counts = Vec::with_capacity(CONNECTIONS);
    for (c, state) in states.into_iter().enumerate() {
        counts.push(state.next as usize);
        let sent = inputs_at(opts.seed, c as u64, state.replies.iter().map(|(i, _)| *i));
        for ((i, input), (_, reply)) in sent.iter().zip(&state.replies) {
            let expected = expected_design(i + 1, input, &tech)?;
            m.checked += 1;
            m.wrong += u64::from(!check_reply(reply, &expected));
        }
        m.lane.merge(state.lane);
    }
    if opts.trace {
        // Sample over both lanes' operations: lane 0's first, then lane 1's.
        let picks = sample_ops(counts.iter().sum(), opts.seed);
        for (c, range) in [(0, 0..counts[0]), (1, counts[0]..counts[0] + counts[1])] {
            let mine = picks
                .iter()
                .filter(|k| range.contains(k))
                .map(|k| (k - range.start) as u64);
            for (i, input) in inputs_at(opts.seed, c, mine) {
                m.ladder.designs.push((op_id(c, i), input, Target::Default));
            }
        }
        m.ladder.designs.sort_by_key(|(op, _, _)| *op & 0xFFFF_FFFF);
    }
    Ok(m)
}

/// The inputs connection `conn` sent as its operations `indices`
/// (ascending), regenerated from the seed.
fn inputs_at(
    seed: u64,
    conn: u64,
    indices: impl IntoIterator<Item = u64>,
) -> Vec<(u64, DesignInput)> {
    let mut stream = DesignStream::new(seed, conn);
    let mut at = 0u64;
    indices
        .into_iter()
        .filter_map(|i| {
            let input = stream.nth((i - at) as usize)?;
            at = i + 1;
            Some((i, input))
        })
        .collect()
}

fn closed_lane(
    c: usize,
    mut conn: Conn,
    opts: &RunOpts,
    deadline: u64,
    tenant: &Tenant,
    state: &mut LaneState,
) {
    let LaneState {
        stream,
        next,
        lane,
        replies,
    } = state;
    let mut reply = String::new();
    let mut due = now_ns();
    while due < deadline {
        let i = *next;
        *next += 1;
        let Some(input) = stream.next() else { break };
        let line = design_line(i + 1, &input, Target::Default, tenant);
        let sent = now_ns();
        let result = conn.call(&line, &mut reply);
        let end = now_ns();
        let status = match result {
            Ok(()) => status_of(&reply),
            Err(_) => Status::Failed,
        };
        lane.record(
            opts.trace,
            "op.design",
            c as u32,
            op_id(c as u64, i),
            due,
            sent,
            end,
            status,
        );
        if let Err(e) = result {
            lane.note_failure(&format!("connection {c}: {e}"));
            break;
        }
        if status != Status::Ok {
            lane.note_failure(&reply);
        }
        if status == Status::Ok && kept(i) {
            replies.push((i, reply.clone()));
        }
        due = end;
    }
}

fn sleep_until(target_ns: u64) {
    let now = now_ns();
    if target_ns > now {
        std::thread::sleep(Duration::from_nanos(target_ns - now));
    }
}

/// `wire-mixed-open`: one pipelined connection driven open-loop by a
/// sender and a reader thread, Poisson arrivals at [`OPEN_RATE`].
pub fn mixed_open(opts: &RunOpts, tenant: &Tenant) -> Result<Measured, String> {
    let deck_specs = crate::gen::deck_specs(opts.seed, DECK_POOL);
    let (setup_s, mut daemon, decks) = set_up(Some(tenant), 1, &deck_specs)?;
    let count = ((OPEN_RATE * opts.seconds).round() as usize).max(1);
    let schedule = mixed_schedule(opts.seed, OPEN_RATE, count, decks.len());
    let lines: Vec<String> = schedule
        .iter()
        .enumerate()
        .map(|(i, a)| request_line(i as u64 + 1, a, &decks, tenant))
        .collect();
    let conn = daemon.conns.pop().ok_or("no connection")?;
    let Conn {
        mut reader,
        mut writer,
    } = conn;
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    let sent: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
    let budget = ServerConfig::default().inflight_per_conn as u64;
    // Replies read so far; the reader publishes it (Release) and the
    // sender reads it (Acquire) to stay within the budget.
    let replied = AtomicU64::new(0);
    let reader_done = AtomicBool::new(false);

    let window = Window::start(opts.seconds);
    // A short lead so the first arrival is not late by construction.
    let t0 = window.t0 + 2_000_000;
    let (lane, replies, last_end) = std::thread::scope(|sc| {
        let sender = sc.spawn(|| {
            for (i, a) in schedule.iter().enumerate() {
                sleep_until(t0 + a.due_ns);
                // Never more in flight than the daemon admits on one
                // connection: after a stall of the machine the sender
                // waits for replies instead of drawing refusals, and the
                // wait counts in latency, which runs from the due time.
                while (i as u64).saturating_sub(replied.load(Ordering::Acquire)) >= budget
                    && !reader_done.load(Ordering::Acquire)
                {
                    std::thread::park_timeout(Duration::from_micros(200));
                }
                // The reader gave up on the connection: stop sending.
                if reader_done.load(Ordering::Acquire) {
                    break;
                }
                sent[i].store(now_ns(), Ordering::Release);
                if writer.write_all(lines[i].as_bytes()).is_err() {
                    break;
                }
            }
        });
        let mut lane = Lane::default();
        let mut replies: Vec<(u64, String)> = Vec::new();
        let mut answered = vec![false; count];
        let mut line = String::new();
        let mut last_end = t0;
        let mut got = 0;
        while got < count {
            if recv(&mut reader, &mut line).is_err() {
                break;
            }
            let end = now_ns();
            let Some(i) = reply_id(&line).and_then(|id| id.checked_sub(1)) else {
                continue;
            };
            let Some(a) = schedule.get(i as usize) else {
                continue;
            };
            if std::mem::replace(&mut answered[i as usize], true) {
                continue;
            }
            got += 1;
            replied.store(got as u64, Ordering::Release);
            last_end = end;
            let status = status_of(&line);
            let sent_at = sent[i as usize].load(Ordering::Acquire);
            lane.record(
                opts.trace,
                a.kind.name(),
                0,
                i,
                t0 + a.due_ns,
                sent_at,
                end,
                status,
            );
            if status != Status::Ok {
                lane.note_failure(&line);
            } else if kept(i) {
                replies.push((i, line.clone()));
            }
        }
        reader_done.store(true, Ordering::Release);
        // Requests never answered count as failed.
        for (i, a) in schedule.iter().enumerate() {
            if !answered[i] {
                lane.note_failure(&format!("request {} was never answered", i + 1));
                let due = t0 + a.due_ns;
                lane.record(
                    false,
                    a.kind.name(),
                    0,
                    i as u64,
                    due,
                    due,
                    due,
                    Status::Failed,
                );
            }
        }
        let _ = sender.join();
        (lane, replies, last_end)
    });
    let mut m = Measured {
        setup_s,
        lanes: 1,
        ..Measured::default()
    };
    window.stop(last_end, &mut m);
    m.elapsed_s = last_end.saturating_sub(t0) as f64 / 1e9;
    drop(writer);
    drop(reader);
    daemon.stop();

    let tech = Technology::default_1p2um();
    let mut tenant_replies: Vec<(u64, DesignInput, String)> = Vec::new();
    for (i, reply) in replies {
        let id = i + 1;
        let expected = match schedule[i as usize].kind {
            MixedKind::Fresh(input) | MixedKind::Repeat(input) => {
                expected_design(id, &input, &tech)?
            }
            MixedKind::Estimate(deck) => expected_estimate(id, &decks[deck], &tech)?,
            MixedKind::Tenant(input) => {
                tenant_replies.push((id, input, reply));
                continue;
            }
        };
        m.checked += 1;
        m.wrong += u64::from(!check_reply(&reply, &expected));
    }
    with_calibration(&tenant.calibration, || -> Result<(), String> {
        for (id, input, reply) in &tenant_replies {
            let expected = expected_design(*id, input, &tenant.tech)?;
            m.checked += 1;
            m.wrong += u64::from(!check_reply(reply, &expected));
        }
        Ok(())
    })?;
    m.lane.merge(lane);

    if opts.trace {
        m.ladder = mixed_ladder_input(&schedule, &decks, &sample_ops(count, opts.seed));
    }
    Ok(m)
}

fn request_line(id: u64, a: &Arrival, decks: &[String], tenant: &Tenant) -> String {
    match a.kind {
        MixedKind::Fresh(input) | MixedKind::Repeat(input) => {
            design_line(id, &input, Target::Default, tenant)
        }
        MixedKind::Tenant(input) => design_line(id, &input, Target::Tenant, tenant),
        MixedKind::Estimate(deck) => estimate_line(id, &decks[deck]),
    }
}

fn mixed_ladder_input(schedule: &[Arrival], decks: &[String], picks: &[usize]) -> LadderInput {
    let mut input = LadderInput::default();
    for &i in picks {
        let op = i as u64;
        match schedule[i].kind {
            MixedKind::Fresh(d) | MixedKind::Repeat(d) => {
                input.designs.push((op, d, Target::Default));
            }
            MixedKind::Tenant(d) => input.designs.push((op, d, Target::Tenant)),
            MixedKind::Estimate(deck) => input.decks.push((op, decks[deck].clone())),
        }
    }
    input
}

/// Runs `f` with `table` installed as this thread's calibration.
pub fn with_calibration<T>(table: &Calibration, f: impl FnOnce() -> T) -> T {
    set_thread_calibration(Some(Arc::new(table.clone())));
    let out = f();
    set_thread_calibration(None);
    out
}
