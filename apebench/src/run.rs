//! One run: set up, measure the window, check the answers, and report
//! either the end-to-end metrics or (traced) the per-layer ladder.

use crate::gen::Tenant;
use crate::ladder::{self, LadderInput, WindowLayers};
use crate::stats::{median, percentile, process_cpu_s, rss_peak_mb};
use crate::table::{Metric, Workload, END_TO_END, PER_LAYER};
use crate::trace::{chrome_trace, now_ns, Recorder, Span};
use ape_calib::json::{n, obj, s, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fewest set-ups a run times; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 15;
/// Most set-ups a run times.
const SETUP_MAX_REPS: usize = 201;
/// Past the minimum, set-ups repeat until they have taken this long, so
/// a set-up of a fraction of a millisecond is timed often enough for its
/// median to settle.
const SETUP_BUDGET_S: f64 = 0.5;

/// Calls `once` (one set-up, returning its duration in seconds) at least
/// [`SETUP_MIN_REPS`] times, and again until the timed set-ups add up to
/// half a second or [`SETUP_MAX_REPS`] calls; returns every duration.
pub fn repeat_setup(mut once: impl FnMut() -> Result<f64, String>) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(SETUP_MIN_REPS);
    let mut spent = 0.0;
    while times.len() < SETUP_MIN_REPS || (spent < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPS) {
        let t = once()?;
        spent += t;
        times.push(t);
    }
    Ok(times)
}

/// Equal slices of the window. Every end-to-end rate, latency and CPU
/// figure is computed per slice and reported as the median over slices,
/// so a burst of contention from other tenants of the machine that spans
/// fewer than half the slices does not move the result.
pub const SLICES: usize = 7;

/// Replies kept for the correctness check: the first 2048 of a lane and
/// every 64th after, so a much faster program cannot make the check's
/// memory grow with its throughput.
pub fn kept(i: u64) -> bool {
    i < 2048 || i.is_multiple_of(64)
}

/// The span `op` id of lane `lane`'s `i`-th operation.
pub fn op_id(lane: u64, i: u64) -> u64 {
    (lane << 32) | i
}

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Window length, seconds.
    pub seconds: f64,
    /// Traced run: report the per-layer ladder instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Where a traced run writes its Chrome trace.
    pub trace_file: PathBuf,
}

impl RunOpts {
    /// Nanosecond deadline of a window opening at `start_ns`.
    pub fn deadline(&self, start_ns: u64) -> u64 {
        start_ns + (self.seconds * 1e9) as u64
    }
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Answered (checked later).
    Ok,
    /// Refused by admission control.
    Refused,
    /// Any other failure.
    Failed,
}

/// What one generator lane saw during the window.
#[derive(Debug, Default)]
pub struct Lane {
    /// Latency of every answered operation, nanoseconds from when it
    /// was due.
    pub latencies_ns: Vec<f64>,
    /// When each of those operations finished ([`now_ns`] time base).
    pub ends_ns: Vec<u64>,
    /// How late the generator sent each operation, nanoseconds.
    pub late_ns: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused.
    pub refused: u64,
    /// Operations that failed (refusals included).
    pub failed: u64,
    /// Per-operation spans (traced runs only).
    pub spans: Vec<Span>,
    /// Time spent recording those spans.
    pub record_ns: u64,
    /// The first few failed answers, for the run's diagnostics.
    pub failures: Vec<String>,
}

impl Lane {
    /// Records operation `op` of lane `tid`, due at `due`, sent at
    /// `sent` and finished at `end`.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        trace: bool,
        name: &'static str,
        tid: u32,
        op: u64,
        due: u64,
        sent: u64,
        end: u64,
        status: Status,
    ) {
        self.attempted += 1;
        self.late_ns.push(sent.saturating_sub(due) as f64);
        match status {
            Status::Ok => {
                self.latencies_ns.push(end.saturating_sub(due) as f64);
                self.ends_ns.push(end);
            }
            Status::Refused => {
                self.refused += 1;
                self.failed += 1;
            }
            Status::Failed => self.failed += 1,
        }
        if trace {
            let t = now_ns();
            self.spans.push(Span::op(name, tid, op, due, sent, end));
            self.record_ns += now_ns() - t;
        }
    }

    /// Keeps `answer` (a failed operation's reply) when fewer than three
    /// are kept.
    pub fn note_failure(&mut self, answer: &str) {
        if self.failures.len() < 3 {
            self.failures.push(answer.trim_end().to_string());
        }
    }

    /// Folds `other` into this lane.
    pub fn merge(&mut self, other: Lane) {
        self.failures.extend(other.failures);
        self.latencies_ns.extend(other.latencies_ns);
        self.ends_ns.extend(other.ends_ns);
        self.late_ns.extend(other.late_ns);
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.failed += other.failed;
        self.spans.extend(other.spans);
        self.record_ns += other.record_ns;
    }
}

/// Everything a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// All lanes, merged.
    pub lane: Lane,
    /// Generator lanes.
    pub lanes: usize,
    /// Window wall time, seconds.
    pub elapsed_s: f64,
    /// Peak resident set at the end of the window, MiB.
    pub rss_mb: f64,
    /// The window's slices: `(start_ns, end_ns, process CPU seconds)`.
    pub slices: Vec<(u64, u64, f64)>,
    /// Answers compared with a direct computation.
    pub checked: u64,
    /// Answers that differed from it.
    pub wrong: u64,
    /// The window's inputs for the ladder (traced runs only).
    pub ladder: LadderInput,
}

/// The measured window: its start, and a sampler thread that reads the
/// process CPU clock at every inner slice boundary.
#[derive(Debug)]
pub struct Window {
    cpu0: f64,
    /// Window start, [`now_ns`] time base.
    pub t0: u64,
    done: Arc<AtomicBool>,
    sampler: Option<JoinHandle<Vec<(u64, f64)>>>,
}

impl Window {
    /// Opens a window of `seconds` now.
    pub fn start(seconds: f64) -> Window {
        let t0 = now_ns();
        let slice_ns = seconds * 1e9 / SLICES as f64;
        let done = Arc::new(AtomicBool::new(false));
        let flag = done.clone();
        // Parks until each boundary; `stop` unparks it early.
        let sampler = std::thread::Builder::new()
            .name("apebench-cpu".to_string())
            .spawn(move || {
                let mut marks = Vec::with_capacity(SLICES);
                for k in 1..SLICES {
                    let at = t0 + (k as f64 * slice_ns) as u64;
                    loop {
                        if flag.load(Ordering::Acquire) {
                            return marks;
                        }
                        let now = now_ns();
                        if now >= at {
                            break;
                        }
                        std::thread::park_timeout(Duration::from_nanos(at - now));
                    }
                    marks.push((now_ns(), process_cpu_s()));
                }
                marks
            })
            .ok();
        Window {
            cpu0: process_cpu_s(),
            t0,
            done,
            sampler,
        }
    }

    /// Closes the window at `end_ns` and records its wall time, memory
    /// and slices (with their CPU) into `m`.
    pub fn stop(self, end_ns: u64, m: &mut Measured) {
        self.done.store(true, Ordering::Release);
        let cpu_end = process_cpu_s();
        let marks = self
            .sampler
            .and_then(|h| {
                h.thread().unpark();
                h.join().ok()
            })
            .unwrap_or_default();
        m.elapsed_s = end_ns.saturating_sub(self.t0) as f64 / 1e9;
        m.rss_mb = rss_peak_mb();
        let mut bounds = vec![(self.t0, self.cpu0)];
        bounds.extend(marks.into_iter().filter(|(t, _)| *t < end_ns));
        bounds.push((end_ns, cpu_end));
        m.slices = bounds
            .windows(2)
            .map(|w| (w[0].0, w[1].0, w[1].1 - w[0].1))
            .collect();
    }
}

/// The outcome of a run, ready to print.
#[derive(Debug, Clone)]
pub struct Report {
    /// No answer differed from its direct computation, and at least one
    /// was checked.
    pub correct: bool,
    /// Operations attempted in the window.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// `(metric, value)` in table order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// One human-readable line about the run.
    pub summary: String,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn json(&self) -> String {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    obj([("value", n(*v)), ("unit", s(m.unit))]),
                )
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", n(self.attempted as f64)),
            ("failed", n(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }
}

fn in_table_order(
    table: &'static [Metric],
    mut values: BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static Metric, f64)>, String> {
    let out = table
        .iter()
        .map(|m| {
            values
                .remove(m.name)
                .filter(|v| v.is_finite())
                .map(|v| (m, v))
                .ok_or_else(|| format!("metric {} was not measured", m.name))
        })
        .collect::<Result<Vec<_>, String>>()?;
    match values.keys().next() {
        Some(extra) => Err(format!("metric {extra} is not in the table")),
        None => Ok(out),
    }
}

/// Rate, latency and CPU per operation of every slice that finished at
/// least one operation; the last slice also takes the operations that
/// finished after the window's nominal end.
fn per_slice(m: &Measured) -> [Vec<f64>; 4] {
    let mut out: [Vec<f64>; 4] = Default::default();
    for (k, &(start, end, cpu_s)) in m.slices.iter().enumerate() {
        let last = k + 1 == m.slices.len();
        let lat: Vec<f64> = m
            .lane
            .ends_ns
            .iter()
            .zip(&m.lane.latencies_ns)
            .filter(|(e, _)| **e >= start && (last || **e < end))
            .map(|(_, l)| *l)
            .collect();
        let secs = end.saturating_sub(start) as f64 / 1e9;
        if lat.is_empty() || secs <= 0.0 {
            continue;
        }
        out[0].push(lat.len() as f64 / secs);
        out[1].push(percentile(&lat, 50.0) / 1e6);
        out[2].push(percentile(&lat, 90.0) / 1e6);
        out[3].push(cpu_s * 1e3 / lat.len() as f64);
    }
    out
}

fn end_to_end(m: &Measured) -> BTreeMap<&'static str, f64> {
    let [rate, p50, p90, cpu] = per_slice(m);
    BTreeMap::from([
        ("setup_s", median(&m.setup_s)),
        ("ops_per_s", median(&rate)),
        ("latency_p50_ms", median(&p50)),
        ("latency_p90_ms", median(&p90)),
        ("cpu_ms_per_op", median(&cpu)),
        ("rss_peak_mb", m.rss_mb),
    ])
}

fn window_layers(m: &Measured) -> WindowLayers {
    WindowLayers {
        refused_pct: 100.0 * m.lane.refused as f64 / m.lane.attempted.max(1) as f64,
        late_p99_us: percentile(&m.lane.late_ns, 99.0) / 1e3,
        trace_overhead_pct: 100.0 * m.lane.record_ns as f64
            / (m.elapsed_s * 1e9 * m.lanes.max(1) as f64),
    }
}

fn write_trace(
    opts: &RunOpts,
    spans: &[Span],
    lanes: usize,
    layers: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut names: Vec<(u32, String)> = (0..lanes)
        .map(|l| (l as u32, format!("generator {l}")))
        .collect();
    names.push((ladder::LANE_MAIN, "ladder".to_string()));
    names.push((ladder::LANE_CORE, "ladder core".to_string()));
    names.push((ladder::LANE_SYNTH, "ladder synthesis".to_string()));
    let meta = obj([
        ("workload", s(opts.workload.name)),
        ("seed", n(opts.seed as f64)),
        ("seconds", n(opts.seconds)),
        ("nproc", n(ape_exec::detected_parallelism() as f64)),
        (
            "layers",
            Value::Obj(layers.iter().map(|(k, v)| (k.to_string(), n(*v))).collect()),
        ),
    ]);
    let doc = chrome_trace(spans, &names, meta).render();
    if let Some(dir) = opts.trace_file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.trace_file, doc)
        .map_err(|e| format!("write {}: {e}", opts.trace_file.display()))
}

/// Runs one workload and assembles its report.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let tenant = Tenant::new();
    let mut m = match opts.workload.name {
        "wire-closed" => crate::wire::closed(opts, &tenant)?,
        "wire-mixed-open" => crate::wire::mixed_open(opts, &tenant)?,
        "sweep-grid" => crate::sweep::run(opts)?,
        "synth-seeded" => crate::synth::run(opts)?,
        other => return Err(format!("unknown workload {other}")),
    };
    for f in &m.lane.failures {
        eprintln!("apebench: {} failed operation: {f}", opts.workload.name);
    }
    let metrics = if opts.trace {
        let window = window_layers(&m);
        let mut rec = Recorder::new(ladder::LANE_MAIN);
        let layers = ladder::run(&m.ladder, &window, &tenant, opts.seed, &mut rec)?;
        let mut spans = std::mem::take(&mut m.lane.spans);
        spans.extend(rec.into_spans());
        write_trace(opts, &spans, m.lanes, &layers)?;
        in_table_order(&PER_LAYER, layers)?
    } else {
        let [rate, _, p90, cpu] = per_slice(&m);
        let fmt = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        eprintln!(
            "apebench: per slice: ops_per_s [{}] latency_p90_ms [{}] cpu_ms_per_op [{}]",
            fmt(&rate),
            fmt(&p90),
            fmt(&cpu)
        );
        in_table_order(&END_TO_END, end_to_end(&m))?
    };
    let failed = m.lane.failed + m.wrong;
    let summary = format!(
        "apebench: workload={} seed={} seconds={} trace={} nproc={} attempted={} answered={} refused={} checked={} wrong={} window_s={:.3}{}",
        opts.workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        ape_exec::detected_parallelism(),
        m.lane.attempted,
        m.lane.latencies_ns.len(),
        m.lane.refused,
        m.checked,
        m.wrong,
        m.elapsed_s,
        if opts.trace {
            format!(" trace_file={}", opts.trace_file.display())
        } else {
            String::new()
        }
    );
    Ok(Report {
        correct: m.wrong == 0 && m.checked > 0,
        attempted: m.lane.attempted,
        failed,
        metrics,
        summary,
    })
}
