//! In-memory spans and their Chrome trace-event rendering.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer; nothing inside the program under test is traced. They are
//! kept in memory and written once, after the run, as Chrome trace JSON
//! (loadable in Perfetto) through `ape_calib::json`.

use ape_calib::json::{n, obj, s, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: the time base of
/// every span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Process-unique id.
    pub id: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<u64>,
    /// What ran: `op.*` for a window operation, `<layer>.<call>` for a
    /// ladder call, `ladder.*` for a ladder step.
    pub name: &'static str,
    /// Lane (generator thread or ladder thread).
    pub tid: u32,
    /// Start, [`now_ns`] time base.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
    /// The window operation whose input this span ran on.
    pub op: u64,
    /// How late the generator sent the operation (window spans only).
    pub late_ns: u64,
}

impl Span {
    /// A window operation that was due at `due_ns`, sent at `sent_ns` and
    /// answered at `end_ns`.
    pub fn op(
        name: &'static str,
        tid: u32,
        op: u64,
        due_ns: u64,
        sent_ns: u64,
        end_ns: u64,
    ) -> Self {
        Span {
            id: next_span_id(),
            parent: None,
            name,
            tid,
            start_ns: due_ns,
            dur_ns: end_ns.saturating_sub(due_ns),
            op,
            late_ns: sent_ns.saturating_sub(due_ns),
        }
    }
}

/// Records ladder calls as spans parented to the current step.
#[derive(Debug)]
pub struct Recorder {
    tid: u32,
    step: Option<u64>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for lane `tid`.
    pub fn new(tid: u32) -> Self {
        Recorder {
            tid,
            step: None,
            spans: Vec::new(),
        }
    }

    /// Times `f`, one call into a layer on the input of operation `op`,
    /// and returns its result with the duration in microseconds.
    pub fn call<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = now_ns();
        let out = std::hint::black_box(f());
        let end = now_ns();
        self.spans.push(Span {
            id: next_span_id(),
            parent: self.step,
            name,
            tid: self.tid,
            start_ns: start,
            dur_ns: end - start,
            op,
            late_ns: 0,
        });
        (out, (end - start) as f64 / 1e3)
    }

    /// Runs one ladder step under a parent span called `name`.
    pub fn step<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = next_span_id();
        let outer = self.step.replace(id);
        let start = now_ns();
        let out = f(self);
        let end = now_ns();
        self.step = outer;
        self.spans.push(Span {
            id,
            parent: outer,
            name,
            tid: self.tid,
            start_ns: start,
            dur_ns: end - start,
            op: 0,
            late_ns: 0,
        });
        out
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Renders `spans` as a Chrome trace-event document; `meta` lands under
/// `otherData`.
pub fn chrome_trace(spans: &[Span], lanes: &[(u32, String)], meta: Value) -> Value {
    let mut events: Vec<Value> = lanes
        .iter()
        .map(|(tid, name)| {
            obj([
                ("name", s("thread_name")),
                ("ph", s("M")),
                ("pid", n(1.0)),
                ("tid", n(f64::from(*tid))),
                ("args", obj([("name", s(name))])),
            ])
        })
        .collect();
    events.extend(spans.iter().map(|sp| {
        let mut args = obj([("id", n(sp.id as f64)), ("op", n(sp.op as f64))]);
        if let Value::Obj(m) = &mut args {
            if let Some(p) = sp.parent {
                m.insert("parent".to_string(), n(p as f64));
            }
            if sp.late_ns > 0 {
                m.insert("late_us".to_string(), n(sp.late_ns as f64 / 1e3));
            }
        }
        obj([
            ("name", s(sp.name)),
            ("cat", s(sp.name.split('.').next().unwrap_or(sp.name))),
            ("ph", s("X")),
            ("pid", n(1.0)),
            ("tid", n(f64::from(sp.tid))),
            ("ts", n(sp.start_ns as f64 / 1e3)),
            ("dur", n(sp.dur_ns as f64 / 1e3)),
            ("args", args),
        ])
    }));
    obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", s("ns")),
        ("otherData", meta),
    ])
}
