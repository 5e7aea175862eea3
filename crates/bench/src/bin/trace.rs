//! JSONL trace validator and Perfetto converter:
//! `cargo run -p ape-bench --bin trace -- <trace.jsonl> [chrome-out.json]`.
//!
//! Validates every line of an `APE_TRACE=jsonl` capture against the event
//! schema (known `type`, required fields, well-formed span links: every
//! referenced parent exists, started no later than its child, and was
//! still live at the child's start), converts the spans to Chrome
//! trace-event JSON with [`ape_probe::render_chrome_trace`], and
//! parse-checks the converted output. Exits non-zero on the first schema
//! violation — this is the CI gate behind the `batch_sweep` trace smoke.

use ape_calib::json::{self, Value};
use ape_probe::{render_chrome_trace, SpanRecord};

fn fail(line_no: usize, line: &str, msg: &str) -> ! {
    eprintln!("trace schema violation at line {line_no}: {msg}\n  {line}");
    std::process::exit(1);
}

fn req_u64(doc: &Value, key: &str) -> Option<u64> {
    let v = doc.get(key)?.as_f64()?;
    (v >= 0.0 && v.fract() == 0.0).then_some(v as u64)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: trace <trace.jsonl> [chrome-out.json]");
        std::process::exit(2);
    };
    let out_path = args.next();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });

    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut counters = 0usize;
    let mut values = 0usize;
    let mut gauges = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line)
            .unwrap_or_else(|e| fail(line_no, line, &format!("not a JSON object: {e}")));
        let kind = doc
            .get("type")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail(line_no, line, "missing string field `type`"));
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail(line_no, line, "missing string field `name`"));
        if name.is_empty() {
            fail(line_no, line, "empty event name");
        }
        match kind {
            "span" => {
                let id = req_u64(&doc, "id")
                    .unwrap_or_else(|| fail(line_no, line, "span needs integer `id`"));
                if id == 0 {
                    fail(line_no, line, "span id 0 is reserved");
                }
                let parent = match doc.get("parent") {
                    Some(Value::Null) => None,
                    Some(_) => Some(req_u64(&doc, "parent").unwrap_or_else(|| {
                        fail(line_no, line, "span `parent` must be integer or null")
                    })),
                    None => fail(line_no, line, "span needs `parent` (integer or null)"),
                };
                let record = SpanRecord {
                    name: name.to_string(),
                    id,
                    parent,
                    tid: req_u64(&doc, "tid")
                        .unwrap_or_else(|| fail(line_no, line, "span needs integer `tid`")),
                    depth: req_u64(&doc, "depth")
                        .unwrap_or_else(|| fail(line_no, line, "span needs integer `depth`"))
                        as usize,
                    start_ns: req_u64(&doc, "start_ns")
                        .unwrap_or_else(|| fail(line_no, line, "span needs integer `start_ns`")),
                    dur_ns: req_u64(&doc, "ns")
                        .unwrap_or_else(|| fail(line_no, line, "span needs integer `ns`")),
                };
                spans.push(record);
            }
            "counter" => {
                req_u64(&doc, "delta")
                    .unwrap_or_else(|| fail(line_no, line, "counter needs integer `delta`"));
                counters += 1;
            }
            "value" | "gauge" => {
                // `null` encodes a non-finite sample and is valid.
                match doc.get("value") {
                    Some(Value::Num(_) | Value::Null) => {}
                    _ => fail(line_no, line, "needs numeric or null `value`"),
                }
                if kind == "value" {
                    values += 1;
                } else {
                    gauges += 1;
                }
            }
            other => fail(line_no, line, &format!("unknown event type `{other}`")),
        }
    }

    // Span-link well-formedness over the whole capture: every parent
    // reference resolves, and the parent's lifetime covers the child's
    // start (the "live parent" invariant the span tree promises).
    for s in &spans {
        if let Some(pid) = s.parent {
            let Some(p) = spans.iter().find(|c| c.id == pid) else {
                eprintln!(
                    "trace schema violation: span {} `{}` references missing parent {pid}",
                    s.id, s.name
                );
                std::process::exit(1);
            };
            if p.start_ns > s.start_ns || p.start_ns + p.dur_ns < s.start_ns {
                eprintln!(
                    "trace schema violation: parent {pid} `{}` [{}, {}] not live at child {} start {}",
                    p.name,
                    p.start_ns,
                    p.start_ns + p.dur_ns,
                    s.id,
                    s.start_ns
                );
                std::process::exit(1);
            }
        }
    }

    let chrome = render_chrome_trace(&spans);
    let parsed = json::parse(&chrome).unwrap_or_else(|e| {
        eprintln!("chrome trace export does not parse: {e}");
        std::process::exit(1);
    });
    let n_events = parsed
        .get("traceEvents")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| {
            eprintln!("chrome trace export lacks a traceEvents array");
            std::process::exit(1);
        })
        .len();

    if let Some(out) = out_path {
        std::fs::write(&out, &chrome).unwrap_or_else(|e| {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(2);
        });
        println!("wrote {out} ({n_events} trace events; load in ui.perfetto.dev)");
    }
    println!(
        "trace OK: {} spans, {counters} counters, {values} values, {gauges} gauges, {n_events} chrome events",
        spans.len()
    );
}
