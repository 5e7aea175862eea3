//! Telemetry overhead micro-bench: what does a probe call cost?
//!
//! Measures the disabled path (no sink installed: the dispatch helpers
//! must early-return), the [`ape_probe::NullSink`] path (full dispatch
//! into a no-op sink), and the enabled paths that matter on the hot loop —
//! lock-free [`ape_probe::Histogram::record`], striped
//! [`ape_probe::Counter::add`], and a registry-backed
//! [`ape_probe::SummarySink`] `value()` end to end. Writes
//! `results/BENCH_probe.json` (schema 2) with a `latency_ns` block holding
//! the distribution of per-operation cost across timing batches.
//!
//! Run with `cargo run --release -p ape-bench --bin probe`; pass `--smoke`
//! for the fast CI variant.

use ape_bench::report::{latency_section, write_bench};
use ape_bench::{fmt_val, render_table};
use ape_calib::json::{n, obj};
use ape_probe::{Counter, Histogram, NullSink, SummarySink};
use std::sync::Arc;
use std::time::Instant;

/// Times `batches` batches of `per_batch` calls to `op`, recording each
/// batch's per-op cost (ns) into a histogram. Returns the histogram; its
/// p50 is the steady-state cost estimate, its p99 the scheduler tail.
fn measure(batches: usize, per_batch: usize, mut op: impl FnMut(u64)) -> Histogram {
    let h = Histogram::new();
    // Warm-up batch: first-touch effects (thread-local handle caches, lazy
    // shard maps) belong to setup, not the steady state.
    for i in 0..per_batch {
        op(i as u64);
    }
    for b in 0..batches {
        let t0 = Instant::now();
        for i in 0..per_batch {
            op((b * per_batch + i) as u64);
        }
        h.record(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    h
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (batches, per_batch) = if smoke { (50, 2_000) } else { (400, 10_000) };

    // Disabled path: no sink installed, every helper early-returns.
    ape_probe::uninstall();
    let disabled_counter = measure(batches, per_batch, |_| {
        ape_probe::counter("bench.probe.ctr", 1);
    });
    let disabled_value = measure(batches, per_batch, |i| {
        ape_probe::value("bench.probe.val", i as f64);
    });

    // NullSink path: full dynamic dispatch into a sink that drops the event.
    ape_probe::install(Arc::new(NullSink));
    let null_counter = measure(batches, per_batch, |_| {
        ape_probe::counter("bench.probe.ctr", 1);
    });
    let null_value = measure(batches, per_batch, |i| {
        ape_probe::value("bench.probe.val", i as f64);
    });

    // Enabled paths: the lock-free primitives themselves, then the full
    // registry-backed SummarySink pipeline.
    let hist = Histogram::new();
    let hist_record = measure(batches, per_batch, |i| {
        hist.record(i as f64);
    });
    let ctr = Counter::new();
    let counter_add = measure(batches, per_batch, |_| {
        ctr.add(1);
    });
    let summary = Arc::new(SummarySink::new());
    ape_probe::install(summary.clone());
    let summary_value = measure(batches, per_batch, |i| {
        ape_probe::value("bench.probe.val", i as f64);
    });
    ape_probe::uninstall();
    std::hint::black_box((ctr.total(), hist.snapshot().count));

    let cases: Vec<(&str, &Histogram)> = vec![
        ("disabled.counter", &disabled_counter),
        ("disabled.value", &disabled_value),
        ("nullsink.counter", &null_counter),
        ("nullsink.value", &null_value),
        ("histogram.record", &hist_record),
        ("counter.add", &counter_add),
        ("summarysink.value", &summary_value),
    ];

    println!("== Probe overhead (ns per operation, across {batches} batches) ==");
    let snaps: Vec<(&str, ape_probe::HistogramSnapshot)> =
        cases.iter().map(|(n, h)| (*n, h.snapshot())).collect();
    let rows: Vec<Vec<String>> = snaps
        .iter()
        .map(|(name, s)| {
            vec![
                (*name).to_string(),
                fmt_val(s.p50()),
                fmt_val(s.p90()),
                fmt_val(s.p99()),
                fmt_val(s.mean()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["path", "p50", "p90", "p99", "mean"], &rows)
    );

    let entries: Vec<(&str, &ape_probe::HistogramSnapshot)> =
        snaps.iter().map(|(name, snap)| (*name, snap)).collect();
    write_bench(
        "probe",
        obj([
            ("batches", n(batches as f64)),
            ("ops_per_batch", n(per_batch as f64)),
            ("latency_ns", latency_section(&entries)),
        ]),
    )
    .expect("write BENCH_probe.json");

    // Sanity gate: the disabled path must stay cheap relative to the
    // enabled one — if early-return dispatch costs as much as actually
    // recording, the is_enabled() fast path regressed.
    let disabled = snaps[0].1.p50().min(snaps[1].1.p50());
    if smoke && disabled > 1_000.0 {
        eprintln!("FAIL: disabled-path dispatch p50 {disabled:.0} ns exceeds 1000 ns");
        std::process::exit(1);
    }
}
