//! Farm throughput: batch estimation through [`Farm`] on the shared
//! executor, next to the same work on explicit executors.
//!
//! Every timed run uses a fresh farm over grid points that no earlier run
//! computed (each run salts the grid), so no run is served from memos an
//! earlier run left warm on the executor threads. The distinct-design
//! table runs the farm a few times and reports each run; the
//! explicit-executor table shows worker-count scaling without the farm;
//! the last table submits a 50%-duplicate stream to show in-flight
//! deduplication.
//!
//! Scaling is hardware-dependent: on a single-core machine every row
//! collapses to serial throughput, which is why the detected parallelism
//! is printed with the results.
//!
//! Writes a machine-readable summary to `results/BENCH_farm.json`
//! (schema 2) whose `latency_ns` block carries the queue-wait and
//! job-latency quantiles of the median distinct-design run.
//!
//! Run with `cargo run --release -p ape-bench --bin farm`.

use ape_bench::report::{latency_section, nums, write_bench};
use ape_bench::{fmt_val, render_table};
use ape_calib::json::{n, obj};
use ape_core::basic::MirrorTopology;
use ape_core::graph::reset_thread_graph;
use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
use ape_farm::{Farm, FarmConfig, Request};
use ape_netlist::Technology;
use std::time::Instant;

/// Distinct-design runs through a fresh farm each.
const RUNS: usize = 3;

/// `points` distinct specs: walk gain and UGF so no two requests share a
/// key. `salt` shifts every gain by a fraction of a grid step, so grids
/// with different salts share no point.
fn grid_pairs(points: usize, salt: usize) -> Vec<(OpAmpTopology, OpAmpSpec)> {
    (0..points)
        .map(|i| {
            (
                OpAmpTopology::miller(
                    if i % 2 == 0 {
                        MirrorTopology::Simple
                    } else {
                        MirrorTopology::Wilson
                    },
                    false,
                ),
                OpAmpSpec {
                    gain: 100.0 + (i as f64) * 7.0 + (salt as f64) * 0.125,
                    ugf_hz: 1e6 + (i as f64) * 3.7e4,
                    area_max_m2: 20_000e-12,
                    ibias: 10e-6,
                    zout_ohm: None,
                    cl: 10e-12,
                },
            )
        })
        .collect()
}

fn grid(points: usize, salt: usize) -> Vec<Request> {
    grid_pairs(points, salt)
        .into_iter()
        .map(|(topology, spec)| Request::OpAmpDesign { topology, spec })
        .collect()
}

struct RunResult {
    secs: f64,
    executed: u64,
    deduped: u64,
    queue_wait: ape_probe::HistogramSnapshot,
    job_latency: ape_probe::HistogramSnapshot,
}

fn run(requests: &[Request]) -> RunResult {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let t0 = Instant::now();
    let handles: Vec<_> = requests.iter().cloned().map(|r| farm.submit(r)).collect();
    for h in &handles {
        let _ = h.wait();
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = farm.stats();
    RunResult {
        secs,
        executed: stats.executed,
        deduped: stats.deduped,
        queue_wait: farm.queue_wait_ns(),
        job_latency: farm.job_latency_ns(),
    }
}

fn main() {
    let _trace = ape_probe::install_from_env();
    let detected = ape_exec::detected_parallelism();
    let exec_workers = ape_exec::Executor::global().workers();
    println!("== Farm throughput: batch op-amp estimation ==");
    println!("detected parallelism: {detected}, shared executor workers: {exec_workers}\n");
    if detected == 1 {
        eprintln!(
            "farm bench: WARNING: detected parallelism is 1 — every worker count \
             serializes on one core, so the speedup column measures scheduling \
             overhead, not concurrent scaling"
        );
    }

    let points = 400usize;
    // Every grid below gets the next salt: no run sees a point twice.
    let mut salts = 1usize..;
    let mut runs: Vec<RunResult> = salts
        .by_ref()
        .take(RUNS)
        .map(|salt| run(&grid(points, salt)))
        .collect();
    let rows: Vec<Vec<String>> = runs
        .iter()
        .enumerate()
        .map(|(k, r)| {
            vec![
                (k + 1).to_string(),
                fmt_val(r.secs * 1e3),
                fmt_val(points as f64 / r.secs),
                r.executed.to_string(),
            ]
        })
        .collect();
    println!("-- {points} distinct designs, fresh farm and grid per run --");
    println!(
        "{}",
        render_table(&["run", "wall (ms)", "designs/s", "executed"], &rows)
    );
    runs.sort_by(|a, b| a.secs.total_cmp(&b.secs));
    let median = runs.swap_remove(RUNS / 2);
    let designs_per_s = points as f64 / median.secs;

    // Explicit-executor scaling: a distinct grid through
    // `OpAmp::design_many_on` on `Executor::new(w)` pools — the estimation
    // work a farm job does, minus the farm, with real worker threads even
    // on a 1-core machine.
    let workers_axis = [1usize, 2, 4, 8];
    let mut exec_thr = Vec::new();
    let mut rows = Vec::new();
    for (&w, salt) in workers_axis.iter().zip(salts.by_ref()) {
        let pairs = grid_pairs(points, salt);
        let exec = ape_exec::Executor::new(w);
        reset_thread_graph();
        let t0 = Instant::now();
        std::hint::black_box(OpAmp::design_many_on(
            &exec,
            &Technology::default_1p2um(),
            &pairs,
        ));
        let thr = pairs.len() as f64 / t0.elapsed().as_secs_f64();
        reset_thread_graph();
        rows.push(vec![
            w.to_string(),
            fmt_val(thr),
            format!("{:.2}x", thr / exec_thr.first().copied().unwrap_or(thr)),
        ]);
        exec_thr.push(thr);
    }
    println!("-- {points} distinct designs, explicit executors --");
    println!(
        "{}",
        render_table(&["workers", "designs/s", "speedup"], &rows)
    );

    // Duplicate half the stream: repeats still in flight are folded into
    // the first submission; repeats that arrive after it finished run
    // again, answered from the executor threads' estimation memos.
    let salt = salts.next().unwrap_or_default();
    let mut dup = grid(points / 2, salt);
    dup.extend(grid(points / 2, salt));
    let r = run(&dup);
    let dedup_executed = r.executed;
    println!("-- {points} submissions, 50% duplicates --");
    println!(
        "{}",
        render_table(
            &["wall (ms)", "executed", "deduped"],
            &[vec![
                fmt_val(r.secs * 1e3),
                r.executed.to_string(),
                r.deduped.to_string(),
            ]],
        )
    );

    write_bench(
        "farm",
        obj([
            ("points", n(points as f64)),
            ("runs", n(RUNS as f64)),
            ("designs_per_s", n(designs_per_s)),
            ("dedup_executed", n(dedup_executed as f64)),
            // Worker-count scaling on explicit executors — gated for
            // monotone throughput by `ape-bench report` (auto-skipped at
            // parallelism 1).
            (
                "executor",
                obj([
                    ("workers", nums(&workers_axis.map(|w| w as f64))),
                    ("design_many_per_s", nums(&exec_thr)),
                ]),
            ),
            (
                "latency_ns",
                latency_section(&[
                    ("queue_wait", &median.queue_wait),
                    ("job", &median.job_latency),
                ]),
            ),
        ]),
    )
    .expect("write BENCH_farm.json");
    ape_probe::finish();
}
