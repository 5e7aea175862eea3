//! Estimation-graph benchmarks: cold vs incremental re-estimation.
//!
//! The annealing loop and the sweep driver both ask the estimator almost
//! the same question over and over — one variable nudged per move. The
//! estimation graph answers the unchanged subtrees from its memo, so an
//! incremental redesign should beat a cold one. This bench measures that
//! speedup on a single-variable move trajectory (cycling gain, UGF, bias
//! current, load, and area), then runs a neighbour-stream sweep through an
//! [`ape_farm::Farm`] and on explicit 1/2/4/8-worker executors.
//!
//! Prints aligned tables, the per-kind graph report, and writes a
//! machine-readable summary to `results/BENCH_estimator.json`
//! (`incremental_speedup_single_var` is the CI gate: `--smoke` exits
//! non-zero when the speedup drops below 1.5x).
//!
//! Run with `cargo run --release -p ape-bench --bin estimator`; set
//! `APE_TRACE=summary` to see the per-node `ape.graph.<kind>.*` hit/miss
//! counters.

use ape_bench::report::{latency_section, nums, write_bench};
use ape_bench::{fmt_val, render_table};
use ape_calib::json::{n, obj};
use ape_core::basic::MirrorTopology;
use ape_core::graph::{graph_report, reset_thread_graph};
use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology, SpecDelta};
use ape_farm::{Farm, FarmConfig, Request};
use ape_netlist::Technology;
use std::time::Instant;

/// Executor sizes for the explicit-executor scaling table.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn base_spec() -> OpAmpSpec {
    OpAmpSpec {
        gain: 200.0,
        ugf_hz: 5e6,
        area_max_m2: 5000e-12,
        ibias: 10e-6,
        zout_ohm: None,
        cl: 10e-12,
    }
}

/// A trajectory of single-variable annealing-style moves, cycling through
/// the five tunable fields. Each move sets its field to a *fresh* value
/// within ±5% of the base spec (a hashed perturbation, so no two moves
/// revisit an earlier spec) — the incremental path must genuinely
/// recompute the dirty subtree every move, not answer whole designs from
/// the memo.
fn trajectory(moves: usize) -> Vec<SpecDelta> {
    let base = base_spec();
    (0..moves)
        .map(|k| {
            let h = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24;
            let f = 0.95 + 0.1 * (h as f64 / (1u64 << 40) as f64);
            let mut d = SpecDelta::default();
            match k % 5 {
                0 => d.gain = Some(base.gain * f),
                1 => d.ugf_hz = Some(base.ugf_hz * f),
                2 => d.ibias = Some(base.ibias * f),
                3 => d.cl = Some(base.cl * f),
                _ => d.area_max_m2 = Some(base.area_max_m2 * f),
            }
            d
        })
        .collect()
}

/// Wall time for the trajectory with a graph reset before every move —
/// every design is a from-scratch estimate. Per-move latencies land in
/// `lat` for the standardized `latency_ns` bench block.
fn run_cold(
    tech: &Technology,
    topology: OpAmpTopology,
    deltas: &[SpecDelta],
    lat: &ape_probe::Histogram,
) -> f64 {
    let mut spec = base_spec();
    let t0 = Instant::now();
    for d in deltas {
        spec = d.apply(&spec);
        reset_thread_graph();
        let m0 = Instant::now();
        std::hint::black_box(OpAmp::design(tech, topology, spec).expect("cold design"));
        lat.record(m0.elapsed().as_nanos() as f64);
    }
    t0.elapsed().as_secs_f64()
}

/// Wall time for the same trajectory through [`OpAmp::redesign`] on a warm
/// graph: unchanged subtrees answer from the memo.
fn run_incremental(
    tech: &Technology,
    topology: OpAmpTopology,
    deltas: &[SpecDelta],
    lat: &ape_probe::Histogram,
) -> f64 {
    reset_thread_graph();
    let mut amp = OpAmp::design(tech, topology, base_spec()).expect("base design");
    let t0 = Instant::now();
    for d in deltas {
        let m0 = Instant::now();
        amp = OpAmp::redesign(tech, &amp, d).expect("incremental redesign");
        lat.record(m0.elapsed().as_nanos() as f64);
        std::hint::black_box(&amp);
    }
    t0.elapsed().as_secs_f64()
}

/// Runs the neighbour stream through a farm and returns wall seconds plus
/// the farm's queue-wait and job-latency distributions.
fn run_sweep(
    tech: &Technology,
    requests: &[Request],
) -> (
    f64,
    ape_probe::HistogramSnapshot,
    ape_probe::HistogramSnapshot,
) {
    let farm = Farm::new(tech.clone(), FarmConfig::default());
    let t0 = Instant::now();
    let handles: Vec<_> = requests.iter().cloned().map(|r| farm.submit(r)).collect();
    for h in &handles {
        let _ = h.wait();
    }
    let wall = t0.elapsed().as_secs_f64();
    (wall, farm.queue_wait_ns(), farm.job_latency_ns())
}

fn main() {
    let _trace = ape_probe::install_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let moves = if smoke { 60 } else { 300 };
    let tech = Technology::default_1p2um();
    let topology = OpAmpTopology::miller(MirrorTopology::Simple, false);
    let deltas = trajectory(moves);

    // Single-variable anneal moves: cold vs incremental. Best of three
    // repetitions keeps the smoke gate out of scheduler-noise territory.
    let best = |f: &dyn Fn() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    let cold_lat = ape_probe::Histogram::new();
    let incr_lat = ape_probe::Histogram::new();
    let cold = best(&|| run_cold(&tech, topology, &deltas, &cold_lat));
    let incremental = best(&|| run_incremental(&tech, topology, &deltas, &incr_lat));
    let speedup = cold / incremental;
    println!("== Single-variable anneal moves: cold vs incremental ==");
    println!(
        "{}",
        render_table(
            &[
                "moves",
                "cold (ms)",
                "incr (ms)",
                "cold/s",
                "incr/s",
                "speedup"
            ],
            &[vec![
                moves.to_string(),
                fmt_val(cold * 1e3),
                fmt_val(incremental * 1e3),
                fmt_val(moves as f64 / cold),
                fmt_val(moves as f64 / incremental),
                format!("{speedup:.2}x"),
            ]],
        )
    );
    println!("{}\n", graph_report());

    // Sweep neighbours through the farm: every request differs from its
    // predecessor in one variable, so warm executor-thread graphs reuse
    // most subtrees.
    let mut spec = base_spec();
    let neighbor_pairs: Vec<(OpAmpTopology, OpAmpSpec)> = deltas
        .iter()
        .map(|d| {
            spec = d.apply(&spec);
            (topology, spec)
        })
        .collect();
    let requests: Vec<Request> = neighbor_pairs
        .iter()
        .map(|&(topology, spec)| Request::OpAmpDesign { topology, spec })
        .collect();
    let (sweep_wall, farm_wait, farm_lat) = run_sweep(&tech, &requests);
    let sweep_per_s = requests.len() as f64 / sweep_wall;
    println!("== Sweep neighbours through the farm ==");
    println!(
        "{}",
        render_table(
            &["wall (ms)", "designs/s"],
            &[vec![fmt_val(sweep_wall * 1e3), fmt_val(sweep_per_s)]],
        )
    );
    println!(
        "detected parallelism: {} (scaling saturates there)",
        ape_exec::detected_parallelism()
    );

    // The same neighbour stream through `OpAmp::design_many_on` on
    // explicit `Executor::new(w)` pools: estimation-graph scaling without
    // the farm in the way.
    let mut exec_thr = Vec::new();
    let mut rows = Vec::new();
    for w in WORKERS {
        let exec = ape_exec::Executor::new(w);
        reset_thread_graph();
        let t0 = Instant::now();
        std::hint::black_box(OpAmp::design_many_on(&exec, &tech, &neighbor_pairs));
        let thr = neighbor_pairs.len() as f64 / t0.elapsed().as_secs_f64();
        reset_thread_graph();
        rows.push(vec![
            w.to_string(),
            fmt_val(thr),
            format!("{:.2}x", thr / exec_thr.first().copied().unwrap_or(thr)),
        ]);
        exec_thr.push(thr);
    }
    println!("== Neighbour stream on explicit executors ==");
    println!(
        "{}",
        render_table(&["workers", "designs/s", "speedup"], &rows)
    );

    // Quantile blocks: per-move estimator latency (all three repetitions
    // pooled) and the farm's queue behaviour on the sweep.
    let latency = latency_section(&[
        ("cold_move", &cold_lat.snapshot()),
        ("incremental_move", &incr_lat.snapshot()),
        ("farm_queue_wait", &farm_wait),
        ("farm_job", &farm_lat),
    ]);
    write_bench(
        "estimator",
        obj([
            ("moves", n(moves as f64)),
            ("cold_moves_per_s", n(moves as f64 / cold)),
            ("incremental_moves_per_s", n(moves as f64 / incremental)),
            ("incremental_speedup_single_var", n(speedup)),
            (
                "sweep_neighbors",
                obj([
                    ("jobs", n(requests.len() as f64)),
                    ("jobs_per_s", n(sweep_per_s)),
                ]),
            ),
            // Worker-count scaling on explicit executors — gated for
            // monotone throughput by `ape-bench report` (auto-skipped at
            // parallelism 1).
            (
                "executor",
                obj([
                    ("workers", nums(&WORKERS.map(|w| w as f64))),
                    ("design_many_per_s", nums(&exec_thr)),
                ]),
            ),
            ("latency_ns", latency),
        ]),
    )
    .expect("write BENCH_estimator.json");
    ape_probe::finish();

    if smoke && speedup < 1.5 {
        eprintln!("FAIL: incremental speedup {speedup:.2}x is below the 1.5x gate");
        std::process::exit(1);
    }
}
