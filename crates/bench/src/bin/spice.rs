//! Solver-path benchmarks: DC, AC, and transient on the paper's testbench
//! circuits, dense backend vs the sparse path, with the AC sweep
//! additionally fanned out over 1/2/4/8 threads.
//!
//! Prints aligned tables and writes a machine-readable summary to
//! `results/BENCH_spice.json` (analyses per second, solver allocation
//! counters, latency quantiles).
//!
//! Run with `cargo run --release -p ape-bench --bin spice`; pass `--smoke`
//! for the fast CI variant (one sample per row, fewer frequency points).
//! The full run samples every row for at least [`MIN_ROW_SECS`], so two
//! builds compared row by row differ by more than run-to-run noise.

use ape_bench::report::{latency_section, nums, write_bench};
use ape_bench::{fmt_val, render_table};
use ape_calib::json::{n, obj, s, Value};
use ape_core::basic::{GainStage, GainTopology};
use ape_core::module::SallenKeyLowPass;
use ape_core::opamp::OpAmp;
use ape_netlist::{Circuit, Technology};
use ape_spice::{
    ac_sweep_on, ac_sweep_with, alloc_events, dc_operating_point_with, decade_frequencies,
    transient, AcOptions, Backend, DcOptions, OperatingPoint, TranOptions, Unknowns,
};
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

struct Case {
    name: &'static str,
    ckt: Circuit,
}

fn cases(tech: &Technology) -> Vec<Case> {
    let gain = GainStage::design(tech, GainTopology::CmosActive, -19.0, 120e-6, 1e-12)
        .expect("gain stage designs");
    let opamp_task = &ape_bench::specs::table3_opamps()[3];
    let opamp = OpAmp::design(tech, opamp_task.topology, opamp_task.spec).expect("op-amp designs");
    let lpf = SallenKeyLowPass::design(tech, 1e3, 4, 10e-12).expect("filter designs");
    vec![
        Case {
            name: "gain-stage",
            ckt: gain.testbench(tech).expect("gain testbench"),
        },
        Case {
            name: "opamp-ol",
            ckt: opamp.testbench_open_loop(tech).expect("open-loop tb"),
        },
        Case {
            name: "lpf4",
            ckt: lpf.testbench(tech).expect("filter tb"),
        },
    ]
}

/// Per-analysis latency distributions over every sampled sparse call,
/// pooled across the testbench circuits — the standardized `latency_ns`
/// block of `BENCH_spice.json`.
#[derive(Default)]
struct Latencies {
    dc_sparse: ape_probe::Histogram,
    ac_sparse: ape_probe::Histogram,
    tran_sparse: ape_probe::Histogram,
}

/// Least wall time the full run spends sampling one row, seconds. Five
/// samples of a microsecond-scale analysis leave a row's median to a few
/// scheduler hiccups; a few hundred milliseconds of samples make two
/// builds comparable row by row.
const MIN_ROW_SECS: f64 = 0.2;

/// How long [`time_it`] samples one row: at least `samples` calls, and
/// until the row has run for `min_secs`.
#[derive(Debug, Clone, Copy)]
struct Sampling {
    samples: u32,
    min_secs: f64,
}

/// Median-of-samples wall time per call, seconds. Every sample also lands
/// in `hist` (when given) so quantiles survive the median reduction.
fn time_it<R>(
    sampling: Sampling,
    hist: Option<&ape_probe::Histogram>,
    mut f: impl FnMut() -> R,
) -> f64 {
    std::hint::black_box(f()); // warm-up
    let mut times = Vec::new();
    let mut total = 0.0;
    while times.len() < sampling.samples.max(1) as usize || total < sampling.min_secs {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let secs = t0.elapsed().as_secs_f64();
        if let Some(h) = hist {
            h.record(secs * 1e9);
        }
        total += secs;
        times.push(secs);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

fn dc_opts(backend: Backend) -> DcOptions {
    DcOptions {
        backend,
        ..DcOptions::default()
    }
}

struct CaseResult {
    name: &'static str,
    unknowns: usize,
    dc_dense: f64,
    dc_sparse: f64,
    ac_points: usize,
    ac_dense: f64,
    /// Sparse AC wall time per sweep, indexed like [`THREADS`].
    ac_sparse: Vec<f64>,
    /// Sparse AC wall time per sweep on explicit `Executor::new(w)` pools,
    /// indexed like [`THREADS`] — real cross-thread chunking even where
    /// `ac_sweep_with` would clamp to sequential.
    ac_exec: Vec<f64>,
    tran_dense: f64,
    tran_sparse: f64,
    /// Solver allocation events in one steady-state sparse AC sweep.
    ac_allocs: u64,
}

fn run_case(
    tech: &Technology,
    case: &Case,
    samples: Sampling,
    freq_ppd: usize,
    lat: &Latencies,
) -> CaseResult {
    let ckt = &case.ckt;
    let unknowns = Unknowns::for_circuit(ckt).dim();
    let freqs = decade_frequencies(10.0, 1e9, freq_ppd).unwrap();

    let dc_dense = time_it(samples, None, || {
        dc_operating_point_with(ckt, tech, dc_opts(Backend::Dense)).expect("dense DC")
    });
    let dc_sparse = time_it(samples, Some(&lat.dc_sparse), || {
        dc_operating_point_with(ckt, tech, dc_opts(Backend::Sparse)).expect("sparse DC")
    });

    let op: OperatingPoint =
        dc_operating_point_with(ckt, tech, DcOptions::default()).expect("op for AC");
    let ac = |backend: Backend, threads: usize| {
        ac_sweep_with(ckt, tech, &op, &freqs, AcOptions { threads, backend }).expect("AC sweep")
    };
    let ac_dense = time_it(samples, None, || ac(Backend::Dense, 1));
    let ac_sparse: Vec<f64> = THREADS
        .iter()
        .map(|&t| {
            let hist = (t == 1).then_some(&lat.ac_sparse);
            time_it(samples, hist, || ac(Backend::Sparse, t))
        })
        .collect();
    let ac_exec: Vec<f64> = THREADS
        .iter()
        .map(|&w| {
            let exec = ape_exec::Executor::new(w);
            let opts = AcOptions {
                threads: w,
                backend: Backend::Sparse,
            };
            time_it(samples, None, || {
                ac_sweep_on(&exec, ckt, tech, &op, &freqs, opts).expect("executor AC sweep")
            })
        })
        .collect();
    let before = alloc_events();
    ac(Backend::Sparse, 1);
    let ac_allocs = alloc_events() - before;

    let mut topts = TranOptions::new(2e-7, 20e-6);
    topts.backend = Backend::Dense;
    let tran_dense = time_it(samples, None, || {
        transient(ckt, tech, &op, topts).expect("tran")
    });
    topts.backend = Backend::Sparse;
    let tran_sparse = time_it(samples, Some(&lat.tran_sparse), || {
        transient(ckt, tech, &op, topts).expect("tran")
    });

    CaseResult {
        name: case.name,
        unknowns,
        dc_dense,
        dc_sparse,
        ac_points: freqs.len(),
        ac_dense,
        ac_sparse,
        ac_exec,
        tran_dense,
        tran_sparse,
        ac_allocs,
    }
}

/// Sweeps per second for each per-sweep wall time.
fn per_s(secs: &[f64]) -> Value {
    nums(&secs.iter().map(|t| 1.0 / t).collect::<Vec<_>>())
}

fn write_json(results: &[CaseResult], sampling: Sampling, lat: &Latencies) {
    let circuits = results
        .iter()
        .map(|r| {
            obj([
                ("name", s(r.name)),
                ("unknowns", n(r.unknowns as f64)),
                (
                    "dc_ops_per_s",
                    obj([
                        ("dense", n(1.0 / r.dc_dense)),
                        ("sparse", n(1.0 / r.dc_sparse)),
                    ]),
                ),
                ("ac_points", n(r.ac_points as f64)),
                (
                    "ac_sweeps_per_s",
                    obj([
                        ("dense", n(1.0 / r.ac_dense)),
                        ("sparse", per_s(&r.ac_sparse)),
                    ]),
                ),
                ("ac_speedup_sparse_vs_dense", n(r.ac_dense / r.ac_sparse[0])),
                (
                    "tran_runs_per_s",
                    obj([
                        ("dense", n(1.0 / r.tran_dense)),
                        ("sparse", n(1.0 / r.tran_sparse)),
                    ]),
                ),
                ("ac_sweep_alloc_events", n(r.ac_allocs as f64)),
            ])
        })
        .collect();
    // Worker-count scaling on explicit executors — the section `ape-bench
    // report` gates for monotone throughput (auto-skipped when
    // detected_parallelism is 1, where extra workers only add overhead).
    let executor_circuits = results
        .iter()
        .map(|r| obj([("name", s(r.name)), ("ac_sweeps_per_s", per_s(&r.ac_exec))]))
        .collect();
    let threads = nums(&THREADS.map(|t| t as f64));
    write_bench(
        "spice",
        obj([
            ("samples", n(f64::from(sampling.samples))),
            ("min_row_s", n(sampling.min_secs)),
            ("threads", threads.clone()),
            ("circuits", Value::Arr(circuits)),
            (
                "executor",
                obj([
                    ("workers", threads),
                    ("circuits", Value::Arr(executor_circuits)),
                ]),
            ),
            (
                "latency_ns",
                latency_section(&[
                    ("dc_sparse", &lat.dc_sparse.snapshot()),
                    ("ac_sparse_1t", &lat.ac_sparse.snapshot()),
                    ("tran_sparse", &lat.tran_sparse.snapshot()),
                ]),
            ),
        ]),
    )
    .expect("write BENCH_spice.json");
}

fn main() {
    let _trace = ape_probe::install_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (samples, freq_ppd) = if smoke {
        let one = Sampling {
            samples: 1,
            min_secs: 0.0,
        };
        (one, 4)
    } else {
        let timed = Sampling {
            samples: 5,
            min_secs: MIN_ROW_SECS,
        };
        (timed, 20)
    };
    let tech = Technology::default_1p2um();

    let lat = Latencies::default();
    let mut results = Vec::new();
    for case in cases(&tech) {
        results.push(run_case(&tech, &case, samples, freq_ppd, &lat));
    }

    let mut rows = Vec::new();
    for r in &results {
        rows.push(vec![
            r.name.to_string(),
            r.unknowns.to_string(),
            fmt_val(1.0 / r.dc_dense),
            fmt_val(1.0 / r.dc_sparse),
            fmt_val(1.0 / r.ac_dense),
            fmt_val(1.0 / r.ac_sparse[0]),
            format!("{:.2}x", r.ac_dense / r.ac_sparse[0]),
            fmt_val(1.0 / r.tran_dense),
            fmt_val(1.0 / r.tran_sparse),
            r.ac_allocs.to_string(),
        ]);
    }
    println!("== Solver throughput: dense vs sparse (per analysis) ==");
    println!(
        "{}",
        render_table(
            &[
                "circuit", "n", "dc-d/s", "dc-s/s", "ac-d/s", "ac-s/s", "ac-spd", "tr-d/s",
                "tr-s/s", "allocs"
            ],
            &rows,
        )
    );

    let mut rows = Vec::new();
    for r in &results {
        let mut row = vec![r.name.to_string()];
        for (k, &t) in THREADS.iter().enumerate() {
            let _ = t;
            row.push(format!("{:.2}x", r.ac_sparse[0] / r.ac_sparse[k]));
        }
        rows.push(row);
    }
    println!("== Sparse AC sweep scaling over threads (vs 1 thread) ==");
    println!(
        "{}",
        render_table(&["circuit", "1t", "2t", "4t", "8t"], &rows)
    );

    let mut rows = Vec::new();
    for r in &results {
        let mut row = vec![r.name.to_string()];
        for k in 0..THREADS.len() {
            row.push(format!("{:.2}x", r.ac_exec[0] / r.ac_exec[k]));
        }
        rows.push(row);
    }
    println!("== Sparse AC sweep scaling on explicit executors (vs 1 worker) ==");
    println!(
        "{}",
        render_table(&["circuit", "1w", "2w", "4w", "8w"], &rows)
    );
    let detected = ape_exec::detected_parallelism();
    println!("detected parallelism: {detected} (scaling saturates there)");
    if detected == 1 {
        eprintln!(
            "spice bench: WARNING: detected parallelism is 1 — thread counts above 1 \
             serialize on one core, so the scaling table measures scheduling overhead, \
             not concurrent speedup"
        );
    }

    write_json(&results, samples, &lat);
    ape_probe::finish();
}
