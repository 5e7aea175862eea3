//! Solver-portfolio benchmark: wall-time and success-rate per search
//! engine on APE-seeded Table 1/4 specifications.
//!
//! Each engine (`sa`, `cma-es`, `pso`, `newton`, and the raced
//! `portfolio`) synthesizes the same specs from the same ±20 % APE-seeded
//! intervals with the same evaluation budget, across several seeds. The
//! gate — the reason this bench exists — is that the portfolio must never
//! be *less* successful than simulated annealing alone: racing engines
//! and taking the first feasible winner can only add coverage.
//!
//! Writes `results/BENCH_solver.json` (schema 2). `--smoke` shrinks the
//! spec/seed matrix for CI and exits non-zero if the gate fails.
//!
//! Run with `cargo run --release -p ape-bench --bin solver [-- --smoke]`.

use ape_bench::report::{latency_section, write_bench};
use ape_bench::specs::table1_opamps;
use ape_bench::{fmt_val, render_table};
use ape_calib::json::{n, obj, s, Value};
use ape_core::opamp::OpAmp;
use ape_netlist::Technology;
use ape_oblx::{design_point_from_ape, synthesize, InitialPoint, SolverChoice, SynthesisOptions};
use std::collections::BTreeMap;
use std::time::Instant;

const SOLVERS: [(&str, SolverChoice); 5] = [
    ("sa", SolverChoice::Sa),
    ("cma_es", SolverChoice::CmaEs),
    ("pso", SolverChoice::ParticleSwarm),
    ("newton", SolverChoice::NewtonPolish),
    ("portfolio", SolverChoice::Portfolio),
];

fn main() {
    let _trace = ape_probe::install_from_env();
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let evals: usize = args
        .iter()
        .skip(1)
        .find_map(|s| s.parse().ok())
        .unwrap_or(if smoke { 120 } else { 300 });
    let seeds: &[u64] = if smoke { &[1] } else { &[1, 2, 3] };
    let tech = Technology::default_1p2um();

    // APE-seeded mode (Table 4): every task the estimator can size is a
    // candidate; take the first few so the full run stays in CPU budget.
    let take = if smoke { 2 } else { 4 };
    let tasks: Vec<_> = table1_opamps()
        .into_iter()
        .filter_map(|t| {
            OpAmp::design(&tech, t.topology, t.spec)
                .ok()
                .map(|amp| (t, design_point_from_ape(&tech, &amp)))
        })
        .take(take)
        .collect();
    assert!(
        tasks.len() >= 2,
        "need at least two seedable Table 1 specs, got {}",
        tasks.len()
    );
    let spec_names: Vec<&str> = tasks.iter().map(|(t, _)| t.name).collect();
    println!(
        "solver portfolio bench: specs {:?}, {} seed(s), {evals} evals per run\n",
        spec_names,
        seeds.len()
    );

    let mut rows = Vec::new();
    let mut json_solvers = BTreeMap::new();
    let mut hists = Vec::new();
    let mut success_rates = Vec::new();
    for (label, choice) in SOLVERS {
        let hist = ape_probe::Histogram::new();
        let mut successes = 0usize;
        let mut runs = 0usize;
        let mut wall_total = 0.0f64;
        let mut evals_total = 0usize;
        for (task, point) in &tasks {
            for &seed in seeds {
                let init = InitialPoint::ApeSeeded {
                    point: point.clone(),
                    interval_frac: 0.2,
                };
                let opts = SynthesisOptions {
                    max_evals: evals,
                    moves_per_temp: 20,
                    seed,
                    solver: choice,
                    ..SynthesisOptions::default()
                };
                let t0 = Instant::now();
                let out = synthesize(&tech, task.topology, &task.spec, &init, &opts)
                    .expect("table specs are well-formed");
                let wall = t0.elapsed();
                hist.record(wall.as_nanos() as f64);
                wall_total += wall.as_secs_f64();
                evals_total += out.evals;
                runs += 1;
                if out.meets_spec() {
                    successes += 1;
                }
            }
        }
        let success_rate = successes as f64 / runs.max(1) as f64;
        let wall_s = wall_total / runs.max(1) as f64;
        let mean_evals = evals_total / runs.max(1);
        success_rates.push(success_rate);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}%", 100.0 * success_rate),
            fmt_val(wall_s),
            format!("{mean_evals}"),
        ]);
        json_solvers.insert(
            label.to_string(),
            obj([
                ("success_rate", n(success_rate)),
                ("wall_s", n(wall_s)),
                ("evals", n(mean_evals as f64)),
            ]),
        );
        hists.push((label, hist.snapshot()));
    }
    println!(
        "{}",
        render_table(&["solver", "success", "mean wall s", "mean evals"], &rows)
    );

    let entries: Vec<(&str, &ape_probe::HistogramSnapshot)> =
        hists.iter().map(|(name, h)| (*name, h)).collect();
    write_bench(
        "solver",
        obj([
            ("evals_budget", n(evals as f64)),
            ("seeds", n(seeds.len() as f64)),
            (
                "specs",
                Value::Arr(spec_names.iter().map(|name| s(name)).collect()),
            ),
            ("solvers", Value::Obj(json_solvers)),
            ("latency_ns", latency_section(&entries)),
        ]),
    )
    .expect("write BENCH_solver.json");

    // The gate: racing can only add coverage over annealing alone.
    let sa_rate = success_rates[0];
    let portfolio_rate = success_rates[SOLVERS.len() - 1];
    if portfolio_rate < sa_rate {
        eprintln!(
            "GATE FAILED: portfolio success rate {portfolio_rate:.2} < sa success rate {sa_rate:.2}"
        );
        ape_probe::finish();
        std::process::exit(1);
    }
    println!(
        "gate: portfolio success rate {:.0}% >= sa {:.0}%",
        100.0 * portfolio_rate,
        100.0 * sa_rate
    );
    ape_probe::finish();
}
