// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Batch design-space sweep: size 144 op-amp variants concurrently and
//! reduce them to an area/power/gain-error Pareto front.
//!
//! The grid is 4 gains × 4 UGFs × 3 loads × 3 topologies; the farm runs
//! it on the shared executor with bounded admission and in-flight
//! deduplication, then the report streams as JSON Lines (stdout unless a
//! path is given).
//!
//! Run with `cargo run --release --example batch_sweep [-- output.jsonl]`.
//! Set `APE_TRACE=summary` to see the farm's probe counters and spans.

use ape_repro::farm::{Farm, FarmConfig, SweepPlan};
use ape_repro::netlist::Technology;
use std::io::Write as _;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = ape_repro::probe::install_from_env();
    let tech = Technology::default_1p2um();
    let plan = SweepPlan::example();
    eprintln!("sweeping {} design points ...", plan.len());

    let t0 = std::time::Instant::now();
    let farm = Farm::new(tech, FarmConfig::default());
    let report = plan.run(&farm);
    let elapsed = t0.elapsed();

    let ok = report.successes().count();
    let pareto = report.pareto_front().count();
    eprintln!(
        "{} points in {:.2} s ({:.0} designs/s): {} sized, {} failed, {} on the Pareto front",
        report.records.len(),
        elapsed.as_secs_f64(),
        report.records.len() as f64 / elapsed.as_secs_f64(),
        ok,
        report.records.len() - ok,
        pareto
    );
    eprint!("{}", farm.report());

    let jsonl = report.to_jsonl();
    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &jsonl)?;
            eprintln!("wrote {path}");
        }
        None => std::io::stdout().write_all(jsonl.as_bytes())?,
    }

    // A sweep that sizes nothing (or finds no front) means the estimator
    // or the farm regressed; fail loudly so CI notices.
    if ok == 0 || pareto == 0 {
        eprintln!("error: empty sweep result (sized {ok}, pareto {pareto})");
        std::process::exit(1);
    }
    ape_repro::probe::finish();
    Ok(())
}
