//! Regenerates **Table 4**: the same ten op-amp specifications as Table 1,
//! synthesized with the APE-generated initial point and ±20 % intervals.
//!
//! With `--with-blind`, the blind (Table 1) run is repeated for each
//! circuit to compute the speed-up column the paper reports.
//!
//! Usage: `cargo run --release -p ape-bench --bin table4 [evals] [--with-blind]`

use ape_bench::rows::{blind_synthesis, seeded_synthesis, AuditCells};
use ape_bench::specs::table1_opamps;
use ape_bench::{fmt_val, render_table};
use ape_core::module::{SallenKeyLowPass, SampleHold};
use ape_core::opamp::OpAmp;
use ape_netlist::Technology;
use std::time::Instant;

fn main() {
    let _trace = ape_probe::install_from_env();
    let args: Vec<String> = std::env::args().collect();
    let evals: usize = args
        .iter()
        .skip(1)
        .find_map(|s| s.parse().ok())
        .unwrap_or(400);
    let with_blind = args.iter().any(|a| a == "--with-blind");
    let tech = Technology::default_1p2um();
    println!("Table 4: APE-seeded synthesis (+/-20% intervals), {evals} evaluation budget\n");

    // The paper's headline: APE itself is essentially free.
    let t_ape = Instant::now();
    let designs: Vec<OpAmp> = table1_opamps()
        .iter()
        .map(|task| OpAmp::design(&tech, task.topology, task.spec).expect("APE sizes every spec"))
        .collect();
    let ape_time = t_ape.elapsed();
    println!(
        "APE sizing time for all ten op-amps: {:.4} s (paper: 0.12 s on an Ultra Sparc 30)\n",
        ape_time.as_secs_f64()
    );

    let mut rows = Vec::new();
    for (task, ape_design) in table1_opamps().iter().zip(&designs) {
        let out = seeded_synthesis(&tech, task, ape_design, evals).expect("spec is well-formed");
        let cells = AuditCells::of(&out);
        let speedup = if with_blind {
            let blind = blind_synthesis(&tech, task, evals).expect("spec is well-formed");
            let s = 100.0 * (1.0 - out.wall.as_secs_f64() / blind.wall.as_secs_f64().max(1e-9));
            format!("{s:.1}%")
        } else {
            "-".to_string()
        };
        rows.push(vec![
            task.name.to_string(),
            fmt_val(cells.gain),
            fmt_val(cells.ugf_mhz),
            fmt_val(cells.area_um2),
            fmt_val(cells.power_mw),
            format!("{:.2}", out.wall.as_secs_f64()),
            format!("{}", out.evals),
            speedup,
            cells.verdict,
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "ckt", "gain", "UGF MHz", "area um2", "power mW", "CPU s", "evals", "speed-up",
                "comments"
            ],
            &rows
        )
    );

    // Exercise the module level (the paper's level 4) so a trace of this
    // run covers the whole hierarchy: module -> op-amp -> basic block ->
    // device sizing.
    let lpf = SallenKeyLowPass::design(&tech, 1e3, 4, 10e-12).expect("module-level LPF sizes");
    let sh = SampleHold::design(&tech, 2.0, 40e3, 10e-12).expect("module-level S/H sizes");
    println!(
        "\nModule-level check: 4th-order Sallen-Key LPF {:.0} um2, sample/hold {:.0} um2",
        lpf.perf.gate_area_um2(),
        sh.perf.gate_area_um2()
    );

    ape_probe::finish();
}
