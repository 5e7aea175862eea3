//! Regenerates **Table 1**: stand-alone ASTRX/OBLX-style synthesis of the
//! ten op-amp specifications, started blind over decade-wide intervals.
//!
//! Usage: `cargo run --release -p ape-bench --bin table1 [evals]`

use ape_bench::rows::{blind_synthesis, AuditCells};
use ape_bench::specs::table1_opamps;
use ape_bench::{fmt_val, render_table};
use ape_netlist::Technology;

fn main() {
    let _trace = ape_probe::install_from_env();
    let evals: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let tech = Technology::default_1p2um();
    println!("Table 1: stand-alone synthesis (blind intervals), {evals} evaluations each\n");
    let mut rows = Vec::new();
    for task in table1_opamps() {
        let out = blind_synthesis(&tech, &task, evals).expect("spec is well-formed");
        let cells = AuditCells::of(&out);
        rows.push(vec![
            task.name.to_string(),
            format!("{:.0}", task.spec.gain),
            format!("{:.1}", task.spec.ugf_hz * 1e-6),
            fmt_val(cells.gain),
            fmt_val(cells.ugf_mhz),
            fmt_val(cells.area_um2),
            fmt_val(cells.power_mw),
            format!("{:.2}", out.wall.as_secs_f64()),
            cells.verdict,
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "ckt",
                "spec gain",
                "spec UGF MHz",
                "gain",
                "UGF MHz",
                "area um2",
                "power mW",
                "CPU s",
                "comments"
            ],
            &rows
        )
    );
    ape_probe::finish();
}
