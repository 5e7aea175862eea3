//! Calibration benchmark: est/sim spread before and after fitting a
//! correction table on the paper's own workloads.
//!
//! Runs Tables 2, 3 and 5 uncalibrated, fits a [`ape_calib::Calibration`]
//! from the est/sim pairs in two stages (L2+L3 first, then L4 on top of
//! the installed L2/L3 corrections, matching the staged-fitting semantics
//! of [`ape_calib::Calibration::merge`]), installs the merged table on the
//! thread graph, and reruns every row. Writes
//! `results/BENCH_calib.json` (schema 2) and exits non-zero unless the
//! calibrated spread is strictly tighter overall and no metric got worse.
//!
//! Usage: `cargo run --release -p ape-bench --bin calib [-- --smoke]`
//! (`--smoke` runs a single Table 3 op-amp instead of all four).

use ape_bench::report::{latency_section, write_bench};
use ape_bench::rows::{table2_rows, table3_row, table5_ape_rows, ComponentRow};
use ape_bench::{fmt_val, render_table};
use ape_calib::json::{n, obj, s, Value};
use ape_calib::{fit, Sample};
use ape_core::graph::set_thread_calibration;
use ape_netlist::Technology;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Maps a bench row name to its composition-equation id.
fn equation_for(row: &str) -> Option<&'static str> {
    Some(match row {
        "DCVolt" => "l2.bias",
        "CurrMirr" | "Wilson" | "Cascode" => "l2.mirror",
        "GainNMOS" | "GainCMOS" | "GainCMOSH" => "l2.gain",
        "Follower" => "l2.follower",
        "DiffNMOS" | "DiffCMOS" => "l2.diffpair",
        "s&h" => "l4.sample_hold",
        "amp" => "l4.audio_amp",
        "adc" => "l4.adc",
        "lpf" => "l4.filter_lp",
        "bpf" => "l4.filter_bp",
        name if name.starts_with("OpAmp") => "l3.opamp",
        _ => return None,
    })
}

/// Maps a bench metric name to the calibration metric it exercises.
/// Metrics whose `est` column is a spec echo (`current`, `vout`, `itail`,
/// `bits`) and derived curve points (`f20db`) stay uncalibrated.
fn calib_metric_for(metric: &str) -> Option<&'static str> {
    Some(match metric {
        "area" => "gate_area_m2",
        "power" => "power_w",
        "gain" | "adm" => "dc_gain",
        "ugf" => "ugf_hz",
        "bw" | "f3db" => "bw_hz",
        "zout" => "zout_ohm",
        "cmrr" => "cmrr_db",
        "slew" => "slew_v_per_s",
        "delay" => "delay_s",
        "f0" => "f0_hz",
        _ => return None,
    })
}

/// The same degeneracy filter [`ape_calib::fit`] applies: both values
/// finite, non-zero, same sign. Keeps the spread comparison and the fit
/// looking at the same population.
fn usable(est: f64, sim: f64) -> bool {
    est.is_finite() && sim.is_finite() && est != 0.0 && sim != 0.0 && (est < 0.0) == (sim < 0.0)
}

/// Collects calibration samples from a set of rows.
fn samples_of(rows: &[ComponentRow]) -> Vec<Sample> {
    let mut out = Vec::new();
    for row in rows {
        let Some(eq) = equation_for(&row.name) else {
            continue;
        };
        for m in &row.metrics {
            let Some(metric) = calib_metric_for(m.name) else {
                continue;
            };
            if usable(m.est, m.sim) {
                out.push(Sample::new(eq, metric, m.est, m.sim));
            }
        }
    }
    out
}

/// Max and mean relative error per `equation.metric` key.
#[derive(Debug, Default, Clone)]
struct Spread {
    max: f64,
    sum: f64,
    n: usize,
}

impl Spread {
    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

fn spreads_of(rows: &[ComponentRow]) -> BTreeMap<String, Spread> {
    let mut out: BTreeMap<String, Spread> = BTreeMap::new();
    for row in rows {
        let Some(eq) = equation_for(&row.name) else {
            continue;
        };
        for m in &row.metrics {
            let Some(metric) = calib_metric_for(m.name) else {
                continue;
            };
            if !usable(m.est, m.sim) {
                continue;
            }
            let e = m.rel_err();
            let s = out.entry(format!("{eq}.{metric}")).or_default();
            s.max = s.max.max(e);
            s.sum += e;
            s.n += 1;
        }
    }
    out
}

fn overall(spreads: &BTreeMap<String, Spread>) -> Spread {
    let mut o = Spread::default();
    for s in spreads.values() {
        o.max = o.max.max(s.max);
        o.sum += s.sum;
        o.n += s.n;
    }
    o
}

fn all_rows(tech: &Technology, smoke: bool) -> Vec<ComponentRow> {
    let mut rows = table2_rows(tech).expect("table 2 computes");
    let tasks = ape_bench::specs::table3_opamps();
    let picked: Vec<_> = if smoke { vec![tasks[3]] } else { tasks };
    for task in &picked {
        rows.push(table3_row(tech, task).expect("table 3 row computes"));
    }
    rows.extend(table5_ape_rows(tech).expect("table 5 computes"));
    rows
}

fn main() {
    let _trace = ape_probe::install_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let tech = Technology::default_1p2um();
    let tfp = tech.fingerprint();

    // Pass 1: raw estimates, no table installed.
    set_thread_calibration(None);
    let raw = all_rows(&tech, smoke);
    let uncal = spreads_of(&raw);

    // Stage fit: L2 + L3 from the raw pairs.
    let fit_hist = ape_probe::Histogram::new();
    let t0 = Instant::now();
    let l23: Vec<Sample> = samples_of(&raw)
        .into_iter()
        .filter(|s| !s.equation.starts_with("l4."))
        .collect();
    let mut table = fit(tfp, "bench", &l23).expect("L2/L3 fit succeeds");
    fit_hist.record(t0.elapsed().as_nanos() as f64);

    // Pass 2: rerun the module rows with L2/L3 installed so the L4 fit
    // sees the residual error of the *calibrated* composition, not a
    // double-count of the inner corrections.
    set_thread_calibration(Some(Arc::new(table.clone())));
    let modules = table5_ape_rows(&tech).expect("table 5 recomputes");
    let t1 = Instant::now();
    let l4: Vec<Sample> = samples_of(&modules)
        .into_iter()
        .filter(|s| s.equation.starts_with("l4."))
        .collect();
    let residual = fit(tfp, "bench-l4", &l4).expect("L4 fit succeeds");
    table.merge(&residual).expect("same technology");
    fit_hist.record(t1.elapsed().as_nanos() as f64);

    // Pass 3: everything again under the merged table.
    let cal_fp = table.fingerprint();
    let corrections = table.iter().count();
    set_thread_calibration(Some(Arc::new(table)));
    let calibrated_rows = all_rows(&tech, smoke);
    set_thread_calibration(None);
    let cal = spreads_of(&calibrated_rows);

    // Report.
    println!("Calibration: est/sim spread before and after fitting\n");
    let mut printable = Vec::new();
    for (key, u) in &uncal {
        let c = cal.get(key).cloned().unwrap_or_default();
        printable.push(vec![
            key.clone(),
            format!("{}", u.n),
            fmt_val(100.0 * u.max),
            fmt_val(100.0 * c.max),
            fmt_val(100.0 * u.mean()),
            fmt_val(100.0 * c.mean()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "equation.metric",
                "n",
                "max % uncal",
                "max % cal",
                "mean % uncal",
                "mean % cal",
            ],
            &printable
        )
    );
    let uo = overall(&uncal);
    let co = overall(&cal);
    println!(
        "\noverall: max {:.1}% -> {:.1}%, mean {:.1}% -> {:.1}% ({} corrections, table {cal_fp:#018x})",
        100.0 * uo.max,
        100.0 * co.max,
        100.0 * uo.mean(),
        100.0 * co.mean(),
        corrections,
    );

    // Machine-readable summary.
    let spread = uncal
        .iter()
        .map(|(key, u)| {
            let c = cal.get(key).cloned().unwrap_or_default();
            let pair = obj([
                ("uncal_max_rel_err", n(u.max)),
                ("cal_max_rel_err", n(c.max)),
            ]);
            (key.clone(), pair)
        })
        .collect();
    let errors = |o: &Spread| obj([("max_rel_err", n(o.max)), ("mean_rel_err", n(o.mean()))]);
    write_bench(
        "calib",
        obj([
            ("technology", s(&format!("{tfp:#018x}"))),
            ("calibration", s(&format!("{cal_fp:#018x}"))),
            ("corrections", n(corrections as f64)),
            ("samples", n(uo.n as f64)),
            ("uncalibrated", errors(&uo)),
            ("calibrated", errors(&co)),
            ("spread", Value::Obj(spread)),
            (
                "latency_ns",
                latency_section(&[("fit", &fit_hist.snapshot())]),
            ),
        ]),
    )
    .expect("write BENCH_calib.json");
    ape_probe::finish();

    // Gate: the calibrated table must strictly tighten the overall max
    // spread and must not make any individual metric worse.
    let mut failed = false;
    if co.max >= uo.max {
        eprintln!(
            "GATE: calibrated overall max {:.4} is not strictly tighter than {:.4}",
            co.max, uo.max
        );
        failed = true;
    }
    for (key, u) in &uncal {
        let c = cal.get(key).cloned().unwrap_or_default();
        if c.max > u.max + 1e-9 {
            eprintln!("GATE: {key} got worse: {:.4} -> {:.4}", u.max, c.max);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
