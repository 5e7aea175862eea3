//! Bench regression differ: `cargo run -p ape-bench --bin report --
//! <baseline.json> <new.json> [--tolerance 0.10]`.
//!
//! Flattens both `BENCH_*.json` files to dotted numeric paths, infers each
//! metric's quality direction from its name (`*_per_s` up is good, `*_ns`
//! down is good, `count`/`schema`/... informational), and prints every
//! path that moved the bad way past the tolerance. Exits non-zero when any
//! regression is flagged, so CI can gate on
//! `report results/BENCH_x.json.baseline results/BENCH_x.json`.
//!
//! Reports carrying an `"executor"` section (worker-count scaling arrays)
//! additionally pass through the monotone-scaling gate: every `*per_s`
//! array under it must not fall below its 1-worker entry by more than the
//! tolerance at any higher worker count. Both the cross-report executor
//! diff and the monotone gate auto-skip with a loud warning when either
//! run recorded `detected_parallelism` of 1 — worker counts serialize on
//! one core there, so the arrays measure scheduling overhead, not scaling.

use ape_bench::report::{diff, Delta, Direction};
use ape_calib::json::{self, Value};

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    })
}

/// The hardware parallelism the run recorded, defaulting to 1 for bench
/// files that don't carry the field (they have no scaling sections).
fn detected_parallelism(doc: &Value) -> f64 {
    doc.get("detected_parallelism")
        .and_then(Value::as_f64)
        .unwrap_or(1.0)
}

/// Walks the `"executor"` section for throughput arrays (`*per_s` keys)
/// and returns a violation line for every entry that falls below the
/// first (1-worker) entry by more than `slack`: adding workers must never
/// cost throughput.
fn monotone_violations(prefix: &str, v: &Value, slack: f64, out: &mut Vec<String>) {
    match v {
        Value::Obj(members) => {
            for (k, child) in members {
                let path = format!("{prefix}.{k}");
                if k.contains("per_s") {
                    if let Some(items) = child.as_arr() {
                        let vals: Vec<f64> = items.iter().filter_map(Value::as_f64).collect();
                        if let Some(&base) = vals.first() {
                            for (i, &t) in vals.iter().enumerate().skip(1) {
                                if t < base * (1.0 - slack) {
                                    out.push(format!(
                                        "{path}.{i}: {t:.3}/s at a higher worker count vs \
                                         {base:.3}/s at the lowest ({:+.1}%)",
                                        (t / base - 1.0) * 100.0
                                    ));
                                }
                            }
                        }
                    }
                }
                monotone_violations(&path, child, slack, out);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                monotone_violations(&format!("{prefix}.{i}"), child, slack, out);
            }
        }
        _ => {}
    }
}

fn arrow(d: &Delta) -> &'static str {
    match d.direction {
        Direction::HigherIsBetter => "higher is better",
        Direction::LowerIsBetter => "lower is better",
        Direction::Informational => "informational",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tolerance = 0.10f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tolerance" {
            let v = it.next().and_then(|v| v.parse().ok());
            tolerance = v.unwrap_or_else(|| {
                eprintln!("error: --tolerance needs a fractional number (e.g. 0.10)");
                std::process::exit(2);
            });
        } else {
            paths.push(a.clone());
        }
    }
    let [baseline, candidate] = paths.as_slice() else {
        eprintln!("usage: report <baseline.json> <new.json> [--tolerance 0.10]");
        std::process::exit(2);
    };

    let old = load(baseline);
    let new = load(candidate);
    let mut deltas = diff(&old, &new, tolerance);
    if deltas.is_empty() {
        eprintln!("error: no numeric paths shared between {baseline} and {candidate}");
        std::process::exit(2);
    }

    // Worker-count scaling only measures real concurrency when both runs
    // had more than one hardware thread to scale onto.
    let scaling_live = detected_parallelism(&old).min(detected_parallelism(&new)) > 1.0;
    let has_executor = new.get("executor").is_some() || old.get("executor").is_some();
    if !scaling_live && has_executor {
        let mut masked = 0usize;
        for d in deltas
            .iter_mut()
            .filter(|d| d.path.starts_with("executor."))
        {
            d.regression = false;
            masked += 1;
        }
        eprintln!(
            "WARNING: detected_parallelism is 1 in at least one run — skipping the \
             executor scaling gate and {masked} executor.* path(s): worker counts \
             serialize on one core, the arrays measure overhead, not scaling"
        );
    }

    // Monotone-scaling gate on the candidate's own executor section. The
    // slack floor absorbs scheduler noise in short scaling runs.
    let mut scaling_failures = Vec::new();
    if scaling_live {
        if let Some(exec) = new.get("executor") {
            monotone_violations("executor", exec, tolerance.max(0.15), &mut scaling_failures);
        }
    }

    let regressions: Vec<&Delta> = deltas.iter().filter(|d| d.regression).collect();
    let improved = deltas
        .iter()
        .filter(|d| {
            !d.regression
                && match d.direction {
                    Direction::HigherIsBetter => d.rel_change() > tolerance,
                    Direction::LowerIsBetter => d.rel_change() < -tolerance,
                    Direction::Informational => false,
                }
        })
        .count();

    println!(
        "compared {} numeric paths ({baseline} -> {candidate}, tolerance {:.0}%)",
        deltas.len(),
        tolerance * 100.0
    );
    println!(
        "  {improved} improved past the tolerance, {} regressed",
        regressions.len()
    );
    for d in &regressions {
        println!(
            "  REGRESSION {}: {:.3} -> {:.3} ({:+.1}%, {})",
            d.path,
            d.old,
            d.new,
            d.rel_change() * 100.0,
            arrow(d)
        );
    }
    for f in &scaling_failures {
        println!("  SCALING REGRESSION {f}");
    }
    if !regressions.is_empty() || !scaling_failures.is_empty() {
        std::process::exit(1);
    }
    println!("no regressions");
}
