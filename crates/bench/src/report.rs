//! The standardized `BENCH_*.json` schema, its one writer
//! ([`write_bench`]), and the regression differ behind
//! `cargo run -p ape-bench --bin report`.
//!
//! Every bench JSON carries `"bench"`, `"schema": 2`, the
//! `"detected_parallelism"` it was recorded at, and a `"latency_ns"`
//! section of per-metric quantile blocks built by [`latency_block`] from
//! [`ape_probe::HistogramSnapshot`]s, so CI and humans read p50/p99 the
//! same way in every file. Files are compact JSON rendered by the
//! `ape-calib` codec (sorted keys, shortest round-trip floats). [`diff`]
//! flattens two reports to dotted numeric paths and flags the ones that
//! moved the wrong way past a tolerance, with the good direction inferred
//! from the key name ([`direction_for`]).

use ape_calib::json::{n, obj, s, Value};
use ape_probe::HistogramSnapshot;

/// Current version stamped into every `BENCH_*.json` as `"schema"`.
pub const BENCH_SCHEMA: u64 = 2;

/// One histogram as the standardized latency object:
/// `{"count", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns"}`.
pub fn latency_block(h: &HistogramSnapshot) -> Value {
    let max = if h.count == 0 { 0.0 } else { h.max };
    obj([
        ("count", n(h.count as f64)),
        ("mean_ns", n(h.mean())),
        ("p50_ns", n(h.p50())),
        ("p90_ns", n(h.p90())),
        ("p99_ns", n(h.p99())),
        ("p999_ns", n(h.p999())),
        ("max_ns", n(max)),
    ])
}

/// The `"latency_ns"` section: one [`latency_block`] per named histogram.
pub fn latency_section(entries: &[(&str, &HistogramSnapshot)]) -> Value {
    Value::Obj(
        entries
            .iter()
            .map(|(name, h)| ((*name).to_string(), latency_block(h)))
            .collect(),
    )
}

/// A JSON array of numbers.
pub fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().copied().map(n).collect())
}

/// Writes `results/BENCH_<name>.json`: the object `fields`, stamped with
/// `"bench": name`, `"schema"` ([`BENCH_SCHEMA`]) and the
/// `"detected_parallelism"` of this machine, as one compact line.
///
/// # Errors
///
/// `InvalidInput` when `fields` is not an object; otherwise any error
/// from creating `results/` or writing the file.
pub fn write_bench(name: &str, fields: Value) -> std::io::Result<()> {
    let Value::Obj(mut doc) = fields else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "BENCH fields must be a JSON object",
        ));
    };
    doc.insert("bench".to_string(), s(name));
    doc.insert("schema".to_string(), n(BENCH_SCHEMA as f64));
    doc.insert(
        "detected_parallelism".to_string(),
        n(ape_exec::detected_parallelism() as f64),
    );
    let path = format!("results/BENCH_{name}.json");
    std::fs::create_dir_all("results")?;
    std::fs::write(&path, Value::Obj(doc).render() + "\n")?;
    println!("wrote {path}");
    Ok(())
}

/// Which way a metric should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput, speedups, hit counts).
    HigherIsBetter,
    /// Smaller is better (latencies, allocation counts, misses).
    LowerIsBetter,
    /// No quality direction (configuration echoes, sample counts).
    Informational,
}

/// Infers the quality direction of a metric from its dotted path.
///
/// Heuristic by construction — the emitters name their keys so that this
/// classification is right: throughputs end in `per_s`, latencies in `_ns`,
/// and configuration echoes (`schema`, `samples`, `count`, ...) match
/// neither list.
pub fn direction_for(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if leaf == "count" || leaf == "schema" {
        return Direction::Informational;
    }
    const HIGHER: [&str; 6] = [
        "per_s",
        "speedup",
        "hit",
        "pareto",
        "parallelism",
        "success",
    ];
    const LOWER: [&str; 9] = [
        "_ns", "latency", "wall", "alloc", "miss", "repivot", "wait", "failure", "rel_err",
    ];
    if HIGHER.iter().any(|m| path.contains(m)) {
        Direction::HigherIsBetter
    } else if LOWER.iter().any(|m| path.contains(m)) {
        Direction::LowerIsBetter
    } else {
        Direction::Informational
    }
}

/// One numeric path compared across two reports.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Dotted path of the metric (arrays indexed, e.g. `circuits.0.name`).
    pub path: String,
    /// Value in the baseline report.
    pub old: f64,
    /// Value in the new report.
    pub new: f64,
    /// The metric's quality direction.
    pub direction: Direction,
    /// `true` when the metric moved the bad way past the tolerance.
    pub regression: bool,
}

impl Delta {
    /// Relative change `new/old - 1`, positive when the value grew.
    pub fn rel_change(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                0.0
            } else {
                f64::INFINITY * self.new.signum()
            }
        } else {
            self.new / self.old - 1.0
        }
    }
}

fn flatten(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Num(n) => out.push((prefix.to_string(), *n)),
        Value::Obj(members) => {
            for (k, child) in members {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&path, child, out);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(&format!("{prefix}.{i}"), child, out);
            }
        }
        _ => {}
    }
}

/// Compares two parsed bench reports. Every numeric path present in both
/// becomes a [`Delta`]; a delta is a regression when its direction is
/// known and it moved the bad way by more than `tolerance` (fractional:
/// `0.10` = 10 %).
pub fn diff(old: &Value, new: &Value, tolerance: f64) -> Vec<Delta> {
    let mut old_paths = Vec::new();
    let mut new_paths = Vec::new();
    flatten("", old, &mut old_paths);
    flatten("", new, &mut new_paths);
    let mut deltas = Vec::new();
    for (path, old_v) in &old_paths {
        let Some((_, new_v)) = new_paths.iter().find(|(p, _)| p == path) else {
            continue;
        };
        let direction = direction_for(path);
        let regression = match direction {
            Direction::HigherIsBetter => *new_v < *old_v * (1.0 - tolerance),
            Direction::LowerIsBetter => *new_v > *old_v * (1.0 + tolerance),
            Direction::Informational => false,
        };
        deltas.push(Delta {
            path: path.clone(),
            old: *old_v,
            new: *new_v,
            direction,
            regression,
        });
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_calib::json::parse;

    #[test]
    fn latency_block_shape() {
        let h = ape_probe::Histogram::new();
        h.record(1000.0);
        h.record(3000.0);
        let block = latency_block(&h.snapshot());
        assert_eq!(block.get("count").and_then(Value::as_f64), Some(2.0));
        for key in ["mean_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns"] {
            let v = block.get(key).and_then(Value::as_f64).expect(key);
            assert!((0.0..=3000.0).contains(&v), "{key} = {v}");
        }
        // An empty histogram renders finite zeros, not inf/nan.
        let empty = latency_block(&HistogramSnapshot::empty()).render();
        parse(&empty).expect("empty block is valid json");
        assert!(!empty.contains("inf") && !empty.contains("NaN"), "{empty}");
    }

    #[test]
    fn direction_heuristics() {
        assert_eq!(
            direction_for("sweep.jobs_per_s.0"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_for("incremental_speedup_single_var"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_for("latency_ns.job.p99_ns"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            direction_for("circuits.0.ac_sweep_alloc_events"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            direction_for("calibrated.max_rel_err"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction_for("corrections"), Direction::Informational);
        assert_eq!(direction_for("moves"), Direction::Informational);
        assert_eq!(
            direction_for("latency_ns.job.count"),
            Direction::Informational
        );
        assert_eq!(direction_for("schema"), Direction::Informational);
    }

    #[test]
    fn diff_flags_only_bad_moves() {
        let old = parse(r#"{"x_per_s": 100, "p99_ns": 50, "moves": 10}"#).expect("old");
        let new = parse(r#"{"x_per_s": 80, "p99_ns": 54, "moves": 99}"#).expect("new");
        let deltas = diff(&old, &new, 0.10);
        let by_path = |p: &str| deltas.iter().find(|d| d.path == p).expect("path present");
        assert!(by_path("x_per_s").regression, "20% throughput drop flagged");
        assert!(!by_path("p99_ns").regression, "8% latency rise tolerated");
        assert!(!by_path("moves").regression, "informational never flags");
        // Improvements never flag either.
        let better = parse(r#"{"x_per_s": 300, "p99_ns": 10, "moves": 10}"#).expect("better");
        assert!(diff(&old, &better, 0.10).iter().all(|d| !d.regression));
    }
}
