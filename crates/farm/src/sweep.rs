//! Design-space sweeps: expand a parameter grid into farm jobs, collect
//! the estimates, reduce them to a Pareto front, and stream the lot as
//! JSON Lines.
//!
//! The sweep is deterministic by construction: points are enumerated in a
//! fixed row-major order, every job is a pure function of
//! `(technology, request)` (the estimation graph memoizes on bit-exact
//! input fingerprints, so warm and cold threads agree), and results are
//! collected in point order — so the JSONL output is byte-identical
//! however the executor schedules the jobs.

use crate::job::Request;
use crate::pool::Farm;
use ape_calib::json::{n, s, Value};
use ape_core::opamp::{OpAmpSpec, OpAmpTopology};

/// A rectangular grid of op-amp specifications to estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// Required DC gains (absolute).
    pub gains: Vec<f64>,
    /// Required unity-gain frequencies, hertz.
    pub ugfs_hz: Vec<f64>,
    /// Load capacitances, farads.
    pub loads_f: Vec<f64>,
    /// Topology alternatives to race against each other.
    pub topologies: Vec<OpAmpTopology>,
    /// Bias reference current, amperes (fixed across the grid).
    pub ibias_a: f64,
    /// Gate-area budget, square metres (fixed across the grid).
    pub area_max_m2: f64,
    /// Output-impedance requirement for buffered topologies.
    pub zout_ohm: Option<f64>,
}

impl SweepPlan {
    /// The demo grid used by `examples/batch_sweep.rs`: 4 gains × 4 UGFs
    /// × 3 loads × 3 topologies = 144 design points.
    pub fn example() -> Self {
        use ape_core::basic::MirrorTopology;
        SweepPlan {
            gains: vec![100.0, 200.0, 500.0, 1000.0],
            ugfs_hz: vec![1e6, 3e6, 5e6, 10e6],
            loads_f: vec![5e-12, 10e-12, 20e-12],
            topologies: vec![
                OpAmpTopology::miller(MirrorTopology::Simple, false),
                OpAmpTopology::miller(MirrorTopology::Wilson, false),
                OpAmpTopology::miller(MirrorTopology::Simple, true),
            ],
            ibias_a: 10e-6,
            area_max_m2: 20_000e-12,
            zout_ohm: Some(10e3),
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.topologies.len() * self.gains.len() * self.ugfs_hz.len() * self.loads_f.len()
    }

    /// `true` for a degenerate empty grid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the grid in deterministic row-major order
    /// (topology-major, load-minor).
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut pts = Vec::with_capacity(self.len());
        let mut index = 0usize;
        for &topology in &self.topologies {
            for &gain in &self.gains {
                for &ugf_hz in &self.ugfs_hz {
                    for &cl_f in &self.loads_f {
                        pts.push(SweepPoint {
                            index,
                            topology,
                            gain,
                            ugf_hz,
                            cl_f,
                        });
                        index += 1;
                    }
                }
            }
        }
        pts
    }

    fn request_for(&self, p: &SweepPoint) -> Request {
        Request::OpAmpDesign {
            topology: p.topology,
            spec: OpAmpSpec {
                gain: p.gain,
                ugf_hz: p.ugf_hz,
                area_max_m2: self.area_max_m2,
                ibias: self.ibias_a,
                zout_ohm: if p.topology.buffer {
                    self.zout_ohm
                } else {
                    None
                },
                cl: p.cl_f,
            },
        }
    }

    /// Runs the whole grid on `farm` and reduces it to a report with the
    /// Pareto front marked. Results are collected in point order, so the
    /// report (and its JSONL rendering) does not depend on how the jobs
    /// were scheduled.
    ///
    /// The calling thread waits on the last point's job first. Jobs start
    /// in submission order, so by the time it is done the others are done
    /// or nearly done, and the caller sleeps about once per plan instead of
    /// once per point. Memoized results stay in `farm`'s store (see
    /// [`FarmConfig::shared_graph`](crate::FarmConfig::shared_graph)), so
    /// run overlapping plans on one farm to reuse them.
    pub fn run(&self, farm: &Farm) -> SweepReport {
        let _span = ape_probe::span("ape.farm.sweep");
        let points = self.points();
        ape_probe::counter("ape.farm.sweep.points", points.len() as u64);
        let handles: Vec<_> = points
            .iter()
            .map(|p| farm.submit(self.request_for(p)))
            .collect();
        // Sleep on the last job; the point-order waits then rarely block.
        if let Some(last) = handles.last() {
            let _ = last.wait();
        }
        let mut records: Vec<SweepRecord> = points
            .iter()
            .zip(&handles)
            .map(|(p, h)| {
                let outcome = match h.wait() {
                    Ok(resp) => match resp.as_opamp() {
                        Some(amp) => Ok(SweepMetrics::from_design(p, amp)),
                        None => Err("unexpected response variant".to_string()),
                    },
                    Err(e) => Err(e.to_string()),
                };
                SweepRecord {
                    point: *p,
                    outcome,
                    pareto: false,
                }
            })
            .collect();
        mark_pareto(&mut records);
        SweepReport { records }
    }
}

/// One grid point of a [`SweepPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Position in row-major enumeration order.
    pub index: usize,
    /// Topology of this point.
    pub topology: OpAmpTopology,
    /// Required DC gain.
    pub gain: f64,
    /// Required unity-gain frequency, hertz.
    pub ugf_hz: f64,
    /// Load capacitance, farads.
    pub cl_f: f64,
}

impl SweepPoint {
    /// Compact topology label for reports (`simple`, `wilson`,
    /// `simple+buf`, …).
    pub fn topology_label(&self) -> String {
        let mut s = format!("{:?}", self.topology.current_source).to_lowercase();
        if self.topology.buffer {
            s.push_str("+buf");
        }
        if !self.topology.compensated {
            s.push_str("+uncomp");
        }
        s
    }
}

/// The estimator's answer at one grid point, reduced to the sweep's
/// objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepMetrics {
    /// Total gate area, square micrometres.
    pub area_um2: f64,
    /// Static power, milliwatts.
    pub power_mw: f64,
    /// Achieved DC gain magnitude.
    pub gain: f64,
    /// Fractional gain shortfall against the spec (0 when met or exceeded).
    pub gain_err_frac: f64,
    /// Achieved unity-gain frequency, hertz (0 when none).
    pub ugf_hz: f64,
}

impl SweepMetrics {
    fn from_design(p: &SweepPoint, amp: &ape_core::opamp::OpAmp) -> Self {
        let gain = amp.perf.dc_gain.map(f64::abs).unwrap_or(0.0);
        SweepMetrics {
            area_um2: amp.perf.gate_area_m2 * 1e12,
            power_mw: amp.perf.power_w * 1e3,
            gain,
            gain_err_frac: ((p.gain - gain) / p.gain).max(0.0),
            ugf_hz: amp.perf.ugf_hz.unwrap_or(0.0),
        }
    }
}

/// One row of a sweep report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// The grid point.
    pub point: SweepPoint,
    /// Metrics, or the failure rendered as a string.
    pub outcome: Result<SweepMetrics, String>,
    /// `true` when this point is on the area/power/gain-error Pareto
    /// front of the successful points.
    pub pareto: bool,
}

/// All records of a finished sweep, in point order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One record per grid point, index order.
    pub records: Vec<SweepRecord>,
}

/// `a` dominates `b` when it is no worse on every objective and strictly
/// better on at least one (all objectives minimised).
fn dominates(a: &SweepMetrics, b: &SweepMetrics) -> bool {
    let le =
        a.area_um2 <= b.area_um2 && a.power_mw <= b.power_mw && a.gain_err_frac <= b.gain_err_frac;
    let lt =
        a.area_um2 < b.area_um2 || a.power_mw < b.power_mw || a.gain_err_frac < b.gain_err_frac;
    le && lt
}

fn mark_pareto(records: &mut [SweepRecord]) {
    let oks: Vec<(usize, SweepMetrics)> = records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.outcome.as_ref().ok().map(|m| (i, *m)))
        .collect();
    for (i, m) in &oks {
        let dominated = oks.iter().any(|(j, other)| j != i && dominates(other, m));
        records[*i].pareto = !dominated;
    }
}

impl SweepReport {
    /// Successful records.
    pub fn successes(&self) -> impl Iterator<Item = &SweepRecord> {
        self.records.iter().filter(|r| r.outcome.is_ok())
    }

    /// Records on the Pareto front.
    pub fn pareto_front(&self) -> impl Iterator<Item = &SweepRecord> {
        self.records.iter().filter(|r| r.pareto)
    }

    /// Renders the report as JSON Lines, one record per grid point in
    /// index order, through the `ape-calib` codec: sorted keys and Rust's
    /// shortest round-trip floats, so equal runs produce byte-identical
    /// output.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let p = &r.point;
            let mut fields = vec![
                ("index", n(p.index as f64)),
                ("topology", s(&p.topology_label())),
                ("gain_spec", n(p.gain)),
                ("ugf_spec_hz", n(p.ugf_hz)),
                ("cl_f", n(p.cl_f)),
            ];
            match &r.outcome {
                Ok(m) => fields.extend([
                    ("area_um2", n(m.area_um2)),
                    ("power_mw", n(m.power_mw)),
                    ("gain", n(m.gain)),
                    ("gain_err_frac", n(m.gain_err_frac)),
                    ("ugf_hz", n(m.ugf_hz)),
                    ("pareto", Value::Bool(r.pareto)),
                ]),
                Err(e) => fields.push(("error", s(e))),
            }
            let record = Value::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            );
            out.push_str(&record.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_core::basic::MirrorTopology;

    fn metrics(area: f64, power: f64, err: f64) -> SweepMetrics {
        SweepMetrics {
            area_um2: area,
            power_mw: power,
            gain: 100.0,
            gain_err_frac: err,
            ugf_hz: 1e6,
        }
    }

    fn record(index: usize, m: Option<SweepMetrics>) -> SweepRecord {
        SweepRecord {
            point: SweepPoint {
                index,
                topology: OpAmpTopology::miller(MirrorTopology::Simple, false),
                gain: 100.0,
                ugf_hz: 1e6,
                cl_f: 1e-11,
            },
            outcome: m.ok_or_else(|| "failed".to_string()),
            pareto: false,
        }
    }

    #[test]
    fn grid_enumeration_is_row_major_and_complete() {
        let plan = SweepPlan::example();
        let pts = plan.points();
        assert_eq!(pts.len(), 144);
        assert_eq!(plan.len(), 144);
        assert!(pts.iter().enumerate().all(|(i, p)| p.index == i));
        // Load is the fastest-varying axis.
        assert_eq!(pts[0].cl_f, 5e-12);
        assert_eq!(pts[1].cl_f, 10e-12);
        assert_eq!(pts[0].gain, pts[1].gain);
    }

    #[test]
    fn pareto_marks_non_dominated_points_only() {
        let mut records = vec![
            record(0, Some(metrics(100.0, 1.0, 0.0))), // dominated by 2
            record(1, Some(metrics(50.0, 2.0, 0.0))),  // front (least area)
            record(2, Some(metrics(90.0, 0.5, 0.0))),  // front (least power)
            record(3, None),                           // failed: never on front
            record(4, Some(metrics(100.0, 1.0, 0.0))), // tie with 0: both dominated by 2
        ];
        mark_pareto(&mut records);
        let flags: Vec<bool> = records.iter().map(|r| r.pareto).collect();
        assert_eq!(flags, vec![false, true, true, false, false]);
    }

    #[test]
    fn jsonl_renders_one_parseable_line_per_record() {
        let mut records = vec![record(0, Some(metrics(100.0, 1.0, 0.25))), record(1, None)];
        mark_pareto(&mut records);
        let report = SweepReport { records };
        let text = report.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"area_um2\":100"));
        assert!(lines[0].contains("\"pareto\":true"));
        assert!(lines[1].contains("\"error\":\"failed\""));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn json_escaping_handles_quotes_and_control_chars() {
        let mut failed = record(0, None);
        failed.outcome = Err("a\"b\\c\nd\u{1}".to_string());
        let text = SweepReport {
            records: vec![failed],
        }
        .to_jsonl();
        assert!(text.contains(r#""error":"a\"b\\c\nd\u0001""#), "{text}");
        let line = ape_calib::json::parse(text.trim_end()).unwrap();
        assert_eq!(
            line.get("error").and_then(Value::as_str),
            Some("a\"b\\c\nd\u{1}")
        );
    }
}
