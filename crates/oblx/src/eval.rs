//! Fast candidate evaluation: DC operating point + AWE reduced model.
//!
//! ASTRX/OBLX evaluates each annealing move with AWE rather than a full
//! simulation (paper §3). The pipeline here is identical: nonlinear DC,
//! one linearisation, moment matching, and the performance questions are
//! answered on the reduced model.

use crate::template::{build_candidate, candidate_area};
use crate::vars::DesignPoint;
use ape_awe::{pade_reduce_auto, transfer_moments};
use ape_core::graph::{with_thread_graph, Component, EstimationGraph};
use ape_core::opamp::{OpAmpSpec, OpAmpTopology};
use ape_core::ApeError;
use ape_mos::fingerprint::Fingerprint;
use ape_netlist::{NodeId, Technology};
use ape_spice::linalg::Matrix;
use ape_spice::{
    dc_operating_point_from, dc_operating_point_with, linearize, Complex, DcOptions,
    LinearizedSystem,
};

/// How the annealing loop evaluates a candidate's frequency response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalFidelity {
    /// Padé (AWE) reduced model only — what ASTRX/OBLX used. Fast, but the
    /// model extrapolated decades past the dominant pole mispredicts the
    /// crossover, so "converged" designs can fail the audit: the Table 1
    /// phenomenon.
    #[default]
    AweOnly,
    /// Exact complex solves of the linearised system at the crossover.
    /// A dozen extra small LU solves per candidate; audits agree with the
    /// search. Used by the ablation study.
    Exact,
}

/// Everything the cost function needs to know about one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEval {
    /// Did the DC operating point converge?
    pub dc_ok: bool,
    /// Low-frequency differential gain magnitude.
    pub gain: f64,
    /// Unity-gain frequency, hertz (`None` when the gain never reaches 1 or
    /// the reduced model is unusable).
    pub ugf_hz: Option<f64>,
    /// Phase margin estimated on the AWE model, degrees (`None` without a
    /// usable UGF).
    pub pm_deg: Option<f64>,
    /// Gate area, square metres.
    pub area_m2: f64,
    /// Supply power, watts.
    pub power_w: f64,
}

/// Evaluates one candidate sizing.
///
/// Never returns an error: failures downgrade gracefully (a broken DC point
/// scores `dc_ok = false`, an AWE failure loses only the UGF figure), so
/// the annealer can keep moving through infeasible regions — the behaviour
/// OBLX gets from its relaxed-DC formulation.
pub fn evaluate_candidate(
    tech: &Technology,
    topology: OpAmpTopology,
    spec: &OpAmpSpec,
    point: &DesignPoint,
) -> CandidateEval {
    evaluate_candidate_with(tech, topology, spec, point, EvalFidelity::Exact)
}

/// The DC options of every candidate solve, the start point's included.
///
/// A tighter iteration budget than the default keeps the annealing loop
/// fast; marginal operating points count as failures, which is what a
/// cost function wants anyway.
pub fn candidate_dc_options() -> DcOptions {
    DcOptions {
        max_iter: 80,
        ..DcOptions::default()
    }
}

/// The node voltages of the candidate at `start`, solved as every
/// candidate is: the nodeset a synthesis run that starts at `start` hands
/// each candidate's DC solve. `None` when the template rejects the point
/// or its DC solve fails.
pub fn start_nodeset(
    tech: &Technology,
    topology: OpAmpTopology,
    spec: &OpAmpSpec,
    start: &DesignPoint,
) -> Option<Vec<(NodeId, f64)>> {
    let (ckt, _) = build_candidate(tech, topology, spec, start).ok()?;
    let op = dc_operating_point_with(&ckt, tech, candidate_dc_options()).ok()?;
    let nodes = (1..ckt.num_nodes()).map(|i| NodeId::new(i as u32));
    Some(nodes.map(|n| (n, op.voltage(n))).collect())
}

/// Graph node memoizing [`start_nodeset`], keyed by
/// `(topology, spec, start)`. A failing start memoizes its `None` like any
/// output, so it costs one solve per key, not one per candidate.
#[derive(Debug, Clone, Copy)]
struct StartOpNode<'a> {
    topology: OpAmpTopology,
    spec: &'a OpAmpSpec,
    start: &'a DesignPoint,
}

impl Component for StartOpNode<'_> {
    type Output = Option<Vec<(NodeId, f64)>>;

    fn kind(&self) -> &'static str {
        "oblx.start_op"
    }

    fn fingerprint(&self) -> u64 {
        let fp = self
            .spec
            .fold_fingerprint(self.topology.fold_fingerprint(Fingerprint::new()));
        fold_point(fp, self.start).finish()
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<Self::Output, ApeError> {
        Ok(start_nodeset(
            graph.technology(),
            self.topology,
            self.spec,
            self.start,
        ))
    }
}

fn fold_point(fp: Fingerprint, point: &DesignPoint) -> Fingerprint {
    let fp = fp.u64(point.values.len() as u64);
    point.values.iter().fold(fp, |fp, v| fp.f64(*v))
}

/// Graph node memoizing one candidate evaluation.
///
/// The annealing loop re-visits design points — a rejected move returns to
/// the previous point, and sweep neighbours share a candidate with their
/// origin — and [`CandidateEval`] is a pure function of
/// `(topology, spec, point, fidelity, start)`, so the shared estimation
/// graph can answer repeats without re-running the DC + AWE pipeline.
/// `start` is the synthesis run's start point, whose operating point (an
/// `oblx.start_op` child) seeds the candidate's DC solve; `None` solves
/// from the default guess.
#[derive(Debug, Clone, Copy)]
struct CandidateNode<'a> {
    topology: OpAmpTopology,
    spec: &'a OpAmpSpec,
    point: &'a DesignPoint,
    fidelity: EvalFidelity,
    start: Option<&'a DesignPoint>,
}

impl CandidateNode<'_> {
    /// Evaluates through the thread's estimation graph.
    fn evaluate(&self, tech: &Technology) -> CandidateEval {
        match self.fidelity {
            EvalFidelity::AweOnly => ape_probe::counter("oblx.cost_evals.awe", 1),
            EvalFidelity::Exact => ape_probe::counter("oblx.cost_evals.exact", 1),
        }
        with_thread_graph(tech, |g| g.evaluate(self)).unwrap_or_else(|_| {
            let nodeset = self
                .start
                .and_then(|start| start_nodeset(tech, self.topology, self.spec, start));
            self.run(tech, nodeset.as_deref().unwrap_or_default())
        })
    }

    fn run(&self, tech: &Technology, nodeset: &[(NodeId, f64)]) -> CandidateEval {
        evaluate_candidate_uncached(
            tech,
            self.topology,
            self.spec,
            self.point,
            self.fidelity,
            nodeset,
        )
    }
}

impl Component for CandidateNode<'_> {
    type Output = CandidateEval;

    fn kind(&self) -> &'static str {
        "oblx.candidate"
    }

    fn children(&self) -> &'static [&'static str] {
        &["oblx.start_op"]
    }

    fn fingerprint(&self) -> u64 {
        let fp = self
            .spec
            .fold_fingerprint(self.topology.fold_fingerprint(Fingerprint::new()))
            .u8(match self.fidelity {
                EvalFidelity::AweOnly => 0,
                EvalFidelity::Exact => 1,
            });
        let fp = fold_point(fp, self.point);
        match self.start {
            None => fp.u8(0),
            Some(start) => fold_point(fp.u8(1), start),
        }
        .finish()
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<CandidateEval, ApeError> {
        let nodeset = match self.start {
            Some(start) => graph.evaluate(&StartOpNode {
                topology: self.topology,
                spec: self.spec,
                start,
            })?,
            None => None,
        };
        Ok(self.run(graph.technology(), nodeset.as_deref().unwrap_or_default()))
    }
}

/// [`evaluate_candidate`] with an explicit evaluation fidelity.
///
/// The DC solve starts from the default guess (node voltages pinned by
/// sources, every other node at 0 V). Memoized on the thread's estimation
/// graph under the `oblx.candidate` kind; the memo key covers every input
/// of the answer: topology, spec, point and fidelity (and the technology
/// and calibration the graph folds into every key). The cost-eval counters
/// count *requests*, while memo effectiveness shows up in the
/// `ape.graph.oblx.candidate.*` counters.
pub fn evaluate_candidate_with(
    tech: &Technology,
    topology: OpAmpTopology,
    spec: &OpAmpSpec,
    point: &DesignPoint,
    fidelity: EvalFidelity,
) -> CandidateEval {
    CandidateNode {
        topology,
        spec,
        point,
        fidelity,
        start: None,
    }
    .evaluate(tech)
}

/// [`evaluate_candidate_with`] for a synthesis run that starts at `start`:
/// the DC solve's direct Newton stage starts from the start point's
/// operating point ([`start_nodeset`], memoized as an `oblx.start_op`
/// node), and the memo key adds `start` to the inputs. The answer is a
/// pure function of those inputs, never of the previous candidate.
pub(crate) fn evaluate_candidate_from(
    tech: &Technology,
    topology: OpAmpTopology,
    spec: &OpAmpSpec,
    point: &DesignPoint,
    fidelity: EvalFidelity,
    start: &DesignPoint,
) -> CandidateEval {
    CandidateNode {
        topology,
        spec,
        point,
        fidelity,
        start: Some(start),
    }
    .evaluate(tech)
}

/// The `oblx.candidate` node's compute body: runs on a memo miss, with the
/// DC solve's direct stage started from `nodeset` (empty for the default
/// guess).
fn evaluate_candidate_uncached(
    tech: &Technology,
    topology: OpAmpTopology,
    spec: &OpAmpSpec,
    point: &DesignPoint,
    fidelity: EvalFidelity,
    nodeset: &[(NodeId, f64)],
) -> CandidateEval {
    let area = candidate_area(tech, topology, spec, point);
    let mut eval = CandidateEval {
        dc_ok: false,
        gain: 0.0,
        ugf_hz: None,
        pm_deg: None,
        area_m2: area,
        power_w: 0.0,
    };
    let Ok((ckt, out)) = build_candidate(tech, topology, spec, point) else {
        return eval;
    };
    let Ok(op) = dc_operating_point_from(&ckt, tech, candidate_dc_options(), nodeset) else {
        return eval;
    };
    eval.dc_ok = true;
    eval.power_w = op.supply_power(&ckt);
    let Ok(sys) = linearize(&ckt, tech, &op) else {
        return eval;
    };
    // The DC gain is the zeroth moment (exact at DC); the order-3 AWE model
    // needs six, and one factorisation of G serves both. Should a later
    // moment go non-finite, m₀ alone still gives the gain and only the
    // model is lost.
    let moments = match fidelity {
        EvalFidelity::AweOnly => {
            transfer_moments(&sys, out, 6).or_else(|_| transfer_moments(&sys, out, 1))
        }
        EvalFidelity::Exact => transfer_moments(&sys, out, 1),
    };
    let Ok(m) = moments else {
        return eval;
    };
    eval.gain = m[0].abs();
    if eval.gain <= 1.0 {
        return eval;
    }
    match fidelity {
        EvalFidelity::AweOnly => {
            // Order-3 Padé model, as ASTRX/OBLX evaluated candidates; the
            // model's own phase is unwrapped analytically along a grid.
            if let Ok(model) = pade_reduce_auto(&m, 3) {
                eval.ugf_hz = model.unity_gain_hz();
                if let Some(fu) = eval.ugf_hz {
                    eval.pm_deg = Some(model_phase_margin(&model, fu));
                }
            }
        }
        EvalFidelity::Exact => {
            // UGF and phase margin from direct complex solves of the
            // linearised system at the crossover — a dozen small complex
            // LU solves per candidate.
            if let Some(row) = sys.node_row(out) {
                if let Some((fu, _)) = find_unity_crossing(&sys, row) {
                    eval.ugf_hz = Some(fu);
                    eval.pm_deg =
                        unwrapped_phase_at(&sys, row, fu).map(|ph| 180.0 + ph.to_degrees());
                }
            }
        }
    }
    eval
}

/// Unwrapped phase margin of a reduced model at its crossover (walking a
/// geometric grid keeps track of wraps the bare `arg()` cannot see).
fn model_phase_margin(model: &ape_awe::ReducedModel, fu: f64) -> f64 {
    let f_start = (fu / 1e5).max(10.0).min(fu);
    let steps = 24usize;
    let eval_at = |f: f64| {
        model
            .eval(Complex::new(0.0, 2.0 * std::f64::consts::PI * f))
            .arg()
    };
    let mut prev = eval_at(f_start);
    let mut offset = 0.0;
    for k in 1..=steps {
        let f = f_start * (fu / f_start).powf(k as f64 / steps as f64);
        let raw = eval_at(f);
        let mut ph = raw + offset;
        while ph - prev > std::f64::consts::PI {
            offset -= 2.0 * std::f64::consts::PI;
            ph = raw + offset;
        }
        while ph - prev < -std::f64::consts::PI {
            offset += 2.0 * std::f64::consts::PI;
            ph = raw + offset;
        }
        prev = ph;
    }
    180.0 + prev.to_degrees()
}

/// Phase at `f_target`, unwrapped by walking a geometric grid up from the
/// flat low-frequency region — `arg()` alone cannot see wraps past ±180°.
fn unwrapped_phase_at(sys: &LinearizedSystem, row: usize, f_target: f64) -> Option<f64> {
    let f_start = (f_target / 1e5).max(10.0).min(f_target);
    let steps = 6 * ((f_target / f_start).log10().ceil() as usize).max(1);
    let mut prev = solve_at(sys, row, f_start)?.arg();
    let mut offset = 0.0;
    for k in 1..=steps {
        let f = f_start * (f_target / f_start).powf(k as f64 / steps as f64);
        let raw = solve_at(sys, row, f)?.arg();
        let mut ph = raw + offset;
        while ph - prev > std::f64::consts::PI {
            offset -= 2.0 * std::f64::consts::PI;
            ph = raw + offset;
        }
        while ph - prev < -std::f64::consts::PI {
            offset += 2.0 * std::f64::consts::PI;
            ph = raw + offset;
        }
        prev = ph;
    }
    Some(prev)
}

/// Solves `(G + jωC)x = b` at one frequency and returns the output phasor.
fn solve_at(sys: &LinearizedSystem, row: usize, f: f64) -> Option<Complex> {
    let w = 2.0 * std::f64::consts::PI * f;
    let n = sys.g.dim();
    let mut m = Matrix::<Complex>::zeros(n);
    for r in 0..n {
        for c in 0..n {
            let re = sys.g[(r, c)];
            let im = w * sys.c[(r, c)];
            if re != 0.0 || im != 0.0 {
                m[(r, c)] = Complex::new(re, im);
            }
        }
    }
    let mut x: Vec<Complex> = sys.b.iter().map(|&v| Complex::real(v)).collect();
    m.solve_in_place(&mut x)?;
    Some(x[row])
}

/// Log-bisection for the first `|H| = 1` crossing between 1 kHz and 10 GHz.
fn find_unity_crossing(sys: &LinearizedSystem, row: usize) -> Option<(f64, Complex)> {
    let mut lo = 1e3;
    let mut h_lo = solve_at(sys, row, lo)?;
    if h_lo.norm() < 1.0 {
        return Some((lo, h_lo));
    }
    let mut hi = lo;
    loop {
        hi *= 10.0;
        if hi > 1e10 {
            return None;
        }
        let h = solve_at(sys, row, hi)?;
        if h.norm() < 1.0 {
            break;
        }
        lo = hi;
        h_lo = h;
    }
    let _ = h_lo;
    for _ in 0..24 {
        let mid = (lo * hi).sqrt();
        let h = solve_at(sys, row, mid)?;
        if h.norm() < 1.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let fu = (lo * hi).sqrt();
    let h = solve_at(sys, row, fu)?;
    Some((fu, h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::{blind_center, design_point_from_ape};
    use ape_core::basic::MirrorTopology;
    use ape_core::opamp::{OpAmp, OpAmpTopology};

    fn topo() -> OpAmpTopology {
        OpAmpTopology::miller(MirrorTopology::Simple, false)
    }

    fn spec() -> OpAmpSpec {
        OpAmpSpec {
            gain: 200.0,
            ugf_hz: 5e6,
            area_max_m2: 5000e-12,
            ibias: 10e-6,
            zout_ohm: None,
            cl: 10e-12,
        }
    }

    #[test]
    fn ape_point_evaluates_close_to_spec() {
        let tech = Technology::default_1p2um();
        let amp = OpAmp::design(&tech, topo(), spec()).unwrap();
        let point = design_point_from_ape(&tech, &amp);
        let e = evaluate_candidate(&tech, topo(), &spec(), &point);
        assert!(e.dc_ok);
        assert!(e.gain > 100.0, "awe gain {}", e.gain);
        let ugf = e.ugf_hz.expect("gain > 1 must yield a UGF");
        assert!(
            (ugf - 5e6).abs() / 5e6 < 0.6,
            "awe ugf {ugf} vs 5 MHz target"
        );
        let pm = e.pm_deg.expect("ugf implies a phase margin");
        assert!(pm > 30.0, "APE designs are compensated, pm = {pm}");
        assert!(e.power_w > 0.0);
    }

    #[test]
    fn fidelities_agree_on_well_behaved_designs() {
        // On a compensated design the order-3 Padé crossover matches the
        // exact complex-solve crossover — the reason Table 1's blind engine
        // is stronger than 1999's (see EXPERIMENTS.md).
        let tech = Technology::default_1p2um();
        let amp = OpAmp::design(&tech, topo(), spec()).unwrap();
        let p = design_point_from_ape(&tech, &amp);
        let awe = evaluate_candidate_with(&tech, topo(), &spec(), &p, EvalFidelity::AweOnly);
        let exact = evaluate_candidate_with(&tech, topo(), &spec(), &p, EvalFidelity::Exact);
        let (fa, fe) = (awe.ugf_hz.unwrap(), exact.ugf_hz.unwrap());
        assert!((fa - fe).abs() / fe < 0.05, "ugf awe {fa} vs exact {fe}");
        let (pa, pe) = (awe.pm_deg.unwrap(), exact.pm_deg.unwrap());
        assert!((pa - pe).abs() < 10.0, "pm awe {pa} vs exact {pe}");
    }

    #[test]
    fn blind_center_evaluates_without_panic() {
        let tech = Technology::default_1p2um();
        let p = blind_center(topo()).unwrap();
        let e = evaluate_candidate(&tech, topo(), &spec(), &p);
        // Whatever the numbers, the evaluation must complete and the area
        // formula must fire.
        assert!(e.area_m2 > 0.0);
    }

    #[test]
    fn degenerate_point_downgrades_gracefully() {
        let tech = Technology::default_1p2um();
        // All minimum geometry: almost certainly a broken bias point, but
        // never a panic.
        let defs = crate::vars::variables(topo());
        let p = DesignPoint {
            values: defs.iter().map(|d| d.lo).collect(),
        };
        let e = evaluate_candidate(&tech, topo(), &spec(), &p);
        assert!(e.area_m2 > 0.0);
        let _ = e.dc_ok; // may be either; the point is no-panic
    }
}
