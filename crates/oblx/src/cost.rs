//! The scalar cost function the annealer minimises.
//!
//! ASTRX/OBLX "generates a cost function from the objectives,
//! specifications, constraints and Kirchhoff Laws" (paper §3). Here the
//! Kirchhoff part is the DC-convergence penalty; specifications enter as
//! quadratic relative-shortfall penalties; area and power act as weak
//! objectives so that, among feasible designs, smaller wins.

use crate::eval::CandidateEval;
use ape_core::opamp::OpAmpSpec;

/// Penalty/objective weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the gain-shortfall penalty.
    pub gain: f64,
    /// Weight of the UGF-shortfall penalty.
    pub ugf: f64,
    /// Weight of the area-excess penalty.
    pub area: f64,
    /// Weight of the phase-margin-shortfall penalty (target 45°).
    pub pm: f64,
    /// Weight of the area objective (always on, drives minimisation).
    pub area_objective: f64,
    /// Weight of the power objective.
    pub power_objective: f64,
    /// Flat cost of a non-convergent DC point.
    pub dc_failure: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            gain: 30.0,
            ugf: 30.0,
            area: 10.0,
            pm: 20.0,
            area_objective: 0.05,
            power_objective: 0.02,
            dc_failure: 1e4,
        }
    }
}

/// The cost at or below which a synthesis run stops: every engine gets it
/// through `Problem::with_target`.
///
/// [`cost`] squashes the objective terms into `[0, TARGET_COST)`, so a
/// design with zero penalties always reaches the target. A design that
/// reaches it pays less than `TARGET_COST` in penalties, which under the
/// default [`CostWeights`] and as judged by the candidate evaluator (AWE)
/// means:
///
/// * gain and UGF at most 3.7 % short of spec (`30·s² < 0.04`);
/// * area at most 6.3 % over budget (`10·e² < 0.04`);
/// * phase margin above 43° (`20·((45° − pm)/45°)² < 0.04`).
///
/// That is stricter than the audit's default 25 % slack and its 30° floor
/// ([`satisfies`]), so a run that reached the target meets spec up to the
/// error between AWE and the audit's full simulation.
pub const TARGET_COST: f64 = 0.04;

/// Scalar cost of a candidate evaluation against `spec`. Lower is better.
///
/// The penalty terms charge every spec shortfall quadratically. The two
/// objective terms, area and power, sum to `o` and add
/// `TARGET_COST · o / (1 + o)`: a fully feasible design scores only that
/// squashed objective, which stays below [`TARGET_COST`] whatever the spec
/// or technology, and among feasible designs the smaller `o` still wins.
///
/// `vdd` is the technology supply voltage: the power objective is
/// normalised by the nominal budget `vdd · ibias · 50` — fifty bias-leg
/// currents at the rail, roughly what the two-stage template draws when
/// its output stage is sized for the load — so a typical design
/// contributes an objective of order one (before squashing) regardless of
/// how the spec scales its bias current or which technology is in play.
pub fn cost(eval: &CandidateEval, spec: &OpAmpSpec, vdd: f64, w: &CostWeights) -> f64 {
    if !eval.dc_ok {
        return w.dc_failure;
    }
    let mut c = 0.0;
    // Gain specification (>=).
    let gain_short = ((spec.gain - eval.gain) / spec.gain).max(0.0);
    c += w.gain * gain_short * gain_short;
    // UGF specification (>=). A response that never reaches unity counts
    // as a full shortfall.
    let ugf_meas = eval.ugf_hz.unwrap_or(0.0);
    let ugf_short = ((spec.ugf_hz - ugf_meas) / spec.ugf_hz).max(0.0);
    c += w.ugf * ugf_short * ugf_short;
    // Phase-margin specification (>= 45°); a missing PM (no UGF) already
    // pays the full UGF shortfall, so charge only half here.
    let pm = eval.pm_deg.unwrap_or(-180.0);
    let pm_short = ((45.0 - pm) / 45.0).clamp(0.0, 4.0);
    c += w.pm * pm_short * pm_short * if eval.pm_deg.is_some() { 1.0 } else { 0.5 };
    // Area constraint (<=).
    let area_excess = (eval.area_m2 / spec.area_max_m2 - 1.0).max(0.0);
    c += w.area * area_excess * area_excess;
    let o = objective(eval, spec, vdd, w);
    c + TARGET_COST * o / (1.0 + o)
}

/// The area and power objective terms of [`cost`], before squashing.
fn objective(eval: &CandidateEval, spec: &OpAmpSpec, vdd: f64, w: &CostWeights) -> f64 {
    let mut o = w.area_objective * eval.area_m2 / spec.area_max_m2;
    let p_norm = (vdd * spec.ibias * 50.0).abs().max(1e-12);
    o += w.power_objective * eval.power_w / p_norm;
    o
}

/// `true` when the evaluation satisfies every hard specification with
/// fractional slack `tol`.
///
/// Note the deliberate phase-margin asymmetry with [`cost`]: the cost
/// function *targets* 45° (penalising anything below it so the search
/// designs in stability headroom), while this predicate — and the final
/// audit — *accept* anything ≥ 30°, the classic bare-minimum stability
/// floor. The gap is audit slack: a run never stops early on a design at,
/// say, 38° (it pays `20·(7/45)² ≈ 0.48`, twelve times [`TARGET_COST`]),
/// but if the budget runs out there, that design still ships.
pub fn satisfies(eval: &CandidateEval, spec: &OpAmpSpec, tol: f64) -> bool {
    eval.dc_ok
        && eval.gain >= spec.gain * (1.0 - tol)
        && eval.ugf_hz.unwrap_or(0.0) >= spec.ugf_hz * (1.0 - tol)
        && eval.area_m2 <= spec.area_max_m2 * (1.0 + tol)
        && eval.pm_deg.unwrap_or(-180.0) >= 30.0
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn feasible() -> CandidateEval {
        CandidateEval {
            dc_ok: true,
            gain: 250.0,
            ugf_hz: Some(6e6),
            pm_deg: Some(60.0),
            area_m2: 3000e-12,
            power_w: 0.5e-3,
        }
    }

    #[test]
    fn feasible_costs_little() {
        let c = cost(&feasible(), &spec(), 5.0, &CostWeights::default());
        assert!(c < 0.5, "feasible cost {c}");
        assert!(satisfies(&feasible(), &spec(), 0.0));
    }

    #[test]
    fn dc_failure_dominates() {
        let mut e = feasible();
        e.dc_ok = false;
        assert!(cost(&e, &spec(), 5.0, &CostWeights::default()) > 1e3);
    }

    #[test]
    fn shortfalls_raise_cost_monotonically() {
        let w = CostWeights::default();
        let s = spec();
        let mut worse = feasible();
        let base = cost(&worse, &s, 5.0, &w);
        worse.gain = 100.0;
        let c1 = cost(&worse, &s, 5.0, &w);
        worse.gain = 20.0;
        let c2 = cost(&worse, &s, 5.0, &w);
        assert!(base < c1 && c1 < c2);
        assert!(!satisfies(&worse, &s, 0.1));
    }

    #[test]
    fn poor_phase_margin_penalised() {
        let w = CostWeights::default();
        let s = spec();
        let mut e = feasible();
        e.pm_deg = Some(-20.0);
        assert!(cost(&e, &s, 5.0, &w) > 1.0);
        assert!(!satisfies(&e, &s, 0.1));
    }

    #[test]
    fn missing_ugf_counts_as_full_shortfall() {
        let w = CostWeights::default();
        let s = spec();
        let mut e = feasible();
        e.ugf_hz = None;
        let c = cost(&e, &s, 5.0, &w);
        assert!(c > w.ugf * 0.9, "cost {c}");
    }

    #[test]
    fn smaller_feasible_design_wins() {
        let w = CostWeights::default();
        let s = spec();
        let big = feasible();
        let mut small = feasible();
        small.area_m2 = 1000e-12;
        small.power_w = 0.2e-3;
        assert!(cost(&small, &s, 5.0, &w) < cost(&big, &s, 5.0, &w));
        // The ordering is supply-independent: the power budget rescales
        // with vdd, not the ranking of designs under one spec.
        assert!(cost(&small, &s, 3.3, &w) < cost(&big, &s, 3.3, &w));
    }

    /// The target is reachable whatever the spec's bias or the supply: a
    /// design with zero penalties costs less than `TARGET_COST`, even at
    /// its area budget and drawing ten times its power budget: 2.5 mW on
    /// a 1 µA spec at 5 V, for one.
    #[test]
    fn zero_penalty_designs_cost_less_than_the_target() {
        let w = CostWeights::default();
        for vdd in [1.0, 3.3, 5.0] {
            for ibias in [1e-6, 10e-6, 100e-6] {
                for budgets in [0.0, 1.0, 10.0] {
                    let mut s = spec();
                    s.ibias = ibias;
                    let mut e = feasible();
                    e.area_m2 = s.area_max_m2;
                    e.power_w = budgets * vdd * ibias * 50.0;
                    let c = cost(&e, &s, vdd, &w);
                    assert!(
                        c < TARGET_COST,
                        "{vdd} V, {ibias} A, {budgets}x power: cost {c}"
                    );
                }
            }
        }
        // A degenerate supply leaves the cost finite and under the target.
        let c = cost(&feasible(), &spec(), 0.0, &w);
        assert!(c.is_finite() && c < TARGET_COST, "cost {c}");
    }

    /// Each miss just past the margins `TARGET_COST` documents costs at
    /// least the target on its own, so a run cannot stop on it.
    #[test]
    fn spec_misses_past_the_documented_margins_miss_the_target() {
        type Miss = fn(&mut CandidateEval, &OpAmpSpec);
        let misses: [(&str, Miss); 4] = [
            ("gain 4 % short", |e, s| e.gain = 0.96 * s.gain),
            ("UGF 4 % short", |e, s| e.ugf_hz = Some(0.96 * s.ugf_hz)),
            ("area 7 % over", |e, s| e.area_m2 = 1.07 * s.area_max_m2),
            ("PM 42°", |e, _| e.pm_deg = Some(42.0)),
        ];
        let w = CostWeights::default();
        let s = spec();
        for (what, miss) in misses {
            let mut e = feasible();
            miss(&mut e, &s);
            let c = cost(&e, &s, 5.0, &w);
            assert!(c >= TARGET_COST, "{what}: cost {c}");
        }
    }

    /// Before squashing, the objective keeps its budget normalisation: the
    /// power term scales as 1/`vdd` and 1/`ibias`.
    #[test]
    fn objective_scales_inversely_with_supply_and_bias() {
        let w = CostWeights {
            area_objective: 0.0,
            power_objective: 1.0,
            ..CostWeights::default()
        };
        let e = feasible();
        let s = spec();
        // At 5 V and 10 µA the budget is 5.0 · 10e-6 · 50 = 2.5 mW.
        let base = objective(&e, &s, 5.0, &w);
        assert!((base - e.power_w / 2.5e-3).abs() < 1e-12, "got {base}");
        // Halving the supply halves the budget and doubles the term; a
        // richer bias spec relaxes it proportionally.
        assert!((objective(&e, &s, 2.5, &w) - 2.0 * base).abs() < 1e-12);
        let mut rich = s;
        rich.ibias = 20e-6;
        assert!((objective(&e, &rich, 5.0, &w) - base / 2.0).abs() < 1e-12);
        // A degenerate supply cannot divide by zero.
        assert!(objective(&e, &s, 0.0, &w).is_finite());
    }
}
