//! The synthesis driver: a portfolio of search engines over the design
//! variables, simulated annealing (the ASTRX/OBLX default) among them.

use crate::audit::{audit_candidate, AuditFailure, AuditReport};
use crate::cost::{cost, CostWeights, TARGET_COST};
use crate::error::OblxError;
use crate::eval::{evaluate_candidate_from, EvalFidelity};
use crate::vars::{blind_center, blind_ranges, seeded_ranges, DesignPoint};
use ape_core::graph::{thread_calibration, with_graph_fp, EstimationGraph, SharedMemo};
use ape_core::opamp::{OpAmpSpec, OpAmpTopology};
use ape_netlist::Technology;
use ape_solve::{
    Budget, CancelAware, CmaEs, NewtonPolish, ParticleSwarm, Problem, SaSolver, Solver,
    VectorRanges,
};
use std::sync::Arc;
use std::time::Instant;

/// Where the search starts and how wide the intervals are.
#[derive(Debug, Clone, PartialEq)]
pub enum InitialPoint {
    /// No prior knowledge: decade-wide intervals, start at their centre
    /// (the Table 1 stand-alone mode).
    Blind,
    /// APE-seeded start: intervals ±`interval_frac` around `point`
    /// (the Table 4 mode; the paper uses 0.2).
    ApeSeeded {
        /// The estimator's sizing.
        point: DesignPoint,
        /// Fractional interval half-width.
        interval_frac: f64,
    },
}

/// Which search engine sizes the template.
///
/// Every choice runs the same cost function through the `ape-solve`
/// [`Solver`] trait. The default, [`SolverChoice::Sa`], is
/// [`SaSolver`], the simulated annealer the paper's ASTRX/OBLX system
/// uses; its trajectories are bit-exact with the pre-portfolio versions
/// of this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverChoice {
    /// Simulated annealing (the ASTRX/OBLX engine). The default.
    #[default]
    Sa,
    /// CMA-ES over the log-space interval box.
    CmaEs,
    /// Particle swarm over the log-space interval box.
    ParticleSwarm,
    /// Derivative-free Newton-style coordinate polish — strongest when
    /// APE-seeded, where the start is already near the optimum.
    NewtonPolish,
    /// Race all of the above on the shared executor; first engine to reach
    /// a feasible design wins and the others stop cooperatively.
    Portfolio,
}

/// Options for a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisOptions {
    /// Cost-evaluation budget (each evaluation is a DC solve + AWE).
    pub max_evals: usize,
    /// Moves per annealing temperature.
    pub moves_per_temp: usize,
    /// RNG seed.
    pub seed: u64,
    /// Cost weights.
    pub weights: CostWeights,
    /// Audit slack (fraction).
    pub audit_tol: f64,
    /// Candidate-evaluation fidelity. Defaults to [`EvalFidelity::AweOnly`],
    /// matching ASTRX/OBLX's AWE-based evaluation.
    pub fidelity: EvalFidelity,
    /// Search engine. Defaults to [`SolverChoice::Sa`].
    pub solver: SolverChoice,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            max_evals: 4000,
            moves_per_temp: 40,
            seed: 1999,
            weights: CostWeights::default(),
            audit_tol: 0.25,
            fidelity: EvalFidelity::default(),
            solver: SolverChoice::default(),
        }
    }
}

/// Outcome of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// Best sizing found.
    pub best: DesignPoint,
    /// Its annealing cost.
    pub cost: f64,
    /// Cost evaluations spent.
    pub evals: usize,
    /// Full-simulation audit of the best point. `Err` carries *why* the
    /// audit produced no report (e.g. the DC point never converged — the
    /// "doesn't work" case); a report with violations is still `Ok`.
    pub audit: Result<AuditReport, AuditFailure>,
    /// Wall-clock time of the whole run including the audit.
    pub wall: std::time::Duration,
}

impl SynthesisOutcome {
    /// `true` when the audited design meets every specification.
    pub fn meets_spec(&self) -> bool {
        matches!(&self.audit, Ok(r) if r.meets_spec())
    }
}

/// One portfolio member's contribution to a [`PortfolioOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemberSummary {
    /// The member solver's name (`"sa"`, `"cma-es"`, `"pso"`, `"newton"`).
    pub name: &'static str,
    /// Best cost that member reached before the race was decided.
    pub best_cost: f64,
    /// Evaluations that member spent.
    pub evals: usize,
    /// Did that member reach a feasible design?
    pub satisfied: bool,
}

/// Outcome of [`synthesize_portfolio`]: the winning design plus the race
/// telemetry.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The winning member's synthesis outcome. Its `evals` field counts
    /// the *total* across all members — that is what the run paid.
    pub outcome: SynthesisOutcome,
    /// Name of the winning member.
    pub winner: &'static str,
    /// Per-member telemetry, in portfolio order.
    pub members: Vec<MemberSummary>,
}

/// Spec validation plus interval/start construction, shared by every
/// solver path.
fn prepare(
    topology: OpAmpTopology,
    spec: &OpAmpSpec,
    init: &InitialPoint,
) -> Result<(VectorRanges, Vec<f64>), OblxError> {
    // Every field participates in the cost function as a divisor or scale,
    // so infinities are as poisonous as NaN: an inf gain makes the gain
    // shortfall NaN and the annealer chases noise forever.
    if !(spec.gain.is_finite()
        && spec.gain > 1.0
        && spec.ugf_hz.is_finite()
        && spec.ugf_hz > 0.0
        && spec.cl.is_finite()
        && spec.cl > 0.0
        && spec.ibias.is_finite()
        && spec.ibias > 0.0
        && spec.area_max_m2.is_finite()
        && spec.area_max_m2 > 0.0
        && spec.zout_ohm.is_none_or(|z| z.is_finite() && z > 0.0))
    {
        return Err(OblxError::BadSpec(format!(
            "gain {}, ugf {}, cl {}, ibias {}, area_max {}, zout {:?}",
            spec.gain, spec.ugf_hz, spec.cl, spec.ibias, spec.area_max_m2, spec.zout_ohm
        )));
    }
    match init {
        InitialPoint::Blind => Ok((blind_ranges(topology)?, blind_center(topology)?.to_log())),
        InitialPoint::ApeSeeded {
            point,
            interval_frac,
        } => {
            let r = seeded_ranges(topology, point, *interval_frac)?;
            let clamped = r.clamp(point.to_log());
            Ok((r, clamped))
        }
    }
}

/// The annealing cost of a log-space candidate, evaluated in the graph it
/// is handed: a DC solve plus AWE at `opts.fidelity`, graded against
/// `spec`. Every engine minimises this. Each DC solve starts from the
/// operating point of the run's `start`, so the cost is a pure function
/// of the run's inputs and the candidate.
fn candidate_cost<'a>(
    topology: OpAmpTopology,
    spec: &'a OpAmpSpec,
    opts: &'a SynthesisOptions,
    start: &'a DesignPoint,
) -> impl Fn(&EstimationGraph, &[f64]) -> f64 + Sync + 'a {
    move |g: &EstimationGraph, s: &[f64]| {
        let p = DesignPoint::from_log(s);
        let e = evaluate_candidate_from(g, topology, spec, &p, opts.fidelity, start);
        cost(&e, spec, g.technology().vdd, &opts.weights)
    }
}

fn budget(opts: &SynthesisOptions) -> Budget {
    Budget {
        max_evals: opts.max_evals,
        seed: opts.seed,
    }
}

/// Audits `best` and folds the result into the outcome's audit field:
/// cancellation propagates as an error, any other audit breakdown is
/// recorded with its reason.
fn run_audit(
    tech: &Technology,
    topology: OpAmpTopology,
    spec: &OpAmpSpec,
    best: &DesignPoint,
    tol: f64,
) -> Result<Result<AuditReport, AuditFailure>, OblxError> {
    match audit_candidate(tech, topology, spec, best, tol) {
        Ok(report) => Ok(Ok(report)),
        Err(OblxError::Cancelled) => Err(OblxError::Cancelled),
        Err(e) => Ok(Err(AuditFailure {
            reason: e.to_string(),
        })),
    }
}

/// Runs the optimisation-based sizing of the two-stage template against
/// `spec`, in the style of ASTRX/OBLX. The engine is chosen by
/// [`SynthesisOptions::solver`]; the default annealer reproduces the
/// original ASTRX/OBLX behaviour bit-exactly.
///
/// # Errors
///
/// * [`OblxError::BadSpec`] for malformed specs; everything downstream
///   degrades gracefully into the outcome's audit field.
/// * [`OblxError::Cancelled`] when the thread-current
///   [`CancelToken`](ape_core::cancel::CancelToken) fires: the search
///   stops at its next cooperative poll and the run is abandoned before
///   (or during) the audit simulation.
pub fn synthesize(
    tech: &Technology,
    topology: OpAmpTopology,
    spec: &OpAmpSpec,
    init: &InitialPoint,
    opts: &SynthesisOptions,
) -> Result<SynthesisOutcome, OblxError> {
    let _span = ape_probe::span("oblx.synthesize");
    let solver: Box<dyn Solver> = match opts.solver {
        SolverChoice::Sa => Box::new(SaSolver {
            moves_per_temp: opts.moves_per_temp,
        }),
        SolverChoice::CmaEs => Box::new(CmaEs::default()),
        SolverChoice::ParticleSwarm => Box::new(ParticleSwarm::default()),
        SolverChoice::NewtonPolish => Box::new(NewtonPolish::default()),
        SolverChoice::Portfolio => {
            return synthesize_portfolio(tech, topology, spec, init, opts).map(|p| p.outcome)
        }
    };
    let t0 = Instant::now();
    let (ranges, start) = prepare(topology, spec, init)?;
    let start_point = DesignPoint::from_log(&start);
    // The cost runs in the evaluating thread's own store-less graph, under
    // the caller's calibration table. The card is hashed and the table read
    // once per run, not once per candidate.
    let (tech_fp, calib) = (tech.fingerprint(), thread_calibration());
    let eval = candidate_cost(topology, spec, opts, &start_point);
    let cost_fn = |s: &[f64]| with_graph_fp(tech, tech_fp, calib.as_ref(), None, |g| eval(g, s));
    let problem = Problem::new(&ranges, &cost_fn)
        .with_target(TARGET_COST)
        .with_start(start);
    let r = solver.solve(&problem, &budget(opts), &mut CancelAware);
    if ape_core::cancel::current_cancelled() {
        return Err(OblxError::Cancelled);
    }
    let best = DesignPoint::from_log(&r.best);
    let audit = run_audit(tech, topology, spec, &best, opts.audit_tol)?;
    Ok(SynthesisOutcome {
        best,
        cost: r.best_cost,
        evals: r.evals,
        audit,
        wall: t0.elapsed(),
    })
}

/// Races the standard solver portfolio (annealing, CMA-ES, particle
/// swarm, Newton polish) on the shared executor: every member gets the
/// full evaluation budget and a decorrelated seed, the first member to
/// reach a feasible design trips a shared flag, and the others stop at
/// their next cooperative poll. Candidate evaluations funnel through one
/// shared memo, so members re-visiting each other's design points pay
/// nothing.
///
/// The returned outcome's `evals` counts the total across all members.
///
/// # Errors
///
/// Same as [`synthesize`]; cancellation via the thread-current token stops
/// all members cooperatively.
pub fn synthesize_portfolio(
    tech: &Technology,
    topology: OpAmpTopology,
    spec: &OpAmpSpec,
    init: &InitialPoint,
    opts: &SynthesisOptions,
) -> Result<PortfolioOutcome, OblxError> {
    let _span = ape_probe::span("oblx.synthesize_portfolio");
    let t0 = Instant::now();
    let (ranges, start) = prepare(topology, spec, init)?;
    let start_point = DesignPoint::from_log(&start);
    // Members run on executor workers and inline on this thread; each cost
    // call evaluates in its thread's graph over the race's store (with the
    // caller's calibration table), so the members share one memo. The card
    // is hashed once per run.
    let (tech_fp, calib) = (tech.fingerprint(), thread_calibration());
    let race_store = Arc::new(SharedMemo::new());
    let eval = candidate_cost(topology, spec, opts, &start_point);
    let cost_fn = |s: &[f64]| {
        with_graph_fp(tech, tech_fp, calib.as_ref(), Some(&race_store), |g| {
            eval(g, s)
        })
    };
    let problem = Problem::new(&ranges, &cost_fn)
        .with_target(TARGET_COST)
        .with_start(start);
    let race = ape_solve::Portfolio::standard().race(
        &problem,
        &budget(opts),
        ape_exec::Executor::global(),
    );
    if ape_core::cancel::current_cancelled() {
        return Err(OblxError::Cancelled);
    }
    let total_evals = race.total_evals();
    let members = race
        .members
        .iter()
        .map(|m| MemberSummary {
            name: m.name,
            best_cost: m.result.best_cost,
            evals: m.result.evals,
            satisfied: m.result.satisfied,
        })
        .collect();
    let winner = race
        .members
        .get(race.winner)
        .map(|m| m.name)
        .unwrap_or("none");
    let best = DesignPoint::from_log(&race.best.best);
    let audit = run_audit(tech, topology, spec, &best, opts.audit_tol)?;
    Ok(PortfolioOutcome {
        outcome: SynthesisOutcome {
            best,
            cost: race.best.best_cost,
            evals: total_evals,
            audit,
            wall: t0.elapsed(),
        },
        winner,
        members,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::design_point_from_ape;
    use ape_anneal::{anneal_with_observer, AnnealOptions, Schedule};
    use ape_core::basic::MirrorTopology;
    use ape_core::graph::with_thread_graph;
    use ape_core::opamp::OpAmp;

    fn topo() -> OpAmpTopology {
        OpAmpTopology::miller(MirrorTopology::Simple, false)
    }

    fn spec() -> OpAmpSpec {
        OpAmpSpec {
            gain: 150.0,
            ugf_hz: 3e6,
            area_max_m2: 6000e-12,
            ibias: 10e-6,
            zout_ohm: None,
            cl: 10e-12,
        }
    }

    #[test]
    fn seeded_synthesis_meets_spec_quickly() {
        let tech = Technology::default_1p2um();
        let amp = OpAmp::design(&tech, topo(), spec()).unwrap();
        let init = InitialPoint::ApeSeeded {
            point: design_point_from_ape(&tech, &amp),
            interval_frac: 0.2,
        };
        let opts = SynthesisOptions {
            max_evals: 250,
            moves_per_temp: 20,
            seed: 7,
            ..SynthesisOptions::default()
        };
        let out = synthesize(&tech, topo(), &spec(), &init, &opts).unwrap();
        assert!(
            out.meets_spec(),
            "audit: {:?}",
            out.audit.map(|a| a.violations)
        );
        assert!(out.evals <= 250);
    }

    #[test]
    fn blind_synthesis_cannot_beat_infeasible_area() {
        // The audit must catch violations the annealer cannot fix: a
        // 200 µm² budget at 10 MHz into 10 pF exceeds what any sizing of
        // this template achieves in this technology (M6 alone needs more).
        let tech = Technology::default_1p2um();
        let hard = OpAmpSpec {
            gain: 50.0,
            ugf_hz: 10e6,
            area_max_m2: 150e-12,
            ibias: 10e-6,
            zout_ohm: None,
            cl: 10e-12,
        };
        let opts = SynthesisOptions {
            max_evals: 80,
            moves_per_temp: 10,
            seed: 3,
            ..SynthesisOptions::default()
        };
        let out = synthesize(&tech, topo(), &hard, &InitialPoint::Blind, &opts).unwrap();
        assert!(!out.meets_spec());
    }

    #[test]
    fn pre_cancelled_token_aborts_synthesis() {
        let tech = Technology::default_1p2um();
        let token = ape_core::cancel::CancelToken::new();
        token.cancel();
        let _guard = ape_core::cancel::set_current(token);
        let r = synthesize(
            &tech,
            topo(),
            &spec(),
            &InitialPoint::Blind,
            &SynthesisOptions {
                max_evals: 100,
                moves_per_temp: 10,
                ..SynthesisOptions::default()
            },
        );
        assert_eq!(r.unwrap_err(), OblxError::Cancelled);
    }

    #[test]
    fn pre_cancelled_token_aborts_every_solver_choice() {
        let tech = Technology::default_1p2um();
        for solver in [
            SolverChoice::CmaEs,
            SolverChoice::ParticleSwarm,
            SolverChoice::NewtonPolish,
            SolverChoice::Portfolio,
        ] {
            let token = ape_core::cancel::CancelToken::new();
            token.cancel();
            let _guard = ape_core::cancel::set_current(token);
            let r = synthesize(
                &tech,
                topo(),
                &spec(),
                &InitialPoint::Blind,
                &SynthesisOptions {
                    max_evals: 60,
                    moves_per_temp: 10,
                    solver,
                    ..SynthesisOptions::default()
                },
            );
            assert_eq!(r.unwrap_err(), OblxError::Cancelled, "solver {solver:?}");
        }
    }

    #[test]
    fn bad_spec_rejected() {
        let tech = Technology::default_1p2um();
        let mut s = spec();
        s.gain = 0.5;
        let r = synthesize(
            &tech,
            topo(),
            &s,
            &InitialPoint::Blind,
            &SynthesisOptions::default(),
        );
        assert!(r.is_err());
    }

    /// The `SolverChoice::Sa` path must reproduce the pre-portfolio
    /// annealing loop bit-exactly: same schedule scaling, same RNG
    /// stream, same accounting. This pins the refactor.
    #[test]
    fn default_solver_is_bit_exact_with_the_legacy_anneal_loop() {
        let tech = Technology::default_1p2um();
        let opts = SynthesisOptions {
            max_evals: 120,
            moves_per_temp: 10,
            seed: 23,
            ..SynthesisOptions::default()
        };
        let out = synthesize(&tech, topo(), &spec(), &InitialPoint::Blind, &opts).unwrap();

        // Hand-rolled copy of the original synthesize() search body. It
        // prices candidates through the run's own seeded cost: the test
        // pins the schedule, RNG stream and accounting, not the evaluator.
        let (ranges, start) = prepare(topo(), &spec(), &InitialPoint::Blind).unwrap();
        let spec_c = spec();
        let start_point = DesignPoint::from_log(&start);
        let eval = candidate_cost(topo(), &spec_c, &opts, &start_point);
        let seeded_cost = |s: &[f64]| with_thread_graph(&tech, |g| eval(g, s));
        let initial_cost = seeded_cost(&start);
        let anneal_opts = AnnealOptions {
            schedule: Schedule::Geometric {
                t0: (initial_cost / 3.0).clamp(0.5, 1e3),
                alpha: 0.9,
                moves_per_temp: opts.moves_per_temp,
                t_min: 1e-6,
            },
            max_evals: opts.max_evals,
            seed: opts.seed,
            target_cost: TARGET_COST,
        };
        let reference = anneal_with_observer(
            start,
            |s: &Vec<f64>| seeded_cost(s),
            |s, t, rng| ranges.neighbor(s, t, rng),
            &anneal_opts,
            &mut (),
        );
        assert_eq!(
            out.best.values,
            DesignPoint::from_log(&reference.best_state).values
        );
        assert_eq!(out.cost, reference.best_cost);
        assert_eq!(out.evals, reference.evals);
    }

    #[test]
    fn seeded_portfolio_meets_spec_and_reports_members() {
        let tech = Technology::default_1p2um();
        let amp = OpAmp::design(&tech, topo(), spec()).unwrap();
        let init = InitialPoint::ApeSeeded {
            point: design_point_from_ape(&tech, &amp),
            interval_frac: 0.2,
        };
        let opts = SynthesisOptions {
            max_evals: 200,
            moves_per_temp: 20,
            seed: 7,
            solver: SolverChoice::Portfolio,
            ..SynthesisOptions::default()
        };
        let p = synthesize_portfolio(&tech, topo(), &spec(), &init, &opts).unwrap();
        assert_eq!(p.members.len(), 4);
        assert!(
            p.members.iter().any(|m| m.name == p.winner),
            "winner {} not among members",
            p.winner
        );
        assert!(
            p.outcome.evals >= p.members.iter().map(|m| m.evals).max().unwrap_or(0),
            "total evals must cover every member"
        );
        assert!(p.outcome.meets_spec(), "audit: {:?}", p.outcome.audit);
    }

    #[test]
    fn alternative_solvers_produce_usable_outcomes_when_seeded() {
        let tech = Technology::default_1p2um();
        let amp = OpAmp::design(&tech, topo(), spec()).unwrap();
        let init = InitialPoint::ApeSeeded {
            point: design_point_from_ape(&tech, &amp),
            interval_frac: 0.2,
        };
        for solver in [
            SolverChoice::CmaEs,
            SolverChoice::ParticleSwarm,
            SolverChoice::NewtonPolish,
        ] {
            let opts = SynthesisOptions {
                max_evals: 150,
                moves_per_temp: 20,
                seed: 7,
                solver,
                ..SynthesisOptions::default()
            };
            let out = synthesize(&tech, topo(), &spec(), &init, &opts).unwrap();
            assert!(out.evals <= 150, "{solver:?} overspent: {}", out.evals);
            assert!(
                out.cost.is_finite(),
                "{solver:?} returned non-finite cost {}",
                out.cost
            );
        }
    }
}
