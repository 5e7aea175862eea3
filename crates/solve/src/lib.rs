//! An optimizer portfolio behind a common [`Solver`] trait.
//!
//! ROADMAP item 2: the synthesis engine should not be welded to simulated
//! annealing. FUBOCO-style structure synthesis and self-calibrating sizing
//! frameworks both assume a *portfolio* substrate — several global/local
//! optimizers racing over the same APE-narrowed intervals, first to
//! satisfy wins. This crate provides that substrate, generic over any
//! scalar cost function on a box:
//!
//! * [`Problem`] — a cost closure over a [`VectorRanges`] box, plus an
//!   optional cost target: a run stops once its best cost is at or below
//!   it;
//! * [`Solver`] — `solve(problem, budget, observer) -> SolveResult`,
//!   implemented by four engines: [`SaSolver`] (the ASTRX/OBLX annealer
//!   on the `ape-anneal` kernel, `ape-oblx`'s default engine), [`CmaEs`],
//!   [`ParticleSwarm`], and [`NewtonPolish`] (derivative-free coordinate
//!   line-search with finite-difference curvature);
//! * [`Portfolio`] — races solver instances as tasks on the shared
//!   [`ape_exec::Executor`]; the first member whose best cost meets the
//!   target raises a shared stop flag and the losers stop cooperatively at
//!   their next observer poll.
//!
//! Every engine is seeded-deterministic on [`Rng64`]: the same
//! [`Budget::seed`] gives bit-identical [`SolveResult`]s at any worker
//! count, because parallel population evaluation only farms out the pure
//! cost calls and records them in input order. Cancellation rides the
//! same plumbing as the rest of the workspace: observers are polled at
//! every generation/plateau boundary, and [`Portfolio::race`] members
//! additionally observe the submitting thread's
//! [`CancelToken`](ape_core::cancel::CancelToken).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cma;
mod newton;
mod portfolio;
mod pso;
mod sa;

pub use cma::CmaEs;
pub use newton::NewtonPolish;
pub use portfolio::{MemberRun, Portfolio, RaceResult, NEWTON_POLISH_BUDGET_FRAC};
pub use pso::ParticleSwarm;
pub use sa::SaSolver;

pub use ape_anneal::{Rng64, VectorRanges};

/// A box-constrained minimisation problem: a scalar cost over
/// [`VectorRanges`], with an optional cost target as its one early-exit
/// setting.
///
/// Non-finite costs are graded as `f64::INFINITY` (and counted on the
/// `solve.non_finite_cost` probe) so hostile landscapes cannot poison a
/// solver's bookkeeping.
pub struct Problem<'a> {
    cost: &'a (dyn Fn(&[f64]) -> f64 + Sync),
    ranges: &'a VectorRanges,
    target: f64,
    start: Option<Vec<f64>>,
}

impl<'a> Problem<'a> {
    /// A problem over `ranges` minimising `cost`, with no cost target.
    pub fn new(ranges: &'a VectorRanges, cost: &'a (dyn Fn(&[f64]) -> f64 + Sync)) -> Self {
        Problem {
            cost,
            ranges,
            target: f64::NEG_INFINITY,
            start: None,
        }
    }

    /// Sets the cost target: once a solver's best cost is at or below
    /// `target`, the run stops and [`SolveResult::satisfied`] is set.
    pub fn with_target(mut self, target: f64) -> Self {
        self.target = target;
        self
    }

    /// Overrides the starting state (clamped into the box); the default
    /// start is the box center.
    pub fn with_start(mut self, start: Vec<f64>) -> Self {
        self.start = Some(self.ranges.clamp(start));
        self
    }

    /// The box constraints.
    pub fn ranges(&self) -> &VectorRanges {
        self.ranges
    }

    /// Number of design variables.
    pub fn dim(&self) -> usize {
        self.ranges.len()
    }

    /// The starting state: the explicit start if one was given, otherwise
    /// the box center.
    pub fn start(&self) -> Vec<f64> {
        self.start.clone().unwrap_or_else(|| self.ranges.center())
    }

    /// Evaluates the cost at `x`, grading non-finite values as
    /// `f64::INFINITY`.
    pub fn cost(&self, x: &[f64]) -> f64 {
        sanitize_cost((self.cost)(x))
    }

    /// Evaluates the raw (unsanitised) cost at `x` — the parallel batch
    /// path computes raw costs on workers and sanitises on record.
    fn raw_cost(&self, x: &[f64]) -> f64 {
        (self.cost)(x)
    }

    /// The cost target (`f64::NEG_INFINITY` when none was set).
    pub fn target(&self) -> f64 {
        self.target
    }

    /// `true` when `cost` meets the cost target.
    pub fn satisfied(&self, cost: f64) -> bool {
        cost <= self.target
    }
}

fn sanitize_cost(c: f64) -> f64 {
    if c.is_finite() {
        c
    } else {
        ape_probe::counter("solve.non_finite_cost", 1);
        f64::INFINITY
    }
}

/// Evaluation budget and seed for one [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Hard ceiling on cost evaluations; solvers never exceed it.
    pub max_evals: usize,
    /// RNG seed — same seed, same trajectory.
    pub seed: u64,
}

impl Budget {
    /// A budget of `max_evals` evaluations with the default seed.
    pub fn evals(max_evals: usize) -> Self {
        Budget {
            max_evals,
            seed: 0x0A9E_5EED,
        }
    }

    /// Same budget, different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Progress snapshot handed to [`SolveObserver::on_progress`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Cost evaluations spent so far.
    pub evals: usize,
    /// Best cost seen so far (`f64::INFINITY` before the first eval).
    pub best_cost: f64,
}

/// Hook polled by every solver at generation/plateau boundaries — the
/// cooperative-cancellation surface, mirroring
/// [`ape_anneal::Observer::should_stop`].
pub trait SolveObserver {
    /// Called with a progress snapshot at every generation boundary.
    fn on_progress(&mut self, _progress: &Progress) {}

    /// Polled at every generation boundary; returning `true` stops the
    /// solver early (its best state so far is still returned, with
    /// [`SolveResult::stopped`] set).
    fn should_stop(&mut self) -> bool {
        false
    }
}

/// The no-op observer.
impl SolveObserver for () {}

/// An observer that stops when the thread-current
/// [`CancelToken`](ape_core::cancel::CancelToken) fires.
#[derive(Debug, Default)]
pub struct CancelAware;

impl SolveObserver for CancelAware {
    fn should_stop(&mut self) -> bool {
        ape_core::cancel::current_cancelled()
    }
}

/// Outcome of one [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// Best state visited (always inside the box).
    pub best: Vec<f64>,
    /// Cost of the best state (`f64::INFINITY` when the budget allowed no
    /// evaluation at all).
    pub best_cost: f64,
    /// Cost evaluations performed — never exceeds [`Budget::max_evals`].
    pub evals: usize,
    /// `true` when the best cost met the problem's cost target.
    pub satisfied: bool,
    /// `true` when the observer stopped the run before the budget or the
    /// target did.
    pub stopped: bool,
    /// `(evaluation index, best cost so far)` trace of improvements.
    pub history: Vec<(usize, f64)>,
}

/// A derivative-free optimizer over a [`Problem`].
///
/// Implementations are deterministic per [`Budget::seed`], respect
/// [`Budget::max_evals`] as a hard ceiling, poll the observer at every
/// generation boundary, and always return a state inside the box.
pub trait Solver: Send + Sync {
    /// Short stable name (bench/report key).
    fn name(&self) -> &'static str;

    /// Minimises `problem` under `budget`, polling `observer` for
    /// cooperative cancellation.
    fn solve(
        &self,
        problem: &Problem<'_>,
        budget: &Budget,
        observer: &mut dyn SolveObserver,
    ) -> SolveResult;
}

/// Shared bookkeeping for the population solvers: counts evaluations
/// against the budget, tracks the incumbent, records the improvement
/// history, and latches `satisfied`/`stopped`.
pub(crate) struct Run<'p, 'a, 'o> {
    problem: &'p Problem<'a>,
    observer: &'o mut dyn SolveObserver,
    max_evals: usize,
    best: Vec<f64>,
    best_cost: f64,
    evals: usize,
    satisfied: bool,
    stopped: bool,
    history: Vec<(usize, f64)>,
}

impl<'p, 'a, 'o> Run<'p, 'a, 'o> {
    pub(crate) fn new(
        problem: &'p Problem<'a>,
        budget: &Budget,
        observer: &'o mut dyn SolveObserver,
    ) -> Self {
        Run {
            problem,
            observer,
            max_evals: budget.max_evals,
            best: problem.start(),
            best_cost: f64::INFINITY,
            evals: 0,
            satisfied: false,
            stopped: false,
            history: Vec::new(),
        }
    }

    /// Evaluations still available.
    pub(crate) fn remaining(&self) -> usize {
        self.max_evals.saturating_sub(self.evals)
    }

    /// `true` once the run must end: budget spent, target met, or
    /// observer stop.
    pub(crate) fn halted(&self) -> bool {
        self.evals >= self.max_evals || self.satisfied || self.stopped
    }

    /// Records a raw cost for `x`, returning the sanitised value.
    pub(crate) fn record(&mut self, x: &[f64], raw: f64) -> f64 {
        let c = sanitize_cost(raw);
        self.evals += 1;
        if c < self.best_cost {
            self.best_cost = c;
            self.best = x.to_vec();
            self.history.push((self.evals, c));
        }
        if !self.satisfied && self.problem.satisfied(self.best_cost) {
            self.satisfied = true;
        }
        c
    }

    /// Evaluates `x` if budget remains; `None` once the run has halted.
    pub(crate) fn eval(&mut self, x: &[f64]) -> Option<f64> {
        if self.halted() {
            return None;
        }
        let raw = self.problem.raw_cost(x);
        Some(self.record(x, raw))
    }

    /// Reports progress and polls the observer; returns [`Run::halted`].
    pub(crate) fn poll(&mut self) -> bool {
        self.observer.on_progress(&Progress {
            evals: self.evals,
            best_cost: self.best_cost,
        });
        if !self.stopped && self.observer.should_stop() {
            self.stopped = true;
        }
        self.halted()
    }

    pub(crate) fn finish(self) -> SolveResult {
        SolveResult {
            best: self.best,
            best_cost: self.best_cost,
            evals: self.evals,
            satisfied: self.satisfied,
            stopped: self.stopped,
            history: self.history,
        }
    }
}

/// Evaluates a generation of candidate points, truncated to the remaining
/// budget, and records the costs **in input order** — so the result (and
/// every downstream ranking) is bit-identical whether the raw costs were
/// computed sequentially or fanned out on `exec` (an `Executor::new(0)`
/// pool runs the fan-out inline in input order).
///
/// The fan-out mirrors `ape_core::graph::evaluate_many`: each task
/// carries the submitting thread's cancellation token; which graph a cost
/// evaluates in is the cost closure's own business (the `oblx` portfolio
/// closure names its race's store on whichever worker runs it).
pub(crate) fn eval_generation(
    run: &mut Run<'_, '_, '_>,
    points: &[Vec<f64>],
    exec: Option<&ape_exec::Executor>,
) -> Vec<f64> {
    let k = points.len().min(run.remaining());
    let points = &points[..k];
    match exec {
        Some(e) if k > 1 => {
            let problem = run.problem;
            let token = ape_core::cancel::current();
            let mut raw = vec![0.0f64; k];
            e.scope(|s| {
                for (x, slot) in points.iter().zip(raw.iter_mut()) {
                    let token = token.clone();
                    s.spawn(move || {
                        let _guard = token.map(ape_core::cancel::set_current);
                        *slot = problem.raw_cost(x);
                    });
                }
            });
            points
                .iter()
                .zip(raw)
                .map(|(x, c)| run.record(x, c))
                .collect()
        }
        // Same semantics as the parallel arm: a generation is atomic, so a
        // target met mid-batch does not shorten it — otherwise
        // sequential and parallel runs would diverge in eval counts.
        _ => points
            .iter()
            .map(|x| {
                let raw = run.problem.raw_cost(x);
                run.record(x, raw)
            })
            .collect(),
    }
}

/// Affine map between the box and normalized coordinates `z ∈ [0, 1]ⁿ`.
/// The population solvers work in `z`-space so wildly different per-axis
/// spans (log-ohms next to log-farads) do not skew their geometry;
/// degenerate axes (`lo == hi`) pin to `z = 0`.
pub(crate) struct BoxMap {
    lo: Vec<f64>,
    span: Vec<f64>,
}

impl BoxMap {
    pub(crate) fn new(ranges: &VectorRanges) -> Self {
        let lo = ranges.lower().to_vec();
        let span = ranges
            .lower()
            .iter()
            .zip(ranges.upper())
            .map(|(l, h)| h - l)
            .collect();
        BoxMap { lo, span }
    }

    pub(crate) fn to_x(&self, z: &[f64]) -> Vec<f64> {
        z.iter()
            .zip(self.lo.iter().zip(&self.span))
            .map(|(zi, (l, s))| l + zi.clamp(0.0, 1.0) * s)
            .collect()
    }

    pub(crate) fn to_z(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(self.lo.iter().zip(&self.span))
            .map(|(xi, (l, s))| {
                if *s > 0.0 {
                    ((xi - l) / s).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// `true` when axis `i` has zero span (nothing to move).
    pub(crate) fn degenerate(&self, i: usize) -> bool {
        self.span[i] <= 0.0
    }
}

/// One standard normal deviate (Box–Muller on the SplitMix64 stream).
pub(crate) fn normal(rng: &mut Rng64) -> f64 {
    let u1 = rng.f64().max(1e-300);
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere() -> impl Fn(&[f64]) -> f64 + Sync {
        |x: &[f64]| x.iter().map(|v| v * v).sum()
    }

    #[test]
    fn problem_is_sync_and_sanitises() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Problem<'_>>();
        let ranges = VectorRanges::new(vec![(-1.0, 1.0)]).unwrap();
        let nan = |_: &[f64]| f64::NAN;
        let p = Problem::new(&ranges, &nan);
        assert_eq!(p.cost(&[0.0]), f64::INFINITY);
    }

    #[test]
    fn run_respects_budget_exactly() {
        let ranges = VectorRanges::new(vec![(-1.0, 1.0); 2]).unwrap();
        let cost = sphere();
        let p = Problem::new(&ranges, &cost);
        let mut obs = ();
        let mut run = Run::new(&p, &Budget::evals(3), &mut obs);
        for _ in 0..10 {
            let _ = run.eval(&[0.5, 0.5]);
        }
        let r = run.finish();
        assert_eq!(r.evals, 3);
    }

    #[test]
    fn zero_budget_returns_start_unevaluated() {
        let ranges = VectorRanges::new(vec![(2.0, 4.0)]).unwrap();
        let cost = sphere();
        let p = Problem::new(&ranges, &cost);
        let mut obs = ();
        let mut run = Run::new(&p, &Budget::evals(0), &mut obs);
        assert!(run.eval(&[3.0]).is_none());
        let r = run.finish();
        assert_eq!(r.evals, 0);
        assert_eq!(r.best, vec![3.0]);
        assert_eq!(r.best_cost, f64::INFINITY);
    }

    #[test]
    fn eval_generation_matches_sequential_on_executor() {
        let ranges = VectorRanges::new(vec![(-2.0, 2.0); 3]).unwrap();
        let cost = sphere();
        let points: Vec<Vec<f64>> = (0..12)
            .map(|k| vec![k as f64 * 0.1 - 0.6, 0.3, -0.2])
            .collect();
        let run_with = |exec: Option<&ape_exec::Executor>| {
            // A target the sphere never reaches.
            let p = Problem::new(&ranges, &cost).with_target(-1.0);
            let mut obs = ();
            let mut run = Run::new(&p, &Budget::evals(100), &mut obs);
            let costs = eval_generation(&mut run, &points, exec);
            (costs, run.finish())
        };
        let exec = ape_exec::Executor::new(3);
        let (cs, rs) = run_with(None);
        let (cp, rp) = run_with(Some(&exec));
        assert_eq!(cs, cp);
        assert_eq!(rs, rp);
        assert_eq!(rs.evals, 12);
    }

    #[test]
    fn box_map_round_trips_and_pins_degenerate_axes() {
        let ranges = VectorRanges::new(vec![(0.0, 10.0), (5.0, 5.0)]).unwrap();
        let map = BoxMap::new(&ranges);
        assert!(!map.degenerate(0));
        assert!(map.degenerate(1));
        let x = map.to_x(&[0.25, 0.9]);
        assert_eq!(x, vec![2.5, 5.0]);
        assert_eq!(map.to_z(&x), vec![0.25, 0.0]);
    }
}
