//! Race a portfolio of solvers; first to satisfy wins, losers cancel.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::{Budget, CmaEs, NewtonPolish, ParticleSwarm, Problem, SaSolver, SolveResult, Solver};
use crate::{Progress, SolveObserver};

/// One member's contribution to a [`RaceResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemberRun {
    /// The member solver's [`Solver::name`].
    pub name: &'static str,
    /// That member's full result, including how far it got before the
    /// race was decided.
    pub result: SolveResult,
}

/// Outcome of [`Portfolio::race`].
#[derive(Debug, Clone, PartialEq)]
pub struct RaceResult {
    /// Index into `members` of the winning run.
    pub winner: usize,
    /// The winning member's result (a copy of `members[winner].result`).
    pub best: SolveResult,
    /// Every member's run, in portfolio order.
    pub members: Vec<MemberRun>,
}

impl RaceResult {
    /// Total evaluations spent across all members.
    pub fn total_evals(&self) -> usize {
        self.members.iter().map(|m| m.result.evals).sum()
    }
}

/// Observer given to each racing member: it stops when the shared race
/// flag trips (another member satisfied the problem) or when the ambient
/// [`ape_core::cancel`] token fires.
struct RaceObserver<'f> {
    stop: &'f AtomicBool,
}

impl SolveObserver for RaceObserver<'_> {
    fn on_progress(&mut self, _p: &Progress) {}

    fn should_stop(&mut self) -> bool {
        self.stop.load(Ordering::Acquire) || ape_core::cancel::current_cancelled()
    }
}

/// One portfolio member: a solver plus its share of the race budget.
struct Member {
    solver: Box<dyn Solver>,
    /// Fraction of the race's `max_evals` this member may spend, in
    /// `(0, 1]`. Local polishers converge (or stall) in far fewer
    /// evaluations than the global searchers, so giving them the full
    /// budget only wastes executor slots on a stalled walk.
    evals_frac: f64,
}

/// A set of [`Solver`]s raced concurrently on an [`ape_exec::Executor`].
///
/// Each member receives its own slice of the evaluation budget
/// (`ceil(max_evals · evals_frac)`, at least 1) and a decorrelated seed
/// (`budget.seed + i·golden`), so the race is deterministic per member:
/// a member's trajectory depends only on the problem, its budget, and
/// *when* the shared stop flag trips — never on worker scheduling of its
/// own evaluations.
pub struct Portfolio {
    members: Vec<Member>,
}

/// Budget share [`Portfolio::standard`] hands [`NewtonPolish`]: the local
/// polish either converges quickly or stalls, so it races on a quarter of
/// the evaluations the global searchers get.
pub const NEWTON_POLISH_BUDGET_FRAC: f64 = 0.25;

impl Portfolio {
    /// Builds a portfolio from explicit members, each receiving the full
    /// race budget. Empty portfolios are allowed but [`Portfolio::race`]
    /// on one returns a vacuous result.
    pub fn new(members: Vec<Box<dyn Solver>>) -> Self {
        Portfolio::weighted(members.into_iter().map(|s| (s, 1.0)).collect())
    }

    /// Builds a portfolio with an explicit budget fraction per member.
    /// Fractions are clamped to `(0, 1]`; each member's budget is
    /// `ceil(max_evals · frac)` with a floor of one evaluation.
    pub fn weighted(members: Vec<(Box<dyn Solver>, f64)>) -> Self {
        Portfolio {
            members: members
                .into_iter()
                .map(|(solver, f)| Member {
                    solver,
                    evals_frac: if f.is_finite() && f > 0.0 {
                        f.min(1.0)
                    } else {
                        1.0
                    },
                })
                .collect(),
        }
    }

    /// The standard four-member portfolio: annealing, CMA-ES and particle
    /// swarm (their generations fanned out on the executor) on the full
    /// budget, and the Newton polish as a fast local racer on
    /// [`NEWTON_POLISH_BUDGET_FRAC`] of it.
    pub fn standard() -> Self {
        Portfolio::weighted(vec![
            (Box::new(SaSolver::default()), 1.0),
            (
                Box::new(CmaEs {
                    parallel: true,
                    ..CmaEs::default()
                }),
                1.0,
            ),
            (
                Box::new(ParticleSwarm {
                    parallel: true,
                    ..ParticleSwarm::default()
                }),
                1.0,
            ),
            (Box::new(NewtonPolish::default()), NEWTON_POLISH_BUDGET_FRAC),
        ])
    }

    /// Number of member solvers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the portfolio has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Races every member on `exec`. The first member to meet the
    /// problem's cost target trips a shared flag that the others observe on
    /// their next [`SolveObserver::should_stop`] poll; the ambient
    /// [`ape_core::cancel`] token (captured at the call site and
    /// re-installed in each task) cancels the whole race the same way.
    ///
    /// The winner is the satisfied member with the lowest
    /// `(best_cost, index)`; if nobody satisfied, the lowest-cost member.
    pub fn race(
        &self,
        problem: &Problem<'_>,
        budget: &Budget,
        exec: &ape_exec::Executor,
    ) -> RaceResult {
        let _span = ape_probe::span("solve.portfolio");
        if self.members.is_empty() {
            return RaceResult {
                winner: 0,
                best: SolveResult {
                    best: problem.start(),
                    best_cost: f64::INFINITY,
                    evals: 0,
                    satisfied: false,
                    stopped: false,
                    history: Vec::new(),
                },
                members: Vec::new(),
            };
        }
        let stop = AtomicBool::new(false);
        let token = ape_core::cancel::current();
        let mut slots: Vec<Option<SolveResult>> = Vec::new();
        slots.resize_with(self.members.len(), || None);
        exec.scope(|s| {
            for (i, (member, slot)) in self.members.iter().zip(slots.iter_mut()).enumerate() {
                let seed = budget
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
                let max_evals =
                    (((budget.max_evals as f64) * member.evals_frac).ceil() as usize).max(1);
                let member_budget = Budget { max_evals, seed };
                let stop = &stop;
                let token = token.clone();
                s.spawn(move || {
                    let _cancel_guard = token.map(ape_core::cancel::set_current);
                    let mut obs = RaceObserver { stop };
                    let r = member.solver.solve(problem, &member_budget, &mut obs);
                    if r.satisfied {
                        stop.store(true, Ordering::Release);
                    }
                    *slot = Some(r);
                });
            }
        });
        let members: Vec<MemberRun> = self
            .members
            .iter()
            .zip(slots)
            .map(|(m, slot)| MemberRun {
                name: m.solver.name(),
                // The scope barrier guarantees every task ran to completion.
                result: slot.unwrap_or(SolveResult {
                    best: problem.start(),
                    best_cost: f64::INFINITY,
                    evals: 0,
                    satisfied: false,
                    stopped: false,
                    history: Vec::new(),
                }),
            })
            .collect();
        let winner = members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.result.satisfied)
            .min_by(|(ai, a), (bi, b)| {
                a.result
                    .best_cost
                    .partial_cmp(&b.result.best_cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ai.cmp(bi))
            })
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                members
                    .iter()
                    .enumerate()
                    .min_by(|(ai, a), (bi, b)| {
                        a.result
                            .best_cost
                            .partial_cmp(&b.result.best_cost)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(ai.cmp(bi))
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            });
        let best = members[winner].result.clone();
        RaceResult {
            winner,
            best,
            members,
        }
    }
}

impl std::fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Portfolio")
            .field(
                "members",
                &self
                    .members
                    .iter()
                    .map(|m| m.solver.name())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Run, VectorRanges};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn standard_portfolio_finds_the_sphere_minimum() {
        let ranges = VectorRanges::new(vec![(-3.0, 3.0); 3]).unwrap();
        let cost = |x: &[f64]| x.iter().map(|v| (v - 0.7) * (v - 0.7)).sum::<f64>();
        let p = Problem::new(&ranges, &cost).with_target(1e-3);
        let exec = ape_exec::Executor::new(2);
        let r = Portfolio::standard().race(&p, &Budget::evals(20_000).with_seed(7), &exec);
        assert!(r.best.satisfied, "winner: {:?}", r.best);
        assert_eq!(r.members.len(), 4);
        assert_eq!(r.best, r.members[r.winner].result);
    }

    /// A solver that satisfies the problem on its very first evaluation.
    struct InstantWinner;
    impl Solver for InstantWinner {
        fn name(&self) -> &'static str {
            "instant"
        }
        fn solve(
            &self,
            problem: &Problem<'_>,
            budget: &Budget,
            observer: &mut dyn SolveObserver,
        ) -> SolveResult {
            let mut run = Run::new(problem, budget, observer);
            let _ = run.eval(&problem.start());
            run.finish()
        }
    }

    /// A solver that never improves: it just keeps polling its observer
    /// and burning evaluations until told to stop.
    struct StubbornLoser(&'static AtomicUsize);
    impl Solver for StubbornLoser {
        fn name(&self) -> &'static str {
            "stubborn"
        }
        fn solve(
            &self,
            problem: &Problem<'_>,
            budget: &Budget,
            observer: &mut dyn SolveObserver,
        ) -> SolveResult {
            let mut run = Run::new(problem, budget, observer);
            let worst = problem.ranges().upper().to_vec();
            while !run.poll() {
                if run.eval(&worst).is_none() {
                    break;
                }
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            run.finish()
        }
    }

    #[test]
    fn losers_observe_cancellation_when_the_winner_satisfies() {
        static LOSER_EVALS: AtomicUsize = AtomicUsize::new(0);
        LOSER_EVALS.store(0, Ordering::Relaxed);
        let ranges = VectorRanges::new(vec![(0.0, 10.0); 2]).unwrap();
        let cost = |x: &[f64]| x.iter().sum::<f64>();
        // The center (5,5) meets the target instantly.
        let p = Problem::new(&ranges, &cost).with_target(11.0);
        // Winner first so the help-drain order reaches it at any worker
        // count; the loser's budget alone would take far longer than the
        // race actually runs.
        let portfolio = Portfolio::new(vec![
            Box::new(InstantWinner),
            Box::new(StubbornLoser(&LOSER_EVALS)),
        ]);
        let exec = ape_exec::Executor::new(2);
        let r = portfolio.race(&p, &Budget::evals(100_000_000), &exec);
        assert_eq!(r.winner, 0);
        assert!(r.best.satisfied);
        let loser = &r.members[1].result;
        assert!(loser.stopped || loser.satisfied, "loser never stopped");
        // The loser bailed long before its budget: it observed the flag.
        assert!(
            loser.evals < 100_000_000,
            "loser burned its whole budget ({})",
            loser.evals
        );
        assert_eq!(loser.evals, LOSER_EVALS.load(Ordering::Relaxed));
    }

    #[test]
    fn ambient_cancel_token_stops_the_whole_race() {
        let token = ape_core::cancel::CancelToken::new();
        token.cancel();
        let _guard = ape_core::cancel::set_current(token);
        static EVALS: AtomicUsize = AtomicUsize::new(0);
        EVALS.store(0, Ordering::Relaxed);
        let ranges = VectorRanges::new(vec![(0.0, 1.0)]).unwrap();
        let cost = |x: &[f64]| x[0];
        let p = Problem::new(&ranges, &cost);
        let portfolio = Portfolio::new(vec![Box::new(StubbornLoser(&EVALS))]);
        let exec = ape_exec::Executor::new(1);
        let r = portfolio.race(&p, &Budget::evals(1_000_000), &exec);
        assert!(r.members[0].result.stopped, "member ignored the token");
        assert!(r.members[0].result.evals < 1_000_000);
    }

    #[test]
    fn race_is_deterministic_per_member_across_worker_counts() {
        // With no cost target the stop flag never trips, so every
        // member runs its full budget — results must be bit-identical
        // whether the race runs inline (0 workers) or on 3 workers.
        let ranges = VectorRanges::new(vec![(-2.0, 2.0); 2]).unwrap();
        let cost = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let p = Problem::new(&ranges, &cost);
        let budget = Budget::evals(600).with_seed(42);
        let run = |workers: usize| {
            let exec = ape_exec::Executor::new(workers);
            Portfolio::standard().race(&p, &budget, &exec)
        };
        let a = run(0);
        let b = run(3);
        assert_eq!(a.winner, b.winner);
        for (ma, mb) in a.members.iter().zip(&b.members) {
            assert_eq!(ma.name, mb.name);
            assert_eq!(ma.result, mb.result, "member {} diverged", ma.name);
        }
    }

    #[test]
    fn newton_polish_races_on_a_quarter_budget() {
        // No cost target, so nothing trips the stop flag and each
        // member runs against its own ceiling. The polish member must be
        // capped at ceil(frac·max_evals) while the global searchers keep
        // the full allowance.
        let ranges = VectorRanges::new(vec![(-2.0, 2.0); 2]).unwrap();
        let cost = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let p = Problem::new(&ranges, &cost);
        let max_evals = 800;
        let exec = ape_exec::Executor::new(2);
        let r = Portfolio::standard().race(&p, &Budget::evals(max_evals).with_seed(11), &exec);
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let cap = ((max_evals as f64) * NEWTON_POLISH_BUDGET_FRAC).ceil() as usize;
        let polish = r
            .members
            .iter()
            .find(|m| m.name == NewtonPolish::default().name())
            .expect("standard portfolio includes the polish");
        assert!(
            polish.result.evals <= cap,
            "polish spent {} evals, cap is {cap}",
            polish.result.evals
        );
        for m in &r.members {
            assert!(m.result.evals <= max_evals, "{} over budget", m.name);
        }
    }

    #[test]
    fn weighted_budgets_keep_members_deterministic() {
        // Heterogeneous fractions must not disturb per-member
        // reproducibility: the same weighted race is bit-identical inline
        // and on 3 workers, and the winner rule is unchanged.
        let ranges = VectorRanges::new(vec![(-2.0, 2.0); 2]).unwrap();
        let cost = |x: &[f64]| x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum::<f64>();
        let p = Problem::new(&ranges, &cost);
        let budget = Budget::evals(500).with_seed(9);
        let build = || {
            Portfolio::weighted(vec![
                (Box::new(SaSolver::default()) as Box<dyn Solver>, 1.0),
                (Box::new(NewtonPolish::default()), 0.25),
            ])
        };
        let a = {
            let exec = ape_exec::Executor::new(0);
            build().race(&p, &budget, &exec)
        };
        let b = {
            let exec = ape_exec::Executor::new(3);
            build().race(&p, &budget, &exec)
        };
        assert_eq!(a.winner, b.winner);
        for (ma, mb) in a.members.iter().zip(&b.members) {
            assert_eq!(ma.result, mb.result, "member {} diverged", ma.name);
        }
        // Winner selection still picks the lowest (best_cost, index) among
        // satisfied members — or overall when nobody satisfied.
        let expect = a
            .members
            .iter()
            .enumerate()
            .min_by(|(ai, x), (bi, y)| {
                x.result
                    .best_cost
                    .partial_cmp(&y.result.best_cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ai.cmp(bi))
            })
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(a.winner, expect);
    }

    #[test]
    fn degenerate_fractions_fall_back_to_the_full_budget() {
        // Non-finite or non-positive fractions are authoring mistakes, not
        // crash vectors: they clamp to the full budget.
        let ranges = VectorRanges::new(vec![(0.0, 1.0)]).unwrap();
        let cost = |x: &[f64]| x[0];
        let p = Problem::new(&ranges, &cost);
        let exec = ape_exec::Executor::new(0);
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let portfolio = Portfolio::weighted(vec![(
                Box::new(SaSolver::default()) as Box<dyn Solver>,
                bad,
            )]);
            let r = portfolio.race(&p, &Budget::evals(40).with_seed(1), &exec);
            assert!(r.members[0].result.evals <= 40);
            assert!(r.members[0].result.evals > 10, "fraction {bad} starved");
        }
    }

    #[test]
    fn empty_portfolio_is_vacuous() {
        let ranges = VectorRanges::new(vec![(0.0, 1.0)]).unwrap();
        let cost = |x: &[f64]| x[0];
        let p = Problem::new(&ranges, &cost);
        let exec = ape_exec::Executor::new(0);
        let r = Portfolio::new(Vec::new()).race(&p, &Budget::evals(10), &exec);
        assert!(r.members.is_empty());
        assert!(!r.best.satisfied);
        assert_eq!(r.best.evals, 0);
    }
}
