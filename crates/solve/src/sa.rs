//! [`Solver`] adapter over the `ape-anneal` simulated-annealing kernel: the
//! ASTRX/OBLX annealer.

use crate::{Budget, Problem, Progress, SolveObserver, SolveResult, Solver};
use ape_anneal::{anneal_with_observer, AnnealOptions, Observer, Schedule, TempStats};

/// Simulated annealing behind the [`Solver`] trait, with the ASTRX/OBLX
/// schedule: the start's cost `c0` sets a geometric schedule
/// (`t0 = c0/3` clamped to `[0.5, 1e3]`, `alpha = 0.9`, `t_min = 1e-6`)
/// and is the kernel's first evaluation, so the start is computed once.
/// The `ape-anneal` kernel then spends the rest of the budget on
/// temperature-scaled box moves and stops on the move that reaches the
/// problem's cost target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaSolver {
    /// Moves evaluated per temperature plateau.
    pub moves_per_temp: usize,
}

impl Default for SaSolver {
    fn default() -> Self {
        SaSolver { moves_per_temp: 40 }
    }
}

/// Bridges the annealer's plateau hooks onto a [`SolveObserver`]: forwards
/// progress and polls for cooperative stop.
struct Bridge<'o> {
    outer: &'o mut dyn SolveObserver,
    evals: usize,
    stopped: bool,
}

impl Observer for Bridge<'_> {
    fn on_temperature(&mut self, stats: &TempStats) {
        self.evals += stats.moves;
        self.outer.on_progress(&Progress {
            evals: self.evals,
            best_cost: stats.best_cost,
        });
    }

    fn should_stop(&mut self) -> bool {
        // The kernel breaks out on the first `true`, so this never unlatches.
        self.stopped = self.outer.should_stop();
        self.stopped
    }
}

impl Solver for SaSolver {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        budget: &Budget,
        observer: &mut dyn SolveObserver,
    ) -> SolveResult {
        let _span = ape_probe::span("solve.sa");
        let start = problem.start();
        if budget.max_evals == 0 {
            return SolveResult {
                best: start,
                best_cost: f64::INFINITY,
                evals: 0,
                satisfied: false,
                stopped: false,
                history: Vec::new(),
            };
        }
        let initial_cost = problem.cost(&start);
        let opts = AnnealOptions {
            schedule: Schedule::Geometric {
                t0: (initial_cost / 3.0).clamp(0.5, 1e3),
                alpha: 0.9,
                moves_per_temp: self.moves_per_temp,
                t_min: 1e-6,
            },
            // A zero-dimensional box has one point: nothing to move to.
            max_evals: if problem.dim() == 0 {
                1
            } else {
                budget.max_evals
            },
            seed: budget.seed,
            target_cost: problem.target(),
        };
        let mut bridge = Bridge {
            outer: observer,
            evals: 1,
            stopped: false,
        };
        let ranges = problem.ranges();
        let mut start_cost = Some(initial_cost);
        let r = anneal_with_observer(
            start,
            |s: &Vec<f64>| start_cost.take().unwrap_or_else(|| problem.cost(s)),
            |s, t, rng| ranges.neighbor(s, t, rng),
            &opts,
            &mut bridge,
        );
        // The kernel indexes the start as evaluation 0 and closes its trace
        // with a final `(evals, best)` entry; count the start as evaluation
        // 1 and keep the improvements only.
        let mut history = r.history;
        history.pop();
        if let Some(first) = history.first_mut() {
            first.0 = 1;
        }
        SolveResult {
            best: r.best_state,
            best_cost: r.best_cost,
            evals: r.evals,
            satisfied: problem.satisfied(r.best_cost),
            stopped: bridge.stopped,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorRanges;

    #[test]
    fn sa_minimises_sphere_within_box() {
        let ranges = VectorRanges::new(vec![(-4.0, 4.0); 3]).unwrap();
        let cost = |x: &[f64]| x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum::<f64>();
        let p = Problem::new(&ranges, &cost);
        let r = SaSolver::default().solve(&p, &Budget::evals(8000).with_seed(5), &mut ());
        assert!(r.best_cost < 1e-2, "cost {}", r.best_cost);
        assert!(ranges.contains(&r.best));
        assert!(r.evals <= 8000);
    }

    #[test]
    fn sa_stops_when_satisfied() {
        let ranges = VectorRanges::new(vec![(-4.0, 4.0); 2]).unwrap();
        let cost = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let p = Problem::new(&ranges, &cost)
            .with_target(0.5)
            .with_start(vec![3.0, 3.0]);
        let r = SaSolver::default().solve(&p, &Budget::evals(50_000).with_seed(2), &mut ());
        assert!(r.satisfied);
        assert!(r.evals < 50_000, "ran the whole budget: {}", r.evals);
    }

    #[test]
    fn sa_stops_on_the_move_that_reaches_the_target() {
        let ranges = VectorRanges::new(vec![(-4.0, 4.0); 2]).unwrap();
        let cost = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let target = 0.5;
        let p = Problem::new(&ranges, &cost)
            .with_target(target)
            .with_start(vec![3.0, 3.0]);
        let sa = SaSolver { moves_per_temp: 40 };
        let r = sa.solve(&p, &Budget::evals(50_000).with_seed(2), &mut ());
        let hit = r
            .history
            .iter()
            .find(|&&(_, c)| c <= target)
            .map(|&(k, _)| k)
            .expect("the target was reached");
        // Evaluation 1 is the start; plateau moves follow in blocks of
        // `moves_per_temp`. The hit must not be a plateau's last move, or
        // stopping at the plateau's end would pass too.
        assert_ne!((hit - 1) % sa.moves_per_temp, 0, "hit {hit} ends a plateau");
        assert!(r.satisfied);
        assert_eq!(r.evals, hit);
    }
}
