//! Generic simulated-annealing kernel.
//!
//! ASTRX/OBLX's sizing engine "is based on a simulated annealing algorithm"
//! (paper §3); this crate is that engine, kept deliberately generic so the
//! tests can exercise it on analytic functions and `ape-oblx` can drive it
//! on circuit cost functions.
//!
//! Two layers:
//!
//! * [`anneal`] — the core loop over any state type, cost closure and move
//!   generator, with geometric or adaptive cooling;
//! * [`VectorRanges`] — the box-constrained `Vec<f64>` state space used by
//!   circuit sizing (each design variable confined to an interval, moves
//!   scaled by temperature), matching the interval semantics of the paper's
//!   experiments (wide "blind" intervals vs APE-seeded ±20 % intervals).
//!
//! # Example
//!
//! ```
//! use ape_anneal::{anneal, AnnealOptions, Schedule, VectorRanges};
//!
//! // Minimise (x-3)² + (y+1)² over the box [-10,10]².
//! let ranges = VectorRanges::new(vec![(-10.0, 10.0), (-10.0, 10.0)]).unwrap();
//! let opts = AnnealOptions { seed: 7, ..AnnealOptions::default() };
//! let result = anneal(
//!     ranges.center(),
//!     |s| (s[0] - 3.0).powi(2) + (s[1] + 1.0).powi(2),
//!     |s, t, rng| ranges.neighbor(s, t, rng),
//!     &opts,
//! );
//! assert!(result.best_cost < 1e-2);
//! assert!((result.best_state[0] - 3.0).abs() < 0.1);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;

pub use rng::Rng64;

/// Cooling schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Classic geometric cooling: `T ← α·T` every `moves_per_temp` moves.
    Geometric {
        /// Starting temperature.
        t0: f64,
        /// Cooling factor in (0, 1).
        alpha: f64,
        /// Moves evaluated at each temperature.
        moves_per_temp: usize,
        /// Temperature at which the run stops.
        t_min: f64,
    },
    /// Acceptance-ratio-controlled cooling: α adapts to hold the acceptance
    /// rate near 44 % (Lam-style rule of thumb) early and anneal out late.
    Adaptive {
        /// Starting temperature.
        t0: f64,
        /// Moves evaluated at each temperature.
        moves_per_temp: usize,
        /// Temperature at which the run stops.
        t_min: f64,
    },
}

/// Options for an annealing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealOptions {
    /// Cooling schedule.
    pub schedule: Schedule,
    /// Hard ceiling on cost evaluations (the paper's "fixed budget").
    pub max_evals: usize,
    /// RNG seed — same seed, same trajectory.
    pub seed: u64,
    /// Stop early when the best cost falls to or below this value.
    pub target_cost: f64,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            schedule: Schedule::Geometric {
                t0: 10.0,
                alpha: 0.92,
                moves_per_temp: 60,
                t_min: 1e-7,
            },
            max_evals: 50_000,
            seed: 0x0A9E_5EED,
            target_cost: f64::NEG_INFINITY,
        }
    }
}

/// Aggregate statistics of a completed annealing run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnnealStats {
    /// Moves proposed (candidate states generated and evaluated).
    pub moves: usize,
    /// Moves accepted (same value as [`AnnealResult::accepted`]).
    pub accepted: usize,
    /// Temperature plateaus the schedule stepped through.
    pub temp_steps: usize,
    /// Temperature when the run stopped.
    pub final_temp: f64,
}

/// Outcome of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult<S> {
    /// Best state visited.
    pub best_state: S,
    /// Cost of the best state.
    pub best_cost: f64,
    /// Total cost evaluations performed.
    pub evals: usize,
    /// Moves accepted.
    pub accepted: usize,
    /// `(evaluation index, best cost so far)` trace for convergence plots.
    pub history: Vec<(usize, f64)>,
    /// Run statistics (move/acceptance totals, cooling trajectory).
    pub stats: AnnealStats,
}

/// Per-temperature snapshot handed to an [`Observer`] after each plateau.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TempStats {
    /// Zero-based index of the plateau.
    pub step: usize,
    /// Temperature of the plateau.
    pub temp: f64,
    /// Moves proposed at this temperature.
    pub moves: usize,
    /// Moves accepted at this temperature.
    pub accepted: usize,
    /// `accepted / moves` (0 when no move was proposed).
    pub accept_ratio: f64,
    /// Best cost seen so far across the whole run.
    pub best_cost: f64,
}

/// Hook invoked by [`anneal_with_observer`] at the end of every temperature
/// plateau — the per-temperature window ASTRX/OBLX-style tools use to report
/// acceptance ratio and cost trajectories.
pub trait Observer {
    /// Called once per temperature plateau with its aggregate statistics.
    fn on_temperature(&mut self, stats: &TempStats);

    /// Polled once per temperature plateau, before its moves run; returning
    /// `true` stops the annealing loop early (the best state found so far
    /// is still returned). Cooperative cancellation for batch drivers that
    /// must abandon a synthesis without killing its worker thread.
    fn should_stop(&mut self) -> bool {
        false
    }
}

/// The no-op observer: `anneal` uses it when no explicit observer is given.
impl Observer for () {
    fn on_temperature(&mut self, _stats: &TempStats) {}
}

impl<F: FnMut(&TempStats)> Observer for F {
    fn on_temperature(&mut self, stats: &TempStats) {
        self(stats);
    }
}

/// Runs simulated annealing from `initial`.
///
/// `cost` maps a state to a scalar to minimise; `neighbor` proposes a move
/// given the current state, the *temperature fraction* `t/t0 ∈ (0, 1]`
/// (useful for shrinking move sizes as the system cools) and the RNG.
///
/// The run is fully deterministic for a fixed seed. Per-temperature
/// progress flows to `ape-probe` when a sink is installed; to receive it in
/// process, use [`anneal_with_observer`].
pub fn anneal<S, C, M>(initial: S, cost: C, neighbor: M, opts: &AnnealOptions) -> AnnealResult<S>
where
    S: Clone,
    C: FnMut(&S) -> f64,
    M: FnMut(&S, f64, &mut Rng64) -> S,
{
    anneal_with_observer(initial, cost, neighbor, opts, &mut ())
}

/// [`anneal`] with a per-temperature [`Observer`] hook.
///
/// The observer fires once per temperature plateau, after its moves have
/// been evaluated, with the plateau's [`TempStats`]. Closures taking
/// `&TempStats` implement [`Observer`] directly:
///
/// ```
/// use ape_anneal::{anneal_with_observer, AnnealOptions, VectorRanges};
///
/// let ranges = VectorRanges::new(vec![(-5.0, 5.0)]).unwrap();
/// let mut plateaus = 0usize;
/// let r = anneal_with_observer(
///     ranges.center(),
///     |s| s[0] * s[0],
///     |s, t, rng| ranges.neighbor(s, t, rng),
///     &AnnealOptions::default(),
///     &mut |stats: &ape_anneal::TempStats| {
///         assert!(stats.accept_ratio <= 1.0);
///         plateaus += 1;
///     },
/// );
/// assert_eq!(r.stats.temp_steps, plateaus);
/// ```
pub fn anneal_with_observer<S, C, M, O>(
    initial: S,
    mut cost: C,
    mut neighbor: M,
    opts: &AnnealOptions,
    observer: &mut O,
) -> AnnealResult<S>
where
    S: Clone,
    C: FnMut(&S) -> f64,
    M: FnMut(&S, f64, &mut Rng64) -> S,
    O: Observer + ?Sized,
{
    let _run_span = ape_probe::span("anneal.run");
    let mut rng = Rng64::seed_from_u64(opts.seed);
    let (t0, alpha, moves_per_temp, t_min, adaptive) = match opts.schedule {
        Schedule::Geometric {
            t0,
            alpha,
            moves_per_temp,
            t_min,
        } => (t0, alpha, moves_per_temp, t_min, false),
        Schedule::Adaptive {
            t0,
            moves_per_temp,
            t_min,
        } => (t0, 0.95, moves_per_temp, t_min, true),
    };
    // Hostile schedules must not hang the loop: a zero `moves_per_temp`
    // never advances `evals`, and an `alpha` outside (0, 1) never cools, so
    // together they spin forever. Clamp to the nearest sane value instead.
    let moves_per_temp = moves_per_temp.max(1);
    let mut alpha = if alpha.is_finite() && alpha > 0.0 && alpha < 1.0 {
        alpha
    } else {
        ape_probe::counter("anneal.bad_alpha", 1);
        0.9
    };
    let t0 = if t0.is_finite() { t0 } else { 1.0 };

    // A non-finite cost would poison the loop twice over: a NaN best cost
    // makes `best_cost > target_cost` false (the run would return after a
    // single eval with no signal), and a NaN current cost makes every
    // `delta` NaN, which rejects every subsequent move. Grade all
    // non-finite costs as "infinitely bad" instead so the walk keeps
    // moving and can escape into finite territory.
    fn finite_or_inf(c: f64) -> f64 {
        if c.is_finite() {
            c
        } else {
            ape_probe::counter("anneal.non_finite_cost", 1);
            f64::INFINITY
        }
    }

    let mut current = initial.clone();
    let mut current_cost = finite_or_inf(cost(&current));
    let mut best_state = current.clone();
    let mut best_cost = current_cost;
    let mut evals = 1usize;
    let mut accepted = 0usize;
    let mut moves = 0usize;
    let mut temp_steps = 0usize;
    let mut history = vec![(0usize, best_cost)];

    let mut t = t0.max(1e-300);
    while t > t_min && evals < opts.max_evals && best_cost > opts.target_cost {
        if observer.should_stop() {
            ape_probe::counter("anneal.stopped_early", 1);
            break;
        }
        let mut moves_here = 0usize;
        let mut accepted_here = 0usize;
        for _ in 0..moves_per_temp {
            if evals >= opts.max_evals || best_cost <= opts.target_cost {
                break;
            }
            let cand = neighbor(&current, t / t0, &mut rng);
            let cand_cost = finite_or_inf(cost(&cand));
            evals += 1;
            moves_here += 1;
            let delta = cand_cost - current_cost;
            // `inf - inf` is NaN: both states sit on the non-finite
            // plateau, so the move is neutral — accept it (like any
            // `delta <= 0` move, without drawing from the RNG) so the
            // walk can wander off the plateau instead of freezing.
            let accept = delta.is_nan() || delta <= 0.0 || rng.f64() < (-delta / t).exp();
            if accept {
                current = cand;
                current_cost = cand_cost;
                accepted += 1;
                accepted_here += 1;
                if current_cost < best_cost {
                    best_cost = current_cost;
                    best_state = current.clone();
                    history.push((evals, best_cost));
                }
            }
        }
        moves += moves_here;
        let ratio = if moves_here > 0 {
            accepted_here as f64 / moves_here as f64
        } else {
            0.0
        };
        observer.on_temperature(&TempStats {
            step: temp_steps,
            temp: t,
            moves: moves_here,
            accepted: accepted_here,
            accept_ratio: ratio,
            best_cost,
        });
        if ape_probe::is_enabled() {
            ape_probe::counter("anneal.moves", moves_here as u64);
            ape_probe::counter("anneal.accepted", accepted_here as u64);
            ape_probe::value("anneal.accept_ratio", ratio);
            ape_probe::value("anneal.best_cost", best_cost);
        }
        temp_steps += 1;
        if adaptive {
            // Hold acceptance near 44 %: cool faster when too hot (high
            // acceptance), slower when freezing.
            alpha = if ratio > 0.6 {
                0.85
            } else if ratio > 0.3 {
                0.92
            } else {
                0.97
            };
        }
        t *= alpha;
    }
    history.push((evals, best_cost));
    AnnealResult {
        best_state,
        best_cost,
        evals,
        accepted,
        history,
        stats: AnnealStats {
            moves,
            accepted,
            temp_steps,
            final_temp: t,
        },
    }
}

/// Box constraints for a `Vec<f64>` design space with temperature-scaled
/// moves — the state space circuit sizing uses.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorRanges {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl VectorRanges {
    /// Creates ranges from `(lo, hi)` pairs.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a message when any `lo > hi` or a bound is not
    /// finite.
    pub fn new(pairs: Vec<(f64, f64)>) -> Result<Self, String> {
        for (k, (lo, hi)) in pairs.iter().enumerate() {
            if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                return Err(format!("bad range #{k}: [{lo}, {hi}]"));
            }
        }
        Ok(VectorRanges {
            lo: pairs.iter().map(|p| p.0).collect(),
            hi: pairs.iter().map(|p| p.1).collect(),
        })
    }

    /// Number of design variables.
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// `true` for an empty design space.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// Lower bounds.
    pub fn lower(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    pub fn upper(&self) -> &[f64] {
        &self.hi
    }

    /// Midpoint of every range — a deterministic starting state.
    pub fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| 0.5 * (l + h))
            .collect()
    }

    /// A uniformly random state inside the box.
    pub fn sample(&self, rng: &mut Rng64) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| rng.range_f64(*l, *h))
            .collect()
    }

    /// Clamps a state into the box.
    pub fn clamp(&self, mut s: Vec<f64>) -> Vec<f64> {
        for ((v, l), h) in s.iter_mut().zip(&self.lo).zip(&self.hi) {
            *v = v.clamp(*l, *h);
        }
        s
    }

    /// `true` when `s` lies inside the box (inclusive).
    pub fn contains(&self, s: &[f64]) -> bool {
        s.len() == self.len()
            && s.iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(v, (l, h))| *v >= *l && *v <= *h)
    }

    /// Temperature-scaled move: perturbs 1–3 random coordinates by up to
    /// `temp_frac · 40 %` of their range, clamped to the box.
    pub fn neighbor(&self, s: &[f64], temp_frac: f64, rng: &mut Rng64) -> Vec<f64> {
        let mut out = s.to_vec();
        if self.is_empty() {
            return out;
        }
        let k = 1 + rng.range_usize(3usize.min(self.len()));
        for _ in 0..k {
            let i = rng.range_usize(self.len());
            let span = self.hi[i] - self.lo[i];
            if span <= 0.0 {
                continue;
            }
            let sigma = span * 0.4 * temp_frac.clamp(0.01, 1.0);
            let step = (rng.f64() * 2.0 - 1.0) * sigma;
            out[i] = (out[i] + step).clamp(self.lo[i], self.hi[i]);
        }
        out
    }

    /// Builds ranges centred on `point` spanning ±`frac` (the paper's
    /// APE-seeded "±20 %" intervals), intersected with `outer` bounds.
    ///
    /// # Errors
    ///
    /// Propagates [`VectorRanges::new`] errors; falls back to the outer
    /// range for coordinates whose tightened interval would be empty.
    pub fn around(point: &[f64], frac: f64, outer: &VectorRanges) -> Result<Self, String> {
        let pairs = point
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let half = p.abs() * frac;
                let lo = (p - half).max(outer.lo[i]);
                let hi = (p + half).min(outer.hi[i]);
                if lo <= hi {
                    (lo, hi)
                } else {
                    (outer.lo[i], outer.hi[i])
                }
            })
            .collect();
        VectorRanges::new(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(seed: u64) -> AnnealOptions {
        AnnealOptions {
            schedule: Schedule::Geometric {
                t0: 10.0,
                alpha: 0.9,
                moves_per_temp: 50,
                t_min: 1e-8,
            },
            max_evals: 30_000,
            seed,
            target_cost: f64::NEG_INFINITY,
        }
    }

    #[test]
    fn observer_should_stop_halts_the_run() {
        struct StopAfter {
            plateaus: usize,
            limit: usize,
        }
        impl Observer for StopAfter {
            fn on_temperature(&mut self, _stats: &TempStats) {
                self.plateaus += 1;
            }
            fn should_stop(&mut self) -> bool {
                self.plateaus >= self.limit
            }
        }
        let ranges = VectorRanges::new(vec![(-5.0, 5.0); 3]).unwrap();
        let mut obs = StopAfter {
            plateaus: 0,
            limit: 2,
        };
        let r = anneal_with_observer(
            ranges.center(),
            |s| s.iter().map(|x| x * x).sum(),
            |s, t, rng| ranges.neighbor(s, t, rng),
            &quick_opts(5),
            &mut obs,
        );
        assert_eq!(r.stats.temp_steps, 2, "stopped after exactly two plateaus");
        assert!(r.evals < 30_000);
        assert!(r.best_cost.is_finite(), "best state still returned");
    }

    #[test]
    fn minimizes_quadratic() {
        let ranges = VectorRanges::new(vec![(-5.0, 5.0); 3]).unwrap();
        let r = anneal(
            ranges.center(),
            |s| s.iter().map(|x| (x - 1.0) * (x - 1.0)).sum(),
            |s, t, rng| ranges.neighbor(s, t, rng),
            &quick_opts(1),
        );
        assert!(r.best_cost < 1e-2, "cost {}", r.best_cost);
        for x in &r.best_state {
            assert!((x - 1.0).abs() < 0.1);
        }
    }

    #[test]
    fn escapes_local_minima() {
        // Double well: f(x) = (x²-1)² + 0.3x has a local minimum near x=+1
        // and the global one near x=-1.
        let start = VectorRanges::new(vec![(0.5, 1.5)]).unwrap();
        let full = VectorRanges::new(vec![(-2.0, 2.0)]).unwrap();
        let r = anneal(
            start.center(),
            |s| {
                let x = s[0];
                (x * x - 1.0).powi(2) + 0.3 * x
            },
            |s, t, rng| full.neighbor(s, t, rng),
            &quick_opts(3),
        );
        assert!(r.best_state[0] < 0.0, "stuck at {}", r.best_state[0]);
    }

    #[test]
    fn deterministic_per_seed() {
        let ranges = VectorRanges::new(vec![(-5.0, 5.0); 4]).unwrap();
        let run = |seed| {
            anneal(
                ranges.center(),
                |s| s.iter().map(|x| x * x).sum(),
                |s, t, rng| ranges.neighbor(s, t, rng),
                &quick_opts(seed),
            )
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.evals, b.evals);
        // Different seeds almost surely diverge somewhere.
        assert!(a.best_state != c.best_state || a.accepted != c.accepted);
    }

    #[test]
    fn respects_bounds_always() {
        let ranges = VectorRanges::new(vec![(0.0, 1.0), (10.0, 20.0)]).unwrap();
        let mut violations = 0;
        let r = anneal(
            ranges.center(),
            |s| {
                if !ranges.contains(s) {
                    violations += 1;
                }
                s[0] + s[1]
            },
            |s, t, rng| ranges.neighbor(s, t, rng),
            &quick_opts(9),
        );
        assert_eq!(violations, 0);
        assert!(ranges.contains(&r.best_state));
    }

    #[test]
    fn early_stop_at_target() {
        let ranges = VectorRanges::new(vec![(-5.0, 5.0)]).unwrap();
        let opts = AnnealOptions {
            target_cost: 0.5,
            ..quick_opts(5)
        };
        let r = anneal(
            ranges.center(),
            |s| s[0].abs(),
            |s, t, rng| ranges.neighbor(s, t, rng),
            &opts,
        );
        assert!(r.best_cost <= 0.5);
        assert!(r.evals < opts.max_evals);
    }

    #[test]
    fn eval_budget_respected() {
        let ranges = VectorRanges::new(vec![(-5.0, 5.0)]).unwrap();
        let opts = AnnealOptions {
            max_evals: 100,
            ..quick_opts(5)
        };
        let r = anneal(
            ranges.center(),
            |s| s[0] * s[0],
            |s, t, rng| ranges.neighbor(s, t, rng),
            &opts,
        );
        assert!(r.evals <= 100);
    }

    #[test]
    fn adaptive_schedule_also_minimizes() {
        let ranges = VectorRanges::new(vec![(-5.0, 5.0); 2]).unwrap();
        let opts = AnnealOptions {
            schedule: Schedule::Adaptive {
                t0: 10.0,
                moves_per_temp: 50,
                t_min: 1e-8,
            },
            ..quick_opts(11)
        };
        let r = anneal(
            ranges.center(),
            |s| s.iter().map(|x| (x + 2.0) * (x + 2.0)).sum(),
            |s, t, rng| ranges.neighbor(s, t, rng),
            &opts,
        );
        assert!(r.best_cost < 1e-2, "cost {}", r.best_cost);
    }

    #[test]
    fn around_builds_tight_intervals() {
        let outer = VectorRanges::new(vec![(0.0, 100.0), (0.0, 100.0)]).unwrap();
        let tight = VectorRanges::around(&[50.0, 10.0], 0.2, &outer).unwrap();
        assert!(tight.contains(&[45.0, 9.0]));
        assert!(!tight.contains(&[30.0, 9.0]));
        assert!(!tight.contains(&[45.0, 20.0]));
    }

    #[test]
    fn history_is_monotone_decreasing() {
        let ranges = VectorRanges::new(vec![(-5.0, 5.0); 2]).unwrap();
        let r = anneal(
            ranges.center(),
            |s| s.iter().map(|x| x * x).sum(),
            |s, t, rng| ranges.neighbor(s, t, rng),
            &quick_opts(2),
        );
        for w in r.history.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    fn stats_and_observer_agree() {
        let ranges = VectorRanges::new(vec![(-5.0, 5.0); 2]).unwrap();
        let mut obs_moves = 0usize;
        let mut obs_accepted = 0usize;
        let mut obs_steps = 0usize;
        let r = anneal_with_observer(
            ranges.center(),
            |s| s.iter().map(|x| x * x).sum(),
            |s, t, rng| ranges.neighbor(s, t, rng),
            &quick_opts(4),
            &mut |stats: &TempStats| {
                obs_moves += stats.moves;
                obs_accepted += stats.accepted;
                obs_steps += 1;
                assert!((0.0..=1.0).contains(&stats.accept_ratio));
            },
        );
        assert_eq!(r.stats.moves, obs_moves);
        assert_eq!(r.stats.accepted, obs_accepted);
        assert_eq!(r.stats.temp_steps, obs_steps);
        assert_eq!(r.stats.accepted, r.accepted);
        // Every eval after the initial one is a proposed move.
        assert_eq!(r.stats.moves, r.evals - 1);
        assert!(r.stats.final_temp <= 10.0);
    }

    #[test]
    fn non_finite_initial_cost_does_not_poison_the_run() {
        // The start (the box center, x = 0) sits inside a NaN crater; the
        // finite landscape outside has minima at |x| = 2. Before the
        // non-finite guard, the NaN initial cost made
        // `best_cost > target_cost` false and the run returned after one
        // eval; now the walk must escape the crater and find a finite
        // optimum.
        let ranges = VectorRanges::new(vec![(-5.0, 5.0)]).unwrap();
        let r = anneal(
            ranges.center(),
            |s| {
                let x = s[0];
                if x.abs() < 1.0 {
                    f64::NAN
                } else {
                    (x.abs() - 2.0).powi(2)
                }
            },
            |s, t, rng| ranges.neighbor(s, t, rng),
            &quick_opts(13),
        );
        assert!(r.evals > 1, "bailed after the initial eval");
        assert!(r.best_cost.is_finite(), "best cost {}", r.best_cost);
        assert!(r.best_cost < 0.1, "best cost {}", r.best_cost);
        assert!((r.best_state[0].abs() - 2.0).abs() < 0.5);
    }

    #[test]
    fn non_finite_mid_run_cost_is_rejected_not_absorbed() {
        // A NaN ridge in the middle of an otherwise smooth landscape: the
        // annealer starts finite, occasionally proposes moves into the
        // ridge, and must grade them as infinitely bad rather than letting
        // NaN leak into `current_cost` (which would then reject every
        // later move and freeze the walk wherever it stood).
        let ranges = VectorRanges::new(vec![(-5.0, 5.0)]).unwrap();
        let r = anneal(
            ranges.center(),
            |s| {
                let x = s[0];
                if (0.5..1.5).contains(&x) {
                    f64::NAN
                } else {
                    (x - 3.0).powi(2)
                }
            },
            |s, t, rng| ranges.neighbor(s, t, rng),
            &quick_opts(17),
        );
        assert!(r.best_cost.is_finite());
        assert!(r.best_cost < 0.1, "best cost {}", r.best_cost);
        assert!((r.best_state[0] - 3.0).abs() < 0.5);
    }

    #[test]
    fn bad_ranges_rejected() {
        assert!(VectorRanges::new(vec![(1.0, 0.0)]).is_err());
        assert!(VectorRanges::new(vec![(0.0, f64::NAN)]).is_err());
    }

    #[test]
    fn narrow_intervals_converge_faster() {
        // The paper's core claim in miniature: under an equal, modest eval
        // budget, an APE-style ±20 % interval around the optimum reaches a
        // far lower cost than decade-wide blind intervals. Each range gets a
        // schedule scaled to its own cost magnitude, and any single seed can
        // get lucky, so compare across several seeds.
        let blind = VectorRanges::new(vec![(-100.0, 100.0); 4]).unwrap();
        let seeded = VectorRanges::around(&[3.1, 3.1, 3.1, 3.1], 0.2, &blind).unwrap();
        let cost = |s: &Vec<f64>| s.iter().map(|x| (x - 3.0) * (x - 3.0)).sum::<f64>();
        let run = |ranges: &VectorRanges, seed: u64| {
            let scale = cost(&ranges.center()).max(1.0);
            let opts = AnnealOptions {
                schedule: Schedule::Geometric {
                    t0: scale,
                    alpha: 0.92,
                    moves_per_temp: 50,
                    t_min: scale * 1e-7,
                },
                max_evals: 10_000,
                seed,
                target_cost: f64::NEG_INFINITY,
            };
            anneal(
                ranges.center(),
                cost,
                |s, t, rng| ranges.neighbor(s, t, rng),
                &opts,
            )
            .best_cost
        };
        let mut seeded_wins = 0;
        for seed in 21..26 {
            if run(&seeded, seed) < run(&blind, seed) {
                seeded_wins += 1;
            }
        }
        assert!(seeded_wins >= 4, "seeded won only {seeded_wins}/5 runs");
    }
}
