//! `ape-check`: the panic-freedom harness for the APE estimation surface.
//!
//! The paper's premise (§5) is that an estimator inside a synthesis loop is
//! hammered with thousands of candidate points, many infeasible, and must
//! return a graded answer or a typed error — never crash. This crate
//! proves that property mechanically: a seeded SplitMix64 generator
//! ([`ape_anneal::Rng64`], no new dependencies) produces valid, boundary,
//! and hostile inputs for every public entry point, each call runs under
//! `catch_unwind`, and three assertions are checked per case:
//!
//! 1. **No panic.** Any unwind is a failure, reported with its seed.
//! 2. **Typed, non-empty errors.** Every `Err` renders a non-empty message.
//! 3. **Ok invariants.** Accepted designs/estimates have positive area and
//!    power and finite performance numbers.
//!
//! [`drive::incremental`] additionally fuzzes the estimation graph's
//! incremental path: seeded random spec deltas (valid, boundary, hostile)
//! are applied through `OpAmp::redesign` on a warm graph and the result is
//! required to match a cold from-scratch design bit for bit.
//!
//! [`drive::solver`] additionally fuzzes the `ape-solve` optimizer
//! portfolio: hostile boxes (NaN/reversed/degenerate bounds), NaN and
//! infinite cost landscapes, and tiny budgets through every solver and the
//! raced portfolio, asserting the budget ceiling, NaN-freedom of the best
//! cost, and box containment of the best state.
//!
//! [`drive::exec_order`] additionally fuzzes the shared work-stealing
//! executor: seeded batches of design requests (hostile specs included)
//! run through `OpAmp::design_many_on` at several worker counts, and
//! every slot must match the sequential path bit for bit — task ordering
//! must never be observable in results.
//!
//! [`fault::run`] additionally injects failing, panicking, and timed-out
//! jobs into an [`ape_farm::Farm`] and asserts the farm, its single-flight
//! deduplication, and all waiting submitters stay live.
//!
//! [`serve::run`] additionally drives seeded hostile NDJSON traffic
//! (truncated, oversized, garbage, unknown fingerprints) through a
//! resident `ape-serve` daemon state and asserts every line gets a typed
//! response and the connection never wedges.
//!
//! Run it via the `ape-check` binary: `--smoke` for the ~200-case CI gate,
//! the default for the full ≥10,000-case sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod fault;
pub mod gen;
pub mod serve;

/// Aggregate result of a fuzzing run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Cases run per entry point, in execution order.
    pub cases: Vec<(&'static str, usize)>,
    /// Failure descriptions (seed included) — empty means the run passed.
    pub failures: Vec<String>,
}

impl CheckReport {
    /// Total number of cases across all entry points.
    pub fn total_cases(&self) -> usize {
        self.cases.iter().map(|(_, n)| n).sum()
    }

    /// `true` when every case passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `total` fuzz cases (split across the entry points, the cheap ones
/// weighted heaviest) plus the farm fault-injection suite. `base_seed`
/// makes the whole run reproducible.
pub fn run_all(base_seed: u64, total: usize) -> CheckReport {
    let mut report = CheckReport::default();
    // Weights: parsing is microseconds, synthesis is milliseconds even at
    // a 4-eval budget. The split keeps a full 10k-case run in CI budget.
    let n_parse = total * 30 / 100;
    let n_netest = total * 20 / 100;
    let n_spice = total * 15 / 100;
    let n_design = total * 8 / 100;
    let n_incr = total * 8 / 100;
    let n_exec = (total * 4 / 100).max(2);
    let n_solve = (total * 5 / 100).max(2);
    let n_calib = (total * 5 / 100).max(2);
    let n_oblx = total
        .saturating_sub(
            n_parse + n_netest + n_spice + n_design + n_incr + n_exec + n_solve + n_calib,
        )
        .max(1);

    type Driver = fn(u64) -> drive::CaseOutcome;
    let sections: [(&'static str, usize, Driver); 9] = [
        ("parse_spice", n_parse, drive::parse),
        ("estimate_netlist", n_netest, drive::netest),
        ("spice", n_spice, drive::spice),
        ("OpAmp::design", n_design, drive::design),
        ("OpAmp::redesign", n_incr, drive::incremental),
        ("exec::design_many", n_exec, drive::exec_order),
        ("solve::Solver", n_solve, drive::solver),
        ("calib::table", n_calib, drive::calibration),
        ("oblx::synthesize", n_oblx, drive::oblx),
    ];
    for (name, count, driver) in sections {
        for k in 0..count {
            // Seeds are decorrelated per entry point by hashing the index
            // with a distinct odd constant (SplitMix64 finalises anyway).
            let seed = base_seed
                .wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(name.len() as u64);
            let outcome = driver(seed);
            if let Some(f) = outcome.failure {
                report.failures.push(f);
            }
        }
        report.cases.push((name, count));
    }

    report.failures.extend(fault::run());
    report.cases.push(("farm", 1));

    // The daemon's wire protocol: ~1 batch of 24 hostile lines per 100
    // fuzz cases, at least 2 so a wedge left by batch 1 is caught.
    let serve_batches = (total / 100).max(2);
    report
        .failures
        .extend(serve::run(base_seed ^ 0x5E4E, serve_batches));
    report.cases.push(("serve", serve_batches));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-tree smoke: a small fixed-seed sweep must be panic-free.
    #[test]
    fn smoke_sweep_passes() {
        let report = run_all(0xA9E5_EED0, 60);
        assert!(report.passed(), "failures:\n{}", report.failures.join("\n"));
        assert!(report.total_cases() >= 60);
    }
}
