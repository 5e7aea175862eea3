// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! What the shortcuts in a synthesis candidate's evaluation may change and
//! what they may not. A DC solve seeded with the run's start operating
//! point lands where the default solve lands, only sooner; and factoring
//! `G` once for every AWE moment gives each moment the bits a solve per
//! moment gives it.

use ape_repro::anneal::Rng64;
use ape_repro::ape::opamp::OpAmp;
use ape_repro::awe::moments;
use ape_repro::netlist::{NodeId, Technology};
use ape_repro::oblx::{
    build_candidate, candidate_dc_options, design_point_from_ape, seeded_ranges, start_nodeset,
    DesignPoint,
};
use ape_repro::spice::{dc_operating_point, dc_operating_point_from, dc_operating_point_with};
use ape_repro::spice::{linalg::Matrix, linearize};

/// Thirty candidates drawn in each Table-1 spec's APE-seeded ±20 % box
/// (the Table 4 search space), each solved twice with the candidate DC
/// options: from the default guess, and from the nodeset a seeded run
/// hands it (its start point's operating point). Both solves must agree on
/// whether the point converges and, where it does, on every node voltage
/// within the solver's own tolerance `vtol + reltol·|v|`; the seeded solves
/// must spend at most 60 % of the default solves' Newton iterations.
#[test]
fn seeded_candidate_solves_land_on_the_default_solution_in_fewer_iterations() {
    let tech = Technology::default_1p2um();
    let opts = candidate_dc_options();
    let mut rng = Rng64::seed_from_u64(2025);
    let (mut seeded_iters, mut default_iters, mut converged) = (0, 0, 0);
    for task in ape_bench::specs::table1_opamps() {
        let amp = OpAmp::design(&tech, task.topology, task.spec).expect("APE sizes every spec");
        let ape = design_point_from_ape(&tech, &amp);
        let ranges = seeded_ranges(task.topology, &ape, 0.2).unwrap();
        // The run's start, clamped into its box as `synthesize` does.
        let start = DesignPoint::from_log(&ranges.clamp(ape.to_log()));
        let nodeset = start_nodeset(&tech, task.topology, &task.spec, &start)
            .unwrap_or_else(|| panic!("{}: the APE start solves", task.name));
        for k in 0..30 {
            let log: Vec<f64> = ranges
                .lower()
                .iter()
                .zip(ranges.upper())
                .map(|(&lo, &hi)| rng.range_f64(lo, hi))
                .collect();
            let point = DesignPoint::from_log(&log);
            let (ckt, _) = build_candidate(&tech, task.topology, &task.spec, &point).unwrap();
            let default = dc_operating_point_with(&ckt, &tech, opts);
            let seeded = dc_operating_point_from(&ckt, &tech, opts, &nodeset);
            let (default, seeded) = match (default, seeded) {
                (Ok(d), Ok(s)) => (d, s),
                (Err(_), Err(_)) => continue,
                (d, s) => panic!(
                    "{} point {k}: default converged {}, seeded converged {}",
                    task.name,
                    d.is_ok(),
                    s.is_ok()
                ),
            };
            converged += 1;
            default_iters += default.iterations;
            seeded_iters += seeded.iterations;
            for i in 1..ckt.num_nodes() {
                let n = NodeId::new(i as u32);
                let (d, s) = (default.voltage(n), seeded.voltage(n));
                let tol = opts.vtol + opts.reltol * d.abs();
                assert!(
                    (d - s).abs() <= tol,
                    "{} point {k}, node {}: default {d} V, seeded {s} V",
                    task.name,
                    ckt.node_name(n)
                );
            }
        }
    }
    assert!(converged >= 250, "only {converged} of 300 candidates solve");
    assert!(
        seeded_iters * 10 <= default_iters * 6,
        "seeded solves took {seeded_iters} Newton iterations, default ones {default_iters}"
    );
}

/// `ape_awe::moments` factors `G` once; on every Table-3 op-amp testbench
/// its six moments must equal, bit for bit, the reference: one full
/// `Matrix::solve` per moment.
#[test]
fn awe_moments_equal_a_solve_per_moment_on_table3_testbenches() {
    let tech = Technology::default_1p2um();
    for task in ape_bench::specs::table3_opamps() {
        let amp = OpAmp::design(&tech, task.topology, task.spec).expect("table 3 sizes");
        let tb = amp.testbench_open_loop(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let sys = linearize(&tb, &tech, &op).unwrap();
        let reference = solve_per_moment(&sys.g, &sys.c, &sys.b, 6);
        let factored = moments(&sys.g, &sys.c, &sys.b, 6).unwrap();
        let bits = |vs: &[Vec<f64>]| -> Vec<Vec<u64>> {
            vs.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&factored), bits(&reference), "{}", task.name);
    }
}

/// `G·x₀ = b`, `G·xₖ = −C·xₖ₋₁`, one full factorisation per moment.
fn solve_per_moment(g: &Matrix<f64>, c: &Matrix<f64>, b: &[f64], count: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    let mut rhs = b.to_vec();
    for _ in 0..count {
        let x = g.solve(&rhs).expect("G factors");
        rhs = c.mul_vec(&x).iter().map(|v| -v).collect();
        out.push(x);
    }
    out
}
