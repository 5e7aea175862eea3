// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! End-to-end pipeline tests: the paper's Figure 1 flow from specification
//! through estimation, verification and seeded synthesis.

use ape_repro::ape::basic::MirrorTopology;
use ape_repro::ape::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
use ape_repro::netlist::{parse_spice, Technology};
use ape_repro::oblx::{design_point_from_ape, synthesize, InitialPoint, SynthesisOptions};
use ape_repro::spice::{ac_sweep, dc_operating_point, decade_frequencies, measure};

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
fn figure1_flow_estimate_verify_synthesize() {
    let tech = Technology::default_1p2um();
    let topo = OpAmpTopology::miller(MirrorTopology::Simple, false);

    // Architecture generation + constraint transformation stand-in:
    // requirements arrive as an OpAmpSpec; APE estimates and sizes.
    let amp = OpAmp::design(&tech, topo, spec()).expect("APE sizes the spec");
    assert!(amp.perf.dc_gain.unwrap() >= 200.0);
    assert!(amp.perf.ugf_hz.unwrap() >= 5e6);

    // Design verification (SPICE step).
    let tb = amp.testbench_open_loop(&tech).expect("testbench");
    let op = dc_operating_point(&tb, &tech).expect("dc");
    let out = tb.find_node("out").expect("out");
    let sweep = ac_sweep(&tb, &tech, &op, &decade_frequencies(100.0, 1e9, 8).unwrap()).expect("ac");
    let gain_sim = measure::dc_gain(&sweep, out).unwrap();
    let ugf_sim = measure::unity_gain_frequency(&sweep, out).expect("crosses unity");
    assert!(gain_sim >= 200.0, "verified gain {gain_sim}");
    assert!(ugf_sim >= 5e6 * 0.9, "verified UGF {ugf_sim}");

    // Circuit sizing refinement: APE-seeded ASTRX/OBLX-style search.
    let init = InitialPoint::ApeSeeded {
        point: design_point_from_ape(&tech, &amp),
        interval_frac: 0.2,
    };
    let opts = SynthesisOptions {
        max_evals: 200,
        seed: 7,
        ..SynthesisOptions::default()
    };
    let outcome = synthesize(&tech, topo, &spec(), &init, &opts).expect("synthesis runs");
    assert!(
        outcome.meets_spec(),
        "seeded synthesis meets spec: {:?}",
        outcome.audit.map(|a| a.violations)
    );
    // The paper's headline: the seeded search needs a tiny fraction of the
    // blind budget.
    assert!(
        outcome.evals <= 50,
        "seeded search took {} evals",
        outcome.evals
    );
}

#[test]
fn emitted_deck_reparses_and_resimulates() {
    // Figure 3-style netlist emission: the SPICE deck printed by the flow
    // parses back into an equivalent circuit that simulates to the same
    // operating point.
    let tech = Technology::default_1p2um();
    let topo = OpAmpTopology::miller(MirrorTopology::Wilson, true);
    let amp = OpAmp::design(&tech, topo, spec()).expect("sizes");
    let tb = amp.testbench_open_loop(&tech).expect("testbench");
    let deck = tb.to_spice_deck(&tech);
    let (reparsed, tech2) = parse_spice(&deck).expect("deck parses");
    assert_eq!(reparsed.stats().mosfets, tb.stats().mosfets);
    let op1 = dc_operating_point(&tb, &tech).expect("dc original");
    let op2 = dc_operating_point(&reparsed, &tech2).expect("dc reparsed");
    // The open-loop output is offset-sensitive (gain > 2000), so compare
    // robust bias quantities: every MOSFET's drain current.
    for (name, m1) in &op1.mos {
        let deck_name = format!("M{name}");
        let m2 = op2
            .mos
            .get(name)
            .or_else(|| op2.mos.get(&deck_name))
            .unwrap_or_else(|| panic!("device {name} lost in roundtrip"));
        let i1 = m1.eval.ids;
        let i2 = m2.eval.ids;
        assert!(
            (i1 - i2).abs() <= 1e-9 + 0.02 * i1.abs(),
            "{name}: current {i1} vs {i2}"
        );
    }
}

#[test]
fn all_ten_table1_specs_size_through_ape() {
    // The APE front-end must produce a design for every Table 1 row —
    // the paper sized all ten in 0.12 s.
    let tech = Technology::default_1p2um();
    let t0 = std::time::Instant::now();
    for task in ape_bench::specs::table1_opamps() {
        let amp = OpAmp::design(&tech, task.topology, task.spec)
            .unwrap_or_else(|e| panic!("{} fails to size: {e}", task.name));
        assert!(
            amp.perf.dc_gain.unwrap() >= task.spec.gain * 0.9,
            "{}",
            task.name
        );
    }
    // Generous bound (debug builds are slow): well under a second each.
    assert!(t0.elapsed().as_secs_f64() < 10.0);
}

/// The paper's Table 4 claim, through the `table4` bin's own code path:
/// an APE start point with ±20 % intervals meets spec almost at once. Each
/// of the nine feasible Table-1 specs meets spec within 30 of its 400
/// evaluations; oa6's 200 µm² budget is out of this process's reach, so it
/// spends the whole budget and the audit reports the area violation.
#[test]
fn seeded_table4_runs_meet_every_feasible_spec_within_30_evals() {
    use ape_bench::rows::{seeded_synthesis, AuditCells};
    let tech = Technology::default_1p2um();
    let budget = 400;
    for task in ape_bench::specs::table1_opamps() {
        let amp = OpAmp::design(&tech, task.topology, task.spec).expect("APE sizes every spec");
        let out = seeded_synthesis(&tech, &task, &amp, budget).expect("spec is well-formed");
        let verdict = AuditCells::of(&out).verdict;
        if task.name == "oa6" {
            assert_eq!(out.evals, budget, "oa6 stopped early: {verdict}");
            assert!(
                !out.meets_spec() && verdict.starts_with("area "),
                "oa6 audit: {verdict}"
            );
        } else {
            assert!(
                out.meets_spec() && out.evals <= 30,
                "{}: {} evals, audit: {verdict}",
                task.name,
                out.evals
            );
        }
    }
}
