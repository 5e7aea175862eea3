// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Schedule independence: a sweep's records are exactly what a direct
//! `OpAmp::design` on a cold graph gives at each point, however the
//! executor spread the jobs over its threads and whatever those threads
//! had memoized before. This holds because every job runs as a pure
//! function of `(technology, request)` — the estimation graph's bit-exact
//! memo keys make warm threads answer exactly as cold ones would — and the
//! report collects results in grid order.

use ape_core::basic::MirrorTopology;
use ape_core::graph::reset_thread_graph;
use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
use ape_farm::{Farm, FarmConfig, FarmError, SweepMetrics, SweepPlan};
use ape_netlist::Technology;

fn small_plan() -> SweepPlan {
    SweepPlan {
        gains: vec![100.0, 400.0],
        ugfs_hz: vec![1e6, 5e6],
        loads_f: vec![5e-12, 20e-12],
        topologies: vec![
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            OpAmpTopology::miller(MirrorTopology::Wilson, false),
        ],
        ibias_a: 10e-6,
        area_max_m2: 20_000e-12,
        zout_ohm: None,
    }
}

fn run_fresh() -> String {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    small_plan().run(&farm).to_jsonl()
}

#[test]
fn sweep_records_equal_cold_direct_designs() {
    let tech = Technology::default_1p2um();
    let plan = small_plan();
    let farm = Farm::new(tech.clone(), FarmConfig::default());
    let report = plan.run(&farm);
    assert_eq!(
        report.records.len(),
        plan.len(),
        "one record per grid point"
    );
    for record in &report.records {
        let p = record.point;
        let spec = OpAmpSpec {
            gain: p.gain,
            ugf_hz: p.ugf_hz,
            area_max_m2: plan.area_max_m2,
            ibias: plan.ibias_a,
            zout_ohm: None,
            cl: p.cl_f,
        };
        reset_thread_graph();
        let expect = OpAmp::design(&tech, p.topology, spec)
            .map(|amp| {
                let gain = amp.perf.dc_gain.map(f64::abs).unwrap_or(0.0);
                SweepMetrics {
                    area_um2: amp.perf.gate_area_m2 * 1e12,
                    power_mw: amp.perf.power_w * 1e3,
                    gain,
                    gain_err_frac: ((p.gain - gain) / p.gain).max(0.0),
                    ugf_hz: amp.perf.ugf_hz.unwrap_or(0.0),
                }
            })
            .map_err(|e| FarmError::from(e).to_string());
        // `{:?}` renders every f64 round-trip exact, so equal strings are
        // equal bits.
        assert_eq!(
            format!("{:?}", record.outcome),
            format!("{expect:?}"),
            "point {}",
            p.index
        );
    }
}

#[test]
fn fresh_farms_emit_identical_jsonl() {
    let first = run_fresh();
    assert_eq!(first, run_fresh(), "sweep output depends on the schedule");
    // The sweep must actually produce designs, not a wall of errors.
    assert!(
        first.lines().filter(|l| l.contains("\"area_um2\"")).count() >= small_plan().len() / 2,
        "most grid points should size successfully:\n{first}"
    );
    assert!(
        first.contains("\"pareto\":true"),
        "a non-empty sweep has a non-empty Pareto front"
    );
}
