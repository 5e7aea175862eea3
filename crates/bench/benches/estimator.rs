//! Benches for the estimator itself — the paper's §5 CPU claim ("The CPU
//! time required to execute the APE for all the ten opamps combined was
//! 0.12 seconds").
//!
//! Run with `cargo bench -p ape-bench --bench estimator`; set
//! `APE_TRACE=summary` to also get the probe report for the benched code.

use ape_bench::harness::BenchGroup;
use ape_bench::specs::{table1_opamps, table3_opamps};
use ape_core::basic::{DiffPair, DiffTopology};
use ape_core::graph::EstimationGraph;
use ape_core::module::{SallenKeyLowPass, SampleHold};
use ape_core::opamp::OpAmp;
use ape_netlist::Technology;
use std::hint::black_box;

fn main() {
    let _trace = ape_probe::install_from_env();
    let tech = Technology::default_1p2um();
    let mut g = BenchGroup::new("estimator", 20);

    // The headline: all ten Table 1 op-amps sized by APE.
    let tasks = table1_opamps();
    g.bench("ape_ten_opamps", || {
        for task in &tasks {
            let amp =
                OpAmp::design(&tech, task.topology, task.spec).expect("every Table 1 spec sizes");
            black_box(amp.perf.gate_area_m2);
        }
    });

    let task = table3_opamps().remove(3);
    g.bench("ape_single_opamp", || {
        black_box(OpAmp::design(&tech, task.topology, task.spec).expect("sizes"))
    });

    g.bench("ape_diff_pair", || {
        black_box(
            DiffPair::design(&tech, DiffTopology::MirrorLoad, 1000.0, 1e-6, 1e-12).expect("sizes"),
        )
    });

    g.bench("ape_sallen_key_lpf4", || {
        black_box(SallenKeyLowPass::design(&tech, 1e3, 4, 10e-12).expect("sizes"))
    });

    g.bench("ape_sample_hold", || {
        black_box(SampleHold::design(&tech, 2.0, 40e3, 10e-12).expect("sizes"))
    });

    // The paper's "sized transistor objects" reuse: repeated operating
    // points answered from the graph's level-1 memo vs re-solved.
    let graph = EstimationGraph::new(&tech, None, None);
    let vds = tech.vdd / 2.0;
    graph
        .size_gm_id(false, 100e-6, 10e-6, 2.4e-6, vds, 0.0)
        .expect("seeds");
    g.bench("sizing_cached", || {
        black_box(
            graph
                .size_gm_id(false, 100e-6, 10e-6, 2.4e-6, vds, 0.0)
                .expect("hits"),
        )
    });
    let nmos = tech.nmos().expect("nmos");
    g.bench("sizing_uncached", || {
        black_box(ape_mos::sizing::size_for_gm_id(nmos, 100e-6, 10e-6, 2.4e-6).expect("solves"))
    });

    g.finish();
    ape_probe::finish();
}
