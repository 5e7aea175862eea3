// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Incremental == cold, bit for bit.
//!
//! The estimation graph's contract is that a warm memo never changes an
//! answer: every node's key is a bit-exact fingerprint of its inputs, so
//! re-estimating after a delta (a warm graph with some subtrees still
//! valid) must produce results identical to a cold, from-scratch run.
//!
//! `f64`'s `Debug` rendering is the shortest string that round-trips
//! uniquely, so comparing `format!("{:?}")` of two results is a bit-exact
//! comparison of every float they carry.

use ape_core::basic::MirrorTopology;
use ape_core::folded::{FoldedCascodeOta, FoldedCascodeSpec};
use ape_core::graph::reset_thread_graph;
use ape_core::module::{
    AudioAmplifier, Comparator, FlashAdc, Integrator, InvertingAmplifier, NonInvertingAmplifier,
    R2rDac, SallenKeyBandPass, SallenKeyLowPass, SampleHold, SummingAmplifier,
};
use ape_core::netest::{estimate_netlist, estimate_netlist_incremental};
use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology, SpecDelta};
use ape_netlist::{Circuit, SourceWaveform, Technology};
use std::fmt::Debug;

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

fn all_topologies() -> Vec<OpAmpTopology> {
    let mut v = Vec::new();
    for mirror in [
        MirrorTopology::Simple,
        MirrorTopology::Wilson,
        MirrorTopology::Cascode,
    ] {
        for buffer in [false, true] {
            v.push(OpAmpTopology::miller(mirror, buffer));
        }
    }
    v
}

/// Runs `build` against a graph warmed by `warm_up`, then against a cold
/// graph, and requires the two results to render identically (bit-exact
/// for every float; errors must match message for message).
fn assert_warm_equals_cold<T: Debug, E: Debug>(
    warm_up: impl Fn(),
    build: impl Fn() -> Result<T, E>,
    label: &str,
) {
    reset_thread_graph();
    warm_up();
    let warm = build();
    reset_thread_graph();
    let cold = build();
    assert_eq!(
        format!("{warm:?}"),
        format!("{cold:?}"),
        "warm result diverged from cold for {label}"
    );
}

#[test]
fn incremental_redesign_is_bit_identical_across_topologies_and_deltas() {
    let tech = Technology::default_1p2um();
    let deltas = [
        SpecDelta {
            gain: Some(250.0),
            ..SpecDelta::default()
        },
        SpecDelta {
            ugf_hz: Some(6e6),
            ..SpecDelta::default()
        },
        SpecDelta {
            area_max_m2: Some(6000e-12),
            ..SpecDelta::default()
        },
        SpecDelta {
            ibias: Some(12e-6),
            ..SpecDelta::default()
        },
        SpecDelta {
            zout_ohm: Some(Some(2e3)),
            ..SpecDelta::default()
        },
        SpecDelta {
            cl: Some(12e-12),
            ..SpecDelta::default()
        },
    ];
    for topology in all_topologies() {
        for delta in &deltas {
            // Incremental: design the base spec (warming every subtree),
            // then redesign with the delta on the warm graph.
            reset_thread_graph();
            let base = OpAmp::design(&tech, topology, spec());
            let warm = base
                .as_ref()
                .map(|amp| OpAmp::redesign(&tech, amp, delta))
                .ok();
            // Cold: one from-scratch design of the post-delta spec.
            reset_thread_graph();
            let cold = OpAmp::design(&tech, topology, delta.apply(&spec()));
            if let Some(warm) = warm {
                assert_eq!(
                    format!("{warm:?}"),
                    format!("{cold:?}"),
                    "incremental redesign diverged for {topology:?} {delta:?}"
                );
            } else {
                // The base spec itself failed on this topology; the delta
                // path is vacuous, but the cold result must agree that the
                // base fails too (same inputs).
                reset_thread_graph();
                let base2 = OpAmp::design(&tech, topology, spec());
                assert_eq!(format!("{base:?}"), format!("{base2:?}"));
            }
        }
    }
}

#[test]
fn folded_cascode_warm_equals_cold() {
    let tech = Technology::default_1p2um();
    let fspec = FoldedCascodeSpec {
        gain: 300.0,
        ugf_hz: 8e6,
        ibias: 20e-6,
        cl: 5e-12,
    };
    let mut warm_spec = fspec;
    warm_spec.ugf_hz = 7e6;
    assert_warm_equals_cold(
        || {
            let _ = FoldedCascodeOta::design(&tech, warm_spec);
        },
        || FoldedCascodeOta::design(&tech, fspec),
        "folded cascode",
    );
}

#[test]
fn l4_modules_warm_equals_cold() {
    let tech = Technology::default_1p2um();

    assert_warm_equals_cold(
        || {
            let _ = InvertingAmplifier::design(&tech, 5.0, 50e3, 10e-12);
        },
        || InvertingAmplifier::design(&tech, 4.0, 50e3, 10e-12),
        "inverting amplifier",
    );
    assert_warm_equals_cold(
        || {
            let _ = NonInvertingAmplifier::design(&tech, 2.0, 25e3, 10e-12);
        },
        || NonInvertingAmplifier::design(&tech, 2.0, 20e3, 10e-12),
        "non-inverting amplifier",
    );
    assert_warm_equals_cold(
        || {
            let _ = AudioAmplifier::design(&tech, 100.0, 25e3, 10e-12);
        },
        || AudioAmplifier::design(&tech, 100.0, 20e3, 10e-12),
        "audio amplifier",
    );
    assert_warm_equals_cold(
        || {
            let _ = Comparator::design(&tech, 0.2, 1e-6);
        },
        || Comparator::design(&tech, 0.1, 1e-6),
        "comparator",
    );
    assert_warm_equals_cold(
        || {
            let _ = FlashAdc::design(&tech, 3, 1e-6);
        },
        || FlashAdc::design(&tech, 4, 1e-6),
        "flash adc",
    );
    assert_warm_equals_cold(
        || {
            let _ = R2rDac::design(&tech, 6, 1e5);
        },
        || R2rDac::design(&tech, 4, 1e5),
        "r-2r dac",
    );
    assert_warm_equals_cold(
        || {
            let _ = SallenKeyLowPass::design(&tech, 2e3, 4, 10e-12);
        },
        || SallenKeyLowPass::design(&tech, 1e3, 4, 10e-12),
        "sallen-key low-pass",
    );
    assert_warm_equals_cold(
        || {
            let _ = SallenKeyBandPass::design(&tech, 1e3, 2.0, 10e-12);
        },
        || SallenKeyBandPass::design(&tech, 1e3, 3.0, 10e-12),
        "sallen-key band-pass",
    );
    assert_warm_equals_cold(
        || {
            let _ = Integrator::design(&tech, 20e3, 10e-12);
        },
        || Integrator::design(&tech, 10e3, 10e-12),
        "integrator",
    );
    assert_warm_equals_cold(
        || {
            let _ = SummingAmplifier::design(&tech, &[1.0, 2.0], 20e3, 10e-12);
        },
        || SummingAmplifier::design(&tech, &[1.0, 2.0, 3.0], 20e3, 10e-12),
        "summing amplifier",
    );
    assert_warm_equals_cold(
        || {
            let _ = SampleHold::design(&tech, 2.0, 50e3, 10e-12);
        },
        || SampleHold::design(&tech, 2.0, 40e3, 10e-12),
        "sample-and-hold",
    );
}

/// The shared cross-thread memo is a pure read-through cache: a graph
/// served entirely out of another thread's published results must produce
/// bit-identical designs to a cold, isolated run.
#[test]
fn shared_memo_results_are_bit_identical_to_cold() {
    use ape_core::graph::{with_graph, SharedMemo};
    use std::sync::Arc;

    let tech = Technology::default_1p2um();
    let store = Arc::new(SharedMemo::new());
    // Designs every topology in this thread's graph over the store, and
    // reports how many requests the store answered.
    let design_over_store = |tech: Technology, store: Arc<SharedMemo>| {
        std::thread::spawn(move || {
            with_graph(&tech, None, Some(&store), |g| {
                let rendered = all_topologies()
                    .into_iter()
                    .map(|t| format!("{:?}", OpAmp::design_in(g, t, spec())))
                    .collect::<Vec<_>>();
                (rendered, g.totals().shared_hits)
            })
        })
    };

    // Publisher thread: designs every topology cold, filling the store.
    let (published, _) = design_over_store(tech.clone(), store.clone())
        .join()
        .expect("publisher thread");
    assert!(!store.is_empty(), "publisher populated the shared store");

    // Reader thread: same designs through the shared store.
    let (read_back, shared_hits) = design_over_store(tech.clone(), store.clone())
        .join()
        .expect("reader thread");
    assert!(
        shared_hits > 0,
        "reader must have been served from the shared store"
    );

    // Cold oracle: no shared store at all.
    reset_thread_graph();
    let cold: Vec<String> = all_topologies()
        .into_iter()
        .map(|t| format!("{:?}", OpAmp::design(&tech, t, spec())))
        .collect();

    assert_eq!(published, cold, "publisher diverged from cold");
    assert_eq!(read_back, cold, "shared-store reader diverged from cold");
}

/// The executor fan-out contract: `OpAmp::design_many_on` must agree slot
/// for slot, bit for bit, with the sequential `OpAmp::design` loop at
/// every worker count — scheduling is a performance knob, never an
/// observable one. Executors are built explicitly so real cross-thread
/// stealing happens even on a single-core machine.
#[test]
fn design_many_is_bit_identical_to_sequential_at_any_worker_count() {
    let tech = Technology::default_1p2um();
    let requests: Vec<(OpAmpTopology, OpAmpSpec)> =
        all_topologies().into_iter().map(|t| (t, spec())).collect();

    reset_thread_graph();
    let sequential: Vec<String> = requests
        .iter()
        .map(|&(t, s)| format!("{:?}", OpAmp::design(&tech, t, s)))
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let exec = ape_exec::Executor::new(workers);
        reset_thread_graph();
        let parallel = OpAmp::design_many_on(&exec, &tech, &requests);
        reset_thread_graph();
        for (k, (seq, par)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(
                *seq,
                format!("{par:?}"),
                "slot {k} diverged at {workers} workers"
            );
        }
    }
}

/// Same contract one level down: raw `evaluate_many` over a grid of
/// public level-1 sizing nodes, against the sequential per-node loop.
#[test]
fn evaluate_many_l1_grid_is_bit_identical_to_sequential() {
    use ape_core::graph::{evaluate_many, with_thread_graph, SizeForIdVov};

    let tech = Technology::default_1p2um();
    let nodes: Vec<SizeForIdVov> = (1..=24)
        .map(|k| SizeForIdVov {
            pmos: k % 2 == 0,
            id: k as f64 * 5e-6,
            vov: 0.2 + 0.01 * k as f64,
            l: 2.4e-6,
            vds: 1.2,
            vsb: 0.0,
        })
        .collect();

    reset_thread_graph();
    let sequential: Vec<String> = nodes
        .iter()
        .map(|n| format!("{:?}", with_thread_graph(&tech, |g| g.evaluate(n))))
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let exec = ape_exec::Executor::new(workers);
        reset_thread_graph();
        let parallel = with_thread_graph(&tech, |g| evaluate_many(&exec, g, &nodes));
        reset_thread_graph();
        for (k, (seq, par)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(
                *seq,
                format!("{par:?}"),
                "L1 node {k} diverged at {workers} workers"
            );
        }
    }
}

/// Level-4 modules after an executor fan-out: `design_many_on` enters this
/// thread's graph and the tasks it help-runs here leave their l1/l2/l3
/// subtrees in it, and module designs reading that warm graph must still
/// match a cold run bit for bit.
#[test]
fn l4_modules_are_unchanged_by_parallel_warm_up() {
    type ModuleRender = fn(&Technology) -> String;
    let tech = Technology::default_1p2um();
    let modules: [(&str, ModuleRender); 4] = [
        ("inverting amplifier", |t| {
            format!("{:?}", InvertingAmplifier::design(t, 5.0, 50e3, 10e-12))
        }),
        ("audio amplifier", |t| {
            format!("{:?}", AudioAmplifier::design(t, 100.0, 25e3, 10e-12))
        }),
        ("sallen-key low-pass", |t| {
            format!("{:?}", SallenKeyLowPass::design(t, 2e3, 4, 10e-12))
        }),
        ("sample-and-hold", |t| {
            format!("{:?}", SampleHold::design(t, 2.0, 50e3, 10e-12))
        }),
    ];

    // Cold oracle: fresh graph per module.
    let cold: Vec<String> = modules
        .iter()
        .map(|(_, build)| {
            reset_thread_graph();
            build(&tech)
        })
        .collect();

    // Warm this thread's graph through the executor, then design every
    // module in it without a reset.
    reset_thread_graph();
    let requests: Vec<(OpAmpTopology, OpAmpSpec)> =
        all_topologies().into_iter().map(|t| (t, spec())).collect();
    let exec = ape_exec::Executor::new(4);
    let _ = OpAmp::design_many_on(&exec, &tech, &requests);
    let warm: Vec<String> = modules.iter().map(|(_, build)| build(&tech)).collect();
    reset_thread_graph();

    for (((name, _), c), w) in modules.iter().zip(&cold).zip(&warm) {
        assert_eq!(c, w, "{name} diverged after the executor warm-up");
    }
}

fn rc_ladder(r: f64, stages: usize) -> Circuit {
    let mut c = Circuit::new("ladder");
    let mut prev = c.node("n0");
    c.add_vsource("VIN", prev, Circuit::GROUND, 1.0, 1.0, SourceWaveform::Dc)
        .unwrap();
    for k in 1..=stages {
        let next = c.node(&format!("n{k}"));
        c.add_resistor(&format!("R{k}"), prev, next, r).unwrap();
        c.add_capacitor(&format!("C{k}"), next, Circuit::GROUND, 10e-12)
            .unwrap();
        prev = next;
    }
    c
}

#[test]
fn netlist_incremental_short_circuits_and_stays_exact() {
    let tech = Technology::default_1p2um();
    let ckt = rc_ladder(1e3, 6);
    let out = ckt.find_node("n6").unwrap();

    reset_thread_graph();
    let first = estimate_netlist(&ckt, &tech, out).unwrap();

    // Unchanged circuit: the incremental path answers from the previous
    // estimate (same input fingerprint) and must be identical.
    let again = estimate_netlist_incremental(&ckt, &tech, out, &first).unwrap();
    assert_eq!(format!("{first:?}"), format!("{again:?}"));

    // Changed circuit: the incremental path must fall through to a fresh
    // estimate that matches a cold one bit for bit.
    let changed = rc_ladder(2e3, 6);
    let out2 = changed.find_node("n6").unwrap();
    let incr = estimate_netlist_incremental(&changed, &tech, out2, &first).unwrap();
    reset_thread_graph();
    let cold = estimate_netlist(&changed, &tech, out2).unwrap();
    assert_eq!(format!("{incr:?}"), format!("{cold:?}"));
    assert_ne!(
        first.input_fingerprint, cold.input_fingerprint,
        "distinct circuits must have distinct input fingerprints"
    );
}

/// An identity calibration table (registered but empty) must be provably
/// bit-identical to running with no table at all: corrections are keyed
/// into every memo entry, but an empty table corrects nothing.
#[test]
fn identity_calibration_is_bit_identical_to_uncalibrated() {
    use ape_calib::Calibration;
    use ape_core::graph::set_thread_calibration;
    use std::sync::Arc;

    let tech = Technology::default_1p2um();

    set_thread_calibration(None);
    reset_thread_graph();
    let plain: Vec<String> = all_topologies()
        .into_iter()
        .map(|t| format!("{:?}", OpAmp::design(&tech, t, spec())))
        .collect();
    let plain_modules = format!(
        "{:?} {:?}",
        AudioAmplifier::design(&tech, 100.0, 25e3, 10e-12),
        SallenKeyLowPass::design(&tech, 2e3, 4, 10e-12)
    );

    let identity = Calibration::identity(tech.fingerprint(), "identity");
    assert!(identity.is_empty());
    set_thread_calibration(Some(Arc::new(identity)));
    reset_thread_graph();
    let calibrated: Vec<String> = all_topologies()
        .into_iter()
        .map(|t| format!("{:?}", OpAmp::design(&tech, t, spec())))
        .collect();
    let calibrated_modules = format!(
        "{:?} {:?}",
        AudioAmplifier::design(&tech, 100.0, 25e3, 10e-12),
        SallenKeyLowPass::design(&tech, 2e3, 4, 10e-12)
    );
    set_thread_calibration(None);
    reset_thread_graph();

    assert_eq!(plain, calibrated, "identity table changed an op-amp design");
    assert_eq!(
        plain_modules, calibrated_modules,
        "identity table changed a module design"
    );
}

/// Re-registering a different table under the same technology must
/// invalidate every memoized estimate: answers under table B match a cold
/// run under B even when the thread graph is still warm from table A.
#[test]
fn reregistered_calibration_invalidates_warm_memo() {
    use ape_calib::Calibration;
    use ape_core::graph::set_thread_calibration;
    use std::sync::Arc;

    let tech = Technology::default_1p2um();
    let table = |factor: f64| {
        let mut t = Calibration::identity(tech.fingerprint(), "swap");
        t.set("l3.opamp", "dc_gain", factor, &[]).unwrap();
        Arc::new(t)
    };
    let topo = OpAmpTopology::miller(MirrorTopology::Simple, false);

    // Cold oracle under table B only.
    set_thread_calibration(Some(table(1.5)));
    reset_thread_graph();
    let cold_b = format!("{:?}", OpAmp::design(&tech, topo, spec()));

    // Warm under A, then swap to B without resetting the thread graph.
    set_thread_calibration(Some(table(1.25)));
    reset_thread_graph();
    let under_a = format!("{:?}", OpAmp::design(&tech, topo, spec()));
    set_thread_calibration(Some(table(1.5)));
    let under_b = format!("{:?}", OpAmp::design(&tech, topo, spec()));
    set_thread_calibration(None);
    reset_thread_graph();

    assert_ne!(under_a, under_b, "different tables must change the answer");
    assert_eq!(
        under_b, cold_b,
        "warm memo from table A leaked into table B's answers"
    );
}

/// Persistence round-trip: a saved table loads back with the same content
/// fingerprint, and estimates under the reloaded table are bit-identical
/// to the original — sequentially and fanned out on 1 and 8 workers over
/// a shared memo.
#[test]
fn calibration_persistence_round_trip_is_bit_identical() {
    use ape_calib::Calibration;
    use ape_core::graph::{with_graph, SharedMemo};
    use std::sync::Arc;

    let tech = Technology::default_1p2um();
    let mut table = Calibration::identity(tech.fingerprint(), "round-trip");
    table
        .set("l3.opamp", "dc_gain", 1.07, &[0.013, -0.008])
        .unwrap();
    table.set("l3.opamp", "ugf_hz", 0.91, &[]).unwrap();
    table.set("l2.mirror", "power_w", 1.02, &[]).unwrap();
    table
        .set("l4.audio_amp", "bw_hz", 0.83, &[0.05, 0.0])
        .unwrap();

    let reloaded = Calibration::parse(&table.render()).expect("canonical text parses");
    assert_eq!(
        reloaded.fingerprint(),
        table.fingerprint(),
        "render → parse must recover the table bit-exactly"
    );

    let requests: Vec<(OpAmpTopology, OpAmpSpec)> =
        all_topologies().into_iter().map(|t| (t, spec())).collect();
    let run = |cal: &Arc<Calibration>, workers: usize| -> Vec<String> {
        let store = Arc::new(SharedMemo::new());
        let out = with_graph(&tech, Some(cal), Some(&store), |g| {
            if workers == 0 {
                requests
                    .iter()
                    .map(|&(t, s)| format!("{:?}", OpAmp::design_in(g, t, s)))
                    .collect()
            } else {
                let exec = ape_exec::Executor::new(workers);
                OpAmp::design_many_in(&exec, g, &requests)
                    .iter()
                    .map(|r| format!("{r:?}"))
                    .collect()
            }
        });
        reset_thread_graph();
        out
    };

    let original = Arc::new(table);
    let reloaded = Arc::new(reloaded);
    let baseline = run(&original, 0);
    for workers in [1usize, 8] {
        assert_eq!(
            run(&original, workers),
            baseline,
            "original table diverged at {workers} workers"
        );
        assert_eq!(
            run(&reloaded, workers),
            baseline,
            "reloaded table diverged at {workers} workers"
        );
    }
}
