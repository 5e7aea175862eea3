// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! End-to-end check that the estimator emits probe telemetry: designing a
//! diff pair under a `SummarySink` must produce level-1 and level-2 spans
//! with the expected nesting, and a repeated solve must hit the estimation
//! graph's memo. An op-amp design then opens one `ape.<kind>` span per
//! graph node, nested from L3 down to L1.
//!
//! The probe sink is process-global, so everything lives in one `#[test]`
//! to avoid cross-test interference under the parallel test runner.

use ape_core::basic::{DiffPair, DiffTopology, MirrorTopology};
use ape_core::graph;
use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
use ape_netlist::Technology;
use ape_probe::SummarySink;
use std::sync::Arc;

#[test]
fn diffpair_design_emits_spans_and_graph_counters() {
    let tech = Technology::default_1p2um();
    graph::reset_thread_graph();

    let sink = Arc::new(SummarySink::new());
    ape_probe::install(sink.clone());

    DiffPair::design(&tech, DiffTopology::MirrorLoad, 20.0, 100e-6, 0.0)
        .expect("diff pair designs");
    // Same spec again: the whole l2 node is now a memo hit.
    DiffPair::design(&tech, DiffTopology::MirrorLoad, 20.0, 100e-6, 0.0)
        .expect("diff pair designs twice");

    ape_probe::uninstall();

    let spans = sink.spans();
    let l2 = spans
        .get("ape.l2.diffpair")
        .expect("level-2 diffpair span recorded");
    assert_eq!(l2.count, 2, "one span per design call");

    // Level-1 sizing spans come from the first (graph-cold) solve only:
    // the second solve answers the whole diff-pair node from the memo
    // without re-entering the solver.
    let l1: Vec<_> = spans
        .iter()
        .filter(|(name, _)| name.starts_with("ape.l1."))
        .map(|(_, agg)| *agg)
        .collect();
    let l1_total: u64 = l1.iter().map(|a| a.count).sum();
    assert!(
        l1_total >= 2,
        "cold solve sizes several devices, got {l1_total}"
    );
    for agg in &l1 {
        assert!(
            agg.min_depth > l2.min_depth,
            "l1 spans nest under l2: depth {} vs {}",
            agg.min_depth,
            l2.min_depth
        );
    }

    let counters = sink.counters();
    let hits = counters.get("ape.graph.hit").copied().unwrap_or(0);
    let misses = counters.get("ape.graph.miss").copied().unwrap_or(0);
    assert!(misses > 0, "first solve populates the graph");
    assert!(hits > 0, "second solve hits the graph memo");
    // Per-kind counters break the totals down; the l2 diff-pair node's own
    // hit is the second design call.
    let l2_hits = counters
        .get("ape.graph.l2.diffpair.hit")
        .copied()
        .unwrap_or(0);
    assert!(
        l2_hits >= 1,
        "repeat design hits the l2 node, got {l2_hits}"
    );

    let totals = graph::thread_graph_totals();
    assert_eq!(
        totals.hits as u64, hits,
        "probe counter mirrors graph stats"
    );
    assert_eq!(
        totals.misses as u64, misses,
        "probe counter mirrors graph stats"
    );
    assert!(graph::thread_graph_len() > 0);

    // The report names its span section entries.
    let report = sink.report();
    assert!(report.contains("ape.l2.diffpair"), "report:\n{report}");

    // One op-amp design on a cold graph, under a fresh sink: every node the
    // graph evaluates opens its own span, nested level by level.
    graph::reset_thread_graph();
    let sink = Arc::new(SummarySink::new());
    ape_probe::install(sink.clone());
    let spec = OpAmpSpec {
        gain: 200.0,
        ugf_hz: 5e6,
        area_max_m2: 5000e-12,
        ibias: 10e-6,
        zout_ohm: Some(10e3),
        cl: 10e-12,
    };
    OpAmp::design(
        &tech,
        OpAmpTopology::miller(MirrorTopology::Simple, true),
        spec,
    )
    .expect("op-amp designs");
    ape_probe::uninstall();

    let spans = sink.spans();
    let depth = |name: &str| {
        spans
            .get(name)
            .unwrap_or_else(|| panic!("{name} span missing; spans: {:?}", spans.keys()))
            .min_depth
    };
    let l3 = depth("ape.l3.opamp");
    let attempt = depth("ape.l3.opamp.attempt");
    let l2 = depth("ape.l2.diffpair");
    assert!(
        l3 < attempt,
        "attempt nests under the op-amp: {l3} vs {attempt}"
    );
    assert!(
        attempt < l2,
        "diff pair nests under the attempt: {attempt} vs {l2}"
    );
    // Level-1 sizing sits one level below whichever node sizes the
    // device: the attempt sizes its second stage and bias devices itself,
    // the diff pair its own pair, so L1 is never shallower than L2.
    for (name, agg) in spans.iter().filter(|(n, _)| n.starts_with("ape.l1.")) {
        assert!(
            agg.min_depth > attempt && agg.min_depth >= l2,
            "{name} nests under the attempt, level with or below the diff pair: \
             {} vs {attempt}/{l2}",
            agg.min_depth
        );
    }
    let kinds = graph::thread_graph_stats();
    assert!(kinds.len() >= 5, "op-amp graph kinds: {kinds:?}");
    for k in &kinds {
        let name = format!("ape.{}", k.kind);
        assert!(
            spans.contains_key(&name),
            "node kind {} has no {name} span",
            k.kind
        );
    }
    graph::reset_thread_graph();
}
