// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Span-tree well-formedness across the farm boundary: every worker-side
//! `ape.farm.job` span must parent under the span that was open on the
//! submitting thread, and that parent must have been live (started, not
//! yet closed) when the job span started.
//!
//! One `#[test]` only: the probe sink is process-global and this file gets
//! its own test binary, so nothing else can race the install.

use ape_core::basic::MirrorTopology;
use ape_core::opamp::{OpAmpSpec, OpAmpTopology};
use ape_farm::{Farm, FarmConfig, Request};
use ape_netlist::Technology;
use ape_probe::ChromeTraceSink;
use std::sync::Arc;

fn design(gain: f64) -> Request {
    Request::OpAmpDesign {
        topology: OpAmpTopology::miller(MirrorTopology::Simple, false),
        spec: OpAmpSpec {
            gain,
            ugf_hz: 5e6,
            area_max_m2: 20_000e-12,
            ibias: 10e-6,
            zout_ohm: None,
            cl: 10e-12,
        },
    }
}

#[test]
fn worker_job_spans_parent_under_the_submitting_request() {
    let sink = Arc::new(ChromeTraceSink::new());
    ape_probe::install(sink.clone());

    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let request_span_id;
    {
        let request = ape_probe::span("sweep.request");
        request_span_id = request.id().expect("sink installed, span live");
        // Distinct gains: identical requests would dedupe into one job.
        let handles: Vec<_> = (0..8)
            .map(|i| farm.submit(design(150.0 + 10.0 * i as f64)))
            .collect();
        for h in handles {
            h.wait().expect("design succeeds");
        }
        // The request span closes only after every job finished, so it is
        // live for the whole sweep — exactly the production shape.
    }
    drop(farm);
    ape_probe::uninstall();

    let spans = sink.spans();
    let jobs: Vec<_> = spans.iter().filter(|s| s.name == "ape.farm.job").collect();
    assert_eq!(jobs.len(), 8, "one job span per distinct request");

    let request = spans
        .iter()
        .find(|s| s.name == "sweep.request")
        .expect("request span recorded");
    assert_eq!(request.id, request_span_id);

    for job in &jobs {
        // Every worker span has a parent, and it is the submitting request.
        let pid = job.parent.unwrap_or_else(|| {
            panic!("job span {job:?} floats as a root — parent link lost across the queue")
        });
        assert_eq!(pid, request.id, "job parents under the submitting span");
        // The parent exists in the record set, started before the child,
        // and was still live at the child's start.
        let parent = spans
            .iter()
            .find(|s| s.id == pid)
            .expect("parent record exists");
        assert!(
            parent.start_ns <= job.start_ns,
            "parent started after child: {parent:?} vs {job:?}"
        );
        assert!(
            parent.start_ns + parent.dur_ns >= job.start_ns,
            "parent closed before child started: {parent:?} vs {job:?}"
        );
        // Cross-thread propagation is the whole point: the job ran on an
        // executor thread, not the submitting one.
        assert_ne!(job.tid, request.tid, "job must run on a worker thread");
    }

    // The rendered Chrome trace carries flow arrows for those cross-thread
    // parent links.
    let json = sink.render();
    assert!(json.contains("\"ph\":\"s\""), "flow-start events present");
    assert!(json.contains("\"ph\":\"f\""), "flow-finish events present");
}
