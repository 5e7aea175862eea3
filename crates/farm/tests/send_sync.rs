// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Compile-time guarantees the farm relies on: every job payload and
//! result type crossing a thread boundary is `Clone + Send + Sync +
//! Debug`, and the farm's own handles are shareable. These are static
//! assertions — if a `Rc`/`RefCell` sneaks into a result type, this file
//! stops compiling.

use std::fmt::Debug;

fn assert_job_data<T: Clone + Send + Sync + Debug + 'static>() {}
fn assert_shareable<T: Send + Sync>() {}

#[test]
fn result_types_are_thread_safe_plain_data() {
    // Level 1–3 estimator outputs.
    assert_job_data::<ape_core::Performance>();
    assert_job_data::<ape_core::opamp::OpAmp>();
    assert_job_data::<ape_core::opamp::OpAmpSpec>();
    assert_job_data::<ape_core::opamp::OpAmpTopology>();
    assert_job_data::<ape_core::netest::NetlistEstimate>();
    assert_job_data::<ape_core::ApeError>();
    // Sized-device reports.
    assert_job_data::<ape_mos::sizing::SizedMos>();
    // Synthesis inputs and outcomes.
    assert_job_data::<ape_oblx::SynthesisOutcome>();
    assert_job_data::<ape_oblx::SynthesisOptions>();
    assert_job_data::<ape_oblx::InitialPoint>();
    assert_job_data::<ape_oblx::DesignPoint>();
    assert_job_data::<ape_oblx::AuditReport>();
    assert_job_data::<ape_oblx::OblxError>();
    // Netlist-level payloads.
    assert_job_data::<ape_netlist::Circuit>();
    assert_job_data::<ape_netlist::Technology>();
    // The farm's own job model.
    assert_job_data::<ape_farm::Request>();
    assert_job_data::<ape_farm::Response>();
    assert_job_data::<ape_farm::FarmError>();
    assert_job_data::<ape_farm::FarmStats>();
}

#[test]
fn farm_machinery_is_shareable_across_threads() {
    assert_shareable::<ape_farm::Farm>();
    assert_shareable::<ape_farm::JobHandle>();
    assert_shareable::<ape_core::cancel::CancelToken>();
}
