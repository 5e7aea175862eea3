// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Multi-tenant technologies, per-submission options, and the farm's own
//! estimation memo store.

use ape_calib::Calibration;
use ape_core::basic::MirrorTopology;
use ape_core::cancel::CancelToken;
use ape_core::graph::{with_graph, EstimationGraph};
use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
use ape_farm::{Farm, FarmConfig, FarmError, Request, SubmitOptions, MAX_REGISTERED};
use ape_netlist::Technology;
use std::sync::Arc;
use std::time::Duration;

fn spec(gain: f64) -> OpAmpSpec {
    OpAmpSpec {
        gain,
        ugf_hz: 5e6,
        area_max_m2: 20_000e-12,
        ibias: 10e-6,
        zout_ohm: None,
        cl: 10e-12,
    }
}

fn design(gain: f64) -> Request {
    Request::OpAmpDesign {
        topology: OpAmpTopology::miller(MirrorTopology::Simple, false),
        spec: spec(gain),
    }
}

#[test]
fn tenant_technology_selects_the_registered_card() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let other = Technology::default_0p5um();
    let fp = farm
        .register_technology(other.clone())
        .expect("room to register");
    assert_eq!(fp, other.fingerprint());
    assert!(farm.technology_by_fingerprint(fp).is_some());
    // The default technology is registered at construction too.
    assert!(farm
        .technology_by_fingerprint(farm.technology().fingerprint())
        .is_some());

    let h = farm.submit_opts(
        design(200.0),
        SubmitOptions {
            technology: Some(fp),
            ..SubmitOptions::default()
        },
    );
    let tenant_amp = h.wait().expect("tenant design succeeds");
    let default_amp = farm.submit(design(200.0)).wait().expect("default design");

    // Same request under two technologies: distinct results, each
    // bit-identical to a direct design against its own card.
    let direct = OpAmp::design(
        &other,
        OpAmpTopology::miller(MirrorTopology::Simple, false),
        spec(200.0),
    )
    .expect("direct design");
    assert_eq!(
        format!("{:?}", tenant_amp.as_opamp().unwrap()),
        format!("{direct:?}")
    );
    assert_ne!(
        format!("{:?}", tenant_amp.as_opamp().unwrap()),
        format!("{:?}", default_amp.as_opamp().unwrap())
    );
}

/// Registrations stay resident, so a client may add at most
/// `MAX_REGISTERED` technologies and as many calibration tables. A new
/// fingerprint past the cap is refused and stores nothing; one already
/// present registers again at the cap, and the default card never counts.
#[test]
fn registrations_stop_at_the_cap_and_re_registering_is_idempotent() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let card = |k: usize| {
        let mut tech = Technology::default_1p2um();
        tech.vdd = 3.0 + 0.01 * k as f64;
        tech
    };
    let default_fp = farm.technology().fingerprint();
    let techs: Vec<u64> = (0..MAX_REGISTERED)
        .map(|k| farm.register_technology(card(k)).expect("under the cap"))
        .collect();
    let refused = card(MAX_REGISTERED);
    assert_eq!(
        farm.register_technology(refused.clone()),
        Err(FarmError::RegistryFull)
    );
    assert!(farm
        .technology_by_fingerprint(refused.fingerprint())
        .is_none());
    for (k, &fp) in techs.iter().enumerate() {
        assert_eq!(farm.register_technology(card(k)), Ok(fp));
    }
    assert_eq!(
        farm.register_technology(Technology::default_1p2um()),
        Ok(default_fp)
    );

    let table = |k: usize| ape_calib::Calibration::identity(default_fp, &format!("t{k}"));
    let tables: Vec<u64> = (0..MAX_REGISTERED)
        .map(|k| farm.register_calibration(table(k)).expect("under the cap"))
        .collect();
    let refused = table(MAX_REGISTERED);
    assert_eq!(
        farm.register_calibration(refused.clone()),
        Err(FarmError::RegistryFull)
    );
    assert!(farm
        .calibration_by_fingerprint(refused.fingerprint())
        .is_none());
    for (k, &fp) in tables.iter().enumerate() {
        assert_eq!(farm.register_calibration(table(k)), Ok(fp));
    }

    // Registered entries keep working at the cap.
    let h = farm.submit_opts(
        design(200.0),
        SubmitOptions {
            technology: Some(techs[0]),
            ..SubmitOptions::default()
        },
    );
    assert!(h.wait().is_ok());
}

#[test]
fn unknown_technology_resolves_immediately_without_touching_the_cache() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let h = farm.submit_opts(
        design(200.0),
        SubmitOptions {
            technology: Some(0xDEAD_BEEF),
            ..SubmitOptions::default()
        },
    );
    assert!(matches!(
        h.peek(),
        Some(Err(FarmError::UnknownTechnology(0xDEAD_BEEF)))
    ));
    assert!(matches!(
        h.wait(),
        Err(FarmError::UnknownTechnology(0xDEAD_BEEF))
    ));
    assert_eq!(farm.stats().rejected, 1);
    assert_eq!(farm.stats().executed, 0);

    // An honest submission of the same request afterwards succeeds: the
    // rejected one never joined a flight.
    assert!(farm.submit(design(200.0)).wait().is_ok());
}

#[test]
fn caller_owned_token_cancels_the_job() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let token = CancelToken::new();
    token.cancel();
    let h = farm.submit_opts(
        design(321.5),
        SubmitOptions {
            token: Some(token),
            ..SubmitOptions::default()
        },
    );
    assert!(matches!(h.wait(), Err(FarmError::Cancelled)));
}

#[test]
fn per_submission_deadline_expires_a_stuck_job() {
    fn stuck(_tech: &Technology) -> Result<ape_farm::Response, FarmError> {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            ape_core::cancel::check_current().map_err(|_| FarmError::Cancelled)?;
            if std::time::Instant::now() > deadline {
                return Ok(ape_farm::Response::Text("never".into()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let h = farm.submit_opts(
        Request::Custom {
            label: "deadline-probe",
            nonce: 7,
            run: stuck,
        },
        SubmitOptions {
            deadline: Some(Duration::from_millis(20)),
            ..SubmitOptions::default()
        },
    );
    assert!(matches!(h.wait(), Err(FarmError::Cancelled)));
}

/// With the shared graph enabled, a subtree computed on one thread is
/// served to every other. Checked by construction rather than by
/// scheduling: after the farm has answered, this thread designs a spec the
/// farm already answered in a graph over the farm's store. The lookup must
/// be a store hit, and every answer must be bit-identical to a direct
/// design on a cold, store-less graph.
#[test]
fn shared_graph_skips_redundant_worker_warmup() {
    let config = FarmConfig {
        shared_graph: true,
        ..FarmConfig::default()
    };
    let farm = Farm::new(Technology::default_1p2um(), config);
    let store = farm.shared_memo().expect("shared graph enabled").clone();

    let gains: Vec<f64> = (0..16).map(|i| 150.0 + 10.0 * f64::from(i)).collect();
    let handles: Vec<_> = gains.iter().map(|&g| farm.submit(design(g))).collect();
    let results: Vec<String> = handles
        .iter()
        .map(|h| {
            format!(
                "{:?}",
                h.wait().expect("design succeeds").as_opamp().unwrap()
            )
        })
        .collect();
    assert!(store.stats().inserts > 0);

    // Bit-identical to direct designs on a cold, store-less thread graph.
    ape_core::graph::reset_thread_graph();
    for (g, farm_result) in gains.iter().zip(&results) {
        let direct = OpAmp::design(
            farm.technology(),
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            spec(*g),
        )
        .expect("direct design");
        assert_eq!(farm_result, &format!("{direct:?}"), "gain {g}");
    }

    // A graph over the farm's store finds the farm's answer there: the
    // top-level lookup hits, so nothing is computed and nothing misses.
    let before = store.stats();
    let again = with_graph(farm.technology(), None, Some(&store), |g| {
        OpAmp::design_in(
            g,
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            spec(gains[0]),
        )
    })
    .expect("design through the shared store");
    let after = store.stats();
    assert!(
        after.hits > before.hits && after.misses == before.misses,
        "the farm's answer must be served from the shared store: {before:?} -> {after:?}"
    );
    assert_eq!(format!("{again:?}"), results[0]);

    assert!(farm.report().contains("shared memo"));
}

/// Jobs with different inputs interleave on the executor threads, each in
/// its thread's graph for its own technology, its own table and the farm's
/// store: every answer equals a design in a fresh store-less graph built
/// from that job's inputs.
#[test]
fn interleaved_jobs_answer_as_their_own_graphs() {
    let config = FarmConfig {
        shared_graph: true,
        ..FarmConfig::default()
    };
    let farm = Farm::new(Technology::default_1p2um(), config);
    let default = farm.technology().clone();
    let tenant = Technology::default_0p5um();
    let tenant_fp = farm.register_technology(tenant.clone()).unwrap();
    let mut table = Calibration::identity(default.fingerprint(), "interleaved");
    table.set("l3.opamp", "dc_gain", 1.5, &[]).unwrap();
    let calib_fp = farm.register_calibration(table.clone()).unwrap();
    let inputs = [
        (&default, None, SubmitOptions::default()),
        (
            &tenant,
            None,
            SubmitOptions {
                technology: Some(tenant_fp),
                ..SubmitOptions::default()
            },
        ),
        (
            &default,
            Some(Arc::new(table)),
            SubmitOptions {
                calibration: Some(calib_fp),
                ..SubmitOptions::default()
            },
        ),
    ];
    let jobs: Vec<_> = (0..24)
        .map(|k| {
            let gain = 150.0 + 10.0 * (k / 3) as f64;
            let (tech, calib, opts) = &inputs[k % 3];
            let handle = farm.submit_opts(design(gain), opts.clone());
            (k, gain, *tech, calib, handle)
        })
        .collect();
    for (k, gain, tech, calib, handle) in jobs {
        let graph = EstimationGraph::new(tech, None, calib.clone());
        let own = OpAmp::design_in(
            &graph,
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            spec(gain),
        )
        .expect("design in the job's own graph");
        let answer = handle.wait().expect("farm design");
        assert_eq!(
            format!("{:?}", answer.as_opamp().unwrap()),
            format!("{own:?}"),
            "job {k}"
        );
    }
}
