// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! End-to-end behaviour of the farm: real estimator jobs, deduplication,
//! cancellation, panic isolation, and backpressure. Every test must hold
//! at any executor size, down to one worker shared by all the tests in
//! this binary, so ordering is forced by gates, never by sleeps alone.

use ape_core::basic::MirrorTopology;
use ape_core::opamp::{OpAmpSpec, OpAmpTopology};
use ape_farm::{Farm, FarmConfig, FarmError, Request, Response};
use ape_netlist::Technology;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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
fn opamp_design_end_to_end() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let h = farm.submit(design(200.0));
    let resp = h.wait().expect("design succeeds");
    let amp = resp.as_opamp().expect("opamp response");
    assert!(amp.perf.dc_gain.unwrap().abs() >= 150.0);
    let stats = farm.stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.executed, 1);
}

/// Polls `flag` until set; a job that never sees it gives up after ten
/// seconds rather than hanging the suite.
fn wait_for(flag: &AtomicBool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

static GATE_RUNS: AtomicUsize = AtomicUsize::new(0);
static GATE_OPEN: AtomicBool = AtomicBool::new(false);

fn gated_job(_tech: &Technology) -> Result<Response, FarmError> {
    GATE_RUNS.fetch_add(1, Ordering::SeqCst);
    wait_for(&GATE_OPEN);
    Ok(Response::Text("gated done".into()))
}

#[test]
fn identical_submissions_run_once() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let req = Request::Custom {
        label: "dedup-probe",
        nonce: 1,
        run: gated_job,
    };
    // The gate keeps the first job in flight, so both duplicates join it.
    let handles: Vec<_> = (0..3).map(|_| farm.submit(req.clone())).collect();
    GATE_OPEN.store(true, Ordering::SeqCst);
    for h in handles {
        let r = h.wait().expect("shared flight succeeds");
        assert!(matches!(r, Response::Text(ref s) if s == "gated done"));
    }
    assert_eq!(
        GATE_RUNS.load(Ordering::SeqCst),
        1,
        "one execution in flight"
    );
    let stats = farm.stats();
    assert_eq!(stats.executed, 1);
    assert_eq!(
        stats.deduped, 2,
        "two submissions joined the flight: {stats:?}"
    );
    // The farm keeps no finished results: the same key after completion
    // runs again (repeats are cheap because the estimation graph memoizes).
    farm.submit(req).wait().expect("resubmission succeeds");
    assert_eq!(
        GATE_RUNS.load(Ordering::SeqCst),
        2,
        "a finished key runs afresh"
    );
    let stats = farm.stats();
    assert_eq!(
        (stats.submitted, stats.executed, stats.cache_hits),
        (4, 2, 0)
    );
}

fn panicking_job(_tech: &Technology) -> Result<Response, FarmError> {
    panic!("deliberate test panic");
}

#[test]
fn a_panicking_job_fails_alone() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let bad = farm.submit(Request::Custom {
        label: "panics",
        nonce: 2,
        run: panicking_job,
    });
    match bad.wait() {
        Err(FarmError::Panicked(msg)) => assert!(msg.contains("deliberate test panic")),
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The executor thread survived and keeps serving real jobs.
    let good = farm.submit(design(150.0));
    assert!(good.wait().is_ok());
    assert_eq!(farm.stats().panicked, 1);
}

#[test]
fn expired_deadline_cancels_jobs() {
    let cfg = FarmConfig {
        job_timeout: Some(Duration::from_millis(0)),
        ..FarmConfig::default()
    };
    let farm = Farm::new(Technology::default_1p2um(), cfg);
    let h = farm.submit(design(300.0));
    assert_eq!(h.wait().unwrap_err(), FarmError::Cancelled);
    assert_eq!(farm.stats().cancelled, 1);
}

/// Runs until its job is cancelled; gives up (successfully) after ten
/// seconds so a lost cancellation fails the assertion instead of hanging.
fn until_cancelled_job(_tech: &Technology) -> Result<Response, FarmError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        ape_core::cancel::check_current().map_err(|_| FarmError::Cancelled)?;
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Response::Text("never cancelled".into()))
}

#[test]
fn cancel_all_reaches_running_and_waiting_jobs() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let handles: Vec<_> = (0..4)
        .map(|i| {
            farm.submit(Request::Custom {
                label: "until-cancelled",
                nonce: i,
                run: until_cancelled_job,
            })
        })
        .collect();
    // Give the first job time to start, so the cancel reaches a running
    // job as well as waiting ones.
    std::thread::sleep(Duration::from_millis(50));
    farm.cancel_all();
    for h in handles {
        assert_eq!(h.wait().unwrap_err(), FarmError::Cancelled);
    }
    assert_eq!(farm.stats().cancelled, 4);
}

static HOLD_STARTED: AtomicBool = AtomicBool::new(false);
static HOLD_RELEASE: AtomicBool = AtomicBool::new(false);

fn held_job(_tech: &Technology) -> Result<Response, FarmError> {
    HOLD_STARTED.store(true, Ordering::SeqCst);
    wait_for(&HOLD_RELEASE);
    Ok(Response::Text("held done".into()))
}

fn quick_job(_tech: &Technology) -> Result<Response, FarmError> {
    Ok(Response::Text("quick".into()))
}

#[test]
fn admission_bound_gives_backpressure() {
    let cfg = FarmConfig {
        queue_capacity: 1,
        ..FarmConfig::default()
    };
    let farm = Farm::new(Technology::default_1p2um(), cfg);
    let held = Request::Custom {
        label: "bp",
        nonce: 10,
        run: held_job,
    };
    let quick = |nonce| Request::Custom {
        label: "bp",
        nonce,
        run: quick_job,
    };
    std::thread::scope(|s| {
        // The held job takes the only admission slot until released.
        let running = s.spawn(|| farm.submit(held.clone()).wait());
        assert!(wait_for(&HOLD_STARTED), "held job never started");
        // Distinct request: the farm is full, fail-fast refuses it.
        let rejected = farm.try_submit(quick(12));
        assert_eq!(rejected.wait().unwrap_err(), FarmError::QueueFull);
        assert_eq!(farm.stats().rejected, 1);
        // A duplicate of the in-flight request needs no admission, so
        // fail-fast submission shares it even while the farm is full.
        let shared = farm.try_submit(held.clone());
        assert!(shared.peek().is_none(), "joined the running flight");
        // Blocking submission waits for room.
        let blocked = s.spawn(|| farm.submit(quick(11)).wait());
        std::thread::sleep(Duration::from_millis(50));
        assert!(!blocked.is_finished(), "blocking submit must wait for room");
        HOLD_RELEASE.store(true, Ordering::SeqCst);
        assert!(running.join().unwrap().is_ok());
        assert!(shared.wait().is_ok());
        assert!(blocked.join().unwrap().is_ok());
    });
    // QueueFull was not sticky: the same request succeeds once room exists
    // (a job frees its slot before its waiters wake).
    assert!(farm.try_submit(quick(12)).wait().is_ok());
}

#[test]
fn shutdown_rejects_new_submissions() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    farm.shutdown();
    let h = farm.submit(design(120.0));
    assert_eq!(h.wait().unwrap_err(), FarmError::ShuttingDown);
}

/// Netlist-estimation jobs exercise the SPICE sparse solver (the ladder has
/// 11 unknowns, above the dense cutoff). A solve keeps nothing between
/// calls, so each farm answer equals, bit for bit, a direct estimate of the
/// same circuit made on this thread right after the other ladder.
#[test]
fn netlist_jobs_equal_direct_estimates_made_after_the_other_ladder() {
    use ape_core::netest::estimate_netlist;
    use ape_netlist::{Circuit, SourceWaveform};

    fn ladder(r: f64) -> Box<Circuit> {
        let mut c = Circuit::new("ladder");
        let mut prev = c.node("n0");
        c.add_vsource("VIN", prev, Circuit::GROUND, 1.0, 1.0, SourceWaveform::Dc)
            .unwrap();
        for k in 1..=9 {
            let next = c.node(&format!("n{k}"));
            c.add_resistor(&format!("R{k}"), prev, next, r).unwrap();
            c.add_capacitor(&format!("C{k}"), next, Circuit::GROUND, 10e-12)
                .unwrap();
            prev = next;
        }
        Box::new(c)
    }

    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    for (r, other) in [(1e3, 2e3), (2e3, 1e3)] {
        let circuit = ladder(r);
        let output = circuit.find_node("n9").expect("ladder output node");
        let resp = farm
            .submit(Request::NetlistEstimate {
                circuit: circuit.clone(),
                output,
            })
            .wait()
            .expect("netlist estimate succeeds");
        // A cold thread graph, so both estimates below run their solves
        // instead of answering from the memo.
        ape_core::graph::reset_thread_graph();
        let previous = ladder(other);
        let prev_out = previous.find_node("n9").expect("ladder output node");
        estimate_netlist(&previous, farm.technology(), prev_out).expect("other ladder");
        let direct = estimate_netlist(&circuit, farm.technology(), output).expect("direct");
        assert_eq!(
            format!("{:?}", resp.as_netlist().expect("netlist response")),
            format!("{direct:?}"),
            "ladder r = {r}"
        );
    }
}

/// Regression: a panicking job must not poison its key. Its waiters (the
/// owner and every deduplicated submission) all receive `Panicked`, and the
/// *next* submission of the same key runs afresh and can succeed.
#[test]
fn panicking_job_does_not_poison_the_cache() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let req = Request::Custom {
        label: "panic-then-recover",
        nonce: 77,
        run: panicking_job,
    };
    let handles: Vec<_> = (0..4).map(|_| farm.submit(req.clone())).collect();
    for h in handles {
        match h.wait() {
            Err(FarmError::Panicked(_)) => {}
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
    fn honest_job(_tech: &Technology) -> Result<Response, FarmError> {
        Ok(Response::Text("recovered".into()))
    }
    let again = farm.submit(Request::Custom {
        label: "panic-then-recover",
        nonce: 77,
        run: honest_job,
    });
    match again.wait() {
        Ok(Response::Text(s)) => assert_eq!(s, "recovered"),
        other => panic!("expected recovery, got {other:?}"),
    }
    assert!(farm.stats().panicked >= 1);
}
