// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! End-to-end protocol behaviour over real TCP connections: happy paths,
//! hostile input, admission control, cancellation, and disconnects. Every
//! hostile case must produce a typed error (or clean cancellation) and
//! leave the server answering `ping` — never a wedged worker.

use ape_netlist::Technology;
use ape_serve::client::{is_code, Client};
use ape_serve::json::{n, obj, s, Value};
use ape_serve::{ErrorCode, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", Technology::default_1p2um(), config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn design_fields(gain: f64) -> Value {
    obj([
        ("topology", obj([("mirror", s("simple"))])),
        (
            "spec",
            obj([
                ("gain", n(gain)),
                ("ugf_hz", n(5e6)),
                ("area_max_m2", n(20e-9)),
                ("ibias", n(1e-5)),
                ("cl", n(1e-11)),
            ]),
        ),
    ])
}

#[test]
fn ping_stats_metrics_round_trip() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c.ping().unwrap());

    let stats = c.call("stats", obj([])).unwrap().outcome.unwrap();
    assert!(stats.get("farm").is_some());
    assert!(stats.get("serve").is_some());

    let metrics = c.call("metrics", obj([])).unwrap().outcome.unwrap();
    let text = metrics.get("text").and_then(Value::as_str).unwrap();
    assert!(text.contains("ape_serve_requests"), "{text}");
    server.stop();
}

#[test]
fn design_round_trips() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let reply = c.call("design", design_fields(200.0)).unwrap();
    let result = reply.outcome.expect("design ok");
    let gain = result
        .get("perf")
        .and_then(|p| p.get("dc_gain"))
        .and_then(Value::as_f64)
        .expect("dc_gain");
    assert!(gain.abs() >= 150.0);
    assert!(result.get("cc").and_then(Value::as_f64).unwrap() > 0.0);
    server.stop();
}

#[test]
fn estimate_round_trips_and_rejects_bad_decks() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let deck = "* rc\nV1 in 0 DC 1 AC 1\nR1 in out 1k\nC1 out 0 1p\n.end\n";
    let reply = c
        .call("estimate", obj([("deck", s(deck)), ("output", s("out"))]))
        .unwrap();
    let result = reply.outcome.expect("estimate ok");
    assert!(result.get("perf").is_some());

    // Unknown output node: typed estimator error.
    let bad = c
        .call("estimate", obj([("deck", s(deck)), ("output", s("nope"))]))
        .unwrap();
    assert!(is_code(
        &bad.outcome.unwrap_err(),
        ErrorCode::EstimatorError
    ));

    // Garbage deck: typed estimator error, server still alive.
    let bad = c
        .call(
            "estimate",
            obj([("deck", s("Q1 what is this")), ("output", s("x"))]),
        )
        .unwrap();
    assert!(is_code(
        &bad.outcome.unwrap_err(),
        ErrorCode::EstimatorError
    ));
    assert!(c.ping().unwrap());
    server.stop();
}

/// An RC-ladder deck driven at `in` whose linearised system has
/// `unknowns` unknowns (the source's branch current plus the nodes).
fn ladder_deck(unknowns: usize) -> String {
    let mut deck = String::from("* ladder\nV1 in 0 DC 0 AC 1\n");
    let mut prev = "in".to_string();
    for k in 1..unknowns - 1 {
        deck.push_str(&format!("R{k} {prev} n{k} 1k\nC{k} n{k} 0 1p\n"));
        prev = format!("n{k}");
    }
    deck + ".end\n"
}

#[test]
fn estimate_refuses_a_deck_past_the_unknowns_cap() {
    use ape_core::netest::MAX_NETLIST_UNKNOWNS;
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let far_end = |unknowns: usize| format!("n{}", unknowns - 2);
    let at_cap = c
        .call(
            "estimate",
            obj([
                ("deck", s(&ladder_deck(MAX_NETLIST_UNKNOWNS))),
                ("output", s(&far_end(MAX_NETLIST_UNKNOWNS))),
            ]),
        )
        .unwrap();
    assert!(at_cap.outcome.is_ok(), "{:?}", at_cap.outcome);
    let over = c
        .call(
            "estimate",
            obj([
                ("deck", s(&ladder_deck(MAX_NETLIST_UNKNOWNS + 1))),
                ("output", s(&far_end(MAX_NETLIST_UNKNOWNS + 1))),
            ]),
        )
        .unwrap();
    let err = over.outcome.unwrap_err();
    assert!(is_code(&err, ErrorCode::Oversized), "{err:?}");
    assert_eq!(err.status, 413);
    assert!(c.ping().unwrap());
    server.stop();
}

#[test]
fn tenants_register_and_select() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let reply = c
        .call("register_tech", obj([("base", s("0p5um"))]))
        .unwrap();
    let fp = reply
        .outcome
        .unwrap()
        .get("technology")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    let mut fields = design_fields(200.0);
    if let Value::Obj(m) = &mut fields {
        m.insert("technology".to_string(), Value::Str(fp));
    }
    let tenant = c
        .call("design", fields)
        .unwrap()
        .outcome
        .expect("tenant ok");
    let default = c
        .call("design", design_fields(200.0))
        .unwrap()
        .outcome
        .expect("default ok");
    // Different supply rails → different designs.
    assert_ne!(tenant.render(), default.render());

    // A second connection sees the same tenant registry.
    let mut c2 = Client::connect(server.addr()).unwrap();
    let mut fields = design_fields(200.0);
    if let Value::Obj(m) = &mut fields {
        m.insert(
            "technology".to_string(),
            Value::Str(format!(
                "{:#018x}",
                Technology::default_0p5um().fingerprint()
            )),
        );
    }
    let again = c2
        .call("design", fields)
        .unwrap()
        .outcome
        .expect("cross-conn tenant");
    assert_eq!(tenant.render(), again.render());
    server.stop();
}

/// A client can register at most `MAX_REGISTERED` (64) technologies: the
/// 65th distinct card answers the typed `registry_full`, which no retry
/// can fix, and the connection keeps answering.
#[test]
fn registration_flood_stops_at_the_cap() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let register = |c: &mut Client, k: usize| {
        c.call(
            "register_tech",
            obj([("base", s("1p2um")), ("vdd", n(3.0 + 0.01 * k as f64))]),
        )
        .unwrap()
        .outcome
    };
    for k in 0..64 {
        assert!(register(&mut c, k).is_ok(), "registration {k}");
    }
    let err = register(&mut c, 64).unwrap_err();
    assert!(is_code(&err, ErrorCode::RegistryFull), "{err}");
    assert_eq!(err.status, 507);
    assert!(!err.retryable);
    // Registering a card that is already present still answers.
    assert!(register(&mut c, 0).is_ok());
    assert!(c.ping().unwrap());
    server.stop();
}

#[test]
fn unknown_technology_is_typed() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let mut fields = design_fields(200.0);
    if let Value::Obj(m) = &mut fields {
        m.insert("technology".to_string(), s("0xdeadbeefdeadbeef"));
    }
    let reply = c.call("design", fields).unwrap();
    let err = reply.outcome.unwrap_err();
    assert!(is_code(&err, ErrorCode::UnknownTechnology));
    assert_eq!(err.status, 404);
    assert!(c.ping().unwrap());
    server.stop();
}

#[test]
fn hostile_lines_get_typed_errors_and_never_wedge() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    for line in [
        "garbage",
        "{\"op\":",
        "{\"op\":\"design\"}",
        "{\"id\":1}",
        "{\"op\":\"nope\",\"id\":2}",
        "[1,2,3]",
        "{\"op\":\"design\",\"id\":3,\"topology\":{\"mirror\":\"bogus\"},\"spec\":{}}",
        "\u{0}\u{1}\u{2}",
    ] {
        c.send_raw(line).unwrap();
        let reply = c.recv().unwrap();
        let err = reply.outcome.unwrap_err();
        assert!(
            is_code(&err, ErrorCode::BadRequest),
            "line {line:?} → {err}"
        );
    }
    assert!(c.ping().unwrap());
    server.stop();
}

#[test]
fn oversized_line_resyncs() {
    let config = ServerConfig {
        max_line_bytes: 4096,
        ..ServerConfig::default()
    };
    let server = start(config);
    let mut c = Client::connect(server.addr()).unwrap();
    let big = format!(
        "{{\"op\":\"ping\",\"id\":1,\"pad\":\"{}\"}}",
        "x".repeat(10_000)
    );
    c.send_raw(&big).unwrap();
    let reply = c.recv().unwrap();
    let err = reply.outcome.unwrap_err();
    assert!(is_code(&err, ErrorCode::Oversized));
    assert_eq!(err.status, 413);
    // The stream resynced at the newline: the next request works.
    assert!(c.ping().unwrap());
    server.stop();
}

#[test]
fn zero_deadline_reports_deadline_exceeded() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let mut fields = design_fields(321.5);
    if let Value::Obj(m) = &mut fields {
        m.insert("deadline_ms".to_string(), n(0.0));
    }
    let reply = c.call("design", fields).unwrap();
    // A zero deadline can still win the race on a warm memo hit, so an
    // Ok outcome is acceptable; an error must be the typed deadline kind.
    if let Err(e) = reply.outcome {
        assert!(
            is_code(&e, ErrorCode::DeadlineExceeded) || is_code(&e, ErrorCode::Cancelled),
            "unexpected error: {e}"
        );
    }
    assert!(c.ping().unwrap());
    server.stop();
}

#[test]
fn cancel_of_unknown_id_answers_false() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let reply = c.call("cancel", obj([("target", n(9999.0))])).unwrap();
    assert_eq!(
        reply.outcome.unwrap().get("cancelled"),
        Some(&Value::Bool(false))
    );
    server.stop();
}

#[test]
fn connection_budget_rejects_with_429() {
    let config = ServerConfig {
        inflight_per_conn: 0,
        ..ServerConfig::default()
    };
    let server = start(config);
    let mut c = Client::connect(server.addr()).unwrap();
    let reply = c.call("design", design_fields(200.0)).unwrap();
    let err = reply.outcome.unwrap_err();
    assert!(is_code(&err, ErrorCode::Overloaded));
    assert_eq!(err.status, 429);
    assert!(err.retryable);
    // Immediate ops are not budgeted.
    assert!(c.ping().unwrap());
    server.stop();
}

/// Two connects back to back against a cap of one: the accept loop must
/// count the first before it takes the second, however late the first
/// connection's thread starts.
#[test]
fn connection_cap_holds_for_back_to_back_connects() {
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = start(config);
    let mut first = Client::connect(server.addr()).unwrap();
    let mut second = Client::connect(server.addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let err = second.recv().unwrap().outcome.unwrap_err();
    assert!(is_code(&err, ErrorCode::Overloaded), "{err}");
    let eof = second.recv().unwrap_err();
    assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof, "{eof}");
    first
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert!(first.ping().unwrap());
    server.stop();
}

#[test]
fn mid_request_disconnect_cancels_cleanly() {
    let server = start(ServerConfig::default());
    {
        let mut c = Client::connect(server.addr()).unwrap();
        // Pipeline a burst, then vanish without reading responses.
        for i in 0..8 {
            c.send("design", design_fields(150.0 + f64::from(i)))
                .unwrap();
        }
        c.shutdown_write().unwrap();
        // Dropping the client closes the read half too.
    }
    // The server must still answer promptly on a fresh connection.
    let mut c = Client::connect(server.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    assert!(c.ping().unwrap());
    server.stop();
}

#[test]
fn http_metrics_and_healthz_on_the_same_port() {
    let server = start(ServerConfig::default());
    // Warm one request so counters exist.
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c.ping().unwrap());

    let mut http = TcpStream::connect(server.addr()).unwrap();
    write!(http, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    assert!(body.contains("ape_serve_requests"), "{body}");

    let mut http = TcpStream::connect(server.addr()).unwrap();
    write!(http, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.contains("200 OK"));

    let mut http = TcpStream::connect(server.addr()).unwrap();
    write!(http, "GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.contains("404"));
    server.stop();
}

#[test]
fn shutdown_op_stops_the_server() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    let reply = c.call("shutdown", obj([])).unwrap();
    assert_eq!(
        reply.outcome.unwrap().get("stopping"),
        Some(&Value::Bool(true))
    );
    assert!(server.state().is_shutting_down());
    server.stop();
    // New connections are refused or immediately closed after the accept
    // loop exits; either way no fresh work is accepted.
    std::thread::sleep(Duration::from_millis(50));
    if let Ok(mut late) = Client::connect(addr) {
        late.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        assert!(late.ping().is_err());
    }
}

#[test]
fn pipelined_responses_preserve_request_order() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let ids: Vec<u64> = (0..10)
        .map(|i| {
            c.send("design", design_fields(160.0 + f64::from(i)))
                .unwrap()
        })
        .collect();
    let mut got = Vec::new();
    for _ in &ids {
        let reply = c.recv().unwrap();
        assert!(reply.outcome.is_ok());
        got.push(reply.id);
    }
    assert_eq!(ids, got, "farm-backed responses arrive in request order");
    server.stop();
}

#[test]
fn calibration_round_trip_over_the_wire() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();

    // Baseline, uncalibrated.
    let plain = c
        .call("design", design_fields(200.0))
        .unwrap()
        .outcome
        .expect("uncalibrated design ok");
    let plain_gain = plain
        .get("perf")
        .and_then(|p| p.get("dc_gain"))
        .and_then(Value::as_f64)
        .expect("dc_gain present");

    // Register a table that scales l3.opamp dc_gain by exactly 1.25.
    let tech = Technology::default_1p2um();
    let mut table = ape_calib::Calibration::identity(tech.fingerprint(), "wire");
    table.set("l3.opamp", "dc_gain", 1.25, &[]).unwrap();
    let fp_hex = c.register_calibration(&table).expect("registration ok");
    assert_eq!(fp_hex, format!("{:#018x}", table.fingerprint()));

    // The same design, calibrated: one f64 multiply by the factor.
    let mut fields = design_fields(200.0);
    if let Value::Obj(m) = &mut fields {
        m.insert("calibration".to_string(), Value::Str(fp_hex.clone()));
    }
    let calibrated = c
        .call("design", fields)
        .unwrap()
        .outcome
        .expect("calibrated design ok");
    let cal_gain = calibrated
        .get("perf")
        .and_then(|p| p.get("dc_gain"))
        .and_then(Value::as_f64)
        .expect("calibrated dc_gain present");
    assert_eq!(cal_gain, plain_gain * 1.25, "correction factor applied");

    // A second connection sees the same calibration registry.
    let mut c2 = Client::connect(server.addr()).unwrap();
    let mut fields = design_fields(200.0);
    if let Value::Obj(m) = &mut fields {
        m.insert("calibration".to_string(), Value::Str(fp_hex));
    }
    let again = c2
        .call("design", fields)
        .unwrap()
        .outcome
        .expect("cross-conn calibrated design");
    assert_eq!(calibrated.render(), again.render());

    // Unknown fingerprints and cross-technology tables are typed errors.
    let mut fields = design_fields(200.0);
    if let Value::Obj(m) = &mut fields {
        m.insert("calibration".to_string(), s("0xdeadbeefdeadbeef"));
    }
    let err = c.call("design", fields).unwrap().outcome.unwrap_err();
    assert!(is_code(&err, ErrorCode::UnknownCalibration), "{err}");

    let foreign = ape_calib::Calibration::identity(0x1234, "wrong-tech");
    let foreign_fp = c.register_calibration(&foreign).expect("foreign registers");
    let mut fields = design_fields(200.0);
    if let Value::Obj(m) = &mut fields {
        m.insert("calibration".to_string(), Value::Str(foreign_fp));
    }
    let err = c.call("design", fields).unwrap().outcome.unwrap_err();
    assert!(is_code(&err, ErrorCode::CalibrationMismatch), "{err}");

    assert!(c.ping().unwrap(), "server still answers after typed errors");
    server.stop();
}
