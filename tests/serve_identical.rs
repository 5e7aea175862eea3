// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! The daemon's contract: answers over the wire are **bit-identical** to
//! calling `OpAmp::design` directly — same floats, same rendering — and
//! what the daemon computed lands in its shared estimation graph, where
//! any other thread finds it, so a resident daemon is a cache, not just a
//! socket in front of the library.
//!
//! The shared-store check is by construction, not by scheduling: after the
//! daemon has answered, the test thread designs a spec the daemon already
//! answered in a graph over the daemon's store. Which executor thread ran
//! which request never matters.

use ape_repro::ape::basic::MirrorTopology;
use ape_repro::ape::graph::with_graph;
use ape_repro::ape::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
use ape_repro::netlist::Technology;
use ape_repro::serve::json::{n, obj, s, Value};
use ape_repro::serve::proto::design_result;
use ape_repro::serve::{Client, Server, ServerConfig};

fn spec(gain: f64, cl: f64) -> OpAmpSpec {
    OpAmpSpec {
        gain,
        ugf_hz: 4e6,
        area_max_m2: 20e-9,
        ibias: 1e-5,
        zout_ohm: None,
        cl,
    }
}

fn design_fields(gain: f64, cl: f64) -> Value {
    obj([
        ("topology", obj([("mirror", s("simple"))])),
        (
            "spec",
            obj([
                ("gain", n(gain)),
                ("ugf_hz", n(4e6)),
                ("area_max_m2", n(20e-9)),
                ("ibias", n(1e-5)),
                ("cl", n(cl)),
            ]),
        ),
    ])
}

/// Wire answers must render byte-for-byte like the direct library call.
#[test]
fn daemon_results_are_bit_identical_and_shared_across_connections() {
    let tech = Technology::default_1p2um();
    let server = Server::bind("127.0.0.1:0", tech.clone(), ServerConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    // Connection 1: a small grid, all distinct specs.
    let mut conn1 = Client::connect(addr).expect("conn1");
    let grid: Vec<(f64, f64)> = (0..4).map(|i| (120.0 + 40.0 * i as f64, 8e-12)).collect();
    let mut wire = Vec::new();
    for &(gain, cl) in &grid {
        let reply = conn1.call("design", design_fields(gain, cl)).expect("call");
        wire.push((gain, cl, reply.outcome.expect("designs")));
    }

    // Connection 2: same gains, different load — shares every diff-pair
    // subtree with connection 1's requests.
    let mut conn2 = Client::connect(addr).expect("conn2");
    for &(gain, _) in &grid {
        let reply = conn2
            .call("design", design_fields(gain, 12e-12))
            .expect("call");
        wire.push((gain, 12e-12, reply.outcome.expect("designs")));
    }

    // Bit-identical: render the wire value and the direct library result
    // through the same canonical renderer and compare bytes.
    let topo = OpAmpTopology::miller(MirrorTopology::Simple, false);
    for (gain, cl, value) in &wire {
        let direct = OpAmp::design(&tech, topo, spec(*gain, *cl)).expect("direct design");
        assert_eq!(
            value.render(),
            design_result(&direct).render(),
            "wire result diverged from direct OpAmp::design at gain={gain} cl={cl}"
        );
    }

    // The daemon's answers are in its shared store: a graph on this
    // thread over that store is served the first request from there — the
    // top-level lookup hits, so nothing is computed and nothing misses —
    // bit-identical to the wire answer.
    let store = handle
        .state()
        .farm()
        .shared_memo()
        .expect("shared graph enabled")
        .clone();
    let before = store.stats();
    let (gain, cl, value) = &wire[0];
    let again = with_graph(&tech, None, Some(&store), |g| {
        OpAmp::design_in(g, topo, spec(*gain, *cl))
    })
    .expect("design via the store");
    let after = store.stats();
    assert!(
        after.hits > before.hits && after.misses == before.misses,
        "the daemon's answer was not in its shared store: {before:?} -> {after:?}"
    );
    assert_eq!(value.render(), design_result(&again).render());

    // The wire `stats` op reports the store's own counters (the daemon is
    // idle, so they have not moved since the lookup above).
    let stats = conn2
        .call("stats", obj([]))
        .expect("stats")
        .outcome
        .expect("ok");
    let counter = |name: &str| {
        stats
            .get("shared_graph")
            .and_then(|g| g.get(name))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("shared_graph.{name} in stats"))
    };
    assert_eq!(counter("hits"), after.hits as f64, "{}", stats.render());
    assert_eq!(counter("misses"), after.misses as f64, "{}", stats.render());

    handle.stop();
}

/// Tenant routing end-to-end: a card registered over one connection is
/// used for designs on another, and the answer matches the direct call on
/// that card — not the default.
#[test]
fn registered_tenant_answers_match_direct_design_on_that_card() {
    let server = Server::bind(
        "127.0.0.1:0",
        Technology::default_1p2um(),
        ServerConfig::default(),
    )
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let mut admin = Client::connect(addr).expect("admin conn");
    let reg = admin
        .call("register_tech", obj([("base", s("0p5um"))]))
        .expect("register")
        .outcome
        .expect("registers");
    let fp = reg
        .get("technology")
        .and_then(Value::as_str)
        .expect("fingerprint")
        .to_string();

    let mut conn = Client::connect(addr).expect("tenant conn");
    let mut fields = design_fields(180.0, 8e-12);
    if let Value::Obj(map) = &mut fields {
        map.insert("technology".to_string(), s(&fp));
    }
    let wire = conn
        .call("design", fields)
        .expect("call")
        .outcome
        .expect("designs");

    let tech05 = Technology::default_0p5um();
    let direct = OpAmp::design(
        &tech05,
        OpAmpTopology::miller(MirrorTopology::Simple, false),
        spec(180.0, 8e-12),
    )
    .expect("direct 0.5um design");
    assert_eq!(
        wire.render(),
        design_result(&direct).render(),
        "tenant-routed result diverged from direct 0.5um design"
    );

    handle.stop();
}
