//! Tests of the benchmark itself: seeded inputs, the table behind
//! `BENCHMARK.json`, the correctness check, and a short run of every
//! workload. Run with `cargo test --release --offline --manifest-path
//! apebench/Cargo.toml` (debug builds pass too, slowly).

use ape_calib::json::{self, Value};
use ape_netlist::Technology;
use apebench::gen::{design_line, mixed_schedule, DesignStream, Target, Tenant};
use apebench::run::{run, RunOpts};
use apebench::table::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use apebench::wire::{check_reply, expected_design, Daemon};
use std::collections::HashSet;
use std::path::Path;

fn lines(seed: u64, conn: u64, tenant: &Tenant) -> Vec<String> {
    DesignStream::new(seed, conn)
        .take(300)
        .enumerate()
        .map(|(i, d)| design_line(i as u64 + 1, &d, Target::Default, tenant))
        .collect()
}

fn specs(seed: u64) -> HashSet<String> {
    (0..2)
        .flat_map(|conn| DesignStream::new(seed, conn).take(300))
        .map(|d| format!("{:?}", d.spec))
        .collect()
}

#[test]
fn a_seed_fixes_the_request_bytes_and_seeds_do_not_share_specs() {
    let tenant = Tenant::new();
    assert_eq!(lines(11, 0, &tenant), lines(11, 0, &tenant));
    assert_ne!(lines(11, 0, &tenant), lines(11, 1, &tenant));
    assert_eq!(
        format!("{:?}", mixed_schedule(3, 1000.0, 500, 64)),
        format!("{:?}", mixed_schedule(3, 1000.0, 500, 64))
    );
    let (a, b) = (specs(11), specs(12));
    assert_eq!(a.len(), 600, "one seed's specs are all distinct");
    assert!(a.is_disjoint(&b));
}

#[test]
fn benchmark_json_is_the_table() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(text, benchmark_json(), "regenerate with `apebench list`");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(Value::as_str).map(str::to_string))
            .collect()
    };
    assert_eq!(names("workloads").len(), WORKLOADS.len());
    assert_eq!(names("end_to_end").len(), END_TO_END.len());
    assert_eq!(names("per_layer").len(), PER_LAYER.len());
    assert!(names("end_to_end").iter().any(|n| n == "setup_s"));
}

#[test]
fn the_check_accepts_the_daemons_reply_and_catches_a_corrupted_one() {
    let tenant = Tenant::new();
    let tech = Technology::default_1p2um();
    let d = DesignStream::new(5, 0).next().expect("endless stream");
    let mut daemon = Daemon::start(1, None).expect("daemon starts");
    let mut reply = String::new();
    daemon.conns[0]
        .call(&design_line(9, &d, Target::Default, &tenant), &mut reply)
        .expect("daemon answers");
    daemon.stop();
    let expected = expected_design(9, &d, &tech).expect("direct design");
    assert!(check_reply(&reply, &expected), "wire answer is bit-exact");

    // Change the last digit of the first float in the reply.
    let at = reply.find("\"cc\":").expect("cc field") + 5;
    let end = at + reply[at..].find([',', '}']).expect("number ends");
    let mut bad = reply.clone().into_bytes();
    bad[end - 1] = if bad[end - 1] == b'1' { b'2' } else { b'1' };
    let bad = String::from_utf8(bad).expect("still ASCII");
    assert_ne!(bad, reply);
    assert!(!check_reply(&bad, &expected));
}

#[test]
fn replies_are_matched_to_requests_in_both_envelopes() {
    use ape_serve::proto::{err_response, ErrorCode, WireError};
    use apebench::run::Status;
    use apebench::wire::{reply_id, status_of};
    let ok = r#"{"id":41,"ok":true,"result":{"pong":true}}"#;
    let refused = err_response(42, &WireError::new(ErrorCode::Overloaded, "budget"));
    let bad = err_response(43, &WireError::new(ErrorCode::BadRequest, "no"));
    assert!(refused.starts_with("{\"error\""), "keys render sorted");
    assert_eq!(reply_id(ok), Some(41));
    assert_eq!(reply_id(&refused), Some(42));
    assert_eq!(reply_id(&bad), Some(43));
    assert_eq!(status_of(ok), Status::Ok);
    assert_eq!(status_of(&refused), Status::Refused);
    assert_eq!(status_of(&bad), Status::Failed);
}

#[test]
fn every_workload_runs_clean_for_a_second_and_reports_exactly_its_metrics() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for w in &WORKLOADS {
        for trace in [false, true] {
            let opts = RunOpts {
                workload: w,
                seed: 3,
                seconds: 1.0,
                trace,
                trace_file: dir.join(format!("trace-{}.json", w.name)),
            };
            let r = run(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            assert_eq!(r.failed, 0, "{}: {}", w.name, r.summary);
            assert!(r.correct && r.attempted > 0, "{}: {}", w.name, r.summary);
            let table = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let got: Vec<&str> = r.metrics.iter().map(|(m, _)| m.name).collect();
            let want: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{}", w.name);

            let line = json::parse(&r.json()).expect("result line parses");
            assert_eq!(
                line.get("metrics").map(|m| match m {
                    Value::Obj(o) => o.len(),
                    _ => 0,
                }),
                Some(table.len())
            );
            // `ape_calib::json` parses in time quadratic in the document's
            // size, so only the smallest trace goes through it.
            if trace && w.name == "wire-closed" {
                let text = std::fs::read_to_string(&opts.trace_file).expect("trace written");
                let doc = json::parse(&text).expect("trace parses");
                let events = doc
                    .get("traceEvents")
                    .and_then(Value::as_arr)
                    .expect("traceEvents");
                let spans = events
                    .iter()
                    .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
                    .count();
                assert!(spans > 100, "{}: {spans} spans", w.name);
            } else if trace {
                let len = std::fs::metadata(&opts.trace_file).map_or(0, |m| m.len());
                assert!(len > 0, "{}: no trace written", w.name);
            }
        }
    }
}
