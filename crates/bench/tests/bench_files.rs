//! Every committed `results/BENCH_*.json` must carry the schema stamp that
//! `ape_bench::report::write_bench` puts on it: its own name as `bench`,
//! the current `schema`, the `detected_parallelism` it was recorded at,
//! and complete `latency_ns` quantile blocks.

use ape_bench::report::BENCH_SCHEMA;
use ape_calib::json::{parse, Value};
use std::path::Path;

const LATENCY_FIELDS: [&str; 7] = [
    "count", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns",
];

#[test]
fn committed_bench_files_carry_the_schema_stamp() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().and_then(|f| f.to_str()).unwrap_or("");
        let Some(stem) = name
            .strip_prefix("BENCH_")
            .and_then(|f| f.strip_suffix(".json"))
        else {
            continue;
        };
        let doc = parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            doc.get("bench").and_then(Value::as_str),
            Some(stem),
            "{name}"
        );
        assert_eq!(
            doc.get("schema").and_then(Value::as_f64),
            Some(BENCH_SCHEMA as f64),
            "{name}"
        );
        let parallelism = doc.get("detected_parallelism").and_then(Value::as_f64);
        assert!(
            parallelism.is_some_and(|p| p >= 1.0),
            "{name}: {parallelism:?}"
        );
        let Some(Value::Obj(blocks)) = doc.get("latency_ns") else {
            panic!("{name}: no latency_ns section");
        };
        for (metric, block) in blocks {
            for field in LATENCY_FIELDS {
                assert!(
                    block.get(field).and_then(Value::as_f64).is_some(),
                    "{name}: latency_ns.{metric} lacks {field}"
                );
            }
        }
        checked += 1;
    }
    assert!(checked > 0, "no BENCH files under {}", dir.display());
}
