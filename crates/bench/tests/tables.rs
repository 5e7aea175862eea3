//! The paper tables the bins print must not move: `table2`, `table3` and
//! `table5 400` equal their committed `results/` files byte for byte, and
//! `table4 400` equals `results/table4.txt` in every cell but the timing
//! ones (`CPU s`, `speed-up`, and the APE sizing-time line).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().unwrap();
    assert!(out.status.success(), "{bin} {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Drops the wall-clock parts of a table: the "APE sizing time" line, and
/// in every table row the cells under the `CPU s` and `speed-up` headers.
/// The other cells are trimmed, so a timing cell of a different width
/// cannot shift them.
fn without_timings(table: &str) -> Vec<String> {
    let mut timing_cols = Vec::new();
    let mut rows = Vec::new();
    for line in table.lines() {
        if line.starts_with("APE sizing time") {
            continue;
        }
        if !line.starts_with('|') {
            rows.push(line.to_string());
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.contains(&"CPU s") {
            timing_cols = cells
                .iter()
                .enumerate()
                .filter(|(_, c)| matches!(**c, "CPU s" | "speed-up"))
                .map(|(k, _)| k)
                .collect();
        }
        let kept: Vec<&str> = cells
            .iter()
            .enumerate()
            .map(|(k, c)| if timing_cols.contains(&k) { "" } else { *c })
            .collect();
        rows.push(kept.join("|"));
    }
    rows
}

#[test]
fn tables_2_3_and_5_are_byte_identical_to_results() {
    assert_eq!(
        run(env!("CARGO_BIN_EXE_table2"), &[]),
        committed("table2.txt")
    );
    assert_eq!(
        run(env!("CARGO_BIN_EXE_table3"), &[]),
        committed("table3.txt")
    );
    assert_eq!(
        run(env!("CARGO_BIN_EXE_table5"), &["400"]),
        committed("table5.txt")
    );
}

/// The counters section of an `APE_TRACE=summary` report: the only
/// lines of exactly two fields, a name and an integer total.
fn summary_counters(report: &str) -> BTreeMap<String, u64> {
    report
        .lines()
        .filter_map(
            |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                [name, total] => Some((name.to_string(), total.parse().ok()?)),
                _ => None,
            },
        )
        .collect()
}

/// Besides the untimed cells, the traced run checks where Table 4's DC
/// solves start: each seeded candidate's Newton begins at its run's start
/// operating point, so the solves average at most 7 Newton iterations
/// (about 12 from the default guess) and none falls back from the direct
/// stage.
#[test]
fn table_4_matches_results_in_every_untimed_cell() {
    let out = Command::new(env!("CARGO_BIN_EXE_table4"))
        .arg("400")
        .env("APE_TRACE", "summary")
        .output()
        .unwrap();
    assert!(out.status.success(), "table4 400 failed: {out:?}");
    let fresh = without_timings(&String::from_utf8(out.stdout).unwrap());
    let recorded = without_timings(&committed("table4.txt"));
    assert_eq!(fresh, recorded);
    assert!(
        recorded.iter().filter(|r| r.starts_with("|oa")).count() == 10,
        "table4.txt lost its ten op-amp rows"
    );

    let report = String::from_utf8(out.stderr).unwrap();
    let counters = summary_counters(&report);
    let solves = counters["spice.dc.solves"];
    let iters = counters["spice.dc.nr_iters"];
    assert!(
        solves > 0 && iters <= 7 * solves,
        "{iters} Newton iterations over {solves} DC solves"
    );
    assert!(
        !counters.contains_key("spice.dc.direct_fallbacks"),
        "a seeded solve fell back from the direct stage:\n{report}"
    );
}
