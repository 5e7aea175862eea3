//! The paper tables the bins print must not move: `table2`, `table3` and
//! `table5 400` equal their committed `results/` files byte for byte, and
//! `table4 400` equals `results/table4.txt` in every cell but the timing
//! ones (`CPU s`, `speed-up`, and the APE sizing-time line).

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

#[test]
fn table_4_matches_results_in_every_untimed_cell() {
    let fresh = without_timings(&run(env!("CARGO_BIN_EXE_table4"), &["400"]));
    let recorded = without_timings(&committed("table4.txt"));
    assert_eq!(fresh, recorded);
    assert!(
        recorded.iter().filter(|r| r.starts_with("|oa")).count() == 10,
        "table4.txt lost its ten op-amp rows"
    );
}
