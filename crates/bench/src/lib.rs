//! Shared harness code for regenerating every table and figure of the APE
//! paper (DATE 1999).
//!
//! The `table1`–`table5` binaries print the tables; this library holds the
//! specification sets and the est-vs-sim row computations so the root
//! integration tests can gate on the same numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
pub mod rows;
pub mod specs;

use std::fmt::Write as _;

/// Renders a simple aligned text table.
///
/// # Example
///
/// ```
/// let s = ape_bench::render_table(
///     &["ckt", "gain"],
///     &[vec!["oa0".into(), "200".into()]],
/// );
/// assert!(s.contains("oa0"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate().take(ncol) {
            let _ = write!(out, "| {:w$} ", c, w = widths[i]);
        }
        out.push_str("|\n");
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let mut sep = String::new();
    for w in &widths {
        let _ = write!(sep, "|{}", "-".repeat(w + 2));
    }
    sep.push_str("|\n");
    out.push_str(&sep);
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Formats a float with 3 significant-ish digits for table cells.
pub fn fmt_val(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else if a >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn value_formatting() {
        assert_eq!(fmt_val(0.0), "0");
        assert_eq!(fmt_val(123.456), "123.5");
        assert_eq!(fmt_val(1.5), "1.50");
        assert_eq!(fmt_val(0.25), "0.250");
        assert!(fmt_val(1e-6).contains('e'));
    }
}
