//! Experiment harness support for the RiskRoute reproduction.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's evaluation (see `DESIGN.md` for the index); this library holds
//! the shared experiment context (corpus, population, hazards — all
//! deterministic under [`MASTER_SEED`]), plain-text table rendering, and
//! result-file plumbing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod experiments;
pub mod table;

pub use context::{ExperimentContext, MASTER_SEED};
pub use table::TextTable;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Directory experiment outputs are written to (repo-relative).
pub const RESULTS_DIR: &str = "results";

/// Write `content` to `results/<name>.txt` and echo it to stdout.
///
/// # Panics
/// Panics on I/O errors — the harness has nothing sensible to do without
/// its output directory.
pub fn emit(name: &str, content: &str) {
    let dir = PathBuf::from(RESULTS_DIR);
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(format!("{name}.txt"));
    let mut f = fs::File::create(&path).expect("create result file");
    f.write_all(content.as_bytes()).expect("write result file");
    println!("── {name} ──────────────────────────────────────────");
    println!("{content}");
    println!("(written to {})", path.display());
}

/// Merge a freshly rendered timings table into the previous contents of
/// `results/timings.txt`.
///
/// Partial harness invocations (`experiments fig7`) used to clobber the
/// file, losing every other experiment's row. Instead, rows are merged
/// **per experiment name** (the first column): previous rows keep their
/// order, a rerun experiment's row is replaced in place, and new
/// experiments append. The new run's header wins; stale rows whose column
/// count no longer matches are dropped.
pub fn merge_timings(old: &str, new: &str) -> String {
    let (old_header, old_rows) = parse_timings(old);
    let (new_header, new_rows) = parse_timings(new);
    let header = if new_header.is_empty() {
        old_header
    } else {
        new_header
    };
    if header.is_empty() {
        return new.to_string();
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    for row in &old_rows {
        match new_rows.iter().find(|r| r[0] == row[0]) {
            Some(newer) => rows.push(newer.clone()),
            None => rows.push(row.clone()),
        }
    }
    for row in &new_rows {
        if !rows.iter().any(|r| r[0] == row[0]) {
            rows.push(row.clone());
        }
    }
    rows.retain(|r| r.len() == header.len());

    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    for row in &rows {
        table.row(row);
    }
    table.render()
}

/// Split a rendered timings table into its header cells and row cells,
/// skipping blank lines and the `---` rule.
fn parse_timings(content: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut header = Vec::new();
    let mut rows = Vec::new();
    for line in content.lines() {
        if line.trim().is_empty() || line.trim_start().starts_with('-') {
            continue;
        }
        let cells: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        if header.is_empty() {
            header = cells;
        } else {
            rows.push(cells);
        }
    }
    (header, rows)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn render(rows: &[(&str, &str)]) -> String {
        let mut t = TextTable::new(&["experiment", "wall_ms"]);
        for (name, wall) in rows {
            t.row(&[(*name).to_string(), (*wall).to_string()]);
        }
        t.render()
    }

    #[test]
    fn rerun_replaces_row_in_place_and_appends_new() {
        let old = render(&[("fig7", "10.0"), ("fig8", "20.0")]);
        let new = render(&[("fig8", "99.0"), ("table1", "5.0")]);
        let merged = merge_timings(&old, &new);
        let lines: Vec<&str> = merged.lines().collect();
        // Header + rule + fig7 (kept), fig8 (replaced in place), table1.
        assert!(lines[2].starts_with("fig7"));
        assert!(lines[3].starts_with("fig8") && lines[3].ends_with("99.0"));
        assert!(lines[4].starts_with("table1"));
        assert_eq!(lines.len(), 5);
    }
}
