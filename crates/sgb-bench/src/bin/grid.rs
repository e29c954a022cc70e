//! Grid-engine benchmark: the ε-grid execution paths vs the R-tree-indexed
//! paths (SGB-All, SGB-Any) vs the scan baselines for all three similarity
//! operators, with an `Auto` row per sweep point showing the cost-based
//! selection tracking the per-configuration winner. Every operator is driven through the
//! unified `SgbQuery` surface with the family-wide `Algorithm` selector
//! (the SGB-Around "BruteForce" label is `Algorithm::AllPairs`, kept for
//! report continuity). Results are written as JSON so the repository
//! accumulates a perf trajectory for the grid engine.
//!
//! ```text
//! grid [--scale f] [--out path] [--threads n]
//! ```
//!
//! By default the report is written to `BENCH_grid.json` at the repository
//! root (resolved relative to this crate's manifest) and a human-readable
//! table goes to stderr. `--threads` overrides the worker count for the
//! main sweeps (0 = auto); a dedicated `threads` sweep always measures the
//! parallel grid paths at 1/2/4 workers, a `component` sweep times
//! SGB-All on one ε-component, the worst case of its `Grid` path, and an
//! `overlap` sweep times SGB-All under each `ON-OVERLAP` clause on
//! `checkin-all`'s check-ins. Each row's seconds are the median of five
//! rounds that interleave its sweep point's algorithms (or thread
//! counts). Every sweep point asserts that all algorithms — and all thread
//! counts — return the same grouping, so a full run doubles as an
//! equivalence check.

use std::process::ExitCode;

use sgb_bench::experiments::grid_comparison;
use sgb_bench::report::{parse_bench_cli, Report};

/// Default output path: `<repo root>/BENCH_grid.json`.
fn default_out() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_grid.json").to_owned()
}

fn main() -> ExitCode {
    let cli = match parse_bench_cli(std::env::args().skip(1)) {
        Ok(cli) if cli.positional.is_none() => cli,
        _ => {
            eprintln!("usage: grid [--scale f] [--out path] [--threads n]");
            return ExitCode::FAILURE;
        }
    };
    let out_path = cli.out.unwrap_or_else(default_out);

    let rows = grid_comparison(cli.scale, cli.threads);

    eprintln!("# grid engine vs indexed vs scan (Auto = cost-based selection)");
    eprintln!(
        "{:<12} {:<9} {:>8} {:>8} {:<14} {:<15} {:>8} {:>10} {:>8}",
        "op", "sweep", "x", "n", "overlap", "algorithm", "threads", "seconds", "groups"
    );
    for r in &rows {
        eprintln!(
            "{:<12} {:<9} {:>8} {:>8} {:<14} {:<15} {:>8} {:>10.4} {:>8}",
            r.op,
            r.sweep,
            r.x,
            r.n,
            r.overlap.unwrap_or("-"),
            r.algorithm,
            r.threads,
            r.seconds,
            r.groups
        );
    }

    let mut report = Report::new("grid_comparison").field_num("scale", cli.scale);
    for r in &rows {
        let overlap = r
            .overlap
            .map_or_else(|| "null".to_owned(), |o| format!("\"{o}\""));
        report.push_row(format!(
            "{{\"op\": \"{}\", \"sweep\": \"{}\", \"x\": {}, \"n\": {}, \"overlap\": {overlap}, \
             \"algorithm\": \"{}\", \"threads\": {}, \"seconds\": {:.6}, \"groups\": {}}}",
            r.op, r.sweep, r.x, r.n, r.algorithm, r.threads, r.seconds, r.groups
        ));
    }
    if let Err(e) = report.write(&out_path) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
