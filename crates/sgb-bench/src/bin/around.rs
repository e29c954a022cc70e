//! SGB-Around benchmark: the operator's two paths, the brute-force center
//! scan (`Algorithm::AllPairs` on the unified `SgbQuery` surface; the JSON
//! label stays "BruteForce" for report continuity) and the center grid,
//! swept over input cardinality and center count on a Gaussian mixture,
//! and over center count with centers drawn from 50k check-ins
//! (`session-mix`'s AROUND read). Every sweep point asserts that both
//! paths return the same grouping. Written as JSON so the repository
//! accumulates a perf trajectory for the operator.
//!
//! ```text
//! around [--scale f] [--out path]
//! ```
//!
//! By default the report is written to `BENCH_around.json` at the
//! repository root (resolved relative to this crate's manifest) and a
//! human-readable table goes to stderr. The cost-based `Auto` selection
//! and the thread sweep are benchmarked by the `grid` binary.

use std::process::ExitCode;

use sgb_bench::experiments::around_comparison;
use sgb_bench::report::{parse_bench_cli, Report};

/// Default output path: `<repo root>/BENCH_around.json`.
fn default_out() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_around.json").to_owned()
}

fn main() -> ExitCode {
    let cli = match parse_bench_cli(std::env::args().skip(1)) {
        Ok(cli) if cli.positional.is_none() => cli,
        _ => {
            eprintln!("usage: around [--scale f] [--out path]");
            return ExitCode::FAILURE;
        }
    };
    let out_path = cli.out.unwrap_or_else(default_out);

    let (radius, rows) = around_comparison(cli.scale);

    eprintln!("# SGB-Around scan vs R-tree vs grid: mixture radius = {radius}");
    eprintln!(
        "{:<8} {:>8} {:>8} {:<12} {:>7} {:>10} {:>9} {:>9}",
        "sweep", "x", "fixed", "algorithm", "radius", "seconds", "occupied", "outliers"
    );
    let radius_text = |r: Option<f64>| r.map_or("null".to_owned(), |r| r.to_string());
    for r in &rows {
        eprintln!(
            "{:<8} {:>8} {:>8} {:<12} {:>7} {:>10.4} {:>9} {:>9}",
            r.sweep,
            r.x,
            r.fixed,
            r.algorithm,
            radius_text(r.radius),
            r.seconds,
            r.occupied,
            r.outliers
        );
    }

    let mut report = Report::new("around_comparison")
        .field_num("radius", radius)
        .field_num("scale", cli.scale);
    for r in &rows {
        report.push_row(format!(
            "{{\"sweep\": \"{}\", \"x\": {}, \"fixed\": {}, \"algorithm\": \"{}\", \
             \"radius\": {}, \"seconds\": {:.6}, \"occupied\": {}, \"outliers\": {}}}",
            r.sweep,
            r.x,
            r.fixed,
            r.algorithm,
            radius_text(r.radius),
            r.seconds,
            r.occupied,
            r.outliers
        ));
    }
    if let Err(e) = report.write(&out_path) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
