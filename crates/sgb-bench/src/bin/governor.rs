//! Governor-overhead smoke bench: times the BENCH_grid SGB-Any grid row
//! as `try_run` under an **unrestricted** `QueryGovernor` (what `run`
//! executes) vs an **armed** one (a deadline one hour away plus a live
//! `CancelToken`, so every check reads the token and the clock), and
//! fails the run when the armed deadline/cancellation checks cost more
//! than the budgeted overhead.
//! Results are written as JSON so the repository accumulates the
//! trajectory alongside the other BENCH_*.json reports.
//!
//! ```text
//! governor [--scale f] [--out path]
//! ```
//!
//! The gate is `< 2%` relative overhead on the best-of-k minima, with an
//! absolute noise floor (2 ms) so tiny CI-scale runs — where one
//! scheduler hiccup dwarfs the whole join — cannot flake the build.

use std::process::ExitCode;

use sgb_bench::experiments::governor_overhead;
use sgb_bench::report::{parse_bench_cli, Report};

/// Relative overhead budget, percent.
const MAX_OVERHEAD_PCT: f64 = 2.0;
/// Absolute noise floor, seconds: deltas under this never fail the gate.
const NOISE_FLOOR_SECS: f64 = 0.002;

/// Default output path: `<repo root>/BENCH_governor.json`.
fn default_out() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_governor.json").to_owned()
}

fn main() -> ExitCode {
    let cli = match parse_bench_cli(std::env::args().skip(1)) {
        Ok(cli) if cli.positional.is_none() => cli,
        _ => {
            eprintln!("usage: governor [--scale f] [--out path]");
            return ExitCode::FAILURE;
        }
    };
    let out_path = cli.out.unwrap_or_else(default_out);

    let rows = governor_overhead(cli.scale);

    eprintln!("# governor checks: try_run unrestricted vs armed, SGB-Any grid");
    eprintln!(
        "{:<8} {:<6} {:>12} {:>12} {:>10} {:>8}",
        "n", "eps", "free_s", "armed_s", "overhead", "groups"
    );
    for r in &rows {
        eprintln!(
            "{:<8} {:<6} {:>12.6} {:>12.6} {:>9.2}% {:>8}",
            r.n, r.eps, r.ungoverned_secs, r.governed_secs, r.overhead_pct, r.groups
        );
    }

    let mut report = Report::new("governor_overhead").field_num("scale", cli.scale);
    for r in &rows {
        report.push_row(format!(
            "{{\"n\": {}, \"eps\": {}, \"ungoverned_secs\": {:.6}, \
             \"governed_secs\": {:.6}, \"overhead_pct\": {:.3}, \"groups\": {}}}",
            r.n, r.eps, r.ungoverned_secs, r.governed_secs, r.overhead_pct, r.groups
        ));
    }
    if let Err(e) = report.write(&out_path) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    let mut ok = true;
    for r in &rows {
        let delta = r.governed_secs - r.ungoverned_secs;
        if r.overhead_pct > MAX_OVERHEAD_PCT && delta > NOISE_FLOOR_SECS {
            eprintln!(
                "governor overhead gate FAILED at n={}: {:+.2}% (> {MAX_OVERHEAD_PCT}%, \
                 delta {delta:.6}s > noise floor {NOISE_FLOOR_SECS}s)",
                r.n, r.overhead_pct
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
