//! `sgbbench`: the statement-level benchmark of the SGB engine.
//!
//! ```text
//! sgbbench --seed <u64> [--workload <name>] [--seconds <s>] [--trace <0|1>] [--out <path>]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones); a readable summary goes to standard
//! error, and `--out` writes every number plus, when traced, the spans.
//! Without `--workload`, runs every workload, each in a child process of
//! its own so peak memory is per workload; `--out` is then a directory.
//! Exits non-zero when a statement fails or an output check fails.
//! See README.md for the workloads, the metrics and how to compare runs.

mod checks;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use run::{Metric, Outcome, Settings};
use workloads::{Scale, Workload};

const USAGE: &str = "usage: sgbbench --seed <u64> [--workload <name>] [--seconds <s>] \
                     [--trace <0|1>] [--out <path>]\n\
                     workloads: checkin-any, checkin-all, tpch-table2, session-mix";

/// Timed-pass length when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    seed: u64,
    workload: Option<Workload>,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut seed = None;
    let mut cli = Cli {
        seed: 0,
        workload: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?);
            }
            "--workload" => {
                cli.workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                };
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    cli.seed = seed.ok_or("--seed is required")?;
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("sgbbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(workload) => run_one(workload, &cli),
        None => run_all(&cli),
    }
}

/// Runs every workload in a child process of its own.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sgbbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &cli.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("sgbbench: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut ok = true;
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args([
            "--workload",
            workload.name(),
            "--seed",
            &cli.seed.to_string(),
            "--seconds",
            &cli.seconds.to_string(),
            "--trace",
            if cli.trace { "1" } else { "0" },
        ]);
        if let Some(dir) = &cli.out {
            child
                .arg("--out")
                .arg(dir.join(format!("{}.json", workload.name())));
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("sgbbench: {} exited with {status}", workload.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("sgbbench: cannot run {}: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process.
fn run_one(workload: Workload, cli: &Cli) -> ExitCode {
    let settings = Settings {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: Scale::FULL,
    };
    let outcome = run::run(workload, settings);
    eprint!("{}", summary(workload, &settings, &outcome));
    let mut correct = outcome.failed == 0;
    if let Some(path) = &cli.out {
        let report = report(workload, &settings, &outcome);
        if let Err(e) = sgb_bench::report::validate(&report)
            .and_then(|()| std::fs::write(path, report).map_err(|e| e.to_string()))
        {
            eprintln!("sgbbench: cannot write {}: {e}", path.display());
            correct = false;
        }
    }
    println!("{}", result_line(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}`. Values print with every
/// digit; a non-finite value (already counted as a failure) prints as 0.
fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let mut json = String::from("{");
    for (i, m) in metrics.into_iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name.replace('"', "'"),
            m.unit
        );
    }
    json.push('}');
    json
}

/// The last line of standard output.
fn result_line(outcome: &Outcome, correct: bool) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.reported)
    )
}

/// The `--out` report: every number, and the spans of a traced run.
fn report(workload: Workload, settings: &Settings, outcome: &Outcome) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"spans\": {}}}\n",
        workload.name(),
        settings.seed,
        settings.seconds,
        settings.trace,
        outcome.attempted,
        outcome.failed,
        metrics_json(outcome.reported.iter().chain(&outcome.details)),
        outcome.spans.as_deref().unwrap_or("[]"),
    )
}

/// The readable summary on standard error.
fn summary(workload: Workload, settings: &Settings, outcome: &Outcome) -> String {
    let mut s = format!(
        "sgbbench {} seed {}{}: {} of {} statements failed\n",
        workload.name(),
        settings.seed,
        if settings.trace { " (traced)" } else { "" },
        outcome.failed,
        outcome.attempted,
    );
    for p in &outcome.problems {
        let _ = writeln!(s, "  FAILED {p}");
    }
    for m in outcome.reported.iter().chain(&outcome.details) {
        let _ = writeln!(s, "  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use run::{END_TO_END, PER_LAYER};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn cli_takes_the_runner_flags() {
        let cli = parse_cli(args(
            "--workload tpch-table2 --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload, Some(Workload::TpchTable2));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 12.0, true));
        assert_eq!(
            parse_cli(args("--seed 3")).unwrap().seconds,
            DEFAULT_SECONDS
        );
        for bad in [
            "",
            "--seed x",
            "--seed 1 --trace 2",
            "--seed 1 --workload nope",
            "--seed 1 --seconds -1",
            "--seed 1 --bogus 1",
            "--seed",
        ] {
            assert!(parse_cli(args(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    /// Every workload at a tiny scale, traced and untraced: no statement
    /// or check fails, and the reported names and units are exactly the
    /// declared ones.
    #[test]
    fn every_workload_runs_clean_at_tiny_scale() {
        for workload in Workload::ALL {
            for (trace, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let settings = Settings {
                    seed: 11,
                    seconds: 0.0,
                    trace,
                    scale: Scale(0.01),
                };
                let outcome = run::run(workload, settings);
                let name = workload.name();
                assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.problems);
                assert!(outcome.attempted >= run::MIN_SAMPLES as u64, "{name}");
                let got: Vec<(&str, &str)> = outcome
                    .reported
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit))
                    .collect();
                assert_eq!(got, declared, "{name} trace={trace}");
                let line = result_line(&outcome, true);
                sgb_bench::report::validate(&line).unwrap();
                sgb_bench::report::validate(&report(workload, &settings, &outcome)).unwrap();
                assert_eq!(outcome.spans.is_some(), trace);
            }
        }
    }

    /// The `(name, unit)` entries of the array under `key` in a JSON
    /// object whose arrays hold flat objects.
    fn entries(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).map(|i| i + f.len() + 2);
            at.and_then(|i| {
                let rest = &obj[i..];
                let q = rest.find('"')? + 1;
                let end = q + rest[q..].find('"')?;
                Some(rest[q..end].to_owned())
            })
            .unwrap_or_default()
        };
        json[open + 1..close]
            .split('}')
            .filter(|obj| obj.contains('{'))
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    /// `BENCHMARK.json` at the repository root parses, and its workloads
    /// and metrics are exactly what this program runs and reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        sgb_bench::report::validate(&json).unwrap();
        let workloads: Vec<String> = entries(&json, "workloads")
            .into_iter()
            .map(|e| e.0)
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(entries(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(entries(&json, "per_layer"), owned(&PER_LAYER));
        assert!(json.contains("\"command\": [\"cargo\""));
    }
}
