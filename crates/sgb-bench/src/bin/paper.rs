//! Regenerates the paper's tables and figures.
//!
//! The figure experiments benchmark the paper's *named* per-operator
//! procedures (All-Pairs / Bounds-Checking / on-the-fly Index) by pinning
//! each one through `SgbQuery::algorithm`.
//!
//! ```text
//! paper -- <experiment> [--scale f]
//!
//! experiments:
//!   fig9a fig9b fig9c fig9d      epsilon sweeps (Figure 9)
//!   fig10a fig10b fig10c fig10d  TPC-H scale sweeps (Figure 10)
//!   fig11a fig11b                SGB vs clustering (Figure 11)
//!   fig12a fig12b                SGB vs GROUP BY overhead (Figure 12)
//!   table1                       complexity fits (Table 1)
//!   table2                       evaluation queries (Table 2)
//!   all                          everything above
//! ```

use std::process::ExitCode;

use sgb_bench::experiments::{
    self, fig10_all, fig10_any, fig11, fig12, fig9_all, fig9_any, table1, table2, Experiment,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: paper <experiment> [--scale f]\n\
         experiments: fig9a fig9b fig9c fig9d fig10a fig10b fig10c fig10d \
         fig11a fig11b fig12a fig12b table1 table2 all"
    );
    ExitCode::FAILURE
}

fn run(which: &str, scale: f64) -> Option<Vec<Experiment>> {
    let one = |e: Experiment| Some(vec![e]);
    match which {
        "fig9a" => one(fig9_all('a', scale)),
        "fig9b" => one(fig9_all('b', scale)),
        "fig9c" => one(fig9_all('c', scale)),
        "fig9d" => one(fig9_any(scale)),
        "fig10a" => one(fig10_all('a', scale)),
        "fig10b" => one(fig10_all('b', scale)),
        "fig10c" => one(fig10_all('c', scale)),
        "fig10d" => one(fig10_any(scale)),
        "fig11a" => one(fig11('a', scale)),
        "fig11b" => one(fig11('b', scale)),
        "fig12a" => one(fig12('a', scale)),
        "fig12b" => one(fig12('b', scale)),
        "table1" => one(table1(scale)),
        "table2" => one(table2(scale)),
        "all" => {
            let mut out = Vec::new();
            for sub in ['a', 'b', 'c'] {
                out.push(fig9_all(sub, scale));
            }
            out.push(fig9_any(scale));
            for sub in ['a', 'b', 'c'] {
                out.push(fig10_all(sub, scale));
            }
            out.push(fig10_any(scale));
            out.push(fig11('a', scale));
            out.push(fig11('b', scale));
            out.push(fig12('a', scale));
            out.push(fig12('b', scale));
            out.push(experiments::table1(scale));
            out.push(experiments::table2(scale));
            Some(out)
        }
        _ => None,
    }
}

fn main() -> ExitCode {
    // Shared benchmark CLI loop; this binary prints CSV to stdout, so a
    // `--out` override is rejected as unknown usage.
    let cli = match sgb_bench::report::parse_bench_cli(std::env::args().skip(1)) {
        Ok(cli) if cli.out.is_none() => cli,
        _ => return usage(),
    };
    let Some(which) = cli.positional else {
        return usage();
    };
    let Some(experiments) = run(&which, cli.scale) else {
        return usage();
    };
    for e in experiments {
        e.print_csv();
        println!();
    }
    ExitCode::SUCCESS
}
