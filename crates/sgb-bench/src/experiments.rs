//! Experiment runners, one per table/figure of the paper's evaluation.
//!
//! Every runner returns an [`Experiment`] (series of `(x, seconds)` rows)
//! and is wired to a `paper` subcommand. Default cardinalities are scaled
//! down from the paper's so a full run finishes on one machine; the
//! `scale` argument multiplies them (≈25× reaches the paper's sizes).

use sgb_cluster::{birch, dbscan, kmeans, BirchConfig, DbscanConfig, KMeansConfig};
use sgb_core::{
    sgb_all, sgb_any, Algorithm, AllAlgorithm, AnyAlgorithm, CancelToken, OverlapAction,
    QueryGovernor, SgbAllConfig, SgbAnyConfig, SgbQuery,
};
use sgb_datagen::{clustered_points, clustered_points_with_centers, CheckinConfig, TpchConfig};
use sgb_geom::{Metric, Point};
use sgb_relation::Database;
use sgb_telemetry::{Counter, Telemetry};

use crate::queries;
use crate::timing::time;

/// One plotted series: a name and `(x, seconds)` rows.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label (matches the paper's legends).
    pub name: String,
    /// `(x, seconds)` measurements.
    pub rows: Vec<(f64, f64)>,
}

/// One regenerated table/figure.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Identifier (`fig9a`, `table1`, …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Meaning of the x column.
    pub xlabel: String,
    /// The measured series.
    pub series: Vec<Series>,
}

impl Experiment {
    /// Prints the experiment as CSV with `#` metadata lines.
    pub fn print_csv(&self) {
        println!("# {}: {}", self.id, self.title);
        println!("experiment,series,{},seconds", self.xlabel);
        for s in &self.series {
            for (x, secs) in &s.rows {
                println!("{},{},{x},{secs:.6}", self.id, s.name);
            }
        }
    }
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(16)
}

/// The synthetic multi-dimensional workload of the ε sweep (Figure 9):
/// clustered points in a 100×100 domain with cluster σ = 0.12, so the
/// paper's ε range 0.1–0.9 spans many-small-cliques (ε = 0.1) to
/// whole-cluster cliques (ε = 0.9) — the regime where the All-Pairs
/// baseline's member scans grow deep while the rectangle filters stay
/// constant-time per group.
pub fn fig9_workload(n: usize, seed: u64) -> Vec<Point<2>> {
    clustered_points::<2>(n, 64, 0.0012, seed)
        .into_iter()
        .map(|p| Point::new([p.x() * 100.0, p.y() * 100.0]))
        .collect()
}

const EPS_SWEEP: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Figures 9a–9c: SGB-All runtime vs ε for one `ON-OVERLAP` option,
/// comparing All-Pairs / Bounds-Checking / on-the-fly Index.
pub fn fig9_all(sub: char, scale: f64) -> Experiment {
    let (overlap, title) = match sub {
        'a' => (OverlapAction::JoinAny, "SGB-All JOIN-ANY"),
        'b' => (OverlapAction::Eliminate, "SGB-All ELIMINATE"),
        'c' => (OverlapAction::FormNewGroup, "SGB-All FORM-NEW-GROUP"),
        _ => panic!("fig9 sub-figure must be a/b/c/d"),
    };
    let n = scaled(20_000, scale);
    let points = fig9_workload(n, 0x0F19);
    let algos = [
        ("All-Pairs", AllAlgorithm::AllPairs),
        ("Bounds-Checking", AllAlgorithm::BoundsChecking),
        ("on-the-fly Index", AllAlgorithm::Indexed),
    ];
    let mut series = Vec::new();
    for (name, algo) in algos {
        let mut rows = Vec::new();
        for eps in EPS_SWEEP {
            let cfg = SgbAllConfig::new(eps)
                .metric(Metric::L2)
                .overlap(overlap)
                .algorithm(algo);
            let (out, secs) = time(|| sgb_all(&points, &cfg));
            rows.push((eps, secs));
            eprintln!(
                "#   fig9{sub} {name} eps={eps}: {secs:.3}s ({} groups)",
                out.num_groups()
            );
        }
        series.push(Series {
            name: name.into(),
            rows,
        });
    }
    Experiment {
        id: format!("fig9{sub}"),
        title: format!("{title}: runtime vs similarity threshold (n = {n})"),
        xlabel: "epsilon".into(),
        series,
    }
}

/// Figure 9d: SGB-Any runtime vs ε, All-Pairs vs on-the-fly Index.
pub fn fig9_any(scale: f64) -> Experiment {
    let n = scaled(20_000, scale);
    let points = fig9_workload(n, 0x0F19);
    let algos = [
        ("All-Pairs", AnyAlgorithm::AllPairs),
        ("on-the-fly Index", AnyAlgorithm::Indexed),
    ];
    let mut series = Vec::new();
    for (name, algo) in algos {
        let mut rows = Vec::new();
        for eps in EPS_SWEEP {
            let cfg = SgbAnyConfig::new(eps).metric(Metric::L2).algorithm(algo);
            let (out, secs) = time(|| sgb_any(&points, &cfg));
            rows.push((eps, secs));
            eprintln!(
                "#   fig9d {name} eps={eps}: {secs:.3}s ({} groups)",
                out.num_groups()
            );
        }
        series.push(Series {
            name: name.into(),
            rows,
        });
    }
    Experiment {
        id: "fig9d".into(),
        title: format!("SGB-Any: runtime vs similarity threshold (n = {n})"),
        xlabel: "epsilon".into(),
        series,
    }
}

/// The TPC-H-derived 2-D grouping attribute stream of the SGB1 query at a
/// given scale factor, rescaled to a [0, 10]² domain (so the paper's
/// ε = 0.2 is meaningful).
pub fn fig10_points(sf: f64, scale: f64) -> Vec<Point<2>> {
    let density = 0.01 * scale;
    let (customer, orders) = TpchConfig::new(sf)
        .density(density.min(1.0))
        .generate_customer_orders();
    sgb_datagen::tpch::sgb1_points_from(&customer, &orders)
        .into_iter()
        .map(|p| Point::new([p.x() * 10.0, p.y() * 10.0]))
        .collect()
}

/// Figures 10a–10c: SGB-All runtime vs TPC-H scale factor (ε = 0.2),
/// Bounds-Checking vs on-the-fly Index.
pub fn fig10_all(sub: char, scale: f64) -> Experiment {
    let (overlap, title) = match sub {
        'a' => (OverlapAction::JoinAny, "SGB-All JOIN-ANY"),
        'b' => (OverlapAction::Eliminate, "SGB-All ELIMINATE"),
        'c' => (OverlapAction::FormNewGroup, "SGB-All FORM-NEW-GROUP"),
        _ => panic!("fig10 sub-figure must be a/b/c/d"),
    };
    let sfs = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0];
    let algos = [
        ("Bounds-Checking", AllAlgorithm::BoundsChecking),
        ("on-the-fly Index", AllAlgorithm::Indexed),
    ];
    let mut series: Vec<Series> = algos
        .iter()
        .map(|(name, _)| Series {
            name: (*name).into(),
            rows: Vec::new(),
        })
        .collect();
    for sf in sfs {
        let points = fig10_points(sf, scale);
        for (si, (name, algo)) in algos.iter().enumerate() {
            let cfg = SgbAllConfig::new(0.2)
                .metric(Metric::L2)
                .overlap(overlap)
                .algorithm(*algo);
            let (out, secs) = time(|| sgb_all(&points, &cfg));
            series[si].rows.push((sf, secs));
            eprintln!(
                "#   fig10{sub} {name} SF={sf}: {secs:.3}s ({} pts, {} groups)",
                points.len(),
                out.num_groups()
            );
        }
    }
    Experiment {
        id: format!("fig10{sub}"),
        title: format!("{title}: runtime vs TPC-H scale factor (eps = 0.2)"),
        xlabel: "scale_factor".into(),
        series,
    }
}

/// Figure 10d: SGB-Any runtime vs TPC-H scale factor (ε = 0.2),
/// All-Pairs vs on-the-fly Index.
pub fn fig10_any(scale: f64) -> Experiment {
    let sfs = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
    let algos = [
        ("All-Pairs", AnyAlgorithm::AllPairs),
        ("on-the-fly Index", AnyAlgorithm::Indexed),
    ];
    let mut series: Vec<Series> = algos
        .iter()
        .map(|(name, _)| Series {
            name: (*name).into(),
            rows: Vec::new(),
        })
        .collect();
    for sf in sfs {
        let points = fig10_points(sf, scale);
        for (si, (name, algo)) in algos.iter().enumerate() {
            let cfg = SgbAnyConfig::new(0.2).metric(Metric::L2).algorithm(*algo);
            let (out, secs) = time(|| sgb_any(&points, &cfg));
            series[si].rows.push((sf, secs));
            eprintln!(
                "#   fig10d {name} SF={sf}: {secs:.3}s ({} pts, {} groups)",
                points.len(),
                out.num_groups()
            );
        }
    }
    Experiment {
        id: "fig10d".into(),
        title: "SGB-Any: runtime vs TPC-H scale factor (eps = 0.2)".into(),
        xlabel: "scale_factor".into(),
        series,
    }
}

/// Figure 11: SGB operators vs clustering baselines (DBSCAN, BIRCH,
/// K-means with K=20/40) on check-in data. `'a'` = Brightkite-like,
/// `'b'` = Gowalla-like. ε = 0.2 (degrees) as in the paper.
///
/// Baseline timings include the "impedance mismatch" step the paper
/// describes: exporting the points out of the SQL engine before
/// clustering. The SGB operators run in a single pass over the same rows.
pub fn fig11(sub: char, scale: f64) -> Experiment {
    let sizes: Vec<usize> = [30_000usize, 60_000, 90_000, 120_000, 150_000, 180_000]
        .iter()
        .map(|&n| scaled(n, scale))
        .collect();
    let eps = 0.2;
    let mut series: Vec<Series> = [
        "DBSCAN",
        "BIRCH",
        "K-means(40)",
        "K-means(20)",
        "SGB-All-Form-New",
        "SGB-All-Eliminate",
        "SGB-All-Join-Any",
        "SGB-Any",
    ]
    .iter()
    .map(|name| Series {
        name: (*name).into(),
        rows: Vec::new(),
    })
    .collect();

    for &n in &sizes {
        let dataset = match sub {
            'a' => CheckinConfig::brightkite_like(n).generate(),
            'b' => CheckinConfig::gowalla_like(n).generate(),
            _ => panic!("fig11 sub-figure must be a/b"),
        };
        // Register the check-ins in the engine: baselines must export them
        // first (the paper's impedance-mismatch cost), SGB runs in-engine.
        let mut db = Database::new();
        let mut table = sgb_relation::Table::empty(sgb_relation::Schema::new(["lat", "lon"]));
        for c in &dataset.checkins {
            table
                .push(vec![
                    sgb_relation::Value::Float(c.location.x()),
                    sgb_relation::Value::Float(c.location.y()),
                ])
                .unwrap();
        }
        db.register("checkins", table);

        let export = || -> Vec<Point<2>> {
            let out = db.query("SELECT lat, lon FROM checkins").unwrap();
            out.rows
                .iter()
                .map(|r| Point::new([r[0].as_f64().unwrap(), r[1].as_f64().unwrap()]))
                .collect()
        };

        let x = n as f64;
        // DBSCAN (R-tree accelerated, ε = 0.2, minPts = 4).
        let (_, secs) = time(|| {
            let pts = export();
            dbscan(&pts, &DbscanConfig::new(eps).min_pts(4))
        });
        series[0].rows.push((x, secs));
        // BIRCH (threshold ε).
        let (_, secs) = time(|| {
            let pts = export();
            birch(&pts, &BirchConfig::new(eps))
        });
        series[1].rows.push((x, secs));
        // K-means, K = 40 then K = 20: classic fixed-iteration Lloyd
        // (tolerance 0 ⇒ run to an exact assignment fixpoint, capped at
        // 100 iterations like the era's standard implementations).
        for (si, k) in [(2usize, 40usize), (3, 20)] {
            let (_, secs) = time(|| {
                let pts = export();
                kmeans(&pts, &KMeansConfig::new(k).max_iters(100).tol(0.0))
            });
            series[si].rows.push((x, secs));
        }
        // SGB variants (in-engine single pass over the same rows).
        let points = dataset.points();
        for (si, overlap) in [
            (4usize, OverlapAction::FormNewGroup),
            (5, OverlapAction::Eliminate),
            (6, OverlapAction::JoinAny),
        ] {
            let cfg = SgbAllConfig::new(eps).metric(Metric::L2).overlap(overlap);
            let (_, secs) = time(|| sgb_all(&points, &cfg));
            series[si].rows.push((x, secs));
        }
        let (_, secs) = time(|| sgb_any(&points, &SgbAnyConfig::new(eps).metric(Metric::L2)));
        series[7].rows.push((x, secs));
        eprintln!("#   fig11{sub} n={n} done");
    }

    let which = if sub == 'a' {
        "Brightkite-like"
    } else {
        "Gowalla-like"
    };
    Experiment {
        id: format!("fig11{sub}"),
        title: format!("SGB vs clustering algorithms on {which} check-ins (eps = 0.2)"),
        xlabel: "checkins".into(),
        series,
    }
}

/// Figure 12: overhead of SGB vs traditional GROUP BY through the SQL
/// engine on TPC-H. `'a'` = GB2 vs SGB3/SGB4 (Q9 shape),
/// `'b'` = GB3 vs SGB5/SGB6 (Q15 shape).
pub fn fig12(sub: char, scale: f64) -> Experiment {
    let (gb, template, label) = match sub {
        'a' => (queries::GB2, queries::SGB3_TEMPLATE, "GB2/SGB3/SGB4"),
        'b' => (queries::GB3, queries::SGB5_TEMPLATE, "GB3/SGB5/SGB6"),
        _ => panic!("fig12 sub-figure must be a/b"),
    };
    let sfs = [1.0, 2.0, 4.0, 8.0, 16.0, 20.0];
    let eps = 0.2;
    let variants: Vec<(String, String)> = vec![
        ("Group-By".into(), gb.to_owned()),
        (
            "SGB-All-Join-Any".into(),
            queries::with_sgb_all(template, eps, "L2", "JOIN-ANY"),
        ),
        (
            "SGB-All-Eliminate".into(),
            queries::with_sgb_all(template, eps, "L2", "ELIMINATE"),
        ),
        (
            "SGB-All-Form-New".into(),
            queries::with_sgb_all(template, eps, "L2", "FORM-NEW-GROUP"),
        ),
        ("SGB-Any".into(), queries::with_sgb_any(template, eps, "L2")),
    ];
    let mut series: Vec<Series> = variants
        .iter()
        .map(|(name, _)| Series {
            name: name.clone(),
            rows: Vec::new(),
        })
        .collect();
    for sf in sfs {
        let mut db = Database::new();
        TpchConfig::new(sf)
            .density((0.002 * scale).min(1.0))
            .generate()
            .register_all(&mut db);
        for (si, (name, sql)) in variants.iter().enumerate() {
            let (out, secs) = time(|| db.query(sql).unwrap());
            series[si].rows.push((sf, secs));
            eprintln!(
                "#   fig12{sub} {name} SF={sf}: {secs:.3}s ({} rows)",
                out.len()
            );
        }
    }
    Experiment {
        id: format!("fig12{sub}"),
        title: format!("{label}: SGB vs standard GROUP BY through SQL (eps = {eps})"),
        xlabel: "scale_factor".into(),
        series,
    }
}

/// Table 1: empirical scaling exponents of the SGB-All variants under L∞,
/// fitted from a log–log regression of runtime against input size,
/// printed next to the paper's stated average-case bounds.
pub fn table1(scale: f64) -> Experiment {
    let sizes: Vec<usize> = [2_000usize, 4_000, 8_000, 16_000]
        .iter()
        .map(|&n| scaled(n, scale))
        .collect();
    let algos = [
        ("All-Pairs", AllAlgorithm::AllPairs),
        ("Bounds-Checking", AllAlgorithm::BoundsChecking),
        ("on-the-fly Index", AllAlgorithm::Indexed),
    ];
    let overlaps = [
        ("JOIN-ANY", OverlapAction::JoinAny),
        ("ELIMINATE", OverlapAction::Eliminate),
        ("FORM-NEW-GROUP", OverlapAction::FormNewGroup),
    ];
    let mut series = Vec::new();
    for (aname, algo) in algos {
        for (oname, overlap) in overlaps {
            let mut rows = Vec::new();
            for &n in &sizes {
                let points = fig9_workload(n, 0x7AB1);
                let cfg = SgbAllConfig::new(0.3)
                    .metric(Metric::LInf)
                    .overlap(overlap)
                    .algorithm(algo);
                let (_, secs) = time(|| sgb_all(&points, &cfg));
                rows.push((n as f64, secs));
            }
            eprintln!(
                "#   table1 {aname}/{oname}: fitted exponent {:.2}",
                fit_loglog_slope(&rows)
            );
            series.push(Series {
                name: format!("{aname}/{oname}"),
                rows,
            });
        }
    }
    Experiment {
        id: "table1".into(),
        title: "SGB-All complexity (L-inf): runtime vs n; fit the log-log slope \
                against the paper's bounds (All-Pairs O(n^2)/O(n^3), \
                Bounds-Checking O(n|G|), Index O(n log |G|))"
            .into(),
        xlabel: "n".into(),
        series,
    }
}

/// One row of the metric-comparison experiment: an operator/algorithm
/// combination timed under one metric.
#[derive(Clone, Debug)]
pub struct MetricBenchRow {
    /// `"sgb-all"` or `"sgb-any"`.
    pub op: &'static str,
    /// Algorithm label (`"AllPairs"`, `"BoundsChecking"`, `"Indexed"`).
    pub algorithm: &'static str,
    /// SQL keyword of the metric (`L1`/`L2`/`LINF`).
    pub metric: &'static str,
    /// Wall-clock seconds for one run.
    pub seconds: f64,
    /// Number of answer groups (sanity anchor: fixed per metric across
    /// algorithms).
    pub groups: usize,
}

/// The metric-comparison experiment behind the `metrics` binary: every
/// SGB-All / SGB-Any algorithm under every supported metric on the ε-sweep
/// workload, one timed run each. Returns `(n, eps, rows)`.
pub fn metric_comparison(scale: f64) -> (usize, f64, Vec<MetricBenchRow>) {
    let n = scaled(10_000, scale);
    let eps = 0.3;
    let points = fig9_workload(n, 0x3E7A1C);
    let mut rows = Vec::new();
    for metric in Metric::ALL {
        let mut groups_per_algo = Vec::new();
        for (name, algo) in [
            ("AllPairs", Algorithm::AllPairs),
            ("BoundsChecking", Algorithm::BoundsChecking),
            ("Indexed", Algorithm::Indexed),
        ] {
            let query = SgbQuery::all(eps).metric(metric).algorithm(algo);
            let (out, secs) = time(|| query.run(&points));
            groups_per_algo.push(out.num_groups());
            rows.push(MetricBenchRow {
                op: "sgb-all",
                algorithm: name,
                metric: metric.sql_keyword(),
                seconds: secs,
                groups: out.num_groups(),
            });
        }
        assert!(
            groups_per_algo.windows(2).all(|w| w[0] == w[1]),
            "SGB-All algorithms disagree under {metric}: {groups_per_algo:?}"
        );
        let mut any_groups_per_algo = Vec::new();
        for (name, algo) in [
            ("AllPairs", Algorithm::AllPairs),
            ("Indexed", Algorithm::Indexed),
        ] {
            let query = SgbQuery::any(eps).metric(metric).algorithm(algo);
            let (out, secs) = time(|| query.run(&points));
            any_groups_per_algo.push(out.num_groups());
            rows.push(MetricBenchRow {
                op: "sgb-any",
                algorithm: name,
                metric: metric.sql_keyword(),
                seconds: secs,
                groups: out.num_groups(),
            });
        }
        assert!(
            any_groups_per_algo.windows(2).all(|w| w[0] == w[1]),
            "SGB-Any algorithms disagree under {metric}: {any_groups_per_algo:?}"
        );
    }
    (n, eps, rows)
}

/// One row of the SGB-Around comparison: a sweep point timed under one
/// algorithm.
#[derive(Clone, Debug)]
pub struct AroundBenchRow {
    /// Which variable the sweep varies: `"n"` or `"centers"`.
    pub sweep: &'static str,
    /// The varied value (input cardinality or center count).
    pub x: usize,
    /// The fixed other variable (center count or input cardinality).
    pub fixed: usize,
    /// Algorithm label (`"BruteForce"` / `"Indexed"`).
    pub algorithm: &'static str,
    /// Wall-clock seconds for one run.
    pub seconds: f64,
    /// Centers that attracted at least one point (sanity anchor: fixed per
    /// sweep point across algorithms).
    pub occupied: usize,
    /// Points beyond the radius bound (likewise fixed across algorithms).
    pub outliers: usize,
}

/// The SGB-Around brute-vs-indexed comparison behind the `around` binary:
/// one sweep over input cardinality at a fixed center count, one over
/// center count at a fixed cardinality. Points come from a Gaussian
/// mixture and the operator is seeded with the ground-truth mixture
/// centers (the "derive centers, then regroup relationally" scenario); a
/// radius bound keeps the outlier path hot. Returns `(radius, rows)`.
pub fn around_comparison(scale: f64) -> (f64, Vec<AroundBenchRow>) {
    // The JSON labels predate the unified enum ("BruteForce" is
    // `Algorithm::AllPairs` for SGB-Around) and stay stable so the
    // committed BENCH_around.json trajectory remains comparable.
    const ALGOS: [(&str, Algorithm); 2] = [
        ("BruteForce", Algorithm::AllPairs),
        ("Indexed", Algorithm::Indexed),
    ];
    // 3σ of the mixture spread: ~1% of the mass of a 2-D Gaussian falls
    // outside, so the outlier path stays hot without dominating.
    let radius = 0.03;
    let mut rows = Vec::new();

    let mut run_point =
        |sweep: &'static str, x: usize, fixed: usize, n: usize, centers_n: usize| {
            let (points, centers) = clustered_points_with_centers::<2>(n, centers_n, 0.01, 0xA401);
            let mut sanity = Vec::new();
            for (name, algorithm) in ALGOS {
                let query = SgbQuery::around(centers.clone())
                    .max_radius(radius)
                    .algorithm(algorithm);
                let (out, secs) = time(|| query.run(&points));
                sanity.push((out.num_groups(), out.outliers().len()));
                eprintln!(
                    "#   around {sweep}={x} {name}: {secs:.4}s \
                     ({} occupied, {} outliers)",
                    out.num_groups(),
                    out.outliers().len()
                );
                rows.push(AroundBenchRow {
                    sweep,
                    x,
                    fixed,
                    algorithm: name,
                    seconds: secs,
                    occupied: out.num_groups(),
                    outliers: out.outliers().len(),
                });
            }
            assert!(
                sanity.windows(2).all(|w| w[0] == w[1]),
                "SGB-Around algorithms disagree at {sweep}={x}: {sanity:?}"
            );
        };

    // Sweep 1: input cardinality at a fixed center count.
    let centers_fixed = 64;
    for base in [5_000usize, 10_000, 20_000, 40_000] {
        let n = scaled(base, scale);
        run_point("n", n, centers_fixed, n, centers_fixed);
    }
    // Sweep 2: center count at a fixed cardinality (the regime where the
    // center R-tree pays off over the per-tuple center scan).
    let n_fixed = scaled(20_000, scale);
    for centers_n in [4usize, 16, 64, 256, 1024] {
        run_point("centers", centers_n, n_fixed, n_fixed, centers_n);
    }
    (radius, rows)
}

/// One row of the grid-engine comparison: an operator/algorithm
/// combination timed at one sweep point.
#[derive(Clone, Debug)]
pub struct GridBenchRow {
    /// `"sgb-all"`, `"sgb-any"`, or `"sgb-around"`.
    pub op: &'static str,
    /// Which variable the sweep varies: `"n"`, `"eps"`, or `"centers"`.
    pub sweep: &'static str,
    /// The varied value.
    pub x: f64,
    /// Input cardinality at this sweep point.
    pub n: usize,
    /// Algorithm label (concrete algorithms plus `"Auto"`).
    pub algorithm: &'static str,
    /// Worker threads the run actually executed on (resolved by the cost
    /// model when the override is 0 = auto).
    pub threads: usize,
    /// Wall-clock seconds for one run.
    pub seconds: f64,
    /// Number of answer groups — the sanity anchor: fixed per sweep point
    /// across algorithms *and thread counts* (asserted by the runner).
    pub groups: usize,
}

/// The grid-engine comparison behind the `grid` binary: Grid vs the
/// R-tree-indexed paths vs the scan baselines for all three operators,
/// over input-cardinality and ε / center-count sweeps, with an `Auto` row
/// per sweep point showing the cost model tracking the per-configuration
/// winner, plus a worker-thread sweep over the two parallelisable grid
/// paths (SGB-Any's sharded ε-join and SGB-Around's chunked assignment).
/// `threads` overrides the worker count for the main sweeps (0 = auto).
/// Every sweep point asserts that all algorithms — and, in the thread
/// sweep, all thread counts — agree on the answer-group count. Returns
/// the row set.
pub fn grid_comparison(scale: f64, threads: usize) -> Vec<GridBenchRow> {
    let mut rows = Vec::new();

    const ALL_ALGOS: [(&str, Algorithm); 5] = [
        ("AllPairs", Algorithm::AllPairs),
        ("BoundsChecking", Algorithm::BoundsChecking),
        ("Indexed", Algorithm::Indexed),
        ("Grid", Algorithm::Grid),
        ("Auto", Algorithm::Auto),
    ];
    const ANY_ALGOS: [(&str, Algorithm); 4] = [
        ("AllPairs", Algorithm::AllPairs),
        ("Indexed", Algorithm::Indexed),
        ("Grid", Algorithm::Grid),
        ("Auto", Algorithm::Auto),
    ];
    // "BruteForce" is `Algorithm::AllPairs` for SGB-Around; the label is
    // kept for BENCH_grid.json continuity.
    const AROUND_ALGOS: [(&str, Algorithm); 4] = [
        ("BruteForce", Algorithm::AllPairs),
        ("Indexed", Algorithm::Indexed),
        ("Grid", Algorithm::Grid),
        ("Auto", Algorithm::Auto),
    ];

    let mut run_all_any = |sweep: &'static str, x: f64, n: usize, eps: f64| {
        let points = fig9_workload(n, 0x0F19);
        let mut sanity = Vec::new();
        for (name, algo) in ALL_ALGOS {
            let query = SgbQuery::all(eps)
                .metric(Metric::L2)
                .algorithm(algo)
                .threads(threads);
            let (out, secs) = time(|| query.run(&points));
            eprintln!(
                "#   grid sgb-all {sweep}={x} {name}: {secs:.4}s ({} groups)",
                out.num_groups()
            );
            sanity.push(out.num_groups());
            rows.push(GridBenchRow {
                op: "sgb-all",
                sweep,
                x,
                n,
                algorithm: name,
                threads: out.threads(),
                seconds: secs,
                groups: out.num_groups(),
            });
        }
        assert!(
            sanity.windows(2).all(|w| w[0] == w[1]),
            "SGB-All algorithms disagree at {sweep}={x}: {sanity:?}"
        );
        let mut sanity = Vec::new();
        for (name, algo) in ANY_ALGOS {
            let query = SgbQuery::any(eps)
                .metric(Metric::L2)
                .algorithm(algo)
                .threads(threads);
            let (out, secs) = time(|| query.run(&points));
            eprintln!(
                "#   grid sgb-any {sweep}={x} {name}: {secs:.4}s ({} groups)",
                out.num_groups()
            );
            sanity.push(out.num_groups());
            rows.push(GridBenchRow {
                op: "sgb-any",
                sweep,
                x,
                n,
                algorithm: name,
                threads: out.threads(),
                seconds: secs,
                groups: out.num_groups(),
            });
        }
        assert!(
            sanity.windows(2).all(|w| w[0] == w[1]),
            "SGB-Any algorithms disagree at {sweep}={x}: {sanity:?}"
        );
    };

    // Sweep 1: input cardinality at the metric-comparison ε (the workload
    // behind BENCH_metrics.json, so the rows are directly comparable).
    for base in [2_000usize, 5_000, 10_000, 20_000] {
        let n = scaled(base, scale);
        run_all_any("n", n as f64, n, 0.3);
    }
    // Sweep 2: ε at a fixed cardinality — group structure shifts from
    // many small groups to few large ones.
    let n_fixed = scaled(10_000, scale);
    for eps in [0.1, 0.3, 0.9] {
        run_all_any("eps", eps, n_fixed, eps);
    }

    // Sweep 3: SGB-Around over center count (the BENCH_around.json regime
    // where the old Indexed default loses below ~1k centers).
    let n_around = scaled(20_000, scale);
    for centers_n in [16usize, 64, 256, 1024, 4096] {
        let centers_n_scaled = scaled(centers_n, scale).min(n_around);
        let (points, centers) =
            clustered_points_with_centers::<2>(n_around, centers_n_scaled, 0.01, 0xA401);
        let mut sanity = Vec::new();
        for (name, algo) in AROUND_ALGOS {
            let query = SgbQuery::around(centers.clone())
                .max_radius(0.03)
                .algorithm(algo)
                .threads(threads);
            let (out, secs) = time(|| query.run(&points));
            eprintln!(
                "#   grid sgb-around centers={centers_n_scaled} {name}: {secs:.4}s \
                 ({} occupied, {} outliers)",
                out.num_groups(),
                out.outliers().len()
            );
            sanity.push((out.num_groups(), out.outliers().len()));
            rows.push(GridBenchRow {
                op: "sgb-around",
                sweep: "centers",
                x: centers_n_scaled as f64,
                n: n_around,
                algorithm: name,
                threads: out.threads(),
                seconds: secs,
                groups: out.num_groups(),
            });
        }
        assert!(
            sanity.windows(2).all(|w| w[0] == w[1]),
            "SGB-Around algorithms disagree at centers={centers_n_scaled}: {sanity:?}"
        );
    }

    // Sweep 4: worker threads over the two parallelisable grid paths at
    // the largest cardinality — the scaling axis of the parallel engine.
    // Explicit thread counts always win over auto resolution, so these
    // rows measure exactly 1/2/4 workers regardless of the machine.
    let n_threads = scaled(20_000, scale);
    let points = fig9_workload(n_threads, 0x0F19);
    let (around_points, around_centers) = clustered_points_with_centers::<2>(
        n_threads,
        scaled(64, scale).min(n_threads),
        0.01,
        0xA401,
    );
    let mut any_sanity = Vec::new();
    let mut around_sanity = Vec::new();
    for t in [1usize, 2, 4] {
        let query = SgbQuery::any(0.3)
            .metric(Metric::L2)
            .algorithm(Algorithm::Grid)
            .threads(t);
        let (out, secs) = time(|| query.run(&points));
        eprintln!(
            "#   grid sgb-any threads={t} Grid: {secs:.4}s ({} groups)",
            out.num_groups()
        );
        any_sanity.push(out.num_groups());
        rows.push(GridBenchRow {
            op: "sgb-any",
            sweep: "threads",
            x: t as f64,
            n: n_threads,
            algorithm: "Grid",
            threads: out.threads(),
            seconds: secs,
            groups: out.num_groups(),
        });
        let query = SgbQuery::around(around_centers.clone())
            .max_radius(0.03)
            .algorithm(Algorithm::Grid)
            .threads(t);
        let (out, secs) = time(|| query.run(&around_points));
        eprintln!(
            "#   grid sgb-around threads={t} Grid: {secs:.4}s ({} occupied)",
            out.num_groups()
        );
        around_sanity.push(out.num_groups());
        rows.push(GridBenchRow {
            op: "sgb-around",
            sweep: "threads",
            x: t as f64,
            n: n_threads,
            algorithm: "Grid",
            threads: out.threads(),
            seconds: secs,
            groups: out.num_groups(),
        });
    }
    assert!(
        any_sanity.windows(2).all(|w| w[0] == w[1]),
        "SGB-Any thread counts disagree: {any_sanity:?}"
    );
    assert!(
        around_sanity.windows(2).all(|w| w[0] == w[1]),
        "SGB-Around thread counts disagree: {around_sanity:?}"
    );
    rows
}

/// Fits the slope of `log(seconds)` against `log(x)` — the empirical
/// scaling exponent.
pub fn fit_loglog_slope(rows: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Table 2: runs each evaluation query once through the SQL engine at a
/// small scale factor and reports `(query, rows, seconds)` — `x` is the
/// query index, and the row count is logged to stderr.
pub fn table2(scale: f64) -> Experiment {
    let mut db = Database::new();
    TpchConfig::new(1.0)
        .density((0.005 * scale).min(1.0))
        .generate()
        .register_all(&mut db);
    let eps = 0.2;
    let named: Vec<(&str, String)> = vec![
        ("GB1", queries::GB1.to_owned()),
        (
            "SGB1",
            queries::with_sgb_all(queries::SGB1_TEMPLATE, eps, "L2", "JOIN-ANY"),
        ),
        (
            "SGB2",
            queries::with_sgb_any(queries::SGB1_TEMPLATE, eps, "L2"),
        ),
        ("GB2", queries::GB2.to_owned()),
        (
            "SGB3",
            queries::with_sgb_all(queries::SGB3_TEMPLATE, eps, "L2", "FORM-NEW-GROUP"),
        ),
        (
            "SGB4",
            queries::with_sgb_any(queries::SGB3_TEMPLATE, eps, "L2"),
        ),
        ("GB3", queries::GB3.to_owned()),
        (
            "SGB5",
            queries::with_sgb_all(queries::SGB5_TEMPLATE, eps, "L2", "ELIMINATE"),
        ),
        (
            "SGB6",
            queries::with_sgb_any(queries::SGB5_TEMPLATE, eps, "L2"),
        ),
    ];
    let mut series = Vec::new();
    for (i, (name, sql)) in named.iter().enumerate() {
        let (out, secs) = time(|| db.query(sql).unwrap());
        eprintln!("#   table2 {name}: {} rows in {secs:.3}s", out.len());
        series.push(Series {
            name: (*name).into(),
            rows: vec![(i as f64, secs)],
        });
    }
    Experiment {
        id: "table2".into(),
        title: "Table 2 evaluation queries through the SQL engine (SF 1)".into(),
        xlabel: "query_index".into(),
        series,
    }
}

/// One row of the governor-overhead smoke bench (`governor` bin).
#[derive(Clone, Debug)]
pub struct GovernorBenchRow {
    /// Input cardinality.
    pub n: usize,
    /// Similarity threshold ε.
    pub eps: f64,
    /// Best-of-k seconds for `try_run` under an unrestricted governor —
    /// exactly what `run` executes.
    pub ungoverned_secs: f64,
    /// Best-of-k seconds for `try_run` under an armed governor: a deadline
    /// one hour away plus a live `CancelToken`.
    pub governed_secs: f64,
    /// `(governed − ungoverned) / ungoverned`, in percent (can be
    /// negative: both are minima of noisy samples).
    pub overhead_pct: f64,
    /// Answer groups — identical on both paths by assertion.
    pub groups: usize,
}

/// Measures what the governor's cooperative checks cost when they are
/// **armed but never fire**: the BENCH_grid SGB-Any grid row (ε-grid
/// join, L2, the Figure 9 workload) timed as `try_run` under an
/// unrestricted governor (the path `run` takes) vs. under a governor with
/// a deadline one hour away and a live [`CancelToken`], whose every check
/// reads the token and the clock. `run` and `try_run` share one execution
/// body, so this is the only governance cost left to measure. The two
/// governors alternate within each round, so clock drift and cache warmth
/// hit both equally, and every round asserts they return the same
/// grouping. The `governor` bin gates on the reported overhead.
pub fn governor_overhead(scale: f64) -> Vec<GovernorBenchRow> {
    const ROUNDS: usize = 7;
    let mut rows = Vec::new();
    for base in [10_000usize, 20_000] {
        let n = scaled(base, scale);
        let points = fig9_workload(n, 0x0F19);
        let eps = 0.3;
        let query = SgbQuery::any(eps)
            .metric(Metric::L2)
            .algorithm(Algorithm::Grid);
        let unrestricted = QueryGovernor::unrestricted();
        let armed = QueryGovernor::unrestricted()
            .with_deadline(std::time::Duration::from_secs(3600))
            .with_cancel_token(CancelToken::new());
        let mut best_free = f64::INFINITY;
        let mut best_armed = f64::INFINITY;
        let mut groups = 0;
        for _ in 0..ROUNDS {
            let (free, secs) = time(|| query.try_run(&points, &unrestricted));
            best_free = best_free.min(secs);
            let (armed_out, secs) = time(|| query.try_run(&points, &armed));
            best_armed = best_armed.min(secs);
            assert_eq!(
                free, armed_out,
                "unrestricted and armed runs disagree at n={n}"
            );
            groups = free
                .expect("a governor whose limits never fire never aborts")
                .num_groups();
        }
        let overhead_pct = (best_armed - best_free) / best_free * 100.0;
        eprintln!(
            "#   governor sgb-any grid n={n}: unrestricted {best_free:.6}s, \
             armed {best_armed:.6}s ({overhead_pct:+.2}%)"
        );
        rows.push(GovernorBenchRow {
            n,
            eps,
            ungoverned_secs: best_free,
            governed_secs: best_armed,
            overhead_pct,
            groups,
        });
    }
    rows
}

/// One row of the telemetry-overhead smoke bench (`telemetry` bin).
#[derive(Clone, Debug)]
pub struct TelemetryBenchRow {
    /// Input cardinality.
    pub n: usize,
    /// Similarity threshold ε.
    pub eps: f64,
    /// Best-of-k seconds with no telemetry handle (the production
    /// default: the disabled `Telemetry::off()` sink).
    pub baseline_secs: f64,
    /// Best-of-k seconds with an explicitly installed disabled handle —
    /// the path the zero-cost invariant gates.
    pub disabled_secs: f64,
    /// Best-of-k seconds with a live profiling sink installed.
    pub enabled_secs: f64,
    /// `(disabled − baseline) / baseline`, percent (can be negative:
    /// both are minima of noisy samples). **Gated** `< 2%`.
    pub disabled_overhead_pct: f64,
    /// `(enabled − baseline) / baseline`, percent. Reported, not gated:
    /// a live sink is allowed to pay for its clock reads.
    pub enabled_overhead_pct: f64,
    /// Answer groups — identical on all three paths by assertion.
    pub groups: usize,
}

/// Measures what the telemetry instrumentation costs when **no profile
/// sink is installed** — the subsystem's zero-cost invariant — on the
/// BENCH_grid SGB-Any grid row (ε-grid join, L2, the Figure 9 workload).
/// Three variants alternate within each round, so clock drift and cache
/// warmth hit all equally: the bare `run` (no handle), `run` with an
/// explicit [`Telemetry::off`] handle (the gated disabled path), and
/// `run` with a live [`Telemetry::new`] sink (reported for context).
/// Every round asserts all three return the same grouping. The
/// `telemetry` bin gates on the disabled overhead, mirroring the
/// `governor` gate.
pub fn telemetry_overhead(scale: f64) -> Vec<TelemetryBenchRow> {
    // More rounds than the governor bench: the gated pair are *identical*
    // code paths (a disabled handle is the default), so any reported
    // overhead is scheduler noise and best-of-k needs more draws to
    // converge on the true minimum.
    const ROUNDS: usize = 21;
    let mut rows = Vec::new();
    for base in [10_000usize, 20_000] {
        let n = scaled(base, scale);
        let points = fig9_workload(n, 0x0F19);
        let eps = 0.3;
        let query = SgbQuery::any(eps)
            .metric(Metric::L2)
            .algorithm(Algorithm::Grid);
        let mut best_base = f64::INFINITY;
        let mut best_off = f64::INFINITY;
        let mut best_on = f64::INFINITY;
        let mut groups = 0;
        for _ in 0..ROUNDS {
            let (out, secs) = time(|| query.run(&points));
            best_base = best_base.min(secs);
            groups = out.num_groups();
            let off_query = query.clone().telemetry(Telemetry::off());
            let (off_out, secs) = time(|| off_query.run(&points));
            best_off = best_off.min(secs);
            assert_eq!(out, off_out, "disabled-telemetry run disagrees at n={n}");
            let on_query = query.clone().telemetry(Telemetry::new());
            let (on_out, secs) = time(|| on_query.run(&points));
            best_on = best_on.min(secs);
            assert_eq!(out, on_out, "profiled run disagrees at n={n}");
            let profile = on_out.profile().expect("a live sink records a profile");
            assert_eq!(profile.counter(Counter::Groups), groups as u64);
        }
        let disabled_overhead_pct = (best_off - best_base) / best_base * 100.0;
        let enabled_overhead_pct = (best_on - best_base) / best_base * 100.0;
        eprintln!(
            "#   telemetry sgb-any grid n={n}: bare {best_base:.6}s, \
             off {best_off:.6}s ({disabled_overhead_pct:+.2}%), \
             on {best_on:.6}s ({enabled_overhead_pct:+.2}%)"
        );
        rows.push(TelemetryBenchRow {
            n,
            eps,
            baseline_secs: best_base,
            disabled_secs: best_off,
            enabled_secs: best_on,
            disabled_overhead_pct,
            enabled_overhead_pct,
            groups,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_slope_recovers_known_exponent() {
        // y = c · x²  → slope 2.
        let rows: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, 3.0 * (i * i) as f64)).collect();
        assert!((fit_loglog_slope(&rows) - 2.0).abs() < 1e-9);
        // y = c · x  → slope 1.
        let rows: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, 0.5 * i as f64)).collect();
        assert!((fit_loglog_slope(&rows) - 1.0).abs() < 1e-9);
        assert!(fit_loglog_slope(&[(1.0, 1.0)]).is_nan());
    }

    #[test]
    fn fig9_workload_is_deterministic_and_scaled() {
        let a = fig9_workload(100, 1);
        let b = fig9_workload(100, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|p| (0.0..=100.0).contains(&p.x())));
    }

    // Smoke tests: each experiment runs end-to-end at a tiny scale.
    #[test]
    fn fig9_smoke() {
        let e = fig9_all('a', 0.01);
        assert_eq!(e.series.len(), 3);
        assert!(e.series.iter().all(|s| s.rows.len() == 9));
        let e = fig9_any(0.01);
        assert_eq!(e.series.len(), 2);
    }

    #[test]
    fn fig10_smoke() {
        let e = fig10_all('b', 0.02);
        assert_eq!(e.series.len(), 2);
        assert!(e.series.iter().all(|s| s.rows.len() == 7));
        let e = fig10_any(0.02);
        assert!(e.series.iter().all(|s| s.rows.len() == 6));
    }

    #[test]
    fn fig11_smoke() {
        let e = fig11('a', 0.002);
        assert_eq!(e.series.len(), 8);
        assert!(e.series.iter().all(|s| s.rows.len() == 6));
    }

    #[test]
    fn fig12_smoke() {
        let e = fig12('a', 0.05);
        assert_eq!(e.series.len(), 5);
        let e = fig12('b', 0.05);
        assert_eq!(e.series.len(), 5);
    }

    #[test]
    fn metric_comparison_smoke() {
        let (n, eps, rows) = metric_comparison(0.01);
        assert!(n >= 16);
        assert!(eps > 0.0);
        // 3 metrics × (3 All algorithms + 2 Any algorithms).
        assert_eq!(rows.len(), 15);
        for metric in ["L1", "L2", "LINF"] {
            assert!(rows.iter().any(|r| r.metric == metric));
        }
        // Group counts per (op, metric) agree across algorithms.
        for op in ["sgb-all", "sgb-any"] {
            for metric in ["L1", "L2", "LINF"] {
                let counts: Vec<usize> = rows
                    .iter()
                    .filter(|r| r.op == op && r.metric == metric)
                    .map(|r| r.groups)
                    .collect();
                assert!(counts.windows(2).all(|w| w[0] == w[1]), "{op} {metric}");
            }
        }
    }

    #[test]
    fn around_comparison_smoke() {
        let (radius, rows) = around_comparison(0.01);
        assert!(radius > 0.0);
        // (4 cardinalities + 5 center counts) × 2 algorithms.
        assert_eq!(rows.len(), 18);
        for sweep in ["n", "centers"] {
            assert!(rows.iter().any(|r| r.sweep == sweep));
        }
        // Occupied/outlier counts agree across algorithms per sweep point.
        for r in &rows {
            let twin = rows
                .iter()
                .find(|o| o.sweep == r.sweep && o.x == r.x && o.algorithm != r.algorithm)
                .unwrap();
            assert_eq!((r.occupied, r.outliers), (twin.occupied, twin.outliers));
        }
    }

    #[test]
    fn grid_comparison_smoke() {
        let rows = grid_comparison(0.01, 0);
        // (4 n-points + 3 eps-points) × (5 All + 4 Any algorithms)
        // + 5 center-points × 4 Around algorithms
        // + 3 thread-counts × 2 parallelisable grid paths.
        assert_eq!(rows.len(), 7 * 9 + 5 * 4 + 6);
        // The thread sweep pins explicit worker counts (1, 2, 4) and the
        // auto-resolved rows report the threads they actually ran on.
        let thread_rows: Vec<&GridBenchRow> =
            rows.iter().filter(|r| r.sweep == "threads").collect();
        assert_eq!(thread_rows.len(), 6);
        for r in &thread_rows {
            assert_eq!(r.threads, r.x as usize, "{r:?}");
        }
        assert!(rows.iter().all(|r| r.threads >= 1));
        for op in ["sgb-all", "sgb-any", "sgb-around"] {
            assert!(rows.iter().any(|r| r.op == op), "{op}");
            assert!(
                rows.iter().any(|r| r.op == op && r.algorithm == "Auto"),
                "{op} needs an Auto row"
            );
        }
        // Group counts agree across algorithms per (op, sweep, x) — the
        // runner asserts this too; double-check on the returned rows.
        for r in &rows {
            for other in &rows {
                if r.op == other.op && r.sweep == other.sweep && r.x == other.x {
                    assert_eq!(r.groups, other.groups, "{r:?} vs {other:?}");
                }
            }
        }
    }

    #[test]
    fn tables_smoke() {
        let e = table1(0.01);
        assert_eq!(e.series.len(), 9);
        let e = table2(0.2);
        assert_eq!(e.series.len(), 9);
    }
}
