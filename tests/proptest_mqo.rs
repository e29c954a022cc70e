//! Property tests for the shared-work multi-query layer: over random
//! query mixes with interleaved INSERTs and DROP/CREATE cycles, a session
//! with the cache enabled must produce **bit-identical** result tables to
//! a cache-disabled session. Session-pinned algorithms are part of the
//! random mix so the R-tree and ε-grid cached paths are exercised even at
//! the small cardinalities proptest generates.

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::core::{Algorithm, Metric, SgbCache, SgbQuery};
use sgb::geom::Point;
use sgb::relation::{Database, SessionOptions};

/// One step of a random session: a similarity SELECT, an INSERT, a
/// predicate DELETE, a predicate UPDATE (a delete+insert pair through the
/// same maintenance path), or a DROP + CREATE cycle that resets the table
/// (every mutation kind must invalidate the cached indexes and results
/// built for the table).
#[derive(Clone, Debug)]
enum Op {
    Query(String),
    Insert(f64, f64),
    Delete(f64),
    Update(f64, f64),
    Recreate,
}

impl Op {
    fn statements(&self) -> Vec<String> {
        match self {
            Op::Query(sql) => vec![sql.clone()],
            Op::Insert(x, y) => vec![format!("INSERT INTO t VALUES ({x}, {y})")],
            Op::Delete(cut) => vec![format!("DELETE FROM t WHERE x > {cut}")],
            Op::Update(cut, shift) => vec![format!(
                "UPDATE t SET x = x + {shift}, y = y WHERE x < {cut}"
            )],
            Op::Recreate => vec![
                "DROP TABLE t".into(),
                "CREATE TABLE t (x DOUBLE, y DOUBLE)".into(),
            ],
        }
    }
}

/// A random similarity SELECT over `t` — all three operator families,
/// random metric and ε so repeats, ε-supersets, and fresh shapes all
/// occur in a mix.
fn metric() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["L1", "L2", "LINF"])
}

/// A coarse ε lattice makes exact repeats (result-cache hits) likely
/// while still varying the grid cell size across the mix.
fn eps() -> impl Strategy<Value = f64> {
    (1u32..6).prop_map(|k| f64::from(k) * 0.5)
}

fn arb_query() -> impl Strategy<Value = String> {
    prop_oneof![
        (eps(), metric()).prop_map(|(e, m)| format!(
            "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY {m} WITHIN {e}"
        )),
        (eps(), metric()).prop_map(|(e, m)| format!(
            "SELECT count(*), min(x) FROM t \
             GROUP BY x, y AROUND ((1, 1), (5, 5), (2.5, 6)) {m} WITHIN {e}"
        )),
        (eps(), metric()).prop_map(|(e, m)| format!(
            "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ALL {m} WITHIN {e}"
        )),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_query().prop_map(Op::Query),
        arb_query().prop_map(Op::Query),
        arb_query().prop_map(Op::Query),
        (0.0f64..8.0, 0.0f64..8.0).prop_map(|(x, y)| Op::Insert(x, y)),
        // A high cut deletes a thin slice (often nothing); a low cut can
        // empty the table — both ends stress cache invalidation.
        (0.0f64..8.0).prop_map(Op::Delete),
        // Updates rewrite a random slice in place (rows move to the end of
        // the table), exercising the delete+insert maintenance route.
        (0.0f64..8.0, -2.0f64..2.0).prop_map(|(cut, shift)| Op::Update(cut, shift)),
        Just(Op::Recreate),
    ]
}

/// `Auto` plus every algorithm valid for both DISTANCE-TO-ANY and AROUND.
fn pick(i: usize) -> Algorithm {
    [
        Algorithm::Auto,
        Algorithm::AllPairs,
        Algorithm::Grid,
        Algorithm::Indexed,
    ][i]
}

fn seed_db(opts: SessionOptions, initial: &[(f64, f64)]) -> Database {
    let mut db = Database::with_options(opts);
    db.execute("CREATE TABLE t (x DOUBLE, y DOUBLE)").unwrap();
    for (x, y) in initial {
        db.execute(&format!("INSERT INTO t VALUES ({x}, {y})"))
            .unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cached session and the cache-disabled session agree —
    /// bit-identically, errors included — on every statement of a random
    /// mix of queries, inserts, and table drops.
    #[test]
    fn cached_execution_is_bit_identical_to_cold(
        initial in vec((0.0f64..8.0, 0.0f64..8.0), 0..20),
        ops in vec(arb_op(), 1..24),
        any_algo in 0usize..4,
        around_algo in 0usize..4,
    ) {
        let opts = SessionOptions::new()
            .with_any_algorithm(pick(any_algo))
            .with_around_algorithm(pick(around_algo));
        let mut warm = seed_db(opts, &initial);
        let mut cold = seed_db(opts.with_cache(false), &initial);
        for op in &ops {
            for sql in op.statements() {
                match (warm.execute(&sql), cold.execute(&sql)) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "on {}", sql),
                    (Err(a), Err(b)) => {
                        prop_assert_eq!(a.to_string(), b.to_string(), "on {}", sql)
                    }
                    (a, b) => prop_assert!(
                        false,
                        "warm and cold disagree on {sql}: {a:?} vs {b:?}"
                    ),
                }
            }
        }
    }

    /// At the core layer, `SgbQuery::run_cached` against one shared
    /// warming cache equals `SgbQuery::run` — full `Grouping` equality
    /// (groups, eliminated, outliers), plus resolved-algorithm equality
    /// whenever the algorithm is pinned (under `Auto` the cache-aware
    /// cost model may legitimately pick a different, free index path).
    #[test]
    fn core_run_cached_matches_cold_run(
        points in vec((0.0f64..8.0, 0.0f64..8.0), 0..30),
        queries in vec((0usize..3, 0usize..4, 1u32..6, 0usize..3), 1..12),
    ) {
        let pts: Vec<Point<2>> =
            points.iter().map(|&(x, y)| Point::new([x, y])).collect();
        let cache = SgbCache::new();
        for (op, algo, eps_k, metric_i) in queries {
            let eps = f64::from(eps_k) * 0.5;
            let metric = [Metric::L1, Metric::L2, Metric::LInf][metric_i];
            let query = match op {
                0 => SgbQuery::any(eps),
                1 => SgbQuery::all(eps),
                _ => SgbQuery::around(vec![
                    Point::new([1.0, 1.0]),
                    Point::new([5.0, 5.0]),
                    Point::new([2.5, 6.0]),
                ])
                .max_radius(eps),
            }
            .metric(metric)
            .algorithm(pick(algo));
            let cold = query.run(&pts);
            let cached = query.run_cached(&pts, &cache, 7);
            prop_assert_eq!(&cold, &cached);
            if pick(algo) != Algorithm::Auto {
                prop_assert_eq!(cold.resolved_algorithm(), cached.resolved_algorithm());
            }
        }
    }

    /// Repeating one query never changes its answer as the cache warms,
    /// and the session's counters actually move: the second run of an
    /// identical statement is a result-cache hit.
    #[test]
    fn repeat_queries_hit_and_stay_identical(
        initial in vec((0.0f64..8.0, 0.0f64..8.0), 1..20),
        sql in arb_query(),
    ) {
        let mut db = seed_db(SessionOptions::new(), &initial);
        let first = db.execute(&sql).unwrap();
        let second = db.execute(&sql).unwrap();
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(db.cache_stats().result_hits, 1);
        // An INSERT bumps the table version: the third run recomputes
        // (no new result hit) yet still agrees with cold execution.
        db.execute("INSERT INTO t VALUES (3.25, 3.25)").unwrap();
        let third = db.execute(&sql).unwrap();
        prop_assert_eq!(db.cache_stats().result_hits, 1);
        let mut cold = seed_db(SessionOptions::new().with_cache(false), &initial);
        cold.execute("INSERT INTO t VALUES (3.25, 3.25)").unwrap();
        prop_assert_eq!(third, cold.execute(&sql).unwrap());
    }
}
