//! Integration tests for the query governor: statement deadlines,
//! cooperative cancellation, and memory budgets — through both the core
//! `try_run` surface and the SQL session (`SET STATEMENT_TIMEOUT` /
//! `SET MEMORY_BUDGET`) — plus the error-path reusability contract: a
//! failed statement of **any** error class leaves the `Database` fully
//! usable, with coherent cache counters and live, epoch-monotone
//! subscriptions.

use std::time::{Duration, Instant};

use sgb::core::{Algorithm, CancelToken, QueryGovernor, SgbError, SgbQuery};
use sgb::geom::Point;
use sgb::relation::{Database, Error, SessionOptions};

/// Deterministic point cloud in `[0, 100)²` — xorshift64*, no RNG crate,
/// so every run and every platform sees the same data.
fn cloud(n: usize) -> Vec<Point<2>> {
    let mut state = 0x243F_6A88_85A3_08D3_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let unit = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        unit * 100.0
    };
    (0..n).map(|_| Point::new([next(), next()])).collect()
}

/// A session table `t (x, y)` filled with the same cloud, inserted in
/// chunks so statement strings stay reasonable.
fn cloud_db(n: usize) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (x DOUBLE, y DOUBLE)").unwrap();
    for chunk in cloud(n).chunks(10_000) {
        let values: Vec<String> = chunk
            .iter()
            .map(|p| format!("({}, {})", p.coords()[0], p.coords()[1]))
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }
    db
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

/// The acceptance bar: a 1 ms deadline over n = 100 000 comes back as
/// `Err(Timeout)` in bounded time — the operator gives up mid-flight
/// instead of finishing a multi-second grouping.
#[test]
fn one_ms_deadline_over_100k_points_times_out_in_bounded_time() {
    let pts = cloud(100_000);
    let governor = QueryGovernor::unrestricted().with_deadline(Duration::from_millis(1));
    let start = Instant::now();
    let got = SgbQuery::any(0.5).try_run(&pts, &governor);
    let elapsed = start.elapsed();
    assert_eq!(got, Err(SgbError::Timeout));
    assert!(
        elapsed < Duration::from_secs(5),
        "timeout was not bounded: took {elapsed:?}"
    );
    // The same query under no governor still completes (stateless core).
    assert!(SgbQuery::any(0.5)
        .try_run(&pts, &QueryGovernor::unrestricted())
        .is_ok());
}

/// The SQL path of the same bar: `SET STATEMENT_TIMEOUT = 1` aborts the
/// statement, leaves **no partial result in the session caches**, and the
/// rerun after clearing the timeout is bit-identical to a fresh database
/// over the same data.
#[test]
fn statement_timeout_via_sql_leaves_no_partial_state() {
    let sql = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.25";
    let mut db = cloud_db(100_000);
    db.execute("SET STATEMENT_TIMEOUT = 1").unwrap();
    let err = db.execute(sql).unwrap_err();
    assert!(
        matches!(err, Error::Aborted(SgbError::Timeout)),
        "expected Aborted(Timeout), got: {err}"
    );
    let hits_before = db.cache_stats().result_hits;

    db.execute("SET STATEMENT_TIMEOUT = 0").unwrap();
    let rerun = db.execute(sql).unwrap();
    // Had the aborted statement cached a partial `Grouping`, this rerun
    // would have *hit* it; instead it recomputes from scratch…
    assert_eq!(
        db.cache_stats().result_hits,
        hits_before,
        "the aborted statement left a result in the cache"
    );
    // …and agrees bit-for-bit with a database that never saw the timeout.
    let mut fresh = cloud_db(100_000);
    assert_eq!(rerun, fresh.execute(sql).unwrap());
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// A cancelled token aborts the statement before any real work; dropping
/// the token restores normal execution on the very same session.
#[test]
fn cancel_token_aborts_and_clearing_restores() {
    let sql = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1";
    let mut db = cloud_db(600);
    let token = CancelToken::new();
    token.cancel();
    db.set_cancel_token(Some(token));
    let err = db.execute(sql).unwrap_err();
    assert!(
        matches!(err, Error::Aborted(SgbError::Cancelled)),
        "expected Aborted(Cancelled), got: {err}"
    );
    db.set_cancel_token(None);
    let out = db.execute(sql).unwrap();
    let mut fresh = cloud_db(600);
    assert_eq!(out, fresh.execute(sql).unwrap());
}

// ---------------------------------------------------------------------------
// Memory budgets
// ---------------------------------------------------------------------------

/// Under a budget that rules out the ε-grid, `Auto` degrades to the
/// streaming scan — EXPLAIN records why, and the answer stays
/// bit-identical — while an explicitly pinned `Grid` fails loudly with
/// `BudgetExceeded` instead of silently running something else.
#[test]
fn memory_budget_degrades_auto_and_fails_pinned_grid() {
    // n = 600 > the grid's Auto threshold, so the budget is what flips it.
    let sql = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5";
    let mut db = cloud_db(600);
    db.execute("SET MEMORY_BUDGET = 64").unwrap();
    let explain = db.explain(sql).unwrap();
    assert!(
        explain.contains("memory budget"),
        "EXPLAIN does not record the degradation: {explain}"
    );
    let governed = db.execute(sql).unwrap();
    let mut free = cloud_db(600);
    assert_eq!(governed, free.execute(sql).unwrap());

    let mut pinned = Database::with_options(
        SessionOptions::new()
            .with_any_algorithm(Algorithm::Grid)
            .with_memory_budget(Some(64)),
    );
    pinned
        .execute("CREATE TABLE t (x DOUBLE, y DOUBLE)")
        .unwrap();
    let values: Vec<String> = cloud(600)
        .iter()
        .map(|p| format!("({}, {})", p.coords()[0], p.coords()[1]))
        .collect();
    pinned
        .execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    match pinned.execute(sql) {
        Err(Error::Aborted(SgbError::BudgetExceeded { needed, budget })) => {
            assert_eq!(budget, 64);
            assert!(needed > budget, "needed {needed} B <= budget {budget} B");
        }
        other => panic!("expected Aborted(BudgetExceeded), got: {other:?}"),
    }
}

/// SGB-All's `Grid` path prices its component pre-pass (an ε-grid over the
/// input) like SGB-Any prices its grid: over the budget, `Auto` degrades to
/// the group R-tree, with the fallback in EXPLAIN and the same answer,
/// while a session-pinned `Grid` fails with `BudgetExceeded`. The core
/// `try_run` surface gives the same verdicts.
#[test]
fn memory_budget_degrades_auto_and_fails_pinned_grid_for_all() {
    // n = 600 > SGB-All's all-pairs threshold, so the budget is what flips it.
    let sql =
        "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 2 ON-OVERLAP ELIMINATE";
    let mut free = cloud_db(600);
    let explain = free.explain(sql).unwrap();
    assert!(explain.contains("path: Grid"), "{explain}");
    let mut db = cloud_db(600);
    db.execute("SET MEMORY_BUDGET = 64").unwrap();
    let explain = db.explain(sql).unwrap();
    assert!(
        explain.contains("memory budget") && explain.contains("path: Indexed"),
        "EXPLAIN does not record the degradation: {explain}"
    );
    assert_eq!(db.execute(sql).unwrap(), free.execute(sql).unwrap());

    let mut pinned = Database::with_options(
        SessionOptions::new()
            .with_all_algorithm(Algorithm::Grid)
            .with_memory_budget(Some(64)),
    );
    pinned
        .execute("CREATE TABLE t (x DOUBLE, y DOUBLE)")
        .unwrap();
    let values: Vec<String> = cloud(600)
        .iter()
        .map(|p| format!("({}, {})", p.coords()[0], p.coords()[1]))
        .collect();
    pinned
        .execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    match pinned.execute(sql) {
        Err(Error::Aborted(SgbError::BudgetExceeded { needed, budget })) => {
            assert_eq!(budget, 64);
            assert!(needed > budget, "needed {needed} B <= budget {budget} B");
        }
        other => panic!("expected Aborted(BudgetExceeded), got: {other:?}"),
    }

    let pts = cloud(600);
    let tight = QueryGovernor::unrestricted().with_memory_budget(64);
    let auto = SgbQuery::all(2.0).try_run(&pts, &tight).unwrap();
    assert_eq!(auto.resolved_algorithm(), Algorithm::Indexed);
    assert!(
        auto.selection_reason().contains("memory budget"),
        "{}",
        auto.selection_reason()
    );
    assert_eq!(auto, SgbQuery::all(2.0).run(&pts));
    let pinned = SgbQuery::all(2.0)
        .algorithm(Algorithm::Grid)
        .try_run(&pts, &tight);
    assert!(
        matches!(pinned, Err(SgbError::BudgetExceeded { budget: 64, .. })),
        "{pinned:?}"
    );
}

/// A grid that is *already cached* is admitted regardless of the budget:
/// it exists, so running against it allocates nothing new.
#[test]
fn cached_grid_is_admitted_under_any_budget() {
    let sql = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5";
    let mut db = Database::with_options(SessionOptions::new().with_any_algorithm(Algorithm::Grid));
    db.execute("CREATE TABLE t (x DOUBLE, y DOUBLE)").unwrap();
    let values: Vec<String> = cloud(600)
        .iter()
        .map(|p| format!("({}, {})", p.coords()[0], p.coords()[1]))
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    let warm = db.execute(sql).unwrap(); // builds and caches the ε-grid
    db.execute("SET MEMORY_BUDGET = 64").unwrap();
    // Same pinned-Grid query that BudgetExceeded's on a cold session.
    assert_eq!(db.execute(sql).unwrap(), warm);
}

/// The R-tree build is priced like the ε-grid: a pinned `Indexed` plan
/// whose estimated tree would not fit fails loudly with `BudgetExceeded`,
/// while a tree that is *already cached* by a warm run is admitted under
/// the same budget (it exists; running against it allocates nothing new).
#[test]
fn rtree_build_is_priced_and_cached_tree_admitted() {
    let sql = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5";
    let mut pinned = Database::with_options(
        SessionOptions::new()
            .with_any_algorithm(Algorithm::Indexed)
            .with_memory_budget(Some(64)),
    );
    pinned
        .execute("CREATE TABLE t (x DOUBLE, y DOUBLE)")
        .unwrap();
    let values: Vec<String> = cloud(600)
        .iter()
        .map(|p| format!("({}, {})", p.coords()[0], p.coords()[1]))
        .collect();
    pinned
        .execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    match pinned.execute(sql) {
        Err(Error::Aborted(SgbError::BudgetExceeded { needed, budget })) => {
            assert_eq!(budget, 64);
            assert!(needed > budget, "needed {needed} B <= budget {budget} B");
        }
        other => panic!("expected Aborted(BudgetExceeded), got: {other:?}"),
    }

    // Warm session: build and cache the tree first, then clamp the budget.
    let mut warm_db =
        Database::with_options(SessionOptions::new().with_any_algorithm(Algorithm::Indexed));
    warm_db
        .execute("CREATE TABLE t (x DOUBLE, y DOUBLE)")
        .unwrap();
    warm_db
        .execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    let warm = warm_db.execute(sql).unwrap(); // builds and caches the R-tree
    warm_db.execute("SET MEMORY_BUDGET = 64").unwrap();
    assert_eq!(warm_db.execute(sql).unwrap(), warm);
}

/// The SGB-Around center-index build is priced into the budget too: a
/// pinned `Indexed` center index over-budget fails with `BudgetExceeded`,
/// `Auto` degrades to the O(1)-memory brute center scan with a
/// bit-identical answer, and a cached center index is admitted.
#[test]
fn around_center_index_is_priced_and_cached_index_admitted() {
    let sql = "SELECT count(*) FROM t \
               GROUP BY x, y AROUND ((10, 10), (30, 30), (50, 50), (70, 70)) L2 WITHIN 5";
    let mut pinned = Database::with_options(
        SessionOptions::new()
            .with_around_algorithm(Algorithm::Indexed)
            .with_memory_budget(Some(64)),
    );
    pinned
        .execute("CREATE TABLE t (x DOUBLE, y DOUBLE)")
        .unwrap();
    let values: Vec<String> = cloud(600)
        .iter()
        .map(|p| format!("({}, {})", p.coords()[0], p.coords()[1]))
        .collect();
    pinned
        .execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    match pinned.execute(sql) {
        Err(Error::Aborted(SgbError::BudgetExceeded { needed, budget })) => {
            assert_eq!(budget, 64);
            assert!(needed > budget, "needed {needed} B <= budget {budget} B");
        }
        other => panic!("expected Aborted(BudgetExceeded), got: {other:?}"),
    }

    // Auto under the same budget degrades to the brute scan, same answer.
    let mut auto_db = cloud_db(600);
    auto_db.execute("SET MEMORY_BUDGET = 64").unwrap();
    let governed = auto_db.execute(sql).unwrap();
    let mut free = cloud_db(600);
    assert_eq!(governed, free.execute(sql).unwrap());

    // Warm session: cache the center index, then clamp the budget.
    let mut warm_db =
        Database::with_options(SessionOptions::new().with_around_algorithm(Algorithm::Indexed));
    warm_db
        .execute("CREATE TABLE t (x DOUBLE, y DOUBLE)")
        .unwrap();
    warm_db
        .execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    let warm = warm_db.execute(sql).unwrap(); // builds and caches the center index
    warm_db.execute("SET MEMORY_BUDGET = 64").unwrap();
    assert_eq!(warm_db.execute(sql).unwrap(), warm);
}

// ---------------------------------------------------------------------------
// SET statement surface
// ---------------------------------------------------------------------------

#[test]
fn set_option_validation_and_session_state() {
    let mut db = Database::new();
    db.execute("SET STATEMENT_TIMEOUT = 250").unwrap();
    assert_eq!(
        db.session().statement_timeout,
        Some(Duration::from_millis(250))
    );
    // Case-insensitive; 0 clears.
    db.execute("set statement_timeout = 0").unwrap();
    assert_eq!(db.session().statement_timeout, None);
    db.execute("SET MEMORY_BUDGET = 1048576").unwrap();
    assert_eq!(db.session().memory_budget, Some(1 << 20));
    db.execute("SET MEMORY_BUDGET = 0").unwrap();
    assert_eq!(db.session().memory_budget, None);

    let err = db.execute("SET STATEMENT_TIMEOUT = -1").unwrap_err();
    assert!(matches!(err, Error::Eval(_)), "{err}");
    let err = db.execute("SET STATEMENT_TIMEOUT = 'soon'").unwrap_err();
    assert!(matches!(err, Error::Eval(_)), "{err}");
    let err = db.execute("SET WALRUS = 3").unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "{err}");
}

// ---------------------------------------------------------------------------
// Error-path reusability (the robustness invariant)
// ---------------------------------------------------------------------------

/// After every error class — parse, binding, evaluation, cancellation,
/// timeout, budget — the same session answers the same clean query with
/// the same bytes, its cache counters stay coherent (monotone, no
/// phantom hits), and a subscription registered before the errors keeps
/// serving epoch-monotone snapshots and still applies deltas.
#[test]
fn session_stays_usable_after_every_error_class() {
    let clean = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1";
    let mut db = cloud_db(600);
    // A second table whose ε-grid is never cached: the budget provocation
    // must hit the cold planning path (a cached grid is always admitted).
    db.execute("CREATE TABLE u (x DOUBLE, y DOUBLE)").unwrap();
    let values: Vec<String> = cloud(600)
        .iter()
        .map(|p| format!("({}, {})", p.coords()[0], p.coords()[1]))
        .collect();
    db.execute(&format!("INSERT INTO u VALUES {}", values.join(", ")))
        .unwrap();
    let sub = db
        .subscribe("SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5")
        .unwrap();
    let baseline = db.execute(clean).unwrap();
    let sub_groups = sub.snapshot().grouping().num_groups();
    let mut last_epoch = sub.snapshot().epoch();
    let mut last_stats = db.cache_stats();

    // Each closure provokes one error class; the session must shrug it off.
    type Provocation = Box<dyn Fn(&mut Database) -> Error>;
    let provocations: Vec<(&str, Provocation)> = vec![
        (
            "parse",
            Box::new(|db: &mut Database| db.execute("SELEC nonsense FROM").unwrap_err()),
        ),
        (
            "binding",
            Box::new(|db: &mut Database| db.execute("SELECT no_such_col FROM t").unwrap_err()),
        ),
        (
            "eval",
            Box::new(|db: &mut Database| {
                // x / 0.0 is infinite — the similarity attributes must be finite.
                db.execute("SELECT count(*) FROM t GROUP BY x / 0.0, y DISTANCE-TO-ANY L2 WITHIN 1")
                    .unwrap_err()
            }),
        ),
        (
            "cancelled",
            Box::new(|db: &mut Database| {
                let token = CancelToken::new();
                token.cancel();
                db.set_cancel_token(Some(token));
                let err = db
                    .execute("SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2")
                    .unwrap_err();
                db.set_cancel_token(None);
                err
            }),
        ),
        (
            "timeout",
            Box::new(|db: &mut Database| {
                // A 1 ns deadline is expired by the first governor check —
                // deterministic at any table size (the API accepts what the
                // millisecond-granular SQL surface cannot express).
                let opts = db
                    .session()
                    .with_statement_timeout(Some(Duration::from_nanos(1)));
                *db.session_mut() = opts;
                let err = db
                    .execute("SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2")
                    .unwrap_err();
                let opts = db.session().with_statement_timeout(None);
                *db.session_mut() = opts;
                err
            }),
        ),
        (
            "budget",
            Box::new(|db: &mut Database| {
                let opts = db
                    .session()
                    .with_any_algorithm(Algorithm::Grid)
                    .with_memory_budget(Some(64));
                *db.session_mut() = opts;
                let err = db
                    .execute("SELECT count(*) FROM u GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 3")
                    .unwrap_err();
                let opts = db
                    .session()
                    .with_any_algorithm(Algorithm::Auto)
                    .with_memory_budget(None);
                *db.session_mut() = opts;
                err
            }),
        ),
    ];

    for (class, provoke) in provocations {
        let err = provoke(&mut db);
        match class {
            "cancelled" => assert!(
                matches!(err, Error::Aborted(SgbError::Cancelled)),
                "{class}: {err}"
            ),
            "timeout" => assert!(
                matches!(err, Error::Aborted(SgbError::Timeout)),
                "{class}: {err}"
            ),
            "budget" => assert!(
                matches!(err, Error::Aborted(SgbError::BudgetExceeded { .. })),
                "{class}: {err}"
            ),
            _ => {}
        }

        // (a) The clean query still answers with the same bytes.
        assert_eq!(
            db.execute(clean).unwrap(),
            baseline,
            "after {class} error the clean query changed"
        );
        // (b) Cache counters only ever move forward.
        let stats = db.cache_stats();
        assert!(
            stats.result_hits >= last_stats.result_hits
                && stats.result_misses >= last_stats.result_misses,
            "after {class} error the cache counters went backwards: \
             {last_stats:?} -> {stats:?}"
        );
        last_stats = stats;
        // (c) The subscription is untouched: same grouping, monotone epoch.
        let snap = sub.snapshot();
        assert!(
            snap.epoch() >= last_epoch,
            "after {class} error the subscription epoch went backwards"
        );
        last_epoch = snap.epoch();
        assert_eq!(
            snap.grouping().num_groups(),
            sub_groups,
            "after {class} error the subscription grouping changed"
        );
    }

    // The session still applies deltas: an INSERT advances the epoch.
    db.execute("INSERT INTO t VALUES (200.0, 200.0)").unwrap();
    let snap = sub.snapshot();
    assert!(snap.epoch() > last_epoch);
    assert_eq!(snap.grouping().num_groups(), sub_groups + 1);
}
