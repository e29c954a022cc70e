//! Integration tests for the telemetry subsystem: per-query profiles
//! through the core `SgbQuery::telemetry` surface, `EXPLAIN ANALYZE`
//! per-node actuals for all three operators, the session metrics
//! registry (`Database::metrics_text`, Prometheus text format), the
//! slow-query log (`SET SLOW_QUERY_MS`), the cache-counter fold-in
//! (`cache_stats()` and `metrics_text()` can never disagree), and the
//! deadline-governed subscription delta path (a timed-out delta is
//! rejected atomically: nothing publishes, the epoch does not advance).

use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::core::SgbQuery;
use sgb::geom::Point;
use sgb::relation::Database;
use sgb::telemetry::{Counter, Telemetry};

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

/// A session table `t (x, y)` filled with the same cloud.
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
// Core: QueryProfile
// ---------------------------------------------------------------------------

/// A query run with an installed telemetry handle reports a profile whose
/// counters agree with the grouping; a query run without one reports
/// nothing (the disabled handle is the zero-cost default).
#[test]
fn query_profile_counters_agree_with_the_grouping() {
    let pts = cloud(2_000);
    let out = SgbQuery::any(0.8).telemetry(Telemetry::new()).run(&pts);
    let profile = out.profile().expect("telemetry was installed");
    assert_eq!(profile.counter(Counter::Groups), out.num_groups() as u64);
    assert_eq!(
        profile.counter(Counter::Outliers),
        out.outliers().len() as u64
    );
    assert!(
        profile.total_phase_nanos() > 0,
        "no phase time recorded: {}",
        profile.phase_summary()
    );

    // Without a handle: no profile, same answer.
    let plain = SgbQuery::any(0.8).run(&pts);
    assert!(plain.profile().is_none());
    assert_eq!(plain, out);
}

// ---------------------------------------------------------------------------
// SQL: EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

/// `EXPLAIN ANALYZE` annotates **every** plan node with its actual
/// elapsed time and row count, for all three similarity operators, and
/// the similarity node's detail reports its group count.
#[test]
fn explain_analyze_reports_per_node_actuals_for_all_three_operators() {
    let mut db = cloud_db(500);
    for sql in [
        "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 2 ON-OVERLAP ELIMINATE",
        "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2",
        "SELECT count(*) FROM t GROUP BY x, y AROUND ((25, 25), (75, 75)) L2 WITHIN 40",
    ] {
        let out = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        assert_eq!(out.schema.columns.len(), 1, "EXPLAIN output is one column");
        let text: Vec<String> = out.rows.iter().map(|r| r[0].to_string()).collect();
        for line in &text {
            assert!(
                line.contains("actual time:") && line.contains("rows:"),
                "node without actuals in {sql}: {line}"
            );
        }
        let sim_line = text
            .iter()
            .find(|l| l.contains("SimilarityGroupBy") || l.contains("SimilarityAround"))
            .unwrap_or_else(|| panic!("no similarity node in {sql}: {text:?}"));
        assert!(
            sim_line.contains("groups:"),
            "similarity node without group detail: {sim_line}"
        );
        // The method surface renders the same tree as the statement
        // (modulo the run-to-run timing values, so compare shapes).
        let method = db.explain_analyze(sql).unwrap();
        assert_eq!(method.trim_end().lines().count(), text.len());
    }
}

/// SGB-All's `Grid` path reports how its component pre-pass split the
/// input: on a table of two clusters far apart, each one ε-component,
/// `EXPLAIN ANALYZE` prints `components: 2 (largest 150)`, and the core
/// profile carries the same two counters. A path without the pre-pass
/// reports no components.
#[test]
fn explain_analyze_reports_the_sgb_all_components() {
    // Two 15 × 10 lattices with step 0.5, far apart: at ε = 0.6 each is
    // one ε-component, and 300 rows resolve `Auto` to `Grid`.
    let pts: Vec<Point<2>> = [(10.0, 10.0), (80.0, 80.0)]
        .iter()
        .flat_map(|&(cx, cy)| {
            (0..150).map(move |i| {
                Point::new([cx + 0.5 * f64::from(i % 15), cy + 0.5 * f64::from(i / 15)])
            })
        })
        .collect();
    let mut db = Database::new();
    db.execute("CREATE TABLE t (x DOUBLE, y DOUBLE)").unwrap();
    let values: Vec<String> = pts
        .iter()
        .map(|p| format!("({}, {})", p.coords()[0], p.coords()[1]))
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    let sql = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.6";
    let analyzed = db.explain_analyze(sql).unwrap();
    let sim = analyzed
        .lines()
        .find(|l| l.contains("SimilarityGroupBy"))
        .unwrap_or_else(|| panic!("no similarity node: {analyzed}"));
    assert!(sim.contains("path: Grid"), "{analyzed}");
    assert!(
        sim.contains("components: 2 (largest 150)"),
        "no component detail: {analyzed}"
    );

    let profile = SgbQuery::all(0.6)
        .telemetry(Telemetry::new())
        .run(&pts)
        .profile()
        .unwrap();
    assert_eq!(profile.counter(Counter::Components), 2);
    assert_eq!(profile.counter(Counter::LargestComponent), 150);
    let scan = SgbQuery::all(0.6)
        .algorithm(sgb::Algorithm::BoundsChecking)
        .telemetry(Telemetry::new())
        .run(&pts)
        .profile()
        .unwrap();
    assert_eq!(scan.counter(Counter::Components), 0);
}

/// Plain `EXPLAIN` through the statement surface stays estimate-only: no
/// actuals, and byte-identical to `Database::explain`.
#[test]
fn explain_statement_without_analyze_has_no_actuals() {
    let mut db = cloud_db(100);
    let sql = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2";
    let out = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    let text: Vec<String> = out.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(text.iter().all(|l| !l.contains("actual time:")), "{text:?}");
    assert_eq!(text.join("\n"), db.explain(sql).unwrap().trim_end());
}

/// The root node's actual row count in `EXPLAIN ANALYZE` equals the row
/// count of actually running the `SELECT` — across operators, epsilons,
/// and input sizes (the acceptance proptest, deterministic here because
/// the inputs enumerate a fixed lattice).
#[test]
fn explain_analyze_row_counts_equal_the_select_results() {
    for n in [40, 230, 600] {
        let mut db = cloud_db(n);
        for sql in [
            "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5".to_owned(),
            "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY LINF WITHIN 4".to_owned(),
            "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 6 \
             ON-OVERLAP ELIMINATE"
                .to_owned(),
            "SELECT count(*), min(x) FROM t \
             GROUP BY x, y AROUND ((20, 20), (50, 50), (80, 80)) L2 WITHIN 25"
                .to_owned(),
        ] {
            let rows = db.execute(&sql).unwrap().rows.len();
            let analyzed = db.explain_analyze(&sql).unwrap();
            let root = analyzed.lines().next().unwrap();
            let reported =
                parse_rows(root).unwrap_or_else(|| panic!("no rows annotation on root: {root}"));
            assert_eq!(reported, rows, "n = {n}, sql = {sql}\n{analyzed}");
        }
    }
}

/// Extracts the integer after `field` (e.g. `"rows: "`, `"groups: "`)
/// from an `EXPLAIN ANALYZE` line.
fn parse_count(line: &str, field: &str) -> Option<usize> {
    let tail = &line[line.find(field)? + field.len()..];
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn parse_rows(line: &str) -> Option<usize> {
    parse_count(line, "rows: ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance property: over random tables, epsilons, and
    /// operators, the `EXPLAIN ANALYZE` root's actual row count equals the
    /// actual `SELECT` result's, and (for the connected-components
    /// operator, where every group emits exactly one output row) the
    /// similarity node's `groups:` detail does too.
    #[test]
    fn explain_analyze_counts_match_the_select(
        rows in vec((0.0f64..10.0, 0.0f64..10.0), 1..80),
        eps in 0.3f64..3.0,
        op in 0usize..3,
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE p (x DOUBLE, y DOUBLE)").unwrap();
        let values: Vec<String> = rows.iter().map(|(x, y)| format!("({x}, {y})")).collect();
        db.execute(&format!("INSERT INTO p VALUES {}", values.join(", "))).unwrap();
        let sql = match op {
            0 => format!("SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN {eps}"),
            1 => format!(
                "SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN {eps} \
                 ON-OVERLAP ELIMINATE"
            ),
            _ => format!(
                "SELECT count(*) FROM p GROUP BY x, y AROUND ((2, 2), (8, 8)) L2 WITHIN {eps}"
            ),
        };
        let rows_out = db.execute(&sql).unwrap().rows.len();
        let analyzed = db.explain_analyze(&sql).unwrap();
        let root = analyzed.lines().next().unwrap();
        prop_assert_eq!(parse_rows(root), Some(rows_out), "root actuals diverged\n{}", analyzed);
        if op == 0 {
            let sim = analyzed
                .lines()
                .find(|l| l.contains("SimilarityGroupBy"))
                .expect("no similarity node");
            prop_assert_eq!(parse_count(sim, "groups: "), Some(rows_out), "{}", analyzed);
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// `metrics_text()` renders valid Prometheus text: every family gets one
/// `# TYPE` header, every sample line is `name{labels} value`, and the
/// statement counters reflect exactly what the session executed.
#[test]
fn metrics_text_is_prometheus_parseable_and_counts_statements() {
    let mut db = cloud_db(100);
    let q = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2";
    db.execute(q).unwrap();
    db.execute(q).unwrap();
    db.execute("SELEC nonsense").unwrap_err();
    let text = db.metrics_text();

    assert!(
        text.contains("# TYPE sgb_statements_total counter"),
        "{text}"
    );
    assert!(text.contains("# TYPE sgb_statement_ms histogram"), "{text}");
    let select_ok = text
        .lines()
        .find(|l| l.starts_with("sgb_statements_total") && l.contains("kind=\"select\""))
        .expect("select counter missing");
    assert!(
        select_ok.contains("outcome=\"ok\"") && select_ok.ends_with(" 2"),
        "{select_ok}"
    );
    assert!(
        text.lines()
            .any(|l| l.contains("kind=\"parse\"") && l.contains("outcome=\"parse\"")),
        "parse failure not counted:\n{text}"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("sgb_operator_runs_total") && l.contains("operator=\"sgb_any\"")),
        "operator counter missing:\n{text}"
    );

    // Shape check: every non-comment line is `name{labels} value` with a
    // parseable float value and balanced label braces.
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (series, value) = line.rsplit_once(' ').expect("sample without value");
        assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
        match series.split_once('{') {
            Some((name, rest)) => {
                assert!(
                    !name.is_empty() && rest.ends_with('}'),
                    "bad series: {line}"
                );
            }
            None => assert!(!series.is_empty(), "bad series: {line}"),
        }
    }
    // Exactly one TYPE header per family.
    let mut seen = std::collections::HashSet::new();
    for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
        let family = line.split_whitespace().nth(2).expect("family name");
        assert!(
            seen.insert(family.to_owned()),
            "duplicate # TYPE for {family}"
        );
    }
}

/// The registry's `sgb_cache_events_total` family mirrors `cache_stats()`
/// exactly at every read — the fold-in happens on access, so the two
/// surfaces cannot disagree.
#[test]
fn cache_stats_and_metrics_text_never_disagree() {
    let mut db = cloud_db(200);
    let q = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2";
    for _ in 0..3 {
        db.execute(q).unwrap();
        let stats = db.cache_stats();
        let metrics = db.metrics();
        for (event, expect) in [
            ("index_hit", stats.index_hits),
            ("index_miss", stats.index_misses),
            ("result_hit", stats.result_hits),
            ("result_miss", stats.result_misses),
            ("eviction", stats.evictions),
            ("validation_skipped", stats.validations_skipped),
        ] {
            assert_eq!(
                metrics.counter_value("sgb_cache_events_total", &[("event", event)]),
                expect,
                "registry and cache_stats disagree on {event}"
            );
        }
    }
    assert!(db.cache_stats().result_hits >= 1, "repeat query never hit");
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// `SET SLOW_QUERY_MS` arms the ring buffer: statements at/over the
/// threshold are recorded with their wall time and outcome; clearing the
/// threshold (0) stops recording. Off by default.
#[test]
fn slow_query_log_records_over_threshold_statements() {
    let mut db = cloud_db(20_000);
    let q = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.4";
    db.execute(q).unwrap();
    assert!(db.slow_queries().is_empty(), "recorded while disarmed");

    // Threshold 1 ms: a 20k-point similarity grouping comfortably exceeds
    // it on any machine (and the entry proves the wall time was measured).
    db.execute("SET SLOW_QUERY_MS = 1").unwrap();
    db.execute(q).unwrap(); // result-cache hit — may or may not be slow
    db.execute("DELETE FROM t WHERE x < 0").unwrap(); // no-op, fast
    db.execute("INSERT INTO t VALUES (1.0, 2.0)").unwrap(); // invalidates caches
    db.execute(q).unwrap(); // recomputes: certainly over 1 ms
    let slow = db.slow_queries();
    let entry = slow
        .iter()
        .rev()
        .find(|e| e.statement == q)
        .expect("the recomputed query was not logged");
    assert_eq!(entry.outcome, "ok");
    assert!(
        entry.millis >= 1.0,
        "logged under threshold: {}",
        entry.millis
    );

    // 0 disarms; the log keeps its entries but gains no more.
    db.execute("SET SLOW_QUERY_MS = 0").unwrap();
    let len = db.slow_queries().len();
    db.execute("INSERT INTO t VALUES (3.0, 4.0)").unwrap();
    db.execute(q).unwrap();
    assert_eq!(db.slow_queries().len(), len, "recorded while disarmed");
}

/// Failed statements are logged too, with their error class as outcome.
#[test]
fn slow_query_log_records_failures_with_their_class() {
    let mut db = cloud_db(100_000);
    db.execute("SET SLOW_QUERY_MS = 1").unwrap();
    db.execute("SET STATEMENT_TIMEOUT = 2").unwrap();
    let q = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.25";
    db.execute(q).unwrap_err(); // 2 ms deadline over 100k points: timeout
    let slow = db.slow_queries();
    let entry = slow
        .iter()
        .rev()
        .find(|e| e.statement == q)
        .expect("the timed-out query was not logged");
    assert_eq!(entry.outcome, "timeout");
}

// ---------------------------------------------------------------------------
// Subscription deltas under the session deadline
// ---------------------------------------------------------------------------

/// A delta that overruns the session deadline is rejected **atomically**:
/// the INSERT itself succeeds (the table is the source of truth), but the
/// subscription publishes nothing — the snapshot epoch and grouping stay
/// exactly where they were — and the handle deactivates rather than
/// silently drifting from the table. The registry records the rejection.
#[test]
fn subscription_delta_timeout_rejects_atomically() {
    let mut db = cloud_db(600);
    let sub = db
        .subscribe("SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5")
        .unwrap();
    let before = sub.snapshot();
    assert!(sub.is_active());

    // A 1 ns deadline is expired by the delta's first governor check —
    // deterministic at any table size (the API accepts what the
    // millisecond-granular SQL surface cannot express).
    let opts = db
        .session()
        .with_statement_timeout(Some(Duration::from_nanos(1)));
    *db.session_mut() = opts;
    db.execute("INSERT INTO t VALUES (200.0, 200.0)").unwrap();
    let opts = db.session().with_statement_timeout(None);
    *db.session_mut() = opts;

    // Atomic rejection: no publish, no epoch advance, handle deactivated.
    assert!(!sub.is_active(), "timed-out delta left the handle active");
    let after = sub.snapshot();
    assert_eq!(
        after.epoch(),
        before.epoch(),
        "epoch advanced past a rejected delta"
    );
    assert_eq!(
        after.grouping().num_groups(),
        before.grouping().num_groups(),
        "grouping changed under a rejected delta"
    );
    assert_eq!(
        db.metrics()
            .counter_value("sgb_subscription_deltas_total", &[("outcome", "rejected")]),
        1
    );

    // The deactivated subscription ignores later deltas (no resurrection)…
    db.execute("INSERT INTO t VALUES (201.0, 201.0)").unwrap();
    assert!(!sub.is_active());
    assert_eq!(sub.snapshot().epoch(), before.epoch());
    // …and the session itself keeps serving correct answers.
    let sql = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5";
    let live = db.execute(sql).unwrap();
    let mut fresh = cloud_db(600);
    fresh
        .execute("INSERT INTO t VALUES (200.0, 200.0), (201.0, 201.0)")
        .unwrap();
    assert_eq!(live, fresh.execute(sql).unwrap());
}

/// An ungoverned session applies the same delta fine: the counter records
/// the applied outcome and the epoch advances — the deadline, not the
/// telemetry, is what rejected the delta above.
#[test]
fn subscription_delta_without_deadline_applies_and_counts() {
    let mut db = cloud_db(600);
    let sub = db
        .subscribe("SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5")
        .unwrap();
    let epoch0 = sub.snapshot().epoch();
    db.execute("INSERT INTO t VALUES (200.0, 200.0)").unwrap();
    assert!(sub.is_active());
    assert!(sub.snapshot().epoch() > epoch0);
    assert_eq!(
        db.metrics()
            .counter_value("sgb_subscription_deltas_total", &[("outcome", "applied")]),
        1
    );
    assert_eq!(
        db.metrics()
            .counter_value("sgb_subscription_deltas_total", &[("outcome", "rejected")]),
        0
    );
}
