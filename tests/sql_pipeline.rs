//! End-to-end SQL pipeline tests over generated TPC-H-like data: the
//! engine's similarity group-by must agree with running the core operator
//! directly over the extracted points, and standard SQL answers must agree
//! with hand-rolled computation.

use std::collections::HashMap;

use sgb::datagen::TpchConfig;
use sgb::geom::{Metric, Point};
use sgb::relation::{Database, Value};
use sgb::SgbQuery;

fn small_db() -> Database {
    let mut db = Database::new();
    TpchConfig::new(1.0)
        .density(0.002)
        .generate()
        .register_all(&mut db);
    db
}

#[test]
fn standard_group_by_matches_manual_aggregation() {
    let db = small_db();
    let out = db
        .query("SELECT o_custkey, count(*), sum(o_totalprice) FROM orders GROUP BY o_custkey")
        .unwrap();
    // Manual aggregation over the raw table.
    let orders = db.table("orders").unwrap();
    let mut manual: HashMap<i64, (i64, f64)> = HashMap::new();
    for row in &orders.rows {
        let cust = row[1].as_i64().unwrap();
        let price = row[2].as_f64().unwrap();
        let e = manual.entry(cust).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += price;
    }
    assert_eq!(out.len(), manual.len());
    for row in &out.rows {
        let cust = row[0].as_i64().unwrap();
        let (n, total) = manual[&cust];
        assert_eq!(row[1].as_i64().unwrap(), n);
        assert!((row[2].as_f64().unwrap() - total).abs() < 1e-6);
    }
}

#[test]
fn join_count_matches_manual_join() {
    let db = small_db();
    let out = db
        .query(
            "SELECT count(*) FROM customer, orders \
             WHERE c_custkey = o_custkey AND c_acctbal > 0",
        )
        .unwrap();
    let customers = db.table("customer").unwrap();
    let positive: std::collections::HashSet<i64> = customers
        .rows
        .iter()
        .filter(|r| r[2].as_f64().unwrap() > 0.0)
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    let manual = db
        .table("orders")
        .unwrap()
        .rows
        .iter()
        .filter(|r| positive.contains(&r[1].as_i64().unwrap()))
        .count();
    assert_eq!(out.scalar().unwrap().as_i64().unwrap() as usize, manual);
}

#[test]
fn sql_sgb_any_matches_core_operator() {
    let db = small_db();
    // Through SQL.
    let out = db
        .query(
            "SELECT count(*) FROM customer \
             GROUP BY c_acctbal / 11000.0, c_nationkey / 25.0 \
             DISTANCE-TO-ANY L2 WITHIN 0.05",
        )
        .unwrap();
    // Directly through the operator on extracted points.
    let customers = db.table("customer").unwrap();
    let points: Vec<Point<2>> = customers
        .rows
        .iter()
        .map(|r| {
            Point::new([
                r[2].as_f64().unwrap() / 11000.0,
                r[3].as_f64().unwrap() / 25.0,
            ])
        })
        .collect();
    let grouping = SgbQuery::any(0.05).metric(Metric::L2).run(&points);
    assert_eq!(out.len(), grouping.num_groups());
    let mut sql_counts: Vec<i64> = out.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    sql_counts.sort_unstable();
    let mut core_counts: Vec<i64> = grouping.sizes().iter().map(|&s| s as i64).collect();
    core_counts.sort_unstable();
    assert_eq!(sql_counts, core_counts);
}

#[test]
fn sgb_all_sum_is_preserved_under_join_any() {
    // JOIN-ANY only redistributes records among groups: the total of any
    // summed measure is invariant.
    let db = small_db();
    let total = db
        .query("SELECT sum(c_acctbal) FROM customer")
        .unwrap()
        .scalar()
        .unwrap()
        .as_f64()
        .unwrap();
    let grouped = db
        .query(
            "SELECT sum(s) FROM (SELECT sum(c_acctbal) AS s FROM customer \
             GROUP BY c_acctbal / 11000.0, c_nationkey / 25.0 \
             DISTANCE-TO-ALL L2 WITHIN 0.1 ON-OVERLAP JOIN-ANY) AS g",
        )
        .unwrap()
        .scalar()
        .unwrap()
        .as_f64()
        .unwrap();
    assert!((total - grouped).abs() < 1e-6, "{total} vs {grouped}");
}

#[test]
fn in_subquery_with_having_selects_large_orders() {
    let db = small_db();
    let out = db
        .query(
            "SELECT count(*) FROM orders WHERE o_orderkey IN \
             (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey \
              HAVING sum(l_quantity) > 150)",
        )
        .unwrap();
    // Manual.
    let lineitem = db.table("lineitem").unwrap();
    let mut qty: HashMap<i64, i64> = HashMap::new();
    for row in &lineitem.rows {
        *qty.entry(row[0].as_i64().unwrap()).or_insert(0) += row[3].as_i64().unwrap();
    }
    let manual = qty.values().filter(|&&q| q > 150).count();
    assert_eq!(out.scalar().unwrap().as_i64().unwrap() as usize, manual);
    assert!(manual > 0, "the workload should contain large orders");
}

#[test]
fn date_range_filter_matches_manual_count() {
    let db = small_db();
    let out = db
        .query(
            "SELECT count(*) FROM lineitem \
             WHERE l_shipdate > date '1995-01-01' \
               AND l_shipdate < date '1995-01-01' + interval '10' month",
        )
        .unwrap();
    let lo = sgb::relation::value::parse_date("1995-01-01").unwrap();
    let hi = sgb::relation::value::add_months_days(lo, 10, 0);
    let manual = db
        .table("lineitem")
        .unwrap()
        .rows
        .iter()
        .filter(|r| {
            let Value::Date(d) = r[6] else {
                panic!("expected date")
            };
            d > lo && d < hi
        })
        .count();
    assert_eq!(out.scalar().unwrap().as_i64().unwrap() as usize, manual);
}

#[test]
fn engine_algorithm_setting_changes_plan_not_result() {
    use sgb::Algorithm;
    // ε is chosen off the data's value grid (acctbal cents / 11000,
    // nationkey / 25): distances that tie with ε only up to floating-point
    // rounding may legitimately be arbitrated differently by the rectangle
    // filter and the member scan (see DESIGN.md), so an on-grid ε such as
    // 0.08 would make this equality over-constrained.
    let sql = "SELECT count(*) FROM customer \
               GROUP BY c_acctbal / 11000.0, c_nationkey / 25.0 \
               DISTANCE-TO-ALL LINF WITHIN 0.0777 ON-OVERLAP ELIMINATE";
    let mut results = Vec::new();
    for algo in [
        Algorithm::AllPairs,
        Algorithm::BoundsChecking,
        Algorithm::Indexed,
    ] {
        let mut db = small_db();
        db.session_mut().all_algorithm = algo;
        results.push(db.query(sql).unwrap().sorted());
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);

    let any_sql = "SELECT count(*) FROM customer \
                   GROUP BY c_acctbal / 11000.0, c_nationkey / 25.0 \
                   DISTANCE-TO-ANY LINF WITHIN 0.04";
    let mut results = Vec::new();
    for algo in [Algorithm::AllPairs, Algorithm::Indexed] {
        let mut db = small_db();
        db.session_mut().any_algorithm = algo;
        results.push(db.query(any_sql).unwrap().sorted());
    }
    assert_eq!(results[0], results[1]);
}

/// A fixture on which the three Minkowski norms produce three different
/// groupings at ε = 1: the pair distances are chosen between the diamond,
/// the disc, and the square.
///
/// * `a—b`: Δ = (0.7, 0.6) → δ∞ = 0.7, δ2 ≈ 0.92, δ1 = 1.3 (edge under
///   L∞/L2 only);
/// * `b—c`: Δ = (0.95, 0.95) → δ∞ = 0.95, δ2 ≈ 1.34, δ1 = 1.9 (edge under
///   L∞ only).
fn metric_fixture_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (0.0, 0.0), (0.7, 0.6), (1.65, -0.35)")
        .unwrap();
    db
}

/// Sorted per-group counts of a similarity query under `metric_kw`.
fn group_counts(db: &Database, head: &str, metric_kw: &str, tail: &str) -> Vec<i64> {
    let sql = format!("SELECT count(*) FROM pts GROUP BY x, y {head} {metric_kw} WITHIN 1 {tail}");
    let out = db.query(&sql).unwrap();
    let mut counts: Vec<i64> = out.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    counts.sort_unstable();
    counts
}

#[test]
fn three_metrics_three_groupings_distance_to_any() {
    // Guards against silent keyword aliasing: if any two of LONE/LTWO/LINF
    // planned the same metric, two of these groupings would coincide.
    let db = metric_fixture_db();
    assert_eq!(group_counts(&db, "DISTANCE-TO-ANY", "LINF", ""), vec![3]);
    assert_eq!(group_counts(&db, "DISTANCE-TO-ANY", "LTWO", ""), vec![1, 2]);
    assert_eq!(
        group_counts(&db, "DISTANCE-TO-ANY", "LONE", ""),
        vec![1, 1, 1]
    );
    // Canonical spellings plan identically to the Table 2 prose variants.
    assert_eq!(
        group_counts(&db, "DISTANCE-TO-ANY", "L1", ""),
        group_counts(&db, "DISTANCE-TO-ANY", "LONE", "")
    );
    assert_eq!(
        group_counts(&db, "DISTANCE-TO-ANY", "L2", ""),
        group_counts(&db, "DISTANCE-TO-ANY", "LTWO", "")
    );
}

#[test]
fn three_metrics_three_groupings_distance_to_all() {
    // Under ELIMINATE: L∞ forms {a,b}, then c (close to b, far from a)
    // makes it an overlap group and b is eliminated → [1, 1]. L2 forms
    // {a,b} and c stays an untouched singleton → [2, 1]. L1 has no edge at
    // all → [1, 1, 1]. Three metrics, three distinct groupings.
    let db = metric_fixture_db();
    let tail = "ON-OVERLAP ELIMINATE";
    assert_eq!(
        group_counts(&db, "DISTANCE-TO-ALL", "LINF", tail),
        vec![1, 1]
    );
    assert_eq!(
        group_counts(&db, "DISTANCE-TO-ALL", "LTWO", tail),
        vec![1, 2]
    );
    assert_eq!(
        group_counts(&db, "DISTANCE-TO-ALL", "LONE", tail),
        vec![1, 1, 1]
    );
}

#[test]
fn explain_prints_the_true_metric_for_lone() {
    let db = metric_fixture_db();
    let plan = db
        .explain("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL LONE WITHIN 1")
        .unwrap();
    assert!(plan.contains("SGB-All L1 WITHIN 1"), "plan:\n{plan}");
    let plan = db
        .explain("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY WITHIN 1 USING lone")
        .unwrap();
    assert!(plan.contains("SGB-Any L1 WITHIN 1"), "plan:\n{plan}");
}

#[test]
fn unknown_metric_keyword_fails_loudly_through_the_engine() {
    let db = metric_fixture_db();
    let err = db
        .query("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY MINKOWSKI3 WITHIN 1")
        .unwrap_err();
    let msg = err.to_string();
    for kw in ["L1", "LONE", "L2", "LTWO", "LINF"] {
        assert!(msg.contains(kw), "error must name {kw}: {msg}");
    }
}

#[test]
fn explain_shows_similarity_operator_above_join() {
    let db = small_db();
    let plan = db
        .explain(
            "SELECT count(*) FROM customer, orders WHERE c_custkey = o_custkey \
             GROUP BY c_acctbal, o_totalprice DISTANCE-TO-ALL L2 WITHIN 0.5 \
             ON-OVERLAP FORM-NEW-GROUP",
        )
        .unwrap();
    let sgb_pos = plan.find("SimilarityGroupBy").expect("SGB node");
    let join_pos = plan.find("HashJoin").expect("join node");
    assert!(sgb_pos < join_pos, "SGB consumes the join output:\n{plan}");
    assert!(plan.contains("ON-OVERLAP FORM-NEW-GROUP"));
}
