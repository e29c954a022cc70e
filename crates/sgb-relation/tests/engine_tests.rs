//! End-to-end SQL tests: parse → plan → execute against in-memory tables.

use sgb_core::Algorithm;
use sgb_relation::{Database, Schema, Table, Value};

fn db_with_people() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE people (id INT, name TEXT, age INT, city TEXT)")
        .unwrap();
    db.execute(
        "INSERT INTO people VALUES \
         (1, 'ann', 34, 'rome'), (2, 'bob', 28, 'oslo'), (3, 'cat', 34, 'rome'), \
         (4, 'dan', 51, 'oslo'), (5, 'eve', 28, 'rome')",
    )
    .unwrap();
    db
}

fn ints(t: &Table, col: usize) -> Vec<i64> {
    t.rows.iter().map(|r| r[col].as_i64().unwrap()).collect()
}

#[test]
fn select_filter_project() {
    let db = db_with_people();
    let out = db
        .query("SELECT name, age * 2 AS dbl FROM people WHERE age > 30 ORDER BY id")
        .unwrap();
    assert_eq!(out.len(), 3);
    assert_eq!(out.schema.columns[1].name, "dbl");
    assert_eq!(ints(&out, 1), vec![68, 68, 102]);
}

#[test]
fn wildcard_and_limit() {
    let db = db_with_people();
    let out = db
        .query("SELECT * FROM people ORDER BY id DESC LIMIT 2")
        .unwrap();
    assert_eq!(out.schema.len(), 4);
    assert_eq!(ints(&out, 0), vec![5, 4]);
}

#[test]
fn standard_group_by_having() {
    let db = db_with_people();
    let out = db
        .query(
            "SELECT city, count(*) AS n, avg(age) FROM people \
             GROUP BY city HAVING count(*) >= 2 ORDER BY n DESC",
        )
        .unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(out.rows[0][0], Value::from("rome"));
    assert_eq!(out.rows[0][1], Value::Int(3));
    assert_eq!(out.rows[1][1], Value::Int(2));
}

#[test]
fn global_aggregate_without_group_by() {
    let db = db_with_people();
    let out = db
        .query("SELECT count(*), min(age), max(age), sum(age) FROM people")
        .unwrap();
    assert_eq!(
        out.rows[0],
        vec![
            Value::Int(5),
            Value::Int(28),
            Value::Int(51),
            Value::Int(175)
        ]
    );
    // Global aggregate over an empty relation still yields one row.
    let empty = db
        .query("SELECT count(*), sum(age) FROM people WHERE age > 100")
        .unwrap();
    assert_eq!(empty.rows[0][0], Value::Int(0));
    assert!(empty.rows[0][1].is_null(), "sum over empty is NULL");
}

#[test]
fn hash_join_via_where_equality() {
    let mut db = db_with_people();
    db.execute("CREATE TABLE orders (oid INT, person_id INT, total DOUBLE)")
        .unwrap();
    db.execute(
        "INSERT INTO orders VALUES (10, 1, 99.5), (11, 1, 0.5), (12, 3, 10.0), (13, 9, 1.0)",
    )
    .unwrap();
    let out = db
        .query(
            "SELECT p.name, sum(o.total) AS spent FROM people p, orders o \
             WHERE p.id = o.person_id GROUP BY p.name ORDER BY spent DESC",
        )
        .unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(out.rows[0][0], Value::from("ann"));
    assert_eq!(out.rows[0][1], Value::Float(100.0));
    assert_eq!(out.rows[1][0], Value::from("cat"));
    // The plan must use a hash join, not a filtered cross product.
    let plan = db
        .explain("SELECT p.name FROM people p, orders o WHERE p.id = o.person_id")
        .unwrap();
    assert!(plan.contains("HashJoin"), "plan:\n{plan}");
    assert!(!plan.contains("CrossJoin"), "plan:\n{plan}");
}

#[test]
fn predicate_pushdown_below_join() {
    let mut db = db_with_people();
    db.execute("CREATE TABLE orders (oid INT, person_id INT, total DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO orders VALUES (10, 1, 99.5)")
        .unwrap();
    let plan = db
        .explain(
            "SELECT p.name FROM people p, orders o \
             WHERE p.id = o.person_id AND p.age > 30 AND o.total > 50",
        )
        .unwrap();
    // Both single-table filters sit below the join.
    let join_pos = plan.find("HashJoin").unwrap();
    let filters: Vec<usize> = plan.match_indices("Filter").map(|(i, _)| i).collect();
    assert_eq!(filters.len(), 2, "plan:\n{plan}");
    assert!(filters.iter().all(|&f| f > join_pos), "plan:\n{plan}");
}

#[test]
fn in_subquery_semijoin() {
    let mut db = db_with_people();
    db.execute("CREATE TABLE vip (pid INT)").unwrap();
    db.execute("INSERT INTO vip VALUES (1), (4)").unwrap();
    let out = db
        .query("SELECT name FROM people WHERE id IN (SELECT pid FROM vip) ORDER BY name")
        .unwrap();
    assert_eq!(out.column(0), vec![Value::from("ann"), Value::from("dan")]);
    let not_in = db
        .query("SELECT count(*) FROM people WHERE id NOT IN (SELECT pid FROM vip)")
        .unwrap();
    assert_eq!(not_in.scalar().unwrap(), &Value::Int(3));
}

#[test]
fn derived_table_with_aggregate() {
    let db = db_with_people();
    let out = db
        .query("SELECT max(n) FROM (SELECT city, count(*) AS n FROM people GROUP BY city) AS c")
        .unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Int(3));
}

#[test]
fn sgb_any_counts_connected_components() {
    let mut db = Database::new();
    db.execute("CREATE TABLE gps (lat DOUBLE, lon DOUBLE)")
        .unwrap();
    // Figure 2: two pairs bridged by a5 → all five merge under SGB-Any.
    db.execute("INSERT INTO gps VALUES (1.0, 7.0), (2.0, 6.0), (6.0, 2.0), (7.0, 1.0), (4.0, 4.0)")
        .unwrap();
    let out = db
        .query("SELECT count(*) FROM gps GROUP BY lat, lon DISTANCE-TO-ANY LINF WITHIN 3")
        .unwrap();
    assert_eq!(
        out.scalar().unwrap(),
        &Value::Int(5),
        "Example 2 output is {{5}}"
    );
}

#[test]
fn sgb_all_three_overlap_semantics() {
    let mut db = Database::new();
    db.execute("CREATE TABLE gps (lat DOUBLE, lon DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO gps VALUES (1.0, 7.0), (2.0, 6.0), (6.0, 2.0), (7.0, 1.0), (4.0, 4.0)")
        .unwrap();
    let counts = |sql: &str, db: &Database| -> Vec<i64> {
        let mut v = ints(&db.query(sql).unwrap(), 0);
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    };
    assert_eq!(
        counts(
            "SELECT count(*) FROM gps GROUP BY lat, lon \
             DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP JOIN-ANY",
            &db
        ),
        vec![3, 2],
        "Example 1 JOIN-ANY output is {{3, 2}}"
    );
    assert_eq!(
        counts(
            "SELECT count(*) FROM gps GROUP BY lat, lon \
             DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP ELIMINATE",
            &db
        ),
        vec![2, 2],
        "Example 1 ELIMINATE output is {{2, 2}}"
    );
    assert_eq!(
        counts(
            "SELECT count(*) FROM gps GROUP BY lat, lon \
             DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP FORM-NEW-GROUP",
            &db
        ),
        vec![2, 2, 1],
        "Example 1 FORM-NEW-GROUP output is {{2, 2, 1}}"
    );
}

#[test]
fn sgb_runs_after_join_in_one_pipeline() {
    // The headline integration: SGB consumes join output directly.
    let mut db = Database::new();
    db.execute("CREATE TABLE users (uid INT, region INT)")
        .unwrap();
    db.execute("CREATE TABLE checkins (uid INT, lat DOUBLE, lon DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO users VALUES (1, 10), (2, 10), (3, 20)")
        .unwrap();
    db.execute(
        "INSERT INTO checkins VALUES (1, 0.0, 0.0), (1, 0.1, 0.1), (2, 0.2, 0.0), \
         (3, 5.0, 5.0), (3, 5.1, 5.1)",
    )
    .unwrap();
    let out = db
        .query(
            "SELECT count(*), array_agg(u.uid) FROM users u, checkins c \
             WHERE u.uid = c.uid \
             GROUP BY c.lat, c.lon DISTANCE-TO-ANY L2 WITHIN 0.5",
        )
        .unwrap();
    let mut sizes = ints(&out, 0);
    sizes.sort_unstable();
    assert_eq!(sizes, vec![2, 3]);
    let plan = db
        .explain(
            "SELECT count(*) FROM users u, checkins c WHERE u.uid = c.uid \
             GROUP BY c.lat, c.lon DISTANCE-TO-ANY L2 WITHIN 0.5",
        )
        .unwrap();
    assert!(
        plan.contains("SimilarityGroupBy [SGB-Any L2 WITHIN 0.5]"),
        "plan:\n{plan}"
    );
    assert!(plan.contains("HashJoin"), "plan:\n{plan}");
}

#[test]
fn sgb_aggregates_and_having() {
    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE, w INT)")
        .unwrap();
    db.execute("INSERT INTO pts VALUES (0.0, 0.0, 10), (0.5, 0.0, 20), (9.0, 9.0, 5)")
        .unwrap();
    let out = db
        .query(
            "SELECT count(*) AS n, sum(w), avg(w), min(w), max(w) FROM pts \
             GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 HAVING count(*) > 1",
        )
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(
        out.rows[0],
        vec![
            Value::Int(2),
            Value::Int(30),
            Value::Float(15.0),
            Value::Int(10),
            Value::Int(20)
        ]
    );
}

#[test]
fn sgb_algorithm_choice_is_transparent() {
    // The engine setting flips the algorithm without changing results.
    let mut results = Vec::new();
    for algo in [
        Algorithm::AllPairs,
        Algorithm::BoundsChecking,
        Algorithm::Indexed,
    ] {
        let mut db = Database::new();
        db.session_mut().all_algorithm = algo;
        db.execute("CREATE TABLE g (x DOUBLE, y DOUBLE)").unwrap();
        db.execute(
            "INSERT INTO g VALUES (1.0, 7.0), (2.0, 6.0), (6.0, 2.0), (7.0, 1.0), (4.0, 4.0)",
        )
        .unwrap();
        let out = db
            .query(
                "SELECT count(*) FROM g GROUP BY x, y \
                 DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP ELIMINATE",
            )
            .unwrap();
        results.push(out.sorted());
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

#[test]
fn sgb_rejects_non_numeric_grouping() {
    let mut db = db_with_people();
    let err = db
        .execute("SELECT count(*) FROM people GROUP BY name, age DISTANCE-TO-ALL WITHIN 1")
        .unwrap_err();
    assert!(err.to_string().contains("numeric"), "got: {err}");
}

#[test]
fn sgb_grouped_select_list_rejects_bare_columns() {
    let db = db_with_people();
    let err = db
        .query("SELECT age FROM people GROUP BY age, id DISTANCE-TO-ALL WITHIN 1")
        .unwrap_err();
    assert!(err.to_string().contains("aggregates"), "got: {err}");
}

#[test]
fn errors_are_informative() {
    let db = db_with_people();
    assert!(db.query("SELECT nope FROM people").is_err());
    assert!(db.query("SELECT name FROM nonexistent").is_err());
    assert!(db.query("SELECT name people").is_err());
    let mut db2 = Database::new();
    assert!(db2.execute("INSERT INTO missing VALUES (1)").is_err());
    db2.execute("CREATE TABLE t (a INT)").unwrap();
    assert!(db2.execute("CREATE TABLE t (b INT)").is_err());
}

#[test]
fn register_programmatic_table() {
    let mut db = Database::new();
    let table = Table::new(
        Schema::new(["a", "b"]),
        vec![
            vec![Value::Int(1), Value::Float(2.0)],
            vec![Value::Int(3), Value::Float(4.0)],
        ],
    )
    .unwrap();
    db.register("t", table);
    let out = db.query("SELECT sum(a + b) FROM t").unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Float(10.0));
    assert_eq!(db.table_names(), vec!["t"]);
    assert!(db.drop_table("t"));
    assert!(!db.drop_table("t"));
}

#[test]
fn date_filtering_end_to_end() {
    let mut db = Database::new();
    db.execute("CREATE TABLE l (d DATE, v INT)").unwrap();
    db.execute(
        "INSERT INTO l VALUES (date '1995-03-15', 1), (date '1995-12-01', 2), (date '1996-06-01', 4)",
    )
    .unwrap();
    let out = db
        .query(
            "SELECT sum(v) FROM l WHERE d > date '1995-01-01' \
             AND d < date '1995-01-01' + interval '10' month",
        )
        .unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Int(1));
}

#[test]
fn cross_join_fallback_when_no_equi_key() {
    let mut db = Database::new();
    db.execute("CREATE TABLE a (x INT)").unwrap();
    db.execute("CREATE TABLE b (y INT)").unwrap();
    db.execute("INSERT INTO a VALUES (1), (2)").unwrap();
    db.execute("INSERT INTO b VALUES (10), (20), (30)").unwrap();
    let out = db.query("SELECT count(*) FROM a, b").unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Int(6));
    let plan = db.explain("SELECT x FROM a, b WHERE x < y").unwrap();
    assert!(plan.contains("CrossJoin"), "plan:\n{plan}");
    // Range predicates still apply after the cross join.
    let out = db
        .query("SELECT count(*) FROM a, b WHERE x * 10 = y")
        .unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Int(2));
}

#[test]
fn ambiguous_column_is_an_error() {
    let mut db = Database::new();
    db.execute("CREATE TABLE a (k INT, v INT)").unwrap();
    db.execute("CREATE TABLE b (k INT, w INT)").unwrap();
    db.execute("INSERT INTO a VALUES (1, 2)").unwrap();
    db.execute("INSERT INTO b VALUES (1, 3)").unwrap();
    let err = db.query("SELECT k FROM a, b WHERE a.k = b.k").unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
    // Qualified references resolve fine.
    let ok = db
        .query("SELECT a.k, b.w FROM a, b WHERE a.k = b.k")
        .unwrap();
    assert_eq!(ok.rows[0], vec![Value::Int(1), Value::Int(3)]);
}

#[test]
fn in_list_and_not_in_list() {
    let db = db_with_people();
    let out = db
        .query("SELECT count(*) FROM people WHERE city IN ('rome', 'paris')")
        .unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Int(3));
    let out = db
        .query("SELECT count(*) FROM people WHERE age NOT IN (28, 34)")
        .unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Int(1));
}

#[test]
fn multi_key_order_by_with_directions() {
    let db = db_with_people();
    let out = db
        .query("SELECT city, age, name FROM people ORDER BY city ASC, age DESC, name")
        .unwrap();
    let names: Vec<String> = out.rows.iter().map(|r| r[2].to_string()).collect();
    assert_eq!(names, vec!["dan", "bob", "ann", "cat", "eve"]);
}

#[test]
fn limit_zero_and_overlimit() {
    let db = db_with_people();
    assert_eq!(db.query("SELECT * FROM people LIMIT 0").unwrap().len(), 0);
    assert_eq!(db.query("SELECT * FROM people LIMIT 99").unwrap().len(), 5);
}

#[test]
fn array_agg_renders_braced_list() {
    let db = db_with_people();
    let out = db
        .query("SELECT array_agg(name) FROM people WHERE city = 'oslo'")
        .unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::from("{bob,dan}"));
}

#[test]
fn arithmetic_and_boolean_expressions() {
    let db = db_with_people();
    let out = db
        .query(
            "SELECT name FROM people \
             WHERE (age > 30 AND city = 'rome') OR NOT (age >= 28) ORDER BY name",
        )
        .unwrap();
    assert_eq!(out.column(0), vec![Value::from("ann"), Value::from("cat")]);
    let out = db
        .query("SELECT -age, age / 2, age - 4 FROM people WHERE id = 1")
        .unwrap();
    assert_eq!(
        out.rows[0],
        vec![Value::Int(-34), Value::Int(17), Value::Int(30)]
    );
}

#[test]
fn group_by_expression_key() {
    let db = db_with_people();
    // Group by a computed key (age bucket).
    let out = db
        .query("SELECT age / 10, count(*) FROM people GROUP BY age / 10 ORDER BY age / 10")
        .unwrap();
    assert_eq!(
        out.rows,
        vec![
            vec![Value::Int(2), Value::Int(2)],
            vec![Value::Int(3), Value::Int(2)],
            vec![Value::Int(5), Value::Int(1)],
        ]
    );
}

#[test]
fn count_distinct_is_rejected_with_clear_error() {
    let db = db_with_people();
    // DISTINCT inside aggregates is unsupported; the parser sees "distinct"
    // as a column reference and binding fails cleanly rather than silently
    // mis-aggregating.
    assert!(db.query("SELECT count(distinct) FROM people").is_err());
}

#[test]
fn sgb_on_empty_relation_yields_no_groups() {
    let mut db = Database::new();
    db.execute("CREATE TABLE e (x DOUBLE, y DOUBLE)").unwrap();
    let out = db
        .query("SELECT count(*) FROM e GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1")
        .unwrap();
    assert_eq!(out.len(), 0);
    let out = db
        .query("SELECT count(*) FROM e GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1")
        .unwrap();
    assert_eq!(out.len(), 0);
}

#[test]
fn having_filters_sgb_groups() {
    let mut db = Database::new();
    db.execute("CREATE TABLE p (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO p VALUES (0.0, 0.0), (0.1, 0.0), (0.2, 0.0), (5.0, 5.0)")
        .unwrap();
    let out = db
        .query(
            "SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 \
             HAVING count(*) >= 2",
        )
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows[0][0], Value::Int(3));
}

#[test]
fn nested_derived_tables_two_levels() {
    let db = db_with_people();
    let out = db
        .query(
            "SELECT max(total) FROM \
             (SELECT city, sum(n) AS total FROM \
              (SELECT city, age, count(*) AS n FROM people GROUP BY city, age) AS inner1 \
              GROUP BY city) AS outer1",
        )
        .unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Int(3));
}

#[test]
fn min_max_over_strings_and_dates() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (s TEXT, d DATE)").unwrap();
    db.execute("INSERT INTO t VALUES ('pear', date '1999-05-01'), ('apple', date '2001-02-03')")
        .unwrap();
    let out = db
        .query("SELECT min(s), max(s), min(d), max(d) FROM t")
        .unwrap();
    assert_eq!(out.rows[0][0], Value::from("apple"));
    assert_eq!(out.rows[0][1], Value::from("pear"));
    assert_eq!(out.rows[0][2].to_string(), "1999-05-01");
    assert_eq!(out.rows[0][3].to_string(), "2001-02-03");
}

#[test]
fn aggregates_skip_nulls() {
    let mut db = Database::new();
    db.execute("CREATE TABLE n (v INT)").unwrap();
    db.execute("INSERT INTO n VALUES (1), (NULL), (3), (NULL)")
        .unwrap();
    let out = db
        .query("SELECT count(*), count(v), sum(v), avg(v), min(v), max(v) FROM n")
        .unwrap();
    assert_eq!(
        out.rows[0],
        vec![
            Value::Int(4), // count(*) counts rows
            Value::Int(2), // count(v) counts non-null
            Value::Int(4),
            Value::Float(2.0),
            Value::Int(1),
            Value::Int(3),
        ]
    );
}

#[test]
fn null_comparisons_filter_out() {
    let mut db = Database::new();
    db.execute("CREATE TABLE n (v INT)").unwrap();
    db.execute("INSERT INTO n VALUES (1), (NULL), (3)").unwrap();
    // NULL = NULL is NULL, not TRUE: no row survives v = NULL.
    let out = db.query("SELECT count(*) FROM n WHERE v = NULL").unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Int(0));
    // NULL keys do not join.
    db.execute("CREATE TABLE m (v INT)").unwrap();
    db.execute("INSERT INTO m VALUES (NULL), (3)").unwrap();
    let out = db
        .query("SELECT count(*) FROM n, m WHERE n.v = m.v")
        .unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Int(1));
}

#[test]
fn group_by_groups_nulls_together() {
    let mut db = Database::new();
    db.execute("CREATE TABLE n (k INT, v INT)").unwrap();
    db.execute("INSERT INTO n VALUES (NULL, 1), (NULL, 2), (7, 3)")
        .unwrap();
    let out = db.query("SELECT k, count(*) FROM n GROUP BY k").unwrap();
    assert_eq!(out.len(), 2);
    let null_row = out.rows.iter().find(|r| r[0].is_null()).unwrap();
    assert_eq!(null_row[1], Value::Int(2));
}

#[test]
fn sum_promotes_to_float_when_mixed() {
    let mut db = Database::new();
    db.execute("CREATE TABLE n (v DOUBLE)").unwrap();
    db.execute("INSERT INTO n VALUES (1), (2.5)").unwrap();
    let out = db.query("SELECT sum(v) FROM n").unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Float(3.5));
}

#[test]
fn boolean_literals_and_string_compare() {
    let mut db = Database::new();
    db.execute("CREATE TABLE f (s TEXT, ok BOOL)").unwrap();
    db.execute("INSERT INTO f VALUES ('abc', true), ('abd', false)")
        .unwrap();
    let out = db
        .query("SELECT count(*) FROM f WHERE s < 'abd' AND ok = true")
        .unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::Int(1));
}

#[test]
fn three_dimensional_similarity_grouping_in_sql() {
    let mut db = Database::new();
    db.execute("CREATE TABLE p3 (x DOUBLE, y DOUBLE, z DOUBLE)")
        .unwrap();
    db.execute(
        "INSERT INTO p3 VALUES \
         (0.0, 0.0, 0.0), (0.3, 0.3, 0.3), \
         (0.0, 0.0, 5.0), (0.3, 0.3, 5.3)",
    )
    .unwrap();
    let out = db
        .query("SELECT count(*) FROM p3 GROUP BY x, y, z DISTANCE-TO-ANY L2 WITHIN 1")
        .unwrap();
    assert_eq!(out.len(), 2);
    assert!(out.rows.iter().all(|r| r[0] == Value::Int(2)));
    // Collapsing z shows the third dimension mattered: 2-D grouping merges
    // everything.
    let out2d = db
        .query("SELECT count(*) FROM p3 GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1")
        .unwrap();
    assert_eq!(out2d.len(), 1);
    // SGB-All in 3-D with all three overlap clauses runs too.
    for overlap in ["JOIN-ANY", "ELIMINATE", "FORM-NEW-GROUP"] {
        let out = db
            .query(&format!(
                "SELECT count(*) FROM p3 GROUP BY x, y, z \
                 DISTANCE-TO-ALL LINF WITHIN 1 ON-OVERLAP {overlap}"
            ))
            .unwrap();
        assert_eq!(out.len(), 2, "{overlap}");
    }
}

#[test]
fn sgb_around_assigns_to_nearest_center() {
    let mut db = Database::new();
    db.execute("CREATE TABLE gps (lat DOUBLE, lon DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO gps VALUES (1.0, 1.0), (1.5, 0.5), (9.0, 9.0), (8.5, 9.5), (5.0, 5.0)")
        .unwrap();
    // No radius: everything joins a center group; (5, 5) ties exactly and
    // goes to the first center.
    let out = db
        .query("SELECT count(*) FROM gps GROUP BY lat, lon AROUND ((1, 1), (9, 9))")
        .unwrap();
    assert_eq!(ints(&out, 0), vec![3, 2]);
    // With a radius the midpoint becomes the trailing outlier group.
    let out = db
        .query("SELECT count(*) FROM gps GROUP BY lat, lon AROUND ((1, 1), (9, 9)) L2 WITHIN 2")
        .unwrap();
    assert_eq!(ints(&out, 0), vec![2, 2, 1]);
}

#[test]
fn sgb_around_composes_with_aggregates_and_having() {
    let mut db = Database::new();
    db.execute("CREATE TABLE sales (x DOUBLE, y DOUBLE, amount DOUBLE)")
        .unwrap();
    db.execute(
        "INSERT INTO sales VALUES \
         (0.1, 0.1, 10.0), (0.2, 0.0, 20.0), (5.1, 5.0, 7.0), (4.9, 5.2, 3.0), (0.0, 0.3, 5.0)",
    )
    .unwrap();
    let out = db
        .query(
            "SELECT count(*), sum(amount), avg(amount) FROM sales \
             GROUP BY x, y AROUND ((0, 0), (5, 5)) \
             HAVING sum(amount) > 15 ORDER BY count(*) DESC",
        )
        .unwrap();
    assert_eq!(out.len(), 1, "only the first center's group passes HAVING");
    assert_eq!(out.rows[0][0], Value::Int(3));
    assert_eq!(out.rows[0][1], Value::Int(35));
}

#[test]
fn around_session_pinned_to_indexed_is_a_typed_error() {
    // SGB-Around runs the center scan and the center grid only: the
    // planner rejects `Indexed` with a typed error listing both paths.
    let mut db = Database::new();
    db.execute("CREATE TABLE gps (lat DOUBLE, lon DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO gps VALUES (1.0, 1.0)").unwrap();
    db.session_mut().around_algorithm = Algorithm::Indexed;
    let err = db
        .query("SELECT count(*) FROM gps GROUP BY lat, lon AROUND ((1, 1))")
        .unwrap_err();
    assert!(
        matches!(err, sgb_relation::Error::Unsupported(_)),
        "got: {err:?}"
    );
    let text = err.to_string();
    assert!(
        text.contains("Indexed")
            && text.contains("AROUND")
            && text.contains("valid: Auto, AllPairs, Grid"),
        "got: {text}"
    );
}

#[test]
fn sgb_around_explain_names_centers_metric_radius_and_path() {
    let mut db = Database::new();
    db.execute("CREATE TABLE gps (lat DOUBLE, lon DOUBLE)")
        .unwrap();
    let plan = db
        .explain(
            "SELECT count(*) FROM gps \
             GROUP BY lat, lon AROUND ((1, 1), (9, 9), (4, 4)) LINF WITHIN 2.5",
        )
        .unwrap();
    assert!(plan.contains("SimilarityAround"), "{plan}");
    assert!(plan.contains("3 centers"), "{plan}");
    assert!(plan.contains("LINF"), "{plan}");
    assert!(plan.contains("WITHIN 2.5"), "{plan}");
    // Default engine setting is Auto: 3 centers resolve to the brute
    // center scan, and EXPLAIN prints the resolved path plus the reason.
    assert!(plan.contains("path: AllPairs"), "{plan}");
    assert!(plan.contains("auto: 3 centers"), "{plan}");
    // An explicit setting shows up as such (resolved path + reason).
    db.session_mut().around_algorithm = sgb_core::Algorithm::Grid;
    let plan = db
        .explain("SELECT count(*) FROM gps GROUP BY lat, lon AROUND ((1, 1))")
        .unwrap();
    assert!(plan.contains("path: Grid"), "{plan}");
    assert!(plan.contains("pinned by session options"), "{plan}");
    assert!(!plan.contains("WITHIN"), "no radius → no WITHIN: {plan}");
    db.session_mut().around_algorithm = sgb_core::Algorithm::AllPairs;
    let plan = db
        .explain("SELECT count(*) FROM gps GROUP BY lat, lon AROUND ((1, 1))")
        .unwrap();
    assert!(plan.contains("path: AllPairs"), "{plan}");
}

#[test]
fn explain_prints_cost_based_resolution_for_all_and_any() {
    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    // Empty table: Auto resolves to the small-n scan, with the reason.
    let plan = db
        .explain("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5")
        .unwrap();
    assert!(plan.contains("path: AllPairs"), "{plan}");
    assert!(plan.contains("auto: n = 0"), "{plan}");
    // Grow the table past the threshold: the resolved path flips to the
    // grid — same SQL, cost-based plan.
    let rows: Vec<String> = (0..600).map(|i| format!("({}, {})", i, i % 7)).collect();
    db.execute(&format!("INSERT INTO pts VALUES {}", rows.join(", ")))
        .unwrap();
    let plan = db
        .explain("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5")
        .unwrap();
    assert!(plan.contains("path: Grid"), "{plan}");
    assert!(plan.contains("auto: n = 600"), "{plan}");
    let plan = db
        .explain("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.5")
        .unwrap();
    assert!(plan.contains("path: Grid"), "{plan}");
    assert!(plan.contains("auto: n = 600"), "{plan}");
    // Explicit settings print as configured.
    db.session_mut().all_algorithm = sgb_core::Algorithm::BoundsChecking;
    let plan = db
        .explain("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.5")
        .unwrap();
    assert!(plan.contains("path: BoundsChecking"), "{plan}");
    assert!(plan.contains("pinned by session options"), "{plan}");
}

#[test]
fn sgb_around_algorithm_choice_is_transparent() {
    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    let mut inserts = Vec::new();
    let mut state: u64 = 31;
    for _ in 0..200 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = ((state >> 33) % 1000) as f64 / 100.0;
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let y = ((state >> 33) % 1000) as f64 / 100.0;
        inserts.push(format!("({x}, {y})"));
    }
    db.execute(&format!("INSERT INTO pts VALUES {}", inserts.join(", ")))
        .unwrap();
    let sql = "SELECT count(*) FROM pts \
               GROUP BY x, y AROUND ((2, 2), (8, 2), (5, 8), (2.5, 2.5)) L1 WITHIN 3 \
               ORDER BY count(*) DESC";
    let indexed = db.query(sql).unwrap();
    db.session_mut().around_algorithm = sgb_core::Algorithm::AllPairs;
    let brute = db.query(sql).unwrap();
    assert_eq!(indexed.rows, brute.rows);
}

#[test]
fn sgb_around_after_join_in_one_pipeline() {
    let mut db = Database::new();
    db.execute("CREATE TABLE cities (id INT, x DOUBLE, y DOUBLE)")
        .unwrap();
    db.execute("CREATE TABLE visits (city_id INT, n INT)")
        .unwrap();
    db.execute("INSERT INTO cities VALUES (1, 0.0, 0.0), (2, 0.5, 0.5), (3, 9.0, 9.0)")
        .unwrap();
    db.execute("INSERT INTO visits VALUES (1, 10), (2, 20), (3, 5), (1, 1)")
        .unwrap();
    let out = db
        .query(
            "SELECT count(*), sum(n) FROM cities, visits \
             WHERE id = city_id \
             GROUP BY x, y AROUND ((0, 0), (9, 9))",
        )
        .unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(ints(&out, 1), vec![31, 5]);
}

#[test]
fn sgb_around_rejects_malformed_queries() {
    let mut db = Database::new();
    db.execute("CREATE TABLE gps (lat DOUBLE, lon DOUBLE)")
        .unwrap();
    for bad in [
        "SELECT count(*) FROM gps GROUP BY lat, lon AROUND ()",
        "SELECT count(*) FROM gps GROUP BY lat, lon AROUND ((1, 2, 3))",
        "SELECT count(*) FROM gps GROUP BY lat, lon AROUND ((1, 2), (1, 2))",
        "SELECT count(*) FROM gps GROUP BY lat, lon AROUND ((1, 2)) COSINE",
        "SELECT count(*) FROM gps GROUP BY lat, lon AROUND ((1, 2)) WITHIN -3",
        "SELECT lat FROM gps GROUP BY lat, lon AROUND ((1, 2))",
    ] {
        assert!(db.query(bad).is_err(), "must reject: {bad}");
    }
}

#[test]
fn programmatic_around_plan_with_bad_centers_errors_cleanly() {
    // The SQL parser rejects these earlier; a plan constructed by hand must
    // get an Err from the executor, not a process-aborting panic from the
    // core config asserts.
    use sgb_relation::exec::execute;
    use sgb_relation::{BoundExpr, Plan};

    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (1.0, 2.0)").unwrap();
    let scan = Plan::Scan {
        table: "pts".into(),
        schema: Schema::new(["x", "y"]),
    };
    let around = |centers: Vec<Vec<f64>>, radius: Option<f64>| Plan::SimilarityAround {
        input: Box::new(scan.clone()),
        coords: vec![BoundExpr::Column(0), BoundExpr::Column(1)],
        centers,
        metric: sgb_core::Metric::L2,
        radius,
        algorithm: sgb_core::Algorithm::Grid,
        threads: 1,
        selection: "hand-built".into(),
        index: sgb_relation::IndexCacheStatus::Built,
        snapshot: None,
        aggs: vec![],
        having: None,
        outputs: vec![],
        schema: Schema::new(Vec::<String>::new()),
    };
    for (plan, what) in [
        (around(vec![], None), "empty centers"),
        (around(vec![vec![f64::NAN, 0.0]], None), "NaN center"),
        (around(vec![vec![0.0]], None), "wrong arity"),
        (around(vec![vec![0.0, 0.0]], Some(-1.0)), "negative radius"),
        (
            around(vec![vec![0.0, 0.0]], Some(f64::INFINITY)),
            "infinite radius",
        ),
    ] {
        assert!(execute(&plan, &db).is_err(), "{what} must be an Err");
    }

    // The unified Algorithm enum makes BoundsChecking representable on
    // every node; hand-built plans carrying it for an operator that does
    // not implement it must error cleanly too (the planner rejects the
    // combination earlier on the SQL path).
    for bad in [
        sgb_core::Algorithm::BoundsChecking,
        sgb_core::Algorithm::Indexed,
    ] {
        let mut bad_around = around(vec![vec![0.0, 0.0]], None);
        if let Plan::SimilarityAround { algorithm, .. } = &mut bad_around {
            *algorithm = bad;
        }
        let err = execute(&bad_around, &db).unwrap_err();
        assert!(err.to_string().contains(&bad.to_string()), "got: {err}");
    }

    let bad_any = Plan::SimilarityGroupBy {
        input: Box::new(scan.clone()),
        coords: vec![BoundExpr::Column(0), BoundExpr::Column(1)],
        mode: sgb_relation::SgbMode::Any {
            eps: 1.0,
            metric: sgb_core::Metric::L2,
            algorithm: sgb_core::Algorithm::BoundsChecking,
            threads: 1,
            selection: "hand-built".into(),
            index: sgb_relation::IndexCacheStatus::Built,
        },
        snapshot: None,
        aggs: vec![],
        having: None,
        outputs: vec![],
        schema: Schema::new(Vec::<String>::new()),
    };
    let err = execute(&bad_any, &db).unwrap_err();
    assert!(err.to_string().contains("BoundsChecking"), "got: {err}");
}

// -- DELETE + subscriptions ---------------------------------------------------

#[test]
fn delete_removes_matching_rows_end_to_end() {
    let mut db = db_with_people();
    db.execute("DELETE FROM people WHERE city = 'rome' AND age > 30")
        .unwrap();
    let out = db.query("SELECT id FROM people ORDER BY id").unwrap();
    assert_eq!(ints(&out, 0), vec![2, 4, 5]);
    // No predicate: empties the table but keeps the schema.
    db.execute("DELETE FROM people").unwrap();
    assert_eq!(db.query("SELECT * FROM people").unwrap().len(), 0);
    assert_eq!(db.table("people").unwrap().schema.len(), 4);
    // Unknown table and evaluation errors surface cleanly.
    assert!(db.execute("DELETE FROM nope").is_err());
    assert!(db.execute("DELETE FROM people WHERE nope = 1").is_err());
}

#[test]
fn delete_predicate_error_leaves_rows_untouched() {
    let mut db = db_with_people();
    // `age + name` type-errors on row 1 — the whole statement must fail
    // without removing anything (predicates evaluate before any mutation).
    assert!(db
        .execute("DELETE FROM people WHERE age + name > 0")
        .is_err());
    assert_eq!(db.query("SELECT * FROM people").unwrap().len(), 5);
}

#[test]
fn delete_bumps_version_and_invalidates_caches() {
    let mut db = Database::new();
    db.session_mut().any_algorithm = Algorithm::Indexed;
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (1.0, 1.0), (2.0, 2.0), (9.0, 9.0)")
        .unwrap();
    let sql = "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5";
    let before = db.table("pts").unwrap().version();
    db.execute(sql).unwrap();
    assert!(db.explain(sql).unwrap().contains("index: cached (hit)"));
    db.execute("DELETE FROM pts WHERE x > 5").unwrap();
    assert!(db.table("pts").unwrap().version() > before);
    // The cached index no longer applies — exactly as after an INSERT.
    assert!(db.explain(sql).unwrap().contains("index: built"));
    let out = db.execute(sql).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(ints(&out, 0), vec![2]);
    // A DELETE matching nothing keeps the version (nothing changed).
    let v = db.table("pts").unwrap().version();
    db.execute("DELETE FROM pts WHERE x > 100").unwrap();
    assert_eq!(db.table("pts").unwrap().version(), v);
}

#[test]
fn subscription_maintains_grouping_under_mixed_traffic() {
    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (1.0, 1.0), (2.0, 2.0), (9.0, 9.0)")
        .unwrap();
    let sql = "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5";
    let sub = db.subscribe(sql).unwrap();
    assert!(sub.is_active());
    assert_eq!(sub.snapshot().epoch(), 0);
    assert_eq!(sub.snapshot().grouping().sorted_sizes(), vec![2, 1]);

    // Insert a bridge point: {1,2} ∪ {3} via (2.9, 2.9)… still far from 9.
    db.execute("INSERT INTO pts VALUES (3.0, 3.0)").unwrap();
    assert_eq!(sub.snapshot().epoch(), 1);
    assert_eq!(sub.snapshot().grouping().sorted_sizes(), vec![3, 1]);

    // Delete the bridge: (1,1) and (3,3) are > 1.5 apart, so the merged
    // component splits into singletons.
    db.execute("DELETE FROM pts WHERE x = 2").unwrap();
    assert_eq!(sub.snapshot().epoch(), 2);
    assert_eq!(sub.snapshot().grouping().sorted_sizes(), vec![1, 1, 1]);

    // The published snapshot always matches a from-scratch SQL run.
    let direct = db.query(sql).unwrap();
    let counts: Vec<i64> = ints(&direct, 0);
    let mut sizes = sub.snapshot().grouping().sizes();
    sizes.sort_unstable();
    let mut direct_sizes: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
    direct_sizes.sort_unstable();
    assert_eq!(sizes, direct_sizes);

    // Snapshots are immutable: one taken before an edit never changes.
    let pinned = sub.snapshot();
    db.execute("INSERT INTO pts VALUES (50.0, 50.0)").unwrap();
    assert_eq!(pinned.epoch(), 2);
    assert_eq!(sub.snapshot().epoch(), 3);
}

#[test]
fn subscription_serves_identical_results_and_deactivates_on_drop() {
    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (1.0, 1.0), (1.5, 1.2), (9.0, 9.0), (8.5, 8.8)")
        .unwrap();
    let sql = "SELECT count(*) FROM pts \
               GROUP BY x, y AROUND ((1, 1), (9, 9)) L2 WITHIN 2";
    let cold = db.query(sql).unwrap();
    let sub = db.subscribe(sql).unwrap();
    assert!(db.explain(sql).unwrap().contains("snapshot: subscription"));
    let served = db.query(sql).unwrap();
    assert_eq!(cold, served, "serving from the snapshot must be invisible");

    db.execute("DROP TABLE pts").unwrap();
    assert!(!sub.is_active());
    // The last snapshot stays readable after the drop.
    assert_eq!(sub.snapshot().grouping().num_groups(), 2);
}

#[test]
fn subscription_rejects_unsupported_shapes_and_disabled_sessions() {
    let mut db = db_with_people();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (1.0, 1.0)").unwrap();
    for bad in [
        "SELECT id FROM people",             // no similarity clause
        "INSERT INTO pts VALUES (2.0, 2.0)", // not a SELECT
        "SELECT count(*) FROM pts WHERE x > 0 \
         GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1", // filtered input
        "SELECT count(*) FROM pts GROUP BY x, y \
         DISTANCE-TO-ANY L2 WITHIN 1 ORDER BY count(*)", // post-grouping sort
    ] {
        assert!(db.subscribe(bad).is_err(), "must reject: {bad}");
    }

    let mut gated =
        Database::with_options(sgb_relation::SessionOptions::new().with_subscriptions(false));
    gated
        .execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)")
        .unwrap();
    let err = gated
        .subscribe("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1")
        .unwrap_err();
    assert!(err.to_string().contains("disabled"), "got: {err}");
}

#[test]
fn subscription_deactivates_on_bad_insert_but_keeps_last_snapshot() {
    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y TEXT)").unwrap();
    db.execute("INSERT INTO pts VALUES (1.0, '2.0')").unwrap();
    // The text column coerces… no: as_f64 on Str fails, so even the
    // initial build rejects non-numeric grouping attributes.
    assert!(db
        .subscribe("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1")
        .is_err());

    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (1.0, 1.0)").unwrap();
    let sub = db
        .subscribe("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1")
        .unwrap();
    // A later insert with a non-numeric grouping attribute cannot be
    // applied as a delta: the subscription deactivates, the table keeps
    // the row, and the last snapshot stays readable.
    db.execute("INSERT INTO pts VALUES (2.0, 'oops')").unwrap();
    assert!(!sub.is_active());
    assert_eq!(sub.snapshot().epoch(), 0);
    assert_eq!(db.query("SELECT * FROM pts").unwrap().len(), 2);
    // Queries no longer serve from the stale snapshot (and now error on
    // the bad attribute, like any cold run would).
    assert!(!db
        .explain("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1")
        .unwrap()
        .contains("snapshot:"));
}

// -- UPDATE -------------------------------------------------------------------

#[test]
fn update_rewrites_matching_rows_end_to_end() {
    let mut db = db_with_people();
    db.execute("UPDATE people SET age = age + 1 WHERE city = 'rome'")
        .unwrap();
    let out = db.query("SELECT id, age FROM people ORDER BY id").unwrap();
    assert_eq!(ints(&out, 1), vec![35, 28, 35, 51, 29]);
    // Executed as delete+insert: the rewritten rows move to the end of
    // the table, exactly as a manual DELETE + INSERT would place them.
    let scan = db.query("SELECT id FROM people").unwrap();
    assert_eq!(ints(&scan, 0), vec![2, 4, 1, 3, 5]);
    // No predicate: every row updates.
    db.execute("UPDATE people SET age = 0").unwrap();
    let all = db.query("SELECT sum(age) FROM people").unwrap();
    assert_eq!(ints(&all, 0), vec![0]);
    // Unknown table / column errors surface cleanly.
    assert!(db.execute("UPDATE nope SET age = 1").is_err());
    assert!(db.execute("UPDATE people SET nope = 1").is_err());
    assert!(db
        .execute("UPDATE people SET age = 1 WHERE nope = 2")
        .is_err());
}

#[test]
fn update_rhs_sees_the_old_row() {
    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (1.0, 9.0)").unwrap();
    // Both right-hand sides evaluate against the pre-update row, so this
    // swaps instead of cascading x into y.
    db.execute("UPDATE pts SET x = y, y = x").unwrap();
    let out = db.query("SELECT x, y FROM pts").unwrap();
    assert_eq!(out.rows[0][0].as_f64().unwrap(), 9.0);
    assert_eq!(out.rows[0][1].as_f64().unwrap(), 1.0);
}

#[test]
fn update_error_leaves_rows_untouched() {
    let mut db = db_with_people();
    let before = db.table("people").unwrap().version();
    // `age + name` type-errors on the first row — the whole statement
    // fails without rewriting anything (replacements evaluate before any
    // mutation, like INSERT and DELETE).
    assert!(db.execute("UPDATE people SET age = age + name").is_err());
    assert!(db
        .execute("UPDATE people SET age = 1 WHERE age + name > 0")
        .is_err());
    let out = db.query("SELECT id, age FROM people ORDER BY id").unwrap();
    assert_eq!(ints(&out, 1), vec![34, 28, 34, 51, 28]);
    assert_eq!(db.table("people").unwrap().version(), before);
}

#[test]
fn update_bumps_version_and_invalidates_caches() {
    let mut db = Database::new();
    db.session_mut().any_algorithm = Algorithm::Indexed;
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (1.0, 1.0), (2.0, 2.0), (9.0, 9.0)")
        .unwrap();
    let sql = "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5";
    let first = db.execute(sql).unwrap();
    assert_eq!(first.len(), 2);
    assert!(db.explain(sql).unwrap().contains("index: cached (hit)"));
    // Moving the far point next to the pair must recompute, not serve the
    // stale cached result or index.
    db.execute("UPDATE pts SET x = 3.0, y = 3.0 WHERE x = 9.0")
        .unwrap();
    assert!(db.explain(sql).unwrap().contains("index: built"));
    let out = db.execute(sql).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(ints(&out, 0), vec![3]);
    // An UPDATE matching nothing keeps the version (nothing changed).
    let v = db.table("pts").unwrap().version();
    db.execute("UPDATE pts SET x = 0.0 WHERE x > 100").unwrap();
    assert_eq!(db.table("pts").unwrap().version(), v);
}

#[test]
fn update_flows_through_subscriptions_as_delete_plus_insert() {
    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (1.0, 1.0), (1.5, 1.5), (9.0, 9.0)")
        .unwrap();
    let sub = db
        .subscribe("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1")
        .unwrap();
    assert_eq!(sub.snapshot().grouping().num_groups(), 2);
    let epoch = sub.snapshot().epoch();
    // The UPDATE reaches the maintained grouping as a delete batch plus
    // an insert batch: the far point joins the near pair.
    db.execute("UPDATE pts SET x = 2.0, y = 2.0 WHERE x = 9.0")
        .unwrap();
    let snap = sub.snapshot();
    assert!(snap.epoch() > epoch, "epoch must advance across an UPDATE");
    assert_eq!(snap.grouping().num_groups(), 1);
    assert!(sub.is_active());
    // Similarity queries can serve straight from the refreshed snapshot.
    let out = db
        .execute("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1")
        .unwrap();
    assert_eq!(ints(&out, 0), vec![3]);
}
