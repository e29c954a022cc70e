//! Property-based robustness tests for the SQL front-end and executor:
//! the parser must never panic, and engine answers must match oracles.

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::relation::sql::parse_statement;
use sgb::relation::{Database, Schema, Table, Value};

fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-1.0e6f64..1.0e6).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::Str),
    ]
}

fn db_with(rows: &[(i64, f64)]) -> Database {
    let mut table = Table::empty(Schema::new(["k", "v"]));
    for (k, v) in rows {
        table.push(vec![Value::Int(*k), Value::Float(*v)]).unwrap();
    }
    let mut db = Database::new();
    db.register("t", table);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The parser returns `Ok` or `Err` on arbitrary input — never panics.
    #[test]
    fn parser_never_panics_on_noise(input in ".{0,160}") {
        let _ = parse_statement(&input);
    }

    /// ... and on SQL-looking token soup.
    #[test]
    fn parser_never_panics_on_token_soup(
        words in vec(
            prop_oneof![
                Just("SELECT".to_owned()), Just("FROM".to_owned()),
                Just("WHERE".to_owned()), Just("GROUP".to_owned()),
                Just("BY".to_owned()), Just("DISTANCE".to_owned()),
                Just("-".to_owned()), Just("TO".to_owned()),
                Just("ALL".to_owned()), Just("ANY".to_owned()),
                Just("WITHIN".to_owned()), Just("ON".to_owned()),
                Just("OVERLAP".to_owned()), Just("(".to_owned()),
                Just(")".to_owned()), Just(",".to_owned()),
                Just("*".to_owned()), Just("1".to_owned()),
                Just("x".to_owned()), Just("'s'".to_owned()),
                Just("count".to_owned()), Just("AND".to_owned()),
            ],
            0..24,
        )
    ) {
        let _ = parse_statement(&words.join(" "));
    }

    /// SQL filters agree with a Rust-side oracle over random tables.
    #[test]
    fn filter_matches_oracle(rows in vec((-50i64..50, -10.0f64..10.0), 0..60), threshold in -10i64..10) {
        let db = db_with(&rows);
        let out = db
            .query(&format!("SELECT count(*) FROM t WHERE k > {threshold}"))
            .unwrap();
        let expected = rows.iter().filter(|(k, _)| *k > threshold).count() as i64;
        prop_assert_eq!(out.scalar().unwrap(), &Value::Int(expected));
    }

    /// Standard GROUP BY aggregation agrees with a HashMap oracle.
    #[test]
    fn group_by_matches_oracle(rows in vec((0i64..8, -10.0f64..10.0), 0..80)) {
        let db = db_with(&rows);
        let out = db
            .query("SELECT k, count(*), sum(v) FROM t GROUP BY k ORDER BY k")
            .unwrap();
        let mut oracle: std::collections::BTreeMap<i64, (i64, f64)> = Default::default();
        for (k, v) in &rows {
            let e = oracle.entry(*k).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += v;
        }
        prop_assert_eq!(out.len(), oracle.len());
        for (row, (k, (n, sum))) in out.rows.iter().zip(oracle.iter()) {
            prop_assert_eq!(&row[0], &Value::Int(*k));
            prop_assert_eq!(&row[1], &Value::Int(*n));
            let got = row[2].as_f64().unwrap();
            prop_assert!((got - sum).abs() < 1e-9);
        }
    }

    /// ORDER BY produces a non-decreasing key sequence (nulls first).
    #[test]
    fn order_by_sorts(rows in vec((-50i64..50, -10.0f64..10.0), 0..60)) {
        let db = db_with(&rows);
        let out = db.query("SELECT v FROM t ORDER BY v").unwrap();
        let vals: Vec<f64> = out.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
        prop_assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Value arithmetic never panics and division by zero errors cleanly.
    #[test]
    fn value_arithmetic_total(a in arb_cell(), b in arb_cell(), op in prop::sample::select(vec!['+', '-', '*', '/'])) {
        let _ = a.arith(op, &b);
    }

    /// `Value` hashing is consistent with equality (HashMap key safety).
    #[test]
    fn value_hash_eq_consistent(a in arb_cell(), b in arb_cell()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if a == b {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    /// The SGB SQL path agrees with the core operator for arbitrary small
    /// tables (count-per-group multiset equality).
    #[test]
    fn sql_sgb_matches_core(points in vec((0.0f64..4.0, 0.0f64..4.0), 0..40), eps in 0.1f64..2.0) {
        use sgb::SgbQuery;
        use sgb::geom::Point;
        let mut table = Table::empty(Schema::new(["x", "y"]));
        for (x, y) in &points {
            table.push(vec![Value::Float(*x), Value::Float(*y)]).unwrap();
        }
        let mut db = Database::new();
        db.register("p", table);
        let out = db
            .query(&format!(
                "SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN {eps}"
            ))
            .unwrap();
        let pts: Vec<Point<2>> = points.iter().map(|&(x, y)| Point::new([x, y])).collect();
        let grouping = SgbQuery::any(eps).run(&pts);
        let mut sql_counts: Vec<i64> = out.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        sql_counts.sort_unstable();
        let mut core_counts: Vec<i64> = grouping.sizes().iter().map(|&s| s as i64).collect();
        core_counts.sort_unstable();
        prop_assert_eq!(sql_counts, core_counts);
    }
}
