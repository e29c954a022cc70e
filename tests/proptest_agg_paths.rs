//! The similarity nodes fold `count`, `sum`, `avg`, `min` and `max` over a
//! plain column that holds only floats from one gathered column, and every
//! other aggregate call member row by member row. Both paths must give the
//! same answer down to the float bits. The oracle is the same statement
//! with each `agg(c)` written `agg(c * 1)`: `c * 1` leaves Int, Float and
//! NULL values unchanged (`Value::arith`), but it is not a plain column,
//! so it always takes the per-member path.
//!
//! The borrowed-root cases pin what a bare scan hands the caller: the
//! catalog's own rows, cut or sorted, with the catalog left as it was.

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::relation::{Database, Row, Schema, Table, Value};

const COLUMNS: [&str; 7] = ["x", "y", "f", "i", "fnull", "mixed", "s"];

/// The aggregated columns: all floats, all ints, floats with NULLs, ints
/// mixed with floats, strings.
const AGG_COLUMNS: [&str; 5] = ["f", "i", "fnull", "mixed", "s"];

const KINDS: [&str; 6] = ["count", "sum", "avg", "min", "max", "array_agg"];

/// A float cell: mostly finite values of very different magnitudes (so the
/// summation order shows in the bits), sometimes a special value:
/// `special_share` of 100 draws pick one. Palette 0 holds ±0.0, ±∞ and a
/// NaN made by `0.0 / 0.0`. Palettes 1 and 2 hold only ±0.0 beside finite
/// values of one sign, so the zeros tie for a group's min (1) or max (2).
fn float_cell(pick: u8, finite: f64, special_share: u8, palette: u8) -> f64 {
    let nan = || match Value::Float(0.0).arith('/', &Value::Float(0.0)) {
        Ok(Value::Float(nan)) => nan,
        other => panic!("0.0 / 0.0 gave {other:?}"),
    };
    match (palette, pick < special_share) {
        (0, false) => finite,
        (1, false) => finite.abs(),
        (_, false) => -finite.abs(),
        (0, true) => [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, nan()][pick as usize % 5],
        (_, true) => [0.0, -0.0][pick as usize % 2],
    }
}

/// Raw draws for one row: cluster, jitter, float pick and value, int,
/// NULL and mixed selectors, string.
type RowDraw = (u8, (f64, f64), (u8, f64), i64, (u8, u8), String);

fn row_draw() -> impl Strategy<Value = RowDraw> {
    (
        0u8..3,
        (-1.5f64..1.5, -1.5f64..1.5),
        (0u8..100, prop_oneof![-1.0e6f64..1.0e6, -1.0f64..1.0]),
        -50i64..50,
        (0u8..4, 0u8..2),
        "[a-c]{0,2}",
    )
}

/// The table the draws describe, in `COLUMNS` order.
fn build_rows(draws: &[RowDraw], special_share: u8, palette: u8) -> Vec<Row> {
    let centers = [(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)];
    draws
        .iter()
        .map(
            |(cluster, (dx, dy), (pick, finite), int, (null, mixed), s)| {
                let (cx, cy) = centers[*cluster as usize];
                let f = float_cell(*pick, *finite, special_share, palette);
                vec![
                    Value::Float(cx + dx),
                    Value::Float(cy + dy),
                    Value::Float(f),
                    Value::Int(*int),
                    if *null == 0 {
                        Value::Null
                    } else {
                        Value::Float(f)
                    },
                    if *mixed == 0 {
                        Value::Int(*int)
                    } else {
                        Value::Float(f)
                    },
                    Value::Str(s.clone()),
                ]
            },
        )
        .collect()
}

fn db_with(rows: &[Row]) -> Database {
    let mut db = Database::new();
    db.register(
        "t",
        Table::new(Schema::new(COLUMNS), rows.to_vec()).unwrap(),
    );
    db
}

/// Equal down to the float bits: `Value`'s own equality treats every NaN
/// as equal and `0.0` as equal to `-0.0`.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Float(_), _) | (_, Value::Float(_)) => false,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Int(_), _) | (_, Value::Int(_)) => false,
        (a, b) => a == b,
    }
}

fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| same_value(x, y))
        })
}

/// One aggregate call as written on the statement side and on the oracle
/// side. String columns stay as they are on both (`s * 1` is an error):
/// they ride along on the per-member path beside the folded calls.
fn call(kind: u8, column: u8) -> (String, String) {
    let (kind, column) = (KINDS[kind as usize], AGG_COLUMNS[column as usize]);
    let plain = format!("{kind}({column})");
    let oracle = if column == "s" {
        plain.clone()
    } else {
        format!("{kind}({column} * 1)")
    };
    (plain, oracle)
}

/// The grouping clause of operator `op`: SGB-Any, SGB-All under each
/// ON-OVERLAP action, and AROUND with a radius.
fn grouping_clause(op: u8, eps: f64) -> String {
    match op {
        0 => format!("DISTANCE-TO-ANY L2 WITHIN {eps}"),
        1 => format!("DISTANCE-TO-ALL LINF WITHIN {eps} ON-OVERLAP JOIN-ANY"),
        2 => format!("DISTANCE-TO-ALL LINF WITHIN {eps} ON-OVERLAP ELIMINATE"),
        3 => format!("DISTANCE-TO-ALL LINF WITHIN {eps} ON-OVERLAP FORM-NEW-GROUP"),
        _ => format!("AROUND ((0, 0), (5, 5), (10, 0)) L2 WITHIN {}", eps * 2.0),
    }
}

fn run(db: &Database, sql: &str) -> Result<Vec<Row>, String> {
    db.query(sql).map(|t| t.rows).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `agg(c)` equals `agg(c * 1)` bit for bit under every operator, for
    /// every aggregate kind over one column profile plus a few calls over
    /// others, with and without HAVING, and whether the grouping is
    /// computed or served from a subscription.
    #[test]
    fn float_column_folds_match_per_member_folds(
        draws in vec(row_draw(), 0..48),
        special_share in prop::sample::select(vec![0u8, 5, 40]),
        palette in 0u8..3,
        column in 0u8..5,
        extra in vec((0u8..6, 0u8..5), 0..3),
        op in 0u8..5,
        eps in prop::sample::select(vec![0.5f64, 1.0, 2.5]),
        having in (0u8..3, -2i64..3, 0usize..8),
        serve in any::<bool>(),
    ) {
        let rows = build_rows(&draws, special_share, palette);
        let mut db = db_with(&rows);
        let calls: Vec<(String, String)> = (0..KINDS.len() as u8)
            .map(|kind| (kind, column))
            .chain(extra)
            .map(|(kind, column)| call(kind, column))
            .collect();
        let clause = grouping_clause(op, eps);
        let statement = |pick: fn(&(String, String)) -> &String| {
            let list: Vec<&str> = calls.iter().map(|c| pick(c).as_str()).collect();
            let having = match having {
                (0, _, _) => String::new(),
                (1, n, _) => format!(" HAVING count(*) > {n}"),
                (_, n, i) => format!(" HAVING {} > {n}", pick(&calls[i % calls.len()])),
            };
            format!(
                "SELECT count(*), {} FROM t GROUP BY x, y {clause}{having}",
                list.join(", ")
            )
        };
        let plain = statement(|c| &c.0);
        let oracle = statement(|c| &c.1);
        if serve {
            db.subscribe(&plain).unwrap();
            prop_assert!(db.explain(&oracle).unwrap().contains("snapshot: subscription"));
        }
        let (got, want) = (run(&db, &plain), run(&db, &oracle));
        match (&got, &want) {
            (Ok(got), Ok(want)) => prop_assert!(
                same_rows(got, want),
                "{plain}\n  got: {got:?}\n want: {want:?} ({oracle})"
            ),
            _ => prop_assert_eq!(&got, &want, "{} vs {}", plain, oracle),
        }
    }

    /// A bare scan at the root, alone, under LIMIT or under ORDER BY,
    /// returns the catalog's rows — and leaves them as they were.
    #[test]
    fn borrowed_roots_return_the_catalog_rows(
        draws in vec(row_draw(), 0..40),
        k in 0usize..50,
    ) {
        let rows = build_rows(&draws, 40, 0);
        let db = db_with(&rows);
        prop_assert!(same_rows(&db.query("SELECT * FROM t").unwrap().rows, &rows));
        let limited = db.query(&format!("SELECT * FROM t LIMIT {k}")).unwrap().rows;
        prop_assert!(same_rows(&limited, &rows[..k.min(rows.len())]));
        let mut sorted = rows.clone();
        sorted.sort_by(|a, b| b[3].cmp_non_null(&a[3]).then_with(|| a[6].cmp_non_null(&b[6])));
        let ordered = db.query("SELECT * FROM t ORDER BY i DESC, s").unwrap().rows;
        prop_assert!(same_rows(&ordered, &sorted));
        prop_assert!(same_rows(&db.table("t").unwrap().rows, &rows));
    }
}
