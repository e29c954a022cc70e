//! Joins, and the statements built over them, against a nested-loop
//! oracle written here over the catalog's rows (`db.table(..).rows`).
//!
//! The executor passes a join's output on as row positions and builds rows
//! only where a node makes new ones, so these properties pin what a caller
//! sees: every answer row for row, in the engine's order (probe order ×
//! build order for a hash join, first-seen order for GROUP BY, a stable
//! sort for ORDER BY), floats down to their bits.
//!
//! Keys mix Int, Float, NULL and Str values, `Int(1)` beside `Float(1.0)`,
//! both signed zeros, and repeats; tables may be empty. NaN is left out:
//! `Value::cmp_non_null` holds NaN equal to everything, while hashing keeps
//! it apart by its bits, so the two disagree on it by design.

use std::cmp::Ordering;

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::relation::{Database, Row, Schema, Table, Value};
use sgb::{Point, SgbQuery};

const TABLES: [&str; 3] = ["a", "b", "c"];

/// `k` a join key, `v` a payload of any type, `n` a numeric payload (sum
/// and avg read it), `x` a finite coordinate.
const COLUMNS: [&str; 4] = ["k", "v", "n", "x"];
const K: usize = 0;
const V: usize = 1;
const N: usize = 2;
const X: usize = 3;

fn key() -> impl Strategy<Value = Value> {
    prop::sample::select(vec![
        Value::Int(0),
        Value::Int(1),
        Value::Int(2),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.0),
        Value::Float(2.5),
        Value::Str("a".into()),
        Value::Str("b".into()),
        Value::Null,
    ])
}

fn payload() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..3).prop_map(Value::Int),
        (-3.0f64..3.0).prop_map(Value::Float),
        Just(Value::Float(-0.0)),
        "[a-c]{0,2}".prop_map(Value::Str),
    ]
}

fn number() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-50i64..50).prop_map(Value::Int),
        (-1.0e3f64..1.0e3).prop_map(Value::Float),
        prop_oneof![Just(1.0e16), Just(-1.0e16)].prop_map(Value::Float),
    ]
}

fn row() -> impl Strategy<Value = Row> {
    (key(), payload(), number(), 0.0f64..4.0)
        .prop_map(|(k, v, n, x)| vec![k, v, n, Value::Float(x)])
}

/// Three tables of 0–6 rows each.
fn tables() -> impl Strategy<Value = Vec<Vec<Row>>> {
    vec(vec(row(), 0..7), 3..4)
}

/// Three tables of 0–12 rows each: cross joins long enough for a sort to
/// leave insertion sort, with ties among their ten keys.
fn larger_tables() -> impl Strategy<Value = Vec<Vec<Row>>> {
    vec(vec(row(), 0..13), 3..4)
}

fn db_with(tables: &[Vec<Row>]) -> Database {
    let mut db = Database::new();
    for (name, rows) in TABLES.iter().zip(tables) {
        db.register(
            name,
            Table::new(Schema::new(COLUMNS), rows.clone()).unwrap(),
        );
    }
    db
}

/// The catalog's rows of table `name`: what the oracle reads.
fn rows(db: &Database, name: &str) -> Vec<Row> {
    db.table(name).unwrap().rows.clone()
}

/// SQL `=`: TRUE only, NULL and FALSE both reject.
fn eq(x: &Value, y: &Value) -> bool {
    x.sql_eq(y) == Some(true)
}

/// A SQL comparison that holds: neither side NULL, and `holds` accepts
/// their order.
fn holds(x: &Value, y: &Value, holds: fn(Ordering) -> bool) -> bool {
    !x.is_null() && !y.is_null() && holds(x.cmp_non_null(y))
}

/// `left` then `right`, as a join emits them.
fn concat(left: &[Value], right: &[Value]) -> Row {
    left.iter().chain(right).cloned().collect()
}

/// The nested loop: every pair `keep` accepts, `left` outermost, each side
/// in its own order.
fn nested(left: &[Row], right: &[Row], keep: impl Fn(&Row, &Row) -> bool) -> Vec<Row> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if keep(l, r) {
                out.push(concat(l, r));
            }
        }
    }
    out
}

/// Equal down to the float bits: `Value`'s own equality holds `0.0` equal
/// to `-0.0` and `Int(1)` equal to `Float(1.0)`.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Float(_), _) | (_, Value::Float(_)) => false,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Int(_), _) | (_, Value::Int(_)) => false,
        (a, b) => a == b,
    }
}

fn check(db: &Database, sql: &str, expected: &[Row]) -> Result<(), String> {
    let got = db.query(sql).map_err(|e| format!("{sql}: {e}"))?.rows;
    let same = got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(g, e)| g.len() == e.len() && g.iter().zip(e).all(|(x, y)| same_value(x, y)));
    if same {
        Ok(())
    } else {
        Err(format!("{sql}\n   got: {got:?}\nwanted: {expected:?}"))
    }
}

/// One aggregate call's running state, as the engine defines it: NULLs
/// skipped, sums in row order from `0.0` (an Int when every value was an
/// Int and the sum is integral), min and max replaced only by a strictly
/// smaller or larger value.
#[derive(Clone)]
enum Agg {
    CountStar(i64),
    Count(i64),
    Sum(f64, bool, bool),
    Avg(f64, i64),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Agg {
    fn update(&mut self, v: &Value) {
        if let Agg::CountStar(n) = self {
            *n += 1;
            return;
        }
        if v.is_null() {
            return;
        }
        match self {
            Agg::CountStar(_) => {}
            Agg::Count(n) => *n += 1,
            Agg::Sum(sum, all_int, seen) => {
                *sum += v.as_f64().unwrap();
                *all_int &= matches!(v, Value::Int(_));
                *seen = true;
            }
            Agg::Avg(sum, n) => {
                *sum += v.as_f64().unwrap();
                *n += 1;
            }
            Agg::Min(best) => {
                if best.as_ref().map_or(true, |b| v.cmp_non_null(b).is_lt()) {
                    *best = Some(v.clone());
                }
            }
            Agg::Max(best) => {
                if best.as_ref().map_or(true, |b| v.cmp_non_null(b).is_gt()) {
                    *best = Some(v.clone());
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            Agg::CountStar(n) | Agg::Count(n) => Value::Int(n),
            Agg::Sum(_, _, false) => Value::Null,
            Agg::Sum(sum, true, true) if sum.fract() == 0.0 && sum.abs() < 9e15 => {
                Value::Int(sum as i64)
            }
            Agg::Sum(sum, _, true) => Value::Float(sum),
            Agg::Avg(_, 0) => Value::Null,
            Agg::Avg(sum, n) => Value::Float(sum / n as f64),
            Agg::Min(v) | Agg::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// The aggregates over `members`: each call a fresh state and the column
/// it reads (`None` for `count(*)`).
fn aggregate(calls: &[(Agg, Option<usize>)], members: &[&Row]) -> Vec<Value> {
    calls
        .iter()
        .map(|(state, column)| {
            let mut state = state.clone();
            for row in members {
                state.update(column.map_or(&Value::Null, |c| &row[c]));
            }
            state.finish()
        })
        .collect()
}

/// Equality GROUP BY over `rows`: groups in first-seen order under
/// `Value`'s own equality (NULL forms one group), each keeping its first
/// key.
fn group_by(rows: &[Row], key: impl Fn(&Row) -> Value) -> Vec<(Value, Vec<&Row>)> {
    let mut groups: Vec<(Value, Vec<&Row>)> = Vec::new();
    for row in rows {
        let k = key(row);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, members)) => members.push(row),
            None => groups.push((k, vec![row])),
        }
    }
    groups
}

/// ORDER BY's comparison of two non-key-equal values: NULL first, then
/// `cmp_non_null`; reversed when descending.
fn order(x: &Value, y: &Value, desc: bool) -> Ordering {
    let ord = match (x.is_null(), y.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => x.cmp_non_null(y),
    };
    if desc {
        ord.reverse()
    } else {
        ord
    }
}

/// The first `n` of `rows` after a stable sort on `keys`: (column,
/// descending) pairs.
fn sorted_prefix(mut rows: Vec<Row>, keys: &[(usize, bool)], n: usize) -> Vec<Row> {
    rows.sort_by(|a, b| {
        keys.iter()
            .map(|&(c, desc)| order(&a[c], &b[c], desc))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows.truncate(n);
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two-way equi-joins, with filters pushed below the join and left
    /// above it, projections over them, the cross join, and `IN` over a
    /// subquery.
    #[test]
    fn two_way_joins_match_the_nested_loop(tables in tables()) {
        let db = db_with(&tables);
        let (a, b) = (rows(&db, "a"), rows(&db, "b"));
        let w = COLUMNS.len();
        check(&db, "SELECT * FROM a, b WHERE a.k = b.k", &nested(&a, &b, |l, r| eq(&l[K], &r[K])))?;
        check(
            &db,
            "SELECT * FROM a, b WHERE a.v = b.v",
            &nested(&a, &b, |l, r| eq(&l[V], &r[V])),
        )?;
        check(
            &db,
            "SELECT * FROM a, b WHERE a.k = b.k AND a.v > 0 AND b.n < 10",
            &nested(&a, &b, |l, r| {
                eq(&l[K], &r[K])
                    && holds(&l[V], &Value::Int(0), Ordering::is_gt)
                    && holds(&r[N], &Value::Int(10), Ordering::is_lt)
            }),
        )?;
        check(
            &db,
            "SELECT * FROM a, b WHERE a.k = b.k AND a.n <= b.n",
            &nested(&a, &b, |l, r| eq(&l[K], &r[K]) && holds(&l[N], &r[N], Ordering::is_le)),
        )?;
        check(
            &db,
            "SELECT * FROM a, b WHERE b.k = a.k AND a.x + b.x < 4",
            &nested(&a, &b, |l, r| {
                eq(&l[K], &r[K]) && l[X].as_f64().unwrap() + r[X].as_f64().unwrap() < 4.0
            }),
        )?;
        let projected: Vec<Row> = nested(&a, &b, |l, r| eq(&l[K], &r[K]))
            .into_iter()
            .map(|row| vec![row[w + V].clone(), row[K].clone(), row[w + N].clone()])
            .collect();
        check(&db, "SELECT b.v, a.k, b.n FROM a, b WHERE a.k = b.k", &projected)?;
        check(&db, "SELECT * FROM a, b", &nested(&a, &b, |_, _| true))?;
        let semi: Vec<Row> = a
            .iter()
            .filter(|l| b.iter().any(|r| eq(&l[K], &r[K])))
            .cloned()
            .collect();
        check(&db, "SELECT * FROM a WHERE k IN (SELECT k FROM b)", &semi)?;
    }

    /// Three-way joins: two hash joins, a hash join then a cross join, and
    /// a second key with a residual filter across all three inputs.
    #[test]
    fn three_way_joins_match_the_nested_loop(tables in tables()) {
        let db = db_with(&tables);
        let (a, b, c) = (rows(&db, "a"), rows(&db, "b"), rows(&db, "c"));
        let w = COLUMNS.len();
        let ab = nested(&a, &b, |l, r| eq(&l[K], &r[K]));
        check(
            &db,
            "SELECT * FROM a, b, c WHERE a.k = b.k AND b.k = c.k",
            &nested(&ab, &c, |l, r| eq(&l[w + K], &r[K])),
        )?;
        check(&db, "SELECT * FROM a, b, c WHERE a.k = b.k", &nested(&ab, &c, |_, _| true))?;
        check(
            &db,
            "SELECT * FROM a, b, c WHERE a.k = b.k AND c.v = a.v AND b.n > c.n",
            &nested(&ab, &c, |l, r| eq(&r[V], &l[V]) && holds(&l[w + N], &r[N], Ordering::is_gt)),
        )?;
        let projected: Vec<Row> = nested(&ab, &c, |l, r| eq(&l[w + K], &r[K]))
            .into_iter()
            .map(|row| vec![row[2 * w + X].clone(), row[V].clone()])
            .collect();
        check(&db, "SELECT c.x, a.v FROM a, b, c WHERE a.k = b.k AND b.k = c.k", &projected)?;
    }

    /// GROUP BY with aggregates over a join: first-seen group order, every
    /// aggregate kind over mixed-type and numeric payloads, HAVING, and a
    /// global aggregate over a possibly empty join.
    #[test]
    fn group_by_over_a_join_matches_the_oracle(tables in tables()) {
        let db = db_with(&tables);
        let (a, b) = (rows(&db, "a"), rows(&db, "b"));
        let w = COLUMNS.len();
        let joined = nested(&a, &b, |l, r| eq(&l[K], &r[K]));
        let calls = [
            (Agg::CountStar(0), None),
            (Agg::Count(0), Some(w + V)),
            (Agg::Sum(0.0, true, false), Some(w + N)),
            (Agg::Avg(0.0, 0), Some(N)),
            (Agg::Min(None), Some(w + V)),
            (Agg::Max(None), Some(V)),
        ];
        let grouped = |key: usize| -> Vec<Row> {
            group_by(&joined, |row| row[key].clone())
                .into_iter()
                .map(|(k, members)| {
                    let mut out = vec![k];
                    out.extend(aggregate(&calls, &members));
                    out
                })
                .collect()
        };
        let aggs = "count(*), count(b.v), sum(b.n), avg(a.n), min(b.v), max(a.v)";
        check(
            &db,
            &format!("SELECT a.k, {aggs} FROM a, b WHERE a.k = b.k GROUP BY a.k"),
            &grouped(K),
        )?;
        check(
            &db,
            &format!("SELECT b.v, {aggs} FROM a, b WHERE a.k = b.k GROUP BY b.v"),
            &grouped(w + V),
        )?;
        let having: Vec<Row> = grouped(w + V)
            .into_iter()
            .filter(|row| row[1].as_i64().unwrap() > 1)
            .collect();
        check(
            &db,
            &format!(
                "SELECT b.v, {aggs} FROM a, b WHERE a.k = b.k GROUP BY b.v HAVING count(*) > 1"
            ),
            &having,
        )?;
        let members: Vec<&Row> = joined.iter().collect();
        check(
            &db,
            &format!("SELECT {aggs} FROM a, b WHERE a.k = b.k"),
            &[aggregate(&calls, &members)],
        )?;
    }

    /// ORDER BY … LIMIT over a table (`SELECT *`), over a join, and under a
    /// projection, plus a LIMIT straight over a join: each a prefix of the
    /// stable sort (or of the join's own order).
    #[test]
    fn order_by_limit_matches_the_stable_sort(tables in larger_tables(), n in 0usize..16) {
        let db = db_with(&tables);
        let (a, b) = (rows(&db, "a"), rows(&db, "b"));
        let w = COLUMNS.len();
        check(
            &db,
            &format!("SELECT * FROM a ORDER BY k LIMIT {n}"),
            &sorted_prefix(a.clone(), &[(K, false)], n),
        )?;
        check(
            &db,
            &format!("SELECT * FROM a ORDER BY v DESC, n LIMIT {n}"),
            &sorted_prefix(a.clone(), &[(V, true), (N, false)], n),
        )?;
        let joined = nested(&a, &b, |l, r| eq(&l[K], &r[K]));
        check(
            &db,
            &format!("SELECT * FROM a, b WHERE a.k = b.k ORDER BY b.n DESC LIMIT {n}"),
            &sorted_prefix(joined.clone(), &[(w + N, true)], n),
        )?;
        let projected: Vec<Row> = sorted_prefix(joined.clone(), &[(X, false)], n)
            .into_iter()
            .map(|row| vec![row[V].clone(), row[w + V].clone()])
            .collect();
        check(
            &db,
            &format!("SELECT a.v, b.v FROM a, b WHERE a.k = b.k ORDER BY a.x LIMIT {n}"),
            &projected,
        )?;
        let mut head = joined;
        head.truncate(n);
        check(&db, &format!("SELECT * FROM a, b WHERE a.k = b.k LIMIT {n}"), &head)?;
        // Up to 144 rows over ten keys: enough ties that an unstable sort
        // shows.
        let all = 10 * n;
        check(
            &db,
            &format!("SELECT * FROM a, b ORDER BY b.k DESC LIMIT {all}"),
            &sorted_prefix(nested(&a, &b, |_, _| true), &[(w + K, true)], all),
        )?;
    }

    /// DISTANCE-TO-ANY over a join equals the core operator run over the
    /// joined points, group for group, with each group's aggregates folded
    /// over its members in member order.
    #[test]
    fn distance_to_any_over_a_join_matches_the_core(tables in tables(), eps in 0.1f64..1.5) {
        let db = db_with(&tables);
        let (a, b) = (rows(&db, "a"), rows(&db, "b"));
        let w = COLUMNS.len();
        let joined = nested(&a, &b, |l, r| eq(&l[K], &r[K]));
        let points: Vec<Point<2>> = joined
            .iter()
            .map(|row| Point::new([row[X].as_f64().unwrap(), row[w + X].as_f64().unwrap()]))
            .collect();
        let grouping = SgbQuery::any(eps).run(&points);
        let calls = [
            (Agg::CountStar(0), None),
            (Agg::Sum(0.0, true, false), Some(N)),
            (Agg::Min(None), Some(w + V)),
            (Agg::Avg(0.0, 0), Some(w + X)),
        ];
        let expected: Vec<Row> = grouping
            .groups()
            .iter()
            .map(|members| {
                let members: Vec<&Row> = members.iter().map(|&m| &joined[m]).collect();
                aggregate(&calls, &members)
            })
            .collect();
        check(
            &db,
            &format!(
                "SELECT count(*), sum(a.n), min(b.v), avg(b.x) FROM a, b WHERE a.k = b.k \
                 GROUP BY a.x, b.x DISTANCE-TO-ANY L2 WITHIN {eps}"
            ),
            &expected,
        )?;
    }
}
