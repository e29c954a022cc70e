//! Runtime values and the calendar arithmetic used by date columns.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};

/// A single cell value.
///
/// The engine is dynamically typed at the cell level (like SQLite): each
/// operator checks the shapes it needs. `Date` stores days since the Unix
/// epoch; `Interval` is a calendar interval (months and days kept separate,
/// as month lengths vary).
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Days since 1970-01-01.
    Date(i32),
    /// Calendar interval.
    Interval {
        /// Whole months.
        months: i32,
        /// Whole days.
        days: i32,
    },
}

impl Value {
    /// `true` when the value is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (Int/Float/Bool as 0/1); `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view; floats with no fraction coerce.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Boolean view (SQL three-valued logic: NULL stays None).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Null => None,
            Value::Int(i) => Some(*i != 0),
            _ => None,
        }
    }

    /// SQL equality (NULL never equals anything; Int/Float compare
    /// numerically).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_non_null(other) == Ordering::Equal)
    }

    /// Total ordering for non-null values of comparable types; numeric
    /// types inter-compare, an Int with a Float exactly (the f64 cast
    /// decides, a tie compares as integers), floats in PostgreSQL's order
    /// (NaN equals NaN and sorts above every other number, -0.0 equals
    /// 0.0), otherwise same-variant comparisons only. Cross-type
    /// incomparables order by a stable type rank (so sorting never
    /// panics).
    pub fn cmp_non_null(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => cmp_float(*a, *b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (
                Interval {
                    months: m1,
                    days: d1,
                },
                Interval {
                    months: m2,
                    days: d2,
                },
            ) => (m1, d1).cmp(&(m2, d2)),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numerics share a rank (they inter-compare)
            Value::Str(_) => 3,
            Value::Date(_) => 4,
            Value::Interval { .. } => 5,
        }
    }

    /// Arithmetic (`+ - * /`) with numeric promotion and date ± interval.
    pub fn arith(&self, op: char, other: &Value) -> Result<Value> {
        use Value::*;
        if self.is_null() || other.is_null() {
            return Ok(Null);
        }
        match (self, other, op) {
            (Date(d), Interval { months, days }, '+') => {
                Ok(Date(add_months_days(*d, *months, *days)))
            }
            (Date(d), Interval { months, days }, '-') => {
                Ok(Date(add_months_days(*d, -months, -days)))
            }
            (Interval { months, days }, Date(d), '+') => {
                Ok(Date(add_months_days(*d, *months, *days)))
            }
            (Date(a), Date(b), '-') => Ok(Int((*a as i64) - (*b as i64))),
            (Date(d), Int(n), '+') => Ok(Date(d + *n as i32)),
            (Date(d), Int(n), '-') => Ok(Date(d - *n as i32)),
            (Int(a), Int(b), _) => match op {
                '+' => Ok(Int(a.wrapping_add(*b))),
                '-' => Ok(Int(a.wrapping_sub(*b))),
                '*' => Ok(Int(a.wrapping_mul(*b))),
                '/' => {
                    if *b == 0 {
                        Err(Error::Eval("division by zero".into()))
                    } else {
                        Ok(Int(a / b))
                    }
                }
                _ => Err(Error::Eval(format!("unknown operator {op}"))),
            },
            _ => {
                let (a, b) = (
                    self.as_f64().ok_or_else(|| type_err(self, op, other))?,
                    other.as_f64().ok_or_else(|| type_err(self, op, other))?,
                );
                match op {
                    '+' => Ok(Float(a + b)),
                    '-' => Ok(Float(a - b)),
                    '*' => Ok(Float(a * b)),
                    '/' => Ok(Float(a / b)),
                    _ => Err(Error::Eval(format!("unknown operator {op}"))),
                }
            }
        }
    }
}

/// The order of SQL floats, PostgreSQL's (its manual, §8.1.3): NaN
/// equals NaN and sorts above every other number, and -0.0 equals 0.0.
/// Comparisons, sorts, and min and max all follow it, and [`Value`]'s
/// hash agrees with it.
pub(crate) fn cmp_float(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// An Int against a Float, exactly, so equality stays transitive across
/// the two: the f64 cast decides, except on a tie, where the float is
/// integral and the two compare as integers (the cast rounds above 2^53,
/// so 2^53 + 1 ties with 2^53 as a float). NaN stays above every number.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    match cmp_float(i as f64, f) {
        // A tie makes `f` an integral value within ±2^63: exact in i128.
        Ordering::Equal => i128::from(i).cmp(&(f as i128)),
        unequal => unequal,
    }
}

fn type_err(a: &Value, op: char, b: &Value) -> Error {
    Error::Eval(format!("cannot compute {a} {op} {b}"))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true, // structural, not SQL, equality
            (a, b) if a.is_null() || b.is_null() => false,
            (a, b) => a.cmp_non_null(b) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float must hash identically when they compare equal,
            // which needs the Int's f64 cast to equal the Float: hash via
            // the f64 bits of the value, with -0.0 as +0.0 and every NaN as
            // one NaN (each pair compares equal too, and `Int(0)` is +0.0).
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                let f = if *f == 0.0 {
                    0.0
                } else if f.is_nan() {
                    f64::NAN
                } else {
                    *f
                };
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
            Value::Interval { months, days } => {
                5u8.hash(state);
                months.hash(state);
                days.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => {
                let (y, m, day) = civil_from_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
            Value::Interval { months, days } => write!(f, "{months} mons {days} days"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

// ---------------------------------------------------------------------------
// Calendar arithmetic (proleptic Gregorian; Howard Hinnant's algorithms).
// ---------------------------------------------------------------------------

/// Days since 1970-01-01 for a civil date.
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    debug_assert!((1..=12).contains(&m));
    debug_assert!((1..=31).contains(&d));
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64; // [0, 399]
    let mp = ((m + 9) % 12) as i64; // Mar=0 … Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era as i64 * 146097 + doe - 719468) as i32
}

/// Civil date `(year, month, day)` for days since 1970-01-01.
pub fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + (m <= 2) as i64) as i32, m, d)
}

/// Parses `YYYY-MM-DD` into days since the epoch.
pub fn parse_date(s: &str) -> Result<i32> {
    let parts: Vec<&str> = s.split('-').collect();
    let err = || Error::Parse(format!("invalid date literal '{s}' (expected YYYY-MM-DD)"));
    if parts.len() != 3 {
        return Err(err());
    }
    let y: i32 = parts[0].parse().map_err(|_| err())?;
    let m: u32 = parts[1].parse().map_err(|_| err())?;
    let d: u32 = parts[2].parse().map_err(|_| err())?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) || d > days_in_month(y, m) {
        return Err(err());
    }
    Ok(days_from_civil(y, m, d))
}

/// Number of days in `(year, month)`.
pub fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Adds a calendar interval to a date: months first (clamping the day to
/// the target month's length, PostgreSQL-style), then days.
pub fn add_months_days(date: i32, months: i32, days: i32) -> i32 {
    let (y, m, d) = civil_from_days(date);
    let total = y as i64 * 12 + (m as i64 - 1) + months as i64;
    let (ny, nm) = (
        total.div_euclid(12) as i32,
        (total.rem_euclid(12) + 1) as u32,
    );
    let nd = d.min(days_in_month(ny, nm));
    days_from_civil(ny, nm, nd) + days
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_round_trip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (1995, 1, 1),
            (1996, 2, 29),
            (2000, 12, 31),
            (1900, 3, 1),
            (2024, 6, 15),
        ] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
    }

    #[test]
    fn parse_and_display_dates() {
        let d = parse_date("1995-01-01").unwrap();
        assert_eq!(Value::Date(d).to_string(), "1995-01-01");
        assert!(parse_date("1995-13-01").is_err());
        assert!(parse_date("1995-02-30").is_err());
        assert!(parse_date("nonsense").is_err());
    }

    #[test]
    fn interval_month_arithmetic() {
        // date '1995-01-01' + interval '10' month = 1995-11-01 (TPC-H Q15).
        let base = parse_date("1995-01-01").unwrap();
        let plus10 = Value::Date(base)
            .arith(
                '+',
                &Value::Interval {
                    months: 10,
                    days: 0,
                },
            )
            .unwrap();
        assert_eq!(plus10.to_string(), "1995-11-01");
        // Day clamping: Jan 31 + 1 month = Feb 28 (non-leap).
        let jan31 = parse_date("1995-01-31").unwrap();
        let feb = Value::Date(jan31)
            .arith('+', &Value::Interval { months: 1, days: 0 })
            .unwrap();
        assert_eq!(feb.to_string(), "1995-02-28");
    }

    #[test]
    fn date_minus_date_is_days() {
        let a = parse_date("1995-03-10").unwrap();
        let b = parse_date("1995-03-01").unwrap();
        assert_eq!(
            Value::Date(a).arith('-', &Value::Date(b)).unwrap(),
            Value::Int(9)
        );
    }

    #[test]
    fn numeric_promotion() {
        assert_eq!(
            Value::Int(3).arith('+', &Value::Int(4)).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            Value::Int(3).arith('*', &Value::Float(0.5)).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            Value::Float(1.0).arith('/', &Value::Int(4)).unwrap(),
            Value::Float(0.25)
        );
        assert!(Value::Int(1).arith('/', &Value::Int(0)).is_err());
        assert_eq!(
            Value::Int(7).arith('/', &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert!(Value::Null.arith('+', &Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).arith('*', &Value::Null).unwrap().is_null());
    }

    #[test]
    fn sql_equality_and_nulls() {
        assert_eq!(Value::Int(2).sql_eq(&Value::Float(2.0)), Some(true));
        assert_eq!(
            Value::Str("a".into()).sql_eq(&Value::Str("b".into())),
            Some(false)
        );
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn int_float_hash_consistency() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(42));
        assert!(set.contains(&Value::Float(42.0)));
        assert!(!set.contains(&Value::Float(42.5)));
    }

    #[test]
    fn signed_zeros_hash_alike() {
        use std::collections::HashSet;
        let set: HashSet<Value> = [Value::Float(0.0)].into_iter().collect();
        assert!(set.contains(&Value::Float(-0.0)));
        assert!(set.contains(&Value::Int(0)));
        let set: HashSet<Value> = [Value::Float(-0.0)].into_iter().collect();
        assert!(set.contains(&Value::Float(0.0)));
        assert!(set.contains(&Value::Int(0)));
    }

    /// GROUP BY, a hash join and `IN (subquery)` hash their keys; a plain
    /// filter compares them. All four must treat -0.0 as 0.0.
    #[test]
    fn signed_zeros_agree_across_group_by_joins_in_and_filters() {
        let mut db = crate::engine::Database::new();
        for sql in [
            "CREATE TABLE a (k FLOAT)",
            "CREATE TABLE b (k FLOAT)",
            "INSERT INTO a VALUES (0.0), (-0.0), (1.0)",
            "INSERT INTO b VALUES (0.0), (1.0)",
        ] {
            db.execute(sql).unwrap();
        }
        let count = |sql: &str| db.query(sql).unwrap().len();
        let groups = db
            .query("SELECT k, count(*) FROM a GROUP BY k")
            .unwrap()
            .rows;
        assert_eq!(
            groups,
            vec![
                vec![Value::Float(0.0), Value::Int(2)],
                vec![Value::Float(1.0), Value::Int(1)],
            ]
        );
        assert_eq!(count("SELECT a.k FROM a, b WHERE a.k = b.k"), 3);
        assert_eq!(count("SELECT k FROM a WHERE k IN (SELECT k FROM b)"), 3);
        assert_eq!(count("SELECT k FROM a WHERE k = 0"), 2);
    }

    /// NaN equals NaN and sorts above every number, in filters, hash
    /// joins and GROUP BY alike, over `k / k`: NaN for the 0.0 row, 1.0
    /// otherwise.
    #[test]
    fn nan_agrees_across_group_by_joins_and_filters() {
        let mut db = crate::engine::Database::new();
        for sql in [
            "CREATE TABLE t (k FLOAT)",
            "INSERT INTO t VALUES (0.0), (1.0), (2.0)",
        ] {
            db.execute(sql).unwrap();
        }
        let count = |sql: &str| db.query(sql).unwrap().len();
        assert_eq!(count("SELECT k FROM t WHERE k / k = 5"), 0);
        assert_eq!(count("SELECT k FROM t WHERE k / k = 0.0 / 0.0"), 1);
        assert_eq!(count("SELECT k FROM t WHERE k / k > 1000"), 1);
        assert_eq!(count("SELECT count(*) FROM t GROUP BY k / k"), 2);
        // The same predicate as a hash join and as a filter.
        let join = "SELECT a.k FROM t a, t b WHERE a.k / a.k = b.k / b.k";
        let filter = "SELECT a.k FROM t a, t b WHERE NOT (a.k / a.k <> b.k / b.k)";
        assert_eq!((count(join), count(filter)), (5, 5));
        let sorted = db
            .query("SELECT k / k AS q FROM t ORDER BY q")
            .unwrap()
            .rows;
        assert!(matches!(sorted[2][0], Value::Float(q) if q.is_nan()));
        let extremes = db
            .query("SELECT min(k / k), max(k / k) FROM t")
            .unwrap()
            .rows;
        assert_eq!(extremes[0][0], Value::Float(1.0));
        assert!(matches!(extremes[0][1], Value::Float(q) if q.is_nan()));
        assert_eq!(cmp_float(f64::NAN, -f64::NAN), Ordering::Equal);
        assert_eq!(cmp_float(f64::NAN, f64::INFINITY), Ordering::Greater);
        assert_eq!(cmp_float(-0.0, 0.0), Ordering::Equal);
    }

    /// Above 2^53 an Int's f64 cast rounds, so 2^53 + 1 must not equal
    /// the float 2^53 even though its cast does: equality stays
    /// transitive and GROUP BY gives the same groups in every insertion
    /// order.
    #[test]
    fn int_float_equality_is_exact_and_order_free() {
        let (odd, float, even) = (
            Value::Int(9007199254740993),
            Value::Float(9007199254740992.0),
            Value::Int(9007199254740992),
        );
        assert_eq!(odd.cmp_non_null(&float), Ordering::Greater);
        assert_eq!(float.cmp_non_null(&odd), Ordering::Less);
        assert_eq!(even.cmp_non_null(&float), Ordering::Equal);
        // The casts of i64::MAX and i64::MIN tie with ±2^63.
        assert_eq!(
            Value::Int(i64::MAX).cmp_non_null(&Value::Float(9223372036854775808.0)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(i64::MIN).cmp_non_null(&Value::Float(-9223372036854775808.0)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Int(1).cmp_non_null(&Value::Float(f64::NAN)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(0).cmp_non_null(&Value::Float(-0.0)),
            Ordering::Equal
        );
        let rows = ["9007199254740993", "9007199254740992.0", "9007199254740992"];
        for order in [
            [0, 1, 2],
            [1, 0, 2],
            [0, 2, 1],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let mut db = crate::engine::Database::new();
            db.execute("CREATE TABLE t (k FLOAT)").unwrap();
            for i in order {
                db.execute(&format!("INSERT INTO t VALUES ({})", rows[i]))
                    .unwrap();
            }
            let counts = |sql: &str| -> Vec<Value> {
                let mut counts: Vec<Value> = db
                    .query(sql)
                    .unwrap()
                    .rows
                    .into_iter()
                    .map(|r| r[0].clone())
                    .collect();
                counts.sort_by(Value::cmp_non_null);
                counts
            };
            assert_eq!(
                counts("SELECT count(*) FROM t GROUP BY k"),
                vec![Value::Int(1), Value::Int(2)],
                "insertion order {order:?}"
            );
            assert_eq!(
                counts("SELECT count(*) FROM t WHERE k = 9007199254740992.0"),
                vec![Value::Int(2)],
                "insertion order {order:?}"
            );
            assert_eq!(
                counts("SELECT count(*) FROM t WHERE k = 9007199254740993"),
                vec![Value::Int(1)],
                "insertion order {order:?}"
            );
        }
    }

    #[test]
    fn ordering_within_types() {
        assert_eq!(
            Value::Int(1).cmp_non_null(&Value::Float(1.5)),
            Ordering::Less
        );
        assert_eq!(
            Value::Str("abc".into()).cmp_non_null(&Value::Str("abd".into())),
            Ordering::Less
        );
        let d1 = Value::Date(parse_date("1995-01-01").unwrap());
        let d2 = Value::Date(parse_date("1996-01-01").unwrap());
        assert_eq!(d1.cmp_non_null(&d2), Ordering::Less);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.25).to_string(), "2.25");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(
            Value::Interval {
                months: 10,
                days: 0
            }
            .to_string(),
            "10 mons 0 days"
        );
    }
}
