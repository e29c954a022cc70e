//! In-memory row-oriented tables.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Value;

/// A row of cell values.
pub type Row = Vec<Value>;

/// Process-global monotone counter backing [`Table::version`]. Every
/// freshly constructed or mutated table draws a new value, so two tables
/// (or two mutation epochs of one table) never share a version — the
/// property the session's index/result caches key invalidation on.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// A materialised relation: a schema plus rows.
#[derive(Clone, Debug)]
pub struct Table {
    /// Output schema.
    pub schema: Schema,
    /// Row data.
    pub rows: Vec<Row>,
    /// Monotone content version (see [`Table::version`]).
    version: u64,
}

impl Default for Table {
    fn default() -> Self {
        Self {
            schema: Schema::default(),
            rows: Vec::new(),
            version: fresh_version(),
        }
    }
}

/// Equality compares content (schema + rows) only; the cache version is
/// bookkeeping, not data.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
            version: fresh_version(),
        }
    }

    /// A table from a schema and rows; validates row widths.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        let width = schema.len();
        if let Some(bad) = rows.iter().find(|r| r.len() != width) {
            return Err(Error::Eval(format!(
                "row width {} does not match schema width {width}",
                bad.len()
            )));
        }
        Ok(Self {
            schema,
            rows,
            version: fresh_version(),
        })
    }

    /// An intermediate result table (no width validation — the executor
    /// constructs rows that already match the schema).
    pub(crate) fn from_parts(schema: Schema, rows: Vec<Row>) -> Self {
        Self {
            schema,
            rows,
            version: fresh_version(),
        }
    }

    /// The table's content version: a process-globally unique, monotone
    /// value drawn at construction and refreshed on every mutation
    /// ([`Table::push`], the crate-internal `bump_version`). The session
    /// caches key
    /// built spatial indexes and groupings on it, so any content change
    /// invalidates them without scanning the data.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Refreshes the content version after an out-of-band mutation.
    pub(crate) fn bump_version(&mut self) {
        self.version = fresh_version();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends one row, validating its width.
    pub fn push(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::Eval(format!(
                "row width {} does not match schema width {}",
                row.len(),
                self.schema.len()
            )));
        }
        self.rows.push(row);
        self.version = fresh_version();
        Ok(())
    }

    /// The single value of a 1×1 result (convenient in tests).
    pub fn scalar(&self) -> Result<&Value> {
        if self.rows.len() == 1 && self.schema.len() == 1 {
            Ok(&self.rows[0][0])
        } else {
            Err(Error::Eval(format!(
                "expected a 1x1 result, got {}x{}",
                self.rows.len(),
                self.schema.len()
            )))
        }
    }

    /// All values of one column (by index).
    pub fn column(&self, idx: usize) -> Vec<Value> {
        self.rows.iter().map(|r| r[idx].clone()).collect()
    }

    /// Sorts rows lexicographically (stable canonical order for
    /// result comparison in tests). Row order is content for the
    /// similarity operators (record ids follow it), so the version is
    /// refreshed.
    pub fn sorted(mut self) -> Self {
        self.version = fresh_version();
        self.rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = match (x.is_null(), y.is_null()) {
                    (true, true) => std::cmp::Ordering::Equal,
                    (true, false) => std::cmp::Ordering::Less,
                    (false, true) => std::cmp::Ordering::Greater,
                    (false, false) => x.cmp_non_null(y),
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self
    }
}

/// Removes the entries at the given pre-delete indices (out-of-range
/// entries ignored), preserving the survivors' order: a DELETE's rows and
/// each subscription's row-to-slot map.
pub(crate) fn retain_kept<T>(items: &mut Vec<T>, removed: &[usize]) {
    let mut keep = vec![true; items.len()];
    for &i in removed {
        if let Some(k) = keep.get_mut(i) {
            *k = false;
        }
    }
    let mut i = 0;
    items.retain(|_| {
        let kept = keep[i];
        i += 1;
        kept
    });
}

impl fmt::Display for Table {
    /// Pretty-prints an aligned ASCII table (header + rows).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .columns
            .iter()
            .map(|c| c.display_name())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {cell:<w$} |", w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &rendered {
            line(f, row)?;
        }
        write!(f, "({} rows)", self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::new(
            Schema::new(["id", "name"]),
            vec![
                vec![Value::Int(2), Value::from("bob")],
                vec![Value::Int(1), Value::from("ann")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn width_validation() {
        assert!(Table::new(Schema::new(["a"]), vec![vec![Value::Int(1), Value::Int(2)]]).is_err());
        let mut table = Table::empty(Schema::new(["a"]));
        assert!(table.push(vec![Value::Int(1)]).is_ok());
        assert!(table.push(vec![]).is_err());
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn scalar_extraction() {
        let one = Table::new(Schema::new(["n"]), vec![vec![Value::Int(7)]]).unwrap();
        assert_eq!(one.scalar().unwrap(), &Value::Int(7));
        assert!(t().scalar().is_err());
    }

    #[test]
    fn sorted_orders_rows() {
        let sorted = t().sorted();
        assert_eq!(sorted.rows[0][0], Value::Int(1));
        assert_eq!(sorted.rows[1][0], Value::Int(2));
    }

    #[test]
    fn column_projection() {
        assert_eq!(t().column(1), vec![Value::from("bob"), Value::from("ann")]);
    }

    #[test]
    fn display_renders_header_and_rows() {
        let s = t().to_string();
        assert!(s.contains("| id | name |"), "got:\n{s}");
        assert!(s.contains("| 2  | bob  |"), "got:\n{s}");
        assert!(s.ends_with("(2 rows)"), "got:\n{s}");
    }

    #[test]
    fn versions_are_unique_and_bump_on_mutation() {
        let mut a = Table::empty(Schema::new(["x"]));
        let b = Table::empty(Schema::new(["x"]));
        assert_ne!(a.version(), b.version(), "fresh tables get fresh versions");
        assert_eq!(a, b, "equality ignores the version");
        let v0 = a.version();
        a.push(vec![Value::Int(1)]).unwrap();
        assert_ne!(a.version(), v0, "push refreshes the version");
        let v1 = a.version();
        let clone = a.clone();
        assert_eq!(clone.version(), v1, "clones share content and version");
        a.bump_version();
        assert_ne!(a.version(), v1);
    }

    #[test]
    fn sorted_puts_nulls_first() {
        let table = Table::new(
            Schema::new(["x"]),
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(0)]],
        )
        .unwrap()
        .sorted();
        assert!(table.rows[0][0].is_null());
        assert_eq!(table.rows[1][0], Value::Int(0));
    }
}
