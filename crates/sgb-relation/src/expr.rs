//! Bound (executable) expressions.
//!
//! The SQL parser produces name-based ASTs (`crate::sql::ast::Expr`); the
//! planner *binds* them against an input schema, resolving column references
//! to positions and materialising uncorrelated `IN (SELECT …)` subqueries
//! into hash sets. The result is a [`BoundExpr`] evaluable against a row.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::Value;

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// The SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// An expression bound to a concrete input row layout.
#[derive(Clone, Debug)]
pub enum BoundExpr {
    /// Constant.
    Literal(Value),
    /// Input column by position.
    Column(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Arithmetic negation.
    Neg(Box<BoundExpr>),
    /// Logical negation (three-valued).
    Not(Box<BoundExpr>),
    /// `expr [NOT] IN (set)` — the set comes from a list literal or a
    /// materialised uncorrelated subquery.
    InSet {
        /// Probe expression.
        expr: Box<BoundExpr>,
        /// Materialised membership set (shared: subqueries run once).
        set: Arc<HashSet<Value>>,
        /// `NOT IN` when true.
        negated: bool,
    },
}

/// A row as an expression reads it: one slice of cells, or the rows a join
/// matched, side by side, read in place instead of copied into one row.
pub(crate) trait RowView {
    /// The cell in column `i`, or `None` past the row's end.
    fn cell(&self, i: usize) -> Option<&Value>;
}

impl RowView for [Value] {
    fn cell(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }
}

/// A join's output row: its inputs' rows, left to right.
impl RowView for [&[Value]] {
    fn cell(&self, mut i: usize) -> Option<&Value> {
        for part in self {
            match part.get(i) {
                Some(v) => return Some(v),
                None => i -= part.len(),
            }
        }
        None
    }
}

impl BoundExpr {
    /// Evaluates against a row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        self.eval_in(row)
    }

    /// Evaluates as a predicate: `true` only for a definite SQL TRUE
    /// (NULL filters out, per WHERE semantics).
    pub fn eval_predicate(&self, row: &[Value]) -> Result<bool> {
        self.eval_predicate_in(row)
    }

    /// [`BoundExpr::eval`] over any row view.
    pub(crate) fn eval_in<R: RowView + ?Sized>(&self, row: &R) -> Result<Value> {
        match self {
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Column(i) => row
                .cell(*i)
                .cloned()
                .ok_or_else(|| Error::Eval(format!("column index {i} out of bounds"))),
            BoundExpr::Binary { op, left, right } => {
                let arith = |sym| left.operand(row)?.arith(sym, &*right.operand(row)?);
                // SQL comparison: NULL when either side is NULL.
                let compare = |holds: fn(Ordering) -> bool| {
                    let (l, r) = (left.operand(row)?, right.operand(row)?);
                    Ok(if l.is_null() || r.is_null() {
                        Value::Null
                    } else {
                        Value::Bool(holds(l.cmp_non_null(&r)))
                    })
                };
                match op {
                    // Short-circuit three-valued AND/OR.
                    BinOp::And => {
                        let l = left.eval_in(row)?.as_bool();
                        if l == Some(false) {
                            return Ok(Value::Bool(false));
                        }
                        Ok(match (l, right.eval_in(row)?.as_bool()) {
                            (_, Some(false)) => Value::Bool(false),
                            (Some(true), Some(true)) => Value::Bool(true),
                            _ => Value::Null,
                        })
                    }
                    BinOp::Or => {
                        let l = left.eval_in(row)?.as_bool();
                        if l == Some(true) {
                            return Ok(Value::Bool(true));
                        }
                        Ok(match (l, right.eval_in(row)?.as_bool()) {
                            (_, Some(true)) => Value::Bool(true),
                            (Some(false), Some(false)) => Value::Bool(false),
                            _ => Value::Null,
                        })
                    }
                    BinOp::Add => arith('+'),
                    BinOp::Sub => arith('-'),
                    BinOp::Mul => arith('*'),
                    BinOp::Div => arith('/'),
                    BinOp::Eq => compare(Ordering::is_eq),
                    BinOp::Ne => compare(Ordering::is_ne),
                    BinOp::Lt => compare(Ordering::is_lt),
                    BinOp::Le => compare(Ordering::is_le),
                    BinOp::Gt => compare(Ordering::is_gt),
                    BinOp::Ge => compare(Ordering::is_ge),
                }
            }
            BoundExpr::Neg(inner) => match inner.eval_in(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                other => Err(Error::Eval(format!("cannot negate {other}"))),
            },
            BoundExpr::Not(inner) => Ok(match inner.eval_in(row)?.as_bool() {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            }),
            BoundExpr::InSet { expr, set, negated } => {
                let probe = expr.operand(row)?;
                if probe.is_null() {
                    return Ok(Value::Null);
                }
                let hit = set.contains(&*probe);
                Ok(Value::Bool(hit != *negated))
            }
        }
    }

    /// [`BoundExpr::eval_predicate`] over any row view.
    pub(crate) fn eval_predicate_in<R: RowView + ?Sized>(&self, row: &R) -> Result<bool> {
        Ok(self.eval_in(row)?.as_bool() == Some(true))
    }

    /// An operand's value: a column or literal read in place, anything else
    /// evaluated. Comparisons and set probes read cells without cloning them.
    fn operand<'r, R: RowView + ?Sized>(&'r self, row: &'r R) -> Result<Cow<'r, Value>> {
        match self {
            BoundExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            BoundExpr::Column(i) => row
                .cell(*i)
                .map(Cow::Borrowed)
                .ok_or_else(|| Error::Eval(format!("column index {i} out of bounds"))),
            _ => self.eval_in(row).map(Cow::Owned),
        }
    }

    /// Collects the input column indices this expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            BoundExpr::Literal(_) => {}
            BoundExpr::Column(i) => out.push(*i),
            BoundExpr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            BoundExpr::Neg(e) | BoundExpr::Not(e) => e.referenced_columns(out),
            BoundExpr::InSet { expr, .. } => expr.referenced_columns(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column(i)
    }

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic_over_row() {
        let row = vec![Value::Int(10), Value::Float(2.5)];
        let e = bin(BinOp::Mul, col(0), bin(BinOp::Add, col(1), lit(0.5)));
        assert_eq!(e.eval(&row).unwrap(), Value::Float(30.0));
    }

    #[test]
    fn comparisons_and_null() {
        let row = vec![Value::Int(5), Value::Null];
        assert_eq!(
            bin(BinOp::Gt, col(0), lit(3i64)).eval(&row).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(BinOp::Eq, col(0), col(1)).eval(&row).unwrap(),
            Value::Null
        );
        assert!(!bin(BinOp::Eq, col(0), col(1)).eval_predicate(&row).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let row = vec![Value::Null];
        let null_cmp = bin(BinOp::Eq, col(0), lit(1i64)); // NULL
                                                          // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
        assert_eq!(
            bin(BinOp::And, null_cmp.clone(), lit(false))
                .eval(&row)
                .unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            bin(BinOp::Or, null_cmp.clone(), lit(true))
                .eval(&row)
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(BinOp::And, null_cmp.clone(), lit(true))
                .eval(&row)
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            BoundExpr::Not(Box::new(null_cmp)).eval(&row).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn short_circuit_skips_errors() {
        // FALSE AND (1/0 = 1) must not error.
        let explode = bin(BinOp::Eq, bin(BinOp::Div, lit(1i64), lit(0i64)), lit(1i64));
        let e = bin(BinOp::And, lit(false), explode);
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn in_set_membership() {
        let set: HashSet<Value> = [Value::Int(1), Value::Int(3)].into_iter().collect();
        let set = Arc::new(set);
        let e = BoundExpr::InSet {
            expr: Box::new(col(0)),
            set: set.clone(),
            negated: false,
        };
        assert_eq!(e.eval(&[Value::Int(3)]).unwrap(), Value::Bool(true));
        assert_eq!(e.eval(&[Value::Int(2)]).unwrap(), Value::Bool(false));
        assert_eq!(e.eval(&[Value::Null]).unwrap(), Value::Null);
        let not_in = BoundExpr::InSet {
            expr: Box::new(col(0)),
            set,
            negated: true,
        };
        assert_eq!(not_in.eval(&[Value::Int(2)]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn negation() {
        assert_eq!(
            BoundExpr::Neg(Box::new(lit(3i64))).eval(&[]).unwrap(),
            Value::Int(-3)
        );
        assert_eq!(
            BoundExpr::Neg(Box::new(lit(2.5))).eval(&[]).unwrap(),
            Value::Float(-2.5)
        );
        assert!(BoundExpr::Neg(Box::new(lit("x"))).eval(&[]).is_err());
    }

    #[test]
    fn referenced_columns_collects_all() {
        let e = bin(BinOp::Add, col(2), bin(BinOp::Mul, col(0), col(2)));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols, vec![0, 2]);
    }
}
