//! Output checks. Each failing check counts one failed statement.

use std::mem::discriminant;

use sgb_relation::{Table, Value};

/// Bit-level cell equality: same variant, and floats with the same bits
/// (`Value`'s own `==` equates `Int(1)` with `Float(1.0)`).
fn same_cell(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => discriminant(a) == discriminant(b) && a == b,
    }
}

/// Whether two results are bit-identical: same column names, same rows
/// in the same order, every cell bit-equal.
pub fn same_bits(a: &Table, b: &Table) -> bool {
    a.schema == b.schema
        && a.rows.len() == b.rows.len()
        && a.rows
            .iter()
            .zip(&b.rows)
            .all(|(ra, rb)| ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| same_cell(x, y)))
}

/// The sum of an all-integer first column (`count(*)`), or `None` when a
/// cell of it is not an integer.
pub fn first_column_sum(t: &Table) -> Option<i64> {
    t.rows.iter().try_fold(0i64, |acc, row| match row.first() {
        Some(Value::Int(c)) => Some(acc + c),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgb_relation::Schema;

    fn table(rows: Vec<Vec<Value>>) -> Table {
        Table::new(Schema::new(["c", "v"]), rows).unwrap()
    }

    #[test]
    fn bit_identity_is_stricter_than_sql_equality() {
        let a = table(vec![vec![Value::Int(2), Value::Float(0.5)]]);
        assert!(same_bits(&a, &a.clone()));
        let int_vs_float = table(vec![vec![Value::Int(2), Value::Int(0)]]);
        assert!(!same_bits(&a, &int_vs_float));
        let zero = table(vec![vec![Value::Int(2), Value::Float(0.0)]]);
        let neg_zero = table(vec![vec![Value::Int(2), Value::Float(-0.0)]]);
        assert!(!same_bits(&zero, &neg_zero));
        let reordered = table(vec![
            vec![Value::Int(1), Value::Float(0.5)],
            vec![Value::Int(2), Value::Float(0.5)],
        ]);
        let mut swapped = reordered.clone();
        swapped.rows.reverse();
        assert!(!same_bits(&reordered, &swapped));
        assert_eq!(first_column_sum(&reordered), Some(3));
        assert_eq!(first_column_sum(&zero), Some(2));
        let text = table(vec![vec![Value::Str("x".into()), Value::Null]]);
        assert_eq!(first_column_sum(&text), None);
    }
}
