//! Parser-level abstract syntax tree.

use sgb_core::OverlapAction;
use sgb_geom::Metric;

use crate::expr::BinOp;
use crate::value::Value;

/// A parsed expression (names unresolved).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Literal constant (numbers, strings, dates, intervals, booleans).
    Literal(Value),
    /// Column reference, optionally qualified.
    Column {
        /// Table / alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Function call — aggregate (`count`, `sum`, `avg`, `min`, `max`,
    /// `array_agg`) or scalar.
    Func {
        /// Lower-cased function name.
        name: String,
        /// Arguments (empty with `star` for `count(*)`).
        args: Vec<Expr>,
        /// `true` for `f(*)`.
        star: bool,
    },
    /// `expr [NOT] IN (SELECT …)` (uncorrelated).
    InSubquery {
        /// Probe expression.
        expr: Box<Expr>,
        /// The subquery.
        query: Box<Select>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList {
        /// Probe expression.
        expr: Box<Expr>,
        /// List items (constant expressions).
        list: Vec<Expr>,
        /// `NOT IN` when true.
        negated: bool,
    },
}

/// A select-list item.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr {
        /// The expression.
        expr: Expr,
        /// Optional output alias.
        alias: Option<String>,
    },
}

/// A FROM-clause item.
#[derive(Clone, Debug, PartialEq)]
pub enum TableRef {
    /// `name [AS alias]`
    Named {
        /// Table name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// `(SELECT …) AS alias`
    Subquery {
        /// The derived table.
        query: Box<Select>,
        /// Mandatory alias.
        alias: String,
    },
}

/// The GROUP BY clause: standard (equality) or one of the paper's two
/// similarity variants (Section 4).
#[derive(Clone, Debug, PartialEq)]
pub enum GroupBy {
    /// Plain `GROUP BY e1, e2, …` — equality grouping.
    Standard(Vec<Expr>),
    /// `GROUP BY x, y DISTANCE-TO-ALL [L1|L2|LINF] WITHIN ε
    ///  ON-OVERLAP [JOIN-ANY|ELIMINATE|FORM-NEW-GROUP]`.
    SimilarityAll {
        /// The two grouping attribute expressions (the multi-dimensional
        /// point).
        exprs: Vec<Expr>,
        /// Distance function.
        metric: Metric,
        /// Similarity threshold ε.
        eps: f64,
        /// Overlap arbitration.
        overlap: OverlapAction,
    },
    /// `GROUP BY x, y DISTANCE-TO-ANY [L1|L2|LINF] WITHIN ε`.
    SimilarityAny {
        /// The grouping attribute expressions.
        exprs: Vec<Expr>,
        /// Distance function.
        metric: Metric,
        /// Similarity threshold ε.
        eps: f64,
    },
    /// `GROUP BY x, y AROUND ((cx, cy), …) [L1|L2|LINF] [WITHIN r]` —
    /// nearest-center grouping around query-supplied seeds.
    SimilarityAround {
        /// The grouping attribute expressions.
        exprs: Vec<Expr>,
        /// Center coordinates; each inner vector has exactly
        /// `exprs.len()` components (enforced by the parser).
        centers: Vec<Vec<f64>>,
        /// Distance function.
        metric: Metric,
        /// Optional maximum radius; tuples farther than this from every
        /// center form the outlier group.
        radius: Option<f64>,
    },
}

/// One ORDER BY key.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// `true` for descending.
    pub desc: bool,
}

/// A parsed SELECT statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Select {
    /// Select list.
    pub items: Vec<SelectItem>,
    /// FROM items (comma-joined).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY clause.
    pub group_by: Option<GroupBy>,
    /// HAVING predicate (may contain aggregates).
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

/// A top-level statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// A query.
    Select(Box<Select>),
    /// `CREATE TABLE name (col type, …)` — types are parsed and discarded
    /// (cells are dynamically typed).
    CreateTable {
        /// Table name.
        name: String,
        /// Column names.
        columns: Vec<String>,
    },
    /// `INSERT INTO name VALUES (…), (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Row literals.
        rows: Vec<Vec<Expr>>,
    },
    /// `DELETE FROM name [WHERE pred]`.
    Delete {
        /// Target table.
        table: String,
        /// Row predicate; `None` deletes every row.
        predicate: Option<Expr>,
    },
    /// `UPDATE name SET col = expr, … [WHERE pred]` — executed as a
    /// delete+insert pair through the incremental-maintenance path.
    Update {
        /// Target table.
        table: String,
        /// `col = expr` assignments, in statement order.
        assignments: Vec<(String, Expr)>,
        /// Row predicate; `None` updates every row.
        predicate: Option<Expr>,
    },
    /// `SET name = value` — a session option (e.g. `STATEMENT_TIMEOUT`).
    SetOption {
        /// Option name (original spelling; matched case-insensitively).
        name: String,
        /// Constant value expression.
        value: Expr,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `EXPLAIN [ANALYZE] SELECT …` — render the physical plan; with
    /// `ANALYZE`, execute the query and annotate every plan node with its
    /// actual elapsed time, output row count, and operator detail.
    Explain {
        /// `true` for `EXPLAIN ANALYZE` (executes the query).
        analyze: bool,
        /// The query being explained.
        query: Box<Select>,
    },
}
