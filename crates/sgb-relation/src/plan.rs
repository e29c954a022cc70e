//! Physical query plans.
//!
//! The planner lowers a parsed [`crate::sql::Select`] into this tree; the
//! executor (`crate::exec`) materialises it bottom-up. The similarity
//! group-by is a *first-class operator node* ([`Plan::SimilarityGroupBy`]),
//! composing with scans, filters, joins and projections exactly as the
//! paper's PostgreSQL integration does (Section 8.2).

use sgb_core::{Algorithm, OverlapAction};
use sgb_geom::Metric;

use crate::expr::BoundExpr;
use crate::schema::Schema;

/// Aggregate function kinds supported by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggKind {
    /// `count(*)` — row count.
    CountStar,
    /// `count(expr)` — non-null count.
    Count,
    /// `sum(expr)`.
    Sum,
    /// `avg(expr)`.
    Avg,
    /// `min(expr)`.
    Min,
    /// `max(expr)`.
    Max,
    /// `array_agg(expr)` — rendered as a `{v1,v2,…}` string.
    ArrayAgg,
}

impl AggKind {
    /// Maps a SQL function name (lower-case) to an aggregate kind.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "count" => Some(AggKind::Count),
            "sum" => Some(AggKind::Sum),
            "avg" => Some(AggKind::Avg),
            "min" => Some(AggKind::Min),
            "max" => Some(AggKind::Max),
            "array_agg" | "list_id" => Some(AggKind::ArrayAgg),
            _ => None,
        }
    }
}

/// One aggregate call: kind plus argument (absent for `count(*)`),
/// bound against the aggregate node's input.
#[derive(Clone, Debug)]
pub struct AggCall {
    /// Aggregate kind.
    pub kind: AggKind,
    /// Argument expression (`None` only for [`AggKind::CountStar`]).
    pub arg: Option<BoundExpr>,
}

/// What the session's index cache will do for a similarity node — resolved
/// at plan time so `EXPLAIN` can report it, and rendered as the trailing
/// `index: …` note of the node's path block.
///
/// The planner only *probes* the cache (read-only); the counters in
/// [`crate::Database::cache_stats`] move when the executor actually
/// fetches or builds the index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexCacheStatus {
    /// A usable cached index exists for the table version — the executor
    /// will reuse it (`index: cached (hit)`).
    Hit,
    /// No usable cached index — the executor builds one and caches it
    /// (`index: built`).
    Built,
    /// The session cache is disabled; the index is built and thrown away
    /// (`index: built (session cache disabled)`).
    Disabled,
    /// The resolved path uses no spatial index at all (`index: none`) —
    /// plain scans, and every SGB-All path (its arbitration is
    /// arrival-order sensitive, so its state is never shareable).
    NotApplicable,
}

impl std::fmt::Display for IndexCacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IndexCacheStatus::Hit => "cached (hit)",
            IndexCacheStatus::Built => "built",
            IndexCacheStatus::Disabled => "built (session cache disabled)",
            IndexCacheStatus::NotApplicable => "none",
        })
    }
}

/// Serve-from-subscription annotation of a similarity node: the planner
/// found an active subscription ([`crate::Database::subscribe`]) whose
/// published snapshot matches the node's table, grouping attributes, and
/// result-relevant operator parameters at the table's current version —
/// the executor serves the grouping from the snapshot instead of
/// recomputing. Rendered by `EXPLAIN` as
/// `snapshot: subscription #id (epoch N)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Session-unique subscription id.
    pub id: usize,
    /// Maintenance epoch of the published snapshot (row deltas applied
    /// since registration).
    pub epoch: u64,
}

impl std::fmt::Display for SnapshotInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "subscription #{} (epoch {})", self.id, self.epoch)
    }
}

/// Parameters of a similarity group-by node.
///
/// The `algorithm` fields carry the **resolved** concrete strategy in the
/// family-wide [`Algorithm`] vocabulary: when the session option is
/// `Auto`, the planner runs the cost model (`sgb_core::cost`) against the
/// estimated input cardinality at plan time, and `selection` records why
/// that path was chosen (or that it was pinned by the session options) —
/// both surface in `EXPLAIN`, telling the same story the core API's
/// `Grouping::resolved_algorithm` does.
#[derive(Clone, Debug)]
pub enum SgbMode {
    /// `DISTANCE-TO-ALL` (clique groups, Section 4.1).
    All {
        /// Threshold ε.
        eps: f64,
        /// Distance function.
        metric: Metric,
        /// Overlap arbitration.
        overlap: OverlapAction,
        /// Search algorithm (resolved — never `Auto`).
        algorithm: Algorithm,
        /// Seed for `JOIN-ANY`.
        seed: u64,
        /// Worker threads the executor will use (always 1: SGB-All's
        /// arbitration is arrival-order sensitive).
        threads: usize,
        /// Why `algorithm` was chosen ("configured explicitly" or the
        /// cost model's reason).
        selection: String,
        /// Cache disposition of the node's spatial index (always
        /// [`IndexCacheStatus::NotApplicable`] for SGB-All).
        index: IndexCacheStatus,
    },
    /// `DISTANCE-TO-ANY` (connected components, Section 4.2).
    Any {
        /// Threshold ε.
        eps: f64,
        /// Distance function.
        metric: Metric,
        /// Search algorithm (resolved — never `Auto`).
        algorithm: Algorithm,
        /// Worker threads the executor will use (resolved at plan time
        /// from the session's `threads` option and the estimated input
        /// cardinality; only the grid path shards, so this is 1 for the
        /// other algorithms).
        threads: usize,
        /// Why `algorithm` was chosen ("configured explicitly" or the
        /// cost model's reason).
        selection: String,
        /// Cache disposition of the node's spatial index.
        index: IndexCacheStatus,
    },
}

/// Per-plan-node actuals collected by an `EXPLAIN ANALYZE` execution:
/// inclusive wall-clock time, output row count, and an optional
/// operator-specific detail string (similarity nodes report group and
/// candidate counts plus the phase breakdown of their query profile).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeStat {
    /// Inclusive elapsed wall-clock nanoseconds (node + its inputs).
    pub elapsed_nanos: u64,
    /// Rows the node produced.
    pub rows: usize,
    /// Operator-specific annotation; empty when the operator has none.
    pub detail: String,
}

/// A physical plan node. Every node knows its output [`Schema`].
#[derive(Clone, Debug)]
pub enum Plan {
    /// Full scan of a catalog table.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Output schema (possibly re-qualified by an alias).
        schema: Schema,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate (kept rows evaluate to SQL TRUE).
        predicate: BoundExpr,
    },
    /// Expression projection.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output expressions.
        exprs: Vec<BoundExpr>,
        /// Output schema.
        schema: Schema,
    },
    /// Inner equi-join (hash build on the right input).
    HashJoin {
        /// Left (probe) input.
        left: Box<Plan>,
        /// Right (build) input.
        right: Box<Plan>,
        /// Key expressions over the left schema.
        left_keys: Vec<BoundExpr>,
        /// Key expressions over the right schema.
        right_keys: Vec<BoundExpr>,
        /// Concatenated output schema.
        schema: Schema,
    },
    /// Cartesian product (fallback when no equi-key connects the inputs).
    CrossJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Concatenated output schema.
        schema: Schema,
    },
    /// Standard (equality) hash aggregation.
    ///
    /// Internal row layout: `[group values…, aggregate results…]`;
    /// `having` and `outputs` are bound against that layout.
    HashAggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Group-key expressions over the input schema.
        group_exprs: Vec<BoundExpr>,
        /// Aggregate calls over the input schema.
        aggs: Vec<AggCall>,
        /// Post-grouping filter over the internal layout.
        having: Option<BoundExpr>,
        /// Output expressions over the internal layout.
        outputs: Vec<BoundExpr>,
        /// Output schema.
        schema: Schema,
    },
    /// Similarity group-by (SGB-All / SGB-Any).
    ///
    /// Internal row layout: `[aggregate results…]` (similarity groups have
    /// no single grouping value); `having` and `outputs` bind against it.
    SimilarityGroupBy {
        /// Input plan.
        input: Box<Plan>,
        /// Coordinates of the grouping point (two or three expressions),
        /// over the input schema.
        coords: Vec<BoundExpr>,
        /// Operator parameters.
        mode: SgbMode,
        /// Set when a fresh subscription snapshot will serve this node.
        snapshot: Option<SnapshotInfo>,
        /// Aggregate calls over the input schema.
        aggs: Vec<AggCall>,
        /// Post-grouping filter over the internal layout.
        having: Option<BoundExpr>,
        /// Output expressions over the internal layout.
        outputs: Vec<BoundExpr>,
        /// Output schema.
        schema: Schema,
    },
    /// SGB-Around: nearest-center grouping around query-supplied seeds.
    ///
    /// Internal row layout: `[aggregate results…]`, as for
    /// [`Plan::SimilarityGroupBy`]. Tuples beyond `radius` (when set) form
    /// a single outlier group, emitted after the center groups.
    SimilarityAround {
        /// Input plan.
        input: Box<Plan>,
        /// Coordinates of the grouping point (two or three expressions),
        /// over the input schema.
        coords: Vec<BoundExpr>,
        /// Center coordinates; inner length equals `coords.len()`.
        centers: Vec<Vec<f64>>,
        /// Distance function.
        metric: Metric,
        /// Optional maximum radius (`WITHIN r`).
        radius: Option<f64>,
        /// Search strategy (resolved — never `Auto`; `AllPairs` is the
        /// brute center scan, `Grid` the center grid).
        algorithm: Algorithm,
        /// Worker threads the executor will use (resolved at plan time;
        /// the nearest-center assignment parallelises on every path).
        threads: usize,
        /// Why `algorithm` was chosen ("configured explicitly" or the
        /// cost model's reason).
        selection: String,
        /// Cache disposition of the node's center grid.
        index: IndexCacheStatus,
        /// Set when a fresh subscription snapshot will serve this node.
        snapshot: Option<SnapshotInfo>,
        /// Aggregate calls over the input schema.
        aggs: Vec<AggCall>,
        /// Post-grouping filter over the internal layout.
        having: Option<BoundExpr>,
        /// Output expressions over the internal layout.
        outputs: Vec<BoundExpr>,
        /// Output schema.
        schema: Schema,
    },
    /// Sort by output expressions.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// `(key expression, descending)` pairs over the input schema.
        keys: Vec<(BoundExpr, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Maximum rows.
        n: usize,
    },
}

impl Plan {
    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            Plan::Scan { schema, .. }
            | Plan::Project { schema, .. }
            | Plan::HashJoin { schema, .. }
            | Plan::CrossJoin { schema, .. }
            | Plan::HashAggregate { schema, .. }
            | Plan::SimilarityGroupBy { schema, .. }
            | Plan::SimilarityAround { schema, .. } => schema,
            Plan::Filter { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
                input.schema()
            }
        }
    }

    /// The node's direct inputs, in executor order (joins: left, right).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => Vec::new(),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::HashAggregate { input, .. }
            | Plan::SimilarityGroupBy { input, .. }
            | Plan::SimilarityAround { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => vec![input],
            Plan::HashJoin { left, right, .. } | Plan::CrossJoin { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Total node count of the subtree rooted here (pre-order size).
    pub(crate) fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// The node's one-line `EXPLAIN` label (no indentation, no newline).
    fn node_label(&self) -> String {
        match self {
            Plan::Scan { table, .. } => format!("Scan {table}"),
            Plan::Filter { .. } => "Filter".to_owned(),
            Plan::Project { exprs, .. } => format!("Project ({} exprs)", exprs.len()),
            Plan::HashJoin { left_keys, .. } => format!("HashJoin ({} keys)", left_keys.len()),
            Plan::CrossJoin { .. } => "CrossJoin".to_owned(),
            Plan::HashAggregate {
                group_exprs, aggs, ..
            } => format!(
                "HashAggregate (groups: {}, aggs: {})",
                group_exprs.len(),
                aggs.len()
            ),
            Plan::SimilarityGroupBy {
                mode,
                snapshot,
                aggs,
                ..
            } => {
                let (desc, path) = match mode {
                    SgbMode::All {
                        eps,
                        metric,
                        overlap,
                        algorithm,
                        threads,
                        selection,
                        index,
                        ..
                    } => (
                        format!(
                            "SGB-All {} WITHIN {eps} ON-OVERLAP {}",
                            metric.sql_keyword(),
                            overlap.sql_keyword()
                        ),
                        format!(
                            "path: {algorithm}, threads: {threads}; {selection}; index: {index}"
                        ),
                    ),
                    SgbMode::Any {
                        eps,
                        metric,
                        algorithm,
                        threads,
                        selection,
                        index,
                    } => (
                        format!("SGB-Any {} WITHIN {eps}", metric.sql_keyword()),
                        format!(
                            "path: {algorithm}, threads: {threads}; {selection}; index: {index}"
                        ),
                    ),
                };
                let path = match snapshot {
                    Some(s) => format!("{path}; snapshot: {s}"),
                    None => path,
                };
                format!("SimilarityGroupBy [{desc}] [{path}] (aggs: {})", aggs.len())
            }
            Plan::SimilarityAround {
                centers,
                metric,
                radius,
                algorithm,
                threads,
                selection,
                index,
                snapshot,
                aggs,
                ..
            } => {
                let bound = match radius {
                    Some(r) => format!(" WITHIN {r}"),
                    None => String::new(),
                };
                let snap = match snapshot {
                    Some(s) => format!("; snapshot: {s}"),
                    None => String::new(),
                };
                format!(
                    "SimilarityAround [{} centers, {}{bound}, path: {algorithm}, \
                     threads: {threads}] [{selection}; index: {index}{snap}] (aggs: {})",
                    centers.len(),
                    metric.sql_keyword(),
                    aggs.len()
                )
            }
            Plan::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
            Plan::Limit { n, .. } => format!("Limit {n}"),
        }
    }

    /// An `EXPLAIN`-style indented tree rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push_str(&self.node_label());
        out.push('\n');
        for child in self.children() {
            child.explain_into(depth + 1, out);
        }
    }

    /// The `EXPLAIN ANALYZE` rendering: the `explain` tree with every
    /// node's actual inclusive time, output row count, and operator
    /// detail appended. `stats` is indexed in pre-order (joins: left
    /// subtree before right), exactly as the executor's instrumented walk
    /// (`exec::execute_with_stats`) fills it.
    pub fn explain_analyze(&self, stats: &[NodeStat]) -> String {
        let mut out = String::new();
        let mut idx = 0;
        self.analyze_into(0, &mut idx, stats, &mut out);
        out
    }

    fn analyze_into(&self, depth: usize, idx: &mut usize, stats: &[NodeStat], out: &mut String) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push_str(&self.node_label());
        if let Some(stat) = stats.get(*idx) {
            let ms = stat.elapsed_nanos as f64 / 1e6;
            out.push_str(&format!(" (actual time: {ms:.3} ms, rows: {}", stat.rows));
            if !stat.detail.is_empty() {
                out.push_str(", ");
                out.push_str(&stat.detail);
            }
            out.push(')');
        }
        out.push('\n');
        *idx += 1;
        for child in self.children() {
            child.analyze_into(depth + 1, idx, stats, out);
        }
    }
}
