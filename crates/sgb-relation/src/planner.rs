//! Query planner: binds a parsed AST against the catalog and lowers it into
//! a [`Plan`] tree.
//!
//! The planner applies the textbook rewrites that, per the paper
//! (Section 2), carry over to similarity group-by untouched:
//! *predicate pushdown* (single-table conjuncts filter before the join) and
//! *equi-join extraction* (WHERE `a = b` conjuncts across inputs become
//! hash joins instead of filtered cartesian products). Uncorrelated
//! `IN (SELECT …)` subqueries are materialised once at plan time.
#![deny(clippy::unwrap_used)]

use std::collections::HashSet;
use std::sync::Arc;

use sgb_core::query::DEFAULT_RTREE_FANOUT;
use sgb_core::{Algorithm, AnyAlgorithm, AroundAlgorithm};

use crate::cache::slot_key;
use crate::engine::Database;
use crate::error::{Error, Result};
use crate::exec::execute;
use crate::expr::{BinOp, BoundExpr};
use crate::plan::{AggCall, AggKind, IndexCacheStatus, Plan, SgbMode};
use crate::schema::{Column, Schema};
use crate::sql::ast::{Expr, GroupBy, Select, SelectItem, TableRef};
use crate::subscription::QueryKey;
use crate::value::Value;

/// Plans one SELECT statement against `db`.
pub fn plan_select(db: &Database, stmt: &Select) -> Result<Plan> {
    Planner { db }.select(stmt)
}

/// Binds a constant expression (no input columns) — used for INSERT row
/// literals; subqueries and arithmetic still work.
pub(crate) fn plan_const(db: &Database, expr: &Expr) -> Result<BoundExpr> {
    Planner { db }.bind(expr, &Schema::default())
}

/// Binds a scalar predicate against a table schema — used for the DELETE
/// row filter; uncorrelated `IN (SELECT …)` subqueries still materialise
/// at bind time, exactly as in a WHERE clause.
pub(crate) fn plan_predicate(db: &Database, schema: &Schema, expr: &Expr) -> Result<BoundExpr> {
    Planner { db }.bind(expr, schema)
}

struct Planner<'a> {
    db: &'a Database,
}

impl<'a> Planner<'a> {
    // -- top level -----------------------------------------------------------

    fn select(&self, stmt: &Select) -> Result<Plan> {
        if stmt.from.is_empty() {
            return Err(Error::Unsupported("FROM clause is required".into()));
        }

        // 1. Plan the FROM items.
        let mut inputs: Vec<Plan> = Vec::with_capacity(stmt.from.len());
        for item in &stmt.from {
            inputs.push(self.table_ref(item)?);
        }

        // 2. Split WHERE into conjuncts; push single-input ones down.
        let mut conjuncts: Vec<Option<Expr>> = Vec::new();
        if let Some(w) = &stmt.where_clause {
            let mut flat = Vec::new();
            split_conjuncts(w, &mut flat);
            conjuncts = flat.into_iter().map(Some).collect();
        }
        for slot in conjuncts.iter_mut() {
            let Some(c) = slot.as_ref() else { continue };
            let homes: Vec<usize> = inputs
                .iter()
                .enumerate()
                .filter(|(_, p)| self.resolvable(p.schema(), c))
                .map(|(i, _)| i)
                .collect();
            // Exactly one input can evaluate it, and it actually reads
            // columns: filter that input before joining.
            if homes.len() == 1 && has_column_refs(c) {
                let home = homes[0];
                let predicate = self.bind(c, inputs[home].schema())?;
                let input = std::mem::replace(
                    &mut inputs[home],
                    Plan::Scan {
                        table: String::new(),
                        schema: Schema::default(),
                    },
                );
                inputs[home] = Plan::Filter {
                    input: Box::new(input),
                    predicate,
                };
                *slot = None;
            }
        }

        // 3. Join the inputs left-deep, preferring hash joins over
        //    extracted equi-conjuncts, falling back to cross joins.
        let mut acc = inputs.remove(0);
        while !inputs.is_empty() {
            let mut pick: Option<(usize, Vec<usize>)> = None;
            'candidates: for (i, cand) in inputs.iter().enumerate() {
                let mut used = Vec::new();
                for (ci, slot) in conjuncts.iter().enumerate() {
                    let Some(c) = slot else { continue };
                    if self.equi_key(acc.schema(), cand.schema(), c).is_some() {
                        used.push(ci);
                    }
                }
                if !used.is_empty() {
                    pick = Some((i, used));
                    break 'candidates;
                }
            }
            match pick {
                Some((i, used)) => {
                    let cand = inputs.remove(i);
                    let mut left_keys = Vec::new();
                    let mut right_keys = Vec::new();
                    for ci in used {
                        let Some(c) = conjuncts[ci].take() else {
                            continue;
                        };
                        let (l, r) = self
                            .equi_key(acc.schema(), cand.schema(), &c)
                            .expect("re-check of equi key");
                        left_keys.push(self.bind(l, acc.schema())?);
                        right_keys.push(self.bind(r, cand.schema())?);
                    }
                    let schema = acc.schema().join(cand.schema());
                    acc = Plan::HashJoin {
                        left: Box::new(acc),
                        right: Box::new(cand),
                        left_keys,
                        right_keys,
                        schema,
                    };
                }
                None => {
                    let cand = inputs.remove(0);
                    let schema = acc.schema().join(cand.schema());
                    acc = Plan::CrossJoin {
                        left: Box::new(acc),
                        right: Box::new(cand),
                        schema,
                    };
                }
            }
        }

        // 4. Remaining conjuncts filter the joined relation.
        for slot in conjuncts.iter_mut() {
            if let Some(c) = slot.take() {
                let predicate = self.bind(&c, acc.schema())?;
                acc = Plan::Filter {
                    input: Box::new(acc),
                    predicate,
                };
            }
        }

        // 5. Grouping / projection.
        let has_aggs = stmt.items.iter().any(|it| match it {
            SelectItem::Expr { expr, .. } => expr_has_agg(expr),
            SelectItem::Wildcard => false,
        }) || stmt.having.as_ref().is_some_and(expr_has_agg);

        acc = match (&stmt.group_by, has_aggs) {
            (Some(GroupBy::Standard(keys)), _) => {
                self.build_hash_aggregate(acc, keys.clone(), stmt)?
            }
            (
                Some(GroupBy::SimilarityAll {
                    exprs,
                    metric,
                    eps,
                    overlap,
                }),
                _,
            ) => {
                // Resolve `Auto` at plan time from the estimated input
                // cardinality so EXPLAIN shows the path execution takes,
                // under the session options the plan was built with.
                let n = estimate_rows(&acc, self.db);
                let configured = self.db.session().all_algorithm;
                let (resolved, selection) =
                    sgb_core::cost::resolve_all(configured.for_all(), n, exprs.len());
                let mode = SgbMode::All {
                    eps: *eps,
                    metric: *metric,
                    overlap: *overlap,
                    algorithm: resolved.into(),
                    seed: self.db.session().seed,
                    threads: sgb_core::cost::threads_for_all().0,
                    selection: session_selection(configured, selection),
                    // SGB-All's index tracks the *live groups*, which only
                    // exist mid-run — never shareable across queries.
                    index: IndexCacheStatus::NotApplicable,
                };
                self.build_similarity(acc, exprs, mode, stmt)?
            }
            (Some(GroupBy::SimilarityAny { exprs, metric, eps }), _) => {
                let n = estimate_rows(&acc, self.db);
                let configured = self.db.session().any_algorithm;
                let base = configured.for_any().ok_or_else(|| {
                    Error::Unsupported(format!(
                        "session algorithm {configured} is not an execution path of \
                         DISTANCE-TO-ANY (valid: Auto, AllPairs, Indexed, Grid)"
                    ))
                })?;
                // Probe the session cache (read-only) when the operator
                // reads a base table directly — only then does the cached,
                // version-scoped index describe this node's input — so
                // `Auto` can account for a zero-build-cost index and
                // EXPLAIN can report the cache disposition.
                let probe = self.cache_probe(&acc, exprs)?;
                let cached_grid = probe.as_ref().is_some_and(|p| {
                    self.db
                        .caches()
                        .has_usable_grid(&p.table, &p.coords_key, p.version, *eps)
                });
                let cached_tree = probe.as_ref().is_some_and(|p| {
                    self.db.caches().has_tree(
                        &p.table,
                        &p.coords_key,
                        p.version,
                        DEFAULT_RTREE_FANOUT,
                    )
                });
                // Resolve under the session's memory budget: when the
                // budget rules out building the ε-grid (or the R-tree),
                // `Auto` degrades to the streaming scan and EXPLAIN
                // records why; a session-pinned `Grid` / `Indexed` fails
                // here with `BudgetExceeded`. Version-fresh cached
                // structures cost no new memory and are always admitted.
                let governor = self.db.statement_governor();
                let (resolved, selection) = sgb_core::cost::resolve_any(
                    base,
                    n,
                    exprs.len(),
                    cached_grid,
                    cached_tree,
                    &governor,
                )?;
                let (threads, _) =
                    sgb_core::cost::threads_for_any(resolved, self.db.session().threads, n);
                let index = match resolved {
                    AnyAlgorithm::AllPairs => IndexCacheStatus::NotApplicable,
                    _ if !self.db.session().cache => IndexCacheStatus::Disabled,
                    AnyAlgorithm::Grid if cached_grid => IndexCacheStatus::Hit,
                    AnyAlgorithm::Indexed if cached_tree => IndexCacheStatus::Hit,
                    _ => IndexCacheStatus::Built,
                };
                let mode = SgbMode::Any {
                    eps: *eps,
                    metric: *metric,
                    algorithm: resolved.into(),
                    threads,
                    selection: session_selection(configured, selection),
                    index,
                };
                self.build_similarity(acc, exprs, mode, stmt)?
            }
            (
                Some(GroupBy::SimilarityAround {
                    exprs,
                    centers,
                    metric,
                    radius,
                }),
                _,
            ) => self.build_around(acc, exprs, centers, *metric, *radius, stmt)?,
            (None, true) => self.build_hash_aggregate(acc, Vec::new(), stmt)?,
            (None, false) => {
                if stmt.having.is_some() {
                    return Err(Error::Unsupported(
                        "HAVING without GROUP BY or aggregates".into(),
                    ));
                }
                self.build_projection(acc, stmt)?
            }
        };

        // 6. ORDER BY, then LIMIT. Keys bind against the output schema;
        //    for plain projections they may instead reference input columns
        //    (`SELECT name FROM t ORDER BY id`), in which case the sort is
        //    planned below the projection.
        if !stmt.order_by.is_empty() {
            let out_schema = acc.schema().clone();
            // A sort key may also repeat a select item verbatim
            // (`ORDER BY count(*)`): match syntactically and sort by that
            // output column.
            let item_position = |e: &Expr| {
                stmt.items
                    .iter()
                    .position(|it| matches!(it, SelectItem::Expr { expr, .. } if expr == e))
            };
            let out_keys: Result<Vec<(BoundExpr, bool)>> = stmt
                .order_by
                .iter()
                .map(|k| {
                    if let Some(i) = item_position(&k.expr) {
                        return Ok((BoundExpr::Column(i), k.desc));
                    }
                    Ok((self.bind(&k.expr, &out_schema)?, k.desc))
                })
                .collect();
            match out_keys {
                Ok(keys) => {
                    acc = Plan::Sort {
                        input: Box::new(acc),
                        keys,
                    };
                }
                Err(out_err) => {
                    let Plan::Project {
                        input,
                        exprs,
                        schema,
                    } = acc
                    else {
                        return Err(out_err);
                    };
                    let in_schema = input.schema().clone();
                    let mut keys = Vec::new();
                    for k in &stmt.order_by {
                        let bound = self
                            .bind(&k.expr, &in_schema)
                            .map_err(|_| out_err.clone())?;
                        keys.push((bound, k.desc));
                    }
                    acc = Plan::Project {
                        input: Box::new(Plan::Sort { input, keys }),
                        exprs,
                        schema,
                    };
                }
            }
        }
        if let Some(n) = stmt.limit {
            acc = Plan::Limit {
                input: Box::new(acc),
                n,
            };
        }
        Ok(acc)
    }

    fn table_ref(&self, item: &TableRef) -> Result<Plan> {
        match item {
            TableRef::Named { name, alias } => {
                let table = self.db.table(name)?;
                let binding = alias.as_deref().unwrap_or(name);
                Ok(Plan::Scan {
                    table: name.clone(),
                    schema: table.schema.clone().with_qualifier(binding),
                })
            }
            TableRef::Subquery { query, alias } => {
                let inner = self.select(query)?;
                let schema = inner.schema().clone().with_qualifier(alias);
                // Re-qualification is a zero-cost projection: reuse the
                // inner plan and only swap the schema via Project identity.
                let exprs = (0..schema.len()).map(BoundExpr::Column).collect();
                Ok(Plan::Project {
                    input: Box::new(inner),
                    exprs,
                    schema,
                })
            }
        }
    }

    // -- grouping -------------------------------------------------------------

    fn build_hash_aggregate(&self, input: Plan, keys: Vec<Expr>, stmt: &Select) -> Result<Plan> {
        let input_schema = input.schema().clone();
        let mut group_exprs = Vec::new();
        for k in &keys {
            group_exprs.push(self.bind(k, &input_schema)?);
        }
        let mut ctx = AggContext {
            group_asts: keys,
            aggs: Vec::new(),
            agg_asts: Vec::new(),
            sgb: false,
        };
        let (outputs, schema) = self.rewrite_outputs(stmt, &mut ctx, &input_schema)?;
        let having = match &stmt.having {
            Some(h) => Some(self.rewrite_agg(h, &mut ctx, &input_schema)?),
            None => None,
        };
        Ok(Plan::HashAggregate {
            input: Box::new(input),
            group_exprs,
            aggs: ctx.aggs,
            having,
            outputs,
            schema,
        })
    }

    fn build_similarity(
        &self,
        input: Plan,
        grouping: &[Expr],
        mode: SgbMode,
        stmt: &Select,
    ) -> Result<Plan> {
        debug_assert!((2..=3).contains(&grouping.len()), "checked by the parser");
        let input_schema = input.schema().clone();
        let coords: Vec<BoundExpr> = grouping
            .iter()
            .map(|g| self.bind(g, &input_schema))
            .collect::<Result<_>>()?;
        let mut ctx = AggContext {
            group_asts: Vec::new(),
            aggs: Vec::new(),
            agg_asts: Vec::new(),
            sgb: true,
        };
        let (outputs, schema) = self.rewrite_outputs(stmt, &mut ctx, &input_schema)?;
        let having = match &stmt.having {
            Some(h) => Some(self.rewrite_agg(h, &mut ctx, &input_schema)?),
            None => None,
        };
        let snapshot = self.subscription_probe(&input, &coords, &QueryKey::from_sgb_mode(&mode));
        Ok(Plan::SimilarityGroupBy {
            input: Box::new(input),
            coords,
            mode,
            snapshot,
            aggs: ctx.aggs,
            having,
            outputs,
            schema,
        })
    }

    /// Lowers the SGB-Around clause: binds the grouping coordinates and the
    /// grouped select list exactly like [`build_similarity`](Self::build_similarity),
    /// but emits the dedicated [`Plan::SimilarityAround`] node (the centers
    /// are plan constants, validated by the parser).
    fn build_around(
        &self,
        input: Plan,
        grouping: &[Expr],
        centers: &[Vec<f64>],
        metric: sgb_geom::Metric,
        radius: Option<f64>,
        stmt: &Select,
    ) -> Result<Plan> {
        debug_assert!((2..=3).contains(&grouping.len()), "checked by the parser");
        debug_assert!(
            centers.iter().all(|c| c.len() == grouping.len()),
            "checked by the parser"
        );
        let input_schema = input.schema().clone();
        let coords: Vec<BoundExpr> = grouping
            .iter()
            .map(|g| self.bind(g, &input_schema))
            .collect::<Result<_>>()?;
        let mut ctx = AggContext {
            group_asts: Vec::new(),
            aggs: Vec::new(),
            agg_asts: Vec::new(),
            sgb: true,
        };
        let (outputs, schema) = self.rewrite_outputs(stmt, &mut ctx, &input_schema)?;
        let having = match &stmt.having {
            Some(h) => Some(self.rewrite_agg(h, &mut ctx, &input_schema)?),
            None => None,
        };
        // `Auto` resolves from the center count (the quantity the
        // per-tuple cost depends on); the reason lands in EXPLAIN. A
        // cached center index (version-free: it is built from the query's
        // centers, never the table) has zero build cost, so `Auto`
        // prefers it below the cold crossover.
        let configured = self.db.session().around_algorithm;
        let base = configured.for_around().ok_or_else(|| {
            Error::Unsupported(format!(
                "session algorithm {configured} is not an execution path of \
                 AROUND (valid: Auto, AllPairs, Indexed, Grid)"
            ))
        })?;
        let probe = bare_scan_table(&input)
            .filter(|_| self.db.session().cache)
            .map(|t| (t.to_ascii_lowercase(), slot_key(&coords)));
        let cached = probe.as_ref().and_then(|(table, coords_key)| {
            self.db.caches().cached_center_algorithm(
                table,
                coords_key,
                centers,
                DEFAULT_RTREE_FANOUT,
            )
        });
        // Resolve under the session's memory budget, mirroring SGB-Any:
        // a budget that rules out the center index degrades `Auto` to the
        // brute scan (EXPLAIN records why) and fails a session-pinned
        // `Indexed` / `Grid` with `BudgetExceeded`; a cached center index
        // costs no new memory and is always admitted.
        let governor = self.db.statement_governor();
        let (resolved, selection) =
            sgb_core::cost::resolve_around(base, centers.len(), grouping.len(), cached, &governor)?;
        let (threads, _) = sgb_core::cost::threads_for_around(
            self.db.session().threads,
            estimate_rows(&input, self.db),
        );
        let index = match resolved {
            AroundAlgorithm::BruteForce => IndexCacheStatus::NotApplicable,
            _ if !self.db.session().cache => IndexCacheStatus::Disabled,
            concrete
                if probe.as_ref().is_some_and(|(table, coords_key)| {
                    self.db.caches().has_center_index(
                        table,
                        coords_key,
                        concrete,
                        centers,
                        DEFAULT_RTREE_FANOUT,
                    )
                }) =>
            {
                IndexCacheStatus::Hit
            }
            _ => IndexCacheStatus::Built,
        };
        let snapshot =
            self.subscription_probe(&input, &coords, &QueryKey::around(centers, metric, radius));
        Ok(Plan::SimilarityAround {
            input: Box::new(input),
            coords,
            centers: centers.to_vec(),
            metric,
            radius,
            algorithm: resolved.into(),
            threads,
            selection: session_selection(configured, selection),
            index,
            snapshot,
            aggs: ctx.aggs,
            having,
            outputs,
            schema,
        })
    }

    /// Rewrites the select list of a grouped query into expressions over the
    /// aggregate node's internal layout, returning them plus the output
    /// schema.
    fn rewrite_outputs(
        &self,
        stmt: &Select,
        ctx: &mut AggContext,
        input_schema: &Schema,
    ) -> Result<(Vec<BoundExpr>, Schema)> {
        let mut outputs = Vec::new();
        let mut columns = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    return Err(Error::Unsupported(
                        "SELECT * is not valid in a grouped query".into(),
                    ))
                }
                SelectItem::Expr { expr, alias } => {
                    outputs.push(self.rewrite_agg(expr, ctx, input_schema)?);
                    columns.push(Column::new(output_name(expr, alias.as_deref(), i)));
                }
            }
        }
        Ok((outputs, Schema { columns }))
    }

    /// Rewrites one expression of a grouped query against the internal
    /// layout `[group values…, aggregate results…]` (`[aggregates…]` for
    /// similarity grouping).
    fn rewrite_agg(
        &self,
        expr: &Expr,
        ctx: &mut AggContext,
        input_schema: &Schema,
    ) -> Result<BoundExpr> {
        // A select item that syntactically repeats a group expression
        // refers to the group value.
        if !ctx.sgb {
            if let Some(i) = ctx.group_asts.iter().position(|g| g == expr) {
                return Ok(BoundExpr::Column(i));
            }
        }
        match expr {
            Expr::Func { name, args, star } => {
                if let Some(kind) = AggKind::from_name(name) {
                    let kind = if *star && kind == AggKind::Count {
                        AggKind::CountStar
                    } else {
                        kind
                    };
                    let arg = if kind == AggKind::CountStar {
                        if !args.is_empty() {
                            return Err(Error::Parse("count(*) takes no arguments".into()));
                        }
                        None
                    } else {
                        if args.len() != 1 {
                            return Err(Error::Unsupported(format!(
                                "{name} takes exactly one argument"
                            )));
                        }
                        if expr_has_agg(&args[0]) {
                            return Err(Error::Unsupported("nested aggregates".into()));
                        }
                        Some(self.bind(&args[0], input_schema)?)
                    };
                    // Deduplicate identical aggregate calls.
                    let idx = match ctx.agg_asts.iter().position(|a| a == expr) {
                        Some(i) => i,
                        None => {
                            ctx.agg_asts.push(expr.clone());
                            ctx.aggs.push(AggCall { kind, arg });
                            ctx.aggs.len() - 1
                        }
                    };
                    let base = if ctx.sgb { 0 } else { ctx.group_asts.len() };
                    Ok(BoundExpr::Column(base + idx))
                } else {
                    Err(Error::Binding(format!("unknown function '{name}'")))
                }
            }
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Binary { op, left, right } => Ok(BoundExpr::Binary {
                op: *op,
                left: Box::new(self.rewrite_agg(left, ctx, input_schema)?),
                right: Box::new(self.rewrite_agg(right, ctx, input_schema)?),
            }),
            Expr::Neg(e) => Ok(BoundExpr::Neg(Box::new(self.rewrite_agg(
                e,
                ctx,
                input_schema,
            )?))),
            Expr::Not(e) => Ok(BoundExpr::Not(Box::new(self.rewrite_agg(
                e,
                ctx,
                input_schema,
            )?))),
            Expr::Column { qualifier, name } => {
                let what = if ctx.sgb {
                    "similarity-grouped queries can only select aggregates"
                } else {
                    "column must appear in GROUP BY or inside an aggregate"
                };
                let full = match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.clone(),
                };
                Err(Error::Binding(format!("{what}: '{full}'")))
            }
            Expr::InSubquery { .. } | Expr::InList { .. } => Err(Error::Unsupported(
                "IN predicates are not supported in grouped select lists".into(),
            )),
        }
    }

    // -- projection (non-aggregated) -----------------------------------------

    fn build_projection(&self, input: Plan, stmt: &Select) -> Result<Plan> {
        let input_schema = input.schema().clone();
        let mut exprs = Vec::new();
        let mut columns = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for (ci, col) in input_schema.columns.iter().enumerate() {
                        exprs.push(BoundExpr::Column(ci));
                        columns.push(col.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    exprs.push(self.bind(expr, &input_schema)?);
                    columns.push(Column::new(output_name(expr, alias.as_deref(), i)));
                }
            }
        }
        Ok(Plan::Project {
            input: Box::new(input),
            exprs,
            schema: Schema { columns },
        })
    }

    // -- binding --------------------------------------------------------------

    /// Binds a scalar (aggregate-free) expression against `schema`.
    fn bind(&self, expr: &Expr, schema: &Schema) -> Result<BoundExpr> {
        match expr {
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Column { qualifier, name } => Ok(BoundExpr::Column(
                schema.resolve(qualifier.as_deref(), name)?,
            )),
            Expr::Binary { op, left, right } => Ok(BoundExpr::Binary {
                op: *op,
                left: Box::new(self.bind(left, schema)?),
                right: Box::new(self.bind(right, schema)?),
            }),
            Expr::Neg(e) => Ok(BoundExpr::Neg(Box::new(self.bind(e, schema)?))),
            Expr::Not(e) => Ok(BoundExpr::Not(Box::new(self.bind(e, schema)?))),
            Expr::Func { name, .. } => Err(Error::Binding(format!(
                "aggregate or unknown function '{name}' not allowed here"
            ))),
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                // Uncorrelated subquery: plan and run it once at bind time.
                let plan = self.select(query)?;
                let table = execute(&plan, self.db)?;
                if table.schema.len() != 1 {
                    return Err(Error::Unsupported(format!(
                        "IN subquery must return one column, got {}",
                        table.schema.len()
                    )));
                }
                let set: HashSet<Value> = table
                    .rows
                    .into_iter()
                    .filter_map(|mut r| r.pop())
                    .filter(|v| !v.is_null())
                    .collect();
                Ok(BoundExpr::InSet {
                    expr: Box::new(self.bind(expr, schema)?),
                    set: Arc::new(set),
                    negated: *negated,
                })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let mut set = HashSet::with_capacity(list.len());
                for item in list {
                    let bound = self.bind(item, schema)?;
                    // List items must be constants: evaluate on an empty row.
                    let v = bound.eval(&[]).map_err(|_| {
                        Error::Unsupported("IN list items must be constants".into())
                    })?;
                    if !v.is_null() {
                        set.insert(v);
                    }
                }
                Ok(BoundExpr::InSet {
                    expr: Box::new(self.bind(expr, schema)?),
                    set: Arc::new(set),
                    negated: *negated,
                })
            }
        }
    }

    /// The cache-probe coordinates of a similarity node, when probing
    /// makes sense: the session cache is on and the node reads a base
    /// table directly (only then does the cached, version-scoped index
    /// describe the node's input). Binds the grouping expressions the
    /// same way the node itself will — a binding error here would recur
    /// there, so it propagates.
    fn cache_probe(&self, input: &Plan, exprs: &[Expr]) -> Result<Option<CacheProbe>> {
        if !self.db.session().cache {
            return Ok(None);
        }
        let Some(table) = bare_scan_table(input) else {
            return Ok(None);
        };
        let coords: Vec<BoundExpr> = exprs
            .iter()
            .map(|g| self.bind(g, input.schema()))
            .collect::<Result<_>>()?;
        let version = self.db.table(table)?.version();
        Ok(Some(CacheProbe {
            table: table.to_ascii_lowercase(),
            coords_key: slot_key(&coords),
            version,
        }))
    }

    /// The serve-from-subscription annotation of a similarity node: an
    /// active subscription over the node's base table with the same
    /// grouping attributes and result-relevant operator parameters, whose
    /// published snapshot reflects the table's current version. Read-only
    /// — the executor re-checks freshness at run time, so a stale
    /// annotation (table mutated between plan and execution) only makes
    /// EXPLAIN optimistic, never the result wrong.
    fn subscription_probe(
        &self,
        input: &Plan,
        coords: &[BoundExpr],
        key: &QueryKey,
    ) -> Option<crate::plan::SnapshotInfo> {
        let table = bare_scan_table(input)?;
        let version = self.db.table(table).ok()?.version();
        self.db
            .subscriptions()
            .probe(&table.to_ascii_lowercase(), &slot_key(coords), key, version)
    }

    /// `true` when every column `expr` references resolves in `schema`.
    fn resolvable(&self, schema: &Schema, expr: &Expr) -> bool {
        let mut cols = Vec::new();
        collect_columns(expr, &mut cols);
        cols.iter()
            .all(|(q, n)| schema.resolve(q.as_deref(), n).is_ok())
    }

    /// When `c` is `l = r` with `l` over `left` and `r` over `right`
    /// (either orientation), returns the pair oriented as (left, right).
    fn equi_key<'e>(
        &self,
        left: &Schema,
        right: &Schema,
        c: &'e Expr,
    ) -> Option<(&'e Expr, &'e Expr)> {
        let Expr::Binary {
            op: BinOp::Eq,
            left: l,
            right: r,
        } = c
        else {
            return None;
        };
        if !has_column_refs(l) || !has_column_refs(r) {
            return None;
        }
        if self.resolvable(left, l) && self.resolvable(right, r) {
            Some((l, r))
        } else if self.resolvable(left, r) && self.resolvable(right, l) {
            Some((r, l))
        } else {
            None
        }
    }
}

/// Where a similarity node's cache slot lives: lower-cased table name,
/// coordinate key, and the table's current version.
struct CacheProbe {
    table: String,
    coords_key: String,
    version: u64,
}

/// The table a plan node scans directly, if it is a bare catalog scan
/// (the planner's pushdown briefly uses empty-named `Scan` placeholders;
/// those never qualify).
fn bare_scan_table(plan: &Plan) -> Option<&str> {
    match plan {
        Plan::Scan { table, .. } if !table.is_empty() => Some(table),
        _ => None,
    }
}

/// The selection story a plan records: the cost model's reason when the
/// session left the operator on `Auto`, or an explicit note that the
/// session options pinned the path.
fn session_selection(configured: Algorithm, cost_reason: String) -> String {
    if configured == Algorithm::Auto {
        cost_reason
    } else {
        "pinned by session options".to_owned()
    }
}

struct AggContext {
    group_asts: Vec<Expr>,
    aggs: Vec<AggCall>,
    agg_asts: Vec<Expr>,
    sgb: bool,
}

/// Crude input-cardinality estimate for the cost-based algorithm
/// selection: exact for scans (the catalog knows its row counts), an
/// upper bound through filters/limits/joins. Getting this wrong only
/// costs speed, never correctness — every candidate algorithm produces
/// bit-identical groupings.
fn estimate_rows(plan: &Plan, db: &Database) -> usize {
    match plan {
        Plan::Scan { table, .. } => db.table(table).map(|t| t.rows.len()).unwrap_or(0),
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Sort { input, .. }
        | Plan::HashAggregate { input, .. }
        | Plan::SimilarityGroupBy { input, .. }
        | Plan::SimilarityAround { input, .. } => estimate_rows(input, db),
        Plan::Limit { input, n } => estimate_rows(input, db).min(*n),
        // Joins bound from above: a many-to-many equi-join can emit up to
        // |L| · |R| rows, and under-estimating here is the dangerous
        // direction (it could steer `Auto` onto a quadratic scan path),
        // while over-estimating merely builds an index a bit early.
        Plan::HashJoin { left, right, .. } | Plan::CrossJoin { left, right, .. } => {
            estimate_rows(left, db).saturating_mul(estimate_rows(right, db))
        }
    }
}

/// Splits nested `AND`s into a conjunct list.
fn split_conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary {
        op: BinOp::And,
        left,
        right,
    } = expr
    {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(expr.clone());
    }
}

/// Collects column references (not descending into subqueries, which are
/// uncorrelated and self-contained).
fn collect_columns(expr: &Expr, out: &mut Vec<(Option<String>, String)>) {
    match expr {
        Expr::Column { qualifier, name } => out.push((qualifier.clone(), name.clone())),
        Expr::Binary { left, right, .. } => {
            collect_columns(left, out);
            collect_columns(right, out);
        }
        Expr::Neg(e) | Expr::Not(e) => collect_columns(e, out),
        Expr::Func { args, .. } => {
            for a in args {
                collect_columns(a, out);
            }
        }
        Expr::InSubquery { expr, .. } => collect_columns(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_columns(expr, out);
            for i in list {
                collect_columns(i, out);
            }
        }
        Expr::Literal(_) => {}
    }
}

fn has_column_refs(expr: &Expr) -> bool {
    let mut cols = Vec::new();
    collect_columns(expr, &mut cols);
    !cols.is_empty()
}

/// `true` when the expression contains an aggregate function call.
fn expr_has_agg(expr: &Expr) -> bool {
    match expr {
        Expr::Func { name, .. } => AggKind::from_name(name).is_some(),
        Expr::Binary { left, right, .. } => expr_has_agg(left) || expr_has_agg(right),
        Expr::Neg(e) | Expr::Not(e) => expr_has_agg(e),
        Expr::InSubquery { expr, .. } => expr_has_agg(expr),
        Expr::InList { expr, list, .. } => expr_has_agg(expr) || list.iter().any(expr_has_agg),
        Expr::Column { .. } | Expr::Literal(_) => false,
    }
}

/// Output column name for a select item.
fn output_name(expr: &Expr, alias: Option<&str>, idx: usize) -> String {
    if let Some(a) = alias {
        return a.to_owned();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => name.clone(),
        _ => format!("col{idx}"),
    }
}
