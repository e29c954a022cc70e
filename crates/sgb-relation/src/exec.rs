//! Plan executor: materialises a [`Plan`] tree bottom-up.
//!
//! Every statement executes under a [`QueryGovernor`] built from the
//! session options (`Database::statement_governor`): the
//! similarity operators run through the core's governed `try_run` /
//! `try_run_cached` entry points, so a statement that overruns its
//! deadline, gets cancelled, or exceeds the memory budget fails with
//! [`Error::Aborted`] — and fails *cleanly*: no partial grouping enters
//! the session caches, and the database stays fully usable.
#![deny(clippy::unwrap_used)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sgb_core::query::Grouping;
use sgb_core::{Algorithm, QueryGovernor, SgbQuery};
use sgb_geom::Point;
use sgb_telemetry::{Counter, Phase, Telemetry};

use crate::cache::{slot_key, Slot};
use crate::engine::Database;
use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::plan::{AggCall, AggKind, NodeStat, Plan, SgbMode};
use crate::subscription::QueryKey;
use crate::table::{Row, Table};
use crate::value::Value;

/// Executes `plan` against the database catalog, under a statement
/// governor drawn from the session options (deadline, memory budget,
/// session cancel token).
pub fn execute(plan: &Plan, db: &Database) -> Result<Table> {
    // One governor (and thus one deadline) spans the whole plan tree.
    execute_node(plan, db, &db.statement_governor(), 0, None)
}

/// `EXPLAIN ANALYZE` entry point: executes `plan` with per-node actuals
/// collection. The returned stats are indexed in pre-order (node 0 is the
/// root; a join's left subtree precedes its right), matching
/// [`Plan::explain_analyze`]'s walk. Only this instrumented path pays for
/// clock reads and per-query telemetry; plain [`execute`] passes `None`
/// sinks throughout and stays on the zero-cost path.
pub(crate) fn execute_with_stats(
    plan: &Plan,
    db: &Database,
    governor: &QueryGovernor,
) -> Result<(Table, Vec<NodeStat>)> {
    let stats = RefCell::new(vec![NodeStat::default(); plan.node_count()]);
    let table = execute_node(plan, db, governor, 0, Some(&stats))?;
    Ok((table, stats.into_inner()))
}

/// The recursive worker: executes one node (and its inputs), recording
/// inclusive elapsed time and output cardinality into `stats[id]` when a
/// sink is present. `id` is the node's pre-order index within the root
/// plan.
fn execute_node(
    plan: &Plan,
    db: &Database,
    governor: &QueryGovernor,
    id: usize,
    stats: Option<&RefCell<Vec<NodeStat>>>,
) -> Result<Table> {
    let started = stats.map(|_| Instant::now());
    let out = execute_inner(plan, db, governor, id, stats)?;
    if let (Some(stats), Some(started)) = (stats, started) {
        let stat = &mut stats.borrow_mut()[id];
        stat.elapsed_nanos = started.elapsed().as_nanos() as u64;
        stat.rows = out.rows.len();
    }
    Ok(out)
}

fn execute_inner(
    plan: &Plan,
    db: &Database,
    governor: &QueryGovernor,
    id: usize,
    stats: Option<&RefCell<Vec<NodeStat>>>,
) -> Result<Table> {
    let execute = |plan: &Plan, child_id: usize| execute_node(plan, db, governor, child_id, stats);
    match plan {
        Plan::Scan { table, .. } => {
            let t = db.table(table)?;
            Ok(Table::from_parts(plan.schema().clone(), t.rows.clone()))
        }
        Plan::Filter { input, predicate } => {
            let mut t = execute(input, id + 1)?;
            let mut kept = Vec::with_capacity(t.rows.len());
            for row in t.rows.drain(..) {
                if predicate.eval_predicate(&row)? {
                    kept.push(row);
                }
            }
            t.rows = kept;
            Ok(t)
        }
        Plan::Project {
            input,
            exprs,
            schema,
        } => {
            let t = execute(input, id + 1)?;
            let mut rows = Vec::with_capacity(t.rows.len());
            for row in &t.rows {
                let mut out = Vec::with_capacity(exprs.len());
                for e in exprs {
                    out.push(e.eval(row)?);
                }
                rows.push(out);
            }
            Ok(Table::from_parts(schema.clone(), rows))
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            schema,
        } => {
            let l = execute(left, id + 1)?;
            let r = execute(right, id + 1 + left.node_count())?;
            // Build on the right input.
            let mut build: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            'rows: for (i, row) in r.rows.iter().enumerate() {
                let mut key = Vec::with_capacity(right_keys.len());
                for k in right_keys {
                    let v = k.eval(row)?;
                    if v.is_null() {
                        continue 'rows; // NULL keys never join
                    }
                    key.push(v);
                }
                build.entry(key).or_default().push(i);
            }
            let mut rows = Vec::new();
            'probe: for lrow in &l.rows {
                let mut key = Vec::with_capacity(left_keys.len());
                for k in left_keys {
                    let v = k.eval(lrow)?;
                    if v.is_null() {
                        continue 'probe;
                    }
                    key.push(v);
                }
                if let Some(matches) = build.get(&key) {
                    for &ri in matches {
                        let mut out = lrow.clone();
                        out.extend(r.rows[ri].iter().cloned());
                        rows.push(out);
                    }
                }
            }
            Ok(Table::from_parts(schema.clone(), rows))
        }
        Plan::CrossJoin {
            left,
            right,
            schema,
        } => {
            let l = execute(left, id + 1)?;
            let r = execute(right, id + 1 + left.node_count())?;
            let mut rows = Vec::with_capacity(l.rows.len() * r.rows.len());
            for lrow in &l.rows {
                for rrow in &r.rows {
                    let mut out = lrow.clone();
                    out.extend(rrow.iter().cloned());
                    rows.push(out);
                }
            }
            Ok(Table::from_parts(schema.clone(), rows))
        }
        Plan::HashAggregate {
            input,
            group_exprs,
            aggs,
            having,
            outputs,
            schema,
        } => {
            let t = execute(input, id + 1)?;
            // First-seen group order (like PostgreSQL's hash agg output is
            // unordered, but determinism helps tests).
            let mut order: Vec<Vec<Value>> = Vec::new();
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut states: Vec<Vec<AggState>> = Vec::new();
            for row in &t.rows {
                let mut key = Vec::with_capacity(group_exprs.len());
                for g in group_exprs {
                    key.push(g.eval(row)?);
                }
                let slot = match index.get(&key) {
                    Some(&s) => s,
                    None => {
                        index.insert(key.clone(), states.len());
                        order.push(key);
                        states.push(aggs.iter().map(AggState::new).collect());
                        states.len() - 1
                    }
                };
                for (st, call) in states[slot].iter_mut().zip(aggs) {
                    st.update(call, row)?;
                }
            }
            // Global aggregation over empty input still yields one row.
            if group_exprs.is_empty() && states.is_empty() {
                order.push(Vec::new());
                states.push(aggs.iter().map(AggState::new).collect());
            }
            let mut rows = Vec::with_capacity(states.len());
            for (key, st) in order.into_iter().zip(states) {
                let mut internal = key;
                internal.extend(st.into_iter().map(AggState::finish));
                rows.extend(group_output(&internal, having, outputs)?);
            }
            Ok(Table::from_parts(schema.clone(), rows))
        }
        Plan::SimilarityGroupBy {
            input,
            coords,
            aggs,
            having,
            outputs,
            schema,
            ..
        }
        | Plan::SimilarityAround {
            input,
            coords,
            aggs,
            having,
            outputs,
            schema,
            ..
        } => {
            let t = execute(input, id + 1)?;
            // Per-query profile only when an EXPLAIN ANALYZE sink exists:
            // plain execution keeps the inert handle (zero clock reads).
            let tel = if stats.is_some() {
                Telemetry::new()
            } else {
                Telemetry::off()
            };
            let (op, algorithm) = operator_labels(plan)?;
            db.registry().inc(
                "sgb_operator_runs_total",
                &[("operator", op), ("algorithm", &algorithm.to_string())],
                1,
            );
            let grouping = run_similarity(db, plan, input, &t.rows, coords, governor, &tel)?;
            let out = {
                let _agg = tel.phase(Phase::Aggregate);
                aggregate_grouping(&t, &grouping, aggs, having, outputs, schema)
            };
            if let Some(stats) = stats {
                stats.borrow_mut()[id].detail = similarity_detail(&grouping, &tel);
            }
            out
        }
        Plan::Sort { input, keys } => {
            let mut t = execute(input, id + 1)?;
            // Pre-compute sort keys (decorate-sort-undecorate).
            let mut decorated: Vec<(Vec<Value>, Row)> = Vec::with_capacity(t.rows.len());
            for row in t.rows.drain(..) {
                let mut ks = Vec::with_capacity(keys.len());
                for (e, _) in keys {
                    ks.push(e.eval(&row)?);
                }
                decorated.push((ks, row));
            }
            decorated.sort_by(|(a, _), (b, _)| {
                for ((x, y), (_, desc)) in a.iter().zip(b.iter()).zip(keys) {
                    let ord = match (x.is_null(), y.is_null()) {
                        (true, true) => std::cmp::Ordering::Equal,
                        (true, false) => std::cmp::Ordering::Less,
                        (false, true) => std::cmp::Ordering::Greater,
                        (false, false) => x.cmp_non_null(y),
                    };
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            t.rows = decorated.into_iter().map(|(_, r)| r).collect();
            Ok(t)
        }
        Plan::Limit { input, n } => {
            let mut t = execute(input, id + 1)?;
            t.rows.truncate(*n);
            Ok(t)
        }
    }
}

/// Aggregates the rows of each answer group into one output row, applying
/// HAVING and the output expressions over the internal `[aggregates…]`
/// layout — shared by the similarity group-by plan nodes. The iteration
/// uses the relational output shape ([`Grouping::output_groups`]): answer
/// groups first, then — for radius-bounded AROUND — the outlier group.
fn aggregate_grouping(
    t: &Table,
    grouping: &Grouping,
    aggs: &[AggCall],
    having: &Option<BoundExpr>,
    outputs: &[BoundExpr],
    schema: &crate::schema::Schema,
) -> Result<Table> {
    let mut rows = Vec::with_capacity(grouping.num_groups() + 1);
    for members in grouping.output_groups() {
        let mut st: Vec<AggState> = aggs.iter().map(AggState::new).collect();
        for &r in members {
            for (s, call) in st.iter_mut().zip(aggs) {
                s.update(call, &t.rows[r])?;
            }
        }
        let internal: Row = st.into_iter().map(AggState::finish).collect();
        rows.extend(group_output(&internal, having, outputs)?);
    }
    Ok(Table::from_parts(schema.clone(), rows))
}

/// The output row of one group, evaluated over its internal row, or `None`
/// when HAVING rejects the group — the last step of every aggregate node.
fn group_output(
    internal: &[Value],
    having: &Option<BoundExpr>,
    outputs: &[BoundExpr],
) -> Result<Option<Row>> {
    if let Some(h) = having {
        if !h.eval_predicate(internal)? {
            return Ok(None);
        }
    }
    // Sized up front: collecting through `Result` would start every output
    // row at a default capacity instead of its exact width.
    let mut out = Vec::with_capacity(outputs.len());
    for e in outputs {
        out.push(e.eval(internal)?);
    }
    Ok(Some(out))
}

/// The `EXPLAIN ANALYZE` detail line of a similarity node: answer-group
/// and outlier cardinality, the candidate-pair count the filter phase
/// visited, the ε-components SGB-All's pre-pass found, and the phase
/// breakdown of the query profile. Snapshot-served groupings carry no
/// live profile — the detail then reports cardinality only, which is
/// exactly what was (not) computed.
fn similarity_detail(grouping: &Grouping, tel: &Telemetry) -> String {
    let mut d = format!("groups: {}", grouping.num_groups());
    let outliers = grouping.outliers().len();
    if outliers > 0 {
        d.push_str(&format!(", outliers: {outliers}"));
    }
    if let Some(profile) = tel.profile() {
        let candidates = profile.counter(Counter::CandidatePairs);
        if candidates > 0 {
            d.push_str(&format!(", candidates: {candidates}"));
        }
        // SGB-All's component pre-pass ran: how the input split, so the
        // per-component bound can be checked against real data.
        let components = profile.counter(Counter::Components);
        if components > 0 {
            let largest = profile.counter(Counter::LargestComponent);
            d.push_str(&format!(", components: {components} (largest {largest})"));
        }
        let phases = profile.phase_summary();
        if !phases.is_empty() {
            d.push_str(&format!("; phases: {phases}"));
        }
    }
    d
}

/// Extracts the 2-D or 3-D grouping points of every row (the paper's "two
/// and three dimensional data space").
pub(crate) fn extract_points<const D: usize>(
    rows: &[Row],
    coords: &[BoundExpr],
) -> Result<Vec<Point<D>>> {
    debug_assert_eq!(coords.len(), D);
    let mut points: Vec<Point<D>> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut c = [0.0f64; D];
        for (d, expr) in coords.iter().enumerate() {
            let v = expr.eval(row)?;
            let Some(f) = v.as_f64() else {
                return Err(Error::Eval(format!(
                    "similarity grouping attributes must be numeric and non-null, got {v}"
                )));
            };
            if !f.is_finite() {
                return Err(Error::Eval(
                    "similarity grouping attributes must be finite".into(),
                ));
            }
            c[d] = f;
        }
        points.push(Point::new(c));
    }
    Ok(points)
}

/// The grouping of a similarity node over its input rows. When the node
/// reads a base table directly — only then does the table's version
/// counter describe the operator's actual input — a fresh subscription
/// snapshot matching the node's [`QueryKey`] serves it (an active
/// subscription with the same grouping attributes and result-relevant
/// parameters, re-checked against the table's current version here, so
/// serving always equals a recompute), and otherwise the run goes through
/// the session's shared-work cache, which also supplies the extracted
/// points of the current version. Anything else runs the node's core query
/// ([`lower`]) from scratch over 2-D or 3-D grouping attributes (the
/// paper's "two and three dimensional data space"). Bit-identical either
/// way.
fn run_similarity(
    db: &Database,
    node: &Plan,
    input: &Plan,
    rows: &[Row],
    coords: &[BoundExpr],
    governor: &QueryGovernor,
    telemetry: &Telemetry,
) -> Result<Grouping> {
    let coords_key = slot_key(coords);
    let mut cached = None;
    if let Plan::Scan { table, .. } = input {
        // The planner's pushdown briefly uses empty-named placeholders.
        if !table.is_empty() {
            let table = table.to_ascii_lowercase();
            let version = db.table(&table)?.version();
            let key = QueryKey::of(node)?;
            if let Some(served) = db.subscriptions().serve(&table, &coords_key, &key, version) {
                return Ok(served);
            }
            cached = db.session().cache.then_some((table, version));
        }
    }
    match coords.len() {
        2 => {
            let slot =
                cached.map(|(table, version)| (db.caches().slot2(&table, &coords_key), version));
            run_similarity_d::<2>(node, rows, coords, slot, governor, telemetry)
        }
        3 => {
            let slot =
                cached.map(|(table, version)| (db.caches().slot3(&table, &coords_key), version));
            run_similarity_d::<3>(node, rows, coords, slot, governor, telemetry)
        }
        n => Err(Error::Unsupported(format!(
            "similarity grouping over {n} attributes (2 or 3 supported)"
        ))),
    }
}

/// [`run_similarity`] at a fixed dimensionality: extracts (or takes the
/// slot's cached) points, lowers the node, and runs it through the core's
/// governed entry point — cached when a slot and its table version are
/// given.
fn run_similarity_d<const D: usize>(
    node: &Plan,
    rows: &[Row],
    coords: &[BoundExpr],
    slot: Option<(Arc<Slot<D>>, u64)>,
    governor: &QueryGovernor,
    telemetry: &Telemetry,
) -> Result<Grouping> {
    let extract = || extract_points::<D>(rows, coords);
    let points = match &slot {
        Some((slot, version)) => slot.points_for(*version, extract)?,
        None => Arc::new(extract()?),
    };
    let query = lower::<D>(node)?.telemetry(telemetry.clone());
    Ok(match &slot {
        Some((slot, version)) => query.try_run_cached(&points, slot.core(), *version, governor)?,
        None => query.try_run(&points, governor)?,
    })
}

/// The error for a plan node handed to a helper that only takes the
/// similarity nodes.
pub(crate) fn not_similarity() -> Error {
    Error::Eval("not a similarity group-by node".into())
}

/// The `sgb_operator_runs_total` labels of a similarity node: its operator
/// and resolved algorithm.
fn operator_labels(node: &Plan) -> Result<(&'static str, Algorithm)> {
    match node {
        Plan::SimilarityGroupBy { mode, .. } => Ok(match mode {
            SgbMode::All { algorithm, .. } => ("sgb_all", *algorithm),
            SgbMode::Any { algorithm, .. } => ("sgb_any", *algorithm),
        }),
        Plan::SimilarityAround { algorithm, .. } => Ok(("around", *algorithm)),
        _ => Err(not_similarity()),
    }
}

/// Lowers a similarity node into the core query. The plan's algorithm is
/// already resolved (never `Auto`), so the query's own cost model passes it
/// through unchanged. AROUND: every row joins the group of its nearest
/// center; rows beyond `radius` (when set) form the trailing outlier group.
pub(crate) fn lower<const D: usize>(node: &Plan) -> Result<SgbQuery<D>> {
    match node {
        Plan::SimilarityGroupBy {
            mode:
                SgbMode::All {
                    eps,
                    metric,
                    overlap,
                    algorithm,
                    seed,
                    ..
                },
            ..
        } => Ok(SgbQuery::all(*eps)
            .metric(*metric)
            .overlap(*overlap)
            .algorithm(*algorithm)
            .seed(*seed)),
        Plan::SimilarityGroupBy {
            mode:
                SgbMode::Any {
                    eps,
                    metric,
                    algorithm,
                    threads,
                    ..
                },
            ..
        } => {
            // The planner only emits algorithms the operator implements;
            // a hand-built plan must get an Err, not the builder's panic.
            if *algorithm == Algorithm::BoundsChecking {
                return Err(Error::Eval(format!(
                    "{algorithm} is not an execution path of DISTANCE-TO-ANY"
                )));
            }
            Ok(SgbQuery::any(*eps)
                .metric(*metric)
                .algorithm(*algorithm)
                .threads(*threads))
        }
        Plan::SimilarityAround {
            centers,
            metric,
            radius,
            algorithm,
            threads,
            ..
        } => {
            // The parser guarantees a non-empty list of finite,
            // correctly-sized centers and a valid radius; keep defensive
            // errors for plans built programmatically (the core config
            // asserts on these and would abort).
            if centers.is_empty() {
                return Err(Error::Eval("AROUND requires at least one center".into()));
            }
            let mut center_points: Vec<Point<D>> = Vec::with_capacity(centers.len());
            for c in centers {
                let arr: [f64; D] = c.as_slice().try_into().map_err(|_| {
                    Error::Eval(format!(
                        "AROUND center has {} coordinate(s), expected {D}",
                        c.len()
                    ))
                })?;
                if !arr.iter().all(|v| v.is_finite()) {
                    return Err(Error::Eval(
                        "AROUND center coordinates must be finite".into(),
                    ));
                }
                center_points.push(Point::new(arr));
            }
            if *algorithm == Algorithm::BoundsChecking {
                return Err(Error::Eval(format!(
                    "{algorithm} is not an execution path of AROUND"
                )));
            }
            let mut query = SgbQuery::around(center_points)
                .metric(*metric)
                .algorithm(*algorithm)
                .threads(*threads);
            if let Some(r) = *radius {
                if !r.is_finite() || r < 0.0 {
                    return Err(Error::Eval(format!(
                        "AROUND radius must be finite and >= 0, got {r}"
                    )));
                }
                query = query.max_radius(r);
            }
            Ok(query)
        }
        _ => Err(not_similarity()),
    }
}

/// Running accumulator for one aggregate call.
enum AggState {
    CountStar(i64),
    Count(i64),
    Sum { sum: f64, all_int: bool, seen: bool },
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
    ArrayAgg(Vec<String>),
}

impl AggState {
    fn new(call: &AggCall) -> Self {
        match call.kind {
            AggKind::CountStar => AggState::CountStar(0),
            AggKind::Count => AggState::Count(0),
            AggKind::Sum => AggState::Sum {
                sum: 0.0,
                all_int: true,
                seen: false,
            },
            AggKind::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggKind::Min => AggState::Min(None),
            AggKind::Max => AggState::Max(None),
            AggKind::ArrayAgg => AggState::ArrayAgg(Vec::new()),
        }
    }

    fn update(&mut self, call: &AggCall, row: &[Value]) -> Result<()> {
        if let AggState::CountStar(n) = self {
            *n += 1;
            return Ok(());
        }
        // The planner always attaches an argument to non-count(*)
        // aggregates; a hand-built plan without one gets an Err, not a
        // panic.
        let Some(arg_expr) = call.arg.as_ref() else {
            return Err(Error::Eval("aggregate call is missing its argument".into()));
        };
        let arg = arg_expr.eval(row)?;
        if arg.is_null() {
            return Ok(()); // SQL aggregates skip NULLs
        }
        match self {
            AggState::CountStar(_) => {} // handled by the early return above
            AggState::Count(n) => *n += 1,
            AggState::Sum { sum, all_int, seen } => {
                let v = arg
                    .as_f64()
                    .ok_or_else(|| Error::Eval(format!("sum over non-numeric value {arg}")))?;
                *sum += v;
                *all_int &= matches!(arg, Value::Int(_));
                *seen = true;
            }
            AggState::Avg { sum, n } => {
                let v = arg
                    .as_f64()
                    .ok_or_else(|| Error::Eval(format!("avg over non-numeric value {arg}")))?;
                *sum += v;
                *n += 1;
            }
            AggState::Min(best) => {
                let better = match best {
                    None => true,
                    Some(b) => arg.cmp_non_null(b) == std::cmp::Ordering::Less,
                };
                if better {
                    *best = Some(arg);
                }
            }
            AggState::Max(best) => {
                let better = match best {
                    None => true,
                    Some(b) => arg.cmp_non_null(b) == std::cmp::Ordering::Greater,
                };
                if better {
                    *best = Some(arg);
                }
            }
            AggState::ArrayAgg(items) => items.push(arg.to_string()),
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::CountStar(n) | AggState::Count(n) => Value::Int(n),
            AggState::Sum { sum, all_int, seen } => {
                if !seen {
                    Value::Null
                } else if all_int && sum.fract() == 0.0 && sum.abs() < 9e15 {
                    Value::Int(sum as i64)
                } else {
                    Value::Float(sum)
                }
            }
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::ArrayAgg(items) => Value::Str(format!("{{{}}}", items.join(","))),
        }
    }
}
