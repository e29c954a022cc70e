//! Plan executor: runs a [`Plan`] tree bottom-up.
//!
//! Inner nodes pass rows by position, not by copy (a `RowSet`): a Scan
//! borrows the catalog's rows, a Filter keeps the positions that pass, a
//! join pairs its inputs' positions, a Sort reorders them and a Limit
//! truncates them, and expressions read cells in place. Rows are built only
//! where a node makes new ones (Project, the aggregate nodes) and at the
//! root, which builds the result [`Table`].
//!
//! Every statement executes under a [`QueryGovernor`] built from the
//! session options (`Database::statement_governor`): the
//! similarity operators run through the core's governed `try_run` /
//! `try_run_cached` entry points, so a statement that overruns its
//! deadline, gets cancelled, or exceeds the memory budget fails with
//! [`Error::Aborted`] — and fails *cleanly*: no partial grouping enters
//! the session caches, and the database stays fully usable.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sgb_core::query::Grouping;
use sgb_core::{Algorithm, QueryGovernor, RecordId, SgbQuery};
use sgb_geom::Point;
use sgb_telemetry::{Counter, Phase, Telemetry};

use crate::cache::{slot_key, Slot};
use crate::engine::Database;
use crate::error::{Error, Result};
use crate::expr::{BoundExpr, RowView};
use crate::plan::{AggCall, AggKind, NodeStat, Plan, SgbMode};
use crate::subscription::{GroupingSnapshot, QueryKey};
use crate::table::{Row, Table};
use crate::value::{cmp_float, Value};

/// The rows a plan node yields, as positions into the row slices they come
/// from.
///
/// A join's output row is its inputs' rows side by side, so a set reads
/// one or more `sources`, in column order, and each of its rows is one
/// position per source. A source is borrowed from the catalog of the
/// database the statement runs against, or built by a node.
struct RowSet<'a> {
    /// The row slices the set reads, left to right.
    sources: Vec<Cow<'a, [Row]>>,
    /// `sources.len()` positions per row, flat; `None` when the set is
    /// every row of its one source, in order. Only a join repeats a
    /// position, and a join's set has a source per input, so a set with
    /// one source never holds a position twice.
    tuples: Option<Vec<usize>>,
}

impl<'a> RowSet<'a> {
    /// Every row of `rows`, in order.
    fn new(rows: Cow<'a, [Row]>) -> Self {
        Self {
            sources: vec![rows],
            tuples: None,
        }
    }

    /// Number of rows.
    fn len(&self) -> usize {
        match (&self.tuples, self.sources.first()) {
            (Some(tuples), _) => tuples.len() / self.sources.len(),
            (None, Some(rows)) => rows.len(),
            (None, None) => 0,
        }
    }

    /// Appends row `t`'s positions, one per source, to `out`.
    fn push_positions(&self, t: usize, out: &mut Vec<usize>) {
        match &self.tuples {
            None => out.push(t),
            Some(tuples) => {
                let k = self.sources.len();
                out.extend_from_slice(&tuples[t * k..(t + 1) * k]);
            }
        }
    }

    /// Fills `parts` with row `t` as its sources' rows, left to right: the
    /// view expressions read it through.
    fn row<'s>(&'s self, t: usize, parts: &mut Vec<&'s [Value]>) {
        parts.clear();
        match &self.tuples {
            None => parts.extend(self.sources.iter().map(|rows| rows[t].as_slice())),
            Some(tuples) => {
                let k = self.sources.len();
                let positions = &tuples[t * k..(t + 1) * k];
                parts.extend(
                    self.sources
                        .iter()
                        .zip(positions)
                        .map(|(rows, &p)| rows[p].as_slice()),
                );
            }
        }
    }

    /// Calls `f` with each row's index and view, in order, until it fails.
    fn try_for_each<'s>(
        &'s self,
        mut f: impl FnMut(usize, &[&'s [Value]]) -> Result<()>,
    ) -> Result<()> {
        let mut parts = Vec::with_capacity(self.sources.len());
        for t in 0..self.len() {
            self.row(t, &mut parts);
            f(t, &parts)?;
        }
        Ok(())
    }

    /// The rows at indices `picked`, in that order (each at most once).
    fn select(self, picked: Vec<usize>) -> Self {
        let tuples = match &self.tuples {
            None => picked,
            Some(_) => {
                let mut tuples = Vec::with_capacity(picked.len() * self.sources.len());
                for t in picked {
                    self.push_positions(t, &mut tuples);
                }
                tuples
            }
        };
        Self {
            sources: self.sources,
            tuples: Some(tuples),
        }
    }

    /// The first `n` rows.
    fn truncate(mut self, n: usize) -> Self {
        let k = self.sources.len();
        match (&mut self.tuples, self.sources.first_mut()) {
            (Some(tuples), _) => tuples.truncate(n.saturating_mul(k)),
            (None, Some(Cow::Borrowed(rows))) => *rows = rows.get(..n).unwrap_or(rows),
            (None, Some(Cow::Owned(rows))) => rows.truncate(n),
            (None, None) => {}
        }
        self
    }

    /// A join's output: `left`'s sources then `right`'s, over `tuples`,
    /// which pair each output row's left positions with its right ones.
    fn join(left: Self, right: Self, tuples: Vec<usize>) -> Self {
        let mut sources = left.sources;
        sources.extend(right.sources);
        Self {
            sources,
            tuples: Some(tuples),
        }
    }

    /// The rows themselves: the only place a row is built from positions.
    fn into_rows(self) -> Vec<Row> {
        let Self {
            mut sources,
            tuples,
        } = self;
        let Some(tuples) = tuples else {
            return sources.pop().map_or_else(Vec::new, Cow::into_owned);
        };
        if sources.len() == 1 {
            // Each position at most once: an owned source gives its rows up.
            return match sources.pop() {
                Some(Cow::Owned(mut rows)) => tuples
                    .iter()
                    .map(|&p| std::mem::take(&mut rows[p]))
                    .collect(),
                Some(Cow::Borrowed(rows)) => tuples.iter().map(|&p| rows[p].clone()).collect(),
                None => Vec::new(),
            };
        }
        let width: usize = sources
            .iter()
            .map(|rows| rows.first().map_or(0, Vec::len))
            .sum();
        tuples
            .chunks_exact(sources.len())
            .map(|positions| {
                let mut row = Vec::with_capacity(width);
                for (rows, &p) in sources.iter().zip(positions) {
                    row.extend_from_slice(&rows[p]);
                }
                row
            })
            .collect()
    }
}

/// Executes `plan` against the database catalog, under a statement
/// governor drawn from the session options (deadline, memory budget,
/// session cancel token).
pub fn execute(plan: &Plan, db: &Database) -> Result<Table> {
    // One governor (and thus one deadline) spans the whole plan tree.
    let rows = execute_node(plan, db, &db.statement_governor(), 0, None)?;
    Ok(Table::from_parts(plan.schema().clone(), rows.into_rows()))
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
    let rows = execute_node(plan, db, governor, 0, Some(&stats))?;
    let table = Table::from_parts(plan.schema().clone(), rows.into_rows());
    Ok((table, stats.into_inner()))
}

/// The recursive worker: executes one node (and its inputs), recording
/// inclusive elapsed time and output cardinality into `stats[id]` when a
/// sink is present. `id` is the node's pre-order index within the root
/// plan.
fn execute_node<'a>(
    plan: &Plan,
    db: &'a Database,
    governor: &QueryGovernor,
    id: usize,
    stats: Option<&RefCell<Vec<NodeStat>>>,
) -> Result<RowSet<'a>> {
    let started = stats.map(|_| Instant::now());
    let out = execute_inner(plan, db, governor, id, stats)?;
    if let (Some(stats), Some(started)) = (stats, started) {
        let stat = &mut stats.borrow_mut()[id];
        stat.elapsed_nanos = started.elapsed().as_nanos() as u64;
        stat.rows = out.len();
    }
    Ok(out)
}

fn execute_inner<'a>(
    plan: &Plan,
    db: &'a Database,
    governor: &QueryGovernor,
    id: usize,
    stats: Option<&RefCell<Vec<NodeStat>>>,
) -> Result<RowSet<'a>> {
    let execute = |plan: &Plan, child_id: usize| execute_node(plan, db, governor, child_id, stats);
    match plan {
        Plan::Scan { table, .. } => Ok(RowSet::new(Cow::Borrowed(&db.table(table)?.rows))),
        Plan::Filter { input, predicate } => {
            let rows = execute(input, id + 1)?;
            let mut kept = Vec::new();
            rows.try_for_each(|t, row| {
                if predicate.eval_predicate_in(row)? {
                    kept.push(t);
                }
                Ok(())
            })?;
            Ok(rows.select(kept))
        }
        Plan::Project { input, exprs, .. } => {
            let rows = execute(input, id + 1)?;
            // Every input column in order (`SELECT *`, a subquery's
            // re-qualification): the input passes through.
            let identity = exprs.len() == input.schema().len()
                && exprs
                    .iter()
                    .enumerate()
                    .all(|(i, e)| matches!(e, BoundExpr::Column(c) if *c == i));
            if identity {
                return Ok(rows);
            }
            let mut out = Vec::with_capacity(rows.len());
            rows.try_for_each(|_, row| {
                let mut cells = Vec::with_capacity(exprs.len());
                for e in exprs {
                    cells.push(e.eval_in(row)?);
                }
                out.push(cells);
                Ok(())
            })?;
            Ok(RowSet::new(Cow::Owned(out)))
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => {
            let l = execute(left, id + 1)?;
            let r = execute(right, id + 1 + left.node_count())?;
            // Build on the right input.
            let mut build: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            let mut key = Vec::with_capacity(right_keys.len());
            r.try_for_each(|i, row| {
                if join_key(right_keys, row, &mut key)? {
                    match build.get_mut(key.as_slice()) {
                        Some(matches) => matches.push(i),
                        None => {
                            build.insert(key.clone(), vec![i]);
                        }
                    }
                }
                Ok(())
            })?;
            // Probe order, then build order within a key.
            let mut tuples = Vec::new();
            l.try_for_each(|li, row| {
                if join_key(left_keys, row, &mut key)? {
                    for &ri in build.get(key.as_slice()).into_iter().flatten() {
                        l.push_positions(li, &mut tuples);
                        r.push_positions(ri, &mut tuples);
                    }
                }
                Ok(())
            })?;
            Ok(RowSet::join(l, r, tuples))
        }
        Plan::CrossJoin { left, right, .. } => {
            let l = execute(left, id + 1)?;
            let r = execute(right, id + 1 + left.node_count())?;
            let mut tuples = Vec::new();
            for li in 0..l.len() {
                for ri in 0..r.len() {
                    l.push_positions(li, &mut tuples);
                    r.push_positions(ri, &mut tuples);
                }
            }
            Ok(RowSet::join(l, r, tuples))
        }
        Plan::HashAggregate {
            input,
            group_exprs,
            aggs,
            having,
            outputs,
            ..
        } => {
            let rows = execute(input, id + 1)?;
            // First-seen group order (like PostgreSQL's hash agg output is
            // unordered, but determinism helps tests).
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut states: Vec<Vec<AggState>> = Vec::new();
            let mut key = Vec::with_capacity(group_exprs.len());
            rows.try_for_each(|_, row| {
                key.clear();
                for g in group_exprs {
                    key.push(g.eval_in(row)?);
                }
                let slot = match index.get(key.as_slice()) {
                    Some(&s) => s,
                    None => {
                        index.insert(key.clone(), states.len());
                        states.push(aggs.iter().map(AggState::new).collect());
                        states.len() - 1
                    }
                };
                for (st, call) in states[slot].iter_mut().zip(aggs) {
                    st.update(call, row)?;
                }
                Ok(())
            })?;
            let mut keys = vec![Vec::new(); states.len()];
            for (key, slot) in index {
                keys[slot] = key;
            }
            // Global aggregation over empty input still yields one row.
            if group_exprs.is_empty() && states.is_empty() {
                keys.push(Vec::new());
                states.push(aggs.iter().map(AggState::new).collect());
            }
            let mut out = Vec::with_capacity(states.len());
            for (key, st) in keys.into_iter().zip(states) {
                let mut internal = key;
                internal.extend(st.into_iter().map(AggState::finish));
                out.extend(group_output(&internal, having, outputs)?);
            }
            Ok(RowSet::new(Cow::Owned(out)))
        }
        Plan::SimilarityGroupBy {
            input,
            coords,
            aggs,
            having,
            outputs,
            ..
        }
        | Plan::SimilarityAround {
            input,
            coords,
            aggs,
            having,
            outputs,
            ..
        } => {
            let rows = execute(input, id + 1)?;
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
            let grouping = run_similarity(db, plan, input, &rows, coords, governor, &tel)?;
            let out = {
                let _agg = tel.phase(Phase::Aggregate);
                aggregate_grouping(&rows, grouping.get(), aggs, having, outputs)
            };
            if let Some(stats) = stats {
                stats.borrow_mut()[id].detail = similarity_detail(grouping.get(), &tel);
            }
            Ok(RowSet::new(Cow::Owned(out?)))
        }
        Plan::Sort { input, keys } => {
            let rows = execute(input, id + 1)?;
            // Pre-compute sort keys (decorate-sort-undecorate), then reorder
            // positions: no row is copied.
            let mut decorated: Vec<(Vec<Value>, usize)> = Vec::with_capacity(rows.len());
            rows.try_for_each(|t, row| {
                let mut ks = Vec::with_capacity(keys.len());
                for (e, _) in keys {
                    ks.push(e.eval_in(row)?);
                }
                decorated.push((ks, t));
                Ok(())
            })?;
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
            Ok(rows.select(decorated.into_iter().map(|(_, t)| t).collect()))
        }
        Plan::Limit { input, n } => Ok(execute(input, id + 1)?.truncate(*n)),
    }
}

/// Evaluates a join's key expressions over `row` into `key`, reusing its
/// buffer; `false` at the first NULL, since NULL keys never join.
fn join_key<R: RowView + ?Sized>(
    exprs: &[BoundExpr],
    row: &R,
    key: &mut Vec<Value>,
) -> Result<bool> {
    key.clear();
    for e in exprs {
        let v = e.eval_in(row)?;
        if v.is_null() {
            return Ok(false);
        }
        key.push(v);
    }
    Ok(true)
}

/// Aggregates the rows of each answer group into one output row, applying
/// HAVING and the output expressions over the internal `[aggregates…]`
/// layout — shared by the similarity group-by plan nodes. The iteration
/// uses the relational output shape ([`Grouping::output_groups`]): answer
/// groups first, then — for radius-bounded AROUND — the outlier group.
///
/// A count, sum, avg, min or max over a plain column that holds a
/// `Value::Float` in every input row folds each group from that column,
/// read once into a dense vector, without touching member rows
/// ([`FloatAgg`]), and `count(*)` is each group's member count. Every
/// other call folds member by member through [`AggState`], members
/// outermost, so errors surface in the same order; with no such call, no
/// member row is read.
fn aggregate_grouping(
    rows: &RowSet<'_>,
    grouping: &Grouping,
    aggs: &[AggCall],
    having: &Option<BoundExpr>,
    outputs: &[BoundExpr],
) -> Result<Vec<Row>> {
    // One gather per distinct column; `None` when the column is not all
    // floats, which sends its calls down the per-member path.
    let mut gathered: Vec<(usize, Option<Vec<f64>>)> = Vec::new();
    for (_, c) in aggs.iter().filter_map(FloatAgg::of) {
        if !gathered.iter().any(|(g, _)| *g == c) {
            gathered.push((c, float_column(rows, c)));
        }
    }
    let folds: Vec<Option<(FloatAgg, &[f64])>> = aggs
        .iter()
        .map(|call| {
            let (agg, c) = FloatAgg::of(call)?;
            let column = gathered.iter().find(|(g, _)| *g == c)?.1.as_deref()?;
            Some((agg, column))
        })
        .collect();
    // Only the calls left to `AggState` read member rows.
    let walk_members = aggs
        .iter()
        .zip(&folds)
        .any(|(call, fold)| call.kind != AggKind::CountStar && fold.is_none());
    let mut out = Vec::with_capacity(grouping.num_groups() + 1);
    let mut accs: Vec<Acc> = Vec::with_capacity(aggs.len());
    let mut internal: Row = Vec::with_capacity(aggs.len());
    let mut parts = Vec::with_capacity(rows.sources.len());
    for members in grouping.output_groups() {
        accs.extend(aggs.iter().zip(&folds).map(|(call, fold)| match fold {
            _ if call.kind == AggKind::CountStar => Acc::Members,
            Some((agg, column)) => Acc::Column(*agg, column),
            None => Acc::Rows(AggState::new(call)),
        }));
        if walk_members {
            for &r in members {
                rows.row(r, &mut parts);
                for (acc, call) in accs.iter_mut().zip(aggs) {
                    if let Acc::Rows(state) = acc {
                        state.update(call, parts.as_slice())?;
                    }
                }
            }
        }
        internal.clear();
        internal.extend(accs.drain(..).map(|acc| match acc {
            Acc::Members => Value::Int(members.len() as i64),
            Acc::Column(agg, column) => agg.fold(column, members),
            Acc::Rows(state) => state.finish(),
        }));
        out.extend(group_output(&internal, having, outputs)?);
    }
    Ok(out)
}

/// How a similarity node aggregates one call over the current group.
enum Acc<'c> {
    /// `count(*)`: the group's member count.
    Members,
    /// Folded from the call's gathered float column.
    Column(FloatAgg, &'c [f64]),
    /// Updated row by row.
    Rows(AggState),
}

/// Column `c` of every row as a dense vector, or `None` when some row
/// holds anything but a `Value::Float` there (NULL, Int, string, date).
fn float_column(rows: &RowSet<'_>, c: usize) -> Option<Vec<f64>> {
    let mut column = Vec::with_capacity(rows.len());
    let mut parts = Vec::with_capacity(rows.sources.len());
    for t in 0..rows.len() {
        rows.row(t, &mut parts);
        let Some(Value::Float(f)) = parts.as_slice().cell(c) else {
            return None;
        };
        column.push(*f);
    }
    Some(column)
}

/// The aggregate kinds a similarity node folds from a gathered float
/// column instead of from member rows.
#[derive(Clone, Copy, Debug)]
enum FloatAgg {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl FloatAgg {
    /// The fold and column of a call whose argument is a plain column.
    fn of(call: &AggCall) -> Option<(Self, usize)> {
        let Some(BoundExpr::Column(c)) = call.arg else {
            return None;
        };
        let agg = match call.kind {
            AggKind::Count => FloatAgg::Count,
            AggKind::Sum => FloatAgg::Sum,
            AggKind::Avg => FloatAgg::Avg,
            AggKind::Min => FloatAgg::Min,
            AggKind::Max => FloatAgg::Max,
            AggKind::CountStar | AggKind::ArrayAgg => return None,
        };
        Some((agg, c))
    }

    /// One group's aggregate over its members' entries of a float column,
    /// bit for bit what [`AggState::update`] and [`AggState::finish`] give
    /// over the same `Value::Float`s: sums add in member order from `0.0`,
    /// and min and max replace only on a strictly smaller or larger value
    /// by [`cmp_float`], as [`Value::cmp_non_null`] does, so ±0.0 ties keep
    /// the first member and NaN is the largest value.
    fn fold(self, column: &[f64], members: &[RecordId]) -> Value {
        let values = members.iter().map(|&r| column[r]);
        // Not `Iterator::sum`, which starts from -0.0.
        let sum = || values.clone().fold(0.0, |sum, v| sum + v);
        let extreme = |replaces: fn(f64, f64) -> bool| {
            values
                .clone()
                .reduce(|best, v| if replaces(v, best) { v } else { best })
                .map_or(Value::Null, Value::Float)
        };
        match self {
            FloatAgg::Count => Value::Int(members.len() as i64),
            _ if members.is_empty() => Value::Null,
            FloatAgg::Sum => Value::Float(sum()),
            FloatAgg::Avg => Value::Float(sum() / members.len() as i64 as f64),
            FloatAgg::Min => extreme(|v, best| cmp_float(v, best).is_lt()),
            FloatAgg::Max => extreme(|v, best| cmp_float(v, best).is_gt()),
        }
    }
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
    set_points(&RowSet::new(Cow::Borrowed(rows)), coords)
}

/// [`extract_points`] over a node's input.
fn set_points<const D: usize>(rows: &RowSet<'_>, coords: &[BoundExpr]) -> Result<Vec<Point<D>>> {
    debug_assert_eq!(coords.len(), D);
    let mut points: Vec<Point<D>> = Vec::with_capacity(rows.len());
    rows.try_for_each(|_, row| {
        let mut c = [0.0f64; D];
        for (d, expr) in coords.iter().enumerate() {
            let v = expr.eval_in(row)?;
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
        Ok(())
    })?;
    Ok(points)
}

/// A similarity node's grouping: a subscription's published snapshot, read
/// in place, or one computed for this statement.
enum NodeGrouping {
    Served(Arc<GroupingSnapshot>),
    Computed(Grouping),
}

impl NodeGrouping {
    fn get(&self) -> &Grouping {
        match self {
            NodeGrouping::Served(snapshot) => snapshot.grouping(),
            NodeGrouping::Computed(grouping) => grouping,
        }
    }
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
    rows: &RowSet<'_>,
    coords: &[BoundExpr],
    governor: &QueryGovernor,
    telemetry: &Telemetry,
) -> Result<NodeGrouping> {
    let coords_key = slot_key(coords);
    let mut cached = None;
    if let Plan::Scan { table, .. } = input {
        // The planner's pushdown briefly uses empty-named placeholders.
        if !table.is_empty() {
            let table = table.to_ascii_lowercase();
            let version = db.table(&table)?.version();
            let key = QueryKey::of(node)?;
            if let Some(served) = db.subscriptions().serve(&table, &coords_key, &key, version) {
                return Ok(NodeGrouping::Served(served));
            }
            cached = db.session().cache.then_some((table, version));
        }
    }
    let grouping = match coords.len() {
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
    };
    grouping.map(NodeGrouping::Computed)
}

/// [`run_similarity`] at a fixed dimensionality: extracts (or takes the
/// slot's cached) points, lowers the node, and runs it through the core's
/// governed entry point — cached when a slot and its table version are
/// given.
fn run_similarity_d<const D: usize>(
    node: &Plan,
    rows: &RowSet<'_>,
    coords: &[BoundExpr],
    slot: Option<(Arc<Slot<D>>, u64)>,
    governor: &QueryGovernor,
    telemetry: &Telemetry,
) -> Result<Grouping> {
    let extract = || set_points::<D>(rows, coords);
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
            if !Algorithm::SGB_ANY.contains(algorithm) {
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
            if !Algorithm::SGB_AROUND.contains(algorithm) {
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

    fn update<R: RowView + ?Sized>(&mut self, call: &AggCall, row: &R) -> Result<()> {
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
        let arg = arg_expr.eval_in(row)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    const FOLDED: [AggKind; 5] = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Avg,
        AggKind::Min,
        AggKind::Max,
    ];

    fn call(kind: AggKind) -> AggCall {
        AggCall {
            kind,
            arg: Some(BoundExpr::Column(0)),
        }
    }

    /// `kind` over the members' entries of `column`, row by row through
    /// `AggState`, and through the float-column fold.
    fn both_paths(kind: AggKind, column: &[f64], members: &[RecordId]) -> (Value, Value) {
        let call = call(kind);
        let mut state = AggState::new(&call);
        for &r in members {
            state.update(&call, &[Value::Float(column[r])][..]).unwrap();
        }
        let (agg, _) = FloatAgg::of(&call).unwrap();
        (state.finish(), agg.fold(column, members))
    }

    /// The value's variant and, for a float, its bits: `Value`'s own
    /// equality holds every NaN equal and `0.0` equal to `-0.0`.
    fn bits(v: &Value) -> String {
        match v {
            Value::Float(f) => format!("Float({:#x})", f.to_bits()),
            other => format!("{other:?}"),
        }
    }

    fn assert_paths_agree(column: &[f64], members: &[RecordId]) {
        for kind in FOLDED {
            let (per_member, folded) = both_paths(kind, column, members);
            assert_eq!(
                bits(&per_member),
                bits(&folded),
                "{kind:?} over {column:?} members {members:?}"
            );
        }
    }

    #[test]
    fn fold_of_an_empty_group() {
        assert_paths_agree(&[1.0, 2.0], &[]);
        assert_eq!(FloatAgg::Count.fold(&[1.0], &[]), Value::Int(0));
        for agg in [FloatAgg::Sum, FloatAgg::Avg, FloatAgg::Min, FloatAgg::Max] {
            assert!(agg.fold(&[1.0], &[]).is_null(), "{agg:?}");
        }
    }

    #[test]
    fn fold_ties_keep_the_first_member() {
        for column in [[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [2.0, 2.0, 2.0]] {
            assert_paths_agree(&column, &[0, 1, 2]);
            assert_paths_agree(&column, &[1, 0, 2]);
        }
        // The first of two tied zeros stays the extreme.
        let (_, min) = both_paths(AggKind::Min, &[-0.0, 0.0, 1.0], &[0, 1, 2]);
        assert_eq!(bits(&min), bits(&Value::Float(-0.0)));
        let (_, max) = both_paths(AggKind::Max, &[0.0, -0.0, -1.0], &[1, 0, 2]);
        assert_eq!(bits(&max), bits(&Value::Float(-0.0)));
        // Sums start from +0.0, so a lone -0.0 sums to +0.0.
        let (_, sum) = both_paths(AggKind::Sum, &[-0.0], &[0]);
        assert_eq!(bits(&sum), bits(&Value::Float(0.0)));
    }

    #[test]
    fn fold_with_nan_first_or_last() {
        let column = [f64::NAN, 3.0, -2.0, -f64::NAN, f64::INFINITY];
        for members in [
            &[0, 1, 2][..],
            &[1, 2, 0],
            &[1, 0, 2],
            &[3, 1, 2],
            &[1, 2, 3],
            &[4, 0],
            &[0, 4],
        ] {
            assert_paths_agree(&column, members);
        }
        // NaN is the largest value, first or last, and of two NaNs the
        // first stays.
        let (_, min) = both_paths(AggKind::Min, &column, &[0, 1, 2]);
        assert_eq!(bits(&min), bits(&Value::Float(-2.0)));
        let (_, max) = both_paths(AggKind::Max, &column, &[1, 2, 0]);
        assert_eq!(bits(&max), bits(&Value::Float(f64::NAN)));
        let (_, max) = both_paths(AggKind::Max, &column, &[4, 3, 0]);
        assert_eq!(bits(&max), bits(&Value::Float(-f64::NAN)));
    }

    #[test]
    fn fold_sums_in_member_order() {
        // 1e16 + 1.0 rounds back to 1e16, so the order decides the bits.
        let column = [1e16, 1.0, -1e16];
        assert_paths_agree(&column, &[0, 1, 2]);
        assert_paths_agree(&column, &[0, 2, 1]);
        let (_, a) = both_paths(AggKind::Sum, &column, &[0, 1, 2]);
        let (_, b) = both_paths(AggKind::Sum, &column, &[0, 2, 1]);
        assert_eq!((a, b), (Value::Float(0.0), Value::Float(1.0)));
    }

    #[test]
    fn float_folds_take_only_plain_columns_of_the_five_kinds() {
        assert!(FloatAgg::of(&call(AggKind::ArrayAgg)).is_none());
        let count_star = AggCall {
            kind: AggKind::CountStar,
            arg: None,
        };
        assert!(FloatAgg::of(&count_star).is_none());
        let expr = AggCall {
            kind: AggKind::Sum,
            arg: Some(BoundExpr::Neg(Box::new(BoundExpr::Column(0)))),
        };
        assert!(FloatAgg::of(&expr).is_none());
        for kind in FOLDED {
            assert_eq!(FloatAgg::of(&call(kind)).map(|(_, c)| c), Some(0));
        }
    }

    #[test]
    fn float_column_rejects_any_non_float_cell() {
        let rows = |cell: Value| {
            RowSet::new(Cow::Owned(vec![
                vec![Value::Float(1.5)],
                vec![cell],
                vec![Value::Float(-0.0)],
            ]))
        };
        let gathered = float_column(&rows(Value::Float(f64::INFINITY)), 0).unwrap();
        assert_eq!(gathered, vec![1.5, f64::INFINITY, -0.0]);
        for cell in [
            Value::Null,
            Value::Int(2),
            Value::from("2.0"),
            Value::Date(0),
            Value::Bool(true),
        ] {
            assert!(float_column(&rows(cell.clone()), 0).is_none(), "{cell:?}");
        }
        assert!(
            float_column(&rows(Value::Float(1.0)), 1).is_none(),
            "missing column"
        );
        let empty = RowSet::new(Cow::Borrowed(&[]));
        assert_eq!(float_column(&empty, 3), Some(Vec::new()));
    }

    #[test]
    fn order_by_limit_over_a_scan_is_the_stable_sorts_prefix() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT, k INT)").unwrap();
        db.execute("INSERT INTO t VALUES (0, 2), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2), (6, 0)")
            .unwrap();
        let catalog = db.table("t").unwrap().rows.clone();
        let ids =
            |rows: &[Row]| -> Vec<i64> { rows.iter().map(|r| r[0].as_i64().unwrap()).collect() };
        // Ties keep their input order, ascending and descending.
        let asc = db.query("SELECT * FROM t ORDER BY k").unwrap().rows;
        assert_eq!(ids(&asc), vec![3, 6, 1, 4, 0, 2, 5]);
        let desc = db.query("SELECT * FROM t ORDER BY k DESC").unwrap().rows;
        assert_eq!(ids(&desc), vec![0, 2, 5, 1, 4, 3, 6]);
        // `SELECT *` plans an identity Project over the Scan, which passes
        // the catalog's rows through, so both plans sort the positions of
        // the catalog's borrowed rows and copy only the rows they keep.
        let bare = |n: usize, desc: bool| Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(Plan::Scan {
                    table: "t".into(),
                    schema: db.table("t").unwrap().schema.clone(),
                }),
                keys: vec![(BoundExpr::Column(1), desc)],
            }),
            n,
        };
        let governor = QueryGovernor::unrestricted();
        for n in 0..=9 {
            let kept = n.min(7);
            for (order, full, desc) in [("", &asc, false), (" DESC", &desc, true)] {
                let sql = format!("SELECT * FROM t ORDER BY k{order} LIMIT {n}");
                assert_eq!(db.query(&sql).unwrap().rows, full[..kept], "{sql}");
                let (out, stats) = execute_with_stats(&bare(n, desc), &db, &governor).unwrap();
                assert_eq!(out.rows, full[..kept], "bare scan, {sql}");
                // The Limit reports min(n, 7); the Sort its whole input.
                let rows: Vec<usize> = stats.iter().map(|s| s.rows).collect();
                assert_eq!(rows, vec![kept, 7, 7], "bare scan, {sql}");
            }
        }
        assert_eq!(
            db.table("t").unwrap().rows,
            catalog,
            "catalog rows untouched"
        );
        let analyzed = db
            .explain_analyze("SELECT * FROM t ORDER BY k LIMIT 3")
            .unwrap();
        let lines: Vec<&str> = analyzed.lines().collect();
        assert!(lines[0].starts_with("Limit 3 (actual time: "), "{analyzed}");
        assert!(lines[0].ends_with(", rows: 3)"), "{analyzed}");
        assert!(
            lines[1].starts_with("  Sort (1 keys) (actual time: "),
            "{analyzed}"
        );
        assert!(lines[1].ends_with(", rows: 7)"), "{analyzed}");
    }
}
