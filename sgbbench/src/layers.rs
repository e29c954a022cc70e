//! Per-layer tracing of one statement, from the benchmark's own calls
//! into the engine's public API:
//!
//! * `sql` — [`parse_statement`];
//! * `planner` — [`plan_select`] (which also runs IN-subqueries);
//! * `exec` — [`execute`] on the plan, then again on every input subtree,
//!   so a node's self time is its time minus its inputs' (the similarity
//!   node's self time is row → point extraction, cache plumbing and
//!   aggregation, once its core is subtracted too);
//! * `core` — the similarity node's operator, replayed with
//!   [`SgbQuery::try_run`] under an enabled [`Telemetry`] handle on points
//!   the benchmark extracts untimed, with the plan's resolved algorithm
//!   and threads, so its `QueryProfile` phases and counters are exact;
//! * writes — [`Database::execute`], which covers the table mutation and
//!   the `maint` layer's delta maintenance.

use sgb_core::query::Grouping;
use sgb_core::{Point, QueryGovernor, QueryProfile, SgbQuery, Telemetry};
use sgb_relation::exec::execute;
use sgb_relation::planner::plan_select;
use sgb_relation::sql::{parse_statement, Statement};
use sgb_relation::{BoundExpr, Database, Plan, SgbMode, Table};

use crate::trace::Recorder;

/// Span name of the statement as a whole.
pub const STMT: &str = "stmt";
/// Span name of the core replay.
pub const CORE: &str = "core";
/// Span name of a write's [`Database::execute`].
pub const WRITE: &str = "write.execute";
/// Span name of a similarity node.
pub const SGB: &str = "exec.sgb";
/// Span names of the relational plan nodes.
pub const RELATIONAL: [&str; 8] = [
    "exec.scan",
    "exec.filter",
    "exec.project",
    "exec.hash_join",
    "exec.cross_join",
    "exec.hash_aggregate",
    "exec.sort",
    "exec.limit",
];

/// The span name of a plan node.
fn node_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. } => RELATIONAL[0],
        Plan::Filter { .. } => RELATIONAL[1],
        Plan::Project { .. } => RELATIONAL[2],
        Plan::HashJoin { .. } => RELATIONAL[3],
        Plan::CrossJoin { .. } => RELATIONAL[4],
        Plan::HashAggregate { .. } => RELATIONAL[5],
        Plan::Sort { .. } => RELATIONAL[6],
        Plan::Limit { .. } => RELATIONAL[7],
        Plan::SimilarityGroupBy { .. } | Plan::SimilarityAround { .. } => SGB,
    }
}

fn is_similarity(plan: &Plan) -> bool {
    matches!(
        plan,
        Plan::SimilarityGroupBy { .. } | Plan::SimilarityAround { .. }
    )
}

fn contains_similarity(plan: &Plan) -> bool {
    is_similarity(plan) || plan.children().into_iter().any(contains_similarity)
}

/// Whether a subscription snapshot serves the plan's similarity node, or
/// `None` when the plan has none.
fn snapshot_served(plan: &Plan) -> Option<bool> {
    match plan {
        Plan::SimilarityGroupBy { snapshot, .. } | Plan::SimilarityAround { snapshot, .. } => {
            Some(snapshot.is_some())
        }
        _ => plan.children().into_iter().find_map(snapshot_served),
    }
}

/// What tracing one statement produced besides its spans and answer.
pub struct Traced {
    /// The `stmt` span.
    pub span: usize,
    /// Core profiles of the similarity nodes it replayed.
    pub profiles: Vec<QueryProfile>,
    /// For a SELECT with a similarity node: whether a subscription
    /// snapshot served it.
    pub snapshot: Option<bool>,
}

/// Traces one statement and returns its answer. The `stmt` span covers
/// exactly the statement path — parse, plan, execute the whole plan (for
/// writes, parse and [`Database::execute`]).
/// The subtree re-runs and core replays run after it, outside the `stmt`
/// interval, each as a child of the plan node it belongs to.
///
/// With `cold_core` (the session cache is off) the statement's similarity
/// node did the same work as the replay, so the `core` span is a child of
/// the node's span and leaves the node's self time as extraction and
/// aggregation. Otherwise the node may have been served by a snapshot or
/// a cache: the replay becomes a root span of its own, a measure of the
/// core's cold cost on the live table, and similarity subtrees are not
/// re-run, since the session's caches would serve them.
pub fn trace_statement(
    db: &mut Database,
    id: usize,
    sql: &str,
    rec: &mut Recorder,
    cold_core: bool,
) -> (Result<Table, String>, Traced) {
    let root = rec.open(id, STMT, None);
    let (_, parsed) = rec.time(id, "sql.parse", Some(root), || parse_statement(sql));
    let mut traced = Traced {
        span: root,
        profiles: Vec::new(),
        snapshot: None,
    };
    let select = match parsed {
        Ok(Statement::Select(select)) => select,
        Ok(_) => {
            let (_, out) = rec.time(id, WRITE, Some(root), || db.execute(sql));
            rec.close(root);
            return (out.map_err(|e| e.to_string()), traced);
        }
        Err(e) => {
            rec.close(root);
            return (Err(e.to_string()), traced);
        }
    };
    let (_, plan) = rec.time(id, "planner.plan", Some(root), || plan_select(db, &select));
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            rec.close(root);
            return (Err(e.to_string()), traced);
        }
    };
    let (node, out) = rec.time(id, node_name(&plan), Some(root), || execute(&plan, db));
    rec.close(root);
    traced.snapshot = snapshot_served(&plan);
    let mut probe = Probe {
        db,
        id,
        rec,
        cold_core,
        profiles: &mut traced.profiles,
    };
    let out = out
        .map_err(|e| e.to_string())
        .and_then(|out| probe.node(&plan, node).map(|()| out));
    (out, traced)
}

/// The post-statement re-runs of one statement.
struct Probe<'a> {
    db: &'a Database,
    id: usize,
    rec: &'a mut Recorder,
    cold_core: bool,
    profiles: &'a mut Vec<QueryProfile>,
}

impl Probe<'_> {
    /// Re-runs every input subtree of `node` as a child span of
    /// `node_span`, recursively, and replays a similarity node's core on
    /// its input.
    fn node(&mut self, node: &Plan, node_span: usize) -> Result<(), String> {
        for child in node.children() {
            if !self.cold_core && contains_similarity(child) {
                continue;
            }
            let db = self.db;
            let (child_span, input) =
                self.rec
                    .time(self.id, node_name(child), Some(node_span), || {
                        execute(child, db)
                    });
            let input = input.map_err(|e| e.to_string())?;
            self.node(child, child_span)?;
            if is_similarity(node) {
                let parent = self.cold_core.then_some(node_span);
                let grouping = replay(node, &input, self.rec, self.id, parent)?;
                self.profiles.extend(grouping.profile());
            }
        }
        Ok(())
    }
}

/// Replays a similarity node's core operator on the node's input rows:
/// extraction untimed, then [`SgbQuery::try_run`] as a `core` span under
/// `parent`.
fn replay(
    node: &Plan,
    input: &Table,
    rec: &mut Recorder,
    id: usize,
    parent: Option<usize>,
) -> Result<Grouping, String> {
    let coords = match node {
        Plan::SimilarityGroupBy { coords, .. } | Plan::SimilarityAround { coords, .. } => coords,
        _ => return Err("not a similarity node".into()),
    };
    match coords.len() {
        2 => replay_d::<2>(node, coords, input, rec, id, parent),
        3 => replay_d::<3>(node, coords, input, rec, id, parent),
        n => Err(format!("similarity grouping over {n} attributes")),
    }
}

fn replay_d<const D: usize>(
    node: &Plan,
    coords: &[BoundExpr],
    input: &Table,
    rec: &mut Recorder,
    id: usize,
    parent: Option<usize>,
) -> Result<Grouping, String> {
    let mut points = Vec::with_capacity(input.rows.len());
    for row in &input.rows {
        let mut c = [0.0; D];
        for (slot, expr) in c.iter_mut().zip(coords) {
            let v = expr.eval(row).map_err(|e| e.to_string())?;
            *slot = v.as_f64().ok_or("non-numeric grouping attribute")?;
        }
        points.push(Point::new(c));
    }
    let query = core_query::<D>(node)?.telemetry(Telemetry::new());
    let governor = QueryGovernor::unrestricted();
    let (_, grouping) = rec.time(id, CORE, parent, || query.try_run(&points, &governor));
    grouping.map_err(|e| e.to_string())
}

/// The core query a similarity node lowers into, with the plan's
/// resolved algorithm and threads (the executor's own lowering is
/// crate-private, so this mirrors it).
fn core_query<const D: usize>(node: &Plan) -> Result<SgbQuery<D>, String> {
    Ok(match node {
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
        } => SgbQuery::all(*eps)
            .metric(*metric)
            .overlap(*overlap)
            .algorithm(*algorithm)
            .seed(*seed),
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
        } => SgbQuery::any(*eps)
            .metric(*metric)
            .algorithm(*algorithm)
            .threads(*threads),
        Plan::SimilarityAround {
            centers,
            metric,
            radius,
            algorithm,
            threads,
            ..
        } => {
            let mut pts = Vec::with_capacity(centers.len());
            for c in centers {
                let arr: [f64; D] = c.as_slice().try_into().map_err(|_| "center arity")?;
                pts.push(Point::new(arr));
            }
            let query = SgbQuery::around(pts)
                .metric(*metric)
                .algorithm(*algorithm)
                .threads(*threads);
            match radius {
                Some(r) => query.max_radius(*r),
                None => query,
            }
        }
        _ => return Err("not a similarity node".into()),
    })
}

/// The core check: for a SELECT whose plan root is a similarity node
/// without HAVING, the replayed core's output group count must equal the
/// rows the statement returned. Other statements pass.
pub fn core_groups_match(db: &Database, sql: &str, rows: usize) -> Result<(), String> {
    let Ok(Statement::Select(select)) = parse_statement(sql) else {
        return Ok(());
    };
    let plan = plan_select(db, &select).map_err(|e| e.to_string())?;
    let input = match &plan {
        Plan::SimilarityGroupBy {
            input,
            having: None,
            ..
        }
        | Plan::SimilarityAround {
            input,
            having: None,
            ..
        } => input,
        _ => return Ok(()),
    };
    let input = execute(input, db).map_err(|e| e.to_string())?;
    let grouping = replay(&plan, &input, &mut Recorder::default(), 0, None)?;
    let groups = grouping.output_groups().count();
    if groups == rows {
        Ok(())
    } else {
        Err(format!(
            "core replay produced {groups} groups, SQL returned {rows} rows"
        ))
    }
}
