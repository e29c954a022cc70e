//! The database façade: catalog + SQL entry points.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sgb_core::{CacheStats, CancelToken, QueryGovernor};
use sgb_telemetry::{MetricsRegistry, SlowQuery, SlowQueryLog};

use crate::cache::{slot_key, SessionCaches};
use crate::error::{Error, Result};
use crate::exec::{execute, execute_with_stats};
use crate::expr::BoundExpr;
use crate::plan::Plan;
use crate::planner::{plan_predicate, plan_select};
use crate::schema::Schema;
use crate::session::SessionOptions;
use crate::sql::ast::{Select, Statement};
use crate::sql::parser::parse_statement;
use crate::subscription::{build_maintained, QueryKey, SubscriptionHandle, SubscriptionSet};
use crate::table::{retain_kept, Row, Table};
use crate::value::Value;

/// An in-memory database: named tables plus the session's engine options
/// for the similarity operators ([`SessionOptions`]).
///
/// ```
/// use sgb_relation::Database;
///
/// let mut db = Database::new();
/// db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
/// db.execute("INSERT INTO pts VALUES (1.0, 1.0), (2.0, 2.0), (9.0, 9.0)").unwrap();
/// let out = db
///     .execute("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5")
///     .unwrap();
/// assert_eq!(out.len(), 2); // {1,2} and {9}
/// ```
#[derive(Debug, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
    session: SessionOptions,
    caches: Arc<SessionCaches>,
    subscriptions: SubscriptionSet,
    cancel: Option<CancelToken>,
    /// Session-scoped metrics: statement/operator counters, latency
    /// histograms ([`Database::metrics_text`]).
    registry: Arc<MetricsRegistry>,
    /// Ring buffer of statements that overran
    /// [`SessionOptions::slow_query`] ([`Database::slow_queries`]).
    slow_log: Arc<SlowQueryLog>,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        // A clone is an independent session: it keeps the catalog and
        // options but starts with empty shared-work caches and no
        // subscriptions, so two sessions never interleave their hit/miss
        // counters or maintained groupings (the cloned tables keep their
        // versions — indexes simply rebuild on first use; subscriptions
        // re-register with `subscribe`).
        Self {
            tables: self.tables.clone(),
            session: self.session,
            ..Self::default()
        }
    }
}

impl Database {
    /// An empty database with default session options: every similarity
    /// operator runs with its `Auto` algorithm, cost-selected per query
    /// from the estimated input cardinality, center count, and
    /// dimensionality (`EXPLAIN` prints the resolved path and the reason).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty database with the given session options.
    ///
    /// ```
    /// use sgb_core::Algorithm;
    /// use sgb_relation::{Database, SessionOptions};
    ///
    /// let db = Database::with_options(
    ///     SessionOptions::new().with_all_algorithm(Algorithm::BoundsChecking),
    /// );
    /// assert_eq!(db.session().all_algorithm, Algorithm::BoundsChecking);
    /// ```
    pub fn with_options(session: SessionOptions) -> Self {
        Self {
            session,
            ..Self::default()
        }
    }

    /// Installs (or clears) a cooperative cancellation token observed by
    /// every subsequent statement: once [`CancelToken::cancel`] fires —
    /// typically from another thread holding a clone — the running
    /// similarity operator stops at its next governance check and the
    /// statement fails with [`Error::Aborted`]`(Cancelled)`. The session
    /// stays fully usable afterwards; clear (or replace) the token to run
    /// further statements.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The resource governor every statement executes under, built from
    /// the session options: the [`SessionOptions::statement_timeout`]
    /// deadline (drawn fresh per call), the
    /// [`SessionOptions::memory_budget`], and the session's cancel token
    /// ([`Database::set_cancel_token`]), when set.
    pub(crate) fn statement_governor(&self) -> QueryGovernor {
        let mut governor = QueryGovernor::unrestricted();
        if let Some(timeout) = self.session.statement_timeout {
            governor = governor.with_deadline(timeout);
        }
        if let Some(budget) = self.session.memory_budget {
            governor = governor.with_memory_budget(budget);
        }
        if let Some(token) = &self.cancel {
            governor = governor.with_cancel_token(token.clone());
        }
        governor
    }

    /// The session's engine options. The planner resolves every similarity
    /// query under these; `EXPLAIN` prints the resolved path plus whether
    /// it came from the cost model or a session override.
    pub fn session(&self) -> &SessionOptions {
        &self.session
    }

    /// Mutable access to the session's engine options — the one surface
    /// for adjusting similarity-operator execution mid-session.
    ///
    /// ```
    /// use sgb_core::Algorithm;
    /// use sgb_relation::Database;
    ///
    /// let mut db = Database::new();
    /// db.session_mut().any_algorithm = Algorithm::Grid;
    /// db.session_mut().seed = 42;
    /// ```
    pub fn session_mut(&mut self) -> &mut SessionOptions {
        &mut self.session
    }

    /// Registers (or replaces) a table under `name`. Any subscriptions
    /// over a replaced table are dropped (their handles deactivate): the
    /// contents changed wholesale, outside the delta stream they track.
    pub fn register(&mut self, name: &str, mut table: Table) {
        let key = name.to_ascii_lowercase();
        // The incoming table may be a clone that was mutated through its
        // public `rows` since its version was drawn; re-version it so no
        // cached state built for the original can be mistaken for it.
        table.bump_version();
        self.caches.remove_table(&key);
        self.subscriptions.on_drop(&key);
        self.tables.insert(key, table);
    }

    /// Removes a table; `true` when it existed. Subscriptions over it are
    /// dropped (their handles deactivate, keeping the last snapshot).
    pub fn drop_table(&mut self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        self.caches.remove_table(&key);
        self.subscriptions.on_drop(&key);
        self.tables.remove(&key).is_some()
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| unknown_table(name))
    }

    /// Registered table names (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Executes any statement (SELECT, CREATE TABLE, INSERT, DELETE, DROP
    /// TABLE, EXPLAIN \[ANALYZE\]). DDL/DML return an empty result table;
    /// EXPLAIN returns a one-column `QUERY PLAN` table, one row per line.
    ///
    /// Every call — successful or not — moves the session's statement
    /// counters and latency histogram ([`Database::metrics_text`]), and
    /// feeds the slow-query log when [`SessionOptions::slow_query`] is set.
    pub fn execute(&mut self, sql: &str) -> Result<Table> {
        let started = Instant::now();
        let stmt = match parse_statement(sql) {
            Ok(stmt) => stmt,
            Err(e) => {
                self.observe_statement("parse", started, sql, Some(&e));
                return Err(e);
            }
        };
        let kind = statement_kind(&stmt);
        let result = self.execute_statement(stmt);
        self.observe_statement(kind, started, sql, result.as_ref().err());
        result
    }

    /// The statement dispatcher behind [`Database::execute`] (which wraps
    /// it with metrics observation).
    fn execute_statement(&mut self, stmt: Statement) -> Result<Table> {
        match stmt {
            Statement::Select(stmt) => {
                let plan = plan_select(self, &stmt)?;
                execute(&plan, self)
            }
            Statement::CreateTable { name, columns } => {
                if self.tables.contains_key(&name.to_ascii_lowercase()) {
                    return Err(Error::Binding(format!("table '{name}' already exists")));
                }
                self.register(&name, Table::empty(Schema::new(columns)));
                Ok(Table::default())
            }
            Statement::Insert { table, rows } => {
                // Bind row expressions as constants (empty input schema).
                let rows = rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|e| crate::planner::plan_const(self, e)?.eval(&[]))
                            .collect()
                    })
                    .collect::<Result<Vec<Row>>>()?;
                self.append_rows(&table, rows)?;
                Ok(Table::default())
            }
            Statement::Delete { table, predicate } => {
                let t = self.table(&table)?;
                let bound = predicate
                    .as_ref()
                    .map(|e| plan_predicate(self, &t.schema, e))
                    .transpose()?;
                let removed = rows_where(&t.rows, bound.as_ref(), |i, _| Ok(i))?;
                if !removed.is_empty() {
                    self.remove_rows(&table, &removed)?;
                }
                Ok(Table::default())
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                let t = self.table(&table)?;
                // Bind the SET targets and right-hand sides against the
                // table schema (the RHS may read columns of the old row).
                let mut sets = Vec::with_capacity(assignments.len());
                for (col, expr) in &assignments {
                    let idx = t.schema.resolve(None, col)?;
                    sets.push((idx, plan_predicate(self, &t.schema, expr)?));
                }
                let bound = predicate
                    .as_ref()
                    .map(|e| plan_predicate(self, &t.schema, e))
                    .transpose()?;
                let mut touched = Vec::new();
                let replacements = rows_where(&t.rows, bound.as_ref(), |i, row| {
                    touched.push(i);
                    let mut next = row.clone();
                    // Every RHS sees the *old* row, per SQL semantics.
                    for (idx, e) in &sets {
                        next[*idx] = e.eval(row)?;
                    }
                    Ok(next)
                })?;
                if !touched.is_empty() {
                    // Executed as a delete+insert pair so the change flows
                    // through the same incremental-maintenance path as
                    // DELETE and INSERT: subscriptions apply the two delta
                    // batches, and the version bumps invalidate the
                    // session's shared-work caches. Updated rows therefore
                    // move to the end of the table, exactly as a manual
                    // DELETE + INSERT would place them.
                    self.remove_rows(&table, &touched)?;
                    self.append_rows(&table, replacements)?;
                }
                Ok(Table::default())
            }
            Statement::SetOption { name, value } => {
                let bound = crate::planner::plan_const(self, &value)?;
                let v = bound.eval(&[])?;
                self.set_session_option(&name, &v)?;
                Ok(Table::default())
            }
            Statement::DropTable { name } => {
                if !self.drop_table(&name) {
                    return Err(unknown_table(&name));
                }
                Ok(Table::default())
            }
            Statement::Explain { analyze, query } => {
                Ok(explain_table(&self.explain_select(&query, analyze)?))
            }
        }
    }

    /// Moves `rows` into `table` and applies them to its subscriptions as
    /// one insert delta at the table's new version, read from the table's
    /// appended tail. Every width is checked before the first push, so the
    /// statement is all-or-nothing — subscriptions see either the whole
    /// batch or none of it.
    fn append_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| unknown_table(table))?;
        let width = t.schema.len();
        if let Some(bad) = rows.iter().find(|r| r.len() != width) {
            return Err(Error::Eval(format!(
                "row width {} does not match schema width {width}",
                bad.len()
            )));
        }
        let first = t.rows.len();
        for row in rows {
            t.push(row)?;
        }
        self.subscriptions.on_insert(
            &key,
            &t.rows[first..],
            &t.rows,
            t.version(),
            self.session.statement_timeout,
            &self.registry,
        );
        Ok(())
    }

    /// Removes the rows at the ascending indices `removed` from `table`
    /// and applies their removal to its subscriptions as one delete delta.
    /// The version bump is what invalidates the session's shared-work
    /// caches — deletes exactly like inserts.
    fn remove_rows(&mut self, table: &str, removed: &[usize]) -> Result<()> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| unknown_table(table))?;
        retain_kept(&mut t.rows, removed);
        t.bump_version();
        self.subscriptions.on_delete(
            &key,
            removed,
            &t.rows,
            t.version(),
            self.session.statement_timeout,
            &self.registry,
        );
        Ok(())
    }

    /// Plans a SELECT and renders its `EXPLAIN` text; with `analyze`, runs
    /// the plan first under a statement governor and renders the
    /// `EXPLAIN ANALYZE` tree with its actuals.
    fn explain_select(&self, stmt: &Select, analyze: bool) -> Result<String> {
        let plan = plan_select(self, stmt)?;
        if !analyze {
            return Ok(plan.explain());
        }
        let (_, stats) = execute_with_stats(&plan, self, &self.statement_governor())?;
        Ok(plan.explain_analyze(&stats))
    }

    /// Executes a SELECT without requiring `&mut self`.
    pub fn query(&self, sql: &str) -> Result<Table> {
        let started = Instant::now();
        let result = match parse_statement(sql) {
            Ok(Statement::Select(stmt)) => {
                plan_select(self, &stmt).and_then(|plan| execute(&plan, self))
            }
            Ok(_) => Err(Error::Unsupported("query() only accepts SELECT".into())),
            Err(e) => Err(e),
        };
        self.observe_statement("select", started, sql, result.as_ref().err());
        result
    }

    /// Renders the physical plan of a SELECT (`EXPLAIN`).
    pub fn explain(&self, sql: &str) -> Result<String> {
        match parse_statement(sql)? {
            Statement::Select(stmt) => self.explain_select(&stmt, false),
            _ => Err(Error::Unsupported("explain() only accepts SELECT".into())),
        }
    }

    /// Registers a continuous similarity query over a base table and
    /// returns a handle serving immutable, version-stamped snapshots of
    /// its grouping (see [`crate::subscription`]).
    ///
    /// `sql` must be a SELECT whose plan is exactly a similarity group-by
    /// over one bare table — no WHERE, joins, ORDER BY, or LIMIT: the
    /// subscription maintains the *grouping* of the whole table under
    /// INSERT / DELETE deltas; the select list and HAVING still apply per
    /// query when the executor serves from the snapshot. Errors when
    /// [`SessionOptions::subscriptions`] is off.
    ///
    /// ```
    /// use sgb_relation::Database;
    ///
    /// let mut db = Database::new();
    /// db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    /// db.execute("INSERT INTO pts VALUES (1.0, 1.0), (2.0, 2.0), (9.0, 9.0)").unwrap();
    /// let sub = db
    ///     .subscribe("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5")
    ///     .unwrap();
    /// assert_eq!(sub.snapshot().grouping().num_groups(), 2);
    /// db.execute("DELETE FROM pts WHERE x > 5").unwrap();
    /// assert_eq!(sub.snapshot().grouping().num_groups(), 1);
    /// ```
    pub fn subscribe(&mut self, sql: &str) -> Result<SubscriptionHandle> {
        if !self.session.subscriptions {
            return Err(Error::Unsupported(
                "subscriptions are disabled for this session \
                 (SessionOptions::subscriptions)"
                    .into(),
            ));
        }
        let stmt = match parse_statement(sql)? {
            Statement::Select(s) => s,
            _ => return Err(Error::Unsupported("subscribe() only accepts SELECT".into())),
        };
        let plan = plan_select(self, &stmt)?;
        let shape_err = || {
            Error::Unsupported(
                "subscribe() requires a similarity GROUP BY over a single base \
                 table (no WHERE, joins, ORDER BY, or LIMIT)"
                    .into(),
            )
        };
        let (Plan::SimilarityGroupBy { input, coords, .. }
        | Plan::SimilarityAround { input, coords, .. }) = &plan
        else {
            return Err(shape_err());
        };
        let table = match &**input {
            Plan::Scan { table, .. } if !table.is_empty() => table,
            _ => return Err(shape_err()),
        };
        // The maintained grouping is built from the node's own lowering
        // (same resolved algorithm, seed, and threads the plan records),
        // so the initial snapshot is bit-identical to a cold run.
        let t = self.table(table)?;
        let maintained = build_maintained(&t.rows, coords, &plan)?;
        let (n_rows, version) = (t.rows.len(), t.version());
        Ok(self.subscriptions.register(
            table.to_ascii_lowercase(),
            slot_key(coords),
            coords.clone(),
            QueryKey::of(&plan)?,
            maintained,
            n_rows,
            version,
        ))
    }

    /// Applies `SET <option> = <value>`. Options are session-scoped and
    /// take effect from the next statement.
    fn set_session_option(&mut self, name: &str, value: &Value) -> Result<()> {
        let non_negative_int = |what: &str| -> Result<u64> {
            match value {
                Value::Int(n) if *n >= 0 => Ok(*n as u64),
                other => Err(Error::Eval(format!(
                    "SET {what} expects a non-negative integer, got {other}"
                ))),
            }
        };
        if name.eq_ignore_ascii_case("statement_timeout") {
            // Milliseconds; 0 clears the deadline.
            let ms = non_negative_int("STATEMENT_TIMEOUT")?;
            self.session.statement_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            Ok(())
        } else if name.eq_ignore_ascii_case("memory_budget") {
            // Bytes; 0 clears the budget.
            let bytes = non_negative_int("MEMORY_BUDGET")?;
            self.session.memory_budget = (bytes > 0).then_some(bytes as usize);
            Ok(())
        } else if name.eq_ignore_ascii_case("slow_query_ms") {
            // Milliseconds; 0 turns slow-query logging off.
            let ms = non_negative_int("SLOW_QUERY_MS")?;
            self.session.slow_query = (ms > 0).then(|| Duration::from_millis(ms));
            Ok(())
        } else {
            Err(Error::Unsupported(format!(
                "unknown session option '{name}' \
                 (valid: STATEMENT_TIMEOUT, MEMORY_BUDGET, SLOW_QUERY_MS)"
            )))
        }
    }

    /// The session's subscriptions (executor serve, planner probe).
    pub(crate) fn subscriptions(&self) -> &SubscriptionSet {
        &self.subscriptions
    }

    /// The session's shared-work caches (executor fetch-or-build, planner
    /// read-only probes).
    pub(crate) fn caches(&self) -> &SessionCaches {
        &self.caches
    }

    /// The summed hit/miss/eviction counters of the session's shared-work
    /// caches (see [`SessionOptions::cache`]). Counters only move when a
    /// query executes — `EXPLAIN` probes without counting.
    ///
    /// ```
    /// use sgb_relation::Database;
    ///
    /// let mut db = Database::new();
    /// db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    /// db.execute("INSERT INTO pts VALUES (1.0, 1.0), (2.0, 2.0)").unwrap();
    /// let q = "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5";
    /// db.execute(q).unwrap();
    /// db.execute(q).unwrap(); // exact repeat: served from the result cache
    /// assert_eq!(db.cache_stats().result_hits, 1);
    /// ```
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.stats()
    }

    /// The session's metrics registry (executor operator counters).
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The session-scoped metrics registry: statement counters by kind and
    /// outcome (`sgb_statements_total`), per-kind latency histograms
    /// (`sgb_statement_ms`), similarity-operator run counters
    /// (`sgb_operator_runs_total`), subscription delta outcomes
    /// (`sgb_subscription_deltas_total`), and the shared-work cache
    /// counters (`sgb_cache_events_total`) folded in from
    /// [`Database::cache_stats`]. The fold-in happens on access, so the
    /// two surfaces can never disagree.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.sync_cache_metrics();
        &self.registry
    }

    /// Renders the session metrics in the Prometheus text exposition
    /// format (version 0.0.4): `# TYPE` headers, counters, then
    /// histograms with cumulative `_bucket{le=…}` / `_sum` / `_count`
    /// series.
    ///
    /// ```
    /// use sgb_relation::Database;
    ///
    /// let mut db = Database::new();
    /// db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    /// let text = db.metrics_text();
    /// assert!(text.contains("# TYPE sgb_statements_total counter"));
    /// assert!(text.contains("kind=\"create_table\""));
    /// ```
    pub fn metrics_text(&self) -> String {
        self.sync_cache_metrics();
        self.registry.render()
    }

    /// Folds the current [`CacheStats`] counters into the registry as
    /// `sgb_cache_events_total{event=…}`. `record_absolute` is a monotone
    /// max, so repeated folds are idempotent and the registry mirrors the
    /// live counters exactly at every render.
    fn sync_cache_metrics(&self) {
        let stats = self.caches.stats();
        for (event, value) in [
            ("index_hit", stats.index_hits),
            ("index_miss", stats.index_misses),
            ("result_hit", stats.result_hits),
            ("result_miss", stats.result_misses),
            ("eviction", stats.evictions),
            ("validation_skipped", stats.validations_skipped),
        ] {
            self.registry
                .record_absolute("sgb_cache_events_total", &[("event", event)], value);
        }
    }

    /// The slow-query log, oldest first: every statement whose wall-clock
    /// time reached [`SessionOptions::slow_query`] (set it via
    /// `SET SLOW_QUERY_MS = <ms>`), successful or failed, bounded by a
    /// fixed-capacity ring buffer that drops the oldest entry on overflow.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.entries()
    }

    /// Executes a SELECT and renders its `EXPLAIN ANALYZE` tree — the
    /// plan with every node's actual elapsed time, output row count, and
    /// operator detail (similarity nodes report group/candidate counts
    /// and their phase breakdown). Equivalent to
    /// `execute("EXPLAIN ANALYZE …")` joined to one string.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        match parse_statement(sql)? {
            Statement::Select(stmt) | Statement::Explain { query: stmt, .. } => {
                self.explain_select(&stmt, true)
            }
            _ => Err(Error::Unsupported(
                "explain_analyze() only accepts SELECT".into(),
            )),
        }
    }

    /// Records one finished statement into the session metrics: the
    /// `sgb_statements_total{kind, outcome}` counter, the
    /// `sgb_statement_ms{kind}` latency histogram, and — when the session
    /// has a slow-query threshold and this statement reached it — the
    /// slow-query ring buffer.
    fn observe_statement(&self, kind: &str, started: Instant, sql: &str, err: Option<&Error>) {
        let elapsed = started.elapsed();
        let outcome = match err {
            None => "ok",
            Some(e) => e.class(),
        };
        self.registry.inc(
            "sgb_statements_total",
            &[("kind", kind), ("outcome", outcome)],
            1,
        );
        let millis = elapsed.as_secs_f64() * 1e3;
        self.registry
            .observe_ms("sgb_statement_ms", &[("kind", kind)], millis);
        if let Some(threshold) = self.session.slow_query {
            if elapsed >= threshold {
                self.slow_log.record(SlowQuery {
                    statement: sql.to_owned(),
                    millis,
                    outcome: outcome.to_owned(),
                });
            }
        }
    }
}

/// The metrics `kind` label of a parsed statement.
fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Select(_) => "select",
        Statement::CreateTable { .. } => "create_table",
        Statement::Insert { .. } => "insert",
        Statement::Delete { .. } => "delete",
        Statement::Update { .. } => "update",
        Statement::SetOption { .. } => "set",
        Statement::DropTable { .. } => "drop_table",
        Statement::Explain { .. } => "explain",
    }
}

/// Renders an EXPLAIN text as a one-column result table (PostgreSQL's
/// `QUERY PLAN` shape), one row per line.
fn explain_table(text: &str) -> Table {
    let schema = Schema::new(vec!["QUERY PLAN".to_owned()]);
    let rows = text
        .lines()
        .map(|line| vec![Value::Str(line.to_owned())])
        .collect();
    Table::from_parts(schema, rows)
}

/// The error for a table name missing from the catalog, in the user's
/// spelling.
fn unknown_table(name: &str) -> Error {
    Error::Binding(format!("unknown table '{name}'"))
}

/// The result of `hit` for each row of `rows` that `predicate` holds for
/// (every row without one), in row order. Evaluates every row before the
/// caller mutates anything, so an evaluation error leaves the table
/// untouched.
fn rows_where<T>(
    rows: &[Row],
    predicate: Option<&BoundExpr>,
    mut hit: impl FnMut(usize, &Row) -> Result<T>,
) -> Result<Vec<T>> {
    let mut out = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if predicate.map_or(Ok(true), |p| p.eval_predicate(row))? {
            out.push(hit(i, row)?);
        }
    }
    Ok(out)
}
