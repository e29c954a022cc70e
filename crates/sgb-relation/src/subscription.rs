//! Continuous similarity queries: incremental maintenance plus concurrent
//! snapshot serving.
//!
//! The paper's motivating workloads (check-in streams, MANET nodes moving)
//! are update-heavy, and rebuilding the grouping from scratch after every
//! row edit wastes exactly the work the companion order-independence
//! argument says can be preserved: SGB-Around assignment is per-tuple
//! independent, SGB-Any depends only on the ε-edge set. A *subscription*
//! ([`crate::Database::subscribe`]) registers one similarity query over one
//! base table; from then on every `INSERT` / `DELETE` against that table is
//! applied as a **delta** to a [`sgb_core::MaintainedGrouping`] and the
//! refreshed grouping is published as an immutable, version-stamped
//! [`GroupingSnapshot`] behind an atomically swapped `Arc`.
//!
//! Concurrency contract: the writer (the session holding `&mut Database`)
//! maintains state and swaps the published `Arc` under a write lock held
//! only for the pointer swap; readers ([`SubscriptionHandle::snapshot`])
//! clone the `Arc` under the read lock and then work lock-free on a
//! grouping that is guaranteed *complete* — it was fully built before the
//! swap — and internally consistent (epoch and table version were stamped
//! together). Readers never observe a half-applied delta and never block
//! the writer beyond the pointer swap.
//!
//! Queries benefit too: when a `SELECT` lowers to the subscribed grouping
//! (same table, same grouping attributes, same operator parameters) and the
//! published snapshot matches the table's current version, the executor
//! serves the grouping straight from the snapshot instead of recomputing —
//! `EXPLAIN` reports this as `snapshot: subscription #N (epoch E)`.
//!
//! Like the session's shared-work caches, subscriptions trust the table
//! version counter: mutating a registered table's public `rows` directly
//! (rather than through SQL) silently desynchronises the maintained state.
//! [`crate::Database::register`] therefore drops the replaced table's
//! subscriptions, exactly as it invalidates its cache slots.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use sgb_core::query::Grouping;
use sgb_core::{MaintainedGrouping, OverlapAction, QueryGovernor, SgbError};
use sgb_geom::Metric;
use sgb_telemetry::MetricsRegistry;

use crate::error::{Error, Result};
use crate::exec::{extract_points, lower, not_similarity};
use crate::expr::BoundExpr;
use crate::plan::{Plan, SgbMode, SnapshotInfo};
use crate::table::{retain_kept, Row};

/// The result-relevant identity of a similarity query — the parameters
/// that decide the *answer*, excluding execution knobs (algorithm, thread
/// count) that are guaranteed bit-identical across paths. Two queries with
/// equal keys over the same table and grouping attributes produce the same
/// grouping, so a subscription registered under one can serve the other.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum QueryKey {
    /// `DISTANCE-TO-ALL`: the seed participates because `JOIN-ANY`
    /// arbitration is seeded.
    All {
        /// Threshold ε.
        eps: f64,
        /// Distance function.
        metric: Metric,
        /// Overlap arbitration.
        overlap: OverlapAction,
        /// `JOIN-ANY` arbitration seed.
        seed: u64,
    },
    /// `DISTANCE-TO-ANY`: connected components depend only on (ε, metric).
    Any {
        /// Threshold ε.
        eps: f64,
        /// Distance function.
        metric: Metric,
    },
    /// `AROUND`: nearest-center assignment under an optional radius bound.
    Around {
        /// Center coordinates.
        centers: Vec<Vec<f64>>,
        /// Distance function.
        metric: Metric,
        /// Optional maximum radius.
        radius: Option<f64>,
    },
}

impl QueryKey {
    /// The key of a plan's SGB-All / SGB-Any node.
    pub(crate) fn from_sgb_mode(mode: &SgbMode) -> Self {
        match mode {
            SgbMode::All {
                eps,
                metric,
                overlap,
                seed,
                ..
            } => QueryKey::All {
                eps: *eps,
                metric: *metric,
                overlap: *overlap,
                seed: *seed,
            },
            SgbMode::Any { eps, metric, .. } => QueryKey::Any {
                eps: *eps,
                metric: *metric,
            },
        }
    }

    /// The key of a plan's AROUND node.
    pub(crate) fn around(centers: &[Vec<f64>], metric: Metric, radius: Option<f64>) -> Self {
        QueryKey::Around {
            centers: centers.to_vec(),
            metric,
            radius,
        }
    }

    /// The key of a similarity plan node.
    pub(crate) fn of(node: &Plan) -> Result<Self> {
        match node {
            Plan::SimilarityGroupBy { mode, .. } => Ok(Self::from_sgb_mode(mode)),
            Plan::SimilarityAround {
                centers,
                metric,
                radius,
                ..
            } => Ok(Self::around(centers, *metric, *radius)),
            _ => Err(not_similarity()),
        }
    }
}

/// One published state of a subscribed grouping: immutable, complete, and
/// stamped with the maintenance epoch and the table version it reflects.
/// Obtained from [`SubscriptionHandle::snapshot`]; holders read it without
/// any further locking.
#[derive(Clone, Debug)]
pub struct GroupingSnapshot {
    grouping: Grouping,
    epoch: u64,
    table_version: u64,
}

impl GroupingSnapshot {
    /// The grouping as of this snapshot.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// Maintenance epoch: the number of row deltas applied since the
    /// subscription was registered. Strictly increases across publishes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The table version this snapshot reflects (see
    /// [`crate::Table::version`]).
    pub fn table_version(&self) -> u64 {
        self.table_version
    }
}

/// Writer/reader shared cell: the published snapshot plus liveness.
#[derive(Debug)]
struct Shared {
    snapshot: RwLock<Arc<GroupingSnapshot>>,
    active: AtomicBool,
}

/// A reader's handle to one subscription. Cheap to clone and safe to move
/// to other threads; see [`crate::Database::subscribe`].
#[derive(Clone, Debug)]
pub struct SubscriptionHandle {
    id: usize,
    table: String,
    shared: Arc<Shared>,
}

impl SubscriptionHandle {
    /// Session-unique subscription id (appears in `EXPLAIN`).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The subscribed table (lower-cased catalog name).
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The latest published snapshot. Lock-free after the `Arc` clone: the
    /// returned snapshot never changes, even while the writer keeps
    /// applying deltas and publishing newer ones.
    pub fn snapshot(&self) -> Arc<GroupingSnapshot> {
        self.shared
            .snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// `false` once the subscription stopped being maintained: its table
    /// was dropped or replaced, or a delta could not be applied (e.g. a row
    /// with non-numeric grouping attributes was inserted). The last
    /// published snapshot remains readable.
    pub fn is_active(&self) -> bool {
        self.shared.active.load(Ordering::Acquire)
    }
}

/// Registry counter family for subscription delta outcomes.
const DELTAS_COUNTER: &str = "sgb_subscription_deltas_total";

/// The governor a delta batch runs under: unrestricted except for the
/// session deadline, when one is set. Deltas are maintenance, not
/// statements — memory budgets and cancel tokens do not apply — but a
/// slow regrouping must not stall the mutating statement past the
/// session's own patience.
fn delta_governor(deadline: Option<Duration>) -> QueryGovernor {
    match deadline {
        Some(d) => QueryGovernor::unrestricted().with_deadline(d),
        None => QueryGovernor::unrestricted(),
    }
}

/// The maintained grouping, dimension-erased.
#[derive(Debug)]
pub(crate) enum Maintained {
    D2(MaintainedGrouping<2>),
    D3(MaintainedGrouping<3>),
}

impl Maintained {
    /// Applies one inserted row as a governed delta. An `Err` means the
    /// maintained state may be mid-transaction — the caller must recover
    /// by rebuilding from the table's rows (see [`Subscription::recover`]).
    fn try_insert_row(
        &mut self,
        coords: &[BoundExpr],
        row: &Row,
        governor: &QueryGovernor,
    ) -> Result<usize> {
        match self {
            Maintained::D2(m) => {
                let pts = extract_points::<2>(std::slice::from_ref(row), coords)?;
                Ok(m.try_insert(pts[0], governor)?)
            }
            Maintained::D3(m) => {
                let pts = extract_points::<3>(std::slice::from_ref(row), coords)?;
                Ok(m.try_insert(pts[0], governor)?)
            }
        }
    }

    /// Applies the deletion of `slots` as one governed batch delta; same
    /// recovery contract as [`Maintained::try_insert_row`].
    fn try_delete_many(&mut self, slots: &[usize], governor: &QueryGovernor) -> Result<usize> {
        match self {
            Maintained::D2(m) => Ok(m.try_delete_many(slots, governor)?),
            Maintained::D3(m) => Ok(m.try_delete_many(slots, governor)?),
        }
    }

    /// A fresh maintained grouping over `rows` under the same query
    /// configuration — the recovery path after a failed delta.
    fn rebuilt_from(&self, coords: &[BoundExpr], rows: &[Row]) -> Result<Maintained> {
        match self {
            Maintained::D2(m) => {
                let points = extract_points::<2>(rows, coords)?;
                Ok(Maintained::D2(MaintainedGrouping::new(
                    m.query().clone(),
                    &points,
                )))
            }
            Maintained::D3(m) => {
                let points = extract_points::<3>(rows, coords)?;
                Ok(Maintained::D3(MaintainedGrouping::new(
                    m.query().clone(),
                    &points,
                )))
            }
        }
    }

    fn advance_epoch_to(&mut self, floor: u64) {
        match self {
            Maintained::D2(m) => m.advance_epoch_to(floor),
            Maintained::D3(m) => m.advance_epoch_to(floor),
        }
    }

    fn snapshot(&self) -> Grouping {
        match self {
            Maintained::D2(m) => m.snapshot(),
            Maintained::D3(m) => m.snapshot(),
        }
    }

    fn try_snapshot(&self, governor: &QueryGovernor) -> Result<Grouping> {
        match self {
            Maintained::D2(m) => Ok(m.try_snapshot(governor)?),
            Maintained::D3(m) => Ok(m.try_snapshot(governor)?),
        }
    }

    fn epoch(&self) -> u64 {
        match self {
            Maintained::D2(m) => m.epoch(),
            Maintained::D3(m) => m.epoch(),
        }
    }
}

/// Writer-side state of one subscription.
#[derive(Debug)]
struct Subscription {
    id: usize,
    /// Lower-cased catalog table name.
    table: String,
    /// Cache-style key of the bound grouping attributes (see
    /// [`crate::cache::slot_key`]) — two queries with the same key extract
    /// the same points from the same rows.
    coords_key: String,
    /// The bound grouping attribute expressions, for extracting the point
    /// of each inserted row.
    coords: Vec<BoundExpr>,
    /// Result-relevant query identity, for serve/EXPLAIN matching.
    key: QueryKey,
    /// Maintained slot of each current table row, in row order. Rows only
    /// ever append (INSERT) or vanish (DELETE) — never reorder — so the
    /// maintained grouping's dense record ids coincide with row indices.
    row_slots: Vec<usize>,
    maintained: Maintained,
    shared: Arc<Shared>,
    /// Snapshots published since the registration's.
    #[cfg(test)]
    publishes: usize,
}

impl Subscription {
    fn handle(&self) -> SubscriptionHandle {
        SubscriptionHandle {
            id: self.id,
            table: self.table.clone(),
            shared: Arc::clone(&self.shared),
        }
    }

    fn deactivate(&self) {
        self.shared.active.store(false, Ordering::Release);
    }

    fn is_active(&self) -> bool {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Rebuilds and atomically publishes the snapshot, stamped with
    /// `table_version`. The regrouping work (SGB-All's recompute included)
    /// happens here on the writer under `governor`, outside the lock; the
    /// write lock is held only for the pointer swap. On `Err` nothing is
    /// published.
    fn publish(&mut self, table_version: u64, governor: &QueryGovernor) -> Result<()> {
        let snapshot = Arc::new(GroupingSnapshot {
            grouping: self.maintained.try_snapshot(governor)?,
            epoch: self.maintained.epoch(),
            table_version,
        });
        *self
            .shared
            .snapshot
            .write()
            .unwrap_or_else(|e| e.into_inner()) = snapshot;
        #[cfg(test)]
        {
            self.publishes += 1;
        }
        Ok(())
    }

    /// Recovery after a delta or its publish failed (an injected fault or
    /// a governed abort): the maintained state may be mid-transaction, so
    /// it is rebuilt wholesale from the table's current rows — the source
    /// of truth — under the same query configuration, and the epoch is
    /// advanced past everything previously published so snapshot epochs
    /// stay strictly monotone. With `publish_at`, the rebuilt state is
    /// published under `governor`, stamped with that table version;
    /// without, a later delta of the same statement publishes it. Only
    /// when the rebuild or its publish fails (e.g. the table now holds a
    /// row with non-numeric grouping attributes) does the subscription
    /// deactivate, keeping the last snapshot readable.
    fn recover(&mut self, all_rows: &[Row], publish_at: Option<u64>, governor: &QueryGovernor) {
        let floor = self.maintained.epoch() + 1;
        match self.maintained.rebuilt_from(&self.coords, all_rows) {
            Ok(mut rebuilt) => {
                rebuilt.advance_epoch_to(floor);
                self.maintained = rebuilt;
                self.row_slots = (0..all_rows.len()).collect();
                if let Some(version) = publish_at {
                    if self.publish(version, governor).is_err() {
                        self.deactivate();
                    }
                }
            }
            Err(_) => self.deactivate(),
        }
    }

    /// The published snapshot, when it reflects `version` — the serve /
    /// EXPLAIN freshness test.
    fn fresh_snapshot(&self, version: u64) -> Option<Arc<GroupingSnapshot>> {
        if !self.is_active() {
            return None;
        }
        let snap = self
            .shared
            .snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        (snap.table_version == version).then_some(snap)
    }
}

/// All subscriptions of one session. Owned by [`crate::Database`]; the
/// engine notifies it after every mutating statement.
#[derive(Debug, Default)]
pub(crate) struct SubscriptionSet {
    subs: Vec<Subscription>,
    next_id: usize,
}

impl SubscriptionSet {
    /// Registers a subscription whose maintained grouping was just built
    /// from the table's current `n_rows` rows at `version`, and publishes
    /// the initial snapshot (epoch 0).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn register(
        &mut self,
        table: String,
        coords_key: String,
        coords: Vec<BoundExpr>,
        key: QueryKey,
        maintained: Maintained,
        n_rows: usize,
        version: u64,
    ) -> SubscriptionHandle {
        let id = self.next_id;
        self.next_id += 1;
        let shared = Arc::new(Shared {
            snapshot: RwLock::new(Arc::new(GroupingSnapshot {
                grouping: maintained.snapshot(),
                epoch: maintained.epoch(),
                table_version: version,
            })),
            active: AtomicBool::new(true),
        });
        let sub = Subscription {
            id,
            table,
            coords_key,
            coords,
            key,
            row_slots: (0..n_rows).collect(),
            maintained,
            shared,
            #[cfg(test)]
            publishes: 0,
        };
        let handle = sub.handle();
        self.subs.push(sub);
        handle
    }

    /// Applies `rows`, the tail just appended to `table` (now at `version`,
    /// `all_rows` its full post-insert contents), and republishes, settling
    /// the delta as [`SubscriptionSet::apply_delta`] describes.
    pub(crate) fn on_insert(
        &mut self,
        table: &str,
        rows: &[Row],
        all_rows: &[Row],
        version: u64,
        deadline: Option<Duration>,
        registry: &MetricsRegistry,
    ) {
        self.apply_delta(
            table,
            all_rows,
            Some(version),
            deadline,
            registry,
            |sub, governor| {
                for row in rows {
                    let slot = sub.maintained.try_insert_row(&sub.coords, row, governor)?;
                    sub.row_slots.push(slot);
                }
                Ok(())
            },
        );
    }

    /// Applies a deletion of `removed` (ascending pre-delete row indices)
    /// from `table` (`all_rows` its full post-delete contents), settling
    /// the delta as [`SubscriptionSet::apply_delta`] describes, and with
    /// `publish_at` republishes, stamped with that table version. Each
    /// subscription gets all of the statement's slots in one
    /// [`MaintainedGrouping::try_delete_many`] call, so an SGB-Any
    /// component loses any number of rows for one re-cluster. UPDATE's
    /// delete half arrives here too, without `publish_at`: its insert half
    /// publishes both.
    pub(crate) fn on_delete(
        &mut self,
        table: &str,
        removed: &[usize],
        all_rows: &[Row],
        publish_at: Option<u64>,
        deadline: Option<Duration>,
        registry: &MetricsRegistry,
    ) {
        self.apply_delta(
            table,
            all_rows,
            publish_at,
            deadline,
            registry,
            |sub, governor| {
                let slots: Vec<usize> = removed
                    .iter()
                    .filter_map(|&i| sub.row_slots.get(i).copied())
                    .collect();
                sub.maintained.try_delete_many(&slots, governor)?;
                retain_kept(&mut sub.row_slots, removed);
                Ok(())
            },
        );
    }

    /// Runs `delta` on every active subscription of `table` under the
    /// session `deadline`, then settles it. A delta that succeeds is
    /// published when `publish_at` is given, stamped with that table
    /// version and under the same deadline; without it, the state waits
    /// for a later delta of the same statement to publish it (UPDATE's
    /// insert half publishes its delete half too, so no reader sees the
    /// updated rows missing). A
    /// delta or publish that fails triggers [`Subscription::recover`]: the
    /// grouping is rebuilt from `all_rows` with a strictly advancing
    /// epoch, so readers never observe a half-applied delta or an epoch
    /// rollback. Exception: a delta or publish that overruns the
    /// `deadline` is **rejected atomically** — nothing is published (the
    /// snapshot epoch does not advance) and the subscription deactivates,
    /// keeping its last snapshot readable. Once the delta settles, every
    /// inactive subscription leaves the set, and its maintained state
    /// (possibly mid-delta) with it: an inactive subscription takes no
    /// deltas and serves no reads, and its handle keeps the last snapshot
    /// through its own share of [`Shared`].
    fn apply_delta(
        &mut self,
        table: &str,
        all_rows: &[Row],
        publish_at: Option<u64>,
        deadline: Option<Duration>,
        registry: &MetricsRegistry,
        mut delta: impl FnMut(&mut Subscription, &QueryGovernor) -> Result<()>,
    ) {
        let governor = delta_governor(deadline);
        for sub in self.subs.iter_mut() {
            if sub.table != table || !sub.is_active() {
                continue;
            }
            let settled = delta(sub, &governor).and_then(|()| match publish_at {
                Some(version) => sub.publish(version, &governor),
                None => Ok(()),
            });
            let outcome = match settled {
                Ok(()) => "applied",
                Err(Error::Aborted(SgbError::Timeout)) => {
                    sub.deactivate();
                    "rejected"
                }
                Err(_) => {
                    sub.recover(all_rows, publish_at, &governor);
                    "recovered"
                }
            };
            registry.inc(DELTAS_COUNTER, &[("outcome", outcome)], 1);
        }
        self.subs.retain(Subscription::is_active);
    }

    /// Drops every subscription of `table` (deactivating their handles) —
    /// the table was dropped or wholesale-replaced.
    pub(crate) fn on_drop(&mut self, table: &str) {
        self.subs.retain(|sub| {
            if sub.table == table {
                sub.deactivate();
                false
            } else {
                true
            }
        });
    }

    /// EXPLAIN probe: the id/epoch of an active subscription matching the
    /// node and fresh at `version`, if any.
    pub(crate) fn probe(
        &self,
        table: &str,
        coords_key: &str,
        key: &QueryKey,
        version: u64,
    ) -> Option<SnapshotInfo> {
        self.lookup(table, coords_key, key, version)
            .map(|(id, snap)| SnapshotInfo {
                id,
                epoch: snap.epoch,
            })
    }

    /// Executor serve: the published snapshot of an active subscription
    /// matching the node and fresh at `version`, if any. The executor
    /// aggregates from its grouping in place.
    pub(crate) fn serve(
        &self,
        table: &str,
        coords_key: &str,
        key: &QueryKey,
        version: u64,
    ) -> Option<Arc<GroupingSnapshot>> {
        self.lookup(table, coords_key, key, version)
            .map(|(_, snapshot)| snapshot)
    }

    fn lookup(
        &self,
        table: &str,
        coords_key: &str,
        key: &QueryKey,
        version: u64,
    ) -> Option<(usize, Arc<GroupingSnapshot>)> {
        self.subs.iter().find_map(|sub| {
            if sub.table == table && sub.coords_key == coords_key && &sub.key == key {
                sub.fresh_snapshot(version).map(|s| (sub.id, s))
            } else {
                None
            }
        })
    }
}

/// Builds the dimension-erased maintained grouping of a subscription from
/// the table's current rows and the similarity node's lowering.
pub(crate) fn build_maintained(
    rows: &[Row],
    coords: &[BoundExpr],
    node: &Plan,
) -> Result<Maintained> {
    match coords.len() {
        2 => {
            let points = extract_points::<2>(rows, coords)?;
            Ok(Maintained::D2(MaintainedGrouping::new(
                lower(node)?,
                &points,
            )))
        }
        3 => {
            let points = extract_points::<3>(rows, coords)?;
            Ok(Maintained::D3(MaintainedGrouping::new(
                lower(node)?,
                &points,
            )))
        }
        n => Err(Error::Unsupported(format!(
            "similarity grouping over {n} attributes (2 or 3 supported)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crate::Database;

    const SQL: &str = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5";

    fn subscribed_db() -> (Database, super::SubscriptionHandle) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x DOUBLE, y DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (0.0, 0.0), (0.3, 0.0), (5.0, 5.0)")
            .unwrap();
        let sub = db.subscribe(SQL).unwrap();
        assert_eq!(db.subscriptions().subs.len(), 1);
        (db, sub)
    }

    /// A delta rejected by the deadline drops the subscription's maintained
    /// state from the session; the handle still reads its last snapshot.
    #[test]
    fn timed_out_delta_leaves_no_subscription_state() {
        let (mut db, sub) = subscribed_db();
        let before = sub.snapshot();
        let opts = db
            .session()
            .with_statement_timeout(Some(Duration::from_nanos(1)));
        *db.session_mut() = opts;
        db.execute("INSERT INTO t VALUES (9.0, 9.0)").unwrap();
        assert!(!sub.is_active());
        assert!(db.subscriptions().subs.is_empty(), "state left behind");
        assert_eq!(sub.snapshot().epoch(), before.epoch());
        assert_eq!(sub.snapshot().grouping(), before.grouping());
    }

    /// An UPDATE settles its delete half and its insert half, then
    /// publishes once, at the table's final version. Each half still
    /// counts as one delta and advances the epoch by its rows.
    #[test]
    fn update_publishes_once_at_the_final_version() {
        let (mut db, sub) = subscribed_db();
        db.execute("UPDATE t SET x = x + 0.1 WHERE y < 1.0")
            .unwrap();
        assert_eq!(db.subscriptions().subs[0].publishes, 1);
        let snap = sub.snapshot();
        assert_eq!(snap.epoch(), 4, "two rows deleted, two inserted");
        assert_eq!(snap.table_version(), db.table("t").unwrap().version());
        let applied = db
            .metrics()
            .counter_value("sgb_subscription_deltas_total", &[("outcome", "applied")]);
        assert_eq!(applied, 2);
        db.execute("DELETE FROM t WHERE x > 4.0").unwrap();
        db.execute("INSERT INTO t VALUES (7.0, 7.0)").unwrap();
        assert_eq!(db.subscriptions().subs[0].publishes, 3);
    }

    /// A publish runs under the statement deadline: an SGB-All recompute
    /// that overruns it is rejected like a delta that does. Nothing is
    /// published and the subscription deactivates.
    #[test]
    fn overrunning_publish_is_rejected() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x DOUBLE, y DOUBLE)").unwrap();
        // A dense cloud whose FORM-NEW-GROUP recompute takes far longer
        // than the 1 ms deadline below.
        let values: Vec<String> = (0..3000)
            .map(|i| {
                format!(
                    "({}, {})",
                    (i * 37 % 101) as f64 * 0.05,
                    (i * 53 % 97) as f64 * 0.05
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        let sub = db
            .subscribe(
                "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.3 \
                 ON-OVERLAP FORM-NEW-GROUP",
            )
            .unwrap();
        let before = sub.snapshot();
        let opts = db
            .session()
            .with_statement_timeout(Some(Duration::from_millis(1)));
        *db.session_mut() = opts;
        db.execute("INSERT INTO t VALUES (9.0, 9.0)").unwrap();
        assert!(!sub.is_active());
        assert!(db.subscriptions().subs.is_empty(), "state left behind");
        assert_eq!(sub.snapshot().epoch(), before.epoch());
        let rejected = db
            .metrics()
            .counter_value("sgb_subscription_deltas_total", &[("outcome", "rejected")]);
        assert_eq!(rejected, 1);
    }

    /// So does a delta whose recovery rebuild fails.
    #[test]
    fn failed_recovery_leaves_no_subscription_state() {
        let (mut db, sub) = subscribed_db();
        db.execute("INSERT INTO t VALUES (1.0, 'oops')").unwrap();
        assert!(!sub.is_active());
        assert!(db.subscriptions().subs.is_empty(), "state left behind");
        assert_eq!(sub.snapshot().epoch(), 0);
    }
}
