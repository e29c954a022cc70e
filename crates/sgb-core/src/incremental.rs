//! Incremental maintenance of similarity groupings under point deltas.
//!
//! The paper's motivating workloads (check-in streams, MANET nodes in
//! motion) are update-heavy, while the batch operators rebuild the world
//! per query. This module maintains a live [`Grouping`] across
//! [`insert`](MaintainedGrouping::insert) / [`delete`](MaintainedGrouping::delete)
//! deltas in sub-linear time per update, exploiting what the
//! order-independence analysis (arXiv:1412.4303) proves about each
//! operator:
//!
//! * **SGB-Any** depends only on the ε-edge set. A [`TrackedDsu`] holds the
//!   connected components together with per-component member lists and
//!   exact edge counts. Inserts union the new tuple into its neighboring
//!   components (one grid probe). Deletes remove the tuple in place when
//!   connectivity provably survives — the tuple was isolated, a leaf, or
//!   the remaining member set is a complete graph — and otherwise fall
//!   back to a *scoped* re-cluster of just that component's members (every
//!   within-ε neighbor of a member belonged to the same component, so the
//!   probes never leak across components).
//! * **SGB-Around** assignment is per-tuple independent: inserts classify
//!   exactly one tuple against the fixed center index, deletes drop one
//!   slot. Nothing else moves.
//! * **SGB-All** arbitration is arrival-order sensitive, so the engine
//!   keeps a live streaming replica ([`SgbAll`]) whose state always equals
//!   a from-scratch stream over the live points in slot order. Inserts
//!   push one point. Deletes take the fast path when the tuple is
//!   ε-isolated from every other input point — such a tuple formed a
//!   pristine singleton group that no other tuple's candidate or overlap
//!   sets ever saw (and that consumed no arbitration randomness), so the
//!   group is marked dead in place. Any other delete marks the replica
//!   dirty and the next [`snapshot`](MaintainedGrouping::snapshot) rebuilds
//!   it lazily — the honest fallback, since a clique that loses a member
//!   can cascade through the `ON-OVERLAP` arbitration of every later
//!   arrival.
//!
//! Ground truth: [`snapshot`](MaintainedGrouping::snapshot) is always equal
//! (full [`Grouping`] equality) to `query.run(&live_points)` over the live
//! points in slot order — pinned across random edit scripts for all three
//! operators × metrics by `tests/proptest_incremental.rs`.

use std::convert::Infallible;
use std::sync::Arc;

use sgb_dsu::TrackedDsu;
use sgb_geom::Point;
use sgb_spatial::Grid;

use crate::around::{
    build_center_index, is_outlier, nearest_center_in, AroundGrouping, CenterIndex,
};
use crate::governor::{QueryGovernor, SgbError};
use crate::grouping::Grouping as FlatGrouping;
use crate::query::{Grouping, OpSpec, SgbQuery};
use crate::{cost, RecordId, SgbAll, SgbAroundConfig};
use sgb_telemetry::{Counter, Telemetry};

/// Stable identifier of a maintained point: its insertion slot. Slots are
/// dense, append-only, and never reused, so a `SlotId` stays valid across
/// any number of unrelated deltas. The record ids of a
/// [`snapshot`](MaintainedGrouping::snapshot) are **dense ranks** over the
/// live slots (slot order), exactly the ids a from-scratch run over the
/// live points would assign.
pub type SlotId = usize;

/// Per-operator incremental state.
#[derive(Clone, Debug)]
enum OpState<const D: usize> {
    /// ε-connectivity components with member lists and edge counts.
    Any { dsu: TrackedDsu },
    /// Fixed center index plus the per-slot assignment (`Some(center)` or
    /// `None` = outlier; entries of deleted slots are stale and skipped).
    Around {
        cfg: SgbAroundConfig<D>,
        index: Arc<CenterIndex<D>>,
        assign: Vec<Option<usize>>,
        scratch: Vec<usize>,
    },
    /// Streaming replica of a from-scratch run over the live slots in slot
    /// order. `pushed[rec]` is the slot the engine's record id `rec` was
    /// assigned to; `rec_of[slot]` is the inverse (stale for dead slots).
    /// `dirty` marks a pending lazy rebuild after a non-isolated delete.
    All {
        engine: Box<SgbAll<D>>,
        pushed: Vec<SlotId>,
        rec_of: Vec<RecordId>,
        dirty: bool,
    },
}

/// A similarity grouping maintained under point deltas.
///
/// Holds the points (in stable [`SlotId`] slots), the ε-grid, and the live
/// per-operator state, and applies [`insert`](Self::insert) /
/// [`delete`](Self::delete) in sub-linear time (SGB-All deletes of
/// non-isolated tuples defer an O(n) rebuild to the next snapshot —
/// see the module docs). [`snapshot`](Self::snapshot) materialises a
/// [`Grouping`] equal to `query.run(&live_points)`.
///
/// ```
/// use sgb_core::{MaintainedGrouping, SgbQuery};
/// use sgb_geom::Point;
///
/// let query = SgbQuery::any(1.5);
/// let points = vec![Point::new([0.0, 0.0]), Point::new([1.0, 0.0])];
/// let mut m = MaintainedGrouping::new(query.clone(), &points);
/// let far = m.insert(Point::new([9.0, 9.0]));
/// assert_eq!(m.snapshot().sorted_sizes(), vec![2, 1]);
/// m.delete(far);
/// m.delete(0);
/// assert_eq!(m.snapshot(), query.run(&[Point::new([1.0, 0.0])]));
/// ```
#[derive(Clone, Debug)]
pub struct MaintainedGrouping<const D: usize> {
    query: SgbQuery<D>,
    /// Point per slot; `None` once deleted. Never shrinks.
    slots: Vec<Option<Point<D>>>,
    live: usize,
    /// ε-grid over the live points (cell side = ε), the delta engine's own
    /// probe structure. `None` for SGB-Around, which needs no ε-probes.
    grid: Option<Grid<D, SlotId>>,
    state: OpState<D>,
    epoch: u64,
    /// Delta-counter sink ([`Counter::DeltasApplied`] /
    /// [`Counter::DeltasRejected`]); inert (`Telemetry::off`) by default.
    telemetry: Telemetry,
}

impl<const D: usize> MaintainedGrouping<D> {
    /// Builds the maintained state from an initial point set (slot ids
    /// `0..points.len()` in order).
    ///
    /// # Panics
    /// Like [`SgbQuery::run`] if any point has a non-finite coordinate.
    pub fn new(query: SgbQuery<D>, points: &[Point<D>]) -> Self {
        assert!(
            points.iter().all(Point::is_finite),
            "points must have finite coordinates"
        );
        let slots: Vec<Option<Point<D>>> = points.iter().copied().map(Some).collect();
        let live = slots.len();
        let metric = query.configured_metric();
        let (grid, state) = match &query.op {
            OpSpec::Any { eps } => {
                let mut grid = Grid::new(Grid::<D, SlotId>::side_for_eps(*eps));
                let mut dsu = TrackedDsu::new();
                for (slot, p) in points.iter().enumerate() {
                    grid.insert(*p, slot);
                    dsu.push();
                }
                // The exact bulk ε-join surfaces each within-ε pair exactly
                // once — the contract the edge counts rely on.
                let Ok(()) = grid.try_for_each_pair_within::<Infallible, _, _>(
                    *eps,
                    metric,
                    0,
                    1,
                    |&a, &b| {
                        dsu.add_edge(a, b);
                    },
                    usize::MAX,
                    || Ok(()),
                    None,
                );
                (Some(grid), OpState::Any { dsu })
            }
            OpSpec::Around {
                centers,
                max_radius,
            } => {
                let base = query
                    .configured_algorithm()
                    .for_around()
                    .expect("validated at query construction");
                let (resolved, _) = cost::around_cost_model(base, centers.len(), D);
                let cfg = query
                    .around_config(centers.clone(), *max_radius)
                    .algorithm(resolved);
                let index = Arc::new(build_center_index(resolved, cfg.rtree_fanout, &cfg.centers));
                let mut scratch = Vec::new();
                let assign = points
                    .iter()
                    .map(|p| {
                        let c = nearest_center_in(&index, &cfg, &mut scratch, p);
                        (!is_outlier(&cfg, p, c)).then_some(c)
                    })
                    .collect();
                (
                    None,
                    OpState::Around {
                        cfg,
                        index,
                        assign,
                        scratch,
                    },
                )
            }
            OpSpec::All { eps, .. } => {
                let mut grid = Grid::new(Grid::<D, SlotId>::side_for_eps(*eps));
                for (slot, p) in points.iter().enumerate() {
                    grid.insert(*p, slot);
                }
                let state = OpState::All {
                    engine: Box::new(Self::fresh_all_engine(&query, points.len())),
                    pushed: Vec::new(),
                    rec_of: Vec::new(),
                    dirty: false,
                };
                (Some(grid), state)
            }
        };
        let mut this = Self {
            query,
            slots,
            live,
            grid,
            state,
            epoch: 0,
            telemetry: Telemetry::off(),
        };
        if let OpState::All { .. } = this.state {
            this.rebuild_all();
        }
        this
    }

    /// The query this grouping is maintained for.
    pub fn query(&self) -> &SgbQuery<D> {
        &self.query
    }

    /// Installs a [`Telemetry`] sink. Applied deltas bump
    /// [`Counter::DeltasApplied`], rejected governed deltas bump
    /// [`Counter::DeltasRejected`], and snapshots carry the handle so
    /// [`Grouping::profile`] exposes the counts. The default `off` handle
    /// records nothing.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The installed telemetry sink (inert unless
    /// [`with_telemetry`](Self::with_telemetry) replaced it).
    pub fn telemetry_handle(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Monotone delta counter: bumps on every applied insert or delete, so
    /// two equal epochs over the same initial build imply identical live
    /// state. The serving layer stamps published snapshots with it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live (non-deleted) points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + deleted).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The point stored in `slot`, or `None` when the slot was deleted or
    /// never allocated.
    pub fn point(&self, slot: SlotId) -> Option<Point<D>> {
        self.slots.get(slot).copied().flatten()
    }

    /// The live points in slot order — the exact input a from-scratch
    /// `query.run()` equal to [`snapshot`](Self::snapshot) would receive.
    pub fn live_points(&self) -> Vec<Point<D>> {
        self.slots.iter().filter_map(|s| *s).collect()
    }

    /// Applies one insert delta, returning the new point's slot id.
    ///
    /// Cost: one grid probe + DSU unions (SGB-Any), one nearest-center
    /// query (SGB-Around), one streaming push (SGB-All).
    ///
    /// # Panics
    /// If `p` has a non-finite coordinate.
    pub fn insert(&mut self, p: Point<D>) -> SlotId {
        assert!(p.is_finite(), "points must have finite coordinates");
        let slot = self.slots.len();
        let metric = self.query.configured_metric();
        let eps = self.query.eps();
        match &mut self.state {
            OpState::Any { dsu } => {
                let id = dsu.push();
                debug_assert_eq!(id, slot, "dsu ids track slots");
                let eps = eps.expect("Any queries have an eps");
                let grid = self.grid.as_mut().expect("Any maintains a grid");
                // Probe before inserting p, so p never pairs with itself;
                // each neighbor yields exactly one new edge.
                let mut neighbors = Vec::new();
                grid.for_each_within(&p, eps, metric, |q, &s| {
                    if metric.within(q, &p, eps) {
                        neighbors.push(s);
                    }
                });
                for n in neighbors {
                    dsu.add_edge(slot, n);
                }
                grid.insert(p, slot);
            }
            OpState::Around {
                cfg,
                index,
                assign,
                scratch,
            } => {
                let c = nearest_center_in(index, cfg, scratch, &p);
                assign.push((!is_outlier(cfg, &p, c)).then_some(c));
            }
            OpState::All {
                engine,
                pushed,
                rec_of,
                dirty,
            } => {
                let grid = self.grid.as_mut().expect("All maintains a grid");
                grid.insert(p, slot);
                if *dirty {
                    // The pending rebuild will re-push every live slot.
                    rec_of.push(usize::MAX);
                } else {
                    let rec = engine.push(p);
                    debug_assert_eq!(rec, pushed.len());
                    pushed.push(slot);
                    rec_of.push(rec);
                }
            }
        }
        self.slots.push(Some(p));
        self.live += 1;
        self.epoch += 1;
        self.telemetry.add(Counter::DeltasApplied, 1);
        slot
    }

    /// Governed twin of [`insert`](Self::insert): rejects non-finite
    /// coordinates as [`SgbError::NonFinite`] and honors the governor's
    /// deadline/cancellation instead of panicking or running away.
    ///
    /// Failure atomicity: an error raised **before** the delta touches the
    /// engine (validation, the governor check, the `_pre` chaos site)
    /// leaves the maintained state untouched. The `_post` chaos site fires
    /// **after** the delta applied — modelling a fault mid-transaction —
    /// so on any `Err` the caller must treat the state as unspecified and
    /// rebuild from its source of truth (the relation layer rebuilds from
    /// the table and restores the epoch with
    /// [`advance_epoch_to`](Self::advance_epoch_to)).
    pub fn try_insert(
        &mut self,
        p: Point<D>,
        governor: &QueryGovernor,
    ) -> Result<SlotId, SgbError> {
        self.governed(|this| {
            if !p.is_finite() {
                return Err(SgbError::NonFinite);
            }
            governor.check()?;
            failpoints::fail_point!("sgb_core::incremental::insert_pre", |_| Err(
                SgbError::Cancelled
            ));
            let slot = this.insert(p);
            failpoints::fail_point!("sgb_core::incremental::insert_post", |_| Err(
                SgbError::Cancelled
            ));
            Ok(slot)
        })
    }

    /// Runs one governed delta, bumping [`Counter::DeltasRejected`] on
    /// `Err`. (Applied deltas are counted at the apply site, so a fault
    /// *after* the apply honestly records both outcomes — the state is
    /// unspecified and the caller rebuilds.)
    fn governed<T>(
        &mut self,
        delta: impl FnOnce(&mut Self) -> Result<T, SgbError>,
    ) -> Result<T, SgbError> {
        let out = delta(self);
        if out.is_err() {
            self.telemetry.add(Counter::DeltasRejected, 1);
        }
        out
    }

    /// Governed twin of [`delete`](Self::delete), with the same failure
    /// atomicity contract as [`try_insert`](Self::try_insert): errors
    /// before the `_pre` site leave the state untouched; an `Err` after it
    /// means the caller must rebuild.
    pub fn try_delete(&mut self, slot: SlotId, governor: &QueryGovernor) -> Result<bool, SgbError> {
        self.governed(|this| {
            governor.check()?;
            failpoints::fail_point!("sgb_core::incremental::delete_pre", |_| Err(
                SgbError::Cancelled
            ));
            let applied = this.delete(slot);
            failpoints::fail_point!("sgb_core::incremental::delete_post", |_| Err(
                SgbError::Cancelled
            ));
            Ok(applied)
        })
    }

    /// Raises the epoch to at least `floor`. Serving layers that replace a
    /// faulted maintained state with a fresh [`new`](Self::new) build call
    /// this with the old engine's last epoch (plus the aborted delta) so
    /// published snapshot epochs stay **monotone** across the rebuild.
    pub fn advance_epoch_to(&mut self, floor: u64) {
        self.epoch = self.epoch.max(floor);
    }

    /// Applies one delete delta. Returns `false` (and changes nothing)
    /// when `slot` is unknown or already deleted.
    ///
    /// Cost: one grid probe plus — only when the deleted tuple could have
    /// split its component — a re-cluster scoped to that component's
    /// members (SGB-Any); O(1) (SGB-Around); one grid probe, plus a lazy
    /// rebuild deferred to the next snapshot when the tuple was not
    /// ε-isolated (SGB-All).
    pub fn delete(&mut self, slot: SlotId) -> bool {
        let Some(Some(p)) = self.slots.get(slot).copied() else {
            return false;
        };
        let metric = self.query.configured_metric();
        match &mut self.state {
            OpState::Any { dsu } => {
                let eps = self.query.eps().expect("Any queries have an eps");
                let grid = self.grid.as_mut().expect("Any maintains a grid");
                let removed = grid.remove(&p, &slot);
                debug_assert!(removed, "live slot is in the grid");
                // Exact live ε-degree of the deleted tuple (p itself is
                // already out of the grid).
                let mut neighbors = Vec::new();
                grid.for_each_within(&p, eps, metric, |q, &s| {
                    if metric.within(q, &p, eps) {
                        neighbors.push(s);
                    }
                });
                let deg = neighbors.len() as u64;
                let m = dsu.component_members(slot).len() as u64;
                let e = dsu.edge_count(slot);
                debug_assert!(e >= deg);
                let remaining = m - 1;
                // Removal provably cannot split the component when the
                // tuple is isolated (deg 0), a leaf (deg 1: any survivor
                // path through it would need two edges), or the remaining
                // members form a complete graph.
                if deg <= 1 || e - deg == remaining * remaining.saturating_sub(1) / 2 {
                    dsu.remove_member(slot, deg);
                } else {
                    // Scoped re-cluster: dissolve this component only and
                    // re-derive the surviving edges by probing each member.
                    // Every within-ε neighbor of a member was connected to
                    // it before the delete, so the probes stay inside the
                    // dissolved set; `s < q` admits each unordered pair
                    // exactly once, keeping the edge counts exact.
                    let members = dsu.dissolve_component(slot);
                    dsu.remove_member(slot, 0);
                    let grid = self.grid.as_ref().expect("Any maintains a grid");
                    let mut hits = Vec::new();
                    for &q in &members {
                        let q = q as usize;
                        if q == slot {
                            continue;
                        }
                        let qp = self.slots[q].expect("component members are live");
                        hits.clear();
                        grid.for_each_within(&qp, eps, metric, |r, &s| {
                            if s < q && metric.within(r, &qp, eps) {
                                hits.push(s);
                            }
                        });
                        for &s in &hits {
                            dsu.add_edge(q, s);
                        }
                    }
                }
            }
            OpState::Around { .. } => {
                // Assignment is per-tuple: dropping the slot is the whole
                // delta (the stale `assign` entry is skipped by snapshots).
            }
            OpState::All {
                engine,
                rec_of,
                dirty,
                ..
            } => {
                let eps = self.query.eps().expect("All queries have an eps");
                let grid = self.grid.as_mut().expect("All maintains a grid");
                let removed = grid.remove(&p, &slot);
                debug_assert!(removed, "live slot is in the grid");
                if !*dirty {
                    let mut isolated = true;
                    grid.for_each_within(&p, eps, metric, |q, _| {
                        if isolated && metric.within(q, &p, eps) {
                            isolated = false;
                        }
                    });
                    if !(isolated && engine.remove_isolated_singleton(rec_of[slot])) {
                        *dirty = true;
                    }
                }
            }
        }
        self.slots[slot] = None;
        self.live -= 1;
        self.epoch += 1;
        self.telemetry.add(Counter::DeltasApplied, 1);
        true
    }

    /// Materialises the current grouping, with record ids densely
    /// re-ranked over the live slots — equal (full [`Grouping`] equality)
    /// to `self.query().run(&self.live_points())`.
    ///
    /// Takes `&mut self` because SGB-All may owe a lazy rebuild after a
    /// non-isolated delete; concurrent readers are served published
    /// `Arc<Grouping>` snapshots by the relation layer, never this call.
    pub fn snapshot(&mut self) -> Grouping {
        if matches!(self.state, OpState::All { dirty: true, .. }) {
            self.rebuild_all();
        }
        // Dense rank of each live slot — the record ids a from-scratch run
        // over the live points would use.
        let mut rank = vec![usize::MAX; self.slots.len()];
        let mut next = 0;
        for (slot, s) in self.slots.iter().enumerate() {
            if s.is_some() {
                rank[slot] = next;
                next += 1;
            }
        }
        let selection = format!("maintained incrementally (epoch {})", self.epoch);
        let mut out = match &self.state {
            OpState::Any { dsu } => {
                // `groups()` orders components by smallest member and
                // members ascending; ranks are monotone in slots, so the
                // remap preserves exactly the order `into_groups` produces
                // over dense ids.
                let groups: Vec<Vec<RecordId>> = dsu
                    .groups()
                    .into_iter()
                    .map(|g| g.into_iter().map(|s| rank[s]).collect())
                    .collect();
                let base = self
                    .query
                    .configured_algorithm()
                    .for_any()
                    .expect("validated at query construction");
                let (resolved, _) = cost::any_cost_model(base, self.live, D);
                Grouping::from_flat(
                    FlatGrouping {
                        groups,
                        eliminated: Vec::new(),
                    },
                    resolved.into(),
                    selection,
                    1,
                )
            }
            OpState::Around { cfg, assign, .. } => {
                let mut groups = vec![Vec::new(); cfg.centers.len()];
                let mut outliers = Vec::new();
                for (slot, s) in self.slots.iter().enumerate() {
                    if s.is_none() {
                        continue;
                    }
                    match assign[slot] {
                        Some(c) => groups[c].push(rank[slot]),
                        None => outliers.push(rank[slot]),
                    }
                }
                Grouping::from_around(
                    AroundGrouping { groups, outliers },
                    cfg.algorithm.into(),
                    selection,
                    1,
                )
            }
            OpState::All { engine, pushed, .. } => {
                let resolved = engine.resolved_algorithm();
                let flat = engine.as_ref().clone().finish();
                let remap = |ids: Vec<RecordId>| -> Vec<RecordId> {
                    ids.into_iter().map(|rec| rank[pushed[rec]]).collect()
                };
                Grouping::from_flat(
                    FlatGrouping {
                        groups: flat.groups.into_iter().map(remap).collect(),
                        eliminated: remap(flat.eliminated),
                    },
                    resolved.into(),
                    selection,
                    1,
                )
            }
        };
        out.set_telemetry(self.telemetry.clone());
        out
    }

    /// A fresh SGB-All streaming engine for `n` points under this query's
    /// knobs ([`crate::Algorithm::Auto`] resolved from `n` — the concrete
    /// strategies are output-identical, so any resolution preserves
    /// snapshot ≡ recompute).
    fn fresh_all_engine(query: &SgbQuery<D>, n: usize) -> SgbAll<D> {
        let OpSpec::All { eps, overlap } = &query.op else {
            unreachable!("fresh_all_engine is only called for All queries");
        };
        let (resolved, _) = cost::resolve_all(query.configured_algorithm().for_all(), n, D);
        SgbAll::new(query.all_config(*eps, *overlap).algorithm(resolved))
    }

    /// (Re)builds the SGB-All replica from the live slots in slot order,
    /// restoring the invariant that the engine state equals a from-scratch
    /// stream over the live points.
    fn rebuild_all(&mut self) {
        let mut engine = Self::fresh_all_engine(&self.query, self.live);
        let mut pushed = Vec::with_capacity(self.live);
        let mut rec_of = vec![usize::MAX; self.slots.len()];
        for (slot, s) in self.slots.iter().enumerate() {
            if let Some(p) = s {
                let rec = engine.push(*p);
                rec_of[slot] = rec;
                pushed.push(slot);
            }
        }
        let OpState::All {
            engine: e,
            pushed: pu,
            rec_of: ro,
            dirty,
        } = &mut self.state
        else {
            unreachable!("rebuild_all is only called for All queries");
        };
        **e = engine;
        *pu = pushed;
        *ro = rec_of;
        *dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OverlapAction, SgbQuery};
    use sgb_geom::Metric;

    fn pt(x: f64, y: f64) -> Point<2> {
        Point::new([x, y])
    }

    /// Deterministic pseudo-random cloud.
    fn cloud(n: usize, seed: u64, scale: f64) -> Vec<Point<2>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| Point::new([next() * scale, next() * scale]))
            .collect()
    }

    #[test]
    fn any_insert_merges_components() {
        let q = SgbQuery::any(1.0);
        let mut m = MaintainedGrouping::new(q.clone(), &[pt(0.0, 0.0), pt(3.0, 0.0)]);
        assert_eq!(m.snapshot().num_groups(), 2);
        // A bridge point connects both.
        m.insert(pt(1.0, 0.0));
        m.insert(pt(2.0, 0.0));
        let snap = m.snapshot();
        assert_eq!(snap.num_groups(), 1);
        assert_eq!(snap, q.run(&m.live_points()));
    }

    #[test]
    fn any_delete_splits_via_scoped_recluster() {
        // Chain 0–1–2: deleting the middle splits the component.
        let q = SgbQuery::any(1.0);
        let pts = [pt(0.0, 0.0), pt(1.0, 0.0), pt(2.0, 0.0)];
        let mut m = MaintainedGrouping::new(q.clone(), &pts);
        assert_eq!(m.snapshot().num_groups(), 1);
        assert!(m.delete(1));
        let snap = m.snapshot();
        assert_eq!(snap.num_groups(), 2);
        assert_eq!(snap, q.run(&m.live_points()));
        assert!(!m.delete(1), "double delete is a no-op");
    }

    #[test]
    fn around_reassigns_only_the_edited_tuple() {
        let q = SgbQuery::around(vec![pt(0.0, 0.0), pt(10.0, 0.0)]).max_radius(3.0);
        let mut m = MaintainedGrouping::new(q.clone(), &[pt(1.0, 0.0), pt(9.0, 0.0)]);
        let outlier = m.insert(pt(5.0, 0.0));
        assert_eq!(m.snapshot(), q.run(&m.live_points()));
        m.delete(outlier);
        m.delete(0);
        assert_eq!(m.snapshot(), q.run(&m.live_points()));
    }

    #[test]
    fn all_isolated_delete_takes_the_fast_path() {
        let q = SgbQuery::all(1.0).overlap(OverlapAction::Eliminate);
        let pts = [pt(0.0, 0.0), pt(0.5, 0.0), pt(50.0, 50.0)];
        let mut m = MaintainedGrouping::new(q.clone(), &pts);
        assert!(m.delete(2)); // isolated singleton: in-place removal
        match &m.state {
            OpState::All { dirty, .. } => assert!(!dirty, "isolated delete must stay clean"),
            _ => unreachable!(),
        }
        assert_eq!(m.snapshot(), q.run(&m.live_points()));
        assert!(m.delete(0)); // clustered: lazy rebuild
        match &m.state {
            OpState::All { dirty, .. } => assert!(dirty),
            _ => unreachable!(),
        }
        assert_eq!(m.snapshot(), q.run(&m.live_points()));
        match &m.state {
            OpState::All { dirty, .. } => assert!(!dirty, "snapshot settles the rebuild"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn mixed_script_matches_recompute_for_every_operator_and_metric() {
        let points = cloud(160, 0xD0, 8.0);
        for metric in Metric::ALL {
            let queries: Vec<SgbQuery<2>> = vec![
                SgbQuery::all(0.8).metric(metric),
                SgbQuery::all(0.8)
                    .metric(metric)
                    .overlap(OverlapAction::Eliminate),
                SgbQuery::any(0.8).metric(metric),
                SgbQuery::around(vec![pt(2.0, 2.0), pt(6.0, 6.0)])
                    .metric(metric)
                    .max_radius(2.5),
            ];
            for q in queries {
                let mut m = MaintainedGrouping::new(q.clone(), &points[..100]);
                let extra = cloud(30, 0xD1, 8.0);
                let mut state = 0xD2u64;
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as usize
                };
                for p in extra {
                    m.insert(p);
                    let victim = next() % m.slot_count();
                    m.delete(victim);
                    assert_eq!(m.snapshot(), q.run(&m.live_points()), "{metric} {q:?}");
                }
            }
        }
    }

    #[test]
    fn governed_deltas_validate_check_and_stay_atomic_pre_apply() {
        let q = SgbQuery::any(1.0);
        let mut m = MaintainedGrouping::new(q.clone(), &[pt(0.0, 0.0)]);
        let free = QueryGovernor::unrestricted();
        let slot = m.try_insert(pt(1.0, 0.0), &free).unwrap();
        assert!(m.try_delete(slot, &free).unwrap());
        assert!(matches!(
            m.try_insert(pt(f64::NAN, 0.0), &free),
            Err(SgbError::NonFinite)
        ));
        let token = crate::CancelToken::new();
        token.cancel();
        let cancelled = QueryGovernor::unrestricted().with_cancel_token(token);
        let before = m.epoch();
        assert!(matches!(
            m.try_insert(pt(2.0, 0.0), &cancelled),
            Err(SgbError::Cancelled)
        ));
        assert!(matches!(
            m.try_delete(0, &cancelled),
            Err(SgbError::Cancelled)
        ));
        assert_eq!(
            m.epoch(),
            before,
            "pre-apply failures leave the state untouched"
        );
        m.advance_epoch_to(100);
        assert_eq!(m.epoch(), 100);
        m.advance_epoch_to(5);
        assert_eq!(m.epoch(), 100, "the epoch never goes backwards");
        assert_eq!(m.snapshot(), q.run(&m.live_points()));
    }

    #[test]
    fn telemetry_counts_applied_and_rejected_deltas() {
        let tel = Telemetry::new();
        let q = SgbQuery::any(1.0);
        let mut m = MaintainedGrouping::new(q, &[pt(0.0, 0.0)]).with_telemetry(tel.clone());
        let free = QueryGovernor::unrestricted();
        let slot = m.try_insert(pt(1.0, 0.0), &free).unwrap();
        assert!(m.try_delete(slot, &free).unwrap());
        m.insert(pt(2.0, 0.0)); // ungoverned deltas count too
        assert!(matches!(
            m.try_insert(pt(f64::NAN, 0.0), &free),
            Err(SgbError::NonFinite)
        ));
        assert!(!m.try_delete(999, &free).unwrap(), "miss: applied, no-op");
        let profile = m.snapshot().profile().expect("snapshot carries the sink");
        assert_eq!(profile.counter(Counter::DeltasApplied), 3);
        assert_eq!(profile.counter(Counter::DeltasRejected), 1);
        let inert = MaintainedGrouping::new(SgbQuery::any(1.0), &[pt(0.0, 0.0)]);
        assert!(!inert.telemetry_handle().is_enabled());
    }

    #[test]
    fn delete_everything_then_refill() {
        let q = SgbQuery::any(0.5);
        let pts = cloud(40, 9, 3.0);
        let mut m = MaintainedGrouping::new(q.clone(), &pts);
        for slot in 0..40 {
            assert!(m.delete(slot));
        }
        assert!(m.is_empty());
        assert_eq!(m.snapshot(), q.run(&[]));
        for p in &pts {
            m.insert(*p);
        }
        assert_eq!(m.len(), 40);
        assert_eq!(m.snapshot(), q.run(&pts));
        assert_eq!(m.epoch(), 80);
    }
}
