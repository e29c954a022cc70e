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
//!   keeps a live replica (the `SgbAll` engine behind [`SgbQuery::run`])
//!   whose state always equals a from-scratch run over the live points in
//!   slot order. Inserts push one point. Deletes take the fast path when
//!   the tuple is ε-isolated from every other input point — such a tuple
//!   formed a pristine singleton group that no other tuple's candidate or
//!   overlap sets ever saw (and that consumed no arbitration randomness),
//!   so the group is marked dead in place. Any other delete drops the
//!   replica and the next [`snapshot`](MaintainedGrouping::snapshot)
//!   rebuilds it lazily — the honest fallback, since a clique that loses a
//!   member can cascade through the `ON-OVERLAP` arbitration of every
//!   later arrival.
//!
//! Ground truth: [`snapshot`](MaintainedGrouping::snapshot) is always equal
//! (full [`Grouping`] equality) to `query.run(&live_points)` over the live
//! points in slot order — pinned across random edit scripts for all three
//! operators × metrics by `tests/proptest_incremental.rs`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]

use std::sync::Arc;

use sgb_dsu::TrackedDsu;
use sgb_geom::Point;
use sgb_spatial::Grid;

use crate::all::SgbAll;
use crate::around::{build_center_index, CenterRule};
use crate::governor::{QueryGovernor, SgbError};
use crate::query::{Grouping, OpSpec, SgbQuery};
use crate::{cost, Algorithm, OverlapAction, RecordId};

/// Stable identifier of a maintained point: its insertion slot. Slots are
/// dense, append-only, and never reused, so a `SlotId` stays valid across
/// any number of unrelated deltas. The record ids of a
/// [`snapshot`](MaintainedGrouping::snapshot) are **dense ranks** over the
/// live slots (slot order), exactly the ids a from-scratch run over the
/// live points would assign.
pub type SlotId = usize;

/// Per-operator incremental state. The ε-operators keep their ε and an
/// ε-grid over the live points (cell side = ε), the delta engine's own
/// probe structure; SGB-Around needs no ε-probes.
#[derive(Clone, Debug)]
enum OpState<const D: usize> {
    /// ε-connectivity components with member lists and edge counts.
    Any {
        eps: f64,
        grid: Grid<D, SlotId>,
        dsu: TrackedDsu,
    },
    /// Fixed assignment rule plus the per-slot assignment (`Some(center)`
    /// or `None` = outlier; entries of deleted slots are stale and skipped).
    Around {
        rule: CenterRule<D>,
        assign: Vec<Option<usize>>,
        scratch: Vec<usize>,
    },
    /// The live replica, or `None` while a lazy rebuild is pending
    /// after a non-isolated delete.
    All {
        eps: f64,
        overlap: OverlapAction,
        grid: Grid<D, SlotId>,
        replica: Option<AllReplica<D>>,
    },
}

/// Live replica of a from-scratch SGB-All run over the live slots in
/// slot order, running the concrete `algorithm` resolved when it was
/// built. `pushed[rec]` is the slot the engine's record id `rec` was
/// assigned to; `rec_of[slot]` is the inverse (stale for dead slots).
#[derive(Clone, Debug)]
struct AllReplica<const D: usize> {
    engine: Box<SgbAll<D>>,
    algorithm: Algorithm,
    pushed: Vec<SlotId>,
    rec_of: Vec<RecordId>,
}

impl<const D: usize> AllReplica<D> {
    /// Pushes the `live` points of `slots` in slot order through a fresh
    /// engine for `query` ([`crate::Algorithm::Auto`] resolved from
    /// `live` — the concrete strategies are output-identical, so any
    /// resolution preserves snapshot ≡ recompute).
    fn build(
        query: &SgbQuery<D>,
        eps: f64,
        overlap: OverlapAction,
        slots: &[Option<Point<D>>],
        live: usize,
    ) -> Self {
        // The replica builds no pre-pass grid, so it resolves without a
        // budget, as `resolve_all` does under an unrestricted governor.
        let (algorithm, _) = cost::all_cost_model(query.configured_algorithm(), live);
        let mut engine = SgbAll::new(query, eps, overlap, algorithm, None);
        let mut pushed = Vec::with_capacity(live);
        let mut rec_of = vec![usize::MAX; slots.len()];
        for (slot, s) in slots.iter().enumerate() {
            if let Some(p) = s {
                rec_of[slot] = engine.push(*p);
                pushed.push(slot);
            }
        }
        Self {
            engine: Box::new(engine),
            algorithm,
            pushed,
            rec_of,
        }
    }
}

/// A similarity grouping maintained under point deltas.
///
/// Holds the points (in stable [`SlotId`] slots) and the live
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
    state: OpState<D>,
    epoch: u64,
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
        let state = match &query.op {
            OpSpec::Any { eps } => {
                let eps = *eps;
                let mut grid = Grid::new(Grid::<D, SlotId>::side_for_eps(eps));
                let mut dsu = TrackedDsu::new();
                for (slot, p) in points.iter().enumerate() {
                    grid.insert(*p, slot);
                    dsu.push();
                }
                // The exact bulk ε-join surfaces each within-ε pair exactly
                // once — the contract the edge counts rely on.
                grid.for_each_pair_within(eps, metric, |&a, &b| {
                    dsu.add_edge(a, b);
                });
                OpState::Any { eps, grid, dsu }
            }
            OpSpec::Around {
                centers,
                max_radius,
            } => {
                let (resolved, _) =
                    cost::around_cost_model(query.configured_algorithm(), centers.len(), D);
                let index = build_center_index(resolved, centers);
                let rule = CenterRule::new(&query, centers, *max_radius, Arc::new(index));
                let mut scratch = Vec::new();
                let assign = points
                    .iter()
                    .map(|p| rule.assign(&mut scratch, p))
                    .collect();
                OpState::Around {
                    rule,
                    assign,
                    scratch,
                }
            }
            OpSpec::All { eps, overlap } => {
                let mut grid = Grid::new(Grid::<D, SlotId>::side_for_eps(*eps));
                for (slot, p) in points.iter().enumerate() {
                    grid.insert(*p, slot);
                }
                let replica = AllReplica::build(&query, *eps, *overlap, &slots, live);
                OpState::All {
                    eps: *eps,
                    overlap: *overlap,
                    grid,
                    replica: Some(replica),
                }
            }
        };
        Self {
            query,
            slots,
            live,
            state,
            epoch: 0,
        }
    }

    /// The query this grouping is maintained for.
    pub fn query(&self) -> &SgbQuery<D> {
        &self.query
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
    /// query (SGB-Around), one engine push (SGB-All).
    ///
    /// # Panics
    /// If `p` has a non-finite coordinate.
    pub fn insert(&mut self, p: Point<D>) -> SlotId {
        assert!(p.is_finite(), "points must have finite coordinates");
        let slot = self.slots.len();
        let metric = self.query.configured_metric();
        match &mut self.state {
            OpState::Any { eps, grid, dsu } => {
                let (eps, id) = (*eps, dsu.push());
                debug_assert_eq!(id, slot, "dsu ids track slots");
                // Probe before inserting p, so p never pairs with itself;
                // each neighbor yields exactly one new edge.
                let mut neighbors = Vec::new();
                grid.for_each_within(&p, eps, |q, &s| {
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
                rule,
                assign,
                scratch,
            } => assign.push(rule.assign(scratch, &p)),
            OpState::All { grid, replica, .. } => {
                grid.insert(p, slot);
                // Without a replica, the pending rebuild will push every
                // live slot.
                if let Some(r) = replica {
                    let rec = r.engine.push(p);
                    debug_assert_eq!(rec, r.pushed.len());
                    r.pushed.push(slot);
                    r.rec_of.push(rec);
                }
            }
        }
        self.slots.push(Some(p));
        self.live += 1;
        self.epoch += 1;
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
        if !p.is_finite() {
            return Err(SgbError::NonFinite);
        }
        governor.check()?;
        failpoints::fail_point!("sgb_core::incremental::insert_pre", |_| Err(
            SgbError::Cancelled
        ));
        let slot = self.insert(p);
        failpoints::fail_point!("sgb_core::incremental::insert_post", |_| Err(
            SgbError::Cancelled
        ));
        Ok(slot)
    }

    /// Governed twin of [`delete`](Self::delete), with the same failure
    /// atomicity contract as [`try_insert`](Self::try_insert): errors
    /// before the `_pre` site leave the state untouched; an `Err` after it
    /// means the caller must rebuild.
    pub fn try_delete(&mut self, slot: SlotId, governor: &QueryGovernor) -> Result<bool, SgbError> {
        governor.check()?;
        failpoints::fail_point!("sgb_core::incremental::delete_pre", |_| Err(
            SgbError::Cancelled
        ));
        let applied = self.delete(slot);
        failpoints::fail_point!("sgb_core::incremental::delete_post", |_| Err(
            SgbError::Cancelled
        ));
        Ok(applied)
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
            OpState::Any { eps, grid, dsu } => {
                let eps = *eps;
                let removed = grid.remove(&p, &slot);
                debug_assert!(removed, "live slot is in the grid");
                // Exact live ε-degree of the deleted tuple (p itself is
                // already out of the grid).
                let mut neighbors = Vec::new();
                grid.for_each_within(&p, eps, |q, &s| {
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
                    let mut hits = Vec::new();
                    for &q in &members {
                        let q = q as usize;
                        if q == slot {
                            continue;
                        }
                        // A dead member has no edges to re-derive.
                        debug_assert!(self.slots[q].is_some(), "component members are live");
                        let Some(qp) = self.slots[q] else { continue };
                        hits.clear();
                        grid.for_each_within(&qp, eps, |r, &s| {
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
                eps, grid, replica, ..
            } => {
                let eps = *eps;
                let removed = grid.remove(&p, &slot);
                debug_assert!(removed, "live slot is in the grid");
                if let Some(r) = replica {
                    let mut isolated = true;
                    grid.for_each_within(&p, eps, |q, _| {
                        if isolated && metric.within(q, &p, eps) {
                            isolated = false;
                        }
                    });
                    if !(isolated && r.engine.remove_isolated_singleton(r.rec_of[slot])) {
                        *replica = None;
                    }
                }
            }
        }
        self.slots[slot] = None;
        self.live -= 1;
        self.epoch += 1;
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
        match &mut self.state {
            OpState::Any { dsu, .. } => {
                // `groups()` orders components by smallest member and
                // members ascending; ranks are monotone in slots, so the
                // remap preserves exactly the order `into_groups` produces
                // over dense ids.
                let groups: Vec<Vec<RecordId>> = dsu
                    .groups()
                    .into_iter()
                    .map(|g| g.into_iter().map(|s| rank[s]).collect())
                    .collect();
                let (resolved, _) =
                    cost::any_cost_model(self.query.configured_algorithm(), self.live, D);
                Grouping::flat(groups, Vec::new()).ran(resolved, selection, 1)
            }
            OpState::Around { rule, assign, .. } => {
                let mut groups = vec![Vec::new(); rule.num_centers()];
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
                Grouping::around(groups, outliers).ran(rule.algorithm(), selection, 1)
            }
            OpState::All {
                eps,
                overlap,
                replica,
                ..
            } => {
                let r = replica.get_or_insert_with(|| {
                    AllReplica::build(&self.query, *eps, *overlap, &self.slots, self.live)
                });
                let finished = r.engine.as_ref().clone().finish();
                let remap = |ids: &[RecordId]| -> Vec<RecordId> {
                    ids.iter().map(|&rec| rank[r.pushed[rec]]).collect()
                };
                let groups = finished.groups().iter().map(|g| remap(g)).collect();
                Grouping::flat(groups, remap(finished.eliminated())).ran(r.algorithm, selection, 1)
            }
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]
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
            OpState::All { replica, .. } => {
                assert!(replica.is_some(), "isolated delete must stay clean");
            }
            _ => unreachable!(),
        }
        assert_eq!(m.snapshot(), q.run(&m.live_points()));
        assert!(m.delete(0)); // clustered: lazy rebuild
        match &m.state {
            OpState::All { replica, .. } => assert!(replica.is_none()),
            _ => unreachable!(),
        }
        assert_eq!(m.snapshot(), q.run(&m.live_points()));
        match &m.state {
            OpState::All { replica, .. } => {
                assert!(replica.is_some(), "snapshot settles the rebuild");
            }
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
