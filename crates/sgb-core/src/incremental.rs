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
//! * **SGB-Any** groups are the connected components of the ε-graph, and
//!   nothing else decides them. A [`TrackedDsu`] holds those components
//!   with their member lists, and tracks connectivity only: any spanning
//!   subset of the ε-edges gives the same components. The build and every
//!   re-cluster union the pairs of one connectivity join
//!   ([`SortedCells::try_connect`], the spanning-pair join one-shot SGB-Any
//!   runs, on one shard). Inserts union the new tuple with each
//!   ε-neighbor (one grid probe). Deletes run as one batch
//!   ([`try_delete_many`](MaintainedGrouping::try_delete_many); a single
//!   delete is a batch of one). A target with at most one ε-neighbor left
//!   (isolated, or a leaf: any survivor path through it would need two
//!   edges) is removed in place; any other marks its component. Each
//!   marked component is then dissolved and re-clustered **once**, however
//!   many members the batch took from it, by one connectivity join over
//!   its survivors (every within-ε neighbor of a survivor belonged to the
//!   same component, so the join never needs points outside it). Because
//!   the ε-graph alone decides the groups, settling a batch together gives
//!   the answer of deleting its slots one at a time.
//! * **SGB-Around** assignment is per-tuple independent: inserts classify
//!   exactly one tuple against the fixed center index, deletes drop their
//!   slots. Nothing else moves.
//! * **SGB-All** arbitration is arrival-order sensitive, so the engine
//!   keeps a live replica (the `SgbAll` engine behind [`SgbQuery::run`])
//!   whose state always equals a from-scratch run over the live points in
//!   slot order. Inserts push one point. A batch deletes slot by slot:
//!   each takes the fast path when the tuple is ε-isolated from every
//!   other input point — such a tuple formed a pristine singleton group
//!   that no other tuple's candidate or overlap sets ever saw (and that
//!   consumed no arbitration randomness), so the group is marked dead in
//!   place. Any other delete drops the
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

use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::Arc;

use sgb_dsu::TrackedDsu;
use sgb_geom::Point;
use sgb_spatial::{Grid, SortedCells};

use crate::all::SgbAll;
use crate::around::{build_center_index, CenterRule};
use crate::governor::{QueryGovernor, SgbError, CHECK_INTERVAL};
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
    /// ε-connectivity components with their member lists.
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
                let side = Grid::<D, SlotId>::side_for_eps(eps);
                let mut grid = Grid::new(side);
                let mut dsu = TrackedDsu::new();
                for (slot, p) in points.iter().enumerate() {
                    grid.insert(*p, slot);
                    dsu.push();
                }
                // Slot ids are input positions, the sorted layout's
                // payloads; nothing paces the build.
                let Ok(()) = SortedCells::from_points(side, points).try_connect(
                    eps,
                    metric,
                    |a, b| dsu.union(a, b),
                    usize::MAX,
                    || Ok::<(), Infallible>(()),
                );
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
                // Probe before inserting p, so p never pairs with itself.
                grid.for_each_within(&p, eps, |q, &s| {
                    if metric.within(q, &p, eps) {
                        dsu.union(slot, s);
                    }
                });
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
    /// rebuild from its source of truth (the relation layer deactivates the
    /// subscription on a timeout, and otherwise rebuilds from the table and
    /// restores the epoch with [`advance_epoch_to`](Self::advance_epoch_to)).
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

    /// Governed twin of [`delete`](Self::delete): the one-slot case of
    /// [`try_delete_many`](Self::try_delete_many), with its failure
    /// atomicity contract.
    pub fn try_delete(&mut self, slot: SlotId, governor: &QueryGovernor) -> Result<bool, SgbError> {
        Ok(self.try_delete_many(&[slot], governor)? == 1)
    }

    /// Applies the deletion of `slots` as one batch and returns how many
    /// live slots it removed; unknown, dead and repeated entries are
    /// skipped. The epoch advances by one per removed slot, and the result
    /// equals deleting the slots one at a time in order.
    ///
    /// Cost: SGB-Any settles every removal of an isolated tuple or a leaf
    /// in place (one grid probe each, as in [`delete`](Self::delete)) and
    /// re-clusters every other affected component **once**, however many
    /// of its members the batch removes, with one connectivity join over
    /// its survivors. SGB-Around and SGB-All apply their per-slot deltas in
    /// order.
    ///
    /// Failure atomicity, as for [`try_insert`](Self::try_insert): the
    /// governor check and the `_pre` chaos site run once per slot before
    /// the batch touches any state, so an error there leaves the state
    /// untouched. The governor is checked again before each re-cluster and
    /// paces its join every [`CHECK_INTERVAL`] candidates, and the `_post`
    /// site fires once per slot after the batch applied; an `Err` from
    /// either means the caller must rebuild (the relation layer
    /// deactivates the subscription on a timeout).
    pub fn try_delete_many(
        &mut self,
        slots: &[SlotId],
        governor: &QueryGovernor,
    ) -> Result<usize, SgbError> {
        for _ in slots {
            governor.check()?;
            failpoints::fail_point!("sgb_core::incremental::delete_pre", |_| Err(
                SgbError::Cancelled
            ));
        }
        let removed = self.delete_batch(slots, governor)?;
        for _ in slots {
            failpoints::fail_point!("sgb_core::incremental::delete_post", |_| Err(
                SgbError::Cancelled
            ));
        }
        Ok(removed)
    }

    /// Raises the epoch to at least `floor`. Serving layers that replace a
    /// faulted maintained state with a fresh [`new`](Self::new) build call
    /// this with the old engine's last epoch (plus the aborted delta) so
    /// published snapshot epochs stay **monotone** across the rebuild.
    pub fn advance_epoch_to(&mut self, floor: u64) {
        self.epoch = self.epoch.max(floor);
    }

    /// Applies one delete delta. Returns `false` (and changes nothing)
    /// when `slot` is unknown or already deleted. It is the one-slot case
    /// of [`try_delete_many`](Self::try_delete_many), whose cost docs
    /// apply: O(degree) when the tuple is isolated or a leaf, else one
    /// re-cluster of its component (SGB-Any);
    /// O(1) (SGB-Around); one grid probe, plus a lazy rebuild deferred to
    /// the next snapshot when the tuple was not ε-isolated (SGB-All).
    pub fn delete(&mut self, slot: SlotId) -> bool {
        // An unrestricted governor never fails.
        matches!(
            self.delete_batch(&[slot], &QueryGovernor::unrestricted()),
            Ok(1)
        )
    }

    /// The one delete path behind [`delete`](Self::delete) and
    /// [`try_delete_many`](Self::try_delete_many); polls `governor` before
    /// each SGB-Any re-cluster.
    fn delete_batch(
        &mut self,
        slots: &[SlotId],
        governor: &QueryGovernor,
    ) -> Result<usize, SgbError> {
        // Taking each target out of the slot table first makes a repeated
        // entry find its slot dead.
        let targets: Vec<(SlotId, Point<D>)> = slots
            .iter()
            .filter_map(|&slot| Some((slot, self.slots.get_mut(slot)?.take()?)))
            .collect();
        let metric = self.query.configured_metric();
        match &mut self.state {
            OpState::Any { eps, grid, dsu } => {
                let eps = *eps;
                // Roots of the components some target may split. Nothing
                // merges or dissolves before the re-clusters below, so a
                // component keeps its root until then.
                let mut marked = BTreeSet::new();
                for &(slot, p) in &targets {
                    let removed = grid.remove(&p, &slot);
                    debug_assert!(removed, "live slot is in the grid");
                    let root = dsu.find(slot);
                    if marked.contains(&root) {
                        continue;
                    }
                    // The tuple's ε-neighbours among its component's
                    // members still in the forest, counted up to two: the
                    // targets settled before it are out of the grid, those
                    // after it are not, and no probe hit leaves the
                    // component.
                    let mut degree = 0;
                    grid.for_each_within(&p, eps, |q, _| {
                        if degree < 2 && metric.within(q, &p, eps) {
                            degree += 1;
                        }
                    });
                    // An isolated tuple or a leaf cannot split its
                    // component: any survivor path through it would need
                    // two of its edges.
                    if degree < 2 {
                        dsu.remove_member(slot);
                    } else {
                        marked.insert(root);
                    }
                }
                // One re-cluster per marked component: dissolve it, drop its
                // targets, and union the pairs of one connectivity join over
                // its survivors, as `new` builds the components. Every
                // within-ε neighbour of a survivor was in its component, so
                // the join needs no other points.
                let side = Grid::<D, SlotId>::side_for_eps(eps);
                for root in marked {
                    governor.check()?;
                    let mut survivors = Vec::new();
                    let mut points = Vec::new();
                    for member in dsu.dissolve_component(root) {
                        let member = member as usize;
                        match self.slots[member] {
                            Some(p) => {
                                survivors.push(member);
                                points.push(p);
                            }
                            None => dsu.remove_member(member),
                        }
                    }
                    SortedCells::from_points(side, &points).try_connect(
                        eps,
                        metric,
                        |a, b| dsu.union(survivors[a], survivors[b]),
                        CHECK_INTERVAL as usize,
                        || governor.check(),
                    )?;
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
                for &(slot, p) in &targets {
                    let removed = grid.remove(&p, &slot);
                    debug_assert!(removed, "live slot is in the grid");
                    let Some(r) = replica else { continue };
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
        self.live -= targets.len();
        self.epoch += targets.len() as u64;
        Ok(targets.len())
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

    /// Brute-force check of the SGB-Any forest: every two live slots
    /// within ε share a component.
    fn assert_neighbours_share_a_component(m: &mut MaintainedGrouping<2>) {
        let metric = m.query.configured_metric();
        let OpState::Any { eps, dsu, .. } = &mut m.state else {
            unreachable!()
        };
        let live: Vec<(SlotId, Point<2>)> = m
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, p)| Some((slot, (*p)?)))
            .collect();
        for (i, &(a, p)) in live.iter().enumerate() {
            for &(b, q) in &live[i + 1..] {
                if metric.within(&p, &q, *eps) {
                    assert_eq!(dsu.find(a), dsu.find(b), "ε-neighbours {a}, {b}");
                }
            }
        }
    }

    #[test]
    fn any_batch_delete_splits_a_path_cut_twice() {
        // Path 0–1–2–3: each of 1 and 2 is a leaf once the other is gone,
        // but together they cut the path, so the batch must re-cluster.
        let q = SgbQuery::any(1.0);
        let pts = [pt(0.0, 0.0), pt(1.0, 0.0), pt(2.0, 0.0), pt(3.0, 0.0)];
        let mut m = MaintainedGrouping::new(q.clone(), &pts);
        let free = QueryGovernor::unrestricted();
        assert_eq!(m.try_delete_many(&[2, 1, 2], &free).unwrap(), 2);
        assert_eq!(m.epoch(), 2);
        assert_neighbours_share_a_component(&mut m);
        let snap = m.snapshot();
        assert_eq!(snap.num_groups(), 2);
        assert_eq!(snap, q.run(&m.live_points()));
    }

    #[test]
    fn any_batch_delete_equals_single_deletes_and_keeps_edge_counts_exact() {
        // A dense cloud, where most components are large, and a jittered
        // line, where most are paths: a batch removes some targets in
        // place and marks the others' components for one re-cluster.
        let line: Vec<Point<2>> = cloud(120, 0xBC, 1.0)
            .iter()
            .enumerate()
            .map(|(i, p)| pt(i as f64 * 0.5 + p.coord(0), p.coord(1)))
            .collect();
        for (points, eps) in [(cloud(200, 0xBA, 6.0), 0.6), (line, 0.9)] {
            for metric in Metric::ALL {
                batch_delete_script(SgbQuery::any(eps).metric(metric), &points);
            }
        }
    }

    /// Random batches (some slots repeat, some are dead already) against
    /// the same slots deleted one at a time, with inserts between.
    fn batch_delete_script(q: SgbQuery<2>, points: &[Point<2>]) {
        let metric = q.configured_metric();
        let mut batched = MaintainedGrouping::new(q.clone(), points);
        let mut single = MaintainedGrouping::new(q.clone(), points);
        let mut state = 0xBBu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for round in 0..10 {
            let batch: Vec<SlotId> = (0..16).map(|_| next() % batched.slot_count()).collect();
            let before = batched.epoch();
            let removed = batched
                .try_delete_many(&batch, &QueryGovernor::unrestricted())
                .unwrap();
            let one_by_one = batch.iter().filter(|&&slot| single.delete(slot)).count();
            assert_eq!(removed, one_by_one, "{metric} round {round}");
            assert_eq!(batched.epoch(), before + removed as u64);
            assert_neighbours_share_a_component(&mut batched);
            let snap = batched.snapshot();
            assert_eq!(snap, single.snapshot(), "{metric} round {round}");
            assert_eq!(
                snap,
                q.run(&batched.live_points()),
                "{metric} round {round}"
            );
            for p in cloud(6, round, 6.0) {
                batched.insert(p);
                single.insert(p);
            }
            assert_neighbours_share_a_component(&mut batched);
        }
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
