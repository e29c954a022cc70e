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
//!   exactly one tuple by the batch's own per-chunk search, through a cell
//!   memo the grouping keeps (on the `Grid` path), and deletes drop their
//!   slots. Nothing else moves.
//! * **SGB-All** arbitration depends on arrival order (arXiv:1412.4303):
//!   a clique that loses a member can change the `ON-OVERLAP` outcome of
//!   every later arrival, so no delete stays local. Its deltas only store
//!   or clear a slot (O(1)), and each
//!   [`snapshot`](MaintainedGrouping::snapshot) is one recompute over the
//!   live points in slot order: the one-shot engine, with its ε-component
//!   labels on the `Grid` path.
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

use crate::around::{self, build_center_grid, CellMemo, CenterId, CenterRule};
use crate::governor::{QueryGovernor, SgbError, CHECK_INTERVAL};
use crate::query::{Grouping, OpSpec, SgbQuery};
use crate::{cost, Algorithm, RecordId};

/// Stable identifier of a maintained point: its insertion slot. Slots are
/// dense, append-only, and never reused, so a `SlotId` stays valid across
/// any number of unrelated deltas. The record ids of a
/// [`snapshot`](MaintainedGrouping::snapshot) are **dense ranks** over the
/// live slots (slot order), exactly the ids a from-scratch run over the
/// live points would assign.
pub type SlotId = usize;

/// Per-operator incremental state. SGB-Any keeps its ε and an ε-grid over
/// the live points (cell side = ε), the delta engine's own probe
/// structure; SGB-Around needs no ε-probes, and SGB-All keeps nothing but
/// the slots.
#[derive(Clone, Debug)]
enum OpState<const D: usize> {
    /// ε-connectivity components with their member lists.
    Any {
        eps: f64,
        grid: Grid<D, SlotId>,
        dsu: TrackedDsu,
    },
    /// Fixed assignment rule, its cell memo (bounded, see
    /// [`crate::around`]), and the per-slot assignment: the center, or an
    /// index past every center for an outlier (entries of deleted slots
    /// are stale and skipped).
    Around {
        rule: CenterRule<D>,
        memo: CellMemo<D>,
        assign: Vec<CenterId>,
    },
    /// Nothing beyond the slots: every snapshot recomputes.
    All,
}

/// A similarity grouping maintained under point deltas.
///
/// Holds the points (in stable [`SlotId`] slots) and the live
/// per-operator state, and applies [`insert`](Self::insert) /
/// [`delete`](Self::delete) in sub-linear time. [`snapshot`](Self::snapshot)
/// materialises a [`Grouping`] equal to `query.run(&live_points)`; for
/// SGB-All it is that run (see the module docs).
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
                let grid =
                    (resolved == Algorithm::Grid).then(|| Arc::new(build_center_grid(centers)));
                let rule = CenterRule::new(&query, centers, *max_radius, grid);
                let mut memo = rule.memo(points.len());
                let mut assign = Vec::with_capacity(points.len());
                around::assign_into(&rule, &mut memo, points, &mut assign);
                OpState::Around { rule, memo, assign }
            }
            OpSpec::All { .. } => OpState::All,
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

    /// The live points in slot order — the exact input a from-scratch
    /// `query.run()` equal to [`snapshot`](Self::snapshot) would receive.
    pub fn live_points(&self) -> Vec<Point<D>> {
        self.slots.iter().filter_map(|s| *s).collect()
    }

    /// Applies one insert delta, returning the new point's slot id.
    ///
    /// Cost: one grid probe + DSU unions (SGB-Any), one nearest-center
    /// query (SGB-Around), O(1) (SGB-All).
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
            OpState::Around { rule, memo, assign } => {
                around::assign_into(rule, memo, &[p], assign);
            }
            OpState::All => {}
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
    /// its survivors. SGB-Around and SGB-All only clear the slots.
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
    /// re-cluster of its component (SGB-Any); O(1) (SGB-Around and
    /// SGB-All).
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
            // SGB-Around assignment is per-tuple, so dropping the slot is
            // the whole delta (the stale `assign` entry is skipped by
            // snapshots); SGB-All recomputes at the snapshot.
            OpState::Around { .. } | OpState::All => {}
        }
        self.live -= targets.len();
        self.epoch += targets.len() as u64;
        Ok(targets.len())
    }

    /// Materialises the current grouping, with record ids densely
    /// re-ranked over the live slots — equal (full [`Grouping`] equality)
    /// to `self.query().run(&self.live_points())`. For SGB-All it is that
    /// run, ungoverned, with the epoch as its reason.
    pub fn snapshot(&self) -> Grouping {
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
        match &self.state {
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
                    match groups.get_mut(assign[slot]) {
                        Some(group) => group.push(rank[slot]),
                        None => outliers.push(rank[slot]),
                    }
                }
                Grouping::around(groups, outliers).ran(rule.algorithm(), selection, 1)
            }
            OpState::All => {
                let out = self.query.run(&self.live_points());
                let resolved = out.resolved_algorithm();
                out.ran(resolved, selection, 1)
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
    fn all_snapshot_is_the_run_over_the_live_points() {
        // Past the all-pairs bound, so `Auto` resolves to `Grid` and the
        // snapshot runs the component pre-pass.
        let points = cloud(400, 0xA1, 8.0);
        for overlap in [OverlapAction::JoinAny, OverlapAction::FormNewGroup] {
            let q = SgbQuery::all(0.6).overlap(overlap);
            let mut m = MaintainedGrouping::new(q.clone(), &points);
            for slot in [0, 7, 7, 399] {
                m.delete(slot);
                m.insert(pt(4.0, f64::from(slot as u32) * 0.01));
                let snap = m.snapshot();
                assert_eq!(snap, q.run(&m.live_points()), "{overlap:?}");
                assert_eq!(snap.resolved_algorithm(), Algorithm::Grid);
                let reason = format!("maintained incrementally (epoch {})", m.epoch());
                assert_eq!(snap.selection_reason(), reason);
            }
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
