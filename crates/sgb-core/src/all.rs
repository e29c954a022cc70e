//! The SGB-All operator (Section 6): distance-to-all (clique) grouping.
//!
//! A point belongs to a group only when it is within ε of *every* member
//! (each group is a clique of the ε-threshold graph). Points qualifying for
//! several groups are arbitrated by the `ON-OVERLAP` clause. The framework
//! (Procedure 1) processes points in arrival order:
//!
//! 1. `FindCloseGroups` splits the existing groups into *candidates* (all
//!    members within ε of the new point) and *overlap groups* (some but not
//!    all members within ε). Three interchangeable strategies implement it:
//!    [`AllAlgorithm::AllPairs`] (Procedure 2, scans every point),
//!    [`AllAlgorithm::BoundsChecking`] (Procedure 4, constant-time ε-All
//!    rectangle tests per group) and [`AllAlgorithm::Indexed`] (Procedure 5,
//!    metric-aware range query on an on-the-fly R-tree of group
//!    rectangles). Under the conservative metrics (`L1`/`L2`, see
//!    [`sgb_geom::metric::RectFilter`]) the rectangle filter admits false
//!    positives, refined by the convex hull test (Procedure 6).
//! 2. `ProcessGroupingALL` (Procedure 3) places the point: into a new group
//!    (no candidates), the unique candidate, or per the `ON-OVERLAP` clause.
//! 3. `ProcessOverlap` realises `ELIMINATE` / `FORM-NEW-GROUP` on the
//!    overlap groups' affected members; `FORM-NEW-GROUP` re-groups the
//!    deferred set `S'` recursively at the end.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sgb_geom::{ConvexHull, EpsAllRegion, Point, Rect, RectFilter};
use sgb_spatial::{Grid, RTree};

use crate::{cost, AllAlgorithm, Grouping, OverlapAction, RecordId, SgbAllConfig};

type GroupId = usize;

/// Narrows a `D`-dimensional point to 2-D; only called when `D == 2`, where
/// it is a plain copy.
#[inline]
fn to2<const D: usize>(p: &Point<D>) -> Point<2> {
    debug_assert_eq!(D, 2);
    Point::new([p.coord(0), p.coord(1)])
}

/// State of one (possibly emptied) group.
#[derive(Clone, Debug)]
struct GroupState<const D: usize> {
    /// Members in join order, with their points (so overlap processing and
    /// hull rebuilds never need an external lookup).
    members: Vec<(RecordId, Point<D>)>,
    /// ε-All region + member MBR (Definition 5), maintained incrementally.
    region: EpsAllRegion<D>,
    /// Cached convex hull of the members — the false-positive refinement of
    /// Section 6.4. Maintained only for conservative-filter metrics
    /// (`L1`/`L2`) in 2-D and only once the group reaches the configured
    /// hull threshold; otherwise (`None`) the exact check falls back to a
    /// member scan.
    hull: Option<ConvexHull>,
    /// Rectangle currently registered for this group in `Groups_IX`.
    indexed_rect: Option<Rect<D>>,
}

impl<const D: usize> GroupState<D> {
    fn is_dead(&self) -> bool {
        self.members.is_empty()
    }
}

/// Outcome of testing one group against the incoming point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GroupTest {
    /// Not a candidate; no member within ε (or overlap tracking is off).
    Far,
    /// Every member is within ε — `CandidateGroups` material.
    Candidate,
    /// Some but not all members within ε — `OverlapGroups` material.
    Overlap,
}

/// Refinement after the allowed-rectangle filter passed, driven by the
/// metric's [`RectFilter`] policy rather than per-metric special cases:
/// with an exact rectangle filter (`L∞`) the hit *is* the answer; with a
/// conservative one (`L1`/`L2` — any metric whose ε-ball is a proper subset
/// of the ε-square) the convex-hull test (Procedure 6) or a member scan
/// settles candidacy, and a false positive may still be an overlap group.
#[inline(always)]
fn refine_candidate<const D: usize>(
    g: &GroupState<D>,
    p: &Point<D>,
    cfg: &SgbAllConfig,
    track_overlaps: bool,
) -> GroupTest {
    if g.is_dead() {
        return GroupTest::Far;
    }
    match cfg.metric.rect_filter() {
        RectFilter::Exact => GroupTest::Candidate,
        RectFilter::Conservative => {
            let exact = match &g.hull {
                // Procedure 6: inside the hull, or within ε of the
                // farthest hull vertex — valid for every metric with
                // convex balls (see `ConvexHull::admits`).
                Some(h) => h.admits(&to2(p), cfg.eps, cfg.metric),
                // No hull cache (small group or 3-D): verify against
                // every member.
                None => {
                    let (eps, metric) = (cfg.eps, cfg.metric);
                    g.members.iter().all(|(_, q)| metric.within(p, q, eps))
                }
            };
            if exact {
                GroupTest::Candidate
            } else if track_overlaps {
                // The rect filter passed, so p is inside the reach region:
                // only the member scan is left.
                scan_overlap(g, p, cfg)
            } else {
                GroupTest::Far
            }
        }
    }
}

/// Final overlap check: is any member within ε of `p`?
#[inline(always)]
fn scan_overlap<const D: usize>(g: &GroupState<D>, p: &Point<D>, cfg: &SgbAllConfig) -> GroupTest {
    let (eps, metric) = (cfg.eps, cfg.metric);
    if g.members.iter().any(|(_, q)| metric.within(p, q, eps)) {
        GroupTest::Overlap
    } else {
        GroupTest::Far
    }
}

/// One processing pass of the SGB-All framework over a stream of points.
/// `FORM-NEW-GROUP` runs several passes (the recursion over `S'`), each on a
/// fresh `Engine`. `Clone` lets the incremental engine materialise a
/// snapshot (clone + [`SgbAll::finish`]) without disturbing the live state.
#[derive(Clone, Debug)]
struct Engine<const D: usize> {
    cfg: SgbAllConfig,
    /// The concrete search strategy ([`AllAlgorithm::Auto`] resolved at
    /// construction — streams have unknown cardinality, so `Auto` assumes
    /// the scalable regime; the one-shot [`sgb_all`] resolves from the
    /// true `n` before building the engine).
    algorithm: AllAlgorithm,
    groups: Vec<GroupState<D>>,
    /// Structure-of-arrays mirror of each group's allowed region, so the
    /// Bounds-Checking scan streams through a dense rectangle directory
    /// (the paper keeps the rectangles in the aggregate hash-table
    /// directory for the same reason). Dead groups hold an empty rect.
    allowed_cache: Vec<Rect<D>>,
    /// Mirror of each group's reach region (MBR dilated by ε); only read
    /// when overlap groups are tracked.
    reach_cache: Vec<Rect<D>>,
    live_groups: usize,
    /// `Groups_IX` of Procedure 5 (only for [`AllAlgorithm::Indexed`]).
    index: Option<RTree<D, GroupId>>,
    /// ε-grid over the live members (only for [`AllAlgorithm::Grid`]):
    /// cell side = ε, payload = record id. Members removed by overlap
    /// processing stay in the grid as tombstones — [`Engine::membership`]
    /// is the source of truth, so stale entries simply resolve to no
    /// group (removed members are either eliminated or deferred to a
    /// fresh engine, never re-inserted here).
    grid: Option<Grid<D, RecordId>>,
    /// Live-member record → current group, maintained only alongside
    /// `grid`.
    membership: HashMap<RecordId, GroupId>,
    rng: SmallRng,
    /// `S'`: points deferred by FORM-NEW-GROUP.
    deferred: Vec<(RecordId, Point<D>)>,
    /// Records dropped by ELIMINATE, in drop order.
    eliminated: Vec<RecordId>,
    /// Scratch buffers reused across `process` calls.
    scratch_candidates: Vec<GroupId>,
    scratch_overlaps: Vec<GroupId>,
    scratch_window: Vec<GroupId>,
    /// Traversal scratch for the R-tree range probe, so the indexed hot
    /// loop allocates nothing per point.
    scratch_stack: Vec<usize>,
    /// Candidate/overlap groups surfaced by `FindCloseGroups` across every
    /// processed point — the SGB-All analogue of a join's candidate-pair
    /// count, surfaced through the query telemetry.
    candidates_tested: u64,
}

impl<const D: usize> Engine<D> {
    fn new(cfg: SgbAllConfig, rng: SmallRng) -> Self {
        let (algorithm, _) = cost::resolve_all_streaming(cfg.algorithm, D);
        let index = match algorithm {
            AllAlgorithm::Indexed => Some(RTree::with_max_entries(cfg.rtree_fanout)),
            _ => None,
        };
        let grid = match algorithm {
            AllAlgorithm::Grid => Some(Grid::new(Grid::<D, RecordId>::side_for_eps(cfg.eps))),
            _ => None,
        };
        Self {
            cfg,
            algorithm,
            groups: Vec::new(),
            allowed_cache: Vec::new(),
            reach_cache: Vec::new(),
            live_groups: 0,
            index,
            grid,
            membership: HashMap::new(),
            rng,
            deferred: Vec::new(),
            eliminated: Vec::new(),
            scratch_candidates: Vec::new(),
            scratch_overlaps: Vec::new(),
            scratch_window: Vec::new(),
            scratch_stack: Vec::new(),
            candidates_tested: 0,
        }
    }

    /// Whether the per-group convex hull cache applies: 2-D data under a
    /// metric whose rectangle filter is conservative (`L1`/`L2`).
    #[inline]
    fn hull_maintained(&self) -> bool {
        self.cfg.metric.needs_refinement() && D == 2
    }

    /// Procedure 1 body for one point.
    fn process(&mut self, ext: RecordId, p: Point<D>) {
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        let mut overlaps = std::mem::take(&mut self.scratch_overlaps);
        candidates.clear();
        overlaps.clear();

        self.find_close_groups(&p, &mut candidates, &mut overlaps);
        self.candidates_tested += (candidates.len() + overlaps.len()) as u64;
        self.process_grouping(ext, p, &candidates);
        if self.cfg.overlap != OverlapAction::JoinAny && !overlaps.is_empty() {
            self.process_overlap(&p, &overlaps);
        }

        self.scratch_candidates = candidates;
        self.scratch_overlaps = overlaps;
    }

    /// `FindCloseGroups`: fills `candidates` (point may join) and
    /// `overlaps` (some but not all members within ε), both ordered by
    /// group id so every algorithm yields identical arbitration inputs.
    fn find_close_groups(
        &mut self,
        p: &Point<D>,
        candidates: &mut Vec<GroupId>,
        overlaps: &mut Vec<GroupId>,
    ) {
        let track_overlaps = self.cfg.overlap != OverlapAction::JoinAny;
        match self.algorithm {
            AllAlgorithm::AllPairs => {
                // Procedure 2: inspect every member of every group.
                let (eps, metric) = (self.cfg.eps, self.cfg.metric);
                for (gid, g) in self.groups.iter().enumerate() {
                    if g.is_dead() {
                        continue;
                    }
                    let mut candidate = true;
                    let mut overlap = false;
                    for (_, q) in &g.members {
                        if metric.within(p, q, eps) {
                            overlap = true;
                        } else {
                            candidate = false;
                            // Procedure 2, lines 11–13: only JOIN-ANY bails
                            // on the first miss; the other clauses keep
                            // scanning every member (this is the baseline
                            // the paper measures — no extra short-circuits).
                            if !track_overlaps {
                                break;
                            }
                        }
                    }
                    if candidate {
                        candidates.push(gid);
                    } else if track_overlaps && overlap {
                        overlaps.push(gid);
                    }
                }
            }
            AllAlgorithm::BoundsChecking => {
                // Procedure 4: constant-time rectangle tests per group,
                // streaming through the dense rectangle directory (the
                // rect caches), touching group state only on filter hits.
                for gid in 0..self.allowed_cache.len() {
                    let test = if self.allowed_cache[gid].contains_point(p) {
                        refine_candidate(&self.groups[gid], p, &self.cfg, track_overlaps)
                    } else if track_overlaps && self.reach_cache[gid].contains_point(p) {
                        scan_overlap(&self.groups[gid], p, &self.cfg)
                    } else {
                        GroupTest::Far
                    };
                    match test {
                        GroupTest::Candidate => candidates.push(gid),
                        GroupTest::Overlap => overlaps.push(gid),
                        GroupTest::Far => {}
                    }
                }
            }
            AllAlgorithm::Indexed => {
                // Procedure 5: metric-aware range query on Groups_IX
                // retrieves every group whose MBR comes within ε of `p`
                // under the configured norm — a superset of all candidates
                // and overlap groups (any member within ε of `p` bounds the
                // MBR's mindist by ε), pruned with the metric's own ball
                // instead of its enclosing rectangle. The query's relaxed
                // threshold guarantees no predicate-accepted member is
                // missed to floating-point rounding.
                let mut gset = std::mem::take(&mut self.scratch_window);
                gset.clear();
                if let Some(ix) = &self.index {
                    ix.for_each_within(
                        p,
                        self.cfg.eps,
                        self.cfg.metric,
                        &mut self.scratch_stack,
                        |_, &gid| gset.push(gid),
                    );
                }
                gset.sort_unstable();
                for &gid in &gset {
                    let g = &self.groups[gid];
                    let test = if g.region.point_in_region(p) {
                        refine_candidate(g, p, &self.cfg, track_overlaps)
                    } else if track_overlaps && g.region.may_overlap(p) {
                        scan_overlap(g, p, &self.cfg)
                    } else {
                        GroupTest::Far
                    };
                    match test {
                        GroupTest::Candidate => candidates.push(gid),
                        GroupTest::Overlap => overlaps.push(gid),
                        GroupTest::Far => {}
                    }
                }
                self.scratch_window = gset;
            }
            AllAlgorithm::Grid => {
                // ε-grid probe over the live members: the canonical-verified
                // hits are exactly the points within ε of `p`, and the set
                // of their groups is exactly CandidateGroups ∪
                // OverlapGroups (a candidate's members are all within ε, an
                // overlap group has some member within ε — both therefore
                // surface at least one hit). Classification then mirrors
                // the indexed arm: a group whose allowed region contains
                // `p` goes through the exact refinement; any other surfaced
                // group already proved a within-ε member, so it is an
                // overlap group outright.
                let mut gset = std::mem::take(&mut self.scratch_window);
                gset.clear();
                if let Some(grid) = &self.grid {
                    let (eps, metric) = (self.cfg.eps, self.cfg.metric);
                    let membership = &self.membership;
                    grid.for_each_within(p, eps, metric, |q, ext| {
                        if metric.within(p, q, eps) {
                            if let Some(&gid) = membership.get(ext) {
                                gset.push(gid);
                            }
                        }
                    });
                }
                gset.sort_unstable();
                gset.dedup();
                for &gid in &gset {
                    let g = &self.groups[gid];
                    debug_assert!(!g.is_dead(), "membership maps only live members");
                    let test = if g.region.point_in_region(p) {
                        refine_candidate(g, p, &self.cfg, track_overlaps)
                    } else if track_overlaps {
                        GroupTest::Overlap
                    } else {
                        GroupTest::Far
                    };
                    match test {
                        GroupTest::Candidate => candidates.push(gid),
                        GroupTest::Overlap => overlaps.push(gid),
                        GroupTest::Far => {}
                    }
                }
                self.scratch_window = gset;
            }
            AllAlgorithm::Auto => unreachable!("Engine::new resolves Auto"),
        }
    }

    /// `ProcessGroupingALL` (Procedure 3).
    fn process_grouping(&mut self, ext: RecordId, p: Point<D>, candidates: &[GroupId]) {
        match candidates {
            [] => self.create_group(ext, p),
            [gid] => self.insert_member(*gid, ext, p),
            many => match self.cfg.overlap {
                OverlapAction::JoinAny => {
                    let pick = many[self.rng.gen_range(0..many.len())];
                    self.insert_member(pick, ext, p);
                }
                OverlapAction::Eliminate => self.eliminated.push(ext),
                OverlapAction::FormNewGroup => self.deferred.push((ext, p)),
            },
        }
    }

    /// `ProcessOverlap` (Section 6.2.2): members of overlap groups that
    /// satisfy the predicate with `p` are dropped (ELIMINATE) or deferred
    /// to `S'` (FORM-NEW-GROUP).
    fn process_overlap(&mut self, p: &Point<D>, overlaps: &[GroupId]) {
        let (eps, metric) = (self.cfg.eps, self.cfg.metric);
        for &gid in overlaps {
            let g = &mut self.groups[gid];
            debug_assert!(!g.is_dead());
            let mut removed = Vec::new();
            g.members.retain(|(id, q)| {
                if metric.within(p, q, eps) {
                    removed.push((*id, *q));
                    false
                } else {
                    true
                }
            });
            debug_assert!(
                !removed.is_empty(),
                "overlap group without overlapped members"
            );
            // Removed members leave the live-membership map (their grid
            // entries become inert tombstones); they are either dropped
            // for good or re-grouped by a fresh engine with its own grid.
            if self.grid.is_some() {
                for (id, _) in &removed {
                    self.membership.remove(id);
                }
            }
            match self.cfg.overlap {
                OverlapAction::Eliminate => {
                    self.eliminated.extend(removed.iter().map(|(id, _)| *id));
                }
                OverlapAction::FormNewGroup => self.deferred.extend(removed),
                OverlapAction::JoinAny => unreachable!("JOIN-ANY never processes overlaps"),
            }
            self.rebuild_group(gid);
        }
    }

    fn create_group(&mut self, ext: RecordId, p: Point<D>) {
        let gid = self.groups.len();
        let mut state = GroupState {
            members: vec![(ext, p)],
            region: EpsAllRegion::with_first(self.cfg.eps, p),
            hull: None,
            indexed_rect: None,
        };
        if let Some(ix) = &mut self.index {
            let rect = state.region.mbr();
            ix.insert(rect, gid);
            state.indexed_rect = Some(rect);
        }
        if let Some(grid) = &mut self.grid {
            grid.insert(p, ext);
            self.membership.insert(ext, gid);
        }
        self.allowed_cache.push(state.region.allowed());
        self.reach_cache.push(state.region.reach());
        self.groups.push(state);
        self.live_groups += 1;
    }

    fn insert_member(&mut self, gid: GroupId, ext: RecordId, p: Point<D>) {
        if let Some(grid) = &mut self.grid {
            grid.insert(p, ext);
            self.membership.insert(ext, gid);
        }
        let maintain_hull = self.hull_maintained();
        let g = &mut self.groups[gid];
        debug_assert!(!g.is_dead(), "cannot join a dead group");
        g.members.push((ext, p));
        g.region.insert(&p);
        if let Some(h) = &g.hull {
            // Incremental maintenance: hull(S ∪ {p}) = hull(vertices ∪ {p}).
            let p2 = to2(&p);
            if !h.contains(&p2) {
                let mut vs = h.vertices().to_vec();
                vs.push(p2);
                g.hull = Some(ConvexHull::build(&vs));
            }
        } else if maintain_hull && g.members.len() >= self.cfg.hull_threshold {
            let pts2: Vec<Point<2>> = g.members.iter().map(|(_, q)| to2(q)).collect();
            g.hull = Some(ConvexHull::build(&pts2));
        }
        self.allowed_cache[gid] = g.region.allowed();
        self.reach_cache[gid] = g.region.reach();
        self.sync_index(gid);
    }

    /// Recomputes a group's region/hull after member removal and updates
    /// the index (groups shrink under ELIMINATE / FORM-NEW-GROUP).
    fn rebuild_group(&mut self, gid: GroupId) {
        let maintain_hull = self.hull_maintained();
        let g = &mut self.groups[gid];
        let points: Vec<Point<D>> = g.members.iter().map(|(_, q)| *q).collect();
        g.region.rebuild(points.iter());
        if g.is_dead() {
            g.hull = None;
            self.live_groups -= 1;
        } else if maintain_hull && g.members.len() >= self.cfg.hull_threshold {
            let pts2: Vec<Point<2>> = points.iter().map(to2).collect();
            g.hull = Some(ConvexHull::build(&pts2));
        } else {
            g.hull = None;
        }
        self.allowed_cache[gid] = if g.is_dead() {
            Rect::empty()
        } else {
            g.region.allowed()
        };
        self.reach_cache[gid] = if g.is_dead() {
            Rect::empty()
        } else {
            g.region.reach()
        };
        self.sync_index(gid);
    }

    /// Keeps the `Groups_IX` entry in sync with the group's MBR.
    fn sync_index(&mut self, gid: GroupId) {
        let Some(ix) = &mut self.index else { return };
        let g = &mut self.groups[gid];
        let current = (!g.is_dead()).then(|| g.region.mbr());
        match (g.indexed_rect, current) {
            (Some(old), Some(new)) if old != new => {
                let moved = ix.update(&old, new, gid);
                debug_assert!(moved, "group {gid} missing from index");
                g.indexed_rect = Some(new);
            }
            (Some(old), None) => {
                let removed = ix.remove(&old, &gid);
                debug_assert!(removed, "dead group {gid} missing from index");
                g.indexed_rect = None;
            }
            (None, Some(new)) => {
                ix.insert(new, gid);
                g.indexed_rect = Some(new);
            }
            _ => {}
        }
    }

    /// Removes a record that forms a live **singleton** group, marking the
    /// group dead in place. Returns `false` when no live singleton group
    /// holds `ext`.
    ///
    /// This is only sound for records that are ε-isolated from every other
    /// input point: such a record created its own group on arrival, never
    /// appeared in any other point's candidate or overlap sets (so it
    /// consumed no arbitration randomness and triggered no overlap
    /// processing), and its group's regions never admitted another point.
    /// Marking the group dead therefore leaves the engine in exactly the
    /// state a from-scratch run over the remaining points (in the same
    /// relative order) produces, up to dead-group padding that every scan
    /// skips and that group creation order ignores.
    fn remove_isolated_singleton(&mut self, ext: RecordId) -> bool {
        let Some(gid) = self
            .groups
            .iter()
            .position(|g| !g.is_dead() && g.members.len() == 1 && g.members[0].0 == ext)
        else {
            return false;
        };
        self.groups[gid].members.clear();
        if self.grid.is_some() {
            // The grid entry stays behind as an inert tombstone, exactly
            // like overlap-processing removals; membership is the source
            // of truth.
            self.membership.remove(&ext);
        }
        self.rebuild_group(gid);
        true
    }

    /// Drains the live groups (record ids in join order, groups in creation
    /// order) into `out`.
    fn drain_groups_into(&mut self, out: &mut Vec<Vec<RecordId>>) {
        for g in &mut self.groups {
            if !g.is_dead() {
                out.push(g.members.iter().map(|(id, _)| *id).collect());
            }
        }
    }
}

/// Streaming SGB-All operator.
///
/// Push points in arrival order, then call [`finish`](Self::finish).
///
/// ```
/// use sgb_core::{OverlapAction, SgbAll, SgbAllConfig};
/// use sgb_geom::{Metric, Point};
///
/// let cfg = SgbAllConfig::new(3.0)
///     .metric(Metric::LInf)
///     .overlap(OverlapAction::Eliminate);
/// let mut op = SgbAll::new(cfg);
/// for p in [[1.0, 7.0], [2.0, 6.0], [6.0, 2.0], [7.0, 1.0], [4.0, 4.0]] {
///     op.push(Point::new(p));
/// }
/// let out = op.finish();
/// assert_eq!(out.sorted_sizes(), vec![2, 2]); // the overlapping point is dropped
/// assert_eq!(out.eliminated, vec![4]);
/// ```
#[derive(Clone, Debug)]
pub struct SgbAll<const D: usize> {
    engine: Engine<D>,
    pushed: usize,
}

impl<const D: usize> SgbAll<D> {
    /// Creates the operator.
    pub fn new(cfg: SgbAllConfig) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        Self {
            engine: Engine::new(cfg, rng),
            pushed: 0,
        }
    }

    /// The configuration this operator runs with.
    pub fn config(&self) -> &SgbAllConfig {
        &self.engine.cfg
    }

    /// The concrete search strategy this operator runs with
    /// ([`AllAlgorithm::Auto`] resolved at construction).
    pub fn resolved_algorithm(&self) -> AllAlgorithm {
        self.engine.algorithm
    }

    /// Number of points processed so far.
    pub fn len(&self) -> usize {
        self.pushed
    }

    /// `true` before the first point arrives.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Number of live groups formed so far (before the FORM-NEW-GROUP
    /// recursion re-groups the deferred set).
    pub fn num_groups(&self) -> usize {
        self.engine.live_groups
    }

    /// Candidate/overlap groups inspected so far by `FindCloseGroups` —
    /// the main-pass candidate count surfaced through query telemetry
    /// (FORM-NEW-GROUP sub-passes are not included; read before
    /// [`SgbAll::finish`]).
    pub(crate) fn candidates_tested(&self) -> u64 {
        self.engine.candidates_tested
    }

    /// Processes one point (Procedure 1 body), returning its record id.
    pub fn push(&mut self, p: Point<D>) -> RecordId {
        assert!(p.is_finite(), "points must have finite coordinates");
        let id = self.pushed;
        self.pushed += 1;
        self.engine.process(id, p);
        id
    }

    /// Removes a previously pushed record that is ε-isolated from every
    /// other input point (the incremental engine's delete fast path — see
    /// `Engine::remove_isolated_singleton` for why isolation makes the
    /// in-place removal exact). Returns `false` when `ext` is not held by a
    /// live singleton group; callers must then fall back to a rebuild.
    pub(crate) fn remove_isolated_singleton(&mut self, ext: RecordId) -> bool {
        self.engine.remove_isolated_singleton(ext)
    }

    /// Completes the operator: runs the FORM-NEW-GROUP recursion over `S'`
    /// (Section 6.2.1) and materialises the answer groups.
    pub fn finish(mut self) -> Grouping {
        let mut groups = Vec::new();
        self.engine.drain_groups_into(&mut groups);
        let mut eliminated = std::mem::take(&mut self.engine.eliminated);
        let mut pending = std::mem::take(&mut self.engine.deferred);
        let cfg = self.engine.cfg.clone();
        let mut rng = self.engine.rng.clone();
        drop(self.engine);

        // FORM-NEW-GROUP: regroup S' with a fresh pass until it drains.
        // Each pass keeps at least one point (the last point processed in a
        // pass either joins/creates a group that survives, or its candidate
        // groups' members survive), so this terminates.
        while !pending.is_empty() {
            let mut sub = Engine::new(cfg.clone(), rng.clone());
            let before = pending.len();
            for (ext, p) in pending.drain(..) {
                sub.process(ext, p);
            }
            sub.drain_groups_into(&mut groups);
            eliminated.append(&mut sub.eliminated);
            pending = std::mem::take(&mut sub.deferred);
            rng = sub.rng;
            assert!(
                pending.len() < before,
                "FORM-NEW-GROUP recursion failed to make progress"
            );
        }
        Grouping { groups, eliminated }
    }
}

/// One-shot convenience: runs SGB-All over a slice of points — a wrapper
/// over [`SgbQuery::run`](crate::SgbQuery::run), which resolves
/// [`AllAlgorithm::Auto`] from the true cardinality.
///
/// # Panics
/// `"points must have finite coordinates"` on a non-finite coordinate.
pub fn sgb_all<const D: usize>(points: &[Point<D>], cfg: &SgbAllConfig) -> Grouping {
    crate::SgbQuery::all(cfg.eps)
        .metric(cfg.metric)
        .overlap(cfg.overlap)
        .seed(cfg.seed)
        .hull_threshold(cfg.hull_threshold)
        .rtree_fanout(cfg.rtree_fanout)
        .algorithm(cfg.algorithm.into())
        .run(points)
        .into_flat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SgbAnyConfig;
    use sgb_geom::Metric;

    const ALGOS: [AllAlgorithm; 4] = [
        AllAlgorithm::AllPairs,
        AllAlgorithm::BoundsChecking,
        AllAlgorithm::Indexed,
        AllAlgorithm::Grid,
    ];

    fn pts(raw: &[[f64; 2]]) -> Vec<Point<2>> {
        raw.iter().map(|&c| Point::new(c)).collect()
    }

    /// Figure 2 of the paper: groups g1 {a1, a2} and g2 {a3, a4}; a5 is
    /// within ε = 3 (L∞) of all four points.
    fn fig2_points() -> Vec<Point<2>> {
        pts(&[
            [1.0, 7.0], // a1
            [2.0, 6.0], // a2
            [6.0, 2.0], // a3
            [7.0, 1.0], // a4
            [4.0, 4.0], // a5 — overlaps both groups
        ])
    }

    #[test]
    fn example1_join_any_yields_3_2() {
        for algo in ALGOS {
            let cfg = SgbAllConfig::new(3.0).metric(Metric::LInf).algorithm(algo);
            let out = sgb_all(&fig2_points(), &cfg);
            assert_eq!(out.sorted_sizes(), vec![3, 2], "{algo:?}");
            assert!(out.eliminated.is_empty());
            out.check_partition(5);
        }
    }

    #[test]
    fn example1_eliminate_yields_2_2() {
        for algo in ALGOS {
            let cfg = SgbAllConfig::new(3.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::Eliminate)
                .algorithm(algo);
            let out = sgb_all(&fig2_points(), &cfg);
            assert_eq!(out.sorted_sizes(), vec![2, 2], "{algo:?}");
            assert_eq!(out.eliminated, vec![4], "{algo:?}");
            out.check_partition(5);
        }
    }

    #[test]
    fn example1_form_new_group_yields_2_2_1() {
        for algo in ALGOS {
            let cfg = SgbAllConfig::new(3.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::FormNewGroup)
                .algorithm(algo);
            let out = sgb_all(&fig2_points(), &cfg);
            assert_eq!(out.sorted_sizes(), vec![2, 2, 1], "{algo:?}");
            // a5 ends up alone in the newly formed group.
            assert!(out.groups.iter().any(|g| g == &vec![4]), "{algo:?}");
            out.check_partition(5);
        }
    }

    /// Figure 4 of the paper (ε = 4, L∞): when x arrives,
    /// CandidateGroups = {g2, g3} and OverlapGroups = {g1} via a3.
    fn fig4_points() -> Vec<Point<2>> {
        pts(&[
            [0.0, 10.0], // a1   g1
            [1.0, 9.0],  // a2   g1
            [3.0, 7.0],  // a3   g1 — within 4 of x
            [4.0, 0.0],  // b1   g2
            [5.0, 1.0],  // b2   g2
            [9.0, 7.0],  // c1   g3
            [10.0, 8.0], // c2   g3
            [9.0, 8.0],  // c3   g3
            [16.0, 0.0], // d1   g4
            [17.0, 1.0], // d2   g4
            [6.0, 4.0],  // x
        ])
    }

    #[test]
    fn fig4_eliminate_drops_x_and_a3() {
        for algo in ALGOS {
            let cfg = SgbAllConfig::new(4.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::Eliminate)
                .algorithm(algo);
            let out = sgb_all(&fig4_points(), &cfg);
            let mut eliminated = out.eliminated.clone();
            eliminated.sort_unstable();
            assert_eq!(eliminated, vec![2, 10], "{algo:?}"); // a3 and x
            assert_eq!(out.sorted_sizes(), vec![3, 2, 2, 2], "{algo:?}");
            out.check_partition(11);
        }
    }

    #[test]
    fn fig4_form_new_group_regroups_x_with_a3() {
        for algo in ALGOS {
            let cfg = SgbAllConfig::new(4.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::FormNewGroup)
                .algorithm(algo);
            let out = sgb_all(&fig4_points(), &cfg);
            // x and a3 are deferred, then form a group of their own
            // (they are within 4 of each other).
            assert!(
                out.groups.iter().any(|g| {
                    let mut g = g.clone();
                    g.sort_unstable();
                    g == vec![2, 10]
                }),
                "{algo:?}: {:?}",
                out.groups
            );
            assert_eq!(out.sorted_sizes(), vec![3, 2, 2, 2, 2], "{algo:?}");
            out.check_partition(11);
        }
    }

    #[test]
    fn fig4_join_any_keeps_groups_intact() {
        for algo in ALGOS {
            let cfg = SgbAllConfig::new(4.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::JoinAny)
                .algorithm(algo)
                .seed(99);
            let out = sgb_all(&fig4_points(), &cfg);
            assert_eq!(out.grouped_records(), 11, "{algo:?}");
            // x joined exactly one of g2/g3; g1 keeps a3.
            let sizes = out.sorted_sizes();
            assert!(
                sizes == vec![3, 3, 3, 2] || sizes == vec![4, 3, 2, 2],
                "{algo:?}: {sizes:?}"
            );
            out.check_partition(11);
        }
    }

    #[test]
    fn empty_and_single_input() {
        for algo in ALGOS {
            let cfg = SgbAllConfig::new(1.0).algorithm(algo);
            assert_eq!(sgb_all::<2>(&[], &cfg).num_groups(), 0);
            let one = sgb_all(&pts(&[[5.0, 5.0]]), &cfg);
            assert_eq!(one.groups, vec![vec![0]]);
        }
    }

    #[test]
    fn all_members_pairwise_within_eps_invariant() {
        // Core clique invariant, random cloud, every algorithm and metric.
        let mut state: u64 = 7;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let points: Vec<Point<2>> = (0..300)
            .map(|_| Point::new([next() * 8.0, next() * 8.0]))
            .collect();
        for metric in Metric::ALL {
            for overlap in [
                OverlapAction::JoinAny,
                OverlapAction::Eliminate,
                OverlapAction::FormNewGroup,
            ] {
                for algo in ALGOS {
                    let cfg = SgbAllConfig::new(0.8)
                        .metric(metric)
                        .overlap(overlap)
                        .algorithm(algo);
                    let out = sgb_all(&points, &cfg);
                    out.check_partition(points.len());
                    for g in &out.groups {
                        for i in 0..g.len() {
                            for j in (i + 1)..g.len() {
                                assert!(
                                    metric.within(&points[g[i]], &points[g[j]], 0.8),
                                    "clique violated: {algo:?} {metric:?} {overlap:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn algorithms_agree_exactly() {
        // All three FindCloseGroups strategies must produce identical
        // groupings (same seed ⇒ same JOIN-ANY arbitration).
        let mut state: u64 = 99;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let points: Vec<Point<2>> = (0..400)
            .map(|_| Point::new([next() * 6.0, next() * 6.0]))
            .collect();
        for metric in Metric::ALL {
            for overlap in [
                OverlapAction::JoinAny,
                OverlapAction::Eliminate,
                OverlapAction::FormNewGroup,
            ] {
                let runs: Vec<Grouping> = ALGOS
                    .iter()
                    .map(|&algo| {
                        let cfg = SgbAllConfig::new(0.5)
                            .metric(metric)
                            .overlap(overlap)
                            .algorithm(algo)
                            .seed(1234);
                        sgb_all(&points, &cfg)
                    })
                    .collect();
                for (i, run) in runs.iter().enumerate().skip(1) {
                    assert_eq!(
                        &runs[0], run,
                        "AllPairs vs {:?} {metric:?} {overlap:?}",
                        ALGOS[i]
                    );
                }
            }
        }
    }

    #[test]
    fn conservative_metric_false_positive_is_rejected() {
        // Figure 7b: the corner of the ε-All rectangle passes the rectangle
        // filter but is not within ε of the existing member under the
        // conservative metrics (L1 ball is the diamond, L2 ball the disc).
        let eps = 1.0;
        let a = Point::new([0.0, 0.0]);
        let corner = Point::new([0.95, 0.95]); // L∞ 0.95 ≤ 1, L2 ≈ 1.34, L1 = 1.9
        for algo in ALGOS {
            for metric in [Metric::L1, Metric::L2] {
                let out = sgb_all(
                    &[a, corner],
                    &SgbAllConfig::new(eps).metric(metric).algorithm(algo),
                );
                assert_eq!(out.num_groups(), 2, "{algo:?} must split under {metric}");
            }
            let linf = sgb_all(
                &[a, corner],
                &SgbAllConfig::new(eps).metric(Metric::LInf).algorithm(algo),
            );
            assert_eq!(linf.num_groups(), 1, "{algo:?} must merge under L∞");
        }
    }

    #[test]
    fn l1_separates_what_l2_accepts() {
        // Between the diamond and the disc: Δ = (0.7, 0.6) has δ2 ≈ 0.92 ≤ 1
        // but δ1 = 1.3 > 1, so L1 must split a pair L2 groups.
        let a = Point::new([0.0, 0.0]);
        let b = Point::new([0.7, 0.6]);
        for algo in ALGOS {
            let l2 = sgb_all(
                &[a, b],
                &SgbAllConfig::new(1.0).metric(Metric::L2).algorithm(algo),
            );
            assert_eq!(l2.num_groups(), 1, "{algo:?}");
            let l1 = sgb_all(
                &[a, b],
                &SgbAllConfig::new(1.0).metric(Metric::L1).algorithm(algo),
            );
            assert_eq!(l1.num_groups(), 2, "{algo:?}");
        }
    }

    #[test]
    fn l1_hull_refinement_agrees_with_member_scan() {
        // Force the hull path (threshold 1) and the scan path (threshold
        // MAX) under L1: identical output on a dense cloud.
        let mut state: u64 = 21;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let points: Vec<Point<2>> = (0..250)
            .map(|_| Point::new([next() * 4.0, next() * 4.0]))
            .collect();
        for overlap in [
            OverlapAction::JoinAny,
            OverlapAction::Eliminate,
            OverlapAction::FormNewGroup,
        ] {
            let cfg = |hull_threshold: usize| {
                SgbAllConfig::new(0.9)
                    .metric(Metric::L1)
                    .overlap(overlap)
                    .hull_threshold(hull_threshold)
                    .seed(11)
            };
            let hull = sgb_all(&points, &cfg(1));
            let scan = sgb_all(&points, &cfg(usize::MAX));
            assert_eq!(hull, scan, "{overlap:?}");
        }
    }

    #[test]
    fn join_any_is_deterministic_per_seed() {
        let points = fig2_points();
        let cfg = |seed| {
            SgbAllConfig::new(3.0)
                .metric(Metric::LInf)
                .algorithm(AllAlgorithm::Indexed)
                .seed(seed)
        };
        let a = sgb_all(&points, &cfg(42));
        let b = sgb_all(&points, &cfg(42));
        assert_eq!(a, b);
        // Across many seeds both choices should appear.
        let mut joined_first = false;
        let mut joined_second = false;
        for seed in 0..32 {
            let out = sgb_all(&points, &cfg(seed));
            let sizes = out.sizes();
            if sizes[0] == 3 {
                joined_first = true;
            } else {
                joined_second = true;
            }
        }
        assert!(joined_first && joined_second, "JOIN-ANY must actually vary");
    }

    #[test]
    fn eliminate_shrinks_overlap_groups() {
        // g1 = {p0 (−0.5, 0), p1 (0.5, 0)}; two singleton groups s1, s2.
        // x (1.4, 0) is a candidate of both singletons (ε = 1.6, L∞) and
        // within ε of p1 but not p0 → g1 is an overlap group: x and p1 are
        // both eliminated, p0 survives.
        let points = pts(&[
            [-0.5, 0.0], // p0
            [0.5, 0.0],  // p1
            [3.0, 1.2],  // s1
            [3.0, -1.2], // s2
            [1.4, 0.0],  // x
        ]);
        for algo in ALGOS {
            let cfg = SgbAllConfig::new(1.6)
                .metric(Metric::LInf)
                .overlap(OverlapAction::Eliminate)
                .algorithm(algo);
            let out = sgb_all(&points, &cfg);
            let mut eliminated = out.eliminated.clone();
            eliminated.sort_unstable();
            assert_eq!(eliminated, vec![1, 4], "{algo:?}");
            assert_eq!(out.sorted_sizes(), vec![1, 1, 1], "{algo:?}");
            out.check_partition(5);
        }
    }

    #[test]
    fn form_new_group_multi_round_recursion() {
        // The deferred set itself contains overlapping structure, forcing
        // at least two recursion rounds.
        let points = pts(&[
            [0.0, 0.0],  // g1
            [10.0, 0.0], // g2
            [5.0, 0.0],  // x1: candidate for neither (ε=6 L∞ → within of both!)
            [20.0, 0.0], // g3
            [30.0, 0.0], // g4
            [25.0, 0.0], // x2: within of g3, g4
        ]);
        for algo in ALGOS {
            let cfg = SgbAllConfig::new(6.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::FormNewGroup)
                .algorithm(algo);
            let out = sgb_all(&points, &cfg);
            out.check_partition(6);
            // x1, x2 deferred; in round 2 they are 20 apart → two singletons.
            assert_eq!(out.sorted_sizes(), vec![1, 1, 1, 1, 1, 1], "{algo:?}");
        }
    }

    #[test]
    fn three_dimensional_grouping() {
        let points: Vec<Point<3>> = vec![
            Point::new([0.0, 0.0, 0.0]),
            Point::new([0.3, 0.3, 0.3]),
            Point::new([0.0, 0.0, 2.0]),
            Point::new([0.3, 0.3, 2.3]),
        ];
        for algo in ALGOS {
            for metric in Metric::ALL {
                let cfg = SgbAllConfig::new(1.0).metric(metric).algorithm(algo);
                let out = sgb_all(&points, &cfg);
                assert_eq!(out.sorted_sizes(), vec![2, 2], "{algo:?} {metric:?}");
            }
        }
    }

    #[test]
    fn auto_resolves_and_matches_every_concrete_algorithm() {
        let mut state: u64 = 0xA07;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let points: Vec<Point<2>> = (0..350)
            .map(|_| Point::new([next() * 6.0, next() * 6.0]))
            .collect();
        // Streaming Auto assumes the scalable regime (group R-tree).
        let op = SgbAll::<2>::new(SgbAllConfig::new(0.5));
        assert_eq!(op.resolved_algorithm(), AllAlgorithm::Indexed);
        for overlap in [
            OverlapAction::JoinAny,
            OverlapAction::Eliminate,
            OverlapAction::FormNewGroup,
        ] {
            let auto = sgb_all(&points, &SgbAllConfig::new(0.5).overlap(overlap).seed(1234));
            for algo in ALGOS {
                let concrete = sgb_all(
                    &points,
                    &SgbAllConfig::new(0.5)
                        .overlap(overlap)
                        .algorithm(algo)
                        .seed(1234),
                );
                assert_eq!(auto, concrete, "{algo:?} {overlap:?}");
            }
        }
    }

    #[test]
    fn sgb_all_groups_are_subsets_of_sgb_any_components() {
        // Every SGB-All clique lives inside one SGB-Any connected component.
        let mut state: u64 = 5;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let points: Vec<Point<2>> = (0..200)
            .map(|_| Point::new([next() * 5.0, next() * 5.0]))
            .collect();
        let eps = 0.7;
        let all = sgb_all(&points, &SgbAllConfig::new(eps));
        let any = crate::sgb_any(&points, &SgbAnyConfig::new(eps));
        let comp = any.assignment(points.len());
        for g in &all.groups {
            let c0 = comp[g[0]].unwrap();
            assert!(g.iter().all(|&r| comp[r] == Some(c0)));
        }
    }
}
