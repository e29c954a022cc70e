//! The SGB-All operator (Section 6): distance-to-all (clique) grouping.
//!
//! A point belongs to a group only when it is within ε of *every* member
//! (each group is a clique of the ε-threshold graph). Points qualifying for
//! several groups are arbitrated by the `ON-OVERLAP` clause. The framework
//! (Procedure 1) processes points in arrival order:
//!
//! 1. `FindCloseGroups` splits the existing groups into *candidates* (all
//!    members within ε of the new point) and *overlap groups* (some but not
//!    all members within ε). Interchangeable strategies implement it:
//!    [`Algorithm::AllPairs`] (Procedure 2, scans every point),
//!    [`Algorithm::BoundsChecking`] (Procedure 4, constant-time ε-All
//!    rectangle tests per group), [`Algorithm::Indexed`] (Procedure 5,
//!    metric-aware range query on an on-the-fly R-tree of group
//!    rectangles) and [`Algorithm::Grid`] (the point's own ε-component
//!    only, see below). Under the conservative metrics (`L1`/`L2`, see
//!    [`sgb_geom::metric::RectFilter`]) the rectangle filter admits false
//!    positives, refined by the convex hull test (Procedure 6). The
//!    rectangles are padded by a rounding slack and every hit is settled
//!    as the canonical predicate settles it, so all strategies agree bit
//!    for bit, distances that tie with ε included.
//! 2. `ProcessGroupingALL` (Procedure 3) places the point: into a new group
//!    (no candidates), the unique candidate, or per the `ON-OVERLAP` clause.
//! 3. `ProcessOverlap` realises `ELIMINATE` / `FORM-NEW-GROUP` on the
//!    overlap groups' affected members; `FORM-NEW-GROUP` re-groups the
//!    deferred set `S'` recursively at the end, one pass at a time, each
//!    pass polling the governor once per point as the main pass does.
//!
//! **One flat directory.** Every group has one entry in one array: its id
//! beside its allowed and reach rectangles, each padded by the group's
//! rounding slack. A scan streams through the entries and reads group
//! state only on a filter hit; an R-tree hit reads its group's entry
//! through the slot the group keeps. `Bounds-Checking` and `Indexed` file
//! every group in the shared range, which grows in creation order;
//! `Bounds-Checking` scans all of it, as Procedure 4 scans the directory.
//!
//! **One range per ε-component (`Grid`).** A point joins a group only
//! while it is within ε of every member, so all of a group's members share
//! one connected component of the ε-graph (one SGB-Any group). A candidate
//! or overlap group has a member within ε of the arriving point, so it lies
//! in that point's component. A one-shot `Grid` run therefore first labels
//! every point with its ε-component (`Components::find`, the SGB-Any grid
//! kernel's connectivity join), and the directory keeps one contiguous
//! range per component, its groups in creation order. A point scans only
//! its own component's range, with the Bounds-Checking tests; a component
//! of more than the per-component bound ([`crate::cost::ALL_BOUNDS_MAX_N`]
//! points) is searched through the group R-tree, which holds only such
//! components' groups, and their entries go to the shared range. Each
//! pass sizes the ranges before its first point: a group is created by one
//! of the pass's points, so a component never holds more groups in a pass
//! than the pass has points in it. The main pass takes the component
//! sizes the labelling counted; a FORM-NEW-GROUP pass counts its deferred
//! points' labels. So a pass allocates its directory once. Ranges keep
//! creation order and R-tree hits are sorted, so candidates
//! reach the arbitration in group-id order on every path, JOIN-ANY draws
//! the same random numbers, and the answer never depends on the path.
//! FORM-NEW-GROUP passes keep each record's main-pass label: the ε-graph
//! of the deferred points has components that nest inside the main ones.
//!
//! **Reach first.** Under ELIMINATE and FORM-NEW-GROUP an entry's padded
//! reach rectangle is tested first, so one test settles a far group. The
//! order cannot change a group's outcome: the allowed region is the
//! intersection of the members' ε-boxes and the reach region their union,
//! taken over the same rounded bounds `q ± ε`, so the allowed rectangle's
//! bounds lie inside the reach rectangle's in every dimension, and
//! dilating both by the same slack keeps that, because rounding is
//! monotone. A point outside the padded reach rectangle is therefore
//! outside the padded allowed one too, which the allowed-first order would
//! also have called far. JOIN-ANY tracks no overlaps and tests the allowed
//! rectangle only.
//!
//! [`SgbQuery::all`] drives this engine: its runs push the points in
//! arrival order (the arbitration is order-sensitive, so SGB-All never
//! parallelises).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sgb_dsu::DisjointSet;
use sgb_geom::{ConvexHull, EpsAllRegion, Metric, Point, Rect, RectFilter};
use sgb_spatial::{Grid, RTree, SortedCells};
use sgb_telemetry::Telemetry;

use crate::any;
use crate::governor::{QueryGovernor, SgbError};
use crate::grouping::GroupsBuilder;
use crate::{Algorithm, Grouping, OverlapAction, RecordId, SgbQuery};

type GroupId = usize;

/// A group caches its convex hull (the Convex Hull Test of Procedure 6)
/// once it has this many members; smaller groups are refined by a member
/// scan.
const HULL_THRESHOLD: usize = 16;

/// The knobs an SGB-All run reads, copied out of its [`SgbQuery`].
#[derive(Clone, Copy, Debug)]
struct Params {
    eps: f64,
    metric: Metric,
    overlap: OverlapAction,
    /// The concrete search strategy, resolved by the caller.
    algorithm: Algorithm,
    /// Members at which a group starts caching its hull:
    /// [`HULL_THRESHOLD`], or another value in this module's tests.
    hull_threshold: usize,
}

/// What overlap processing does with the members it removes from an
/// overlap group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Removal {
    /// `ELIMINATE`: drop them from the answer.
    Drop,
    /// `FORM-NEW-GROUP`: defer them to `S'`.
    Defer,
}

/// Narrows a `D`-dimensional point to 2-D; only called when `D == 2`, where
/// it is a plain copy.
#[inline]
fn to2<const D: usize>(p: &Point<D>) -> Point<2> {
    debug_assert_eq!(D, 2);
    Point::new([p.coord(0), p.coord(1)])
}

/// The ε-components of a one-shot run's input, by which `Algorithm::Grid`
/// partitions its group directory.
#[derive(Clone, Debug)]
pub(crate) struct Components {
    /// Dense component label of each record, indexed by record id.
    labels: Vec<u32>,
    /// Points per label.
    sizes: Vec<usize>,
    /// The largest component whose groups a directory scan searches; a
    /// larger one is searched through the group R-tree.
    max_scanned: usize,
}

impl Components {
    /// Labels each of `points` with its ε-component under `metric`: the
    /// SGB-Any grid kernel's connectivity join ([`any::connect_grid`]) over
    /// a fresh sorted ε-grid layout, on one shard, polling `governor` every
    /// [`CHECK_INTERVAL`](crate::governor::CHECK_INTERVAL) candidates.
    /// Components of more than `max_scanned` points are searched through
    /// the group R-tree; production passes the per-component bound
    /// [`crate::cost::ALL_BOUNDS_MAX_N`].
    ///
    /// # Errors
    /// The governor's verdict, or the join's injected fault.
    pub(crate) fn find<const D: usize>(
        points: &[Point<D>],
        eps: f64,
        metric: Metric,
        max_scanned: usize,
        governor: &QueryGovernor,
    ) -> Result<Self, SgbError> {
        let grid = SortedCells::from_points(Grid::<D, RecordId>::side_for_eps(eps), points);
        let forest = any::connect_grid(
            points.len(),
            eps,
            metric,
            &grid,
            1,
            governor,
            &Telemetry::off(),
        )?;
        Ok(Self::from_forest(forest, max_scanned))
    }

    /// Dense labels for a finished forest's components, numbered in order
    /// of their first record.
    fn from_forest(mut forest: DisjointSet, max_scanned: usize) -> Self {
        let n = forest.len();
        let mut label_of_root = vec![u32::MAX; n];
        let mut sizes: Vec<usize> = Vec::new();
        let mut labels = Vec::with_capacity(n);
        for record in 0..n {
            let root = forest.find(record);
            if label_of_root[root] == u32::MAX {
                label_of_root[root] = sizes.len() as u32;
                sizes.push(0);
            }
            let label = label_of_root[root];
            sizes[label as usize] += 1;
            labels.push(label);
        }
        Self {
            labels,
            sizes,
            max_scanned,
        }
    }

    /// Number of components.
    pub(crate) fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Points in the largest component (0 for an empty input).
    pub(crate) fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Whether a directory scan searches the groups of component `label`.
    fn scanned(&self, label: usize) -> bool {
        self.sizes[label] <= self.max_scanned
    }

    /// The label of `ext`'s component when a directory scan searches its
    /// groups, or `None` when they are searched through the group R-tree.
    fn directory(&self, ext: RecordId) -> Option<usize> {
        let label = *self.labels.get(ext)? as usize;
        self.scanned(label).then_some(label)
    }
}

/// State of one (possibly emptied) group.
#[derive(Debug)]
struct GroupState<const D: usize> {
    /// Members in join order, with their points (so overlap processing and
    /// hull rebuilds never need an external lookup).
    members: Vec<(RecordId, Point<D>)>,
    /// ε-All region + member MBR (Definition 5), maintained incrementally.
    region: EpsAllRegion<D>,
    /// Cached convex hull of the members — the false-positive refinement of
    /// Section 6.4. Maintained only for conservative-filter metrics
    /// (`L1`/`L2`) in 2-D and only once the group reaches the run's hull
    /// threshold; otherwise (`None`) the exact check falls back to a
    /// member scan.
    hull: Option<ConvexHull>,
    /// Rectangle currently registered for this group in `Groups_IX`
    /// (`None` for a group that was never in it, or has left it).
    indexed_rect: Option<Rect<D>>,
    /// Index of this group's [`Entry`] in the flat directory.
    entry: usize,
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

/// A group's place in the flat directory: its id beside its allowed and
/// reach regions, each padded by the group's rounding slack (so neither
/// rejects a point the canonical predicate accepts). A scan streams
/// through these entries and touches group state only on filter hits. A
/// dead group, and a slot no group holds yet, have empty rectangles.
#[derive(Clone, Copy, Debug)]
struct Entry<const D: usize> {
    gid: GroupId,
    allowed: Rect<D>,
    reach: Rect<D>,
}

impl<const D: usize> Entry<D> {
    /// A slot of a component's range that no group holds yet.
    fn vacant() -> Self {
        Self {
            gid: GroupId::MAX,
            allowed: Rect::empty(),
            reach: Rect::empty(),
        }
    }
}

/// Files group `gid` under `FindCloseGroups`' output lists per its test.
#[inline(always)]
fn file(test: GroupTest, gid: GroupId, candidates: &mut Vec<GroupId>, overlaps: &mut Vec<GroupId>) {
    match test {
        GroupTest::Candidate => candidates.push(gid),
        GroupTest::Overlap => overlaps.push(gid),
        GroupTest::Far => {}
    }
}

/// How far a group's rectangle tests may disagree with the canonical
/// predicate [`Metric::within`]. The rectangles bound a member `q` by the
/// floating-point values `q ± ε`, while the predicate rounds `|p − q|`; the
/// two roundings can decide differently for a point at distance ε (an
/// ε-lattice puts many there). Every such disagreement is a few units of
/// roundoff of the magnitudes involved, so `(D + 2)` machine epsilons of
/// the largest member coordinate plus ε bound it with room to spare.
#[inline]
fn rounding_slack<const D: usize>(mbr: &Rect<D>, eps: f64) -> f64 {
    let mut magnitude = eps;
    for d in 0..D {
        magnitude = magnitude
            .max(mbr.lo()[d].abs() + eps)
            .max(mbr.hi()[d].abs() + eps);
    }
    (D + 2) as f64 * f64::EPSILON * magnitude
}

/// `rect` grown by `by` on every side (shrunk when `by` is negative). An
/// empty rectangle stays empty.
#[inline]
fn dilate<const D: usize>(rect: &Rect<D>, by: f64) -> Rect<D> {
    let (mut lo, mut hi) = (*rect.lo(), *rect.hi());
    for d in 0..D {
        lo[d] -= by;
        hi[d] += by;
    }
    Rect::new(lo, hi)
}

/// The convex hull of `points`, gathered in the reusable `scratch` buffer.
fn hull_of(scratch: &mut Vec<Point<2>>, points: impl IntoIterator<Item = Point<2>>) -> ConvexHull {
    scratch.clear();
    scratch.extend(points);
    ConvexHull::build(scratch)
}

/// The Convex Hull Test needs this many rounding slacks between the
/// farthest hull vertex and ε before it vouches for the members inside the
/// hull: the hull's own orientation tests round too, so a member may lie a
/// hair outside it.
const HULL_MARGIN_SLACKS: f64 = 1024.0;

/// Refinement after the padded allowed-rectangle filter passed, settling
/// candidacy exactly as the canonical predicate does, member by member:
///
/// * `L∞` (an exact rectangle filter): a point inside the allowed
///   rectangle shrunk by the rounding slack is within ε of every member;
/// * `L1`/`L2` (conservative filters, whose ε-ball is a proper subset of
///   the ε-square): the Convex Hull Test (Procedure 6) — the farthest
///   member from `p` is a hull vertex, so that vertex decides, unless it
///   lies within the hull's margin of ε;
/// * anything still open: a scan of every member.
///
/// A point that is not a candidate may still be an overlap group.
#[inline(always)]
fn refine_candidate<const D: usize>(
    g: &GroupState<D>,
    p: &Point<D>,
    cfg: &Params,
    track_overlaps: bool,
) -> GroupTest {
    if g.is_dead() {
        return GroupTest::Far;
    }
    let (eps, metric) = (cfg.eps, cfg.metric);
    let slack = rounding_slack(&g.region.mbr(), eps);
    let certified = match (metric.rect_filter(), &g.hull) {
        (RectFilter::Exact, _) => dilate(&g.region.allowed(), -slack)
            .contains_point(p)
            .then_some(true),
        (RectFilter::Conservative, Some(h)) => {
            let p2 = to2(p);
            h.farthest_from(&p2, metric).and_then(|(far, distance)| {
                if !metric.within(&far, &p2, eps) {
                    Some(false)
                } else {
                    (distance <= eps - HULL_MARGIN_SLACKS * slack).then_some(true)
                }
            })
        }
        (RectFilter::Conservative, None) => None,
    };
    let all_within =
        certified.unwrap_or_else(|| g.members.iter().all(|(_, q)| metric.within(p, q, eps)));
    if all_within {
        GroupTest::Candidate
    } else if track_overlaps {
        // The rect filter passed, so p is inside the reach region: only
        // the member scan is left.
        scan_overlap(g, p, cfg)
    } else {
        GroupTest::Far
    }
}

/// Final overlap check: is any member within ε of `p`?
#[inline(always)]
fn scan_overlap<const D: usize>(g: &GroupState<D>, p: &Point<D>, cfg: &Params) -> GroupTest {
    let (eps, metric) = (cfg.eps, cfg.metric);
    if g.members.iter().any(|(_, q)| metric.within(p, q, eps)) {
        GroupTest::Overlap
    } else {
        GroupTest::Far
    }
}

/// One processing pass of the SGB-All framework over a stream of points.
/// `FORM-NEW-GROUP` runs several passes (the recursion over `S'`), each on a
/// fresh `Engine`.
#[derive(Debug)]
struct Engine<const D: usize> {
    cfg: Params,
    groups: Vec<GroupState<D>>,
    /// The flat group directory: every group's [`Entry`], so a scan
    /// streams through one dense array (the paper keeps the rectangles in
    /// the aggregate hash-table directory for the same reason). First one
    /// range per component label, sized for the pass (see [`Engine::new`]);
    /// then, from `shared_start`, the groups of no scanned component in
    /// creation order.
    entries: Vec<Entry<D>>,
    /// Per component label: `(start, len)` of its groups' range in
    /// `entries`, its groups in creation order (components that are not
    /// scanned keep an empty range).
    ranges: Vec<(usize, usize)>,
    /// Where the shared range starts: the groups of no scanned component,
    /// in creation order (every group, on the paths without components).
    shared_start: usize,
    /// `Groups_IX` of Procedure 5: every group under
    /// [`Algorithm::Indexed`]; under [`Algorithm::Grid`], the groups of the
    /// components too big to scan.
    index: Option<RTree<D, GroupId>>,
    /// The input's ε-components ([`Algorithm::Grid`] runs only).
    components: Option<Components>,
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
    /// The points a group's hull is built from ([`hull_of`]).
    scratch_hull: Vec<Point<2>>,
    /// Candidate/overlap groups surfaced by `FindCloseGroups` across every
    /// processed point — the SGB-All analogue of a join's candidate-pair
    /// count, surfaced through the query telemetry.
    candidates_tested: u64,
}

impl<const D: usize> Engine<D> {
    /// A fresh pass. `components` is read only under [`Algorithm::Grid`],
    /// which needs it: the pass lays out its directory before its first
    /// point. Each group is created by one of the pass's points, so a
    /// component never holds more groups in a pass than the pass has
    /// points in it, and its range is sized to that count. `pass` lists the
    /// pass's points, or is `None` for the main pass, which processes every
    /// labelled record.
    fn new(
        cfg: Params,
        rng: SmallRng,
        components: Option<Components>,
        pass: Option<&[(RecordId, Point<D>)]>,
    ) -> Self {
        let index = matches!(cfg.algorithm, Algorithm::Indexed | Algorithm::Grid).then(RTree::new);
        let components = components.filter(|_| cfg.algorithm == Algorithm::Grid);
        debug_assert!(
            cfg.algorithm != Algorithm::Grid || components.is_some(),
            "a Grid pass searches by its input's ε-components"
        );
        // A pass creates at most one group per point.
        let capacity = match (pass, &components) {
            (Some(points), _) => points.len(),
            (None, Some(c)) => c.labels.len(),
            (None, None) => 0,
        };
        let mut entries = Vec::with_capacity(capacity);
        let mut ranges = Vec::new();
        if let Some(c) = &components {
            // Count each scanned component's points in `len`, then turn the
            // counts into consecutive empty ranges.
            ranges = match pass {
                None => (c.sizes.iter().enumerate())
                    .map(|(label, &size)| (0, if c.scanned(label) { size } else { 0 }))
                    .collect(),
                Some(points) => {
                    let mut counts = vec![(0, 0); c.count()];
                    for &(ext, _) in points {
                        if let Some(label) = c.directory(ext) {
                            counts[label].1 += 1;
                        }
                    }
                    counts
                }
            };
            let mut start = 0;
            for (range_start, len) in &mut ranges {
                *range_start = start;
                start += std::mem::take(len);
            }
            entries.resize(start, Entry::vacant());
        }
        Self {
            cfg,
            groups: Vec::new(),
            shared_start: entries.len(),
            entries,
            ranges,
            index,
            components,
            rng,
            deferred: Vec::new(),
            eliminated: Vec::new(),
            scratch_candidates: Vec::new(),
            scratch_overlaps: Vec::new(),
            scratch_window: Vec::new(),
            scratch_stack: Vec::new(),
            scratch_hull: Vec::new(),
            candidates_tested: 0,
        }
    }

    /// Whether the per-group convex hull cache applies: 2-D data under a
    /// metric whose rectangle filter is conservative (`L1`/`L2`).
    #[inline]
    fn hull_maintained(&self) -> bool {
        self.cfg.metric.needs_refinement() && D == 2
    }

    /// The label of `ext`'s component when its groups have a range of
    /// their own, or `None` when they live in the group R-tree (or only in
    /// the shared range, for the paths without components).
    #[inline]
    fn directory_of(&self, ext: RecordId) -> Option<usize> {
        self.components.as_ref()?.directory(ext)
    }

    /// Procedure 1 body for one point.
    fn process(&mut self, ext: RecordId, p: Point<D>) {
        // What happens to overlap groups' removed members, decided once:
        // JOIN-ANY never processes overlaps, so it does not track them.
        let removal = match self.cfg.overlap {
            OverlapAction::JoinAny => None,
            OverlapAction::Eliminate => Some(Removal::Drop),
            OverlapAction::FormNewGroup => Some(Removal::Defer),
        };
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        let mut overlaps = std::mem::take(&mut self.scratch_overlaps);
        candidates.clear();
        overlaps.clear();

        self.find_close_groups(ext, &p, removal.is_some(), &mut candidates, &mut overlaps);
        self.candidates_tested += (candidates.len() + overlaps.len()) as u64;
        self.process_grouping(ext, p, &candidates);
        if let Some(removal) = removal {
            self.process_overlap(&p, &overlaps, removal);
        }

        self.scratch_candidates = candidates;
        self.scratch_overlaps = overlaps;
    }

    /// `FindCloseGroups` for record `ext` at `p`: fills `candidates` (point
    /// may join) and, with `track_overlaps`, `overlaps` (some but not all
    /// members within ε), both ordered by group id so every algorithm
    /// yields identical arbitration inputs.
    fn find_close_groups(
        &mut self,
        ext: RecordId,
        p: &Point<D>,
        track_overlaps: bool,
        candidates: &mut Vec<GroupId>,
        overlaps: &mut Vec<GroupId>,
    ) {
        match self.cfg.algorithm {
            // Resolution never yields `Auto`; it shares the scan's arm.
            Algorithm::AllPairs | Algorithm::Auto => {
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
            // Every group lives in the shared range, in creation order.
            Algorithm::BoundsChecking => {
                let every_group = self.shared_start..self.entries.len();
                self.scan_directory(every_group, p, track_overlaps, candidates, overlaps);
            }
            Algorithm::Indexed => self.probe_index(p, track_overlaps, candidates, overlaps),
            Algorithm::Grid => match self.directory_of(ext) {
                Some(label) => {
                    let (start, len) = self.ranges[label];
                    let own_component = start..start + len;
                    self.scan_directory(own_component, p, track_overlaps, candidates, overlaps);
                }
                None => self.probe_index(p, track_overlaps, candidates, overlaps),
            },
        }
    }

    /// Procedure 4 over the directory entries in `range`, in order:
    /// constant-time rectangle tests per group, streaming through the flat
    /// directory and touching group state only on filter hits. Dead groups
    /// hold empty rectangles and never pass.
    fn scan_directory(
        &self,
        range: std::ops::Range<usize>,
        p: &Point<D>,
        track_overlaps: bool,
        candidates: &mut Vec<GroupId>,
        overlaps: &mut Vec<GroupId>,
    ) {
        for entry in &self.entries[range] {
            let test = self.test_entry(entry, p, track_overlaps);
            file(test, entry.gid, candidates, overlaps);
        }
    }

    /// The Bounds-Checking tests of one directory entry against `p`, each
    /// hit settled exactly. When overlaps are tracked the padded reach
    /// rectangle goes first: it contains the padded allowed rectangle, so
    /// a point outside it passes neither test, and one test settles a far
    /// group (see the module docs). JOIN-ANY tests the allowed rectangle
    /// only.
    #[inline(always)]
    fn test_entry(&self, entry: &Entry<D>, p: &Point<D>, track_overlaps: bool) -> GroupTest {
        if track_overlaps && !entry.reach.contains_point(p) {
            GroupTest::Far
        } else if entry.allowed.contains_point(p) {
            refine_candidate(&self.groups[entry.gid], p, &self.cfg, track_overlaps)
        } else if track_overlaps {
            scan_overlap(&self.groups[entry.gid], p, &self.cfg)
        } else {
            GroupTest::Far
        }
    }

    /// Procedure 5: a metric-aware range query on `Groups_IX` retrieves
    /// every indexed group whose MBR comes within ε of `p` under the
    /// configured norm — a superset of its candidates and overlap groups
    /// (any member within ε of `p` bounds the MBR's mindist by ε), pruned
    /// with the metric's own ball instead of its enclosing rectangle. The
    /// query's relaxed threshold guarantees no predicate-accepted member is
    /// missed to floating-point rounding. Hits are tested in group-id
    /// order, with the Bounds-Checking tests.
    fn probe_index(
        &mut self,
        p: &Point<D>,
        track_overlaps: bool,
        candidates: &mut Vec<GroupId>,
        overlaps: &mut Vec<GroupId>,
    ) {
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
            let entry = &self.entries[self.groups[gid].entry];
            let test = self.test_entry(entry, p, track_overlaps);
            file(test, gid, candidates, overlaps);
        }
        self.scratch_window = gset;
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
    /// satisfy the predicate with `p` are removed, and `removal` says
    /// whether they are dropped (ELIMINATE) or deferred to `S'`
    /// (FORM-NEW-GROUP).
    ///
    /// Kept out of line, so that `process`, which every point runs, stays
    /// small: inlined into it together with `rebuild_group`, its one
    /// callee, it made sgbbench's `checkin-all` statements about 4% slower
    /// at the median, JOIN-ANY's (which never call it) included.
    #[inline(never)]
    fn process_overlap(&mut self, p: &Point<D>, overlaps: &[GroupId], removal: Removal) {
        let (eps, metric) = (self.cfg.eps, self.cfg.metric);
        for &gid in overlaps {
            let g = &mut self.groups[gid];
            debug_assert!(!g.is_dead());
            let before = g.members.len();
            let (eliminated, deferred) = (&mut self.eliminated, &mut self.deferred);
            g.members.retain(|&(id, q)| {
                let keep = !metric.within(p, &q, eps);
                if !keep {
                    match removal {
                        Removal::Drop => eliminated.push(id),
                        Removal::Defer => deferred.push((id, q)),
                    }
                }
                keep
            });
            debug_assert!(
                g.members.len() < before,
                "overlap group without overlapped members"
            );
            self.rebuild_group(gid);
        }
    }

    /// Creates a group for record `ext` and files it where its component's
    /// points will look for it: the next slot of the component's range, or
    /// the shared range (and, where one is kept, the group R-tree).
    fn create_group(&mut self, ext: RecordId, p: Point<D>) {
        let gid = self.groups.len();
        let region = EpsAllRegion::with_first(self.cfg.eps, p);
        let mut indexed_rect = None;
        let entry = match self.directory_of(ext) {
            Some(label) => {
                let (start, len) = &mut self.ranges[label];
                let slot = *start + *len;
                *len += 1;
                let end = self
                    .ranges
                    .get(label + 1)
                    .map_or(self.shared_start, |r| r.0);
                debug_assert!(slot < end, "component {label} outgrew its range");
                slot
            }
            None => {
                if let Some(ix) = &mut self.index {
                    let rect = region.mbr();
                    ix.insert(rect, gid);
                    indexed_rect = Some(rect);
                }
                self.entries.push(Entry::vacant());
                self.entries.len() - 1
            }
        };
        self.groups.push(GroupState {
            members: vec![(ext, p)],
            region,
            hull: None,
            indexed_rect,
            entry,
        });
        self.refresh_rects(gid);
    }

    fn insert_member(&mut self, gid: GroupId, ext: RecordId, p: Point<D>) {
        let maintain_hull = self.hull_maintained();
        let g = &mut self.groups[gid];
        debug_assert!(!g.is_dead(), "cannot join a dead group");
        g.members.push((ext, p));
        g.region.insert(&p);
        if let Some(h) = &g.hull {
            // Incremental maintenance: hull(S ∪ {p}) = hull(vertices ∪ {p}).
            let p2 = to2(&p);
            if !h.contains(&p2) {
                let vertices = h.vertices().iter().copied().chain([p2]);
                g.hull = Some(hull_of(&mut self.scratch_hull, vertices));
            }
        } else if maintain_hull && g.members.len() >= self.cfg.hull_threshold {
            let members = g.members.iter().map(|(_, q)| to2(q));
            g.hull = Some(hull_of(&mut self.scratch_hull, members));
        }
        self.refresh_rects(gid);
        self.sync_index(gid);
    }

    /// Recomputes a group's region/hull after member removal and updates
    /// the index (groups shrink under ELIMINATE / FORM-NEW-GROUP).
    fn rebuild_group(&mut self, gid: GroupId) {
        let maintain_hull = self.hull_maintained();
        let g = &mut self.groups[gid];
        g.region.rebuild(g.members.iter().map(|(_, q)| q));
        g.hull = (maintain_hull && !g.is_dead() && g.members.len() >= self.cfg.hull_threshold)
            .then(|| {
                hull_of(
                    &mut self.scratch_hull,
                    g.members.iter().map(|(_, q)| to2(q)),
                )
            });
        self.refresh_rects(gid);
        self.sync_index(gid);
    }

    /// Writes group `gid`'s directory entry: its allowed and reach
    /// regions, padded by the group's rounding slack (empty for a dead
    /// group).
    fn refresh_rects(&mut self, gid: GroupId) {
        let g = &self.groups[gid];
        let (allowed, reach) = if g.is_dead() {
            (Rect::empty(), Rect::empty())
        } else {
            let slack = rounding_slack(&g.region.mbr(), self.cfg.eps);
            (
                dilate(&g.region.allowed(), slack),
                dilate(&g.region.reach(), slack),
            )
        };
        self.entries[g.entry] = Entry {
            gid,
            allowed,
            reach,
        };
    }

    /// Keeps an indexed group's `Groups_IX` entry in sync with its MBR; a
    /// group that dies leaves the index. Groups filed in a directory are
    /// never indexed.
    fn sync_index(&mut self, gid: GroupId) {
        let Some(ix) = &mut self.index else { return };
        let g = &mut self.groups[gid];
        let Some(old) = g.indexed_rect else { return };
        if g.is_dead() {
            let removed = ix.remove(&old, &gid);
            debug_assert!(removed, "dead group {gid} missing from index");
            g.indexed_rect = None;
        } else {
            let new = g.region.mbr();
            if old != new {
                let moved = ix.update(&old, new, gid);
                debug_assert!(moved, "group {gid} missing from index");
                g.indexed_rect = Some(new);
            }
        }
    }

    /// Appends the live groups (record ids in join order, groups in
    /// creation order) to `out`.
    fn drain_groups_into(&self, out: &mut GroupsBuilder) {
        for g in &self.groups {
            if !g.is_dead() {
                out.push(g.members.iter().map(|&(id, _)| id));
            }
        }
    }
}

/// The SGB-All engine behind [`SgbQuery::all`] runs: push points in
/// arrival order, then [`finish`](Self::finish).
#[derive(Debug)]
pub(crate) struct SgbAll<const D: usize> {
    engine: Engine<D>,
    pushed: usize,
}

impl<const D: usize> SgbAll<D> {
    /// Creates the engine for an SGB-All `query` with threshold `eps` and
    /// overlap action `overlap` (the query's operator knobs), running the
    /// concrete `algorithm` the caller resolved. [`Algorithm::Grid`] needs
    /// `components`, the labels of the records about to be pushed; the
    /// other paths ignore it.
    pub(crate) fn new(
        query: &SgbQuery<D>,
        eps: f64,
        overlap: OverlapAction,
        algorithm: Algorithm,
        components: Option<Components>,
    ) -> Self {
        let cfg = Params {
            eps,
            metric: query.metric,
            overlap,
            algorithm,
            hull_threshold: HULL_THRESHOLD,
        };
        Self {
            engine: Engine::new(cfg, SmallRng::seed_from_u64(query.seed), components, None),
            pushed: 0,
        }
    }

    /// Candidate/overlap groups inspected so far by `FindCloseGroups` —
    /// the main-pass candidate count surfaced through query telemetry
    /// (FORM-NEW-GROUP sub-passes are not included; read before
    /// [`SgbAll::finish`]).
    pub(crate) fn candidates_tested(&self) -> u64 {
        self.engine.candidates_tested
    }

    /// Processes the next point (Procedure 1 body); its record id is its
    /// position in arrival order.
    pub(crate) fn push(&mut self, p: Point<D>) {
        debug_assert!(p.is_finite(), "validated by the callers");
        self.engine.process(self.pushed, p);
        self.pushed += 1;
    }

    /// Completes the operator: runs the FORM-NEW-GROUP recursion over `S'`
    /// (Section 6.2.1) and materialises the answer groups. Calls `poll`
    /// before each point a recursion pass processes, as the main pass
    /// polls the governor before each push, and stops at its first error.
    ///
    /// # Errors
    /// The first error `poll` returns.
    pub(crate) fn finish<E>(
        mut self,
        mut poll: impl FnMut() -> Result<(), E>,
    ) -> Result<Grouping, E> {
        let mut groups = GroupsBuilder::default();
        self.engine.drain_groups_into(&mut groups);
        let mut eliminated = std::mem::take(&mut self.engine.eliminated);
        let mut pending = std::mem::take(&mut self.engine.deferred);
        let mut components = self.engine.components.take();
        let cfg = self.engine.cfg;
        let mut rng = self.engine.rng.clone();
        drop(self.engine);

        // FORM-NEW-GROUP: regroup S' with a fresh pass until it drains.
        // Each pass keeps at least one point (the last point processed in a
        // pass either joins/creates a group that survives, or its candidate
        // groups' members survive), so this terminates. Every pass keeps
        // the main pass's component labels.
        while !pending.is_empty() {
            let mut sub = Engine::new(cfg, rng.clone(), components, Some(&pending));
            let before = pending.len();
            for (ext, p) in pending.drain(..) {
                poll()?;
                sub.process(ext, p);
            }
            sub.drain_groups_into(&mut groups);
            eliminated.append(&mut sub.eliminated);
            pending = std::mem::take(&mut sub.deferred);
            components = sub.components.take();
            rng = sub.rng;
            assert!(
                pending.len() < before,
                "FORM-NEW-GROUP recursion failed to make progress"
            );
        }
        Ok(groups.finish(eliminated))
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
    use sgb_geom::Metric;

    const ALGOS: [Algorithm; 4] = [
        Algorithm::AllPairs,
        Algorithm::BoundsChecking,
        Algorithm::Indexed,
        Algorithm::Grid,
    ];

    fn pts(raw: &[[f64; 2]]) -> Vec<Point<2>> {
        raw.iter().map(|&c| Point::new(c)).collect()
    }

    /// `op`'s answer, with a recursion nothing can stop.
    fn finish<const D: usize>(op: SgbAll<D>) -> Grouping {
        let Ok(grouping) = op.finish(|| Ok::<(), std::convert::Infallible>(()));
        grouping
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
            let query = SgbQuery::all(3.0).metric(Metric::LInf).algorithm(algo);
            let out = query.run(&fig2_points());
            assert_eq!(out.sorted_sizes(), vec![3, 2], "{algo:?}");
            assert!(out.eliminated().is_empty());
            out.check_partition(5);
        }
    }

    #[test]
    fn example1_eliminate_yields_2_2() {
        for algo in ALGOS {
            let query = SgbQuery::all(3.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::Eliminate)
                .algorithm(algo);
            let out = query.run(&fig2_points());
            assert_eq!(out.sorted_sizes(), vec![2, 2], "{algo:?}");
            assert_eq!(out.eliminated(), &[4], "{algo:?}");
            out.check_partition(5);
        }
    }

    #[test]
    fn example1_form_new_group_yields_2_2_1() {
        for algo in ALGOS {
            let query = SgbQuery::all(3.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::FormNewGroup)
                .algorithm(algo);
            let out = query.run(&fig2_points());
            assert_eq!(out.sorted_sizes(), vec![2, 2, 1], "{algo:?}");
            // a5 ends up alone in the newly formed group.
            assert!(out.groups().iter().any(|g| g == [4]), "{algo:?}");
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
    fn form_new_group_recursion_stops_at_the_first_failed_poll() {
        // a5 is deferred, so FORM-NEW-GROUP's recursion polls once and
        // gives up on the error; ELIMINATE defers nothing and never polls.
        for overlap in [OverlapAction::Eliminate, OverlapAction::FormNewGroup] {
            let query = SgbQuery::all(3.0).metric(Metric::LInf).overlap(overlap);
            let mut op = SgbAll::new(&query, 3.0, overlap, Algorithm::BoundsChecking, None);
            for p in fig2_points() {
                op.push(p);
            }
            let mut polls = 0;
            let out = op.finish(|| {
                polls += 1;
                Err(SgbError::Timeout)
            });
            if overlap == OverlapAction::FormNewGroup {
                assert_eq!(out, Err(SgbError::Timeout));
                assert_eq!(polls, 1);
            } else {
                assert_eq!(out.map(|g| g.sorted_sizes()), Ok(vec![2, 2]));
                assert_eq!(polls, 0);
            }
        }
    }

    #[test]
    fn fig4_eliminate_drops_x_and_a3() {
        for algo in ALGOS {
            let query = SgbQuery::all(4.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::Eliminate)
                .algorithm(algo);
            let out = query.run(&fig4_points());
            let mut eliminated = out.eliminated().to_vec();
            eliminated.sort_unstable();
            assert_eq!(eliminated, vec![2, 10], "{algo:?}"); // a3 and x
            assert_eq!(out.sorted_sizes(), vec![3, 2, 2, 2], "{algo:?}");
            out.check_partition(11);
        }
    }

    #[test]
    fn fig4_form_new_group_regroups_x_with_a3() {
        for algo in ALGOS {
            let query = SgbQuery::all(4.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::FormNewGroup)
                .algorithm(algo);
            let out = query.run(&fig4_points());
            // x and a3 are deferred, then form a group of their own
            // (they are within 4 of each other).
            assert!(
                out.groups().iter().any(|g| {
                    let mut g = g.to_vec();
                    g.sort_unstable();
                    g == vec![2, 10]
                }),
                "{algo:?}: {:?}",
                out.groups()
            );
            assert_eq!(out.sorted_sizes(), vec![3, 2, 2, 2, 2], "{algo:?}");
            out.check_partition(11);
        }
    }

    #[test]
    fn fig4_join_any_keeps_groups_intact() {
        for algo in ALGOS {
            let query = SgbQuery::all(4.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::JoinAny)
                .algorithm(algo)
                .seed(99);
            let out = query.run(&fig4_points());
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
            let query = SgbQuery::all(1.0).algorithm(algo);
            assert_eq!(query.run(&[]).num_groups(), 0);
            let one = query.run(&pts(&[[5.0, 5.0]]));
            assert_eq!(one.groups(), &[vec![0]]);
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
                    let query = SgbQuery::all(0.8)
                        .metric(metric)
                        .overlap(overlap)
                        .algorithm(algo);
                    let out = query.run(&points);
                    out.check_partition(points.len());
                    for g in out.groups() {
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
                        let query = SgbQuery::all(0.5)
                            .metric(metric)
                            .overlap(overlap)
                            .algorithm(algo)
                            .seed(1234);
                        query.run(&points)
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
                let out = SgbQuery::all(eps)
                    .metric(metric)
                    .algorithm(algo)
                    .run(&[a, corner]);
                assert_eq!(out.num_groups(), 2, "{algo:?} must split under {metric}");
            }
            let linf = SgbQuery::all(eps)
                .metric(Metric::LInf)
                .algorithm(algo)
                .run(&[a, corner]);
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
            let l2 = SgbQuery::all(1.0)
                .metric(Metric::L2)
                .algorithm(algo)
                .run(&[a, b]);
            assert_eq!(l2.num_groups(), 1, "{algo:?}");
            let l1 = SgbQuery::all(1.0)
                .metric(Metric::L1)
                .algorithm(algo)
                .run(&[a, b]);
            assert_eq!(l1.num_groups(), 2, "{algo:?}");
        }
    }

    #[test]
    fn l1_hull_refinement_agrees_with_member_scan() {
        // The hull refinement is a pure optimisation: from the hull on
        // every group (threshold 1) to none at all (threshold MAX), under
        // both conservative metrics, every overlap mode and every path
        // that refines through hulls, the answer equals AllPairs'.
        let mut state: u64 = 21;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        // A uniform cloud, with every fourth point in a tight cluster so
        // that groups grow past every finite threshold.
        let points: Vec<Point<2>> = (0..320)
            .map(|i| {
                let (origin, side) = if i % 4 == 0 { (1.8, 0.4) } else { (0.0, 4.0) };
                Point::new([origin + next() * side, origin + next() * side])
            })
            .collect();
        let eps = 0.9;
        let free = QueryGovernor::unrestricted();
        for metric in [Metric::L1, Metric::L2] {
            let components =
                Components::find(&points, eps, metric, crate::cost::ALL_BOUNDS_MAX_N, &free)
                    .unwrap();
            let mut largest = 0;
            for overlap in [
                OverlapAction::JoinAny,
                OverlapAction::Eliminate,
                OverlapAction::FormNewGroup,
            ] {
                let query = SgbQuery::all(eps).metric(metric).overlap(overlap).seed(11);
                let reference = query.clone().algorithm(Algorithm::AllPairs).run(&points);
                largest = reference
                    .groups()
                    .iter()
                    .map(<[RecordId]>::len)
                    .fold(largest, usize::max);
                for hull_threshold in [1, 4, HULL_THRESHOLD, usize::MAX] {
                    for algorithm in [
                        Algorithm::BoundsChecking,
                        Algorithm::Indexed,
                        Algorithm::Grid,
                    ] {
                        let components = Some(components.clone());
                        let mut op = SgbAll::new(&query, eps, overlap, algorithm, components);
                        op.engine.cfg.hull_threshold = hull_threshold;
                        for p in &points {
                            op.push(*p);
                        }
                        assert_eq!(
                            finish(op),
                            reference,
                            "{metric} {overlap:?} threshold {hull_threshold} {algorithm:?}"
                        );
                    }
                }
            }
            assert!(largest > HULL_THRESHOLD, "{metric}: no group grew past 16");
        }
    }

    #[test]
    fn join_any_is_deterministic_per_seed() {
        let points = fig2_points();
        let query = |seed| {
            SgbQuery::all(3.0)
                .metric(Metric::LInf)
                .algorithm(Algorithm::Indexed)
                .seed(seed)
        };
        let a = query(42).run(&points);
        let b = query(42).run(&points);
        assert_eq!(a, b);
        // Across many seeds both choices should appear.
        let mut joined_first = false;
        let mut joined_second = false;
        for seed in 0..32 {
            let out = query(seed).run(&points);
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
            let query = SgbQuery::all(1.6)
                .metric(Metric::LInf)
                .overlap(OverlapAction::Eliminate)
                .algorithm(algo);
            let out = query.run(&points);
            let mut eliminated = out.eliminated().to_vec();
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
            let query = SgbQuery::all(6.0)
                .metric(Metric::LInf)
                .overlap(OverlapAction::FormNewGroup)
                .algorithm(algo);
            let out = query.run(&points);
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
                let query = SgbQuery::all(1.0).metric(metric).algorithm(algo);
                let out = query.run(&points);
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
        for overlap in [
            OverlapAction::JoinAny,
            OverlapAction::Eliminate,
            OverlapAction::FormNewGroup,
        ] {
            let auto = SgbQuery::all(0.5).overlap(overlap).seed(1234).run(&points);
            for algo in ALGOS {
                let concrete = SgbQuery::all(0.5)
                    .overlap(overlap)
                    .algorithm(algo)
                    .seed(1234)
                    .run(&points);
                assert_eq!(auto, concrete, "{algo:?} {overlap:?}");
            }
        }
    }

    #[test]
    fn grid_searches_big_components_through_the_rtree() {
        // One dense cluster (one ε-component above a per-component bound
        // of 4 points) beside pairs and triples far apart (components below
        // it): the big component's points take the group R-tree, the
        // others their own directory, and the answer equals AllPairs'.
        let mut state: u64 = 0xC0C0;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let mut points: Vec<Point<2>> = Vec::new();
        for i in 0..60 {
            points.push(Point::new([next(), next()]));
            if i % 6 == 0 {
                // A small far cluster of 2 or 3 points, interleaved so
                // the two kinds of search alternate in arrival order.
                let (cx, cy) = (10.0 + 5.0 * f64::from(i), 10.0);
                for k in 0..2 + i % 2 {
                    points.push(Point::new([cx + 0.1 * f64::from(k), cy + 0.1 * next()]));
                }
            }
        }
        let (eps, bound) = (0.4, 4);
        let free = QueryGovernor::unrestricted();
        for metric in Metric::ALL {
            let components = Components::find(&points, eps, metric, bound, &free).unwrap();
            assert!(components.largest() > bound, "{metric}: no big component");
            assert!(
                (0..points.len()).any(|r| components.directory(r).is_some()),
                "{metric}: no scanned component"
            );
            for overlap in [
                OverlapAction::JoinAny,
                OverlapAction::Eliminate,
                OverlapAction::FormNewGroup,
            ] {
                let query = SgbQuery::all(eps).metric(metric).overlap(overlap).seed(77);
                let mut op = SgbAll::new(
                    &query,
                    eps,
                    overlap,
                    Algorithm::Grid,
                    Some(components.clone()),
                );
                for p in &points {
                    op.push(*p);
                }
                // Both kinds of search ran: some groups went to the tree,
                // some to a component's range of the directory.
                let engine = &op.engine;
                assert!(engine.groups.iter().any(|g| g.indexed_rect.is_some()));
                assert!(engine.ranges.iter().any(|&(_, len)| len > 0));
                let reference = query.clone().algorithm(Algorithm::AllPairs).run(&points);
                assert_eq!(finish(op), reference, "{metric} {overlap:?}");
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
        let all = SgbQuery::all(eps).run(&points);
        let any = SgbQuery::any(eps).run(&points);
        let comp = any.assignment(points.len());
        for g in all.groups() {
            let c0 = comp[g[0]].unwrap();
            assert!(g.iter().all(|&r| comp[r] == Some(c0)));
        }
    }
}
