//! The SGB-Around operator: nearest-of-a-set-of-centers grouping.
//!
//! The third member of the similarity group-by family (per the companion
//! paper *On Order-independent Semantics of the Similarity Group-By
//! Relational Database Operator*): the query supplies a set of **center
//! points**, and every tuple joins the group of its nearest center under
//! the query metric — optionally bounded by a maximum radius `r`, beyond
//! which tuples fall into an explicit **outlier group**.
//!
//! Because the group seeds are fixed up front, the assignment of each tuple
//! depends only on the tuple itself, never on previously processed tuples:
//! the grouping is trivially **order-independent** (unlike SGB-All, whose
//! `ON-OVERLAP` arbitration is arrival-order sensitive). That makes it the
//! natural high-throughput member of the family — assignments are
//! embarrassingly parallel and need no inter-group reconciliation.
//!
//! Three interchangeable search strategies:
//!
//! * [`Algorithm::AllPairs`] scans every center per tuple;
//! * [`Algorithm::Indexed`] bulk-loads the centers into an [`RTree`] once
//!   (sort-tile-recursive packing, no per-center inserts) and answers each
//!   tuple with a metric-aware nearest-neighbour query;
//! * [`Algorithm::Grid`] bulk-loads the centers into a uniform [`Grid`]
//!   sized for roughly one center per cell and answers each tuple with an
//!   expanding-ring search.
//!
//! [`Algorithm::Auto`] cost-selects among them from the center count
//! ([`crate::cost::resolve_around`] — centers are part of the query, so
//! streaming and one-shot execution resolve identically).
//!
//! All paths break exact distance ties towards the **lowest center
//! index** and produce bit-identical groupings: the brute path compares
//! canonical [`sgb_geom::Metric::distance`] values, the R-tree's best-first
//! search reports the same values for point entries (see
//! [`RTree::nearest`]) with ties in ascending payload order, and the
//! grid's ring search computes the same canonical distances with the same
//! `(distance, payload)`-lexicographic argmin.

use std::sync::Arc;

use sgb_geom::{Metric, Point};
use sgb_spatial::rtree::DEFAULT_MAX_ENTRIES;
use sgb_spatial::{Grid, RTree};

use crate::governor::{Pacer, QueryGovernor, SgbError};
use crate::{Algorithm, Grouping, RecordId, SgbQuery};

/// Index of a center in the query's center list.
pub type CenterId = usize;

/// The per-tuple nearest-center search structure, per concrete algorithm.
/// Crate-visible (behind an `Arc`) so the session index cache can build a
/// center index once and share it across queries — its construction reads
/// only the query's center coordinates, never the table, so a cached
/// entry stays valid across table versions and metrics.
#[derive(Clone, Debug)]
pub(crate) enum CenterIndex<const D: usize> {
    /// Brute force: scan the configured center list.
    Scan,
    /// Center R-tree, STR bulk-loaded once at construction.
    Tree(RTree<D, CenterId>),
    /// Center grid, bulk-loaded once at construction.
    Cells(Grid<D, CenterId>),
}

impl<const D: usize> CenterIndex<D> {
    /// The concrete algorithm this structure serves.
    pub(crate) fn algorithm(&self) -> Algorithm {
        match self {
            CenterIndex::Scan => Algorithm::AllPairs,
            CenterIndex::Tree(_) => Algorithm::Indexed,
            CenterIndex::Cells(_) => Algorithm::Grid,
        }
    }
}

/// Bulk-loads the center search structure for a resolved algorithm, split
/// out so the session cache can build (and retain) an index without an
/// operator instance.
pub(crate) fn build_center_index<const D: usize>(
    algorithm: Algorithm,
    centers: &[Point<D>],
) -> CenterIndex<D> {
    match algorithm {
        Algorithm::Indexed => CenterIndex::Tree(RTree::from_points(
            DEFAULT_MAX_ENTRIES,
            centers.iter().enumerate().map(|(c, p)| (*p, c)),
        )),
        Algorithm::Grid => CenterIndex::Cells(Grid::from_points(
            Grid::<D, CenterId>::side_for_points(centers),
            centers.iter().enumerate().map(|(c, p)| (*p, c)),
        )),
        // Resolution never yields `Auto` (and the builder rejects
        // `BoundsChecking`); both share the scan's arm.
        Algorithm::AllPairs | Algorithm::Auto | Algorithm::BoundsChecking => CenterIndex::Scan,
    }
}

/// The assignment rule of one SGB-Around query: its centers, metric and
/// radius bound, plus the search structure over the centers. Shared by
/// the streaming engine and the incremental engine.
#[derive(Clone, Debug)]
pub(crate) struct CenterRule<const D: usize> {
    centers: Vec<Point<D>>,
    metric: Metric,
    max_radius: Option<f64>,
    /// Nearest-center search structure, bulk-loaded once (centers never
    /// change during a run). Shared (`Arc`) so the session index cache
    /// can hand the same built structure to many queries; it must have
    /// been built from `centers` in order.
    index: Arc<CenterIndex<D>>,
}

impl<const D: usize> CenterRule<D> {
    /// The rule of an SGB-Around `query` with `centers` and `max_radius`
    /// (its operator knobs), searching through `index`.
    pub(crate) fn new(
        query: &SgbQuery<D>,
        centers: &[Point<D>],
        max_radius: Option<f64>,
        index: Arc<CenterIndex<D>>,
    ) -> Self {
        Self {
            centers: centers.to_vec(),
            metric: query.metric,
            max_radius,
            index,
        }
    }

    /// Number of centers.
    pub(crate) fn num_centers(&self) -> usize {
        self.centers.len()
    }

    /// The concrete search strategy.
    pub(crate) fn algorithm(&self) -> Algorithm {
        self.index.algorithm()
    }

    /// The center `p` joins, or `None` when `p` lies beyond the radius
    /// bound (an outlier). `scratch` is traversal scratch for the R-tree,
    /// reused across calls.
    #[inline]
    pub(crate) fn assign(&self, scratch: &mut Vec<usize>, p: &Point<D>) -> Option<CenterId> {
        let c = self.nearest(scratch, p);
        // Radius bound with the canonical predicate, evaluated identically
        // on every path (never against the index's reported distance).
        match self.max_radius {
            Some(r) if !self.metric.within(p, &self.centers[c], r) => None,
            _ => Some(c),
        }
    }

    /// The nearest center of `p` under the metric, ties towards the lowest
    /// center index.
    ///
    /// The brute path compares canonical [`sgb_geom::Metric::distance`]
    /// values so its tie set is identical to the indexed path's
    /// ([`RTree::nearest_one_with`] reports the same floating-point
    /// distances for point entries and breaks ties by ascending payload).
    /// The builder rejects an empty center list; were one to get here,
    /// every path would answer center 0.
    fn nearest(&self, scratch: &mut Vec<usize>, p: &Point<D>) -> CenterId {
        let metric = self.metric;
        match &*self.index {
            CenterIndex::Scan => {
                let mut best = (f64::INFINITY, 0);
                for (c, q) in self.centers.iter().enumerate() {
                    let d = metric.distance(p, q);
                    if d < best.0 {
                        best = (d, c);
                    }
                }
                best.1
            }
            CenterIndex::Tree(ix) => ix
                .nearest_one_with(p, metric, scratch)
                .map_or(0, |hit| hit.1),
            CenterIndex::Cells(grid) => grid.nearest_one(p, metric).map_or(0, |hit| hit.1),
        }
    }
}

/// The streaming SGB-Around engine behind [`SgbQuery::around`]: push
/// points in any order, then [`finish`](Self::finish). The grouping is
/// order-independent: only member order within a group follows arrival
/// order.
///
/// ```
/// use sgb_core::SgbQuery;
/// use sgb_geom::Point;
///
/// let centers = vec![Point::new([0.0, 0.0]), Point::new([10.0, 10.0])];
/// let mut stream = SgbQuery::around(centers).max_radius(3.0).stream();
/// for p in [[1.0, 1.0], [9.0, 9.5], [0.5, -0.5], [5.0, 5.0]] {
///     stream.push(Point::new(p));
/// }
/// let out = stream.finish();
/// assert_eq!(out.groups(), &[vec![0, 2], vec![1]]);
/// assert_eq!(out.group_centers(), &[0, 1]);
/// assert_eq!(out.outliers(), &[3]); // (5, 5) is > 3 away from both
/// ```
#[derive(Clone, Debug)]
pub(crate) struct SgbAround<const D: usize> {
    rule: CenterRule<D>,
    /// Per-center member lists, index-aligned with the center list.
    groups: Vec<Vec<RecordId>>,
    outliers: Vec<RecordId>,
    pushed: usize,
    /// Traversal scratch for the indexed nearest-center query, reused
    /// across pushes so the hot loop allocates nothing per tuple.
    scratch: Vec<usize>,
}

impl<const D: usize> SgbAround<D> {
    /// Creates the engine for an assignment rule.
    pub(crate) fn new(rule: CenterRule<D>) -> Self {
        let groups = vec![Vec::new(); rule.num_centers()];
        Self {
            rule,
            groups,
            outliers: Vec::new(),
            pushed: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of points processed so far.
    pub(crate) fn len(&self) -> usize {
        self.pushed
    }

    /// Assigns one point to its nearest center (or the outlier group),
    /// returning its record id.
    pub(crate) fn push(&mut self, p: Point<D>) -> RecordId {
        assert!(p.is_finite(), "points must have finite coordinates");
        let c = self.rule.assign(&mut self.scratch, &p);
        self.record(c)
    }

    /// Appends the next record id to center `c`'s group, or to the
    /// outliers for `None`.
    fn record(&mut self, c: Option<CenterId>) -> RecordId {
        let id = self.pushed;
        self.pushed += 1;
        match c {
            Some(c) => self.groups[c].push(id),
            None => self.outliers.push(id),
        }
        id
    }

    /// Assigns a complete batch of points, equivalent to pushing each in
    /// order, with a deadline/cancellation check per tuple. With more than
    /// one worker (`threads`, as the caller resolved it — see
    /// [`crate::cost::threads_for_around`]), each worker classifies its
    /// chunk independently into a shared slot array, pacing against the
    /// shared governor and parking its verdict in a per-chunk slot; a
    /// sequential arrival-order stitch then appends record ids to their
    /// groups — only when every chunk succeeded — reproducing the member
    /// order of a sequential run exactly (asserted by
    /// `tests/proptest_parallel.rs`). Points must be finite (validated by
    /// the callers).
    ///
    /// On `Err`, the state may have absorbed a prefix of the batch —
    /// **discard the engine**; the query entry points build a fresh
    /// engine per call, so no partial grouping is observable.
    pub(crate) fn try_extend_from_slice(
        &mut self,
        points: &[Point<D>],
        threads: usize,
        governor: &QueryGovernor,
    ) -> Result<(), SgbError> {
        failpoints::fail_point!("sgb_core::around::assign", |_| Err(SgbError::Cancelled));
        governor.check()?;
        if threads <= 1 {
            let mut pacer = Pacer::new();
            for p in points {
                pacer.tick(governor)?;
                self.push(*p);
            }
            return Ok(());
        }
        assert!(
            self.rule.num_centers() < u32::MAX as usize,
            "too many centers for the parallel assignment encoding"
        );
        const OUTLIER: u32 = u32::MAX;
        let mut assign = vec![OUTLIER; points.len()];
        // Several chunks per worker so an uneven cluster layout still
        // balances; chunk geometry never affects results.
        let chunk = points.len().div_ceil(threads * 4).max(1);
        let mut verdicts: Vec<Result<(), SgbError>> = vec![Ok(()); points.len().div_ceil(chunk)];
        let rule = &self.rule;
        let mut pool = scoped_threadpool::Pool::new(threads as u32);
        pool.try_scoped(|scope| {
            for ((pts, out), verdict) in points
                .chunks(chunk)
                .zip(assign.chunks_mut(chunk))
                .zip(verdicts.iter_mut())
            {
                scope.execute(move || {
                    let mut scratch = Vec::new();
                    let mut pacer = Pacer::new();
                    *verdict = pts.iter().zip(out.iter_mut()).try_for_each(|(p, slot)| {
                        pacer.tick(governor)?;
                        debug_assert!(p.is_finite(), "validated by the callers");
                        *slot = rule.assign(&mut scratch, p).map_or(OUTLIER, |c| c as u32);
                        Ok(())
                    });
                });
            }
        })
        .map_err(|p| SgbError::WorkerPanicked {
            message: p.message().to_owned(),
        })?;
        for verdict in verdicts {
            verdict?;
        }
        for &code in &assign {
            self.record((code != OUTLIER).then_some(code as usize));
        }
        Ok(())
    }

    /// Materialises the answer groups: the non-empty center groups in
    /// center order, each with its center, plus the outlier set.
    pub(crate) fn finish(self) -> Grouping {
        Grouping::around(self.groups, self.outliers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maps each record id in `0..n` to its center (`None` for outliers).
    fn centers_of(out: &Grouping, n: usize) -> Vec<Option<CenterId>> {
        out.assignment(n)
            .into_iter()
            .map(|g| g.map(|g| out.group_centers()[g]))
            .collect()
    }

    const ALGOS: [Algorithm; 3] = [Algorithm::AllPairs, Algorithm::Indexed, Algorithm::Grid];

    fn pts(raw: &[[f64; 2]]) -> Vec<Point<2>> {
        raw.iter().map(|&c| Point::new(c)).collect()
    }

    /// Deterministic pseudo-random cloud shared by the equivalence tests.
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
    fn assigns_to_nearest_center() {
        let centers = pts(&[[0.0, 0.0], [10.0, 0.0]]);
        let points = pts(&[[1.0, 0.0], [9.0, 0.0], [4.0, 0.0], [6.0, 0.0]]);
        for algo in ALGOS {
            let query = SgbQuery::around(centers.clone()).algorithm(algo);
            let out = query.run(&points);
            assert_eq!(out.groups(), &[vec![0, 2], vec![1, 3]], "{algo:?}");
            assert_eq!(out.group_centers(), &[0, 1], "{algo:?}");
            assert!(out.outliers().is_empty());
            out.check_partition(4);
        }
    }

    #[test]
    fn exact_ties_break_to_lowest_center_index() {
        // The midpoint (5, 0) ties exactly between both centers under every
        // metric; so does a point equidistant from three centers.
        let centers = pts(&[[0.0, 0.0], [10.0, 0.0]]);
        let points = pts(&[[5.0, 0.0]]);
        for metric in Metric::ALL {
            for algo in ALGOS {
                let query = SgbQuery::around(centers.clone())
                    .metric(metric)
                    .algorithm(algo);
                let out = query.run(&points);
                assert_eq!(out.groups(), &[vec![0]], "{algo:?} {metric}");
                assert_eq!(out.group_centers(), &[0], "{algo:?} {metric}");
            }
        }
        // Swapping the center order flips the winner: the tie-break is by
        // index, not by coordinates.
        let swapped = pts(&[[10.0, 0.0], [0.0, 0.0]]);
        for algo in ALGOS {
            let query = SgbQuery::around(swapped.clone()).algorithm(algo);
            let out = query.run(&points);
            assert_eq!(out.groups(), &[vec![0]], "{algo:?}");
            assert_eq!(out.group_centers(), &[0], "{algo:?}");
        }
    }

    #[test]
    fn duplicate_centers_resolve_to_first() {
        // Core-level behavior (the SQL parser rejects duplicates earlier):
        // the lowest index of a duplicated center wins.
        let centers = pts(&[[1.0, 1.0], [1.0, 1.0]]);
        for algo in ALGOS {
            let query = SgbQuery::around(centers.clone()).algorithm(algo);
            let out = query.run(&pts(&[[1.2, 1.0]]));
            assert_eq!(out.groups(), &[vec![0]], "{algo:?}");
            assert_eq!(out.group_centers(), &[0], "{algo:?}");
        }
    }

    #[test]
    fn radius_bound_produces_outliers() {
        let centers = pts(&[[0.0, 0.0]]);
        // Boundary is inclusive (canonical predicate δ ≤ r).
        let points = pts(&[[3.0, 0.0], [3.1, 0.0], [0.0, -3.0], [8.0, 8.0]]);
        for algo in ALGOS {
            let query = SgbQuery::around(centers.clone())
                .max_radius(3.0)
                .algorithm(algo);
            let out = query.run(&points);
            assert_eq!(out.groups(), &[vec![0, 2]], "{algo:?}");
            assert_eq!(out.group_centers(), &[0], "{algo:?}");
            assert_eq!(out.outliers(), &[1, 3], "{algo:?}");
            out.check_partition(4);
        }
    }

    #[test]
    fn radius_semantics_differ_per_metric() {
        // (0.8, 0.8) vs a center at the origin: δ∞ = 0.8 ≤ 1 keeps it,
        // δ2 ≈ 1.13 and δ1 = 1.6 expel it.
        let centers = pts(&[[0.0, 0.0]]);
        let points = pts(&[[0.8, 0.8]]);
        for algo in ALGOS {
            let query = |m: Metric| {
                SgbQuery::around(centers.clone())
                    .metric(m)
                    .max_radius(1.0)
                    .algorithm(algo)
            };
            assert!(query(Metric::LInf).run(&points).outliers().is_empty());
            assert_eq!(query(Metric::L2).run(&points).outliers(), &[0]);
            assert_eq!(query(Metric::L1).run(&points).outliers(), &[0]);
        }
    }

    #[test]
    fn metrics_pick_different_nearest_centers() {
        // q = (2.2, 2.2): center A at (3, 3) has δ1 = 1.6, δ∞ = 0.8;
        // center B at (2.2, 0.9) has δ1 = 1.3, δ∞ = 1.3. L1 prefers B,
        // L∞ prefers A.
        let centers = pts(&[[3.0, 3.0], [2.2, 0.9]]);
        let q = pts(&[[2.2, 2.2]]);
        for algo in ALGOS {
            let query = |m: Metric| SgbQuery::around(centers.clone()).metric(m).algorithm(algo);
            let l1 = query(Metric::L1).run(&q);
            assert_eq!(l1.groups(), &[vec![0]], "{algo:?}");
            assert_eq!(l1.group_centers(), &[1], "{algo:?}");
            let linf = query(Metric::LInf).run(&q);
            assert_eq!(linf.groups(), &[vec![0]], "{algo:?}");
            assert_eq!(linf.group_centers(), &[0], "{algo:?}");
        }
    }

    #[test]
    fn all_paths_agree_exactly_on_random_clouds() {
        let points = cloud(600, 0xA40C, 10.0);
        let centers: Vec<Point<2>> = cloud(37, 0xC357, 10.0);
        for metric in Metric::ALL {
            for radius in [None, Some(0.9), Some(2.5)] {
                let run = |algo| {
                    let mut query = SgbQuery::around(centers.clone())
                        .metric(metric)
                        .algorithm(algo);
                    if let Some(r) = radius {
                        query = query.max_radius(r);
                    }
                    query.run(&points)
                };
                let brute = run(Algorithm::AllPairs);
                for algo in [Algorithm::Indexed, Algorithm::Grid, Algorithm::Auto] {
                    assert_eq!(brute, run(algo), "{algo:?} {metric} radius {radius:?}");
                }
                brute.check_partition(points.len());
            }
        }
    }

    #[test]
    fn auto_resolves_from_center_count() {
        let few = SgbQuery::around(cloud(8, 1, 5.0)).stream();
        assert_eq!(few.resolved_algorithm(), Algorithm::AllPairs);
        let many = SgbQuery::around(cloud(700, 2, 5.0)).stream();
        assert_eq!(many.resolved_algorithm(), Algorithm::Grid);
        let explicit = SgbQuery::around(cloud(8, 3, 5.0))
            .algorithm(Algorithm::Indexed)
            .stream();
        assert_eq!(explicit.resolved_algorithm(), Algorithm::Indexed);
    }

    #[test]
    fn order_independence_of_assignment() {
        let points = cloud(300, 0x0D3F1A, 8.0);
        let centers: Vec<Point<2>> = cloud(9, 7, 8.0);
        let query = SgbQuery::around(centers).max_radius(1.5);
        let forward = query.run(&points);
        let assignment = centers_of(&forward, points.len());
        // Process in reverse: each record's center must be unchanged.
        let mut rev = points.clone();
        rev.reverse();
        let backward = query.run(&rev);
        let back_assignment = centers_of(&backward, points.len());
        let n = points.len();
        for i in 0..n {
            assert_eq!(assignment[i], back_assignment[n - 1 - i], "record {i}");
        }
    }

    #[test]
    fn grouping_conversion_drops_empty_centers_and_appends_outliers() {
        let centers = pts(&[[0.0, 0.0], [50.0, 50.0], [10.0, 0.0]]);
        let points = pts(&[[0.5, 0.0], [9.5, 0.0], [25.0, 25.0]]);
        let query = SgbQuery::around(centers).max_radius(2.0);
        let out = query.run(&points);
        // Center 1 attracted nothing; outliers come last.
        assert_eq!(out.group_centers(), &[0, 2]);
        assert_eq!(out.num_groups(), 2);
        assert_eq!(out.grouped_records(), 2);
        let shaped: Vec<&[RecordId]> = out.output_groups().collect();
        assert_eq!(shaped, vec![&[0][..], &[1][..], &[2][..]]);
        out.check_partition(3);
        assert_eq!(centers_of(&out, 3), vec![Some(0), Some(2), None]);
    }

    #[test]
    fn empty_input_yields_empty_groups() {
        let query = SgbQuery::around(pts(&[[0.0, 0.0], [1.0, 1.0]]));
        for algo in ALGOS {
            let out = query.clone().algorithm(algo).run(&[]);
            assert!(out.group_centers().is_empty());
            assert_eq!(out.num_groups(), 0);
            assert!(out.output_groups().next().is_none());
        }
    }

    #[test]
    fn zero_radius_keeps_only_exact_matches() {
        let centers = pts(&[[1.0, 1.0]]);
        let points = pts(&[[1.0, 1.0], [1.0, 1.0000001]]);
        let query = SgbQuery::around(centers).max_radius(0.0);
        let out = query.run(&points);
        assert_eq!(out.groups(), &[vec![0]]);
        assert_eq!(out.group_centers(), &[0]);
        assert_eq!(out.outliers(), &[1]);
    }

    #[test]
    fn three_dimensional_grouping() {
        let centers = vec![Point::new([0.0, 0.0, 0.0]), Point::new([5.0, 5.0, 5.0])];
        let points = vec![
            Point::new([0.2, 0.1, 0.0]),
            Point::new([4.9, 5.0, 5.2]),
            Point::new([2.5, 2.5, 2.5]), // exact midpoint: lowest index wins
        ];
        for metric in Metric::ALL {
            for algo in ALGOS {
                let query = SgbQuery::around(centers.clone())
                    .metric(metric)
                    .algorithm(algo);
                let out = query.run(&points);
                assert_eq!(out.groups(), &[vec![0, 2], vec![1]], "{algo:?} {metric}");
                assert_eq!(out.group_centers(), &[0, 1], "{algo:?} {metric}");
            }
        }
    }

    #[test]
    fn parallel_assignment_is_bit_identical_to_sequential() {
        let points = cloud(800, 0xFA57, 10.0);
        let centers: Vec<Point<2>> = cloud(23, 0xC0DE, 10.0);
        for metric in Metric::ALL {
            for algo in ALGOS {
                for radius in [None, Some(1.2)] {
                    let mut base = SgbQuery::around(centers.clone())
                        .metric(metric)
                        .algorithm(algo);
                    if let Some(r) = radius {
                        base = base.max_radius(r);
                    }
                    let sequential = base.clone().threads(1).run(&points);
                    for threads in [2, 3, 7] {
                        let parallel = base.clone().threads(threads).run(&points);
                        // Exact equality: member order within every group
                        // and the outlier order must match arrival order.
                        assert_eq!(
                            parallel, sequential,
                            "{algo:?} {metric} radius {radius:?} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_interface_matches_one_shot() {
        let points = cloud(100, 3, 5.0);
        let centers: Vec<Point<2>> = cloud(5, 4, 5.0);
        let query = SgbQuery::around(centers).max_radius(1.0);
        let mut stream = query.clone().stream();
        assert!(stream.is_empty());
        for p in &points {
            stream.push(*p);
        }
        assert_eq!(stream.len(), 100);
        assert_eq!(query.radius_bound(), Some(1.0));
        assert_eq!(stream.finish(), query.run(&points));
    }
}
