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
//! * [`AroundAlgorithm::BruteForce`] scans every center per tuple;
//! * [`AroundAlgorithm::Indexed`] bulk-loads the centers into an
//!   [`RTree`] once (sort-tile-recursive packing, no per-center inserts)
//!   and answers each tuple with a metric-aware nearest-neighbour query;
//! * [`AroundAlgorithm::Grid`] bulk-loads the centers into a uniform
//!   [`Grid`] sized for roughly one center per cell and answers each
//!   tuple with an expanding-ring search.
//!
//! [`AroundAlgorithm::Auto`] cost-selects among them from the center
//! count ([`crate::cost::resolve_around`] — centers are part of the query,
//! so streaming and one-shot execution resolve identically).
//!
//! All paths break exact distance ties towards the **lowest center
//! index** and produce bit-identical groupings: the brute path compares
//! canonical [`sgb_geom::Metric::distance`] values, the R-tree's best-first
//! search reports the same values for point entries (see
//! [`RTree::nearest`]) with ties in ascending payload order, and the
//! grid's ring search computes the same canonical distances with the same
//! `(distance, payload)`-lexicographic argmin.

use std::sync::Arc;

use sgb_geom::Point;
use sgb_spatial::{Grid, RTree};

use crate::governor::{Pacer, QueryGovernor, SgbError};
use crate::{cost, AroundAlgorithm, Grouping, RecordId, SgbAroundConfig};

/// Index of a center in the configured center list.
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

/// Bulk-loads the center search structure for a *concrete* algorithm —
/// the construction half of [`SgbAround::new`], split out so the session
/// cache can build (and retain) an index without an operator instance.
///
/// # Panics
/// On [`AroundAlgorithm::Auto`] (resolve first).
pub(crate) fn build_center_index<const D: usize>(
    algorithm: AroundAlgorithm,
    rtree_fanout: usize,
    centers: &[Point<D>],
) -> CenterIndex<D> {
    match algorithm {
        AroundAlgorithm::BruteForce => CenterIndex::Scan,
        AroundAlgorithm::Indexed => CenterIndex::Tree(RTree::from_points(
            rtree_fanout,
            centers.iter().enumerate().map(|(c, p)| (*p, c)),
        )),
        AroundAlgorithm::Grid => CenterIndex::Cells(Grid::from_points(
            Grid::<D, CenterId>::side_for_points(centers),
            centers.iter().enumerate().map(|(c, p)| (*p, c)),
        )),
        AroundAlgorithm::Auto => unreachable!("resolve_around never returns Auto"),
    }
}

/// The answer set of SGB-Around: one group per center (index-aligned with
/// the configured center list, possibly empty) plus the outlier set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AroundGrouping {
    /// Per-center member lists in arrival order. `groups[c]` holds the
    /// records whose nearest center is `c`; centers that attracted no
    /// record keep an empty list, so the vector stays index-aligned.
    pub groups: Vec<Vec<RecordId>>,
    /// Records farther than the configured radius from every center, in
    /// arrival order. Empty when no radius bound was set.
    pub outliers: Vec<RecordId>,
}

impl AroundGrouping {
    /// Number of centers (occupied or not).
    #[inline]
    pub fn num_centers(&self) -> usize {
        self.groups.len()
    }

    /// Number of centers that attracted at least one record.
    pub fn occupied_centers(&self) -> usize {
        self.groups.iter().filter(|g| !g.is_empty()).count()
    }

    /// Total number of records assigned to a center.
    pub fn assigned_records(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Maps each record id in `0..n` to its center index (`None` for
    /// outliers).
    pub fn assignment(&self, n: usize) -> Vec<Option<CenterId>> {
        let mut out = vec![None; n];
        for (c, g) in self.groups.iter().enumerate() {
            for &r in g {
                debug_assert!(r < n, "record id out of range");
                debug_assert!(out[r].is_none(), "record {r} assigned twice");
                out[r] = Some(c);
            }
        }
        for &r in &self.outliers {
            debug_assert!(r < n, "outlier id out of range");
        }
        out
    }

    /// Converts to the family-wide [`Grouping`] representation: non-empty
    /// center groups in center order, then — when present — the outlier
    /// group as the final group. Nothing is ever eliminated.
    pub fn grouping(&self) -> Grouping {
        let mut groups: Vec<Vec<RecordId>> = self
            .groups
            .iter()
            .filter(|g| !g.is_empty())
            .cloned()
            .collect();
        if !self.outliers.is_empty() {
            groups.push(self.outliers.clone());
        }
        Grouping {
            groups,
            eliminated: Vec::new(),
        }
    }

    /// Asserts internal consistency for `n` input records (for tests):
    /// every record is assigned to exactly one center or the outlier set.
    pub fn check_partition(&self, n: usize) {
        let mut seen = vec![false; n];
        for g in &self.groups {
            for &r in g {
                assert!(r < n, "record {r} out of range {n}");
                assert!(!seen[r], "record {r} assigned twice");
                seen[r] = true;
            }
        }
        for &r in &self.outliers {
            assert!(r < n, "outlier {r} out of range {n}");
            assert!(!seen[r], "record {r} both assigned and outlier");
            seen[r] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "every record must be assigned or an outlier"
        );
    }
}

/// Streaming SGB-Around operator.
///
/// Push points in any order, then call [`finish`](Self::finish). The
/// grouping is order-independent: only member order within a group follows
/// arrival order.
///
/// ```
/// use sgb_core::{SgbAround, SgbAroundConfig};
/// use sgb_geom::Point;
///
/// let centers = vec![Point::new([0.0, 0.0]), Point::new([10.0, 10.0])];
/// let mut op = SgbAround::new(SgbAroundConfig::new(centers).max_radius(3.0));
/// for p in [[1.0, 1.0], [9.0, 9.5], [0.5, -0.5], [5.0, 5.0]] {
///     op.push(Point::new(p));
/// }
/// let out = op.finish();
/// assert_eq!(out.groups, vec![vec![0, 2], vec![1]]);
/// assert_eq!(out.outliers, vec![3]); // (5, 5) is > 3 away from both
/// ```
#[derive(Clone, Debug)]
pub struct SgbAround<const D: usize> {
    cfg: SgbAroundConfig<D>,
    /// Nearest-center search structure, bulk-loaded once at construction
    /// (centers never change during a run). [`AroundAlgorithm::Auto`]
    /// resolves from the center count before this is built. Shared
    /// (`Arc`) so the session index cache can hand the same built
    /// structure to many operator instances.
    index: Arc<CenterIndex<D>>,
    groups: Vec<Vec<RecordId>>,
    outliers: Vec<RecordId>,
    pushed: usize,
    /// Traversal scratch for the indexed nearest-center query, reused
    /// across pushes so the hot loop allocates nothing per tuple.
    scratch: Vec<usize>,
}

impl<const D: usize> SgbAround<D> {
    /// Creates the operator, resolving [`AroundAlgorithm::Auto`] from the
    /// center count and bulk-loading the center index when an indexed
    /// algorithm is selected.
    pub fn new(cfg: SgbAroundConfig<D>) -> Self {
        let (algorithm, _) = cost::around_cost_model(cfg.algorithm, cfg.centers.len(), D);
        let index = Arc::new(build_center_index(
            algorithm,
            cfg.rtree_fanout,
            &cfg.centers,
        ));
        Self::with_center_index(cfg, index)
    }

    /// Creates the operator around an already-built center index (the
    /// session cache's entry point). The index must have been built from
    /// `cfg.centers` in order — construction ignores the metric and the
    /// table, so one built index serves every query over the same center
    /// list.
    pub(crate) fn with_center_index(cfg: SgbAroundConfig<D>, index: Arc<CenterIndex<D>>) -> Self {
        let groups = vec![Vec::new(); cfg.centers.len()];
        Self {
            cfg,
            index,
            groups,
            outliers: Vec::new(),
            pushed: 0,
            scratch: Vec::new(),
        }
    }

    /// The configuration this operator runs with.
    pub fn config(&self) -> &SgbAroundConfig<D> {
        &self.cfg
    }

    /// The concrete search strategy this operator runs with
    /// ([`AroundAlgorithm::Auto`] resolved at construction).
    pub fn resolved_algorithm(&self) -> AroundAlgorithm {
        match &*self.index {
            CenterIndex::Scan => AroundAlgorithm::BruteForce,
            CenterIndex::Tree(_) => AroundAlgorithm::Indexed,
            CenterIndex::Cells(_) => AroundAlgorithm::Grid,
        }
    }

    /// Number of points processed so far.
    pub fn len(&self) -> usize {
        self.pushed
    }

    /// `true` before the first point arrives.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Assigns one point to its nearest center (or the outlier group),
    /// returning its record id.
    pub fn push(&mut self, p: Point<D>) -> RecordId {
        assert!(p.is_finite(), "points must have finite coordinates");
        let c = nearest_center_in(&self.index, &self.cfg, &mut self.scratch, &p);
        self.record((!is_outlier(&self.cfg, &p, c)).then_some(c))
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
    /// order — but when the configuration requests (or the cost model
    /// grants, see [`crate::cost::threads_for_around`]) more than one
    /// worker, the nearest-center classification runs **in parallel over
    /// tuple chunks**. This is the query layer's governed batch assignment
    /// under an unrestricted governor.
    ///
    /// # Panics
    /// `"points must have finite coordinates"` on a non-finite coordinate,
    /// before any point is assigned.
    pub fn extend_from_slice(&mut self, points: &[Point<D>]) {
        assert!(
            points.iter().all(Point::is_finite),
            "points must have finite coordinates"
        );
        if let Err(e) = self.try_extend_from_slice(points, &QueryGovernor::unrestricted()) {
            panic!("{e}");
        }
    }

    /// The batch assignment under a [`QueryGovernor`]: equivalent to
    /// pushing each point in order, with a deadline/cancellation check
    /// per tuple. With more than one worker, each worker classifies its
    /// chunk independently into a shared slot array, pacing against the
    /// shared governor and parking its verdict in a per-chunk slot; a
    /// sequential arrival-order stitch then appends record ids to their
    /// groups — only when every chunk succeeded — reproducing the member
    /// order of a sequential run exactly (asserted by
    /// `tests/proptest_parallel.rs`). Points must be finite (validated by
    /// the callers).
    ///
    /// On `Err`, the state may have absorbed a prefix of the batch —
    /// **discard the operator**; the query entry points build a fresh
    /// operator per call, so no partial grouping is observable.
    pub(crate) fn try_extend_from_slice(
        &mut self,
        points: &[Point<D>],
        governor: &QueryGovernor,
    ) -> Result<(), SgbError> {
        failpoints::fail_point!("sgb_core::around::assign", |_| Err(SgbError::Cancelled));
        governor.check()?;
        let (threads, _) = cost::threads_for_around(self.cfg.threads, points.len());
        if threads <= 1 {
            let mut pacer = Pacer::new();
            for p in points {
                pacer.tick(governor)?;
                self.push(*p);
            }
            return Ok(());
        }
        assert!(
            self.cfg.centers.len() < u32::MAX as usize,
            "too many centers for the parallel assignment encoding"
        );
        const OUTLIER: u32 = u32::MAX;
        let mut assign = vec![OUTLIER; points.len()];
        // Several chunks per worker so an uneven cluster layout still
        // balances; chunk geometry never affects results.
        let chunk = points.len().div_ceil(threads * 4).max(1);
        let mut verdicts: Vec<Result<(), SgbError>> = vec![Ok(()); points.len().div_ceil(chunk)];
        let index = &self.index;
        let cfg = &self.cfg;
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
                        let c = nearest_center_in(index, cfg, &mut scratch, p);
                        *slot = if is_outlier(cfg, p, c) {
                            OUTLIER
                        } else {
                            c as u32
                        };
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

    /// Materialises the answer groups.
    pub fn finish(self) -> AroundGrouping {
        AroundGrouping {
            groups: self.groups,
            outliers: self.outliers,
        }
    }
}

/// The nearest center of `p` under `cfg.metric`, ties towards the lowest
/// center index. Free function (rather than a method) so the parallel
/// batch path can classify from a shared `&CenterIndex` with per-worker
/// traversal scratch.
///
/// The brute path compares canonical [`sgb_geom::Metric::distance`]
/// values so its tie set is identical to the indexed path's
/// ([`RTree::nearest_one_with`] reports the same floating-point distances
/// for point entries and breaks ties by ascending payload).
pub(crate) fn nearest_center_in<const D: usize>(
    index: &CenterIndex<D>,
    cfg: &SgbAroundConfig<D>,
    scratch: &mut Vec<usize>,
    p: &Point<D>,
) -> CenterId {
    match index {
        CenterIndex::Scan => {
            let metric = cfg.metric;
            let mut best = (f64::INFINITY, 0);
            for (c, q) in cfg.centers.iter().enumerate() {
                let d = metric.distance(p, q);
                if d < best.0 {
                    best = (d, c);
                }
            }
            best.1
        }
        CenterIndex::Tree(ix) => {
            let hit = ix.nearest_one_with(p, cfg.metric, scratch);
            hit.expect("center list is never empty").1
        }
        CenterIndex::Cells(grid) => {
            let hit = grid.nearest_one(p, cfg.metric);
            hit.expect("center list is never empty").1
        }
    }
}

/// Radius bound with the canonical predicate, evaluated identically on
/// every path (never against the index's reported distance).
#[inline]
pub(crate) fn is_outlier<const D: usize>(
    cfg: &SgbAroundConfig<D>,
    p: &Point<D>,
    c: CenterId,
) -> bool {
    match cfg.max_radius {
        Some(r) => !cfg.metric.within(p, &cfg.centers[c], r),
        None => false,
    }
}

/// One-shot convenience: runs SGB-Around over a slice of points (in
/// parallel when [`SgbAroundConfig::threads`] asks for it — see
/// [`SgbAround::extend_from_slice`]).
pub fn sgb_around<const D: usize>(points: &[Point<D>], cfg: &SgbAroundConfig<D>) -> AroundGrouping {
    let mut op = SgbAround::new(cfg.clone());
    op.extend_from_slice(points);
    op.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    const ALGOS: [AroundAlgorithm; 3] = [
        AroundAlgorithm::BruteForce,
        AroundAlgorithm::Indexed,
        AroundAlgorithm::Grid,
    ];

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
            let cfg = SgbAroundConfig::new(centers.clone()).algorithm(algo);
            let out = sgb_around(&points, &cfg);
            assert_eq!(out.groups, vec![vec![0, 2], vec![1, 3]], "{algo:?}");
            assert!(out.outliers.is_empty());
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
                let cfg = SgbAroundConfig::new(centers.clone())
                    .metric(metric)
                    .algorithm(algo);
                let out = sgb_around(&points, &cfg);
                assert_eq!(out.groups[0], vec![0], "{algo:?} {metric}");
                assert!(out.groups[1].is_empty(), "{algo:?} {metric}");
            }
        }
        // Swapping the center order flips the winner: the tie-break is by
        // index, not by coordinates.
        let swapped = pts(&[[10.0, 0.0], [0.0, 0.0]]);
        for algo in ALGOS {
            let cfg = SgbAroundConfig::new(swapped.clone()).algorithm(algo);
            let out = sgb_around(&points, &cfg);
            assert_eq!(out.groups[0], vec![0], "{algo:?}");
        }
    }

    #[test]
    fn duplicate_centers_resolve_to_first() {
        // Core-level behavior (the SQL parser rejects duplicates earlier):
        // the lowest index of a duplicated center wins.
        let centers = pts(&[[1.0, 1.0], [1.0, 1.0]]);
        for algo in ALGOS {
            let cfg = SgbAroundConfig::new(centers.clone()).algorithm(algo);
            let out = sgb_around(&pts(&[[1.2, 1.0]]), &cfg);
            assert_eq!(out.groups[0], vec![0], "{algo:?}");
            assert!(out.groups[1].is_empty(), "{algo:?}");
        }
    }

    #[test]
    fn radius_bound_produces_outliers() {
        let centers = pts(&[[0.0, 0.0]]);
        // Boundary is inclusive (canonical predicate δ ≤ r).
        let points = pts(&[[3.0, 0.0], [3.1, 0.0], [0.0, -3.0], [8.0, 8.0]]);
        for algo in ALGOS {
            let cfg = SgbAroundConfig::new(centers.clone())
                .max_radius(3.0)
                .algorithm(algo);
            let out = sgb_around(&points, &cfg);
            assert_eq!(out.groups[0], vec![0, 2], "{algo:?}");
            assert_eq!(out.outliers, vec![1, 3], "{algo:?}");
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
            let cfg = |m: Metric| {
                SgbAroundConfig::new(centers.clone())
                    .metric(m)
                    .max_radius(1.0)
                    .algorithm(algo)
            };
            assert!(sgb_around(&points, &cfg(Metric::LInf)).outliers.is_empty());
            assert_eq!(sgb_around(&points, &cfg(Metric::L2)).outliers, vec![0]);
            assert_eq!(sgb_around(&points, &cfg(Metric::L1)).outliers, vec![0]);
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
            let cfg = |m: Metric| {
                SgbAroundConfig::new(centers.clone())
                    .metric(m)
                    .algorithm(algo)
            };
            let l1 = sgb_around(&q, &cfg(Metric::L1));
            assert_eq!(l1.groups[1], vec![0], "{algo:?}");
            let linf = sgb_around(&q, &cfg(Metric::LInf));
            assert_eq!(linf.groups[0], vec![0], "{algo:?}");
        }
    }

    #[test]
    fn all_paths_agree_exactly_on_random_clouds() {
        let points = cloud(600, 0xA40C, 10.0);
        let centers: Vec<Point<2>> = cloud(37, 0xC357, 10.0);
        for metric in Metric::ALL {
            for radius in [None, Some(0.9), Some(2.5)] {
                let run = |algo| {
                    let mut cfg = SgbAroundConfig::new(centers.clone())
                        .metric(metric)
                        .algorithm(algo);
                    if let Some(r) = radius {
                        cfg = cfg.max_radius(r);
                    }
                    sgb_around(&points, &cfg)
                };
                let brute = run(AroundAlgorithm::BruteForce);
                for algo in [
                    AroundAlgorithm::Indexed,
                    AroundAlgorithm::Grid,
                    AroundAlgorithm::Auto,
                ] {
                    assert_eq!(brute, run(algo), "{algo:?} {metric} radius {radius:?}");
                }
                brute.check_partition(points.len());
            }
        }
    }

    #[test]
    fn auto_resolves_from_center_count() {
        let few = SgbAround::new(SgbAroundConfig::new(cloud(8, 1, 5.0)));
        assert_eq!(few.resolved_algorithm(), AroundAlgorithm::BruteForce);
        let many = SgbAround::new(SgbAroundConfig::new(cloud(700, 2, 5.0)));
        assert_eq!(many.resolved_algorithm(), AroundAlgorithm::Grid);
        let explicit = SgbAround::new(
            SgbAroundConfig::new(cloud(8, 3, 5.0)).algorithm(AroundAlgorithm::Indexed),
        );
        assert_eq!(explicit.resolved_algorithm(), AroundAlgorithm::Indexed);
    }

    #[test]
    fn order_independence_of_assignment() {
        let points = cloud(300, 0x0D3F1A, 8.0);
        let centers: Vec<Point<2>> = cloud(9, 7, 8.0);
        let cfg = SgbAroundConfig::new(centers).max_radius(1.5);
        let forward = sgb_around(&points, &cfg);
        let assignment = forward.assignment(points.len());
        // Process in reverse: each record's center must be unchanged.
        let mut rev = points.clone();
        rev.reverse();
        let backward = sgb_around(&rev, &cfg);
        let back_assignment = backward.assignment(points.len());
        let n = points.len();
        for i in 0..n {
            assert_eq!(assignment[i], back_assignment[n - 1 - i], "record {i}");
        }
    }

    #[test]
    fn grouping_conversion_drops_empty_centers_and_appends_outliers() {
        let centers = pts(&[[0.0, 0.0], [50.0, 50.0], [10.0, 0.0]]);
        let points = pts(&[[0.5, 0.0], [9.5, 0.0], [25.0, 25.0]]);
        let cfg = SgbAroundConfig::new(centers).max_radius(2.0);
        let out = sgb_around(&points, &cfg);
        assert_eq!(out.num_centers(), 3);
        assert_eq!(out.occupied_centers(), 2);
        assert_eq!(out.assigned_records(), 2);
        let g = out.grouping();
        // Center 1 attracted nothing; outliers come last.
        assert_eq!(g.groups, vec![vec![0], vec![1], vec![2]]);
        g.check_partition(3);
        assert_eq!(out.assignment(3), vec![Some(0), Some(2), None]);
    }

    #[test]
    fn empty_input_yields_empty_groups() {
        let cfg = SgbAroundConfig::new(pts(&[[0.0, 0.0], [1.0, 1.0]]));
        for algo in ALGOS {
            let out = sgb_around::<2>(&[], &cfg.clone().algorithm(algo));
            assert_eq!(out.num_centers(), 2);
            assert_eq!(out.occupied_centers(), 0);
            assert!(out.grouping().groups.is_empty());
        }
    }

    #[test]
    fn zero_radius_keeps_only_exact_matches() {
        let centers = pts(&[[1.0, 1.0]]);
        let points = pts(&[[1.0, 1.0], [1.0, 1.0000001]]);
        let cfg = SgbAroundConfig::new(centers).max_radius(0.0);
        let out = sgb_around(&points, &cfg);
        assert_eq!(out.groups[0], vec![0]);
        assert_eq!(out.outliers, vec![1]);
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
                let cfg = SgbAroundConfig::new(centers.clone())
                    .metric(metric)
                    .algorithm(algo);
                let out = sgb_around(&points, &cfg);
                assert_eq!(out.groups, vec![vec![0, 2], vec![1]], "{algo:?} {metric}");
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
                    let mut base = SgbAroundConfig::new(centers.clone())
                        .metric(metric)
                        .algorithm(algo);
                    if let Some(r) = radius {
                        base = base.max_radius(r);
                    }
                    let sequential = sgb_around(&points, &base.clone().threads(1));
                    for threads in [2, 3, 7] {
                        let parallel = sgb_around(&points, &base.clone().threads(threads));
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
        let cfg = SgbAroundConfig::new(centers).max_radius(1.0);
        let mut op = SgbAround::new(cfg.clone());
        assert!(op.is_empty());
        for p in &points {
            op.push(*p);
        }
        assert_eq!(op.len(), 100);
        assert_eq!(op.config().max_radius, Some(1.0));
        assert_eq!(op.finish(), sgb_around(&points, &cfg));
    }
}
