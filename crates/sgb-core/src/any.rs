//! The SGB-Any operator (Section 7): distance-to-any grouping.
//!
//! A point belongs to a group when it is within ε of *at least one* other
//! point of the group; groups therefore are the connected components of the
//! ε-threshold graph, and overlapping groups merge (Figure 8). The
//! framework (Procedure 7) processes points one at a time:
//!
//! 1. `FindCandidateGroups` (Procedure 8) finds the groups containing a
//!    point within ε of the new point — by scanning all previous points
//!    (`AllPairs`), with a metric-aware range query on an on-the-fly
//!    R-tree over the points (`Indexed`), or with an ε-grid probe over the
//!    neighbour cells (`Grid` — no tree descent at all). Every index hit
//!    is verified with the canonical predicate (`VerifyPoints`), so all
//!    paths are bit-identical;
//! 2. `ProcessGroupingANY` (Procedure 9) creates a group, joins the single
//!    candidate, or merges all candidates via Union-Find
//!    (`MergeGroupsInsert`).
//!
//! The crate-private `SgbAny` engine is that streaming framework, behind
//! [`SgbQuery::stream`]. One-shot execution (the [`SgbQuery`] run entry
//! points) knows the whole point set instead: it resolves
//! [`Algorithm::Auto`] from the true cardinality, bulk-loads its index (or
//! takes it from the session cache) and runs one of three batch kernels —
//! all-pairs, R-tree, ε-grid — each governed and telemetry-aware. The ε-graph is symmetric, so unioning
//! each edge once yields exactly the streaming components. The answer
//! depends only on the components, not on the order of the unions
//! (arXiv:1412.4303), so the grid kernel unions only a spanning subset of
//! the edges: once two cells are known to be connected, it looks for no
//! further pair between them (see [`Grid::connectivity_join`]). It can
//! shard its join across worker threads (see [`SgbQuery::threads`]);
//! every shard's decisions depend only on the cells involved, so the
//! result is bit-identical to the sequential join.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]

use sgb_dsu::DisjointSet;
use sgb_geom::{Metric, Point};
use sgb_spatial::{Grid, JoinPass, JoinTally, RTree};
use sgb_telemetry::{Counter, Phase, Telemetry};

use crate::governor::{Pacer, QueryGovernor, SgbError, CHECK_INTERVAL};
use crate::{Algorithm, Grouping, RecordId, SgbQuery};

/// The index state behind `FindCandidateGroups`, per algorithm.
#[derive(Clone, Debug)]
enum AnyIndex<const D: usize> {
    /// All-Pairs: no index, scan the point log.
    Scan,
    /// `Points_IX` of Procedure 8: on-the-fly R-tree.
    Tree(RTree<D, RecordId>),
    /// ε-grid with cell side = ε (`1` when ε = 0).
    Cells(Grid<D, RecordId>),
}

/// The streaming SGB-Any engine behind [`SgbQuery::any`]'s stream: push
/// points in arrival order, then [`finish`](Self::finish).
///
/// ```
/// use sgb_core::SgbQuery;
/// use sgb_geom::Point;
///
/// let mut stream = SgbQuery::any(3.0).stream();
/// for p in [[1.0, 1.0], [2.0, 2.0], [9.0, 9.0]] {
///     stream.push(Point::new(p));
/// }
/// let out = stream.finish();
/// assert_eq!(out.sorted_sizes(), vec![2, 1]);
/// ```
#[derive(Clone, Debug)]
pub(crate) struct SgbAny<const D: usize> {
    eps: f64,
    metric: Metric,
    points: Vec<Point<D>>,
    dsu: DisjointSet,
    /// Index behind `FindCandidateGroups`, for the concrete algorithm the
    /// caller resolved (see [`crate::cost::resolve_any_streaming`]).
    index: AnyIndex<D>,
    /// Scratch buffer for neighbour ids, reused across pushes.
    neighbours: Vec<RecordId>,
    /// Traversal scratch for the R-tree range probe, reused across pushes
    /// so the indexed hot loop allocates nothing per tuple.
    stack: Vec<usize>,
}

impl<const D: usize> SgbAny<D> {
    /// Creates the engine for an SGB-Any `query` with threshold `eps` (its
    /// operator knob), running the concrete `algorithm` the caller
    /// resolved.
    pub(crate) fn new(query: &SgbQuery<D>, eps: f64, algorithm: Algorithm) -> Self {
        let index = match algorithm {
            Algorithm::Indexed => AnyIndex::Tree(RTree::new()),
            Algorithm::Grid => AnyIndex::Cells(Grid::new(Grid::<D, RecordId>::side_for_eps(eps))),
            // Resolution never yields `Auto` (and the builder rejects
            // `BoundsChecking`); both share the scan's arm.
            Algorithm::AllPairs | Algorithm::Auto | Algorithm::BoundsChecking => AnyIndex::Scan,
        };
        Self {
            eps,
            metric: query.metric,
            points: Vec::new(),
            dsu: DisjointSet::new(),
            index,
            neighbours: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Number of points processed so far.
    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// Processes one point (Procedure 7 body), returning its record id.
    pub(crate) fn push(&mut self, p: Point<D>) -> RecordId {
        assert!(p.is_finite(), "points must have finite coordinates");
        let id = self.points.len();
        let (eps, metric) = (self.eps, self.metric);

        // FindCandidateGroups: collect neighbours within ε. Every index
        // path visits a guaranteed superset of the canonical predicate and
        // verifies each hit with `Metric::within` (`VerifyPoints` of
        // Procedure 8), so all paths agree with All-Pairs exactly,
        // including on distances that tie with ε.
        self.neighbours.clear();
        match &self.index {
            AnyIndex::Scan => {
                // All-Pairs: scan every previously processed point.
                for (j, q) in self.points.iter().enumerate() {
                    if metric.within(&p, q, eps) {
                        self.neighbours.push(j);
                    }
                }
            }
            AnyIndex::Tree(ix) => {
                // Metric-aware range query pruned with the metric's own
                // ball (diamond/disc/square) instead of its enclosing
                // rectangle; the traversal stack is reused scratch.
                let points = &self.points;
                let neighbours = &mut self.neighbours;
                ix.for_each_within(&p, eps, metric, &mut self.stack, |_, &j| {
                    if metric.within(&p, &points[j], eps) {
                        neighbours.push(j);
                    }
                });
            }
            AnyIndex::Cells(grid) => {
                // ε-grid probe: the point's own cell plus its neighbours,
                // no tree descent.
                let neighbours = &mut self.neighbours;
                grid.for_each_within(&p, eps, metric, |q, &j| {
                    if metric.within(&p, q, eps) {
                        neighbours.push(j);
                    }
                });
            }
        }

        // ProcessGroupingANY: a fresh singleton, then merge with every
        // candidate group. Distinguishing the 0/1/many candidate cases of
        // Procedure 9 is unnecessary with union-find: union is idempotent
        // per component.
        self.points.push(p);
        let me = self.dsu.push();
        debug_assert_eq!(me, id);
        for k in 0..self.neighbours.len() {
            let j = self.neighbours[k];
            self.dsu.union(me, j);
        }
        match &mut self.index {
            AnyIndex::Scan => {}
            AnyIndex::Tree(ix) => ix.insert_point(p, id),
            AnyIndex::Cells(grid) => grid.insert(p, id),
        }
        id
    }

    /// Materialises the answer groups (the connected components of the
    /// ε-threshold graph). Groups are keyed by smallest member id; the
    /// eliminated set is always empty for SGB-Any.
    pub(crate) fn finish(self) -> Grouping {
        Grouping::flat(self.dsu.into_groups(), Vec::new())
    }
}

/// The all-pairs batch kernel: the pairwise loop with a [`Pacer`] tick per
/// comparison, unioning edge `(i, j)` for every `j < i` in ascending
/// order — exactly the unions of the streaming [`SgbAny::push`] scan.
pub(crate) fn join_all_pairs<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    metric: Metric,
    governor: &QueryGovernor,
    tel: &Telemetry,
) -> Result<Grouping, SgbError> {
    governor.check()?;
    let mut dsu = DisjointSet::with_len(points.len());
    let mut pacer = Pacer::new();
    let join = tel.phase(Phase::Join);
    for i in 0..points.len() {
        for j in 0..i {
            pacer.tick(governor)?;
            if metric.within(&points[i], &points[j], eps) {
                dsu.union(i, j);
            }
        }
    }
    drop(join);
    // The scan's work is exactly the pair triangle, and the pacer polls
    // the governor once per CHECK_INTERVAL ticks (plus the entry check)
    // — both are arithmetic, so the loop needs no inline tally.
    let n = points.len() as u64;
    let pairs = n * n.saturating_sub(1) / 2;
    tel.add(Counter::CandidatePairs, pairs);
    tel.add(
        Counter::GovernorPolls,
        1 + pairs / u64::from(CHECK_INTERVAL),
    );
    Ok(components(dsu, tel))
}

/// The R-tree batch kernel over a bulk-loaded point tree (fresh or from
/// the session cache): one metric-aware range probe per point, paced per
/// probe. Only neighbours with a smaller record id are unioned (the
/// ε-graph is symmetric), reproducing the streaming components.
pub(crate) fn join_tree<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    metric: Metric,
    index: &RTree<D, RecordId>,
    governor: &QueryGovernor,
    tel: &Telemetry,
) -> Result<Grouping, SgbError> {
    governor.check()?;
    let mut dsu = DisjointSet::with_len(points.len());
    let mut stack = Vec::new();
    let mut pacer = Pacer::new();
    // Branchless candidate tally: `enabled` folds to 0 when the handle is
    // off, so the probe loop stays a register add away from an
    // uninstrumented one.
    let enabled = tel.is_enabled() as u64;
    let mut visited: u64 = 0;
    let join = tel.phase(Phase::Join);
    for (i, p) in points.iter().enumerate() {
        pacer.tick(governor)?;
        index.for_each_within(p, eps, metric, &mut stack, |_, &j| {
            visited += enabled;
            if j < i && metric.within(p, &points[j], eps) {
                dsu.union(i, j);
            }
        });
    }
    drop(join);
    tel.add(Counter::CandidatePairs, visited);
    tel.add(
        Counter::GovernorPolls,
        1 + points.len() as u64 / u64::from(CHECK_INTERVAL),
    );
    Ok(components(dsu, tel))
}

/// What one shard of the grid kernel leaves behind besides its unions.
#[derive(Default)]
struct ShardRun {
    tally: JoinTally,
    polls: u64,
    error: Option<SgbError>,
}

/// The ε-grid batch kernel over a grid (fresh or from the session cache,
/// whose cell side may be below ε — the components are the same): the
/// forest of [`connect_grid`], as the answer set.
pub(crate) fn join_grid<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    metric: Metric,
    index: &Grid<D, RecordId>,
    threads: usize,
    governor: &QueryGovernor,
    tel: &Telemetry,
) -> Result<Grouping, SgbError> {
    let dsu = connect_grid(points.len(), eps, metric, index, threads, governor, tel)?;
    Ok(components(dsu, tel))
}

/// Unions the pairs of the grid's [connectivity join](Grid::connectivity_join)
/// into a forest over the `n` records the grid holds. The join emits a
/// spanning subset of the within-ε pairs with exactly the ε-graph's
/// components, so the forest's components are the ε-graph's. Pairs between
/// two cells already known to be connected are never looked for. SGB-All
/// labels its input's ε-components with this forest too (one shard,
/// under a disabled telemetry handle).
///
/// The join runs as two passes of one worker pool over one mirror of the
/// grid: [`JoinPass::Cells`] on every shard, then [`JoinPass::Neighbours`],
/// which reads what the first pass recorded about every cell and so
/// starts only after every shard of it succeeded. With `threads > 1` each
/// pass runs one shard per worker, and each shard unions into its own
/// forest. Every decision of the join depends only on the cells involved,
/// so the union of the per-shard forests has the components a sequential
/// run finds, and merging them yields a bit-identical grouping (asserted by
/// `tests/proptest_parallel.rs`). Each shard paces against the shared
/// governor at cell-row boundaries, every ≤ [`CHECK_INTERVAL`] candidates,
/// and parks its verdict in its own slot; a panicking worker surfaces as
/// [`SgbError::WorkerPanicked`]. On `Err`, everything built here is
/// dropped — no partial forest escapes.
pub(crate) fn connect_grid<const D: usize>(
    n: usize,
    eps: f64,
    metric: Metric,
    index: &Grid<D, RecordId>,
    threads: usize,
    governor: &QueryGovernor,
    tel: &Telemetry,
) -> Result<DisjointSet, SgbError> {
    failpoints::fail_point!("sgb_core::any::grid_join", |_| Err(SgbError::Cancelled));
    governor.check()?;
    let shards = threads.max(1);
    let enabled = tel.is_enabled();
    // Shard 0 unions straight into the result forest; every further shard
    // unions into a private forest that is merged in afterwards.
    let mut dsu = DisjointSet::with_len(n);
    let mut forests: Vec<DisjointSet> = (1..shards).map(|_| DisjointSet::with_len(n)).collect();
    let mut runs: Vec<ShardRun> = (0..shards).map(|_| ShardRun::default()).collect();
    let join = tel.phase(Phase::Join);
    let connect = index.connectivity_join(eps, metric);
    let run_shard = |pass: JoinPass, shard: usize, forest: &mut DisjointSet, run: &mut ShardRun| {
        let ShardRun {
            tally,
            polls,
            error,
        } = run;
        *error = connect
            .try_join(
                pass,
                shard,
                shards,
                |&i, &j| {
                    forest.union(i, j);
                },
                CHECK_INTERVAL as usize,
                || {
                    *polls += 1;
                    governor.check()
                },
                enabled.then_some(tally),
            )
            .err();
    };
    let mut pool = scoped_threadpool::Pool::new(shards as u32);
    for pass in [JoinPass::Cells, JoinPass::Neighbours] {
        if shards == 1 {
            run_shard(pass, 0, &mut dsu, &mut runs[0]);
        } else {
            let run_shard = &run_shard;
            let targets = std::iter::once(&mut dsu).chain(forests.iter_mut());
            pool.try_scoped(|scope| {
                for (shard, (forest, run)) in targets.zip(runs.iter_mut()).enumerate() {
                    scope.execute(move || run_shard(pass, shard, forest, run));
                }
            })
            .map_err(|p| SgbError::WorkerPanicked {
                message: p.message().to_owned(),
            })?;
        }
        if runs.iter().any(|run| run.error.is_some()) {
            break;
        }
    }
    drop(join);
    if enabled {
        let mut total = JoinTally::default();
        let mut polls = 1;
        for run in &runs {
            total.merge(&run.tally);
            polls += run.polls;
        }
        tel.add(Counter::CandidatePairs, total.candidate_pairs);
        tel.add(Counter::CellsProbed, total.cells_visited);
        tel.add(Counter::GovernorPolls, polls);
        if shards > 1 {
            tel.record_max(Counter::ThreadsUsed, shards as u64);
        }
    }
    if let Some(error) = runs.into_iter().find_map(|run| run.error) {
        return Err(error);
    }
    let merge = tel.phase(Phase::Merge);
    for forest in &forests {
        dsu.try_merge_from(forest, || governor.check())?;
    }
    drop(merge);
    Ok(dsu)
}

/// The connected components of a kernel's finished forest as the answer
/// set (the merge phase).
fn components(dsu: DisjointSet, tel: &Telemetry) -> Grouping {
    let _merge = tel.phase(Phase::Merge);
    Grouping::flat(dsu.into_groups(), Vec::new())
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

    fn pts(raw: &[[f64; 2]]) -> Vec<Point<2>> {
        raw.iter().map(|&c| Point::new(c)).collect()
    }

    /// Brute-force reference: connected components of the ε-graph.
    fn reference(points: &[Point<2>], eps: f64, metric: Metric) -> Grouping {
        let mut dsu = DisjointSet::with_len(points.len());
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if metric.within(&points[i], &points[j], eps) {
                    dsu.union(i, j);
                }
            }
        }
        Grouping::flat(dsu.into_groups(), Vec::new())
    }

    #[test]
    fn fig1b_chain_forms_one_group() {
        // Figure 1b: points a–h connected transitively under ε = 3 form a
        // single group even though distant pairs exceed ε.
        let points = pts(&[
            [1.0, 5.0], // a
            [2.0, 2.5], // b
            [2.5, 4.0], // c  (within 3 of a, b, d, f)
            [4.5, 3.0], // d
            [6.5, 2.0], // e  (within 3 of d)
            [4.0, 5.0], // f
            [5.5, 5.5], // g
            [6.0, 4.5], // h
        ]);
        let out = SgbQuery::any(3.0).run(&points);
        assert_eq!(out.num_groups(), 1);
        assert_eq!(out.groups()[0].len(), 8);
    }

    #[test]
    fn fig2_example2_groups_merge_on_overlap() {
        // Figure 2 / Example 2: a5 is within ε of both g1 {a1,a2} and
        // g2 {a3,a4}; the groups merge and the query output is {5}.
        let points = pts(&[
            [2.0, 6.0], // a1
            [3.0, 7.0], // a2
            [6.0, 5.0], // a3
            [7.5, 4.0], // a4
            [4.5, 5.5], // a5
        ]);
        for metric in Metric::ALL {
            let out = SgbQuery::any(3.0).metric(metric).run(&points);
            assert_eq!(out.sizes(), vec![5], "metric {metric:?}");
        }
    }

    #[test]
    fn isolated_points_form_singletons() {
        let points = pts(&[[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]]);
        let out = SgbQuery::any(1.0).run(&points);
        assert_eq!(out.sizes(), vec![1, 1, 1]);
        out.check_partition(3);
    }

    #[test]
    fn empty_input() {
        let out = SgbQuery::<2>::any(1.0).run(&[]);
        assert_eq!(out.num_groups(), 0);
    }

    #[test]
    fn duplicate_points_group_together() {
        let points = pts(&[[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]);
        let out = SgbQuery::any(0.0).run(&points);
        assert_eq!(out.sizes(), vec![3]);
    }

    #[test]
    fn epsilon_zero_groups_only_exact_duplicates() {
        let points = pts(&[[1.0, 1.0], [1.0, 1.0], [1.0, 1.000001]]);
        let out = SgbQuery::any(0.0).run(&points);
        assert_eq!(out.sorted_sizes(), vec![2, 1]);
    }

    #[test]
    fn verification_rejects_window_corners_for_conservative_metrics() {
        // Two points at the corner of each other's ε-window: L∞ groups
        // them; L2 (δ ≈ 1.27) and L1 (δ = 1.8) must not (VerifyPoints,
        // Procedure 8 line 4).
        let points = pts(&[[0.0, 0.0], [0.9, 0.9]]);
        let eps = 1.0;
        for algo in [Algorithm::AllPairs, Algorithm::Indexed, Algorithm::Grid] {
            let linf = SgbQuery::any(eps)
                .metric(Metric::LInf)
                .algorithm(algo)
                .run(&points);
            assert_eq!(linf.num_groups(), 1, "{algo:?}");
            for metric in [Metric::L1, Metric::L2] {
                let out = SgbQuery::any(eps)
                    .metric(metric)
                    .algorithm(algo)
                    .run(&points);
                assert_eq!(out.num_groups(), 2, "{algo:?} {metric}");
            }
        }
    }

    #[test]
    fn indexed_matches_all_pairs_and_reference() {
        // Pseudo-random point cloud; all algorithms and the brute-force
        // reference must agree exactly.
        let mut state: u64 = 0xDEADBEEF;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let points: Vec<Point<2>> = (0..400)
            .map(|_| Point::new([next() * 10.0, next() * 10.0]))
            .collect();
        for metric in Metric::ALL {
            for eps in [0.05, 0.2, 0.6] {
                let expected = reference(&points, eps, metric).normalized();
                for algo in [
                    Algorithm::AllPairs,
                    Algorithm::Indexed,
                    Algorithm::Grid,
                    Algorithm::Auto,
                ] {
                    let query = SgbQuery::any(eps).metric(metric).algorithm(algo);
                    let got = query.run(&points);
                    got.check_partition(points.len());
                    assert_eq!(got.normalized(), expected, "{algo:?} {metric:?} ε={eps}");
                }
            }
        }
    }

    #[test]
    fn streaming_and_bulk_paths_agree_exactly() {
        // The one-shot helper bulk-loads its index and probes the full
        // point set; the streaming interface builds incrementally. Both
        // must materialise identical groupings (not just normalized ones —
        // components are keyed by smallest member either way).
        let mut state: u64 = 0xB01D;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let points: Vec<Point<2>> = (0..700)
            .map(|_| Point::new([next() * 10.0, next() * 10.0]))
            .collect();
        for metric in Metric::ALL {
            for algo in [Algorithm::AllPairs, Algorithm::Indexed, Algorithm::Grid] {
                let query = SgbQuery::any(0.25).metric(metric).algorithm(algo);
                let mut stream = query.clone().stream();
                for p in &points {
                    stream.push(*p);
                }
                assert_eq!(stream.resolved_algorithm(), algo);
                assert_eq!(stream.finish(), query.run(&points), "{algo:?} {metric}");
            }
        }
    }

    #[test]
    fn auto_resolves_by_cardinality_and_matches_every_concrete() {
        let small = pts(&[[0.0, 0.0], [0.4, 0.0], [5.0, 5.0]]);
        let stream = SgbQuery::<2>::any(0.5).stream();
        // Streaming Auto assumes the scalable regime.
        assert_eq!(stream.resolved_algorithm(), Algorithm::Grid);
        let auto = SgbQuery::any(0.5).run(&small);
        for algo in [Algorithm::AllPairs, Algorithm::Indexed, Algorithm::Grid] {
            let concrete = SgbQuery::any(0.5).algorithm(algo).run(&small);
            assert_eq!(auto, concrete, "{algo:?}");
        }
    }

    #[test]
    fn order_independence_of_components() {
        // SGB-Any output is insertion-order independent (as a set of sets).
        let points = pts(&[
            [0.0, 0.0],
            [1.0, 0.0],
            [2.0, 0.0],
            [8.0, 8.0],
            [8.5, 8.5],
            [20.0, 20.0],
        ]);
        let query = SgbQuery::any(1.5);
        let forward = query.run(&points).normalized();
        let mut rev = points.clone();
        rev.reverse();
        let backward = query.run(&rev);
        // Map reversed ids back to original ids before comparing.
        let n = points.len();
        let remapped = Grouping::flat(
            backward
                .groups()
                .iter()
                .map(|g| g.iter().map(|&i| n - 1 - i).collect())
                .collect(),
            vec![],
        );
        assert_eq!(remapped.normalized(), forward);
    }

    #[test]
    fn streaming_group_count_is_monotone_under_merges() {
        let points = pts(&[[0.0, 0.0], [5.0, 0.0], [2.0, 0.0], [1.0, 0.0], [3.5, 0.0]]);
        // The groups a stream holds after its first `k` arrivals.
        let groups_after = |k: usize| {
            let mut stream = SgbQuery::any(1.5).stream();
            for p in &points[..k] {
                stream.push(*p);
            }
            stream.finish().num_groups()
        };
        assert_eq!(groups_after(2), 2);
        // Bridging point merges both groups.
        assert_eq!(groups_after(3), 3); // (2, 0) is within 1.5 of neither: 2.0 > 1.5
        assert_eq!(groups_after(4), 2); // (1, 0) links 0.0 and 2.0
        assert_eq!(groups_after(5), 1); // (3.5, 0) links 2.0 and 5.0
        let mut stream = SgbQuery::any(1.5).stream();
        for p in &points {
            stream.push(*p);
        }
        assert_eq!(stream.len(), 5);
        let out = stream.finish();
        assert_eq!(out.sizes(), vec![5]);
    }

    #[test]
    fn sharded_parallel_grid_join_is_bit_identical_to_sequential() {
        let mut state: u64 = 0x5A4D;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let points: Vec<Point<2>> = (0..900)
            .map(|_| Point::new([next() * 10.0, next() * 10.0]))
            .collect();
        for metric in Metric::ALL {
            let base = SgbQuery::any(0.3).metric(metric).algorithm(Algorithm::Grid);
            let sequential = base.clone().threads(1).run(&points);
            for threads in [2, 3, 7] {
                let parallel = base.clone().threads(threads).run(&points);
                // Exact equality, not normalized: group numbering and
                // member order must match the sequential run bit for bit.
                assert_eq!(
                    parallel.groups(),
                    sequential.groups(),
                    "{metric} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn governed_joins_match_their_infallible_twins_and_honor_deadlines() {
        let mut state: u64 = 0x60BE;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let points: Vec<Point<2>> = (0..900)
            .map(|_| Point::new([next() * 10.0, next() * 10.0]))
            .collect();
        let (eps, metric) = (0.3, Metric::L2);
        let free = QueryGovernor::unrestricted();
        let grid: Grid<2, RecordId> = Grid::from_points(
            Grid::<2, RecordId>::side_for_eps(eps),
            points.iter().enumerate().map(|(i, p)| (*p, i)),
        );
        let tree: RTree<2, RecordId> =
            RTree::from_points(12, points.iter().enumerate().map(|(i, p)| (*p, i)));
        let off = Telemetry::off();
        // Every kernel matches the brute-force components and the
        // streaming operator.
        let expected = reference(&points, eps, metric);
        let mut stream = SgbQuery::any(eps)
            .metric(metric)
            .algorithm(Algorithm::AllPairs)
            .stream();
        for p in &points {
            stream.push(*p);
        }
        assert_eq!(stream.finish(), expected);
        assert_eq!(
            join_all_pairs(&points, eps, metric, &free, &off).unwrap(),
            expected
        );
        assert_eq!(
            join_tree(&points, eps, metric, &tree, &free, &off).unwrap(),
            expected
        );
        for threads in [1, 3] {
            assert_eq!(
                join_grid(&points, eps, metric, &grid, threads, &free, &off).unwrap(),
                expected,
                "threads={threads}"
            );
        }
        // An already-expired deadline aborts every kernel with `Timeout`.
        let expired =
            QueryGovernor::unrestricted().with_deadline(std::time::Duration::from_secs(0));
        assert!(matches!(
            join_all_pairs(&points, eps, metric, &expired, &off),
            Err(SgbError::Timeout)
        ));
        assert!(matches!(
            join_tree(&points, eps, metric, &tree, &expired, &off),
            Err(SgbError::Timeout)
        ));
        for threads in [1, 3] {
            assert!(matches!(
                join_grid(&points, eps, metric, &grid, threads, &expired, &off),
                Err(SgbError::Timeout)
            ));
        }
    }

    #[test]
    fn telemetry_tallies_do_not_change_groupings_and_count_candidates() {
        let mut state: u64 = 0x7E1E;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let points: Vec<Point<2>> = (0..600)
            .map(|_| Point::new([next() * 10.0, next() * 10.0]))
            .collect();
        let (eps, metric) = (0.3, Metric::L2);
        let free = QueryGovernor::unrestricted();
        let grid: Grid<2, RecordId> = Grid::from_points(
            Grid::<2, RecordId>::side_for_eps(eps),
            points.iter().enumerate().map(|(i, p)| (*p, i)),
        );
        let tree: RTree<2, RecordId> =
            RTree::from_points(12, points.iter().enumerate().map(|(i, p)| (*p, i)));
        let expected = reference(&points, eps, metric);
        // Connecting the components needs at least a spanning forest of
        // ε-edges, so every join must have visited at least this many
        // candidates (a component of size k can have as few as k-1 edges).
        let accepted = (points.len() - expected.num_groups()) as u64;

        // Every instrumented kernel groups identically to the reference
        // and reports at least as many candidates as the ε-graph's edge
        // lower bound, with the join/merge phases timed.
        let runs: Vec<(&str, Grouping, Telemetry)> = vec![
            {
                let tel = Telemetry::new();
                let out = SgbQuery::any(eps)
                    .metric(metric)
                    .telemetry(tel.clone())
                    .run(&points);
                ("auto", out, tel)
            },
            {
                let tel = Telemetry::new();
                let out = join_all_pairs(&points, eps, metric, &free, &tel).unwrap();
                ("allpairs", out, tel)
            },
            {
                let tel = Telemetry::new();
                let out = join_tree(&points, eps, metric, &tree, &free, &tel).unwrap();
                ("tree", out, tel)
            },
            {
                let tel = Telemetry::new();
                let out = join_grid(&points, eps, metric, &grid, 1, &free, &tel).unwrap();
                ("grid1", out, tel)
            },
            {
                let tel = Telemetry::new();
                let out = join_grid(&points, eps, metric, &grid, 3, &free, &tel).unwrap();
                ("grid3", out, tel)
            },
        ];
        for (label, out, tel) in runs {
            assert_eq!(out, expected, "{label}");
            let profile = tel.profile().unwrap();
            assert!(
                profile.counter(Counter::CandidatePairs) >= accepted,
                "{label}: candidates {} < accepted pairs {accepted}",
                profile.counter(Counter::CandidatePairs)
            );
            assert!(profile.phase_nanos(Phase::Join) > 0, "{label}: join timed");
            assert!(
                profile.phase_nanos(Phase::Merge) > 0,
                "{label}: merge timed"
            );
        }

        // Sharded grid tallies agree with the sequential tally.
        let (seq, par) = (Telemetry::new(), Telemetry::new());
        join_grid(&points, eps, metric, &grid, 1, &free, &seq).unwrap();
        join_grid(&points, eps, metric, &grid, 3, &free, &par).unwrap();
        let (seq, par) = (seq.profile().unwrap(), par.profile().unwrap());
        assert_eq!(
            seq.counter(Counter::CandidatePairs),
            par.counter(Counter::CandidatePairs)
        );
        assert_eq!(
            seq.counter(Counter::CellsProbed),
            par.counter(Counter::CellsProbed)
        );
        assert_eq!(par.counter(Counter::ThreadsUsed), 3);
    }

    #[test]
    fn three_dimensional_points() {
        let points: Vec<Point<3>> = vec![
            Point::new([0.0, 0.0, 0.0]),
            Point::new([0.5, 0.5, 0.5]),
            Point::new([0.0, 0.0, 5.0]), // far only in z
        ];
        let out = SgbQuery::any(1.0).run(&points);
        assert_eq!(out.sorted_sizes(), vec![2, 1]);
    }
}
