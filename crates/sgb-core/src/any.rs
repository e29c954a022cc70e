//! The SGB-Any operator (Section 7): distance-to-any grouping.
//!
//! A point belongs to a group when it is within ε of *at least one* other
//! point of the group; groups therefore are the connected components of the
//! ε-threshold graph, and overlapping groups merge (Figure 8). The
//! framework (Procedure 7) processes points one at a time:
//!
//! 1. `FindCandidateGroups` (Procedure 8) finds the groups containing a
//!    point within ε of the new point — by scanning all previous points,
//!    or with a metric-aware range query on an R-tree over them
//!    (`Points_IX`), each index hit verified with the canonical predicate
//!    (`VerifyPoints`);
//! 2. `ProcessGroupingANY` (Procedure 9) creates a group, joins the single
//!    candidate, or merges all candidates via Union-Find
//!    (`MergeGroupsInsert`).
//!
//! A run knows its whole input up front, so it executes the framework as
//! one of three batch kernels, each governed and telemetry-aware, over a
//! union-find with one set per record. Union-find makes Procedure 9's
//! three cases one union per within-ε neighbour: the new point's set is
//! its fresh group, and unioning it with a candidate joins or merges.
//!
//! * `join_all_pairs` (`AllPairs`) is Procedure 7 as written: in arrival
//!   order, each point scans every earlier point and is unioned with each
//!   one within ε, so its unions are Procedure 7's, in arrival order.
//! * `join_tree` (`Indexed`) answers `FindCandidateGroups` with
//!   Procedure 8's range query, on an R-tree bulk-loaded over the whole
//!   input (fresh or from the session cache), and unions each hit with a
//!   smaller record id.
//! * `join_grid` (`Grid`) joins the cells of a sort-built ε-grid (fresh or
//!   cached) in key order, with no tree descent and no cell lookups. The
//!   answer depends only on the components, not on the order of the
//!   unions (arXiv:1412.4303), so the grid kernel unions only a spanning
//!   subset of the edges: once two cells are known to be connected, it
//!   looks for no further pair between them (see
//!   [`SortedCells::connectivity_join`]). It can shard its join across
//!   worker threads (see [`SgbQuery::threads`](crate::SgbQuery::threads));
//!   every shard's decisions depend only on the cells involved, so the
//!   result is bit-identical to the sequential join.
//!
//! Every index hit is verified with the canonical predicate, so all three
//! kernels find the components of the all-pairs scan, and
//! [`Algorithm::Auto`](crate::Algorithm::Auto) resolves among them from
//! the true cardinality.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]

use sgb_dsu::DisjointSet;
use sgb_geom::{Metric, Point};
use sgb_spatial::{JoinPass, JoinShard, JoinTally, RTree, SortedCells};
use sgb_telemetry::{Counter, Phase, Telemetry};

use crate::governor::{Pacer, QueryGovernor, SgbError, CHECK_INTERVAL};
use crate::{Grouping, RecordId};

/// The all-pairs batch kernel: the pairwise loop with a [`Pacer`] tick per
/// comparison, unioning edge `(i, j)` for every `j < i` in ascending
/// order: Procedure 7's unions, in arrival order.
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
/// ε-graph is symmetric), so each edge is unioned once and the components
/// are those of the all-pairs scan.
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

/// The ε-grid batch kernel over a sorted grid layout (fresh or from the
/// session cache, whose cell side may be below ε — the components are the
/// same): the forest of [`connect_grid`], as the answer set.
pub(crate) fn join_grid<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    metric: Metric,
    index: &SortedCells<D>,
    threads: usize,
    governor: &QueryGovernor,
    tel: &Telemetry,
) -> Result<Grouping, SgbError> {
    let dsu = connect_grid(points.len(), eps, metric, index, threads, governor, tel)?;
    Ok(components(dsu, tel))
}

/// Unions the pairs of the layout's [connectivity
/// join](SortedCells::connectivity_join) into a forest over the `n` records
/// the layout holds, indexed by their input positions. The join emits a
/// spanning subset of the within-ε pairs with exactly the ε-graph's
/// components, so the forest's components are the ε-graph's. Pairs between
/// two cells already known to be connected are never looked for. SGB-All
/// labels its input's ε-components with this forest too (one shard,
/// under a disabled telemetry handle).
///
/// The join runs as two passes of one worker pool over the layout:
/// [`JoinPass::Cells`] on every shard, then [`JoinPass::Neighbours`],
/// which reads what the first pass recorded about every cell and so
/// starts only after every shard of it succeeded. With `threads > 1` each
/// pass runs one shard per worker, each shard owning a contiguous range of
/// the sorted cells that holds about `n / threads` points, and each shard
/// unions into its own forest. Every decision of the join depends only on
/// the cells involved, so the union of the per-shard forests has the
/// components a sequential run finds, and merging them yields a
/// bit-identical grouping (asserted by
/// `tests/proptest_parallel.rs`). Each shard paces against the shared
/// governor at cell-row boundaries, every ≤ [`CHECK_INTERVAL`] candidates,
/// and parks its verdict in its own slot; a panicking worker surfaces as
/// [`SgbError::WorkerPanicked`]. On `Err`, everything built here is
/// dropped — no partial forest escapes.
pub(crate) fn connect_grid<const D: usize>(
    n: usize,
    eps: f64,
    metric: Metric,
    index: &SortedCells<D>,
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
    let mut connect = index.connectivity_join(eps, metric);
    let mut pool = scoped_threadpool::Pool::new(shards as u32);
    for pass in [JoinPass::Cells, JoinPass::Neighbours] {
        let jobs = connect.split(pass, shards);
        let targets = std::iter::once(&mut dsu).chain(forests.iter_mut());
        let work = jobs.into_iter().zip(targets).zip(runs.iter_mut());
        if shards == 1 {
            for ((job, forest), run) in work {
                run_shard(job, forest, run, governor, enabled);
            }
        } else {
            pool.try_scoped(|scope| {
                for ((job, forest), run) in work {
                    scope.execute(move || run_shard(job, forest, run, governor, enabled));
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

/// Runs one shard of one pass of the grid kernel: unions its pairs into
/// `forest`, paces against `governor` every ≤ [`CHECK_INTERVAL`]
/// candidates, and parks its tally (when `enabled`), poll count and
/// verdict in `run`.
fn run_shard<const D: usize>(
    job: JoinShard<'_, D>,
    forest: &mut DisjointSet,
    run: &mut ShardRun,
    governor: &QueryGovernor,
    enabled: bool,
) {
    let ShardRun {
        tally,
        polls,
        error,
    } = run;
    *error = job
        .try_join(
            |i, j| {
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
    use crate::{Algorithm, SgbQuery};
    use sgb_geom::Metric;
    use sgb_spatial::Grid;

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
    fn auto_resolves_by_cardinality_and_matches_every_concrete() {
        let small = pts(&[[0.0, 0.0], [0.4, 0.0], [5.0, 5.0]]);
        let auto = SgbQuery::any(0.5).run(&small);
        assert_eq!(auto.resolved_algorithm(), Algorithm::AllPairs);
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
        // The groups of the first `k` arrivals.
        let groups_after = |k: usize| SgbQuery::any(1.5).run(&points[..k]).num_groups();
        assert_eq!(groups_after(2), 2);
        // Bridging point merges both groups.
        assert_eq!(groups_after(3), 3); // (2, 0) is within 1.5 of neither: 2.0 > 1.5
        assert_eq!(groups_after(4), 2); // (1, 0) links 0.0 and 2.0
        assert_eq!(groups_after(5), 1); // (3.5, 0) links 2.0 and 5.0
        let out = SgbQuery::any(1.5).run(&points);
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
        let grid = SortedCells::from_points(Grid::<2, RecordId>::side_for_eps(eps), &points);
        let tree: RTree<2, RecordId> =
            RTree::from_points(12, points.iter().enumerate().map(|(i, p)| (*p, i)));
        let off = Telemetry::off();
        // Every kernel matches the brute-force components.
        let expected = reference(&points, eps, metric);
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
        let grid = SortedCells::from_points(Grid::<2, RecordId>::side_for_eps(eps), &points);
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
