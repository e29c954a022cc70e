//! Property-based tests of the ε-grid execution engine and the cost-based
//! `Auto` selection: every grid path must produce groupings bit-identical
//! to the established reference algorithms under all metrics and overlap
//! semantics, must be row-permutation invariant exactly where the
//! reference paths are, and `Auto` must always agree with every concrete
//! algorithm (cost-based selection may only ever change speed, never
//! results — the order-independent-semantics bar of arXiv:1412.4303).

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::core::{Algorithm, Grouping, OverlapAction, SgbQuery};
use sgb::geom::{Metric, Point};

fn arb_point() -> impl Strategy<Value = Point<2>> {
    (0.0f64..8.0, 0.0f64..8.0).prop_map(|(x, y)| Point::new([x, y]))
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![Just(Metric::L1), Just(Metric::L2), Just(Metric::LInf)]
}

fn arb_overlap() -> impl Strategy<Value = OverlapAction> {
    prop_oneof![
        Just(OverlapAction::JoinAny),
        Just(OverlapAction::Eliminate),
        Just(OverlapAction::FormNewGroup),
    ]
}

/// Maps each record id in `0..n` to the index of its center (`None` for
/// outliers).
fn center_assignment(out: &Grouping, n: usize) -> Vec<Option<usize>> {
    out.assignment(n)
        .into_iter()
        .map(|g| g.map(|g| out.group_centers()[g]))
        .collect()
}

/// A deterministic permutation of `0..n` derived from `seed`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((state >> 33) as usize) % (i + 1);
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SGB-All: the grid engine and `Auto` are bit-identical to the
    /// All-Pairs reference — same groups in the same order with the same
    /// members, same eliminated set — for every metric and overlap
    /// semantics (same seed ⇒ same JOIN-ANY arbitration).
    #[test]
    fn all_grid_and_auto_are_bit_identical_to_reference(
        points in vec(arb_point(), 0..150),
        eps in 0.05f64..2.0,
        metric in arb_metric(),
        overlap in arb_overlap(),
        seed in any::<u64>(),
    ) {
        let query = |algo: Algorithm| {
            SgbQuery::all(eps)
                .metric(metric)
                .overlap(overlap)
                .algorithm(algo)
                .seed(seed)
        };
        let reference = query(Algorithm::AllPairs).run(&points);
        reference.check_partition(points.len());
        for algo in [Algorithm::Grid, Algorithm::Auto] {
            let got = query(algo).run(&points);
            prop_assert_eq!(&reference, &got, "{:?} {} {:?}", algo, metric, overlap);
        }
    }

    /// SGB-Any: the grid engine and `Auto` produce exactly the connected
    /// components of the All-Pairs reference.
    #[test]
    fn any_grid_and_auto_match_reference_components(
        points in vec(arb_point(), 0..200),
        eps in 0.0f64..2.0,
        metric in arb_metric(),
    ) {
        let query = |algo: Algorithm| SgbQuery::any(eps).metric(metric).algorithm(algo);
        let reference = query(Algorithm::AllPairs).run(&points);
        reference.check_partition(points.len());
        for algo in [Algorithm::Indexed, Algorithm::Grid, Algorithm::Auto] {
            // Bulk (one-shot) path.
            let bulk = query(algo).run(&points);
            prop_assert_eq!(&reference, &bulk, "bulk {:?} {}", algo, metric);
        }
    }

    /// SGB-Any grid path is row-permutation invariant as a set of sets,
    /// exactly like the reference semantics demand.
    #[test]
    fn any_grid_is_row_permutation_invariant(
        points in vec(arb_point(), 1..120),
        eps in 0.0f64..2.0,
        metric in arb_metric(),
        perm_seed in any::<u64>(),
    ) {
        let query = SgbQuery::any(eps)
            .metric(metric)
            .algorithm(Algorithm::Grid);
        let forward = query.run(&points);
        let perm = permutation(points.len(), perm_seed);
        let shuffled: Vec<Point<2>> = perm.iter().map(|&i| points[i]).collect();
        let backward = query.run(&shuffled);
        // Map shuffled ids back to original ids before comparing, in
        // normalized form (members sorted, groups sorted).
        let mut remapped: Vec<Vec<usize>> = backward
            .groups()
            .iter()
            .map(|g| {
                let mut g: Vec<usize> = g.iter().map(|&i| perm[i]).collect();
                g.sort_unstable();
                g
            })
            .collect();
        remapped.sort();
        let forward = forward.normalized();
        prop_assert_eq!(remapped.as_slice(), forward.groups());
        prop_assert!(backward.eliminated().is_empty() && forward.eliminated().is_empty());
    }

    /// SGB-Around: the center grid and `Auto` reproduce the brute-force
    /// assignment record for record — including radius-bounded outliers
    /// and lowest-index tie-breaking — and stay order-independent.
    #[test]
    fn around_grid_and_auto_match_reference_assignment(
        points in vec(arb_point(), 0..120),
        centers in vec(arb_point(), 1..24),
        metric in arb_metric(),
        radius in prop_oneof![Just(None), (0.0f64..4.0).prop_map(Some)],
        perm_seed in any::<u64>(),
    ) {
        let query = |algo: Algorithm| {
            let mut query = SgbQuery::around(centers.clone())
                .metric(metric)
                .algorithm(algo);
            if let Some(r) = radius {
                query = query.max_radius(r);
            }
            query
        };
        let reference = query(Algorithm::AllPairs).run(&points);
        reference.check_partition(points.len());
        for algo in [Algorithm::Grid, Algorithm::Auto] {
            let got = query(algo).run(&points);
            prop_assert_eq!(&reference, &got, "{:?} {} radius {:?}", algo, metric, radius);
        }
        // Permutation invariance of the grid path: each record keeps its
        // center under any input order.
        let base = center_assignment(&reference, points.len());
        let perm = permutation(points.len(), perm_seed);
        let shuffled: Vec<Point<2>> = perm.iter().map(|&i| points[i]).collect();
        let out = center_assignment(&query(Algorithm::Grid).run(&shuffled), points.len());
        for (pos, &orig) in perm.iter().enumerate() {
            prop_assert_eq!(out[pos], base[orig], "record {} moved centers", orig);
        }
    }

    /// The Auto-selection property in one place: for any workload, the
    /// `Auto` grouping is identical to EVERY concrete algorithm's — the
    /// cost model can only pick among observationally equal plans.
    #[test]
    fn auto_grouping_is_identical_to_every_concrete_algorithm(
        points in vec(arb_point(), 0..130),
        centers in vec(arb_point(), 1..16),
        eps in 0.05f64..1.5,
        metric in arb_metric(),
        overlap in arb_overlap(),
    ) {
        let all_auto = SgbQuery::all(eps).metric(metric).overlap(overlap).seed(7).run(&points);
        for algo in [
            Algorithm::AllPairs,
            Algorithm::BoundsChecking,
            Algorithm::Indexed,
            Algorithm::Grid,
        ] {
            let query = SgbQuery::all(eps)
                .metric(metric)
                .overlap(overlap)
                .algorithm(algo)
                .seed(7);
            prop_assert_eq!(&all_auto, &query.run(&points), "all {:?}", algo);
        }
        let any_auto = SgbQuery::any(eps).metric(metric).run(&points);
        for algo in [
            Algorithm::AllPairs,
            Algorithm::Indexed,
            Algorithm::Grid,
        ] {
            let query = SgbQuery::any(eps).metric(metric).algorithm(algo);
            prop_assert_eq!(&any_auto, &query.run(&points), "any {:?}", algo);
        }
        let around_auto = SgbQuery::around(centers.clone()).metric(metric).run(&points);
        for algo in [
            Algorithm::AllPairs,
            Algorithm::Indexed,
            Algorithm::Grid,
        ] {
            let query = SgbQuery::around(centers.clone())
                .metric(metric)
                .algorithm(algo);
            prop_assert_eq!(&around_auto, &query.run(&points), "around {:?}", algo);
        }
    }
}
