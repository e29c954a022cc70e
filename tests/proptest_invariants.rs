//! Property-based tests of the core invariants, with `proptest`.

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::core::{Algorithm, OverlapAction, SgbQuery};
use sgb::dsu::DisjointSet;
use sgb::geom::{ConvexHull, Metric, Point, Rect};
use sgb::spatial::RTree;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every SGB-All output group is an ε-clique under the configured
    /// metric (Section 4.1's defining property), for all algorithms and
    /// overlap semantics, and the output partitions the input.
    #[test]
    fn sgb_all_groups_are_cliques(
        points in vec(arb_point(), 1..120),
        eps in 0.05f64..2.0,
        metric in arb_metric(),
        overlap in arb_overlap(),
    ) {
        for algorithm in [Algorithm::AllPairs, Algorithm::BoundsChecking, Algorithm::Indexed] {
            let query = SgbQuery::all(eps)
                .metric(metric)
                .overlap(overlap)
                .algorithm(algorithm)
                .seed(7);
            let out = query.run(&points);
            out.check_partition(points.len());
            for g in out.groups() {
                for i in 0..g.len() {
                    for j in (i + 1)..g.len() {
                        prop_assert!(
                            metric.within(&points[g[i]], &points[g[j]], eps),
                            "{algorithm:?}: {:?} and {:?} exceed eps {eps}",
                            points[g[i]], points[g[j]]
                        );
                    }
                }
            }
        }
    }

    /// The three SGB-All algorithms are observationally identical.
    #[test]
    fn sgb_all_algorithms_equivalent(
        points in vec(arb_point(), 1..100),
        eps in 0.05f64..2.0,
        metric in arb_metric(),
        overlap in arb_overlap(),
    ) {
        let runs: Vec<_> = [Algorithm::AllPairs, Algorithm::BoundsChecking, Algorithm::Indexed]
            .iter()
            .map(|&algorithm| {
                SgbQuery::all(eps).metric(metric).overlap(overlap).algorithm(algorithm).seed(3).run(&points)
            })
            .collect();
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert_eq!(&runs[0], &runs[2]);
    }

    /// SGB-Any equals the connected components of the ε-threshold graph
    /// (Section 4.2's defining property), via a brute-force reference.
    #[test]
    fn sgb_any_is_connected_components(
        points in vec(arb_point(), 0..120),
        eps in 0.05f64..2.0,
        metric in arb_metric(),
    ) {
        let mut reference = DisjointSet::with_len(points.len());
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if metric.within(&points[i], &points[j], eps) {
                    reference.union(i, j);
                }
            }
        }
        let expected = reference.into_groups();
        for algorithm in [Algorithm::AllPairs, Algorithm::Indexed] {
            let out = SgbQuery::any(eps).metric(metric).algorithm(algorithm).run(&points);
            prop_assert_eq!(out.groups(), &expected, "{:?}", algorithm);
        }
    }

    /// SGB-All groups refine SGB-Any components: every clique lies inside
    /// one component.
    #[test]
    fn cliques_refine_components(
        points in vec(arb_point(), 1..100),
        eps in 0.05f64..2.0,
        metric in arb_metric(),
    ) {
        let any = SgbQuery::any(eps).metric(metric).run(&points);
        let comp = any.assignment(points.len());
        let all = SgbQuery::all(eps).metric(metric).run(&points);
        for g in all.groups() {
            let c = comp[g[0]];
            prop_assert!(g.iter().all(|&r| comp[r] == c));
        }
    }

    /// ELIMINATE drops exactly the records that JOIN-ANY would have had to
    /// arbitrate... at minimum, every dropped record plus every group
    /// member accounts for the whole input.
    #[test]
    fn eliminate_partitions_input(
        points in vec(arb_point(), 0..120),
        eps in 0.05f64..2.0,
    ) {
        let out = SgbQuery::all(eps).overlap(OverlapAction::Eliminate).run(&points);
        out.check_partition(points.len());
        prop_assert_eq!(out.grouped_records() + out.eliminated().len(), points.len());
    }

    /// R-tree window queries agree with a linear scan, after interleaved
    /// inserts and deletes.
    #[test]
    fn rtree_window_equals_linear_scan(
        points in vec(arb_point(), 1..150),
        deletions in vec(any::<prop::sample::Index>(), 0..40),
        window in (0.0f64..8.0, 0.0f64..8.0, 0.1f64..4.0),
    ) {
        let mut tree: RTree<2, usize> = RTree::with_max_entries(6);
        for (i, p) in points.iter().enumerate() {
            tree.insert(Rect::point(*p), i);
        }
        let mut live: Vec<bool> = vec![true; points.len()];
        for d in &deletions {
            let victim = d.index(points.len());
            if live[victim] {
                prop_assert!(tree.remove(&Rect::point(points[victim]), &victim));
                live[victim] = false;
            }
        }
        tree.check_invariants();
        let w = Rect::centered(Point::new([window.0, window.1]), window.2);
        let mut hits = tree.query_collect(&w);
        hits.sort_unstable();
        let mut expected: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(i, p)| live[*i] && w.contains_point(p))
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(hits, expected);
    }

    /// Convex hull: contains all input points; hull of hull is idempotent;
    /// the admit test equals the all-members check.
    #[test]
    fn hull_properties(points in vec(arb_point(), 1..80), probe in arb_point(), eps in 0.1f64..3.0) {
        let hull = ConvexHull::build(&points);
        for p in &points {
            prop_assert!(hull.contains(p), "hull must contain input {p:?}");
        }
        let again = ConvexHull::build(hull.vertices());
        prop_assert_eq!(hull.vertices().len(), again.vertices().len());
        // Exactness of the refinement used by SGB-All under L2 — valid
        // whenever the member set is a legal clique (diameter ≤ ε).
        let diameter = hull.diameter(Metric::L2);
        if diameter <= eps {
            let truth = points.iter().all(|m| Metric::L2.within(m, &probe, eps));
            prop_assert_eq!(hull.admits(&probe, eps, Metric::L2), truth);
        }
    }

    /// The ε-All region invariants of Definition 5 (exact for L∞,
    /// conservative for L2).
    #[test]
    fn eps_region_invariants(
        members in vec(arb_point(), 1..40),
        probe in arb_point(),
        eps in 0.1f64..3.0,
    ) {
        let mut region = sgb::geom::EpsAllRegion::new(eps);
        for m in &members {
            region.insert(m);
        }
        let inside = region.point_in_region(&probe);
        let linf_all = members.iter().all(|m| Metric::LInf.within(m, &probe, eps));
        prop_assert_eq!(inside, linf_all, "L-inf region must be exact");
        for metric in [Metric::L1, Metric::L2] {
            let all_close = members.iter().all(|m| metric.within(m, &probe, eps));
            if all_close {
                prop_assert!(inside, "{} region must be conservative", metric);
            }
        }
        // Reach region: outside it, no member is within ε.
        if !region.may_overlap(&probe) {
            prop_assert!(members.iter().all(|m| !Metric::LInf.within(m, &probe, eps)));
        }
    }

    /// Metric axioms hold for every supported metric: non-negativity,
    /// identity, symmetry (bit-exact), and the triangle inequality.
    #[test]
    fn metric_axioms(a in arb_point(), b in arb_point(), c in arb_point()) {
        for metric in Metric::ALL {
            let dab = metric.distance(&a, &b);
            prop_assert!(dab >= 0.0, "{}", metric);
            prop_assert_eq!(metric.distance(&a, &a), 0.0, "{}", metric);
            prop_assert_eq!(dab, metric.distance(&b, &a), "{}", metric);
            let through_c = metric.distance(&a, &c) + metric.distance(&c, &b);
            prop_assert!(dab <= through_c + 1e-9, "{}: {dab} > {through_c}", metric);
        }
    }

    /// The Minkowski-norm sandwich `δ∞ ≤ δ2 ≤ δ1 ≤ D·δ∞` on random points
    /// (D = 2 here) — the inclusion chain square ⊇ disc ⊇ diamond that
    /// makes the rectangle filter conservative for L1/L2.
    #[test]
    fn norm_ordering(a in arb_point(), b in arb_point()) {
        let l1 = Metric::L1.distance(&a, &b);
        let l2 = Metric::L2.distance(&a, &b);
        let linf = Metric::LInf.distance(&a, &b);
        prop_assert!(linf <= l2 + 1e-12);
        prop_assert!(l2 <= l1 + 1e-12);
        prop_assert!(l1 <= 2.0 * linf + 1e-9);
    }

    /// Under `Metric::L1`, every SGB-All algorithm variant matches the
    /// all-pairs brute force and every SGB-Any variant matches the
    /// connected components of the L1 ε-graph (acceptance criterion of the
    /// L1 promotion: no neighbouring-norm approximation anywhere).
    #[test]
    fn l1_variants_match_brute_force(
        points in vec(arb_point(), 1..100),
        eps in 0.05f64..2.0,
        overlap in arb_overlap(),
    ) {
        let reference = SgbQuery::all(eps)
                .metric(Metric::L1)
                .overlap(overlap)
                .algorithm(Algorithm::AllPairs)
                .seed(13).run(&points);
        for algorithm in [Algorithm::BoundsChecking, Algorithm::Indexed] {
            let got = SgbQuery::all(eps)
                    .metric(Metric::L1)
                    .overlap(overlap)
                    .algorithm(algorithm)
                    .seed(13).run(&points);
            prop_assert_eq!(&got, &reference, "{:?}", algorithm);
        }
        let mut dsu = DisjointSet::with_len(points.len());
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if Metric::L1.within(&points[i], &points[j], eps) {
                    dsu.union(i, j);
                }
            }
        }
        let components = dsu.into_groups();
        for algorithm in [Algorithm::AllPairs, Algorithm::Indexed] {
            let got = SgbQuery::any(eps).metric(Metric::L1).algorithm(algorithm).run(&points);
            prop_assert_eq!(got.groups(), &components, "{:?}", algorithm);
        }
    }

    /// DSU connectivity equals naive label propagation.
    #[test]
    fn dsu_equals_labels(unions in vec((0usize..50, 0usize..50), 0..120)) {
        let mut dsu = DisjointSet::with_len(50);
        let mut labels: Vec<usize> = (0..50).collect();
        for &(a, b) in &unions {
            dsu.union(a, b);
            let (la, lb) = (labels[a], labels[b]);
            if la != lb {
                for l in labels.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for a in 0..50 {
            for b in 0..50 {
                prop_assert_eq!(dsu.connected(a, b), labels[a] == labels[b]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The builder's knob plumbing is faithful end to end: a query run
    /// under an explicitly pinned algorithm reports that algorithm with
    /// the "configured explicitly" reason, and `Auto` always resolves to
    /// a concrete path whose grouping equals every other path's.
    #[test]
    fn resolution_metadata_is_consistent(
        points in vec(arb_point(), 0..100),
        eps in 0.05f64..1.5,
        metric in arb_metric(),
    ) {
        let auto = SgbQuery::any(eps).metric(metric).run(&points);
        prop_assert_ne!(auto.resolved_algorithm(), Algorithm::Auto);
        for algorithm in [Algorithm::AllPairs, Algorithm::Indexed, Algorithm::Grid] {
            let pinned = SgbQuery::any(eps)
                .metric(metric)
                .algorithm(algorithm)
                .run(&points);
            prop_assert_eq!(pinned.resolved_algorithm(), algorithm);
            prop_assert_eq!(pinned.selection_reason(), "configured explicitly");
            prop_assert_eq!(&auto, &pinned);
        }
    }
}
