//! Property-based tests of the SGB-Around operator: the defining
//! invariants the ISSUE names — order independence of the grouping,
//! equivalence of both execution paths to a brute-force nearest-center
//! reference under all three metrics (including radius-bounded/outlier
//! cases), and deterministic lowest-center-index tie-breaking — plus the
//! SQL path agreeing with the core operator.

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::geom::{Metric, Point};
use sgb::relation::{Database, Schema, Table, Value};
use sgb::{Algorithm, Grouping, SgbQuery};

fn arb_point() -> impl Strategy<Value = Point<2>> {
    (0.0f64..8.0, 0.0f64..8.0).prop_map(|(x, y)| Point::new([x, y]))
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![Just(Metric::L1), Just(Metric::L2), Just(Metric::LInf)]
}

/// Distinct centers (the SQL surface rejects duplicates; the reference and
/// the operator agree on them anyway, but distinctness keeps the strategy
/// honest about the supported surface).
fn arb_centers() -> impl Strategy<Value = Vec<Point<2>>> {
    vec(arb_point(), 1..12).prop_map(|mut cs| {
        cs.sort_by(|a, b| {
            a.coords()
                .partial_cmp(b.coords())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        cs.dedup();
        cs
    })
}

/// Independent reference: argmin over canonical metric distances with
/// lowest-index ties, then the canonical radius predicate.
fn reference_assignment(
    points: &[Point<2>],
    centers: &[Point<2>],
    metric: Metric,
    radius: Option<f64>,
) -> Vec<Option<usize>> {
    points
        .iter()
        .map(|p| {
            let mut best = (f64::INFINITY, 0usize);
            for (c, q) in centers.iter().enumerate() {
                let d = metric.distance(p, q);
                if d < best.0 {
                    best = (d, c);
                }
            }
            match radius {
                Some(r) if !metric.within(p, &centers[best.1], r) => None,
                _ => Some(best.1),
            }
        })
        .collect()
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both execution paths equal the brute-force nearest-center reference
    /// under every metric, with and without a radius bound.
    #[test]
    fn around_matches_reference_assignment(
        points in vec(arb_point(), 0..120),
        centers in arb_centers(),
        metric in arb_metric(),
        radius in prop_oneof![Just(None), (0.0f64..4.0).prop_map(Some)],
    ) {
        let expected = reference_assignment(&points, &centers, metric, radius);
        for algorithm in [Algorithm::AllPairs, Algorithm::Grid] {
            let mut query = SgbQuery::around(centers.clone())
                .metric(metric)
                .algorithm(algorithm);
            if let Some(r) = radius {
                query = query.max_radius(r);
            }
            let out = query.run(&points);
            out.check_partition(points.len());
            prop_assert_eq!(
                center_assignment(&out, points.len()),
                expected.clone(),
                "{:?} {} radius {:?}",
                algorithm, metric, radius
            );
        }
    }

    /// Row-permutation invariance: shuffling the input never changes any
    /// record's assigned center (the grouping is order-independent as a
    /// function of the record, not just as a set of sets).
    #[test]
    fn around_is_order_independent(
        points in vec(arb_point(), 1..100),
        centers in arb_centers(),
        metric in arb_metric(),
        radius in prop_oneof![Just(None), (0.0f64..4.0).prop_map(Some)],
        perm_seed in any::<u64>(),
    ) {
        let mut query = SgbQuery::around(centers).metric(metric);
        if let Some(r) = radius {
            query = query.max_radius(r);
        }
        let base = center_assignment(&query.run(&points), points.len());
        let perm = permutation(points.len(), perm_seed);
        let shuffled: Vec<Point<2>> = perm.iter().map(|&i| points[i]).collect();
        let out = center_assignment(&query.run(&shuffled), points.len());
        for (pos, &orig) in perm.iter().enumerate() {
            prop_assert_eq!(out[pos], base[orig], "record {} moved centers", orig);
        }
    }

    /// Exact ties always resolve to the lowest center index, on both paths:
    /// duplicating every center must leave the assignment unchanged (the
    /// copies, at strictly higher indices, never win).
    #[test]
    fn around_ties_break_to_lowest_index(
        points in vec(arb_point(), 1..80),
        centers in arb_centers(),
        metric in arb_metric(),
    ) {
        let k = centers.len();
        let mut doubled = centers.clone();
        doubled.extend(centers.iter().copied());
        for algorithm in [Algorithm::AllPairs, Algorithm::Grid] {
            let base = SgbQuery::around(centers.clone()).metric(metric).algorithm(algorithm).run(&points);
            let dup = SgbQuery::around(doubled.clone()).metric(metric).algorithm(algorithm).run(&points);
            prop_assert_eq!(
                (dup.groups(), dup.group_centers()),
                (base.groups(), base.group_centers()),
                "{:?} {}: a duplicate center won a tie", algorithm, metric
            );
            prop_assert!(
                dup.group_centers().iter().all(|&c| c < k),
                "{:?} {}: high-index duplicates must stay empty", algorithm, metric
            );
        }
    }

    /// The SQL path produces the same group sizes as the core operator.
    #[test]
    fn sql_around_matches_core_operator(
        rows in vec((0.0f64..8.0, 0.0f64..8.0), 0..60),
        centers in arb_centers(),
        radius in prop_oneof![Just(None), (0.5f64..4.0).prop_map(Some)],
    ) {
        let mut table = Table::empty(Schema::new(["x", "y"]));
        for (x, y) in &rows {
            table.push(vec![Value::Float(*x), Value::Float(*y)]).unwrap();
        }
        let mut db = Database::new();
        db.register("t", table);
        let center_list = centers
            .iter()
            .map(|c| format!("({:?}, {:?})", c.x(), c.y()))
            .collect::<Vec<_>>()
            .join(", ");
        let bound = radius.map(|r| format!(" WITHIN {r:?}")).unwrap_or_default();
        let sql = format!(
            "SELECT count(*) FROM t GROUP BY x, y AROUND ({center_list}) L2{bound}"
        );
        let out = db.query(&sql).unwrap();
        let points: Vec<Point<2>> = rows.iter().map(|&(x, y)| Point::new([x, y])).collect();
        let mut query = SgbQuery::around(centers);
        if let Some(r) = radius {
            query = query.max_radius(r);
        }
        let expected = query.run(&points);
        let mut sql_sizes: Vec<i64> = out
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Int(n) => *n,
                other => panic!("count(*) must be an int, got {other}"),
            })
            .collect();
        sql_sizes.sort_unstable();
        let mut core_sizes: Vec<i64> = expected.output_groups().map(|g| g.len() as i64).collect();
        core_sizes.sort_unstable();
        prop_assert_eq!(sql_sizes, core_sizes, "query: {}", sql);
    }
}
