//! Cross-crate integration tests: the three SGB-All strategies and the two
//! SGB-Any strategies are interchangeable, and the paper's worked examples
//! hold end to end.

use sgb::core::{Algorithm, Grouping, OverlapAction, SgbQuery};
use sgb::datagen::{clustered_points, uniform_points, CheckinConfig, TpchConfig};
use sgb::geom::{Metric, Point};

const ALL_ALGOS: [Algorithm; 3] = [
    Algorithm::AllPairs,
    Algorithm::BoundsChecking,
    Algorithm::Indexed,
];

fn run_all(points: &[Point<2>], eps: f64, metric: Metric, overlap: OverlapAction) -> Vec<Grouping> {
    ALL_ALGOS
        .iter()
        .map(|&algorithm| {
            let query = SgbQuery::all(eps)
                .metric(metric)
                .overlap(overlap)
                .algorithm(algorithm)
                .seed(2024);
            query.run(points)
        })
        .collect()
}

#[test]
fn all_algorithms_agree_on_clustered_workload() {
    let points = clustered_points::<2>(1_500, 40, 0.01, 99);
    for metric in [Metric::L2, Metric::LInf] {
        for overlap in [
            OverlapAction::JoinAny,
            OverlapAction::Eliminate,
            OverlapAction::FormNewGroup,
        ] {
            for eps in [0.01, 0.05, 0.2] {
                let runs = run_all(&points, eps, metric, overlap);
                assert_eq!(runs[0], runs[1], "{metric:?} {overlap:?} eps={eps}");
                assert_eq!(runs[0], runs[2], "{metric:?} {overlap:?} eps={eps}");
                runs[0].check_partition(points.len());
            }
        }
    }
}

#[test]
fn all_algorithms_agree_on_checkin_workload() {
    let points = CheckinConfig::gowalla_like(1_200).generate().points();
    for overlap in [OverlapAction::Eliminate, OverlapAction::FormNewGroup] {
        let runs = run_all(&points, 0.25, Metric::L2, overlap);
        assert_eq!(runs[0], runs[1], "{overlap:?}");
        assert_eq!(runs[0], runs[2], "{overlap:?}");
    }
}

#[test]
fn any_algorithms_agree_on_tpch_workload() {
    let points = TpchConfig::new(1.0).density(0.003).generate().sgb1_points();
    for metric in [Metric::L2, Metric::LInf] {
        for eps in [0.001, 0.01, 0.1] {
            let naive = SgbQuery::any(eps)
                .metric(metric)
                .algorithm(Algorithm::AllPairs)
                .run(&points);
            let indexed = SgbQuery::any(eps)
                .metric(metric)
                .algorithm(Algorithm::Indexed)
                .run(&points);
            assert_eq!(naive, indexed, "{metric:?} eps={eps}");
        }
    }
}

#[test]
fn eliminate_groups_never_larger_than_join_any_total() {
    // ELIMINATE only removes records relative to JOIN-ANY's placement.
    let points = clustered_points::<2>(800, 20, 0.02, 3);
    let join = SgbQuery::all(0.1).run(&points);
    let elim = SgbQuery::all(0.1)
        .overlap(OverlapAction::Eliminate)
        .run(&points);
    assert_eq!(join.grouped_records(), points.len());
    assert_eq!(
        elim.grouped_records() + elim.eliminated().len(),
        points.len()
    );
}

#[test]
fn form_new_group_places_every_record() {
    let points = clustered_points::<2>(800, 20, 0.02, 4);
    let out = SgbQuery::all(0.1)
        .overlap(OverlapAction::FormNewGroup)
        .run(&points);
    assert_eq!(out.grouped_records(), points.len());
    assert!(out.eliminated().is_empty());
}

#[test]
fn epsilon_monotonicity_for_sgb_any() {
    // Growing ε can only merge SGB-Any components, never split them.
    let points = uniform_points::<2>(500, 77);
    let mut last = usize::MAX;
    for eps in [0.01, 0.02, 0.05, 0.1, 0.2, 0.5] {
        let n = SgbQuery::any(eps).run(&points).num_groups();
        assert!(n <= last, "components grew from {last} to {n} at eps={eps}");
        last = n;
    }
    assert_eq!(SgbQuery::any(f64::MAX / 4.0).run(&points).num_groups(), 1);
}

#[test]
fn linf_groups_at_least_as_coarse_as_l2() {
    // L∞ balls contain L2 balls, so L∞ SGB-Any components are coarser
    // (never more numerous).
    let points = clustered_points::<2>(600, 30, 0.01, 8);
    for eps in [0.02, 0.05, 0.1] {
        let l2 = SgbQuery::any(eps).metric(Metric::L2).run(&points);
        let linf = SgbQuery::any(eps).metric(Metric::LInf).run(&points);
        assert!(
            linf.num_groups() <= l2.num_groups(),
            "eps={eps}: {} > {}",
            linf.num_groups(),
            l2.num_groups()
        );
    }
}

#[test]
fn three_dimensional_agreement() {
    let points = clustered_points::<3>(500, 20, 0.02, 12);
    let mut previous: Option<Grouping> = None;
    for algorithm in ALL_ALGOS {
        let query = SgbQuery::all(0.15)
            .metric(Metric::L2)
            .overlap(OverlapAction::Eliminate)
            .algorithm(algorithm)
            .seed(5);
        let out = query.run(&points);
        out.check_partition(points.len());
        if let Some(prev) = &previous {
            assert_eq!(prev, &out, "{algorithm:?}");
        }
        previous = Some(out);
    }
}

#[test]
fn join_any_seed_controls_arbitration_only() {
    // Different seeds may change which group an overlapping point joins,
    // but never the set of grouped records.
    let points = clustered_points::<2>(400, 10, 0.03, 21);
    let sizes: Vec<usize> = (0..5)
        .map(|seed| {
            let out = SgbQuery::all(0.1).seed(seed).run(&points);
            out.check_partition(points.len());
            assert_eq!(out.grouped_records(), points.len());
            out.num_groups()
        })
        .collect();
    // Group counts may differ slightly across seeds, but all runs place
    // every record.
    assert!(sizes.iter().all(|&n| n > 0));
}

#[test]
fn around_recovers_ground_truth_mixture_centers() {
    // Seed AROUND with the true mixture centers the generator drew points
    // from: both execution paths agree, and with a tight spread almost
    // every point lands on its own generator's center.
    use sgb::datagen::clustered_points_with_centers;

    let (points, centers) = clustered_points_with_centers::<2>(2_000, 16, 0.002, 0xA10);
    for metric in [Metric::L1, Metric::L2, Metric::LInf] {
        let run = |algorithm| {
            let query = SgbQuery::around(centers.clone())
                .metric(metric)
                .algorithm(algorithm);
            query.run(&points)
        };
        let brute = run(Algorithm::AllPairs);
        let grid = run(Algorithm::Grid);
        assert_eq!(brute, grid, "{metric}");
        brute.check_partition(points.len());
        assert_eq!(brute.grouped_records(), points.len());
        // Every center of a 16-component mixture over 2000 points should
        // attract a crowd.
        assert_eq!(brute.group_centers().len(), 16, "{metric}");
    }
    // A radius of a few σ keeps the clusters and expels nothing (spread is
    // 0.002, so 10σ covers essentially all mass around each center).
    let bounded = SgbQuery::around(centers.clone())
        .max_radius(0.02)
        .run(&points);
    assert!(
        bounded.outliers().len() < points.len() / 100,
        "{} outliers at 10 sigma",
        bounded.outliers().len()
    );
}

#[test]
fn around_through_sql_equals_core_on_checkin_data() {
    // End-to-end: check-in points through the SQL engine's AROUND clause
    // equal the core operator on the extracted points.
    use sgb::relation::{Database, Schema, Table, Value};

    let dataset = CheckinConfig::brightkite_like(800).generate();
    let points = dataset.points();
    let mut table = Table::empty(Schema::new(["lat", "lon"]));
    for p in &points {
        table
            .push(vec![Value::Float(p.x()), Value::Float(p.y())])
            .unwrap();
    }
    let mut db = Database::new();
    db.register("checkins", table);

    let centers = vec![
        Point::new([0.25, 0.25]),
        Point::new([0.75, 0.25]),
        Point::new([0.5, 0.75]),
    ];
    let out = db
        .query(
            "SELECT count(*) FROM checkins \
             GROUP BY lat, lon AROUND ((0.25, 0.25), (0.75, 0.25), (0.5, 0.75)) L2 WITHIN 0.4",
        )
        .unwrap();
    let expected = SgbQuery::around(centers).max_radius(0.4).run(&points);
    let mut sql_sizes: Vec<usize> = out
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Int(n) => *n as usize,
            other => panic!("count(*) must be an int, got {other}"),
        })
        .collect();
    sql_sizes.sort_unstable();
    let mut core_sizes: Vec<usize> = expected.output_groups().map(<[usize]>::len).collect();
    core_sizes.sort_unstable();
    assert_eq!(sql_sizes, core_sizes);
}
