//! SGB-All's four search paths agree on check-in hotspots: dense clusters
//! where ELIMINATE and FORM-NEW-GROUP process many overlap groups, and
//! FORM-NEW-GROUP takes 20–31 passes, the main pass included, to regroup
//! its deferred points.
//!
//! Every metric, every `ON-OVERLAP` clause and two ε: `AllPairs`,
//! `BoundsChecking`, `Indexed` and `Grid` return the same `Grouping`, and
//! their `FindCloseGroups` surfaced the same number of candidate and
//! overlap groups (`CandidatePairs`), so each path must find the same
//! groups for every point, not only reach the same answer.

use sgb::core::{Algorithm, OverlapAction, QueryGovernor, SgbQuery};
use sgb::datagen::CheckinConfig;
use sgb::telemetry::{Counter, Telemetry};
use sgb::{Metric, Point};

const PATHS: [Algorithm; 4] = [
    Algorithm::AllPairs,
    Algorithm::BoundsChecking,
    Algorithm::Indexed,
    Algorithm::Grid,
];

const CLAUSES: [OverlapAction; 3] = [
    OverlapAction::JoinAny,
    OverlapAction::Eliminate,
    OverlapAction::FormNewGroup,
];

/// 2,000 Brightkite-like check-ins on the unit square: most fall in a few
/// dense metro hotspots.
fn checkins() -> Vec<Point<2>> {
    CheckinConfig::brightkite_like(2_000)
        .generate()
        .normalized_points()
}

#[test]
fn every_path_finds_the_same_groups_on_checkin_hotspots() {
    let points = checkins();
    let free = QueryGovernor::unrestricted();
    for metric in Metric::ALL {
        for eps in [0.008, 0.016] {
            for overlap in CLAUSES {
                let mut reference = None;
                for algorithm in PATHS {
                    let telemetry = Telemetry::new();
                    let out = SgbQuery::all(eps)
                        .metric(metric)
                        .overlap(overlap)
                        .algorithm(algorithm)
                        .seed(5)
                        .telemetry(telemetry.clone())
                        .try_run(&points, &free)
                        .unwrap();
                    assert_eq!(out.resolved_algorithm(), algorithm);
                    let tested = telemetry
                        .profile()
                        .unwrap()
                        .counter(Counter::CandidatePairs);
                    let what = format!("{metric} ε = {eps} {overlap:?} {algorithm:?}");
                    match &reference {
                        None => {
                            out.check_partition(points.len());
                            assert!(tested > 0, "{what}: no candidate groups");
                            reference = Some((out, tested));
                        }
                        Some((expected, expected_tested)) => {
                            assert_eq!(&out, expected, "{what}: grouping");
                            assert_eq!(tested, *expected_tested, "{what}: CandidatePairs");
                        }
                    }
                }
            }
        }
    }
}
