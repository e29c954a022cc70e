//! Property-based tests of the parallel execution engine: for every
//! operator, metric, algorithm, and worker count, the parallel paths must
//! be **bit-identical** to their sequential twins — same groups in the
//! same order with the same members, same eliminated set, same outliers.
//! Thread count is an execution detail the cost model may tune freely;
//! these properties are what make that safe (and what the `threads` knob
//! documents: "never affects results").
//!
//! The engine parallelises exactly two paths — SGB-Any's sharded ε-grid
//! join and SGB-Around's chunked nearest-center assignment — and resolves
//! everything else back to one worker. The properties below don't care:
//! they demand result equality for *any* requested worker count on *every*
//! path, so a future parallelisation of another path inherits the bar
//! automatically.

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::core::OverlapAction;
use sgb::{Algorithm, Metric, Point, SgbQuery};

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

/// The worker counts under test: sequential, the smallest parallel count,
/// and a prime that never divides the shard/chunk counts evenly.
const THREADS: [usize; 3] = [1, 2, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SGB-All with any worker-count request is bit-identical to the
    /// sequential run for every metric, overlap semantics, and algorithm —
    /// including the seeded JOIN-ANY arbitration (the RNG must not leak
    /// nondeterminism through the threads knob). SGB-All always resolves
    /// to one worker (arrival-order-sensitive arbitration), and the
    /// resolved count is observable on the result.
    #[test]
    fn all_results_are_identical_for_any_thread_count(
        points in vec(arb_point(), 0..150),
        eps in 0.05f64..2.0,
        metric in arb_metric(),
        overlap in arb_overlap(),
        seed in any::<u64>(),
        algorithm in prop_oneof![
            Just(Algorithm::AllPairs),
            Just(Algorithm::BoundsChecking),
            Just(Algorithm::Indexed),
            Just(Algorithm::Grid),
            Just(Algorithm::Auto),
        ],
    ) {
        let query = |threads: usize| {
            SgbQuery::all(eps)
                .metric(metric)
                .overlap(overlap)
                .seed(seed)
                .algorithm(algorithm)
                .threads(threads)
        };
        let sequential = query(1).run(&points);
        for threads in THREADS {
            let got = query(threads).run(&points);
            prop_assert_eq!(got.threads(), 1, "SGB-All must stay sequential");
            prop_assert_eq!(got.groups(), sequential.groups(),
                "groups diverge: {:?} {} {:?} threads={}", algorithm, metric, overlap, threads);
            prop_assert_eq!(got.eliminated(), sequential.eliminated(),
                "eliminated diverge: {:?} {} {:?} threads={}", algorithm, metric, overlap, threads);
        }
    }

    /// SGB-Any with any worker-count request is bit-identical to the
    /// sequential run — the sharded per-shard DSU forests merged by the
    /// union pass reproduce the sequential component numbering exactly.
    #[test]
    fn any_results_are_identical_for_any_thread_count(
        points in vec(arb_point(), 0..200),
        eps in 0.0f64..2.0,
        metric in arb_metric(),
        algorithm in prop_oneof![
            Just(Algorithm::AllPairs),
            Just(Algorithm::Indexed),
            Just(Algorithm::Grid),
            Just(Algorithm::Auto),
        ],
    ) {
        let query = |threads: usize| {
            SgbQuery::any(eps)
                .metric(metric)
                .algorithm(algorithm)
                .threads(threads)
        };
        let sequential = query(1).run(&points);
        sequential.check_partition(points.len());
        for threads in THREADS {
            let got = query(threads).run(&points);
            prop_assert_eq!(got.groups(), sequential.groups(),
                "groups diverge: {:?} {} threads={}", algorithm, metric, threads);
        }
    }

    /// SGB-Around with any worker-count request is bit-identical to the
    /// sequential run — the chunked parallel assignment stitched back in
    /// arrival order reproduces the sequential grouping, outlier set, and
    /// lowest-index tie-breaking exactly, for every algorithm and with or
    /// without a radius bound.
    #[test]
    fn around_results_are_identical_for_any_thread_count(
        points in vec(arb_point(), 0..150),
        centers in vec(arb_point(), 1..24),
        metric in arb_metric(),
        radius in prop_oneof![Just(None), (0.0f64..4.0).prop_map(Some)],
        algorithm in prop_oneof![
            Just(Algorithm::AllPairs),
            Just(Algorithm::Grid),
            Just(Algorithm::Auto),
        ],
    ) {
        let query = |threads: usize| {
            let mut q = SgbQuery::around(centers.clone())
                .metric(metric)
                .algorithm(algorithm)
                .threads(threads);
            if let Some(r) = radius {
                q = q.max_radius(r);
            }
            q
        };
        let sequential = query(1).run(&points);
        sequential.check_partition(points.len());
        for threads in THREADS {
            let got = query(threads).run(&points);
            prop_assert_eq!(got.groups(), sequential.groups(),
                "groups diverge: {:?} {} radius {:?} threads={}",
                algorithm, metric, radius, threads);
            prop_assert_eq!(got.outliers(), sequential.outliers(),
                "outliers diverge: {:?} {} radius {:?} threads={}",
                algorithm, metric, radius, threads);
        }
    }
}

/// The seeded-RNG determinism contract in one deterministic regression:
/// SGB-All JOIN-ANY arbitration under a fixed seed gives the same answer
/// no matter what worker count is requested, and different seeds still
/// give (potentially) different answers — the threads knob must neither
/// reseed nor reorder the arbitration draws.
#[test]
fn join_any_seed_determinism_is_independent_of_thread_count() {
    // A tight cluster row so ε-cliques overlap and JOIN-ANY actually draws.
    let points: Vec<Point<2>> = (0..60)
        .map(|i| Point::new([(i as f64) * 0.11, ((i * 7) % 13) as f64 * 0.09]))
        .collect();
    let run = |seed: u64, threads: usize| {
        SgbQuery::all(0.5)
            .overlap(OverlapAction::JoinAny)
            .seed(seed)
            .threads(threads)
            .run(&points)
    };
    for seed in [0u64, 1, 0xDEAD_BEEF] {
        let reference = run(seed, 1);
        for threads in [2, 4, 7, 64] {
            let got = run(seed, threads);
            assert_eq!(
                got.groups(),
                reference.groups(),
                "seed {seed} threads {threads}"
            );
            assert_eq!(
                got.eliminated(),
                reference.eliminated(),
                "seed {seed} threads {threads}"
            );
        }
    }
}
