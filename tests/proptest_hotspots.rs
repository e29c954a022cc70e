//! Property tests of the SGB-Any ε-grid kernel on clustered data. The
//! kernel's connectivity join takes shortcuts inside cells that are
//! internally connected: a cell whose bounding box fits within ε emits a
//! star, and two connected neighbour cells stop at their first hit.
//! Uniform points seldom form such cells, so the inputs here are built to:
//!
//! * a few centres with a tiny spread (dense cliques);
//! * exact duplicates of the previous point;
//! * coordinates snapped to a lattice of step ε / k, so distances tie
//!   with ε exactly, across cell boundaries.
//!
//! Over every metric, in 2-D and 3-D, at 1, 2 and 3 threads, and both cold
//! and from a cached grid whose cell side is below ε, `SgbQuery` with
//! `Grid` must be bit-identical to `AllPairs` and `Indexed`.

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::core::SgbCache;
use sgb::{Algorithm, Metric, Point, SgbQuery};

/// The worker counts under test.
const THREADS: [usize; 3] = [1, 2, 3];

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![Just(Metric::L1), Just(Metric::L2), Just(Metric::LInf)]
}

/// How far points stray from their centre: not at all (every point of a
/// centre is a duplicate), a tiny spread, or one comparable to ε.
fn arb_spread() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0005f64..0.02, 0.02f64..0.6]
}

/// One drawn point: a centre index, an offset per dimension in units of
/// the spread, and a shape — 0 keeps the point as is, 1 repeats the
/// previous point exactly, 2 snaps the point to the ε / k lattice.
type Draw = (usize, f64, f64, f64, u8);

fn arb_draws() -> impl Strategy<Value = Vec<Draw>> {
    vec(
        (0usize..4, -1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0, 0u8..3),
        1..160,
    )
}

/// The points the draws describe around `centres`.
fn hotspot_points<const D: usize>(
    centres: &[(f64, f64, f64)],
    spread: f64,
    step: f64,
    draws: &[Draw],
) -> Vec<Point<D>> {
    let mut points: Vec<Point<D>> = Vec::with_capacity(draws.len());
    for &(c, ox, oy, oz, shape) in draws {
        let (cx, cy, cz) = centres[c % centres.len()];
        let (centre, offset) = ([cx, cy, cz], [ox, oy, oz]);
        let coords: [f64; D] = std::array::from_fn(|d| centre[d] + offset[d] * spread);
        let p = match (shape, points.last()) {
            (1, Some(&previous)) => previous,
            (2, _) => Point::new(coords.map(|x| (x / step).round() * step)),
            _ => Point::new(coords),
        };
        points.push(p);
    }
    points
}

/// The property: `Grid` equals `AllPairs` and `Indexed` bit for bit, cold
/// at every thread count and from a cached grid of side `eps / ratio`.
fn grid_matches_references<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    metric: Metric,
    ratio: f64,
) -> Result<(), String> {
    let query = |algorithm: Algorithm, threads: usize| {
        SgbQuery::any(eps)
            .metric(metric)
            .algorithm(algorithm)
            .threads(threads)
    };
    let reference = query(Algorithm::AllPairs, 1).run(points);
    prop_assert_eq!(
        &query(Algorithm::Indexed, 1).run(points),
        &reference,
        "indexed {}",
        metric
    );
    let cache = SgbCache::new();
    cache.prewarm_grid(1, eps / ratio, points);
    prop_assert!(cache.has_usable_grid(1, eps), "the cached grid serves ε");
    for threads in THREADS {
        prop_assert_eq!(
            &query(Algorithm::Grid, threads).run(points),
            &reference,
            "cold grid {} threads={}",
            metric,
            threads
        );
        prop_assert_eq!(
            &query(Algorithm::Grid, threads).run_cached(points, &cache, 1),
            &reference,
            "cached grid of side ε/{} {} threads={}",
            ratio,
            metric,
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_any_is_bit_identical_on_2d_hotspots(
        centres in vec((0.0f64..3.0, 0.0f64..3.0, 0.0f64..3.0), 1..4),
        draws in arb_draws(),
        spread in arb_spread(),
        eps in 0.02f64..0.5,
        snap in 1u32..4,
        metric in arb_metric(),
        ratio in 1.1f64..4.0,
    ) {
        let points = hotspot_points::<2>(&centres, spread, eps / f64::from(snap), &draws);
        grid_matches_references(&points, eps, metric, ratio)?;
    }

    #[test]
    fn grid_any_is_bit_identical_on_3d_hotspots(
        centres in vec((0.0f64..3.0, 0.0f64..3.0, 0.0f64..3.0), 1..4),
        draws in arb_draws(),
        spread in arb_spread(),
        eps in 0.02f64..0.5,
        snap in 1u32..4,
        metric in arb_metric(),
        ratio in 1.1f64..4.0,
    ) {
        let points = hotspot_points::<3>(&centres, spread, eps / f64::from(snap), &draws);
        grid_matches_references(&points, eps, metric, ratio)?;
    }
}
