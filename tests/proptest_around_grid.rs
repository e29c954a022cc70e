//! Property tests of SGB-Around's `Grid` path on clustered and lattice
//! data. A batch on that path lists, per cell of the center grid (or per
//! block of cells), the centers that can be nearest to some point of the
//! cell, and every tuple of the cell scans only that list. Uniform tuples
//! around a handful of centers seldom stress such lists, so the inputs
//! here are built to:
//!
//! * hotspots of tuples with the centers drawn from the tuples, as
//!   `session-mix` draws its 256 AROUND centers;
//! * lattice tuples and centers, whose distances to two centers tie
//!   exactly, and tuples snapped onto the center grid's cell edges;
//! * tuples outside the centers' bounding box;
//! * an offset near 1e12 on every coordinate, where a box edge and a
//!   tuple's cell differ by rounding.
//!
//! Over every metric, in 2-D and 3-D, with and without a radius, at 1, 2
//! and 3 threads, `Grid` must equal `AllPairs` (full `Grouping` equality:
//! groups with member order, centers and outliers). A maintained grouping
//! pinned to `Grid` classifies its inserts through the same lists, so it
//! must equal `AllPairs` over its live tuples after every insert and
//! delete.

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::core::MaintainedGrouping;
use sgb::spatial::Grid;
use sgb::{Algorithm, Metric, Point, SgbQuery};

/// The worker counts under test.
const THREADS: [usize; 3] = [1, 2, 3];

/// The lattice step of lattice tuples and centers (a power of two, so
/// lattice coordinates stay exact at the 1e12 offset).
const STEP: f64 = 0.25;

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![Just(Metric::L1), Just(Metric::L2), Just(Metric::LInf)]
}

/// How far tuples stray from their hotspot: every tuple on the hotspot
/// (duplicates), a tiny spread, or one comparable to the hotspot spacing.
fn arb_spread() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.001f64..0.05, 0.05f64..2.0]
}

/// Nothing, or a large offset on every coordinate.
fn arb_offset() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1e12), Just(-1e12 + 0.5)]
}

/// One drawn tuple: a hotspot index, an offset per dimension in units of
/// the spread, and a shape — 0 scatters around the hotspot, 1 snaps that
/// to the `STEP` lattice, 2 throws the tuple outside the hotspots' box.
type Draw = (usize, f64, f64, f64, u8);

fn arb_draws() -> impl Strategy<Value = Vec<Draw>> {
    vec(
        (0usize..6, -1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0, 0u8..3),
        1..400,
    )
}

/// The tuples the draws describe around `hotspots`, shifted by `offset`.
fn drawn_points<const D: usize>(
    hotspots: &[(f64, f64, f64)],
    spread: f64,
    offset: f64,
    draws: &[Draw],
) -> Vec<Point<D>> {
    draws
        .iter()
        .map(|&(h, ox, oy, oz, shape)| {
            let (hx, hy, hz) = hotspots[h % hotspots.len()];
            let (hotspot, unit) = ([hx, hy, hz], [ox, oy, oz]);
            let coords: [f64; D] = std::array::from_fn(|d| match shape {
                // Up to three times the hotspots' 10-wide box away.
                2 => hotspot[d] + unit[d] * 30.0,
                _ => hotspot[d] + unit[d] * spread,
            });
            let coords = match shape {
                1 => coords.map(|x| (x / STEP).round() * STEP),
                _ => coords,
            };
            Point::new(coords.map(|x| x + offset))
        })
        .collect()
}

/// Up to `count` distinct tuples of `points`, every `stride`-th one, as the
/// centers (the SQL surface rejects duplicate centers).
fn drawn_centers<const D: usize>(
    points: &[Point<D>],
    count: usize,
    stride: usize,
) -> Vec<Point<D>> {
    let mut centers: Vec<Point<D>> = Vec::new();
    for p in points.iter().step_by(stride) {
        if centers.len() == count {
            break;
        }
        if !centers.iter().any(|c| c.coords() == p.coords()) {
            centers.push(*p);
        }
    }
    centers
}

/// `points` plus one tuple per center snapped onto the corner of the
/// center grid's cell nearest to it, and one midway between consecutive
/// centers (equidistant from both under every metric).
fn with_edge_tuples<const D: usize>(points: &[Point<D>], centers: &[Point<D>]) -> Vec<Point<D>> {
    let side = Grid::<D, usize>::side_for_points(centers);
    let mut out = points.to_vec();
    for c in centers {
        out.push(Point::new(c.coords().map(|x| (x / side).round() * side)));
    }
    for pair in centers.windows(2) {
        let (a, b) = (pair[0].coords(), pair[1].coords());
        out.push(Point::new(std::array::from_fn(|d| {
            a[d] + (b[d] - a[d]) / 2.0
        })));
    }
    out
}

/// The property: `Grid` equals `AllPairs` at every thread count.
fn grid_matches_scan<const D: usize>(
    points: &[Point<D>],
    centers: &[Point<D>],
    metric: Metric,
    radius: Option<f64>,
) -> Result<(), String> {
    let query = |algorithm: Algorithm, threads: usize| {
        let query = SgbQuery::around(centers.to_vec())
            .metric(metric)
            .algorithm(algorithm)
            .threads(threads);
        match radius {
            Some(r) => query.max_radius(r),
            None => query,
        }
    };
    let scan = query(Algorithm::AllPairs, 1).run(points);
    scan.check_partition(points.len());
    for threads in THREADS {
        let grid = query(Algorithm::Grid, threads).run(points);
        if grid != scan {
            return Err(format!(
                "{D}-D {metric} radius {radius:?} threads {threads}: \
                 Grid {grid:?} != AllPairs {scan:?}"
            ));
        }
    }
    Ok(())
}

/// The maintained property: a grouping pinned to `Grid` is built over all
/// but the last `stream` tuples, then takes those one insert at a time.
/// After the `k`-th insert, `deletes[k]` (when drawn) deletes one slot.
/// After every edit the snapshot must equal `AllPairs` over the live
/// tuples.
fn maintained_grid_matches_scan<const D: usize>(
    points: &[Point<D>],
    centers: &[Point<D>],
    metric: Metric,
    radius: Option<f64>,
    stream: usize,
    deletes: &[Option<usize>],
) -> Result<(), String> {
    let query = |algorithm: Algorithm| {
        let query = SgbQuery::around(centers.to_vec())
            .metric(metric)
            .algorithm(algorithm);
        match radius {
            Some(r) => query.max_radius(r),
            None => query,
        }
    };
    let scan = query(Algorithm::AllPairs);
    let check = |m: &mut MaintainedGrouping<D>, edit: &str| {
        let (got, want) = (m.snapshot(), scan.run(&m.live_points()));
        match got == want {
            true => Ok(()),
            false => Err(format!(
                "{D}-D {metric} radius {radius:?} after {edit}: \
                 maintained {got:?} != AllPairs {want:?}"
            )),
        }
    };
    let split = points.len() - stream.min(points.len());
    let mut maintained = MaintainedGrouping::new(query(Algorithm::Grid), &points[..split]);
    check(&mut maintained, "the build")?;
    for (k, p) in points[split..].iter().enumerate() {
        let slot = maintained.insert(*p);
        check(&mut maintained, &format!("inserting slot {slot}"))?;
        if let Some(&Some(pick)) = deletes.get(k) {
            let slot = pick % maintained.slot_count();
            if maintained.delete(slot) {
                check(&mut maintained, &format!("deleting slot {slot}"))?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hotspot, lattice, edge and far tuples, centers drawn from the
    /// tuples, in 2-D and 3-D.
    #[test]
    fn grid_equals_scan_on_clustered_tuples(
        hotspots in vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 1..6),
        spread in arb_spread(),
        offset in arb_offset(),
        draws in arb_draws(),
        count in 1usize..300,
        stride in 1usize..4,
        metric in arb_metric(),
        radius in prop_oneof![Just(None), (0.0f64..1.0).prop_map(Some)],
    ) {
        let points = drawn_points::<2>(&hotspots, spread, offset, &draws);
        let centers = drawn_centers(&points, count, stride);
        let points = with_edge_tuples(&points, &centers);
        grid_matches_scan(&points, &centers, metric, radius)?;

        let points = drawn_points::<3>(&hotspots, spread, offset, &draws);
        let centers = drawn_centers(&points, count, stride);
        let points = with_edge_tuples(&points, &centers);
        grid_matches_scan(&points, &centers, metric, radius)?;
    }

    /// Tuples and centers on one lattice: every tuple ties exactly between
    /// centers it is equally far from, and many sit on cell edges.
    #[test]
    fn grid_equals_scan_on_a_lattice(
        cells in vec((0i32..24, 0i32..24, 0i32..24), 1..300),
        picks in vec(0usize..300, 1..120),
        offset in arb_offset(),
        metric in arb_metric(),
        radius in prop_oneof![Just(None), (0i32..6).prop_map(|k| Some(f64::from(k) * STEP))],
    ) {
        let lattice = |(x, y, z): (i32, i32, i32)| {
            [x, y, z].map(|k| f64::from(k) * STEP + offset)
        };
        let points: Vec<Point<2>> =
            cells.iter().map(|&c| { let [x, y, _] = lattice(c); Point::new([x, y]) }).collect();
        let chosen: Vec<Point<2>> = picks.iter().map(|&i| points[i % points.len()]).collect();
        let centers = drawn_centers(&chosen, chosen.len(), 1);
        let points = with_edge_tuples(&points, &centers);
        grid_matches_scan(&points, &centers, metric, radius)?;

        let points: Vec<Point<3>> = cells.iter().map(|&c| Point::new(lattice(c))).collect();
        let chosen: Vec<Point<3>> = picks.iter().map(|&i| points[i % points.len()]).collect();
        let centers = drawn_centers(&chosen, chosen.len(), 1);
        let points = with_edge_tuples(&points, &centers);
        grid_matches_scan(&points, &centers, metric, radius)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hotspot, lattice, edge and far tuples, centers drawn from the
    /// tuples, through a maintained grouping in 2-D and 3-D.
    #[test]
    fn maintained_grid_equals_scan_after_every_edit(
        hotspots in vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 1..6),
        spread in arb_spread(),
        offset in arb_offset(),
        draws in vec((0usize..6, -1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0, 0u8..3), 1..160),
        count in 1usize..64,
        stream in 1usize..48,
        deletes in vec(prop_oneof![Just(None), (0usize..1000).prop_map(Some)], 0..48),
        metric in arb_metric(),
        radius in prop_oneof![Just(None), (0.0f64..1.0).prop_map(Some)],
    ) {
        let points = drawn_points::<2>(&hotspots, spread, offset, &draws);
        let centers = drawn_centers(&points, count, 1);
        let points = with_edge_tuples(&points, &centers);
        maintained_grid_matches_scan(&points, &centers, metric, radius, stream, &deletes)?;

        let points = drawn_points::<3>(&hotspots, spread, offset, &draws);
        let centers = drawn_centers(&points, count, 1);
        let points = with_edge_tuples(&points, &centers);
        maintained_grid_matches_scan(&points, &centers, metric, radius, stream, &deletes)?;
    }
}
