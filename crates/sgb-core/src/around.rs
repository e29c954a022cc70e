//! The SGB-Around operator: nearest-of-a-set-of-centers grouping.
//!
//! The third member of the similarity group-by family (per the companion
//! paper *On Order-independent Semantics of the Similarity Group-By
//! Relational Database Operator*): the query supplies a set of **center
//! points**, and every tuple joins the group of its nearest center under
//! the query metric — optionally bounded by a maximum radius `r`, beyond
//! which tuples fall into an explicit **outlier group**.
//!
//! Because the group seeds are fixed up front, the assignment of each tuple
//! depends only on the tuple itself, never on previously processed tuples:
//! the grouping is trivially **order-independent** (unlike SGB-All, whose
//! `ON-OVERLAP` arbitration is arrival-order sensitive). That makes it the
//! natural high-throughput member of the family — assignments are
//! embarrassingly parallel and need no inter-group reconciliation.
//!
//! Two interchangeable search strategies:
//!
//! * [`Algorithm::AllPairs`] scans every center per tuple;
//! * [`Algorithm::Grid`] bulk-loads the centers into a uniform [`Grid`]
//!   sized for roughly one center per cell, and searches per block of
//!   that grid's cells, not per tuple: tuples that share a block share its
//!   list of candidate centers (below). Batches and a maintained
//!   grouping's inserts search the same way.
//!
//! [`Algorithm::Auto`] cost-selects between them from the center count
//! ([`crate::cost::resolve_around`] — centers are part of the query, so
//! the input's size never enters the choice).
//!
//! Both paths break exact distance ties towards the **lowest center
//! index** and produce bit-identical groupings: the scan and the cell
//! lists compare the same canonical [`sgb_geom::Metric::distance`] values
//! with the same `(distance, center)`-lexicographic argmin.
//!
//! ## The grid path's cell lists
//!
//! The `Grid` path groups its tuples by **memo cell**: a block of `span`
//! center-grid cells per side, with `span` a power of two chosen so that
//! a worker's tuples fill each memo cell with about 16 on average (one
//! center-grid cell when tuples crowd the centers' cells, as on check-in
//! hotspots). Each worker memoises, per memo cell it meets, the list of
//! centers that can be nearest to some point of the cell's box, padded by
//! a relative rounding slack. With `r` half the padded box's width and
//! `T` the smallest distance from a center to the box corner farthest
//! from it, the list holds every center within `T` of the box, by
//! ascending box distance, ties by center index. Every point of the box
//! lies within `T` of that center, so its nearest center lies within `T`
//! of it, and so within `T` of the box. One growing probe finds them:
//!
//! * It probes the center grid around the box's middle, `R` wide in L∞,
//!   starting at `R = r` and doubling `R` while the probe finds nothing.
//!   `T` is the smallest farthest-corner distance of a center it visited.
//! * A center within `T` of the box lies within `T + r` of the middle in
//!   L∞ (every metric bounds L∞ from above; the probe's one-cell pad
//!   absorbs rounding). So one more probe, `R = T + r` wide, visits every
//!   such center. It can only shrink `T`, and it lists the centers within
//!   the final `T` of the box.
//!
//! The final `T` is the smallest farthest-corner distance over all
//! centers, so the list does not depend on where the probe started, and
//! every tuple scans the same entries.
//!
//! A tuple scans its cell's list in that order, stops at the first center
//! whose box distance exceeds its best distance so far, and keeps the
//! `(distance, center)`-lexicographic argmin: exactly the scan's answer.
//! No step needs an error bound. A center's box distance is the metric
//! over per-axis gaps no larger than a tuple's own, its farthest-corner
//! distance over gaps no smaller, and every step of
//! [`sgb_geom::Metric::distance`] rounds monotonically. So for every tuple
//! of the box, computed box distance ≤ computed tuple distance ≤ computed
//! farthest-corner distance, bit for bit. The box padding only keeps
//! tuples in their cell's list: a tuple outside its cell's padded box (a
//! saturated cell key, or a floor that rounded across the edge), or in a
//! cell whose box or `T` is not finite, takes the scan instead. The memo
//! is cleared past 65,536 cells or list entries, so a worker's memory
//! stays bounded on any layout.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use sgb_geom::{Metric, Point};
use sgb_spatial::grid::{CellHasher, CellKey};
use sgb_spatial::Grid;
use sgb_telemetry::{Phase, Telemetry};

use crate::governor::{run_jobs, Pacer, QueryGovernor, SgbError};
use crate::{Algorithm, Grouping, SgbQuery};

/// Index of a center in the query's center list.
pub type CenterId = usize;

/// The `Grid` path's search structure: a grid over the centers, each
/// entry's payload its center index. Its construction reads only the
/// query's center coordinates, never the table or the metric, so the
/// session index cache can share one build across queries and table
/// versions.
pub(crate) type CenterGrid<const D: usize> = Grid<D, CenterId>;

/// Bulk-loads the center grid, sized for roughly one center per cell.
pub(crate) fn build_center_grid<const D: usize>(centers: &[Point<D>]) -> CenterGrid<D> {
    Grid::from_points(
        Grid::<D, CenterId>::side_for_points(centers),
        centers.iter().enumerate().map(|(c, p)| (*p, c)),
    )
}

/// The assignment rule of one SGB-Around query: its centers, metric and
/// radius bound, plus the center grid of the `Grid` path. Shared by
/// [`assign_batch`] and the incremental engine.
#[derive(Clone, Debug)]
pub(crate) struct CenterRule<const D: usize> {
    centers: Vec<Point<D>>,
    metric: Metric,
    max_radius: Option<f64>,
    /// The center grid, built from `centers` in order, or `None` for the
    /// scan. Shared (`Arc`) so the session index cache can hand the same
    /// build to many queries.
    grid: Option<Arc<CenterGrid<D>>>,
}

impl<const D: usize> CenterRule<D> {
    /// The rule of an SGB-Around `query` with `centers` and `max_radius`
    /// (its operator knobs), searching through `grid` (the scan when
    /// `None`).
    pub(crate) fn new(
        query: &SgbQuery<D>,
        centers: &[Point<D>],
        max_radius: Option<f64>,
        grid: Option<Arc<CenterGrid<D>>>,
    ) -> Self {
        Self {
            centers: centers.to_vec(),
            metric: query.metric,
            max_radius,
            grid,
        }
    }

    /// Number of centers.
    pub(crate) fn num_centers(&self) -> usize {
        self.centers.len()
    }

    /// The concrete search strategy.
    pub(crate) fn algorithm(&self) -> Algorithm {
        match self.grid {
            Some(_) => Algorithm::Grid,
            None => Algorithm::AllPairs,
        }
    }

    /// Whether `p` joins its nearest center `c`: the radius bound with the
    /// canonical predicate, evaluated identically on every path (never
    /// against an index's reported distance).
    #[inline]
    fn joins(&self, p: &Point<D>, c: CenterId) -> bool {
        match self.max_radius {
            Some(r) => self.metric.within(p, &self.centers[c], r),
            None => true,
        }
    }

    /// A fresh cell memo for one worker that classifies about `tuples`
    /// points. The scan never reads it.
    pub(crate) fn memo(&self, tuples: usize) -> CellMemo<D> {
        let span = self
            .grid
            .as_ref()
            .map_or(1, |grid| memo_span::<D>(tuples, grid.occupied_cells()));
        CellMemo::new(span)
    }

    /// Assigns each point of `points` to the slot beside it in `out`: its
    /// center, or [`OUTLIER`]. Calls `tick` once per point, before the
    /// point, and stops at its first error. The `Grid` path searches per
    /// memo cell through `memo`; the scan searches per point.
    fn assign_chunk<E>(
        &self,
        memo: &mut CellMemo<D>,
        points: &[Point<D>],
        out: &mut [CenterId],
        mut tick: impl FnMut() -> Result<(), E>,
    ) -> Result<(), E> {
        for (p, slot) in points.iter().zip(out) {
            tick()?;
            debug_assert!(p.is_finite(), "validated by the callers");
            let c = match &self.grid {
                Some(grid) => memo.nearest(grid, &self.centers, self.metric, p),
                None => scan_nearest(&self.centers, self.metric, p),
            };
            *slot = if self.joins(p, c) { c } else { OUTLIER };
        }
        Ok(())
    }
}

/// The scan's answer: the nearest center of `p` under `metric`, ties
/// towards the lowest center index (the `(distance, index)`-lexicographic
/// argmin of the canonical [`sgb_geom::Metric::distance`] values). The
/// builder rejects an empty center list; were one to get here, the answer
/// would be center 0.
fn scan_nearest<const D: usize>(centers: &[Point<D>], metric: Metric, p: &Point<D>) -> CenterId {
    let mut best = (f64::INFINITY, 0);
    for (c, q) in centers.iter().enumerate() {
        let d = metric.distance(p, q);
        if d < best.0 {
            best = (d, c);
        }
    }
    best.1
}

/// The memo is cleared when it holds this many cells or list entries, so
/// a worker's memo stays under a few MiB whatever the layout.
const MEMO_CAP: usize = 1 << 16;

/// A memo cell should receive about this many of a worker's tuples, so its
/// list, which costs a few grid probes to build, pays for itself.
const TUPLES_PER_MEMO_CELL: usize = 16;

/// The widest memo cell, in center-grid cells per side.
const MAX_MEMO_SPAN: i64 = 8;

/// How many center-grid cells per side one memo cell spans: the smallest
/// power of two at which a worker's `tuples` fill each memo cell over the
/// `occupied` center cells with [`TUPLES_PER_MEMO_CELL`] on average
/// (tuples tend to lie where the centers do). Wider cells share a list
/// among more tuples, but every tuple scans the centers inside its cell.
fn memo_span<const D: usize>(tuples: usize, occupied: usize) -> i64 {
    let mut span = 1;
    let mut per_cell = tuples as f64 / occupied.max(1) as f64;
    while span < MAX_MEMO_SPAN && per_cell < TUPLES_PER_MEMO_CELL as f64 {
        span *= 2;
        per_cell *= 2f64.powi(D as i32);
    }
    span
}

/// The `Grid` path's memo: for each memo cell met so far, the centers
/// that can be nearest to some point of it (see the module docs). A batch
/// keeps one per worker, a maintained grouping one for its lifetime.
#[derive(Clone, Debug)]
pub(crate) struct CellMemo<const D: usize> {
    /// Center-grid cells per memo cell side ([`memo_span`]).
    span: i64,
    /// Each memo cell met so far, with its list, or `None` when the cell
    /// cannot be listed (a box or bound out of floating-point range): its
    /// tuples take the scan.
    cells: HashMap<CellKey<D>, Option<CellList<D>>, BuildHasherDefault<CellHasher>>,
    /// Every list's `(box distance, center)` entries, each list one sorted
    /// run.
    candidates: Vec<(f64, CenterId)>,
}

/// A listed cell: its padded box and its run in [`CellMemo::candidates`].
#[derive(Clone, Copy, Debug)]
struct CellList<const D: usize> {
    lo: [f64; D],
    hi: [f64; D],
    run: (usize, usize),
}

impl<const D: usize> CellList<D> {
    /// Whether `p` lies in the padded box (edges included).
    #[inline]
    fn holds(&self, p: &Point<D>) -> bool {
        (0..D).all(|d| self.lo[d] <= p.coord(d) && p.coord(d) <= self.hi[d])
    }
}

impl<const D: usize> CellMemo<D> {
    /// An empty memo of memo cells `span` center-grid cells wide.
    fn new(span: i64) -> Self {
        Self {
            span,
            cells: HashMap::default(),
            candidates: Vec::new(),
        }
    }

    /// The nearest center of `p` under `metric`, ties towards the lowest
    /// center index: exactly [`scan_nearest`]'s answer.
    fn nearest(
        &mut self,
        grid: &CenterGrid<D>,
        centers: &[Point<D>],
        metric: Metric,
        p: &Point<D>,
    ) -> CenterId {
        let key = grid.cell_of(p).map(|k| k.div_euclid(self.span));
        let list = match self.cells.get(&key) {
            Some(list) => *list,
            None => {
                if self.cells.len() >= MEMO_CAP || self.candidates.len() >= MEMO_CAP {
                    self.cells.clear();
                    self.candidates.clear();
                }
                let list = self.list(grid, metric, &key);
                self.cells.insert(key, list);
                list
            }
        };
        let Some(list) = list.filter(|list| list.holds(p)) else {
            return scan_nearest(centers, metric, p);
        };
        let mut best = (f64::INFINITY, CenterId::MAX);
        for &(gap, c) in &self.candidates[list.run.0..list.run.1] {
            // Every later center is at least `gap` from `p` (module docs).
            if gap > best.0 {
                break;
            }
            let d = metric.distance(p, &centers[c]);
            if d < best.0 || (d == best.0 && c < best.1) {
                best = (d, c);
            }
        }
        best.1
    }

    /// Lists the memo cell `key` with the growing probe of the module
    /// docs, appending its run to `candidates`; `None` when its box or
    /// bound is not finite, or the grid is empty.
    fn list(
        &mut self,
        grid: &CenterGrid<D>,
        metric: Metric,
        key: &CellKey<D>,
    ) -> Option<CellList<D>> {
        let side = grid.cell_side();
        let (mut lo, mut hi, mut mid) = ([0.0; D], [0.0; D], [0.0; D]);
        let mut reach = 0.0f64;
        for d in 0..D {
            let first = i128::from(key[d]) * i128::from(self.span);
            let (l, h) = (
                first as f64 * side,
                (first + i128::from(self.span)) as f64 * side,
            );
            // Catches the tuples whose `floor(x / side)` rounded up across
            // the box's edge (they stay correct either way).
            let pad = (D + 2) as f64 * f64::EPSILON * l.abs().max(h.abs());
            (lo[d], hi[d]) = (l - pad, h + pad);
            mid[d] = lo[d] + (hi[d] - lo[d]) / 2.0;
            reach = reach.max(mid[d] - lo[d]).max(hi[d] - mid[d]);
        }
        let mid = Point::new(mid);
        // A finite middle means a finite box.
        if !mid.is_finite() {
            return None;
        }
        // Grow the probe until it visits a center: `bound`, the smallest
        // farthest-corner distance of a visited center, bounds every
        // tuple's answer.
        let mut probe = reach;
        let bound = loop {
            let (mut bound, mut visited) = (f64::INFINITY, false);
            grid.for_each_within(&mid, probe, |c, _| {
                visited = true;
                bound = bound.min(farthest_corner(metric, &lo, &hi, c));
            });
            if visited {
                break bound;
            }
            if probe == f64::INFINITY {
                // An infinite probe visits every occupied cell.
                return None;
            }
            probe *= 2.0;
        };
        if !bound.is_finite() {
            return None;
        }
        // Every center within `bound` of the box lies within `bound +
        // reach` of the middle, so this probe visits them all; it can only
        // tighten the bound.
        let start = self.candidates.len();
        let mut tightest = bound;
        grid.for_each_within(&mid, bound + reach, |c, &id| {
            tightest = tightest.min(farthest_corner(metric, &lo, &hi, c));
            let nearest = Point::new(std::array::from_fn(|d| c.coord(d).max(lo[d]).min(hi[d])));
            let gap = metric.distance(&nearest, c);
            if gap <= bound {
                self.candidates.push((gap, id));
            }
        });
        let listed = &mut self.candidates;
        listed[start..].sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let kept = listed[start..].partition_point(|&(gap, _)| gap <= tightest);
        listed.truncate(start + kept);
        // The center of the smallest farthest-corner distance is listed.
        Some(CellList {
            lo,
            hi,
            run: (start, listed.len()),
        })
    }
}

/// The distance from `c` to the corner of the box `lo..=hi` farthest from
/// it: no point of the box is farther from `c`, and by monotone rounding
/// no computed distance is either.
#[inline]
fn farthest_corner<const D: usize>(
    metric: Metric,
    lo: &[f64; D],
    hi: &[f64; D],
    c: &Point<D>,
) -> f64 {
    let corner = std::array::from_fn(|d| {
        let x = c.coord(d);
        if (x - lo[d]).abs() > (hi[d] - x).abs() {
            lo[d]
        } else {
            hi[d]
        }
    });
    metric.distance(&Point::new(corner), c)
}

/// The slot of a point beyond the radius bound: no center has this index.
const OUTLIER: CenterId = CenterId::MAX;

/// The SGB-Around batch behind [`SgbQuery::around`] runs: assigns every
/// point of `points` to its nearest center under `rule`, or to the outlier
/// group, and materialises the answer groups: the non-empty center groups
/// in center order, each with its center, plus the outlier set. The
/// grouping is order-independent; only member order within a group
/// follows arrival order.
///
/// ```
/// use sgb_core::SgbQuery;
/// use sgb_geom::Point;
///
/// let centers = vec![Point::new([0.0, 0.0]), Point::new([10.0, 10.0])];
/// let points: Vec<Point<2>> = [[1.0, 1.0], [9.0, 9.5], [0.5, -0.5], [5.0, 5.0]]
///     .into_iter()
///     .map(Point::new)
///     .collect();
/// let out = SgbQuery::around(centers).max_radius(3.0).run(&points);
/// assert_eq!(out.groups(), &[vec![0, 2], vec![1]]);
/// assert_eq!(out.group_centers(), &[0, 1]);
/// assert_eq!(out.outliers(), &[3]); // (5, 5) is > 3 away from both
/// ```
///
/// The points are cut into `4 × threads` chunks (`threads` as the caller
/// resolved it, see [`crate::cost::threads_for_around`]), dealt round-robin
/// to one [`run_jobs`] job per worker, so an uneven cluster layout still
/// balances. Each job classifies its chunks into their own slots, ticking
/// a pacer of its own against the shared governor once per point; on the
/// `Grid` path it keeps one cell memo across its chunks (module docs).
/// Then, only when every job succeeded, a counting sort of the slots by
/// center ([`Grouping::by_label`]) lays out the groups, members in arrival
/// order, so they match a one-worker run exactly (asserted by
/// `tests/proptest_parallel.rs`). Points must be
/// finite (validated by the callers). On `Err`, nothing built here
/// escapes.
pub(crate) fn assign_batch<const D: usize>(
    rule: &CenterRule<D>,
    points: &[Point<D>],
    threads: usize,
    governor: &QueryGovernor,
    tel: &Telemetry,
) -> Result<Grouping, SgbError> {
    failpoints::fail_point!("sgb_core::around::assign", |_| Err(SgbError::Cancelled));
    governor.check()?;
    let join = tel.phase(Phase::Join);
    let workers = threads.max(1);
    let chunk = points.len().div_ceil(4 * workers).max(1);
    let per_worker = points.len().div_ceil(workers);
    let mut slots = vec![OUTLIER; points.len()];
    let mut dealt: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
    let pairs = points.chunks(chunk).zip(slots.chunks_mut(chunk));
    for (k, pair) in pairs.enumerate() {
        dealt[k % workers].push(pair);
    }
    let jobs = dealt.into_iter().filter(|chunks| !chunks.is_empty());
    let verdicts = run_jobs(jobs.map(|chunks| {
        move || {
            let mut memo = rule.memo(per_worker);
            let mut pacer = Pacer::new();
            for (pts, out) in chunks {
                rule.assign_chunk(&mut memo, pts, out, || pacer.tick(governor))?;
            }
            Ok(())
        }
    }))?;
    verdicts.into_iter().collect::<Result<(), SgbError>>()?;
    drop(join);
    let _merge = tel.phase(Phase::Merge);
    Ok(Grouping::by_label(
        slots.iter().copied(),
        rule.num_centers(),
        true,
    ))
}

/// Appends the assignment of every point of `points` to `out`, in one
/// sequential pass through `memo`: the per-chunk search of
/// [`assign_batch`], for a maintained grouping's build and inserts, which
/// neither pace nor group. A slot holds its point's center, or
/// [`OUTLIER`], an index past every center.
pub(crate) fn assign_into<const D: usize>(
    rule: &CenterRule<D>,
    memo: &mut CellMemo<D>,
    points: &[Point<D>],
    out: &mut Vec<CenterId>,
) {
    let start = out.len();
    out.resize(start + points.len(), OUTLIER);
    let Ok(()) = rule.assign_chunk(memo, points, &mut out[start..], || Ok::<(), Infallible>(()));
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
    use crate::RecordId;

    /// Maps each record id in `0..n` to its center (`None` for outliers).
    fn centers_of(out: &Grouping, n: usize) -> Vec<Option<CenterId>> {
        out.assignment(n)
            .into_iter()
            .map(|g| g.map(|g| out.group_centers()[g]))
            .collect()
    }

    const ALGOS: [Algorithm; 2] = [Algorithm::AllPairs, Algorithm::Grid];

    fn pts(raw: &[[f64; 2]]) -> Vec<Point<2>> {
        raw.iter().map(|&c| Point::new(c)).collect()
    }

    /// Deterministic pseudo-random cloud shared by the equivalence tests.
    fn cloud(n: usize, seed: u64, scale: f64) -> Vec<Point<2>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| Point::new([next() * scale, next() * scale]))
            .collect()
    }

    #[test]
    fn assigns_to_nearest_center() {
        let centers = pts(&[[0.0, 0.0], [10.0, 0.0]]);
        let points = pts(&[[1.0, 0.0], [9.0, 0.0], [4.0, 0.0], [6.0, 0.0]]);
        for algo in ALGOS {
            let query = SgbQuery::around(centers.clone()).algorithm(algo);
            let out = query.run(&points);
            assert_eq!(out.groups(), &[vec![0, 2], vec![1, 3]], "{algo:?}");
            assert_eq!(out.group_centers(), &[0, 1], "{algo:?}");
            assert!(out.outliers().is_empty());
            out.check_partition(4);
        }
    }

    #[test]
    fn exact_ties_break_to_lowest_center_index() {
        // The midpoint (5, 0) ties exactly between both centers under every
        // metric; so does a point equidistant from three centers.
        let centers = pts(&[[0.0, 0.0], [10.0, 0.0]]);
        let points = pts(&[[5.0, 0.0]]);
        for metric in Metric::ALL {
            for algo in ALGOS {
                let query = SgbQuery::around(centers.clone())
                    .metric(metric)
                    .algorithm(algo);
                let out = query.run(&points);
                assert_eq!(out.groups(), &[vec![0]], "{algo:?} {metric}");
                assert_eq!(out.group_centers(), &[0], "{algo:?} {metric}");
            }
        }
        // Swapping the center order flips the winner: the tie-break is by
        // index, not by coordinates.
        let swapped = pts(&[[10.0, 0.0], [0.0, 0.0]]);
        for algo in ALGOS {
            let query = SgbQuery::around(swapped.clone()).algorithm(algo);
            let out = query.run(&points);
            assert_eq!(out.groups(), &[vec![0]], "{algo:?}");
            assert_eq!(out.group_centers(), &[0], "{algo:?}");
        }
    }

    #[test]
    fn duplicate_centers_resolve_to_first() {
        // Core-level behavior (the SQL parser rejects duplicates earlier):
        // the lowest index of a duplicated center wins.
        let centers = pts(&[[1.0, 1.0], [1.0, 1.0]]);
        for algo in ALGOS {
            let query = SgbQuery::around(centers.clone()).algorithm(algo);
            let out = query.run(&pts(&[[1.2, 1.0]]));
            assert_eq!(out.groups(), &[vec![0]], "{algo:?}");
            assert_eq!(out.group_centers(), &[0], "{algo:?}");
        }
    }

    #[test]
    fn radius_bound_produces_outliers() {
        let centers = pts(&[[0.0, 0.0]]);
        // Boundary is inclusive (canonical predicate δ ≤ r).
        let points = pts(&[[3.0, 0.0], [3.1, 0.0], [0.0, -3.0], [8.0, 8.0]]);
        for algo in ALGOS {
            let query = SgbQuery::around(centers.clone())
                .max_radius(3.0)
                .algorithm(algo);
            let out = query.run(&points);
            assert_eq!(out.groups(), &[vec![0, 2]], "{algo:?}");
            assert_eq!(out.group_centers(), &[0], "{algo:?}");
            assert_eq!(out.outliers(), &[1, 3], "{algo:?}");
            out.check_partition(4);
        }
    }

    #[test]
    fn radius_semantics_differ_per_metric() {
        // (0.8, 0.8) vs a center at the origin: δ∞ = 0.8 ≤ 1 keeps it,
        // δ2 ≈ 1.13 and δ1 = 1.6 expel it.
        let centers = pts(&[[0.0, 0.0]]);
        let points = pts(&[[0.8, 0.8]]);
        for algo in ALGOS {
            let query = |m: Metric| {
                SgbQuery::around(centers.clone())
                    .metric(m)
                    .max_radius(1.0)
                    .algorithm(algo)
            };
            assert!(query(Metric::LInf).run(&points).outliers().is_empty());
            assert_eq!(query(Metric::L2).run(&points).outliers(), &[0]);
            assert_eq!(query(Metric::L1).run(&points).outliers(), &[0]);
        }
    }

    #[test]
    fn metrics_pick_different_nearest_centers() {
        // q = (2.2, 2.2): center A at (3, 3) has δ1 = 1.6, δ∞ = 0.8;
        // center B at (2.2, 0.9) has δ1 = 1.3, δ∞ = 1.3. L1 prefers B,
        // L∞ prefers A.
        let centers = pts(&[[3.0, 3.0], [2.2, 0.9]]);
        let q = pts(&[[2.2, 2.2]]);
        for algo in ALGOS {
            let query = |m: Metric| SgbQuery::around(centers.clone()).metric(m).algorithm(algo);
            let l1 = query(Metric::L1).run(&q);
            assert_eq!(l1.groups(), &[vec![0]], "{algo:?}");
            assert_eq!(l1.group_centers(), &[1], "{algo:?}");
            let linf = query(Metric::LInf).run(&q);
            assert_eq!(linf.groups(), &[vec![0]], "{algo:?}");
            assert_eq!(linf.group_centers(), &[0], "{algo:?}");
        }
    }

    #[test]
    fn all_paths_agree_exactly_on_random_clouds() {
        let points = cloud(600, 0xA40C, 10.0);
        let centers: Vec<Point<2>> = cloud(37, 0xC357, 10.0);
        for metric in Metric::ALL {
            for radius in [None, Some(0.9), Some(2.5)] {
                let run = |algo| {
                    let mut query = SgbQuery::around(centers.clone())
                        .metric(metric)
                        .algorithm(algo);
                    if let Some(r) = radius {
                        query = query.max_radius(r);
                    }
                    query.run(&points)
                };
                let brute = run(Algorithm::AllPairs);
                for algo in [Algorithm::Grid, Algorithm::Auto] {
                    assert_eq!(brute, run(algo), "{algo:?} {metric} radius {radius:?}");
                }
                brute.check_partition(points.len());
            }
        }
    }

    #[test]
    fn auto_resolves_from_center_count() {
        let few = SgbQuery::around(cloud(8, 1, 5.0)).run(&[]);
        assert_eq!(few.resolved_algorithm(), Algorithm::AllPairs);
        let many = SgbQuery::around(cloud(700, 2, 5.0)).run(&[]);
        assert_eq!(many.resolved_algorithm(), Algorithm::Grid);
        let explicit = SgbQuery::around(cloud(8, 3, 5.0))
            .algorithm(Algorithm::Grid)
            .run(&[]);
        assert_eq!(explicit.resolved_algorithm(), Algorithm::Grid);
    }

    #[test]
    fn order_independence_of_assignment() {
        let points = cloud(300, 0x0D3F1A, 8.0);
        let centers: Vec<Point<2>> = cloud(9, 7, 8.0);
        let query = SgbQuery::around(centers).max_radius(1.5);
        let forward = query.run(&points);
        let assignment = centers_of(&forward, points.len());
        // Process in reverse: each record's center must be unchanged.
        let mut rev = points.clone();
        rev.reverse();
        let backward = query.run(&rev);
        let back_assignment = centers_of(&backward, points.len());
        let n = points.len();
        for i in 0..n {
            assert_eq!(assignment[i], back_assignment[n - 1 - i], "record {i}");
        }
    }

    #[test]
    fn grouping_conversion_drops_empty_centers_and_appends_outliers() {
        let centers = pts(&[[0.0, 0.0], [50.0, 50.0], [10.0, 0.0]]);
        let points = pts(&[[0.5, 0.0], [9.5, 0.0], [25.0, 25.0]]);
        let query = SgbQuery::around(centers).max_radius(2.0);
        let out = query.run(&points);
        // Center 1 attracted nothing; outliers come last.
        assert_eq!(out.group_centers(), &[0, 2]);
        assert_eq!(out.num_groups(), 2);
        assert_eq!(out.grouped_records(), 2);
        let shaped: Vec<&[RecordId]> = out.output_groups().collect();
        assert_eq!(shaped, vec![&[0][..], &[1][..], &[2][..]]);
        out.check_partition(3);
        assert_eq!(centers_of(&out, 3), vec![Some(0), Some(2), None]);
    }

    #[test]
    fn empty_input_yields_empty_groups() {
        let query = SgbQuery::around(pts(&[[0.0, 0.0], [1.0, 1.0]]));
        for algo in ALGOS {
            let out = query.clone().algorithm(algo).run(&[]);
            assert!(out.group_centers().is_empty());
            assert_eq!(out.num_groups(), 0);
            assert!(out.output_groups().next().is_none());
        }
    }

    #[test]
    fn zero_radius_keeps_only_exact_matches() {
        let centers = pts(&[[1.0, 1.0]]);
        let points = pts(&[[1.0, 1.0], [1.0, 1.0000001]]);
        let query = SgbQuery::around(centers).max_radius(0.0);
        let out = query.run(&points);
        assert_eq!(out.groups(), &[vec![0]]);
        assert_eq!(out.group_centers(), &[0]);
        assert_eq!(out.outliers(), &[1]);
    }

    #[test]
    fn three_dimensional_grouping() {
        let centers = vec![Point::new([0.0, 0.0, 0.0]), Point::new([5.0, 5.0, 5.0])];
        let points = vec![
            Point::new([0.2, 0.1, 0.0]),
            Point::new([4.9, 5.0, 5.2]),
            Point::new([2.5, 2.5, 2.5]), // exact midpoint: lowest index wins
        ];
        for metric in Metric::ALL {
            for algo in ALGOS {
                let query = SgbQuery::around(centers.clone())
                    .metric(metric)
                    .algorithm(algo);
                let out = query.run(&points);
                assert_eq!(out.groups(), &[vec![0, 2], vec![1]], "{algo:?} {metric}");
                assert_eq!(out.group_centers(), &[0, 1], "{algo:?} {metric}");
            }
        }
    }

    #[test]
    fn memo_cells_of_every_span_answer_like_the_scan() {
        // In the 8-wide memo cell [0, 8]², center 1 is nearest to the tuples
        // near (8, 8) under L2, though it lies 9 cells above the middle: the
        // probe must reach past the middle's own bound by half the cell.
        let wide = pts(&[[4.0, 4.0], [8.0, 13.0]]);
        let lattice: Vec<Point<2>> = (0..=32)
            .flat_map(|i| (0..=32).map(move |j| Point::new([i as f64 / 4.0, j as f64 / 4.0])))
            .collect();
        // Sparse centers, with tuples inside and far outside their box.
        let sparse = cloud(40, 0x5EED, 40.0);
        let strays = cloud(400, 0x57A7, 60.0);
        for (centers, tuples) in [(&wide, &lattice), (&sparse, &strays)] {
            let grid = Grid::from_points(1.0, centers.iter().copied().zip(0..));
            for metric in Metric::ALL {
                for span in [1, 2, 4, 8] {
                    let mut memo = CellMemo::new(span);
                    for p in tuples {
                        assert_eq!(
                            memo.nearest(&grid, centers, metric, p),
                            scan_nearest(centers, metric, p),
                            "{metric} span {span} tuple {p:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_assignment_is_bit_identical_to_sequential() {
        let points = cloud(800, 0xFA57, 10.0);
        let centers: Vec<Point<2>> = cloud(23, 0xC0DE, 10.0);
        for metric in Metric::ALL {
            for algo in ALGOS {
                for radius in [None, Some(1.2)] {
                    let mut base = SgbQuery::around(centers.clone())
                        .metric(metric)
                        .algorithm(algo);
                    if let Some(r) = radius {
                        base = base.max_radius(r);
                    }
                    let sequential = base.clone().threads(1).run(&points);
                    for threads in [2, 3, 7] {
                        let parallel = base.clone().threads(threads).run(&points);
                        // Exact equality: member order within every group
                        // and the outlier order must match arrival order.
                        assert_eq!(
                            parallel, sequential,
                            "{algo:?} {metric} radius {radius:?} threads={threads}"
                        );
                    }
                }
            }
        }
    }
}
