//! Uniform epsilon-grid spatial partitioning (hashed cells).
//!
//! The similarity operators are all ε-bounded: every probe asks "which
//! stored elements can be within ε of this point?". A uniform grid with
//! cell side = ε answers that with a constant number of hash lookups — the
//! point's own cell plus its immediate neighbours (the classic
//! neighbours-of-27-cells scan used to run groupwise ε-joins inside a
//! DBMS) — with no tree descent, no node splits, and no rebalancing.
//!
//! Cells are keyed by `floor(coord / cell)` per dimension and stored in a
//! hash map, so only occupied cells cost memory, the domain never needs
//! bounds, and entries come and go one at a time. Two query shapes are
//! provided:
//!
//! * [`Grid::for_each_within`] — the ε-probe. It visits a guaranteed
//!   **superset** of the entries satisfying the canonical predicate
//!   [`Metric::within`]; callers verify each hit exactly like
//!   `VerifyPoints` of the paper's Procedure 8. The cell window is padded
//!   by one whole cell per side, which makes the superset guarantee robust
//!   against floating-point rounding of the `coord / cell` quantisation
//!   (no epsilon-juggling proofs required — the pad absorbs a full cell of
//!   error where the actual error is a few ulps).
//! * [`Grid::nearest_one`] — expanding-ring nearest-neighbour search for
//!   SGB-Around. Distances are the canonical [`Metric::distance`] values
//!   and exact ties resolve by ascending payload, bit-compatible with
//!   [`crate::RTree::nearest_one_with`].
//!
//! Incremental maintenance and SGB-Around's center index use this grid.
//! The bulk ε-join over a complete point set runs over the sort-built
//! layout of [`crate::sorted`] instead, which needs no cell lookups; it is
//! tested here, beside the probes and over the same fixtures.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use sgb_geom::{Metric, Point};

/// Cell coordinates: `floor(coord / cell)` per dimension.
pub type CellKey<const D: usize> = [i64; D];

/// A fast multiplicative hasher for cell keys. Cell keys are small arrays
/// of small integers probed several times per input point, so the default
/// SipHash is measurable overhead; this folds 8-byte chunks with the
/// standard Fibonacci multiplier + xor-rotate mix (keys are derived from
/// data coordinates, not attacker-controlled, so DoS hardening is not a
/// concern here).
#[derive(Default)]
pub struct CellHasher {
    state: u64,
}

impl Hasher for CellHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            let v = u64::from_le_bytes(buf);
            self.state = (self.state ^ v)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(23);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // One final avalanche so low bits (the map's bucket index) depend
        // on every input chunk.
        let mut h = self.state;
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 32;
        h
    }
}

type CellMap<const D: usize, T> =
    HashMap<CellKey<D>, Vec<(Point<D>, T)>, BuildHasherDefault<CellHasher>>;

/// A uniform hashed grid over `D`-dimensional points with payloads `T`.
///
/// ```
/// use sgb_spatial::Grid;
/// use sgb_geom::{Metric, Point};
///
/// let mut grid: Grid<2, usize> = Grid::new(1.0);
/// grid.insert(Point::new([0.2, 0.2]), 0);
/// grid.insert(Point::new([0.9, 0.2]), 1);
/// grid.insert(Point::new([5.0, 5.0]), 2);
/// let mut hits = Vec::new();
/// grid.for_each_within(&Point::new([0.0, 0.0]), 1.0, |p, &id| {
///     if Metric::L2.within(p, &Point::new([0.0, 0.0]), 1.0) {
///         hits.push(id); // caller-side verification, as the SGB operators do
///     }
/// });
/// hits.sort();
/// assert_eq!(hits, vec![0, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct Grid<const D: usize, T> {
    cell: f64,
    cells: CellMap<D, T>,
    /// Occupied-cell bounding box (valid only when `len > 0`); bounds the
    /// expanding-ring search of [`nearest_one`](Self::nearest_one).
    lo: CellKey<D>,
    hi: CellKey<D>,
    len: usize,
}

impl<const D: usize, T> Grid<D, T> {
    /// An empty grid with the given cell side length.
    pub fn new(cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "grid cell side must be finite and positive"
        );
        Self {
            cell,
            cells: CellMap::default(),
            lo: [0; D],
            hi: [0; D],
            len: 0,
        }
    }

    /// The cell side to use for an ε-probe grid: ε itself, or `1.0` when
    /// ε = 0 (any positive side works there — points at distance zero are
    /// coordinate-identical and always share a cell).
    #[inline]
    pub fn side_for_eps(eps: f64) -> f64 {
        if eps > 0.0 {
            eps
        } else {
            1.0
        }
    }

    /// A cell side sized for nearest-neighbour probes over `points`
    /// (SGB-Around centers): the population bounding box divided so the
    /// grid holds roughly one point per cell — `extent / ceil(n^(1/D))` —
    /// falling back to `1.0` for degenerate (single-point / zero-extent)
    /// populations.
    pub fn side_for_points(points: &[Point<D>]) -> f64 {
        let mut extent = 0.0f64;
        if let Some(first) = points.first() {
            let mut lo = *first;
            let mut hi = *first;
            for p in points {
                lo = lo.min(p);
                hi = hi.max(p);
            }
            for d in 0..D {
                extent = extent.max(hi.coord(d) - lo.coord(d));
            }
        }
        let cells_per_dim = (points.len().max(1) as f64).powf(1.0 / D as f64).ceil();
        let side = extent / cells_per_dim.max(1.0);
        if side.is_finite() && side > 0.0 {
            side
        } else {
            1.0
        }
    }

    /// Builds a grid from a complete point set.
    pub fn from_points(cell: f64, points: impl IntoIterator<Item = (Point<D>, T)>) -> Self {
        let mut grid = Self::new(cell);
        for (p, item) in points {
            grid.insert(p, item);
        }
        grid
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the grid stores nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of occupied cells.
    #[inline]
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// The cell containing `p`. The `f64 → i64` cast saturates at the
    /// integer extremes, so even absurd coordinate/cell ratios stay safe —
    /// far-apart points may then share a (saturated) cell, which only
    /// costs filter precision, never correctness (callers verify hits).
    #[inline]
    pub fn cell_of(&self, p: &Point<D>) -> CellKey<D> {
        cell_key(p, self.cell)
    }

    /// Inserts an entry.
    pub fn insert(&mut self, p: Point<D>, item: T) {
        debug_assert!(p.is_finite(), "grid points must be finite");
        let key = self.cell_of(&p);
        if self.len == 0 {
            self.lo = key;
            self.hi = key;
        } else {
            for (d, &k) in key.iter().enumerate() {
                self.lo[d] = self.lo[d].min(k);
                self.hi[d] = self.hi[d].max(k);
            }
        }
        self.cells.entry(key).or_default().push((p, item));
        self.len += 1;
    }

    /// Removes one entry matching `p` and `item` exactly (coordinate
    /// equality per dimension, payload equality); returns `true` when an
    /// entry was removed. When the entry was the last of its cell the cell itself is
    /// dropped, so a long insert/delete workload never accumulates empty
    /// cells (an empty cell would still widen `occupied_cells` and the
    /// occupied-scan fallback of the probes, never correctness).
    ///
    /// The occupied bounding box is **not** shrunk: recomputing it exactly
    /// would cost a scan of the occupied set, and a conservative
    /// (too-large) box only admits extra candidate cells — every probe
    /// verifies hits against the canonical predicate anyway.
    pub fn remove(&mut self, p: &Point<D>, item: &T) -> bool
    where
        T: PartialEq,
    {
        let key = self.cell_of(p);
        let Some(entries) = self.cells.get_mut(&key) else {
            return false;
        };
        let Some(idx) = entries
            .iter()
            .position(|(q, t)| q.coords() == p.coords() && t == item)
        else {
            return false;
        };
        entries.swap_remove(idx);
        if entries.is_empty() {
            self.cells.remove(&key);
        }
        self.len -= 1;
        true
    }

    /// The ε-probe: invokes `visit` for every entry stored in a cell that
    /// could hold a point within `eps` of `center` — a guaranteed superset
    /// of the canonical predicate [`Metric::within`] under every metric
    /// (the visited window covers `[center − eps, center + eps]` per
    /// dimension, padded by one full cell against quantisation rounding).
    /// Callers verify each hit with `Metric::within`, exactly like
    /// `VerifyPoints` of Procedure 8; the probe itself allocates nothing.
    pub fn for_each_within<F: FnMut(&Point<D>, &T)>(
        &self,
        center: &Point<D>,
        eps: f64,
        mut visit: F,
    ) {
        if self.len == 0 {
            return;
        }
        let mut lo = [0i64; D];
        let mut hi = [0i64; D];
        let mut volume = 1usize;
        for d in 0..D {
            let c = center.coord(d);
            // One-cell pad on each side: the float window arithmetic and
            // the floor quantisation err by ulps, the pad absorbs a whole
            // cell.
            let l = floor_to_i64((c - eps) / self.cell)
                .saturating_sub(1)
                .max(self.lo[d]);
            let h = floor_to_i64((c + eps) / self.cell)
                .saturating_add(1)
                .min(self.hi[d]);
            if l > h {
                return;
            }
            lo[d] = l;
            hi[d] = h;
            // Width in i128: with saturated keys the span can exceed i64.
            let width = (h as i128 - l as i128 + 1).min(usize::MAX as i128) as usize;
            volume = volume.saturating_mul(width);
        }
        if volume <= self.cells.len() {
            for_each_key_in_box(&lo, &hi, |key| {
                if let Some(entries) = self.cells.get(key) {
                    for (p, item) in entries {
                        visit(p, item);
                    }
                }
            });
        } else {
            // The window covers more cells than are occupied: walking the
            // occupied set is cheaper than probing every window cell.
            for (key, entries) in &self.cells {
                if (0..D).all(|d| lo[d] <= key[d] && key[d] <= hi[d]) {
                    for (p, item) in entries {
                        visit(p, item);
                    }
                }
            }
        }
    }

    /// The entry nearest to `q` under `metric`, as `(distance, payload)` —
    /// expanding-ring search over cells. Reported distances are the
    /// canonical [`Metric::distance`] values and exact ties resolve to the
    /// smallest payload, so the result is bit-identical to a brute-force
    /// `(distance, payload)`-lexicographic argmin (and to
    /// [`crate::RTree::nearest_one_with`] over point entries).
    pub fn nearest_one(&self, q: &Point<D>, metric: Metric) -> Option<(f64, T)>
    where
        T: Ord + Clone,
    {
        if self.len == 0 {
            return None;
        }
        let qc = self.cell_of(q);
        // Rings beyond the occupied bounding box hold nothing.
        let mut max_ring = 0i64;
        for (d, &qcd) in qc.iter().enumerate() {
            let lo_gap = (qcd as i128 - self.lo[d] as i128).unsigned_abs();
            let hi_gap = (qcd as i128 - self.hi[d] as i128).unsigned_abs();
            let gap = lo_gap.max(hi_gap).min(i64::MAX as u128) as i64;
            max_ring = max_ring.max(gap);
        }
        let mut best: Option<(f64, &T)> = None;
        for k in 0..=max_ring {
            if let Some((bd, _)) = best {
                // Any point in ring k is at least (k − 1) cells away under
                // L∞ (and δ₁ ≥ δ₂ ≥ δ∞); one extra cell of slack makes the
                // cut-off immune to the quantisation rounding of `cell_of`.
                if (k as f64 - 2.0) * self.cell > bd {
                    break;
                }
            }
            self.for_each_ring_cell(&qc, k, |entries| {
                for (p, item) in entries {
                    let d = metric.distance(q, p);
                    let better = match best {
                        None => true,
                        Some((bd, bt)) => d < bd || (d == bd && item < bt),
                    };
                    if better {
                        best = Some((d, item));
                    }
                }
            });
        }
        best.map(|(d, item)| (d, item.clone()))
    }

    /// Invokes `f` with the entry list of every occupied cell at Chebyshev
    /// cell-distance exactly `k` from `qc`, clamped to the occupied
    /// bounding box.
    ///
    /// Walks only the ring **shell**, never the cube interior: for each
    /// dimension `d` the two faces `c_d = qc_d ± k` are enumerated, with
    /// dimensions before `d` restricted to the open interval
    /// `(qc − k, qc + k)` so face intersections (edges/corners) are
    /// visited exactly once. The per-ring cost is therefore proportional
    /// to the clamped ring surface, not to the clamped bounding box — a
    /// query far from the population pays O(surface) per ring instead of
    /// re-enumerating the whole occupied box every ring.
    fn for_each_ring_cell<'a, F: FnMut(&'a [(Point<D>, T)])>(
        &'a self,
        qc: &CellKey<D>,
        k: i64,
        mut f: F,
    ) {
        if k == 0 {
            if (0..D).all(|d| self.lo[d] <= qc[d] && qc[d] <= self.hi[d]) {
                if let Some(entries) = self.cells.get(qc) {
                    f(entries);
                }
            }
            return;
        }
        let mut lo = [0i64; D];
        let mut hi = [0i64; D];
        for face_dim in 0..D {
            for face in [
                qc[face_dim].saturating_sub(k),
                qc[face_dim].saturating_add(k),
            ] {
                if face < self.lo[face_dim] || face > self.hi[face_dim] {
                    continue;
                }
                let mut empty = false;
                for d in 0..D {
                    if d == face_dim {
                        lo[d] = face;
                        hi[d] = face;
                        continue;
                    }
                    // Earlier dimensions already contributed their own
                    // ±k faces; keep them strictly inside the ring there.
                    let slack = if d < face_dim { k - 1 } else { k };
                    let l = qc[d].saturating_sub(slack).max(self.lo[d]);
                    let h = qc[d].saturating_add(slack).min(self.hi[d]);
                    if l > h {
                        empty = true;
                        break;
                    }
                    lo[d] = l;
                    hi[d] = h;
                }
                if empty {
                    continue;
                }
                for_each_key_in_box(&lo, &hi, |key| {
                    if let Some(entries) = self.cells.get(key) {
                        f(entries);
                    }
                });
            }
        }
    }
}

/// The key of the cell of side `cell` that holds `p` (see
/// [`Grid::cell_of`]).
#[inline]
pub(crate) fn cell_key<const D: usize>(p: &Point<D>, cell: f64) -> CellKey<D> {
    std::array::from_fn(|d| floor_to_i64(p.coord(d) / cell))
}

/// `x.floor() as i64`, bit for bit, without a call to `floor` (a library
/// call on targets without SSE4.1). The cast truncates toward zero and
/// saturates; a truncation that rounded a negative fraction up steps down
/// by one. Integral and out-of-range values (and NaN, cast to 0) pass
/// through the cast unchanged, exactly as after `floor`.
#[inline]
fn floor_to_i64(x: f64) -> i64 {
    let t = x as i64;
    if (t as f64) > x {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// Odometer iteration over the integer box `lo..=hi` (all dimensions).
pub(crate) fn for_each_key_in_box<const D: usize, F: FnMut(&CellKey<D>)>(
    lo: &CellKey<D>,
    hi: &CellKey<D>,
    mut f: F,
) {
    debug_assert!((0..D).all(|d| lo[d] <= hi[d]));
    let mut cur = *lo;
    loop {
        f(&cur);
        let mut d = 0;
        loop {
            if d == D {
                return;
            }
            if cur[d] < hi[d] {
                cur[d] += 1;
                break;
            }
            cur[d] = lo[d];
            d += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorted::CellForest;
    use crate::{JoinPass, JoinTally, SortedCells};
    use std::convert::Infallible;

    fn pt(x: f64, y: f64) -> Point<2> {
        Point::new([x, y])
    }

    /// The 31-wide integer lattice the R-tree tests use, for side-by-side
    /// comparisons.
    fn lattice(n: usize) -> Vec<(Point<2>, usize)> {
        (0..n)
            .map(|i| (pt((i % 31) as f64, (i / 31) as f64), i))
            .collect()
    }

    #[test]
    fn empty_grid_queries() {
        let grid: Grid<2, usize> = Grid::new(1.0);
        assert!(grid.is_empty());
        let mut visited = 0;
        grid.for_each_within(&pt(0.0, 0.0), 10.0, |_, _| visited += 1);
        assert_eq!(visited, 0);
        assert_eq!(grid.nearest_one(&pt(0.0, 0.0), Metric::L2), None);
    }

    #[test]
    #[should_panic(expected = "cell side")]
    fn rejects_zero_cell() {
        let _: Grid<2, usize> = Grid::new(0.0);
    }

    #[test]
    fn side_helpers() {
        assert_eq!(Grid::<2, usize>::side_for_eps(0.25), 0.25);
        assert_eq!(Grid::<2, usize>::side_for_eps(0.0), 1.0);
        // One point / empty population: positive fallback.
        assert_eq!(Grid::<2, usize>::side_for_points(&[]), 1.0);
        assert_eq!(Grid::<2, usize>::side_for_points(&[pt(3.0, 3.0)]), 1.0);
        // 100 points over a 10-wide box: ~1 point per cell.
        let pts: Vec<Point<2>> = (0..100)
            .map(|i| pt((i % 10) as f64, (i / 10) as f64))
            .collect();
        let side = Grid::<2, usize>::side_for_points(&pts);
        assert!(side > 0.0 && side <= 10.0, "{side}");
    }

    #[test]
    fn probe_superset_matches_linear_scan_per_metric() {
        let grid: Grid<2, usize> = Grid::from_points(2.5, lattice(500));
        let queries = [
            (pt(5.2, 4.7), 2.5),
            (pt(0.0, 0.0), 0.0),
            (pt(15.5, 8.0), 5.0),
            (pt(-3.0, -3.0), 1.0),
        ];
        for metric in Metric::ALL {
            for (q, eps) in queries {
                let mut hits = Vec::new();
                grid.for_each_within(&q, eps, |p, &i| {
                    if metric.within(p, &q, eps) {
                        hits.push(i);
                    }
                });
                hits.sort_unstable();
                let expected: Vec<usize> = (0..500)
                    .filter(|i| metric.within(&pt((i % 31) as f64, (i / 31) as f64), &q, eps))
                    .collect();
                assert_eq!(hits, expected, "{metric} query {q:?} eps {eps}");
            }
        }
    }

    #[test]
    fn probe_visits_every_boundary_tie() {
        // Awkward non-representable coordinates whose distances tie with ε
        // up to rounding must still be visited (the caller's verify
        // decides) — same fixture as the R-tree superset test.
        let base = 880.0;
        let points: Vec<Point<2>> = (0..60)
            .map(|k| pt((base + k as f64 * 11.17) / 11000.0, 0.0))
            .collect();
        let eps = 0.08;
        let grid: Grid<2, usize> = Grid::from_points(
            Grid::<2, usize>::side_for_eps(eps),
            points.iter().copied().zip(0..),
        );
        for metric in Metric::ALL {
            for q in &points {
                let mut visited = vec![false; points.len()];
                grid.for_each_within(q, eps, |_, &i| visited[i] = true);
                for (i, p) in points.iter().enumerate() {
                    if metric.within(p, q, eps) {
                        assert!(visited[i], "{metric}: predicate hit {i} not visited");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_eps_probe_finds_exact_duplicates() {
        let mut grid: Grid<2, char> = Grid::new(Grid::<2, char>::side_for_eps(0.0));
        grid.insert(pt(1.0, 1.0), 'a');
        grid.insert(pt(1.0, 1.0), 'b');
        grid.insert(pt(1.0, 1.0000001), 'c');
        let mut hits = Vec::new();
        grid.for_each_within(&pt(1.0, 1.0), 0.0, |p, &id| {
            if Metric::L2.within(p, &pt(1.0, 1.0), 0.0) {
                hits.push(id);
            }
        });
        hits.sort_unstable();
        assert_eq!(hits, vec!['a', 'b']);
    }

    #[test]
    fn nearest_one_matches_brute_force_argmin() {
        let grid: Grid<2, usize> = Grid::from_points(1.7, lattice(400));
        let probes = [
            pt(7.3, 4.9),
            pt(-2.0, 40.0),
            pt(10.0, 10.0),
            pt(15.0, 8.0),
            pt(200.0, -50.0), // far outside the population
        ];
        for metric in Metric::ALL {
            for q in &probes {
                let got = grid.nearest_one(q, metric).unwrap();
                let mut best = (f64::INFINITY, 0usize);
                for &(p, i) in &lattice(400) {
                    let d = metric.distance(q, &p);
                    if d < best.0 {
                        best = (d, i);
                    }
                }
                assert_eq!(got, best, "{metric} {q:?}");
            }
        }
    }

    #[test]
    fn nearest_one_breaks_exact_ties_by_ascending_payload() {
        // Duplicate positions with scrambled payloads at exactly equal
        // distance: the smallest payload must win, regardless of insertion
        // order or cell layout.
        let ring = [pt(11.0, 10.0), pt(9.0, 10.0), pt(10.0, 11.0), pt(10.0, 9.0)];
        for metric in Metric::ALL {
            let mut grid: Grid<2, usize> = Grid::new(0.8);
            for (j, payload) in [5usize, 1, 7, 3, 0, 6, 2, 4].iter().enumerate() {
                grid.insert(ring[j % ring.len()], *payload);
            }
            let got = grid.nearest_one(&pt(10.0, 10.0), metric).unwrap();
            assert_eq!(got.1, 0, "{metric}");
            assert!((got.0 - 1.0).abs() < 1e-12, "{metric}");
        }
    }

    #[test]
    fn incremental_and_bulk_loads_agree() {
        let mut inc: Grid<2, usize> = Grid::new(2.0);
        for (p, i) in lattice(300) {
            inc.insert(p, i);
        }
        let bulk: Grid<2, usize> = Grid::from_points(2.0, lattice(300));
        assert_eq!(inc.len(), bulk.len());
        assert_eq!(inc.occupied_cells(), bulk.occupied_cells());
        let q = pt(6.5, 3.5);
        for metric in Metric::ALL {
            let collect = |g: &Grid<2, usize>| {
                let mut out = Vec::new();
                g.for_each_within(&q, 2.0, |_, &i| out.push(i));
                out.sort_unstable();
                out
            };
            assert_eq!(collect(&inc), collect(&bulk), "{metric}");
            assert_eq!(inc.nearest_one(&q, metric), bulk.nearest_one(&q, metric));
        }
    }

    #[test]
    fn three_dimensional_probe() {
        let points: Vec<(Point<3>, usize)> = (0..200)
            .map(|i| {
                let f = i as f64;
                (Point::new([f % 5.0, (f / 5.0) % 5.0, f / 25.0]), i)
            })
            .collect();
        let grid: Grid<3, usize> = Grid::from_points(1.0, points.clone());
        let q = Point::new([2.2, 2.8, 3.1]);
        for metric in Metric::ALL {
            let mut hits = Vec::new();
            grid.for_each_within(&q, 1.0, |p, &i| {
                if metric.within(p, &q, 1.0) {
                    hits.push(i);
                }
            });
            hits.sort_unstable();
            let expected: Vec<usize> = points
                .iter()
                .filter(|(p, _)| metric.within(p, &q, 1.0))
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(hits, expected, "{metric}");
            // Nearest agrees with brute force too.
            let got = grid.nearest_one(&q, metric).unwrap();
            let best = points
                .iter()
                .map(|(p, i)| (metric.distance(&q, p), *i))
                .fold(
                    (f64::INFINITY, 0),
                    |acc, cur| {
                        if cur.0 < acc.0 {
                            cur
                        } else {
                            acc
                        }
                    },
                );
            assert_eq!(got, best, "{metric}");
        }
    }

    #[test]
    fn saturated_cell_keys_stay_safe() {
        // Absurd coordinate/cell ratios saturate the cell keys at the i64
        // extremes; probes over such a grid must neither overflow nor miss
        // verified hits (the documented saturation-safety guarantee).
        let mut grid: Grid<2, usize> = Grid::new(1e-3);
        grid.insert(pt(1e300, 0.0), 0);
        grid.insert(pt(-1e300, 0.0), 1);
        grid.insert(pt(0.25, 0.0), 2);
        let mut hits = Vec::new();
        grid.for_each_within(&pt(0.0, 0.0), 1e19, |p, &i| {
            if Metric::L2.within(p, &pt(0.0, 0.0), 1e19) {
                hits.push(i);
            }
        });
        hits.sort_unstable();
        assert_eq!(hits, vec![2], "only the unsaturated point is in range");
        // Nearest search still terminates and finds the true argmin.
        assert_eq!(grid.nearest_one(&pt(0.3, 0.0), Metric::L2).unwrap().1, 2);
    }

    #[test]
    fn nearest_one_far_diagonal_query_is_cheap_and_correct() {
        // A query far outside the population (diagonally) must still
        // return the exact argmin; the ring walk only touches shell
        // cells, so this terminates quickly even with many rings.
        let grid: Grid<2, usize> = Grid::from_points(0.5, lattice(500));
        for metric in Metric::ALL {
            let q = pt(5000.0, -4000.0);
            let got = grid.nearest_one(&q, metric).unwrap();
            let mut best = (f64::INFINITY, 0usize);
            for &(p, i) in &lattice(500) {
                let d = metric.distance(&q, &p);
                if d < best.0 {
                    best = (d, i);
                }
            }
            assert_eq!(got, best, "{metric}");
        }
    }

    #[test]
    fn remove_drops_empty_cells_and_roundtrips() {
        let mut grid: Grid<2, usize> = Grid::new(1.0);
        grid.insert(pt(0.2, 0.2), 0);
        grid.insert(pt(0.9, 0.2), 1); // same cell as 0
        grid.insert(pt(5.0, 5.0), 2);
        assert_eq!(grid.occupied_cells(), 2);

        // Removing one of two entries keeps the cell.
        assert!(grid.remove(&pt(0.2, 0.2), &0));
        assert_eq!(grid.len(), 2);
        assert_eq!(grid.occupied_cells(), 2);
        // Removing the last entry of a cell drops the cell.
        assert!(grid.remove(&pt(5.0, 5.0), &2));
        assert_eq!(grid.occupied_cells(), 1);
        // Misses: wrong point, wrong payload, already removed.
        assert!(!grid.remove(&pt(5.0, 5.0), &2));
        assert!(!grid.remove(&pt(0.9, 0.2), &7));
        assert!(!grid.remove(&pt(0.95, 0.2), &1));
        assert_eq!(grid.len(), 1);

        // Re-insert what was removed: probes see the same set as a fresh
        // grid built from the final contents.
        grid.insert(pt(0.2, 0.2), 0);
        grid.insert(pt(5.0, 5.0), 2);
        let fresh: Grid<2, usize> = Grid::from_points(
            1.0,
            [(pt(0.2, 0.2), 0), (pt(0.9, 0.2), 1), (pt(5.0, 5.0), 2)],
        );
        for metric in Metric::ALL {
            let collect = |g: &Grid<2, usize>| {
                let mut out = Vec::new();
                g.for_each_within(&pt(0.5, 0.5), 6.0, |_, &i| out.push(i));
                out.sort_unstable();
                out
            };
            assert_eq!(collect(&grid), collect(&fresh), "{metric}");
            assert_eq!(
                grid.nearest_one(&pt(4.0, 4.0), metric),
                fresh.nearest_one(&pt(4.0, 4.0), metric)
            );
        }
    }

    #[test]
    fn remove_then_reinsert_under_churn_matches_rebuild() {
        // A long alternating insert/delete workload must not accumulate
        // empty cells (the probe-window fallback compares against
        // occupied_cells) and must keep probe results exact.
        let mut grid: Grid<2, usize> = Grid::new(1.0);
        for round in 0..50 {
            for (p, i) in lattice(40) {
                grid.insert(p, i + round * 40);
            }
            for (p, i) in lattice(40) {
                assert!(grid.remove(&p, &(i + round * 40)), "round {round} id {i}");
            }
        }
        assert!(grid.is_empty());
        assert_eq!(grid.occupied_cells(), 0, "no empty cells accumulate");
        grid.insert(pt(1.5, 1.5), 99);
        let got = grid.nearest_one(&pt(0.0, 0.0), Metric::L2).unwrap();
        assert_eq!(got.1, 99);
    }

    #[test]
    fn negative_coordinates_quantise_correctly() {
        // floor (not truncation) keys: −0.5 and +0.5 sit in different
        // cells under cell = 1, but a probe spanning both finds both.
        let mut grid: Grid<2, char> = Grid::new(1.0);
        grid.insert(pt(-0.5, 0.0), 'n');
        grid.insert(pt(0.5, 0.0), 'p');
        assert_eq!(grid.cell_of(&pt(-0.5, 0.0))[0], -1);
        assert_eq!(grid.cell_of(&pt(0.5, 0.0))[0], 0);
        // The keys are `floor(coord / cell) as i64` bit for bit, across
        // signs, integral values, the ±2⁶³ saturation edges and beyond.
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.0 - f64::EPSILON,
            1e-300,
            -1e-300,
            4503599627370495.5,
            -4503599627370495.5,
            9007199254740993.0,
            -9223372036854775808.0,
            -9223372036854777856.0,
            9223372036854775807.0,
            9223372036854774784.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in edges {
            for cell in [1.0, 0.3, 1e-3] {
                let key = Grid::<2, char>::new(cell).cell_of(&pt(x, -x));
                let want = [(x / cell).floor() as i64, (-x / cell).floor() as i64];
                assert_eq!(key, want, "x = {x:e}, cell = {cell}");
            }
        }
        let mut hits = Vec::new();
        grid.for_each_within(&pt(0.0, 0.0), 1.0, |_, &c| hits.push(c));
        hits.sort_unstable();
        assert_eq!(hits, vec!['n', 'p']);
    }

    /// What one [`connect`] run saw: its result, the emitted pairs
    /// (sorted), the summed tally, and how many `Neighbours` calls ran.
    struct Connected<E> {
        result: Result<(), E>,
        pairs: Vec<(usize, usize)>,
        tally: JoinTally,
        neighbour_calls: usize,
    }

    /// Runs the connectivity join of the sorted layout in the SGB-Any
    /// kernel's order: the `Cells` pass on every shard, then the
    /// `Neighbours` pass, stopping at the first error.
    fn connect<const D: usize, E>(
        layout: &SortedCells<D>,
        eps: f64,
        metric: Metric,
        shards: usize,
        interval: usize,
        mut pace: impl FnMut(JoinPass) -> Result<(), E>,
    ) -> Connected<E> {
        let mut join = layout.connectivity_join(eps, metric);
        let mut seen = Connected {
            result: Ok(()),
            pairs: Vec::new(),
            tally: JoinTally::default(),
            neighbour_calls: 0,
        };
        'passes: for pass in [JoinPass::Cells, JoinPass::Neighbours] {
            for shard in join.split(pass, shards) {
                seen.neighbour_calls += usize::from(pass == JoinPass::Neighbours);
                let pairs = &mut seen.pairs;
                seen.result = shard.try_join(
                    |a, b| pairs.push((a.min(b), a.max(b))),
                    interval,
                    || pace(pass),
                    Some(&mut seen.tally),
                );
                if seen.result.is_err() {
                    break 'passes;
                }
            }
        }
        seen.pairs.sort_unstable();
        seen
    }

    /// The groups (sorted members, sorted by smallest member) that the
    /// pairs `edges` form over `n` points.
    fn groups_of(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut forest = CellForest::default();
        forest.reset(n);
        for &(a, b) in edges {
            forest.union(a, b);
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of_root = HashMap::new();
        for i in 0..n {
            let root = forest.root(i);
            let g = *group_of_root.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(i);
        }
        groups
    }

    /// The independent oracle: the components of every within-ε pair.
    fn brute_groups<const D: usize>(
        points: &[Point<D>],
        eps: f64,
        metric: Metric,
    ) -> Vec<Vec<usize>> {
        let mut edges = Vec::new();
        for (i, p) in points.iter().enumerate() {
            for (j, q) in points.iter().enumerate().skip(i + 1) {
                if metric.within(p, q, eps) {
                    edges.push((i, j));
                }
            }
        }
        groups_of(points.len(), &edges)
    }

    /// Checks the connectivity join of `points` on a sorted layout of
    /// side `cell` against the brute-force components, checks that every
    /// emitted pair passes `Metric::within` and is emitted once, that the
    /// sequential driver emits the same pairs, and that pairs and tallies
    /// do not depend on the shard count. Returns the sequential tally.
    fn check_connectivity<const D: usize>(
        points: &[Point<D>],
        cell: f64,
        eps: f64,
        metric: Metric,
    ) -> JoinTally {
        let layout = SortedCells::from_points(cell, points);
        let label = format!("{metric} cell={cell} eps={eps}");
        let Connected { pairs, tally, .. } =
            connect::<D, Infallible>(&layout, eps, metric, 1, 16, |_| Ok(()));
        for &(a, b) in &pairs {
            assert!(
                metric.within(&points[a], &points[b], eps),
                "{label}: ({a},{b}) not within ε"
            );
        }
        let mut dedup = pairs.clone();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            pairs.len(),
            "{label}: a pair was emitted twice"
        );
        assert_eq!(
            groups_of(points.len(), &pairs),
            brute_groups(points, eps, metric),
            "{label}"
        );
        // Every emitted pair was a candidate.
        assert!(tally.candidate_pairs >= pairs.len() as u64, "{label}");
        // The sequential driver emits exactly the one-shard pairs.
        let mut driven = Vec::new();
        let Ok(()) = layout.try_connect(
            eps,
            metric,
            |a, b| driven.push((a.min(b), a.max(b))),
            16,
            || Ok::<(), Infallible>(()),
        );
        driven.sort_unstable();
        assert_eq!(driven, pairs, "{label}: try_connect");
        for shards in [2usize, 3, 7] {
            let sharded = connect::<D, Infallible>(&layout, eps, metric, shards, 16, |_| Ok(()));
            assert_eq!(sharded.pairs, pairs, "{label} shards={shards}");
            assert_eq!(sharded.tally, tally, "{label} shards={shards}");
        }
        tally
    }

    /// Pseudo-random points clustered around a few centres, for fixtures
    /// with dense, internally connected cells.
    fn hotspots(n: usize, centres: usize, spread: f64, seed: u64) -> Vec<Point<2>> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let centre: Vec<(f64, f64)> = (0..centres)
            .map(|_| (next() * 10.0, next() * 10.0))
            .collect();
        (0..n)
            .map(|i| {
                let (cx, cy) = centre[i % centres];
                pt(cx + (next() - 0.5) * spread, cy + (next() - 0.5) * spread)
            })
            .collect()
    }

    /// The dense hotspot fixture shifted to straddle zero, so its cell
    /// keys run from negative to positive.
    fn straddling_hotspots() -> Vec<Point<2>> {
        hotspots(900, 7, 1.5, 0xC0FFEE)
            .into_iter()
            .map(|p| pt(p.coord(0) - 5.0, p.coord(1) - 5.0))
            .collect()
    }

    /// Four small clusters ~10¹⁰ cells of side 10⁻³ apart per dimension:
    /// the occupied key box holds ~10²⁰ cells, more than a `u64` numbers,
    /// with no saturated key, so the layout sorts them by comparison. The
    /// clusters occupy more cells than the offset window at ε = cell and
    /// at ε = 3 × cell, so at both ε the join finds neighbours by its cursors.
    fn wide_key_box() -> Vec<Point<2>> {
        let jitter = hotspots(400, 1, 1.0, 0x51DE);
        [(-5e6, -5e6), (5e6, 5e6), (0.0, 0.0), (-5e6, 5e6)]
            .iter()
            .cycle()
            .zip(jitter)
            .map(|(&(x, y), p)| pt(x + p.coord(0) * 8e-3, y + p.coord(1) * 8e-3))
            .collect()
    }

    #[test]
    fn connectivity_join_matches_brute_force_components_on_the_fixture_matrix() {
        let points: Vec<Point<2>> = lattice(400).into_iter().map(|(p, _)| p).collect();
        let dense = hotspots(900, 7, 1.5, 0xC0FFEE);
        let straddling = straddling_hotspots();
        let wide = wide_key_box();
        for metric in Metric::ALL {
            for (cell, eps) in [(1.0, 1.0), (2.5, 2.5), (1.0, 3.0), (0.7, 0.0)] {
                check_connectivity(&points, cell, eps, metric);
                check_connectivity(&dense, cell, eps, metric);
                check_connectivity(&straddling, cell, eps, metric);
            }
            // The wide key box at ε = cell and at ε = 3 × cell, the window
            // the cache's ε-superset reuse widens to.
            check_connectivity(&wide, 1e-3, 1e-3, metric);
            check_connectivity(&wide, 1e-3, 3e-3, metric);
            // ε ≫ cell: the occupied-pair regime.
            check_connectivity(&dense[..60], 1e-6, 1e3, metric);
            // Cell (0,0) is connected, cell (1,0) is not (under L1 and L2),
            // and each of its points has its own hit in (0,0): one hit per
            // row, not one per cell pair.
            let one_hit_per_row = [pt(0.9, 0.1), pt(0.9, 0.9), pt(1.02, 0.02), pt(1.5, 0.98)];
            check_connectivity(&one_hit_per_row, 1.0, 1.0, metric);
        }
    }

    #[test]
    fn connectivity_join_keeps_boundary_ties_duplicates_and_saturated_keys() {
        // Distances that tie with ε up to rounding (the probe's
        // boundary-tie fixture).
        let ties: Vec<Point<2>> = (0..60)
            .map(|k| pt((880.0 + k as f64 * 11.17) / 11000.0, 0.0))
            .collect();
        // ε = 0: only exact duplicates connect.
        let dups = vec![
            pt(1.0, 1.0),
            pt(2.0, 2.0),
            pt(1.0, 1.0),
            pt(1.0, 1.0000001),
            pt(2.0, 2.0),
        ];
        // Keys at the i64 saturation boundary: the occupied-pair regime.
        let saturated = vec![
            pt(1e300, 0.0),
            pt(1e300, 0.0),
            pt(-1e300, 0.0),
            pt(0.25, 0.0),
            pt(0.2501, 0.0),
        ];
        for metric in Metric::ALL {
            check_connectivity(&ties, Grid::<2, usize>::side_for_eps(0.08), 0.08, metric);
            check_connectivity(&dups, Grid::<2, usize>::side_for_eps(0.0), 0.0, metric);
            check_connectivity(&saturated, 1e-3, 0.01, metric);
        }
        let layout = SortedCells::from_points(1.0, &dups);
        let pairs = connect::<2, Infallible>(&layout, 0.0, Metric::L2, 1, 16, |_| Ok(())).pairs;
        assert_eq!(
            groups_of(dups.len(), &pairs),
            vec![vec![0, 2], vec![1, 4], vec![3]]
        );
    }

    #[test]
    fn connectivity_join_runs_on_three_dimensional_points() {
        let points: Vec<Point<3>> = (0..300)
            .map(|i| {
                let f = i as f64;
                Point::new([(f * 0.37) % 4.0, (f * 0.71) % 3.0, (f * 0.13) % 2.0])
            })
            .collect();
        for metric in Metric::ALL {
            for (cell, eps) in [(0.3, 0.3), (0.1, 0.3)] {
                check_connectivity(&points, cell, eps, metric);
            }
        }
    }

    #[test]
    fn connectivity_join_tally_shows_the_clique_first_hit_and_box_prune_branches() {
        // Cells (0,0) and (1,0) each hold a tight cluster of ten points
        // (cliques), 0.86 apart; cell (2,0) holds one point 1.75 beyond
        // the second cluster — inside the offset window of both, but
        // pruned by the bounding boxes.
        let mut points: Vec<Point<2>> = (0..10)
            .map(|i| pt(0.1 + 0.01 * i as f64, 0.1 + 0.005 * i as f64))
            .collect();
        points.extend((0..10).map(|i| pt(1.05 + 0.01 * i as f64, 0.1 + 0.005 * i as f64)));
        points.push(pt(2.95, 0.15));
        for metric in Metric::ALL {
            let tally = check_connectivity(&points, 1.0, 1.0, metric);
            // Two stars of 9 edges each (not 45 comparisons each), one
            // comparison between the connected cells (not 100), and no job
            // for the pruned pairs (nor the lone point's own cell).
            assert_eq!(
                tally,
                JoinTally {
                    candidate_pairs: 9 + 9 + 1,
                    cells_visited: 3,
                },
                "{metric}"
            );
        }
    }

    #[test]
    fn connectivity_join_stops_at_a_pace_error_and_never_starts_phase_two() {
        // Cells of ~20 points that are not cliques, so the `Cells` pass
        // compares points and paces.
        let layout = SortedCells::from_points(1.0, &hotspots(2000, 1, 10.0, 0x5EED));
        let all = connect::<2, Infallible>(&layout, 1.0, Metric::L2, 1, 8, |_| Ok(())).pairs;
        for shards in [1usize, 3] {
            // `pace` fails on its 5th call, inside the `Cells` pass.
            let mut paced = 0;
            let early = connect(&layout, 1.0, Metric::L2, shards, 8, |pass| {
                assert_eq!(pass, JoinPass::Cells);
                paced += 1;
                if paced == 5 {
                    Err("stop")
                } else {
                    Ok(())
                }
            });
            assert_eq!(early.result, Err("stop"));
            assert_eq!(paced, 5, "no pacing after the error");
            assert_eq!(early.neighbour_calls, 0, "phase 2 never starts");
            let seen = early.pairs.len();
            assert!(
                seen >= 1 && seen < all.len() / 2,
                "stopped early, saw {seen}"
            );
            // A failure in the `Neighbours` pass stops that pass early too.
            let mut neighbour_paces = 0;
            let late = connect(&layout, 1.0, Metric::L2, shards, 8, |pass| {
                neighbour_paces += usize::from(pass == JoinPass::Neighbours);
                if neighbour_paces == 3 {
                    Err("late")
                } else {
                    Ok(())
                }
            });
            assert_eq!(late.result, Err("late"));
            assert_eq!(neighbour_paces, 3, "no pacing after the error");
            assert!(late.pairs.len() < all.len(), "stopped before the end");
        }
    }
}
