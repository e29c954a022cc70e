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
//! hash map, so only occupied cells cost memory and the domain never needs
//! bounds. Three query shapes are provided:
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
//! * [`Grid::connectivity_join`] — the bulk ε-join behind one-shot
//!   SGB-Any. It emits a spanning subset of the within-ε pairs with
//!   exactly the ε-graph's connected components, skipping the pairs
//!   between two cells already known to be connected.
//! * [`Grid::try_for_each_pair_within`] — the exact bulk ε-join: every
//!   within-ε pair exactly once, for incremental SGB-Any maintenance,
//!   whose per-component edge counts need every pair.
//!
//! Both bulk joins share one cell-pair enumeration, one row loop and one
//! pacing and tally scheme, over a structure-of-arrays mirror of the
//! cells. They are sharded, paced and optionally tallied.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};

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

/// Execution tally of a bulk ε-join, filled in by
/// [`Grid::try_for_each_pair_within`] and [`ConnectivityJoin::try_join`]
/// when they are given one. Purely observational: the tally never changes
/// which pairs a join visits or emits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinTally {
    /// Candidate pairs: every pair whose [`Metric::within`] test ran,
    /// plus one per star edge the connectivity join emits for a cell
    /// whose bounding box passed the test as a whole. So every emitted
    /// pair was a candidate.
    pub candidate_pairs: u64,
    /// Cell jobs whose points were compared: the intra-cell job of a cell
    /// with at least two entries, and each neighbour-cell job that passed
    /// the bounding-box prune. Pruned cell pairs do not count.
    pub cells_visited: u64,
}

impl JoinTally {
    /// Folds another tally into this one (for merging per-shard tallies).
    pub fn merge(&mut self, other: &JoinTally) {
        self.candidate_pairs += other.candidate_pairs;
        self.cells_visited += other.cells_visited;
    }
}

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
/// grid.for_each_within(&Point::new([0.0, 0.0]), 1.0, Metric::L2, |p, &id| {
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

    /// The configured cell side length.
    #[inline]
    pub fn cell_side(&self) -> f64 {
        self.cell
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
        let mut key = [0i64; D];
        for (d, k) in key.iter_mut().enumerate() {
            *k = (p.coord(d) / self.cell).floor() as i64;
        }
        key
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
        _metric: Metric,
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
            let l = (((c - eps) / self.cell).floor() as i64)
                .saturating_sub(1)
                .max(self.lo[d]);
            let h = (((c + eps) / self.cell).floor() as i64)
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

    /// The exact bulk ε-join: invokes `visit` once for every unordered
    /// pair of entries within `eps` by the canonical [`Metric::within`].
    /// One-shot SGB-Any needs only the components of these pairs and runs
    /// the cheaper [`connectivity_join`](Self::connectivity_join) instead.
    ///
    /// * **Cell pairs.** The join pays one hash lookup per neighbour cell:
    ///   each unordered cell pair is joined once via
    ///   lexicographically-positive offsets. Offsets whose minimum
    ///   inter-cell distance under `metric` exceeds ε are pruned up front,
    ///   and so are cell pairs whose bounding boxes are too far apart for
    ///   any pair of theirs to pass (an exact test).
    /// * **Any ε.** Above the cell side the window widens to
    ///   `ceil(eps / cell) + 1` rings, so one grid serves every larger ε′
    ///   bit-identically (the shared-work cache's ε-superset reuse).
    /// * **Verification** runs over a structure-of-arrays mirror of the
    ///   cells, so the distance loops read contiguous columns; the
    ///   accepted set equals filtering every candidate through
    ///   `Metric::within`.
    /// * **Sharding.** Only pairs owned by shard `shard` of `shards` are
    ///   visited (by hashed cell key; a cross-cell pair belongs to the cell
    ///   its offset is lexicographically positive from). Every pair has one
    ///   owner, so workers run one shard each over a shared `&Grid` and
    ///   merge without deduplication; `0`/`1` visits every pair.
    /// * **Pacing.** `visit` is infallible; `pace` runs at cell-row
    ///   boundaries, at least once every `interval` candidates, and its
    ///   first error stops the join.
    /// * **Tally.** With `Some(tally)` the join also counts candidate
    ///   comparisons and cell jobs (see [`JoinTally`]; partial counts on
    ///   `Err`).
    ///
    /// # Errors
    /// The first error `pace` reports.
    ///
    /// # Panics
    /// When `shards` is zero or `shard >= shards`.
    #[allow(clippy::too_many_arguments)]
    pub fn try_for_each_pair_within<E, F, P>(
        &self,
        eps: f64,
        metric: Metric,
        shard: usize,
        shards: usize,
        mut visit: F,
        interval: usize,
        pace: P,
        tally: Option<&mut JoinTally>,
    ) -> Result<(), E>
    where
        F: FnMut(&T, &T),
        P: FnMut() -> Result<(), E>,
    {
        assert!(shards >= 1 && shard < shards, "shard out of range");
        let soa = SoaCells::build(self, eps, metric);
        let mut pacing = Pacing::new(interval, pace, tally);
        let mut job = |rows: usize, cols: usize| {
            let (row_entries, col_entries) = (soa.cells[rows].entries, soa.cells[cols].entries);
            soa.join_rows(rows, cols, &mut pacing, |r, c| {
                visit(&row_entries[r].1, &col_entries[c].1);
                AfterHit::Continue
            })
        };
        for slot in soa.owned(shard, shards) {
            job(slot, slot)?;
        }
        soa.for_each_neighbour_pair(shard, shards, job)
    }

    /// Prepares the connectivity ε-join of this grid at `eps` under
    /// `metric` (see [`ConnectivityJoin`]): builds the structure-of-arrays
    /// mirror of the cells that every shard of both passes shares.
    pub fn connectivity_join(&self, eps: f64, metric: Metric) -> ConnectivityJoin<'_, D, T> {
        let soa = SoaCells::build(self, eps, metric);
        let connected = soa.cells.iter().map(|_| AtomicBool::new(false)).collect();
        ConnectivityJoin { soa, connected }
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

/// The shard owning `key` under a `shards`-way partition of the cell
/// space, derived from the same multiplicative hash the cell map uses.
fn shard_of<const D: usize>(key: &CellKey<D>, shards: usize) -> usize {
    use std::hash::Hash;
    let mut h = CellHasher::default();
    key.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// The connectivity ε-join behind one-shot SGB-Any, prepared by
/// [`Grid::connectivity_join`]. It emits a spanning subset of the within-ε
/// pairs: every emitted pair passes [`Metric::within`], and the emitted
/// pairs have exactly the connected components of all within-ε pairs.
/// Once two cells are known to be connected, no further pair between them
/// can change those components, so the join does not look for one.
///
/// The join runs in two passes over one structure-of-arrays mirror of the
/// cells, shared by every worker:
///
/// 1. [`JoinPass::Cells`] handles each owned cell alone. When the cell's
///    bounding-box diagonal passes the metric's accumulation against ε,
///    every pair in it passes too: the cell emits a star of `m − 1` pairs.
///    Otherwise its rows are scanned with a union-find over the cell's own
///    entries. The scan emits only the pairs that join two parts, and stops
///    once the cell is one part. The pass records whether the cell's own
///    pairs connect it.
/// 2. [`JoinPass::Neighbours`] handles each owned pair of neighbouring
///    cells, enumerated as in [`Grid::try_for_each_pair_within`] with its
///    exact bounding-box prune. When both cells are connected it stops at
///    the first hit. When one is, it finds one hit for each entry of the
///    other. When neither is, it emits every hit.
///
/// Run the `Cells` pass on every shard, then the `Neighbours` pass, and
/// only once every `Cells` call returned `Ok`: the second pass reads the
/// connectivity the first one recorded for every cell. Sharding, pacing
/// and the tally work as in [`Grid::try_for_each_pair_within`]. Every
/// decision depends only on the cells involved, so neither the emitted
/// pairs nor the summed tallies depend on the shard count.
///
/// The box tests are exact, with no slack: floating-point subtraction,
/// `abs`, multiplication, addition and `max` are monotone, and the tests
/// use the kernels' own operation order (and `eps * eps` for L2).
pub struct ConnectivityJoin<'g, const D: usize, T> {
    soa: SoaCells<'g, D, T>,
    /// Per mirror slot: whether the cell's own `Cells`-pass pairs connect
    /// it. Each flag is written by the shard owning the cell and read only
    /// in the `Neighbours` pass, which starts after every `Cells` worker
    /// has been joined; that join orders the stores before the loads, so
    /// `Relaxed` suffices.
    connected: Vec<AtomicBool>,
}

/// The pass a [`ConnectivityJoin::try_join`] call runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinPass {
    /// Phase 1: each owned cell alone.
    Cells,
    /// Phase 2: each owned pair of neighbouring cells.
    Neighbours,
}

impl<const D: usize, T> ConnectivityJoin<'_, D, T> {
    /// Runs `pass` for shard `shard` of `shards`, calling `visit` for every
    /// emitted pair. Pacing and the tally work as in
    /// [`Grid::try_for_each_pair_within`].
    ///
    /// # Errors
    /// The first error `pace` reports. After an error in the `Cells` pass
    /// the join is incomplete: do not run the `Neighbours` pass.
    ///
    /// # Panics
    /// When `shards` is zero or `shard >= shards`.
    #[allow(clippy::too_many_arguments)]
    pub fn try_join<E, F, P>(
        &self,
        pass: JoinPass,
        shard: usize,
        shards: usize,
        mut visit: F,
        interval: usize,
        pace: P,
        tally: Option<&mut JoinTally>,
    ) -> Result<(), E>
    where
        F: FnMut(&T, &T),
        P: FnMut() -> Result<(), E>,
    {
        assert!(shards >= 1 && shard < shards, "shard out of range");
        let mut pacing = Pacing::new(interval, pace, tally);
        match pass {
            JoinPass::Cells => {
                let mut parts = CellForest::default();
                for slot in self.soa.owned(shard, shards) {
                    let connected = self.join_cell(slot, &mut parts, &mut visit, &mut pacing)?;
                    self.connected[slot].store(connected, Ordering::Relaxed);
                }
                Ok(())
            }
            JoinPass::Neighbours => self.soa.for_each_neighbour_pair(shard, shards, |a, b| {
                self.join_neighbours(a, b, &mut visit, &mut pacing)
            }),
        }
    }

    /// Phase 1 for the cell in `slot`: emits its own spanning pairs and
    /// returns whether they connect it. `parts` is scratch space.
    fn join_cell<E, F, P>(
        &self,
        slot: usize,
        parts: &mut CellForest,
        visit: &mut F,
        pacing: &mut Pacing<'_, P>,
    ) -> Result<bool, E>
    where
        F: FnMut(&T, &T),
        P: FnMut() -> Result<(), E>,
    {
        let cell = &self.soa.cells[slot];
        let entries = cell.entries;
        if entries.len() < 2 {
            return Ok(true);
        }
        if self.soa.within(|d| cell.hi[d] - cell.lo[d]) {
            // Every pair is within ε: a star spans the cell. Each edge
            // counts as one candidate, so every emitted pair was one.
            pacing.job();
            let (_, hub) = &entries[0];
            for (_, t) in &entries[1..] {
                visit(hub, t);
            }
            pacing.charge(entries.len() - 1)?;
            return Ok(true);
        }
        parts.reset(entries.len());
        self.soa.join_rows(slot, slot, pacing, |r, c| {
            if parts.union(r, c) {
                visit(&entries[r].1, &entries[c].1);
            }
            if parts.count == 1 {
                AfterHit::StopJob
            } else {
                AfterHit::Continue
            }
        })?;
        Ok(parts.count == 1)
    }

    /// Phase 2 for the neighbouring cells in slots `a` (the owner) and `b`.
    fn join_neighbours<E, F, P>(
        &self,
        a: usize,
        b: usize,
        visit: &mut F,
        pacing: &mut Pacing<'_, P>,
    ) -> Result<(), E>
    where
        F: FnMut(&T, &T),
        P: FnMut() -> Result<(), E>,
    {
        let connected_a = self.connected[a].load(Ordering::Relaxed);
        let connected_b = self.connected[b].load(Ordering::Relaxed);
        // One hit per row suffices when the scanned cell is connected, so
        // the rows come from the other cell.
        let (rows, cols) = if connected_a && !connected_b {
            (b, a)
        } else {
            (a, b)
        };
        let after = match (connected_a, connected_b) {
            (true, true) => AfterHit::StopJob,
            (false, false) => AfterHit::Continue,
            _ => AfterHit::NextRow,
        };
        let (row_entries, col_entries) =
            (self.soa.cells[rows].entries, self.soa.cells[cols].entries);
        self.soa.join_rows(rows, cols, pacing, |r, c| {
            visit(&row_entries[r].1, &col_entries[c].1);
            after
        })
    }
}

/// A union-find over the entries of one cell, for the `Cells` pass; its
/// buffer is reused from cell to cell.
#[derive(Default)]
struct CellForest {
    parent: Vec<usize>,
    /// Number of parts.
    count: usize,
}

impl CellForest {
    /// Makes `len` singleton parts.
    fn reset(&mut self, len: usize) {
        self.parent.clear();
        self.parent.extend(0..len);
        self.count = len;
    }

    fn root(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            // Path halving.
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    /// Joins the parts of `a` and `b`; `true` when they were apart.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.root(a), self.root(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        self.count -= 1;
        true
    }
}

/// The pace and tally bookkeeping of one join call: `pace` runs at row
/// boundaries once `interval` candidates have accumulated since its last
/// call, and its first error stops the join.
struct Pacing<'t, P> {
    interval: usize,
    /// Candidates until the next `pace` call; a row longer than the
    /// remaining budget saturates it to zero.
    budget: usize,
    pace: P,
    tally: Option<&'t mut JoinTally>,
}

impl<'t, P> Pacing<'t, P> {
    fn new(interval: usize, pace: P, tally: Option<&'t mut JoinTally>) -> Self {
        let interval = interval.max(1);
        Self {
            interval,
            budget: interval,
            pace,
            tally,
        }
    }

    /// Counts one cell job whose points are compared.
    #[inline]
    fn job(&mut self) {
        if let Some(t) = self.tally.as_deref_mut() {
            t.cells_visited += 1;
        }
    }

    /// Charges one row of `candidates`, calling `pace` once the budget is
    /// spent.
    #[inline]
    fn charge<E>(&mut self, candidates: usize) -> Result<(), E>
    where
        P: FnMut() -> Result<(), E>,
    {
        if let Some(t) = self.tally.as_deref_mut() {
            t.candidate_pairs += candidates as u64;
        }
        self.budget = self.budget.saturating_sub(candidates);
        if self.budget == 0 {
            self.budget = self.interval;
            (self.pace)()?;
        }
        Ok(())
    }
}

/// What the row loop does after a hit.
#[derive(Clone, Copy)]
enum AfterHit {
    /// Go on scanning the row.
    Continue,
    /// Go on with the next row.
    NextRow,
    /// End the cell job.
    StopJob,
}

/// One occupied cell of a [`SoaCells`] mirror.
struct SoaCell<'g, const D: usize, T> {
    key: CellKey<D>,
    entries: &'g [(Point<D>, T)],
    /// Start of the cell's column block in the arena: dimension `d` of a
    /// cell with `len` entries occupies `arena[start + d·len .. start +
    /// (d + 1)·len]`.
    start: usize,
    /// Per-dimension bounds of the cell's coordinates.
    lo: [f64; D],
    hi: [f64; D],
}

/// Structure-of-arrays mirror of a grid's occupied cells for one bulk
/// ε-join at a fixed ε and metric: every cell's coordinates are
/// transposed into column-major blocks of one flat arena, so the per-pair
/// distance loops stream contiguous `f64` columns instead of striding over
/// `(Point, T)` tuples. It also holds each cell's bounding box, and maps
/// cell keys to mirror slots for the neighbour lookups.
struct SoaCells<'g, const D: usize, T> {
    grid: &'g Grid<D, T>,
    eps: f64,
    metric: Metric,
    cells: Vec<SoaCell<'g, D, T>>,
    arena: Vec<f64>,
    slots: HashMap<CellKey<D>, usize, BuildHasherDefault<CellHasher>>,
}

impl<'g, const D: usize, T> SoaCells<'g, D, T> {
    fn build(grid: &'g Grid<D, T>, eps: f64, metric: Metric) -> Self {
        let mut cells = Vec::with_capacity(grid.cells.len());
        let mut arena = Vec::with_capacity(grid.len * D);
        let mut slots =
            HashMap::with_capacity_and_hasher(grid.cells.len(), BuildHasherDefault::default());
        for (key, entries) in &grid.cells {
            let start = arena.len();
            let mut lo = [f64::INFINITY; D];
            let mut hi = [f64::NEG_INFINITY; D];
            for d in 0..D {
                for (p, _) in entries {
                    let x = p.coord(d);
                    lo[d] = lo[d].min(x);
                    hi[d] = hi[d].max(x);
                    arena.push(x);
                }
            }
            slots.insert(*key, cells.len());
            cells.push(SoaCell {
                key: *key,
                entries,
                start,
                lo,
                hi,
            });
        }
        SoaCells {
            grid,
            eps,
            metric,
            cells,
            arena,
            slots,
        }
    }

    /// The slots of the cells shard `shard` of `shards` owns.
    fn owned(&self, shard: usize, shards: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.cells.len()).filter(move |&slot| self.owns(slot, shard, shards))
    }

    fn owns(&self, slot: usize, shard: usize, shards: usize) -> bool {
        shards == 1 || shard_of(&self.cells[slot].key, shards) == shard
    }

    /// Whether per-dimension coordinate differences `diff(d)` pass the
    /// metric's accumulation against ε, in the operations and order of
    /// [`scan`](Self::scan). Each operation is monotone, so differences
    /// that bound those of every pair of two cells from below (the gaps
    /// between their boxes) or of every pair within one cell from above
    /// (its box diagonal) decide for all those pairs at once, exactly.
    #[inline]
    fn within(&self, diff: impl Fn(usize) -> f64) -> bool {
        match self.metric {
            Metric::L1 => {
                let mut acc = 0.0;
                for d in 0..D {
                    acc += diff(d).abs();
                }
                acc <= self.eps
            }
            Metric::L2 => {
                let mut acc = 0.0;
                for d in 0..D {
                    let x = diff(d);
                    acc += x * x;
                }
                acc <= self.eps * self.eps
            }
            Metric::LInf => {
                let mut acc = 0.0f64;
                for d in 0..D {
                    acc = acc.max(diff(d).abs());
                }
                acc <= self.eps
            }
        }
    }

    /// The neighbour enumeration of the bulk ε-joins: invokes `job(owner,
    /// other)` once for every unordered pair of occupied cells (by mirror
    /// slot) that could hold a within-ε pair, attributed to the cell from
    /// which the offset is lexicographically positive. `shard`/`shards`
    /// restrict ownership to one shard of the hashed-cell-key partition
    /// (`0`/`1` ⇒ everything). The first error `job` returns stops the
    /// enumeration and is returned.
    fn for_each_neighbour_pair<E>(
        &self,
        shard: usize,
        shards: usize,
        mut job: impl FnMut(usize, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let grid = self.grid;
        let metric = self.metric;
        let relaxed = self.eps * (1.0 + 4.0 * f64::EPSILON);
        // One pad cell against quantisation rounding, as in the per-point
        // probe; the prune below gets an absolute slack of `cell · 1e-5`,
        // far above the coordinate rounding of any `|coord|/cell` ratio
        // this engine targets (< 2³²) and far below the one-cell
        // granularity the prune operates at.
        let reach = (((self.eps / grid.cell).ceil() as i64).max(0)).saturating_add(1);
        // Clamp the probe window to the occupied span per dimension: an
        // offset larger than the span can never connect two occupied
        // cells, and without the clamp a degenerate ε ≫ cell ratio makes
        // the window enumeration explode (or saturate `reach` at
        // `i64::MAX`) even over a handful of points.
        let mut lo_off = [0i64; D];
        let mut hi_off = [0i64; D];
        let mut window = 1.0f64;
        for d in 0..D {
            let span = (grid.hi[d] as i128 - grid.lo[d] as i128).min(i64::MAX as i128) as i64;
            let r = reach.min(span);
            lo_off[d] = -r;
            hi_off[d] = r;
            window *= 2.0 * r as f64 + 1.0;
        }
        let slack = grid.cell * 1e-5;
        // Whether two cells `diff` apart (key differences in i128: saturated
        // keys can differ by more than i64::MAX) can hold a within-ε pair:
        // the minimum distance between their points has per-dimension gaps
        // of (|diff| − 1) cells.
        let close = |diff: &[i128; D]| {
            let gaps = diff.map(|c| (c.abs() - 1).max(0) as f64 * grid.cell);
            let min_dist = match metric {
                Metric::L1 => gaps.iter().sum(),
                Metric::L2 => gaps.iter().map(|g| g * g).sum::<f64>().sqrt(),
                Metric::LInf => gaps.iter().fold(0.0f64, |a, &g| a.max(g)),
            };
            min_dist <= relaxed + slack
        };
        // Each unordered cell pair is kept once, owned by the cell from
        // which the offset is strictly positive in its first non-zero
        // component.
        let lex_positive = |diff: &[i128; D]| {
            diff.iter()
                .find(|&&c| c != 0)
                .is_some_and(|&first| first > 0)
        };
        // The exact prune: no pair of two cells can pass when the gaps
        // between their bounding boxes fail.
        let mut admit = |a: usize, b: usize| {
            let (ca, cb) = (&self.cells[a], &self.cells[b]);
            if self.within(|d| (cb.lo[d] - ca.hi[d]).max(ca.lo[d] - cb.hi[d]).max(0.0)) {
                job(a, b)
            } else {
                Ok(())
            }
        };
        if window <= self.cells.len() as f64 {
            // Window enumeration: one offset list, probed from every owned
            // cell (the regular regime — for the ε-sized cells the
            // operators use, the window is 5^D).
            let mut offsets: Vec<CellKey<D>> = Vec::new();
            for_each_key_in_box(&lo_off, &hi_off, |off| {
                let diff = off.map(i128::from);
                if lex_positive(&diff) && close(&diff) {
                    offsets.push(*off);
                }
            });
            for slot in self.owned(shard, shards) {
                let key = self.cells[slot].key;
                'offsets: for off in &offsets {
                    let mut neighbour = key;
                    for d in 0..D {
                        let Some(nk) = key[d].checked_add(off[d]) else {
                            continue 'offsets;
                        };
                        if nk < grid.lo[d] || nk > grid.hi[d] {
                            continue 'offsets;
                        }
                        neighbour[d] = nk;
                    }
                    if let Some(&other) = self.slots.get(&neighbour) {
                        admit(slot, other)?;
                    }
                }
            }
        } else {
            // The window holds more cells than are occupied (ε ≫ cell, or
            // saturated keys): scanning all unordered occupied-cell pairs
            // is cheaper than enumerating the window, and produces the
            // same candidate set (each pair attributed to the same owner).
            for (a, ca) in self.cells.iter().enumerate() {
                for (b, cb) in self.cells.iter().enumerate().skip(a + 1) {
                    let diff: [i128; D] =
                        std::array::from_fn(|d| cb.key[d] as i128 - ca.key[d] as i128);
                    if !close(&diff) {
                        continue;
                    }
                    let (owner, other) = if lex_positive(&diff) { (a, b) } else { (b, a) };
                    if self.owns(owner, shard, shards) {
                        admit(owner, other)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The row loop of every cell job: compares each entry ("row") of cell
    /// `rows`, in order, with the entries of cell `cols` (with the entries
    /// after it when `rows == cols`), and calls `on_hit(row, col)` for
    /// every pair that passes [`Metric::within`]; its answer decides
    /// whether the row, or the whole job, goes on. Each row's comparisons
    /// are charged to `pacing`.
    fn join_rows<E, P>(
        &self,
        rows: usize,
        cols: usize,
        pacing: &mut Pacing<'_, P>,
        mut on_hit: impl FnMut(usize, usize) -> AfterHit,
    ) -> Result<(), E>
    where
        P: FnMut() -> Result<(), E>,
    {
        let intra = rows == cols;
        let row_entries = self.cells[rows].entries;
        if intra && row_entries.len() < 2 {
            return Ok(());
        }
        pacing.job();
        for (r, (p, _)) in row_entries.iter().enumerate() {
            let from = if intra { r + 1 } else { 0 };
            let mut stop = false;
            let compared = self.scan(cols, from, p, |c| match on_hit(r, c) {
                AfterHit::Continue => false,
                AfterHit::NextRow => true,
                AfterHit::StopJob => {
                    stop = true;
                    true
                }
            });
            pacing.charge(compared)?;
            if stop {
                break;
            }
        }
        Ok(())
    }

    /// Compares `q`, in order, with the entries `from..` of the cell in
    /// `slot`, and calls `hit(k)` for every entry that satisfies the
    /// canonical [`Metric::within`] predicate against `q` until `hit`
    /// returns `true`; returns how many entries were compared. The
    /// accumulation order per pair matches the point-wise distance kernels
    /// dimension for dimension, so the accepted set is bit-identical to
    /// calling `metric.within(q, p, eps)` per entry.
    #[inline]
    fn scan(
        &self,
        slot: usize,
        from: usize,
        q: &Point<D>,
        mut hit: impl FnMut(usize) -> bool,
    ) -> usize {
        let cell = &self.cells[slot];
        let len = cell.entries.len();
        let block = &self.arena[cell.start..cell.start + D * len];
        let eps = self.eps;
        match self.metric {
            Metric::L1 => {
                for k in from..len {
                    let mut acc = 0.0;
                    for d in 0..D {
                        acc += (q.coord(d) - block[d * len + k]).abs();
                    }
                    if acc <= eps && hit(k) {
                        return k + 1 - from;
                    }
                }
            }
            Metric::L2 => {
                let eps2 = eps * eps;
                for k in from..len {
                    let mut acc = 0.0;
                    for d in 0..D {
                        let diff = q.coord(d) - block[d * len + k];
                        acc += diff * diff;
                    }
                    if acc <= eps2 && hit(k) {
                        return k + 1 - from;
                    }
                }
            }
            Metric::LInf => {
                for k in from..len {
                    let mut acc = 0.0f64;
                    for d in 0..D {
                        acc = acc.max((q.coord(d) - block[d * len + k]).abs());
                    }
                    if acc <= eps && hit(k) {
                        return k + 1 - from;
                    }
                }
            }
        }
        len - from
    }
}

/// Odometer iteration over the integer box `lo..=hi` (all dimensions).
fn for_each_key_in_box<const D: usize, F: FnMut(&CellKey<D>)>(
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
    use std::convert::Infallible;

    use super::*;

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
        grid.for_each_within(&pt(0.0, 0.0), 10.0, Metric::L2, |_, _| visited += 1);
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
                grid.for_each_within(&q, eps, metric, |p, &i| {
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

    /// The pairs of shard `shard` of `shards` the exact join accepts, as
    /// sorted payload pairs (unpaced, untallied).
    fn join_pairs(
        grid: &Grid<2, usize>,
        eps: f64,
        metric: Metric,
        shard: usize,
        shards: usize,
    ) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let Ok(()) = grid.try_for_each_pair_within::<Infallible, _, _>(
            eps,
            metric,
            shard,
            shards,
            |&a, &b| pairs.push((a.min(b), a.max(b))),
            usize::MAX,
            || Ok(()),
            None,
        );
        pairs.sort_unstable();
        pairs
    }

    /// The independent oracle: every unordered pair of `points` within
    /// ε by a brute-force [`Metric::within`] filter, as sorted payload
    /// pairs.
    fn brute_pairs(points: &[(Point<2>, usize)], eps: f64, metric: Metric) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (i, (pa, a)) in points.iter().enumerate() {
            for (pb, b) in &points[i + 1..] {
                if metric.within(pa, pb, eps) {
                    pairs.push((*a.min(b), *a.max(b)));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn tallied_join_counts_candidates_without_changing_pairs() {
        let grid: Grid<2, usize> = Grid::from_points(1.0, lattice(400));
        let plain = join_pairs(&grid, 1.0, Metric::L2, 0, 1);
        let mut tallied: Vec<(usize, usize)> = Vec::new();
        let mut tally = JoinTally::default();
        let Ok(()) = grid.try_for_each_pair_within::<Infallible, _, _>(
            1.0,
            Metric::L2,
            0,
            1,
            |&a, &b| tallied.push((a.min(b), a.max(b))),
            64,
            || Ok(()),
            Some(&mut tally),
        );
        tallied.sort_unstable();
        assert_eq!(plain, tallied, "tally must not change the pair set");
        // Every accepted pair was a candidate first, and the join visited
        // at least one cell job per occupied cell.
        assert!(tally.candidate_pairs >= plain.len() as u64);
        assert!(tally.cells_visited >= 400);
        // Sharded tallies over a partition sum to the unsharded tally.
        let mut merged = JoinTally::default();
        for shard in 0..4 {
            let mut part = JoinTally::default();
            let Ok(()) = grid.try_for_each_pair_within::<Infallible, _, _>(
                1.0,
                Metric::L2,
                shard,
                4,
                |_, _| {},
                64,
                || Ok(()),
                Some(&mut part),
            );
            merged.merge(&part);
        }
        assert_eq!(merged, tally);
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
                grid.for_each_within(q, eps, metric, |_, &i| visited[i] = true);
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
        grid.for_each_within(&pt(1.0, 1.0), 0.0, Metric::L2, |p, &id| {
            if Metric::L2.within(p, &pt(1.0, 1.0), 0.0) {
                hits.push(id);
            }
        });
        hits.sort_unstable();
        assert_eq!(hits, vec!['a', 'b']);
    }

    #[test]
    fn close_pair_join_covers_every_predicate_pair_exactly_once() {
        let points = lattice(400);
        for metric in Metric::ALL {
            for (cell, eps) in [(1.0, 1.0), (2.5, 2.5), (1.0, 3.0), (0.7, 0.0)] {
                let grid: Grid<2, usize> = Grid::from_points(cell, points.clone());
                // seen[(i, j)] with i < j → number of times the pair
                // surfaced (must be exactly once).
                let mut seen = std::collections::HashMap::new();
                let Ok(()) = grid.try_for_each_pair_within::<Infallible, _, _>(
                    eps,
                    metric,
                    0,
                    1,
                    |&a, &b| *seen.entry((a.min(b), a.max(b))).or_insert(0usize) += 1,
                    usize::MAX,
                    || Ok(()),
                    None,
                );
                for (&(a, b), &count) in &seen {
                    assert_eq!(count, 1, "{metric} cell={cell} eps={eps} pair ({a},{b})");
                }
                let mut got: Vec<(usize, usize)> = seen.into_keys().collect();
                got.sort_unstable();
                assert_eq!(
                    got,
                    brute_pairs(&points, eps, metric),
                    "{metric} cell={cell} eps={eps}"
                );
            }
        }
    }

    #[test]
    fn sharded_close_pair_join_partitions_the_pair_set() {
        // Every pair must surface in exactly one shard, and the union over
        // shards must equal the unsharded join — the invariant the
        // parallel SGB-Any engine is built on.
        let points = lattice(300);
        let grid: Grid<2, usize> = Grid::from_points(1.0, points.clone());
        for metric in Metric::ALL {
            let whole = join_pairs(&grid, 2.0, metric, 0, 1);
            assert_eq!(whole, brute_pairs(&points, 2.0, metric), "{metric}");
            for shards in [1usize, 2, 3, 7] {
                let mut union = Vec::new();
                for shard in 0..shards {
                    union.extend(join_pairs(&grid, 2.0, metric, shard, shards));
                }
                union.sort_unstable();
                assert_eq!(union, whole, "{metric} shards={shards}");
            }
        }
    }

    #[test]
    fn pair_within_matches_verified_close_pairs_sharded_and_not() {
        // The SoA exact join must accept exactly the pairs the brute-force
        // canonical predicate accepts, sharded or not.
        let points = lattice(350);
        for metric in Metric::ALL {
            for (cell, eps) in [(1.0, 1.0), (2.5, 2.5), (1.0, 3.0), (0.7, 0.0)] {
                let grid: Grid<2, usize> = Grid::from_points(cell, points.clone());
                let expected = brute_pairs(&points, eps, metric);
                assert_eq!(
                    join_pairs(&grid, eps, metric, 0, 1),
                    expected,
                    "{metric} cell={cell} eps={eps}"
                );
                for shards in [2usize, 5] {
                    let mut union = Vec::new();
                    for shard in 0..shards {
                        union.extend(join_pairs(&grid, eps, metric, shard, shards));
                    }
                    union.sort_unstable();
                    assert_eq!(union, expected, "{metric} cell={cell} eps={eps} x{shards}");
                }
            }
        }
    }

    #[test]
    fn try_joins_propagate_the_error_and_stop_early() {
        let grid: Grid<2, usize> = Grid::from_points(1.0, lattice(300));
        let total = join_pairs(&grid, 2.0, Metric::L2, 0, 1).len();
        assert!(total > 100);
        // `pace` fails on its 5th call: the join returns that error and
        // stops at the cell row where it fired, so the overshoot is
        // bounded by one row, not the whole join.
        let (mut seen, mut paced) = (0usize, 0usize);
        let got = grid.try_for_each_pair_within(
            2.0,
            Metric::L2,
            0,
            1,
            |_, _| seen += 1,
            8,
            || {
                paced += 1;
                if paced == 5 {
                    Err("stop")
                } else {
                    Ok(())
                }
            },
            None,
        );
        assert_eq!(got, Err("stop"));
        assert_eq!(paced, 5, "no pacing after the error");
        assert!(seen >= 1 && seen < total / 2, "stopped early, saw {seen}");
        // An always-Ok `pace` at any interval leaves the pair set intact.
        for interval in [1, 8, 1024] {
            let mut pairs = Vec::new();
            let Ok(()) = grid.try_for_each_pair_within::<Infallible, _, _>(
                2.0,
                Metric::L2,
                0,
                1,
                |&a, &b| pairs.push((a.min(b), a.max(b))),
                interval,
                || Ok(()),
                None,
            );
            pairs.sort_unstable();
            assert_eq!(
                pairs,
                join_pairs(&grid, 2.0, Metric::L2, 0, 1),
                "{interval}"
            );
        }
    }

    #[test]
    fn close_pair_join_eps_zero_still_pairs_exact_duplicates() {
        // Degenerate ε = 0: the probe window must not collapse below the
        // cell pair's own cell — coordinate-identical points (and only
        // those) must still surface.
        let points = vec![(pt(1.0, 1.0), 0), (pt(1.0, 1.0), 1), (pt(2.0, 2.0), 2)];
        let grid: Grid<2, usize> = Grid::from_points(1.0, points.clone());
        for metric in Metric::ALL {
            let pairs = join_pairs(&grid, 0.0, metric, 0, 1);
            assert_eq!(pairs, vec![(0, 1)], "{metric}");
            assert_eq!(pairs, brute_pairs(&points, 0.0, metric), "{metric}");
        }
    }

    #[test]
    fn close_pair_join_eps_much_larger_than_cell_is_bounded_and_complete() {
        // ε/cell = 10⁹: before the occupied-span clamp and the
        // occupied-pair fallback this enumerated a ~(2·10⁹)² offset
        // window (an effective hang); it must instead terminate promptly
        // and still find every pair.
        let points: Vec<(Point<2>, usize)> = (0..40)
            .map(|i| (pt((i % 8) as f64 * 0.1, (i / 8) as f64 * 0.1), i))
            .collect();
        let grid: Grid<2, usize> = Grid::from_points(1e-6, points.clone());
        for metric in Metric::ALL {
            let pairs = join_pairs(&grid, 1e3, metric, 0, 1);
            // Every one of the 40·39/2 pairs is within ε = 1000.
            assert_eq!(pairs.len(), 40 * 39 / 2, "{metric}");
            assert_eq!(pairs, brute_pairs(&points, 1e3, metric), "{metric}");
        }
    }

    #[test]
    fn close_pair_join_survives_saturated_cell_keys() {
        // Coordinates near the i64 cell-key saturation boundary: the join
        // must terminate, not overflow, and keep every verified pair.
        let points = vec![
            (pt(1e300, 0.0), 0),
            (pt(1e300, 0.0), 1), // same saturated cell, distance 0
            (pt(-1e300, 0.0), 2),
            (pt(0.25, 0.0), 3),
            (pt(0.2501, 0.0), 4),
        ];
        let grid: Grid<2, usize> = Grid::from_points(1e-3, points.clone());
        let pairs = join_pairs(&grid, 0.01, Metric::L2, 0, 1);
        assert_eq!(pairs, vec![(0, 1), (3, 4)]);
        assert_eq!(pairs, brute_pairs(&points, 0.01, Metric::L2));
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
                g.for_each_within(&q, 2.0, metric, |_, &i| out.push(i));
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
            grid.for_each_within(&q, 1.0, metric, |p, &i| {
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
        grid.for_each_within(&pt(0.0, 0.0), 1e19, Metric::L2, |p, &i| {
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
                g.for_each_within(&pt(0.5, 0.5), 6.0, metric, |_, &i| out.push(i));
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
        let mut hits = Vec::new();
        grid.for_each_within(&pt(0.0, 0.0), 1.0, Metric::L1, |_, &c| hits.push(c));
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

    /// Runs the connectivity join in the SGB-Any kernel's order: the
    /// `Cells` pass on every shard, then the `Neighbours` pass, stopping
    /// at the first error.
    fn connect<const D: usize, E>(
        grid: &Grid<D, usize>,
        eps: f64,
        metric: Metric,
        shards: usize,
        interval: usize,
        mut pace: impl FnMut(JoinPass) -> Result<(), E>,
    ) -> Connected<E> {
        let join = grid.connectivity_join(eps, metric);
        let mut seen = Connected {
            result: Ok(()),
            pairs: Vec::new(),
            tally: JoinTally::default(),
            neighbour_calls: 0,
        };
        'passes: for pass in [JoinPass::Cells, JoinPass::Neighbours] {
            for shard in 0..shards {
                seen.neighbour_calls += usize::from(pass == JoinPass::Neighbours);
                let pairs = &mut seen.pairs;
                seen.result = join.try_join(
                    pass,
                    shard,
                    shards,
                    |&a: &usize, &b: &usize| pairs.push((a.min(b), a.max(b))),
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

    /// Checks the connectivity join of `points` (payload = index) on a
    /// grid of side `cell` against the brute-force components, checks
    /// that every emitted pair passes `Metric::within` and is emitted
    /// once, and that pairs and tallies do not depend on the shard count.
    /// Returns the sequential tally.
    fn check_connectivity<const D: usize>(
        points: &[Point<D>],
        cell: f64,
        eps: f64,
        metric: Metric,
    ) -> JoinTally {
        let grid: Grid<D, usize> = Grid::from_points(cell, points.iter().copied().zip(0..));
        let label = format!("{metric} cell={cell} eps={eps}");
        let Connected { pairs, tally, .. } =
            connect::<D, Infallible>(&grid, eps, metric, 1, 16, |_| Ok(()));
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
        for shards in [2usize, 3, 7] {
            let sharded = connect::<D, Infallible>(&grid, eps, metric, shards, 16, |_| Ok(()));
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

    #[test]
    fn connectivity_join_matches_brute_force_components_on_the_fixture_matrix() {
        let points: Vec<Point<2>> = lattice(400).into_iter().map(|(p, _)| p).collect();
        let dense = hotspots(900, 7, 1.5, 0xC0FFEE);
        for metric in Metric::ALL {
            for (cell, eps) in [(1.0, 1.0), (2.5, 2.5), (1.0, 3.0), (0.7, 0.0)] {
                check_connectivity(&points, cell, eps, metric);
                check_connectivity(&dense, cell, eps, metric);
            }
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
        let grid: Grid<2, usize> = Grid::from_points(1.0, dups.iter().copied().zip(0..));
        let pairs = connect::<2, Infallible>(&grid, 0.0, Metric::L2, 1, 16, |_| Ok(())).pairs;
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
            // The exact join shares the box prune but visits every pair.
            let grid: Grid<2, usize> = Grid::from_points(1.0, points.iter().copied().zip(0..));
            let mut exact = JoinTally::default();
            let Ok(()) = grid.try_for_each_pair_within::<Infallible, _, _>(
                1.0,
                metric,
                0,
                1,
                |_, _| {},
                16,
                || Ok(()),
                Some(&mut exact),
            );
            assert_eq!(
                exact,
                JoinTally {
                    candidate_pairs: 45 + 45 + 100,
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
        let points: Vec<(Point<2>, usize)> = hotspots(2000, 1, 10.0, 0x5EED)
            .into_iter()
            .zip(0..)
            .collect();
        let grid: Grid<2, usize> = Grid::from_points(1.0, points);
        let all = connect::<2, Infallible>(&grid, 1.0, Metric::L2, 1, 8, |_| Ok(())).pairs;
        for shards in [1usize, 3] {
            // `pace` fails on its 5th call, inside the `Cells` pass.
            let mut paced = 0;
            let early = connect(&grid, 1.0, Metric::L2, shards, 8, |pass| {
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
            let late = connect(&grid, 1.0, Metric::L2, shards, 8, |pass| {
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
