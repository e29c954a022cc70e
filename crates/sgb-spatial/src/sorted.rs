//! The sort-built ε-grid behind the bulk ε-join.
//!
//! SGB-Any's answer is the set of connected components of the ε-graph, and
//! those do not depend on the order in which its edges are found
//! (arXiv:1412.4303). So a bulk ε-join needs no cell lookups: it may visit
//! the occupied cells in any one fixed order. [`SortedCells`] makes that
//! order physical. It is an immutable layout, built once from a complete
//! point set by a stable radix sort on the cell key:
//!
//! * cell keys are [`Grid::cell_of`](crate::Grid::cell_of)'s,
//!   `floor(coord / cell)` per dimension, saturating at the `i64` extremes;
//! * the cells sit in lexicographic key order, and each cell's points sit
//!   contiguously, in input order;
//! * the coordinates sit in one arena, column-major per cell, so the
//!   distance loops stream contiguous `f64` columns;
//! * per cell the layout keeps its key, its first position and its
//!   bounding box, plus the occupied key box.
//!
//! A point's payload is its input position. One join runs over a layout:
//! [`SortedCells::connectivity_join`]. It emits a spanning subset of the
//! within-ε pairs with exactly the ε-graph's connected components, skipping
//! the pairs between two cells already known to be connected. It is
//! sharded, paced and optionally tallied for one-shot SGB-Any and SGB-All's
//! component pre-pass; [`SortedCells::try_connect`] runs it on one shard,
//! for incremental SGB-Any maintenance, which unions those pairs into its
//! components when it builds them and when it re-clusters one after a
//! delete. Nothing needs every within-ε pair: the components alone decide
//! SGB-Any's groups.
//!
//! **Neighbour cells.** The join pairs each cell with the cells at the
//! lexicographically positive offsets whose minimum inter-cell distance
//! passes ε, so each unordered cell pair is joined once, by the cell that
//! sorts first. The offsets that share their first `D − 1` components form
//! an interval in the last one, so their cells form one contiguous run of
//! the sorted cells. One forward-only cursor per run finds it: as the
//! owning cell advances in key order, so does every run's first key. When
//! the offset window holds more cells than are occupied (ε ≫ cell, or
//! saturated keys), the join scans all pairs of occupied cells instead.
//! Either way an exact bounding-box prune drops the cell pairs that cannot
//! hold a within-ε pair.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]

use std::ops::Range;

use sgb_geom::{Metric, Point};

use crate::grid::{cell_key, for_each_key_in_box, CellKey};

/// Most bits the radix sort consumes per pass (2,048 buckets): a key box of
/// up to 2²² cells sorts in two passes.
const DIGIT_BITS: u32 = 11;

/// Execution tally of the connectivity ε-join, filled in by
/// [`JoinShard::try_join`] when it is given one. Purely observational: the
/// tally never changes which pairs the join visits or emits.
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

/// One occupied cell of a [`SortedCells`] layout.
#[derive(Clone, Debug)]
struct Cell<const D: usize> {
    key: CellKey<D>,
    /// Sorted position of the cell's first point.
    start: usize,
    /// Number of points in the cell.
    len: usize,
    /// Per-dimension bounds of the cell's coordinates.
    lo: [f64; D],
    hi: [f64; D],
}

/// An immutable ε-grid layout over a complete point set, built by sorting
/// the points on their cell key (see the [module docs](self)).
///
/// ```
/// use sgb_spatial::SortedCells;
/// use sgb_geom::{Metric, Point};
///
/// let points = [
///     Point::new([0.2, 0.2]),
///     Point::new([5.0, 5.0]),
///     Point::new([0.9, 0.2]),
/// ];
/// let layout = SortedCells::from_points(1.0, &points);
/// let mut pairs = Vec::new();
/// let pace = || Ok::<(), ()>(());
/// layout.try_connect(1.0, Metric::L2, |a, b| pairs.push((a.min(b), a.max(b))), 1024, pace)?;
/// assert_eq!(pairs, vec![(0, 2)]);
/// # Ok::<(), ()>(())
/// ```
#[derive(Clone, Debug)]
pub struct SortedCells<const D: usize> {
    cell: f64,
    cells: Vec<Cell<D>>,
    /// Input position of each point, in sorted order.
    ids: Vec<usize>,
    /// Coordinates per cell, column-major: dimension `d` of the cell with
    /// first position `start` and `len` points occupies
    /// `arena[D·start + d·len ..][..len]`.
    arena: Vec<f64>,
    /// Occupied key box (all zero when empty).
    lo: CellKey<D>,
    hi: CellKey<D>,
}

impl<const D: usize> SortedCells<D> {
    /// Lays out `points` on a grid of side `cell`; each point's payload is
    /// its position in `points`. A side that is not finite and positive
    /// falls back to `1.0`. That costs speed only, never pairs: the join
    /// widens its window with ε / cell.
    pub fn from_points(cell: f64, points: &[Point<D>]) -> Self {
        let cell = if cell.is_finite() && cell > 0.0 {
            cell
        } else {
            1.0
        };
        let keys: Vec<CellKey<D>> = points.iter().map(|p| cell_key(p, cell)).collect();
        let mut lo = keys.first().copied().unwrap_or([0; D]);
        let mut hi = lo;
        for key in &keys {
            for d in 0..D {
                lo[d] = lo[d].min(key[d]);
                hi[d] = hi[d].max(key[d]);
            }
        }
        let (ids, starts) = sorted_order(&keys, &lo, &hi);
        let mut arena = vec![0.0; D * ids.len()];
        let cells = starts
            .windows(2)
            .map(|run| {
                let (start, len) = (run[0], run[1] - run[0]);
                let members = &ids[start..run[1]];
                let block = &mut arena[D * start..D * run[1]];
                let mut cell_lo = [f64::INFINITY; D];
                let mut cell_hi = [f64::NEG_INFINITY; D];
                for (k, &i) in members.iter().enumerate() {
                    let p = &points[i];
                    for d in 0..D {
                        let x = p.coord(d);
                        cell_lo[d] = cell_lo[d].min(x);
                        cell_hi[d] = cell_hi[d].max(x);
                        block[d * len + k] = x;
                    }
                }
                Cell {
                    key: keys[members[0]],
                    start,
                    len,
                    lo: cell_lo,
                    hi: cell_hi,
                }
            })
            .collect();
        Self {
            cell,
            cells,
            ids,
            arena,
            lo,
            hi,
        }
    }

    /// The [connectivity join](Self::connectivity_join) on one shard: the
    /// `Cells` pass over every cell, then the `Neighbours` pass, calling
    /// `visit` with the input positions of every emitted pair. Their
    /// components are the ε-graph's.
    ///
    /// * **Any ε.** Above the cell side the window widens to
    ///   `ceil(eps / cell) + 1` cells per side.
    /// * **Pacing.** `pace` runs at cell-row boundaries, at least once
    ///   every `interval` candidates, as in [`JoinShard::try_join`].
    ///
    /// # Errors
    /// The first error `pace` reports; the pairs emitted until then are
    /// a subset of the full join's.
    pub fn try_connect<E>(
        &self,
        eps: f64,
        metric: Metric,
        mut visit: impl FnMut(usize, usize),
        interval: usize,
        mut pace: impl FnMut() -> Result<(), E>,
    ) -> Result<(), E> {
        let mut join = self.connectivity_join(eps, metric);
        for pass in [JoinPass::Cells, JoinPass::Neighbours] {
            for shard in join.split(pass, 1) {
                shard.try_join(&mut visit, interval, &mut pace, None)?;
            }
        }
        Ok(())
    }

    /// Prepares the connectivity ε-join of this layout at `eps` under
    /// `metric` (see [`ConnectivityJoin`]).
    pub fn connectivity_join(&self, eps: f64, metric: Metric) -> ConnectivityJoin<'_, D> {
        ConnectivityJoin {
            join: Join::new(self, eps, metric),
            connected: vec![false; self.cells.len()],
        }
    }

    /// The input positions of the points in cell `slot`, in input order.
    fn ids_of(&self, slot: usize) -> &[usize] {
        let cell = &self.cells[slot];
        &self.ids[cell.start..cell.start + cell.len]
    }

    /// Cuts the cells into `shards` contiguous ranges that hold about equal
    /// numbers of points: shard `s` owns the cells whose first point sits
    /// at a sorted position in `[s·n/shards, (s+1)·n/shards)`, rounded up.
    fn shard_bounds(&self, shards: usize) -> Vec<usize> {
        let n = self.ids.len() as u128;
        (0..=shards)
            .map(|s| {
                let at = (s as u128 * n).div_ceil(shards as u128);
                self.cells.partition_point(|c| (c.start as u128) < at)
            })
            .collect()
    }
}

/// The input positions of `keys` in lexicographic key order, ties in input
/// order, and the sorted position where each cell's run starts, closed by
/// `keys.len()`. Keys are numbered over the occupied box `lo..=hi` with
/// the last dimension fastest, so that numeric order is lexicographic
/// order, and sorted by a stable LSD radix sort on that number. When the
/// box holds more cells than a `u64` can number (saturated keys, say), a
/// stable comparison sort runs instead.
fn sorted_order<const D: usize>(
    keys: &[CellKey<D>],
    lo: &CellKey<D>,
    hi: &CellKey<D>,
) -> (Vec<usize>, Vec<usize>) {
    let mut strides = [0u64; D];
    let mut volume = 1u64;
    for d in (0..D).rev() {
        strides[d] = volume;
        let width = u64::try_from(hi[d] as i128 - lo[d] as i128 + 1).ok();
        let Some(next) = width.and_then(|w| volume.checked_mul(w)) else {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            let starts = run_starts(keys.len(), |k| keys[order[k]] == keys[order[k - 1]]);
            return (order, starts);
        };
        volume = next;
    }
    let mut items: Vec<(u64, usize)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let number = (0..D)
                .map(|d| (key[d] as i128 - lo[d] as i128) as u64 * strides[d])
                .sum();
            (number, i)
        })
        .collect();
    // Passes of equal width, as few as `DIGIT_BITS` allows.
    let bits = u64::BITS - (volume - 1).leading_zeros();
    let passes = bits.div_ceil(DIGIT_BITS);
    if passes > 0 {
        let width = bits.div_ceil(passes);
        let mask = (1u64 << width) - 1;
        let mut scratch = vec![(0u64, 0usize); items.len()];
        let mut counts = vec![0usize; 1 << width];
        for pass in 0..passes {
            let shift = pass * width;
            let digit = |number: u64| ((number >> shift) & mask) as usize;
            counts.fill(0);
            for &(number, _) in &items {
                counts[digit(number)] += 1;
            }
            let mut next = 0;
            for count in &mut counts {
                let here = *count;
                *count = next;
                next += here;
            }
            for &item in &items {
                let slot = &mut counts[digit(item.0)];
                scratch[*slot] = item;
                *slot += 1;
            }
            std::mem::swap(&mut items, &mut scratch);
        }
    }
    let starts = run_starts(items.len(), |k| items[k].0 == items[k - 1].0);
    // Collected from a borrow, not in place: an in-place collect would keep
    // the 16-byte items' buffer for the 8-byte positions.
    (items.iter().map(|&(_, i)| i).collect(), starts)
}

/// The positions `0..=n` that start a run, plus `n`: those `k` where
/// `same(k)` says position `k` does not share its cell with `k − 1`.
/// Counted first, so the vector is allocated at its exact size.
fn run_starts(n: usize, same: impl Fn(usize) -> bool) -> Vec<usize> {
    let starts = || (0..=n).filter(|&k| k == 0 || k == n || !same(k));
    let mut out = Vec::with_capacity(starts().count());
    out.extend(starts());
    out
}

/// The connectivity ε-join behind one-shot SGB-Any, prepared by
/// [`SortedCells::connectivity_join`]. It emits a spanning subset of the
/// within-ε pairs: every emitted pair passes [`Metric::within`], and the
/// emitted pairs have exactly the connected components of all within-ε
/// pairs. Once two cells are known to be connected, no further pair
/// between them can change those components, so the join does not look
/// for one.
///
/// The join runs in two passes, each split into shards by
/// [`split`](Self::split):
///
/// 1. [`JoinPass::Cells`] handles each owned cell alone. When the cell's
///    bounding-box diagonal passes the metric's accumulation against ε,
///    every pair in it passes too: the cell emits a star of `m − 1` pairs.
///    Otherwise its rows are scanned with a union-find over the cell's own
///    points. The scan emits only the pairs that join two parts, and stops
///    once the cell is one part. The pass records whether the cell's own
///    pairs connect it.
/// 2. [`JoinPass::Neighbours`] handles each owned pair of neighbouring
///    cells (see the [module docs](self)). When both cells are connected
///    it stops at the first hit. When one is, it finds one hit for each
///    point of the other. When neither is, it emits every hit.
///
/// Run the `Cells` pass on every shard, then the `Neighbours` pass, and
/// only once every `Cells` shard returned `Ok`: the second pass reads the
/// connectivity the first one recorded for every cell. Every decision
/// depends only on the cells involved, so neither the emitted pairs nor
/// the summed tallies depend on the shard count.
///
/// The box tests are exact, with no slack: floating-point subtraction,
/// `abs`, multiplication, addition and `max` are monotone, and the tests
/// use the kernels' own operation order (and `eps * eps` for L2).
pub struct ConnectivityJoin<'c, const D: usize> {
    join: Join<'c, D>,
    /// Per cell: whether the cell's own `Cells`-pass pairs connect it.
    connected: Vec<bool>,
}

/// The pass a [`JoinShard`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinPass {
    /// Phase 1: each owned cell alone.
    Cells,
    /// Phase 2: each owned pair of neighbouring cells.
    Neighbours,
}

impl<const D: usize> ConnectivityJoin<'_, D> {
    /// Splits `pass` into `shards` workers (0 counts as 1). Shard `s`
    /// owns a contiguous range of the sorted cells, cut so that every
    /// shard holds about `n / shards` points, and every cell pair its
    /// range owns. Every cell and cell pair has one owner, so the workers
    /// run side by side over one join and merge without deduplication.
    /// A `Cells` shard records the connectivity of its own cells only.
    pub fn split(&mut self, pass: JoinPass, shards: usize) -> Vec<JoinShard<'_, D>> {
        let bounds = self.join.layout.shard_bounds(shards.max(1));
        let join = &self.join;
        let ranges = bounds.windows(2).map(|w| w[0]..w[1]);
        match pass {
            JoinPass::Cells => {
                let mut rest = self.connected.as_mut_slice();
                ranges
                    .map(|cells| {
                        let (own, tail) = std::mem::take(&mut rest).split_at_mut(cells.len());
                        rest = tail;
                        JoinShard {
                            join,
                            cells,
                            connected: Connected::Record(own),
                        }
                    })
                    .collect()
            }
            JoinPass::Neighbours => {
                let connected = self.connected.as_slice();
                ranges
                    .map(|cells| JoinShard {
                        join,
                        cells,
                        connected: Connected::Read(connected),
                    })
                    .collect()
            }
        }
    }
}

/// One shard of one pass of a [`ConnectivityJoin`], made by
/// [`ConnectivityJoin::split`].
pub struct JoinShard<'j, const D: usize> {
    join: &'j Join<'j, D>,
    /// The sorted cells this shard owns.
    cells: Range<usize>,
    connected: Connected<'j>,
}

/// The connectivity flags one shard sees.
enum Connected<'j> {
    /// `Cells` pass: the flags of the shard's own cells, to record.
    Record(&'j mut [bool]),
    /// `Neighbours` pass: every cell's flag.
    Read(&'j [bool]),
}

impl<const D: usize> JoinShard<'_, D> {
    /// Runs this shard, calling `visit` with the input positions of every
    /// emitted pair.
    ///
    /// * **Pacing.** `visit` is infallible; `pace` runs at cell-row
    ///   boundaries, at least once every `interval` candidates, and its
    ///   first error stops the join.
    /// * **Tally.** With `Some(tally)` the join also counts candidate
    ///   comparisons and cell jobs (see [`JoinTally`]; partial counts on
    ///   `Err`).
    ///
    /// # Errors
    /// The first error `pace` reports. After an error in the `Cells` pass
    /// the join is incomplete: do not run the `Neighbours` pass.
    pub fn try_join<E, F, P>(
        self,
        mut visit: F,
        interval: usize,
        pace: P,
        tally: Option<&mut JoinTally>,
    ) -> Result<(), E>
    where
        F: FnMut(usize, usize),
        P: FnMut() -> Result<(), E>,
    {
        let join = self.join;
        let mut pacing = Pacing::new(interval, pace, tally);
        match self.connected {
            Connected::Record(flags) => {
                let mut parts = CellForest::default();
                for (slot, flag) in self.cells.zip(flags) {
                    *flag = join.join_cell(slot, &mut parts, &mut visit, &mut pacing)?;
                }
                Ok(())
            }
            Connected::Read(flags) => join.for_each_neighbour_pair(self.cells, |a, b| {
                join.join_neighbours(flags, a, b, &mut visit, &mut pacing)
            }),
        }
    }
}

/// One ε-join over a layout: ε, the metric, and the neighbour offsets.
struct Join<'c, const D: usize> {
    layout: &'c SortedCells<D>,
    eps: f64,
    metric: Metric,
    /// The relaxed bound the offset test compares minimum inter-cell
    /// distances with.
    close_bound: f64,
    /// The kept neighbour offsets as runs, or `None` when the offset window
    /// holds more cells than are occupied and every pair of occupied cells
    /// is tested instead.
    runs: Option<Vec<Run<D>>>,
}

/// Neighbour offsets that share their first `D − 1` components and form an
/// interval in the last one.
struct Run<const D: usize> {
    /// The run's first offset.
    first: CellKey<D>,
    /// The last component of the run's last offset.
    last: i64,
}

impl<'c, const D: usize> Join<'c, D> {
    fn new(layout: &'c SortedCells<D>, eps: f64, metric: Metric) -> Self {
        let cell = layout.cell;
        // One pad cell against quantisation rounding, as in the per-point
        // probe; the offset test gets an absolute slack of `cell · 1e-5`,
        // far above the coordinate rounding of any `|coord|/cell` ratio
        // this engine targets (< 2³²) and far below the one-cell
        // granularity the test operates at.
        let reach = (((eps / cell).ceil() as i64).max(0)).saturating_add(1);
        let mut join = Join {
            layout,
            eps,
            metric,
            close_bound: eps * (1.0 + 4.0 * f64::EPSILON) + cell * 1e-5,
            runs: None,
        };
        // Clamp the window to the occupied span per dimension: an offset
        // larger than the span can never connect two occupied cells, and
        // without the clamp a degenerate ε ≫ cell ratio makes the window
        // enumeration explode (or saturate `reach` at `i64::MAX`) even over a
        // handful of points.
        let mut lo_off = [0i64; D];
        let mut hi_off = [0i64; D];
        let mut window = 1.0f64;
        for d in 0..D {
            let span = (layout.hi[d] as i128 - layout.lo[d] as i128).min(i64::MAX as i128) as i64;
            let r = reach.min(span);
            lo_off[d] = -r;
            hi_off[d] = r;
            window *= 2.0 * r as f64 + 1.0;
        }
        if window <= layout.cells.len() as f64 {
            // The regular regime: for the ε-sized cells the operators use,
            // the window is 5^D.
            let mut offsets: Vec<CellKey<D>> = Vec::new();
            for_each_key_in_box(&lo_off, &hi_off, |off| {
                let diff = off.map(i128::from);
                if lex_positive(&diff) && join.close(&diff) {
                    offsets.push(*off);
                }
            });
            offsets.sort_unstable();
            let mut runs: Vec<Run<D>> = Vec::new();
            for off in offsets {
                match runs.last_mut() {
                    Some(run)
                        if off[..D - 1] == run.first[..D - 1] && off[D - 1] == run.last + 1 =>
                    {
                        run.last = off[D - 1];
                    }
                    _ => runs.push(Run {
                        first: off,
                        last: off[D - 1],
                    }),
                }
            }
            join.runs = Some(runs);
        }
        join
    }

    /// Whether two cells `diff` apart (key differences in i128: saturated
    /// keys can differ by more than `i64::MAX`) can hold a within-ε pair:
    /// the minimum distance between their points has per-dimension gaps of
    /// (|diff| − 1) cells.
    fn close(&self, diff: &[i128; D]) -> bool {
        let cell = self.layout.cell;
        let gaps = diff.map(|c| (c.abs() - 1).max(0) as f64 * cell);
        let min_dist = match self.metric {
            Metric::L1 => gaps.iter().sum(),
            Metric::L2 => gaps.iter().map(|g| g * g).sum::<f64>().sqrt(),
            Metric::LInf => gaps.iter().fold(0.0f64, |a, &g| a.max(g)),
        };
        min_dist <= self.close_bound
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

    /// The neighbour enumeration of the connectivity join: invokes `job(owner,
    /// other)` once for every pair of occupied cells that could hold a
    /// within-ε pair and whose owner (the cell that sorts first) lies in
    /// `owned`. The first error `job` returns stops the enumeration and is
    /// returned.
    fn for_each_neighbour_pair<E>(
        &self,
        owned: Range<usize>,
        mut job: impl FnMut(usize, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let cells = &self.layout.cells;
        // The exact prune: no pair of two cells can pass when the gaps
        // between their bounding boxes fail.
        let mut admit = |a: usize, b: usize| {
            let (ca, cb) = (&cells[a], &cells[b]);
            if self.within(|d| (cb.lo[d] - ca.hi[d]).max(ca.lo[d] - cb.hi[d]).max(0.0)) {
                job(a, b)
            } else {
                Ok(())
            }
        };
        let Some(runs) = &self.runs else {
            // Every later cell is a lexicographically positive offset away.
            for a in owned {
                for b in a + 1..cells.len() {
                    let diff =
                        std::array::from_fn(|d| cells[b].key[d] as i128 - cells[a].key[d] as i128);
                    if self.close(&diff) {
                        admit(a, b)?;
                    }
                }
            }
            return Ok(());
        };
        let Some(first) = cells.get(owned.start) else {
            return Ok(());
        };
        // Keys in i128: a shifted key may leave the i64 range, and then
        // matches no cell.
        let wide = |key: &CellKey<D>| key.map(i128::from);
        let shifted = |key: &CellKey<D>, off: &CellKey<D>| -> [i128; D] {
            std::array::from_fn(|d| key[d] as i128 + off[d] as i128)
        };
        // Per run: the first cell at or after the run's first key.
        let mut cursors: Vec<usize> = runs
            .iter()
            .map(|run| {
                let from = shifted(&first.key, &run.first);
                cells.partition_point(|c| wide(&c.key) < from)
            })
            .collect();
        for a in owned {
            let key = cells[a].key;
            for (run, cursor) in runs.iter().zip(&mut cursors) {
                let from = shifted(&key, &run.first);
                while cells.get(*cursor).is_some_and(|c| wide(&c.key) < from) {
                    *cursor += 1;
                }
                let last = key[D - 1] as i128 + run.last as i128;
                for (b, cb) in cells.iter().enumerate().skip(*cursor) {
                    let on_run = (0..D - 1).all(|d| cb.key[d] as i128 == from[d])
                        && cb.key[D - 1] as i128 <= last;
                    if !on_run {
                        break;
                    }
                    admit(a, b)?;
                }
            }
        }
        Ok(())
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
        F: FnMut(usize, usize),
        P: FnMut() -> Result<(), E>,
    {
        let cell = &self.layout.cells[slot];
        let ids = self.layout.ids_of(slot);
        let [hub, rest @ ..] = ids else {
            return Ok(true);
        };
        if rest.is_empty() {
            return Ok(true);
        }
        if self.within(|d| cell.hi[d] - cell.lo[d]) {
            // Every pair is within ε: a star spans the cell. Each edge
            // counts as one candidate, so every emitted pair was one.
            pacing.job();
            for &t in rest {
                visit(*hub, t);
            }
            pacing.charge(rest.len())?;
            return Ok(true);
        }
        parts.reset(ids.len());
        self.join_rows(slot, slot, pacing, |r, c| {
            if parts.union(r, c) {
                visit(ids[r], ids[c]);
            }
            if parts.count == 1 {
                AfterHit::StopJob
            } else {
                AfterHit::Continue
            }
        })?;
        Ok(parts.count == 1)
    }

    /// Phase 2 for the neighbouring cells `a` (the owner) and `b`, given
    /// every cell's `connected` flag.
    fn join_neighbours<E, F, P>(
        &self,
        connected: &[bool],
        a: usize,
        b: usize,
        visit: &mut F,
        pacing: &mut Pacing<'_, P>,
    ) -> Result<(), E>
    where
        F: FnMut(usize, usize),
        P: FnMut() -> Result<(), E>,
    {
        let (connected_a, connected_b) = (connected[a], connected[b]);
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
        let (row_ids, col_ids) = (self.layout.ids_of(rows), self.layout.ids_of(cols));
        self.join_rows(rows, cols, pacing, |r, c| {
            visit(row_ids[r], col_ids[c]);
            after
        })
    }

    /// The row loop of every cell job: compares each point ("row") of cell
    /// `rows`, in order, with the points of cell `cols` (with the points
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
        let row_cell = &self.layout.cells[rows];
        let len = row_cell.len;
        if intra && len < 2 {
            return Ok(());
        }
        pacing.job();
        let block = &self.layout.arena[D * row_cell.start..D * (row_cell.start + len)];
        for r in 0..len {
            let q: [f64; D] = std::array::from_fn(|d| block[d * len + r]);
            let from = if intra { r + 1 } else { 0 };
            let mut stop = false;
            let compared = self.scan(cols, from, &q, |c| match on_hit(r, c) {
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

    /// Compares `q`, in order, with the points `from..` of the cell in
    /// `slot`, and calls `hit(k)` for every point that satisfies the
    /// canonical [`Metric::within`] predicate against `q` until `hit`
    /// returns `true`; returns how many points were compared. The
    /// accumulation order per pair matches the point-wise distance kernels
    /// dimension for dimension, so the accepted set is bit-identical to
    /// calling `metric.within(q, p, eps)` per point.
    #[inline]
    fn scan(
        &self,
        slot: usize,
        from: usize,
        q: &[f64; D],
        mut hit: impl FnMut(usize) -> bool,
    ) -> usize {
        let cell = &self.layout.cells[slot];
        let len = cell.len;
        let block = &self.layout.arena[D * cell.start..D * (cell.start + len)];
        let eps = self.eps;
        match self.metric {
            Metric::L1 => {
                for k in from..len {
                    let mut acc = 0.0;
                    for d in 0..D {
                        acc += (q[d] - block[d * len + k]).abs();
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
                        let diff = q[d] - block[d * len + k];
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
                        acc = acc.max((q[d] - block[d * len + k]).abs());
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

/// Whether `diff` is strictly positive in its first non-zero component:
/// each unordered cell pair is kept once, owned by the cell from which the
/// offset is lexicographically positive, which is the cell that sorts
/// first.
fn lex_positive<const D: usize>(diff: &[i128; D]) -> bool {
    diff.iter()
        .find(|&&c| c != 0)
        .is_some_and(|&first| first > 0)
}

/// A union-find over the points of one cell, for the `Cells` pass; its
/// buffer is reused from cell to cell.
#[derive(Default)]
pub(crate) struct CellForest {
    parent: Vec<usize>,
    /// Number of parts.
    count: usize,
}

impl CellForest {
    /// Makes `len` singleton parts.
    pub(crate) fn reset(&mut self, len: usize) {
        self.parent.clear();
        self.parent.extend(0..len);
        self.count = len;
    }

    pub(crate) fn root(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            // Path halving.
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    /// Joins the parts of `a` and `b`; `true` when they were apart.
    pub(crate) fn union(&mut self, a: usize, b: usize) -> bool {
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
