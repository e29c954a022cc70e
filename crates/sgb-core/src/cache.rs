//! The shared-work index / result cache behind
//! [`SgbQuery::run_cached`](crate::SgbQuery::run_cached) (multi-query
//! optimization).
//!
//! Ad-hoc execution rebuilds its ε-grid or R-tree from scratch on every
//! run, so 1000 queries against one table pay 1000 index builds. This
//! module keeps the built structures alive across queries:
//!
//! * **Point indexes** (the SGB-Any ε-grid and point R-tree) are keyed on
//!   the *table version* — a monotone counter the caller bumps on every
//!   content change — plus the structure's build parameter (cell side /
//!   fan-out). A version change drops them wholesale: invalidation never
//!   scans data.
//! * **ε-superset reuse**: one cached grid with cell side `c` serves any
//!   query with ε′ ≥ c by widening the probe window (the pair scan visits
//!   `ceil(ε′ / c) + 1` neighbour rings), so mixed-ε workloads share one
//!   build. A grid is considered usable while ε′ stays within
//!   [`GRID_REUSE_MAX_RATIO`]× its cell side; beyond that the widened
//!   window would visit more cells than a right-sized build saves.
//! * **Center indexes** (SGB-Around) are keyed on the center coordinates
//!   themselves — construction never reads the table or the metric, so
//!   entries survive table mutations and serve every metric.
//! * **Whole-`Grouping` results** are keyed on the query fingerprint for
//!   exact repeat queries, version-scoped like the point indexes.
//!
//! Sharing never changes answers: the grid pair scan verifies every
//! candidate with the canonical `Metric::within` predicate regardless of
//! cell size, and SGB-Any's component extraction is union-order
//! insensitive — so a reused index yields bit-identical groupings
//! (asserted by `tests/proptest_mqo.rs`).
//!
//! ```
//! use sgb_core::{SgbCache, SgbQuery};
//! use sgb_geom::Point;
//!
//! let points: Vec<Point<2>> = (0..600)
//!     .map(|i| Point::new([(i % 25) as f64, (i / 25) as f64]))
//!     .collect();
//! let cache = SgbCache::new();
//! let version = 1; // bump whenever `points` changes
//! let cold = SgbQuery::any(1.0).run_cached(&points, &cache, version);
//! let warm = SgbQuery::any(1.0).run_cached(&points, &cache, version);
//! assert_eq!(cold, warm);
//! assert!(cache.stats().result_hits >= 1);
//! ```

use std::sync::{Arc, Mutex};

use sgb_geom::Point;
use sgb_spatial::{Grid, RTree};

use crate::around::{build_center_index, CenterIndex};
use crate::query::Grouping;
use crate::{AroundAlgorithm, RecordId};

/// A cached grid with cell side `c` serves an ε-query while
/// `side_for_eps(ε) / c` stays at or below this ratio. Past it, the
/// widened probe window visits more neighbour cells than a right-sized
/// build would, so the cache builds a fresh grid instead.
pub const GRID_REUSE_MAX_RATIO: f64 = 4.0;

/// How many distinct-cell-size grids one cache retains per table version.
const GRIDS_CAP: usize = 4;

/// How many distinct-fan-out point R-trees one cache retains per version.
const TREES_CAP: usize = 2;

/// How many distinct center indexes one cache retains (version-free).
const CENTER_INDEXES_CAP: usize = 8;

/// Default capacity of the whole-`Grouping` result cache.
const DEFAULT_RESULT_CAPACITY: usize = 128;

/// Cache effectiveness counters, all monotone over the cache's lifetime.
/// Obtained from [`SgbCache::stats`] (or summed across a session's caches
/// by the SQL layer's `Database::cache_stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Index lookups served from a cached structure (grid, point R-tree,
    /// or center index).
    pub index_hits: u64,
    /// Index lookups that had to build (and cache) a new structure.
    pub index_misses: u64,
    /// Repeat queries answered from the whole-result cache.
    pub result_hits: u64,
    /// Result lookups that fell through to execution.
    pub result_misses: u64,
    /// Entries dropped — by table-version invalidation or capacity.
    pub evictions: u64,
    /// Point-validation passes skipped because the table version was
    /// already validated (the once-per-version finiteness scan).
    pub validations_skipped: u64,
}

impl CacheStats {
    /// Accumulates another counter set into this one (used to sum the
    /// per-slot caches of a session).
    pub fn accumulate(&mut self, other: CacheStats) {
        self.index_hits += other.index_hits;
        self.index_misses += other.index_misses;
        self.result_hits += other.result_hits;
        self.result_misses += other.result_misses;
        self.evictions += other.evictions;
        self.validations_skipped += other.validations_skipped;
    }
}

/// Key of a cached center index: concrete algorithm tag, R-tree fan-out,
/// and the exact center coordinates (bit pattern). Construction reads
/// nothing else, so nothing else may distinguish entries.
type CenterKey = (u8, usize, Vec<u64>);

/// Everything behind the lock: the cached structures plus the version
/// they are scoped to.
#[derive(Debug)]
struct CacheInner<const D: usize> {
    /// The table version the version-scoped entries belong to.
    version: u64,
    /// Whether the once-per-version finiteness validation already ran.
    validated: bool,
    /// ε-grids over the table's points, `(cell-side bits, grid)`, LRU
    /// order (back = most recent).
    grids: Vec<(u64, Arc<Grid<D, RecordId>>)>,
    /// Point R-trees over the table's points, `(fan-out, tree)`, LRU.
    trees: Vec<(usize, Arc<RTree<D, RecordId>>)>,
    /// Center indexes, version-free (built from query centers), LRU.
    centers: Vec<(CenterKey, Arc<CenterIndex<D>>)>,
    /// Whole-result cache, `(query fingerprint, grouping)`, LRU.
    results: Vec<(Vec<u64>, Grouping)>,
    stats: CacheStats,
}

/// A shared-work cache for one point set (one table, one coordinate
/// projection): built spatial indexes and whole results, invalidated by a
/// caller-supplied monotone version. Interior-mutable and `Sync` — one
/// cache can serve concurrent queries.
///
/// See the [module docs](self) for the sharing and invalidation rules,
/// and [`SgbQuery::run_cached`](crate::SgbQuery::run_cached) for the
/// execution entry point.
#[derive(Debug)]
pub struct SgbCache<const D: usize> {
    inner: Mutex<CacheInner<D>>,
    result_capacity: usize,
}

impl<const D: usize> Default for SgbCache<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> SgbCache<D> {
    /// A cache with the default result capacity (128 groupings).
    pub fn new() -> Self {
        Self::with_result_capacity(DEFAULT_RESULT_CAPACITY)
    }

    /// A cache retaining at most `capacity` whole groupings (0 disables
    /// the result cache; index caching is unaffected).
    pub fn with_result_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                version: 0,
                validated: false,
                grids: Vec::new(),
                trees: Vec::new(),
                centers: Vec::new(),
                results: Vec::new(),
                stats: CacheStats::default(),
            }),
            result_capacity: capacity,
        }
    }

    /// A snapshot of the effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner<D>> {
        // Poison-tolerant: every mutation under this lock is
        // transactional (entries are inserted fully built or not at all),
        // so a panic on one thread never leaves half-written state —
        // propagating poison would only turn one failed query into a
        // permanently unusable session cache.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Validates that every point is finite — once per table version.
    /// Repeat calls under the same version skip the O(n·d) scan (counted
    /// in [`CacheStats::validations_skipped`]).
    ///
    /// # Panics
    /// Like `SgbQuery::run`: `"points must have finite coordinates"`.
    pub fn validate_once(&self, version: u64, points: &[Point<D>]) {
        assert!(
            self.points_finite(version, points),
            "points must have finite coordinates"
        );
    }

    /// Whether every point is finite, scanning only until one scan under
    /// `version` has passed; later calls under the same version skip the
    /// O(n·d) scan (counted in [`CacheStats::validations_skipped`]).
    pub(crate) fn points_finite(&self, version: u64, points: &[Point<D>]) -> bool {
        let mut inner = self.lock();
        inner.enter_version(version);
        if inner.validated {
            inner.stats.validations_skipped += 1;
            return true;
        }
        inner.validated = points.iter().all(Point::is_finite);
        inner.validated
    }

    /// Read-only probe: would an ε-query over `version` find a usable
    /// cached grid? Never mutates state or counters — safe for planners
    /// (`EXPLAIN` must not change what it describes).
    pub fn has_usable_grid(&self, version: u64, eps: f64) -> bool {
        let want = Grid::<D, RecordId>::side_for_eps(eps);
        let inner = self.lock();
        inner.version == version
            && inner
                .grids
                .iter()
                .any(|&(bits, _)| grid_usable(f64::from_bits(bits), want))
    }

    /// Read-only probe: is a point R-tree with this fan-out cached for
    /// `version`?
    pub fn has_tree(&self, version: u64, fanout: usize) -> bool {
        let inner = self.lock();
        inner.version == version && inner.trees.iter().any(|&(f, _)| f == fanout)
    }

    /// Ensures a grid serving `eps` exists for `version`, building it
    /// from `points` on a miss — the batch API's shared-build entry
    /// point: build once at the batch's smallest ε, then every ε-superset
    /// query in the batch reuses it.
    pub fn prewarm_grid(&self, version: u64, eps: f64, points: &[Point<D>]) {
        let _ = self.get_or_build_grid(version, eps, |side| {
            Grid::from_points(side, points.iter().enumerate().map(|(i, p)| (*p, i)))
        });
    }

    /// Read-only probe: is a center index for exactly this concrete
    /// algorithm, fan-out, and center list cached?
    pub fn has_center_index(
        &self,
        algorithm: AroundAlgorithm,
        fanout: usize,
        centers: &[Point<D>],
    ) -> bool {
        let tag: u8 = match algorithm {
            AroundAlgorithm::Indexed => 1,
            AroundAlgorithm::Grid => 2,
            _ => return false,
        };
        let bits = center_bits(centers);
        let inner = self.lock();
        inner
            .centers
            .iter()
            .any(|((t, f, b), _)| *t == tag && *f == fanout && *b == bits)
    }

    /// Read-only probe: the concrete algorithm of a cached center index
    /// for exactly these centers (and fan-out), if one exists. Feeds
    /// [`crate::cost::resolve_around`].
    pub fn cached_center_algorithm(
        &self,
        centers: &[Point<D>],
        fanout: usize,
    ) -> Option<AroundAlgorithm> {
        let bits = center_bits(centers);
        let inner = self.lock();
        inner
            .centers
            .iter()
            .rev()
            .find(|((_, f, b), _)| *f == fanout && *b == bits)
            .map(|((tag, _, _), _)| match tag {
                1 => AroundAlgorithm::Indexed,
                _ => AroundAlgorithm::Grid,
            })
    }

    /// The cached ε-grid for `version`, reusing any grid whose cell side
    /// serves `eps` (ε-superset reuse), else building one at
    /// `side_for_eps(eps)` via `build` and caching it.
    pub(crate) fn get_or_build_grid(
        &self,
        version: u64,
        eps: f64,
        build: impl FnOnce(f64) -> Grid<D, RecordId>,
    ) -> Arc<Grid<D, RecordId>> {
        let want = Grid::<D, RecordId>::side_for_eps(eps);
        let mut inner = self.lock();
        inner.enter_version(version);
        // Prefer the largest usable cell: fewest occupied cells to scan.
        let best = inner
            .grids
            .iter()
            .enumerate()
            .filter(|(_, &(bits, _))| grid_usable(f64::from_bits(bits), want))
            .max_by(|(_, &(a, _)), (_, &(b, _))| f64::from_bits(a).total_cmp(&f64::from_bits(b)))
            .map(|(i, _)| i);
        if let Some(i) = best {
            inner.stats.index_hits += 1;
            let entry = inner.grids.remove(i);
            let grid = Arc::clone(&entry.1);
            inner.grids.push(entry);
            return grid;
        }
        inner.stats.index_misses += 1;
        let grid = Arc::new(build(want));
        if inner.grids.len() >= GRIDS_CAP {
            inner.grids.remove(0);
            inner.stats.evictions += 1;
        }
        inner.grids.push((want.to_bits(), Arc::clone(&grid)));
        grid
    }

    /// The cached point R-tree for `version` and `fanout`, building (and
    /// caching) it via `build` on a miss.
    pub(crate) fn get_or_build_tree(
        &self,
        version: u64,
        fanout: usize,
        build: impl FnOnce() -> RTree<D, RecordId>,
    ) -> Arc<RTree<D, RecordId>> {
        let mut inner = self.lock();
        inner.enter_version(version);
        if let Some(i) = inner.trees.iter().position(|&(f, _)| f == fanout) {
            inner.stats.index_hits += 1;
            let entry = inner.trees.remove(i);
            let tree = Arc::clone(&entry.1);
            inner.trees.push(entry);
            return tree;
        }
        inner.stats.index_misses += 1;
        let tree = Arc::new(build());
        if inner.trees.len() >= TREES_CAP {
            inner.trees.remove(0);
            inner.stats.evictions += 1;
        }
        inner.trees.push((fanout, Arc::clone(&tree)));
        tree
    }

    /// The cached center index for a *concrete* indexed algorithm over
    /// exactly these centers, built on a miss. Version-free: center
    /// indexes read only the query's centers.
    pub(crate) fn get_or_build_center_index(
        &self,
        algorithm: AroundAlgorithm,
        fanout: usize,
        centers: &[Point<D>],
    ) -> Arc<CenterIndex<D>> {
        let tag: u8 = match algorithm {
            AroundAlgorithm::Indexed => 1,
            AroundAlgorithm::Grid => 2,
            _ => unreachable!("only indexed center structures are cached"),
        };
        let key: CenterKey = (tag, fanout, center_bits(centers));
        let mut inner = self.lock();
        if let Some(i) = inner.centers.iter().position(|(k, _)| *k == key) {
            inner.stats.index_hits += 1;
            let entry = inner.centers.remove(i);
            let ix = Arc::clone(&entry.1);
            inner.centers.push(entry);
            return ix;
        }
        inner.stats.index_misses += 1;
        let ix = Arc::new(build_center_index(algorithm, fanout, centers));
        if inner.centers.len() >= CENTER_INDEXES_CAP {
            inner.centers.remove(0);
            inner.stats.evictions += 1;
        }
        inner.centers.push((key, Arc::clone(&ix)));
        ix
    }

    /// The cached whole result for an exact repeat query under `version`.
    pub(crate) fn lookup_result(&self, version: u64, fingerprint: &[u64]) -> Option<Grouping> {
        if self.result_capacity == 0 {
            return None;
        }
        let mut inner = self.lock();
        inner.enter_version(version);
        if let Some(i) = inner.results.iter().position(|(fp, _)| fp == fingerprint) {
            inner.stats.result_hits += 1;
            let entry = inner.results.remove(i);
            let out = entry.1.clone();
            inner.results.push(entry);
            return Some(out);
        }
        inner.stats.result_misses += 1;
        None
    }

    /// Caches a complete grouping under the query fingerprint.
    pub(crate) fn store_result(&self, version: u64, fingerprint: Vec<u64>, result: Grouping) {
        // Chaos site: a fired `return` drops the store on the floor (a
        // cache write failure costs a recompute, never correctness); a
        // fired `panic` exercises the poison-tolerant lock above.
        failpoints::fail_point!("sgb_core::cache::store_result", |_| ());
        if self.result_capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.enter_version(version);
        if let Some(i) = inner.results.iter().position(|(fp, _)| *fp == fingerprint) {
            inner.results.remove(i);
        }
        if inner.results.len() >= self.result_capacity {
            inner.results.remove(0);
            inner.stats.evictions += 1;
        }
        inner.results.push((fingerprint, result));
    }
}

impl<const D: usize> CacheInner<D> {
    /// Moves the cache to `version`, dropping every version-scoped entry
    /// when it changed (center indexes survive: they never read the
    /// table).
    fn enter_version(&mut self, version: u64) {
        if self.version == version {
            return;
        }
        let dropped = self.grids.len() + self.trees.len() + self.results.len();
        self.stats.evictions += dropped as u64;
        self.grids.clear();
        self.trees.clear();
        self.results.clear();
        self.validated = false;
        self.version = version;
    }
}

/// The ε-superset rule: a grid with cell side `cell` serves a query
/// wanting cell side `want` when the cell is no coarser than wanted and
/// the widened probe window stays within [`GRID_REUSE_MAX_RATIO`].
fn grid_usable(cell: f64, want: f64) -> bool {
    cell <= want && want / cell <= GRID_REUSE_MAX_RATIO
}

/// The bit pattern of a center list (coordinates are finite by
/// construction, so bit equality is coordinate equality).
fn center_bits<const D: usize>(centers: &[Point<D>]) -> Vec<u64> {
    centers
        .iter()
        .flat_map(|p| p.coords().iter().map(|c| c.to_bits()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SgbQuery;

    fn cloud(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| Point::new([next() * 10.0, next() * 10.0]))
            .collect()
    }

    #[test]
    fn grid_reuse_policy() {
        assert!(grid_usable(0.5, 0.5));
        assert!(grid_usable(0.5, 2.0), "superset reuse: bigger eps is fine");
        assert!(!grid_usable(0.5, 2.1), "past the ratio: rebuild");
        assert!(!grid_usable(0.5, 0.4), "coarser than wanted: rebuild");
    }

    #[test]
    fn repeat_query_hits_the_result_cache_with_identical_metadata() {
        let points = cloud(700, 1);
        let cache = SgbCache::new();
        let q = SgbQuery::any(0.4);
        let cold = q.run_cached(&points, &cache, 7);
        let warm = q.run_cached(&points, &cache, 7);
        assert_eq!(cold, warm);
        assert_eq!(cold.resolved_algorithm(), warm.resolved_algorithm());
        assert_eq!(cold.selection_reason(), warm.selection_reason());
        assert_eq!(cold.threads(), warm.threads());
        let s = cache.stats();
        assert_eq!(s.result_hits, 1);
        assert_eq!(s.result_misses, 1);
        assert_eq!(s.validations_skipped, 1);
    }

    #[test]
    fn eps_superset_queries_share_one_grid_build() {
        let points = cloud(900, 2);
        let cache = SgbCache::new();
        for eps in [0.3, 0.5, 0.9, 1.1] {
            let cached = SgbQuery::any(eps).run_cached(&points, &cache, 1);
            let cold = SgbQuery::any(eps).run(&points);
            assert_eq!(cached, cold, "eps = {eps}");
        }
        let s = cache.stats();
        assert_eq!(s.index_misses, 1, "one grid build serves all eps");
        assert_eq!(s.index_hits, 3);
    }

    #[test]
    fn version_change_invalidates_point_indexes_but_not_center_indexes() {
        let points = cloud(800, 3);
        let cache = SgbCache::new();
        let centers = cloud(300, 4);
        let around = SgbQuery::around(centers.clone());
        let any = SgbQuery::any(0.5);
        let _ = any.run_cached(&points, &cache, 1);
        let _ = around.run_cached(&points, &cache, 1);
        let before = cache.stats();
        assert_eq!(before.index_misses, 2, "one grid, one center index");

        let mut grown = points.clone();
        grown.push(Point::new([0.123, 0.456]));
        let fresh_any = any.run_cached(&grown, &cache, 2);
        let fresh_around = around.run_cached(&grown, &cache, 2);
        assert_eq!(fresh_any, any.run(&grown), "no stale grouping after bump");
        assert_eq!(fresh_around, around.run(&grown));
        let after = cache.stats();
        assert!(after.evictions > before.evictions, "grid was dropped");
        // The grid rebuilt (miss), the center index survived (hit).
        assert_eq!(after.index_misses, before.index_misses + 1);
        assert_eq!(after.index_hits, before.index_hits + 1);
    }

    #[test]
    fn zero_capacity_disables_the_result_cache() {
        let points = cloud(600, 5);
        let cache = SgbCache::with_result_capacity(0);
        let q = SgbQuery::any(0.4);
        assert_eq!(
            q.run_cached(&points, &cache, 1),
            q.run_cached(&points, &cache, 1)
        );
        let s = cache.stats();
        assert_eq!(s.result_hits, 0);
        assert_eq!(s.result_misses, 0);
        assert_eq!(s.index_hits, 1, "index caching is unaffected");
    }

    #[test]
    #[should_panic(expected = "points must have finite coordinates")]
    fn validate_once_rejects_non_finite_points() {
        let cache = SgbCache::<2>::new();
        cache.validate_once(1, &[Point::new([f64::NAN, 0.0])]);
    }
}
