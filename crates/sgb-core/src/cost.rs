//! Cost-based algorithm selection for the `Auto` variants.
//!
//! Every operator family offers several physically different but
//! semantically identical execution paths; which one wins depends on the
//! workload shape. [`Algorithm::Auto`] delegates the choice to this
//! module, which applies a small cost model over the quantities that
//! actually move the needle — input cardinality, center count, and
//! dimensionality — with thresholds calibrated against the committed
//! benchmark reports at the repository root:
//!
//! * `BENCH_around.json` — SGB-Around's two paths, the brute center scan
//!   and the center grid, over center counts: the scan wins while the
//!   centers are few, and the grid's build and list setup pay off past a
//!   crossover of tens of centers. Hence [`AROUND_BRUTE_MAX_CENTERS`].
//! * `BENCH_grid.json`'s SGB-Any `n` sweep — at n = 10k the ε-grid path
//!   takes 1.5 ms (2 threads) against 38.9 ms for the on-the-fly R-tree
//!   and 133 ms for the all-pairs scan (medians of five interleaved
//!   rounds), and the grid leads at every swept n (2k–20k). The sweep starts at n = 2,000, so no committed row
//!   measures the small-n crossovers behind [`ANY_ALL_PAIRS_MAX_N`] and
//!   [`ALL_ALL_PAIRS_MAX_N`], below which no index amortises its
//!   construction; those two bounds are estimates until a cost-model
//!   regret run measures them.
//! * SGB-All's `Auto` is two-way: the plain scan for small inputs, else
//!   the per-component search of `Grid` (`BENCH_grid.json`'s SGB-All
//!   rows). What that path does per component is the one number left to
//!   hold accountable: [`ALL_BOUNDS_MAX_N`], the component size above
//!   which a component's groups are searched through the group R-tree
//!   rather than scanned (its `component` sweep times both sides).
//! * The grid probe examines `5^D` cells per point (the 3^D neighbourhood
//!   plus a one-cell rounding pad), so past [`GRID_MAX_DIMS`] dimensions
//!   the R-tree's adaptive partitioning wins, and SGB-Around, which has
//!   no tree, keeps the center scan. The shipped operators are
//!   instantiated at 2-D/3-D, where the grid always qualifies.
//!
//! Every resolver returns the chosen *concrete* algorithm together with a
//! human-readable reason; the SQL layer surfaces both through `EXPLAIN`.
//! A configured concrete algorithm passes through unchanged (the query
//! builder already rejected `BoundsChecking` outside SGB-All).
//! Resolution never affects results: all concrete paths are proven
//! bit-identical (see the `proptest_grid` suite), so `Auto` only ever
//! changes *when* the answer arrives.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]

use crate::governor::{QueryGovernor, SgbError};
use crate::Algorithm;

/// Up to this input cardinality SGB-All's `Auto` stays with the all-pairs
/// scan: group structures are tiny and building any accelerator, the
/// component pre-pass included, is expected to cost more than it saves.
/// Not yet measured: BENCH_grid.json's SGB-All `n` sweep starts at
/// n = 2,000, where `Grid` already beats the scan (0.79 ms vs 1.97 ms).
pub const ALL_ALL_PAIRS_MAX_N: usize = 256;

/// The per-component bound of SGB-All's `Grid` path: a point whose
/// ε-component holds at most this many points scans that component's
/// group directory with the Bounds-Checking tests; a larger component is
/// searched through the group R-tree. The scan costs `O(|G_c|)` per point
/// for the component's live groups `G_c`, the R-tree probe `O(log |G_c|)`
/// plus its upkeep, so the tree pays off only on large components.
/// BENCH_grid.json's `component` sweep times both sides on one uniform
/// ε-component: at 2k points the scan runs within 1.3× of
/// Bounds-Checking (2.04 against 1.56 ms), and at 20k points the R-tree
/// runs within 1.1× of `Indexed` (60.5 against 58.5 ms), where
/// Bounds-Checking takes 2.3× as long (132 ms). The largest component
/// of the `checkin-all` benchmark data holds 3.35k–3.63k points (seeds 3,
/// 7 and 11), under the bound, so that workload always scans; the
/// `overlap` sweep times it there, under every `ON-OVERLAP` clause.
pub const ALL_BOUNDS_MAX_N: usize = 4_096;

/// Below this input cardinality SGB-Any's `Auto` stays with the all-pairs
/// scan. Not yet measured: BENCH_grid.json's SGB-Any `n` sweep starts at
/// n = 2,000, where `Grid` already beats the scan (0.28 ms vs 5.21 ms).
pub const ANY_ALL_PAIRS_MAX_N: usize = 512;

/// Up to this many centers SGB-Around's `Auto` uses the brute center scan,
/// above it the center grid. The value was set against the grid's former
/// per-tuple ring search, whose crossover BENCH_grid.json bracketed
/// between 64 and 256 centers. Since the grid shares one candidate list
/// per block of cells, BENCH_around.json puts the crossover between 16
/// and 64 mixture centers and between 32 and 128 centers drawn from
/// check-ins; the value stays until `Auto` is checked against both paths
/// (ROADMAP item 3).
pub const AROUND_BRUTE_MAX_CENTERS: usize = 128;

/// Highest dimensionality at which the ε-grid is selected; beyond it the
/// per-probe cell neighbourhood (`5^D`) outgrows an R-tree descent.
pub const GRID_MAX_DIMS: usize = 3;

/// Below this input cardinality the parallel engine stays sequential even
/// when threads were left on auto: spawning workers and merging per-shard
/// results costs tens of microseconds, which a small input cannot win
/// back.
pub const PARALLEL_MIN_N: usize = 8192;

/// Marker reason for explicitly configured (non-`Auto`) algorithms.
fn configured() -> String {
    "configured explicitly".to_owned()
}

/// The cost model's SGB-All choice for `n` points, before the budget is
/// considered: the plain scan up to [`ALL_ALL_PAIRS_MAX_N`], the
/// per-component search of [`Algorithm::Grid`] above it. This is what
/// [`resolve_all`] gives under an unrestricted governor.
pub(crate) fn all_cost_model(configured_algo: Algorithm, n: usize) -> (Algorithm, String) {
    match configured_algo {
        Algorithm::Auto if n <= ALL_ALL_PAIRS_MAX_N => (
            Algorithm::AllPairs,
            format!("auto: n = {n} <= {ALL_ALL_PAIRS_MAX_N}, plain scan beats index construction"),
        ),
        Algorithm::Auto => (
            Algorithm::Grid,
            format!(
                "auto: n = {n} > {ALL_ALL_PAIRS_MAX_N}, eps-component pre-pass, then one group \
                 directory per component (R-tree above {ALL_BOUNDS_MAX_N} points)"
            ),
        ),
        other => (other, configured()),
    }
}

/// Resolves the SGB-All algorithm for a known input cardinality `n` in
/// `dims` dimensions under the [`QueryGovernor`]'s memory budget.
/// Non-`Auto` inputs pass through unchanged, except that a `Grid` run's
/// pre-pass must fit the budget.
///
/// * `Auto` picks the all-pairs scan up to [`ALL_ALL_PAIRS_MAX_N`] points
///   and [`Algorithm::Grid`] above: a pre-pass labels every point with its
///   ε-component, and each point then searches only its own component's
///   groups. BENCH_grid.json's SGB-All rows show it beating
///   Bounds-Checking and the group R-tree from n = 2k up; a single
///   component of 1k points, where the pre-pass buys nothing, is its
///   worst case (0.56–0.60 ms against 0.38–0.40 ms for Bounds-Checking).
/// * The pre-pass builds an ε-grid over the input
///   ([`estimated_grid_bytes`]). Over the budget, `Auto` degrades to the
///   group R-tree of [`Algorithm::Indexed`] — today's large-n path, whose
///   tree over the live groups is not priced — with the fallback recorded
///   in the reason; an explicit `Grid` fails.
///
/// # Errors
/// [`SgbError::BudgetExceeded`] for an explicit `Grid` over the budget.
pub fn resolve_all(
    configured_algo: Algorithm,
    n: usize,
    dims: usize,
    governor: &QueryGovernor,
) -> Result<(Algorithm, String), SgbError> {
    let resolved = all_cost_model(configured_algo, n);
    if resolved.0 != Algorithm::Grid {
        return Ok(resolved);
    }
    admit(
        resolved,
        configured_algo == Algorithm::Auto,
        estimated_grid_bytes(n, dims),
        "eps-grid",
        (Algorithm::Indexed, "group R-tree"),
        governor,
    )
}

/// The cost model's SGB-Any choice for `n` points in `dims` dimensions,
/// before any cache or budget input is considered.
pub(crate) fn any_cost_model(
    configured_algo: Algorithm,
    n: usize,
    dims: usize,
) -> (Algorithm, String) {
    match configured_algo {
        Algorithm::Auto => {
            if n <= ANY_ALL_PAIRS_MAX_N {
                (
                    Algorithm::AllPairs,
                    format!(
                        "auto: n = {n} <= {ANY_ALL_PAIRS_MAX_N}, plain scan beats index construction"
                    ),
                )
            } else if dims > GRID_MAX_DIMS {
                (
                    Algorithm::Indexed,
                    format!("auto: {dims}-D exceeds the grid sweet spot (<= {GRID_MAX_DIMS}-D)"),
                )
            } else {
                (
                    Algorithm::Grid,
                    format!("auto: n = {n} > {ANY_ALL_PAIRS_MAX_N}, eps-grid neighbor scan wins (BENCH_grid.json)"),
                )
            }
        }
        other => (other, configured()),
    }
}

/// Upper bound on the heap bytes an ε-grid over `n` points in `dims`
/// dimensions needs at the peak of its build (`sgb_spatial::SortedCells`).
/// Per point, with one occupied cell per point at most:
///
/// * its cell key, `8·dims`, held for the whole build;
/// * then the larger of the radix sort's two `(number, position)` buffers,
///   32, and the finished layout: the point's position, 8, its
///   coordinates, `8·dims`, and its cell's run start, 8, and record (key,
///   bounding box, first position and length), `24·dims + 16`. Positions
///   and run starts are allocated at their exact sizes.
///
/// Plus the sort's bucket counts and a fixed base. Occupied cells are
/// usually far fewer than points, so a real build stays well under this
/// (`tests/grid_memory.rs` measures it); the governor's memory budget is an
/// admission control, not an allocator.
pub fn estimated_grid_bytes(n: usize, dims: usize) -> usize {
    let layout = 8 + 8 * dims + 8 + 24 * dims + 16;
    let per_point = 8 * dims + layout.max(32);
    n.saturating_mul(per_point)
        .saturating_add(RADIX_COUNT_BYTES + 1024)
}

/// The radix sort's bucket counts: 2¹¹ `usize`s.
const RADIX_COUNT_BYTES: usize = (1 << 11) * 8;

/// Rough upper bound on the resident bytes of a bulk-loaded point R-tree
/// over `n` points in `dims` dimensions: each leaf entry stores an MBR
/// (two corners) plus a payload id, internal nodes add roughly one entry
/// per fan-out'd child, doubled for arena slack. Deliberately
/// pessimistic — like [`estimated_grid_bytes`], admission control, not an
/// allocator.
pub fn estimated_rtree_bytes(n: usize, dims: usize) -> usize {
    n.saturating_mul(dims * 16 + 16)
        .saturating_mul(2)
        .saturating_add(1024)
}

/// Resolves the SGB-Any algorithm for a known input cardinality `n` in
/// `dims` dimensions, given what the session cache holds for the input's
/// table version (`cached_grid`: a usable ε-grid, `cached_tree`: a point
/// R-tree) and the [`QueryGovernor`]'s memory budget.
///
/// * A cached grid has zero build cost, so `Auto` picks it at every
///   cardinality (the plain scan only wins while construction dominates).
/// * A build over the budget ([`estimated_grid_bytes`],
///   [`estimated_rtree_bytes`]) degrades `Auto` to the O(1)-memory
///   all-pairs scan — bit-identical output, the fallback recorded in the
///   reason for `EXPLAIN` — while an explicit `Grid` / `Indexed` fails.
///   Cached structures allocate nothing new and are always admitted.
///
/// # Errors
/// [`SgbError::BudgetExceeded`] for an explicit index over the budget.
pub fn resolve_any(
    configured_algo: Algorithm,
    n: usize,
    dims: usize,
    cached_grid: bool,
    cached_tree: bool,
    governor: &QueryGovernor,
) -> Result<(Algorithm, String), SgbError> {
    let auto = configured_algo == Algorithm::Auto;
    let resolved = if auto && cached_grid && dims <= GRID_MAX_DIMS {
        (
            Algorithm::Grid,
            format!("auto: cached eps-grid for this table version, zero build cost (n = {n})"),
        )
    } else {
        any_cost_model(configured_algo, n, dims)
    };
    let (needed, structure) = match resolved.0 {
        Algorithm::Grid if !cached_grid => (estimated_grid_bytes(n, dims), "eps-grid"),
        Algorithm::Indexed if !cached_tree => (estimated_rtree_bytes(n, dims), "point R-tree"),
        _ => return Ok(resolved),
    };
    admit(
        resolved,
        auto,
        needed,
        structure,
        (Algorithm::AllPairs, "streaming all-pairs scan"),
        governor,
    )
}

/// Admits the build of a `structure` of ~`needed` bytes under the
/// governor's memory budget: over it, `Auto` degrades to the
/// structure-free `fallback` with the reason recorded, and an explicit
/// choice fails.
fn admit(
    resolved: (Algorithm, String),
    auto: bool,
    needed: usize,
    structure: &str,
    (fallback, fallback_name): (Algorithm, &str),
    governor: &QueryGovernor,
) -> Result<(Algorithm, String), SgbError> {
    match governor.admit(needed) {
        Err(SgbError::BudgetExceeded { budget, .. }) if auto => Ok((
            fallback,
            format!(
                "auto: {structure} needs ~{needed} B, over the {budget} B memory budget; \
                 degraded to the {fallback_name}"
            ),
        )),
        verdict => verdict.map(|()| resolved),
    }
}

/// The cost model's SGB-Around choice from the center count (the quantity
/// the per-tuple cost actually depends on — centers are known up front, so
/// one-shot runs and maintained groupings resolve identically) in `dims`
/// dimensions, before any cache or budget input is considered.
/// [`Algorithm::AllPairs`] is SGB-Around's brute center scan, and the
/// scan also serves every dimensionality past [`GRID_MAX_DIMS`].
pub(crate) fn around_cost_model(
    configured_algo: Algorithm,
    centers: usize,
    dims: usize,
) -> (Algorithm, String) {
    match configured_algo {
        Algorithm::Auto => {
            if centers <= AROUND_BRUTE_MAX_CENTERS {
                (
                    Algorithm::AllPairs,
                    format!(
                        "auto: {centers} centers <= {AROUND_BRUTE_MAX_CENTERS}, center scan beats \
                         index construction (BENCH_around.json crossover ~1k)"
                    ),
                )
            } else if dims > GRID_MAX_DIMS {
                (
                    Algorithm::AllPairs,
                    format!("auto: {dims}-D exceeds the grid sweet spot (<= {GRID_MAX_DIMS}-D)"),
                )
            } else {
                (
                    Algorithm::Grid,
                    format!(
                        "auto: {centers} centers > {AROUND_BRUTE_MAX_CENTERS}, center grid \
                         expected-O(1) probe wins (BENCH_grid.json)"
                    ),
                )
            }
        }
        other => (other, configured()),
    }
}

/// Resolves the SGB-Around algorithm for `centers` centers in `dims`
/// dimensions, given whether the session cache holds a center grid for
/// exactly these centers (`cached`) and the [`QueryGovernor`]'s memory
/// budget.
///
/// * Center grids read only the query's centers, so a cached one has
///   zero build cost and `Auto` reuses it even below the brute crossover.
/// * A grid build over the budget degrades `Auto` to the brute center
///   scan, with the fallback recorded; an explicit `Grid` fails instead.
///   The estimate is [`estimated_rtree_bytes`] over the centers, an upper
///   bound on the grid, which stores one point per entry where a tree
///   stores a rectangle. A cached grid is always admitted.
///
/// # Errors
/// [`SgbError::BudgetExceeded`] for an explicit `Grid` over the budget.
pub fn resolve_around(
    configured_algo: Algorithm,
    centers: usize,
    dims: usize,
    cached: bool,
    governor: &QueryGovernor,
) -> Result<(Algorithm, String), SgbError> {
    let auto = configured_algo == Algorithm::Auto;
    let resolved = if cached && auto && dims <= GRID_MAX_DIMS {
        (
            Algorithm::Grid,
            format!("auto: cached center index, zero build cost ({centers} centers)"),
        )
    } else {
        around_cost_model(configured_algo, centers, dims)
    };
    if resolved.0 != Algorithm::Grid || cached {
        return Ok(resolved);
    }
    admit(
        resolved,
        auto,
        estimated_rtree_bytes(centers, dims),
        "center index",
        (Algorithm::AllPairs, "brute center scan"),
        governor,
    )
}

/// Resolves the worker-thread count for a parallelisable path over `n`
/// tuples. `requested == 0` means auto: stay sequential below
/// [`PARALLEL_MIN_N`], otherwise use the machine's available parallelism,
/// capped so every worker still owns at least `PARALLEL_MIN_N / 2` tuples
/// (a shard smaller than that spends more time in spawn/merge than in the
/// join). An explicit `requested > 0` always wins — benchmarks and the
/// determinism tests pin exact counts.
///
/// Thread count never affects results: the parallel paths are proven
/// bit-identical to their sequential twins (see `proptest_parallel`), so
/// this choice, like algorithm selection, only moves *when* the answer
/// arrives.
pub fn resolve_threads(requested: usize, n: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if n < PARALLEL_MIN_N {
        return 1;
    }
    let available = std::thread::available_parallelism().map_or(1, |p| p.get());
    let useful = (n / (PARALLEL_MIN_N / 2)).max(1);
    available.min(useful).max(1)
}

/// Threads for a *resolved* (concrete) SGB-Any algorithm: only the ε-grid
/// path shards its close-pair join, so the other paths run sequentially
/// regardless of the request.
pub fn threads_for_any(algorithm: Algorithm, requested: usize, n: usize) -> usize {
    match algorithm {
        Algorithm::Grid => resolve_threads(requested, n),
        _ => 1,
    }
}

/// Threads for SGB-Around over `n` tuples: the nearest-center assignment
/// is independent per tuple, so both concrete paths parallelise.
pub fn threads_for_around(requested: usize, n: usize) -> usize {
    resolve_threads(requested, n)
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

    /// [`resolve_all`] with no limits.
    fn all(configured: Algorithm, n: usize, dims: usize) -> (Algorithm, String) {
        resolve_all(configured, n, dims, &QueryGovernor::unrestricted()).unwrap()
    }

    /// [`resolve_any`] with nothing cached and no limits.
    fn any(configured: Algorithm, n: usize, dims: usize) -> (Algorithm, String) {
        resolve_any(
            configured,
            n,
            dims,
            false,
            false,
            &QueryGovernor::unrestricted(),
        )
        .unwrap()
    }

    /// [`resolve_around`] with nothing cached and no limits.
    fn around(configured: Algorithm, centers: usize, dims: usize) -> (Algorithm, String) {
        resolve_around(
            configured,
            centers,
            dims,
            false,
            &QueryGovernor::unrestricted(),
        )
        .unwrap()
    }

    #[test]
    fn non_auto_passes_through() {
        for algo in [
            Algorithm::AllPairs,
            Algorithm::BoundsChecking,
            Algorithm::Indexed,
            Algorithm::Grid,
        ] {
            let (resolved, reason) = all(algo, 1_000_000, 2);
            assert_eq!(resolved, algo);
            assert!(reason.contains("configured"), "{reason}");
        }
        assert_eq!(
            any(Algorithm::AllPairs, 1_000_000, 2).0,
            Algorithm::AllPairs
        );
        assert_eq!(around(Algorithm::Grid, 5, 2).0, Algorithm::Grid);
    }

    #[test]
    fn auto_picks_scan_for_small_inputs() {
        assert_eq!(
            all(Algorithm::Auto, ALL_ALL_PAIRS_MAX_N, 2).0,
            Algorithm::AllPairs
        );
        assert_eq!(
            any(Algorithm::Auto, ANY_ALL_PAIRS_MAX_N, 2).0,
            Algorithm::AllPairs
        );
        assert_eq!(
            around(Algorithm::Auto, AROUND_BRUTE_MAX_CENTERS, 2).0,
            Algorithm::AllPairs
        );
    }

    #[test]
    fn auto_tracks_the_benchmarked_winner_per_regime() {
        for dims in [2, 3] {
            // SGB-All: the per-component search above the scan's range.
            assert_eq!(all(Algorithm::Auto, 10_000, dims).0, Algorithm::Grid);
            assert_eq!(all(Algorithm::Auto, 20_000, dims).0, Algorithm::Grid);
            assert_eq!(any(Algorithm::Auto, 10_000, dims).0, Algorithm::Grid);
            assert_eq!(around(Algorithm::Auto, 4096, dims).0, Algorithm::Grid);
        }
    }

    #[test]
    fn auto_prefers_rtree_in_high_dims() {
        assert_eq!(any(Algorithm::Auto, 10_000, 5).0, Algorithm::Indexed);
        // SGB-Around has no tree: past the grid's range it keeps the scan.
        let (algo, reason) = around(Algorithm::Auto, 4096, 4);
        assert_eq!(algo, Algorithm::AllPairs);
        assert!(
            reason.contains("4-D exceeds the grid sweet spot"),
            "{reason}"
        );
    }

    #[test]
    fn explicit_thread_requests_always_win() {
        for n in [1, PARALLEL_MIN_N, 1_000_000] {
            assert_eq!(resolve_threads(7, n), 7);
        }
    }

    #[test]
    fn auto_threads_stay_sequential_below_the_threshold() {
        for n in [0, 1, PARALLEL_MIN_N - 1] {
            assert_eq!(resolve_threads(0, n), 1);
        }
    }

    #[test]
    fn auto_threads_are_bounded_by_useful_work() {
        // A shard must own at least PARALLEL_MIN_N / 2 tuples.
        let t = resolve_threads(0, PARALLEL_MIN_N);
        assert!(t <= PARALLEL_MIN_N / (PARALLEL_MIN_N / 2));
        let t = resolve_threads(0, 1_000_000);
        let available = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert!(t >= 1 && t <= available);
    }

    #[test]
    fn operator_thread_policies() {
        // SGB-Any: only the grid path shards.
        assert_eq!(threads_for_any(Algorithm::Grid, 3, 100_000), 3);
        assert_eq!(threads_for_any(Algorithm::AllPairs, 3, 100_000), 1);
        assert_eq!(threads_for_any(Algorithm::Indexed, 3, 100_000), 1);
        // SGB-Around parallelises on every concrete path.
        assert_eq!(threads_for_around(5, 10), 5);
        assert_eq!(threads_for_around(0, 10), 1);
    }

    #[test]
    fn cache_aware_resolution_prefers_the_free_index() {
        let free = QueryGovernor::unrestricted();
        let cached_grid =
            |configured, n, dims| resolve_any(configured, n, dims, true, false, &free).unwrap();
        // A cached grid flips Auto onto the grid path even below the
        // build-amortisation threshold…
        let (algo, reason) = cached_grid(Algorithm::Auto, 10, 2);
        assert_eq!(algo, Algorithm::Grid);
        assert!(reason.contains("zero build cost"), "{reason}");
        // …but never outside the grid's dimensionality sweet spot, never
        // without a cached index, and never over an explicit choice.
        assert_eq!(
            cached_grid(Algorithm::Auto, 10_000, 5).0,
            Algorithm::Indexed
        );
        assert_eq!(
            any(Algorithm::Auto, 10, 2),
            any_cost_model(Algorithm::Auto, 10, 2)
        );
        assert_eq!(
            cached_grid(Algorithm::AllPairs, 10_000, 2).0,
            Algorithm::AllPairs
        );
        // A cached tree is no reason to leave the cost model's choice.
        assert_eq!(
            resolve_any(Algorithm::Auto, 10, 2, false, true, &free).unwrap(),
            any(Algorithm::Auto, 10, 2)
        );

        let (algo, reason) = resolve_around(Algorithm::Auto, 3, 2, true, &free).unwrap();
        assert_eq!(algo, Algorithm::Grid);
        assert!(reason.contains("zero build cost"), "{reason}");
        assert_eq!(
            around(Algorithm::Auto, 3, 2),
            around_cost_model(Algorithm::Auto, 3, 2)
        );
        // Past the grid's range a cached grid is no reason to leave the scan.
        assert_eq!(
            resolve_around(Algorithm::Auto, 4096, 4, true, &free).unwrap(),
            around(Algorithm::Auto, 4096, 4)
        );
    }

    #[test]
    fn governed_resolution_enforces_the_memory_budget() {
        // No budget: the cost model's choice.
        assert_eq!(
            any(Algorithm::Auto, 10_000, 2),
            any_cost_model(Algorithm::Auto, 10_000, 2)
        );
        // A budget too small for the grid degrades Auto to all-pairs…
        let tight = QueryGovernor::unrestricted().with_memory_budget(64);
        let (algo, reason) = resolve_any(Algorithm::Auto, 10_000, 2, false, false, &tight).unwrap();
        assert_eq!(algo, Algorithm::AllPairs);
        assert!(reason.contains("memory budget"), "{reason}");
        assert!(reason.contains("eps-grid"), "{reason}");
        // …but an explicit Grid request fails loudly instead.
        let err = resolve_any(Algorithm::Grid, 10_000, 2, false, false, &tight).unwrap_err();
        assert!(matches!(err, SgbError::BudgetExceeded { .. }), "{err:?}");
        // A cached grid allocates nothing new, so the budget never blocks it.
        let (algo, _) = resolve_any(Algorithm::Auto, 10_000, 2, true, false, &tight).unwrap();
        assert_eq!(algo, Algorithm::Grid);
        // The estimate grows with n and never panics at the extremes.
        assert!(estimated_grid_bytes(10, 2) < estimated_grid_bytes(10_000, 2));
        let _ = estimated_grid_bytes(usize::MAX, 3);
    }

    #[test]
    fn governed_resolution_prices_the_component_pre_pass() {
        // No budget: the cost model's choice.
        assert_eq!(
            all(Algorithm::Auto, 10_000, 2),
            all_cost_model(Algorithm::Auto, 10_000)
        );
        // A budget too small for the pre-pass grid degrades Auto to the
        // group R-tree…
        let tight = QueryGovernor::unrestricted().with_memory_budget(64);
        let (algo, reason) = resolve_all(Algorithm::Auto, 10_000, 2, &tight).unwrap();
        assert_eq!(algo, Algorithm::Indexed);
        assert!(reason.contains("memory budget"), "{reason}");
        assert!(reason.contains("group R-tree"), "{reason}");
        // …an explicit Grid request fails loudly instead…
        let err = resolve_all(Algorithm::Grid, 10_000, 2, &tight).unwrap_err();
        assert!(matches!(err, SgbError::BudgetExceeded { .. }), "{err:?}");
        // …and the paths that build nothing up front always pass.
        for algo in [
            Algorithm::AllPairs,
            Algorithm::BoundsChecking,
            Algorithm::Indexed,
        ] {
            assert_eq!(resolve_all(algo, 10_000, 2, &tight).unwrap().0, algo);
        }
        assert_eq!(
            resolve_all(Algorithm::Auto, ALL_ALL_PAIRS_MAX_N, 2, &tight)
                .unwrap()
                .0,
            Algorithm::AllPairs
        );
    }

    #[test]
    fn governed_resolution_prices_the_rtree_build() {
        let tight = QueryGovernor::unrestricted().with_memory_budget(64);
        // Auto in high dimensions resolves to the R-tree, which no longer
        // fits: degrade to the all-pairs scan with the fallback recorded.
        let (algo, reason) = resolve_any(Algorithm::Auto, 10_000, 5, false, false, &tight).unwrap();
        assert_eq!(algo, Algorithm::AllPairs);
        assert!(reason.contains("memory budget"), "{reason}");
        assert!(reason.contains("R-tree"), "{reason}");
        // An explicit Indexed request fails loudly instead.
        let err = resolve_any(Algorithm::Indexed, 10_000, 2, false, false, &tight).unwrap_err();
        assert!(matches!(err, SgbError::BudgetExceeded { .. }), "{err:?}");
        // A cached tree allocates nothing new, so it is always admitted.
        let (algo, _) = resolve_any(Algorithm::Indexed, 10_000, 2, false, true, &tight).unwrap();
        assert_eq!(algo, Algorithm::Indexed);
        // The estimate grows with n and never panics at the extremes.
        assert!(estimated_rtree_bytes(10, 2) < estimated_rtree_bytes(10_000, 2));
        let _ = estimated_rtree_bytes(usize::MAX, 3);
    }

    #[test]
    fn governed_resolution_prices_the_center_index_build() {
        // No budget: the cost model's choice.
        assert_eq!(
            around(Algorithm::Auto, 4096, 2),
            around_cost_model(Algorithm::Auto, 4096, 2)
        );
        let tight = QueryGovernor::unrestricted().with_memory_budget(64);
        // Auto above the brute crossover degrades back to the brute scan…
        let (algo, reason) = resolve_around(Algorithm::Auto, 4096, 2, false, &tight).unwrap();
        assert_eq!(algo, Algorithm::AllPairs);
        assert!(reason.contains("memory budget"), "{reason}");
        assert!(reason.contains("brute center scan"), "{reason}");
        // …while an explicit grid request fails loudly.
        let err = resolve_around(Algorithm::Grid, 4096, 2, false, &tight).unwrap_err();
        assert!(matches!(err, SgbError::BudgetExceeded { .. }), "{err:?}");
        // A cached grid is admitted under any budget.
        let (algo, _) = resolve_around(Algorithm::Grid, 4096, 2, true, &tight).unwrap();
        assert_eq!(algo, Algorithm::Grid);
        // The brute scan needs no structure, so it always passes.
        let (algo, _) = resolve_around(Algorithm::AllPairs, 4096, 2, false, &tight).unwrap();
        assert_eq!(algo, Algorithm::AllPairs);
    }

    #[test]
    fn reasons_name_the_deciding_quantity() {
        let (_, r) = any(Algorithm::Auto, 10, 2);
        assert!(r.contains("n = 10"), "{r}");
        let (_, r) = around(Algorithm::Auto, 3, 2);
        assert!(r.contains("3 centers"), "{r}");
        let (_, r) = all(Algorithm::Auto, 9999, 2);
        assert!(r.contains("directory per component"), "{r}");
    }
}
