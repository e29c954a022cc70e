//! Cost-based algorithm selection for the `Auto` variants.
//!
//! Every operator family offers several physically different but
//! semantically identical execution paths; which one wins depends on the
//! workload shape. The `Auto` variant of
//! [`AllAlgorithm`]/[`AnyAlgorithm`]/[`AroundAlgorithm`] delegates the
//! choice to this module, which applies a small cost model over the
//! quantities that actually move the needle — input cardinality, center
//! count, and dimensionality — with thresholds calibrated against the
//! committed benchmark reports at the repository root:
//!
//! * `BENCH_around.json` — the center-R-tree path *loses* to the brute
//!   center scan below roughly 1k centers because index construction
//!   dominates; the brute path stays within ~2× even at 1024 centers.
//!   Hence [`AROUND_BRUTE_MAX_CENTERS`].
//! * `BENCH_metrics.json` / `BENCH_grid.json` — at n = 10k the ε-grid
//!   SGB-Any path beats the on-the-fly R-tree by well over 2×, while below
//!   a few hundred points no index of any kind amortises its construction.
//!   Hence [`ANY_ALL_PAIRS_MAX_N`] / [`ALL_ALL_PAIRS_MAX_N`].
//! * The grid probe examines `5^D` cells per point (the 3^D neighbourhood
//!   plus a one-cell rounding pad), so past [`GRID_MAX_DIMS`] dimensions
//!   the R-tree's adaptive partitioning wins. The shipped operators are
//!   instantiated at 2-D/3-D, where the grid always qualifies.
//!
//! Every resolver returns the chosen *concrete* algorithm together with a
//! human-readable reason; the SQL layer surfaces both through `EXPLAIN`.
//! Resolution never affects results: all concrete paths are proven
//! bit-identical (see the `proptest_grid` suite), so `Auto` only ever
//! changes *when* the answer arrives.

use crate::governor::{QueryGovernor, SgbError};
use crate::{AllAlgorithm, AnyAlgorithm, AroundAlgorithm};

/// Below this input cardinality SGB-All's `Auto` stays with the all-pairs
/// scan: group structures are tiny and building any accelerator costs more
/// than it saves (BENCH_grid.json, small-n rows).
pub const ALL_ALL_PAIRS_MAX_N: usize = 256;

/// Up to this input cardinality SGB-All's `Auto` uses Bounds-Checking:
/// the dense rectangle-directory scan wins every BENCH_grid.json
/// configuration up to n = 10k, and its `O(n · |G|)` growth crosses the
/// R-tree's `O(n log |G|)` right around n = 20k (0.0249s vs 0.0246s).
/// SGB-All's member-grid stays an explicit option but is never
/// auto-chosen: its probes pay per-*member* verification where the
/// rectangle paths pay per-*group* tests, which loses whenever groups
/// grow past a handful of members (BENCH_grid.json, eps >= 0.3 rows).
pub const ALL_BOUNDS_MAX_N: usize = 16_384;

/// Below this input cardinality SGB-Any's `Auto` stays with the all-pairs
/// scan (BENCH_grid.json, small-n rows).
pub const ANY_ALL_PAIRS_MAX_N: usize = 512;

/// Up to this many centers SGB-Around's `Auto` uses the brute center scan:
/// BENCH_around.json shows the R-tree path losing below ~1k centers
/// because index construction dominates the per-tuple savings, and the
/// BENCH_grid.json center sweep brackets the grid's crossover between 64
/// (brute 0.0007s vs grid 0.0038s) and 256 centers (0.0108s vs 0.0080s).
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

/// Resolves the SGB-All algorithm for a known input cardinality `n` in
/// `dims` dimensions. Non-`Auto` inputs pass through unchanged. SGB-All
/// has no cache or budget input: its index tracks the *live groups*,
/// which exist only mid-run, so nothing is shared across queries and
/// nothing table-sized is built up front.
pub fn resolve_all(
    configured_algo: AllAlgorithm,
    n: usize,
    _dims: usize,
) -> (AllAlgorithm, String) {
    match configured_algo {
        AllAlgorithm::Auto => {
            if n <= ALL_ALL_PAIRS_MAX_N {
                (
                    AllAlgorithm::AllPairs,
                    format!(
                        "auto: n = {n} <= {ALL_ALL_PAIRS_MAX_N}, plain scan beats index construction"
                    ),
                )
            } else if n <= ALL_BOUNDS_MAX_N {
                (
                    AllAlgorithm::BoundsChecking,
                    format!(
                        "auto: n = {n} <= {ALL_BOUNDS_MAX_N}, dense rectangle directory wins \
                         (BENCH_grid.json)"
                    ),
                )
            } else {
                (
                    AllAlgorithm::Indexed,
                    format!(
                        "auto: n = {n} > {ALL_BOUNDS_MAX_N}, group R-tree overtakes the linear \
                         rectangle scan (BENCH_grid.json crossover ~20k)"
                    ),
                )
            }
        }
        other => (other, configured()),
    }
}

/// Resolves the SGB-All algorithm for a streaming operator, where the
/// final cardinality is unknown at construction time: `Auto` assumes the
/// scalable regime (streams are open-ended) and picks the group R-tree.
/// One-shot entry points — including the SQL executor — know `n` and use
/// [`resolve_all`] instead.
pub fn resolve_all_streaming(
    configured_algo: AllAlgorithm,
    _dims: usize,
) -> (AllAlgorithm, String) {
    match configured_algo {
        AllAlgorithm::Auto => (
            AllAlgorithm::Indexed,
            "auto: streaming input of unknown cardinality, scalable regime (group R-tree)"
                .to_owned(),
        ),
        other => (other, configured()),
    }
}

/// The cost model's SGB-Any choice for `n` points in `dims` dimensions,
/// before any cache or budget input is considered.
pub(crate) fn any_cost_model(
    configured_algo: AnyAlgorithm,
    n: usize,
    dims: usize,
) -> (AnyAlgorithm, String) {
    match configured_algo {
        AnyAlgorithm::Auto => {
            if n <= ANY_ALL_PAIRS_MAX_N {
                (
                    AnyAlgorithm::AllPairs,
                    format!(
                        "auto: n = {n} <= {ANY_ALL_PAIRS_MAX_N}, plain scan beats index construction"
                    ),
                )
            } else if dims > GRID_MAX_DIMS {
                (
                    AnyAlgorithm::Indexed,
                    format!("auto: {dims}-D exceeds the grid sweet spot (<= {GRID_MAX_DIMS}-D)"),
                )
            } else {
                (
                    AnyAlgorithm::Grid,
                    format!("auto: n = {n} > {ANY_ALL_PAIRS_MAX_N}, eps-grid neighbor scan wins (BENCH_grid.json)"),
                )
            }
        }
        other => (other, configured()),
    }
}

/// Rough upper bound on the resident bytes of an ε-grid over `n` points
/// in `dims` dimensions: each entry stores the point's coordinates plus a
/// payload id, doubled for hash-map slack and per-cell vector headroom,
/// plus a fixed base for the map itself. Deliberately pessimistic — the
/// governor's memory budget is an admission control, not an allocator.
pub fn estimated_grid_bytes(n: usize, dims: usize) -> usize {
    n.saturating_mul(dims * 8 + 8)
        .saturating_mul(2)
        .saturating_add(1024)
}

/// Rough upper bound on the resident bytes of a bulk-loaded point R-tree
/// over `n` points in `dims` dimensions: each leaf entry stores an MBR
/// (two corners) plus a payload id, internal nodes add roughly one entry
/// per fan-out'd child, doubled for arena slack. Like
/// [`estimated_grid_bytes`], deliberately pessimistic — admission control,
/// not an allocator.
pub fn estimated_rtree_bytes(n: usize, dims: usize) -> usize {
    n.saturating_mul(dims * 16 + 16)
        .saturating_mul(2)
        .saturating_add(1024)
}

/// Rough upper bound on the resident bytes of an SGB-Around center index
/// over `centers` centers in `dims` dimensions. The R-tree bound is the
/// pessimistic superset of both concrete center indexes (the grid stores
/// one corner per entry where the tree stores two), so one bound prices
/// either structure.
pub fn estimated_center_index_bytes(centers: usize, dims: usize) -> usize {
    estimated_rtree_bytes(centers, dims)
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
    configured_algo: AnyAlgorithm,
    n: usize,
    dims: usize,
    cached_grid: bool,
    cached_tree: bool,
    governor: &QueryGovernor,
) -> Result<(AnyAlgorithm, String), SgbError> {
    let auto = configured_algo == AnyAlgorithm::Auto;
    let resolved = if auto && cached_grid && dims <= GRID_MAX_DIMS {
        (
            AnyAlgorithm::Grid,
            format!("auto: cached eps-grid for this table version, zero build cost (n = {n})"),
        )
    } else {
        any_cost_model(configured_algo, n, dims)
    };
    let (needed, structure) = match resolved.0 {
        AnyAlgorithm::Grid if !cached_grid => (estimated_grid_bytes(n, dims), "eps-grid"),
        AnyAlgorithm::Indexed if !cached_tree => (estimated_rtree_bytes(n, dims), "point R-tree"),
        _ => return Ok(resolved),
    };
    admit(
        resolved,
        auto,
        needed,
        structure,
        (AnyAlgorithm::AllPairs, "streaming all-pairs scan"),
        governor,
    )
}

/// Admits the build of a `structure` of ~`needed` bytes under the
/// governor's memory budget: over it, `Auto` degrades to the
/// structure-free `fallback` with the reason recorded, and an explicit
/// choice fails.
fn admit<A>(
    resolved: (A, String),
    auto: bool,
    needed: usize,
    structure: &str,
    (fallback, fallback_name): (A, &str),
    governor: &QueryGovernor,
) -> Result<(A, String), SgbError> {
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

/// Resolves the SGB-Any algorithm for a streaming operator — see
/// [`resolve_all_streaming`] for the rationale.
pub fn resolve_any_streaming(configured_algo: AnyAlgorithm, dims: usize) -> (AnyAlgorithm, String) {
    match configured_algo {
        AnyAlgorithm::Auto if dims > GRID_MAX_DIMS => (
            AnyAlgorithm::Indexed,
            format!("auto: streaming input, {dims}-D exceeds the grid sweet spot (<= {GRID_MAX_DIMS}-D)"),
        ),
        AnyAlgorithm::Auto => (
            AnyAlgorithm::Grid,
            "auto: streaming input of unknown cardinality, scalable regime (eps-grid)".to_owned(),
        ),
        other => (other, configured()),
    }
}

/// The cost model's SGB-Around choice from the center count (the quantity
/// the per-tuple cost actually depends on — centers are known up front, so
/// streaming and one-shot paths resolve identically) in `dims`
/// dimensions, before any cache or budget input is considered.
pub(crate) fn around_cost_model(
    configured_algo: AroundAlgorithm,
    centers: usize,
    dims: usize,
) -> (AroundAlgorithm, String) {
    match configured_algo {
        AroundAlgorithm::Auto => {
            if centers <= AROUND_BRUTE_MAX_CENTERS {
                (
                    AroundAlgorithm::BruteForce,
                    format!(
                        "auto: {centers} centers <= {AROUND_BRUTE_MAX_CENTERS}, center scan beats \
                         index construction (BENCH_around.json crossover ~1k)"
                    ),
                )
            } else if dims > GRID_MAX_DIMS {
                (
                    AroundAlgorithm::Indexed,
                    format!("auto: {dims}-D exceeds the grid sweet spot (<= {GRID_MAX_DIMS}-D)"),
                )
            } else {
                (
                    AroundAlgorithm::Grid,
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
/// dimensions, given the algorithm of a center index the session cache
/// holds for exactly these centers (`cached`) and the [`QueryGovernor`]'s
/// memory budget.
///
/// * Center indexes read only the query's centers, so a cached one has
///   zero build cost and `Auto` reuses it even below the brute crossover.
/// * An index build over the budget ([`estimated_center_index_bytes`])
///   degrades `Auto` to the brute center scan, with the fallback recorded;
///   an explicit index path fails instead. A cached index of the resolved
///   shape is always admitted.
///
/// # Errors
/// [`SgbError::BudgetExceeded`] for an explicit index over the budget.
pub fn resolve_around(
    configured_algo: AroundAlgorithm,
    centers: usize,
    dims: usize,
    cached: Option<AroundAlgorithm>,
    governor: &QueryGovernor,
) -> Result<(AroundAlgorithm, String), SgbError> {
    let auto = configured_algo == AroundAlgorithm::Auto;
    let resolved = match cached {
        Some(algo @ (AroundAlgorithm::Grid | AroundAlgorithm::Indexed))
            if auto && dims <= GRID_MAX_DIMS =>
        {
            (
                algo,
                format!("auto: cached center index, zero build cost ({centers} centers)"),
            )
        }
        _ => around_cost_model(configured_algo, centers, dims),
    };
    if !matches!(resolved.0, AroundAlgorithm::Indexed | AroundAlgorithm::Grid)
        || cached == Some(resolved.0)
    {
        return Ok(resolved);
    }
    admit(
        resolved,
        auto,
        estimated_center_index_bytes(centers, dims),
        "center index",
        (AroundAlgorithm::BruteForce, "brute center scan"),
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
pub fn resolve_threads(requested: usize, n: usize) -> (usize, String) {
    if requested > 0 {
        return (requested, configured());
    }
    if n < PARALLEL_MIN_N {
        return (
            1,
            format!("auto: n = {n} < {PARALLEL_MIN_N}, sequential (spawn + merge would dominate)"),
        );
    }
    let available = std::thread::available_parallelism().map_or(1, |p| p.get());
    let useful = (n / (PARALLEL_MIN_N / 2)).max(1);
    let threads = available.min(useful).max(1);
    (
        threads,
        format!("auto: n = {n}, {available} hardware threads, using {threads}"),
    )
}

/// Threads for SGB-All: always 1. The operator's semantics are
/// arrival-order sensitive (ON-OVERLAP arbitration depends on which groups
/// already exist when a point arrives), so there is no parallel twin to be
/// bit-identical to; a requested thread count is accepted and ignored.
pub fn threads_for_all() -> (usize, String) {
    (
        1,
        "sequential: SGB-All arbitration is arrival-order sensitive".to_owned(),
    )
}

/// Threads for a *resolved* (concrete) SGB-Any algorithm: only the ε-grid
/// path shards its close-pair join, so the other paths run sequentially
/// regardless of the request.
pub fn threads_for_any(algorithm: AnyAlgorithm, requested: usize, n: usize) -> (usize, String) {
    match algorithm {
        AnyAlgorithm::Grid => resolve_threads(requested, n),
        _ => (
            1,
            "sequential: only the grid eps-join shards across threads".to_owned(),
        ),
    }
}

/// Threads for SGB-Around over `n` tuples: the nearest-center assignment
/// is independent per tuple, so every concrete algorithm parallelises.
pub fn threads_for_around(requested: usize, n: usize) -> (usize, String) {
    resolve_threads(requested, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`resolve_any`] with nothing cached and no limits.
    fn any(configured: AnyAlgorithm, n: usize, dims: usize) -> (AnyAlgorithm, String) {
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
    fn around(
        configured: AroundAlgorithm,
        centers: usize,
        dims: usize,
    ) -> (AroundAlgorithm, String) {
        resolve_around(
            configured,
            centers,
            dims,
            None,
            &QueryGovernor::unrestricted(),
        )
        .unwrap()
    }

    #[test]
    fn non_auto_passes_through() {
        for algo in [
            AllAlgorithm::AllPairs,
            AllAlgorithm::BoundsChecking,
            AllAlgorithm::Indexed,
            AllAlgorithm::Grid,
        ] {
            let (resolved, reason) = resolve_all(algo, 1_000_000, 2);
            assert_eq!(resolved, algo);
            assert!(reason.contains("configured"), "{reason}");
        }
        assert_eq!(
            any(AnyAlgorithm::AllPairs, 1_000_000, 2).0,
            AnyAlgorithm::AllPairs
        );
        assert_eq!(
            around(AroundAlgorithm::Indexed, 5000, 2).0,
            AroundAlgorithm::Indexed
        );
    }

    #[test]
    fn auto_picks_scan_for_small_inputs() {
        assert_eq!(
            resolve_all(AllAlgorithm::Auto, ALL_ALL_PAIRS_MAX_N, 2).0,
            AllAlgorithm::AllPairs
        );
        assert_eq!(
            any(AnyAlgorithm::Auto, ANY_ALL_PAIRS_MAX_N, 2).0,
            AnyAlgorithm::AllPairs
        );
        assert_eq!(
            around(AroundAlgorithm::Auto, AROUND_BRUTE_MAX_CENTERS, 2).0,
            AroundAlgorithm::BruteForce
        );
    }

    #[test]
    fn auto_tracks_the_benchmarked_winner_per_regime() {
        for dims in [2, 3] {
            // SGB-All: bounds-checking in the mid range, R-tree past the
            // measured ~20k crossover; the member grid is never
            // auto-chosen (it pays per-member verification).
            assert_eq!(
                resolve_all(AllAlgorithm::Auto, 10_000, dims).0,
                AllAlgorithm::BoundsChecking
            );
            assert_eq!(
                resolve_all(AllAlgorithm::Auto, 20_000, dims).0,
                AllAlgorithm::Indexed
            );
            assert_eq!(any(AnyAlgorithm::Auto, 10_000, dims).0, AnyAlgorithm::Grid);
            assert_eq!(
                around(AroundAlgorithm::Auto, 4096, dims).0,
                AroundAlgorithm::Grid
            );
        }
    }

    #[test]
    fn auto_prefers_rtree_in_high_dims() {
        assert_eq!(any(AnyAlgorithm::Auto, 10_000, 5).0, AnyAlgorithm::Indexed);
        assert_eq!(
            around(AroundAlgorithm::Auto, 4096, 4).0,
            AroundAlgorithm::Indexed
        );
        assert_eq!(
            resolve_any_streaming(AnyAlgorithm::Auto, 4).0,
            AnyAlgorithm::Indexed
        );
    }

    #[test]
    fn streaming_resolution_never_returns_auto() {
        let (algo, reason) = resolve_all_streaming(AllAlgorithm::Auto, 2);
        assert_eq!(algo, AllAlgorithm::Indexed);
        assert!(reason.contains("streaming"), "{reason}");
        let (algo, reason) = resolve_any_streaming(AnyAlgorithm::Auto, 2);
        assert_eq!(algo, AnyAlgorithm::Grid);
        assert!(reason.contains("streaming"), "{reason}");
        let (algo, reason) = resolve_all_streaming(AllAlgorithm::BoundsChecking, 2);
        assert_eq!(algo, AllAlgorithm::BoundsChecking);
        assert!(reason.contains("configured"), "{reason}");
    }

    #[test]
    fn explicit_thread_requests_always_win() {
        for n in [1, PARALLEL_MIN_N, 1_000_000] {
            let (t, reason) = resolve_threads(7, n);
            assert_eq!(t, 7);
            assert!(reason.contains("configured"), "{reason}");
        }
    }

    #[test]
    fn auto_threads_stay_sequential_below_the_threshold() {
        for n in [0, 1, PARALLEL_MIN_N - 1] {
            let (t, reason) = resolve_threads(0, n);
            assert_eq!(t, 1);
            assert!(reason.contains("sequential"), "{reason}");
        }
    }

    #[test]
    fn auto_threads_are_bounded_by_useful_work() {
        // A shard must own at least PARALLEL_MIN_N / 2 tuples.
        let (t, _) = resolve_threads(0, PARALLEL_MIN_N);
        assert!(t <= PARALLEL_MIN_N / (PARALLEL_MIN_N / 2));
        let (t, _) = resolve_threads(0, 1_000_000);
        let available = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert!(t >= 1 && t <= available);
    }

    #[test]
    fn operator_thread_policies() {
        // SGB-All never parallelises, even when asked.
        assert_eq!(threads_for_all().0, 1);
        // SGB-Any: only the grid path shards.
        assert_eq!(threads_for_any(AnyAlgorithm::Grid, 3, 100_000).0, 3);
        assert_eq!(threads_for_any(AnyAlgorithm::AllPairs, 3, 100_000).0, 1);
        assert_eq!(threads_for_any(AnyAlgorithm::Indexed, 3, 100_000).0, 1);
        // SGB-Around parallelises on every concrete path.
        assert_eq!(threads_for_around(5, 10).0, 5);
        assert_eq!(threads_for_around(0, 10).0, 1);
    }

    #[test]
    fn cache_aware_resolution_prefers_the_free_index() {
        let free = QueryGovernor::unrestricted();
        let cached_grid =
            |configured, n, dims| resolve_any(configured, n, dims, true, false, &free).unwrap();
        // A cached grid flips Auto onto the grid path even below the
        // build-amortisation threshold…
        let (algo, reason) = cached_grid(AnyAlgorithm::Auto, 10, 2);
        assert_eq!(algo, AnyAlgorithm::Grid);
        assert!(reason.contains("zero build cost"), "{reason}");
        // …but never outside the grid's dimensionality sweet spot, never
        // without a cached index, and never over an explicit choice.
        assert_eq!(
            cached_grid(AnyAlgorithm::Auto, 10_000, 5).0,
            AnyAlgorithm::Indexed
        );
        assert_eq!(
            any(AnyAlgorithm::Auto, 10, 2),
            any_cost_model(AnyAlgorithm::Auto, 10, 2)
        );
        assert_eq!(
            cached_grid(AnyAlgorithm::AllPairs, 10_000, 2).0,
            AnyAlgorithm::AllPairs
        );
        // A cached tree is no reason to leave the cost model's choice.
        assert_eq!(
            resolve_any(AnyAlgorithm::Auto, 10, 2, false, true, &free).unwrap(),
            any(AnyAlgorithm::Auto, 10, 2)
        );

        let (algo, reason) = resolve_around(
            AroundAlgorithm::Auto,
            3,
            2,
            Some(AroundAlgorithm::Grid),
            &free,
        )
        .unwrap();
        assert_eq!(algo, AroundAlgorithm::Grid);
        assert!(reason.contains("zero build cost"), "{reason}");
        assert_eq!(
            around(AroundAlgorithm::Auto, 3, 2),
            around_cost_model(AroundAlgorithm::Auto, 3, 2)
        );
        // A cached brute "index" is no index at all: fall through.
        assert_eq!(
            resolve_around(
                AroundAlgorithm::Auto,
                3,
                2,
                Some(AroundAlgorithm::BruteForce),
                &free
            )
            .unwrap(),
            around(AroundAlgorithm::Auto, 3, 2)
        );
    }

    #[test]
    fn governed_resolution_enforces_the_memory_budget() {
        // No budget: the cost model's choice.
        assert_eq!(
            any(AnyAlgorithm::Auto, 10_000, 2),
            any_cost_model(AnyAlgorithm::Auto, 10_000, 2)
        );
        // A budget too small for the grid degrades Auto to all-pairs…
        let tight = QueryGovernor::unrestricted().with_memory_budget(64);
        let (algo, reason) =
            resolve_any(AnyAlgorithm::Auto, 10_000, 2, false, false, &tight).unwrap();
        assert_eq!(algo, AnyAlgorithm::AllPairs);
        assert!(reason.contains("memory budget"), "{reason}");
        assert!(reason.contains("eps-grid"), "{reason}");
        // …but an explicit Grid request fails loudly instead.
        let err = resolve_any(AnyAlgorithm::Grid, 10_000, 2, false, false, &tight).unwrap_err();
        assert!(matches!(err, SgbError::BudgetExceeded { .. }), "{err:?}");
        // A cached grid allocates nothing new, so the budget never blocks it.
        let (algo, _) = resolve_any(AnyAlgorithm::Auto, 10_000, 2, true, false, &tight).unwrap();
        assert_eq!(algo, AnyAlgorithm::Grid);
        // The estimate grows with n and never panics at the extremes.
        assert!(estimated_grid_bytes(10, 2) < estimated_grid_bytes(10_000, 2));
        let _ = estimated_grid_bytes(usize::MAX, 3);
    }

    #[test]
    fn governed_resolution_prices_the_rtree_build() {
        let tight = QueryGovernor::unrestricted().with_memory_budget(64);
        // Auto in high dimensions resolves to the R-tree, which no longer
        // fits: degrade to the all-pairs scan with the fallback recorded.
        let (algo, reason) =
            resolve_any(AnyAlgorithm::Auto, 10_000, 5, false, false, &tight).unwrap();
        assert_eq!(algo, AnyAlgorithm::AllPairs);
        assert!(reason.contains("memory budget"), "{reason}");
        assert!(reason.contains("R-tree"), "{reason}");
        // An explicit Indexed request fails loudly instead.
        let err = resolve_any(AnyAlgorithm::Indexed, 10_000, 2, false, false, &tight).unwrap_err();
        assert!(matches!(err, SgbError::BudgetExceeded { .. }), "{err:?}");
        // A cached tree allocates nothing new, so it is always admitted.
        let (algo, _) = resolve_any(AnyAlgorithm::Indexed, 10_000, 2, false, true, &tight).unwrap();
        assert_eq!(algo, AnyAlgorithm::Indexed);
        // The estimate grows with n and never panics at the extremes.
        assert!(estimated_rtree_bytes(10, 2) < estimated_rtree_bytes(10_000, 2));
        let _ = estimated_rtree_bytes(usize::MAX, 3);
    }

    #[test]
    fn governed_resolution_prices_the_center_index_build() {
        // No budget: the cost model's choice.
        assert_eq!(
            around(AroundAlgorithm::Auto, 4096, 2),
            around_cost_model(AroundAlgorithm::Auto, 4096, 2)
        );
        let tight = QueryGovernor::unrestricted().with_memory_budget(64);
        // Auto above the brute crossover degrades back to the brute scan…
        let (algo, reason) = resolve_around(AroundAlgorithm::Auto, 4096, 2, None, &tight).unwrap();
        assert_eq!(algo, AroundAlgorithm::BruteForce);
        assert!(reason.contains("memory budget"), "{reason}");
        assert!(reason.contains("brute center scan"), "{reason}");
        // …while explicit index requests fail loudly.
        for explicit in [AroundAlgorithm::Indexed, AroundAlgorithm::Grid] {
            let err = resolve_around(explicit, 4096, 2, None, &tight).unwrap_err();
            assert!(matches!(err, SgbError::BudgetExceeded { .. }), "{err:?}");
        }
        // A cached index of the resolved shape is admitted under any budget.
        let (algo, _) = resolve_around(
            AroundAlgorithm::Grid,
            4096,
            2,
            Some(AroundAlgorithm::Grid),
            &tight,
        )
        .unwrap();
        assert_eq!(algo, AroundAlgorithm::Grid);
        // The brute scan needs no structure, so it always passes.
        let (algo, _) = resolve_around(AroundAlgorithm::BruteForce, 4096, 2, None, &tight).unwrap();
        assert_eq!(algo, AroundAlgorithm::BruteForce);
    }

    #[test]
    fn reasons_name_the_deciding_quantity() {
        let (_, r) = any(AnyAlgorithm::Auto, 10, 2);
        assert!(r.contains("n = 10"), "{r}");
        let (_, r) = around(AroundAlgorithm::Auto, 3, 2);
        assert!(r.contains("3 centers"), "{r}");
        let (_, r) = resolve_all(AllAlgorithm::Auto, 9999, 2);
        assert!(r.contains("rectangle directory"), "{r}");
    }
}
