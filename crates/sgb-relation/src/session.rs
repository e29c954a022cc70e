//! Per-session engine options: one typed surface instead of N setters.
//!
//! Everything the engine lets a session tune about similarity-query
//! execution lives in [`SessionOptions`]: per-operator [`Algorithm`]
//! overrides, the `JOIN-ANY` arbitration seed, and the worker-thread
//! count for the parallel execution paths (future cost-model tunables
//! slot in here too). A [`crate::Database`] is constructed with a
//! set of options ([`crate::Database::with_options`]) and exposes them for
//! later adjustment through one mutable surface
//! ([`crate::Database::session_mut`]); the planner reads them when lowering
//! a similarity clause, resolves `Auto` through the cost model, and records
//! the resolved path *and* why it was chosen on the plan node — so
//! `EXPLAIN` always reports the exact session options a plan was built
//! under.

use std::time::Duration;

use sgb_core::Algorithm;

/// Typed session options for similarity-query execution.
///
/// The defaults leave every operator on [`Algorithm::Auto`] (cost-selected
/// per query from the estimated input cardinality, center count, and
/// dimensionality) with seed 0; overriding an operator pins every query of
/// that operator to the chosen path.
///
/// ```
/// use sgb_core::Algorithm;
/// use sgb_relation::{Database, SessionOptions};
///
/// // Pin SGB-Any to the ε-grid at construction…
/// let opts = SessionOptions::new().with_any_algorithm(Algorithm::Grid);
/// let mut db = Database::with_options(opts);
/// assert_eq!(db.session().any_algorithm, Algorithm::Grid);
/// // …and adjust the session later through one mutable surface.
/// db.session_mut().seed = 42;
/// db.session_mut().any_algorithm = Algorithm::Auto;
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionOptions {
    /// Execution path for `DISTANCE-TO-ALL` queries (every [`Algorithm`]
    /// variant applies).
    pub all_algorithm: Algorithm,
    /// Execution path for `DISTANCE-TO-ANY` queries, one of
    /// [`Algorithm::SGB_ANY`]: `BoundsChecking` is SGB-All-only, and a
    /// query planned under it fails with a clear error.
    pub any_algorithm: Algorithm,
    /// Execution path for `AROUND` queries, one of
    /// [`Algorithm::SGB_AROUND`]: `Auto`, `AllPairs` (the brute center
    /// scan) or `Grid` (the center grid). A query planned under
    /// `BoundsChecking` or `Indexed` fails with a clear error.
    pub around_algorithm: Algorithm,
    /// Seed for `ON-OVERLAP JOIN-ANY` arbitration (reproducible runs).
    pub seed: u64,
    /// Worker threads for the parallelisable execution paths (0 = auto:
    /// the cost model decides per query from the estimated input
    /// cardinality, see `sgb_core::cost::resolve_threads`). Paths with no
    /// parallel twin — all of SGB-All, SGB-Any's non-grid algorithms —
    /// ignore the setting and run on 1 worker. Thread count never affects
    /// results: the parallel paths are bit-identical to their sequential
    /// twins.
    pub threads: usize,
    /// Shared-work caching across the session's queries (on by default):
    /// built spatial indexes — the SGB-Any ε-grid (with ε-superset reuse)
    /// and R-tree, the SGB-Around center grid — plus whole groupings of
    /// exact repeat queries, invalidated by the table's version counter on
    /// any mutation. Caching never changes results, only build work;
    /// `EXPLAIN` reports the disposition per node (`index: cached (hit)` /
    /// `built` / `built (session cache disabled)`) and
    /// [`crate::Database::cache_stats`] the hit/miss/eviction counters.
    pub cache: bool,
    /// Continuous-query registration (on by default):
    /// [`crate::Database::subscribe`] maintains a grouping incrementally
    /// under INSERT / DELETE deltas and publishes immutable
    /// version-stamped snapshots; matching SELECTs are served from the
    /// fresh snapshot (`EXPLAIN` reports `snapshot: subscription #N`).
    /// Turning this off rejects new registrations; subscriptions already
    /// registered keep being maintained.
    pub subscriptions: bool,
    /// Per-statement execution deadline (`None` = unlimited). Each
    /// statement draws a fresh deadline when it starts executing; a
    /// similarity operator that overruns it stops at the next governor
    /// check and the statement fails with
    /// [`crate::Error::Aborted`]`(Timeout)`. A failed statement leaves the
    /// session fully usable: no partial grouping enters the caches or
    /// subscriptions. Also settable through SQL:
    /// `SET STATEMENT_TIMEOUT = 250` (milliseconds; `0` clears it).
    pub statement_timeout: Option<Duration>,
    /// Approximate per-statement memory budget in bytes for building
    /// spatial indexes (`None` = unlimited). When the budget rules out
    /// the SGB-Any ε-grid, `Auto` degrades to the streaming all-pairs
    /// scan (EXPLAIN records the reason); a session-pinned `Grid` fails
    /// with [`crate::Error::Aborted`]`(BudgetExceeded)` instead. A
    /// version-fresh cached grid costs no new memory and is always
    /// admitted.
    pub memory_budget: Option<usize>,
    /// Slow-query threshold (`None` = logging off). A statement whose
    /// wall-clock execution time reaches this duration is appended —
    /// successful or not — to the session's ring-buffer slow-query log
    /// ([`crate::Database::slow_queries`]). Also settable through SQL:
    /// `SET SLOW_QUERY_MS = 250` (milliseconds; `0` clears it).
    pub slow_query: Option<Duration>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        Self {
            all_algorithm: Algorithm::Auto,
            any_algorithm: Algorithm::Auto,
            around_algorithm: Algorithm::Auto,
            seed: 0,
            threads: 0,
            cache: true,
            subscriptions: true,
            statement_timeout: None,
            memory_budget: None,
            slow_query: None,
        }
    }
}

impl SessionOptions {
    /// The default options: every operator on [`Algorithm::Auto`], seed 0,
    /// shared-work caching on.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the `DISTANCE-TO-ALL` execution path.
    #[must_use]
    pub fn with_all_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.all_algorithm = algorithm;
        self
    }

    /// Sets the `DISTANCE-TO-ANY` execution path.
    #[must_use]
    pub fn with_any_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.any_algorithm = algorithm;
        self
    }

    /// Sets the `AROUND` execution path.
    #[must_use]
    pub fn with_around_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.around_algorithm = algorithm;
        self
    }

    /// Sets the `JOIN-ANY` arbitration seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count (0 = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables shared-work caching (indexes + results).
    #[must_use]
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Enables or disables continuous-query registration
    /// ([`crate::Database::subscribe`]).
    #[must_use]
    pub fn with_subscriptions(mut self, subscriptions: bool) -> Self {
        self.subscriptions = subscriptions;
        self
    }

    /// Sets the per-statement execution deadline (`None` = unlimited).
    #[must_use]
    pub fn with_statement_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.statement_timeout = timeout;
        self
    }

    /// Sets the approximate per-statement memory budget in bytes for
    /// spatial-index builds (`None` = unlimited).
    #[must_use]
    pub fn with_memory_budget(mut self, budget: Option<usize>) -> Self {
        self.memory_budget = budget;
        self
    }

    /// Sets the slow-query logging threshold (`None` = logging off).
    #[must_use]
    pub fn with_slow_query(mut self, threshold: Option<Duration>) -> Self {
        self.slow_query = threshold;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_fields() {
        let opts = SessionOptions::new()
            .with_all_algorithm(Algorithm::BoundsChecking)
            .with_any_algorithm(Algorithm::Grid)
            .with_around_algorithm(Algorithm::Indexed)
            .with_seed(7)
            .with_threads(4)
            .with_cache(false)
            .with_subscriptions(false)
            .with_statement_timeout(Some(Duration::from_millis(250)))
            .with_memory_budget(Some(1 << 20))
            .with_slow_query(Some(Duration::from_millis(100)));
        assert_eq!(opts.all_algorithm, Algorithm::BoundsChecking);
        assert_eq!(opts.any_algorithm, Algorithm::Grid);
        assert_eq!(opts.around_algorithm, Algorithm::Indexed);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, 4);
        assert!(!opts.cache);
        assert!(!opts.subscriptions);
        assert_eq!(opts.statement_timeout, Some(Duration::from_millis(250)));
        assert_eq!(opts.memory_budget, Some(1 << 20));
        assert_eq!(opts.slow_query, Some(Duration::from_millis(100)));
    }

    #[test]
    fn defaults_are_auto() {
        let opts = SessionOptions::default();
        assert_eq!(opts.all_algorithm, Algorithm::Auto);
        assert_eq!(opts.any_algorithm, Algorithm::Auto);
        assert_eq!(opts.around_algorithm, Algorithm::Auto);
        assert_eq!(opts.seed, 0);
        assert_eq!(opts.threads, 0, "auto parallelism by default");
        assert!(opts.cache, "shared-work caching on by default");
        assert!(opts.subscriptions, "continuous queries on by default");
        assert_eq!(opts.statement_timeout, None, "no deadline by default");
        assert_eq!(opts.memory_budget, None, "no memory budget by default");
        assert_eq!(opts.slow_query, None, "slow-query logging off by default");
    }
}
