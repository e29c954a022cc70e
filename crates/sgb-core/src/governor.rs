//! Query governance: deadlines, cooperative cancellation, and memory
//! budgets for the long-running operator loops.
//!
//! The paper positions SGB as a first-class operator inside a DBMS, and a
//! DBMS operator must run under statement timeouts, be cancellable from
//! another thread, and degrade gracefully under resource pressure. This
//! module is the engine-side half of that contract:
//!
//! * [`SgbError`] — the typed failure taxonomy. Governed execution never
//!   returns a partial [`Grouping`](crate::query::Grouping): an aborted
//!   query yields exactly one of these errors and nothing else observable
//!   (nothing enters any cache, no maintained state is half-published).
//! * [`CancelToken`] — a cheaply clonable flag a controller thread flips
//!   to stop a running query at its next governance check.
//! * [`QueryGovernor`] — deadline + cancel token + approximate memory
//!   budget, checked periodically inside the hot loops (grid ε-join, DSU
//!   merge, nearest-center assignment, incremental delta application) via
//!   [`Pacer`], which amortises the clock read over
//!   [`CHECK_INTERVAL`]-sized batches of work.
//!
//! The governed entry points are
//! [`SgbQuery::try_run`](crate::SgbQuery::try_run) /
//! [`try_run_cached`](crate::SgbQuery::try_run_cached) and the
//! incremental [`MaintainedGrouping::try_insert`](crate::MaintainedGrouping::try_insert) /
//! [`try_delete`](crate::MaintainedGrouping::try_delete). Every query runs
//! through that one governed body: the infallible `run` / `run_cached`
//! pass [`QueryGovernor::unrestricted`], whose checks are a pair of `None`
//! tests amortised over [`CHECK_INTERVAL`]-sized batches of work, and
//! panic only where they always have (non-finite input).
//!
//! ```
//! use std::time::Duration;
//! use sgb_core::{QueryGovernor, SgbError, SgbQuery};
//! use sgb_geom::Point;
//!
//! let points: Vec<Point<2>> = (0..100).map(|i| Point::new([i as f64, 0.0])).collect();
//! // Unrestricted: behaves exactly like `run`.
//! let gov = QueryGovernor::unrestricted();
//! let out = SgbQuery::any(1.5).try_run(&points, &gov).unwrap();
//! assert_eq!(out.num_groups(), 1);
//! // Pre-cancelled: the query never starts.
//! let token = sgb_core::CancelToken::new();
//! token.cancel();
//! let gov = QueryGovernor::unrestricted().with_cancel_token(token);
//! assert_eq!(SgbQuery::any(1.5).try_run(&points, &gov), Err(SgbError::Cancelled));
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the governed execution paths fail. The taxonomy replaces the
/// user-reachable panics of the infallible entry points: everything a
/// caller can trigger with data or governance (as opposed to a misuse of
/// the builder API, which still panics at construction) comes back as one
/// of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SgbError {
    /// The governor's deadline passed before the query completed.
    Timeout,
    /// The query's [`CancelToken`] was cancelled.
    Cancelled,
    /// The memory budget rules out the only execution path that could
    /// run (an explicitly requested index exceeds the budget, so there
    /// is no cheaper path to fall back to).
    BudgetExceeded {
        /// Approximate bytes the rejected structure would need.
        needed: usize,
        /// The configured budget in bytes.
        budget: usize,
    },
    /// A worker thread panicked mid-query; the panic payload's message.
    /// The remaining shards were cancelled and the pool is reusable.
    WorkerPanicked {
        /// The panic message (conventional `&str`/`String` payloads).
        message: String,
    },
    /// An input point (or AROUND center) has a non-finite coordinate.
    NonFinite,
}

impl std::fmt::Display for SgbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgbError::Timeout => write!(f, "query deadline exceeded"),
            SgbError::Cancelled => write!(f, "query cancelled"),
            SgbError::BudgetExceeded { needed, budget } => write!(
                f,
                "memory budget exceeded: index needs ~{needed} bytes, budget is {budget}"
            ),
            SgbError::WorkerPanicked { message } => {
                write!(f, "worker thread panicked: {message}")
            }
            SgbError::NonFinite => {
                write!(f, "points must have finite coordinates")
            }
        }
    }
}

impl std::error::Error for SgbError {}

/// A cooperative cancellation flag. Clone it (cheap — one `Arc`) into a
/// controller thread and call [`cancel`](Self::cancel); every governed
/// query holding the token observes the flag at its next governance check
/// and returns [`SgbError::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Resource governance for one query execution: an optional deadline, an
/// optional [`CancelToken`], and an optional approximate memory budget.
///
/// Shared by reference into every shard of a parallel run (`&QueryGovernor`
/// is `Sync`), so one deadline governs all workers. Construction is
/// builder-style from [`unrestricted`](Self::unrestricted); an
/// unrestricted governor's [`check`](Self::check) is a pair of `None`
/// tests.
#[derive(Clone, Debug, Default)]
pub struct QueryGovernor {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    memory_budget: Option<usize>,
}

impl QueryGovernor {
    /// A governor with no deadline, no cancel token, and no memory budget:
    /// `check` always succeeds. This is what the infallible entry points
    /// execute under.
    #[must_use]
    pub fn unrestricted() -> Self {
        Self::default()
    }

    /// Sets the deadline to `timeout` from now.
    #[must_use]
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Sets the deadline to an absolute instant (for callers amortising
    /// one deadline over several engine calls, e.g. a SQL statement).
    #[must_use]
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the approximate memory budget in bytes. The budget governs
    /// *index construction* (the dominant allocation): `Auto` resolution
    /// falls back to a streaming path when the ε-grid estimate exceeds the
    /// budget, and an explicitly requested over-budget index fails with
    /// [`SgbError::BudgetExceeded`].
    #[must_use]
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// The configured memory budget, if any.
    #[must_use]
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }

    /// `true` when no deadline, token, or budget is configured — governed
    /// code may skip per-iteration pacing entirely.
    #[must_use]
    pub fn is_unrestricted(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none() && self.memory_budget.is_none()
    }

    /// One governance check: cancellation first (cheaper and more
    /// deliberate than a clock read), then the deadline.
    ///
    /// # Errors
    /// [`SgbError::Cancelled`] / [`SgbError::Timeout`].
    #[inline]
    pub fn check(&self) -> Result<(), SgbError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(SgbError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(SgbError::Timeout);
            }
        }
        Ok(())
    }

    /// Admission check for building a structure of approximately `bytes`:
    /// fails with [`SgbError::BudgetExceeded`] when a budget is set and
    /// the estimate exceeds it.
    ///
    /// # Errors
    /// [`SgbError::BudgetExceeded`].
    pub fn admit(&self, bytes: usize) -> Result<(), SgbError> {
        match self.memory_budget {
            Some(budget) if bytes > budget => Err(SgbError::BudgetExceeded {
                needed: bytes,
                budget,
            }),
            _ => Ok(()),
        }
    }

    /// Whether a structure of approximately `bytes` fits the budget
    /// (always `true` without one) — the `Auto` fallback predicate.
    #[must_use]
    pub fn fits_budget(&self, bytes: usize) -> bool {
        self.memory_budget.map_or(true, |budget| bytes <= budget)
    }
}

/// Work units between two governance checks. A clock read costs tens of
/// nanoseconds; amortised over 1024 pair verifications or point
/// assignments it disappears into the noise (the CI bench gate pins an
/// armed governor's overhead below 2%), while still bounding the reaction time
/// to a deadline or cancellation by about a thousand loop iterations.
pub const CHECK_INTERVAL: u32 = 1024;

/// An amortising ticker for governance checks inside hot loops: call
/// [`tick`](Self::tick) once per work unit; only every
/// [`CHECK_INTERVAL`]-th call performs the actual [`QueryGovernor::check`].
/// One `Pacer` per thread — shards each own one while sharing the governor.
#[derive(Debug, Default)]
pub struct Pacer {
    count: u32,
}

impl Pacer {
    /// A fresh pacer whose first check happens after [`CHECK_INTERVAL`]
    /// ticks (callers check once before entering the loop).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one unit of work, checking the governor every
    /// [`CHECK_INTERVAL`] calls.
    ///
    /// # Errors
    /// Whatever [`QueryGovernor::check`] reports.
    #[inline]
    pub fn tick(&mut self, governor: &QueryGovernor) -> Result<(), SgbError> {
        self.count = self.count.wrapping_add(1);
        if self.count % CHECK_INTERVAL == 0 {
            governor.check()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrestricted_always_passes() {
        let gov = QueryGovernor::unrestricted();
        assert!(gov.is_unrestricted());
        assert_eq!(gov.check(), Ok(()));
        assert_eq!(gov.admit(usize::MAX), Ok(()));
        assert!(gov.fits_budget(usize::MAX));
    }

    #[test]
    fn expired_deadline_times_out() {
        let gov = QueryGovernor::unrestricted().with_deadline(Duration::ZERO);
        assert!(!gov.is_unrestricted());
        assert_eq!(gov.check(), Err(SgbError::Timeout));
        // A generous deadline passes.
        let gov = QueryGovernor::unrestricted().with_deadline(Duration::from_secs(3600));
        assert_eq!(gov.check(), Ok(()));
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let token = CancelToken::new();
        let gov = QueryGovernor::unrestricted()
            .with_deadline(Duration::ZERO)
            .with_cancel_token(token.clone());
        assert_eq!(gov.check(), Err(SgbError::Timeout), "not yet cancelled");
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(gov.check(), Err(SgbError::Cancelled));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn budget_admission() {
        let gov = QueryGovernor::unrestricted().with_memory_budget(1000);
        assert_eq!(gov.memory_budget(), Some(1000));
        assert_eq!(gov.admit(1000), Ok(()));
        assert!(gov.fits_budget(1000));
        assert!(!gov.fits_budget(1001));
        assert_eq!(
            gov.admit(1001),
            Err(SgbError::BudgetExceeded {
                needed: 1001,
                budget: 1000
            })
        );
    }

    #[test]
    fn pacer_checks_only_at_the_interval() {
        // A pre-cancelled governor: the pacer must pass until the
        // interval-th tick, then fail.
        let token = CancelToken::new();
        token.cancel();
        let gov = QueryGovernor::unrestricted().with_cancel_token(token);
        let mut pacer = Pacer::new();
        for _ in 0..CHECK_INTERVAL - 1 {
            assert_eq!(pacer.tick(&gov), Ok(()));
        }
        assert_eq!(pacer.tick(&gov), Err(SgbError::Cancelled));
    }

    #[test]
    fn errors_display_their_cause() {
        assert_eq!(SgbError::Timeout.to_string(), "query deadline exceeded");
        assert_eq!(SgbError::Cancelled.to_string(), "query cancelled");
        assert!(SgbError::BudgetExceeded {
            needed: 10,
            budget: 5
        }
        .to_string()
        .contains("~10 bytes"));
        assert!(SgbError::WorkerPanicked {
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
        assert_eq!(
            SgbError::NonFinite.to_string(),
            "points must have finite coordinates"
        );
    }
}
