#![warn(missing_docs)]

//! # Engine telemetry: query profiles, a metrics registry, a slow-query log
//!
//! Dependency-free observability primitives for the SGB engine, mirroring
//! the layering of the query governor: the *handle* ([`Telemetry`]) is
//! threaded through the hot paths, and when no profile sink is installed
//! every instrumentation site is a branch on a `None` — no clock reads, no
//! atomic traffic, nothing measurable (the `telemetry` bench bin gates
//! this at < 2% on the SGB-Any grid row, exactly like the governor gate).
//!
//! Three pieces:
//!
//! * [`Telemetry`] / [`QueryProfile`] — a per-query profile: monotonic
//!   phase timers ([`Phase`]: validate, cache probe, index build,
//!   join/scan, DSU merge, aggregation) plus engine counters
//!   ([`Counter`]: candidate pairs visited, cells probed, governor polls,
//!   cache hits/misses, threads used, groups/outliers produced, deltas
//!   applied/rejected). The state is shared (`Arc` + relaxed atomics) so
//!   the relational executor can keep recording into the same profile
//!   after the core operator returns.
//! * [`MetricsRegistry`] — session-scoped monotone counters and
//!   fixed-bucket latency histograms with a hand-rolled Prometheus
//!   text-exposition renderer ([`MetricsRegistry::render`]).
//! * [`SlowQueryLog`] — a bounded ring buffer of statements that overran
//!   the session's `SLOW_QUERY_MS` threshold.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Phases and counters
// ---------------------------------------------------------------------------

/// One monotonic phase timer of a [`QueryProfile`]. The phases follow the
/// source paper's own cost decomposition (index build vs. join vs.
/// grouping), extended with the engine's cache and aggregation stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Coordinate validation (the finite check over every point).
    Validate = 0,
    /// Shared-work cache probe (fingerprint, result lookup).
    CacheProbe = 1,
    /// Spatial-index construction (ε-grid, R-tree, center index).
    IndexBuild = 2,
    /// The candidate join / scan (ε-join, all-pairs scan, center assign).
    Join = 3,
    /// Union-Find merging and group materialisation.
    Merge = 4,
    /// Relational aggregation over the grouping's member lists.
    Aggregate = 5,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 6] = [
        Phase::Validate,
        Phase::CacheProbe,
        Phase::IndexBuild,
        Phase::Join,
        Phase::Merge,
        Phase::Aggregate,
    ];

    /// Stable snake_case name (used in renderings and metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Validate => "validate",
            Phase::CacheProbe => "cache_probe",
            Phase::IndexBuild => "index_build",
            Phase::Join => "join",
            Phase::Merge => "merge",
            Phase::Aggregate => "aggregate",
        }
    }
}

/// One monotone engine counter of a [`QueryProfile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Candidate pairs the join examined before exact verification. The
    /// SGB-Any grid join also counts one per star edge it emits for a cell
    /// whose bounding box passed the ε test as a whole, so every edge it
    /// unions was a candidate.
    CandidatePairs = 0,
    /// Grid cell jobs whose points were compared: the intra-cell job of a
    /// cell with at least two entries, and each neighbour-cell job that
    /// passed the bounding-box prune. Pruned cell pairs do not count.
    CellsProbed = 1,
    /// Cooperative governor polls (deadline / cancellation checks).
    GovernorPolls = 2,
    /// Shared-work cache hits (indexes + whole results).
    CacheHits = 3,
    /// Shared-work cache misses.
    CacheMisses = 4,
    /// Worker threads the execution actually used (high-water mark).
    ThreadsUsed = 5,
    /// Answer groups produced.
    Groups = 6,
    /// Outliers produced (radius-bounded AROUND).
    Outliers = 7,
    /// Incremental maintenance deltas applied.
    DeltasApplied = 8,
    /// Incremental maintenance deltas rejected (fault or governor).
    DeltasRejected = 9,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 10] = [
        Counter::CandidatePairs,
        Counter::CellsProbed,
        Counter::GovernorPolls,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::ThreadsUsed,
        Counter::Groups,
        Counter::Outliers,
        Counter::DeltasApplied,
        Counter::DeltasRejected,
    ];

    /// Stable snake_case name (used in renderings and metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            Counter::CandidatePairs => "candidate_pairs",
            Counter::CellsProbed => "cells_probed",
            Counter::GovernorPolls => "governor_polls",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::ThreadsUsed => "threads_used",
            Counter::Groups => "groups",
            Counter::Outliers => "outliers",
            Counter::DeltasApplied => "deltas_applied",
            Counter::DeltasRejected => "deltas_rejected",
        }
    }
}

const PHASES: usize = Phase::ALL.len();
const COUNTERS: usize = Counter::ALL.len();

/// Shared accumulation state behind an enabled [`Telemetry`] handle.
///
/// All updates are relaxed atomics: the profile is a monotone statistical
/// record, not a synchronisation structure, so parallel shards may add
/// into it concurrently without ordering constraints.
#[derive(Debug, Default)]
pub struct ProfileState {
    phases: [AtomicU64; PHASES],
    counters: [AtomicU64; COUNTERS],
}

impl ProfileState {
    fn snapshot(&self) -> QueryProfile {
        let mut p = QueryProfile::default();
        for (i, slot) in self.phases.iter().enumerate() {
            p.phase_nanos[i] = slot.load(Ordering::Relaxed);
        }
        for (i, slot) in self.counters.iter().enumerate() {
            p.counters[i] = slot.load(Ordering::Relaxed);
        }
        p
    }
}

// ---------------------------------------------------------------------------
// The telemetry handle
// ---------------------------------------------------------------------------

/// The per-query telemetry handle threaded through the engine.
///
/// [`Telemetry::off`] (the default) carries no state: every recording
/// method is an inlined branch on `None` and no clock is ever read — the
/// zero-cost invariant the `telemetry` bench gate pins. [`Telemetry::new`]
/// installs a shared [`ProfileState`] sink; clones share the sink, so the
/// same profile accumulates across layers (core operator, relational
/// executor) and across worker threads.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    state: Option<Arc<ProfileState>>,
}

/// Two handles are equal when their enabled-ness matches. (The handle
/// rides inside query builders that derive `PartialEq`; the accumulated
/// numbers are a statistical record, not part of query identity.)
impl PartialEq for Telemetry {
    fn eq(&self, other: &Self) -> bool {
        self.is_enabled() == other.is_enabled()
    }
}

impl Eq for Telemetry {}

impl Telemetry {
    /// A disabled handle: every recording call is a no-op branch.
    #[inline]
    #[must_use]
    pub fn off() -> Self {
        Self { state: None }
    }

    /// An enabled handle with a fresh profile sink.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: Some(Arc::new(ProfileState::default())),
        }
    }

    /// Whether a profile sink is installed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Adds `n` to a counter. No-op when disabled.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(state) = &self.state {
            state.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raises a counter to at least `n` (high-water mark, e.g. threads
    /// used). No-op when disabled.
    #[inline]
    pub fn record_max(&self, counter: Counter, n: u64) {
        if let Some(state) = &self.state {
            state.counters[counter as usize].fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Starts a phase timer; the elapsed time is added to the phase when
    /// the returned guard drops. When disabled the guard is inert and the
    /// clock is never read.
    #[inline]
    pub fn phase(&self, phase: Phase) -> PhaseTimer<'_> {
        PhaseTimer {
            target: self
                .state
                .as_deref()
                .map(|state| (state, phase, Instant::now())),
        }
    }

    /// Adds raw nanoseconds to a phase (for callers that already hold an
    /// elapsed duration). No-op when disabled.
    #[inline]
    pub fn record_phase_nanos(&self, phase: Phase, nanos: u64) {
        if let Some(state) = &self.state {
            state.phases[phase as usize].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// An owned snapshot of the accumulated profile; `None` when disabled.
    pub fn profile(&self) -> Option<QueryProfile> {
        self.state.as_deref().map(ProfileState::snapshot)
    }
}

/// RAII phase timer returned by [`Telemetry::phase`]; records on drop.
#[derive(Debug)]
pub struct PhaseTimer<'a> {
    target: Option<(&'a ProfileState, Phase, Instant)>,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some((state, phase, start)) = self.target.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            state.phases[phase as usize].fetch_add(nanos, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// QueryProfile snapshots
// ---------------------------------------------------------------------------

/// An owned snapshot of one query's phase timings and engine counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryProfile {
    phase_nanos: [u64; PHASES],
    counters: [u64; COUNTERS],
}

impl QueryProfile {
    /// Nanoseconds accumulated in a phase.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase as usize]
    }

    /// Duration accumulated in a phase.
    pub fn phase(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.phase_nanos(phase))
    }

    /// Value of a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Sum of every phase timer, in nanoseconds.
    pub fn total_phase_nanos(&self) -> u64 {
        self.phase_nanos.iter().copied().sum()
    }

    /// Whether nothing was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.total_phase_nanos() == 0 && self.counters.iter().all(|&c| c == 0)
    }

    /// One-line summary of the non-zero phases, e.g.
    /// `validate 0.1ms, join 2.3ms, merge 0.4ms`.
    pub fn phase_summary(&self) -> String {
        let parts: Vec<String> = Phase::ALL
            .iter()
            .filter(|&&p| self.phase_nanos(p) > 0)
            .map(|&p| format!("{} {:.3}ms", p.name(), self.phase_nanos(p) as f64 / 1e6))
            .collect();
        parts.join(", ")
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Histogram bucket upper bounds, in milliseconds, for every latency
/// histogram in the registry (fixed buckets keep the registry
/// allocation-free per observation and the exposition stable).
pub const LATENCY_BUCKETS_MS: [f64; 10] =
    [0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0];

const BUCKETS: usize = LATENCY_BUCKETS_MS.len() + 1; // + the +Inf bucket

#[derive(Clone, Debug, Default)]
struct Histogram {
    buckets: [u64; BUCKETS],
    sum_ms: f64,
    count: u64,
}

/// `(metric name, rendered label pairs)` — the label string is already in
/// exposition form (`operator="any",algorithm="Grid"`), empty when the
/// metric has no labels. BTreeMap keeps the rendering deterministic.
type MetricKey = (String, String);

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

/// Session-scoped metrics: monotone counters keyed by
/// operator/algorithm/error-class plus fixed-bucket latency histograms,
/// rendered as Prometheus text exposition ([`MetricsRegistry::render`]).
///
/// ```
/// use sgb_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// registry.inc("sgb_statements_total", &[("outcome", "ok")], 1);
/// registry.observe_ms("sgb_statement_ms", &[], 0.42);
/// let text = registry.render();
/// assert!(text.contains("# TYPE sgb_statements_total counter"));
/// assert!(text.contains("sgb_statements_total{outcome=\"ok\"} 1"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

/// Renders label pairs in exposition form, escaping `\`, `"` and newlines
/// in values per the Prometheus text format.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Poison-tolerant lock: the registry holds plain data, so a panic
    /// mid-update can at worst lose that update, never corrupt the map.
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `by` to the counter `name{labels}` (creating it at zero).
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        let key = (name.to_owned(), render_labels(labels));
        let mut inner = self.lock();
        *inner.counters.entry(key).or_insert(0) += by;
    }

    /// Raises the counter `name{labels}` to `value` if it is below it —
    /// for counters mirrored from an external monotone source (the
    /// shared-work `CacheStats` fold-in), so the registry view can never
    /// run ahead of or disagree with the source.
    pub fn record_absolute(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let key = (name.to_owned(), render_labels(labels));
        let mut inner = self.lock();
        let slot = inner.counters.entry(key).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Records one observation, in milliseconds, into the fixed-bucket
    /// latency histogram `name{labels}`.
    pub fn observe_ms(&self, name: &str, labels: &[(&str, &str)], ms: f64) {
        let ms = if ms.is_finite() && ms >= 0.0 { ms } else { 0.0 };
        let key = (name.to_owned(), render_labels(labels));
        let mut inner = self.lock();
        let h = inner.histograms.entry(key).or_default();
        let slot = LATENCY_BUCKETS_MS
            .iter()
            .position(|&le| ms <= le)
            .unwrap_or(BUCKETS - 1);
        h.buckets[slot] += 1;
        h.sum_ms += ms;
        h.count += 1;
    }

    /// Current value of the counter `name{labels}` (0 when never touched).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = (name.to_owned(), render_labels(labels));
        self.lock().counters.get(&key).copied().unwrap_or(0)
    }

    /// Sum of every counter series of `name` across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.lock()
            .counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Number of observations recorded into the histogram series of
    /// `name` across label sets.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.lock()
            .histograms
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, h)| h.count)
            .sum()
    }

    /// Renders the registry as Prometheus text exposition (version 0.0.4):
    /// one `# TYPE` line per metric family, then its series in
    /// deterministic (sorted) order. Histograms render the cumulative
    /// `_bucket` series with `le` labels, plus `_sum` and `_count`.
    pub fn render(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        let mut last_family = "";
        for ((name, labels), value) in &inner.counters {
            if name != last_family {
                out.push_str(&format!("# TYPE {name} counter\n"));
                last_family = name;
            }
            if labels.is_empty() {
                out.push_str(&format!("{name} {value}\n"));
            } else {
                out.push_str(&format!("{name}{{{labels}}} {value}\n"));
            }
        }
        for ((name, labels), h) in &inner.histograms {
            if name != last_family {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                last_family = name;
            }
            let prefix = |extra: &str| -> String {
                if labels.is_empty() && extra.is_empty() {
                    String::new()
                } else if labels.is_empty() {
                    format!("{{{extra}}}")
                } else if extra.is_empty() {
                    format!("{{{labels}}}")
                } else {
                    format!("{{{labels},{extra}}}")
                }
            };
            let mut cumulative = 0u64;
            for (i, &le) in LATENCY_BUCKETS_MS.iter().enumerate() {
                cumulative += h.buckets[i];
                out.push_str(&format!(
                    "{name}_bucket{} {cumulative}\n",
                    prefix(&format!("le=\"{le}\""))
                ));
            }
            cumulative += h.buckets[BUCKETS - 1];
            out.push_str(&format!(
                "{name}_bucket{} {cumulative}\n",
                prefix("le=\"+Inf\"")
            ));
            out.push_str(&format!("{name}_sum{} {}\n", prefix(""), h.sum_ms));
            out.push_str(&format!("{name}_count{} {}\n", prefix(""), h.count));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// Default capacity of the slow-query ring buffer.
pub const SLOW_LOG_CAPACITY: usize = 64;

/// One entry of the slow-query log.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowQuery {
    /// The statement text as submitted.
    pub statement: String,
    /// Wall-clock execution time, milliseconds.
    pub millis: f64,
    /// Outcome note (`ok`, or the error class of a failed statement).
    pub outcome: String,
}

/// A bounded ring buffer of statements that overran the session's
/// slow-query threshold; the oldest entry is dropped once the buffer is
/// full.
#[derive(Debug)]
pub struct SlowQueryLog {
    inner: Mutex<VecDeque<SlowQuery>>,
    capacity: usize,
}

impl Default for SlowQueryLog {
    fn default() -> Self {
        Self::with_capacity(SLOW_LOG_CAPACITY)
    }
}

impl SlowQueryLog {
    /// A log holding at most `capacity` entries (at least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<SlowQuery>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends an entry, evicting the oldest when full.
    pub fn record(&self, entry: SlowQuery) {
        let mut ring = self.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// The logged entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.lock().iter().cloned().collect()
    }

    /// Number of logged entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_reads_no_clock() {
        let tel = Telemetry::off();
        assert!(!tel.is_enabled());
        tel.add(Counter::CandidatePairs, 10);
        tel.record_max(Counter::ThreadsUsed, 4);
        tel.record_phase_nanos(Phase::Join, 1_000);
        {
            let _guard = tel.phase(Phase::Validate);
        }
        assert_eq!(tel.profile(), None);
    }

    #[test]
    fn enabled_handle_accumulates_across_clones() {
        let tel = Telemetry::new();
        let clone = tel.clone();
        tel.add(Counter::CandidatePairs, 3);
        clone.add(Counter::CandidatePairs, 4);
        tel.record_max(Counter::ThreadsUsed, 2);
        clone.record_max(Counter::ThreadsUsed, 1); // high-water mark stays 2
        tel.record_phase_nanos(Phase::Join, 500);
        let profile = tel.profile().unwrap();
        assert_eq!(profile.counter(Counter::CandidatePairs), 7);
        assert_eq!(profile.counter(Counter::ThreadsUsed), 2);
        assert_eq!(profile.phase_nanos(Phase::Join), 500);
        assert!(!profile.is_empty());
        assert!(profile.phase_summary().contains("join"));
    }

    #[test]
    fn phase_timer_records_on_drop() {
        let tel = Telemetry::new();
        {
            let _guard = tel.phase(Phase::Validate);
            std::thread::sleep(Duration::from_millis(1));
        }
        let profile = tel.profile().unwrap();
        assert!(profile.phase_nanos(Phase::Validate) > 0);
        assert_eq!(profile.phase_nanos(Phase::Join), 0);
    }

    #[test]
    fn handles_compare_by_enabledness_only() {
        assert_eq!(Telemetry::off(), Telemetry::off());
        assert_eq!(Telemetry::new(), Telemetry::new());
        assert_ne!(Telemetry::new(), Telemetry::off());
        let a = Telemetry::new();
        a.add(Counter::Groups, 5);
        assert_eq!(a, Telemetry::new());
    }

    #[test]
    fn registry_counters_and_render() {
        let r = MetricsRegistry::new();
        r.inc("sgb_queries_total", &[("operator", "any")], 2);
        r.inc("sgb_queries_total", &[("operator", "all")], 1);
        r.inc("plain_total", &[], 7);
        assert_eq!(
            r.counter_value("sgb_queries_total", &[("operator", "any")]),
            2
        );
        assert_eq!(r.counter_total("sgb_queries_total"), 3);
        let text = r.render();
        assert!(text.contains("# TYPE sgb_queries_total counter"));
        assert!(text.contains("sgb_queries_total{operator=\"any\"} 2"));
        assert!(text.contains("plain_total 7"));
        // One TYPE line per family, not per series.
        assert_eq!(text.matches("# TYPE sgb_queries_total").count(), 1);
    }

    #[test]
    fn registry_absolute_counters_are_monotone() {
        let r = MetricsRegistry::new();
        r.record_absolute("sgb_cache_result_hits_total", &[], 5);
        r.record_absolute("sgb_cache_result_hits_total", &[], 3); // never regresses
        assert_eq!(r.counter_value("sgb_cache_result_hits_total", &[]), 5);
        r.record_absolute("sgb_cache_result_hits_total", &[], 9);
        assert_eq!(r.counter_value("sgb_cache_result_hits_total", &[]), 9);
    }

    #[test]
    fn registry_histograms_render_cumulative_buckets() {
        let r = MetricsRegistry::new();
        r.observe_ms("sgb_statement_ms", &[], 0.07); // 0.1 bucket
        r.observe_ms("sgb_statement_ms", &[], 2.0); // 5.0 bucket
        r.observe_ms("sgb_statement_ms", &[], 5_000.0); // +Inf bucket
        assert_eq!(r.histogram_count("sgb_statement_ms"), 3);
        let text = r.render();
        assert!(text.contains("# TYPE sgb_statement_ms histogram"));
        assert!(text.contains("sgb_statement_ms_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("sgb_statement_ms_bucket{le=\"1000\"} 2"));
        assert!(text.contains("sgb_statement_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("sgb_statement_ms_count 3"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::new();
        r.inc("m_total", &[("msg", "say \"hi\"\\now\n")], 1);
        let text = r.render();
        assert!(text.contains(r#"m_total{msg="say \"hi\"\\now\n"} 1"#));
    }

    #[test]
    fn slow_log_is_a_bounded_ring() {
        let log = SlowQueryLog::with_capacity(2);
        assert!(log.is_empty());
        for i in 0..3 {
            log.record(SlowQuery {
                statement: format!("q{i}"),
                millis: i as f64,
                outcome: "ok".into(),
            });
        }
        let entries = log.entries();
        assert_eq!(log.len(), 2);
        assert_eq!(entries[0].statement, "q1"); // q0 evicted
        assert_eq!(entries[1].statement, "q2");
    }
}
