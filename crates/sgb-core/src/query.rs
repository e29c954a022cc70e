//! The unified operator surface: one builder, one result, one stream.
//!
//! The three similarity group-by operators share almost all of their
//! vocabulary — a metric δ, an execution-path selector, thresholds — and
//! differ only in their membership rule. This module exposes that family
//! as **one declarative query type** instead of three parallel config
//! stacks:
//!
//! * [`SgbQuery`] — a single builder with one constructor per operator
//!   ([`SgbQuery::all`], [`SgbQuery::any`], [`SgbQuery::around`]) and the
//!   shared knobs declared once ([`metric`](SgbQuery::metric),
//!   [`algorithm`](SgbQuery::algorithm) over the unified [`Algorithm`]
//!   enum, …). Operator-specific knobs
//!   ([`overlap`](SgbQuery::overlap), [`max_radius`](SgbQuery::max_radius),
//!   …) panic when applied to an operator that has no such concept, so a
//!   nonsensical query fails at construction, not mid-execution.
//! * [`Grouping`] — a single answer-set type covering the whole family:
//!   member lists, the `ELIMINATE`d set, the radius-bounded outlier set,
//!   and the resolved execution path with the cost model's reason (the
//!   same story `EXPLAIN` tells at the SQL layer).
//! * [`SgbStream`] — a single streaming operator wrapping the per-operator
//!   engines behind one `push`/`finish` interface.
//!
//! Each operator has **one execution body** — governed, cache-aware and
//! telemetry-aware — and the four run entry points wrap it: the `try_`
//! forms pass the caller's [`QueryGovernor`], [`run`](SgbQuery::run) and
//! [`run_cached`](SgbQuery::run_cached) an unrestricted one. The legacy
//! `sgb_all`/`sgb_any`/`sgb_around` entry points share the same code, so
//! their groupings are **bit-identical** (`tests/api_equivalence.rs`).
//!
//! ```
//! use sgb_core::{Algorithm, SgbQuery};
//! use sgb_geom::{Metric, Point};
//!
//! let points: Vec<Point<2>> = vec![
//!     Point::new([1.0, 1.0]),
//!     Point::new([2.0, 2.0]),
//!     Point::new([9.0, 9.0]),
//! ];
//! // Connected components within ε = 1.5 under L2:
//! let out = SgbQuery::any(1.5).metric(Metric::L2).run(&points);
//! assert_eq!(out.sorted_sizes(), vec![2, 1]);
//! assert_eq!(out.resolved_algorithm(), Algorithm::AllPairs); // tiny n
//!
//! // The same family, grouped around query-supplied centers:
//! let centers = vec![Point::new([1.0, 1.0]), Point::new([9.0, 9.0])];
//! let out = SgbQuery::around(centers).max_radius(2.0).run(&points);
//! assert_eq!(out.num_groups(), 2);
//! assert!(out.outliers().is_empty());
//! ```

use std::sync::Arc;

use sgb_geom::{Metric, Point};
use sgb_spatial::{Grid, RTree};

use sgb_telemetry::{Counter, Phase, QueryProfile, Telemetry};

use crate::any;
use crate::around::{build_center_index, AroundGrouping};
use crate::cache::SgbCache;
use crate::governor::{QueryGovernor, SgbError};
use crate::grouping::Grouping as FlatGrouping;
use crate::{
    cost, Algorithm, AnyAlgorithm, AroundAlgorithm, OverlapAction, RecordId, SgbAll, SgbAllConfig,
    SgbAny, SgbAnyConfig, SgbAround, SgbAroundConfig,
};

/// The unified answer set of the SGB operator family (Definition 3, plus
/// the order-independent extensions of arXiv:1412.4303).
///
/// One type covers all three operators:
///
/// * [`groups`](Self::groups) — the answer groups, each a member list of
///   record ids in join order. SGB-All reports cliques in creation order,
///   SGB-Any connected components keyed by smallest member, SGB-Around
///   the non-empty center groups in center order.
/// * [`eliminated`](Self::eliminated) — records dropped by SGB-All's
///   `ON-OVERLAP ELIMINATE` (empty for everything else).
/// * [`outliers`](Self::outliers) — records beyond the radius bound of
///   SGB-Around's `WITHIN r` (empty for everything else). They are **not**
///   part of [`groups`](Self::groups); [`output_groups`](Self::output_groups)
///   appends them as one trailing group, which is how the SQL layer emits
///   them.
/// * [`resolved_algorithm`](Self::resolved_algorithm) /
///   [`selection_reason`](Self::selection_reason) — the concrete execution
///   path the run used and why, in the same vocabulary `EXPLAIN` prints.
///
/// Equality compares the **answer sets only** (groups, eliminated,
/// outliers); the execution metadata is deliberately excluded so results
/// produced by different algorithms compare equal exactly when the
/// grouping semantics say they should.
#[derive(Clone, Debug)]
pub struct Grouping {
    groups: Vec<Vec<RecordId>>,
    eliminated: Vec<RecordId>,
    outliers: Vec<RecordId>,
    algorithm: Algorithm,
    selection: String,
    threads: usize,
    /// The telemetry handle the producing run recorded into — off unless
    /// the query had one installed ([`SgbQuery::telemetry`]). Carrying the
    /// live handle (not a snapshot) lets later stages — the relational
    /// aggregation, for one — keep recording into the same profile; a
    /// snapshot is materialised on demand by [`Grouping::profile`].
    telemetry: Telemetry,
}

impl Grouping {
    /// An empty grouping: no groups, nothing eliminated, no outliers —
    /// what any query produces over empty input. Useful as the identity
    /// value of total wrappers that sometimes have nothing to run.
    #[must_use]
    pub fn empty() -> Self {
        Grouping {
            groups: Vec::new(),
            eliminated: Vec::new(),
            outliers: Vec::new(),
            algorithm: Algorithm::AllPairs,
            selection: "empty input, nothing ran".to_owned(),
            threads: 1,
            telemetry: Telemetry::off(),
        }
    }

    /// Wraps a flat SGB-All / SGB-Any answer set.
    pub(crate) fn from_flat(
        flat: FlatGrouping,
        algorithm: Algorithm,
        selection: String,
        threads: usize,
    ) -> Self {
        Grouping {
            groups: flat.groups,
            eliminated: flat.eliminated,
            outliers: Vec::new(),
            algorithm,
            selection,
            threads,
            telemetry: Telemetry::off(),
        }
    }

    /// Wraps an SGB-Around answer set: non-empty center groups in center
    /// order, outliers kept as the explicit outlier set.
    pub(crate) fn from_around(
        around: AroundGrouping,
        algorithm: Algorithm,
        selection: String,
        threads: usize,
    ) -> Self {
        Grouping {
            groups: around
                .groups
                .into_iter()
                .filter(|g| !g.is_empty())
                .collect(),
            eliminated: Vec::new(),
            outliers: around.outliers,
            algorithm,
            selection,
            threads,
            telemetry: Telemetry::off(),
        }
    }

    /// The flat SGB-All / SGB-Any answer set (groups and the eliminated
    /// set) — what the legacy one-shot entry points return.
    pub(crate) fn into_flat(self) -> FlatGrouping {
        FlatGrouping {
            groups: self.groups,
            eliminated: self.eliminated,
        }
    }

    /// The answer groups (member record ids in join order).
    #[must_use]
    pub fn groups(&self) -> &[Vec<RecordId>] {
        &self.groups
    }

    /// Iterates over the answer groups.
    pub fn iter(&self) -> impl Iterator<Item = &[RecordId]> {
        self.groups.iter().map(Vec::as_slice)
    }

    /// The answer groups plus — when any exist — the outlier set as one
    /// trailing group: the relational output shape (`GROUP BY … AROUND …
    /// WITHIN r` emits the outlier group last).
    pub fn output_groups(&self) -> impl Iterator<Item = &[RecordId]> {
        self.groups
            .iter()
            .map(Vec::as_slice)
            .chain((!self.outliers.is_empty()).then_some(self.outliers.as_slice()))
    }

    /// Records dropped by `ON-OVERLAP ELIMINATE`, in elimination order.
    #[must_use]
    pub fn eliminated(&self) -> &[RecordId] {
        &self.eliminated
    }

    /// Records beyond the SGB-Around radius bound, in arrival order.
    #[must_use]
    pub fn outliers(&self) -> &[RecordId] {
        &self.outliers
    }

    /// Number of answer groups (the outlier set is not counted; see
    /// [`output_groups`](Self::output_groups)).
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total number of records placed in answer groups.
    #[must_use]
    pub fn grouped_records(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Group sizes in group order.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        self.groups.iter().map(Vec::len).collect()
    }

    /// Group sizes in descending order (order-insensitive comparisons).
    #[must_use]
    pub fn sorted_sizes(&self) -> Vec<usize> {
        let mut s = self.sizes();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s
    }

    /// The concrete execution path this grouping was produced by
    /// (never [`Algorithm::Auto`] — `Auto` is resolved before running).
    #[must_use]
    pub fn resolved_algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Why [`resolved_algorithm`](Self::resolved_algorithm) was chosen:
    /// `"configured explicitly"` or the cost model's reason — the same
    /// text the SQL layer's `EXPLAIN` prints after `path:`.
    #[must_use]
    pub fn selection_reason(&self) -> &str {
        &self.selection
    }

    /// How many worker threads the run actually used (1 for every
    /// sequential path, including all of SGB-All). Like
    /// [`resolved_algorithm`](Self::resolved_algorithm), this is execution
    /// metadata: it never influences the answer sets and is excluded from
    /// equality.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The query profile recorded while producing this grouping — phase
    /// timings (validate, index build, join, merge, …) and engine counters
    /// (candidate pairs, cells probed, cache hits, …). `None` unless the
    /// query installed a telemetry handle ([`SgbQuery::telemetry`]). Like
    /// [`threads`](Self::threads), this is execution metadata, excluded
    /// from equality.
    #[must_use]
    pub fn profile(&self) -> Option<QueryProfile> {
        self.telemetry.profile()
    }

    /// The live telemetry handle behind [`profile`](Self::profile), so
    /// downstream stages (relational aggregation) can keep recording into
    /// the same sink after the operator returns.
    #[must_use]
    pub fn telemetry_handle(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Installs the telemetry handle this grouping reports through.
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Maps each record id in `0..n` to the index of the answer group
    /// containing it (`None` for eliminated, outlier, or never-seen
    /// records).
    #[must_use]
    pub fn assignment(&self, n: usize) -> Vec<Option<usize>> {
        let mut out = vec![None; n];
        for (gi, g) in self.groups.iter().enumerate() {
            for &r in g {
                debug_assert!(r < n, "record id out of range");
                debug_assert!(out[r].is_none(), "record {r} in two groups");
                out[r] = Some(gi);
            }
        }
        out
    }

    /// A canonical form: members sorted within each group, groups sorted
    /// by first member, eliminated/outliers sorted. Two groupings are
    /// semantically equal as sets of sets iff their normalized forms are
    /// equal. Metadata is preserved.
    #[must_use]
    pub fn normalized(&self) -> Grouping {
        let mut groups: Vec<Vec<RecordId>> = self
            .groups
            .iter()
            .map(|g| {
                let mut g = g.clone();
                g.sort_unstable();
                g
            })
            .collect();
        groups.sort();
        let mut eliminated = self.eliminated.clone();
        eliminated.sort_unstable();
        let mut outliers = self.outliers.clone();
        outliers.sort_unstable();
        Grouping {
            groups,
            eliminated,
            outliers,
            algorithm: self.algorithm,
            selection: self.selection.clone(),
            threads: self.threads,
            telemetry: self.telemetry.clone(),
        }
    }

    /// Asserts internal consistency for `n` input records: every record
    /// appears in at most one group, never both grouped and
    /// eliminated/outlier. Intended for tests.
    pub fn check_partition(&self, n: usize) {
        let mut seen = vec![false; n];
        for g in &self.groups {
            assert!(!g.is_empty(), "output groups must be non-empty");
            for &r in g {
                assert!(r < n, "record {r} out of range {n}");
                assert!(!seen[r], "record {r} appears twice");
                seen[r] = true;
            }
        }
        for &r in self.eliminated.iter().chain(&self.outliers) {
            assert!(r < n, "record {r} out of range {n}");
            assert!(!seen[r], "record {r} appears twice");
            seen[r] = true;
        }
    }
}

impl PartialEq for Grouping {
    fn eq(&self, other: &Self) -> bool {
        // Metadata (algorithm, selection reason) is excluded on purpose:
        // equality is about the answer sets.
        self.groups == other.groups
            && self.eliminated == other.eliminated
            && self.outliers == other.outliers
    }
}

impl Eq for Grouping {}

impl<'a> IntoIterator for &'a Grouping {
    type Item = &'a [RecordId];
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, Vec<RecordId>>,
        fn(&'a Vec<RecordId>) -> &'a [RecordId],
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.groups.iter().map(Vec::as_slice)
    }
}

/// The operator-specific part of a query: which membership rule applies
/// and its private knobs.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum OpSpec<const D: usize> {
    /// SGB-All: ε-cliques with `ON-OVERLAP` arbitration.
    All { eps: f64, overlap: OverlapAction },
    /// SGB-Any: connected components of the ε-threshold graph.
    Any { eps: f64 },
    /// SGB-Around: nearest of a fixed center set, optional radius bound.
    Around {
        centers: Vec<Point<D>>,
        max_radius: Option<f64>,
    },
}

impl<const D: usize> OpSpec<D> {
    fn name(&self) -> &'static str {
        match self {
            OpSpec::All { .. } => "SGB-All",
            OpSpec::Any { .. } => "SGB-Any",
            OpSpec::Around { .. } => "SGB-Around",
        }
    }
}

/// One declarative query over the SGB operator family.
///
/// Construct with [`SgbQuery::all`] / [`SgbQuery::any`] /
/// [`SgbQuery::around`], refine with the builder knobs, then either
/// [`run`](Self::run) over a complete point set or [`stream`](Self::stream)
/// points in arrival order.
///
/// Knob defaults match the legacy per-operator configs exactly (`L2`,
/// `Auto`, `JOIN-ANY`, seed `0x5EED`, hull threshold 16, R-tree fan-out
/// 12), so migrating a call site never changes its grouping.
///
/// ```
/// use sgb_core::{Algorithm, OverlapAction, SgbQuery};
/// use sgb_geom::{Metric, Point};
///
/// let q = SgbQuery::all(3.0)
///     .metric(Metric::LInf)
///     .overlap(OverlapAction::Eliminate)
///     .algorithm(Algorithm::Indexed);
/// let out = q.run(&[
///     Point::new([1.0, 7.0]),
///     Point::new([2.0, 6.0]),
///     Point::new([6.0, 2.0]),
///     Point::new([7.0, 1.0]),
///     Point::new([4.0, 4.0]),
/// ]);
/// assert_eq!(out.sorted_sizes(), vec![2, 2]); // the overlapping point drops
/// assert_eq!(out.eliminated(), &[4]);
/// assert_eq!(out.resolved_algorithm(), Algorithm::Indexed);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SgbQuery<const D: usize> {
    pub(crate) op: OpSpec<D>,
    metric: Metric,
    algorithm: Algorithm,
    seed: u64,
    hull_threshold: usize,
    rtree_fanout: usize,
    threads: usize,
    /// Profile sink for this query's executions ([`Telemetry::off`] by
    /// default — zero-cost; see the `telemetry` bench gate). Excluded from
    /// [`fingerprint`](Self::fingerprint): observing a query never changes
    /// its cache identity.
    telemetry: Telemetry,
}

/// The default R-tree fan-out of a freshly-built query (shared with the
/// SQL layer, whose cache probes must key on the same value the executor
/// will build with).
pub const DEFAULT_RTREE_FANOUT: usize = 12;

impl<const D: usize> SgbQuery<D> {
    fn new(op: OpSpec<D>) -> Self {
        Self {
            op,
            metric: Metric::default(),
            algorithm: Algorithm::default(),
            seed: 0x5EED,
            hull_threshold: 16,
            rtree_fanout: DEFAULT_RTREE_FANOUT,
            threads: 0,
            telemetry: Telemetry::off(),
        }
    }

    /// An SGB-All (distance-to-*all*, ε-clique) query with threshold
    /// `eps`. Panics on a non-finite or negative ε.
    #[must_use]
    pub fn all(eps: f64) -> Self {
        assert!(
            eps >= 0.0 && eps.is_finite(),
            "epsilon must be finite and non-negative"
        );
        Self::new(OpSpec::All {
            eps,
            overlap: OverlapAction::default(),
        })
    }

    /// An SGB-Any (distance-to-*any*, connected-component) query with
    /// threshold `eps`. Panics on a non-finite or negative ε.
    #[must_use]
    pub fn any(eps: f64) -> Self {
        assert!(
            eps >= 0.0 && eps.is_finite(),
            "epsilon must be finite and non-negative"
        );
        Self::new(OpSpec::Any { eps })
    }

    /// An SGB-Around (nearest-center) query around `centers`. Panics on an
    /// empty center list or non-finite center coordinates (the SQL parser
    /// rejects both earlier with proper errors).
    #[must_use]
    pub fn around(centers: Vec<Point<D>>) -> Self {
        assert!(!centers.is_empty(), "AROUND requires at least one center");
        assert!(
            centers.iter().all(Point::is_finite),
            "centers must have finite coordinates"
        );
        Self::new(OpSpec::Around {
            centers,
            max_radius: None,
        })
    }

    // -- shared knobs --------------------------------------------------------

    /// Sets the distance function δ (default `L2`).
    #[must_use]
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Selects the execution path (default [`Algorithm::Auto`], resolved
    /// by the cost model at run time). Panics when the algorithm does not
    /// exist for this query's operator (`BoundsChecking` is SGB-All-only).
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        let applicable = match self.op {
            OpSpec::All { .. } => true,
            OpSpec::Any { .. } => algorithm.for_any().is_some(),
            OpSpec::Around { .. } => algorithm.for_around().is_some(),
        };
        assert!(
            applicable,
            "{algorithm} is not an execution path of {} (valid: Auto, AllPairs, Indexed, Grid)",
            self.op.name()
        );
        self.algorithm = algorithm;
        self
    }

    /// Sets the R-tree fan-out of the indexed paths (default 12).
    #[must_use]
    pub fn rtree_fanout(mut self, fanout: usize) -> Self {
        assert!(fanout >= 4, "R-tree fan-out must be at least 4");
        self.rtree_fanout = fanout;
        self
    }

    /// Sets the worker-thread count for [`run`](Self::run) (default 0 =
    /// auto: the cost model decides, see
    /// [`cost::resolve_threads`]). Accepted on every operator — paths with
    /// no parallel twin (all of SGB-All, SGB-Any's non-grid algorithms)
    /// resolve back to 1 worker rather than rejecting the knob, so one
    /// session-level setting can apply to a whole workload. Thread count
    /// never affects results; the actual count used is reported by
    /// [`Grouping::threads`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Installs a telemetry handle: every subsequent execution records its
    /// phase timings and engine counters into the handle's shared profile,
    /// and the produced [`Grouping`] reports it via
    /// [`Grouping::profile`]. The default is [`Telemetry::off`], under
    /// which every instrumentation site is a no-op branch — the hot paths
    /// stay byte-for-byte on their pre-telemetry codegen (pinned by the
    /// `telemetry` bench gate at < 2% overhead).
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    // -- operator-specific knobs ---------------------------------------------

    /// Sets SGB-All's `ON-OVERLAP` action (default `JOIN-ANY`). Panics for
    /// SGB-Any / SGB-Around, which have no overlap concept.
    #[must_use]
    pub fn overlap(mut self, action: OverlapAction) -> Self {
        match &mut self.op {
            OpSpec::All { overlap, .. } => *overlap = action,
            other => panic!("ON-OVERLAP applies only to SGB-All, not {}", other.name()),
        }
        self
    }

    /// Sets SGB-All's `JOIN-ANY` arbitration seed (default `0x5EED`).
    /// Panics for SGB-Any / SGB-Around, whose groupings are
    /// deterministic without one.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        match &self.op {
            OpSpec::All { .. } => self.seed = seed,
            other => panic!(
                "the JOIN-ANY seed applies only to SGB-All, not {}",
                other.name()
            ),
        }
        self
    }

    /// Sets SGB-All's convex-hull caching threshold (default 16;
    /// `usize::MAX` disables the hull refinement). Panics for SGB-Any /
    /// SGB-Around, which never refine through hulls.
    #[must_use]
    pub fn hull_threshold(mut self, members: usize) -> Self {
        match &self.op {
            OpSpec::All { .. } => self.hull_threshold = members.max(1),
            other => panic!(
                "the hull threshold applies only to SGB-All, not {}",
                other.name()
            ),
        }
        self
    }

    /// Sets SGB-Around's maximum radius (the `WITHIN r` clause): records
    /// farther than `r` from every center join the explicit outlier set.
    /// Panics for SGB-All / SGB-Any (their `WITHIN` is the ε threshold,
    /// set at construction).
    #[must_use]
    pub fn max_radius(mut self, r: f64) -> Self {
        assert!(
            r >= 0.0 && r.is_finite(),
            "radius must be finite and non-negative"
        );
        match &mut self.op {
            OpSpec::Around { max_radius, .. } => *max_radius = Some(r),
            other => panic!(
                "the radius bound applies only to SGB-Around, not {}",
                other.name()
            ),
        }
        self
    }

    // -- introspection -------------------------------------------------------

    /// The operator family member this query runs (`"SGB-All"`,
    /// `"SGB-Any"`, or `"SGB-Around"`).
    #[must_use]
    pub fn operator(&self) -> &'static str {
        self.op.name()
    }

    /// The configured distance function.
    #[must_use]
    pub fn configured_metric(&self) -> Metric {
        self.metric
    }

    /// The configured execution path (possibly [`Algorithm::Auto`]).
    #[must_use]
    pub fn configured_algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The configured worker-thread count (0 = auto).
    #[must_use]
    pub fn configured_threads(&self) -> usize {
        self.threads
    }

    /// The ε threshold (SGB-All / SGB-Any) — `None` for SGB-Around, whose
    /// `WITHIN` is the radius bound.
    #[must_use]
    pub fn eps(&self) -> Option<f64> {
        match &self.op {
            OpSpec::All { eps, .. } | OpSpec::Any { eps } => Some(*eps),
            OpSpec::Around { .. } => None,
        }
    }

    /// The center list (SGB-Around only).
    #[must_use]
    pub fn centers(&self) -> Option<&[Point<D>]> {
        match &self.op {
            OpSpec::Around { centers, .. } => Some(centers),
            _ => None,
        }
    }

    /// The radius bound (SGB-Around only; `None` when unbounded or for
    /// the other operators).
    #[must_use]
    pub fn radius_bound(&self) -> Option<f64> {
        match &self.op {
            OpSpec::Around { max_radius, .. } => *max_radius,
            _ => None,
        }
    }

    // -- lowering ------------------------------------------------------------

    pub(crate) fn all_config(&self, eps: f64, overlap: OverlapAction) -> SgbAllConfig {
        SgbAllConfig::new(eps)
            .metric(self.metric)
            .overlap(overlap)
            .seed(self.seed)
            .hull_threshold(self.hull_threshold)
            .rtree_fanout(self.rtree_fanout)
    }

    pub(crate) fn around_config(
        &self,
        centers: Vec<Point<D>>,
        max_radius: Option<f64>,
    ) -> SgbAroundConfig<D> {
        let mut cfg = SgbAroundConfig::new(centers)
            .metric(self.metric)
            .rtree_fanout(self.rtree_fanout);
        if let Some(r) = max_radius {
            cfg = cfg.max_radius(r);
        }
        cfg
    }

    // -- execution -----------------------------------------------------------

    /// Records the result-shape counters and attaches this query's
    /// telemetry handle to an outgoing grouping (cache-stored copies keep
    /// their inert handle — attachment happens on the value returned to
    /// the caller, after any `store_result`).
    fn finalize(&self, mut out: Grouping) -> Grouping {
        if self.telemetry.is_enabled() {
            self.telemetry.add(Counter::Groups, out.groups.len() as u64);
            self.telemetry
                .add(Counter::Outliers, out.outliers.len() as u64);
            self.telemetry
                .record_max(Counter::ThreadsUsed, out.threads as u64);
        }
        out.telemetry = self.telemetry.clone();
        out
    }

    /// Runs the query over a complete point set: [`try_run`](Self::try_run)
    /// under [`QueryGovernor::unrestricted`].
    ///
    /// [`Algorithm::Auto`] resolves from the true cardinality (or center
    /// count) via the cost model; the resolution and its reason are
    /// recorded on the returned [`Grouping`]. Results never depend on the
    /// resolution — every concrete path is bit-identical.
    ///
    /// # Panics
    /// `"points must have finite coordinates"` if any point has a
    /// non-finite coordinate (where [`try_run`](Self::try_run) returns
    /// [`SgbError::NonFinite`]).
    #[must_use]
    pub fn run(&self, points: &[Point<D>]) -> Grouping {
        infallible(self.execute(points, &QueryGovernor::unrestricted(), None))
    }

    /// Runs the query through a shared-work [`SgbCache`]:
    /// [`try_run_cached`](Self::try_run_cached) under
    /// [`QueryGovernor::unrestricted`].
    ///
    /// # Panics
    /// Like [`run`](Self::run) if any point has a non-finite coordinate.
    #[must_use]
    pub fn run_cached(&self, points: &[Point<D>], cache: &SgbCache<D>, version: u64) -> Grouping {
        infallible(self.execute(
            points,
            &QueryGovernor::unrestricted(),
            Some((cache, version)),
        ))
    }

    /// Runs the query under a [`QueryGovernor`], returning a typed
    /// [`SgbError`] instead of panicking or running away.
    ///
    /// * Non-finite coordinates yield [`SgbError::NonFinite`] (where
    ///   [`run`](Self::run) panics).
    /// * A deadline or cancellation aborts the hot loops within
    ///   [`governor::CHECK_INTERVAL`](crate::governor::CHECK_INTERVAL)
    ///   units of work per worker — [`SgbError::Timeout`] /
    ///   [`SgbError::Cancelled`].
    /// * A memory budget too small for the SGB-Any ε-grid degrades
    ///   [`Algorithm::Auto`] to the O(1)-memory all-pairs scan (the reason
    ///   on the grouping records the fallback); an explicitly requested
    ///   grid fails with [`SgbError::BudgetExceeded`] instead.
    /// * A panic on a parallel worker is captured and surfaced as
    ///   [`SgbError::WorkerPanicked`] — never a process abort, never a
    ///   poisoned lock.
    ///
    /// On `Ok`, the grouping is **bit-identical** to [`run`](Self::run)
    /// under the same knobs (modulo the recorded reason when the budget
    /// forced a fallback). On `Err`, every partial structure is dropped —
    /// no partial grouping is observable anywhere.
    pub fn try_run(
        &self,
        points: &[Point<D>],
        governor: &QueryGovernor,
    ) -> Result<Grouping, SgbError> {
        self.execute(points, governor, None)
    }

    /// [`try_run`](Self::try_run) through a shared-work [`SgbCache`],
    /// reusing spatial indexes (and whole results) built by earlier queries
    /// over the same point set.
    ///
    /// `version` is the caller's monotone counter for the point set: bump
    /// it on every content change and cached state from older versions is
    /// dropped, never served. Under an unchanged version the cache
    /// supplies:
    ///
    /// * the SGB-Any ε-grid — including **ε-superset reuse**, where one
    ///   grid serves nearby larger ε values by widening the probe window;
    /// * the SGB-Any point R-tree (keyed on fan-out);
    /// * the SGB-Around center index — version-free, since it is built
    ///   from the query's centers, never the table;
    /// * the complete [`Grouping`] of an exact repeat query;
    /// * the once-per-version finiteness validation, skipping the O(n·d)
    ///   scan on every warm execution.
    ///
    /// [`Algorithm::Auto`] resolves cache-aware ([`cost::resolve_any`] /
    /// [`cost::resolve_around`]): a cached index has zero build cost, so
    /// it can win below the cold crossover, and is admitted past the
    /// memory budget (running against it allocates nothing new). Whatever
    /// path runs, the answer sets are **bit-identical** to
    /// [`try_run`](Self::try_run) — index probes verify with the canonical
    /// predicate and SGB-Any's component extraction is union-order
    /// insensitive.
    ///
    /// Failure hygiene: a grouping is stored in the result cache **only on
    /// success** — a failed execution never plants a partial answer for a
    /// later query to reuse. Spatial indexes the cache finished building
    /// before the failure remain cached; they are complete,
    /// version-checked structures, so reusing them later is sound.
    pub fn try_run_cached(
        &self,
        points: &[Point<D>],
        cache: &SgbCache<D>,
        version: u64,
        governor: &QueryGovernor,
    ) -> Result<Grouping, SgbError> {
        self.execute(points, governor, Some((cache, version)))
    }

    /// The one execution body behind every run entry point: validate,
    /// probe the result cache, run the operator, store the result. The
    /// per-operator arms poll `governor` in their hot loops and record into
    /// the query's telemetry handle; with `cache` they take indexes from
    /// (and publish them to) the cache, without it they build fresh ones
    /// and never compute a fingerprint.
    fn execute(
        &self,
        points: &[Point<D>],
        governor: &QueryGovernor,
        cache: Option<(&SgbCache<D>, u64)>,
    ) -> Result<Grouping, SgbError> {
        let tel = &self.telemetry;
        // One shared contract for the whole family: non-finite coordinates
        // are rejected here, at the query boundary (once per version when
        // a cache remembers the check), so every operator arm — including
        // the parallel bulk paths, which bypass the streaming `push`
        // asserts — fails identically and early.
        let validate = tel.phase(Phase::Validate);
        let finite = match cache {
            Some((cache, version)) => cache.points_finite(version, points),
            None => points.iter().all(Point::is_finite),
        };
        drop(validate);
        if !finite {
            return Err(SgbError::NonFinite);
        }
        governor.check()?;
        let fingerprint = match cache {
            Some((cache, version)) => {
                let probe = tel.phase(Phase::CacheProbe);
                let fingerprint = self.fingerprint();
                let hit = cache.lookup_result(version, &fingerprint);
                drop(probe);
                if let Some(hit) = hit {
                    tel.add(Counter::CacheHits, 1);
                    return Ok(self.finalize(hit));
                }
                tel.add(Counter::CacheMisses, 1);
                Some(fingerprint)
            }
            None => None,
        };
        let out = match &self.op {
            OpSpec::All { eps, overlap } => self.execute_all(points, *eps, *overlap, governor)?,
            OpSpec::Any { eps } => self.execute_any(points, *eps, governor, cache)?,
            OpSpec::Around {
                centers,
                max_radius,
            } => self.execute_around(points, centers, *max_radius, governor, cache)?,
        };
        if let (Some((cache, version)), Some(fingerprint)) = (cache, fingerprint) {
            cache.store_result(version, fingerprint, out.clone());
        }
        Ok(self.finalize(out))
    }

    /// SGB-All: the streaming engine fed in arrival order (its arbitration
    /// is order-sensitive, so it never parallelises), with a governor
    /// check per tuple — each push does a candidate search, so the check
    /// is cheap relative to the work it bounds. It builds no reusable
    /// structure (its index tracks the *live groups*, which exist only
    /// mid-run), so only the whole result is cacheable.
    fn execute_all(
        &self,
        points: &[Point<D>],
        eps: f64,
        overlap: OverlapAction,
        governor: &QueryGovernor,
    ) -> Result<Grouping, SgbError> {
        let tel = &self.telemetry;
        let (resolved, reason) = cost::resolve_all(self.algorithm.for_all(), points.len(), D);
        let (threads, _) = cost::threads_for_all();
        let cfg = self.all_config(eps, overlap).algorithm(resolved);
        let join = tel.phase(Phase::Join);
        let mut op = SgbAll::new(cfg);
        for p in points {
            governor.check()?;
            op.push(*p);
        }
        drop(join);
        tel.add(Counter::CandidatePairs, op.candidates_tested());
        tel.add(Counter::GovernorPolls, 1 + points.len() as u64);
        let merge = tel.phase(Phase::Merge);
        let flat = op.finish();
        drop(merge);
        Ok(Grouping::from_flat(flat, resolved.into(), reason, threads))
    }

    /// SGB-Any: resolve against the cache view and the memory budget, take
    /// the point index from the cache or build it fresh, and run its batch
    /// kernel.
    fn execute_any(
        &self,
        points: &[Point<D>],
        eps: f64,
        governor: &QueryGovernor,
        cache: Option<(&SgbCache<D>, u64)>,
    ) -> Result<Grouping, SgbError> {
        let tel = &self.telemetry;
        let (n, metric, fanout) = (points.len(), self.metric, self.rtree_fanout);
        let base = self.algorithm.for_any().expect("validated by algorithm()");
        let (resolved, reason) = cost::resolve_any(
            base,
            n,
            D,
            cache.is_some_and(|(cache, version)| cache.has_usable_grid(version, eps)),
            cache.is_some_and(|(cache, version)| cache.has_tree(version, fanout)),
            governor,
        )?;
        let (threads, _) = cost::threads_for_any(resolved, self.threads, n);
        let entries = || points.iter().enumerate().map(|(i, p)| (*p, i));
        // The resolver admitted any index build under the budget.
        let flat = match resolved {
            AnyAlgorithm::Indexed => {
                let build = tel.phase(Phase::IndexBuild);
                let fresh = || RTree::from_points(fanout, entries());
                let index = match cache {
                    Some((cache, version)) => cache.get_or_build_tree(version, fanout, fresh),
                    None => Arc::new(fresh()),
                };
                drop(build);
                any::join_tree(points, eps, metric, &index, governor, tel)?
            }
            AnyAlgorithm::Grid => {
                let build = tel.phase(Phase::IndexBuild);
                let fresh = |side| Grid::from_points(side, entries());
                let index = match cache {
                    Some((cache, version)) => cache.get_or_build_grid(version, eps, fresh),
                    None => Arc::new(fresh(Grid::<D, RecordId>::side_for_eps(eps))),
                };
                drop(build);
                any::join_grid(points, eps, metric, &index, threads, governor, tel)?
            }
            // Resolution never yields `Auto`; it shares the scan's arm.
            AnyAlgorithm::AllPairs | AnyAlgorithm::Auto => {
                any::join_all_pairs(points, eps, metric, governor, tel)?
            }
        };
        Ok(Grouping::from_flat(flat, resolved.into(), reason, threads))
    }

    /// SGB-Around: resolve against the cached center index and the memory
    /// budget, take the center index from the cache or build it fresh
    /// (the index-build phase), then assign the batch (the join).
    fn execute_around(
        &self,
        points: &[Point<D>],
        centers: &[Point<D>],
        max_radius: Option<f64>,
        governor: &QueryGovernor,
        cache: Option<(&SgbCache<D>, u64)>,
    ) -> Result<Grouping, SgbError> {
        let tel = &self.telemetry;
        let fanout = self.rtree_fanout;
        let base = self
            .algorithm
            .for_around()
            .expect("validated by algorithm()");
        let cached = cache.and_then(|(cache, _)| cache.cached_center_algorithm(centers, fanout));
        let (resolved, reason) = cost::resolve_around(base, centers.len(), D, cached, governor)?;
        let (threads, _) = cost::threads_for_around(self.threads, points.len());
        let cfg = self
            .around_config(centers.to_vec(), max_radius)
            .algorithm(resolved)
            .threads(threads);
        let build = tel.phase(Phase::IndexBuild);
        let index = match (cache, resolved) {
            (Some((cache, _)), AroundAlgorithm::Indexed | AroundAlgorithm::Grid) => {
                cache.get_or_build_center_index(resolved, fanout, centers)
            }
            // The brute scan has no structure worth caching.
            _ => Arc::new(build_center_index(resolved, fanout, centers)),
        };
        let mut op = SgbAround::with_center_index(cfg, index);
        drop(build);
        let join = tel.phase(Phase::Join);
        op.try_extend_from_slice(points, governor)?;
        drop(join);
        // Approximate candidate count: the brute scan compares every point
        // against every center; the indexed paths probe once per point.
        let per_point = match resolved {
            AroundAlgorithm::BruteForce => centers.len() as u64,
            _ => 1,
        };
        tel.add(Counter::CandidatePairs, points.len() as u64 * per_point);
        let merge = tel.phase(Phase::Merge);
        let around = op.finish();
        drop(merge);
        Ok(Grouping::from_around(
            around,
            resolved.into(),
            reason,
            threads,
        ))
    }

    /// A total encoding of every knob that can influence this query's
    /// grouping *or its metadata* — the key of the whole-result cache.
    /// Floats enter by bit pattern (all finite by construction).
    fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![
            self.metric as u64,
            self.algorithm as u64,
            self.seed,
            self.hull_threshold as u64,
            self.rtree_fanout as u64,
            self.threads as u64,
        ];
        match &self.op {
            OpSpec::All { eps, overlap } => {
                fp.extend([1, eps.to_bits(), *overlap as u64]);
            }
            OpSpec::Any { eps } => fp.extend([2, eps.to_bits()]),
            OpSpec::Around {
                centers,
                max_radius,
            } => {
                fp.extend([
                    3,
                    max_radius.is_some() as u64,
                    max_radius.unwrap_or(0.0).to_bits(),
                    centers.len() as u64,
                ]);
                fp.extend(
                    centers
                        .iter()
                        .flat_map(|p| p.coords().iter().map(|c| c.to_bits())),
                );
            }
        }
        fp
    }

    /// Turns the query into a streaming operator: push points in arrival
    /// order, then [`finish`](SgbStream::finish).
    ///
    /// A stream's final cardinality is unknown at construction, so
    /// [`Algorithm::Auto`] resolves to the scalable regime for SGB-All /
    /// SGB-Any (see [`cost::resolve_all_streaming`]); SGB-Around knows its
    /// center count up front and resolves exactly like [`run`](Self::run).
    #[must_use]
    pub fn stream(self) -> SgbStream<D> {
        let (inner, algorithm, selection) = match &self.op {
            OpSpec::All { eps, overlap } => {
                let (resolved, reason) = cost::resolve_all_streaming(self.algorithm.for_all(), D);
                let cfg = self.all_config(*eps, *overlap).algorithm(resolved);
                (
                    StreamInner::All(Box::new(SgbAll::new(cfg))),
                    resolved.into(),
                    reason,
                )
            }
            OpSpec::Any { eps } => {
                let base = self.algorithm.for_any().expect("validated by algorithm()");
                let (resolved, reason) = cost::resolve_any_streaming(base, D);
                let cfg = SgbAnyConfig::new(*eps)
                    .metric(self.metric)
                    .rtree_fanout(self.rtree_fanout)
                    .algorithm(resolved);
                (
                    StreamInner::Any(Box::new(SgbAny::new(cfg))),
                    resolved.into(),
                    reason,
                )
            }
            OpSpec::Around {
                centers,
                max_radius,
            } => {
                let base = self
                    .algorithm
                    .for_around()
                    .expect("validated by algorithm()");
                let (resolved, reason) = cost::around_cost_model(base, centers.len(), D);
                let cfg = self
                    .around_config(centers.clone(), *max_radius)
                    .algorithm(resolved);
                (
                    StreamInner::Around(Box::new(SgbAround::new(cfg))),
                    resolved.into(),
                    reason,
                )
            }
        };
        SgbStream {
            inner,
            algorithm,
            selection,
        }
    }
}

/// The outcome of an execution under [`QueryGovernor::unrestricted`],
/// which fails only where the infallible entry points document a panic
/// (non-finite coordinates) or when a worker panicked — re-raised here.
fn infallible(result: Result<Grouping, SgbError>) -> Grouping {
    match result {
        Ok(grouping) => grouping,
        Err(e) => panic!("{e}"),
    }
}

/// The per-operator engine behind a [`SgbStream`]. The engines are boxed:
/// their sizes differ by hundreds of bytes (SGB-All carries the overlap
/// machinery), and a stream is created once per query, so one allocation
/// buys a small uniform stack footprint.
#[derive(Debug)]
enum StreamInner<const D: usize> {
    All(Box<SgbAll<D>>),
    Any(Box<SgbAny<D>>),
    Around(Box<SgbAround<D>>),
}

/// The unified streaming operator: push points in arrival order, then
/// [`finish`](Self::finish) to materialise the [`Grouping`].
///
/// ```
/// use sgb_core::SgbQuery;
/// use sgb_geom::Point;
///
/// let mut stream = SgbQuery::any(3.0).stream();
/// for p in [[1.0, 1.0], [2.0, 2.0], [9.0, 9.0]] {
///     stream.push(Point::new(p));
/// }
/// assert_eq!(stream.len(), 3);
/// assert_eq!(stream.finish().sorted_sizes(), vec![2, 1]);
/// ```
#[derive(Debug)]
pub struct SgbStream<const D: usize> {
    inner: StreamInner<D>,
    algorithm: Algorithm,
    selection: String,
}

impl<const D: usize> SgbStream<D> {
    /// Processes one point, returning its record id (its zero-based
    /// arrival position).
    pub fn push(&mut self, p: Point<D>) -> RecordId {
        match &mut self.inner {
            StreamInner::All(op) => op.push(p),
            StreamInner::Any(op) => op.push(p),
            StreamInner::Around(op) => op.push(p),
        }
    }

    /// Number of points processed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            StreamInner::All(op) => op.len(),
            StreamInner::Any(op) => op.len(),
            StreamInner::Around(op) => op.len(),
        }
    }

    /// `true` before the first point arrives.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The concrete execution path this stream runs with
    /// ([`Algorithm::Auto`] resolved at construction).
    #[must_use]
    pub fn resolved_algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Why [`resolved_algorithm`](Self::resolved_algorithm) was chosen.
    #[must_use]
    pub fn selection_reason(&self) -> &str {
        &self.selection
    }

    /// Completes the operator and materialises the answer groups.
    #[must_use]
    pub fn finish(self) -> Grouping {
        // Streams process points in arrival order one at a time; every
        // streaming path is sequential by construction.
        match self.inner {
            StreamInner::All(op) => {
                Grouping::from_flat(op.finish(), self.algorithm, self.selection, 1)
            }
            StreamInner::Any(op) => {
                Grouping::from_flat(op.finish(), self.algorithm, self.selection, 1)
            }
            StreamInner::Around(op) => {
                Grouping::from_around(op.finish(), self.algorithm, self.selection, 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sgb_all, sgb_any};

    fn pts(raw: &[[f64; 2]]) -> Vec<Point<2>> {
        raw.iter().map(|&c| Point::new(c)).collect()
    }

    /// Figure 2 of the paper.
    fn fig2() -> Vec<Point<2>> {
        pts(&[[1.0, 7.0], [2.0, 6.0], [6.0, 2.0], [7.0, 1.0], [4.0, 4.0]])
    }

    #[test]
    fn run_matches_legacy_entry_points() {
        let points = fig2();
        for algorithm in [
            Algorithm::Auto,
            Algorithm::AllPairs,
            Algorithm::BoundsChecking,
            Algorithm::Indexed,
            Algorithm::Grid,
        ] {
            let new = SgbQuery::all(3.0)
                .metric(Metric::LInf)
                .algorithm(algorithm)
                .run(&points);
            let old = sgb_all(
                &points,
                &SgbAllConfig::new(3.0)
                    .metric(Metric::LInf)
                    .algorithm(algorithm.for_all()),
            );
            assert_eq!(new.groups(), old.groups.as_slice(), "{algorithm}");
            assert_eq!(new.eliminated(), old.eliminated.as_slice(), "{algorithm}");
        }
        let new = SgbQuery::any(3.0).metric(Metric::LInf).run(&points);
        let old = sgb_any(&points, &SgbAnyConfig::new(3.0).metric(Metric::LInf));
        assert_eq!(new.groups(), old.groups.as_slice());
    }

    #[test]
    fn around_outliers_are_explicit_and_output_groups_append_them() {
        let centers = pts(&[[0.0, 0.0], [10.0, 10.0]]);
        let points = pts(&[[1.0, 1.0], [9.0, 9.5], [5.0, 5.0]]);
        let out = SgbQuery::around(centers).max_radius(3.0).run(&points);
        assert_eq!(out.groups(), &[vec![0], vec![1]]);
        assert_eq!(out.outliers(), &[2]);
        assert_eq!(out.num_groups(), 2);
        let shaped: Vec<&[RecordId]> = out.output_groups().collect();
        assert_eq!(shaped, vec![&[0][..], &[1][..], &[2][..]]);
        out.check_partition(3);
    }

    #[test]
    fn resolution_is_recorded() {
        let out = SgbQuery::any(0.5).run(&pts(&[[0.0, 0.0], [1.0, 1.0]]));
        assert_eq!(out.resolved_algorithm(), Algorithm::AllPairs);
        assert!(out.selection_reason().contains("n = 2"));
        let explicit = SgbQuery::any(0.5)
            .algorithm(Algorithm::Grid)
            .run(&pts(&[[0.0, 0.0]]));
        assert_eq!(explicit.resolved_algorithm(), Algorithm::Grid);
        assert_eq!(explicit.selection_reason(), "configured explicitly");
    }

    #[test]
    fn equality_ignores_execution_metadata() {
        let points = fig2();
        let a = SgbQuery::all(3.0)
            .metric(Metric::LInf)
            .algorithm(Algorithm::AllPairs)
            .run(&points);
        let b = SgbQuery::all(3.0)
            .metric(Metric::LInf)
            .algorithm(Algorithm::Indexed)
            .run(&points);
        assert_ne!(a.resolved_algorithm(), b.resolved_algorithm());
        assert_eq!(a, b);
    }

    #[test]
    fn stream_matches_run_for_order_independent_ops() {
        let points = fig2();
        let mut stream = SgbQuery::any(3.0).metric(Metric::LInf).stream();
        for p in &points {
            stream.push(*p);
        }
        assert_eq!(
            stream.finish(),
            SgbQuery::any(3.0).metric(Metric::LInf).run(&points)
        );

        let centers = pts(&[[1.0, 7.0], [7.0, 1.0]]);
        let q = SgbQuery::around(centers).max_radius(2.5);
        let mut stream = q.clone().stream();
        assert!(stream.is_empty());
        for p in &points {
            stream.push(*p);
        }
        assert_eq!(stream.len(), points.len());
        assert_eq!(stream.finish(), q.run(&points));
    }

    #[test]
    fn streaming_auto_resolves_to_the_scalable_regime() {
        let s = SgbQuery::<2>::all(1.0).stream();
        assert_eq!(s.resolved_algorithm(), Algorithm::Indexed);
        assert!(s.selection_reason().contains("streaming"));
        let s = SgbQuery::<2>::any(1.0).stream();
        assert_eq!(s.resolved_algorithm(), Algorithm::Grid);
    }

    #[test]
    #[should_panic(expected = "not an execution path of SGB-Any")]
    fn bounds_checking_rejected_for_any() {
        let _ = SgbQuery::<2>::any(1.0).algorithm(Algorithm::BoundsChecking);
    }

    #[test]
    #[should_panic(expected = "not an execution path of SGB-Around")]
    fn bounds_checking_rejected_for_around() {
        let _ = SgbQuery::around(pts(&[[0.0, 0.0]])).algorithm(Algorithm::BoundsChecking);
    }

    #[test]
    #[should_panic(expected = "ON-OVERLAP applies only to SGB-All")]
    fn overlap_rejected_for_any() {
        let _ = SgbQuery::<2>::any(1.0).overlap(OverlapAction::Eliminate);
    }

    #[test]
    #[should_panic(expected = "radius bound applies only to SGB-Around")]
    fn radius_rejected_for_all() {
        let _ = SgbQuery::<2>::all(1.0).max_radius(1.0);
    }

    #[test]
    #[should_panic(expected = "seed applies only to SGB-All")]
    fn seed_rejected_for_around() {
        let _ = SgbQuery::around(pts(&[[0.0, 0.0]])).seed(7);
    }

    #[test]
    #[should_panic(expected = "at least one center")]
    fn around_rejects_empty_centers() {
        let _ = SgbQuery::<2>::around(Vec::new());
    }

    #[test]
    fn threads_knob_is_accepted_on_every_operator() {
        let points = fig2();
        // SGB-All accepts the knob but always runs sequentially: the
        // ON-OVERLAP arbitration is arrival-order sensitive.
        let out = SgbQuery::all(3.0).threads(7).run(&points);
        assert_eq!(out.threads(), 1);
        assert_eq!(out, SgbQuery::all(3.0).run(&points));
        // SGB-Any: the knob is honored only on the grid path.
        let out = SgbQuery::any(3.0)
            .algorithm(Algorithm::Grid)
            .threads(2)
            .run(&points);
        assert_eq!(out.threads(), 2);
        let out = SgbQuery::any(3.0)
            .algorithm(Algorithm::AllPairs)
            .threads(2)
            .run(&points);
        assert_eq!(out.threads(), 1);
        // SGB-Around parallelises on every path.
        let out = SgbQuery::around(pts(&[[0.0, 0.0]])).threads(3).run(&points);
        assert_eq!(out.threads(), 3);
        // Auto stays sequential below the cost-model threshold.
        let out = SgbQuery::any(3.0).run(&points);
        assert_eq!(out.threads(), 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn run_rejects_non_finite_points_for_all() {
        let _ = SgbQuery::all(1.0).run(&[Point::new([f64::NAN, 0.0])]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn run_rejects_non_finite_points_for_any() {
        let _ = SgbQuery::any(1.0).run(&[Point::new([0.0, f64::INFINITY])]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn run_rejects_non_finite_points_for_around() {
        let _ = SgbQuery::around(pts(&[[0.0, 0.0]])).run(&[Point::new([f64::NEG_INFINITY, 0.0])]);
    }

    /// One query per operator, over 2-D points.
    fn one_per_operator() -> Vec<SgbQuery<2>> {
        vec![
            SgbQuery::all(1.0),
            SgbQuery::any(1.0),
            SgbQuery::around(pts(&[[0.0, 0.0], [5.0, 5.0]])).max_radius(2.0),
        ]
    }

    #[test]
    fn governed_entry_points_return_non_finite_on_every_operator() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let points = pts(&[[0.0, 0.0], [bad, 1.0], [2.0, 2.0]]);
            for q in one_per_operator() {
                let free = QueryGovernor::unrestricted();
                let op = q.operator();
                assert_eq!(q.try_run(&points, &free), Err(SgbError::NonFinite), "{op}");
                let cache = SgbCache::new();
                assert_eq!(
                    q.try_run_cached(&points, &cache, 1, &free),
                    Err(SgbError::NonFinite),
                    "{op}"
                );
                // A rejected version stays rejected on a retry.
                assert_eq!(
                    q.try_run_cached(&points, &cache, 1, &free),
                    Err(SgbError::NonFinite),
                    "{op}"
                );
                assert_eq!(cache.stats().result_hits, 0, "{op}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "points must have finite coordinates")]
    fn run_cached_rejects_non_finite_points() {
        let _ = SgbQuery::any(1.0).run_cached(&[Point::new([f64::NAN, 0.0])], &SgbCache::new(), 1);
    }

    #[test]
    #[should_panic(expected = "points must have finite coordinates")]
    fn legacy_sgb_all_rejects_non_finite_points() {
        let points = pts(&[[0.0, 0.0], [f64::NAN, 1.0], [2.0, 2.0]]);
        let _ = sgb_all(&points, &SgbAllConfig::new(1.0));
    }

    #[test]
    #[should_panic(expected = "points must have finite coordinates")]
    fn legacy_sgb_any_with_threads_rejects_non_finite_points() {
        let points = pts(&[[0.0, 0.0], [1.0, f64::NAN], [2.0, 2.0], [3.0, 3.0]]);
        let cfg = SgbAnyConfig::new(1.0)
            .algorithm(AnyAlgorithm::Grid)
            .threads(2);
        let _ = sgb_any(&points, &cfg);
    }

    #[test]
    #[should_panic(expected = "points must have finite coordinates")]
    fn legacy_sgb_around_with_threads_rejects_non_finite_points() {
        // The parallel batch assignment must not classify a NaN point: every
        // distance comparison against NaN is false, so it would silently
        // join center 0.
        let points = pts(&[[0.0, 0.0], [1.0, 1.0], [f64::NAN, 2.0], [3.0, 3.0]]);
        let cfg = SgbAroundConfig::new(pts(&[[0.0, 0.0], [3.0, 3.0]])).threads(2);
        let _ = crate::sgb_around(&points, &cfg);
    }

    /// Deterministic pseudo-random cloud for the parity sweep.
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
    fn every_entry_point_reports_the_same_groups_path_reason_and_threads() {
        // `Grouping` equality ignores the execution metadata, so this pins
        // it field by field: `run`, `try_run` under an unrestricted
        // governor, and cold `run_cached` / `try_run_cached` must agree on
        // the groups, the resolved path, the reason `EXPLAIN` prints and
        // the thread count — for every operator, every applicable
        // algorithm (`Auto` on both sides of its crossover) and threads
        // 0 (auto), 1 and 2.
        let all_n = [
            cost::ALL_ALL_PAIRS_MAX_N - 56,
            cost::ALL_ALL_PAIRS_MAX_N + 44,
        ];
        let any_n = [
            cost::ANY_ALL_PAIRS_MAX_N - 112,
            cost::ANY_ALL_PAIRS_MAX_N + 88,
        ];
        let around_centers = [
            cost::AROUND_BRUTE_MAX_CENTERS - 28,
            cost::AROUND_BRUTE_MAX_CENTERS + 22,
        ];
        let mut cases: Vec<(SgbQuery<2>, Vec<Point<2>>)> = Vec::new();
        for (side, n) in all_n.into_iter().enumerate() {
            for algorithm in Algorithm::ALL {
                let q = SgbQuery::all(0.4).algorithm(algorithm);
                cases.push((q, cloud(n, 11 + side as u64, 10.0)));
            }
        }
        for (side, n) in any_n.into_iter().enumerate() {
            for algorithm in Algorithm::ALL {
                if algorithm.for_any().is_some() {
                    let q = SgbQuery::any(0.3).algorithm(algorithm);
                    cases.push((q, cloud(n, 21 + side as u64, 10.0)));
                }
            }
        }
        for (side, centers) in around_centers.into_iter().enumerate() {
            for algorithm in Algorithm::ALL {
                if algorithm.for_around().is_some() {
                    let q = SgbQuery::around(cloud(centers, 31 + side as u64, 10.0))
                        .max_radius(0.5)
                        .algorithm(algorithm);
                    cases.push((q, cloud(300, 41, 10.0)));
                }
            }
        }
        let free = QueryGovernor::unrestricted();
        let mut auto_paths = std::collections::HashSet::new();
        for (base, points) in cases {
            for threads in [0, 1, 2] {
                let q = base.clone().threads(threads);
                let label = format!(
                    "{} {} threads={threads} n={}",
                    q.operator(),
                    q.configured_algorithm(),
                    points.len()
                );
                let runs = [
                    q.run(&points),
                    q.try_run(&points, &free).unwrap(),
                    q.run_cached(&points, &SgbCache::new(), 1),
                    q.try_run_cached(&points, &SgbCache::new(), 1, &free)
                        .unwrap(),
                ];
                let first = &runs[0];
                for other in &runs[1..] {
                    assert_eq!(other, first, "{label}: groups");
                    assert_eq!(
                        other.resolved_algorithm(),
                        first.resolved_algorithm(),
                        "{label}: path"
                    );
                    assert_eq!(
                        other.selection_reason(),
                        first.selection_reason(),
                        "{label}: reason"
                    );
                    assert_eq!(other.threads(), first.threads(), "{label}: threads");
                }
                if q.configured_algorithm() == Algorithm::Auto {
                    auto_paths.insert((q.operator(), first.resolved_algorithm()));
                }
            }
        }
        // Each operator's Auto landed on both sides of its crossover.
        for (op, below, above) in [
            ("SGB-All", Algorithm::AllPairs, Algorithm::BoundsChecking),
            ("SGB-Any", Algorithm::AllPairs, Algorithm::Grid),
            ("SGB-Around", Algorithm::AllPairs, Algorithm::Grid),
        ] {
            assert!(auto_paths.contains(&(op, below)), "{op} below crossover");
            assert!(auto_paths.contains(&(op, above)), "{op} above crossover");
        }
    }

    #[test]
    fn telemetry_profiles_every_operator_without_changing_results() {
        let points = fig2();
        // SGB-All: validate + join + merge timed, candidates counted.
        let tel = Telemetry::new();
        let out = SgbQuery::all(3.0).telemetry(tel.clone()).run(&points);
        assert_eq!(out, SgbQuery::all(3.0).run(&points));
        let p = out.profile().unwrap();
        assert!(p.phase_nanos(Phase::Validate) > 0);
        assert!(p.phase_nanos(Phase::Join) > 0);
        assert_eq!(p.counter(Counter::Groups), out.num_groups() as u64);
        assert!(p.counter(Counter::CandidatePairs) > 0);

        // SGB-Any, every concrete path.
        for algorithm in [Algorithm::AllPairs, Algorithm::Indexed, Algorithm::Grid] {
            let q = SgbQuery::any(3.0)
                .algorithm(algorithm)
                .telemetry(Telemetry::new());
            let out = q.run(&points);
            assert_eq!(out, SgbQuery::any(3.0).run(&points), "{algorithm}");
            let p = out.profile().unwrap();
            assert_eq!(p.counter(Counter::Groups), out.num_groups() as u64);
            assert!(p.phase_nanos(Phase::Join) > 0, "{algorithm}");
        }

        // SGB-Around: eager index build + assign join, outliers counted.
        let q = SgbQuery::around(pts(&[[1.0, 7.0], [7.0, 1.0]]))
            .max_radius(2.0)
            .telemetry(Telemetry::new());
        let out = q.run(&points);
        let p = out.profile().unwrap();
        assert_eq!(p.counter(Counter::Outliers), out.outliers().len() as u64);
        assert!(p.counter(Counter::Outliers) > 0);
        assert!(p.phase_nanos(Phase::Join) > 0);

        // A query without a handle reports no profile.
        assert_eq!(SgbQuery::any(3.0).run(&points).profile(), None);
    }

    #[test]
    fn telemetry_counts_result_cache_hits_and_misses() {
        let points = fig2();
        let cache = SgbCache::new();
        let tel = Telemetry::new();
        let q = SgbQuery::any(3.0).telemetry(tel.clone());
        let cold = q.run_cached(&points, &cache, 1);
        let warm = q.run_cached(&points, &cache, 1);
        assert_eq!(cold, warm);
        let p = tel.profile().unwrap();
        assert_eq!(p.counter(Counter::CacheMisses), 1);
        assert_eq!(p.counter(Counter::CacheHits), 1);
        // Both executions reported group counts into the shared profile.
        assert_eq!(p.counter(Counter::Groups), 2 * cold.num_groups() as u64);
        // The cache-probe phase was timed; the warm hit recorded no
        // further join work beyond the cold run's.
        assert!(p.phase_nanos(Phase::CacheProbe) > 0);

        // Telemetry never leaks into cache identity: an observed query and
        // its silent twin share one cache entry (the hit above proves the
        // same; this pins the fingerprint directly).
        let silent = SgbQuery::<2>::any(3.0);
        assert_eq!(silent.fingerprint(), q.fingerprint());

        // Governed twin: hit/miss counters behave identically.
        let tel = Telemetry::new();
        let free = QueryGovernor::unrestricted();
        let q = SgbQuery::all(3.0).telemetry(tel.clone());
        q.try_run_cached(&points, &cache, 1, &free).unwrap();
        q.try_run_cached(&points, &cache, 1, &free).unwrap();
        let p = tel.profile().unwrap();
        assert_eq!(p.counter(Counter::CacheMisses), 1);
        assert_eq!(p.counter(Counter::CacheHits), 1);
        assert!(p.counter(Counter::GovernorPolls) > 0);
    }

    #[test]
    fn introspection_reports_the_configuration() {
        let q = SgbQuery::around(pts(&[[1.0, 2.0]]))
            .metric(Metric::L1)
            .max_radius(0.5);
        assert_eq!(q.operator(), "SGB-Around");
        assert_eq!(q.configured_metric(), Metric::L1);
        assert_eq!(q.configured_algorithm(), Algorithm::Auto);
        assert_eq!(q.eps(), None);
        assert_eq!(q.radius_bound(), Some(0.5));
        assert_eq!(q.centers().unwrap().len(), 1);

        let q = SgbQuery::<2>::all(0.25);
        assert_eq!(q.operator(), "SGB-All");
        assert_eq!(q.eps(), Some(0.25));
        assert_eq!(q.centers(), None);
    }
}
