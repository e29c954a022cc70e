//! The answer-set representation produced by the SGB operators.

use sgb_telemetry::{QueryProfile, Telemetry};

use crate::{Algorithm, CenterId};

/// Identifier of an input record: its zero-based position in the input
/// (the order in which points were pushed into the operator).
pub type RecordId = usize;

/// The unified answer set of the SGB operator family (Definition 3, plus
/// the order-independent extensions of arXiv:1412.4303).
///
/// One type covers all three operators:
///
/// * [`groups`](Self::groups) — the answer groups, each a member list of
///   record ids in join order. SGB-All reports cliques in creation order,
///   SGB-Any connected components keyed by smallest member, SGB-Around
///   the non-empty center groups in center order.
/// * [`group_centers`](Self::group_centers) — for SGB-Around, the center
///   each answer group belongs to (empty for everything else).
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
/// Equality compares the **answer sets only** (groups, group centers,
/// eliminated, outliers); the execution metadata is deliberately excluded
/// so results produced by different algorithms compare equal exactly when
/// the grouping semantics say they should.
#[derive(Clone, Debug)]
pub struct Grouping {
    groups: Vec<Vec<RecordId>>,
    /// SGB-Around only: the center index of each answer group,
    /// index-aligned with `groups`.
    group_centers: Vec<CenterId>,
    eliminated: Vec<RecordId>,
    outliers: Vec<RecordId>,
    algorithm: Algorithm,
    selection: String,
    threads: usize,
    /// The telemetry handle the producing run recorded into — off unless
    /// the query had one installed ([`crate::SgbQuery::telemetry`]).
    /// Carrying the live handle (not a snapshot) lets [`Grouping::profile`]
    /// also show what later stages holding a clone of it — the relational
    /// aggregation, for one — record after the run.
    telemetry: Telemetry,
}

impl Grouping {
    /// An empty grouping: no groups, nothing eliminated, no outliers —
    /// what any query produces over empty input. Useful as the identity
    /// value of total wrappers that sometimes have nothing to run.
    #[must_use]
    pub fn empty() -> Self {
        Grouping::flat(Vec::new(), Vec::new()).ran(
            Algorithm::AllPairs,
            "empty input, nothing ran".to_owned(),
            1,
        )
    }

    /// An SGB-All / SGB-Any answer set. Its execution metadata is a
    /// placeholder until [`ran`](Self::ran) records the path.
    pub(crate) fn flat(groups: Vec<Vec<RecordId>>, eliminated: Vec<RecordId>) -> Self {
        Grouping {
            groups,
            group_centers: Vec::new(),
            eliminated,
            outliers: Vec::new(),
            algorithm: Algorithm::AllPairs,
            selection: String::new(),
            threads: 1,
            telemetry: Telemetry::off(),
        }
    }

    /// An SGB-Around answer set from per-center member lists (index-aligned
    /// with the center list, possibly empty) and the outlier set: the empty
    /// center groups drop out, and [`group_centers`](Self::group_centers)
    /// keeps the center of each group that stays.
    pub(crate) fn around(per_center: Vec<Vec<RecordId>>, outliers: Vec<RecordId>) -> Self {
        let (group_centers, groups) = per_center
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .unzip();
        Grouping {
            group_centers,
            outliers,
            ..Grouping::flat(groups, Vec::new())
        }
    }

    /// Records the execution path that produced this answer set.
    pub(crate) fn ran(mut self, algorithm: Algorithm, selection: String, threads: usize) -> Self {
        self.algorithm = algorithm;
        self.selection = selection;
        self.threads = threads;
        self
    }

    /// The answer groups (member record ids in join order).
    #[must_use]
    pub fn groups(&self) -> &[Vec<RecordId>] {
        &self.groups
    }

    /// SGB-Around: for each answer group, the index of its center in the
    /// query's center list — so `groups()[g]` holds the records nearest to
    /// center `group_centers()[g]`. Centers that attracted no record have
    /// no group, so group and center indices diverge once one center stays
    /// empty. Empty for SGB-All and SGB-Any.
    #[must_use]
    pub fn group_centers(&self) -> &[CenterId] {
        &self.group_centers
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
    /// query installed a telemetry handle ([`crate::SgbQuery::telemetry`]).
    /// Like [`threads`](Self::threads), this is execution metadata,
    /// excluded from equality.
    #[must_use]
    pub fn profile(&self) -> Option<QueryProfile> {
        self.telemetry.profile()
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
    /// by first member (each keeping its center), eliminated/outliers
    /// sorted. Two groupings are semantically equal as sets of sets iff
    /// their normalized forms are equal. Metadata is preserved.
    #[must_use]
    pub fn normalized(&self) -> Grouping {
        let mut keyed: Vec<(Vec<RecordId>, Option<CenterId>)> = self
            .groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let mut g = g.clone();
                g.sort_unstable();
                (g, self.group_centers.get(i).copied())
            })
            .collect();
        keyed.sort();
        let (groups, centers): (Vec<_>, Vec<_>) = keyed.into_iter().unzip();
        let mut eliminated = self.eliminated.clone();
        eliminated.sort_unstable();
        let mut outliers = self.outliers.clone();
        outliers.sort_unstable();
        Grouping {
            groups,
            group_centers: centers.into_iter().flatten().collect(),
            eliminated,
            outliers,
            algorithm: self.algorithm,
            selection: self.selection.clone(),
            threads: self.threads,
            telemetry: self.telemetry.clone(),
        }
    }

    /// Asserts internal consistency for `n` input records: every record in
    /// `0..n` appears exactly once across the groups, the eliminated set
    /// and the outliers, every group is non-empty, and the group centers
    /// (when present) align with the groups. Intended for tests.
    pub fn check_partition(&self, n: usize) {
        assert!(
            self.group_centers.is_empty() || self.group_centers.len() == self.groups.len(),
            "group centers must align with the groups"
        );
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
        assert!(
            seen.iter().all(|&s| s),
            "every record must be grouped, eliminated or an outlier"
        );
    }
}

impl PartialEq for Grouping {
    fn eq(&self, other: &Self) -> bool {
        // Metadata (algorithm, selection reason) is excluded on purpose:
        // equality is about the answer sets.
        self.groups == other.groups
            && self.group_centers == other.group_centers
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Grouping {
        Grouping::flat(vec![vec![3, 1], vec![0, 2, 4]], vec![5])
    }

    #[test]
    fn sizes_and_counts() {
        let g = sample();
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.sizes(), vec![2, 3]);
        assert_eq!(g.sorted_sizes(), vec![3, 2]);
        assert_eq!(g.grouped_records(), 5);
    }

    #[test]
    fn normalized_is_canonical() {
        let a = sample();
        let b = Grouping::flat(vec![vec![4, 2, 0], vec![1, 3]], vec![5]);
        assert_ne!(a, b);
        assert_eq!(a.normalized(), b.normalized());
    }

    #[test]
    fn normalized_keeps_group_centers_aligned() {
        let g = Grouping::around(vec![vec![3], vec![], vec![2, 0]], vec![1]);
        assert_eq!(g.groups(), &[vec![3], vec![2, 0]]);
        assert_eq!(g.group_centers(), &[0, 2]);
        let n = g.normalized();
        assert_eq!(n.groups(), &[vec![0, 2], vec![3]]);
        assert_eq!(n.group_centers(), &[2, 0]);
        n.check_partition(4);
    }

    #[test]
    fn assignment_maps_records() {
        let g = sample();
        let a = g.assignment(6);
        assert_eq!(a, vec![Some(1), Some(0), Some(1), Some(0), Some(1), None]);
    }

    #[test]
    fn check_partition_accepts_valid() {
        sample().check_partition(6);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn check_partition_rejects_duplicates() {
        let g = Grouping::flat(vec![vec![0, 1], vec![1]], vec![]);
        g.check_partition(2);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn check_partition_rejects_grouped_and_eliminated() {
        let g = Grouping::flat(vec![vec![0]], vec![0]);
        g.check_partition(1);
    }

    #[test]
    #[should_panic(expected = "every record must be grouped, eliminated or an outlier")]
    fn check_partition_rejects_missing_records() {
        let g = Grouping::flat(vec![vec![0]], vec![2]);
        g.check_partition(3);
    }
}
