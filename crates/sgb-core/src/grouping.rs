//! The answer-set representation produced by the SGB operators.

use std::fmt;
use std::ops::{Index, Range};

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
/// Layout: the groups are flat. One vector holds every group's members
/// back to back, in group order, and a second holds the end offset of
/// each group in it. A grouping of n grouped records in k groups is
/// therefore two heap blocks of n and k words, whatever k is: building
/// one costs a fixed number of allocations, a `clone` is a few `memcpy`s
/// and a drop a few frees. [`groups`](Self::groups) lends the groups out
/// as a [`Groups`] view of `&[RecordId]` slices.
///
/// Equality compares the **answer sets only** (groups, group centers,
/// eliminated, outliers); the execution metadata is deliberately excluded
/// so results produced by different algorithms compare equal exactly when
/// the grouping semantics say they should.
#[derive(Clone)]
pub struct Grouping {
    /// Every group's members, group after group.
    members: Vec<RecordId>,
    /// `ends[g]` is where group `g`'s members end in `members` (and group
    /// `g + 1`'s begin). Strictly increasing: no group is empty.
    ends: Vec<usize>,
    /// SGB-Around only: the center index of each answer group,
    /// index-aligned with `ends`.
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

/// Answer groups appended one at a time, in [`Grouping`]'s flat layout:
/// how SGB-All drains its live cliques, pass after pass.
#[derive(Debug, Default)]
pub(crate) struct GroupsBuilder {
    members: Vec<RecordId>,
    ends: Vec<usize>,
}

impl GroupsBuilder {
    /// Appends one non-empty group.
    pub(crate) fn push(&mut self, members: impl IntoIterator<Item = RecordId>) {
        self.members.extend(members);
        debug_assert!(
            self.ends.last().map_or(0, |&end| end) < self.members.len(),
            "answer groups are non-empty"
        );
        self.ends.push(self.members.len());
    }

    /// The SGB-All answer set of the groups pushed so far, in push order,
    /// with the records ELIMINATE dropped. Its execution metadata is a
    /// placeholder until [`Grouping::ran`] records the path.
    pub(crate) fn finish(self, eliminated: Vec<RecordId>) -> Grouping {
        Grouping::from_parts(self.members, self.ends, Vec::new(), eliminated, Vec::new())
    }
}

impl Grouping {
    /// An empty grouping: no groups, nothing eliminated, no outliers —
    /// what any query produces over empty input. Useful as the identity
    /// value of total wrappers that sometimes have nothing to run.
    #[must_use]
    pub fn empty() -> Self {
        GroupsBuilder::default().finish(Vec::new()).ran(
            Algorithm::AllPairs,
            "empty input, nothing ran".to_owned(),
            1,
        )
    }

    /// The one constructor every other goes through: the flat groups and
    /// the record sets beside them, with placeholder execution metadata.
    fn from_parts(
        members: Vec<RecordId>,
        ends: Vec<usize>,
        group_centers: Vec<CenterId>,
        eliminated: Vec<RecordId>,
        outliers: Vec<RecordId>,
    ) -> Self {
        Grouping {
            members,
            ends,
            group_centers,
            eliminated,
            outliers,
            algorithm: Algorithm::AllPairs,
            selection: String::new(),
            threads: 1,
            telemetry: Telemetry::off(),
        }
    }

    /// The answer set that puts record `r` in the group of `labels[r]`,
    /// the `r`-th label: one group per label below `count` that some
    /// record carries, in label order, members ascending. A record whose
    /// label is `count` or more is an outlier. Built by a counting sort
    /// (count, then place), so it allocates the same few blocks whatever
    /// the number of groups.
    ///
    /// With `centered` (SGB-Around, labels are center indices) a label no
    /// record carries has no group, and each group keeps its label as its
    /// [center](Self::group_centers). Without it (SGB-Any, labels number
    /// the components by their smallest member) every label below `count`
    /// must be carried.
    pub(crate) fn by_label<I>(labels: I, count: usize, centered: bool) -> Self
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: Clone,
    {
        let labels = labels.into_iter();
        // Count each label's members, then turn the counts into starts.
        let mut ends = vec![0; count];
        let mut outliers = 0;
        for label in labels.clone() {
            match ends.get_mut(label) {
                Some(size) => *size += 1,
                None => outliers += 1,
            }
        }
        let mut start = 0;
        for slot in &mut ends {
            let size = *slot;
            *slot = start;
            start += size;
        }
        // Place each record at its label's cursor; every cursor ends at
        // its group's end.
        let mut members = vec![0; start];
        let mut outlier_ids = Vec::with_capacity(outliers);
        for (record, label) in labels.enumerate() {
            match ends.get_mut(label) {
                Some(next) => {
                    members[*next] = record;
                    *next += 1;
                }
                None => outlier_ids.push(record),
            }
        }
        let mut group_centers = Vec::new();
        if centered {
            group_centers.reserve_exact(count);
            let mut start = 0;
            for center in 0..count {
                let end = ends[center];
                if end > start {
                    ends[group_centers.len()] = end;
                    group_centers.push(center);
                }
                start = end;
            }
            ends.truncate(group_centers.len());
        }
        debug_assert!(
            ends.first() != Some(&0) && ends.windows(2).all(|w| w[0] < w[1]),
            "every label below the count is carried"
        );
        Grouping::from_parts(members, ends, group_centers, Vec::new(), outlier_ids)
    }

    /// Records the execution path that produced this answer set.
    pub(crate) fn ran(mut self, algorithm: Algorithm, selection: String, threads: usize) -> Self {
        self.algorithm = algorithm;
        self.selection = selection;
        self.threads = threads;
        self
    }

    /// The answer groups (member record ids in join order), borrowed.
    #[must_use]
    pub fn groups(&self) -> Groups<'_> {
        Groups {
            members: &self.members,
            ends: &self.ends,
        }
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
        self.groups().into_iter()
    }

    /// The answer groups plus — when any exist — the outlier set as one
    /// trailing group: the relational output shape (`GROUP BY … AROUND …
    /// WITHIN r` emits the outlier group last).
    pub fn output_groups(&self) -> impl Iterator<Item = &[RecordId]> {
        self.groups()
            .into_iter()
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
        self.ends.len()
    }

    /// Total number of records placed in answer groups.
    #[must_use]
    pub fn grouped_records(&self) -> usize {
        self.members.len()
    }

    /// Group sizes in group order.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        self.iter().map(<[RecordId]>::len).collect()
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
        for (gi, g) in self.iter().enumerate() {
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
        let mut members = self.members.clone();
        let groups = self.groups();
        for g in 0..groups.len() {
            members[groups.range(g)].sort_unstable();
        }
        let key = |g: usize| (&members[groups.range(g)], self.group_centers.get(g));
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
        let mut sorted = GroupsBuilder::default();
        for &g in &order {
            sorted.push(members[groups.range(g)].iter().copied());
        }
        let group_centers = order
            .iter()
            .filter_map(|&g| self.group_centers.get(g).copied())
            .collect();
        let mut eliminated = self.eliminated.clone();
        eliminated.sort_unstable();
        let mut outliers = self.outliers.clone();
        outliers.sort_unstable();
        Grouping {
            group_centers,
            outliers,
            algorithm: self.algorithm,
            selection: self.selection.clone(),
            threads: self.threads,
            telemetry: self.telemetry.clone(),
            ..sorted.finish(eliminated)
        }
    }

    /// Asserts internal consistency for `n` input records: every record in
    /// `0..n` appears exactly once across the groups, the eliminated set
    /// and the outliers, every group is non-empty, and the group centers
    /// (when present) align with the groups. Intended for tests.
    pub fn check_partition(&self, n: usize) {
        assert!(
            self.group_centers.is_empty() || self.group_centers.len() == self.num_groups(),
            "group centers must align with the groups"
        );
        let mut seen = vec![false; n];
        for g in self {
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
        self.groups() == other.groups()
            && self.group_centers == other.group_centers
            && self.eliminated == other.eliminated
            && self.outliers == other.outliers
    }
}

impl Eq for Grouping {}

impl fmt::Debug for Grouping {
    /// The groups print as nested lists, like the `Vec<Vec<RecordId>>`
    /// they stand for.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Grouping")
            .field("groups", &self.groups())
            .field("group_centers", &self.group_centers)
            .field("eliminated", &self.eliminated)
            .field("outliers", &self.outliers)
            .field("algorithm", &self.algorithm)
            .field("selection", &self.selection)
            .field("threads", &self.threads)
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

impl<'a> IntoIterator for &'a Grouping {
    type Item = &'a [RecordId];
    type IntoIter = GroupIter<'a>;

    fn into_iter(self) -> GroupIter<'a> {
        self.groups().into_iter()
    }
}

/// The answer groups of a [`Grouping`], borrowed: group `g` is the slice
/// `groups[g]`. Compares equal to the nested `Vec<Vec<RecordId>>` (or
/// slice, or array) with the same groups in the same order.
#[derive(Clone, Copy)]
pub struct Groups<'a> {
    members: &'a [RecordId],
    ends: &'a [usize],
}

impl<'a> Groups<'a> {
    /// Number of groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when there is no group.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over the groups in order.
    #[must_use]
    pub fn iter(&self) -> GroupIter<'a> {
        GroupIter {
            members: self.members,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Where group `g`'s members lie in the member array.
    fn range(&self, g: usize) -> Range<usize> {
        g.checked_sub(1).map_or(0, |prev| self.ends[prev])..self.ends[g]
    }
}

impl Index<usize> for Groups<'_> {
    type Output = [RecordId];

    /// Group `g`'s members.
    ///
    /// # Panics
    /// When `g` is not below [`len`](Groups::len), like a slice index.
    fn index(&self, g: usize) -> &[RecordId] {
        &self.members[self.range(g)]
    }
}

impl<'a> IntoIterator for Groups<'a> {
    type Item = &'a [RecordId];
    type IntoIter = GroupIter<'a>;

    fn into_iter(self) -> GroupIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Groups<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'b> PartialEq<Groups<'b>> for Groups<'_> {
    fn eq(&self, other: &Groups<'b>) -> bool {
        self.ends == other.ends && self.members == other.members
    }
}

impl Eq for Groups<'_> {}

impl PartialEq<[Vec<RecordId>]> for Groups<'_> {
    fn eq(&self, other: &[Vec<RecordId>]) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a == b.as_slice())
    }
}

impl PartialEq<Vec<Vec<RecordId>>> for Groups<'_> {
    fn eq(&self, other: &Vec<Vec<RecordId>>) -> bool {
        *self == *other.as_slice()
    }
}

impl<const N: usize> PartialEq<[Vec<RecordId>; N]> for Groups<'_> {
    fn eq(&self, other: &[Vec<RecordId>; N]) -> bool {
        *self == *other.as_slice()
    }
}

impl<'a, T: ?Sized> PartialEq<&T> for Groups<'a>
where
    Groups<'a>: PartialEq<T>,
{
    fn eq(&self, other: &&T) -> bool {
        *self == **other
    }
}

impl PartialEq<Groups<'_>> for &[Vec<RecordId>] {
    fn eq(&self, other: &Groups<'_>) -> bool {
        *other == **self
    }
}

/// Iterator over the groups of a [`Groups`] view, as `&[RecordId]`.
#[derive(Clone, Debug)]
pub struct GroupIter<'a> {
    members: &'a [RecordId],
    ends: std::slice::Iter<'a, usize>,
    start: usize,
}

impl<'a> Iterator for GroupIter<'a> {
    type Item = &'a [RecordId];

    fn next(&mut self) -> Option<&'a [RecordId]> {
        let end = *self.ends.next()?;
        let group = &self.members[self.start..end];
        self.start = end;
        Some(group)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grouping of `groups` in this order, with `eliminated`.
    fn flat(groups: &[&[RecordId]], eliminated: Vec<RecordId>) -> Grouping {
        let mut built = GroupsBuilder::default();
        for g in groups {
            built.push(g.iter().copied());
        }
        built.finish(eliminated)
    }

    fn sample() -> Grouping {
        flat(&[&[3, 1], &[0, 2, 4]], vec![5])
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
        let b = flat(&[&[4, 2, 0], &[1, 3]], vec![5]);
        assert_ne!(a, b);
        assert_eq!(a.normalized(), b.normalized());
    }

    #[test]
    fn normalized_keeps_group_centers_aligned() {
        // Records 0 and 2 at center 2, record 3 at center 0, record 1
        // an outlier; center 1 stays empty.
        let g = Grouping::by_label([2, 3, 2, 0], 3, true);
        assert_eq!(g.groups(), &[vec![3], vec![0, 2]]);
        assert_eq!(g.outliers(), &[1]);
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
        let g = flat(&[&[0, 1], &[1]], vec![]);
        g.check_partition(2);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn check_partition_rejects_grouped_and_eliminated() {
        let g = flat(&[&[0]], vec![0]);
        g.check_partition(1);
    }

    #[test]
    #[should_panic(expected = "every record must be grouped, eliminated or an outlier")]
    fn check_partition_rejects_missing_records() {
        let g = flat(&[&[0]], vec![2]);
        g.check_partition(3);
    }
}
