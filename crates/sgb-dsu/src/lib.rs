#![warn(missing_docs)]

//! Disjoint-set union (Union-Find) over dense integer ids.
//!
//! SGB-Any (Section 7 of the paper) maintains its groups with "a Union-Find
//! data structure \[19\] to keep track of existing, newly created, and merged
//! groups": when a new point is within ε of points belonging to several
//! groups, the groups merge into one encompassing group (Figure 8b). This
//! crate implements the disjoint-set *forest* with path compression and
//! union by size, giving the `O(m α(n))` amortised bound the paper's
//! complexity analysis relies on.

/// A disjoint-set forest over the dense elements `0..len`, created up
/// front with [`DisjointSet::with_len`].
#[derive(Clone, Debug, Default)]
pub struct DisjointSet {
    /// parent[i] is i for roots.
    parent: Vec<u32>,
    /// size[i] is meaningful only for roots: the component size.
    size: Vec<u32>,
    /// Number of disjoint components.
    components: usize,
}

impl DisjointSet {
    /// A forest of `len` singleton components.
    pub fn with_len(len: usize) -> Self {
        assert!(
            len <= u32::MAX as usize,
            "DisjointSet supports at most u32::MAX elements"
        );
        Self {
            parent: (0..len as u32).collect(),
            size: vec![1; len],
            components: len,
        }
    }

    /// Number of elements ever added.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the forest has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint components.
    #[inline]
    pub fn components(&self) -> usize {
        self.components
    }

    /// The canonical representative (root) of `x`'s component, with
    /// two-pass path compression.
    pub fn find(&mut self, x: usize) -> usize {
        debug_assert!(x < self.parent.len());
        // First pass: locate the root.
        let mut root = x as u32;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Second pass: compress the path.
        let mut cur = x as u32;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root as usize
    }

    /// Root lookup without mutation (no compression); useful when only a
    /// shared reference is available.
    pub fn find_immutable(&self, x: usize) -> usize {
        let mut cur = x as u32;
        while self.parent[cur as usize] != cur {
            cur = self.parent[cur as usize];
        }
        cur as usize
    }

    /// Merges the components of `a` and `b` (`MergeGroupsInsert`'s core).
    /// Returns the root of the merged component. Union by size keeps the
    /// forest shallow.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        self.components -= 1;
        big
    }

    /// `true` when `a` and `b` are in the same component.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of `x`'s component.
    pub fn component_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }

    /// Merges another forest over the **same** elements into this one:
    /// afterwards `a` and `b` are connected here iff they were connected
    /// in either forest — the union of the two edge sets.
    ///
    /// This is the shard-merge step of the parallel SGB-Any engine: each
    /// worker unions the ε-pairs of its cell shard into a private forest,
    /// and the forests fold into one with `len` cheap unions apiece.
    /// Because connectivity (and therefore [`into_groups`]'s output, which
    /// orders components and members by id alone) depends only on the
    /// union of the edge sets, the merged forest is bit-identical to a
    /// sequential run over all pairs in any order.
    ///
    /// `pause` is invoked once per ~4096 merged elements, and its error
    /// abandons the merge. The edge set absorbed so far is a subset of
    /// `other`'s — callers that abort discard this forest, so partial
    /// connectivity never escapes. The SGB-Any shard fold passes the
    /// query's deadline/cancellation check, keeping even the merge phase
    /// of a huge join responsive.
    ///
    /// [`into_groups`]: Self::into_groups
    ///
    /// # Errors
    ///
    /// Returns the first error `pause` reports.
    ///
    /// # Panics
    ///
    /// Panics when the forests have different lengths.
    pub fn try_merge_from<E>(
        &mut self,
        other: &DisjointSet,
        mut pause: impl FnMut() -> Result<(), E>,
    ) -> Result<(), E> {
        assert_eq!(
            self.len(),
            other.len(),
            "can only merge forests over the same elements"
        );
        for x in 0..other.parent.len() {
            if x % 4096 == 0 {
                pause()?;
            }
            let p = other.parent[x] as usize;
            if p != x {
                self.union(x, p);
            }
        }
        Ok(())
    }

    /// Groups all elements by component, returning one `Vec` of member ids
    /// per component. Members appear in increasing id order; component order
    /// follows the smallest member id. This materialises the final SGB-Any
    /// answer groups.
    pub fn into_groups(mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut by_root: Vec<Vec<usize>> = Vec::new();
        let mut root_slot: Vec<u32> = vec![u32::MAX; n];
        for x in 0..n {
            let r = self.find(x);
            let slot = if root_slot[r] == u32::MAX {
                root_slot[r] = by_root.len() as u32;
                by_root.push(Vec::new());
                by_root.len() - 1
            } else {
                root_slot[r] as usize
            };
            by_root[slot].push(x);
        }
        by_root
    }
}

/// A deletion-aware disjoint-set forest: [`DisjointSet`] extended with
/// per-component **member lists** and **ghosts**, the bookkeeping the
/// incremental SGB-Any engine needs to take tuples out of its
/// ε-connectivity components.
///
/// Elements are dense slot ids added with [`TrackedDsu::push`]; ids are
/// never reused. [`TrackedDsu::union`] merges two components, so unioning
/// any spanning subset of the ε-edges yields the ε-graph's components. The
/// forest keeps connectivity only, so an edge unioned twice changes
/// nothing.
///
/// Deletion never restructures the forest: a removed element becomes a
/// *ghost* — it stays in the parent array (possibly even as a component's
/// root, holding that component's member list) but is excluded from member
/// lists and [`groups`](Self::groups). When a removal could split a
/// component the caller dissolves it with
/// [`dissolve_component`](Self::dissolve_component) and unions the
/// survivors' ε-edges again.
#[derive(Clone, Debug, Default)]
pub struct TrackedDsu {
    /// parent[i] is i for roots; chains may pass through ghosts.
    parent: Vec<u32>,
    /// Live member ids per component; meaningful only at roots.
    members: Vec<Vec<u32>>,
    /// `false` once an element has been removed (ghost).
    alive: Vec<bool>,
    /// Number of live elements.
    live: usize,
    /// Number of live components (components with ≥ 1 live member).
    components: usize,
}

impl TrackedDsu {
    /// An empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a new live singleton element, returning its id.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        assert!(
            id < u32::MAX as usize,
            "TrackedDsu supports at most u32::MAX elements"
        );
        self.parent.push(id as u32);
        self.members.push(vec![id as u32]);
        self.alive.push(true);
        self.live += 1;
        self.components += 1;
        id
    }

    /// Number of elements ever added (live + ghosts).
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when no element was ever added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of live (non-removed) elements.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Number of components with at least one live member.
    #[inline]
    pub fn components(&self) -> usize {
        self.components
    }

    /// `true` when `x` has not been removed.
    #[inline]
    pub fn is_alive(&self, x: usize) -> bool {
        self.alive[x]
    }

    /// The canonical representative (root) of `x`'s component, with
    /// two-pass path compression. Ghosts keep their component identity so
    /// chains through them stay valid.
    pub fn find(&mut self, x: usize) -> usize {
        debug_assert!(x < self.parent.len());
        let mut root = x as u32;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x as u32;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root as usize
    }

    /// Root lookup without mutation (no compression).
    pub fn find_immutable(&self, x: usize) -> usize {
        let mut cur = x as u32;
        while self.parent[cur as usize] != cur {
            cur = self.parent[cur as usize];
        }
        cur as usize
    }

    /// Merges the components of `a` and `b` (both must be live); a no-op
    /// when they are already connected.
    pub fn union(&mut self, a: usize, b: usize) {
        debug_assert!(self.alive[a] && self.alive[b], "unions join live members");
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        // Union by live member count: small-to-large keeps the total
        // member-list merge cost O(n log n).
        let (big, small) = if self.members[ra].len() >= self.members[rb].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        let moved = std::mem::take(&mut self.members[small]);
        self.members[big].extend(moved);
        self.components -= 1;
    }

    /// Removes `x` from its component without restructuring: `x` becomes a
    /// ghost and its component loses one member. **Only sound when the
    /// removal cannot split the component**: `x` has at most one live
    /// ε-neighbour (a singleton or a leaf), or the caller re-clusters the
    /// component (see [`dissolve_component`](Self::dissolve_component)).
    pub fn remove_member(&mut self, x: usize) {
        assert!(self.alive[x], "cannot remove a ghost");
        let r = self.find(x);
        let pos = self.members[r]
            .iter()
            .position(|&m| m as usize == x)
            .expect("live member is listed at its root");
        self.members[r].swap_remove(pos);
        self.alive[x] = false;
        self.live -= 1;
        if self.members[r].is_empty() {
            self.components -= 1;
        }
    }

    /// Dissolves `x`'s component: every live member (including `x`) is
    /// reset to a singleton, and the former member list is returned. The
    /// caller then unions the surviving ε-edges again — the re-cluster of
    /// a deletion that may have split the component.
    pub fn dissolve_component(&mut self, x: usize) -> Vec<u32> {
        let r = self.find(x);
        let members = std::mem::take(&mut self.members[r]);
        self.components -= 1;
        for &m in &members {
            self.parent[m as usize] = m;
            self.members[m as usize] = vec![m];
            self.components += 1;
        }
        members
    }

    /// Groups all live elements by component: one `Vec` of member ids per
    /// component, members in increasing id order, components ordered by
    /// smallest member id — the same canonical order as
    /// [`DisjointSet::into_groups`] over the live subset.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut by_root: Vec<Vec<usize>> = Vec::new();
        let mut root_slot: Vec<u32> = vec![u32::MAX; n];
        for x in 0..n {
            if !self.alive[x] {
                continue;
            }
            let r = self.find_immutable(x);
            let slot = if root_slot[r] == u32::MAX {
                root_slot[r] = by_root.len() as u32;
                by_root.push(Vec::new());
                by_root.len() - 1
            } else {
                root_slot[r] as usize
            };
            by_root[slot].push(x);
        }
        by_root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_merge_from_pauses_and_propagates_errors() {
        // Ok pauses: identical outcome to the infallible merge.
        let mut other = DisjointSet::with_len(10_000);
        for x in 0..9_999 {
            other.union(x, x + 1);
        }
        let mut merged = DisjointSet::with_len(10_000);
        let mut pauses = 0usize;
        merged
            .try_merge_from(&other, || {
                pauses += 1;
                Ok::<(), ()>(())
            })
            .unwrap_or(());
        assert_eq!(merged.components(), 1);
        assert!(pauses >= 2, "pause ran periodically, {pauses} times");
        // Failing pause: the error comes back and the merge stops.
        let mut aborted = DisjointSet::with_len(10_000);
        assert_eq!(aborted.try_merge_from(&other, || Err("stop")), Err("stop"));
        assert_eq!(aborted.components(), 10_000, "nothing merged before tick 0");
    }

    #[test]
    fn fresh_elements_are_singletons() {
        let mut dsu = DisjointSet::with_len(4);
        assert_eq!(dsu.components(), 4);
        for i in 0..4 {
            assert_eq!(dsu.find(i), i);
            assert_eq!(dsu.component_size(i), 1);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut dsu = DisjointSet::with_len(5);
        dsu.union(0, 1);
        dsu.union(2, 3);
        assert_eq!(dsu.components(), 3);
        assert!(dsu.connected(0, 1));
        assert!(!dsu.connected(0, 2));
        dsu.union(1, 3);
        assert_eq!(dsu.components(), 2);
        assert!(dsu.connected(0, 2));
        assert_eq!(dsu.component_size(3), 4);
        assert!(!dsu.connected(0, 4));
    }

    #[test]
    fn union_is_idempotent() {
        let mut dsu = DisjointSet::with_len(3);
        let r1 = dsu.union(0, 1);
        let r2 = dsu.union(0, 1);
        assert_eq!(r1, r2);
        assert_eq!(dsu.components(), 2);
    }

    #[test]
    fn find_immutable_agrees_with_find() {
        let mut dsu = DisjointSet::with_len(6);
        dsu.union(0, 1);
        dsu.union(1, 2);
        dsu.union(4, 5);
        for i in 0..6 {
            assert_eq!(dsu.find_immutable(i), dsu.clone().find(i));
        }
    }

    #[test]
    fn into_groups_materialises_components() {
        let mut dsu = DisjointSet::with_len(6);
        dsu.union(0, 2);
        dsu.union(2, 4);
        dsu.union(1, 5);
        let groups = dsu.into_groups();
        assert_eq!(groups, vec![vec![0, 2, 4], vec![1, 5], vec![3]]);
    }

    #[test]
    fn fig8b_merge_example() {
        // Figure 8b: x is within ε of members of g1 {a1,a2,a3}, g2 {c1,c2,c3}
        // and g3 {b1,b2}; all three merge into one group; g4 {d1,d2} stays.
        // ids: a1..a3 = 0..2, c1..c3 = 3..5, b1..b2 = 6..7, d1..d2 = 8..9, x = 10.
        let mut dsu = DisjointSet::with_len(11);
        dsu.union(0, 1);
        dsu.union(0, 2);
        dsu.union(3, 4);
        dsu.union(3, 5);
        dsu.union(6, 7);
        dsu.union(8, 9);
        assert_eq!(dsu.components(), 5);
        // x arrives: merge g1, g2, g3 with x.
        for neighbour in [0, 3, 6] {
            dsu.union(10, neighbour);
        }
        assert_eq!(dsu.components(), 2);
        assert_eq!(dsu.component_size(10), 9);
        assert_eq!(dsu.component_size(8), 2);
    }

    #[test]
    fn path_compression_flattens() {
        let mut dsu = DisjointSet::with_len(64);
        // Build a chain by always unioning into the larger side.
        for i in 1..64 {
            dsu.union(i - 1, i);
        }
        let root = dsu.find(63);
        // After compression every node points straight at the root.
        for i in 0..64 {
            let _ = dsu.find(i);
            assert_eq!(dsu.parent[i], root as u32);
        }
    }

    #[test]
    fn tracked_counts_edges_and_members() {
        let mut dsu = TrackedDsu::new();
        for _ in 0..5 {
            dsu.push();
        }
        assert_eq!(dsu.components(), 5);
        dsu.union(0, 1);
        dsu.union(1, 2);
        let root = dsu.find(0);
        // An edge inside one component changes nothing.
        dsu.union(0, 2);
        assert_eq!(dsu.find(2), root);
        assert_eq!(dsu.components(), 3);
        assert_eq!(dsu.groups(), vec![vec![0, 1, 2], vec![3], vec![4]]);
    }

    #[test]
    fn tracked_leaf_removal_keeps_component_intact() {
        // 0–1–2 chain plus 0–2: removing 1 leaves {0, 2} connected, so it
        // may go in place; the forest drops the member, not the unions.
        let mut dsu = TrackedDsu::new();
        for _ in 0..3 {
            dsu.push();
        }
        dsu.union(0, 1);
        dsu.union(1, 2);
        dsu.union(0, 2);
        dsu.remove_member(1);
        assert!(!dsu.is_alive(1));
        assert_eq!(dsu.live_count(), 2);
        assert_eq!(dsu.groups(), vec![vec![0, 2]]);
    }

    #[test]
    fn tracked_ghost_root_keeps_serving_its_component() {
        // Make element 0 the root, then remove it: 1 and 2 stay connected
        // through the ghost.
        let mut dsu = TrackedDsu::new();
        for _ in 0..3 {
            dsu.push();
        }
        dsu.union(0, 1);
        dsu.union(0, 2);
        dsu.union(1, 2);
        let root = dsu.find(1);
        dsu.remove_member(root);
        assert!(!dsu.is_alive(root));
        assert_eq!(dsu.find(2), root, "the ghost stays the root");
        assert_eq!(dsu.groups(), vec![vec![1, 2]]);
        assert_eq!(dsu.components(), 1);
    }

    #[test]
    fn tracked_dissolve_and_recluster_splits() {
        // Star around 2: 0–2, 1–2, 3–2. Deleting the hub splits the rest
        // into singletons; the caller dissolves and unions no survivors.
        let mut dsu = TrackedDsu::new();
        for _ in 0..4 {
            dsu.push();
        }
        dsu.union(0, 2);
        dsu.union(1, 2);
        dsu.union(3, 2);
        assert_eq!(dsu.components(), 1);
        let mut members = dsu.dissolve_component(2);
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3]);
        assert_eq!(dsu.components(), 4);
        dsu.remove_member(2);
        assert_eq!(dsu.groups(), vec![vec![0], vec![1], vec![3]]);
        // Re-cluster with a surviving edge: 0–1 reconnects part of it.
        dsu.union(0, 1);
        assert_eq!(dsu.groups(), vec![vec![0, 1], vec![3]]);
        assert!(!dsu.is_alive(2));
    }

    #[test]
    fn tracked_singleton_removal_drops_component() {
        let mut dsu = TrackedDsu::new();
        dsu.push();
        dsu.push();
        dsu.remove_member(0);
        assert_eq!(dsu.components(), 1);
        assert_eq!(dsu.live_count(), 1);
        assert_eq!(dsu.groups(), vec![vec![1]]);
    }

    #[test]
    fn tracked_groups_match_plain_dsu_over_live_subset() {
        // Same edge script into both structures; TrackedDsu::groups must
        // equal DisjointSet::into_groups when nothing was removed.
        let mut tracked = TrackedDsu::new();
        let mut plain = DisjointSet::with_len(12);
        for _ in 0..12 {
            tracked.push();
        }
        let edges = [(0, 5), (5, 7), (2, 3), (3, 2), (8, 9), (10, 11), (9, 10)];
        for (a, b) in edges {
            tracked.union(a, b);
            plain.union(a, b);
        }
        assert_eq!(tracked.groups(), plain.into_groups());
    }

    #[test]
    fn randomised_against_naive_labels() {
        // DSU must agree with a naive O(n²) label-propagation model.
        let mut dsu = DisjointSet::with_len(40);
        let mut labels: Vec<usize> = (0..40).collect();
        // Deterministic pseudo-random unions (LCG to avoid a rand dep here).
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..80 {
            let a = next() % 40;
            let b = next() % 40;
            dsu.union(a, b);
            let (la, lb) = (labels[a], labels[b]);
            if la != lb {
                for l in labels.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for a in 0..40 {
            for b in 0..40 {
                assert_eq!(dsu.connected(a, b), labels[a] == labels[b]);
            }
        }
        let distinct: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(dsu.components(), distinct.len());
    }
}
