//! Dynamic R-tree with quadratic split (Guttman's original algorithm).
//!
//! Two paths of the paper use it: SGB-All's group tree (Procedure 5) and
//! SGB-Any's point tree (Procedure 8), both through ε-range queries
//! ([`RTree::query_within`]) whose hits the caller verifies. The tree
//! answers no nearest-neighbour queries: SGB-Around's nearest-center
//! search runs over a center grid (see `sgb_core::around`).
//!
//! Deletion audit (incremental-maintenance engine): unlike [`crate::Grid`],
//! which only gained [`crate::Grid::remove`] when delta maintenance was
//! added, the R-tree has supported removal from the start —
//! [`RTree::remove`] implements Guttman's `Delete` + `CondenseTree`, so
//! underfull nodes are dissolved and their entries re-inserted rather than
//! left as empty husks. No structural change was needed for delete-heavy
//! workloads; the incremental engine maintains ε-grids (O(1) cell updates)
//! and treats R-trees as per-query rebuilt indexes.

use std::cmp::Ordering;

use sgb_geom::{Metric, Point, Rect};

/// Default maximum node fan-out; 8–16 is a good in-memory trade-off.
pub const DEFAULT_MAX_ENTRIES: usize = 12;

type NodeId = usize;

#[derive(Debug, Clone)]
enum NodeKind<const D: usize, T> {
    Leaf(Vec<(Rect<D>, T)>),
    Internal(Vec<NodeId>),
}

#[derive(Debug, Clone)]
struct Node<const D: usize, T> {
    rect: Rect<D>,
    parent: Option<NodeId>,
    kind: NodeKind<D, T>,
}

impl<const D: usize, T> Node<D, T> {
    fn fanout(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(entries) => entries.len(),
            NodeKind::Internal(children) => children.len(),
        }
    }
}

/// A dynamic R-tree storing `(Rect<D>, T)` entries.
///
/// `T` is the payload (group id, point id, …). Deletion matches entries by
/// exact rectangle equality and payload equality, which is the natural key
/// for the SGB use case where the caller remembers the rectangle it
/// inserted.
#[derive(Debug, Clone)]
pub struct RTree<const D: usize, T> {
    nodes: Vec<Node<D, T>>,
    free: Vec<NodeId>,
    root: NodeId,
    len: usize,
    max_entries: usize,
    min_entries: usize,
}

impl<const D: usize, T: Clone + PartialEq> Default for RTree<D, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize, T: Clone + PartialEq> RTree<D, T> {
    /// An empty tree with the default fan-out.
    pub fn new() -> Self {
        Self::with_max_entries(DEFAULT_MAX_ENTRIES)
    }

    /// Bulk-loads a tree from a complete point set with sort-tile-recursive
    /// packing — see [`from_entries`](Self::from_entries).
    pub fn from_points(
        max_entries: usize,
        points: impl IntoIterator<Item = (Point<D>, T)>,
    ) -> Self {
        Self::from_entries(
            max_entries,
            points
                .into_iter()
                .map(|(p, item)| (Rect::point(p), item))
                .collect(),
        )
    }

    /// Bulk-loads a tree from a complete entry set with **sort-tile-
    /// recursive (STR) packing** [Leutenegger et al. 1997]: entries are
    /// sorted by centre coordinate and tiled into `⌈n/M⌉` full leaves
    /// (slabbed per dimension), then the leaf rectangles are packed the
    /// same way level by level up to the root.
    ///
    /// Compared to `n` one-at-a-time [`insert`](Self::insert)s this pays no
    /// `ChooseLeaf` descents and no quadratic splits — an `O(n log n)` sort
    /// instead — and produces near-full, spatially coherent nodes. Queries
    /// on the result are exact as ever; only the tree *shape* differs, and
    /// no SGB answer depends on tree shape (range queries are verified by
    /// the caller).
    ///
    /// The packing honours the same fan-out bounds as dynamic insertion
    /// (underfull tails are rebalanced with their left sibling), so
    /// [`check_invariants`](Self::check_invariants) holds and the tree
    /// remains freely mutable afterwards.
    pub fn from_entries(max_entries: usize, entries: Vec<(Rect<D>, T)>) -> Self {
        let mut tree = Self::with_max_entries(max_entries);
        if entries.is_empty() {
            return tree;
        }
        tree.len = entries.len();
        if entries.len() <= max_entries {
            tree.nodes[tree.root].kind = NodeKind::Leaf(entries);
            tree.tighten(tree.root);
            return tree;
        }
        // Pack the leaf level, then repack each internal level until a
        // single node remains.
        let mut level: Vec<(Rect<D>, NodeId)> = Vec::new();
        for group in str_pack(entries, max_entries, tree.min_entries) {
            let id = tree.alloc(Node {
                rect: Rect::empty(),
                parent: None,
                kind: NodeKind::Leaf(group),
            });
            tree.tighten(id);
            level.push((tree.nodes[id].rect, id));
        }
        while level.len() > 1 {
            let mut next: Vec<(Rect<D>, NodeId)> = Vec::new();
            for group in str_pack(level, max_entries, tree.min_entries) {
                let children: Vec<NodeId> = group.iter().map(|&(_, id)| id).collect();
                let id = tree.alloc(Node {
                    rect: Rect::empty(),
                    parent: None,
                    kind: NodeKind::Internal(children.clone()),
                });
                for c in children {
                    tree.nodes[c].parent = Some(id);
                }
                tree.tighten(id);
                next.push((tree.nodes[id].rect, id));
            }
            level = next;
        }
        let old_root = tree.root;
        tree.root = level[0].1;
        tree.release(old_root);
        tree
    }

    /// An empty tree with node capacity `max_entries` (`M`); the minimum
    /// fill is `M / 3` as Guttman recommends for the quadratic split.
    pub fn with_max_entries(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "R-tree fan-out must be at least 4");
        let mut tree = Self {
            nodes: Vec::new(),
            free: Vec::new(),
            root: 0,
            len: 0,
            max_entries,
            min_entries: (max_entries / 3).max(1),
        };
        tree.root = tree.alloc(Node {
            rect: Rect::empty(),
            parent: None,
            kind: NodeKind::Leaf(Vec::new()),
        });
        tree
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree stores nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 for a single leaf root).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut n = self.root;
        while let NodeKind::Internal(children) = &self.nodes[n].kind {
            n = children[0];
            h += 1;
        }
        h
    }

    fn alloc(&mut self, node: Node<D, T>) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = node;
            id
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn release(&mut self, id: NodeId) {
        self.nodes[id] = Node {
            rect: Rect::empty(),
            parent: None,
            kind: NodeKind::Leaf(Vec::new()),
        };
        self.free.push(id);
    }

    /// Recomputes a node's MBR from its contents.
    fn tighten(&mut self, id: NodeId) {
        let rect = match &self.nodes[id].kind {
            NodeKind::Leaf(entries) => entries
                .iter()
                .fold(Rect::empty(), |acc, (r, _)| acc.union(r)),
            NodeKind::Internal(children) => children
                .iter()
                .fold(Rect::empty(), |acc, &c| acc.union(&self.nodes[c].rect)),
        };
        self.nodes[id].rect = rect;
    }

    /// Guttman's `ChooseLeaf`: descend picking the child needing the least
    /// enlargement (ties: smaller volume, then smaller fan-out).
    fn choose_leaf(&self, rect: &Rect<D>) -> NodeId {
        let mut node = self.root;
        loop {
            match &self.nodes[node].kind {
                NodeKind::Leaf(_) => return node,
                NodeKind::Internal(children) => {
                    let mut best = children[0];
                    let mut best_key = (f64::INFINITY, f64::INFINITY, usize::MAX);
                    for &c in children {
                        let r = &self.nodes[c].rect;
                        let key = (r.enlargement(rect), r.volume(), self.nodes[c].fanout());
                        if key < best_key {
                            best_key = key;
                            best = c;
                        }
                    }
                    node = best;
                }
            }
        }
    }

    /// Inserts an entry.
    pub fn insert(&mut self, rect: Rect<D>, item: T) {
        debug_assert!(!rect.is_empty(), "cannot index an empty rectangle");
        let leaf = self.choose_leaf(&rect);
        if let NodeKind::Leaf(entries) = &mut self.nodes[leaf].kind {
            entries.push((rect, item));
        } else {
            unreachable!("choose_leaf returned an internal node");
        }
        self.len += 1;
        self.adjust_upward(leaf);
    }

    /// Walks from `start` to the root, tightening MBRs and splitting
    /// overflowing nodes (`AdjustTree`).
    fn adjust_upward(&mut self, start: NodeId) {
        let mut node = start;
        loop {
            let split_off = if self.nodes[node].fanout() > self.max_entries {
                Some(self.split(node))
            } else {
                None
            };
            self.tighten(node);
            let parent = self.nodes[node].parent;
            match (split_off, parent) {
                (Some(new), None) => {
                    // Root split: grow the tree by one level.
                    let old_root = node;
                    let new_root = self.alloc(Node {
                        rect: self.nodes[old_root].rect.union(&self.nodes[new].rect),
                        parent: None,
                        kind: NodeKind::Internal(vec![old_root, new]),
                    });
                    self.nodes[old_root].parent = Some(new_root);
                    self.nodes[new].parent = Some(new_root);
                    self.root = new_root;
                    return;
                }
                (Some(new), Some(p)) => {
                    self.nodes[new].parent = Some(p);
                    if let NodeKind::Internal(children) = &mut self.nodes[p].kind {
                        children.push(new);
                    } else {
                        unreachable!("parent of a node must be internal");
                    }
                    node = p;
                }
                (None, Some(p)) => node = p,
                (None, None) => return,
            }
        }
    }

    /// Splits an overflowing node with the quadratic algorithm, returning
    /// the id of the freshly allocated sibling.
    fn split(&mut self, node: NodeId) -> NodeId {
        match std::mem::replace(&mut self.nodes[node].kind, NodeKind::Leaf(Vec::new())) {
            NodeKind::Leaf(entries) => {
                let (a, b) = quadratic_split(entries, self.min_entries);
                self.nodes[node].kind = NodeKind::Leaf(a);
                self.tighten(node);
                let new = self.alloc(Node {
                    rect: Rect::empty(),
                    parent: self.nodes[node].parent,
                    kind: NodeKind::Leaf(b),
                });
                self.tighten(new);
                new
            }
            NodeKind::Internal(children) => {
                let tagged: Vec<(Rect<D>, NodeId)> = children
                    .into_iter()
                    .map(|c| (self.nodes[c].rect, c))
                    .collect();
                let (a, b) = quadratic_split(tagged, self.min_entries);
                let a_ids: Vec<NodeId> = a.into_iter().map(|(_, id)| id).collect();
                let b_ids: Vec<NodeId> = b.into_iter().map(|(_, id)| id).collect();
                self.nodes[node].kind = NodeKind::Internal(a_ids);
                self.tighten(node);
                let new = self.alloc(Node {
                    rect: Rect::empty(),
                    parent: self.nodes[node].parent,
                    kind: NodeKind::Internal(Vec::new()),
                });
                for &c in &b_ids {
                    self.nodes[c].parent = Some(new);
                }
                self.nodes[new].kind = NodeKind::Internal(b_ids);
                self.tighten(new);
                new
            }
        }
    }

    /// Window query: invokes `visit` for every stored entry whose rectangle
    /// intersects `window` (the `WindowQuery` of Procedures 5 and 8).
    pub fn query<F: FnMut(&Rect<D>, &T)>(&self, window: &Rect<D>, mut visit: F) {
        if self.len == 0 {
            return;
        }
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            if !node.rect.intersects(window) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    for (r, item) in entries {
                        if r.intersects(window) {
                            visit(r, item);
                        }
                    }
                }
                NodeKind::Internal(children) => stack.extend_from_slice(children),
            }
        }
    }

    /// Window query collecting the payloads into a `Vec`.
    pub fn query_collect(&self, window: &Rect<D>) -> Vec<T> {
        let mut out = Vec::new();
        self.query(window, |_, item| out.push(item.clone()));
        out
    }

    /// Metric-aware range query: invokes `visit` for every stored entry
    /// whose rectangle comes within `eps` of `center` under `metric`.
    ///
    /// Subtrees are pruned by [`Rect::min_distance`] under the query's own
    /// norm, so an `L1` or `L∞` search descends only into nodes its
    /// diamond/square ball can actually reach — strictly tighter than the
    /// enclosing-rectangle window of [`query`](Self::query) (for `L∞` the
    /// two coincide; for `L1` the ball covers `1/D!` of the window's
    /// volume — half in 2-D, a sixth in 3-D).
    ///
    /// The threshold is relaxed by a few units in the last place so that
    /// floating-point rounding of the mindist can never exclude an entry
    /// the canonical predicate [`Metric::within`] accepts
    /// (`min_rank_distance` never exceeds the predicate's own rounded
    /// distance — see [`Rect::min_distance`] — so the pad only needs to
    /// absorb the `L2` square/square-root asymmetry). Callers verify hits
    /// with `Metric::within`, exactly like `VerifyPoints` of Procedure 8.
    ///
    /// Distances are compared in the rank space of
    /// [`Metric::rank_distance`] (squared for `L2`), so the per-node hot
    /// path pays no square root, and leaves whose whole MBR sits inside
    /// the ball ([`Rect::max_rank_distance`] ≤ threshold) are visited
    /// without per-entry checks.
    pub fn query_within<F: FnMut(&Rect<D>, &T)>(
        &self,
        center: &Point<D>,
        eps: f64,
        metric: Metric,
        visit: F,
    ) {
        let mut stack = Vec::new();
        self.for_each_within(center, eps, metric, &mut stack, visit);
    }

    /// Allocation-free sibling of [`query_within`](Self::query_within): the
    /// traversal stack is caller-provided scratch, cleared on entry, so
    /// per-tuple hot loops pay no heap allocation per query. Semantics are
    /// identical — same pruning, same relaxed threshold, same
    /// visited-superset guarantee.
    pub fn for_each_within<F: FnMut(&Rect<D>, &T)>(
        &self,
        center: &Point<D>,
        eps: f64,
        metric: Metric,
        stack: &mut Vec<usize>,
        mut visit: F,
    ) {
        if self.len == 0 {
            return;
        }
        let relaxed = eps * (1.0 + 4.0 * f64::EPSILON);
        let bound = match metric {
            Metric::L2 => relaxed * relaxed,
            _ => relaxed,
        };
        stack.clear();
        stack.push(self.root);
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            if node.rect.min_rank_distance(center, metric) > bound {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    if node.rect.max_rank_distance(center, metric) <= bound {
                        // Whole leaf MBR inside the ball: every entry is a
                        // hit, skip the per-entry filter.
                        for (r, item) in entries {
                            visit(r, item);
                        }
                    } else {
                        for (r, item) in entries {
                            if r.min_rank_distance(center, metric) <= bound {
                                visit(r, item);
                            }
                        }
                    }
                }
                NodeKind::Internal(children) => stack.extend_from_slice(children),
            }
        }
    }

    /// Removes the entry matching `(rect, item)` exactly. Returns `true`
    /// when an entry was removed. Implements Guttman's `Delete` +
    /// `CondenseTree` with re-insertion of orphaned entries.
    pub fn remove(&mut self, rect: &Rect<D>, item: &T) -> bool {
        let Some(leaf) = self.find_leaf(self.root, rect, item) else {
            return false;
        };
        if let NodeKind::Leaf(entries) = &mut self.nodes[leaf].kind {
            let idx = entries
                .iter()
                .position(|(r, t)| r == rect && t == item)
                .expect("find_leaf guarantees presence");
            entries.swap_remove(idx);
        }
        self.len -= 1;
        self.condense(leaf);
        true
    }

    /// Moves an entry to a new rectangle (delete + reinsert) — used when a
    /// group's bounding rectangle changes as members join or leave.
    pub fn update(&mut self, old_rect: &Rect<D>, new_rect: Rect<D>, item: T) -> bool {
        if self.remove(old_rect, &item) {
            self.insert(new_rect, item);
            true
        } else {
            false
        }
    }

    fn find_leaf(&self, node: NodeId, rect: &Rect<D>, item: &T) -> Option<NodeId> {
        let n = &self.nodes[node];
        // A stored entry is always fully covered by its node's MBR.
        if !n.rect.contains_rect(rect) {
            return None;
        }
        match &n.kind {
            NodeKind::Leaf(entries) => entries
                .iter()
                .any(|(r, t)| r == rect && t == item)
                .then_some(node),
            NodeKind::Internal(children) => children
                .iter()
                .filter(|&&c| self.nodes[c].rect.contains_rect(rect))
                .find_map(|&c| self.find_leaf(c, rect, item)),
        }
    }

    /// `CondenseTree`: walk from `start` to the root eliminating underfull
    /// nodes, then reinsert their orphaned leaf entries.
    fn condense(&mut self, start: NodeId) {
        let mut orphans: Vec<(Rect<D>, T)> = Vec::new();
        let mut node = start;
        while let Some(parent) = self.nodes[node].parent {
            if self.nodes[node].fanout() < self.min_entries {
                if let NodeKind::Internal(children) = &mut self.nodes[parent].kind {
                    children.retain(|&c| c != node);
                }
                self.collect_entries(node, &mut orphans);
            } else {
                self.tighten(node);
            }
            node = parent;
        }
        self.tighten(self.root);
        // Shrink the root while it is an internal node with one child.
        while let NodeKind::Internal(children) = &self.nodes[self.root].kind {
            match children.len() {
                0 => {
                    // Everything was condensed away: revert to an empty leaf.
                    self.nodes[self.root].kind = NodeKind::Leaf(Vec::new());
                    self.nodes[self.root].rect = Rect::empty();
                    break;
                }
                1 => {
                    let child = children[0];
                    let old_root = self.root;
                    self.nodes[child].parent = None;
                    self.root = child;
                    self.release(old_root);
                }
                _ => break,
            }
        }
        // Reinsert orphans; `len` was not decremented for them, so bypass
        // the public counter.
        for (rect, item) in orphans {
            let leaf = self.choose_leaf(&rect);
            if let NodeKind::Leaf(entries) = &mut self.nodes[leaf].kind {
                entries.push((rect, item));
            }
            self.adjust_upward(leaf);
        }
    }

    /// Recursively drains all leaf entries under `node`, releasing nodes.
    fn collect_entries(&mut self, node: NodeId, out: &mut Vec<(Rect<D>, T)>) {
        match std::mem::replace(&mut self.nodes[node].kind, NodeKind::Leaf(Vec::new())) {
            NodeKind::Leaf(entries) => out.extend(entries),
            NodeKind::Internal(children) => {
                for c in children {
                    self.collect_entries(c, out);
                }
            }
        }
        self.release(node);
    }

    /// Iterates over all `(rect, payload)` entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&Rect<D>, &T)> + '_ {
        let mut stack = vec![self.root];
        let mut current: &[(Rect<D>, T)] = &[];
        let mut idx = 0usize;
        std::iter::from_fn(move || loop {
            if idx < current.len() {
                let (r, t) = &current[idx];
                idx += 1;
                return Some((r, t));
            }
            let id = stack.pop()?;
            match &self.nodes[id].kind {
                NodeKind::Leaf(entries) => {
                    current = entries;
                    idx = 0;
                }
                NodeKind::Internal(children) => stack.extend_from_slice(children),
            }
        })
    }

    /// Validates structural invariants (for tests): MBR containment, fan-out
    /// bounds, parent pointers, uniform leaf depth. Panics on violation.
    pub fn check_invariants(&self) {
        let mut leaf_depths = Vec::new();
        self.check_node(self.root, None, 0, &mut leaf_depths);
        assert!(
            leaf_depths.windows(2).all(|w| w[0] == w[1]),
            "leaves must share a depth: {leaf_depths:?}"
        );
        let counted: usize = self.iter().count();
        assert_eq!(counted, self.len, "len must match stored entries");
    }

    fn check_node(
        &self,
        id: NodeId,
        parent: Option<NodeId>,
        depth: usize,
        leaf_depths: &mut Vec<usize>,
    ) {
        let node = &self.nodes[id];
        assert_eq!(node.parent, parent, "parent pointer mismatch at node {id}");
        if id != self.root && self.len > 0 {
            assert!(
                node.fanout() >= self.min_entries,
                "node {id} underfull: {} < {}",
                node.fanout(),
                self.min_entries
            );
        }
        assert!(
            node.fanout() <= self.max_entries,
            "node {id} overfull: {}",
            node.fanout()
        );
        match &node.kind {
            NodeKind::Leaf(entries) => {
                for (r, _) in entries {
                    assert!(node.rect.contains_rect(r), "leaf MBR must cover entries");
                }
                leaf_depths.push(depth);
            }
            NodeKind::Internal(children) => {
                assert!(!children.is_empty(), "internal node {id} has no children");
                for &c in children {
                    assert!(
                        node.rect.contains_rect(&self.nodes[c].rect),
                        "internal MBR must cover children"
                    );
                    self.check_node(c, Some(id), depth + 1, leaf_depths);
                }
            }
        }
    }
}

/// Sort-tile-recursive packing: partitions `items` into groups of at most
/// `cap` entries (each at least `min` — callers guarantee
/// `items.len() > cap`, so at least two groups exist and tail rebalancing
/// always has a left sibling).
///
/// Dimension `d` sorts by centre coordinate and slices into
/// `⌈L^(1/(D−d))⌉` slabs (`L` = leaves still needed), recursing into the
/// next dimension; the innermost dimension chunks sequentially.
fn str_pack<const D: usize, E>(
    items: Vec<(Rect<D>, E)>,
    cap: usize,
    min: usize,
) -> Vec<Vec<(Rect<D>, E)>> {
    fn rec<const D: usize, E>(
        mut items: Vec<(Rect<D>, E)>,
        cap: usize,
        min: usize,
        dim: usize,
        out: &mut Vec<Vec<(Rect<D>, E)>>,
    ) {
        let n = items.len();
        if n <= cap {
            // May be underfull only as the sole (root) group of the level.
            out.push(items);
            return;
        }
        items.sort_by(|(a, _), (b, _)| {
            let ca = 0.5 * (a.lo()[dim] + a.hi()[dim]);
            let cb = 0.5 * (b.lo()[dim] + b.hi()[dim]);
            ca.total_cmp(&cb)
        });
        if dim + 1 == D {
            // Innermost dimension: sequential chunks of `cap`. A short tail
            // (< min) is rebalanced with its left sibling — the combined
            // `cap + tail` entries split into two halves of ≥ `cap/2` ≥
            // `min` each.
            let mut chunks: Vec<Vec<(Rect<D>, E)>> = Vec::with_capacity(n.div_ceil(cap));
            let mut iter = items.into_iter();
            loop {
                let chunk: Vec<(Rect<D>, E)> = iter.by_ref().take(cap).collect();
                if chunk.is_empty() {
                    break;
                }
                chunks.push(chunk);
            }
            if chunks.len() >= 2 && chunks[chunks.len() - 1].len() < min {
                let tail = chunks.pop().unwrap();
                let mut prev = chunks.pop().unwrap();
                prev.extend(tail);
                let second = prev.split_off(prev.len() / 2);
                chunks.push(prev);
                chunks.push(second);
            }
            out.extend(chunks);
        } else {
            let leaves = n.div_ceil(cap);
            let slabs = (leaves as f64).powf(1.0 / (D - dim) as f64).ceil().max(1.0) as usize;
            let per_slab = n.div_ceil(slabs);
            let mut slabbed: Vec<Vec<(Rect<D>, E)>> = Vec::with_capacity(slabs);
            let mut iter = items.into_iter();
            loop {
                let slab: Vec<(Rect<D>, E)> = iter.by_ref().take(per_slab).collect();
                if slab.is_empty() {
                    break;
                }
                slabbed.push(slab);
            }
            // A stunted final slab would bottom out as one underfull group.
            if slabbed.len() >= 2 && slabbed[slabbed.len() - 1].len() < min {
                let tail = slabbed.pop().unwrap();
                slabbed.last_mut().unwrap().extend(tail);
            }
            for slab in slabbed {
                rec(slab, cap, min, dim + 1, out);
            }
        }
    }
    let mut out = Vec::new();
    rec(items, cap, min, 0, &mut out);
    out
}

/// Guttman's quadratic split: pick the two entries that would waste the most
/// area together as seeds, then greedily assign the rest by strongest
/// preference, honouring the minimum fill.
/// An entry list paired with its split-off sibling list.
type SplitEntries<const D: usize, E> = (Vec<(Rect<D>, E)>, Vec<(Rect<D>, E)>);

fn quadratic_split<const D: usize, E>(
    mut entries: Vec<(Rect<D>, E)>,
    min_entries: usize,
) -> SplitEntries<D, E> {
    debug_assert!(entries.len() >= 2);
    // PickSeeds: maximise dead volume d = volume(union) − v1 − v2.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let d = entries[i].0.union(&entries[j].0).volume()
                - entries[i].0.volume()
                - entries[j].0.volume();
            if d > worst {
                worst = d;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    // Move seeds out (remove the larger index first to keep the other valid).
    let (hi, lo) = (seed_a.max(seed_b), seed_a.min(seed_b));
    let eb = entries.swap_remove(hi);
    let ea = entries.swap_remove(lo);
    let mut group_a = vec![ea];
    let mut group_b = vec![eb];
    let mut rect_a = group_a[0].0;
    let mut rect_b = group_b[0].0;

    while let Some(next) = pick_next(&entries, &rect_a, &rect_b) {
        // `remaining` includes the entry about to be assigned. Forced
        // assignment: if handing every remaining entry to one side only just
        // reaches its minimum fill, they all must go there.
        let remaining = entries.len();
        let must_a = group_a.len() + remaining == min_entries;
        let must_b = group_b.len() + remaining == min_entries;
        let entry = entries.swap_remove(next);
        let grow_a = rect_a.enlargement(&entry.0);
        let grow_b = rect_b.enlargement(&entry.0);
        let to_a = if must_a {
            true
        } else if must_b {
            false
        } else if grow_a != grow_b {
            grow_a < grow_b
        } else if rect_a.volume() != rect_b.volume() {
            rect_a.volume() < rect_b.volume()
        } else {
            group_a.len() <= group_b.len()
        };
        if to_a {
            rect_a = rect_a.union(&entry.0);
            group_a.push(entry);
        } else {
            rect_b = rect_b.union(&entry.0);
            group_b.push(entry);
        }
    }
    (group_a, group_b)
}

/// `PickNext`: the entry with the greatest preference |d1 − d2| between the
/// two groups.
fn pick_next<const D: usize, E>(
    entries: &[(Rect<D>, E)],
    rect_a: &Rect<D>,
    rect_b: &Rect<D>,
) -> Option<usize> {
    entries
        .iter()
        .enumerate()
        .max_by(|(_, x), (_, y)| {
            let px = (rect_a.enlargement(&x.0) - rect_b.enlargement(&x.0)).abs();
            let py = (rect_a.enlargement(&y.0) - rect_b.enlargement(&y.0)).abs();
            px.partial_cmp(&py).unwrap_or(Ordering::Equal)
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> Point<2> {
        Point::new([x, y])
    }

    fn grid_tree(n: usize) -> RTree<2, usize> {
        let mut tree = RTree::new();
        for i in 0..n {
            let x = (i % 31) as f64;
            let y = (i / 31) as f64;
            tree.insert(Rect::point(pt(x, y)), i);
        }
        tree
    }

    #[test]
    fn empty_tree_queries() {
        let tree: RTree<2, usize> = RTree::new();
        assert!(tree.is_empty());
        assert_eq!(
            tree.query_collect(&Rect::centered(pt(0.0, 0.0), 10.0)),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn insert_and_query_small() {
        let mut tree = RTree::new();
        tree.insert(Rect::point(pt(1.0, 1.0)), 'a');
        tree.insert(Rect::point(pt(5.0, 5.0)), 'b');
        tree.insert(Rect::point(pt(9.0, 1.0)), 'c');
        assert_eq!(tree.len(), 3);
        let mut hits = tree.query_collect(&Rect::new(pt(0.0, 0.0), pt(6.0, 6.0)));
        hits.sort();
        assert_eq!(hits, vec!['a', 'b']);
        tree.check_invariants();
    }

    #[test]
    fn window_query_matches_linear_scan() {
        let tree = grid_tree(500);
        let windows = [
            Rect::new(pt(2.5, 1.5), pt(7.5, 9.5)),
            Rect::new(pt(0.0, 0.0), pt(0.0, 0.0)),
            Rect::new(pt(-5.0, -5.0), pt(50.0, 50.0)),
            Rect::new(pt(30.5, 0.0), pt(31.5, 3.0)),
        ];
        for w in &windows {
            let mut hits = tree.query_collect(w);
            hits.sort();
            let mut expected: Vec<usize> = (0..500)
                .filter(|i| w.contains_point(&pt((i % 31) as f64, (i / 31) as f64)))
                .collect();
            expected.sort();
            assert_eq!(hits, expected, "window {w:?}");
        }
        tree.check_invariants();
    }

    #[test]
    fn query_within_matches_linear_scan_per_metric() {
        let tree = grid_tree(500);
        let queries = [
            (pt(5.2, 4.7), 2.5),
            (pt(0.0, 0.0), 0.0),
            (pt(15.5, 8.0), 5.0),
            (pt(-3.0, -3.0), 1.0), // empty result
        ];
        for metric in Metric::ALL {
            for (q, eps) in queries {
                let mut hits = Vec::new();
                tree.query_within(&q, eps, metric, |_, &i| {
                    // Caller-side verification, as the SGB operators do.
                    if metric.within(&pt((i % 31) as f64, (i / 31) as f64), &q, eps) {
                        hits.push(i);
                    }
                });
                hits.sort();
                let expected: Vec<usize> = (0..500)
                    .filter(|i| metric.within(&pt((i % 31) as f64, (i / 31) as f64), &q, eps))
                    .collect();
                assert_eq!(hits, expected, "{metric} query {q:?} eps {eps}");
            }
        }
    }

    #[test]
    fn query_within_is_a_superset_of_the_predicate_on_boundary_ties() {
        // Points whose distance ties with ε up to floating-point rounding
        // must still be visited (the caller's verify decides).
        let mut tree: RTree<2, usize> = RTree::new();
        let base = 880.0;
        let points: Vec<Point<2>> = (0..60)
            .map(|k| pt((base + k as f64 * 11.17) / 11000.0, 0.0))
            .collect();
        for (i, p) in points.iter().enumerate() {
            tree.insert(Rect::point(*p), i);
        }
        let eps = 0.08;
        for metric in Metric::ALL {
            for q in &points {
                let mut visited = vec![false; points.len()];
                tree.query_within(q, eps, metric, |_, &i| visited[i] = true);
                for (i, p) in points.iter().enumerate() {
                    if metric.within(p, q, eps) {
                        assert!(visited[i], "{metric}: predicate hit {i} not visited");
                    }
                }
            }
        }
    }

    #[test]
    fn query_within_prunes_more_than_window_for_l1() {
        // The L1 diamond must touch fewer entries than the enclosing
        // square window (corner entries fall outside the diamond).
        let tree = grid_tree(500);
        let q = pt(8.0, 8.0);
        let eps = 4.0;
        let mut ball = 0usize;
        tree.query_within(&q, eps, Metric::L1, |_, _| ball += 1);
        let window = tree.query_collect(&Rect::centered(q, eps)).len();
        assert!(ball < window, "diamond {ball} vs square {window}");
        // And every L1-accepted entry is among the visited ones.
        let expected = (0..500)
            .filter(|&i| Metric::L1.within(&pt((i % 31) as f64, (i / 31) as f64), &q, eps))
            .count();
        assert!(ball >= expected);
    }

    #[test]
    fn splits_keep_invariants() {
        let tree = grid_tree(2000);
        assert_eq!(tree.len(), 2000);
        assert!(tree.height() > 1, "2000 points must split the root");
        tree.check_invariants();
    }

    #[test]
    fn remove_existing_and_missing() {
        let mut tree = grid_tree(100);
        let r = Rect::point(pt(5.0, 1.0)); // i = 36
        assert!(tree.remove(&r, &36));
        assert_eq!(tree.len(), 99);
        assert!(!tree.remove(&r, &36), "double remove must fail");
        assert!(!tree.remove(&Rect::point(pt(500.0, 500.0)), &0));
        assert!(!tree.query_collect(&r).contains(&36));
        tree.check_invariants();
    }

    #[test]
    fn remove_everything_then_reuse() {
        let mut tree = grid_tree(300);
        for i in 0..300 {
            let p = pt((i % 31) as f64, (i / 31) as f64);
            assert!(tree.remove(&Rect::point(p), &i), "missing {i}");
            tree.check_invariants();
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        // The tree stays usable after total deletion.
        tree.insert(Rect::point(pt(1.0, 2.0)), 7);
        assert_eq!(
            tree.query_collect(&Rect::centered(pt(1.0, 2.0), 0.5)),
            vec![7]
        );
    }

    #[test]
    fn condense_reinserts_orphans() {
        // Delete points from one spatial cluster so its nodes underflow;
        // everything else must remain queryable.
        let mut tree = RTree::with_max_entries(4);
        for i in 0..40 {
            tree.insert(Rect::point(pt(i as f64, 0.0)), i);
        }
        for i in 10..30 {
            assert!(tree.remove(&Rect::point(pt(i as f64, 0.0)), &i));
        }
        assert_eq!(tree.len(), 20);
        let mut left: Vec<usize> = tree.query_collect(&Rect::new(pt(-1.0, -1.0), pt(50.0, 1.0)));
        left.sort();
        let expected: Vec<usize> = (0..10).chain(30..40).collect();
        assert_eq!(left, expected);
        tree.check_invariants();
    }

    #[test]
    fn update_moves_entry() {
        let mut tree = grid_tree(50);
        let old = Rect::point(pt(3.0, 0.0));
        assert!(tree.update(&old, Rect::point(pt(100.0, 100.0)), 3));
        assert!(!tree.query_collect(&old).contains(&3));
        assert_eq!(
            tree.query_collect(&Rect::centered(pt(100.0, 100.0), 0.1)),
            vec![3]
        );
        assert_eq!(tree.len(), 50);
        tree.check_invariants();
    }

    #[test]
    fn duplicate_rects_different_payloads() {
        let mut tree = RTree::new();
        let p = pt(1.0, 1.0);
        tree.insert(Rect::point(p), 'x');
        tree.insert(Rect::point(p), 'y');
        let mut hits = tree.query_collect(&Rect::point(p));
        hits.sort();
        assert_eq!(hits, vec!['x', 'y']);
        assert!(tree.remove(&Rect::point(p), &'x'));
        assert_eq!(tree.query_collect(&Rect::point(p)), vec!['y']);
    }

    #[test]
    fn three_dimensional_tree() {
        let mut tree: RTree<3, usize> = RTree::new();
        for i in 0..200 {
            let f = i as f64;
            tree.insert(
                Rect::point(Point::new([f % 5.0, (f / 5.0) % 5.0, f / 25.0])),
                i,
            );
        }
        let hits = tree.query_collect(&Rect::new(
            Point::new([0.0, 0.0, 0.0]),
            Point::new([5.0, 5.0, 1.0]),
        ));
        let expected: Vec<usize> = (0..200).filter(|&i| (i as f64) / 25.0 <= 1.0).collect();
        let mut hits = hits;
        let mut expected = expected;
        hits.sort();
        expected.sort();
        assert_eq!(hits, expected);
        tree.check_invariants();
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let tree = grid_tree(123);
        let mut seen: Vec<usize> = tree.iter().map(|(_, &i)| i).collect();
        seen.sort();
        assert_eq!(seen, (0..123).collect::<Vec<_>>());
    }

    #[test]
    fn str_bulk_load_keeps_invariants_and_answers_queries() {
        for n in [0usize, 1, 4, 12, 13, 25, 100, 500, 2000] {
            let tree: RTree<2, usize> = RTree::from_points(
                12,
                (0..n).map(|i| (pt((i % 31) as f64, (i / 31) as f64), i)),
            );
            assert_eq!(tree.len(), n, "n = {n}");
            tree.check_invariants();
            let w = Rect::new(pt(2.5, 1.5), pt(7.5, 9.5));
            let mut hits = tree.query_collect(&w);
            hits.sort_unstable();
            let expected: Vec<usize> = (0..n)
                .filter(|i| w.contains_point(&pt((i % 31) as f64, (i / 31) as f64)))
                .collect();
            assert_eq!(hits, expected, "n = {n}");
        }
    }

    #[test]
    fn str_bulk_load_agrees_with_incremental_construction() {
        let bulk: RTree<2, usize> = RTree::from_points(
            8,
            (0..500).map(|i| (pt((i % 31) as f64, (i / 31) as f64), i)),
        );
        let mut inc: RTree<2, usize> = RTree::with_max_entries(8);
        for i in 0..500 {
            inc.insert(Rect::point(pt((i % 31) as f64, (i / 31) as f64)), i);
        }
        let q = pt(7.3, 4.9);
        for metric in Metric::ALL {
            // Range queries: identical verified hit sets.
            let collect = |t: &RTree<2, usize>| {
                let mut out = Vec::new();
                t.query_within(&q, 3.0, metric, |_, &i| {
                    if metric.within(&pt((i % 31) as f64, (i / 31) as f64), &q, 3.0) {
                        out.push(i);
                    }
                });
                out.sort_unstable();
                out
            };
            assert_eq!(collect(&bulk), collect(&inc), "{metric}");
        }
        // A bulk-loaded tree stays freely mutable.
        let mut bulk = bulk;
        assert!(bulk.remove(&Rect::point(pt(3.0, 0.0)), &3));
        bulk.insert(Rect::point(pt(100.0, 100.0)), 777);
        bulk.check_invariants();
    }

    #[test]
    fn str_bulk_load_is_shallower_and_fuller_than_incremental() {
        let n = 3000;
        let bulk: RTree<2, usize> = RTree::from_points(
            12,
            (0..n).map(|i| (pt((i % 61) as f64, (i / 61) as f64), i)),
        );
        let mut inc: RTree<2, usize> = RTree::with_max_entries(12);
        for i in 0..n {
            inc.insert(Rect::point(pt((i % 61) as f64, (i / 61) as f64)), i);
        }
        assert!(bulk.height() <= inc.height(), "packing must not be taller");
    }

    #[test]
    fn for_each_within_reuses_scratch_and_matches_query_within() {
        let tree = grid_tree(500);
        let mut stack = Vec::new();
        for metric in Metric::ALL {
            for (q, eps) in [(pt(5.2, 4.7), 2.5), (pt(-3.0, -3.0), 1.0)] {
                let mut a = Vec::new();
                tree.query_within(&q, eps, metric, |_, &i| a.push(i));
                let mut b = Vec::new();
                tree.for_each_within(&q, eps, metric, &mut stack, |_, &i| b.push(i));
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{metric} {q:?}");
            }
        }
    }

    #[test]
    fn interleaved_insert_remove_stress() {
        let mut tree = RTree::with_max_entries(6);
        let mut live: Vec<usize> = Vec::new();
        let mut state: u64 = 42;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let pos = |i: usize| pt((i % 17) as f64 * 1.5, (i / 17) as f64 * 0.5);
        for round in 0..600 {
            if live.is_empty() || next() % 3 != 0 {
                let id = round;
                tree.insert(Rect::point(pos(id)), id);
                live.push(id);
            } else {
                let victim = live.swap_remove(next() % live.len());
                assert!(tree.remove(&Rect::point(pos(victim)), &victim));
            }
            if round % 97 == 0 {
                tree.check_invariants();
            }
        }
        tree.check_invariants();
        assert_eq!(tree.len(), live.len());
        let w = Rect::new(pt(0.0, 0.0), pt(10.0, 5.0));
        let mut hits = tree.query_collect(&w);
        hits.sort();
        let mut expected: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&i| w.contains_point(&pos(i)))
            .collect();
        expected.sort();
        assert_eq!(hits, expected);
    }
}
