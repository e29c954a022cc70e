//! Public-API invariant tests for the disjoint-set forest: union/find
//! algebra, component bookkeeping, and path-compression behaviour.

use sgb_dsu::DisjointSet;

/// Deterministic pseudo-random stream (LCG) so the tests need no deps.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }
}

/// The shard fold's `try_merge_from` with a pause that never fails.
fn merge(into: &mut DisjointSet, other: &DisjointSet) {
    into.try_merge_from(other, || Ok::<(), ()>(())).unwrap();
}

#[test]
fn find_is_idempotent_and_canonical() {
    let mut dsu = DisjointSet::with_len(32);
    let mut lcg = Lcg(7);
    for _ in 0..48 {
        let (a, b) = (lcg.next() % 32, lcg.next() % 32);
        dsu.union(a, b);
    }
    for x in 0..32 {
        let r = dsu.find(x);
        // The representative is itself a root, and stable under repetition.
        assert_eq!(dsu.find(r), r);
        assert_eq!(dsu.find(x), r);
        // The immutable lookup agrees with the compressing one.
        assert_eq!(dsu.find_immutable(x), r);
    }
}

#[test]
fn union_returns_the_common_root() {
    let mut dsu = DisjointSet::with_len(8);
    let r = dsu.union(1, 5);
    assert_eq!(dsu.find(1), r);
    assert_eq!(dsu.find(5), r);
    // Unioning two members of one component is a no-op returning that root.
    let again = dsu.union(5, 1);
    assert_eq!(again, r);
    assert_eq!(dsu.components(), 7);
}

#[test]
fn connectivity_is_an_equivalence_relation() {
    let mut dsu = DisjointSet::with_len(24);
    let mut lcg = Lcg(99);
    for _ in 0..30 {
        let (a, b) = (lcg.next() % 24, lcg.next() % 24);
        dsu.union(a, b);
    }
    for a in 0..24 {
        assert!(dsu.connected(a, a), "reflexive");
        for b in 0..24 {
            assert_eq!(dsu.connected(a, b), dsu.connected(b, a), "symmetric");
            for c in 0..24 {
                if dsu.connected(a, b) && dsu.connected(b, c) {
                    assert!(dsu.connected(a, c), "transitive");
                }
            }
        }
    }
}

#[test]
fn component_sizes_partition_the_universe() {
    let mut dsu = DisjointSet::with_len(40);
    let mut lcg = Lcg(3);
    for _ in 0..25 {
        let (a, b) = (lcg.next() % 40, lcg.next() % 40);
        dsu.union(a, b);
    }
    // Every root's size counts its members; summed over roots that is n.
    let mut total = 0;
    for x in 0..40 {
        if dsu.find(x) == x {
            total += dsu.component_size(x);
        }
    }
    assert_eq!(total, 40);
    // And the number of roots is the component count.
    let roots = (0..40).filter(|&x| dsu.find_immutable(x) == x).count();
    assert_eq!(roots, dsu.components());
}

#[test]
fn into_groups_is_a_partition_in_canonical_order() {
    let mut dsu = DisjointSet::with_len(30);
    let mut lcg = Lcg(1234);
    for _ in 0..20 {
        let (a, b) = (lcg.next() % 30, lcg.next() % 30);
        dsu.union(a, b);
    }
    let expected_components = dsu.components();
    let groups = dsu.into_groups();
    assert_eq!(groups.len(), expected_components);
    // Members sorted within groups; groups ordered by smallest member; the
    // concatenation is exactly 0..30.
    let mut seen = vec![false; 30];
    let mut prev_head = None;
    for g in &groups {
        assert!(!g.is_empty());
        assert!(g.windows(2).all(|w| w[0] < w[1]), "members ascend: {g:?}");
        if let Some(prev) = prev_head {
            assert!(g[0] > prev, "groups ordered by smallest member");
        }
        prev_head = Some(g[0]);
        for &m in g {
            assert!(!seen[m], "duplicate member {m}");
            seen[m] = true;
        }
    }
    assert!(seen.into_iter().all(|s| s), "every element appears");
}

#[test]
fn adversarial_chain_still_answers_correctly() {
    // A linear chain is the classic worst case that path compression and
    // union-by-size exist to handle; verify answers stay exact on a large
    // instance (the performance claim itself is covered by bench_dsu).
    let n = 10_000;
    let mut dsu = DisjointSet::with_len(n);
    for i in 1..n {
        dsu.union(i - 1, i);
    }
    assert_eq!(dsu.components(), 1);
    assert!(dsu.connected(0, n - 1));
    assert_eq!(dsu.component_size(0), n);
    // After one full find pass, the immutable lookup (which does not
    // compress) resolves every element in one hop to the same root.
    let root = dsu.find(0);
    for x in 0..n {
        dsu.find(x);
    }
    for x in 0..n {
        assert_eq!(dsu.find_immutable(x), root);
    }
}

#[test]
fn shard_merged_forests_are_bit_identical_to_a_sequential_run() {
    // The parallel SGB-Any invariant: partition a random edge list into k
    // shards, union each shard into a private forest, fold the forests
    // with `try_merge_from` — the merged forest's `into_groups` output must be
    // bit-identical (group numbering, member order) to a single sequential
    // forest over all edges, for every shard count and edge permutation.
    let n = 120;
    let mut lcg = Lcg(0x5EED);
    let edges: Vec<(usize, usize)> = (0..220).map(|_| (lcg.next() % n, lcg.next() % n)).collect();
    let mut sequential = DisjointSet::with_len(n);
    for &(a, b) in &edges {
        sequential.union(a, b);
    }
    let expected = sequential.into_groups();
    for shards in [1usize, 2, 3, 7, 16] {
        let mut forests: Vec<DisjointSet> = (0..shards).map(|_| DisjointSet::with_len(n)).collect();
        // Deterministic but arbitrary shard assignment, unrelated to edge
        // order — like hashed grid cells.
        for (i, &(a, b)) in edges.iter().enumerate() {
            forests[(i * 7 + 3) % shards].union(a, b);
        }
        let mut merged = DisjointSet::with_len(n);
        for f in &forests {
            merge(&mut merged, f);
        }
        assert_eq!(merged.components(), expected.len(), "shards={shards}");
        assert_eq!(merged.into_groups(), expected, "shards={shards}");
    }
}

#[test]
fn merge_from_with_disjoint_edge_sets_unions_connectivity() {
    let mut a = DisjointSet::with_len(6);
    a.union(0, 1);
    a.union(2, 3);
    let mut b = DisjointSet::with_len(6);
    b.union(1, 2);
    b.union(4, 5);
    merge(&mut a, &b);
    assert!(a.connected(0, 3), "connectivity is the union of edge sets");
    assert!(a.connected(4, 5));
    assert!(!a.connected(0, 4));
    assert_eq!(a.components(), 2);
    // Merging an all-singleton forest is a no-op.
    let before = a.clone().into_groups();
    merge(&mut a, &DisjointSet::with_len(6));
    assert_eq!(a.into_groups(), before);
}

#[test]
#[should_panic(expected = "same elements")]
fn merge_from_rejects_length_mismatch() {
    let mut a = DisjointSet::with_len(4);
    merge(&mut a, &DisjointSet::with_len(5));
}

#[test]
fn interleaved_random_model_check() {
    // Model-check against naive label propagation with arrivals
    // interleaved between unions: unions only touch the prefix of the
    // forest that has arrived, and each arriving element is still an
    // untouched singleton (the seed's unit test only covers a fixed
    // universe).
    const ARRIVALS: usize = 67; // one every third of 200 rounds
    let mut dsu = DisjointSet::with_len(ARRIVALS);
    let mut labels: Vec<usize> = Vec::new();
    let mut lcg = Lcg(0xDEADBEEF);
    for round in 0..200 {
        if labels.is_empty() || round % 3 == 0 {
            let id = labels.len();
            labels.push(id);
            assert_eq!(dsu.component_size(id), 1);
        } else {
            let a = lcg.next() % labels.len();
            let b = lcg.next() % labels.len();
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
    }
    assert_eq!(labels.len(), ARRIVALS);
    for a in 0..labels.len() {
        for b in 0..labels.len() {
            assert_eq!(dsu.connected(a, b), labels[a] == labels[b]);
        }
    }
    let distinct: std::collections::HashSet<_> = labels.iter().collect();
    assert_eq!(dsu.components(), distinct.len());
}
