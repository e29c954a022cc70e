//! Property tests for the incremental maintenance engine: over random
//! insert/delete/batch-delete edit scripts, a [`MaintainedGrouping`] must
//! stay equal — full `Grouping` equality (groups, eliminated, outliers),
//! not just group counts — to a from-scratch `SgbQuery::run` over the live
//! points, for all three operator families × all three metrics, on a
//! sparse input and on a dense one whose batches take several members of
//! one component. A multi-threaded smoke test then pins the relation
//! layer's serving contract: concurrent readers of a subscription only
//! ever observe complete, epoch-monotone snapshots while a writer streams
//! INSERT / DELETE statements.

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::core::incremental::MaintainedGrouping;
use sgb::core::{OverlapAction, QueryGovernor, SgbQuery};
use sgb::geom::{Metric, Point};
use sgb::relation::Database;

/// One step of a random edit script. `Delete` carries a raw index that is
/// reduced modulo the current slot count, so scripts stay valid however
/// many inserts precede them — and sometimes hit an already-deleted slot,
/// which must be a reported no-op. `DeleteMany` is one batch of such raw
/// indices, so its slots may repeat or be dead already.
#[derive(Clone, Debug)]
enum Edit {
    Insert(f64, f64),
    Delete(usize),
    DeleteMany(Vec<usize>),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0.0f64..8.0, 0.0f64..8.0).prop_map(|(x, y)| Edit::Insert(x, y)),
        (0usize..64).prop_map(Edit::Delete),
        vec(0usize..64, 1..8).prop_map(Edit::DeleteMany),
    ]
}

fn metric(i: usize) -> Metric {
    [Metric::L1, Metric::L2, Metric::LInf][i]
}

/// A random query of each family. SGB-All includes the overlap action and
/// seed in the mix — the maintained state must reproduce the exact
/// arrival-order-sensitive result of a from-scratch run.
fn eps() -> impl Strategy<Value = f64> {
    (1u32..6).prop_map(|k| f64::from(k) * 0.5)
}

fn arb_query() -> impl Strategy<Value = SgbQuery<2>> {
    prop_oneof![
        (eps(), 0usize..3).prop_map(|(e, m)| SgbQuery::any(e).metric(metric(m))),
        (eps(), 0usize..3, 0usize..3, 0u64..4).prop_map(|(e, m, o, s)| {
            let overlap = [
                OverlapAction::JoinAny,
                OverlapAction::Eliminate,
                OverlapAction::FormNewGroup,
            ][o];
            SgbQuery::all(e).metric(metric(m)).overlap(overlap).seed(s)
        }),
        (eps(), 0usize..3).prop_map(|(e, m)| {
            SgbQuery::around(vec![
                Point::new([1.0, 1.0]),
                Point::new([5.0, 5.0]),
                Point::new([2.5, 6.0]),
            ])
            .max_radius(e)
            .metric(metric(m))
        }),
    ]
}

/// Runs `edits` against a [`MaintainedGrouping`] built over `initial` and
/// checks, after **every** edit, that it equals the from-scratch recompute
/// over the live points.
fn check_edit_script(
    query: &SgbQuery<2>,
    initial: &[(f64, f64)],
    edits: Vec<Edit>,
) -> Result<(), String> {
    let points: Vec<Point<2>> = initial.iter().map(|&(x, y)| Point::new([x, y])).collect();
    let mut maintained = MaintainedGrouping::new(query.clone(), &points);
    // Mirror of the slot table: `None` once deleted, never shrinks.
    let mut mirror: Vec<Option<Point<2>>> = points.into_iter().map(Some).collect();
    for edit in edits {
        match edit {
            Edit::Insert(x, y) => {
                let slot = maintained.insert(Point::new([x, y]));
                prop_assert_eq!(slot, mirror.len(), "slots are append-only");
                mirror.push(Some(Point::new([x, y])));
            }
            Edit::Delete(raw) => {
                if mirror.is_empty() {
                    continue;
                }
                let slot = raw % mirror.len();
                let was_live = mirror[slot].is_some();
                prop_assert_eq!(maintained.delete(slot), was_live);
                mirror[slot] = None;
            }
            Edit::DeleteMany(raws) => {
                if mirror.is_empty() {
                    continue;
                }
                let slots: Vec<usize> = raws.iter().map(|raw| raw % mirror.len()).collect();
                let mut live_removed = 0;
                for &slot in &slots {
                    if mirror[slot].take().is_some() {
                        live_removed += 1;
                    }
                }
                let before = maintained.epoch();
                let removed = maintained
                    .try_delete_many(&slots, &QueryGovernor::unrestricted())
                    .unwrap();
                prop_assert_eq!(removed, live_removed, "counts the live slots removed");
                prop_assert_eq!(
                    maintained.epoch(),
                    before + live_removed as u64,
                    "one epoch per removed slot"
                );
            }
        }
        let live: Vec<Point<2>> = mirror.iter().flatten().copied().collect();
        prop_assert_eq!(maintained.live_points(), live.clone());
        prop_assert_eq!(maintained.len(), live.len());
        let incremental = maintained.snapshot();
        let scratch = query.run(&live);
        prop_assert_eq!(
            &incremental,
            &scratch,
            "maintained grouping diverged from recompute after {} edits",
            maintained.epoch()
        );
        incremental.check_partition(live.len());
    }
    // Deleting past the slot table is a reported no-op.
    prop_assert!(!maintained.delete(mirror.len()));
    Ok(())
}

/// The dense input's ε: its box is 6ε wide, so tens of points sit near
/// the ε-graph's percolation threshold, where components are large and
/// hold paths and cut points.
const DENSE_EPS: f64 = 0.5;

/// An ε-operator query at [`DENSE_EPS`]. SGB-Around is left to the sparse
/// input: its deltas are per-tuple, so density does not change them.
fn arb_dense_query() -> impl Strategy<Value = SgbQuery<2>> {
    prop_oneof![
        (0usize..3).prop_map(|m| SgbQuery::any(DENSE_EPS).metric(metric(m))),
        (0usize..3, 0usize..3, 0u64..4).prop_map(|(m, o, s)| {
            let overlap = [
                OverlapAction::JoinAny,
                OverlapAction::Eliminate,
                OverlapAction::FormNewGroup,
            ][o];
            SgbQuery::all(DENSE_EPS)
                .metric(metric(m))
                .overlap(overlap)
                .seed(s)
        }),
    ]
}

/// A dense edit: inserts land in the dense box, and a batch takes up to
/// 23 raw slots, so it often hits several members of one component.
fn arb_dense_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0.0f64..3.0, 0.0f64..3.0).prop_map(|(x, y)| Edit::Insert(x, y)),
        (0usize..64).prop_map(Edit::Delete),
        vec(0usize..64, 1..24).prop_map(Edit::DeleteMany),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After **every** edit of a random script, the maintained grouping
    /// equals the from-scratch recompute over the live points — for
    /// SGB-All (every overlap action), SGB-Any, and SGB-Around under
    /// L1 / L2 / L∞.
    #[test]
    fn incremental_equals_recompute_after_every_edit(
        query in arb_query(),
        initial in vec((0.0f64..8.0, 0.0f64..8.0), 0..12),
        edits in vec(arb_edit(), 1..16),
    ) {
        check_edit_script(&query, &initial, edits)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same check on a dense input: tens of initial points in a box
    /// 6ε wide, so the ε-operators' components are large, and one batch
    /// delete takes several members of one component. A batch settles
    /// some targets in place and re-clusters the other components, and
    /// this pins which is which: a mutation that counts the targets'
    /// neighbours with every target already gone fails here.
    #[test]
    fn incremental_equals_recompute_after_every_edit_on_dense_input(
        query in arb_dense_query(),
        initial in vec((0.0f64..3.0, 0.0f64..3.0), 20..60),
        edits in vec(arb_dense_edit(), 1..16),
    ) {
        check_edit_script(&query, &initial, edits)?;
    }
}

/// Concurrent snapshot serving: readers holding a [`SubscriptionHandle`]
/// clone never block the writer and only ever observe *complete* published
/// snapshots. The writer's script is deterministic — every point is far
/// from every other under ε = 1, so the grouping at epoch `e` is exactly
/// `expected[e]` singletons — which lets each reader verify any snapshot
/// it happens to catch, at any interleaving, without synchronising with
/// the writer.
#[test]
fn concurrent_readers_observe_only_complete_snapshots() {
    const INSERTS: usize = 24;
    const DELETES: usize = 8;

    let mut db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (0.0, 0.0), (10.0, 0.0), (20.0, 0.0)")
        .unwrap();
    let sub = db
        .subscribe("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1")
        .unwrap();

    // Group count per epoch: 3 initial singletons, one more per insert,
    // one fewer per delete.
    let mut expected = vec![3usize];
    for i in 0..INSERTS {
        expected.push(3 + i + 1);
    }
    for j in 0..DELETES {
        expected.push(3 + INSERTS - (j + 1));
    }
    let final_epoch = (INSERTS + DELETES) as u64;

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let handle = sub.clone();
            let expected = &expected;
            scope.spawn(move || {
                let mut last = 0u64;
                loop {
                    let snap = handle.snapshot();
                    let epoch = snap.epoch();
                    assert!(epoch >= last, "epochs went backwards: {last} -> {epoch}");
                    last = epoch;
                    let g = snap.grouping();
                    let want = expected[usize::try_from(epoch).unwrap()];
                    assert_eq!(
                        g.num_groups(),
                        want,
                        "snapshot at epoch {epoch} is not the published grouping"
                    );
                    assert!(g.sizes().iter().all(|&s| s == 1), "all groups singleton");
                    g.check_partition(want);
                    if epoch == final_epoch {
                        return;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // The writer never waits for readers: publishing swaps an Arc
        // under a write lock held only for the pointer swap.
        for i in 0..INSERTS {
            let x = 10.0 * (i + 3) as f64;
            db.execute(&format!("INSERT INTO pts VALUES ({x}, 0.0)"))
                .unwrap();
        }
        for j in 0..DELETES {
            let x = 10.0 * (INSERTS + 2 - j) as f64;
            db.execute(&format!("DELETE FROM pts WHERE x = {x}"))
                .unwrap();
        }
    });

    assert_eq!(sub.snapshot().epoch(), final_epoch);
    assert_eq!(
        sub.snapshot().grouping().num_groups(),
        3 + INSERTS - DELETES
    );
}

/// One statement of a random SQL edit script. `Update` replays the
/// engine's documented semantics in the test's row mirror: the touched
/// rows are deleted in place and their rewrites appended at the end of
/// the table (UPDATE executes as a delete+insert pair), with every
/// right-hand side reading the *old* row.
#[derive(Clone, Debug)]
enum SqlEdit {
    Insert(f64, f64),
    Delete(f64),
    Update(f64, f64),
}

fn arb_sql_edit() -> impl Strategy<Value = SqlEdit> {
    prop_oneof![
        (0.0f64..8.0, 0.0f64..8.0).prop_map(|(x, y)| SqlEdit::Insert(x, y)),
        (0.0f64..8.0).prop_map(SqlEdit::Delete),
        (0.0f64..8.0, -2.0f64..2.0).prop_map(|(cut, shift)| SqlEdit::Update(cut, shift)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SQL edit scripts with UPDATE in the mix: after **every** statement
    /// the subscription's published snapshot equals a from-scratch run
    /// over a row mirror that replays the engine's UPDATE-as-
    /// delete+insert ordering, and the published epoch never moves
    /// backwards.
    #[test]
    fn subscription_tracks_sql_edit_scripts_with_update(
        initial in vec((0.0f64..8.0, 0.0f64..8.0), 0..10),
        script in vec(arb_sql_edit(), 1..16),
        eps_k in 1u32..6,
        metric_i in 0usize..3,
    ) {
        let eps = f64::from(eps_k) * 0.5;
        let name = ["L1", "L2", "LINF"][metric_i];
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x DOUBLE, y DOUBLE)").unwrap();
        let mut mirror: Vec<(f64, f64)> = Vec::new();
        for &(x, y) in &initial {
            db.execute(&format!("INSERT INTO t VALUES ({x}, {y})")).unwrap();
            mirror.push((x, y));
        }
        let sub = db
            .subscribe(&format!(
                "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY {name} WITHIN {eps}"
            ))
            .unwrap();
        let query = SgbQuery::any(eps).metric(metric(metric_i));
        let mut last_epoch = sub.snapshot().epoch();
        for edit in script {
            match edit {
                SqlEdit::Insert(x, y) => {
                    db.execute(&format!("INSERT INTO t VALUES ({x}, {y})")).unwrap();
                    mirror.push((x, y));
                }
                SqlEdit::Delete(cut) => {
                    db.execute(&format!("DELETE FROM t WHERE x > {cut}")).unwrap();
                    mirror.retain(|&(x, _)| x <= cut);
                }
                SqlEdit::Update(cut, shift) => {
                    db.execute(&format!(
                        "UPDATE t SET x = x + {shift} WHERE x < {cut}"
                    ))
                    .unwrap();
                    let touched: Vec<(f64, f64)> = mirror
                        .iter()
                        .filter(|&&(x, _)| x < cut)
                        .map(|&(x, y)| (x + shift, y))
                        .collect();
                    mirror.retain(|&(x, _)| x >= cut);
                    mirror.extend(touched);
                }
            }
            let live: Vec<Point<2>> =
                mirror.iter().map(|&(x, y)| Point::new([x, y])).collect();
            let snap = sub.snapshot();
            prop_assert!(sub.is_active());
            prop_assert!(snap.epoch() >= last_epoch, "epoch went backwards");
            last_epoch = snap.epoch();
            prop_assert_eq!(
                snap.grouping(),
                &query.run(&live),
                "subscription diverged from recompute over the mirror"
            );
        }
    }
}
