//! Writes to DISTANCE-TO-ALL subscriptions through SQL. SGB-All's
//! ON-OVERLAP arbitration depends on arrival order, so after every INSERT,
//! DELETE and UPDATE the published grouping must be the answer of a
//! one-shot run over the table's rows in their current order. For each
//! ON-OVERLAP clause under two metrics, one fixed script of statements
//! checks after every statement that:
//!
//! * the published grouping equals `SgbQuery::run` over a mirror of the
//!   table's rows (full `Grouping` equality), and its reason names the
//!   published epoch;
//! * a matching SELECT is served from the snapshot (`EXPLAIN` shows
//!   `snapshot:`) and returns what a fresh cache-off database returns
//!   over the same rows;
//! * the epoch advances by one per row a delta touches: an INSERT or a
//!   DELETE of k rows by k, an UPDATE of k rows by 2k (it runs as a
//!   delete of the k rows and an insert of their new values).
//!
//! Coordinates are multiples of 1/64, so every value prints and parses
//! exactly, sums of them are exact, and some pairs lie exactly ε apart.

use sgb::core::{OverlapAction, SgbQuery};
use sgb::geom::{Metric, Point};
use sgb::relation::{Database, Row, Schema, SessionOptions, Table, Value};

/// The grouping threshold of every statement.
const EPS: f64 = 1.0;

/// The session's JOIN-ANY seed (`SessionOptions`' default).
const SESSION_SEED: u64 = 0;

/// A deterministic LCG, so the script needs no `rand`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }

    /// A coordinate near `center`: a multiple of 1/64 within 1 of it.
    fn near(&mut self, center: f64) -> f64 {
        center + (self.next(128) as f64 - 64.0) / 64.0
    }

    /// A point in one of four clusters 2ε wide; three of them lie close
    /// enough to share members' ε-neighbourhoods, so groups overlap.
    fn point(&mut self) -> (f64, f64) {
        let (cx, cy) = [(2.0, 2.0), (3.5, 2.0), (2.0, 3.5), (8.0, 8.0)][self.next(4) as usize];
        (self.near(cx), self.near(cy))
    }
}

/// One statement of the script.
#[derive(Clone, Debug)]
enum Edit {
    /// `INSERT` of these points, with fresh ids.
    Insert(Vec<(f64, f64)>),
    /// `DELETE … WHERE id = k`.
    DeleteId(i64),
    /// `DELETE … WHERE x > cut`.
    DeleteRight(f64),
    /// `UPDATE t SET x = x + shift WHERE y < cut`.
    UpdateBelow { cut: f64, shift: f64 },
}

/// The script every configuration runs: inserts of one to four rows,
/// deletes by id (some of ids already gone, which touch nothing) and by a
/// cut, and updates that move rows sideways.
fn script() -> Vec<Edit> {
    let mut rng = Lcg(0xA11);
    (0..24)
        .map(|step| match step % 4 {
            0 => Edit::Insert((0..1 + rng.next(4)).map(|_| rng.point()).collect()),
            1 => Edit::DeleteId(rng.next(80) as i64),
            2 if step % 8 == 2 => Edit::DeleteRight(9.0 - rng.next(8) as f64 / 8.0),
            _ => Edit::UpdateBelow {
                cut: 1.0 + rng.next(32) as f64 / 8.0,
                shift: (rng.next(9) as f64 - 4.0) / 16.0,
            },
        })
        .collect()
}

/// The initial table: 48 clustered rows, ids `0..48`.
fn initial_rows() -> Vec<(i64, f64, f64)> {
    let mut rng = Lcg(0x5EED);
    (0..48)
        .map(|id| {
            let (x, y) = rng.point();
            (id, x, y)
        })
        .collect()
}

fn rows_of(mirror: &[(i64, f64, f64)]) -> Vec<Row> {
    mirror
        .iter()
        .map(|&(id, x, y)| vec![Value::Int(id), Value::Float(x), Value::Float(y)])
        .collect()
}

fn values(rows: &[(i64, f64, f64)]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|(id, x, y)| format!("({id}, {x:?}, {y:?})"))
        .collect();
    tuples.join(", ")
}

/// Applies `edit` to `db` and to the row mirror the way the engine does
/// (UPDATE moves the rows it touches to the end of the table, in order),
/// and returns how many row deltas it published.
fn apply(
    db: &mut Database,
    mirror: &mut Vec<(i64, f64, f64)>,
    next_id: &mut i64,
    edit: &Edit,
) -> u64 {
    match edit {
        Edit::Insert(points) => {
            let rows: Vec<(i64, f64, f64)> = points
                .iter()
                .map(|&(x, y)| {
                    *next_id += 1;
                    (*next_id - 1, x, y)
                })
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values(&rows)))
                .unwrap();
            mirror.extend(&rows);
            rows.len() as u64
        }
        Edit::DeleteId(k) => {
            db.execute(&format!("DELETE FROM t WHERE id = {k}"))
                .unwrap();
            let before = mirror.len();
            mirror.retain(|&(id, _, _)| id != *k);
            (before - mirror.len()) as u64
        }
        Edit::DeleteRight(cut) => {
            db.execute(&format!("DELETE FROM t WHERE x > {cut:?}"))
                .unwrap();
            let before = mirror.len();
            mirror.retain(|&(_, x, _)| x <= *cut);
            (before - mirror.len()) as u64
        }
        Edit::UpdateBelow { cut, shift } => {
            let set = if *shift < 0.0 {
                format!("x - {:?}", -shift)
            } else {
                format!("x + {shift:?}")
            };
            db.execute(&format!("UPDATE t SET x = {set} WHERE y < {cut:?}"))
                .unwrap();
            let moved: Vec<(i64, f64, f64)> = mirror
                .iter()
                .filter(|&&(_, _, y)| y < *cut)
                .map(|&(id, x, y)| (id, x + shift, y))
                .collect();
            mirror.retain(|&(_, _, y)| y >= *cut);
            mirror.extend(&moved);
            2 * moved.len() as u64
        }
    }
}

/// Runs the script against a subscription under `metric` and `overlap`,
/// checking the snapshot, the served SELECT and the epoch after every
/// statement.
fn check_script(metric: (&str, Metric), overlap: (&str, OverlapAction)) {
    let clause = format!(
        "GROUP BY x, y DISTANCE-TO-ALL {} WITHIN {EPS:?} ON-OVERLAP {}",
        metric.0, overlap.0
    );
    let subscribed = format!("SELECT count(*) FROM t {clause}");
    let served = format!("SELECT count(*), min(id), max(id), sum(y) FROM t {clause}");
    let query = SgbQuery::all(EPS)
        .metric(metric.1)
        .overlap(overlap.1)
        .seed(SESSION_SEED);

    let mut mirror = initial_rows();
    let mut next_id = mirror.len() as i64;
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INT, x DOUBLE, y DOUBLE)")
        .unwrap();
    db.execute(&format!("INSERT INTO t VALUES {}", values(&mirror)))
        .unwrap();
    let sub = db.subscribe(&subscribed).unwrap();
    let mut epoch = 0;
    let mut eliminated_seen = false;
    for (step, edit) in script().iter().enumerate() {
        epoch += apply(&mut db, &mut mirror, &mut next_id, edit);
        let context = format!("{} {} step {step} {edit:?}", metric.0, overlap.0);

        let snap = sub.snapshot();
        assert!(sub.is_active(), "{context}");
        assert_eq!(snap.epoch(), epoch, "{context}: one epoch per row delta");
        let points: Vec<Point<2>> = mirror.iter().map(|&(_, x, y)| Point::new([x, y])).collect();
        assert_eq!(snap.grouping(), &query.run(&points), "{context}");
        assert_eq!(
            snap.grouping().selection_reason(),
            format!("maintained incrementally (epoch {epoch})"),
            "{context}"
        );
        eliminated_seen |= !snap.grouping().eliminated().is_empty();

        let explain = db.explain(&served).unwrap();
        assert!(explain.contains("snapshot:"), "{context}: {explain}");
        let mut fresh = Database::with_options(
            SessionOptions::new()
                .with_cache(false)
                .with_subscriptions(false),
        );
        fresh.register(
            "t",
            Table::new(Schema::new(["id", "x", "y"]), rows_of(&mirror)).unwrap(),
        );
        assert_eq!(
            db.query(&served).unwrap(),
            fresh.query(&served).unwrap(),
            "{context}"
        );
    }
    if overlap.1 == OverlapAction::Eliminate {
        assert!(
            eliminated_seen,
            "{}: the script never eliminated a row",
            metric.0
        );
    }
}

const OVERLAPS: [(&str, OverlapAction); 3] = [
    ("JOIN-ANY", OverlapAction::JoinAny),
    ("ELIMINATE", OverlapAction::Eliminate),
    ("FORM-NEW-GROUP", OverlapAction::FormNewGroup),
];

#[test]
fn all_subscription_tracks_writes_under_l2() {
    for overlap in OVERLAPS {
        check_script(("L2", Metric::L2), overlap);
    }
}

#[test]
fn all_subscription_tracks_writes_under_linf() {
    for overlap in OVERLAPS {
        check_script(("LINF", Metric::LInf), overlap);
    }
}
