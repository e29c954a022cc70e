//! Incremental maintenance benchmark: a steady-state update stream
//! (alternating inserts and deletes, so cardinality stays ~`n`) applied to
//! a [`MaintainedGrouping`] versus re-running the query from scratch after
//! every update — one row per operator family. The incremental figure
//! charges the full serving cost at the engine's native cadence: every
//! delta application plus the snapshot materialisation that publishes the
//! result (SGB-All's deltas only store or clear slots, and its snapshot is
//! one recompute, which the figure includes).
//! The baseline figure is the per-update cost of the only alternative, a
//! full `SgbQuery::run` over the live points. Each row asserts that the
//! final maintained snapshot equals the from-scratch recompute — full
//! `Grouping` equality — so a run doubles as an equivalence check, and the
//! per-row group counts let CI diff the two paths textually.
//!
//! The header also reports `snapshot_read_ns`: the cost for a concurrent
//! reader to take a published snapshot from a live subscription at the
//! relation layer (an `Arc` clone under a read lock — independent of `n`).
//!
//! The `sql_insert`, `sql_delete` and `sql_update` rows time whole SQL
//! statements — 10-row `INSERT`s, `DELETE … WHERE uid = k` and
//! `UPDATE … SET x = x + dx WHERE uid = k` — against a check-in table with
//! one SGB-Any subscription, at two table sizes, beside the same
//! statements on the table without it. Each row asserts that the
//! subscription's final snapshot serves the answer of a fresh cache-off
//! database over the final table, and reports both group counts for the
//! same CI diff.
//!
//! ```text
//! maintenance [--scale f] [--out path]
//! ```
//!
//! By default the report is written to `BENCH_incremental.json` at the
//! repository root; the committed copy is regenerated manually at full
//! scale (`n = 20_000`).

use std::process::ExitCode;
use std::time::Instant;

use sgb_bench::report::{parse_bench_cli, Report};
use sgb_core::incremental::MaintainedGrouping;
use sgb_core::query::SgbQuery;
use sgb_datagen::CheckinConfig;
use sgb_geom::{Metric, Point};
use sgb_relation::{Database, Row, Schema, SessionOptions, Table, Value};

/// Default output path: `<repo root>/BENCH_incremental.json`.
fn default_out() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json").to_owned()
}

/// Updates applied to the maintained grouping (timed incrementally).
const UPDATES: usize = 500;

/// Updates for the from-scratch baseline (each one pays a full run, so a
/// handful suffices for a stable per-update figure).
const FULL_UPDATES: usize = 6;

/// Snapshot reads timed at the relation layer.
const SNAPSHOT_READS: usize = 100_000;

/// Statements per SQL row.
const SQL_STATEMENTS: usize = 40;

/// Rows per statement of the `sql_insert` rows.
const INSERT_ROWS: usize = 10;

/// The subscribed SGB-Any of the SQL rows, over check-ins in the unit
/// square: the statement benchmark's `session-mix` subscription.
const SQL_SUBSCRIBED: &str =
    "SELECT count(*), avg(x), avg(y) FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.002";

/// A deterministic LCG (same constants as the core tests) so the data and
/// the update stream are reproducible without `rand`.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_usize(&mut self, bound: usize) -> usize {
        (self.next_f64() * bound as f64) as usize % bound.max(1)
    }

    fn next_point(&mut self) -> Point<2> {
        Point::new([self.next_f64() * 100.0, self.next_f64() * 100.0])
    }
}

/// Uniform points over `[0, 100)²` — ε = 0.3 keeps component sizes small
/// at `n = 20_000` (≈ 2 points per unit square), the regime where
/// maintenance is interesting: most deltas touch a handful of tuples.
fn base_points(n: usize, rng: &mut Lcg) -> Vec<Point<2>> {
    (0..n).map(|_| rng.next_point()).collect()
}

/// The benchmarked query per operator family.
fn queries(rng: &mut Lcg) -> Vec<(&'static str, SgbQuery<2>)> {
    let centers: Vec<Point<2>> = (0..64).map(|_| rng.next_point()).collect();
    vec![
        ("any", SgbQuery::any(0.3).metric(Metric::L2)),
        ("all", SgbQuery::all(0.3).metric(Metric::L2)),
        (
            "around",
            SgbQuery::around(centers).max_radius(2.0).metric(Metric::L2),
        ),
    ]
}

/// One steady-state update: even steps insert a fresh point, odd steps
/// delete a random live slot. `live` tracks live slot ids; `mirror` the
/// slot table (for the baseline's from-scratch reruns).
enum Update {
    Insert(Point<2>),
    DeleteNth(usize),
}

fn schedule(rng: &mut Lcg, updates: usize) -> Vec<Update> {
    (0..updates)
        .map(|step| {
            if step % 2 == 0 {
                Update::Insert(rng.next_point())
            } else {
                Update::DeleteNth(rng.next_usize(usize::MAX))
            }
        })
        .collect()
}

struct OpRow {
    op: &'static str,
    seconds_deltas: f64,
    seconds_snapshot: f64,
    incr_updates_per_sec: f64,
    full_seconds_per_update: f64,
    speedup: f64,
    groups_incremental: usize,
    groups_recompute: usize,
}

/// Runs one operator family: the timed incremental stream, the timed
/// from-scratch baseline, and the end-state equivalence assertion.
fn run_op(op: &'static str, query: &SgbQuery<2>, points: &[Point<2>]) -> OpRow {
    let mut rng = Lcg(0xfeed_0000 + op.len() as u64);
    let stream = schedule(&mut rng, UPDATES);

    // Incremental: apply every delta, then materialise the snapshot the
    // serving layer would publish (this is where SGB-All recomputes, so the
    // figure is end to end).
    let mut maintained = MaintainedGrouping::new(query.clone(), points);
    let mut live: Vec<usize> = (0..points.len()).collect();
    let t0 = Instant::now();
    for u in &stream {
        match u {
            Update::Insert(p) => live.push(maintained.insert(*p)),
            Update::DeleteNth(raw) => {
                let slot = live.swap_remove(raw % live.len());
                assert!(maintained.delete(slot), "scheduled slots are live");
            }
        }
    }
    let seconds_deltas = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let incremental = maintained.snapshot();
    let seconds_snapshot = t1.elapsed().as_secs_f64();

    // Baseline: the same stream prefix, recomputing from scratch after
    // every update — the only option without the maintenance engine.
    let mut rng = Lcg(0xfeed_0000 + op.len() as u64);
    let prefix = schedule(&mut rng, FULL_UPDATES);
    let mut mirror: Vec<Option<Point<2>>> = points.iter().copied().map(Some).collect();
    let mut live: Vec<usize> = (0..points.len()).collect();
    let t2 = Instant::now();
    for u in &prefix {
        match u {
            Update::Insert(p) => {
                live.push(mirror.len());
                mirror.push(Some(*p));
            }
            Update::DeleteNth(raw) => {
                let slot = live.swap_remove(raw % live.len());
                mirror[slot] = None;
            }
        }
        let pts: Vec<Point<2>> = mirror.iter().flatten().copied().collect();
        std::hint::black_box(query.run(&pts));
    }
    let full_seconds_per_update = t2.elapsed().as_secs_f64() / FULL_UPDATES as f64;

    // Equivalence gate: the maintained end state equals a from-scratch
    // run over the final live points (full Grouping equality).
    let recompute = query.run(&maintained.live_points());
    assert_eq!(
        incremental, recompute,
        "maintained {op} grouping must equal the from-scratch recompute"
    );

    let incr_seconds_per_update = (seconds_deltas + seconds_snapshot) / UPDATES as f64;
    OpRow {
        op,
        seconds_deltas,
        seconds_snapshot,
        incr_updates_per_sec: 1.0 / incr_seconds_per_update,
        full_seconds_per_update,
        speedup: full_seconds_per_update / incr_seconds_per_update,
        groups_incremental: incremental.num_groups(),
        groups_recompute: recompute.num_groups(),
    }
}

/// One SQL row: a write kind at one table size.
struct SqlRow {
    op: &'static str,
    n: usize,
    subscribed: Latencies,
    unsubscribed: Latencies,
    groups_incremental: usize,
    groups_recompute: usize,
}

/// Statement latencies in ms: median, 90th percentile (nearest rank) and
/// maximum.
struct Latencies {
    p50_ms: f64,
    p90_ms: f64,
    max_ms: f64,
}

/// Runs `statements` in order on `db`, timing each.
fn time_statements(db: &mut Database, statements: &[String]) -> Latencies {
    let mut ms: Vec<f64> = statements
        .iter()
        .map(|sql| {
            let t0 = Instant::now();
            db.execute(sql).expect("benchmark statements are valid");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let rank = |q: f64| ms[((q * ms.len() as f64).ceil() as usize).clamp(1, ms.len()) - 1];
    Latencies {
        p50_ms: rank(0.5),
        p90_ms: rank(0.9),
        max_ms: rank(1.0),
    }
}

/// A database holding `rows` as the check-in table.
fn checkin_db(options: SessionOptions, rows: Vec<Row>) -> Database {
    let mut db = Database::with_options(options);
    db.register(
        "checkins",
        Table::new(Schema::new(["uid", "x", "y"]), rows).expect("check-in rows have three columns"),
    );
    db
}

/// Times `SQL_STATEMENTS` statements against `n` Brightkite-like
/// check-ins (about a dozen per user, most at the user's home hotspot)
/// with and without the SGB-Any subscription, then checks the
/// subscription against a fresh cache-off database over the final table.
/// `op` = `sql_insert` inserts `INSERT_ROWS` check-ins per statement, the
/// tail of a map generated with that many more; `sql_delete` and
/// `sql_update` delete or move one user's check-ins per statement.
fn run_sql(op: &'static str, n: usize) -> SqlRow {
    let inserted = if op == "sql_insert" {
        SQL_STATEMENTS * INSERT_ROWS
    } else {
        0
    };
    let config = CheckinConfig::brightkite_like(n + inserted);
    let data = config.generate();
    let mut rows: Vec<Row> = data
        .checkins
        .iter()
        .zip(data.normalized_points())
        .map(|(c, p)| {
            vec![
                Value::Int(i64::from(c.user)),
                Value::Float(p.x()),
                Value::Float(p.y()),
            ]
        })
        .collect();
    let tail = rows.split_off(n);
    let statements: Vec<String> = if op == "sql_insert" {
        // `Value` prints an integral float as `x.0` and any other one in
        // full, so the statements insert exactly the tail's rows.
        tail.chunks(INSERT_ROWS)
            .map(|chunk| {
                let values: Vec<String> = chunk
                    .iter()
                    .map(|row| format!("({}, {}, {})", row[0], row[1], row[2]))
                    .collect();
                format!("INSERT INTO checkins VALUES {}", values.join(", "))
            })
            .collect()
    } else {
        let mut rng = Lcg(0x5e1_0000 + n as u64 + op.len() as u64);
        (0..SQL_STATEMENTS)
            .map(|_| {
                let uid = rng.next_usize(config.users);
                if op == "sql_delete" {
                    format!("DELETE FROM checkins WHERE uid = {uid}")
                } else {
                    let dx = (rng.next_f64() - 0.5) * 0.002;
                    format!("UPDATE checkins SET x = x + {dx} WHERE uid = {uid}")
                }
            })
            .collect()
    };

    let mut db = checkin_db(SessionOptions::new(), rows.clone());
    let sub = db
        .subscribe(SQL_SUBSCRIBED)
        .expect("subscription over a registered base table");
    let subscribed = time_statements(&mut db, &statements);
    let mut bare = checkin_db(SessionOptions::new(), rows);
    let unsubscribed = time_statements(&mut bare, &statements);

    // Equivalence gate: the snapshot-served answer equals a fresh cache-off
    // recompute over the final table.
    let final_rows = db
        .table("checkins")
        .expect("the check-in table stays registered")
        .rows
        .clone();
    let mut fresh = checkin_db(
        SessionOptions::new()
            .with_cache(false)
            .with_subscriptions(false),
        final_rows,
    );
    let recompute = fresh.execute(SQL_SUBSCRIBED).expect("fresh recompute");
    assert!(sub.is_active(), "{op}: the subscription stays active");
    assert_eq!(
        db.execute(SQL_SUBSCRIBED).expect("snapshot-served read"),
        recompute,
        "{op} at n = {n}: the subscription must serve the fresh answer"
    );
    SqlRow {
        op,
        n,
        subscribed,
        unsubscribed,
        groups_incremental: sub.snapshot().grouping().num_groups(),
        groups_recompute: recompute.len(),
    }
}

/// Times a published-snapshot read at the relation layer: `n` rows,
/// one live subscription, one mutation so the snapshot is epoch 1.
fn snapshot_read_ns(points: &[Point<2>]) -> f64 {
    let mut t = Table::empty(Schema::new(["x", "y"]));
    for p in points {
        t.push(vec![Value::Float(p.coord(0)), Value::Float(p.coord(1))])
            .expect("generated rows match the schema");
    }
    let mut db = Database::new();
    db.register("pts", t);
    let sub = db
        .subscribe("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.3")
        .expect("subscription over a registered base table");
    db.execute("INSERT INTO pts VALUES (50.0, 50.0)")
        .expect("insert applies the delta");
    assert_eq!(sub.snapshot().epoch(), 1);
    let t0 = Instant::now();
    for _ in 0..SNAPSHOT_READS {
        std::hint::black_box(sub.snapshot());
    }
    t0.elapsed().as_secs_f64() * 1e9 / SNAPSHOT_READS as f64
}

fn main() -> ExitCode {
    let cli = match parse_bench_cli(std::env::args().skip(1)) {
        Ok(cli) if cli.positional.is_none() && cli.threads == 0 => cli,
        _ => {
            eprintln!("usage: maintenance [--scale f] [--out path]");
            return ExitCode::FAILURE;
        }
    };
    let out_path = cli.out.unwrap_or_else(default_out);
    let n = ((20_000.0 * cli.scale) as usize).max(64);

    let mut rng = Lcg(0x5eed_1234_5678_9abc);
    let points = base_points(n, &mut rng);
    let queries = queries(&mut rng);

    eprintln!("# incremental maintenance: n = {n}, {UPDATES} updates per operator");
    eprintln!(
        "{:<8} {:>12} {:>12} {:>14} {:>14} {:>9} {:>8}",
        "op", "deltas_s", "snapshot_s", "incr_upd/s", "full_upd/s", "speedup", "groups"
    );
    let mut rows = Vec::new();
    for (op, query) in &queries {
        let row = run_op(op, query, &points);
        eprintln!(
            "{:<8} {:>12.4} {:>12.4} {:>14.1} {:>14.1} {:>9.1} {:>8}",
            row.op,
            row.seconds_deltas,
            row.seconds_snapshot,
            row.incr_updates_per_sec,
            1.0 / row.full_seconds_per_update,
            row.speedup,
            row.groups_incremental
        );
        rows.push(row);
    }
    let read_ns = snapshot_read_ns(&points);
    eprintln!("# published-snapshot read: {read_ns:.0} ns (Arc clone under a read lock)");

    eprintln!(
        "# SQL writes with an SGB-Any subscription: {SQL_STATEMENTS} statements per row (ms)"
    );
    eprintln!(
        "{:<11} {:>7} {:>8} {:>8} {:>8} {:>11} {:>8}",
        "op", "n", "p50", "p90", "max", "bare_p50", "groups"
    );
    let mut sql_rows = Vec::new();
    for size in [n, n * 5 / 2] {
        for op in ["sql_insert", "sql_delete", "sql_update"] {
            let row = run_sql(op, size);
            eprintln!(
                "{:<11} {:>7} {:>8.2} {:>8.2} {:>8.2} {:>11.2} {:>8}",
                row.op,
                row.n,
                row.subscribed.p50_ms,
                row.subscribed.p90_ms,
                row.subscribed.max_ms,
                row.unsubscribed.p50_ms,
                row.groups_incremental
            );
            sql_rows.push(row);
        }
    }

    let mut report = Report::new("incremental_maintenance")
        .field_num("scale", cli.scale)
        .field_num("n", n as f64)
        .field_num("updates", UPDATES as f64)
        .field_num("full_updates", FULL_UPDATES as f64)
        .field_num("snapshot_read_ns", read_ns);
    for row in &rows {
        report.push_row(format!(
            "{{\"op\": \"{}\", \"seconds_deltas\": {:.6}, \"seconds_snapshot\": {:.6}, \
             \"incr_updates_per_sec\": {:.1}, \"full_seconds_per_update\": {:.6}, \
             \"speedup\": {:.2}, \"groups_incremental\": {}, \"groups_recompute\": {}}}",
            row.op,
            row.seconds_deltas,
            row.seconds_snapshot,
            row.incr_updates_per_sec,
            row.full_seconds_per_update,
            row.speedup,
            row.groups_incremental,
            row.groups_recompute
        ));
    }
    for row in &sql_rows {
        report.push_row(format!(
            "{{\"op\": \"{}\", \"n\": {}, \"statements\": {SQL_STATEMENTS}, \
             \"stmt_p50_ms\": {:.3}, \"stmt_p90_ms\": {:.3}, \"stmt_max_ms\": {:.3}, \
             \"unsubscribed_p50_ms\": {:.3}, \"unsubscribed_p90_ms\": {:.3}, \
             \"groups_incremental\": {}, \"groups_recompute\": {}}}",
            row.op,
            row.n,
            row.subscribed.p50_ms,
            row.subscribed.p90_ms,
            row.subscribed.max_ms,
            row.unsubscribed.p50_ms,
            row.unsubscribed.p90_ms,
            row.groups_incremental,
            row.groups_recompute
        ));
    }
    if let Err(e) = report.write(&out_path) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
