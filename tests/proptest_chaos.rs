//! Fault-injection chaos harness (the `failpoints` feature): random
//! query / INSERT / DELETE / UPDATE mixes against one long-lived session
//! while faults fire at every injection site in the engine, asserting
//! after **every** injected fault that the session's next statements are
//! bit-identical to a fresh `Database` over the same data — a failed
//! statement may produce nothing, but it may never corrupt the session.
//!
//! Everything runs in a single `#[test]`: the failpoint registry is
//! process-global, so phases that arm faults must not race phases that
//! assume none are armed. Both the op mix and the fault rolls come from
//! fixed-seed xorshift generators, so a CI failure replays locally
//! bit-for-bit.
#![cfg(feature = "failpoints")]

use sgb::core::{Algorithm, QueryGovernor, SgbError, SgbQuery};
use sgb::geom::Point;
use sgb::relation::{Database, Error, SessionOptions};

/// Deterministic xorshift64* op generator — independent of the failpoint
/// registry's own PRNG so arming order never shifts the op mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Every typed-error injection site in the engine, armed together during
/// the chaos loop. `store_result` is the benign one — it silently skips a
/// result-cache store, which must never change any answer.
const SITES: &[(&str, &str)] = &[
    ("sgb_core::any::grid_join", "30%return"),
    ("sgb_core::around::assign", "30%return"),
    ("sgb_core::incremental::insert_pre", "20%return"),
    ("sgb_core::incremental::insert_post", "20%return"),
    ("sgb_core::incremental::delete_pre", "20%return"),
    ("sgb_core::incremental::delete_post", "20%return"),
    ("sgb_core::cache::store_result", "30%return"),
];

fn arm() {
    for (site, action) in SITES {
        failpoints::cfg(*site, action).expect("valid action spec");
    }
}

fn disarm() {
    failpoints::teardown();
}

/// The session options under chaos: the ε-grid pinned (so the grid-join
/// site is actually on the hot path at these cardinalities) with every
/// shared-work cache enabled.
fn options() -> SessionOptions {
    SessionOptions::new().with_any_algorithm(Algorithm::Grid)
}

fn seed_statement(rows: &[(f64, f64)]) -> Option<String> {
    if rows.is_empty() {
        return None;
    }
    let values: Vec<String> = rows.iter().map(|(x, y)| format!("({x}, {y})")).collect();
    Some(format!("INSERT INTO t VALUES {}", values.join(", ")))
}

/// A fresh database over exactly `rows` — the oracle the chaotic session
/// must stay bit-identical to.
fn fresh_db(rows: &[(f64, f64)]) -> Database {
    let mut db = Database::with_options(options());
    db.execute("CREATE TABLE t (x DOUBLE, y DOUBLE)").unwrap();
    if let Some(stmt) = seed_statement(rows) {
        db.execute(&stmt).unwrap();
    }
    db
}

/// The probe set: one statement per operator family, including the
/// subscription's own query so a poisoned snapshot cannot hide (the
/// session serves that probe straight from the published snapshot).
const PROBES: &[&str] = &[
    "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1",
    "SELECT count(*), min(x) FROM t GROUP BY x, y AROUND ((2, 2), (6, 6)) L2 WITHIN 1.5",
    "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 1 ON-OVERLAP ELIMINATE",
];

#[test]
fn chaos_faults_never_corrupt_the_session() {
    // ---- Phase A: a worker panic surfaces as a typed error, not an abort.
    disarm();
    failpoints::cfg(
        "sgb_core::governor::run_job",
        "panic(injected worker crash)",
    )
    .unwrap();
    let pts: Vec<Point<2>> = (0..512)
        .map(|i| Point::new([f64::from(i % 32), f64::from(i / 32)]))
        .collect();
    let sharded = SgbQuery::any(0.75)
        .algorithm(Algorithm::Grid)
        .threads(3)
        .try_run(&pts, &QueryGovernor::unrestricted());
    match sharded {
        Err(SgbError::WorkerPanicked { ref message }) => {
            assert!(
                message.contains("injected worker crash"),
                "panic payload lost: {message}"
            );
        }
        ref other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    failpoints::remove("sgb_core::governor::run_job");
    // The same query completes once the fault is gone (nothing poisoned).
    let clean = SgbQuery::any(0.75)
        .algorithm(Algorithm::Grid)
        .threads(3)
        .try_run(&pts, &QueryGovernor::unrestricted())
        .unwrap();
    assert_eq!(
        clean,
        SgbQuery::any(0.75)
            .algorithm(Algorithm::Grid)
            .try_run(&pts, &QueryGovernor::unrestricted())
            .unwrap()
    );

    // ---- Phase B: the chaos loop. --------------------------------------
    const MIN_FAULTS: u64 = 500;
    const MAX_OPS: usize = 6000;

    failpoints::set_seed(0x5EED_CAFE_F00D_0001);
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);

    let mut db = Database::with_options(options());
    db.execute("CREATE TABLE t (x DOUBLE, y DOUBLE)").unwrap();
    let mut mirror: Vec<(f64, f64)> = Vec::new();
    for _ in 0..24 {
        let (x, y) = (rng.unit() * 8.0, rng.unit() * 8.0);
        db.execute(&format!("INSERT INTO t VALUES ({x}, {y})"))
            .unwrap();
        mirror.push((x, y));
    }
    // The subscription rides through every fault: deltas that fail inject
    // a rebuild, never a stale or partial snapshot.
    let sub = db.subscribe(PROBES[0]).unwrap();
    let mut last_epoch = sub.snapshot().epoch();

    let fires_at_start = failpoints::fires();
    let mut ops = 0usize;
    let mut statements_failed = 0u64;
    // Every subscription delta batch the loop triggers (INSERT: one;
    // non-empty DELETE: one; non-empty UPDATE: delete+insert pair) — the
    // oracle for the registry's delta-outcome counters.
    let mut delta_batches = 0u64;
    while failpoints::fires() - fires_at_start < MIN_FAULTS && ops < MAX_OPS {
        ops += 1;
        arm();
        let fires_before = failpoints::fires();
        let roll = if mirror.len() > 120 {
            3 // deletes only, once the table is large enough
        } else {
            rng.below(6)
        };
        match roll {
            // Similarity SELECTs — the only statements allowed to fail,
            // and only ever with a typed abort.
            0 | 1 => {
                let eps = 0.5 * (1 + rng.below(4)) as f64;
                let sql = if roll == 0 {
                    format!("SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN {eps}")
                } else {
                    format!(
                        "SELECT count(*) FROM t GROUP BY x, y AROUND ((2, 2), (6, 6)) L2 WITHIN {eps}"
                    )
                };
                if let Err(err) = db.execute(&sql) {
                    statements_failed += 1;
                    assert!(
                        matches!(err, Error::Aborted(_)),
                        "fault leaked as an untyped error: {err}"
                    );
                }
            }
            // Mutations always succeed: faults here strand only the
            // subscription's delta, which must recover by rebuilding.
            2 => {
                let k = 1 + rng.below(3);
                let rows: Vec<(f64, f64)> = (0..k)
                    .map(|_| (rng.unit() * 8.0, rng.unit() * 8.0))
                    .collect();
                db.execute(&seed_statement(&rows).unwrap()).unwrap();
                mirror.extend(rows);
                delta_batches += 1;
            }
            3 => {
                let cut = rng.unit() * 8.0;
                if mirror.iter().any(|&(x, _)| x > cut) {
                    delta_batches += 1; // an empty DELETE notifies no one
                }
                db.execute(&format!("DELETE FROM t WHERE x > {cut}"))
                    .unwrap();
                mirror.retain(|&(x, _)| x <= cut);
            }
            4 => {
                let cut = rng.unit() * 8.0;
                let shift = rng.unit() * 4.0 - 2.0;
                if mirror.iter().any(|&(x, _)| x < cut) {
                    delta_batches += 2; // UPDATE runs as a delete+insert pair
                }
                db.execute(&format!("UPDATE t SET x = x + {shift} WHERE x < {cut}"))
                    .unwrap();
                // Replay of UPDATE-as-delete+insert: touched rows move to
                // the end, right-hand sides read the old row.
                let touched: Vec<(f64, f64)> = mirror
                    .iter()
                    .filter(|&&(x, _)| x < cut)
                    .map(|&(x, y)| (x + shift, y))
                    .collect();
                mirror.retain(|&(x, _)| x >= cut);
                mirror.extend(touched);
            }
            _ => {
                // A plain scan keeps non-similarity paths in the mix.
                let out = db.execute("SELECT count(*) FROM t").unwrap();
                assert_eq!(out.rows[0][0].to_string(), mirror.len().to_string());
            }
        }
        let faulted = failpoints::fires() > fires_before;
        disarm();

        // After every injected fault (and periodically regardless): the
        // session must answer exactly like a database that never saw one,
        // and its metrics registry must stay coherent with what the loop
        // actually observed.
        if faulted || ops % 16 == 0 {
            assert_registry_coherent(&db, statements_failed, delta_batches);
            let mut oracle = fresh_db(&mirror);
            for probe in PROBES {
                let got = db
                    .execute(probe)
                    .unwrap_or_else(|e| panic!("probe failed with faults disarmed: {e} ({probe})"));
                let want = oracle.execute(probe).unwrap();
                assert_eq!(got, want, "session diverged from fresh database on {probe}");
            }
            let snap = sub.snapshot();
            assert!(sub.is_active(), "subscription deactivated under chaos");
            assert!(
                snap.epoch() >= last_epoch,
                "snapshot epoch went backwards: {last_epoch} -> {}",
                snap.epoch()
            );
            last_epoch = snap.epoch();
        }
    }
    disarm();

    let fired = failpoints::fires() - fires_at_start;
    assert!(
        fired >= MIN_FAULTS,
        "chaos loop injected only {fired} faults in {ops} ops (wanted {MIN_FAULTS})"
    );
    // Sanity: the mix actually exercised the typed-abort path.
    assert!(
        statements_failed > 0,
        "no statement ever failed under chaos"
    );

    // ---- Phase C: after the storm, the session is still fully usable. --
    let mut oracle = fresh_db(&mirror);
    for probe in PROBES {
        assert_eq!(db.execute(probe).unwrap(), oracle.execute(probe).unwrap());
    }
    db.execute("INSERT INTO t VALUES (4.25, 4.25)").unwrap();
    delta_batches += 1;
    assert!(sub.snapshot().epoch() >= last_epoch);
    assert_registry_coherent(&db, statements_failed, delta_batches);
}

/// The registry-coherence invariant, checked after every injected fault:
///
/// * the non-`ok` statement count equals the `Err`s the loop actually
///   observed — a fault that aborts a statement is counted exactly once,
///   and a fault the engine absorbed (a skipped cache store, a recovered
///   delta) is not counted as a failure;
/// * every statement produced exactly **one** latency observation — a
///   query killed mid-flight must not leak a second, partial timing into
///   the histogram;
/// * the subscription delta outcomes add up: no deadline is set, so
///   nothing may ever be `rejected`, and `applied + recovered` equals the
///   delta batches the mutations triggered.
fn assert_registry_coherent(db: &Database, statements_failed: u64, delta_batches: u64) {
    let metrics = db.metrics();
    let total = metrics.counter_total("sgb_statements_total");
    let ok: u64 = [
        "create_table",
        "insert",
        "delete",
        "update",
        "select",
        "set",
        "drop_table",
        "explain",
    ]
    .iter()
    .map(|kind| metrics.counter_value("sgb_statements_total", &[("kind", kind), ("outcome", "ok")]))
    .sum();
    assert_eq!(
        total - ok,
        statements_failed,
        "registry error counters diverged from the Errs the loop observed"
    );
    assert_eq!(
        metrics.histogram_count("sgb_statement_ms"),
        total,
        "statement latency observations != statements (a partial timing leaked)"
    );
    let deltas = "sgb_subscription_deltas_total";
    assert_eq!(
        metrics.counter_value(deltas, &[("outcome", "rejected")]),
        0,
        "a delta was deadline-rejected with no deadline set"
    );
    assert_eq!(
        metrics.counter_value(deltas, &[("outcome", "applied")])
            + metrics.counter_value(deltas, &[("outcome", "recovered")]),
        delta_batches,
        "delta outcomes do not add up to the batches the mutations triggered"
    );
}
