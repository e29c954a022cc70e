//! The four workloads: their data, their distinct statements and the
//! order the measured passes run them in. Everything here derives from
//! the `--seed`; the engine only ever sees the generated tables and SQL
//! text.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sgb_bench::queries::{self, GB1, GB2, GB3, SGB1_TEMPLATE, SGB3_TEMPLATE, SGB5_TEMPLATE};
use sgb_datagen::{CheckinConfig, TpchConfig};
use sgb_relation::{Database, Schema, SessionOptions, SubscriptionHandle, Table, Value};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// SQL `DISTANCE-TO-ANY` over Brightkite-like check-ins, cache off.
    CheckinAny,
    /// SQL `DISTANCE-TO-ALL` over Brightkite-like check-ins, cache off.
    CheckinAll,
    /// The paper's Table 2 statements over TPC-H-like tables.
    TpchTable2,
    /// Writes beside reads in a default session with a live subscription.
    SessionMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::CheckinAny,
        Workload::CheckinAll,
        Workload::TpchTable2,
        Workload::SessionMix,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CheckinAny => "checkin-any",
            Workload::CheckinAll => "checkin-all",
            Workload::TpchTable2 => "tpch-table2",
            Workload::SessionMix => "session-mix",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the data, registers it and subscribes: the work
    /// `setup_s` times.
    pub fn prepare(self, seed: u64, scale: Scale) -> Prepared {
        match self {
            Workload::CheckinAny => checkin_any(seed, scale),
            Workload::CheckinAll => checkin_all(seed, scale),
            Workload::TpchTable2 => tpch_table2(seed, scale),
            Workload::SessionMix => session_mix(seed, scale),
        }
    }
}

/// Data size relative to what the benchmark measures ([`Scale::FULL`]);
/// tests run the same code at a tiny scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// The measured scale.
    pub const FULL: Scale = Scale(1.0);

    fn rows(self, full: usize) -> usize {
        ((full as f64 * self.0).round() as usize).max(64)
    }
}

/// Check-ins per table at full scale.
const CHECKIN_ANY_ROWS: usize = 50_000;
const CHECKIN_ALL_ROWS: usize = 20_000;
const SESSION_ROWS: usize = 50_000;
/// TPC-H density at full scale (scale factor 1).
const TPCH_DENSITY: f64 = 0.005;

/// ε values of the check-in workloads, in normalised coordinates.
const ANY_EPS: [f64; 4] = [0.001, 0.002, 0.003, 0.005];
const ALL_EPS: [f64; 2] = [0.002, 0.004];
/// ε of the Table 2 similarity statements.
const TPCH_EPS: f64 = 0.1;

/// ε of `session-mix`'s subscribed SGB-Any and of its other SGB-Any reads.
const SUBSCRIBED_EPS: f64 = 0.002;
const OTHER_EPS: [f64; 2] = [0.001, 0.003];
/// AROUND centers of `session-mix`, drawn from the initial check-ins.
const AROUND_CENTERS: usize = 256;
/// `session-mix` deals its sequence from decks, each a seeded shuffle
/// that holds every write kind [`DECK_WRITES`] times and every read shape
/// [`DECK_READS`] times: 40% writes, the read shapes equally often. Every
/// deck has the same make-up, so seeds change the order, never the mix.
const DECK_WRITES: usize = 10;
const DECK_READS: usize = 9;
/// Decks in the sequence: 2550 statements, over twice what a 20-second
/// timed pass runs.
const MIX_DECKS: usize = 34;
/// The write kinds of `session-mix`.
const WRITES: [Kind; 3] = [Kind::Insert, Kind::Delete, Kind::Update];
/// Rows one INSERT adds.
const INSERT_ROWS: usize = 10;
/// Statements per block of `session-mix`'s timed pass: about half a
/// second of statements.
const MIX_BLOCK: usize = 20;
/// Statements of `session-mix`'s traced pass (the read-only workloads
/// trace each distinct statement [`TRACE_ROUNDS`] times instead).
const MIX_TRACED: usize = 100;
/// Rounds of the distinct statements a read-only workload's traced pass
/// runs.
const TRACE_ROUNDS: usize = 3;

/// What a statement does, for per-kind latencies and checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A SELECT of a read-only workload: its answer never changes, so
    /// every run must match the warm-up reference bit for bit.
    Read,
    /// A SELECT over a table that writes change (`session-mix`).
    MixRead,
    /// INSERT.
    Insert,
    /// DELETE.
    Delete,
    /// UPDATE.
    Update,
}

impl Kind {
    /// Whether the statement changes the table.
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Insert | Kind::Delete | Kind::Update)
    }

    /// Name in per-kind summaries; the label of every write.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read | Kind::MixRead => "read",
            Kind::Insert => "insert",
            Kind::Delete => "delete",
            Kind::Update => "update",
        }
    }
}

/// One statement of a workload.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// The SQL text.
    pub sql: String,
    /// What it does.
    pub kind: Kind,
    /// Short label for summaries (`SGB1-Any`, `any L2 0.002`, …).
    pub label: String,
    /// Whether the answer's first column is `count(*)` over a grouping
    /// that places every row of [`CHECKINS`] (SGB-Any, un-radiused
    /// AROUND), so it must sum to the table's row count.
    pub partitions: bool,
    /// `tpch-table2`: the index of the equality GROUP BY statement this
    /// similarity statement is compared with (`sgb_overhead_ratio`).
    pub baseline: Option<usize>,
}

impl Stmt {
    fn new(sql: String, kind: Kind, label: String) -> Self {
        Self {
            sql,
            kind,
            label,
            partitions: false,
            baseline: None,
        }
    }

    fn partitioning(mut self) -> Self {
        self.partitions = true;
        self
    }
}

/// A set-up workload: the session, its live subscription (if any), the
/// distinct statements and the order the measured passes run them in.
pub struct Prepared {
    /// The session every statement runs in.
    pub db: Database,
    /// `session-mix`'s live subscription and its SQL.
    pub subscription: Option<(SubscriptionHandle, String)>,
    /// The distinct statements.
    pub stmts: Vec<Stmt>,
    /// Indices into `stmts`. A read-only workload repeats it in whole
    /// rounds; `session-mix` runs it once, since its writes are distinct.
    pub cycle: Vec<usize>,
    /// Statements the traced pass runs, from the start of the cycle.
    pub traced: usize,
}

impl Prepared {
    /// Whether no statement changes the data, so every SELECT's answer is
    /// fixed by the seed.
    pub fn read_only(&self) -> bool {
        self.subscription.is_none()
    }

    /// Statements per block of the timed pass: a round of a read-only
    /// workload, [`MIX_BLOCK`] consecutive statements of `session-mix`.
    pub fn block(&self) -> usize {
        if self.read_only() {
            self.cycle.len()
        } else {
            MIX_BLOCK
        }
    }

    /// The `index`-th statement of the measured order.
    pub fn scheduled(&self, index: usize) -> Option<usize> {
        if self.read_only() {
            Some(self.cycle[index % self.cycle.len()])
        } else {
            self.cycle.get(index).copied()
        }
    }

    /// The read statements: every statement of a read-only workload,
    /// `session-mix`'s read shapes.
    pub fn reads(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.stmts.len()).filter(|&i| !self.stmts[i].kind.is_write())
    }
}

/// The check-in table every check-in statement reads.
pub const CHECKINS: &str = "checkins";

/// One check-in: user id and normalised coordinates.
type Checkin = (i64, f64, f64);

/// Seed of the check-in map: the hotspot layout a check-in workload
/// draws from. The cost of a similarity grouping is set by its densest
/// hotspots, so a layout drawn per `--seed` would make the measured
/// latency a property of the seed (a hotspot that lands on the box edge
/// piles its scatter onto one line). Fixing the geography and sampling
/// the check-ins from it with the seed keeps what the engine does the
/// same across seeds, while no two seeds see the same rows.
const MAP_SEED: u64 = 0xB816;
/// The map holds this many times the check-ins a workload samples.
const MAP_FACTOR: usize = 4;

/// `n` Brightkite-like check-ins sampled by `seed` from the fixed map,
/// with coordinates rescaled to the unit square by the map's bounds;
/// and the map's user count.
fn checkins(n: usize, seed: u64) -> (Vec<Checkin>, usize) {
    let config = CheckinConfig::brightkite_like(MAP_FACTOR * n).seed(MAP_SEED);
    let data = config.generate();
    let map: Vec<Checkin> = data
        .checkins
        .iter()
        .zip(data.normalized_points())
        .map(|(c, p)| (i64::from(c.user), p.x(), p.y()))
        .collect();
    // A partial Fisher–Yates shuffle: the first `n` slots are the sample,
    // in the order the table receives them.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..map.len()).collect();
    for i in 0..n {
        order.swap(i, rng.gen_range(i..map.len()));
    }
    (order[..n].iter().map(|&i| map[i]).collect(), config.users)
}

/// The check-in table over `rows`.
pub fn checkin_table(rows: Vec<Vec<Value>>) -> Table {
    Table::new(Schema::new(["uid", "x", "y"]), rows).expect("check-in rows have three columns")
}

fn checkin_rows(rows: &[Checkin]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|&(uid, x, y)| vec![Value::Int(uid), Value::Float(x), Value::Float(y)])
        .collect()
}

fn schedule_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x5eed_5c4e_d01e)
}

/// A seeded permutation of `0..n`: the round order of a read-only
/// workload, so any whole number of rounds runs every statement equally
/// often.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, &mut schedule_rng(seed));
    order
}

/// Fisher–Yates.
fn shuffle(items: &mut [usize], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn any_sql(metric: &str, eps: f64) -> String {
    format!(
        "SELECT count(*), avg(x), avg(y) FROM checkins \
         GROUP BY x, y DISTANCE-TO-ANY {metric} WITHIN {eps}"
    )
}

fn read_only(db: Database, stmts: Vec<Stmt>, cycle: Vec<usize>) -> Prepared {
    Prepared {
        db,
        subscription: None,
        traced: TRACE_ROUNDS * cycle.len(),
        stmts,
        cycle,
    }
}

fn checkin_any(seed: u64, scale: Scale) -> Prepared {
    let mut db = Database::with_options(SessionOptions::new().with_cache(false));
    let (rows, _) = checkins(scale.rows(CHECKIN_ANY_ROWS), seed);
    db.register(CHECKINS, checkin_table(checkin_rows(&rows)));
    let mut stmts = Vec::new();
    for metric in ["L2", "LINF", "L1"] {
        for eps in ANY_EPS {
            stmts.push(
                Stmt::new(
                    any_sql(metric, eps),
                    Kind::Read,
                    format!("any {metric} {eps}"),
                )
                .partitioning(),
            );
        }
    }
    let cycle = shuffled(stmts.len(), seed);
    read_only(db, stmts, cycle)
}

fn checkin_all(seed: u64, scale: Scale) -> Prepared {
    let mut db = Database::with_options(SessionOptions::new().with_cache(false).with_seed(seed));
    let (rows, _) = checkins(scale.rows(CHECKIN_ALL_ROWS), seed);
    db.register(CHECKINS, checkin_table(checkin_rows(&rows)));
    let mut stmts = Vec::new();
    for metric in ["L2", "LINF"] {
        for eps in ALL_EPS {
            for overlap in ["JOIN-ANY", "ELIMINATE", "FORM-NEW-GROUP"] {
                let sql = format!(
                    "SELECT count(*), avg(x), avg(y) FROM checkins GROUP BY x, y \
                     DISTANCE-TO-ALL {metric} WITHIN {eps} ON-OVERLAP {overlap}"
                );
                stmts.push(Stmt::new(
                    sql,
                    Kind::Read,
                    format!("all {metric} {eps} {overlap}"),
                ));
            }
        }
    }
    let cycle = shuffled(stmts.len(), seed);
    read_only(db, stmts, cycle)
}

fn tpch_table2(seed: u64, scale: Scale) -> Prepared {
    // No similarity node of Table 2 reads a bare table, so the session
    // cache could never serve one; turning it off makes that explicit.
    let mut db = Database::with_options(SessionOptions::new().with_cache(false).with_seed(seed));
    TpchConfig::new(1.0)
        .density(TPCH_DENSITY * scale.0)
        .seed(seed)
        .generate()
        .register_all(&mut db);
    let mut stmts = Vec::new();
    for (gb_label, gb, sgb_label, template) in [
        ("GB1", GB1, "SGB1", SGB1_TEMPLATE),
        ("GB2", GB2, "SGB3", SGB3_TEMPLATE),
        ("GB3", GB3, "SGB5", SGB5_TEMPLATE),
    ] {
        let base = stmts.len();
        stmts.push(Stmt::new(gb.to_owned(), Kind::Read, gb_label.to_owned()));
        for (op, sql) in [
            (
                "All",
                queries::with_sgb_all(template, TPCH_EPS, "L2", "JOIN-ANY"),
            ),
            ("Any", queries::with_sgb_any(template, TPCH_EPS, "L2")),
        ] {
            let mut s = Stmt::new(sql, Kind::Read, format!("{sgb_label}-{op}"));
            s.baseline = Some(base);
            stmts.push(s);
        }
    }
    // The paper's order, round after round: each SGB pair runs next to
    // its GROUP BY baseline.
    let cycle = (0..stmts.len()).collect();
    read_only(db, stmts, cycle)
}

fn session_mix(seed: u64, scale: Scale) -> Prepared {
    let n = scale.rows(SESSION_ROWS);
    // One sample supplies the initial table and the rows INSERTs add, so
    // both share one map and one user population.
    let inserts = MIX_DECKS * DECK_WRITES;
    let (mut rows, users) = checkins(n + inserts * INSERT_ROWS, seed);
    let pool = rows.split_off(n);
    let mut rng = schedule_rng(seed);

    // AROUND rejects duplicate centers, and dense hotspots repeat
    // coordinates: draw distinct locations.
    let mut seen = std::collections::HashSet::new();
    let centers: Vec<String> = shuffled(rows.len(), seed)
        .into_iter()
        .map(|i| rows[i])
        .filter(|&(_, x, y)| seen.insert((x.to_bits(), y.to_bits())))
        .take(AROUND_CENTERS)
        .map(|(_, x, y)| format!("({x}, {y})"))
        .collect();

    let mut db = Database::new();
    db.register(CHECKINS, checkin_table(checkin_rows(&rows)));
    let subscribed = any_sql("L2", SUBSCRIBED_EPS);
    let handle = db
        .subscribe(&subscribed)
        .expect("an SGB-Any over a bare table is subscribable");

    let mut stmts =
        vec![Stmt::new(subscribed.clone(), Kind::MixRead, "any subscribed".into()).partitioning()];
    for eps in OTHER_EPS {
        stmts.push(
            Stmt::new(any_sql("L2", eps), Kind::MixRead, format!("any L2 {eps}")).partitioning(),
        );
    }
    stmts.push(
        Stmt::new(
            format!(
                "SELECT count(*), avg(x), avg(y) FROM checkins GROUP BY x, y AROUND ({}) L2",
                centers.join(", ")
            ),
            Kind::MixRead,
            format!("around {AROUND_CENTERS}"),
        )
        .partitioning(),
    );
    stmts.push(Stmt::new(
        "SELECT uid, count(*), avg(x) FROM checkins WHERE x < 0.5 GROUP BY uid".into(),
        Kind::MixRead,
        "group by uid".into(),
    ));

    // The sequence, dealt deck by deck: a card below `shapes` is that read
    // shape; card `shapes + k` is a seeded write of kind `WRITES[k]`, each
    // a statement of its own.
    let shapes = stmts.len();
    let deck: Vec<usize> = (0..shapes)
        .flat_map(|shape| [shape; DECK_READS])
        .chain((0..WRITES.len()).flat_map(|k| [shapes + k; DECK_WRITES]))
        .collect();
    let mut pool = pool.chunks(INSERT_ROWS);
    let mut cycle = Vec::with_capacity(MIX_DECKS * deck.len());
    for _ in 0..MIX_DECKS {
        let mut dealt = deck.clone();
        shuffle(&mut dealt, &mut rng);
        for card in dealt {
            if card < shapes {
                cycle.push(card);
                continue;
            }
            let kind = WRITES[card - shapes];
            let uid = rng.gen_range(0..users);
            let sql = match kind {
                Kind::Insert => {
                    let values: Vec<String> = pool
                        .next()
                        .expect("the pool holds INSERT_ROWS rows for every INSERT")
                        .iter()
                        .map(|(uid, x, y)| format!("({uid}, {x}, {y})"))
                        .collect();
                    format!("INSERT INTO checkins VALUES {}", values.join(", "))
                }
                Kind::Delete => format!("DELETE FROM checkins WHERE uid = {uid}"),
                _ => {
                    let dx: f64 = rng.gen_range(-0.001..0.001);
                    format!("UPDATE checkins SET x = x + {dx} WHERE uid = {uid}")
                }
            };
            cycle.push(stmts.len());
            stmts.push(Stmt::new(sql, kind, kind.name().into()));
        }
    }
    Prepared {
        db,
        subscription: Some((handle, subscribed)),
        stmts,
        cycle,
        traced: MIX_TRACED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every deck of `session-mix` holds each read shape and each write
    /// kind equally often, whatever the seed.
    #[test]
    fn session_mix_decks_have_a_fixed_make_up() {
        for seed in [1, 2] {
            let p = session_mix(seed, Scale(0.01));
            let shapes = p.reads().count();
            let deck = shapes * DECK_READS + WRITES.len() * DECK_WRITES;
            assert_eq!(p.cycle.len(), MIX_DECKS * deck);
            for dealt in p.cycle.chunks(deck) {
                for shape in 0..shapes {
                    let n = dealt.iter().filter(|&&i| i == shape).count();
                    assert_eq!(n, DECK_READS, "seed {seed} shape {shape}");
                }
                for kind in WRITES {
                    let n = dealt.iter().filter(|&&i| p.stmts[i].kind == kind).count();
                    assert_eq!(n, DECK_WRITES, "seed {seed} {kind:?}");
                }
            }
        }
    }
}
