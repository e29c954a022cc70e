//! One run of one workload: set-up, warm-up, the timed pass, the output
//! checks and, when traced, the traced pass; and the metrics they give.

use std::collections::BTreeMap;
use std::time::Instant;

use sgb_core::{CacheStats, Counter, Phase};
use sgb_relation::{Database, SessionOptions, Table};

use crate::checks::{first_column_sum, same_bits};
use crate::layers::{self, Traced, CORE, RELATIONAL, SGB};
use crate::stats::{median, percentile, sorted, Summary};
use crate::trace::Recorder;
use crate::workloads::{checkin_table, Kind, Prepared, Scale, Stmt, Workload, CHECKINS};
use crate::yardstick::{self, Yardstick};

/// The end-to-end metrics, as `(name, unit)`: reported by every run
/// without tracing.
pub const END_TO_END: [(&str, &str); 5] = [
    ("stmt_p50_ms", "ms"),
    ("stmt_p95_ms", "ms"),
    ("throughput_sps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, as `(name, unit)`: reported by every traced
/// run. Every time here is non-zero on every workload; layer times are
/// means per traced statement, so they add up along a statement.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("sql.parse_us", "us"),
    ("planner.plan_ms", "ms"),
    ("exec.scan_ms", "ms"),
    ("exec.relational_ms", "ms"),
    ("exec.sgb_self_ms", "ms"),
    ("core.total_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.join_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.join_ns_per_candidate", "ns"),
    ("core.candidate_pairs", "count"),
    ("core.cells_probed", "count"),
    ("core.threads_used", "count"),
    ("cache.index_hit_ratio", "ratio"),
    ("cache.result_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("maint.deltas_applied", "count"),
    ("maint.deltas_rejected", "count"),
    ("read.recompute_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Least statements a timed pass runs, so `stmt_p95_ms` has at least
/// [`crate::stats::MIN_BEYOND`] samples beyond it.
pub const MIN_SAMPLES: usize = 200;

/// Set-ups per run, whose median is `setup_s`: at least
/// [`SETUP_MIN_REPS`], and more while they took under [`SETUP_SECONDS`]
/// in all, up to [`SETUP_MAX_REPS`]. A set-up takes 4–70 ms, so a few
/// alone would mostly measure page faults and the machine's momentary
/// speed; with half a second of them the median still spread 10–12% from
/// run to run on `checkin-all`.
const SETUP_MIN_REPS: usize = 11;
const SETUP_MAX_REPS: usize = 401;
const SETUP_SECONDS: f64 = 2.0;

/// Failure messages kept for the summary.
const KEPT_PROBLEMS: usize = 5;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The metrics of a declared list, `values` in its order.
fn declared<const N: usize>(list: &[(&str, &'static str); N], values: [f64; N]) -> Vec<Metric> {
    list.iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, unit, value))
        .collect()
}

/// How to run a workload.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed pass.
    pub seconds: f64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Data scale.
    pub scale: Scale,
}

/// What a run measured.
pub struct Outcome {
    /// Statements executed and checked.
    pub attempted: u64,
    /// Statements that failed or failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub problems: Vec<String>,
    /// The reported metrics: [`END_TO_END`], or with tracing
    /// [`PER_LAYER`].
    pub reported: Vec<Metric>,
    /// Further numbers for the summary and the `--out` report.
    pub details: Vec<Metric>,
    /// The traced pass's spans as JSON.
    pub spans: Option<String>,
}

/// Statement outcomes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn record(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.problems.len() < KEPT_PROBLEMS {
                self.problems.push(format!("{label}: {e}"));
            }
        }
    }
}

/// Runs `workload` once.
pub fn run(workload: Workload, settings: Settings) -> Outcome {
    let mut tally = Tally::default();
    let mut yardstick = Yardstick::new();
    let (setup_s, raw_setup_s, mut p) = set_up(workload, settings, &mut yardstick);
    let refs = warm_up(&mut p, &mut tally);
    let timed = timed_pass(&mut p, &refs, settings.seconds, &mut yardstick, &mut tally);
    // The workload's own peak, before the closing check copies the table.
    let rss = peak_rss_mb();
    if !p.read_only() {
        final_check(&mut p, &mut tally);
    }
    let label = |s: &Sample| (&p.stmts[s.stmt].label, s.ms);
    let medians = medians_by_label(timed.iter().map(label));
    // The traced pass runs the same first statements from the same start
    // state, so these are its untraced twins.
    let untraced = medians_by_label(timed.iter().take(p.traced).map(label));
    let mut details = timed_details(&p, &timed, &medians, &tally);
    details.push(metric("raw_setup_s", "s", raw_setup_s));
    let (reported, spans) = if settings.trace {
        // The traced pass starts from a fresh set-up, so its counters
        // repeat exactly for a seed however far the timed pass got.
        drop(p);
        let mut p = workload.prepare(settings.seed, settings.scale);
        let refs = warm_up(&mut p, &mut tally);
        let traced = traced_pass(&mut p, &refs, &mut tally);
        let (reported, extra) = traced.metrics(&untraced);
        details.extend(extra);
        (reported, Some(traced.rec.to_json()))
    } else {
        let scaled: Vec<f64> = timed.iter().map(Sample::scaled_ms).collect();
        let s = sorted(&scaled);
        let stmt_p95 = percentile(&s, 95.0);
        if stmt_p95.is_none() {
            tally.record(
                "timed pass",
                Err(format!("{} samples cannot support a p95", s.len())),
            );
        }
        let engine_s: f64 = scaled.iter().sum::<f64>() / 1e3;
        if let Err(e) = &rss {
            tally.record("peak_rss_mb", Err(e.clone()));
        }
        let values = [
            median(&s).unwrap_or(0.0),
            stmt_p95.unwrap_or(0.0),
            scaled.len() as f64 / engine_s,
            setup_s,
            rss.unwrap_or(0.0),
        ];
        (declared(&END_TO_END, values), None)
    };
    for m in reported.iter().chain(&details) {
        if !m.value.is_finite() {
            tally.record(&m.name, Err("not a finite number".into()));
        }
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        reported,
        details,
        spans,
    }
}

/// Sets the workload up repeatedly (see [`SETUP_MIN_REPS`]) and keeps the
/// last; returns the median set-up time in seconds, each scaled by the
/// yardstick timed just before it, and the median as measured.
fn set_up(
    workload: Workload,
    settings: Settings,
    yardstick: &mut Yardstick,
) -> (f64, f64, Prepared) {
    let mut raw = Vec::with_capacity(SETUP_MAX_REPS);
    let mut scaled = Vec::with_capacity(SETUP_MAX_REPS);
    let mut prepared = None;
    while raw.len() < SETUP_MIN_REPS
        || (raw.iter().sum::<f64>() < SETUP_SECONDS && raw.len() < SETUP_MAX_REPS)
    {
        // Drop the previous set-up first, so peak memory holds one.
        drop(prepared.take());
        let scale = yardstick::REFERENCE_MS / yardstick.time_ms();
        let started = Instant::now();
        prepared = Some(workload.prepare(settings.seed, settings.scale));
        let seconds = started.elapsed().as_secs_f64();
        raw.push(seconds);
        scaled.push(seconds * scale);
    }
    let median_of = |v: &[f64]| median(&sorted(v)).expect("SETUP_MIN_REPS is positive");
    (
        median_of(&scaled),
        median_of(&raw),
        prepared.expect("SETUP_MIN_REPS is positive"),
    )
}

/// Runs every read statement once, untimed, and keeps its answer as the
/// reference of a read-only workload. Writes are left out: they would
/// change the table before the timed pass.
fn warm_up(p: &mut Prepared, tally: &mut Tally) -> Vec<Option<Table>> {
    let mut refs = vec![None; p.stmts.len()];
    for i in p.reads().collect::<Vec<_>>() {
        let stmt = &p.stmts[i];
        let out = p.db.execute(&stmt.sql).map_err(|e| e.to_string());
        let verdict = out.and_then(|t| {
            check_partition(&p.db, stmt, &t)?;
            layers::core_groups_match(&p.db, &stmt.sql, t.rows.len())?;
            Ok(t)
        });
        tally.record(
            &stmt.label,
            verdict.as_ref().map(|_| ()).map_err(Clone::clone),
        );
        refs[i] = verdict.ok();
    }
    refs
}

/// The answer of a partitioning statement places every row once.
fn check_partition(db: &Database, stmt: &Stmt, out: &Table) -> Result<(), String> {
    if !stmt.partitions {
        return Ok(());
    }
    let rows = db.table(CHECKINS).map_err(|e| e.to_string())?.len();
    match first_column_sum(out) {
        Some(sum) if usize::try_from(sum) == Ok(rows) => Ok(()),
        sum => Err(format!(
            "count(*) sums to {sum:?}, the table has {rows} rows"
        )),
    }
}

/// The checks of one measured statement: it succeeded, a read-only
/// workload's answer is bit-identical to its warm-up reference, and a
/// partitioning answer places every row.
fn verify(
    db: &Database,
    stmt: &Stmt,
    out: Result<Table, String>,
    reference: Option<&Table>,
) -> Result<(), String> {
    let out = out?;
    if stmt.kind == Kind::Read {
        match reference {
            Some(r) if same_bits(&out, r) => {}
            Some(_) => return Err("answer differs from the warm-up reference".into()),
            None => return Err("no warm-up reference".into()),
        }
    }
    check_partition(db, stmt, &out)
}

/// One statement of the timed pass.
struct Sample {
    /// Index into [`Prepared::stmts`].
    stmt: usize,
    /// Latency as measured.
    ms: f64,
    /// The yardstick's time before the statement's block.
    yardstick_ms: f64,
}

impl Sample {
    /// The latency at the yardstick's reference speed.
    fn scaled_ms(&self) -> f64 {
        self.ms * yardstick::REFERENCE_MS / self.yardstick_ms
    }
}

/// Runs the measured order, one statement at a time, until `seconds`
/// have passed and at least [`MIN_SAMPLES`] statements ran; a read-only
/// workload also finishes its round, so every statement runs equally
/// often. Times the yardstick before every block.
fn timed_pass(
    p: &mut Prepared,
    refs: &[Option<Table>],
    seconds: f64,
    yardstick: &mut Yardstick,
    tally: &mut Tally,
) -> Vec<Sample> {
    let mut yardstick_ms = 0.0;
    let started = Instant::now();
    let mut samples = Vec::new();
    for index in 0.. {
        let done = started.elapsed().as_secs_f64() >= seconds && samples.len() >= MIN_SAMPLES;
        if done && (!p.read_only() || index % p.cycle.len() == 0) {
            break;
        }
        let Some(i) = p.scheduled(index) else {
            break;
        };
        if index % p.block() == 0 {
            yardstick_ms = yardstick.time_ms();
        }
        let stmt = &p.stmts[i];
        let t = Instant::now();
        let out = p.db.execute(&stmt.sql);
        samples.push(Sample {
            stmt: i,
            ms: t.elapsed().as_secs_f64() * 1e3,
            yardstick_ms,
        });
        let verdict = verify(
            &p.db,
            stmt,
            out.map_err(|e| e.to_string()),
            refs[i].as_ref(),
        );
        tally.record(&stmt.label, verdict);
    }
    samples
}

/// `session-mix`'s closing check: every read shape, and the subscribed
/// grouping's snapshot, equal a fresh cache-off database over the final
/// table.
fn final_check(p: &mut Prepared, tally: &mut Tally) {
    let Ok(table) = p.db.table(CHECKINS) else {
        tally.record("final check", Err("the check-in table is gone".into()));
        return;
    };
    let mut fresh = Database::with_options(
        SessionOptions::new()
            .with_cache(false)
            .with_subscriptions(false),
    );
    fresh.register(CHECKINS, checkin_table(table.rows.clone()));
    for i in p.reads().collect::<Vec<_>>() {
        let stmt = &p.stmts[i];
        let verdict = match (p.db.execute(&stmt.sql), fresh.execute(&stmt.sql)) {
            (Ok(session), Ok(expected)) if same_bits(&session, &expected) => Ok(()),
            (Ok(_), Ok(_)) => Err("session answer differs from a fresh database".into()),
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        };
        tally.record(&format!("final {}", stmt.label), verdict);
    }
    if let Some((handle, sql)) = &p.subscription {
        let verdict = match fresh.execute(sql) {
            Ok(expected) if !handle.is_active() => Err(format!(
                "subscription inactive ({} fresh groups)",
                expected.len()
            )),
            Ok(expected) => {
                let groups = handle.snapshot().grouping().num_groups();
                if groups == expected.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "snapshot has {groups} groups, a fresh database {}",
                        expected.len()
                    ))
                }
            }
            Err(e) => Err(e.to_string()),
        };
        tally.record("final subscription snapshot", verdict);
    }
}

/// Median, quartiles, sample count and highest supported tail of
/// `values`, as metrics named `{prefix}_…`.
fn summary(prefix: &str, values: &[f64]) -> Vec<Metric> {
    let Some(s) = Summary::of(values) else {
        return vec![metric(format!("{prefix}_samples"), "count", 0.0)];
    };
    let mut out = vec![
        metric(format!("{prefix}_samples"), "count", s.n as f64),
        metric(format!("{prefix}_q1_ms"), "ms", s.q1),
        metric(format!("{prefix}_p50_ms"), "ms", s.median),
        metric(format!("{prefix}_q3_ms"), "ms", s.q3),
    ];
    if let Some((pct, value)) = s.tail {
        out.push(metric(format!("{prefix}_p{pct}_ms"), "ms", value));
    }
    out
}

/// Summary numbers of the timed pass beyond the reported ones: the
/// yardstick, the latencies as measured, reads and writes apart
/// (scaled like the reported latencies), and per-shape medians as
/// measured.
fn timed_details(
    p: &Prepared,
    timed: &[Sample],
    medians: &BTreeMap<String, f64>,
    tally: &Tally,
) -> Vec<Metric> {
    let yardsticks: Vec<f64> = timed.iter().map(|s| s.yardstick_ms).collect();
    let mut details = vec![
        metric(
            "error_rate",
            "ratio",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        ),
        metric(
            "yardstick_ms",
            "ms",
            median(&sorted(&yardsticks)).unwrap_or(0.0),
        ),
    ];
    let raw: Vec<f64> = timed.iter().map(|s| s.ms).collect();
    details.extend(summary("raw_stmt", &raw));
    if !p.read_only() {
        let pick = |write: bool| -> Vec<f64> {
            timed
                .iter()
                .filter(|s| p.stmts[s.stmt].kind.is_write() == write)
                .map(Sample::scaled_ms)
                .collect()
        };
        details.extend(summary("read", &pick(false)));
        details.extend(summary("write", &pick(true)));
    }
    // Geometric mean of median(SGB) / median(its GROUP BY): the paper's
    // overhead measure (tpch-table2).
    let ratios: Vec<f64> = p
        .stmts
        .iter()
        .filter_map(|s| {
            let baseline = &p.stmts[s.baseline?].label;
            Some(medians.get(&s.label)? / medians.get(baseline)?)
        })
        .collect();
    if !ratios.is_empty() {
        details.push(metric(
            "sgb_overhead_ratio",
            "ratio",
            geometric_mean(&ratios),
        ));
    }
    for (label, m) in medians {
        details.push(metric(format!("p50_ms[{label}]"), "ms", *m));
    }
    details
}

/// The geometric mean of positive ratios (NaN when there are none).
fn geometric_mean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// The median latency of each statement label.
fn medians_by_label<'a>(samples: impl Iterator<Item = (&'a String, f64)>) -> BTreeMap<String, f64> {
    let mut by_label: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (label, ms) in samples {
        by_label.entry(label.clone()).or_default().push(ms);
    }
    by_label
        .into_iter()
        .filter_map(|(label, v)| Some((label, median(&sorted(&v))?)))
        .collect()
}

/// One statement of the traced pass.
struct TracedStmt {
    label: String,
    kind: Kind,
    traced: Traced,
}

/// The traced pass: its spans and per-statement results, and the
/// session counters it moved.
struct TracedPass {
    rec: Recorder,
    stmts: Vec<TracedStmt>,
    cache: CacheStats,
    deltas_applied: u64,
    deltas_rejected: u64,
}

/// The session's subscription delta counters: `(applied, not applied)`.
fn deltas(db: &Database) -> (u64, u64) {
    let count = |outcome| {
        db.metrics()
            .counter_value("sgb_subscription_deltas_total", &[("outcome", outcome)])
    };
    (count("applied"), count("rejected") + count("recovered"))
}

fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        index_hits: after.index_hits - before.index_hits,
        index_misses: after.index_misses - before.index_misses,
        result_hits: after.result_hits - before.result_hits,
        result_misses: after.result_misses - before.result_misses,
        evictions: after.evictions - before.evictions,
        validations_skipped: after.validations_skipped - before.validations_skipped,
    }
}

/// Traces the first [`Prepared::traced`] statements of the measured
/// order, checking each like the timed pass does.
fn traced_pass(p: &mut Prepared, refs: &[Option<Table>], tally: &mut Tally) -> TracedPass {
    let cold_core = !p.db.session().cache;
    let mut rec = Recorder::default();
    let mut stmts = Vec::with_capacity(p.traced);
    let cache_before = p.db.cache_stats();
    let deltas_before = deltas(&p.db);
    for index in 0..p.traced {
        let Some(i) = p.scheduled(index) else {
            break;
        };
        let (out, traced) =
            layers::trace_statement(&mut p.db, index, &p.stmts[i].sql, &mut rec, cold_core);
        let verdict = verify(&p.db, &p.stmts[i], out, refs[i].as_ref());
        tally.record(&p.stmts[i].label, verdict);
        stmts.push(TracedStmt {
            label: p.stmts[i].label.clone(),
            kind: p.stmts[i].kind,
            traced,
        });
    }
    let deltas_after = deltas(&p.db);
    TracedPass {
        rec,
        stmts,
        cache: cache_delta(cache_before, p.db.cache_stats()),
        deltas_applied: deltas_after.0 - deltas_before.0,
        deltas_rejected: deltas_after.1 - deltas_before.1,
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl TracedPass {
    /// The per-layer metrics ([`PER_LAYER`]) and further per-kind
    /// numbers. `untraced` holds the median per statement label of the
    /// timed pass's first statements, the ones this pass traced:
    /// `trace.overhead_pct` is the geometric mean over labels of traced ÷
    /// untraced median `stmt` time.
    fn metrics(&self, untraced: &BTreeMap<String, f64>) -> (Vec<Metric>, Vec<Metric>) {
        let spans = self.rec.spans();
        let self_ns = self.rec.self_nanos();
        let mut self_by_name: BTreeMap<&str, u64> = BTreeMap::new();
        for (span, own) in spans.iter().zip(&self_ns) {
            *self_by_name.entry(span.name).or_default() += own;
        }
        let core_ns: u64 = spans
            .iter()
            .filter(|s| s.name == CORE)
            .map(|s| s.nanos())
            .sum();
        let k = self.stmts.len().max(1) as f64;
        // Mean per traced statement, in milliseconds.
        let per_stmt_ms = |ns: u64| ns as f64 / k / 1e6;
        let named = |name: &str| self_by_name.get(name).copied().unwrap_or(0);

        let profiles = || self.stmts.iter().flat_map(|s| &s.traced.profiles);
        let phase = |ph: Phase| profiles().map(|p| p.phase_nanos(ph)).sum::<u64>();
        let counter = |c: Counter| profiles().map(|p| p.counter(c)).sum::<u64>();
        let candidates = counter(Counter::CandidatePairs);
        let threads = profiles()
            .map(|p| p.counter(Counter::ThreadsUsed))
            .max()
            .unwrap_or(0);

        let stmt_ms = |keep: &dyn Fn(&TracedStmt) -> bool| -> Vec<f64> {
            self.stmts
                .iter()
                .filter(|s| keep(s))
                .map(|s| spans[s.traced.span].nanos() as f64 / 1e6)
                .collect()
        };
        let p50 = |v: Vec<f64>| median(&sorted(&v)).unwrap_or(0.0);
        let recompute = p50(stmt_ms(&|s| s.traced.snapshot == Some(false)));
        let traced_p50 = p50(stmt_ms(&|_| true));
        let relational: u64 = RELATIONAL.iter().map(|n| named(n)).sum();
        let traced = medians_by_label(
            self.stmts
                .iter()
                .map(|s| (&s.label, spans[s.traced.span].nanos() as f64 / 1e6)),
        );
        let slowdowns: Vec<f64> = traced
            .iter()
            .filter_map(|(label, t)| Some(t / untraced.get(label)?))
            .collect();

        let cache = &self.cache;
        // In the order of PER_LAYER.
        let reported = declared(
            &PER_LAYER,
            [
                named("sql.parse") as f64 / k / 1e3,
                per_stmt_ms(named("planner.plan")),
                per_stmt_ms(named(RELATIONAL[0])),
                per_stmt_ms(relational),
                per_stmt_ms(named(SGB)),
                per_stmt_ms(core_ns),
                per_stmt_ms(phase(Phase::Validate)),
                per_stmt_ms(phase(Phase::Join)),
                per_stmt_ms(phase(Phase::Merge)),
                phase(Phase::Join) as f64 / candidates.max(1) as f64,
                candidates as f64,
                counter(Counter::CellsProbed) as f64,
                threads as f64,
                ratio(cache.index_hits, cache.index_hits + cache.index_misses),
                ratio(cache.result_hits, cache.result_hits + cache.result_misses),
                cache.evictions as f64,
                self.deltas_applied as f64,
                self.deltas_rejected as f64,
                recompute,
                (geometric_mean(&slowdowns) - 1.0) * 100.0,
            ],
        );

        let mut details = vec![
            metric("traced_statements", "count", self.stmts.len() as f64),
            metric("traced.stmt_p50_ms", "ms", traced_p50),
            metric("core.groups", "count", counter(Counter::Groups) as f64),
            metric(
                "core.index_build_ms",
                "ms",
                per_stmt_ms(phase(Phase::IndexBuild)),
            ),
        ];
        for name in &RELATIONAL[1..] {
            if named(name) > 0 {
                details.push(metric(format!("{name}_ms"), "ms", per_stmt_ms(named(name))));
            }
        }
        if self.stmts.iter().any(|s| s.traced.snapshot == Some(true)) {
            let snapshot = p50(stmt_ms(&|s| s.traced.snapshot == Some(true)));
            details.push(metric("read.snapshot_ms", "ms", snapshot));
        }
        for kind in [Kind::Insert, Kind::Delete, Kind::Update] {
            let ms = stmt_ms(&|s| s.kind == kind);
            if !ms.is_empty() {
                details.push(metric(format!("write.{}_ms", kind.name()), "ms", p50(ms)));
            }
        }
        (reported, details)
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
