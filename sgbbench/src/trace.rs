//! In-memory span recorder for the traced run.
//!
//! A span times one public call made from the benchmark's own code. Spans
//! of one statement share its id; `parent` names the span that caused it.
//! A child need not lie inside its parent's interval: the executor layer
//! is traced by running each plan subtree again on its own, so a child's
//! time is *contained in* its parent's time without being nested in it.
//! Self time is therefore a span's duration minus the summed durations of
//! its direct children — for children that do nest and do not overlap,
//! that is exactly the part of the interval they cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Statement id (position in the traced run).
    pub stmt: usize,
    /// Layer-qualified name, e.g. `planner.plan` or `exec.hash_join`.
    pub name: &'static str,
    /// Index of the parent span, `None` for a statement's root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans; written out once the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; [`Recorder::close`] ends it. Returns its index.
    pub fn open(&mut self, stmt: usize, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            stmt,
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        let now = self.now();
        self.spans[id].end_ns = now;
    }

    /// Times `f` as one span; returns the span's index and `f`'s result.
    pub fn time<T>(
        &mut self,
        stmt: usize,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(stmt, name, parent);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Every span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's
    /// durations (never below zero), indexed like [`Recorder::spans`].
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                out[p] = out[p].saturating_sub(span.nanos());
            }
        }
        out
    }

    /// The spans as a JSON array of
    /// `{"id", "stmt", "name", "parent", "start_ns", "end_ns", "self_ns"}`.
    pub fn to_json(&self) -> String {
        let self_ns = self.self_nanos();
        let mut json = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                json,
                "{}\n    {{\"id\": {id}, \"stmt\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                if id == 0 { "" } else { "," },
                s.stmt,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[id]
            );
        }
        json.push_str("\n  ]");
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stmt: usize, name: &'static str, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            stmt,
            name,
            parent,
            start_ns: s,
            end_ns: e,
        }
    }

    /// A synthetic statement: a root covering parse and plan (nested) and
    /// the execution of a two-node plan whose input subtree was re-run on
    /// its own (a child outside its parent's interval), plus a core
    /// replay under the similarity node.
    #[test]
    fn self_time_subtracts_direct_children_only() {
        let rec = Recorder {
            origin: Instant::now(),
            spans: vec![
                span(0, "stmt", None, 0, 100),
                span(0, "sql.parse", Some(0), 0, 5),
                span(0, "planner.plan", Some(0), 5, 20),
                span(0, "exec.sgb", Some(0), 20, 100),
                span(0, "exec.scan", Some(3), 120, 130),
                span(0, "core", Some(3), 130, 180),
            ],
        };
        assert_eq!(rec.self_nanos(), vec![0, 5, 15, 20, 10, 50]);
        let json = rec.to_json();
        sgb_bench::report::validate(&json).unwrap();
        assert!(json.contains("\"name\": \"exec.sgb\", \"parent\": 0"));
        assert!(json.contains("\"self_ns\": 20"));
    }

    #[test]
    fn children_longer_than_parent_clamp_to_zero() {
        let rec = Recorder {
            origin: Instant::now(),
            spans: vec![
                span(1, "exec.project", None, 0, 10),
                span(1, "exec.scan", Some(0), 10, 25),
            ],
        };
        assert_eq!(rec.self_nanos(), vec![0, 15]);
    }

    #[test]
    fn recorder_times_calls() {
        let mut rec = Recorder::default();
        let root = rec.open(0, "stmt", None);
        let (child, v) = rec.time(0, "sql.parse", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        rec.close(root);
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert!(spans[child].nanos() >= 2_000_000);
        assert!(spans[root].nanos() >= spans[child].nanos());
        assert_eq!(spans[child].parent, Some(root));
    }
}
