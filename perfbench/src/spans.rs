//! In-memory span recording for the traced run, self-time attribution,
//! and the Chrome trace-event file (opens in Perfetto, offline).
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! the workspace's public functions; nothing inside the program is
//! instrumented. Each span has a name, start, end, parent and the id of
//! the operation it belongs to.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id within the tracer (1-based).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The operation (one timed op of a workload) the span belongs to.
    pub op: u64,
    /// Layer name, e.g. `coverage.run` or `store.save`.
    pub name: String,
    /// Start, in ns since the tracer origin.
    pub start: u64,
    /// End, in ns since the tracer origin.
    pub end: u64,
    /// Small per-thread lane id for the trace viewer.
    pub tid: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans from any thread; written out once, at the end.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that is recorded when the returned guard drops.
    pub fn span(&self, name: impl Into<String>, parent: Option<u64>, op: u64) -> Open<'_> {
        Open {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name: name.into(),
            start: Instant::now(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &str, parent: Option<u64>, op: u64, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name, parent, op);
        f()
    }

    /// Records an interval measured elsewhere (e.g. a worker's idle tail,
    /// known only once the batch has joined). Returns its id.
    pub fn record(
        &self,
        name: impl Into<String>,
        parent: Option<u64>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            op,
            name: name.into(),
            start: self.ns(start),
            end: self.ns(end),
            tid: TID.with(|t| *t),
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("tracer lock poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Where a traced call's span goes: the tracer, the parent span and the
/// op id. Untraced calls pass `None`.
pub type At<'t> = Option<(&'t Tracer, u64, u64)>;

/// Runs `f` inside a span under `at`, or plainly when `at` is `None`.
pub fn time<T>(at: At<'_>, name: &str, f: impl FnOnce() -> T) -> T {
    match at {
        Some((t, parent, op)) => t.time(name, Some(parent), op, f),
        None => f(),
    }
}

/// An open span; records itself on drop.
pub struct Open<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: String,
    start: Instant,
}

impl Open<'_> {
    /// This span's id, for children.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        self.tracer.push(Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: std::mem::take(&mut self.name),
            start: self.tracer.ns(self.start),
            end: self.tracer.ns(end),
            tid: TID.with(|t| *t),
        });
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of its interval that the union of its children's
/// intervals covers. Overlapping children (parallel workers) are counted
/// once; children running past the parent are clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|&(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Chrome trace-event JSON ("X" complete events, microseconds) with
/// `other` as the `otherData` block — loadable by Perfetto and
/// `chrome://tracing` without a network.
pub fn chrome_trace(spans: &[Span], other: &[(&str, String)]) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\": ");
        json::push_str(&mut out, &s.name);
        let cat = s.name.split('.').next().unwrap_or("");
        out.push_str(", \"cat\": ");
        json::push_str(&mut out, cat);
        let _ = write!(
            out,
            ", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"id\": {}, \"parent\": {}, \"op\": {}}}}}",
            s.tid,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op
        );
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\", \"otherData\": {");
    for (i, (k, v)) in other.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::push_str(&mut out, k);
        out.push_str(": ");
        json::push_str(&mut out, v);
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: format!("s{id}"),
            start,
            end,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,40) > a1 [15,25); b [50,90)
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(4, Some(1), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        // Two parallel workers [0,60) and [20,110) under a root [0,100):
        // union clipped to the root covers all 100.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 60),
            span(3, Some(1), 20, 110),
        ];
        assert_eq!(self_times(&spans), vec![0, 60, 90]);
        // Disjoint-then-overlapping children leave the gap as self time.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 10),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 40, 70),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 10 - 40);
    }

    #[test]
    fn tracer_records_parent_links_and_writes_chrome_json() {
        let t = Tracer::new();
        let outer = t.span("outer", None, 7);
        let oid = outer.id();
        t.time("inner \"q\"", Some(oid), 7, || ());
        drop(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name.starts_with("inner")).unwrap();
        assert_eq!(inner.parent, Some(oid));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let doc = chrome_trace(&spans, &[("seed", "0".to_string())]);
        assert!(doc.starts_with("{\"traceEvents\": ["));
        assert!(doc.contains("\"name\": \"inner \\\"q\\\"\""));
        assert!(doc.contains("\"otherData\": {\"seed\": \"0\"}"));
    }
}
