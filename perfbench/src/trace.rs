//! Spans recorded around the benchmark's own calls into each layer.
//!
//! The program under test is not instrumented further: a span brackets a
//! public call made from this crate (an HTTP request, a `locate_3d`, a
//! frame decode), carries the request id it served and its parent, and
//! stays in memory until the run writes them all out at the end. A
//! disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within a run (ids start at 1).
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// What was called, named `layer:call`.
    pub name: &'static str,
    /// The request (query, burst, capture) the span served.
    pub request: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder shared by the load threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing at all.
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: on.then(Instant::now),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.epoch.is_some()
    }

    /// Run `f` inside a span. Returns `f`'s value and the span id (0 when
    /// tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let Some(epoch) = self.epoch else {
            return f(0);
        };
        // ordering: relaxed — a unique-id counter publishes no other data
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = epoch.elapsed();
        let out = f(id);
        let end = epoch.elapsed();
        let span = Span {
            id,
            parent: parent.filter(|&p| p != 0),
            name,
            request,
            start_ns: u64::try_from(start.as_nanos()).unwrap_or(u64::MAX),
            end_ns: u64::try_from(end.as_nanos()).unwrap_or(u64::MAX),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking load thread")
            .push(span);
        out
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock poisoned by a panicking load thread")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self time: duration minus the part covered by children.
    pub self_ns: u64,
}

/// Per-name totals, with each span's self time computed as its duration
/// minus the union of its children's intervals (clipped to the span).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.ns();
        t.self_ns += s.ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.request,
                s.start_ns,
                s.end_ns
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "query", 0, 100),
            span(2, Some(1), "http", 10, 40),
            span(3, Some(1), "http", 30, 60), // overlaps its sibling
            span(4, Some(1), "scrape", 90, 120), // runs past its parent
            span(5, Some(2), "inner", 15, 20),
        ];
        let t = totals(&spans);
        assert_eq!(t["query"].self_ns, 100 - 50 - 10);
        assert_eq!(t["http"].count, 2);
        assert_eq!(t["http"].total_ns, 60);
        assert_eq!(t["http"].self_ns, 60 - 5);
        assert_eq!(t["inner"].self_ns, 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, 1, |id| id), 0);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        let outer = on.span("outer", None, 7, |id| on.span("inner", Some(id), 7, |_| id));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span");
        assert_eq!(inner.parent, Some(outer));
        assert!(to_json_lines(&spans)
            .lines()
            .all(|l| l.starts_with("{\"id\": ")));
    }
}
