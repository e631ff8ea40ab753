//! In-memory spans and their self times.
//!
//! A span records a name, start, end, parent span and the request id (the
//! operation index of the publication it served, or -1). Spans stay in
//! memory while the traced run measures and are written out once it ends.
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// "No parent" / "no request" marker.
pub const NONE: i64 = -1;

/// Spans kept per tracer (at most 24 MB in memory); later spans are
/// counted as dropped, not stored. With [`sampled`] requests it holds a
/// whole traced run of 50 s (the declared run length) on every workload.
const MAX_SPANS: usize = 500_000;

/// One request in this many has its per-request spans recorded (client
/// calls on the networked path, every call of the in-process replay).
pub const SAMPLE_EVERY: i64 = 8;

/// Whether the spans of request `req` are recorded: every sampled
/// request, and spans that serve no request.
pub fn sampled(req: i64) -> bool {
    req == NONE || req % SAMPLE_EVERY == 0
}

/// One recorded span; times in ns since the tracer's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `eventloop.turn`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (0 while open).
    pub end: u64,
    /// Index of the parent span, or [`NONE`].
    pub parent: i64,
    /// Request id (operation index), or [`NONE`].
    pub req: i64,
}

/// Handle of an open span; `None` when tracing is off or the span store
/// is full.
pub type SpanId = Option<usize>;

/// A span recorder; when off, every call is a branch and nothing else.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), dropped: 0 }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (open spans are unaffected).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, req: i64) -> SpanId {
        if !self.on {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let parent = self.stack.last().map_or(NONE, |&p| p as i64);
        let id = self.spans.len();
        let start = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start, end: 0, parent, req });
        self.stack.push(id);
        Some(id)
    }

    /// Closes span `id` (and any span opened inside it and left open).
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    /// Records a finished span measured elsewhere, under the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, req: i64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let parent = self.stack.last().map_or(NONE, |&p| p as i64);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start: at(start), end: at(end), parent, req });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not stored because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// union of its children's intervals (clipped to its own interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (k, span) in spans.iter().enumerate() {
        if span.parent >= 0 {
            children[span.parent as usize].push(k);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(k, span)| {
            let mut intervals: Vec<(u64, u64)> = children[k]
                .iter()
                .map(|&c| (spans[c].start.max(span.start), spans[c].end.min(span.end)))
                .filter(|(s, e)| e > s)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start;
            for (s, e) in intervals {
                let s = s.max(cursor);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            span.end.saturating_sub(span.start).saturating_sub(covered)
        })
        .collect()
}

/// Total and self time per span name, sorted by self time, descending.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selves = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selves) {
        let total = span.end.saturating_sub(span.start);
        match rows.iter_mut().find(|r| r.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += total;
                row.3 += self_ns;
            }
            None => rows.push((span.name, 1, total, self_ns)),
        }
    }
    rows.sort_by_key(|row| std::cmp::Reverse(row.3));
    rows
}

/// Renders spans as tab-separated lines, one per span, under a header.
pub fn render_tsv(spans: &[Span]) -> String {
    let selves = self_times(spans);
    let mut out = String::from("id\tparent\tname\treq\tstart_ns\tend_ns\tself_ns\n");
    for (k, (span, self_ns)) in spans.iter().zip(selves).enumerate() {
        let _ = writeln!(
            out,
            "{k}\t{}\t{}\t{}\t{}\t{}\t{self_ns}",
            span.parent, span.name, span.req, span.start, span.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: i64) -> Span {
        Span { name, start, end, parent, req: NONE }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100) with children [10,30) and [20,50) (overlapping:
        // union 40) and [90,120) (clipped to [90,100): 10); the first
        // child has a grandchild [12,18).
        let spans = vec![
            span("root", 0, 100, NONE),
            span("a", 10, 30, 0),
            span("b", 20, 50, 0),
            span("c", 90, 120, 0),
            span("a.inner", 12, 18, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn self_times_sum_to_the_root_span_when_children_nest() {
        let spans = vec![
            span("root", 0, 1000, NONE),
            span("a", 100, 400, 0),
            span("b", 400, 900, 0),
            span("b.1", 450, 500, 2),
            span("b.2", 600, 700, 2),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
        let rows = by_name(&spans);
        assert_eq!(rows[0].0, "b");
        assert_eq!(rows[0].3, 350);
    }

    #[test]
    fn tracer_nests_and_closes_left_open_children() {
        let mut tracer = Tracer::new(true);
        let root = tracer.open("root", 3);
        let child = tracer.open("child", 3);
        let _grandchild = tracer.open("grandchild", NONE);
        tracer.close(child);
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert!(spans.iter().all(|s| s.end >= s.start));
        let mut off = Tracer::new(false);
        assert_eq!(off.open("x", NONE), None);
        assert!(off.spans().is_empty());
    }
}
