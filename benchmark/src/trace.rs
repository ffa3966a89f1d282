//! Spans recorded from the benchmark's own files, around the calls it
//! makes into each layer.
//!
//! A span is (name, start, end, parent, id); `id` is the pass or request
//! the span belongs to. Spans stay in memory and are written out once, at
//! exit. A layer's *self time* is its span's duration minus the part of
//! that interval its child spans cover — children that overlap each other
//! are counted once, and a child reaching outside its parent is clipped.
//!
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use dls_core::json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sparse.convert`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch (`start_ns` until [`Tracer::end`] runs).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Pass or request identifier shared by the spans of one unit of work.
    pub id: u64,
}

/// Handle to an open span; `None` inside when the tracer is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle a call site passes when it has no parent span.
    pub const ROOT: SpanId = SpanId(None);
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// The in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; disabled ones record nothing.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent: parent.0, id });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span now.
    pub fn end(&mut self, span: SpanId) {
        if let Some(i) = span.0 {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a span whose endpoints were measured elsewhere (a request
    /// timed by the load generator).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent: parent.0, id });
        SpanId(Some(self.spans.len() - 1))
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// The whole log as a JSON document.
    pub fn to_json(&self, workload: &str, host: JsonValue) -> String {
        let spans = self.spans.iter().map(|s| {
            JsonValue::obj([
                ("name", JsonValue::Str(s.name.to_string())),
                ("start_ns", JsonValue::Num(s.start_ns as f64)),
                ("end_ns", JsonValue::Num(s.end_ns as f64)),
                ("parent", s.parent.map_or(JsonValue::Null, |p| JsonValue::Num(p as f64))),
                ("id", JsonValue::Num(s.id as f64)),
            ])
        });
        let totals = self.totals().into_iter().map(|(name, t)| {
            (
                name,
                JsonValue::obj([
                    ("count", JsonValue::Num(t.count as f64)),
                    ("total_ns", JsonValue::Num(t.total_ns as f64)),
                    ("self_ns", JsonValue::Num(t.self_ns as f64)),
                ]),
            )
        });
        JsonValue::obj([
            ("workload", JsonValue::Str(workload.to_string())),
            ("host", host),
            ("totals", JsonValue::obj(totals)),
            ("spans", JsonValue::arr(spans)),
        ])
        .to_json()
    }
}

/// Self time of every span, in ns, in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Clip to the parent: only the covered part of *its* interval counts.
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, id: 0 }
    }

    #[test]
    fn childless_span_keeps_all_its_time() {
        assert_eq!(self_times(&[span("a", 10, 110, None)]), vec![100]);
        assert_eq!(self_times(&[]), Vec::<u64>::new());
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // a[0,100] > b[10,60] > c[20,30]
        let spans =
            [span("a", 0, 100, None), span("b", 10, 60, Some(0)), span("c", 20, 30, Some(1))];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // b[10,50] and c[30,70] overlap on [30,50]: covered = 60, not 80.
        let spans = [
            span("a", 0, 100, None),
            span("b", 10, 50, Some(0)),
            span("c", 30, 70, Some(0)),
            span("d", 40, 45, Some(0)), // inside both
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // The child starts before and ends after the parent; self time
        // bottoms out at zero instead of going negative.
        let spans = [span("a", 50, 100, None), span("b", 0, 200, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 200]);
        // A child wholly outside covers nothing.
        let spans = [span("a", 50, 100, None), span("b", 100, 200, Some(0))];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("a", SpanId::ROOT, 1);
        t.end(s);
        t.record("b", s, 1, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn totals_group_by_name() {
        let mut t = Tracer::new(true);
        for id in 0..3 {
            let pass = t.begin("pass", SpanId::ROOT, id);
            let work = t.begin("work", pass, id);
            t.end(work);
            t.end(pass);
        }
        let totals = t.totals();
        assert_eq!(totals["pass"].count, 3);
        assert_eq!(totals["work"].count, 3);
        assert!(totals["pass"].self_ns <= totals["pass"].total_ns);
        assert_eq!(totals["pass"].total_ns - totals["pass"].self_ns, totals["work"].total_ns);
        let doc = dls_core::json::parse(&t.to_json("w", JsonValue::Null)).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 6);
    }
}
