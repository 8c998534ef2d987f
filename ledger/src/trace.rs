//! Span recording around the public calls into each layer, and folding
//! of span journals (the benchmark's own and `qssd --trace-out`) into
//! self time per span name.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover, so nested layers are never counted twice.

use qss_obs::{SpanEvent, SpanId, SpanJournal, SpanPhase};
use serde_json::Value;
use std::collections::BTreeMap;

/// Events one traced run may hold before the oldest are dropped.
const JOURNAL_CAPACITY: usize = 1 << 20;

/// Records spans into a [`SpanJournal`] when on; costs one branch when
/// off, so untraced runs time the same code path.
pub struct Tracer {
    journal: Option<SpanJournal>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { journal: None }
    }

    /// A tracer that records into a fresh journal.
    pub fn on() -> Self {
        Tracer {
            journal: Some(SpanJournal::new(JOURNAL_CAPACITY)),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.journal.is_some()
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(&self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id, name);
        out
    }

    /// Opens a span; [`SpanId::NONE`] when off.
    pub fn begin(&self, name: &str, parent: SpanId) -> SpanId {
        match &self.journal {
            Some(journal) => journal.begin(name, parent, "bench"),
            None => SpanId::NONE,
        }
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId, name: &str) {
        if let Some(journal) = &self.journal {
            journal.end(id, name, "bench");
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.journal
            .as_ref()
            .map(|journal| spans_from_events(&journal.events()))
            .unwrap_or_default()
    }

    /// The journal as Chrome trace-event JSON (`None` when off).
    pub fn chrome_trace(&self) -> Option<String> {
        self.journal.as_ref().map(SpanJournal::export_chrome_trace)
    }
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub begin_us: u64,
    pub end_us: u64,
}

/// Pairs begin and end events by span id; spans still open are skipped.
pub fn spans_from_events(events: &[SpanEvent]) -> Vec<Span> {
    let mut open: BTreeMap<u64, Span> = BTreeMap::new();
    let mut closed = Vec::new();
    for event in events {
        match event.phase {
            SpanPhase::Begin => {
                open.insert(
                    event.id.0,
                    Span {
                        id: event.id.0,
                        parent: event.parent.0,
                        name: event.name.clone(),
                        begin_us: event.ts_micros,
                        end_us: event.ts_micros,
                    },
                );
            }
            SpanPhase::End => {
                if let Some(mut span) = open.remove(&event.id.0) {
                    span.end_us = event.ts_micros;
                    closed.push(span);
                }
            }
        }
    }
    closed
}

/// Reads the async `b`/`e` span events of a Chrome trace-event file (the
/// format `qssd --trace-out` writes) back into closed spans.
pub fn spans_from_chrome(text: &str) -> Result<Vec<Span>, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("trace is not JSON: {e}"))?;
    let events = value
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("trace has no `traceEvents` array")?;
    let mut journal = Vec::new();
    for event in events {
        let phase = match event.get("ph").and_then(Value::as_str) {
            Some("b") => SpanPhase::Begin,
            Some("e") => SpanPhase::End,
            _ => continue,
        };
        let field = |key: &str| event.get(key).and_then(Value::as_u64);
        journal.push(SpanEvent {
            ts_micros: field("ts").ok_or("span event without `ts`")?,
            id: SpanId(field("id").ok_or("span event without `id`")?),
            parent: SpanId(
                event
                    .get("args")
                    .and_then(|args| args.get("parent"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
            ),
            name: event
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            tag: "qssd",
            phase,
        });
    }
    Ok(spans_from_events(&journal))
}

/// Self time in milliseconds of every span, grouped by span name.
pub fn self_times_ms(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.begin_us, span.end_us));
    }
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for span in spans {
        let covered = children
            .get_mut(&span.id)
            .map(|intervals| covered_us(intervals, span.begin_us, span.end_us))
            .unwrap_or(0);
        let own = (span.end_us - span.begin_us).saturating_sub(covered);
        out.entry(span.name.clone())
            .or_default()
            .push(own as f64 / 1000.0);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_us(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(begin, end) in intervals.iter() {
        let (begin, end) = (begin.max(reach), end.min(hi));
        if end > begin {
            total += end - begin;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, begin_us: u64, end_us: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            begin_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "request", 0, 1000),
            // Overlapping children: union is 100..600, plus 900..1200
            // clipped to the parent's end.
            span(2, 1, "queued", 100, 400),
            span(3, 1, "admit", 300, 600),
            span(4, 1, "search", 900, 1200),
            span(5, 4, "inner", 950, 1000),
        ];
        let times = self_times_ms(&spans);
        assert_eq!(times["request"], vec![0.4]);
        assert_eq!(times["queued"], vec![0.3]);
        assert_eq!(times["search"], vec![0.25]);
    }

    #[test]
    fn chrome_export_round_trips_through_the_folder() {
        let tracer = Tracer::on();
        let root = tracer.begin("build", SpanId::NONE);
        tracer.span("parse", root, || ());
        tracer.end(root, "build");
        let spans = spans_from_chrome(&tracer.chrome_trace().unwrap()).unwrap();
        assert_eq!(spans.len(), 2);
        let parse = spans.iter().find(|s| s.name == "parse").unwrap();
        assert_eq!(
            parse.parent,
            spans.iter().find(|s| s.name == "build").unwrap().id
        );
        assert_eq!(tracer.spans(), spans);
    }
}
