//! Spans recorded by the benchmark around its own calls into the layers.
//!
//! A span is `(name, start, end, parent, request)`; spans of one request
//! share its id. Each load-generating thread owns one [`SpanLog`], so
//! recording is a `Vec::push` with no shared state; the logs are merged
//! and written out after the workload ends. A disabled log records
//! nothing and reads no clock, which is how the untraced run stays
//! untraced.

use iva_core::monotonic_nanos;

use crate::json::Json;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span wraps (`client.search`, `db.execute`, …).
    pub name: &'static str,
    /// Start, nanoseconds on the process-wide monotonic clock.
    pub start: u64,
    /// End, same clock.
    pub end: u64,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (op index; `u64::MAX` for none).
    pub request: u64,
    /// Counts observed at the same boundary.
    pub counts: Vec<(&'static str, u64)>,
}

/// Request id of spans that belong to no request (set-up, probes).
pub const NO_REQUEST: u64 = u64::MAX;

/// The spans of one thread, in start order.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        let start = monotonic_nanos();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
            counts: Vec::new(),
        });
    }

    /// Close the innermost open span, attaching `counts` to it.
    pub fn end(&mut self, counts: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        let now = monotonic_nanos();
        if let Some(span) = self.open.pop().and_then(|i| self.spans.get_mut(i)) {
            span.end = now;
            span.counts = counts.to_vec();
        }
    }

    /// Record a closed child of the innermost open span from an interval
    /// the callee measured itself (`QueryStats` phase nanos): placed at
    /// `offset` nanoseconds into the parent.
    pub fn child_interval(&mut self, name: &'static str, offset: u64, nanos: u64) {
        if !self.enabled {
            return;
        }
        let Some(&parent) = self.open.last() else {
            return;
        };
        let Some((start, request)) = self.spans.get(parent).map(|p| (p.start, p.request)) else {
            return;
        };
        self.spans.push(Span {
            name,
            start: start + offset,
            end: start + offset + nanos,
            parent: Some(parent),
            request,
            counts: Vec::new(),
        });
    }

    /// Append another thread's log, keeping its parent links valid.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            let Some((p, slot)) = s
                .parent
                .and_then(|p| Some((self.spans.get(p)?, covered.get_mut(p)?)))
            else {
                continue;
            };
            let lo = s.start.max(p.start);
            let hi = s.end.min(p.end);
            *slot += hi.saturating_sub(lo);
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// The log as a JSON array, self time included.
    pub fn to_json(&self) -> Json {
        let selfs = self.self_times();
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    let mut fields = vec![
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start)),
                        ("end_ns", Json::Int(s.end)),
                        ("self_ns", Json::Int(self_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        (
                            "request",
                            if s.request == NO_REQUEST {
                                Json::Null
                            } else {
                                Json::Int(s.request)
                            },
                        ),
                    ];
                    if !s.counts.is_empty() {
                        fields.push((
                            "counts",
                            Json::obj(s.counts.iter().map(|&(k, v)| (k, Json::Int(v)))),
                        ));
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let log = SpanLog {
            enabled: true,
            spans: vec![
                span("root", 100, 200, None),
                span("a", 110, 140, Some(0)),
                span("b", 150, 190, Some(0)),
                span("a.inner", 115, 125, Some(1)),
            ],
            open: Vec::new(),
        };
        assert_eq!(log.self_times(), vec![30, 20, 40, 10]);
    }

    #[test]
    fn child_cover_is_clipped_to_the_parent() {
        // A child interval synthesized from CPU nanos can overrun its
        // wall-clock parent; the overrun must not go negative.
        let log = SpanLog {
            enabled: true,
            spans: vec![
                span("root", 100, 150, None),
                span("long", 120, 400, Some(0)),
            ],
            open: Vec::new(),
        };
        assert_eq!(log.self_times(), vec![20, 280]);
    }

    #[test]
    fn nesting_and_absorb_keep_parent_links() {
        let mut a = SpanLog::new(true);
        a.begin("outer", 7);
        a.begin("inner", 7);
        a.end(&[("n", 3)]);
        a.child_interval("phase", 0, 5);
        a.end(&[]);
        assert_eq!(a.spans()[1].parent, Some(0));
        assert_eq!(a.spans()[1].counts, vec![("n", 3)]);
        assert_eq!(a.spans()[2].parent, Some(0));
        assert_eq!(a.spans()[2].end - a.spans()[2].start, 5);

        let mut b = SpanLog::new(true);
        b.begin("other", 8);
        b.end(&[]);
        b.absorb(a);
        assert_eq!(b.spans()[1].name, "outer");
        assert_eq!(b.spans()[2].parent, Some(1));
        assert_eq!(b.durations("phase"), vec![5]);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        log.begin("x", 0);
        log.child_interval("y", 0, 1);
        log.end(&[]);
        assert!(log.spans().is_empty());
    }
}
