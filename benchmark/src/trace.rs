//! In-memory spans for the traced replay: one span per call into a layer
//! (name, start, end, the span that caused it, the request it belongs
//! to), kept in a `Vec` while the replay runs and written out once at the
//! end. A layer's *self time* is its span minus the part its children
//! cover, so self times over all spans of a request add up to the
//! request's root span.

use cnp_serve::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `json.parse`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a request's root.
    pub parent: Option<u32>,
    /// The request this span belongs to.
    pub request: u32,
}

/// Collects spans. With `enabled == false` every call is a no-op apart
/// from running the closure, which is how the tracing overhead is
/// measured: the same replay, spans on and off.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Recorder {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn begin_request(&mut self, id: u32) {
        self.request = id;
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: duration minus the direct children's durations
/// (children of one span never overlap — the recorder is a stack).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let covered = span.end_ns - span.start_ns;
            own[parent as usize] = own[parent as usize].saturating_sub(covered);
        }
    }
    own
}

/// Calls and total self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    by_name
}

/// Sum of the root spans' durations: what the self times must add up to.
pub fn root_total_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// The span file: a summary per layer plus the raw spans of the first
/// `keep` requests (the whole list of a 20 000-request replay is tens of
/// megabytes and says nothing the summary does not).
pub fn to_json(spans: &[Span], keep_requests: u32) -> Json {
    let summary = self_time_by_name(spans)
        .into_iter()
        .map(|(name, (calls, self_ns))| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("calls".to_string(), Json::num(calls as f64)),
                    ("selfNs".to_string(), Json::num(self_ns as f64)),
                ]),
            )
        })
        .collect();
    let raw = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.request < keep_requests)
        .map(|(i, s)| {
            Json::Obj(vec![
                ("id".to_string(), Json::num(i as f64)),
                ("name".to_string(), Json::str(s.name)),
                ("startNs".to_string(), Json::num(s.start_ns as f64)),
                ("endNs".to_string(), Json::num(s.end_ns as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::num(f64::from(p))),
                ),
                ("request".to_string(), Json::num(f64::from(s.request))),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("spansRecorded".to_string(), Json::num(spans.len() as f64)),
        (
            "rootTotalNs".to_string(),
            Json::num(root_total_ns(spans) as f64),
        ),
        ("selfTimeByLayer".to_string(), Json::Obj(summary)),
        ("spans".to_string(), Json::Arr(raw)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100] ⊃ parse [10,30], execute [30,90] ⊃ lookup [40,70]
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("execute", 30, 90, Some(0)),
            span("lookup", 40, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["execute"], (1, 30));
        // Self times partition the root span exactly.
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, root_total_ns(&spans));
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_stays_empty() {
        let mut on = Recorder::new(true);
        on.begin_request(7);
        let out = on.span("outer", |r| r.span("inner", |_| 41) + 1);
        assert_eq!(out, 42);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |r| r.span("inner", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn span_file_keeps_the_summary_and_a_prefix_of_raw_spans() {
        let mut spans = vec![span("request", 0, 10, None), span("parse", 2, 5, Some(0))];
        spans.push(Span {
            request: 3,
            ..span("request", 10, 20, None)
        });
        let doc = to_json(&spans, 1);
        assert_eq!(doc.get("spansRecorded").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("rootTotalNs").and_then(Json::as_u64), Some(20));
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        let parse = doc
            .get("selfTimeByLayer")
            .and_then(|s| s.get("parse"))
            .unwrap();
        assert_eq!(parse.get("selfNs").and_then(Json::as_u64), Some(3));
    }
}
