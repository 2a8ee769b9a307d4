//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as `trace-<workload>.jsonl` when the run ends.
//!
//! A span is `{id, name, start, end, parent}` with times in seconds since
//! the trace began. A layer's *self time* is its span's duration minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`sim.golden`, `fault.batch`, …).
    pub name: String,
    /// Start, seconds since the trace origin.
    pub start: f64,
    /// End, seconds since the trace origin.
    pub end: f64,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// `end - start`.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A trace under construction. Spans nest by call structure: `enter` /
/// `exit` maintain the current parent.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span under the current one and make it current.
    pub fn enter(&mut self, name: &str) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Close the current span (which must be `id`) and return its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end = self.now();
        self.spans[id].duration()
    }

    /// Time `f` as a span named `name`; returns its result and duration.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f(self);
        (out, self.exit(id))
    }

    /// Record an already-measured interval of `duration` seconds as a
    /// child of the current span, ending now (used for time accumulated
    /// by an interposed wrapper, e.g. all judge calls of one point).
    pub fn record_elapsed(&mut self, name: &str, duration: f64) {
        let end = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start: end - duration,
            end,
            parent: self.stack.last().copied(),
        });
    }

    /// All spans recorded so far, in start order of `enter`.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Render as JSONL, one span per line.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

/// Self time of every span: duration minus the summed durations of its
/// direct children (children of one parent never overlap — they are
/// recorded sequentially on one thread).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration();
        }
    }
    own
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name.clone()).or_insert(0.0) += own;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("golden", 1.0, 3.0, Some(0)),
            span("measure", 3.0, 9.0, Some(0)),
            span("batch", 3.5, 5.5, Some(2)),
            span("batch", 6.0, 8.0, Some(2)),
            span("judge", 7.0, 7.5, Some(4)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![2.0, 2.0, 2.0, 2.0, 1.5, 0.5]);
        // Self times partition the root's duration.
        assert!((own.iter().sum::<f64>() - 10.0).abs() < 1e-12);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["batch"], 3.5);
        assert_eq!(by_name["judge"], 0.5);
    }

    #[test]
    fn trace_nests_by_call_structure() {
        let mut t = Trace::new();
        let ((), outer) = t.scope("outer", |t| {
            t.scope("inner", |_| ());
            t.record_elapsed("accumulated", 0.0);
        });
        assert!(outer >= 0.0);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"outer\""));
        assert!(lines[1].ends_with("\"parent\":0}"));
    }
}
