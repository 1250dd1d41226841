//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one call the benchmark makes into a
//! layer's public API, with the span that caused it and the id of the
//! operation (cold run, search, request) it belongs to. Spans stay in
//! memory and are written once, as JSON, when the run ends. A disabled
//! tracer runs the same closures and records nothing, so traced and
//! untraced operations execute identical benchmark code.

use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `archive.open`.
    pub name: &'static str,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    /// Switches recording on or off (between operations).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span; with no span open it starts a new operation.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let value = f();
        self.end();
        value
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans named `name` whose parent is named
    /// `parent` (any parent when `None`).
    pub fn durations(&self, name: &str, parent: Option<&str>) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| match parent {
                None => true,
                Some(p) => s.parent.is_some_and(|i| self.spans[i].name == p),
            })
            .map(Span::duration)
            .collect()
    }

    /// A span's self time: its duration minus the part its direct
    /// children cover (children of one span never overlap here, since
    /// the benchmark calls layers one at a time).
    pub fn self_time(&self, index: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration)
            .sum();
        self.spans[index].duration().saturating_sub(children)
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos(),
                self.self_time(i).as_nanos(),
            ));
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_the_operation_and_split_self_time() {
        let mut t = Tracer::new(true);
        t.begin("op");
        t.time("child", || std::thread::sleep(Duration::from_millis(2)));
        t.end();
        t.time("other", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        assert_ne!(spans[0].op, spans[2].op);
        assert!(t.self_time(0) < spans[0].duration());
        assert_eq!(t.durations("child", Some("op")).len(), 1);
        assert!(t.durations("child", Some("other")).is_empty());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", || 5), 5);
        assert!(t.spans().is_empty());
    }
}
