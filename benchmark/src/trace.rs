//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, an operation id, a parent, and start/end offsets
//! from the tracer's epoch. Spans nest through [`Tracer::span`]; spans
//! measured on other threads enter through [`Tracer::record`]. A span's
//! self time is its duration minus the time its children cover. Nothing
//! is written until [`Tracer::write_json`] at the end of the run.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: Vec<(&'static str, u64, f64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(idx);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        let (s, e) = (self.offset(start), self.offset(end));
        self.spans[idx].start_ns = s;
        self.spans[idx].end_ns = e;
        out
    }

    /// Adds a span timed elsewhere (e.g. on a client thread), child of
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans.push(span);
    }

    /// Records a count observed at a layer boundary.
    pub fn count(&mut self, name: &'static str, op: u64, value: f64) {
        self.counters.push((name, op, value));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Values of every counter named `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.2)
            .collect()
    }

    /// Index of the first span named `name` with operation id `op`.
    pub fn find(&self, name: &str, op: u64) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name && s.op == op)
    }

    /// Duration of span `idx`.
    pub fn duration_ns(&self, idx: usize) -> u64 {
        self.spans[idx].duration_ns()
    }

    /// Time the direct children of span `idx` cover.
    pub fn children_ns(&self, idx: usize) -> u64 {
        self.spans[idx].duration_ns() - self.self_ns(idx)
    }

    /// Duration of span `idx` minus the time its direct children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::duration_ns)
            .sum();
        self.spans[idx].duration_ns().saturating_sub(children)
    }

    /// Writes every span (with its self time) and counter as JSON.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            );
        }
        out.push_str("\n], \"counters\": [\n");
        for (i, (name, op, value)) in self.counters.iter().enumerate() {
            let _ = write!(
                out,
                "{}  {{\"name\": \"{name}\", \"op\": {op}, \"value\": {value}}}",
                if i == 0 { "" } else { ",\n" }
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());
        assert_eq!(
            t.self_ns(0),
            spans[0].duration_ns() - spans[1].duration_ns()
        );
        assert_eq!(t.self_ns(1), spans[1].duration_ns());
    }
}
