//! In-memory spans for the traced run: name, start, end and the span that
//! caused it, recorded around the benchmark's calls into each layer and
//! written out once when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// A span recorder; spans opened while another is open become its
/// children.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span and return its duration in seconds.
    ///
    /// # Panics
    /// When no span is open (an unbalanced `exit` is a benchmark bug).
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit without an open span");
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        (span.end_us - span.start_us) / 1e6
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    /// Every span as a JSON array, one object per line:
    /// `{"id", "name", "parent", "start_us", "end_us", "self_us"}`, where
    /// self time is the span's duration minus the time its children cover
    /// (children never overlap: the traced run is sequential).
    pub fn to_json(&self) -> String {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}}}{sep}",
                s.name,
                s.start_us,
                s.end_us,
                s.end_us - s.start_us - child_us[id],
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new();
        t.enter("outer");
        let ((), inner) = t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer = t.exit();
        assert!(inner >= 0.002 && outer >= inner);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"outer\", \"parent\": null"));
        assert!(json.contains("\"name\": \"inner\", \"parent\": 0"));
    }
}
