//! In-memory spans recorded around calls into each layer.
//!
//! A span is `(name, start, end, parent)` plus the id of the eval,
//! instance or job it belongs to. Spans stay in memory while the
//! benchmark runs and are written out once, at exit. With tracing off
//! every call is a plain pass-through, so the untraced run pays nothing.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Enclosing span (0 for a root).
    pub parent: u64,
    /// The eval, instance or job this span belongs to.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder shared by every thread of a pass.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent child spans. With tracing off, `f(0)` runs untimed.
    pub fn span<T>(
        &self,
        name: &'static str,
        trace: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// Records a span from timestamps taken elsewhere (client-side
    /// frame arrival times). Returns its id, or 0 with tracing off.
    pub fn record(
        &self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| selfs[&s.id] as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns, selfs[&s.id]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut ivs: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            ivs.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in ivs {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100; children 10..40 and 30..50 overlap (union 40),
        // a grandchild must not count against the root.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 2, 15, 20),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&1], 60);
        assert_eq!(selfs[&2], 25);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 5);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(1, 0, 10, 20), span(2, 1, 0, 15)];
        assert_eq!(self_times_ns(&spans)[&1], 5);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", 1, 0, |id| id + 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
