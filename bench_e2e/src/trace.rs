//! In-memory spans recorded by the benchmark around each call into a layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent).  Spans stay in memory until the run ends; the traced
//! run then reduces them to per-name totals and self times.

use std::time::Instant;

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span; times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder.  Spans nest: a span begun while another is open is
/// that span's child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let now = self.origin.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end = self.origin.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Record a finished span directly.
    #[cfg(test)]
    pub fn record(&mut self, name: &'static str, start: f64, end: f64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
    }

    /// Duration of the closed span `id`.
    pub fn duration(&self, id: SpanId) -> f64 {
        self.spans[id.0].duration()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time of span `index`: its duration minus the part of its
    /// interval that its direct children cover (overlapping children are
    /// counted once).
    pub fn self_time(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cursor = span.start;
        for (start, end) in children {
            let start = start.max(cursor);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        span.duration() - covered
    }

    /// Summed self time of every span named `name`.
    pub fn total_self(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time(i))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        tracer.record("epoch", 0.0, 10.0, None);
        tracer.record("fill", 1.0, 3.0, Some(0));
        tracer.record("run", 3.0, 8.0, Some(0));
        assert!((tracer.self_time(0) - 3.0).abs() < 1e-12);
        assert!((tracer.self_time(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let mut tracer = Tracer::new();
        tracer.record("epoch", 0.0, 10.0, None);
        tracer.record("a", 2.0, 6.0, Some(0));
        tracer.record("b", 4.0, 7.0, Some(0));
        tracer.record("late", 9.0, 12.0, Some(0));
        // Covered: [2, 7] and [9, 10] -> 6 s of 10.
        assert!((tracer.self_time(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_root() {
        let mut tracer = Tracer::new();
        tracer.record("epoch", 0.0, 10.0, None);
        tracer.record("run", 0.0, 4.0, Some(0));
        tracer.record("kernel", 1.0, 3.0, Some(1));
        assert!((tracer.self_time(0) - 6.0).abs() < 1e-12);
        assert!((tracer.self_time(1) - 2.0).abs() < 1e-12);
        assert!((tracer.total_self("kernel") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn begin_end_nest_under_the_open_span() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin("outer");
        tracer.time("inner", || std::hint::black_box(1 + 1));
        tracer.end(outer);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(tracer.spans()[0].parent, None);
        assert!(tracer.self_time(0) <= tracer.spans()[0].duration());
    }
}
