//! Outside-in spans: the benchmark records a span around each public call
//! it makes into a layer, keeps them in memory, and writes them out when
//! the run ends. A disabled tracer records nothing and reads no clock.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::json::quote;

/// One recorded interval. Times are seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub dur: f64,
    pub parent: Option<usize>,
}

/// An open span; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            dur: 0.0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span. Returns its
    /// index.
    pub fn exit(&mut self, open: Open) -> Option<usize> {
        let id = open.0?;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].dur = self.epoch.elapsed().as_secs_f64() - self.spans[id].start;
        Some(id)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let v = f();
        self.exit(open);
        v
    }

    /// Adds a closed child of `parent` whose duration was measured inside
    /// the program (a `RunMetrics` host timer). Such a timer is a sum over
    /// the whole call, not one interval, so the child is laid out from
    /// `offset` seconds after the parent's start; the returned index is
    /// for nesting further children.
    pub fn add_measured(
        &mut self,
        parent: usize,
        name: &'static str,
        offset: f64,
        dur: Duration,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.spans[parent].start + offset,
            dur: dur.as_secs_f64(),
            parent: Some(parent),
        });
        id
    }

    /// `id`'s duration minus the part of it its children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let end = span.start + span.dur;
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(span.start), (s.start + s.dur).min(end)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.dur - covered
    }

    /// Sum of the durations of the spans named `name` below `root`.
    pub fn total_under(&self, root: usize, name: &str) -> f64 {
        (root + 1..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.descends_from(i, root))
            .map(|i| self.spans[i].dur)
            .sum()
    }

    fn descends_from(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// The spans as a JSON array, times in microseconds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"start_us\": {:.3}, \"dur_us\": {:.3}, \
                 \"parent\": {parent}, \"self_us\": {:.3}}}",
                quote(s.name),
                s.start * 1e6,
                s.dur * 1e6,
                self.self_time(i) * 1e6,
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, dur: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            dur,
            parent,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = tracer_with(vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 2.0, Some(0)),
            span("b", 5.0, 3.0, Some(0)),
            span("a.inner", 1.5, 1.0, Some(1)),
        ]);
        assert_eq!(t.self_time(0), 5.0);
        assert_eq!(t.self_time(1), 1.0);
        assert_eq!(t.self_time(2), 3.0);
        assert_eq!(t.self_time(3), 1.0);
        // Children plus self time add back up to the parent.
        let children: f64 = [1, 2].iter().map(|&i| t.spans[i].dur).sum();
        assert_eq!(children + t.self_time(0), t.spans[0].dur);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let t = tracer_with(vec![
            span("root", 0.0, 10.0, None),
            span("a", 2.0, 4.0, Some(0)),
            span("b", 4.0, 4.0, Some(0)),
            span("c", 9.0, 5.0, Some(0)),
        ]);
        // Covered: [2, 8) and [9, 10) = 7 of 10.
        assert!((t.self_time(0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_record_parents_and_totals() {
        let mut t = Tracer::new(true);
        let root = t.enter("root");
        t.span("leaf", || ());
        let mid = t.enter("mid");
        t.span("leaf", || ());
        t.exit(mid);
        let root = t.exit(root).unwrap();
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[3].parent, Some(2));
        let leaves = t.spans()[1].dur + t.spans()[3].dur;
        assert_eq!(t.total_under(root, "leaf"), leaves);
        let measured = t.add_measured(root, "timer", 0.0, Duration::from_millis(1));
        assert_eq!(t.spans()[measured].parent, Some(root));
        assert!(t.to_json().contains("\"name\": \"timer\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("x");
        assert_eq!(t.exit(open), None);
        assert_eq!(t.span("y", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
