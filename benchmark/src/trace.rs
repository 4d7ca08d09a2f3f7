//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, monotonic start and end, the span that caused it
//! and the request it belongs to; counters are attached to the span
//! whose work they count. Nothing is written out until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    request: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags the spans opened from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request: self.request,
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Attaches a counter to the span that was opened last.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.counters.push((key, value));
        }
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Totals {
    /// Summed self time per span name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed whole duration per span name, ns.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Summed counters per key.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Totals {
    pub fn of(spans: &[Span]) -> Totals {
        let mut t = Totals::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            *t.self_ns.entry(s.name).or_default() += own;
            *t.total_ns.entry(s.name).or_default() += s.duration_ns();
            for &(k, v) in &s.counters {
                *t.counters.entry(k).or_default() += v;
            }
        }
        t
    }

    pub fn merge(&mut self, o: &Totals) {
        for (k, v) in &o.self_ns {
            *self.self_ns.entry(k).or_default() += v;
        }
        for (k, v) in &o.total_ns {
            *self.total_ns.entry(k).or_default() += v;
        }
        for (k, v) in &o.counters {
            *self.counters.entry(k).or_default() += v;
        }
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.total_ns.get(name).copied().unwrap_or(0)
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns: start,
            end_ns: end,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("verdict", None, 0, 100),
            span("parse", Some(0), 10, 30),
            span("encode", Some(0), 40, 90),
            // A grandchild is charged to its parent, not the root.
            span("simplify", Some(2), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("route", None, 0, 100),
            span("hop", Some(0), 10, 60),
            span("hop", Some(0), 40, 80),
            span("hop", Some(0), 90, 130),
        ];
        // Covered: 10..80 and 90..100 = 80 ns.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn totals_sum_by_name_and_counters_attach_to_the_last_span() {
        let mut t = Tracer::default();
        t.set_request(7);
        t.span("verdict", |t| {
            t.span("parse", |_| ());
            t.span("encode", |_| ());
            t.count("clauses", 5);
        });
        t.span("verdict", |t| {
            t.span("encode", |_| ());
            t.count("clauses", 3);
        });
        assert_eq!(t.spans.len(), 5);
        assert!(t.spans.iter().all(|s| s.request == 7));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[4].parent, Some(3));
        let totals = Totals::of(&t.spans);
        assert_eq!(totals.counter("clauses"), 8);
        let root = totals.total_ns("verdict");
        let kids = totals.total_ns("parse") + totals.total_ns("encode");
        assert_eq!(totals.self_ns("verdict"), root - kids);
    }
}
