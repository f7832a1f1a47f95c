//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into each layer's public
//! functions; they carry their parent, so a layer's self time is its
//! duration minus the part of its interval that its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `topo.build` or `model.advance_until`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Simulated time and events processed when the span closed, for
    /// the slices of the event loop.
    pub progress: Option<(u64, u64)>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced run shares the traced run's code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span (meaningless when the tracer is disabled).
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    /// A recorder; `enabled: false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            progress: None,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = end;
    }

    /// Attach event-loop progress to a closed span.
    pub fn set_progress(&mut self, id: SpanId, sim_time: u64, events: u64) {
        if self.enabled {
            self.spans[id.0].progress = Some((sim_time, events));
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drop every recorded span.
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with spans still open");
        self.spans.clear();
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own interval.
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
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of self time per span name, in seconds, in first-seen name order.
pub fn self_seconds_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        let secs = ns as f64 * 1e-9;
        match out.iter_mut().find(|(name, _)| *name == s.name) {
            Some((_, total)) => *total += secs,
            None => out.push((s.name, secs)),
        }
    }
    out
}

/// The spans as JSON lines tagged with `workload` and `pass`.
pub fn to_jsonl(spans: &[Span], workload: &str, pass: usize, out: &mut String) {
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"pass\": {pass}, \"id\": {i}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
        if let Some((t, events)) = s.progress {
            let _ = write!(out, ", \"sim_time\": {t}, \"events\": {events}");
        }
        out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            progress: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // cell [0,100) > setup [10,40) > topo.build [12,30)
        //              > run   [40,90) > slice [45,60), slice [60,85)
        let spans = vec![
            span("cell", 0, 100, None),
            span("setup", 10, 40, Some(0)),
            span("topo.build", 12, 30, Some(1)),
            span("run", 40, 90, Some(0)),
            span("slice", 45, 60, Some(3)),
            span("slice", 60, 85, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![20, 12, 18, 10, 15, 25]);
        // Self times of a tree partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let by_name = self_seconds_by_name(&spans);
        let slice = by_name.iter().find(|(n, _)| *n == "slice").unwrap().1;
        assert!((slice - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_once() {
        let spans = vec![
            span("parent", 10, 50, None),
            span("a", 5, 30, Some(0)),
            span("b", 20, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        let spans = vec![span("parent", 0, 50, None), span("a", 10, 20, Some(0))];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer");
        let v = t.time("inner", || 7);
        t.close(outer);
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let s = off.open("outer");
        off.time("inner", || ());
        off.close(s);
        assert!(off.spans().is_empty());
    }
}
