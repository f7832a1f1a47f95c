//! Lightweight run profiler and metrics registry.
//!
//! The engine-side half of the observability layer: a small, fixed-cost
//! registry of named event kinds, each accumulating a count and wall-clock
//! time, plus the wall time spent popping the event queue and routing
//! messages hop by hop, a queue-depth high-water mark and a set of
//! small-integer tag counters (the model uses those for per-strategy
//! control-message tags). The driver decides when to
//! sample [`std::time::Instant`]; the registry itself never reads the clock,
//! so a disabled profiler costs the simulation exactly one branch per event.
//!
//! Wall-clock numbers are inherently nondeterministic; everything pinned by
//! golden or determinism tests must therefore run with profiling off (the
//! default). Counts and high-water marks, by contrast, are functions of the
//! simulated run alone and are reproducible.

use std::time::Instant;

/// Handle to one registered event kind (an index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindId(pub usize);

/// Accumulated count and wall time for one event kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Events of this kind processed.
    pub count: u64,
    /// Total wall-clock time spent handling them, in nanoseconds.
    pub wall_nanos: u64,
}

/// The live registry. Create one per run; extract a [`ProfileReport`] at
/// the end with [`Profiler::report`].
#[derive(Debug, Clone)]
pub struct Profiler {
    names: Vec<&'static str>,
    stats: Vec<KindStats>,
    queue_nanos: u64,
    route_calls: u64,
    route_nanos: u64,
    queue_depth_hwm: usize,
    tag_counts: Vec<u64>,
}

impl Profiler {
    /// An empty registry.
    pub fn new() -> Self {
        Profiler {
            names: Vec::new(),
            stats: Vec::new(),
            queue_nanos: 0,
            route_calls: 0,
            route_nanos: 0,
            queue_depth_hwm: 0,
            tag_counts: Vec::new(),
        }
    }

    /// A registry with `names` pre-registered, in order; `KindId(i)` is
    /// `names[i]`.
    pub fn with_kinds(names: &[&'static str]) -> Self {
        Profiler {
            names: names.to_vec(),
            stats: vec![KindStats::default(); names.len()],
            queue_nanos: 0,
            route_calls: 0,
            route_nanos: 0,
            queue_depth_hwm: 0,
            tag_counts: Vec::new(),
        }
    }

    /// Register one more kind and return its handle.
    pub fn register(&mut self, name: &'static str) -> KindId {
        self.names.push(name);
        self.stats.push(KindStats::default());
        KindId(self.names.len() - 1)
    }

    /// Charge one event of kind `id`, timed from `started`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not registered.
    #[inline]
    pub fn record(&mut self, id: KindId, started: Instant) {
        let s = &mut self.stats[id.0];
        s.count += 1;
        s.wall_nanos += started.elapsed().as_nanos() as u64;
    }

    /// Charge the wall time of one event-queue pop, from `started` to
    /// `finished`.
    #[inline]
    pub fn record_queue(&mut self, started: Instant, finished: Instant) {
        self.queue_nanos += (finished - started).as_nanos() as u64;
    }

    /// Charge one next-hop routing decision, timed from `started`. The
    /// decision runs inside an event handler, so its time is also part of
    /// that event kind's time.
    #[inline]
    pub fn record_route(&mut self, started: Instant) {
        self.route_calls += 1;
        self.route_nanos += started.elapsed().as_nanos() as u64;
    }

    /// Charge one event of kind `id` without timing it.
    #[inline]
    pub fn count_only(&mut self, id: KindId) {
        self.stats[id.0].count += 1;
    }

    /// Raise the queue-depth high-water mark to `depth` if it is higher.
    #[inline]
    pub fn note_queue_depth(&mut self, depth: usize) {
        if depth > self.queue_depth_hwm {
            self.queue_depth_hwm = depth;
        }
    }

    /// Bump the counter for small-integer tag `tag`.
    #[inline]
    pub fn bump_tag(&mut self, tag: u8) {
        let i = tag as usize;
        if i >= self.tag_counts.len() {
            self.tag_counts.resize(i + 1, 0);
        }
        self.tag_counts[i] += 1;
    }

    /// Snapshot the registry into a report.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            kinds: self
                .names
                .iter()
                .zip(&self.stats)
                .map(|(&name, &s)| KindProfile {
                    name: name.to_string(),
                    count: s.count,
                    wall_nanos: s.wall_nanos,
                })
                .collect(),
            queue_wall_nanos: self.queue_nanos,
            route_calls: self.route_calls,
            route_wall_nanos: self.route_nanos,
            queue_depth_hwm: self.queue_depth_hwm,
            control_by_tag: self
                .tag_counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(t, &c)| (t as u8, c))
                .collect(),
            state: Vec::new(),
        }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-kind slice of a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindProfile {
    /// Registered kind name.
    pub name: String,
    /// Events of this kind processed.
    pub count: u64,
    /// Total wall-clock handling time, in nanoseconds.
    pub wall_nanos: u64,
}

/// The end-of-run snapshot of a [`Profiler`], carried on the run report.
/// Counts and high-water marks are deterministic; `wall_nanos` is not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// One entry per registered kind, in registration order.
    pub kinds: Vec<KindProfile>,
    /// Total wall-clock time spent popping the event queue, in
    /// nanoseconds (not part of any kind's time).
    pub queue_wall_nanos: u64,
    /// Next-hop routing decisions taken while handling events.
    pub route_calls: u64,
    /// Total wall-clock time of those decisions, in nanoseconds (already
    /// part of the handling kinds' time).
    pub route_wall_nanos: u64,
    /// Highest pending-event-queue depth observed.
    pub queue_depth_hwm: usize,
    /// `(tag, count)` for every tag that was bumped at least once.
    pub control_by_tag: Vec<(u8, u64)>,
    /// How much of each paged state store the run materialized, in the
    /// order the model lists its stores.
    pub state: Vec<StoreFootprint>,
}

/// Materialized pages and slots of one paged state store, out of the
/// totals the machine size implies. Deterministic: a function of which
/// ids the run touched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreFootprint {
    /// Store name (`pe`, `channel`).
    pub name: String,
    /// Pages allocated.
    pub pages: u64,
    /// Pages covering the whole id space.
    pub pages_total: u64,
    /// Slots in the allocated pages.
    pub slots: u64,
    /// Ids in the store.
    pub slots_total: u64,
}

impl ProfileReport {
    /// Total events across all kinds.
    pub fn total_events(&self) -> u64 {
        self.kinds.iter().map(|k| k.count).sum()
    }

    /// Total wall time across all kinds, in nanoseconds.
    pub fn total_wall_nanos(&self) -> u64 {
        self.kinds.iter().map(|k| k.wall_nanos).sum()
    }

    /// Fold `other` into this report: counts and times add (kinds matched
    /// by name, appending unknown ones; queue time too), high-water marks
    /// take the max. This is the `batch` roll-up.
    pub fn merge(&mut self, other: &ProfileReport) {
        for ok in &other.kinds {
            match self.kinds.iter_mut().find(|k| k.name == ok.name) {
                Some(k) => {
                    k.count += ok.count;
                    k.wall_nanos += ok.wall_nanos;
                }
                None => self.kinds.push(ok.clone()),
            }
        }
        self.queue_wall_nanos += other.queue_wall_nanos;
        self.route_calls += other.route_calls;
        self.route_wall_nanos += other.route_wall_nanos;
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
        for &(tag, c) in &other.control_by_tag {
            match self.control_by_tag.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, mine)) => *mine += c,
                None => self.control_by_tag.push((tag, c)),
            }
        }
        self.control_by_tag.sort_by_key(|&(t, _)| t);
        for os in &other.state {
            match self.state.iter_mut().find(|s| s.name == os.name) {
                Some(s) => {
                    s.pages += os.pages;
                    s.pages_total += os.pages_total;
                    s.slots += os.slots;
                    s.slots_total += os.slots_total;
                }
                None => self.state.push(os.clone()),
            }
        }
    }

    /// Render as an aligned text table (the `--profile` output). The
    /// `route` line breaks out time already counted in the kinds above.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>10}",
            "event kind", "count", "wall ms", "ns/event"
        );
        for k in self.kinds.iter().filter(|k| k.count > 0) {
            let _ = writeln!(
                out,
                "{:<16} {:>12} {:>12.3} {:>10.0}",
                k.name,
                k.count,
                k.wall_nanos as f64 / 1e6,
                k.wall_nanos as f64 / k.count as f64
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12.3}",
            "total",
            self.total_events(),
            self.total_wall_nanos() as f64 / 1e6
        );
        let pops = self.total_events();
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12.3} {:>10.0}",
            "queue pop",
            pops,
            self.queue_wall_nanos as f64 / 1e6,
            self.queue_wall_nanos as f64 / pops.max(1) as f64
        );
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12.3} {:>10.0}",
            "route",
            self.route_calls,
            self.route_wall_nanos as f64 / 1e6,
            self.route_wall_nanos as f64 / self.route_calls.max(1) as f64
        );
        if !self.state.is_empty() {
            let _ = write!(out, "{:<16}", "state");
            for (i, st) in self.state.iter().enumerate() {
                let _ = write!(
                    out,
                    "{} {} pages {}/{} ({}/{} slots)",
                    if i == 0 { "" } else { "," },
                    st.name,
                    st.pages,
                    st.pages_total,
                    st.slots,
                    st.slots_total
                );
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "queue depth high-water mark: {}", self.queue_depth_hwm);
        if !self.control_by_tag.is_empty() {
            let _ = write!(out, "control messages by tag:");
            for &(tag, c) in &self.control_by_tag {
                let _ = write!(out, " {tag}:{c}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_and_time() {
        let mut p = Profiler::with_kinds(&["a", "b"]);
        let t0 = Instant::now();
        p.record(KindId(0), t0);
        p.record(KindId(0), t0);
        p.count_only(KindId(1));
        p.record_queue(t0, t0 + std::time::Duration::from_nanos(250));
        p.record_route(t0);
        let r = p.report();
        assert_eq!(r.queue_wall_nanos, 250);
        assert_eq!(r.route_calls, 1);
        assert_eq!(r.kinds[0].count, 2);
        assert_eq!(r.kinds[1].count, 1);
        assert_eq!(r.kinds[1].wall_nanos, 0);
        assert_eq!(r.total_events(), 3);
    }

    #[test]
    fn register_appends() {
        let mut p = Profiler::new();
        let a = p.register("x");
        let b = p.register("y");
        assert_eq!(a, KindId(0));
        assert_eq!(b, KindId(1));
        p.count_only(b);
        assert_eq!(p.report().kinds[1].name, "y");
    }

    #[test]
    fn queue_depth_keeps_the_max() {
        let mut p = Profiler::new();
        p.note_queue_depth(3);
        p.note_queue_depth(1);
        p.note_queue_depth(7);
        assert_eq!(p.report().queue_depth_hwm, 7);
    }

    #[test]
    fn tags_collect_sparsely() {
        let mut p = Profiler::new();
        p.bump_tag(200);
        p.bump_tag(3);
        p.bump_tag(3);
        assert_eq!(p.report().control_by_tag, vec![(3, 2), (200, 1)]);
    }

    #[test]
    fn merge_sums_by_name_and_maxes_hwm() {
        let mut a = Profiler::with_kinds(&["x"]);
        a.count_only(KindId(0));
        let t0 = Instant::now();
        a.record_queue(t0, t0 + std::time::Duration::from_nanos(40));
        a.note_queue_depth(5);
        a.record_route(t0);
        a.bump_tag(1);
        let mut b = Profiler::with_kinds(&["x"]);
        b.count_only(KindId(0));
        b.count_only(KindId(0));
        b.record_queue(t0, t0 + std::time::Duration::from_nanos(2));
        b.note_queue_depth(9);
        b.record_route(t0);
        b.record_route(t0);
        b.bump_tag(1);
        b.bump_tag(2);
        let mut r = a.report();
        r.merge(&b.report());
        assert_eq!(r.kinds[0].count, 3);
        assert_eq!(r.queue_wall_nanos, 42);
        assert_eq!(r.route_calls, 3);
        assert_eq!(r.queue_depth_hwm, 9);
        assert_eq!(r.control_by_tag, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn render_lists_active_kinds_only() {
        let mut p = Profiler::with_kinds(&["seen", "unseen"]);
        p.count_only(KindId(0));
        let text = p.report().render();
        assert!(text.contains("seen"));
        assert!(!text.contains("unseen"));
        assert!(text.contains("queue pop"));
        assert!(text.contains("route"));
        assert!(text.contains("high-water mark"));
        assert!(!text.contains("state"), "no state line without stores");
    }

    #[test]
    fn state_line_renders_and_merges_store_footprints() {
        let store = |name: &str, pages, slots| StoreFootprint {
            name: name.to_string(),
            pages,
            pages_total: 100,
            slots,
            slots_total: 800,
        };
        let mut a = Profiler::new().report();
        a.state = vec![store("pe", 3, 24), store("channel", 5, 40)];
        let text = a.render();
        assert!(
            text.contains("state            pe pages 3/100 (24/800 slots), channel pages 5/100 (40/800 slots)"),
            "{text}"
        );
        let mut b = Profiler::new().report();
        b.state = vec![store("pe", 1, 8)];
        a.merge(&b);
        let merged = StoreFootprint {
            pages_total: 200,
            slots_total: 1600,
            ..store("pe", 4, 32)
        };
        assert_eq!(a.state[0], merged);
        assert_eq!(a.state[1], store("channel", 5, 40));
    }
}
