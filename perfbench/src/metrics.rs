//! The benchmark's metric names and units, and its result line.

use std::fmt::Write as _;

use crate::cells::cells;
use crate::stats::tail;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("report_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer self times: `(metric, span name)`. A span's self time is its
/// duration minus its child spans, summed over a pass's cells.
pub const SELF_TIME_SPANS: [(&str, &str); 11] = [
    ("setup.self_s", "setup"),
    ("topo.build_s", "topo.build"),
    ("workloads.build_s", "workloads.build"),
    ("strategies.build_s", "strategies.build"),
    ("model.new_s", "model.new"),
    ("run.self_s", "run"),
    ("model.begin_s", "model.begin"),
    ("model.advance_until_s", "model.advance_until"),
    ("report.self_s", "report"),
    ("model.finish_s", "model.finish"),
    ("cell.self_s", "cell"),
];

/// The other per-layer metrics (`--trace 1`), with their units, in output
/// order after the self times; the per-cell `paper_mix.<cell>.run_s`
/// times follow them.
const PER_LAYER: [(&str, &str); 19] = [
    ("model.rss_after_new_mb", "MiB"),
    ("model.run_ns_per_event", "ns"),
    ("topo.next_hop_calls", "count"),
    ("topo.next_hop_ns", "ns"),
    ("des.queue_depth_hwm", "count"),
    ("des.hold_ns.calendar", "ns"),
    ("des.hold_ns.heap", "ns"),
    ("des.events.pe_done", "count"),
    ("des.events.channel_done", "count"),
    ("strategies.goal_hops", "count"),
    ("strategies.response_hops", "count"),
    ("strategies.control_msgs", "count"),
    ("strategies.load_updates", "count"),
    ("strategies.goal_hops_per_goal", "hops/goal"),
    ("sim.events", "count"),
    ("sim.completion_time", "units"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "fraction"),
];

/// Every per-layer metric `--trace 1` prints, with its unit, in order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = SELF_TIME_SPANS
        .iter()
        .map(|(name, _)| (name.to_string(), "s"))
        .collect();
    out.extend(
        PER_LAYER
            .iter()
            .map(|(name, unit)| (name.to_string(), *unit)),
    );
    for cell in cells("paper_mix").expect("paper_mix is a workload") {
        out.push((format!("paper_mix.{}.run_s", cell.name), "s"));
    }
    out
}

/// One measured value.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    /// A declared metric's value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`END_TO_END`] and [`per_layer`], or
    /// outside the [`valid_name`] grammar: every printed metric must be
    /// declared.
    pub fn new(name: &str, value: f64) -> Self {
        assert!(valid_name(name), "metric name {name:?} breaks the grammar");
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .or_else(|| {
                per_layer()
                    .into_iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, u)| u)
            })
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// Whether `name` is a valid metric name: a letter or digit, then at most
/// 63 more letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A human-readable line: the median, the sample count and the highest
/// percentile with at least ten samples beyond it.
pub fn describe(m: &Metric, samples: &[f64]) -> String {
    let mut line = format!("metric {} = {} {}", m.name, m.value, m.unit);
    if samples.len() > 1 {
        let _ = write!(line, " (median of n={}", samples.len());
        match tail(samples) {
            Some((p, v)) => {
                let _ = write!(line, ", p{p}={v} {})", m.unit);
            }
            None => line.push_str(", no percentile with 10 samples beyond it)"),
        }
    }
    line
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`. A
/// value that is not finite (no successful pass) prints as 0 and makes the
/// result incorrect.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && finite
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for good in [
            "setup_s",
            "des.hold_ns.calendar",
            "paper_mix.fib20-grid10-cwn.run_s",
            "9a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a:b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_metric_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(names
            .iter()
            .any(|n| n == "paper_mix.fib20-grid10-cwn.run_s"));
    }

    #[test]
    fn result_line_shape() {
        let m = [Metric::new("setup_s", 0.5), Metric::new("run_s", f64::NAN)];
        let line = result_json(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"run_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
