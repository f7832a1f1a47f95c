//! Statistics collectors.
//!
//! ORACLE "provides statistics on a variety of performance aspects such as
//! the overall average PE utilization, average utilization of individual
//! PEs, average and individual utilizations of communication channels, the
//! time to completion", plus a sampled per-interval utilization stream that
//! drove the paper's colour load monitor. These collectors reproduce that
//! apparatus:
//!
//! * [`OnlineStats`] — single-pass mean/variance/min/max (Welford).
//! * [`Histogram`] — integer-bucket histogram, used for the paper's Table 3
//!   (distribution of goal-message hop distances).
//! * [`LogHistogram`] — fixed-bucket log histogram for streaming percentile
//!   estimation (open-system sojourn times and time-weighted queue-length
//!   distributions).
//! * [`BusyTracker`] — accumulates the busy time of one resource (a PE or a
//!   channel) and yields its utilization over any horizon.
//! * [`IntervalSeries`] — splits busy time into fixed-width sampling
//!   intervals, yielding the utilization-vs-time series of Plots 11–16.

use crate::time::SimTime;

/// Single-pass mean / variance / extrema via Welford's algorithm.
///
/// ```
/// use oracle_des::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), Some(1.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if nothing was recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The raw accumulator fields `(count, mean, m2, min, max)`, for
    /// checkpointing. `min`/`max` are the internal sentinels (±infinity)
    /// when empty, so the round-trip is exact even for an empty
    /// accumulator.
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuild an accumulator from fields captured by
    /// [`OnlineStats::raw_parts`].
    pub fn from_raw_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        OnlineStats {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merge another accumulator into this one (parallel-sweep reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Integer-valued histogram with a configurable bucket count; values at or
/// beyond the last bucket are clamped into it (recorded separately as
/// `overflow`).
///
/// ```
/// use oracle_des::Histogram;
///
/// let mut h = Histogram::new(4);
/// h.record(0);
/// h.record(2);
/// h.record(2);
/// assert_eq!(h.bucket(2), 2);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// A histogram for values `0..buckets`.
    pub fn new(buckets: usize) -> Self {
        Histogram {
            buckets: vec![0; buckets],
            overflow: 0,
            total: 0,
            sum: 0,
        }
    }

    /// Record one observation of `value`.
    pub fn record(&mut self, value: u64) {
        self.total += 1;
        self.sum += value;
        match self.buckets.get_mut(value as usize) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Count in bucket `value` (0 for out-of-range buckets).
    pub fn bucket(&self, value: usize) -> u64 {
        self.buckets.get(value).copied().unwrap_or(0)
    }

    /// The per-bucket counts, excluding overflow.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations that fell past the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded (including overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all recorded values (overflow values contribute their true
    /// magnitude), or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest non-empty bucket index, ignoring overflow.
    pub fn max_nonzero_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// The raw fields `(buckets, overflow, total, sum)`, for checkpointing.
    pub fn raw_parts(&self) -> (&[u64], u64, u64, u64) {
        (&self.buckets, self.overflow, self.total, self.sum)
    }

    /// Rebuild a histogram from fields captured by
    /// [`Histogram::raw_parts`].
    pub fn from_raw_parts(buckets: Vec<u64>, overflow: u64, total: u64, sum: u64) -> Self {
        Histogram {
            buckets,
            overflow,
            total,
            sum,
        }
    }

    /// Merge another histogram (must have the same bucket count).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "merging histograms of different widths"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// Streaming percentile estimator over `u64` values: a fixed-bucket log
/// histogram (HDR-style). Values below [`LogHistogram::LINEAR_BUCKETS`] get
/// one exact bucket each; larger values share 8 sub-buckets per power-of-two
/// octave, bounding the relative error of any reported quantile to 12.5%
/// while memory stays a fixed 496 buckets regardless of the value range.
///
/// Observations can carry an integer weight ([`LogHistogram::record_n`]),
/// which makes the same structure serve two duties in the open-system
/// measurement layer: per-request sojourn times (weight 1 each) and
/// time-weighted queue-length distributions (weight = time spent at that
/// length).
///
/// ```
/// use oracle_des::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=100 {
///     h.record(v);
/// }
/// assert_eq!(h.total(), 100);
/// assert_eq!(h.quantile(1.0), 100); // the max is tracked exactly
/// let p50 = h.quantile(0.5);
/// assert!((44..=50).contains(&p50), "p50 = {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    total: u64,
    /// Weighted sum of observed values (f64: sojourn sums can exceed u64).
    sum: f64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Values below this get one exact bucket each.
    pub const LINEAR_BUCKETS: u64 = 16;
    /// Sub-buckets per power-of-two octave above the linear range.
    const SUB: u64 = 8;
    /// Total bucket count: 16 linear + 8 per octave for octaves 4..=63.
    const NUM_BUCKETS: usize = 16 + 60 * 8;

    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; Self::NUM_BUCKETS],
            total: 0,
            sum: 0.0,
            max: 0,
        }
    }

    /// Bucket index of `value` (exact below the linear range, then the
    /// octave's top-3-bits sub-bucket).
    fn index(value: u64) -> usize {
        if value < Self::LINEAR_BUCKETS {
            value as usize
        } else {
            let octave = 63 - value.leading_zeros() as u64; // >= 4
            let sub = (value >> (octave - 3)) & (Self::SUB - 1);
            (Self::LINEAR_BUCKETS + (octave - 4) * Self::SUB + sub) as usize
        }
    }

    /// Smallest value that lands in bucket `idx` (the reported quantile
    /// representative).
    fn floor_of(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < Self::LINEAR_BUCKETS {
            idx
        } else {
            let octave = 4 + (idx - Self::LINEAR_BUCKETS) / Self::SUB;
            let sub = (idx - Self::LINEAR_BUCKETS) % Self::SUB;
            (Self::SUB + sub) << (octave - 3)
        }
    }

    /// Record one observation of `value`.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `weight` observations of `value` (no-op at zero weight).
    pub fn record_n(&mut self, value: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.buckets[Self::index(value)] += weight;
        self.total += weight;
        self.sum += value as f64 * weight as f64;
        self.max = self.max.max(value);
    }

    /// Total weight recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest value observed (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Weighted mean of all observations, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`): the lower bound of the first
    /// bucket whose cumulative weight reaches `q * total`, except that a
    /// quantile landing in the top non-empty bucket reports the exact
    /// tracked maximum. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        let mut hit = 0usize;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                hit = i;
                break;
            }
        }
        if Self::index(self.max) == hit {
            self.max
        } else {
            Self::floor_of(hit)
        }
    }

    /// The raw fields `(buckets, total, sum, max)`, for checkpointing.
    pub fn raw_parts(&self) -> (&[u64], u64, f64, u64) {
        (&self.buckets, self.total, self.sum, self.max)
    }

    /// Rebuild a histogram from fields captured by
    /// [`LogHistogram::raw_parts`].
    ///
    /// # Panics
    ///
    /// Panics if `buckets` has the wrong length.
    pub fn from_raw_parts(buckets: Vec<u64>, total: u64, sum: f64, max: u64) -> Self {
        assert_eq!(
            buckets.len(),
            Self::NUM_BUCKETS,
            "log histogram bucket count mismatch"
        );
        LogHistogram {
            buckets,
            total,
            sum,
            max,
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Accumulates the busy time of a single resource.
///
/// The resource is either idle or busy; `set_busy`/`set_idle` mark the
/// transitions. Utilization over `[0, horizon)` is `busy / horizon`.
#[derive(Debug, Clone)]
pub struct BusyTracker {
    busy_since: Option<SimTime>,
    accumulated: u64,
}

impl Default for BusyTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl BusyTracker {
    /// A tracker that starts idle at time zero.
    pub fn new() -> Self {
        BusyTracker {
            busy_since: None,
            accumulated: 0,
        }
    }

    /// Mark the resource busy from `now`. Idempotent while already busy.
    pub fn set_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Mark the resource idle at `now`, accumulating the elapsed busy span.
    pub fn set_idle(&mut self, now: SimTime) {
        if let Some(start) = self.busy_since.take() {
            self.accumulated += now - start;
        }
    }

    /// True if currently marked busy.
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Total busy units up to `now` (counting a still-open busy span).
    pub fn busy_time(&self, now: SimTime) -> u64 {
        self.accumulated + self.busy_since.map_or(0, |s| now - s)
    }

    /// The raw fields `(busy_since, accumulated)`, for checkpointing.
    pub fn raw_parts(&self) -> (Option<SimTime>, u64) {
        (self.busy_since, self.accumulated)
    }

    /// Rebuild a tracker from fields captured by
    /// [`BusyTracker::raw_parts`].
    pub fn from_raw_parts(busy_since: Option<SimTime>, accumulated: u64) -> Self {
        BusyTracker {
            busy_since,
            accumulated,
        }
    }

    /// Fraction of `[0, now)` the resource was busy, in `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            self.busy_time(now) as f64 / now.units() as f64
        }
    }
}

/// Splits busy time into fixed-width sampling intervals.
///
/// This reproduces ORACLE's "specially formatted output … the utilization of
/// each PE is output at every sampling interval" that drove the red/blue load
/// monitor, and yields the Y-series of the utilization-vs-time plots.
///
/// Memory is bounded: the series holds at most [`IntervalSeries::MAX_INTERVALS`]
/// intervals. When a run outlives that horizon, the sampling width doubles and
/// adjacent intervals are merged pairwise (an exact downsampling — busy units
/// are conserved), so an arbitrarily long simulation costs O(1) memory per
/// tracked resource instead of growing linearly with simulated time. Runs that
/// fit within the capacity — every paper-scale configuration does, by orders
/// of magnitude — produce bit-identical series to the unbounded version.
#[derive(Debug, Clone)]
pub struct IntervalSeries {
    width: u64,
    /// Busy units accumulated per interval.
    busy: Vec<u64>,
}

impl IntervalSeries {
    /// Maximum number of intervals held before the width doubles.
    pub const MAX_INTERVALS: usize = 8192;

    /// A series with sampling intervals of `width` time units.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: u64) -> Self {
        assert!(width > 0, "sampling interval must be positive");
        IntervalSeries {
            width,
            busy: Vec::new(),
        }
    }

    /// Sampling interval width in time units (doubles when a run outgrows
    /// [`Self::MAX_INTERVALS`]).
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Record that the resource was busy over `[from, to)`, splitting the
    /// span across interval boundaries.
    pub fn add_busy(&mut self, from: SimTime, to: SimTime) {
        if to.units() <= from.units() {
            return;
        }
        while (to.units() - 1) / self.width >= Self::MAX_INTERVALS as u64 {
            self.coarsen();
        }
        let last = (to.units() - 1) / self.width;
        if self.busy.len() <= last as usize {
            self.busy.resize(last as usize + 1, 0);
        }
        let mut cur = from.units();
        while cur < to.units() {
            let idx = cur / self.width;
            let end = ((idx + 1) * self.width).min(to.units());
            self.busy[idx as usize] += end - cur;
            cur = end;
        }
    }

    /// Double the interval width, merging adjacent intervals pairwise.
    fn coarsen(&mut self) {
        let merged = self.busy.len().div_ceil(2);
        for i in 0..merged {
            self.busy[i] = self.busy[2 * i] + self.busy.get(2 * i + 1).copied().unwrap_or(0);
        }
        self.busy.truncate(merged);
        self.width *= 2;
    }

    /// Per-interval utilization fractions over `[0, horizon)`.
    ///
    /// The final (possibly partial) interval is normalized by its actual
    /// length so a run that ends mid-interval does not look artificially
    /// idle.
    pub fn utilization_series(&self, horizon: SimTime) -> Vec<(u64, f64)> {
        let h = horizon.units();
        if h == 0 {
            return Vec::new();
        }
        let n = h.div_ceil(self.width);
        (0..n)
            .map(|i| {
                let start = i * self.width;
                let len = (h - start).min(self.width);
                let busy = self.busy.get(i as usize).copied().unwrap_or(0);
                (start, busy as f64 / len as f64)
            })
            .collect()
    }

    /// Sum of all recorded busy units.
    pub fn total_busy(&self) -> u64 {
        self.busy.iter().sum()
    }

    /// The raw fields `(width, busy)`, for checkpointing. The width matters:
    /// a series that already coarsened must resume at its doubled width to
    /// stay bit-identical with an uninterrupted run.
    pub fn raw_parts(&self) -> (u64, &[u64]) {
        (self.width, &self.busy)
    }

    /// Rebuild a series from fields captured by
    /// [`IntervalSeries::raw_parts`].
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn from_raw_parts(width: u64, busy: Vec<u64>) -> Self {
        assert!(width > 0, "sampling interval must be positive");
        IntervalSeries { width, busy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_mean_and_variance() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty_is_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.record(x));

        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..37].iter().for_each(|&x| a.record(x));
        xs[37..].iter().for_each(|&x| b.record(x));
        a.merge(&b);

        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn online_stats_merge_with_empty() {
        let mut a = OnlineStats::new();
        a.record(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 3.0);
    }

    #[test]
    fn histogram_records_and_overflows() {
        let mut h = Histogram::new(4);
        for v in [0, 1, 1, 3, 9] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(2), 0);
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 5);
        assert!((h.mean() - 14.0 / 5.0).abs() < 1e-12);
        assert_eq!(h.max_nonzero_bucket(), Some(3));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new(3);
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max_nonzero_bucket(), None);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(3);
        let mut b = Histogram::new(3);
        a.record(0);
        b.record(0);
        b.record(2);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.bucket(0), 2);
        assert_eq!(a.bucket(2), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn histogram_merge_width_mismatch_panics() {
        Histogram::new(2).merge(&Histogram::new(3));
    }

    #[test]
    fn log_histogram_exact_below_linear_range() {
        let mut h = LogHistogram::new();
        for v in 0..16 {
            h.record(v);
        }
        // Every value below the linear range is its own bucket, so every
        // quantile is exact.
        assert_eq!(h.quantile(1.0 / 16.0), 0);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.total(), 16);
        assert!((h.mean() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        for v in [100u64, 1_000, 10_000, 1_000_000, u64::MAX / 2] {
            h.record(v);
            let q = h.quantile(1.0);
            assert_eq!(q, h.max(), "top quantile must be the exact max");
        }
        // A mid quantile lands on a bucket floor within 12.5% below the
        // true value.
        let mut h = LogHistogram::new();
        for _ in 0..100 {
            h.record(1000);
        }
        let p50 = h.quantile(0.5);
        assert!(p50 <= 1000 && p50 as f64 >= 1000.0 * 0.875, "p50 = {p50}");
    }

    #[test]
    fn log_histogram_weighted_and_empty() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);

        let mut h = LogHistogram::new();
        h.record_n(0, 95); // e.g. 95 time units at queue length 0
        h.record_n(10, 5); // 5 units at length 10
        h.record_n(3, 0); // zero weight: ignored
        assert_eq!(h.total(), 100);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 10);
        assert!((h.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_round_trips_raw_parts() {
        let mut h = LogHistogram::new();
        for v in [0, 5, 17, 900, 123_456_789] {
            h.record(v);
        }
        let (buckets, total, sum, max) = h.raw_parts();
        let back = LogHistogram::from_raw_parts(buckets.to_vec(), total, sum, max);
        assert_eq!(back.total(), h.total());
        assert_eq!(back.max(), h.max());
        for q in [0.1, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(back.quantile(q), h.quantile(q));
        }
    }

    #[test]
    fn log_histogram_merge_matches_sequential() {
        let mut whole = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..200u64 {
            let v = i * i * 37 % 100_000;
            whole.record(v);
            if i < 80 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.total(), whole.total());
        assert_eq!(a.max(), whole.max());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn busy_tracker_accumulates_spans() {
        let mut t = BusyTracker::new();
        assert!(!t.is_busy());
        t.set_busy(SimTime(10));
        assert!(t.is_busy());
        t.set_idle(SimTime(15));
        t.set_busy(SimTime(20));
        t.set_idle(SimTime(30));
        assert_eq!(t.busy_time(SimTime(30)), 15);
        assert!((t.utilization(SimTime(30)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn busy_tracker_open_span_counts() {
        let mut t = BusyTracker::new();
        t.set_busy(SimTime(0));
        assert_eq!(t.busy_time(SimTime(40)), 40);
        assert!((t.utilization(SimTime(40)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn busy_tracker_redundant_transitions_are_idempotent() {
        let mut t = BusyTracker::new();
        t.set_idle(SimTime(5)); // idle -> idle: no-op
        t.set_busy(SimTime(10));
        t.set_busy(SimTime(12)); // busy -> busy: keeps original start
        t.set_idle(SimTime(20));
        assert_eq!(t.busy_time(SimTime(20)), 10);
    }

    #[test]
    fn busy_tracker_at_time_zero() {
        let t = BusyTracker::new();
        assert_eq!(t.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn interval_series_splits_across_boundaries() {
        let mut s = IntervalSeries::new(10);
        s.add_busy(SimTime(5), SimTime(25)); // 5 in [0,10), 10 in [10,20), 5 in [20,30)
        let series = s.utilization_series(SimTime(30));
        assert_eq!(series.len(), 3);
        assert!((series[0].1 - 0.5).abs() < 1e-12);
        assert!((series[1].1 - 1.0).abs() < 1e-12);
        assert!((series[2].1 - 0.5).abs() < 1e-12);
        assert_eq!(s.total_busy(), 20);
    }

    #[test]
    fn interval_series_partial_final_interval_normalized() {
        let mut s = IntervalSeries::new(10);
        s.add_busy(SimTime(20), SimTime(25));
        // Horizon 25: final interval is [20,25), 5 units long, fully busy.
        let series = s.utilization_series(SimTime(25));
        assert_eq!(series.len(), 3);
        assert!((series[2].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interval_series_empty_and_degenerate_spans() {
        let mut s = IntervalSeries::new(10);
        s.add_busy(SimTime(5), SimTime(5)); // zero-length: ignored
        assert_eq!(s.total_busy(), 0);
        assert!(s.utilization_series(SimTime::ZERO).is_empty());
    }

    #[test]
    fn interval_series_exact_boundary_span() {
        let mut s = IntervalSeries::new(10);
        s.add_busy(SimTime(10), SimTime(20));
        let series = s.utilization_series(SimTime(20));
        assert!((series[0].1 - 0.0).abs() < 1e-12);
        assert!((series[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn interval_series_zero_width_panics() {
        IntervalSeries::new(0);
    }

    #[test]
    fn interval_series_memory_is_bounded() {
        let mut s = IntervalSeries::new(1);
        // Busy for one unit out of every ten, far past the capacity.
        let horizon = 40 * IntervalSeries::MAX_INTERVALS as u64;
        let mut t = 0;
        while t < horizon {
            s.add_busy(SimTime(t), SimTime(t + 1));
            t += 10;
        }
        assert!(s.busy.len() <= IntervalSeries::MAX_INTERVALS);
        assert!(s.width() >= 4, "width must have doubled, got {}", s.width());
        // Downsampling is exact: every busy unit is conserved.
        assert_eq!(s.total_busy(), horizon / 10);
        let series = s.utilization_series(SimTime(horizon));
        assert!(series.len() <= IntervalSeries::MAX_INTERVALS);
        for (_, u) in series {
            // One busy unit per ten: each coarse interval holds floor/ceil
            // of width/10 busy units, so utilization stays near 10%.
            assert!(
                (u - 0.1).abs() < 0.05,
                "uniform load must stay uniform, got {u}"
            );
        }
    }

    #[test]
    fn interval_series_under_capacity_is_untouched() {
        // A run that fits within MAX_INTERVALS must behave exactly like the
        // unbounded version: original width, one slot per interval.
        let mut s = IntervalSeries::new(10);
        s.add_busy(SimTime(5), SimTime(95));
        assert_eq!(s.width(), 10);
        assert_eq!(s.busy.len(), 10);
        assert_eq!(s.total_busy(), 90);
    }
}
