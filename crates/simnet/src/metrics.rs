//! Measurement instruments: histograms, counters, bandwidth meters and
//! time series.
//!
//! The paper's evaluation reports average round-trip latency, jitter (as
//! error bars), bandwidth consumption and request rates. These instruments
//! collect exactly those statistics inside the simulator.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// An exact-sample histogram of durations.
///
/// Stores every sample (experiments record at most a few hundred thousand),
/// so quantiles, mean and standard deviation are exact.
///
/// # Examples
///
/// ```
/// use vd_simnet::metrics::Histogram;
/// use vd_simnet::time::SimDuration;
///
/// let mut h = Histogram::new();
/// for us in [100, 200, 300] {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.mean(), SimDuration::from_micros(200));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_micros());
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The arithmetic mean, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        SimDuration::from_micros((sum / self.samples.len() as u128) as u64)
    }

    /// The mean in microseconds as a float.
    pub fn mean_micros_f64(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&s| s as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// The population standard deviation in microseconds — the paper's
    /// "jitter" error bars.
    pub fn std_dev_micros(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_micros_f64();
        let var = self
            .samples
            .iter()
            .map(|&s| (s as f64 - mean).powi(2))
            .sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest-rank, or zero if empty.
    pub fn quantile(&mut self, q: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the ⌈n·q⌉-th smallest sample (1-indexed).
        let rank = (self.samples.len() as f64 * q).ceil() as usize;
        let idx = rank.saturating_sub(1).min(self.samples.len() - 1);
        SimDuration::from_micros(self.samples[idx])
    }

    /// Smallest sample, or zero if empty.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_micros(self.samples.iter().copied().min().unwrap_or(0))
    }

    /// Largest sample, or zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.samples.iter().copied().max().unwrap_or(0))
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1}µs σ={:.1}µs",
            self.count(),
            self.mean_micros_f64(),
            self.std_dev_micros()
        )
    }
}

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Accumulates bytes moved over time and reports throughput.
///
/// The paper's Fig. 7(b) reports bandwidth in MB/s over an experiment; this
/// meter divides total bytes by the observation window.
#[derive(Debug, Clone, Default)]
pub struct BandwidthMeter {
    bytes: u64,
    messages: u64,
    window_start: SimTime,
    last_event: SimTime,
}

impl BandwidthMeter {
    /// A meter whose window starts at time zero.
    pub fn new() -> Self {
        BandwidthMeter::default()
    }

    /// Starts (or restarts) the observation window at `now`, zeroing totals.
    pub fn reset(&mut self, now: SimTime) {
        self.bytes = 0;
        self.messages = 0;
        self.window_start = now;
        self.last_event = now;
    }

    /// Records `bytes` moved at time `now`.
    pub fn record(&mut self, now: SimTime, bytes: usize) {
        self.bytes = self.bytes.saturating_add(bytes as u64);
        self.messages += 1;
        if now > self.last_event {
            self.last_event = now;
        }
    }

    /// Total bytes in the window.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Total messages in the window.
    pub fn total_messages(&self) -> u64 {
        self.messages
    }

    /// Mean throughput in bytes/second over `[window_start, now]`.
    pub fn bytes_per_sec(&self, now: SimTime) -> f64 {
        let span = now.duration_since(self.window_start).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / span
        }
    }

    /// Mean throughput in megabytes/second over `[window_start, now]`.
    pub fn mbytes_per_sec(&self, now: SimTime) -> f64 {
        self.bytes_per_sec(now) / 1e6
    }
}

/// A `(time, value)` series, e.g. the request rate over time in Fig. 6.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a point; times are expected to be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    /// All points in insertion order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last value, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }
}

/// A registry of named instruments shared by an experiment.
#[derive(Debug, Default)]
pub struct MetricsHub {
    histograms: BTreeMap<String, Histogram>,
    counters: BTreeMap<String, Counter>,
    bandwidth: BTreeMap<String, BandwidthMeter>,
    series: BTreeMap<String, TimeSeries>,
}

impl MetricsHub {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        entry(&mut self.histograms, name)
    }

    /// A previously-created histogram, if any.
    pub fn histogram_ref(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        entry(&mut self.counters, name)
    }

    /// A previously-created counter's value, or zero.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, Counter::value)
    }

    /// The bandwidth meter named `name`, created on first use.
    pub fn bandwidth(&mut self, name: &str) -> &mut BandwidthMeter {
        entry(&mut self.bandwidth, name)
    }

    /// A previously-created bandwidth meter, if any.
    pub fn bandwidth_ref(&self, name: &str) -> Option<&BandwidthMeter> {
        self.bandwidth.get(name)
    }

    /// The time series named `name`, created on first use.
    pub fn series(&mut self, name: &str) -> &mut TimeSeries {
        entry(&mut self.series, name)
    }

    /// A previously-created series, if any.
    pub fn series_ref(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Names of all histograms, for reporting.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(String::as_str)
    }
}

/// The instrument named `name`, created on first use. The key is
/// allocated only then: instruments are looked up on hot paths.
fn entry<'a, T: Default>(map: &'a mut BTreeMap<String, T>, name: &str) -> &'a mut T {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), T::default());
    }
    map.get_mut(name).expect("inserted above")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_stddev() {
        let mut h = Histogram::new();
        for us in [2, 4, 4, 4, 5, 5, 7, 9] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.mean(), SimDuration::from_micros(5));
        assert!((h.std_dev_micros() - 2.0).abs() < 1e-9);
        assert_eq!(h.min(), SimDuration::from_micros(2));
        assert_eq!(h.max(), SimDuration::from_micros(9));
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for us in 1..=100u64 {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.quantile(0.0), SimDuration::from_micros(1));
        assert_eq!(h.quantile(1.0), SimDuration::from_micros(100));
        assert_eq!(h.quantile(0.5), SimDuration::from_micros(50));
    }

    #[test]
    fn empty_histogram_is_benign() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
        assert_eq!(h.std_dev_micros(), 0.0);
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let mut a = Histogram::new();
        a.record(SimDuration::from_micros(10));
        let mut b = Histogram::new();
        b.record(SimDuration::from_micros(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_micros(20));
    }

    #[test]
    fn bandwidth_meter_reports_rate() {
        let mut m = BandwidthMeter::new();
        m.reset(SimTime::ZERO);
        m.record(SimTime::from_secs(1), 1_000_000);
        m.record(SimTime::from_secs(2), 1_000_000);
        assert_eq!(m.total_bytes(), 2_000_000);
        assert_eq!(m.total_messages(), 2);
        assert!((m.mbytes_per_sec(SimTime::from_secs(2)) - 1.0).abs() < 1e-9);
        // Zero-length window reports zero, not a division by zero.
        m.reset(SimTime::from_secs(2));
        assert_eq!(m.bytes_per_sec(SimTime::from_secs(2)), 0.0);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.add(10);
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn series_preserves_order() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_micros(1), 10.0);
        s.push(SimTime::from_micros(2), 20.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some((SimTime::from_micros(2), 20.0)));
    }

    #[test]
    fn hub_creates_on_first_use() {
        let mut hub = MetricsHub::new();
        hub.counter("requests").incr();
        hub.histogram("rtt").record(SimDuration::from_micros(5));
        assert_eq!(hub.counter_value("requests"), 1);
        assert_eq!(hub.counter_value("missing"), 0);
        assert_eq!(hub.histogram_ref("rtt").unwrap().count(), 1);
        assert!(hub.histogram_ref("missing").is_none());
        assert_eq!(hub.histogram_names().collect::<Vec<_>>(), vec!["rtt"]);
    }
}
