//! Exact round-trip samples.
//!
//! The paper's evaluation reports average round-trip latency and jitter
//! (as error bars). A [`Histogram`] keeps every sample, so both are exact;
//! the client driver that measures a round trip owns the histogram it
//! records into. Counters, gauges and bucketed histograms live in vd-obs's
//! `MetricsRegistry`.

use std::fmt;

use crate::time::SimDuration;

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
}
