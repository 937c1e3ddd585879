//! Group communication tuning parameters.
//!
//! These are the paper's *fault-monitoring* low-level knobs (FT-CORBA's
//! `FaultMonitoringInterval`, timeout, etc.) plus retransmission pacing.

use vd_simnet::time::SimDuration;

/// Tunable parameters of a group endpoint.
///
/// # Examples
///
/// ```
/// use vd_group::config::GroupConfig;
/// use vd_simnet::time::SimDuration;
///
/// let config = GroupConfig::default()
///     .heartbeat_interval(SimDuration::from_millis(5))
///     .failure_timeout(SimDuration::from_millis(25));
/// assert_eq!(config.failure_timeout, SimDuration::from_millis(25));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupConfig {
    /// How often the hosting process heartbeats each peer, carrying this
    /// group's ack vector. A process hosting several groups uses the
    /// tightest of their intervals for its one
    /// [`crate::multi::MultiEndpoint`].
    pub heartbeat_interval: SimDuration,
    /// Silence longer than this marks a member as suspected (the paper's
    /// fault-monitoring timeout knob): the floor of the process-level
    /// detector's dead threshold, and the bound a stuck flush leader
    /// re-checks its members against.
    pub failure_timeout: SimDuration,
    /// How often gaps are re-NACKed while missing.
    pub nack_interval: SimDuration,
    /// How long the flush leader waits for the round to complete before
    /// re-proposing.
    pub flush_timeout: SimDuration,
    /// Maximum application messages coalesced into one batched wire frame
    /// per destination. `1` disables batching: every multicast goes out as
    /// its own `Data` frame immediately (the paper's latency-first default).
    /// Larger values amortize the frame header across messages — the
    /// Table 1 scalability knob traded against added latency.
    pub batch_max_messages: usize,
    /// How long a partially-filled batch may wait before it is flushed.
    /// Only consulted when `batch_max_messages > 1`.
    pub batch_flush_interval: SimDuration,
    /// Minimum membership a view must have for this endpoint to stay a
    /// member. Installing a view smaller than this evicts the endpoint
    /// (it emits `SelfEvicted` and goes inert) — a quorum rule that stops
    /// a partitioned minority from soldiering on as a rump group (e.g. a
    /// cut-off primary staying "primary" of a singleton view). `1`
    /// (the default) preserves the historical behavior: any non-empty
    /// view is acceptable.
    pub min_view: usize,
}

impl GroupConfig {
    /// Sets the heartbeat interval (builder style).
    pub fn heartbeat_interval(mut self, d: SimDuration) -> Self {
        self.heartbeat_interval = d;
        self
    }

    /// Sets the failure-detection timeout (builder style).
    pub fn failure_timeout(mut self, d: SimDuration) -> Self {
        self.failure_timeout = d;
        self
    }

    /// Sets the NACK retry interval (builder style).
    pub fn nack_interval(mut self, d: SimDuration) -> Self {
        self.nack_interval = d;
        self
    }

    /// Sets the flush-round timeout (builder style).
    pub fn flush_timeout(mut self, d: SimDuration) -> Self {
        self.flush_timeout = d;
        self
    }

    /// Sets the maximum batch size (builder style). `1` disables batching.
    pub fn batch_max_messages(mut self, n: usize) -> Self {
        self.batch_max_messages = n;
        self
    }

    /// Sets the batch flush interval (builder style).
    pub fn batch_flush_interval(mut self, d: SimDuration) -> Self {
        self.batch_flush_interval = d;
        self
    }

    /// Sets the minimum view size / quorum rule (builder style).
    pub fn min_view(mut self, n: usize) -> Self {
        self.min_view = n;
        self
    }

    /// Validates the invariants between intervals.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if the failure timeout does not
    /// exceed the heartbeat interval (every live member would be suspected)
    /// or any interval is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.heartbeat_interval.is_zero() {
            return Err("heartbeat interval must be positive".into());
        }
        if self.nack_interval.is_zero() {
            return Err("nack interval must be positive".into());
        }
        if self.flush_timeout.is_zero() {
            return Err("flush timeout must be positive".into());
        }
        if self.failure_timeout <= self.heartbeat_interval {
            return Err(format!(
                "failure timeout ({}) must exceed heartbeat interval ({})",
                self.failure_timeout, self.heartbeat_interval
            ));
        }
        if self.batch_max_messages == 0 {
            return Err("batch_max_messages must be at least 1 (1 = batching off)".into());
        }
        if self.batch_max_messages > 1 && self.batch_flush_interval.is_zero() {
            return Err("batch_flush_interval must be positive when batching is on".into());
        }
        if self.min_view == 0 {
            return Err("min_view must be at least 1 (a member is always in its own view)".into());
        }
        Ok(())
    }
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            heartbeat_interval: SimDuration::from_millis(10),
            failure_timeout: SimDuration::from_millis(50),
            nack_interval: SimDuration::from_millis(5),
            flush_timeout: SimDuration::from_millis(100),
            batch_max_messages: 1,
            batch_flush_interval: SimDuration::from_micros(500),
            min_view: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(GroupConfig::default().validate().is_ok());
    }

    #[test]
    fn timeout_must_exceed_heartbeat() {
        let c = GroupConfig::default()
            .heartbeat_interval(SimDuration::from_millis(50))
            .failure_timeout(SimDuration::from_millis(50));
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_intervals_rejected() {
        assert!(GroupConfig::default()
            .heartbeat_interval(SimDuration::ZERO)
            .validate()
            .is_err());
        assert!(GroupConfig::default()
            .nack_interval(SimDuration::ZERO)
            .validate()
            .is_err());
        assert!(GroupConfig::default()
            .flush_timeout(SimDuration::ZERO)
            .validate()
            .is_err());
    }

    #[test]
    fn batch_knobs_validated() {
        assert!(GroupConfig::default()
            .batch_max_messages(0)
            .validate()
            .is_err());
        assert!(GroupConfig::default()
            .batch_max_messages(16)
            .batch_flush_interval(SimDuration::ZERO)
            .validate()
            .is_err());
        // Zero flush interval is fine while batching is off.
        assert!(GroupConfig::default()
            .batch_flush_interval(SimDuration::ZERO)
            .validate()
            .is_ok());
        assert!(GroupConfig::default()
            .batch_max_messages(16)
            .validate()
            .is_ok());
    }

    #[test]
    fn min_view_validated() {
        assert_eq!(GroupConfig::default().min_view, 1);
        assert!(GroupConfig::default().min_view(0).validate().is_err());
        assert!(GroupConfig::default().min_view(2).validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let c = GroupConfig::default()
            .heartbeat_interval(SimDuration::from_millis(2))
            .failure_timeout(SimDuration::from_millis(9))
            .nack_interval(SimDuration::from_millis(3))
            .flush_timeout(SimDuration::from_millis(40));
        assert_eq!(c.heartbeat_interval, SimDuration::from_millis(2));
        assert_eq!(c.failure_timeout, SimDuration::from_millis(9));
        assert_eq!(c.nack_interval, SimDuration::from_millis(3));
        assert_eq!(c.flush_timeout, SimDuration::from_millis(40));
        assert!(c.validate().is_ok());
    }
}
