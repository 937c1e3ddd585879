//! Knobs: the tunable surface of versatile dependability.
//!
//! The paper distinguishes **low-level knobs** — the internal fault-
//! tolerance parameters FT-CORBA exposes (replication style, number of
//! replicas, checkpointing frequency, fault-monitoring interval) — from
//! **high-level knobs** — externally-meaningful properties (scalability,
//! availability, real-time guarantees) that policies map onto low-level
//! settings. Table 1 of the paper gives the mapping; [`mapping`] reproduces
//! it and the knob structs carry the actual values.
//!
//! The fault-monitoring interval and timeout are not fields of
//! [`LowLevelKnobs`]: they live in `vd_group::config::GroupConfig`
//! (`heartbeat_interval`, `failure_timeout`), the one place the failure
//! detector reads them. Together they set the fault-detection time of
//! Table 1's availability column; the `group.fault_detection_us` histogram
//! records the measured value, which lands in `(timeout, timeout +
//! interval]`. Data-plane batching lives there too
//! (`GroupConfig::batch_max_messages`), read by the endpoint that
//! batches.

use std::fmt;

use vd_simnet::time::SimDuration;

use crate::style::ReplicationStyle;

/// The internal fault-tolerance parameters (paper Table 1, rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowLevelKnobs {
    /// Replication style for the process — paper Table 1's "replication
    /// style" row, the knob every high-level property depends on; §4.1
    /// describes switching it at run time (protocol in Fig. 5).
    pub style: ReplicationStyle,
    /// Target number of replicas (`MinimumNumberReplicas` in the paper's
    /// §2 FT-CORBA discussion) — Table 1's "number of replicas" row,
    /// swept 1–3 in the Fig. 7 evaluation.
    pub num_replicas: usize,
    /// Interval between checkpoints (passive styles) — Table 1's
    /// "frequency of checkpointing" row; §4.2 ties it to the
    /// availability/bandwidth trade-off.
    pub checkpoint_interval: SimDuration,
    /// Incremental checkpoint period: every `K`-th checkpoint is a full
    /// snapshot and the `K−1` in between are byte deltas against the
    /// previous checkpoint. `0` or `1` disables deltas (every checkpoint
    /// is full). Trades recovery-chain length for transfer bytes — the
    /// paper's checkpointing-frequency knob extended along the size axis.
    pub checkpoint_full_every: u32,
}

impl LowLevelKnobs {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when the settings cannot work (no replicas, or a
    /// passive style without a checkpoint interval).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_replicas == 0 {
            return Err("at least one replica is required".into());
        }
        if self.style.uses_checkpoints() && self.checkpoint_interval.is_zero() {
            return Err("passive styles need a positive checkpoint interval".into());
        }
        Ok(())
    }

    /// Crash faults tolerated by this configuration (replicas − 1).
    pub fn faults_tolerated(&self) -> usize {
        self.num_replicas.saturating_sub(1)
    }

    /// Builder: sets the replication style.
    pub fn style(mut self, style: ReplicationStyle) -> Self {
        self.style = style;
        self
    }

    /// Builder: sets the replica count.
    pub fn num_replicas(mut self, n: usize) -> Self {
        self.num_replicas = n;
        self
    }

    /// Builder: sets the checkpoint interval.
    pub fn checkpoint_interval(mut self, d: SimDuration) -> Self {
        self.checkpoint_interval = d;
        self
    }

    /// Builder: sets the full-snapshot period for incremental
    /// checkpointing (`0`/`1` = always full).
    pub fn checkpoint_full_every(mut self, k: u32) -> Self {
        self.checkpoint_full_every = k;
        self
    }

    /// Whether incremental (delta) checkpointing is enabled.
    pub fn delta_checkpoints_enabled(&self) -> bool {
        self.checkpoint_full_every > 1
    }
}

impl Default for LowLevelKnobs {
    fn default() -> Self {
        LowLevelKnobs {
            style: ReplicationStyle::WarmPassive,
            num_replicas: 2,
            checkpoint_interval: SimDuration::from_millis(10),
            checkpoint_full_every: 1,
        }
    }
}

impl fmt::Display for LowLevelKnobs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}×{} ckpt={} full/{}",
            self.style,
            self.num_replicas,
            self.checkpoint_interval,
            self.checkpoint_full_every.max(1)
        )
    }
}

/// The externally-meaningful properties (paper Table 1, columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HighLevelKnob {
    /// Number of clients the system can serve within its constraints —
    /// Table 1's scalability column; §4.3 derives its Table 2 policy
    /// (style × replica count per client load) from measurements.
    Scalability,
    /// Fraction of time the service answers — Table 1's availability
    /// column: replica count, checkpointing frequency and the
    /// fault-detection knobs (§3.1, §4.2).
    Availability,
    /// Bounded response times — Table 1's real-time column, influenced
    /// by all three low-level knobs (§3.1; §5 mission modes).
    RealTimeGuarantees,
}

impl fmt::Display for HighLevelKnob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HighLevelKnob::Scalability => "scalability",
            HighLevelKnob::Availability => "availability",
            HighLevelKnob::RealTimeGuarantees => "real-time guarantees",
        };
        f.write_str(s)
    }
}

/// The mapping from high-level to low-level knobs and uncontrollable
/// application parameters — paper Table 1, verbatim.
pub mod mapping {
    use super::HighLevelKnob;

    /// A low-level knob name, as listed in Table 1.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum LowLevelKnobName {
        /// The replication style.
        ReplicationStyle,
        /// The number of replicas.
        NumReplicas,
        /// Checkpointing frequency.
        CheckpointingFrequency,
    }

    /// An application parameter outside the framework's control, as listed
    /// in Table 1.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum AppParameter {
        /// How often clients issue requests.
        FrequencyOfRequests,
        /// Sizes of requests and responses.
        SizeOfRequestsAndResponses,
        /// Size of the application state (checkpoint payloads).
        SizeOfState,
        /// Available resources (nodes, bandwidth, CPU).
        Resources,
    }

    /// The low-level knobs that implement a given high-level knob.
    pub fn low_level_knobs(high: HighLevelKnob) -> &'static [LowLevelKnobName] {
        match high {
            HighLevelKnob::Scalability => &[
                LowLevelKnobName::ReplicationStyle,
                LowLevelKnobName::NumReplicas,
            ],
            HighLevelKnob::Availability => &[
                LowLevelKnobName::ReplicationStyle,
                LowLevelKnobName::CheckpointingFrequency,
            ],
            HighLevelKnob::RealTimeGuarantees => &[
                LowLevelKnobName::ReplicationStyle,
                LowLevelKnobName::NumReplicas,
                LowLevelKnobName::CheckpointingFrequency,
            ],
        }
    }

    /// The uncontrollable application parameters influencing a high-level
    /// knob.
    pub fn app_parameters(high: HighLevelKnob) -> &'static [AppParameter] {
        match high {
            HighLevelKnob::Scalability => &[
                AppParameter::FrequencyOfRequests,
                AppParameter::SizeOfRequestsAndResponses,
                AppParameter::Resources,
            ],
            HighLevelKnob::Availability => &[AppParameter::SizeOfState, AppParameter::Resources],
            HighLevelKnob::RealTimeGuarantees => &[
                AppParameter::FrequencyOfRequests,
                AppParameter::SizeOfRequestsAndResponses,
                AppParameter::SizeOfState,
                AppParameter::Resources,
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mapping::*;
    use super::*;

    #[test]
    fn default_knobs_validate() {
        assert!(LowLevelKnobs::default().validate().is_ok());
    }

    #[test]
    fn invalid_knobs_rejected() {
        assert!(LowLevelKnobs::default().num_replicas(0).validate().is_err());
        assert!(LowLevelKnobs::default()
            .checkpoint_interval(SimDuration::ZERO)
            .validate()
            .is_err());
        // Active replication does not checkpoint: a zero interval is fine.
        assert!(LowLevelKnobs::default()
            .style(ReplicationStyle::Active)
            .checkpoint_interval(SimDuration::ZERO)
            .validate()
            .is_ok());
    }

    #[test]
    fn data_plane_knobs_validate_and_report() {
        let k = LowLevelKnobs::default().checkpoint_full_every(8);
        assert!(k.validate().is_ok());
        assert!(k.delta_checkpoints_enabled());
        assert!(!LowLevelKnobs::default().delta_checkpoints_enabled());
        assert!(!LowLevelKnobs::default()
            .checkpoint_full_every(0)
            .delta_checkpoints_enabled());
    }

    #[test]
    fn faults_tolerated_is_replicas_minus_one() {
        assert_eq!(
            LowLevelKnobs::default().num_replicas(3).faults_tolerated(),
            2
        );
        assert_eq!(
            LowLevelKnobs::default().num_replicas(1).faults_tolerated(),
            0
        );
    }

    #[test]
    fn table_1_mapping_shape() {
        // Every high-level knob is influenced by the replication style.
        for high in [
            HighLevelKnob::Scalability,
            HighLevelKnob::Availability,
            HighLevelKnob::RealTimeGuarantees,
        ] {
            assert!(low_level_knobs(high).contains(&LowLevelKnobName::ReplicationStyle));
            assert!(app_parameters(high).contains(&AppParameter::Resources));
        }
        // Real-time guarantees depend on all three low-level knobs.
        assert_eq!(low_level_knobs(HighLevelKnob::RealTimeGuarantees).len(), 3);
        // Availability depends on checkpointing, not replica count alone.
        assert!(low_level_knobs(HighLevelKnob::Availability)
            .contains(&LowLevelKnobName::CheckpointingFrequency));
    }
}
