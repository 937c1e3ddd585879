//! # vd-core — versatile dependability
//!
//! The primary contribution of *"Architecting and Implementing Versatile
//! Dependability"* (Dumitraş, Srivastava, Narasimhan): a middleware
//! framework that treats {fault-tolerance × performance × resources} as a
//! *tunable region* of the dependability design space, exposed through
//! knobs:
//!
//! * **Low-level knobs** ([`knobs`]): replication style ([`style`]), number
//!   of replicas, checkpointing frequency, fault-monitoring intervals.
//! * **High-level knobs** ([`policy`]): scalability (the paper's §4.3
//!   Table-2 planner), availability, and runtime rate-adaptive style
//!   switching (§4.2, Fig. 6), built on monitoring ([`monitor`]),
//!   contracts ([`contract`]) and the replicated system-state board
//!   ([`repstate`]).
//! * **The replicator** ([`replica`], [`engine`]): a three-layer stack —
//!   application/ORB interposition on top, tunable replication mechanisms
//!   (active, warm passive, cold passive, semi-active) in the middle,
//!   group communication below — replicating unmodified applications at
//!   process granularity ([`state`]).
//! * **The runtime switch protocol** (paper Fig. 5): change replication
//!   style on the fly, tolerating the crash of any replica mid-switch
//!   ([`engine`]).
//! * **The client-side interposer** ([`client`]): transparent invocation
//!   over the replica group with first-response duplicate suppression and
//!   gateway failover.
//!
//! # Examples
//!
//! A deterministic replicated counter (the paper-style micro-benchmark):
//!
//! ```
//! use bytes::Bytes;
//! use vd_core::prelude::*;
//!
//! struct Counter(u64);
//! impl ReplicatedApplication for Counter {
//!     fn invoke(&mut self, operation: &str, _args: &Bytes) -> InvokeResult {
//!         if operation == "increment" {
//!             self.0 += 1;
//!         }
//!         Ok(Bytes::copy_from_slice(&self.0.to_le_bytes()))
//!     }
//!     fn capture_state(&self) -> Bytes {
//!         Bytes::copy_from_slice(&self.0.to_le_bytes())
//!     }
//!     fn restore_state(&mut self, state: &Bytes) {
//!         let mut raw = [0u8; 8];
//!         raw.copy_from_slice(&state[..8]);
//!         self.0 = u64::from_le_bytes(raw);
//!     }
//! }
//!
//! // The engine decides; hosts execute. Three active replicas:
//! use vd_simnet::topology::ProcessId;
//! let members = vec![ProcessId(1), ProcessId(2), ProcessId(3)];
//! let (mut engine, _) = Engine::new(ProcessId(1), ReplicationStyle::Active, members, true);
//! let ops = engine.on_invoke(ProcessId(9), 1, "increment".into(), Bytes::new());
//! assert_eq!(ops.len(), 1); // execute + reply
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod contract;
pub mod engine;
#[cfg(feature = "check-invariants")]
pub mod harness;
#[cfg(feature = "check-invariants")]
pub mod invariants;
pub mod knobs;
pub mod messages;
pub mod monitor;
pub mod policy;
pub mod recovery;
pub mod replica;
pub mod repstate;
pub mod state;
pub mod style;

/// The most commonly used names, for glob import.
pub mod prelude {
    pub use crate::client::{ReplicatedClientActor, ReplicatedClientConfig};
    pub use crate::contract::{Contract, ContractStatus, Violation};
    pub use crate::engine::{Engine, EngineOp, GatewayDecision, InvokeEntry};
    pub use crate::knobs::{HighLevelKnob, LowLevelKnobs};
    pub use crate::messages::{CachedReply, ReplicatorMsg};
    pub use crate::monitor::{Monitor, Observations};
    pub use crate::policy::{
        plan_scalability, AdaptationAction, AdaptationPolicy, AvailabilityPolicy, ChosenConfig,
        ConfigMeasurement, ContractPolicy, PolicyContext, RateThresholdPolicy,
        ScalabilityRequirements, SlowFailurePolicy,
    };
    pub use crate::recovery::{
        DirectiveNotice, ManagerHeartbeat, MembershipReport, RecoveryConfig, RecoveryManager,
        SuspicionNotice,
    };
    pub use crate::replica::{
        GroupMembership, HostedGroup, ReplicaActor, ReplicaCommand, ReplicaConfig, ReplicaCosts,
        ReplicationEngine,
    };
    pub use crate::repstate::SystemBoard;
    pub use crate::state::{Checkpoint, InvokeResult, ReplicatedApplication, UserException};
    pub use crate::style::ReplicationStyle;
}
