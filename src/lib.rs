//! # versatile-dependability
//!
//! A from-scratch Rust reproduction of *"Architecting and Implementing
//! Versatile Dependability"* (Dumitraş, Srivastava, Narasimhan, 2004): a
//! middleware framework that treats {fault-tolerance × performance ×
//! resources} as a tunable region of the dependability design space.
//!
//! This façade crate re-exports the whole workspace:
//!
//! * [`simnet`] — deterministic discrete-event simulation substrate
//!   (virtual time, network/CPU models, fault injection, round-trip
//!   samples),
//! * [`group`] — group communication toolkit (membership, failure
//!   detection, four delivery guarantees, virtual synchrony),
//! * [`orb`] — miniature ORB (GIOP-lite wire format, CDR-lite marshaling,
//!   servants, interceptors),
//! * [`core`] — the paper's contribution: the tunable replicator,
//!   replication styles, the runtime switch protocol, knobs, monitoring,
//!   contracts and adaptation policies,
//! * `bench` (re-exported below) — workload generators and the experiment
//!   harness regenerating every table and figure of the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use versatile_dependability::prelude::*;
//! use bytes::Bytes;
//!
//! // A deterministic replicated application (process-level state).
//! struct Counter(u64);
//! impl ReplicatedApplication for Counter {
//!     fn invoke(&mut self, op: &str, _args: &Bytes) -> InvokeResult {
//!         if op == "increment" { self.0 += 1; }
//!         Ok(Bytes::copy_from_slice(&self.0.to_le_bytes()))
//!     }
//!     fn capture_state(&self) -> Bytes {
//!         Bytes::copy_from_slice(&self.0.to_le_bytes())
//!     }
//!     fn restore_state(&mut self, s: &Bytes) {
//!         let mut raw = [0u8; 8];
//!         raw.copy_from_slice(&s[..8]);
//!         self.0 = u64::from_le_bytes(raw);
//!     }
//! }
//!
//! // Three actively-replicated copies on a simulated LAN.
//! let mut world = World::new(Topology::full_mesh(4), 7);
//! let members: Vec<ProcessId> = (0..3).map(ProcessId).collect();
//! for i in 0..3u32 {
//!     let config = ReplicaConfig {
//!         knobs: LowLevelKnobs::default().style(ReplicationStyle::Active),
//!         ..ReplicaConfig::for_group(GroupId(1))
//!     };
//!     world.spawn(NodeId(i), Box::new(ReplicaActor::bootstrap(
//!         ProcessId(i as u64), members.clone(), Box::new(Counter(0)), config,
//!     )));
//! }
//! world.run_for(SimDuration::from_millis(10));
//! ```

pub use vd_bench as bench;
pub use vd_core as core;
pub use vd_group as group;
pub use vd_orb as orb;
pub use vd_simnet as simnet;

/// Everything commonly needed, re-exported flat.
pub mod prelude {
    pub use vd_core::prelude::*;
    pub use vd_group::prelude::{DeliveryOrder, GroupConfig, GroupId, View, ViewId};
    pub use vd_orb::prelude::{
        ObjectAdapter, ObjectKey, OrbCosts, OrbMessage, Reply, ReplyStatus, Request, Servant,
    };
    pub use vd_simnet::prelude::{
        LatencyModel, LinkConfig, NodeId, ProcessId, SimDuration, SimTime, Topology, World,
    };
}
