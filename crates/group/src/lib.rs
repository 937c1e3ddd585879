//! # vd-group — group communication toolkit
//!
//! A from-scratch substitute for the Spread toolkit used in *"Architecting
//! and Implementing Versatile Dependability"*. It provides exactly the
//! services the paper's replicator consumes:
//!
//! * **group membership** with agreed views and join/leave ([`view`],
//!   [`endpoint`]),
//! * **failure detection**: one adaptive heartbeat detector per process
//!   pair ([`multi`], [`detector`]), whose interval and timeout are the
//!   paper's fault-monitoring knobs ([`config`]),
//! * **reliable multicast** with NACK-based retransmission and
//!   stability-based garbage collection (the [`stream`] module),
//! * the four Spread **delivery guarantees**: best effort, FIFO, causal and
//!   agreed (total) order ([`order`], [`vclock`]),
//! * **virtual synchrony**: a flush protocol guaranteeing all survivors
//!   deliver the same messages before a membership change, with fault
//!   notifications totally ordered with respect to data ([`flush`]).
//!
//! The protocol engine ([`endpoint::Endpoint`]) is *sans-IO*: it consumes
//! timestamped inputs and returns explicit outputs, so it can be driven by
//! unit tests or by property tests exploring adversarial schedules. Every
//! running process hosts its endpoints in a [`multi::MultiEndpoint`] — one
//! group or many — which adds the process-level failure detector. An actor
//! hosting it performs its outputs on its `vd-simnet` context through
//! [`sim::apply_multi_outputs`], whether the simulator or a real node
//! runs the actor. In the deterministic simulator, group-level tests host
//! it in a [`sim::MultiGroupMemberActor`].
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use vd_group::prelude::*;
//! use vd_simnet::time::SimTime;
//! use vd_simnet::topology::ProcessId;
//!
//! let members = vec![ProcessId(1), ProcessId(2)];
//! let mut a = Endpoint::bootstrap(ProcessId(1), GroupId(0), GroupConfig::default(), members);
//! let _timers = a.start(SimTime::ZERO);
//! let outputs = a
//!     .multicast(SimTime::ZERO, DeliveryOrder::Fifo, Bytes::from_static(b"hi"))
//!     .unwrap();
//! // FIFO messages self-deliver immediately; one copy goes to the peer.
//! assert!(outputs.iter().any(|o| o.as_delivery().is_some()));
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod detector;
pub mod endpoint;
pub mod flush;
pub mod message;
pub mod multi;
pub mod order;
pub mod sim;
pub mod stream;
pub mod vclock;
pub mod view;

/// The most commonly used names, for glob import.
pub mod prelude {
    pub use crate::api::{Delivery, GroupEvent, GroupTimer, Output};
    pub use crate::config::GroupConfig;
    pub use crate::detector::{DetectorConfig, PairDetector, PeerVerdict};
    pub use crate::endpoint::{Endpoint, MulticastError};
    pub use crate::message::{Assignment, DataMsg, GroupId, GroupMsg};
    pub use crate::multi::{
        HeartbeatSection, MultiEndpoint, MultiOutput, MultiTimer, ProcessHeartbeat,
    };
    pub use crate::order::DeliveryOrder;
    pub use crate::sim::{MultiCommand, MultiGroupMemberActor};
    pub use crate::vclock::VectorClock;
    pub use crate::view::{View, ViewId};
}
