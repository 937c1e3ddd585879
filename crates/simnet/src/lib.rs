//! # vd-simnet — deterministic discrete-event simulation substrate
//!
//! This crate stands in for the physical test-bed used in *"Architecting and
//! Implementing Versatile Dependability"* (seven Pentium-III machines on a
//! switched 100 Mb/s LAN). It provides:
//!
//! * **virtual time** in microseconds ([`time`]),
//! * a **deterministic scheduler** over an event queue ([`world`]),
//! * a **network model** with per-link latency, jitter and bandwidth
//!   ([`topology`]),
//! * a **CPU model** that serializes handler execution per node ([`node`]),
//! * **fault injection** — crash, loss, partition, timing faults ([`fault`]),
//! * **exact round-trip samples** — a [`metrics::Histogram`] that client
//!   drivers record latency and jitter into ([`metrics`]).
//!
//! Scheduler events (deliveries, drops, timer fires) and the bytes put on
//! the network are counted in the world's `vd-obs` registry
//! ([`world::World::obs`]); `vd-obs`'s `MetricsRegistry` is the one
//! metrics registry and its `TraceSink` the one event trace.
//!
//! Everything above this crate (group communication, the ORB, the
//! replicator) is written as [`actor::Actor`]s, so a whole distributed
//! system runs inside one address space, deterministically, at simulated
//! microsecond resolution.
//!
//! # Examples
//!
//! ```
//! use vd_simnet::prelude::*;
//!
//! #[derive(Debug)]
//! struct Hello;
//! impl Payload for Hello {
//!     fn wire_size(&self) -> usize { 32 }
//! }
//!
//! struct Greeter { greeted: bool }
//! impl Actor for Greeter {
//!     fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _p: Box<dyn Payload>) {
//!         self.greeted = true;
//!     }
//!     fn state_digest(&self) -> Option<u64> { None }
//! }
//!
//! let mut world = World::new(Topology::full_mesh(1), 7);
//! let pid = world.spawn(NodeId(0), Box::new(Greeter { greeted: false }));
//! world.inject(pid, Hello);
//! world.run_for(SimDuration::from_millis(1));
//! assert!(world.actor_ref::<Greeter>(pid).unwrap().greeted);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod actor;
pub mod chaos;
pub(crate) mod event;
pub mod explore;
pub mod fault;
pub mod metrics;
pub mod node;
pub mod rng;
pub mod time;
pub mod topology;
pub mod world;

/// The most commonly used names, for glob import.
pub mod prelude {
    pub use crate::actor::{downcast_payload, payload_ref, Actor, Context, Payload, TimerToken};
    pub use crate::chaos::{ChaosAction, FaultPlan, FaultStep, StormConfig};
    pub use crate::explore::{Choice, ExploreConfig, ExploreReport, Fnv64, Violation};
    pub use crate::metrics::Histogram;
    pub use crate::rng::DeterministicRng;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{LatencyModel, LinkConfig, NodeId, ProcessId, Topology};
    pub use crate::world::{World, EXTERNAL};
}
