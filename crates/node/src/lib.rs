//! # vd-node — the real-network runtime
//!
//! Everything else in this workspace runs the replication stack inside
//! the deterministic simulator. This crate runs the *same protocol code*
//! on real UDP sockets and OS threads. The seam both backends share is
//! the simulator's own: every actor handler runs on a
//! [`Context`](vd_simnet::actor::Context) (here built with
//! `Context::external`) and leaves its effects as
//! [`Action`](vd_simnet::actor::Action)s. The simulator's world performs
//! them on its model network; this crate's event loop performs them on a
//! socket and per-actor timer wheels ([`transport`]). The simulator stays
//! the model-checked twin.
//!
//! The runtime is one event loop per node (`DESIGN.md` §16):
//!
//! * one **thread** per node, `vd-node-<id>`, owns the node's UDP socket
//!   and every actor it hosts, and blocks in one `ppoll(2)` until a
//!   datagram, a timer, a restart or a held datagram is due ([`host`]),
//! * one **actor** per hosted process id owns that replica's entire state
//!   and runs the sans-IO handlers unchanged, one handler at a time, as
//!   the simulator runs them,
//! * a **supervisor** catches each handler's panic and restarts the actor
//!   with capped deterministic backoff, re-joining its groups through the
//!   recovery path ([`host::SupervisorPolicy`]), while the node's other
//!   actors keep running.
//!
//! vd-node runs on Linux only: the loop waits in `ppoll(2)`, which the
//! standard library does not wrap.
//!
//! The `vd-node` binary boots a node from a TOML config ([`config`]);
//! [`client::LoopbackClient`] is the external ORB client used by the
//! loopback integration test and the `loopback` benchmark.
//!
//! This reproduces the deployment half of *"Architecting and
//! Implementing Versatile Dependability"* (DSN 2004): §4's middleware
//! architecture running on an actual cluster, with §6's
//! Spread-equivalent messaging carried by [`codec`] over UDP.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("vd-node runs on Linux only: its event loop waits in ppoll(2)");

pub mod client;
pub mod clock;
pub mod codec;
pub mod config;
pub mod host;
pub mod log;
pub mod node;
pub mod transport;

pub use client::LoopbackClient;
pub use config::NodeConfig;
pub use node::{Node, NodeHandle};
