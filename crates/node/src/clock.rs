//! The node clock: real elapsed time presented as [`SimTime`].
//!
//! Every actor and transport on one node shares one clock whose epoch is
//! the node's start instant. `SimTime` values therefore mean "µs since
//! *this* node started" and never cross the wire — peers only exchange
//! payloads, and every protocol timeout is a *duration*, which is
//! epoch-independent. This is the same convention the simulator uses
//! (time zero = world start), so protocol code cannot tell the backends
//! apart by looking at the clock.
#![expect(
    clippy::disallowed_types,
    reason = "the real runtime's clock is the wall clock by design: Instant, presented as SimTime"
)]

use std::sync::Arc;
use std::time::Instant;

use vd_simnet::time::SimTime;

/// A shareable monotonic clock anchored at node start.
#[derive(Debug, Clone)]
pub struct NodeClock {
    epoch: Arc<Instant>,
}

impl NodeClock {
    /// A clock whose zero is "now".
    pub fn new() -> Self {
        NodeClock {
            epoch: Arc::new(Instant::now()),
        }
    }

    /// Elapsed time since the node started, as the simulator's time type.
    pub fn now(&self) -> SimTime {
        let us = self.epoch.elapsed().as_micros();
        SimTime::from_micros(us.min(u128::from(u64::MAX)) as u64)
    }
}

impl Default for NodeClock {
    fn default() -> Self {
        NodeClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_shared() {
        let clock = NodeClock::new();
        let twin = clock.clone();
        let a = clock.now();
        let b = twin.now();
        assert!(b >= a, "clones share one epoch and never go backwards");
    }
}
