//! The node's side of the network: the socket's send half, one timer
//! wheel per hosted actor, and the egress-delay shim.
//!
//! The node's event loop ([`crate::host`]) performs each handler's
//! `vd_simnet::actor::Action`s with these, the way the simulator's world
//! performs them with its own queues. The parity contract is strict:
//!
//! * **Sends** become one UDP datagram per frame via [`crate::codec`],
//!   *including node-local destinations* — a frame between two actors on
//!   the same node still round-trips through the loopback socket, so a
//!   co-hosted replica sees exactly the message pattern a remote one
//!   would (the simulator likewise routes self-sends through the network
//!   queue).
//! * **Timers** use a per-actor [`TimerWheel`] with the simulator's
//!   cancellation semantics: cancels are counted and each count suppresses
//!   one future firing of that token, byte-for-byte the behavior of
//!   `vd_simnet::world`'s `canceled_timers` map.
//! * **The clock** is the node-local [`NodeClock`] — protocol code reads
//!   `SimTime` either way and cannot tell the backends apart.
//!
//! Everything here belongs to the node's one event-loop thread: the
//! socket, every actor's wheel and the shim's queue live on that thread,
//! so none of it takes a lock. The receive half is the loop itself.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use vd_obs::registry::Ctr;
use vd_obs::ObsHandle;
use vd_simnet::actor::{Payload, TimerToken};
use vd_simnet::time::{SimDuration, SimTime};
use vd_simnet::topology::ProcessId;

use crate::clock::NodeClock;
use crate::codec;
use crate::log::NodeLog;

/// Largest datagram the runtime sends or receives (the UDP maximum).
pub const MAX_DATAGRAM: usize = 64 * 1024;

/// A pending timer: fire time, insertion sequence (stable order for equal
/// deadlines, mirroring the simulator's deterministic tie-break), token.
type Pending = std::cmp::Reverse<(SimTime, u64, TimerToken)>;

/// A monotonic timer queue with the simulator's cancellation semantics.
///
/// `cancel` does not search the queue; it increments a per-token count
/// and each count suppresses one future firing — exactly how
/// `vd_simnet::world::World` implements `Action::CancelTimer`. Protocol
/// code tuned against the simulator therefore observes identical timer
/// behavior on real hardware.
#[derive(Debug, Default)]
pub struct TimerWheel {
    heap: BinaryHeap<Pending>,
    canceled: BTreeMap<TimerToken, u32>,
    seq: u64,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Schedules `token` to fire at `at`.
    pub fn set(&mut self, at: SimTime, token: TimerToken) {
        self.seq += 1;
        self.heap.push(std::cmp::Reverse((at, self.seq, token)));
    }

    /// Suppresses one future firing of `token`.
    pub fn cancel(&mut self, token: TimerToken) {
        *self.canceled.entry(token).or_insert(0) += 1;
    }

    /// The earliest un-fired deadline, if any timer is pending.
    ///
    /// May report the deadline of a timer that a cancel will later
    /// suppress; the caller simply wakes up and pops nothing, which is
    /// harmless.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.heap.peek().map(|std::cmp::Reverse((at, _, _))| *at)
    }

    /// The deadline of the next timer due at or before `now` that will
    /// fire, discarding the due firings that cancels suppress on the way.
    ///
    /// Only due entries are discarded, in firing order, so a cancel still
    /// suppresses the next *firing* of its token, as in the simulator.
    pub fn next_due(&mut self, now: SimTime) -> Option<SimTime> {
        while let Some(std::cmp::Reverse((at, _, token))) = self.heap.peek().copied() {
            if at > now {
                return None;
            }
            let Some(count) = self.canceled.get_mut(&token) else {
                return Some(at);
            };
            self.heap.pop();
            *count -= 1;
            if *count == 0 {
                self.canceled.remove(&token);
            }
        }
        None
    }

    /// Pops the next timer due at or before `now`, honoring cancels.
    pub fn pop_due(&mut self, now: SimTime) -> Option<TimerToken> {
        self.next_due(now)?;
        self.heap
            .pop()
            .map(|std::cmp::Reverse((_, _, token))| token)
    }
}

/// The socket-level egress delay shim: the gray-failure fault injector of
/// the real backend, mirroring the simulator's `set_link_delay` verb.
///
/// While a delay is armed, every datagram the node would send is parked
/// in a FIFO queue instead, and the event loop puts it on the wire once
/// the delay has elapsed — the node is alive, its protocol state advances,
/// but everything it says arrives late, which is exactly the fail-slow
/// surface the adaptive detector exists for. Disarmed (the default),
/// sends take the direct path. Disarming does not flush the queue: held
/// datagrams still leave at their release time, and fresh sends may
/// overtake them, which UDP's no-ordering contract already forces every
/// consumer to tolerate.
#[derive(Debug, Default)]
struct DelayShim {
    delay: Option<SimDuration>,
    held: VecDeque<(SimTime, SocketAddr, Bytes)>,
}

impl DelayShim {
    /// Arms (nonzero) or disarms (zero) the egress delay.
    fn set_delay(&mut self, delay: Duration) {
        let us = delay.as_micros().min(u128::from(u64::MAX)) as u64;
        self.delay = (us > 0).then(|| SimDuration::from_micros(us));
    }

    /// The release time of the oldest held datagram.
    fn next_release(&self) -> Option<SimTime> {
        self.held.front().map(|&(due, _, _)| due)
    }

    /// Takes the oldest held datagram if its release time has come.
    fn pop_due(&mut self, now: SimTime) -> Option<(SocketAddr, Bytes)> {
        match self.held.front() {
            Some(&(due, _, _)) if due <= now => {
                self.held.pop_front().map(|(_, addr, bytes)| (addr, bytes))
            }
            _ => None,
        }
    }
}

/// The node's side of the network: the one UDP socket, the peer table and
/// the egress-delay shim, shared by every actor the node hosts.
#[derive(Debug)]
pub(crate) struct Wire {
    socket: UdpSocket,
    peers: BTreeMap<ProcessId, SocketAddr>,
    shim: DelayShim,
    clock: NodeClock,
    obs: ObsHandle,
    log: Arc<NodeLog>,
}

impl Wire {
    /// The send side of `socket`, addressing peers through `peers`.
    pub(crate) fn new(
        socket: UdpSocket,
        peers: BTreeMap<ProcessId, SocketAddr>,
        clock: NodeClock,
        obs: ObsHandle,
        log: Arc<NodeLog>,
    ) -> Self {
        Wire {
            socket,
            peers,
            shim: DelayShim::default(),
            clock,
            obs,
            log,
        }
    }

    /// The node socket (the event loop receives on it).
    pub(crate) fn socket(&self) -> &UdpSocket {
        &self.socket
    }

    /// The node clock's current reading.
    pub(crate) fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Arms (nonzero) or disarms (zero) the egress delay.
    pub(crate) fn set_egress_delay(&mut self, delay: Duration) {
        self.shim.set_delay(delay);
    }

    /// When the next held datagram is due on the wire.
    pub(crate) fn next_release(&self) -> Option<SimTime> {
        self.shim.next_release()
    }

    /// Puts every held datagram whose release time has come on the wire,
    /// counting it as sent at that moment.
    pub(crate) fn release_due(&mut self, now: SimTime) {
        while let Some((addr, bytes)) = self.shim.pop_due(now) {
            self.transmit(addr, &bytes);
        }
    }

    /// Encodes `frame` from `from` to `to` and sends it, or parks it in
    /// the shim while an egress delay is armed.
    pub(crate) fn send(&mut self, from: ProcessId, to: ProcessId, frame: &dyn Payload) {
        let Some(addr) = self.peers.get(&to).copied() else {
            self.log
                .line(&format!("drop: no peer address for {to:?} (from {from:?})"));
            return;
        };
        let Some(bytes) = codec::encode_frame(to, from, frame) else {
            self.log.line(&format!(
                "drop: payload with no wire format for {to:?}: {frame:?}"
            ));
            return;
        };
        if let Some(delay) = self.shim.delay {
            let due = self.clock.now() + delay;
            self.shim.held.push_back((due, addr, bytes));
            return;
        }
        self.transmit(addr, &bytes);
    }

    fn transmit(&self, addr: SocketAddr, bytes: &[u8]) {
        match self.socket.send_to(bytes, addr) {
            Ok(n) => self.count_sent(n),
            Err(first) => {
                // UDP sends fail transiently (e.g. ENOBUFS). One immediate
                // retry, counted as a reconnect attempt; a second failure
                // is a drop the protocol's retransmission path absorbs.
                self.obs.metrics.incr(Ctr::NodeReconnects);
                match self.socket.send_to(bytes, addr) {
                    Ok(n) => self.count_sent(n),
                    Err(second) => {
                        self.log.line(&format!(
                            "drop: send to {addr} failed twice: {first}; {second}"
                        ));
                    }
                }
            }
        }
    }

    fn count_sent(&self, bytes: usize) {
        self.obs.metrics.incr(Ctr::NodeFramesSent);
        self.obs.metrics.add(Ctr::NodeBytesSent, bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_in_deadline_order_with_stable_ties() {
        let mut wheel = TimerWheel::new();
        wheel.set(SimTime::from_micros(30), TimerToken(3));
        wheel.set(SimTime::from_micros(10), TimerToken(1));
        wheel.set(SimTime::from_micros(10), TimerToken(2));
        let now = SimTime::from_micros(50);
        assert_eq!(wheel.pop_due(now), Some(TimerToken(1)));
        assert_eq!(wheel.pop_due(now), Some(TimerToken(2)));
        assert_eq!(wheel.pop_due(now), Some(TimerToken(3)));
        assert_eq!(wheel.pop_due(now), None);
    }

    #[test]
    fn wheel_does_not_fire_future_timers() {
        let mut wheel = TimerWheel::new();
        wheel.set(SimTime::from_micros(100), TimerToken(1));
        assert_eq!(wheel.pop_due(SimTime::from_micros(99)), None);
        assert_eq!(wheel.next_deadline(), Some(SimTime::from_micros(100)));
    }

    #[test]
    fn next_due_skips_canceled_firings_without_popping_live_ones() {
        let mut wheel = TimerWheel::new();
        wheel.set(SimTime::from_micros(10), TimerToken(1));
        wheel.set(SimTime::from_micros(20), TimerToken(2));
        wheel.cancel(TimerToken(1));
        let now = SimTime::from_micros(50);
        assert_eq!(wheel.next_due(now), Some(SimTime::from_micros(20)));
        assert_eq!(wheel.next_due(now), Some(SimTime::from_micros(20)));
        assert_eq!(wheel.pop_due(now), Some(TimerToken(2)));
        assert_eq!(wheel.next_due(now), None);
    }

    #[test]
    fn cancel_suppresses_exactly_one_firing() {
        // Mirrors the simulator: one cancel, then the same token set
        // twice — the first firing is suppressed, the second survives.
        let mut wheel = TimerWheel::new();
        wheel.set(SimTime::from_micros(10), TimerToken(7));
        wheel.cancel(TimerToken(7));
        wheel.set(SimTime::from_micros(20), TimerToken(7));
        let now = SimTime::from_micros(50);
        assert_eq!(wheel.pop_due(now), Some(TimerToken(7)));
        assert_eq!(wheel.pop_due(now), None);
    }

    #[test]
    fn delay_shim_holds_then_releases_in_order() {
        let recv = UdpSocket::bind("127.0.0.1:0").expect("bind recv");
        recv.set_nonblocking(true).expect("nonblocking");
        let addr = recv.local_addr().expect("addr");
        let clock = NodeClock::new();
        let mut wire = Wire::new(
            UdpSocket::bind("127.0.0.1:0").expect("bind send"),
            BTreeMap::new(),
            clock.clone(),
            vd_obs::Obs::disabled(),
            NodeLog::sink(clock),
        );
        wire.set_egress_delay(Duration::from_millis(30));
        let armed = wire.now();
        let due = armed + SimDuration::from_millis(30);
        for bytes in [&b"one"[..], b"two"] {
            wire.shim
                .held
                .push_back((due, addr, Bytes::copy_from_slice(bytes)));
        }
        assert_eq!(wire.next_release(), Some(due));
        wire.release_due(armed);
        let mut buf = [0u8; 16];
        assert!(recv.recv(&mut buf).is_err(), "released before the delay");
        wire.set_egress_delay(Duration::ZERO);
        assert!(wire.shim.delay.is_none(), "zero disarms");
        assert_eq!(wire.next_release(), Some(due), "disarming keeps the queue");
        wire.release_due(due);
        assert_eq!(wire.next_release(), None);
        recv.set_nonblocking(false).expect("blocking");
        recv.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let n = recv.recv(&mut buf).expect("first datagram");
        assert_eq!(&buf[..n], b"one", "held datagrams must release in order");
        let n = recv.recv(&mut buf).expect("second datagram");
        assert_eq!(&buf[..n], b"two");
    }
}
