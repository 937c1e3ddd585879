//! A blocking ORB client for real clusters.
//!
//! This is the client side of the paper's transparency story on the real
//! transport: it speaks plain GIOP-lite ([`OrbMessage`]) to whichever
//! replica it currently uses as gateway, exactly as an unmodified CORBA
//! client would, and the replicated stack behind the gateway is
//! invisible to it. Retry behavior mirrors the simulator's
//! `ReplicatedClientActor`: on timeout, rotate to the next gateway and
//! resend *the same request id*, relying on the replicator's invocation
//! cache to suppress duplicate executions — that pair of rules is what
//! the loopback test's "zero lost, zero duplicated" assertion exercises.
//!
//! The client is deliberately synchronous (it blocks on its own socket):
//! it models the external client process at the edge of the system, not
//! a supervised actor inside it.
#![expect(
    clippy::disallowed_types,
    reason = "an external ORB client that hosts no actors: it blocks on its own UDP socket \
              until a wall-clock deadline"
)]

use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use bytes::Bytes;
use vd_orb::client::{ReplyOutcome, RequestTracker};
use vd_orb::object::ObjectKey;
use vd_orb::wire::{OrbMessage, Reply};
use vd_simnet::actor::payload_ref;
use vd_simnet::topology::ProcessId;

use crate::clock::NodeClock;
use crate::codec;

/// Why an invocation ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// The retry budget ran out with no accepted reply.
    RetriesExhausted {
        /// The request that never completed.
        request_id: u64,
        /// Attempts made (first send + retries).
        attempts: u32,
    },
    /// A socket operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::RetriesExhausted {
                request_id,
                attempts,
            } => write!(
                f,
                "request {request_id} got no reply after {attempts} attempts"
            ),
            ClientError::Io(e) => write!(f, "client io error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Counters the loopback test asserts on.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientStats {
    /// Requests completed with an accepted reply.
    pub accepted: u64,
    /// Duplicate replies discarded by the tracker (retries that raced a
    /// late reply — expected under failover, harmless by design).
    pub duplicate_replies: u64,
    /// Resends after a timeout (failover probes included).
    pub retries: u64,
    /// Gateway rotations performed.
    pub failovers: u64,
}

/// A synchronous ORB client bound to its own UDP socket.
pub struct LoopbackClient {
    pid: ProcessId,
    socket: UdpSocket,
    peers: BTreeMap<ProcessId, SocketAddr>,
    gateways: Vec<ProcessId>,
    gateway_index: usize,
    tracker: RequestTracker,
    clock: NodeClock,
    /// Counters for test assertions.
    pub stats: ClientStats,
}

impl LoopbackClient {
    /// A client sending as `pid` through `socket`, trying `gateways` in
    /// rotation. `peers` must give an address for every gateway.
    pub fn new(
        pid: ProcessId,
        socket: UdpSocket,
        peers: BTreeMap<ProcessId, SocketAddr>,
        gateways: Vec<ProcessId>,
    ) -> Self {
        assert!(!gateways.is_empty(), "need at least one gateway");
        LoopbackClient {
            pid,
            socket,
            peers,
            gateways,
            gateway_index: 0,
            tracker: RequestTracker::new(),
            clock: NodeClock::new(),
            stats: ClientStats::default(),
        }
    }

    /// The gateway the next request will be sent to.
    pub fn current_gateway(&self) -> ProcessId {
        self.gateways[self.gateway_index]
    }

    fn send_request(&mut self, request: &OrbMessage) -> Result<(), ClientError> {
        let gateway = self.current_gateway();
        let Some(&addr) = self.peers.get(&gateway) else {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no address for gateway {}", gateway.0),
            )));
        };
        let Some(bytes) = codec::encode_frame(gateway, self.pid, request) else {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "request frame not encodable",
            )));
        };
        self.socket.send_to(&bytes, addr).map_err(ClientError::Io)?;
        Ok(())
    }

    /// Invokes `operation` on `object`, blocking until an accepted reply
    /// or until `attempts_per_gateway × gateways × timeout` is spent.
    ///
    /// Timeouts rotate the gateway and resend under the same request id;
    /// replies to earlier sends are deduplicated by the tracker.
    pub fn invoke(
        &mut self,
        object: &str,
        operation: &str,
        args: Bytes,
        reply_timeout: Duration,
        attempts_per_gateway: u32,
    ) -> Result<Reply, ClientError> {
        let attempts_budget = attempts_per_gateway
            .saturating_mul(self.gateways.len() as u32)
            .max(1);
        let request =
            self.tracker
                .make_request(self.clock.now(), ObjectKey::new(object), operation, args);
        let request_id = request.request_id;
        let frame = OrbMessage::Request(request);
        self.send_request(&frame)?;
        let mut attempts: u32 = 1;
        loop {
            match self.await_reply(request_id, reply_timeout)? {
                Some(reply) => {
                    self.stats.accepted += 1;
                    return Ok(reply);
                }
                None => {
                    if attempts >= attempts_budget {
                        return Err(ClientError::RetriesExhausted {
                            request_id,
                            attempts,
                        });
                    }
                    // Same request id through the next gateway: the
                    // replicator's invocation cache makes this safe.
                    self.gateway_index = (self.gateway_index + 1) % self.gateways.len();
                    self.stats.failovers += 1;
                    self.stats.retries += 1;
                    attempts += 1;
                    self.send_request(&frame)?;
                }
            }
        }
    }

    /// Waits up to `timeout` for a reply accepting `request_id`.
    /// `Ok(None)` means the window elapsed (caller decides to retry).
    fn await_reply(
        &mut self,
        request_id: u64,
        timeout: Duration,
    ) -> Result<Option<Reply>, ClientError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut buf = vec![0u8; crate::transport::MAX_DATAGRAM];
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            self.socket
                .set_read_timeout(Some(remaining))
                .map_err(ClientError::Io)?;
            let len = match self.socket.recv_from(&mut buf) {
                Ok((len, _)) => len,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(ClientError::Io(e)),
            };
            let Ok(frame) = codec::decode_frame(Bytes::copy_from_slice(&buf[..len])) else {
                continue;
            };
            let Some(msg) = payload_ref::<OrbMessage>(frame.payload.as_ref()) else {
                continue;
            };
            let OrbMessage::Reply(reply) = msg else {
                continue;
            };
            match self.tracker.on_reply(reply.clone()) {
                ReplyOutcome::Accepted(reply) => {
                    if reply.request_id == request_id {
                        return Ok(Some(reply));
                    }
                    // An accepted reply for an older request (it already
                    // failed its budget); nothing waits for it anymore.
                }
                ReplyOutcome::Duplicate => self.stats.duplicate_replies += 1,
                ReplyOutcome::Pending | ReplyOutcome::Unmatched => {}
            }
        }
    }
}
