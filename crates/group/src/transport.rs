//! The transport seam: how an endpoint's effects reach a network.
//!
//! [`crate::multi::MultiEndpoint`] (and each group's
//! [`crate::endpoint::Endpoint`] underneath it) is sans-IO: protocol
//! handlers return [`MultiOutput`] effect lists and never touch a socket
//! or a clock. The [`Transport`] trait is the contract a *host*
//! fulfills to perform those effects — sending frames to a peer process,
//! arming timers, and reporting the local clock and identity.
//!
//! Two implementations exist:
//!
//! - [`SimTransport`] (here) performs effects through a `vd-simnet`
//!   [`Context`], keeping the deterministic simulator the model-checked
//!   twin of the protocol stack. Its behavior is byte-identical to the
//!   pre-seam direct `Context` calls.
//! - `UdpTransport` (in the `vd-node` crate) encodes frames onto a real
//!   UDP socket and arms deadline timers on the hosting thread — the
//!   paper's deployed configuration, where the same replication and
//!   membership code runs on an actual LAN (§6 measures it on seven
//!   machines).
//!
//! Splitting the seam at "perform one effect" rather than "own the event
//! loop" is what lets the two backends share every line of protocol code:
//! the simulator's scheduler and the node's mailbox threads differ, but
//! both reduce to the five operations below.

use vd_simnet::actor::{Context, Payload, TimerToken};
use vd_simnet::time::{SimDuration, SimTime};
use vd_simnet::topology::ProcessId;

use crate::api::GroupEvent;
use crate::message::GroupId;
use crate::multi::MultiOutput;
use crate::sim::multi_timer_token;

/// What a host provides to run a group endpoint against a network: frame
/// transmission, timers, a clock and the local peer identity.
///
/// Implementations perform effects *immediately or never* — there is no
/// buffering contract. A transport may drop a frame (real networks do;
/// the protocol layer's retransmission machinery is built for it) but
/// must never reorder the effects of a single handler invocation, and
/// timers must fire no earlier than requested.
pub trait Transport {
    /// The current time on this host's clock. Inside the simulator this
    /// is virtual time; on a real node it is elapsed real time since the
    /// node started. `SimTime` values never cross the wire, so the two
    /// epochs never mix.
    fn now(&self) -> SimTime;

    /// The process id frames from this host are stamped with.
    fn local(&self) -> ProcessId;

    /// Transmits one protocol frame to `to`. The simulator routes the
    /// typed payload through its network model; a real transport encodes
    /// it and hands the bytes to the socket.
    fn send_frame(&mut self, to: ProcessId, frame: Box<dyn Payload>);

    /// Arms a timer that fires `delay` from [`Transport::now`] carrying
    /// `token`.
    fn set_timer(&mut self, delay: SimDuration, token: TimerToken);

    /// Cancels one outstanding timer with `token` (count-based, matching
    /// the simulator: cancelling with none outstanding suppresses the
    /// next one armed with that token).
    fn cancel_timer(&mut self, token: TimerToken);
}

/// The deterministic backend: performs effects through a simulator
/// [`Context`], exactly as hosts did before the seam existed.
#[allow(missing_debug_implementations)] // wraps a &mut Context, which has none
pub struct SimTransport<'a, 'b> {
    ctx: &'a mut Context<'b>,
}

impl<'a, 'b> SimTransport<'a, 'b> {
    /// Wraps a handler's context as a transport.
    pub fn new(ctx: &'a mut Context<'b>) -> Self {
        SimTransport { ctx }
    }

    /// The wrapped context, for hosts whose event callbacks need direct
    /// simulator access (spawning, metrics, CPU charging).
    pub fn ctx(&mut self) -> &mut Context<'b> {
        self.ctx
    }
}

impl Transport for SimTransport<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn local(&self) -> ProcessId {
        self.ctx.self_id()
    }

    fn send_frame(&mut self, to: ProcessId, frame: Box<dyn Payload>) {
        self.ctx.send_boxed(to, frame);
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.ctx.set_timer(delay, token);
    }

    fn cancel_timer(&mut self, token: TimerToken) {
        self.ctx.cancel_timer(token);
    }
}

/// Performs multiplexed-endpoint outputs through a transport, invoking
/// `on_event` for every surfaced `(group, event)` pair. This is the
/// backend-independent core of [`crate::sim::apply_multi_outputs`]; real
/// hosts call it with their own [`Transport`].
pub fn perform_multi_outputs<T, F>(transport: &mut T, outputs: Vec<MultiOutput>, mut on_event: F)
where
    T: Transport,
    F: FnMut(&mut T, GroupId, GroupEvent),
{
    for output in outputs {
        match output {
            MultiOutput::Send { to, msg } => transport.send_frame(to, Box::new(msg)),
            MultiOutput::Heartbeat { to, msg } => transport.send_frame(to, Box::new(msg)),
            MultiOutput::SetTimer { delay, timer } => {
                transport.set_timer(delay, multi_timer_token(timer));
            }
            MultiOutput::Event { group, event } => on_event(transport, group, event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::GroupMsg;
    use crate::multi::MultiTimer;

    /// A transport that records what was asked of it.
    struct RecordingTransport {
        sent: Vec<(ProcessId, usize)>,
        timers: Vec<(SimDuration, TimerToken)>,
        cancels: Vec<TimerToken>,
    }

    impl Transport for RecordingTransport {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn local(&self) -> ProcessId {
            ProcessId(1)
        }
        fn send_frame(&mut self, to: ProcessId, frame: Box<dyn Payload>) {
            self.sent.push((to, frame.wire_size()));
        }
        fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
            self.timers.push((delay, token));
        }
        fn cancel_timer(&mut self, token: TimerToken) {
            self.cancels.push(token);
        }
    }

    #[test]
    fn multi_outputs_map_to_transport_calls() {
        let mut t = RecordingTransport {
            sent: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
        };
        let msg = GroupMsg::FlushDone {
            group: GroupId(0),
            proposal_id: crate::view::ViewId(0),
        };
        let outputs = vec![
            MultiOutput::Send {
                to: ProcessId(2),
                msg,
            },
            MultiOutput::SetTimer {
                delay: SimDuration::from_millis(5),
                timer: MultiTimer::Heartbeat,
            },
            MultiOutput::Event {
                group: GroupId(0),
                event: GroupEvent::Blocked,
            },
        ];
        let mut events = Vec::new();
        perform_multi_outputs(&mut t, outputs, |_t, g, e| events.push((g, e)));
        assert_eq!(t.sent.len(), 1);
        assert_eq!(t.sent[0].0, ProcessId(2));
        assert_eq!(
            t.timers,
            vec![(
                SimDuration::from_millis(5),
                multi_timer_token(MultiTimer::Heartbeat)
            )]
        );
        assert!(matches!(
            events.as_slice(),
            [(GroupId(0), GroupEvent::Blocked)]
        ));
    }
}
