//! The endpoint's input/output surface.
//!
//! [`crate::endpoint::Endpoint`] is written *sans-IO*: handlers take the
//! current time plus an input and return a list of [`Output`]s — messages to
//! send, timers to arm, events to hand the hosting application. The host
//! (a simulator adapter, a test harness, or the replicator) performs the
//! IO. This makes every protocol path directly unit- and property-testable.

use bytes::Bytes;
use vd_simnet::time::SimDuration;
use vd_simnet::topology::ProcessId;

use crate::message::{GroupId, GroupMsg};
use crate::order::DeliveryOrder;
use crate::view::{View, ViewId};

/// A message delivered to the application with its delivery metadata.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The group it was multicast in.
    pub group: GroupId,
    /// The multicasting member.
    pub sender: ProcessId,
    /// The guarantee it was sent with.
    pub order: DeliveryOrder,
    /// Per-sender sequence number (absent for best-effort).
    pub seq: Option<u64>,
    /// Position in the agreed total order (agreed messages only).
    pub global_seq: Option<u64>,
    /// The view the message was sent in.
    pub view_id: ViewId,
    /// The application bytes.
    pub payload: Bytes,
}

/// Events surfaced to the hosting application.
#[derive(Debug, Clone)]
pub enum GroupEvent {
    /// An application message was delivered (in its guaranteed order).
    Delivered(Delivery),
    /// A new view was installed. Fault notifications arrive this way, in a
    /// consistent total order with respect to message deliveries — the
    /// property the replication-style switch protocol relies on.
    ViewInstalled {
        /// The agreed membership now in force.
        view: View,
        /// Members present now but not in the previous view.
        joined: Vec<ProcessId>,
        /// Members of the previous view that are gone (crashed or left).
        departed: Vec<ProcessId>,
    },
    /// A flush began: sends are buffered until the next view installs.
    Blocked,
    /// A view excluding this endpoint was installed (it left, or was
    /// falsely suspected); the endpoint is now inert.
    SelfEvicted,
}

/// Timers an endpoint can request. Heartbeats and failure checks are not
/// among them: liveness belongs to the process-level detector in
/// [`crate::multi::MultiEndpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupTimer {
    /// Periodic re-NACK of outstanding gaps.
    NackRetry,
    /// One-shot flush-round timeout for the given proposal.
    FlushTimeout(ViewId),
    /// Periodic join-request retry while not yet a member.
    JoinRetry,
    /// One-shot deadline for flushing a partially-filled send batch.
    BatchFlush,
}

/// An effect the host must perform on the endpoint's behalf.
#[derive(Debug)]
pub enum Output {
    /// Send `msg` to the peer endpoint hosted by `to`.
    Send {
        /// Destination member.
        to: ProcessId,
        /// The protocol message.
        msg: GroupMsg,
    },
    /// Surface an event to the application.
    Event(GroupEvent),
    /// Arm a timer: call `handle_timer(timer)` after `delay`.
    SetTimer {
        /// How long from now.
        delay: SimDuration,
        /// Which timer to report back.
        timer: GroupTimer,
    },
}

impl Output {
    /// Convenience: the event inside, if this is an `Event` output.
    pub fn as_event(&self) -> Option<&GroupEvent> {
        match self {
            Output::Event(e) => Some(e),
            Output::Send { .. } | Output::SetTimer { .. } => None,
        }
    }

    /// Convenience: the delivery inside, if this is a delivered event.
    pub fn as_delivery(&self) -> Option<&Delivery> {
        match self.as_event()? {
            GroupEvent::Delivered(d) => Some(d),
            GroupEvent::ViewInstalled { .. } | GroupEvent::Blocked | GroupEvent::SelfEvicted => {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_accessors() {
        let d = Delivery {
            group: GroupId(0),
            sender: ProcessId(1),
            order: DeliveryOrder::Fifo,
            seq: Some(1),
            global_seq: None,
            view_id: ViewId(0),
            payload: Bytes::from_static(b"x"),
        };
        let out = Output::Event(GroupEvent::Delivered(d));
        assert!(out.as_event().is_some());
        assert_eq!(out.as_delivery().unwrap().payload.as_ref(), b"x");
        let timer = Output::SetTimer {
            delay: SimDuration::from_millis(1),
            timer: GroupTimer::NackRetry,
        };
        assert!(timer.as_event().is_none());
        assert!(timer.as_delivery().is_none());
    }
}
