//! Actor adapter: hosts a [`MultiEndpoint`] on a `vd-simnet` [`Context`].
//!
//! [`apply_multi_outputs`] performs the multiplexer's [`MultiOutput`]s —
//! sending [`GroupMsg`]s and process heartbeats, arming timers — and
//! hands surfaced [`GroupEvent`]s to the caller. Every actor embedding a
//! [`MultiEndpoint`] goes through it: the replicator, and
//! [`MultiGroupMemberActor`], the one simulator fixture for group-level
//! tests and benchmarks, with one hosted group or many.

use bytes::Bytes;

use vd_simnet::actor::{downcast_payload, Actor, Context, Payload, TimerToken};
use vd_simnet::time::SimDuration;
use vd_simnet::topology::ProcessId;

use crate::api::{Delivery, GroupEvent, GroupTimer};
use crate::message::{GroupId, GroupMsg};
use crate::multi::{MultiEndpoint, MultiOutput, MultiTimer, ProcessHeartbeat};
use crate::order::DeliveryOrder;
use crate::view::{View, ViewId};

/// Encodes a [`GroupTimer`] as the low half of a simulator timer token.
/// Tokens 1 and 2 belonged to the retired per-group heartbeat and failure
/// check and are not reused.
fn timer_token(timer: GroupTimer) -> TimerToken {
    match timer {
        GroupTimer::NackRetry => TimerToken(3),
        GroupTimer::JoinRetry => TimerToken(4),
        GroupTimer::BatchFlush => TimerToken(5),
        GroupTimer::FlushTimeout(ViewId(id)) => TimerToken(1_000 + id),
    }
}

/// Decodes a simulator timer token back into a [`GroupTimer`].
///
/// Returns `None` for tokens not produced by [`timer_token`].
fn timer_from_token(token: TimerToken) -> Option<GroupTimer> {
    match token.0 {
        3 => Some(GroupTimer::NackRetry),
        4 => Some(GroupTimer::JoinRetry),
        5 => Some(GroupTimer::BatchFlush),
        id if id >= 1_000 => Some(GroupTimer::FlushTimeout(ViewId(id - 1_000))),
        _ => None,
    }
}

/// Process-level heartbeat-round token ([`MultiTimer::Heartbeat`]).
const MULTI_HEARTBEAT_TOKEN: u64 = 11;
/// Process-level failure-check token ([`MultiTimer::FailureCheck`]).
const MULTI_FAILURE_CHECK_TOKEN: u64 = 12;

/// Encodes a [`MultiTimer`] as a simulator timer token: process-level
/// timers use small reserved values, per-group timers stamp the group id
/// into the high 32 bits over the single-group encoding. Hosts embedding a
/// [`MultiEndpoint`] can thus multiplex any number of groups' timers (plus
/// their own low-valued tokens) on one actor.
pub fn multi_timer_token(timer: MultiTimer) -> TimerToken {
    match timer {
        MultiTimer::Heartbeat => TimerToken(MULTI_HEARTBEAT_TOKEN),
        MultiTimer::FailureCheck => TimerToken(MULTI_FAILURE_CHECK_TOKEN),
        MultiTimer::Group(group, t) => group_scoped_token(group, timer_token(t).0),
    }
}

/// Stamps `group` into the high 32 bits of a low-valued token, leaving
/// tokens with empty high bits for group-agnostic use. Shared with higher
/// layers (the replicator) that need their own per-group timers alongside
/// the group protocol's.
pub fn group_scoped_token(group: GroupId, token: u64) -> TimerToken {
    debug_assert!(token <= u64::from(u32::MAX), "token overflows group stamp");
    TimerToken(((u64::from(group.0) + 1) << 32) | (token & 0xFFFF_FFFF))
}

/// Splits a token produced by [`group_scoped_token`] back into the group
/// and the low-valued token. Returns `None` for unstamped tokens.
pub fn group_scoped_from_token(token: TimerToken) -> Option<(GroupId, u64)> {
    let hi = token.0 >> 32;
    if hi == 0 {
        return None;
    }
    Some((GroupId((hi - 1) as u32), token.0 & 0xFFFF_FFFF))
}

/// Decodes a simulator timer token back into a [`MultiTimer`].
///
/// Returns `None` for tokens not produced by [`multi_timer_token`] (e.g. a
/// host's own group-scoped tokens whose low part is no group timer).
pub fn multi_timer_from_token(token: TimerToken) -> Option<MultiTimer> {
    match token.0 {
        MULTI_HEARTBEAT_TOKEN => Some(MultiTimer::Heartbeat),
        MULTI_FAILURE_CHECK_TOKEN => Some(MultiTimer::FailureCheck),
        _ => {
            let (group, low) = group_scoped_from_token(token)?;
            timer_from_token(TimerToken(low)).map(|t| MultiTimer::Group(group, t))
        }
    }
}

/// Performs multiplexed-endpoint outputs on an actor context, invoking
/// `on_event` for every surfaced `(group, event)` pair. Every actor that
/// embeds a [`MultiEndpoint`] calls it.
///
/// Sends and timers become the context's [`Action`](vd_simnet::actor::Action)s,
/// in output order. The simulator's `World` performs those actions, and
/// so does the real node's event loop, which drives the same actor through
/// [`Context::external`]: this one match is the whole effect vocabulary
/// the two backends share.
pub fn apply_multi_outputs<F>(ctx: &mut Context<'_>, outputs: Vec<MultiOutput>, mut on_event: F)
where
    F: FnMut(&mut Context<'_>, GroupId, GroupEvent),
{
    for output in outputs {
        match output {
            MultiOutput::Send { to, msg } => ctx.send(to, msg),
            MultiOutput::Heartbeat { to, msg } => ctx.send(to, msg),
            MultiOutput::SetTimer { delay, timer } => {
                ctx.set_timer(delay, multi_timer_token(timer));
            }
            MultiOutput::Event { group, event } => on_event(ctx, group, event),
        }
    }
}

/// Harness commands injected into a [`MultiGroupMemberActor`].
#[derive(Debug)]
pub enum MultiCommand {
    /// Multicast `payload` in `group` with the given guarantee.
    Multicast {
        /// Target group.
        group: GroupId,
        /// Delivery guarantee.
        order: DeliveryOrder,
        /// Application bytes.
        payload: Bytes,
    },
    /// Announce a graceful departure from `group`.
    Leave {
        /// The group to leave.
        group: GroupId,
    },
}

impl Payload for MultiCommand {
    fn wire_size(&self) -> usize {
        match self {
            MultiCommand::Multicast { payload, .. } => payload.len(),
            MultiCommand::Leave { .. } => 8,
        }
    }

    fn digest(&self) -> Option<u64> {
        let mut h = vd_simnet::explore::Fnv64::new();
        h.write_bytes(format!("{self:?}").as_bytes());
        Some(h.finish())
    }
}

/// A simulator actor hosting a [`MultiEndpoint`] (one group, or any number
/// of co-located groups behind one process-level failure detector),
/// recording everything delivered per group — the fixture for group-level
/// tests and benchmarks.
pub struct MultiGroupMemberActor {
    multi: MultiEndpoint,
    /// Messages delivered to this process, in delivery order (each carries
    /// its group tag).
    pub deliveries: Vec<Delivery>,
    /// All surfaced `(group, event)` pairs, in order.
    pub events: Vec<(GroupId, GroupEvent)>,
}

impl MultiGroupMemberActor {
    /// Wraps a multiplexed endpoint.
    pub fn new(multi: MultiEndpoint) -> Self {
        MultiGroupMemberActor {
            multi,
            deliveries: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The wrapped multiplexer.
    pub fn multi(&self) -> &MultiEndpoint {
        &self.multi
    }

    /// Payloads delivered in `group` so far, as raw byte vectors.
    pub fn delivered_payloads(&self, group: GroupId) -> Vec<Vec<u8>> {
        self.deliveries
            .iter()
            .filter(|d| d.group == group)
            .map(|d| d.payload.to_vec())
            .collect()
    }

    /// The views installed in `group` so far, oldest first.
    pub fn installed_views(&self, group: GroupId) -> Vec<View> {
        self.events
            .iter()
            .filter(|(g, _)| *g == group)
            .filter_map(|(_, e)| match e {
                GroupEvent::ViewInstalled { view, .. } => Some(view.clone()),
                GroupEvent::Delivered(_) | GroupEvent::Blocked | GroupEvent::SelfEvicted => None,
            })
            .collect()
    }

    fn absorb(&mut self, ctx: &mut Context<'_>, outputs: Vec<MultiOutput>) {
        apply_multi_outputs(ctx, outputs, |_ctx, group, event| {
            if let GroupEvent::Delivered(d) = &event {
                self.deliveries.push(d.clone());
            }
            self.events.push((group, event));
        });
    }
}

impl Actor for MultiGroupMemberActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let outputs = self.multi.start(ctx.now());
        self.absorb(ctx, outputs);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, payload: Box<dyn Payload>) {
        ctx.use_cpu(SimDuration::from_micros(2));
        match downcast_payload::<GroupMsg>(payload) {
            Ok(msg) => {
                let outputs = self.multi.handle_message(ctx.now(), from, *msg);
                self.absorb(ctx, outputs);
            }
            Err(other) => match downcast_payload::<ProcessHeartbeat>(other) {
                Ok(hb) => self.multi.handle_heartbeat(ctx.now(), from, &hb),
                Err(other) => {
                    if let Ok(cmd) = downcast_payload::<MultiCommand>(other) {
                        let outputs = match *cmd {
                            MultiCommand::Multicast {
                                group,
                                order,
                                payload,
                            } => self
                                .multi
                                .multicast(ctx.now(), group, order, payload)
                                .unwrap_or_default(),
                            MultiCommand::Leave { group } => self.multi.leave(ctx.now(), group),
                        };
                        self.absorb(ctx, outputs);
                    }
                }
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if let Some(t) = multi_timer_from_token(timer) {
            let outputs = self.multi.handle_timer(ctx.now(), t);
            self.absorb(ctx, outputs);
        }
    }

    fn state_digest(&self) -> Option<u64> {
        let mut h = vd_simnet::explore::Fnv64::new();
        h.write_u64(self.multi.state_digest());
        for d in &self.deliveries {
            h.write_bytes(format!("{d:?}").as_bytes());
        }
        for (g, e) in &self.events {
            h.write_u64(u64::from(g.0));
            h.write_bytes(format!("{e:?}").as_bytes());
        }
        Some(h.finish())
    }
}

impl std::fmt::Debug for MultiGroupMemberActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiGroupMemberActor")
            .field("me", &self.multi.me())
            .field("groups", &self.multi.group_ids())
            .field("deliveries", &self.deliveries.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vd_simnet::actor::Action;
    use vd_simnet::rng::DeterministicRng;
    use vd_simnet::time::SimTime;
    use vd_simnet::topology::NodeId;

    #[test]
    fn multi_outputs_become_context_actions_in_order() {
        let mut rng = DeterministicRng::new(1);
        let mut next_pid = 100;
        let mut ctx = Context::external(
            SimTime::ZERO,
            ProcessId(1),
            NodeId(0),
            &mut rng,
            &mut next_pid,
        );
        let flush_done = |group| GroupMsg::FlushDone {
            group,
            proposal_id: ViewId(0),
        };
        let outputs = vec![
            MultiOutput::Send {
                to: ProcessId(2),
                msg: flush_done(GroupId(0)),
            },
            MultiOutput::Heartbeat {
                to: ProcessId(3),
                msg: ProcessHeartbeat {
                    sections: Vec::new(),
                },
            },
            MultiOutput::SetTimer {
                delay: SimDuration::from_millis(5),
                timer: MultiTimer::Heartbeat,
            },
            MultiOutput::Event {
                group: GroupId(0),
                event: GroupEvent::Blocked,
            },
            MultiOutput::Send {
                to: ProcessId(4),
                msg: flush_done(GroupId(7)),
            },
        ];
        let mut events = Vec::new();
        apply_multi_outputs(&mut ctx, outputs, |ctx, group, event| {
            // The callback acts on the same context, between the outputs
            // around its event.
            ctx.cancel_timer(TimerToken(99));
            events.push((group, event));
        });
        assert!(matches!(
            events.as_slice(),
            [(GroupId(0), GroupEvent::Blocked)]
        ));
        let actions = ctx.drain_actions();
        assert_eq!(actions.len(), 5, "{actions:?}");
        let mut actions = actions.into_iter();
        let first = sent_to(actions.next(), 2);
        assert_eq!(
            downcast_payload::<GroupMsg>(first).unwrap().group(),
            GroupId(0)
        );
        assert!(downcast_payload::<ProcessHeartbeat>(sent_to(actions.next(), 3)).is_ok());
        assert!(matches!(
            actions.next(),
            Some(Action::SetTimer { delay, token })
                if delay == SimDuration::from_millis(5)
                    && token == multi_timer_token(MultiTimer::Heartbeat)
        ));
        assert!(matches!(
            actions.next(),
            Some(Action::CancelTimer {
                token: TimerToken(99)
            })
        ));
        let last = sent_to(actions.next(), 4);
        assert_eq!(
            downcast_payload::<GroupMsg>(last).unwrap().group(),
            GroupId(7)
        );
    }

    /// The payload of `action`, which must be a send to `dst`.
    fn sent_to(action: Option<Action>, dst: u64) -> Box<dyn Payload> {
        match action {
            Some(Action::Send { dst: to, payload }) if to == ProcessId(dst) => payload,
            other => panic!("expected a send to {dst}, got {other:?}"),
        }
    }

    #[test]
    fn timer_tokens_round_trip() {
        for t in [
            GroupTimer::NackRetry,
            GroupTimer::JoinRetry,
            GroupTimer::BatchFlush,
            GroupTimer::FlushTimeout(ViewId(0)),
            GroupTimer::FlushTimeout(ViewId(42)),
        ] {
            assert_eq!(timer_from_token(timer_token(t)), Some(t));
        }
        assert_eq!(timer_from_token(TimerToken(999)), None);
        // The retired heartbeat and failure-check tokens decode as nothing.
        assert_eq!(timer_from_token(TimerToken(1)), None);
        assert_eq!(timer_from_token(TimerToken(2)), None);
        // The surviving tokens keep their values.
        assert_eq!(timer_token(GroupTimer::NackRetry), TimerToken(3));
        assert_eq!(timer_token(GroupTimer::JoinRetry), TimerToken(4));
        assert_eq!(timer_token(GroupTimer::BatchFlush), TimerToken(5));
        assert_eq!(
            timer_token(GroupTimer::FlushTimeout(ViewId(7))),
            TimerToken(1_007)
        );
    }

    #[test]
    fn multi_timer_tokens_round_trip() {
        for t in [
            MultiTimer::Heartbeat,
            MultiTimer::FailureCheck,
            MultiTimer::Group(GroupId(0), GroupTimer::JoinRetry),
            MultiTimer::Group(GroupId(3), GroupTimer::NackRetry),
            MultiTimer::Group(GroupId(3), GroupTimer::BatchFlush),
            MultiTimer::Group(GroupId(7), GroupTimer::FlushTimeout(ViewId(42))),
            MultiTimer::Group(GroupId(u32::MAX - 1), GroupTimer::NackRetry),
        ] {
            assert_eq!(multi_timer_from_token(multi_timer_token(t)), Some(t));
        }
        // Process-level tokens never collide with group-scoped ones.
        assert!(group_scoped_from_token(TimerToken(MULTI_HEARTBEAT_TOKEN)).is_none());
        assert!(group_scoped_from_token(TimerToken(MULTI_FAILURE_CHECK_TOKEN)).is_none());
        // Unstamped group-timer tokens don't decode as multi timers either.
        assert_eq!(
            multi_timer_from_token(timer_token(GroupTimer::NackRetry)),
            None
        );
    }

    #[test]
    fn group_scoped_tokens_round_trip() {
        for (group, low) in [
            (GroupId(0), 1u64),
            (GroupId(1), 200),
            (GroupId(9), 1042),
            (GroupId(u32::MAX - 1), u64::from(u32::MAX)),
        ] {
            let token = group_scoped_token(group, low);
            assert_eq!(group_scoped_from_token(token), Some((group, low)));
        }
        // Plain (unscoped) tokens have a zero high half and never decode.
        assert!(group_scoped_from_token(TimerToken(5)).is_none());
    }
}
