//! The group-communication endpoint: one per member per group.
//!
//! An [`Endpoint`] implements, sans-IO, the whole Spread-like protocol the
//! paper's replicator consumes: reliable multicast with four delivery
//! guarantees, stability-based garbage collection, and view-synchronous
//! membership (see [`crate::flush`]).
//!
//! Hosts drive it with four calls — [`Endpoint::start`],
//! [`Endpoint::multicast`], [`Endpoint::handle_message`],
//! [`Endpoint::handle_timer`] — and perform the returned [`Output`]s.
//! Liveness comes from outside: a [`crate::multi::MultiEndpoint`] runs the
//! one failure detector per process pair, pushes heartbeat sections in via
//! [`Endpoint::apply_heartbeat`] and suspicions via
//! [`Endpoint::inject_suspicion`].
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

use vd_obs::{Ctr, EventKind, Gauge, Hist, Obs, ObsHandle};
use vd_simnet::actor::Payload;
use vd_simnet::time::SimTime;
use vd_simnet::topology::ProcessId;

use crate::api::{Delivery, GroupEvent, GroupTimer, Output};
use crate::config::GroupConfig;
use crate::flush::{
    compute_cut, filter_assignments_to_cut, merge_assignments, FlushPhase, FlushProgress,
};
use crate::message::{
    fold_vclock, fold_view, Assignment, DataMsg, FlushHoldings, GroupId, GroupMsg,
};
use crate::multi::HeartbeatSection;
use crate::order::DeliveryOrder;
use crate::stream::SenderStream;
use crate::vclock::VectorClock;
use crate::view::{View, ViewId};

/// Error returned when an application multicast cannot be accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulticastError {
    /// The endpoint is not (or no longer) a member of the group.
    NotMember,
}

impl fmt::Display for MulticastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MulticastError::NotMember => f.write_str("endpoint is not a group member"),
        }
    }
}

impl std::error::Error for MulticastError {}

/// Membership status of the endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    /// Trying to join via the listed contact members.
    Joining { contacts: Vec<ProcessId> },
    /// A member of the current view.
    Member,
    /// Installed a view excluding this endpoint; inert.
    Evicted,
}

/// Data kept by a (former) flush leader to re-send `InstallView` to
/// stragglers whose copy was lost.
#[derive(Debug, Clone)]
struct InstallRecord {
    view: View,
    causal_after: Arc<VectorClock>,
    next_global: u64,
}

/// Whether `msg` carries application data (`Data`, `DataBatch`,
/// `Retransmit`): only those frames count as group sends.
fn is_data_frame(msg: &GroupMsg) -> bool {
    match msg {
        GroupMsg::Data(_) | GroupMsg::DataBatch { .. } | GroupMsg::Retransmit(_) => true,
        GroupMsg::Nack { .. }
        | GroupMsg::Assign { .. }
        | GroupMsg::AssignNack { .. }
        | GroupMsg::JoinRequest { .. }
        | GroupMsg::LeaveRequest { .. }
        | GroupMsg::ViewProposal { .. }
        | GroupMsg::FlushInfo { .. }
        | GroupMsg::FlushCut { .. }
        | GroupMsg::FlushDone { .. }
        | GroupMsg::InstallView { .. } => false,
    }
}

/// A sans-IO group-communication endpoint (see module docs).
#[derive(Debug)]
pub struct Endpoint {
    me: ProcessId,
    group: GroupId,
    config: GroupConfig,
    status: Status,
    view: View,

    // --- sending ---
    next_send_seq: u64,
    causal_sends: u64,
    pending_sends: Vec<(DeliveryOrder, Bytes)>,
    /// Messages coalesced for the next batched frame (batching enabled only
    /// when `config.batch_max_messages > 1`).
    batch: Vec<DataMsg>,
    batch_timer_armed: bool,
    obs: ObsHandle,
    /// Virtual time of the most recent entry-point call, in µs; stamps
    /// trace events emitted from internal helpers that have no `now`.
    now_us: u64,

    // --- receiving ---
    streams: BTreeMap<ProcessId, SenderStream>,
    delivered_clock: VectorClock,

    // --- agreed (total) order ---
    assignments: BTreeMap<u64, (ProcessId, u64)>,
    next_global_deliver: u64,
    // sequencer-side
    next_assign: u64,
    assign_cursors: BTreeMap<ProcessId, u64>,

    // --- failure detection ---
    last_heard: BTreeMap<ProcessId, SimTime>,
    suspected: BTreeSet<ProcessId>,

    // --- membership churn ---
    pending_joins: BTreeSet<ProcessId>,
    pending_leaves: BTreeSet<ProcessId>,

    // --- flush ---
    flush: Option<FlushProgress>,
    blocked: bool,
    highest_proposal: ViewId,
    future_msgs: Vec<(ProcessId, GroupMsg)>,
    last_install: Option<InstallRecord>,

    // --- stability ---
    peer_acks: BTreeMap<ProcessId, BTreeMap<ProcessId, u64>>,
    peer_delivered_global: BTreeMap<ProcessId, u64>,
}

impl Endpoint {
    /// Creates an endpoint that starts as a member of a statically-known
    /// initial view (id 0) — how the experiments bootstrap replica groups.
    /// Every member must be constructed with the same `members` list.
    pub fn bootstrap(
        me: ProcessId,
        group: GroupId,
        config: GroupConfig,
        members: Vec<ProcessId>,
    ) -> Self {
        let view = View::new(ViewId(0), members);
        debug_assert!(view.contains(me), "bootstrap members must include self");
        Endpoint::with_view(me, group, config, Status::Member, view)
    }

    /// Creates an endpoint that will join an existing group through the
    /// given contact members (it becomes a member when a view including it
    /// is installed).
    pub fn joining(
        me: ProcessId,
        group: GroupId,
        config: GroupConfig,
        contacts: Vec<ProcessId>,
    ) -> Self {
        Endpoint::with_view(
            me,
            group,
            config,
            Status::Joining { contacts },
            View::new(ViewId(0), Vec::new()),
        )
    }

    fn with_view(
        me: ProcessId,
        group: GroupId,
        config: GroupConfig,
        status: Status,
        view: View,
    ) -> Self {
        Endpoint {
            me,
            group,
            config,
            status,
            view,
            next_send_seq: 0,
            causal_sends: 0,
            pending_sends: Vec::new(),
            batch: Vec::new(),
            batch_timer_armed: false,
            obs: Obs::disabled(),
            now_us: 0,
            streams: BTreeMap::new(),
            delivered_clock: VectorClock::new(),
            assignments: BTreeMap::new(),
            next_global_deliver: 1,
            next_assign: 1,
            assign_cursors: BTreeMap::new(),
            last_heard: BTreeMap::new(),
            suspected: BTreeSet::new(),
            pending_joins: BTreeSet::new(),
            pending_leaves: BTreeSet::new(),
            flush: None,
            blocked: false,
            highest_proposal: ViewId(0),
            future_msgs: Vec::new(),
            last_install: None,
            peer_acks: BTreeMap::new(),
            peer_delivered_global: BTreeMap::new(),
        }
    }

    // ---- accessors ---------------------------------------------------------

    /// Attaches an observability endpoint: group-layer counters
    /// (`group.*`), the fault-detection-latency histogram, and
    /// send/suspicion/batch trace events flow into it. Defaults to a
    /// disabled sink with a private registry.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The attached observability endpoint.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// This endpoint's member id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The group this endpoint belongs to.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The currently installed view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Whether this endpoint is currently a group member.
    pub fn is_member(&self) -> bool {
        self.status == Status::Member
    }

    /// Whether a flush is in progress (application sends are being buffered).
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// The agreed-order sequencer of the current view (its coordinator).
    pub fn sequencer(&self) -> Option<ProcessId> {
        self.view.coordinator()
    }

    /// Members currently suspected by the local failure detector.
    pub fn suspected(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.suspected.iter().copied()
    }

    // ---- process-level failure-detector hooks ------------------------------

    /// The per-group content of a heartbeat — per-sender contiguous acks and
    /// the delivered position in the agreed order — for a process-level
    /// detector to fold into one frame per peer process. `None` while this
    /// endpoint is not a member.
    pub fn heartbeat_section(&self) -> Option<HeartbeatSection> {
        if self.status != Status::Member {
            return None;
        }
        Some(HeartbeatSection {
            group: self.group,
            view_id: self.view.id(),
            acks: Arc::new(
                self.streams
                    .iter()
                    .map(|(&s, st)| (s, st.contiguous()))
                    .collect(),
            ),
            delivered_global: self.next_global_deliver.saturating_sub(1),
        })
    }

    /// Applies one heartbeat section received by the process-level detector:
    /// refreshes liveness for `from` and runs the normal ack/stability path.
    pub fn apply_heartbeat(&mut self, now: SimTime, from: ProcessId, section: &HeartbeatSection) {
        if self.status == Status::Evicted {
            return;
        }
        self.now_us = now.as_micros();
        self.last_heard.insert(from, now);
        self.handle_heartbeat(from, section);
    }

    /// Records a suspicion raised by the process-level failure detector:
    /// marks `peer` suspected (with the measured silence, for the
    /// fault-detection-latency histogram) and starts a flush if this
    /// endpoint should lead one.
    pub fn inject_suspicion(
        &mut self,
        now: SimTime,
        peer: ProcessId,
        silence_us: u64,
    ) -> Vec<Output> {
        let mut out = Vec::new();
        if self.status != Status::Member
            || peer == self.me
            || !self.view.contains(peer)
            || self.suspected.contains(&peer)
        {
            return out;
        }
        self.now_us = now.as_micros();
        self.suspect_peer(peer, silence_us);
        self.pending_joins.remove(&peer);
        self.maybe_start_flush(now, &mut out);
        out
    }

    /// Marks `m` suspected and records it in the observability registry.
    fn suspect_peer(&mut self, m: ProcessId, silence_us: u64) {
        self.suspected.insert(m);
        self.obs.metrics.incr(Ctr::GroupSuspicions);
        self.obs.metrics.record(Hist::FaultDetectionUs, silence_us);
        self.obs.emit(
            self.now_us,
            self.me.0,
            EventKind::SuspicionRaised {
                peer: m.0,
                silence_us,
            },
        );
    }

    // ---- lifecycle ---------------------------------------------------------

    /// Arms the periodic NACK retry (and, for a joining endpoint, sends the
    /// first join request). Call exactly once, when the host starts.
    pub fn start(&mut self, now: SimTime) -> Vec<Output> {
        self.now_us = now.as_micros();
        let mut out = Vec::new();
        for &m in self.view.members() {
            self.last_heard.insert(m, now);
        }
        out.push(Output::SetTimer {
            delay: self.config.nack_interval,
            timer: GroupTimer::NackRetry,
        });
        if let Status::Joining { contacts } = &self.status {
            let contacts = contacts.clone();
            for c in contacts {
                out.push(Output::Send {
                    to: c,
                    msg: GroupMsg::JoinRequest {
                        group: self.group,
                        joiner: self.me,
                    },
                });
            }
            out.push(Output::SetTimer {
                delay: self.config.flush_timeout,
                timer: GroupTimer::JoinRetry,
            });
        }
        out
    }

    /// Multicasts `payload` to the group with the requested guarantee.
    ///
    /// During a flush the message is buffered and sent when the next view
    /// installs (transparently to the caller).
    ///
    /// # Errors
    ///
    /// [`MulticastError::NotMember`] if the endpoint has not joined yet or
    /// was evicted.
    pub fn multicast(
        &mut self,
        now: SimTime,
        order: DeliveryOrder,
        payload: Bytes,
    ) -> Result<Vec<Output>, MulticastError> {
        self.now_us = now.as_micros();
        if self.status != Status::Member {
            return Err(MulticastError::NotMember);
        }
        if self.blocked {
            self.pending_sends.push((order, payload));
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        let msg = self.make_data(order, payload);
        // Broadcast to the other members: either coalesced into the pending
        // batch, or immediately as one shared frame whose per-member copies
        // are reference-count bumps of the same body.
        if self.config.batch_max_messages > 1 {
            self.batch.push(msg.clone());
            if self.batch.len() >= self.config.batch_max_messages {
                self.flush_batch(&mut out);
            } else if !self.batch_timer_armed {
                self.batch_timer_armed = true;
                out.push(Output::SetTimer {
                    delay: self.config.batch_flush_interval,
                    timer: GroupTimer::BatchFlush,
                });
            }
        } else {
            let frame = GroupMsg::Data(msg.clone());
            self.fan_out(&frame, &mut out);
        }
        // …and loop the message back to ourselves through the normal path,
        // so self-delivery obeys the same ordering rules.
        if msg.order == DeliveryOrder::BestEffort {
            self.obs.metrics.incr(Ctr::GroupDeliveries);
            out.push(Output::Event(GroupEvent::Delivered(Delivery {
                group: self.group,
                sender: self.me,
                order: msg.order,
                seq: None,
                global_seq: None,
                view_id: msg.view_id,
                payload: msg.payload,
            })));
        } else {
            self.accept_data(now, msg, &mut out);
        }
        Ok(out)
    }

    /// Sends one shared frame to every other member. Each destination copy
    /// aliases the same message body (`Arc`/`Bytes`): the frame is built
    /// once and fanned out by reference count, never re-encoded per member.
    fn fan_out(&mut self, msg: &GroupMsg, out: &mut Vec<Output>) {
        let mut copies = 0;
        for &m in self.view.members() {
            if m != self.me {
                out.push(Output::Send {
                    to: m,
                    msg: msg.clone(),
                });
                copies += 1;
            }
        }
        let bytes = msg.wire_size() as u64;
        if copies > 0 && is_data_frame(msg) {
            self.obs.metrics.incr(Ctr::GroupSends);
            self.obs.metrics.add(Ctr::GroupFrameCopies, copies);
            self.obs.metrics.add(Ctr::GroupWireBytes, bytes * copies);
            self.obs.emit(
                self.now_us,
                self.me.0,
                EventKind::GroupSend { bytes, copies },
            );
        }
    }

    /// Fans out the coalesced batch (if any) as a single frame per member:
    /// one header plus N sub-framed payloads instead of N full frames.
    fn flush_batch(&mut self, out: &mut Vec<Output>) {
        self.batch_timer_armed = false;
        if self.batch.is_empty() {
            return;
        }
        let mut msgs = std::mem::take(&mut self.batch);
        let occupancy = msgs.len() as u64;
        self.obs.metrics.record(Hist::BatchOccupancy, occupancy);
        self.obs.emit(
            self.now_us,
            self.me.0,
            EventKind::BatchFlushed { occupancy },
        );
        let frame = if msgs.len() == 1 {
            match msgs.pop() {
                Some(m) => GroupMsg::Data(m),
                None => return,
            }
        } else {
            GroupMsg::DataBatch {
                group: self.group,
                msgs: Arc::new(msgs),
            }
        };
        self.fan_out(&frame, out);
    }

    /// Announces a graceful departure. The endpoint keeps participating in
    /// the protocol until a view excluding it installs, at which point it
    /// emits [`GroupEvent::SelfEvicted`].
    pub fn leave(&mut self, _now: SimTime) -> Vec<Output> {
        if self.status != Status::Member {
            return Vec::new();
        }
        let mut out = Vec::new();
        if let Some(coord) = self.coordinator_among_unsuspected() {
            if coord == self.me {
                self.pending_leaves.insert(self.me);
            } else {
                out.push(Output::Send {
                    to: coord,
                    msg: GroupMsg::LeaveRequest {
                        group: self.group,
                        leaver: self.me,
                    },
                });
            }
        }
        out
    }

    // ---- message construction ----------------------------------------------

    fn make_data(&mut self, order: DeliveryOrder, payload: Bytes) -> DataMsg {
        let (seq, vclock) = match order {
            DeliveryOrder::BestEffort => (None, None),
            DeliveryOrder::Causal => {
                self.next_send_seq += 1;
                self.causal_sends += 1;
                let mut vc = self.delivered_clock.clone();
                vc.set(self.me, self.causal_sends);
                (Some(self.next_send_seq), Some(Arc::new(vc)))
            }
            DeliveryOrder::Fifo | DeliveryOrder::Agreed => {
                self.next_send_seq += 1;
                (Some(self.next_send_seq), None)
            }
        };
        DataMsg {
            group: self.group,
            view_id: self.view.id(),
            sender: self.me,
            seq,
            order,
            vclock,
            payload,
        }
    }

    // ---- input: messages ----------------------------------------------------

    /// Processes a protocol message from peer endpoint `from`.
    pub fn handle_message(&mut self, now: SimTime, from: ProcessId, msg: GroupMsg) -> Vec<Output> {
        let mut out = Vec::new();
        if self.status == Status::Evicted {
            return out;
        }
        if msg.group() != self.group {
            return out;
        }
        self.now_us = now.as_micros();
        self.last_heard.insert(from, now);
        match msg {
            GroupMsg::Data(d) | GroupMsg::Retransmit(d) => self.handle_data(now, from, d, &mut out),
            GroupMsg::DataBatch { msgs, .. } => {
                for d in msgs.iter() {
                    self.handle_data(now, from, d.clone(), &mut out);
                }
            }
            GroupMsg::Nack {
                sender, missing, ..
            } => self.handle_nack(from, sender, missing, &mut out),
            GroupMsg::Assign {
                view_id,
                assignments,
                ..
            } => self.handle_assign(now, from, view_id, assignments, &mut out),
            GroupMsg::AssignNack {
                view_id,
                from_global,
                ..
            } => self.handle_assign_nack(from, view_id, from_global, &mut out),
            GroupMsg::JoinRequest { joiner, .. } => self.handle_join_request(now, joiner, &mut out),
            GroupMsg::LeaveRequest { leaver, .. } => {
                self.pending_leaves.insert(leaver);
                self.maybe_start_flush(now, &mut out);
            }
            GroupMsg::ViewProposal {
                proposal, leader, ..
            } => self.handle_proposal(now, proposal, leader, &mut out),
            GroupMsg::FlushInfo {
                proposal_id,
                holdings,
                ..
            } => self.handle_flush_info(now, from, proposal_id, holdings, &mut out),
            GroupMsg::FlushCut {
                proposal_id,
                cut,
                final_assignments,
                ..
            } => self.handle_flush_cut(now, proposal_id, cut, final_assignments, &mut out),
            GroupMsg::FlushDone { proposal_id, .. } => {
                self.handle_flush_done(now, from, proposal_id, &mut out)
            }
            GroupMsg::InstallView {
                view,
                causal_after,
                next_global,
                ..
            } => self.handle_install(now, view, causal_after, next_global, &mut out),
        }
        out
    }

    fn handle_data(&mut self, now: SimTime, from: ProcessId, d: DataMsg, out: &mut Vec<Output>) {
        if d.order == DeliveryOrder::BestEffort {
            // Unsequenced, unordered: deliver on arrival.
            self.obs.metrics.incr(Ctr::GroupDeliveries);
            out.push(Output::Event(GroupEvent::Delivered(Delivery {
                group: self.group,
                sender: d.sender,
                order: d.order,
                seq: None,
                global_seq: None,
                view_id: d.view_id,
                payload: d.payload,
            })));
            return;
        }
        if d.view_id > self.view.id() {
            // Sent in a view we have not installed yet.
            self.future_msgs.push((from, GroupMsg::Data(d)));
            return;
        }
        if d.view_id < self.view.id() {
            // Old-view straggler: its content was covered by the flush cut.
            return;
        }
        self.accept_data(now, d, out);
    }

    /// Accepts reliable data into its sender stream and runs the delivery
    /// and sequencer machinery.
    fn accept_data(&mut self, now: SimTime, d: DataMsg, out: &mut Vec<Output>) {
        let sender = d.sender;
        let is_new = self.streams.entry(sender).or_default().accept(d);
        if is_new {
            if Some(self.me) == self.sequencer() && !self.blocked {
                self.sequencer_scan(out);
            }
            // During a flush's filling phase, new data may complete the cut.
            self.check_flush_fill(now, out);
            self.try_deliver(out);
        }
    }

    /// Sequencer: assign global order slots to contiguously-received agreed
    /// messages, in per-sender order, and broadcast the batch.
    fn sequencer_scan(&mut self, out: &mut Vec<Output>) {
        let mut batch = Vec::new();
        let senders: Vec<ProcessId> = self.streams.keys().copied().collect();
        for s in senders {
            let Some(stream) = self.streams.get_mut(&s) else {
                continue;
            };
            let mut cursor = self.assign_cursors.get(&s).copied().unwrap_or(1);
            while cursor <= stream.contiguous() {
                if let Some(msg) = stream.get(cursor) {
                    if msg.order == DeliveryOrder::Agreed {
                        batch.push(Assignment {
                            global_seq: self.next_assign,
                            sender: s,
                            seq: cursor,
                        });
                        self.next_assign += 1;
                    }
                }
                cursor += 1;
            }
            self.assign_cursors.insert(s, cursor);
        }
        if batch.is_empty() {
            return;
        }
        for a in &batch {
            self.assignments.insert(a.global_seq, (a.sender, a.seq));
        }
        let msg = GroupMsg::Assign {
            group: self.group,
            view_id: self.view.id(),
            assignments: Arc::new(batch),
        };
        self.fan_out(&msg, out);
    }

    fn handle_assign(
        &mut self,
        _now: SimTime,
        from: ProcessId,
        view_id: ViewId,
        assignments: Arc<Vec<Assignment>>,
        out: &mut Vec<Output>,
    ) {
        if view_id > self.view.id() {
            self.future_msgs.push((
                from,
                GroupMsg::Assign {
                    group: self.group,
                    view_id,
                    assignments,
                },
            ));
            return;
        }
        if view_id < self.view.id() {
            return;
        }
        if self.blocked {
            // A flush is running: only the leader's final assignments may
            // extend the total order now, or members could deliver messages
            // the leader never learns were ordered.
            return;
        }
        for &a in assignments.iter() {
            self.assignments.insert(a.global_seq, (a.sender, a.seq));
            if a.global_seq >= self.next_assign {
                self.next_assign = a.global_seq + 1;
            }
        }
        self.try_deliver(out);
    }

    fn handle_assign_nack(
        &mut self,
        from: ProcessId,
        view_id: ViewId,
        from_global: u64,
        out: &mut Vec<Output>,
    ) {
        if view_id != self.view.id() {
            return;
        }
        let batch: Vec<Assignment> = self
            .assignments
            .range(from_global..)
            .take(1024)
            .map(|(&global_seq, &(sender, seq))| Assignment {
                global_seq,
                sender,
                seq,
            })
            .collect();
        if !batch.is_empty() {
            out.push(Output::Send {
                to: from,
                msg: GroupMsg::Assign {
                    group: self.group,
                    view_id,
                    assignments: Arc::new(batch),
                },
            });
        }
    }

    fn handle_nack(
        &mut self,
        from: ProcessId,
        sender: ProcessId,
        missing: Vec<u64>,
        out: &mut Vec<Output>,
    ) {
        let frames: Vec<(u64, GroupMsg)> = {
            let Some(stream) = self.streams.get(&sender) else {
                return;
            };
            missing
                .iter()
                .filter_map(|&seq| {
                    stream
                        .get(seq)
                        .map(|m| (seq, GroupMsg::Retransmit(m.clone())))
                })
                .collect()
        };
        for (seq, msg) in frames {
            self.obs.metrics.incr(Ctr::GroupRetransmits);
            self.obs
                .emit(self.now_us, self.me.0, EventKind::Retransmit { seq });
            out.push(Output::Send { to: from, msg });
        }
    }

    fn handle_heartbeat(&mut self, from: ProcessId, section: &HeartbeatSection) {
        if section.view_id != self.view.id() || !self.view.contains(from) {
            return;
        }
        // A peer's acks reveal messages we may never have seen at all (tail
        // loss): record their existence so the NACK machinery recovers them.
        for &(sender, acked) in section.acks.iter() {
            if sender != self.me {
                self.streams.entry(sender).or_default().note_exists(acked);
            }
        }
        self.peer_acks
            .insert(from, section.acks.iter().copied().collect());
        self.peer_delivered_global
            .insert(from, section.delivered_global);
        if self.blocked {
            // Never garbage-collect while a flush may need old messages.
            return;
        }
        self.prune_stable();
    }

    /// Prunes delivered messages all view members acknowledge, and agreed
    /// assignments everyone has delivered past.
    fn prune_stable(&mut self) {
        let others: Vec<ProcessId> = self
            .view
            .members()
            .iter()
            .copied()
            .filter(|&m| m != self.me)
            .collect();
        // A sender's messages are stable up to the minimum contiguous ack.
        let peer_acks = &self.peer_acks;
        for (&s, stream) in self.streams.iter_mut() {
            let mut stable = stream.contiguous();
            for m in &others {
                let ack = peer_acks
                    .get(m)
                    .and_then(|a| a.get(&s).copied())
                    .unwrap_or(0);
                stable = stable.min(ack);
            }
            stream.prune(stable);
        }
        let mut min_delivered = self.next_global_deliver;
        for m in &others {
            min_delivered =
                min_delivered.min(self.peer_delivered_global.get(m).copied().unwrap_or(0) + 1);
        }
        self.assignments.retain(|&g, _| g >= min_delivered);
    }

    // ---- delivery engine ----------------------------------------------------

    /// Delivers every message that has become deliverable, to fixpoint.
    fn try_deliver(&mut self, out: &mut Vec<Output>) {
        // Emitting a delivery never touches the streams: take them out to
        // walk them in place and deliver straight from their buffers.
        let mut streams = std::mem::take(&mut self.streams);
        // Agreed total order: follow the global cursor.
        while let Some(&(sender, seq)) = self.assignments.get(&self.next_global_deliver) {
            let Some(stream) = streams.get_mut(&sender) else {
                break;
            };
            // The global order respects per-sender order, so the agreed
            // cursor must be exactly at `seq` once ready.
            if stream.peek_class(DeliveryOrder::Agreed) != Some(seq) {
                break;
            }
            let Some(msg) = stream.get(seq) else {
                break;
            };
            let g = self.next_global_deliver;
            self.next_global_deliver += 1;
            self.emit_delivery(msg, Some(g), out);
            stream.mark_delivered(DeliveryOrder::Agreed);
        }
        // FIFO and causal: per-sender class cursors. The class cursors move
        // independently and only a causal delivery advances
        // `delivered_clock`, so only a causal delivery can unblock a message
        // this pass already went by: pass again only after one.
        loop {
            let mut delivered_causal = false;
            for (&sender, stream) in &mut streams {
                while let Some(seq) = stream.peek_class(DeliveryOrder::Fifo) {
                    let Some(msg) = stream.get(seq) else {
                        break;
                    };
                    self.emit_delivery(msg, None, out);
                    stream.mark_delivered(DeliveryOrder::Fifo);
                }
                while let Some(seq) = stream.peek_class(DeliveryOrder::Causal) {
                    let Some(msg) = stream.get(seq) else {
                        break;
                    };
                    // A causal message always carries its clock; a missing
                    // one means the stream is corrupt — stop delivering from
                    // it rather than panic.
                    let Some(vc) = &msg.vclock else {
                        break;
                    };
                    if !self.delivered_clock.deliverable(sender, vc) {
                        break;
                    }
                    self.delivered_clock.set(sender, vc.get(sender));
                    self.emit_delivery(msg, None, out);
                    stream.mark_delivered(DeliveryOrder::Causal);
                    delivered_causal = true;
                }
            }
            if !delivered_causal {
                break;
            }
        }
        self.streams = streams;
    }

    fn emit_delivery(&mut self, msg: &DataMsg, global_seq: Option<u64>, out: &mut Vec<Output>) {
        self.obs.metrics.incr(Ctr::GroupDeliveries);
        self.obs.emit(
            self.now_us,
            self.me.0,
            EventKind::GroupDeliver {
                seq: global_seq.or(msg.seq).unwrap_or(0),
            },
        );
        out.push(Output::Event(GroupEvent::Delivered(Delivery {
            group: self.group,
            sender: msg.sender,
            order: msg.order,
            seq: msg.seq,
            global_seq,
            view_id: msg.view_id,
            payload: msg.payload.clone(),
        })));
    }

    // ---- membership & flush ---------------------------------------------------

    fn coordinator_among_unsuspected(&self) -> Option<ProcessId> {
        self.view
            .members()
            .iter()
            .copied()
            .find(|m| !self.suspected.contains(m))
    }

    fn handle_join_request(&mut self, now: SimTime, joiner: ProcessId, out: &mut Vec<Output>) {
        if self.status != Status::Member {
            return;
        }
        if self.view.contains(joiner) {
            return;
        }
        match self.coordinator_among_unsuspected() {
            Some(c) if c == self.me => {
                self.pending_joins.insert(joiner);
                self.maybe_start_flush(now, out);
            }
            Some(c) => out.push(Output::Send {
                to: c,
                msg: GroupMsg::JoinRequest {
                    group: self.group,
                    joiner,
                },
            }),
            None => {}
        }
    }

    /// Starts a flush round if this endpoint should lead one and the
    /// desired membership differs from the current view (or from the round
    /// already in progress).
    fn maybe_start_flush(&mut self, now: SimTime, out: &mut Vec<Output>) {
        if self.status != Status::Member {
            return;
        }
        if self.coordinator_among_unsuspected() != Some(self.me) {
            return;
        }
        let mut desired: Vec<ProcessId> = self
            .view
            .members()
            .iter()
            .copied()
            .filter(|m| !self.suspected.contains(m) && !self.pending_leaves.contains(m))
            .collect();
        desired.extend(self.pending_joins.iter().copied());
        desired.sort_unstable();
        desired.dedup();
        if desired == self.view.members() {
            return;
        }
        if let Some(flush) = &self.flush {
            if flush.leader == self.me {
                if flush.proposal.members() == desired.as_slice() {
                    return; // round already targeting the right membership
                }
                // Restart a round only when a current participant died or
                // left; pure additions (new joiners) wait for the next view.
                let participants_intact = flush
                    .participants
                    .iter()
                    .all(|m| !self.suspected.contains(m) && !self.pending_leaves.contains(m));
                if participants_intact
                    && desired
                        .iter()
                        .filter(|m| flush.proposal.contains(**m))
                        .count()
                        == flush.proposal.len()
                {
                    return;
                }
            } else if !self.suspected.contains(&flush.leader) {
                // Someone else is running a live round; do not compete.
                return;
            }
        }
        let proposal_id = ViewId(self.highest_proposal.0.max(self.view.id().0) + 1);
        self.highest_proposal = proposal_id;
        let proposal = View::new(proposal_id, desired);
        self.begin_round_as_leader(now, proposal, out);
    }

    fn begin_round_as_leader(&mut self, now: SimTime, proposal: View, out: &mut Vec<Output>) {
        // Push out any coalesced sends first: they belong to the old view
        // and should reach peers before holdings are compared.
        self.flush_batch(out);
        let mut round = FlushProgress::new(proposal.clone(), self.me);
        // Participants: everyone in the old view or the proposal that is
        // not suspected (evicted-but-alive members still contribute their
        // messages so nothing is lost).
        let participants: Vec<ProcessId> = {
            let mut p: Vec<ProcessId> = self
                .view
                .members()
                .iter()
                .chain(proposal.members())
                .copied()
                .filter(|m| !self.suspected.contains(m))
                .collect();
            p.sort_unstable();
            p.dedup();
            p
        };
        let msg = GroupMsg::ViewProposal {
            group: self.group,
            proposal: proposal.clone(),
            leader: self.me,
        };
        for &m in &participants {
            if m != self.me {
                out.push(Output::Send {
                    to: m,
                    msg: msg.clone(),
                });
            }
        }
        round.participants = participants;
        round.infos.insert(self.me, self.my_holdings());
        self.flush = Some(round);
        if !self.blocked {
            self.blocked = true;
            out.push(Output::Event(GroupEvent::Blocked));
        }
        out.push(Output::SetTimer {
            delay: self.config.flush_timeout,
            timer: GroupTimer::FlushTimeout(proposal.id()),
        });
        self.leader_check_infos(now, out);
    }

    fn my_holdings(&self) -> FlushHoldings {
        FlushHoldings {
            contiguous: self
                .streams
                .iter()
                .map(|(&s, st)| (s, st.contiguous()))
                .collect(),
            extras: self
                .streams
                .iter()
                .filter(|(_, st)| !st.extras().is_empty())
                .map(|(&s, st)| (s, st.extras()))
                .collect(),
            assignments: self
                .assignments
                .iter()
                .map(|(&global_seq, &(sender, seq))| Assignment {
                    global_seq,
                    sender,
                    seq,
                })
                .collect(),
        }
    }

    fn handle_proposal(
        &mut self,
        _now: SimTime,
        proposal: View,
        leader: ProcessId,
        out: &mut Vec<Output>,
    ) {
        if self.status == Status::Evicted {
            return;
        }
        if proposal.id() <= self.view.id() {
            return; // stale
        }
        // Adopt if newer than anything seen, or a re-broadcast of the
        // current round (answer again — our FlushInfo may have been lost).
        let adopt = match &self.flush {
            None => true,
            Some(f) => {
                proposal.id() > f.proposal.id()
                    || (proposal.id() == f.proposal.id() && leader <= f.leader)
            }
        };
        if !adopt {
            return;
        }
        if proposal.id() > self.highest_proposal {
            self.highest_proposal = proposal.id();
        }
        // Old-view batched sends must go out before we block.
        self.flush_batch(out);
        let is_same_round = self
            .flush
            .as_ref()
            .is_some_and(|f| f.proposal.id() == proposal.id() && f.leader == leader);
        if !is_same_round {
            self.flush = Some(FlushProgress::new(proposal.clone(), leader));
            if !self.blocked {
                self.blocked = true;
                out.push(Output::Event(GroupEvent::Blocked));
            }
        }
        if leader != self.me {
            out.push(Output::Send {
                to: leader,
                msg: GroupMsg::FlushInfo {
                    group: self.group,
                    proposal_id: proposal.id(),
                    holdings: self.my_holdings(),
                },
            });
        }
    }

    fn handle_flush_info(
        &mut self,
        now: SimTime,
        from: ProcessId,
        proposal_id: ViewId,
        holdings: FlushHoldings,
        out: &mut Vec<Output>,
    ) {
        let Some(flush) = &mut self.flush else {
            return;
        };
        if flush.leader != self.me || flush.proposal.id() != proposal_id {
            return;
        }
        flush.infos.insert(from, holdings);
        if flush.cut_sent {
            // Late (re-sent) info: the participant evidently missed the cut.
            // The assignments Arc is shared with the original broadcast.
            let msg = GroupMsg::FlushCut {
                group: self.group,
                proposal_id,
                cut: Arc::new(
                    flush
                        .cut
                        .as_ref()
                        .map(|c| c.iter().map(|(&s, &v)| (s, v)).collect())
                        .unwrap_or_default(),
                ),
                final_assignments: flush.final_assignments.clone(),
            };
            out.push(Output::Send { to: from, msg });
            return;
        }
        self.leader_check_infos(now, out);
    }

    /// Leader: if all holdings are in, compute the cut and either fill our
    /// own gaps or broadcast the cut immediately.
    fn leader_check_infos(&mut self, now: SimTime, out: &mut Vec<Output>) {
        let cut = {
            let Some(flush) = &self.flush else {
                return;
            };
            if flush.leader != self.me || flush.cut_sent || !flush.all_infos() {
                return;
            }
            compute_cut(&flush.infos)
        };
        let missing = self.leader_missing(&cut);
        if missing.is_empty() {
            self.leader_broadcast_cut(now, cut, out);
            return;
        }
        // NACK the members that reported holding what we lack.
        let Some(flush) = &self.flush else {
            return;
        };
        for (sender, seqs) in &missing {
            for &seq in seqs {
                if let Some(holder) = flush.infos.iter().find_map(|(&m, h)| {
                    let has_contig = h.contiguous.iter().any(|&(s, c)| s == *sender && c >= seq);
                    let has_extra = h
                        .extras
                        .iter()
                        .any(|(s, v)| *s == *sender && v.contains(&seq));
                    (m != self.me && (has_contig || has_extra)).then_some(m)
                }) {
                    out.push(Output::Send {
                        to: holder,
                        msg: GroupMsg::Nack {
                            group: self.group,
                            sender: *sender,
                            missing: vec![seq],
                        },
                    });
                }
            }
        }
        if let Some(flush) = &mut self.flush {
            flush.cut = Some(cut);
        }
    }

    /// Sequence numbers up to `cut` this endpoint does not hold.
    fn leader_missing(&self, cut: &BTreeMap<ProcessId, u64>) -> Vec<(ProcessId, Vec<u64>)> {
        let mut missing = Vec::new();
        for (&sender, &limit) in cut {
            let stream = self.streams.get(&sender);
            let mut seqs = Vec::new();
            for seq in 1..=limit {
                let held = stream.is_some_and(|st| st.has(seq) || seq < st.min_cursor());
                if !held {
                    seqs.push(seq);
                }
            }
            if !seqs.is_empty() {
                missing.push((sender, seqs));
            }
        }
        missing
    }

    /// Leader: called when retransmissions arrive during a flush; if the
    /// cut is computed and now complete, broadcast it.
    fn check_flush_fill(&mut self, now: SimTime, out: &mut Vec<Output>) {
        let Some(flush) = &self.flush else {
            return;
        };
        // Leader filling before broadcasting the cut.
        if flush.leader == self.me && !flush.cut_sent {
            if let Some(cut) = flush.cut.clone() {
                if self.leader_missing(&cut).is_empty() {
                    self.leader_broadcast_cut(now, cut, out);
                }
            }
            return;
        }
        // Participant filling after receiving the cut.
        if flush.phase == FlushPhase::Filling {
            if let Some(cut) = flush.cut.clone() {
                if self.participant_missing(&cut).is_empty() {
                    self.participant_send_done(out);
                }
            }
        }
    }

    fn leader_broadcast_cut(
        &mut self,
        now: SimTime,
        cut: BTreeMap<ProcessId, u64>,
        out: &mut Vec<Output>,
    ) {
        let (final_assignments, participants, proposal_id) = {
            let Some(flush) = &self.flush else {
                return;
            };
            let merged = merge_assignments(&flush.infos);
            let mut finals = filter_assignments_to_cut(&merged, &cut);
            // Assign any agreed messages within the cut the old sequencer
            // never got to, in deterministic (sender, seq) order.
            let assigned: BTreeSet<(ProcessId, u64)> =
                finals.iter().map(|a| (a.sender, a.seq)).collect();
            let mut next = finals
                .iter()
                .map(|a| a.global_seq + 1)
                .max()
                .unwrap_or(self.next_global_deliver)
                .max(self.next_global_deliver)
                .max(self.next_assign);
            for (&sender, &limit) in &cut {
                if let Some(stream) = self.streams.get(&sender) {
                    for seq in 1..=limit {
                        if let Some(msg) = stream.get(seq) {
                            if msg.order == DeliveryOrder::Agreed
                                && !assigned.contains(&(sender, seq))
                            {
                                finals.push(Assignment {
                                    global_seq: next,
                                    sender,
                                    seq,
                                });
                                next += 1;
                            }
                        }
                    }
                }
            }
            finals.sort_by_key(|a| a.global_seq);
            let participants: Vec<ProcessId> = flush.infos.keys().copied().collect();
            (Arc::new(finals), participants, flush.proposal.id())
        };
        // One shared cut/assignment body fans out to every participant and
        // is retained for timeout re-drives.
        let msg = GroupMsg::FlushCut {
            group: self.group,
            proposal_id,
            cut: Arc::new(cut.iter().map(|(&s, &c)| (s, c)).collect()),
            final_assignments: final_assignments.clone(),
        };
        for &m in &participants {
            if m != self.me {
                out.push(Output::Send {
                    to: m,
                    msg: msg.clone(),
                });
            }
        }
        if let Some(flush) = self.flush.as_mut() {
            flush.cut = Some(cut);
            flush.final_assignments = final_assignments;
            flush.cut_sent = true;
            flush.phase = FlushPhase::Done;
            flush.dones.insert(self.me);
        }
        self.leader_check_done(now, out);
    }

    fn participant_missing(&self, cut: &BTreeMap<ProcessId, u64>) -> Vec<(ProcessId, Vec<u64>)> {
        self.leader_missing(cut)
    }

    fn participant_send_done(&mut self, out: &mut Vec<Output>) {
        let Some(flush) = &mut self.flush else {
            return;
        };
        flush.phase = FlushPhase::Done;
        if flush.leader != self.me {
            out.push(Output::Send {
                to: flush.leader,
                msg: GroupMsg::FlushDone {
                    group: self.group,
                    proposal_id: flush.proposal.id(),
                },
            });
        }
    }

    fn handle_flush_cut(
        &mut self,
        _now: SimTime,
        proposal_id: ViewId,
        cut: Arc<Vec<(ProcessId, u64)>>,
        final_assignments: Arc<Vec<Assignment>>,
        out: &mut Vec<Output>,
    ) {
        let Some(flush) = &mut self.flush else {
            return;
        };
        if flush.proposal.id() != proposal_id {
            return;
        }
        let cut: BTreeMap<ProcessId, u64> = cut.iter().copied().collect();
        flush.cut = Some(cut.clone());
        // Keep the leader's list shared rather than copying it out.
        flush.final_assignments = final_assignments;
        flush.phase = FlushPhase::Filling;
        let leader = flush.leader;
        let missing = if matches!(self.status, Status::Joining { .. }) {
            // Joiners skip old-view history entirely.
            Vec::new()
        } else {
            self.participant_missing(&cut)
        };
        if missing.is_empty() {
            self.participant_send_done(out);
        } else {
            for (sender, seqs) in missing {
                out.push(Output::Send {
                    to: leader,
                    msg: GroupMsg::Nack {
                        group: self.group,
                        sender,
                        missing: seqs,
                    },
                });
            }
        }
    }

    fn handle_flush_done(
        &mut self,
        now: SimTime,
        from: ProcessId,
        proposal_id: ViewId,
        out: &mut Vec<Output>,
    ) {
        // A straggler confirming a round we already installed: re-send the
        // commit so it can unblock.
        if let Some(record) = &self.last_install {
            if record.view.id() == proposal_id {
                out.push(Output::Send {
                    to: from,
                    msg: GroupMsg::InstallView {
                        group: self.group,
                        view: record.view.clone(),
                        causal_after: record.causal_after.clone(),
                        next_global: record.next_global,
                    },
                });
                return;
            }
        }
        let Some(flush) = &mut self.flush else {
            return;
        };
        if flush.leader != self.me || flush.proposal.id() != proposal_id {
            return;
        }
        flush.dones.insert(from);
        self.leader_check_done(now, out);
    }

    fn leader_check_done(&mut self, now: SimTime, out: &mut Vec<Output>) {
        let (view, participants, cut, next_global) = {
            let Some(flush) = &self.flush else {
                return;
            };
            if flush.leader != self.me || !flush.cut_sent || !flush.all_done() {
                return;
            }
            let next_global = flush
                .final_assignments
                .iter()
                .map(|a| a.global_seq + 1)
                .max()
                .unwrap_or(self.next_global_deliver)
                .max(self.next_global_deliver)
                .max(self.next_assign);
            (
                flush.proposal.clone(),
                flush.participants.clone(),
                flush.cut.clone().unwrap_or_default(),
                next_global,
            )
        };
        let causal_after = Arc::new(self.compute_causal_after(&cut));
        let msg = GroupMsg::InstallView {
            group: self.group,
            view: view.clone(),
            causal_after: causal_after.clone(),
            next_global,
        };
        for &m in &participants {
            if m != self.me {
                out.push(Output::Send {
                    to: m,
                    msg: msg.clone(),
                });
            }
        }
        self.last_install = Some(InstallRecord {
            view: view.clone(),
            causal_after: causal_after.clone(),
            next_global,
        });
        self.handle_install(now, view, causal_after, next_global, out);
    }

    /// The causal clock after delivering everything up to the cut: per
    /// sender, the highest causal stamp among buffered causal messages
    /// within the cut, or the already-delivered stamp.
    fn compute_causal_after(&self, cut: &BTreeMap<ProcessId, u64>) -> VectorClock {
        let mut vc = self.delivered_clock.clone();
        for (&sender, &limit) in cut {
            if let Some(stream) = self.streams.get(&sender) {
                for seq in 1..=limit {
                    if let Some(msg) = stream.get(seq) {
                        if msg.order == DeliveryOrder::Causal {
                            let stamp = msg.vclock.as_ref().map(|c| c.get(sender)).unwrap_or(0);
                            if stamp > vc.get(sender) {
                                vc.set(sender, stamp);
                            }
                        }
                    }
                }
            }
        }
        vc
    }

    fn handle_install(
        &mut self,
        now: SimTime,
        view: View,
        causal_after: Arc<VectorClock>,
        next_global: u64,
        out: &mut Vec<Output>,
    ) {
        if view.id() <= self.view.id() {
            return; // duplicate commit
        }
        let Some(flush) = self.flush.take() else {
            // We never saw this round; we cannot install safely. The leader
            // will re-propose if it still needs us.
            return;
        };
        if flush.proposal.id() != view.id() {
            self.flush = Some(flush);
            return;
        }
        let was_joining = matches!(self.status, Status::Joining { .. });
        let cut = flush.cut.clone().unwrap_or_default();

        if was_joining {
            // Joiners skip old-view history: start every stream at the cut.
            self.streams.clear();
            for (&sender, &limit) in &cut {
                self.streams
                    .insert(sender, SenderStream::starting_after(limit));
            }
            self.delivered_clock = (*causal_after).clone();
            self.next_global_deliver = next_global;
            self.assignments.clear();
        } else {
            // Install the authoritative assignments and deliver everything
            // up to the cut.
            for a in flush.final_assignments.iter() {
                if a.global_seq >= self.next_global_deliver {
                    self.assignments.insert(a.global_seq, (a.sender, a.seq));
                }
            }
            // Truncate streams to the cut (discard unfillable stragglers).
            for (sender, stream) in &mut self.streams {
                let limit = cut.get(sender).copied().unwrap_or(stream.contiguous());
                stream.truncate_to_cut(limit);
            }
            self.try_deliver(out);
            // The final order may contain permanent holes where data died
            // with its sender before assignment; skip over them in order.
            let remaining: Vec<(u64, (ProcessId, u64))> = self
                .assignments
                .range(self.next_global_deliver..)
                .map(|(&g, &v)| (g, v))
                .collect();
            for (g, (sender, seq)) in remaining {
                let Some(stream) = self.streams.get_mut(&sender) else {
                    continue;
                };
                let msg = if stream.peek_class(DeliveryOrder::Agreed) == Some(seq) {
                    let m = stream.get(seq).cloned();
                    if m.is_some() {
                        stream.mark_delivered(DeliveryOrder::Agreed);
                    }
                    m
                } else {
                    None
                };
                if let Some(msg) = msg {
                    self.emit_delivery(&msg, Some(g), out);
                }
                self.next_global_deliver = self.next_global_deliver.max(g + 1);
            }
            // Deliver any fifo/causal unblocked by the skips.
            self.try_deliver(out);
            self.next_global_deliver = self.next_global_deliver.max(next_global);
            self.assignments.clear();
            self.delivered_clock = (*causal_after).clone();
        }

        // Swap in the new view.
        let old_view = std::mem::replace(&mut self.view, view.clone());
        let departed = old_view.members_not_in(&view);
        let joined: Vec<ProcessId> = view
            .members()
            .iter()
            .copied()
            .filter(|&m| !old_view.contains(m) && (!was_joining || m != self.me))
            .collect();

        self.next_assign = next_global;
        self.assign_cursors.clear();
        for (&sender, stream) in &self.streams {
            self.assign_cursors.insert(sender, stream.contiguous() + 1);
        }
        // Drop state for departed members; fresh members start clean streams
        // lazily. Everything at or below the cut is globally held: prune it.
        self.streams.retain(|m, _| view.contains(*m));
        for stream in self.streams.values_mut() {
            let stable = stream.contiguous();
            stream.prune(stable);
        }
        self.delivered_clock.retain_members(view.members());
        self.suspected.retain(|m| view.contains(*m));
        self.pending_joins.retain(|m| !view.contains(*m));
        self.pending_leaves.retain(|m| view.contains(*m));
        self.peer_acks.retain(|m, _| view.contains(*m));
        self.peer_delivered_global.retain(|m, _| view.contains(*m));
        for &m in view.members() {
            self.last_heard.entry(m).or_insert(now);
        }

        if !view.contains(self.me) || view.members().len() < self.config.min_view {
            // Either the group threw us out, or the view is below the
            // configured quorum — a partitioned minority must not soldier
            // on as a rump group (e.g. a cut-off primary installing a
            // singleton view and staying "primary").
            self.status = Status::Evicted;
            self.blocked = false;
            out.push(Output::Event(GroupEvent::SelfEvicted));
            return;
        }
        self.status = Status::Member;
        self.blocked = false;
        let members = view.members().len() as u64;
        self.obs.metrics.gauge_set(Gauge::GroupMembers, members);
        self.obs.emit(
            self.now_us,
            self.me.0,
            EventKind::ViewInstalled {
                view_id: view.id().0,
                members,
            },
        );
        out.push(Output::Event(GroupEvent::ViewInstalled {
            view,
            joined,
            departed,
        }));

        // Replay application sends buffered during the flush…
        let pending = std::mem::take(&mut self.pending_sends);
        for (order, payload) in pending {
            match self.multicast(now, order, payload) {
                Ok(extra) => out.extend(extra),
                Err(_) => break,
            }
        }
        // …and messages that arrived for this view before we installed it.
        let future = std::mem::take(&mut self.future_msgs);
        for (from, msg) in future {
            let extra = self.handle_message(now, from, msg);
            out.extend(extra);
        }
        // Churn that accumulated during the round may need another one.
        self.maybe_start_flush(now, out);
    }

    // ---- timers ---------------------------------------------------------------

    /// Processes a timer previously requested via [`Output::SetTimer`].
    pub fn handle_timer(&mut self, now: SimTime, timer: GroupTimer) -> Vec<Output> {
        self.now_us = now.as_micros();
        let mut out = Vec::new();
        if self.status == Status::Evicted {
            return out;
        }
        match timer {
            GroupTimer::NackRetry => {
                out.push(Output::SetTimer {
                    delay: self.config.nack_interval,
                    timer: GroupTimer::NackRetry,
                });
                self.nack_retry(&mut out);
            }
            GroupTimer::FlushTimeout(proposal_id) => self.flush_timeout(now, proposal_id, &mut out),
            GroupTimer::BatchFlush => {
                if self.status == Status::Member && !self.blocked {
                    self.flush_batch(&mut out);
                } else {
                    self.batch_timer_armed = false;
                }
            }
            GroupTimer::JoinRetry => {
                if let Status::Joining { contacts } = &self.status {
                    let contacts = contacts.clone();
                    for c in contacts {
                        out.push(Output::Send {
                            to: c,
                            msg: GroupMsg::JoinRequest {
                                group: self.group,
                                joiner: self.me,
                            },
                        });
                    }
                    out.push(Output::SetTimer {
                        delay: self.config.flush_timeout,
                        timer: GroupTimer::JoinRetry,
                    });
                }
            }
        }
        out
    }

    /// The one fixed-timeout liveness check left in the endpoint: a stuck
    /// flush leader re-checks its members' silence against
    /// `config.failure_timeout` before re-driving the round (see
    /// `flush_timeout`). All other suspicions come from the process-level
    /// detector through [`Endpoint::inject_suspicion`].
    fn check_failures(&mut self, now: SimTime, out: &mut Vec<Output>) {
        let members: Vec<ProcessId> = self.view.members().to_vec();
        for m in members {
            if m == self.me || self.suspected.contains(&m) {
                continue;
            }
            let heard = self.last_heard.get(&m).copied().unwrap_or(now);
            let silence = now.duration_since(heard);
            if silence > self.config.failure_timeout {
                self.suspect_peer(m, silence.as_micros());
            }
        }
        // A joiner that died while waiting must not wedge future rounds.
        let timeout = self.config.failure_timeout;
        let last_heard = &self.last_heard;
        self.pending_joins.retain(|j| {
            last_heard
                .get(j)
                .is_none_or(|&heard| now.duration_since(heard) <= timeout)
        });
        self.maybe_start_flush(now, out);
    }

    /// Periodic recovery: re-NACK data gaps, re-request assignments, and
    /// re-drive whatever flush phase we are stuck in.
    fn nack_retry(&mut self, out: &mut Vec<Output>) {
        if self.status != Status::Member && self.flush.is_none() {
            return;
        }
        if let Some(flush) = &self.flush {
            let leader = flush.leader;
            let proposal_id = flush.proposal.id();
            match flush.phase {
                FlushPhase::AwaitingCut => {
                    if leader != self.me {
                        out.push(Output::Send {
                            to: leader,
                            msg: GroupMsg::FlushInfo {
                                group: self.group,
                                proposal_id,
                                holdings: self.my_holdings(),
                            },
                        });
                    }
                }
                FlushPhase::Filling => {
                    if let Some(cut) = flush.cut.clone() {
                        for (sender, seqs) in self.participant_missing(&cut) {
                            out.push(Output::Send {
                                to: leader,
                                msg: GroupMsg::Nack {
                                    group: self.group,
                                    sender,
                                    missing: seqs,
                                },
                            });
                        }
                    }
                }
                FlushPhase::Done => {
                    if leader != self.me {
                        out.push(Output::Send {
                            to: leader,
                            msg: GroupMsg::FlushDone {
                                group: self.group,
                                proposal_id,
                            },
                        });
                    }
                }
            }
            return;
        }
        // Normal operation: recover data gaps from their senders.
        for (&sender, stream) in &self.streams {
            let gaps = stream.gaps();
            if !gaps.is_empty() && sender != self.me {
                out.push(Output::Send {
                    to: sender,
                    msg: GroupMsg::Nack {
                        group: self.group,
                        sender,
                        missing: gaps,
                    },
                });
            }
        }
        // Recover assignment gaps (or unassigned stuck agreed data) from the
        // sequencer.
        let stuck_agreed = self.streams.iter().any(|(_, st)| {
            let cur = st.cursor(DeliveryOrder::Agreed);
            cur <= st.contiguous()
        });
        let assign_gap = self
            .assignments
            .keys()
            .next_back()
            .is_some_and(|&max| max >= self.next_global_deliver)
            && !self.assignments.contains_key(&self.next_global_deliver);
        if stuck_agreed || assign_gap {
            if let Some(seq) = self.sequencer() {
                if seq != self.me {
                    out.push(Output::Send {
                        to: seq,
                        msg: GroupMsg::AssignNack {
                            group: self.group,
                            view_id: self.view.id(),
                            from_global: self.next_global_deliver,
                        },
                    });
                }
            }
        }
    }

    fn flush_timeout(&mut self, now: SimTime, proposal_id: ViewId, out: &mut Vec<Output>) {
        let Some(flush) = &self.flush else {
            return;
        };
        if flush.proposal.id() != proposal_id || flush.leader != self.me {
            return;
        }
        // Re-check failures first: a participant may have died mid-round, in
        // which case a fresh round (higher id) excluding it starts instead.
        let before = self.suspected.clone();
        self.check_failures(now, out);
        if self.suspected != before {
            return; // check_failures started a new round
        }
        let Some(flush) = &mut self.flush else {
            return;
        };
        flush.retries += 1;
        if flush.retries >= 3 {
            // Participants silent across several rounds are dead: suspect
            // them and restart without them.
            let silent: Vec<ProcessId> = flush
                .participants
                .iter()
                .copied()
                .filter(|m| {
                    *m != self.me
                        && (!flush.infos.contains_key(m)
                            || (flush.cut_sent && !flush.dones.contains(m)))
                })
                .collect();
            if !silent.is_empty() {
                for m in &silent {
                    self.suspected.insert(*m);
                    self.pending_joins.remove(m);
                    let silence_us = self
                        .last_heard
                        .get(m)
                        .map(|&heard| now.duration_since(heard).as_micros())
                        .unwrap_or(0);
                    self.obs.metrics.incr(Ctr::GroupSuspicions);
                    self.obs.emit(
                        self.now_us,
                        self.me.0,
                        EventKind::SuspicionRaised {
                            peer: m.0,
                            silence_us,
                        },
                    );
                }
                self.flush = None;
                // Everyone that adopted the stuck round is blocked; a fresh
                // round must run to completion to release them, even if the
                // membership ends up unchanged.
                let mut desired: Vec<ProcessId> = self
                    .view
                    .members()
                    .iter()
                    .copied()
                    .filter(|m| !self.suspected.contains(m) && !self.pending_leaves.contains(m))
                    .collect();
                desired.extend(self.pending_joins.iter().copied());
                desired.sort_unstable();
                desired.dedup();
                let id = ViewId(self.highest_proposal.0.max(self.view.id().0) + 1);
                self.highest_proposal = id;
                self.begin_round_as_leader(now, View::new(id, desired), out);
                return;
            }
        }
        let Some(flush) = &self.flush else {
            return;
        };
        // Same round still pending: re-drive laggards.
        let proposal = flush.proposal.clone();
        let missing_infos: Vec<ProcessId> = self
            .view
            .members()
            .iter()
            .chain(proposal.members())
            .copied()
            .filter(|m| {
                !self.suspected.contains(m) && !flush.infos.contains_key(m) && *m != self.me
            })
            .collect();
        for m in missing_infos {
            out.push(Output::Send {
                to: m,
                msg: GroupMsg::ViewProposal {
                    group: self.group,
                    proposal: proposal.clone(),
                    leader: self.me,
                },
            });
        }
        if flush.cut_sent {
            let cut = flush.cut.clone().unwrap_or_default();
            let msg = GroupMsg::FlushCut {
                group: self.group,
                proposal_id,
                cut: Arc::new(cut.iter().map(|(&s, &c)| (s, c)).collect()),
                final_assignments: flush.final_assignments.clone(),
            };
            let not_done: Vec<ProcessId> = flush
                .infos
                .keys()
                .copied()
                .filter(|m| !flush.dones.contains(m) && *m != self.me)
                .collect();
            for m in not_done {
                out.push(Output::Send {
                    to: m,
                    msg: msg.clone(),
                });
            }
        }
        out.push(Output::SetTimer {
            delay: self.config.flush_timeout,
            timer: GroupTimer::FlushTimeout(proposal_id),
        });
    }

    // ---- exploration support ----------------------------------------------

    /// Digest of the full protocol state for interleaving exploration:
    /// membership, send/receive pipelines, total-order bookkeeping, failure
    /// detection, flush progress and stability state. Excluded as
    /// telemetry-blind: `config` (immutable), `obs` and `now_us`
    /// (observability only). `last_heard` carries absolute times, which
    /// weakens merging across timing-different interleavings but never
    /// soundness.
    pub fn state_digest(&self) -> u64 {
        let mut h = vd_simnet::explore::Fnv64::new();
        h.write_u64(self.me.0);
        h.write_u64(u64::from(self.group.0));
        match &self.status {
            Status::Joining { contacts } => {
                h.write_u8(0);
                for c in contacts {
                    h.write_u64(c.0);
                }
            }
            Status::Member => h.write_u8(1),
            Status::Evicted => h.write_u8(2),
        }
        fold_view(&mut h, &self.view);

        h.write_u64(self.next_send_seq);
        h.write_u64(self.causal_sends);
        for (order, payload) in &self.pending_sends {
            h.write_u8(match order {
                DeliveryOrder::BestEffort => 0,
                DeliveryOrder::Fifo => 1,
                DeliveryOrder::Causal => 2,
                DeliveryOrder::Agreed => 3,
            });
            h.write_bytes(payload);
        }
        for msg in &self.batch {
            msg.fold_digest(&mut h);
        }
        h.write_u8(u8::from(self.batch_timer_armed));

        for (&sender, stream) in &self.streams {
            h.write_u64(sender.0);
            stream.fold_digest(&mut h);
        }
        fold_vclock(&mut h, &self.delivered_clock);

        for (&global, &(sender, seq)) in &self.assignments {
            h.write_u64(global);
            h.write_u64(sender.0);
            h.write_u64(seq);
        }
        h.write_u64(self.next_global_deliver);
        h.write_u64(self.next_assign);
        for (&m, &c) in &self.assign_cursors {
            h.write_u64(m.0);
            h.write_u64(c);
        }

        for (&m, &t) in &self.last_heard {
            h.write_u64(m.0);
            h.write_u64(t.as_micros());
        }
        for &m in &self.suspected {
            h.write_u64(m.0);
        }
        for &m in &self.pending_joins {
            h.write_u64(m.0);
        }
        h.write_u8(0xfc);
        for &m in &self.pending_leaves {
            h.write_u64(m.0);
        }

        if let Some(flush) = &self.flush {
            h.write_u8(1);
            fold_view(&mut h, &flush.proposal);
            h.write_u64(flush.leader.0);
            h.write_u8(match flush.phase {
                FlushPhase::AwaitingCut => 0,
                FlushPhase::Filling => 1,
                FlushPhase::Done => 2,
            });
            if let Some(cut) = &flush.cut {
                h.write_u8(1);
                for (&m, &c) in cut {
                    h.write_u64(m.0);
                    h.write_u64(c);
                }
            } else {
                h.write_u8(0);
            }
            for a in flush.final_assignments.iter() {
                a.fold_digest(&mut h);
            }
            for &m in &flush.participants {
                h.write_u64(m.0);
            }
            for (&m, holdings) in &flush.infos {
                h.write_u64(m.0);
                holdings.fold_digest(&mut h);
            }
            for &m in &flush.dones {
                h.write_u64(m.0);
            }
            h.write_u8(u8::from(flush.cut_sent));
            h.write_u64(u64::from(flush.retries));
        } else {
            h.write_u8(0);
        }
        h.write_u8(u8::from(self.blocked));
        h.write_u64(self.highest_proposal.0);
        for (from, msg) in &self.future_msgs {
            h.write_u64(from.0);
            // In-flight future-view messages hash by content, same as the
            // payload digest the explorer uses for queued deliveries.
            h.write_u64(msg.digest().unwrap_or(0));
        }
        if let Some(record) = &self.last_install {
            h.write_u8(1);
            fold_view(&mut h, &record.view);
            fold_vclock(&mut h, &record.causal_after);
            h.write_u64(record.next_global);
        } else {
            h.write_u8(0);
        }

        for (&peer, acks) in &self.peer_acks {
            h.write_u64(peer.0);
            for (&m, &a) in acks {
                h.write_u64(m.0);
                h.write_u64(a);
            }
            h.write_u8(0xfb);
        }
        for (&peer, &g) in &self.peer_delivered_global {
            h.write_u64(peer.0);
            h.write_u64(g);
        }
        h.finish()
    }
}
