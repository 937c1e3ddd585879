//! The replication engine: a sans-IO state machine implementing every
//! replication style and the runtime switch protocol (paper Fig. 5).
//!
//! The engine consumes the totally-ordered stream of group deliveries —
//! invokes, checkpoints, switch requests — plus view changes (which virtual
//! synchrony orders consistently against that stream), and emits
//! [`EngineOp`]s for the hosting replica actor to perform: execute a
//! request, apply or broadcast a checkpoint, start or stop the checkpoint
//! timer. Because inputs are identical at every replica, every replica's
//! engine makes identical decisions — the paper's "deterministic algorithm
//! over replicated state".
//!
//! # The switch protocol
//!
//! Fig. 5 of the paper, mapped onto this engine:
//!
//! * **I. Initiate** — any replica multicasts a `SwitchRequest` in agreed
//!   order; duplicates are discarded at delivery ([`Engine::on_switch_request`]).
//! * **II/III. Warm-passive → active** — on delivering the switch, the
//!   primary captures and multicasts *one more checkpoint* and continues as
//!   an active replica; backups buffer subsequent invokes until that final
//!   checkpoint arrives, then apply it and execute the backlog as active
//!   replicas. If the primary crashes before the checkpoint arrives (the
//!   view change is delivered instead, in a consistent order at every
//!   survivor), backups roll forward by replaying every outstanding request
//!   since their last applied checkpoint.
//! * **II/III. Active → warm-passive** — on delivering the switch, a new
//!   primary is chosen deterministically (lowest surviving id); everyone
//!   has current state, so the switch is immediate: the primary starts
//!   checkpointing, the others stop executing and start buffering.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use vd_simnet::topology::ProcessId;

use crate::messages::CachedReply;
use crate::style::ReplicationStyle;

/// One totally-ordered request delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeEntry {
    /// Position in the delivered invoke stream (1-based, identical at all
    /// replicas).
    pub index: u64,
    /// The invoking client.
    pub client: ProcessId,
    /// The client's request id.
    pub request_id: u64,
    /// Operation name.
    pub operation: String,
    /// Marshaled arguments.
    pub args: Bytes,
}

/// Instructions the engine hands its host.
#[derive(Debug, PartialEq, Eq)]
pub enum EngineOp {
    /// Execute the request against the application, cache the reply, and
    /// send it to the client iff `reply`.
    Execute {
        /// The request to execute.
        entry: InvokeEntry,
        /// Whether this replica sends the reply.
        reply: bool,
    },
    /// A duplicate of an already-executed request arrived: re-send the
    /// cached reply if the host still holds it.
    ResendCached {
        /// The retrying client.
        client: ProcessId,
        /// Its request id.
        request_id: u64,
    },
    /// Replace application state with this checkpoint.
    ApplyCheckpoint {
        /// Requests covered by the state.
        version: u64,
        /// The captured state.
        state: Bytes,
        /// Cached replies to merge into the host's reply cache.
        replies: Vec<CachedReply>,
        /// `true` when applied during a cold-passive failover, which also
        /// pays the backup-launch penalty.
        at_failover: bool,
    },
    /// Capture state and multicast a checkpoint to the group.
    BroadcastCheckpoint {
        /// `true` for the "one more checkpoint" of a warm-passive→active
        /// switch.
        final_for_switch: bool,
    },
    /// This replica became the checkpointing primary: arm the timer.
    StartCheckpointTimer,
    /// This replica stopped being the checkpointing primary.
    StopCheckpointTimer,
    /// A semi-active follower just became the leader: re-send the cached
    /// reply of every client, since the dead leader may have executed
    /// requests without their replies ever leaving (clients deduplicate).
    ResendAllCached,
    /// The replication style changed (telemetry; also marks switch
    /// completion points).
    StyleChanged {
        /// Previous style.
        from: ReplicationStyle,
        /// New style.
        to: ReplicationStyle,
    },
}

/// Verdict for a client request arriving at this replica (pre-multicast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayDecision {
    /// New request: disseminate it to the group in agreed order.
    Multicast,
    /// Already executed: re-send the cached reply.
    ResendCached,
    /// Already disseminated but not yet executed: drop (the reply will
    /// come).
    InFlight,
}

/// The per-replica replication state machine. See the module docs.
#[derive(Debug)]
pub struct Engine {
    me: ProcessId,
    style: ReplicationStyle,
    members: Vec<ProcessId>,
    synced: bool,
    delivered: u64,
    executed: u64,
    buffered: VecDeque<InvokeEntry>,
    /// Cold-passive backups store the latest checkpoint without applying.
    stored_checkpoint: Option<(u64, Bytes, Vec<CachedReply>)>,
    /// Set on backups between a warm-passive→active switch delivery and
    /// the final checkpoint (paper Fig. 5 case 1).
    awaiting_final_checkpoint: bool,
    /// A member barred from primaryship after a gray-failure demotion:
    /// it stays in the group (it is alive, just slow) but primaryship
    /// moves to the lowest healthy member. Cleared when it departs.
    demoted: Option<ProcessId>,
    /// The demotion window: open at every synced replica from an accepted
    /// demotion under a checkpointing style until the laggard's handover
    /// checkpoint is delivered, the laggard leaves the view, or it is the
    /// last member left (the demotion analogue of
    /// `awaiting_final_checkpoint`). Every replica discards switch and
    /// demotion requests delivered inside it, and whoever is primary
    /// holds execution until it closes.
    demotion_window: bool,
    /// Highest request id delivered per client (duplicate suppression).
    last_delivered: BTreeMap<ProcessId, u64>,
}

impl Engine {
    /// Creates an engine for replica `me` in a group of `members` running
    /// `style`. `synced` is `false` for a joining replica that must wait
    /// for a state-transfer checkpoint. Returns the engine plus any
    /// initial ops (arming the checkpoint timer on the primary).
    pub fn new(
        me: ProcessId,
        style: ReplicationStyle,
        members: Vec<ProcessId>,
        synced: bool,
    ) -> (Self, Vec<EngineOp>) {
        let mut members = members;
        members.sort_unstable();
        members.dedup();
        let engine = Engine {
            me,
            style,
            members,
            synced,
            delivered: 0,
            executed: 0,
            buffered: VecDeque::new(),
            stored_checkpoint: None,
            awaiting_final_checkpoint: false,
            demoted: None,
            demotion_window: false,
            last_delivered: BTreeMap::new(),
        };
        let mut ops = Vec::new();
        if synced && engine.style.uses_checkpoints() && engine.is_primary() {
            ops.push(EngineOp::StartCheckpointTimer);
        }
        (engine, ops)
    }

    // ---- accessors ----------------------------------------------------------

    /// The current replication style.
    pub fn style(&self) -> ReplicationStyle {
        self.style
    }

    /// The primary/leader of the current membership: the lowest id, but
    /// skipping a demoted (laggard) member whenever a healthy alternative
    /// exists. With no alternative the demoted member serves anyway —
    /// a slow primary beats none.
    pub fn primary(&self) -> Option<ProcessId> {
        match self.demoted {
            Some(d) if self.members.len() > 1 => self.members.iter().copied().find(|&m| m != d),
            _ => self.members.first().copied(),
        }
    }

    /// Whether this replica is the primary/leader.
    pub fn is_primary(&self) -> bool {
        self.primary() == Some(self.me)
    }

    /// Requests applied to the application state so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Invokes delivered in total order so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Delivered-but-unexecuted requests (the failover replay backlog).
    pub fn backlog(&self) -> usize {
        self.buffered.len()
    }

    /// Whether a warm-passive→active switch is waiting for its final
    /// checkpoint.
    pub fn is_switching(&self) -> bool {
        self.awaiting_final_checkpoint
    }

    /// Whether this replica is the primary and holds execution until a
    /// demotion's handover checkpoint lands (the demotion window is open).
    pub fn is_demoting(&self) -> bool {
        self.demotion_window && self.is_primary()
    }

    /// The member currently barred from primaryship by a gray-failure
    /// demotion, if any.
    pub fn demoted(&self) -> Option<ProcessId> {
        self.demoted
    }

    /// Whether this replica has synchronized state (joiners start false).
    pub fn is_synced(&self) -> bool {
        self.synced
    }

    /// Current group membership as known to the engine.
    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }

    /// Demotes this replica after it was evicted from the group (thrown
    /// out of the view, or the view fell below the configured quorum).
    /// The engine forgets the membership — so [`Engine::is_primary`] is
    /// false and no replies or checkpoints will be produced — and drops
    /// unexecutable buffered work. An evicted replica must rejoin through
    /// the state-transfer path before serving again.
    pub fn on_eviction(&mut self) {
        self.members.clear();
        self.synced = false;
        self.buffered.clear();
        self.awaiting_final_checkpoint = false;
        self.demoted = None;
        self.demotion_window = false;
    }

    fn i_reply(&self) -> bool {
        if self.style.single_replier() {
            self.is_primary()
        } else {
            true
        }
    }

    fn i_execute_now(&self) -> bool {
        if !self.synced || self.awaiting_final_checkpoint || self.demotion_window {
            return false;
        }
        if self.style.all_replicas_execute() {
            true
        } else {
            self.is_primary()
        }
    }

    // ---- gateway path ---------------------------------------------------------

    /// Classifies a client request arriving at this replica before
    /// dissemination.
    pub fn on_client_request(&self, client: ProcessId, request_id: u64) -> GatewayDecision {
        match self.last_delivered.get(&client) {
            Some(&last) if request_id <= last => {
                let in_flight = self
                    .buffered
                    .iter()
                    .any(|e| e.client == client && e.request_id == request_id);
                if in_flight {
                    GatewayDecision::InFlight
                } else {
                    GatewayDecision::ResendCached
                }
            }
            _ => GatewayDecision::Multicast,
        }
    }

    // ---- delivered inputs -------------------------------------------------------

    /// Processes a totally-ordered `Invoke` delivery.
    pub fn on_invoke(
        &mut self,
        client: ProcessId,
        request_id: u64,
        operation: String,
        args: Bytes,
    ) -> Vec<EngineOp> {
        // Duplicate dissemination (client retried through a second gateway
        // before the first copy was executed): drop, answering from cache
        // when we already executed it.
        if self
            .last_delivered
            .get(&client)
            .is_some_and(|&last| request_id <= last)
        {
            let in_flight = self
                .buffered
                .iter()
                .any(|e| e.client == client && e.request_id == request_id);
            if !in_flight && self.i_reply() {
                return vec![EngineOp::ResendCached { client, request_id }];
            }
            return Vec::new();
        }
        self.last_delivered.insert(client, request_id);
        self.delivered += 1;
        let entry = InvokeEntry {
            index: self.delivered,
            client,
            request_id,
            operation,
            args,
        };
        if self.i_execute_now() {
            self.executed = entry.index;
            vec![EngineOp::Execute {
                entry,
                reply: self.i_reply(),
            }]
        } else {
            self.buffered.push_back(entry);
            Vec::new()
        }
    }

    /// Processes a delivered checkpoint (periodic, final-for-switch, or
    /// state transfer).
    pub fn on_checkpoint(
        &mut self,
        version: u64,
        style: ReplicationStyle,
        final_for_switch: bool,
        state: Bytes,
        replies: Vec<CachedReply>,
    ) -> Vec<EngineOp> {
        let mut ops = Vec::new();
        // The checkpointed replies double as the duplicate-suppression
        // watermark: a joiner that missed the original deliveries must not
        // re-execute a client retry that veterans answer from cache.
        // Monotone max, so seeding is a no-op for current members.
        for cached in &replies {
            let last = self.last_delivered.entry(cached.client).or_insert(0);
            *last = (*last).max(cached.request_id);
        }
        if !self.synced {
            // Joining replica: adopt the group's style and state wholesale.
            self.synced = true;
            let old = self.style;
            self.style = style;
            if old != style {
                ops.push(EngineOp::StyleChanged {
                    from: old,
                    to: style,
                });
            }
            // Entries delivered between our view install and this state
            // transfer carry local indices that mean nothing against the
            // group's `version` numbering (and, unlike veterans, we also
            // numbered re-disseminated duplicates). The checkpoint's reply
            // watermark says exactly which requests its state already
            // covers: drop those, renumber the survivors after `version`,
            // and replay them.
            let covered: BTreeMap<ProcessId, u64> = replies
                .iter()
                .map(|cached| (cached.client, cached.request_id))
                .collect();
            ops.push(EngineOp::ApplyCheckpoint {
                version,
                state,
                replies,
                at_failover: false,
            });
            self.executed = version;
            self.buffered.retain(|entry| {
                covered
                    .get(&entry.client)
                    .is_none_or(|&last| entry.request_id > last)
            });
            let mut next = version;
            for entry in &mut self.buffered {
                next += 1;
                entry.index = next;
            }
            self.delivered = next;
            self.drain_backlog_if_executing(&mut ops);
            if self.style.uses_checkpoints() && self.is_primary() {
                ops.push(EngineOp::StartCheckpointTimer);
            }
            return ops;
        }
        if self.demotion_window && final_for_switch {
            // Demotion handover (Fig. 5 case 1 applied to primaryship):
            // the laggard's final checkpoint closes the window everywhere.
            // It carries the exact pre-demotion prefix: the primary applies
            // it, then takes over execution and checkpointing. Every other
            // replica takes it like any other checkpoint.
            self.demotion_window = false;
            if self.is_primary() {
                self.adopt_checkpoint(&mut ops, (version, state, replies), false);
                self.drain_backlog_if_executing(&mut ops);
                if self.style.uses_checkpoints() {
                    ops.push(EngineOp::StartCheckpointTimer);
                }
                return ops;
            }
        }
        if self.awaiting_final_checkpoint && final_for_switch {
            // Paper Fig. 5, case 1, step III: apply the one-more checkpoint,
            // then come up as an active replica and work off the backlog.
            self.adopt_checkpoint(&mut ops, (version, state, replies), false);
            self.awaiting_final_checkpoint = false;
            let old = self.style;
            self.style = ReplicationStyle::Active;
            ops.push(EngineOp::StyleChanged {
                from: old,
                to: ReplicationStyle::Active,
            });
            self.drain_backlog_if_executing(&mut ops);
            return ops;
        }
        if version <= self.executed {
            return ops; // our own checkpoint, or stale
        }
        match self.style {
            ReplicationStyle::WarmPassive => {
                self.adopt_checkpoint(&mut ops, (version, state, replies), false);
            }
            ReplicationStyle::ColdPassive => {
                // Stored, not applied: cold backups pay at recovery time.
                self.stored_checkpoint = Some((version, state, replies));
                self.buffered.retain(|e| e.index > version);
            }
            ReplicationStyle::Active | ReplicationStyle::SemiActive => {
                // Already current; state-transfer traffic for joiners.
            }
        }
        ops
    }

    /// Processes a delivered demotion request: bar `laggard` — the
    /// current primary, classified alive-but-slow by the adaptive
    /// detector — from primaryship and hand its duties to the lowest
    /// healthy member, reusing the Fig. 5 runtime-switch machinery for
    /// the state handover. Delivered in agreed order, so every replica
    /// applies the same guards and transfers at the same point in the
    /// request stream. Duplicates, stale targets (no longer primary) and
    /// demotions with no healthy successor are discarded. Under a
    /// checkpointing style an accepted demotion opens the demotion window
    /// at every replica (see `demotion_window`).
    pub fn on_demote_request(&mut self, laggard: ProcessId) -> Vec<EngineOp> {
        let mut ops = Vec::new();
        if !self.synced || self.awaiting_final_checkpoint || self.demotion_window {
            return ops; // mid-switch or mid-demotion: discarded
        }
        if self.demoted == Some(laggard)
            || self.primary() != Some(laggard)
            || self.members.len() < 2
        {
            return ops; // duplicate, stale, or no healthy successor
        }
        self.demoted = Some(laggard);
        if self.style.uses_checkpoints() {
            // Every replica opens the window: whoever is primary holds
            // execution until the handover state lands (a backup's own
            // state may trail it).
            self.demotion_window = true;
            if self.me == laggard {
                // Outgoing primary (alive, just slow): ship one final
                // checkpoint — its state is exactly the delivered prefix,
                // because passive primaries execute at delivery — and
                // stop checkpointing.
                ops.push(EngineOp::BroadcastCheckpoint {
                    final_for_switch: true,
                });
                ops.push(EngineOp::StopCheckpointTimer);
            }
        } else if self.style.single_replier() && self.is_primary() {
            // Semi-active: followers are current — the new leader takes
            // over replying and re-answers anything the demoted leader
            // executed silently.
            ops.push(EngineOp::ResendAllCached);
        }
        ops
    }

    /// Processes a delivered switch request (paper Fig. 5, step I/II).
    pub fn on_switch_request(&mut self, target: ReplicationStyle) -> Vec<EngineOp> {
        let mut ops = Vec::new();
        if !self.synced
            || self.awaiting_final_checkpoint
            || self.demotion_window
            || target == self.style
        {
            return ops; // duplicate, mid-switch or mid-demotion: discarded
        }
        let from = self.style;
        match (from.all_replicas_execute(), target.all_replicas_execute()) {
            // Passive → active-like: the primary ships one more checkpoint
            // (its state is exactly the pre-switch prefix, because it
            // executes at delivery); backups hold until it lands.
            (false, true) => {
                if self.is_primary() {
                    ops.push(EngineOp::BroadcastCheckpoint {
                        final_for_switch: true,
                    });
                    ops.push(EngineOp::StopCheckpointTimer);
                    self.style = target;
                    ops.push(EngineOp::StyleChanged { from, to: target });
                } else {
                    self.awaiting_final_checkpoint = true;
                    // Style officially changes when the checkpoint arrives.
                }
            }
            // Active-like → passive: instantaneous — everyone has current
            // state; the deterministic primary starts checkpointing.
            (true, false) => {
                self.style = target;
                ops.push(EngineOp::StyleChanged { from, to: target });
                if self.is_primary() {
                    ops.push(EngineOp::StartCheckpointTimer);
                }
            }
            // Within a family (active↔semi-active, warm↔cold): immediate.
            _ => {
                self.style = target;
                ops.push(EngineOp::StyleChanged { from, to: target });
                if target == ReplicationStyle::WarmPassive {
                    // Warm applies eagerly: catch up from a stored cold
                    // checkpoint if we have one.
                    self.restore_stored_checkpoint(&mut ops, false);
                }
            }
        }
        ops
    }

    /// Processes a view change (membership delta), delivered by virtual
    /// synchrony in a consistent order against the message stream.
    pub fn on_view_change(
        &mut self,
        members: Vec<ProcessId>,
        departed: &[ProcessId],
        joined: &[ProcessId],
    ) -> Vec<EngineOp> {
        let old_primary = self.primary();
        let survivors_min = self
            .members
            .iter()
            .copied()
            .filter(|m| !departed.contains(m))
            .min();
        let mut members = members;
        members.sort_unstable();
        members.dedup();
        self.members = members;
        let mut ops = Vec::new();
        if !self.synced {
            return ops;
        }
        // State transfer to joiners: the lowest surviving old member ships
        // a checkpoint (all styles — under active it is pure state
        // transfer, under passive it doubles as a periodic checkpoint).
        if !joined.is_empty() && survivors_min == Some(self.me) {
            ops.push(EngineOp::BroadcastCheckpoint {
                final_for_switch: false,
            });
        }
        let mut handover_lost = false;
        if self.demoted.is_some_and(|d| !self.members.contains(&d)) {
            // The demoted laggard left the group (crashed for real, or
            // evicted for persistent lag): forget the bar. If its
            // handover checkpoint never arrived, none is coming — the
            // window closes and the primary recovers like a passive
            // failover.
            self.demoted = None;
            handover_lost = std::mem::take(&mut self.demotion_window);
        } else if self.demotion_window && self.primary() == self.demoted {
            // The laggard is the last member left and serves again: it
            // holds the handover state itself, so nothing is awaited.
            self.demotion_window = false;
        }
        let primary_died = old_primary.is_some_and(|p| departed.contains(&p));
        if self.awaiting_final_checkpoint && primary_died {
            // Paper Fig. 5, case 1, step III, crash branch: no checkpoint is
            // coming — roll forward by replaying everything outstanding.
            self.awaiting_final_checkpoint = false;
            let from = self.style;
            self.style = ReplicationStyle::Active;
            ops.push(EngineOp::StyleChanged {
                from,
                to: ReplicationStyle::Active,
            });
            self.replay_backlog(&mut ops);
            return ops;
        }
        if (primary_died || handover_lost) && self.style.single_replier() {
            if self.style.uses_checkpoints() {
                // Passive failover: the new primary recovers and replays,
                // unless a demotion's handover checkpoint, which it must
                // apply first, is still in flight.
                if self.is_primary() && !self.demotion_window {
                    if self.style == ReplicationStyle::ColdPassive {
                        self.restore_stored_checkpoint(&mut ops, true);
                    }
                    self.replay_backlog(&mut ops);
                    ops.push(EngineOp::StartCheckpointTimer);
                }
            } else if self.is_primary() {
                // Semi-active: followers are current; the new leader takes
                // over replying — and re-answers anything the dead leader
                // executed silently.
                ops.push(EngineOp::ResendAllCached);
            }
        }
        ops
    }

    /// The periodic checkpoint timer fired.
    pub fn on_checkpoint_timer(&self) -> Vec<EngineOp> {
        if self.synced && self.style.uses_checkpoints() && self.is_primary() {
            vec![
                EngineOp::BroadcastCheckpoint {
                    final_for_switch: false,
                },
                EngineOp::StartCheckpointTimer,
            ]
        } else {
            Vec::new()
        }
    }

    // ---- internals ---------------------------------------------------------------

    /// Adopts a checkpoint's state: the host applies it, everything it
    /// covers counts as executed, and the backlog it covers is dropped.
    /// (A joiner's state transfer is adopted on its own path: it also
    /// renumbers the backlog.)
    fn adopt_checkpoint(
        &mut self,
        ops: &mut Vec<EngineOp>,
        (version, state, replies): (u64, Bytes, Vec<CachedReply>),
        at_failover: bool,
    ) {
        ops.push(EngineOp::ApplyCheckpoint {
            version,
            state,
            replies,
            at_failover,
        });
        self.executed = self.executed.max(version);
        self.buffered.retain(|e| e.index > version);
    }

    /// Adopts the stored cold-passive checkpoint, if one is ahead of what
    /// was executed (`at_failover`: a backup taking over, which also pays
    /// the launch penalty).
    fn restore_stored_checkpoint(&mut self, ops: &mut Vec<EngineOp>, at_failover: bool) {
        if let Some(stored) = self.stored_checkpoint.take() {
            if stored.0 > self.executed {
                self.adopt_checkpoint(ops, stored, at_failover);
            }
        }
    }

    fn drain_backlog_if_executing(&mut self, ops: &mut Vec<EngineOp>) {
        if self.i_execute_now() {
            self.replay_backlog(ops);
        }
    }

    fn replay_backlog(&mut self, ops: &mut Vec<EngineOp>) {
        let reply = self.i_reply();
        while let Some(entry) = self.buffered.pop_front() {
            self.executed = entry.index;
            ops.push(EngineOp::Execute { entry, reply });
        }
    }

    /// Digest of the full state-machine state for interleaving exploration.
    /// Every field influences future decisions, so all twelve are covered.
    pub fn state_digest(&self) -> u64 {
        let mut h = vd_simnet::explore::Fnv64::new();
        h.write_u64(self.me.0);
        h.write_u8(style_tag(self.style));
        for &m in &self.members {
            h.write_u64(m.0);
        }
        h.write_u8(u8::from(self.synced));
        h.write_u64(self.delivered);
        h.write_u64(self.executed);
        for entry in &self.buffered {
            fold_invoke_entry(&mut h, entry);
        }
        if let Some((version, state, replies)) = &self.stored_checkpoint {
            h.write_u8(1);
            h.write_u64(*version);
            h.write_bytes(state);
            for r in replies {
                fold_cached_reply(&mut h, r);
            }
        } else {
            h.write_u8(0);
        }
        h.write_u8(u8::from(self.awaiting_final_checkpoint));
        h.write_u64(match self.demoted {
            Some(d) => d.0.wrapping_add(1),
            None => 0,
        });
        h.write_u8(u8::from(self.demotion_window));
        for (&client, &rid) in &self.last_delivered {
            h.write_u64(client.0);
            h.write_u64(rid);
        }
        h.finish()
    }
}

/// Stable one-byte tag per replication style (exploration digests).
pub(crate) fn style_tag(style: ReplicationStyle) -> u8 {
    match style {
        ReplicationStyle::Active => 0,
        ReplicationStyle::WarmPassive => 1,
        ReplicationStyle::ColdPassive => 2,
        ReplicationStyle::SemiActive => 3,
    }
}

/// Folds one totally-ordered invoke into an exploration digest.
pub(crate) fn fold_invoke_entry(h: &mut vd_simnet::explore::Fnv64, entry: &InvokeEntry) {
    h.write_u64(entry.index);
    h.write_u64(entry.client.0);
    h.write_u64(entry.request_id);
    h.write_bytes(entry.operation.as_bytes());
    h.write_u8(0xff);
    h.write_bytes(&entry.args);
}

/// Folds one cached reply into an exploration digest.
pub(crate) fn fold_cached_reply(h: &mut vd_simnet::explore::Fnv64, reply: &CachedReply) {
    h.write_u64(reply.client.0);
    h.write_u64(reply.request_id);
    h.write_u8(reply.status);
    h.write_bytes(&reply.body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> ProcessId {
        ProcessId(n)
    }

    fn invoke(engine: &mut Engine, client: u64, id: u64) -> Vec<EngineOp> {
        engine.on_invoke(p(client), id, "op".into(), Bytes::new())
    }

    fn executed_entries(ops: &[EngineOp]) -> Vec<(u64, bool)> {
        ops.iter()
            .filter_map(|op| {
                if let EngineOp::Execute { entry, reply } = op {
                    Some((entry.request_id, *reply))
                } else {
                    None
                }
            })
            .collect()
    }

    fn trio(style: ReplicationStyle, me: u64) -> (Engine, Vec<EngineOp>) {
        Engine::new(p(me), style, vec![p(1), p(2), p(3)], true)
    }

    #[test]
    fn active_replicas_all_execute_and_reply() {
        for me in 1..=3 {
            let (mut e, init) = trio(ReplicationStyle::Active, me);
            assert!(init.is_empty());
            let ops = invoke(&mut e, 100, 1);
            assert_eq!(executed_entries(&ops), vec![(1, true)]);
            assert_eq!(e.executed(), 1);
            assert_eq!(e.backlog(), 0);
        }
    }

    #[test]
    fn warm_passive_primary_executes_backups_buffer() {
        let (mut primary, init) = trio(ReplicationStyle::WarmPassive, 1);
        assert_eq!(init, vec![EngineOp::StartCheckpointTimer]);
        let ops = invoke(&mut primary, 100, 1);
        assert_eq!(executed_entries(&ops), vec![(1, true)]);

        let (mut backup, init) = trio(ReplicationStyle::WarmPassive, 2);
        assert!(init.is_empty());
        let ops = invoke(&mut backup, 100, 1);
        assert!(ops.is_empty());
        assert_eq!(backup.backlog(), 1);
        assert_eq!(backup.executed(), 0);
    }

    #[test]
    fn semi_active_followers_execute_silently() {
        let (mut leader, _) = trio(ReplicationStyle::SemiActive, 1);
        assert_eq!(
            executed_entries(&invoke(&mut leader, 9, 1)),
            vec![(1, true)]
        );
        let (mut follower, _) = trio(ReplicationStyle::SemiActive, 2);
        assert_eq!(
            executed_entries(&invoke(&mut follower, 9, 1)),
            vec![(1, false)]
        );
    }

    #[test]
    fn warm_backup_applies_checkpoint_and_drops_covered_backlog() {
        let (mut backup, _) = trio(ReplicationStyle::WarmPassive, 2);
        for id in 1..=5 {
            invoke(&mut backup, 100, id);
        }
        assert_eq!(backup.backlog(), 5);
        let ops = backup.on_checkpoint(
            3,
            ReplicationStyle::WarmPassive,
            false,
            Bytes::from_static(b"s"),
            vec![],
        );
        assert!(matches!(
            ops[0],
            EngineOp::ApplyCheckpoint {
                version: 3,
                at_failover: false,
                ..
            }
        ));
        assert_eq!(backup.executed(), 3);
        assert_eq!(backup.backlog(), 2);
    }

    #[test]
    fn warm_failover_replays_backlog_and_takes_over() {
        let (mut backup, _) = trio(ReplicationStyle::WarmPassive, 2);
        for id in 1..=4 {
            invoke(&mut backup, 100, id);
        }
        backup.on_checkpoint(
            2,
            ReplicationStyle::WarmPassive,
            false,
            Bytes::new(),
            vec![],
        );
        let ops = backup.on_view_change(vec![p(2), p(3)], &[p(1)], &[]);
        assert_eq!(executed_entries(&ops), vec![(3, true), (4, true)]);
        assert!(ops.contains(&EngineOp::StartCheckpointTimer));
        assert!(backup.is_primary());
        assert_eq!(backup.executed(), 4);
    }

    #[test]
    fn cold_backup_stores_checkpoints_and_recovers_at_failover() {
        let (mut backup, _) = trio(ReplicationStyle::ColdPassive, 2);
        for id in 1..=6 {
            invoke(&mut backup, 100, id);
        }
        // Checkpoints are stored, not applied.
        let ops = backup.on_checkpoint(
            4,
            ReplicationStyle::ColdPassive,
            false,
            Bytes::from_static(b"cold"),
            vec![],
        );
        assert!(ops.is_empty());
        assert_eq!(backup.executed(), 0);
        assert_eq!(backup.backlog(), 2, "log beyond the stored checkpoint");
        // Failover: apply the stored checkpoint (with the launch penalty)
        // and replay the log.
        let ops = backup.on_view_change(vec![p(2), p(3)], &[p(1)], &[]);
        assert!(matches!(
            ops[0],
            EngineOp::ApplyCheckpoint {
                version: 4,
                at_failover: true,
                ..
            }
        ));
        assert_eq!(executed_entries(&ops), vec![(5, true), (6, true)]);
        assert_eq!(backup.executed(), 6);
    }

    #[test]
    fn switch_warm_to_active_primary_ships_final_checkpoint() {
        let (mut primary, _) = trio(ReplicationStyle::WarmPassive, 1);
        invoke(&mut primary, 100, 1);
        let ops = primary.on_switch_request(ReplicationStyle::Active);
        assert!(ops.contains(&EngineOp::BroadcastCheckpoint {
            final_for_switch: true
        }));
        assert!(ops.contains(&EngineOp::StopCheckpointTimer));
        assert_eq!(primary.style(), ReplicationStyle::Active);
        // And it keeps executing immediately.
        let ops = invoke(&mut primary, 100, 2);
        assert_eq!(executed_entries(&ops), vec![(2, true)]);
    }

    #[test]
    fn switch_warm_to_active_backup_waits_for_final_checkpoint() {
        let (mut backup, _) = trio(ReplicationStyle::WarmPassive, 2);
        invoke(&mut backup, 100, 1);
        assert!(backup
            .on_switch_request(ReplicationStyle::Active)
            .is_empty());
        assert!(backup.is_switching());
        // Post-switch invokes are held, not executed.
        assert!(invoke(&mut backup, 100, 2).is_empty());
        assert_eq!(backup.backlog(), 2);
        // The final checkpoint covers the pre-switch prefix (version 1);
        // the backlog beyond it executes as active.
        let ops =
            backup.on_checkpoint(1, ReplicationStyle::WarmPassive, true, Bytes::new(), vec![]);
        assert!(ops.iter().any(|op| matches!(
            op,
            EngineOp::StyleChanged {
                to: ReplicationStyle::Active,
                ..
            }
        )));
        assert_eq!(executed_entries(&ops), vec![(2, true)]);
        assert!(!backup.is_switching());
        assert_eq!(backup.style(), ReplicationStyle::Active);
    }

    #[test]
    fn switch_crash_branch_rolls_forward_without_checkpoint() {
        // Fig. 5 case 1: "if no checkpoints received && detect crash of
        // previous primary → process all outstanding requests (rollback)".
        let (mut backup, _) = trio(ReplicationStyle::WarmPassive, 2);
        invoke(&mut backup, 100, 1);
        invoke(&mut backup, 100, 2);
        backup.on_switch_request(ReplicationStyle::Active);
        invoke(&mut backup, 100, 3);
        let ops = backup.on_view_change(vec![p(2), p(3)], &[p(1)], &[]);
        assert_eq!(
            executed_entries(&ops),
            vec![(1, true), (2, true), (3, true)]
        );
        assert_eq!(backup.style(), ReplicationStyle::Active);
        assert!(!backup.is_switching());
    }

    #[test]
    fn switch_active_to_warm_is_immediate_and_deterministic() {
        let (mut a, _) = trio(ReplicationStyle::Active, 1);
        let (mut b, _) = trio(ReplicationStyle::Active, 2);
        invoke(&mut a, 100, 1);
        invoke(&mut b, 100, 1);
        let ops_a = a.on_switch_request(ReplicationStyle::WarmPassive);
        let ops_b = b.on_switch_request(ReplicationStyle::WarmPassive);
        assert!(ops_a.contains(&EngineOp::StartCheckpointTimer));
        assert!(!ops_b.contains(&EngineOp::StartCheckpointTimer));
        assert!(a.is_primary());
        // Post-switch: only the new primary executes.
        assert_eq!(executed_entries(&invoke(&mut a, 100, 2)), vec![(2, true)]);
        assert!(invoke(&mut b, 100, 2).is_empty());
        assert_eq!(b.backlog(), 1);
    }

    #[test]
    fn duplicate_switch_requests_are_discarded() {
        let (mut e, _) = trio(ReplicationStyle::Active, 1);
        assert!(!e
            .on_switch_request(ReplicationStyle::WarmPassive)
            .is_empty());
        assert!(e
            .on_switch_request(ReplicationStyle::WarmPassive)
            .is_empty());
    }

    #[test]
    fn duplicate_invokes_answer_from_cache_or_stay_silent() {
        let (mut e, _) = trio(ReplicationStyle::Active, 1);
        invoke(&mut e, 100, 1);
        let ops = invoke(&mut e, 100, 1);
        assert_eq!(
            ops,
            vec![EngineOp::ResendCached {
                client: p(100),
                request_id: 1
            }]
        );
        // A backup that buffered the in-flight request stays silent.
        let (mut b, _) = trio(ReplicationStyle::WarmPassive, 2);
        invoke(&mut b, 100, 1);
        assert!(invoke(&mut b, 100, 1).is_empty());
    }

    #[test]
    fn gateway_classification() {
        let (mut e, _) = trio(ReplicationStyle::Active, 1);
        assert_eq!(e.on_client_request(p(100), 1), GatewayDecision::Multicast);
        invoke(&mut e, 100, 1);
        assert_eq!(
            e.on_client_request(p(100), 1),
            GatewayDecision::ResendCached
        );
        assert_eq!(e.on_client_request(p(100), 2), GatewayDecision::Multicast);
        let (mut b, _) = trio(ReplicationStyle::WarmPassive, 2);
        invoke(&mut b, 100, 1);
        assert_eq!(b.on_client_request(p(100), 1), GatewayDecision::InFlight);
    }

    #[test]
    fn joiner_syncs_from_checkpoint_and_drains_backlog() {
        let (mut joiner, init) = Engine::new(
            p(4),
            ReplicationStyle::Active,
            vec![p(1), p(2), p(3), p(4)],
            false,
        );
        assert!(init.is_empty());
        // Invokes before the sync checkpoint are buffered.
        assert!(invoke(&mut joiner, 100, 1).is_empty());
        assert!(invoke(&mut joiner, 100, 2).is_empty());
        let ops = joiner.on_checkpoint(
            1,
            ReplicationStyle::Active,
            false,
            Bytes::from_static(b"xfer"),
            vec![CachedReply {
                client: p(100),
                request_id: 1,
                status: 0,
                body: Bytes::from_static(b"r1"),
            }],
        );
        assert!(matches!(
            ops[0],
            EngineOp::ApplyCheckpoint { version: 1, .. }
        ));
        // The reply watermark shows request 1 is covered by the checkpoint;
        // request 2 is rebased after `version` and executes now.
        assert_eq!(executed_entries(&ops), vec![(2, true)]);
        assert!(joiner.is_synced());
        // The covered request stays suppressed after the join.
        assert_eq!(
            joiner.on_client_request(p(100), 1),
            GatewayDecision::ResendCached
        );
    }

    #[test]
    fn view_change_with_join_makes_lowest_survivor_ship_state() {
        let (mut e, _) = trio(ReplicationStyle::Active, 1);
        let ops = e.on_view_change(vec![p(1), p(2), p(3), p(4)], &[], &[p(4)]);
        assert_eq!(
            ops,
            vec![EngineOp::BroadcastCheckpoint {
                final_for_switch: false
            }]
        );
        let (mut e2, _) = trio(ReplicationStyle::Active, 2);
        assert!(e2
            .on_view_change(vec![p(1), p(2), p(3), p(4)], &[], &[p(4)])
            .is_empty());
    }

    #[test]
    fn semi_active_leader_crash_promotes_follower_silently() {
        let (mut f, _) = trio(ReplicationStyle::SemiActive, 2);
        invoke(&mut f, 100, 1);
        assert_eq!(f.executed(), 1);
        let ops = f.on_view_change(vec![p(2), p(3)], &[p(1)], &[]);
        // State is already current — no replay, just a re-send of cached
        // replies the dead leader may never have delivered.
        assert_eq!(ops, vec![EngineOp::ResendAllCached]);
        assert!(f.is_primary());
        // New leader now replies.
        assert_eq!(executed_entries(&invoke(&mut f, 100, 2)), vec![(2, true)]);
    }

    #[test]
    fn checkpoint_timer_only_fires_work_on_the_checkpointing_primary() {
        let (primary, _) = trio(ReplicationStyle::WarmPassive, 1);
        assert_eq!(primary.on_checkpoint_timer().len(), 2);
        let (backup, _) = trio(ReplicationStyle::WarmPassive, 2);
        assert!(backup.on_checkpoint_timer().is_empty());
        let (active, _) = trio(ReplicationStyle::Active, 1);
        assert!(active.on_checkpoint_timer().is_empty());
    }

    #[test]
    fn cold_to_warm_switch_applies_stored_checkpoint() {
        let (mut backup, _) = trio(ReplicationStyle::ColdPassive, 2);
        for id in 1..=3 {
            invoke(&mut backup, 100, id);
        }
        backup.on_checkpoint(
            2,
            ReplicationStyle::ColdPassive,
            false,
            Bytes::new(),
            vec![],
        );
        let ops = backup.on_switch_request(ReplicationStyle::WarmPassive);
        assert!(ops
            .iter()
            .any(|op| matches!(op, EngineOp::ApplyCheckpoint { version: 2, .. })));
        assert_eq!(backup.executed(), 2);
        assert_eq!(backup.style(), ReplicationStyle::WarmPassive);
    }

    #[test]
    fn demotion_hands_primaryship_to_a_healthy_backup() {
        // Outgoing laggard primary: ships the handover checkpoint and
        // stops checkpointing, but stays in the group as a backup.
        let (mut old, _) = trio(ReplicationStyle::WarmPassive, 1);
        invoke(&mut old, 100, 1);
        let ops = old.on_demote_request(p(1));
        assert!(ops.contains(&EngineOp::BroadcastCheckpoint {
            final_for_switch: true
        }));
        assert!(ops.contains(&EngineOp::StopCheckpointTimer));
        assert_eq!(old.primary(), Some(p(2)));
        assert!(!old.is_primary());
        assert_eq!(old.demoted(), Some(p(1)));

        // Incoming primary: holds execution until the handover lands.
        let (mut new, _) = trio(ReplicationStyle::WarmPassive, 2);
        invoke(&mut new, 100, 1);
        assert!(new.on_demote_request(p(1)).is_empty());
        assert!(new.is_demoting());
        assert!(new.is_primary());
        // Work delivered mid-handover stays buffered.
        invoke(&mut new, 100, 2);
        assert_eq!(new.backlog(), 2);
        let ops = new.on_checkpoint(
            1,
            ReplicationStyle::WarmPassive,
            true,
            Bytes::from_static(b"h"),
            vec![],
        );
        assert!(matches!(
            ops[0],
            EngineOp::ApplyCheckpoint { version: 1, .. }
        ));
        assert_eq!(executed_entries(&ops), vec![(2, true)]);
        assert!(ops.contains(&EngineOp::StartCheckpointTimer));
        assert!(!new.is_demoting());
        assert_eq!(new.executed(), 2);
    }

    #[test]
    fn demotion_guards_discard_stale_and_duplicate_requests() {
        let (mut e, _) = trio(ReplicationStyle::Active, 2);
        // Demoting a non-primary is stale.
        assert!(e.on_demote_request(p(3)).is_empty());
        assert_eq!(e.demoted(), None);
        // Active style: state is everywhere, demotion is immediate.
        e.on_demote_request(p(1));
        assert_eq!(e.primary(), Some(p(2)));
        // Duplicate discarded.
        assert!(e.on_demote_request(p(1)).is_empty());
        // A lone replica can never demote itself.
        let (mut lone, _) = Engine::new(p(1), ReplicationStyle::Active, vec![p(1)], true);
        assert!(lone.on_demote_request(p(1)).is_empty());
        assert_eq!(lone.demoted(), None);
    }

    #[test]
    fn semi_active_demotion_is_immediate_and_new_leader_reanswers() {
        let (mut leader2, _) = trio(ReplicationStyle::SemiActive, 2);
        let ops = leader2.on_demote_request(p(1));
        assert_eq!(ops, vec![EngineOp::ResendAllCached]);
        assert!(leader2.is_primary());
        // The demoted leader keeps executing, silently.
        let (mut old, _) = trio(ReplicationStyle::SemiActive, 1);
        old.on_demote_request(p(1));
        assert_eq!(executed_entries(&invoke(&mut old, 9, 1)), vec![(1, false)]);
    }

    #[test]
    fn demoted_primary_crash_mid_handover_rolls_forward() {
        let (mut new, _) = trio(ReplicationStyle::WarmPassive, 2);
        for id in 1..=3 {
            invoke(&mut new, 100, id);
        }
        new.on_checkpoint(
            1,
            ReplicationStyle::WarmPassive,
            false,
            Bytes::new(),
            vec![],
        );
        new.on_demote_request(p(1));
        assert!(new.is_demoting());
        // The laggard turned out to be dead after all: no handover is
        // coming — replay from the last applied checkpoint.
        let ops = new.on_view_change(vec![p(2), p(3)], &[p(1)], &[]);
        assert!(!new.is_demoting());
        assert_eq!(new.demoted(), None);
        assert_eq!(executed_entries(&ops), vec![(2, true), (3, true)]);
        assert!(ops.contains(&EngineOp::StartCheckpointTimer));
    }

    /// Three warm-passive replicas, each fed request 1, then `inputs`, then
    /// request 2: returns every replica's engine and whether it executed
    /// request 2.
    fn demotion_window_trio(inputs: &[fn(&mut Engine) -> Vec<EngineOp>]) -> Vec<(Engine, bool)> {
        (1..=3)
            .map(|me| {
                let (mut e, _) = trio(ReplicationStyle::WarmPassive, me);
                invoke(&mut e, 100, 1);
                for input in inputs {
                    input(&mut e);
                }
                let executed = !executed_entries(&invoke(&mut e, 100, 2)).is_empty();
                (e, executed)
            })
            .collect()
    }

    /// p1's handover checkpoint, as every replica delivers it.
    fn handover(e: &mut Engine) -> Vec<EngineOp> {
        e.on_checkpoint(
            1,
            ReplicationStyle::WarmPassive,
            true,
            Bytes::from_static(b"h"),
            vec![],
        )
    }

    #[test]
    fn a_switch_inside_the_demotion_window_is_discarded_everywhere() {
        let group = demotion_window_trio(&[
            |e| e.on_demote_request(p(1)),
            |e| e.on_switch_request(ReplicationStyle::Active),
            handover,
        ]);
        for (e, _) in &group {
            assert_eq!(
                e.style(),
                ReplicationStyle::WarmPassive,
                "replica {:?}",
                e.me
            );
            assert_eq!(e.primary(), Some(p(2)), "replica {:?}", e.me);
        }
        let executors: Vec<ProcessId> = group
            .iter()
            .filter(|(_, x)| *x)
            .map(|(e, _)| e.me)
            .collect();
        assert_eq!(executors, vec![p(2)], "one replica executes as primary");
    }

    #[test]
    fn a_second_demotion_inside_the_window_is_discarded_everywhere() {
        let group = demotion_window_trio(&[
            |e| e.on_demote_request(p(1)),
            |e| e.on_demote_request(p(2)),
            handover,
        ]);
        for (e, _) in &group {
            assert_eq!(e.demoted(), Some(p(1)), "replica {:?}", e.me);
            assert_eq!(e.primary(), Some(p(2)), "replica {:?}", e.me);
        }
        let executors: Vec<ProcessId> = group
            .iter()
            .filter(|(_, x)| *x)
            .map(|(e, _)| e.me)
            .collect();
        assert_eq!(executors, vec![p(2)], "one replica executes as primary");
    }

    #[test]
    fn a_primary_taking_over_mid_window_waits_for_the_handover() {
        // The incoming primary crashes before the laggard's handover
        // lands: the next primary must not execute on its own, older state.
        let (mut e, _) = trio(ReplicationStyle::WarmPassive, 3);
        invoke(&mut e, 100, 1);
        e.on_demote_request(p(1));
        let ops = e.on_view_change(vec![p(1), p(3)], &[p(2)], &[]);
        assert!(executed_entries(&ops).is_empty());
        assert!(!ops.contains(&EngineOp::StartCheckpointTimer));
        assert!(e.is_primary());
        assert!(e.is_demoting());
        assert!(executed_entries(&invoke(&mut e, 100, 2)).is_empty());
        let ops = handover(&mut e);
        assert!(matches!(
            ops[0],
            EngineOp::ApplyCheckpoint { version: 1, .. }
        ));
        assert_eq!(executed_entries(&ops), vec![(2, true)]);
        assert!(ops.contains(&EngineOp::StartCheckpointTimer));
        assert!(!e.is_demoting());
    }

    #[test]
    fn demoted_member_serves_again_only_as_last_resort() {
        let (mut e, _) = Engine::new(p(1), ReplicationStyle::WarmPassive, vec![p(1), p(2)], true);
        e.on_demote_request(p(1));
        assert!(!e.is_primary());
        // The healthy successor dies: a slow primary beats none.
        let ops = e.on_view_change(vec![p(1)], &[p(2)], &[]);
        assert!(e.is_primary());
        assert!(ops.contains(&EngineOp::StartCheckpointTimer));
        assert_eq!(e.demoted(), Some(p(1)), "the bar outlives the fallback");
    }
}
