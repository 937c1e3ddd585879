//! The replicator process: the paper's three-layer stack, hosted as one
//! simulator actor per replica — now multiplexed over any number of
//! object groups (the scalability knob's unit of distribution).
//!
//! Layering (paper Fig. 2):
//!
//! * **Top — interface to the application/ORB.** Client GIOP frames arrive
//!   point-to-point (the interposed "TCP" path); the replicator routes
//!   them to the hosting object group by [`ObjectKey`], classifies them
//!   (new / in-flight / already answered) and redirects new requests onto
//!   group communication. Replies flow back out through the same
//!   interposition layer.
//! * **Middle — tunable replication mechanisms.** One
//!   [`ReplicationEngine`] per hosted group: per-style execution,
//!   checkpointing, failover and the runtime switch protocol, each group
//!   with its own independent knobs, policies and monitor.
//! * **Bottom — interface to group communication.** An embedded
//!   [`MultiEndpoint`]: per-group agreed-order multicast and
//!   view-synchronous membership behind one *shared* process-level
//!   failure detector (heartbeat traffic does not scale with the number
//!   of co-located groups).

use std::collections::BTreeMap;

use bytes::Bytes;

use vd_group::api::GroupEvent;
use vd_group::config::GroupConfig;
use vd_group::endpoint::Endpoint;
use vd_group::message::{GroupId, GroupMsg};
use vd_group::multi::{MultiEndpoint, MultiOutput, MultiTimer, ProcessHeartbeat};
use vd_group::order::DeliveryOrder;
use vd_group::sim::{
    apply_multi_outputs, group_scoped_from_token, group_scoped_token, multi_timer_from_token,
};
use vd_obs::{Ctr, EventKind as ObsEvent, Gauge, Hist, Obs, ObsHandle, SmallStr, SwitchPhase};
use vd_orb::object::ObjectKey;
use vd_orb::wire::{OrbMessage, Reply, ReplyStatus};
use vd_simnet::actor::{downcast_payload, Actor, Context, Payload, TimerToken};
use vd_simnet::explore::Fnv64;
use vd_simnet::time::{SimDuration, SimTime};
use vd_simnet::topology::ProcessId;

use crate::engine::{Engine, EngineOp, GatewayDecision, InvokeEntry};
use crate::knobs::LowLevelKnobs;
use crate::messages::{CachedReply, ReplicatorMsg};
use crate::monitor::{Monitor, Observations};
use crate::policy::{AdaptationAction, AdaptationPolicy, PolicyContext};
use crate::repstate::SystemBoard;
use crate::state::{apply_delta_in_place, diff_state, ReplicatedApplication};
use crate::style::ReplicationStyle;

/// Low bits of the group-scoped periodic-checkpoint timer token.
const CHECKPOINT_LOW: u64 = 200;
/// Low bits of the group-scoped policy-evaluation timer token.
const POLICY_LOW: u64 = 201;
/// Low bits of the group-scoped monitoring-report timer token.
const REPORT_LOW: u64 = 202;

/// CPU-cost model of the replicator itself, calibrated to the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaCosts {
    /// Interposition cost per message traversal (Fig. 3: 154 µs per round
    /// trip across four traversals ≈ 38 µs).
    pub interposition: SimDuration,
    /// ORB marshal/unmarshal per traversal (Fig. 3: 398 µs / 4 ≈ 100 µs).
    pub orb_marshal: SimDuration,
    /// Fixed cost of capturing or restoring a checkpoint.
    pub checkpoint_base: SimDuration,
    /// Additional capture/restore cost per KiB of state.
    pub checkpoint_per_kib: SimDuration,
    /// Extra penalty for launching a cold backup at failover.
    pub cold_launch: SimDuration,
    /// Group-communication daemon work charged once per multicast issued.
    /// Together with [`ReplicaCosts::group_send_per_copy`], the per-message
    /// delivery charge and the daemon-pipeline link latency of the
    /// test-bed, this reproduces the 620 µs/round-trip the paper's Fig. 3
    /// attributes to the GC layer.
    pub group_send_base: SimDuration,
    /// Additional daemon work per destination copy of a multicast (larger
    /// groups cost the sender more).
    pub group_send_per_copy: SimDuration,
    /// Daemon work charged per delivered group data message.
    pub group_delivery: SimDuration,
    /// Extra processing at a backup for logging one reply record (the
    /// synchronous per-request logging that makes passive styles slower
    /// than active despite using less bandwidth).
    pub reply_log_processing: SimDuration,
    /// Processing at the primary per received log acknowledgement (scales
    /// with the number of backups).
    pub ack_processing: SimDuration,
}

impl ReplicaCosts {
    /// Costs matching the paper's Fig. 3 breakdown.
    pub fn paper_calibrated() -> Self {
        ReplicaCosts {
            interposition: SimDuration::from_micros(38),
            orb_marshal: SimDuration::from_micros(100),
            checkpoint_base: SimDuration::from_micros(20),
            checkpoint_per_kib: SimDuration::from_micros(25),
            cold_launch: SimDuration::from_millis(5),
            group_send_base: SimDuration::from_micros(60),
            group_send_per_copy: SimDuration::from_micros(200),
            group_delivery: SimDuration::from_micros(60),
            reply_log_processing: SimDuration::from_micros(400),
            ack_processing: SimDuration::from_micros(200),
        }
    }
}

impl Default for ReplicaCosts {
    fn default() -> Self {
        ReplicaCosts::paper_calibrated()
    }
}

/// Static configuration of one replication group hosted by a replica
/// process. There is no `Default`: the group id must always be supplied
/// by the caller (via [`ReplicaConfig::for_group`]), never defaulted
/// inline.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The replica group id.
    pub group: GroupId,
    /// Group-communication tuning (heartbeats = the fault-monitoring
    /// knobs).
    pub group_config: GroupConfig,
    /// The fault-tolerance knobs (style, checkpointing interval, …).
    pub knobs: LowLevelKnobs,
    /// The replicator cost model.
    pub costs: ReplicaCosts,
    /// How often adaptation policies are evaluated.
    pub policy_interval: SimDuration,
    /// How often this replica multicasts a monitoring report to the
    /// replicated system board (`None` disables reports).
    pub report_interval: Option<SimDuration>,
    /// Observability endpoint (trace sink + metrics registry) shared with
    /// the embedded group endpoint. Defaults to a disabled sink with a
    /// private registry; testbeds install one per group — built with
    /// [`Obs::for_group`] so every event carries the group label — all
    /// sharing a run-wide trace sink.
    pub obs: ObsHandle,
    /// Recovery managers (see [`crate::recovery`]) this group keeps
    /// informed: it sends them membership reports on every view change
    /// and policy tick, fresh fault-detector suspicions, and the
    /// replica-count directives its policies emit. Empty (the default)
    /// disables all manager traffic.
    pub managers: Vec<ProcessId>,
}

impl ReplicaConfig {
    /// The default configuration for one explicitly-named object group.
    pub fn for_group(group: GroupId) -> Self {
        ReplicaConfig {
            group,
            group_config: GroupConfig::default(),
            knobs: LowLevelKnobs::default(),
            costs: ReplicaCosts::default(),
            policy_interval: SimDuration::from_millis(20),
            report_interval: None,
            obs: Obs::disabled(),
            managers: Vec::new(),
        }
    }
}

/// Operator commands injected into a replica from outside the simulation
/// (tests, examples, the experiment harness) — the "manual knob" surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaCommand {
    /// Initiate a runtime replication-style switch in one hosted group.
    Switch {
        /// The group whose style should change.
        group: GroupId,
        /// The target style.
        style: ReplicationStyle,
    },
    /// Leave one hosted replica group gracefully.
    Leave {
        /// The group to depart from.
        group: GroupId,
    },
}

impl Payload for ReplicaCommand {
    fn wire_size(&self) -> usize {
        12
    }

    fn digest(&self) -> Option<u64> {
        let mut h = vd_simnet::explore::Fnv64::new();
        match self {
            ReplicaCommand::Switch { group, style } => {
                h.write_u8(1);
                h.write_u64(group.0 as u64);
                h.write_u8(crate::engine::style_tag(*style));
            }
            ReplicaCommand::Leave { group } => {
                h.write_u8(2);
                h.write_u64(group.0 as u64);
            }
        }
        Some(h.finish())
    }
}

/// Point-to-point acknowledgement that a backup logged a reply record;
/// the primary releases the client reply once every backup has logged it
/// (exactly-once semantics require the record at all survivors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyLogAck {
    /// The group the logged request belongs to.
    pub group: GroupId,
    /// The client whose request was logged.
    pub client: ProcessId,
    /// The logged request id.
    pub request_id: u64,
}

impl Payload for ReplyLogAck {
    fn wire_size(&self) -> usize {
        28
    }

    fn digest(&self) -> Option<u64> {
        let mut h = vd_simnet::explore::Fnv64::new();
        h.write_u64(self.group.0 as u64);
        h.write_u64(self.client.0);
        h.write_u64(self.request_id);
        Some(h.finish())
    }
}

/// How a hosted group comes up: from a statically-known bootstrap
/// membership, or by joining a running group through contact replicas.
#[derive(Debug, Clone)]
pub enum GroupMembership {
    /// Every bootstrap replica of the group (including this process).
    Bootstrap(Vec<ProcessId>),
    /// Contact processes of an already-running group to join through.
    Joining(Vec<ProcessId>),
}

/// The specification of one object group hosted by a replica process.
pub struct HostedGroup {
    /// How this process enters the group.
    pub membership: GroupMembership,
    /// The replicated application served by this group.
    pub app: Box<dyn ReplicatedApplication>,
    /// Per-group configuration (knobs, costs, policies interval, obs).
    pub config: ReplicaConfig,
}

/// The per-group replication machinery extracted from the old
/// single-group replica: engine, reply cache, checkpoint chain, monitor,
/// policies and audit trails. One replica process owns one
/// `ReplicationEngine` per hosted object group; all group communication
/// goes through the process-wide [`MultiEndpoint`] passed into each
/// method.
pub struct ReplicationEngine {
    me: ProcessId,
    engine: Engine,
    app: Box<dyn ReplicatedApplication>,
    config: ReplicaConfig,
    /// Most recent reply per client, for retry dedup across failovers.
    reply_cache: BTreeMap<ProcessId, (u64, Reply)>,
    /// Replies held back until every backup acknowledges the log record
    /// (passive styles only); the `usize` counts outstanding acks.
    pending_replies: BTreeMap<(ProcessId, u64), (Reply, usize)>,
    /// Arrival time of requests this replica relayed as gateway, for
    /// response-time monitoring (removed on reply or on the group-wide
    /// completion record).
    request_arrivals: BTreeMap<(ProcessId, u64), SimTime>,
    monitor: Monitor,
    board: SystemBoard,
    policies: Vec<Box<dyn AdaptationPolicy>>,
    /// Style transitions observed, with their completion times (tests &
    /// experiments read this).
    style_history: Vec<(SimTime, ReplicationStyle)>,
    /// Policy directives the replicator cannot enact alone (replica
    /// addition/removal); an external manager drains these.
    directives: Vec<(SimTime, AdaptationAction)>,
    /// Last checkpoint broadcast by this replica as primary: the version
    /// and the *full* state, kept as the diff base for incremental mode.
    ckpt_sent: Option<(u64, Bytes)>,
    /// Deltas sent since the last full snapshot (send side).
    ckpt_since_full: u32,
    /// Last checkpoint state resolved from the wire (full, after delta
    /// application) — the base the next incoming delta applies on.
    ckpt_mirror: Option<(u64, Bytes)>,
    /// Set once the group evicted this replica (minority partition or
    /// departure): this group goes inert instead of soldiering on as a
    /// rump primary. Other co-located groups are unaffected.
    evicted: bool,
    /// Suspicion watermark already forwarded to the recovery managers.
    reported_suspicions: u64,
    /// The measurements the last policy tick evaluated (inspection).
    last_observations: Option<Observations>,
    /// Audit trail for the exploration invariant layer.
    #[cfg(feature = "check-invariants")]
    invariant_log: crate::invariants::InvariantLog,
}

impl ReplicationEngine {
    /// A group bootstrapped from a statically-known membership. Returns
    /// the engine plus the group endpoint to hand to the process's
    /// [`MultiEndpoint`].
    pub fn bootstrap(
        me: ProcessId,
        members: Vec<ProcessId>,
        app: Box<dyn ReplicatedApplication>,
        config: ReplicaConfig,
    ) -> (Self, Endpoint) {
        let mut endpoint =
            Endpoint::bootstrap(me, config.group, config.group_config, members.clone());
        endpoint.set_obs(config.obs.clone());
        let (engine, _init) = Engine::new(me, config.knobs.style, members, true);
        (Self::assemble(me, engine, app, config), endpoint)
    }

    /// A group this process joins through `contacts`, synchronizing state
    /// from the first checkpoint it receives.
    pub fn joining(
        me: ProcessId,
        contacts: Vec<ProcessId>,
        app: Box<dyn ReplicatedApplication>,
        config: ReplicaConfig,
    ) -> (Self, Endpoint) {
        let mut endpoint = Endpoint::joining(me, config.group, config.group_config, contacts);
        endpoint.set_obs(config.obs.clone());
        let (engine, _init) = Engine::new(me, config.knobs.style, Vec::new(), false);
        (Self::assemble(me, engine, app, config), endpoint)
    }

    fn assemble(
        me: ProcessId,
        engine: Engine,
        app: Box<dyn ReplicatedApplication>,
        config: ReplicaConfig,
    ) -> Self {
        ReplicationEngine {
            me,
            engine,
            app,
            config,
            reply_cache: BTreeMap::new(),
            pending_replies: BTreeMap::new(),
            request_arrivals: BTreeMap::new(),
            monitor: Monitor::default(),
            board: SystemBoard::new(),
            policies: Vec::new(),
            style_history: Vec::new(),
            directives: Vec::new(),
            ckpt_sent: None,
            ckpt_since_full: 0,
            ckpt_mirror: None,
            evicted: false,
            reported_suspicions: 0,
            last_observations: None,
            #[cfg(feature = "check-invariants")]
            invariant_log: crate::invariants::InvariantLog::default(),
        }
    }

    // ---- inspection ---------------------------------------------------------

    /// The group this engine replicates.
    pub fn group(&self) -> GroupId {
        self.config.group
    }

    /// The per-style replication state machine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The replicated system-state board.
    pub fn board(&self) -> &SystemBoard {
        &self.board
    }

    /// The hosted application (tests compare captured state across
    /// replicas to assert consistency).
    pub fn app(&self) -> &dyn ReplicatedApplication {
        self.app.as_ref()
    }

    /// Style transitions observed, with their completion times.
    pub fn style_history(&self) -> &[(SimTime, ReplicationStyle)] {
        &self.style_history
    }

    /// The measurements the most recent policy tick evaluated, or `None`
    /// before the first tick. Each tick overwrites the last: a caller
    /// that wants the series samples this between ticks.
    pub fn last_observations(&self) -> Option<&Observations> {
        self.last_observations.as_ref()
    }

    /// Policy directives requiring an external actuator.
    pub fn directives(&self) -> &[(SimTime, AdaptationAction)] {
        &self.directives
    }

    /// Whether the group evicted this replica.
    pub fn evicted(&self) -> bool {
        self.evicted
    }

    /// The execution/reply audit trail kept for the invariant layer.
    #[cfg(feature = "check-invariants")]
    pub fn invariant_log(&self) -> &crate::invariants::InvariantLog {
        &self.invariant_log
    }

    /// Installs an adaptation policy.
    pub fn add_policy(&mut self, policy: Box<dyn AdaptationPolicy>) {
        self.policies.push(policy);
    }

    // ---- timer tokens -------------------------------------------------------

    fn checkpoint_token(&self) -> TimerToken {
        group_scoped_token(self.config.group, CHECKPOINT_LOW)
    }

    fn policy_token(&self) -> TimerToken {
        group_scoped_token(self.config.group, POLICY_LOW)
    }

    fn report_token(&self) -> TimerToken {
        group_scoped_token(self.config.group, REPORT_LOW)
    }

    // ---- plumbing -----------------------------------------------------------

    /// Emits one trace event stamped with the virtual clock and this
    /// replica's process id (the group label rides on the obs handle).
    fn emit(&self, ctx: &Context<'_>, kind: ObsEvent) {
        self.config.obs.emit(ctx.now().as_micros(), self.me.0, kind);
    }

    fn style_str(style: ReplicationStyle) -> SmallStr {
        SmallStr::new(&style.to_string())
    }

    fn multicast(
        &mut self,
        ctx: &mut Context<'_>,
        multi: &mut MultiEndpoint,
        order: DeliveryOrder,
        msg: ReplicatorMsg,
    ) {
        let copies = multi
            .group(self.config.group)
            .map(|ep| ep.view().len().saturating_sub(1) as u64)
            .unwrap_or(0);
        ctx.use_cpu(
            self.config.costs.group_send_base + self.config.costs.group_send_per_copy * copies,
        );
        let payload = msg.encode();
        match multi.multicast(ctx.now(), self.config.group, order, payload) {
            Ok(outputs) => self.absorb(ctx, multi, outputs),
            Err(_) => { /* not a member (joiner): drop */ }
        }
    }

    /// Performs endpoint outputs that concern this group (self-delivery,
    /// sends, timer arming triggered by this group's own calls).
    fn absorb(
        &mut self,
        ctx: &mut Context<'_>,
        multi: &mut MultiEndpoint,
        outputs: Vec<MultiOutput>,
    ) {
        apply_multi_outputs(ctx, outputs, |ctx, group, event| {
            // Outputs produced by this group's endpoint can only surface
            // this group's events.
            debug_assert_eq!(group, self.config.group, "cross-group event leak");
            self.handle_group_event(ctx, multi, event);
        });
    }

    /// Handles one group event surfaced by the endpoint for this group.
    pub(crate) fn handle_group_event(
        &mut self,
        ctx: &mut Context<'_>,
        multi: &mut MultiEndpoint,
        event: GroupEvent,
    ) {
        if self.evicted {
            return;
        }
        match event {
            GroupEvent::Delivered(delivery) => {
                ctx.use_cpu(self.config.costs.group_delivery);
                let Ok(msg) = ReplicatorMsg::decode(delivery.payload) else {
                    return;
                };
                self.handle_delivery(ctx, multi, delivery.sender, msg);
            }
            GroupEvent::ViewInstalled {
                view,
                joined,
                departed,
            } => {
                // A crashed backup can never ack: release any replies its
                // log record was waiting on (the survivors hold the log).
                let pending = std::mem::take(&mut self.pending_replies);
                for ((client, _), (reply, _)) in pending {
                    self.send_reply(ctx, client, reply);
                }
                self.monitor.set_replicas(view.len());
                self.config
                    .obs
                    .metrics
                    .gauge_set(Gauge::RepReplicas, view.len() as u64);
                self.board.retain_members(view.members());
                // Any membership change resets the delta chain: joiners
                // hold no base at all, and after a failover the new
                // primary cannot assume peers mirror its last broadcast.
                // The next checkpoint is a full snapshot.
                self.ckpt_sent = None;
                let departed_count = departed.len() as u64;
                let ops = self
                    .engine
                    .on_view_change(view.members().to_vec(), &departed, &joined);
                self.apply_ops(ctx, multi, ops);
                if departed_count > 0 {
                    self.config.obs.metrics.incr(Ctr::Failovers);
                    self.emit(
                        ctx,
                        ObsEvent::Failover {
                            departed: departed_count,
                            now_primary: self.engine.is_primary(),
                        },
                    );
                }
                // Replica count is itself a low-level knob (Table 1);
                // record its actuated value.
                self.emit(
                    ctx,
                    ObsEvent::KnobChanged {
                        knob: SmallStr::new("num_replicas"),
                        value: view.len() as u64,
                    },
                );
                self.report_membership(ctx, multi);
            }
            GroupEvent::Blocked => {}
            GroupEvent::SelfEvicted => self.handle_eviction(ctx, multi),
        }
    }

    /// The group threw this replica out (departure it asked for, or a
    /// minority partition below the view quorum): drop all replication
    /// duties for this group and go inert. Co-located groups and the
    /// process keep running — a rejoin goes through a fresh joining
    /// engine spawned by the recovery manager, not through resurrecting
    /// this one.
    fn handle_eviction(&mut self, ctx: &mut Context<'_>, multi: &MultiEndpoint) {
        if self.evicted {
            return;
        }
        self.evicted = true;
        let view_id = multi
            .group(self.config.group)
            .map(|ep| ep.view().id().0)
            .unwrap_or(0);
        self.engine.on_eviction();
        self.monitor.set_replicas(0);
        self.config.obs.metrics.gauge_set(Gauge::RepReplicas, 0);
        self.emit(ctx, ObsEvent::ReplicaEvicted { view_id });
    }

    /// Sends the installed view to every recovery manager. The manager
    /// trusts the highest view id, so stale reporters are harmless.
    fn report_membership(&mut self, ctx: &mut Context<'_>, multi: &MultiEndpoint) {
        if self.config.managers.is_empty() || self.evicted {
            return;
        }
        let Some(ep) = multi.group(self.config.group) else {
            return;
        };
        let view = ep.view();
        let report = crate::recovery::MembershipReport {
            group: self.config.group,
            replica: self.me,
            view_id: view.id().0,
            members: view.members().to_vec(),
            style: self.engine.style(),
            synced: self.engine.is_synced(),
        };
        for &manager in &self.config.managers {
            ctx.send(manager, report.clone());
        }
    }

    fn handle_delivery(
        &mut self,
        ctx: &mut Context<'_>,
        multi: &mut MultiEndpoint,
        sender: ProcessId,
        msg: ReplicatorMsg,
    ) {
        match msg {
            ReplicatorMsg::Invoke {
                client,
                request_id,
                operation,
                args,
            } => {
                // The paper's Fig. 6 policy keys on "the request arrival
                // rate observed at the server": count delivered requests,
                // which every replica sees identically. The count flows
                // through the observability registry and is folded into
                // the monitor from there (Fig. 8 "measure").
                self.config.obs.metrics.incr(Ctr::RepInvokesDelivered);
                self.monitor
                    .ingest_registry(ctx.now(), &self.config.obs.metrics);
                let ops = self.engine.on_invoke(client, request_id, operation, args);
                self.apply_ops(ctx, multi, ops);
            }
            ReplicatorMsg::Checkpoint {
                version,
                delta_base,
                style,
                final_for_switch,
                state,
                replies,
            } => {
                // Our own periodic checkpoint: the engine has executed at
                // least `version` and would ignore it, so it is not even
                // resolved. A final one still goes to the engine: our own
                // demotion's handover closes the demotion window here too.
                if sender == self.me && !final_for_switch {
                    return;
                }
                let Some(state) = self.resolve_checkpoint_state(version, delta_base, state) else {
                    // Missing or stale delta base: drop and wait for the
                    // next full snapshot to resynchronize the chain.
                    self.config.obs.metrics.incr(Ctr::CkptRejected);
                    self.emit(ctx, ObsEvent::CheckpointRejected { version });
                    return;
                };
                let ops =
                    self.engine
                        .on_checkpoint(version, style, final_for_switch, state, replies);
                self.apply_ops_with(ctx, multi, ops, delta_base.is_some());
            }
            ReplicatorMsg::SwitchRequest { target, .. } => {
                let from = self.engine.style();
                let ops = self.engine.on_switch_request(target);
                // Fig. 5 phase transitions: the request was accepted if the
                // engine produced work or parked itself awaiting the final
                // checkpoint of the old style.
                if !ops.is_empty() || self.engine.is_switching() {
                    self.emit(
                        ctx,
                        ObsEvent::StyleSwitch {
                            phase: SwitchPhase::Requested,
                            from: Self::style_str(from),
                            to: Self::style_str(target),
                        },
                    );
                }
                if self.engine.is_switching() {
                    self.emit(
                        ctx,
                        ObsEvent::StyleSwitch {
                            phase: SwitchPhase::AwaitingFinal,
                            from: Self::style_str(from),
                            to: Self::style_str(target),
                        },
                    );
                }
                self.apply_ops(ctx, multi, ops);
            }
            ReplicatorMsg::Demote { laggard, .. } => {
                let was_demoted = self.engine.demoted();
                let ops = self.engine.on_demote_request(laggard);
                // Accepted iff the bar actually moved onto the laggard
                // (duplicates and stale targets leave it unchanged).
                if self.engine.demoted() == Some(laggard) && was_demoted != Some(laggard) {
                    self.config.obs.metrics.incr(Ctr::RepDemotions);
                    self.emit(
                        ctx,
                        ObsEvent::PrimaryDemoted {
                            laggard: laggard.0,
                            now_primary: self.engine.primary().map_or(0, |p| p.0),
                        },
                    );
                }
                self.apply_ops(ctx, multi, ops);
            }
            ReplicatorMsg::ReplyLog { client, request_id } => {
                // The request completed somewhere: close out any gateway
                // timing entry for it.
                if let Some(arrived) = self.request_arrivals.remove(&(client, request_id)) {
                    self.monitor
                        .record_latency(ctx.now().duration_since(arrived));
                }
                // Backups record the completion and acknowledge; the
                // primary ignores its own log record.
                if self.engine.primary() != Some(self.me) {
                    ctx.use_cpu(self.config.costs.reply_log_processing);
                    if let Some(primary) = self.engine.primary() {
                        ctx.send(
                            primary,
                            ReplyLogAck {
                                group: self.config.group,
                                client,
                                request_id,
                            },
                        );
                    }
                }
            }
            ReplicatorMsg::MonitorReport {
                replica,
                request_rate,
                latency_micros,
                bandwidth_bps,
            } => {
                self.board.apply_report(
                    replica,
                    request_rate,
                    latency_micros,
                    bandwidth_bps,
                    ctx.now(),
                );
            }
        }
    }

    fn apply_ops(&mut self, ctx: &mut Context<'_>, multi: &mut MultiEndpoint, ops: Vec<EngineOp>) {
        self.apply_ops_with(ctx, multi, ops, false);
    }

    /// Performs engine ops. `delivered_delta` says whether the checkpoint
    /// the ops answer arrived as a delta; only a delivered checkpoint's
    /// ops can set it, so a restore of a stored (full) checkpoint reports
    /// `delta: false`.
    fn apply_ops_with(
        &mut self,
        ctx: &mut Context<'_>,
        multi: &mut MultiEndpoint,
        ops: Vec<EngineOp>,
        delivered_delta: bool,
    ) {
        for op in ops {
            match op {
                EngineOp::Execute { entry, reply } => self.execute(ctx, multi, entry, reply),
                EngineOp::ResendCached { client, request_id } => {
                    self.config.obs.metrics.incr(Ctr::RepDuplicatesSuppressed);
                    self.emit(ctx, ObsEvent::DuplicateSuppressed { request_id });
                    self.resend_cached(ctx, client, request_id);
                }
                EngineOp::ApplyCheckpoint {
                    version,
                    state,
                    replies,
                    at_failover,
                } => {
                    self.config.obs.metrics.incr(Ctr::CkptApplied);
                    self.emit(
                        ctx,
                        ObsEvent::CheckpointApplied {
                            version,
                            delta: delivered_delta,
                        },
                    );
                    let mut cost = self.restore_cost(state.len());
                    if at_failover {
                        cost += self.config.costs.cold_launch;
                    }
                    ctx.use_cpu(cost);
                    self.app.restore_state(&state);
                    for cached in replies {
                        let newer = self
                            .reply_cache
                            .get(&cached.client)
                            .is_none_or(|(id, _)| *id < cached.request_id);
                        if newer {
                            self.reply_cache
                                .insert(cached.client, (cached.request_id, cached.to_reply()));
                        }
                    }
                }
                EngineOp::BroadcastCheckpoint { final_for_switch } => {
                    self.broadcast_checkpoint(ctx, multi, final_for_switch);
                }
                EngineOp::StartCheckpointTimer => {
                    ctx.set_timer(
                        self.config.knobs.checkpoint_interval,
                        self.checkpoint_token(),
                    );
                }
                EngineOp::StopCheckpointTimer => {
                    ctx.cancel_timer(self.checkpoint_token());
                }
                EngineOp::ResendAllCached => {
                    let cached: Vec<(ProcessId, Reply)> = self
                        .reply_cache
                        .iter()
                        .map(|(&client, (_, reply))| (client, reply.clone()))
                        .collect();
                    for (client, reply) in cached {
                        self.send_reply(ctx, client, reply);
                    }
                }
                EngineOp::StyleChanged { from, to } => {
                    // Styles hand the checkpointing role around; restart
                    // the delta chain from a full snapshot to be safe.
                    self.ckpt_sent = None;
                    self.style_history.push((ctx.now(), to));
                    self.config.obs.metrics.incr(Ctr::StyleSwitches);
                    self.config
                        .obs
                        .metrics
                        .gauge_set(Gauge::RepStyle, to.to_tag() as u64);
                    self.emit(
                        ctx,
                        ObsEvent::StyleSwitch {
                            phase: SwitchPhase::Completed,
                            from: Self::style_str(from),
                            to: Self::style_str(to),
                        },
                    );
                    // The actuated low-level knob (Fig. 8 "actuate").
                    self.emit(
                        ctx,
                        ObsEvent::KnobChanged {
                            knob: SmallStr::new("style"),
                            value: to.to_tag() as u64,
                        },
                    );
                }
            }
        }
    }

    fn execute(
        &mut self,
        ctx: &mut Context<'_>,
        multi: &mut MultiEndpoint,
        entry: InvokeEntry,
        reply: bool,
    ) {
        // Inbound ORB traversal, application work, outbound ORB traversal.
        ctx.use_cpu(self.config.costs.orb_marshal);
        ctx.use_cpu(SimDuration::from_micros(
            self.app.processing_micros(&entry.operation),
        ));
        let outcome = self.app.invoke(&entry.operation, &entry.args);
        self.config.obs.metrics.incr(Ctr::RepExecuted);
        let wire_reply = match outcome {
            Ok(body) => Reply {
                request_id: entry.request_id,
                status: ReplyStatus::NoException,
                body,
            },
            Err(exc) => Reply {
                request_id: entry.request_id,
                status: ReplyStatus::UserException,
                body: Bytes::from(exc.reason),
            },
        };
        #[cfg(feature = "check-invariants")]
        self.invariant_log
            .record_execution(entry.client, entry.request_id, &wire_reply.body);
        self.reply_cache
            .insert(entry.client, (entry.request_id, wire_reply.clone()));
        if reply {
            // Passive styles preserve exactly-once semantics by logging the
            // completion at a backup before the reply leaves (FT-CORBA
            // reply logging); active styles answer immediately.
            let log_first = self.engine.style().uses_checkpoints()
                && self.engine.members().len() > 1
                && self.engine.primary() == Some(self.me);
            if log_first {
                let backups = self.engine.members().len() - 1;
                self.pending_replies
                    .insert((entry.client, entry.request_id), (wire_reply, backups));
                let msg = ReplicatorMsg::ReplyLog {
                    client: entry.client,
                    request_id: entry.request_id,
                };
                self.multicast(ctx, multi, DeliveryOrder::Fifo, msg);
            } else {
                self.send_reply(ctx, entry.client, wire_reply);
            }
        }
    }

    fn send_reply(&mut self, ctx: &mut Context<'_>, client: ProcessId, reply: Reply) {
        ctx.use_cpu(self.config.costs.orb_marshal);
        ctx.use_cpu(self.config.costs.interposition);
        // Response time as the server perceives it: gateway arrival to
        // reply departure, queueing included (the paper's monitored
        // "latency" metric). Only requests this replica relayed are
        // timed — a uniform sample under staggered gateways.
        if let Some(arrived) = self.request_arrivals.remove(&(client, reply.request_id)) {
            let latency = (ctx.now() + ctx.cpu_used()).duration_since(arrived);
            self.monitor.record_latency(latency);
            self.config
                .obs
                .metrics
                .record(Hist::RequestLatencyUs, latency.as_micros());
        }
        let request_id = reply.request_id;
        let frame = OrbMessage::Reply(reply);
        let bytes = frame.wire_size() as u64;
        self.monitor.record_bytes(frame.wire_size());
        self.config.obs.metrics.incr(Ctr::OrbRepliesOut);
        self.config.obs.metrics.add(Ctr::OrbMarshalBytes, bytes);
        self.emit(ctx, ObsEvent::ReplyExit { request_id, bytes });
        ctx.send(client, frame);
    }

    fn resend_cached(&mut self, ctx: &mut Context<'_>, client: ProcessId, request_id: u64) {
        if let Some((cached_id, reply)) = self.reply_cache.get(&client) {
            if *cached_id == request_id {
                ctx.use_cpu(self.config.costs.interposition);
                let frame = OrbMessage::Reply(reply.clone());
                self.monitor.record_bytes(frame.wire_size());
                ctx.send(client, frame);
            }
        }
    }

    fn broadcast_checkpoint(
        &mut self,
        ctx: &mut Context<'_>,
        multi: &mut MultiEndpoint,
        final_for_switch: bool,
    ) {
        let state = self.app.capture_state();
        ctx.use_cpu(self.capture_cost(state.len()));
        let replies: Vec<CachedReply> = self
            .reply_cache
            .iter()
            .map(|(&client, (id, reply))| CachedReply {
                client,
                request_id: *id,
                status: match reply.status {
                    ReplyStatus::NoException => 0,
                    ReplyStatus::UserException => 1,
                    ReplyStatus::SystemException => 2,
                },
                body: reply.body.clone(),
            })
            .collect();
        let version = self.engine.executed();
        // Incremental mode: every K-th checkpoint is a full snapshot and
        // the ones between are byte deltas against the previous broadcast.
        // Switch-final checkpoints are always full — a backup whose delta
        // chain broke must still be able to complete the style switch.
        let full_every = self.config.knobs.checkpoint_full_every;
        let delta = if final_for_switch || full_every <= 1 {
            None
        } else {
            match &self.ckpt_sent {
                Some((base_version, base)) if self.ckpt_since_full + 1 < full_every => {
                    Some((*base_version, diff_state(base, &state)))
                }
                _ => None,
            }
        };
        let (delta_base, wire_state) = match delta {
            Some((base_version, bytes)) => {
                self.ckpt_since_full += 1;
                (Some(base_version), bytes)
            }
            None => {
                self.ckpt_since_full = 0;
                (None, state.clone())
            }
        };
        self.ckpt_sent = Some((version, state));
        let is_delta = delta_base.is_some();
        let state_bytes = wire_state.len() as u64;
        let msg = ReplicatorMsg::Checkpoint {
            version,
            delta_base,
            style: self.engine.style(),
            final_for_switch,
            state: wire_state,
            replies,
        };
        self.monitor.record_bytes(msg.encoded_len());
        self.config.obs.metrics.incr(if is_delta {
            Ctr::CkptDeltaSent
        } else {
            Ctr::CkptFullSent
        });
        self.config.obs.metrics.add(Ctr::CkptBytesSent, state_bytes);
        self.config.obs.metrics.record(Hist::CkptBytes, state_bytes);
        self.emit(
            ctx,
            ObsEvent::CheckpointSent {
                version,
                bytes: state_bytes,
                delta: is_delta,
                final_for_switch,
            },
        );
        if final_for_switch {
            // Fig. 5: the old primary closes out the old style with one
            // final (always full) checkpoint.
            let style = self.engine.style();
            self.emit(
                ctx,
                ObsEvent::StyleSwitch {
                    phase: SwitchPhase::FinalCheckpoint,
                    from: Self::style_str(style),
                    to: Self::style_str(style),
                },
            );
        }
        self.multicast(ctx, multi, DeliveryOrder::Agreed, msg);
    }

    /// Materializes the full state carried by a wire checkpoint. Full
    /// snapshots pass through; deltas are applied on the mirrored previous
    /// checkpoint. Returns `None` when the delta's base version does not
    /// match the mirror — the chain rule — or the delta is malformed, in
    /// which case the replica skips the checkpoint, keeps its mirror, and
    /// recovers at the next full snapshot.
    fn resolve_checkpoint_state(
        &mut self,
        version: u64,
        delta_base: Option<u64>,
        state: Bytes,
    ) -> Option<Bytes> {
        let full = match delta_base {
            None => state,
            Some(base_version) => {
                // The delta patches the mirror itself: in place when the
                // mirror is its buffer's only handle, on a copy when the
                // buffer is shared (as a full snapshot's is).
                let (mirrored, mut mirror) = self.ckpt_mirror.take()?;
                if mirrored != base_version || apply_delta_in_place(&mut mirror, &state).is_err() {
                    self.ckpt_mirror = Some((mirrored, mirror));
                    return None;
                }
                mirror
            }
        };
        self.ckpt_mirror = Some((version, full.clone()));
        Some(full)
    }

    fn capture_cost(&self, state_len: usize) -> SimDuration {
        self.config.costs.checkpoint_base
            + self.config.costs.checkpoint_per_kib * (state_len as u64 / 1024)
    }

    fn restore_cost(&self, state_len: usize) -> SimDuration {
        self.capture_cost(state_len)
    }

    /// Initiates a runtime style switch for this group, as an
    /// operator/manual knob. (Policies initiate switches the same way,
    /// automatically.)
    pub fn request_switch(
        &mut self,
        ctx: &mut Context<'_>,
        multi: &mut MultiEndpoint,
        target: ReplicationStyle,
    ) {
        let msg = ReplicatorMsg::SwitchRequest {
            target,
            initiator: self.me,
        };
        self.multicast(ctx, multi, DeliveryOrder::Agreed, msg);
    }

    // ---- lifecycle ----------------------------------------------------------

    /// Arms this group's periodic timers and seeds its gauges; called once
    /// at actor start, after the endpoints started.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.monitor.set_replicas(self.engine.members().len());
        self.monitor.reset_bandwidth(ctx.now());
        let metrics = &self.config.obs.metrics;
        metrics.gauge_set(Gauge::RepReplicas, self.engine.members().len() as u64);
        metrics.gauge_set(Gauge::RepStyle, self.engine.style().to_tag() as u64);
        if self.engine.style().uses_checkpoints() && self.engine.is_primary() {
            ctx.set_timer(
                self.config.knobs.checkpoint_interval,
                self.checkpoint_token(),
            );
        }
        ctx.set_timer(self.config.policy_interval, self.policy_token());
        if let Some(interval) = self.config.report_interval {
            ctx.set_timer(interval, self.report_token());
        }
    }

    /// Handles this group's periodic-checkpoint timer.
    fn on_checkpoint_timer(&mut self, ctx: &mut Context<'_>, multi: &mut MultiEndpoint) {
        let ops = self.engine.on_checkpoint_timer();
        self.apply_ops(ctx, multi, ops);
    }

    /// Handles this group's policy-evaluation timer (self-rearming).
    fn on_policy_timer(&mut self, ctx: &mut Context<'_>, multi: &mut MultiEndpoint) {
        self.evaluate_policies(ctx, multi);
        ctx.set_timer(self.config.policy_interval, self.policy_token());
    }

    /// Handles this group's monitoring-report timer (self-rearming).
    fn on_report_timer(&mut self, ctx: &mut Context<'_>, multi: &mut MultiEndpoint) {
        let obs = self.monitor.observe(ctx.now());
        let msg = ReplicatorMsg::MonitorReport {
            replica: self.me,
            request_rate: obs.request_rate,
            latency_micros: obs.latency_micros,
            bandwidth_bps: obs.bandwidth_bps,
        };
        self.multicast(ctx, multi, DeliveryOrder::Agreed, msg);
        if let Some(interval) = self.config.report_interval {
            ctx.set_timer(interval, self.report_token());
        }
    }

    /// Handles one interposed client frame routed to this group.
    fn on_orb_request(
        &mut self,
        ctx: &mut Context<'_>,
        multi: &mut MultiEndpoint,
        from: ProcessId,
        request: vd_orb::wire::Request,
        request_bytes: u64,
    ) {
        self.config.obs.metrics.incr(Ctr::OrbRequestsIn);
        self.config
            .obs
            .metrics
            .add(Ctr::OrbMarshalBytes, request_bytes);
        self.emit(
            ctx,
            ObsEvent::RequestEnter {
                request_id: request.request_id,
                bytes: request_bytes,
            },
        );
        match self.engine.on_client_request(from, request.request_id) {
            GatewayDecision::Multicast => {
                self.request_arrivals
                    .insert((from, request.request_id), ctx.now());
                let msg = ReplicatorMsg::Invoke {
                    client: from,
                    request_id: request.request_id,
                    operation: request.operation,
                    args: request.args,
                };
                self.multicast(ctx, multi, DeliveryOrder::Agreed, msg);
            }
            GatewayDecision::ResendCached => {
                self.config.obs.metrics.incr(Ctr::RepDuplicatesSuppressed);
                self.emit(
                    ctx,
                    ObsEvent::DuplicateSuppressed {
                        request_id: request.request_id,
                    },
                );
                self.resend_cached(ctx, from, request.request_id);
            }
            GatewayDecision::InFlight => {}
        }
    }

    /// Handles a backup's reply-log acknowledgement for this group.
    fn on_reply_log_ack(&mut self, ctx: &mut Context<'_>, ack: ReplyLogAck) {
        ctx.use_cpu(self.config.costs.ack_processing);
        let key = (ack.client, ack.request_id);
        if let Some((_, outstanding)) = self.pending_replies.get_mut(&key) {
            *outstanding = outstanding.saturating_sub(1);
            if *outstanding == 0 {
                let (reply, _) = self.pending_replies.remove(&key).expect("entry just seen");
                self.send_reply(ctx, ack.client, reply);
            }
        }
    }

    fn evaluate_policies(&mut self, ctx: &mut Context<'_>, multi: &mut MultiEndpoint) {
        // Fold the registry into the monitor first: the policies below
        // must see the freshest measured request rate and fault-detection
        // latency (Fig. 8 measure → decide).
        self.monitor
            .ingest_registry(ctx.now(), &self.config.obs.metrics);
        // Forward fresh fault-detector evidence to the recovery managers
        // ahead of the view change — this is what starts their MTTR clock
        // at detection time rather than at quorum agreement.
        let suspicions = self.monitor.suspicions();
        if suspicions > self.reported_suspicions && !self.config.managers.is_empty() {
            self.reported_suspicions = suspicions;
            let notice = crate::recovery::SuspicionNotice {
                group: self.config.group,
                replica: self.me,
                suspicions,
            };
            for &manager in &self.config.managers {
                ctx.send(manager, notice);
            }
        }
        // Periodic (not just view-change-driven) membership reports keep
        // a freshly taken-over standby manager informed.
        self.report_membership(ctx, multi);
        // Gray-failure evidence: which of this group's members does the
        // adaptive detector currently hold as alive-but-slow?
        let laggards: Vec<ProcessId> = multi
            .laggards()
            .filter(|p| self.engine.members().contains(p))
            .collect();
        let primary = self.engine.primary();
        let primary_laggard = primary.is_some_and(|p| laggards.contains(&p));
        let laggard_backups = laggards.iter().filter(|&&p| Some(p) != primary).count();
        self.monitor.set_laggards(laggards.len());
        let obs = self.monitor.observe(ctx.now());
        self.last_observations = Some(obs);
        let policy_ctx = PolicyContext {
            style: self.engine.style(),
            replicas: self.engine.members().len(),
            primary_laggard,
            laggard_backups,
        };
        let mut actions: Vec<(SmallStr, AdaptationAction)> = Vec::new();
        for policy in &mut self.policies {
            if let Some(action) = policy.evaluate(&obs, &policy_ctx) {
                actions.push((SmallStr::new(policy.name()), action));
            }
        }
        for (policy_name, action) in actions {
            // Fig. 8 "decide": every policy decision is itself observable.
            let action_name = match &action {
                AdaptationAction::SwitchStyle(_) => "switch_style",
                AdaptationAction::AddReplica => "add_replica",
                AdaptationAction::RemoveReplica => "remove_replica",
                AdaptationAction::DemotePrimary => "demote_primary",
                AdaptationAction::EvictLaggard => "evict_laggard",
                AdaptationAction::NotifyOperators(_) => "notify_operators",
            };
            self.config.obs.metrics.incr(Ctr::PolicyDecisions);
            self.emit(
                ctx,
                ObsEvent::PolicyDecision {
                    policy: policy_name,
                    action: SmallStr::new(action_name),
                },
            );
            match action {
                AdaptationAction::SwitchStyle(target) => {
                    if target != self.engine.style()
                        && !self.engine.is_switching()
                        && !self.engine.is_demoting()
                    {
                        self.request_switch(ctx, multi, target);
                    }
                }
                AdaptationAction::DemotePrimary => {
                    // Demote through the replicated path so every member
                    // transfers primaryship at the same point in the
                    // agreed stream. Only actionable when the laggard is
                    // still primary and no switch is already in flight.
                    if let Some(target) = self.engine.primary() {
                        if laggards.contains(&target)
                            && !self.engine.is_switching()
                            && !self.engine.is_demoting()
                        {
                            let msg = ReplicatorMsg::Demote {
                                laggard: target,
                                initiator: self.me,
                            };
                            self.multicast(ctx, multi, DeliveryOrder::Agreed, msg);
                        }
                    }
                    self.directives
                        .push((ctx.now(), AdaptationAction::DemotePrimary));
                }
                AdaptationAction::EvictLaggard => {
                    // Deterministic victim: the lowest-id laggard backup.
                    // Its graceful leave drops the view below the
                    // managers' target degree, which opens a recovery
                    // episode and respawns a fresh replica.
                    let victim = laggards
                        .iter()
                        .copied()
                        .filter(|&p| Some(p) != self.engine.primary())
                        .min();
                    if let Some(victim) = victim {
                        ctx.send(
                            victim,
                            ReplicaCommand::Leave {
                                group: self.config.group,
                            },
                        );
                    }
                    self.directives
                        .push((ctx.now(), AdaptationAction::EvictLaggard));
                }
                other @ (AdaptationAction::AddReplica
                | AdaptationAction::RemoveReplica
                | AdaptationAction::NotifyOperators(_)) => {
                    // Replica-count changes need an external actuator: the
                    // recovery manager. Anchor the directive on the count
                    // this policy observed so repeated firings converge.
                    let add = matches!(other, AdaptationAction::AddReplica);
                    let remove = matches!(other, AdaptationAction::RemoveReplica);
                    if add || remove {
                        let notice = crate::recovery::DirectiveNotice {
                            group: self.config.group,
                            replica: self.me,
                            add,
                            observed_replicas: self.engine.members().len(),
                        };
                        for &manager in &self.config.managers {
                            ctx.send(manager, notice);
                        }
                    }
                    self.directives.push((ctx.now(), other));
                }
            }
        }
    }

    // ---- exploration support ----

    /// Folds everything that influences this group's future behavior —
    /// and everything the invariant layer inspects — into `h`.
    ///
    /// Deliberately excluded as inspection-only (they never feed back
    /// into protocol decisions within one bounded exploration): `config`,
    /// `monitor`, `board`, `policies`, `style_history`, `directives`,
    /// `request_arrivals`, `last_observations`.
    pub(crate) fn fold_digest(&self, h: &mut Fnv64) {
        h.write_u64(self.me.0);
        h.write_u64(self.engine.state_digest());
        h.write_bytes(&self.app.capture_state());
        for (client, (rid, reply)) in &self.reply_cache {
            h.write_u64(client.0);
            h.write_u64(*rid);
            fold_reply(h, reply);
        }
        h.write_u8(0xff);
        for (&(client, rid), (reply, outstanding)) in &self.pending_replies {
            h.write_u64(client.0);
            h.write_u64(rid);
            fold_reply(h, reply);
            h.write_u64(*outstanding as u64);
        }
        match &self.ckpt_sent {
            None => h.write_u8(0),
            Some((version, state)) => {
                h.write_u8(1);
                h.write_u64(*version);
                h.write_bytes(state);
            }
        }
        h.write_u64(self.ckpt_since_full as u64);
        match &self.ckpt_mirror {
            None => h.write_u8(0),
            Some((version, state)) => {
                h.write_u8(1);
                h.write_u64(*version);
                h.write_bytes(state);
            }
        }
        h.write_u8(self.evicted as u8);
        h.write_u64(self.reported_suspicions);
        // The exactly-once verdicts read the audit trail, so two states
        // with different trails must not merge.
        #[cfg(feature = "check-invariants")]
        {
            for &(client, rid) in &self.invariant_log.executed {
                h.write_u64(client.0);
                h.write_u64(rid);
            }
            h.write_u8(0xfe);
            for (&(client, rid), &digest) in &self.invariant_log.replies {
                h.write_u64(client.0);
                h.write_u64(rid);
                h.write_u64(digest);
            }
        }
    }
}

/// Folds one ORB reply (id, status, body) into a digest.
fn fold_reply(h: &mut Fnv64, reply: &Reply) {
    h.write_u64(reply.request_id);
    h.write_u8(match reply.status {
        ReplyStatus::NoException => 0,
        ReplyStatus::UserException => 1,
        ReplyStatus::SystemException => 2,
    });
    h.write_bytes(&reply.body);
}

impl std::fmt::Debug for ReplicationEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationEngine")
            .field("group", &self.config.group)
            .field("style", &self.engine.style())
            .field("executed", &self.engine.executed())
            .field("evicted", &self.evicted)
            .finish()
    }
}

/// A replicated server process: N per-group replicators + applications
/// multiplexed over one group-communication endpoint, as one actor.
pub struct ReplicaActor {
    me: ProcessId,
    multi: MultiEndpoint,
    groups: BTreeMap<GroupId, ReplicationEngine>,
    /// Object-key → hosting-group routing table (the client directory's
    /// server-side mirror). Unrouted keys fall back to the first group.
    routes: BTreeMap<ObjectKey, GroupId>,
}

impl ReplicaActor {
    /// A single-group replica bootstrapped into a statically-known group.
    /// `me` must be the process id this actor will receive from the
    /// world, and `members` must list every bootstrap replica (including
    /// `me`).
    pub fn bootstrap(
        me: ProcessId,
        members: Vec<ProcessId>,
        app: Box<dyn ReplicatedApplication>,
        config: ReplicaConfig,
    ) -> Self {
        ReplicaActor::host(
            me,
            vec![HostedGroup {
                membership: GroupMembership::Bootstrap(members),
                app,
                config,
            }],
            None,
        )
    }

    /// A single-group replica that joins a running group through
    /// `contacts` and synchronizes state from the first checkpoint it
    /// receives.
    pub fn joining(
        me: ProcessId,
        contacts: Vec<ProcessId>,
        app: Box<dyn ReplicatedApplication>,
        config: ReplicaConfig,
    ) -> Self {
        ReplicaActor::host(
            me,
            vec![HostedGroup {
                membership: GroupMembership::Joining(contacts),
                app,
                config,
            }],
            None,
        )
    }

    /// A replica process hosting any number of object groups behind one
    /// shared failure detector. The process-level observability handle
    /// (heartbeat counters land there) defaults to the first group's
    /// handle when `process_obs` is `None`; the failure-detection cadence
    /// is the tightest of the hosted groups' fault-monitoring knobs.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or two entries share a group id.
    pub fn host(me: ProcessId, groups: Vec<HostedGroup>, process_obs: Option<ObsHandle>) -> Self {
        assert!(!groups.is_empty(), "a replica must host at least one group");
        let heartbeat_interval = groups
            .iter()
            .map(|g| g.config.group_config.heartbeat_interval)
            .min()
            .expect("nonempty");
        let failure_timeout = groups
            .iter()
            .map(|g| g.config.group_config.failure_timeout)
            .min()
            .expect("nonempty");
        let obs = process_obs.unwrap_or_else(|| groups[0].config.obs.clone());
        let mut multi = MultiEndpoint::new(me, heartbeat_interval, failure_timeout);
        multi.set_obs(obs);
        let mut engines = BTreeMap::new();
        for hosted in groups {
            let HostedGroup {
                membership,
                app,
                config,
            } = hosted;
            let (engine, endpoint) = match membership {
                GroupMembership::Bootstrap(members) => {
                    ReplicationEngine::bootstrap(me, members, app, config)
                }
                GroupMembership::Joining(contacts) => {
                    ReplicationEngine::joining(me, contacts, app, config)
                }
            };
            let prev = engines.insert(engine.group(), engine);
            assert!(prev.is_none(), "duplicate hosted group id");
            multi.add_endpoint(endpoint);
        }
        ReplicaActor {
            me,
            multi,
            groups: engines,
            routes: BTreeMap::new(),
        }
    }

    /// Routes `key` to hosted group `group` (builder style). Keys without
    /// a route fall back to the first hosted group, which keeps
    /// single-group replicas route-free.
    pub fn with_route(mut self, key: ObjectKey, group: GroupId) -> Self {
        self.routes.insert(key, group);
        self
    }

    /// Installs an adaptation policy on the first hosted group (builder
    /// style; single-group convenience).
    pub fn with_policy(mut self, policy: Box<dyn AdaptationPolicy>) -> Self {
        self.first_mut().add_policy(policy);
        self
    }

    /// Installs an adaptation policy on one hosted group (builder style).
    pub fn with_group_policy(mut self, group: GroupId, policy: Box<dyn AdaptationPolicy>) -> Self {
        self.groups
            .get_mut(&group)
            .expect("policy for a group this replica does not host")
            .add_policy(policy);
        self
    }

    /// Overrides the process-wide adaptive slow-vs-dead detector tunables
    /// (builder style). Defaults derive from the tightest hosted group's
    /// failure timeout.
    pub fn with_detector_config(mut self, cfg: vd_group::prelude::DetectorConfig) -> Self {
        self.multi.set_detector_config(cfg);
        self
    }

    fn first(&self) -> &ReplicationEngine {
        self.groups.values().next().expect("at least one group")
    }

    fn first_mut(&mut self) -> &mut ReplicationEngine {
        self.groups.values_mut().next().expect("at least one group")
    }

    /// The hosted group ids, ascending.
    pub fn group_ids(&self) -> Vec<GroupId> {
        self.groups.keys().copied().collect()
    }

    /// The replication machinery of one hosted group (inspection).
    pub fn replication(&self, group: GroupId) -> Option<&ReplicationEngine> {
        self.groups.get(&group)
    }

    /// The replication engine of the first hosted group (inspection;
    /// single-group convenience).
    pub fn engine(&self) -> &Engine {
        self.first().engine()
    }

    /// The engine of one hosted group (inspection).
    pub fn engine_of(&self, group: GroupId) -> Option<&Engine> {
        self.groups.get(&group).map(|g| g.engine())
    }

    /// The group endpoint of the first hosted group (inspection).
    pub fn endpoint(&self) -> &Endpoint {
        self.multi
            .group(self.first().group())
            .expect("first group is hosted")
    }

    /// The multiplexed group-communication endpoint (inspection).
    pub fn multi_endpoint(&self) -> &MultiEndpoint {
        &self.multi
    }

    /// The replicated system-state board of the first hosted group
    /// (inspection).
    pub fn board(&self) -> &SystemBoard {
        self.first().board()
    }

    /// The first hosted group's application (inspection: tests compare
    /// captured state across replicas to assert consistency).
    pub fn app(&self) -> &dyn ReplicatedApplication {
        self.first().app()
    }

    /// The first hosted group's application state (inspection).
    pub fn app_of(&self, group: GroupId) -> Option<&dyn ReplicatedApplication> {
        self.groups.get(&group).map(|g| g.app())
    }

    /// Style transitions of the first hosted group.
    pub fn style_history(&self) -> &[(SimTime, ReplicationStyle)] {
        self.first().style_history()
    }

    /// Undrained policy directives of the first hosted group.
    pub fn directives(&self) -> &[(SimTime, AdaptationAction)] {
        self.first().directives()
    }

    /// The execution/reply audit trail of the first hosted group.
    #[cfg(feature = "check-invariants")]
    pub fn invariant_log(&self) -> &crate::invariants::InvariantLog {
        self.first().invariant_log()
    }

    /// The audit trail of one hosted group.
    #[cfg(feature = "check-invariants")]
    pub fn invariant_log_of(&self, group: GroupId) -> Option<&crate::invariants::InvariantLog> {
        self.groups.get(&group).map(|g| g.invariant_log())
    }

    /// Initiates a runtime style switch in the first hosted group, as an
    /// operator/manual knob.
    pub fn request_switch(&mut self, ctx: &mut Context<'_>, target: ReplicationStyle) {
        let Self { multi, groups, .. } = self;
        let group = groups.values_mut().next().expect("at least one group");
        group.request_switch(ctx, multi, target);
    }

    /// The hosted group serving `key`: its routed group, else the first.
    fn route_of(&self, key: &ObjectKey) -> GroupId {
        self.routes
            .get(key)
            .copied()
            .unwrap_or_else(|| self.first().group())
    }

    /// Performs multiplexer outputs, dispatching group events to the
    /// owning replication engine.
    fn absorb(&mut self, ctx: &mut Context<'_>, outputs: Vec<MultiOutput>) {
        let Self { multi, groups, .. } = self;
        apply_multi_outputs(ctx, outputs, |ctx, group, event| {
            if let Some(engine) = groups.get_mut(&group) {
                engine.handle_group_event(ctx, multi, event);
            }
        });
    }
}

impl Actor for ReplicaActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        debug_assert_eq!(ctx.self_id(), self.me, "spawn order must match config");
        let outputs = self.multi.start(ctx.now());
        self.absorb(ctx, outputs);
        for group in self.groups.values_mut() {
            group.on_start(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, payload: Box<dyn Payload>) {
        match downcast_payload::<GroupMsg>(payload) {
            Ok(group_msg) => {
                // An evicted group is inert: it must not rejoin protocol
                // rounds from its stale view. Other hosted groups keep
                // processing.
                let group = group_msg.group();
                if self.groups.get(&group).is_none_or(|g| g.evicted()) {
                    return;
                }
                let outputs = self.multi.handle_message(ctx.now(), from, *group_msg);
                self.absorb(ctx, outputs);
            }
            Err(other) => {
                let other = match downcast_payload::<ProcessHeartbeat>(other) {
                    Ok(hb) => {
                        self.multi.handle_heartbeat(ctx.now(), from, &hb);
                        return;
                    }
                    Err(other) => other,
                };
                let orb_msg = match downcast_payload::<OrbMessage>(other) {
                    Ok(msg) => msg,
                    Err(other) => {
                        let other = match downcast_payload::<ReplyLogAck>(other) {
                            Ok(ack) => {
                                let Self { groups, .. } = self;
                                if let Some(engine) = groups.get_mut(&ack.group) {
                                    if !engine.evicted() {
                                        engine.on_reply_log_ack(ctx, *ack);
                                    }
                                }
                                return;
                            }
                            Err(other) => other,
                        };
                        if let Ok(cmd) = downcast_payload::<ReplicaCommand>(other) {
                            let Self { multi, groups, .. } = self;
                            match *cmd {
                                ReplicaCommand::Switch { group, style } => {
                                    if let Some(engine) = groups.get_mut(&group) {
                                        if !engine.evicted() {
                                            engine.request_switch(ctx, multi, style);
                                        }
                                    }
                                }
                                ReplicaCommand::Leave { group } => {
                                    if groups.get(&group).is_some_and(|g| !g.evicted()) {
                                        let outputs = multi.leave(ctx.now(), group);
                                        self.absorb(ctx, outputs);
                                    }
                                }
                            }
                        }
                        return;
                    }
                };
                // Interposed client traffic (paper Fig. 2 top layer),
                // routed to the hosting group by object key.
                let request_bytes = orb_msg.wire_size() as u64;
                let OrbMessage::Request(request) = *orb_msg else {
                    return;
                };
                let group = self.route_of(&request.object_key);
                let Self { multi, groups, .. } = self;
                let Some(engine) = groups.get_mut(&group) else {
                    return;
                };
                if engine.evicted() {
                    return;
                }
                ctx.use_cpu(engine.config.costs.interposition);
                engine.on_orb_request(ctx, multi, from, request, request_bytes);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if let Some(multi_timer) = multi_timer_from_token(timer) {
            // Let an evicted group's pending protocol timers fire into the
            // void; cancelling them is riskier (a cancel of a non-pending
            // token suppresses the next set of that token).
            if let MultiTimer::Group(group, _) = multi_timer {
                if self.groups.get(&group).is_none_or(|g| g.evicted()) {
                    return;
                }
            }
            let outputs = self.multi.handle_timer(ctx.now(), multi_timer);
            self.absorb(ctx, outputs);
            return;
        }
        if let Some((group, low)) = group_scoped_from_token(timer) {
            let Self { multi, groups, .. } = self;
            let Some(engine) = groups.get_mut(&group) else {
                return;
            };
            if engine.evicted() {
                return;
            }
            match low {
                CHECKPOINT_LOW => engine.on_checkpoint_timer(ctx, multi),
                POLICY_LOW => engine.on_policy_timer(ctx, multi),
                REPORT_LOW => engine.on_report_timer(ctx, multi),
                _ => {}
            }
        }
    }

    fn state_digest(&self) -> Option<u64> {
        let mut h = Fnv64::new();
        h.write_u64(self.me.0);
        h.write_u64(self.multi.state_digest());
        for (gid, engine) in &self.groups {
            h.write_u64(gid.0 as u64);
            engine.fold_digest(&mut h);
        }
        for (key, gid) in &self.routes {
            h.write_bytes(key.as_str().as_bytes());
            h.write_u64(gid.0 as u64);
        }
        Some(h.finish())
    }
}

impl std::fmt::Debug for ReplicaActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaActor")
            .field("me", &self.me)
            .field("groups", &self.groups)
            .finish()
    }
}
