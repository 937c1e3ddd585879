//! The simulated world: scheduler, routing, fault injection and inspection.
//!
//! A [`World`] owns a [`Topology`], the per-node CPU state, all spawned
//! actors and a deterministic event queue. Experiments build a world, spawn
//! the protocol stack onto it, inject faults and workloads, run virtual time
//! forward, and read the metrics out.
//!
//! # Examples
//!
//! ```
//! use vd_simnet::prelude::*;
//!
//! #[derive(Debug)]
//! struct Tick;
//! impl Payload for Tick {
//!     fn wire_size(&self) -> usize { 16 }
//! }
//!
//! struct Counter(u64);
//! impl Actor for Counter {
//!     fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _p: Box<dyn Payload>) {
//!         self.0 += 1;
//!     }
//!     fn state_digest(&self) -> Option<u64> { None }
//! }
//!
//! let mut world = World::new(Topology::full_mesh(2), 42);
//! let counter = world.spawn(NodeId(0), Box::new(Counter(0)));
//! world.inject(counter, Tick);
//! world.run_for(SimDuration::from_millis(1));
//! assert_eq!(world.actor_ref::<Counter>(counter).unwrap().0, 1);
//! ```

use std::any::Any;
use std::collections::BTreeMap;

use vd_obs::{Ctr, Obs, ObsHandle};

use crate::actor::{Action, Actor, Context, Payload, TimerToken};
use crate::chaos::ChaosAction;
use crate::event::{EventKind, EventQueue};
use crate::fault::FaultState;
use crate::node::NodeState;
use crate::rng::DeterministicRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, ProcessId, Topology};

/// The source id used for messages injected by the harness rather than sent
/// by an actor.
pub const EXTERNAL: ProcessId = ProcessId(u64::MAX);

struct ProcEntry {
    node: NodeId,
    actor: Option<Box<dyn Actor>>,
    alive: bool,
}

/// The discrete-event simulator.
pub struct World {
    time: SimTime,
    queue: EventQueue,
    topology: Topology,
    nodes: Vec<NodeState>,
    /// Indexed by pid; `None` for a pid handed out by [`Context::spawn`]
    /// whose actor has not started yet.
    procs: Vec<Option<ProcEntry>>,
    rng: DeterministicRng,
    fault: FaultState,
    obs: ObsHandle,
    next_pid: u64,
    canceled_timers: BTreeMap<(ProcessId, TimerToken), u32>,
    events_processed: u64,
    /// The action buffer handed to each handler, kept to reuse its
    /// allocation.
    actions: Vec<Action>,
    /// Per-directed-link arrival watermark, maintained only while a
    /// gray-delay fault is active on that link: arrivals are clamped to be
    /// monotone so added delay + jitter never reorders a link's messages.
    link_fifo: BTreeMap<(NodeId, NodeId), SimTime>,
}

impl World {
    /// Creates a world over `topology` with the given RNG seed. Two worlds
    /// built with the same topology, seed and subsequent calls behave
    /// identically.
    pub fn new(topology: Topology, seed: u64) -> Self {
        let nodes = topology
            .nodes()
            .iter()
            .map(|&id| NodeState::new(id))
            .collect();
        World {
            time: SimTime::ZERO,
            queue: EventQueue::new(),
            topology,
            nodes,
            procs: Vec::new(),
            rng: DeterministicRng::new(seed),
            fault: FaultState::new(),
            obs: Obs::disabled(),
            next_pid: 0,
            canceled_timers: BTreeMap::new(),
            events_processed: 0,
            actions: Vec::new(),
            link_fifo: BTreeMap::new(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access to the topology (reconfigure links between runs).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The scheduler's observability endpoint: virtual-time event
    /// counters (`simnet.deliveries` / `simnet.drops` /
    /// `simnet.timer_fires`) and the bytes put on inter-node links
    /// (`simnet.net_bytes`) land in its registry.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Replaces the scheduler's observability endpoint — typically with
    /// one sharing the run-wide [`vd_obs::TraceSink`].
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The standing fault state.
    pub fn fault(&self) -> &FaultState {
        &self.fault
    }

    /// Events taken from the queue so far: handler runs, control actions,
    /// drops, swallowed timers and CPU deferrals alike.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Spawns an actor on `node`, returning its process id. The actor's
    /// `on_start` runs at the current time.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of the topology.
    pub fn spawn(&mut self, node: NodeId, actor: Box<dyn Actor>) -> ProcessId {
        assert!(
            self.topology.contains(node),
            "spawn on unknown {node} (topology has {} nodes)",
            self.topology.nodes().len()
        );
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        self.insert_proc(pid, node, actor);
        self.queue.push(self.time, EventKind::Start { pid });
        pid
    }

    fn insert_proc(&mut self, pid: ProcessId, node: NodeId, actor: Box<dyn Actor>) {
        let i = pid.0 as usize;
        if self.procs.len() <= i {
            self.procs.resize_with(i + 1, || None);
        }
        self.procs[i] = Some(ProcEntry {
            node,
            actor: Some(actor),
            alive: true,
        });
    }

    fn proc(&self, pid: ProcessId) -> Option<&ProcEntry> {
        self.procs.get(usize::try_from(pid.0).ok()?)?.as_ref()
    }

    fn proc_mut(&mut self, pid: ProcessId) -> Option<&mut ProcEntry> {
        self.procs.get_mut(usize::try_from(pid.0).ok()?)?.as_mut()
    }

    /// Whether `pid` exists and has not crashed.
    pub fn is_alive(&self, pid: ProcessId) -> bool {
        self.proc(pid).is_some_and(|p| p.alive)
    }

    /// The node `pid` runs on, if the process exists.
    pub fn node_of(&self, pid: ProcessId) -> Option<NodeId> {
        self.proc(pid).map(|p| p.node)
    }

    /// Whether `node` is up.
    pub fn is_node_up(&self, node: NodeId) -> bool {
        self.nodes
            .get(node.0 as usize)
            .is_some_and(NodeState::is_up)
    }

    /// Read-only state of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of the topology.
    pub fn node_state(&self, node: NodeId) -> &NodeState {
        &self.nodes[node.0 as usize]
    }

    /// Downcasts a live-or-dead actor's state for inspection (tests,
    /// experiment harnesses). Returns `None` if the process does not exist
    /// or is of a different concrete type.
    pub fn actor_ref<A: Actor>(&self, pid: ProcessId) -> Option<&A> {
        let entry = self.proc(pid)?;
        let actor = entry.actor.as_deref()?;
        (actor as &dyn Any).downcast_ref::<A>()
    }

    /// Mutable variant of [`World::actor_ref`].
    pub fn actor_mut<A: Actor>(&mut self, pid: ProcessId) -> Option<&mut A> {
        let entry = self.proc_mut(pid)?;
        let actor = entry.actor.as_deref_mut()?;
        (actor as &mut dyn Any).downcast_mut::<A>()
    }

    /// Injects a message from outside the simulation (src = [`EXTERNAL`]),
    /// delivered at the current time plus the loopback delay.
    pub fn inject<P: Payload>(&mut self, dst: ProcessId, payload: P) {
        let at = self.time + self.topology.loopback();
        self.queue.push(
            at,
            EventKind::Deliver {
                src: EXTERNAL,
                dst,
                wire_size: payload.wire_size(),
                payload: Box::new(payload),
            },
        );
    }

    // ----- fault injection -------------------------------------------------

    /// Schedules `action` to fire at time `at`: the one entry point for
    /// scheduled fault injection, which [`FaultPlan::schedule`] and the
    /// helpers below go through.
    ///
    /// [`FaultPlan::schedule`]: crate::chaos::FaultPlan::schedule
    pub fn fault_at(&mut self, action: ChaosAction, at: SimTime) {
        self.queue.push(at, EventKind::Control(action));
    }

    /// Crashes a process at time `at` (silent fail-stop).
    pub fn crash_process_at(&mut self, pid: ProcessId, at: SimTime) {
        self.fault_at(ChaosAction::CrashProcess(pid), at);
    }

    /// Crashes a node (and every process on it) at time `at`.
    pub fn crash_node_at(&mut self, node: NodeId, at: SimTime) {
        self.fault_at(ChaosAction::CrashNode(node), at);
    }

    /// Restarts a node at time `at`. Its crashed processes stay dead; new
    /// processes may be spawned on it.
    pub fn restart_node_at(&mut self, node: NodeId, at: SimTime) {
        self.fault_at(ChaosAction::RestartNode(node), at);
    }

    /// Applies a timing fault: from time `at`, CPU costs on `node` are
    /// multiplied by `factor` (use `1.0` to restore nominal speed).
    pub fn slow_node_at(&mut self, node: NodeId, factor: f64, at: SimTime) {
        self.fault_at(ChaosAction::Slowdown(node, factor), at);
    }

    /// Sets the message-loss probability from time `at`.
    pub fn set_drop_probability_at(&mut self, p: f64, at: SimTime) {
        self.fault_at(ChaosAction::LossRate(p), at);
    }

    /// Immediately sets the message-loss probability.
    pub fn set_drop_probability(&mut self, p: f64) {
        self.fault.set_drop_probability(p);
    }

    /// Partitions the network between `left` and `right` at time `at`.
    pub fn partition_at(&mut self, left: Vec<NodeId>, right: Vec<NodeId>, at: SimTime) {
        self.fault_at(ChaosAction::Partition(left, right), at);
    }

    /// Blocks traffic `from → to` only (asymmetric link failure) at `at`.
    pub fn partition_oneway_at(&mut self, from: NodeId, to: NodeId, at: SimTime) {
        self.fault_at(ChaosAction::PartitionOneWay(from, to), at);
    }

    /// Heals all partitions at time `at`.
    pub fn heal_partitions_at(&mut self, at: SimTime) {
        self.fault_at(ChaosAction::HealAll, at);
    }

    /// Heals both directions between `a` and `b` at time `at`, leaving any
    /// other standing partition in place.
    pub fn heal_pair_at(&mut self, a: NodeId, b: NodeId, at: SimTime) {
        self.fault_at(ChaosAction::HealPair(a, b), at);
    }

    /// Sets the loss probability of the directed link `from → to` at `at`
    /// (a lossy-but-alive gray link; `0.0` repairs).
    pub fn set_link_loss_at(&mut self, from: NodeId, to: NodeId, p: f64, at: SimTime) {
        self.fault_at(ChaosAction::LinkLoss(from, to, p), at);
    }

    /// From `at`, adds `base` plus up to `jitter` of deterministic jitter to
    /// every message on the directed link `from → to`, FIFO-preserving
    /// (arrivals on the link stay in send order). Both zero repairs.
    pub fn set_link_delay_at(
        &mut self,
        from: NodeId,
        to: NodeId,
        base: SimDuration,
        jitter: SimDuration,
        at: SimTime,
    ) {
        self.fault_at(ChaosAction::LinkDelay(from, to, base, jitter), at);
    }

    /// From `at`, offsets the clock actors on `node` perceive by `skew_us`
    /// microseconds (may be negative; `0` repairs). Scheduling stays on
    /// true time — only `Context::now` readings are distorted, which is
    /// exactly what breaks naive timeout-based failure detectors.
    pub fn set_clock_skew_at(&mut self, node: NodeId, skew_us: i64, at: SimTime) {
        self.fault_at(ChaosAction::ClockSkew(node, skew_us), at);
    }

    // ----- execution -------------------------------------------------------

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(top) = self.queue.peek() else {
            return false;
        };
        debug_assert!(top.time >= self.time, "time went backwards");
        self.time = top.time;
        // An event that must wait for a busy CPU is re-keyed where it sits
        // instead of being popped and pushed back: same key, same order.
        if let Some(busy_until) = self.deferral(&top.kind) {
            self.events_processed += 1;
            self.queue.rekey_top(busy_until);
        } else if let Some(ev) = self.queue.pop() {
            self.fire(ev.kind);
        }
        true
    }

    /// Processes the pending event with sequence number `seq` *out of
    /// order*, as directed by [`crate::explore`]. The event fires at the
    /// earliest pending instant: the network is asynchronous, so any
    /// in-flight message may legally arrive as soon as the next scheduled
    /// event, and firing there keeps time monotone and timers punctual.
    /// Returns `false` if no such event is pending.
    pub(crate) fn step_seq(&mut self, seq: u64) -> bool {
        let Some(frontier) = self.queue.peek_time() else {
            return false;
        };
        let Some(ev) = self.queue.take(seq) else {
            return false;
        };
        self.time = self.time.max(frontier);
        self.process_event(ev.kind);
        true
    }

    /// A `(time, seq)`-sorted summary of the pending event queue — the
    /// branch frontier for exploration.
    pub(crate) fn pending_events(&self) -> Vec<crate::event::PendingEvent> {
        self.queue.snapshot()
    }

    /// Handles an event taken out of the queue: defers it while its CPU is
    /// busy, fires it otherwise.
    fn process_event(&mut self, kind: EventKind) {
        if let Some(busy_until) = self.deferral(&kind) {
            self.events_processed += 1;
            self.queue.push(busy_until, kind);
        } else {
            self.fire(kind);
        }
    }

    /// CPU queueing: when `kind` targets a live process on an up node whose
    /// CPU is busy past now (and, for a timer, one not cancelled), the
    /// instant the CPU frees up. The event then waits, re-keyed to
    /// `(busy_until, fresh seq)`: it runs after everything already
    /// scheduled for that instant, and is checked again at its turn.
    fn deferral(&self, kind: &EventKind) -> Option<SimTime> {
        let (pid, timer) = match kind {
            EventKind::Deliver { dst, .. } => (*dst, None),
            EventKind::Timer { pid, token } => (*pid, Some(*token)),
            EventKind::Start { .. } | EventKind::SpawnDynamic { .. } | EventKind::Control(_) => {
                return None
            }
        };
        let entry = self.proc(pid).filter(|p| p.alive)?;
        let node = &self.nodes[entry.node.0 as usize];
        let busy_until = node.busy_until();
        let waits = node.is_up()
            && busy_until > self.time
            && timer.is_none_or(|token| !self.canceled_timers.contains_key(&(pid, token)));
        waits.then_some(busy_until)
    }

    fn fire(&mut self, kind: EventKind) {
        self.events_processed += 1;
        match kind {
            EventKind::Deliver {
                src, dst, payload, ..
            } => self.handle_deliver(src, dst, payload),
            EventKind::Timer { pid, token } => self.handle_timer(pid, token),
            EventKind::Start { pid } => {
                self.dispatch(pid, |actor, ctx| actor.on_start(ctx));
            }
            EventKind::SpawnDynamic { pid, node, actor } => {
                self.insert_proc(pid, node, actor);
                self.dispatch(pid, |actor, ctx| actor.on_start(ctx));
            }
            EventKind::Control(action) => self.apply_control(action),
        }
    }

    /// Runs until the queue is exhausted or virtual time reaches `deadline`.
    /// Time is advanced to `deadline` even if the queue empties early.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.time < deadline {
            self.time = deadline;
        }
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.time + d;
        self.run_until(deadline);
    }

    /// Runs until no events remain or `horizon` is reached. Returns `true`
    /// if the world quiesced (queue empty) before the horizon. Note that
    /// periodic timers (heartbeats) prevent quiescence by design.
    pub fn run_to_quiescence(&mut self, horizon: SimTime) -> bool {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                return false;
            }
            self.step();
        }
        true
    }

    /// A structural digest of the current world state, or `None` when any
    /// live actor or in-flight payload does not provide one.
    ///
    /// [`crate::explore`] uses this to prune interleavings that reconverge
    /// to an already-visited state. The digest covers process liveness,
    /// actor state digests, node availability, pending timer cancellations
    /// and the pending event queue with *now-relative* times — two worlds
    /// that differ only by a time shift (or by RNG position) hash equal,
    /// which is what makes pruning effective. That makes pruning a
    /// heuristic reduction, not an exact bisimulation; it is opt-in per
    /// [`crate::explore::ExploreConfig`].
    pub fn state_digest(&self) -> Option<u64> {
        let mut h = crate::explore::Fnv64::new();
        for (pid, entry) in self.procs.iter().enumerate() {
            let Some(entry) = entry else {
                continue;
            };
            h.write_u64(pid as u64);
            h.write_u64(u64::from(entry.node.0));
            h.write_u64(u64::from(entry.alive));
            if entry.alive {
                h.write_u64(entry.actor.as_deref()?.state_digest()?);
            }
        }
        for node in &self.nodes {
            h.write_u64(u64::from(node.is_up()));
            h.write_u64(node.slowdown().to_bits());
            h.write_u64(node.clock_skew_us() as u64);
        }
        self.fault.fold_digest(&mut h);
        for (&(a, b), &mark) in &self.link_fifo {
            h.write_u64(u64::from(a.0));
            h.write_u64(u64::from(b.0));
            h.write_u64(mark.duration_since(self.time).as_micros());
        }
        for (&(pid, token), &count) in &self.canceled_timers {
            h.write_u64(pid.0);
            h.write_u64(token.0);
            h.write_u64(u64::from(count));
        }
        let mut events: Vec<&crate::event::ScheduledEvent> = self.queue.iter().collect();
        events.sort_by_key(|e| (e.time, e.seq));
        for ev in events {
            h.write_u64(ev.time.duration_since(self.time).as_micros());
            match &ev.kind {
                EventKind::Deliver {
                    src,
                    dst,
                    payload,
                    wire_size,
                } => {
                    h.write_u64(0);
                    h.write_u64(src.0);
                    h.write_u64(dst.0);
                    h.write_u64(*wire_size as u64);
                    h.write_u64(payload.digest()?);
                }
                EventKind::Timer { pid, token } => {
                    h.write_u64(1);
                    h.write_u64(pid.0);
                    h.write_u64(token.0);
                }
                EventKind::Start { pid } => {
                    h.write_u64(2);
                    h.write_u64(pid.0);
                }
                // A not-yet-spawned actor has no inspectable state.
                EventKind::SpawnDynamic { .. } => return None,
                EventKind::Control(action) => {
                    h.write_u64(4);
                    h.write_bytes(format!("{action:?}").as_bytes());
                }
            }
        }
        Some(h.finish())
    }

    // ----- internals -------------------------------------------------------

    fn handle_deliver(&mut self, src: ProcessId, dst: ProcessId, payload: Box<dyn Payload>) {
        // Destination may have died or its node gone down since the message
        // was routed.
        let Some(entry) = self.proc(dst) else {
            self.obs.metrics.incr(Ctr::SimDrops);
            return;
        };
        if !entry.alive {
            self.obs.metrics.incr(Ctr::SimDrops);
            return;
        }
        if !self.nodes[entry.node.0 as usize].is_up() {
            self.obs.metrics.incr(Ctr::SimDrops);
            return;
        }
        self.obs.metrics.incr(Ctr::SimDeliveries);
        self.dispatch(dst, move |actor, ctx| actor.on_message(ctx, src, payload));
    }

    fn handle_timer(&mut self, pid: ProcessId, token: TimerToken) {
        if let Some(count) = self.canceled_timers.get_mut(&(pid, token)) {
            *count -= 1;
            if *count == 0 {
                self.canceled_timers.remove(&(pid, token));
            }
            return;
        }
        let Some(entry) = self.proc(pid) else {
            return;
        };
        if !entry.alive || !self.nodes[entry.node.0 as usize].is_up() {
            return;
        }
        self.obs.metrics.incr(Ctr::SimTimerFires);
        self.dispatch(pid, |actor, ctx| actor.on_timer(ctx, token));
    }

    fn dispatch<F>(&mut self, pid: ProcessId, invoke: F)
    where
        F: FnOnce(&mut dyn Actor, &mut Context<'_>),
    {
        let Some(entry) = self.proc_mut(pid) else {
            return;
        };
        if !entry.alive {
            return;
        }
        let node = entry.node;
        let Some(mut actor) = entry.actor.take() else {
            // Re-entrant dispatch cannot happen (actions are deferred), but
            // be defensive rather than panic mid-simulation.
            return;
        };
        let mut ctx = Context {
            // Actors read the node's (possibly skewed) local clock; the
            // scheduler itself always runs on true time.
            now: self.nodes[node.0 as usize].perceive(self.time),
            self_id: pid,
            node,
            actions: std::mem::take(&mut self.actions),
            cpu_cost: SimDuration::ZERO,
            rng: &mut self.rng,
            next_pid: &mut self.next_pid,
        };
        invoke(actor.as_mut(), &mut ctx);
        let mut actions = std::mem::take(&mut ctx.actions);
        let cpu = ctx.cpu_cost;
        if let Some(entry) = self.proc_mut(pid) {
            entry.actor = Some(actor);
        }
        let effective = self.nodes[node.0 as usize].charge(self.time, cpu);
        let depart = self.time + effective;
        self.apply_actions(pid, node, &mut actions, depart);
        self.actions = actions;
    }

    /// Applies (and drains) a handler's actions.
    fn apply_actions(
        &mut self,
        src: ProcessId,
        src_node: NodeId,
        actions: &mut Vec<Action>,
        depart: SimTime,
    ) {
        for action in actions.drain(..) {
            match action {
                Action::Send { dst, payload } => self.route(src, src_node, dst, payload, depart),
                Action::SetTimer { delay, token } => {
                    self.queue
                        .push(self.time + delay, EventKind::Timer { pid: src, token });
                }
                Action::CancelTimer { token } => {
                    *self.canceled_timers.entry((src, token)).or_insert(0) += 1;
                }
                Action::Spawn { pid, node, actor } => {
                    self.queue
                        .push(depart, EventKind::SpawnDynamic { pid, node, actor });
                }
                Action::Kill { pid } => self.crash_process_now(pid),
            }
        }
    }

    fn route(
        &mut self,
        src: ProcessId,
        src_node: NodeId,
        dst: ProcessId,
        payload: Box<dyn Payload>,
        depart: SimTime,
    ) {
        let Some(dst_entry) = self.proc(dst) else {
            self.obs.metrics.incr(Ctr::SimDrops);
            return;
        };
        let dst_node = dst_entry.node;
        let wire_size = payload.wire_size();

        if dst_node == src_node {
            // Same machine: loopback, no network bandwidth consumed.
            self.queue.push(
                depart + self.topology.loopback(),
                EventKind::Deliver {
                    src,
                    dst,
                    payload,
                    wire_size,
                },
            );
            return;
        }

        // The bytes hit the wire whether or not they arrive.
        self.obs.metrics.add(Ctr::SimNetBytes, wire_size as u64);

        if self.fault.is_blocked(src_node, dst_node) {
            self.obs.metrics.incr(Ctr::SimDrops);
            return;
        }
        if self.fault.drop_probability() > 0.0 && self.rng.gen_bool(self.fault.drop_probability()) {
            self.obs.metrics.incr(Ctr::SimDrops);
            return;
        }
        let link_p = self.fault.link_loss(src_node, dst_node);
        if link_p > 0.0 && self.rng.gen_bool(link_p) {
            self.obs.metrics.incr(Ctr::SimDrops);
            return;
        }

        let link = *self.topology.link(src_node, dst_node);
        let delay = link.latency.sample(&mut self.rng) + link.transmission_delay(wire_size);
        let mut arrival = depart + delay;
        if let Some((base, jitter)) = self.fault.link_delay(src_node, dst_node) {
            // Gray delay: base plus deterministic jitter, with a per-link
            // arrival watermark so the added delay never reorders the
            // link's messages. Randomness is consumed only while the fault
            // is active, keeping fault-free RNG streams identical.
            let mut extra = base;
            if !jitter.is_zero() {
                extra += SimDuration::from_micros(self.rng.gen_range_u64(0..=jitter.as_micros()));
            }
            arrival += extra;
            let watermark = self
                .link_fifo
                .entry((src_node, dst_node))
                .or_insert(SimTime::ZERO);
            arrival = arrival.max(*watermark);
            *watermark = arrival;
        }
        self.queue.push(
            arrival,
            EventKind::Deliver {
                src,
                dst,
                payload,
                wire_size,
            },
        );
    }

    pub(crate) fn crash_process_now(&mut self, pid: ProcessId) {
        if let Some(entry) = self.proc_mut(pid) {
            entry.alive = false;
        }
    }

    fn apply_control(&mut self, action: ChaosAction) {
        match action {
            ChaosAction::CrashProcess(pid) => self.crash_process_now(pid),
            ChaosAction::CrashNode(node) => {
                if let Some(state) = self.nodes.get_mut(node.0 as usize) {
                    state.set_up(false);
                }
                for entry in self.procs.iter_mut().flatten() {
                    if entry.node == node {
                        entry.alive = false;
                    }
                }
            }
            ChaosAction::RestartNode(node) => {
                if let Some(state) = self.nodes.get_mut(node.0 as usize) {
                    state.set_up(true);
                }
            }
            ChaosAction::Slowdown(node, factor) => {
                if let Some(state) = self.nodes.get_mut(node.0 as usize) {
                    state.set_slowdown(factor);
                }
            }
            ChaosAction::LossRate(p) => self.fault.set_drop_probability(p),
            ChaosAction::Partition(left, right) => self.fault.partition(&left, &right),
            ChaosAction::PartitionOneWay(from, to) => self.fault.partition_oneway(from, to),
            ChaosAction::HealAll => self.fault.heal(),
            ChaosAction::HealPair(a, b) => self.fault.heal_pair(a, b),
            ChaosAction::LinkLoss(from, to, p) => self.fault.set_link_loss(from, to, p),
            ChaosAction::LinkDelay(from, to, base, jitter) => {
                self.fault.set_link_delay(from, to, base, jitter);
                if self.fault.link_delay(from, to).is_none() {
                    // Repair: forget the FIFO watermark so the healed link
                    // returns to its baseline latency model.
                    self.link_fifo.remove(&(from, to));
                }
            }
            ChaosAction::ClockSkew(node, skew_us) => {
                if let Some(state) = self.nodes.get_mut(node.0 as usize) {
                    state.set_clock_skew_us(skew_us);
                }
            }
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("time", &self.time)
            .field("nodes", &self.nodes.len())
            .field("processes", &self.procs.iter().flatten().count())
            .field("queued_events", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Ping(u32);
    impl Payload for Ping {
        fn wire_size(&self) -> usize {
            64
        }
    }

    #[derive(Debug)]
    struct Pong(#[expect(dead_code, reason = "the payload's value is never read back")] u32);
    impl Payload for Pong {
        fn wire_size(&self) -> usize {
            64
        }
    }

    /// Replies Pong to every Ping, charging some CPU.
    struct Echo {
        cpu: SimDuration,
        seen: u32,
    }
    impl Actor for Echo {
        fn on_message(
            &mut self,
            ctx: &mut Context<'_>,
            from: ProcessId,
            payload: Box<dyn Payload>,
        ) {
            if let Ok(ping) = crate::actor::downcast_payload::<Ping>(payload) {
                self.seen += 1;
                ctx.use_cpu(self.cpu);
                if from != EXTERNAL {
                    ctx.send(from, Pong(ping.0));
                }
            }
        }

        fn state_digest(&self) -> Option<u64> {
            None
        }
    }

    /// Sends pings and records round trips.
    struct Pinger {
        target: ProcessId,
        sent_at: SimTime,
        rtts: Vec<SimDuration>,
    }
    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.sent_at = ctx.now();
            ctx.send(self.target, Ping(0));
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_>,
            _from: ProcessId,
            payload: Box<dyn Payload>,
        ) {
            if crate::actor::downcast_payload::<Pong>(payload).is_ok() {
                self.rtts.push(ctx.now() - self.sent_at);
            }
        }

        fn state_digest(&self) -> Option<u64> {
            None
        }
    }

    fn lan_world(seed: u64) -> World {
        let mut topo = Topology::full_mesh(3);
        topo.set_default_link(crate::topology::LinkConfig::with_latency(
            crate::topology::LatencyModel::constant(SimDuration::from_micros(100)),
        ));
        World::new(topo, seed)
    }

    #[test]
    fn ping_pong_round_trip_latency() {
        let mut world = lan_world(1);
        let echo = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::ZERO,
                seen: 0,
            }),
        );
        let pinger = world.spawn(
            NodeId(0),
            Box::new(Pinger {
                target: echo,
                sent_at: SimTime::ZERO,
                rtts: Vec::new(),
            }),
        );
        world.run_for(SimDuration::from_millis(10));
        let p = world.actor_ref::<Pinger>(pinger).unwrap();
        assert_eq!(p.rtts.len(), 1);
        // Two 100 µs hops.
        assert_eq!(p.rtts[0], SimDuration::from_micros(200));
    }

    #[test]
    fn cpu_cost_delays_reply() {
        let mut world = lan_world(1);
        let echo = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::from_micros(300),
                seen: 0,
            }),
        );
        let pinger = world.spawn(
            NodeId(0),
            Box::new(Pinger {
                target: echo,
                sent_at: SimTime::ZERO,
                rtts: Vec::new(),
            }),
        );
        world.run_for(SimDuration::from_millis(10));
        let p = world.actor_ref::<Pinger>(pinger).unwrap();
        assert_eq!(p.rtts[0], SimDuration::from_micros(500));
    }

    #[test]
    fn busy_node_serializes_handlers() {
        let mut world = lan_world(1);
        let echo = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::from_micros(1000),
                seen: 0,
            }),
        );
        // Two pingers hit the echo at the same instant; the second reply is
        // delayed by the first's CPU time.
        let p1 = world.spawn(
            NodeId(0),
            Box::new(Pinger {
                target: echo,
                sent_at: SimTime::ZERO,
                rtts: Vec::new(),
            }),
        );
        let p2 = world.spawn(
            NodeId(2),
            Box::new(Pinger {
                target: echo,
                sent_at: SimTime::ZERO,
                rtts: Vec::new(),
            }),
        );
        world.run_for(SimDuration::from_millis(20));
        let r1 = world.actor_ref::<Pinger>(p1).unwrap().rtts[0];
        let r2 = world.actor_ref::<Pinger>(p2).unwrap().rtts[0];
        let (fast, slow) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
        assert_eq!(fast, SimDuration::from_micros(1200));
        assert_eq!(slow, SimDuration::from_micros(2200));
    }

    #[test]
    fn crashed_process_receives_nothing() {
        let mut world = lan_world(1);
        let echo = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::ZERO,
                seen: 0,
            }),
        );
        world.crash_process_at(echo, SimTime::from_micros(50));
        world.run_for(SimDuration::from_micros(60));
        world.inject(echo, Ping(1));
        world.run_for(SimDuration::from_millis(5));
        assert!(!world.is_alive(echo));
        assert_eq!(world.actor_ref::<Echo>(echo).unwrap().seen, 0);
    }

    #[test]
    fn node_crash_kills_processes() {
        let mut world = lan_world(1);
        let echo = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::ZERO,
                seen: 0,
            }),
        );
        world.crash_node_at(NodeId(1), SimTime::from_micros(10));
        world.run_for(SimDuration::from_millis(1));
        assert!(!world.is_node_up(NodeId(1)));
        assert!(!world.is_alive(echo));
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let mut world = lan_world(1);
        let echo = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::ZERO,
                seen: 0,
            }),
        );
        world.partition_at(vec![NodeId(0)], vec![NodeId(1)], SimTime::ZERO);
        let pinger = world.spawn(
            NodeId(0),
            Box::new(Pinger {
                target: echo,
                sent_at: SimTime::ZERO,
                rtts: Vec::new(),
            }),
        );
        world.run_for(SimDuration::from_millis(5));
        assert_eq!(world.actor_ref::<Echo>(echo).unwrap().seen, 0);
        world.heal_partitions_at(world.now());
        // Re-ping after healing by re-running on_start logic manually.
        world.inject(echo, Ping(2));
        world.run_for(SimDuration::from_millis(5));
        assert_eq!(world.actor_ref::<Echo>(echo).unwrap().seen, 1);
        let _ = pinger;
    }

    #[test]
    fn full_loss_drops_all_internode_traffic() {
        let mut world = lan_world(1);
        let echo = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::ZERO,
                seen: 0,
            }),
        );
        world.set_drop_probability(1.0);
        let _pinger = world.spawn(
            NodeId(0),
            Box::new(Pinger {
                target: echo,
                sent_at: SimTime::ZERO,
                rtts: Vec::new(),
            }),
        );
        world.run_for(SimDuration::from_millis(5));
        assert_eq!(world.actor_ref::<Echo>(echo).unwrap().seen, 0);
    }

    #[test]
    fn net_bytes_count_wire_bytes_between_nodes() {
        let mut world = lan_world(1);
        let echo = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::ZERO,
                seen: 0,
            }),
        );
        let _p = world.spawn(
            NodeId(0),
            Box::new(Pinger {
                target: echo,
                sent_at: SimTime::ZERO,
                rtts: Vec::new(),
            }),
        );
        world.run_for(SimDuration::from_millis(5));
        // One ping + one pong, 64 bytes each.
        assert_eq!(world.obs().metrics.counter(Ctr::SimNetBytes), 128);
    }

    #[test]
    fn same_node_messages_skip_network() {
        let mut world = lan_world(1);
        let echo = world.spawn(
            NodeId(0),
            Box::new(Echo {
                cpu: SimDuration::ZERO,
                seen: 0,
            }),
        );
        let _p = world.spawn(
            NodeId(0),
            Box::new(Pinger {
                target: echo,
                sent_at: SimTime::ZERO,
                rtts: Vec::new(),
            }),
        );
        world.run_for(SimDuration::from_millis(5));
        assert_eq!(world.obs().metrics.counter(Ctr::SimNetBytes), 0);
        assert_eq!(world.actor_ref::<Echo>(echo).unwrap().seen, 1);
    }

    /// A fixture exercising timers and dynamic spawn.
    struct Spawner {
        child: Option<ProcessId>,
        fired: u32,
    }
    impl Actor for Spawner {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_micros(100), TimerToken(1));
            ctx.set_timer(SimDuration::from_micros(200), TimerToken(2));
            ctx.cancel_timer(TimerToken(2));
        }
        fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: Box<dyn Payload>) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
            self.fired += 1;
            if timer == TimerToken(1) && self.child.is_none() {
                self.child = Some(ctx.spawn(
                    ctx.node(),
                    Box::new(Echo {
                        cpu: SimDuration::ZERO,
                        seen: 0,
                    }),
                ));
            }
        }

        fn state_digest(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut world = lan_world(1);
        let s = world.spawn(
            NodeId(0),
            Box::new(Spawner {
                child: None,
                fired: 0,
            }),
        );
        world.run_for(SimDuration::from_millis(1));
        let spawner = world.actor_ref::<Spawner>(s).unwrap();
        assert_eq!(spawner.fired, 1, "token 2 was cancelled");
        let child = spawner.child.expect("child spawned");
        assert!(world.is_alive(child));
        world.inject(child, Ping(9));
        world.run_for(SimDuration::from_millis(1));
        assert_eq!(world.actor_ref::<Echo>(child).unwrap().seen, 1);
    }

    /// Two runs with the same seed produce the same round trips, clock and
    /// scheduler counters; a different seed produces a different run.
    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let mut topo = Topology::full_mesh(3);
            topo.set_default_link(crate::topology::LinkConfig::with_latency(
                crate::topology::LatencyModel::uniform(
                    SimDuration::from_micros(50),
                    SimDuration::from_micros(30),
                ),
            ));
            let mut world = World::new(topo, seed);
            world.set_drop_probability(0.05);
            let echo = world.spawn(
                NodeId(1),
                Box::new(Echo {
                    cpu: SimDuration::from_micros(20),
                    seen: 0,
                }),
            );
            let pingers: Vec<ProcessId> = [0u32, 2]
                .into_iter()
                .map(|node| {
                    world.spawn(
                        NodeId(node),
                        Box::new(Pinger {
                            target: echo,
                            sent_at: SimTime::ZERO,
                            rtts: Vec::new(),
                        }),
                    )
                })
                .collect();
            world.run_for(SimDuration::from_millis(50));
            let rtts: Vec<Vec<SimDuration>> = pingers
                .iter()
                .map(|&p| world.actor_ref::<Pinger>(p).unwrap().rtts.clone())
                .collect();
            let counters = [Ctr::SimDeliveries, Ctr::SimDrops, Ctr::SimTimerFires]
                .map(|c| world.obs().metrics.counter(c));
            (rtts, world.now(), counters)
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn run_until_advances_clock_past_quiescence() {
        let mut world = lan_world(1);
        world.run_until(SimTime::from_secs(3));
        assert_eq!(world.now(), SimTime::from_secs(3));
        assert!(world.run_to_quiescence(SimTime::from_secs(4)));
    }

    #[test]
    #[should_panic(expected = "spawn on unknown")]
    fn spawn_on_missing_node_panics() {
        let mut world = lan_world(1);
        world.spawn(
            NodeId(99),
            Box::new(Echo {
                cpu: SimDuration::ZERO,
                seen: 0,
            }),
        );
    }

    #[test]
    fn link_loss_drops_one_direction_only() {
        let mut world = lan_world(3);
        let echo = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::ZERO,
                seen: 0,
            }),
        );
        // Requests 0 → 1 are black-holed; replies 1 → 0 would flow.
        world.set_link_loss_at(NodeId(0), NodeId(1), 1.0, SimTime::ZERO);
        let pinger = world.spawn(
            NodeId(0),
            Box::new(Pinger {
                target: echo,
                sent_at: SimTime::ZERO,
                rtts: Vec::new(),
            }),
        );
        world.run_for(SimDuration::from_millis(5));
        assert_eq!(world.actor_ref::<Echo>(echo).unwrap().seen, 0);
        // Repair and retry: traffic flows again.
        world.set_link_loss_at(NodeId(0), NodeId(1), 0.0, world.now());
        world.run_for(SimDuration::from_micros(10));
        world.inject(echo, Ping(7));
        world.run_for(SimDuration::from_millis(5));
        assert_eq!(world.actor_ref::<Echo>(echo).unwrap().seen, 1);
        let _ = pinger;
    }

    #[test]
    fn link_delay_slows_but_does_not_kill() {
        let mut world = lan_world(4);
        let echo = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::ZERO,
                seen: 0,
            }),
        );
        // +1 ms on the request path only, no jitter: RTT = 100 + 1000 + 100.
        world.set_link_delay_at(
            NodeId(0),
            NodeId(1),
            SimDuration::from_millis(1),
            SimDuration::ZERO,
            SimTime::ZERO,
        );
        let pinger = world.spawn(
            NodeId(0),
            Box::new(Pinger {
                target: echo,
                sent_at: SimTime::ZERO,
                rtts: Vec::new(),
            }),
        );
        world.run_for(SimDuration::from_millis(10));
        let p = world.actor_ref::<Pinger>(pinger).unwrap();
        assert_eq!(p.rtts, vec![SimDuration::from_micros(1_200)]);
    }

    #[test]
    fn clock_skew_distorts_perceived_time_only() {
        /// Records the local clock at each timer fire.
        struct ClockReader {
            readings: Vec<SimTime>,
        }
        impl Actor for ClockReader {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.readings.push(ctx.now());
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(1));
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: Box<dyn Payload>) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
                self.readings.push(ctx.now());
            }

            fn state_digest(&self) -> Option<u64> {
                None
            }
        }
        let mut world = lan_world(5);
        let reader = world.spawn(
            NodeId(0),
            Box::new(ClockReader {
                readings: Vec::new(),
            }),
        );
        world.set_clock_skew_at(NodeId(0), 500, SimTime::from_micros(10));
        world.run_for(SimDuration::from_millis(5));
        let r = world.actor_ref::<ClockReader>(reader).unwrap();
        // on_start at true 0 (unskewed), timer at true 1000 perceived 1500:
        // the timer still fired punctually on true time, only the reading
        // is offset.
        assert_eq!(r.readings, vec![SimTime::ZERO, SimTime::from_micros(1_500)]);
    }

    #[test]
    fn slow_node_doubles_service_time() {
        let mut world = lan_world(5);
        world.slow_node_at(NodeId(1), 2.0, SimTime::ZERO);
        let echo = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::from_micros(100),
                seen: 0,
            }),
        );
        let pinger = world.spawn(
            NodeId(0),
            Box::new(Pinger {
                target: echo,
                sent_at: SimTime::ZERO,
                rtts: Vec::new(),
            }),
        );
        world.run_for(SimDuration::from_millis(5));
        let rtt = world.actor_ref::<Pinger>(pinger).unwrap().rtts[0];
        // 200 µs network + 2 × 100 µs CPU.
        assert_eq!(rtt, SimDuration::from_micros(400));
    }

    #[derive(Debug)]
    struct Tag(u64);
    impl Payload for Tag {
        fn wire_size(&self) -> usize {
            16
        }
    }

    /// Logs `(µs, label)` for every handler it runs: `Tag(n)` as `n`, timer
    /// `t` as `100 + t`. `Tag(0)` is a 1 ms job that arms timer 1 for the
    /// instant the job frees the CPU; timer 1 cancels timer 2, which
    /// `on_start` arms to fire mid-job.
    struct Recorder {
        log: Vec<(u64, u64)>,
    }
    impl Actor for Recorder {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_micros(155), TimerToken(2));
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, _: ProcessId, payload: Box<dyn Payload>) {
            if let Ok(tag) = crate::actor::downcast_payload::<Tag>(payload) {
                self.log.push((ctx.now().as_micros(), tag.0));
                if tag.0 == 0 {
                    ctx.use_cpu(SimDuration::from_millis(1));
                    ctx.set_timer(SimDuration::from_millis(1), TimerToken(1));
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
            self.log.push((ctx.now().as_micros(), 100 + token.0));
            if token == TimerToken(1) {
                ctx.cancel_timer(TimerToken(2));
            }
        }

        fn state_digest(&self) -> Option<u64> {
            None
        }
    }

    /// The CPU-deferral rule: an event for a busy node is re-keyed to
    /// `(busy_until, fresh seq)`. So at `busy_until` the events scheduled
    /// for that instant before the deferrals run first, the deferred ones
    /// follow in the order they were deferred, and anything scheduled for
    /// the instant after them runs last. A deferred event is re-checked at
    /// its turn: a cancelled timer is swallowed and a message to a process
    /// that died meanwhile is dropped.
    #[test]
    fn busy_node_defers_events_to_a_fresh_key_at_busy_until() {
        let mut world = lan_world(1);
        let rec = world.spawn(NodeId(1), Box::new(Recorder { log: Vec::new() }));
        let doomed = world.spawn(
            NodeId(1),
            Box::new(Echo {
                cpu: SimDuration::ZERO,
                seen: 0,
            }),
        );
        // The job arrives at 5 µs (loopback) and holds node 1 until
        // 1,005 µs; timer 1 is due at exactly 1,005 µs.
        world.inject(rec, Tag(0));
        world.run_until(SimTime::from_micros(100));
        world.inject(rec, Tag(1));
        // Timer 2 comes due at 155 µs, mid-job.
        world.run_until(SimTime::from_micros(200));
        world.inject(rec, Tag(2));
        world.run_until(SimTime::from_micros(300));
        world.inject(doomed, Ping(0));
        world.crash_process_at(doomed, SimTime::from_micros(500));
        // Arrives at exactly 1,005 µs, but is scheduled after the deferrals.
        world.run_until(SimTime::from_micros(1_000));
        world.inject(rec, Tag(3));
        let drops = world.obs().metrics.counter(Ctr::SimDrops);
        world.run_until(SimTime::from_micros(2_000));
        assert_eq!(
            world.actor_ref::<Recorder>(rec).unwrap().log,
            vec![(5, 0), (1_005, 101), (1_005, 1), (1_005, 2), (1_005, 3)]
        );
        assert!(
            world.canceled_timers.is_empty(),
            "the deferred, cancelled timer 2 was swallowed at its turn"
        );
        assert_eq!(world.actor_ref::<Echo>(doomed).unwrap().seen, 0);
        assert_eq!(world.obs().metrics.counter(Ctr::SimDrops), drops + 1);
    }
}
