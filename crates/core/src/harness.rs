//! Model-checking harnesses over the *real* recovery stack.
//!
//! [`crate::invariants`] gives the explorer something to check;
//! this module gives it something to check *against*: deterministic world
//! factories that park the full replication stack — replicas, recovery
//! manager, co-hosted groups — at the edge of its historically bug-rich
//! windows, so [`vd_simnet::explore`] can branch through them. The same
//! factories back the `recovery_explore` integration tests and the
//! `experiments -- explore` CI gate (which is how the two stay honest: a
//! budget bump in CI explores exactly the space the tests document).
//!
//! Three scenarios are covered:
//!
//! * **Double-fault recovery** — [`recovery_world`] parks a managed
//!   three-replica cluster with a style switch and client requests in
//!   flight (crash candidate: the primary — fault one, explored);
//!   [`double_fault_world`] then replays fault one deterministically and
//!   re-parks the world with the manager's first replacement joiner
//!   mid-state-transfer (crash candidates: the joiner and a surviving
//!   backup — fault two, explored). Splitting the faults keeps each
//!   neighborhood within an exhaustible depth; the schedule between them
//!   is the deterministic warm-up, not wasted exploration budget.
//! * **Concurrent co-hosted switches** — [`cohosted_world`] parks two
//!   object groups sharing the same three processes with a Fig. 5 style
//!   switch in flight in *each*, so the explorer interleaves the two
//!   protocol runs against each other.
//! * **Laggard primary mid-switch** — [`laggard_switch_world`] parks a
//!   warm-passive cluster the moment its slow-failure policy decides to
//!   demote a gray (alive-but-slow) primary, with the agreed-order
//!   demotion, a Fig. 5 style switch and client requests all in flight
//!   (crash candidate: the laggard itself, so the demotion-handover
//!   crash branch is explored too).
//!
//! The safety invariants ([`recovery_invariant`], [`cohosted_invariant`])
//! are checked after every explored choice. The liveness leg — the degree
//! actually gets restored — cannot be a per-step invariant (mid-recovery
//! the degree is *legitimately* low), so it is a deterministic run-down
//! instead: [`restores_degree_after_double_fault`].

use bytes::Bytes;

use vd_group::config::GroupConfig;
use vd_group::detector::DetectorConfig;
use vd_group::message::GroupId;
use vd_orb::object::ObjectKey;
use vd_orb::wire::{OrbMessage, Request};
use vd_simnet::explore::ExploreConfig;
use vd_simnet::time::{SimDuration, SimTime};
use vd_simnet::topology::{LatencyModel, LinkConfig, NodeId, ProcessId, Topology};
use vd_simnet::world::World;

use crate::invariants::SwitchInvariants;
use crate::knobs::LowLevelKnobs;
use crate::policy::{AdaptationAction, SlowFailurePolicy};
use crate::recovery::{RecoveryConfig, RecoveryManager};
use crate::replica::{GroupMembership, HostedGroup, ReplicaActor, ReplicaCommand, ReplicaConfig};
use crate::state::{InvokeResult, ReplicatedApplication};
use crate::style::ReplicationStyle;

/// The managed object group of the recovery harnesses.
pub const GROUP_A: GroupId = GroupId(1);
/// The second co-hosted group of [`cohosted_world`].
pub const GROUP_B: GroupId = GroupId(2);
/// The three bootstrap replicas (process ids 0, 1, 2).
pub const REPLICAS: [ProcessId; 3] = [ProcessId(0), ProcessId(1), ProcessId(2)];
/// The bootstrap primary — fault one's crash candidate.
pub const PRIMARY: ProcessId = ProcessId(0);
/// The recovery manager process.
pub const MANAGER: ProcessId = ProcessId(3);
/// The first replacement the manager spawns (first dynamic pid after the
/// static spawns) — fault two's crash candidate.
pub const JOINER: ProcessId = ProcessId(4);
/// The replication degree the manager must restore.
pub const TARGET_DEGREE: usize = 3;
/// The manager's hard cap on upward actuation; [`recovery_invariant`]
/// rejects any view that exceeds it.
pub const MAX_DEGREE: usize = 5;

/// The deterministic counter servant used by every harness world.
struct Counter {
    value: u64,
}

impl ReplicatedApplication for Counter {
    fn invoke(&mut self, operation: &str, _args: &Bytes) -> InvokeResult {
        if operation == "increment" {
            self.value += 1;
        }
        Ok(Bytes::copy_from_slice(&self.value.to_le_bytes()))
    }

    fn capture_state(&self) -> Bytes {
        Bytes::copy_from_slice(&self.value.to_le_bytes())
    }

    fn restore_state(&mut self, state: &Bytes) {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&state[..8]);
        self.value = u64::from_le_bytes(raw);
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Exploration bounds shared by the recovery harnesses: depth and budget
/// come from `VD_EXPLORE_DEPTH` / `VD_EXPLORE_SCHEDULES` (defaults sized
/// for a CI smoke run), crashes from the caller.
pub fn explore_config(crash_candidates: Vec<ProcessId>, max_crashes: usize) -> ExploreConfig {
    ExploreConfig {
        max_depth: env_u64("VD_EXPLORE_DEPTH", 7) as usize,
        max_schedules: env_u64("VD_EXPLORE_SCHEDULES", 400),
        crash_candidates,
        max_crashes,
        ..ExploreConfig::default()
    }
}

fn topology(nodes: u32) -> Topology {
    let mut topo = Topology::full_mesh(nodes);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(20),
    )));
    topo
}

fn request(object: &str, request_id: u64) -> OrbMessage {
    OrbMessage::Request(Request {
        request_id,
        object_key: ObjectKey::new(object),
        operation: "increment".into(),
        args: Bytes::new(),
        response_expected: true,
    })
}

fn replica_config(group: GroupId) -> ReplicaConfig {
    ReplicaConfig {
        knobs: LowLevelKnobs::default()
            .style(ReplicationStyle::Active)
            .num_replicas(TARGET_DEGREE),
        // min_view 2: a partitioned-off or shrunk-below-quorum minority
        // self-evicts instead of soldiering on as a rump primary — the
        // behavior the no-rump-primary invariant pins down.
        group_config: GroupConfig::default().min_view(2),
        managers: vec![MANAGER],
        ..ReplicaConfig::for_group(group)
    }
}

/// The managed cluster at the edge of fault one: three Active replicas
/// (pids 0–2), one recovery manager (pid 3) with two spare nodes, settled
/// for 100 ms, then left with three client requests and a
/// `Switch(WarmPassive)` concurrently in flight. Crash candidate for
/// exploration: [`PRIMARY`] (the switch initiator's host).
pub fn recovery_world() -> World {
    let mut world = World::new(topology(6), 0x0041_7EC7);
    let members = REPLICAS.to_vec();
    for i in 0..TARGET_DEGREE as u32 {
        let pid = world.spawn(
            NodeId(i),
            Box::new(ReplicaActor::bootstrap(
                ProcessId(u64::from(i)),
                members.clone(),
                Box::new(Counter { value: 0 }),
                replica_config(GROUP_A),
            )),
        );
        assert_eq!(pid, ProcessId(u64::from(i)));
    }
    let manager_config = RecoveryConfig {
        target_replicas: TARGET_DEGREE,
        max_replicas: MAX_DEGREE,
        spawn_nodes: vec![NodeId(4), NodeId(5)],
        probe_interval: SimDuration::from_millis(5),
        attempt_deadline: SimDuration::from_millis(200),
        backoff_base: SimDuration::from_millis(20),
        backoff_cap: SimDuration::from_millis(200),
        max_attempts: 6,
        peers: vec![MANAGER],
        ..RecoveryConfig::for_replica(replica_config(GROUP_A))
    };
    let pid = world.spawn(
        NodeId(3),
        Box::new(RecoveryManager::new(
            manager_config,
            Box::new(|| Box::new(Counter { value: 0 })),
        )),
    );
    assert_eq!(pid, MANAGER);
    // Deterministic prefix: group formation, manager duty pickup, steady
    // state.
    world.run_for(SimDuration::from_millis(100));
    // Concurrently pending at exploration start: requests through two
    // gateways and the style switch.
    world.inject(REPLICAS[0], request("counter", 1));
    world.inject(REPLICAS[1], request("counter", 2));
    world.inject(
        REPLICAS[1],
        ReplicaCommand::Switch {
            group: GROUP_A,
            style: ReplicationStyle::WarmPassive,
        },
    );
    world
}

/// The cluster at the edge of fault two: [`recovery_world`] with fault one
/// (primary crash just after the switch can deliver) replayed
/// deterministically, run forward until the manager's first replacement
/// joiner ([`JOINER`]) is up but still mid-state-transfer. Crash
/// candidates for exploration: the joiner, and a surviving backup (which
/// shrinks the view below `min_view` — the eviction edge).
///
/// # Panics
///
/// If the manager never spawns a replacement — a deterministic harness
/// bug, not an explorable outcome.
pub fn double_fault_world() -> World {
    let mut world = recovery_world();
    world.crash_process_at(PRIMARY, world.now() + SimDuration::from_micros(900));
    // Step in small increments until the joiner exists but has not yet
    // finished the join + state transfer (flush rounds plus a checkpoint
    // take well over a millisecond against these link latencies).
    for _ in 0..8_000 {
        world.run_for(SimDuration::from_micros(250));
        let spawned = world
            .actor_ref::<RecoveryManager>(MANAGER)
            .map(|m| m.spawned.clone())
            .unwrap_or_default();
        if let Some(&joiner) = spawned.first() {
            if let Some(actor) = world.actor_ref::<ReplicaActor>(joiner) {
                assert_eq!(joiner, JOINER, "first dynamic spawn pid");
                assert!(
                    !actor.engine().is_synced(),
                    "joiner must still be mid-state-transfer at exploration start"
                );
                return world;
            }
        }
    }
    panic!("recovery manager never spawned a replacement joiner");
}

/// Safety invariants of the recovery harnesses, checked after every
/// explored choice:
///
/// * the Fig. 5 switch invariants (single primary, exactly-once
///   execution, reply convergence) over bootstrap replicas and every
///   possible replacement;
/// * **no rump primary** — an evicted replica must not still believe it
///   is primary;
/// * **degree bound** — no live view larger than [`MAX_DEGREE`] (a
///   runaway manager spawning past its cap).
pub fn recovery_invariant(world: &World) -> Result<(), String> {
    // Bootstrap replicas plus every pid the manager could have spawned
    // (max_attempts = 6 → dynamic pids 4..10). Dead or never-spawned pids
    // are skipped by the checker.
    let candidates: Vec<ProcessId> = REPLICAS
        .iter()
        .copied()
        .chain((4..10).map(ProcessId))
        .collect();
    SwitchInvariants::for_group(GROUP_A, candidates.clone()).check(world)?;
    for &pid in &candidates {
        if !world.is_alive(pid) {
            continue;
        }
        let Some(actor) = world.actor_ref::<ReplicaActor>(pid) else {
            continue;
        };
        let Some(replication) = actor.replication(GROUP_A) else {
            continue;
        };
        let engine = actor.engine_of(GROUP_A).expect("engine of hosted group");
        if replication.evicted() && engine.is_primary() {
            return Err(format!(
                "no-rump-primary violated at {}: evicted replica {pid} still \
                 believes it is primary",
                world.now()
            ));
        }
        if engine.members().len() > MAX_DEGREE {
            return Err(format!(
                "degree bound violated at {}: replica {pid} sees view of {} > {MAX_DEGREE}",
                world.now(),
                engine.members().len()
            ));
        }
    }
    Ok(())
}

/// The liveness leg of the double-fault scenario, as a deterministic
/// run-down: replay both faults (primary crash mid-switch, then the
/// replacement joiner crash mid-state-transfer), run 15 s, and require
/// the replication degree restored to [`TARGET_DEGREE`] with no give-up
/// alarm. Returns a diagnostic instead of panicking so the CI gate can
/// report it as a failed gate.
pub fn restores_degree_after_double_fault() -> Result<(), String> {
    let mut world = double_fault_world();
    world.crash_process_at(JOINER, world.now());
    world.run_for(SimDuration::from_secs(15));
    let survivor = world
        .actor_ref::<ReplicaActor>(REPLICAS[1])
        .ok_or("survivor replica 1 disappeared")?;
    let degree = survivor.engine().members().len();
    if degree != TARGET_DEGREE {
        return Err(format!(
            "degree not restored after double fault: {degree} != {TARGET_DEGREE}"
        ));
    }
    let manager = world
        .actor_ref::<RecoveryManager>(MANAGER)
        .ok_or("manager disappeared")?;
    if manager.spawned.len() < 2 {
        return Err(format!(
            "the crashed joiner should have forced a second attempt: {:?}",
            manager.spawned
        ));
    }
    if !manager.alarms.is_empty() {
        return Err(format!("manager gave up: {:?}", manager.alarms));
    }
    recovery_invariant(&world)
}

/// Two object groups fully co-hosted on the same three processes, settled
/// for 100 ms, then left with a request and a Fig. 5 `Switch(WarmPassive)`
/// in flight in *each* group (initiated at different replicas), so the
/// explorer interleaves the two protocol runs against each other.
pub fn cohosted_world() -> World {
    let mut world = World::new(topology(3), 0x00C0_4057);
    let members = REPLICAS.to_vec();
    for i in 0..3u64 {
        let actor = ReplicaActor::host(
            ProcessId(i),
            vec![
                HostedGroup {
                    membership: GroupMembership::Bootstrap(members.clone()),
                    app: Box::new(Counter { value: 0 }),
                    config: replica_config(GROUP_A),
                },
                HostedGroup {
                    membership: GroupMembership::Bootstrap(members.clone()),
                    app: Box::new(Counter { value: 0 }),
                    config: replica_config(GROUP_B),
                },
            ],
            None,
        )
        .with_route(ObjectKey::new("obj-a"), GROUP_A)
        .with_route(ObjectKey::new("obj-b"), GROUP_B);
        let pid = world.spawn(NodeId(i as u32), Box::new(actor));
        assert_eq!(pid, ProcessId(i));
    }
    world.run_for(SimDuration::from_millis(100));
    world.inject(REPLICAS[0], request("obj-a", 1));
    world.inject(REPLICAS[1], request("obj-b", 1));
    world.inject(
        REPLICAS[0],
        ReplicaCommand::Switch {
            group: GROUP_A,
            style: ReplicationStyle::WarmPassive,
        },
    );
    world.inject(
        REPLICAS[1],
        ReplicaCommand::Switch {
            group: GROUP_B,
            style: ReplicationStyle::WarmPassive,
        },
    );
    world
}

/// Per-group safety invariants of [`cohosted_world`], checked after every
/// explored choice: each group independently upholds the switch
/// invariants, and neither group's machinery disappears from a live
/// co-hosting process (cross-group bleed).
pub fn cohosted_invariant(world: &World) -> Result<(), String> {
    let members = REPLICAS.to_vec();
    SwitchInvariants::for_group(GROUP_A, members.clone()).check(world)?;
    SwitchInvariants::for_group(GROUP_B, members.clone()).check(world)?;
    for &pid in &REPLICAS {
        if !world.is_alive(pid) {
            continue;
        }
        let Some(actor) = world.actor_ref::<ReplicaActor>(pid) else {
            continue;
        };
        for group in [GROUP_A, GROUP_B] {
            if actor.engine_of(group).is_none() {
                return Err(format!(
                    "co-hosting violated at {}: process {pid} lost its {group:?} engine",
                    world.now()
                ));
            }
        }
    }
    Ok(())
}

/// A warm-passive cluster parked at the instant its slow-failure policy
/// decides to demote a gray primary: three replicas with a sensitized
/// adaptive detector and `SlowFailurePolicy::new(1, ∞)`, the primary's
/// outbound links under repeated sub-timeout delay steps, stepped in
/// 250 µs increments until the first `DemotePrimary` directive fires.
/// At that point the agreed-order demotion is in flight; a Fig. 5
/// `Switch(ColdPassive)` and two client requests are injected on top and
/// the world is returned for exploration. Crash candidate: [`PRIMARY`]
/// (the laggard), so the explorer also drives the handover's
/// crash-mid-demotion branch.
///
/// # Panics
///
/// If the policy never demotes the stalled primary — a deterministic
/// harness bug, not an explorable outcome.
pub fn laggard_switch_world() -> World {
    let mut world = World::new(topology(3), 0x001A_66AD);
    let members = REPLICAS.to_vec();
    for i in 0..TARGET_DEGREE as u32 {
        let config = ReplicaConfig {
            knobs: LowLevelKnobs::default()
                .style(ReplicationStyle::WarmPassive)
                .num_replicas(TARGET_DEGREE),
            group_config: GroupConfig::default().min_view(2),
            // Tight policy cadence so the short laggard windows between
            // delay steps are reliably sampled.
            policy_interval: SimDuration::from_millis(10),
            ..ReplicaConfig::for_group(GROUP_A)
        };
        let mut detector = DetectorConfig::new(config.group_config.failure_timeout);
        // Classify statistically anomalous silence as laggard well before
        // the fixed timeout — the induced stalls live in that gray zone.
        detector.laggard_z = 1.5;
        let actor = ReplicaActor::bootstrap(
            ProcessId(u64::from(i)),
            members.clone(),
            Box::new(Counter { value: 0 }),
            config,
        )
        .with_policy(Box::new(SlowFailurePolicy::new(1, u32::MAX)))
        .with_detector_config(detector);
        let pid = world.spawn(NodeId(i), Box::new(actor));
        assert_eq!(pid, ProcessId(u64::from(i)));
    }
    world.run_for(SimDuration::from_millis(100));
    // Repeated sub-timeout stalls on the primary's outbound links: each
    // 40 ms base-delay step silences it for ~45 ms — past the sensitized
    // laggard threshold, below the 50 ms fixed failure timeout.
    for to in [1u32, 2] {
        for step in 0..8u64 {
            world.set_link_delay_at(
                NodeId(0),
                NodeId(to),
                SimDuration::from_millis(40),
                SimDuration::ZERO,
                SimTime::from_millis(600 + step * 100),
            );
            world.set_link_delay_at(
                NodeId(0),
                NodeId(to),
                SimDuration::from_millis(5),
                SimDuration::ZERO,
                SimTime::from_millis(650 + step * 100),
            );
        }
        world.set_link_delay_at(
            NodeId(0),
            NodeId(to),
            SimDuration::ZERO,
            SimDuration::ZERO,
            SimTime::from_millis(1450),
        );
    }
    // Park at the first demotion decision: the policy directive and the
    // agreed-order demote multicast land in the same tick, so stepping in
    // small increments catches the handover still in flight.
    for _ in 0..16_000 {
        world.run_for(SimDuration::from_micros(250));
        let demote_issued = REPLICAS.iter().any(|&pid| {
            world.actor_ref::<ReplicaActor>(pid).is_some_and(|actor| {
                actor
                    .directives()
                    .iter()
                    .any(|(_, d)| *d == AdaptationAction::DemotePrimary)
            })
        });
        if demote_issued {
            world.inject(REPLICAS[1], request("counter", 1));
            world.inject(REPLICAS[2], request("counter", 2));
            world.inject(
                REPLICAS[1],
                ReplicaCommand::Switch {
                    group: GROUP_A,
                    style: ReplicationStyle::ColdPassive,
                },
            );
            return world;
        }
    }
    panic!("slow-failure policy never demoted the stalled primary");
}

/// Safety invariants of [`laggard_switch_world`], checked after every
/// explored choice: the Fig. 5 switch invariants (with the single-primary
/// check demotion-handover-aware), plus the **demotion bar** — no replica
/// may keep a demoted member as primary while a healthy alternative
/// exists in its view. Deliberately *not* checked: "no suspicion raised",
/// because the explorer's adversarial scheduling can legitimately push
/// silence past the fixed timeout, at which point suspecting the laggard
/// is the detector doing its job.
pub fn laggard_invariant(world: &World) -> Result<(), String> {
    SwitchInvariants::for_group(GROUP_A, REPLICAS.to_vec()).check(world)?;
    for &pid in &REPLICAS {
        if !world.is_alive(pid) {
            continue;
        }
        let Some(actor) = world.actor_ref::<ReplicaActor>(pid) else {
            continue;
        };
        let Some(engine) = actor.engine_of(GROUP_A) else {
            continue;
        };
        if let Some(demoted) = engine.demoted() {
            if engine.members().len() > 1 && engine.primary() == Some(demoted) {
                return Err(format!(
                    "demotion bar violated at {}: replica {pid} keeps demoted \
                     member {demoted} as primary of a {}-member view",
                    world.now(),
                    engine.members().len()
                ));
            }
        }
    }
    Ok(())
}
