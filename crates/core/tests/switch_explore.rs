//! Bounded model checking of the Fig. 5 runtime switch protocol.
//!
//! Two halves:
//!
//! * **Green path** — a real three-replica cluster is driven to the brink
//!   of an `Active → WarmPassive` switch with client requests in flight,
//!   then [`World::explore`] enumerates delivery interleavings *with a
//!   primary crash injected at every explored point*, checking the
//!   [`SwitchInvariants`] (single primary, exactly-once execution, reply
//!   convergence) after every step. The protocol must survive the whole
//!   bounded space.
//! * **Seeded regression** — a deliberately buggy test double
//!   reintroduces the switch crash-window bug the final checkpoint
//!   exists to prevent (the backup discards its request log as soon as it
//!   hears about the switch, before the checkpoint that covers it
//!   arrives). The explorer must find the losing interleaving; the fixed
//!   double must pass the identical exploration.
//!
//! Bounds come from `VD_EXPLORE_DEPTH` / `VD_EXPLORE_SCHEDULES`
//! (defaults sized for a < 60 s CI smoke run); raise them locally for a
//! deeper sweep. Requires `--features check-invariants`.

use bytes::Bytes;

use vd_core::invariants::SwitchInvariants;
use vd_core::prelude::*;
use vd_group::config::GroupConfig;
use vd_group::message::GroupId;
use vd_orb::object::ObjectKey;
use vd_orb::wire::{OrbMessage, Request};
use vd_simnet::explore::{Choice, ExploreConfig, Fnv64};
use vd_simnet::prelude::*;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

// ---------------------------------------------------------------------------
// Green path: the real replicator under exploration
// ---------------------------------------------------------------------------

/// The deterministic counter application from the integration tests.
struct Counter {
    value: u64,
}

impl ReplicatedApplication for Counter {
    fn invoke(&mut self, operation: &str, _args: &Bytes) -> InvokeResult {
        if operation == "increment" {
            self.value += 1;
        }
        Ok(Bytes::from(self.value.to_le_bytes().to_vec()))
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

fn client_request(request_id: u64) -> OrbMessage {
    OrbMessage::Request(Request {
        request_id,
        object_key: ObjectKey::new("counter"),
        operation: "increment".into(),
        args: Bytes::new(),
        response_expected: true,
    })
}

/// Builds a settled three-replica Active cluster and leaves it with client
/// requests and a `Switch(WarmPassive)` command concurrently in flight —
/// the adversarial window the explorer branches over.
fn switch_world_with(
    knobs: LowLevelKnobs,
    group_config: GroupConfig,
    switch_to: ReplicationStyle,
) -> World {
    let mut topo = Topology::full_mesh(3);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(20),
    )));
    let mut world = World::new(topo, 0x0051_17C4);
    let members: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    for i in 0..3u32 {
        let config = ReplicaConfig {
            knobs,
            group_config,
            ..ReplicaConfig::for_group(GroupId(1))
        };
        let pid = world.spawn(
            NodeId(i),
            Box::new(ReplicaActor::bootstrap(
                ProcessId(u64::from(i)),
                members.clone(),
                Box::new(Counter { value: 0 }),
                config,
            )),
        );
        assert_eq!(pid, ProcessId(u64::from(i)));
    }
    // Deterministic prefix: let the group form and reach steady state.
    world.run_for(SimDuration::from_millis(50));
    // Concurrently pending at exploration start: two requests through the
    // primary gateway, one through a backup gateway, and the switch.
    world.inject(ProcessId(0), client_request(1));
    world.inject(ProcessId(0), client_request(2));
    world.inject(ProcessId(1), client_request(3));
    world.inject(
        ProcessId(0),
        ReplicaCommand::Switch {
            group: GroupId(1),
            style: switch_to,
        },
    );
    world
}

fn switch_world() -> World {
    switch_world_with(
        LowLevelKnobs::default()
            .style(ReplicationStyle::Active)
            .num_replicas(3),
        GroupConfig::default(),
        ReplicationStyle::WarmPassive,
    )
}

/// The same adversarial window in incremental-checkpoint mode: a settled
/// warm-passive cluster mid-delta-chain (full every 4th, batching on),
/// switching to active — the direction whose final checkpoint must be a
/// full snapshot for the switch to complete.
fn delta_switch_world() -> World {
    switch_world_with(
        LowLevelKnobs::default()
            .style(ReplicationStyle::WarmPassive)
            .num_replicas(3)
            .checkpoint_full_every(4),
        GroupConfig::default().batch_max_messages(2),
        ReplicationStyle::Active,
    )
}

#[test]
fn switch_survives_explored_interleavings_and_primary_crash() {
    let config = ExploreConfig {
        max_depth: env_u64("VD_EXPLORE_DEPTH", 8) as usize,
        max_schedules: env_u64("VD_EXPLORE_SCHEDULES", 4_000),
        // A crash of the primary at every explored point: the Fig. 5
        // worst case (switch initiator dies mid-protocol).
        crash_candidates: vec![ProcessId(0)],
        max_crashes: 1,
        prune_equivalent_states: true,
        ..ExploreConfig::default()
    };
    let invariants = SwitchInvariants::new((0..3).map(ProcessId).collect());
    let report = World::explore(switch_world, &config, |w| invariants.check(w));
    assert!(
        report.violation.is_none(),
        "switch protocol violated an invariant: {:?}",
        report.violation
    );
    // The exploration must have actually branched through the window.
    assert_eq!(report.max_depth_reached, config.max_depth);
    assert!(
        report.schedules >= 100,
        "explored only {} schedules",
        report.schedules
    );
}

#[test]
fn switch_survives_exploration_in_delta_checkpoint_mode() {
    let config = ExploreConfig {
        max_depth: env_u64("VD_EXPLORE_DEPTH", 8) as usize,
        max_schedules: env_u64("VD_EXPLORE_SCHEDULES", 4_000),
        crash_candidates: vec![ProcessId(0)],
        max_crashes: 1,
        prune_equivalent_states: true,
        ..ExploreConfig::default()
    };
    let invariants = SwitchInvariants::new((0..3).map(ProcessId).collect());
    let report = World::explore(delta_switch_world, &config, |w| invariants.check(w));
    assert!(
        report.violation.is_none(),
        "delta-mode switch violated an invariant: {:?}",
        report.violation
    );
    assert_eq!(report.max_depth_reached, config.max_depth);
    assert!(
        report.schedules >= 100,
        "explored only {} schedules",
        report.schedules
    );
}

// ---------------------------------------------------------------------------
// Seeded regression: a test double with the switch crash-window bug
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum ToyMsg {
    /// Client → primary request.
    Op(u64),
    /// Primary → backup log record.
    Log(u64),
    /// Backup → primary log acknowledgement.
    LogAck(u64),
    /// Primary → client completion acknowledgement.
    Ack(u64),
    /// Style-switch announcement (delivered to each member).
    SwitchReq,
    /// Primary → backup final state transfer for the switch.
    FinalCkpt(Vec<u64>),
}

impl Payload for ToyMsg {
    fn wire_size(&self) -> usize {
        match self {
            ToyMsg::FinalCkpt(ops) => 16 + 8 * ops.len(),
            ToyMsg::Op(_)
            | ToyMsg::Log(_)
            | ToyMsg::LogAck(_)
            | ToyMsg::Ack(_)
            | ToyMsg::SwitchReq => 16,
        }
    }

    fn digest(&self) -> Option<u64> {
        let mut h = Fnv64::new();
        match self {
            ToyMsg::Op(n) => h.write_bytes(&[0, *n as u8]),
            ToyMsg::Log(n) => h.write_bytes(&[1, *n as u8]),
            ToyMsg::LogAck(n) => h.write_bytes(&[2, *n as u8]),
            ToyMsg::Ack(n) => h.write_bytes(&[3, *n as u8]),
            ToyMsg::SwitchReq => h.write_u8(4),
            ToyMsg::FinalCkpt(ops) => {
                h.write_u8(5);
                for &n in ops {
                    h.write_u64(n);
                }
            }
        }
        Some(h.finish())
    }
}

fn vec_digest(tag: u64, items: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(tag);
    for &n in items {
        h.write_u64(n);
    }
    h.finish()
}

/// Primary of a minimal primary-backup pair: applies an op, waits for the
/// backup to log it, then acks the client. On a switch it transfers its
/// applied state as the final checkpoint.
struct ToyPrimary {
    backup: ProcessId,
    client: ProcessId,
    applied: Vec<u64>,
}

impl Actor for ToyPrimary {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, p: Box<dyn Payload>) {
        match *downcast_payload::<ToyMsg>(p).expect("toy protocol only") {
            ToyMsg::Op(n) => {
                self.applied.push(n);
                ctx.send(self.backup, ToyMsg::Log(n));
            }
            ToyMsg::LogAck(n) => ctx.send(self.client, ToyMsg::Ack(n)),
            ToyMsg::SwitchReq => {
                ctx.send(self.backup, ToyMsg::FinalCkpt(self.applied.clone()));
            }
            ToyMsg::Log(_) | ToyMsg::Ack(_) | ToyMsg::FinalCkpt(_) => {}
        }
    }

    fn state_digest(&self) -> Option<u64> {
        Some(vec_digest(0x9A, &self.applied))
    }
}

/// Backup of the pair. The buggy variant reintroduces the switch
/// crash-window bug: it discards its log on hearing of the switch,
/// *before* the covering final checkpoint has arrived — exactly the
/// ordering hazard the Fig. 5 protocol's final checkpoint forecloses.
struct ToyBackup {
    primary: ProcessId,
    log: Vec<u64>,
    ckpt: Vec<u64>,
    buggy: bool,
}

impl ToyBackup {
    fn covers(&self, n: u64) -> bool {
        self.ckpt.contains(&n) || self.log.contains(&n)
    }
}

impl Actor for ToyBackup {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, p: Box<dyn Payload>) {
        match *downcast_payload::<ToyMsg>(p).expect("toy protocol only") {
            ToyMsg::Log(n) => {
                self.log.push(n);
                ctx.send(self.primary, ToyMsg::LogAck(n));
            }
            ToyMsg::SwitchReq if self.buggy => {
                // BUG: assumes the final checkpoint will cover the log,
                // but it has not arrived yet — and the primary may die
                // before sending it.
                self.log.clear();
            }
            ToyMsg::FinalCkpt(state) => {
                // Correct protocol: a received checkpoint retires only the
                // log entries it covers — ops the primary applied after
                // capturing it stay logged. (An earlier draft cleared the
                // whole log here; the explorer found the interleaving
                // where the switch announcement overtakes the op.)
                self.ckpt = state;
                let ckpt = &self.ckpt;
                self.log.retain(|n| !ckpt.contains(n));
            }
            ToyMsg::Op(_) | ToyMsg::LogAck(_) | ToyMsg::Ack(_) | ToyMsg::SwitchReq => {}
        }
    }

    fn state_digest(&self) -> Option<u64> {
        let mut h = Fnv64::new();
        h.write_u64(vec_digest(0x9B, &self.log));
        h.write_u64(vec_digest(0x9C, &self.ckpt));
        Some(h.finish())
    }
}

/// The client: records which ops the primary acknowledged as durable.
#[derive(Default)]
struct ToyClient {
    acked: Vec<u64>,
}

impl Actor for ToyClient {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, p: Box<dyn Payload>) {
        if let ToyMsg::Ack(n) = *downcast_payload::<ToyMsg>(p).expect("toy protocol only") {
            self.acked.push(n);
        }
    }

    fn state_digest(&self) -> Option<u64> {
        Some(vec_digest(0x9D, &self.acked))
    }
}

const PRIMARY: ProcessId = ProcessId(0);
const BACKUP: ProcessId = ProcessId(1);
const CLIENT: ProcessId = ProcessId(2);

fn toy_world(buggy: bool) -> World {
    let mut world = World::new(Topology::full_mesh(3), 0x0070_1234);
    let p = world.spawn(
        NodeId(0),
        Box::new(ToyPrimary {
            backup: BACKUP,
            client: CLIENT,
            applied: Vec::new(),
        }),
    );
    let b = world.spawn(
        NodeId(1),
        Box::new(ToyBackup {
            primary: PRIMARY,
            log: Vec::new(),
            ckpt: Vec::new(),
            buggy,
        }),
    );
    let c = world.spawn(NodeId(2), Box::new(ToyClient::default()));
    assert_eq!((p, b, c), (PRIMARY, BACKUP, CLIENT));
    // One op and a switch announcement (one delivery per member) race.
    world.inject(PRIMARY, ToyMsg::Op(1));
    world.inject(PRIMARY, ToyMsg::SwitchReq);
    world.inject(BACKUP, ToyMsg::SwitchReq);
    world
}

/// Durability across failover: once the client holds an ack for `n`, the
/// backup must be able to reconstruct `n` whenever the primary is gone.
fn toy_durability(world: &World) -> Result<(), String> {
    if world.is_alive(PRIMARY) {
        return Ok(());
    }
    let backup = world.actor_ref::<ToyBackup>(BACKUP).expect("backup");
    let client = world.actor_ref::<ToyClient>(CLIENT).expect("client");
    for &n in &client.acked {
        if !backup.covers(n) {
            return Err(format!(
                "acked op {n} lost: primary dead, backup log {:?} ckpt {:?}",
                backup.log, backup.ckpt
            ));
        }
    }
    Ok(())
}

fn toy_config() -> ExploreConfig {
    ExploreConfig {
        max_depth: 10,
        max_schedules: env_u64("VD_EXPLORE_SCHEDULES", 1_500).max(500),
        crash_candidates: vec![PRIMARY],
        max_crashes: 1,
        prune_equivalent_states: true,
        ..ExploreConfig::default()
    }
}

#[test]
fn explore_finds_the_seeded_switch_bug() {
    let report = World::explore(|| toy_world(true), &toy_config(), toy_durability);
    let violation = report.violation.expect("the crash window must be found");
    assert!(
        violation.message.contains("acked op 1 lost"),
        "{violation:?}"
    );
    // The counterexample needs both the adversarial ordering and the
    // crash — exactly the paper's switch hazard.
    assert!(violation
        .schedule
        .iter()
        .any(|c| matches!(c, Choice::Crash { pid } if *pid == PRIMARY)));
    // And it replays: the reported schedule reproduces the lost update.
    let mut world = toy_world(true);
    vd_simnet::explore::replay(&mut world, &violation.schedule);
    assert!(toy_durability(&world).is_err());
}

#[test]
fn parallel_exploration_reports_the_identical_seeded_counterexample() {
    // The determinism contract: 4 work-stealing workers must report the
    // exact first violation a sequential run reports. Exact parity holds
    // for unpruned exploration (pruning's digest-set insertion order is
    // thread-dependent), so prune is off for both runs.
    let sequential = ExploreConfig {
        prune_equivalent_states: false,
        ..toy_config()
    };
    let parallel = ExploreConfig {
        workers: 4,
        ..sequential.clone()
    };
    let seq = World::explore(|| toy_world(true), &sequential, toy_durability);
    let par = World::explore(|| toy_world(true), &parallel, toy_durability);
    let sv = seq.violation.expect("sequential finds the seeded bug");
    let pv = par.violation.expect("parallel finds the seeded bug");
    assert_eq!(sv.schedule, pv.schedule, "first-violation schedule differs");
    assert_eq!(sv.message, pv.message);
    assert_eq!(sv.time, pv.time);
}

#[test]
fn fixed_double_passes_the_identical_exploration() {
    let report = World::explore(|| toy_world(false), &toy_config(), toy_durability);
    assert!(
        report.violation.is_none(),
        "correct double flagged: {:?}",
        report.violation
    );
    // Digest-based pruning is active for the toy protocol.
    assert!(report.pruned > 0, "{report:?}");
}
