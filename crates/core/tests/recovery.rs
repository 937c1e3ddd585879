//! Recovery-manager integration tests: the availability loop closed end to
//! end inside the deterministic simulator. A manager process watches group
//! membership, detects under-replication after crashes, and re-spawns
//! replacements through the joining state-transfer path — including under
//! double faults (primary crash during a style switch, then the first
//! replacement joiner crashing mid-state-transfer), manager failover, and
//! the give-up-and-alarm escape hatch.

use bytes::Bytes;

use vd_core::prelude::*;
use vd_group::message::GroupId;
use vd_obs::{Ctr, Hist, Obs, ObsHandle};
use vd_orb::sim::{DriverConfig, RequestDriver};
use vd_simnet::prelude::*;
use vd_simnet::time::SimDuration;

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

struct Fixture {
    world: World,
    replicas: Vec<ProcessId>,
    clients: Vec<ProcessId>,
    managers: Vec<ProcessId>,
    manager_obs: Vec<ObsHandle>,
    spare_nodes: Vec<NodeId>,
}

/// Node layout: replicas on 0..R, clients on R..R+C, managers on
/// R+C..R+C+M, spare nodes (empty, for replacements) after that.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one dimension of the test-bed layout, named at every call site"
)]
fn fixture(
    n_replicas: u32,
    n_clients: u32,
    n_managers: u32,
    n_spares: u32,
    style: ReplicationStyle,
    seed: u64,
    total: u64,
    tune: impl Fn(&mut RecoveryConfig),
) -> Fixture {
    let mut topo = Topology::full_mesh(n_replicas + n_clients + n_managers + n_spares);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(20),
    )));
    let mut world = World::new(topo, seed);
    let members: Vec<ProcessId> = (0..n_replicas as u64).map(ProcessId).collect();
    let manager_pids: Vec<ProcessId> = (0..n_managers as u64)
        .map(|m| ProcessId((n_replicas + n_clients) as u64 + m))
        .collect();
    let replica_config = ReplicaConfig {
        knobs: LowLevelKnobs::default()
            .style(style)
            .num_replicas(n_replicas as usize),
        managers: manager_pids.clone(),
        ..ReplicaConfig::for_group(GroupId(1))
    };
    let mut replicas = Vec::new();
    for i in 0..n_replicas {
        let pid = world.spawn(
            NodeId(i),
            Box::new(ReplicaActor::bootstrap(
                ProcessId(i as u64),
                members.clone(),
                Box::new(Counter { value: 0 }),
                replica_config.clone(),
            )),
        );
        assert_eq!(pid, ProcessId(i as u64));
        replicas.push(pid);
    }
    let mut clients = Vec::new();
    for c in 0..n_clients {
        let driver = RequestDriver::new(DriverConfig {
            operation: "increment".into(),
            total: Some(total),
            ..DriverConfig::default()
        });
        let config = ReplicatedClientConfig {
            replicas: replicas.clone(),
            retry_timeout: SimDuration::from_millis(150),
            ..ReplicatedClientConfig::default()
        };
        clients.push(world.spawn(
            NodeId(n_replicas + c),
            Box::new(ReplicatedClientActor::new(driver, config)),
        ));
    }
    let spare_nodes: Vec<NodeId> = (0..n_spares)
        .map(|s| NodeId(n_replicas + n_clients + n_managers + s))
        .collect();
    let mut managers = Vec::new();
    let mut manager_obs = Vec::new();
    for m in 0..n_managers {
        let obs = Obs::disabled();
        let mut config = RecoveryConfig {
            target_replicas: n_replicas as usize,
            max_replicas: n_replicas as usize + 2,
            spawn_nodes: spare_nodes.clone(),
            replica_config: replica_config.clone(),
            probe_interval: SimDuration::from_millis(5),
            attempt_deadline: SimDuration::from_millis(200),
            backoff_base: SimDuration::from_millis(20),
            backoff_cap: SimDuration::from_millis(200),
            max_attempts: 6,
            peers: manager_pids.clone(),
            takeover_silence: SimDuration::from_millis(40),
            obs: obs.clone(),
        };
        tune(&mut config);
        let pid = world.spawn(
            NodeId(n_replicas + n_clients + m),
            Box::new(RecoveryManager::new(
                config,
                Box::new(|| Box::new(Counter { value: 0 })),
            )),
        );
        assert_eq!(pid, manager_pids[m as usize], "manager pid prediction");
        managers.push(pid);
        manager_obs.push(obs);
    }
    Fixture {
        world,
        replicas,
        clients,
        managers,
        manager_obs,
        spare_nodes,
    }
}

fn completed(world: &World, client: ProcessId) -> u64 {
    world
        .actor_ref::<ReplicatedClientActor>(client)
        .unwrap()
        .driver()
        .completed()
}

/// The replication degree as seen by a live replica's installed view.
fn degree(world: &World, replica: ProcessId) -> usize {
    world
        .actor_ref::<ReplicaActor>(replica)
        .unwrap()
        .engine()
        .members()
        .len()
}

#[test]
fn backup_crash_is_restored_to_target_degree() {
    let mut f = fixture(3, 1, 1, 2, ReplicationStyle::Active, 21, 300, |_| {});
    f.world.run_for(SimDuration::from_millis(100));
    f.world.crash_process_at(f.replicas[2], f.world.now());
    f.world.run_for(SimDuration::from_secs(10));

    assert_eq!(completed(&f.world, f.clients[0]), 300);
    assert_eq!(degree(&f.world, f.replicas[0]), 3, "degree restored");
    let mgr = f.world.actor_ref::<RecoveryManager>(f.managers[0]).unwrap();
    assert_eq!(mgr.spawned.len(), 1, "exactly one replacement needed");
    let joiner = mgr.spawned[0];
    let j = f.world.actor_ref::<ReplicaActor>(joiner).unwrap();
    assert!(j.engine().is_synced(), "replacement synced via checkpoint");
    let metrics = &f.manager_obs[0].metrics;
    assert_eq!(metrics.counter(Ctr::RecoveryEpisodes), 1);
    assert_eq!(metrics.counter(Ctr::RecoveryRestored), 1);
    assert!(metrics.counter(Ctr::RecoveryAttempts) >= 1);
    let mttr = metrics.hist(Hist::MttrUs);
    assert_eq!(mttr.count, 1, "one MTTR sample per episode");
    assert!(mttr.max > 0, "MTTR is a real duration");
    assert!(mgr.alarms.is_empty(), "no give-up on the happy path");
}

/// The ISSUE acceptance scenario: the primary crashes during an
/// active→warm-passive switch, and the *first replacement joiner* crashes
/// mid-state-transfer. The manager must retry and still restore the
/// replication degree; the client workload completes 100%.
#[test]
fn double_fault_during_switch_still_restores_degree() {
    let mut f = fixture(3, 1, 1, 2, ReplicationStyle::Active, 22, 300, |_| {});
    f.world.run_for(SimDuration::from_millis(100));
    f.world.inject(
        f.replicas[1],
        ReplicaCommand::Switch {
            group: GroupId(1),
            style: ReplicationStyle::WarmPassive,
        },
    );
    // Crash the primary a whisker after it can deliver the switch.
    f.world
        .crash_process_at(f.replicas[0], f.world.now() + SimDuration::from_micros(900));

    // Step in small increments until the manager spawns its first
    // replacement, then crash that joiner before it can finish the join +
    // state transfer (a few hundred µs after spawn, against link RTTs and
    // flush rounds that take well over a millisecond).
    let mut first_joiner = None;
    for _ in 0..8000 {
        f.world.run_for(SimDuration::from_micros(250));
        let mgr = f.world.actor_ref::<RecoveryManager>(f.managers[0]).unwrap();
        if let Some(&j) = mgr.spawned.first() {
            if f.world.actor_ref::<ReplicaActor>(j).is_some() {
                first_joiner = Some(j);
                break;
            }
        }
    }
    let joiner = first_joiner.expect("manager spawned a replacement");
    let j = f.world.actor_ref::<ReplicaActor>(joiner).unwrap();
    assert!(
        !j.engine().is_synced(),
        "joiner must still be mid-state-transfer when we kill it"
    );
    f.world.crash_process_at(joiner, f.world.now());
    f.world.run_for(SimDuration::from_secs(15));

    // Degree restored to num_replicas despite the double fault.
    assert_eq!(degree(&f.world, f.replicas[1]), 3, "degree restored");
    assert_eq!(completed(&f.world, f.clients[0]), 300, "client completed");
    let mgr = f.world.actor_ref::<RecoveryManager>(f.managers[0]).unwrap();
    assert!(
        mgr.spawned.len() >= 2,
        "the crashed joiner forced a second attempt: {:?}",
        mgr.spawned
    );
    assert!(mgr.alarms.is_empty(), "no give-up");
    let metrics = &f.manager_obs[0].metrics;
    assert!(metrics.counter(Ctr::RecoveryAttempts) >= 2);
    assert!(metrics.counter(Ctr::RecoveryRestored) >= 1);
    assert!(metrics.hist(Hist::MttrUs).count >= 1, "MTTR recorded");
    // The survivors finished the style switch the crash interrupted.
    let survivor = f.world.actor_ref::<ReplicaActor>(f.replicas[1]).unwrap();
    assert_eq!(survivor.engine().style(), ReplicationStyle::WarmPassive);

    #[cfg(feature = "check-invariants")]
    {
        let mut all = f.replicas.clone();
        all.extend(mgr.spawned.iter().copied());
        vd_core::invariants::SwitchInvariants::new(all)
            .check(&f.world)
            .unwrap();
    }
}

#[test]
fn standby_manager_takes_over_mid_recovery() {
    let mut f = fixture(3, 1, 2, 2, ReplicationStyle::Active, 23, 300, |_| {});
    f.world.run_for(SimDuration::from_millis(100));
    // Crash a backup and, at the same instant, the active manager — the
    // standby must notice the silence and finish the recovery itself.
    let now = f.world.now();
    f.world.crash_process_at(f.replicas[2], now);
    f.world.crash_process_at(f.managers[0], now);
    f.world.run_for(SimDuration::from_secs(10));

    assert_eq!(completed(&f.world, f.clients[0]), 300);
    assert_eq!(degree(&f.world, f.replicas[0]), 3, "degree restored");
    let standby = f.world.actor_ref::<RecoveryManager>(f.managers[1]).unwrap();
    assert!(standby.is_active(), "standby took over");
    assert!(!standby.spawned.is_empty(), "standby did the recovery");
    let metrics = &f.manager_obs[1].metrics;
    assert_eq!(metrics.counter(Ctr::RecoveryTakeovers), 1);
    assert!(metrics.counter(Ctr::RecoveryRestored) >= 1);
}

#[test]
fn manager_gives_up_and_alarms_when_every_attempt_fails() {
    let mut f = fixture(3, 0, 1, 1, ReplicationStyle::Active, 24, 0, |cfg| {
        cfg.max_attempts = 2;
        cfg.attempt_deadline = SimDuration::from_millis(100);
    });
    // The only spawn node is dead: every replacement attempt black-holes.
    f.world.crash_node_at(f.spare_nodes[0], f.world.now());
    f.world.run_for(SimDuration::from_millis(100));
    f.world.crash_process_at(f.replicas[2], f.world.now());
    f.world.run_for(SimDuration::from_secs(10));

    let mgr = f.world.actor_ref::<RecoveryManager>(f.managers[0]).unwrap();
    assert_eq!(mgr.spawned.len(), 2, "exactly max_attempts spawns");
    assert!(!mgr.alarms.is_empty(), "operators were alarmed");
    let metrics = &f.manager_obs[0].metrics;
    assert_eq!(metrics.counter(Ctr::RecoveryAbandoned), 1);
    assert_eq!(metrics.counter(Ctr::RecoveryAttempts), 2);
    assert_eq!(metrics.counter(Ctr::RecoveryRestored), 0);
    // The group soldiers on under-replicated (degraded, not down).
    assert_eq!(degree(&f.world, f.replicas[0]), 2);
}
