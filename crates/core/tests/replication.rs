//! Full-stack integration tests: replicated clients invoking a replicated
//! counter over group communication inside the deterministic simulator,
//! under crashes and runtime style switches.

use std::sync::Arc;

use bytes::Bytes;

use vd_core::prelude::*;
use vd_group::config::GroupConfig;
use vd_group::message::GroupId;
use vd_obs::{Ctr, EventKind, Hist, Obs, ObsHandle, TraceSink};
use vd_orb::sim::{DriverConfig, RequestDriver};
use vd_simnet::prelude::*;
use vd_simnet::time::SimDuration;

/// The paper-style micro-benchmark application: a deterministic counter
/// whose replies expose its state, padded to a configurable response size.
struct Counter {
    value: u64,
    response_pad: usize,
}

impl Counter {
    fn new(response_pad: usize) -> Self {
        Counter {
            value: 0,
            response_pad,
        }
    }
}

impl ReplicatedApplication for Counter {
    fn invoke(&mut self, operation: &str, _args: &Bytes) -> InvokeResult {
        if operation == "increment" {
            self.value += 1;
        }
        let mut body = self.value.to_le_bytes().to_vec();
        body.resize(8 + self.response_pad, 0);
        Ok(Bytes::from(body))
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

struct Cluster {
    world: World,
    replicas: Vec<ProcessId>,
    clients: Vec<ProcessId>,
    /// Each replica's observability handle (`obs[i]` is replica i's).
    obs: Vec<ObsHandle>,
}

/// Builds `n_replicas` replicas (nodes 0..n) and `n_clients` clients
/// (each on its own node after the replicas).
fn cluster(n_replicas: u32, n_clients: u32, style: ReplicationStyle, seed: u64) -> Cluster {
    cluster_with(
        n_replicas,
        n_clients,
        style,
        seed,
        GroupConfig::default(),
        Obs::disabled,
    )
}

/// [`cluster`], with the replicas' group-communication settings and each
/// replica's observability handle from `new_obs`.
fn cluster_with(
    n_replicas: u32,
    n_clients: u32,
    style: ReplicationStyle,
    seed: u64,
    group_config: GroupConfig,
    new_obs: impl Fn() -> ObsHandle,
) -> Cluster {
    let mut topo = Topology::full_mesh(n_replicas + n_clients);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(20),
    )));
    let mut world = World::new(topo, seed);
    let members: Vec<ProcessId> = (0..n_replicas as u64).map(ProcessId).collect();
    let mut replicas = Vec::new();
    let mut obs = Vec::new();
    for i in 0..n_replicas {
        let replica_obs = new_obs();
        obs.push(replica_obs.clone());
        let config = ReplicaConfig {
            knobs: LowLevelKnobs::default()
                .style(style)
                .num_replicas(n_replicas as usize),
            group_config,
            obs: replica_obs,
            ..ReplicaConfig::for_group(GroupId(1))
        };
        let pid = world.spawn(
            NodeId(i),
            Box::new(ReplicaActor::bootstrap(
                ProcessId(i as u64),
                members.clone(),
                Box::new(Counter::new(0)),
                config,
            )),
        );
        assert_eq!(pid, ProcessId(i as u64));
        replicas.push(pid);
    }
    let mut clients = Vec::new();
    for c in 0..n_clients {
        let driver = RequestDriver::new(DriverConfig {
            operation: "increment".into(),
            total: Some(200),
            ..DriverConfig::default()
        });
        let config = ReplicatedClientConfig {
            replicas: replicas.clone(),
            retry_timeout: SimDuration::from_millis(150),
            ..ReplicatedClientConfig::default()
        };
        let pid = world.spawn(
            NodeId(n_replicas + c),
            Box::new(ReplicatedClientActor::new(driver, config)),
        );
        clients.push(pid);
    }
    Cluster {
        world,
        replicas,
        clients,
        obs,
    }
}

fn completed(world: &World, client: ProcessId) -> u64 {
    world
        .actor_ref::<ReplicatedClientActor>(client)
        .unwrap()
        .driver()
        .completed()
}

fn rtt(world: &World, client: ProcessId) -> &Histogram {
    world
        .actor_ref::<ReplicatedClientActor>(client)
        .unwrap()
        .driver()
        .rtt()
}

fn replica_state(world: &World, replica: ProcessId) -> Bytes {
    world
        .actor_ref::<ReplicaActor>(replica)
        .unwrap()
        .app()
        .capture_state()
}

fn counter_value(state: &Bytes) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&state[..8]);
    u64::from_le_bytes(raw)
}

#[test]
fn active_replication_serves_a_full_cycle() {
    let mut c = cluster(3, 1, ReplicationStyle::Active, 1);
    c.world.run_for(SimDuration::from_secs(5));
    assert_eq!(completed(&c.world, c.clients[0]), 200);
    // Every replica executed every request (state machine replication)…
    for &r in &c.replicas {
        assert_eq!(counter_value(&replica_state(&c.world, r)), 200);
    }
    // …and the client saw exactly one reply per request despite three
    // repliers (first-response dedup).
    let h = rtt(&c.world, c.clients[0]);
    assert_eq!(h.count(), 200);
}

#[test]
fn warm_passive_only_primary_executes() {
    let mut c = cluster(3, 1, ReplicationStyle::WarmPassive, 2);
    c.world.run_for(SimDuration::from_secs(5));
    assert_eq!(completed(&c.world, c.clients[0]), 200);
    let executed = |i: usize| c.obs[i].metrics.counter(Ctr::RepExecuted);
    assert_eq!(executed(0), 200);
    for (i, &r) in c.replicas.iter().enumerate().skip(1) {
        assert_eq!(executed(i), 0, "backup {r} executed requests");
        // But checkpoints kept its state close to the primary's.
        assert!(counter_value(&replica_state(&c.world, r)) > 0);
    }
}

#[test]
fn checkpoints_count_only_where_the_engine_applies_them() {
    // Fault-free warm passive: the primary sends every checkpoint and
    // applies none, not even its own copy. A backup applies each
    // checkpoint whose version it has not reached yet; the copies that
    // repeat a version (no request ran in between) are stale and do not
    // count.
    let sink = Arc::new(TraceSink::enabled());
    let mut c = cluster_with(
        3,
        1,
        ReplicationStyle::WarmPassive,
        2,
        GroupConfig::default(),
        || Obs::with_trace(Arc::clone(&sink)),
    );
    c.world.run_for(SimDuration::from_secs(5));
    assert_eq!(completed(&c.world, c.clients[0]), 200);
    let events = sink.snapshot();
    assert_eq!(
        events.len() as u64,
        sink.total_emitted(),
        "the ring wrapped"
    );
    let primary = c.replicas[0].0;
    let mut fresh: Vec<u64> = events
        .iter()
        .filter_map(|e| {
            let EventKind::CheckpointSent { version, .. } = e.kind else {
                return None;
            };
            assert_eq!(e.actor, primary, "only the primary checkpoints");
            Some(version)
        })
        .collect();
    let sent = fresh.len();
    fresh.dedup();
    fresh.retain(|&version| version > 0);
    assert!(
        fresh.len() > 1 && fresh.len() < sent,
        "{sent} sent, {fresh:?}"
    );
    for (i, &r) in c.replicas.iter().enumerate() {
        let applied: Vec<u64> = events
            .iter()
            .filter(|e| e.actor == r.0)
            .filter_map(|e| {
                if let EventKind::CheckpointApplied { version, .. } = e.kind {
                    Some(version)
                } else {
                    None
                }
            })
            .collect();
        let expected = if i == 0 { Vec::new() } else { fresh.clone() };
        assert_eq!(applied, expected, "replica {r}");
        assert_eq!(
            c.obs[i].metrics.counter(Ctr::CkptApplied),
            expected.len() as u64,
            "replica {r}"
        );
    }
}

#[test]
fn group_config_sets_the_batching_limit() {
    // The replica hands its `group_config` to the endpoint as it is, so
    // batching is on once the config says so.
    let batching = GroupConfig::default().batch_max_messages(8);
    let mut c = cluster_with(3, 3, ReplicationStyle::Active, 5, batching, Obs::disabled);
    c.world.run_for(SimDuration::from_secs(5));
    for &client in &c.clients {
        assert_eq!(completed(&c.world, client), 200);
    }
    let largest = c
        .obs
        .iter()
        .map(|obs| obs.metrics.hist(Hist::BatchOccupancy).max)
        .max();
    assert!(largest > Some(1), "largest batch {largest:?}");
}

#[test]
fn active_replica_crash_is_transparent_to_clients() {
    let mut c = cluster(3, 1, ReplicationStyle::Active, 3);
    c.world.run_for(SimDuration::from_millis(30));
    let before = completed(&c.world, c.clients[0]);
    assert!(before > 0 && before < 200, "mid-cycle, got {before}");
    c.world.crash_process_at(c.replicas[2], c.world.now());
    c.world.run_for(SimDuration::from_secs(5));
    assert_eq!(completed(&c.world, c.clients[0]), 200);
    for &r in &c.replicas[..2] {
        assert_eq!(counter_value(&replica_state(&c.world, r)), 200);
    }
    // No retries were needed: the surviving replicas kept answering.
    let client = c
        .world
        .actor_ref::<ReplicatedClientActor>(c.clients[0])
        .unwrap();
    assert_eq!(client.retries, 0);
}

#[test]
fn warm_passive_failover_loses_nothing() {
    let mut c = cluster(3, 1, ReplicationStyle::WarmPassive, 4);
    c.world.run_for(SimDuration::from_millis(30));
    let before = completed(&c.world, c.clients[0]);
    assert!(before > 0 && before < 200, "mid-cycle, got {before}");
    // Kill the primary.
    c.world.crash_process_at(c.replicas[0], c.world.now());
    c.world.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&c.world, c.clients[0]), 200);
    // The new primary's state covers the full cycle: nothing was lost even
    // though the client's in-flight request died with the primary.
    let survivors = &c.replicas[1..];
    assert_eq!(counter_value(&replica_state(&c.world, survivors[0])), 200);
    let new_primary = c
        .world
        .actor_ref::<ReplicaActor>(survivors[0])
        .unwrap()
        .engine();
    assert!(new_primary.is_primary());
    assert_eq!(new_primary.style(), ReplicationStyle::WarmPassive);
}

#[test]
fn cold_passive_failover_recovers_from_stored_checkpoint() {
    let mut c = cluster(2, 1, ReplicationStyle::ColdPassive, 5);
    c.world.run_for(SimDuration::from_millis(300));
    assert!(completed(&c.world, c.clients[0]) > 0);
    c.world.crash_process_at(c.replicas[0], c.world.now());
    c.world.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&c.world, c.clients[0]), 200);
    assert_eq!(counter_value(&replica_state(&c.world, c.replicas[1])), 200);
}

#[test]
fn switch_warm_passive_to_active_under_load() {
    let mut c = cluster(3, 2, ReplicationStyle::WarmPassive, 6);
    c.world.run_for(SimDuration::from_millis(100));
    c.world.inject(
        c.replicas[1],
        ReplicaCommand::Switch {
            group: GroupId(1),
            style: ReplicationStyle::Active,
        },
    );
    c.world.run_for(SimDuration::from_secs(5));
    for &client in &c.clients {
        assert_eq!(completed(&c.world, client), 200);
    }
    // All replicas completed the switch and converged to identical state.
    let reference = replica_state(&c.world, c.replicas[0]);
    assert_eq!(counter_value(&reference), 400);
    for &r in &c.replicas {
        let actor = c.world.actor_ref::<ReplicaActor>(r).unwrap();
        assert_eq!(
            actor.engine().style(),
            ReplicationStyle::Active,
            "replica {r}"
        );
        assert_eq!(replica_state(&c.world, r), reference, "replica {r}");
        assert!(actor
            .style_history()
            .iter()
            .any(|(_, s)| *s == ReplicationStyle::Active));
    }
}

#[test]
fn switch_active_to_warm_passive_under_load() {
    let mut c = cluster(3, 2, ReplicationStyle::Active, 7);
    c.world.run_for(SimDuration::from_millis(100));
    c.world.inject(
        c.replicas[2],
        ReplicaCommand::Switch {
            group: GroupId(1),
            style: ReplicationStyle::WarmPassive,
        },
    );
    c.world.run_for(SimDuration::from_secs(5));
    for &client in &c.clients {
        assert_eq!(completed(&c.world, client), 200);
    }
    // Post-switch the primary executes alone; backups hold identical-or-
    // trailing checkpointed state.
    let primary = c.world.actor_ref::<ReplicaActor>(c.replicas[0]).unwrap();
    assert_eq!(primary.engine().style(), ReplicationStyle::WarmPassive);
    assert!(primary.engine().is_primary());
    assert_eq!(counter_value(&replica_state(&c.world, c.replicas[0])), 400);
    for &r in &c.replicas[1..] {
        let backup = c.world.actor_ref::<ReplicaActor>(r).unwrap();
        assert_eq!(backup.engine().style(), ReplicationStyle::WarmPassive);
        assert!(!backup.engine().is_primary());
    }
}

#[test]
fn switch_survives_primary_crash_mid_switch() {
    // Fig. 5's crash tolerance: kill the warm-passive primary immediately
    // after the switch request, so its "one more checkpoint" may never
    // arrive; survivors must roll forward and end up active and identical.
    let mut c = cluster(3, 1, ReplicationStyle::WarmPassive, 8);
    c.world.run_for(SimDuration::from_millis(100));
    c.world.inject(
        c.replicas[1],
        ReplicaCommand::Switch {
            group: GroupId(1),
            style: ReplicationStyle::Active,
        },
    );
    // Crash the primary a whisker after it can deliver the switch.
    c.world
        .crash_process_at(c.replicas[0], c.world.now() + SimDuration::from_micros(900));
    c.world.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&c.world, c.clients[0]), 200);
    let reference = replica_state(&c.world, c.replicas[1]);
    assert_eq!(counter_value(&reference), 200);
    for &r in &c.replicas[1..] {
        let actor = c.world.actor_ref::<ReplicaActor>(r).unwrap();
        assert_eq!(
            actor.engine().style(),
            ReplicationStyle::Active,
            "replica {r}"
        );
        assert_eq!(replica_state(&c.world, r), reference);
    }
}

#[test]
fn client_fails_over_to_another_gateway() {
    let mut c = cluster(3, 1, ReplicationStyle::Active, 9);
    // The client's first gateway is replica 0; kill it before it can serve
    // anything.
    c.world
        .crash_process_at(c.replicas[0], SimTime::from_micros(10));
    c.world.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&c.world, c.clients[0]), 200);
    let client = c
        .world
        .actor_ref::<ReplicatedClientActor>(c.clients[0])
        .unwrap();
    assert!(client.retries > 0, "a retry through a new gateway happened");
}

#[test]
fn rate_policy_triggers_automatic_switch_end_to_end() {
    // Three eager closed-loop clients push the delivered rate well above a
    // low threshold: the policy must switch the group to active.
    let mut topo = Topology::full_mesh(6);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(20),
    )));
    let mut world = World::new(topo, 10);
    let members: Vec<ProcessId> = (0..3u64).map(ProcessId).collect();
    let mut replicas = Vec::new();
    for i in 0..3u32 {
        let config = ReplicaConfig {
            knobs: LowLevelKnobs::default().style(ReplicationStyle::WarmPassive),
            ..ReplicaConfig::for_group(GroupId(1))
        };
        let actor = ReplicaActor::bootstrap(
            ProcessId(i as u64),
            members.clone(),
            Box::new(Counter::new(0)),
            config,
        )
        .with_policy(Box::new(RateThresholdPolicy::new(10.0, 100.0)));
        replicas.push(world.spawn(NodeId(i), Box::new(actor)));
    }
    for cidx in 0..3u32 {
        let driver = RequestDriver::new(DriverConfig {
            operation: "increment".into(),
            total: Some(500),
            ..DriverConfig::default()
        });
        let config = ReplicatedClientConfig {
            replicas: replicas.clone(),
            ..ReplicatedClientConfig::default()
        };
        world.spawn(
            NodeId(3 + cidx),
            Box::new(ReplicatedClientActor::new(driver, config)),
        );
    }
    world.run_for(SimDuration::from_secs(5));
    for &r in &replicas {
        let actor = world.actor_ref::<ReplicaActor>(r).unwrap();
        // Under load the policy switched the group to active; once the
        // cycle drained and the rate fell below the low threshold, the
        // same policy switched it back — both transitions are in the
        // history (this is exactly the Fig. 6 behavior).
        let styles: Vec<ReplicationStyle> = actor.style_history().iter().map(|&(_, s)| s).collect();
        assert!(
            styles.contains(&ReplicationStyle::Active),
            "replica {r} never went active: {styles:?}"
        );
        assert_eq!(
            actor.engine().style(),
            ReplicationStyle::WarmPassive,
            "replica {r} should be back to passive after the load drained"
        );
    }
}

#[test]
fn replicas_state_converges_after_chaotic_run() {
    let mut c = cluster(3, 2, ReplicationStyle::Active, 11);
    c.world.run_for(SimDuration::from_millis(50));
    c.world.inject(
        c.replicas[0],
        ReplicaCommand::Switch {
            group: GroupId(1),
            style: ReplicationStyle::WarmPassive,
        },
    );
    c.world.run_for(SimDuration::from_millis(120));
    c.world.inject(
        c.replicas[1],
        ReplicaCommand::Switch {
            group: GroupId(1),
            style: ReplicationStyle::Active,
        },
    );
    c.world.set_drop_probability(0.02);
    c.world.run_for(SimDuration::from_millis(300));
    c.world.set_drop_probability(0.0);
    c.world.run_for(SimDuration::from_secs(10));
    for &client in &c.clients {
        assert_eq!(completed(&c.world, client), 200);
    }
    let reference = replica_state(&c.world, c.replicas[0]);
    assert_eq!(counter_value(&reference), 400);
    for &r in &c.replicas {
        assert_eq!(
            replica_state(&c.world, r),
            reference,
            "replica {r} diverged"
        );
    }
}

#[test]
fn same_seed_same_outcome() {
    let run = |seed: u64| -> (u64, f64) {
        let mut c = cluster(3, 1, ReplicationStyle::Active, seed);
        c.world.run_for(SimDuration::from_secs(5));
        let h = rtt(&c.world, c.clients[0]);
        (h.count() as u64, h.mean_micros_f64())
    };
    assert_eq!(run(42), run(42));
}
