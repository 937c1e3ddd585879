//! Network-partition integration test: the primary is cut off from its
//! backups, the majority fails over, the partitioned old primary
//! self-evicts instead of soldiering on as a rump group (the `min_view`
//! quorum rule), the recovery manager restores the replication degree, and
//! the heal does not resurrect the old primary — single-primary holds
//! throughout and the client workload completes.

use bytes::Bytes;

use vd_core::prelude::*;
use vd_group::config::GroupConfig;
use vd_group::message::GroupId;
use vd_obs::{Ctr, Obs};
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

#[test]
fn partitioned_primary_self_evicts_and_degree_is_restored() {
    // Nodes: replicas 0..3, client 3, manager 4, spare 5.
    let mut topo = Topology::full_mesh(6);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(20),
    )));
    let mut world = World::new(topo, 31);
    let members: Vec<ProcessId> = (0..3u64).map(ProcessId).collect();
    let manager_pid = ProcessId(4);
    let replica_config = ReplicaConfig {
        knobs: LowLevelKnobs::default()
            .style(ReplicationStyle::WarmPassive)
            .num_replicas(3),
        // Quorum rule: a view below 2 members means "you are the minority
        // side of a partition — evict yourself, do not act as primary".
        group_config: GroupConfig::default().min_view(2),
        managers: vec![manager_pid],
        ..ReplicaConfig::for_group(GroupId(1))
    };
    let mut replicas = Vec::new();
    for i in 0..3u32 {
        let pid = world.spawn(
            NodeId(i),
            Box::new(ReplicaActor::bootstrap(
                ProcessId(i as u64),
                members.clone(),
                Box::new(Counter { value: 0 }),
                replica_config.clone(),
            )),
        );
        replicas.push(pid);
    }
    let driver = RequestDriver::new(DriverConfig {
        operation: "increment".into(),
        total: Some(300),
        ..DriverConfig::default()
    });
    let client = world.spawn(
        NodeId(3),
        Box::new(ReplicatedClientActor::new(
            driver,
            ReplicatedClientConfig {
                replicas: replicas.clone(),
                retry_timeout: SimDuration::from_millis(150),
                ..ReplicatedClientConfig::default()
            },
        )),
    );
    let obs = Obs::disabled();
    let manager = world.spawn(
        NodeId(4),
        Box::new(RecoveryManager::new(
            RecoveryConfig {
                target_replicas: 3,
                max_replicas: 5,
                spawn_nodes: vec![NodeId(5)],
                replica_config: replica_config.clone(),
                probe_interval: SimDuration::from_millis(5),
                attempt_deadline: SimDuration::from_millis(200),
                backoff_base: SimDuration::from_millis(20),
                backoff_cap: SimDuration::from_millis(200),
                max_attempts: 6,
                peers: vec![manager_pid],
                takeover_silence: SimDuration::from_millis(40),
                obs: obs.clone(),
            },
            Box::new(|| Box::new(Counter { value: 0 })),
        )),
    );
    assert_eq!(manager, manager_pid);

    world.run_for(SimDuration::from_millis(100));
    // Cut the primary's node off from both backups. The client and the
    // manager can still reach it — only the group link is severed, so an
    // un-evicted rump primary *would* keep answering the client.
    world.partition_at(vec![NodeId(0)], vec![NodeId(1), NodeId(2)], world.now());
    world.run_for(SimDuration::from_secs(3));

    // The majority failed over; the minority self-evicted.
    let old_primary = world.actor_ref::<ReplicaActor>(replicas[0]).unwrap();
    assert!(
        !old_primary.endpoint().is_member(),
        "cut-off primary must have self-evicted"
    );
    assert!(!old_primary.engine().is_primary(), "evicted ⇒ not primary");
    let new_primary = world.actor_ref::<ReplicaActor>(replicas[1]).unwrap();
    assert!(new_primary.engine().is_primary(), "backup took over");

    // Heal; the old primary must stay inert, not fight its way back.
    world.heal_partitions_at(world.now());
    world.run_for(SimDuration::from_secs(10));

    assert_eq!(
        world
            .actor_ref::<ReplicatedClientActor>(client)
            .unwrap()
            .driver()
            .completed(),
        300,
        "client workload survived the partition"
    );
    // The manager restored the degree with a replacement on the spare node.
    let mgr = world.actor_ref::<RecoveryManager>(manager).unwrap();
    assert!(!mgr.spawned.is_empty(), "a replacement was spawned");
    assert!(obs.metrics.counter(Ctr::RecoveryRestored) >= 1);
    let survivor = world.actor_ref::<ReplicaActor>(replicas[1]).unwrap();
    assert_eq!(survivor.engine().members().len(), 3, "degree restored");
    // Single primary across every live replica, old primary included.
    let mut all = replicas.clone();
    all.extend(mgr.spawned.iter().copied());
    let primaries: Vec<ProcessId> = all
        .iter()
        .copied()
        .filter(|&pid| {
            world
                .actor_ref::<ReplicaActor>(pid)
                .is_some_and(|r| r.engine().is_primary())
        })
        .collect();
    assert_eq!(primaries.len(), 1, "exactly one primary: {primaries:?}");
    let old_primary = world.actor_ref::<ReplicaActor>(replicas[0]).unwrap();
    assert!(
        !old_primary.endpoint().is_member(),
        "heal must not resurrect the evicted primary"
    );
}
