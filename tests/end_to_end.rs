//! Workspace-level integration tests exercising the public façade: the
//! full stack (simulator → group communication → ORB → replicator →
//! policies) through `versatile_dependability::prelude`.

use bytes::Bytes;
use versatile_dependability::bench::testbed::{
    build_replicated, gc_topology, Testbed, TestbedConfig,
};
use versatile_dependability::bench::workload::PaddedApp;
use versatile_dependability::core::client::{ReplicatedClientActor, ReplicatedClientConfig};
use versatile_dependability::core::replica::ReplicaCommand;
use versatile_dependability::orb::sim::{DriverConfig, RequestDriver};
use versatile_dependability::prelude::*;

fn run_to_completion(bed: &mut Testbed, target: u64) {
    let deadline = bed.world.now() + SimDuration::from_secs(120);
    while bed.total_completed() < target && bed.world.now() < deadline {
        bed.world.run_for(SimDuration::from_millis(50));
    }
    assert_eq!(bed.total_completed(), target, "workload did not finish");
}

#[test]
fn every_style_serves_the_same_workload() {
    for style in [
        ReplicationStyle::Active,
        ReplicationStyle::WarmPassive,
        ReplicationStyle::ColdPassive,
        ReplicationStyle::SemiActive,
    ] {
        let config = TestbedConfig {
            replicas: 3,
            clients: 2,
            style,
            requests_per_client: 150,
            ..TestbedConfig::default()
        };
        let mut bed = build_replicated(&config);
        run_to_completion(&mut bed, 300);
        let h = bed.merged_rtt();
        assert_eq!(h.count(), 300, "{style}: lost round trips");
        assert!(h.mean_micros_f64() > 0.0);
    }
}

#[test]
fn styles_rank_as_the_paper_says() {
    // Latency: active < semi-active ≲ passive. Bandwidth: active > passive.
    let measure = |style| {
        let config = TestbedConfig {
            replicas: 3,
            clients: 3,
            style,
            requests_per_client: 200,
            ..TestbedConfig::default()
        };
        let mut bed = build_replicated(&config);
        run_to_completion(&mut bed, 600);
        (bed.merged_rtt().mean_micros_f64(), bed.bandwidth_mbps())
    };
    let (lat_active, bw_active) = measure(ReplicationStyle::Active);
    let (lat_passive, bw_passive) = measure(ReplicationStyle::WarmPassive);
    assert!(lat_active < lat_passive, "{lat_active} < {lat_passive}");
    assert!(bw_active > bw_passive, "{bw_active} > {bw_passive}");
}

#[test]
fn node_crash_kills_colocated_replica_but_not_the_service() {
    let config = TestbedConfig {
        replicas: 3,
        clients: 1,
        style: ReplicationStyle::Active,
        requests_per_client: 300,
        ..TestbedConfig::default()
    };
    let mut bed = build_replicated(&config);
    bed.world.run_for(SimDuration::from_millis(50));
    // Hardware fault: the whole machine hosting replica 1 goes down.
    bed.world.crash_node_at(NodeId(1), bed.world.now());
    run_to_completion(&mut bed, 300);
    assert!(!bed.world.is_node_up(NodeId(1)));
    assert!(!bed.world.is_alive(bed.replicas[1]));
}

#[test]
fn transient_partition_heals_and_service_recovers() {
    let config = TestbedConfig {
        replicas: 3,
        clients: 1,
        style: ReplicationStyle::Active,
        requests_per_client: 300,
        ..TestbedConfig::default()
    };
    let mut bed = build_replicated(&config);
    bed.world.run_for(SimDuration::from_millis(30));
    // Partition one replica away for 40 ms (shorter than the failure
    // timeout: no view change, just retransmission when it heals).
    let t = bed.world.now();
    bed.world
        .partition_at(vec![NodeId(2)], vec![NodeId(0), NodeId(1), NodeId(3)], t);
    bed.world
        .heal_partitions_at(t + SimDuration::from_millis(40));
    run_to_completion(&mut bed, 300);
    // All three replicas still in the view: the partition never became a
    // membership change.
    let r0 = bed
        .world
        .actor_ref::<versatile_dependability::core::replica::ReplicaActor>(bed.replicas[0])
        .unwrap();
    assert_eq!(r0.endpoint().view().len(), 3);
}

#[test]
fn repeated_switches_under_load_converge_and_lose_nothing() {
    let mut world = World::new(gc_topology(5), 77);
    let members: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    let mut replicas = Vec::new();
    for i in 0..3u32 {
        let config = ReplicaConfig {
            knobs: LowLevelKnobs::default().style(ReplicationStyle::Active),
            ..ReplicaConfig::for_group(GroupId(1))
        };
        replicas.push(world.spawn(
            NodeId(i),
            Box::new(ReplicaActor::bootstrap(
                ProcessId(i as u64),
                members.clone(),
                Box::new(PaddedApp::new(1024, 64, 15)),
                config,
            )),
        ));
    }
    let mut clients = Vec::new();
    for c in 0..2u32 {
        let driver = RequestDriver::new(DriverConfig {
            total: Some(400),
            ..DriverConfig::default()
        });
        clients.push(world.spawn(
            NodeId(3 + c),
            Box::new(ReplicatedClientActor::new(
                driver,
                ReplicatedClientConfig {
                    replicas: replicas.clone(),
                    initial_gateway: c as usize,
                    ..ReplicatedClientConfig::default()
                },
            )),
        ));
    }
    // Ping-pong the style four times while the cycle runs.
    for (i, style) in [
        ReplicationStyle::WarmPassive,
        ReplicationStyle::Active,
        ReplicationStyle::ColdPassive,
        ReplicationStyle::Active,
    ]
    .iter()
    .enumerate()
    {
        world.run_for(SimDuration::from_millis(80));
        world.inject(
            replicas[i % 3],
            ReplicaCommand::Switch {
                group: GroupId(1),
                style: *style,
            },
        );
    }
    // Run to completion.
    let deadline = world.now() + SimDuration::from_secs(120);
    let done = |world: &World| -> u64 {
        clients
            .iter()
            .map(|&c| {
                world
                    .actor_ref::<ReplicatedClientActor>(c)
                    .unwrap()
                    .driver()
                    .completed()
            })
            .sum()
    };
    while done(&world) < 800 && world.now() < deadline {
        world.run_for(SimDuration::from_millis(50));
    }
    assert_eq!(done(&world), 800);
    // All replicas settled on the same style and identical state.
    let reference_style = world
        .actor_ref::<ReplicaActor>(replicas[0])
        .unwrap()
        .engine()
        .style();
    let reference_state = world
        .actor_ref::<ReplicaActor>(replicas[0])
        .unwrap()
        .app()
        .capture_state();
    assert_eq!(reference_style, ReplicationStyle::Active);
    for &r in &replicas {
        let actor = world.actor_ref::<ReplicaActor>(r).unwrap();
        assert_eq!(actor.engine().style(), reference_style, "replica {r}");
        assert_eq!(
            actor.app().capture_state(),
            reference_state,
            "replica {r} state diverged"
        );
    }
}

#[test]
fn contracts_catch_violations_from_real_measurements() {
    let config = TestbedConfig {
        replicas: 3,
        clients: 5,
        style: ReplicationStyle::WarmPassive,
        requests_per_client: 200,
        ..TestbedConfig::default()
    };
    let mut bed = build_replicated(&config);
    run_to_completion(&mut bed, 1000);
    let measured = Observations {
        latency_micros: bed.merged_rtt().mean_micros_f64(),
        bandwidth_bps: bed.bandwidth_mbps() * 1e6,
        replicas: 3,
        ..Observations::default()
    };
    // The paper's §4.3 contract: P(3) at five clients breaks the latency
    // bound (which is exactly why Table 2 drops to P(2) there).
    let contract = Contract::paper_section_4_3();
    let status = contract.evaluate(&measured);
    assert!(!status.is_honored(), "P(3)@5 should violate: {measured:?}");
    // And there are degraded alternatives to offer.
    assert!(!contract.degraded_alternatives(1.5).is_empty());
}

#[test]
fn deterministic_replay_through_the_facade() {
    let run = |seed| {
        let config = TestbedConfig {
            replicas: 2,
            clients: 2,
            style: ReplicationStyle::WarmPassive,
            requests_per_client: 100,
            seed,
            ..TestbedConfig::default()
        };
        let mut bed = build_replicated(&config);
        run_to_completion(&mut bed, 200);
        (
            bed.merged_rtt().mean_micros_f64(),
            bed.world.events_processed(),
        )
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn user_exceptions_flow_back_to_the_client() {
    struct Grumpy;
    impl ReplicatedApplication for Grumpy {
        fn invoke(&mut self, _op: &str, _args: &Bytes) -> InvokeResult {
            Err(UserException {
                reason: "grumpy".into(),
            })
        }
        fn capture_state(&self) -> Bytes {
            Bytes::new()
        }
        fn restore_state(&mut self, _state: &Bytes) {}
    }
    let mut world = World::new(gc_topology(2), 3);
    let replica = world.spawn(
        NodeId(0),
        Box::new(ReplicaActor::bootstrap(
            ProcessId(0),
            vec![ProcessId(0)],
            Box::new(Grumpy),
            ReplicaConfig::for_group(GroupId(1)),
        )),
    );
    let driver = RequestDriver::new(DriverConfig {
        total: Some(10),
        ..DriverConfig::default()
    });
    let client = world.spawn(
        NodeId(1),
        Box::new(ReplicatedClientActor::new(
            driver,
            ReplicatedClientConfig {
                replicas: vec![replica],
                ..ReplicatedClientConfig::default()
            },
        )),
    );
    world.run_for(SimDuration::from_secs(2));
    let c = world.actor_ref::<ReplicatedClientActor>(client).unwrap();
    // Exceptions complete the request (the app decides what to do next).
    assert_eq!(c.driver().completed(), 10);
}
