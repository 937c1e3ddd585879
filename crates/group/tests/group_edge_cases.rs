//! Edge-case tests for the group-communication protocol: joins under
//! message loss, cascading crashes, concurrent join+crash, shrink to a
//! singleton and regrow, and fault-monitoring knob behavior. Each member
//! hosts its endpoint in a one-group [`MultiEndpoint`], as every deployed
//! process does.

use bytes::Bytes;

use vd_group::prelude::*;
use vd_simnet::prelude::*;

const GROUP: GroupId = GroupId(3);

fn lan(n: u32) -> Topology {
    let mut topo = Topology::full_mesh(n);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(10),
    )));
    topo
}

/// Hosts `endpoint` as the only group of a one-group [`MultiEndpoint`].
fn host(endpoint: Endpoint, config: GroupConfig) -> Box<MultiGroupMemberActor> {
    let mut multi = MultiEndpoint::new(
        endpoint.me(),
        config.heartbeat_interval,
        config.failure_timeout,
    );
    multi.add_endpoint(endpoint);
    Box::new(MultiGroupMemberActor::new(multi))
}

fn actor_of(world: &World, pid: ProcessId) -> &MultiGroupMemberActor {
    world
        .actor_ref::<MultiGroupMemberActor>(pid)
        .expect("member exists")
}

/// The endpoint `pid` hosts for [`GROUP`].
fn endpoint_of(world: &World, pid: ProcessId) -> &Endpoint {
    actor_of(world, pid)
        .multi()
        .group(GROUP)
        .expect("hosted group")
}

fn spawn_bootstrap(world: &mut World, n: u32, config: GroupConfig) -> Vec<ProcessId> {
    let members: Vec<ProcessId> = (0..n as u64).map(ProcessId).collect();
    (0..n)
        .map(|i| {
            let ep = Endpoint::bootstrap(ProcessId(i as u64), GROUP, config, members.clone());
            world.spawn(NodeId(i), host(ep, config))
        })
        .collect()
}

fn multicast(world: &mut World, from: ProcessId, payload: &[u8]) {
    world.inject(
        from,
        MultiCommand::Multicast {
            group: GROUP,
            order: DeliveryOrder::Agreed,
            payload: Bytes::copy_from_slice(payload),
        },
    );
}

#[test]
fn join_succeeds_under_message_loss() {
    let mut world = World::new(lan(4), 31);
    let pids = spawn_bootstrap(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    world.set_drop_probability(0.15);
    let joiner_ep = Endpoint::joining(
        ProcessId(3),
        GROUP,
        GroupConfig::default(),
        vec![pids[0], pids[1]],
    );
    let joiner = world.spawn(NodeId(3), host(joiner_ep, GroupConfig::default()));
    world.run_for(SimDuration::from_secs(3));
    world.set_drop_probability(0.0);
    world.run_for(SimDuration::from_secs(1));
    let j = endpoint_of(&world, joiner);
    assert!(j.is_member(), "join never completed under loss");
    assert_eq!(j.view().len(), 4);
}

#[test]
fn cascading_crashes_shrink_to_a_working_singleton() {
    let mut world = World::new(lan(4), 32);
    let pids = spawn_bootstrap(&mut world, 4, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    multicast(&mut world, pids[0], b"before");
    // Crash three members in a cascade, each before the previous view
    // change fully settles everywhere.
    world.crash_process_at(pids[0], SimTime::from_millis(20));
    world.crash_process_at(pids[1], SimTime::from_millis(90));
    world.crash_process_at(pids[2], SimTime::from_millis(160));
    world.run_for(SimDuration::from_secs(3));
    let survivor = endpoint_of(&world, pids[3]);
    assert_eq!(
        survivor.view().members(),
        &[pids[3]],
        "survivor view: {}",
        survivor.view()
    );
    assert!(!survivor.is_blocked(), "survivor stuck in a flush");
    // A singleton group still self-delivers.
    multicast(&mut world, pids[3], b"alone");
    world.run_for(SimDuration::from_millis(50));
    let survivor = actor_of(&world, pids[3]);
    assert!(survivor
        .deliveries
        .iter()
        .any(|d| d.payload.as_ref() == b"alone"));
}

#[test]
fn singleton_group_accepts_a_joiner_and_regrows() {
    let mut world = World::new(lan(2), 33);
    let solo_ep = Endpoint::bootstrap(
        ProcessId(0),
        GROUP,
        GroupConfig::default(),
        vec![ProcessId(0)],
    );
    let solo = world.spawn(NodeId(0), host(solo_ep, GroupConfig::default()));
    world.run_for(SimDuration::from_millis(5));
    multicast(&mut world, solo, b"solo");
    world.run_for(SimDuration::from_millis(10));

    let joiner_ep = Endpoint::joining(ProcessId(1), GROUP, GroupConfig::default(), vec![solo]);
    let joiner = world.spawn(NodeId(1), host(joiner_ep, GroupConfig::default()));
    world.run_for(SimDuration::from_secs(1));
    for pid in [solo, joiner] {
        assert_eq!(endpoint_of(&world, pid).view().len(), 2, "member {pid}");
    }
    // Two-way traffic in the regrown group.
    multicast(&mut world, joiner, b"hello-from-joiner");
    world.run_for(SimDuration::from_millis(50));
    let m = actor_of(&world, solo);
    assert!(m
        .deliveries
        .iter()
        .any(|d| d.payload.as_ref() == b"hello-from-joiner"));
}

#[test]
fn join_concurrent_with_crash_converges() {
    let mut world = World::new(lan(4), 34);
    let pids = spawn_bootstrap(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    // A member crashes at the same moment a joiner shows up.
    world.crash_process_at(pids[2], SimTime::from_millis(10));
    let joiner_ep = Endpoint::joining(ProcessId(3), GROUP, GroupConfig::default(), vec![pids[0]]);
    let joiner = world.spawn(NodeId(3), host(joiner_ep, GroupConfig::default()));
    world.run_for(SimDuration::from_secs(3));
    // Everyone alive converges on {0, 1, joiner}.
    for pid in [pids[0], pids[1], joiner] {
        let m = endpoint_of(&world, pid);
        assert_eq!(
            m.view().members(),
            &[pids[0], pids[1], joiner],
            "member {pid}: {}",
            m.view()
        );
    }
}

#[test]
fn shorter_failure_timeout_detects_faster() {
    let failover_time = |timeout_ms: u64| -> u64 {
        let config = GroupConfig::default()
            .heartbeat_interval(SimDuration::from_millis(5))
            .failure_timeout(SimDuration::from_millis(timeout_ms));
        let mut world = World::new(lan(3), 35);
        let pids = spawn_bootstrap(&mut world, 3, config);
        world.run_for(SimDuration::from_millis(5));
        let crash_at = SimTime::from_millis(10);
        world.crash_process_at(pids[2], crash_at);
        // Time until a survivor installs the shrunk view.
        let deadline = SimTime::from_secs(5);
        loop {
            world.run_for(SimDuration::from_millis(1));
            if endpoint_of(&world, pids[0]).view().len() == 2 {
                return world.now().duration_since(crash_at).as_micros() / 1000;
            }
            assert!(world.now() < deadline, "view never shrank");
        }
    };
    let fast = failover_time(20);
    let slow = failover_time(120);
    assert!(
        fast < slow,
        "detection with a 20 ms timeout ({fast} ms) should beat 120 ms ({slow} ms)"
    );
    assert!(fast >= 20, "cannot detect before the timeout ({fast} ms)");
}

#[test]
fn causal_and_agreed_coexist_in_one_group() {
    let mut world = World::new(lan(3), 36);
    let pids = spawn_bootstrap(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    for i in 0..10u32 {
        let order = if i % 2 == 0 {
            DeliveryOrder::Agreed
        } else {
            DeliveryOrder::Causal
        };
        world.inject(
            pids[(i % 3) as usize],
            MultiCommand::Multicast {
                group: GROUP,
                order,
                payload: Bytes::copy_from_slice(&i.to_be_bytes()),
            },
        );
        world.run_for(SimDuration::from_micros(300));
    }
    world.run_for(SimDuration::from_millis(200));
    for &pid in &pids {
        let m = actor_of(&world, pid);
        assert_eq!(m.deliveries.len(), 10, "member {pid} lost messages");
        // Agreed sub-transcripts agree across members.
    }
    let agreed = |pid: ProcessId| -> Vec<Vec<u8>> {
        actor_of(&world, pid)
            .deliveries
            .iter()
            .filter(|d| d.order == DeliveryOrder::Agreed)
            .map(|d| d.payload.to_vec())
            .collect()
    };
    assert_eq!(agreed(pids[0]), agreed(pids[1]));
    assert_eq!(agreed(pids[0]), agreed(pids[2]));
}
