//! End-to-end tests of the group-communication protocol running inside the
//! deterministic simulator: ordering guarantees, reliability under loss,
//! virtual synchrony across crashes, joins and graceful leaves. Every
//! member runs the deployed stack: its endpoint hosted in a
//! [`MultiEndpoint`] behind the process-level failure detector.

use bytes::Bytes;

use vd_group::prelude::*;
use vd_simnet::prelude::*;

const GROUP: GroupId = GroupId(7);

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

/// Spawns `n` group members (one per node) bootstrapped into a common view.
/// Process ids are assigned sequentially from zero by the world.
fn spawn_group(world: &mut World, n: u32, config: GroupConfig) -> Vec<ProcessId> {
    let members: Vec<ProcessId> = (0..n as u64).map(ProcessId).collect();
    let mut pids = Vec::new();
    for i in 0..n {
        let endpoint = Endpoint::bootstrap(ProcessId(i as u64), GROUP, config, members.clone());
        let pid = world.spawn(NodeId(i), host(endpoint, config));
        assert_eq!(pid, ProcessId(i as u64), "sequential pid assumption");
        pids.push(pid);
    }
    pids
}

fn lan_topology(n: u32) -> Topology {
    let mut topo = Topology::full_mesh(n);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(10),
    )));
    topo
}

fn multicast(world: &mut World, member: ProcessId, order: DeliveryOrder, payload: &[u8]) {
    world.inject(
        member,
        MultiCommand::Multicast {
            group: GROUP,
            order,
            payload: Bytes::copy_from_slice(payload),
        },
    );
}

fn deliveries_of(world: &World, pid: ProcessId) -> Vec<(ProcessId, Vec<u8>)> {
    actor_of(world, pid)
        .deliveries
        .iter()
        .map(|d| (d.sender, d.payload.to_vec()))
        .collect()
}

#[test]
fn fifo_messages_deliver_in_sender_order_everywhere() {
    let mut world = World::new(lan_topology(3), 1);
    let pids = spawn_group(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    for i in 0..50u32 {
        multicast(&mut world, pids[0], DeliveryOrder::Fifo, &i.to_be_bytes());
        world.run_for(SimDuration::from_micros(200));
    }
    world.run_for(SimDuration::from_millis(50));
    for &pid in &pids {
        let got: Vec<Vec<u8>> = deliveries_of(&world, pid)
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        let want: Vec<Vec<u8>> = (0..50u32).map(|i| i.to_be_bytes().to_vec()).collect();
        assert_eq!(got, want, "member {pid} saw out-of-order fifo stream");
    }
}

#[test]
fn agreed_messages_deliver_in_identical_total_order() {
    let mut world = World::new(lan_topology(3), 2);
    let pids = spawn_group(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    // All three members multicast concurrently.
    for round in 0..20u32 {
        for (m, &pid) in pids.iter().enumerate() {
            let tag = (m as u32) << 16 | round;
            multicast(&mut world, pid, DeliveryOrder::Agreed, &tag.to_be_bytes());
        }
        world.run_for(SimDuration::from_micros(150));
    }
    world.run_for(SimDuration::from_millis(100));
    let reference = deliveries_of(&world, pids[0]);
    assert_eq!(reference.len(), 60, "all 60 agreed messages delivered");
    for &pid in &pids[1..] {
        assert_eq!(
            deliveries_of(&world, pid),
            reference,
            "member {pid} disagreed on the total order"
        );
    }
    // Global sequence numbers are contiguous from 1.
    let globals: Vec<u64> = actor_of(&world, pids[0])
        .deliveries
        .iter()
        .map(|d| d.global_seq.expect("agreed messages carry a global seq"))
        .collect();
    assert_eq!(globals, (1..=60).collect::<Vec<u64>>());
}

#[test]
fn causal_precedence_is_respected_despite_slow_links() {
    let mut topo = lan_topology(3);
    // Make the link from node 0 to node 2 very slow, so A's message would
    // arrive at C long after B's causally-later message without the holdback.
    topo.set_link(
        NodeId(0),
        NodeId(2),
        LinkConfig::with_latency(LatencyModel::constant(SimDuration::from_millis(3))),
    );
    let mut world = World::new(topo, 3);
    let pids = spawn_group(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));

    multicast(&mut world, pids[0], DeliveryOrder::Causal, b"cause");
    // Wait until B has delivered "cause", then B replies.
    world.run_for(SimDuration::from_millis(1));
    assert!(
        deliveries_of(&world, pids[1])
            .iter()
            .any(|(_, p)| p == b"cause"),
        "B should have the first message"
    );
    multicast(&mut world, pids[1], DeliveryOrder::Causal, b"effect");
    world.run_for(SimDuration::from_millis(20));

    for &pid in &pids {
        let order: Vec<Vec<u8>> = deliveries_of(&world, pid)
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        let cause = order
            .iter()
            .position(|p| p == b"cause")
            .expect("cause delivered");
        let effect = order
            .iter()
            .position(|p| p == b"effect")
            .expect("effect delivered");
        assert!(
            cause < effect,
            "member {pid} delivered effect before its cause"
        );
    }
}

#[test]
fn reliable_classes_survive_heavy_message_loss() {
    let mut world = World::new(lan_topology(3), 4);
    let pids = spawn_group(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    world.set_drop_probability(0.2);
    for i in 0..30u32 {
        multicast(&mut world, pids[0], DeliveryOrder::Agreed, &i.to_be_bytes());
        multicast(
            &mut world,
            pids[1],
            DeliveryOrder::Fifo,
            &(1000 + i).to_be_bytes(),
        );
        world.run_for(SimDuration::from_micros(300));
    }
    // Stop losing messages and give retransmission time to converge.
    world.set_drop_probability(0.0);
    world.run_for(SimDuration::from_millis(500));
    for &pid in &pids {
        let got = deliveries_of(&world, pid);
        assert_eq!(got.len(), 60, "member {pid} lost reliable messages");
    }
    // Agreed order still agrees.
    let agreed = |pid| -> Vec<Vec<u8>> {
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

#[test]
fn best_effort_messages_may_be_lost_but_never_retransmitted() {
    let mut world = World::new(lan_topology(2), 5);
    let pids = spawn_group(&mut world, 2, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    world.set_drop_probability(1.0);
    multicast(&mut world, pids[0], DeliveryOrder::BestEffort, b"gone");
    world.run_for(SimDuration::from_millis(100));
    world.set_drop_probability(0.0);
    world.run_for(SimDuration::from_millis(200));
    // The sender delivered its own copy; the peer never got one and no
    // retransmission machinery fired.
    assert_eq!(deliveries_of(&world, pids[0]).len(), 1);
    assert_eq!(deliveries_of(&world, pids[1]).len(), 0);
}

#[test]
fn crash_triggers_view_change_and_service_continues() {
    let mut world = World::new(lan_topology(3), 6);
    let pids = spawn_group(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    multicast(&mut world, pids[0], DeliveryOrder::Agreed, b"before");
    world.run_for(SimDuration::from_millis(5));

    // Crash a non-coordinator member.
    world.crash_process_at(pids[2], world.now());
    world.run_for(SimDuration::from_millis(300));

    for &pid in &pids[..2] {
        let views = actor_of(&world, pid).installed_views(GROUP);
        let last = views.last().expect("a new view installed");
        assert_eq!(last.members(), &[pids[0], pids[1]], "member {pid}");
    }
    // Traffic still flows in the new view.
    multicast(&mut world, pids[1], DeliveryOrder::Agreed, b"after");
    world.run_for(SimDuration::from_millis(20));
    for &pid in &pids[..2] {
        assert!(
            deliveries_of(&world, pid)
                .iter()
                .any(|(_, p)| p == b"after"),
            "member {pid} missed post-crash traffic"
        );
    }
}

#[test]
fn sequencer_crash_preserves_and_continues_the_total_order() {
    let mut world = World::new(lan_topology(4), 7);
    let pids = spawn_group(&mut world, 4, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    for i in 0..10u32 {
        multicast(&mut world, pids[1], DeliveryOrder::Agreed, &i.to_be_bytes());
        world.run_for(SimDuration::from_micros(200));
    }
    // pids[0] is the coordinator and thus the sequencer: kill it mid-stream.
    world.crash_process_at(pids[0], world.now());
    for i in 10..20u32 {
        multicast(&mut world, pids[1], DeliveryOrder::Agreed, &i.to_be_bytes());
        world.run_for(SimDuration::from_micros(200));
    }
    world.run_for(SimDuration::from_millis(500));

    // Survivors installed a view without the sequencer and agree on one
    // total order containing all 20 messages.
    let reference = deliveries_of(&world, pids[1]);
    assert_eq!(reference.len(), 20, "agreed messages lost across failover");
    for &pid in &pids[2..] {
        assert_eq!(deliveries_of(&world, pid), reference, "member {pid}");
    }
    for &pid in &pids[1..] {
        let views = actor_of(&world, pid).installed_views(GROUP);
        assert!(
            views.last().is_some_and(|v| !v.contains(pids[0])),
            "member {pid} still believes the sequencer is alive"
        );
    }
}

#[test]
fn virtual_synchrony_survivors_deliver_identical_prefix_before_view_change() {
    let mut world = World::new(lan_topology(3), 8);
    let pids = spawn_group(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    // Burst of traffic, then a crash in the middle of it.
    for i in 0..15u32 {
        multicast(&mut world, pids[2], DeliveryOrder::Agreed, &i.to_be_bytes());
        if i == 7 {
            world.crash_process_at(pids[2], world.now() + SimDuration::from_micros(50));
        }
        world.run_for(SimDuration::from_micros(100));
    }
    world.run_for(SimDuration::from_millis(500));

    // Each survivor's deliveries before its ViewInstalled event must match
    // exactly (virtual synchrony), and both survivors must have installed
    // the same view.
    let prefix = |pid: ProcessId| -> (Vec<Vec<u8>>, Option<View>) {
        let actor = actor_of(&world, pid);
        let mut delivered = Vec::new();
        for (_, event) in &actor.events {
            match event {
                GroupEvent::Delivered(d) => delivered.push(d.payload.to_vec()),
                GroupEvent::ViewInstalled { view, .. } => return (delivered, Some(view.clone())),
                _ => {}
            }
        }
        (delivered, None)
    };
    let (p0, v0) = prefix(pids[0]);
    let (p1, v1) = prefix(pids[1]);
    assert_eq!(p0, p1, "survivors disagree on the pre-view-change prefix");
    let v0 = v0.expect("survivor 0 installed a view");
    let v1 = v1.expect("survivor 1 installed a view");
    assert_eq!(v0, v1);
    assert_eq!(v0.members(), &[pids[0], pids[1]]);
}

#[test]
fn join_installs_view_and_newcomer_receives_subsequent_traffic() {
    let mut world = World::new(lan_topology(3), 9);
    // Bootstrap only two members; node 2 joins later.
    let members: Vec<ProcessId> = vec![ProcessId(0), ProcessId(1)];
    for i in 0..2u32 {
        let ep = Endpoint::bootstrap(
            ProcessId(i as u64),
            GROUP,
            GroupConfig::default(),
            members.clone(),
        );
        world.spawn(NodeId(i), host(ep, GroupConfig::default()));
    }
    world.run_for(SimDuration::from_millis(5));
    multicast(&mut world, ProcessId(0), DeliveryOrder::Agreed, b"old-news");
    world.run_for(SimDuration::from_millis(5));

    let joiner_ep = Endpoint::joining(
        ProcessId(2),
        GROUP,
        GroupConfig::default(),
        vec![ProcessId(0)],
    );
    let joiner = world.spawn(NodeId(2), host(joiner_ep, GroupConfig::default()));
    assert_eq!(joiner, ProcessId(2));
    world.run_for(SimDuration::from_millis(300));

    // Everyone (including the joiner) sits in a 3-member view.
    for pid in [ProcessId(0), ProcessId(1), ProcessId(2)] {
        assert_eq!(
            endpoint_of(&world, pid).view().members(),
            &[ProcessId(0), ProcessId(1), ProcessId(2)],
            "member {pid}"
        );
    }
    // The joiner skips history but receives new traffic.
    multicast(&mut world, ProcessId(1), DeliveryOrder::Agreed, b"fresh");
    world.run_for(SimDuration::from_millis(20));
    let joiner_msgs = deliveries_of(&world, joiner);
    assert!(joiner_msgs.iter().all(|(_, p)| p != b"old-news"));
    assert!(joiner_msgs.iter().any(|(_, p)| p == b"fresh"));
}

#[test]
fn graceful_leave_evicts_self_and_shrinks_view() {
    let mut world = World::new(lan_topology(3), 10);
    let pids = spawn_group(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    world.inject(pids[2], MultiCommand::Leave { group: GROUP });
    world.run_for(SimDuration::from_millis(300));

    let leaver = actor_of(&world, pids[2]);
    assert!(
        leaver
            .events
            .iter()
            .any(|(_, e)| matches!(e, GroupEvent::SelfEvicted)),
        "leaver never saw SelfEvicted"
    );
    for &pid in &pids[..2] {
        assert_eq!(
            endpoint_of(&world, pid).view().members(),
            &[pids[0], pids[1]]
        );
    }
}

#[test]
fn same_seed_produces_identical_delivery_transcripts() {
    let run = |seed: u64| -> Vec<Vec<(ProcessId, Vec<u8>)>> {
        let mut world = World::new(lan_topology(3), seed);
        let pids = spawn_group(&mut world, 3, GroupConfig::default());
        world.run_for(SimDuration::from_millis(5));
        world.set_drop_probability(0.1);
        for i in 0..25u32 {
            let sender = pids[(i % 3) as usize];
            multicast(&mut world, sender, DeliveryOrder::Agreed, &i.to_be_bytes());
            world.run_for(SimDuration::from_micros(250));
        }
        world.set_drop_probability(0.0);
        world.run_for(SimDuration::from_millis(400));
        pids.iter().map(|&p| deliveries_of(&world, p)).collect()
    };
    assert_eq!(run(42), run(42), "same seed must replay identically");
}

#[test]
fn coordinator_crash_during_flush_is_survived() {
    let mut world = World::new(lan_topology(4), 11);
    let pids = spawn_group(&mut world, 4, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    // Crash a member to trigger a flush round led by pids[0]…
    world.crash_process_at(pids[3], world.now());
    // …and then crash the leader shortly after the round starts (the FD
    // needs ~failure_timeout to notice the first crash).
    world.crash_process_at(pids[0], world.now() + SimDuration::from_millis(60));
    world.run_for(SimDuration::from_millis(800));

    for &pid in &pids[1..3] {
        let endpoint = endpoint_of(&world, pid);
        assert_eq!(
            endpoint.view().members(),
            &[pids[1], pids[2]],
            "member {pid} did not converge after leader crash mid-flush"
        );
        assert!(!endpoint.is_blocked(), "member {pid} stuck blocked");
    }
    // And the group still works.
    multicast(&mut world, pids[1], DeliveryOrder::Agreed, b"alive");
    world.run_for(SimDuration::from_millis(20));
    assert!(deliveries_of(&world, pids[2])
        .iter()
        .any(|(_, p)| p == b"alive"));
}

#[test]
fn minority_below_min_view_self_evicts_instead_of_rump_group() {
    let mut world = World::new(lan_topology(3), 17);
    let pids = spawn_group(&mut world, 3, GroupConfig::default().min_view(2));
    world.run_for(SimDuration::from_millis(5));
    // Cut member 0 off from the other two. Its failure detector suspects
    // both peers and it runs a flush alone — but the resulting singleton
    // view is below `min_view`, so it must self-evict rather than carry
    // on as a rump group.
    world.partition_at(vec![NodeId(0)], vec![NodeId(1), NodeId(2)], world.now());
    world.run_for(SimDuration::from_millis(400));

    let lone = actor_of(&world, pids[0]);
    assert!(
        lone.events
            .iter()
            .any(|(_, e)| matches!(e, GroupEvent::SelfEvicted)),
        "cut-off member never self-evicted"
    );
    assert!(!endpoint_of(&world, pids[0]).is_member());

    // The majority side converged on a two-member view and still works.
    for &pid in &pids[1..] {
        assert_eq!(
            endpoint_of(&world, pid).view().members(),
            &[pids[1], pids[2]]
        );
    }
    multicast(&mut world, pids[1], DeliveryOrder::Agreed, b"after-cut");
    world.run_for(SimDuration::from_millis(50));
    assert!(deliveries_of(&world, pids[2])
        .iter()
        .any(|(_, p)| p == b"after-cut"));
}

// ---------------------------------------------------------------------------
// Multi-group hosting: shared process-level failure detection.
// ---------------------------------------------------------------------------

/// Spawns `n` processes each hosting `groups` co-located group endpoints
/// behind one shared [`MultiEndpoint`]. Returns the pids and each process's
/// process-level obs handle (where heartbeat counters land).
fn spawn_multi(
    world: &mut World,
    n: u32,
    groups: &[GroupId],
    config: GroupConfig,
) -> (Vec<ProcessId>, Vec<vd_obs::ObsHandle>) {
    let members: Vec<ProcessId> = (0..n as u64).map(ProcessId).collect();
    let mut pids = Vec::new();
    let mut handles = Vec::new();
    for i in 0..n {
        let me = ProcessId(i as u64);
        let obs = vd_obs::Obs::enabled();
        let mut multi = MultiEndpoint::new(me, config.heartbeat_interval, config.failure_timeout);
        multi.set_obs(obs.clone());
        for &g in groups {
            multi.add_endpoint(Endpoint::bootstrap(me, g, config, members.clone()));
        }
        let pid = world.spawn(NodeId(i), Box::new(MultiGroupMemberActor::new(multi)));
        assert_eq!(pid, me, "sequential pid assumption");
        pids.push(pid);
        handles.push(obs);
    }
    (pids, handles)
}

fn multi_multicast(
    world: &mut World,
    member: ProcessId,
    group: GroupId,
    order: DeliveryOrder,
    payload: &[u8],
) {
    world.inject(
        member,
        MultiCommand::Multicast {
            group,
            order,
            payload: Bytes::copy_from_slice(payload),
        },
    );
}

fn multi_deliveries_of(world: &World, pid: ProcessId, group: GroupId) -> Vec<Vec<u8>> {
    actor_of(world, pid).delivered_payloads(group)
}

/// Satellite regression: heartbeat traffic is per process pair, not per
/// group — hosting three co-located groups must cost the same number of
/// heartbeats as hosting one.
#[test]
fn co_located_groups_share_one_heartbeat_stream() {
    let run = |groups: &[GroupId]| -> (u64, Vec<Vec<u8>>) {
        let mut world = World::new(lan_topology(3), 23);
        let (pids, obs) = spawn_multi(&mut world, 3, groups, GroupConfig::default());
        world.run_for(SimDuration::from_millis(5));
        for &g in groups {
            multi_multicast(
                &mut world,
                pids[0],
                g,
                DeliveryOrder::Agreed,
                &g.0.to_be_bytes(),
            );
        }
        world.run_for(SimDuration::from_millis(500));
        let sent = obs[0].metrics.counter(vd_obs::Ctr::GroupHeartbeatsSent);
        let got: Vec<Vec<u8>> = groups
            .iter()
            .map(|&g| {
                multi_deliveries_of(&world, pids[2], g)
                    .into_iter()
                    .next()
                    .unwrap_or_default()
            })
            .collect();
        (sent, got)
    };

    let (sent_one, got_one) = run(&[GroupId(1)]);
    let (sent_three, got_three) = run(&[GroupId(1), GroupId(2), GroupId(3)]);

    // Every hosted group still delivers its traffic.
    assert_eq!(got_one, vec![1u32.to_be_bytes().to_vec()]);
    assert_eq!(
        got_three,
        (1u32..=3)
            .map(|g| g.to_be_bytes().to_vec())
            .collect::<Vec<_>>()
    );

    // The heartbeat stream is process-level: identical round count whether
    // the process hosts one group or three (it must NOT triple).
    assert!(sent_one > 0, "no heartbeats recorded at all");
    assert_eq!(
        sent_three, sent_one,
        "heartbeats scaled with co-located group count ({sent_three} vs {sent_one})"
    );
}

/// A process crash is detected once by the shared failure detector and the
/// suspicion fans out into every co-located group: both groups converge on
/// a view excluding the crashed peer, and both keep delivering.
#[test]
fn shared_detector_fans_suspicion_into_every_colocated_group() {
    let groups = [GroupId(4), GroupId(9)];
    let mut world = World::new(lan_topology(3), 29);
    let (pids, _obs) = spawn_multi(&mut world, 3, &groups, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    world.crash_process_at(pids[2], world.now());
    world.run_for(SimDuration::from_millis(400));

    for &pid in &pids[..2] {
        let actor = world.actor_ref::<MultiGroupMemberActor>(pid).unwrap();
        for &g in &groups {
            let ep = actor.multi().group(g).expect("hosted group");
            assert_eq!(
                ep.view().members(),
                &[pids[0], pids[1]],
                "group {g:?} on {pid} did not exclude the crashed process"
            );
        }
    }
    for &g in &groups {
        multi_multicast(&mut world, pids[0], g, DeliveryOrder::Agreed, b"post-crash");
        world.run_for(SimDuration::from_millis(30));
        assert!(
            multi_deliveries_of(&world, pids[1], g)
                .iter()
                .any(|p| p == b"post-crash"),
            "group {g:?} stalled after the shared detector fired"
        );
    }
}

// ---------------------------------------------------------------------------
// Adaptive slow-vs-dead detection (gray failures).
// ---------------------------------------------------------------------------

/// Drives one survivor `MultiEndpoint` sans-IO through a gray-failure
/// trace: a warm-up of regular heartbeats, a gradual slowdown, a stall
/// past the fixed failure timeout, then recovery. Returns the endpoint
/// and its obs handle after the trace.
fn run_gray_trace(detector: Option<DetectorConfig>) -> (MultiEndpoint, vd_obs::ObsHandle) {
    let hb = SimDuration::from_millis(5);
    let timeout = SimDuration::from_millis(25);
    let config = GroupConfig::default()
        .heartbeat_interval(hb)
        .failure_timeout(timeout);
    let me = ProcessId(1);
    let peer = ProcessId(2);
    let obs = vd_obs::Obs::enabled();
    let mut multi = MultiEndpoint::new(me, hb, timeout);
    multi.set_obs(obs.clone());
    if let Some(cfg) = detector {
        multi.set_detector_config(cfg);
    }
    let mut ep = Endpoint::bootstrap(me, GROUP, config, vec![me, peer]);
    // Suspicions raised by the shared detector land on the endpoint's
    // handle (the fan-out target), so it must share the same registry.
    ep.set_obs(obs.clone());
    multi.add_endpoint(ep);
    let _ = multi.start(SimTime::ZERO);

    let mut now = SimTime::ZERO;
    let mut next_check = SimTime::ZERO + hb;
    // Heartbeat arrival gaps, µs: warm-up cadence, a gray ramp, a stall
    // past the 25ms fixed timeout, then recovery.
    let warm = std::iter::repeat_n(5_000, 20);
    let ramp = [8_000u64, 11_000, 14_000, 17_000, 20_000, 23_000];
    let stall = [40_000u64];
    let recover = std::iter::repeat_n(5_000, 8);
    for gap in warm.chain(ramp).chain(stall).chain(recover) {
        let arrival = now + SimDuration::from_micros(gap);
        // Fire every failure check that precedes this arrival (silence
        // is observed between heartbeats, as in a live run).
        while next_check < arrival {
            let _ = multi.handle_timer(next_check, MultiTimer::FailureCheck);
            next_check += hb;
        }
        now = arrival;
        multi.handle_heartbeat(
            now,
            peer,
            &ProcessHeartbeat {
                sections: Vec::new(),
            },
        );
    }
    let _ = multi.handle_timer(next_check, MultiTimer::FailureCheck);
    (multi, obs)
}

/// Tentpole regression: under a gradual slowdown whose stall exceeds the
/// fixed failure timeout, the adaptive detector classifies the peer as
/// laggard and holds it — while the very same trace makes a fixed-timeout
/// detector (a cold window that never warms) evict the live peer.
#[test]
fn adaptive_detector_holds_a_laggard_a_fixed_timeout_would_evict() {
    let (multi, obs) = run_gray_trace(None);
    let peer = ProcessId(2);
    assert_eq!(
        obs.metrics.counter(vd_obs::Ctr::GroupSuspicions),
        0,
        "the laggard peer must never be suspected dead"
    );
    assert_eq!(multi.verdict_of(peer), PeerVerdict::Alive, "peer recovered");
    assert_eq!(multi.laggards().count(), 0, "laggard flag must clear");
    assert!(
        obs.metrics.counter(vd_obs::Ctr::GroupLaggards) >= 1,
        "the slowdown must have been classified laggard at some point"
    );
    assert!(
        multi.suspicions_held() >= 1,
        "the stall crossed the fixed timeout, so at least one \
         fixed-timeout suspicion must have been suppressed"
    );
    assert_eq!(
        obs.metrics.counter(vd_obs::Ctr::GroupSuspicionsHeld),
        multi.suspicions_held(),
        "counter and accessor must agree"
    );

    // The control arm: an identical trace against a detector that can
    // never warm up (infinite min_samples) degenerates to the fixed
    // timeout and evicts the live peer during the stall.
    let mut fixed_cfg = DetectorConfig::new(SimDuration::from_millis(25));
    fixed_cfg.min_samples = usize::MAX;
    let (fixed_multi, fixed_obs) = run_gray_trace(Some(fixed_cfg));
    assert!(
        fixed_obs.metrics.counter(vd_obs::Ctr::GroupSuspicions) >= 1,
        "the fixed-timeout control must evict during the stall"
    );
    let view = fixed_multi.group(GROUP).expect("hosted").view();
    assert!(
        !view.members().contains(&peer),
        "the fixed-timeout eviction must have removed the live peer from the view"
    );
}

/// The worst per-peer suspicion score is exported as a gauge and rises
/// with silence: quiet cadence scores ~0, a stall scores high.
#[test]
fn suspicion_score_gauge_tracks_silence() {
    let (_multi, obs) = run_gray_trace(None);
    // After the final (healthy) failure check the gauge reflects a calm
    // peer again; the laggard transition proves it spiked in between.
    assert!(
        obs.metrics.counter(vd_obs::Ctr::GroupLaggards) >= 1,
        "trace must contain a laggard phase"
    );
    let calm = obs.metrics.gauge(vd_obs::Gauge::GroupSuspicionScore);
    assert!(
        calm < 4_000,
        "after recovery the score must sit below the laggard bar (got {calm} milli)"
    );
}
