//! Cross-group isolation under multi-group hosting.
//!
//! One replica process can host several object groups behind a single
//! shared failure detector. These tests pin down the two isolation
//! properties that makes useful:
//!
//! * **Fault isolation** — a fault storm aimed at group A's primary must
//!   not stall group B, even though B's replicas share processes (and the
//!   failure detector) with A's. The shared detector fans suspicion into
//!   every co-located group, but a suspicion of a process that is not a
//!   member of B must leave B's view untouched.
//! * **Switch isolation** (`check-invariants` builds) — two Fig. 5 style
//!   switches running *concurrently* in different groups each uphold the
//!   switch invariants (single primary, exactly-once execution, reply
//!   convergence), checked per group after every scheduler slice.

use bytes::Bytes;

use vd_core::prelude::*;
use vd_group::config::GroupConfig;
use vd_group::message::GroupId;
use vd_orb::object::ObjectKey;
use vd_orb::sim::{DriverConfig, RequestDriver};
use vd_simnet::chaos::FaultPlan;
use vd_simnet::prelude::*;
use vd_simnet::time::SimDuration;

#[cfg(feature = "check-invariants")]
use vd_core::invariants::SwitchInvariants;

const GROUP_A: GroupId = GroupId(1);
const GROUP_B: GroupId = GroupId(2);

/// Deterministic counter servant, one instance per hosted group.
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

fn group_config() -> GroupConfig {
    // min_view 2: a partitioned-off minority self-evicts instead of
    // soldiering on as a rump primary.
    GroupConfig::default().min_view(2)
}

fn hosted(group: GroupId, members: Vec<ProcessId>) -> HostedGroup {
    HostedGroup {
        membership: GroupMembership::Bootstrap(members),
        app: Box::new(Counter { value: 0 }),
        config: ReplicaConfig {
            knobs: LowLevelKnobs::default().style(ReplicationStyle::Active),
            group_config: group_config(),
            ..ReplicaConfig::for_group(group)
        },
    }
}

fn client(
    world: &mut World,
    node: u32,
    object: &str,
    group: GroupId,
    gateways: Vec<ProcessId>,
    total: u64,
) -> ProcessId {
    let driver = RequestDriver::new(DriverConfig {
        object: ObjectKey::new(object),
        operation: "increment".into(),
        total: Some(total),
        ..DriverConfig::default()
    });
    let directory = vd_orb::directory::RoutingDirectory::new()
        .with_object(ObjectKey::new(object), group)
        .with_group(group, gateways);
    let config = ReplicatedClientConfig {
        directory,
        ..ReplicatedClientConfig::default()
    };
    world.spawn(
        NodeId(node),
        Box::new(ReplicatedClientActor::new(driver, config)),
    )
}

/// Group A lives on processes {0,1,2}, group B on {1,2,3}: processes 1
/// and 2 host both groups behind one failure detector. A fault storm
/// flaps A's primary (process 0, node 0) off the network. A fails over;
/// B — whose primary is process 1 — must sail through without a single
/// client retry.
#[test]
fn fault_storm_on_group_a_leaves_group_b_undisturbed() {
    let a_members: Vec<ProcessId> = vec![ProcessId(0), ProcessId(1), ProcessId(2)];
    let b_members: Vec<ProcessId> = vec![ProcessId(1), ProcessId(2), ProcessId(3)];
    let mut world = World::new(
        {
            let mut topo = Topology::full_mesh(6);
            topo.set_default_link(LinkConfig {
                latency: LatencyModel::uniform(
                    SimDuration::from_micros(210),
                    SimDuration::from_micros(80),
                ),
                bandwidth_bytes_per_sec: Some(12_500_000),
            });
            topo
        },
        11,
    );
    // Process 0: A only. Processes 1, 2: both groups. Process 3: B only.
    let actors: Vec<Vec<HostedGroup>> = vec![
        vec![hosted(GROUP_A, a_members.clone())],
        vec![
            hosted(GROUP_A, a_members.clone()),
            hosted(GROUP_B, b_members.clone()),
        ],
        vec![
            hosted(GROUP_A, a_members.clone()),
            hosted(GROUP_B, b_members.clone()),
        ],
        vec![hosted(GROUP_B, b_members.clone())],
    ];
    for (i, groups) in actors.into_iter().enumerate() {
        let actor = ReplicaActor::host(ProcessId(i as u64), groups, None)
            .with_route(ObjectKey::new("obj-a"), GROUP_A)
            .with_route(ObjectKey::new("obj-b"), GROUP_B);
        let pid = world.spawn(NodeId(i as u32), Box::new(actor));
        assert_eq!(pid, ProcessId(i as u64));
    }
    let total = 300;
    let client_a = client(&mut world, 4, "obj-a", GROUP_A, a_members.clone(), total);
    let client_b = client(&mut world, 5, "obj-b", GROUP_B, b_members.clone(), total);

    // The storm: node 0 (A's primary, hosting nothing of B) flaps off the
    // group links twice and stays cut the third time.
    let ms = SimTime::from_millis;
    FaultPlan::new()
        .partition(ms(200), vec![NodeId(0)], vec![NodeId(1), NodeId(2)])
        .heal_all(ms(700))
        .partition(ms(900), vec![NodeId(0)], vec![NodeId(1), NodeId(2)])
        .heal_all(ms(1_400))
        .partition(ms(1_600), vec![NodeId(0)], vec![NodeId(1), NodeId(2)])
        .schedule(&mut world);

    world.run_for(SimDuration::from_secs(8));

    // Group B never stalled: every request served, zero failovers.
    let cb = world.actor_ref::<ReplicatedClientActor>(client_b).unwrap();
    assert_eq!(cb.driver().completed(), total, "group B stalled");
    assert_eq!(cb.retries, 0, "group B clients should never have retried");

    // Group A survived the storm too (through failover), so the whole
    // workload completed — A's client just had to work for it.
    let ca = world.actor_ref::<ReplicatedClientActor>(client_a).unwrap();
    assert_eq!(ca.driver().completed(), total, "group A lost requests");

    // The co-hosting replicas prove the isolation: on process 1 the
    // shared detector suspected process 0 and A's view shed it, while
    // B's view — process 0 was never a member — is intact.
    let r1 = world.actor_ref::<ReplicaActor>(ProcessId(1)).unwrap();
    let a_members_now = r1.engine_of(GROUP_A).unwrap().members().to_vec();
    assert!(
        !a_members_now.contains(&ProcessId(0)),
        "A should have evicted its cut-off primary, members now {a_members_now:?}"
    );
    assert_eq!(
        r1.engine_of(GROUP_B).unwrap().members(),
        &b_members[..],
        "B's membership must be untouched by A's storm"
    );
    assert_eq!(
        r1.engine_of(GROUP_B).unwrap().primary(),
        Some(ProcessId(1)),
        "B's primary must not have moved"
    );
}

/// Both groups fully co-located on processes {0,1,2}; both switch styles
/// at overlapping times (A at one replica, B at another). After every
/// scheduler slice, each group's switch invariants are checked
/// independently — the per-group checkpoint chains and view state must
/// not bleed into each other.
#[cfg(feature = "check-invariants")]
#[test]
fn concurrent_switches_in_different_groups_hold_invariants() {
    let members: Vec<ProcessId> = vec![ProcessId(0), ProcessId(1), ProcessId(2)];
    let mut world = World::new(
        {
            let mut topo = Topology::full_mesh(5);
            topo.set_default_link(LinkConfig {
                latency: LatencyModel::uniform(
                    SimDuration::from_micros(210),
                    SimDuration::from_micros(80),
                ),
                bandwidth_bytes_per_sec: Some(12_500_000),
            });
            topo
        },
        23,
    );
    for i in 0..3u64 {
        let actor = ReplicaActor::host(
            ProcessId(i),
            vec![
                hosted(GROUP_A, members.clone()),
                hosted(GROUP_B, members.clone()),
            ],
            None,
        )
        .with_route(ObjectKey::new("obj-a"), GROUP_A)
        .with_route(ObjectKey::new("obj-b"), GROUP_B);
        let pid = world.spawn(NodeId(i as u32), Box::new(actor));
        assert_eq!(pid, ProcessId(i));
    }
    let total = 200;
    let client_a = client(&mut world, 3, "obj-a", GROUP_A, members.clone(), total);
    let client_b = client(&mut world, 4, "obj-b", GROUP_B, members.clone(), total);

    let inv_a = SwitchInvariants::for_group(GROUP_A, members.clone());
    let inv_b = SwitchInvariants::for_group(GROUP_B, members.clone());
    let mut switched = 0;
    for slice in 0.. {
        world.run_for(SimDuration::from_millis(1));
        inv_a.check(&world).expect("group A invariants");
        inv_b.check(&world).expect("group B invariants");
        // Two concurrent switches out, then (mid-flight for stragglers)
        // two concurrent switches back.
        if slice == 300 {
            world.inject(
                ProcessId(0),
                ReplicaCommand::Switch {
                    group: GROUP_A,
                    style: ReplicationStyle::WarmPassive,
                },
            );
            world.inject(
                ProcessId(1),
                ReplicaCommand::Switch {
                    group: GROUP_B,
                    style: ReplicationStyle::WarmPassive,
                },
            );
            switched += 1;
        }
        if slice == 800 {
            world.inject(
                ProcessId(1),
                ReplicaCommand::Switch {
                    group: GROUP_A,
                    style: ReplicationStyle::Active,
                },
            );
            world.inject(
                ProcessId(2),
                ReplicaCommand::Switch {
                    group: GROUP_B,
                    style: ReplicationStyle::Active,
                },
            );
            switched += 1;
        }
        let done = |pid| {
            world
                .actor_ref::<ReplicatedClientActor>(pid)
                .map(|c: &ReplicatedClientActor| c.driver().completed())
                .unwrap_or(0)
        };
        let switched_back = members.iter().all(|&pid| {
            world.actor_ref::<ReplicaActor>(pid).is_some_and(|a| {
                [GROUP_A, GROUP_B]
                    .iter()
                    .all(|&g| a.engine_of(g).unwrap().style() == ReplicationStyle::Active)
            })
        });
        if switched == 2 && switched_back && done(client_a) == total && done(client_b) == total {
            break;
        }
        assert!(slice < 20_000, "workload did not complete");
    }

    // Every replica saw both of its groups complete both switches.
    for pid in &members {
        let actor = world.actor_ref::<ReplicaActor>(*pid).unwrap();
        for group in [GROUP_A, GROUP_B] {
            let styles: Vec<ReplicationStyle> = actor
                .replication(group)
                .unwrap()
                .style_history()
                .iter()
                .map(|&(_, s)| s)
                .collect();
            assert_eq!(
                styles,
                vec![ReplicationStyle::WarmPassive, ReplicationStyle::Active],
                "replica {pid}, group {group:?}"
            );
            assert_eq!(
                actor.engine_of(group).unwrap().style(),
                ReplicationStyle::Active
            );
        }
    }
}
