//! End-to-end gray-failure handling: a replica that is alive but slow —
//! its outbound links carry induced delay — must be *demoted* (primary)
//! or *evicted after a longer patience* (backup) by the slow-vs-dead
//! policy, never falsely declared dead by the failure detector.
//!
//! The induced stalls stay below the fixed failure timeout, so the test
//! also pins the false-positive side: zero suspicions are raised while
//! the laggard is remediated through the cheap path.

use bytes::Bytes;

use vd_core::prelude::*;
use vd_group::message::GroupId;
use vd_group::prelude::DetectorConfig;
use vd_orb::sim::{DriverConfig, RequestDriver};
use vd_simnet::prelude::*;

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

fn lan(n: u32) -> Topology {
    let mut topo = Topology::full_mesh(n);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(20),
    )));
    topo
}

/// Three warm-passive replicas running the slow-failure policy with a
/// sensitized adaptive detector (tight policy cadence so laggard windows
/// are reliably sampled).
fn spawn_gray_group(
    world: &mut World,
    demote_patience: u32,
    evict_patience: u32,
) -> Vec<ProcessId> {
    let members: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    let mut replicas = Vec::new();
    for i in 0..3u32 {
        let config = ReplicaConfig {
            knobs: LowLevelKnobs::default()
                .style(ReplicationStyle::WarmPassive)
                .num_replicas(3),
            policy_interval: SimDuration::from_millis(10),
            ..ReplicaConfig::for_group(GroupId(1))
        };
        let mut det = DetectorConfig::new(config.group_config.failure_timeout);
        // Classify statistically anomalous silence as laggard earlier
        // than the default: the induced stalls sit well below the fixed
        // timeout, which is exactly the gray zone under test.
        det.laggard_z = 1.5;
        let actor = ReplicaActor::bootstrap(
            ProcessId(i as u64),
            members.clone(),
            Box::new(Counter { value: 0 }),
            config,
        )
        .with_policy(Box::new(SlowFailurePolicy::new(
            demote_patience,
            evict_patience,
        )))
        .with_detector_config(det);
        replicas.push(world.spawn(NodeId(i), Box::new(actor)));
    }
    replicas
}

/// Repeated sub-timeout stalls on `from`'s outbound links: each upward
/// base-delay step silences the node for ~45 ms — past the laggard
/// threshold, below the 50 ms fixed failure timeout.
fn induce_gray_stalls(world: &mut World, from: u32, peers: &[u32]) {
    for &to in peers {
        for step in 0..8u64 {
            let up = SimTime::from_millis(600 + step * 100);
            let down = SimTime::from_millis(650 + step * 100);
            world.set_link_delay_at(
                NodeId(from),
                NodeId(to),
                SimDuration::from_millis(40),
                SimDuration::ZERO,
                up,
            );
            world.set_link_delay_at(
                NodeId(from),
                NodeId(to),
                SimDuration::from_millis(5),
                SimDuration::ZERO,
                down,
            );
        }
        world.set_link_delay_at(
            NodeId(from),
            NodeId(to),
            SimDuration::ZERO,
            SimDuration::ZERO,
            SimTime::from_millis(1450),
        );
    }
}

fn drive_load(world: &mut World, gateways: Vec<ProcessId>, total: u64) -> ProcessId {
    let driver = RequestDriver::new(DriverConfig {
        operation: "increment".into(),
        total: Some(total),
        think: SimDuration::from_millis(5),
        ..DriverConfig::default()
    });
    world.spawn(
        NodeId(3),
        Box::new(ReplicatedClientActor::new(
            driver,
            ReplicatedClientConfig {
                replicas: gateways,
                ..ReplicatedClientConfig::default()
            },
        )),
    )
}

/// A laggard *primary* is demoted — primaryship moves to the lowest
/// healthy backup through the replicated demotion path — while the slow
/// replica stays in the group and no suspicion is ever raised.
#[test]
fn laggard_primary_is_demoted_not_evicted() {
    let mut world = World::new(lan(4), 42);
    let replicas = spawn_gray_group(&mut world, 1, u32::MAX);
    // Healthy gateways only: the gray node's reply path stays clean, the
    // flow under test is its group-internal traffic.
    let client = drive_load(&mut world, vec![replicas[1], replicas[2]], 300);
    induce_gray_stalls(&mut world, 0, &[1, 2]);
    world.run_for(SimDuration::from_secs(4));

    let c = world.actor_ref::<ReplicatedClientActor>(client).unwrap();
    assert_eq!(c.driver().completed(), 300, "service stayed available");
    let bootstrap_view = vd_group::view::ViewId(0);
    let mut demotions = 0;
    for &r in &replicas {
        let actor = world.actor_ref::<ReplicaActor>(r).unwrap();
        assert_eq!(
            actor.endpoint().view().members().len(),
            3,
            "the laggard was falsely evicted"
        );
        assert_eq!(
            actor.engine().demoted(),
            Some(ProcessId(0)),
            "every replica agreed on the demotion"
        );
        assert_eq!(actor.engine().primary(), Some(ProcessId(1)));
        if actor
            .directives()
            .iter()
            .any(|(_, d)| *d == AdaptationAction::DemotePrimary)
        {
            demotions += 1;
        }
        // The stalls stayed below the fixed timeout: a correctly held
        // gray failure never triggers a view change (no suspicion, no
        // failover) — the group is still in its bootstrap view.
        assert_eq!(
            actor.endpoint().view().id(),
            bootstrap_view,
            "a view change fired for a merely-slow node"
        );
        assert_eq!(actor.endpoint().suspected().count(), 0);
    }
    assert!(demotions >= 1, "no replica decided to demote");
    // The demoted primary executed nothing it should not have: all
    // replicas converge on the same final state.
    let reference = world
        .actor_ref::<ReplicaActor>(replicas[0])
        .unwrap()
        .app()
        .capture_state();
    for &r in &replicas[1..] {
        let state = world
            .actor_ref::<ReplicaActor>(r)
            .unwrap()
            .app()
            .capture_state();
        assert_eq!(state, reference, "replica state diverged after demotion");
    }
}

/// A persistently laggard *backup* is evicted through the graceful-leave
/// path after the (longer) eviction patience — shrinking the view
/// without a failure-detector suspicion or a failover.
#[test]
fn persistently_laggard_backup_is_evicted_gracefully() {
    let mut world = World::new(lan(4), 43);
    let replicas = spawn_gray_group(&mut world, u32::MAX, 3);
    let client = drive_load(&mut world, vec![replicas[0], replicas[1]], 300);
    induce_gray_stalls(&mut world, 2, &[0, 1]);
    world.run_for(SimDuration::from_secs(4));

    let c = world.actor_ref::<ReplicatedClientActor>(client).unwrap();
    assert_eq!(c.driver().completed(), 300, "service stayed available");
    let mut evictions = 0;
    for &r in &replicas[..2] {
        let actor = world.actor_ref::<ReplicaActor>(r).unwrap();
        assert_eq!(
            actor.endpoint().view().members(),
            &[replicas[0], replicas[1]],
            "the laggard backup should have left the view"
        );
        assert_eq!(actor.engine().primary(), Some(ProcessId(0)));
        if actor
            .directives()
            .iter()
            .any(|(_, d)| *d == AdaptationAction::EvictLaggard)
        {
            evictions += 1;
        }
    }
    assert!(evictions >= 1, "no replica decided to evict");
}
