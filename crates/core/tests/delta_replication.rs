//! End-to-end tests of incremental (delta) checkpointing and data-plane
//! batching: a warm-passive cluster whose application state is large but
//! slow-changing, where deltas should carry the sync traffic, with full
//! snapshots every K checkpoints re-anchoring the chain. Exercises the
//! knobs through the live replica stack — timers, group multicast,
//! failover and runtime style switches included.

use bytes::Bytes;

use vd_core::prelude::*;
use vd_group::config::GroupConfig;
use vd_group::message::GroupId;
use vd_obs::{Ctr, Obs, ObsHandle};
use vd_orb::sim::{DriverConfig, RequestDriver};
use vd_simnet::prelude::*;
use vd_simnet::time::SimDuration;

/// State pad: large enough that a full snapshot dwarfs a byte delta.
const STATE_PAD: usize = 4096;

/// A counter whose checkpoint is a big, mostly-constant blob — only the
/// leading 8 bytes (the count) change between checkpoints, the shape that
/// makes incremental mode pay off.
struct PaddedCounter {
    value: u64,
}

impl ReplicatedApplication for PaddedCounter {
    fn invoke(&mut self, operation: &str, _args: &Bytes) -> InvokeResult {
        if operation == "increment" {
            self.value += 1;
        }
        Ok(Bytes::copy_from_slice(&self.value.to_le_bytes()))
    }

    fn capture_state(&self) -> Bytes {
        let mut state = vec![0x42u8; 8 + STATE_PAD];
        state[..8].copy_from_slice(&self.value.to_le_bytes());
        Bytes::from(state)
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
    client: ProcessId,
    /// Each replica's observability handle (`obs[i]` is replica i's).
    obs: Vec<ObsHandle>,
}

fn cluster(n_replicas: u32, knobs: LowLevelKnobs, seed: u64) -> Cluster {
    let mut topo = Topology::full_mesh(n_replicas + 1);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(20),
    )));
    let mut world = World::new(topo, seed);
    let members: Vec<ProcessId> = (0..n_replicas as u64).map(ProcessId).collect();
    let mut replicas = Vec::new();
    let mut obs = Vec::new();
    for i in 0..n_replicas {
        let replica_obs = Obs::disabled();
        obs.push(replica_obs.clone());
        let config = ReplicaConfig {
            knobs,
            // Data-plane batching on: up to 4 multicasts per frame.
            group_config: GroupConfig::default().batch_max_messages(4),
            obs: replica_obs,
            ..ReplicaConfig::for_group(GroupId(1))
        };
        let pid = world.spawn(
            NodeId(i),
            Box::new(ReplicaActor::bootstrap(
                ProcessId(i as u64),
                members.clone(),
                Box::new(PaddedCounter { value: 0 }),
                config,
            )),
        );
        replicas.push(pid);
    }
    let driver = RequestDriver::new(DriverConfig {
        operation: "increment".into(),
        total: Some(200),
        ..DriverConfig::default()
    });
    let client_config = ReplicatedClientConfig {
        replicas: replicas.clone(),
        retry_timeout: SimDuration::from_millis(150),
        ..ReplicatedClientConfig::default()
    };
    let client = world.spawn(
        NodeId(n_replicas),
        Box::new(ReplicatedClientActor::new(driver, client_config)),
    );
    Cluster {
        world,
        replicas,
        client,
        obs,
    }
}

fn delta_knobs() -> LowLevelKnobs {
    LowLevelKnobs::default()
        .style(ReplicationStyle::WarmPassive)
        .num_replicas(3)
        .checkpoint_full_every(5)
}

fn completed(world: &World, client: ProcessId) -> u64 {
    world
        .actor_ref::<ReplicatedClientActor>(client)
        .unwrap()
        .driver()
        .completed()
}

fn counter_value(world: &World, replica: ProcessId) -> u64 {
    let state = world
        .actor_ref::<ReplicaActor>(replica)
        .unwrap()
        .app()
        .capture_state();
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&state[..8]);
    u64::from_le_bytes(raw)
}

#[test]
fn deltas_carry_the_checkpoint_traffic_and_backups_stay_current() {
    let mut c = cluster(3, delta_knobs(), 11);
    c.world.run_for(SimDuration::from_secs(5));
    assert_eq!(completed(&c.world, c.client), 200);
    assert_eq!(counter_value(&c.world, c.replicas[0]), 200);

    let primary = &c.obs[0].metrics;
    let full_sent = primary.counter(Ctr::CkptFullSent);
    let deltas_sent = primary.counter(Ctr::CkptDeltaSent);
    assert!(full_sent >= 1, "chain anchors on full snapshots");
    assert!(
        deltas_sent >= full_sent,
        "with full_every=5 most checkpoints are deltas: {full_sent} full, {deltas_sent} delta"
    );
    // The whole point: a delta is a fraction of a full snapshot. Every
    // full one carries the whole padded state, while deltas carry ~8
    // changed bytes, so the average sizes must differ by far more than 2×.
    let avg_full = (8 + STATE_PAD) as u64;
    let delta_bytes = primary.counter(Ctr::CkptBytesSent) - full_sent * avg_full;
    let avg_delta = delta_bytes / deltas_sent;
    assert!(
        avg_delta * 2 < avg_full,
        "deltas ({avg_delta} B avg) should undercut fulls ({avg_full} B avg) by ≥2x"
    );

    // Backups tracked the primary through the delta chain: state is
    // current up to checkpoint lag, and no delta was ever rejected.
    for (i, &r) in c.replicas.iter().enumerate().skip(1) {
        let rejected = c.obs[i].metrics.counter(Ctr::CkptRejected);
        assert_eq!(rejected, 0, "replica {r}");
        assert!(counter_value(&c.world, r) > 0, "replica {r} never synced");
    }
}

#[test]
fn failover_under_delta_mode_loses_nothing() {
    let mut c = cluster(3, delta_knobs(), 12);
    c.world.run_for(SimDuration::from_millis(30));
    let before = completed(&c.world, c.client);
    assert!(before > 0 && before < 200, "mid-cycle, got {before}");
    c.world.crash_process_at(c.replicas[0], c.world.now());
    c.world.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&c.world, c.client), 200);
    // The new primary recovered from its delta-synced state plus replay,
    // exactly as it would from full checkpoints.
    assert_eq!(counter_value(&c.world, c.replicas[1]), 200);
    // And its own chain restarted with a full snapshot, so the remaining
    // backup kept in sync without rejections after the takeover.
    assert_eq!(c.obs[2].metrics.counter(Ctr::CkptRejected), 0);
}

#[test]
fn style_switch_under_delta_mode_converges() {
    // The warm→active switch's "one more checkpoint" is always a full
    // snapshot, so the switch completes even mid-delta-chain.
    let mut c = cluster(3, delta_knobs(), 13);
    c.world.run_for(SimDuration::from_millis(100));
    c.world.inject(
        c.replicas[1],
        ReplicaCommand::Switch {
            group: GroupId(1),
            style: ReplicationStyle::Active,
        },
    );
    c.world.run_for(SimDuration::from_secs(5));
    assert_eq!(completed(&c.world, c.client), 200);
    for &r in &c.replicas {
        let actor = c.world.actor_ref::<ReplicaActor>(r).unwrap();
        assert_eq!(
            actor.engine().style(),
            ReplicationStyle::Active,
            "replica {r}"
        );
        assert_eq!(counter_value(&c.world, r), 200, "replica {r}");
    }
}
