//! The simulated test-bed: the paper's seven Pentium-III machines on a
//! switched 100 Mb/s LAN, with calibration constants from its Fig. 3.

use std::sync::Arc;

use vd_core::client::{ReplicatedClientActor, ReplicatedClientConfig};
use vd_core::knobs::LowLevelKnobs;
use vd_core::policy::SlowFailurePolicy;
use vd_core::recovery::{RecoveryConfig, RecoveryManager};
use vd_core::replica::{ReplicaActor, ReplicaConfig};
use vd_core::style::ReplicationStyle;
use vd_group::detector::DetectorConfig;
use vd_group::message::GroupId;
use vd_obs::{Ctr, Obs, ObsHandle, TraceSink};
use vd_orb::interceptor::Passthrough;
use vd_orb::object::{ObjectAdapter, ObjectKey};
use vd_orb::sim::{ClientActor, DriverConfig, OrbCosts, RequestDriver, ServerActor};
use vd_simnet::prelude::*;

use crate::workload::PaddedApp;

/// Link latency of the raw switched LAN (one way) — the path unreplicated
/// baseline traffic takes.
pub fn lan_link() -> LinkConfig {
    LinkConfig {
        latency: LatencyModel::uniform(SimDuration::from_micros(50), SimDuration::from_micros(20)),
        // 100 Mb/s, like the paper's test-bed.
        bandwidth_bytes_per_sec: Some(12_500_000),
    }
}

/// Link model for traffic routed through the group-communication daemons
/// (client interposer → daemon → daemon → replica): the LAN hop plus the
/// daemon pipeline, calibrated so the Fig. 3 GC share lands at ~620 µs per
/// round trip.
pub fn gc_link() -> LinkConfig {
    LinkConfig {
        latency: LatencyModel::uniform(SimDuration::from_micros(210), SimDuration::from_micros(80)),
        bandwidth_bytes_per_sec: Some(12_500_000),
    }
}

/// A topology of `n` LAN-connected machines (baseline runs).
pub fn lan_topology(n: u32) -> Topology {
    let mut topo = Topology::full_mesh(n);
    topo.set_default_link(lan_link());
    topo
}

/// A topology of `n` machines whose traffic flows through GC daemons
/// (replicated runs).
pub fn gc_topology(n: u32) -> Topology {
    let mut topo = Topology::full_mesh(n);
    topo.set_default_link(gc_link());
    topo
}

/// Configuration of a replicated test-bed run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of server replicas (paper sweeps 1–3).
    pub replicas: usize,
    /// Number of closed-loop clients (paper sweeps 1–5).
    pub clients: usize,
    /// Replication style under test.
    pub style: ReplicationStyle,
    /// The object group the replicas host. Single-group beds keep the
    /// historical `GroupId(1)`; sharded beds build one bed per group.
    pub group: GroupId,
    /// Requests per client (paper: a cycle of 10 000; experiments here
    /// default to 2 000 which converges to the same means).
    pub requests_per_client: u64,
    /// Marshaled request size in bytes.
    pub request_bytes: usize,
    /// Marshaled response size in bytes.
    pub response_bytes: usize,
    /// Application state size (checkpoint payload) in bytes.
    pub state_bytes: usize,
    /// Checkpoint interval for passive styles.
    pub checkpoint_interval: SimDuration,
    /// Incremental checkpointing: every K-th checkpoint is a full snapshot,
    /// the rest are byte deltas (≤ 1 disables deltas — the paper's default).
    pub checkpoint_full_every: u32,
    /// Data-plane batching limit (1 = send each multicast immediately).
    pub batch_max_messages: usize,
    /// Fault-monitoring timeout (the FT-CORBA fault-detection knob):
    /// silence longer than this marks a replica as suspected.
    pub failure_timeout: SimDuration,
    /// Minimum view size a replica will accept before evicting itself
    /// (the `min_view` quorum rule). 1 = historical behavior; chaos
    /// campaigns with partitions set 2 so a cut-off minority cannot
    /// soldier on as a rump primary.
    pub min_view: usize,
    /// Recovery managers to deploy (0 = none, the historical layout).
    /// Managers run on their own nodes after the clients, ranked by
    /// position; replicas report membership and suspicions to all of them.
    pub managers: usize,
    /// Empty spare nodes after the managers, the spawn targets for
    /// replacement replicas (chaos campaigns crash replica *nodes*, so
    /// replacements need somewhere else to live).
    pub spare_nodes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Attach a [`vd_core::policy::SlowFailurePolicy`] with these
    /// `(demote_patience, evict_patience)` budgets to every replica, so
    /// the bed remediates laggards through demotion/graceful eviction
    /// instead of waiting for the failure detector.
    pub slow_failure: Option<(u32, u32)>,
    /// Override the adaptive failure-detector tuning on every replica
    /// (`None` keeps the stock [`DetectorConfig`] anchored on
    /// [`TestbedConfig::failure_timeout`]). Manager-spawned replacements
    /// keep the stock tuning either way.
    pub detector: Option<DetectorConfig>,
    /// Shared trace sink: when set, every replica and the simulated world
    /// get an observability handle writing into this one ring, so the run
    /// produces a single chronological event trace. `None` = tracing off
    /// (the hot paths still cost one atomic load per emit site).
    pub trace: Option<Arc<TraceSink>>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            replicas: 3,
            clients: 1,
            style: ReplicationStyle::Active,
            group: GroupId(1),
            requests_per_client: 2_000,
            request_bytes: 256,
            response_bytes: 448,
            state_bytes: 4 * 1024,
            checkpoint_interval: SimDuration::from_millis(10),
            checkpoint_full_every: 1,
            batch_max_messages: 1,
            failure_timeout: SimDuration::from_millis(50),
            min_view: 1,
            managers: 0,
            spare_nodes: 0,
            seed: 42,
            slow_failure: None,
            detector: None,
            trace: None,
        }
    }
}

/// A built test-bed: the world plus the ids of its inhabitants.
#[derive(Debug)]
pub struct Testbed {
    /// The simulated world, ready to run.
    pub world: World,
    /// Replica process ids (node i hosts replica i).
    pub replicas: Vec<ProcessId>,
    /// Client process ids.
    pub clients: Vec<ProcessId>,
    /// Per-replica observability handles (`obs[i]` belongs to
    /// `replicas[i]`): each carries that replica's metrics registry, and
    /// all share the run's trace sink when one was configured.
    pub obs: Vec<ObsHandle>,
    /// Recovery-manager process ids, in rank order (empty unless
    /// [`TestbedConfig::managers`] > 0).
    pub managers: Vec<ProcessId>,
    /// Per-manager observability handles (MTTR histogram, recovery
    /// counters).
    pub manager_obs: Vec<ObsHandle>,
    /// The spare nodes replacements are spawned on.
    pub spare_nodes: Vec<NodeId>,
}

impl Testbed {
    /// Requests completed by client `i`.
    pub fn completed(&self, i: usize) -> u64 {
        self.world
            .actor_ref::<ReplicatedClientActor>(self.clients[i])
            .map(|c| c.driver().completed())
            .unwrap_or(0)
    }

    /// Total requests completed across clients.
    pub fn total_completed(&self) -> u64 {
        (0..self.clients.len()).map(|i| self.completed(i)).sum()
    }

    /// Every client's round trips in one histogram, merged in client
    /// order.
    pub fn merged_rtt(&self) -> Histogram {
        let mut merged = Histogram::new();
        for &pid in &self.clients {
            if let Some(client) = self.world.actor_ref::<ReplicatedClientActor>(pid) {
                merged.merge(client.driver().rtt());
            }
        }
        merged
    }

    /// Mean network bandwidth since time zero, in MB/s: the world's
    /// `simnet.net_bytes` over the elapsed virtual time (0.0 before any
    /// time has passed).
    pub fn bandwidth_mbps(&self) -> f64 {
        let bytes = self.world.obs().metrics.counter(Ctr::SimNetBytes);
        let elapsed_s = self.world.now().duration_since(SimTime::ZERO).as_secs_f64();
        if elapsed_s <= 0.0 {
            0.0
        } else {
            (bytes as f64 / elapsed_s) / 1e6
        }
    }
}

/// Builds a replicated test-bed: replicas on nodes `0..r`, one client per
/// node after that (mirroring the paper's one-process-per-machine layout).
pub fn build_replicated(config: &TestbedConfig) -> Testbed {
    let total_nodes =
        (config.replicas + config.clients + config.managers + config.spare_nodes) as u32;
    let mut world = World::new(gc_topology(total_nodes), config.seed);
    let new_obs = || match &config.trace {
        Some(sink) => Obs::with_trace(Arc::clone(sink)),
        None => Obs::disabled(),
    };
    world.set_obs(new_obs());
    let members: Vec<ProcessId> = (0..config.replicas as u64).map(ProcessId).collect();
    // Manager pids are predictable from the spawn order (replicas, then
    // clients, then managers) — the replicas need them up front.
    let manager_pids: Vec<ProcessId> = (0..config.managers as u64)
        .map(|m| ProcessId((config.replicas + config.clients) as u64 + m))
        .collect();
    let mut replicas = Vec::new();
    let mut obs = Vec::new();
    let mut recovery_replica_config = None;
    for i in 0..config.replicas {
        let knobs = LowLevelKnobs::default()
            .style(config.style)
            .num_replicas(config.replicas)
            .checkpoint_interval(config.checkpoint_interval)
            .checkpoint_full_every(config.checkpoint_full_every)
            .batch_max_messages(config.batch_max_messages.max(1));
        let replica_obs = new_obs();
        obs.push(replica_obs.clone());
        let replica_config = ReplicaConfig {
            knobs,
            group_config: vd_group::config::GroupConfig::default()
                .failure_timeout(config.failure_timeout)
                .min_view(config.min_view.max(1)),
            obs: replica_obs,
            managers: manager_pids.clone(),
            ..ReplicaConfig::for_group(config.group)
        };
        if recovery_replica_config.is_none() {
            // Template for manager-spawned replacements: same knobs and
            // group tuning, no dedicated registry.
            recovery_replica_config = Some(ReplicaConfig {
                obs: new_obs(),
                ..replica_config.clone()
            });
        }
        let app = PaddedApp::new(config.state_bytes, config.response_bytes, 15);
        let mut actor = ReplicaActor::bootstrap(
            ProcessId(i as u64),
            members.clone(),
            Box::new(app),
            replica_config,
        );
        if let Some((demote, evict)) = config.slow_failure {
            actor = actor.with_policy(Box::new(SlowFailurePolicy::new(demote, evict)));
        }
        if let Some(det) = config.detector {
            actor = actor.with_detector_config(det);
        }
        let pid = world.spawn(NodeId(i as u32), Box::new(actor));
        debug_assert_eq!(pid, ProcessId(i as u64));
        replicas.push(pid);
    }
    let mut clients = Vec::new();
    for c in 0..config.clients {
        let driver = RequestDriver::new(DriverConfig {
            object: ObjectKey::new("bench"),
            operation: "cycle".into(),
            request_bytes: config.request_bytes,
            total: Some(config.requests_per_client),
            think: SimDuration::ZERO,
        });
        let client_config = ReplicatedClientConfig {
            replicas: replicas.clone(),
            initial_gateway: c % config.replicas,
            ..ReplicatedClientConfig::default()
        };
        let pid = world.spawn(
            NodeId((config.replicas + c) as u32),
            Box::new(ReplicatedClientActor::new(driver, client_config)),
        );
        clients.push(pid);
    }
    let spare_nodes: Vec<NodeId> = (0..config.spare_nodes)
        .map(|s| NodeId((config.replicas + config.clients + config.managers + s) as u32))
        .collect();
    let mut managers = Vec::new();
    let mut manager_obs = Vec::new();
    for m in 0..config.managers {
        let mgr_obs = new_obs();
        let recovery = RecoveryConfig {
            target_replicas: config.replicas,
            max_replicas: config.replicas + 2,
            spawn_nodes: spare_nodes.clone(),
            replica_config: recovery_replica_config
                .clone()
                .expect("managers require at least one replica"),
            probe_interval: SimDuration::from_millis(5),
            attempt_deadline: SimDuration::from_millis(250),
            backoff_base: SimDuration::from_millis(20),
            backoff_cap: SimDuration::from_millis(200),
            max_attempts: 8,
            peers: manager_pids.clone(),
            takeover_silence: SimDuration::from_millis(50),
            obs: mgr_obs.clone(),
        };
        let state_bytes = config.state_bytes;
        let response_bytes = config.response_bytes;
        let pid = world.spawn(
            NodeId((config.replicas + config.clients + m) as u32),
            Box::new(RecoveryManager::new(
                recovery,
                Box::new(move || Box::new(PaddedApp::new(state_bytes, response_bytes, 15))),
            )),
        );
        debug_assert_eq!(pid, manager_pids[m]);
        managers.push(pid);
        manager_obs.push(mgr_obs);
    }
    Testbed {
        world,
        replicas,
        clients,
        obs,
        managers,
        manager_obs,
        spare_nodes,
    }
}

/// The interposition modes of the paper's Fig. 4 overhead ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterceptMode {
    /// Plain client–server GIOP, no replicator anywhere.
    None,
    /// Only the client's system calls are intercepted (not modified).
    ClientOnly,
    /// Only the server's system calls are intercepted (not modified).
    ServerOnly,
    /// Both sides intercepted (not modified).
    Both,
}

/// Builds an unreplicated baseline: one client, one server, with the
/// requested interposition mode. Returns `(world, client, server)`.
pub fn build_baseline(
    mode: InterceptMode,
    requests: u64,
    seed: u64,
) -> (World, ProcessId, ProcessId) {
    let mut world = World::new(lan_topology(2), seed);
    let mut adapter = ObjectAdapter::new();
    adapter.register(
        ObjectKey::new("bench"),
        Box::new(EchoServant {
            response_bytes: 448,
        }),
    );
    let mut server = ServerActor::new(adapter, OrbCosts::paper_calibrated());
    if matches!(mode, InterceptMode::ServerOnly | InterceptMode::Both) {
        server = server.with_interceptor(Box::new(Passthrough::new()));
    }
    let server_pid = world.spawn(NodeId(1), Box::new(server));
    let driver = RequestDriver::new(DriverConfig {
        total: Some(requests),
        request_bytes: 256,
        ..DriverConfig::default()
    });
    let mut client = ClientActor::new(server_pid, driver, OrbCosts::paper_calibrated());
    if matches!(mode, InterceptMode::ClientOnly | InterceptMode::Both) {
        client = client.with_interceptor(Box::new(Passthrough::new()));
    }
    let client_pid = world.spawn(NodeId(0), Box::new(client));
    (world, client_pid, server_pid)
}

/// The unreplicated servant behind the baselines: echoes a padded response.
struct EchoServant {
    response_bytes: usize,
}

impl vd_orb::object::Servant for EchoServant {
    fn invoke(&mut self, _op: &str, _args: &bytes::Bytes) -> vd_orb::object::InvokeResult {
        Ok(bytes::Bytes::from(vec![0xCD; self.response_bytes]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_testbed_runs_to_completion() {
        // Active replicas all execute every request; in warm passive only
        // the primary (replica 0) does.
        for (style, executions) in [
            (ReplicationStyle::Active, [50, 50, 50]),
            (ReplicationStyle::WarmPassive, [50, 0, 0]),
        ] {
            let config = TestbedConfig {
                replicas: 3,
                clients: 1,
                requests_per_client: 50,
                style,
                ..TestbedConfig::default()
            };
            let mut bed = build_replicated(&config);
            bed.world.run_for(SimDuration::from_secs(2));
            assert_eq!(bed.total_completed(), 50, "{style:?}");
            assert_eq!(bed.merged_rtt().count(), 50, "{style:?}");
            assert!(bed.bandwidth_mbps() > 0.0);
            let executed: Vec<u64> = bed
                .obs
                .iter()
                .map(|o| o.metrics.counter(Ctr::RepExecuted))
                .collect();
            assert_eq!(executed, executions, "{style:?}");
            // Each heartbeat round sends one frame to each peer, and a
            // received frame counts once, whatever it carries: no replica
            // can receive more frames than its peers sent rounds.
            let counter =
                |c| -> Vec<u64> { bed.obs.iter().map(|o| o.metrics.counter(c)).collect() };
            let sent = counter(vd_obs::Ctr::GroupHeartbeatsSent);
            let recv = counter(vd_obs::Ctr::GroupHeartbeatsRecv);
            for (i, &got) in recv.iter().enumerate() {
                let peers_sent: u64 = sent
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &n)| n)
                    .sum();
                assert!(got > 0, "{style:?}: replica {i} received no heartbeats");
                assert!(
                    got <= peers_sent,
                    "{style:?}: replica {i} counted {got} heartbeats received, \
                     but its peers sent only {peers_sent} frames to it"
                );
            }
        }
    }

    /// perfbench's simulator workload takes its latency and late count
    /// from `merged_rtt()`: an empty histogram would read a p50 of 0.
    #[test]
    fn merged_rtt_holds_one_sample_per_completed_request() {
        for style in [ReplicationStyle::Active, ReplicationStyle::WarmPassive] {
            let config = TestbedConfig {
                replicas: 3,
                clients: 2,
                requests_per_client: 40,
                style,
                ..TestbedConfig::default()
            };
            let mut bed = build_replicated(&config);
            bed.world.run_for(SimDuration::from_secs(2));
            let mut rtt = bed.merged_rtt();
            assert_eq!(bed.total_completed(), 80, "{style:?}");
            assert_eq!(rtt.count() as u64, bed.total_completed(), "{style:?}");
            assert!(rtt.quantile(0.5) > SimDuration::ZERO, "{style:?}");
        }
    }

    #[test]
    fn bandwidth_is_zero_before_time_passes() {
        let bed = build_replicated(&TestbedConfig::default());
        assert_eq!(bed.world.now(), SimTime::ZERO);
        assert_eq!(bed.bandwidth_mbps(), 0.0);
    }

    #[test]
    fn baseline_modes_build_and_run() {
        for mode in [
            InterceptMode::None,
            InterceptMode::ClientOnly,
            InterceptMode::ServerOnly,
            InterceptMode::Both,
        ] {
            let (mut world, client, _server) = build_baseline(mode, 20, 7);
            world.run_for(SimDuration::from_secs(1));
            let c = world.actor_ref::<ClientActor>(client).unwrap();
            assert_eq!(c.driver().completed(), 20, "{mode:?}");
        }
    }

    #[test]
    fn interposition_modes_are_ordered_by_overhead() {
        let mean = |mode| {
            let (mut world, client, _s) = build_baseline(mode, 200, 3);
            world.run_for(SimDuration::from_secs(2));
            let c = world.actor_ref::<ClientActor>(client).unwrap();
            c.driver().rtt().mean_micros_f64()
        };
        let none = mean(InterceptMode::None);
        let client = mean(InterceptMode::ClientOnly);
        let both = mean(InterceptMode::Both);
        assert!(none < client, "{none} < {client}");
        assert!(client < both, "{client} < {both}");
    }
}
