//! Multi-group sharding gate: aggregate throughput must scale with the
//! number of object groups (`BENCH_PR5.json`).
//!
//! The scalability placement policy's whole premise is that splitting the
//! object space across groups with primaries on *different* machines
//! turns the single-primary execution bottleneck into parallel capacity.
//! This experiment measures exactly that: a fixed 6-machine server pool
//! and a fixed 20-client, CPU-bound workload, sharded over 1, 2 and 4
//! object groups. Group *k*'s primary runs alone on machine *k*; two
//! shared machines host every group's warm-passive backups (checkpoint
//! application is cheap, so co-hosting backups is how the placement
//! balancer packs them too).
//!
//! With one group, every request funnels through one primary CPU. With
//! four, the same offered load spreads over four primary CPUs — the gate
//! requires ≥ 1.8× aggregate throughput at 4 groups vs 1 (the paper-style
//! target; in practice the run lands well above it).
//!
//! After the measured phase, the run injects **two concurrent Fig. 5
//! style switches in different groups** with fresh traffic flowing and
//! (under `--features check-invariants`) re-checks the per-group switch
//! invariants after every scheduler slice — per-group single primary,
//! exactly-once execution and reply convergence must hold throughout,
//! both mid-storm of ordinary load and mid-concurrent-switch.

use std::sync::Arc;

use vd_core::client::{ReplicatedClientActor, ReplicatedClientConfig};
use vd_core::knobs::LowLevelKnobs;
use vd_core::replica::{GroupMembership, HostedGroup, ReplicaActor, ReplicaCommand, ReplicaConfig};
use vd_core::style::ReplicationStyle;
use vd_group::message::GroupId;
use vd_obs::{Obs, TraceSink};
use vd_orb::directory::RoutingDirectory;
use vd_orb::object::ObjectKey;
use vd_orb::sim::{DriverConfig, RequestDriver};
use vd_simnet::prelude::*;

use crate::testbed::gc_topology;
use crate::workload::PaddedApp;

/// Primary machines (group `k`'s primary lives alone on machine `k`).
const PRIMARY_NODES: usize = 4;
/// Shared backup machines hosting every group's passive backups.
const BACKUP_NODES: usize = 2;
/// Closed-loop clients, split evenly across the groups of a scale.
const CLIENTS: usize = 20;
/// Per-request application CPU cost (µs) — high enough that the primary
/// CPU, not the LAN, is the bottleneck the sharding has to break.
const PROCESSING_MICROS: u64 = 200;

/// Measured outcome of one shard scale (1, 2 or 4 groups).
#[derive(Debug, Clone)]
pub struct ShardScale {
    /// Number of object groups the workload was sharded over.
    pub groups: usize,
    /// Requests completed across all clients (phase 1).
    pub completed: u64,
    /// Wall-clock (simulated) seconds from start to the last reply.
    pub elapsed_secs: f64,
    /// Aggregate throughput: `completed / elapsed_secs`.
    pub aggregate_rps: f64,
    /// Per-group p99 client round trip, µs (index = group position).
    pub per_group_p99_us: Vec<f64>,
    /// Per-group switch invariants held through load *and* the
    /// concurrent-switch phase (vacuously true without
    /// `check-invariants`).
    pub invariants_ok: bool,
    /// Both post-phase style switches completed (style returned to warm
    /// passive everywhere).
    pub switches_ok: bool,
}

/// The sharding gate result.
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// One row per scale, ascending group count.
    pub scales: Vec<ShardScale>,
    /// Total requests issued per scale (identical across scales).
    pub requests_total: u64,
    /// Whether the invariant layer was compiled in.
    pub invariants_checked: bool,
}

impl ShardResult {
    fn scale(&self, groups: usize) -> Option<&ShardScale> {
        self.scales.iter().find(|s| s.groups == groups)
    }

    /// Aggregate-throughput speedup of 4 groups over 1.
    pub fn speedup(&self) -> f64 {
        match (self.scale(1), self.scale(4)) {
            (Some(one), Some(four)) if one.aggregate_rps > 0.0 => {
                four.aggregate_rps / one.aggregate_rps
            }
            _ => 0.0,
        }
    }

    /// Names of failing acceptance gates (empty = pass).
    pub fn failing_gates(&self) -> Vec<String> {
        let mut failing = Vec::new();
        if self.speedup() < 1.8 {
            failing.push(format!("shard-speedup ({:.2}x < 1.8x)", self.speedup()));
        }
        for s in &self.scales {
            if s.completed < self.requests_total {
                failing.push(format!(
                    "shard-complete (groups={}: {}/{})",
                    s.groups, s.completed, self.requests_total
                ));
            }
            if !s.invariants_ok {
                failing.push(format!("shard-invariants (groups={})", s.groups));
            }
            if !s.switches_ok {
                failing.push(format!("shard-switch (groups={})", s.groups));
            }
        }
        failing
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "## Shard — aggregate throughput vs object-group count\n\
             groups | completed | elapsed (s) | aggregate (req/s) | worst p99 (µs) | invariants\n",
        );
        for s in &self.scales {
            let worst_p99 = s.per_group_p99_us.iter().cloned().fold(0.0f64, f64::max);
            out.push_str(&format!(
                "{:>6} | {:>9} | {:>11.3} | {:>17.0} | {:>14.0} | {}\n",
                s.groups,
                s.completed,
                s.elapsed_secs,
                s.aggregate_rps,
                worst_p99,
                if s.invariants_ok && s.switches_ok {
                    "ok"
                } else {
                    "VIOLATED"
                }
            ));
        }
        out.push_str(&format!(
            "speedup 4 groups vs 1: {:.2}x (gate ≥ 1.80x) — {}\n",
            self.speedup(),
            if self.failing_gates().is_empty() {
                "PASS"
            } else {
                "FAIL"
            }
        ));
        out
    }

    /// Machine-readable gate summary (`BENCH_PR5.json`).
    pub fn to_json(&self) -> String {
        let mut scales = String::new();
        for s in &self.scales {
            if !scales.is_empty() {
                scales.push(',');
            }
            let p99s = s
                .per_group_p99_us
                .iter()
                .map(|v| format!("{v:.1}"))
                .collect::<Vec<_>>()
                .join(",");
            scales.push_str(&format!(
                "{{\"groups\":{},\"completed\":{},\"elapsed_secs\":{:.6},\
                 \"aggregate_rps\":{:.1},\"per_group_p99_us\":[{}],\
                 \"invariants_ok\":{},\"switches_ok\":{}}}",
                s.groups,
                s.completed,
                s.elapsed_secs,
                s.aggregate_rps,
                p99s,
                s.invariants_ok,
                s.switches_ok
            ));
        }
        let gates = self
            .failing_gates()
            .iter()
            .map(|g| format!("\"{}\"", g.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"experiment\":\"shard\",\"requests_total\":{},\
             \"invariants_checked\":{},\"scales\":[{}],\
             \"speedup_4_vs_1\":{:.3},\"speedup_gate\":1.8,\
             \"failing_gates\":[{}],\"pass\":{}}}\n",
            self.requests_total,
            self.invariants_checked,
            scales,
            self.speedup(),
            gates,
            self.failing_gates().is_empty()
        )
    }
}

/// The hosting layout of one scale: group `k` (of `groups`) is replicated
/// on primary machine `k` plus the two shared backup machines.
fn group_nodes(k: usize) -> [usize; 3] {
    [k, PRIMARY_NODES, PRIMARY_NODES + 1]
}

#[cfg(feature = "check-invariants")]
fn check_invariants(world: &World, groups: &[(GroupId, Vec<ProcessId>)]) -> bool {
    for (group, members) in groups {
        if let Err(msg) =
            vd_core::invariants::SwitchInvariants::for_group(*group, members.clone()).check(world)
        {
            eprintln!("shard invariant violation: {msg}");
            return false;
        }
    }
    true
}

#[cfg(not(feature = "check-invariants"))]
fn check_invariants(_world: &World, _groups: &[(GroupId, Vec<ProcessId>)]) -> bool {
    true
}

/// One scale of the sweep: the same 6-machine pool and the same total
/// workload, sharded over `groups` object groups.
fn run_scale(groups: usize, requests_total: u64, seed: u64) -> ShardScale {
    assert!((1..=PRIMARY_NODES).contains(&groups));
    let server_nodes = PRIMARY_NODES + BACKUP_NODES;
    let total_nodes = (server_nodes + CLIENTS + 2) as u32; // +2 switch-phase clients
    let mut world = World::new(gc_topology(total_nodes), seed);

    // Machines hosting at least one group, ascending: primaries 0..groups
    // plus the two shared backup machines. Process ids follow spawn
    // order, so the pid of machine `n` is its rank in this list.
    let hosting: Vec<usize> = (0..groups)
        .chain([PRIMARY_NODES, PRIMARY_NODES + 1])
        .collect();
    let pid_of = |node: usize| -> ProcessId {
        ProcessId(hosting.iter().position(|&n| n == node).expect("hosting") as u64)
    };
    let memberships: Vec<(GroupId, Vec<ProcessId>)> = (0..groups)
        .map(|k| {
            let members: Vec<ProcessId> = group_nodes(k).iter().map(|&n| pid_of(n)).collect();
            (GroupId(k as u32 + 1), members)
        })
        .collect();

    // One labeled observability stream for the whole run: each hosted
    // group's events carry its group id.
    let sink = Arc::new(TraceSink::with_capacity(4096));
    for &node in &hosting {
        let hosted: Vec<HostedGroup> = memberships
            .iter()
            .filter(|(k, _)| group_nodes(k.0 as usize - 1).contains(&node))
            .map(|(group, members)| HostedGroup {
                membership: GroupMembership::Bootstrap(members.clone()),
                app: Box::new(PaddedApp::new(4 * 1024, 448, PROCESSING_MICROS)),
                config: ReplicaConfig {
                    knobs: LowLevelKnobs::default()
                        .style(ReplicationStyle::WarmPassive)
                        .num_replicas(3),
                    obs: Obs::for_group(group.0, Arc::clone(&sink)),
                    ..ReplicaConfig::for_group(*group)
                },
            })
            .collect();
        let mut actor = ReplicaActor::host(pid_of(node), hosted, None);
        for (group, _) in &memberships {
            actor = actor.with_route(object_of(*group), *group);
        }
        let pid = world.spawn(NodeId(node as u32), Box::new(actor));
        debug_assert_eq!(pid, pid_of(node));
    }

    // 20 closed-loop clients, round-robined over the groups; the object
    // key → group directory does the routing.
    let per_client = requests_total / CLIENTS as u64;
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let (group, members) = &memberships[c % groups];
        let pid = spawn_client(
            &mut world,
            NodeId((server_nodes + c) as u32),
            *group,
            members,
            per_client,
            (c / groups) % 3,
        );
        clients.push((pid, *group));
    }

    // Phase 1 — the measured run: everything completes, invariants
    // checked each slice.
    let expected: u64 = per_client * CLIENTS as u64;
    let mut invariants_ok = true;
    let deadline = SimTime::ZERO + SimDuration::from_secs(120);
    while completed(&world, &clients) < expected && world.now() < deadline {
        world.run_for(SimDuration::from_millis(5));
        invariants_ok &= check_invariants(&world, &memberships);
    }
    let completed_phase1 = completed(&world, &clients);
    let elapsed_secs = world.now().as_secs_f64();

    // Per-group p99 over the measured phase.
    let per_group_p99_us = (0..groups)
        .map(|g| {
            let mut merged = Histogram::new();
            for (pid, _) in clients.iter().skip(g).step_by(groups) {
                if let Some(client) = world.actor_ref::<ReplicatedClientActor>(*pid) {
                    merged.merge(client.driver().rtt());
                }
            }
            merged.quantile(0.99).as_micros() as f64
        })
        .collect();

    // Phase 2 — two concurrent Fig. 5 switches in different groups (the
    // first group out-and-back when only one is hosted), with fresh
    // traffic in flight and invariants still checked per slice.
    let switch_targets: Vec<(GroupId, Vec<ProcessId>)> =
        memberships.iter().take(2.min(groups)).cloned().collect();
    let mut phase2 = Vec::new();
    for (i, (group, members)) in switch_targets.iter().enumerate() {
        let pid = spawn_client(
            &mut world,
            NodeId((server_nodes + CLIENTS + i) as u32),
            *group,
            members,
            60,
            0,
        );
        phase2.push((pid, *group));
        world.inject(
            members[0],
            ReplicaCommand::Switch {
                group: *group,
                style: ReplicationStyle::Active,
            },
        );
    }
    let mut switched_back = false;
    let phase2_deadline = world.now() + SimDuration::from_secs(30);
    while world.now() < phase2_deadline {
        world.run_for(SimDuration::from_millis(1));
        invariants_ok &= check_invariants(&world, &memberships);
        if !switched_back && styles_are(&world, &switch_targets, ReplicationStyle::Active) {
            // Both switches landed — immediately switch back, still
            // concurrently and still under load.
            for (group, members) in &switch_targets {
                world.inject(
                    members[1],
                    ReplicaCommand::Switch {
                        group: *group,
                        style: ReplicationStyle::WarmPassive,
                    },
                );
            }
            switched_back = true;
        }
        if switched_back
            && styles_are(&world, &switch_targets, ReplicationStyle::WarmPassive)
            && completed(&world, &phase2) == 60 * phase2.len() as u64
        {
            break;
        }
    }
    let switches_ok =
        switched_back && styles_are(&world, &switch_targets, ReplicationStyle::WarmPassive);

    ShardScale {
        groups,
        completed: completed_phase1,
        elapsed_secs,
        aggregate_rps: if elapsed_secs > 0.0 {
            completed_phase1 as f64 / elapsed_secs
        } else {
            0.0
        },
        per_group_p99_us,
        invariants_ok,
        switches_ok,
    }
}

fn object_of(group: GroupId) -> ObjectKey {
    ObjectKey::new(format!("bench-g{}", group.0))
}

fn spawn_client(
    world: &mut World,
    node: NodeId,
    group: GroupId,
    members: &[ProcessId],
    total: u64,
    initial_gateway: usize,
) -> ProcessId {
    let driver = RequestDriver::new(DriverConfig {
        object: object_of(group),
        operation: "cycle".into(),
        request_bytes: 256,
        total: Some(total),
        think: SimDuration::ZERO,
    });
    let directory = RoutingDirectory::new()
        .with_object(object_of(group), group)
        .with_group(group, members.to_vec());
    let config = ReplicatedClientConfig {
        directory,
        initial_gateway,
        ..ReplicatedClientConfig::default()
    };
    world.spawn(node, Box::new(ReplicatedClientActor::new(driver, config)))
}

fn completed(world: &World, clients: &[(ProcessId, GroupId)]) -> u64 {
    clients
        .iter()
        .filter_map(|&(pid, _)| world.actor_ref::<ReplicatedClientActor>(pid))
        .map(|c| c.driver().completed())
        .sum()
}

/// True when every listed group settled on `style` at every member.
fn styles_are(
    world: &World,
    groups: &[(GroupId, Vec<ProcessId>)],
    style: ReplicationStyle,
) -> bool {
    groups.iter().all(|(group, members)| {
        members.iter().all(|&pid| {
            world
                .actor_ref::<ReplicaActor>(pid)
                .and_then(|a| a.engine_of(*group))
                .is_some_and(|e| e.style() == style)
        })
    })
}

/// The full sweep: the same workload over 1, 2 and 4 groups.
pub fn run(requests: u64, seed: u64) -> ShardResult {
    // Total work per scale; CPU-bound at ~200 µs/request, so the default
    // 2 000 keeps the slowest (single-group) scale under a second of
    // simulated time.
    let requests_total = requests.clamp(400, 10_000) / CLIENTS as u64 * CLIENTS as u64;
    let scales = [1usize, 2, 4]
        .iter()
        .map(|&g| run_scale(g, requests_total, seed))
        .collect();
    ShardResult {
        scales,
        requests_total,
        invariants_checked: cfg!(feature = "check-invariants"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_scales_aggregate_throughput() {
        let result = run(600, 5);
        assert!(
            result.failing_gates().is_empty(),
            "{:?}",
            result.failing_gates()
        );
        assert!(result.speedup() >= 1.8, "speedup {:.2}", result.speedup());
        for s in &result.scales {
            assert_eq!(s.completed, result.requests_total, "groups={}", s.groups);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let result = run(400, 9);
        let json = result.to_json();
        assert!(json.contains("\"experiment\":\"shard\""));
        assert!(json.contains("\"speedup_gate\":1.8"));
        assert_eq!(json.matches("\"groups\":").count(), 3);
    }
}
