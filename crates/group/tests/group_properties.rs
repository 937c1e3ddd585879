//! Property tests for the group-communication toolkit: vector-clock laws,
//! and protocol-level invariants (agreement, integrity, gap-freedom) over
//! randomized schedules, loss rates and crash times.
//!
//! Cases are generated from a [`DeterministicRng`] with fixed seeds so every
//! run explores the same schedules and failures reproduce exactly.

use std::collections::BTreeMap;

use bytes::Bytes;

use vd_group::flush::{compute_cut_for_test, merge_assignments_for_test};
use vd_group::message::{Assignment, FlushHoldings};
use vd_group::prelude::*;
use vd_group::vclock::VectorClock;
use vd_simnet::prelude::*;
use vd_simnet::rng::DeterministicRng;

fn clock(entries: &[(u64, u64)]) -> VectorClock {
    let mut c = VectorClock::new();
    for &(m, v) in entries {
        c.set(ProcessId(m % 8), v % 1000);
    }
    c
}

fn random_entries(rng: &mut DeterministicRng) -> Vec<(u64, u64)> {
    let len = rng.gen_range_u64(0..=7) as usize;
    (0..len).map(|_| (rng.next_u64(), rng.next_u64())).collect()
}

/// merge is commutative, associative and idempotent (a join semilattice),
/// and the result dominates both inputs.
#[test]
fn vclock_merge_is_a_join() {
    for case in 0..256u64 {
        let mut rng = DeterministicRng::new(0x6C0C_0000 + case);
        let a = clock(&random_entries(&mut rng));
        let b = clock(&random_entries(&mut rng));
        let c = clock(&random_entries(&mut rng));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "case {case}: commutative");
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "case {case}: associative");
        let mut aa = a.clone();
        aa.merge(&a);
        assert_eq!(aa, a, "case {case}: idempotent");
        assert!(
            ab.dominates(&a) && ab.dominates(&b),
            "case {case}: join dominates"
        );
    }
}

/// dominates is a partial order: reflexive, antisymmetric, transitive.
#[test]
fn vclock_domination_is_a_partial_order() {
    for case in 0..256u64 {
        let mut rng = DeterministicRng::new(0x6C0C_1000 + case);
        let a = clock(&random_entries(&mut rng));
        let b = clock(&random_entries(&mut rng));
        assert!(a.dominates(&a), "case {case}");
        if a.dominates(&b) && b.dominates(&a) {
            assert_eq!(a, b, "case {case}");
        }
        let mut ab = a.clone();
        ab.merge(&b);
        // ab ≥ a and a ≥ ... transitivity via the join.
        assert!(ab.dominates(&a), "case {case}");
    }
}

/// Runs a 3-member group under the given loss probability; `crash_at_ms`
/// optionally kills one member mid-run. Each member hosts its endpoint in
/// a one-group [`MultiEndpoint`]. Returns each survivor's agreed-order
/// transcript.
fn run_group(
    seed: u64,
    loss: f64,
    crash_at_ms: Option<u64>,
    messages: u32,
) -> Vec<Vec<(ProcessId, Vec<u8>)>> {
    let mut topo = Topology::full_mesh(3);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(30),
    )));
    let mut world = World::new(topo, seed);
    let members: Vec<ProcessId> = (0..3u64).map(ProcessId).collect();
    let config = GroupConfig::default();
    for i in 0..3u32 {
        let me = ProcessId(i as u64);
        let mut multi = MultiEndpoint::new(me, config.heartbeat_interval, config.failure_timeout);
        multi.add_endpoint(Endpoint::bootstrap(me, GroupId(0), config, members.clone()));
        world.spawn(NodeId(i), Box::new(MultiGroupMemberActor::new(multi)));
    }
    world.run_for(SimDuration::from_millis(5));
    world.set_drop_probability(loss);
    if let Some(ms) = crash_at_ms {
        world.crash_process_at(ProcessId(2), SimTime::from_millis(5 + ms));
    }
    for i in 0..messages {
        let sender = ProcessId((i % 3) as u64);
        world.inject(
            sender,
            MultiCommand::Multicast {
                group: GroupId(0),
                order: DeliveryOrder::Agreed,
                payload: Bytes::copy_from_slice(&i.to_be_bytes()),
            },
        );
        world.run_for(SimDuration::from_micros(400));
    }
    world.set_drop_probability(0.0);
    world.run_for(SimDuration::from_secs(2));
    let mut transcripts = Vec::new();
    for i in 0..3u64 {
        let pid = ProcessId(i);
        if !world.is_alive(pid) {
            continue;
        }
        let actor = world.actor_ref::<MultiGroupMemberActor>(pid).unwrap();
        transcripts.push(
            actor
                .deliveries
                .iter()
                .filter(|d| d.order == DeliveryOrder::Agreed)
                .map(|d| (d.sender, d.payload.to_vec()))
                .collect(),
        );
    }
    transcripts
}

/// Agreement: under arbitrary loss rates, all members deliver the same
/// agreed-order transcript, with nothing lost or duplicated.
#[test]
fn agreed_order_agreement_under_loss() {
    for case in 0..12u64 {
        let mut rng = DeterministicRng::new(0x6C0C_2000 + case);
        let seed = rng.next_u64();
        let loss = rng.gen_f64() * 0.3;
        let transcripts = run_group(seed, loss, None, 24);
        assert_eq!(transcripts.len(), 3, "case {case}");
        for t in &transcripts[1..] {
            assert_eq!(t, &transcripts[0], "case {case}: members disagree");
        }
        // Integrity + no loss: exactly the 24 injected messages, once each.
        assert_eq!(transcripts[0].len(), 24, "case {case}");
        let mut seen: Vec<&Vec<u8>> = transcripts[0].iter().map(|(_, p)| p).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 24, "case {case}: duplicate or missing payloads");
    }
}

/// Agreement survives a member crash at an arbitrary time: survivors
/// deliver identical transcripts (messages from the dead member may be
/// truncated, but identically everywhere).
#[test]
fn agreed_order_agreement_across_crash() {
    for case in 0..12u64 {
        let mut rng = DeterministicRng::new(0x6C0C_3000 + case);
        let seed = rng.next_u64();
        let crash_ms = rng.gen_range_u64(0..=11);
        let transcripts = run_group(seed, 0.02, Some(crash_ms), 24);
        assert_eq!(transcripts.len(), 2, "case {case}: two survivors");
        assert_eq!(
            transcripts[0], transcripts[1],
            "case {case}: survivors disagree"
        );
        // Survivors' own messages are never lost.
        for sender in [ProcessId(0), ProcessId(1)] {
            let from_sender = transcripts[0].iter().filter(|(s, _)| *s == sender).count();
            assert_eq!(from_sender, 8, "case {case}: lost messages from {sender}");
        }
    }
}

/// FIFO per sender holds within the agreed order: each sender's payloads
/// appear in the order it sent them.
#[test]
fn agreed_order_respects_per_sender_fifo() {
    for case in 0..12u64 {
        let mut rng = DeterministicRng::new(0x6C0C_4000 + case);
        let seed = rng.next_u64();
        let transcripts = run_group(seed, 0.1, None, 24);
        for sender in (0..3u64).map(ProcessId) {
            let payloads: Vec<u32> = transcripts[0]
                .iter()
                .filter(|(s, _)| *s == sender)
                .map(|(_, p)| u32::from_be_bytes([p[0], p[1], p[2], p[3]]))
                .collect();
            let mut sorted = payloads.clone();
            sorted.sort_unstable();
            assert_eq!(
                payloads, sorted,
                "case {case}: sender {sender} out of order"
            );
        }
    }
}

fn random_holdings(rng: &mut DeterministicRng) -> FlushHoldings {
    let contig_len = rng.gen_range_u64(0..=3) as usize;
    let extras_len = rng.gen_range_u64(0..=2) as usize;
    FlushHoldings {
        contiguous: (0..contig_len)
            .map(|_| {
                (
                    ProcessId(rng.gen_range_u64(0..=3)),
                    rng.gen_range_u64(0..=29),
                )
            })
            .collect(),
        extras: (0..extras_len)
            .map(|_| {
                let sender = ProcessId(rng.gen_range_u64(0..=3));
                let count = rng.gen_range_u64(0..=5) as usize;
                let seqs: Vec<u64> = (0..count).map(|_| rng.gen_range_u64(1..=39)).collect();
                (sender, seqs)
            })
            .collect(),
        assignments: Vec::new(),
    }
}

/// The flush cut is sound: for every sender it never exceeds the union of
/// held sequence numbers, is itself fully covered by that union (every
/// seq ≤ cut is held by someone), and never regresses below any member's
/// contiguous prefix.
#[test]
fn flush_cut_is_the_max_covered_prefix() {
    for case in 0..256u64 {
        let mut rng = DeterministicRng::new(0x6C0C_5000 + case);
        let count = rng.gen_range_u64(1..=4) as usize;
        let infos: BTreeMap<ProcessId, FlushHoldings> = (0..count)
            .map(|i| (ProcessId(100 + i as u64), random_holdings(&mut rng)))
            .collect();
        let cut = compute_cut_for_test(&infos);
        // Build the union of held seqs per sender.
        let mut held: BTreeMap<ProcessId, std::collections::BTreeSet<u64>> = BTreeMap::new();
        for h in infos.values() {
            for &(s, c) in &h.contiguous {
                held.entry(s).or_default().extend(1..=c);
            }
            for (s, v) in &h.extras {
                held.entry(*s).or_default().extend(v.iter().copied());
            }
        }
        for (&sender, &limit) in &cut {
            let set = held.get(&sender).cloned().unwrap_or_default();
            // Everything up to the cut is recoverable from someone.
            for seq in 1..=limit {
                assert!(
                    set.contains(&seq),
                    "case {case}: {sender} seq {seq} ≤ cut {limit} unheld"
                );
            }
            // And the cut is maximal: the next seq is held by nobody.
            assert!(
                !set.contains(&(limit + 1)),
                "case {case}: {sender} cut {limit} not maximal"
            );
        }
        // No member's contiguous prefix exceeds the cut.
        for h in infos.values() {
            for &(s, c) in &h.contiguous {
                assert!(cut.get(&s).copied().unwrap_or(0) >= c, "case {case}");
            }
        }
    }
}

/// Merging assignment reports is idempotent and order-independent
/// (single-sequencer assignments can never conflict).
#[test]
fn assignment_merge_is_order_independent() {
    for case in 0..256u64 {
        let mut rng = DeterministicRng::new(0x6C0C_6000 + case);
        let count = rng.gen_range_u64(0..=19) as usize;
        // Deduplicate globals (a sequencer assigns each global once).
        let mut seen = std::collections::BTreeSet::new();
        let assignments: Vec<Assignment> = (0..count)
            .map(|_| {
                (
                    rng.gen_range_u64(1..=49),
                    rng.gen_range_u64(0..=3),
                    rng.gen_range_u64(1..=29),
                )
            })
            .filter(|(g, _, _)| seen.insert(*g))
            .map(|(global_seq, sender, seq)| Assignment {
                global_seq,
                sender: ProcessId(sender),
                seq,
            })
            .collect();
        // Split across two reports in both orders.
        let mid = assignments.len() / 2;
        let report = |a: &[Assignment], b: &[Assignment]| {
            let mut infos = BTreeMap::new();
            infos.insert(
                ProcessId(1),
                FlushHoldings {
                    contiguous: vec![],
                    extras: vec![],
                    assignments: a.to_vec(),
                },
            );
            infos.insert(
                ProcessId(2),
                FlushHoldings {
                    contiguous: vec![],
                    extras: vec![],
                    assignments: b.to_vec(),
                },
            );
            merge_assignments_for_test(&infos)
        };
        let forward = report(&assignments[..mid], &assignments[mid..]);
        let backward = report(&assignments[mid..], &assignments[..mid]);
        assert_eq!(forward, backward, "case {case}");
        assert_eq!(forward.len(), assignments.len(), "case {case}");
    }
}
