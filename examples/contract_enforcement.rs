//! Contract enforcement (the paper's §3.1): the application states its
//! requirements as a behavioral contract; the framework monitors the
//! running system, and when the contract can no longer be honored it turns
//! the cheapest knob available — or notifies the operators with degraded
//! alternatives when no knob is left.
//!
//! ```text
//! cargo run --example contract_enforcement
//! ```

use versatile_dependability::bench::testbed::gc_topology;
use versatile_dependability::bench::workload::PaddedApp;
use versatile_dependability::core::client::{ReplicatedClientActor, ReplicatedClientConfig};
use versatile_dependability::orb::sim::{DriverConfig, RequestDriver};
use versatile_dependability::prelude::*;

fn main() {
    println!("versatile dependability — behavioral contracts (§3.1)");
    println!("-------------------------------------------------------");

    // The contract: server-side response time (gateway arrival → reply
    // departure, as the replicator's monitor measures it) at most 3 ms.
    let contract = Contract::unconstrained().max_latency_micros(3_000.0);
    println!("contract: mean server-side response time ≤ 3000 µs\n");

    let mut world = World::new(gc_topology(8), 7);
    let members: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    let mut replicas = Vec::new();
    for i in 0..3u32 {
        let config = ReplicaConfig {
            // Start in the frugal configuration…
            knobs: LowLevelKnobs::default().style(ReplicationStyle::WarmPassive),
            ..ReplicaConfig::for_group(GroupId(1))
        };
        let actor = ReplicaActor::bootstrap(
            ProcessId(i as u64),
            members.clone(),
            Box::new(PaddedApp::new(4096, 448, 15)),
            config,
        )
        // …with the contract policy watching (2 violated samples → act).
        .with_policy(Box::new(ContractPolicy::new(contract, 2)));
        replicas.push(world.spawn(NodeId(i), Box::new(actor)));
    }

    // Five saturating clients: warm passive cannot hold 3 ms under this.
    let mut clients = Vec::new();
    for c in 0..5u32 {
        let driver = RequestDriver::new(DriverConfig {
            total: None,
            ..DriverConfig::default()
        });
        clients.push(world.spawn(
            NodeId(3 + c),
            Box::new(ReplicatedClientActor::new(
                driver,
                ReplicatedClientConfig {
                    replicas: replicas.clone(),
                    initial_gateway: c as usize,
                    ..ReplicatedClientConfig::default()
                },
            )),
        ));
    }

    world.run_for(SimDuration::from_secs(3));

    let r0 = world.actor_ref::<ReplicaActor>(replicas[0]).unwrap();
    println!("style history at replica 0:");
    for (t, style) in r0.style_history() {
        println!("  {:>7.2}s  → {style}", t.as_secs_f64());
    }
    println!(
        "\ncurrent style: {} (the latency violation was remedied by switching\nto active replication — the paper's §4.2 knob, pulled by the contract)",
        r0.engine().style()
    );
    let mut merged = versatile_dependability::simnet::metrics::Histogram::new();
    for &c in &clients {
        let client = world.actor_ref::<ReplicatedClientActor>(c).unwrap();
        merged.merge(client.driver().rtt());
    }
    let total = merged.count();
    println!(
        "\nworkload: {total} requests served, mean RTT {:.0} µs",
        merged.mean_micros_f64()
    );
    for (t, directive) in r0.directives() {
        println!(
            "operator notification at {:.2}s: {directive:?}",
            t.as_secs_f64()
        );
    }
    if r0.directives().is_empty() {
        println!("no operator escalation was needed — the knobs sufficed.");
    }

    // Demonstrate the escalation path too: an impossible contract.
    println!("\n--- an impossible contract (≤ 100 µs) escalates ---");
    let impossible = Contract::unconstrained().max_latency_micros(100.0);
    let mut policy = ContractPolicy::new(impossible, 1);
    let obs = Observations {
        latency_micros: merged.mean_micros_f64(),
        replicas: 3,
        ..Observations::default()
    };
    let ctx = PolicyContext::healthy(ReplicationStyle::Active, 3);
    match policy.evaluate(&obs, &ctx) {
        Some(AdaptationAction::NotifyOperators(msg)) => {
            println!("operators notified: {msg}");
            println!(
                "degraded alternatives offered: {:?}",
                impossible
                    .degraded_alternatives(1.5)
                    .iter()
                    .map(|c| c.max_latency_micros)
                    .collect::<Vec<_>>()
            );
        }
        other => println!("unexpected: {other:?}"),
    }
}
