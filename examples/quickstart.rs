//! Quickstart: replicate a counter service actively, crash a replica
//! mid-stream, and watch the service continue without the client noticing.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use versatile_dependability::bench::testbed::gc_topology;
use versatile_dependability::core::client::{ReplicatedClientActor, ReplicatedClientConfig};
use versatile_dependability::orb::sim::{DriverConfig, RequestDriver};
use versatile_dependability::prelude::*;

/// The replicated application: a counter whose replies expose its state.
struct Counter(u64);

impl ReplicatedApplication for Counter {
    fn invoke(&mut self, operation: &str, _args: &Bytes) -> InvokeResult {
        if operation == "increment" {
            self.0 += 1;
        }
        Ok(Bytes::copy_from_slice(&self.0.to_le_bytes()))
    }
    fn capture_state(&self) -> Bytes {
        Bytes::copy_from_slice(&self.0.to_le_bytes())
    }
    fn restore_state(&mut self, state: &Bytes) {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&state[..8]);
        self.0 = u64::from_le_bytes(raw);
    }
}

fn main() {
    println!("versatile dependability — quickstart");
    println!("------------------------------------");

    // A simulated LAN of four machines: three replicas + one client.
    let mut world = World::new(gc_topology(4), 42);

    // Three active replicas of the counter.
    let members: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    let mut replicas = Vec::new();
    for i in 0..3u32 {
        let config = ReplicaConfig {
            knobs: LowLevelKnobs::default()
                .style(ReplicationStyle::Active)
                .num_replicas(3),
            ..ReplicaConfig::for_group(GroupId(1))
        };
        let pid = world.spawn(
            NodeId(i),
            Box::new(ReplicaActor::bootstrap(
                ProcessId(i as u64),
                members.clone(),
                Box::new(Counter(0)),
                config,
            )),
        );
        replicas.push(pid);
    }
    println!("spawned 3 active replicas: {replicas:?}");

    // One closed-loop client issuing 500 increments.
    let driver = RequestDriver::new(DriverConfig {
        operation: "increment".into(),
        total: Some(500),
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

    // Let a third of the cycle run, then kill a replica mid-stream.
    world.run_for(SimDuration::from_millis(250));
    let before = world
        .actor_ref::<ReplicatedClientActor>(client)
        .unwrap()
        .driver()
        .completed();
    println!(
        "t={} — {before} requests served; crashing {}",
        world.now(),
        replicas[2]
    );
    world.crash_process_at(replicas[2], world.now());

    // Run to completion.
    world.run_for(SimDuration::from_secs(10));
    let c = world.actor_ref::<ReplicatedClientActor>(client).unwrap();
    println!(
        "t={} — cycle finished: {} / 500 served, {} retries needed",
        world.now(),
        c.driver().completed(),
        c.retries
    );

    // The survivors agree on the final state.
    for &r in &replicas[..2] {
        let replica = world.actor_ref::<ReplicaActor>(r).unwrap();
        let state = replica.app().capture_state();
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&state[..8]);
        println!(
            "replica {r}: counter = {}, view = {}",
            u64::from_le_bytes(raw),
            replica.endpoint().view()
        );
    }
    let h = world
        .actor_ref::<ReplicatedClientActor>(client)
        .unwrap()
        .driver()
        .rtt();
    println!(
        "client round trips: n={} mean={:.0}µs σ={:.0}µs",
        h.count(),
        h.mean_micros_f64(),
        h.std_dev_micros()
    );
    println!("the crash was invisible to the application — that's transparency.");
}
