//! Mission modes (the paper's §5 motivation): a long-running spacecraft
//! application that cannot be stopped alternates between a
//! resource-conservative cruise mode (warm passive) and a high-performance
//! mission mode (active) inside a narrow window of opportunity — switching
//! styles at run time with the Fig. 5 protocol.
//!
//! ```text
//! cargo run --example mission_modes
//! ```

use bytes::Bytes;
use versatile_dependability::bench::testbed::gc_topology;
use versatile_dependability::core::client::{ReplicatedClientActor, ReplicatedClientConfig};
use versatile_dependability::core::replica::ReplicaCommand;
use versatile_dependability::orb::sim::{DriverConfig, RequestDriver};
use versatile_dependability::prelude::*;
use versatile_dependability::simnet::metrics::Histogram;

/// The flight software: accumulates telemetry frames as its process state.
struct Telemetry {
    frames: u64,
}

impl ReplicatedApplication for Telemetry {
    fn invoke(&mut self, operation: &str, _args: &Bytes) -> InvokeResult {
        if operation == "record" {
            self.frames += 1;
        }
        Ok(Bytes::copy_from_slice(&self.frames.to_le_bytes()))
    }
    fn capture_state(&self) -> Bytes {
        Bytes::copy_from_slice(&self.frames.to_le_bytes())
    }
    fn restore_state(&mut self, state: &Bytes) {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&state[..8]);
        self.frames = u64::from_le_bytes(raw);
    }
    fn processing_micros(&self, _operation: &str) -> u64 {
        15
    }
}

/// The ground station's round trips so far.
fn ground_rtt(world: &World, ground: ProcessId) -> &Histogram {
    world
        .actor_ref::<ReplicatedClientActor>(ground)
        .expect("the ground station")
        .driver()
        .rtt()
}

fn main() {
    println!("versatile dependability — mission modes (§5)");
    println!("---------------------------------------------");

    let mut world = World::new(gc_topology(4), 2026);
    let members: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    let mut replicas = Vec::new();
    for i in 0..3u32 {
        let config = ReplicaConfig {
            // Cruise mode: warm passive — backups idle, resources conserved.
            knobs: LowLevelKnobs::default().style(ReplicationStyle::WarmPassive),
            ..ReplicaConfig::for_group(GroupId(1))
        };
        replicas.push(world.spawn(
            NodeId(i),
            Box::new(ReplicaActor::bootstrap(
                ProcessId(i as u64),
                members.clone(),
                Box::new(Telemetry { frames: 0 }),
                config,
            )),
        ));
    }
    // The ground station: a continuous closed-loop command stream.
    let driver = RequestDriver::new(DriverConfig {
        operation: "record".into(),
        total: None,
        think: SimDuration::from_millis(2),
        ..DriverConfig::default()
    });
    let ground = world.spawn(
        NodeId(3),
        Box::new(ReplicatedClientActor::new(
            driver,
            ReplicatedClientConfig {
                replicas: replicas.clone(),
                ..ReplicatedClientConfig::default()
            },
        )),
    );

    // --- cruise phase -----------------------------------------------------
    world.run_for(SimDuration::from_secs(3));
    let cruise = ground_rtt(&world, ground);
    println!(
        "cruise (warm passive): {} commands, mean RTT {:.0} µs",
        cruise.count(),
        cruise.mean_micros_f64()
    );

    // --- window of opportunity: switch to mission mode ---------------------
    println!("\n>>> window of opportunity opens: switching to ACTIVE replication");
    world.inject(
        replicas[0],
        ReplicaCommand::Switch {
            group: GroupId(1),
            style: ReplicationStyle::Active,
        },
    );
    world.run_for(SimDuration::from_secs(3));
    let n_total = ground_rtt(&world, ground).count();
    let r0 = world.actor_ref::<ReplicaActor>(replicas[0]).unwrap();
    println!(
        "mission (active): style now {}, {} commands total; switch history: {:?}",
        r0.engine().style(),
        n_total,
        r0.style_history()
            .iter()
            .map(|(t, s)| format!("{:.2}s→{s}", t.as_secs_f64()))
            .collect::<Vec<_>>()
    );

    // A replica dies during the mission window — active replication rides
    // through it with no recovery delay (this is why the mode was chosen).
    println!(
        "\n>>> radiation hit: replica {} dies mid-window",
        replicas[1]
    );
    world.crash_process_at(replicas[1], world.now());
    world.run_for(SimDuration::from_secs(2));
    println!(
        "survivors' view: {}",
        world
            .actor_ref::<ReplicaActor>(replicas[0])
            .unwrap()
            .endpoint()
            .view()
    );

    // --- window closes: conserve resources again ---------------------------
    println!("\n>>> window closes: back to WARM PASSIVE to conserve power");
    world.inject(
        replicas[0],
        ReplicaCommand::Switch {
            group: GroupId(1),
            style: ReplicationStyle::WarmPassive,
        },
    );
    world.run_for(SimDuration::from_secs(3));
    let r0 = world.actor_ref::<ReplicaActor>(replicas[0]).unwrap();
    let state = r0.app().capture_state();
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&state[..8]);
    println!(
        "cruise again: style {}, {} telemetry frames recorded, zero lost",
        r0.engine().style(),
        u64::from_le_bytes(raw)
    );
    let h = ground_rtt(&world, ground);
    println!(
        "whole flight: {} commands, mean RTT {:.0} µs — across two mode\nswitches and one replica crash.",
        h.count(),
        h.mean_micros_f64()
    );
}
