//! Fig. 4 — overhead of the replicator for a remote client–server
//! application.
//!
//! Six operating modes, latency and jitter each: no interceptor, client
//! intercepted, server intercepted, both intercepted, warm passive (one
//! replica), active (one replica). The paper's shape: interposition alone
//! adds little; the replication mechanisms add latency and jitter.

use vd_core::style::ReplicationStyle;
use vd_orb::sim::ClientActor;
use vd_simnet::time::SimDuration;

use crate::report::{micros, Table};
use crate::testbed::{build_baseline, build_replicated, InterceptMode, TestbedConfig};

/// One bar of the Fig. 4 ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeResult {
    /// Mode label as the paper prints it.
    pub mode: &'static str,
    /// Mean round trip, µs.
    pub mean_micros: f64,
    /// Jitter (standard deviation), µs — the paper's error bars.
    pub jitter_micros: f64,
    /// Samples measured.
    pub samples: usize,
}

/// The full Fig. 4 result, in the paper's bar order.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// One entry per operating mode.
    pub modes: Vec<ModeResult>,
}

impl Fig4Result {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            "Fig. 4 — overhead of the replicator (remote client–server)",
            &["mode", "mean RTT [µs]", "jitter σ [µs]", "n"],
        );
        for m in &self.modes {
            table.row(&[
                m.mode.to_owned(),
                micros(m.mean_micros),
                micros(m.jitter_micros),
                m.samples.to_string(),
            ]);
        }
        table.render()
    }
}

fn measure_baseline(
    mode: InterceptMode,
    label: &'static str,
    requests: u64,
    seed: u64,
) -> ModeResult {
    let (mut world, client, _server) = build_baseline(mode, requests, seed);
    world.run_for(SimDuration::from_secs(2 + requests / 500));
    let h = world
        .actor_ref::<ClientActor>(client)
        .expect("the baseline client")
        .driver()
        .rtt();
    ModeResult {
        mode: label,
        mean_micros: h.mean_micros_f64(),
        jitter_micros: h.std_dev_micros(),
        samples: h.count(),
    }
}

fn measure_replicated(
    style: ReplicationStyle,
    label: &'static str,
    requests: u64,
    seed: u64,
) -> ModeResult {
    let config = TestbedConfig {
        replicas: 1,
        clients: 1,
        style,
        requests_per_client: requests,
        seed,
        ..TestbedConfig::default()
    };
    let mut bed = build_replicated(&config);
    bed.world
        .run_for(SimDuration::from_secs(2 + requests / 200));
    let h = bed.merged_rtt();
    ModeResult {
        mode: label,
        mean_micros: h.mean_micros_f64(),
        jitter_micros: h.std_dev_micros(),
        samples: h.count(),
    }
}

/// Runs all six modes with `requests` invocations each.
pub fn run(requests: u64, seed: u64) -> Fig4Result {
    Fig4Result {
        modes: vec![
            measure_baseline(InterceptMode::None, "No interceptor", requests, seed),
            measure_baseline(
                InterceptMode::ClientOnly,
                "Client intercepted",
                requests,
                seed + 1,
            ),
            measure_baseline(
                InterceptMode::ServerOnly,
                "Server intercepted",
                requests,
                seed + 2,
            ),
            measure_baseline(
                InterceptMode::Both,
                "Server & client intercepted",
                requests,
                seed + 3,
            ),
            measure_replicated(
                ReplicationStyle::WarmPassive,
                "Warm passive (1 replica)",
                requests,
                seed + 4,
            ),
            measure_replicated(
                ReplicationStyle::Active,
                "Active (1 replica)",
                requests,
                seed + 5,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_ordered_like_the_paper() {
        let result = run(300, 7);
        let mean = |label: &str| {
            result
                .modes
                .iter()
                .find(|m| m.mode == label)
                .unwrap()
                .mean_micros
        };
        let baseline = mean("No interceptor");
        let client = mean("Client intercepted");
        let both = mean("Server & client intercepted");
        let passive = mean("Warm passive (1 replica)");
        let active = mean("Active (1 replica)");
        // Interposition alone adds little, replication adds a lot.
        assert!(
            baseline < client && client < both,
            "{baseline} {client} {both}"
        );
        assert!(both < active, "{both} < {active}");
        assert!(both < passive, "{both} < {passive}");
        // With a single replica there is no logging partner, so warm
        // passive sits near active — as in the paper's two rightmost bars.
        assert!(
            (passive - active).abs() / active < 0.25,
            "passive {passive} vs active {active}"
        );
        // The replicated modes carry visibly more jitter than the baseline.
        let jitter = |label: &str| {
            result
                .modes
                .iter()
                .find(|m| m.mode == label)
                .unwrap()
                .jitter_micros
        };
        assert!(jitter("Active (1 replica)") > jitter("No interceptor"));
        assert!(!result.render().is_empty());
    }
}
