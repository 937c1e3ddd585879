//! Fig. 6 — the adaptive-replication low-level knob at work.
//!
//! The paper drives a replicated service with a request rate that climbs
//! past a threshold and falls back; the rate-threshold policy switches the
//! group to active replication at high load and back to warm passive at
//! low load. It also reports that the *served* request rate is 4.1% higher
//! under adaptive replication than under static passive replication with
//! the same offered workload, because active replication answers faster
//! under load, letting closed-loop clients re-submit sooner.

use vd_core::knobs::LowLevelKnobs;
use vd_core::policy::RateThresholdPolicy;
use vd_core::replica::{ReplicaActor, ReplicaConfig};
use vd_core::style::ReplicationStyle;
use vd_group::message::GroupId;
use vd_simnet::prelude::*;

use crate::report::render_series;
use crate::testbed::gc_topology;
use crate::workload::{OpenLoopClientActor, PaddedApp, RateProfile};

/// The switching thresholds used in the experiment (requests/second).
pub const LOW_RATE: f64 = 150.0;
/// Upper switching threshold (requests/second).
pub const HIGH_RATE: f64 = 450.0;

/// The timeline result: offered/served rate and the style over time.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// `(seconds, requests/second)` as observed at the (initial) primary.
    pub rate_series: Vec<(f64, f64)>,
    /// `(seconds, style)` transitions at the same replica.
    pub style_timeline: Vec<(f64, ReplicationStyle)>,
    /// Requests served by the adaptive configuration in the comparison run.
    pub adaptive_served: u64,
    /// Requests served by static warm passive in the comparison run.
    pub static_served: u64,
}

impl Fig6Result {
    /// Served-rate advantage of adaptive over static passive, in percent
    /// (the paper reports +4.1%).
    pub fn adaptive_gain_percent(&self) -> f64 {
        if self.static_served == 0 {
            return 0.0;
        }
        (self.adaptive_served as f64 / self.static_served as f64 - 1.0) * 100.0
    }

    /// Renders the rate timeline, style transitions and the comparison.
    pub fn render(&self) -> String {
        let mut out = render_series(
            "Fig. 6 — request rate at the server [req/s]",
            &self.rate_series,
            24,
        );
        out.push_str("\nstyle transitions:\n");
        for (t, style) in &self.style_timeline {
            out.push_str(&format!("  {t:>7.2}s  → {style}\n"));
        }
        out.push_str(&format!(
            "\nadaptive vs static passive (closed-loop comparison):\n  adaptive served {}  static served {}  gain {:+.1}% (paper: +4.1%)\n",
            self.adaptive_served,
            self.static_served,
            self.adaptive_gain_percent()
        ));
        out
    }
}

/// The replicated object group.
const GROUP: GroupId = GroupId(1);

/// Spawns the three-replica group; returns replica pids.
fn spawn_group(world: &mut World, adaptive: bool) -> Vec<ProcessId> {
    let members: Vec<ProcessId> = (0..3u64).map(ProcessId).collect();
    let mut replicas = Vec::new();
    for i in 0..3u32 {
        let config = ReplicaConfig {
            knobs: LowLevelKnobs::default().style(ReplicationStyle::WarmPassive),
            ..ReplicaConfig::for_group(GROUP)
        };
        let mut actor = ReplicaActor::bootstrap(
            ProcessId(i as u64),
            members.clone(),
            Box::new(PaddedApp::new(4096, 512, 15)),
            config,
        );
        if adaptive {
            actor = actor.with_policy(Box::new(RateThresholdPolicy::new(LOW_RATE, HIGH_RATE)));
        }
        replicas.push(world.spawn(NodeId(i), Box::new(actor)));
    }
    replicas
}

/// Runs the rate-ramp timeline against an adaptive group.
pub fn run_timeline(duration_secs: u64, peak_rate: f64, seed: u64) -> Fig6Result {
    let mut world = World::new(gc_topology(4), seed);
    let replicas = spawn_group(&mut world, true);
    let total = SimDuration::from_secs(duration_secs);
    let profile = RateProfile::fig6_ramp(total, peak_rate);
    let stop = SimTime::ZERO + total;
    world.spawn(
        NodeId(3),
        Box::new(OpenLoopClientActor::new(replicas[0], profile, 256, stop)),
    );
    // Each policy tick overwrites the replica's last observations, and
    // ticks are at least one policy interval apart: sampling after every
    // half-interval slice sees each tick exactly once. Slicing does not
    // change the run (`run_until` only steps events up to its deadline).
    let end = SimTime::ZERO + total + SimDuration::from_secs(1);
    let slice = ReplicaConfig::for_group(GROUP).policy_interval / 2;
    let mut rate_series = Vec::new();
    let mut last_tick = None;
    while world.now() < end {
        world.run_until((world.now() + slice).min(end));
        let tick = world
            .actor_ref::<ReplicaActor>(replicas[0])
            .and_then(|r| r.replication(GROUP))
            .and_then(|g| g.last_observations());
        if let Some(obs) = tick {
            if last_tick != Some(obs.at) {
                last_tick = Some(obs.at);
                rate_series.push((obs.at.as_secs_f64(), obs.request_rate));
            }
        }
    }
    let style_timeline = world
        .actor_ref::<ReplicaActor>(replicas[0])
        .map(|r| {
            r.style_history()
                .iter()
                .map(|&(t, s)| (t.as_secs_f64(), s))
                .collect()
        })
        .unwrap_or_default();
    let (adaptive_served, static_served) = comparison(duration_secs, peak_rate, seed);
    Fig6Result {
        rate_series,
        style_timeline,
        adaptive_served,
        static_served,
    }
}

/// The served-rate comparison: the same offered load ramp against an
/// adaptive group and a static warm-passive group, counting requests served
/// within the window. Under the peak, static passive falls behind its
/// service capacity while the adaptive group has switched to active and
/// keeps up — the effect behind the paper's "4.1% higher observed rate".
fn comparison(duration_secs: u64, peak_rate: f64, seed: u64) -> (u64, u64) {
    let serve = |adaptive: bool| -> u64 {
        let mut world = World::new(gc_topology(4), seed);
        let replicas = spawn_group(&mut world, adaptive);
        let total = SimDuration::from_secs(duration_secs);
        let profile = RateProfile::fig6_ramp(total, peak_rate);
        let stop = SimTime::ZERO + total;
        let client = world.spawn(
            NodeId(3),
            Box::new(OpenLoopClientActor::new(replicas[0], profile, 256, stop)),
        );
        world.run_for(total + SimDuration::from_millis(500));
        world
            .actor_ref::<OpenLoopClientActor>(client)
            .map(|c| c.served)
            .unwrap_or(0)
    };
    (serve(true), serve(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_triggers_switch_to_active_and_back() {
        let result = run_timeline(12, 1200.0, 5);
        let styles: Vec<ReplicationStyle> = result.style_timeline.iter().map(|&(_, s)| s).collect();
        assert!(
            styles.contains(&ReplicationStyle::Active),
            "never switched to active: {styles:?}"
        );
        assert_eq!(
            styles.last(),
            Some(&ReplicationStyle::WarmPassive),
            "should fall back to passive when the load drains"
        );
        // The observed rate actually climbed.
        let peak = result
            .rate_series
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max);
        assert!(
            peak > HIGH_RATE,
            "observed peak {peak} never crossed the threshold"
        );
    }

    #[test]
    fn adaptive_outperforms_static_passive() {
        let result = run_timeline(8, 1200.0, 9);
        assert!(
            result.adaptive_served > result.static_served,
            "adaptive {} should beat static {}",
            result.adaptive_served,
            result.static_served
        );
        let gain = result.adaptive_gain_percent();
        assert!(
            gain > 1.0,
            "gain {gain:.1}% too small to be the paper's effect"
        );
        assert!(result.render().contains("gain"));
    }
}
