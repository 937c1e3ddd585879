//! Trace-export experiment — the observability substrate end to end
//! (`experiments -- trace`, `trace_switch.jsonl`).
//!
//! Replays the Fig. 6 adaptive scenario (a load ramp that drives the
//! rate-threshold policy to switch the group warm-passive → active and
//! back) with a shared [`TraceSink`] attached to every replica and the
//! simulated world, then exports the ring as JSONL and renders the
//! control-plane timeline. The gate checks that the trace tells the
//! paper's adaptation story:
//!
//! * all four Fig. 5 style-switch phases appear (`requested`,
//!   `final_checkpoint`, `awaiting_final`, `completed`),
//! * at least one `policy_decision` event (Fig. 8's "decide" arrow), and
//! * at least one policy-driven `knob_changed` event (the "actuate"
//!   arrow).

use std::collections::BTreeMap;
use std::sync::Arc;

use vd_core::knobs::LowLevelKnobs;
use vd_core::policy::RateThresholdPolicy;
use vd_core::replica::{ReplicaActor, ReplicaConfig};
use vd_core::style::ReplicationStyle;
use vd_group::message::GroupId;
use vd_obs::export::{export_jsonl, render_timeline};
use vd_obs::{Event, EventKind, Obs, ObsHandle, SwitchPhase, TraceSink};
use vd_simnet::prelude::*;

use crate::experiments::fig6::{HIGH_RATE, LOW_RATE};
use crate::testbed::gc_topology;
use crate::workload::{OpenLoopClientActor, PaddedApp, RateProfile};

/// Ring capacity for the run: a 12 s ramp emits on the order of 10^5
/// events, so this keeps the whole run without wrapping.
const TRACE_CAPACITY: usize = 1 << 18;

/// What the trace run produced.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// The exported ring, chronological.
    pub events: Vec<Event>,
    /// Events emitted over the run (> `events.len()` means the ring
    /// wrapped and the export is a suffix).
    pub total_emitted: u64,
    /// The lead replica's metrics registry, rendered human-readable.
    pub metrics_text: String,
}

impl TraceResult {
    /// The full trace as JSON Lines (one event per line).
    pub fn jsonl(&self) -> String {
        export_jsonl(&self.events)
    }

    /// `true` if the given Fig. 5 phase appears in the trace.
    pub fn has_phase(&self, phase: SwitchPhase) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::StyleSwitch { phase: p, .. } if p == phase))
    }

    /// Number of `policy_decision` events in the trace.
    pub fn policy_decisions(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PolicyDecision { .. }))
            .count()
    }

    /// Number of `knob_changed` events in the trace.
    pub fn knob_changes(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::KnobChanged { .. }))
            .count()
    }

    /// The named acceptance gates CI enforces on the exported trace.
    pub fn gates(&self) -> Vec<(&'static str, bool)> {
        vec![
            ("trace_nonempty", !self.events.is_empty()),
            (
                "switch_phase_requested",
                self.has_phase(SwitchPhase::Requested),
            ),
            (
                "switch_phase_final_checkpoint",
                self.has_phase(SwitchPhase::FinalCheckpoint),
            ),
            (
                "switch_phase_awaiting_final",
                self.has_phase(SwitchPhase::AwaitingFinal),
            ),
            (
                "switch_phase_completed",
                self.has_phase(SwitchPhase::Completed),
            ),
            ("policy_decision_visible", self.policy_decisions() >= 1),
            ("policy_knob_change_visible", self.knob_changes() >= 1),
        ]
    }

    /// Names of the gates that do not hold (empty = pass).
    pub fn failing_gates(&self) -> Vec<&'static str> {
        self.gates()
            .into_iter()
            .filter_map(|(name, ok)| (!ok).then_some(name))
            .collect()
    }

    /// `true` when every [`gates`](Self::gates) entry holds.
    pub fn passes_gate(&self) -> bool {
        self.failing_gates().is_empty()
    }

    /// The control-plane subset of the trace: adaptation, switching,
    /// checkpoint-chain anchors and membership — everything except the
    /// per-request / per-frame data-plane noise.
    pub fn control_plane(&self) -> Vec<Event> {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::StyleSwitch { .. }
                        | EventKind::PolicyDecision { .. }
                        | EventKind::KnobChanged { .. }
                        | EventKind::Failover { .. }
                        | EventKind::ViewInstalled { .. }
                        | EventKind::SuspicionRaised { .. }
                )
            })
            .copied()
            .collect()
    }

    /// Renders the per-kind event census, the adaptation timeline and the
    /// lead replica's metrics.
    pub fn render(&self) -> String {
        let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in &self.events {
            *census.entry(e.kind.name()).or_insert(0) += 1;
        }
        let mut out = format!(
            "trace — structured event export ({} events emitted, {} retained)\n",
            self.total_emitted,
            self.events.len()
        );
        out.push_str("event census:\n");
        for (name, count) in &census {
            out.push_str(&format!("  {count:>8}  {name}\n"));
        }
        out.push_str("\nadaptation timeline (control-plane events):\n");
        out.push_str(&render_timeline(&self.control_plane(), true));
        out.push_str("\nlead replica metrics:\n");
        out.push_str(&self.metrics_text);
        let gate = if self.passes_gate() {
            "PASS".to_owned()
        } else {
            format!("FAIL ({})", self.failing_gates().join(", "))
        };
        out.push_str(&format!(
            "\ngate (all Fig. 5 phases + policy decision + knob change in trace): {gate}\n"
        ));
        out
    }
}

/// Spawns the Fig. 6 three-replica adaptive group with `obs` handles
/// sharing one trace sink.
fn spawn_group(world: &mut World, sink: &Arc<TraceSink>) -> (Vec<ProcessId>, Vec<ObsHandle>) {
    let members: Vec<ProcessId> = (0..3u64).map(ProcessId).collect();
    let mut replicas = Vec::new();
    let mut handles = Vec::new();
    for i in 0..3u32 {
        let obs = Obs::with_trace(Arc::clone(sink));
        handles.push(obs.clone());
        let config = ReplicaConfig {
            knobs: LowLevelKnobs::default().style(ReplicationStyle::WarmPassive),
            obs,
            ..ReplicaConfig::for_group(GroupId(1))
        };
        let actor = ReplicaActor::bootstrap(
            ProcessId(i as u64),
            members.clone(),
            Box::new(PaddedApp::new(4096, 512, 15)),
            config,
        )
        .with_policy(Box::new(RateThresholdPolicy::new(LOW_RATE, HIGH_RATE)));
        replicas.push(world.spawn(NodeId(i), Box::new(actor)));
    }
    (replicas, handles)
}

/// Runs the traced Fig. 6 ramp and exports the ring.
pub fn run(duration_secs: u64, peak_rate: f64, seed: u64) -> TraceResult {
    let sink = Arc::new(TraceSink::with_capacity(TRACE_CAPACITY));
    let mut world = World::new(gc_topology(4), seed);
    world.set_obs(Obs::with_trace(Arc::clone(&sink)));
    let (replicas, handles) = spawn_group(&mut world, &sink);
    let total = SimDuration::from_secs(duration_secs);
    let profile = RateProfile::fig6_ramp(total, peak_rate);
    let stop = SimTime::ZERO + total;
    world.spawn(
        NodeId(3),
        Box::new(OpenLoopClientActor::new(replicas[0], profile, 256, stop)),
    );
    world.run_for(total + SimDuration::from_secs(1));
    TraceResult {
        events: sink.snapshot(),
        total_emitted: sink.total_emitted(),
        metrics_text: handles[0].metrics.render_text(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_run_exports_all_fig5_phases_and_a_policy_actuation() {
        let result = run(12, 1200.0, 5);
        assert!(
            result.passes_gate(),
            "failing gates: {:?}",
            result.failing_gates()
        );
        // The JSONL export carries the same story in machine-readable form.
        let jsonl = result.jsonl();
        for needle in [
            "\"phase\":\"requested\"",
            "\"phase\":\"final_checkpoint\"",
            "\"phase\":\"awaiting_final\"",
            "\"phase\":\"completed\"",
            "\"event\":\"policy_decision\"",
            "\"event\":\"knob_changed\"",
        ] {
            assert!(jsonl.contains(needle), "JSONL missing {needle}");
        }
        // Virtual clocks are monotone in the export.
        let times: Vec<u64> = result.events.iter().map(|e| e.t_us).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "trace not sorted");
        assert!(result.render().contains("event census"));
    }

    #[test]
    fn control_plane_subset_is_small_and_relevant() {
        let result = run(8, 1200.0, 9);
        let control = result.control_plane();
        assert!(!control.is_empty());
        assert!(control.len() < result.events.len() / 10);
    }
}
