//! Adaptation policies: how high-level knobs drive low-level knobs.
//!
//! Two policies from the paper are implemented here, plus one extension:
//!
//! * [`RateThresholdPolicy`] — §4.2 / Fig. 6: switch the replication style
//!   at run time when the measured request rate crosses a threshold
//!   (active above, passive below, with hysteresis).
//! * [`plan_scalability`] — §4.3 / Fig. 8 / Table 2: given measured
//!   {latency, bandwidth} per configuration, pick for each client count
//!   the configuration that (1) satisfies hard latency and bandwidth
//!   limits, (2) maximizes faults tolerated, and (3) breaks ties with the
//!   paper's cost function `p·L/L_max + (1−p)·B/B_max`.
//! * [`AvailabilityPolicy`] — an availability high-level knob (paper §5
//!   names it as the natural next knob): derives the replica count from a
//!   target availability and per-replica MTTF/MTTR.
//! * [`SlowFailurePolicy`] — gray-failure remediation over the adaptive
//!   detector's three-state verdicts: demote a persistently laggard
//!   primary (cheap), evict a persistently laggard backup (expensive,
//!   longer patience).

use std::collections::BTreeMap;
use std::fmt;

use crate::monitor::Observations;
use crate::style::ReplicationStyle;

/// What a policy asks the framework to do.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationAction {
    /// Initiate a runtime replication-style switch (paper Fig. 5).
    SwitchStyle(ReplicationStyle),
    /// Grow the replica group by one.
    AddReplica,
    /// Shrink the replica group by one.
    RemoveReplica,
    /// Demote an alive-but-slow primary: move primaryship to a healthy
    /// backup through the runtime-switch machinery (paper Fig. 5 applied
    /// to primaryship) while the laggard stays in the group. Cheap and
    /// reversible — the remedy for a *gray* failure, where eviction
    /// would pay a full recovery episode for a replica that may catch up.
    DemotePrimary,
    /// Evict a persistently lagging backup so the recovery manager
    /// respawns a fresh replacement. Expensive (a full recovery
    /// episode), so policies demand a longer patience before choosing it.
    EvictLaggard,
    /// No automatic remedy exists: notify the operators (paper §4.3's
    /// "a new policy must be defined").
    NotifyOperators(String),
}

/// What the framework currently runs (input to policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyContext {
    /// Current replication style.
    pub style: ReplicationStyle,
    /// Current live replica count.
    pub replicas: usize,
    /// Whether the serving primary is currently classified
    /// alive-but-slow by the adaptive failure detector.
    pub primary_laggard: bool,
    /// Backups currently classified alive-but-slow.
    pub laggard_backups: usize,
}

impl PolicyContext {
    /// A context with no gray-failure evidence (every peer healthy).
    pub fn healthy(style: ReplicationStyle, replicas: usize) -> Self {
        PolicyContext {
            style,
            replicas,
            primary_laggard: false,
            laggard_backups: 0,
        }
    }
}

/// A pluggable adaptation policy, evaluated periodically against fresh
/// observations.
pub trait AdaptationPolicy: Send {
    /// A short diagnostic name.
    fn name(&self) -> &str;

    /// Inspects the snapshot; returns an action if adaptation is due.
    fn evaluate(&mut self, obs: &Observations, ctx: &PolicyContext) -> Option<AdaptationAction>;
}

/// §4.2 / Fig. 6: request-rate-driven style switching with hysteresis.
///
/// Active replication sustains higher request rates (no quiescence or
/// checkpointing), so the policy selects it above `high_rate` and falls
/// back to resource-frugal warm-passive below `low_rate`.
#[derive(Debug, Clone, Copy)]
pub struct RateThresholdPolicy {
    /// Switch to active at or above this rate (requests/second).
    pub high_rate: f64,
    /// Switch to warm passive at or below this rate (requests/second).
    pub low_rate: f64,
}

impl RateThresholdPolicy {
    /// A policy with the given hysteresis band.
    ///
    /// # Panics
    ///
    /// Panics if `low_rate > high_rate` (the band would be inverted).
    pub fn new(low_rate: f64, high_rate: f64) -> Self {
        assert!(
            low_rate <= high_rate,
            "hysteresis band inverted: low {low_rate} > high {high_rate}"
        );
        RateThresholdPolicy {
            high_rate,
            low_rate,
        }
    }
}

impl AdaptationPolicy for RateThresholdPolicy {
    fn name(&self) -> &str {
        "rate-threshold"
    }

    fn evaluate(&mut self, obs: &Observations, ctx: &PolicyContext) -> Option<AdaptationAction> {
        match ctx.style {
            ReplicationStyle::Active if obs.request_rate <= self.low_rate => {
                Some(AdaptationAction::SwitchStyle(ReplicationStyle::WarmPassive))
            }
            ReplicationStyle::WarmPassive | ReplicationStyle::ColdPassive
                if obs.request_rate >= self.high_rate =>
            {
                Some(AdaptationAction::SwitchStyle(ReplicationStyle::Active))
            }
            ReplicationStyle::Active
            | ReplicationStyle::WarmPassive
            | ReplicationStyle::ColdPassive
            | ReplicationStyle::SemiActive => None,
        }
    }
}

/// One measured configuration point for the scalability knob (the paper's
/// empirical step: "gather enough data about the system's behavior").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigMeasurement {
    /// Replication style measured.
    pub style: ReplicationStyle,
    /// Replica count measured.
    pub replicas: usize,
    /// Concurrent clients during the measurement.
    pub clients: usize,
    /// Mean round-trip latency observed, µs.
    pub latency_micros: f64,
    /// Total bandwidth observed, MB/s.
    pub bandwidth_mbps: f64,
}

/// The §4.3 requirements: hard limits plus the cost-function weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalabilityRequirements {
    /// Requirement 1: the average latency shall not exceed this (µs).
    pub max_latency_micros: f64,
    /// Requirement 2: the bandwidth usage shall not exceed this (MB/s).
    pub max_bandwidth_mbps: f64,
    /// Requirement 4: the weight `p` between latency and bandwidth in the
    /// tie-breaking cost.
    pub latency_weight: f64,
}

impl ScalabilityRequirements {
    /// The paper's exact numbers: 7000 µs, 3 MB/s, p = 0.5.
    pub fn paper() -> Self {
        ScalabilityRequirements {
            max_latency_micros: 7_000.0,
            max_bandwidth_mbps: 3.0,
            latency_weight: 0.5,
        }
    }

    /// The paper's cost function: `p·L/L_max + (1−p)·B/B_max`.
    pub fn cost(&self, latency_micros: f64, bandwidth_mbps: f64) -> f64 {
        self.latency_weight * latency_micros / self.max_latency_micros
            + (1.0 - self.latency_weight) * bandwidth_mbps / self.max_bandwidth_mbps
    }
}

/// A configuration chosen by the scalability knob for some client count —
/// one row of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChosenConfig {
    /// The winning style.
    pub style: ReplicationStyle,
    /// The winning replica count.
    pub replicas: usize,
    /// Its measured latency, µs.
    pub latency_micros: f64,
    /// Its measured bandwidth, MB/s.
    pub bandwidth_mbps: f64,
    /// Crash faults tolerated (replicas − 1).
    pub faults_tolerated: usize,
    /// Its tie-breaking cost.
    pub cost: f64,
}

impl fmt::Display for ChosenConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.style {
            ReplicationStyle::Active => "A",
            ReplicationStyle::WarmPassive => "P",
            ReplicationStyle::ColdPassive => "C",
            ReplicationStyle::SemiActive => "S",
        };
        write!(f, "{}({})", tag, self.replicas)
    }
}

/// Derives the scalability-tuning policy (paper Table 2) from measured
/// configuration data: for each client count, the configuration satisfying
/// the hard limits with the most faults tolerated, ties broken by minimum
/// cost. `None` for a client count means no configuration satisfies the
/// requirements and the operators must be notified.
pub fn plan_scalability(
    measurements: &[ConfigMeasurement],
    reqs: &ScalabilityRequirements,
) -> BTreeMap<usize, Option<ChosenConfig>> {
    let mut plan: BTreeMap<usize, Option<ChosenConfig>> = BTreeMap::new();
    let mut clients: Vec<usize> = measurements.iter().map(|m| m.clients).collect();
    clients.sort_unstable();
    clients.dedup();
    for n in clients {
        let best = measurements
            .iter()
            .filter(|m| m.clients == n)
            .filter(|m| {
                m.latency_micros <= reqs.max_latency_micros
                    && m.bandwidth_mbps <= reqs.max_bandwidth_mbps
            })
            .map(|m| ChosenConfig {
                style: m.style,
                replicas: m.replicas,
                latency_micros: m.latency_micros,
                bandwidth_mbps: m.bandwidth_mbps,
                faults_tolerated: m.replicas.saturating_sub(1),
                cost: reqs.cost(m.latency_micros, m.bandwidth_mbps),
            })
            // Requirement 3 first (max faults tolerated), then requirement 4
            // (min cost).
            .max_by(|a, b| {
                a.faults_tolerated.cmp(&b.faults_tolerated).then_with(|| {
                    b.cost
                        .partial_cmp(&a.cost)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
            });
        plan.insert(n, best);
    }
    plan
}

/// A contract-enforcement policy (paper §3.1, "Adaptation Policies"): when
/// monitoring shows the behavioral contract can no longer be honored, pick
/// the cheapest remedy the framework can enact on its own — switch the
/// replication style — and escalate to the operators when no automatic
/// remedy is left, offering degraded alternative contracts (paper: "the
/// system notifies the operators that the tuning policy can no longer be
/// honored").
#[derive(Debug, Clone)]
pub struct ContractPolicy {
    contract: crate::contract::Contract,
    /// Consecutive violated evaluations required before acting (debounce).
    patience: u32,
    violated_streak: u32,
    escalated: bool,
}

impl ContractPolicy {
    /// Enforces `contract`, acting after `patience` consecutive violated
    /// evaluations.
    pub fn new(contract: crate::contract::Contract, patience: u32) -> Self {
        ContractPolicy {
            contract,
            patience: patience.max(1),
            violated_streak: 0,
            escalated: false,
        }
    }

    /// The enforced contract.
    pub fn contract(&self) -> &crate::contract::Contract {
        &self.contract
    }
}

impl AdaptationPolicy for ContractPolicy {
    fn name(&self) -> &str {
        "contract"
    }

    fn evaluate(&mut self, obs: &Observations, ctx: &PolicyContext) -> Option<AdaptationAction> {
        use crate::contract::{ContractStatus, Violation};
        match self.contract.evaluate(obs) {
            ContractStatus::Honored => {
                self.violated_streak = 0;
                self.escalated = false;
                None
            }
            ContractStatus::Violated(violations) => {
                self.violated_streak += 1;
                if self.violated_streak < self.patience {
                    return None;
                }
                self.violated_streak = 0;
                // Remedies, cheapest first.
                let latency_broken = violations
                    .iter()
                    .any(|v| matches!(v, Violation::Latency { .. }));
                let bandwidth_broken = violations
                    .iter()
                    .any(|v| matches!(v, Violation::Bandwidth { .. }));
                let ft_broken = violations
                    .iter()
                    .any(|v| matches!(v, Violation::FaultTolerance { .. }));
                if ft_broken {
                    // Too few replicas for the contract: grow the group.
                    return Some(AdaptationAction::AddReplica);
                }
                if latency_broken && ctx.style != ReplicationStyle::Active {
                    // Active replication is the latency remedy (paper §4.2).
                    return Some(AdaptationAction::SwitchStyle(ReplicationStyle::Active));
                }
                if bandwidth_broken && ctx.style == ReplicationStyle::Active {
                    // Passive replication is the bandwidth remedy.
                    return Some(AdaptationAction::SwitchStyle(ReplicationStyle::WarmPassive));
                }
                // No knob left to turn: escalate once, with the degraded
                // alternatives the application might still accept.
                if !self.escalated {
                    self.escalated = true;
                    let alternatives = self.contract.degraded_alternatives(1.5);
                    return Some(AdaptationAction::NotifyOperators(format!(
                        "contract cannot be honored ({}); degraded alternatives: {} option(s)",
                        violations
                            .iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join("; "),
                        alternatives.len()
                    )));
                }
                None
            }
        }
    }
}

/// An availability-driven replica-count policy: given a target availability
/// and per-replica MTTF/MTTR, compute the replica count `n` such that the
/// probability of all replicas being down simultaneously,
/// `(MTTR/(MTTF+MTTR))^n`, stays below `1 − target`.
#[derive(Debug, Clone, Copy)]
pub struct AvailabilityPolicy {
    /// Desired service availability in `(0, 1)`, e.g. `0.99999`.
    pub target_availability: f64,
    /// Mean time to failure of one replica, seconds.
    pub mttf_secs: f64,
    /// Mean time to repair one replica, seconds.
    pub mttr_secs: f64,
}

impl AvailabilityPolicy {
    /// The replica count needed to meet the target.
    pub fn required_replicas(&self) -> usize {
        let unavail = self.mttr_secs / (self.mttf_secs + self.mttr_secs);
        if !(0.0..1.0).contains(&unavail) || unavail == 0.0 {
            return 1;
        }
        let target_unavail = (1.0 - self.target_availability).max(f64::MIN_POSITIVE);
        let n = target_unavail.ln() / unavail.ln();
        // Tolerate float noise (e.g. 1−0.99999 ≈ 1.0000000000066e-5) so a
        // mathematically-exact boundary does not over-provision a replica.
        ((n - 1e-9).ceil() as usize).max(1)
    }
}

impl AdaptationPolicy for AvailabilityPolicy {
    fn name(&self) -> &str {
        "availability"
    }

    fn evaluate(&mut self, _obs: &Observations, ctx: &PolicyContext) -> Option<AdaptationAction> {
        let required = self.required_replicas();
        if ctx.replicas < required {
            Some(AdaptationAction::AddReplica)
        } else if ctx.replicas > required {
            Some(AdaptationAction::RemoveReplica)
        } else {
            None
        }
    }
}

/// Gray-failure remediation (the Fig. 8 loop consuming the adaptive
/// detector's three-state verdicts): distinguishes *slow* from *dead*
/// and matches the remedy to the diagnosis.
///
/// * A primary that stays **laggard** — alive but statistically slow —
///   for `demote_patience` consecutive evaluations is demoted:
///   primaryship moves to a healthy backup (cheap, reversible).
/// * A backup that stays laggard for the longer `evict_patience` is
///   evicted so the recovery manager respawns a fresh replica
///   (expensive: a full recovery episode).
///
/// The patience streaks are the false-positive guard: a momentarily slow
/// node resets its streak the first time it is observed healthy, so only
/// *persistent* gray failures trigger actuation — never a transient
/// stall that the adaptive detector is already holding.
#[derive(Debug, Clone, Copy)]
pub struct SlowFailurePolicy {
    /// Consecutive laggard-primary evaluations before demotion.
    demote_patience: u32,
    /// Consecutive laggard-backup evaluations before eviction.
    evict_patience: u32,
    primary_streak: u32,
    backup_streak: u32,
}

impl SlowFailurePolicy {
    /// A policy with the given patience budgets (both ≥ 1). Eviction
    /// should be the slower trigger: it pays a recovery episode where
    /// demotion only moves primaryship.
    ///
    /// # Panics
    ///
    /// Panics if either patience is zero.
    pub fn new(demote_patience: u32, evict_patience: u32) -> Self {
        assert!(
            demote_patience >= 1 && evict_patience >= 1,
            "patience budgets must be at least 1"
        );
        SlowFailurePolicy {
            demote_patience,
            evict_patience,
            primary_streak: 0,
            backup_streak: 0,
        }
    }
}

impl AdaptationPolicy for SlowFailurePolicy {
    fn name(&self) -> &str {
        "slow-failure"
    }

    fn evaluate(&mut self, _obs: &Observations, ctx: &PolicyContext) -> Option<AdaptationAction> {
        self.primary_streak = if ctx.primary_laggard {
            self.primary_streak + 1
        } else {
            0
        };
        self.backup_streak = if ctx.laggard_backups > 0 {
            self.backup_streak + 1
        } else {
            0
        };
        if ctx.replicas < 2 {
            // No healthy successor or replacement capacity: hold.
            return None;
        }
        if self.primary_streak >= self.demote_patience {
            self.primary_streak = 0;
            return Some(AdaptationAction::DemotePrimary);
        }
        if self.backup_streak >= self.evict_patience {
            self.backup_streak = 0;
            return Some(AdaptationAction::EvictLaggard);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vd_simnet::time::SimTime;

    fn obs_with_rate(rate: f64) -> Observations {
        Observations {
            at: SimTime::ZERO,
            request_rate: rate,
            replicas: 3,
            ..Observations::default()
        }
    }

    #[test]
    fn rate_policy_switches_with_hysteresis() {
        let mut p = RateThresholdPolicy::new(200.0, 800.0);
        let passive = PolicyContext::healthy(ReplicationStyle::WarmPassive, 3);
        let active = PolicyContext::healthy(ReplicationStyle::Active, 3);
        // Below the high threshold: stay passive.
        assert_eq!(p.evaluate(&obs_with_rate(500.0), &passive), None);
        // Above it: go active.
        assert_eq!(
            p.evaluate(&obs_with_rate(900.0), &passive),
            Some(AdaptationAction::SwitchStyle(ReplicationStyle::Active))
        );
        // In the band while active: stay active (hysteresis).
        assert_eq!(p.evaluate(&obs_with_rate(500.0), &active), None);
        // Below the low threshold: back to passive.
        assert_eq!(
            p.evaluate(&obs_with_rate(100.0), &active),
            Some(AdaptationAction::SwitchStyle(ReplicationStyle::WarmPassive))
        );
    }

    #[test]
    #[should_panic(expected = "hysteresis band inverted")]
    fn inverted_band_panics() {
        RateThresholdPolicy::new(800.0, 200.0);
    }

    /// The paper's Table 2, reproduced from its own published measurements:
    /// feeding the published (latency, bandwidth) numbers through the
    /// selection pipeline must reproduce the published configuration
    /// choices and costs.
    #[test]
    fn paper_table_2_reproduced_from_published_measurements() {
        use ReplicationStyle::{Active, WarmPassive};
        // Published measurement points for 1–5 clients (Fig. 7 data, as
        // summarized in Table 2 plus the loser configurations implied by
        // Fig. 7: we include representative values for the alternatives).
        let measurements = vec![
            // clients = 1
            ConfigMeasurement {
                style: Active,
                replicas: 3,
                clients: 1,
                latency_micros: 1245.8,
                bandwidth_mbps: 1.074,
            },
            ConfigMeasurement {
                style: WarmPassive,
                replicas: 3,
                clients: 1,
                latency_micros: 3100.0,
                bandwidth_mbps: 0.9,
            },
            // clients = 2
            ConfigMeasurement {
                style: Active,
                replicas: 3,
                clients: 2,
                latency_micros: 1457.2,
                bandwidth_mbps: 2.032,
            },
            ConfigMeasurement {
                style: WarmPassive,
                replicas: 3,
                clients: 2,
                latency_micros: 3900.0,
                bandwidth_mbps: 1.4,
            },
            // clients = 3: active's bandwidth now breaks the 3 MB/s limit.
            ConfigMeasurement {
                style: Active,
                replicas: 3,
                clients: 3,
                latency_micros: 1700.0,
                bandwidth_mbps: 3.1,
            },
            ConfigMeasurement {
                style: WarmPassive,
                replicas: 3,
                clients: 3,
                latency_micros: 4966.0,
                bandwidth_mbps: 1.887,
            },
            // clients = 4
            ConfigMeasurement {
                style: Active,
                replicas: 3,
                clients: 4,
                latency_micros: 1900.0,
                bandwidth_mbps: 4.0,
            },
            ConfigMeasurement {
                style: WarmPassive,
                replicas: 3,
                clients: 4,
                latency_micros: 6141.1,
                bandwidth_mbps: 2.315,
            },
            // clients = 5: no 3-replica configuration fits; P(2) does.
            ConfigMeasurement {
                style: Active,
                replicas: 3,
                clients: 5,
                latency_micros: 2100.0,
                bandwidth_mbps: 4.9,
            },
            ConfigMeasurement {
                style: WarmPassive,
                replicas: 3,
                clients: 5,
                latency_micros: 7400.0,
                bandwidth_mbps: 2.7,
            },
            ConfigMeasurement {
                style: WarmPassive,
                replicas: 2,
                clients: 5,
                latency_micros: 6006.2,
                bandwidth_mbps: 2.799,
            },
        ];
        let plan = plan_scalability(&measurements, &ScalabilityRequirements::paper());
        let expect = [
            (1, Active, 3, 0.268),
            (2, Active, 3, 0.443),
            (3, WarmPassive, 3, 0.669),
            (4, WarmPassive, 3, 0.825),
            (5, WarmPassive, 2, 0.895),
        ];
        for (clients, style, replicas, cost) in expect {
            let chosen = plan[&clients].expect("a configuration exists");
            assert_eq!(chosen.style, style, "clients={clients}");
            assert_eq!(chosen.replicas, replicas, "clients={clients}");
            assert!(
                (chosen.cost - cost).abs() < 0.005,
                "clients={clients}: cost {:.3} vs paper {cost:.3}",
                chosen.cost
            );
        }
        // Table 2's fault-tolerance row: 2,2,2,2,1.
        assert_eq!(plan[&4].unwrap().faults_tolerated, 2);
        assert_eq!(plan[&5].unwrap().faults_tolerated, 1);
    }

    #[test]
    fn infeasible_client_counts_yield_none() {
        let measurements = vec![ConfigMeasurement {
            style: ReplicationStyle::Active,
            replicas: 3,
            clients: 9,
            latency_micros: 50_000.0,
            bandwidth_mbps: 10.0,
        }];
        let plan = plan_scalability(&measurements, &ScalabilityRequirements::paper());
        assert_eq!(plan[&9], None);
    }

    #[test]
    fn chosen_config_displays_like_the_paper() {
        let c = ChosenConfig {
            style: ReplicationStyle::Active,
            replicas: 3,
            latency_micros: 0.0,
            bandwidth_mbps: 0.0,
            faults_tolerated: 2,
            cost: 0.0,
        };
        assert_eq!(c.to_string(), "A(3)");
    }

    #[test]
    fn contract_policy_picks_the_cheapest_remedy() {
        use crate::contract::Contract;
        let mut p = ContractPolicy::new(Contract::paper_section_4_3(), 2);
        let passive = PolicyContext::healthy(ReplicationStyle::WarmPassive, 3);
        let slow = Observations {
            latency_micros: 9_000.0,
            replicas: 3,
            ..obs_with_rate(0.0)
        };
        // Patience: first violated evaluation does nothing.
        assert_eq!(p.evaluate(&slow, &passive), None);
        // Second: latency violation under passive → go active.
        assert_eq!(
            p.evaluate(&slow, &passive),
            Some(AdaptationAction::SwitchStyle(ReplicationStyle::Active))
        );
        // Bandwidth violation under active → go passive.
        let active = PolicyContext::healthy(ReplicationStyle::Active, 3);
        let hungry = Observations {
            bandwidth_bps: 5e6,
            replicas: 3,
            ..obs_with_rate(0.0)
        };
        p.evaluate(&hungry, &active);
        assert_eq!(
            p.evaluate(&hungry, &active),
            Some(AdaptationAction::SwitchStyle(ReplicationStyle::WarmPassive))
        );
        // A honored interval resets the streak and the escalation latch.
        assert_eq!(p.evaluate(&obs_with_rate(0.0), &active), None);
    }

    #[test]
    fn contract_policy_escalates_when_no_knob_is_left() {
        use crate::contract::Contract;
        let mut p = ContractPolicy::new(Contract::paper_section_4_3(), 1);
        // Latency broken while ALREADY active: nothing cheaper to do.
        let active = PolicyContext::healthy(ReplicationStyle::Active, 3);
        let slow = Observations {
            latency_micros: 9_000.0,
            replicas: 3,
            ..obs_with_rate(0.0)
        };
        match p.evaluate(&slow, &active) {
            Some(AdaptationAction::NotifyOperators(msg)) => {
                assert!(msg.contains("cannot be honored"), "{msg}");
                assert!(msg.contains("degraded alternatives"));
            }
            other => panic!("expected escalation, got {other:?}"),
        }
        // Escalation is one-shot until the contract is honored again.
        assert_eq!(p.evaluate(&slow, &active), None);
    }

    #[test]
    fn contract_policy_grows_the_group_for_ft_violations() {
        use crate::contract::Contract;
        let mut p = ContractPolicy::new(Contract::unconstrained().min_faults_tolerated(2), 1);
        let ctx = PolicyContext::healthy(ReplicationStyle::Active, 2);
        let obs = Observations {
            replicas: 2,
            ..obs_with_rate(0.0)
        };
        assert_eq!(p.evaluate(&obs, &ctx), Some(AdaptationAction::AddReplica));
    }

    #[test]
    fn availability_policy_sizes_the_group() {
        // 10% per-replica unavailability; five nines needs 5 replicas.
        let p = AvailabilityPolicy {
            target_availability: 0.99999,
            mttf_secs: 9.0,
            mttr_secs: 1.0,
        };
        assert_eq!(p.required_replicas(), 5);
        let mut p = p;
        let ctx = PolicyContext::healthy(ReplicationStyle::Active, 3);
        assert_eq!(
            p.evaluate(&obs_with_rate(0.0), &ctx),
            Some(AdaptationAction::AddReplica)
        );
        let ctx = PolicyContext::healthy(ReplicationStyle::Active, 7);
        assert_eq!(
            p.evaluate(&obs_with_rate(0.0), &ctx),
            Some(AdaptationAction::RemoveReplica)
        );
    }

    #[test]
    fn slow_failure_policy_demotes_a_persistently_laggard_primary() {
        let mut p = SlowFailurePolicy::new(2, 4);
        let obs = obs_with_rate(0.0);
        let laggard_primary = PolicyContext {
            primary_laggard: true,
            ..PolicyContext::healthy(ReplicationStyle::WarmPassive, 3)
        };
        // Patience: the first laggard evaluation does nothing.
        assert_eq!(p.evaluate(&obs, &laggard_primary), None);
        assert_eq!(
            p.evaluate(&obs, &laggard_primary),
            Some(AdaptationAction::DemotePrimary)
        );
        // The streak restarts after firing.
        assert_eq!(p.evaluate(&obs, &laggard_primary), None);
    }

    #[test]
    fn slow_failure_policy_healthy_evaluation_resets_the_streak() {
        let mut p = SlowFailurePolicy::new(2, 2);
        let obs = obs_with_rate(0.0);
        let laggard_primary = PolicyContext {
            primary_laggard: true,
            ..PolicyContext::healthy(ReplicationStyle::WarmPassive, 3)
        };
        let healthy = PolicyContext::healthy(ReplicationStyle::WarmPassive, 3);
        assert_eq!(p.evaluate(&obs, &laggard_primary), None);
        // One healthy round: the momentary stall is forgiven.
        assert_eq!(p.evaluate(&obs, &healthy), None);
        assert_eq!(p.evaluate(&obs, &laggard_primary), None);
    }

    #[test]
    fn slow_failure_policy_evicts_laggard_backups_more_slowly() {
        let mut p = SlowFailurePolicy::new(2, 3);
        let obs = obs_with_rate(0.0);
        let laggard_backup = PolicyContext {
            laggard_backups: 1,
            ..PolicyContext::healthy(ReplicationStyle::WarmPassive, 3)
        };
        assert_eq!(p.evaluate(&obs, &laggard_backup), None);
        assert_eq!(p.evaluate(&obs, &laggard_backup), None);
        assert_eq!(
            p.evaluate(&obs, &laggard_backup),
            Some(AdaptationAction::EvictLaggard)
        );
    }

    #[test]
    fn slow_failure_policy_holds_without_a_healthy_successor() {
        let mut p = SlowFailurePolicy::new(1, 1);
        let obs = obs_with_rate(0.0);
        let lone = PolicyContext {
            primary_laggard: true,
            laggard_backups: 0,
            ..PolicyContext::healthy(ReplicationStyle::WarmPassive, 1)
        };
        assert_eq!(p.evaluate(&obs, &lone), None);
    }

    #[test]
    #[should_panic(expected = "patience budgets must be at least 1")]
    fn slow_failure_policy_rejects_zero_patience() {
        SlowFailurePolicy::new(0, 3);
    }
}
