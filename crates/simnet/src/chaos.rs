//! Declarative chaos campaigns.
//!
//! The paper's fault model (§3.1) — crash faults, transient communication
//! faults, performance/timing faults — becomes a first-class, continuously
//! exercised input here instead of test scaffolding. A [`FaultPlan`] is a
//! time-ordered list of fault (and repair) steps that compiles onto the
//! world's control queue via [`FaultPlan::schedule`]; [`FaultPlan::storm`]
//! generates seeded randomized campaigns under explicit safety budgets
//! (minimum gap between injections, maximum concurrently-active faults)
//! so multi-seed chaos runs stay reproducible and bounded.

use crate::rng::DeterministicRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, ProcessId};
use crate::world::World;

/// One fault — or repair — a chaos plan can inject.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Crash a single process (it stops receiving messages and timers).
    CrashProcess(ProcessId),
    /// Crash a node: every process on it dies and traffic stops flowing.
    CrashNode(NodeId),
    /// Restart a crashed node (crashed processes stay dead; new ones may
    /// be spawned onto it).
    RestartNode(NodeId),
    /// Symmetric partition: block all traffic between the two groups.
    Partition(Vec<NodeId>, Vec<NodeId>),
    /// Asymmetric partition: block traffic `from → to` only.
    PartitionOneWay(NodeId, NodeId),
    /// Heal every standing partition.
    HealAll,
    /// Heal both directions between one node pair, leaving other
    /// partitions in place.
    HealPair(NodeId, NodeId),
    /// Set the global message-loss probability (transient communication
    /// faults; `0.0` repairs).
    LossRate(f64),
    /// Multiply CPU costs on a node — a timing fault (`1.0` repairs).
    Slowdown(NodeId, f64),
    /// Gray link: set the loss probability of the directed link
    /// `from → to` only (`0.0` repairs).
    LinkLoss(NodeId, NodeId, f64),
    /// Gray link: add `base` plus up to `jitter` of FIFO-preserving delay
    /// to the directed link `from → to` (both zero repairs).
    LinkDelay(NodeId, NodeId, SimDuration, SimDuration),
    /// Timing fault: offset the clock actors on a node perceive by the
    /// given microseconds, positive or negative (`0` repairs).
    ClockSkew(NodeId, i64),
}

impl ChaosAction {
    /// Whether this action repairs (rather than injects) a fault: node
    /// restarts, heals, zero loss, zero delay, unit slowdown, zero skew.
    pub fn is_repair(&self) -> bool {
        match self {
            ChaosAction::RestartNode(_) | ChaosAction::HealAll | ChaosAction::HealPair(_, _) => {
                true
            }
            ChaosAction::LossRate(p) => *p == 0.0,
            ChaosAction::Slowdown(_, f) => *f == 1.0,
            ChaosAction::LinkLoss(_, _, p) => *p == 0.0,
            ChaosAction::LinkDelay(_, _, base, jitter) => base.is_zero() && jitter.is_zero(),
            ChaosAction::ClockSkew(_, skew_us) => *skew_us == 0,
            ChaosAction::CrashProcess(_)
            | ChaosAction::CrashNode(_)
            | ChaosAction::Partition(_, _)
            | ChaosAction::PartitionOneWay(_, _) => false,
        }
    }
}

/// A [`ChaosAction`] bound to a virtual instant.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStep {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: ChaosAction,
}

/// A declarative fault campaign: a list of timed steps, built either by
/// hand (builder methods) or by the seeded [`FaultPlan::storm`] generator,
/// then compiled onto a world's control queue with [`FaultPlan::schedule`].
///
/// # Examples
///
/// ```
/// use vd_simnet::chaos::FaultPlan;
/// use vd_simnet::prelude::*;
///
/// let plan = FaultPlan::new()
///     .crash_node(SimTime::from_millis(10), NodeId(1))
///     .loss_rate(SimTime::from_millis(20), 0.05)
///     .restart_node(SimTime::from_millis(40), NodeId(1))
///     .loss_rate(SimTime::from_millis(50), 0.0);
/// assert_eq!(plan.steps().len(), 4);
///
/// let mut world = World::new(Topology::full_mesh(2), 7);
/// plan.schedule(&mut world);
/// world.run_until(SimTime::from_millis(15));
/// assert!(!world.is_node_up(NodeId(1)));
/// world.run_until(SimTime::from_millis(60));
/// assert!(world.is_node_up(NodeId(1)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    steps: Vec<FaultStep>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends an arbitrary step.
    pub fn step(mut self, at: SimTime, action: ChaosAction) -> Self {
        self.steps.push(FaultStep { at, action });
        self
    }

    /// Crashes process `pid` at `at`.
    pub fn crash_process(self, at: SimTime, pid: ProcessId) -> Self {
        self.step(at, ChaosAction::CrashProcess(pid))
    }

    /// Crashes node `node` at `at`.
    pub fn crash_node(self, at: SimTime, node: NodeId) -> Self {
        self.step(at, ChaosAction::CrashNode(node))
    }

    /// Restarts node `node` at `at`.
    pub fn restart_node(self, at: SimTime, node: NodeId) -> Self {
        self.step(at, ChaosAction::RestartNode(node))
    }

    /// Symmetrically partitions `left` from `right` at `at`.
    pub fn partition(self, at: SimTime, left: Vec<NodeId>, right: Vec<NodeId>) -> Self {
        self.step(at, ChaosAction::Partition(left, right))
    }

    /// Blocks traffic `from → to` only, at `at`.
    pub fn partition_oneway(self, at: SimTime, from: NodeId, to: NodeId) -> Self {
        self.step(at, ChaosAction::PartitionOneWay(from, to))
    }

    /// Heals all partitions at `at`.
    pub fn heal_all(self, at: SimTime) -> Self {
        self.step(at, ChaosAction::HealAll)
    }

    /// Heals both directions between `a` and `b` at `at`.
    pub fn heal_pair(self, at: SimTime, a: NodeId, b: NodeId) -> Self {
        self.step(at, ChaosAction::HealPair(a, b))
    }

    /// Sets the message-loss probability at `at`.
    pub fn loss_rate(self, at: SimTime, p: f64) -> Self {
        self.step(at, ChaosAction::LossRate(p))
    }

    /// Applies CPU slowdown `factor` to `node` at `at`.
    pub fn slowdown(self, at: SimTime, node: NodeId, factor: f64) -> Self {
        self.step(at, ChaosAction::Slowdown(node, factor))
    }

    /// Makes the link between `a` and `b` lossy in both directions at `at`
    /// (two directed steps; `0.0` repairs both).
    pub fn link_loss(self, at: SimTime, a: NodeId, b: NodeId, p: f64) -> Self {
        self.step(at, ChaosAction::LinkLoss(a, b, p))
            .step(at, ChaosAction::LinkLoss(b, a, p))
    }

    /// Makes the directed link `from → to` lossy at `at` (asymmetric gray
    /// link; `0.0` repairs).
    pub fn link_loss_oneway(self, at: SimTime, from: NodeId, to: NodeId, p: f64) -> Self {
        self.step(at, ChaosAction::LinkLoss(from, to, p))
    }

    /// Adds FIFO-preserving delay to the link between `a` and `b` in both
    /// directions at `at` (both zero repairs).
    pub fn link_delay(
        self,
        at: SimTime,
        a: NodeId,
        b: NodeId,
        base: SimDuration,
        jitter: SimDuration,
    ) -> Self {
        self.step(at, ChaosAction::LinkDelay(a, b, base, jitter))
            .step(at, ChaosAction::LinkDelay(b, a, base, jitter))
    }

    /// Adds FIFO-preserving delay to the directed link `from → to` only at
    /// `at` (asymmetric slowness; both zero repairs).
    pub fn link_delay_oneway(
        self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        base: SimDuration,
        jitter: SimDuration,
    ) -> Self {
        self.step(at, ChaosAction::LinkDelay(from, to, base, jitter))
    }

    /// Offsets the clock perceived on `node` by `skew_us` microseconds at
    /// `at` (`0` repairs).
    pub fn clock_skew(self, at: SimTime, node: NodeId, skew_us: i64) -> Self {
        self.step(at, ChaosAction::ClockSkew(node, skew_us))
    }

    /// The plan's steps, in insertion order.
    pub fn steps(&self) -> &[FaultStep] {
        &self.steps
    }

    /// Whether the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Concatenates another plan's steps onto this one.
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.steps.extend(other.steps);
        self
    }

    /// Compiles every step onto the world's control queue. Steps fire in
    /// time order (ties in insertion order); scheduling consumes no
    /// randomness, so a plan perturbs a run only at its fault instants.
    pub fn schedule(&self, world: &mut World) {
        for s in &self.steps {
            world.fault_at(s.action.clone(), s.at);
        }
    }

    /// Generates a seeded randomized fault storm under the budgets in
    /// `cfg`. The generator guarantees:
    ///
    /// * consecutive injections are at least [`StormConfig::min_gap`]
    ///   apart;
    /// * at most [`StormConfig::max_concurrent`] faults are active at any
    ///   instant (a crash is active until its restart, a partition until
    ///   its heal, a loss burst until loss returns to zero, a slowdown
    ///   until the factor returns to `1.0`);
    /// * every injected fault is paired with its repair no later than
    ///   [`StormConfig::end`], so the storm leaves the world clean.
    ///
    /// The same config always produces the same plan.
    pub fn storm(cfg: &StormConfig) -> FaultPlan {
        let mut rng = DeterministicRng::new(cfg.seed);
        let mut plan = FaultPlan::new();
        // Faults currently active, as (repair_time, kind-specific key).
        let mut down_nodes: Vec<(SimTime, NodeId)> = Vec::new();
        let mut cut_pairs: Vec<(SimTime, (NodeId, NodeId))> = Vec::new();
        let mut loss_until: Option<SimTime> = None;
        let mut slow_nodes: Vec<(SimTime, NodeId)> = Vec::new();
        let mut loss_links: Vec<(SimTime, (NodeId, NodeId))> = Vec::new();
        let mut delay_links: Vec<(SimTime, (NodeId, NodeId))> = Vec::new();
        let mut skew_nodes_active: Vec<(SimTime, NodeId)> = Vec::new();

        // Quorum clamp (see `StormConfig::protected_nodes` /
        // `StormConfig::min_healthy`): node-scoped faults never target a
        // protected node, and the set of distinct concurrently node-faulted
        // machines never exceeds the eligible population minus the floor.
        let crash_eligible: Vec<NodeId> = cfg
            .crash_nodes
            .iter()
            .copied()
            .filter(|n| !cfg.protected_nodes.contains(n))
            .collect();
        let skew_eligible: Vec<NodeId> = cfg
            .skew_nodes
            .iter()
            .copied()
            .filter(|n| !cfg.protected_nodes.contains(n))
            .collect();
        let universe: std::collections::BTreeSet<NodeId> = crash_eligible
            .iter()
            .chain(skew_eligible.iter())
            .copied()
            .collect();
        let node_budget = universe.len().saturating_sub(cfg.min_healthy);
        let gray_delay_enabled = !cfg.link_delay_base.is_zero() || !cfg.link_delay_jitter.is_zero();

        let gap_us = cfg.min_gap.as_micros().max(1);
        let mut t = cfg.start;
        loop {
            // Next injection instant: min_gap plus up to one extra gap of
            // deterministic jitter.
            let jitter = rng.gen_range_u64(0..=gap_us);
            t += SimDuration::from_micros(gap_us + jitter);
            if t >= cfg.end {
                break;
            }
            // Retire repairs that have fired by now.
            down_nodes.retain(|(until, _)| *until > t);
            cut_pairs.retain(|(until, _)| *until > t);
            slow_nodes.retain(|(until, _)| *until > t);
            loss_links.retain(|(until, _)| *until > t);
            delay_links.retain(|(until, _)| *until > t);
            skew_nodes_active.retain(|(until, _)| *until > t);
            if loss_until.is_some_and(|until| until <= t) {
                loss_until = None;
            }
            let active = down_nodes.len()
                + cut_pairs.len()
                + slow_nodes.len()
                + loss_links.len()
                + delay_links.len()
                + skew_nodes_active.len()
                + usize::from(loss_until.is_some());
            if active >= cfg.max_concurrent {
                continue;
            }
            // Distinct machines currently under a node-scoped fault; if the
            // floor would be violated, new node faults may only re-target
            // already-faulted machines (e.g. skewing a slowed node).
            let faulted: std::collections::BTreeSet<NodeId> = down_nodes
                .iter()
                .chain(slow_nodes.iter())
                .chain(skew_nodes_active.iter())
                .map(|&(_, n)| n)
                .collect();
            let may_fault_fresh_node = faulted.len() < node_budget;
            let node_free = |pool: &[NodeId], taken: &Vec<(SimTime, NodeId)>| -> Vec<NodeId> {
                pool.iter()
                    .copied()
                    .filter(|n| !taken.iter().any(|(_, s)| s == n))
                    .filter(|n| may_fault_fresh_node || faulted.contains(n))
                    .collect()
            };
            // Fault lifetime, bounded to [mean/2, 3·mean/2] and clipped so
            // the repair lands before the horizon.
            let mean_us = cfg.mean_active.as_micros().max(2);
            let dur =
                SimDuration::from_micros(rng.gen_range_u64(mean_us / 2..=mean_us + mean_us / 2));
            let mut until = t + dur;
            if until > cfg.end {
                until = cfg.end;
            }

            // Eligible fault kinds, in fixed order for determinism. The
            // gray kinds come last so configs that leave them disabled
            // generate byte-identical plans to pre-gray storms.
            #[derive(Clone, Copy)]
            enum Kind {
                Crash,
                Cut,
                Loss,
                Slow,
                GrayLoss,
                GrayDelay,
                Skew,
            }
            let crash_free = node_free(&crash_eligible, &down_nodes);
            let slow_free = node_free(&crash_eligible, &slow_nodes);
            let skew_free = node_free(&skew_eligible, &skew_nodes_active);
            let gray_loss_free: Vec<(NodeId, NodeId)> = cfg
                .gray_pairs
                .iter()
                .copied()
                .filter(|p| !loss_links.iter().any(|(_, l)| l == p))
                .collect();
            let gray_delay_free: Vec<(NodeId, NodeId)> = cfg
                .gray_pairs
                .iter()
                .copied()
                .filter(|p| !delay_links.iter().any(|(_, l)| l == p))
                .collect();
            let mut kinds: Vec<Kind> = Vec::new();
            if !crash_free.is_empty() {
                kinds.push(Kind::Crash);
            }
            if cfg
                .partition_pairs
                .iter()
                .any(|p| !cut_pairs.iter().any(|(_, c)| c == p))
            {
                kinds.push(Kind::Cut);
            }
            if cfg.max_loss > 0.0 && loss_until.is_none() {
                kinds.push(Kind::Loss);
            }
            if cfg.slowdown_factor > 1.0 && !slow_free.is_empty() {
                kinds.push(Kind::Slow);
            }
            if cfg.max_link_loss > 0.0 && !gray_loss_free.is_empty() {
                kinds.push(Kind::GrayLoss);
            }
            if gray_delay_enabled && !gray_delay_free.is_empty() {
                kinds.push(Kind::GrayDelay);
            }
            if !cfg.max_clock_skew.is_zero() && !skew_free.is_empty() {
                kinds.push(Kind::Skew);
            }
            if kinds.is_empty() {
                continue;
            }
            let kind = kinds[rng.gen_range_u64(0..=(kinds.len() as u64 - 1)) as usize];
            match kind {
                Kind::Crash => {
                    let node =
                        crash_free[rng.gen_range_u64(0..=(crash_free.len() as u64 - 1)) as usize];
                    plan = plan.crash_node(t, node).restart_node(until, node);
                    down_nodes.push((until, node));
                }
                Kind::Cut => {
                    let free: Vec<(NodeId, NodeId)> = cfg
                        .partition_pairs
                        .iter()
                        .copied()
                        .filter(|p| !cut_pairs.iter().any(|(_, c)| c == p))
                        .collect();
                    let (a, b) = free[rng.gen_range_u64(0..=(free.len() as u64 - 1)) as usize];
                    // Half the cuts are asymmetric (one-way) link failures.
                    if rng.gen_bool(0.5) {
                        plan = plan.partition_oneway(t, a, b);
                    } else {
                        plan = plan.partition(t, vec![a], vec![b]);
                    }
                    plan = plan.heal_pair(until, a, b);
                    cut_pairs.push((until, (a, b)));
                }
                Kind::Loss => {
                    let p = cfg.max_loss * (0.25 + 0.75 * rng.gen_f64());
                    plan = plan.loss_rate(t, p).loss_rate(until, 0.0);
                    loss_until = Some(until);
                }
                Kind::Slow => {
                    let node =
                        slow_free[rng.gen_range_u64(0..=(slow_free.len() as u64 - 1)) as usize];
                    plan = plan
                        .slowdown(t, node, cfg.slowdown_factor)
                        .slowdown(until, node, 1.0);
                    slow_nodes.push((until, node));
                }
                Kind::GrayLoss => {
                    let (a, b) = gray_loss_free
                        [rng.gen_range_u64(0..=(gray_loss_free.len() as u64 - 1)) as usize];
                    // Gray links are naturally asymmetric: pick a direction.
                    let (from, to) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                    let p = cfg.max_link_loss * (0.25 + 0.75 * rng.gen_f64());
                    plan = plan
                        .link_loss_oneway(t, from, to, p)
                        .link_loss_oneway(until, from, to, 0.0);
                    loss_links.push((until, (a, b)));
                }
                Kind::GrayDelay => {
                    let (a, b) = gray_delay_free
                        [rng.gen_range_u64(0..=(gray_delay_free.len() as u64 - 1)) as usize];
                    let (from, to) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                    plan = plan
                        .link_delay_oneway(t, from, to, cfg.link_delay_base, cfg.link_delay_jitter)
                        .link_delay_oneway(until, from, to, SimDuration::ZERO, SimDuration::ZERO);
                    delay_links.push((until, (a, b)));
                }
                Kind::Skew => {
                    let node =
                        skew_free[rng.gen_range_u64(0..=(skew_free.len() as u64 - 1)) as usize];
                    let magnitude = cfg.max_clock_skew.as_micros().max(1);
                    let us = (magnitude as f64 * (0.25 + 0.75 * rng.gen_f64())) as i64;
                    let skew = if rng.gen_bool(0.5) { us } else { -us };
                    plan = plan.clock_skew(t, node, skew).clock_skew(until, node, 0);
                    skew_nodes_active.push((until, node));
                }
            }
        }
        plan
    }
}

/// Budgets and fault population for a seeded [`FaultPlan::storm`].
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Seed for the storm's private deterministic RNG.
    pub seed: u64,
    /// First instant a fault may be injected.
    pub start: SimTime,
    /// Horizon: no injections at or after this instant, and every repair
    /// is clipped to land by it.
    pub end: SimTime,
    /// Minimum virtual-time gap between consecutive injections.
    pub min_gap: SimDuration,
    /// Maximum number of simultaneously-active faults.
    pub max_concurrent: usize,
    /// Nodes eligible for crash/restart and slowdown faults.
    pub crash_nodes: Vec<NodeId>,
    /// Node pairs eligible for (possibly one-way) partitions.
    pub partition_pairs: Vec<(NodeId, NodeId)>,
    /// Peak message-loss probability for loss bursts (`0.0` disables
    /// loss faults).
    pub max_loss: f64,
    /// CPU slowdown factor applied by timing faults (`≤ 1.0` disables
    /// slowdown faults).
    pub slowdown_factor: f64,
    /// Mean time a fault stays active before its paired repair.
    pub mean_active: SimDuration,
    /// Node pairs eligible for gray-link faults (one-way loss and delay).
    pub gray_pairs: Vec<(NodeId, NodeId)>,
    /// Peak per-link loss probability for gray-loss faults (`0.0`
    /// disables them).
    pub max_link_loss: f64,
    /// Base added delay for gray-delay faults (with
    /// [`StormConfig::link_delay_jitter`] both zero, they are disabled).
    pub link_delay_base: SimDuration,
    /// Jitter bound for gray-delay faults.
    pub link_delay_jitter: SimDuration,
    /// Nodes eligible for clock-skew faults.
    pub skew_nodes: Vec<NodeId>,
    /// Peak clock-skew magnitude (sign is drawn per fault; zero disables
    /// skew faults).
    pub max_clock_skew: SimDuration,
    /// Nodes that must never receive a node-scoped fault (crash, CPU
    /// slowdown, clock skew) — e.g. the recovery-manager hosts. Gray link
    /// and partition faults are pairwise and remain routable around, so
    /// they are not filtered.
    pub protected_nodes: Vec<NodeId>,
    /// Quorum floor: at least this many of the node-fault-eligible
    /// machines are kept free of node-scoped faults at every instant, so a
    /// generated plan can never make a quorum unreachable by construction
    /// (set it to the managed groups' `min_view`). `0` disables the clamp.
    pub min_healthy: usize,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            seed: 0,
            start: SimTime::from_millis(10),
            end: SimTime::from_millis(500),
            min_gap: SimDuration::from_millis(50),
            max_concurrent: 1,
            crash_nodes: Vec::new(),
            partition_pairs: Vec::new(),
            max_loss: 0.0,
            slowdown_factor: 1.0,
            mean_active: SimDuration::from_millis(30),
            gray_pairs: Vec::new(),
            max_link_loss: 0.0,
            link_delay_base: SimDuration::ZERO,
            link_delay_jitter: SimDuration::ZERO,
            skew_nodes: Vec::new(),
            max_clock_skew: SimDuration::ZERO,
            protected_nodes: Vec::new(),
            min_healthy: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn storm_cfg(seed: u64) -> StormConfig {
        StormConfig {
            seed,
            start: SimTime::from_millis(5),
            end: SimTime::from_millis(2_000),
            min_gap: SimDuration::from_millis(40),
            max_concurrent: 2,
            crash_nodes: vec![NodeId(1), NodeId(2)],
            partition_pairs: vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))],
            max_loss: 0.1,
            slowdown_factor: 4.0,
            mean_active: SimDuration::from_millis(60),
            ..StormConfig::default()
        }
    }

    /// A storm with every gray-failure verb enabled on top of the classic
    /// crash/cut/loss/slow population.
    fn gray_storm_cfg(seed: u64) -> StormConfig {
        StormConfig {
            gray_pairs: vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))],
            max_link_loss: 0.5,
            link_delay_base: SimDuration::from_millis(2),
            link_delay_jitter: SimDuration::from_millis(1),
            skew_nodes: vec![NodeId(1), NodeId(2)],
            max_clock_skew: SimDuration::from_millis(40),
            max_concurrent: 3,
            ..storm_cfg(seed)
        }
    }

    #[test]
    fn storm_is_deterministic() {
        let a = FaultPlan::storm(&storm_cfg(7));
        let b = FaultPlan::storm(&storm_cfg(7));
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let c = FaultPlan::storm(&storm_cfg(8));
        assert_ne!(a, c, "different seeds should differ");
        // The gray verbs are deterministic too, and actually generated.
        let g1 = FaultPlan::storm(&gray_storm_cfg(7));
        let g2 = FaultPlan::storm(&gray_storm_cfg(7));
        assert_eq!(g1, g2);
        // Across a handful of seeds every gray kind appears.
        let merged = (7..12u64).fold(FaultPlan::new(), |acc, seed| {
            acc.merge(FaultPlan::storm(&gray_storm_cfg(seed)))
        });
        let has = |pred: fn(&ChaosAction) -> bool| merged.steps().iter().any(|s| pred(&s.action));
        assert!(
            has(|a| matches!(a, ChaosAction::LinkLoss(_, _, p) if *p > 0.0)),
            "gray storms should inject link loss"
        );
        assert!(
            has(|a| matches!(a, ChaosAction::LinkDelay(_, _, b, _) if !b.is_zero())),
            "gray storm should inject link delay"
        );
        assert!(
            has(|a| matches!(a, ChaosAction::ClockSkew(_, s) if *s != 0)),
            "gray storm should inject clock skew"
        );
    }

    #[test]
    fn storm_without_gray_knobs_never_emits_gray_verbs() {
        // Old configs must keep generating exactly the classic fault mix.
        let plan = FaultPlan::storm(&storm_cfg(21));
        assert!(plan.steps().iter().all(|s| !matches!(
            s.action,
            ChaosAction::LinkLoss(..) | ChaosAction::LinkDelay(..) | ChaosAction::ClockSkew(..)
        )));
    }

    #[test]
    fn storm_respects_min_gap_between_injections() {
        let cfg = storm_cfg(11);
        let plan = FaultPlan::storm(&cfg);
        let mut injections: Vec<SimTime> = plan
            .steps()
            .iter()
            .filter(|s| !s.action.is_repair())
            .map(|s| s.at)
            .collect();
        injections.sort();
        assert!(injections.len() >= 2, "storm too quiet to test");
        for w in injections.windows(2) {
            let gap = w[1].duration_since(w[0]);
            assert!(
                gap >= cfg.min_gap,
                "injections {} and {} only {:?} apart",
                w[0].as_micros(),
                w[1].as_micros(),
                gap
            );
        }
    }

    fn assert_budget_and_repairs(cfg: &StormConfig) {
        let plan = FaultPlan::storm(cfg);
        // Replay the plan counting active faults.
        let mut steps: Vec<&FaultStep> = plan.steps().iter().collect();
        steps.sort_by_key(|s| s.at);
        let mut active = 0usize;
        let mut peak = 0usize;
        for s in &steps {
            if s.action.is_repair() {
                active = active.saturating_sub(1);
            } else {
                active += 1;
                peak = peak.max(active);
            }
        }
        assert!(peak >= 1);
        assert!(
            peak <= cfg.max_concurrent,
            "peak {peak} exceeds budget {}",
            cfg.max_concurrent
        );
        assert_eq!(active, 0, "storm must repair everything it breaks");
        assert!(steps.iter().all(|s| s.at <= cfg.end));
    }

    #[test]
    fn storm_respects_concurrency_budget_and_repairs_all() {
        assert_budget_and_repairs(&storm_cfg(13));
        // The gray verbs obey the same budget/repair discipline.
        for seed in [13, 29, 31] {
            assert_budget_and_repairs(&gray_storm_cfg(seed));
        }
    }

    #[test]
    fn storm_clamps_node_faults_to_quorum_floor() {
        // 4 eligible machines, node 0 protected (manager host), floor of
        // 2 healthy: across many seeds, no plan may ever have 2+ distinct
        // machines node-faulted at once (4 eligible − protected 0 = 3,
        // minus floor 2 = budget 1), and node 0 is never targeted.
        for seed in 0..20u64 {
            let cfg = StormConfig {
                seed,
                start: SimTime::from_millis(5),
                end: SimTime::from_millis(3_000),
                min_gap: SimDuration::from_millis(30),
                max_concurrent: 4,
                crash_nodes: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
                slowdown_factor: 8.0,
                skew_nodes: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
                max_clock_skew: SimDuration::from_millis(50),
                protected_nodes: vec![NodeId(0)],
                min_healthy: 2,
                mean_active: SimDuration::from_millis(80),
                ..StormConfig::default()
            };
            let plan = FaultPlan::storm(&cfg);
            let mut steps: Vec<&FaultStep> = plan.steps().iter().collect();
            steps.sort_by_key(|s| s.at);
            let mut down: std::collections::BTreeSet<NodeId> = Default::default();
            let mut slow: std::collections::BTreeSet<NodeId> = Default::default();
            let mut skewed: std::collections::BTreeSet<NodeId> = Default::default();
            for s in &steps {
                match s.action {
                    ChaosAction::CrashNode(n) => {
                        down.insert(n);
                    }
                    ChaosAction::RestartNode(n) => {
                        down.remove(&n);
                    }
                    ChaosAction::Slowdown(n, f) => {
                        assert_ne!(n, NodeId(0), "protected node slowed (seed {seed})");
                        if f == 1.0 {
                            slow.remove(&n);
                        } else {
                            slow.insert(n);
                        }
                    }
                    ChaosAction::ClockSkew(n, us) => {
                        assert_ne!(n, NodeId(0), "protected node skewed (seed {seed})");
                        if us == 0 {
                            skewed.remove(&n);
                        } else {
                            skewed.insert(n);
                        }
                    }
                    ChaosAction::CrashProcess(_)
                    | ChaosAction::Partition(..)
                    | ChaosAction::PartitionOneWay(..)
                    | ChaosAction::HealAll
                    | ChaosAction::HealPair(..)
                    | ChaosAction::LossRate(_)
                    | ChaosAction::LinkLoss(..)
                    | ChaosAction::LinkDelay(..) => {}
                }
                assert!(
                    !down.contains(&NodeId(0)),
                    "protected node crashed (seed {seed})"
                );
                let distinct: std::collections::BTreeSet<NodeId> = down
                    .iter()
                    .chain(slow.iter())
                    .chain(skewed.iter())
                    .copied()
                    .collect();
                assert!(
                    distinct.len() <= 1,
                    "seed {seed}: {} machines node-faulted at {} (budget 1)",
                    distinct.len(),
                    s.at.as_micros()
                );
            }
        }
    }

    #[test]
    fn schedule_compiles_onto_control_queue() {
        let mut world = World::new(Topology::full_mesh(3), 3);
        let plan = FaultPlan::new()
            .crash_node(SimTime::from_millis(1), NodeId(2))
            .loss_rate(SimTime::from_millis(2), 0.5)
            .partition_oneway(SimTime::from_millis(3), NodeId(0), NodeId(1))
            .restart_node(SimTime::from_millis(4), NodeId(2))
            .heal_pair(SimTime::from_millis(5), NodeId(0), NodeId(1))
            .loss_rate(SimTime::from_millis(6), 0.0);
        plan.schedule(&mut world);
        world.run_until(SimTime::from_micros(3_500));
        assert!(!world.is_node_up(NodeId(2)));
        assert_eq!(world.fault().drop_probability(), 0.5);
        assert!(world.fault().is_blocked(NodeId(0), NodeId(1)));
        assert!(!world.fault().is_blocked(NodeId(1), NodeId(0)));
        world.run_until(SimTime::from_millis(7));
        assert!(world.is_node_up(NodeId(2)));
        assert_eq!(world.fault().drop_probability(), 0.0);
        assert!(!world.fault().is_blocked(NodeId(0), NodeId(1)));
    }

    #[test]
    fn gray_verbs_compile_onto_control_queue() {
        let mut world = World::new(Topology::full_mesh(3), 3);
        let plan = FaultPlan::new()
            .link_loss(SimTime::from_millis(1), NodeId(0), NodeId(1), 0.3)
            .link_delay_oneway(
                SimTime::from_millis(1),
                NodeId(1),
                NodeId(2),
                SimDuration::from_millis(2),
                SimDuration::from_micros(500),
            )
            .clock_skew(SimTime::from_millis(1), NodeId(2), -750)
            .link_loss(SimTime::from_millis(4), NodeId(0), NodeId(1), 0.0)
            .link_delay_oneway(
                SimTime::from_millis(4),
                NodeId(1),
                NodeId(2),
                SimDuration::ZERO,
                SimDuration::ZERO,
            )
            .clock_skew(SimTime::from_millis(4), NodeId(2), 0);
        plan.schedule(&mut world);
        world.run_until(SimTime::from_millis(2));
        // Symmetric builder set both directions; delay verb one only.
        assert_eq!(world.fault().link_loss(NodeId(0), NodeId(1)), 0.3);
        assert_eq!(world.fault().link_loss(NodeId(1), NodeId(0)), 0.3);
        assert_eq!(
            world.fault().link_delay(NodeId(1), NodeId(2)),
            Some((SimDuration::from_millis(2), SimDuration::from_micros(500)))
        );
        assert_eq!(world.fault().link_delay(NodeId(2), NodeId(1)), None);
        assert_eq!(world.node_state(NodeId(2)).clock_skew_us(), -750);
        world.run_until(SimTime::from_millis(5));
        assert_eq!(world.fault().link_loss(NodeId(0), NodeId(1)), 0.0);
        assert!(!world.fault().has_link_delays());
        assert_eq!(world.node_state(NodeId(2)).clock_skew_us(), 0);
    }

    #[test]
    fn merge_concatenates_and_repair_classification() {
        let a = FaultPlan::new().crash_node(SimTime::from_millis(1), NodeId(0));
        let b = FaultPlan::new().restart_node(SimTime::from_millis(2), NodeId(0));
        let merged = a.merge(b);
        assert_eq!(merged.steps().len(), 2);
        assert!(!merged.steps()[0].action.is_repair());
        assert!(merged.steps()[1].action.is_repair());
        assert!(ChaosAction::LossRate(0.0).is_repair());
        assert!(!ChaosAction::LossRate(0.1).is_repair());
        assert!(ChaosAction::Slowdown(NodeId(0), 1.0).is_repair());
        assert!(!ChaosAction::Slowdown(NodeId(0), 2.0).is_repair());
        assert!(ChaosAction::HealAll.is_repair());
    }
}
