//! Property tests for the simulation substrate: scheduler determinism and
//! monotonicity, histogram statistics, and latency-model bounds.
//!
//! Cases are generated from a [`DeterministicRng`] with fixed seeds so every
//! run explores the same schedules and failures reproduce exactly.

use vd_simnet::metrics::Histogram;
use vd_simnet::prelude::*;
use vd_simnet::rng::DeterministicRng;

#[derive(Debug)]
struct Ball(u64);
impl Payload for Ball {
    fn wire_size(&self) -> usize {
        16
    }
}

/// Bounces a ball around `n` actors for a while; records delivery order.
struct Bouncer {
    peers: Vec<ProcessId>,
    hops_left: u32,
    log: Vec<u64>,
}

impl Actor for Bouncer {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, payload: Box<dyn Payload>) {
        if let Ok(ball) = vd_simnet::actor::downcast_payload::<Ball>(payload) {
            self.log.push(ball.0);
            if self.hops_left > 0 {
                self.hops_left -= 1;
                let idx = (ctx.rng().gen_range_u64(0..=u64::MAX) as usize) % self.peers.len();
                let next = self.peers[idx];
                let cost = ctx.rng().gen_range_u64(1..=50);
                ctx.use_cpu(SimDuration::from_micros(cost));
                ctx.send(next, Ball(ball.0 + 1));
            }
        }
    }

    fn state_digest(&self) -> Option<u64> {
        None
    }
}

fn run_world(seed: u64, nodes: u32, loss: f64) -> (u64, Vec<Vec<u64>>) {
    let mut topo = Topology::full_mesh(nodes);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(20),
        SimDuration::from_micros(40),
    )));
    let mut world = World::new(topo, seed);
    world.set_drop_probability(loss);
    let peers: Vec<ProcessId> = (0..nodes as u64).map(ProcessId).collect();
    let pids: Vec<ProcessId> = (0..nodes)
        .map(|i| {
            world.spawn(
                NodeId(i),
                Box::new(Bouncer {
                    peers: peers.clone(),
                    hops_left: 200,
                    log: Vec::new(),
                }),
            )
        })
        .collect();
    world.inject(pids[0], Ball(0));
    world.run_for(SimDuration::from_secs(1));
    let logs = pids
        .iter()
        .map(|&p| world.actor_ref::<Bouncer>(p).unwrap().log.clone())
        .collect();
    (world.events_processed(), logs)
}

/// The same seed replays the exact event count and per-actor logs, whatever
/// the topology size and loss rate.
#[test]
fn worlds_replay_bit_identically() {
    for case in 0..16u64 {
        let mut rng = DeterministicRng::new(0x5100_0000 + case);
        let seed = rng.next_u64();
        let nodes = rng.gen_range_u64(2..=5) as u32;
        let loss = rng.gen_f64() * 0.4;
        assert_eq!(
            run_world(seed, nodes, loss),
            run_world(seed, nodes, loss),
            "case {case}"
        );
    }
}

/// Virtual time never runs backwards, and run_until always reaches its
/// deadline.
#[test]
fn time_is_monotone() {
    for case in 0..16u64 {
        let mut rng = DeterministicRng::new(0x5100_1000 + case);
        let seed = rng.next_u64();
        let steps = rng.gen_range_u64(1..=19);
        let mut topo = Topology::full_mesh(2);
        topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
            SimDuration::from_micros(10),
            SimDuration::from_micros(90),
        )));
        let mut world = World::new(topo, seed);
        let peers = vec![ProcessId(0), ProcessId(1)];
        let a = world.spawn(
            NodeId(0),
            Box::new(Bouncer {
                peers: peers.clone(),
                hops_left: 500,
                log: vec![],
            }),
        );
        world.inject(a, Ball(0));
        let mut last = world.now();
        for i in 1..=steps {
            let deadline = SimTime::from_millis(i * 3);
            world.run_until(deadline);
            assert!(world.now() >= last, "case {case}");
            assert_eq!(world.now(), deadline.max(last), "case {case}");
            last = world.now();
        }
    }
}

/// Histogram statistics agree with a straightforward reference
/// implementation.
#[test]
fn histogram_matches_reference() {
    for case in 0..64u64 {
        let mut rng = DeterministicRng::new(0x5100_2000 + case);
        let count = rng.gen_range_u64(1..=199) as usize;
        let samples: Vec<u64> = (0..count).map(|_| rng.gen_range_u64(0..=999_999)).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_micros(s));
        }
        let mean_ref = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        assert!((h.mean_micros_f64() - mean_ref).abs() < 1e-6, "case {case}");
        assert_eq!(
            h.min().as_micros(),
            *samples.iter().min().unwrap(),
            "case {case}"
        );
        assert_eq!(
            h.max().as_micros(),
            *samples.iter().max().unwrap(),
            "case {case}"
        );
        // Quantiles are actual samples and ordered.
        let q50 = h.quantile(0.5);
        let q90 = h.quantile(0.9);
        assert!(samples.contains(&q50.as_micros()), "case {case}");
        assert!(q50 <= q90, "case {case}");
        // Standard deviation matches the population formula.
        let var_ref = samples
            .iter()
            .map(|&s| (s as f64 - mean_ref).powi(2))
            .sum::<f64>()
            / samples.len() as f64;
        assert!(
            (h.std_dev_micros() - var_ref.sqrt()).abs() < 1e-6,
            "case {case}"
        );
    }
}

/// Latency models always produce samples inside their declared bounds.
#[test]
fn latency_models_respect_bounds() {
    for case in 0..64u64 {
        let mut meta = DeterministicRng::new(0x5100_3000 + case);
        let base = meta.gen_range_u64(0..=9_999);
        let jitter = meta.gen_range_u64(0..=4_999);
        let seed = meta.next_u64();
        let model = LatencyModel::uniform(
            SimDuration::from_micros(base),
            SimDuration::from_micros(jitter),
        );
        let mut rng = DeterministicRng::new(seed);
        for _ in 0..100 {
            let d = model.sample(&mut rng);
            assert!(d >= SimDuration::from_micros(base), "case {case}");
            assert!(d <= SimDuration::from_micros(base + jitter), "case {case}");
        }
    }
}

/// Fires `Ball(seq)` at a fixed peer: a burst in the first handler, then
/// one per timer tick, covering both same-instant and spread-out sends.
struct SequencedSender {
    target: ProcessId,
    next: u64,
    total: u64,
}

impl Actor for SequencedSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..5 {
            ctx.send(self.target, Ball(self.next));
            self.next += 1;
        }
        ctx.set_timer(SimDuration::from_micros(150), TimerToken(1));
    }
    fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: Box<dyn Payload>) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
        if self.next < self.total {
            ctx.send(self.target, Ball(self.next));
            self.next += 1;
            ctx.set_timer(SimDuration::from_micros(150), TimerToken(1));
        }
    }

    fn state_digest(&self) -> Option<u64> {
        None
    }
}

/// Records every received sequence number.
struct SequenceLog {
    log: Vec<u64>,
}

impl Actor for SequenceLog {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, payload: Box<dyn Payload>) {
        if let Ok(ball) = vd_simnet::actor::downcast_payload::<Ball>(payload) {
            self.log.push(ball.0);
        }
    }

    fn state_digest(&self) -> Option<u64> {
        None
    }
}

/// Gray link delay + jitter never reorders messages on the same link: with
/// a constant-latency base link (FIFO by construction), an active
/// delay-jitter fault must preserve pairwise delivery order.
#[test]
fn link_delay_jitter_preserves_fifo_order() {
    for case in 0..16u64 {
        let mut meta = DeterministicRng::new(0x5100_5000 + case);
        let seed = meta.next_u64();
        let base = meta.gen_range_u64(100..=2_000);
        // Jitter far larger than the inter-send gap, so unclamped arrivals
        // would reorder constantly.
        let jitter = meta.gen_range_u64(1_000..=20_000);
        let mut topo = Topology::full_mesh(2);
        topo.set_default_link(LinkConfig::with_latency(LatencyModel::constant(
            SimDuration::from_micros(30),
        )));
        let mut world = World::new(topo, seed);
        world.set_link_delay_at(
            NodeId(0),
            NodeId(1),
            SimDuration::from_micros(base),
            SimDuration::from_micros(jitter),
            SimTime::ZERO,
        );
        let sink = world.spawn(NodeId(1), Box::new(SequenceLog { log: Vec::new() }));
        let total = 40;
        world.spawn(
            NodeId(0),
            Box::new(SequencedSender {
                target: sink,
                next: 0,
                total,
            }),
        );
        world.run_for(SimDuration::from_secs(1));
        let log = &world.actor_ref::<SequenceLog>(sink).unwrap().log;
        assert_eq!(
            log.len(),
            total as usize,
            "case {case}: nothing may be lost"
        );
        assert!(
            log.windows(2).all(|w| w[0] < w[1]),
            "case {case}: delivery order {log:?} is not FIFO"
        );
    }
}

/// Bernoulli loss converges to its probability (sanity of the fault model's
/// randomness plumbing).
#[test]
fn loss_rate_is_calibrated() {
    for case in 0..16u64 {
        let mut meta = DeterministicRng::new(0x5100_4000 + case);
        let p = 0.05 + meta.gen_f64() * 0.9;
        let seed = meta.next_u64();
        let mut rng = DeterministicRng::new(seed);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.gen_bool(p)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - p).abs() < 0.03, "case {case}: p={p} rate={rate}");
    }
}
