//! Workload generators.
//!
//! The paper's evaluation uses two workload shapes: a closed-loop cycle of
//! 10 000 requests per client (Figs. 3, 4, 7) — provided by
//! `vd_core::client::ReplicatedClientActor` — and a time-varying arrival
//! rate that ramps up and down to drive the adaptive-replication knob
//! (Fig. 6) — provided here by [`OpenLoopClientActor`] following a
//! [`RateProfile`].

use bytes::Bytes;

use vd_core::state::{InvokeResult, ReplicatedApplication};
use vd_orb::client::{ReplyOutcome, RequestTracker};
use vd_orb::object::ObjectKey;
use vd_orb::wire::OrbMessage;
use vd_simnet::actor::{downcast_payload, Actor, Context, Payload, TimerToken};
use vd_simnet::time::{SimDuration, SimTime};
use vd_simnet::topology::ProcessId;

/// A piecewise-linear arrival-rate schedule (requests/second over time).
///
/// # Examples
///
/// ```
/// use vd_bench::workload::RateProfile;
/// use vd_simnet::time::SimTime;
///
/// let ramp = RateProfile::new(vec![
///     (SimTime::ZERO, 0.0),
///     (SimTime::from_secs(10), 1200.0),
///     (SimTime::from_secs(20), 0.0),
/// ]);
/// assert_eq!(ramp.rate_at(SimTime::from_secs(5)), 600.0);
/// assert_eq!(ramp.rate_at(SimTime::from_secs(15)), 600.0);
/// assert_eq!(ramp.rate_at(SimTime::from_secs(30)), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RateProfile {
    points: Vec<(SimTime, f64)>,
}

impl RateProfile {
    /// A profile through the given `(time, rate)` points, linearly
    /// interpolated, constant before the first and after the last point.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or times are not strictly increasing.
    pub fn new(points: Vec<(SimTime, f64)>) -> Self {
        assert!(
            !points.is_empty(),
            "a rate profile needs at least one point"
        );
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "rate profile times must be strictly increasing"
        );
        RateProfile { points }
    }

    /// A constant-rate profile.
    pub fn constant(rate: f64) -> Self {
        RateProfile::new(vec![(SimTime::ZERO, rate)])
    }

    /// The paper's Fig. 6 shape: ramp from idle past the switching
    /// threshold and back down, over `total`.
    pub fn fig6_ramp(total: SimDuration, peak: f64) -> Self {
        let quarter = total / 4;
        RateProfile::new(vec![
            (SimTime::ZERO, peak * 0.1),
            (SimTime::ZERO + quarter, peak * 0.2),
            (SimTime::ZERO + quarter * 2, peak),
            (SimTime::ZERO + quarter * 3, peak * 0.9),
            (SimTime::ZERO + total, peak * 0.05),
        ])
    }

    /// The instantaneous rate at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let first = self.points[0];
        if t <= first.0 {
            return first.1;
        }
        for w in self.points.windows(2) {
            let (t0, r0) = w[0];
            let (t1, r1) = w[1];
            if t <= t1 {
                let span = (t1 - t0).as_secs_f64();
                if span <= 0.0 {
                    return r1;
                }
                let frac = (t - t0).as_secs_f64() / span;
                return r0 + (r1 - r0) * frac;
            }
        }
        self.points.last().expect("non-empty").1
    }

    /// The last point's time: when the profile "ends".
    pub fn end(&self) -> SimTime {
        self.points.last().expect("non-empty").0
    }
}

const SEND_TIMER: TimerToken = TimerToken(300);

/// An open-loop client: issues requests at the profile's rate regardless of
/// completions, tracking served throughput — the Fig. 6 load generator.
pub struct OpenLoopClientActor {
    gateway: ProcessId,
    profile: RateProfile,
    object: ObjectKey,
    operation: String,
    args: Bytes,
    tracker: RequestTracker,
    /// Requests issued (inspection).
    pub issued: u64,
    /// Replies received (inspection).
    pub served: u64,
    /// Histogram name for round trips.
    pub rtt_metric: String,
    /// Time-series name for the served rate (sampled on replies).
    pub stop_at: SimTime,
}

impl OpenLoopClientActor {
    /// A generator aimed at `gateway`, following `profile` until `stop_at`.
    pub fn new(
        gateway: ProcessId,
        profile: RateProfile,
        request_bytes: usize,
        rtt_metric: impl Into<String>,
        stop_at: SimTime,
    ) -> Self {
        OpenLoopClientActor {
            gateway,
            profile,
            object: ObjectKey::new("bench"),
            operation: "cycle".into(),
            args: Bytes::from(vec![0u8; request_bytes]),
            tracker: RequestTracker::new(),
            issued: 0,
            served: 0,
            rtt_metric: "openloop.rtt".into(),
            stop_at,
        }
        .with_metric(rtt_metric)
    }

    fn with_metric(mut self, metric: impl Into<String>) -> Self {
        self.rtt_metric = metric.into();
        self
    }

    fn schedule_next(&mut self, ctx: &mut Context<'_>) {
        if ctx.now() >= self.stop_at {
            return;
        }
        let rate = self.profile.rate_at(ctx.now());
        let gap = if rate <= 0.01 {
            SimDuration::from_millis(100)
        } else {
            SimDuration::from_secs_f64(1.0 / rate)
        };
        ctx.set_timer(gap, SEND_TIMER);
    }

    fn send_one(&mut self, ctx: &mut Context<'_>) {
        let rate = self.profile.rate_at(ctx.now());
        if rate > 0.01 {
            let request = self.tracker.make_request(
                ctx.now(),
                self.object.clone(),
                self.operation.clone(),
                self.args.clone(),
            );
            self.issued += 1;
            ctx.send(self.gateway, OrbMessage::Request(request));
        }
        self.schedule_next(ctx);
    }
}

impl Actor for OpenLoopClientActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.schedule_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, payload: Box<dyn Payload>) {
        let Ok(msg) = downcast_payload::<OrbMessage>(payload) else {
            return;
        };
        let OrbMessage::Reply(reply) = *msg else {
            return;
        };
        let sent = self.tracker.sent_at(reply.request_id);
        if let ReplyOutcome::Accepted(_) = self.tracker.on_reply(reply) {
            self.served += 1;
            if let Some(sent) = sent {
                let rtt = ctx.now() - sent;
                ctx.metrics().histogram(&self.rtt_metric).record(rtt);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if timer == SEND_TIMER {
            self.send_one(ctx);
        }
    }
}

impl std::fmt::Debug for OpenLoopClientActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenLoopClientActor")
            .field("issued", &self.issued)
            .field("served", &self.served)
            .finish()
    }
}

/// The benchmark application: holds `state_bytes` of process state (the
/// checkpoint payload), mutates it deterministically on every request, and
/// answers with `response_bytes` of data — the knob surface the paper's
/// Table 1 calls "size of state" and "size of requests and responses".
pub struct PaddedApp {
    state: Vec<u8>,
    response_bytes: usize,
    processing_micros: u64,
    invocations: u64,
}

impl PaddedApp {
    /// An app with the given state size, response size and per-request CPU
    /// cost (the paper's micro-benchmark uses 15 µs).
    pub fn new(state_bytes: usize, response_bytes: usize, processing_micros: u64) -> Self {
        PaddedApp {
            state: vec![0u8; state_bytes.max(16)],
            response_bytes,
            processing_micros,
            invocations: 0,
        }
    }

    /// Invocations applied to this instance's state.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }
}

impl ReplicatedApplication for PaddedApp {
    fn invoke(&mut self, _operation: &str, _args: &Bytes) -> InvokeResult {
        self.invocations += 1;
        self.state[..8].copy_from_slice(&self.invocations.to_le_bytes());
        // Touch a rotating window of the state so checkpoints carry real
        // changes.
        let idx = 8 + (self.invocations as usize * 13) % (self.state.len() - 8);
        self.state[idx] = self.state[idx].wrapping_add(1);
        let mut body = self.invocations.to_le_bytes().to_vec();
        body.resize(8 + self.response_bytes, 0xAB);
        Ok(Bytes::from(body))
    }

    fn capture_state(&self) -> Bytes {
        Bytes::from(self.state.clone())
    }

    fn restore_state(&mut self, state: &Bytes) {
        self.state = state.to_vec();
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.state[..8]);
        self.invocations = u64::from_le_bytes(raw);
    }

    fn processing_micros(&self, _operation: &str) -> u64 {
        self.processing_micros
    }
}

impl std::fmt::Debug for PaddedApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PaddedApp")
            .field("state_bytes", &self.state.len())
            .field("invocations", &self.invocations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_interpolates_linearly() {
        let p = RateProfile::new(vec![
            (SimTime::ZERO, 100.0),
            (SimTime::from_secs(10), 200.0),
        ]);
        assert_eq!(p.rate_at(SimTime::ZERO), 100.0);
        assert_eq!(p.rate_at(SimTime::from_secs(5)), 150.0);
        assert_eq!(p.rate_at(SimTime::from_secs(10)), 200.0);
        assert_eq!(p.rate_at(SimTime::from_secs(99)), 200.0);
    }

    #[test]
    fn constant_profile_is_flat() {
        let p = RateProfile::constant(42.0);
        assert_eq!(p.rate_at(SimTime::from_secs(7)), 42.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_points_panic() {
        RateProfile::new(vec![
            (SimTime::from_secs(5), 1.0),
            (SimTime::from_secs(5), 2.0),
        ]);
    }

    #[test]
    fn fig6_ramp_peaks_in_the_middle() {
        let p = RateProfile::fig6_ramp(SimDuration::from_secs(20), 1000.0);
        let mid = p.rate_at(SimTime::from_secs(10));
        assert_eq!(mid, 1000.0);
        assert!(p.rate_at(SimTime::from_secs(1)) < 300.0);
        assert!(p.rate_at(SimTime::from_secs(20)) < 100.0);
    }

    #[test]
    fn padded_app_round_trips_state_deterministically() {
        let mut a = PaddedApp::new(1024, 16, 15);
        let mut b = PaddedApp::new(1024, 16, 15);
        for _ in 0..10 {
            let ra = a.invoke("x", &Bytes::new()).unwrap();
            let rb = b.invoke("x", &Bytes::new()).unwrap();
            assert_eq!(ra, rb, "deterministic replicas must agree");
        }
        assert_eq!(a.capture_state(), b.capture_state());
        let snapshot = a.capture_state();
        let mut c = PaddedApp::new(1024, 16, 15);
        c.restore_state(&snapshot);
        assert_eq!(c.invocations(), 10);
        assert_eq!(c.capture_state(), snapshot);
    }

    #[test]
    fn padded_app_response_size_is_configurable() {
        let mut a = PaddedApp::new(64, 100, 15);
        let r = a.invoke("x", &Bytes::new()).unwrap();
        assert_eq!(r.len(), 108);
    }
}
