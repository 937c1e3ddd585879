//! ORB endpoint actors for the simulator: an unreplicated server, a
//! closed-loop client, and the shared cost model.
//!
//! These actors realize the paper's *baseline* operating modes (Fig. 4):
//! plain client–server GIOP traffic, optionally passed through a
//! [`crate::interceptor::Passthrough`] interposer on either side. The replicated modes are
//! built in `vd-core` from the same pieces.

use bytes::Bytes;

use vd_obs::{Ctr, EventKind as ObsEvent, Obs, ObsHandle};
use vd_simnet::actor::{downcast_payload, Actor, Context, Payload, TimerToken};
use vd_simnet::metrics::Histogram;
use vd_simnet::time::{SimDuration, SimTime};
use vd_simnet::topology::ProcessId;

use crate::client::{ReplyOutcome, RequestTracker};
use crate::interceptor::{Interceptor, RecvAction, SendAction};
use crate::object::{ObjectAdapter, ObjectKey};
use crate::wire::{OrbMessage, Reply, Request};

/// CPU costs of the ORB layer, charged per message traversal.
///
/// The paper's Fig. 3 attributes 398 µs of a round trip to the ORB; a round
/// trip traverses the ORB four times (client out, server in, server out,
/// client in), giving ~100 µs per traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrbCosts {
    /// Marshal/unmarshal plus protocol handling per traversal.
    pub marshal: SimDuration,
}

impl OrbCosts {
    /// Costs calibrated to the paper's Fig. 3 breakdown.
    pub fn paper_calibrated() -> Self {
        OrbCosts {
            marshal: SimDuration::from_micros(100),
        }
    }

    /// A zero-cost ORB (for isolating other components in benchmarks).
    pub fn free() -> Self {
        OrbCosts {
            marshal: SimDuration::ZERO,
        }
    }
}

impl Default for OrbCosts {
    fn default() -> Self {
        OrbCosts::paper_calibrated()
    }
}

/// An unreplicated CORBA-style server process: decodes requests, invokes
/// servants through its [`ObjectAdapter`], returns replies.
pub struct ServerActor {
    adapter: ObjectAdapter,
    costs: OrbCosts,
    interceptor: Option<Box<dyn Interceptor>>,
    obs: ObsHandle,
    /// Requests served (inspection).
    pub served: u64,
}

impl ServerActor {
    /// A server hosting `adapter`'s objects with the given costs.
    pub fn new(adapter: ObjectAdapter, costs: OrbCosts) -> Self {
        ServerActor {
            adapter,
            costs,
            interceptor: None,
            obs: Obs::disabled(),
            served: 0,
        }
    }

    /// Attaches an observability endpoint: request enter/exit events and
    /// `orb.*` counters (marshaling bytes included) flow into it.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches an interposition layer (the Fig. 4 "server intercepted"
    /// mode, or the replicator).
    pub fn with_interceptor(mut self, interceptor: Box<dyn Interceptor>) -> Self {
        self.interceptor = Some(interceptor);
        self
    }

    /// The hosted object adapter.
    pub fn adapter(&self) -> &ObjectAdapter {
        &self.adapter
    }
}

impl Actor for ServerActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, payload: Box<dyn Payload>) {
        let Ok(msg) = downcast_payload::<OrbMessage>(payload) else {
            return;
        };
        // Interposition on the inbound path.
        if let Some(interceptor) = &mut self.interceptor {
            ctx.use_cpu(interceptor.traversal_cost());
            if interceptor.inbound(from, &msg) == RecvAction::Consume {
                return;
            }
        }
        let request_bytes = msg.wire_size() as u64;
        let OrbMessage::Request(request) = *msg else {
            return; // servers ignore stray replies
        };
        self.obs.metrics.incr(Ctr::OrbRequestsIn);
        self.obs.metrics.add(Ctr::OrbMarshalBytes, request_bytes);
        self.obs.emit(
            ctx.now().as_micros(),
            ctx.self_id().0,
            ObsEvent::RequestEnter {
                request_id: request.request_id,
                bytes: request_bytes,
            },
        );
        // ORB inbound traversal + application processing + outbound traversal.
        ctx.use_cpu(self.costs.marshal);
        ctx.use_cpu(SimDuration::from_micros(
            self.adapter.processing_micros(&request),
        ));
        let reply = self.adapter.dispatch(&request);
        self.served += 1;
        if !request.response_expected {
            return;
        }
        ctx.use_cpu(self.costs.marshal);
        let request_id = reply.request_id;
        let out = OrbMessage::Reply(reply);
        let reply_bytes = out.wire_size() as u64;
        self.obs.metrics.incr(Ctr::OrbRepliesOut);
        self.obs.metrics.add(Ctr::OrbMarshalBytes, reply_bytes);
        self.obs.emit(
            ctx.now().as_micros(),
            ctx.self_id().0,
            ObsEvent::ReplyExit {
                request_id,
                bytes: reply_bytes,
            },
        );
        let mut dst = from;
        if let Some(interceptor) = &mut self.interceptor {
            ctx.use_cpu(interceptor.traversal_cost());
            match interceptor.outbound(from, &out) {
                SendAction::Deliver(d) => dst = d,
                SendAction::Consume => return,
            }
        }
        ctx.send(dst, out);
    }

    /// `None`: the hosted servants are opaque to the ORB, so a world with a
    /// plain ORB server is never pruned.
    fn state_digest(&self) -> Option<u64> {
        None
    }
}

impl std::fmt::Debug for ServerActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerActor")
            .field("served", &self.served)
            .field("adapter", &self.adapter)
            .finish()
    }
}

/// Configuration of a closed-loop request driver.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Target object.
    pub object: ObjectKey,
    /// Operation name invoked on every request.
    pub operation: String,
    /// Size of the marshaled request arguments, in bytes.
    pub request_bytes: usize,
    /// Total requests to issue (`None` = run forever).
    pub total: Option<u64>,
    /// Pause between receiving a reply and issuing the next request.
    pub think: SimDuration,
}

impl Default for DriverConfig {
    fn default() -> Self {
        // The paper's micro-benchmark: a cycle of 10 000 small requests.
        DriverConfig {
            object: ObjectKey::new("bench"),
            operation: "cycle".into(),
            request_bytes: 64,
            total: Some(10_000),
            think: SimDuration::ZERO,
        }
    }
}

/// The sans-IO closed-loop request engine shared by the plain client actor
/// here and the replicated client in `vd-core`: issues one request at a
/// time, matches replies, measures round trips and keeps every sample.
#[derive(Debug)]
pub struct RequestDriver {
    config: DriverConfig,
    tracker: RequestTracker,
    issued: u64,
    completed: u64,
    args: Bytes,
    rtt: Histogram,
}

impl RequestDriver {
    /// A driver using first-response selection.
    pub fn new(config: DriverConfig) -> Self {
        let args = Bytes::from(vec![0u8; config.request_bytes]);
        RequestDriver {
            config,
            tracker: RequestTracker::new(),
            issued: 0,
            completed: 0,
            args,
            rtt: Histogram::new(),
        }
    }

    /// A driver using majority voting across replica replies.
    pub fn with_majority(config: DriverConfig, quorum: usize) -> Self {
        let args = Bytes::from(vec![0u8; config.request_bytes]);
        RequestDriver {
            config,
            tracker: RequestTracker::with_majority(quorum),
            issued: 0,
            completed: 0,
            args,
            rtt: Histogram::new(),
        }
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Every round trip measured so far, one sample per completed request
    /// in completion order.
    pub fn rtt(&self) -> &Histogram {
        &self.rtt
    }

    /// Folds the driver's behavior-relevant state into an exploration
    /// digest: the workload shape, the reply tracker and the
    /// issue/complete counters. The round-trip samples are telemetry and
    /// stay out.
    pub fn fold_digest(&self, h: &mut vd_simnet::explore::Fnv64) {
        h.write_bytes(self.config.object.as_str().as_bytes());
        h.write_bytes(self.config.operation.as_bytes());
        h.write_u64(self.config.request_bytes as u64);
        match self.config.total {
            None => h.write_u8(0),
            Some(total) => {
                h.write_u8(1);
                h.write_u64(total);
            }
        }
        h.write_u64(self.config.think.as_micros());
        self.tracker.fold_digest(h);
        h.write_u64(self.issued);
        h.write_u64(self.completed);
        h.write_bytes(&self.args);
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Whether the configured cycle is finished.
    pub fn is_done(&self) -> bool {
        self.config.total.is_some_and(|t| self.completed >= t)
    }

    /// Builds the next request if the cycle continues, else `None`.
    pub fn next_request(&mut self, now: SimTime) -> Option<Request> {
        if self.config.total.is_some_and(|t| self.issued >= t) {
            return None;
        }
        self.issued += 1;
        Some(self.tracker.make_request(
            now,
            self.config.object.clone(),
            self.config.operation.clone(),
            self.args.clone(),
        ))
    }

    /// Feeds a reply; on acceptance records and returns the measured
    /// round-trip time.
    pub fn on_reply(&mut self, now: SimTime, reply: Reply) -> Option<SimDuration> {
        let sent = self.tracker.sent_at(reply.request_id);
        match self.tracker.on_reply(reply) {
            ReplyOutcome::Accepted(_) => {
                self.completed += 1;
                let rtt = sent.map(|s| now.duration_since(s));
                if let Some(rtt) = rtt {
                    self.rtt.record(rtt);
                }
                rtt
            }
            ReplyOutcome::Duplicate | ReplyOutcome::Pending | ReplyOutcome::Unmatched => None,
        }
    }

    /// The think time between completions.
    pub fn think(&self) -> SimDuration {
        self.config.think
    }
}

/// Timer token used by [`ClientActor`] for think-time pauses.
const THINK_TIMER: TimerToken = TimerToken(100);

/// A closed-loop client process invoking one server directly (no
/// replication): the Fig. 3/Fig. 4 baseline workload.
pub struct ClientActor {
    server: ProcessId,
    driver: RequestDriver,
    costs: OrbCosts,
    interceptor: Option<Box<dyn Interceptor>>,
}

impl ClientActor {
    /// A client that will run `driver`'s cycle against `server`; the
    /// driver keeps the round trips ([`RequestDriver::rtt`]).
    pub fn new(server: ProcessId, driver: RequestDriver, costs: OrbCosts) -> Self {
        ClientActor {
            server,
            driver,
            costs,
            interceptor: None,
        }
    }

    /// Attaches an interposition layer (the Fig. 4 "client intercepted"
    /// mode).
    pub fn with_interceptor(mut self, interceptor: Box<dyn Interceptor>) -> Self {
        self.interceptor = Some(interceptor);
        self
    }

    /// The embedded driver (inspection).
    pub fn driver(&self) -> &RequestDriver {
        &self.driver
    }

    fn issue(&mut self, ctx: &mut Context<'_>) {
        // Stamp the request at the instant the application's invoke()
        // begins (after whatever this handler already computed), so the
        // round trip includes this request's own marshal but not costs of
        // unrelated work earlier in the handler.
        let invoke_at = ctx.now() + ctx.cpu_used();
        let Some(request) = self.driver.next_request(invoke_at) else {
            return;
        };
        // Client-side ORB marshal traversal.
        ctx.use_cpu(self.costs.marshal);
        let msg = OrbMessage::Request(request);
        let mut dst = self.server;
        if let Some(interceptor) = &mut self.interceptor {
            ctx.use_cpu(interceptor.traversal_cost());
            match interceptor.outbound(self.server, &msg) {
                SendAction::Deliver(d) => dst = d,
                SendAction::Consume => return,
            }
        }
        ctx.send(dst, msg);
    }
}

impl Actor for ClientActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.issue(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, payload: Box<dyn Payload>) {
        let Ok(msg) = downcast_payload::<OrbMessage>(payload) else {
            return;
        };
        if let Some(interceptor) = &mut self.interceptor {
            ctx.use_cpu(interceptor.traversal_cost());
            if interceptor.inbound(from, &msg) == RecvAction::Consume {
                return;
            }
        }
        let OrbMessage::Reply(reply) = *msg else {
            return;
        };
        // Client-side ORB unmarshal traversal: part of the round trip the
        // application perceives, so charge it before taking the completion
        // timestamp.
        ctx.use_cpu(self.costs.marshal);
        let completed_at = ctx.now() + ctx.cpu_used();
        if self.driver.on_reply(completed_at, reply).is_some() {
            if self.driver.is_done() {
                return;
            }
            let think = self.driver.think();
            if think.is_zero() {
                self.issue(ctx);
            } else {
                ctx.set_timer(think, THINK_TIMER);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if timer == THINK_TIMER {
            self.issue(ctx);
        }
    }

    /// `None`: the plain ORB client only appears in worlds with a plain
    /// ORB server, which are never pruned.
    fn state_digest(&self) -> Option<u64> {
        None
    }
}

impl std::fmt::Debug for ClientActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientActor")
            .field("server", &self.server)
            .field("driver", &self.driver)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interceptor::Passthrough;
    use crate::object::{InvokeResult, Servant};
    use vd_simnet::prelude::*;

    struct Echo;
    impl Servant for Echo {
        fn invoke(&mut self, _op: &str, args: &Bytes) -> InvokeResult {
            Ok(args.clone())
        }
    }

    fn build(
        client_interceptor: Option<Box<dyn Interceptor>>,
        server_interceptor: Option<Box<dyn Interceptor>>,
        total: u64,
    ) -> (World, ProcessId, ProcessId) {
        let mut topo = Topology::full_mesh(2);
        topo.set_default_link(LinkConfig::with_latency(LatencyModel::constant(
            SimDuration::from_micros(100),
        )));
        let mut world = World::new(topo, 1);
        let mut adapter = ObjectAdapter::new();
        adapter.register(ObjectKey::new("bench"), Box::new(Echo));
        let mut server = ServerActor::new(adapter, OrbCosts::paper_calibrated());
        if let Some(i) = server_interceptor {
            server = server.with_interceptor(i);
        }
        let server_pid = world.spawn(NodeId(1), Box::new(server));
        let driver = RequestDriver::new(DriverConfig {
            total: Some(total),
            ..DriverConfig::default()
        });
        let mut client = ClientActor::new(server_pid, driver, OrbCosts::paper_calibrated());
        if let Some(i) = client_interceptor {
            client = client.with_interceptor(i);
        }
        let client_pid = world.spawn(NodeId(0), Box::new(client));
        (world, client_pid, server_pid)
    }

    #[test]
    fn client_completes_its_cycle() {
        let (mut world, client, server) = build(None, None, 100);
        world.run_for(SimDuration::from_secs(2));
        let c = world.actor_ref::<ClientActor>(client).unwrap();
        assert!(c.driver().is_done());
        assert_eq!(c.driver().completed(), 100);
        assert_eq!(world.actor_ref::<ServerActor>(server).unwrap().served, 100);
        let h = c.driver().rtt();
        assert_eq!(h.count(), 100);
        // Baseline RTT: 2×100 µs network + 4×100 µs ORB + 15 µs app = 615 µs.
        assert_eq!(h.mean(), SimDuration::from_micros(615));
    }

    #[test]
    fn interposition_adds_measured_overhead_without_changing_results() {
        let (mut world, client, _) = build(
            Some(Box::new(Passthrough::new())),
            Some(Box::new(Passthrough::new())),
            50,
        );
        world.run_for(SimDuration::from_secs(2));
        let c = world.actor_ref::<ClientActor>(client).unwrap();
        assert_eq!(c.driver().completed(), 50);
        let h = c.driver().rtt();
        // Baseline 615 µs + 4 interceptor traversals à 38 µs = 767 µs.
        assert_eq!(h.mean(), SimDuration::from_micros(767));
    }

    #[test]
    fn oneway_requests_get_no_reply() {
        let mut topo = Topology::full_mesh(2);
        topo.set_default_link(LinkConfig::with_latency(LatencyModel::constant(
            SimDuration::from_micros(10),
        )));
        let mut world = World::new(topo, 2);
        let mut adapter = ObjectAdapter::new();
        adapter.register(ObjectKey::new("bench"), Box::new(Echo));
        let server = world.spawn(
            NodeId(1),
            Box::new(ServerActor::new(adapter, OrbCosts::free())),
        );
        world.inject(
            server,
            OrbMessage::Request(Request {
                request_id: 1,
                object_key: ObjectKey::new("bench"),
                operation: "op".into(),
                args: Bytes::new(),
                response_expected: false,
            }),
        );
        world.run_for(SimDuration::from_millis(5));
        assert_eq!(world.actor_ref::<ServerActor>(server).unwrap().served, 1);
        // No reply was produced: nothing else on the wire besides the
        // injected request (which came from outside the mesh).
        assert_eq!(world.obs().metrics.counter(Ctr::SimNetBytes), 0);
    }
}
