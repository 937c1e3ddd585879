//! The client-side replicator: transparent fault-tolerant invocation.
//!
//! The paper interposes on the client too: its GIOP connection is redirected
//! so requests reach the whole replica group and duplicate replies (every
//! active replica answers) are suppressed before the application sees them.
//! [`ReplicatedClientActor`] is that interposer fused with a closed-loop
//! workload driver: it sends each request to a *gateway* replica (which
//! disseminates it in agreed order), accepts the first reply, and fails
//! over to another gateway on timeout — the application-visible behavior is
//! a plain synchronous invocation that happens to survive replica crashes.

use vd_orb::directory::RoutingDirectory;
use vd_orb::sim::{OrbCosts, RequestDriver};
use vd_orb::wire::{OrbMessage, Request};
use vd_simnet::actor::{downcast_payload, Actor, Context, Payload, TimerToken};
use vd_simnet::time::SimDuration;
use vd_simnet::topology::ProcessId;

/// Timer for think-time pauses between requests.
const THINK_TIMER: TimerToken = TimerToken(100);
/// Base for retry/failover timers; the request id is encoded in the token
/// so a stale timer (its request long since answered) can be told apart
/// from a genuine timeout of the request still outstanding.
const RETRY_TIMER_BASE: u64 = 1_000_000;

/// Configuration of a replicated client.
#[derive(Debug, Clone)]
pub struct ReplicatedClientConfig {
    /// The replica processes, in gateway preference order — the fallback
    /// gateway pool when the [`RoutingDirectory`] does not resolve a
    /// request's object key (and the whole pool in single-group setups).
    pub replicas: Vec<ProcessId>,
    /// Key→group routing: when a request's object key resolves here, its
    /// gateway pool is the hosting group's gateway list instead of
    /// [`ReplicatedClientConfig::replicas`]. Clients address objects;
    /// which group — and therefore which processes — serve them is the
    /// directory's business.
    pub directory: RoutingDirectory,
    /// ORB cost model (marshal per traversal).
    pub costs: OrbCosts,
    /// Client-side interposition cost per traversal.
    pub interposition: SimDuration,
    /// How long to wait for a reply before the first retry through the
    /// next gateway. Should comfortably exceed a normal round trip plus
    /// the failure-detection and view-change delays. Subsequent retries
    /// back off deterministically: the wait doubles per attempt up to
    /// [`ReplicatedClientConfig::retry_backoff_cap`].
    pub retry_timeout: SimDuration,
    /// Ceiling on the exponential retry backoff.
    pub retry_backoff_cap: SimDuration,
    /// Retries allowed per request before the client gives the request
    /// up (counted in [`ReplicatedClientActor::gave_up`]) and moves on
    /// with its workload.
    pub retry_budget: u32,
    /// Histogram name under which round trips are recorded.
    pub rtt_metric: String,
    /// Index into `replicas` of the first gateway used (stagger this
    /// across clients to spread dissemination work).
    pub initial_gateway: usize,
}

impl Default for ReplicatedClientConfig {
    fn default() -> Self {
        ReplicatedClientConfig {
            replicas: Vec::new(),
            directory: RoutingDirectory::new(),
            costs: OrbCosts::paper_calibrated(),
            interposition: SimDuration::from_micros(38),
            retry_timeout: SimDuration::from_millis(200),
            retry_backoff_cap: SimDuration::from_secs(2),
            retry_budget: 16,
            rtt_metric: "client.rtt".into(),
            initial_gateway: 0,
        }
    }
}

/// The request id encoded in a retry timer token, if it is one. Tokens
/// at or above [`RETRY_TIMER_BASE`] are retry timers (`>=` discipline:
/// the base itself encodes request id 0).
fn retry_request_id(token: u64) -> Option<u64> {
    token.checked_sub(RETRY_TIMER_BASE)
}

/// The capped deterministic exponential backoff before retry number
/// `attempt` (0 = the initial send): `base · 2^attempt`, clamped to
/// `cap`.
fn backoff_delay(base: SimDuration, cap: SimDuration, attempt: u32) -> SimDuration {
    let factor = 1u64 << attempt.min(32);
    let us = base.as_micros().saturating_mul(factor);
    SimDuration::from_micros(us.min(cap.as_micros().max(base.as_micros())))
}

/// A closed-loop client whose invocations transparently survive replica
/// crashes and style switches.
pub struct ReplicatedClientActor {
    config: ReplicatedClientConfig,
    driver: RequestDriver,
    gateway: usize,
    outstanding: Option<Request>,
    /// Retries already spent on the outstanding request.
    attempt: u32,
    /// Retries performed (inspection).
    pub retries: u64,
    /// Requests abandoned after the retry budget ran out (inspection).
    pub gave_up: u64,
}

impl ReplicatedClientActor {
    /// A client running `driver`'s request cycle against the replica group.
    ///
    /// # Panics
    ///
    /// Panics if no replicas are configured.
    pub fn new(driver: RequestDriver, config: ReplicatedClientConfig) -> Self {
        assert!(
            !config.replicas.is_empty() || !config.directory.is_empty(),
            "a replicated client needs replicas or a routing directory"
        );
        let gateway = config.initial_gateway;
        ReplicatedClientActor {
            config,
            driver,
            gateway,
            outstanding: None,
            attempt: 0,
            retries: 0,
            gave_up: 0,
        }
    }

    /// The embedded request driver (inspection).
    pub fn driver(&self) -> &RequestDriver {
        &self.driver
    }

    /// The gateway pool serving `request`: the directory's resolution of
    /// its object key, else the static replica list.
    ///
    /// # Panics
    ///
    /// Panics if the key does not resolve and no fallback replicas are
    /// configured.
    fn pool_for(&self, request: &Request) -> &[ProcessId] {
        let pool = self
            .config
            .directory
            .gateways_for(&request.object_key)
            .unwrap_or(&self.config.replicas);
        assert!(
            !pool.is_empty(),
            "no gateways for object {:?} and no fallback replicas",
            request.object_key
        );
        pool
    }

    /// The replica currently used as gateway (for the outstanding
    /// request's group when one is in flight).
    pub fn gateway(&self) -> ProcessId {
        let pool = match &self.outstanding {
            Some(request) => self.pool_for(request),
            // Idle with no fallback list: show the first routed group's
            // pool (directory-only configurations).
            None if self.config.replicas.is_empty() => {
                let dir = &self.config.directory;
                dir.groups()
                    .find_map(|g| dir.gateways_of(g))
                    .expect("directory-only client with no gateways")
            }
            None => &self.config.replicas,
        };
        pool[self.gateway % pool.len()]
    }

    fn issue(&mut self, ctx: &mut Context<'_>) {
        let invoke_at = ctx.now() + ctx.cpu_used();
        let Some(request) = self.driver.next_request(invoke_at) else {
            return;
        };
        ctx.use_cpu(self.config.costs.marshal);
        ctx.use_cpu(self.config.interposition);
        let pool = self.pool_for(&request);
        let gateway = pool[self.gateway % pool.len()];
        ctx.send(gateway, OrbMessage::Request(request.clone()));
        self.attempt = 0;
        ctx.set_timer(
            self.retry_delay(),
            TimerToken(RETRY_TIMER_BASE + request.request_id),
        );
        self.outstanding = Some(request);
    }

    /// The backoff before the *next* retry fires, given retries already
    /// spent on the outstanding request.
    fn retry_delay(&self) -> SimDuration {
        backoff_delay(
            self.config.retry_timeout,
            self.config.retry_backoff_cap,
            self.attempt,
        )
    }

    fn resend(&mut self, ctx: &mut Context<'_>) {
        let Some(request) = self.outstanding.clone() else {
            return;
        };
        self.retries += 1;
        self.attempt += 1;
        // Rotate within the request's own gateway pool: failover for an
        // object stays inside the group hosting it.
        self.gateway = self.gateway.wrapping_add(1);
        ctx.use_cpu(self.config.interposition);
        ctx.set_timer(
            self.retry_delay(),
            TimerToken(RETRY_TIMER_BASE + request.request_id),
        );
        let pool = self.pool_for(&request);
        let target = pool[self.gateway % pool.len()];
        ctx.send(target, OrbMessage::Request(request));
    }

    /// Abandons the outstanding request (budget exhausted) and moves on
    /// with the workload so one black-holed request cannot wedge the
    /// closed loop forever.
    fn give_up(&mut self, ctx: &mut Context<'_>) {
        self.gave_up += 1;
        self.outstanding = None;
        if !self.driver.is_done() {
            let think = self.driver.think();
            if think.is_zero() {
                self.issue(ctx);
            } else {
                ctx.set_timer(think, THINK_TIMER);
            }
        }
    }
}

impl Actor for ReplicatedClientActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.issue(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, payload: Box<dyn Payload>) {
        let Ok(msg) = downcast_payload::<OrbMessage>(payload) else {
            return;
        };
        // Inbound interposition (duplicate suppression happens in the
        // driver's tracker) plus the ORB unmarshal traversal.
        ctx.use_cpu(self.config.interposition);
        let OrbMessage::Reply(reply) = *msg else {
            return;
        };
        ctx.use_cpu(self.config.costs.marshal);
        let completed_at = ctx.now() + ctx.cpu_used();
        if let Some(rtt) = self.driver.on_reply(completed_at, reply) {
            self.outstanding = None;
            ctx.metrics().histogram(&self.config.rtt_metric).record(rtt);
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
        match timer {
            THINK_TIMER => self.issue(ctx),
            TimerToken(token) => {
                let Some(request_id) = retry_request_id(token) else {
                    return;
                };
                // Only a timer for the request still outstanding is a real
                // timeout; anything else is a stale fire.
                if self
                    .outstanding
                    .as_ref()
                    .is_some_and(|r| r.request_id == request_id)
                {
                    if self.attempt >= self.config.retry_budget {
                        self.give_up(ctx);
                    } else {
                        self.resend(ctx);
                    }
                }
            }
        }
    }

    /// Exploration digest: the driver's progress, the gateway cursor, the
    /// outstanding request and the retry counters. The static
    /// configuration (replica pool, routing directory, cost model) is
    /// excluded — it never changes after construction.
    fn state_digest(&self) -> Option<u64> {
        let mut h = vd_simnet::explore::Fnv64::new();
        self.driver.fold_digest(&mut h);
        h.write_u64(self.gateway as u64);
        match &self.outstanding {
            None => h.write_u8(0),
            Some(request) => {
                h.write_u8(1);
                h.write_u64(request.request_id);
                h.write_bytes(request.object_key.as_str().as_bytes());
                h.write_bytes(request.operation.as_bytes());
                h.write_bytes(&request.args);
                h.write_u8(request.response_expected as u8);
            }
        }
        h.write_u64(u64::from(self.attempt));
        h.write_u64(self.retries);
        h.write_u64(self.gave_up);
        Some(h.finish())
    }
}

impl std::fmt::Debug for ReplicatedClientActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedClientActor")
            .field("gateway", &self.gateway())
            .field("completed", &self.driver.completed())
            .field("retries", &self.retries)
            .field("gave_up", &self.gave_up)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_token_base_encodes_request_id_zero() {
        // Regression: the old guard (`token > RETRY_TIMER_BASE`) silently
        // dropped the retry timer of request id 0 — the `>=` discipline
        // must map the base token to exactly that request.
        assert_eq!(retry_request_id(RETRY_TIMER_BASE), Some(0));
        assert_eq!(retry_request_id(RETRY_TIMER_BASE + 7), Some(7));
        // Tokens below the base (think timer etc.) are not retry timers.
        assert_eq!(retry_request_id(THINK_TIMER.0), None);
        assert_eq!(retry_request_id(RETRY_TIMER_BASE - 1), None);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let base = SimDuration::from_millis(100);
        let cap = SimDuration::from_millis(700);
        assert_eq!(backoff_delay(base, cap, 0), SimDuration::from_millis(100));
        assert_eq!(backoff_delay(base, cap, 1), SimDuration::from_millis(200));
        assert_eq!(backoff_delay(base, cap, 2), SimDuration::from_millis(400));
        assert_eq!(backoff_delay(base, cap, 3), SimDuration::from_millis(700));
        assert_eq!(backoff_delay(base, cap, 40), SimDuration::from_millis(700));
        // A cap below the base never shrinks the first wait.
        let tiny_cap = SimDuration::from_millis(10);
        assert_eq!(
            backoff_delay(base, tiny_cap, 0),
            SimDuration::from_millis(100)
        );
        // The schedule is deterministic: same inputs, same waits.
        assert_eq!(backoff_delay(base, cap, 2), backoff_delay(base, cap, 2));
    }
}
