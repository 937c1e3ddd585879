//! The node's event loop: one thread runs every actor the node hosts.
//!
//! A node is one OS thread, `vd-node-<id>`. It owns the node socket, every
//! hosted actor, one [`TimerWheel`] per actor, the supervisor's state and
//! the egress-delay queue, and it blocks in a single `ppoll(2)` on the
//! socket until the first of four things happens: a datagram arrives, a
//! timer falls due, a restart falls due, or a held datagram's release time
//! comes. A datagram is then received, routed by its destination pid
//! ([`codec::peek_destination`]), decoded and handled on the same thread —
//! one wake-up per datagram. Timers due together fire in deadline order
//! across all the node's actors. The loop runs one handler at a time, the
//! rule the simulator's one CPU per node already follows (`DESIGN.md` §10).
//!
//! Protocol actors (`ReplicaActor`, the recovery manager, …) run
//! *unchanged*: they speak the sans-IO `Context`/`Action` contract, and
//! this module is simply a second scheduler for it. `perform` carries
//! out each handler's actions: sends go through the node's `Wire`,
//! timers land on the actor's [`TimerWheel`].
//!
//! **Supervision.** Every handler call — `on_start` together with the
//! factory that builds the incarnation, `on_timer` and `on_message`, each
//! together with performing its actions — runs under `catch_unwind`. A
//! panic, or a crash injected with
//! [`NodeHandle::crash_actor`](crate::node::NodeHandle::crash_actor),
//! drops that incarnation and its timers and schedules the restart as a
//! loop deadline a deterministic capped exponential backoff later (the
//! same `base · 2^attempt` shape as the client's retry backoff). Until
//! then the pid is down: frames for it are dropped and counted in
//! `node.decode_errors`, and the node's other actors keep running. The
//! factory gets the restart attempt and uses it to choose the *re-join*
//! constructor (`GroupMembership::Joining`), so a restarted replica
//! re-enters its groups through the recovery manager's
//! join-and-state-transfer path rather than pretending it never died.
//! After `max_restarts` crashes the actor stays down — degree repair is
//! then the (remote) recovery manager's job, as in the paper's
//! fault-treatment loop (§5).

use core::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::collections::BTreeMap;
use std::io;
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::TryRecvError;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use vd_obs::registry::Ctr;
use vd_obs::ObsHandle;
use vd_simnet::actor::{Action, Actor, Context};
use vd_simnet::rng::DeterministicRng;
use vd_simnet::time::{SimDuration, SimTime};
use vd_simnet::topology::{NodeId, ProcessId};

use crate::codec;
use crate::log::NodeLog;
use crate::transport::{TimerWheel, Wire, MAX_DATAGRAM};

/// Builds one incarnation of an actor. Called on the node's loop thread;
/// the argument is the restart attempt (0 = first start), letting the
/// factory pick bootstrap vs. re-join construction. The closure must be
/// `Send` (it moves to the thread) but the actor it builds never leaves
/// that thread, so `Box<dyn Actor>` needs no `Send` bound — the same
/// no-shared-state rule the simulator's parallel explorer relies on.
pub type ActorFactory = Box<dyn Fn(u64) -> Box<dyn Actor> + Send + 'static>;

/// Restart policy for one supervised actor.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorPolicy {
    /// First backoff delay.
    pub backoff_base: Duration,
    /// Backoff ceiling (the cap in `base · 2^attempt`).
    pub backoff_cap: Duration,
    /// Crashes tolerated before the actor stays down.
    pub max_restarts: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            max_restarts: 5,
        }
    }
}

impl SupervisorPolicy {
    /// The deterministic capped exponential backoff before restart
    /// `attempt` (1-based): `min(base · 2^(attempt-1), cap)`.
    pub fn backoff(&self, attempt: u64) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16) as u32;
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// One actor the loop hosts.
pub(crate) struct ActorSpec {
    /// The process id this actor answers for.
    pub(crate) pid: ProcessId,
    /// Builds each incarnation.
    pub(crate) factory: ActorFactory,
    /// Seed for the actor's deterministic RNG.
    pub(crate) seed: u64,
    /// Restart policy.
    pub(crate) policy: SupervisorPolicy,
}

/// A request from a node's handle to its loop, posted on the control
/// channel and followed by a zero-length wake-up datagram.
#[derive(Debug)]
pub(crate) enum Control {
    /// Crash the live incarnation of this pid, as a panic would.
    Crash(ProcessId),
    /// Arm (nonzero) or disarm (zero) the egress delay.
    EgressDelay(Duration),
    /// Stop the loop; held datagrams die with the node.
    Shutdown,
}

/// One running incarnation: the actor and everything it owns.
struct Incarnation {
    actor: Box<dyn Actor>,
    wheel: TimerWheel,
    rng: DeterministicRng,
    next_pid: u64,
}

/// Where a hosted pid is in its life.
enum Life {
    Up(Incarnation),
    /// Between incarnations; (re)starts once the node clock reaches this.
    Down(SimTime),
    /// Stopped itself, or crashed more than `max_restarts` times.
    Stopped,
}

struct Hosted {
    spec: ActorSpec,
    attempt: u64,
    life: Life,
    /// Whether a frame dropped while the pid is down was logged yet.
    drop_logged: bool,
}

/// The loop's state; built on its own thread, since actors are not `Send`.
#[expect(
    clippy::disallowed_types,
    reason = "the loop's end of the control channel, drained with try_recv, never waited on"
)]
struct EventLoop {
    node: NodeId,
    wire: Wire,
    actors: BTreeMap<ProcessId, Hosted>,
    control: std::sync::mpsc::Receiver<Control>,
    obs: ObsHandle,
    log: Arc<NodeLog>,
}

/// Runs a node: starts `actors`, then serves the socket, timers, restarts
/// and held datagrams until [`Control::Shutdown`] or until the handle is
/// dropped.
#[expect(
    clippy::disallowed_types,
    reason = "the loop thread's entry point takes the control channel's receiver"
)]
pub(crate) fn run(
    node: NodeId,
    wire: Wire,
    actors: Vec<ActorSpec>,
    control: std::sync::mpsc::Receiver<Control>,
    obs: ObsHandle,
    log: Arc<NodeLog>,
) {
    let actors = actors
        .into_iter()
        .map(|spec| {
            let hosted = Hosted {
                spec,
                attempt: 0,
                life: Life::Down(SimTime::ZERO),
                drop_logged: false,
            };
            (hosted.spec.pid, hosted)
        })
        .collect();
    let mut event_loop = EventLoop {
        node,
        wire,
        actors,
        control,
        obs,
        log,
    };
    let mut buf = vec![0u8; MAX_DATAGRAM];
    loop {
        let now = event_loop.wire.now();
        event_loop.start_due(now);
        event_loop.wire.release_due(now);
        event_loop.fire_due_timers();
        if !event_loop.apply_control() {
            return;
        }
        let timeout = event_loop
            .next_deadline()
            .map(|at| Duration::from_micros(at.duration_since(event_loop.wire.now()).as_micros()));
        match wait_readable(event_loop.wire.socket(), timeout) {
            Ok(true) => event_loop.receive(&mut buf),
            Ok(false) => {}
            Err(e) => {
                event_loop
                    .log
                    .line(&format!("node loop: ppoll failed, stopping: {e}"));
                return;
            }
        }
    }
}

impl EventLoop {
    /// Applies every pending control request; `false` once the node must
    /// stop, on request or because its handle is gone.
    fn apply_control(&mut self) -> bool {
        loop {
            match self.control.try_recv() {
                Ok(Control::Crash(pid)) => {
                    if let Some(Hosted {
                        life: Life::Up(_), ..
                    }) = self.actors.get(&pid)
                    {
                        self.log.line(&format!("actor {}: injected crash", pid.0));
                        self.crash(pid);
                    }
                }
                Ok(Control::EgressDelay(delay)) => self.wire.set_egress_delay(delay),
                Ok(Control::Shutdown) | Err(TryRecvError::Disconnected) => return false,
                Err(TryRecvError::Empty) => return true,
            }
        }
    }

    /// Builds and starts every incarnation whose (re)start time has come.
    fn start_due(&mut self, now: SimTime) {
        while let Some(pid) = self
            .actors
            .iter()
            .find(|(_, h)| matches!(h.life, Life::Down(at) if at <= now))
            .map(|(&pid, _)| pid)
        {
            self.start(pid);
        }
    }

    fn start(&mut self, pid: ProcessId) {
        let Some(hosted) = self.actors.get_mut(&pid) else {
            return;
        };
        let (spec, attempt) = (&hosted.spec, hosted.attempt);
        if attempt > 0 {
            self.log.line(&format!(
                "supervisor: restarting actor {} (attempt {attempt})",
                pid.0
            ));
        }
        match catch_unwind(AssertUnwindSafe(|| (spec.factory)(attempt))) {
            Ok(actor) => {
                hosted.life = Life::Up(Incarnation {
                    actor,
                    wheel: TimerWheel::new(),
                    // Distinct stream per (seed, actor, incarnation), all
                    // deterministic.
                    rng: DeterministicRng::new(
                        spec.seed ^ pid.0.wrapping_mul(0x9e37_79b9) ^ (attempt << 48),
                    ),
                    next_pid: pid.0.wrapping_add(1 << 32),
                });
                self.call(pid, |actor, ctx| actor.on_start(ctx));
            }
            Err(_) => self.crash(pid),
        }
    }

    /// Fires every due timer of every live actor, earliest deadline first.
    fn fire_due_timers(&mut self) {
        loop {
            let now = self.wire.now();
            let next = self
                .actors
                .iter_mut()
                .filter_map(|(&pid, hosted)| match &mut hosted.life {
                    Life::Up(inc) => inc.wheel.next_due(now).map(|at| (at, pid)),
                    Life::Down(_) | Life::Stopped => None,
                })
                .min();
            let Some((_, pid)) = next else {
                return;
            };
            let Some(Hosted {
                life: Life::Up(inc),
                ..
            }) = self.actors.get_mut(&pid)
            else {
                return;
            };
            let Some(token) = inc.wheel.pop_due(now) else {
                return;
            };
            self.call(pid, |actor, ctx| actor.on_timer(ctx, token));
        }
    }

    /// The earliest time the loop must wake without a datagram: a timer, a
    /// restart, or the release of a held datagram.
    fn next_deadline(&self) -> Option<SimTime> {
        self.actors
            .values()
            .filter_map(|hosted| match &hosted.life {
                Life::Up(inc) => inc.wheel.next_deadline(),
                Life::Down(at) => Some(*at),
                Life::Stopped => None,
            })
            .chain(self.wire.next_release())
            .min()
    }

    /// Receives one datagram, if one is waiting, and delivers it.
    fn receive(&mut self, buf: &mut [u8]) {
        let len = match self.wire.socket().recv(buf) {
            Ok(len) => len,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) => {
                // Transient receive errors (e.g. ICMP-induced
                // ECONNREFUSED on some platforms) must not stop the node.
                self.log.line(&format!("recv error: {e}"));
                return;
            }
        };
        if len == 0 {
            // The handle's wake-up: never a frame, never counted as one.
            return;
        }
        self.obs.metrics.incr(Ctr::NodeFramesRecv);
        self.obs.metrics.add(Ctr::NodeBytesRecv, len as u64);
        let datagram = &buf[..len];
        let Some(to) = codec::peek_destination(datagram) else {
            self.obs.metrics.incr(Ctr::NodeDecodeErrors);
            self.log.line(&format!("recv: bad envelope ({len} bytes)"));
            return;
        };
        let Some(hosted) = self.actors.get_mut(&to) else {
            self.obs.metrics.incr(Ctr::NodeDecodeErrors);
            self.log.line(&format!("recv: no local actor {to:?}"));
            return;
        };
        if !matches!(hosted.life, Life::Up(_)) {
            // A frame for a pid that is down is dropped, not hoarded for
            // the next incarnation; one log line per down period.
            self.obs.metrics.incr(Ctr::NodeDecodeErrors);
            if !hosted.drop_logged {
                hosted.drop_logged = true;
                self.log.line(&format!(
                    "recv: actor {} is down; dropping its frames",
                    to.0
                ));
            }
            return;
        }
        let frame = match codec::decode_frame(Bytes::copy_from_slice(datagram)) {
            Ok(frame) => frame,
            Err(e) => {
                self.obs.metrics.incr(Ctr::NodeDecodeErrors);
                self.log
                    .line(&format!("actor {}: undecodable frame: {e}", to.0));
                return;
            }
        };
        self.call(to, |actor, ctx| {
            actor.on_message(ctx, frame.from, frame.payload)
        });
    }

    /// Runs one handler of `pid`'s live incarnation and performs its
    /// actions, under `catch_unwind`: a panic crashes the incarnation.
    fn call(&mut self, pid: ProcessId, handler: impl FnOnce(&mut dyn Actor, &mut Context<'_>)) {
        let Some(Hosted {
            life: Life::Up(inc),
            ..
        }) = self.actors.get_mut(&pid)
        else {
            return;
        };
        let (wire, log, node) = (&mut self.wire, &self.log, self.node);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = Context::external(wire.now(), pid, node, &mut inc.rng, &mut inc.next_pid);
            handler(inc.actor.as_mut(), &mut ctx);
            let actions = ctx.drain_actions();
            drop(ctx);
            perform(pid, wire, &mut inc.wheel, log, actions)
        }));
        match outcome {
            Ok(false) => {}
            Ok(true) => {
                self.log
                    .line(&format!("actor {} stopped itself (Kill)", pid.0));
                if let Some(hosted) = self.actors.get_mut(&pid) {
                    hosted.life = Life::Stopped;
                    hosted.drop_logged = false;
                }
            }
            Err(_) => self.crash(pid),
        }
    }

    /// Drops `pid`'s incarnation, if any, with its timers, and schedules
    /// the restart — or leaves the pid down for good after `max_restarts`.
    fn crash(&mut self, pid: ProcessId) {
        let Some(hosted) = self.actors.get_mut(&pid) else {
            return;
        };
        hosted.life = Life::Stopped;
        hosted.drop_logged = false;
        let policy = hosted.spec.policy;
        if hosted.attempt >= policy.max_restarts {
            self.log.line(&format!(
                "supervisor: actor {} exceeded {} restarts; staying down",
                pid.0, policy.max_restarts
            ));
            return;
        }
        hosted.attempt += 1;
        let backoff = policy.backoff(hosted.attempt);
        let us = backoff.as_micros().min(u128::from(u64::MAX)) as u64;
        hosted.life = Life::Down(self.wire.now() + SimDuration::from_micros(us));
        self.obs.metrics.incr(Ctr::NodeSupervisorRestarts);
        self.log.line(&format!(
            "supervisor: actor {} crashed; restart {} in {backoff:?}",
            pid.0, hosted.attempt
        ));
    }
}

/// Performs `pid`'s deferred actions: sends go out as `pid` through the
/// node's [`Wire`], timers land on `pid`'s wheel, `delay` from the node
/// clock's reading when the action is performed. Returns whether the
/// actor stopped itself.
///
/// `Spawn` and `Kill`-of-another-actor are simulator-only harness powers
/// (worlds conjure processes; real clusters start them out-of-band) — on
/// this backend they log and no-op, which the parity contract in
/// `DESIGN.md` §16 spells out. `Kill` of *self* maps to an orderly stop.
fn perform(
    pid: ProcessId,
    wire: &mut Wire,
    wheel: &mut TimerWheel,
    log: &NodeLog,
    actions: Vec<Action>,
) -> bool {
    let mut stopped = false;
    for action in actions {
        match action {
            Action::Send { dst, payload } => wire.send(pid, dst, payload.as_ref()),
            Action::SetTimer { delay, token } => wheel.set(wire.now() + delay, token),
            Action::CancelTimer { token } => wheel.cancel(token),
            Action::Kill { pid: target } if target == pid => stopped = true,
            Action::Kill { pid: target } => {
                log.line(&format!(
                    "actor {}: Kill({}) ignored — cross-actor kill is simulator-only",
                    pid.0, target.0
                ));
            }
            Action::Spawn { pid: target, .. } => {
                log.line(&format!(
                    "actor {}: Spawn({}) ignored — spawning is simulator-only",
                    pid.0, target.0
                ));
            }
        }
    }
    stopped
}

/// `struct pollfd` of `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` of `<time.h>`; both fields are `long` on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `POLLIN` of `<poll.h>`: data may be read without blocking.
const POLLIN: c_short = 0x001;

extern "C" {
    /// `ppoll(2)`: a nanosecond timeout where `poll(2)` rounds to whole
    /// milliseconds and `SO_RCVTIMEO` to scheduler ticks.
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until `socket` is readable or `timeout` has passed (`None`: no
/// limit). Returns whether the socket is readable; a signal (`EINTR`) is
/// a spurious wake-up and reads as not readable.
#[expect(
    clippy::disallowed_types,
    reason = "the event loop's only wait: ppoll on the node socket, which it then reads without \
              blocking, and the next deadline"
)]
fn wait_readable(socket: &std::net::UdpSocket, timeout: Option<Duration>) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = timeout.map(|t| Timespec {
        tv_sec: t.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: t.subsec_nanos() as c_long,
    });
    let timeout_ptr = timeout
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fd` is one initialised `pollfd` that lives across the call,
    // matching `nfds` = 1, and its descriptor stays open because `socket`
    // is borrowed for the call. `timeout_ptr` is null (wait without limit)
    // or points to a live `timespec` whose `tv_nsec` is below 10^9. A null
    // signal mask leaves the thread's mask unchanged. ppoll writes only
    // `fd.revents`.
    #[expect(
        unsafe_code,
        reason = "the crate's one foreign call: std has no poll, and a socket read timeout is \
                  rounded up to scheduler ticks"
    )]
    let ready = unsafe { ppoll(&mut fd, 1, timeout_ptr, std::ptr::null()) };
    if ready < 0 {
        let err = io::Error::last_os_error();
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "io::ErrorKind is #[non_exhaustive]: every kind but EINTR's is a real error"
        )]
        return match err.kind() {
            io::ErrorKind::Interrupted => Ok(false),
            _ => Err(err),
        };
    }
    Ok(ready > 0)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the loop's tests drive it from other threads over real sockets and time it on the \
              wall clock"
)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::sync::mpsc;
    use std::time::Instant;

    use vd_obs::Obs;
    use vd_simnet::actor::{Payload, TimerToken};

    use crate::config::NodeConfig;
    use crate::node::{spawn, NodeHandle};

    #[test]
    fn backoff_doubles_then_caps() {
        let policy = SupervisorPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
            max_restarts: 5,
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(35));
        assert_eq!(policy.backoff(9), Duration::from_millis(35));
    }

    #[test]
    fn ppoll_honours_short_timeouts_and_sees_datagrams() {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let started = Instant::now();
        assert!(!wait_readable(&socket, Some(Duration::from_millis(2))).expect("ppoll"));
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(2), "woke early: {waited:?}");
        socket
            .send_to(&[], socket.local_addr().expect("addr"))
            .expect("self-send");
        assert!(wait_readable(&socket, None).expect("ppoll"));
    }

    /// A node hosting `actors`, with no peers.
    fn host(actors: Vec<ActorSpec>) -> NodeHandle {
        let config = NodeConfig {
            node_id: 1,
            listen: String::new(),
            seed: 7,
            log_dir: None,
            mirror_stderr: false,
            restart_backoff_ms: None,
            peers: Vec::new(),
            groups: Vec::new(),
        };
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        spawn(&config, socket, actors, Obs::enabled()).expect("spawn the node thread")
    }

    fn spec(pid: u64, backoff: Duration, factory: ActorFactory) -> ActorSpec {
        ActorSpec {
            pid: ProcessId(pid),
            factory,
            seed: 7,
            policy: SupervisorPolicy {
                backoff_base: backoff,
                backoff_cap: backoff,
                max_restarts: 5,
            },
        }
    }

    /// Re-arms a `PERIOD` timer `ROUNDS` times and reports how late each
    /// firing ran, in µs of the node clock.
    struct Ticker {
        armed_at: SimTime,
        lateness: Vec<u64>,
        report: mpsc::Sender<Vec<u64>>,
    }

    const PERIOD: SimDuration = SimDuration::from_millis(1);
    const ROUNDS: usize = 50;

    impl Actor for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.armed_at = ctx.now();
            ctx.set_timer(PERIOD, TimerToken(1));
        }

        fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: Box<dyn Payload>) {}

        fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerToken) {
            let now = ctx.now();
            self.lateness
                .push(now.duration_since(self.armed_at + PERIOD).as_micros());
            if self.lateness.len() < ROUNDS {
                self.armed_at = now;
                ctx.set_timer(PERIOD, TimerToken(1));
            } else {
                let _ = self.report.send(std::mem::take(&mut self.lateness));
            }
        }

        fn state_digest(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn one_millisecond_timers_fire_well_within_a_millisecond() {
        let (report, results) = mpsc::channel();
        let factory: ActorFactory = Box::new(move |_| {
            Box::new(Ticker {
                armed_at: SimTime::ZERO,
                lateness: Vec::new(),
                report: report.clone(),
            })
        });
        let node = host(vec![spec(1, Duration::from_millis(50), factory)]);
        let mut lateness = results
            .recv_timeout(Duration::from_secs(10))
            .expect("the ticker finishes its rounds");
        node.shutdown();
        lateness.sort_unstable();
        let median = lateness[lateness.len() / 2];
        assert!(
            median < 1_000,
            "median lateness {median} µs of a 1 ms timer; sorted: {lateness:?}"
        );
    }

    /// Panics on every message; reports each incarnation it starts.
    struct Fragile {
        started: mpsc::Sender<u64>,
        attempt: u64,
    }

    impl Actor for Fragile {
        fn on_start(&mut self, _: &mut Context<'_>) {
            let _ = self.started.send(self.attempt);
        }

        fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: Box<dyn Payload>) {
            panic!("fragile actor {} got a message", self.attempt);
        }

        fn state_digest(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn a_panicking_handler_restarts_its_actor_and_spares_its_neighbour() {
        let (started, starts) = mpsc::channel();
        let fragile: ActorFactory = Box::new(move |attempt| {
            Box::new(Fragile {
                started: started.clone(),
                attempt,
            })
        });
        let (report, results) = mpsc::channel();
        let ticker: ActorFactory = Box::new(move |_| {
            Box::new(Ticker {
                armed_at: SimTime::ZERO,
                lateness: Vec::new(),
                report: report.clone(),
            })
        });
        let node = host(vec![
            spec(1, Duration::from_millis(500), fragile),
            spec(2, Duration::from_millis(500), ticker),
        ]);
        assert_eq!(starts.recv_timeout(Duration::from_secs(5)), Ok(0));
        let heartbeat = vd_group::multi::ProcessHeartbeat {
            sections: Vec::new(),
        };
        let frame = codec::encode_frame(ProcessId(1), ProcessId(9), &heartbeat).expect("encodes");
        let sender = UdpSocket::bind("127.0.0.1:0").expect("bind");
        sender.send_to(&frame, node.local_addr()).expect("send");
        // The neighbour's timers keep running through the crash and the
        // 500 ms backoff: its 50 rounds of 1 ms finish before the restart.
        results
            .recv_timeout(Duration::from_secs(10))
            .expect("the neighbour keeps ticking");
        assert!(
            starts.try_recv().is_err(),
            "the restart waits out its backoff"
        );
        assert_eq!(starts.recv_timeout(Duration::from_secs(5)), Ok(1));
        assert_eq!(node.obs().metrics.counter(Ctr::NodeSupervisorRestarts), 1);
        node.shutdown();
    }
}
