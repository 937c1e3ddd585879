//! Actors: the unit of computation in the simulated world.
//!
//! Every simulated process — a group-communication daemon, an ORB endpoint,
//! a replicator instance, a workload client — implements [`Actor`]. Handlers
//! receive a [`Context`] through which they read the clock, send messages,
//! set timers and charge CPU time. Handlers never touch the
//! world directly; they emit actions that the scheduler applies after the
//! handler returns, which keeps execution deterministic and re-entrancy-free.

use std::any::Any;
use std::fmt;

use crate::rng::DeterministicRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, ProcessId};

/// A message payload exchanged between actors.
///
/// Payloads stay as typed Rust values inside the simulator (no
/// serialization), but every payload declares its *wire size*: the number of
/// bytes the message would occupy on a real network. Wire sizes drive the
/// link transmission-delay and bandwidth-accounting models.
pub trait Payload: Any + fmt::Debug {
    /// The number of bytes this message would occupy on the wire.
    fn wire_size(&self) -> usize;

    /// An optional content digest for interleaving exploration
    /// ([`crate::explore`]). Two payloads with the same digest are treated
    /// as interchangeable when pruning revisited world states; returning
    /// `None` (the default) disables pruning for any state in which this
    /// payload is in flight, which is always safe.
    fn digest(&self) -> Option<u64> {
        None
    }
}

/// Identifies a timer registered by an actor. The actor chooses the value;
/// the same token is passed back to [`Actor::on_timer`] when the timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub u64);

/// A deferred effect emitted by an actor handler.
///
/// Inside the simulator the scheduler applies these after the handler
/// returns. A real-runtime host (the `vd-node` crate) instead drains them
/// via [`Context::drain_actions`] and performs each one against the
/// operating system — sends become encoded UDP datagrams, timers become
/// deadline waits. The enum is the exact effect vocabulary both backends
/// share, which is what keeps an unmodified [`Actor`] runnable on either.
pub enum Action {
    /// Deliver `payload` to `dst`.
    Send {
        /// The destination process.
        dst: ProcessId,
        /// The message.
        payload: Box<dyn Payload>,
    },
    /// Arm a timer that fires `delay` from now with `token`.
    SetTimer {
        /// How far in the future the timer fires.
        delay: SimDuration,
        /// The token passed back to [`Actor::on_timer`].
        token: TimerToken,
    },
    /// Cancel one outstanding timer with `token` (count-based: cancelling
    /// with none outstanding suppresses the next one set).
    CancelTimer {
        /// The token whose earliest-firing timer is cancelled.
        token: TimerToken,
    },
    /// Create a new process running `actor` on `node`.
    Spawn {
        /// The id the new process was promised.
        pid: ProcessId,
        /// The machine it runs on.
        node: NodeId,
        /// Its behavior.
        actor: Box<dyn Actor>,
    },
    /// Stop a process (it receives no further messages or timers).
    Kill {
        /// The process to stop.
        pid: ProcessId,
    },
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Send { dst, payload } => write!(f, "Send({dst}, {payload:?})"),
            Action::SetTimer { delay, token } => write!(f, "SetTimer({delay}, {token:?})"),
            Action::CancelTimer { token } => write!(f, "CancelTimer({token:?})"),
            Action::Spawn { pid, node, .. } => write!(f, "Spawn({pid} on {node})"),
            Action::Kill { pid } => write!(f, "Kill({pid})"),
        }
    }
}

/// The handler-side view of the world.
///
/// A `Context` is passed to every [`Actor`] handler invocation. All effects
/// requested through it are applied after the handler returns.
#[expect(
    missing_debug_implementations,
    reason = "holds &mut borrows of world internals"
)]
pub struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ProcessId,
    pub(crate) node: NodeId,
    pub(crate) actions: Vec<Action>,
    pub(crate) cpu_cost: SimDuration,
    pub(crate) rng: &'a mut DeterministicRng,
    pub(crate) next_pid: &'a mut u64,
}

impl<'a> Context<'a> {
    /// A context for hosting an actor *outside* the simulated world — the
    /// seam the real-network runtime (`vd-node`) drives actors through.
    ///
    /// The caller supplies the clock reading (real elapsed time mapped to
    /// [`SimTime`]), the actor's identity and a deterministic RNG; after
    /// the handler returns it must collect the emitted effects with
    /// [`Context::drain_actions`] and perform them itself. CPU charging
    /// ([`Context::use_cpu`]) is recorded but has no scheduling effect
    /// outside the simulator — real hosts spend real CPU.
    pub fn external(
        now: SimTime,
        self_id: ProcessId,
        node: NodeId,
        rng: &'a mut DeterministicRng,
        next_pid: &'a mut u64,
    ) -> Self {
        Context {
            now,
            self_id,
            node,
            actions: Vec::new(),
            cpu_cost: SimDuration::ZERO,
            rng,
            next_pid,
        }
    }

    /// Takes every effect the handler emitted so far, leaving the context
    /// empty. External hosts (see [`Context::external`]) call this after
    /// each handler invocation; inside the simulator the scheduler drains
    /// actions itself and this is never needed.
    pub fn drain_actions(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's process id.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// The node this actor runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends `payload` to `dst`. Delivery time is computed by the world from
    /// the topology (latency, jitter, transmission delay) and the fault plan
    /// (drops, partitions).
    pub fn send<P: Payload>(&mut self, dst: ProcessId, payload: P) {
        self.actions.push(Action::Send {
            dst,
            payload: Box::new(payload),
        });
    }

    /// Sends an already-boxed payload (for relaying without re-boxing).
    pub fn send_boxed(&mut self, dst: ProcessId, payload: Box<dyn Payload>) {
        self.actions.push(Action::Send { dst, payload });
    }

    /// Schedules [`Actor::on_timer`] to run `delay` from now with `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.actions.push(Action::SetTimer { delay, token });
    }

    /// Cancels one outstanding timer with `token` (the earliest-firing one).
    /// Cancelling a token with no outstanding timer suppresses the next one
    /// set — prefer cancelling only timers known to be pending.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.actions.push(Action::CancelTimer { token });
    }

    /// Charges `cost` of CPU time to this node for the current handler
    /// invocation. The node is busy (serializing later handlers) until the
    /// accumulated cost elapses.
    pub fn use_cpu(&mut self, cost: SimDuration) {
        self.cpu_cost += cost;
    }

    /// CPU time charged so far in this handler invocation. `now() +
    /// cpu_used()` is the virtual instant the handler's execution has
    /// reached — the right timestamp for fine-grained latency accounting.
    pub fn cpu_used(&self) -> SimDuration {
        self.cpu_cost
    }

    /// The process id the next [`Context::spawn`] on this context will
    /// allocate. Lets an actor construct a child that must be told its own
    /// id up front (e.g. a joining replica) before calling `spawn`.
    pub fn upcoming_spawn_id(&self) -> ProcessId {
        ProcessId(*self.next_pid)
    }

    /// Spawns a new actor on `node`, returning the id it will have. The
    /// new actor's [`Actor::on_start`] runs at the current time.
    pub fn spawn(&mut self, node: NodeId, actor: Box<dyn Actor>) -> ProcessId {
        let pid = ProcessId(*self.next_pid);
        *self.next_pid += 1;
        self.actions.push(Action::Spawn { pid, node, actor });
        pid
    }

    /// Kills a process (it stops receiving messages and timers). Killing
    /// oneself is allowed and takes effect after the handler returns.
    pub fn kill(&mut self, pid: ProcessId) {
        self.actions.push(Action::Kill { pid });
    }

    /// This actor's deterministic random stream.
    pub fn rng(&mut self) -> &mut DeterministicRng {
        self.rng
    }
}

/// A simulated process.
///
/// Implementations hold their own state; the world invokes the handlers.
/// All handlers default to no-ops except [`Actor::on_message`].
///
/// # Examples
///
/// ```
/// use vd_simnet::actor::{Actor, Context, Payload};
/// use vd_simnet::topology::ProcessId;
///
/// #[derive(Debug)]
/// struct Ping;
/// impl Payload for Ping {
///     fn wire_size(&self) -> usize { 8 }
/// }
///
/// struct Echo;
/// impl Actor for Echo {
///     fn on_message(
///         &mut self,
///         ctx: &mut Context<'_>,
///         from: ProcessId,
///         _payload: Box<dyn Payload>,
///     ) {
///         ctx.send(from, Ping);
///     }
///
///     // `None` opts this actor's worlds out of the explorer's pruning.
///     fn state_digest(&self) -> Option<u64> {
///         None
///     }
/// }
/// ```
pub trait Actor: Any {
    /// Invoked once when the actor is spawned.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Invoked for every message delivered to this actor.
    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, payload: Box<dyn Payload>);

    /// Invoked when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: TimerToken) {}

    /// A digest of this actor's logical state, used by [`crate::explore`]
    /// to prune interleavings that reconverge to an already-visited world
    /// state. The digest must cover everything that influences future
    /// behavior (and nothing that doesn't, or pruning degenerates to a
    /// no-op). Returning `None` exempts any world containing this actor
    /// from pruning, which is always safe. There is no default: one
    /// digest-less actor silently disables pruning for its whole world, so
    /// every actor states its choice.
    fn state_digest(&self) -> Option<u64>;
}

/// Downcasts a boxed payload to a concrete type, returning the box back on
/// mismatch so the caller can try another type.
///
/// # Examples
///
/// ```
/// use vd_simnet::actor::{downcast_payload, Payload};
///
/// #[derive(Debug, PartialEq)]
/// struct Hello(u32);
/// impl Payload for Hello {
///     fn wire_size(&self) -> usize { 4 }
/// }
///
/// let boxed: Box<dyn Payload> = Box::new(Hello(7));
/// let hello = downcast_payload::<Hello>(boxed).unwrap();
/// assert_eq!(*hello, Hello(7));
/// ```
pub fn downcast_payload<P: Payload>(payload: Box<dyn Payload>) -> Result<Box<P>, Box<dyn Payload>> {
    if (*payload).type_id() == std::any::TypeId::of::<P>() {
        let any: Box<dyn Any> = payload;
        Ok(any.downcast::<P>().expect("type id verified"))
    } else {
        Err(payload)
    }
}

/// Borrows a payload as a concrete type without consuming it.
pub fn payload_ref<P: Payload>(payload: &dyn Payload) -> Option<&P> {
    (payload as &dyn Any).downcast_ref::<P>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct A(u64);
    impl Payload for A {
        fn wire_size(&self) -> usize {
            8
        }
    }

    #[derive(Debug)]
    struct B;
    impl Payload for B {
        fn wire_size(&self) -> usize {
            0
        }
    }

    #[test]
    fn downcast_matches_type() {
        let boxed: Box<dyn Payload> = Box::new(A(5));
        let a = downcast_payload::<A>(boxed).expect("should downcast");
        assert_eq!(*a, A(5));
    }

    #[test]
    fn downcast_mismatch_returns_original() {
        let boxed: Box<dyn Payload> = Box::new(A(5));
        let back = downcast_payload::<B>(boxed).expect_err("wrong type");
        // The original payload is intact and can still be downcast correctly.
        let a = downcast_payload::<A>(back).expect("original type");
        assert_eq!(*a, A(5));
    }

    #[test]
    fn payload_ref_borrows() {
        let boxed: Box<dyn Payload> = Box::new(A(9));
        assert_eq!(payload_ref::<A>(boxed.as_ref()), Some(&A(9)));
        assert!(payload_ref::<B>(boxed.as_ref()).is_none());
    }

    #[test]
    fn wire_size_is_reported() {
        let boxed: Box<dyn Payload> = Box::new(A(1));
        assert_eq!(boxed.wire_size(), 8);
    }
}
