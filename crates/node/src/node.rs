//! Assembling a node: socket, event-loop thread, hosted replicas, and the
//! handle that controls them.
//!
//! [`Node::start`] turns a [`NodeConfig`] into a running slice of the
//! cluster: it binds the UDP socket, builds one supervised
//! [`vd_core::replica::ReplicaActor`] factory per local process id, and
//! starts the node's one thread, `vd-node-<id>`, whose event loop
//! ([`crate::host`]) hosts them all, then returns a [`NodeHandle`]. The
//! handle is also the fault-injection surface. [`NodeHandle::crash_actor`]
//! crashes one actor as a panic would, so the supervisor's
//! restart-and-re-join path runs — the process-crash fault of the paper's
//! fault model, injected exactly where the simulator's `crash_at` would
//! inject it. [`NodeHandle::set_egress_delay`] arms the socket-level delay
//! shim, the gray (fail-slow) fault the simulator injects with
//! `set_link_delay`. Both post to the loop over a control channel and then
//! wake it with a zero-length datagram to the node's own socket.

use std::collections::BTreeMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vd_core::knobs::LowLevelKnobs;
use vd_core::replica::{GroupMembership, HostedGroup, ReplicaActor, ReplicaConfig};
use vd_group::message::GroupId;
use vd_obs::{Obs, ObsHandle};
use vd_simnet::topology::{NodeId, ProcessId};

use crate::clock::NodeClock;
use crate::config::{GroupSpec, NodeConfig};
use crate::host::{self, ActorFactory, ActorSpec, Control, SupervisorPolicy};
use crate::log::NodeLog;
use crate::transport::Wire;

/// Builder entry points for a running node.
#[derive(Debug)]
pub struct Node;

/// A running node: its event-loop thread and control surface.
#[expect(
    clippy::disallowed_types,
    reason = "the handle's end of the control channel, whose sends never block, and the socket \
              clone that wakes the loop"
)]
pub struct NodeHandle {
    pids: Vec<ProcessId>,
    control: std::sync::mpsc::Sender<Control>,
    /// A clone of the node socket, used only to wake the loop.
    waker: std::net::UdpSocket,
    wake_addr: SocketAddr,
    thread: JoinHandle<()>,
    obs: ObsHandle,
    log: Arc<NodeLog>,
    local_addr: SocketAddr,
}

#[expect(
    clippy::disallowed_types,
    reason = "node startup binds the one node socket and hands it to the loop thread"
)]
impl Node {
    /// Binds `config.listen` and starts the node.
    pub fn start(config: NodeConfig) -> io::Result<NodeHandle> {
        let socket = std::net::UdpSocket::bind(&config.listen)?;
        Self::start_with_socket(config, socket)
    }

    /// Starts the node on an already-bound socket.
    ///
    /// Tests bind `127.0.0.1:0` themselves and rewrite the peer table
    /// with the kernel-chosen ports, which removes every port-collision
    /// race from the integration suite.
    pub fn start_with_socket(
        config: NodeConfig,
        socket: std::net::UdpSocket,
    ) -> io::Result<NodeHandle> {
        let obs = Obs::enabled();
        let mut policy = SupervisorPolicy::default();
        if let Some(ms) = config.restart_backoff_ms {
            policy.backoff_base = Duration::from_millis(ms);
            policy.backoff_cap = policy.backoff_cap.max(policy.backoff_base);
        }
        let actors = config
            .local_pids()
            .into_iter()
            .map(|pid| ActorSpec {
                pid: ProcessId(pid),
                factory: replica_factory(ProcessId(pid), &config, obs.clone()),
                seed: config.seed,
                policy,
            })
            .collect();
        spawn(&config, socket, actors, obs)
    }
}

/// Starts the thread `vd-node-<id>` hosting `actors` on `socket`, with the
/// node id, peer table and log settings of `config`.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the node's one event-loop thread, named vd-node-<id>, takes the socket and the \
              control channel's receiver; it is joined on shutdown"
)]
pub(crate) fn spawn(
    config: &NodeConfig,
    socket: std::net::UdpSocket,
    actors: Vec<ActorSpec>,
    obs: ObsHandle,
) -> io::Result<NodeHandle> {
    let local_addr = socket.local_addr()?;
    // The loop receives only after ppoll reports the socket readable, but
    // a datagram can still vanish in between (a failed checksum); it must
    // then read "would block", not hang.
    socket.set_nonblocking(true)?;
    let waker = socket.try_clone()?;
    let clock = NodeClock::new();
    let log = NodeLog::create(
        config.log_dir.as_deref(),
        config.node_id,
        clock.clone(),
        config.mirror_stderr,
    )?;
    let mut peers: BTreeMap<ProcessId, SocketAddr> = BTreeMap::new();
    for peer in &config.peers {
        let addr = peer
            .addr
            .parse::<SocketAddr>()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        peers.insert(ProcessId(peer.pid), addr);
    }
    let pids: Vec<ProcessId> = actors.iter().map(|spec| spec.pid).collect();
    let (control, requests) = std::sync::mpsc::channel();
    let wire = Wire::new(socket, peers, clock, obs.clone(), Arc::clone(&log));
    let thread = {
        let node = NodeId(config.node_id);
        let (obs, log) = (obs.clone(), Arc::clone(&log));
        std::thread::Builder::new()
            .name(format!("vd-node-{}", config.node_id))
            .spawn(move || host::run(node, wire, actors, requests, obs, log))?
    };
    log.line(&format!(
        "node {} up at {local_addr} hosting {:?}",
        config.node_id,
        pids.iter().map(|p| p.0).collect::<Vec<_>>()
    ));
    Ok(NodeHandle {
        pids,
        control,
        waker,
        wake_addr: wake_address(local_addr),
        thread,
        obs,
        log,
        local_addr,
    })
}

/// Where the handle sends its wake-up datagrams: the node's own address,
/// with an unspecified bind address replaced by loopback.
fn wake_address(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip @ (IpAddr::V4(_) | IpAddr::V6(_)) => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// Builds the factory producing incarnations of one replica process.
///
/// Incarnation 0 honors the configured membership (bootstrap or join);
/// every restart re-enters all hosted groups with
/// [`GroupMembership::Joining`], because the crashed incarnation's state
/// is gone and the survivors' recovery path — join, state transfer, then
/// serve — is the only sound way back in.
fn replica_factory(pid: ProcessId, config: &NodeConfig, obs: ObsHandle) -> ActorFactory {
    let groups: Vec<GroupSpec> = config
        .groups
        .iter()
        .filter(|g| g.replicas.contains(&pid.0))
        .cloned()
        .collect();
    assert!(
        !groups.is_empty(),
        "process {} is hosted here but serves no group",
        pid.0
    );
    Box::new(move |attempt: u64| {
        let hosted: Vec<HostedGroup> = groups
            .iter()
            .map(|g| {
                let members: Vec<ProcessId> = g.replicas.iter().map(|&p| ProcessId(p)).collect();
                let contacts: Vec<ProcessId> =
                    members.iter().copied().filter(|&m| m != pid).collect();
                let membership = if attempt == 0 && !g.join {
                    GroupMembership::Bootstrap(members.clone())
                } else {
                    GroupMembership::Joining(contacts)
                };
                let mut rc = ReplicaConfig::for_group(GroupId(g.id));
                rc.knobs = LowLevelKnobs::default()
                    .style(g.style)
                    .num_replicas(g.replicas.len());
                rc.obs = obs.clone();
                // Real clusters usually widen the simulation-tuned
                // fault-monitoring defaults: thread scheduling noise must
                // not read as a crash.
                rc.group_config = g.group_config();
                HostedGroup {
                    membership,
                    app: g.app.build(),
                    config: rc,
                }
            })
            .collect();
        Box::new(ReplicaActor::host(pid, hosted, Some(obs.clone())))
    })
}

impl NodeHandle {
    /// The socket address the node actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The node's metrics and trace handle.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// The process ids hosted by this node.
    pub fn local_pids(&self) -> Vec<ProcessId> {
        self.pids.clone()
    }

    /// Arms (nonzero) or disarms (zero) a socket-level egress delay on
    /// every datagram this node sends — the gray-failure fault injection
    /// of the real backend: the node stays alive and keeps talking, but
    /// everything it says arrives `delay` late.
    pub fn set_egress_delay(&self, delay: Duration) {
        self.log
            .line(&format!("egress delay shim set to {delay:?}"));
        self.post(Control::EgressDelay(delay));
    }

    /// Injects a crash into the actor for `pid`: its incarnation is
    /// dropped and its supervisor restarts it after the backoff. Returns
    /// `false` if `pid` is not hosted here.
    pub fn crash_actor(&self, pid: ProcessId) -> bool {
        if !self.pids.contains(&pid) {
            return false;
        }
        self.log
            .line(&format!("injecting crash into actor {}", pid.0));
        self.post(Control::Crash(pid));
        true
    }

    /// Stops the node's loop, and with it every actor, then joins its
    /// thread.
    pub fn shutdown(self) {
        self.post(Control::Shutdown);
        if self.thread.join().is_err() {
            self.log.line("node loop panicked");
        }
        self.log.line("node shut down");
    }

    /// Hands `control` to the loop and wakes it.
    fn post(&self, control: Control) {
        // A send fails only once the loop has stopped; then there is
        // nothing left to control.
        if self.control.send(control).is_ok() {
            if let Err(e) = self.waker.send_to(&[], self.wake_addr) {
                self.log.line(&format!("waking the node loop failed: {e}"));
            }
        }
    }
}
