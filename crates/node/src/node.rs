//! Assembling a node: socket, io pump, supervised actors, and the handle
//! that controls them.
//!
//! [`Node::start`] turns a [`NodeConfig`] into a running slice of the
//! cluster: it binds the UDP socket, builds one mailbox plus one
//! supervised [`vd_core::replica::ReplicaActor`] thread per
//! local process id, starts the io pump that routes inbound datagrams to
//! those mailboxes, and returns a [`NodeHandle`]. The handle is also the
//! fault-injection surface: [`NodeHandle::crash_actor`] drops a
//! [`MailItem::Crash`] into a mailbox, panicking the actor thread so the
//! supervisor's restart-and-re-join path runs — the process-crash fault
//! of the paper's fault model, injected exactly where the simulator's
//! `crash_at` would inject it — and [`NodeHandle::set_egress_delay`]
//! arms the socket-level [`crate::transport::DelayShim`], the gray
//! (fail-slow) fault the simulator injects with `set_link_delay`.

use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use vd_core::knobs::LowLevelKnobs;
use vd_core::replica::{GroupMembership, HostedGroup, ReplicaActor, ReplicaConfig};
use vd_group::message::GroupId;
use vd_obs::{Obs, ObsHandle};
use vd_simnet::topology::{NodeId, ProcessId};

use crate::clock::NodeClock;
use crate::config::{GroupSpec, NodeConfig};
use crate::host::{spawn_supervised, ActorFactory, ActorSpec, SupervisorPolicy};
use crate::log::NodeLog;
use crate::mailbox::{MailItem, Mailbox};
use crate::transport::{run_delay_pump, run_io_pump, DelayShim};

/// Builder entry points for a running node.
#[derive(Debug)]
pub struct Node;

/// A running node: its actor threads, io pump and control surface.
pub struct NodeHandle {
    mailboxes: BTreeMap<ProcessId, Arc<Mailbox>>,
    actor_joins: Vec<JoinHandle<()>>,
    pump_join: Option<JoinHandle<()>>,
    delay_join: Option<JoinHandle<()>>,
    shim: Arc<DelayShim>,
    shutdown: Arc<AtomicBool>,
    obs: ObsHandle,
    log: Arc<NodeLog>,
    local_addr: SocketAddr,
}

impl Node {
    /// Binds `config.listen` and starts the node.
    pub fn start(config: NodeConfig) -> std::io::Result<NodeHandle> {
        let socket = UdpSocket::bind(&config.listen)?;
        Self::start_with_socket(config, socket)
    }

    /// Starts the node on an already-bound socket.
    ///
    /// Tests bind `127.0.0.1:0` themselves and rewrite the peer table
    /// with the kernel-chosen ports, which removes every port-collision
    /// race from the integration suite.
    pub fn start_with_socket(config: NodeConfig, socket: UdpSocket) -> std::io::Result<NodeHandle> {
        let local_addr = socket.local_addr()?;
        let socket = Arc::new(socket);
        let clock = NodeClock::new();
        let obs = Obs::enabled();
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
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
            peers.insert(ProcessId(peer.pid), addr);
        }
        let peers = Arc::new(peers);
        let shutdown = Arc::new(AtomicBool::new(false));
        let shim = Arc::new(DelayShim::new());

        // One mailbox per local pid; the router map is immutable once the
        // pump starts, so routing needs no locks.
        let mut mailboxes: BTreeMap<ProcessId, Arc<Mailbox>> = BTreeMap::new();
        for pid in config.local_pids() {
            mailboxes.insert(ProcessId(pid), Mailbox::new(obs.clone()));
        }
        let router = Arc::new(mailboxes.clone());

        let mut policy = SupervisorPolicy::default();
        if let Some(ms) = config.restart_backoff_ms {
            policy.backoff_base = std::time::Duration::from_millis(ms);
            policy.backoff_cap = policy.backoff_cap.max(policy.backoff_base);
        }
        let mut actor_joins = Vec::new();
        for (&pid, mailbox) in &mailboxes {
            let spec = ActorSpec {
                pid,
                node: NodeId(config.node_id),
                factory: replica_factory(pid, &config, obs.clone()),
                seed: config.seed,
                policy,
            };
            actor_joins.push(spawn_supervised(
                spec,
                clock.clone(),
                Arc::clone(&socket),
                Arc::clone(&peers),
                Arc::clone(&shim),
                Arc::clone(mailbox),
                obs.clone(),
                Arc::clone(&log),
                Arc::clone(&shutdown),
            )?);
        }

        let pump_join = {
            let socket = Arc::clone(&socket);
            let obs = obs.clone();
            let log = Arc::clone(&log);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name(format!("vd-pump-{}", config.node_id))
                .spawn(move || run_io_pump(socket, router, obs, log, shutdown))?
        };
        let delay_join = {
            let socket = Arc::clone(&socket);
            let shim = Arc::clone(&shim);
            let obs = obs.clone();
            let log = Arc::clone(&log);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name(format!("vd-delay-{}", config.node_id))
                .spawn(move || run_delay_pump(socket, shim, obs, log, shutdown))?
        };

        log.line(&format!(
            "node {} up at {local_addr} hosting {:?}",
            config.node_id,
            mailboxes.keys().map(|p| p.0).collect::<Vec<_>>()
        ));
        Ok(NodeHandle {
            mailboxes,
            actor_joins,
            pump_join: Some(pump_join),
            delay_join: Some(delay_join),
            shim,
            shutdown,
            obs,
            log,
            local_addr,
        })
    }
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
        self.mailboxes.keys().copied().collect()
    }

    /// Arms (nonzero) or disarms (zero) a socket-level egress delay on
    /// every datagram this node sends — the gray-failure fault injection
    /// of the real backend: the node stays alive and keeps talking, but
    /// everything it says arrives `delay` late.
    pub fn set_egress_delay(&self, delay: std::time::Duration) {
        self.log
            .line(&format!("egress delay shim set to {delay:?}"));
        self.shim.set_delay(delay);
    }

    /// Injects a crash into the actor for `pid` (it will panic and be
    /// restarted by its supervisor). Returns `false` if `pid` is not
    /// hosted here.
    pub fn crash_actor(&self, pid: ProcessId) -> bool {
        match self.mailboxes.get(&pid) {
            Some(mailbox) => {
                self.log
                    .line(&format!("injecting crash into actor {}", pid.0));
                mailbox.push(MailItem::Crash);
                true
            }
            None => false,
        }
    }

    /// Stops every actor and the io pump, then joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for mailbox in self.mailboxes.values() {
            mailbox.push(MailItem::Shutdown);
        }
        for join in self.actor_joins.drain(..) {
            let _ = join.join();
        }
        if let Some(pump) = self.pump_join.take() {
            let _ = pump.join();
        }
        if let Some(delay) = self.delay_join.take() {
            // The delay pump re-checks shutdown at most 50 ms apart even
            // while idle; waking it through the shim makes the join quick.
            self.shim.set_delay(std::time::Duration::ZERO);
            let _ = delay.join();
        }
        self.log.line("node shut down");
    }
}
