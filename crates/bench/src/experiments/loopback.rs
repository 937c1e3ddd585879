//! Real-network smoke gate: a 3-node loopback cluster over actual UDP
//! with a mid-run primary kill (`BENCH_PR8.json`).
//!
//! Every other gate measures the stack inside the simulator. This one
//! boots the *deployment* backend — `vd-node`'s per-node event loops and
//! UDP transport on 127.0.0.1 — drives a client workload through the
//! ORB layer, kills the primary's process-level actor a third of the way
//! in, and requires:
//!
//! * **zero lost replies** — every invocation completes within its retry
//!   budget despite the fail-over,
//! * **zero duplicated executions** — the replicated counter's final
//!   value equals the number of accepted increments (retries resent the
//!   same request id; the replicator's invocation cache absorbed them),
//! * **a real supervisor restart** — the kill went through the
//!   restart-with-backoff, re-join-and-state-transfer path,
//! * **a wall-clock budget** — the whole run, fail-over included, fits
//!   in [`WALL_BUDGET_SECS`]; a wedged fail-over hangs forever, so the
//!   budget is the liveness assertion.
//!
//! After the crash phase settles, a **gray phase** runs the same zero
//! lost / zero duplicated contract against a *fail-slow* fault: the
//! current gateway's node gets a [`GRAY_DELAY_MS`] socket-level egress
//! delay ([`vd_node::node::NodeHandle::set_egress_delay`]) — alive,
//! talking, late — for [`GRAY_REQUESTS`] invocations. The delay sits far
//! below the group's failure timeout, so the phase additionally requires
//! **zero suspicions**: a merely-slow node that gets suspected (and
//! evicted, and its actor's state thrown away) is the false-dead failure
//! mode the adaptive detector exists to prevent, observed here on real
//! sockets rather than simulated links.
//!
//! The gate reports no request rate: its closed loop spends most of its
//! wall clock in the fail-over wait and the gray phase's settling pause,
//! so a rate would measure those sleeps. perfbench measures speed.

use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use bytes::Bytes;
use vd_core::style::ReplicationStyle;
use vd_node::client::LoopbackClient;
use vd_node::config::{AppKind, GroupSpec, NodeConfig, PeerConfig};
use vd_node::node::{Node, NodeHandle};
use vd_obs::registry::Ctr;
use vd_simnet::prelude::*;

/// Hard wall-clock ceiling for the UDP phase (seconds).
pub const WALL_BUDGET_SECS: f64 = 60.0;
/// Requests in the measured run (small: this is a smoke gate, not a
/// throughput benchmark — the loopback adapter is a single closed loop).
pub const REQUESTS: u64 = 60;
/// The primary is killed after this many accepted requests.
pub const KILL_AFTER: u64 = 20;
/// Requests driven through the slowed gateway in the gray phase.
pub const GRAY_REQUESTS: u64 = 25;
/// Egress delay armed on the gateway's node during the gray phase —
/// far below the 300 ms group failure timeout, squarely in the gray zone.
pub const GRAY_DELAY_MS: u64 = 40;

const CLIENT_PID: u64 = 100;
const GROUP: u32 = 1;

/// Outcome of the loopback gate.
#[derive(Debug, Clone)]
pub struct LoopbackResult {
    /// Requests issued (and required to complete).
    pub requests: u64,
    /// Requests that completed with an accepted reply.
    pub accepted: u64,
    /// Final replicated counter value (must equal `requests`).
    pub final_counter: u64,
    /// Gateway rotations the client performed.
    pub failovers: u64,
    /// Duplicate replies the client's tracker discarded (expected under
    /// fail-over; they prove the dedup path ran, they are not failures).
    pub duplicate_replies: u64,
    /// Supervisor restarts across the cluster (must be ≥ 1).
    pub supervisor_restarts: u64,
    /// Requests driven through the slowed gateway in the gray phase.
    pub gray_requests: u64,
    /// Gray-phase requests that completed with an accepted reply.
    pub gray_accepted: u64,
    /// Failure-detector suspicions raised anywhere in the cluster while
    /// the egress delay was armed (must be 0: slow is not dead).
    pub gray_suspicions: u64,
    /// Datagrams sent by all nodes.
    pub frames_sent: u64,
    /// Wall-clock seconds for the UDP phase.
    pub elapsed_secs: f64,
}

impl LoopbackResult {
    /// Names of failing acceptance gates (empty = pass).
    pub fn failing_gates(&self) -> Vec<String> {
        let mut failing = Vec::new();
        if self.accepted < self.requests {
            failing.push(format!(
                "loopback-lost ({} of {} replies missing)",
                self.requests - self.accepted,
                self.requests
            ));
        }
        if self.gray_accepted < self.gray_requests {
            failing.push(format!(
                "loopback-gray-lost ({} of {} gray replies missing)",
                self.gray_requests - self.gray_accepted,
                self.gray_requests
            ));
        }
        if self.final_counter != self.requests + self.gray_requests {
            failing.push(format!(
                "loopback-duplicated (counter {} != {} accepted)",
                self.final_counter,
                self.requests + self.gray_requests
            ));
        }
        if self.supervisor_restarts < 1 {
            failing.push("loopback-restart (no supervisor restart observed)".into());
        }
        if self.gray_suspicions > 0 {
            failing.push(format!(
                "loopback-gray-suspected ({} suspicions of a merely-slow node)",
                self.gray_suspicions
            ));
        }
        if self.elapsed_secs > WALL_BUDGET_SECS {
            failing.push(format!(
                "loopback-budget ({:.1}s > {WALL_BUDGET_SECS}s)",
                self.elapsed_secs
            ));
        }
        failing
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "## Loopback — 3 real nodes over UDP, primary killed mid-run, then a gray gateway\n\
             requests  | accepted | counter | failovers | restarts | elapsed (s)\n\
             {:>9} | {:>8} | {:>7} | {:>9} | {:>8} | {:>11.2}\n\
             gray phase ({GRAY_DELAY_MS} ms egress delay): {}/{} accepted, {} suspicions\n\
             zero lost: {} — zero duplicated: {} — {}\n",
            self.requests,
            self.accepted,
            self.final_counter,
            self.failovers,
            self.supervisor_restarts,
            self.elapsed_secs,
            self.gray_accepted,
            self.gray_requests,
            self.gray_suspicions,
            self.accepted == self.requests && self.gray_accepted == self.gray_requests,
            self.final_counter == self.requests + self.gray_requests,
            if self.failing_gates().is_empty() {
                "PASS"
            } else {
                "FAIL"
            }
        )
    }

    /// Machine-readable gate summary (`BENCH_PR8.json`).
    pub fn to_json(&self) -> String {
        let gates = self
            .failing_gates()
            .iter()
            .map(|g| format!("\"{}\"", g.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"experiment\":\"loopback\",\"requests\":{},\"accepted\":{},\
             \"final_counter\":{},\"failovers\":{},\"duplicate_replies\":{},\
             \"supervisor_restarts\":{},\"frames_sent\":{},\
             \"gray_requests\":{},\"gray_accepted\":{},\"gray_suspicions\":{},\
             \"gray_delay_ms\":{GRAY_DELAY_MS},\
             \"elapsed_secs\":{:.3},\
             \"wall_budget_secs\":{WALL_BUDGET_SECS},\
             \"failing_gates\":[{}],\"pass\":{}}}\n",
            self.requests,
            self.accepted,
            self.final_counter,
            self.failovers,
            self.duplicate_replies,
            self.supervisor_restarts,
            self.frames_sent,
            self.gray_requests,
            self.gray_accepted,
            self.gray_suspicions,
            self.elapsed_secs,
            gates,
            self.failing_gates().is_empty()
        )
    }
}

fn boot_cluster(seed: u64) -> (Vec<NodeHandle>, LoopbackClient) {
    let node_sockets: Vec<UdpSocket> = (0..3)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind node socket"))
        .collect();
    let client_socket = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
    let mut peers = Vec::new();
    let mut peer_addrs: BTreeMap<ProcessId, SocketAddr> = BTreeMap::new();
    for (i, socket) in node_sockets.iter().enumerate() {
        let pid = i as u64 + 1;
        let addr = socket.local_addr().expect("node addr");
        peers.push(PeerConfig {
            pid,
            node: i as u32 + 1,
            addr: addr.to_string(),
        });
        peer_addrs.insert(ProcessId(pid), addr);
    }
    peers.push(PeerConfig {
        pid: CLIENT_PID,
        node: 0,
        addr: client_socket.local_addr().expect("client addr").to_string(),
    });
    let nodes: Vec<NodeHandle> = node_sockets
        .into_iter()
        .enumerate()
        .map(|(i, socket)| {
            let config = NodeConfig {
                node_id: i as u32 + 1,
                listen: String::new(),
                seed,
                log_dir: Some(std::path::PathBuf::from("loopback-logs")),
                mirror_stderr: false,
                restart_backoff_ms: Some(600),
                peers: peers.clone(),
                groups: vec![GroupSpec {
                    id: GROUP,
                    style: ReplicationStyle::Active,
                    replicas: vec![1, 2, 3],
                    app: AppKind::Counter,
                    join: false,
                    heartbeat_ms: Some(30),
                    failure_timeout_ms: Some(300),
                }],
            };
            Node::start_with_socket(config, socket).expect("start node")
        })
        .collect();
    let client = LoopbackClient::new(
        ProcessId(CLIENT_PID),
        client_socket,
        peer_addrs,
        vec![ProcessId(1), ProcessId(2), ProcessId(3)],
    );
    (nodes, client)
}

fn counter_value(body: &Bytes) -> u64 {
    let mut raw = [0u8; 8];
    if body.len() >= 8 {
        raw.copy_from_slice(&body[..8]);
    }
    u64::from_le_bytes(raw)
}

/// Runs the loopback gate. `_requests` is accepted for CLI uniformity
/// but the measured run is fixed at [`REQUESTS`] — a smoke gate's wall
/// budget must not scale with `--requests`.
pub fn run(_requests: u64, seed: u64) -> LoopbackResult {
    let (nodes, mut client) = boot_cluster(seed);
    let reply_timeout = Duration::from_millis(400);
    let attempts_per_gateway = 10;

    let started = Instant::now();
    let mut accepted = 0u64;
    for i in 0..REQUESTS {
        if i == KILL_AFTER {
            let primary = client.current_gateway();
            let node = &nodes[(primary.0 - 1) as usize];
            node.crash_actor(primary);
        }
        if client
            .invoke(
                "counter",
                "increment",
                Bytes::new(),
                reply_timeout,
                attempts_per_gateway,
            )
            .is_ok()
        {
            accepted += 1;
        }
    }

    // Gray phase: let the killed incarnation's restart and re-join
    // settle, then slow the current gateway's node — alive, talking,
    // 40 ms late on every datagram — and run the same contract through
    // it. The delay is far below the 300 ms failure timeout, so any
    // suspicion raised while it is armed is a false-dead verdict.
    std::thread::sleep(Duration::from_millis(1_000));
    let suspicions = |nodes: &[NodeHandle]| -> u64 {
        nodes
            .iter()
            .map(|n| n.obs().metrics.counter(Ctr::GroupSuspicions))
            .sum()
    };
    let suspicions_before = suspicions(&nodes);
    let gray_gateway = client.current_gateway();
    let gray_node = &nodes[(gray_gateway.0 - 1) as usize];
    gray_node.set_egress_delay(Duration::from_millis(GRAY_DELAY_MS));
    let mut gray_accepted = 0u64;
    for _ in 0..GRAY_REQUESTS {
        if client
            .invoke(
                "counter",
                "increment",
                Bytes::new(),
                reply_timeout,
                attempts_per_gateway,
            )
            .is_ok()
        {
            gray_accepted += 1;
        }
    }
    gray_node.set_egress_delay(Duration::ZERO);
    let gray_suspicions = suspicions(&nodes).saturating_sub(suspicions_before);

    let final_counter = client
        .invoke(
            "counter",
            "get",
            Bytes::new(),
            reply_timeout,
            attempts_per_gateway,
        )
        .map(|reply| counter_value(&reply.body))
        .unwrap_or(0);
    let elapsed_secs = started.elapsed().as_secs_f64();

    let supervisor_restarts = nodes
        .iter()
        .map(|n| n.obs().metrics.counter(Ctr::NodeSupervisorRestarts))
        .sum();
    let frames_sent = nodes
        .iter()
        .map(|n| n.obs().metrics.counter(Ctr::NodeFramesSent))
        .sum();
    for node in nodes {
        node.shutdown();
    }

    LoopbackResult {
        requests: REQUESTS,
        accepted,
        final_counter,
        failovers: client.stats.failovers,
        duplicate_replies: client.stats.duplicate_replies,
        supervisor_restarts,
        frames_sent,
        gray_requests: GRAY_REQUESTS,
        gray_accepted,
        gray_suspicions,
        elapsed_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_enough() {
        let result = LoopbackResult {
            requests: 60,
            accepted: 60,
            final_counter: 85,
            failovers: 2,
            duplicate_replies: 1,
            supervisor_restarts: 1,
            frames_sent: 1000,
            gray_requests: 25,
            gray_accepted: 25,
            gray_suspicions: 0,
            elapsed_secs: 3.5,
        };
        let json = result.to_json();
        assert!(json.contains("\"experiment\":\"loopback\""));
        assert!(json.contains("\"gray_suspicions\":0"));
        assert!(json.contains("\"pass\":true"));
        assert!(result.failing_gates().is_empty());
    }

    #[test]
    fn gates_catch_loss_duplication_and_missing_restart() {
        let mut result = LoopbackResult {
            requests: 60,
            accepted: 59,
            final_counter: 61,
            failovers: 0,
            duplicate_replies: 0,
            supervisor_restarts: 0,
            frames_sent: 0,
            gray_requests: 25,
            gray_accepted: 24,
            gray_suspicions: 2,
            elapsed_secs: 90.0,
        };
        let failing = result.failing_gates();
        assert_eq!(failing.len(), 6, "{failing:?}");
        result.accepted = 60;
        result.final_counter = 85;
        result.supervisor_restarts = 1;
        result.gray_accepted = 25;
        result.gray_suspicions = 0;
        result.elapsed_secs = 3.0;
        assert!(result.failing_gates().is_empty());
    }
}
