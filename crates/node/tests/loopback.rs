//! The loopback cluster tests: real nodes on 127.0.0.1, a client driving
//! the ORB layer over actual UDP, and injected crashes of process-level
//! actors.
//!
//! The first test is the acceptance test for the real-network backend:
//! the same protocol stack the simulator model-checks must, on real
//! sockets and threads, serve every request exactly once across a
//! fail-over — zero lost replies (every invocation completes) and zero
//! duplicated executions (the final counter value equals the number of
//! increments, so no retry was executed twice). The others pin down what
//! a node's event loop must keep while one of its actors is down: frames
//! for it are dropped and counted, and an actor sharing its node keeps
//! serving.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the real-network gate: a client on its own UDP socket drives real nodes against \
              wall-clock deadlines"
)]

use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use bytes::Bytes;
use vd_core::style::ReplicationStyle;
use vd_group::multi::ProcessHeartbeat;
use vd_node::client::LoopbackClient;
use vd_node::codec;
use vd_node::config::{AppKind, GroupSpec, NodeConfig, PeerConfig};
use vd_node::node::{Node, NodeHandle};
use vd_obs::registry::{Ctr, Gauge};
use vd_simnet::topology::ProcessId;

const GROUP: u32 = 1;
const CLIENT_PID: u64 = 100;
const REPLY_TIMEOUT: Duration = Duration::from_millis(400);
const ATTEMPTS_PER_GATEWAY: u32 = 10;

struct Cluster {
    nodes: Vec<NodeHandle>,
    client: LoopbackClient,
}

/// Boots one replica group of pids `1..=placement.len()`, pid `p` on node
/// `placement[p - 1]` (nodes are numbered from 1), with a client using
/// `gateways` in turn.
///
/// Binds every socket on 127.0.0.1:0 first, then builds configs from the
/// kernel-chosen ports — no fixed ports, no collision races.
fn boot(
    style: ReplicationStyle,
    seed: u64,
    placement: &[u32],
    restart_backoff_ms: u64,
    gateways: &[u64],
) -> Cluster {
    let node_count = placement.iter().copied().max().unwrap_or(0);
    let node_sockets: Vec<UdpSocket> = (0..node_count)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind node socket"))
        .collect();
    let client_socket = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");

    let mut peers = Vec::new();
    let mut peer_addrs: BTreeMap<ProcessId, SocketAddr> = BTreeMap::new();
    for (i, &node) in placement.iter().enumerate() {
        let pid = i as u64 + 1;
        let addr = node_sockets[(node - 1) as usize]
            .local_addr()
            .expect("node addr");
        peers.push(PeerConfig {
            pid,
            node,
            addr: addr.to_string(),
        });
        peer_addrs.insert(ProcessId(pid), addr);
    }
    // The client is a peer too (replicas need its reply address), hosted
    // by no node — node 0 matches nothing.
    let client_addr = client_socket.local_addr().expect("client addr");
    peers.push(PeerConfig {
        pid: CLIENT_PID,
        node: 0,
        addr: client_addr.to_string(),
    });
    let replicas: Vec<u64> = (1..=placement.len() as u64).collect();

    let nodes: Vec<NodeHandle> = node_sockets
        .into_iter()
        .enumerate()
        .map(|(i, socket)| {
            let config = NodeConfig {
                node_id: i as u32 + 1,
                listen: String::new(), // pre-bound socket supplied below
                seed,
                log_dir: None,
                mirror_stderr: false,
                // Re-join only after the survivors' failure detector has
                // evicted the dead incarnation.
                restart_backoff_ms: Some(restart_backoff_ms),
                peers: peers.clone(),
                groups: vec![GroupSpec {
                    id: GROUP,
                    style,
                    replicas: replicas.clone(),
                    app: AppKind::Counter,
                    join: false,
                    // Wider than the simulation-tuned defaults: CI thread
                    // scheduling noise must not read as a crash.
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
        gateways.iter().map(|&g| ProcessId(g)).collect(),
    );
    Cluster { nodes, client }
}

/// Polls `done` every millisecond until it holds; panics naming `what`
/// after `limit`.
fn wait_until(limit: Duration, what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn increment(client: &mut LoopbackClient) -> u64 {
    let reply = client
        .invoke(
            "counter",
            "increment",
            Bytes::new(),
            REPLY_TIMEOUT,
            ATTEMPTS_PER_GATEWAY,
        )
        .unwrap_or_else(|e| panic!("increment lost: {e}"));
    counter_value(&reply.body)
}

fn counter_value(reply_body: &Bytes) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&reply_body[..8]);
    u64::from_le_bytes(raw)
}

#[test]
fn three_node_cluster_survives_primary_kill_without_losing_or_duplicating() {
    let Cluster { nodes, mut client } =
        boot(ReplicationStyle::Active, 42, &[1, 2, 3], 600, &[1, 2, 3]);

    const TOTAL: u64 = 30;
    const KILL_AFTER: u64 = 10;
    let mut accepted = 0u64;
    let mut last_value = 0u64;
    for i in 0..TOTAL {
        if i == KILL_AFTER {
            // Kill the client's current gateway — the view coordinator on
            // first rotation, i.e. the primary's process-level actor.
            let primary = client.current_gateway();
            let node = &nodes[(primary.0 - 1) as usize];
            assert!(node.crash_actor(primary), "primary must be hosted");
        }
        let reply = client
            .invoke(
                "counter",
                "increment",
                Bytes::new(),
                REPLY_TIMEOUT,
                ATTEMPTS_PER_GATEWAY,
            )
            .unwrap_or_else(|e| panic!("request {i} lost: {e}"));
        accepted += 1;
        let value = counter_value(&reply.body);
        assert!(
            value > last_value,
            "request {i}: counter went {last_value} -> {value}; an increment \
             was executed twice or applied out of order"
        );
        last_value = value;
    }

    // Zero lost replies: every invocation completed.
    assert_eq!(accepted, TOTAL);
    assert_eq!(client.stats.accepted, TOTAL);

    // Zero duplicated executions: the replicated counter saw exactly one
    // increment per accepted request, across the fail-over.
    let reply = client
        .invoke(
            "counter",
            "get",
            Bytes::new(),
            REPLY_TIMEOUT,
            ATTEMPTS_PER_GATEWAY,
        )
        .unwrap_or_else(|e| panic!("final get lost: {e}"));
    assert_eq!(
        counter_value(&reply.body),
        TOTAL,
        "replicated counter diverged from accepted-request count"
    );

    // The kill actually went through the supervisor's restart path.
    let restarts: u64 = nodes
        .iter()
        .map(|n| n.obs().metrics.counter(Ctr::NodeSupervisorRestarts))
        .sum();
    assert!(restarts >= 1, "expected at least one supervisor restart");

    // The failover was real: the client rotated gateways at least once.
    assert!(
        client.stats.failovers >= 1,
        "expected at least one failover"
    );

    // Real frames crossed the socket in both directions.
    let frames_sent: u64 = nodes
        .iter()
        .map(|n| n.obs().metrics.counter(Ctr::NodeFramesSent))
        .sum();
    let frames_recv: u64 = nodes
        .iter()
        .map(|n| n.obs().metrics.counter(Ctr::NodeFramesRecv))
        .sum();
    assert!(frames_sent > 0 && frames_recv > 0);

    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn frames_for_a_crashed_actor_are_dropped_and_counted_not_hoarded() {
    const K: u64 = 25;
    let Cluster { nodes, .. } = boot(ReplicationStyle::Active, 7, &[1, 2, 3], 3_000, &[1]);
    let victim = &nodes[0];
    let counter = |c: Ctr| victim.obs().metrics.counter(c);
    assert!(victim.crash_actor(ProcessId(1)));
    // The restart is counted the moment the crash drops the incarnation.
    wait_until(Duration::from_secs(5), "the crash", || {
        counter(Ctr::NodeSupervisorRestarts) == 1
    });
    // Once both survivors have evicted pid 1, no peer sends to it.
    wait_until(Duration::from_secs(5), "the eviction", || {
        nodes[1..]
            .iter()
            .all(|n| n.obs().metrics.gauge(Gauge::GroupMembers) == 2)
    });
    let mut settled = counter(Ctr::NodeDecodeErrors);
    wait_until(Duration::from_secs(5), "frames in flight to land", || {
        std::thread::sleep(Duration::from_millis(50));
        let now = counter(Ctr::NodeDecodeErrors);
        std::mem::replace(&mut settled, now) == now
    });

    let heartbeat = ProcessHeartbeat {
        sections: Vec::new(),
    };
    let frame = codec::encode_frame(ProcessId(1), ProcessId(CLIENT_PID), &heartbeat)
        .expect("a heartbeat encodes");
    let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
    for _ in 0..K {
        sender
            .send_to(&frame, victim.local_addr())
            .expect("send a frame");
    }
    wait_until(Duration::from_secs(5), "the drops to be counted", || {
        counter(Ctr::NodeDecodeErrors) >= settled + K
    });
    assert_eq!(counter(Ctr::NodeDecodeErrors), settled + K);
    assert_eq!(
        counter(Ctr::NodeSupervisorRestarts),
        1,
        "still inside the backoff"
    );

    // The restarted incarnation re-joins through state transfer.
    wait_until(Duration::from_secs(15), "the re-join", || {
        nodes[1..]
            .iter()
            .all(|n| n.obs().metrics.gauge(Gauge::GroupMembers) == 3)
    });
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn a_co_hosted_replica_keeps_serving_while_its_neighbour_is_down() {
    const BACKOFF: Duration = Duration::from_millis(4_000);
    const BEFORE: u64 = 5;
    const DURING: u64 = 20;
    // Pids 1 and 2 share node 1; pid 3 runs on node 2. The client only
    // uses pid 2, the survivor on the crashed actor's node.
    let Cluster { nodes, mut client } = boot(
        ReplicationStyle::Active,
        11,
        &[1, 1, 2],
        BACKOFF.as_millis() as u64,
        &[2],
    );
    for i in 1..=BEFORE {
        assert_eq!(increment(&mut client), i);
    }
    // Pid 1, the group's coordinator, crashes; its node keeps running pid 2.
    let crashed = Instant::now();
    assert!(nodes[0].crash_actor(ProcessId(1)));
    for i in BEFORE + 1..=BEFORE + DURING {
        assert_eq!(
            increment(&mut client),
            i,
            "an increment was lost or executed twice"
        );
    }
    assert!(
        crashed.elapsed() < BACKOFF,
        "every request was answered inside the backoff"
    );
    assert_eq!(
        nodes[0].obs().metrics.counter(Ctr::NodeSupervisorRestarts),
        1
    );

    // The crashed replica restarts and re-joins: node 2's view is whole.
    wait_until(BACKOFF + Duration::from_secs(15), "the re-join", || {
        nodes[1].obs().metrics.gauge(Gauge::GroupMembers) == 3
    });
    let reply = client
        .invoke(
            "counter",
            "get",
            Bytes::new(),
            REPLY_TIMEOUT,
            ATTEMPTS_PER_GATEWAY,
        )
        .unwrap_or_else(|e| panic!("final get lost: {e}"));
    assert_eq!(counter_value(&reply.body), BEFORE + DURING);
    for node in nodes {
        node.shutdown();
    }
}
