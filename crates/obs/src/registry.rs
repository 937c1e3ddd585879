//! Fixed-shape metrics registry: counters, gauges, and log₂-bucket
//! histograms, all addressed by enum index.
//!
//! Every metric that will ever exist is declared up front in the
//! [`Ctr`], [`Gauge`], and [`Hist`] enums, each with a stable name and
//! a *fixed* label set. The registry is therefore a handful of atomic
//! arrays sized at compile time: recording is a few relaxed atomic
//! operations and never allocates, which is what lets the monitoring
//! substrate stay always-on (the premise of the paper's Fig. 8
//! measure→decide→actuate loop).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets per histogram (values saturate at the top
/// bucket, covering `2^63` and beyond).
pub const HIST_BUCKETS: usize = 64;

/// Fixed label set attached to a metric: `(key, value)` pairs known at
/// compile time.
pub type Labels = &'static [(&'static str, &'static str)];

macro_rules! metric_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident / $count:ident {
        $($(#[$vmeta:meta])* $variant:ident => ($mname:literal, $labels:expr),)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        $vis enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        /// Number of declared metrics of this kind.
        $vis const $count: usize = [$($name::$variant),*].len();

        impl $name {
            /// All declared metrics of this kind, in index order.
            pub const ALL: [$name; $count] = [$($name::$variant),*];

            /// Stable dotted metric name, e.g. `group.sends`.
            pub fn name(self) -> &'static str {
                match self { $($name::$variant => $mname,)* }
            }

            /// The metric's fixed label set.
            pub fn labels(self) -> Labels {
                match self { $($name::$variant => $labels,)* }
            }
        }
    };
}

const L_ORB: Labels = &[("layer", "orb")];
const L_REP: Labels = &[("layer", "replicator")];
const L_CKPT_FULL: Labels = &[("layer", "replicator"), ("kind", "full")];
const L_CKPT_DELTA: Labels = &[("layer", "replicator"), ("kind", "delta")];
const L_GRP: Labels = &[("layer", "group")];
const L_SIM: Labels = &[("layer", "simnet")];
const L_REC: Labels = &[("layer", "recovery")];
const L_NODE: Labels = &[("layer", "node")];

metric_enum! {
    /// Monotonic counters. Names mirror the event taxonomy in
    /// [`crate::event::EventKind`]; see OBSERVABILITY.md for the full
    /// table.
    pub enum Ctr / CTR_COUNT {
        /// Requests that entered the interposed ORB path.
        OrbRequestsIn => ("orb.requests_in", L_ORB),
        /// Replies returned to clients through the gateway.
        OrbRepliesOut => ("orb.replies_out", L_ORB),
        /// Marshaled request+reply bytes through the gateway.
        OrbMarshalBytes => ("orb.marshal_bytes", L_ORB),
        /// Invocations delivered to the replicator in total order.
        RepInvokesDelivered => ("replicator.invokes_delivered", L_REP),
        /// Invocations actually executed against the servant.
        RepExecuted => ("replicator.executed", L_REP),
        /// Duplicate requests suppressed by the invocation cache.
        RepDuplicatesSuppressed => ("replicator.duplicates_suppressed", L_REP),
        /// Full checkpoints multicast.
        CkptFullSent => ("replicator.checkpoints_sent", L_CKPT_FULL),
        /// Delta checkpoints multicast.
        CkptDeltaSent => ("replicator.checkpoints_sent", L_CKPT_DELTA),
        /// State payload bytes across all checkpoints sent.
        CkptBytesSent => ("replicator.checkpoint_bytes", L_REP),
        /// Checkpoints applied to local state.
        CkptApplied => ("replicator.checkpoints_applied", L_REP),
        /// Delta checkpoints rejected by the chain rule.
        CkptRejected => ("replicator.checkpoints_rejected", L_REP),
        /// Adaptation-policy decisions emitted (Fig. 8 "decide").
        PolicyDecisions => ("replicator.policy_decisions", L_REP),
        /// Completed replication-style switches (Fig. 5 runs).
        StyleSwitches => ("replicator.style_switches", L_REP),
        /// Failover view changes processed (departures seen).
        Failovers => ("replicator.failovers", L_REP),
        /// Laggard-primary demotions applied (gray-failure remedy:
        /// primaryship moved to a healthy backup without an eviction).
        RepDemotions => ("replicator.demotions", L_REP),
        /// Data multicasts sent by the group endpoint (post-batching).
        GroupSends => ("group.sends", L_GRP),
        /// Per-member frame copies fanned out.
        GroupFrameCopies => ("group.frame_copies", L_GRP),
        /// Encoded bytes handed to the wire by the endpoint.
        GroupWireBytes => ("group.wire_bytes", L_GRP),
        /// In-order data deliveries to the application.
        GroupDeliveries => ("group.deliveries", L_GRP),
        /// Retransmissions triggered by NACKs.
        GroupRetransmits => ("group.retransmits", L_GRP),
        /// Heartbeat rounds multicast.
        GroupHeartbeatsSent => ("group.heartbeats_sent", L_GRP),
        /// Heartbeats received from peers.
        GroupHeartbeatsRecv => ("group.heartbeats_recv", L_GRP),
        /// Suspicions raised by the failure detector.
        GroupSuspicions => ("group.suspicions", L_GRP),
        /// Peers newly classified as laggard (Alive → Laggard
        /// transitions of the adaptive detector).
        GroupLaggards => ("group.laggard_transitions", L_GRP),
        /// Fixed-timeout suspicions the adaptive detector suppressed:
        /// rounds where a peer's silence exceeded the base failure
        /// timeout but its inter-arrival history justified holding.
        GroupSuspicionsHeld => ("group.suspicions_held", L_GRP),
        /// Recovery episodes opened (replication degree below target).
        RecoveryEpisodes => ("recovery.episodes", L_REC),
        /// Replacement joiners spawned (attempts, retries included).
        RecoveryAttempts => ("recovery.attempts", L_REC),
        /// Episodes closed with the target degree restored.
        RecoveryRestored => ("recovery.restored", L_REC),
        /// Episodes abandoned after the attempt budget ran out.
        RecoveryAbandoned => ("recovery.abandoned", L_REC),
        /// Standby managers that assumed active duty.
        RecoveryTakeovers => ("recovery.takeovers", L_REC),
        /// Messages delivered by the simulated network.
        SimDeliveries => ("simnet.deliveries", L_SIM),
        /// Messages dropped (loss, partition, crash) by the network.
        SimDrops => ("simnet.drops", L_SIM),
        /// Timers fired by the scheduler.
        SimTimerFires => ("simnet.timer_fires", L_SIM),
        /// Bytes the simulated network put on inter-node links, counted
        /// when sent, whether or not they arrive (same-node messages
        /// cross no link and are not counted).
        SimNetBytes => ("simnet.net_bytes", L_SIM),
        /// Frames handed to the real UDP socket by `vd-node`.
        NodeFramesSent => ("node.socket_frames_sent", L_NODE),
        /// Frames received from the real UDP socket by `vd-node`.
        NodeFramesRecv => ("node.socket_frames_recv", L_NODE),
        /// Encoded bytes handed to the real UDP socket.
        NodeBytesSent => ("node.socket_bytes_sent", L_NODE),
        /// Encoded bytes received from the real UDP socket.
        NodeBytesRecv => ("node.socket_bytes_recv", L_NODE),
        /// Datagrams the node dropped undelivered: malformed, of an
        /// unknown kind, or for a pid the node does not host or whose
        /// actor is down.
        NodeDecodeErrors => ("node.decode_errors", L_NODE),
        /// Socket reopen attempts after a send/recv error.
        NodeReconnects => ("node.reconnect_attempts", L_NODE),
        /// Actors restarted by a node supervisor after a crash.
        NodeSupervisorRestarts => ("node.supervisor_restarts", L_NODE),
    }
}

metric_enum! {
    /// Point-in-time gauges (last value wins).
    pub enum Gauge / GAUGE_COUNT {
        /// Current replica count known to the replicator.
        RepReplicas => ("replicator.replicas", L_REP),
        /// Current replication style, as its wire tag
        /// (0 = active, 1 = warm passive, 2 = cold passive).
        RepStyle => ("replicator.style", L_REP),
        /// Members in the endpoint's installed view.
        GroupMembers => ("group.members", L_GRP),
        /// Worst per-peer suspicion score of the adaptive failure
        /// detector, in milli-units (z-score × 1000), sampled each
        /// failure-check round.
        GroupSuspicionScore => ("group.suspicion_score", L_GRP),
    }
}

metric_enum! {
    /// Histograms: log₂ buckets plus exact count/sum/min/max, so means
    /// are not subject to bucketing error.
    pub enum Hist / HIST_COUNT {
        /// Request round-trip latency observed by the replicator, µs.
        RequestLatencyUs => ("replicator.request_latency_us", L_REP),
        /// Silence observed when the failure detector raised suspicion,
        /// µs — the measured fault-detection latency fed back into
        /// `Monitor` (Fig. 8 "measure").
        FaultDetectionUs => ("group.fault_detection_us", L_GRP),
        /// Messages per flushed batch (occupancy).
        BatchOccupancy => ("group.batch_occupancy", L_GRP),
        /// State payload bytes per checkpoint sent.
        CkptBytes => ("replicator.checkpoint_size_bytes", L_REP),
        /// Mean-time-to-repair samples: virtual µs from a recovery
        /// episode's detection to the replication degree being restored
        /// (the availability policy's MTTR input, now measured).
        MttrUs => ("recovery.mttr_us", L_REC),
    }
}

/// Exact summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistStats {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistStats {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

struct AtomicHist {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHist {
    fn new() -> Self {
        AtomicHist {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        let bucket = (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn stats(&self) -> HistStats {
        let count = self.count.load(Ordering::Relaxed);
        HistStats {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// The per-process metrics registry: every declared counter, gauge, and
/// histogram, fully allocated at construction.
///
/// All recording methods are `&self`, lock-free, and allocation-free;
/// share the registry via `Arc` (see [`crate::Obs`]).
pub struct MetricsRegistry {
    counters: [AtomicU64; CTR_COUNT],
    gauges: [AtomicU64; GAUGE_COUNT],
    hists: [AtomicHist; HIST_COUNT],
}

impl MetricsRegistry {
    /// A fresh registry with every metric at zero.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: [const { AtomicU64::new(0) }; CTR_COUNT],
            gauges: [const { AtomicU64::new(0) }; GAUGE_COUNT],
            hists: std::array::from_fn(|_| AtomicHist::new()),
        }
    }

    /// Adds 1 to `c`. Hot path: one relaxed atomic add.
    #[inline]
    pub fn incr(&self, c: Ctr) {
        self.counters[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to `c`. Hot path: one relaxed atomic add.
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of counter `c`.
    pub fn counter(&self, c: Ctr) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Sets gauge `g` to `v`.
    #[inline]
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].store(v, Ordering::Relaxed);
    }

    /// Current value of gauge `g`.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Records sample `v` into histogram `h`. Hot path: five relaxed
    /// atomic operations, no allocation.
    #[inline]
    pub fn record(&self, h: Hist, v: u64) {
        self.hists[h as usize].record(v);
    }

    /// Exact summary of histogram `h`.
    pub fn hist(&self, h: Hist) -> HistStats {
        self.hists[h as usize].stats()
    }

    /// Raw log₂ bucket counts of histogram `h` (bucket `i` holds
    /// samples with `i` significant bits, i.e. values in
    /// `[2^(i-1), 2^i)`; bucket 0 holds zeros).
    pub fn hist_buckets(&self, h: Hist) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.hists[h as usize].buckets[i].load(Ordering::Relaxed))
    }

    /// Renders every metric as one JSON object (counters and gauges as
    /// numbers, histograms as `{count, sum, min, max, mean}`), with
    /// each metric's fixed labels inlined. Allocates; for export only.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        fn labels_json(labels: Labels) -> String {
            let mut s = String::from("{");
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{k}\":\"{v}\"");
            }
            s.push('}');
            s
        }
        let mut out = String::from("{\"counters\":[");
        for (i, c) in Ctr::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                c.name(),
                labels_json(c.labels()),
                self.counter(*c)
            );
        }
        out.push_str("],\"gauges\":[");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                g.name(),
                labels_json(g.labels()),
                self.gauge(*g)
            );
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in Hist::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = self.hist(*h);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"labels\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.1}}}",
                h.name(),
                labels_json(h.labels()),
                s.count,
                s.sum,
                s.min,
                s.max,
                s.mean()
            );
        }
        out.push_str("]}");
        out
    }

    /// Renders non-zero metrics as aligned human-readable lines.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in Ctr::ALL {
            let v = self.counter(c);
            if v != 0 {
                let _ = writeln!(out, "  {:<36} {v}", c.name());
            }
        }
        for g in Gauge::ALL {
            let v = self.gauge(g);
            if v != 0 {
                let _ = writeln!(out, "  {:<36} {v}", g.name());
            }
        }
        for h in Hist::ALL {
            let s = self.hist(h);
            if s.count != 0 {
                let _ = writeln!(
                    out,
                    "  {:<36} count={} mean={:.1} min={} max={}",
                    h.name(),
                    s.count,
                    s.mean(),
                    s.min,
                    s.max
                );
            }
        }
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &CTR_COUNT)
            .field("gauges", &GAUGE_COUNT)
            .field("histograms", &HIST_COUNT)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = MetricsRegistry::new();
        r.incr(Ctr::GroupSends);
        r.add(Ctr::GroupWireBytes, 1024);
        r.gauge_set(Gauge::RepReplicas, 3);
        assert_eq!(r.counter(Ctr::GroupSends), 1);
        assert_eq!(r.counter(Ctr::GroupWireBytes), 1024);
        assert_eq!(r.gauge(Gauge::RepReplicas), 3);
        assert_eq!(r.counter(Ctr::GroupDeliveries), 0);
    }

    #[test]
    fn histogram_stats_are_exact() {
        let r = MetricsRegistry::new();
        for v in [10u64, 20, 30] {
            r.record(Hist::FaultDetectionUs, v);
        }
        let s = r.hist(Hist::FaultDetectionUs);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 60);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert!((s.mean() - 20.0).abs() < 1e-9);
        // Empty histograms report zeros.
        assert_eq!(r.hist(Hist::BatchOccupancy), HistStats::default());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let r = MetricsRegistry::new();
        r.record(Hist::BatchOccupancy, 0); // bucket 0
        r.record(Hist::BatchOccupancy, 1); // bucket 1
        r.record(Hist::BatchOccupancy, 5); // bucket 3: [4, 8)
        let b = r.hist_buckets(Hist::BatchOccupancy);
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[3], 1);
    }

    #[test]
    fn render_json_mentions_every_counter() {
        let r = MetricsRegistry::new();
        let json = r.render_json();
        for c in Ctr::ALL {
            assert!(json.contains(c.name()), "missing {}", c.name());
        }
        assert!(json.contains("\"layer\":\"group\""));
        assert!(json.contains("\"kind\":\"delta\""));
    }
}
