//! Data-plane micro-benchmark — the zero-copy fan-out / batching / delta
//! checkpoint gate (`experiments -- fanout`, `BENCH_PR2.json`).
//!
//! Three measurements, one per layer of the data-plane optimization:
//!
//! 1. **Bytes copied per delivered message.** A sans-IO endpoint fans a
//!    multicast out to its peers. The encode-once path materializes the
//!    payload once and every per-member frame shares it; the benchmark
//!    replays the same workload with a forced per-destination payload copy
//!    (the pre-optimization behaviour) and compares heap traffic, counted
//!    by [`CountingAlloc`], the `experiments` binary's global allocator.
//!    The gate requires the shared path to copy at least 2× fewer bytes
//!    per delivered message.
//! 2. **Wire bytes per message, batched vs unbatched.** The same fan-out
//!    with the batching knob on: N payloads under one header against N
//!    headers, read from the endpoint's `group.wire_bytes` counter (the
//!    modeled wire size of every data frame copy it sent).
//! 3. **Checkpoint transfer bytes, full vs delta.** Two warm-passive
//!    test-bed runs (the Fig. 6/7 testbed) with identical workloads: one
//!    sends a full snapshot every checkpoint, the other re-anchors every
//!    K-th checkpoint and sends byte deltas in between.
//! 4. **Tracing cost.** The same fan-out with a live [`TraceSink`]
//!    attached versus a disabled one, three interleaved runs each
//!    (`BENCH_PR3.json`). Two deterministic gates: the traced run emits
//!    exactly [`TRACE_EVENTS_PER_MULTICAST`] events per multicast, and it
//!    makes exactly as many heap allocations as the untraced run. The
//!    wall-clock overhead (best of three) is reported but not gated: on a
//!    shared machine its noise exceeds what tracing costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use vd_core::replica::ReplicaActor;
use vd_core::repstate::CheckpointAccounting;
use vd_core::style::ReplicationStyle;
use vd_group::prelude::*;
use vd_obs::{Ctr, Obs, ObsHandle, TraceSink};
use vd_simnet::time::{SimDuration, SimTime};
use vd_simnet::topology::ProcessId;

use crate::report::Table;
use crate::testbed::{build_replicated, TestbedConfig};

/// Group size for the fan-out measurements (one sender, 7 receivers).
const MEMBERS: u64 = 8;

/// Payload of the fan-out workload. Large enough that payload copies
/// dominate the endpoint's bookkeeping allocations.
const FANOUT_PAYLOAD: usize = 4 * 1024;

/// Payload of the batching workload: small messages, where per-frame
/// headers are worth amortizing.
const BATCH_PAYLOAD: usize = 64;

/// Allocations at least this large count as bulk (payload-carrying) heap
/// traffic.
const COPY_THRESHOLD: usize = 512;

/// Trace events the fan-out path emits per FIFO multicast: one
/// `GroupSend` for the fanned-out frame and one `GroupDeliver` for the
/// sender's own copy.
pub const TRACE_EVENTS_PER_MULTICAST: u64 = 2;

/// Counts heap allocation calls and bulk heap traffic, so the benchmark
/// can observe payload copies and allocations without instrumenting the
/// endpoint.
///
/// A library must not choose its dependents' allocator, so this one is
/// installed by the binary that runs the measurement (the `experiments`
/// CLI declares it as its `#[global_allocator]`). Under any other
/// allocator both counts read zero.
pub struct CountingAlloc;

static BULK_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= COPY_THRESHOLD {
            BULK_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        if new_size >= COPY_THRESHOLD {
            BULK_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Transfer totals of one checkpointing run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointTransfer {
    /// Full snapshots broadcast.
    pub fulls: u64,
    /// Delta checkpoints broadcast.
    pub deltas: u64,
    /// Checkpoint bytes put on the wire (fulls + deltas).
    pub bytes: u64,
    /// Deltas rejected by receivers (chain breaks; should be 0).
    pub rejected: u64,
}

impl CheckpointTransfer {
    /// Checkpoint frames broadcast.
    pub fn frames(&self) -> u64 {
        self.fulls + self.deltas
    }

    /// Average bytes per checkpoint frame.
    pub fn bytes_per_frame(&self) -> f64 {
        self.bytes as f64 / self.frames().max(1) as f64
    }
}

/// Everything the `fanout` experiment measures.
#[derive(Debug, Clone)]
pub struct FanoutResult {
    /// Group size of the fan-out workload.
    pub members: u64,
    /// Multicasts sent per fan-out run.
    pub messages: u64,
    /// Bytes copied per delivered message with a forced per-destination
    /// payload copy (the pre-optimization data plane).
    pub copied_per_msg_baseline: f64,
    /// Bytes copied per delivered message on the encode-once path.
    pub copied_per_msg_shared: f64,
    /// Delivered frames per wall-clock second on the encode-once path
    /// with observability disabled (best of three runs).
    pub throughput_frames_per_sec: f64,
    /// The same workload with a live trace sink and metrics attached
    /// (best of three runs).
    pub throughput_traced_frames_per_sec: f64,
    /// Trace events the instrumented run emitted.
    pub trace_events_emitted: u64,
    /// Heap allocation calls of the untraced fan-out run.
    pub allocations_untraced: u64,
    /// Heap allocation calls of the traced fan-out run.
    pub allocations_traced: u64,
    /// Modeled wire bytes per message without batching.
    pub wire_per_msg_unbatched: f64,
    /// Modeled wire bytes per message with the batching knob at 8.
    pub wire_per_msg_batched: f64,
    /// Checkpoint transfer with full snapshots only.
    pub ckpt_full: CheckpointTransfer,
    /// Checkpoint transfer with deltas (full every 8th).
    pub ckpt_delta: CheckpointTransfer,
}

impl FanoutResult {
    /// How many times fewer bytes the encode-once path copies per
    /// delivered message. The PR gate requires ≥ 2.
    pub fn copy_reduction(&self) -> f64 {
        self.copied_per_msg_baseline / self.copied_per_msg_shared.max(1.0)
    }

    /// Wire-byte amortization from batching (≥ 1 means batching is
    /// cheaper).
    pub fn batch_reduction(&self) -> f64 {
        self.wire_per_msg_unbatched / self.wire_per_msg_batched.max(1.0)
    }

    /// How many times fewer bytes per checkpoint the delta chain moves.
    pub fn checkpoint_reduction(&self) -> f64 {
        self.ckpt_full.bytes_per_frame() / self.ckpt_delta.bytes_per_frame().max(1.0)
    }

    /// Throughput lost to tracing, percent of the untraced throughput
    /// (negative = the traced run happened to be faster — pure noise).
    /// Reported, never gated.
    pub fn trace_overhead_percent(&self) -> f64 {
        if self.throughput_frames_per_sec <= 0.0 {
            return 0.0;
        }
        (1.0 - self.throughput_traced_frames_per_sec / self.throughput_frames_per_sec) * 100.0
    }

    /// The named acceptance gates CI enforces: the shared fan-out copies
    /// ≥ 2× fewer bytes per delivered message, batching does not cost
    /// wire bytes, the delta chain moves fewer checkpoint bytes without a
    /// single rejection, and live tracing emits exactly the events the
    /// fan-out path defines without a single extra heap allocation.
    pub fn gates(&self) -> Vec<(&'static str, bool)> {
        vec![
            ("copy_reduction_ge_2x", self.copy_reduction() >= 2.0),
            ("batch_reduction_ge_1x", self.batch_reduction() >= 1.0),
            ("ckpt_reduction_ge_2x", self.checkpoint_reduction() >= 2.0),
            ("ckpt_no_rejected_deltas", self.ckpt_delta.rejected == 0),
            (
                "ckpt_chain_anchors_on_fulls",
                self.ckpt_delta.fulls >= 1 && self.ckpt_delta.deltas > self.ckpt_delta.fulls,
            ),
            (
                "trace_events_per_multicast_exact",
                self.trace_events_emitted == self.messages * TRACE_EVENTS_PER_MULTICAST,
            ),
            (
                "trace_allocations_equal",
                self.allocations_traced == self.allocations_untraced,
            ),
        ]
    }

    /// Names of the gates that do not hold (empty = pass).
    pub fn failing_gates(&self) -> Vec<&'static str> {
        self.gates()
            .into_iter()
            .filter_map(|(name, ok)| (!ok).then_some(name))
            .collect()
    }

    /// `true` when every [`gates`](Self::gates) entry holds.
    pub fn passes_gate(&self) -> bool {
        self.failing_gates().is_empty()
    }

    /// Renders the three panels as one table.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            format!(
                "fanout — zero-copy data plane ({} members, {} msgs)",
                self.members, self.messages
            ),
            &["metric", "baseline", "optimized", "reduction"],
        );
        table.row(&[
            "copied B/delivered msg".into(),
            format!("{:.0}", self.copied_per_msg_baseline),
            format!("{:.0}", self.copied_per_msg_shared),
            format!("{:.1}x", self.copy_reduction()),
        ]);
        table.row(&[
            "wire B/msg (batch=8)".into(),
            format!("{:.0}", self.wire_per_msg_unbatched),
            format!("{:.0}", self.wire_per_msg_batched),
            format!("{:.2}x", self.batch_reduction()),
        ]);
        table.row(&[
            "ckpt B/frame (full every 8)".into(),
            format!("{:.0}", self.ckpt_full.bytes_per_frame()),
            format!("{:.0}", self.ckpt_delta.bytes_per_frame()),
            format!("{:.1}x", self.checkpoint_reduction()),
        ]);
        let mut out = table.render();
        let gate = if self.passes_gate() {
            "PASS".to_owned()
        } else {
            format!("FAIL ({})", self.failing_gates().join(", "))
        };
        out.push_str(&format!(
            "\nfan-out throughput: {:.0} delivered frames/s untraced, {:.0} traced \
             ({:+.1}% overhead; wall clock, best of 3, not gated)\n\
             tracing: {} events for {} multicasts, {} heap allocations untraced / {} traced\n\
             checkpoints: full-only {} frames / {} B; delta mode {} fulls + {} deltas / {} B, {} rejected\n\
             gate (copy ≥2x, batch ≥1x, ckpt ≥2x, no rejects, trace events exact, no extra trace allocations): {gate}\n",
            self.throughput_frames_per_sec,
            self.throughput_traced_frames_per_sec,
            self.trace_overhead_percent(),
            self.trace_events_emitted,
            self.messages,
            self.allocations_untraced,
            self.allocations_traced,
            self.ckpt_full.frames(),
            self.ckpt_full.bytes,
            self.ckpt_delta.fulls,
            self.ckpt_delta.deltas,
            self.ckpt_delta.bytes,
            self.ckpt_delta.rejected,
        ));
        out
    }

    /// The machine-readable trace-overhead summary CI archives as
    /// `BENCH_PR3.json`.
    pub fn to_json_pr3(&self) -> String {
        let mut gates = String::new();
        for (name, ok) in self.gates() {
            if !gates.is_empty() {
                gates.push_str(",\n");
            }
            gates.push_str(&format!("    \"{name}\": {ok}"));
        }
        format!(
            "{{\n  \"members\": {},\n  \"messages\": {},\n  \"throughput_frames_per_sec\": {{\n    \"untraced\": {:.0},\n    \"traced\": {:.0}\n  }},\n  \"trace_overhead_percent\": {:.2},\n  \"trace_events_emitted\": {},\n  \"trace_events_expected\": {},\n  \"heap_allocations\": {{\n    \"untraced\": {},\n    \"traced\": {}\n  }},\n  \"gates\": {{\n{}\n  }},\n  \"gate_passed\": {}\n}}\n",
            self.members,
            self.messages,
            self.throughput_frames_per_sec,
            self.throughput_traced_frames_per_sec,
            self.trace_overhead_percent(),
            self.trace_events_emitted,
            self.messages * TRACE_EVENTS_PER_MULTICAST,
            self.allocations_untraced,
            self.allocations_traced,
            gates,
            self.passes_gate()
        )
    }

    /// The machine-readable summary CI archives as `BENCH_PR2.json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"members\": {},\n  \"messages\": {},\n  \"fanout_throughput_frames_per_sec\": {:.0},\n  \"bytes_copied_per_delivered_msg\": {{\n    \"copy_per_member\": {:.1},\n    \"encode_once\": {:.1},\n    \"reduction_factor\": {:.2}\n  }},\n  \"wire_bytes_per_msg\": {{\n    \"unbatched\": {:.1},\n    \"batched\": {:.1},\n    \"reduction_factor\": {:.2}\n  }},\n  \"checkpoint_transfer_bytes\": {{\n    \"full_only\": {{ \"frames\": {}, \"bytes\": {} }},\n    \"delta_mode\": {{ \"frames\": {}, \"bytes\": {}, \"fulls\": {}, \"deltas\": {}, \"rejected\": {} }},\n    \"bytes_per_frame_reduction_factor\": {:.2}\n  }},\n  \"gate_passed\": {}\n}}\n",
            self.members,
            self.messages,
            self.throughput_frames_per_sec,
            self.copied_per_msg_baseline,
            self.copied_per_msg_shared,
            self.copy_reduction(),
            self.wire_per_msg_unbatched,
            self.wire_per_msg_batched,
            self.batch_reduction(),
            self.ckpt_full.frames(),
            self.ckpt_full.bytes,
            self.ckpt_delta.frames(),
            self.ckpt_delta.bytes,
            self.ckpt_delta.fulls,
            self.ckpt_delta.deltas,
            self.ckpt_delta.rejected,
            self.checkpoint_reduction(),
            self.passes_gate()
        )
    }
}

/// The group the fan-out microbenchmark runs in.
const FANOUT_GROUP: GroupId = GroupId(1);

/// A bootstrapped sans-IO endpoint in a `members`-sized group.
fn endpoint(members: u64, config: GroupConfig) -> Endpoint {
    let ids: Vec<ProcessId> = (1..=members).map(ProcessId).collect();
    let mut e = Endpoint::bootstrap(ProcessId(1), FANOUT_GROUP, config, ids);
    let _ = e.start(SimTime::ZERO);
    e
}

/// What one fan-out run measured.
struct FanoutRun {
    /// Bulk (payload-sized) bytes allocated.
    copied: u64,
    /// Heap allocation calls.
    allocations: u64,
    /// Data frames handed out for the peers.
    frames: u64,
    /// Wall-clock duration.
    secs: f64,
}

/// One fan-out run: `msgs` multicasts to `MEMBERS - 1` peers, optionally
/// deep-copying each per-destination payload the way the data plane did
/// before the encode-once refactor, optionally instrumented.
fn measure_fanout(msgs: u64, copy_per_member: bool, obs: Option<ObsHandle>) -> FanoutRun {
    let mut e = endpoint(MEMBERS, GroupConfig::default());
    if let Some(obs) = obs {
        e.set_obs(obs);
    }
    let mut frames = 0u64;
    let start = Instant::now();
    let before = BULK_BYTES.load(Ordering::Relaxed);
    let calls_before = ALLOC_CALLS.load(Ordering::Relaxed);
    for i in 0..msgs {
        let payload = Bytes::from(vec![i as u8; FANOUT_PAYLOAD]);
        let outputs = e
            .multicast(SimTime::ZERO, DeliveryOrder::Fifo, payload)
            .expect("bootstrapped member can multicast");
        for output in &outputs {
            if let Output::Send {
                msg: GroupMsg::Data(d),
                ..
            } = output
            {
                frames += 1;
                if copy_per_member {
                    let copy = d.payload.to_vec();
                    std::hint::black_box(copy.len());
                }
            }
        }
    }
    FanoutRun {
        copied: BULK_BYTES.load(Ordering::Relaxed) - before,
        allocations: ALLOC_CALLS.load(Ordering::Relaxed) - calls_before,
        frames,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Modeled wire bytes per application message at the given batching limit
/// (1 = batching off): `group.wire_bytes` over one copy of each message
/// per peer. The run sends no retransmits, which that counter leaves out.
fn wire_bytes_per_message(batch: usize, msgs: u64) -> f64 {
    let mut e = endpoint(MEMBERS, GroupConfig::default().batch_max_messages(batch));
    for i in 0..msgs {
        let _ = e
            .multicast(
                SimTime::ZERO,
                DeliveryOrder::Fifo,
                Bytes::from(vec![i as u8; BATCH_PAYLOAD]),
            )
            .expect("bootstrapped member can multicast");
    }
    let _ = e.handle_timer(SimTime::ZERO, GroupTimer::BatchFlush);
    let wire_bytes = e.obs().metrics.counter(Ctr::GroupWireBytes);
    wire_bytes as f64 / (msgs * (MEMBERS - 1)).max(1) as f64
}

/// Runs the warm-passive Fig. 6/7 testbed to completion and totals the
/// checkpoint transfer across all replicas.
fn measure_checkpoints(full_every: u32, requests: u64, seed: u64) -> CheckpointTransfer {
    let config = TestbedConfig {
        replicas: 3,
        clients: 1,
        style: ReplicationStyle::WarmPassive,
        requests_per_client: requests,
        checkpoint_full_every: full_every,
        seed,
        ..TestbedConfig::default()
    };
    let mut bed = build_replicated(&config);
    let slice = SimDuration::from_millis(20);
    let deadline = bed.world.now() + SimDuration::from_secs(60 + requests / 50);
    while bed.total_completed() < requests && bed.world.now() < deadline {
        bed.world.run_for(slice);
    }
    assert_eq!(
        bed.total_completed(),
        requests,
        "checkpoint run incomplete within the horizon (full_every={full_every})"
    );
    let mut total = CheckpointTransfer::default();
    for &pid in &bed.replicas {
        let acct: CheckpointAccounting = bed
            .world
            .actor_ref::<ReplicaActor>(pid)
            .map(|r| *r.checkpoints())
            .unwrap_or_default();
        total.fulls += acct.full_sent;
        total.deltas += acct.deltas_sent;
        total.bytes += acct.bytes_sent();
        total.rejected += acct.rejected_deltas;
    }
    total
}

/// Runs the full data-plane suite. `requests` sizes both the fan-out loop
/// and the checkpointing runs (clamped to keep the smoke run fast).
pub fn run(requests: u64, seed: u64) -> FanoutResult {
    let msgs = requests.clamp(100, 5_000);
    let ckpt_requests = requests.clamp(100, 1_000);
    let baseline = measure_fanout(msgs, true, None);
    let shared = measure_fanout(msgs, false, None);
    // Three interleaved runs per mode. The wall-clock figure keeps the
    // best of three; the event and allocation counts are deterministic,
    // and the gates read the last pair.
    let rate = |run: &FanoutRun| run.frames as f64 / run.secs.max(1e-9);
    let mut untraced = 0.0f64;
    let mut traced = 0.0f64;
    let mut trace_events_emitted = 0;
    let mut allocations = (0, 0);
    for _ in 0..3 {
        let plain = measure_fanout(msgs, false, None);
        untraced = untraced.max(rate(&plain));
        let sink = Arc::new(TraceSink::enabled());
        let instrumented = measure_fanout(msgs, false, Some(Obs::with_trace(Arc::clone(&sink))));
        traced = traced.max(rate(&instrumented));
        trace_events_emitted = sink.total_emitted();
        allocations = (plain.allocations, instrumented.allocations);
    }
    let ckpt_full = measure_checkpoints(1, ckpt_requests, seed);
    let ckpt_delta = measure_checkpoints(8, ckpt_requests, seed);
    FanoutResult {
        members: MEMBERS,
        messages: msgs,
        copied_per_msg_baseline: baseline.copied as f64 / baseline.frames.max(1) as f64,
        copied_per_msg_shared: shared.copied as f64 / shared.frames.max(1) as f64,
        throughput_frames_per_sec: untraced,
        throughput_traced_frames_per_sec: traced,
        trace_events_emitted,
        allocations_untraced: allocations.0,
        allocations_traced: allocations.1,
        wire_per_msg_unbatched: wire_bytes_per_message(1, msgs),
        wire_per_msg_batched: wire_bytes_per_message(8, msgs),
        ckpt_full,
        ckpt_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator counters are global and other tests in this binary
    // allocate concurrently, so the copy-ratio gate is asserted only by
    // the single-threaded `experiments -- fanout` run; here we pin down
    // the deterministic parts.
    #[test]
    fn delta_checkpoints_move_fewer_bytes_than_fulls() {
        let full = measure_checkpoints(1, 150, 7);
        let delta = measure_checkpoints(8, 150, 7);
        assert_eq!(full.deltas, 0, "full-only mode must not send deltas");
        assert!(delta.fulls >= 1, "the chain anchors on full snapshots");
        assert!(delta.deltas > delta.fulls, "{delta:?}");
        assert_eq!(delta.rejected, 0, "no receiver may break the chain");
        assert!(
            delta.bytes_per_frame() * 2.0 < full.bytes_per_frame(),
            "delta frames ({:.0} B) must undercut full frames ({:.0} B) by ≥2x",
            delta.bytes_per_frame(),
            full.bytes_per_frame()
        );
    }

    #[test]
    fn batching_amortizes_headers_on_the_modeled_wire() {
        let unbatched = wire_bytes_per_message(1, 400);
        let batched = wire_bytes_per_message(8, 400);
        assert!(
            batched < unbatched,
            "batched {batched:.1} B/msg should undercut unbatched {unbatched:.1} B/msg"
        );
    }

    #[test]
    fn json_summary_carries_the_gate_fields() {
        let result = FanoutResult {
            members: 8,
            messages: 100,
            copied_per_msg_baseline: 4096.0,
            copied_per_msg_shared: 700.0,
            throughput_frames_per_sec: 1e6,
            // Wall clock is reported, not gated: a traced run 20% slower
            // than the untraced one still passes.
            throughput_traced_frames_per_sec: 0.8e6,
            trace_events_emitted: 100 * TRACE_EVENTS_PER_MULTICAST,
            allocations_untraced: 400,
            allocations_traced: 400,
            wire_per_msg_unbatched: 104.0,
            wire_per_msg_batched: 81.0,
            ckpt_full: CheckpointTransfer {
                fulls: 10,
                deltas: 0,
                bytes: 41_000,
                rejected: 0,
            },
            ckpt_delta: CheckpointTransfer {
                fulls: 2,
                deltas: 8,
                bytes: 9_000,
                rejected: 0,
            },
        };
        assert!(result.passes_gate(), "{result:?}");
        let json = result.to_json();
        for key in [
            "bytes_copied_per_delivered_msg",
            "wire_bytes_per_msg",
            "checkpoint_transfer_bytes",
            "fanout_throughput_frames_per_sec",
            "gate_passed",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let pr3 = result.to_json_pr3();
        for key in [
            "trace_overhead_percent",
            "trace_events_emitted",
            "trace_events_expected",
            "heap_allocations",
            "trace_events_per_multicast_exact",
            "trace_allocations_equal",
            "gate_passed",
        ] {
            assert!(pr3.contains(key), "missing {key} in {pr3}");
        }
        assert!(!pr3.contains("trace_overhead_le_5pct"), "{pr3}");
        assert!(result.failing_gates().is_empty());
        // Either trace gate fails on a single event or allocation more.
        let extra_event = FanoutResult {
            trace_events_emitted: result.trace_events_emitted + 1,
            ..result.clone()
        };
        assert_eq!(
            extra_event.failing_gates(),
            ["trace_events_per_multicast_exact"]
        );
        let extra_alloc = FanoutResult {
            allocations_traced: result.allocations_untraced + 1,
            ..result
        };
        assert_eq!(extra_alloc.failing_gates(), ["trace_allocations_equal"]);
    }

    /// The fan-out path emits exactly its declared events per multicast;
    /// the allocation half of the trace gate needs the counting allocator
    /// and runs only in the `experiments` binary.
    #[test]
    fn traced_fanout_emits_the_declared_events_per_multicast() {
        let sink = Arc::new(TraceSink::enabled());
        let run = measure_fanout(50, false, Some(Obs::with_trace(Arc::clone(&sink))));
        assert_eq!(run.frames, 50 * (MEMBERS - 1));
        assert_eq!(sink.total_emitted(), 50 * TRACE_EVENTS_PER_MULTICAST);
    }
}
