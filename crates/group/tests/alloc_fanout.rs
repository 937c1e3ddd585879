//! Allocation regression tests for the zero-copy data plane.
//!
//! The encode-once contract (DESIGN.md, "Data-plane allocation and
//! batching contract"): a multicast's payload is materialized once and
//! every per-member copy, the retransmit buffer and the batch frame share
//! it through reference counting. These tests enforce the contract with a
//! counting global allocator — fanning a message out to N members must
//! perform O(1) payload-sized allocations, not O(N).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::Bytes;

use vd_group::api::{GroupTimer, Output};
use vd_group::message::GroupMsg;
use vd_group::prelude::*;
use vd_simnet::time::SimTime;
use vd_simnet::topology::ProcessId;

/// Payload size used by the tests. Chosen to dwarf the endpoint's
/// bookkeeping allocations (output vectors, batch queues), so every
/// allocation above [`THRESHOLD`] can only be a payload copy.
const PAYLOAD: usize = 64 * 1024;

/// Allocations at least this large count as payload-sized (half a payload:
/// even a partial copy would be caught).
const THRESHOLD: usize = PAYLOAD / 2;

struct CountingAlloc;

static PAYLOAD_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread inside [`payload_allocs_during`]: allocations made
    /// by other threads (other tests, the test harness) are not counted.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measuring(size: usize) {
    if size >= THRESHOLD && MEASURING.try_with(Cell::get).unwrap_or(false) {
        PAYLOAD_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counting touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes measurements, so one measuring thread never sees another's
/// allocations. A test that failed while holding it leaves nothing to
/// repair, so a poisoned lock is taken over.
static MEASURE: Mutex<()> = Mutex::new(());

/// Runs `f`, returning its result and the payload-sized allocations the
/// calling thread made meanwhile.
fn payload_allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let before = PAYLOAD_ALLOCS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, PAYLOAD_ALLOCS.load(Ordering::Relaxed) - before)
}

const GROUP: GroupId = GroupId(9);

fn member_endpoint(n: u64, config: GroupConfig) -> Endpoint {
    let members: Vec<ProcessId> = (1..=n).map(ProcessId).collect();
    let mut e = Endpoint::bootstrap(ProcessId(1), GROUP, config, members);
    let _ = e.start(SimTime::ZERO);
    e
}

fn send_count(outputs: &[Output]) -> usize {
    outputs
        .iter()
        .filter(|o| matches!(o, Output::Send { .. }))
        .count()
}

#[test]
fn fan_out_payload_allocations_are_independent_of_group_size() {
    let mut payload_allocs = Vec::new();
    for n in [4u64, 64] {
        let mut e = member_endpoint(n, GroupConfig::default());
        let payload = Bytes::from(vec![0xABu8; PAYLOAD]);
        let (outputs, grew) = payload_allocs_during(|| {
            e.multicast(SimTime::ZERO, DeliveryOrder::Fifo, payload)
                .unwrap()
        });
        assert_eq!(send_count(&outputs), n as usize - 1, "one frame per peer");
        payload_allocs.push(grew);
    }
    assert_eq!(
        payload_allocs[0], payload_allocs[1],
        "payload-sized allocations must not scale with the member count"
    );
    assert_eq!(
        payload_allocs[1], 0,
        "fan-out shares the already-materialized payload; it never copies it"
    );
}

#[test]
fn batched_fan_out_builds_one_shared_frame() {
    let config = GroupConfig::default().batch_max_messages(8);
    let mut e = member_endpoint(64, config);
    let payload = Bytes::from(vec![0xCDu8; PAYLOAD]);
    let (outputs, grew) = payload_allocs_during(|| {
        let mut outputs = Vec::new();
        for _ in 0..8 {
            outputs.extend(
                e.multicast(SimTime::ZERO, DeliveryOrder::Fifo, payload.clone())
                    .unwrap(),
            );
        }
        outputs
    });
    assert_eq!(
        grew, 0,
        "batching coalesces shared payloads; no payload-sized copies"
    );
    // The eighth multicast hit the batch limit and flushed one DataBatch
    // frame per peer, every copy sharing the same message vector.
    let batch_frames: Vec<&GroupMsg> = outputs
        .iter()
        .filter_map(|o| match o {
            Output::Send { msg, .. } => Some(msg),
            _ => None,
        })
        .collect();
    assert_eq!(batch_frames.len(), 63, "one flush to each of 63 peers");
    for frame in batch_frames {
        match frame {
            GroupMsg::DataBatch { msgs, .. } => assert_eq!(msgs.len(), 8),
            other => panic!("expected a DataBatch frame, got {other:?}"),
        }
    }
}

#[test]
fn partial_batches_flush_on_the_timer_without_copies() {
    let config = GroupConfig::default().batch_max_messages(16);
    let mut e = member_endpoint(8, config);
    let payload = Bytes::from(vec![0xEFu8; PAYLOAD]);
    let (outputs, grew) = payload_allocs_during(|| {
        for _ in 0..3 {
            let outputs = e
                .multicast(SimTime::ZERO, DeliveryOrder::Fifo, payload.clone())
                .unwrap();
            assert_eq!(send_count(&outputs), 0, "held for the batch");
        }
        e.handle_timer(SimTime::ZERO, GroupTimer::BatchFlush)
    });
    assert_eq!(grew, 0, "flushing a partial batch copies no payloads");
    assert_eq!(send_count(&outputs), 7, "the timer flushed to every peer");
}
