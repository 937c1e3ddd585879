//! Allocation tests for the checkpoint path (DESIGN.md §11, "Ship state
//! deltas"): a delta checkpoint of a large state costs one payload copy to
//! capture the state and none to diff it. Applying the delta copies the
//! base once when the base is shared and not at all when the receiver's
//! mirror is its buffer's only handle. Building a `Bytes` from a finished
//! buffer never copies it. Enforced with a counting global allocator that
//! counts only the measuring thread.
#![expect(
    unsafe_code,
    clippy::disallowed_types,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait, and a lock \
              serializes the measuring threads; no actor runs here"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::{Bytes, BytesMut};

use vd_core::state::{
    apply_delta, apply_delta_in_place, diff_state, InvokeResult, ReplicatedApplication,
};

/// Application state size, as in the simulator benchmark.
const STATE: usize = 64 * 1024;

/// Allocations at least this large count as payload-sized.
const THRESHOLD: usize = STATE / 2;

/// The reference count `Bytes` allocates to share a buffer is far below
/// this; any copy of a payload is far above.
const SMALL: u64 = 64;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static PAYLOAD_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread inside [`allocs_during`]: allocations made by
    /// other threads (other tests, the test harness) are not counted.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measuring(size: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        if size >= THRESHOLD {
            PAYLOAD_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
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

/// What the calling thread allocated while a closure ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Allocs {
    count: u64,
    bytes: u64,
    payload_sized: u64,
}

/// Runs `f`, returning its result and what the calling thread allocated
/// meanwhile.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let read = || Allocs {
        count: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        payload_sized: PAYLOAD_ALLOCS.load(Ordering::Relaxed),
    };
    let before = read();
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    let after = read();
    let allocs = Allocs {
        count: after.count - before.count,
        bytes: after.bytes - before.bytes,
        payload_sized: after.payload_sized - before.payload_sized,
    };
    (out, allocs)
}

/// A large-state application shaped like the benchmark's: each request
/// bumps a counter and one byte of the state.
struct Padded {
    state: Vec<u8>,
    invocations: u64,
}

impl ReplicatedApplication for Padded {
    fn invoke(&mut self, _operation: &str, _args: &Bytes) -> InvokeResult {
        self.invocations += 1;
        self.state[..8].copy_from_slice(&self.invocations.to_le_bytes());
        let at = 8 + (self.invocations as usize * 13) % (self.state.len() - 8);
        self.state[at] = self.state[at].wrapping_add(1);
        Ok(Bytes::new())
    }

    fn capture_state(&self) -> Bytes {
        Bytes::from(self.state.clone())
    }

    fn restore_state(&mut self, state: &Bytes) {
        self.state = state.to_vec();
    }
}

#[test]
fn empty_bytes_allocate_nothing() {
    let (_, allocs) = allocs_during(|| {
        for _ in 0..100 {
            std::hint::black_box(Bytes::new());
            std::hint::black_box(Bytes::default());
        }
    });
    assert_eq!(allocs.count, 0, "{allocs:?}");
}

#[test]
fn bytes_keep_the_buffer_they_are_built_from() {
    let vec = vec![0xA5u8; STATE];
    let ptr = vec.as_ptr();
    let (bytes, allocs) = allocs_during(|| Bytes::from(vec));
    assert_eq!(bytes.as_ptr(), ptr, "Bytes::from(Vec) copied the buffer");
    assert_eq!(allocs.payload_sized, 0, "{allocs:?}");
    assert!(allocs.bytes < SMALL, "only a reference count: {allocs:?}");

    let mut buf = BytesMut::with_capacity(STATE);
    buf.extend_from_slice(&[0x5A; STATE]);
    let ptr = buf.as_ptr();
    let (frozen, allocs) = allocs_during(|| buf.freeze());
    assert_eq!(frozen.as_ptr(), ptr, "BytesMut::freeze copied the buffer");
    assert_eq!(allocs.payload_sized, 0, "{allocs:?}");
    assert!(allocs.bytes < SMALL, "only a reference count: {allocs:?}");
}

#[test]
fn a_delta_checkpoint_round_copies_the_state_once_per_side() {
    let mut app = Padded {
        state: vec![0; STATE],
        invocations: 0,
    };
    let base = app.capture_state();
    for _ in 0..5 {
        app.invoke("increment", &Bytes::new())
            .expect("the test application accepts every request");
    }
    let (state, capture) = allocs_during(|| app.capture_state());
    let (delta, diff) = allocs_during(|| diff_state(&base, &state));
    let (applied, apply) = allocs_during(|| apply_delta(&base, &delta));
    assert_eq!(applied.as_ref(), Ok(&state));
    assert_eq!(capture.payload_sized, 1, "capture: {capture:?}");
    assert_eq!(diff.payload_sized, 0, "diff: {diff:?}");
    assert!(
        diff.bytes < 4 * SMALL,
        "diff copies changed runs only: {diff:?}"
    );
    assert_eq!(apply.payload_sized, 1, "apply: {apply:?}");
    assert!(
        apply.bytes < STATE as u64 + SMALL,
        "apply copies the base once: {apply:?}"
    );
}

/// A captured state, the state five requests later, and the delta
/// between them.
fn five_requests_apart() -> (Bytes, Bytes, Bytes) {
    let mut app = Padded {
        state: vec![0; STATE],
        invocations: 0,
    };
    let base = app.capture_state();
    for _ in 0..5 {
        app.invoke("increment", &Bytes::new())
            .expect("the test application accepts every request");
    }
    let next = app.capture_state();
    let delta = diff_state(&base, &next);
    (base, next, delta)
}

#[test]
fn a_delta_patches_a_sole_mirror_in_place() {
    let (mut mirror, next, delta) = five_requests_apart();
    let at = mirror.as_ptr();
    let (result, apply) = allocs_during(|| apply_delta_in_place(&mut mirror, &delta));
    assert_eq!(result, Ok(()));
    assert_eq!(mirror, next);
    assert_eq!(mirror.as_ptr(), at, "the mirror's buffer was replaced");
    assert_eq!(apply.payload_sized, 0, "apply: {apply:?}");
    assert!(apply.bytes < SMALL, "only a reference count: {apply:?}");
}

#[test]
fn a_delta_copies_a_shared_mirror_once() {
    let (mut mirror, next, delta) = five_requests_apart();
    let other = mirror.clone();
    let old = other.to_vec();
    let (result, apply) = allocs_during(|| apply_delta_in_place(&mut mirror, &delta));
    assert_eq!(result, Ok(()));
    assert_eq!(mirror, next);
    assert_eq!(other, old, "the other handle's bytes changed");
    assert_eq!(apply.payload_sized, 1, "apply: {apply:?}");
    assert!(
        apply.bytes < STATE as u64 + SMALL,
        "apply copies the base once: {apply:?}"
    );
}
