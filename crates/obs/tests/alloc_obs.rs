//! Allocation regression tests for the observability hot paths.
//!
//! The substrate's contract (OBSERVABILITY.md): emitting into a
//! disabled sink, emitting into an enabled (pre-allocated) sink, and
//! every counter/gauge/histogram recording operation allocate **zero**
//! bytes. Only construction and export may touch the heap. Enforced
//! here with a counting global allocator, the same pattern as
//! `crates/group/tests/alloc_fanout.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use vd_obs::{Ctr, Event, EventKind, Gauge, Hist, Obs, SmallStr, SwitchPhase, TraceSink};

struct CountingAlloc;

static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread inside [`allocs_during`]: allocations made by
    /// other threads (other tests, the test harness) are not counted.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measuring() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counting touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes measurements, so one measuring thread never sees another's
/// allocations. A test that failed while holding it leaves nothing to
/// repair, so a poisoned lock is taken over.
static MEASURE: Mutex<()> = Mutex::new(());

/// Allocations made by the calling thread while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let before = TOTAL_ALLOCS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    TOTAL_ALLOCS.load(Ordering::Relaxed) - before
}

fn sample_event(t: u64) -> Event {
    Event {
        t_us: t,
        actor: 7,
        group: 0,
        kind: EventKind::StyleSwitch {
            phase: SwitchPhase::Requested,
            from: SmallStr::new("warm-passive"),
            to: SmallStr::new("active"),
        },
    }
}

#[test]
fn disabled_sink_emit_allocates_nothing() {
    let obs = Obs::disabled();
    let n = allocs_during(|| {
        for t in 0..10_000 {
            obs.emit(t, 7, sample_event(t).kind);
        }
    });
    assert_eq!(n, 0, "disabled emit must not allocate ({n} allocations)");
    assert_eq!(obs.trace().total_emitted(), 0);
}

#[test]
fn enabled_sink_emit_allocates_nothing() {
    // Capacity smaller than the emit count: exercises both the fill
    // phase (push within reserved capacity) and the wrap phase
    // (overwrite oldest).
    let sink = TraceSink::with_capacity(1024);
    let n = allocs_during(|| {
        for t in 0..10_000 {
            sink.emit(sample_event(t));
        }
    });
    assert_eq!(n, 0, "enabled emit must not allocate ({n} allocations)");
    assert_eq!(sink.total_emitted(), 10_000);
    assert_eq!(sink.len(), 1024);
}

#[test]
fn metric_recording_allocates_nothing() {
    let obs = Obs::disabled();
    let n = allocs_during(|| {
        for i in 0..10_000u64 {
            obs.metrics.incr(Ctr::GroupSends);
            obs.metrics.add(Ctr::GroupWireBytes, 4096);
            obs.metrics.gauge_set(Gauge::RepReplicas, 3);
            obs.metrics.record(Hist::FaultDetectionUs, 50_000 + i);
            obs.metrics.record(Hist::BatchOccupancy, i % 16);
        }
    });
    assert_eq!(
        n, 0,
        "counter/gauge/histogram recording must not allocate ({n} allocations)"
    );
    assert_eq!(obs.metrics.counter(Ctr::GroupSends), 10_000);
    assert_eq!(obs.metrics.hist(Hist::FaultDetectionUs).count, 10_000);
}

#[test]
fn export_paths_do_allocate_but_only_off_hot_path() {
    // Sanity check that the cold paths still work after the hot-path
    // assertions (and document that they are allowed to allocate).
    let sink = TraceSink::with_capacity(16);
    sink.emit(sample_event(42));
    let events = sink.snapshot();
    let jsonl = vd_obs::export::export_jsonl(&events);
    assert!(jsonl.contains("\"event\":\"style_switch\""));
    let obs = Obs::disabled();
    obs.metrics.incr(Ctr::SimDeliveries);
    assert!(obs.metrics.render_json().contains("simnet.deliveries"));
}
