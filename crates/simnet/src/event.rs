//! The deterministic event queue.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is
//! assigned at insertion. Two runs with the same seed therefore pop events
//! in exactly the same order — the foundation of reproducible experiments.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::actor::{Actor, Payload, TimerToken};
use crate::time::SimTime;
use crate::topology::{NodeId, ProcessId};

/// What happens when an event fires.
pub(crate) enum EventKind {
    /// Deliver a message to a process.
    Deliver {
        src: ProcessId,
        dst: ProcessId,
        payload: Box<dyn Payload>,
        wire_size: usize,
    },
    /// Fire a timer on a process.
    Timer { pid: ProcessId, token: TimerToken },
    /// Run a process's `on_start`.
    Start { pid: ProcessId },
    /// Spawn a dynamically-created actor, then run its `on_start`.
    SpawnDynamic {
        pid: ProcessId,
        node: NodeId,
        actor: Box<dyn Actor>,
    },
    /// Apply a scheduled control action (fault injection etc.).
    Control(ControlAction),
}

/// Scheduled world-control actions, mostly fault injection.
#[derive(Debug, Clone)]
pub(crate) enum ControlAction {
    CrashProcess(ProcessId),
    CrashNode(NodeId),
    RestartNode(NodeId),
    SetNodeSlowdown(NodeId, f64),
    SetDropProbability(f64),
    PartitionNodes(Vec<NodeId>, Vec<NodeId>),
    PartitionOneWay(NodeId, NodeId),
    HealPartitions,
    HealPair(NodeId, NodeId),
    SetLinkLoss(NodeId, NodeId, f64),
    SetLinkDelay(
        NodeId,
        NodeId,
        crate::time::SimDuration,
        crate::time::SimDuration,
    ),
    SetClockSkew(NodeId, i64),
}

pub(crate) struct ScheduledEvent {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    // Reversed: BinaryHeap is a max-heap, we want earliest first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-queue of scheduled events with deterministic tie-breaking.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, kind });
    }

    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop()
    }

    /// The earliest pending event.
    pub fn peek(&self) -> Option<&ScheduledEvent> {
        self.heap.peek()
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Moves the earliest event to `(time, next seq)` without taking it
    /// out: the key a [`pop`](Self::pop) followed by a
    /// [`push`](Self::push) would give it, so the pop order is the same.
    /// `time` must not be earlier than the event's current time.
    pub fn rekey_top(&mut self, time: SimTime) {
        if let Some(mut top) = self.heap.peek_mut() {
            debug_assert!(time >= top.time, "re-keyed into the past");
            top.time = time;
            top.seq = self.next_seq;
            self.next_seq += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// A summary of every pending event, sorted by `(time, seq)` — the
    /// order in which the default scheduler would fire them. This is the
    /// branch frontier of [`crate::explore`].
    pub fn snapshot(&self) -> Vec<PendingEvent> {
        let mut pending: Vec<PendingEvent> = self
            .heap
            .iter()
            .map(|e| PendingEvent {
                seq: e.seq,
                time: e.time,
                is_deliver: matches!(e.kind, EventKind::Deliver { .. }),
            })
            .collect();
        pending.sort_by_key(|e| (e.time, e.seq));
        pending
    }

    /// Removes and returns the pending event with the given sequence
    /// number, leaving the rest of the queue (and the sequence counter)
    /// untouched. O(n) — exploration queues are small by construction.
    pub fn take(&mut self, seq: u64) -> Option<ScheduledEvent> {
        let drained = std::mem::take(&mut self.heap).into_vec();
        let mut found = None;
        let mut rest = Vec::with_capacity(drained.len());
        for ev in drained {
            if ev.seq == seq && found.is_none() {
                found = Some(ev);
            } else {
                rest.push(ev);
            }
        }
        self.heap = BinaryHeap::from(rest);
        found
    }

    /// Iterates over pending events in arbitrary (heap) order. Callers
    /// that need a deterministic order must sort by `(time, seq)`.
    pub fn iter(&self) -> impl Iterator<Item = &ScheduledEvent> {
        self.heap.iter()
    }
}

/// One entry of an [`EventQueue::snapshot`]: enough to decide whether the
/// event is a branch point and to name it in a recorded schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingEvent {
    pub seq: u64,
    pub time: SimTime,
    pub is_deliver: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;
    use crate::time::SimDuration;

    fn timer_event(pid: u64, token: u64) -> EventKind {
        EventKind::Timer {
            pid: ProcessId(pid),
            token: TimerToken(token),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), timer_event(1, 0));
        q.push(SimTime::from_micros(10), timer_event(2, 0));
        q.push(SimTime::from_micros(20), timer_event(3, 0));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for token in 0..10 {
            q.push(t, timer_event(1, token));
        }
        let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn take_removes_exactly_the_requested_event() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), timer_event(1, 0)); // seq 0
        q.push(SimTime::from_micros(10), timer_event(2, 0)); // seq 1
        q.push(SimTime::from_micros(20), timer_event(3, 0)); // seq 2
        let taken = q.take(2).expect("seq 2 is pending");
        assert_eq!(taken.time, SimTime::from_micros(20));
        assert!(q.take(2).is_none());
        let remaining: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(remaining, vec![1, 0]);
    }

    #[test]
    fn snapshot_is_sorted_by_time_then_seq() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), timer_event(1, 0));
        q.push(SimTime::from_micros(10), timer_event(2, 0));
        q.push(SimTime::from_micros(10), timer_event(3, 0));
        let snap = q.snapshot();
        let order: Vec<(u64, u64)> = snap.iter().map(|e| (e.time.as_micros(), e.seq)).collect();
        assert_eq!(order, vec![(10, 1), (10, 2), (30, 0)]);
        assert!(snap.iter().all(|e| !e.is_deliver));
    }

    fn key_and_token(e: ScheduledEvent) -> (u64, u64, u64) {
        match e.kind {
            EventKind::Timer { token, .. } => (e.time.as_micros(), e.seq, token.0),
            _ => unreachable!(),
        }
    }

    /// Re-keying the top in place pops exactly what popping it and pushing
    /// it back pops: the same `(time, seq, event)` sequence, over seeded
    /// schedules crowded onto a few instants so that most keys tie on time.
    #[test]
    fn rekey_top_pops_like_pop_and_push() {
        for seed in 0..32 {
            let mut rng = DeterministicRng::new(seed);
            let mut in_place = EventQueue::new();
            let mut requeued = EventQueue::new();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut now = 0;
            for token in 0..2_000 {
                match rng.gen_range_u64(0..=2) {
                    0 => {
                        let at = SimTime::from_micros(now + 10 * rng.gen_range_u64(0..=3));
                        in_place.push(at, timer_event(1, token));
                        requeued.push(at, timer_event(1, token));
                    }
                    1 => {
                        let Some(top) = in_place.peek_time() else {
                            continue;
                        };
                        let until = top + SimDuration::from_micros(10 * rng.gen_range_u64(0..=2));
                        in_place.rekey_top(until);
                        let ev = requeued.pop().expect("the queues move in step");
                        requeued.push(until, ev.kind);
                    }
                    _ => {
                        if let Some(ev) = in_place.pop() {
                            now = ev.time.as_micros();
                            a.push(key_and_token(ev));
                        }
                        b.extend(requeued.pop().map(key_and_token));
                    }
                }
            }
            a.extend(std::iter::from_fn(|| in_place.pop()).map(key_and_token));
            b.extend(std::iter::from_fn(|| requeued.pop()).map(key_and_token));
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(50), timer_event(1, 0));
        q.push(SimTime::from_micros(40), timer_event(1, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(40)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
