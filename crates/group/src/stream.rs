//! Per-sender receive streams: reliability, gap detection and per-class
//! delivery cursors.
//!
//! Every reliable message from a member carries a per-sender sequence
//! number. A `SenderStream` buffers the messages received from one
//! sender, tracks the contiguously-received prefix (anything beyond it is a
//! *gap* to NACK), and maintains one delivery cursor per delivery class so
//! FIFO, causal and agreed traffic from the same sender progress
//! independently without cross-class deadlock.

use std::collections::BTreeMap;

use crate::message::DataMsg;
use crate::order::DeliveryOrder;

/// Reception state for one sender within a group.
#[derive(Debug)]
pub(crate) struct SenderStream {
    /// Lowest sequence number not yet contiguously received. Starts at 1;
    /// all of `1..next_expected` have been received at some point.
    next_expected: u64,
    /// Highest sequence number seen (for gap enumeration).
    max_received: u64,
    /// Received messages retained for delivery and retransmission.
    buffer: BTreeMap<u64, DataMsg>,
    /// Next sequence number each class cursor will examine.
    cursor_fifo: u64,
    cursor_causal: u64,
    cursor_agreed: u64,
}

impl Default for SenderStream {
    fn default() -> Self {
        SenderStream::new()
    }
}

impl SenderStream {
    pub fn new() -> Self {
        SenderStream {
            next_expected: 1,
            max_received: 0,
            buffer: BTreeMap::new(),
            cursor_fifo: 1,
            cursor_causal: 1,
            cursor_agreed: 1,
        }
    }

    /// Starts a stream whose history up to `seq` is unknown and skipped
    /// (used by joiners adopting a flush cut).
    pub fn starting_after(seq: u64) -> Self {
        SenderStream {
            next_expected: seq + 1,
            max_received: seq,
            buffer: BTreeMap::new(),
            cursor_fifo: seq + 1,
            cursor_causal: seq + 1,
            cursor_agreed: seq + 1,
        }
    }

    /// Accepts a received message. Returns `true` if it is new (not a
    /// duplicate and not already delivered-and-pruned).
    pub fn accept(&mut self, msg: DataMsg) -> bool {
        let Some(seq) = msg.seq else {
            return false; // best-effort traffic never enters streams
        };
        if seq < self.next_expected && !self.buffer.contains_key(&seq) {
            // Already contiguously received earlier (possibly pruned).
            return false;
        }
        if self.buffer.contains_key(&seq) {
            return false;
        }
        self.max_received = self.max_received.max(seq);
        self.buffer.insert(seq, msg);
        while self.buffer.contains_key(&self.next_expected) {
            self.next_expected += 1;
        }
        true
    }

    /// The highest contiguously-received sequence number (the ack value
    /// carried in heartbeats and flush info).
    pub fn contiguous(&self) -> u64 {
        self.next_expected - 1
    }

    /// The highest sequence number seen at all.
    #[cfg(test)]
    pub fn max_received(&self) -> u64 {
        self.max_received
    }

    /// Notes that messages up to `seq` exist (learned from a peer's
    /// heartbeat ack), so tail losses become NACKable gaps.
    pub fn note_exists(&mut self, seq: u64) {
        if seq > self.max_received {
            self.max_received = seq;
        }
    }

    /// Sequence numbers in `(contiguous, max_received]` that are missing.
    pub fn gaps(&self) -> Vec<u64> {
        (self.next_expected..=self.max_received)
            .filter(|s| !self.buffer.contains_key(s))
            .collect()
    }

    /// Sequence numbers held beyond the contiguous prefix (flush "extras").
    pub fn extras(&self) -> Vec<u64> {
        self.buffer
            .range(self.next_expected..)
            .map(|(&s, _)| s)
            .collect()
    }

    /// The buffered message with sequence `seq`, if retained.
    pub fn get(&self, seq: u64) -> Option<&DataMsg> {
        self.buffer.get(&seq)
    }

    /// Whether `seq` is buffered.
    pub fn has(&self, seq: u64) -> bool {
        self.buffer.contains_key(&seq)
    }

    /// The current cursor for `order`.
    pub fn cursor(&self, order: DeliveryOrder) -> u64 {
        match order {
            DeliveryOrder::Fifo => self.cursor_fifo,
            DeliveryOrder::Causal => self.cursor_causal,
            DeliveryOrder::Agreed => self.cursor_agreed,
            DeliveryOrder::BestEffort => 0,
        }
    }

    fn cursor_mut(&mut self, order: DeliveryOrder) -> &mut u64 {
        match order {
            DeliveryOrder::Fifo => &mut self.cursor_fifo,
            DeliveryOrder::Causal => &mut self.cursor_causal,
            DeliveryOrder::Agreed => &mut self.cursor_agreed,
            DeliveryOrder::BestEffort => unreachable!("best-effort has no cursor"),
        }
    }

    /// Finds the next *undelivered* message of class `order`: advances the
    /// class cursor past contiguously-received messages of other classes and
    /// returns the sequence number of the first message of this class, or
    /// `None` if the cursor hits the end of the contiguous prefix first.
    ///
    /// The cursor is only advanced past *other-class* messages; the returned
    /// message stays current until [`SenderStream::mark_delivered`] is called.
    pub fn peek_class(&mut self, order: DeliveryOrder) -> Option<u64> {
        loop {
            let cur = self.cursor(order);
            if cur >= self.next_expected {
                return None;
            }
            match self.buffer.get(&cur) {
                Some(msg) if msg.order == order => return Some(cur),
                Some(_) => {
                    *self.cursor_mut(order) += 1;
                }
                None => {
                    // Pruned: anything pruned was delivered by every class
                    // cursor already, so cursors can never point below it.
                    // Be defensive and skip.
                    *self.cursor_mut(order) += 1;
                }
            }
        }
    }

    /// Marks the message at the class cursor as delivered, advancing it.
    pub fn mark_delivered(&mut self, order: DeliveryOrder) {
        *self.cursor_mut(order) += 1;
    }

    /// The lowest of the three class cursors: nothing below it is
    /// undelivered.
    pub fn min_cursor(&self) -> u64 {
        self.cursor_fifo
            .min(self.cursor_causal)
            .min(self.cursor_agreed)
    }

    /// Prunes delivered messages with `seq ≤ stable` (stability-based GC).
    /// Messages at or above any class cursor are retained.
    pub fn prune(&mut self, stable: u64) {
        let limit = self.min_cursor().min(stable + 1);
        self.buffer.retain(|&s, _| s >= limit);
    }

    /// Discards buffered messages beyond `cut` and fast-forwards reception
    /// state to the cut (view-change truncation of a departed or lagging
    /// sender's stream).
    pub fn truncate_to_cut(&mut self, cut: u64) {
        self.buffer.retain(|&s, _| s <= cut);
        if self.next_expected <= cut + 1 {
            self.next_expected = cut + 1;
            for s in 1..=cut {
                debug_assert!(
                    self.buffer.contains_key(&s) || s < self.min_cursor() || self.buffer.is_empty(),
                    "cut {cut} not fully held at seq {s}"
                );
            }
        }
        self.max_received = self.max_received.min(cut);
        // Cursors stay put: remaining messages up to the cut must still be
        // delivered during view installation.
    }

    /// Number of buffered messages (tests and memory accounting).
    #[cfg(test)]
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Folds the full reception state — prefix, buffered messages and all
    /// three class cursors — into an exploration digest.
    pub fn fold_digest(&self, h: &mut vd_simnet::explore::Fnv64) {
        h.write_u64(self.next_expected);
        h.write_u64(self.max_received);
        for (&seq, msg) in &self.buffer {
            h.write_u64(seq);
            msg.fold_digest(h);
        }
        h.write_u64(self.cursor_fifo);
        h.write_u64(self.cursor_causal);
        h.write_u64(self.cursor_agreed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use vd_simnet::topology::ProcessId;

    use crate::message::GroupId;
    use crate::view::ViewId;

    fn msg(seq: u64, order: DeliveryOrder) -> DataMsg {
        DataMsg {
            group: GroupId(0),
            view_id: ViewId(0),
            sender: ProcessId(1),
            seq: Some(seq),
            order,
            vclock: None,
            payload: Bytes::new(),
        }
    }

    #[test]
    fn contiguous_prefix_advances() {
        let mut s = SenderStream::new();
        assert!(s.accept(msg(1, DeliveryOrder::Fifo)));
        assert!(s.accept(msg(2, DeliveryOrder::Fifo)));
        assert_eq!(s.contiguous(), 2);
        assert!(s.gaps().is_empty());
    }

    #[test]
    fn gap_detection() {
        let mut s = SenderStream::new();
        s.accept(msg(1, DeliveryOrder::Fifo));
        s.accept(msg(4, DeliveryOrder::Fifo));
        s.accept(msg(6, DeliveryOrder::Fifo));
        assert_eq!(s.contiguous(), 1);
        assert_eq!(s.gaps(), vec![2, 3, 5]);
        assert_eq!(s.extras(), vec![4, 6]);
        // Filling the gaps advances the prefix.
        s.accept(msg(2, DeliveryOrder::Fifo));
        s.accept(msg(3, DeliveryOrder::Fifo));
        s.accept(msg(5, DeliveryOrder::Fifo));
        assert_eq!(s.contiguous(), 6);
        assert!(s.gaps().is_empty());
    }

    #[test]
    fn duplicates_rejected() {
        let mut s = SenderStream::new();
        assert!(s.accept(msg(1, DeliveryOrder::Fifo)));
        assert!(!s.accept(msg(1, DeliveryOrder::Fifo)));
        // Pruned-then-redelivered is also rejected.
        s.mark_delivered(DeliveryOrder::Fifo);
        // Move the other cursors forward too so pruning may advance.
        s.peek_class(DeliveryOrder::Causal);
        s.peek_class(DeliveryOrder::Agreed);
        s.prune(1);
        assert_eq!(s.buffered(), 0);
        assert!(!s.accept(msg(1, DeliveryOrder::Fifo)));
    }

    #[test]
    fn class_cursors_skip_other_classes() {
        let mut s = SenderStream::new();
        s.accept(msg(1, DeliveryOrder::Agreed));
        s.accept(msg(2, DeliveryOrder::Fifo));
        s.accept(msg(3, DeliveryOrder::Causal));
        // FIFO cursor finds seq 2 even though seq 1 (agreed) is undelivered.
        assert_eq!(s.peek_class(DeliveryOrder::Fifo), Some(2));
        s.mark_delivered(DeliveryOrder::Fifo);
        assert_eq!(s.peek_class(DeliveryOrder::Fifo), None);
        assert_eq!(s.peek_class(DeliveryOrder::Agreed), Some(1));
        assert_eq!(s.peek_class(DeliveryOrder::Causal), Some(3));
    }

    #[test]
    fn peek_stops_at_contiguity_boundary() {
        let mut s = SenderStream::new();
        s.accept(msg(1, DeliveryOrder::Fifo));
        s.accept(msg(3, DeliveryOrder::Fifo)); // gap at 2
        assert_eq!(s.peek_class(DeliveryOrder::Fifo), Some(1));
        s.mark_delivered(DeliveryOrder::Fifo);
        // Seq 3 is received but not contiguous; not deliverable yet.
        assert_eq!(s.peek_class(DeliveryOrder::Fifo), None);
    }

    #[test]
    fn prune_respects_cursors() {
        let mut s = SenderStream::new();
        for i in 1..=5 {
            s.accept(msg(i, DeliveryOrder::Fifo));
        }
        // Deliver 1..=2 in the fifo class.
        assert_eq!(s.peek_class(DeliveryOrder::Fifo), Some(1));
        s.mark_delivered(DeliveryOrder::Fifo);
        assert_eq!(s.peek_class(DeliveryOrder::Fifo), Some(2));
        s.mark_delivered(DeliveryOrder::Fifo);
        // Other class cursors are at 1, so nothing can be pruned yet.
        s.prune(5);
        assert_eq!(s.buffered(), 5);
        // Advance the other cursors past the fifo messages; the fifo cursor
        // (at 3) now bounds pruning.
        assert_eq!(s.peek_class(DeliveryOrder::Causal), None);
        assert_eq!(s.peek_class(DeliveryOrder::Agreed), None);
        s.prune(5);
        assert_eq!(s.buffered(), 3, "undelivered fifo 3..=5 retained");
        // Deliver the rest; everything stable can now go.
        while s.peek_class(DeliveryOrder::Fifo).is_some() {
            s.mark_delivered(DeliveryOrder::Fifo);
        }
        s.prune(5);
        assert_eq!(s.buffered(), 0);
        // But stability limits pruning even with cursors advanced.
        s.accept(msg(6, DeliveryOrder::Fifo));
        s.mark_delivered(DeliveryOrder::Fifo);
        s.peek_class(DeliveryOrder::Causal);
        s.peek_class(DeliveryOrder::Agreed);
        s.prune(5);
        assert_eq!(s.buffered(), 1, "seq 6 not yet stable");
    }

    #[test]
    fn truncate_drops_beyond_cut() {
        let mut s = SenderStream::new();
        s.accept(msg(1, DeliveryOrder::Fifo));
        s.accept(msg(2, DeliveryOrder::Fifo));
        s.accept(msg(5, DeliveryOrder::Fifo));
        s.truncate_to_cut(2);
        assert_eq!(s.max_received(), 2);
        assert_eq!(s.contiguous(), 2);
        assert!(!s.has(5));
        assert!(s.has(2));
    }

    #[test]
    fn starting_after_skips_history() {
        let s = SenderStream::starting_after(10);
        assert_eq!(s.contiguous(), 10);
        assert!(s.gaps().is_empty());
        assert_eq!(s.cursor(DeliveryOrder::Fifo), 11);
    }

    #[test]
    fn best_effort_never_buffered() {
        let mut s = SenderStream::new();
        let mut m = msg(0, DeliveryOrder::BestEffort);
        m.seq = None;
        assert!(!s.accept(m));
        assert_eq!(s.buffered(), 0);
    }
}
