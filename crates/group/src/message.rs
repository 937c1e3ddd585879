//! Wire messages exchanged between group endpoints.
//!
//! Each variant carries an estimated wire size (headers plus encoded
//! fields) so the simulator's bandwidth and transmission-delay models see
//! realistic byte counts, which is what the paper's Fig. 7(b) bandwidth
//! results hinge on.
//!
//! Variable-length bodies (payloads, ack vectors, assignment batches, cuts,
//! causal clocks) are held behind shared buffers (`Bytes`/`Arc`) so the
//! endpoint's per-member fan-out, retransmit buffer and flush re-broadcast
//! paths all alias one encoding: cloning a `GroupMsg` is a reference-count
//! bump, never a body copy (see DESIGN.md, "Data-plane allocation and
//! batching contract").
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use bytes::Bytes;
use vd_simnet::actor::Payload;
use vd_simnet::explore::Fnv64;
use vd_simnet::topology::ProcessId;

use crate::order::DeliveryOrder;
use crate::vclock::VectorClock;
use crate::view::{View, ViewId};

/// Folds a view's identity (id + membership) into an exploration digest.
pub(crate) fn fold_view(h: &mut Fnv64, view: &View) {
    h.write_u64(view.id().0);
    for &m in view.members() {
        h.write_u64(m.0);
    }
}

/// Folds a vector clock's non-zero components into an exploration digest.
pub(crate) fn fold_vclock(h: &mut Fnv64, vc: &VectorClock) {
    for (m, v) in vc.iter() {
        h.write_u64(m.0);
        h.write_u64(v);
    }
}

/// Identifies a process group (a replica group, a monitoring group, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(pub u32);

/// Fixed per-message header estimate: group id, view id, type tag,
/// sender, sequence fields — roughly what Spread's header occupies.
pub const HEADER_BYTES: usize = 40;

/// Bytes per `(member, counter)` pair in vectors and maps.
pub const PAIR_BYTES: usize = 12;

/// Per-message sub-header inside a batched data frame (sender seq, order
/// tag, payload length) — much smaller than the full [`HEADER_BYTES`]
/// header the batch amortizes across its messages.
pub const BATCH_SUBHEADER_BYTES: usize = 12;

/// An application data multicast.
#[derive(Debug, Clone)]
pub struct DataMsg {
    /// Target group.
    pub group: GroupId,
    /// View in which the message was sent.
    pub view_id: ViewId,
    /// The multicasting member.
    pub sender: ProcessId,
    /// Per-sender sequence number (`None` for best-effort traffic, which is
    /// neither sequenced nor retransmitted).
    pub seq: Option<u64>,
    /// Requested delivery guarantee.
    pub order: DeliveryOrder,
    /// Causal timestamp (present only for causal messages). Shared so the
    /// per-member fan-out of a causal multicast aliases one clock.
    pub vclock: Option<Arc<VectorClock>>,
    /// Opaque application bytes.
    pub payload: Bytes,
}

impl DataMsg {
    /// Estimated bytes on the wire.
    pub fn wire_size(&self) -> usize {
        HEADER_BYTES + self.body_size()
    }

    /// Bytes this message contributes inside a batched frame: its body plus
    /// a small sub-header, with the full header paid once per batch.
    pub fn batched_wire_size(&self) -> usize {
        BATCH_SUBHEADER_BYTES + self.body_size()
    }

    fn body_size(&self) -> usize {
        self.payload.len() + self.vclock.as_ref().map_or(0, |vc| vc.len() * PAIR_BYTES)
    }

    /// Folds the full message identity — headers, ordering metadata and
    /// payload bytes — into an exploration digest.
    pub(crate) fn fold_digest(&self, h: &mut Fnv64) {
        h.write_u64(u64::from(self.group.0));
        h.write_u64(self.view_id.0);
        h.write_u64(self.sender.0);
        match self.seq {
            None => h.write_u8(0),
            Some(s) => {
                h.write_u8(1);
                h.write_u64(s);
            }
        }
        h.write_u8(match self.order {
            DeliveryOrder::BestEffort => 0,
            DeliveryOrder::Fifo => 1,
            DeliveryOrder::Causal => 2,
            DeliveryOrder::Agreed => 3,
        });
        if let Some(vc) = &self.vclock {
            h.write_u8(1);
            fold_vclock(h, vc);
        } else {
            h.write_u8(0);
        }
        h.write_u64(self.payload.len() as u64);
        h.write_bytes(&self.payload);
    }
}

/// One agreed-order assignment: global sequence → (sender, sender seq).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Position in the group-wide total order.
    pub global_seq: u64,
    /// The multicasting member.
    pub sender: ProcessId,
    /// That member's per-sender sequence number.
    pub seq: u64,
}

/// Per-member holdings reported during a flush.
#[derive(Debug, Clone, Default)]
pub struct FlushHoldings {
    /// For each sender: the highest contiguously-received sequence number.
    pub contiguous: Vec<(ProcessId, u64)>,
    /// For each sender: sequence numbers held beyond a gap.
    pub extras: Vec<(ProcessId, Vec<u64>)>,
    /// All agreed-order assignments this member knows of.
    pub assignments: Vec<Assignment>,
}

impl Assignment {
    pub(crate) fn fold_digest(&self, h: &mut Fnv64) {
        h.write_u64(self.global_seq);
        h.write_u64(self.sender.0);
        h.write_u64(self.seq);
    }
}

impl FlushHoldings {
    pub(crate) fn fold_digest(&self, h: &mut Fnv64) {
        for &(m, v) in &self.contiguous {
            h.write_u64(m.0);
            h.write_u64(v);
        }
        h.write_u8(0xfe);
        for (m, seqs) in &self.extras {
            h.write_u64(m.0);
            for &s in seqs {
                h.write_u64(s);
            }
            h.write_u8(0xfd);
        }
        for a in &self.assignments {
            a.fold_digest(h);
        }
    }

    fn wire_size(&self) -> usize {
        self.contiguous.len() * PAIR_BYTES
            + self
                .extras
                .iter()
                .map(|(_, v)| PAIR_BYTES + v.len() * 8)
                .sum::<usize>()
            + self.assignments.len() * (PAIR_BYTES + 8)
    }
}

/// Every message a group endpoint can send or receive.
#[derive(Debug, Clone)]
pub enum GroupMsg {
    /// Application data (original transmission).
    Data(DataMsg),
    /// Several data messages coalesced under one wire header (the endpoint's
    /// batching knob): one header + N sub-framed payloads per destination.
    /// The batch body is shared across the per-member fan-out.
    DataBatch {
        /// Target group.
        group: GroupId,
        /// The coalesced messages, oldest first.
        msgs: Arc<Vec<DataMsg>>,
    },
    /// Application data retransmitted in response to a NACK.
    Retransmit(DataMsg),
    /// Request to retransmit missing sequence numbers of `sender`'s stream.
    Nack {
        /// Target group.
        group: GroupId,
        /// Whose stream has the gap.
        sender: ProcessId,
        /// The missing sequence numbers.
        missing: Vec<u64>,
    },
    /// Agreed-order assignments from the sequencer.
    Assign {
        /// Target group.
        group: GroupId,
        /// View the assignments belong to.
        view_id: ViewId,
        /// Newly assigned total-order slots. Shared across the broadcast.
        assignments: Arc<Vec<Assignment>>,
    },
    /// Request to re-send assignments at or beyond `from_global`.
    AssignNack {
        /// Target group.
        group: GroupId,
        /// Sender's current view.
        view_id: ViewId,
        /// First unknown global sequence number.
        from_global: u64,
    },
    /// A process asks to be added to the group.
    JoinRequest {
        /// Target group.
        group: GroupId,
        /// The process that wants in.
        joiner: ProcessId,
    },
    /// A member announces a graceful departure.
    LeaveRequest {
        /// Target group.
        group: GroupId,
        /// The member that wants out.
        leaver: ProcessId,
    },
    /// The flush leader proposes the next view; receivers block sending.
    ViewProposal {
        /// Target group.
        group: GroupId,
        /// The proposed membership (its id doubles as the proposal id).
        proposal: View,
        /// Who is leading this flush round.
        leader: ProcessId,
    },
    /// A participant reports its holdings to the flush leader.
    FlushInfo {
        /// Target group.
        group: GroupId,
        /// Which proposal this answers.
        proposal_id: ViewId,
        /// What the participant has.
        holdings: FlushHoldings,
    },
    /// The leader announces the message cut every member must reach.
    FlushCut {
        /// Target group.
        group: GroupId,
        /// Which proposal this belongs to.
        proposal_id: ViewId,
        /// For each old-view sender: the last sequence number included in
        /// the old view (messages beyond it are discarded). Shared across
        /// the broadcast and the leader's timeout re-drives.
        cut: Arc<Vec<(ProcessId, u64)>>,
        /// The authoritative agreed-order assignments up to the cut.
        final_assignments: Arc<Vec<Assignment>>,
    },
    /// A participant confirms it holds every message up to the cut.
    FlushDone {
        /// Target group.
        group: GroupId,
        /// Which proposal this confirms.
        proposal_id: ViewId,
    },
    /// The leader commits the new view; receivers deliver up to the cut,
    /// then install.
    InstallView {
        /// Target group.
        group: GroupId,
        /// The new agreed view.
        view: View,
        /// Causal-clock state at the cut (adopted by joiners). Shared
        /// across the broadcast and straggler re-sends.
        causal_after: Arc<VectorClock>,
        /// The next free agreed-order slot after the cut.
        next_global: u64,
    },
}

impl GroupMsg {
    /// The group this message belongs to.
    pub fn group(&self) -> GroupId {
        match self {
            GroupMsg::Data(d) | GroupMsg::Retransmit(d) => d.group,
            GroupMsg::DataBatch { group, .. }
            | GroupMsg::Nack { group, .. }
            | GroupMsg::Assign { group, .. }
            | GroupMsg::AssignNack { group, .. }
            | GroupMsg::JoinRequest { group, .. }
            | GroupMsg::LeaveRequest { group, .. }
            | GroupMsg::ViewProposal { group, .. }
            | GroupMsg::FlushInfo { group, .. }
            | GroupMsg::FlushCut { group, .. }
            | GroupMsg::FlushDone { group, .. }
            | GroupMsg::InstallView { group, .. } => *group,
        }
    }
}

impl Payload for GroupMsg {
    fn wire_size(&self) -> usize {
        match self {
            GroupMsg::Data(d) | GroupMsg::Retransmit(d) => d.wire_size(),
            GroupMsg::DataBatch { msgs, .. } => {
                HEADER_BYTES + msgs.iter().map(DataMsg::batched_wire_size).sum::<usize>()
            }
            GroupMsg::Nack { missing, .. } => HEADER_BYTES + 8 + missing.len() * 8,
            GroupMsg::Assign { assignments, .. } => {
                HEADER_BYTES + assignments.len() * (PAIR_BYTES + 8)
            }
            GroupMsg::AssignNack { .. } => HEADER_BYTES + 8,
            GroupMsg::JoinRequest { .. } | GroupMsg::LeaveRequest { .. } => HEADER_BYTES + 8,
            GroupMsg::ViewProposal { proposal, .. } => HEADER_BYTES + proposal.len() * 8 + 8,
            GroupMsg::FlushInfo { holdings, .. } => HEADER_BYTES + holdings.wire_size(),
            GroupMsg::FlushCut {
                cut,
                final_assignments,
                ..
            } => HEADER_BYTES + cut.len() * PAIR_BYTES + final_assignments.len() * (PAIR_BYTES + 8),
            GroupMsg::FlushDone { .. } => HEADER_BYTES,
            GroupMsg::InstallView {
                view, causal_after, ..
            } => HEADER_BYTES + view.len() * 8 + causal_after.len() * PAIR_BYTES + 8,
        }
    }

    // Content digest for interleaving exploration: two in-flight group
    // messages hash equal iff they are behaviorally interchangeable. Every
    // variant is covered exhaustively (`clippy::wildcard_enum_match_arm`
    // denies a catch-all arm) with a distinct tag byte. Tag 4 belonged to
    // the retired per-group heartbeat and is not reused.
    fn digest(&self) -> Option<u64> {
        let mut h = Fnv64::new();
        match self {
            GroupMsg::Data(d) => {
                h.write_u8(1);
                d.fold_digest(&mut h);
            }
            GroupMsg::DataBatch { group, msgs } => {
                h.write_u8(2);
                h.write_u64(u64::from(group.0));
                for d in msgs.iter() {
                    d.fold_digest(&mut h);
                }
            }
            GroupMsg::Retransmit(d) => {
                h.write_u8(3);
                d.fold_digest(&mut h);
            }
            GroupMsg::Nack {
                group,
                sender,
                missing,
            } => {
                h.write_u8(5);
                h.write_u64(u64::from(group.0));
                h.write_u64(sender.0);
                for &s in missing {
                    h.write_u64(s);
                }
            }
            GroupMsg::Assign {
                group,
                view_id,
                assignments,
            } => {
                h.write_u8(6);
                h.write_u64(u64::from(group.0));
                h.write_u64(view_id.0);
                for a in assignments.iter() {
                    a.fold_digest(&mut h);
                }
            }
            GroupMsg::AssignNack {
                group,
                view_id,
                from_global,
            } => {
                h.write_u8(7);
                h.write_u64(u64::from(group.0));
                h.write_u64(view_id.0);
                h.write_u64(*from_global);
            }
            GroupMsg::JoinRequest { group, joiner } => {
                h.write_u8(8);
                h.write_u64(u64::from(group.0));
                h.write_u64(joiner.0);
            }
            GroupMsg::LeaveRequest { group, leaver } => {
                h.write_u8(9);
                h.write_u64(u64::from(group.0));
                h.write_u64(leaver.0);
            }
            GroupMsg::ViewProposal {
                group,
                proposal,
                leader,
            } => {
                h.write_u8(10);
                h.write_u64(u64::from(group.0));
                fold_view(&mut h, proposal);
                h.write_u64(leader.0);
            }
            GroupMsg::FlushInfo {
                group,
                proposal_id,
                holdings,
            } => {
                h.write_u8(11);
                h.write_u64(u64::from(group.0));
                h.write_u64(proposal_id.0);
                holdings.fold_digest(&mut h);
            }
            GroupMsg::FlushCut {
                group,
                proposal_id,
                cut,
                final_assignments,
            } => {
                h.write_u8(12);
                h.write_u64(u64::from(group.0));
                h.write_u64(proposal_id.0);
                for &(m, v) in cut.iter() {
                    h.write_u64(m.0);
                    h.write_u64(v);
                }
                for a in final_assignments.iter() {
                    a.fold_digest(&mut h);
                }
            }
            GroupMsg::FlushDone { group, proposal_id } => {
                h.write_u8(13);
                h.write_u64(u64::from(group.0));
                h.write_u64(proposal_id.0);
            }
            GroupMsg::InstallView {
                group,
                view,
                causal_after,
                next_global,
            } => {
                h.write_u8(14);
                h.write_u64(u64::from(group.0));
                fold_view(&mut h, view);
                fold_vclock(&mut h, causal_after);
                h.write_u64(*next_global);
            }
        }
        Some(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The group all wire-format fixtures below belong to.
    const GROUP: GroupId = GroupId(1);

    fn p(n: u64) -> ProcessId {
        ProcessId(n)
    }

    fn data(payload_len: usize, vclock: Option<VectorClock>) -> DataMsg {
        DataMsg {
            group: GROUP,
            view_id: ViewId(0),
            sender: p(1),
            seq: Some(1),
            order: DeliveryOrder::Fifo,
            vclock: vclock.map(Arc::new),
            payload: Bytes::from(vec![0u8; payload_len]),
        }
    }

    #[test]
    fn data_wire_size_includes_payload() {
        assert_eq!(data(100, None).wire_size(), HEADER_BYTES + 100);
    }

    #[test]
    fn causal_data_pays_for_vclock() {
        let mut vc = VectorClock::new();
        vc.set(p(1), 1);
        vc.set(p(2), 3);
        assert_eq!(
            data(10, Some(vc)).wire_size(),
            HEADER_BYTES + 10 + 2 * PAIR_BYTES
        );
    }

    #[test]
    fn group_accessor_covers_all_variants() {
        let g = GroupId(7);
        let msgs = vec![
            GroupMsg::Data(DataMsg {
                group: g,
                ..data(0, None)
            }),
            GroupMsg::DataBatch {
                group: g,
                msgs: Arc::new(vec![]),
            },
            GroupMsg::Nack {
                group: g,
                sender: p(1),
                missing: vec![1],
            },
            GroupMsg::FlushDone {
                group: g,
                proposal_id: ViewId(1),
            },
        ];
        for m in msgs {
            assert_eq!(m.group(), g);
        }
    }

    #[test]
    fn control_messages_have_nonzero_size() {
        let m = GroupMsg::InstallView {
            group: GroupId(0),
            view: View::new(ViewId(1), vec![p(1), p(2)]),
            causal_after: Arc::new(VectorClock::new()),
            next_global: 5,
        };
        assert!(m.wire_size() >= HEADER_BYTES);
    }

    #[test]
    fn batch_amortizes_the_header() {
        let msgs: Vec<DataMsg> = (0..8).map(|_| data(64, None)).collect();
        let separate: usize = msgs.iter().map(DataMsg::wire_size).sum();
        let batched = GroupMsg::DataBatch {
            group: GROUP,
            msgs: Arc::new(msgs),
        }
        .wire_size();
        // 8 headers collapse into 1 header + 8 small sub-headers.
        assert!(batched < separate, "{batched} < {separate}");
        assert_eq!(batched, HEADER_BYTES + 8 * (BATCH_SUBHEADER_BYTES + 64));
    }

    #[test]
    fn cloning_a_batch_shares_the_body() {
        let msgs = Arc::new(vec![data(1024, None)]);
        let m = GroupMsg::DataBatch {
            group: GROUP,
            msgs: msgs.clone(),
        };
        let m2 = m.clone();
        if let (GroupMsg::DataBatch { msgs: a, .. }, GroupMsg::DataBatch { msgs: b, .. }) =
            (&m, &m2)
        {
            assert!(Arc::ptr_eq(a, b), "clone must alias, not copy");
        }
        assert_eq!(Arc::strong_count(&msgs), 3);
    }
}
