//! Wire codec for the real transport: typed payloads ⇄ UDP datagrams.
//!
//! Inside the simulator payloads travel as typed Rust values — no bytes,
//! no serialization (`vd-simnet` models only their *wire size*). On a
//! real network every frame must actually be encoded, so this module
//! defines the node-to-node datagram format: a small envelope (magic,
//! destination process, source process, payload kind) followed by a
//! CDR-encoded body reusing `vd-orb`'s encoder. One datagram carries one
//! protocol frame; the group layer's own batching
//! ([`GroupMsg::DataBatch`]) keeps datagram counts low, exactly as the
//! paper's Spread deployment amortized headers (§6, Fig. 7b).
//!
//! Every payload type that crosses process boundaries in the stack has a
//! codec here: group-communication frames, process heartbeats, ORB
//! request/reply frames, reply-log acks, replica commands and the
//! recovery-manager gossip. Malformed input surfaces as
//! [`DecodeError`] — never a panic — because a datagram from the network
//! is attacker-adjacent input (the vd-check `decode-unwrap` lint enforces
//! this for the whole file).

use std::sync::Arc;

use bytes::Bytes;
use vd_core::recovery::{DirectiveNotice, ManagerHeartbeat, MembershipReport, SuspicionNotice};
use vd_core::replica::{ReplicaCommand, ReplyLogAck};
use vd_core::style::ReplicationStyle;
use vd_group::message::{Assignment, DataMsg, FlushHoldings, GroupId, GroupMsg};
use vd_group::multi::{HeartbeatSection, ProcessHeartbeat};
use vd_group::order::DeliveryOrder;
use vd_group::vclock::VectorClock;
use vd_group::view::{View, ViewId};
use vd_orb::cdr::{DecodeError, Decoder, Encoder};
use vd_orb::wire::OrbMessage;
use vd_simnet::actor::{payload_ref, Payload};
use vd_simnet::topology::ProcessId;

/// The 4-byte datagram magic ("VDN" + format version 1).
pub const MAGIC: [u8; 4] = *b"VDN1";

/// One decoded datagram: who it is for, who sent it, and the payload.
#[derive(Debug)]
pub struct Frame {
    /// The destination process (a node may host several).
    pub to: ProcessId,
    /// The sending process.
    pub from: ProcessId,
    /// The decoded protocol payload.
    pub payload: Box<dyn Payload>,
}

/// Payload kind tags in the envelope.
mod kind {
    pub const GROUP_MSG: u8 = 0;
    pub const PROCESS_HEARTBEAT: u8 = 1;
    pub const ORB_MESSAGE: u8 = 2;
    pub const REPLY_LOG_ACK: u8 = 3;
    pub const REPLICA_COMMAND: u8 = 4;
    pub const MEMBERSHIP_REPORT: u8 = 5;
    pub const SUSPICION_NOTICE: u8 = 6;
    pub const DIRECTIVE_NOTICE: u8 = 7;
    pub const MANAGER_HEARTBEAT: u8 = 8;
}

/// Encodes one protocol payload into a datagram addressed `from` → `to`.
///
/// Returns `None` for payload types that have no wire representation
/// (e.g. simulator-only harness commands); the caller drops the frame and
/// counts it, mirroring how the simulator would refuse to route a
/// payload to a process that cannot interpret it.
pub fn encode_frame(to: ProcessId, from: ProcessId, payload: &dyn Payload) -> Option<Bytes> {
    let mut enc = Encoder::new();
    for b in MAGIC {
        enc.put_u8(b);
    }
    enc.put_u64(to.0);
    enc.put_u64(from.0);
    if let Some(msg) = payload_ref::<GroupMsg>(payload) {
        enc.put_u8(kind::GROUP_MSG);
        put_group_msg(&mut enc, msg);
    } else if let Some(hb) = payload_ref::<ProcessHeartbeat>(payload) {
        enc.put_u8(kind::PROCESS_HEARTBEAT);
        put_process_heartbeat(&mut enc, hb);
    } else if let Some(orb) = payload_ref::<OrbMessage>(payload) {
        enc.put_u8(kind::ORB_MESSAGE);
        enc.put_bytes(&orb.encode());
    } else if let Some(ack) = payload_ref::<ReplyLogAck>(payload) {
        enc.put_u8(kind::REPLY_LOG_ACK);
        enc.put_u32(ack.group.0);
        enc.put_u64(ack.client.0);
        enc.put_u64(ack.request_id);
    } else if let Some(cmd) = payload_ref::<ReplicaCommand>(payload) {
        enc.put_u8(kind::REPLICA_COMMAND);
        put_replica_command(&mut enc, cmd);
    } else if let Some(report) = payload_ref::<MembershipReport>(payload) {
        enc.put_u8(kind::MEMBERSHIP_REPORT);
        put_membership_report(&mut enc, report);
    } else if let Some(notice) = payload_ref::<SuspicionNotice>(payload) {
        enc.put_u8(kind::SUSPICION_NOTICE);
        enc.put_u32(notice.group.0);
        enc.put_u64(notice.replica.0);
        enc.put_u64(notice.suspicions);
    } else if let Some(notice) = payload_ref::<DirectiveNotice>(payload) {
        enc.put_u8(kind::DIRECTIVE_NOTICE);
        enc.put_u32(notice.group.0);
        enc.put_u64(notice.replica.0);
        enc.put_bool(notice.add);
        enc.put_u64(notice.observed_replicas as u64);
    } else if let Some(hb) = payload_ref::<ManagerHeartbeat>(payload) {
        enc.put_u8(kind::MANAGER_HEARTBEAT);
        enc.put_u64(hb.rank as u64);
    } else {
        return None;
    }
    Some(enc.finish())
}

/// Reads the destination process id out of a datagram without decoding
/// the payload. The node's io pump routes on this, leaving the (possibly
/// expensive) payload decode to the owning actor's thread.
pub fn peek_destination(datagram: &[u8]) -> Option<ProcessId> {
    if datagram.len() < 12 || datagram[..4] != MAGIC {
        return None;
    }
    let mut dec = Decoder::new(Bytes::copy_from_slice(&datagram[4..12]));
    dec.get_u64().ok().map(ProcessId)
}

/// Decodes a datagram previously produced by [`encode_frame`].
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input, including a bad magic or an
/// unknown payload kind.
pub fn decode_frame(bytes: Bytes) -> Result<Frame, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = dec.get_u8()?;
    }
    if magic != MAGIC {
        return Err(DecodeError::InvalidDiscriminant {
            what: "node frame magic",
            tag: u32::from_be_bytes(magic) as u64,
        });
    }
    let to = ProcessId(dec.get_u64()?);
    let from = ProcessId(dec.get_u64()?);
    let payload: Box<dyn Payload> = match dec.get_u8()? {
        kind::GROUP_MSG => Box::new(get_group_msg(&mut dec)?),
        kind::PROCESS_HEARTBEAT => Box::new(get_process_heartbeat(&mut dec)?),
        kind::ORB_MESSAGE => Box::new(OrbMessage::decode(dec.get_bytes()?)?),
        kind::REPLY_LOG_ACK => Box::new(ReplyLogAck {
            group: GroupId(dec.get_u32()?),
            client: ProcessId(dec.get_u64()?),
            request_id: dec.get_u64()?,
        }),
        kind::REPLICA_COMMAND => Box::new(get_replica_command(&mut dec)?),
        kind::MEMBERSHIP_REPORT => Box::new(get_membership_report(&mut dec)?),
        kind::SUSPICION_NOTICE => Box::new(SuspicionNotice {
            group: GroupId(dec.get_u32()?),
            replica: ProcessId(dec.get_u64()?),
            suspicions: dec.get_u64()?,
        }),
        kind::DIRECTIVE_NOTICE => Box::new(DirectiveNotice {
            group: GroupId(dec.get_u32()?),
            replica: ProcessId(dec.get_u64()?),
            add: dec.get_bool()?,
            observed_replicas: dec.get_u64()? as usize,
        }),
        kind::MANAGER_HEARTBEAT => Box::new(ManagerHeartbeat {
            rank: dec.get_u64()? as usize,
        }),
        other => {
            return Err(DecodeError::InvalidDiscriminant {
                what: "node frame kind",
                tag: other as u64,
            })
        }
    };
    Ok(Frame { to, from, payload })
}

fn put_pairs(enc: &mut Encoder, pairs: &[(ProcessId, u64)]) {
    enc.put_u32(pairs.len() as u32);
    for &(p, v) in pairs {
        enc.put_u64(p.0);
        enc.put_u64(v);
    }
}

fn get_pairs(dec: &mut Decoder) -> Result<Vec<(ProcessId, u64)>, DecodeError> {
    let n = dec.get_u32()? as usize;
    let mut pairs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        pairs.push((ProcessId(dec.get_u64()?), dec.get_u64()?));
    }
    Ok(pairs)
}

fn put_view(enc: &mut Encoder, view: &View) {
    enc.put_u64(view.id().0);
    enc.put_u32(view.len() as u32);
    for &m in view.members() {
        enc.put_u64(m.0);
    }
}

fn get_view(dec: &mut Decoder) -> Result<View, DecodeError> {
    let id = ViewId(dec.get_u64()?);
    let n = dec.get_u32()? as usize;
    let mut members = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        members.push(ProcessId(dec.get_u64()?));
    }
    Ok(View::new(id, members))
}

fn put_vclock(enc: &mut Encoder, vc: &VectorClock) {
    enc.put_u32(vc.len() as u32);
    for (m, v) in vc.iter() {
        enc.put_u64(m.0);
        enc.put_u64(v);
    }
}

fn get_vclock(dec: &mut Decoder) -> Result<VectorClock, DecodeError> {
    let n = dec.get_u32()? as usize;
    let mut vc = VectorClock::new();
    for _ in 0..n {
        let m = ProcessId(dec.get_u64()?);
        let v = dec.get_u64()?;
        vc.set(m, v);
    }
    Ok(vc)
}

fn order_tag(order: DeliveryOrder) -> u8 {
    match order {
        DeliveryOrder::BestEffort => 0,
        DeliveryOrder::Fifo => 1,
        DeliveryOrder::Causal => 2,
        DeliveryOrder::Agreed => 3,
    }
}

fn order_from_tag(tag: u8) -> Result<DeliveryOrder, DecodeError> {
    match tag {
        0 => Ok(DeliveryOrder::BestEffort),
        1 => Ok(DeliveryOrder::Fifo),
        2 => Ok(DeliveryOrder::Causal),
        3 => Ok(DeliveryOrder::Agreed),
        other => Err(DecodeError::InvalidDiscriminant {
            what: "delivery order",
            tag: other as u64,
        }),
    }
}

fn put_data_msg(enc: &mut Encoder, d: &DataMsg) {
    enc.put_u32(d.group.0);
    enc.put_u64(d.view_id.0);
    enc.put_u64(d.sender.0);
    enc.put_option(d.seq, |e, s| e.put_u64(s));
    enc.put_u8(order_tag(d.order));
    enc.put_option(d.vclock.as_deref(), put_vclock);
    enc.put_bytes(&d.payload);
}

fn get_data_msg(dec: &mut Decoder) -> Result<DataMsg, DecodeError> {
    Ok(DataMsg {
        group: GroupId(dec.get_u32()?),
        view_id: ViewId(dec.get_u64()?),
        sender: ProcessId(dec.get_u64()?),
        seq: dec.get_option(|d| d.get_u64())?,
        order: order_from_tag(dec.get_u8()?)?,
        vclock: dec.get_option(get_vclock)?.map(Arc::new),
        payload: dec.get_bytes()?,
    })
}

fn put_assignments(enc: &mut Encoder, assignments: &[Assignment]) {
    enc.put_u32(assignments.len() as u32);
    for a in assignments {
        enc.put_u64(a.global_seq);
        enc.put_u64(a.sender.0);
        enc.put_u64(a.seq);
    }
}

fn get_assignments(dec: &mut Decoder) -> Result<Vec<Assignment>, DecodeError> {
    let n = dec.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(Assignment {
            global_seq: dec.get_u64()?,
            sender: ProcessId(dec.get_u64()?),
            seq: dec.get_u64()?,
        });
    }
    Ok(out)
}

fn put_group_msg(enc: &mut Encoder, msg: &GroupMsg) {
    // Variant tags deliberately match the digest tags in
    // `vd-group/src/message.rs` so the two enumerations stay in lockstep.
    // Tag 4 belonged to the retired per-group heartbeat and is not reused.
    match msg {
        GroupMsg::Data(d) => {
            enc.put_u8(1);
            put_data_msg(enc, d);
        }
        GroupMsg::DataBatch { group, msgs } => {
            enc.put_u8(2);
            enc.put_u32(group.0);
            enc.put_u32(msgs.len() as u32);
            for d in msgs.iter() {
                put_data_msg(enc, d);
            }
        }
        GroupMsg::Retransmit(d) => {
            enc.put_u8(3);
            put_data_msg(enc, d);
        }
        GroupMsg::Nack {
            group,
            sender,
            missing,
        } => {
            enc.put_u8(5);
            enc.put_u32(group.0);
            enc.put_u64(sender.0);
            enc.put_u32(missing.len() as u32);
            for &s in missing {
                enc.put_u64(s);
            }
        }
        GroupMsg::Assign {
            group,
            view_id,
            assignments,
        } => {
            enc.put_u8(6);
            enc.put_u32(group.0);
            enc.put_u64(view_id.0);
            put_assignments(enc, assignments);
        }
        GroupMsg::AssignNack {
            group,
            view_id,
            from_global,
        } => {
            enc.put_u8(7);
            enc.put_u32(group.0);
            enc.put_u64(view_id.0);
            enc.put_u64(*from_global);
        }
        GroupMsg::JoinRequest { group, joiner } => {
            enc.put_u8(8);
            enc.put_u32(group.0);
            enc.put_u64(joiner.0);
        }
        GroupMsg::LeaveRequest { group, leaver } => {
            enc.put_u8(9);
            enc.put_u32(group.0);
            enc.put_u64(leaver.0);
        }
        GroupMsg::ViewProposal {
            group,
            proposal,
            leader,
        } => {
            enc.put_u8(10);
            enc.put_u32(group.0);
            put_view(enc, proposal);
            enc.put_u64(leader.0);
        }
        GroupMsg::FlushInfo {
            group,
            proposal_id,
            holdings,
        } => {
            enc.put_u8(11);
            enc.put_u32(group.0);
            enc.put_u64(proposal_id.0);
            put_pairs(enc, &holdings.contiguous);
            enc.put_u32(holdings.extras.len() as u32);
            for (m, seqs) in &holdings.extras {
                enc.put_u64(m.0);
                enc.put_u32(seqs.len() as u32);
                for &s in seqs {
                    enc.put_u64(s);
                }
            }
            put_assignments(enc, &holdings.assignments);
        }
        GroupMsg::FlushCut {
            group,
            proposal_id,
            cut,
            final_assignments,
        } => {
            enc.put_u8(12);
            enc.put_u32(group.0);
            enc.put_u64(proposal_id.0);
            put_pairs(enc, cut);
            put_assignments(enc, final_assignments);
        }
        GroupMsg::FlushDone { group, proposal_id } => {
            enc.put_u8(13);
            enc.put_u32(group.0);
            enc.put_u64(proposal_id.0);
        }
        GroupMsg::InstallView {
            group,
            view,
            causal_after,
            next_global,
        } => {
            enc.put_u8(14);
            enc.put_u32(group.0);
            put_view(enc, view);
            put_vclock(enc, causal_after);
            enc.put_u64(*next_global);
        }
    }
}

fn get_group_msg(dec: &mut Decoder) -> Result<GroupMsg, DecodeError> {
    match dec.get_u8()? {
        1 => Ok(GroupMsg::Data(get_data_msg(dec)?)),
        2 => {
            let group = GroupId(dec.get_u32()?);
            let n = dec.get_u32()? as usize;
            let mut msgs = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                msgs.push(get_data_msg(dec)?);
            }
            Ok(GroupMsg::DataBatch {
                group,
                msgs: Arc::new(msgs),
            })
        }
        3 => Ok(GroupMsg::Retransmit(get_data_msg(dec)?)),
        5 => {
            let group = GroupId(dec.get_u32()?);
            let sender = ProcessId(dec.get_u64()?);
            let n = dec.get_u32()? as usize;
            let mut missing = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                missing.push(dec.get_u64()?);
            }
            Ok(GroupMsg::Nack {
                group,
                sender,
                missing,
            })
        }
        6 => Ok(GroupMsg::Assign {
            group: GroupId(dec.get_u32()?),
            view_id: ViewId(dec.get_u64()?),
            assignments: Arc::new(get_assignments(dec)?),
        }),
        7 => Ok(GroupMsg::AssignNack {
            group: GroupId(dec.get_u32()?),
            view_id: ViewId(dec.get_u64()?),
            from_global: dec.get_u64()?,
        }),
        8 => Ok(GroupMsg::JoinRequest {
            group: GroupId(dec.get_u32()?),
            joiner: ProcessId(dec.get_u64()?),
        }),
        9 => Ok(GroupMsg::LeaveRequest {
            group: GroupId(dec.get_u32()?),
            leaver: ProcessId(dec.get_u64()?),
        }),
        10 => Ok(GroupMsg::ViewProposal {
            group: GroupId(dec.get_u32()?),
            proposal: get_view(dec)?,
            leader: ProcessId(dec.get_u64()?),
        }),
        11 => {
            let group = GroupId(dec.get_u32()?);
            let proposal_id = ViewId(dec.get_u64()?);
            let contiguous = get_pairs(dec)?;
            let n = dec.get_u32()? as usize;
            let mut extras = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let m = ProcessId(dec.get_u64()?);
                let k = dec.get_u32()? as usize;
                let mut seqs = Vec::with_capacity(k.min(4096));
                for _ in 0..k {
                    seqs.push(dec.get_u64()?);
                }
                extras.push((m, seqs));
            }
            let assignments = get_assignments(dec)?;
            Ok(GroupMsg::FlushInfo {
                group,
                proposal_id,
                holdings: FlushHoldings {
                    contiguous,
                    extras,
                    assignments,
                },
            })
        }
        12 => Ok(GroupMsg::FlushCut {
            group: GroupId(dec.get_u32()?),
            proposal_id: ViewId(dec.get_u64()?),
            cut: Arc::new(get_pairs(dec)?),
            final_assignments: Arc::new(get_assignments(dec)?),
        }),
        13 => Ok(GroupMsg::FlushDone {
            group: GroupId(dec.get_u32()?),
            proposal_id: ViewId(dec.get_u64()?),
        }),
        14 => Ok(GroupMsg::InstallView {
            group: GroupId(dec.get_u32()?),
            view: get_view(dec)?,
            causal_after: Arc::new(get_vclock(dec)?),
            next_global: dec.get_u64()?,
        }),
        other => Err(DecodeError::InvalidDiscriminant {
            what: "group message",
            tag: other as u64,
        }),
    }
}

fn put_process_heartbeat(enc: &mut Encoder, hb: &ProcessHeartbeat) {
    enc.put_u32(hb.sections.len() as u32);
    for s in &hb.sections {
        enc.put_u32(s.group.0);
        enc.put_u64(s.view_id.0);
        put_pairs(enc, &s.acks);
        enc.put_u64(s.delivered_global);
    }
}

fn get_process_heartbeat(dec: &mut Decoder) -> Result<ProcessHeartbeat, DecodeError> {
    let n = dec.get_u32()? as usize;
    let mut sections = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        sections.push(HeartbeatSection {
            group: GroupId(dec.get_u32()?),
            view_id: ViewId(dec.get_u64()?),
            acks: Arc::new(get_pairs(dec)?),
            delivered_global: dec.get_u64()?,
        });
    }
    Ok(ProcessHeartbeat { sections })
}

fn put_replica_command(enc: &mut Encoder, cmd: &ReplicaCommand) {
    match cmd {
        ReplicaCommand::Switch { group, style } => {
            enc.put_u8(0);
            enc.put_u32(group.0);
            enc.put_u8(style.to_tag());
        }
        ReplicaCommand::Leave { group } => {
            enc.put_u8(1);
            enc.put_u32(group.0);
        }
    }
}

fn get_replica_command(dec: &mut Decoder) -> Result<ReplicaCommand, DecodeError> {
    match dec.get_u8()? {
        0 => {
            let group = GroupId(dec.get_u32()?);
            let tag = dec.get_u8()?;
            let style =
                ReplicationStyle::from_tag(tag).ok_or(DecodeError::InvalidDiscriminant {
                    what: "replication style",
                    tag: tag as u64,
                })?;
            Ok(ReplicaCommand::Switch { group, style })
        }
        1 => Ok(ReplicaCommand::Leave {
            group: GroupId(dec.get_u32()?),
        }),
        other => Err(DecodeError::InvalidDiscriminant {
            what: "replica command",
            tag: other as u64,
        }),
    }
}

fn put_membership_report(enc: &mut Encoder, report: &MembershipReport) {
    enc.put_u32(report.group.0);
    enc.put_u64(report.replica.0);
    enc.put_u64(report.view_id);
    enc.put_u32(report.members.len() as u32);
    for &m in &report.members {
        enc.put_u64(m.0);
    }
    enc.put_u8(report.style.to_tag());
    enc.put_bool(report.synced);
}

fn get_membership_report(dec: &mut Decoder) -> Result<MembershipReport, DecodeError> {
    let group = GroupId(dec.get_u32()?);
    let replica = ProcessId(dec.get_u64()?);
    let view_id = dec.get_u64()?;
    let n = dec.get_u32()? as usize;
    let mut members = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        members.push(ProcessId(dec.get_u64()?));
    }
    let tag = dec.get_u8()?;
    let style = ReplicationStyle::from_tag(tag).ok_or(DecodeError::InvalidDiscriminant {
        what: "replication style",
        tag: tag as u64,
    })?;
    Ok(MembershipReport {
        group,
        replica,
        view_id,
        members,
        style,
        synced: dec.get_bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vd_orb::object::ObjectKey;
    use vd_orb::wire::{Reply, ReplyStatus, Request};

    fn ok<T>(r: Result<T, DecodeError>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("decode failed: {e:?}"),
        }
    }

    fn round_trip(payload: &dyn Payload) -> Frame {
        let bytes = match encode_frame(ProcessId(7), ProcessId(3), payload) {
            Some(b) => b,
            None => panic!("payload should be encodable"),
        };
        let frame = ok(decode_frame(bytes));
        assert_eq!(frame.to, ProcessId(7));
        assert_eq!(frame.from, ProcessId(3));
        frame
    }

    fn digest_survives(payload: &dyn Payload) {
        let frame = round_trip(payload);
        // The payload digest covers every behavior-relevant field, so a
        // digest match is a deep equality check without `PartialEq`.
        assert_eq!(frame.payload.digest(), payload.digest());
        assert!(payload.digest().is_some(), "fixture must have a digest");
    }

    fn sample_data(seq: Option<u64>, order: DeliveryOrder, vclock: bool) -> DataMsg {
        let mut vc = VectorClock::new();
        vc.set(ProcessId(1), 4);
        vc.set(ProcessId(2), 9);
        DataMsg {
            group: GroupId(5),
            view_id: ViewId(3),
            sender: ProcessId(2),
            seq,
            order,
            vclock: vclock.then(|| Arc::new(vc)),
            payload: Bytes::from_static(b"versatile"),
        }
    }

    #[test]
    fn every_group_msg_variant_round_trips() {
        let view = View::new(ViewId(9), vec![ProcessId(1), ProcessId(2), ProcessId(4)]);
        let mut causal = VectorClock::new();
        causal.set(ProcessId(4), 17);
        let assignments = vec![
            Assignment {
                global_seq: 10,
                sender: ProcessId(1),
                seq: 5,
            },
            Assignment {
                global_seq: 11,
                sender: ProcessId(2),
                seq: 1,
            },
        ];
        let msgs: Vec<GroupMsg> = vec![
            GroupMsg::Data(sample_data(Some(8), DeliveryOrder::Agreed, false)),
            GroupMsg::DataBatch {
                group: GroupId(5),
                msgs: Arc::new(vec![
                    sample_data(Some(1), DeliveryOrder::Fifo, false),
                    sample_data(Some(2), DeliveryOrder::Causal, true),
                ]),
            },
            GroupMsg::Retransmit(sample_data(None, DeliveryOrder::BestEffort, false)),
            GroupMsg::Nack {
                group: GroupId(5),
                sender: ProcessId(2),
                missing: vec![3, 4, 9],
            },
            GroupMsg::Assign {
                group: GroupId(5),
                view_id: ViewId(3),
                assignments: Arc::new(assignments.clone()),
            },
            GroupMsg::AssignNack {
                group: GroupId(5),
                view_id: ViewId(3),
                from_global: 12,
            },
            GroupMsg::JoinRequest {
                group: GroupId(5),
                joiner: ProcessId(9),
            },
            GroupMsg::LeaveRequest {
                group: GroupId(5),
                leaver: ProcessId(4),
            },
            GroupMsg::ViewProposal {
                group: GroupId(5),
                proposal: view.clone(),
                leader: ProcessId(1),
            },
            GroupMsg::FlushInfo {
                group: GroupId(5),
                proposal_id: ViewId(9),
                holdings: FlushHoldings {
                    contiguous: vec![(ProcessId(1), 7)],
                    extras: vec![(ProcessId(2), vec![11, 13])],
                    assignments: assignments.clone(),
                },
            },
            GroupMsg::FlushCut {
                group: GroupId(5),
                proposal_id: ViewId(9),
                cut: Arc::new(vec![(ProcessId(1), 7), (ProcessId(2), 9)]),
                final_assignments: Arc::new(assignments),
            },
            GroupMsg::FlushDone {
                group: GroupId(5),
                proposal_id: ViewId(9),
            },
            GroupMsg::InstallView {
                group: GroupId(5),
                view,
                causal_after: Arc::new(causal),
                next_global: 23,
            },
        ];
        for msg in &msgs {
            digest_survives(msg);
        }
    }

    #[test]
    fn process_heartbeat_round_trips() {
        let hb = ProcessHeartbeat {
            sections: vec![HeartbeatSection {
                group: GroupId(2),
                view_id: ViewId(6),
                acks: Arc::new(vec![(ProcessId(3), 14)]),
                delivered_global: 5,
            }],
        };
        digest_survives(&hb);
    }

    #[test]
    fn orb_frames_round_trip() {
        let request = OrbMessage::Request(Request {
            request_id: 42,
            object_key: ObjectKey::new("counter"),
            operation: "increment".into(),
            args: Bytes::from_static(&[1, 2, 3]),
            response_expected: true,
        });
        let reply = OrbMessage::Reply(Reply {
            request_id: 42,
            status: ReplyStatus::NoException,
            body: Bytes::from_static(&[9]),
        });
        digest_survives(&request);
        digest_survives(&reply);
    }

    #[test]
    fn replicator_control_payloads_round_trip() {
        digest_survives(&ReplyLogAck {
            group: GroupId(1),
            client: ProcessId(100),
            request_id: 8,
        });
        digest_survives(&ReplicaCommand::Switch {
            group: GroupId(1),
            style: ReplicationStyle::WarmPassive,
        });
        digest_survives(&ReplicaCommand::Leave { group: GroupId(1) });
    }

    #[test]
    fn recovery_payloads_round_trip() {
        digest_survives(&MembershipReport {
            group: GroupId(1),
            replica: ProcessId(2),
            view_id: 4,
            members: vec![ProcessId(1), ProcessId(2), ProcessId(3)],
            style: ReplicationStyle::Active,
            synced: true,
        });
        digest_survives(&SuspicionNotice {
            group: GroupId(1),
            replica: ProcessId(2),
            suspicions: 3,
        });
        digest_survives(&DirectiveNotice {
            group: GroupId(1),
            replica: ProcessId(2),
            add: true,
            observed_replicas: 2,
        });
        digest_survives(&ManagerHeartbeat { rank: 1 });
    }

    #[test]
    fn simulator_only_payloads_are_refused() {
        // Harness commands exist only inside the simulator; the real
        // transport refuses them instead of inventing a wire format.
        let cmd = vd_group::sim::MultiCommand::Leave { group: GroupId(1) };
        assert!(encode_frame(ProcessId(1), ProcessId(2), &cmd).is_none());
    }

    #[test]
    fn retired_group_heartbeat_tag_is_rejected() {
        let msg = GroupMsg::FlushDone {
            group: GroupId(0),
            proposal_id: ViewId(1),
        };
        let bytes = match encode_frame(ProcessId(1), ProcessId(2), &msg) {
            Some(b) => b,
            None => panic!("group messages encode"),
        };
        // Magic, destination and source, then the payload kind: the group
        // message's variant tag follows at byte 21.
        let mut retagged = bytes.to_vec();
        assert_eq!(retagged[21], 13, "FlushDone tag");
        retagged[21] = 4;
        assert!(decode_frame(Bytes::from(retagged)).is_err());
    }

    #[test]
    fn bad_magic_and_truncation_are_errors() {
        let msg = GroupMsg::FlushDone {
            group: GroupId(0),
            proposal_id: ViewId(1),
        };
        let bytes = match encode_frame(ProcessId(1), ProcessId(2), &msg) {
            Some(b) => b,
            None => panic!("group messages encode"),
        };
        let mut corrupt = bytes.to_vec();
        corrupt[0] = b'X';
        assert!(decode_frame(Bytes::from(corrupt)).is_err());
        let truncated = bytes.slice(0..bytes.len() - 1);
        assert!(decode_frame(truncated).is_err());
    }
}
