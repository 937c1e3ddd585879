//! Process-level multiplexing of several group endpoints.
//!
//! The paper's scalability knob distributes *object groups* across nodes:
//! one daemon process hosts many groups. Naively running one [`Endpoint`]
//! per group multiplies the failure-detection traffic by the number of
//! co-located groups, even though liveness is a property of the *process*,
//! not the group. [`MultiEndpoint`] therefore owns exactly one failure
//! detector per process pair: a single [`ProcessHeartbeat`] frame per peer
//! per interval carries one [`HeartbeatSection`] for every group the two
//! processes share, and a raised suspicion is fanned out to every
//! co-located group containing the silent peer.
//!
//! Everything group-scoped — views, ordering, vector clocks, batches,
//! flushes — stays per-group inside the wrapped [`Endpoint`]s. This is the
//! only host of an `Endpoint` and the only failure detector: a process
//! serving a single group runs a one-group `MultiEndpoint`. Like
//! `Endpoint`, the multiplexer is sans-IO: hosts perform the returned
//! [`MultiOutput`]s.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;

use vd_obs::{Ctr, EventKind, Gauge, Obs, ObsHandle};
use vd_simnet::actor::Payload;
use vd_simnet::time::{SimDuration, SimTime};
use vd_simnet::topology::ProcessId;

use crate::api::{GroupEvent, GroupTimer, Output};
use crate::detector::{DetectorConfig, PairDetector, PeerVerdict};
use crate::endpoint::{Endpoint, MulticastError};
use crate::message::{GroupId, GroupMsg, HEADER_BYTES, PAIR_BYTES};
use crate::order::DeliveryOrder;
use crate::view::ViewId;

/// The per-group slice of a [`ProcessHeartbeat`]: the group's
/// acknowledgement vector and agreed-order position, as reported by
/// [`Endpoint::heartbeat_section`] and applied by
/// [`Endpoint::apply_heartbeat`].
#[derive(Debug, Clone)]
pub struct HeartbeatSection {
    /// The group this section belongs to.
    pub group: GroupId,
    /// Sender's current view of that group.
    pub view_id: ViewId,
    /// For each sender: highest contiguously-received sequence number.
    /// Shared (not copied) across the per-peer heartbeat fan-out.
    pub acks: Arc<Vec<(ProcessId, u64)>>,
    /// The sender's delivered position in the group's agreed total order.
    pub delivered_global: u64,
}

/// One process-level heartbeat frame: liveness for the process pair plus a
/// section per shared group, so heartbeat traffic does not scale with the
/// number of co-located groups.
#[derive(Debug, Clone)]
pub struct ProcessHeartbeat {
    /// One section per group the sender shares with the destination.
    pub sections: Vec<HeartbeatSection>,
}

impl Payload for ProcessHeartbeat {
    fn wire_size(&self) -> usize {
        HEADER_BYTES
            + self
                .sections
                .iter()
                .map(|s| 8 + s.acks.len() * PAIR_BYTES + 8)
                .sum::<usize>()
    }

    fn digest(&self) -> Option<u64> {
        let mut h = vd_simnet::explore::Fnv64::new();
        for s in &self.sections {
            h.write_u64(u64::from(s.group.0));
            h.write_u64(s.view_id.0);
            for &(m, a) in s.acks.iter() {
                h.write_u64(m.0);
                h.write_u64(a);
            }
            h.write_u64(s.delivered_global);
        }
        Some(h.finish())
    }
}

/// A timer owned by a [`MultiEndpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiTimer {
    /// The process-level heartbeat round (one frame per peer process).
    Heartbeat,
    /// The process-level failure check.
    FailureCheck,
    /// A protocol timer of one hosted group.
    Group(GroupId, GroupTimer),
}

/// An effect the host must perform for a [`MultiEndpoint`].
#[derive(Debug)]
pub enum MultiOutput {
    /// Send a group-protocol message to a peer process.
    Send {
        /// Destination process.
        to: ProcessId,
        /// The message (routes by its group tag at the receiver).
        msg: GroupMsg,
    },
    /// Send a process-level heartbeat frame to a peer process.
    Heartbeat {
        /// Destination process.
        to: ProcessId,
        /// The sectioned frame.
        msg: ProcessHeartbeat,
    },
    /// Surface a group event to the application layer.
    Event {
        /// The group the event belongs to.
        group: GroupId,
        /// The event.
        event: GroupEvent,
    },
    /// Arm a one-shot timer.
    SetTimer {
        /// Delay from now.
        delay: SimDuration,
        /// Which timer to deliver back via [`MultiEndpoint::handle_timer`].
        timer: MultiTimer,
    },
}

/// Hosts any number of group [`Endpoint`]s behind one shared process-level
/// failure detector (see module docs).
#[derive(Debug)]
pub struct MultiEndpoint {
    me: ProcessId,
    heartbeat_interval: SimDuration,
    failure_timeout: SimDuration,
    groups: BTreeMap<GroupId, Endpoint>,
    last_heard: BTreeMap<ProcessId, SimTime>,
    suspected: BTreeSet<ProcessId>,
    detector_config: DetectorConfig,
    detectors: BTreeMap<ProcessId, PairDetector>,
    laggards: BTreeSet<ProcessId>,
    /// Laggards whose silence has already crossed the base (fixed)
    /// timeout — peers a fixed-timeout detector would have evicted.
    held: BTreeSet<ProcessId>,
    /// Cumulative failure-check rounds in which a fixed-timeout
    /// suspicion was suppressed (mirrors `Ctr::GroupSuspicionsHeld`).
    held_total: u64,
    scores_milli: BTreeMap<ProcessId, u64>,
    obs: ObsHandle,
    now_us: u64,
}

impl MultiEndpoint {
    /// Creates an empty multiplexer for process `me`. The heartbeat interval
    /// and failure timeout are process-wide (hosts typically pass the
    /// tightest of the co-located groups' fault-monitoring knobs).
    pub fn new(
        me: ProcessId,
        heartbeat_interval: SimDuration,
        failure_timeout: SimDuration,
    ) -> Self {
        MultiEndpoint {
            me,
            heartbeat_interval,
            failure_timeout,
            groups: BTreeMap::new(),
            last_heard: BTreeMap::new(),
            suspected: BTreeSet::new(),
            detector_config: DetectorConfig::new(failure_timeout),
            detectors: BTreeMap::new(),
            laggards: BTreeSet::new(),
            held: BTreeSet::new(),
            held_total: 0,
            scores_milli: BTreeMap::new(),
            obs: Obs::disabled(),
            now_us: 0,
        }
    }

    /// Overrides the adaptive slow-vs-dead detector tunables (defaults
    /// derive from the failure timeout via [`DetectorConfig::new`]).
    pub fn set_detector_config(&mut self, cfg: DetectorConfig) {
        self.detector_config = cfg;
    }

    /// Attaches the process-level observability endpoint. Heartbeat
    /// counters land here and only here: `group.heartbeats_sent` once per
    /// round, `group.heartbeats_recv` once per frame received, independent
    /// of group count. Per-group counters stay on each endpoint's handle.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Adds a group endpoint (must belong to this process). Add every group
    /// before calling [`MultiEndpoint::start`].
    pub fn add_endpoint(&mut self, endpoint: Endpoint) {
        debug_assert_eq!(
            endpoint.me(),
            self.me,
            "endpoint belongs to another process"
        );
        self.groups.insert(endpoint.group(), endpoint);
    }

    // ---- accessors ---------------------------------------------------------

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The endpoint of one hosted group.
    pub fn group(&self, id: GroupId) -> Option<&Endpoint> {
        self.groups.get(&id)
    }

    /// Mutable access to the endpoint of one hosted group.
    pub fn group_mut(&mut self, id: GroupId) -> Option<&mut Endpoint> {
        self.groups.get_mut(&id)
    }

    /// The hosted group ids, ascending.
    pub fn group_ids(&self) -> Vec<GroupId> {
        self.groups.keys().copied().collect()
    }

    /// Iterates over the hosted endpoints.
    pub fn endpoints(&self) -> impl Iterator<Item = &Endpoint> {
        self.groups.values()
    }

    /// Peers currently suspected by the process-level failure detector.
    pub fn suspected(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.suspected.iter().copied()
    }

    /// Peers currently classified alive-but-laggard (gray failure).
    pub fn laggards(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.laggards.iter().copied()
    }

    /// The detector's current verdict on one peer, as of the last
    /// failure-check round.
    pub fn verdict_of(&self, peer: ProcessId) -> PeerVerdict {
        if self.suspected.contains(&peer) {
            PeerVerdict::SuspectedDead
        } else if self.laggards.contains(&peer) {
            PeerVerdict::Laggard
        } else {
            PeerVerdict::Alive
        }
    }

    /// The peer's suspicion score at the last failure-check round, in
    /// milli-units (z-score × 1000). 0 for unknown peers.
    pub fn suspicion_score_milli(&self, peer: ProcessId) -> u64 {
        self.scores_milli.get(&peer).copied().unwrap_or(0)
    }

    /// Cumulative failure-check rounds in which the adaptive detector
    /// held a suspicion a fixed-timeout detector would have raised.
    pub fn suspicions_held(&self) -> u64 {
        self.held_total
    }

    // ---- lifecycle ---------------------------------------------------------

    /// Starts every hosted endpoint and arms the process-level heartbeat and
    /// failure-check timers. Call exactly once.
    pub fn start(&mut self, now: SimTime) -> Vec<MultiOutput> {
        self.now_us = now.as_micros();
        let mut out = Vec::new();
        for (gid, ep) in &mut self.groups {
            let outputs = ep.start(now);
            translate(*gid, outputs, &mut out);
        }
        for peer in self.peer_union() {
            self.last_heard.insert(peer, now);
        }
        out.push(MultiOutput::SetTimer {
            delay: self.heartbeat_interval,
            timer: MultiTimer::Heartbeat,
        });
        out.push(MultiOutput::SetTimer {
            delay: self.heartbeat_interval,
            timer: MultiTimer::FailureCheck,
        });
        out
    }

    /// Multicasts `payload` in `group` with the requested guarantee.
    ///
    /// # Errors
    ///
    /// [`MulticastError::NotMember`] if the group is not hosted here or its
    /// endpoint is not (or no longer) a member.
    pub fn multicast(
        &mut self,
        now: SimTime,
        group: GroupId,
        order: DeliveryOrder,
        payload: Bytes,
    ) -> Result<Vec<MultiOutput>, MulticastError> {
        let ep = self
            .groups
            .get_mut(&group)
            .ok_or(MulticastError::NotMember)?;
        let outputs = ep.multicast(now, order, payload)?;
        let mut out = Vec::new();
        translate(group, outputs, &mut out);
        Ok(out)
    }

    /// Announces a graceful departure from one hosted group.
    pub fn leave(&mut self, now: SimTime, group: GroupId) -> Vec<MultiOutput> {
        let mut out = Vec::new();
        if let Some(ep) = self.groups.get_mut(&group) {
            let outputs = ep.leave(now);
            translate(group, outputs, &mut out);
        }
        out
    }

    // ---- inputs ------------------------------------------------------------

    /// Processes a group-protocol message from peer process `from`, routing
    /// it to the tagged group. Any group traffic also counts as liveness
    /// for the process-level detector.
    pub fn handle_message(
        &mut self,
        now: SimTime,
        from: ProcessId,
        msg: GroupMsg,
    ) -> Vec<MultiOutput> {
        self.now_us = now.as_micros();
        self.last_heard.insert(from, now);
        let mut out = Vec::new();
        let group = msg.group();
        if let Some(ep) = self.groups.get_mut(&group) {
            let outputs = ep.handle_message(now, from, msg);
            translate(group, outputs, &mut out);
        }
        out
    }

    /// Processes a process-level heartbeat from peer `from`: refreshes the
    /// shared liveness record and applies each section to its group.
    pub fn handle_heartbeat(&mut self, now: SimTime, from: ProcessId, hb: &ProcessHeartbeat) {
        self.now_us = now.as_micros();
        self.last_heard.insert(from, now);
        // Heartbeats are the periodic signal the adaptive detector
        // learns from; irregular data traffic only refreshes liveness.
        self.detectors
            .entry(from)
            .or_insert_with(|| PairDetector::new(self.detector_config))
            .record_arrival(now);
        self.obs.metrics.incr(Ctr::GroupHeartbeatsRecv);
        for section in &hb.sections {
            if let Some(ep) = self.groups.get_mut(&section.group) {
                ep.apply_heartbeat(now, from, section);
            }
        }
    }

    /// Processes a timer previously requested via [`MultiOutput::SetTimer`].
    pub fn handle_timer(&mut self, now: SimTime, timer: MultiTimer) -> Vec<MultiOutput> {
        self.now_us = now.as_micros();
        let mut out = Vec::new();
        match timer {
            MultiTimer::Heartbeat => {
                out.push(MultiOutput::SetTimer {
                    delay: self.heartbeat_interval,
                    timer: MultiTimer::Heartbeat,
                });
                self.heartbeat_round(&mut out);
            }
            MultiTimer::FailureCheck => {
                out.push(MultiOutput::SetTimer {
                    delay: self.heartbeat_interval,
                    timer: MultiTimer::FailureCheck,
                });
                self.failure_round(now, &mut out);
            }
            MultiTimer::Group(group, t) => {
                if let Some(ep) = self.groups.get_mut(&group) {
                    let outputs = ep.handle_timer(now, t);
                    translate(group, outputs, &mut out);
                }
            }
        }
        out
    }

    // ---- the shared failure detector ---------------------------------------

    /// Every peer process appearing in some hosted group's view.
    fn peer_union(&self) -> BTreeSet<ProcessId> {
        let mut peers = BTreeSet::new();
        for ep in self.groups.values() {
            if ep.is_member() {
                peers.extend(
                    ep.view()
                        .members()
                        .iter()
                        .copied()
                        .filter(|&m| m != self.me),
                );
            }
        }
        peers
    }

    /// One heartbeat round: a single sectioned frame per peer process,
    /// whatever the number of shared groups.
    fn heartbeat_round(&mut self, out: &mut Vec<MultiOutput>) {
        let mut per_peer: BTreeMap<ProcessId, Vec<HeartbeatSection>> = BTreeMap::new();
        let mut member_anywhere = false;
        for ep in self.groups.values() {
            let Some(section) = ep.heartbeat_section() else {
                continue;
            };
            member_anywhere = true;
            for &m in ep.view().members() {
                if m != self.me {
                    per_peer.entry(m).or_default().push(section.clone());
                }
            }
        }
        if !member_anywhere {
            return;
        }
        for (peer, sections) in per_peer {
            out.push(MultiOutput::Heartbeat {
                to: peer,
                msg: ProcessHeartbeat { sections },
            });
        }
        // One logical heartbeat per round — the counter must not scale with
        // the number of co-located groups.
        self.obs.metrics.incr(Ctr::GroupHeartbeatsSent);
        self.obs
            .emit(self.now_us, self.me.0, EventKind::HeartbeatSent);
    }

    /// One failure-detection round over the union of all hosted views,
    /// applying the adaptive slow-vs-dead verdict per peer (see
    /// [`crate::detector`]). A raised suspicion fans out into every
    /// co-located group containing the silent peer; a laggard verdict is
    /// surfaced as telemetry for the policy layer instead of an eviction.
    fn failure_round(&mut self, now: SimTime, out: &mut Vec<MultiOutput>) {
        let peers = self.peer_union();
        self.suspected.retain(|p| peers.contains(p));
        self.last_heard.retain(|p, _| peers.contains(p));
        self.detectors.retain(|p, _| peers.contains(p));
        self.laggards.retain(|p| peers.contains(p));
        self.held.retain(|p| peers.contains(p));
        self.scores_milli.retain(|p, _| peers.contains(p));
        let mut worst_milli = 0u64;
        for peer in peers {
            if self.suspected.contains(&peer) {
                continue;
            }
            let heard = *self.last_heard.entry(peer).or_insert(now);
            let silence = now.duration_since(heard);
            let silence_us = silence.as_micros();
            let det = self
                .detectors
                .entry(peer)
                .or_insert_with(|| PairDetector::new(self.detector_config));
            let verdict = det.verdict(silence_us);
            let score_milli = (det.score(silence_us) * 1000.0) as u64;
            self.scores_milli.insert(peer, score_milli);
            worst_milli = worst_milli.max(score_milli);
            match verdict {
                PeerVerdict::SuspectedDead => {
                    self.suspected.insert(peer);
                    self.laggards.remove(&peer);
                    self.held.remove(&peer);
                    for (gid, ep) in &mut self.groups {
                        let outputs = ep.inject_suspicion(now, peer, silence_us);
                        translate(*gid, outputs, out);
                    }
                }
                PeerVerdict::Laggard => {
                    if self.laggards.insert(peer) {
                        self.obs.metrics.incr(Ctr::GroupLaggards);
                        self.obs.emit(
                            self.now_us,
                            self.me.0,
                            EventKind::LaggardDetected {
                                peer: peer.0,
                                score_milli,
                            },
                        );
                    }
                    if silence > self.failure_timeout {
                        self.held_total += 1;
                        self.obs.metrics.incr(Ctr::GroupSuspicionsHeld);
                        if self.held.insert(peer) {
                            self.obs.emit(
                                self.now_us,
                                self.me.0,
                                EventKind::SuspicionHeld {
                                    peer: peer.0,
                                    silence_us,
                                },
                            );
                        }
                    }
                }
                PeerVerdict::Alive => {
                    if self.laggards.remove(&peer) {
                        self.obs.emit(
                            self.now_us,
                            self.me.0,
                            EventKind::LaggardCleared { peer: peer.0 },
                        );
                    }
                    self.held.remove(&peer);
                }
            }
        }
        self.obs
            .metrics
            .gauge_set(Gauge::GroupSuspicionScore, worst_milli);
    }

    // ---- exploration support ----------------------------------------------

    /// Digest of the multiplexer's state for interleaving exploration: every
    /// hosted endpoint's full protocol digest plus the shared
    /// failure-detector state. The heartbeat/failure intervals are immutable
    /// config and `obs`/`now_us` are telemetry-blind, so they are excluded.
    pub fn state_digest(&self) -> u64 {
        let mut h = vd_simnet::explore::Fnv64::new();
        h.write_u64(self.me.0);
        for (gid, ep) in &self.groups {
            h.write_u64(u64::from(gid.0));
            h.write_u64(ep.state_digest());
        }
        for (&p, &t) in &self.last_heard {
            h.write_u64(p.0);
            h.write_u64(t.as_micros());
        }
        for &p in &self.suspected {
            h.write_u64(p.0);
        }
        for (&p, det) in &self.detectors {
            h.write_u64(p.0);
            det.fold_digest(&mut h);
        }
        for &p in &self.laggards {
            h.write_u64(p.0);
        }
        for &p in &self.held {
            h.write_u64(p.0);
        }
        h.write_u64(self.held_total);
        h.finish()
    }
}

/// Lifts single-group endpoint outputs into the multiplexed output space.
fn translate(group: GroupId, outputs: Vec<Output>, out: &mut Vec<MultiOutput>) {
    for output in outputs {
        out.push(match output {
            Output::Send { to, msg } => MultiOutput::Send { to, msg },
            Output::Event(event) => MultiOutput::Event { group, event },
            Output::SetTimer { delay, timer } => MultiOutput::SetTimer {
                delay,
                timer: MultiTimer::Group(group, timer),
            },
        });
    }
}
