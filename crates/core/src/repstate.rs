//! The replicator's identically-replicated system-information object.
//!
//! Paper §3.1, *Replicated State*: each replicator instance maintains,
//! through the group-communication layer, an identical object describing
//! the whole system — membership, resource availability, performance
//! metrics. Adaptation decisions are made by a deterministic algorithm over
//! this agreed state, so every instance reaches the same decision without
//! any extra coordination round.
//!
//! Here the board is fed by `MonitorReport` messages multicast in *agreed*
//! order: every replica applies the same reports in the same sequence, so
//! the boards are bit-identical.

use std::collections::BTreeMap;

use vd_simnet::time::SimTime;
use vd_simnet::topology::ProcessId;

/// The last agreed report from one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaInfo {
    /// Request arrival rate at that replica, requests/second.
    pub request_rate: f64,
    /// Mean service latency at that replica, µs.
    pub latency_micros: f64,
    /// Outbound bandwidth at that replica, bytes/second.
    pub bandwidth_bps: f64,
    /// When the report was generated (sender's clock).
    pub reported_at: SimTime,
}

/// The deterministic, group-wide system-state board.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemBoard {
    replicas: BTreeMap<ProcessId, ReplicaInfo>,
}

impl SystemBoard {
    /// An empty board.
    pub fn new() -> Self {
        SystemBoard::default()
    }

    /// Applies an agreed monitoring report.
    pub fn apply_report(
        &mut self,
        replica: ProcessId,
        request_rate: f64,
        latency_micros: f64,
        bandwidth_bps: f64,
        reported_at: SimTime,
    ) {
        self.replicas.insert(
            replica,
            ReplicaInfo {
                request_rate,
                latency_micros,
                bandwidth_bps,
                reported_at,
            },
        );
    }

    /// Removes state for replicas that left the view.
    pub fn retain_members(&mut self, members: &[ProcessId]) {
        self.replicas.retain(|r, _| members.contains(r));
    }

    /// The last report from `replica`, if any.
    pub fn info(&self, replica: ProcessId) -> Option<&ReplicaInfo> {
        self.replicas.get(&replica)
    }

    /// Number of replicas with state on the board.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// `true` when no replica has reported yet.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The maximum reported request rate — the group-level load signal the
    /// Fig. 6 adaptation uses (any replica seeing high load is enough).
    pub fn max_request_rate(&self) -> f64 {
        self.replicas
            .values()
            .map(|i| i.request_rate)
            .fold(0.0, f64::max)
    }

    /// The mean reported service latency across replicas.
    pub fn mean_latency_micros(&self) -> f64 {
        if self.replicas.is_empty() {
            return 0.0;
        }
        self.replicas
            .values()
            .map(|i| i.latency_micros)
            .sum::<f64>()
            / self.replicas.len() as f64
    }

    /// Total reported bandwidth across replicas, bytes/second.
    pub fn total_bandwidth_bps(&self) -> f64 {
        self.replicas.values().map(|i| i.bandwidth_bps).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> ProcessId {
        ProcessId(n)
    }

    #[test]
    fn identical_report_sequences_give_identical_boards() {
        let reports = [
            (p(1), 100.0, 900.0, 1e6),
            (p(2), 150.0, 1100.0, 2e6),
            (p(1), 120.0, 950.0, 1.5e6),
        ];
        let mut a = SystemBoard::new();
        let mut b = SystemBoard::new();
        for &(r, rate, lat, bw) in &reports {
            a.apply_report(r, rate, lat, bw, SimTime::ZERO);
            b.apply_report(r, rate, lat, bw, SimTime::ZERO);
        }
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.info(p(1)).unwrap().request_rate, 120.0);
    }

    #[test]
    fn aggregates_reflect_all_replicas() {
        let mut board = SystemBoard::new();
        board.apply_report(p(1), 100.0, 1000.0, 1e6, SimTime::ZERO);
        board.apply_report(p(2), 300.0, 3000.0, 2e6, SimTime::ZERO);
        assert_eq!(board.max_request_rate(), 300.0);
        assert_eq!(board.mean_latency_micros(), 2000.0);
        assert_eq!(board.total_bandwidth_bps(), 3e6);
    }

    #[test]
    fn departed_replicas_are_pruned() {
        let mut board = SystemBoard::new();
        board.apply_report(p(1), 1.0, 1.0, 1.0, SimTime::ZERO);
        board.apply_report(p(2), 2.0, 2.0, 2.0, SimTime::ZERO);
        board.retain_members(&[p(2)]);
        assert!(board.info(p(1)).is_none());
        assert_eq!(board.len(), 1);
    }

    #[test]
    fn empty_board_aggregates_are_zero() {
        let board = SystemBoard::new();
        assert!(board.is_empty());
        assert_eq!(board.max_request_rate(), 0.0);
        assert_eq!(board.mean_latency_micros(), 0.0);
    }
}
