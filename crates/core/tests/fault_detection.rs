//! Fault-detection-time accounting, end to end: the process-level
//! failure detector (a [`MultiEndpoint`], exactly as every replica hosts
//! its groups) measures the silence that triggered each suspicion into
//! `group.fault_detection_us`, and the monitor surfaces the measured
//! mean as `Observations::fault_detection_micros` (the paper's Table 1
//! "fault detection time" property, fed by real measurements rather
//! than the configured timeout).
//!
//! The analytic bound: with heartbeats every `H` and a silence timeout
//! of `T`, the failure check also runs every `H`, so a crash right
//! after a heartbeat is detected after more than `T` but no later than
//! `T + H` of silence. Each scenario here checks the measured latency
//! lands inside that window. The peer's heartbeats arrive on a regular
//! cadence, so the adaptive detector's dead threshold sits at its floor,
//! the configured timeout.

use std::sync::Arc;

use vd_core::monitor::Monitor;
use vd_group::prelude::*;
use vd_obs::{Ctr, Hist, Obs};
use vd_simnet::time::{SimDuration, SimTime};
use vd_simnet::topology::ProcessId;

/// The single group under test — named once, threaded everywhere below.
const GROUP: GroupId = GroupId(1);

/// Runs a two-member group where the peer heartbeats for a while and
/// then goes silent; returns the silence the survivor measured at
/// suspicion time, in µs.
fn measured_detection_us(heartbeat_ms: u64, timeout_ms: u64) -> u64 {
    let hb = SimDuration::from_millis(heartbeat_ms);
    let config = GroupConfig::default()
        .heartbeat_interval(hb)
        .failure_timeout(SimDuration::from_millis(timeout_ms));
    let members = vec![ProcessId(1), ProcessId(2)];
    let mut endpoint = Endpoint::bootstrap(ProcessId(1), GROUP, config, members);
    let view_id = endpoint.view().id();
    let obs = Obs::enabled();
    // Suspicions land on the endpoint's handle, heartbeat counters on the
    // process's: share one registry, as a replica does.
    endpoint.set_obs(obs.clone());
    let mut survivor = MultiEndpoint::new(ProcessId(1), hb, config.failure_timeout);
    survivor.set_obs(obs.clone());
    survivor.add_endpoint(endpoint);
    let _ = survivor.start(SimTime::ZERO);

    // The peer's last heartbeat lands at `crash`; afterwards it is silent.
    let crash = SimTime::ZERO + SimDuration::from_millis(10 * heartbeat_ms);
    let deadline = crash + SimDuration::from_millis(timeout_ms + 4 * heartbeat_ms);
    let mut now = SimTime::ZERO;
    while obs.metrics.counter(Ctr::GroupSuspicions) == 0 {
        now += hb;
        assert!(
            now <= deadline,
            "no suspicion by {now:?} (hb={heartbeat_ms}ms timeout={timeout_ms}ms)"
        );
        if now <= crash {
            survivor.handle_heartbeat(
                now,
                ProcessId(2),
                &ProcessHeartbeat {
                    sections: vec![HeartbeatSection {
                        group: GROUP,
                        view_id,
                        acks: Arc::new(Vec::new()),
                        delivered_global: 0,
                    }],
                },
            );
        }
        let _ = survivor.handle_timer(now, MultiTimer::Heartbeat);
        let _ = survivor.handle_timer(now, MultiTimer::FailureCheck);
    }

    let fd = obs.metrics.hist(Hist::FaultDetectionUs);
    assert_eq!(fd.count, 1, "exactly one suspicion expected");

    // The monitor reports the same measurement through its snapshot.
    let mut monitor = Monitor::new(SimDuration::from_secs(1));
    monitor.ingest_registry(now, &obs.metrics);
    let observed = monitor.observe(now);
    assert_eq!(
        observed.fault_detection_micros,
        fd.mean(),
        "monitor must surface the registry's measured detection latency"
    );

    fd.max
}

#[test]
fn detection_latency_stays_within_one_heartbeat_of_the_timeout() {
    // (heartbeat_interval ms, failure_timeout ms) — including a pair
    // where the timeout is not a multiple of the heartbeat period.
    for (hb_ms, to_ms) in [(10, 50), (5, 30), (20, 60), (7, 23), (50, 200)] {
        let measured = measured_detection_us(hb_ms, to_ms);
        let timeout_us = to_ms * 1_000;
        let bound_us = (to_ms + hb_ms) * 1_000;
        assert!(
            measured > timeout_us,
            "hb={hb_ms}ms to={to_ms}ms: measured {measured}µs \
             must exceed the configured timeout {timeout_us}µs"
        );
        assert!(
            measured <= bound_us,
            "hb={hb_ms}ms to={to_ms}ms: measured {measured}µs exceeds \
             the analytic bound timeout + heartbeat = {bound_us}µs"
        );
    }
}

#[test]
fn shorter_heartbeats_tighten_detection_for_a_fixed_timeout() {
    let coarse = measured_detection_us(25, 100);
    let fine = measured_detection_us(5, 100);
    assert!(
        fine <= coarse,
        "5ms heartbeats ({fine}µs) should detect no later than 25ms ones ({coarse}µs)"
    );
}
