//! A dependent of vd-bench chooses its own global allocator: the library
//! declares none, so a binary that declares one links. This test binary
//! declares the system allocator and runs a test-bed on it.

use std::alloc::System;

use vd_bench::testbed::{build_replicated, TestbedConfig};
use vd_simnet::time::SimDuration;

#[global_allocator]
static GLOBAL: System = System;

#[test]
fn a_dependent_declares_its_own_global_allocator() {
    let mut bed = build_replicated(&TestbedConfig {
        requests_per_client: 20,
        ..TestbedConfig::default()
    });
    bed.world.run_for(SimDuration::from_secs(1));
    assert_eq!(bed.total_completed(), 20);
}
