//! Fault-injection scenario producers: migrations under degraded and
//! failing conditions.
//!
//! The paper's hybrid scheme exists because migrations run under
//! hostile conditions — contended links, long storage transfers,
//! I/O-intensive guests. These scenarios put the simulator in exactly
//! those conditions and pin the recovery contract:
//!
//! * [`dest_crash_spec`] — a mid-transfer destination crash: the job
//!   must fail with `DestinationCrashed`, and the guest must keep
//!   running (and finish its workload) at the source.
//! * [`degraded_link_spec`] — a link-degradation window plus a transfer
//!   stall across a live migration: the migration must *complete*,
//!   consistently, resuming from the surviving chunk manifest.
//! * [`deadline_spec`] — a deadline far too tight for the image: the
//!   job must abort with `DeadlineExceeded` and partial progress.
//!
//! Each is checked in under `scenarios/` (byte-identity-tested against
//! these producers, like `scale64.toml`) so the same runs are
//! reproducible from the CLI: `lsm run scenarios/fault_dest_crash.toml`.

use crate::scenario::{MigrationSpec, ScenarioSpec, VmSpec};
use lsm_core::config::ClusterConfig;
use lsm_core::policy::StrategyKind;
use lsm_core::FaultKind;
use lsm_simcore::units::MIB;
use lsm_workloads::WorkloadSpec;

/// A hotspot writer that keeps rewriting a 16 MiB region for ~20
/// simulated seconds: hot chunks cross the push `Threshold`, so the
/// migration has both a push phase and a genuine pull phase to
/// interrupt.
fn hotspot() -> WorkloadSpec {
    WorkloadSpec::HotspotWrite {
        offset: 0,
        region_blocks: 64,
        block: 256 * 1024,
        count: 2000,
        theta: 0.8,
        think_secs: 0.01,
        seed: 7,
    }
}

/// A steady sequential writer (~3 simulated seconds of dirtying).
fn writer() -> WorkloadSpec {
    WorkloadSpec::SeqWrite {
        offset: 0,
        total: 48 * MIB,
        block: MIB,
        think_secs: 0.05,
    }
}

/// Mid-transfer destination crash: one hybrid migration, destination
/// node dies 0.5 s after the request. Expected outcome: job `Failed`
/// with `DestinationCrashed { node: 1 }`, guest finishes at node 0.
pub fn dest_crash_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: Some("fault-dest-crash".to_string()),
        cluster: Some(ClusterConfig::small_test()),
        orchestrator: None,
        autonomic: None,
        resilience: None,
        qos: None,
        strategy: StrategyKind::Hybrid,
        grouped: false,
        vms: vec![VmSpec::new(0, hotspot())],
        migrations: vec![MigrationSpec {
            vm: 0,
            dest: 1,
            at_secs: 1.0,
            deadline_secs: None,
        }],
        requests: None,
        faults: Some(vec![crate::scenario::FaultSpec {
            at_secs: 1.5,
            kind: FaultKind::NodeCrash { node: 1 },
        }]),
        cancellations: None,
        horizon_secs: 120.0,
    }
}

/// A migration through a link-degradation window with a transfer stall
/// in the middle. Expected outcome: the migration completes with
/// `consistent: true`, strictly slower than a clean run, without
/// re-pushing chunks whose versions already reached the destination.
pub fn degraded_link_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: Some("fault-degraded-link".to_string()),
        cluster: Some(ClusterConfig::small_test()),
        orchestrator: None,
        autonomic: None,
        resilience: None,
        qos: None,
        strategy: StrategyKind::Hybrid,
        grouped: false,
        vms: vec![VmSpec::new(0, writer())],
        migrations: vec![MigrationSpec {
            vm: 0,
            dest: 1,
            at_secs: 1.0,
            deadline_secs: None,
        }],
        requests: None,
        faults: Some(vec![
            crate::scenario::FaultSpec {
                at_secs: 1.2,
                kind: FaultKind::LinkDegrade {
                    node: 1,
                    factor: 0.25,
                },
            },
            crate::scenario::FaultSpec {
                at_secs: 1.5,
                kind: FaultKind::TransferStall { vm: 0, secs: 1.0 },
            },
            crate::scenario::FaultSpec {
                at_secs: 8.0,
                kind: FaultKind::LinkRestore { node: 1 },
            },
        ]),
        cancellations: None,
        horizon_secs: 600.0,
    }
}

/// A migration with a deadline far too tight for its image. Expected
/// outcome: job `Failed` with `DeadlineExceeded`, partial progress in
/// the report, guest unharmed at the source.
pub fn deadline_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: Some("fault-deadline".to_string()),
        cluster: Some(ClusterConfig::small_test()),
        orchestrator: None,
        autonomic: None,
        resilience: None,
        qos: None,
        strategy: StrategyKind::Hybrid,
        grouped: false,
        vms: vec![VmSpec::new(0, hotspot())],
        migrations: vec![MigrationSpec {
            vm: 0,
            dest: 1,
            at_secs: 1.0,
            deadline_secs: Some(0.4),
        }],
        requests: None,
        faults: None,
        cancellations: None,
        horizon_secs: 120.0,
    }
}
