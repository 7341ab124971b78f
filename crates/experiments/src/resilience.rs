//! Resilience scenario producers: a retrying fleet under a composed
//! fault barrage, and a hot guest saved by auto-converge throttling.
//!
//! The resilience layer (PR 7) exists so that the paper's migrations
//! survive conditions the fault scenarios in [`crate::faults`] merely
//! *diagnose*. These scenarios pin the recovery contract end to end:
//!
//! * [`chaos_storm_spec`] — six migrations against a barrage of
//!   destination crashes, link-degradation windows, transfer stalls, a
//!   node restore and an operator cancellation, under a retry policy.
//!   The liveness contract: **every** job reaches a terminal state
//!   within the horizon, at least one retried job *resumes* (chunk
//!   versions already stamped at the surviving destination are not
//!   re-sent — `resumed_bytes > 0`), and the whole episode is
//!   invariant-clean under `lsm-check`.
//! * [`auto_converge_spec`] — one migration of a guest whose write
//!   flux outruns pre-copy, under a deadline. With the `[resilience]`
//!   section present the stepped auto-converge throttle degrades the
//!   guest until the rounds converge and the job **completes**; with
//!   the section stripped the same scenario deadline-aborts.
//!
//! `chaos_storm` is checked in under `scenarios/`
//! (byte-identity-tested against this producer, like `scale64.toml`)
//! so the same run is reproducible from the CLI:
//! `lsm run scenarios/chaos_storm.toml --check`.

use crate::scenario::{CancelSpec, FaultSpec, MigrationSpec, ScenarioSpec, VmSpec};
use lsm_core::config::ClusterConfig;
use lsm_core::policy::StrategyKind;
use lsm_core::{FaultKind, ResilienceConfig, RetryPolicy};
use lsm_simcore::units::MIB;
use lsm_workloads::WorkloadSpec;

/// A steady sequential writer (~3 simulated seconds of dirtying).
fn writer() -> WorkloadSpec {
    WorkloadSpec::SeqWrite {
        offset: 0,
        total: 48 * MIB,
        block: MIB,
        think_secs: 0.05,
    }
}

/// A hotspot writer that keeps rewriting a 16 MiB region: hot chunks
/// and a sustained dirty rate for the storm's victims to carry.
fn hotspot(seed: u64) -> WorkloadSpec {
    WorkloadSpec::HotspotWrite {
        offset: 0,
        region_blocks: 64,
        block: 256 * 1024,
        count: 2000,
        theta: 0.8,
        think_secs: 0.01,
        seed,
    }
}

/// The retry policy the storm's fleet runs under: three total tries
/// per job, short exponential backoff, every retryable failure armed.
fn storm_policy() -> ResilienceConfig {
    ResilienceConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_secs: 2.0,
            backoff_cap_secs: 8.0,
            ..RetryPolicy::default()
        },
        ..ResilienceConfig::default()
    }
}

/// Chaos storm: six migrations, five fault kinds, one cancellation.
///
/// The barrage, in order: job 0's destination crashes mid-push (retry
/// re-places it on a healthy node); job 1's destination link degrades
/// and its transfer stalls (retry resumes from the chunk versions
/// already stamped there); job 2 crawls through a near-dead link into
/// its deadline (retry after the link restores, resuming); job 3 is
/// cancelled by the operator mid-flight; jobs 4 and 5 ride through the
/// noise. The crashed node is restored near the end — visible to
/// later placements, and proof that restore does not disturb settled
/// jobs.
pub fn chaos_storm_spec() -> ScenarioSpec {
    let mirror = Some(StrategyKind::Mirror);
    ScenarioSpec {
        name: Some("chaos_storm".to_string()),
        cluster: Some(ClusterConfig {
            nodes: 8,
            ..ClusterConfig::small_test()
        }),
        orchestrator: None,
        autonomic: None,
        resilience: Some(storm_policy()),
        qos: None,
        strategy: StrategyKind::Hybrid,
        grouped: false,
        vms: vec![
            VmSpec {
                strategy: mirror,
                ..VmSpec::new(0, writer())
            },
            VmSpec {
                strategy: mirror,
                ..VmSpec::new(1, writer())
            },
            VmSpec {
                strategy: mirror,
                ..VmSpec::new(2, hotspot(7))
            },
            VmSpec::new(3, writer()),
            VmSpec::new(0, hotspot(11)),
            VmSpec::new(1, writer()),
        ],
        migrations: vec![
            // Job 0: destination-crash victim.
            MigrationSpec {
                vm: 0,
                dest: 4,
                at_secs: 1.0,
                deadline_secs: None,
            },
            // Job 1: degrade + stall victim (resumes at the same dest).
            MigrationSpec {
                vm: 1,
                dest: 5,
                at_secs: 1.0,
                deadline_secs: None,
            },
            // Job 2: deadline victim behind a near-dead link.
            MigrationSpec {
                vm: 2,
                dest: 6,
                at_secs: 2.0,
                deadline_secs: Some(4.0),
            },
            // Job 3: cancelled mid-flight.
            MigrationSpec {
                vm: 3,
                dest: 7,
                at_secs: 2.0,
                deadline_secs: None,
            },
            // Jobs 4 and 5: bystanders sharing the contended links.
            MigrationSpec {
                vm: 4,
                dest: 5,
                at_secs: 3.0,
                deadline_secs: None,
            },
            MigrationSpec {
                vm: 5,
                dest: 6,
                at_secs: 3.0,
                deadline_secs: None,
            },
        ],
        requests: None,
        faults: Some(vec![
            FaultSpec {
                at_secs: 1.2,
                kind: FaultKind::LinkDegrade {
                    node: 5,
                    factor: 0.3,
                },
            },
            FaultSpec {
                at_secs: 1.3,
                kind: FaultKind::NodeCrash { node: 4 },
            },
            FaultSpec {
                at_secs: 1.5,
                kind: FaultKind::TransferStall { vm: 1, secs: 1.0 },
            },
            FaultSpec {
                at_secs: 2.2,
                kind: FaultKind::LinkDegrade {
                    node: 6,
                    factor: 0.05,
                },
            },
            FaultSpec {
                at_secs: 5.0,
                kind: FaultKind::LinkRestore { node: 5 },
            },
            FaultSpec {
                at_secs: 7.0,
                kind: FaultKind::LinkRestore { node: 6 },
            },
            FaultSpec {
                at_secs: 9.0,
                kind: FaultKind::NodeRestore { node: 4 },
            },
        ]),
        cancellations: Some(vec![CancelSpec {
            at_secs: 2.3,
            job: 3,
        }]),
        horizon_secs: 300.0,
    }
}

/// Auto-converge drill: one hot guest, one degraded link, one
/// deadline — saved by stepped guest throttling.
///
/// The destination link is degraded below the guest's memory-dirty
/// rate, so pre-copy rounds can never drain the flux on their own:
/// every round redirties faster than the link can carry. With the
/// `[resilience]` section present the converge machinery throttles
/// the guest step by step until a round comes in under the flux
/// threshold and the job completes inside its deadline; strip the
/// section and the identical scenario grinds through the round cap
/// into a deadline abort (the negative half is pinned by a test).
/// Retries are deliberately off (`max_attempts = 1`) so the
/// comparison isolates the throttle.
pub fn auto_converge_spec() -> ScenarioSpec {
    let mut res = ResilienceConfig {
        converge_frac: 0.03,
        converge_patience: 2,
        converge_step: 0.35,
        converge_max_steps: 4,
        ..ResilienceConfig::default()
    };
    res.retry.max_attempts = 1;
    res.retry.retry_on.deadline = false;
    ScenarioSpec {
        name: Some("auto_converge".to_string()),
        cluster: Some(ClusterConfig::small_test()),
        orchestrator: None,
        autonomic: None,
        resilience: Some(res),
        qos: None,
        strategy: StrategyKind::Mirror,
        grouped: false,
        vms: vec![VmSpec::new(
            0,
            WorkloadSpec::HotspotWrite {
                offset: 0,
                region_blocks: 64,
                block: 256 * 1024,
                count: 20000,
                theta: 0.8,
                think_secs: 0.005,
                seed: 13,
            },
        )],
        migrations: vec![MigrationSpec {
            vm: 0,
            dest: 1,
            at_secs: 1.0,
            deadline_secs: Some(100.0),
        }],
        requests: None,
        faults: Some(vec![FaultSpec {
            at_secs: 0.5,
            kind: FaultKind::LinkDegrade {
                node: 1,
                factor: 0.1,
            },
        }]),
        cancellations: None,
        horizon_secs: 300.0,
    }
}
