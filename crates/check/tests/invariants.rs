//! The invariant observer against real engine runs — clean migrations,
//! faulted migrations — plus detection tests proving the checker is not
//! vacuously green.

use lsm_check::{CheckConfig, InvariantObserver};
use lsm_core::builder::SimulationBuilder;
use lsm_core::config::ClusterConfig;
use lsm_core::engine::{JobId, MigrationProgress, MigrationStatus};
use lsm_core::policy::StrategyKind;
use lsm_core::{FaultKind, NodeId, Observer};
use lsm_simcore::time::SimTime;
use lsm_simcore::units::MIB;
use lsm_workloads::WorkloadSpec;

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn writer() -> WorkloadSpec {
    WorkloadSpec::SeqWrite {
        offset: 0,
        total: 48 * MIB,
        block: MIB,
        think_secs: 0.05,
    }
}

fn checker() -> InvariantObserver {
    InvariantObserver::with_config(CheckConfig {
        deep_scan_interval: 64, // small runs: audit aggressively
        ..CheckConfig::default()
    })
}

#[test]
fn clean_migration_upholds_every_law() {
    for strategy in [
        StrategyKind::Hybrid,
        StrategyKind::Precopy,
        StrategyKind::Mirror,
        StrategyKind::Postcopy,
        StrategyKind::SharedFs,
    ] {
        let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
        let vm = b
            .add_vm(NodeId(0), writer(), strategy, SimTime::ZERO)
            .expect("vm");
        b.migrate(vm, NodeId(1), secs(1.0)).expect("job");
        let mut sim = b.build().expect("builds");
        let mut obs = checker();
        sim.run_observed(secs(600.0), &mut obs);
        obs.finish(sim.engine());
        assert!(
            obs.checks_run() > 1000,
            "{}: audit barely ran",
            strategy.label()
        );
        obs.assert_clean(strategy.label());
    }
}

#[test]
fn faulted_migrations_uphold_every_law() {
    // Crash + degradation + stall in one run; the engine's recovery
    // paths must not bend any conservation law while tearing down.
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    let vm0 = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let _vm1 = b
        .add_vm(NodeId(2), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    b.migrate(vm0, NodeId(1), secs(1.0)).expect("job");
    b.inject_fault(
        secs(0.8),
        FaultKind::LinkDegrade {
            node: 1,
            factor: 0.3,
        },
    )
    .expect("valid");
    b.inject_fault(secs(1.1), FaultKind::TransferStall { vm: 0, secs: 0.5 })
        .expect("valid");
    b.inject_fault(secs(1.6), FaultKind::NodeCrash { node: 1 })
        .expect("valid");
    let mut sim = b.build().expect("builds");
    let mut obs = checker();
    sim.run_observed(secs(600.0), &mut obs);
    obs.finish(sim.engine());
    obs.assert_clean("fault cocktail");
}

/// A capped, orchestrated run is clean — and the new laws actually
/// evaluated (the positive half of the detection pair below).
#[test]
fn capped_orchestrated_run_upholds_every_law() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    b.with_orchestrator(lsm_core::OrchestratorConfig {
        max_concurrent: Some(1),
        ..lsm_core::OrchestratorConfig::default()
    })
    .expect("configures");
    let vm0 = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let vm1 = b
        .add_vm(NodeId(1), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    b.migrate(vm0, NodeId(2), secs(1.0)).expect("job");
    b.migrate(vm1, NodeId(3), secs(1.0)).expect("job");
    b.request_evacuation(NodeId(0), secs(60.0))
        .expect("request");
    let mut sim = b.build().expect("builds");
    let mut obs = checker();
    let report = sim.run_observed(secs(900.0), &mut obs);
    obs.finish(sim.engine());
    obs.assert_clean("capped orchestrated run");
    assert!(
        report.migrations.iter().all(|m| m.completed),
        "cap must defer, not starve"
    );
    assert!(report.planner.iter().any(|d| d.deferred));
}

/// Deliberately breaking the admission cap mid-run (through the
/// engine's testing hook) must be flagged — the law is not vacuous.
#[test]
fn checker_detects_admission_cap_violation() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    let vm0 = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let vm1 = b
        .add_vm(NodeId(1), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    b.migrate(vm0, NodeId(2), secs(1.0)).expect("job");
    b.migrate(vm1, NodeId(3), secs(1.0)).expect("job");
    let mut sim = b.build().expect("builds");
    // Let both migrations start under the unlimited default...
    sim.run_until(secs(3.0));
    assert_eq!(sim.engine().active_migrations(), 2, "both must be running");
    // ...then shrink the cap under them without re-admission checks.
    sim.engine_mut().testing_force_admission_cap(Some(1));
    let mut obs = checker();
    sim.run_observed(secs(60.0), &mut obs);
    assert!(
        !obs.is_clean(),
        "2 running under a cap of 1 must be flagged"
    );
    assert!(
        obs.violations().iter().any(|v| v.law == "admission-cap"),
        "{:?}",
        obs.violations()
    );
}

/// Deliberately pointing a running job at an out-of-range destination
/// must be flagged by the placement law.
#[test]
fn checker_detects_illegal_placement() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    let vm0 = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let job = b.migrate(vm0, NodeId(1), secs(1.0)).expect("job");
    let mut sim = b.build().expect("builds");
    sim.run_until(secs(3.0));
    assert_eq!(
        sim.status(job),
        Some(MigrationStatus::TransferringMemory),
        "the job must be mid-flight for the law to apply"
    );
    sim.engine_mut().testing_force_job_dest(job, 99);
    let mut obs = checker();
    sim.run_observed(secs(60.0), &mut obs);
    assert!(!obs.is_clean());
    assert!(
        obs.violations().iter().any(|v| v.law == "placement-legal"),
        "{:?}",
        obs.violations()
    );
}

fn progress(job: u32, status: MigrationStatus) -> MigrationProgress {
    MigrationProgress {
        job,
        vm: 0,
        source: 0,
        dest: 1,
        strategy: StrategyKind::Hybrid,
        status,
        planner_held: false,
        mem_rounds: 0,
        chunks_pushed: 0,
        chunks_pulled: 0,
        bytes_pushed: 0,
        bytes_pulled: 0,
        chunks_remaining: 0,
        eta: None,
        downtime: lsm_simcore::time::SimDuration::ZERO,
        failure: None,
    }
}

#[test]
fn checker_detects_terminal_regression() {
    let mut obs = InvariantObserver::new();
    let p = |s| progress(0, s);
    for s in [
        MigrationStatus::Queued,
        MigrationStatus::TransferringMemory,
        MigrationStatus::SwitchingOver,
        MigrationStatus::Completed,
    ] {
        obs.on_status(JobId(0), s, secs(0.5), &p(s));
    }
    assert!(obs.is_clean(), "legal prefix must be clean");
    obs.on_status(
        JobId(0),
        MigrationStatus::TransferringMemory,
        secs(2.0),
        &p(MigrationStatus::TransferringMemory),
    );
    assert!(!obs.is_clean(), "terminal regression must be flagged");
    assert_eq!(obs.violations()[0].law, "terminal-job-regressed");
}

#[test]
fn checker_detects_illegal_transition_and_missing_reason() {
    let mut obs = InvariantObserver::new();
    let p = |s| progress(0, s);
    obs.on_status(
        JobId(0),
        MigrationStatus::Queued,
        secs(0.0),
        &p(MigrationStatus::Queued),
    );
    // Queued cannot jump straight to TransferringStorage.
    obs.on_status(
        JobId(0),
        MigrationStatus::TransferringStorage,
        secs(1.0),
        &p(MigrationStatus::TransferringStorage),
    );
    assert!(!obs.is_clean());
    assert_eq!(obs.violations()[0].law, "illegal-status-transition");

    // A Failed status with no typed reason is itself a violation.
    let mut obs = InvariantObserver::new();
    obs.on_status(
        JobId(1),
        MigrationStatus::Failed,
        secs(1.0),
        &progress(1, MigrationStatus::Failed),
    );
    assert!(!obs.is_clean());
    assert_eq!(obs.violations()[0].law, "failed-without-reason");
}

/// An in-flight migration whose destination crashes is re-planned by
/// the autonomic layer instead of failed: the job re-queues, re-places
/// on a healthy node, and completes — and the whole episode upholds
/// every law, including requeue-traces-to-replan.
#[test]
fn destination_crash_replans_and_completes_cleanly() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    b.with_autonomic(lsm_core::AutonomicConfig {
        overload_pressure: 50.0, // unreachable: replanning is the only autonomic act
        underload_pressure: 0.01,
        hysteresis: 0.0,
        ..lsm_core::AutonomicConfig::default()
    })
    .expect("configures");
    let vm = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    b.migrate(vm, NodeId(1), secs(1.0)).expect("job");
    b.inject_fault(secs(1.6), FaultKind::NodeCrash { node: 1 })
        .expect("valid");
    let mut sim = b.build().expect("builds");
    let mut obs = checker();
    let report = sim.run_observed(secs(600.0), &mut obs);
    obs.finish(sim.engine());
    obs.assert_clean("crash replan");
    assert_eq!(report.migrations.len(), 1);
    assert!(
        report.migrations[0].completed,
        "re-planned job must complete"
    );
    assert!(
        report.rebalance.iter().any(|a| matches!(
            a.trigger,
            lsm_core::RebalanceTrigger::Replan {
                reason: lsm_core::ReplanReason::DestinationCrashed { node: 1 },
                ..
            }
        )),
        "{:?}",
        report.rebalance
    );
    // The re-admission decided a fresh, healthy destination.
    assert_eq!(report.planner.len(), 2, "original admission + re-admission");
    assert_ne!(report.planner[1].dest, 1);
}

/// A destination that degrades past the overload threshold while the
/// job is still in its active phase gets re-pointed at a healthier
/// node mid-flight — cleanly.
#[test]
fn degraded_destination_replans_cleanly() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    b.with_autonomic(lsm_core::AutonomicConfig {
        interval_secs: 0.5,
        overload_pressure: 0.05, // the resident writer's busy fraction clears this
        underload_pressure: 0.001,
        hysteresis: 0.01,
        ..lsm_core::AutonomicConfig::default()
    })
    .expect("configures");
    // A resident heavy writer keeps the destination hot.
    let _hot = b
        .add_vm(
            NodeId(1),
            WorkloadSpec::HotspotWrite {
                offset: 0,
                region_blocks: 64,
                block: 256 * 1024,
                count: 4000,
                theta: 0.8,
                think_secs: 0.01,
                seed: 7,
            },
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .expect("vm");
    let vm = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    b.migrate(vm, NodeId(1), secs(1.5)).expect("job");
    let mut sim = b.build().expect("builds");
    let mut obs = checker();
    let report = sim.run_observed(secs(600.0), &mut obs);
    obs.finish(sim.engine());
    obs.assert_clean("degraded replan");
    assert!(
        report.rebalance.iter().any(|a| matches!(
            a.trigger,
            lsm_core::RebalanceTrigger::Replan {
                reason: lsm_core::ReplanReason::DestinationDegraded { node: 1, .. },
                ..
            }
        )),
        "{:?}",
        report.rebalance
    );
    let m = report
        .migrations
        .iter()
        .find(|m| m.vm == 1)
        .expect("the explicit job is recorded");
    assert!(m.completed, "re-pointed job must complete");
    let last = report
        .planner
        .iter()
        .rfind(|d| d.vm == 1)
        .expect("re-admission decision");
    assert_ne!(last.dest, 1, "final placement avoids the hot node");
}

/// A forged rebalance action whose trigger condition could not possibly
/// hold must be flagged — the threshold law is not vacuous.
#[test]
fn checker_detects_rebalance_threshold_violation() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    b.with_autonomic(lsm_core::AutonomicConfig {
        interval_secs: 1e6, // no real ticks: only the forged action exists
        overload_pressure: 50.0,
        underload_pressure: 0.05,
        hysteresis: 0.0,
        ..lsm_core::AutonomicConfig::default()
    })
    .expect("configures");
    let _vm = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let mut sim = b.build().expect("builds");
    sim.run_until(secs(2.0));
    // Claim node 0 sits at pressure 49 — nothing remotely close holds.
    sim.engine_mut()
        .testing_force_rebalance_action(lsm_core::RebalanceAction {
            at: secs(2.0),
            trigger: lsm_core::RebalanceTrigger::Overload {
                node: 0,
                pressure: 49.0,
            },
            candidates: vec![0],
            deferrals: Vec::new(),
            chosen: None,
            job: None,
            dest: None,
        });
    let mut obs = checker();
    sim.run_observed(secs(10.0), &mut obs);
    obs.finish(sim.engine());
    assert!(!obs.is_clean(), "impossible trigger must be flagged");
    assert!(
        obs.violations()
            .iter()
            .any(|v| v.law == "rebalance-threshold-held"),
        "{:?}",
        obs.violations()
    );
}

/// Two forged actions choosing the same VM inside the cooldown window
/// must trip the no-ping-pong law — and only that law (both triggers
/// are chosen so their threshold condition genuinely holds).
#[test]
fn checker_detects_rebalance_ping_pong() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    b.with_autonomic(lsm_core::AutonomicConfig {
        interval_secs: 1e6,
        cooldown_secs: 120.0,
        ..lsm_core::AutonomicConfig::default()
    })
    .expect("configures");
    let _vm = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let mut sim = b.build().expect("builds");
    sim.run_until(secs(1.0));
    // Node 3 hosts nothing, so pressure 0 satisfies the underload
    // threshold; the second identical choice is the only illegal part.
    for at in [1.0, 2.0] {
        sim.engine_mut()
            .testing_force_rebalance_action(lsm_core::RebalanceAction {
                at: secs(at),
                trigger: lsm_core::RebalanceTrigger::Underload {
                    node: 3,
                    pressure: 0.0,
                },
                candidates: vec![0],
                deferrals: Vec::new(),
                chosen: Some(0),
                job: None,
                dest: Some(1),
            });
    }
    let mut obs = checker();
    sim.run_observed(secs(10.0), &mut obs);
    obs.finish(sim.engine());
    assert!(
        !obs.is_clean(),
        "repeat move inside cooldown must be flagged"
    );
    assert!(
        obs.violations()
            .iter()
            .any(|v| v.law == "rebalance-no-ping-pong"),
        "{:?}",
        obs.violations()
    );
    assert!(
        obs.violations()
            .iter()
            .all(|v| v.law != "rebalance-threshold-held"),
        "thresholds held for both actions: {:?}",
        obs.violations()
    );
}

/// A started job sneaking back to `Queued` with no recorded re-plan
/// action must be flagged once the engine state is consulted.
#[test]
fn checker_detects_requeue_without_replan() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    let _vm = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let mut sim = b.build().expect("builds");
    sim.run_until(secs(1.0));
    let mut obs = InvariantObserver::new();
    let p = |s| progress(7, s);
    obs.on_status(
        JobId(7),
        MigrationStatus::TransferringMemory,
        secs(1.0),
        &p(MigrationStatus::TransferringMemory),
    );
    obs.on_status(
        JobId(7),
        MigrationStatus::Queued,
        secs(2.0),
        &p(MigrationStatus::Queued),
    );
    assert!(
        obs.is_clean(),
        "the transition itself is provisionally legal"
    );
    // No autonomic config, no actions: the regression cannot trace.
    obs.finish(sim.engine());
    assert!(!obs.is_clean());
    assert!(
        obs.violations()
            .iter()
            .any(|v| v.law == "requeue-without-replan"),
        "{:?}",
        obs.violations()
    );
}

fn resilience_cfg(max_attempts: u32) -> lsm_core::ResilienceConfig {
    lsm_core::ResilienceConfig {
        retry: lsm_core::RetryPolicy {
            max_attempts,
            ..lsm_core::RetryPolicy::default()
        },
        ..lsm_core::ResilienceConfig::default()
    }
}

fn forged_attempt(checkpoint_bytes: u64, resumed_bytes: u64) -> lsm_core::JobAttempt {
    lsm_core::JobAttempt {
        at: secs(1.5),
        reason: lsm_core::AttemptReason::Stalled,
        backoff_secs: 1.0,
        checkpoint_bytes,
        resumed_bytes,
    }
}

/// More recorded retries than the policy allows must be flagged — the
/// retry-within-policy law is not vacuous.
#[test]
fn checker_detects_retry_beyond_policy() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    b.with_resilience(resilience_cfg(2)).expect("configures");
    let vm = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let job = b.migrate(vm, NodeId(1), secs(1.0)).expect("job");
    let mut sim = b.build().expect("builds");
    sim.run_until(secs(2.0));
    // max_attempts = 2 permits at most one retry; forge two.
    for _ in 0..2 {
        sim.engine_mut()
            .testing_force_job_attempt(job, forged_attempt(0, 0));
    }
    let mut obs = checker();
    sim.run_observed(secs(10.0), &mut obs);
    assert!(!obs.is_clean(), "over-policy retries must be flagged");
    assert!(
        obs.violations()
            .iter()
            .any(|v| v.law == "retry-within-policy"),
        "{:?}",
        obs.violations()
    );
}

/// An attempt claiming more resumed bytes than its checkpoint held must
/// be flagged — resumption cannot invent progress.
#[test]
fn checker_detects_resume_overrun() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    b.with_resilience(resilience_cfg(3)).expect("configures");
    let vm = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let job = b.migrate(vm, NodeId(1), secs(1.0)).expect("job");
    let mut sim = b.build().expect("builds");
    sim.run_until(secs(2.0));
    sim.engine_mut()
        .testing_force_job_attempt(job, forged_attempt(MIB, 2 * MIB));
    let mut obs = checker();
    sim.run_observed(secs(10.0), &mut obs);
    assert!(!obs.is_clean(), "resume overrun must be flagged");
    assert!(
        obs.violations().iter().any(|v| v.law == "resume-bounded"),
        "{:?}",
        obs.violations()
    );
}

/// A throttle step surviving past switchover must be flagged — the
/// degradation is only legal while memory pre-copy fights flux.
#[test]
fn checker_detects_unreleased_throttle() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    b.with_resilience(resilience_cfg(3)).expect("configures");
    // Postcopy switches over early and pulls storage afterwards,
    // guaranteeing a long TransferringStorage window to forge inside.
    let vm = b
        .add_vm(NodeId(0), writer(), StrategyKind::Postcopy, SimTime::ZERO)
        .expect("vm");
    let job = b.migrate(vm, NodeId(1), secs(1.0)).expect("job");
    let mut sim = b.build().expect("builds");
    // Step until the job is past switchover but still pulling storage
    // (the migration runtime must be live for the forced throttle).
    let mut t = 1.0;
    while sim.status(job) != Some(MigrationStatus::TransferringStorage) {
        t += 0.1;
        assert!(t < 600.0, "job never reached TransferringStorage");
        sim.run_until(secs(t));
    }
    sim.engine_mut().testing_force_throttle_step(0, 2);
    let mut obs = checker();
    sim.run_observed(secs(t + 5.0), &mut obs);
    assert!(!obs.is_clean(), "post-switchover throttle must be flagged");
    assert!(
        obs.violations()
            .iter()
            .any(|v| v.law == "throttle-released"),
        "{:?}",
        obs.violations()
    );
}

/// A VM's throttle belongs to its live job: a later migration of the
/// VM that auto-converge throttles is not blamed on an earlier,
/// cancelled one. The fuzzer's auto-converge draws found this false
/// alarm on a rebalancer move after a cancellation.
#[test]
fn throttled_successor_is_not_blamed_on_a_cancelled_job() {
    let res = lsm_core::ResilienceConfig {
        converge_frac: 0.03,
        converge_patience: 2,
        converge_step: 0.35,
        converge_max_steps: 4,
        ..resilience_cfg(1)
    };
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    b.with_resilience(res).expect("configures");
    let hot = WorkloadSpec::HotspotWrite {
        offset: 0,
        region_blocks: 64,
        block: 256 * 1024,
        count: 20000,
        theta: 0.8,
        think_secs: 0.005,
        seed: 13,
    };
    let vm = b
        .add_vm(NodeId(0), hot, StrategyKind::Mirror, SimTime::ZERO)
        .expect("vm");
    let first = b.migrate(vm, NodeId(1), secs(1.0)).expect("job");
    // A degraded destination link keeps rounds long, so the dirty flux
    // outruns them.
    b.inject_fault(
        secs(0.5),
        FaultKind::LinkDegrade {
            node: 1,
            factor: 0.1,
        },
    )
    .expect("valid");
    let mut sim = b.build().expect("builds");
    sim.run_until(secs(1.2));
    sim.engine_mut()
        .cancel_migration(first)
        .expect("cancellable");
    let second = sim
        .engine_mut()
        .schedule_migration(lsm_core::VmId(vm.index()), 1, secs(1.5))
        .expect("a successor is legal after a terminal job");
    let mut obs = checker();
    let report = sim.run_observed(secs(300.0), &mut obs);
    obs.finish(sim.engine());
    obs.assert_clean("throttled successor of a cancelled job");
    let row = report
        .resilience
        .iter()
        .find(|r| r.job == second.0)
        .expect("the successor's resilience row");
    assert!(
        row.auto_converge_steps > 0,
        "the successor was never throttled"
    );
    assert_eq!(sim.status(second), Some(MigrationStatus::Completed));
}

/// A live retry timer on a job that is not waiting in `Queued` must be
/// flagged — that is a leaked backoff.
#[test]
fn checker_detects_dangling_retry_timer() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    b.with_resilience(resilience_cfg(3)).expect("configures");
    let vm = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let job = b.migrate(vm, NodeId(1), secs(1.0)).expect("job");
    let mut sim = b.build().expect("builds");
    sim.run_until(secs(2.0));
    assert_eq!(
        sim.status(job),
        Some(MigrationStatus::TransferringMemory),
        "the job must be mid-flight for the law to apply"
    );
    sim.engine_mut().testing_force_retry_pending(job);
    let mut obs = checker();
    sim.run_observed(secs(10.0), &mut obs);
    assert!(!obs.is_clean(), "dangling retry timer must be flagged");
    assert!(
        obs.violations()
            .iter()
            .any(|v| v.law == "no-dangling-retry"),
        "{:?}",
        obs.violations()
    );
}

/// A QoS-shaped run (cap + multifd + compression) upholds every law —
/// including the new cap-respected and sla-consistent sweeps, which are
/// active whenever a cap or a migration is live.
#[test]
fn qos_shaped_run_upholds_every_law() {
    for strategy in [
        StrategyKind::Hybrid,
        StrategyKind::Precopy,
        StrategyKind::Postcopy,
    ] {
        let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
        b.with_qos(lsm_core::QosConfig {
            bandwidth_cap_mb: Some(40.0),
            streams: 4,
            compress_mem_ratio: 0.7,
            compress_storage_ratio: 0.8,
            compress_cpu_frac: 0.1,
        })
        .expect("configures");
        let vm = b
            .add_vm(NodeId(0), writer(), strategy, SimTime::ZERO)
            .expect("vm");
        b.migrate(vm, NodeId(1), secs(1.0)).expect("job");
        let mut sim = b.build().expect("builds");
        let mut obs = checker();
        let report = sim.run_observed(secs(600.0), &mut obs);
        obs.finish(sim.engine());
        obs.assert_clean(strategy.label());
        assert!(report.migrations[0].completed, "{}", strategy.label());
        assert!(
            report.sla.total_violation_secs > 0.0,
            "{}: a capped, compressing migration must record SLA cost",
            strategy.label()
        );
    }
}

/// A migration-class flow started without the configured QoS cap must
/// be flagged — the cap-respected law is not vacuous.
#[test]
fn checker_detects_uncapped_migration_flow() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    b.with_qos(lsm_core::QosConfig {
        bandwidth_cap_mb: Some(40.0),
        ..lsm_core::QosConfig::default()
    })
    .expect("configures");
    let vm = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    b.migrate(vm, NodeId(1), secs(1.0)).expect("job");
    let mut sim = b.build().expect("builds");
    sim.run_until(secs(2.0));
    // Large enough to stay in flight for the whole observed window: the
    // law must catch the flow while it is live, and a completing forged
    // flow would trip real completion machinery it has no state for.
    sim.engine_mut().testing_force_uncapped_flow(0, 1, 1 << 40);
    let mut obs = checker();
    sim.run_observed(secs(10.0), &mut obs);
    assert!(!obs.is_clean(), "uncapped migration flow must be flagged");
    assert!(
        obs.violations().iter().any(|v| v.law == "cap-respected"),
        "{:?}",
        obs.violations()
    );
}

/// A recorded degradation slope that disagrees with the engine's
/// compute state must be flagged — the sla-consistent law is not
/// vacuous.
#[test]
fn checker_detects_sla_accounting_drift() {
    let mut b = SimulationBuilder::new(ClusterConfig::small_test()).expect("config");
    let vm = b
        .add_vm(NodeId(0), writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let job = b.migrate(vm, NodeId(1), secs(1.0)).expect("job");
    let mut sim = b.build().expect("builds");
    sim.run_until(secs(2.0));
    assert_eq!(
        sim.status(job),
        Some(MigrationStatus::TransferringMemory),
        "the migration must be live for the law to apply"
    );
    sim.engine_mut().testing_force_degrade_loss(0, 0.73);
    let mut obs = checker();
    sim.run_observed(secs(2.5), &mut obs);
    assert!(!obs.is_clean(), "forged degradation slope must be flagged");
    assert!(
        obs.violations().iter().any(|v| v.law == "sla-consistent"),
        "{:?}",
        obs.violations()
    );
}

#[test]
fn violation_digest_is_readable_and_bounded() {
    let mut obs = InvariantObserver::with_config(CheckConfig {
        max_violations: 4,
        ..CheckConfig::default()
    });
    for i in 0..10u32 {
        let p = progress(i, MigrationStatus::Failed);
        obs.on_status(JobId(i), MigrationStatus::Failed, secs(i as f64), &p);
    }
    assert_eq!(obs.total_violations(), 10);
    assert_eq!(obs.violations().len(), 4, "storage is capped");
    let shown = format!("{}", obs.violations()[0]);
    assert!(shown.contains("failed-without-reason"), "{shown}");
}
