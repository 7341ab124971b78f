//! Acceptance tests for the resilience layer's shipped scenarios: the
//! chaos storm's liveness contract (every job terminal, resumed bytes,
//! a recorded cancellation, invariant-clean under both solvers), the
//! auto-converge drill's dichotomy (throttling saves the deadline;
//! stripping `[resilience]` deadline-aborts the same run), and the
//! dangling-backoff regression (a source crash during retry backoff
//! must cancel the pending retry, not leave a timer aimed at a dead
//! guest).

use lsm_check::{CheckConfig, InvariantObserver};
use lsm_core::config::{ClusterConfig, EngineConfig};
use lsm_core::policy::StrategyKind;
use lsm_core::resilience::AttemptReason;
use lsm_core::{
    FailureReason, FaultKind, MigrationStatus, ResilienceConfig, RetryPolicy, RunReport,
};
use lsm_experiments::resilience::{auto_converge_spec, chaos_storm_spec};
use lsm_experiments::scenario::{
    run_scenario, run_scenario_with, FaultSpec, MigrationSpec, ScenarioSpec, VmSpec,
};
use lsm_netsim::SolverMode;
use lsm_simcore::units::MIB;
use lsm_workloads::WorkloadSpec;

fn checker() -> InvariantObserver {
    InvariantObserver::with_config(CheckConfig {
        deep_scan_interval: 2048,
        ..CheckConfig::default()
    })
}

/// Run a spec under both solvers, each with an invariant checker:
/// asserts the serialized reports are bit-identical and returns the
/// production (incremental) solver's report.
fn run_checked_both_solvers(name: &str, spec: &ScenarioSpec) -> RunReport {
    let mut kept = None;
    let mut reports = Vec::new();
    for solver in [SolverMode::Incremental, SolverMode::Reference] {
        let run = run_scenario_with(spec, 1, solver, checker)
            .unwrap_or_else(|e| panic!("{name}: scenario rejected: {e}"));
        for obs in &run.observers {
            assert!(obs.checks_run() > 0, "{name}: checker never ran");
            obs.assert_clean(name);
        }
        reports.push(serde_json::to_string_pretty(&run.report).expect("serializes"));
        kept.get_or_insert(run.report);
    }
    assert!(reports[0] == reports[1], "{name}: solver reports diverge");
    kept.expect("two runs happened")
}

/// The chaos storm's liveness contract: six migrations through
/// crashes, degradations, a stall, a restore and a cancellation — all
/// terminal within the horizon, with at least one resumed transfer,
/// every retry within policy, and zero invariant violations.
#[test]
fn chaos_storm_all_jobs_terminal_with_resume() {
    let spec = chaos_storm_spec();
    let r = run_checked_both_solvers("chaos_storm", &spec);
    assert_eq!(r.migrations.len(), 6);

    for (i, m) in r.migrations.iter().enumerate() {
        assert!(
            matches!(
                m.status,
                MigrationStatus::Completed | MigrationStatus::Failed
            ),
            "job {i} not terminal: {:?}",
            m.status
        );
    }
    // Job 3 is the operator cancellation; every other job rides the
    // retry policy to completion.
    assert_eq!(r.migrations[3].status, MigrationStatus::Failed);
    assert_eq!(r.migrations[3].failure, Some(FailureReason::Cancelled));
    for i in [0usize, 1, 2, 4, 5] {
        assert!(
            r.migrations[i].completed,
            "job {i} should complete under retries: {:?}",
            r.migrations[i].failure
        );
    }

    // Resume is real: at least one retried attempt skipped bytes
    // already stamped at the surviving destination.
    let resumed: u64 = r
        .resilience
        .iter()
        .flat_map(|j| j.attempts.iter())
        .map(|a| a.resumed_bytes)
        .sum();
    assert!(resumed > 0, "no retried job resumed any bytes");

    // The destination-crash victim (job 0) retried onto a healthy node
    // and its re-placement is recorded as an attempt.
    let j0 = r
        .resilience
        .iter()
        .find(|j| j.job == 0)
        .expect("job 0 has a resilience row");
    assert!(j0
        .attempts
        .iter()
        .any(|a| matches!(a.reason, AttemptReason::DestinationCrashed { node: 4 })));

    // Every retry history respects the policy cap, and the resume
    // bookkeeping never claims more than the checkpoint held.
    let max = spec.resilience.as_ref().unwrap().retry.max_attempts;
    for j in &r.resilience {
        assert!(
            (j.attempts.len() as u32) < max,
            "job {} burned {} attempts under max_attempts={max}",
            j.job,
            j.attempts.len()
        );
        for a in &j.attempts {
            assert!(a.resumed_bytes <= a.checkpoint_bytes);
        }
        assert_eq!(j.cancelled, j.job == 3);
    }
}

/// The auto-converge dichotomy: with `[resilience]` present the
/// stepped throttle converges the hot guest inside its deadline; with
/// the section stripped the identical scenario deadline-aborts.
#[test]
fn auto_converge_saves_the_deadline_and_is_inert_when_stripped() {
    let spec = auto_converge_spec();
    let r = run_checked_both_solvers("auto_converge", &spec);
    let m = &r.migrations[0];
    assert!(m.completed, "throttled run must converge: {:?}", m.failure);
    let row = r
        .resilience
        .iter()
        .find(|j| j.job == 0)
        .expect("converged job has a resilience row");
    assert!(
        row.auto_converge_steps > 0,
        "completion must be attributable to the throttle"
    );

    let mut stripped = spec;
    stripped.resilience = None;
    let r = run_scenario(&stripped).expect("valid scenario");
    let m = &r.migrations[0];
    assert!(!m.completed, "without the throttle the deadline must win");
    assert_eq!(
        m.failure,
        Some(FailureReason::DeadlineExceeded {
            deadline_secs: 100.0
        })
    );
    assert!(r.resilience.is_empty(), "stripped run must report nothing");
}

/// Regression: a source-node crash while a job sits in retry backoff
/// must cancel the pending retry — no timer may fire for a dead guest,
/// and the checker's no-dangling-retry law must hold to the horizon.
#[test]
fn source_crash_during_retry_backoff_cancels_the_pending_retry() {
    let spec = ScenarioSpec {
        name: Some("backoff_source_crash".to_string()),
        cluster: Some(ClusterConfig::small_test()),
        orchestrator: None,
        autonomic: None,
        resilience: Some(ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_secs: 2.0,
                backoff_cap_secs: 8.0,
                ..RetryPolicy::default()
            },
            ..ResilienceConfig::default()
        }),
        qos: None,
        strategy: StrategyKind::Hybrid,
        grouped: false,
        vms: vec![VmSpec::new(
            0,
            WorkloadSpec::SeqWrite {
                offset: 0,
                total: 48 * MIB,
                block: MIB,
                think_secs: 0.05,
            },
        )],
        migrations: vec![MigrationSpec {
            vm: 0,
            dest: 1,
            at_secs: 1.0,
            deadline_secs: None,
        }],
        requests: None,
        faults: Some(vec![
            // Destination dies mid-push: the job enters retry backoff
            // (next attempt would fire at ~3.3 s)...
            FaultSpec {
                at_secs: 1.3,
                kind: FaultKind::NodeCrash { node: 1 },
            },
            // ...but the source dies first, inside the backoff window.
            FaultSpec {
                at_secs: 2.0,
                kind: FaultKind::NodeCrash { node: 0 },
            },
        ]),
        cancellations: None,
        horizon_secs: 30.0,
    };
    // The horizon runs well past the would-be retry fire time; the
    // no-dangling-retry law inside the checker fails this test if the
    // backoff timer survives the source crash.
    let r = run_checked_both_solvers("backoff-source-crash", &spec);
    let m = &r.migrations[0];
    assert_eq!(m.status, MigrationStatus::Failed);
    assert_eq!(m.failure, Some(FailureReason::SourceCrashed { node: 0 }));
    let row = r
        .resilience
        .iter()
        .find(|j| j.job == 0)
        .expect("the dest-crash attempt is archived");
    assert_eq!(row.attempts.len(), 1);
    assert!(matches!(
        row.attempts[0].reason,
        AttemptReason::DestinationCrashed { node: 1 }
    ));
}

/// Regression: the auto-converge throttle must not leak across a retry.
/// A throttled attempt's destination crashes; during the backoff window
/// the guest must run at full speed (step 0, no stale SLA degradation
/// slope), and the fresh attempt must start from throttle step 0.
#[test]
fn throttle_is_released_across_retry_backoff() {
    use lsm_core::Engine;
    use lsm_simcore::time::SimTime;
    let secs = SimTime::from_secs_f64;
    let mut res = ResilienceConfig {
        converge_frac: 0.03,
        converge_patience: 2,
        converge_step: 0.35,
        converge_max_steps: 4,
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_secs: 5.0,
            backoff_cap_secs: 10.0,
            ..RetryPolicy::default()
        },
        ..ResilienceConfig::default()
    };
    res.retry.retry_on.deadline = false;
    let mut sim = Engine::new(EngineConfig {
        resilience: Some(res),
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    let vm = sim
        .add_vm(
            0,
            &WorkloadSpec::HotspotWrite {
                offset: 0,
                region_blocks: 64,
                block: 256 * 1024,
                count: 20000,
                theta: 0.8,
                think_secs: 0.005,
                seed: 13,
            },
            StrategyKind::Mirror,
            SimTime::ZERO,
        )
        .expect("vm");
    let job = sim.schedule_migration(vm, 1, secs(1.0)).expect("job");
    // The degraded destination link makes the pre-copy non-convergent,
    // which engages the throttle (empirically by ~51 s)...
    sim.schedule_fault(
        secs(0.5),
        FaultKind::LinkDegrade {
            node: 1,
            factor: 0.1,
        },
    )
    .expect("valid");
    // ...and then the destination dies under the throttled attempt.
    sim.schedule_fault(secs(55.0), FaultKind::NodeCrash { node: 1 })
        .expect("valid");
    sim.run_until(secs(54.9));
    assert!(
        sim.vm_throttle_step(0) >= 1,
        "precondition: the first attempt must be throttled before the crash"
    );
    // Inside the backoff window: the teardown must have released the
    // throttle AND re-run the compute update, so the guest's recorded
    // SLA degradation slope matches its (full-speed) state.
    sim.run_until(secs(56.0));
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Queued));
    assert!(sim.job_retry_pending(job), "backoff must be armed");
    assert_eq!(
        sim.vm_throttle_step(0),
        0,
        "throttle leaked into the backoff window"
    );
    let (recorded, expected) = sim.sla_audit(0).expect("migration state exists");
    assert!(
        (recorded - expected).abs() < 1e-9 && expected == 0.0,
        "stale degradation slope in backoff: recorded {recorded}, expected {expected}"
    );
    // The fresh attempt re-places onto a healthy node, starts at step 0,
    // and the whole tail is invariant-clean (throttle-released and
    // sla-consistent laws included).
    let mut obs = checker();
    let report = sim.run_until_observed(secs(600.0), &mut obs);
    obs.assert_clean("throttle retry");
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Completed));
    let row = report
        .resilience
        .iter()
        .find(|j| j.job == 0)
        .expect("resilience row");
    assert!(
        row.attempts.len() == 1,
        "exactly one retry expected: {:?}",
        row.attempts
    );
}

/// Regression: an operator cancellation landing inside a downtime
/// deferral window (the record's `copy` holding a `CopyKind::Deferral`,
/// the backlog riding one more live round) must tear down cleanly —
/// downtime stamped, no stale stop state — and a successor migration of
/// the same VM must behave like a first-class first attempt.
#[test]
fn cancel_during_downtime_deferral_is_clean() {
    use lsm_core::engine::Milestone;
    use lsm_core::{Engine, Observer, RunControl};
    use lsm_simcore::time::SimTime;
    let secs = SimTime::from_secs_f64;

    /// Stops the run the instant the first switchover deferral fires.
    #[derive(Default)]
    struct DeferralTrap {
        at: Option<SimTime>,
    }
    impl Observer for DeferralTrap {
        fn on_milestone(
            &mut self,
            _job: lsm_core::engine::JobId,
            m: Milestone,
            now: SimTime,
        ) -> RunControl {
            if matches!(m, Milestone::DowntimeDeferred(_)) && self.at.is_none() {
                self.at = Some(now);
                return RunControl::Stop;
            }
            RunControl::Continue
        }
    }

    let res = ResilienceConfig {
        downtime_limit_ms: Some(1.0),
        downtime_extra_rounds: 3,
        ..ResilienceConfig::default()
    };
    let mut sim = Engine::new(EngineConfig {
        resilience: Some(res),
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    let vm = sim
        .add_vm(
            0,
            &WorkloadSpec::HotspotWrite {
                offset: 0,
                region_blocks: 64,
                block: 256 * 1024,
                count: 20000,
                theta: 0.8,
                think_secs: 0.005,
                seed: 13,
            },
            StrategyKind::Precopy,
            SimTime::ZERO,
        )
        .expect("vm");
    let job = sim.schedule_migration(vm, 1, secs(1.0)).expect("job");
    // A degraded destination link keeps rounds long, so plenty of
    // memory dirties before each stop estimate.
    sim.schedule_fault(
        secs(0.5),
        FaultKind::LinkDegrade {
            node: 1,
            factor: 0.1,
        },
    )
    .expect("valid");
    let mut trap = DeferralTrap::default();
    sim.run_until_observed(secs(600.0), &mut trap);
    let deferred_at = trap.at.expect("the hot guest must defer its switchover");

    // Cancel inside the deferral round: the record's `copy` holds a
    // `CopyKind::Deferral`, the backlog riding a live copy round right
    // now.
    sim.cancel_migration(job).expect("cancellable");
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Failed));
    let p = sim.job_progress(job).expect("progress");
    assert_eq!(p.failure, Some(lsm_core::FailureReason::Cancelled));
    // The guest never paused in the deferral window, so the stamped
    // downtime must be (near) zero — mis-attributed stop backlog would
    // show up here as phantom downtime.
    assert!(
        p.downtime.as_secs_f64() < 0.05,
        "phantom downtime stamped by the cancelled deferral: {:?}",
        p.downtime
    );
    let (recorded, expected) = sim.sla_audit(0).expect("migration state exists");
    assert!(
        (recorded - expected).abs() < 1e-9,
        "stale degradation slope after cancel: {recorded} vs {expected}"
    );

    // A successor migration must start with a clean slate: no inherited
    // stop round, a real pre-copy, and an invariant-clean run.
    let retry = sim
        .schedule_migration(vm, 2, secs(deferred_at.as_secs_f64() + 1.0))
        .expect("successor is legal after a terminal job");
    let mut obs = checker();
    let report = sim.run_until_observed(secs(900.0), &mut obs);
    obs.assert_clean("cancel during deferral");
    assert_eq!(sim.job_status(retry), Some(MigrationStatus::Completed));
    let rec = report
        .migrations
        .iter()
        .find(|m| m.completed)
        .expect("successor record");
    assert_eq!(rec.consistent, Some(true));
    assert!(
        rec.mem_rounds > 1,
        "successor must run a real pre-copy, not an inherited stop round"
    );
    assert_eq!(report.vms[0].final_host, 2);
}
