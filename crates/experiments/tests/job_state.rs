//! Pins on the orchestration state a job and a VM own: the one deadline
//! guard (a retry supersedes the deadline it was armed under), the one
//! admission-slot release (a retry and a re-plan each give their slot
//! back under a cap of one), and the live job a VM keeps through a
//! retry's backoff. Every run goes under the invariant checker, whose
//! `admission-accounting` law also sees a leaked slot.
//!
//! The runs share `chaos_storm.toml`'s cluster and one 48 MiB
//! sequential writer per VM, migrated off node 0 at 1.0 s.

use lsm_check::{CheckConfig, InvariantObserver};
use lsm_core::{
    AttemptReason, AutonomicConfig, Engine, EngineError, FaultKind, JobId, MigrationProgress,
    MigrationStatus, Observer, OrchestratorConfig, RebalanceTrigger, ReplanReason, RequestIntent,
    ResilienceConfig, RetryPolicy, RunControl, RunReport, SkipReason, StrategyKind, VmId,
};
use lsm_experiments::resilience::chaos_storm_spec;
use lsm_experiments::scenario::{
    build_scenario, run_scenario_with, FaultSpec, MigrationSpec, ScenarioSpec, VmSpec,
};
use lsm_netsim::SolverMode;
use lsm_simcore::time::SimTime;
use lsm_simcore::units::MIB;
use lsm_workloads::WorkloadSpec;

fn checker() -> InvariantObserver {
    InvariantObserver::with_config(CheckConfig {
        deep_scan_interval: 2048,
        ..CheckConfig::default()
    })
}

/// A 48 MiB sequential writer in 1 MiB blocks with 50 ms think time.
fn writer(node: u32) -> VmSpec {
    VmSpec::new(
        node,
        WorkloadSpec::SeqWrite {
            offset: 0,
            total: 48 * MIB,
            block: MIB,
            think_secs: 0.05,
        },
    )
}

fn migration(vm: u32, dest: u32, at_secs: f64, deadline_secs: Option<f64>) -> MigrationSpec {
    MigrationSpec {
        vm,
        dest,
        at_secs,
        deadline_secs,
    }
}

/// `chaos_storm.toml`'s cluster with one writer on node 0, migrated to
/// node 1 at 1.0 s (with `deadline_secs`, if given).
fn one_writer(name: &str, deadline_secs: Option<f64>) -> ScenarioSpec {
    ScenarioSpec {
        name: Some(name.to_string()),
        cluster: Some(chaos_storm_spec().cluster_config()),
        orchestrator: None,
        autonomic: None,
        resilience: None,
        qos: None,
        strategy: StrategyKind::Hybrid,
        grouped: false,
        vms: vec![writer(0)],
        migrations: vec![migration(0, 1, 1.0, deadline_secs)],
        requests: None,
        faults: None,
        cancellations: None,
        horizon_secs: 300.0,
    }
}

/// [`one_writer`] without a deadline, under an admission cap of one,
/// plus a second writer on node 2 whose move to node 3 at 1.1 s waits
/// for the first job's slot.
fn two_writers_cap_one(name: &str) -> ScenarioSpec {
    let mut spec = one_writer(name, None);
    spec.orchestrator = Some(OrchestratorConfig {
        max_concurrent: Some(1),
        ..OrchestratorConfig::default()
    });
    spec.vms.push(writer(2));
    spec.migrations.push(migration(1, 3, 1.1, None));
    spec
}

/// Retry with a short backoff: 0.5 s, then 1.0 s.
fn short_backoff() -> ResilienceConfig {
    ResilienceConfig {
        retry: RetryPolicy {
            backoff_secs: 0.5,
            backoff_cap_secs: 1.0,
            ..RetryPolicy::default()
        },
        ..ResilienceConfig::default()
    }
}

/// A 0.3 s transfer stall of VM 0 at 1.2 s.
fn stall_at_1_2() -> Vec<FaultSpec> {
    vec![FaultSpec {
        at_secs: 1.2,
        kind: FaultKind::TransferStall { vm: 0, secs: 0.3 },
    }]
}

/// The checker, stopping the run the instant job `ends` ends.
struct CheckedUntil {
    check: InvariantObserver,
    ends: JobId,
}

impl Observer for CheckedUntil {
    fn on_status(
        &mut self,
        job: JobId,
        status: MigrationStatus,
        now: SimTime,
        progress: &MigrationProgress,
    ) -> RunControl {
        let control = self.check.on_status(job, status, now, progress);
        if job == self.ends && status.is_terminal() {
            return RunControl::Stop;
        }
        control
    }

    fn on_tick(&mut self, eng: &Engine) -> RunControl {
        self.check.on_tick(eng)
    }

    fn on_finish(&mut self, eng: &Engine) {
        self.check.on_finish(eng);
    }
}

fn run_checked(name: &str, spec: &ScenarioSpec) -> RunReport {
    let run = run_scenario_with(spec, 1, SolverMode::Incremental, checker)
        .unwrap_or_else(|e| panic!("{name}: scenario rejected: {e}"));
    for obs in &run.observers {
        obs.assert_clean(name);
    }
    run.report
}

/// A retry supersedes the deadline it was armed under. The stall at
/// 1.2 s retries the job, whose second attempt starts at 1.7 s under a
/// fresh deadline (4.7 s). The original deadline still fires at 4.0 s,
/// inside the second attempt, and must be ignored: the job completes
/// after its one stall retry. Honouring the stale fire would retry the
/// job again for "deadline exceeded" and, out of attempts at the fresh
/// deadline, fail it with `DeadlineExceeded`.
#[test]
fn deadline_superseded_by_a_retry_is_ignored() {
    let mut spec = one_writer("stale_deadline", Some(3.0));
    spec.resilience = Some(short_backoff());
    spec.faults = Some(stall_at_1_2());
    let r = run_checked("stale_deadline", &spec);
    let m = &r.migrations[0];
    assert_eq!(m.status, MigrationStatus::Completed, "{:?}", m.failure);
    let row = r.resilience.iter().find(|j| j.job == 0).expect("retried");
    let reasons: Vec<_> = row.attempts.iter().map(|a| a.reason).collect();
    assert_eq!(reasons, [AttemptReason::Stalled]);
}

/// A retry gives its admission slot back. Under a cap of one, job 1
/// waits from 1.1 s; job 0's stall retry at 1.2 s frees the slot and
/// job 1 is admitted in the same instant. Job 0 re-admits once job 1
/// is done, and both complete. A leaked slot leaves both `Queued`.
#[test]
fn retry_gives_its_admission_slot_back() {
    let mut spec = two_writers_cap_one("slot_retry");
    spec.resilience = Some(short_backoff());
    spec.faults = Some(stall_at_1_2());
    let r = run_checked("slot_retry", &spec);
    for (i, m) in r.migrations.iter().enumerate() {
        assert_eq!(m.status, MigrationStatus::Completed, "job {i}");
    }
    let admitted = r
        .planner
        .iter()
        .find(|d| d.job == 1)
        .expect("job 1 admitted");
    assert_eq!(admitted.decided_at, SimTime::from_secs_f64(1.2));
    assert!(admitted.deferred);
    let row = r.resilience.iter().find(|j| j.job == 0).expect("retried");
    assert_eq!(row.attempts.len(), 1);
}

/// A re-plan gives its admission slot back. Under a cap of one, node
/// 1's crash at 1.2 s makes the rebalancer re-place job 0 on node 2;
/// the freed slot admits job 1 at once, and job 0 re-admits after it.
/// Every job completes, including the move the rebalancer starts on its
/// own at 10 s. A leaked slot leaves jobs 0 and 1 `Queued`.
#[test]
fn replan_gives_its_admission_slot_back() {
    let mut spec = two_writers_cap_one("slot_replan");
    spec.autonomic = Some(AutonomicConfig {
        interval_secs: 5.0,
        overload_pressure: 0.95,
        underload_pressure: 0.0,
        hysteresis: 0.01,
        ..AutonomicConfig::default()
    });
    spec.faults = Some(vec![FaultSpec {
        at_secs: 1.2,
        kind: FaultKind::NodeCrash { node: 1 },
    }]);
    let r = run_checked("slot_replan", &spec);
    assert_eq!(r.migrations.len(), 3, "the rebalancer starts one move");
    for (i, m) in r.migrations.iter().enumerate() {
        assert_eq!(m.status, MigrationStatus::Completed, "job {i}");
    }
    let replan = &r.rebalance[0];
    assert!(matches!(
        replan.trigger,
        RebalanceTrigger::Replan {
            job: 0,
            reason: ReplanReason::DestinationCrashed { node: 1 },
        }
    ));
    assert_eq!(replan.dest, Some(2));
    let admitted = r
        .planner
        .iter()
        .find(|d| d.job == 1)
        .expect("job 1 admitted");
    assert_eq!(admitted.decided_at, SimTime::from_secs_f64(1.2));
}

/// A job in retry backoff is still its VM's live job. Its status is
/// `Queued` and its aborted attempt sits in the VM's slot, yet while it
/// waits the VM can be given no other job: a direct schedule is a
/// duplicate, an evacuation of its host skips it as already migrating,
/// and the rebalancer does not count it among the candidates of its
/// overloaded host. Once the job is terminal, the VM may migrate again.
#[test]
fn job_in_retry_backoff_keeps_its_vm() {
    let mut spec = one_writer("live_job_backoff", None);
    // A second writer on node 0 keeps its host pressured and gives the
    // rebalancer a candidate to record.
    spec.vms.push(writer(0));
    spec.resilience = Some(ResilienceConfig {
        retry: RetryPolicy {
            backoff_secs: 5.0,
            backoff_cap_secs: 10.0,
            ..RetryPolicy::default()
        },
        ..ResilienceConfig::default()
    });
    spec.autonomic = Some(AutonomicConfig {
        interval_secs: 2.0,
        overload_pressure: 0.01,
        underload_pressure: 0.0,
        hysteresis: 0.0,
        ..AutonomicConfig::default()
    });
    spec.faults = Some(stall_at_1_2());
    let secs = SimTime::from_secs_f64;
    let mut sim = build_scenario(&spec).expect("builds").into_engine();
    let job = sim.job_ids()[0];
    let mut obs = CheckedUntil {
        check: checker(),
        ends: job,
    };

    // The stall at 1.2 s retries the job; its timer fires at 6.2 s.
    sim.run_until_observed(secs(3.0), &mut obs);
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Queued));
    assert!(sim.job_retry_pending(job));
    let aborted = sim.job_progress(job).expect("job exists");
    assert!(
        aborted.mem_rounds > 0,
        "the aborted attempt is the VM's record"
    );
    let now = sim.now();
    assert!(matches!(
        sim.schedule_migration(VmId(0), 2, now),
        Err(EngineError::DuplicateMigration { vm: 0 })
    ));
    let evacuation = sim
        .submit_request(now, RequestIntent::Evacuate { node: 0 })
        .expect("valid request");

    sim.run_until_observed(secs(6.0), &mut obs);
    assert_eq!(
        sim.job_status(job),
        Some(MigrationStatus::Queued),
        "still backing off"
    );
    let skip = sim
        .planner_skips()
        .iter()
        .find(|s| s.request == evacuation && s.vm == 0)
        .expect("the evacuation looked at vm 0");
    assert_eq!(skip.reason, SkipReason::AlreadyMigrating);
    let in_backoff: Vec<_> = sim
        .rebalance_actions()
        .iter()
        .filter(|a| a.at > secs(1.2))
        .collect();
    assert!(!in_backoff.is_empty(), "the 2 s tick acts on node 0");
    for a in in_backoff {
        assert!(
            !a.candidates.contains(&0),
            "vm 0 listed as a candidate at {:?} while its job backs off",
            a.at
        );
    }

    // Stop the instant the job ends, before the rebalancer can give
    // the VM a job of its own. The job lands on node 2: the rebalancer
    // re-plans it off node 1 once the evacuated second writer loads
    // that node. Node 0, where the VM started, is free to take it back.
    sim.run_until_observed(secs(60.0), &mut obs);
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Completed));
    let now = sim.now();
    let again = sim
        .schedule_migration(VmId(0), 0, now)
        .expect("a VM whose job ended may migrate again");
    obs.ends = again;
    sim.run_until_observed(secs(300.0), &mut obs);
    assert_eq!(sim.job_status(again), Some(MigrationStatus::Completed));
    obs.check.assert_clean("live_job_backoff");
}
