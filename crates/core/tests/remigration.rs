//! A VM migrated again keeps one record per job. Each job's
//! `MigrationRecord` and `job_progress` describe that job's own last
//! attempt, whatever jobs the VM is given later; a job that never
//! started reads empty.

use lsm_core::config::ClusterConfig;
use lsm_core::engine::{FailureReason, FaultKind, JobId, MigrationRecord, MigrationStatus};
use lsm_core::policy::StrategyKind;
use lsm_core::{Engine, EngineConfig, ResilienceConfig, VmId};
use lsm_simcore::units::MIB;
use lsm_simcore::{SimDuration, SimTime};
use lsm_workloads::WorkloadSpec;
use proptest::prelude::*;

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn writer(mib: u64) -> WorkloadSpec {
    WorkloadSpec::SeqWrite {
        offset: 0,
        total: mib * MIB,
        block: MIB,
        think_secs: 0.02,
    }
}

/// The small test cluster with one 48 MiB writer on node 0, whose job 0
/// to node 1 at 1 s has completed by 300 s (under `[resilience]`
/// defaults when `resilience`). Returns the simulation and job 0's
/// record and progress, serialized.
fn first_job_done(resilience: bool) -> (Engine, String, String) {
    let mut sim = Engine::new(EngineConfig {
        resilience: resilience.then(ResilienceConfig::default),
        ..ClusterConfig::small_test().into()
    })
    .unwrap();
    let vm = sim
        .add_vm(0, &writer(48), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    sim.schedule_migration(vm, 1, t(1.0)).unwrap();
    let report = sim.run_until(t(300.0));
    let first = &report.migrations[0];
    assert!(first.completed && first.pushed_chunks > 0);
    let progress = sim.job_progress(JobId(0)).unwrap();
    (
        sim,
        serde_json::to_string(first).unwrap(),
        serde_json::to_string(&progress).unwrap(),
    )
}

/// The record of a job that never started: requested at its scheduled
/// instant, nothing moved, no milestone.
#[track_caller]
fn assert_never_started(rec: &MigrationRecord, at: SimTime) {
    assert_eq!(rec.requested_at, at);
    assert!(!rec.completed);
    assert_eq!(rec.completed_at, None);
    assert_eq!(
        (rec.mem_rounds, rec.pushed_chunks, rec.pulled_chunks),
        (0, 0, 0)
    );
    assert!(rec.timeline.is_empty());
}

/// A re-migration scheduled beyond the horizon: the queued job reads
/// empty and job 0 keeps its record and progress.
#[test]
fn a_queued_remigration_leaves_the_finished_record_alone() {
    let (mut sim, first, progress) = first_job_done(false);
    let next = sim.schedule_migration(VmId(0), 2, t(1000.0)).unwrap();
    let report = sim.run_until(t(500.0));
    assert_eq!(serde_json::to_string(&report.migrations[0]).unwrap(), first);
    assert_eq!(
        serde_json::to_string(&sim.job_progress(JobId(0)).unwrap()).unwrap(),
        progress
    );
    assert_eq!(report.migrations[1].status, MigrationStatus::Queued);
    assert_never_started(&report.migrations[1], t(1000.0));
    let p = sim.job_progress(next).unwrap();
    assert_eq!(p.status, MigrationStatus::Queued);
    assert_eq!((p.source, p.dest), (1, 2));
    assert_eq!((p.mem_rounds, p.chunks_pushed, p.chunks_pulled), (0, 0, 0));
}

/// Node 2 crashes while job 1 toward it is still queued; job 2 then
/// moves the VM to node 3. The failed job carries no record, and job 0
/// keeps its own.
#[test]
fn a_job_failed_before_its_start_takes_no_record() {
    let (mut sim, first, progress) = first_job_done(false);
    sim.schedule_fault(t(305.0), FaultKind::NodeCrash { node: 2 })
        .unwrap();
    let failed = sim.schedule_migration(VmId(0), 2, t(310.0)).unwrap();
    sim.run_until(t(320.0));
    assert_eq!(sim.job_status(failed), Some(MigrationStatus::Failed));
    let last = sim.schedule_migration(VmId(0), 3, t(330.0)).unwrap();
    let report = sim.run_until(t(900.0));
    assert_eq!(serde_json::to_string(&report.migrations[0]).unwrap(), first);
    assert_eq!(
        serde_json::to_string(&sim.job_progress(JobId(0)).unwrap()).unwrap(),
        progress
    );
    let rec = &report.migrations[failed.0 as usize];
    assert_eq!(
        rec.failure,
        Some(FailureReason::DestinationCrashed { node: 2 })
    );
    assert_never_started(rec, t(310.0));
    assert_eq!(
        sim.job_progress(failed).unwrap().source,
        1,
        "scheduled from node 1"
    );
    let rec = &report.migrations[last.0 as usize];
    assert!(rec.completed);
    assert_eq!(rec.requested_at, t(330.0));
}

/// As above under `[resilience]`, with a stall that makes job 2 retry:
/// its aborted first attempt is replaced by the second, and lands on no
/// other job.
#[test]
fn a_retried_attempt_lands_on_no_other_job() {
    let (mut sim, first, progress) = first_job_done(true);
    sim.schedule_fault(t(305.0), FaultKind::NodeCrash { node: 2 })
        .unwrap();
    let failed = sim.schedule_migration(VmId(0), 2, t(310.0)).unwrap();
    sim.run_until(t(320.0));
    let last = sim.schedule_migration(VmId(0), 3, t(330.0)).unwrap();
    sim.schedule_fault(t(330.5), FaultKind::TransferStall { vm: 0, secs: 2.0 })
        .unwrap();
    let report = sim.run_until(t(900.0));
    assert_eq!(sim.job_attempts(last).len(), 1, "the stall retried");
    assert_eq!(serde_json::to_string(&report.migrations[0]).unwrap(), first);
    assert_eq!(
        serde_json::to_string(&sim.job_progress(JobId(0)).unwrap()).unwrap(),
        progress
    );
    assert_never_started(&report.migrations[failed.0 as usize], t(310.0));
    let rec = &report.migrations[last.0 as usize];
    assert!(rec.completed);
    assert!(rec.requested_at > t(330.5), "the second attempt's record");
}

// ---------------- stepped horizons ----------------

/// What else happens to a step's job.
#[derive(Clone, Debug)]
enum Trouble {
    None,
    /// Abort deadline, seconds.
    Deadline(f64),
    /// The destination crashes halfway to the start and is restored 5 s
    /// after it.
    CrashDest,
    /// A transfer stall `secs` long, `after` seconds past the start.
    Stall {
        after: f64,
        secs: f64,
    },
    /// A cancellation `after` seconds past the start.
    Cancel {
        after: f64,
    },
}

/// One stepped horizon: schedule a job, then run.
#[derive(Clone, Debug)]
struct Step {
    /// The VM to migrate; the other one if this one's last job is live.
    vm: usize,
    /// The destination is `(host + dest_offset) % 4`.
    dest_offset: u32,
    /// Seconds from the clock to the job's start.
    delay: f64,
    /// Seconds from the clock to the step's horizon (may fall before the
    /// start: the job is then reported queued).
    run: f64,
    trouble: Trouble,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let trouble = prop_oneof![
        Just(Trouble::None),
        (2.0f64..40.0).prop_map(Trouble::Deadline),
        Just(Trouble::CrashDest),
        (0.0f64..3.0, 0.5f64..5.0).prop_map(|(after, secs)| Trouble::Stall { after, secs }),
        (0.0f64..10.0).prop_map(|after| Trouble::Cancel { after }),
    ];
    (0usize..2, 1u32..4, 0.0f64..30.0, 1.0f64..120.0, trouble).prop_map(
        |(vm, dest_offset, delay, run, trouble)| Step {
            vm,
            dest_offset,
            delay,
            run,
            trouble,
        },
    )
}

#[derive(Clone, Debug)]
struct Plan {
    /// Per VM: its strategy and the MiB its writer writes.
    vms: Vec<(StrategyKind, u64)>,
    resilience: bool,
    steps: Vec<Step>,
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    let vm = (
        prop_oneof![
            2 => Just(StrategyKind::Hybrid),
            1 => Just(StrategyKind::Postcopy),
            1 => Just(StrategyKind::Precopy),
            1 => Just(StrategyKind::Mirror),
        ],
        4u64..32,
    );
    (
        prop::collection::vec(vm, 1..3),
        prop::bool::ANY,
        prop::collection::vec(step_strategy(), 2..7),
    )
        .prop_map(|(vms, resilience, steps)| Plan {
            vms,
            resilience,
            steps,
        })
}

/// Schedule `step`'s job for `v` at `at`, with its trouble.
fn schedule(sim: &mut Engine, v: u32, at: SimTime, step: &Step) -> JobId {
    let now = sim.now();
    let dest = (sim.inspect_vm(v).unwrap().host() + step.dest_offset) % 4;
    let deadline = match step.trouble {
        Trouble::Deadline(secs) => Some(SimDuration::from_secs_f64(secs)),
        _ => None,
    };
    let job = sim
        .schedule_migration_with_deadline(VmId(v), dest, at, deadline)
        .unwrap();
    let after = |s: f64| at + SimDuration::from_secs_f64(s);
    match step.trouble {
        Trouble::None | Trouble::Deadline(_) => {}
        Trouble::CrashDest => {
            let crash_at = now + SimDuration::from_secs_f64(step.delay / 2.0);
            sim.schedule_fault(crash_at, FaultKind::NodeCrash { node: dest })
                .unwrap();
            sim.schedule_fault(after(5.0), FaultKind::NodeRestore { node: dest })
                .unwrap();
        }
        Trouble::Stall { after: s, secs } => {
            let stall = FaultKind::TransferStall { vm: v, secs };
            sim.schedule_fault(after(s), stall).unwrap();
        }
        Trouble::Cancel { after: s } => sim.schedule_cancellation(after(s), job).unwrap(),
    }
    job
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over stepped horizons, each migrating a VM whose last job is
    /// terminal: a job terminal in one report keeps a byte-identical
    /// record and progress in every later one, and no record was
    /// requested before its job's scheduled instant.
    #[test]
    fn finished_jobs_keep_their_records(plan in plan_strategy()) {
        let mut sim = Engine::new(EngineConfig {
            resilience: plan.resilience.then(ResilienceConfig::default),
            ..ClusterConfig::small_test().into()
        })
        .unwrap();
        for (i, &(strategy, mib)) in plan.vms.iter().enumerate() {
            sim.add_vm(i as u32, &writer(mib), strategy, SimTime::ZERO).unwrap();
        }
        let nvms = plan.vms.len();
        let mut last_job: Vec<Option<JobId>> = vec![None; nvms];
        // Per job: its scheduled instant, and its record and progress
        // once it was reported terminal.
        let mut scheduled: Vec<SimTime> = Vec::new();
        let mut terminal: Vec<Option<(String, String)>> = Vec::new();
        for step in &plan.steps {
            let idle = |v: usize| {
                last_job[v].is_none_or(|j| sim.job_status(j).is_some_and(|s| s.is_terminal()))
            };
            if let Some(v) = [step.vm % nvms, (step.vm + 1) % nvms].into_iter().find(|&v| idle(v)) {
                let at = sim.now() + SimDuration::from_secs_f64(step.delay);
                let job = schedule(&mut sim, v as u32, at, step);
                prop_assert_eq!(job.0 as usize, scheduled.len());
                last_job[v] = Some(job);
                scheduled.push(at);
                terminal.push(None);
            }
            let horizon = sim.now() + SimDuration::from_secs_f64(step.run);
            let report = sim.run_until(horizon);
            for (j, rec) in report.migrations.iter().enumerate() {
                prop_assert!(
                    rec.requested_at >= scheduled[j],
                    "job {} was scheduled at {:?} but its record was requested at {:?}",
                    j, scheduled[j], rec.requested_at
                );
                let now = (
                    serde_json::to_string(rec).unwrap(),
                    serde_json::to_string(&sim.job_progress(JobId(j as u32)).unwrap()).unwrap(),
                );
                match &terminal[j] {
                    Some(then) => {
                        prop_assert_eq!(&now.0, &then.0, "job {}'s record changed", j);
                        prop_assert_eq!(&now.1, &then.1, "job {}'s progress changed", j);
                    }
                    None if rec.status.is_terminal() => terminal[j] = Some(now),
                    None => {}
                }
            }
        }
    }
}
