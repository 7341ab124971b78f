//! The fallible orchestration API: every misuse class returns a typed
//! error (never a panic), jobs expose lifecycle + progress mid-run, and
//! observers can watch or abort runs.

use lsm_core::config::ClusterConfig;
use lsm_core::engine::{
    Engine, FaultKind, JobId, MigrationProgress, MigrationStatus, Milestone, Observer,
    RecordingObserver, RunControl,
};
use lsm_core::policy::StrategyKind;
use lsm_core::{EngineConfig, EngineError, OrchestratorConfig, PlannerKind, RequestIntent, VmId};
use lsm_simcore::units::MIB;
use lsm_simcore::{SimDuration, SimTime};
use lsm_workloads::WorkloadSpec;

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn writer() -> WorkloadSpec {
    WorkloadSpec::SeqWrite {
        offset: 0,
        total: 48 * MIB,
        block: MIB,
        think_secs: 0.02,
    }
}

fn engine() -> Engine {
    Engine::new(ClusterConfig::small_test()).expect("small_test validates")
}

// ---------------- error paths ----------------

#[test]
fn out_of_range_node_is_an_error() {
    let mut sim = engine();
    let err = sim
        .add_vm(99, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap_err();
    assert_eq!(err, EngineError::NodeOutOfRange { node: 99, nodes: 4 });
}

#[test]
fn migration_to_out_of_range_dest_is_an_error() {
    let mut sim = engine();
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    let err = sim.schedule_migration(vm, 7, t(1.0)).unwrap_err();
    assert_eq!(err, EngineError::NodeOutOfRange { node: 7, nodes: 4 });
}

#[test]
fn migration_to_current_host_is_an_error() {
    let mut sim = engine();
    let vm = sim
        .add_vm(2, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    let err = sim.schedule_migration(vm, 2, t(1.0)).unwrap_err();
    assert_eq!(err, EngineError::SameHost { vm: 0, node: 2 });
}

#[test]
fn second_migration_of_same_vm_is_an_error() {
    let mut sim = engine();
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    sim.schedule_migration(vm, 1, t(1.0)).unwrap();
    let err = sim.schedule_migration(vm, 2, t(5.0)).unwrap_err();
    assert_eq!(err, EngineError::DuplicateMigration { vm: 0 });
}

#[test]
fn zero_capacity_configs_are_errors() {
    for (cfg, needle) in [
        (
            ClusterConfig {
                nodes: 0,
                ..ClusterConfig::small_test()
            },
            "zero nodes",
        ),
        (
            ClusterConfig {
                disk_bw: 0.0,
                ..ClusterConfig::small_test()
            },
            "disk_bw",
        ),
        (
            ClusterConfig {
                nic_bw: f64::NAN,
                ..ClusterConfig::small_test()
            },
            "nic_bw",
        ),
        (
            ClusterConfig {
                chunk_size: 0,
                ..ClusterConfig::small_test()
            },
            "chunk_size",
        ),
        (
            ClusterConfig {
                image_size: 63 * MIB + 1,
                ..ClusterConfig::small_test()
            },
            "not a multiple",
        ),
        (
            ClusterConfig {
                transfer_window: 0,
                ..ClusterConfig::small_test()
            },
            "transfer_window",
        ),
        (
            ClusterConfig {
                repo_replication: 99,
                ..ClusterConfig::small_test()
            },
            "repo_replication",
        ),
    ] {
        let err = Engine::new(cfg).err().expect("rejected");
        match &err {
            EngineError::InvalidConfig { reason } => {
                assert!(reason.contains(needle), "expected `{needle}` in `{reason}`");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn oversized_workload_is_an_error() {
    let mut sim = engine();
    let err = sim
        .add_vm(
            0,
            &WorkloadSpec::SeqWrite {
                offset: 0,
                total: 10 << 30,
                block: MIB,
                think_secs: 0.0,
            },
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::WorkloadExceedsImage { .. }));
}

#[test]
fn group_workload_outside_group_is_an_error() {
    let mut sim = engine();
    let err = sim
        .add_vm(
            0,
            &WorkloadSpec::cm1_small(0, 4, 2, 2),
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::GroupWorkloadOutsideGroup { .. }));
}

#[test]
fn group_rank_mismatch_is_an_error() {
    let mut sim = engine();
    // cm1_small declares 4 ranks but only 2 members are deployed.
    let placements: Vec<(u32, WorkloadSpec)> = (0..2)
        .map(|r| (r, WorkloadSpec::cm1_small(r, 4, 2, 2)))
        .collect();
    let err = sim
        .add_group(&placements, StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::GroupRankMismatch {
            expected: 4,
            got: 2
        }
    );
}

#[test]
fn empty_group_is_an_error() {
    let mut sim = engine();
    let err = sim
        .add_group(&[], StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap_err();
    assert_eq!(err, EngineError::EmptyGroup);
}

#[test]
fn engine_level_misuse_is_also_fallible() {
    // Misuse classes back to back on one engine: each is rejected
    // without a panic and leaves the engine usable for the next call.
    let mut eng = Engine::new(ClusterConfig::small_test()).unwrap();
    assert!(matches!(
        eng.add_vm(9, &writer(), StrategyKind::Hybrid, SimTime::ZERO),
        Err(EngineError::NodeOutOfRange { node: 9, .. })
    ));
    let vm = eng
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    assert!(eng.schedule_migration(vm, 0, t(1.0)).is_err()); // same host
    assert!(eng.schedule_migration(vm, 9, t(1.0)).is_err()); // bad dest
    eng.schedule_migration(vm, 1, t(1.0)).unwrap();
    assert!(matches!(
        eng.schedule_migration(vm, 2, t(2.0)),
        Err(EngineError::DuplicateMigration { vm: 0 })
    ));
}

// ---------------- jobs, progress, observers ----------------

#[test]
fn job_lifecycle_reaches_completed_with_monotone_statuses() {
    let mut sim = engine();
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    let job = sim.schedule_migration(vm, 1, t(1.0)).unwrap();
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Queued));

    let mut rec = RecordingObserver::default();
    let report = sim.run_until_observed(t(300.0), &mut rec);

    assert_eq!(sim.job_status(job), Some(MigrationStatus::Completed));
    let statuses: Vec<MigrationStatus> = rec.statuses.iter().map(|&(_, _, s)| s).collect();
    assert_eq!(
        statuses,
        vec![
            MigrationStatus::TransferringMemory,
            MigrationStatus::SwitchingOver,
            MigrationStatus::TransferringStorage,
            MigrationStatus::Completed,
        ],
        "hybrid lifecycle order"
    );
    // Observer times are monotone and the milestones mirror the report.
    assert!(rec.statuses.windows(2).all(|w| w[0].0 <= w[1].0));
    let m = report.the_migration();
    assert_eq!(m.status, MigrationStatus::Completed);
    assert!(rec
        .milestones
        .iter()
        .any(|&(_, _, ms)| ms == Milestone::ControlTransferred));
    assert_eq!(
        rec.milestones.len(),
        m.timeline.len(),
        "every timeline entry was observed"
    );
}

#[test]
fn progress_is_queryable_mid_run() {
    let mut sim = engine();
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    let job = sim.schedule_migration(vm, 1, t(1.0)).unwrap();

    // Step the horizon: query between steps while the job is live.
    let mut seen_running = false;
    let mut last_pushed = 0;
    for step in 1..=60 {
        sim.run_until(t(step as f64 * 0.5));
        let p = sim.job_progress(job).expect("job exists");
        assert!(p.chunks_pushed >= last_pushed, "push counter is monotone");
        last_pushed = p.chunks_pushed;
        if !p.status.is_terminal() && p.status != MigrationStatus::Queued {
            seen_running = true;
            assert!(p.eta.is_some(), "running job has an ETA estimate");
        }
    }
    assert!(seen_running, "never observed the job mid-flight");
    sim.run_until(t(300.0));
    let p = sim.job_progress(job).unwrap();
    assert_eq!(p.status, MigrationStatus::Completed);
    assert_eq!(p.chunks_remaining, 0);
    assert!(p.storage_fraction() >= 1.0 - 1e-12);
    assert!(p.chunks_pushed > 0);
}

/// Aborts the run at the first stop-and-copy.
struct AbortAtSwitchover {
    aborted_at: Option<SimTime>,
}

impl Observer for AbortAtSwitchover {
    fn on_status(
        &mut self,
        _job: JobId,
        status: MigrationStatus,
        now: SimTime,
        _p: &MigrationProgress,
    ) -> RunControl {
        if status == MigrationStatus::SwitchingOver {
            self.aborted_at = Some(now);
            return RunControl::Stop;
        }
        RunControl::Continue
    }
}

#[test]
fn observer_can_abort_a_run() {
    let mut sim = engine();
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    let job = sim.schedule_migration(vm, 1, t(1.0)).unwrap();
    let mut obs = AbortAtSwitchover { aborted_at: None };
    let report = sim.run_until_observed(t(300.0), &mut obs);

    let stopped = obs.aborted_at.expect("abort fired");
    assert_eq!(sim.now(), stopped, "run stopped at the abort instant");
    assert!(report.horizon < t(300.0), "did not run to the horizon");
    let m = report.the_migration();
    assert_eq!(m.status, MigrationStatus::SwitchingOver);
    assert!(!m.completed);
    // The same simulation can be resumed past the abort point.
    let report = sim.run_until(t(300.0));
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Completed));
    assert!(report.the_migration().completed);
}

#[test]
fn queued_beyond_horizon_stays_queued_in_report() {
    let mut sim = engine();
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    let job = sim.schedule_migration(vm, 1, t(500.0)).unwrap();
    let report = sim.run_until(t(10.0));
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Queued));
    let m = report.the_migration();
    assert_eq!(m.status, MigrationStatus::Queued);
    assert!(!m.completed);
    assert_eq!(m.requested_at, t(500.0));
}

#[test]
fn vm_can_migrate_again_after_its_job_is_terminal() {
    let mut sim = engine();
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    let first = sim.schedule_migration(vm, 1, t(1.0)).unwrap();
    // Two live jobs for one VM are still a duplicate.
    assert!(matches!(
        sim.schedule_migration(lsm_hypervisor::VmId(0), 2, t(5.0)),
        Err(EngineError::DuplicateMigration { vm: 0 })
    ));
    sim.run_until(t(300.0));
    assert_eq!(sim.job_status(first), Some(MigrationStatus::Completed));
    // Once terminal, the VM may migrate again (stepped-horizon workflow).
    let second = sim
        .schedule_migration(lsm_hypervisor::VmId(0), 0, t(310.0))
        .expect("re-migration after completion");
    let report = sim.run_until(t(900.0));
    assert_eq!(sim.job_status(first), Some(MigrationStatus::Completed));
    assert_eq!(sim.job_status(second), Some(MigrationStatus::Completed));
    assert_eq!(report.migrations.len(), 2);
    // Each record keeps its own job's data: opposite directions, both
    // consistent, and the first record survived the archive move.
    assert!(report.migrations.iter().all(|m| m.completed));
    assert!(report.migrations.iter().all(|m| m.consistent == Some(true)));
    assert_eq!(report.vms[0].final_host, 0, "migrated back home");
    let p1 = sim.job_progress(first).unwrap();
    let p2 = sim.job_progress(second).unwrap();
    assert_eq!(p1.dest, 1);
    assert_eq!(p2.dest, 0);
    assert!(
        p1.chunks_pushed > 0,
        "first job's archive kept its counters"
    );
}

#[test]
fn invalid_workload_parameters_are_errors_not_panics() {
    let mut sim = engine();
    // Zero block size would assert inside the Ior constructor.
    let err = sim
        .add_vm(
            0,
            &WorkloadSpec::Ior(lsm_workloads::IorParams {
                file_size: MIB,
                block_size: 0,
                iterations: 1,
                file_offset: 0,
                fsync_per_phase: false,
            }),
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidWorkload { .. }), "{err}");
    // Zipf exponent out of range would silently misbehave.
    let err = sim
        .add_vm(
            0,
            &WorkloadSpec::HotspotWrite {
                offset: 0,
                region_blocks: 8,
                block: MIB,
                count: 10,
                theta: 1.5,
                think_secs: 0.0,
                seed: 1,
            },
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .unwrap_err();
    assert!(err.to_string().contains("theta"), "{err}");
    // Non-rectangular CM1 decomposition would assert in the group path.
    let placements: Vec<(u32, WorkloadSpec)> = (0..3)
        .map(|r| (r, WorkloadSpec::cm1_small(r, 3, 2, 1)))
        .collect();
    let err = sim
        .add_group(&placements, StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidWorkload { .. }), "{err}");
}

#[test]
fn per_vm_mixed_strategies_coexist() {
    let mut sim = engine();
    let a = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    let c = sim
        .add_vm(1, &writer(), StrategyKind::Postcopy, SimTime::ZERO)
        .unwrap();
    let ja = sim.schedule_migration(a, 2, t(1.0)).unwrap();
    let jc = sim.schedule_migration(c, 3, t(2.0)).unwrap();
    sim.run_until(t(600.0));
    for job in [ja, jc] {
        assert_eq!(sim.job_status(job), Some(MigrationStatus::Completed));
    }
    let pa = sim.job_progress(ja).unwrap();
    let pc = sim.job_progress(jc).unwrap();
    assert_eq!(pa.strategy, StrategyKind::Hybrid);
    assert_eq!(pc.strategy, StrategyKind::Postcopy);
    assert!(pa.chunks_pushed > 0, "hybrid pushes");
    assert_eq!(pc.chunks_pushed, 0, "postcopy never pushes");
    assert!(pc.chunks_pulled > 0, "postcopy pulls");
}

// ---------------- instants before the clock ----------------

/// A simulation run to 10 s: writers on nodes 0 and 1, and a job for VM 0
/// queued at 500 s. VM 1 has no job.
fn run_to_10s(orchestrator: Option<OrchestratorConfig>) -> (Engine, JobId) {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: orchestrator.unwrap_or_default(),
        ..ClusterConfig::small_test().into()
    })
    .unwrap();
    let vm0 = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    sim.add_vm(1, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    let job = sim.schedule_migration(vm0, 2, t(500.0)).unwrap();
    sim.run_until(t(10.0));
    assert_eq!(sim.now(), t(10.0));
    (sim, job)
}

/// The error for a `what` scheduled at 5 s, before the clock.
fn at_5s_before_the_clock(what: &str) -> EngineError {
    EngineError::InvalidTime {
        what: what.to_string(),
        value: 5.0,
    }
}

#[test]
fn fault_before_the_clock_is_an_error() {
    let (mut sim, _) = run_to_10s(None);
    let degrade = FaultKind::LinkDegrade {
        node: 0,
        factor: 0.5,
    };
    assert_eq!(
        sim.schedule_fault(t(5.0), degrade),
        Err(at_5s_before_the_clock("fault"))
    );
    // The clock itself is legal, and the run goes on from it.
    sim.schedule_fault(t(10.0), degrade).unwrap();
    sim.run_until(t(20.0));
    assert_eq!(sim.now(), t(20.0));
}

#[test]
fn migration_before_the_clock_is_an_error() {
    let (mut sim, _) = run_to_10s(None);
    assert_eq!(
        sim.schedule_migration(VmId(1), 3, t(5.0)),
        Err(at_5s_before_the_clock("migration"))
    );
    assert_eq!(sim.job_ids().len(), 1, "the rejected job was not added");
    sim.schedule_migration(VmId(1), 3, t(10.0)).unwrap();
}

#[test]
fn migration_with_deadline_before_the_clock_is_an_error() {
    let (mut sim, _) = run_to_10s(None);
    let deadline = Some(SimDuration::from_secs(60));
    assert_eq!(
        sim.schedule_migration_with_deadline(VmId(1), 3, t(5.0), deadline),
        Err(at_5s_before_the_clock("migration"))
    );
}

/// Under a telemetry planner too, whose strategy choice comes later.
#[test]
fn adaptive_migration_before_the_clock_is_an_error() {
    let adaptive = OrchestratorConfig {
        planner: PlannerKind::Adaptive,
        ..OrchestratorConfig::default()
    };
    let (mut sim, _) = run_to_10s(Some(adaptive));
    assert_eq!(
        sim.schedule_migration(VmId(1), 3, t(5.0)),
        Err(at_5s_before_the_clock("migration"))
    );
}

#[test]
fn request_before_the_clock_is_an_error() {
    let (mut sim, _) = run_to_10s(None);
    assert_eq!(
        sim.submit_request(t(5.0), RequestIntent::Evacuate { node: 1 }),
        Err(at_5s_before_the_clock("request"))
    );
}

#[test]
fn cancellation_before_the_clock_is_an_error() {
    let (mut sim, job) = run_to_10s(None);
    assert_eq!(
        sim.schedule_cancellation(t(5.0), job),
        Err(at_5s_before_the_clock("cancellation"))
    );
}

#[test]
fn vm_start_before_the_clock_is_an_error() {
    let (mut sim, _) = run_to_10s(None);
    assert_eq!(
        sim.add_vm(2, &writer(), StrategyKind::Hybrid, t(5.0)),
        Err(at_5s_before_the_clock("VM start"))
    );
    assert_eq!(sim.vm_count(), 2, "the rejected VM was not deployed");
}

#[test]
fn group_start_before_the_clock_is_an_error() {
    let (mut sim, _) = run_to_10s(None);
    let placements = [(2, writer()), (3, writer())];
    assert_eq!(
        sim.add_group(&placements, StrategyKind::Hybrid, t(5.0)),
        Err(at_5s_before_the_clock("group start"))
    );
    assert_eq!(sim.vm_count(), 2, "no member of the group was deployed");
}

// ---------------- instants past the end of the clock ----------------

/// The last whole second before `SimTime::FAR_FUTURE` (about 584 years).
const CLOCK_END_SECS: f64 = 18_446_744_073.0;

#[test]
fn vm_starting_at_the_end_of_the_clock_is_no_overflow() {
    let mut sim = engine();
    let late = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, t(CLOCK_END_SECS))
        .unwrap();
    let job = sim.schedule_migration(late, 1, t(1.0)).unwrap();
    sim.run_until(t(300.0));
    assert_eq!(sim.now(), t(300.0));
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Completed));
    // A VM starting 0.2 s before the clock ends runs out of instants:
    // every later event would fall past the end, so the run stops.
    let mut eng = Engine::new(ClusterConfig::small_test()).unwrap();
    let last = SimTime::from_nanos(u64::MAX - 200_000_000);
    eng.add_vm(0, &writer(), StrategyKind::Hybrid, last)
        .unwrap();
    eng.run_until(SimTime::FAR_FUTURE);
    assert!(eng.events_processed() < 100, "{}", eng.events_processed());
}

#[test]
fn deadline_past_the_end_of_the_clock_is_no_overflow() {
    let mut sim = engine();
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    let job = sim
        .schedule_migration_with_deadline(
            vm,
            1,
            t(18_446_744_000.0),
            Some(SimDuration::from_secs(100)),
        )
        .unwrap();
    sim.run_until(t(300.0));
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Queued));
}

#[test]
fn stall_past_the_end_of_the_clock_is_no_overflow() {
    let mut sim = engine();
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    let job = sim.schedule_migration(vm, 1, t(1.0)).unwrap();
    sim.schedule_fault(t(1.5), FaultKind::TransferStall { vm: 0, secs: 1e18 })
        .unwrap();
    sim.run_until(t(300.0));
    assert_eq!(sim.now(), t(300.0));
    // The stall never clears, so the storage transfer never finishes.
    assert!(!sim.job_status(job).unwrap().is_terminal());
}
