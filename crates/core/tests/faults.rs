//! Fault injection and recovery semantics at the engine level: node
//! crashes (source/destination, before/after control transfer), link
//! degradation windows, transfer stalls with manifest-preserving
//! resume, and migration deadlines with partial-progress reporting.

use lsm_core::config::ClusterConfig;
use lsm_core::engine::Milestone;
use lsm_core::policy::StrategyKind;
use lsm_core::{Engine, FailureReason, FaultKind, MigrationStatus};
use lsm_simcore::time::{SimDuration, SimTime};
use lsm_simcore::units::MIB;
use lsm_workloads::WorkloadSpec;

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn writer() -> WorkloadSpec {
    // Long-lived on purpose: ~48 blocks x 50 ms think keeps the guest
    // writing for several simulated seconds, so every fault in this file
    // lands while both the workload and the migration are in flight.
    WorkloadSpec::SeqWrite {
        offset: 0,
        total: 48 * MIB,
        block: MIB,
        think_secs: 0.05,
    }
}

/// A hybrid migration with a sustained writer, so there is always a
/// storage transfer in flight to interrupt.
fn one_migration(strategy: StrategyKind) -> (Engine, lsm_core::VmId, lsm_core::JobId) {
    let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
    let vm = sim
        .add_vm(0, &writer(), strategy, SimTime::ZERO)
        .expect("vm");
    let job = sim.schedule_migration(vm, 1, secs(1.0)).expect("job");
    (sim, vm, job)
}

#[test]
fn destination_crash_mid_push_fails_cleanly_and_guest_survives() {
    let (mut sim, _vm, job) = one_migration(StrategyKind::Hybrid);
    sim.schedule_fault(secs(1.2), FaultKind::NodeCrash { node: 1 })
        .expect("valid fault");
    let report = sim.run_until(secs(300.0));

    assert_eq!(sim.job_status(job), Some(MigrationStatus::Failed));
    let m = &report.migrations[0];
    assert_eq!(
        m.failure,
        Some(FailureReason::DestinationCrashed { node: 1 })
    );
    assert!(!m.completed);
    // The guest kept running at the source and finished its workload.
    assert_eq!(report.vms[0].final_host, 0);
    assert!(
        report.vms[0].finished_at.is_some(),
        "guest must survive a destination crash"
    );
    assert_eq!(report.vms[0].bytes_written, 48 * MIB);
}

#[test]
fn destination_crash_during_stop_and_copy_resumes_the_guest() {
    // Crash exactly inside the switch-over window: the engine must
    // un-pause the guest at the source instead of stranding it.
    for at in [1.05, 1.5, 2.0, 3.0] {
        let (mut sim, _vm, job) = one_migration(StrategyKind::Hybrid);
        sim.schedule_fault(secs(at), FaultKind::NodeCrash { node: 1 })
            .expect("valid fault");
        let report = sim.run_until(secs(300.0));
        assert_eq!(
            sim.job_status(job),
            Some(MigrationStatus::Failed),
            "at={at}"
        );
        assert!(
            report.vms[0].finished_at.is_some(),
            "guest stranded after crash at t={at}"
        );
    }
}

#[test]
fn source_crash_kills_the_guest_and_job() {
    let (mut sim, _vm, job) = one_migration(StrategyKind::Hybrid);
    sim.schedule_fault(secs(1.2), FaultKind::NodeCrash { node: 0 })
        .expect("valid fault");
    let report = sim.run_until(secs(300.0));

    assert_eq!(sim.job_status(job), Some(MigrationStatus::Failed));
    assert_eq!(
        report.migrations[0].failure,
        Some(FailureReason::SourceCrashed { node: 0 })
    );
    assert!(
        report.vms[0].finished_at.is_none(),
        "the guest died with its host"
    );
}

#[test]
fn source_crash_during_pull_phase_spares_the_guest() {
    // A hotspot writer keeps rewriting a small region: those chunks
    // cross the push `Threshold`, stay behind at the handoff, and give
    // the migration a real pull phase to interrupt.
    let hotspot = || WorkloadSpec::HotspotWrite {
        offset: 0,
        region_blocks: 64,
        block: 256 * 1024,
        count: 2000,
        theta: 0.8,
        think_secs: 0.01,
        seed: 7,
    };
    let one_hotspot_migration = || {
        let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
        let vm = sim
            .add_vm(0, &hotspot(), StrategyKind::Hybrid, SimTime::ZERO)
            .expect("vm");
        let job = sim.schedule_migration(vm, 1, secs(1.0)).expect("job");
        (sim, vm, job)
    };
    // Find the control-transfer instant from a clean run, then crash the
    // source right after it in a second run: the guest (already at the
    // destination) must survive, reads blocked on pulls must unblock,
    // and the job must fail with partial progress.
    let (mut sim, _vm, _job) = one_hotspot_migration();
    let clean = sim.run_until(secs(300.0));
    let control_at = clean.migrations[0].control_at.expect("clean run completes");
    let completed_at = clean.migrations[0]
        .completed_at
        .expect("clean run completes");
    assert!(completed_at > control_at, "hybrid has a pull phase");
    let crash_at =
        control_at.as_secs_f64() + 0.6 * (completed_at.as_secs_f64() - control_at.as_secs_f64());

    let (mut sim, _vm, job) = one_hotspot_migration();
    sim.schedule_fault(
        SimTime::from_secs_f64(crash_at),
        FaultKind::NodeCrash { node: 0 },
    )
    .expect("valid fault");
    let report = sim.run_until(secs(300.0));

    let m = &report.migrations[0];
    if m.status == MigrationStatus::Failed {
        assert_eq!(m.failure, Some(FailureReason::SourceCrashed { node: 0 }));
        assert_eq!(report.vms[0].final_host, 1, "control already moved");
        assert!(
            report.vms[0].finished_at.is_some(),
            "guest at the destination survives a source crash"
        );
        assert!(
            m.pushed_chunks + m.pulled_chunks > 0,
            "partial progress is reported"
        );
        assert_eq!(sim.job_status(job), Some(MigrationStatus::Failed));
    } else {
        // The pull drained before the crash instant in this timing; the
        // migration legitimately completed.
        assert_eq!(m.status, MigrationStatus::Completed);
    }
}

#[test]
fn crash_is_idempotent_and_unrelated_vms_continue() {
    let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
    let _a = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let _bystander = sim
        .add_vm(2, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    sim.schedule_fault(secs(0.5), FaultKind::NodeCrash { node: 0 })
        .expect("valid");
    sim.schedule_fault(secs(0.6), FaultKind::NodeCrash { node: 0 })
        .expect("valid (no-op repeat)");
    let report = sim.run_until(secs(300.0));
    assert!(report.vms[0].finished_at.is_none());
    assert!(
        report.vms[1].finished_at.is_some(),
        "bystander VM unaffected by the crash"
    );
}

#[test]
fn link_degradation_window_slows_the_migration() {
    let run = |with_fault: bool| {
        let (mut sim, _vm, _job) = one_migration(StrategyKind::Hybrid);
        if with_fault {
            sim.schedule_fault(
                secs(1.1),
                FaultKind::LinkDegrade {
                    node: 1,
                    factor: 0.1,
                },
            )
            .expect("valid");
            sim.schedule_fault(secs(6.0), FaultKind::LinkRestore { node: 1 })
                .expect("valid");
        }
        let r = sim.run_until(secs(600.0));
        let m = &r.migrations[0];
        assert_eq!(m.status, MigrationStatus::Completed, "fault={with_fault}");
        assert_eq!(m.consistent, Some(true));
        m.migration_time.expect("completed").as_secs_f64()
    };
    let clean = run(false);
    let degraded = run(true);
    assert!(
        degraded > clean * 1.2,
        "a 10x-degraded window must visibly slow the migration: clean {clean:.2}s vs degraded {degraded:.2}s"
    );
}

#[test]
fn transfer_stall_resumes_from_surviving_manifest() {
    let run = |strategy: StrategyKind, stall: Option<(f64, f64)>| {
        let (mut sim, _vm, _job) = one_migration(strategy);
        if let Some((at, secs_)) = stall {
            sim.schedule_fault(secs(at), FaultKind::TransferStall { vm: 0, secs: secs_ })
                .expect("valid");
        }
        sim.run_until(secs(600.0))
    };
    for strategy in [
        StrategyKind::Hybrid,
        StrategyKind::Postcopy,
        StrategyKind::Precopy,
        StrategyKind::Mirror,
    ] {
        let clean = run(strategy, None);
        // The migration starts at 1.0 s with its first push reads (a
        // batch of 1 MiB takes at least 19 ms on the 55 MB/s disk), so a
        // stall at 1.005 s lands while they sit at the source disk; the
        // one at 1.3 s lands mid-transfer.
        for stall in [(1.005, 0.5), (1.3, 2.0)] {
            let case = format!("{} stall {stall:?}", strategy.label());
            let stalled = run(strategy, Some(stall));
            let (mc, ms) = (&clean.migrations[0], &stalled.migrations[0]);
            assert_eq!(ms.status, MigrationStatus::Completed, "{case}");
            assert_eq!(
                ms.consistent,
                Some(true),
                "{case}: resume must preserve consistency"
            );
            // A stalled run cannot be faster. Finish instants round to the
            // nanosecond, so a stall off the critical path may move the
            // finish by one: mirror's stall at 1.005 s finishes 1 ns before
            // its clean run. Every other case holds exactly.
            let slack = if (strategy, stall.0) == (StrategyKind::Mirror, 1.005) {
                SimDuration::from_nanos(1)
            } else {
                SimDuration::ZERO
            };
            assert!(
                ms.migration_time.unwrap() + slack >= mc.migration_time.unwrap(),
                "{case}: a stalled run cannot be faster"
            );
            // Resume re-sends only what was actually lost in flight: at
            // most one push window's worth of extra chunk transmissions
            // versus the clean run (plus workload-timing noise from the
            // stall window itself).
            let budget = 64; // transfer_window * transfer_batch + generous slack
            assert!(
                ms.pushed_chunks + ms.pulled_chunks <= mc.pushed_chunks + mc.pulled_chunks + budget,
                "{case}: stall re-sent the world: clean {}+{} vs stalled {}+{}",
                mc.pushed_chunks,
                mc.pulled_chunks,
                ms.pushed_chunks,
                ms.pulled_chunks
            );
        }
    }
}

#[test]
fn deadline_aborts_with_partial_progress() {
    let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    // A deadline far too short for a 64 MiB image: the job must abort.
    let job = sim
        .schedule_migration_with_deadline(vm, 1, secs(1.0), Some(SimDuration::from_millis(400)))
        .expect("job");
    let report = sim.run_until(secs(300.0));

    assert_eq!(sim.job_status(job), Some(MigrationStatus::Failed));
    let m = &report.migrations[0];
    assert_eq!(
        m.failure,
        Some(FailureReason::DeadlineExceeded { deadline_secs: 0.4 })
    );
    let progress = sim.job_progress(job).expect("progress");
    assert_eq!(
        progress.failure,
        Some(FailureReason::DeadlineExceeded { deadline_secs: 0.4 })
    );
    // The guest survived the abort and finished its workload at the source.
    assert_eq!(report.vms[0].final_host, 0);
    assert!(report.vms[0].finished_at.is_some());
    // Partial progress is preserved (the timeline shows it started).
    assert!(m.timeline.iter().any(|&(_, ms)| ms == Milestone::Requested));
}

#[test]
fn generous_deadline_never_fires() {
    let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let job = sim
        .schedule_migration_with_deadline(vm, 1, secs(1.0), Some(SimDuration::from_secs(250)))
        .expect("job");
    let report = sim.run_until(secs(300.0));
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Completed));
    assert_eq!(report.migrations[0].consistent, Some(true));
}

#[test]
fn remigration_after_destination_crash_succeeds() {
    // Stepped horizons: fail a migration via destination crash, then
    // schedule a fresh job to a healthy node and let it complete.
    let (mut sim, vm, job) = one_migration(StrategyKind::Hybrid);
    sim.schedule_fault(secs(1.2), FaultKind::NodeCrash { node: 1 })
        .expect("valid");
    sim.run_until(secs(60.0));
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Failed));

    let retry = sim
        .schedule_migration(vm, 2, secs(61.0))
        .expect("re-migration after a terminal job is legal");
    let report = sim.run_until(secs(600.0));
    assert_eq!(sim.job_status(retry), Some(MigrationStatus::Completed));
    let rec = report
        .migrations
        .iter()
        .find(|m| m.status == MigrationStatus::Completed)
        .expect("retry record");
    assert_eq!(rec.consistent, Some(true));
    assert_eq!(report.vms[0].final_host, 2);
}

#[test]
fn fault_plan_validation_rejects_garbage() {
    let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
    let vm = sim
        .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    // Node out of range.
    assert!(sim
        .schedule_fault(secs(1.0), FaultKind::NodeCrash { node: 99 })
        .is_err());
    // Factor outside (0, 1].
    for factor in [0.0, -1.0, 1.5, f64::NAN] {
        assert!(sim
            .schedule_fault(secs(1.0), FaultKind::LinkDegrade { node: 0, factor })
            .is_err());
    }
    // Unknown VM and non-positive stall duration.
    assert!(sim
        .schedule_fault(secs(1.0), FaultKind::TransferStall { vm: 9, secs: 1.0 })
        .is_err());
    assert!(sim
        .schedule_fault(secs(1.0), FaultKind::TransferStall { vm: 0, secs: 0.0 })
        .is_err());
    // Zero deadline.
    assert!(sim
        .schedule_migration_with_deadline(vm, 1, secs(1.0), Some(SimDuration::ZERO))
        .is_err());
}

#[test]
fn crash_runs_are_deterministic() {
    let run = || {
        let (mut sim, _vm, _job) = one_migration(StrategyKind::Hybrid);
        sim.schedule_fault(secs(1.2), FaultKind::NodeCrash { node: 1 })
            .expect("valid");
        sim.schedule_fault(
            secs(0.8),
            FaultKind::LinkDegrade {
                node: 0,
                factor: 0.5,
            },
        )
        .expect("valid");
        let r = sim.run_until(secs(300.0));
        serde_json::to_string_pretty(&r).expect("serializes")
    };
    assert_eq!(run(), run(), "fault runs must be bit-identical");
}

#[test]
fn faults_work_for_every_strategy() {
    for strategy in [
        StrategyKind::Hybrid,
        StrategyKind::Precopy,
        StrategyKind::Mirror,
        StrategyKind::Postcopy,
        StrategyKind::SharedFs,
    ] {
        let (mut sim, _vm, job) = one_migration(strategy);
        sim.schedule_fault(secs(1.15), FaultKind::NodeCrash { node: 1 })
            .expect("valid");
        sim.schedule_fault(secs(0.5), FaultKind::TransferStall { vm: 0, secs: 0.5 })
            .expect("valid");
        let report = sim.run_until(secs(300.0));
        let status = sim.job_status(job).expect("job exists");
        assert!(
            status.is_terminal(),
            "{}: job neither completed nor failed",
            strategy.label()
        );
        // Whatever happened, the source-side guest must not be stranded.
        assert!(
            report.vms[0].finished_at.is_some(),
            "{}: guest stranded after destination crash",
            strategy.label()
        );
    }
}

#[test]
fn stale_disk_reads_do_not_leak_into_a_successor_migration() {
    // A deadline aborts the job while source disk reads may be in
    // flight (aborts cancel flows, not disk requests); the orchestrator
    // then re-migrates the VM with stepped horizons. Any stale read
    // completing under the successor migration must be dropped, not
    // attributed to its pipeline counters (regression: an underflow
    // panic of the push in-flight count). Several deadlines sweep the
    // read window.
    for deadline_ms in [200, 250, 300, 350, 450] {
        let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
        let vm = sim
            .add_vm(0, &writer(), StrategyKind::Hybrid, SimTime::ZERO)
            .expect("vm");
        let job = sim
            .schedule_migration_with_deadline(
                vm,
                1,
                secs(1.0),
                Some(SimDuration::from_millis(deadline_ms)),
            )
            .expect("job");
        sim.run_until(secs(30.0));
        assert_eq!(
            sim.job_status(job),
            Some(MigrationStatus::Failed),
            "deadline {deadline_ms}ms"
        );
        let retry = sim
            .schedule_migration(vm, 2, secs(30.5))
            .expect("re-migration after abort");
        let report = sim.run_until(secs(600.0));
        assert_eq!(
            sim.job_status(retry),
            Some(MigrationStatus::Completed),
            "deadline {deadline_ms}ms: successor migration must complete"
        );
        let rec = report
            .migrations
            .iter()
            .find(|m| m.status == MigrationStatus::Completed)
            .expect("retry record");
        assert_eq!(rec.consistent, Some(true), "deadline {deadline_ms}ms");
        assert_eq!(report.vms[0].final_host, 2);
    }
}

#[test]
fn stall_during_pull_phase_defers_ondemand_and_completes() {
    // A stall landing inside the pull phase must stop the prefetch and
    // defer on-demand pulls (no storage traffic during the outage), then
    // re-issue them at stall end: the migration still completes
    // consistently and no read hangs. The writer churns the remaining set
    // with twice the mixed guest's writes; the mixed reader/writer makes
    // the destination issue on-demand pulls (postcopy does; the hybrid scheme has pushed
    // what this guest reads). Precopy and mirror have no pull phase: they
    // complete at control transfer.
    let writer = WorkloadSpec::HotspotWrite {
        offset: 0,
        region_blocks: 64,
        block: 256 * 1024,
        count: 2000,
        theta: 0.8,
        think_secs: 0.01,
        seed: 7,
    };
    let mixed = WorkloadSpec::HotspotMixed {
        offset: 0,
        region_blocks: 64,
        block: 256 * 1024,
        count: 2000,
        theta: 0.8,
        read_fraction: 0.5,
        think_secs: 0.01,
        seed: 7,
    };
    let build = |guest: &WorkloadSpec, strategy: StrategyKind| {
        let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
        let vm = sim.add_vm(0, guest, strategy, SimTime::ZERO).expect("vm");
        let job = sim.schedule_migration(vm, 1, secs(1.0)).expect("job");
        (sim, job)
    };
    for (name, guest) in [("writer", &writer), ("mixed", &mixed)] {
        for strategy in [StrategyKind::Hybrid, StrategyKind::Postcopy] {
            // Locate the pull window from a clean run.
            let clean = build(guest, strategy).0.run_until(secs(300.0));
            let control_at = clean.migrations[0].control_at.expect("completes");

            // The first prefetch batches are requested at control
            // transfer, so 5 ms later they sit at the source disk.
            for offset in [0.005, 0.02, 0.1, 0.3] {
                let case = format!("{name} {} offset {offset}", strategy.label());
                let (mut sim, job) = build(guest, strategy);
                sim.schedule_fault(
                    SimTime::from_secs_f64(control_at.as_secs_f64() + offset),
                    FaultKind::TransferStall { vm: 0, secs: 0.8 },
                )
                .expect("valid");
                let report = sim.run_until(secs(300.0));
                assert_eq!(
                    sim.job_status(job),
                    Some(MigrationStatus::Completed),
                    "{case}"
                );
                assert_eq!(report.migrations[0].consistent, Some(true), "{case}");
                assert!(
                    report.vms[0].finished_at.is_some(),
                    "{case}: a deferred on-demand read must not hang the guest"
                );
            }
        }
    }
}
