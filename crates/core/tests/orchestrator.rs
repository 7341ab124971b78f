//! The orchestration layer end to end: planner-owned strategy selection
//! from live telemetry, admission-cap deferral, node evacuation, group
//! rebalancing, and the request-validation surface.

use lsm_core::config::ClusterConfig;
use lsm_core::engine::{Milestone, RecordingObserver};
use lsm_core::policy::StrategyKind;
use lsm_core::{
    Engine, EngineConfig, EngineError, FaultKind, MigrationStatus, OrchestratorConfig, PlannerKind,
    RequestIntent, SkipReason,
};
use lsm_simcore::time::SimTime;
use lsm_simcore::units::MIB;
use lsm_workloads::WorkloadSpec;

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// A writer hot enough to cross the adaptive `Hybrid` threshold
/// (≈25 MB/s buffered against a 117.5 MB/s NIC).
fn heavy_writer() -> WorkloadSpec {
    WorkloadSpec::HotspotWrite {
        offset: 0,
        region_blocks: 64,
        block: 256 * 1024,
        count: 4000,
        theta: 0.8,
        think_secs: 0.01,
        seed: 7,
    }
}

fn idle() -> WorkloadSpec {
    WorkloadSpec::Idle {
        bursts: 30,
        burst_secs: 1.0,
    }
}

fn adaptive_cfg() -> OrchestratorConfig {
    OrchestratorConfig {
        planner: PlannerKind::Adaptive,
        ..OrchestratorConfig::default()
    }
}

// ---------------- adaptive strategy selection ----------------

/// The paper's §4 decision, operationalized: under the adaptive
/// planner, a write-heavy VM migrates with `Hybrid` and an idle VM
/// with `Precopy` — chosen from windowed write rates, not configured.
#[test]
fn adaptive_planner_picks_hybrid_for_writers_and_precopy_for_idle() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: adaptive_cfg(),
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    // Both VMs are *configured* Hybrid; the planner must override from
    // telemetry, not echo the configuration.
    let writer = sim
        .add_vm(0, &heavy_writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let idler = sim
        .add_vm(1, &idle(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    sim.schedule_migration(writer, 2, secs(12.0)).expect("job");
    sim.schedule_migration(idler, 3, secs(12.0)).expect("job");
    let report = sim.run_until(secs(600.0));

    assert_eq!(report.planner.len(), 2, "one decision per admission");
    let by_vm = |vm: u32| {
        report
            .planner
            .iter()
            .find(|d| d.vm == vm)
            .unwrap_or_else(|| panic!("no decision for vm {vm}"))
    };
    assert_eq!(by_vm(0).strategy, StrategyKind::Hybrid, "write-heavy VM");
    assert_eq!(by_vm(0).planner, "adaptive");
    assert_eq!(by_vm(1).strategy, StrategyKind::Precopy, "idle VM");
    // The decisions are what actually ran.
    for m in &report.migrations {
        assert!(m.completed, "vm {} migration incomplete", m.vm);
    }
    assert_eq!(report.migrations[0].strategy, StrategyKind::Hybrid);
    assert_eq!(report.migrations[1].strategy, StrategyKind::Precopy);
}

/// The planner owns every admitted job's strategy: a hot writer
/// configured `Precopy` and scheduled with a plain `schedule_migration`
/// is admitted as `Hybrid` under the adaptive planner, its decision
/// recorded, and keeps `Precopy` under the fixed one.
#[test]
fn planner_owns_the_strategy_of_a_plain_migration() {
    for (planner, expected) in [
        (PlannerKind::Adaptive, StrategyKind::Hybrid),
        (PlannerKind::Fixed, StrategyKind::Precopy),
    ] {
        let label = planner.label();
        let mut sim = Engine::new(EngineConfig {
            orchestrator: OrchestratorConfig {
                planner,
                ..OrchestratorConfig::default()
            },
            ..ClusterConfig::small_test().into()
        })
        .expect("config");
        let writer = sim
            .add_vm(0, &heavy_writer(), StrategyKind::Precopy, SimTime::ZERO)
            .expect("vm");
        let job = sim.schedule_migration(writer, 2, secs(12.0)).expect("job");
        let report = sim.run_until(secs(600.0));
        assert_eq!(report.planner.len(), 1, "{label}: one decision");
        let d = &report.planner[0];
        assert_eq!((d.job, d.planner, d.strategy), (job.0, label, expected));
        assert_eq!(report.migrations[0].strategy, expected, "{label}: what ran");
        let progress = sim.job_progress(job).expect("job");
        assert_eq!(progress.strategy, expected, "{label}: progress");
    }
}

/// The telemetry the decision reads is windowed, not cumulative: after
/// the writer goes quiet for a few windows, its rate decays to zero.
#[test]
fn telemetry_rates_are_windowed() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: adaptive_cfg(),
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    let writer = sim
        .add_vm(
            0,
            &WorkloadSpec::SeqWrite {
                offset: 0,
                total: 32 * MIB,
                block: MIB,
                think_secs: 0.01,
            },
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .expect("vm");
    // A far-future job keeps the telemetry ticking.
    sim.schedule_migration(writer, 1, secs(90.0)).expect("job");
    sim.run_until(secs(6.0));
    let w_early = sim.vm_telemetry(0).expect("vm exists").write_rate;
    assert!(
        w_early > 1e6,
        "writer should show MB/s-scale write rate, got {w_early}"
    );
    // The 32 MiB workload finishes in a few seconds; several windows
    // later the windowed rate must have decayed to zero.
    sim.run_until(secs(60.0));
    let w_late = sim.vm_telemetry(0).expect("vm exists").write_rate;
    assert_eq!(w_late, 0.0, "windowed rate must forget old activity");
}

// ---------------- admission cap ----------------

/// With `max_concurrent = 1`, three same-instant migrations run
/// strictly one after another: two are planner-held (visible as
/// `PlannerDeferred` milestones and deferred decisions), and at no
/// point do two jobs hold slots.
#[test]
fn admission_cap_serializes_concurrent_migrations() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: OrchestratorConfig {
            max_concurrent: Some(1),
            ..OrchestratorConfig::default()
        },
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    let mut jobs = Vec::new();
    for node in 0..3 {
        let vm = sim
            .add_vm(
                node,
                &WorkloadSpec::SeqWrite {
                    offset: 0,
                    total: 24 * MIB,
                    block: MIB,
                    think_secs: 0.02,
                },
                StrategyKind::Hybrid,
                SimTime::ZERO,
            )
            .expect("vm");
        jobs.push(sim.schedule_migration(vm, 3, secs(1.0)).expect("job"));
    }
    let mut obs = RecordingObserver::default();
    let report = sim.run_until_observed(secs(900.0), &mut obs);

    for &job in &jobs {
        assert_eq!(sim.job_status(job), Some(MigrationStatus::Completed));
    }
    let deferred: Vec<_> = obs
        .milestones
        .iter()
        .filter(|(_, _, m)| *m == Milestone::PlannerDeferred)
        .collect();
    assert_eq!(deferred.len(), 2, "jobs 1 and 2 must be planner-held");
    let flags: Vec<bool> = report.planner.iter().map(|d| d.deferred).collect();
    assert_eq!(flags, vec![false, true, true]);
    // Admissions are strictly serialized: each decision lands only
    // after the previous job went terminal, so decision times are
    // strictly increasing past the first.
    for w in report.planner.windows(2) {
        assert!(w[0].decided_at < w[1].decided_at, "admissions overlap");
    }
    assert_eq!(sim.active_migrations(), 0, "all slots released");
    assert_eq!(sim.admission_cap(), Some(1));
}

/// A deadline can fire while the job is still planner-held: the job
/// fails with `DeadlineExceeded` without ever starting, and the queue
/// moves on.
#[test]
fn deadline_fires_while_planner_held() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: OrchestratorConfig {
            max_concurrent: Some(1),
            ..OrchestratorConfig::default()
        },
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    let vm0 = sim
        .add_vm(0, &heavy_writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let vm1 = sim
        .add_vm(1, &idle(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let long = sim.schedule_migration(vm0, 2, secs(1.0)).expect("job");
    // Pin the slot: a 30 s transfer stall keeps the first migration
    // in flight far past the held job's deadline.
    sim.schedule_fault(
        secs(1.2),
        lsm_core::FaultKind::TransferStall { vm: 0, secs: 30.0 },
    )
    .expect("fault");
    // Held behind the stalled migration; its 3 s deadline expires long
    // before a slot frees.
    let held = sim
        .schedule_migration_with_deadline(
            vm1,
            3,
            secs(1.5),
            Some(lsm_simcore::time::SimDuration::from_secs(3)),
        )
        .expect("job");
    let report = sim.run_until(secs(900.0));
    assert_eq!(sim.job_status(long), Some(MigrationStatus::Completed));
    assert_eq!(sim.job_status(held), Some(MigrationStatus::Failed));
    // A terminal job is no longer planner-held, whatever killed it.
    let p = sim.job_progress(held).expect("progress");
    assert!(!p.planner_held, "terminal job still reports planner-held");
    let failed = &report.migrations[held.0 as usize];
    assert!(
        matches!(
            failed.failure,
            Some(lsm_core::FailureReason::DeadlineExceeded { .. })
        ),
        "{:?}",
        failed.failure
    );
    // The held job never admitted: no decision recorded for it.
    assert!(report.planner.iter().all(|d| d.job != held.0));
}

// ---------------- intents ----------------

/// Node evacuation under the default (fixed, uncapped) orchestrator:
/// every live VM leaves the drained node, each migration traced to the
/// request in the decision log.
#[test]
fn evacuation_drains_the_node() {
    let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
    for node in [1, 1, 0] {
        sim.add_vm(
            node,
            &WorkloadSpec::SeqWrite {
                offset: 0,
                total: 16 * MIB,
                block: MIB,
                think_secs: 0.05,
            },
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .expect("vm");
    }
    let req = sim
        .submit_request(secs(5.0), RequestIntent::Evacuate { node: 1 })
        .expect("request");
    let report = sim.run_until(secs(600.0));

    assert_eq!(report.migrations.len(), 2, "both node-1 guests moved");
    for m in &report.migrations {
        assert!(m.completed, "vm {} evacuation incomplete", m.vm);
        assert_eq!(m.consistent, Some(true));
    }
    for v in &report.vms {
        assert_ne!(v.final_host, 1, "vm {} still on the drained node", v.vm);
    }
    assert_eq!(report.planner.len(), 2);
    for d in &report.planner {
        assert_eq!(d.request, Some(req), "decision traces to the intent");
        assert_eq!(d.source, 1);
        assert_ne!(d.dest, 1);
        assert_eq!(d.planner, "fixed");
    }
}

/// Rebalancing a stacked workload group spreads it: a member moves off
/// the overloaded host onto the least-loaded node, and the gate stops
/// once the spread cannot improve by more than one.
#[test]
fn rebalance_spreads_a_stacked_group() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: adaptive_cfg(),
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    let placements = vec![
        (0, WorkloadSpec::cm1_small(0, 2, 1, 1)),
        (0, WorkloadSpec::cm1_small(1, 2, 1, 1)),
    ];
    sim.add_group(&placements, StrategyKind::Hybrid, SimTime::ZERO)
        .expect("group");
    sim.submit_request(secs(2.0), RequestIntent::Rebalance { group: 0 })
        .expect("request");
    let report = sim.run_until(secs(600.0));

    assert_eq!(report.migrations.len(), 1, "one move evens a 2-on-1 stack");
    assert!(report.migrations[0].completed);
    let hosts: Vec<u32> = report.vms.iter().map(|v| v.final_host).collect();
    assert_ne!(hosts[0], hosts[1], "group still stacked: {hosts:?}");
    // The member the spread gate stopped leaves a typed trace.
    assert_eq!(report.planner_skips.len(), 1);
    assert_eq!(report.planner_skips[0].reason, SkipReason::SpreadSatisfied);
    assert!(report.planner_skips[0].terminal);
}

/// Planner decisions are deterministic: two identical runs produce the
/// same decision log, bit for bit.
#[test]
fn planner_decisions_are_deterministic() {
    let run = || {
        let mut sim = Engine::new(EngineConfig {
            orchestrator: OrchestratorConfig {
                max_concurrent: Some(2),
                planner: PlannerKind::Adaptive,
            },
            ..ClusterConfig::small_test().into()
        })
        .expect("config");
        for node in [1, 1, 2] {
            sim.add_vm(node, &heavy_writer(), StrategyKind::Hybrid, SimTime::ZERO)
                .expect("vm");
        }
        sim.submit_request(secs(8.0), RequestIntent::Evacuate { node: 1 })
            .expect("request");
        let report = sim.run_until(secs(600.0));
        format!("{:?}", report.planner)
    };
    assert_eq!(run(), run(), "decision logs diverge between runs");
}

// ---------------- validation surface ----------------

#[test]
fn orchestration_misuse_is_an_error_not_a_panic() {
    // An unusable configuration fails the build.
    assert!(matches!(
        Engine::new(EngineConfig {
            orchestrator: OrchestratorConfig {
                max_concurrent: Some(0),
                ..OrchestratorConfig::default()
            },
            ..ClusterConfig::small_test().into()
        }),
        Err(EngineError::InvalidRequest { .. })
    ));

    // Out-of-range evacuation target; unknown rebalance group.
    let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
    assert!(matches!(
        sim.submit_request(secs(1.0), RequestIntent::Evacuate { node: 99 }),
        Err(EngineError::InvalidRequest { .. })
    ));
    assert!(matches!(
        sim.submit_request(secs(1.0), RequestIntent::Rebalance { group: 0 }),
        Err(EngineError::InvalidRequest { .. })
    ));
}

/// Evacuating an empty (or already-drained) node is a clean no-op, and
/// a VM with a live explicit job is skipped by a racing intent.
#[test]
fn evacuation_edge_cases_are_noops() {
    let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
    let vm = sim
        .add_vm(
            1,
            &WorkloadSpec::SeqWrite {
                offset: 0,
                total: 16 * MIB,
                block: MIB,
                think_secs: 0.05,
            },
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .expect("vm");
    // Explicit job already moving the VM when the evacuation fires.
    sim.schedule_migration(vm, 2, secs(1.0)).expect("job");
    sim.submit_request(secs(1.5), RequestIntent::Evacuate { node: 1 })
        .expect("request");
    // Nothing lives on node 3.
    sim.submit_request(secs(2.0), RequestIntent::Evacuate { node: 3 })
        .expect("request");
    let report = sim.run_until(secs(600.0));
    assert_eq!(
        report.migrations.len(),
        1,
        "the intents must not double-migrate or invent jobs"
    );
    assert!(report.migrations[0].completed);
    // The race is auditable: the step the explicit job beat is recorded
    // as an AlreadyMigrating skip (the empty-node evacuation expands to
    // nothing, so that is the only skip).
    assert_eq!(report.planner_skips.len(), 1);
    assert_eq!(report.planner_skips[0].vm, 0);
    assert_eq!(report.planner_skips[0].reason, SkipReason::AlreadyMigrating);
    assert!(report.planner_skips[0].terminal);
}

// ---------------- telemetry sampling at admission ----------------

/// Regression (ISSUE 5 bugfix): a hot writer whose migration under the
/// adaptive planner is admitted *before* the first telemetry window has sampled must not
/// be misclassified as idle. The windowed rates are still zero at
/// t = 2 s (window 5 s), so pre-fix the decision read 0 B/s and chose
/// `Precopy`; the orchestrator now samples the cumulative counters on
/// demand and sees the true MB/s-scale write rate.
#[test]
fn adaptive_admission_before_first_window_samples_on_demand() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: adaptive_cfg(),
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    let writer = sim
        .add_vm(0, &heavy_writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    // Admission at 2 s < the 5 s telemetry window: no tick has sampled.
    sim.schedule_migration(writer, 2, secs(2.0)).expect("job");
    let report = sim.run_until(secs(600.0));
    assert_eq!(report.planner.len(), 1);
    assert_eq!(
        report.planner[0].strategy,
        StrategyKind::Hybrid,
        "hot writer admitted before the first window was misread as idle"
    );
    assert!(report.migrations[0].completed);
}

/// A job that never started reports the strategy it was given, not the
/// VM's current one. Under the adaptive planner, the writer's first job
/// fails before it starts (its destination crashed at 1 s); at 400 s a
/// second job admits `Precopy` for the now idle VM. The failed job's record and
/// progress must still read the VM's strategy when it was scheduled.
#[test]
fn never_started_job_keeps_its_strategy() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: adaptive_cfg(),
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    let writer = sim
        .add_vm(
            0,
            &WorkloadSpec::SeqWrite {
                offset: 0,
                total: 48 * MIB,
                block: MIB,
                think_secs: 0.02,
            },
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .expect("vm");
    sim.schedule_fault(secs(1.0), FaultKind::NodeCrash { node: 2 })
        .expect("fault");
    let failed = sim.schedule_migration(writer, 2, secs(2.0)).expect("job");
    let report = sim.run_until(secs(300.0));
    assert_eq!(report.migrations[0].strategy, StrategyKind::Hybrid);
    let later = sim.schedule_migration(writer, 1, secs(400.0)).expect("job");
    let report = sim.run_until(secs(600.0));

    let first = &report.migrations[0];
    assert_eq!(first.status, MigrationStatus::Failed);
    assert!(first.timeline.is_empty(), "the first job never started");
    assert_eq!(first.strategy, StrategyKind::Hybrid);
    let second = &report.migrations[1];
    assert!(second.completed);
    assert_eq!(second.strategy, StrategyKind::Precopy, "idle by then");
    let strategy = |job| sim.job_progress(job).expect("job").strategy;
    assert_eq!(strategy(failed), StrategyKind::Hybrid);
    assert_eq!(strategy(later), StrategyKind::Precopy);
}

/// The cost planner reads the same on-demand sample — and records the
/// per-scheme estimates it decided from on the decision.
#[test]
fn cost_admission_before_first_window_samples_on_demand() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: OrchestratorConfig {
            planner: PlannerKind::Cost,
            ..OrchestratorConfig::default()
        },
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    let writer = sim
        .add_vm(0, &heavy_writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    sim.schedule_migration(writer, 2, secs(2.0)).expect("job");
    let report = sim.run_until(secs(600.0));
    let d = &report.planner[0];
    assert_eq!(d.planner, "cost");
    assert_eq!(d.strategy, StrategyKind::Hybrid, "hot overwriter");
    assert_eq!(d.estimates.len(), 4, "full candidate sweep recorded");
    let best = d
        .estimates
        .iter()
        .min_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
        .unwrap();
    assert_eq!(best.strategy, d.strategy, "chosen scheme is the argmin");
    assert!(report.migrations[0].completed);
}

/// A VM whose workload *starts* after the first telemetry tick must not
/// be marked sampled by ticks that ran while it did not exist yet: a
/// hot writer starting at t = 7 s (ticks at 5, 10, ...) and admitted at
/// t = 9 s still takes the on-demand path and is classified from its
/// real post-start write rate.
#[test]
fn late_started_hot_writer_is_not_misread_by_prestart_ticks() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: adaptive_cfg(),
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    let writer = sim
        .add_vm(0, &heavy_writer(), StrategyKind::Hybrid, secs(7.0))
        .expect("vm");
    sim.schedule_migration(writer, 2, secs(9.0)).expect("job");
    let report = sim.run_until(secs(600.0));
    assert_eq!(
        report.planner[0].strategy,
        StrategyKind::Hybrid,
        "pre-start ticks marked the VM sampled with zero rates"
    );
    assert!(report.migrations[0].completed);
}

/// Dirty-rate telemetry separates the two write signals: a hotspot
/// overwriter shows a high re-write rate with a near-zero dirty-set
/// growth once its region is dirty, while a sequential writer shows the
/// reverse.
#[test]
fn telemetry_separates_rewrite_from_dirty_growth() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: adaptive_cfg(),
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    let hot = sim
        .add_vm(0, &heavy_writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let seq = sim
        .add_vm(
            1,
            // Slow enough to still be writing fresh chunks in the
            // second telemetry window (0.5 s think per 1 MiB block).
            &WorkloadSpec::SeqWrite {
                offset: 0,
                total: 60 * MIB,
                block: MIB,
                think_secs: 0.5,
            },
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .expect("vm");
    // A far-future job keeps the telemetry loop armed.
    sim.schedule_migration(hot, 2, secs(90.0)).expect("job");
    // Past the second window (5 s → 10 s): the hotspot's region is
    // fully dirty, so its writes are pure overwrites now.
    sim.run_until(secs(11.0));
    let h = sim.vm_telemetry(0).expect("vm exists");
    let s = sim.vm_telemetry(seq.0).expect("vm exists");
    assert!(h.sampled && s.sampled);
    assert!(
        h.rewrite_rate > 10.0 * h.dirty_rate.max(1.0),
        "hotspot writer must be overwrite-dominated: rewrite {} dirty {}",
        h.rewrite_rate,
        h.dirty_rate
    );
    assert!(
        s.dirty_rate > s.rewrite_rate,
        "sequential writer must be growth-dominated: rewrite {} dirty {}",
        s.rewrite_rate,
        s.dirty_rate
    );
}

// ---------------- placement retry + skip records ----------------

/// Regression (ISSUE 5 bugfix): an evacuation step admitted while no
/// healthy destination exists must not be dropped. The step parks (a
/// non-terminal `NoDestination` skip), and when a node is restored the
/// retry places it — the VM eventually leaves the drained node.
#[test]
fn evacuation_step_parks_and_retries_after_node_restore() {
    let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
    sim.add_vm(
        0,
        &WorkloadSpec::SeqWrite {
            offset: 0,
            total: 16 * MIB,
            block: MIB,
            think_secs: 0.05,
        },
        StrategyKind::Hybrid,
        SimTime::ZERO,
    )
    .expect("vm");
    // Every possible destination is down when the drain fires...
    for node in [1, 2, 3] {
        sim.schedule_fault(secs(1.0), FaultKind::NodeCrash { node })
            .expect("fault");
    }
    sim.submit_request(secs(2.0), RequestIntent::Evacuate { node: 0 })
        .expect("request");
    // ...and one comes back later.
    sim.schedule_fault(secs(30.0), FaultKind::NodeRestore { node: 2 })
        .expect("fault");
    let report = sim.run_until(secs(600.0));

    assert_eq!(report.migrations.len(), 1, "the step must eventually run");
    assert!(report.migrations[0].completed);
    assert_eq!(report.migrations[0].consistent, Some(true));
    assert_eq!(report.vms[0].final_host, 2, "only node 2 was restored");
    // The wait is auditable: one non-terminal NoDestination skip.
    assert_eq!(report.planner_skips.len(), 1);
    let skip = &report.planner_skips[0];
    assert_eq!(skip.reason, SkipReason::NoDestination);
    assert!(!skip.terminal);
    assert_eq!(skip.vm, 0);
    // And the eventual decision placed it after the restore.
    assert_eq!(report.planner.len(), 1);
    assert!(report.planner[0].decided_at >= secs(30.0));
}

/// When no destination ever appears, the bounded retry gives up with a
/// terminal `PlacementExhausted` record instead of retrying forever (or
/// silently pretending the evacuation completed).
#[test]
fn evacuation_placement_exhausts_after_bounded_retries() {
    let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
    sim.add_vm(0, &idle(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    for node in [1, 2, 3] {
        sim.schedule_fault(secs(1.0), FaultKind::NodeCrash { node })
            .expect("fault");
    }
    sim.submit_request(secs(2.0), RequestIntent::Evacuate { node: 0 })
        .expect("request");
    // Each later request drains the queue — a retry opportunity for the
    // parked step. The default limit (4 attempts) is exceeded by the
    // fourth drain.
    for t in [3.0, 4.0, 5.0, 6.0] {
        sim.submit_request(secs(t), RequestIntent::Evacuate { node: 3 })
            .expect("request");
    }
    let report = sim.run_until(secs(600.0));

    assert!(report.migrations.is_empty(), "nothing could ever place");
    assert_eq!(report.vms[0].final_host, 0);
    let reasons: Vec<(SkipReason, bool)> = report
        .planner_skips
        .iter()
        .map(|s| (s.reason, s.terminal))
        .collect();
    assert_eq!(
        reasons,
        vec![
            (SkipReason::NoDestination, false),
            (SkipReason::PlacementExhausted, true),
        ],
        "park once, then a single terminal abandonment"
    );
}

/// A VM that dies while its evacuation step waits behind the admission
/// cap is skipped with a terminal `VmCrashed` record.
#[test]
fn crashed_vm_step_is_recorded_as_skipped() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: OrchestratorConfig {
            max_concurrent: Some(2),
            ..OrchestratorConfig::default()
        },
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    // A long-running migration pins one slot...
    let heavy = sim
        .add_vm(0, &heavy_writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    sim.schedule_migration(heavy, 3, secs(1.0)).expect("job");
    // ...two guests on node 1: the drain admits the first into the
    // remaining slot, the second stays expanded-but-queued.
    sim.add_vm(1, &idle(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    sim.add_vm(1, &idle(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    sim.submit_request(secs(2.0), RequestIntent::Evacuate { node: 1 })
        .expect("request");
    // The node dies while that second step waits.
    sim.schedule_fault(secs(2.5), FaultKind::NodeCrash { node: 1 })
        .expect("fault");
    let report = sim.run_until(secs(600.0));

    let crashed_skips: Vec<_> = report
        .planner_skips
        .iter()
        .filter(|s| s.reason == SkipReason::VmCrashed)
        .collect();
    assert_eq!(crashed_skips.len(), 1, "{:?}", report.planner_skips);
    assert_eq!(crashed_skips[0].vm, 2, "the still-queued second guest");
    assert!(crashed_skips[0].terminal);
}

/// `RequestIntent` round-trips through the serde data model (the
/// scenario layer's `[[requests]]` plan rides on this).
#[test]
fn request_intent_serde_roundtrip() {
    for intent in [
        RequestIntent::Evacuate { node: 3 },
        RequestIntent::Rebalance { group: 1 },
    ] {
        let v = serde::Serialize::to_value(&intent);
        let back: RequestIntent = serde::Deserialize::from_value(&v).expect("roundtrips");
        assert_eq!(back, intent);
    }
}

// ---------------- gang admission (CM1 barrier domains) ----------------

/// CM1 barrier-domain members admit as a gang: with the cap full, a
/// freed single slot must not strand half the group mid-migration —
/// ungrouped work behind the gang takes the slot instead, and the gang
/// goes in whole once enough slots free together.
#[test]
fn gang_admission_never_strands_half_a_group() {
    let mut sim = Engine::new(EngineConfig {
        orchestrator: OrchestratorConfig {
            max_concurrent: Some(2),
            ..OrchestratorConfig::default()
        },
        ..ClusterConfig::small_test().into()
    })
    .expect("config");
    // Two cap-filling singles with distinct workloads/strategies, so
    // their completions land at distinct instants.
    let short = sim
        .add_vm(
            0,
            &WorkloadSpec::SeqWrite {
                offset: 0,
                total: 8 * MIB,
                block: MIB,
                think_secs: 0.02,
            },
            StrategyKind::Precopy,
            SimTime::ZERO,
        )
        .expect("vm");
    let long = sim
        .add_vm(
            1,
            &WorkloadSpec::SeqWrite {
                offset: 0,
                total: 48 * MIB,
                block: MIB,
                think_secs: 0.02,
            },
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .expect("vm");
    let gang = sim
        .add_group(
            &[(0, idle()), (1, idle())],
            StrategyKind::Precopy,
            SimTime::ZERO,
        )
        .expect("group");
    let single = sim
        .add_vm(2, &idle(), StrategyKind::Precopy, SimTime::ZERO)
        .expect("vm");
    // Fill both slots...
    sim.schedule_migration(short, 2, secs(0.5)).expect("job");
    sim.schedule_migration(long, 3, secs(0.5)).expect("job");
    // ...then queue the gang, then an ungrouped straggler behind it.
    sim.schedule_migration(gang[0], 2, secs(1.0)).expect("job");
    sim.schedule_migration(gang[1], 3, secs(1.0)).expect("job");
    sim.schedule_migration(single, 0, secs(2.0)).expect("job");
    let report = sim.run_until(secs(900.0));

    for m in &report.migrations {
        assert!(m.completed, "vm {} migration incomplete", m.vm);
    }
    let by_vm = |vm: u32| {
        report
            .planner
            .iter()
            .find(|d| d.vm == vm)
            .unwrap_or_else(|| panic!("no decision for vm {vm}"))
    };
    let (g0, g1, s) = (by_vm(2), by_vm(3), by_vm(4));
    assert!(
        g0.deferred && g1.deferred,
        "cap was full: the gang must defer"
    );
    assert_eq!(g0.decided_at, g1.decided_at, "gang members admit together");
    assert!(
        s.decided_at < g0.decided_at,
        "a single freed slot goes to ungrouped work ({:?}), not half the gang ({:?})",
        s.decided_at,
        g0.decided_at
    );
}

// ---------------- pressure attribution ----------------

/// `Engine::node_pressures` attributes each guest's I/O pressure the way
/// placement attributes load: at its host until an admitted job moves
/// it, then at the job's destination (while it transfers and after it
/// lands there), and nowhere once the guest dies with its node.
#[test]
fn node_pressure_follows_the_admitted_job_and_dies_with_the_guest() {
    let mut sim = Engine::new(ClusterConfig::small_test()).expect("config");
    let vm = sim
        .add_vm(0, &heavy_writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .expect("vm");
    let job = sim.schedule_migration(vm, 1, secs(5.0)).expect("job");
    sim.schedule_fault(secs(400.0), FaultKind::NodeCrash { node: 1 })
        .expect("fault");
    // Only `node` carries pressure, and it carries some.
    let only_at = |sim: &Engine, node: usize| {
        let p = sim.node_pressures();
        for (n, &x) in p.iter().enumerate() {
            if n == node {
                assert!(x > 0.0, "node {n} should carry the writer: {p:?}");
            } else {
                assert_eq!(x, 0.0, "node {n} should carry nothing: {p:?}");
            }
        }
    };

    sim.run_until(secs(4.0));
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Queued));
    only_at(&sim, 0);

    sim.run_until(secs(5.5));
    let status = sim.job_status(job).expect("job");
    assert!(
        status != MigrationStatus::Queued && !status.is_terminal(),
        "the job should be transferring, got {status:?}"
    );
    only_at(&sim, 1);

    sim.run_until(secs(300.0));
    assert_eq!(sim.job_status(job), Some(MigrationStatus::Completed));
    only_at(&sim, 1);

    sim.run_until(secs(500.0));
    assert!(
        sim.node_pressures().iter().all(|&x| x == 0.0),
        "a crashed guest counts nowhere: {:?}",
        sim.node_pressures()
    );
}
