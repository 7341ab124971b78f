//! End-to-end engine tests: every strategy migrates a live, writing VM
//! and must hand the destination a consistent disk.

use lsm_core::config::ClusterConfig;
use lsm_core::engine::Engine;
use lsm_core::policy::StrategyKind;
use lsm_netsim::TrafficTag;
use lsm_simcore::units::MIB;
use lsm_simcore::SimTime;
use lsm_workloads::WorkloadSpec;

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// A writer that crosses the write-back threshold so the migration
/// manager actually sees chunk writes (48 MiB into a 64 MiB image).
fn busy_writer() -> WorkloadSpec {
    WorkloadSpec::SeqWrite {
        offset: 0,
        total: 48 * MIB,
        block: MIB,
        think_secs: 0.02,
    }
}

fn run_one(strategy: StrategyKind, migrate_at: f64, horizon: f64) -> lsm_core::RunReport {
    let mut eng = Engine::new(ClusterConfig::small_test()).unwrap();
    let vm = eng
        .add_vm(0, &busy_writer(), strategy, SimTime::ZERO)
        .unwrap();
    eng.schedule_migration(vm, 1, t(migrate_at)).unwrap();
    eng.run_until(t(horizon))
}

#[test]
fn hybrid_migration_completes_consistently() {
    let r = run_one(StrategyKind::Hybrid, 1.0, 300.0);
    let m = r.the_migration();
    assert!(m.completed, "migration did not finish");
    assert_eq!(m.consistent, Some(true), "destination diverged");
    assert!(m.control_at.is_some());
    assert!(m.pushed_chunks > 0, "active push never ran");
    assert!(r.traffic_for(TrafficTag::Memory) > 0);
    assert!(r.traffic_for(TrafficTag::StoragePush) > 0);
}

/// Validation and lint put no upper bound on `writeback_depth`, so its
/// largest value must run too: the destination's ingest limit of
/// `writeback_depth + 2` saturates instead of overflowing.
#[test]
fn max_writeback_depth_migrates() {
    let mut cfg = ClusterConfig::small_test();
    cfg.writeback_depth = u32::MAX;
    let mut eng = Engine::new(cfg).unwrap();
    let vm = eng
        .add_vm(0, &busy_writer(), StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    eng.schedule_migration(vm, 1, t(1.0)).unwrap();
    let r = eng.run_until(t(300.0));
    let m = r.the_migration();
    assert!(m.completed, "migration did not finish");
    assert_eq!(m.consistent, Some(true), "destination diverged");
    assert!(m.pushed_chunks > 0, "nothing reached the ingest path");
}

/// Nor on `transfer_batch`: a batch is sized by the chunks the manifest
/// can still supply, so the largest value over-allocates neither on the
/// push pump (each source kind: Hybrid, Precopy, Mirror) nor on the pull
/// pump (Postcopy pulls everything).
#[test]
fn max_transfer_batch_migrates() {
    for strategy in [
        StrategyKind::Hybrid,
        StrategyKind::Postcopy,
        StrategyKind::Precopy,
        StrategyKind::Mirror,
    ] {
        let mut cfg = ClusterConfig::small_test();
        cfg.transfer_batch = u32::MAX;
        let mut eng = Engine::new(cfg).unwrap();
        let vm = eng
            .add_vm(0, &busy_writer(), strategy, SimTime::ZERO)
            .unwrap();
        eng.schedule_migration(vm, 1, t(1.0)).unwrap();
        let r = eng.run_until(t(300.0));
        let m = r.the_migration();
        assert!(m.completed, "{strategy:?}: migration did not finish");
        assert_eq!(
            m.consistent,
            Some(true),
            "{strategy:?}: destination diverged"
        );
        assert!(
            m.pushed_chunks + m.pulled_chunks > 0,
            "{strategy:?}: no batch was sent"
        );
    }
}

#[test]
fn postcopy_migration_pulls_everything() {
    let r = run_one(StrategyKind::Postcopy, 1.0, 300.0);
    let m = r.the_migration();
    assert!(m.completed);
    assert_eq!(m.consistent, Some(true));
    assert_eq!(m.pushed_chunks, 0, "postcopy must not push");
    assert!(m.pulled_chunks > 0, "postcopy must pull");
    assert_eq!(r.traffic_for(TrafficTag::StoragePush), 0);
    assert!(r.traffic_for(TrafficTag::StoragePull) > 0);
}

#[test]
fn precopy_migration_completes_consistently() {
    let r = run_one(StrategyKind::Precopy, 1.0, 600.0);
    let m = r.the_migration();
    assert!(m.completed, "precopy did not converge within the horizon");
    assert_eq!(m.consistent, Some(true));
    assert_eq!(m.pulled_chunks, 0, "precopy never pulls after control");
    // Migration ends at control transfer for precopy.
    assert_eq!(m.control_at, m.completed_at);
}

#[test]
fn mirror_migration_completes_consistently() {
    let r = run_one(StrategyKind::Mirror, 1.0, 600.0);
    let m = r.the_migration();
    assert!(m.completed);
    assert_eq!(m.consistent, Some(true));
    assert_eq!(m.control_at, m.completed_at);
}

#[test]
fn pvfs_migration_moves_memory_only() {
    let r = run_one(StrategyKind::SharedFs, 1.0, 600.0);
    let m = r.the_migration();
    assert!(m.completed);
    assert_eq!(m.pushed_chunks + m.pulled_chunks, 0);
    assert_eq!(r.traffic_for(TrafficTag::StoragePush), 0);
    assert_eq!(r.traffic_for(TrafficTag::StoragePull), 0);
    assert!(
        r.traffic_for(TrafficTag::PvfsIo) > 0,
        "pvfs I/O must cross the network"
    );
    assert!(r.traffic_for(TrafficTag::Memory) > 0);
}

/// The PVFS stripe unit is the cluster's `pvfs_stripe`: 1 MiB writes
/// land on four servers in 64 KiB stripes but on one in 1 MiB stripes,
/// and the shared-FS runs differ.
#[test]
fn pvfs_stripe_shapes_shared_fs_io() {
    let run = |pvfs_stripe| {
        let cfg = ClusterConfig {
            pvfs_stripe,
            ..ClusterConfig::small_test()
        };
        let mut eng = Engine::new(cfg).unwrap();
        let vm = eng
            .add_vm(0, &busy_writer(), StrategyKind::SharedFs, SimTime::ZERO)
            .unwrap();
        eng.schedule_migration(vm, 1, t(1.0)).unwrap();
        serde_json::to_string(&eng.run_until(t(60.0))).unwrap()
    };
    assert_ne!(run(64 * 1024), run(MIB));
}

#[test]
fn workload_survives_migration_and_finishes() {
    for strategy in StrategyKind::ALL {
        let r = run_one(strategy, 0.5, 900.0);
        let vm = &r.vms[0];
        assert!(
            vm.finished_at.is_some(),
            "{}: workload never finished",
            strategy.label()
        );
        assert_eq!(vm.bytes_written, 48 * MIB, "{}", strategy.label());
        assert_eq!(
            vm.final_host,
            1,
            "{}: VM not at destination",
            strategy.label()
        );
    }
}

#[test]
fn downtime_is_small_for_live_strategies() {
    for strategy in [
        StrategyKind::Hybrid,
        StrategyKind::Postcopy,
        StrategyKind::SharedFs,
    ] {
        let r = run_one(strategy, 1.0, 600.0);
        let m = r.the_migration();
        assert!(
            m.downtime.as_secs_f64() < 2.0,
            "{}: downtime {:.3}s too large",
            strategy.label(),
            m.downtime.as_secs_f64()
        );
        assert!(m.downtime.as_secs_f64() > 0.0);
    }
}

#[test]
fn hybrid_bounds_retransmissions_under_hotspot() {
    // A workload that rewrites a few hot chunks over and over, with an
    // aggressive dirty expiry so the flushes reach the migration manager
    // while the migration runs: precopy re-sends the hot chunks every
    // pass; hybrid stops pushing them at Threshold.
    let hotspot = WorkloadSpec::HotspotWrite {
        offset: 0,
        region_blocks: 32,
        block: 256 * 1024,
        count: 6000,
        theta: 0.9,
        think_secs: 0.01,
        seed: 7,
    };
    let run = |strategy| {
        let mut eng = Engine::new(ClusterConfig {
            dirty_expire_secs: 1.0,
            ..ClusterConfig::small_test()
        })
        .unwrap();
        let vm = eng.add_vm(0, &hotspot, strategy, SimTime::ZERO).unwrap();
        eng.schedule_migration(vm, 1, t(5.0)).unwrap();
        eng.run_until(t(900.0))
    };
    let hybrid = run(StrategyKind::Hybrid);
    let precopy = run(StrategyKind::Precopy);
    let hm = hybrid.the_migration();
    let pm = precopy.the_migration();
    assert!(hm.completed && pm.completed);
    assert_eq!(hm.consistent, Some(true));
    assert_eq!(pm.consistent, Some(true));
    let h_storage =
        hybrid.traffic_for(TrafficTag::StoragePush) + hybrid.traffic_for(TrafficTag::StoragePull);
    let p_storage = precopy.traffic_for(TrafficTag::StoragePush);
    assert!(
        h_storage < p_storage,
        "hybrid ({h_storage}) should move less storage than precopy ({p_storage}) on hot overwrites"
    );
}

#[test]
fn migration_of_idle_vm_is_memory_only_and_fast() {
    let mut eng = Engine::new(ClusterConfig::small_test()).unwrap();
    let vm = eng
        .add_vm(
            0,
            &WorkloadSpec::Idle {
                bursts: 100,
                burst_secs: 1.0,
            },
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .unwrap();
    eng.schedule_migration(vm, 2, t(5.0)).unwrap();
    let r = eng.run_until(t(300.0));
    let m = r.the_migration();
    assert!(m.completed);
    assert_eq!(m.pushed_chunks, 0, "nothing written, nothing to push");
    assert_eq!(m.pulled_chunks, 0);
    assert_eq!(m.consistent, Some(true));
    // Touched memory (512 MiB spec + empty cache) at ~117.5 MB/s ≈ 4.4s.
    let mt = m.migration_time.unwrap().as_secs_f64();
    assert!(mt > 2.0 && mt < 20.0, "unexpected migration time {mt:.1}s");
}

#[test]
fn runs_are_deterministic() {
    let a = run_one(StrategyKind::Hybrid, 1.0, 300.0);
    let b = run_one(StrategyKind::Hybrid, 1.0, 300.0);
    assert_eq!(a.total_traffic, b.total_traffic);
    assert_eq!(a.events, b.events);
    assert_eq!(
        a.the_migration().completed_at,
        b.the_migration().completed_at
    );
    assert_eq!(a.vms[0].finished_at, b.vms[0].finished_at);
}

#[test]
fn reads_after_postcopy_control_transfer_are_served() {
    // IOR-like: write then read back, with migration in the middle of
    // the write phase — reads at the destination need on-demand pulls.
    let ior = WorkloadSpec::Ior(lsm_workloads::IorParams {
        file_size: 32 * MIB,
        block_size: 256 * 1024,
        iterations: 3,
        file_offset: 0,
        fsync_per_phase: true,
    });
    let mut eng = Engine::new(ClusterConfig::small_test()).unwrap();
    let vm = eng
        .add_vm(0, &ior, StrategyKind::Postcopy, SimTime::ZERO)
        .unwrap();
    eng.schedule_migration(vm, 1, t(1.0)).unwrap();
    let r = eng.run_until(t(900.0));
    let m = r.the_migration();
    assert!(m.completed);
    assert_eq!(m.consistent, Some(true));
    assert!(r.vms[0].finished_at.is_some(), "IOR must finish");
    assert_eq!(r.vms[0].bytes_read, 3 * 32 * MIB);
}

#[test]
fn concurrent_migrations_all_complete() {
    let mut eng = Engine::new(ClusterConfig {
        nodes: 8,
        ..ClusterConfig::small_test()
    })
    .unwrap();
    let mut vms = Vec::new();
    for i in 0..4 {
        let vm = eng
            .add_vm(i, &busy_writer(), StrategyKind::Hybrid, SimTime::ZERO)
            .unwrap();
        vms.push(vm);
    }
    for (i, vm) in vms.iter().enumerate() {
        eng.schedule_migration(*vm, 4 + i as u32, t(1.0)).unwrap();
    }
    let r = eng.run_until(t(900.0));
    assert_eq!(r.migrations.len(), 4);
    for m in &r.migrations {
        assert!(m.completed, "vm {} migration incomplete", m.vm);
        assert_eq!(m.consistent, Some(true));
    }
}

#[test]
fn cm1_group_barrier_couples_ranks() {
    // 4 ranks; migrate one. All ranks finish at (nearly) the same time
    // because of the barrier.
    let mut eng = Engine::new(ClusterConfig {
        nodes: 6,
        ..ClusterConfig::small_test()
    })
    .unwrap();
    let placements: Vec<(u32, WorkloadSpec)> = (0..4)
        .map(|r| (r, WorkloadSpec::cm1_small(r, 4, 2, 3)))
        .collect();
    let ids = eng
        .add_group(&placements, StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    eng.schedule_migration(ids[0], 4, t(2.0)).unwrap();
    let r = eng.run_until(t(900.0));
    let m = r.the_migration();
    assert!(m.completed);
    assert_eq!(m.consistent, Some(true));
    let finishes: Vec<f64> = r
        .vms
        .iter()
        .map(|v| v.finished_at.expect("all ranks finish").as_secs_f64())
        .collect();
    let spread = finishes.iter().cloned().fold(f64::MIN, f64::max)
        - finishes.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread < 1.0,
        "barrier should couple rank finish times, spread {spread:.2}s"
    );
    assert!(
        r.traffic_for(TrafficTag::AppNet) > 0,
        "halo traffic missing"
    );
}

#[test]
fn migration_traffic_excludes_app_traffic() {
    let mut eng = Engine::new(ClusterConfig {
        nodes: 6,
        ..ClusterConfig::small_test()
    })
    .unwrap();
    let placements: Vec<(u32, WorkloadSpec)> = (0..4)
        .map(|r| (r, WorkloadSpec::cm1_small(r, 4, 2, 2)))
        .collect();
    let ids = eng
        .add_group(&placements, StrategyKind::Hybrid, SimTime::ZERO)
        .unwrap();
    eng.schedule_migration(ids[1], 4, t(2.0)).unwrap();
    let r = eng.run_until(t(900.0));
    assert!(r.migration_traffic < r.total_traffic);
    assert_eq!(
        r.total_traffic - r.migration_traffic,
        r.traffic_for(TrafficTag::AppNet)
    );
}

#[test]
fn postcopy_memory_preserves_storage_consistency() {
    // The paper's memory-independence claim (§4.1/§6): the storage
    // transfer must behave correctly regardless of the memory strategy.
    // (Pre-copy-style baselines are excluded: they have no pull path and
    // reject post-copy memory outright — see the engine assertion.)
    for strategy in [
        StrategyKind::Hybrid,
        StrategyKind::Postcopy,
        StrategyKind::SharedFs,
    ] {
        let mut eng = Engine::new(ClusterConfig {
            postcopy_memory: true,
            ..ClusterConfig::small_test()
        })
        .unwrap();
        let vm = eng
            .add_vm(0, &busy_writer(), strategy, SimTime::ZERO)
            .unwrap();
        eng.schedule_migration(vm, 1, t(1.0)).unwrap();
        let r = eng.run_until(t(900.0));
        let m = r.the_migration();
        assert!(
            m.completed,
            "{}: incomplete under post-copy memory",
            strategy.label()
        );
        assert_eq!(m.consistent, Some(true), "{}", strategy.label());
        assert!(r.vms[0].finished_at.is_some(), "{}", strategy.label());
        assert_eq!(r.vms[0].final_host, 1, "{}", strategy.label());
    }
}

#[test]
fn postcopy_memory_transfers_control_quickly() {
    let run = |postcopy_memory| {
        let mut eng = Engine::new(ClusterConfig {
            postcopy_memory,
            ..ClusterConfig::small_test()
        })
        .unwrap();
        let vm = eng
            .add_vm(0, &busy_writer(), StrategyKind::Hybrid, SimTime::ZERO)
            .unwrap();
        eng.schedule_migration(vm, 1, t(1.0)).unwrap();
        let r = eng.run_until(t(900.0));
        r.the_migration()
            .control_at
            .expect("control transferred")
            .as_secs_f64()
    };
    let pre = run(false);
    let post = run(true);
    assert!(
        post < pre,
        "post-copy memory must hand control over sooner: {post:.2}s vs {pre:.2}s"
    );
}

#[test]
fn mirror_rejects_postcopy_memory() {
    use lsm_core::EngineError;
    let mut eng = Engine::new(ClusterConfig {
        postcopy_memory: true,
        ..ClusterConfig::small_test()
    })
    .unwrap();
    let vm = eng
        .add_vm(0, &busy_writer(), StrategyKind::Mirror, SimTime::ZERO)
        .unwrap();
    let err = eng.schedule_migration(vm, 1, t(1.0)).unwrap_err();
    assert_eq!(
        err,
        EngineError::IncompatibleMemoryStrategy {
            strategy: StrategyKind::Mirror
        }
    );
    assert!(err.to_string().contains("requires pre-copy memory"));
}

#[test]
fn report_helpers_are_coherent() {
    let r = run_one(StrategyKind::Hybrid, 1.0, 300.0);
    // traffic_for sums to total.
    let sum: u64 = r.traffic.iter().map(|&(_, b)| b).sum();
    assert_eq!(sum, r.total_traffic);
    // mean over one migration equals its own time.
    let m = r.the_migration();
    assert!((r.mean_migration_time() - m.migration_time.unwrap().as_secs_f64()).abs() < 1e-9);
    assert!((r.total_migration_time() - r.mean_migration_time()).abs() < 1e-9);
    // all_finished_at equals the single VM's finish time.
    assert_eq!(r.all_finished_at(), r.vms[0].finished_at);
    // I/O-path counters cover the workload's writes.
    let vm = &r.vms[0];
    assert!(vm.writes_buffered_bytes + vm.writes_throttled_bytes >= vm.bytes_written);
}

#[test]
fn traffic_tag_totals_are_exclusive_and_exhaustive() {
    let r = run_one(StrategyKind::Mirror, 1.0, 600.0);
    assert!(
        r.traffic_for(TrafficTag::Mirror) > 0,
        "mirror writes must flow"
    );
    assert_eq!(
        r.migration_traffic,
        r.total_traffic - r.traffic_for(TrafficTag::AppNet)
    );
}

#[test]
fn migration_timeline_follows_figure_2() {
    use lsm_core::engine::Milestone;
    let r = run_one(StrategyKind::Hybrid, 1.0, 300.0);
    let m = r.the_migration();
    let kinds: Vec<Milestone> = m.timeline.iter().map(|&(_, k)| k).collect();
    assert_eq!(kinds.first(), Some(&Milestone::Requested));
    assert_eq!(kinds.last(), Some(&Milestone::Completed));
    assert!(kinds.contains(&Milestone::StopAndCopy));
    assert!(kinds.contains(&Milestone::RemainingSetSent));
    assert!(kinds.contains(&Milestone::ControlTransferred));
    // Timestamps are monotone.
    assert!(m.timeline.windows(2).all(|w| w[0].0 <= w[1].0));
    // Phase durations reconstruct the total.
    let total = m
        .phase_duration(Milestone::Requested, Milestone::Completed)
        .unwrap();
    assert_eq!(Some(total), m.migration_time);
    // The pull phase is the control->completed interval for hybrid.
    let pull = m
        .phase_duration(Milestone::ControlTransferred, Milestone::Completed)
        .unwrap();
    assert!(pull <= total);
}

/// A guest whose workload has not started dirties no memory: the first
/// pre-copy pass of a VM that starts long after its migration leaves
/// nothing behind, so the stop-and-copy follows it with no second round.
#[test]
fn a_guest_that_has_not_started_dirties_no_memory() {
    use lsm_core::engine::Milestone;
    let seq = WorkloadSpec::SeqWrite {
        offset: 0,
        total: 16 * MIB,
        block: MIB,
        think_secs: 0.05,
    };
    for strategy in [
        StrategyKind::Hybrid,
        StrategyKind::Precopy,
        StrategyKind::Mirror,
    ] {
        let mut eng = Engine::new(ClusterConfig::small_test()).unwrap();
        let vm = eng.add_vm(0, &seq, strategy, t(1e6)).unwrap();
        eng.schedule_migration(vm, 1, t(3.0)).unwrap();
        let r = eng.run_until(t(300.0));
        let m = r.the_migration();
        assert!(m.completed, "{strategy:?}");
        assert_eq!(m.mem_rounds, 1, "{strategy:?}: {:?}", m.timeline);
        let kinds: Vec<Milestone> = m.timeline.iter().map(|&(_, k)| k).collect();
        assert!(!kinds.contains(&Milestone::MemRound(2)), "{strategy:?}");
        assert!(kinds.contains(&Milestone::StopAndCopy), "{strategy:?}");
    }
}
