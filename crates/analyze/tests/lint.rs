//! One detection test per diagnostic code, a blanket lint over every
//! shipped scenario, and dynamic cross-validation of the error-level
//! feasibility proofs: when the linter claims a run *must* fail, the
//! engine is run and must fail the predicted way.

use lsm_analyze::{fails, has_errors, lint, Diag, DiagCode, Severity};
use lsm_core::planner::RequestIntent;
use lsm_core::{
    AutonomicConfig, FailureReason, FaultKind, OrchestratorConfig, PlannerKind, QosConfig,
    ResilienceConfig, StrategyKind,
};
use lsm_experiments::scenario::{run_scenario, MigrationSpec, ScenarioSpec, VmSpec};
use lsm_simcore::units::{GIB, MIB};
use lsm_workloads::WorkloadSpec;

/// A convergent, lint-clean base: one SeqWrite VM on node 0, migrated
/// to node 1 — writes at ~19 MB/s against a 117.5 MB/s NIC.
fn clean_spec() -> ScenarioSpec {
    ScenarioSpec::single_migration(
        StrategyKind::Hybrid,
        WorkloadSpec::SeqWrite {
            offset: 0,
            total: 256 * MIB,
            block: MIB,
            think_secs: 0.05,
        },
        1.0,
    )
    .with_horizon(120.0)
}

/// A write-saturating workload: think time 0 drives the closed loop at
/// the full 266 MB/s page-cache bandwidth, past any NIC.
fn saturating_seqwrite(total: u64) -> WorkloadSpec {
    WorkloadSpec::SeqWrite {
        offset: 0,
        total,
        block: MIB,
        think_secs: 0.0,
    }
}

fn codes(diags: &[Diag]) -> Vec<DiagCode> {
    diags.iter().map(|d| d.code).collect()
}

#[track_caller]
fn assert_fires(diags: &[Diag], code: DiagCode) {
    assert!(
        diags.iter().any(|d| d.code == code),
        "expected {code} to fire, got {:?}",
        codes(diags)
    );
}

#[track_caller]
fn assert_silent(diags: &[Diag], code: DiagCode) {
    assert!(
        diags.iter().all(|d| d.code != code),
        "expected {code} to stay silent, got {:?}",
        codes(diags)
    );
}

#[test]
fn clean_spec_is_clean() {
    let diags = lint(&clean_spec());
    assert!(
        !fails(&diags, true),
        "the baseline fixture must lint clean, got {:?}",
        codes(&diags)
    );
}

// ---------------------------------------------------------------- L000

#[test]
fn l000_collects_every_structural_error() {
    let mut spec = clean_spec();
    spec.vms[0].node = 99; // host out of range
    spec.migrations[0].dest = 77; // dest out of range
    spec.migrations.push(MigrationSpec {
        vm: 5, // no such VM
        dest: 1,
        at_secs: f64::NAN, // bad time
        deadline_secs: None,
    });
    let diags = lint(&spec);
    let n = diags
        .iter()
        .filter(|d| d.code == DiagCode::InvalidSpec)
        .count();
    assert!(
        n >= 4,
        "all structural problems must be collected (not first-error-wins), got {n}: {:?}",
        codes(&diags)
    );
    // Structural errors short-circuit the deeper analyses.
    assert!(diags.iter().all(|d| d.code == DiagCode::InvalidSpec));
    assert!(has_errors(&diags));
}

#[test]
fn l000_rejects_grouped_overrides() {
    let mut spec = clean_spec();
    spec.grouped = true;
    spec.vms[0].strategy = Some(StrategyKind::Postcopy);
    assert_fires(&lint(&spec), DiagCode::InvalidSpec);
}

// ---------------------------------------------------------------- L001

#[test]
fn l001_fires_when_memory_cannot_fit_the_horizon() {
    // 256 MiB of touched guest memory over a 117.5 MB/s wire needs
    // ~2.3 s; requesting at t=4 of a 5 s horizon leaves only 1 s.
    let mut spec = clean_spec().with_horizon(5.0);
    spec.migrations[0].at_secs = 4.0;
    let diags = lint(&spec);
    assert_fires(&diags, DiagCode::CapacityInfeasible);
    assert!(fails(&diags, false), "L001 is an error");
}

#[test]
fn l001_aggregate_bound_catches_a_switch_bound_plan() {
    // Shrink the switch until the plan's total memory provably cannot
    // cross it within the horizon, even though each migration fits its
    // own wire budget timewise.
    let mut spec = clean_spec().with_horizon(30.0);
    let mut cluster = spec.cluster_config();
    cluster.switch_bw = 1e6; // 1 MB/s backplane
    cluster.nic_bw = 1e6;
    spec.cluster = Some(cluster);
    let diags = lint(&spec);
    assert_fires(&diags, DiagCode::CapacityInfeasible);
}

// ---------------------------------------------------------------- L002

fn nonconvergent_mirror() -> ScenarioSpec {
    ScenarioSpec::single_migration(StrategyKind::Mirror, saturating_seqwrite(2 * GIB), 1.0)
        .with_horizon(6.0)
}

#[test]
fn l002_fires_for_static_mirror_outpacing_the_wire() {
    let diags = lint(&nonconvergent_mirror());
    assert_fires(&diags, DiagCode::NonConvergent);
    assert!(!fails(&diags, false), "L002 is warn-level");
    assert!(fails(&diags, true), "L002 fails under --deny warnings");
}

#[test]
fn l002_respects_every_suppression() {
    // A deadline bounds the job: livelock becomes a clean abort.
    let mut spec = nonconvergent_mirror();
    spec.migrations[0].deadline_secs = Some(3.0);
    assert_silent(&lint(&spec), DiagCode::NonConvergent);

    // Resilience auto-converge throttles the guest into convergence.
    let spec = nonconvergent_mirror().with_resilience(ResilienceConfig::default());
    assert_silent(&lint(&spec), DiagCode::NonConvergent);

    // A telemetry planner chooses every scheme from run-time telemetry.
    let spec = nonconvergent_mirror().with_orchestrator(OrchestratorConfig {
        planner: PlannerKind::Adaptive,
        ..OrchestratorConfig::default()
    });
    assert_silent(&lint(&spec), DiagCode::NonConvergent);

    // Hybrid withholds hot chunks instead of chasing them.
    let spec =
        ScenarioSpec::single_migration(StrategyKind::Hybrid, saturating_seqwrite(2 * GIB), 1.0)
            .with_horizon(6.0);
    assert_silent(&lint(&spec), DiagCode::NonConvergent);

    // A migration requested after the writes stop has nothing to chase:
    // 2 GiB at ~266 MB/s is done by ~8 s.
    let mut spec =
        ScenarioSpec::single_migration(StrategyKind::Mirror, saturating_seqwrite(2 * GIB), 20.0)
            .with_horizon(60.0);
    spec.migrations[0].at_secs = 20.0;
    assert_silent(&lint(&spec), DiagCode::NonConvergent);
}

// ---------------------------------------------------------------- L003

fn impossible_deadline() -> ScenarioSpec {
    // By t=4 the saturating writer has modified ~1 GiB of storage;
    // even discounted 2x, pushing it through 117.5 MB/s needs ~4.6 s
    // against a 0.5 s deadline.
    let mut spec =
        ScenarioSpec::single_migration(StrategyKind::Hybrid, saturating_seqwrite(GIB), 4.0)
            .with_horizon(120.0);
    spec.migrations[0].deadline_secs = Some(0.5);
    spec
}

#[test]
fn l003_fires_when_the_deadline_is_below_the_lower_bound() {
    let diags = lint(&impossible_deadline());
    assert_fires(&diags, DiagCode::DeadlineImpossible);
    assert!(fails(&diags, false), "L003 is an error");
}

#[test]
fn l003_stays_silent_for_a_generous_deadline() {
    let mut spec = impossible_deadline();
    spec.migrations[0].deadline_secs = Some(60.0);
    assert_silent(&lint(&spec), DiagCode::DeadlineImpossible);
}

// ---------------------------------------------------------------- L01x

#[test]
fn l010_restore_without_crash_is_dead() {
    let spec = clean_spec().with_fault(2.0, FaultKind::NodeRestore { node: 1 });
    assert_fires(&lint(&spec), DiagCode::DeadFault);
    // Preceded by the crash it undoes, the restore is live.
    let spec = clean_spec()
        .with_fault(1.0, FaultKind::NodeCrash { node: 1 })
        .with_fault(2.0, FaultKind::NodeRestore { node: 1 });
    assert_silent(&lint(&spec), DiagCode::DeadFault);
}

#[test]
fn l010_stall_on_a_vm_that_never_migrates_is_dead() {
    let spec = ScenarioSpec::baseline(
        StrategyKind::Hybrid,
        WorkloadSpec::SeqWrite {
            offset: 0,
            total: 256 * MIB,
            block: MIB,
            think_secs: 0.05,
        },
    )
    .with_horizon(120.0)
    .with_fault(2.0, FaultKind::TransferStall { vm: 0, secs: 5.0 });
    assert_fires(&lint(&spec), DiagCode::DeadFault);
}

#[test]
fn l010_crash_on_an_unused_node_is_dead_only_in_a_closed_world() {
    // SeqWrite is chunk-aligned write-only and no planner can add
    // placements: node 5 provably never sees traffic.
    let spec = clean_spec().with_fault(2.0, FaultKind::NodeCrash { node: 5 });
    assert_fires(&lint(&spec), DiagCode::DeadFault);
    // An autonomic planner may place anything anywhere — not dead.
    let spec = clean_spec()
        .with_fault(2.0, FaultKind::NodeCrash { node: 5 })
        .with_autonomic(AutonomicConfig::default());
    assert_silent(&lint(&spec), DiagCode::DeadFault);
}

#[test]
fn l011_events_after_the_horizon_never_fire() {
    let mut spec = clean_spec()
        .with_fault(500.0, FaultKind::NodeCrash { node: 1 })
        .with_cancellation(600.0, 0)
        .with_request(700.0, RequestIntent::Evacuate { node: 0 });
    spec.migrations.push(MigrationSpec {
        vm: 0,
        dest: 2,
        at_secs: 400.0,
        deadline_secs: None,
    });
    let diags = lint(&spec);
    let n = diags
        .iter()
        .filter(|d| d.code == DiagCode::DeadEvent)
        .count();
    assert_eq!(
        n,
        4,
        "migration, fault, cancellation and request past the 120 s horizon are all dead: {:?}",
        codes(&diags)
    );
}

#[test]
fn l012_cancellation_before_its_migration_is_dead() {
    let spec = clean_spec().with_cancellation(0.5, 0); // migration at t=1
    assert_fires(&lint(&spec), DiagCode::DeadCancellation);
    let spec = clean_spec().with_cancellation(1.5, 0);
    assert_silent(&lint(&spec), DiagCode::DeadCancellation);
}

#[test]
fn l013_qos_cap_at_or_above_the_wire_is_dead() {
    let cap = |mb| {
        clean_spec().with_qos(QosConfig {
            bandwidth_cap_mb: Some(mb),
            ..QosConfig::default()
        })
    };
    assert_fires(&lint(&cap(200.0)), DiagCode::DeadQosCap); // NIC is 117.5
    assert_silent(&lint(&cap(60.0)), DiagCode::DeadQosCap);
}

#[test]
fn l014_admission_cap_wider_than_the_plan_is_dead() {
    let spec = clean_spec().with_orchestrator(OrchestratorConfig {
        max_concurrent: Some(5),
        ..OrchestratorConfig::default()
    });
    assert_fires(&lint(&spec), DiagCode::DeadAdmissionCap);
    // A request plan can originate more migrations than are declared.
    let spec = clean_spec()
        .with_orchestrator(OrchestratorConfig {
            max_concurrent: Some(5),
            ..OrchestratorConfig::default()
        })
        .with_request(2.0, RequestIntent::Evacuate { node: 0 });
    assert_silent(&lint(&spec), DiagCode::DeadAdmissionCap);
}

// ---------------------------------------------------------------- L02x

#[test]
fn l020_downtime_limit_conflicts_with_postcopy_memory() {
    let res = ResilienceConfig {
        downtime_limit_ms: Some(300.0),
        ..ResilienceConfig::default()
    };
    let mut spec = clean_spec().with_resilience(res.clone());
    let mut cluster = spec.cluster_config();
    cluster.postcopy_memory = true;
    spec.cluster = Some(cluster);
    assert_fires(&lint(&spec), DiagCode::ConflictDowntimePostcopy);
    // Under pre-copy memory the limit bounds a real stop-and-copy.
    let spec = clean_spec().with_resilience(res);
    assert_silent(&lint(&spec), DiagCode::ConflictDowntimePostcopy);
}

#[test]
fn l021_retry_with_no_reachable_cause_is_flagged() {
    let spec = clean_spec().with_resilience(ResilienceConfig::default());
    assert_fires(&lint(&spec), DiagCode::ConflictRetryUnreachable);
    // Any enabled cause that can occur makes the policy reachable.
    let spec = clean_spec()
        .with_resilience(ResilienceConfig::default())
        .with_fault(2.0, FaultKind::NodeCrash { node: 1 });
    assert_silent(&lint(&spec), DiagCode::ConflictRetryUnreachable);
    let mut spec = clean_spec().with_resilience(ResilienceConfig::default());
    spec.migrations[0].deadline_secs = Some(60.0);
    assert_silent(&lint(&spec), DiagCode::ConflictRetryUnreachable);
}

#[test]
fn l022_cooldown_outlasting_the_horizon_is_flagged() {
    let auto = |cooldown_secs| AutonomicConfig {
        cooldown_secs,
        ..AutonomicConfig::default()
    };
    let spec = clean_spec().with_autonomic(auto(500.0)); // horizon 120
    assert_fires(&lint(&spec), DiagCode::ConflictCooldownHorizon);
    let spec = clean_spec().with_autonomic(auto(30.0));
    assert_silent(&lint(&spec), DiagCode::ConflictCooldownHorizon);
}

// ---------------------------------------------------------------- L03x

#[test]
fn l030_explains_inadmissible_scenarios() {
    // A fault plan is fleet-global: the partitioner refuses it.
    let spec = clean_spec().with_fault(2.0, FaultKind::NodeCrash { node: 1 });
    let diags = lint(&spec);
    assert_fires(&diags, DiagCode::ShardInadmissible);
    assert_silent(&diags, DiagCode::ShardOk);
    assert!(
        diags
            .iter()
            .filter(|d| d.code == DiagCode::ShardInadmissible)
            .all(|d| d.severity == Severity::Info),
        "the shard explainer is informational"
    );
    assert!(!fails(&diags, true), "info never fails a lint");
}

#[test]
fn l030_collapses_repeated_reasons() {
    let mut spec = clean_spec();
    spec.vms.push(VmSpec::new(
        2,
        WorkloadSpec::SeqWrite {
            offset: 0,
            total: 256 * MIB,
            block: MIB,
            think_secs: 0.05,
        },
    ));
    spec.migrations.push(MigrationSpec {
        vm: 1,
        dest: 3,
        at_secs: 1.0,
        deadline_secs: None,
    });
    spec.strategy = StrategyKind::SharedFs;
    let diags = lint(&spec);
    let shared: Vec<_> = diags
        .iter()
        .filter(|d| d.code == DiagCode::ShardInadmissible)
        .collect();
    assert_eq!(
        shared.len(),
        1,
        "two same-kind rejections collapse to one diagnostic: {:?}",
        codes(&diags)
    );
    assert!(
        shared[0].message.contains("1 more like this"),
        "the collapsed diagnostic carries the count: {}",
        shared[0].message
    );
}

#[test]
fn l031_reports_shardable_scenarios_with_their_width() {
    // Two disjoint migrations over a switch-decoupled fabric.
    let mut spec = clean_spec();
    spec.vms.push(VmSpec::new(
        2,
        WorkloadSpec::SeqWrite {
            offset: 0,
            total: 256 * MIB,
            block: MIB,
            think_secs: 0.05,
        },
    ));
    spec.migrations.push(MigrationSpec {
        vm: 1,
        dest: 3,
        at_secs: 1.0,
        deadline_secs: None,
    });
    let diags = lint(&spec);
    assert_fires(&diags, DiagCode::ShardOk);
    assert_silent(&diags, DiagCode::ShardInadmissible);
    let ok = diags.iter().find(|d| d.code == DiagCode::ShardOk).unwrap();
    assert!(
        ok.message.contains("2 independent sub-scenarios"),
        "explainer names the partition width: {}",
        ok.message
    );
}

// ------------------------------------------------- shipped scenarios

/// Every scenario the repository ships must lint clean at the severity
/// CI enforces (`--deny warnings`): errors and warnings are both
/// forbidden, the info-level shard explainer is expected.
#[test]
fn all_shipped_scenarios_lint_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios/ directory") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = ScenarioSpec::from_toml(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let diags = lint(&spec);
        assert!(
            !fails(&diags, true),
            "{} must lint clean under --deny warnings, got {:?}",
            path.display(),
            codes(&diags)
        );
    }
    assert!(
        seen >= 13,
        "expected the 13 shipped scenarios, found {seen}"
    );
}

// ------------------------------------------- dynamic cross-validation

/// When L003 proves a deadline unreachable, the engine must produce
/// exactly the predicted failure: `DeadlineExceeded`, not completion.
#[test]
fn l003_prediction_is_confirmed_by_the_engine() {
    let spec = impossible_deadline();
    assert_fires(&lint(&spec), DiagCode::DeadlineImpossible);
    let report = run_scenario(&spec).expect("the spec builds and runs");
    let rec = &report.migrations[0];
    assert!(!rec.completed, "the linter proved this cannot complete");
    assert!(
        matches!(rec.failure, Some(FailureReason::DeadlineExceeded { .. })),
        "expected DeadlineExceeded, got {:?}",
        rec.failure
    );
}

/// When L002 flags a non-convergent mirror with nothing bounding the
/// job, a horizon-bounded run must end with the migration unfinished.
#[test]
fn l002_prediction_is_confirmed_by_the_engine() {
    let spec = nonconvergent_mirror();
    assert_fires(&lint(&spec), DiagCode::NonConvergent);
    let report = run_scenario(&spec).expect("the spec builds and runs");
    let rec = &report.migrations[0];
    assert!(
        !rec.completed,
        "the mirror stream cannot converge before the horizon: {:?}",
        rec.failure
    );
}
