//! Acceptance tests for the shipped orchestration scenarios: the
//! checked-in files match their producers byte for byte, the evacuation
//! completes invariant-clean under the admission cap, and the adaptive
//! fleet's strategy choices follow the paper's §4 rule.

use lsm_check::{CheckConfig, InvariantObserver};
use lsm_core::policy::StrategyKind;
use lsm_core::{FaultKind, RequestIntent, SkipReason};
use lsm_experiments::orchestration::{adaptive64_spec, evacuate_spec};
use lsm_experiments::scenario::{build_scenario, run_scenario, ScenarioSpec};
use lsm_simcore::time::SimTime;
use lsm_simcore::units::MIB;
use lsm_workloads::WorkloadSpec;

/// The checked-in `scenarios/*.toml` files are the producers'
/// serializations, byte for byte (edit the producer, rerun `regen`,
/// commit both).
#[test]
fn checked_in_scenarios_match_producers() {
    lsm_experiments::check_generated(&[
        "evacuate.toml",
        "adaptive64.toml",
        "cost64.toml",
        "qos64.toml",
    ])
    .unwrap_or_else(|e| panic!("{e}"));
}

/// The evacuation scenario drains node 1 completely, under the cap,
/// with zero invariant violations — including the new admission-cap
/// and placement laws, which are live because the cap is configured.
#[test]
fn evacuation_completes_clean_under_check() {
    let spec = evacuate_spec();
    let mut sim = build_scenario(&spec).expect("builds").into_engine();
    let mut obs = InvariantObserver::with_config(CheckConfig {
        deep_scan_interval: 1024,
        ..CheckConfig::default()
    });
    let report = sim.run_until_observed(SimTime::from_secs_f64(spec.horizon_secs), &mut obs);
    obs.assert_clean("evacuate.toml");
    assert!(obs.checks_run() > 10_000, "audit barely ran");

    assert_eq!(report.migrations.len(), 3, "three guests lived on node 1");
    for m in &report.migrations {
        assert!(m.completed, "vm {} evacuation incomplete", m.vm);
        assert_eq!(m.consistent, Some(true));
    }
    for v in &report.vms {
        assert_ne!(v.final_host, 1, "vm {} still on the drained node", v.vm);
    }
    // Every decision traces to the single evacuation request, and the
    // adaptive planner split the strategies by observed intensity: the
    // hotspot writer (vm 1) went Hybrid, the finished (idle-by-then)
    // writers went Precopy.
    assert_eq!(report.planner.len(), 3);
    for d in &report.planner {
        assert_eq!(d.request, Some(0));
        assert_eq!(d.planner, "adaptive");
        assert_eq!(d.source, 1);
    }
    let strategy_of = |vm: u32| {
        report
            .planner
            .iter()
            .find(|d| d.vm == vm)
            .map(|d| d.strategy)
            .unwrap_or_else(|| panic!("no decision for vm {vm}"))
    };
    assert_eq!(strategy_of(1), StrategyKind::Hybrid, "hot writer");
    assert_eq!(strategy_of(2), StrategyKind::Precopy, "idle by drain time");
    assert_eq!(strategy_of(3), StrategyKind::Precopy, "idle by drain time");
}

/// Crash-then-restore at the scenario level (ISSUE 5 bugfix): a
/// declarative `[[faults]]` plan downs every possible destination
/// before an `[[requests]]` evacuation fires, then restores one node.
/// The evacuation step must park (not silently drop), retry when the
/// node returns, and the guest must eventually leave the drained node —
/// with the whole plan surviving a TOML round-trip.
#[test]
fn evacuation_survives_crash_then_restore() {
    let mut spec = ScenarioSpec::baseline(
        StrategyKind::Hybrid,
        WorkloadSpec::SeqWrite {
            offset: 0,
            total: 16 * MIB,
            block: MIB,
            think_secs: 0.05,
        },
    )
    .with_cluster(lsm_core::config::ClusterConfig::small_test())
    .with_horizon(600.0)
    .with_name("crash-then-restore");
    for node in [1, 2, 3] {
        spec = spec.with_fault(1.0, FaultKind::NodeCrash { node });
    }
    spec = spec
        .with_request(2.0, RequestIntent::Evacuate { node: 0 })
        .with_fault(40.0, FaultKind::NodeRestore { node: 2 });

    // The plan (NodeRestore included) is fully declarative.
    let spec = ScenarioSpec::from_toml(&spec.to_toml().expect("serializes")).expect("parses");
    let report = run_scenario(&spec).expect("runs");

    assert_eq!(report.migrations.len(), 1, "the parked step must retry");
    assert!(report.migrations[0].completed);
    assert_eq!(report.vms[0].final_host, 2, "only node 2 came back");
    assert_eq!(report.planner_skips.len(), 1);
    assert_eq!(report.planner_skips[0].reason, SkipReason::NoDestination);
    assert!(!report.planner_skips[0].terminal);
}

/// The adaptive fleet: every hot writer migrates with `Hybrid`, every
/// idle guest with `Precopy` (the §4 acceptance pair), the bursty
/// checkpoint class lands in between, the admission cap visibly
/// defers work, and all 64 migrations complete.
#[test]
fn adaptive64_classifies_the_fleet() {
    let spec = adaptive64_spec();
    let report = run_scenario(&spec).expect("runs");
    assert_eq!(report.planner.len(), 64, "one decision per migration");
    for d in &report.planner {
        match d.vm % 3 {
            0 => assert_eq!(
                d.strategy,
                StrategyKind::Hybrid,
                "hot writer vm {} misclassified",
                d.vm
            ),
            2 => assert_eq!(
                d.strategy,
                StrategyKind::Precopy,
                "idle vm {} misclassified",
                d.vm
            ),
            _ => assert!(
                matches!(
                    d.strategy,
                    StrategyKind::Mirror | StrategyKind::Precopy | StrategyKind::Hybrid
                ),
                "checkpointer vm {} got {:?}",
                d.vm,
                d.strategy
            ),
        }
    }
    // The light checkpoint class exists and is mostly Mirror — the
    // middle band of the rule, not an artifact of the two extremes.
    let mirrors = report
        .planner
        .iter()
        .filter(|d| d.strategy == StrategyKind::Mirror)
        .count();
    assert!(mirrors >= 16, "only {mirrors} Mirror decisions");
    assert!(
        report.planner.iter().filter(|d| d.deferred).count() >= 8,
        "the cap of 8 never deferred anything"
    );
    for m in &report.migrations {
        assert!(m.completed, "vm {} migration incomplete", m.vm);
        assert_eq!(m.consistent, Some(true), "vm {} diverged", m.vm);
    }
}
