//! The shipped fault scenarios behave as documented — expected
//! `FailureReason`s, resume behavior, completion under degradation —
//! and every shipped scenario (figures, scale64, faults) runs with
//! **zero invariant violations** under the `lsm-check` observer, with
//! bit-identical reports under both network solvers.

use lsm_check::{CheckConfig, InvariantObserver};
use lsm_core::policy::StrategyKind;
use lsm_core::{FailureReason, MigrationStatus, RunReport};
use lsm_experiments::scenario::{run_scenario, run_scenario_with, ScenarioSpec};
use lsm_experiments::{faults, fig3, fig4, fig5, stress, Scale};
use lsm_netsim::SolverMode;

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
    if reports[0] != reports[1] {
        let diff = reports[0]
            .lines()
            .zip(reports[1].lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        panic!("{name}: solver reports diverge at {diff:?}");
    }
    kept.expect("two runs happened")
}

#[test]
fn dest_crash_scenario_fails_with_expected_reason_and_guest_survives() {
    let spec = faults::dest_crash_spec();
    let r = run_checked_both_solvers("fault-dest-crash", &spec);
    let m = &r.migrations[0];
    assert_eq!(m.status, MigrationStatus::Failed);
    assert_eq!(
        m.failure,
        Some(FailureReason::DestinationCrashed { node: 1 })
    );
    assert!(!m.completed);
    // Resume behavior: the guest kept running at the source and finished.
    assert_eq!(r.vms[0].final_host, 0);
    assert!(r.vms[0].finished_at.is_some(), "guest must survive");
    assert!(r.vms[0].bytes_written > 0);
}

#[test]
fn degraded_link_scenario_completes_consistently() {
    let spec = faults::degraded_link_spec();
    let r = run_checked_both_solvers("fault-degraded-link", &spec);
    let m = &r.migrations[0];
    assert_eq!(m.status, MigrationStatus::Completed);
    assert_eq!(m.consistent, Some(true));

    // The degradation window + stall must actually cost time versus the
    // identical scenario without its fault plan.
    let mut clean = spec.clone();
    clean.faults = None;
    let rc = run_scenario(&clean).expect("clean variant runs");
    let (slow, fast) = (
        m.migration_time.expect("completed").as_secs_f64(),
        rc.migrations[0]
            .migration_time
            .expect("completed")
            .as_secs_f64(),
    );
    assert!(
        slow > fast,
        "faults must slow the migration: {slow:.2}s vs clean {fast:.2}s"
    );
}

#[test]
fn deadline_scenario_aborts_with_partial_progress() {
    let spec = faults::deadline_spec();
    let r = run_checked_both_solvers("fault-deadline", &spec);
    let m = &r.migrations[0];
    assert_eq!(m.status, MigrationStatus::Failed);
    assert_eq!(
        m.failure,
        Some(FailureReason::DeadlineExceeded { deadline_secs: 0.4 })
    );
    assert!(
        m.mem_rounds > 0 || m.pushed_chunks > 0,
        "partial progress must be reported"
    );
    assert_eq!(r.vms[0].final_host, 0, "guest stays at the source");
    assert!(r.vms[0].finished_at.is_some());
}

#[test]
fn figure_scenarios_are_invariant_clean() {
    let mut specs: Vec<(String, ScenarioSpec)> = Vec::new();
    for (label, spec) in fig3::scenarios(Scale::Quick, StrategyKind::Hybrid) {
        specs.push((format!("fig3/{label}"), spec));
    }
    let p4 = fig4::Fig4Params::for_scale(Scale::Quick);
    let k = *p4.ks.last().expect("non-empty");
    specs.push((
        format!("fig4/k{k}"),
        fig4::scenario(&p4, StrategyKind::Hybrid, k),
    ));
    let p5 = fig5::Fig5Params::for_scale(Scale::Quick);
    let n = *p5.ns.last().expect("non-empty");
    specs.push((
        format!("fig5/n{n}"),
        fig5::scenario(&p5, StrategyKind::Hybrid, n),
    ));
    for (name, spec) in specs {
        let run = run_scenario_with(&spec, 1, SolverMode::Incremental, checker)
            .unwrap_or_else(|e| panic!("{name}: rejected: {e}"));
        run.observers[0].assert_clean(&name);
    }
}

#[test]
fn scale64_quick_is_invariant_clean() {
    let spec = stress::scale64_quick_spec();
    let run = run_scenario_with(&spec, 1, SolverMode::Incremental, || {
        InvariantObserver::with_config(CheckConfig {
            deep_scan_interval: 16384, // 16 VMs x 64 MiB images: keep it fast
            ..CheckConfig::default()
        })
    })
    .expect("scale64-quick runs");
    let obs = &run.observers[0];
    obs.assert_clean("scale64-quick");
    assert!(
        obs.checks_run() > 100_000,
        "audit must actually cover the run"
    );
}

#[test]
fn fault_scenarios_match_checked_in_files() {
    lsm_experiments::check_generated(&[
        "fault_dest_crash.toml",
        "fault_degraded_link.toml",
        "fault_deadline.toml",
    ])
    .unwrap_or_else(|e| panic!("{e}"));
}
