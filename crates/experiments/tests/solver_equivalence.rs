//! The allocator-rewrite contract at experiment scale: running the
//! fig3 / fig4 / fig5 scenarios under the incremental solver and under
//! the from-scratch reference solver must produce **bit-identical**
//! reports — traffic totals, per-tag byte counts, event counts, and
//! every milestone timestamp of every migration.
//!
//! Equality is asserted on the serialized [`RunReport`], so any field —
//! present or future — that diverges fails the test.

use lsm_core::engine::NullObserver;
use lsm_core::policy::StrategyKind;
use lsm_core::RunReport;
use lsm_experiments::scenario::{run_scenario_with, ScenarioSpec};
use lsm_experiments::stress::StressParams;
use lsm_experiments::{fig3, fig4, fig5, Scale};
use lsm_netsim::SolverMode;

/// Run `spec` under both solvers, require identical reports, and return
/// the incremental one.
fn assert_solver_equivalent(name: &str, spec: &ScenarioSpec) -> RunReport {
    let [inc, refr] = [SolverMode::Incremental, SolverMode::Reference].map(|solver| {
        run_scenario_with(spec, 1, solver, || NullObserver)
            .expect("scenario runs")
            .report
    });
    let ser = |r: &RunReport| serde_json::to_string_pretty(r).expect("report serializes");
    let (a, b) = (ser(&inc), ser(&refr));
    if a != b {
        // Keep the failure readable: find the first diverging line.
        let diff = a
            .lines()
            .zip(b.lines())
            .enumerate()
            .find(|(_, (x, y))| x != y);
        panic!(
            "{name}: incremental vs reference reports diverge at {:?}",
            diff
        );
    }
    // Belt and braces on the fields the paper's figures are built from.
    assert_eq!(inc.events, refr.events, "{name}: event counts");
    assert_eq!(inc.total_traffic, refr.total_traffic, "{name}: traffic");
    for (m_inc, m_ref) in inc.migrations.iter().zip(refr.migrations.iter()) {
        assert_eq!(m_inc.timeline, m_ref.timeline, "{name}: milestone timeline");
    }
    inc
}

#[test]
fn fig3_reports_identical_under_both_solvers() {
    // Hybrid exercises push + pull + memory flows; mirror adds the
    // synchronous mirror-write flows; shared-fs the PVFS stripe legs.
    for strategy in [
        StrategyKind::Hybrid,
        StrategyKind::Mirror,
        StrategyKind::SharedFs,
    ] {
        for (label, spec) in fig3::scenarios(Scale::Quick, strategy) {
            assert_solver_equivalent(&format!("fig3/{label}/{}", strategy.label()), &spec);
        }
    }
}

#[test]
fn fig4_reports_identical_under_both_solvers() {
    let p = fig4::Fig4Params::for_scale(Scale::Quick);
    let k = *p.ks.last().expect("quick sweep is non-empty");
    for strategy in [StrategyKind::Hybrid, StrategyKind::Postcopy] {
        let spec = fig4::scenario(&p, strategy, k);
        assert_solver_equivalent(&format!("fig4/{}/k{k}", strategy.label()), &spec);
    }
}

#[test]
fn fig5_reports_identical_under_both_solvers() {
    let p = fig5::Fig5Params::for_scale(Scale::Quick);
    let n = *p.ns.last().expect("quick sweep is non-empty");
    let spec = fig5::scenario(&p, StrategyKind::Hybrid, n);
    assert_solver_equivalent(&format!("fig5/our-approach/n{n}"), &spec);
}

#[test]
fn busy_nic_threshold_run_identical_under_both_solvers() {
    // scale64's fabric (a switch of 17.4 NICs) with one VM per node and
    // requests 0.35 s apart: the number of NICs carrying flows crosses
    // the switch's limit about 200 times each way, so the incremental
    // solver moves between component and full re-solves all run long.
    let p = StressParams {
        nodes: 64,
        vms_per_node: 1,
        iterations: 8,
        migrate_start: 5.0,
        stagger: 0.35,
        horizon: 150.0,
    };
    let report = assert_solver_equivalent("stress/busy-threshold", &p.spec("busy-threshold"));
    assert_eq!(report.migrations.len(), 64);
    assert!(
        report.migrations.iter().all(|m| m.completed),
        "every migration completes"
    );
}
