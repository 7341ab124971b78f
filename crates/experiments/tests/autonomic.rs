//! Acceptance tests for the shipped autonomic-rebalancer scenarios:
//! the checked-in files match their producers byte for byte, and both
//! closed-loop runs — which contain **zero** scripted migrations —
//! reach a balanced steady state invariant-clean under the full
//! checker, including the rebalancer laws (thresholds held, no
//! ping-pong, re-queues trace to re-plans).

use lsm_check::{CheckConfig, InvariantObserver};
use lsm_core::{NodeClass, RebalanceTrigger};
use lsm_experiments::autonomic::{hotspot_drill_spec, slow_drain_spec};
use lsm_experiments::scenario::build_scenario;
use lsm_simcore::time::SimTime;

/// The checked-in `scenarios/*.toml` files are the producers'
/// serializations, byte for byte (edit the producer, rerun `regen`,
/// commit both).
#[test]
fn checked_in_scenarios_match_producers() {
    lsm_experiments::check_generated(&["hotspot_drill.toml", "slow_drain.toml"])
        .unwrap_or_else(|e| panic!("{e}"));
}

/// The hotspot drill reaches a balanced steady state purely from
/// rebalancer-originated migrations, invariant-clean: the overloaded
/// node ends inside the overload band and the monitor has gone quiet
/// (no action in the final quarter of the horizon).
#[test]
fn hotspot_drill_balances_clean_under_check() {
    let spec = hotspot_drill_spec();
    let mut sim = build_scenario(&spec).expect("builds").into_engine();
    let mut obs = InvariantObserver::with_config(CheckConfig {
        deep_scan_interval: 1024,
        ..CheckConfig::default()
    });
    let report = sim.run_until_observed(SimTime::from_secs_f64(spec.horizon_secs), &mut obs);
    obs.assert_clean("hotspot_drill.toml");
    assert!(obs.checks_run() > 10_000, "audit barely ran");

    assert!(!report.migrations.is_empty(), "no originated moves");
    for m in &report.migrations {
        assert!(m.completed, "vm {} move incomplete", m.vm);
        assert_eq!(m.consistent, Some(true), "vm {} diverged", m.vm);
    }
    // Balanced steady state: every node classifies inside the band at
    // the end, and the loop went quiet well before the horizon.
    let acfg = sim.autonomic_config().expect("configured");
    for (n, p) in sim.node_pressures().iter().enumerate() {
        assert!(
            *p < acfg.overload_pressure,
            "node {n} still overloaded at the horizon ({p:.3})"
        );
    }
    let classes = sim.node_classes();
    assert!(
        !classes.contains(&NodeClass::Overloaded),
        "not steady: {classes:?}"
    );
    let last = report.rebalance.last().expect("actions recorded");
    assert!(
        last.at.as_secs_f64() < spec.horizon_secs * 0.75,
        "monitor still acting near the horizon (last at {:?})",
        last.at
    );
}

/// The slow drain leaves the underloaded node empty, invariant-clean.
#[test]
fn slow_drain_empties_the_node_clean_under_check() {
    let spec = slow_drain_spec();
    let mut sim = build_scenario(&spec).expect("builds").into_engine();
    let mut obs = InvariantObserver::with_config(CheckConfig {
        deep_scan_interval: 256,
        ..CheckConfig::default()
    });
    let report = sim.run_until_observed(SimTime::from_secs_f64(spec.horizon_secs), &mut obs);
    obs.assert_clean("slow_drain.toml");

    assert!(report
        .rebalance
        .iter()
        .any(|a| matches!(a.trigger, RebalanceTrigger::Underload { node: 1, .. })));
    for v in &report.vms {
        assert_ne!(v.final_host, 1, "vm {} still on the drained node", v.vm);
    }
    for m in &report.migrations {
        assert!(m.completed, "vm {} move incomplete", m.vm);
    }
}
