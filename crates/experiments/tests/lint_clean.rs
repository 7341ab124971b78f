//! Every programmatic scenario generator must produce specs that pass
//! `lsm lint --deny warnings` — the same bar CI holds the shipped
//! `scenarios/*.toml` files to. A generator drifting into dead or
//! infeasible configuration is a bug in the generator, and this is
//! where it surfaces.

use lsm_analyze::{fails, lint};
use lsm_experiments::scenario::ScenarioSpec;
use lsm_experiments::{autonomic, faults, orchestration, resilience, stress};

#[track_caller]
fn assert_clean(spec: &ScenarioSpec) {
    let diags = lint(spec);
    assert!(
        !fails(&diags, true),
        "{} must lint clean under --deny warnings:\n{}",
        spec.name.as_deref().unwrap_or("<unnamed>"),
        lsm_analyze::render(&diags)
    );
}

#[test]
fn stress_generators_lint_clean() {
    assert_clean(&stress::scale64_spec());
    assert_clean(&stress::scale64_quick_spec());
    assert_clean(&stress::scale1024_spec());
    assert_clean(&stress::scale1024_quick_spec());
}

#[test]
fn orchestration_generators_lint_clean() {
    assert_clean(&orchestration::evacuate_spec());
    assert_clean(&orchestration::adaptive64_spec());
    assert_clean(&orchestration::cost64_spec());
    assert_clean(&orchestration::qos64_spec());
}

#[test]
fn autonomic_generators_lint_clean() {
    assert_clean(&autonomic::hotspot_drill_spec());
    assert_clean(&autonomic::slow_drain_spec());
}

#[test]
fn fault_generators_lint_clean() {
    assert_clean(&faults::dest_crash_spec());
    assert_clean(&faults::degraded_link_spec());
    assert_clean(&faults::deadline_spec());
}

#[test]
fn resilience_generators_lint_clean() {
    assert_clean(&resilience::chaos_storm_spec());
    assert_clean(&resilience::auto_converge_spec());
}

const DEMO: &str = include_str!("../../../scenarios/demo.toml");

/// A lint-clean scenario must not panic the engine on fast devices: the
/// shipped demo with a 7 GB/s disk, a 10 GB/s page-cache write lane, or a
/// 100 GB/s NIC on a 1 TB/s switch. Finish instants round to the
/// nanosecond, so a disk request or a flow can complete with half a
/// nanosecond of service left, more than a byte above 2 GB/s; the lanes'
/// and the network's completion checks allow exactly that. Nor at the
/// end of the clock: vm 0 starting in its last second, whose first
/// write-back sweep falls past the end.
#[test]
fn demo_on_fast_devices_lints_clean_and_runs_clean() {
    for (section, fast) in [
        ("[cluster]\n", "disk_bw = 7000000000.0"),
        ("[cluster]\n", "cache_write_bw = 10000000000.0"),
        (
            "[cluster]\n",
            "nic_bw = 100000000000.0\nswitch_bw = 1000000000000.0",
        ),
        ("[[vms]]\n", "start_secs = 18446744073.0"),
    ] {
        let toml = DEMO.replacen(section, &format!("{section}{fast}\n"), 1);
        let spec = ScenarioSpec::from_toml(&toml).expect("parses");
        assert_clean(&spec);
        let run = lsm_experiments::scenario::run_scenario_with(
            &spec,
            1,
            lsm_netsim::SolverMode::Incremental,
            lsm_check::InvariantObserver::new,
        )
        .expect("runs");
        run.observers[0].assert_clean(fast);
        assert!(
            run.report.migrations.iter().all(|m| m.completed),
            "{fast}: every migration completes"
        );
    }
}
