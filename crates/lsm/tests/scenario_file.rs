//! The shipped `scenarios/demo.toml` must parse, run end-to-end, and
//! produce exactly the same report as the equivalent engine-API
//! program; every other shipped scenario is its producer's
//! serialization, byte for byte.

use lsm::core::{Engine, MigrationStatus, StrategyKind};
use lsm::experiments::scenario::{run_scenario, ScenarioSpec};
use lsm::simcore::SimTime;

const DEMO: &str = include_str!("../../../scenarios/demo.toml");

#[test]
fn demo_file_parses_and_roundtrips() {
    let spec = ScenarioSpec::from_toml(DEMO).expect("demo.toml parses");
    assert_eq!(spec.name.as_deref(), Some("demo"));
    assert_eq!(spec.vms.len(), 2);
    assert_eq!(spec.migrations.len(), 2);
    // Partial [cluster] override: explicit fields stick, the rest
    // default.
    let cluster = spec.cluster_config();
    assert_eq!(cluster.nodes, 4);
    assert_eq!(cluster.image_size, 64 << 20);
    assert_eq!(cluster.disk_bw, lsm::simcore::units::mb_per_s(55.0));
    // Mixed strategies: scenario default + per-VM override.
    assert_eq!(spec.vm_strategy(0), StrategyKind::Hybrid);
    assert_eq!(spec.vm_strategy(1), StrategyKind::Postcopy);
    // Round-trip.
    let back = ScenarioSpec::from_toml(&spec.to_toml().unwrap()).unwrap();
    assert_eq!(back, spec);
}

#[test]
fn demo_file_runs_identically_to_the_engine_program() {
    let spec = ScenarioSpec::from_toml(DEMO).expect("demo.toml parses");
    let from_file = run_scenario(&spec).expect("runs");

    // The same scenario, written against the engine API directly.
    let mut sim = Engine::new(spec.cluster_config()).unwrap();
    let a = sim
        .add_vm(
            0,
            &spec.vms[0].workload,
            StrategyKind::Hybrid,
            SimTime::ZERO,
        )
        .unwrap();
    let c = sim
        .add_vm(
            1,
            &spec.vms[1].workload,
            StrategyKind::Postcopy,
            SimTime::ZERO,
        )
        .unwrap();
    let ja = sim
        .schedule_migration(a, 2, SimTime::from_secs_f64(1.0))
        .unwrap();
    let jc = sim
        .schedule_migration(c, 3, SimTime::from_secs_f64(2.0))
        .unwrap();
    let from_program = sim.run_until(SimTime::from_secs_f64(300.0));

    let json = |r| serde_json::to_string(r).expect("report serializes");
    assert_eq!(json(&from_file), json(&from_program));
    assert_eq!(sim.job_status(ja), Some(MigrationStatus::Completed));
    assert_eq!(sim.job_status(jc), Some(MigrationStatus::Completed));
}

// ---------------- generated scenarios ----------------

/// Every shipped file but `demo.toml` is generated: `scenarios/` and
/// `generated_scenarios()` name the same files. The drift tests below
/// and in `lsm-experiments` check each file against its producer.
#[test]
fn generated_scenarios_list_every_shipped_file_but_demo() {
    let mut shipped: Vec<String> = std::fs::read_dir(lsm::experiments::SCENARIOS_DIR)
        .expect("scenarios/ is readable")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|f| f.ends_with(".toml") && f != "demo.toml")
        .collect();
    shipped.sort();
    let generated = lsm::experiments::generated_scenarios();
    let listed: Vec<&str> = generated.iter().map(|(f, _)| *f).collect();
    assert_eq!(
        shipped, listed,
        "scenarios/ and generated_scenarios() disagree"
    );
}

// ---------------- scenarios/scale64.toml ----------------

const SCALE64: &str = include_str!("../../../scenarios/scale64.toml");

/// The checked-in paper-scale scenario must stay byte-identical to
/// its generator, so tests that build it in code and `lsm run
/// scenarios/scale64.toml` run the same experiment.
#[test]
fn scale64_file_matches_generator() {
    lsm::experiments::check_generated(&["scale64.toml"]).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn scale64_file_parses_to_the_paper_scale_shape() {
    let spec = ScenarioSpec::from_toml(SCALE64).expect("scale64.toml parses");
    assert_eq!(spec.cluster_config().nodes, 64);
    assert_eq!(spec.vms.len(), 128);
    assert_eq!(spec.migrations.len(), 128);
}

// ---------------- scenarios/scale1024.toml ----------------

const SCALE1024: &str = include_str!("../../../scenarios/scale1024.toml");

/// The checked-in 1024-node sharded-engine scenario must stay
/// byte-identical to its generator, so tests that build it in code and
/// `lsm run scenarios/scale1024.toml` run the same experiment.
#[test]
fn scale1024_file_matches_generator() {
    lsm::experiments::check_generated(&["scale1024.toml"]).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn scale1024_file_parses_to_the_fleet_shape() {
    let spec = ScenarioSpec::from_toml(SCALE1024).expect("scale1024.toml parses");
    assert_eq!(spec.cluster_config().nodes, 1024);
    assert_eq!(spec.vms.len(), 2048);
    assert_eq!(spec.migrations.len(), 2048);
}

// ---------------- scenarios/chaos_storm.toml ----------------

const CHAOS_STORM: &str = include_str!("../../../scenarios/chaos_storm.toml");

/// The checked-in chaos-storm scenario must stay byte-identical to its
/// producer, so `lsm run scenarios/chaos_storm.toml --check` replays
/// exactly the episode the resilience acceptance tests pin.
#[test]
fn chaos_storm_file_matches_generator() {
    lsm::experiments::check_generated(&["chaos_storm.toml"]).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn chaos_storm_file_parses_to_the_storm_shape() {
    let spec = ScenarioSpec::from_toml(CHAOS_STORM).expect("chaos_storm.toml parses");
    assert_eq!(spec.cluster_config().nodes, 8);
    assert_eq!(spec.vms.len(), 6);
    assert_eq!(spec.migrations.len(), 6);
    assert_eq!(spec.faults.as_ref().map(Vec::len), Some(7));
    assert_eq!(spec.cancellations.as_ref().map(Vec::len), Some(1));
    assert_eq!(spec.resilience.as_ref().unwrap().retry.max_attempts, 3);
}
