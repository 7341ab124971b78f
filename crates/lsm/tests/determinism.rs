//! Seeded-determinism regression: running the same scenario twice with
//! the same seed yields **byte-identical** serialized `RunReport`s —
//! including the paper-scale `scenarios/scale64.toml` and the shipped
//! fault scenarios. This is the property every other bit-identity test
//! (solver equivalence, fuzzing, report diffing across PRs) stands on.

use lsm::experiments::scenario::{run_scenario, run_scenario_with_solver, ScenarioSpec};
use lsm::experiments::{faults, stress};
use lsm::netsim::SolverMode;

fn serialized(spec: &ScenarioSpec) -> String {
    let report = run_scenario(spec).expect("scenario runs");
    serde_json::to_string_pretty(&report).expect("report serializes")
}

fn assert_deterministic(name: &str, spec: &ScenarioSpec) {
    let a = serialized(spec);
    let b = serialized(spec);
    if a != b {
        let diff = a
            .lines()
            .zip(b.lines())
            .enumerate()
            .find(|(_, (x, y))| x != y);
        panic!("{name}: two identical runs diverge at {diff:?}");
    }
}

#[test]
fn demo_scenario_is_deterministic() {
    let spec =
        ScenarioSpec::from_toml(include_str!("../../../scenarios/demo.toml")).expect("parses");
    assert_deterministic("demo.toml", &spec);
}

#[test]
fn fault_scenarios_are_deterministic() {
    for (file, spec) in faults::all() {
        assert_deterministic(file, &spec);
    }
}

#[test]
fn scale64_quick_is_deterministic() {
    assert_deterministic("scale64-quick", &stress::scale64_quick_spec());
}

/// The full paper-scale scenario, loaded from the checked-in file
/// exactly as `lsm bench` would (two ~1 s runs; worth the wall time —
/// 128 staggered migrations exercise every queue-ordering edge).
#[test]
fn scale64_file_is_deterministic() {
    let spec =
        ScenarioSpec::from_toml(include_str!("../../../scenarios/scale64.toml")).expect("parses");
    assert_deterministic("scale64.toml", &spec);
}

/// The orchestrated scenarios (planner placement, adaptive strategy
/// selection, admission-cap deferral) are byte-identical across two
/// runs *and* across the network rate solvers — planner decisions are
/// part of the engine's replay contract, not a source of noise.
#[test]
fn orchestrated_scenarios_are_deterministic_across_runs_and_solvers() {
    for (file, text) in [
        (
            "evacuate.toml",
            include_str!("../../../scenarios/evacuate.toml"),
        ),
        (
            "adaptive64.toml",
            include_str!("../../../scenarios/adaptive64.toml"),
        ),
        (
            "cost64.toml",
            include_str!("../../../scenarios/cost64.toml"),
        ),
        // The autonomic scenarios have no scripted migrations at all —
        // every event downstream of a monitor tick is rebalancer-made,
        // so these pins cover the whole closed loop.
        (
            "hotspot_drill.toml",
            include_str!("../../../scenarios/hotspot_drill.toml"),
        ),
        (
            "slow_drain.toml",
            include_str!("../../../scenarios/slow_drain.toml"),
        ),
        // The chaos storm leans on every resilience path at once —
        // retry backoff, crash re-placement, resumed transfers, a
        // cancellation — and all of it must replay bit-identically.
        (
            "chaos_storm.toml",
            include_str!("../../../scenarios/chaos_storm.toml"),
        ),
    ] {
        let spec = ScenarioSpec::from_toml(text).expect("parses");
        assert_deterministic(file, &spec);
        let incremental = run_scenario_with_solver(&spec, SolverMode::Incremental)
            .map(|r| serde_json::to_string_pretty(&r).expect("serializes"))
            .expect("runs");
        let reference = run_scenario_with_solver(&spec, SolverMode::Reference)
            .map(|r| serde_json::to_string_pretty(&r).expect("serializes"))
            .expect("runs");
        if incremental != reference {
            let diff = incremental
                .lines()
                .zip(reference.lines())
                .enumerate()
                .find(|(_, (x, y))| x != y);
            panic!("{file}: solvers diverge at {diff:?}");
        }
    }
}

/// Byte-identity across worker-thread counts, under both solvers: for
/// every tracked scenario, `--threads 1` (the monolithic engine),
/// `--threads 2` and `--threads 8` (the sharded parallel engine, when
/// the partitioner admits the scenario — monolithic fallback when not)
/// must serialize the exact same `RunReport`. This is the sharded
/// engine's whole contract: thread count is a performance knob, never
/// an observable.
fn assert_thread_count_invariant(name: &str, spec: &ScenarioSpec) {
    use lsm::experiments::shard::run_scenario_threaded_with_solver;
    for solver in [SolverMode::Incremental, SolverMode::Reference] {
        let reports: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                run_scenario_threaded_with_solver(spec, threads, solver)
                    .map(|r| serde_json::to_string_pretty(&r).expect("serializes"))
                    .expect("runs")
            })
            .collect();
        for (i, threads) in [2usize, 8].iter().enumerate() {
            if reports[0] != reports[i + 1] {
                let diff = reports[0]
                    .lines()
                    .zip(reports[i + 1].lines())
                    .enumerate()
                    .find(|(_, (x, y))| x != y);
                panic!("{name} [{solver:?}]: --threads {threads} diverges from --threads 1 at {diff:?}");
            }
        }
    }
}

#[test]
fn tracked_scenarios_are_thread_count_invariant() {
    // The genuinely shardable fleet: 32 independent pair components.
    assert_thread_count_invariant("scale1024-quick", &stress::scale1024_quick_spec());
    // The rest of the tracked set exercises the partitioner's fallback
    // (orchestrated, autonomic, single-component, or fault-bearing
    // scenarios run monolithic at any thread count).
    assert_thread_count_invariant("scale64-quick", &stress::scale64_quick_spec());
    for (file, text) in [
        ("demo.toml", include_str!("../../../scenarios/demo.toml")),
        (
            "evacuate.toml",
            include_str!("../../../scenarios/evacuate.toml"),
        ),
        ("qos64.toml", include_str!("../../../scenarios/qos64.toml")),
        (
            "hotspot_drill.toml",
            include_str!("../../../scenarios/hotspot_drill.toml"),
        ),
        (
            "chaos_storm.toml",
            include_str!("../../../scenarios/chaos_storm.toml"),
        ),
    ] {
        let spec = ScenarioSpec::from_toml(text).expect("parses");
        assert_thread_count_invariant(file, &spec);
    }
    for (file, spec) in faults::all() {
        assert_thread_count_invariant(file, &spec);
    }
}

/// The quick fleet's 64 busy nodes on a sparse 1024-node fabric: the
/// incremental monolith re-solves components whose resource indices lie
/// far apart in a 2049-resource table, while each 2-node shard of the
/// sharded run solves from scratch under the reference solver — an
/// independent oracle, so the two reports must be byte-identical.
/// (Not in the thread-count test above: its reference *monolith* is too
/// slow at this fleet size for every `cargo test`.)
#[test]
fn sparse_fleet_monolith_matches_reference_shards() {
    use lsm::experiments::shard::{partition, run_scenario_threaded_with_solver};
    let mut spec = stress::scale1024_quick_spec();
    let cluster = spec.cluster.as_mut().expect("pair specs set a cluster");
    cluster.nodes = 1024;
    cluster.switch_bw = 2.0 * 1024.0 * cluster.nic_bw;
    assert!(partition(&spec).is_ok(), "the sparse fleet must shard");
    let [monolith, shards] = [
        (1usize, SolverMode::Incremental),
        (2, SolverMode::Reference),
    ]
    .map(|(threads, solver)| {
        run_scenario_threaded_with_solver(&spec, threads, solver)
            .map(|r| serde_json::to_string_pretty(&r).expect("serializes"))
            .expect("runs")
    });
    if monolith != shards {
        let diff = monolith
            .lines()
            .zip(shards.lines())
            .enumerate()
            .find(|(_, (x, y))| x != y);
        panic!("sparse fleet: incremental monolith diverges from reference shards at {diff:?}");
    }
}

/// The full 1024-node fleet (2048 VMs, 512 shards): byte-identical at
/// `--threads 1/2/8` under both solvers. Six ~15–45 s runs — worth it
/// before a release, too slow for every `cargo test`:
/// `cargo test -p lsm --test determinism -- --ignored`.
#[test]
#[ignore = "six paper-scale runs; run explicitly with -- --ignored"]
fn scale1024_full_is_thread_count_invariant() {
    let spec =
        ScenarioSpec::from_toml(include_str!("../../../scenarios/scale1024.toml")).expect("parses");
    assert_thread_count_invariant("scale1024.toml", &spec);
}

/// The seed matters: "same seed ⇒ same run" must not be vacuous, so a
/// *different* workload seed has to produce a genuinely different run.
/// (Seeds live on the stochastic workloads — the Zipf hotspot writer
/// here; an engine run is a pure function of the full spec.)
#[test]
fn seed_is_threaded_through_the_run() {
    let base = faults::dest_crash_spec();
    let mut reseeded = base.clone();
    match &mut reseeded.vms[0].workload {
        lsm::workloads::WorkloadSpec::HotspotWrite { seed, .. } => *seed = 4242,
        other => panic!("dest_crash_spec changed shape: {other:?}"),
    }
    // Both runs are individually deterministic...
    assert_deterministic("dest-crash seed=7", &base);
    assert_deterministic("dest-crash seed=4242", &reseeded);
    // ...and different seeds visit different chunks, so the serialized
    // reports must diverge (a dead seed would make them identical).
    assert_ne!(
        serialized(&base),
        serialized(&reseeded),
        "the workload seed is dead state: two different seeds produced identical runs"
    );
}
