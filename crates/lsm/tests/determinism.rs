//! Seeded-determinism regression: running the same scenario twice with
//! the same seed yields **byte-identical** serialized `RunReport`s —
//! including the paper-scale `scenarios/scale64.toml` and the shipped
//! fault scenarios. This is the property every other bit-identity test
//! (solver equivalence, fuzzing, report diffing across PRs) stands on.
//!
//! The same runs are also pinned against [`GOLDEN`], so a change that
//! moves any report shows up as a failing test that names the scenario.

use lsm::core::RunReport;
use lsm::experiments::scenario::{run_scenario, run_scenario_with_solver, ScenarioSpec};
use lsm::experiments::{faults, stress};
use lsm::netsim::SolverMode;

/// Golden fingerprints of the shipped scenarios and the quick fleets:
/// `(scenario, RunReport.events, FNV-1a 64 of the compact JSON report)`.
/// The hash is the one lsmbench prints (`scale64.toml` is its
/// `hybrid64`, `qos64.toml` its `qos64`). When a change moves a report
/// on purpose, paste the replacement line the failure prints and say
/// why in the change.
const GOLDEN: &[(&str, u64, &str)] = &[
    ("demo.toml", 4364, "86d49b4f4ac23eb5"),
    ("fault_dest_crash.toml", 4124, "c823912eae097723"),
    ("fault_degraded_link.toml", 245, "b270a53ea22980ce"),
    ("fault_deadline.toml", 4118, "a4cccf1b65621966"),
    ("scale64.toml", 224283, "c2429e85112aa88f"),
    ("evacuate.toml", 25170, "6817eeb4d82a0d48"),
    ("adaptive64.toml", 534315, "bbcde81f3506eb4e"),
    ("cost64.toml", 534743, "dacdc085e9ce1d3b"),
    ("hotspot_drill.toml", 119471, "7ce5cd2e697858d3"),
    ("slow_drain.toml", 18656, "2e92d2f6d0f8a9c7"),
    ("chaos_storm.toml", 9873, "921487e3f83f78c8"),
    ("qos64.toml", 534382, "fc5d45909671f123"),
    ("scale1024.toml", 5155508, "13f13d654e8cfa5d"),
    ("scale64-quick", 10587, "bbe33f7adebfb2c8"),
    ("scale1024-quick", 39996, "bdc195c1c7aacdd3"),
];

/// Every shipped scenario file has a golden entry, so a new file cannot
/// land unpinned. Runs nothing.
#[test]
fn every_shipped_scenario_has_a_golden_entry() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let missing: Vec<String> = std::fs::read_dir(dir)
        .expect("scenarios/ is readable")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.ends_with(".toml") || name.ends_with(".json"))
        .filter(|name| !GOLDEN.iter().any(|(n, ..)| n == name))
        .collect();
    assert!(
        missing.is_empty(),
        "scenarios/ files with no GOLDEN entry: {missing:?}"
    );
}

/// FNV-1a 64 of the compact JSON report, as lsmbench computes it.
fn fingerprint(report: &RunReport) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in json.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn assert_golden(name: &str, report: &RunReport) {
    let (events, hash) = (report.events, fingerprint(report));
    let line = format!("(\"{name}\", {events}, \"{hash}\"),");
    let Some(&(_, want_events, want_hash)) = GOLDEN.iter().find(|(n, ..)| *n == name) else {
        panic!("{name}: no golden entry; add {line}");
    };
    assert!(
        (events, hash.as_str()) == (want_events, want_hash),
        "{name}: fingerprint {hash} with {events} events, golden {want_hash} with \
         {want_events} events; if the change is meant, replace its line with {line}"
    );
}

fn pretty(report: &RunReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

fn serialized(spec: &ScenarioSpec) -> String {
    pretty(&run_scenario(spec).expect("scenario runs"))
}

/// Run `spec` twice, require byte-identical reports, and return the
/// first.
fn assert_deterministic(name: &str, spec: &ScenarioSpec) -> RunReport {
    let report = run_scenario(spec).expect("scenario runs");
    let (a, b) = (pretty(&report), serialized(spec));
    if a != b {
        let diff = a
            .lines()
            .zip(b.lines())
            .enumerate()
            .find(|(_, (x, y))| x != y);
        panic!("{name}: two identical runs diverge at {diff:?}");
    }
    report
}

#[test]
fn demo_scenario_is_deterministic() {
    let spec =
        ScenarioSpec::from_toml(include_str!("../../../scenarios/demo.toml")).expect("parses");
    assert_golden("demo.toml", &assert_deterministic("demo.toml", &spec));
}

#[test]
fn fault_scenarios_are_deterministic() {
    for (file, spec) in faults::all() {
        assert_golden(file, &assert_deterministic(file, &spec));
    }
}

#[test]
fn scale64_quick_is_deterministic() {
    let report = assert_deterministic("scale64-quick", &stress::scale64_quick_spec());
    assert_golden("scale64-quick", &report);
}

/// The full paper-scale scenario, loaded from the checked-in file
/// exactly as `lsm run` does (two ~1 s runs; worth the wall time —
/// 128 staggered migrations exercise every queue-ordering edge).
#[test]
fn scale64_file_is_deterministic() {
    let spec =
        ScenarioSpec::from_toml(include_str!("../../../scenarios/scale64.toml")).expect("parses");
    assert_golden("scale64.toml", &assert_deterministic("scale64.toml", &spec));
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
        assert_golden(file, &assert_deterministic(file, &spec));
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
/// an observable. Returns the monolithic incremental run's report.
fn assert_thread_count_invariant(name: &str, spec: &ScenarioSpec) -> RunReport {
    use lsm::experiments::shard::run_scenario_threaded_with_solver;
    let mut first = None;
    for solver in [SolverMode::Incremental, SolverMode::Reference] {
        let mut reports = Vec::new();
        for threads in [1usize, 2, 8] {
            let report = run_scenario_threaded_with_solver(spec, threads, solver).expect("runs");
            reports.push(pretty(&report));
            first.get_or_insert(report);
        }
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
    first.expect("at least one run")
}

#[test]
fn tracked_scenarios_are_thread_count_invariant() {
    // The genuinely shardable fleet: 32 independent pair components.
    let report = assert_thread_count_invariant("scale1024-quick", &stress::scale1024_quick_spec());
    assert_golden("scale1024-quick", &report);
    // The rest of the tracked set exercises the partitioner's fallback
    // (orchestrated, autonomic, single-component, or fault-bearing
    // scenarios run monolithic at any thread count).
    let report = assert_thread_count_invariant("scale64-quick", &stress::scale64_quick_spec());
    assert_golden("scale64-quick", &report);
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
        assert_golden(file, &assert_thread_count_invariant(file, &spec));
    }
    for (file, spec) in faults::all() {
        assert_golden(file, &assert_thread_count_invariant(file, &spec));
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

fn scale1024_file_spec() -> ScenarioSpec {
    ScenarioSpec::from_toml(include_str!("../../../scenarios/scale1024.toml")).expect("parses")
}

/// The full 1024-node fleet (2048 VMs, 512 shards) against its golden
/// entry: one sharded run on 2 threads, ~5 s in release. Too slow for
/// every debug `cargo test`; CI runs it in release:
/// `cargo test --release -p lsm --test determinism -- --ignored --exact
/// scale1024_file_matches_golden`.
#[test]
#[ignore = "one paper-scale run; run explicitly with -- --ignored"]
fn scale1024_file_matches_golden() {
    use lsm::experiments::shard::run_scenario_threaded_with_solver;
    let report =
        run_scenario_threaded_with_solver(&scale1024_file_spec(), 2, SolverMode::Incremental)
            .expect("runs");
    assert_golden("scale1024.toml", &report);
}

/// The full 1024-node fleet: byte-identical at `--threads 1/2/8` under
/// both solvers, and equal to its golden entry. Six ~15–45 s runs —
/// worth it before a release, too slow for every `cargo test`:
/// `cargo test -p lsm --test determinism -- --ignored`.
#[test]
#[ignore = "six paper-scale runs; run explicitly with -- --ignored"]
fn scale1024_full_is_thread_count_invariant() {
    let report = assert_thread_count_invariant("scale1024.toml", &scale1024_file_spec());
    assert_golden("scale1024.toml", &report);
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
