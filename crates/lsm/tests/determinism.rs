//! Seeded-determinism regression: running the same scenario twice with
//! the same seed yields **byte-identical** serialized `RunReport`s —
//! including the paper-scale `scenarios/scale64.toml` and the shipped
//! fault scenarios. This is the property every other bit-identity test
//! (solver equivalence, fuzzing, report diffing across PRs) stands on.
//!
//! The same runs are also pinned against [`GOLDEN`], so a change that
//! moves any report shows up as a failing test that names the scenario.

use lsm::core::config::ClusterConfig;
use lsm::core::engine::NullObserver;
use lsm::core::policy::StrategyKind;
use lsm::core::{AutonomicConfig, FaultKind, QosConfig, RebalanceTrigger, ReplanReason, RunReport};
use lsm::experiments::scenario::{run_scenario, run_scenario_with, ScenarioSpec};
use lsm::experiments::sweep::parallel_map;
use lsm::experiments::{faults, fig3, fig4, fig5, generated_scenarios, resilience, stress, Scale};
use lsm::netsim::SolverMode;
use lsm::workloads::WorkloadSpec;

/// Golden fingerprints of the shipped scenarios, the quick fleets, the
/// memory-copy runs of [`memory_copy_specs`], the autonomic crash
/// re-plan and the figure runs of [`figure_specs`]:
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
    ("memory-deferral", 40605, "97bbf5c6c8758927"),
    ("memory-linger-4-streams", 21820, "9c79d303a998f3a6"),
    ("memory-postcopy-4-streams", 13237, "fb4fa07803f6ddd9"),
    ("memory-postcopy-pvfs", 42131, "36b6be6e7e988237"),
    ("autonomic-crash-replan", 270, "2e96a3a1e54c3281"),
    // Quick-scale figure runs (`quick_figures_match_golden`).
    ("fig3-our-approach-IOR", 3502, "5c024f75503eebd6"),
    ("fig3-our-approach-AsyncWR", 755, "cf16f229f2b3d609"),
    ("fig4-our-approach-k0", 3556, "2f457d9172bb4dbe"),
    ("fig4-our-approach-k1", 3630, "30fdddbedd222b28"),
    ("fig4-our-approach-k2", 3650, "285d78d7c8e380da"),
    ("fig4-our-approach-k4", 3690, "14174f3ede323711"),
    ("fig5-our-approach-n0", 716, "751119ba33067417"),
    ("fig5-our-approach-n1", 782, "cb6ac19f24e5b74c"),
    ("fig5-our-approach-n2", 865, "369ba2b7bd405a26"),
    ("fig3-mirror-IOR", 3501, "a29b4066202e6269"),
    ("fig3-mirror-AsyncWR", 680, "66a0a6c6128e2e21"),
    ("fig4-mirror-k0", 3556, "2f457d9172bb4dbe"),
    ("fig4-mirror-k1", 3561, "49ad29a993c9f08d"),
    ("fig4-mirror-k2", 3532, "456b7fa098c18095"),
    ("fig4-mirror-k4", 3474, "58aa9b6a70f974a7"),
    ("fig5-mirror-n0", 716, "751119ba33067417"),
    ("fig5-mirror-n1", 762, "e4d6591118127539"),
    ("fig5-mirror-n2", 844, "8ccfcd2b0fbdb205"),
    ("fig3-postcopy-IOR", 3629, "677e7acfc842df2e"),
    ("fig3-postcopy-AsyncWR", 811, "107ef23a88d5ec37"),
    ("fig4-postcopy-k0", 3556, "2f457d9172bb4dbe"),
    ("fig4-postcopy-k1", 3704, "364fffff73cd9ded"),
    ("fig4-postcopy-k2", 3807, "f11fca778752fce3"),
    ("fig4-postcopy-k4", 4013, "a5dd80659d4fbe14"),
    ("fig5-postcopy-n0", 716, "751119ba33067417"),
    ("fig5-postcopy-n1", 816, "18a14f49320a3f2c"),
    ("fig5-postcopy-n2", 947, "a18306c44b04b2aa"),
    ("fig3-precopy-IOR", 3501, "59c8b51194062d83"),
    ("fig3-precopy-AsyncWR", 754, "e42310668af1e6a6"),
    ("fig4-precopy-k0", 3556, "2f457d9172bb4dbe"),
    ("fig4-precopy-k1", 3629, "798c02e426fb7167"),
    ("fig4-precopy-k2", 3648, "6d5680a7933139fd"),
    ("fig4-precopy-k4", 3686, "628791acece0195e"),
    ("fig5-precopy-n0", 716, "751119ba33067417"),
    ("fig5-precopy-n1", 781, "dd393676398dc318"),
    ("fig5-precopy-n2", 863, "f58739fabc771072"),
    ("fig3-pvfs-shared-IOR", 18441, "9d78e695956bb04a"),
    ("fig3-pvfs-shared-AsyncWR", 344, "5aca78e0f1615a9e"),
    ("fig4-pvfs-shared-k0", 1470, "4dee98b0c28fdd79"),
    ("fig4-pvfs-shared-k1", 1741, "536aa2e68aa70cc5"),
    ("fig4-pvfs-shared-k2", 1914, "3d8cf254085ed920"),
    ("fig4-pvfs-shared-k4", 1816, "b1a4088372d069b2"),
    ("fig5-pvfs-shared-n0", 1761, "2b090f9ebc32a0d8"),
    ("fig5-pvfs-shared-n1", 1734, "ec009fb30edcc38a"),
    ("fig5-pvfs-shared-n2", 1744, "df5ff3386c642e2d"),
    // Paper-scale figure runs (`paper_figures_match_golden`, ignored).
    ("paper-fig3-our-approach-IOR", 99890, "51f1b8d3462af36f"),
    ("paper-fig3-our-approach-AsyncWR", 5262, "a99f79c7862be371"),
    ("paper-fig4-our-approach-k0", 119790, "79d86a38b0fae93d"),
    ("paper-fig4-our-approach-k1", 121059, "4d29aa8115e4eada"),
    ("paper-fig4-our-approach-k10", 129537, "cfb6077a64126788"),
    ("paper-fig4-our-approach-k20", 138562, "1502066322cec3df"),
    ("paper-fig4-our-approach-k30", 145551, "1c06175478eea4b2"),
    ("paper-fig5-our-approach-n0", 235248, "2cccdcc17961d0fb"),
    ("paper-fig5-our-approach-n1", 235566, "e975ef2efa9ecd58"),
    ("paper-fig5-our-approach-n2", 236489, "9cf94ba263203cf4"),
    ("paper-fig5-our-approach-n3", 237774, "225f5968be8fbe2d"),
    ("paper-fig5-our-approach-n4", 240009, "8bee608be760d488"),
    ("paper-fig5-our-approach-n5", 242130, "aba6b0d3d55a5793"),
    ("paper-fig5-our-approach-n6", 244251, "8ccdd541e1a7a346"),
    ("paper-fig5-our-approach-n7", 246372, "4a8ed57dcf7deaa3"),
    ("paper-fig3-mirror-IOR", 102217, "bd89f3c9475244dc"),
    ("paper-fig3-mirror-AsyncWR", 4966, "cad01c82889f9fe9"),
    ("paper-fig4-mirror-k0", 119790, "79d86a38b0fae93d"),
    ("paper-fig4-mirror-k1", 120763, "92ea01193848c259"),
    ("paper-fig4-mirror-k10", 125767, "5f115ac896d356d1"),
    ("paper-fig4-mirror-k20", 130903, "e582466ef5667aab"),
    ("paper-fig4-mirror-k30", 135443, "650954b83c553417"),
    ("paper-fig5-mirror-n0", 235248, "2cccdcc17961d0fb"),
    ("paper-fig5-mirror-n1", 235565, "a9f00f2388c3766e"),
    ("paper-fig5-mirror-n2", 236450, "f0c9b517f68454ff"),
    ("paper-fig5-mirror-n3", 237670, "30994eb3e02fef17"),
    ("paper-fig5-mirror-n4", 239389, "a2a3a37d99ab2bb8"),
    ("paper-fig5-mirror-n5", 241390, "bb29c94a40c91cce"),
    ("paper-fig5-mirror-n6", 243391, "92851c20a2b1d478"),
    ("paper-fig5-mirror-n7", 245392, "9e109c45b03b06c2"),
    ("paper-fig3-postcopy-IOR", 100453, "d473188011e0803f"),
    ("paper-fig3-postcopy-AsyncWR", 5491, "bf2fbb086d4321a4"),
    ("paper-fig4-postcopy-k0", 119790, "79d86a38b0fae93d"),
    ("paper-fig4-postcopy-k1", 121288, "0354542bdef4c2af"),
    ("paper-fig4-postcopy-k10", 131935, "b952384b7fa676b5"),
    ("paper-fig4-postcopy-k20", 143771, "241213fb453bf475"),
    ("paper-fig4-postcopy-k30", 159218, "fae96863331adccb"),
    ("paper-fig5-postcopy-n0", 235248, "2cccdcc17961d0fb"),
    ("paper-fig5-postcopy-n1", 235766, "3a525d63ba12d539"),
    ("paper-fig5-postcopy-n2", 237352, "09fd5b46b62ac628"),
    ("paper-fig5-postcopy-n3", 239379, "bb885dc8a14ae1b4"),
    ("paper-fig5-postcopy-n4", 241994, "e3e11ecf6ec8cfb2"),
    ("paper-fig5-postcopy-n5", 245007, "400a13ddb084935a"),
    ("paper-fig5-postcopy-n6", 248020, "aac67d1d77448466"),
    ("paper-fig5-postcopy-n7", 251033, "e65419425d2d4eab"),
    ("paper-fig3-precopy-IOR", 103535, "d84e300d206c0f87"),
    ("paper-fig3-precopy-AsyncWR", 5326, "af65e028d9be3a82"),
    ("paper-fig4-precopy-k0", 119790, "79d86a38b0fae93d"),
    ("paper-fig4-precopy-k1", 121123, "a51c9f30b9b3fe80"),
    ("paper-fig4-precopy-k10", 128359, "2eed5834305c3d41"),
    ("paper-fig4-precopy-k20", 135904, "beba583a99219b93"),
    ("paper-fig4-precopy-k30", 143686, "aa4a0ff5975a124a"),
    ("paper-fig5-precopy-n0", 235248, "2cccdcc17961d0fb"),
    ("paper-fig5-precopy-n1", 235565, "e30e746614215d12"),
    ("paper-fig5-precopy-n2", 236487, "936ac3c95a480df9"),
    ("paper-fig5-precopy-n3", 237771, "05eb54063bb2d159"),
    ("paper-fig5-precopy-n4", 239840, "aec0253e5d07839f"),
    ("paper-fig5-precopy-n5", 241841, "61879ecb4759f053"),
    ("paper-fig5-precopy-n6", 243842, "cee3e7da5ef9c672"),
    ("paper-fig5-precopy-n7", 245843, "680c22d3efa08e6b"),
    ("paper-fig3-pvfs-shared-IOR", 491604, "3c85f66f5b819732"),
    ("paper-fig3-pvfs-shared-AsyncWR", 2019, "49c6f1c631f0160b"),
    ("paper-fig4-pvfs-shared-k1", 46927, "4b43bad21b817c9c"),
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

/// Why `report` does not match `name`'s golden entry, if it does not.
fn golden_mismatch(name: &str, report: &RunReport) -> Option<String> {
    let (events, hash) = (report.events, fingerprint(report));
    let line = format!("(\"{name}\", {events}, \"{hash}\"),");
    let Some(&(_, want_events, want_hash)) = GOLDEN.iter().find(|(n, ..)| *n == name) else {
        return Some(format!("{name}: no golden entry; add {line}"));
    };
    ((events, hash.as_str()) != (want_events, want_hash)).then(|| {
        format!(
            "{name}: fingerprint {hash} with {events} events, golden {want_hash} with \
             {want_events} events; if the change is meant, replace its line with {line}"
        )
    })
}

fn assert_golden(name: &str, report: &RunReport) {
    if let Some(why) = golden_mismatch(name, report) {
        panic!("{why}");
    }
}

/// Run every `(name, spec)` once, on all cores, and list every run that
/// misses its golden entry.
fn assert_all_golden(runs: Vec<(String, ScenarioSpec)>) {
    let misses: Vec<String> = parallel_map(runs, |(name, spec)| {
        golden_mismatch(&name, &run_scenario(&spec).expect("figure scenario runs"))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}

fn pretty(report: &RunReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

fn serialized(spec: &ScenarioSpec) -> String {
    pretty(&run_scenario(spec).expect("scenario runs"))
}

/// The report of `spec` on `threads` worker threads under `solver`.
fn run_on(spec: &ScenarioSpec, threads: usize, solver: SolverMode) -> RunReport {
    run_scenario_with(spec, threads, solver, || NullObserver)
        .expect("scenario runs")
        .report
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

/// The shipped `fault_*.toml` scenarios, from their producers.
fn fault_scenarios() -> impl Iterator<Item = (&'static str, ScenarioSpec)> {
    generated_scenarios()
        .into_iter()
        .filter(|(file, _)| file.starts_with("fault_"))
}

#[test]
fn fault_scenarios_are_deterministic() {
    for (file, spec) in fault_scenarios() {
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

/// Runs that reach the memory copies no shipped file makes: deferral
/// rounds with auto-converge steps, linger rounds split into shards,
/// a sharded post-copy handover with its one-flow background pull,
/// and post-copy under the PVFS I/O path, whose pull starts and lands
/// while the phase is still the stop-and-copy.
fn memory_copy_specs() -> Vec<(&'static str, ScenarioSpec)> {
    let mut deferral = resilience::auto_converge_spec();
    deferral.strategy = StrategyKind::Hybrid;
    let res = deferral
        .resilience
        .as_mut()
        .expect("auto-converge sets [resilience]");
    res.downtime_limit_ms = Some(1.0);
    res.downtime_extra_rounds = 3;
    // The quick hotspot writer and cluster of the Threshold ablation.
    let hotspot = WorkloadSpec::HotspotWrite {
        offset: 0,
        region_blocks: 256,
        block: 256 * 1024,
        count: 6000,
        theta: 0.85,
        think_secs: 0.005,
        seed: 11,
    };
    let cluster = ClusterConfig {
        nodes: 4,
        threshold: 3,
        dirty_expire_secs: 1.0,
        ..ClusterConfig::small_test()
    };
    let postcopy = ClusterConfig {
        postcopy_memory: true,
        ..cluster.clone()
    };
    let streams = QosConfig {
        streams: 4,
        compress_mem_ratio: 0.5,
        ..QosConfig::default()
    };
    let single = |strategy, cluster: &ClusterConfig| {
        ScenarioSpec::single_migration(strategy, hotspot.clone(), 5.0)
            .with_cluster(cluster.clone())
            .with_horizon(400.0)
    };
    vec![
        ("memory-deferral", deferral),
        (
            "memory-linger-4-streams",
            single(StrategyKind::Precopy, &cluster).with_qos(streams.clone()),
        ),
        (
            "memory-postcopy-4-streams",
            single(StrategyKind::Hybrid, &postcopy).with_qos(streams),
        ),
        (
            "memory-postcopy-pvfs",
            single(StrategyKind::SharedFs, &postcopy),
        ),
    ]
}

#[test]
fn memory_copy_kinds_are_deterministic() {
    for (name, spec) in memory_copy_specs() {
        assert_golden(name, &assert_deterministic(name, &spec));
    }
}

/// The autonomic destination-crash re-plan, which no shipped file
/// makes: one Hybrid writer migrating from node 0 to node 1 at 1 s,
/// node 1 crashing at 1.6 s mid-transfer, and an overload threshold no
/// node can reach, so the re-plan is the rebalancer's only act. The pin
/// covers the placement `try_replan_crash` asks the planner for.
#[test]
fn autonomic_crash_replan_is_deterministic() {
    let writer = WorkloadSpec::SeqWrite {
        offset: 0,
        total: 48 << 20,
        block: 1 << 20,
        think_secs: 0.05,
    };
    let spec = ScenarioSpec::single_migration(StrategyKind::Hybrid, writer, 1.0)
        .with_cluster(ClusterConfig::small_test())
        .with_autonomic(AutonomicConfig {
            overload_pressure: 50.0,
            underload_pressure: 0.01,
            hysteresis: 0.0,
            ..AutonomicConfig::default()
        })
        .with_fault(1.6, FaultKind::NodeCrash { node: 1 })
        .with_horizon(600.0);
    let name = "autonomic-crash-replan";
    let report = assert_deterministic(name, &spec);
    assert!(
        report.rebalance.iter().any(|a| matches!(
            a.trigger,
            RebalanceTrigger::Replan {
                reason: ReplanReason::DestinationCrashed { node: 1 },
                ..
            }
        )),
        "{name}: the crash must be re-planned, not failed"
    );
    assert_eq!(report.planner.len(), 2, "{name}: admission + re-admission");
    assert!(
        report.migrations[0].completed,
        "{name}: the re-planned job completes"
    );
    assert_golden(name, &report);
}

/// The figure generators' scenarios: fig3's two workloads, fig4 at each
/// of `ks` and fig5 at each of `ns`, under every strategy in
/// `strategies`, exactly as `lsm fig3`, `lsm fig4` and `lsm fig5` build
/// them. Named
/// `fig3-<strategy>-<workload>`, `fig4-<strategy>-k<k>` and
/// `fig5-<strategy>-n<n>`, with a `paper-` prefix at paper scale.
fn figure_specs(
    scale: Scale,
    strategies: &[StrategyKind],
    ks: &[u32],
    ns: &[u32],
) -> Vec<(String, ScenarioSpec)> {
    let prefix = if scale == Scale::Paper { "paper-" } else { "" };
    let (p4, p5) = (
        fig4::Fig4Params::for_scale(scale),
        fig5::Fig5Params::for_scale(scale),
    );
    let mut runs = Vec::new();
    for &s in strategies {
        for (workload, spec) in fig3::scenarios(scale, s) {
            runs.push((format!("{prefix}fig3-{}-{workload}", s.label()), spec));
        }
        for &k in ks {
            let spec = fig4::scenario(&p4, s, k);
            runs.push((format!("{prefix}fig4-{}-k{k}", s.label()), spec));
        }
        for &n in ns {
            let spec = fig5::scenario(&p5, s, n);
            runs.push((format!("{prefix}fig5-{}-n{n}", s.label()), spec));
        }
    }
    runs
}

/// Every quick-scale figure run, under every strategy: 45 runs, 15 of
/// them the `pvfs-shared` baseline.
#[test]
fn quick_figures_match_golden() {
    assert_all_golden(figure_specs(
        Scale::Quick,
        &StrategyKind::ALL,
        &[0, 1, 2, 4],
        &[0, 1, 2],
    ));
}

/// The paper-scale figure runs: fig3 under every strategy, fig4 and
/// fig5 across their sweeps under the four local-storage strategies,
/// and fig4's `pvfs-shared` k = 1, whose ~1,800 live flows are the
/// network's many-flow regime. About 30 s in release on 2 cores, nearly
/// all of it that one run. Too slow for every debug `cargo test`; CI
/// runs it in release:
/// `cargo test --release -p lsm --test determinism -- --ignored --exact
/// paper_figures_match_golden`.
#[test]
#[ignore = "63 paper-scale runs; run explicitly with -- --ignored"]
fn paper_figures_match_golden() {
    let local: Vec<StrategyKind> = StrategyKind::ALL
        .into_iter()
        .filter(|&s| s != StrategyKind::SharedFs)
        .collect();
    let ns: Vec<u32> = (0..=7).collect();
    let mut runs = figure_specs(Scale::Paper, &local, &[0, 1, 10, 20, 30], &ns);
    runs.extend(figure_specs(
        Scale::Paper,
        &[StrategyKind::SharedFs],
        &[1],
        &[],
    ));
    assert_all_golden(runs);
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
        let incremental = pretty(&run_on(&spec, 1, SolverMode::Incremental));
        let reference = pretty(&run_on(&spec, 1, SolverMode::Reference));
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
    let mut first = None;
    for solver in [SolverMode::Incremental, SolverMode::Reference] {
        let mut reports = Vec::new();
        for threads in [1usize, 2, 8] {
            let report = run_on(spec, threads, solver);
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
    for (file, spec) in fault_scenarios() {
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
    use lsm::experiments::shard::partition;
    let mut spec = stress::scale1024_quick_spec();
    let cluster = spec.cluster.as_mut().expect("pair specs set a cluster");
    cluster.nodes = 1024;
    cluster.switch_bw = 2.0 * 1024.0 * cluster.nic_bw;
    assert!(partition(&spec).is_ok(), "the sparse fleet must shard");
    let [monolith, shards] = [
        (1usize, SolverMode::Incremental),
        (2, SolverMode::Reference),
    ]
    .map(|(threads, solver)| pretty(&run_on(&spec, threads, solver)));
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
    let report = run_on(&scale1024_file_spec(), 2, SolverMode::Incremental);
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
