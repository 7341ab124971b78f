//! The scenario fuzzer: random cluster/workload/migration/fault plans
//! — including device speeds from 30 MB/s to 100 GB/s, instants and
//! lengths up to the end of the clock, node restores, retry policies,
//! hard downtime limits, auto-converge triggers, post-copy memory and
//! operator cancellations — each run under **both**
//! network solvers with an invariant checker attached. Every case must
//! produce bit-identical serialized `RunReport`s across solvers and zero
//! invariant violations — the engine's recovery paths hold the
//! conservation laws no matter what the plan throws at them. One
//! property also draws every orchestration layer at once: planners,
//! admission caps, the autonomic rebalancer, evacuation and rebalance
//! requests, and adaptive migrations.
//!
//! Deterministic: the compat proptest derives its seed from the test
//! name (override with `PROPTEST_SEED`), and case counts are bounded
//! (`fuzz-smoke` in CI runs exactly this file, in release and under the
//! test profile, whose debug assertions check every completion's
//! residue).

use lsm_check::{CheckConfig, InvariantObserver};
use lsm_core::config::ClusterConfig;
use lsm_core::policy::StrategyKind;
use lsm_core::{
    AutonomicConfig, FaultKind, OrchestratorConfig, PlannerKind, QosConfig, RequestIntent,
    ResilienceConfig, RetryPolicy,
};
use lsm_experiments::scenario::{
    run_scenario_observed_with_solver, CancelSpec, FaultSpec, MigrationSpec, RequestSpec,
    ScenarioSpec, VmSpec,
};
use lsm_netsim::SolverMode;
use lsm_simcore::units::MIB;
use lsm_workloads::WorkloadSpec;
use proptest::prelude::*;

const NODES: u32 = 4;

/// The last whole second of the clock (`SimTime::FAR_FUTURE` is about
/// 18,446,744,073.7 s).
const CLOCK_END_SECS: f64 = 18_446_744_073.0;

/// Seconds from `near`, or now and then an instant in the clock's last
/// quarter hour, so that sums on it run past the end of the clock.
fn secs_or_clock_end(near: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop_oneof![6 => near, 1 => (CLOCK_END_SECS - 900.0)..(CLOCK_END_SECS + 0.7)]
}

/// A length from `near`, or now and then one that reaches past the end
/// of the clock from anywhere.
fn len_or_past_clock_end(near: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop_oneof![6 => near, 1 => 1e9f64..1e19]
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        (1u64..24, 1u64..3, 0.01f64..0.08).prop_map(|(mb, block, think)| {
            WorkloadSpec::SeqWrite {
                offset: 0,
                total: mb << 20,
                block: block << 20,
                think_secs: think,
            }
        }),
        (8u64..64, 50u64..600, 0.3f64..0.9, 0u64..999).prop_map(|(blocks, count, theta, seed)| {
            WorkloadSpec::HotspotWrite {
                offset: 0,
                region_blocks: blocks,
                block: 256 * 1024,
                count,
                theta,
                think_secs: 0.01,
                seed,
            }
        }),
        (1u32..4, 0.2f64..1.5).prop_map(|(bursts, secs)| WorkloadSpec::Idle {
            bursts,
            burst_secs: secs,
        }),
    ]
}

fn strategy_strategy() -> impl Strategy<Value = StrategyKind> {
    prop_oneof![
        3 => Just(StrategyKind::Hybrid),
        1 => Just(StrategyKind::Postcopy),
        1 => Just(StrategyKind::Precopy),
        1 => Just(StrategyKind::Mirror),
    ]
}

fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    (
        0.2f64..20.0,
        0u8..5,
        0u32..NODES,
        0.05f64..1.0,
        len_or_past_clock_end(0.2..4.0),
    )
        .prop_map(|(at, kind, node, factor, stall_secs)| FaultSpec {
            at_secs: at,
            kind: match kind {
                0 => FaultKind::LinkDegrade { node, factor },
                1 => FaultKind::LinkRestore { node },
                2 => FaultKind::NodeCrash { node },
                3 => FaultKind::NodeRestore { node },
                _ => FaultKind::TransferStall {
                    vm: node % 3, // may exceed the VM count: rejected specs are skipped
                    secs: stall_secs,
                },
            },
        })
}

/// A small-but-live retry policy: enough attempts and short enough
/// backoffs that retries actually fire inside the fuzzed horizons. It
/// may carry a hard downtime limit of 0.5–20 ms with 1–4 deferral
/// rounds, and its auto-converge trigger is drawn log-uniformly from
/// 0.01 of the NIC up to the default 0.9, which the small cluster's
/// guests rarely reach.
fn resilience_strategy() -> impl Strategy<Value = ResilienceConfig> {
    (
        1u32..4,
        0.2f64..3.0,
        0.0f64..6.0,
        prop::bool::ANY,
        prop::bool::ANY,
        prop::option::of((0.5f64..20.0, 1u32..5)),
        (0.0f64..1.0).prop_map(|u| 0.01 * 90f64.powf(u)),
    )
        .prop_map(
            |(max_attempts, backoff, extra, stall, deadline, limit, converge_frac)| {
                let mut cfg = ResilienceConfig {
                    retry: RetryPolicy {
                        max_attempts,
                        backoff_secs: backoff,
                        backoff_cap_secs: backoff + extra,
                        ..RetryPolicy::default()
                    },
                    converge_frac,
                    ..ResilienceConfig::default()
                };
                cfg.retry.retry_on.stall = stall;
                cfg.retry.retry_on.deadline = deadline;
                if let Some((ms, rounds)) = limit {
                    cfg.downtime_limit_ms = Some(ms);
                    cfg.downtime_extra_rounds = rounds;
                }
                cfg
            },
        )
}

/// Random QoS shaping: caps tight enough to bite on the small test
/// cluster, multifd splits, and compression with a CPU cost — the
/// shaped transfer paths must hold the same laws as the bare ones.
fn qos_strategy() -> impl Strategy<Value = QosConfig> {
    (
        prop::option::of(5.0f64..80.0),
        1u32..=8,
        0.3f64..1.0,
        0.3f64..1.0,
        0.0f64..0.5,
    )
        .prop_map(
            |(cap, streams, mem_ratio, storage_ratio, cpu_frac)| QosConfig {
                bandwidth_cap_mb: cap,
                streams,
                compress_mem_ratio: mem_ratio,
                compress_storage_ratio: storage_ratio,
                compress_cpu_frac: cpu_frac,
            },
        )
}

/// A device speed from 30 MB/s to 100 GB/s: the paper's (55 MB/s disk,
/// 266 MB/s cache writes, 1 GB/s cache reads), NVMe and faster classes,
/// and log-uniform draws between.
fn bandwidth_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        prop_oneof![
            Just(30e6),
            Just(55e6),
            Just(266e6),
            Just(1e9),
            Just(3e9),
            Just(7e9),
            Just(25e9),
            Just(100e9),
        ],
        (0.0f64..1.0).prop_map(|u| 30e6 * (100e9f64 / 30e6).powf(u)),
    ]
}

/// The small test cluster with random disk, page-cache and NIC speeds.
/// The switch keeps the default's ratio to the NIC, so the fabric's
/// regime stays the paper's whatever the NIC speed.
fn cluster_strategy() -> impl Strategy<Value = ClusterConfig> {
    (
        bandwidth_strategy(),
        bandwidth_strategy(),
        bandwidth_strategy(),
        bandwidth_strategy(),
    )
        .prop_map(|(disk, cache_read, cache_write, nic)| {
            let base = ClusterConfig::small_test();
            ClusterConfig {
                disk_bw: disk,
                cache_read_bw: cache_read,
                cache_write_bw: cache_write,
                nic_bw: nic,
                switch_bw: base.switch_bw / base.nic_bw * nic,
                ..base
            }
        })
}

fn cancel_strategy() -> impl Strategy<Value = CancelSpec> {
    (0.3f64..40.0, 0u32..3).prop_map(|(at, job)| CancelSpec {
        at_secs: at,
        job, // may exceed the job count: rejected specs are skipped
    })
}

/// Raw plans: migrations may name a VM twice or its own node, and
/// stalls and cancellations VMs and jobs that do not exist, so many do
/// not build (see [`buildable`]). Post-copy memory is drawn for the
/// strategies it works with, Hybrid and Postcopy.
fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    let vm_start = prop_oneof![4 => Just(None), 1 => secs_or_clock_end(0.0..5.0).prop_map(Some)];
    (
        strategy_strategy(),
        prop::collection::vec((0u32..NODES, workload_strategy(), vm_start), 1..4),
        prop::collection::vec(
            (
                0u32..NODES,
                secs_or_clock_end(0.2..8.0),
                prop::option::of(len_or_past_clock_end(0.3..30.0)),
            ),
            0..4,
        ),
        prop::collection::vec(fault_strategy(), 0..5),
        (
            cluster_strategy(),
            prop::option::of(resilience_strategy()),
            prop::option::of(qos_strategy()),
            prop::bool::ANY,
        ),
        prop::collection::vec(cancel_strategy(), 0..3),
        30.0f64..90.0,
    )
        .prop_map(
            |(
                strategy,
                vms,
                migs,
                faults,
                (cluster, resilience, qos, postcopy),
                cancels,
                horizon,
            )| {
                let nvms = vms.len() as u32;
                let postcopy_memory =
                    postcopy && matches!(strategy, StrategyKind::Hybrid | StrategyKind::Postcopy);
                ScenarioSpec {
                    name: None,
                    cluster: Some(ClusterConfig {
                        postcopy_memory,
                        ..cluster
                    }),
                    orchestrator: None,
                    autonomic: None,
                    resilience,
                    qos,
                    strategy,
                    grouped: false,
                    vms: vms
                        .into_iter()
                        .map(|(node, workload, start_secs)| VmSpec {
                            start_secs,
                            ..VmSpec::new(node, workload)
                        })
                        .collect(),
                    migrations: migs
                        .into_iter()
                        .enumerate()
                        .map(|(i, (dest, at, deadline))| MigrationSpec {
                            vm: i as u32 % nvms,
                            dest,
                            at_secs: at,
                            deadline_secs: deadline,
                            adaptive: None,
                        })
                        .collect(),
                    requests: None,
                    faults: if faults.is_empty() {
                        None
                    } else {
                        Some(faults)
                    },
                    cancellations: if cancels.is_empty() {
                        None
                    } else {
                        Some(cancels)
                    },
                    horizon_secs: horizon,
                }
            },
        )
}

fn orchestrator_strategy() -> impl Strategy<Value = OrchestratorConfig> {
    (
        prop_oneof![
            Just(PlannerKind::Fixed),
            Just(PlannerKind::Adaptive),
            Just(PlannerKind::Cost),
        ],
        prop::option::of(1u32..4),
        0.3f64..5.0,
    )
        .prop_map(|(planner, cap, window)| OrchestratorConfig {
            planner,
            max_concurrent: cap,
            telemetry_window_secs: window,
            ..OrchestratorConfig::default()
        })
}

fn autonomic_strategy() -> impl Strategy<Value = AutonomicConfig> {
    (0.3f64..4.0, prop::bool::ANY).prop_map(|(interval, replan)| AutonomicConfig {
        interval_secs: interval,
        replan_inflight: replan,
        ..AutonomicConfig::default()
    })
}

/// A raw plan made one that builds: migration `i` moves VM `i` (one
/// migration per VM, the surplus dropped) to another node, its drawn
/// destination read as an offset of 1 to `NODES - 1` from the VM's
/// node, and stalls and cancellations name VMs and jobs that exist
/// (their indices taken modulo the counts).
fn buildable(mut spec: ScenarioSpec) -> ScenarioSpec {
    let nvms = spec.vms.len() as u32;
    spec.migrations.truncate(spec.vms.len());
    for (m, vm) in spec.migrations.iter_mut().zip(0..) {
        m.vm = vm;
        m.dest = (spec.vms[vm as usize].node + 1 + m.dest % (NODES - 1)) % NODES;
    }
    for f in spec.faults.iter_mut().flatten() {
        if let FaultKind::TransferStall { vm, .. } = &mut f.kind {
            *vm %= nvms;
        }
    }
    let njobs = spec.migrations.len() as u32;
    spec.cancellations = spec.cancellations.take().filter(|_| njobs > 0);
    for c in spec.cancellations.iter_mut().flatten() {
        c.job %= njobs;
    }
    spec
}

/// [`buildable`] plans with every orchestration layer drawn on top: a
/// planner with an optional admission cap and telemetry window, the
/// autonomic rebalancer, evacuation requests and (in grouped plans,
/// whose ranks start together) group rebalances, and adaptive
/// migrations under a telemetry planner.
fn all_subsystems_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        scenario_strategy().prop_map(buildable),
        (
            prop::option::of(orchestrator_strategy()),
            prop::option::of(autonomic_strategy()),
            prop::bool::ANY,
        ),
        prop::collection::vec(prop::bool::ANY, 3),
        prop::collection::vec((0.2f64..20.0, 0u32..NODES, prop::bool::ANY), 0..3),
    )
        .prop_map(
            |(mut spec, (orchestrator, autonomic, grouped), adaptive, requests)| {
                let telemetry = orchestrator
                    .as_ref()
                    .is_some_and(|o| o.planner.uses_telemetry());
                for (m, adaptive) in spec.migrations.iter_mut().zip(adaptive) {
                    m.adaptive = Some(adaptive && telemetry);
                }
                let requests: Vec<RequestSpec> = requests
                    .into_iter()
                    .map(|(at, node, rebalance)| RequestSpec {
                        at_secs: at,
                        intent: if rebalance && grouped {
                            RequestIntent::Rebalance { group: 0 }
                        } else {
                            RequestIntent::Evacuate { node }
                        },
                    })
                    .collect();
                if grouped {
                    for vm in &mut spec.vms {
                        vm.start_secs = None;
                    }
                }
                ScenarioSpec {
                    orchestrator,
                    autonomic,
                    grouped,
                    requests: (!requests.is_empty()).then_some(requests),
                    ..spec
                }
            },
        )
}

fn checker() -> InvariantObserver {
    InvariantObserver::with_config(CheckConfig {
        deep_scan_interval: 512,
        ..CheckConfig::default()
    })
}

/// Run `spec` under both solver modes, each with an invariant checker:
/// the reports must be bit-identical and neither run may break a law.
/// Some generated plans are (deliberately) invalid — e.g. a migration
/// whose destination equals the VM's node, or a stall naming a VM index
/// that does not exist. Those must reject cleanly and are skipped.
fn solver_identical_and_invariant_clean(spec: &ScenarioSpec) -> Result<(), TestCaseError> {
    let mut reports = Vec::new();
    for solver in [SolverMode::Incremental, SolverMode::Reference] {
        let mut obs = checker();
        match run_scenario_observed_with_solver(spec, solver, &mut obs) {
            Err(_) => {
                prop_assume!(false); // invalid plan: rejected, skip
            }
            Ok(r) => {
                if !obs.is_clean() {
                    return Err(TestCaseError::fail(format!(
                        "invariant violations under {solver:?}:\n{}",
                        obs.violations()
                            .iter()
                            .map(|v| format!("  {v}"))
                            .collect::<Vec<_>>()
                            .join("\n")
                    )));
                }
                reports.push(serde_json::to_string_pretty(&r).expect("serializes"));
            }
        }
    }
    prop_assert_eq!(reports.len(), 2);
    if reports[0] != reports[1] {
        let diff = reports[0]
            .lines()
            .zip(reports[1].lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        return Err(TestCaseError::fail(format!(
            "solver reports diverge at {diff:?}"
        )));
    }
    Ok(())
}

proptest! {
    // Nearly every draw builds, and a plan runs in about a millisecond
    // in release, so the sweeps afford many cases.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline fuzz property: any valid random cluster/fault plan
    /// yields bit-identical reports under both solver modes and breaks
    /// no conservation law in either.
    #[test]
    fn random_fault_plans_are_solver_identical_and_invariant_clean(
        spec in scenario_strategy().prop_map(buildable)
    ) {
        solver_identical_and_invariant_clean(&spec)?;
    }


    /// Determinism under fuzzing: the same plan run twice (same solver)
    /// is bit-identical — fault handling introduces no hidden
    /// nondeterminism (hash-map iteration, allocation order, ...).
    #[test]
    fn random_fault_plans_are_run_to_run_deterministic(
        spec in scenario_strategy().prop_map(buildable)
    ) {
        let run = || {
            let mut obs = checker();
            run_scenario_observed_with_solver(&spec, SolverMode::Incremental, &mut obs)
                .map(|r| serde_json::to_string_pretty(&r).expect("serializes"))
        };
        match (run(), run()) {
            (Err(_), Err(_)) => prop_assume!(false),
            (a, b) => prop_assert_eq!(a.ok(), b.ok(), "re-run diverged"),
        }
    }

    /// The headline property with every subsystem drawn at once: the
    /// orchestrator's planners and cap, the autonomic rebalancer,
    /// evacuation and group-rebalance requests and adaptive migrations,
    /// on top of resilience, QoS, faults and cancellations.
    #[test]
    fn random_all_subsystem_plans_are_solver_identical_and_invariant_clean(
        spec in all_subsystems_strategy()
    ) {
        solver_identical_and_invariant_clean(&spec)?;
    }
}

/// A fixed worst-case cocktail kept outside the random sweep so it is
/// exercised on every single test run: crash the destination during a
/// stall inside a degradation window, with a second migration on a
/// deadline.
#[test]
fn fixed_fault_cocktail_is_clean() {
    let spec = ScenarioSpec {
        name: Some("cocktail".into()),
        cluster: Some(ClusterConfig::small_test()),
        orchestrator: None,
        autonomic: None,
        resilience: None,
        // Shape the cocktail too: a biting cap, multifd, and
        // compression on top of the crash/stall/degrade pile-up.
        qos: Some(QosConfig {
            bandwidth_cap_mb: Some(30.0),
            streams: 4,
            compress_mem_ratio: 0.7,
            compress_storage_ratio: 0.8,
            compress_cpu_frac: 0.15,
        }),
        strategy: StrategyKind::Hybrid,
        grouped: false,
        vms: vec![
            VmSpec::new(
                0,
                WorkloadSpec::HotspotWrite {
                    offset: 0,
                    region_blocks: 48,
                    block: 256 * 1024,
                    count: 800,
                    theta: 0.8,
                    think_secs: 0.01,
                    seed: 3,
                },
            ),
            VmSpec::new(
                2,
                WorkloadSpec::SeqWrite {
                    offset: 0,
                    total: 24 * MIB,
                    block: MIB,
                    think_secs: 0.05,
                },
            ),
        ],
        migrations: vec![
            MigrationSpec {
                vm: 0,
                dest: 1,
                at_secs: 1.0,
                deadline_secs: None,
                adaptive: None,
            },
            MigrationSpec {
                vm: 1,
                dest: 3,
                at_secs: 1.5,
                deadline_secs: Some(0.8),
                adaptive: None,
            },
        ],
        requests: None,
        faults: Some(vec![
            FaultSpec {
                at_secs: 1.1,
                kind: FaultKind::LinkDegrade {
                    node: 1,
                    factor: 0.2,
                },
            },
            FaultSpec {
                at_secs: 1.4,
                kind: FaultKind::TransferStall { vm: 0, secs: 0.7 },
            },
            FaultSpec {
                at_secs: 1.9,
                kind: FaultKind::NodeCrash { node: 1 },
            },
            FaultSpec {
                at_secs: 2.5,
                kind: FaultKind::LinkRestore { node: 3 },
            },
        ]),
        cancellations: None,
        horizon_secs: 90.0,
    };
    let mut reports = Vec::new();
    for solver in [SolverMode::Incremental, SolverMode::Reference] {
        let mut obs = checker();
        let r = run_scenario_observed_with_solver(&spec, solver, &mut obs).expect("runs");
        obs.assert_clean("cocktail");
        reports.push(serde_json::to_string_pretty(&r).expect("serializes"));
    }
    assert_eq!(reports[0], reports[1], "cocktail reports diverge");
}

// --------------------------------------------------------------------
// Lint cross-validation: the static analyzer's error-level verdicts
// are claims about what the engine must do; hold them to it on the
// same random plans the fault fuzzer generates.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness of the structural pass: whenever `lsm_analyze::lint`
    /// reports an `L000` error, `build_scenario` must reject the spec
    /// too — the linter never cries wolf about a spec that builds.
    #[test]
    fn lint_structural_errors_imply_build_failure(spec in scenario_strategy()) {
        let diags = lsm_analyze::lint(&spec);
        if diags.iter().any(|d| d.code == lsm_analyze::DiagCode::InvalidSpec) {
            prop_assert!(
                lsm_experiments::scenario::build_scenario(&spec).is_err(),
                "lint flagged L000 but the spec builds:\n{}",
                lsm_analyze::render(&diags)
            );
        }
    }

    /// Dynamic confirmation of `L003`: on a quiet plan (no faults, no
    /// cancellations, no retries — nothing else can interfere with the
    /// job), a migration the linter proves deadline-infeasible must
    /// never complete, and when it ran at all it must have died of
    /// exactly `DeadlineExceeded` (or been rejected outright, e.g. a
    /// second migration of a still-migrating VM).
    #[test]
    fn lint_deadline_verdicts_are_confirmed_by_the_engine(spec in scenario_strategy()) {
        let mut quiet = spec;
        quiet.resilience = None;
        quiet.faults = None;
        quiet.cancellations = None;
        let flagged: Vec<usize> = lsm_analyze::lint(&quiet)
            .iter()
            .filter(|d| d.code == lsm_analyze::DiagCode::DeadlineImpossible)
            .filter_map(|d| match d.span {
                lsm_analyze::Span::Migration(j) => Some(j),
                _ => None,
            })
            .collect();
        if flagged.is_empty() {
            return Ok(()); // nothing predicted; nothing to confirm
        }
        let Ok(report) = lsm_experiments::scenario::run_scenario(&quiet) else {
            prop_assume!(false); // invalid plan: rejected, skip
            unreachable!()
        };
        for j in flagged {
            let rec = &report.migrations[j];
            prop_assert!(
                !rec.completed,
                "lint proved migration {j} cannot meet its deadline, yet it completed"
            );
            prop_assert!(
                matches!(
                    rec.failure,
                    Some(lsm_core::FailureReason::DeadlineExceeded { .. })
                        | Some(lsm_core::FailureReason::Rejected { .. })
                ),
                "migration {j}: expected DeadlineExceeded, got {:?}",
                rec.failure
            );
        }
    }
}
