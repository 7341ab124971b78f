//! Property test: arbitrary scenarios survive TOML and JSON round-trips
//! bit-exactly (including float fields), and parsing rejects garbage
//! with errors rather than panics. Every config section holds to one
//! strict-default contract.

use lsm_core::config::{ClusterConfig, MemMigrationConfig};
use lsm_core::planner::{OrchestratorConfig, PlannerKind, RequestIntent};
use lsm_core::policy::StrategyKind;
use lsm_core::{AutonomicConfig, FaultKind, QosConfig, ResilienceConfig, RetryOn, RetryPolicy};
use lsm_experiments::scenario::{
    CancelSpec, FaultSpec, MigrationSpec, RequestSpec, ScenarioSpec, VmSpec,
};
use lsm_workloads::{AsyncWrParams, IorParams, WorkloadSpec};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

fn orchestrator_strategy() -> impl Strategy<Value = OrchestratorConfig> {
    (prop::option::of(1u32..16), 0u8..3).prop_map(|(cap, planner)| OrchestratorConfig {
        max_concurrent: cap,
        planner: match planner {
            0 => PlannerKind::Fixed,
            1 => PlannerKind::Adaptive,
            _ => PlannerKind::Cost,
        },
    })
}

fn qos_strategy() -> impl Strategy<Value = QosConfig> {
    (
        prop::option::of(1.0f64..200.0),
        1u32..=16,
        0.05f64..1.0,
        0.05f64..1.0,
        0.0f64..0.9,
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

fn request_strategy() -> impl Strategy<Value = RequestSpec> {
    (0.0f64..500.0, prop::bool::ANY, 0u32..8).prop_map(|(at, evac, idx)| RequestSpec {
        at_secs: at,
        intent: if evac {
            RequestIntent::Evacuate { node: idx }
        } else {
            RequestIntent::Rebalance { group: idx }
        },
    })
}

fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    (0.0f64..100.0, 0u8..4, 0u32..8, 0.01f64..1.0).prop_map(|(at, kind, node, x)| FaultSpec {
        at_secs: at,
        kind: match kind {
            0 => FaultKind::LinkDegrade { node, factor: x },
            1 => FaultKind::LinkRestore { node },
            2 => FaultKind::NodeCrash { node },
            _ => FaultKind::TransferStall {
                vm: node,
                secs: x * 10.0,
            },
        },
    })
}

fn resilience_strategy() -> impl Strategy<Value = ResilienceConfig> {
    (
        (
            1u32..6,
            0.1f64..20.0,
            1.0f64..120.0,
            prop::bool::ANY,
            prop::bool::ANY,
            prop::bool::ANY,
        ),
        (0.1f64..2.0, 1u32..8, 0.05f64..0.95, 1u32..8),
        (prop::option::of(1.0f64..5000.0), 0u32..5),
    )
        .prop_map(
            |(
                (max_attempts, backoff, cap_extra, dest_crash, stall, deadline),
                (frac, patience, step, max_steps),
                (downtime_limit_ms, downtime_extra_rounds),
            )| ResilienceConfig {
                retry: RetryPolicy {
                    max_attempts,
                    backoff_secs: backoff,
                    backoff_cap_secs: backoff + cap_extra,
                    retry_on: RetryOn {
                        dest_crash,
                        stall,
                        deadline,
                    },
                },
                converge_frac: frac,
                converge_patience: patience,
                converge_step: step,
                converge_max_steps: max_steps,
                downtime_limit_ms,
                downtime_extra_rounds,
            },
        )
}

fn cancel_strategy() -> impl Strategy<Value = CancelSpec> {
    (0.0f64..500.0, 0u32..8).prop_map(|(at, job)| CancelSpec { at_secs: at, job })
}

fn strategy_strategy() -> impl Strategy<Value = StrategyKind> {
    prop_oneof![
        Just(StrategyKind::Hybrid),
        Just(StrategyKind::Precopy),
        Just(StrategyKind::Mirror),
        Just(StrategyKind::Postcopy),
        Just(StrategyKind::SharedFs),
    ]
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        (0u64..64, 1u64..64, 1u64..8, 0.0f64..0.1).prop_map(|(off, mb, block, think)| {
            WorkloadSpec::SeqWrite {
                offset: off << 20,
                total: mb << 20,
                block: block << 20,
                think_secs: think,
            }
        }),
        (1u64..2048, 1u64..512, 0.0f64..0.95, 0u64..9999).prop_map(
            |(blocks, count, theta, seed)| WorkloadSpec::HotspotWrite {
                offset: 0,
                region_blocks: blocks,
                block: 256 * 1024,
                count,
                theta,
                think_secs: 0.004,
                seed,
            }
        ),
        (1u64..64, 1u32..8).prop_map(|(mb, iters)| {
            WorkloadSpec::Ior(IorParams {
                file_size: mb << 20,
                block_size: 256 * 1024,
                iterations: iters,
                file_offset: 0,
                fsync_per_phase: mb % 2 == 0,
            })
        }),
        (1u32..200).prop_map(|iters| {
            WorkloadSpec::AsyncWr(AsyncWrParams {
                iterations: iters,
                ..Default::default()
            })
        }),
        (1u32..10, 0.01f64..5.0).prop_map(|(bursts, secs)| WorkloadSpec::Idle {
            bursts,
            burst_secs: secs,
        }),
    ]
}

fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        strategy_strategy(),
        prop::collection::vec(
            (
                0u32..8,
                workload_strategy(),
                prop::option::of(strategy_strategy()),
            ),
            1..5,
        ),
        prop::collection::vec(
            (0u32..8, 0.1f64..100.0, prop::option::of(0.5f64..60.0)),
            0..4,
        ),
        1.0f64..2000.0,
        prop::bool::ANY,
        prop::option::of(0u64..99),
        (
            prop::option::of(prop::collection::vec(fault_strategy(), 0..5)),
            prop::option::of(orchestrator_strategy()),
            prop::option::of(prop::collection::vec(request_strategy(), 0..4)),
            prop::option::of(resilience_strategy()),
            prop::option::of(prop::collection::vec(cancel_strategy(), 0..3)),
            prop::option::of(qos_strategy()),
        ),
    )
        .prop_map(
            |(
                strategy,
                vms,
                migs,
                horizon,
                default_cluster,
                name,
                (faults, orch, requests, resilience, cancellations, qos),
            )| {
                let nvms = vms.len() as u32;
                ScenarioSpec {
                    name: name.map(|n| format!("scenario-{n}")),
                    cluster: if default_cluster {
                        None
                    } else {
                        Some(ClusterConfig::graphene(8))
                    },
                    orchestrator: orch,
                    autonomic: None,
                    resilience,
                    qos,
                    strategy,
                    grouped: false,
                    vms: vms
                        .into_iter()
                        .map(|(node, workload, strategy)| VmSpec {
                            node,
                            workload,
                            strategy,
                            start_secs: None,
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
                        })
                        .collect(),
                    requests,
                    faults,
                    cancellations,
                    horizon_secs: horizon,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn toml_roundtrip_is_exact(spec in scenario_strategy()) {
        let text = spec.to_toml().expect("every spec serializes");
        let back = ScenarioSpec::from_toml(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{text}")))?;
        prop_assert_eq!(&back, &spec, "TOML document:\n{}", text);
    }

    #[test]
    fn json_roundtrip_is_exact(spec in scenario_strategy()) {
        let text = spec.to_json().expect("every spec serializes");
        let back = ScenarioSpec::from_json(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{text}")))?;
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn toml_to_json_to_toml_is_exact(spec in scenario_strategy()) {
        let via = ScenarioSpec::from_json(&spec.to_json().unwrap()).unwrap();
        let text = via.to_toml().unwrap();
        prop_assert_eq!(ScenarioSpec::from_toml(&text).unwrap(), spec);
    }
}

/// One row of the config-section contract table.
struct Section {
    /// The type name every error must carry.
    owner: &'static str,
    /// A key and a value for it; a `#[serde(default)]` section must
    /// take it over its default, a plain struct must still miss fields.
    knob: (&'static str, Value),
    /// Keys leading to an unknown one, and the error they must produce.
    typo: (&'static [&'static str], &'static str),
    /// The contract, instantiated for the row's type.
    check: fn(&Section),
}

/// The error `T` reports for `v`; panics if `v` deserializes.
fn rejection<T: Deserialize>(owner: &str, v: &Value) -> String {
    match T::from_value(v) {
        Ok(_) => panic!("{owner} accepted {v:?}"),
        Err(e) => e.to_string(),
    }
}

/// Unknown keys and non-map values fail, naming the owner.
fn strict<T: Deserialize>(s: &Section) {
    let (path, want) = s.typo;
    let bad = path.iter().rev().fold(Value::Bool(true), |inner, k| {
        Value::Map(vec![(k.to_string(), inner)])
    });
    let err = rejection::<T>(s.owner, &bad);
    assert!(err.contains(want), "{}: {err}", s.owner);
    let err = rejection::<T>(s.owner, &Value::Seq(vec![]));
    let want = format!("expected map for {}, found sequence", s.owner);
    assert!(err.contains(&want), "{err}");
}

/// `#[serde(default)]`: an empty map is `Default`, and one key changes
/// only its own field.
fn defaulted<T>(s: &Section)
where
    T: Deserialize + Serialize + Default + PartialEq + std::fmt::Debug,
{
    strict::<T>(s);
    let empty = T::from_value(&Value::Map(vec![])).expect(s.owner);
    assert_eq!(empty, T::default(), "{}", s.owner);
    let (key, value) = &s.knob;
    let one = T::from_value(&Value::Map(vec![(key.to_string(), value.clone())])).expect(key);
    let (Value::Map(got), Value::Map(want)) = (one.to_value(), T::default().to_value()) else {
        panic!("{} serializes to a map", s.owner);
    };
    assert_eq!(got.len(), want.len());
    for ((k, g), (_, w)) in got.iter().zip(&want) {
        if k == key {
            assert_eq!(g, value, "{}.{k} takes the given value", s.owner);
            assert_ne!(g, w, "{}.{k}: the row must pick a non-default", s.owner);
        } else {
            assert_eq!(g, w, "{}.{k} keeps its default", s.owner);
        }
    }
}

/// Without the attribute every non-`Option` field stays required.
fn required<T: Deserialize>(s: &Section) {
    strict::<T>(s);
    for map in [vec![], vec![(s.knob.0.to_string(), s.knob.1.clone())]] {
        let err = rejection::<T>(s.owner, &Value::Map(map));
        assert!(err.contains("missing field"), "{}: {err}", s.owner);
    }
}

/// Every config section shares one contract (absent keys default,
/// unknown keys and non-maps fail, naming the owner and the key), while
/// a struct without `#[serde(default)]` keeps requiring its fields.
#[test]
fn config_sections_share_the_strict_default_contract() {
    let table = [
        Section {
            owner: "ClusterConfig",
            knob: ("threshold", Value::U64(5)),
            typo: (&["chunksize"], "unknown ClusterConfig field `chunksize`"),
            check: defaulted::<ClusterConfig>,
        },
        Section {
            owner: "MemMigrationConfig",
            knob: ("max_rounds", Value::U64(7)),
            typo: (
                &["max_round"],
                "unknown MemMigrationConfig field `max_round`",
            ),
            check: defaulted::<MemMigrationConfig>,
        },
        Section {
            owner: "OrchestratorConfig",
            knob: ("planner", Value::Str("cost".to_string())),
            typo: (&["max_conc"], "unknown OrchestratorConfig field `max_conc`"),
            check: defaulted::<OrchestratorConfig>,
        },
        Section {
            owner: "AutonomicConfig",
            knob: ("interval_secs", Value::F64(2.0)),
            typo: (&["intervall"], "unknown AutonomicConfig field `intervall`"),
            check: defaulted::<AutonomicConfig>,
        },
        Section {
            owner: "ResilienceConfig",
            knob: ("downtime_limit_ms", Value::F64(250.0)),
            typo: (
                &["retry", "retry_on", "dest_krash"],
                "ResilienceConfig.retry: RetryPolicy.retry_on: unknown RetryOn field `dest_krash`",
            ),
            check: defaulted::<ResilienceConfig>,
        },
        Section {
            owner: "RetryPolicy",
            knob: ("max_attempts", Value::U64(5)),
            typo: (&["max_attemps"], "unknown RetryPolicy field `max_attemps`"),
            check: defaulted::<RetryPolicy>,
        },
        Section {
            owner: "RetryOn",
            knob: ("stall", Value::Bool(false)),
            typo: (&["dest_crashed"], "unknown RetryOn field `dest_crashed`"),
            check: defaulted::<RetryOn>,
        },
        Section {
            owner: "QosConfig",
            knob: ("bandwidth_cap_mb", Value::F64(40.0)),
            typo: (&["streems"], "unknown QosConfig field `streems`"),
            check: defaulted::<QosConfig>,
        },
        Section {
            owner: "MigrationSpec",
            knob: ("vm", Value::U64(0)),
            typo: (&["dst"], "unknown MigrationSpec field `dst`"),
            check: required::<MigrationSpec>,
        },
    ];
    for section in &table {
        (section.check)(section);
    }
}

/// The `[orchestrator]` section and the `[[requests]]` plan are held to
/// the same strictness as every other section: typoed knobs, unknown
/// planners and malformed intents fail loudly.
#[test]
fn orchestrator_sections_reject_unknown_fields() {
    let base = "strategy = \"our-approach\"\ngrouped = false\nhorizon_secs = 1.0\nvms = []\nmigrations = []\n";
    let toml = format!("{base}[orchestrator]\nmax_concurent = 4\n");
    let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
    assert!(
        err.contains("unknown OrchestratorConfig field `max_concurent`"),
        "{err}"
    );
    let toml = format!("{base}[orchestrator]\nplanner = \"clever\"\n");
    let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
    assert!(err.contains("unknown planner `clever`"), "{err}");
    let toml = format!("{base}[[requests]]\nat_secs = 1.0\n[requests.intent.Evacuate]\nnod = 1\n");
    let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
    assert!(err.contains("unknown Evacuate field `nod`"), "{err}");
    let toml = format!("{base}[[requests]]\nat_secs = 1.0\nintent = \"Decommission\"\n");
    let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
    assert!(err.contains("unknown RequestIntent variant"), "{err}");
    // A partial [orchestrator] section fills the defaults.
    let toml = format!("{base}[orchestrator]\nmax_concurrent = 4\nplanner = \"adaptive\"\n");
    let spec = ScenarioSpec::from_toml(&toml).expect("partial section parses");
    let orch = spec.orchestrator.expect("present");
    assert_eq!(orch.max_concurrent, Some(4));
    assert_eq!(orch.planner, PlannerKind::Adaptive);
    let toml = format!("{base}[orchestrator]\nplanner = \"cost\"\n");
    let spec = ScenarioSpec::from_toml(&toml).expect("partial section parses");
    assert_eq!(spec.orchestrator.expect("present").max_concurrent, None);
}

/// The planner and rebalancer hold these settings as constants, and the
/// planner chooses every job's strategy, so none of them is a scenario
/// key: a scenario naming one fails to parse, and the error names the
/// knob.
#[test]
fn removed_planner_and_rebalancer_knobs_fail_by_name() {
    let base = "strategy = \"our-approach\"\ngrouped = false\nhorizon_secs = 1.0\nvms = []\nmigrations = []\n";
    let orchestrator = [
        "telemetry_window_secs",
        "adaptive_write_hi_frac",
        "adaptive_write_lo_frac",
        "adaptive_read_hi_frac",
        "cost_bytes_weight",
        "cost_ondemand_penalty",
        "cost_nonconverge_penalty_secs",
        "cost_sla_weight",
        "placement_retry_limit",
    ];
    let autonomic = [
        "hot_dirty_frac",
        "max_moves_per_tick",
        "replan_inflight",
        "replan_limit",
    ];
    for (section, owner, knobs) in [
        ("orchestrator", "OrchestratorConfig", &orchestrator[..]),
        ("autonomic", "AutonomicConfig", &autonomic[..]),
    ] {
        for knob in knobs {
            let toml = format!("{base}[{section}]\n{knob} = 1\n");
            let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown {owner} field `{knob}`")),
                "{knob}: {err}"
            );
        }
    }
    let toml = "strategy = \"our-approach\"\ngrouped = false\nhorizon_secs = 1.0\nvms = []\n\
                [[migrations]]\nvm = 0\ndest = 1\nat_secs = 1.0\nadaptive = true\n";
    let err = ScenarioSpec::from_toml(toml).unwrap_err().to_string();
    assert!(
        err.contains("unknown MigrationSpec field `adaptive`"),
        "{err}"
    );
}

/// The `[resilience]` section and the `[[cancellations]]` plan reject
/// typos loudly and fill defaults for omitted knobs, exactly like the
/// `[orchestrator]` section.
#[test]
fn resilience_sections_reject_unknown_fields() {
    let base = "strategy = \"our-approach\"\ngrouped = false\nhorizon_secs = 1.0\nvms = []\nmigrations = []\n";
    let toml = format!("{base}[resilience]\nconverge_fraq = 0.8\n");
    let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
    assert!(
        err.contains("unknown ResilienceConfig field `converge_fraq`"),
        "{err}"
    );
    let toml = format!("{base}[resilience.retry]\nmax_attemps = 4\n");
    let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
    assert!(
        err.contains("unknown RetryPolicy field `max_attemps`"),
        "{err}"
    );
    let toml = format!("{base}[resilience.retry.retry_on]\ndest_crashed = true\n");
    let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
    assert!(
        err.contains("unknown RetryOn field `dest_crashed`"),
        "{err}"
    );
    let toml = format!("{base}[[cancellations]]\nat_secs = 1.0\njobb = 0\n");
    let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
    assert!(err.contains("unknown CancelSpec field `jobb`"), "{err}");
    // A partial [resilience] section fills the defaults.
    let toml =
        format!("{base}[resilience]\nconverge_frac = 0.75\n[resilience.retry]\nmax_attempts = 5\n");
    let spec = ScenarioSpec::from_toml(&toml).expect("partial section parses");
    let res = spec.resilience.expect("present");
    assert_eq!(res.retry.max_attempts, 5);
    assert_eq!(res.converge_frac, 0.75);
    assert_eq!(
        res.retry.backoff_secs,
        ResilienceConfig::default().retry.backoff_secs
    );
    assert!(res.retry.retry_on.dest_crash && res.retry.retry_on.stall);
}

/// The `[qos]` section rejects typos loudly, fills defaults for
/// omitted knobs, and validates ranges at parse time — same contract
/// as `[orchestrator]` and `[resilience]`.
#[test]
fn qos_section_rejects_unknown_fields() {
    let base = "strategy = \"our-approach\"\ngrouped = false\nhorizon_secs = 1.0\nvms = []\nmigrations = []\n";
    let toml = format!("{base}[qos]\nbandwith_cap_mb = 100.0\n");
    let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
    assert!(
        err.contains("unknown QosConfig field `bandwith_cap_mb`"),
        "{err}"
    );
    let toml = format!("{base}[qos]\nstreems = 4\n");
    let err = ScenarioSpec::from_toml(&toml).unwrap_err().to_string();
    assert!(err.contains("unknown QosConfig field `streems`"), "{err}");
    // A partial [qos] section fills the defaults.
    let toml = format!("{base}[qos]\nbandwidth_cap_mb = 80.0\nstreams = 4\n");
    let spec = ScenarioSpec::from_toml(&toml).expect("partial section parses");
    let qos = spec.qos.expect("present");
    assert_eq!(qos.bandwidth_cap_mb, Some(80.0));
    assert_eq!(qos.streams, 4);
    assert_eq!(
        qos.compress_mem_ratio,
        QosConfig::default().compress_mem_ratio
    );
}

#[test]
fn garbage_input_is_an_error_not_a_panic() {
    for bad in [
        "",
        "strategy = 12",
        "vms = 3",
        "[[vms]]\nnode = \"zero\"",
        "strategy = \"NoSuchStrategy\"\ngrouped = false\nvms = []\nmigrations = []\nhorizon_secs = 1.0",
        "{ not toml at all",
    ] {
        assert!(ScenarioSpec::from_toml(bad).is_err(), "accepted: {bad:?}");
    }
    for bad in ["", "[1, 2", "{\"strategy\": 4}", "null"] {
        assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad:?}");
    }
    // A repeated key is an error, not a silent pick of one of its values.
    let doc = |horizon: &str| {
        format!(
            "{{\"strategy\": \"our-approach\", \"grouped\": false, {horizon}\"vms\": [], \"migrations\": []}}"
        )
    };
    assert!(ScenarioSpec::from_json(&doc("\"horizon_secs\": 5.0, ")).is_ok());
    let err = ScenarioSpec::from_json(&doc("\"horizon_secs\": 5.0, \"horizon_secs\": 300.0, "))
        .unwrap_err()
        .to_string();
    assert!(err.contains("duplicate key `horizon_secs`"), "{err}");
}
