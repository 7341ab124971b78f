//! Declarative scenarios: the serializable description of one
//! simulation run, and the checked runner that executes it through the
//! [`Engine`]'s own API.
//!
//! A [`ScenarioSpec`] round-trips through TOML and JSON (see
//! [`ScenarioSpec::to_toml`] / [`ScenarioSpec::from_toml`]), so a run
//! that today is a Rust program can be checked into a file and replayed
//! with `lsm run scenario.toml` — producing the same [`RunReport`] as
//! the equivalent engine-API program. Multi-VM, multi-migration and
//! mixed-strategy scenarios are first-class: each VM may override the
//! scenario-wide default strategy.
//!
//! Two calls run a spec. [`run_scenario`] returns the report.
//! [`run_scenario_with`] picks the network solver and the thread count,
//! and watches every engine with an observer of its own: it shards the
//! spec when more than one thread is asked for and [`partition`] admits
//! it, and runs one engine otherwise. The reports are byte-identical
//! either way, and every observer comes back finished
//! ([`Observer::on_finish`] has run on its engine).

use crate::shard::{partition, ShardRejection};
use lsm_core::config::{ClusterConfig, EngineConfig};
use lsm_core::engine::{NullObserver, Observer};
use lsm_core::error::EngineError;
use lsm_core::parallel::{run_sharded_observed, FleetShape, ParallelOpts, Shard};
use lsm_core::planner::{OrchestratorConfig, RequestIntent};
use lsm_core::policy::StrategyKind;
use lsm_core::AutonomicConfig;
use lsm_core::{Engine, FaultKind, QosConfig, ResilienceConfig, RunReport};
use lsm_netsim::SolverMode;
use lsm_simcore::time::{SimDuration, SimTime};
use lsm_workloads::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// One VM in a scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VmSpec {
    /// Host node.
    pub node: u32,
    /// The workload it runs.
    pub workload: WorkloadSpec,
    /// Per-VM strategy override (`None` → the scenario default).
    pub strategy: Option<StrategyKind>,
    /// Workload start time in seconds (`None` → 0).
    pub start_secs: Option<f64>,
}

impl VmSpec {
    /// A VM with the scenario-default strategy starting at t = 0.
    pub fn new(node: u32, workload: WorkloadSpec) -> Self {
        VmSpec {
            node,
            workload,
            strategy: None,
            start_secs: None,
        }
    }
}

/// One scheduled migration in a scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MigrationSpec {
    /// Index into [`ScenarioSpec::vms`].
    pub vm: u32,
    /// Destination node.
    pub dest: u32,
    /// Request time in seconds.
    pub at_secs: f64,
    /// Abort deadline in seconds from `at_secs` (`None` → no deadline).
    /// An overrunning job fails with
    /// [`lsm_core::FailureReason::DeadlineExceeded`] and partial
    /// progress in the report.
    pub deadline_secs: Option<f64>,
}

/// One timed fault in a scenario's fault plan.
///
/// The plan rides in the spec (`[[faults]]` in TOML) and round-trips
/// exactly like everything else, so a degraded-conditions experiment is
/// as declarative and replayable as a clean one.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// When the fault fires, seconds.
    pub at_secs: f64,
    /// What breaks (see [`FaultKind`]).
    pub kind: FaultKind,
}

/// One timed cancellation in a scenario's `[[cancellations]]` plan: at
/// `at_secs` the named job is unwound cleanly at whatever phase it has
/// reached and fails with [`lsm_core::FailureReason::Cancelled`] (a
/// no-op if it is already terminal by then).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CancelSpec {
    /// When the cancellation fires, seconds.
    pub at_secs: f64,
    /// Which job to cancel: an index into [`ScenarioSpec::migrations`]
    /// (planner-originated jobs have no stable spec-time name).
    pub job: u32,
}

/// One timed orchestration request in a scenario's `[[requests]]` plan:
/// a high-level intent (node evacuation, group rebalance) the planner
/// expands into concrete migrations at run time.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestSpec {
    /// When the request fires, seconds.
    pub at_secs: f64,
    /// What is being asked for (see [`RequestIntent`]).
    pub intent: RequestIntent,
}

/// A declarative description of one simulation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Optional human-readable name (shown by the CLI).
    pub name: Option<String>,
    /// Cluster parameters (`None` → the paper's 8-node graphene cluster).
    pub cluster: Option<ClusterConfig>,
    /// Orchestration layer: admission cap and the planner, which places
    /// jobs and chooses every job's strategy (`None` → fixed planner,
    /// unlimited cap — the historical behaviour). Serialized as an
    /// `[orchestrator]` section.
    pub orchestrator: Option<OrchestratorConfig>,
    /// Autonomic rebalancer (`None` — the default — disables the
    /// closed-loop monitor entirely; runs are then event-for-event
    /// identical to builds without the subsystem). Serialized as an
    /// `[autonomic]` section; its mere presence enables the loop, and
    /// absent fields fill from [`AutonomicConfig::default`].
    pub autonomic: Option<AutonomicConfig>,
    /// Resilience layer (`None` — the default — leaves retries,
    /// auto-converge, and the downtime limit off entirely; runs are
    /// then event-for-event identical to builds without the subsystem).
    /// Serialized as a `[resilience]` section; its mere presence
    /// enables the layer, and absent fields fill from
    /// [`ResilienceConfig::default`].
    pub resilience: Option<ResilienceConfig>,
    /// Migration QoS shaping (`None` — the default — leaves bandwidth
    /// caps, multifd streams, and compression off entirely; runs are
    /// then event-for-event identical to builds without the subsystem,
    /// and the report's SLA accounting stays on regardless). Serialized
    /// as a `[qos]` section; absent fields fill from
    /// [`QosConfig::default`].
    pub qos: Option<QosConfig>,
    /// Default storage transfer strategy for every VM.
    pub strategy: StrategyKind,
    /// If true, the VMs form one barrier-synchronized workload group
    /// (all under the default strategy).
    pub grouped: bool,
    /// The VMs.
    pub vms: Vec<VmSpec>,
    /// The migrations.
    pub migrations: Vec<MigrationSpec>,
    /// High-level orchestration requests (`[[requests]]`): evacuation
    /// and rebalance intents the planner expands at run time (`None`
    /// keeps the key out of serialized documents entirely).
    pub requests: Option<Vec<RequestSpec>>,
    /// Timed fault plan (`None` — the common, fault-free case — keeps
    /// the key out of serialized documents entirely).
    pub faults: Option<Vec<FaultSpec>>,
    /// Timed cancellation plan (`[[cancellations]]`; `None` keeps the
    /// key out of serialized documents entirely).
    pub cancellations: Option<Vec<CancelSpec>>,
    /// Simulation horizon in seconds.
    pub horizon_secs: f64,
}

impl ScenarioSpec {
    /// One VM on node 0, migrated to node 1 at `migrate_at` seconds —
    /// the Fig 3 shape.
    pub fn single_migration(
        strategy: StrategyKind,
        workload: WorkloadSpec,
        migrate_at: f64,
    ) -> Self {
        ScenarioSpec {
            name: None,
            cluster: Some(ClusterConfig::graphene(8)),
            orchestrator: None,
            autonomic: None,
            resilience: None,
            qos: None,
            strategy,
            grouped: false,
            vms: vec![VmSpec::new(0, workload)],
            migrations: vec![MigrationSpec {
                vm: 0,
                dest: 1,
                at_secs: migrate_at,
                deadline_secs: None,
            }],
            requests: None,
            faults: None,
            cancellations: None,
            horizon_secs: 1200.0,
        }
    }

    /// Same as [`Self::single_migration`] but without the migration —
    /// the normalization baseline.
    pub fn baseline(strategy: StrategyKind, workload: WorkloadSpec) -> Self {
        let mut s = Self::single_migration(strategy, workload, 0.0);
        s.migrations.clear();
        s
    }

    /// Builder: name the scenario.
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = Some(name.to_string());
        self
    }

    /// Builder: replace the cluster configuration.
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Builder: replace the horizon.
    pub fn with_horizon(mut self, secs: f64) -> Self {
        self.horizon_secs = secs;
        self
    }

    /// Builder: append one fault to the plan.
    pub fn with_fault(mut self, at_secs: f64, kind: FaultKind) -> Self {
        self.faults
            .get_or_insert_with(Vec::new)
            .push(FaultSpec { at_secs, kind });
        self
    }

    /// Builder: replace the orchestrator configuration.
    pub fn with_orchestrator(mut self, cfg: OrchestratorConfig) -> Self {
        self.orchestrator = Some(cfg);
        self
    }

    /// Builder: enable the autonomic rebalancer.
    pub fn with_autonomic(mut self, cfg: AutonomicConfig) -> Self {
        self.autonomic = Some(cfg);
        self
    }

    /// Builder: enable the resilience layer.
    pub fn with_resilience(mut self, cfg: ResilienceConfig) -> Self {
        self.resilience = Some(cfg);
        self
    }

    /// Builder: enable migration QoS shaping.
    pub fn with_qos(mut self, cfg: QosConfig) -> Self {
        self.qos = Some(cfg);
        self
    }

    /// Builder: append one cancellation to the plan (`job` indexes
    /// [`ScenarioSpec::migrations`]).
    pub fn with_cancellation(mut self, at_secs: f64, job: u32) -> Self {
        self.cancellations
            .get_or_insert_with(Vec::new)
            .push(CancelSpec { at_secs, job });
        self
    }

    /// Builder: append one orchestration request to the plan.
    pub fn with_request(mut self, at_secs: f64, intent: RequestIntent) -> Self {
        self.requests
            .get_or_insert_with(Vec::new)
            .push(RequestSpec { at_secs, intent });
        self
    }

    /// The fault plan (empty slice when none is declared).
    pub fn fault_plan(&self) -> &[FaultSpec] {
        self.faults.as_deref().unwrap_or(&[])
    }

    /// The orchestration request plan (empty slice when none declared).
    pub fn request_plan(&self) -> &[RequestSpec] {
        self.requests.as_deref().unwrap_or(&[])
    }

    /// The cancellation plan (empty slice when none is declared).
    pub fn cancellation_plan(&self) -> &[CancelSpec] {
        self.cancellations.as_deref().unwrap_or(&[])
    }

    /// The horizon as a simulated instant; a negative or non-finite
    /// `horizon_secs` is an error.
    pub fn horizon(&self) -> Result<SimTime, EngineError> {
        secs("horizon", self.horizon_secs)
    }

    /// The effective cluster configuration.
    pub fn cluster_config(&self) -> ClusterConfig {
        self.cluster
            .clone()
            .unwrap_or_else(|| ClusterConfig::graphene(8))
    }

    /// The effective strategy of VM `i`.
    pub fn vm_strategy(&self, i: usize) -> StrategyKind {
        self.vms
            .get(i)
            .and_then(|v| v.strategy)
            .unwrap_or(self.strategy)
    }

    /// Serialize to a TOML document.
    pub fn to_toml(&self) -> Result<String, serde::Error> {
        toml::to_string(self)
    }

    /// Parse from a TOML document.
    pub fn from_toml(s: &str) -> Result<Self, serde::Error> {
        toml::from_str(s)
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> Result<String, serde::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(s)
    }
}

fn secs(what: &str, value: f64) -> Result<SimTime, EngineError> {
    if !(value.is_finite() && value >= 0.0) {
        return Err(EngineError::InvalidTime {
            what: what.to_string(),
            value,
        });
    }
    Ok(SimTime::from_secs_f64(value))
}

/// A deployed scenario, built and validated by [`build_scenario`] and
/// not yet run.
pub struct Simulation(Engine);

impl Simulation {
    /// The engine, ready to run, observe, poll or step to any horizon.
    pub fn into_engine(self) -> Engine {
        self.0
    }
}

/// Build (and validate) the simulation a spec describes, without
/// running it — callers can then attach observers, poll progress, or
/// step the horizon themselves.
pub fn build_scenario(spec: &ScenarioSpec) -> Result<Simulation, EngineError> {
    let mut eng = Engine::new(EngineConfig {
        cluster: spec.cluster_config(),
        orchestrator: spec.orchestrator.clone().unwrap_or_default(),
        autonomic: spec.autonomic.clone(),
        resilience: spec.resilience.clone(),
        qos: spec.qos.clone().unwrap_or_default(),
    })?;
    let mut vms = Vec::with_capacity(spec.vms.len());
    if spec.grouped {
        // A group runs under one strategy and one start time; silently
        // dropping per-VM overrides would run a different experiment
        // than the file describes.
        let start0 = spec.vms.first().and_then(|v| v.start_secs).unwrap_or(0.0);
        for (i, v) in spec.vms.iter().enumerate() {
            if v.strategy.is_some() {
                return Err(EngineError::InvalidScenario {
                    reason: format!(
                        "grouped scenarios use the scenario-wide strategy, but vm {i} overrides it"
                    ),
                });
            }
            if v.start_secs.unwrap_or(0.0) != start0 {
                return Err(EngineError::InvalidScenario {
                    reason: format!(
                        "grouped scenarios start all ranks together, but vm {i} sets its own start_secs"
                    ),
                });
            }
        }
        let start = secs("group start", start0)?;
        let placements: Vec<(u32, WorkloadSpec)> = spec
            .vms
            .iter()
            .map(|v| (v.node, v.workload.clone()))
            .collect();
        vms.extend(eng.add_group(&placements, spec.strategy, start)?);
    } else {
        for (i, v) in spec.vms.iter().enumerate() {
            let start = secs("workload start", v.start_secs.unwrap_or(0.0))?;
            vms.push(eng.add_vm(v.node, &v.workload, spec.vm_strategy(i), start)?);
        }
    }
    let mut jobs = Vec::with_capacity(spec.migrations.len());
    for m in &spec.migrations {
        let Some(&vm) = vms.get(m.vm as usize) else {
            return Err(EngineError::UnknownVm { vm: m.vm });
        };
        let at = secs("migration", m.at_secs)?;
        let deadline = m
            .deadline_secs
            .map(|d| secs("migration deadline", d))
            .transpose()?
            .map(|d| SimDuration::from_secs_f64(d.as_secs_f64()));
        jobs.push(eng.schedule_migration_with_deadline(vm, m.dest, at, deadline)?);
    }
    for r in spec.request_plan() {
        eng.submit_request(secs("request", r.at_secs)?, r.intent)?;
    }
    for f in spec.fault_plan() {
        eng.schedule_fault(secs("fault", f.at_secs)?, f.kind)?;
    }
    for c in spec.cancellation_plan() {
        let Some(&job) = jobs.get(c.job as usize) else {
            return Err(EngineError::InvalidScenario {
                reason: format!(
                    "cancellation names migration {}, but only {} are declared",
                    c.job,
                    jobs.len()
                ),
            });
        };
        eng.schedule_cancellation(secs("cancellation", c.at_secs)?, job)?;
    }
    Ok(Simulation(eng))
}

/// Build, run to the horizon, and report.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<RunReport, EngineError> {
    run_scenario_with(spec, 1, SolverMode::default(), || NullObserver).map(|run| run.report)
}

/// A finished [`run_scenario_with`].
pub struct ScenarioRun<O> {
    /// The fleet-wide report.
    pub report: RunReport,
    /// One finished observer per engine: one for a monolithic run, one
    /// per shard, in shard order, for a sharded one.
    pub observers: Vec<O>,
    /// Why the spec ran on one engine although more than one thread was
    /// asked for (every rule [`partition`] found broken); empty when it
    /// sharded or when one thread was asked for.
    pub not_sharded: Vec<ShardRejection>,
}

/// Build and run a spec under `solver`, each engine watched by an
/// observer from `make_obs`. With `threads > 1` and a spec that
/// [`partition`] admits, the shards run on up to `threads` workers;
/// otherwise one engine runs. Build errors come before horizon errors.
///
/// A stopped run's report depends on the thread count: when one
/// observer stops its shard, the other shards run on to the next window
/// barrier and finish there (see [`run_sharded_observed`]), so a
/// sharded run that an observer stops reports more of the run than the
/// same stop on one engine — up to that barrier, never to the horizon.
pub fn run_scenario_with<O, F>(
    spec: &ScenarioSpec,
    threads: usize,
    solver: SolverMode,
    mut make_obs: F,
) -> Result<ScenarioRun<O>, EngineError>
where
    O: Observer + Send,
    F: FnMut() -> O,
{
    let subs = if threads > 1 {
        partition(spec)
    } else {
        Err(Vec::new())
    };
    let subs = match subs {
        Ok(subs) => subs,
        Err(not_sharded) => {
            let mut eng = build_scenario(spec)?.into_engine();
            eng.set_solver_mode(solver);
            let horizon = spec.horizon()?;
            let mut obs = make_obs();
            let report = eng.run_until_observed(horizon, &mut obs);
            return Ok(ScenarioRun {
                report,
                observers: vec![obs],
                not_sharded,
            });
        }
    };
    let mut shards = Vec::with_capacity(subs.len());
    for sub in subs {
        let mut engine = build_scenario(&sub.spec)?.into_engine();
        engine.set_solver_mode(solver);
        shards.push(Shard {
            engine,
            vms: sub.vms,
            jobs: sub.jobs,
            nodes: sub.nodes,
        });
    }
    let horizon = spec.horizon()?;
    let observers = shards.iter().map(|_| make_obs()).collect();
    let shape = FleetShape {
        vms: spec.vms.len() as u32,
        jobs: spec.migrations.len() as u32,
        switch_capacity: spec.cluster_config().switch_bw,
    };
    let opts = ParallelOpts {
        threads,
        ..ParallelOpts::default()
    };
    let (report, finished) = run_sharded_observed(shards, observers, shape, horizon, opts);
    Ok(ScenarioRun {
        report,
        observers: finished.into_iter().map(|(_, obs)| obs).collect(),
        not_sharded: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_simcore::units::MIB;

    fn small_single() -> ScenarioSpec {
        ScenarioSpec::single_migration(
            StrategyKind::Hybrid,
            WorkloadSpec::SeqWrite {
                offset: 0,
                total: 32 * MIB,
                block: MIB,
                think_secs: 0.01,
            },
            1.0,
        )
        .with_cluster(ClusterConfig::small_test())
        .with_horizon(300.0)
    }

    #[test]
    fn single_migration_scenario_runs() {
        let r = run_scenario(&small_single()).expect("valid scenario");
        assert_eq!(r.migrations.len(), 1);
        assert!(r.migrations[0].completed);
        assert_eq!(r.migrations[0].consistent, Some(true));
    }

    #[test]
    fn baseline_scenario_has_no_migration() {
        let mut spec = ScenarioSpec::baseline(
            StrategyKind::Hybrid,
            WorkloadSpec::Idle {
                bursts: 3,
                burst_secs: 0.5,
            },
        );
        spec.cluster = Some(ClusterConfig::small_test());
        spec.horizon_secs = 30.0;
        let r = run_scenario(&spec).expect("valid scenario");
        assert!(r.migrations.is_empty());
        assert!(r.vms[0].finished_at.is_some());
    }

    #[test]
    fn mixed_strategy_scenario_runs_both() {
        let mut spec = small_single();
        spec.vms.push(VmSpec {
            node: 1,
            workload: WorkloadSpec::Idle {
                bursts: 2,
                burst_secs: 0.5,
            },
            strategy: Some(StrategyKind::Postcopy),
            start_secs: None,
        });
        spec.migrations.push(MigrationSpec {
            vm: 1,
            dest: 2,
            at_secs: 2.0,
            deadline_secs: None,
        });
        let r = run_scenario(&spec).expect("valid scenario");
        assert_eq!(r.migrations.len(), 2);
        assert_eq!(r.migrations[0].strategy, StrategyKind::Hybrid);
        assert_eq!(r.migrations[1].strategy, StrategyKind::Postcopy);
        assert!(r.migrations.iter().all(|m| m.completed));
    }

    #[test]
    fn bad_scenarios_are_errors_not_panics() {
        // Migration of an unknown VM index.
        let mut spec = small_single();
        spec.migrations[0].vm = 7;
        assert_eq!(
            run_scenario(&spec).unwrap_err(),
            EngineError::UnknownVm { vm: 7 }
        );
        // Destination out of range.
        let mut spec = small_single();
        spec.migrations[0].dest = 99;
        assert!(matches!(
            run_scenario(&spec).unwrap_err(),
            EngineError::NodeOutOfRange { node: 99, .. }
        ));
        // Negative migration time.
        let mut spec = small_single();
        spec.migrations[0].at_secs = -3.0;
        assert!(matches!(
            run_scenario(&spec).unwrap_err(),
            EngineError::InvalidTime { .. }
        ));
        // Workload larger than the image.
        let mut spec = small_single();
        spec.vms[0].workload = WorkloadSpec::SeqWrite {
            offset: 0,
            total: 10 << 30,
            block: MIB,
            think_secs: 0.0,
        };
        assert!(matches!(
            run_scenario(&spec).unwrap_err(),
            EngineError::WorkloadExceedsImage { .. }
        ));
    }

    #[test]
    fn grouped_scenarios_reject_per_vm_overrides() {
        let mut spec = small_single();
        spec.grouped = true;
        spec.migrations.clear();
        spec.vms[0].workload = WorkloadSpec::cm1_small(0, 2, 1, 1);
        spec.vms
            .push(VmSpec::new(1, WorkloadSpec::cm1_small(1, 2, 1, 1)));
        spec.vms[1].strategy = Some(StrategyKind::Postcopy);
        assert!(matches!(
            run_scenario(&spec).unwrap_err(),
            EngineError::InvalidScenario { .. }
        ));
        spec.vms[1].strategy = None;
        spec.vms[1].start_secs = Some(3.0);
        assert!(matches!(
            run_scenario(&spec).unwrap_err(),
            EngineError::InvalidScenario { .. }
        ));
        // Without the overrides the group runs.
        spec.vms[1].start_secs = None;
        assert!(run_scenario(&spec).is_ok());
    }

    #[test]
    fn unknown_scenario_fields_are_rejected() {
        let toml = "strategy = \"our-approach\"\ngrouped = false\nhorizon_secs = 1.0\nvms = []\nmigrations = []\nhorizn = 2.0\n";
        let err = ScenarioSpec::from_toml(toml).unwrap_err().to_string();
        assert!(err.contains("unknown ScenarioSpec field `horizn`"), "{err}");
        let toml = "strategy = \"our-approach\"\ngrouped = false\nhorizon_secs = 1.0\nvms = []\nmigrations = []\n[cluster]\nchunksize = 65536\n";
        let err = ScenarioSpec::from_toml(toml).unwrap_err().to_string();
        assert!(
            err.contains("unknown ClusterConfig field `chunksize`"),
            "{err}"
        );
    }

    #[test]
    fn toml_roundtrip_preserves_spec() {
        let spec = small_single().with_name("unit");
        let text = spec.to_toml().expect("serializes");
        let back = ScenarioSpec::from_toml(&text).expect("parses");
        assert_eq!(back, spec, "TOML:\n{text}");
    }

    #[test]
    fn json_roundtrip_preserves_spec() {
        let spec = small_single();
        let text = spec.to_json().expect("serializes");
        let back = ScenarioSpec::from_json(&text).expect("parses");
        assert_eq!(back, spec);
    }

    /// Counts its `on_finish` calls; with `stop`, stops the run at its
    /// engine's first job status change.
    #[derive(Default)]
    struct Finishes {
        stop: bool,
        finished: u32,
    }

    impl Observer for Finishes {
        fn on_status(
            &mut self,
            _job: lsm_core::JobId,
            _status: lsm_core::MigrationStatus,
            _now: SimTime,
            _progress: &lsm_core::MigrationProgress,
        ) -> lsm_core::RunControl {
            if self.stop {
                lsm_core::RunControl::Stop
            } else {
                lsm_core::RunControl::Continue
            }
        }

        fn on_finish(&mut self, _eng: &Engine) {
            self.finished += 1;
        }
    }

    fn finishes(run: &ScenarioRun<Finishes>) -> Vec<u32> {
        run.observers.iter().map(|o| o.finished).collect()
    }

    #[test]
    fn a_one_engine_run_finishes_its_observer_once() {
        let run = run_scenario_with(&small_single(), 1, SolverMode::default(), Finishes::default)
            .expect("runs");
        assert_eq!(finishes(&run), [1]);
        assert!(run.not_sharded.is_empty());
    }

    #[test]
    fn a_sharded_run_finishes_each_shard_observer_once() {
        let spec = crate::stress::scale1024_quick_spec();
        let run =
            run_scenario_with(&spec, 2, SolverMode::default(), Finishes::default).expect("runs");
        assert!(run.not_sharded.is_empty(), "{:?}", run.not_sharded);
        assert_eq!(finishes(&run), [1; 32]);
    }

    #[test]
    fn a_stopped_run_still_finishes_its_observer_once() {
        let stop = || Finishes {
            stop: true,
            finished: 0,
        };
        let run = run_scenario_with(&small_single(), 1, SolverMode::default(), stop).expect("runs");
        assert_eq!(finishes(&run), [1]);
        assert!(
            run.report.horizon < SimTime::from_secs_f64(2.0),
            "stopped at the migration's first status change, not at {:?}",
            run.report.horizon
        );
    }

    /// Every shard of a stopped sharded run finishes at the window
    /// barrier the run reached: `demo.toml` on 2 threads, each shard
    /// stopped at its first status change (1 s and 2 s), reports no more
    /// than the first 5 s barrier, not its 300 s horizon.
    #[test]
    fn a_stopped_sharded_run_ends_at_its_barrier() {
        let path = format!("{}/demo.toml", crate::SCENARIOS_DIR);
        let text = std::fs::read_to_string(path).expect("demo.toml reads");
        let spec = ScenarioSpec::from_toml(&text).expect("demo.toml parses");
        let stop = || Finishes {
            stop: true,
            finished: 0,
        };
        let run = run_scenario_with(&spec, 2, SolverMode::default(), stop).expect("runs");
        assert!(run.not_sharded.is_empty(), "{:?}", run.not_sharded);
        assert!(
            run.report.horizon <= SimTime::from_secs_f64(5.0),
            "ran on past the first barrier, to {:?}",
            run.report.horizon
        );
    }

    #[test]
    fn an_unshardable_spec_runs_one_engine_and_says_why() {
        let run = run_scenario_with(&small_single(), 2, SolverMode::default(), Finishes::default)
            .expect("runs");
        assert_eq!(run.not_sharded, [ShardRejection::SingleComponent]);
        assert_eq!(finishes(&run), [1]);
        assert_eq!(
            serde_json::to_string(&run.report).expect("serializes"),
            serde_json::to_string(&run_scenario(&small_single()).expect("runs"))
                .expect("serializes")
        );
    }

    #[test]
    fn build_errors_come_before_horizon_errors() {
        // Two components ({0, 1} and {2, 3}): shardable at 2 threads.
        let mut spec = small_single().with_horizon(-1.0);
        spec.vms.push(VmSpec::new(2, spec.vms[0].workload.clone()));
        spec.migrations.push(MigrationSpec {
            vm: 1,
            dest: 3,
            ..spec.migrations[0].clone()
        });
        assert_eq!(partition(&spec).map(|subs| subs.len()), Ok(2));
        for threads in [1, 2] {
            let err = |spec: &ScenarioSpec| {
                run_scenario_with(spec, threads, SolverMode::default(), || NullObserver)
                    .err()
                    .expect("rejected")
            };
            assert!(matches!(
                err(&spec),
                EngineError::InvalidTime { ref what, .. } if what == "horizon"
            ));
            let mut too_big = spec.clone();
            too_big.vms[1].workload = WorkloadSpec::SeqWrite {
                offset: 0,
                total: 10 << 30,
                block: MIB,
                think_secs: 0.0,
            };
            assert!(matches!(
                err(&too_big),
                EngineError::WorkloadExceedsImage { .. }
            ));
        }
    }

    #[test]
    fn toml_run_equals_builder_run() {
        let spec = small_single();
        let direct = run_scenario(&spec).expect("runs");
        let via_toml =
            run_scenario(&ScenarioSpec::from_toml(&spec.to_toml().unwrap()).expect("parses"))
                .expect("runs");
        assert_eq!(direct.events, via_toml.events);
        assert_eq!(direct.total_traffic, via_toml.total_traffic);
        assert_eq!(
            direct.the_migration().completed_at,
            via_toml.the_migration().completed_at
        );
    }
}
