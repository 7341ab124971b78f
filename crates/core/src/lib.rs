//! # lsm-core — live storage migration engine and transfer policies
//!
//! The primary contribution of the reproduced paper (Nicolae & Cappello,
//! HPDC'12): a **hybrid active push / prioritized prefetch** scheme for
//! transferring VM local storage during live migration, implemented
//! alongside the four comparison baselines on a deterministic simulated
//! cluster.
//!
//! * [`policy`] — the transfer strategies as pure, engine-free state
//!   machines: the paper's Algorithms 1–4 ([`policy::HybridSource`],
//!   [`policy::HybridDest`]) plus `precopy`, `mirror` and `postcopy`
//!   source states.
//! * [`engine`] — the event-driven simulator coupling
//!   network/disk/page-cache models, workloads, memory pre-copy and the
//!   policies. One [`Engine`] per experiment run; its API is checked:
//!   every request is validated and misuse returns [`EngineError`], and
//!   each job exposes its [`MigrationStatus`]/[`MigrationProgress`],
//!   watchable (and abortable) through an [`engine::Observer`].
//! * [`config`] — cluster parameters, defaulting to the paper's
//!   Grid'5000 *graphene* testbed numbers.
//! * [`planner`] — the cluster orchestration layer: one of three
//!   built-in planners ([`PlannerKind`]) decides placement, admission
//!   order (under a configurable max-concurrent cap) and the transfer
//!   scheme of every job it admits (the fixed planner keeps the VM's;
//!   the others choose from live per-VM I/O telemetry);
//!   high-level intents ([`planner::RequestIntent`]) express node
//!   evacuation and group rebalancing.
//! * [`autonomic`] — the closed-loop rebalancer: a periodic monitor
//!   classifying per-node I/O pressure against configurable thresholds
//!   (with hysteresis) that *originates* migrations — relieving
//!   overloaded nodes, draining underloaded ones, deferring hot-phase
//!   candidates on their windowed re-write rate until a deadline — and
//!   re-plans in-flight jobs whose destination crashes or degrades.
//!   Inert unless an [`AutonomicConfig`] is given.
//! * [`resilience`] — the migration resilience layer: a per-job
//!   [`RetryPolicy`] with exponential backoff and *resumable* transfers
//!   (chunk versions already stamped at a surviving destination are
//!   never re-sent), stepped auto-converge guest throttling, a hard
//!   downtime limit that trades an over-budget switchover for another
//!   copy round, and clean cancellation
//!   ([`engine::Engine::cancel_migration`]) at any phase. Inert unless
//!   a [`ResilienceConfig`] is given.
//! * [`qos`] — migration QoS shaping: per-migration bandwidth caps
//!   below the max–min NIC share, multifd-style parallel memory
//!   streams with deterministic sharding, a compression model that
//!   trades wire bytes for guest CPU, and SLA-violation accounting
//!   (downtime + degraded-throughput seconds, per job and aggregated
//!   in `RunReport.sla`). Shaping is inert unless a [`QosConfig`] is
//!   given; the SLA accounting is always on.
//!
//! An engine is configured once, at construction: [`Engine::new`] takes
//! an [`EngineConfig`] — the cluster plus the orchestrator, autonomic,
//! resilience and QoS sections, each validated there — or a bare
//! [`ClusterConfig`], which leaves every section at its inert default.
//!
//! ```
//! use lsm_core::config::ClusterConfig;
//! use lsm_core::policy::StrategyKind;
//! use lsm_core::{Engine, MigrationStatus};
//! use lsm_simcore::SimTime;
//! use lsm_workloads::WorkloadSpec;
//!
//! # fn main() -> Result<(), lsm_core::EngineError> {
//! let mut eng = Engine::new(ClusterConfig::small_test())?;
//! let vm = eng.add_vm(
//!     0,
//!     &WorkloadSpec::SeqWrite { offset: 0, total: 16 << 20, block: 1 << 20, think_secs: 0.05 },
//!     StrategyKind::Hybrid,
//!     SimTime::ZERO,
//! )?;
//! let job = eng.schedule_migration(vm, 1, SimTime::from_secs(1))?;
//!
//! // Misuse is an error, not a panic:
//! assert!(eng.schedule_migration(vm, 1, SimTime::from_secs(2)).is_err());
//!
//! let report = eng.run_until(SimTime::from_secs(120));
//! assert_eq!(eng.job_status(job), Some(MigrationStatus::Completed));
//! let m = report.the_migration();
//! assert!(m.completed && m.consistent == Some(true));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autonomic;
pub mod config;
pub mod engine;
pub mod error;
pub mod parallel;
pub mod planner;
pub mod policy;
pub mod qos;
pub mod resilience;

pub use autonomic::{
    AutonomicConfig, Deferral, DeferralReason, NodeClass, RebalanceAction, RebalanceTrigger,
    ReplanReason,
};
pub use config::{ClusterConfig, EngineConfig};
pub use engine::{
    Engine, FailureReason, FaultKind, IoTelemetry, JobId, MigrationProgress, MigrationRecord,
    MigrationStatus, Observer, RunControl, RunReport, VmRecord,
};
pub use error::EngineError;
pub use lsm_hypervisor::VmId;
pub use lsm_netsim::NodeId;
pub use planner::{
    OrchestratorConfig, PlannerDecision, PlannerKind, PlannerSkip, RequestIntent, SchemeEstimate,
    SkipReason,
};
pub use policy::StrategyKind;
pub use qos::{QosConfig, SlaJob, SlaReport};
pub use resilience::{
    AttemptReason, JobAttempt, JobResilience, ResilienceConfig, RetryOn, RetryPolicy,
};
