//! # lsm — Hybrid Local Storage Transfer for Live Migration
//!
//! Facade crate re-exporting the full public API of the HPDC'12
//! reproduction ("A Hybrid Local Storage Transfer Scheme for Live Migration
//! of I/O Intensive Workloads", Nicolae & Cappello, 2012).
//!
//! The workspace is organized bottom-up:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`simcore`] | deterministic DES kernel: time, events, fair-shared resources |
//! | [`netsim`] | flow-level datacenter network with max–min fair sharing |
//! | [`blockdev`] | chunked COW virtual disks, write counters, page cache, disk scheduler |
//! | [`repo`] | BlobSeer-like striped repository + PVFS-like parallel FS |
//! | [`hypervisor`] | VM lifecycle and pre-/post-copy memory migration |
//! | [`workloads`] | IOR, AsyncWR, CM1 and synthetic closed-loop drivers |
//! | [`core`] | the migration engine and its checked API (migration jobs, observers), and the five storage transfer policies |
//! | [`experiments`] | serializable scenarios + harnesses regenerating every figure of the paper |
//!
//! ## Quickstart (declarative scenario)
//!
//! ```
//! use lsm::experiments::scenario::{ScenarioSpec, run_scenario};
//! use lsm::core::policy::StrategyKind;
//! use lsm::workloads::WorkloadSpec;
//!
//! // One VM running AsyncWR, migrated at t=20s with the paper's hybrid
//! // scheme. Misconfigured scenarios are errors, not panics.
//! let spec = ScenarioSpec::single_migration(
//!     StrategyKind::Hybrid,
//!     WorkloadSpec::async_wr_short(),
//!     20.0,
//! );
//! let report = run_scenario(&spec).expect("scenario is valid");
//! assert!(report.migrations[0].completed);
//!
//! // Every scenario round-trips through TOML (and JSON) — the same run
//! // can be replayed from a file with `lsm run scenario.toml`.
//! let toml = spec.to_toml().unwrap();
//! assert_eq!(ScenarioSpec::from_toml(&toml).unwrap(), spec);
//! ```
//!
//! ## Quickstart (engine API + observable migration jobs)
//!
//! ```
//! use lsm::core::config::ClusterConfig;
//! use lsm::core::{Engine, MigrationStatus, StrategyKind};
//! use lsm::simcore::SimTime;
//! use lsm::workloads::WorkloadSpec;
//!
//! # fn main() -> Result<(), lsm::core::EngineError> {
//! let mut eng = Engine::new(ClusterConfig::small_test())?;
//! let vm = eng.add_vm(
//!     0,
//!     &WorkloadSpec::SeqWrite { offset: 0, total: 16 << 20, block: 1 << 20, think_secs: 0.05 },
//!     StrategyKind::Hybrid,
//!     SimTime::ZERO,
//! )?;
//! let job = eng.schedule_migration(vm, 1, SimTime::from_secs(1))?;
//! eng.run_until(SimTime::from_secs(120));
//! assert_eq!(eng.job_status(job), Some(MigrationStatus::Completed));
//! assert_eq!(eng.job_progress(job).unwrap().chunks_remaining, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use lsm_blockdev as blockdev;
pub use lsm_core as core;
pub use lsm_experiments as experiments;
pub use lsm_hypervisor as hypervisor;
pub use lsm_netsim as netsim;
pub use lsm_repo as repo;
pub use lsm_simcore as simcore;
pub use lsm_workloads as workloads;
