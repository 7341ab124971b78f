//! # lsm-hypervisor — VM lifecycle and memory live migration
//!
//! The paper's storage transfer scheme is deliberately **independent of the
//! memory migration strategy** (§4.1, "Transparency with respect to the
//! hypervisor"): the hypervisor migrates memory however it likes, and the
//! migration manager only learns about the transfer of control via the
//! `sync` call QEMU issues right before the stop-and-copy.
//!
//! This crate models that hypervisor side:
//!
//! * [`Vm`] — virtual machine descriptor with pause/resume bookkeeping
//!   (downtime accounting).
//! * [`MemoryProfile`] — how much memory a workload actually touches and
//!   how fast it dirties pages (including the page-cache dirtying that
//!   couples disk writes to memory state — the effect that makes
//!   I/O-intensive guests hard to pre-copy).
//! * [`PrecopyMemory`] — QEMU-style iterative pre-copy: a first pass over
//!   touched pages, then rounds re-sending pages dirtied in the meantime,
//!   until the remainder fits in the downtime target (or a forced-
//!   convergence round cap fires, like `migrate_set_downtime` being raised
//!   by an operator).
//! * [`PostcopyMemory`] — a minimal post-copy memory migrator (the paper's
//!   §6 future work), used by the memory-strategy ablation.
//!
//! All state machines are *pure*: the engine reports measured dirty bytes
//! and transfer rates; the machines answer "what to send next".

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod memory;
pub mod postcopy;
pub mod precopy;
pub mod vm;

pub use memory::{MemMigrationConfig, MemoryProfile};
pub use postcopy::PostcopyMemory;
pub use precopy::{NextStep, PrecopyMemory};
pub use vm::{Vm, VmId, VmState};
