//! # lsm-blockdev — chunked virtual-disk substrate
//!
//! Everything the migration manager sees of a VM's local storage:
//!
//! * [`ChunkId`] / [`ChunkSet`] — the paper's disk images are striped into
//!   fixed-size chunks (256 KB in §5.2.1); sets of chunks are the currency
//!   of every transfer algorithm ([`ChunkSet`] is a dense bitset).
//! * [`VirtualDisk`] — copy-on-write view over a shared base image, exactly
//!   the structure the FUSE-based migration manager of §4.2 exposes: chunks
//!   are `Untouched` (served from the repository), `CachedBase` (fetched and
//!   kept locally) or `Local` (written by the VM). Content is modeled as a
//!   **version per chunk**: every write stamps a globally unique version,
//!   so tests can verify bit-exact consistency of a migrated disk without
//!   storing gigabytes. [`ChunkStore`] is a physical replica of those
//!   versions.
//! * [`WriteCounter`] — per-chunk write counts with the `Threshold` logic of
//!   Algorithm 1/2 (chunks written more than `Threshold` times are withheld
//!   from the active push).
//!
//! Versions and write counts live in 4 KiB pages allocated on a chunk's
//! first non-zero value, so their memory follows the chunks a guest wrote,
//! not the image size (see [`vdisk`]).
//! * [`DirtyTracker`] — dirty-chunk bookkeeping for the QEMU-style
//!   incremental block-migration baseline (bulk pass + dirty passes).
//! * [`PageCache`] — a guest page-cache model (write-back with dirty
//!   throttling, LRU residency). This is what makes IOR read at ~1 GB/s and
//!   write at ~266 MB/s on a 55 MB/s disk, as measured in §5.3 — and what
//!   couples disk I/O to memory dirtying during live migration.
//!
//! Physical disk *time* is not modeled here: nodes use
//! [`lsm_simcore::SharedResource`] for that. This crate is pure state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod chunk;
pub mod dirty;
pub mod vdisk;

pub use cache::{CacheConfig, PageCache, ReadClass, WriteClass};
pub use chunk::{byte_range_to_chunks, ChunkId, ChunkSet};
pub use dirty::DirtyTracker;
pub use vdisk::{ChunkState, ChunkStore, VirtualDisk, WriteCounter};
