//! # lsm-simcore — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the HPDC'12 live-storage-migration
//! reproduction. It provides the pieces every other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//!   integer-based so event ordering is exactly reproducible.
//! * [`EventQueue`] — a cancellable priority queue of timestamped events with
//!   stable FIFO tie-breaking for events scheduled at the same instant: a
//!   monotone radix heap of small `(time, seq, slot)` keys over a slab of
//!   payload slots. Keys sit in 65 buckets by the highest bit in which
//!   their time differs from the last head's, so nothing sifts; schedule
//!   and cancel are `O(1)`, cancel vacates the slot, and nothing hashes.
//! * [`SharedResource`] — a fluid-model lane (a disk, a page-cache lane)
//!   whose capacity is shared equally among outstanding requests, each
//!   carrying its caller's completion context. The network crate
//!   generalizes the idea to max–min fair flows over coupled resources.
//! * [`DetRng`] — a small, seedable RNG wrapper so every simulation run is a
//!   pure function of its configuration.
//! * [`units`] — byte/bandwidth constants and conversion helpers.
//!
//! The kernel is intentionally single-threaded: determinism is a hard
//! requirement (the paper's experiments are compared run-to-run), and the
//! experiment harness instead parallelizes across *runs* with scoped threads.
//!
//! ```
//! use lsm_simcore::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(2), "later");
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t.as_secs_f64(), ev), (1.0, "sooner"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod fault;
pub mod resource;
pub mod rng;
pub mod time;
pub mod units;

pub use event::{EventId, EventQueue};
pub use fault::FaultKind;
pub use resource::SharedResource;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
