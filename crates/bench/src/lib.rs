//! # lsm-bench — Criterion micro-benchmarks of the simulator
//!
//! The benches under `benches/` time single layers of the simulator:
//!
//! | bench target | what it times |
//! |--------------|---------------|
//! | `substrate` | the max–min network allocator and its next-completion query, chunk-set algebra, hybrid policy state, the fair-shared resource, and one paper-scale migration run |
//! | `eventqueue` | the `EventQueue` at 1M, 4096 and 256 pending events |
//!
//! The paper's figures and ablations come from the CLI (`lsm fig3`,
//! `lsm fig4`, `lsm fig5` and `lsm ablate`, each with `--quick` for the
//! reduced scale); end-to-end timing is lsmbench's.

#![forbid(unsafe_code)]
