//! # lsm-bench — benchmark harness for the HPDC'12 reproduction
//!
//! The Criterion benches under `benches/` regenerate every figure of the
//! paper's evaluation:
//!
//! | bench target | paper artifact |
//! |--------------|----------------|
//! | `fig3` (`migration_time`, `network_traffic`, `throughput`) | Fig 3a/3b/3c |
//! | `fig4` (`migration_time`, `network_traffic`, `degradation`) | Fig 4a/4b/4c |
//! | `fig5` (`migration_time`, `network_traffic`, `slowdown`) | Fig 5a/5b/5c |
//! | `ablations` (`threshold`, `priority`, `window`) | design-choice sweeps of §4.1 |
//! | `substrate` | hot-path micro-benchmarks of the simulator itself |
//!
//! Benches run the **Quick** scale so `cargo bench` finishes in minutes;
//! each bench prints the regenerated result table once before sampling.
//! Paper-scale numbers come from the CLI:
//! `cargo run --release -p lsm-cli -- fig3` etc.

#![forbid(unsafe_code)]

/// Print a banner plus a result table once per bench target.
pub fn print_once(title: &str, table: &lsm_experiments::table::Table) {
    println!("\n================ {title} ================");
    println!("{}", table.render());
}
