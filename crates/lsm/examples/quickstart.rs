//! Quickstart: live-migrate one I/O-intensive VM with the paper's hybrid
//! push/prefetch scheme, watch its lifecycle through an observer, and
//! inspect the outcome.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lsm::core::engine::{JobId, MigrationProgress, MigrationStatus, Observer, RunControl};
use lsm::core::policy::StrategyKind;
use lsm::experiments::scenario::{run_scenario_with, ScenarioSpec};
use lsm::netsim::SolverMode;
use lsm::simcore::units::fmt_bytes;
use lsm::simcore::SimTime;
use lsm::workloads::WorkloadSpec;

/// Print every lifecycle transition as the migration progresses.
struct Watch;

impl Observer for Watch {
    fn on_status(
        &mut self,
        job: JobId,
        status: MigrationStatus,
        now: SimTime,
        p: &MigrationProgress,
    ) -> RunControl {
        println!(
            "[{:>7.2}s] job {} -> {:<22} ({} rounds, {} pushed, {} pulled, {} chunks left)",
            now.as_secs_f64(),
            job.0,
            status.label(),
            p.mem_rounds,
            p.chunks_pushed,
            p.chunks_pulled,
            p.chunks_remaining,
        );
        RunControl::Continue
    }
}

fn main() {
    // One VM on node 0 running AsyncWR (compute overlapped with steady
    // writes), live-migrated to node 1 at t = 20 s.
    let spec =
        ScenarioSpec::single_migration(StrategyKind::Hybrid, WorkloadSpec::async_wr_short(), 20.0)
            .with_horizon(400.0);

    let report = run_scenario_with(&spec, 1, SolverMode::default(), || Watch)
        .expect("scenario is valid")
        .report;
    let m = report.the_migration();

    println!("\n=== hybrid live storage migration ===");
    println!("status                {:>10}", m.status.label());
    println!(
        "requested at          {:>8.2} s",
        m.requested_at.as_secs_f64()
    );
    println!(
        "control transferred   {:>8.2} s",
        m.control_at.expect("control transferred").as_secs_f64()
    );
    println!(
        "source relinquished   {:>8.2} s",
        m.completed_at.expect("completed").as_secs_f64()
    );
    println!(
        "migration time        {:>8.2} s",
        m.migration_time.expect("completed").as_secs_f64()
    );
    println!(
        "guest downtime        {:>8.1} ms",
        m.downtime.as_secs_f64() * 1e3
    );
    println!("memory rounds         {:>8}", m.mem_rounds);
    println!("chunks pushed         {:>8}", m.pushed_chunks);
    println!("chunks prefetched     {:>8}", m.pulled_chunks);
    println!("  of which on-demand  {:>8}", m.ondemand_chunks);
    println!(
        "destination consistent: {}",
        m.consistent.expect("checked at completion")
    );
    println!(
        "total network traffic {:>10}",
        fmt_bytes(report.total_traffic)
    );

    let vm = &report.vms[0];
    println!(
        "\nworkload: {} — {} iterations, {} written, finished at {:.1} s",
        vm.label,
        vm.iterations,
        fmt_bytes(vm.bytes_written),
        vm.finished_at.expect("finished").as_secs_f64()
    );
    assert!(m.completed && m.consistent == Some(true));
}
