//! A small CM1 cluster (2×2 ranks) with two successive live migrations —
//! the Figure 5 scenario at laptop scale, on the engine's checked API.
//! Shows how one migrated rank drags the whole barrier-synchronized
//! application.
//!
//! ```text
//! cargo run --release --example cm1_cluster
//! ```

use lsm::core::config::ClusterConfig;
use lsm::core::policy::StrategyKind;
use lsm::core::Engine;
use lsm::simcore::SimTime;
use lsm::workloads::WorkloadSpec;

fn run(migrations: u32) -> (f64, f64) {
    let mut sim = Engine::new(ClusterConfig {
        nodes: 8,
        ..ClusterConfig::small_test()
    })
    .expect("config is valid");
    let placements: Vec<(u32, WorkloadSpec)> = (0..4)
        .map(|r| (r, WorkloadSpec::cm1_small(r, 4, 2, 4)))
        .collect();
    let ids = sim
        .add_group(&placements, StrategyKind::Hybrid, SimTime::ZERO)
        .expect("group is valid");
    for i in 0..migrations {
        sim.schedule_migration(
            ids[i as usize],
            4 + i,
            SimTime::from_secs_f64(10.0 * (i + 1) as f64),
        )
        .expect("migration is valid");
    }
    let r = sim.run_until(SimTime::from_secs(900));
    for m in &r.migrations {
        assert!(m.completed && m.consistent == Some(true));
    }
    let runtime = r
        .vms
        .iter()
        .map(|v| v.finished_at.expect("rank finished").as_secs_f64())
        .fold(0.0, f64::max);
    (runtime, r.total_migration_time())
}

fn main() {
    let (base, _) = run(0);
    println!("CM1 2x2, hybrid storage migration");
    println!(
        "{:>12} {:>14} {:>22}",
        "#migrations", "app runtime", "cumulated migr. time"
    );
    println!("{:>12} {:>12.1} s {:>20} s", 0, base, "-");
    for n in 1..=2 {
        let (runtime, cumul) = run(n);
        println!("{:>12} {:>12.1} s {:>20.1} s", n, runtime, cumul);
    }
    println!("\nEvery migrated rank slows its whole barrier group — the");
    println!("paper's motivation for minimizing migration interference.");
}
