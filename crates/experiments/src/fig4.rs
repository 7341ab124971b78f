//! Figure 4: performance of concurrent live migrations (§5.4).
//!
//! 30 sources all run AsyncWR; after a 100 s warm-up, `k` of them are
//! live-migrated *simultaneously* to `k` distinct destinations,
//! `k ∈ {1, 10, 20, 30}`. Three panels:
//!
//! * **(a) average migration time per instance**,
//! * **(b) total network traffic** (GB) of the whole experiment,
//! * **(c) performance degradation** — aggregate compute counters of all
//!   30 VMs vs. a migration-free run, in % of the maximum.

use crate::scenario::{run_scenario, MigrationSpec, ScenarioSpec, VmSpec};
use crate::sweep::parallel_map;
use crate::table::{f, Table};
use crate::Scale;
use lsm_core::config::ClusterConfig;
use lsm_core::policy::StrategyKind;
use lsm_simcore::units::GIB;
use lsm_workloads::{AsyncWrParams, WorkloadSpec};
use serde::Serialize;

/// Parameters of the Figure 4 experiment.
#[derive(Clone, Debug)]
pub struct Fig4Params {
    /// Number of AsyncWR source VMs (30 in the paper).
    pub sources: u32,
    /// Concurrent migration counts to sweep (1..30 in the paper).
    pub ks: Vec<u32>,
    /// AsyncWR configuration.
    pub workload: AsyncWrParams,
    /// Warm-up before the simultaneous migrations.
    pub migrate_at: f64,
    /// Run horizon (also the degradation measurement point).
    pub horizon: f64,
}

impl Fig4Params {
    /// Parameters for the requested scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Fig4Params {
                sources: 30,
                ks: vec![1, 10, 20, 30],
                workload: AsyncWrParams::default(),
                migrate_at: 100.0,
                horizon: 500.0,
            },
            Scale::Quick => Fig4Params {
                sources: 4,
                ks: vec![1, 2, 4],
                workload: AsyncWrParams {
                    iterations: 40,
                    ..Default::default()
                },
                migrate_at: 10.0,
                horizon: 150.0,
            },
        }
    }
}

/// One `(strategy, k)` data point.
#[derive(Clone, Debug, Serialize)]
pub struct Fig4Point {
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Number of simultaneous migrations.
    pub k: u32,
    /// Panel (a): mean migration time per instance, seconds.
    pub avg_migration_time_s: f64,
    /// Panel (b): total network traffic, GB.
    pub total_traffic_gb: f64,
    /// Panel (c): compute lost vs. the migration-free run, %.
    pub degradation_pct: f64,
    /// All `k` migrations completed and were consistent.
    pub all_ok: bool,
}

/// Full Figure 4 dataset.
#[derive(Clone, Debug, Serialize)]
pub struct Fig4Result {
    /// All data points.
    pub points: Vec<Fig4Point>,
    /// Migration-free aggregate compute at the horizon, seconds.
    pub baseline_compute: f64,
}

/// Produce the Figure 4 scenario for `(strategy, k)` — `k = 0` is the
/// migration-free baseline shape.
pub fn scenario(p: &Fig4Params, strategy: StrategyKind, k: u32) -> ScenarioSpec {
    // Sources on nodes 0..sources, destinations after them; repository
    // spans all nodes (the paper aggregates every local disk).
    let nodes = 2 * p.sources + 1;
    let vms = (0..p.sources)
        .map(|i| VmSpec::new(i, WorkloadSpec::AsyncWr(p.workload)))
        .collect();
    let migrations = (0..k)
        .map(|i| MigrationSpec {
            vm: i,
            dest: p.sources + i,
            at_secs: p.migrate_at,
            deadline_secs: None,
        })
        .collect();
    ScenarioSpec {
        name: Some(format!("fig4-{}-k{k}", strategy.label())),
        cluster: Some(ClusterConfig::graphene(nodes)),
        orchestrator: None,
        autonomic: None,
        resilience: None,
        qos: None,
        vms,
        grouped: false,
        strategy,
        migrations,
        requests: None,
        faults: None,
        cancellations: None,
        horizon_secs: p.horizon,
    }
}

/// Run the whole Figure 4 experiment.
pub fn run_fig4(scale: Scale) -> Fig4Result {
    run_fig4_strategies(scale, &StrategyKind::ALL)
}

/// Run Figure 4 for a subset of strategies.
///
/// Degradation follows the paper's definition: the aggregate compute
/// counters of all VMs at a fixed instant, compared with a
/// **migration-free run of the same storage setting** ("the maximum
/// computational potential achieved in a migration-free scenario"). The
/// measurement instant is the migration-free run's completion time, so
/// any compute displaced past it by migrations counts as lost.
pub fn run_fig4_strategies(scale: Scale, strategies: &[StrategyKind]) -> Fig4Result {
    let p = Fig4Params::for_scale(scale);

    // Per-strategy migration-free baselines (pvfs-shared runs its I/O
    // through PVFS even without migrations).
    let baselines = parallel_map(strategies.to_vec(), |strategy| {
        let mut base = scenario(&p, strategy, 0);
        base.migrations.clear();
        let r = run_scenario(&base).expect("experiment scenario is valid");
        let end = r
            .all_finished_at()
            .map(|t| t.as_secs_f64())
            .unwrap_or(p.horizon);
        // The baseline finishes exactly at `end`, so its counters at that
        // instant equal its totals.
        (strategy, end, r.total_useful_compute())
    });

    let mut jobs = Vec::new();
    for (strategy, end, compute) in &baselines {
        for &k in &p.ks {
            let mut s = scenario(&p, *strategy, k);
            s.horizon_secs = *end;
            jobs.push((*strategy, k, *compute, s));
        }
    }
    let points = parallel_map(jobs, |(strategy, k, base_compute, s)| {
        let r = run_scenario(&s).expect("experiment scenario is valid");
        let all_ok = r
            .migrations
            .iter()
            .all(|m| m.completed && m.consistent.unwrap_or(false));
        Fig4Point {
            strategy,
            k,
            avg_migration_time_s: r.mean_migration_time(),
            total_traffic_gb: r.total_traffic as f64 / GIB as f64,
            degradation_pct: 100.0 * (base_compute - r.total_useful_compute()) / base_compute,
            all_ok,
        }
    });

    Fig4Result {
        points,
        baseline_compute: baselines.iter().map(|(_, _, c)| c).sum::<f64>()
            / baselines.len().max(1) as f64,
    }
}

impl Fig4Result {
    /// Point lookup.
    pub fn point(&self, strategy: StrategyKind, k: u32) -> &Fig4Point {
        self.points
            .iter()
            .find(|pt| pt.strategy == strategy && pt.k == k)
            .expect("point present")
    }

    /// Panel (a) table.
    pub fn table_time(&self) -> Table {
        let mut t = Table::new(
            "Fig 4a: avg migration time / instance (s) vs #concurrent migrations",
            &["strategy", "k", "avg time (s)"],
        );
        for pt in &self.points {
            t.row(vec![
                pt.strategy.label().to_string(),
                pt.k.to_string(),
                f(pt.avg_migration_time_s),
            ]);
        }
        t
    }

    /// Panel (b) table.
    pub fn table_traffic(&self) -> Table {
        let mut t = Table::new(
            "Fig 4b: total network traffic (GB) vs #concurrent migrations",
            &["strategy", "k", "traffic (GB)"],
        );
        for pt in &self.points {
            t.row(vec![
                pt.strategy.label().to_string(),
                pt.k.to_string(),
                f(pt.total_traffic_gb),
            ]);
        }
        t
    }

    /// Panel (c) table.
    pub fn table_degradation(&self) -> Table {
        let mut t = Table::new(
            "Fig 4c: performance degradation (% of max compute) vs #concurrent migrations",
            &["strategy", "k", "degradation (%)"],
        );
        for pt in &self.points {
            t.row(vec![
                pt.strategy.label().to_string(),
                pt.k.to_string(),
                f(pt.degradation_pct),
            ]);
        }
        t
    }
}
