//! Figure 5: impact on a real application — CM1 (§5.5).
//!
//! 64 CM1 ranks (8×8 decomposition), one per source node. While the model
//! runs, `n ∈ 1..7` VMs are migrated *successively*, one per minute.
//! Three panels:
//!
//! * **(a) cumulated migration time** — sum over all `n` migrations,
//! * **(b) migration-attributable network traffic** (GB) — CM1's own
//!   halo-exchange traffic subtracted, as in the paper,
//! * **(c) increase in application execution time** vs. a migration-free
//!   run.

use crate::scenario::{run_scenario, MigrationSpec, ScenarioSpec, VmSpec};
use crate::sweep::parallel_map;
use crate::table::{f, Table};
use crate::Scale;
use lsm_core::config::ClusterConfig;
use lsm_core::policy::StrategyKind;
use lsm_simcore::units::GIB;
use lsm_workloads::{Cm1Params, WorkloadSpec};
use serde::Serialize;

/// Parameters of the Figure 5 experiment.
#[derive(Clone, Debug)]
pub struct Fig5Params {
    /// Ranks (and source nodes).
    pub ranks: u32,
    /// Decomposition width.
    pub grid_w: u32,
    /// CM1 output steps.
    pub iterations: u32,
    /// Successive migration counts to sweep.
    pub ns: Vec<u32>,
    /// Interval between successive migrations, seconds.
    pub interval: f64,
    /// Run horizon.
    pub horizon: f64,
    /// Whether to use the shrunken CM1 rank parameters.
    pub small: bool,
}

impl Fig5Params {
    /// Parameters for the requested scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Fig5Params {
                ranks: 64,
                grid_w: 8,
                iterations: 6,
                ns: (1..=7).collect(),
                interval: 60.0,
                horizon: 1500.0,
                small: false,
            },
            Scale::Quick => Fig5Params {
                ranks: 4,
                grid_w: 2,
                iterations: 3,
                ns: vec![1, 2],
                interval: 8.0,
                horizon: 400.0,
                small: true,
            },
        }
    }
}

/// One `(strategy, n)` data point.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Point {
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Number of successive migrations.
    pub n: u32,
    /// Panel (a): sum of the `n` migration times, seconds.
    pub cumulated_migration_time_s: f64,
    /// Panel (b): migration-attributable traffic, GB (application halo
    /// traffic excluded).
    pub migration_traffic_gb: f64,
    /// Panel (c): application runtime increase vs. migration-free, s.
    pub runtime_increase_s: f64,
    /// All migrations completed consistently and the app finished.
    pub all_ok: bool,
}

/// Full Figure 5 dataset.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Result {
    /// All data points.
    pub points: Vec<Fig5Point>,
    /// Migration-free application runtime, seconds.
    pub baseline_runtime_s: f64,
}

/// Produce the Figure 5 scenario for `(strategy, n)` — `n = 0` is the
/// migration-free baseline shape.
pub fn scenario(p: &Fig5Params, strategy: StrategyKind, n: u32) -> ScenarioSpec {
    let nodes = p.ranks + p.ns.iter().copied().max().unwrap_or(1);
    let vms: Vec<VmSpec> = (0..p.ranks)
        .map(|r| {
            let spec = if p.small {
                WorkloadSpec::cm1_small(r, p.ranks, p.grid_w, p.iterations)
            } else {
                WorkloadSpec::Cm1(Cm1Params {
                    rank: r,
                    ranks: p.ranks,
                    grid_w: p.grid_w,
                    iterations: p.iterations,
                    ..Default::default()
                })
            };
            VmSpec::new(r, spec)
        })
        .collect();
    let migrations = (0..n)
        .map(|i| MigrationSpec {
            vm: i,
            dest: p.ranks + i,
            at_secs: p.interval * (i + 1) as f64,
            deadline_secs: None,
        })
        .collect();
    let mut cluster = ClusterConfig::graphene(nodes);
    if p.small {
        cluster = ClusterConfig {
            nodes,
            ..ClusterConfig::small_test()
        };
    }
    ScenarioSpec {
        name: Some(format!("fig5-{}-n{n}", strategy.label())),
        cluster: Some(cluster),
        orchestrator: None,
        autonomic: None,
        resilience: None,
        qos: None,
        vms,
        grouped: true,
        strategy,
        migrations,
        requests: None,
        faults: None,
        cancellations: None,
        horizon_secs: p.horizon,
    }
}

/// Run the whole Figure 5 experiment.
pub fn run_fig5(scale: Scale) -> Fig5Result {
    run_fig5_strategies(scale, &StrategyKind::ALL)
}

/// Run Figure 5 for a subset of strategies.
pub fn run_fig5_strategies(scale: Scale, strategies: &[StrategyKind]) -> Fig5Result {
    let p = Fig5Params::for_scale(scale);

    // Per-strategy migration-free baselines: the runtime increase must
    // isolate what the *migrations* cost (pvfs-shared pays its remote-I/O
    // tax with or without migrations).
    let baselines = parallel_map(strategies.to_vec(), |strategy| {
        let mut base = scenario(&p, strategy, 0);
        base.migrations.clear();
        let r = run_scenario(&base).expect("experiment scenario is valid");
        (
            strategy,
            r.all_finished_at()
                .map(|t| t.as_secs_f64())
                .unwrap_or(f64::NAN),
            r.migration_traffic as f64 / GIB as f64,
        )
    });

    let mut jobs = Vec::new();
    for &(strategy, base_runtime, _) in &baselines {
        for &n in &p.ns {
            jobs.push((strategy, n, base_runtime, scenario(&p, strategy, n)));
        }
    }
    let points = parallel_map(jobs, |(strategy, n, base_runtime, s)| {
        let r = run_scenario(&s).expect("experiment scenario is valid");
        let runtime = r.all_finished_at().map(|t| t.as_secs_f64());
        let all_ok = runtime.is_some()
            && r.migrations
                .iter()
                .all(|m| m.completed && m.consistent.unwrap_or(false));
        // `migration_traffic` already excludes CM1's halo exchanges —
        // the subtraction the paper applies for Fig 5b. PVFS I/O stays
        // in: paying it is the cost of the shared-storage approach, and
        // it is exactly the "huge gap" the paper shows.
        Fig5Point {
            strategy,
            n,
            cumulated_migration_time_s: r.total_migration_time(),
            migration_traffic_gb: r.migration_traffic as f64 / GIB as f64,
            runtime_increase_s: runtime.map(|t| t - base_runtime).unwrap_or(f64::NAN),
            all_ok,
        }
    });

    Fig5Result {
        points,
        baseline_runtime_s: baselines.iter().map(|&(_, t, _)| t).fold(f64::NAN, |a, b| {
            if a.is_nan() {
                b
            } else {
                a.min(b)
            }
        }),
    }
}

impl Fig5Result {
    /// Point lookup.
    pub fn point(&self, strategy: StrategyKind, n: u32) -> &Fig5Point {
        self.points
            .iter()
            .find(|pt| pt.strategy == strategy && pt.n == n)
            .expect("point present")
    }

    /// Panel (a) table.
    pub fn table_time(&self) -> Table {
        let mut t = Table::new(
            "Fig 5a: cumulated migration time (s) vs #successive migrations",
            &["strategy", "n", "cumulated time (s)"],
        );
        for pt in &self.points {
            t.row(vec![
                pt.strategy.label().to_string(),
                pt.n.to_string(),
                f(pt.cumulated_migration_time_s),
            ]);
        }
        t
    }

    /// Panel (b) table.
    pub fn table_traffic(&self) -> Table {
        let mut t = Table::new(
            "Fig 5b: migration network traffic (GB), CM1 halo traffic excluded",
            &["strategy", "n", "traffic (GB)"],
        );
        for pt in &self.points {
            t.row(vec![
                pt.strategy.label().to_string(),
                pt.n.to_string(),
                f(pt.migration_traffic_gb),
            ]);
        }
        t
    }

    /// Panel (c) table.
    pub fn table_slowdown(&self) -> Table {
        let mut t = Table::new(
            "Fig 5c: increase in app execution time (s) vs #successive migrations",
            &["strategy", "n", "runtime increase (s)"],
        );
        for pt in &self.points {
            t.row(vec![
                pt.strategy.label().to_string(),
                pt.n.to_string(),
                f(pt.runtime_increase_s),
            ]);
        }
        t
    }
}
