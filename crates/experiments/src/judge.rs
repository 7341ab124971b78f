//! Planner judge harness: the same fleet scenario run under two
//! planners, scored on completion makespan and bytes moved.
//!
//! The ROADMAP's acceptance question for the predictive cost planner
//! ([`PlannerKind::Cost`]) is concrete: on the `adaptive64` fleet, does
//! picking the per-VM argmin of the analytic cost model beat (or at
//! least match) the threshold-rule adaptive planner
//! ([`PlannerKind::Adaptive`])? This module
//! runs exactly that comparison — one run per planner, identical VMs,
//! migrations, cap and horizon — and reports, per planner, the
//! completion makespan (latest source-relinquish instant over all
//! migrations) and the migration-attributable traffic. `lsm judge`
//! prints it; `experiments/tests/cost_judge.rs` asserts the
//! beat-or-match acceptance criterion.

use crate::orchestration::AdaptiveParams;
use crate::scenario::{run_scenario, ScenarioSpec};
use crate::table::Table;
use lsm_core::planner::{OrchestratorConfig, PlannerKind};
use lsm_core::policy::StrategyKind;
use lsm_core::EngineError;

/// One planner's outcome on the judged fleet.
#[derive(Clone, Debug)]
pub struct PlannerOutcome {
    /// The planner that made the decisions.
    pub planner: PlannerKind,
    /// Migrations that completed within the horizon.
    pub completed: usize,
    /// Scheduled migrations.
    pub migrations: usize,
    /// Latest source-relinquish instant over all completed migrations,
    /// seconds — the fleet's completion makespan. `NaN` when any
    /// migration failed to complete.
    pub makespan_secs: f64,
    /// Migration-attributable bytes on the wire.
    pub migration_traffic: u64,
    /// Guest downtime summed over all migrations, seconds.
    pub total_downtime_secs: f64,
    /// SLA-violation seconds aggregated over all jobs: downtime plus
    /// degraded-throughput time (`RunReport.sla`).
    pub sla_violation_secs: f64,
    /// Decisions per chosen strategy, in [`StrategyKind::ALL`] order
    /// (zero-count strategies included).
    pub strategy_mix: Vec<(StrategyKind, usize)>,
}

/// Run `base` under `planner` (replacing only the planner selection in
/// the `[orchestrator]` section) and summarize the outcome.
pub fn run_with_planner(
    base: &ScenarioSpec,
    planner: PlannerKind,
) -> Result<PlannerOutcome, EngineError> {
    let mut spec = base.clone();
    let orch = spec.orchestrator.take().unwrap_or_default();
    spec.orchestrator = Some(OrchestratorConfig { planner, ..orch });
    spec.name = Some(format!(
        "{}-{}",
        spec.name.as_deref().unwrap_or("judge"),
        planner.label()
    ));
    let report = run_scenario(&spec)?;
    let completed = report.migrations.iter().filter(|m| m.completed).count();
    let makespan_secs = if completed == report.migrations.len() {
        report
            .migrations
            .iter()
            .filter_map(|m| m.completed_at.map(|t| t.as_secs_f64()))
            .fold(0.0, f64::max)
    } else {
        f64::NAN
    };
    let strategy_mix = StrategyKind::ALL
        .iter()
        .map(|&k| (k, report.planner.iter().filter(|d| d.strategy == k).count()))
        .collect();
    Ok(PlannerOutcome {
        planner,
        completed,
        migrations: report.migrations.len(),
        makespan_secs,
        migration_traffic: report.migration_traffic,
        total_downtime_secs: report
            .migrations
            .iter()
            .map(|m| m.downtime.as_secs_f64())
            .sum(),
        sla_violation_secs: report.sla.total_violation_secs,
        strategy_mix,
    })
}

/// Judge `adaptive` against `cost` on one fleet shape.
pub fn judge(params: &AdaptiveParams) -> Result<Vec<PlannerOutcome>, EngineError> {
    let base = params.spec("judge");
    Ok(vec![
        run_with_planner(&base, PlannerKind::Adaptive)?,
        run_with_planner(&base, PlannerKind::Cost)?,
    ])
}

/// The standing comparison: `adaptive64`'s fleet under both planners.
pub fn judge_adaptive64() -> Result<Vec<PlannerOutcome>, EngineError> {
    judge(&AdaptiveParams::adaptive64())
}

/// The quick fleet shape (16 VMs on 8 nodes) behind `--quick` judge
/// runs and the quick QoS sweep.
fn quick_params() -> AdaptiveParams {
    AdaptiveParams {
        nodes: 8,
        vms_per_node: 2,
        migrate_start: 12.0,
        stagger: 0.5,
        horizon: 300.0,
    }
}

/// A minutes→seconds reduction of the same comparison (16 VMs on 8
/// nodes) for CI and `lsm judge --quick`.
pub fn judge_quick() -> Result<Vec<PlannerOutcome>, EngineError> {
    judge(&quick_params())
}

/// One run's outcome in the QoS shaping trade: the same fleet run
/// unshaped and under a `[qos]` section, scored on the fast-but-
/// disruptive vs slow-but-smooth axis (makespan against SLA-violation
/// seconds).
#[derive(Clone, Debug)]
pub struct ShapedOutcome {
    /// Row label: `unshaped` or `qos-shaped`.
    pub label: &'static str,
    /// Migrations that completed within the horizon.
    pub completed: usize,
    /// Scheduled migrations.
    pub migrations: usize,
    /// Completion makespan, seconds (`NaN` when incomplete).
    pub makespan_secs: f64,
    /// Migration-attributable bytes on the wire.
    pub migration_traffic: u64,
    /// Guest downtime summed over all migrations, seconds.
    pub total_downtime_secs: f64,
    /// SLA-violation seconds aggregated over all jobs.
    pub sla_violation_secs: f64,
}

/// Run `spec` as checked in and summarize it for the shaping trade.
pub fn run_shaped(label: &'static str, spec: &ScenarioSpec) -> Result<ShapedOutcome, EngineError> {
    let report = run_scenario(spec)?;
    let completed = report.migrations.iter().filter(|m| m.completed).count();
    let makespan_secs = if completed == report.migrations.len() {
        report
            .migrations
            .iter()
            .filter_map(|m| m.completed_at.map(|t| t.as_secs_f64()))
            .fold(0.0, f64::max)
    } else {
        f64::NAN
    };
    Ok(ShapedOutcome {
        label,
        completed,
        migrations: report.migrations.len(),
        makespan_secs,
        migration_traffic: report.migration_traffic,
        total_downtime_secs: report
            .migrations
            .iter()
            .map(|m| m.downtime.as_secs_f64())
            .sum(),
        sla_violation_secs: report.sla.total_violation_secs,
    })
}

/// The qos64 acceptance comparison: the `adaptive64` fleet unshaped
/// against the identical fleet under `qos64`'s `[qos]` section. The
/// capped, compressed run must stretch the makespan and *lower* the
/// aggregate SLA violation — the trade `cost_sla_weight` lets the cost
/// planner optimize.
pub fn judge_shaping() -> Result<Vec<ShapedOutcome>, EngineError> {
    Ok(vec![
        run_shaped("unshaped", &crate::orchestration::adaptive64_spec())?,
        run_shaped("qos-shaped", &crate::orchestration::qos64_spec())?,
    ])
}

/// One point on the QoS shaping frontier: a (bandwidth cap,
/// compression) combination over the qos64 fleet.
#[derive(Clone, Debug)]
pub struct QosSweepPoint {
    /// Per-migration bandwidth cap, MB/s (`None` = uncapped).
    pub cap_mb: Option<f64>,
    /// Whether qos64's compression model was on for this point.
    pub compressed: bool,
    /// Migrations that completed within the horizon.
    pub completed: usize,
    /// Scheduled migrations.
    pub migrations: usize,
    /// Completion makespan, seconds (`NaN` when incomplete).
    pub makespan_secs: f64,
    /// Migration-attributable bytes on the wire.
    pub migration_traffic: u64,
    /// Guest downtime summed over all migrations, seconds.
    pub total_downtime_secs: f64,
    /// SLA-violation seconds aggregated over all jobs.
    pub sla_violation_secs: f64,
}

/// `lsm judge --sweep`: the makespan-vs-SLA frontier of qos64's two
/// shaping knobs — a grid of per-migration bandwidth caps against
/// compression on/off, every point the same fleet (`adaptive64`'s, or
/// its quick reduction) at qos64's four memory streams. Walking the cap
/// column down trades completion makespan for SLA-violation seconds;
/// the compression column buys wire bytes back for guest CPU. The
/// frontier is what `cost_sla_weight` lets the cost planner pick from.
pub fn judge_qos_sweep(scale: crate::Scale) -> Result<Vec<QosSweepPoint>, EngineError> {
    let base = match scale {
        crate::Scale::Paper => AdaptiveParams::adaptive64().spec("qos-sweep"),
        crate::Scale::Quick => quick_params().spec("qos-sweep-quick"),
    };
    let mut points = Vec::new();
    for cap_mb in [None, Some(90.0), Some(60.0), Some(30.0)] {
        for compressed in [false, true] {
            let mut spec = base.clone();
            spec.qos = Some(lsm_core::QosConfig {
                bandwidth_cap_mb: cap_mb,
                streams: 4,
                compress_mem_ratio: if compressed { 0.55 } else { 1.0 },
                compress_storage_ratio: if compressed { 0.7 } else { 1.0 },
                compress_cpu_frac: if compressed { 0.03 } else { 0.0 },
            });
            let report = run_scenario(&spec)?;
            let completed = report.migrations.iter().filter(|m| m.completed).count();
            let makespan_secs = if completed == report.migrations.len() {
                report
                    .migrations
                    .iter()
                    .filter_map(|m| m.completed_at.map(|t| t.as_secs_f64()))
                    .fold(0.0, f64::max)
            } else {
                f64::NAN
            };
            points.push(QosSweepPoint {
                cap_mb,
                compressed,
                completed,
                migrations: report.migrations.len(),
                makespan_secs,
                migration_traffic: report.migration_traffic,
                total_downtime_secs: report
                    .migrations
                    .iter()
                    .map(|m| m.downtime.as_secs_f64())
                    .sum(),
                sla_violation_secs: report.sla.total_violation_secs,
            });
        }
    }
    Ok(points)
}

/// Render the QoS sweep as a frontier table (`lsm judge --sweep`).
pub fn sweep_table(points: &[QosSweepPoint]) -> Table {
    let mut t = Table::new(
        "qos sweep — makespan vs SLA frontier (cap x compression, 4 streams)",
        &[
            "cap [MB/s]",
            "compression",
            "completed",
            "makespan [s]",
            "migration traffic [MB]",
            "downtime [s]",
            "SLA violation [s]",
        ],
    );
    for p in points {
        t.row(vec![
            p.cap_mb
                .map(|c| format!("{c:.0}"))
                .unwrap_or_else(|| "uncapped".to_string()),
            if p.compressed { "on" } else { "off" }.to_string(),
            format!("{}/{}", p.completed, p.migrations),
            format!("{:.2}", p.makespan_secs),
            format!("{:.1}", p.migration_traffic as f64 / 1.0e6),
            format!("{:.2}", p.total_downtime_secs),
            format!("{:.2}", p.sla_violation_secs),
        ]);
    }
    t
}

/// Render the shaping trade as a table (`lsm judge`'s second table).
pub fn shaping_table(outcomes: &[ShapedOutcome]) -> Table {
    let mut t = Table::new(
        "qos shaping trade — makespan vs SLA violation (adaptive64 fleet)",
        &[
            "run",
            "completed",
            "makespan [s]",
            "migration traffic [MB]",
            "downtime [s]",
            "SLA violation [s]",
        ],
    );
    for o in outcomes {
        t.row(vec![
            o.label.to_string(),
            format!("{}/{}", o.completed, o.migrations),
            format!("{:.2}", o.makespan_secs),
            format!("{:.1}", o.migration_traffic as f64 / 1.0e6),
            format!("{:.2}", o.total_downtime_secs),
            format!("{:.2}", o.sla_violation_secs),
        ]);
    }
    t
}

/// Render the comparison as a table (`lsm judge`).
pub fn table(outcomes: &[PlannerOutcome]) -> Table {
    let mut t = Table::new(
        "planner judge — completion makespan + bytes moved",
        &[
            "planner",
            "completed",
            "makespan [s]",
            "migration traffic [MB]",
            "downtime [s]",
            "SLA violation [s]",
            "strategy mix",
        ],
    );
    for o in outcomes {
        let mix = o
            .strategy_mix
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(k, n)| format!("{} x{}", k.label(), n))
            .collect::<Vec<_>>()
            .join(", ");
        t.row(vec![
            o.planner.label().to_string(),
            format!("{}/{}", o.completed, o.migrations),
            format!("{:.2}", o.makespan_secs),
            format!("{:.1}", o.migration_traffic as f64 / 1.0e6),
            format!("{:.2}", o.total_downtime_secs),
            format!("{:.2}", o.sla_violation_secs),
            mix,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick judge shape runs both planners to full completion and
    /// reports comparable, finite numbers.
    #[test]
    fn quick_judge_completes_under_both_planners() {
        let outcomes = judge_quick().expect("judge runs");
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].planner, PlannerKind::Adaptive);
        assert_eq!(outcomes[1].planner, PlannerKind::Cost);
        for o in &outcomes {
            assert_eq!(o.completed, o.migrations, "{:?} left work", o.planner);
            assert!(o.makespan_secs.is_finite() && o.makespan_secs > 0.0);
            assert!(o.migration_traffic > 0);
            assert!(
                o.sla_violation_secs.is_finite() && o.sla_violation_secs >= 0.0,
                "SLA accounting must always be populated"
            );
        }
        let rendered = table(&outcomes).render();
        assert!(rendered.contains("adaptive") && rendered.contains("cost"));
    }

    /// The quick QoS sweep covers the full grid, completes everywhere,
    /// and shows the frontier's direction: the hardest cap stretches
    /// the makespan relative to the uncapped run.
    #[test]
    fn quick_qos_sweep_covers_grid() {
        let points = judge_qos_sweep(crate::Scale::Quick).expect("sweep runs");
        assert_eq!(points.len(), 8);
        for p in &points {
            assert_eq!(p.completed, p.migrations, "cap {:?} left work", p.cap_mb);
            assert!(p.makespan_secs.is_finite() && p.makespan_secs > 0.0);
            assert!(p.sla_violation_secs.is_finite());
        }
        let uncapped = points
            .iter()
            .find(|p| p.cap_mb.is_none() && !p.compressed)
            .unwrap();
        let hardest = points
            .iter()
            .find(|p| p.cap_mb == Some(30.0) && !p.compressed)
            .unwrap();
        assert!(hardest.makespan_secs > uncapped.makespan_secs);
        let rendered = sweep_table(&points).render();
        assert!(rendered.contains("uncapped") && rendered.contains("30"));
    }
}
