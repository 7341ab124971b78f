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
use lsm_core::engine::RunReport;
use lsm_core::planner::{OrchestratorConfig, PlannerKind};
use lsm_core::policy::StrategyKind;
use lsm_core::EngineError;

/// What every judge row reports about one run.
#[derive(Clone, Debug)]
pub struct RunSummary {
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
}

/// The headers of the columns [`RunSummary::cells`] fills.
const SUMMARY_COLUMNS: [&str; 5] = [
    "completed",
    "makespan [s]",
    "migration traffic [MB]",
    "downtime [s]",
    "SLA violation [s]",
];

impl RunSummary {
    /// Summarize one run.
    pub fn of(report: &RunReport) -> Self {
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
        RunSummary {
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
        }
    }

    /// The summary's table cells, in [`SUMMARY_COLUMNS`] order.
    fn cells(&self) -> [String; 5] {
        [
            format!("{}/{}", self.completed, self.migrations),
            format!("{:.2}", self.makespan_secs),
            format!("{:.1}", self.migration_traffic as f64 / 1.0e6),
            format!("{:.2}", self.total_downtime_secs),
            format!("{:.2}", self.sla_violation_secs),
        ]
    }
}

/// A judge table: the `lead` columns, the summary columns, then `tail`.
fn summary_table(title: &str, lead: &[&str], tail: &[&str]) -> Table {
    Table::new(title, &[lead, &SUMMARY_COLUMNS, tail].concat())
}

/// One table row: the `lead` cells, `run`'s summary cells, then `tail`.
fn summary_row(lead: &[String], run: &RunSummary, tail: &[String]) -> Vec<String> {
    [lead, &run.cells(), tail].concat()
}

/// One planner's outcome on the judged fleet.
#[derive(Clone, Debug)]
pub struct PlannerOutcome {
    /// The planner that made the decisions.
    pub planner: PlannerKind,
    /// The run's summary.
    pub run: RunSummary,
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
    let strategy_mix = StrategyKind::ALL
        .iter()
        .map(|&k| (k, report.planner.iter().filter(|d| d.strategy == k).count()))
        .collect();
    Ok(PlannerOutcome {
        planner,
        run: RunSummary::of(&report),
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
    /// The run's summary.
    pub run: RunSummary,
}

/// Run `spec` as checked in and summarize it for the shaping trade.
pub fn run_shaped(label: &'static str, spec: &ScenarioSpec) -> Result<ShapedOutcome, EngineError> {
    Ok(ShapedOutcome {
        label,
        run: RunSummary::of(&run_scenario(spec)?),
    })
}

/// The qos64 acceptance comparison: the `adaptive64` fleet unshaped
/// against the identical fleet under `qos64`'s `[qos]` section. The
/// capped, compressed run must stretch the makespan and *lower* the
/// aggregate SLA violation.
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
    /// The run's summary.
    pub run: RunSummary,
}

/// `lsm judge --sweep`: the makespan-vs-SLA frontier of qos64's two
/// shaping knobs — a grid of per-migration bandwidth caps against
/// compression on/off, every point the same fleet (`adaptive64`'s, or
/// its quick reduction) at qos64's four memory streams. Walking the cap
/// column down trades completion makespan for SLA-violation seconds;
/// the compression column buys wire bytes back for guest CPU.
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
            points.push(QosSweepPoint {
                cap_mb,
                compressed,
                run: RunSummary::of(&run_scenario(&spec)?),
            });
        }
    }
    Ok(points)
}

/// Render the QoS sweep as a frontier table (`lsm judge --sweep`).
pub fn sweep_table(points: &[QosSweepPoint]) -> Table {
    let mut t = summary_table(
        "qos sweep — makespan vs SLA frontier (cap x compression, 4 streams)",
        &["cap [MB/s]", "compression"],
        &[],
    );
    for p in points {
        let cap = p
            .cap_mb
            .map(|c| format!("{c:.0}"))
            .unwrap_or_else(|| "uncapped".to_string());
        let compression = if p.compressed { "on" } else { "off" }.to_string();
        t.row(summary_row(&[cap, compression], &p.run, &[]));
    }
    t
}

/// Render the shaping trade as a table (`lsm judge`'s second table).
pub fn shaping_table(outcomes: &[ShapedOutcome]) -> Table {
    let mut t = summary_table(
        "qos shaping trade — makespan vs SLA violation (adaptive64 fleet)",
        &["run"],
        &[],
    );
    for o in outcomes {
        t.row(summary_row(&[o.label.to_string()], &o.run, &[]));
    }
    t
}

/// Render the comparison as a table (`lsm judge`).
pub fn table(outcomes: &[PlannerOutcome]) -> Table {
    let mut t = summary_table(
        "planner judge — completion makespan + bytes moved",
        &["planner"],
        &["strategy mix"],
    );
    for o in outcomes {
        let mix = o
            .strategy_mix
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(k, n)| format!("{} x{}", k.label(), n))
            .collect::<Vec<_>>()
            .join(", ");
        t.row(summary_row(
            &[o.planner.label().to_string()],
            &o.run,
            &[mix],
        ));
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
            let r = &o.run;
            assert_eq!(r.completed, r.migrations, "{:?} left work", o.planner);
            assert!(r.makespan_secs.is_finite() && r.makespan_secs > 0.0);
            assert!(r.migration_traffic > 0);
            assert!(
                r.sla_violation_secs.is_finite() && r.sla_violation_secs >= 0.0,
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
            let r = &p.run;
            assert_eq!(r.completed, r.migrations, "cap {:?} left work", p.cap_mb);
            assert!(r.makespan_secs.is_finite() && r.makespan_secs > 0.0);
            assert!(r.sla_violation_secs.is_finite());
        }
        let uncapped = points
            .iter()
            .find(|p| p.cap_mb.is_none() && !p.compressed)
            .unwrap();
        let hardest = points
            .iter()
            .find(|p| p.cap_mb == Some(30.0) && !p.compressed)
            .unwrap();
        assert!(hardest.run.makespan_secs > uncapped.run.makespan_secs);
        let rendered = sweep_table(&points).render();
        assert!(rendered.contains("uncapped") && rendered.contains("30"));
    }
}
