//! Autonomic-rebalancer scenarios: closed-loop runs where **no**
//! migration is scripted — `[[migrations]]` and `[[requests]]` are
//! empty, and every move is originated (or re-planned) by the monitor
//! in [`lsm_core::autonomic`] from observed node pressure alone.
//!
//! Two shipped scenarios (checked in under `scenarios/`, byte-identity
//! tested against these producers like the orchestration set):
//!
//! * [`hotspot_drill_spec`] — five guests stacked on node 0: two hot
//!   Zipf writers and three read-heavy mixers. The node classifies
//!   overloaded; the rebalancer relieves it one move per tick, the
//!   read-heavy guests first (their re-write flux is cold). The hot
//!   writers sit in a dirty-page phase the whole time, so each tick
//!   defers them with a typed `HotPhase` record (Baruchi-style cycle
//!   timing) — until the defer deadline forces the hottest one out
//!   anyway. Ends balanced: no node above the overload band.
//! * [`slow_drain_spec`] — an idle guest alone on node 1 while node 2
//!   hosts two steady writers. Node 1 classifies underloaded and the
//!   rebalancer drains it, consolidating the idle guest onto the
//!   *busiest* non-overloaded node — emptying node 1 instead of
//!   spreading further.
//!
//! Both run invariant-clean under `lsm run --check`, including the
//! rebalancer laws (thresholds held, no ping-pong, re-queues trace to
//! re-plans).

use crate::scenario::{ScenarioSpec, VmSpec};
use lsm_core::config::ClusterConfig;
use lsm_core::planner::{OrchestratorConfig, PlannerKind};
use lsm_core::policy::StrategyKind;
use lsm_core::AutonomicConfig;
use lsm_workloads::WorkloadSpec;

/// A dense Zipf overwriter: high busy fraction (ranks first among
/// relief candidates) and a re-write flux far above the hot-phase
/// threshold — the rebalancer must defer it, not move it.
fn hot_writer(seed: u64) -> WorkloadSpec {
    WorkloadSpec::HotspotWrite {
        offset: 0,
        region_blocks: 64,
        block: 256 * 1024,
        count: 12000,
        theta: 0.8,
        think_secs: 0.002,
        seed,
    }
}

/// A read-heavy mixer: meaningful busy fraction, negligible dirty
/// flux — the cheap thing to move off an overloaded node.
fn reader(seed: u64) -> WorkloadSpec {
    WorkloadSpec::HotspotMixed {
        offset: 0,
        region_blocks: 255,
        block: 256 * 1024,
        count: 12000,
        theta: 0.0,
        read_fraction: 0.97,
        think_secs: 0.01,
        seed,
    }
}

/// A steady moderate writer (ballast that keeps its node busiest
/// without tripping the overload band).
fn steady_writer(seed: u64) -> WorkloadSpec {
    WorkloadSpec::HotspotWrite {
        offset: 0,
        region_blocks: 64,
        block: 256 * 1024,
        count: 6000,
        theta: 0.8,
        think_secs: 0.02,
        seed,
    }
}

/// The `scenarios/hotspot_drill.toml` scenario: node 0 overloaded by
/// five stacked guests, zero scripted migrations. The monitor (2 s
/// period) originates one relief move per tick under an admission cap
/// of 2, placing with the adaptive planner; the hot-phase writers are
/// deferred with typed records until the 12 s defer deadline forces
/// the hottest out.
pub fn hotspot_drill_spec() -> ScenarioSpec {
    let vms = vec![
        VmSpec::new(0, hot_writer(11)),
        VmSpec::new(0, hot_writer(12)),
        VmSpec::new(0, reader(21)),
        VmSpec::new(0, reader(22)),
        VmSpec::new(0, reader(23)),
    ];
    ScenarioSpec {
        name: Some("hotspot_drill".to_string()),
        cluster: Some(ClusterConfig::small_test()),
        autonomic: Some(AutonomicConfig {
            interval_secs: 2.0,
            overload_pressure: 0.5,
            underload_pressure: 0.02,
            hysteresis: 0.1,
            defer_deadline_secs: 12.0,
            cooldown_secs: 60.0,
        }),
        orchestrator: Some(OrchestratorConfig {
            max_concurrent: Some(2),
            planner: PlannerKind::Adaptive,
        }),
        resilience: None,
        qos: None,
        strategy: StrategyKind::Hybrid,
        grouped: false,
        vms,
        migrations: vec![],
        requests: None,
        faults: None,
        cancellations: None,
        horizon_secs: 300.0,
    }
}

/// The `scenarios/slow_drain.toml` scenario: an idle guest alone on
/// node 1, two steady writers on node 2, zero scripted migrations.
/// Node 1 classifies underloaded on the first tick and the rebalancer
/// consolidates its guest onto the busiest healthy node — draining
/// node 1 empty. Runs under the default (fixed) planner: consolidation
/// picks its own destination.
pub fn slow_drain_spec() -> ScenarioSpec {
    let vms = vec![
        VmSpec::new(2, steady_writer(31)),
        VmSpec::new(2, steady_writer(32)),
        VmSpec::new(
            1,
            WorkloadSpec::Idle {
                bursts: 120,
                burst_secs: 1.0,
            },
        ),
    ];
    ScenarioSpec {
        name: Some("slow_drain".to_string()),
        cluster: Some(ClusterConfig::small_test()),
        autonomic: Some(AutonomicConfig {
            interval_secs: 2.0,
            overload_pressure: 0.5,
            underload_pressure: 0.05,
            hysteresis: 0.05,
            defer_deadline_secs: 12.0,
            cooldown_secs: 60.0,
        }),
        orchestrator: None,
        resilience: None,
        qos: None,
        strategy: StrategyKind::Hybrid,
        grouped: false,
        vms,
        migrations: vec![],
        requests: None,
        faults: None,
        cancellations: None,
        horizon_secs: 240.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_core::{DeferralReason, RebalanceTrigger};

    #[test]
    fn shapes_are_consistent() {
        for spec in [hotspot_drill_spec(), slow_drain_spec()] {
            assert!(spec.migrations.is_empty(), "nothing is scripted");
            assert!(spec.requests.is_none(), "nothing is scripted");
            assert!(spec.autonomic.is_some(), "the monitor drives the run");
            let back = ScenarioSpec::from_toml(&spec.to_toml().expect("toml")).expect("parses");
            assert_eq!(back, spec);
        }
    }

    /// The drill's closed loop, end to end: the overloaded node is
    /// relieved purely by rebalancer-originated moves, the hot-phase
    /// writers are observably deferred with typed records, and the
    /// defer deadline eventually forces a hot one out too.
    #[test]
    fn hotspot_drill_relieves_and_defers() {
        let spec = hotspot_drill_spec();
        let report = crate::scenario::run_scenario(&spec).expect("runs");
        // Every migration in the report was originated by the monitor.
        assert!(
            !report.migrations.is_empty(),
            "the rebalancer must originate moves"
        );
        for m in &report.migrations {
            assert!(m.completed, "vm {} move incomplete", m.vm);
        }
        let overloads: Vec<_> = report
            .rebalance
            .iter()
            .filter(|a| matches!(a.trigger, RebalanceTrigger::Overload { node: 0, .. }))
            .collect();
        assert!(!overloads.is_empty(), "node 0 must classify overloaded");
        // The hot writers (vms 0 and 1) are deferred as hot-phase...
        let deferred_hot = |vm: u32| {
            overloads.iter().any(|a| {
                a.deferrals
                    .iter()
                    .any(|d| d.vm == vm && matches!(d.reason, DeferralReason::HotPhase { .. }))
            })
        };
        assert!(deferred_hot(0) && deferred_hot(1), "{overloads:?}");
        // ...while the cold readers move first...
        let first_moved = overloads
            .iter()
            .find_map(|a| a.chosen)
            .expect("some relief move");
        assert!(
            first_moved >= 2,
            "a reader moves first, got vm {first_moved}"
        );
        // ...and the defer deadline eventually forces a hot writer out.
        let hot_moved_at = report
            .rebalance
            .iter()
            .find(|a| a.chosen.is_some_and(|v| v < 2))
            .expect("a hot writer is eventually moved");
        let hot_deferred_at = report
            .rebalance
            .iter()
            .find(|a| {
                a.deferrals
                    .iter()
                    .any(|d| matches!(d.reason, DeferralReason::HotPhase { .. }))
            })
            .expect("checked above");
        assert!(
            hot_deferred_at.at < hot_moved_at.at,
            "deferral must precede the forced move"
        );
    }

    /// The drain: node 1's lone idle guest is consolidated onto the
    /// busiest node by an underload-triggered move.
    #[test]
    fn slow_drain_consolidates_the_idle_guest() {
        let spec = slow_drain_spec();
        let report = crate::scenario::run_scenario(&spec).expect("runs");
        let drain = report
            .rebalance
            .iter()
            .find(|a| matches!(a.trigger, RebalanceTrigger::Underload { node: 1, .. }))
            .expect("node 1 must classify underloaded");
        assert_eq!(drain.chosen, Some(2), "the idle guest is the candidate");
        assert_eq!(drain.dest, Some(2), "consolidated onto the busiest node");
        let m = report
            .migrations
            .iter()
            .find(|m| m.vm == 2)
            .expect("originated move recorded");
        assert!(m.completed);
    }
}
