//! Orchestrated-scenario producers: node evacuation and adaptive /
//! cost-model strategy selection at fleet scale.
//!
//! Three shipped scenarios exercise the cluster orchestration layer end
//! to end (each checked in under `scenarios/` and byte-identity-tested
//! against these producers, like `scale64.toml`):
//!
//! * [`evacuate_spec`] — a node drain under a tight admission cap: an
//!   `[[requests]]` evacuation intent moves every guest off node 1,
//!   two at a time, with the adaptive planner placing each onto the
//!   least-loaded healthy node. Runs invariant-clean under
//!   `lsm run --check` (the admission-cap and placement laws audit it
//!   on every event).
//! * [`adaptive64_spec`] — 64 VMs of three I/O classes (hotspot
//!   writers, bursty checkpointers, idle compute) across 16 nodes, all
//!   migrated under the adaptive planner and a cap of 8: the planner
//!   reads each VM's windowed write rate at admission and picks the
//!   transfer scheme the paper's §4 rule prescribes — `Hybrid` for the
//!   writers, `Mirror` for the light checkpointers, `Precopy` for the
//!   idle class.
//! * [`cost64_spec`] — the identical fleet admitted by the predictive
//!   cost planner: every decision carries the per-scheme time/traffic
//!   estimates it argmin'd over, and the judge harness
//!   ([`crate::judge`]) scores it against `adaptive64`.

use crate::scenario::{MigrationSpec, RequestSpec, ScenarioSpec, VmSpec};
use lsm_core::config::ClusterConfig;
use lsm_core::planner::{OrchestratorConfig, PlannerKind, RequestIntent};
use lsm_core::policy::StrategyKind;
use lsm_simcore::time::SimDuration;
use lsm_simcore::units::MIB;
use lsm_workloads::{AsyncWrParams, WorkloadSpec};

/// A writer hot enough that the adaptive rule must pick `Hybrid` —
/// and long-lived enough (~120 simulated seconds) to still look hot
/// when a capped admission defers its migration.
fn hotspot(seed: u64) -> WorkloadSpec {
    WorkloadSpec::HotspotWrite {
        offset: 0,
        region_blocks: 64,
        block: 256 * 1024,
        count: 12000,
        theta: 0.8,
        think_secs: 0.01,
        seed,
    }
}

/// A steady sequential writer (evacuation payload).
fn writer() -> WorkloadSpec {
    WorkloadSpec::SeqWrite {
        offset: 0,
        total: 32 * MIB,
        block: MIB,
        think_secs: 0.05,
    }
}

/// The `scenarios/evacuate.toml` scenario: five guests, three stacked
/// on node 1; at t = 20 s an evacuation intent drains the node under a
/// `max_concurrent = 2` admission cap. The adaptive planner places
/// each migration onto the least-loaded healthy node, so the drained
/// guests spread instead of stampeding one target.
pub fn evacuate_spec() -> ScenarioSpec {
    let vms = vec![
        VmSpec::new(0, writer()),
        VmSpec::new(1, hotspot(7)),
        VmSpec::new(1, writer()),
        VmSpec::new(1, writer()),
        VmSpec::new(2, writer()),
    ];
    ScenarioSpec {
        name: Some("evacuate".to_string()),
        cluster: Some(ClusterConfig::small_test()),
        autonomic: None,
        resilience: None,
        qos: None,
        orchestrator: Some(OrchestratorConfig {
            max_concurrent: Some(2),
            planner: PlannerKind::Adaptive,
        }),
        strategy: StrategyKind::Hybrid,
        grouped: false,
        vms,
        migrations: vec![],
        requests: Some(vec![RequestSpec {
            at_secs: 20.0,
            intent: RequestIntent::Evacuate { node: 1 },
        }]),
        faults: None,
        cancellations: None,
        horizon_secs: 600.0,
    }
}

/// Shape of the adaptive fleet scenario; see [`AdaptiveParams::adaptive64`].
#[derive(Clone, Debug)]
pub struct AdaptiveParams {
    /// Cluster size.
    pub nodes: u32,
    /// VMs per node (placed round-robin, class rotating per VM).
    pub vms_per_node: u32,
    /// When the first migration is requested, seconds.
    pub migrate_start: f64,
    /// Gap between successive migration requests, seconds.
    pub stagger: f64,
    /// Run horizon, seconds.
    pub horizon: f64,
}

impl AdaptiveParams {
    /// The standing shape: 16 nodes, 64 VMs in three I/O classes, all
    /// 64 migrations under the adaptive planner and an admission cap of
    /// 8.
    pub fn adaptive64() -> Self {
        AdaptiveParams {
            nodes: 16,
            vms_per_node: 4,
            migrate_start: 20.0,
            stagger: 0.25,
            horizon: 400.0,
        }
    }

    /// Total VM count.
    pub fn vms(&self) -> u32 {
        self.nodes * self.vms_per_node
    }

    /// Build the scenario.
    pub fn spec(&self, name: &str) -> ScenarioSpec {
        // A small image keeps the per-VM chunk table (and the run's
        // wall time) test-sized at 64 guests; relative speeds stay the
        // paper's.
        let cluster = ClusterConfig {
            nodes: self.nodes,
            image_size: 256 * MIB,
            vm_ram: 512 * MIB,
            ..ClusterConfig::default()
        };
        let vms: Vec<VmSpec> = (0..self.vms())
            .map(|i| {
                let node = i % self.nodes;
                // Three I/O classes, rotating: hot writers (the
                // adaptive rule must give them Hybrid), bursty
                // checkpointers (light writes: Mirror), and idle
                // compute (Precopy).
                let workload = match i % 3 {
                    0 => hotspot(1000 + i as u64),
                    1 => WorkloadSpec::AsyncWr(AsyncWrParams {
                        iterations: 24,
                        data_per_iter: 8 * MIB,
                        compute_per_iter: SimDuration::from_secs_f64(5.0),
                        file_offset: 32 * MIB,
                    }),
                    _ => WorkloadSpec::Idle {
                        bursts: 120,
                        burst_secs: 1.0,
                    },
                };
                VmSpec {
                    node,
                    workload,
                    strategy: None,
                    start_secs: Some(0.25 * (i % 8) as f64),
                }
            })
            .collect();
        let migrations: Vec<MigrationSpec> = (0..self.vms())
            .map(|i| MigrationSpec {
                vm: i,
                dest: (i % self.nodes + self.nodes / 2) % self.nodes,
                at_secs: self.migrate_start + self.stagger * i as f64,
                deadline_secs: None,
            })
            .collect();
        ScenarioSpec {
            name: Some(name.to_string()),
            cluster: Some(cluster),
            autonomic: None,
            resilience: None,
            qos: None,
            orchestrator: Some(OrchestratorConfig {
                max_concurrent: Some(8),
                planner: PlannerKind::Adaptive,
            }),
            strategy: StrategyKind::Hybrid,
            grouped: false,
            vms,
            migrations,
            requests: None,
            faults: None,
            cancellations: None,
            horizon_secs: self.horizon,
        }
    }
}

/// The `scenarios/adaptive64.toml` scenario: 64 migrations of a
/// three-class fleet under the adaptive planner and an admission cap of
/// 8.
pub fn adaptive64_spec() -> ScenarioSpec {
    AdaptiveParams::adaptive64().spec("adaptive64")
}

/// The `scenarios/cost64.toml` scenario: the same 64-VM three-class
/// fleet as `adaptive64`, admitted by the predictive cost planner
/// ([`PlannerKind::Cost`]) instead of the threshold rule — the
/// per-scheme time/traffic estimates land on every decision, and the
/// judge harness ([`crate::judge`]) compares the two planners head to
/// head.
pub fn cost64_spec() -> ScenarioSpec {
    let mut spec = AdaptiveParams::adaptive64().spec("cost64");
    spec.orchestrator = Some(OrchestratorConfig {
        max_concurrent: Some(8),
        planner: PlannerKind::Cost,
    });
    spec
}

/// The `scenarios/qos64.toml` scenario: the `adaptive64` fleet shaped
/// by a `[qos]` section — a per-migration bandwidth cap below the NIC
/// share, four multifd streams, and compression trading wire bytes for
/// guest CPU. The cap stretches the makespan; compression and the cap
/// together lower the per-job SLA violation (`lsm judge` prints the
/// trade on the standing fleet).
pub fn qos64_spec() -> ScenarioSpec {
    let mut spec = AdaptiveParams::adaptive64().spec("qos64");
    spec.qos = Some(lsm_core::QosConfig {
        bandwidth_cap_mb: Some(60.0),
        streams: 4,
        compress_mem_ratio: 0.55,
        compress_storage_ratio: 0.7,
        compress_cpu_frac: 0.03,
    });
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_consistent() {
        let e = evacuate_spec();
        assert_eq!(e.vms.iter().filter(|v| v.node == 1).count(), 3);
        assert!(e.migrations.is_empty(), "evacuation is intent-driven");
        assert_eq!(e.request_plan().len(), 1);

        let a = adaptive64_spec();
        assert_eq!(a.vms.len(), 64);
        assert_eq!(a.migrations.len(), 64);
        assert_eq!(
            a.orchestrator.as_ref().unwrap().planner,
            PlannerKind::Adaptive
        );
        for m in &a.migrations {
            assert_ne!(a.vms[m.vm as usize].node, m.dest);
        }

        // cost64 is adaptive64 under the cost planner, nothing else.
        let c = cost64_spec();
        assert_eq!(c.orchestrator.as_ref().unwrap().planner, PlannerKind::Cost);
        assert_eq!(c.vms, a.vms);
        assert_eq!(c.migrations, a.migrations);
        // All four round-trip like any scenario.
        for spec in [evacuate_spec(), a, c, qos64_spec()] {
            let back = ScenarioSpec::from_toml(&spec.to_toml().expect("toml")).expect("parses");
            assert_eq!(back, spec);
        }
    }
}
