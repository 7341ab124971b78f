//! Paper-scale stress scenarios for the performance harness.
//!
//! The paper's headline claims come from cluster-scale runs — dozens of
//! nodes and many concurrent migrations of I/O-intensive guests (§5.4,
//! §5.5). [`scale64_spec`] is the repo's standing benchmark of that
//! regime: 64 nodes, 128 VMs (two per node) running CM1-style
//! checkpoint I/O (a compute burst followed by a bursty asynchronous
//! dump, the AsyncWR shape the paper derives from CM1's output steps —
//! without the global halo barrier, so the 128 staggered migrations
//! stay independent and the scenario measures the *simulator*, not one
//! barrier domain).
//!
//! The full shapes are checked in as `scenarios/scale64.toml` and
//! `scenarios/scale1024.toml`; tests assert each file equals its
//! generator's serialization, so the two cannot drift apart. `cargo
//! test` pins their reports, and those of the quick variants, by
//! fingerprint (`GOLDEN` in `lsm/tests/determinism.rs`); `lsmbench`
//! times them.

use crate::scenario::{MigrationSpec, ScenarioSpec, VmSpec};
use lsm_core::config::ClusterConfig;
use lsm_core::policy::StrategyKind;
use lsm_simcore::units::MIB;
use lsm_workloads::{AsyncWrParams, WorkloadSpec};

/// Shape of a stress scenario; see [`StressParams::scale64`].
#[derive(Clone, Debug)]
pub struct StressParams {
    /// Cluster size.
    pub nodes: u32,
    /// VMs per node (placed round-robin).
    pub vms_per_node: u32,
    /// Checkpoint iterations each VM runs.
    pub iterations: u32,
    /// When the first migration is requested, seconds.
    pub migrate_start: f64,
    /// Gap between successive migration requests, seconds.
    pub stagger: f64,
    /// Run horizon, seconds.
    pub horizon: f64,
}

impl StressParams {
    /// The standing paper-scale shape: 64 nodes, 128 VMs, every VM
    /// live-migrated half-way across the cluster on a staggered clock.
    pub fn scale64() -> Self {
        StressParams {
            nodes: 64,
            vms_per_node: 2,
            iterations: 60,
            migrate_start: 30.0,
            stagger: 1.0,
            horizon: 400.0,
        }
    }

    /// A shrunken shape for quick test runs: same structure,
    /// minutes→seconds.
    pub fn quick() -> Self {
        StressParams {
            nodes: 16,
            vms_per_node: 2,
            iterations: 12,
            migrate_start: 10.0,
            stagger: 1.5,
            horizon: 240.0,
        }
    }

    /// The 1024-node fleet behind `scenarios/scale1024.toml`: 1024
    /// nodes, 2048 VMs, every VM exchanged with its pair partner node
    /// (`dest = node ^ 1`). Built by [`StressParams::pair_spec`], whose
    /// shape the sharded parallel engine (`lsm run --threads N`) can
    /// prove apart into 512 independent two-node components.
    pub fn scale1024() -> Self {
        StressParams {
            nodes: 1024,
            vms_per_node: 2,
            iterations: 60,
            migrate_start: 30.0,
            // Dyadic (7/64) so every request time is exact and globally
            // distinct — no two migrations anywhere in the fleet share
            // a timestamp, which keeps the sharded run's event count
            // identical to the monolithic engine's (equal-time wakes in
            // different components would coalesce into one event there).
            stagger: 7.0 / 64.0,
            horizon: 400.0,
        }
    }

    /// The quick `scale1024` reduction: same pair-partner
    /// structure over 64 nodes / 128 VMs (32 independent components).
    pub fn scale1024_quick() -> Self {
        StressParams {
            nodes: 64,
            vms_per_node: 2,
            iterations: 10,
            migrate_start: 5.0,
            stagger: 7.0 / 64.0,
            horizon: 150.0,
        }
    }

    /// Total VM count.
    pub fn vms(&self) -> u32 {
        self.nodes * self.vms_per_node
    }

    /// Build the scenario.
    pub fn spec(&self, name: &str) -> ScenarioSpec {
        let vms: Vec<VmSpec> = (0..self.vms())
            .map(|i| {
                let node = i % self.nodes;
                // Per-VM file offsets keep the two co-located guests'
                // virtual disks identical in shape; the staggered start
                // de-synchronizes their checkpoint clocks.
                VmSpec {
                    node,
                    workload: WorkloadSpec::AsyncWr(AsyncWrParams {
                        iterations: self.iterations,
                        data_per_iter: 10 * MIB,
                        compute_per_iter: lsm_simcore::time::SimDuration::from_secs_f64(10.0 / 6.0),
                        file_offset: 512 * MIB,
                    }),
                    strategy: None,
                    start_secs: Some(0.25 * (i % 8) as f64),
                }
            })
            .collect();
        // Every VM migrates half-way across the cluster, one request
        // every `stagger` seconds — a rolling-evacuation pattern that
        // keeps many migrations concurrently in flight.
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
            cluster: Some(ClusterConfig::graphene(self.nodes)),
            orchestrator: None,
            autonomic: None,
            resilience: None,
            qos: None,
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

impl StressParams {
    /// Build the pair-partner variant: VM `i` lives on node `i % nodes`
    /// and migrates to that node's pair partner (`node ^ 1`), so the
    /// migration graph decomposes into `nodes / 2` independent two-node
    /// components — the shape the sharded parallel engine scales on.
    ///
    /// Every VM start (`i / 128` s) and every migration request
    /// (`migrate_start + stagger·i`) is a distinct dyadic timestamp, so
    /// no two events anywhere in the fleet coincide: the monolithic and
    /// sharded runs then process byte-identical event streams (see
    /// `lsm_experiments::shard`). The switch aggregate is pinned to
    /// exactly `2 × nodes × nic_bw` — the decoupling threshold under
    /// which components provably never contend.
    pub fn pair_spec(&self, name: &str) -> ScenarioSpec {
        assert!(
            self.nodes.is_multiple_of(2),
            "pair_spec needs an even node count"
        );
        let vms: Vec<VmSpec> = (0..self.vms())
            .map(|i| VmSpec {
                node: i % self.nodes,
                workload: WorkloadSpec::AsyncWr(AsyncWrParams {
                    iterations: self.iterations,
                    data_per_iter: 10 * MIB,
                    compute_per_iter: lsm_simcore::time::SimDuration::from_secs_f64(10.0 / 6.0),
                    file_offset: 512 * MIB,
                }),
                strategy: None,
                start_secs: Some(i as f64 / 128.0),
            })
            .collect();
        let migrations: Vec<MigrationSpec> = (0..self.vms())
            .map(|i| MigrationSpec {
                vm: i,
                dest: (i % self.nodes) ^ 1,
                at_secs: self.migrate_start + self.stagger * i as f64,
                deadline_secs: None,
            })
            .collect();
        let mut cluster = ClusterConfig::graphene(self.nodes);
        cluster.switch_bw = 2.0 * self.nodes as f64 * cluster.nic_bw;
        ScenarioSpec {
            name: Some(name.to_string()),
            cluster: Some(cluster),
            orchestrator: None,
            autonomic: None,
            resilience: None,
            qos: None,
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

/// The `scenarios/scale64.toml` scenario: 64 nodes, 128 VMs, 128
/// staggered hybrid migrations under CM1-style checkpoint I/O.
pub fn scale64_spec() -> ScenarioSpec {
    StressParams::scale64().spec("scale64")
}

/// The `scenarios/scale1024.toml` scenario: 1024 nodes, 2048 VMs, 2048
/// staggered pair-partner migrations — the sharded engine's headline
/// fleet (512 independent components).
pub fn scale1024_spec() -> ScenarioSpec {
    StressParams::scale1024().pair_spec("scale1024")
}

/// The quick `scale1024` variant (64 nodes, 128 VMs).
pub fn scale1024_quick_spec() -> ScenarioSpec {
    StressParams::scale1024_quick().pair_spec("scale1024-quick")
}

/// The quick `scale64` variant (16 nodes, 32 VMs).
pub fn scale64_quick_spec() -> ScenarioSpec {
    StressParams::quick().spec("scale64-quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale64_shape() {
        let spec = scale64_spec();
        assert_eq!(spec.cluster_config().nodes, 64);
        assert_eq!(spec.vms.len(), 128);
        assert_eq!(spec.migrations.len(), 128);
        // Every migration is to a different node than the VM's home.
        for m in &spec.migrations {
            assert_ne!(spec.vms[m.vm as usize].node, m.dest);
        }
        // Serializes and round-trips like any scenario.
        let back = ScenarioSpec::from_toml(&spec.to_toml().expect("toml")).expect("parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn scale1024_shape() {
        let spec = scale1024_spec();
        assert_eq!(spec.cluster_config().nodes, 1024);
        assert_eq!(spec.vms.len(), 2048);
        assert_eq!(spec.migrations.len(), 2048);
        for m in &spec.migrations {
            assert_eq!(spec.vms[m.vm as usize].node ^ 1, m.dest);
        }
        // No two events anywhere in the fleet share a timestamp.
        let mut times: Vec<u64> = spec
            .vms
            .iter()
            .map(|v| v.start_secs.unwrap().to_bits())
            .chain(spec.migrations.iter().map(|m| m.at_secs.to_bits()))
            .collect();
        times.sort_unstable();
        times.dedup();
        assert_eq!(times.len(), 2048 + 2048, "duplicate timestamps");
        // The sharded engine can prove the fleet apart into 512 pairs.
        let subs = crate::shard::partition(&spec).expect("shardable");
        assert_eq!(subs.len(), 512);
        for sub in &subs {
            assert_eq!(sub.nodes.len(), 2);
            assert_eq!(sub.vms.len(), 4);
            assert_eq!(sub.jobs.len(), 4);
        }
        let back = ScenarioSpec::from_toml(&spec.to_toml().expect("toml")).expect("parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn scale1024_quick_sharded_matches_monolithic() {
        let spec = scale1024_quick_spec();
        assert_eq!(crate::shard::partition(&spec).expect("shardable").len(), 32);
        let mono = crate::scenario::run_scenario(&spec).expect("runs");
        for m in &mono.migrations {
            assert!(m.completed, "vm {} migration incomplete", m.vm);
            assert_eq!(m.consistent, Some(true), "vm {} diverged", m.vm);
        }
        let sharded =
            crate::scenario::run_scenario_with(&spec, 4, lsm_netsim::SolverMode::default(), || {
                lsm_core::engine::NullObserver
            })
            .expect("runs")
            .report;
        let a = serde_json::to_string_pretty(&mono).expect("serializes");
        let b = serde_json::to_string_pretty(&sharded).expect("serializes");
        if a != b {
            let diff = a
                .lines()
                .zip(b.lines())
                .enumerate()
                .find(|(_, (x, y))| x != y);
            panic!("sharded run diverges from monolithic at {diff:?}");
        }
    }

    #[test]
    fn quick_variant_completes_all_migrations() {
        let spec = scale64_quick_spec();
        let r = crate::scenario::run_scenario(&spec).expect("runs");
        assert_eq!(r.migrations.len(), 32);
        for m in &r.migrations {
            assert!(m.completed, "vm {} migration incomplete", m.vm);
            assert_eq!(m.consistent, Some(true), "vm {} diverged", m.vm);
        }
    }
}
