//! Scenario partitioning for the sharded parallel engine.
//!
//! [`partition`] proves a [`ScenarioSpec`] decomposes into independent
//! node components — connected components of the migration graph whose
//! traffic provably never leaves the component — and emits one
//! sub-scenario per component, each a complete, self-contained spec
//! over the component's nodes re-indexed densely in ascending global
//! order. [`run_scenario_with`](crate::scenario::run_scenario_with)
//! builds one engine per component and hands them to
//! [`lsm_core::parallel::run_sharded_observed`]; anything the
//! partitioner cannot prove independent runs on the monolithic engine,
//! whose behaviour is the definition of correct.
//!
//! The admission rules are deliberately conservative. A scenario
//! shards only when:
//!
//! * no orchestrator section (its planner may read fleet telemetry),
//!   orchestrated intents, autonomic rebalancer, resilience layer,
//!   fault plan, or cancellation plan — those subsystems take
//!   fleet-global decisions (placement scans, global tick ordering)
//!   that a node partition cannot reproduce;
//! * no grouped workloads (barrier traffic crosses components), and no
//!   `SharedFs` strategy (PVFS stripes over every node);
//! * every workload passes
//!   [`WorkloadSpec::chunk_aligned_write_only`](lsm_workloads::WorkloadSpec::chunk_aligned_write_only)
//!   — write-only and
//!   chunk-aligned I/O never triggers on-demand repository fetches
//!   from nodes outside the component;
//! * the fabric is switch-decoupled (switch aggregate ≥ 2× the summed
//!   NIC capacity), so flows in different components can never contend,
//!   however many nodes are busy. That implies the monolithic
//!   incremental solver's own rule, which looks only at the NICs
//!   carrying live flows, so it too re-solves components independently
//!   on every change.
//!
//! Under those rules each shard's event stream is *identical* to the
//! monolithic engine's restriction to that component, and the merged
//! report (see `lsm_core::parallel`) is byte-identical to the
//! monolithic one — `lsm`'s determinism suite pins this at `--threads
//! 1/2/8` under both solver modes.

use crate::scenario::ScenarioSpec;
use lsm_core::config::ClusterConfig;
use lsm_core::policy::StrategyKind;

/// One component of a partitioned scenario: a self-contained spec over
/// the component's nodes plus the maps back to global identity.
#[derive(Clone, Debug)]
pub struct SubScenario {
    /// The component's scenario (nodes/VMs/migrations re-indexed).
    pub spec: ScenarioSpec,
    /// Local VM index → global VM index.
    pub vms: Vec<u32>,
    /// Local migration index → global migration index.
    pub jobs: Vec<u32>,
    /// Local node index → global node index.
    pub nodes: Vec<u32>,
}

/// One reason a scenario cannot be sharded. [`partition`] collects
/// *every* failed admission rule (not just the first), so `lsm run
/// --threads N`'s fallback note and `lsm lint`'s shard-admission
/// explainer can show everything that would have to change for the
/// scenario to shard.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardRejection {
    /// An `[orchestrator]` section takes fleet-global admission
    /// decisions.
    Orchestrator,
    /// The `[autonomic]` rebalancer scans the whole fleet every tick.
    Autonomic,
    /// The `[resilience]` layer re-plans against fleet-global state.
    Resilience,
    /// Orchestration requests expand against fleet-global placement.
    Requests,
    /// Fault plans are not yet component-attributed.
    Faults,
    /// Cancellations record fleet-global resilience history.
    Cancellations,
    /// Grouped workloads exchange barrier traffic between components.
    Grouped,
    /// A VM under the SharedFs strategy stripes writes over every node.
    SharedFs {
        /// Index into `ScenarioSpec::vms`.
        vm: u32,
    },
    /// A workload reads, or writes partial chunks — either could fetch
    /// across components.
    UnalignedWorkload {
        /// Index into `ScenarioSpec::vms`.
        vm: u32,
        /// The workload's class label.
        label: &'static str,
    },
    /// The switch aggregate couples components.
    SwitchCoupled {
        /// Configured switch aggregate, bytes/s.
        switch_bw: f64,
        /// The decoupling threshold `2 × Σ nic_bw`, bytes/s.
        required: f64,
    },
    /// A VM names a node outside the cluster.
    VmNodeOutOfRange {
        /// Index into `ScenarioSpec::vms`.
        vm: u32,
        /// The out-of-range node.
        node: u32,
    },
    /// A migration names a VM or node outside the cluster.
    MigrationOutOfRange {
        /// Index into `ScenarioSpec::migrations`.
        migration: u32,
    },
    /// The migration graph is one connected component — nothing to
    /// split.
    SingleComponent,
}

impl std::fmt::Display for ShardRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardRejection::Orchestrator => {
                write!(
                    f,
                    "an [orchestrator] section takes fleet-global admission decisions"
                )
            }
            ShardRejection::Autonomic => {
                write!(
                    f,
                    "the [autonomic] rebalancer scans the whole fleet every tick"
                )
            }
            ShardRejection::Resilience => {
                write!(
                    f,
                    "the [resilience] layer re-plans against fleet-global state"
                )
            }
            ShardRejection::Requests => {
                write!(
                    f,
                    "orchestration requests expand against fleet-global placement"
                )
            }
            ShardRejection::Faults => write!(f, "fault plans are not yet component-attributed"),
            ShardRejection::Cancellations => {
                write!(f, "cancellations record fleet-global resilience history")
            }
            ShardRejection::Grouped => {
                write!(
                    f,
                    "grouped workloads exchange barrier traffic between components"
                )
            }
            ShardRejection::SharedFs { vm } => write!(
                f,
                "vm {vm} uses the SharedFs strategy (stripes every write over the whole PVFS)"
            ),
            ShardRejection::UnalignedWorkload { vm, label } => write!(
                f,
                "not chunk-aligned write-only: workload class '{label}' on vm {vm} \
                 (could fetch across components)"
            ),
            ShardRejection::SwitchCoupled {
                switch_bw,
                required,
            } => write!(
                f,
                "switch-coupled: switch_bw {:.0} MB/s < 2 × Σ nic_bw = {:.0} MB/s",
                switch_bw / 1.0e6,
                required / 1.0e6
            ),
            ShardRejection::VmNodeOutOfRange { vm, node } => {
                write!(f, "vm {vm} names node {node} outside the cluster")
            }
            ShardRejection::MigrationOutOfRange { migration } => {
                write!(
                    f,
                    "migration {migration} names a VM or node outside the cluster"
                )
            }
            ShardRejection::SingleComponent => {
                write!(f, "the migration graph is one connected component")
            }
        }
    }
}

/// The rejection list grouped by kind, in first-occurrence order: each
/// kind's first reason, plus `(N more like this)` when the kind
/// repeats, so 2048 SharedFs guests make one entry, not 2048.
pub fn rejection_groups(reasons: &[ShardRejection]) -> Vec<String> {
    let mut groups: Vec<(&ShardRejection, usize)> = Vec::new();
    for r in reasons {
        let kind = std::mem::discriminant(r);
        match groups
            .iter_mut()
            .find(|(first, _)| std::mem::discriminant(*first) == kind)
        {
            Some((_, n)) => *n += 1,
            None => groups.push((r, 1)),
        }
    }
    groups
        .into_iter()
        .map(|(first, n)| match n {
            1 => first.to_string(),
            n => format!("{first} ({} more like this)", n - 1),
        })
        .collect()
}

/// Render a rejection list as one semicolon-joined line of its
/// [`rejection_groups`] (the compact form the CLI fallback note and
/// error contexts use).
pub fn render_rejections(reasons: &[ShardRejection]) -> String {
    rejection_groups(reasons).join("; ")
}

/// Prove `spec` partitions into ≥ 2 independent components and build
/// the per-component sub-scenarios, or report **every** admission rule
/// it fails.
pub fn partition(spec: &ScenarioSpec) -> Result<Vec<SubScenario>, Vec<ShardRejection>> {
    let mut rejections = Vec::new();
    if spec.orchestrator.is_some() {
        rejections.push(ShardRejection::Orchestrator);
    }
    if spec.autonomic.is_some() {
        rejections.push(ShardRejection::Autonomic);
    }
    if spec.resilience.is_some() {
        rejections.push(ShardRejection::Resilience);
    }
    if !spec.request_plan().is_empty() {
        rejections.push(ShardRejection::Requests);
    }
    if !spec.fault_plan().is_empty() {
        rejections.push(ShardRejection::Faults);
    }
    if !spec.cancellation_plan().is_empty() {
        rejections.push(ShardRejection::Cancellations);
    }
    if spec.grouped {
        rejections.push(ShardRejection::Grouped);
    }
    let cluster = spec.cluster_config();
    let nodes = cluster.nodes as usize;
    for i in 0..spec.vms.len() {
        if spec.vm_strategy(i) == StrategyKind::SharedFs {
            rejections.push(ShardRejection::SharedFs { vm: i as u32 });
        }
    }
    for (i, v) in spec.vms.iter().enumerate() {
        if !v.workload.chunk_aligned_write_only(cluster.chunk_size) {
            rejections.push(ShardRejection::UnalignedWorkload {
                vm: i as u32,
                label: v.workload.label(),
            });
        }
    }
    // Uniform NICs: the switch aggregate must dominate twice the summed
    // NIC capacity for components to be provably contention-free with
    // every node busy (stricter than the monolithic solver's busy-NIC
    // rule).
    let required = 2.0 * nodes as f64 * cluster.nic_bw;
    if cluster.switch_bw < required {
        rejections.push(ShardRejection::SwitchCoupled {
            switch_bw: cluster.switch_bw,
            required,
        });
    }
    let mut indices_ok = true;
    for (i, v) in spec.vms.iter().enumerate() {
        if v.node as usize >= nodes {
            rejections.push(ShardRejection::VmNodeOutOfRange {
                vm: i as u32,
                node: v.node,
            });
            indices_ok = false;
        }
    }
    for (i, m) in spec.migrations.iter().enumerate() {
        if m.vm as usize >= spec.vms.len() || m.dest as usize >= nodes {
            rejections.push(ShardRejection::MigrationOutOfRange {
                migration: i as u32,
            });
            indices_ok = false;
        }
    }
    // Out-of-range indices would make the union-find below index out of
    // bounds; the rejection list is complete enough without the
    // component count.
    if !indices_ok {
        return Err(rejections);
    }

    // Union-find over nodes; each migration joins its VM's host with
    // its destination.
    let mut parent: Vec<u32> = (0..nodes as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut r = x;
        while parent[r as usize] != r {
            r = parent[r as usize];
        }
        let mut c = x;
        while parent[c as usize] != r {
            let next = parent[c as usize];
            parent[c as usize] = r;
            c = next;
        }
        r
    }
    for m in &spec.migrations {
        let a = find(&mut parent, spec.vms[m.vm as usize].node);
        let b = find(&mut parent, m.dest);
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    // Group nodes by component root, ascending — which both keeps each
    // shard's node order a subsequence of the global order (preserving
    // the waterfill's lowest-index tie-breaks) and makes the shard list
    // itself deterministic.
    let mut comp_of_node = vec![u32::MAX; nodes];
    let mut comps: Vec<Vec<u32>> = Vec::new();
    for n in 0..nodes as u32 {
        let root = find(&mut parent, n);
        if comp_of_node[root as usize] == u32::MAX {
            comp_of_node[root as usize] = comps.len() as u32;
            comps.push(Vec::new());
        }
        let c = comp_of_node[root as usize];
        comp_of_node[n as usize] = c;
        comps[c as usize].push(n);
    }
    // Components with no VMs host no events at all; drop them.
    let mut live: Vec<Vec<u32>> = Vec::new();
    {
        let mut has_vm = vec![false; comps.len()];
        for v in &spec.vms {
            has_vm[comp_of_node[v.node as usize] as usize] = true;
        }
        for (ci, c) in comps.into_iter().enumerate() {
            if has_vm[ci] {
                live.push(c);
            }
        }
    }
    if live.len() < 2 {
        rejections.push(ShardRejection::SingleComponent);
    }
    if !rejections.is_empty() {
        return Err(rejections);
    }

    let mut subs = Vec::with_capacity(live.len());
    for members in live {
        let mut local_node = vec![u32::MAX; nodes];
        for (li, &g) in members.iter().enumerate() {
            local_node[g as usize] = li as u32;
        }
        let mut vms = Vec::new();
        let mut vm_specs = Vec::new();
        let mut local_vm = vec![u32::MAX; spec.vms.len()];
        for (gi, v) in spec.vms.iter().enumerate() {
            if local_node[v.node as usize] != u32::MAX {
                local_vm[gi] = vms.len() as u32;
                vms.push(gi as u32);
                let mut v = v.clone();
                v.node = local_node[v.node as usize];
                vm_specs.push(v);
            }
        }
        let mut jobs = Vec::new();
        let mut mig_specs = Vec::new();
        for (gi, m) in spec.migrations.iter().enumerate() {
            if local_vm[m.vm as usize] != u32::MAX {
                jobs.push(gi as u32);
                let mut m = m.clone();
                m.vm = local_vm[m.vm as usize];
                m.dest = local_node[m.dest as usize];
                mig_specs.push(m);
            }
        }
        let sub_cluster = ClusterConfig {
            nodes: members.len() as u32,
            ..cluster.clone()
        };
        subs.push(SubScenario {
            spec: ScenarioSpec {
                name: spec.name.clone(),
                cluster: Some(sub_cluster),
                orchestrator: None,
                autonomic: None,
                resilience: None,
                qos: spec.qos.clone(),
                strategy: spec.strategy,
                grouped: false,
                vms: vm_specs,
                migrations: mig_specs,
                requests: None,
                faults: None,
                cancellations: None,
                horizon_secs: spec.horizon_secs,
            },
            vms,
            jobs,
            nodes: members,
        });
    }
    Ok(subs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_rejections_collapse_by_kind() {
        let reasons = [
            ShardRejection::Orchestrator,
            ShardRejection::SharedFs { vm: 3 },
            ShardRejection::Grouped,
            ShardRejection::SharedFs { vm: 5 },
            ShardRejection::SharedFs { vm: 9 },
        ];
        assert_eq!(
            render_rejections(&reasons),
            "an [orchestrator] section takes fleet-global admission decisions; \
             vm 3 uses the SharedFs strategy (stripes every write over the whole PVFS) \
             (2 more like this); \
             grouped workloads exchange barrier traffic between components"
        );
        assert_eq!(
            render_rejections(&reasons[..1]),
            "an [orchestrator] section takes fleet-global admission decisions"
        );
        assert!(rejection_groups(&[]).is_empty());
    }
}
