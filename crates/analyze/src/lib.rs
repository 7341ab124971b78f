//! Static analysis over scenario specs — `lsm lint`.
//!
//! The engine's cost model already knows, in closed form, how long a
//! transfer must take (`lsm_core::planner::bounds`); the workload specs
//! already determine their steady-state I/O rates ([`WorkloadModel`]);
//! and the sharded runner's partitioner already proves which scenarios
//! decompose. This crate turns those facts into a *linter*: a pure
//! function from [`ScenarioSpec`] to a list of typed [`Diag`]nostics,
//! without building or running a simulation.
//!
//! Three families of rules:
//!
//! * **Feasibility proofs** (`L000`–`L003`, errors): the spec will not
//!   build, a migration provably cannot fit the horizon, a deadline is
//!   below the unconditional `bytes / bandwidth` lower bound, or a
//!   statically-chosen scheme cannot converge and nothing bounds it.
//! * **Dead configuration** (`L01x`, warnings): events after the
//!   horizon, restores with nothing to restore, cancellations that fire
//!   before their job exists, caps that can never bind.
//! * **Conflicts** (`L02x`, warnings) and the **shard-admission
//!   explainer** (`L03x`, info): settings that fight each other, and a
//!   per-reason account of why `lsm run --threads` would (or would
//!   not) shard this scenario.
//!
//! Severity contract: errors always fail a lint, warnings fail under
//! `--deny warnings`, info never fails. The analyses lean on the exact
//! same helpers the planner uses at run time, so a diagnostic here is a
//! statement about what the engine will actually do — the fuzz suite
//! cross-validates the error-level rules dynamically.

#![forbid(unsafe_code)]

pub mod diag;
mod model;

pub use diag::{fails, has_errors, render, Diag, DiagCode, Severity, Span};
pub use model::WorkloadModel;

use lsm_core::config::ClusterConfig;
use lsm_core::planner::bounds;
use lsm_core::policy::StrategyKind;
use lsm_core::FaultKind;
use lsm_experiments::scenario::ScenarioSpec;
use lsm_experiments::shard;
use std::collections::BTreeMap;

/// Analyze a scenario and return every diagnostic, errors first.
///
/// Structural problems (`L000`) short-circuit the deeper analyses:
/// once an index is out of range the cross-section rules cannot be
/// evaluated meaningfully.
pub fn lint(spec: &ScenarioSpec) -> Vec<Diag> {
    let mut diags = Vec::new();
    structural(spec, &mut diags);
    if diag::has_errors(&diags) {
        rank(&mut diags);
        return diags;
    }
    let cluster = spec.cluster_config();
    let models: Vec<WorkloadModel> = spec
        .vms
        .iter()
        .map(|v| WorkloadModel::of(&v.workload, &cluster))
        .collect();
    capacity(spec, &cluster, &models, &mut diags);
    convergence(spec, &cluster, &models, &mut diags);
    deadlines(spec, &cluster, &models, &mut diags);
    dead_config(spec, &cluster, &mut diags);
    conflicts(spec, &cluster, &mut diags);
    shard_admission(spec, &mut diags);
    rank(&mut diags);
    diags
}

/// Stable sort: errors, then warnings, then info, preserving the
/// per-severity emission order (document order).
fn rank(diags: &mut [Diag]) {
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
}

fn bad_time(v: f64) -> bool {
    !(v.is_finite() && v >= 0.0)
}

fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

fn mbps(bw: f64) -> f64 {
    bw / 1e6
}

/// `L000`: everything `build_scenario` would reject, collected instead
/// of first-error-wins.
fn structural(spec: &ScenarioSpec, out: &mut Vec<Diag>) {
    let push = |out: &mut Vec<Diag>, span, msg: String| {
        out.push(Diag::new(DiagCode::InvalidSpec, span, msg));
    };
    if bad_time(spec.horizon_secs) {
        push(
            out,
            Span::Scenario,
            format!(
                "horizon_secs must be finite and non-negative, got {}",
                spec.horizon_secs
            ),
        );
    }
    let cluster = spec.cluster_config();
    if let Err(e) = cluster.validate() {
        push(out, Span::Cluster, format!("invalid cluster config: {e}"));
    }
    if spec.grouped {
        let start0 = spec.vms.first().and_then(|v| v.start_secs).unwrap_or(0.0);
        for (i, v) in spec.vms.iter().enumerate() {
            if v.strategy.is_some() {
                push(
                    out,
                    Span::Vm(i),
                    "grouped scenarios use the scenario-wide strategy, but this vm overrides it"
                        .to_string(),
                );
            }
            if v.start_secs.unwrap_or(0.0) != start0 {
                push(
                    out,
                    Span::Vm(i),
                    "grouped scenarios start all ranks together, but this vm sets its own start_secs"
                        .to_string(),
                );
            }
        }
    }
    for (i, v) in spec.vms.iter().enumerate() {
        if v.node >= cluster.nodes {
            push(
                out,
                Span::Vm(i),
                format!("host node {} out of 0..{}", v.node, cluster.nodes),
            );
        }
        if let Err(e) = v.workload.validate() {
            push(out, Span::Vm(i), format!("invalid workload: {e}"));
        } else if v.workload.disk_footprint() > cluster.image_size {
            push(
                out,
                Span::Vm(i),
                format!(
                    "workload touches {:.0} MiB of virtual disk, beyond the {:.0} MiB image",
                    mib(v.workload.disk_footprint() as f64),
                    mib(cluster.image_size as f64)
                ),
            );
        }
        if bad_time(v.start_secs.unwrap_or(0.0)) {
            push(
                out,
                Span::Vm(i),
                format!(
                    "start_secs must be finite and non-negative, got {}",
                    v.start_secs.unwrap_or(0.0)
                ),
            );
        }
    }
    for (j, m) in spec.migrations.iter().enumerate() {
        if (m.vm as usize) >= spec.vms.len() {
            push(
                out,
                Span::Migration(j),
                format!(
                    "names vm {}, but only {} are declared",
                    m.vm,
                    spec.vms.len()
                ),
            );
        }
        if m.dest >= cluster.nodes {
            push(
                out,
                Span::Migration(j),
                format!("destination node {} out of 0..{}", m.dest, cluster.nodes),
            );
        }
        if bad_time(m.at_secs) {
            push(
                out,
                Span::Migration(j),
                format!("at_secs must be finite and non-negative, got {}", m.at_secs),
            );
        }
        if let Some(d) = m.deadline_secs {
            if bad_time(d) {
                push(
                    out,
                    Span::Migration(j),
                    format!("deadline_secs must be finite and non-negative, got {d}"),
                );
            }
        }
    }
    for (k, f) in spec.fault_plan().iter().enumerate() {
        if bad_time(f.at_secs) {
            push(
                out,
                Span::Fault(k),
                format!("at_secs must be finite and non-negative, got {}", f.at_secs),
            );
        }
        match f.kind {
            FaultKind::LinkDegrade { node, factor } => {
                if node >= cluster.nodes {
                    push(
                        out,
                        Span::Fault(k),
                        format!("node {} out of 0..{}", node, cluster.nodes),
                    );
                }
                if !(factor > 0.0 && factor <= 1.0) {
                    push(
                        out,
                        Span::Fault(k),
                        format!("degrade factor must be in (0, 1], got {factor}"),
                    );
                }
            }
            FaultKind::LinkRestore { node }
            | FaultKind::NodeCrash { node }
            | FaultKind::NodeRestore { node } => {
                if node >= cluster.nodes {
                    push(
                        out,
                        Span::Fault(k),
                        format!("node {} out of 0..{}", node, cluster.nodes),
                    );
                }
            }
            FaultKind::TransferStall { vm, secs } => {
                if (vm as usize) >= spec.vms.len() {
                    push(
                        out,
                        Span::Fault(k),
                        format!("names vm {}, but only {} are declared", vm, spec.vms.len()),
                    );
                }
                if bad_time(secs) {
                    push(
                        out,
                        Span::Fault(k),
                        format!("stall length must be finite and non-negative, got {secs}"),
                    );
                }
            }
        }
    }
    for (k, c) in spec.cancellation_plan().iter().enumerate() {
        if (c.job as usize) >= spec.migrations.len() {
            push(
                out,
                Span::Cancellation(k),
                format!(
                    "names migration {}, but only {} are declared",
                    c.job,
                    spec.migrations.len()
                ),
            );
        }
        if bad_time(c.at_secs) {
            push(
                out,
                Span::Cancellation(k),
                format!("at_secs must be finite and non-negative, got {}", c.at_secs),
            );
        }
    }
    for (k, r) in spec.request_plan().iter().enumerate() {
        if bad_time(r.at_secs) {
            push(
                out,
                Span::Request(k),
                format!("at_secs must be finite and non-negative, got {}", r.at_secs),
            );
        }
        if let lsm_core::planner::RequestIntent::Evacuate { node } = r.intent {
            if node >= cluster.nodes {
                push(
                    out,
                    Span::Request(k),
                    format!("evacuates node {} out of 0..{}", node, cluster.nodes),
                );
            }
        }
    }
}

/// `L001`: unconditional `bytes / bandwidth` lower bounds against the
/// horizon. Three nested proofs: each migration on its own wire, each
/// destination's NIC across the jobs landing there, and the whole plan
/// across the switch. Only *guest memory* bytes are counted — the one
/// component no scheme can avoid moving — so a firing is a proof, not
/// an estimate.
fn capacity(
    spec: &ScenarioSpec,
    cluster: &ClusterConfig,
    models: &[WorkloadModel],
    out: &mut Vec<Diag>,
) {
    let qos = spec.qos.as_ref();
    let eff = bounds::effective_migration_bandwidth(cluster, qos);
    let mem_ratio = qos.map(|q| q.compress_mem_ratio).unwrap_or(1.0);
    let mut per_dest: BTreeMap<u32, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (j, m) in spec.migrations.iter().enumerate() {
        let model = &models[m.vm as usize];
        let mem_bytes = (model.mem.touched_bytes.min(cluster.vm_ram) as f64) * mem_ratio;
        total += mem_bytes;
        *per_dest.entry(m.dest).or_insert(0.0) += mem_bytes;
        let need = bounds::transfer_lower_bound(mem_bytes, eff);
        if m.at_secs + need > spec.horizon_secs {
            out.push(
                Diag::new(
                    DiagCode::CapacityInfeasible,
                    Span::Migration(j),
                    format!(
                        "cannot finish within the horizon: ≥ {:.0} MiB of guest memory over a \
                         {:.1} MB/s wire needs {:.1} s, but the request at t={:.1} s leaves \
                         {:.1} s of the {:.1} s horizon",
                        mib(mem_bytes),
                        mbps(eff),
                        need,
                        m.at_secs,
                        (spec.horizon_secs - m.at_secs).max(0.0),
                        spec.horizon_secs
                    ),
                )
                .with_suggestion(
                    "raise horizon_secs, request the migration earlier, or lift the bandwidth cap",
                ),
            );
        }
    }
    if total > 0.0 {
        let need = bounds::transfer_lower_bound(total, cluster.switch_bw);
        if need > spec.horizon_secs {
            out.push(
                Diag::new(
                    DiagCode::CapacityInfeasible,
                    Span::Cluster,
                    format!(
                        "the plan is switch-bound: all migrations together must move \
                         ≥ {:.0} MiB of guest memory through the {:.1} MB/s switch, \
                         needing {:.1} s against a {:.1} s horizon",
                        mib(total),
                        mbps(cluster.switch_bw),
                        need,
                        spec.horizon_secs
                    ),
                )
                .with_suggestion("raise horizon_secs, widen switch_bw, or thin the plan"),
            );
        }
    }
    for (dest, bytes) in per_dest {
        let need = bounds::transfer_lower_bound(bytes, cluster.nic_bw);
        if need > spec.horizon_secs {
            out.push(
                Diag::new(
                    DiagCode::CapacityInfeasible,
                    Span::Cluster,
                    format!(
                        "node {dest}'s NIC is the bottleneck: the migrations landing there must \
                         move ≥ {:.0} MiB of guest memory through its {:.1} MB/s downlink, \
                         needing {:.1} s against a {:.1} s horizon",
                        mib(bytes),
                        mbps(cluster.nic_bw),
                        need,
                        spec.horizon_secs
                    ),
                )
                .with_suggestion("spread destinations across more nodes or raise horizon_secs"),
            );
        }
    }
}

/// `L002`: the pre-copy convergence condition, evaluated statically.
/// Fires only for migrations whose scheme is *statically* Precopy or
/// Mirror (a telemetry planner chooses every scheme at run time, so
/// none is static under one), whose workload is still writing when the
/// migration is requested,
/// and which have nothing armed to bound the job — `[resilience]`
/// auto-converge throttles the guest, a deadline turns livelock into a
/// bounded abort.
fn convergence(
    spec: &ScenarioSpec,
    cluster: &ClusterConfig,
    models: &[WorkloadModel],
    out: &mut Vec<Diag>,
) {
    if spec
        .orchestrator
        .as_ref()
        .is_some_and(|o| o.planner.uses_telemetry())
    {
        return;
    }
    let qos = spec.qos.as_ref();
    let eff = bounds::effective_migration_bandwidth(cluster, qos);
    let mem_ratio = qos.map(|q| q.compress_mem_ratio).unwrap_or(1.0);
    let storage_ratio = qos.map(|q| q.compress_storage_ratio).unwrap_or(1.0);
    for (j, m) in spec.migrations.iter().enumerate() {
        let strat = spec.vm_strategy(m.vm as usize);
        if !matches!(strat, StrategyKind::Precopy | StrategyKind::Mirror) {
            continue;
        }
        let model = &models[m.vm as usize];
        let start = spec.vms[m.vm as usize].start_secs.unwrap_or(0.0);
        if !model.writing_at(m.at_secs - start) {
            continue;
        }
        let (flux, what) = match strat {
            StrategyKind::Mirror => (
                model.write_rate * storage_ratio,
                "synchronous write mirroring",
            ),
            _ => (model.dirty_flux(cluster) * mem_ratio, "memory re-dirtying"),
        };
        if bounds::nonconvergent(flux, eff)
            && m.deadline_secs.is_none()
            && spec.resilience.is_none()
        {
            out.push(
                Diag::new(
                    DiagCode::NonConvergent,
                    Span::Migration(j),
                    format!(
                        "{:?} cannot converge: the {} workload's {} runs at {:.1} MB/s, \
                         ≥ 95 % of the {:.1} MB/s effective bandwidth, and nothing bounds the job",
                        strat,
                        model.label,
                        what,
                        mbps(flux),
                        mbps(eff)
                    ),
                )
                .with_suggestion(
                    "enable [resilience] auto-converge, set deadline_secs, or use Hybrid/Postcopy",
                ),
            );
        }
    }
}

/// `L003`: deadlines below a conservatively discounted transfer-time
/// lower bound. The storage a workload has already modified by request
/// time exists only on the source and must cross the wire; half of
/// `modified / bandwidth` (the 2× discount absorbs the rate model's
/// slack) already overrunning the deadline proves the abort.
fn deadlines(
    spec: &ScenarioSpec,
    cluster: &ClusterConfig,
    models: &[WorkloadModel],
    out: &mut Vec<Diag>,
) {
    let qos = spec.qos.as_ref();
    let eff = bounds::effective_migration_bandwidth(cluster, qos);
    let storage_ratio = qos.map(|q| q.compress_storage_ratio).unwrap_or(1.0);
    for (j, m) in spec.migrations.iter().enumerate() {
        let Some(deadline) = m.deadline_secs else {
            continue;
        };
        let model = &models[m.vm as usize];
        let start = spec.vms[m.vm as usize].start_secs.unwrap_or(0.0);
        let modified = model.distinct_written_by(m.at_secs - start) * storage_ratio;
        let lb = 0.5 * bounds::transfer_lower_bound(modified, eff);
        if lb > deadline {
            out.push(
                Diag::new(
                    DiagCode::DeadlineImpossible,
                    Span::Migration(j),
                    format!(
                        "guaranteed DeadlineExceeded: ≥ {:.0} MiB of storage modified by \
                         t={:.1} s must cross the {:.1} MB/s wire, a conservative lower bound \
                         of {:.1} s against a {:.1} s deadline",
                        mib(modified),
                        m.at_secs,
                        mbps(eff),
                        lb,
                        deadline
                    ),
                )
                .with_suggestion(format!(
                    "raise deadline_secs above ~{:.0} s (the undiscounted bound) or migrate earlier",
                    2.0 * lb
                )),
            );
        }
    }
}

/// `L010`–`L014`: configuration that provably does nothing.
fn dead_config(spec: &ScenarioSpec, cluster: &ClusterConfig, out: &mut Vec<Diag>) {
    let planner_active = spec.request_plan().iter().next().is_some() || spec.autonomic.is_some();
    // L011: anything scheduled after the horizon never fires.
    let late = |at: f64| at > spec.horizon_secs;
    for (j, m) in spec.migrations.iter().enumerate() {
        if late(m.at_secs) {
            out.push(Diag::new(
                DiagCode::DeadEvent,
                Span::Migration(j),
                format!(
                    "requested at t={} s, after the {} s horizon — it never runs",
                    m.at_secs, spec.horizon_secs
                ),
            ));
        }
    }
    for (k, f) in spec.fault_plan().iter().enumerate() {
        if late(f.at_secs) {
            out.push(Diag::new(
                DiagCode::DeadEvent,
                Span::Fault(k),
                format!(
                    "fires at t={} s, after the {} s horizon — it never happens",
                    f.at_secs, spec.horizon_secs
                ),
            ));
        }
    }
    for (k, c) in spec.cancellation_plan().iter().enumerate() {
        if late(c.at_secs) {
            out.push(Diag::new(
                DiagCode::DeadEvent,
                Span::Cancellation(k),
                format!(
                    "fires at t={} s, after the {} s horizon — it never happens",
                    c.at_secs, spec.horizon_secs
                ),
            ));
        }
    }
    for (k, r) in spec.request_plan().iter().enumerate() {
        if late(r.at_secs) {
            out.push(Diag::new(
                DiagCode::DeadEvent,
                Span::Request(k),
                format!(
                    "fires at t={} s, after the {} s horizon — it never happens",
                    r.at_secs, spec.horizon_secs
                ),
            ));
        }
    }
    // L010: faults with provably no effect. "Used" nodes are hosts and
    // declared destinations; that set is only sound as a traffic bound
    // when no planner can add placements and no workload reads (reads
    // fetch repository replicas from arbitrary nodes).
    let closed_world = !planner_active
        && spec
            .vms
            .iter()
            .all(|v| v.workload.chunk_aligned_write_only(cluster.chunk_size));
    let used_node = |n: u32| {
        spec.vms.iter().any(|v| v.node == n) || spec.migrations.iter().any(|m| m.dest == n)
    };
    let faults = spec.fault_plan();
    for (k, f) in faults.iter().enumerate() {
        match f.kind {
            FaultKind::NodeRestore { node } => {
                let preceded = faults.iter().any(|g| {
                    matches!(g.kind, FaultKind::NodeCrash { node: n } if n == node)
                        && g.at_secs <= f.at_secs
                });
                if !preceded {
                    out.push(
                        Diag::new(
                            DiagCode::DeadFault,
                            Span::Fault(k),
                            format!("restores node {node}, but no NodeCrash precedes it — a no-op"),
                        )
                        .with_suggestion("crash the node first, or drop the restore"),
                    );
                }
            }
            FaultKind::LinkRestore { node } => {
                let preceded = faults.iter().any(|g| {
                    matches!(g.kind, FaultKind::LinkDegrade { node: n, .. } if n == node)
                        && g.at_secs <= f.at_secs
                });
                if !preceded {
                    out.push(
                        Diag::new(
                            DiagCode::DeadFault,
                            Span::Fault(k),
                            format!(
                                "restores node {node}'s link, but no LinkDegrade precedes it — a no-op"
                            ),
                        )
                        .with_suggestion("degrade the link first, or drop the restore"),
                    );
                }
            }
            FaultKind::TransferStall { vm, .. } => {
                let migrates =
                    planner_active || spec.migrations.iter().any(|m| m.vm as usize == vm as usize);
                if !migrates {
                    out.push(
                        Diag::new(
                            DiagCode::DeadFault,
                            Span::Fault(k),
                            format!(
                                "stalls vm {vm}, but no migration (and no planner) ever moves it"
                            ),
                        )
                        .with_suggestion("target a migrating VM, or drop the stall"),
                    );
                }
            }
            FaultKind::NodeCrash { node } | FaultKind::LinkDegrade { node, .. } => {
                if closed_world && !used_node(node) {
                    out.push(
                        Diag::new(
                            DiagCode::DeadFault,
                            Span::Fault(k),
                            format!(
                                "hits node {node}, which hosts nothing and is no migration's \
                                 destination; with write-only workloads and no planner, no \
                                 traffic can touch it"
                            ),
                        )
                        .with_suggestion("target a host or destination node, or drop the fault"),
                    );
                }
            }
        }
    }
    // L012: a cancellation firing before its migration is requested
    // finds no job to unwind — the migration then runs to completion,
    // which is almost never what a written-down cancellation intends.
    for (k, c) in spec.cancellation_plan().iter().enumerate() {
        let m = &spec.migrations[c.job as usize];
        if c.at_secs < m.at_secs {
            out.push(
                Diag::new(
                    DiagCode::DeadCancellation,
                    Span::Cancellation(k),
                    format!(
                        "fires at t={} s, before migration {} is requested at t={} s — \
                         there is no job to cancel yet, so the migration runs anyway",
                        c.at_secs, c.job, m.at_secs
                    ),
                )
                .with_suggestion("move the cancellation after the migration's at_secs"),
            );
        }
    }
    // L013: a QoS cap at or above the wire never shapes anything.
    if let Some(cap) = spec.qos.as_ref().and_then(|q| q.cap_bytes()) {
        let wire = cluster.nic_bw.min(cluster.migration_speed_cap());
        if cap >= wire {
            out.push(
                Diag::new(
                    DiagCode::DeadQosCap,
                    Span::Qos,
                    format!(
                        "bandwidth cap of {:.1} MB/s is at or above the {:.1} MB/s wire — \
                         shaping never binds",
                        mbps(cap),
                        mbps(wire)
                    ),
                )
                .with_suggestion("lower bandwidth_cap_mb below the NIC, or drop it"),
            );
        }
    }
    // L014: an admission cap no queue can ever reach.
    if let Some(cap) = spec.orchestrator.as_ref().and_then(|o| o.max_concurrent) {
        if !planner_active && (cap as usize) >= spec.migrations.len() {
            out.push(
                Diag::new(
                    DiagCode::DeadAdmissionCap,
                    Span::Orchestrator,
                    format!(
                        "admission cap of {cap} can never bind: only {} migrations are \
                         declared and no requests or autonomic planner can add more",
                        spec.migrations.len()
                    ),
                )
                .with_suggestion("lower max_concurrent, or drop it"),
            );
        }
    }
}

/// `L020`–`L022`: settings that fight each other.
fn conflicts(spec: &ScenarioSpec, cluster: &ClusterConfig, out: &mut Vec<Diag>) {
    if let Some(res) = &spec.resilience {
        // L020: a downtime limit bounds the stop-and-copy round; under
        // post-copy memory control transfer there is none.
        if res.downtime_limit_ms.is_some() && cluster.postcopy_memory {
            out.push(
                Diag::new(
                    DiagCode::ConflictDowntimePostcopy,
                    Span::Resilience,
                    "downtime_limit_ms has no effect: postcopy_memory transfers control \
                     immediately, so there is no stop-and-copy round to bound"
                        .to_string(),
                )
                .with_suggestion("drop downtime_limit_ms or disable postcopy_memory"),
            );
        }
        // L021: a retry policy none of whose enabled causes can occur.
        if res.retry.max_attempts > 1 && spec.autonomic.is_none() {
            let on = &res.retry.retry_on;
            let crash_possible = on.dest_crash
                && spec
                    .fault_plan()
                    .iter()
                    .any(|f| matches!(f.kind, FaultKind::NodeCrash { .. }));
            let stall_possible = on.stall
                && spec
                    .fault_plan()
                    .iter()
                    .any(|f| matches!(f.kind, FaultKind::TransferStall { .. }));
            let deadline_possible =
                on.deadline && spec.migrations.iter().any(|m| m.deadline_secs.is_some());
            if !(crash_possible || stall_possible || deadline_possible) {
                out.push(
                    Diag::new(
                        DiagCode::ConflictRetryUnreachable,
                        Span::Resilience,
                        format!(
                            "retry policy (max_attempts = {}) can never trigger: no crash \
                             faults, no transfer stalls, and no deadlines are declared for \
                             its enabled causes",
                            res.retry.max_attempts
                        ),
                    )
                    .with_suggestion(
                        "add the faults/deadlines the policy retries on, or drop [resilience.retry]",
                    ),
                );
            }
        }
    }
    // L022: a per-VM cooldown the horizon can never outlast.
    if let Some(auto) = &spec.autonomic {
        if auto.cooldown_secs >= spec.horizon_secs {
            out.push(
                Diag::new(
                    DiagCode::ConflictCooldownHorizon,
                    Span::Autonomic,
                    format!(
                        "cooldown_secs = {} meets or exceeds the {} s horizon — the \
                         rebalancer can move each VM at most once",
                        auto.cooldown_secs, spec.horizon_secs
                    ),
                )
                .with_suggestion("shorten cooldown_secs or lengthen the horizon"),
            );
        }
    }
}

/// `L030`/`L031`: the shard-admission explainer. Runs the *actual*
/// partitioner the threaded runner uses, so the explanation can never
/// drift from the implementation.
fn shard_admission(spec: &ScenarioSpec, out: &mut Vec<Diag>) {
    match shard::partition(spec) {
        Ok(subs) => out.push(Diag::new(
            DiagCode::ShardOk,
            Span::Scenario,
            format!(
                "shardable: partitions into {} independent sub-scenarios; \
                 `lsm run --threads N` will run them in parallel",
                subs.len()
            ),
        )),
        Err(rejections) => {
            // One diagnostic per kind of reason, not per migration/VM.
            for group in shard::rejection_groups(&rejections) {
                out.push(Diag::new(
                    DiagCode::ShardInadmissible,
                    Span::Scenario,
                    format!(
                        "not shardable: {group} — `lsm run --threads N` falls back to monolithic"
                    ),
                ));
            }
        }
    }
}
