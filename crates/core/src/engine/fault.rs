//! Fault execution and recovery semantics.
//!
//! [`apply_fault`] is the engine half of the fault-injection subsystem:
//! the scenario layer schedules [`FaultKind`] events, and this module
//! makes them *mean* something — links degrade under live flows, nodes
//! crash taking guests and transfers with them, storage pipelines stall
//! and resume from the surviving chunk manifest, and deadlines abort
//! overrunning jobs with their partial progress preserved.
//!
//! Recovery policy, in the paper's terms:
//!
//! * **Destination crash before control transfer** — the job fails with
//!   [`FailureReason::DestinationCrashed`]; the guest (resumed if the
//!   crash interrupted a stop-and-copy) keeps running at the source,
//!   which still holds the authoritative disk. A later job may migrate
//!   the VM again.
//! * **Source crash before control transfer** — the guest dies with its
//!   host; the job fails with [`FailureReason::SourceCrashed`].
//! * **Source crash during the pull phase** — the guest survives at the
//!   destination (control already moved, §4.1), but the remaining pull
//!   stream is severed: the job fails with partial progress, reads
//!   blocked on pulls unblock, and base content keeps coming from the
//!   (replicated) repository.
//! * **Transfer stall** — in-flight push/pull batches are lost; their
//!   chunks return to the remaining manifest, and after the stall the
//!   pipelines resume from it. Chunks whose versions were already
//!   stamped at the destination are never re-sent unless the guest
//!   rewrote them — the write-supersede design doing double duty as
//!   crash-resume bookkeeping.
//! * **Deadline** — like a destination crash without the crash: every
//!   transfer flow of the job is cancelled and the guest continues
//!   wherever control currently is.

use super::job::{FailureReason, JobId};
use super::types::*;
use super::{io, migration, Engine};
use crate::resilience::AttemptReason;
use lsm_hypervisor::VmState;
use lsm_netsim::{FlowId, NodeId};
use lsm_simcore::fault::FaultKind;
use lsm_simcore::time::SimDuration;

/// Execute one fault event at the current simulated time.
pub(crate) fn apply_fault(eng: &mut Engine, kind: FaultKind) {
    match kind {
        FaultKind::LinkDegrade { node, factor } => set_link(eng, node, factor),
        FaultKind::LinkRestore { node } => set_link(eng, node, 1.0),
        FaultKind::NodeCrash { node } => crash_node(eng, node),
        FaultKind::NodeRestore { node } => restore_node(eng, node),
        FaultKind::TransferStall { vm, secs } => stall_transfer(eng, vm, secs),
    }
}

fn set_link(eng: &mut Engine, node: u32, factor: f64) {
    if eng.nodes[node as usize].crashed {
        return; // a dead node's NIC has no capacity to mutate
    }
    let now = eng.now;
    eng.net.set_link_factor(now, NodeId(node), factor);
    // Every affected flow's completion time moved; re-arm the wake.
    eng.resync_net();
}

// ---------------- node crash ----------------

fn crash_node(eng: &mut Engine, node: u32) {
    if eng.nodes[node as usize].crashed {
        return;
    }
    eng.nodes[node as usize].crashed = true;
    // The repository stops routing fetches to the dead replica.
    eng.repo.set_down(NodeId(node), true);

    // 1. Sever every flow touching the node. Contexts are stashed and
    // handled *after* guests and jobs below know about the crash, so the
    // loss handlers see consistent state.
    let ids = eng.net.flows_touching(NodeId(node));
    let lost = sever(eng, ids);

    // 2. Guests hosted on the node die with it.
    let dead: Vec<VmIdx> = (0..eng.vms.len() as u32)
        .filter(|&v| eng.vms[v as usize].vm.host == node && !eng.vms[v as usize].crashed)
        .collect();
    for v in dead {
        crash_vm(eng, v);
    }

    // 3. Live migration jobs using the node as source or destination
    // fail with a typed reason (queued jobs included: their start event
    // would only discover the crash later).
    for ji in 0..eng.jobs.len() as u32 {
        let job = JobId(ji);
        let (v, job_dest, terminal) = {
            let j = &eng.jobs[ji as usize];
            (j.vm, j.dest, j.status.is_terminal())
        };
        if terminal {
            continue;
        }
        // A job that has not started yet is judged by its *own*
        // scheduled endpoints; only a started job owns the VM's live
        // migration slot. (At most one non-terminal job exists per VM,
        // so the slot can never belong to a different job — this split
        // keeps that true by construction rather than by invariant.)
        let queued = eng.jobs[ji as usize].status == super::job::MigrationStatus::Queued;
        let live = eng.vms[v as usize]
            .migration
            .as_ref()
            .filter(|m| !queued && !matches!(m.phase, MigPhase::Complete | MigPhase::Aborted))
            .map(|m| (m.source, m.dest));
        let reason = match live {
            Some((_, dst)) if dst == node => Some(FailureReason::DestinationCrashed { node }),
            Some((src, _)) if src == node => Some(FailureReason::SourceCrashed { node }),
            Some(_) => None,
            // Not started yet: judge by the scheduled endpoints.
            None if job_dest == node => Some(FailureReason::DestinationCrashed { node }),
            None if eng.vms[v as usize].vm.host == node => {
                Some(FailureReason::SourceCrashed { node })
            }
            None => None,
        };
        if let Some(reason) = reason {
            // The autonomic rebalancer may rescue a destination-crash
            // casualty by re-placing it instead of failing it, and the
            // resilience layer may absorb the failure into a backed-off
            // retry (or keep a mid-backoff job alive across a
            // destination crash).
            if !super::rebalance::try_replan_crash(eng, job, &reason)
                && !super::resilient::crash_rescue(eng, job, &reason)
            {
                abort_migration(eng, job, reason);
            }
        }
    }

    // 4. Now that ownership is settled, recover the severed flows.
    for ctx in lost {
        flow_lost(eng, ctx);
    }
}

/// Bring a crashed node back as an empty, healthy host (replacement
/// hardware at the same slot). Guests that died with the crash stay
/// dead, failed jobs stay failed; what changes is *capacity*: the node
/// serves as a migration destination and repository replica again, and
/// parked intent placements get an immediate retry. Stale completions
/// from the crash window are harmless: purged guest ops no-op, and
/// transfer reads of aborted migrations are dropped by the phase/epoch
/// guards.
fn restore_node(eng: &mut Engine, node: u32) {
    if !eng.nodes[node as usize].crashed {
        return;
    }
    eng.nodes[node as usize].crashed = false;
    eng.repo.set_down(NodeId(node), false);
    // A healthy destination exists again: intent steps parked on "no
    // healthy destination" can place now.
    super::orchestrator::poke_drain(eng);
}

/// Cancel flows `ids`, given in ascending order (determinism: two
/// identical runs sever in the same order), and return their contexts
/// in that order.
fn sever(eng: &mut Engine, ids: Vec<FlowId>) -> Vec<FlowCtx> {
    let now = eng.now;
    let lost: Vec<FlowCtx> = ids
        .into_iter()
        .filter_map(|id| {
            eng.net.cancel_flow(now, id);
            eng.flow_ctx.remove(&id)
        })
        .collect();
    if !lost.is_empty() {
        eng.resync_net();
    }
    lost
}

/// The flows whose context `pick` selects, in ascending id order.
fn flows_where(eng: &Engine, pick: impl Fn(&FlowCtx) -> bool) -> Vec<FlowId> {
    let mut ids: Vec<FlowId> = eng
        .flow_ctx
        .iter()
        .filter(|(_, ctx)| pick(ctx))
        .map(|(&id, _)| id)
        .collect();
    ids.sort_unstable();
    ids
}

/// The guest on `v` dies: stop the VM, cancel its compute timer, purge
/// its in-flight ops (completions already in the pipe become no-ops),
/// and drop everything that would re-enter its driver.
fn crash_vm(eng: &mut Engine, v: VmIdx) {
    let now = eng.now;
    let compute_ev = {
        let vm = &mut eng.vms[v as usize];
        vm.crashed = true;
        if vm.vm.state() != VmState::Stopped {
            vm.vm.stop(now);
        }
        vm.held_completions.clear();
        vm.fsync_waiters.clear();
        vm.kupdate_credit = 0;
        vm.compute.take().and_then(|rt| rt.ev)
    };
    if let Some(ev) = compute_ev {
        eng.queue.cancel(ev);
    }
    eng.ops.retain(|o| o.vm != v);
}

/// Recovery for one severed flow, after crash ownership is settled.
/// Also the routing target for flows that would have *started* toward a
/// dead endpoint (see `Engine::start_flow`).
pub(crate) fn flow_lost(eng: &mut Engine, ctx: FlowCtx) {
    match ctx {
        // Migration transfers: the owning job was already aborted (a
        // migration flow always touches the crashed source or
        // destination); the state teardown happened in abort_migration.
        FlowCtx::Mem { .. } | FlowCtx::Batch(_) => {}
        // A mirrored write gates a guest op: if the guest survived (the
        // destination crashed), the write completes locally — degraded,
        // not hung. For a dead guest the op was purged and this no-ops.
        FlowCtx::MirrorWrite { op, .. } => eng.op_part_done(op),
        // A repository fetch lost its wire: retried from a surviving
        // replica while the guest lives.
        FlowCtx::RepoFetch(fetch) => io::repo_lost(eng, fetch),
        // One stripe leg of a PVFS op: complete the part degraded so the
        // guest does not hang on a dead server (full PVFS failover is
        // out of scope; the repository models replication, PVFS does
        // not).
        FlowCtx::PvfsLeg(leg) => eng.op_part_done(leg.op),
        // Application message to/from a dead peer: the op completes as
        // an error-return to the guest (no payload modeling).
        FlowCtx::Halo { op } => eng.op_part_done(op),
    }
}

/// Recovery for a disk completion on a crashed node (the device died
/// mid-request; the context routes to a loss handler instead of its
/// normal completion path).
pub(crate) fn disk_lost(eng: &mut Engine, node: u32, ctx: DiskCtx) {
    match ctx {
        // Reads feeding migration transfers on a dead node: the owning
        // job was aborted when the node crashed; nothing to do.
        DiskCtx::BatchRead(_) => {}
        // Guest op on the dead host: the op was purged with the guest.
        DiskCtx::VmOp { op } => eng.op_part_done(op),
        DiskCtx::Writeback { vm, .. } => {
            // The write-back pump died with the guest kernel; keep the
            // inflight counter honest for the (dead) bookkeeping.
            let vmrt = &mut eng.vms[vm as usize];
            vmrt.wb_inflight = vmrt.wb_inflight.saturating_sub(1);
        }
        // Replica-side read for a repository fetch: retried from a live
        // replica while the guest lives.
        DiskCtx::RepoRead(fetch) => io::repo_lost(eng, fetch),
        DiskCtx::Ingest { .. } => {
            let n = &mut eng.nodes[node as usize];
            n.ingest_inflight = n.ingest_inflight.saturating_sub(1);
            n.ingest_backlog = 0; // received bytes die with the host cache
        }
        // PVFS server-side work on a dead server: degraded completion.
        DiskCtx::PvfsServer(leg) => eng.op_part_done(leg.op),
    }
}

// ---------------- migration abort ----------------

/// Abort a migration job: cancel its transfer flows, tear down the
/// per-phase state (resuming a paused guest at the source when it
/// survives), release reads blocked on pulls, and park the job at
/// `Failed` with `reason`. Partial progress (chunks pushed/pulled,
/// rounds, timeline) survives in the migration slot for the report.
pub(crate) fn abort_migration(eng: &mut Engine, job: JobId, reason: FailureReason) {
    let v = eng.jobs[job.0 as usize].vm;
    teardown_transfer(eng, v);
    eng.fail_job_reason(job, reason);
    eng.update_compute(v);
}

/// Tear down VM `v`'s in-flight transfer without deciding the job's
/// fate: cancel its flows, unwind the per-phase state (resuming a
/// paused guest at the source when it survives), and release reads
/// blocked on pulls. Shared by the abort path above (job → `Failed`)
/// and the autonomic re-plan path (job → re-queued toward a new
/// destination); the caller settles the job afterwards.
pub(crate) fn teardown_transfer(eng: &mut Engine, v: VmIdx) {
    let now = eng.now;

    // Sever the job's remaining transfer flows: memory rounds, storage
    // batches and mirror writes. The crash path already removed those
    // touching the crashed node; deadlines sever all. Guest I/O flows
    // (repo fetches, PVFS legs, halos) are untouched: aborting a
    // migration must not break the workload.
    let ids = flows_where(eng, |ctx| {
        matches!(ctx,
            FlowCtx::Mem { vm }
            | FlowCtx::Batch(Batch { vm, .. })
            | FlowCtx::MirrorWrite { vm, .. } if *vm == v)
    });
    let lost = sever(eng, ids);

    let phase = eng.vms[v as usize].migration.as_ref().map(|m| m.phase);
    if !matches!(phase, None | Some(MigPhase::Complete | MigPhase::Aborted)) {
        let pre_control = phase != Some(MigPhase::PullPhase);
        migration::set_phase(eng, v, MigPhase::Aborted);
        let vm = &mut eng.vms[v as usize];
        // Before control moved, the source keeps the guest (resumed if
        // it survives a paused stop-and-copy) and its authoritative
        // disk; the half-built destination replica is discarded. After,
        // the guest keeps running at the destination.
        let resumed = pre_control && {
            vm.dest_store = None;
            let paused = !vm.crashed && vm.vm.state() == VmState::Paused;
            if paused {
                vm.vm.resume(now, None);
            }
            paused
        };
        // Stamp the attempt's downtime now that an interrupted pause
        // window is closed: `downtime_so_far` reads the stamp once the
        // phase is Aborted.
        let total = vm.vm.total_downtime();
        let mut waiters = Vec::new();
        if let Some(mig) = vm.migration.as_mut() {
            mig.downtime = total - mig.downtime_before;
            mig.stalled_until = None;
            mig.source_store = None;
            // An auto-converge throttle never outlives its attempt (the
            // caller's update_compute makes this take effect).
            super::resilient::release_throttle(mig);
            // Reads blocked on severed pulls unblock (in chunk order);
            // never-pulled chunks surface as `consistent: false`
            // bookkeeping, not as a hang.
            waiters.extend(mig.pull_waiters.drain());
        }
        if resumed {
            eng.release_held(v);
            io::pump_writeback(eng, v);
        }
        waiters.sort_unstable_by_key(|&(c, _)| c);
        for op in waiters.into_iter().flat_map(|(_, ops)| ops) {
            eng.op_part_done(op);
        }
    }
    for ctx in lost {
        flow_lost(eng, ctx);
    }
}

// ---------------- transfer stall ----------------

/// Sever the in-flight storage batches of `v`'s migration and suspend
/// its push/pull pipelines (and the remaining-set handoff) until the
/// stall clears. Lost chunks return to the surviving manifest: the
/// hybrid source re-queues them subject to the same `Threshold`, the
/// destination re-heaps them under their write counts, and the
/// precopy/mirror bulk streams re-mark them dirty. Nothing already
/// stamped at the destination is re-sent unless rewritten.
fn stall_transfer(eng: &mut Engine, v: VmIdx, secs: f64) {
    let now = eng.now;
    let job = match eng.vms[v as usize].migration.as_ref() {
        Some(mig) if !matches!(mig.phase, MigPhase::Complete | MigPhase::Aborted) => mig.job,
        _ => return,
    };
    // A retrying policy abandons the stalled attempt outright (backed-
    // off resume at the surviving destination) instead of waiting the
    // stall out with the pipelines suspended.
    if super::resilient::try_retry(eng, job, AttemptReason::Stalled) {
        return;
    }
    // Sever in-flight storage batches of every kind (memory flows ride
    // the hypervisor's own channel and are not storage transfers).
    let ids = flows_where(eng, |ctx| matches!(ctx, FlowCtx::Batch(b) if b.vm == v));
    let lost = sever(eng, ids);
    let Some(mig) = eng.vms[v as usize].migration.as_mut() else {
        return;
    };
    for ctx in lost {
        if let FlowCtx::Batch(batch) = ctx {
            mig.batch_lost(batch);
        }
    }
    let until = now + SimDuration::from_secs_f64(secs);
    // Overlapping stalls extend, never shorten.
    let until = match mig.stalled_until {
        Some(t) if t > until => t,
        _ => until,
    };
    mig.stalled_until = Some(until);
    eng.queue.schedule(until, Ev::StallOver(v));
}

/// A stall window ended: resume the pipelines from the surviving
/// manifest (stale timers from superseded, longer stalls are ignored),
/// and re-issue the on-demand pulls that were deferred mid-stall.
pub(crate) fn stall_over(eng: &mut Engine, v: VmIdx) {
    let now = eng.now;
    let deferred = {
        let Some(mig) = eng.vms[v as usize].migration.as_mut() else {
            return;
        };
        match mig.stalled_until {
            Some(t) if t <= now => mig.stalled_until = None,
            _ => return, // superseded by a longer stall, or not stalled
        }
        std::mem::take(&mut mig.stalled_ondemand)
    };
    if !deferred.is_empty() {
        // Their reads are still parked as pull waiters; one batch
        // requests the lot with on-demand priority.
        migration::issue_batch(eng, v, BatchKind::OnDemand, deferred);
    }
    migration::pump_push(eng, v);
    migration::pump_pull(eng, v);
    migration::maybe_handoff(eng, v);
    migration::maybe_complete(eng, v);
}

// ---------------- deadlines ----------------

/// A job's deadline fired: abort unless it already finished. Only the
/// armed deadline counts — the job's `deadline_at`, which a retry
/// clears and its fire re-arms — so a fire at any other instant is
/// stale and ignored. Under a retrying policy a live one may be
/// absorbed into a backed-off retry instead of aborting.
pub(crate) fn job_deadline(eng: &mut Engine, job: JobId) {
    let j = &eng.jobs[job.0 as usize];
    let deadline = match j.deadline {
        Some(d) if j.deadline_at == Some(eng.now) && !j.status.is_terminal() => d,
        _ => return,
    };
    if super::resilient::try_retry(eng, job, AttemptReason::DeadlineExceeded) {
        return;
    }
    let deadline_secs = deadline.as_secs_f64();
    abort_migration(eng, job, FailureReason::DeadlineExceeded { deadline_secs });
}
