//! Migration orchestration: the memory copy pipeline, the storage batch
//! pipeline, control transfer, and completion — the engine-side
//! realization of Figure 2 of the paper.
//!
//! Each attempt of a job is one [`MigrationRt`] record in its VM's
//! `migration` slot. The record names its job (`MigrationRt::job`), so
//! milestones, statuses and the report go to that job however many jobs
//! the VM has had since. Its storage policy state is one [`Transfer`],
//! chosen by the strategy at start. Its lifecycle phase changes only
//! through [`set_phase`], which also moves the job's status at the three
//! phases that are lifecycle steps.
//!
//! Local storage moves through one pipeline in three guises
//! ([`BatchKind`]): the source's push (Algorithms 1–2) and the
//! destination's prefetch and on-demand pulls (Algorithms 3–4).
//! [`issue_batch`] counts a batch in flight and sends it: a push straight
//! to the source disk, a pull as a request that the source serves from
//! its disk. [`batch_read_done`] stamps the chunk versions and starts the
//! flow under the kind's traffic tag. [`batch_arrived`] lands the chunks
//! and runs the kind's tail: a push may refill the push window and let
//! the handoff go, a pull wakes its reads, refills the prefetch window
//! and may complete the migration. A transfer stall loses the batches
//! in flight through [`MigrationRt::batch_lost`], which returns their
//! chunks to the surviving manifest. One guard, [`batch_owner`], drops
//! a batch, request or read whose migration ended or was superseded.
//!
//! Guest memory moves through one pipeline too, in six kinds of copy
//! ([`CopyKind`]): pre-copy rounds (the first pass counts as one),
//! linger rounds while a pre-copy or mirror storage stream converges,
//! deferral rounds the hard downtime limit orders, the stop-and-copy
//! flush, and post-copy memory's handover and background pull.
//! [`start_copy`] starts each: it counts the copy on the record by its
//! kind, notes its milestone, and puts it on the wire under
//! [`FlowCtx::Mem`], as `streams` shards except the one-flow pull. The
//! record holds at most one copy in flight ([`MigrationRt::copy`]).
//! [`mem_copy_done`] lands every shard behind one guard, a live record
//! with a copy in flight; the last shard clears the copy and its kind
//! decides what follows. The guest memory dirtied between copies is
//! measured by [`MigrationRt::take_dirt`] against one dirt mark.

use super::io;
use super::job::{FailureReason, JobId, MigrationStatus};
use super::report::Milestone;
use super::types::*;
use super::Engine;
use crate::error::EngineError;
use crate::policy::{HybridDest, StrategyKind};
use lsm_blockdev::{ChunkId, ChunkSet, WriteCounter};
use lsm_hypervisor::{MemoryProfile, NextStep, PostcopyMemory, PrecopyMemory};
use lsm_simcore::time::SimDuration;
use std::collections::HashMap;

/// Poll interval while a stop-and-copy waits on storage convergence.
const LINGER_POLL: SimDuration = SimDuration::from_millis(100);
/// Minimum dirtied bytes worth an extra linger memory round.
const LINGER_ROUND_MIN: u64 = 1 << 20;

pub(crate) fn start_migration(eng: &mut Engine, job: JobId) {
    let now = eng.now();
    let (v, dest) = {
        let j = eng.job(job);
        if j.status.is_terminal() {
            // Failed before it began (e.g. the destination crashed while
            // the job was still queued).
            return;
        }
        (j.vm, j.dest)
    };
    // Faults may have raced the start event: a migration cannot begin
    // toward a dead destination or from under a dead guest.
    if eng.node_crashed(dest) {
        eng.fail_job_reason(job, FailureReason::DestinationCrashed { node: dest });
        return;
    }
    if eng.vm(v).crashed {
        let node = eng.vm(v).vm.host;
        eng.fail_job_reason(job, FailureReason::SourceCrashed { node });
        return;
    }
    let source = eng.vm(v).vm.host;
    // Schedule-time validation rejects these up front; they can recur
    // here only when the engine is driven below the checked API (e.g. a
    // VM migrated by external state mutation between schedule and
    // start). Runtime policy: park the job at Failed, never panic.
    if source == dest {
        eng.fail_job(job, EngineError::SameHost { vm: v, node: dest });
        return;
    }
    match eng.vm(v).migration.as_ref().map(|m| m.phase) {
        // A finished (or aborted) migration moves into its job's archive
        // so this one can use the per-VM slot (migrate-again support —
        // including re-migration after a destination crash or deadline).
        Some(MigPhase::Complete | MigPhase::Aborted) => eng.archive_vm_migration(v, job),
        Some(_) => {
            eng.fail_job(job, EngineError::DuplicateMigration { vm: v });
            return;
        }
        None => {}
    }

    // Memory profile: the workload's guest-RAM footprint. The host page
    // cache is *not* guest memory and does not migrate — the destination
    // host starts cold (which is why reads there can need on-demand
    // pulls, §4.3).
    let spec = eng.vm(v).driver.mem_spec();
    let ram = eng.vm(v).vm.ram_bytes;
    let touched = spec.touched_bytes.min(ram);
    let wss = spec.wss_bytes.min(touched);
    let profile = MemoryProfile::new(ram, touched, wss, spec.anon_dirty_rate);
    let mut mem = PrecopyMemory::new(profile, eng.cfg().mem);

    let strategy = eng.vm(v).strategy;
    let threshold = eng.cfg().threshold;
    let nchunks = eng.cfg().nchunks();
    // A retried attempt resumes from its transfer checkpoint (the
    // surviving destination's chunk store): chunks whose stamped
    // versions still match the authoritative disk are dropped from the
    // initial source manifest — never re-sent — and the checkpoint
    // store becomes the new attempt's destination store below. Absent
    // `[resilience]` (or with the checkpoint invalidated) `resume` is
    // `None` and this is the unfiltered PR 6 path.
    let resume = super::resilient::take_resume(eng, job, dest);
    let mut resumed_chunks: u64 = 0;
    let transfer = {
        let disk = &eng.vm(v).disk;
        // The chunks to move: what the guest modified for the hybrid
        // scheme and postcopy, everything local for precopy and mirror.
        let mut manifest = match strategy {
            StrategyKind::Hybrid | StrategyKind::Postcopy => disk.modified().clone(),
            StrategyKind::Precopy | StrategyKind::Mirror => disk.locally_present(),
            StrategyKind::SharedFs => ChunkSet::new(nchunks),
        };
        if let Some(store) = resume.as_ref() {
            for c in store.present().iter() {
                if manifest.contains(c) && store.version(c) == disk.version(c) {
                    manifest.remove(c);
                    resumed_chunks += 1;
                }
            }
        }
        Transfer::start(strategy, manifest, threshold)
    };
    if resumed_chunks > 0 {
        let bytes = resumed_chunks * eng.cfg().chunk_size;
        super::resilient::record_resumed(eng, job, bytes);
    }

    // Memory strategy: iterative pre-copy (the paper's setting) or
    // post-copy (§6 future work — the memory-independence ablation).
    // Pre-copy-style storage strategies cannot work under post-copy
    // memory: they have no pull path, so the disk *must* converge before
    // control moves — but post-copy hands control over immediately
    // (QEMU's block migration is likewise coupled to pre-copy memory).
    let postcopy_memory = eng.cfg().postcopy_memory;
    if postcopy_memory
        && matches!(
            eng.vm(v).strategy,
            StrategyKind::Precopy | StrategyKind::Mirror
        )
    {
        let strategy = eng.vm(v).strategy;
        eng.fail_job(job, EngineError::IncompatibleMemoryStrategy { strategy });
        return;
    }
    let (first, postcopy_mem) = if postcopy_memory {
        let hot = (64u64 << 20).min(touched);
        let mut pm = PostcopyMemory::new(profile, hot);
        (pm.start(), Some(pm))
    } else {
        (mem.start(), None)
    };
    let downtime_before = eng.vm(v).vm.total_downtime();
    eng.vm_mut(v).dest_store = Some(match resume {
        // The checkpoint's stamped chunks ARE the resumed progress.
        Some(store) => store,
        None => lsm_blockdev::ChunkStore::new(nchunks),
    });
    // New migration generation: completions of any still-in-flight disk
    // reads issued by a previous (aborted) migration of this VM now
    // carry a stale epoch and will be dropped on arrival.
    eng.vm_mut(v).mig_epoch += 1;
    eng.vm_mut(v).migration = Some(MigrationRt {
        job,
        strategy,
        dest,
        source,
        phase: MigPhase::Active,
        mem,
        postcopy_mem,
        copy: None,
        round_started: now,
        io_dirty_accum: 0.0,
        linger_rounds: 0,
        pending_stop_bytes: 0,
        transfer,
        in_flight: [0; 3],
        pull_waiters: HashMap::new(),
        source_store: None,
        mirror_flows_inflight: 0,
        handoff_sent: false,
        stalled_until: None,
        stalled_ondemand: Vec::new(),
        requested_at: now,
        control_at: None,
        completed_at: None,
        mem_rounds: 0,
        throttled: false,
        pushed_chunks: 0,
        pulled_chunks: 0,
        ondemand_chunks: 0,
        consistent: None,
        downtime_before,
        downtime: SimDuration::ZERO,
        throttle_step: 0,
        converge_hot_rounds: 0,
        downtime_deferrals: 0,
        degraded_secs: 0.0,
        degrade_mark: now,
        degrade_loss: 0.0,
        timeline: Vec::new(),
    });
    eng.note_milestone(v, Milestone::Requested);
    eng.set_job_status(job, MigrationStatus::TransferringMemory);

    eng.send_ctl(source, dest, Ctl::MigrationNotify);
    if postcopy_memory {
        // Post-copy hands control over immediately: pause, ship the hot
        // set, resume at the destination. The storage push phase gets no
        // window — the hybrid scheme degenerates to prioritized pulling,
        // exactly what §6 anticipates examining.
        eng.vm_mut(v).vm.pause(now);
        set_phase(eng, v, MigPhase::StopAndCopy);
        eng.update_compute(v);
        start_copy(eng, v, CopyKind::Handover, first);
        return;
    }
    start_copy(eng, v, CopyKind::Round, first);
    pump_push(eng, v);
    eng.update_compute(v);
}

pub(crate) fn ctl_arrive(eng: &mut Engine, _node: u32, msg: Ctl) {
    match msg {
        Ctl::MigrationNotify => {
            // Destination manager now accepts pushed chunks; in the model
            // the push pipeline handles this implicitly.
        }
        Ctl::TransferIoControl {
            vm,
            remaining,
            counts,
        } => transfer_io_control(eng, vm, remaining, counts),
        Ctl::PullRequest(batch) => read_at_source(eng, batch),
    }
}

// ---------------- memory copies ----------------

/// Start a memory copy of `raw` guest bytes. Its kind is counted on the
/// record first: every kind but the stop flush and the post-copy pull
/// counts a memory round, a linger round also counts a linger round and
/// a deferral round a deferral. A pre-copy round after the first notes
/// [`Milestone::MemRound`] (the first pass begins at
/// [`Milestone::Requested`]), a deferral round
/// [`Milestone::DowntimeDeferred`]. Then the copy goes on the wire as
/// `streams` shards ([`super::qos::mem_shards`]), except the post-copy
/// pull, which is one flow at the full ceiling. The record names it in
/// `copy` until its last shard lands in [`mem_copy_done`].
pub(crate) fn start_copy(eng: &mut Engine, v: VmIdx, kind: CopyKind, raw: u64) {
    let streams = match kind {
        CopyKind::Pull => 1,
        _ => eng.qos.streams,
    };
    let (shards, cap) = super::qos::mem_shards(eng, raw, streams);
    let (source, dest, milestone) = {
        let Some(mig) = eng.vm_mut(v).migration.as_mut() else {
            return;
        };
        let milestone = match kind {
            CopyKind::Round => {
                mig.mem_rounds += 1;
                (mig.mem_rounds > 1).then_some(Milestone::MemRound(mig.mem_rounds))
            }
            CopyKind::Linger => {
                mig.mem_rounds += 1;
                mig.linger_rounds += 1;
                None
            }
            CopyKind::Deferral => {
                mig.mem_rounds += 1;
                mig.downtime_deferrals += 1;
                Some(Milestone::DowntimeDeferred(mig.downtime_deferrals))
            }
            CopyKind::Handover => {
                mig.mem_rounds += 1;
                None
            }
            CopyKind::Stop { .. } | CopyKind::Pull => None,
        };
        mig.copy = Some(MemCopy {
            kind,
            raw,
            shards: shards.len() as u32,
        });
        (mig.source, mig.dest, milestone)
    };
    if let Some(m) = milestone {
        eng.note_milestone(v, m);
    }
    for bytes in shards {
        eng.start_flow(source, dest, bytes, Some(cap), FlowCtx::Mem { vm: v });
    }
}

/// One shard of VM `v`'s memory copy landed. Only a live record with a
/// copy in flight counts it; the copy lands with its last shard, leaves
/// the record, and its kind decides what follows:
///
/// * a pre-copy round asks the pre-copy machine for another round or
///   the stop;
/// * a linger round takes the next linger step;
/// * a deferral round makes what dirtied meanwhile the stop backlog and
///   tries the stop again;
/// * the stop flush lands its forced chunks, and it and the post-copy
///   handover switch over;
/// * the post-copy pull ends the remote page faults and may complete
///   the migration.
///
/// Kept out of line, as the per-kind landings it replaces were: memory
/// copies are under 1 % of events, and inlined into the network drain
/// that lands every flow it made lsmbench's `fleet1024` slower.
#[inline(never)]
pub(crate) fn mem_copy_done(eng: &mut Engine, v: VmIdx) {
    let now = eng.now();
    let vm = eng.vm_mut(v);
    let Some(mig) = vm
        .migration
        .as_mut()
        .filter(|m| !matches!(m.phase, MigPhase::Complete | MigPhase::Aborted))
    else {
        return;
    };
    // Multifd: the copy lands with its last shard.
    let Some(copy) = mig.copy.take_if(|c| {
        c.shards -= 1;
        c.shards == 0
    }) else {
        return;
    };
    let strategy = mig.strategy;
    match copy.kind {
        CopyKind::Round => {
            let (dirtied, wall) = mig.take_dirt(now, vm.started_at);
            let rate = if wall > 1e-9 {
                copy.raw as f64 / wall
            } else {
                f64::MAX
            };
            match mig.mem.round_done(dirtied, rate) {
                NextStep::Round { bytes } => {
                    // Auto-converge inspects the finished round's dirty
                    // flux before the next round starts.
                    super::resilient::auto_converge_round(eng, v, dirtied, wall);
                    start_copy(eng, v, CopyKind::Round, bytes);
                }
                NextStep::StopAndCopy { bytes, throttled } => {
                    mig.throttled |= throttled;
                    mig.pending_stop_bytes = bytes;
                    try_stop(eng, v);
                }
            }
        }
        CopyKind::Linger => linger_step(eng, v),
        CopyKind::Deferral => {
            // The backlog is delivered. The pre-copy machine already
            // decided to stop and is not consulted again.
            mig.pending_stop_bytes = mig.take_dirt(now, vm.started_at).0;
            try_stop(eng, v);
        }
        CopyKind::Stop { forced } => {
            // The chunks a forced convergence owed travelled inside the
            // flush.
            if let Some(ds) = vm.dest_store.as_mut() {
                for &c in &forced {
                    ds.apply(c, vm.store.version(c));
                }
            }
            mig.pushed_chunks += forced.len() as u64;
            mig.mem.finish();
            switch_over(eng, v, strategy);
        }
        CopyKind::Handover => switch_over(eng, v, strategy),
        CopyKind::Pull => {
            if let Some(pm) = mig.postcopy_mem.as_mut() {
                pm.pull_done();
            }
            eng.update_compute(v);
            maybe_complete(eng, v);
        }
    }
}

/// Storage-side gate for the stop-and-copy.
///
/// Only the strategies whose migration *ends at* control transfer must be
/// fully converged before the pause (pre-copy block migration and
/// mirroring, §3) — including any in-flight write-backs, whose manager
/// writes would otherwise land after the final snapshot. The hybrid and
/// postcopy schemes never gate the stop-and-copy on storage: that is the
/// paper's central design point ("storage does not delay in any way the
/// transfer of control", §4.1) — their write-backs are instead drained
/// before the remaining-set handoff.
fn storage_converged(eng: &Engine, v: VmIdx) -> bool {
    let Some(mig) = eng.vm(v).migration.as_ref() else {
        return true;
    };
    match &mig.transfer {
        Transfer::Precopy(src) => src.converged() && mig.in_flight[BatchKind::Push as usize] == 0,
        Transfer::Mirror(src) => {
            src.converged()
                && mig.in_flight[BatchKind::Push as usize] == 0
                && mig.mirror_flows_inflight == 0
        }
        Transfer::Hybrid { .. } | Transfer::Idle => true,
    }
}

/// Attempt the stop-and-copy; if storage has not converged, enter the
/// linger phase (extra memory rounds while the block/bulk stream drains).
fn try_stop(eng: &mut Engine, v: VmIdx) {
    if storage_converged(eng, v) {
        initiate_stop(eng, v, false);
        return;
    }
    set_phase(eng, v, MigPhase::Linger);
    eng.schedule_in(LINGER_POLL, Ev::ConvergencePoll(v));
}

/// One linger step, when a linger round lands or a poll finds none in
/// flight: take the dirt since the mark, then stop if storage has
/// converged, force the stop at the round cap, or re-send the fresh dirt
/// (or poll again while there is too little of it).
fn linger_step(eng: &mut Engine, v: VmIdx) {
    let now = eng.now();
    let cap = eng.cfg().linger_round_cap;
    let vm = eng.vm_mut(v);
    let Some(mig) = vm.migration.as_mut() else {
        return;
    };
    let (dirtied, _) = mig.take_dirt(now, vm.started_at);
    let rounds = mig.linger_rounds;
    if storage_converged(eng, v) {
        initiate_stop(eng, v, false);
    } else if rounds >= cap {
        initiate_stop(eng, v, true);
    } else if dirtied >= LINGER_ROUND_MIN {
        start_copy(eng, v, CopyKind::Linger, dirtied);
    } else {
        eng.schedule_in(LINGER_POLL, Ev::ConvergencePoll(v));
    }
}

/// A linger poll fired: stale unless the migration still lingers with
/// no copy in flight.
pub(crate) fn convergence_poll(eng: &mut Engine, v: VmIdx) {
    let lingering = eng
        .vm(v)
        .migration
        .as_ref()
        .is_some_and(|m| m.phase == MigPhase::Linger && m.copy.is_none());
    if lingering {
        linger_step(eng, v);
    }
}

/// Pause the VM and flush the final memory (plus, on forced convergence,
/// every chunk the storage stream still owed).
fn initiate_stop(eng: &mut Engine, v: VmIdx, force_storage: bool) {
    let now = eng.now();
    // A switchover that would blow the hard downtime budget rides one
    // more live copy round instead (bounded; never on the forced path —
    // the linger cap already decided liveness beats the budget there).
    if !force_storage && super::resilient::defer_switchover(eng, v) {
        return;
    }
    let chunk_size = eng.cfg().chunk_size;
    let Some(mig) = eng.vm_mut(v).migration.as_mut() else {
        return;
    };
    let forced = if force_storage {
        mig.throttled = true;
        mig.transfer.drain_bulk()
    } else {
        Vec::new()
    };
    let raw = mig.pending_stop_bytes + forced.len() as u64 * chunk_size;
    set_phase(eng, v, MigPhase::StopAndCopy);
    eng.vm_mut(v).vm.pause(now);
    eng.update_compute(v);
    start_copy(eng, v, CopyKind::Stop { forced }, raw);
}

/// The stop flush or the post-copy handover landed. The hybrid and
/// storage post-copy schemes drain their pushes before the remaining-set
/// handoff moves control; the others move control now.
fn switch_over(eng: &mut Engine, v: VmIdx, strategy: StrategyKind) {
    match strategy {
        StrategyKind::Hybrid | StrategyKind::Postcopy => {
            set_phase(eng, v, MigPhase::SyncDrain);
            maybe_handoff(eng, v);
        }
        StrategyKind::Precopy | StrategyKind::Mirror | StrategyKind::SharedFs => {
            control_transfer(eng, v);
            maybe_complete(eng, v);
        }
    }
}

/// The hypervisor's `sync`: the source hands the destination the
/// remaining set and the write counts (Figure 2, "Send list of remaining
/// chunks").
fn do_handoff(eng: &mut Engine, v: VmIdx) {
    let (source, dest, remaining, counts) = {
        let Some(mig) = eng.vm_mut(v).migration.as_mut() else {
            return;
        };
        let Transfer::Hybrid { src, .. } = &mut mig.transfer else {
            return;
        };
        let (remaining, counts) = src.handoff();
        (mig.source, mig.dest, remaining, counts)
    };
    eng.note_milestone(v, Milestone::RemainingSetSent);
    eng.send_ctl(
        source,
        dest,
        Ctl::TransferIoControl {
            vm: v,
            remaining,
            counts,
        },
    );
}

fn transfer_io_control(eng: &mut Engine, v: VmIdx, remaining: ChunkSet, counts: WriteCounter) {
    let prioritized = eng.cfg().prefetch_priority;
    {
        // The handoff message may arrive after a fault aborted the
        // migration: control then *stays* at the source.
        let Some(mig) = eng.vm_mut(v).migration.as_mut() else {
            return;
        };
        if mig.phase != MigPhase::SyncDrain {
            return;
        }
        let Transfer::Hybrid { dst, .. } = &mut mig.transfer else {
            return;
        };
        *dst = Some(HybridDest::start(remaining, counts, prioritized));
    }
    set_phase(eng, v, MigPhase::PullPhase);
    control_transfer(eng, v);
    pump_pull(eng, v);
    maybe_complete(eng, v);
}

/// Control moves to the destination: swap the physical stores, drop the
/// source's cached base chunks, resume the guest on the new host. Under
/// post-copy memory the background pull starts.
fn control_transfer(eng: &mut Engine, v: VmIdx) {
    let now = eng.now();
    {
        let vm = eng.vm_mut(v);
        let Some(mig) = vm.migration.as_mut() else {
            return;
        };
        let Some(dest_store) = vm.dest_store.take() else {
            return;
        };
        mig.control_at = Some(now);
        // Switchover releases the auto-converge throttle (the
        // update_compute below makes it take effect).
        super::resilient::release_throttle(mig);
        let source_store = std::mem::replace(&mut vm.store, dest_store);
        mig.source_store = Some(source_store);
        let dest = mig.dest;
        vm.disk.demote_cached_base();
        // The source host's page cache stays behind; the destination
        // host starts with exactly the pushed chunks warm (they were
        // just written through its page cache). Disjoint field borrows:
        // no intermediate collection of the (possibly huge) present set.
        vm.cache.clear();
        vm.kupdate_credit = 0;
        let (store, cache) = (&vm.store, &mut vm.cache);
        for c in store.present().iter() {
            cache.fill(c);
        }
        vm.vm.resume(now, Some(dest));
    }
    eng.note_milestone(v, Milestone::ControlTransferred);
    eng.update_compute(v);
    eng.release_held(v);
    io::pump_writeback(eng, v);
    // Post-copy memory: the background page pull starts now that the
    // guest runs at the destination.
    let pull = eng
        .vm_mut(v)
        .migration
        .as_mut()
        .and_then(|m| m.postcopy_mem.as_mut())
        .map(|pm| pm.handover_done());
    if let Some(bytes) = pull {
        start_copy(eng, v, CopyKind::Pull, bytes);
        eng.update_compute(v); // fault slowdown while pulling
    }
}

// ---------------- storage batches ----------------

/// Source side of the push: keep `transfer_window` batches of up to
/// `transfer_batch` chunks in flight while memory rounds run.
pub(crate) fn pump_push(eng: &mut Engine, v: VmIdx) {
    let batch_max = eng.cfg().transfer_batch as usize;
    let window = eng.cfg().transfer_window;
    loop {
        let batch = {
            let Some(mig) = eng.vm_mut(v).migration.as_mut() else {
                return;
            };
            if !matches!(mig.phase, MigPhase::Active | MigPhase::Linger) {
                return;
            }
            if mig.stalled_until.is_some() {
                return; // transfer stall: initiate nothing until it clears
            }
            if mig.in_flight[BatchKind::Push as usize] >= window {
                return;
            }
            let mut batch =
                Vec::with_capacity(batch_max.min(mig.transfer.source_remaining() as usize));
            while batch.len() < batch_max {
                match mig.transfer.next_send() {
                    Some(c) => batch.push((c, 0)),
                    None => break,
                }
            }
            batch
        };
        if batch.is_empty() {
            return;
        }
        issue_batch(eng, v, BatchKind::Push, batch);
    }
}

/// Fire the remaining-set handoff once the push pipeline has drained
/// after the stop-and-copy (in-flight pushes finish over TCP before the
/// source sends the remaining-chunk list, Figure 2).
pub(crate) fn maybe_handoff(eng: &mut Engine, v: VmIdx) {
    let Some(mig) = eng.vm_mut(v).migration.as_mut() else {
        return;
    };
    let ready = mig.phase == MigPhase::SyncDrain
        && !mig.handoff_sent
        && mig.in_flight[BatchKind::Push as usize] == 0
        // A stall blocks the handoff too: chunks of severed batches must
        // be back in the remaining set first.
        && mig.stalled_until.is_none();
    if ready {
        mig.handoff_sent = true;
        do_handoff(eng, v);
    }
}

/// Destination side of the prefetch: one request (and later one flow and
/// one completion event) carries up to `transfer_batch` chunks, and
/// `transfer_window` of them may be in flight, so the outstanding-chunk
/// budget matches the pre-batching pipeline (window × batch single-chunk
/// requests).
pub(crate) fn pump_pull(eng: &mut Engine, v: VmIdx) {
    let window = eng.cfg().transfer_window;
    let batch_max = eng.cfg().transfer_batch as usize;
    loop {
        let batch = {
            let Some(mig) = eng.vm_mut(v).migration.as_mut() else {
                return;
            };
            if mig.phase != MigPhase::PullPhase
                || mig.in_flight[BatchKind::Prefetch as usize] >= window
            {
                return;
            }
            if mig.stalled_until.is_some() {
                return; // transfer stall: initiate nothing until it clears
            }
            let Some(dst_state) = mig.transfer.dest_mut() else {
                return;
            };
            let mut batch = Vec::with_capacity(batch_max.min(dst_state.remaining_count() as usize));
            while batch.len() < batch_max {
                match dst_state.next_pull() {
                    Some(c) => batch.push((c, 0)),
                    None => break,
                }
            }
            batch
        };
        if batch.is_empty() {
            return;
        }
        issue_batch(eng, v, BatchKind::Prefetch, batch);
    }
}

/// Issue a storage batch of `chunks` (versions not yet stamped): count it
/// in flight and send it on its way, a push straight to the source's
/// disk, a pull as a request to the source. Nothing is issued during a
/// transfer stall: the pumps wait for it to clear, and
/// `io::submit_read` parks on-demand chunks until
/// [`super::fault::stall_over`] issues them.
pub(crate) fn issue_batch(
    eng: &mut Engine,
    v: VmIdx,
    kind: BatchKind,
    chunks: Vec<(ChunkId, u64)>,
) {
    let vm = eng.vm_mut(v);
    let epoch = vm.mig_epoch;
    let Some(mig) = vm.migration.as_mut() else {
        return;
    };
    mig.in_flight[kind as usize] += 1;
    let (source, dest) = (mig.source, mig.dest);
    let batch = Batch {
        vm: v,
        kind,
        chunks,
        epoch,
    };
    if kind == BatchKind::Push {
        read_at_source(eng, batch);
    } else {
        eng.send_ctl(dest, source, Ctl::PullRequest(batch));
    }
}

/// The migration a storage batch still belongs to: the VM's record, if
/// it issued the batch (the batch's `epoch` is the VM's `current` one)
/// and is not over. A batch, request or read of an aborted or completed
/// migration is dropped like any other message for a dead transfer.
fn batch_owner(
    migration: &mut Option<MigrationRt>,
    current: u64,
    epoch: u64,
) -> Option<&mut MigrationRt> {
    migration
        .as_mut()
        .filter(|m| current == epoch && !matches!(m.phase, MigPhase::Complete | MigPhase::Aborted))
}

/// Queue a storage batch's read at the source disk.
fn read_at_source(eng: &mut Engine, batch: Batch) {
    let source = {
        let vm = eng.vm_mut(batch.vm);
        let Some(mig) = batch_owner(&mut vm.migration, vm.mig_epoch, batch.epoch) else {
            return;
        };
        mig.source
    };
    let bytes = eng.cfg().chunk_size * batch.chunks.len() as u64;
    eng.disk_submit(source, bytes, DiskCtx::BatchRead(batch));
}

/// A storage batch's source read finished: stamp the chunk versions and
/// start its flow under the kind's traffic tag. A batch read while a
/// stall cut the wire never leaves and is lost instead.
pub(crate) fn batch_read_done(eng: &mut Engine, mut batch: Batch) {
    let (source, dest) = {
        let vm = eng.vm_mut(batch.vm);
        let Some(mig) = batch_owner(&mut vm.migration, vm.mig_epoch, batch.epoch) else {
            return;
        };
        if mig.stalled_until.is_some() {
            mig.batch_lost(batch);
            return;
        }
        // Stamp versions at send time, in place: the manifest allocated
        // at issue travels through request, disk read and flow untouched.
        let store = mig.source_store.as_ref().unwrap_or(&vm.store);
        for e in &mut batch.chunks {
            e.1 = store.version(e.0);
        }
        (mig.source, mig.dest)
    };
    let raw = eng.cfg().chunk_size * batch.chunks.len() as u64;
    let bytes = super::qos::wire_bytes_storage(eng, raw);
    let cap = super::qos::storage_flow_cap(eng);
    eng.start_flow(source, dest, bytes, cap, FlowCtx::Batch(batch));
}

/// A storage batch landed at the destination, chunk by chunk in manifest
/// order. A push lands in the destination's staging store; then the push
/// window refills and the handoff may go. A pull lands in the live store
/// and streams through the host's page cache, and the reads waiting on
/// its chunks complete; then the prefetch window refills and the
/// migration may complete. A pulled chunk superseded by a local write
/// mid-flight arrives with a stale version: the store rejects it, and the
/// destination state saw `on_write` already.
pub(crate) fn batch_arrived(eng: &mut Engine, batch: Batch) {
    let v = batch.vm;
    let push = batch.kind == BatchKind::Push;
    let bytes = eng.cfg().chunk_size * batch.chunks.len() as u64;
    let mut waiters: Vec<OpId> = Vec::new();
    let dest = {
        let vm = eng.vm_mut(v);
        let Some(mig) = batch_owner(&mut vm.migration, vm.mig_epoch, batch.epoch) else {
            return;
        };
        if push {
            let store = vm.dest_store.as_mut().unwrap_or(&mut vm.store);
            for &(c, ver) in &batch.chunks {
                store.apply(c, ver);
                mig.transfer.send_done(c);
            }
            mig.pushed_chunks += batch.chunks.len() as u64;
        } else {
            for &(c, ver) in &batch.chunks {
                let applied = vm.store.apply(c, ver);
                if applied && !vm.cache.is_dirty(c) {
                    // The pulled content just streamed through this
                    // host's page cache: it is resident (and supersedes
                    // any stale clean copy).
                    vm.cache.invalidate(c);
                    vm.cache.fill(c);
                }
                if let Some(dst) = mig.transfer.dest_mut() {
                    dst.pull_done(c);
                }
                mig.pulled_chunks += 1;
                if let Some(w) = mig.pull_waiters.remove(&c) {
                    waiters.extend(w);
                }
            }
        }
        mig.in_flight[batch.kind as usize] -= 1;
        mig.dest
    };
    for op in waiters {
        eng.op_part_done(op);
    }
    eng.ingest(dest, bytes);
    if push {
        pump_push(eng, v);
        maybe_handoff(eng, v);
    } else {
        pump_pull(eng, v);
        maybe_complete(eng, v);
    }
}

// ---------------- mirror writes ----------------

pub(crate) fn mirror_write_arrived(
    eng: &mut Engine,
    v: VmIdx,
    op: OpId,
    chunks: Vec<(ChunkId, u64)>,
) {
    {
        let vm = eng.vm_mut(v);
        if let Some(mig) = vm.migration.as_mut() {
            if !matches!(mig.phase, MigPhase::Complete | MigPhase::Aborted) {
                let store = vm.dest_store.as_mut().unwrap_or(&mut vm.store);
                for &(c, ver) in &chunks {
                    store.apply(c, ver);
                }
                mig.mirror_flows_inflight = mig.mirror_flows_inflight.saturating_sub(1);
            }
        }
    }
    eng.op_part_done(op);
}

// ---------------- completion ----------------

pub(crate) fn maybe_complete(eng: &mut Engine, v: VmIdx) {
    let done = {
        let Some(mig) = eng.vm(v).migration.as_ref() else {
            return;
        };
        if matches!(mig.phase, MigPhase::Complete | MigPhase::Aborted) {
            return;
        }
        let memory_done = mig
            .postcopy_mem
            .as_ref()
            .map(|p| p.is_done())
            .unwrap_or(true);
        let storage_done = match mig.strategy {
            StrategyKind::Hybrid | StrategyKind::Postcopy => {
                mig.phase == MigPhase::PullPhase
                    && mig.in_flight == [0; 3]
                    && mig.transfer.dest().is_none_or(|d| d.is_complete())
            }
            _ => mig.control_at.is_some(),
        };
        memory_done && storage_done
    };
    if done {
        complete_migration(eng, v);
    }
}

fn complete_migration(eng: &mut Engine, v: VmIdx) {
    let now = eng.now();
    let consistent = {
        let vm = eng.vm(v);
        if vm.strategy == StrategyKind::SharedFs {
            true
        } else {
            vm.store.covers(&vm.disk)
        }
    };
    {
        let vm = eng.vm_mut(v);
        let total_down = vm.vm.total_downtime();
        let Some(mig) = vm.migration.as_mut() else {
            return;
        };
        mig.completed_at = Some(now);
        mig.consistent = Some(consistent);
        mig.downtime = total_down - mig.downtime_before;
        // Only the report's numbers outlive the migration; an aborted
        // attempt keeps its state for partial-progress reports instead.
        mig.source_store = None;
        mig.transfer = Transfer::Idle;
    }
    set_phase(eng, v, MigPhase::Complete);
    eng.update_compute(v);
}

/// Move VM `v`'s migration to `phase`. This is the only writer of
/// [`MigPhase`] once the record exists. Three phases are also steps of
/// the record's job, and its observers see the milestone before the
/// status:
///
/// * `StopAndCopy` notes [`Milestone::StopAndCopy`] and sets
///   [`MigrationStatus::SwitchingOver`];
/// * `PullPhase` sets [`MigrationStatus::TransferringStorage`];
/// * `Complete` notes [`Milestone::Completed`] and sets
///   [`MigrationStatus::Completed`].
///
/// `Active`, `Linger`, `SyncDrain` and `Aborted` emit nothing; an
/// aborted job's status is for the caller to settle.
pub(crate) fn set_phase(eng: &mut Engine, v: VmIdx, phase: MigPhase) {
    let Some(mig) = eng.vm_mut(v).migration.as_mut() else {
        return;
    };
    mig.phase = phase;
    let job = mig.job;
    let (milestone, status) = match phase {
        MigPhase::StopAndCopy => (Some(Milestone::StopAndCopy), MigrationStatus::SwitchingOver),
        MigPhase::PullPhase => (None, MigrationStatus::TransferringStorage),
        MigPhase::Complete => (Some(Milestone::Completed), MigrationStatus::Completed),
        MigPhase::Active | MigPhase::Linger | MigPhase::SyncDrain | MigPhase::Aborted => return,
    };
    if let Some(m) = milestone {
        eng.note_milestone(v, m);
    }
    eng.set_job_status(job, status);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::engine::NullObserver;
    use lsm_simcore::fault::FaultKind;
    use lsm_simcore::units::{KIB, MIB};
    use lsm_simcore::SimTime;
    use lsm_workloads::WorkloadSpec;

    /// Batches of `kind` issued but not on the wire yet: reads at the
    /// source disk, and pull requests on their way there.
    fn before_the_wire(eng: &Engine, v: VmIdx, kind: BatchKind) -> u32 {
        let Some(mig) = eng.vm(v).migration.as_ref() else {
            return 0;
        };
        let flowing = eng
            .net
            .contexts()
            .filter(|(_, ctx)| matches!(ctx, FlowCtx::Batch(b) if b.vm == v && b.kind == kind))
            .count();
        mig.in_flight[kind as usize] - flowing as u32
    }

    /// A stall that lands while a batch is at the source disk (or, for a
    /// pull, on its way there) loses it when the read finishes: halfway
    /// through the stall nothing is in flight. Each migration still
    /// completes consistent, with every per-kind count back at zero.
    /// Postcopy pushes nothing, so its push-phase stall lands during the
    /// first memory round instead.
    #[test]
    fn stalls_with_batches_at_the_source_disk_lose_them_and_complete() {
        let mixed = WorkloadSpec::HotspotMixed {
            offset: 0,
            region_blocks: 64,
            block: 256 * KIB,
            count: 3000,
            theta: 0.8,
            read_fraction: 0.5,
            think_secs: 0.005,
            seed: 7,
        };
        for strategy in [StrategyKind::Hybrid, StrategyKind::Postcopy] {
            for pull_phase in [false, true] {
                let case = format!("{} pull phase {pull_phase}", strategy.label());
                let mut eng = Engine::new(ClusterConfig::small_test()).unwrap();
                let vm = eng.add_vm(0, &mixed, strategy, SimTime::ZERO).unwrap();
                eng.schedule_migration(vm, 1, SimTime::from_secs_f64(1.0))
                    .unwrap();
                let v = vm.0;
                let (phase, kinds) = if pull_phase {
                    (
                        MigPhase::PullPhase,
                        &[BatchKind::Prefetch, BatchKind::OnDemand][..],
                    )
                } else {
                    (MigPhase::Active, &[BatchKind::Push][..])
                };
                let idle_push = strategy == StrategyKind::Postcopy && !pull_phase;
                let mut t = SimTime::from_secs_f64(1.0);
                loop {
                    t += SimDuration::from_millis(1);
                    eng.step_until(t, &mut NullObserver);
                    let mig = eng.vm(v).migration.as_ref();
                    if mig.is_some_and(|m| m.phase == phase)
                        && (idle_push || kinds.iter().any(|&k| before_the_wire(&eng, v, k) > 0))
                    {
                        break;
                    }
                    assert!(t.as_secs_f64() < 100.0, "{case}: no batch at the disk");
                }
                eng.schedule_fault(t, FaultKind::TransferStall { vm: v, secs: 0.5 })
                    .unwrap();
                eng.step_until(t + SimDuration::from_millis(250), &mut NullObserver);
                let mig = eng.vm(v).migration.as_ref().unwrap();
                assert!(mig.stalled_until.is_some(), "{case}");
                assert_eq!(mig.in_flight, [0; 3], "{case}: mid-stall");
                let r = eng.run_until(SimTime::from_secs_f64(600.0));
                let m = r.the_migration();
                assert!(m.completed, "{case}");
                assert_eq!(m.consistent, Some(true), "{case}");
                let mig = eng.vm(v).migration.as_ref().unwrap();
                assert_eq!(mig.in_flight, [0; 3], "{case}: at completion");
            }
        }
    }

    /// A completed Hybrid migration keeps the numbers its report needs
    /// and drops its policy state and source store; its record still
    /// reads no chunks remaining.
    #[test]
    fn completed_hybrid_migration_holds_no_policy_state() {
        let mut eng = Engine::new(ClusterConfig::small_test()).unwrap();
        let writer = WorkloadSpec::SeqWrite {
            offset: 0,
            total: 48 * MIB,
            block: MIB,
            think_secs: 0.02,
        };
        let vm = eng
            .add_vm(0, &writer, StrategyKind::Hybrid, SimTime::ZERO)
            .unwrap();
        eng.schedule_migration(vm, 1, SimTime::from_secs_f64(1.0))
            .unwrap();
        let r = eng.run_until(SimTime::from_secs_f64(300.0));
        let m = r.the_migration();
        assert!(m.completed && m.pushed_chunks > 0);
        let mig = eng.vm(vm.0).migration.as_ref().expect("the record");
        assert_eq!(mig.phase, MigPhase::Complete);
        assert!(matches!(mig.transfer, Transfer::Idle));
        assert!(mig.source_store.is_none());
        assert_eq!(mig.chunks_remaining(), 0);
    }
}
