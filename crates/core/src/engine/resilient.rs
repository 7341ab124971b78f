//! The resilience layer's engine half: retry timers and resumable
//! transfer checkpoints, auto-converge guest throttling, the hard
//! downtime limit, and cancellation.
//!
//! The pure pieces — configuration and the typed per-attempt records —
//! live in [`crate::resilience`]; this module is the only place the
//! subsystem touches engine state. The engine holds the configuration,
//! and each job holds its own retry state ([`JobRetry`], in
//! `JobRt::retry`): the attempt history, the armed `RetryFire`, the
//! transfer checkpoint, and the reported throttle peak and deferral
//! count. Everything here is inert unless [`Engine::new`] is given a
//! resilience config: with `[resilience]` absent no retry timer is ever
//! armed, no throttle step is ever taken, no switchover is ever
//! deferred, and every run is event-for-event identical to an engine
//! built without this module. ([`Engine::cancel_migration`] alone works
//! without a config — an operator may always abandon a job.)
//!
//! Retry mechanics, end to end: a retryable failure (destination crash,
//! stall, deadline — each individually gated by `retry_on`) hits a
//! live pre-control attempt; [`try_retry`] stashes the surviving
//! destination's chunk store as the job's *transfer checkpoint*, tears
//! the attempt down, gives the admission slot back through the one
//! release (`orchestrator::release_slot`), and arms a `RetryFire` after
//! exponential backoff. Through the backoff the job stays `Queued` and
//! its VM's live job, so the VM takes no other. The fire re-places the
//! job if its destination died, re-arms a fresh per-attempt deadline
//! (the job's `deadline_at`, which makes any earlier deadline fire
//! stale), and re-queues the job through the ordinary planner path.
//! When the new attempt starts, `start_migration` asks [`take_resume`]
//! for the checkpoint: chunk versions already stamped there (and not
//! rewritten since) are dropped from the initial source manifests —
//! never re-sent — and the checkpoint store *becomes* the new attempt's
//! destination store.

use super::fault;
use super::job::{FailureReason, JobId, MigrationStatus};
use super::orchestrator;
use super::report::Milestone;
use super::types::{CopyKind, Ev, MigPhase, VmIdx};
use super::Engine;
use crate::error::EngineError;
use crate::resilience::{AttemptReason, JobAttempt, JobResilience, ResilienceConfig};
use lsm_blockdev::ChunkStore;
use lsm_simcore::time::{SimDuration, SimTime};
use lsm_simcore::EventId;

/// One job's retry bookkeeping (empty unless the resilience machinery
/// touched the job).
#[derive(Default)]
pub(crate) struct JobRetry {
    /// Failed-and-retried attempts, in order (reported).
    pub attempts: Vec<JobAttempt>,
    /// The armed `RetryFire`, while the job sits in backoff. `None` at
    /// fire time means the timer was tombstoned (job cancelled or its
    /// guest died mid-backoff) — the fire is a no-op.
    pub pending: Option<EventId>,
    /// The surviving destination's chunk store, stashed when the failed
    /// attempt was torn down; consumed by the next attempt's resume.
    pub checkpoint: Option<Checkpoint>,
    /// Highest auto-converge throttle step reached (reported).
    pub max_throttle: u32,
    /// Switchovers deferred by the downtime limit (reported).
    pub downtime_deferrals: u32,
}

/// A per-job transfer checkpoint: the destination replica as it stood
/// when the attempt failed. Valid only while the same destination is
/// both chosen again and alive.
pub(crate) struct Checkpoint {
    pub dest: u32,
    pub store: ChunkStore,
}

impl Engine {
    /// The installed resilience configuration, if any.
    pub fn resilience_config(&self) -> Option<&ResilienceConfig> {
        self.resilience.as_ref()
    }

    /// The job's failed-and-retried attempt history (empty when the
    /// subsystem is off or the job never failed).
    pub fn job_attempts(&self, job: JobId) -> &[JobAttempt] {
        self.jobs
            .get(job.0 as usize)
            .map_or(&[][..], |j| &j.retry.attempts[..])
    }

    /// True while the job sits in retry backoff (a `RetryFire` armed).
    pub fn job_retry_pending(&self, job: JobId) -> bool {
        self.jobs
            .get(job.0 as usize)
            .is_some_and(|j| j.retry.pending.is_some())
    }

    /// The VM's current auto-converge throttle step (0 when untouched,
    /// unmigrated, or after release).
    pub fn vm_throttle_step(&self, vm: u32) -> u32 {
        self.vms
            .get(vm as usize)
            .and_then(|v| v.migration.as_ref())
            .map_or(0, |m| m.throttle_step)
    }

    /// Per-job resilience history for the report: one row per job the
    /// machinery actually touched (retried, throttled, deferred, or
    /// cancelled).
    pub fn resilience_report(&self) -> Vec<JobResilience> {
        let mut out = Vec::new();
        for (ji, j) in self.jobs.iter().enumerate() {
            let r = &j.retry;
            let cancelled = matches!(j.failure, Some(FailureReason::Cancelled));
            if r.attempts.is_empty()
                && !cancelled
                && r.max_throttle == 0
                && r.downtime_deferrals == 0
            {
                continue;
            }
            out.push(JobResilience {
                job: ji as u32,
                vm: j.vm,
                attempts: r.attempts.clone(),
                cancelled,
                auto_converge_steps: r.max_throttle,
                downtime_deferrals: r.downtime_deferrals,
            });
        }
        out
    }

    /// Cancel a migration job: the in-flight attempt (any phase) is
    /// unwound exactly like a fault abort — flows severed, the guest
    /// resumed wherever control legally sits — and the job fails with
    /// [`FailureReason::Cancelled`]. A job already terminal is left
    /// alone (cancellation is idempotent); a pending retry timer dies
    /// with the job. Works with or without `[resilience]`.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for an unknown job.
    pub fn cancel_migration(&mut self, job: JobId) -> Result<(), EngineError> {
        self.known_job(job)?;
        let j = &mut self.jobs[job.0 as usize];
        if j.status.is_terminal() {
            return Ok(());
        }
        j.retry.checkpoint = None;
        if let Some(ev) = j.retry.pending.take() {
            self.queue.cancel(ev);
        }
        fault::abort_migration(self, job, FailureReason::Cancelled);
        Ok(())
    }

    /// Schedule a cancellation of `job` at simulated time `at` (the
    /// `[[cancellations]]` scenario section).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for an unknown job;
    /// [`EngineError::InvalidTime`] when `at` is before [`Engine::now`].
    pub fn schedule_cancellation(&mut self, at: SimTime, job: JobId) -> Result<(), EngineError> {
        self.not_before_now("cancellation", at)?;
        self.known_job(job)?;
        self.queue.schedule(at, Ev::CancelFire(job.0));
        Ok(())
    }

    /// Reject a cancellation naming a job that was never scheduled.
    fn known_job(&self, job: JobId) -> Result<(), EngineError> {
        if (job.0 as usize) < self.jobs.len() {
            return Ok(());
        }
        Err(EngineError::InvalidRequest {
            reason: format!(
                "cancellation names job {}, but only {} are scheduled",
                job.0,
                self.jobs.len()
            ),
        })
    }

    /// Append a fabricated attempt record (checker detection tests).
    #[doc(hidden)]
    pub fn testing_force_job_attempt(&mut self, job: JobId, attempt: JobAttempt) {
        self.jobs[job.0 as usize].retry.attempts.push(attempt);
    }

    /// Force a live migration's throttle step without the converge
    /// machinery (checker detection tests).
    #[doc(hidden)]
    pub fn testing_force_throttle_step(&mut self, vm: u32, step: u32) {
        let mig = self.vms[vm as usize]
            .migration
            .as_mut()
            .expect("testing_force_throttle_step needs a live migration");
        mig.throttle_step = step;
    }

    /// Arm a far-future retry timer for a job without a failure
    /// (checker detection tests for the dangling-timer law).
    #[doc(hidden)]
    pub fn testing_force_retry_pending(&mut self, job: JobId) {
        let at = self.now + SimDuration::from_secs_f64(1e9);
        let ev = self.queue.schedule(at, Ev::RetryFire(job.0));
        self.jobs[job.0 as usize].retry.pending = Some(ev);
    }
}

/// True while the VM runs a live pre-control migration — the only
/// window a retry makes sense in (post-control the guest already moved;
/// a queued job never started and aborts like before).
fn pre_control_live(eng: &Engine, v: VmIdx) -> bool {
    eng.vms[v as usize].migration.as_ref().is_some_and(|m| {
        matches!(
            m.phase,
            MigPhase::Active | MigPhase::Linger | MigPhase::StopAndCopy | MigPhase::SyncDrain
        )
    })
}

/// Abandon `job`'s attempt for a backed-off retry, if the policy allows
/// it: `[resilience]` is installed and its `retry_on` covers `reason`,
/// the job runs a live pre-control attempt of a living guest, and retry
/// budget is left (`max_attempts` counts every attempt including the
/// first, and `attempts` records only the failed ones, so a retry is
/// allowed while `failed + 1 < max`). Returns whether it retried.
///
/// The retry checkpoints the surviving destination replica (unless the
/// destination died with the attempt), tears the transfer down, gives
/// the admission slot back, and schedules `RetryFire`.
pub(crate) fn try_retry(eng: &mut Engine, job: JobId, reason: AttemptReason) -> bool {
    let ji = job.0 as usize;
    let j = &eng.jobs[ji];
    let v = j.vm;
    let Some(policy) = eng.resilience.as_ref().map(|r| &r.retry) else {
        return false;
    };
    let covered = match reason {
        AttemptReason::DestinationCrashed { .. } => policy.retry_on.dest_crash,
        AttemptReason::Stalled => policy.retry_on.stall,
        AttemptReason::DeadlineExceeded => policy.retry_on.deadline,
    };
    let failed = j.retry.attempts.len();
    if !covered
        || j.status.is_terminal()
        || j.status == MigrationStatus::Queued
        || eng.vms[v as usize].crashed
        || !pre_control_live(eng, v)
        || failed + 1 >= policy.max_attempts as usize
    {
        return false;
    }
    let backoff = (policy.backoff_secs * 2f64.powi(failed as i32)).min(policy.backoff_cap_secs);
    let max = policy.max_attempts;
    let now = eng.now;
    // Stash the destination replica before teardown discards it; its
    // stamped chunk versions are the resume set of the next attempt. A
    // crashed destination took its replica with it.
    let checkpoint = match (reason, eng.vms[v as usize].migration.as_ref()) {
        (AttemptReason::DestinationCrashed { .. }, _) | (_, None) => None,
        (_, Some(m)) => {
            let dest = m.dest;
            eng.vms[v as usize]
                .dest_store
                .take()
                .map(|store| Checkpoint { dest, store })
        }
    };
    let checkpoint_bytes = checkpoint
        .as_ref()
        .map_or(0, |c| c.store.present().count() as u64 * eng.cfg.chunk_size);
    fault::teardown_transfer(eng, v);
    // The job returns to `Queued` but enters the ready queue only when
    // the retry timer fires.
    orchestrator::release_slot(eng, job, false);
    // Unconditionally: the teardown above released any auto-converge
    // throttle, and the release only takes effect through a compute
    // refresh — gating it on the admission accounting would leak the
    // throttle across the backoff for an uncounted (held) job.
    eng.update_compute(v);
    let ev = eng.schedule_in(SimDuration::from_secs_f64(backoff), Ev::RetryFire(job.0));
    let j = &mut eng.jobs[ji];
    j.retry.attempts.push(JobAttempt {
        at: now,
        reason,
        backoff_secs: backoff,
        checkpoint_bytes,
        resumed_bytes: 0,
    });
    j.retry.checkpoint = checkpoint;
    j.retry.pending = Some(ev);
    // Any earlier-armed deadline (the original, or a prior attempt's)
    // no longer applies; the fire re-arms a fresh one.
    j.deadline_at = None;
    let attempt = j.retry.attempts.len() as u32 + 1;
    eng.note_milestone(v, Milestone::RetryBackoff { attempt, max });
    true
}

/// `Ev::RetryFire`: the backoff elapsed — re-place the job if its
/// destination died, re-arm a per-attempt deadline, and re-queue it
/// through the planner. A tombstoned timer (cancelled job, dead guest)
/// is a no-op.
pub(crate) fn retry_fire(eng: &mut Engine, job: JobId) {
    let ji = job.0 as usize;
    // No armed timer: the job died (or was cancelled) mid-backoff and
    // the cancel lost the race with this fire.
    if eng.jobs[ji].retry.pending.take().is_none() || eng.jobs[ji].status.is_terminal() {
        return;
    }
    let v = eng.jobs[ji].vm;
    if eng.vms[v as usize].crashed {
        // Defensive: the crash sweep tombstones pending retries of dead
        // guests, but a same-instant ordering may land here first.
        let node = eng.vms[v as usize].vm.host;
        eng.jobs[ji].retry.checkpoint = None;
        fault::abort_migration(eng, job, FailureReason::SourceCrashed { node });
        return;
    }
    let host = eng.vms[v as usize].vm.host;
    let old_dest = eng.jobs[ji].dest;
    let dest = if eng.nodes[old_dest as usize].crashed || old_dest == host {
        // Fresh placement: the planner names a healthy node other than
        // the host whenever one exists.
        match orchestrator::place(eng, v) {
            Some(d) => d,
            None => {
                // Nowhere healthy to go: the retry dies here.
                eng.jobs[ji].retry.checkpoint = None;
                fault::abort_migration(
                    eng,
                    job,
                    FailureReason::DestinationCrashed { node: old_dest },
                );
                return;
            }
        }
    } else {
        old_dest
    };
    let now = eng.now;
    let dest_crashed = eng.nodes[dest as usize].crashed;
    let j = &mut eng.jobs[ji];
    j.dest = dest;
    j.deadline_at = j.deadline.map(|d| now + d);
    // A checkpoint is only a resume if the same replica survives at the
    // same (re-chosen) destination.
    if j.retry
        .checkpoint
        .as_ref()
        .is_some_and(|c| c.dest != dest || dest_crashed)
    {
        j.retry.checkpoint = None;
    }
    if let Some(at) = j.deadline_at {
        eng.queue.schedule(at, Ev::JobDeadline(job.0));
    }
    orchestrator::job_ready(eng, job);
}

/// `Ev::CancelFire`: a scheduled `[[cancellations]]` event arrived.
pub(crate) fn cancel_fire(eng: &mut Engine, job: JobId) {
    // The job index was validated at schedule time.
    let _ = eng.cancel_migration(job);
}

/// Crash-sweep hook, called for every job the crashed node touches
/// (after the autonomic re-plan path declined). Returns true when the
/// resilience layer absorbed the failure — the caller must then *not*
/// abort the job.
pub(crate) fn crash_rescue(eng: &mut Engine, job: JobId, reason: &FailureReason) -> bool {
    let retry = &mut eng.jobs[job.0 as usize].retry;
    match *reason {
        FailureReason::SourceCrashed { .. } => {
            // The guest died mid-backoff: the armed RetryFire must not
            // outlive the job. Tombstone and cancel it, then let the
            // abort proceed.
            if let Some(ev) = retry.pending.take() {
                retry.checkpoint = None;
                eng.queue.cancel(ev);
            }
            false
        }
        FailureReason::DestinationCrashed { node } if retry.pending.is_some() => {
            // Still backing off: the timer survives (the fire will
            // re-place), but a checkpoint at the dead node is gone.
            if retry.checkpoint.as_ref().is_some_and(|c| c.dest == node) {
                retry.checkpoint = None;
            }
            true
        }
        FailureReason::DestinationCrashed { node } => {
            try_retry(eng, job, AttemptReason::DestinationCrashed { node })
        }
        _ => false,
    }
}

/// Hand the job's transfer checkpoint to a starting attempt, if it is
/// still valid: same destination, destination alive. Consumes the
/// checkpoint either way.
pub(crate) fn take_resume(eng: &mut Engine, job: JobId, dest: u32) -> Option<ChunkStore> {
    let ckpt = eng.jobs[job.0 as usize].retry.checkpoint.take()?;
    if ckpt.dest != dest || eng.nodes[dest as usize].crashed {
        return None;
    }
    Some(ckpt.store)
}

/// Record how many bytes a resuming attempt skipped, on the attempt
/// record that stashed the checkpoint.
pub(crate) fn record_resumed(eng: &mut Engine, job: JobId, bytes: u64) {
    if let Some(a) = eng.jobs[job.0 as usize].retry.attempts.last_mut() {
        a.resumed_bytes = bytes;
    }
}

/// Auto-converge: called at the end of every pre-copy memory round with
/// the bytes the guest dirtied during it and the round's seconds. A
/// round whose dirty flux stays at or above `converge_frac · nic_bw`
/// for `converge_patience` consecutive rounds earns the guest one more
/// throttle step (stepped compute slowdown), up to the ceiling. Any
/// cool round resets the patience counter.
pub(crate) fn auto_converge_round(eng: &mut Engine, v: VmIdx, dirtied: u64, wall: f64) {
    let Some(r) = eng.resilience.as_ref() else {
        return;
    };
    let (frac, patience, max_steps) = (r.converge_frac, r.converge_patience, r.converge_max_steps);
    let nic = eng.cfg.nic_bw;
    let stepped = {
        let Some(mig) = eng.vms[v as usize].migration.as_mut() else {
            return;
        };
        let hot = wall > 1e-9 && dirtied as f64 / wall >= frac * nic;
        if hot {
            mig.converge_hot_rounds += 1;
            if mig.converge_hot_rounds >= patience && mig.throttle_step < max_steps {
                mig.converge_hot_rounds = 0;
                mig.throttle_step += 1;
                Some((mig.job, mig.throttle_step))
            } else {
                None
            }
        } else {
            mig.converge_hot_rounds = 0;
            None
        }
    };
    if let Some((job, step)) = stepped {
        eng.note_milestone(v, Milestone::AutoConverge(step));
        eng.update_compute(v);
        let r = &mut eng.jobs[job.0 as usize].retry;
        r.max_throttle = r.max_throttle.max(step);
    }
}

/// Release the auto-converge throttle (switchover reached, or the
/// attempt is being torn down). The caller is responsible for the
/// `update_compute` that makes the release take effect.
pub(crate) fn release_throttle(mig: &mut super::types::MigrationRt) {
    mig.throttle_step = 0;
    mig.converge_hot_rounds = 0;
}

/// Hard downtime limit: called at the top of a non-forced
/// `initiate_stop`. When the estimated stop-and-copy transfer would
/// blow the budget and deferral rounds remain, the dirty backlog rides
/// one more live copy round instead — the guest keeps running — and
/// the stop is retried when that round lands. Returns true when the
/// switchover was deferred (the caller must not stop).
pub(crate) fn defer_switchover(eng: &mut Engine, v: VmIdx) -> bool {
    let Some((limit_ms, extra)) = eng
        .resilience
        .as_ref()
        .and_then(|r| Some((r.downtime_limit_ms?, r.downtime_extra_rounds)))
    else {
        return false;
    };
    // A QoS bandwidth cap slows the stop flush too: estimate against
    // the effective ceiling, not the raw hypervisor cap.
    let speed = super::qos::mem_total_cap(eng);
    let (job, bytes) = {
        let Some(mig) = eng.vms[v as usize].migration.as_ref() else {
            return false;
        };
        let est_ms = mig.pending_stop_bytes as f64 / speed * 1e3;
        if est_ms <= limit_ms || mig.downtime_deferrals >= extra {
            return false;
        }
        (mig.job, mig.pending_stop_bytes)
    };
    super::migration::set_phase(eng, v, MigPhase::Active);
    eng.jobs[job.0 as usize].retry.downtime_deferrals += 1;
    super::migration::start_copy(eng, v, CopyKind::Deferral, bytes);
    true
}
