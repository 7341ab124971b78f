//! The engine's orchestration layer: migration jobs, the planner-drained
//! request queue, the admission cap, and per-VM I/O telemetry.
//!
//! Every migration — explicitly scheduled or expanded from a high-level
//! [`RequestIntent`] (evacuate a node, rebalance a group) — flows
//! through one queue: when a request's time arrives it becomes *ready*,
//! and ready requests are admitted in FIFO order while the configured
//! [`OrchestratorConfig::max_concurrent`] cap has room. At admission
//! the configured [`PlannerKind`] decides destination placement (for
//! intents) and the transfer scheme of every job it admits — the
//! telemetry planners read windowed per-VM write/read rates sampled on
//! a telemetry tick. Every decision is recorded as a
//! [`PlannerDecision`] and lands in the
//! [`RunReport`](super::report::RunReport).
//!
//! The historical `Engine::schedule_migration` semantics are exactly
//! this machinery under the default configuration
//! ([`PlannerKind::Fixed`], unlimited cap): a ready job admits
//! immediately, in the same event, with its requested destination and
//! the VM's configured strategy.
//!
//! Per-job state lives on the job ([`JobRt`]): its admission flags, its
//! armed deadline (`deadline_at`), and its retry state. Per-VM state
//! lives on the VM: its telemetry record ([`Telemetry`]) and its one
//! live job (`VmRt::live_job`), named when the job is created and
//! cleared when [`Engine::set_job_status`] makes it terminal. A job
//! gives its admission slot back in one place, [`release_slot`],
//! whether it ends, backs off for a retry, or is re-planned.
//!
//! [`PlannerKind`]: crate::planner::PlannerKind
//! [`PlannerKind::Fixed`]: crate::planner::PlannerKind::Fixed

use super::job::{FailureReason, JobId, MigrationProgress, MigrationStatus};
use super::migration;
use super::report::Milestone;
use super::resilient::JobRetry;
use super::types::{Ev, MigrationRt, VmIdx, VmRt};
use super::Engine;
use crate::error::EngineError;
use crate::planner::{
    NodeView, OrchestratorConfig, PlanContext, PlannerDecision, PlannerSkip, RequestIntent,
    SchemeEstimate, SkipReason, VmView, TELEMETRY_WINDOW_SECS,
};
use crate::policy::StrategyKind;
use lsm_hypervisor::VmId;
use lsm_simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One scheduled migration job (the orchestration-level view; the
/// event-level state lives in [`MigrationRt`] once the job starts).
pub(crate) struct JobRt {
    pub vm: VmIdx,
    /// The VM's host when the job was scheduled: the source a job that
    /// never started reports.
    pub source: u32,
    pub dest: u32,
    pub requested_at: SimTime,
    /// The VM's strategy when the job was scheduled, replaced by the
    /// planner's choice at admission: the strategy a job that never
    /// started reports, whatever the VM's later jobs install.
    pub strategy: StrategyKind,
    pub status: MigrationStatus,
    /// Abort-by deadline measured from `requested_at`, if configured.
    pub deadline: Option<SimDuration>,
    /// When the job's armed `JobDeadline` fires: `requested_at +
    /// deadline` at first, a retry's fire time + `deadline` after it. A
    /// retry clears it until then, and a fire at any other instant is
    /// stale.
    pub deadline_at: Option<SimTime>,
    /// Failure reason, once `status == Failed`.
    pub failure: Option<FailureReason>,
    /// This job's last attempt, once another job of the same VM started
    /// and took the VM's migration slot (a VM can migrate again once its
    /// previous job is terminal). Set at most once: only a terminal job
    /// is displaced, and a terminal job starts no new attempt.
    pub archived: Option<MigrationRt>,
    /// True while the job occupies an admission slot (admission →
    /// terminal status); keeps the slot release exactly-once.
    pub counted: bool,
    /// True while admission is deferred by the concurrency cap
    /// (planner-queued, as opposed to engine-queued before its start
    /// time). Cleared at admission.
    pub held: bool,
    /// The orchestrator request this job realizes, if it was expanded
    /// from an intent.
    pub origin: Option<u32>,
    /// How many times the autonomic rebalancer re-placed this job while
    /// in flight (bounded by the rebalancer's `REPLAN_LIMIT`).
    pub replans: u32,
    /// Retry state (see the `resilient` module).
    pub retry: JobRetry,
}

/// A job status change or milestone awaiting observer delivery.
pub(crate) struct JobEvent {
    pub job: JobId,
    pub at: SimTime,
    pub kind: JobEventKind,
}

pub(crate) enum JobEventKind {
    Status(MigrationStatus),
    Milestone(Milestone),
}

/// A submitted high-level request (evacuation / rebalance intent).
pub(crate) struct IntentRt {
    pub intent: RequestIntent,
    pub at: SimTime,
}

/// One entry of the ready queue, admitted in FIFO order under the cap.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ReadyItem {
    /// An explicitly scheduled job whose start time arrived.
    Job(JobId),
    /// An intent to expand into per-VM steps.
    Intent(u32),
    /// One VM's migration expanded from intent `origin`. `attempts`
    /// counts placement attempts that found no healthy destination
    /// (bounded by [`PLACEMENT_RETRY_LIMIT`]).
    IntentVm {
        vm: VmIdx,
        origin: u32,
        attempts: u32,
    },
}

/// One VM's windowed I/O telemetry, as the planners see it (see
/// [`Engine::vm_telemetry`]). All rates are bytes/second over the last
/// full telemetry window, or sampled on demand before the first (see
/// [`IoTelemetry::sampled`]).
#[derive(Clone, Copy, Debug)]
pub struct IoTelemetry {
    /// Windowed guest write throughput.
    pub write_rate: f64,
    /// Windowed guest read throughput.
    pub read_rate: f64,
    /// Windowed dirty-set growth (newly modified chunks × chunk size).
    pub dirty_rate: f64,
    /// Windowed overwrite rate (manager writes to already-modified
    /// chunks × chunk size) — the paper's threshold signal.
    pub rewrite_rate: f64,
    /// True once a telemetry tick has sampled the VM; while false, the
    /// rates above are sampled on demand from the counters since the
    /// VM started (as planner decisions read them in that window).
    pub sampled: bool,
}

/// One VM's I/O telemetry: its cumulative counters at the last sample,
/// and the rates of the window that ended there.
#[derive(Default)]
pub(crate) struct Telemetry {
    /// When the last sample was taken.
    pub at: SimTime,
    /// Written and read bytes at `at`.
    pub write: u64,
    pub read: u64,
    /// ModifiedSet size at `at` (dirty-set growth baseline).
    pub modified: u32,
    /// Overwrite counter at `at`.
    pub rewrite: u64,
    /// Combined read+write busy time at `at` (the I/O pressure
    /// baseline).
    pub busy: SimDuration,
    /// The rates of the window that ended at `at`; `None` until a
    /// telemetry tick has sampled the VM.
    pub window: Option<IoRates>,
}

/// A VM's I/O rates over one window, bytes/second: throughput
/// (write/read) and the paper's threshold signals (dirty-set growth and
/// overwrites), plus the I/O pressure — the fraction of the window the
/// VM had I/O in flight, the CPU-proxy signal the autonomic overload
/// classifier sums per node.
#[derive(Clone, Copy, Default)]
pub(crate) struct IoRates {
    pub write: f64,
    pub read: f64,
    pub dirty: f64,
    pub rewrite: f64,
    pub pressure: f64,
}

/// Orchestration runtime state (one per [`Engine`]).
#[derive(Default)]
pub(crate) struct OrchestratorRt {
    pub cfg: OrchestratorConfig,
    /// Submitted intents, by request id.
    pub intents: Vec<IntentRt>,
    /// Requests whose time arrived, awaiting admission.
    pub ready: VecDeque<ReadyItem>,
    /// Jobs currently counted against the admission cap.
    pub active: u32,
    /// Planner decisions in admission order (reported).
    pub decisions: Vec<PlannerDecision>,
    /// Skipped intent steps in decision order (reported).
    pub skips: Vec<PlannerSkip>,
    /// Intent steps ([`ReadyItem::IntentVm`]) parked for lack of a
    /// healthy destination; re-queued (in order) at the next drain.
    pub parked: Vec<ReadyItem>,
    /// A `PlannerDrain` event is already queued.
    pub drain_scheduled: bool,
    /// A `TelemetryTick` event is already queued.
    pub telemetry_armed: bool,
}

impl OrchestratorRt {
    fn cap_reached(&self) -> bool {
        match self.cfg.max_concurrent {
            Some(cap) => self.active >= cap,
            None => false,
        }
    }
}

// ---------------- public scheduling API (on Engine) ----------------

impl Engine {
    /// The configured admission cap (`None`: unlimited).
    pub fn admission_cap(&self) -> Option<u32> {
        self.orch.cfg.max_concurrent
    }

    /// Jobs currently holding an admission slot (admitted, not yet
    /// terminal).
    pub fn active_migrations(&self) -> u32 {
        self.orch.active
    }

    /// Planner decisions made so far, in admission order.
    pub fn planner_decisions(&self) -> &[PlannerDecision] {
        &self.orch.decisions
    }

    /// Skipped intent steps so far, in decision order (crashed VMs,
    /// already-migrating races, spread gates, failed placements).
    pub fn planner_skips(&self) -> &[PlannerSkip] {
        &self.orch.skips
    }

    /// Windowed I/O telemetry of a VM — what the adaptive and cost
    /// planners read: the last window's rates once a telemetry tick has
    /// sampled the VM, an on-demand sample of its counters before (see
    /// [`IoTelemetry::sampled`]).
    pub fn vm_telemetry(&self, vm: u32) -> Option<IoTelemetry> {
        let sampled = self.vms.get(vm as usize)?.tele.window.is_some();
        let r = vm_rates(self, vm);
        Some(IoTelemetry {
            write_rate: r.write,
            read_rate: r.read,
            dirty_rate: r.dirty,
            rewrite_rate: r.rewrite,
            sampled,
        })
    }

    /// Submit a high-level orchestration request to fire at `at`; the
    /// planner expands it into concrete migrations (placing each VM and
    /// choosing its strategy) under the admission cap. Returns the
    /// request id recorded on the resulting [`PlannerDecision`]s.
    ///
    /// # Errors
    /// [`EngineError::InvalidRequest`] for an out-of-range node or an
    /// unknown workload group; [`EngineError::InvalidTime`] when `at` is
    /// before [`Engine::now`].
    pub fn submit_request(
        &mut self,
        at: SimTime,
        intent: RequestIntent,
    ) -> Result<u32, EngineError> {
        self.not_before_now("request", at)?;
        let fail = |reason: String| Err(EngineError::InvalidRequest { reason });
        match intent {
            RequestIntent::Evacuate { node } => {
                if node >= self.cfg.nodes {
                    return fail(format!(
                        "evacuation targets node {node}, but the cluster has {} nodes",
                        self.cfg.nodes
                    ));
                }
            }
            RequestIntent::Rebalance { group } => {
                if group as usize >= self.groups.len() {
                    return fail(format!(
                        "rebalance targets group {group}, but only {} are deployed",
                        self.groups.len()
                    ));
                }
            }
        }
        let id = self.orch.intents.len() as u32;
        self.orch.intents.push(IntentRt { intent, at });
        self.queue.schedule(at, Ev::RequestReady(id));
        if self.orch.cfg.planner.uses_telemetry() {
            arm_telemetry(self);
        }
        Ok(id)
    }

    /// Schedule a live migration of `vm` to `dest` at time `at` and
    /// return its job handle: [`Engine::schedule_migration_with_deadline`]
    /// without a deadline.
    ///
    /// # Errors
    /// Everything [`Engine::schedule_migration_with_deadline`] reports.
    pub fn schedule_migration(
        &mut self,
        vm: VmId,
        dest: u32,
        at: SimTime,
    ) -> Result<JobId, EngineError> {
        self.schedule_migration_with_deadline(vm, dest, at, None)
    }

    /// Schedule a live migration of `vm` to `dest` at time `at` and
    /// return its job handle. The job enters the orchestrator's request
    /// queue: it starts at `at` if the admission cap has room, or as
    /// soon after as a slot frees (visible as a planner-queued job), and
    /// the planner chooses its strategy then (the fixed planner keeps
    /// the VM's).
    ///
    /// With a `deadline`, a job not terminal `deadline` after `at` is
    /// aborted — in-flight transfers are cancelled, a paused guest
    /// resumes at the source, and the job parks at
    /// [`MigrationStatus::Failed`] with
    /// [`FailureReason::DeadlineExceeded`] and its partial progress
    /// preserved in the report. The deadline clock starts at `at` even
    /// if admission is deferred by the concurrency cap.
    ///
    /// # Errors
    /// * [`EngineError::InvalidTime`] — `at` is before [`Engine::now`].
    /// * [`EngineError::InvalidFault`] — a zero deadline.
    /// * [`EngineError::UnknownVm`] — `vm` was not deployed here.
    /// * [`EngineError::NodeOutOfRange`] — `dest` is not in the cluster.
    /// * [`EngineError::SameHost`] — `dest` is the VM's current host.
    /// * [`EngineError::DuplicateMigration`] — the VM already has a job.
    /// * [`EngineError::IncompatibleMemoryStrategy`] — the fixed planner
    ///   would keep a pre-copy-style storage transfer under post-copy
    ///   memory migration.
    pub fn schedule_migration_with_deadline(
        &mut self,
        vm: VmId,
        dest: u32,
        at: SimTime,
        deadline: Option<SimDuration>,
    ) -> Result<JobId, EngineError> {
        self.not_before_now("migration", at)?;
        if let Some(d) = deadline {
            if d == SimDuration::ZERO {
                return Err(EngineError::InvalidFault {
                    reason: "migration deadline must be positive".to_string(),
                });
            }
        }
        let Some(vmrt) = self.vms.get(vm.0 as usize) else {
            return Err(EngineError::UnknownVm { vm: vm.0 });
        };
        if dest >= self.cfg.nodes {
            return Err(EngineError::NodeOutOfRange {
                node: dest,
                nodes: self.cfg.nodes,
            });
        }
        if dest == vmrt.vm.host {
            return Err(EngineError::SameHost {
                vm: vm.0,
                node: dest,
            });
        }
        // A VM may migrate again once its previous job is terminal
        // (stepped-horizon workflows re-schedule between runs); two
        // *live* jobs for one VM are a duplicate.
        if vmrt.live_job.is_some() {
            return Err(EngineError::DuplicateMigration { vm: vm.0 });
        }
        let planned = self.orch.cfg.planner.uses_telemetry();
        if self.cfg.postcopy_memory
            && !planned
            && matches!(vmrt.strategy, StrategyKind::Precopy | StrategyKind::Mirror)
        {
            return Err(EngineError::IncompatibleMemoryStrategy {
                strategy: vmrt.strategy,
            });
        }
        let deadline_at = deadline.map(|d| at + d);
        let job = self.add_job(JobRt {
            vm: vm.0,
            source: vmrt.vm.host,
            dest,
            requested_at: at,
            strategy: vmrt.strategy,
            status: MigrationStatus::Queued,
            deadline,
            deadline_at,
            failure: None,
            archived: None,
            counted: false,
            held: false,
            origin: None,
            replans: 0,
            retry: JobRetry::default(),
        });
        self.queue.schedule(at, Ev::MigrationStart(job.0));
        if let Some(at) = deadline_at {
            self.queue.schedule(at, Ev::JobDeadline(job.0));
        }
        if planned {
            // The sampling loop disarms itself once all work drains; a
            // job scheduled after that (stepped-horizon re-scheduling)
            // must restart it, or its strategy would be chosen from
            // rates frozen at the earlier drain.
            arm_telemetry(self);
        }
        Ok(job)
    }

    // ---------------- job bookkeeping ----------------

    /// Add a job, which becomes its VM's live job until it ends.
    fn add_job(&mut self, j: JobRt) -> JobId {
        let job = JobId(self.jobs.len() as u32);
        let vm = &mut self.vms[j.vm as usize];
        debug_assert!(vm.live_job.is_none(), "vm {} has a live job", j.vm);
        vm.live_job = Some(job);
        self.jobs.push(j);
        job
    }

    /// Handles of all scheduled migration jobs, in scheduling order.
    pub fn job_ids(&self) -> Vec<JobId> {
        (0..self.jobs.len() as u32).map(JobId).collect()
    }

    /// Current lifecycle status of a job.
    pub fn job_status(&self, job: JobId) -> Option<MigrationStatus> {
        self.jobs.get(job.0 as usize).map(|j| j.status)
    }

    /// The job's destination node (for placement audits).
    pub fn job_dest(&self, job: JobId) -> Option<u32> {
        self.jobs.get(job.0 as usize).map(|j| j.dest)
    }

    /// Point-in-time progress snapshot of a job (queryable mid-run from
    /// an observer callback or between stepped horizons).
    pub fn job_progress(&self, job: JobId) -> Option<MigrationProgress> {
        let j = self.jobs.get(job.0 as usize)?;
        let vm = &self.vms[j.vm as usize];
        let chunk = self.cfg.chunk_size;
        let mut p = MigrationProgress {
            job: job.0,
            vm: j.vm,
            source: j.source,
            dest: j.dest,
            strategy: j.strategy,
            status: j.status,
            planner_held: j.held,
            mem_rounds: 0,
            chunks_pushed: 0,
            chunks_pulled: 0,
            bytes_pushed: 0,
            bytes_pulled: 0,
            chunks_remaining: 0,
            eta: None,
            downtime: SimDuration::ZERO,
            failure: j.failure.clone(),
        };
        if let Some(mig) = self.job_record(job) {
            p.source = mig.source;
            p.strategy = mig.strategy;
            p.mem_rounds = mig.mem_rounds;
            p.chunks_pushed = mig.pushed_chunks;
            p.chunks_pulled = mig.pulled_chunks;
            p.bytes_pushed = mig.pushed_chunks * chunk;
            p.bytes_pulled = mig.pulled_chunks * chunk;
            p.chunks_remaining = mig.chunks_remaining();
            p.downtime = mig.downtime_so_far(&vm.vm);
            if !j.status.is_terminal() {
                let bytes_left = p.chunks_remaining * chunk;
                p.eta = Some(lsm_simcore::units::transfer_time(
                    bytes_left,
                    self.cfg.migration_speed_cap(),
                ));
            }
        }
        Some(p)
    }

    pub(crate) fn set_job_status(&mut self, job: JobId, status: MigrationStatus) {
        let j = &mut self.jobs[job.0 as usize];
        if j.status == status {
            return;
        }
        j.status = status;
        self.job_events.push(JobEvent {
            job,
            at: self.now,
            kind: JobEventKind::Status(status),
        });
        if status.is_terminal() {
            let vm = &mut self.vms[j.vm as usize];
            debug_assert_eq!(vm.live_job, Some(job), "an ending job is its VM's live job");
            vm.live_job = None;
            release_slot(self, job, false);
        }
    }

    /// Park a job at `Failed` with a runtime rejection (the
    /// schedule-time validations catch these earlier, so hitting this
    /// means the engine was driven below the checked API).
    pub(crate) fn fail_job(&mut self, job: JobId, err: EngineError) {
        self.fail_job_reason(
            job,
            FailureReason::Rejected {
                error: err.to_string(),
            },
        );
    }

    /// Park a job at `Failed` with a typed reason (fault/deadline path).
    pub(crate) fn fail_job_reason(&mut self, job: JobId, reason: FailureReason) {
        self.jobs[job.0 as usize].failure = Some(reason);
        self.set_job_status(job, MigrationStatus::Failed);
    }

    /// Record a milestone on the timeline of VM `v`'s migration and
    /// notify the observer under that migration's job.
    pub(crate) fn note_milestone(&mut self, v: VmIdx, milestone: Milestone) {
        let now = self.now;
        let Some(mig) = self.vms[v as usize].migration.as_mut() else {
            return;
        };
        mig.timeline.push((now, milestone));
        self.job_events.push(JobEvent {
            job: mig.job,
            at: now,
            kind: JobEventKind::Milestone(milestone),
        });
    }

    /// Empty VM `v`'s migration slot for an attempt of `starting`. The
    /// finished record there moves into its own job's
    /// [`JobRt::archived`], unless it is an earlier attempt of
    /// `starting`, which the new attempt replaces.
    pub(crate) fn archive_vm_migration(&mut self, v: VmIdx, starting: JobId) {
        if let Some(mig) = self.vms[v as usize].migration.take() {
            let owner = mig.job;
            if owner != starting {
                self.jobs[owner.0 as usize].archived = Some(mig);
            }
        }
    }

    /// The record of `job`'s last attempt: archived once a later job of
    /// the VM started, else in the VM's slot while the slot is this
    /// job's. `None` for a job that never started.
    pub(crate) fn job_record(&self, job: JobId) -> Option<&MigrationRt> {
        let j = self.jobs.get(job.0 as usize)?;
        j.archived.as_ref().or_else(|| {
            self.vms[j.vm as usize]
                .migration
                .as_ref()
                .filter(|m| m.job == job)
        })
    }

    pub(crate) fn job(&self, job: JobId) -> &JobRt {
        &self.jobs[job.0 as usize]
    }

    pub(crate) fn jobs(&self) -> &[JobRt] {
        &self.jobs
    }

    // ---------------- testing hooks (invariant detection) ----------------

    /// Overwrite the admission cap **without** re-checking already
    /// admitted jobs. Exists so `lsm-check`'s admission-cap law can be
    /// detection-tested against a deliberately broken state; never call
    /// it from production code.
    #[doc(hidden)]
    pub fn testing_force_admission_cap(&mut self, cap: Option<u32>) {
        self.orch.cfg.max_concurrent = cap;
    }

    /// Overwrite a job's destination **without** validation (placement
    /// law detection testing).
    #[doc(hidden)]
    pub fn testing_force_job_dest(&mut self, job: JobId, dest: u32) {
        self.jobs[job.0 as usize].dest = dest;
    }
}

// ---------------- event handlers ----------------

/// `Ev::MigrationStart`: an explicitly scheduled job's time arrived —
/// it becomes ready and the queue drains.
pub(crate) fn job_ready(eng: &mut Engine, job: JobId) {
    if eng.jobs[job.0 as usize].status.is_terminal() {
        // Failed before it began (e.g. the destination crashed while
        // the job was still queued).
        return;
    }
    eng.orch.ready.push_back(ReadyItem::Job(job));
    drain(eng);
}

/// `Ev::RequestReady`: a submitted intent's time arrived.
pub(crate) fn intent_ready(eng: &mut Engine, req: u32) {
    eng.orch.ready.push_back(ReadyItem::Intent(req));
    drain(eng);
}

/// `Ev::PlannerDrain`: a slot freed earlier in this instant; retry
/// admission.
pub(crate) fn planner_drain(eng: &mut Engine) {
    eng.orch.drain_scheduled = false;
    drain(eng);
}

/// Schedule a drain at the current instant if work is waiting (idempotent
/// while one is pending). Fault recovery calls this when cluster state
/// changes in a way that can unblock parked placements (a node restore).
pub(crate) fn poke_drain(eng: &mut Engine) {
    if (!eng.orch.parked.is_empty() || !eng.orch.ready.is_empty()) && !eng.orch.drain_scheduled {
        eng.orch.drain_scheduled = true;
        let now = eng.now;
        eng.queue.schedule(now, Ev::PlannerDrain);
    }
}

/// The one release of an admission slot, whichever way a job gives it
/// back: it ends, it backs off for a retry, or the rebalancer re-plans
/// it. The job stops being planner-held either way (a deadline or crash
/// can end a job that is still held). If it held a slot, the slot
/// frees; a job that has not ended returns to `Queued`, straight onto
/// the ready queue when `requeue` (a re-plan; a retry waits for its
/// timer instead); and the drain wakes so a waiting request can take
/// the slot.
pub(crate) fn release_slot(eng: &mut Engine, job: JobId, requeue: bool) {
    let j = &mut eng.jobs[job.0 as usize];
    j.held = false;
    if !std::mem::take(&mut j.counted) {
        return;
    }
    debug_assert!(eng.orch.active > 0, "admission slot underflow");
    eng.orch.active -= 1;
    if !eng.jobs[job.0 as usize].status.is_terminal() {
        eng.set_job_status(job, MigrationStatus::Queued);
        if requeue {
            eng.orch.ready.push_back(ReadyItem::Job(job));
        }
    }
    poke_drain(eng);
}

/// Admit ready requests in FIFO order while the cap has room; mark the
/// rest planner-held (once, with a visible milestone). Steps parked on
/// a failed placement re-enter the queue first — every drain is a retry
/// opportunity, bounded per step by the configured retry limit.
///
/// Jobs whose VM belongs to a barrier-domain group (CM1) admit as a
/// *gang*: every same-group job visible in the ready queue goes in
/// together, or the whole gang waits — the cap cannot strand half a
/// group mid-migration while the barrier couples their progress. A
/// waiting gang does not block ungrouped work behind it.
fn drain(eng: &mut Engine) {
    requeue_parked(eng);
    let mut gang_parked: Vec<JobId> = Vec::new();
    while !eng.orch.cap_reached() {
        let Some(item) = eng.orch.ready.pop_front() else {
            break;
        };
        match item {
            ReadyItem::Job(job) => match job_gang(eng, job) {
                Some(gid) => admit_gang(eng, job, gid, &mut gang_parked),
                None => admit_job(eng, job),
            },
            ReadyItem::Intent(req) => expand_intent(eng, req),
            ReadyItem::IntentVm {
                vm,
                origin,
                attempts,
            } => admit_intent_vm(eng, vm, origin, attempts),
        }
    }
    // Parked gangs re-enter at the front: they keep their FIFO position
    // for the next drain, they just could not fit whole in this one.
    for job in gang_parked.into_iter().rev() {
        eng.orch.ready.push_front(ReadyItem::Job(job));
    }
    if !eng.orch.ready.is_empty() {
        mark_held(eng);
    }
}

/// The barrier-domain id of a job's VM (`None`: ungrouped).
fn job_gang(eng: &Engine, job: JobId) -> Option<u32> {
    let v = eng.jobs[job.0 as usize].vm;
    eng.vms[v as usize].group.map(|(gid, _)| gid)
}

/// Admit a gang head: gather every same-group job from the ready queue
/// and admit them together if they fit in the free slots, else park the
/// gang intact. A gang larger than the entire cap can never fit at once
/// and degrades to ordinary member-by-member FIFO admission rather than
/// starving.
fn admit_gang(eng: &mut Engine, head: JobId, gid: u32, gang_parked: &mut Vec<JobId>) {
    let mut members = vec![head];
    let mut rest = VecDeque::with_capacity(eng.orch.ready.len());
    while let Some(item) = eng.orch.ready.pop_front() {
        match item {
            ReadyItem::Job(j) if job_gang(eng, j) == Some(gid) => members.push(j),
            other => rest.push_back(other),
        }
    }
    eng.orch.ready = rest;
    let need = members
        .iter()
        .filter(|j| !eng.jobs[j.0 as usize].status.is_terminal())
        .count() as u32;
    match eng.orch.cfg.max_concurrent {
        Some(cap) if need > cap => {
            // Oversized gang: re-insert the tail at the front and admit
            // the head alone — the drain loop's cap check paces the rest.
            for j in members.drain(1..).rev() {
                eng.orch.ready.push_front(ReadyItem::Job(j));
            }
            admit_job(eng, head);
        }
        Some(cap) if eng.orch.active + need > cap => gang_parked.extend(members),
        _ => {
            for j in members {
                admit_job(eng, j);
            }
        }
    }
}

/// Move parked steps (failed placements awaiting retry) back into the
/// ready queue, preserving their order.
fn requeue_parked(eng: &mut Engine) {
    let parked = std::mem::take(&mut eng.orch.parked);
    eng.orch.ready.extend(parked);
}

/// Record one skipped intent step for the report.
fn record_skip(eng: &mut Engine, origin: u32, v: VmIdx, reason: SkipReason, terminal: bool) {
    let at = eng.now;
    eng.orch.skips.push(PlannerSkip {
        request: origin,
        vm: v,
        at,
        reason,
        terminal,
    });
}

/// Flag every ready-but-deferred explicit job as planner-held and emit
/// a [`Milestone::PlannerDeferred`] the first time (so `--progress`
/// runs show planner-queued jobs distinctly from engine-queued ones).
fn mark_held(eng: &mut Engine) {
    let now = eng.now;
    let newly_held: Vec<JobId> = eng
        .orch
        .ready
        .iter()
        .filter_map(|item| match item {
            ReadyItem::Job(job) if !eng.jobs[job.0 as usize].held => Some(*job),
            _ => None,
        })
        .collect();
    for job in newly_held {
        eng.jobs[job.0 as usize].held = true;
        eng.job_events.push(JobEvent {
            job,
            at: now,
            kind: JobEventKind::Milestone(Milestone::PlannerDeferred),
        });
    }
}

/// Admit one explicitly scheduled job: the planner chooses its
/// strategy, then the decision is recorded, a slot taken, the job
/// started.
fn admit_job(eng: &mut Engine, job: JobId) {
    let j = &eng.jobs[job.0 as usize];
    if j.status.is_terminal() {
        return; // died while held (crash fault, deadline)
    }
    let ready_at = j.requested_at;
    let choice = choose_strategy(eng, j.vm);
    admit(eng, job, choice, ready_at);
}

/// How many placement attempts an intent-expanded step whose placement
/// found no healthy destination gets (on later queue drains — slot
/// releases, new requests, node restores) before it is abandoned with a
/// terminal [`SkipReason::PlacementExhausted`] record.
const PLACEMENT_RETRY_LIMIT: u32 = 4;

/// Admit one intent-expanded VM migration: the planner places it, the
/// strategy is resolved (telemetry planners: from live rates), a job is
/// created on the spot and started.
///
/// Steps that cannot be admitted leave a [`PlannerSkip`] record. A step
/// whose placement finds no healthy destination is *parked* — re-queued
/// on the next drain (slot release, new request, node restore) — until
/// [`PLACEMENT_RETRY_LIMIT`] abandons it with a terminal
/// [`SkipReason::PlacementExhausted`]; silently dropping it would let
/// an `Evacuate` intent "complete" with guests still on the drained
/// node.
fn admit_intent_vm(eng: &mut Engine, v: VmIdx, origin: u32, attempts: u32) {
    let vmrt = &eng.vms[v as usize];
    if vmrt.crashed {
        // Died while the request was queued.
        record_skip(eng, origin, v, SkipReason::VmCrashed, true);
        return;
    }
    if vmrt.live_job.is_some() {
        // Already migrating (e.g. an explicit job raced the intent).
        record_skip(eng, origin, v, SkipReason::AlreadyMigrating, true);
        return;
    }
    let host = vmrt.vm.host;
    let intent = eng.orch.intents[origin as usize].intent;
    if let RequestIntent::Evacuate { node } = intent {
        if host != node {
            // Already off the drained node.
            record_skip(eng, origin, v, SkipReason::AlreadyOffNode, true);
            return;
        }
    }
    let nodes = node_views(eng);
    let Some(dest) = eng.orch.cfg.planner.place(host, &nodes) else {
        // No healthy destination exists right now: park for a bounded
        // retry instead of dropping the step.
        let attempts = attempts + 1;
        if attempts >= PLACEMENT_RETRY_LIMIT {
            record_skip(eng, origin, v, SkipReason::PlacementExhausted, true);
        } else {
            if attempts == 1 {
                record_skip(eng, origin, v, SkipReason::NoDestination, false);
            }
            eng.orch.parked.push(ReadyItem::IntentVm {
                vm: v,
                origin,
                attempts,
            });
        }
        return;
    };
    if let RequestIntent::Rebalance { .. } = intent {
        // Move only while it improves the spread: the host must carry
        // more than the target even after the move.
        if nodes[host as usize].load <= nodes[dest as usize].load + 1 {
            record_skip(eng, origin, v, SkipReason::SpreadSatisfied, true);
            return;
        }
    }
    let choice = choose_strategy(eng, v);
    let now = eng.now;
    let job = eng.add_job(JobRt {
        vm: v,
        source: host,
        dest,
        requested_at: now,
        strategy: choice.0,
        status: MigrationStatus::Queued,
        deadline: None,
        deadline_at: None,
        failure: None,
        archived: None,
        counted: false,
        held: false,
        origin: Some(origin),
        replans: 0,
        retry: JobRetry::default(),
    });
    // "Deferred" is measured against the intent's fire time: a step
    // admitted in a later instant than its request waited for a slot.
    let ready_at = eng.orch.intents[origin as usize].at;
    admit(eng, job, choice, ready_at);
}

/// Shared admission tail: install the planner's strategy choice, record
/// the decision with the estimates behind it, take the slot, and hand
/// the job to the migration machinery (which may immediately fail it —
/// failing releases the slot again).
fn admit(
    eng: &mut Engine,
    job: JobId,
    (strategy, estimates): (StrategyKind, Vec<SchemeEstimate>),
    ready_at: SimTime,
) {
    let now = eng.now;
    let (v, dest, origin) = {
        let j = &eng.jobs[job.0 as usize];
        (j.vm, j.dest, j.origin)
    };
    eng.vms[v as usize].strategy = strategy;
    let decision = PlannerDecision {
        request: origin,
        job: job.0,
        vm: v,
        source: eng.vms[v as usize].vm.host,
        dest,
        strategy,
        decided_at: now,
        deferred: now > ready_at,
        planner: eng.orch.cfg.planner.label(),
        estimates,
    };
    eng.orch.decisions.push(decision);
    {
        let j = &mut eng.jobs[job.0 as usize];
        j.strategy = strategy;
        j.held = false;
        j.counted = true;
    }
    eng.orch.active += 1;
    migration::start_migration(eng, job);
}

/// Expand an intent into per-VM steps, pushed at the *front* of the
/// ready queue in ascending VM order so the intent completes before
/// later requests are considered.
fn expand_intent(eng: &mut Engine, req: u32) {
    let intent = eng.orch.intents[req as usize].intent;
    let vms: Vec<VmIdx> = match intent {
        RequestIntent::Evacuate { node } => (0..eng.vms.len() as u32)
            .filter(|&v| {
                let vm = &eng.vms[v as usize];
                !vm.crashed && vm.vm.host == node
            })
            .collect(),
        RequestIntent::Rebalance { group } => eng.groups[group as usize].members.clone(),
    };
    for &vm in vms.iter().rev() {
        eng.orch.ready.push_front(ReadyItem::IntentVm {
            vm,
            origin: req,
            attempts: 0,
        });
    }
}

// ---------------- planner context ----------------

/// The node VM `v` counts at, for load and I/O pressure alike: an
/// admitted migration's destination while one moves it (it is leaving
/// the source and arriving there, so back-to-back placements see the
/// loads earlier decisions created), otherwise its host; `None` once
/// the VM crashed.
pub(crate) fn attributed_node(eng: &Engine, v: VmIdx) -> Option<u32> {
    let vm = &eng.vms[v as usize];
    if vm.crashed {
        return None;
    }
    match vm.live_job.map(|j| &eng.jobs[j.0 as usize]) {
        Some(j) if j.counted => Some(j.dest),
        _ => Some(vm.vm.host),
    }
}

/// Per-node load: live VMs counted at their [`attributed_node`].
pub(crate) fn node_views(eng: &Engine) -> Vec<NodeView> {
    let mut load = vec![0u32; eng.cfg.nodes as usize];
    for v in 0..eng.vms.len() as VmIdx {
        if let Some(at) = attributed_node(eng, v) {
            load[at as usize] += 1;
        }
    }
    (0..eng.cfg.nodes)
        .map(|n| NodeView {
            node: n,
            crashed: eng.nodes[n as usize].crashed,
            load: load[n as usize],
        })
        .collect()
}

impl VmRt {
    /// Rates of the VM's counters since its last telemetry sample — the
    /// one formula of the windowed tick and the on-demand sample. `None`
    /// when no time has passed since the sample.
    fn sample(&self, now: SimTime, chunk: f64) -> Option<IoRates> {
        let t = &self.tele;
        let dt = now.since(t.at).as_secs_f64();
        if dt <= 0.0 {
            return None;
        }
        let busy = (self.read_busy + self.write_busy) - t.busy;
        Some(IoRates {
            write: (self.write_bytes - t.write) as f64 / dt,
            read: (self.read_bytes - t.read) as f64 / dt,
            dirty: (self.disk.modified().count() - t.modified) as f64 * chunk / dt,
            rewrite: (self.rewrite_chunk_writes - t.rewrite) as f64 * chunk / dt,
            pressure: busy.as_secs_f64() / dt,
        })
    }
}

/// VM `v`'s I/O rates as the planners, the rebalancer and
/// [`Engine::vm_telemetry`] read them: the last window's once a
/// telemetry tick has sampled the VM, else an on-demand sample of its
/// counters — read-only, so later windows are unaffected. Without the
/// on-demand path, a hot writer admitted before its first window
/// boundary would read all-zero rates and be misclassified as idle.
pub(crate) fn vm_rates(eng: &Engine, v: VmIdx) -> IoRates {
    let vm = &eng.vms[v as usize];
    vm.tele
        .window
        .or_else(|| vm.sample(eng.now, eng.cfg.chunk_size as f64))
        .unwrap_or_default()
}

/// One VM's I/O pressure (busy fraction). A node's pressure
/// (`Engine::node_pressures`) is the sum of this over the VMs
/// attributed to it.
pub(crate) fn vm_pressure(eng: &Engine, v: VmIdx) -> f64 {
    vm_rates(eng, v).pressure
}

/// The configured planner's destination for VM `v`: a healthy node
/// other than its host, or `None` when there is none.
pub(crate) fn place(eng: &Engine, v: VmIdx) -> Option<u32> {
    let host = eng.vms[v as usize].vm.host;
    eng.orch.cfg.planner.place(host, &node_views(eng))
}

/// The configured planner's strategy for VM `v`, with the per-scheme
/// estimates behind it.
fn choose_strategy(eng: &Engine, v: VmIdx) -> (StrategyKind, Vec<SchemeEstimate>) {
    let vm = &eng.vms[v as usize];
    // A shared-FS guest has no local storage to transfer; no planner
    // may move its I/O path mid-run.
    if vm.strategy == StrategyKind::SharedFs {
        return (StrategyKind::SharedFs, Vec::new());
    }
    let r = vm_rates(eng, v);
    let ctx = PlanContext {
        nic_bw: eng.cfg.nic_bw,
        postcopy_memory: eng.cfg.postcopy_memory,
        threshold: eng.cfg.threshold,
        vm: VmView {
            strategy: vm.strategy,
            write_rate: r.write,
            read_rate: r.read,
            dirty_rate: r.dirty,
            rewrite_rate: r.rewrite,
            local_bytes: vm.disk.local_count() as u64 * eng.cfg.chunk_size,
            modified_bytes: vm.disk.modified().count() as u64 * eng.cfg.chunk_size,
        },
    };
    eng.orch.cfg.planner.choose(&ctx)
}

// ---------------- telemetry ----------------

/// Schedule the next telemetry tick (idempotent while one is pending).
pub(crate) fn arm_telemetry(eng: &mut Engine) {
    if eng.orch.telemetry_armed {
        return;
    }
    eng.orch.telemetry_armed = true;
    let window = SimDuration::from_secs_f64(TELEMETRY_WINDOW_SECS);
    let at = eng.now + window;
    eng.queue.schedule(at, Ev::TelemetryTick);
}

/// `Ev::TelemetryTick`: sample every VM's cumulative I/O counters into
/// windowed rates — throughput (write/read) plus the paper's threshold
/// signals (dirty-set growth and overwrite rate) — then re-arm while
/// orchestration work remains.
pub(crate) fn telemetry_tick(eng: &mut Engine) {
    eng.orch.telemetry_armed = false;
    let now = eng.now;
    let chunk = eng.cfg.chunk_size as f64;
    for vm in &mut eng.vms {
        if vm.started_at.is_none() {
            // The workload has not begun: advance the snapshot so its
            // eventual rates are measured from (approximately) the
            // start instant, and leave the VM *unsampled* — a decision
            // made before its first post-start window must take the
            // on-demand path, not read a zero window sampled while the
            // VM did not exist yet.
            vm.tele.at = now;
            vm.tele.busy = vm.read_busy + vm.write_busy;
            continue;
        }
        let Some(rates) = vm.sample(now, chunk) else {
            continue;
        };
        vm.tele = Telemetry {
            at: now,
            write: vm.write_bytes,
            read: vm.read_bytes,
            modified: vm.disk.modified().count(),
            rewrite: vm.rewrite_chunk_writes,
            busy: vm.read_busy + vm.write_busy,
            window: Some(rates),
        };
    }
    let work_remains = !eng.orch.ready.is_empty()
        || !eng.orch.parked.is_empty()
        || eng.jobs.iter().any(|j| !j.status.is_terminal())
        || has_unexpanded_intents(eng)
        || super::rebalance::autonomic_live(eng);
    if work_remains {
        arm_telemetry(eng);
    }
}

/// Whether any submitted intent has not fired yet. (Fired intents left
/// the queue; their residue is ordinary jobs, covered above.)
fn has_unexpanded_intents(eng: &Engine) -> bool {
    // An intent is pending exactly while its RequestReady event is in
    // the queue; approximating by "its fire time is in the future" is
    // deterministic and errs toward one extra tick.
    eng.orch.intents.iter().any(|i| i.at > eng.now)
}
