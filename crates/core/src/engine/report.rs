//! Run reports: everything the experiment harness needs to build the
//! paper's tables and figures.

use super::job::{FailureReason, JobId, MigrationStatus};
use super::types::MigPhase;
use super::Engine;
use crate::policy::StrategyKind;
use lsm_netsim::TrafficTag;
use lsm_simcore::time::{SimDuration, SimTime};
use serde::Serialize;

/// A milestone in a migration's lifecycle, in the order of Figure 2 of
/// the paper. The timeline gives operators the phase breakdown behind a
/// migration-time number.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum Milestone {
    /// The job's start time arrived but the orchestrator's admission
    /// cap was full: the job is planner-queued until a slot frees.
    PlannerDeferred,
    /// MIGRATION_REQUEST received; push phase armed, memory rounds begin.
    Requested,
    /// An iterative memory round started (the value is the round index).
    MemRound(u32),
    /// The VM paused for the final memory flush.
    StopAndCopy,
    /// SYNC: in-flight pushes drained, remaining-set list sent.
    RemainingSetSent,
    /// Control (and the VM) resumed at the destination.
    ControlTransferred,
    /// All remaining chunks pulled; source relinquished.
    Completed,
    /// Auto-converge throttled the guest one more step (the value is
    /// the step now in force); released at switchover.
    AutoConverge(u32),
    /// The attempt failed retryably and the job entered backoff before
    /// attempt `attempt` of `max`.
    RetryBackoff {
        /// The upcoming attempt's ordinal (the first attempt is 1).
        attempt: u32,
        /// The policy's total attempt budget.
        max: u32,
    },
    /// A switchover whose estimated stop-and-copy would exceed the hard
    /// downtime limit was deferred for one more live copy round (the
    /// value counts deferrals this attempt).
    DowntimeDeferred(u32),
}

/// Outcome of one live migration.
#[derive(Clone, Debug, Serialize)]
pub struct MigrationRecord {
    /// Index of the migrated VM.
    pub vm: u32,
    /// Final lifecycle status of the job (`Queued` if the start time lay
    /// beyond the horizon, `Failed` with a reason on runtime rejection).
    pub status: MigrationStatus,
    /// Typed failure reason, when `status` is `Failed`.
    pub failure: Option<FailureReason>,
    /// Storage transfer strategy used.
    pub strategy: StrategyKind,
    /// When the migration was requested.
    pub requested_at: SimTime,
    /// When control reached the destination (VM resumed there).
    pub control_at: Option<SimTime>,
    /// When the source was fully relinquished (the paper's migration-end
    /// definition: includes the pull phase for hybrid/postcopy).
    pub completed_at: Option<SimTime>,
    /// True if the migration finished within the run horizon.
    pub completed: bool,
    /// Total migration time (requested → source relinquished).
    pub migration_time: Option<SimDuration>,
    /// Stop-and-copy downtime experienced by the guest.
    pub downtime: SimDuration,
    /// Memory pre-copy rounds (first pass included).
    pub mem_rounds: u32,
    /// Whether forced convergence (guest throttling) fired.
    pub throttled: bool,
    /// Chunks moved source→destination before/at control transfer.
    pub pushed_chunks: u64,
    /// Chunks pulled by the destination after control transfer.
    pub pulled_chunks: u64,
    /// Of those, pulls triggered by on-demand reads.
    pub ondemand_chunks: u64,
    /// End-to-end consistency of the destination disk state (None if the
    /// migration did not complete).
    pub consistent: Option<bool>,
    /// Guest-throughput degradation integral over the migration,
    /// seconds: `∫ (1 − compute factor) dt` while the guest ran live
    /// under the migration (CPU steal, post-copy fault stalls,
    /// auto-converge throttle, compression CPU). Downtime is *not*
    /// included — the SLA report sums the two.
    pub degraded_secs: f64,
    /// Timestamped lifecycle milestones (Figure 2 of the paper).
    pub timeline: Vec<(SimTime, Milestone)>,
}

impl MigrationRecord {
    /// Time spent in a lifecycle interval, if both endpoints were reached.
    pub fn phase_duration(&self, from: Milestone, to: Milestone) -> Option<SimDuration> {
        let find = |m: Milestone| {
            self.timeline
                .iter()
                .find(|&&(_, x)| x == m)
                .map(|&(t, _)| t)
        };
        Some(find(to)?.since(find(from)?))
    }
}

/// Per-VM workload outcome.
#[derive(Clone, Debug, Serialize)]
pub struct VmRecord {
    /// VM index.
    pub vm: u32,
    /// Workload label.
    pub label: String,
    /// Host node at the end of the run.
    pub final_host: u32,
    /// When the workload finished, if it did.
    pub finished_at: Option<SimTime>,
    /// Completed iterations.
    pub iterations: u32,
    /// Bytes written / read by the workload.
    pub bytes_written: u64,
    /// Bytes read by the workload.
    pub bytes_read: u64,
    /// Nominal CPU seconds of completed compute (the paper's
    /// computational-potential counter).
    pub useful_compute_secs: f64,
    /// Mean achieved write throughput while write ops were in flight
    /// (bytes/second; NaN if no writes).
    pub write_throughput: f64,
    /// Mean achieved read throughput (bytes/second; NaN if no reads).
    pub read_throughput: f64,
    /// Total guest downtime over the run.
    pub downtime: SimDuration,
    /// Read bytes served from the guest page cache.
    pub reads_hit_bytes: u64,
    /// Read bytes that missed the cache (local disk or remote pull).
    pub reads_miss_bytes: u64,
    /// Write bytes absorbed by the page cache.
    pub writes_buffered_bytes: u64,
    /// Write bytes throttled to disk speed (dirty limit exceeded).
    pub writes_throttled_bytes: u64,
    /// Read ops that had to wait for a chunk pull after control transfer.
    pub reads_pull_blocked: u64,
}

/// Full result of one engine run.
#[derive(Clone, Debug, Serialize)]
pub struct RunReport {
    /// The run horizon passed to `run_until`.
    pub horizon: SimTime,
    /// One record per scheduled migration.
    pub migrations: Vec<MigrationRecord>,
    /// One record per VM.
    pub vms: Vec<VmRecord>,
    /// Planner decisions in admission order: chosen destination and
    /// strategy per admitted request, with deferral marks and — under
    /// the cost planner — the per-scheme estimates behind the choice
    /// (the orchestration layer's audit trail; `lsm run --json` exposes
    /// it).
    pub planner: Vec<crate::planner::PlannerDecision>,
    /// Skipped intent steps (crashed VM, already-migrating race, spread
    /// gate, failed placement) with typed reasons — an intent that
    /// moved fewer VMs than expected is auditable here, not silent.
    pub planner_skips: Vec<crate::planner::PlannerSkip>,
    /// Autonomic rebalancer decisions in tick order: what tripped each
    /// action, the candidate set, typed deferrals (hot phase, cooldown,
    /// no placement), and the originated or re-planned job. Empty when
    /// the rebalancer is disabled.
    pub rebalance: Vec<crate::autonomic::RebalanceAction>,
    /// Per-job resilience history (failed-and-retried attempts with
    /// resumed bytes, cancellation, peak auto-converge step, downtime
    /// deferrals) — one row per job the resilience machinery touched.
    /// Empty when `[resilience]` is absent and nothing was cancelled.
    pub resilience: Vec<crate::resilience::JobResilience>,
    /// SLA-violation accounting: per-job downtime + degraded-throughput
    /// seconds and the aggregate totals (`lsm judge` prints these).
    /// Always populated — report-only, so it costs no events.
    pub sla: crate::qos::SlaReport,
    /// Bytes delivered per traffic class.
    pub traffic: Vec<(TrafficTag, u64)>,
    /// Total network traffic (all classes).
    pub total_traffic: u64,
    /// Migration-attributable traffic (excludes application traffic, the
    /// paper's Fig 5b accounting).
    pub migration_traffic: u64,
    /// Events processed (simulator diagnostics).
    pub events: u64,
    /// Highest number of concurrently live network flows (simulator
    /// load diagnostics; `lsm run` prints it on its header line).
    pub peak_flows: u64,
}

impl RunReport {
    /// Bytes delivered for one traffic class.
    pub fn traffic_for(&self, tag: TrafficTag) -> u64 {
        self.traffic
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|&(_, b)| b)
            .unwrap_or(0)
    }

    /// The single migration record (panics unless exactly one).
    pub fn the_migration(&self) -> &MigrationRecord {
        assert_eq!(self.migrations.len(), 1, "expected exactly one migration");
        &self.migrations[0]
    }

    /// Mean migration time over completed migrations, seconds.
    pub fn mean_migration_time(&self) -> f64 {
        let times: Vec<f64> = self
            .migrations
            .iter()
            .filter_map(|m| m.migration_time.map(|d| d.as_secs_f64()))
            .collect();
        if times.is_empty() {
            f64::NAN
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        }
    }

    /// Sum of migration times over completed migrations, seconds.
    pub fn total_migration_time(&self) -> f64 {
        self.migrations
            .iter()
            .filter_map(|m| m.migration_time.map(|d| d.as_secs_f64()))
            .sum()
    }

    /// Aggregate useful compute over all VMs, seconds.
    pub fn total_useful_compute(&self) -> f64 {
        self.vms.iter().map(|v| v.useful_compute_secs).sum()
    }

    /// Latest workload finish time, if all finished.
    pub fn all_finished_at(&self) -> Option<SimTime> {
        self.vms
            .iter()
            .map(|v| v.finished_at)
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(SimTime::ZERO))
    }
}

pub(crate) fn build(eng: &Engine) -> RunReport {
    let horizon = eng.now();
    let mut migrations = Vec::new();
    let mut vms = Vec::new();
    let mut sla_jobs = Vec::new();
    for (ji, job) in eng.jobs().iter().enumerate() {
        let vm = &eng.vms()[job.vm as usize];
        if let Some(mig) = eng.job_record(JobId(ji as u32)) {
            let completed = mig.phase == MigPhase::Complete;
            // Close the degradation integral at the horizon: a migration
            // still live when the run ended has an open window since its
            // last compute transition.
            let degraded_secs = mig.degraded_secs
                + horizon.since(mig.degrade_mark).as_secs_f64() * mig.degrade_loss;
            let downtime_secs = mig.downtime_so_far(&vm.vm).as_secs_f64();
            sla_jobs.push(crate::qos::SlaJob {
                job: ji as u32,
                vm: job.vm,
                downtime_secs,
                degraded_secs,
                violation_secs: downtime_secs + degraded_secs,
            });
            migrations.push(MigrationRecord {
                vm: job.vm,
                status: job.status,
                failure: job.failure.clone(),
                strategy: mig.strategy,
                requested_at: mig.requested_at,
                control_at: mig.control_at,
                completed_at: mig.completed_at,
                completed,
                migration_time: mig.completed_at.map(|t| t.since(mig.requested_at)),
                downtime: mig.downtime,
                mem_rounds: mig.mem_rounds,
                throttled: mig.throttled,
                pushed_chunks: mig.pushed_chunks,
                pulled_chunks: mig.pulled_chunks,
                ondemand_chunks: mig.ondemand_chunks,
                consistent: mig.consistent,
                degraded_secs,
                timeline: mig.timeline.clone(),
            });
        } else {
            // The job never built event-level state: still queued beyond
            // the horizon, or rejected at start time.
            migrations.push(MigrationRecord {
                vm: job.vm,
                status: job.status,
                failure: job.failure.clone(),
                strategy: job.strategy,
                requested_at: job.requested_at,
                control_at: None,
                completed_at: None,
                completed: false,
                migration_time: None,
                downtime: SimDuration::ZERO,
                mem_rounds: 0,
                throttled: false,
                pushed_chunks: 0,
                pulled_chunks: 0,
                ondemand_chunks: 0,
                consistent: None,
                degraded_secs: 0.0,
                timeline: Vec::new(),
            });
            sla_jobs.push(crate::qos::SlaJob {
                job: ji as u32,
                vm: job.vm,
                downtime_secs: 0.0,
                degraded_secs: 0.0,
                violation_secs: 0.0,
            });
        }
    }
    for (i, vm) in eng.vms().iter().enumerate() {
        let progress = vm.driver.progress();
        let wt = if vm.write_busy.as_secs_f64() > 0.0 {
            vm.write_bytes as f64 / vm.write_busy.as_secs_f64()
        } else {
            f64::NAN
        };
        let rt = if vm.read_busy.as_secs_f64() > 0.0 {
            vm.read_bytes as f64 / vm.read_busy.as_secs_f64()
        } else {
            f64::NAN
        };
        vms.push(VmRecord {
            vm: i as u32,
            label: vm.driver.label().to_string(),
            final_host: vm.vm.host,
            finished_at: vm.finished_at,
            iterations: progress.iterations,
            bytes_written: progress.bytes_written,
            bytes_read: progress.bytes_read,
            useful_compute_secs: progress.useful_compute_secs,
            write_throughput: wt,
            read_throughput: rt,
            downtime: vm.vm.total_downtime(),
            reads_hit_bytes: vm.reads_hit_bytes,
            reads_miss_bytes: vm.reads_miss_bytes,
            writes_buffered_bytes: vm.writes_buffered_bytes,
            writes_throttled_bytes: vm.writes_throttled_bytes,
            reads_pull_blocked: vm.reads_pull_blocked,
        });
    }
    let traffic: Vec<(TrafficTag, u64)> = TrafficTag::ALL
        .iter()
        .map(|&t| (t, eng.net.delivered(t)))
        .collect();
    RunReport {
        horizon,
        migrations,
        vms,
        planner: eng.planner_decisions().to_vec(),
        planner_skips: eng.planner_skips().to_vec(),
        rebalance: eng.rebalance_actions().to_vec(),
        resilience: eng.resilience_report(),
        sla: crate::qos::SlaReport::from_jobs(sla_jobs),
        total_traffic: eng.net.total_delivered(),
        migration_traffic: eng.net.migration_delivered(),
        traffic,
        events: eng.events_processed(),
        peak_flows: eng.net.peak_active() as u64,
    }
}
