//! # lsm-check — invariant-checking observer
//!
//! An [`InvariantObserver`] hangs off [`lsm_core::Observer::on_tick`]
//! and audits conservation laws after **every** dispatched engine event.
//! It is the verification half of the fault-injection subsystem: faults
//! tear at the engine from every angle (severed flows, dead nodes,
//! stalled pipelines, aborted jobs), and these laws say what must
//! survive the tearing:
//!
//! * **Rate conservation** — at every instant, the summed rate of flows
//!   crossing each uplink, each downlink, and the switch aggregate stays
//!   within that resource's *current* (possibly degraded) capacity.
//! * **Delivered ≤ capacity × time** — cumulative bytes delivered by
//!   flows never exceed what the switch aggregate could have carried in
//!   the elapsed simulated time (control messages are latency-modeled,
//!   not capacity-modeled, and excluded).
//! * **No flow references a crashed node** — a crash severs its flows in
//!   the same instant; nothing may keep transferring to or from a dead
//!   host, and nothing may start to.
//! * **Chunk versions are monotone and causal** — the logical disk
//!   version of a chunk never decreases, and no physical store (current
//!   host or staging destination) ever holds a version the guest never
//!   wrote.
//! * **Terminal jobs never regress** — once `Completed`/`Failed`, a
//!   job's status never changes again, and every transition before that
//!   follows the documented lifecycle.
//! * **The admission cap is never violated** — when the orchestrator is
//!   configured with `max_concurrent`, the number of jobs past
//!   admission (running, not yet terminal) never exceeds it.
//! * **Admission slots are accounted exactly** — the engine's count of
//!   held slots ([`Engine::active_migrations`]) equals the number of
//!   running jobs, cap or no cap: a slot leaked by a retry or a re-plan
//!   holds back admission with nothing running.
//! * **Placements are legal** — every running job's destination is an
//!   in-range, non-crashed node (planner-placed evacuations and
//!   rebalances included; same-host requests are rejected at schedule
//!   time, before this law applies).
//! * **Rebalancer actions only when thresholds held** — every recorded
//!   autonomic [`RebalanceAction`] must correspond to a pressure
//!   condition that actually holds when audited: an overload trigger
//!   needs node pressure at least `overload - hysteresis`, an underload
//!   trigger at most `underload + hysteresis`, and a re-plan needs a
//!   crashed (or overload-pressured) destination.
//! * **No ping-pong** — a VM the rebalancer chose to move is not chosen
//!   again by a later overload/underload action within the configured
//!   cooldown window (re-plans of the same in-flight job are the same
//!   logical move and exempt).
//! * **Re-queues trace to re-plans or retries** — a started job
//!   returning to `Queued` is legal only as an autonomic re-plan or a
//!   resilience retry: a matching `Replan`-triggered action or a
//!   recorded [`JobAttempt`] must exist.
//! * **Retries stay within policy** — a job never accumulates more
//!   recorded attempts than its [`RetryPolicy`] allows (`max_attempts`
//!   counts total tries, so at most `max_attempts - 1` retries).
//! * **Resume is bounded by the checkpoint** — a retried attempt never
//!   claims more resumed bytes than the checkpoint stashed for it held
//!   (`resumed_bytes ≤ checkpoint_bytes` on every attempt).
//! * **Throttle is always released** — auto-converge guest throttling
//!   only exists while memory pre-copy is fighting flux: a job that is
//!   terminal, queued, or past switchover must leave its VM at throttle
//!   step 0, unless a later job of the VM is transferring memory or
//!   switching over (the throttle is then that job's).
//! * **No dangling retry timers** — a pending retry backoff implies the
//!   job is sitting in `Queued`; a terminal (or started) job with a
//!   live retry timer is a leak.
//! * **QoS caps are respected** — when a `[qos]` bandwidth cap is
//!   installed, every migration-class flow (memory copy, storage push,
//!   storage pull) carries a per-flow ceiling no looser than the
//!   configured cap; an uncapped or over-capped migration flow means a
//!   transfer path forgot the shaping knobs.
//! * **SLA accounting is consistent** — the degradation loss recorded
//!   on each live migration (the slope of the SLA integral) equals the
//!   loss the engine's current compute state implies; a mismatch means
//!   a factor-changing transition bypassed the `update_compute` choke
//!   point and the degraded-seconds integral is drifting.
//!
//! [`JobAttempt`]: lsm_core::JobAttempt
//! [`RetryPolicy`]: lsm_core::RetryPolicy
//!
//! [`RebalanceAction`]: lsm_core::RebalanceAction
//!
//! Violations are collected (bounded) with timestamps and law names;
//! [`InvariantObserver::finish`] runs a final full audit and
//! [`InvariantObserver::assert_clean`] panics with a readable digest —
//! the shape integration tests and the scenario fuzzer want.
//!
//! The expensive audit (every chunk of every VM) is throttled: it runs
//! on every job status change (targeted at that VM), every
//! `deep_scan_interval` events (full), and at `finish`. The cheap
//! audits run on every event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use lsm_core::engine::{Engine, JobId, MigrationProgress, MigrationStatus, Milestone};
use lsm_core::{Observer, RebalanceTrigger, ReplanReason, RunControl};
use lsm_simcore::time::SimTime;

/// Tuning for the checker (defaults are right for tests and CI).
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Relative tolerance for capacity comparisons (the solver's
    /// arithmetic is exact per water-fill round, but sums of many flows
    /// accumulate rounding).
    pub rel_epsilon: f64,
    /// Absolute slack in bytes for the delivered-bytes law (sub-byte
    /// completion residues are accounted exactly; rounding of queries is
    /// not).
    pub delivered_slack: f64,
    /// Run the full chunk-version audit every this many events
    /// (`0` disables the periodic audit; job-status-targeted and final
    /// audits still run).
    pub deep_scan_interval: u64,
    /// Stop the run at the first violation instead of collecting.
    pub fail_fast: bool,
    /// Keep at most this many violations (the first ones matter most).
    pub max_violations: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            rel_epsilon: 1e-6,
            delivered_slack: 64.0 * 1024.0,
            deep_scan_interval: 8192,
            fail_fast: false,
            max_violations: 64,
        }
    }
}

/// One observed violation of a conservation law.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Simulated instant of the observation.
    pub at: SimTime,
    /// Which law was broken (stable, grep-able name).
    pub law: &'static str,
    /// Human-readable specifics (ids, values, bounds).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.6}s] {}: {}",
            self.at.as_secs_f64(),
            self.law,
            self.detail
        )
    }
}

/// The invariant-checking observer. Attach to
/// [`lsm_core::builder::Simulation::run_observed`] (or the engine's
/// `run_until_observed`); call [`InvariantObserver::finish`] after the
/// run for the final audit.
#[derive(Debug, Default)]
pub struct InvariantObserver {
    cfg: CheckConfig,
    violations: Vec<Violation>,
    /// Total violations seen (may exceed `violations.len()` when capped).
    total_violations: u64,
    ticks: u64,
    checks: u64,
    /// Last seen status per job (terminal-regression + legality).
    statuses: Vec<Option<MigrationStatus>>,
    /// VMs owed a targeted deep scan at the next tick (status changed).
    scan_queue: Vec<u32>,
    /// High-water logical disk version per (vm, chunk).
    disk_marks: Vec<Vec<u64>>,
    /// Rebalance actions already audited (cursor into
    /// `Engine::rebalance_actions`).
    seen_actions: usize,
    /// Per-VM instant of the last *originating* rebalance action that
    /// chose it (the no-ping-pong reference; re-plans exempt).
    last_chosen: Vec<Option<SimTime>>,
    /// Started jobs seen returning to `Queued`, awaiting the
    /// re-plan-traceability check at the next engine-visible audit.
    pending_requeues: Vec<(u32, SimTime)>,
    /// Reused per-tick scratch: summed rates per up/down link.
    up_sum: Vec<f64>,
    down_sum: Vec<f64>,
}

impl InvariantObserver {
    /// Checker with default tuning.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checker with explicit tuning.
    pub fn with_config(cfg: CheckConfig) -> Self {
        InvariantObserver {
            cfg,
            ..Self::default()
        }
    }

    /// Violations observed so far (bounded by `max_violations`).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations observed, including any beyond the storage cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// True if no law was broken.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Number of individual law evaluations performed (sanity signal:
    /// a "clean" run with zero checks checked nothing).
    pub fn checks_run(&self) -> u64 {
        self.checks
    }

    /// Run the final full audit against the post-run engine state.
    pub fn finish(&mut self, eng: &Engine) {
        self.deep_scan(eng, None);
        self.cheap_audit(eng);
    }

    /// Panic with a digest of the first violations unless clean.
    /// `context` names the scenario for the failure message.
    pub fn assert_clean(&self, context: &str) {
        if self.is_clean() {
            return;
        }
        let mut msg = format!(
            "{context}: {} invariant violation(s) ({} recorded):\n",
            self.total_violations,
            self.violations.len()
        );
        for v in self.violations.iter().take(16) {
            msg.push_str(&format!("  {v}\n"));
        }
        panic!("{msg}");
    }

    fn violate(&mut self, at: SimTime, law: &'static str, detail: String) -> RunControl {
        self.total_violations += 1;
        if self.violations.len() < self.cfg.max_violations {
            self.violations.push(Violation { at, law, detail });
        }
        if self.cfg.fail_fast {
            RunControl::Stop
        } else {
            RunControl::Continue
        }
    }

    // ---------------- cheap per-event audits ----------------

    fn cheap_audit(&mut self, eng: &Engine) -> RunControl {
        let now = eng.now();
        let net = eng.network();
        let topo = net.topology();
        let n = topo.len();
        self.up_sum.clear();
        self.up_sum.resize(n, 0.0);
        self.down_sum.clear();
        self.down_sum.resize(n, 0.0);
        let mut total = 0.0f64;
        let mut control = RunControl::Continue;
        let eps = self.cfg.rel_epsilon;
        let qos_ceiling = eng.qos_config().cap_bytes();

        for f in net.flow_views() {
            self.checks += 1;
            if f.rate < 0.0 || !f.rate.is_finite() {
                control = self.violate(
                    now,
                    "rate-sane",
                    format!("flow {:?} has rate {}", f.id, f.rate),
                );
            }
            if let Some(cap) = f.cap {
                if f.rate > cap * (1.0 + eps) {
                    control = self.violate(
                        now,
                        "flow-cap",
                        format!("flow {:?} rate {} exceeds its cap {}", f.id, f.rate, cap),
                    );
                }
            }
            if let Some(ceiling) = qos_ceiling {
                use lsm_netsim::TrafficTag as T;
                if matches!(f.tag, T::Memory | T::StoragePush | T::StoragePull) {
                    self.checks += 1;
                    // Migration-class flows must carry a per-flow cap at
                    // least as tight as the configured QoS ceiling; shards
                    // split the ceiling, so strictly tighter is fine.
                    let capped = f.cap.is_some_and(|c| c <= ceiling * (1.0 + eps));
                    if !capped {
                        control = self.violate(
                            now,
                            "cap-respected",
                            format!(
                                "flow {:?} ({:?}) carries cap {:?} under a QoS ceiling of {ceiling}",
                                f.id, f.tag, f.cap
                            ),
                        );
                    }
                }
            }
            for (node, what) in [(f.src, "source"), (f.dst, "destination")] {
                if eng.node_crashed(node.0) {
                    control = self.violate(
                        now,
                        "no-flow-on-crashed-node",
                        format!(
                            "flow {:?} ({:?}) still references crashed {what} node {}",
                            f.id, f.tag, node.0
                        ),
                    );
                }
            }
            self.up_sum[f.src.idx()] += f.rate;
            self.down_sum[f.dst.idx()] += f.rate;
            total += f.rate;
        }

        for i in 0..n {
            let caps = topo.caps(lsm_netsim::NodeId(i as u32));
            self.checks += 2;
            if self.up_sum[i] > caps.up * (1.0 + eps) {
                control = self.violate(
                    now,
                    "uplink-conservation",
                    format!(
                        "node {i} uplink carries {} > capacity {}",
                        self.up_sum[i], caps.up
                    ),
                );
            }
            if self.down_sum[i] > caps.down * (1.0 + eps) {
                control = self.violate(
                    now,
                    "downlink-conservation",
                    format!(
                        "node {i} downlink carries {} > capacity {}",
                        self.down_sum[i], caps.down
                    ),
                );
            }
        }
        self.checks += 1;
        if total > topo.switch_capacity * (1.0 + eps) {
            control = self.violate(
                now,
                "switch-conservation",
                format!("switch carries {total} > capacity {}", topo.switch_capacity),
            );
        }

        // Delivered bytes ≤ what the switch could have carried since t=0.
        // (Per-instant rate conservation plus exact fluid integration
        // makes this the integral form of the same law; checking both
        // catches accounting bugs that conserve rates but not bytes.)
        self.checks += 1;
        let carried =
            net.total_delivered() as f64 - net.delivered(lsm_netsim::TrafficTag::Control) as f64;
        let bound =
            topo.switch_capacity * now.as_secs_f64() * (1.0 + eps) + self.cfg.delivered_slack;
        if carried > bound {
            control = self.violate(
                now,
                "delivered-bytes-bound",
                format!("{carried} bytes delivered > switch capacity x time = {bound}"),
            );
        }

        // Terminal jobs must stay terminal (statuses recorded on_status;
        // this catches regressions that bypass the observer callback).
        // The same sweep audits the orchestration laws: running jobs
        // are counted against the admission cap and against the engine's
        // own slot count, and every running job's placement must still
        // be legal.
        let mut running = 0u32;
        // VMs a job may legally throttle: it transfers memory or switches
        // over. An earlier, finished job of such a VM is not to blame.
        let throttling: Vec<u32> = eng
            .job_ids()
            .into_iter()
            .filter(|&job| {
                matches!(
                    eng.job_status(job),
                    Some(MigrationStatus::TransferringMemory | MigrationStatus::SwitchingOver)
                )
            })
            .filter_map(|job| eng.job_progress(job).map(|p| p.vm))
            .collect();
        for (i, job) in eng.job_ids().into_iter().enumerate() {
            if let Some(prev) = self.statuses.get(i).copied().flatten() {
                if prev.is_terminal() {
                    self.checks += 1;
                    let cur = eng.job_status(job).expect("job exists");
                    if cur != prev {
                        control = self.violate(
                            now,
                            "terminal-job-regressed",
                            format!("job {i} left terminal {prev:?} for {cur:?}"),
                        );
                    }
                }
            }
            let status = eng.job_status(job).expect("job exists");

            // ---- resilience laws (cheap: attempts lists are tiny) ----
            let attempts = eng.job_attempts(job);
            if let Some(rcfg) = eng.resilience_config() {
                if !attempts.is_empty() {
                    self.checks += 1;
                    if attempts.len() as u32 >= rcfg.retry.max_attempts {
                        control = self.violate(
                            now,
                            "retry-within-policy",
                            format!(
                                "job {i} recorded {} retries under max_attempts {}",
                                attempts.len(),
                                rcfg.retry.max_attempts
                            ),
                        );
                    }
                }
            }
            for a in attempts {
                self.checks += 1;
                if a.resumed_bytes > a.checkpoint_bytes {
                    control = self.violate(
                        now,
                        "resume-bounded",
                        format!(
                            "job {i} resumed {} bytes from a checkpoint holding only {}",
                            a.resumed_bytes, a.checkpoint_bytes
                        ),
                    );
                }
            }
            if eng.job_retry_pending(job) {
                self.checks += 1;
                if status != MigrationStatus::Queued {
                    control = self.violate(
                        now,
                        "no-dangling-retry",
                        format!("job {i} has a pending retry timer while {status:?}"),
                    );
                }
            }
            let throttle_free = status.is_terminal()
                || matches!(
                    status,
                    MigrationStatus::Queued | MigrationStatus::TransferringStorage
                );
            if throttle_free {
                if let Some(p) = eng
                    .job_progress(job)
                    .filter(|p| !throttling.contains(&p.vm))
                {
                    self.checks += 1;
                    let step = eng.vm_throttle_step(p.vm);
                    if step != 0 {
                        control = self.violate(
                            now,
                            "throttle-released",
                            format!(
                                "job {i} ({status:?}) left vm {} throttled at step {step}",
                                p.vm
                            ),
                        );
                    }
                }
            }

            let started = matches!(
                status,
                MigrationStatus::TransferringMemory
                    | MigrationStatus::SwitchingOver
                    | MigrationStatus::TransferringStorage
            );
            if !started {
                continue;
            }
            running += 1;
            let dest = eng.job_dest(job).expect("job exists");
            self.checks += 1;
            if dest >= n as u32 {
                control = self.violate(
                    now,
                    "placement-legal",
                    format!("job {i} runs toward out-of-range node {dest} (cluster has {n})"),
                );
            } else if eng.node_crashed(dest) {
                control = self.violate(
                    now,
                    "placement-legal",
                    format!("job {i} still runs toward crashed node {dest}"),
                );
            }
        }
        if let Some(cap) = eng.admission_cap() {
            self.checks += 1;
            if running > cap {
                control = self.violate(
                    now,
                    "admission-cap",
                    format!("{running} migrations running under a cap of {cap}"),
                );
            }
        }
        self.checks += 1;
        let held = eng.active_migrations();
        if running != held {
            control = self.violate(
                now,
                "admission-accounting",
                format!("{running} migrations running but {held} admission slots held"),
            );
        }

        // ---- SLA-accounting consistency ----
        // The recorded degradation slope on every live migration must
        // match what the engine's compute state implies *right now*; any
        // drift compounds into the degraded-seconds integral.
        for v in 0..eng.vm_count() {
            if let Some((recorded, expected)) = eng.sla_audit(v) {
                self.checks += 1;
                if (recorded - expected).abs() > 1e-9 {
                    control = self.violate(
                        now,
                        "sla-consistent",
                        format!(
                            "vm {v} records degradation loss {recorded} but engine state \
                             implies {expected}"
                        ),
                    );
                }
            }
        }

        // ---- autonomic-rebalancer laws ----
        // A started job regressing to Queued must trace to a recorded
        // re-plan action, whether or not an autonomic config is live
        // (without one there can be no such action, so it flags).
        if !self.pending_requeues.is_empty() {
            let pending = std::mem::take(&mut self.pending_requeues);
            for (jid, at) in pending {
                self.checks += 1;
                let traced = eng.rebalance_actions().iter().any(|a| {
                    matches!(a.trigger,
                        RebalanceTrigger::Replan { job, .. } if job == jid)
                }) || !eng.job_attempts(JobId(jid)).is_empty();
                if !traced {
                    control = self.violate(
                        at,
                        "requeue-without-replan",
                        format!(
                            "job {jid} re-entered Queued with no recorded re-plan action \
                             or retry attempt"
                        ),
                    );
                }
            }
        }
        let actions = eng.rebalance_actions();
        if self.seen_actions < actions.len() {
            let acfg = eng
                .autonomic_config()
                .expect("rebalance actions imply an autonomic config")
                .clone();
            // Audits run in the same instant the action was recorded
            // (on_tick fires after every event), so recomputed pressures
            // match the tick's view; the epsilon only absorbs float noise.
            let pressures = eng.node_pressures();
            let tol = 1e-9;
            let p_of = |node: u32| pressures.get(node as usize).copied().unwrap_or(0.0);
            for a in &actions[self.seen_actions..] {
                self.checks += 1;
                let held = match a.trigger {
                    RebalanceTrigger::Overload { node, .. } => {
                        p_of(node) >= acfg.overload_pressure - acfg.hysteresis - tol
                    }
                    RebalanceTrigger::Underload { node, .. } => {
                        p_of(node) <= acfg.underload_pressure + acfg.hysteresis + tol
                    }
                    RebalanceTrigger::Replan {
                        reason: ReplanReason::DestinationCrashed { node },
                        ..
                    } => eng.node_crashed(node),
                    // The re-plan itself re-attributes the moving VM, so
                    // the destination's pressure has already changed by
                    // audit time: judge the recorded trigger pressure
                    // (self-consistency) rather than recomputing.
                    RebalanceTrigger::Replan {
                        reason: ReplanReason::DestinationDegraded { pressure, .. },
                        ..
                    } => pressure >= acfg.overload_pressure - acfg.hysteresis - tol,
                };
                if !held {
                    control = self.violate(
                        a.at,
                        "rebalance-threshold-held",
                        format!(
                            "action {:?} recorded but its trigger condition does not hold",
                            a.trigger
                        ),
                    );
                }
                // No ping-pong: only originating (overload/underload)
                // actions count — a re-plan moves the same in-flight job
                // and is the same logical move.
                if let Some(vm) = a.chosen {
                    if matches!(
                        a.trigger,
                        RebalanceTrigger::Overload { .. } | RebalanceTrigger::Underload { .. }
                    ) {
                        self.checks += 1;
                        let idx = vm as usize;
                        if self.last_chosen.len() <= idx {
                            self.last_chosen.resize(idx + 1, None);
                        }
                        if let Some(prev) = self.last_chosen[idx] {
                            let gap = a.at.since(prev).as_secs_f64();
                            if gap < acfg.cooldown_secs - tol {
                                control = self.violate(
                                    a.at,
                                    "rebalance-no-ping-pong",
                                    format!(
                                        "vm {vm} chosen again {gap:.3}s after its last rebalance \
                                         (cooldown {}s)",
                                        acfg.cooldown_secs
                                    ),
                                );
                            }
                        }
                        self.last_chosen[idx] = Some(a.at);
                    }
                }
            }
            self.seen_actions = actions.len();
        }
        control
    }

    // ---------------- deep (chunk-version) audit ----------------

    /// Audit chunk versions: logical disk versions never decrease, and
    /// no physical store holds a version the guest never wrote.
    /// `only_vm` narrows the scan (status-change-targeted audits).
    fn deep_scan(&mut self, eng: &Engine, only_vm: Option<u32>) {
        let now = eng.now();
        let vms: Vec<u32> = match only_vm {
            Some(v) => vec![v],
            None => (0..eng.vm_count()).collect(),
        };
        if self.disk_marks.len() < eng.vm_count() as usize {
            self.disk_marks.resize(eng.vm_count() as usize, Vec::new());
        }
        for v in vms {
            let Some(ins) = eng.inspect_vm(v) else {
                continue;
            };
            let nchunks = ins.nchunks();
            let marks = &mut self.disk_marks[v as usize];
            if marks.len() < nchunks as usize {
                marks.resize(nchunks as usize, 0);
            }
            for c in 0..nchunks {
                self.checks += 1;
                let dv = ins.disk_version(c);
                let mark = self.disk_marks[v as usize][c as usize];
                if dv < mark {
                    self.violate(
                        now,
                        "disk-version-monotone",
                        format!("vm {v} chunk {c}: version {dv} < previously seen {mark}"),
                    );
                } else {
                    self.disk_marks[v as usize][c as usize] = dv;
                }
                for (sv, store) in [
                    (ins.store_version(c), "store"),
                    (ins.dest_store_version(c), "dest-store"),
                ] {
                    if let Some(sv) = sv {
                        if sv > dv {
                            self.violate(
                                now,
                                "store-version-causal",
                                format!(
                                    "vm {v} chunk {c}: {store} holds version {sv} never written (disk at {dv})"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

impl Observer for InvariantObserver {
    fn on_status(
        &mut self,
        job: JobId,
        status: MigrationStatus,
        now: SimTime,
        progress: &MigrationProgress,
    ) -> RunControl {
        let idx = job.0 as usize;
        if self.statuses.len() <= idx {
            self.statuses.resize(idx + 1, None);
        }
        let prev = self.statuses[idx];
        self.checks += 1;
        let legal = match (prev, status) {
            (None, MigrationStatus::Queued | MigrationStatus::TransferringMemory) => true,
            // A job can fail straight out of any non-terminal state
            // (crash faults, runtime rejections, deadlines).
            (None, MigrationStatus::Failed) => true,
            (Some(p), s) if p.is_terminal() => {
                return self.violate(
                    now,
                    "terminal-job-regressed",
                    format!("job {} left terminal {p:?} for {s:?}", job.0),
                );
            }
            (Some(MigrationStatus::Queued), MigrationStatus::TransferringMemory) => true,
            // Autonomic re-plan: a started job may return to the queue
            // to be re-placed. Legal only when a matching Replan action
            // exists in the record — cross-checked at the next audit.
            (
                Some(MigrationStatus::TransferringMemory | MigrationStatus::SwitchingOver),
                MigrationStatus::Queued,
            ) => {
                self.pending_requeues.push((job.0, now));
                true
            }
            (Some(MigrationStatus::TransferringMemory), MigrationStatus::SwitchingOver) => true,
            (Some(MigrationStatus::SwitchingOver), MigrationStatus::TransferringStorage) => true,
            (
                Some(MigrationStatus::SwitchingOver | MigrationStatus::TransferringStorage),
                MigrationStatus::Completed,
            ) => true,
            (Some(_), MigrationStatus::Failed) => true,
            _ => false,
        };
        if !legal {
            let v = self.violate(
                now,
                "illegal-status-transition",
                format!("job {}: {prev:?} -> {status:?}", job.0),
            );
            self.statuses[idx] = Some(status);
            return v;
        }
        self.statuses[idx] = Some(status);
        // A status change is exactly when migration machinery rewires
        // stores: audit this VM's chunk state at the next tick (when the
        // engine reference is available).
        self.scan_queue.push(progress.vm);
        if status == MigrationStatus::Failed && progress.failure.is_none() {
            return self.violate(
                now,
                "failed-without-reason",
                format!("job {} failed with no FailureReason", job.0),
            );
        }
        RunControl::Continue
    }

    fn on_milestone(&mut self, _job: JobId, _m: Milestone, _now: SimTime) -> RunControl {
        RunControl::Continue
    }

    fn on_tick(&mut self, eng: &Engine) -> RunControl {
        self.ticks += 1;
        let mut control = self.cheap_audit(eng);
        if !self.scan_queue.is_empty() {
            let queued = std::mem::take(&mut self.scan_queue);
            for v in queued {
                self.deep_scan(eng, Some(v));
            }
        }
        if self.cfg.deep_scan_interval > 0 && self.ticks.is_multiple_of(self.cfg.deep_scan_interval)
        {
            self.deep_scan(eng, None);
        }
        if self.cfg.fail_fast && !self.is_clean() {
            control = RunControl::Stop;
        }
        control
    }
}
