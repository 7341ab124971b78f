//! The migration engine: a deterministic event loop coupling the network,
//! disks, page caches, workloads, the hypervisor's memory migration, and
//! the storage transfer policies.
//!
//! The engine is strategy-agnostic where the paper's design is
//! (§4.1 "transparency"): workloads and the memory migration never know
//! which storage transfer policy is active; policies only see chunk-level
//! reads/writes and the `sync` moment, exactly like the FUSE-based
//! migration manager of §4.4.

mod fault;
mod io;
mod job;
mod migration;
mod observer;
mod orchestrator;
mod pvfs;
mod qos;
mod rebalance;
mod report;
mod resilient;
mod types;

pub use job::{FailureReason, JobId, MigrationProgress, MigrationStatus};
pub use lsm_simcore::fault::FaultKind;
pub use observer::{NullObserver, Observer, RecordingObserver, RunControl};
pub use orchestrator::IoTelemetry;
pub use report::{MigrationRecord, Milestone, RunReport, VmRecord};

use orchestrator::{JobEvent, JobEventKind, JobRt, OrchestratorRt};

use crate::config::{ClusterConfig, EngineConfig};
use crate::error::EngineError;
use crate::policy::StrategyKind;
use crate::qos::QosConfig;
use crate::resilience::ResilienceConfig;
use lsm_blockdev::{CacheConfig, ChunkStore, PageCache, VirtualDisk};
use lsm_hypervisor::{Vm, VmId, VmState};
use lsm_netsim::{FlowNet, NodeId, Topology};
use lsm_repo::{PvfsConfig, PvfsFs, RepoConfig, StripedRepo};
use lsm_simcore::time::{SimDuration, SimTime};
use lsm_simcore::{EventId, EventQueue};
use lsm_workloads::{Action, ActionToken, WorkloadSpec};
use types::*;

/// The simulation engine. Build one per experiment run.
pub struct Engine {
    cfg: ClusterConfig,
    now: SimTime,
    queue: EventQueue<Ev>,
    net: FlowNet<FlowCtx>,
    net_wake: Option<(EventId, SimTime)>,
    nodes: Vec<NodeRt>,
    vms: Vec<VmRt>,
    groups: Vec<GroupRt>,
    repo: StripedRepo,
    pvfs: PvfsFs,
    ops: OpTable,
    /// Migration jobs in scheduling order (JobId is the index).
    jobs: Vec<JobRt>,
    /// Job status changes / milestones awaiting observer delivery.
    job_events: Vec<JobEvent>,
    /// Events dispatched so far (`RunReport.events`); a counter only,
    /// nothing caps it.
    events_processed: u64,
    /// Orchestration state: the planner, the admission-controlled
    /// request queue, telemetry, and recorded decisions (see the
    /// `orchestrator` module).
    orch: OrchestratorRt,
    /// Autonomic rebalancer state (`None` — the default — leaves the
    /// monitor loop off and the event stream untouched; see the
    /// `rebalance` module).
    autonomic: Option<rebalance::AutonomicRt>,
    /// The resilience configuration (`None` — the default — leaves
    /// retries, auto-converge, and the downtime limit off and the event
    /// stream untouched; each job holds its own retry state, see the
    /// `resilient` module).
    resilience: Option<ResilienceConfig>,
    /// Migration QoS shaping. The default configuration shapes nothing,
    /// so flow caps, stream counts and wire bytes keep their historical
    /// values and the event stream is untouched (see the `qos` module).
    qos: QosConfig,
}

impl Engine {
    /// Build an engine over a fresh cluster, configured once: the
    /// planner, rebalancer, resilience and QoS sections of `cfg` hold
    /// for every job of the run. A bare [`ClusterConfig`] leaves every
    /// section at its inert default.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] when the cluster is unusable (zero
    /// nodes, non-positive capacities, chunk size not dividing the
    /// image, ...); then [`EngineError::InvalidRequest`] when a section
    /// is, checked in field order.
    pub fn new(cfg: impl Into<EngineConfig>) -> Result<Self, EngineError> {
        let EngineConfig {
            cluster: cfg,
            orchestrator,
            autonomic,
            resilience,
            qos,
        } = cfg.into();
        cfg.validate()?;
        orchestrator.validate()?;
        if let Some(a) = &autonomic {
            a.validate()?;
        }
        if let Some(r) = &resilience {
            r.validate()?;
        }
        qos.validate()?;
        let topo = Topology::symmetric(cfg.nodes as usize, cfg.nic_bw, cfg.switch_bw)
            .with_latency(cfg.net_latency);
        let net = FlowNet::new(topo);
        let nodes = (0..cfg.nodes)
            .map(|_| NodeRt {
                crashed: false,
                disk: Lane::new(cfg.disk_bw),
                cache_rd: Lane::new(cfg.cache_read_bw),
                cache_wr: Lane::new(cfg.cache_write_bw),
                ingest_backlog: 0,
                ingest_inflight: 0,
            })
            .collect();
        let repo = StripedRepo::new(RepoConfig::over_nodes(
            cfg.nodes,
            cfg.repo_replication,
            cfg.chunk_size,
        ));
        let pvfs = PvfsFs::new(PvfsConfig {
            servers: (0..cfg.nodes).map(NodeId).collect(),
            stripe_size: cfg.pvfs_stripe,
            op_overhead: cfg.pvfs_op_overhead,
            write_overhead: cfg.pvfs_write_overhead,
        });
        let mut eng = Engine {
            cfg,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            net,
            net_wake: None,
            nodes,
            vms: Vec::new(),
            groups: Vec::new(),
            repo,
            pvfs,
            ops: OpTable::default(),
            jobs: Vec::new(),
            job_events: Vec::new(),
            events_processed: 0,
            orch: OrchestratorRt {
                cfg: orchestrator,
                ..OrchestratorRt::default()
            },
            autonomic: autonomic.map(|cfg| rebalance::AutonomicRt {
                cfg,
                armed: false,
                classes: Vec::new(),
                actions: Vec::new(),
            }),
            resilience,
            qos,
        };
        // The telemetry planners and the rebalancer read windowed rates.
        // The sampling loop is armed before the monitor's tick: the order
        // breaks ties between their same-instant events.
        if eng.orch.cfg.planner.uses_telemetry() || eng.autonomic.is_some() {
            orchestrator::arm_telemetry(&mut eng);
        }
        rebalance::arm_tick(&mut eng);
        Ok(eng)
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Reject an instant before the clock: an event there would fire in
    /// the past and move the clock back. [`Engine::now`] itself is legal.
    fn not_before_now(&self, what: &str, at: SimTime) -> Result<(), EngineError> {
        if at < self.now {
            return Err(EngineError::InvalidTime {
                what: what.to_string(),
                value: at.as_secs_f64(),
            });
        }
        Ok(())
    }

    /// Deploy a VM on `node` running `spec` under the given storage
    /// transfer strategy. The workload starts at `start_at`.
    ///
    /// # Errors
    /// * [`EngineError::NodeOutOfRange`] — `node` is not in the cluster.
    /// * [`EngineError::GroupWorkloadOutsideGroup`] — `spec` is a
    ///   multi-rank workload (use [`Engine::add_group`]).
    /// * [`EngineError::WorkloadExceedsImage`] — the workload writes
    ///   beyond the configured image size.
    /// * [`EngineError::InvalidTime`] — `start_at` is before
    ///   [`Engine::now`].
    pub fn add_vm(
        &mut self,
        node: u32,
        spec: &WorkloadSpec,
        strategy: StrategyKind,
        start_at: SimTime,
    ) -> Result<VmId, EngineError> {
        self.not_before_now("VM start", start_at)?;
        if spec.group_ranks().is_some() {
            return Err(EngineError::GroupWorkloadOutsideGroup {
                workload: spec.label().to_string(),
            });
        }
        self.add_vm_inner(node, spec, strategy, start_at)
    }

    /// Everything that can be wrong about one `(node, workload)` pair —
    /// shared by `add_vm_inner` and `add_group`'s pre-pass so the two
    /// paths cannot drift apart.
    fn validate_placement(&self, node: u32, spec: &WorkloadSpec) -> Result<(), EngineError> {
        if node >= self.cfg.nodes {
            return Err(EngineError::NodeOutOfRange {
                node,
                nodes: self.cfg.nodes,
            });
        }
        if let Err(reason) = spec.validate() {
            return Err(EngineError::InvalidWorkload {
                workload: spec.label().to_string(),
                reason,
            });
        }
        let needs = spec.disk_footprint();
        if needs > self.cfg.image_size {
            return Err(EngineError::WorkloadExceedsImage {
                workload: spec.label().to_string(),
                needs,
                image: self.cfg.image_size,
            });
        }
        Ok(())
    }

    /// `add_vm` minus the group-workload check (group members land here).
    fn add_vm_inner(
        &mut self,
        node: u32,
        spec: &WorkloadSpec,
        strategy: StrategyKind,
        start_at: SimTime,
    ) -> Result<VmId, EngineError> {
        self.validate_placement(node, spec)?;
        let id = VmId(self.vms.len() as u32);
        let nchunks = self.cfg.nchunks();
        let cache = PageCache::new(
            nchunks,
            CacheConfig::for_ram(self.cfg.vm_ram, self.cfg.chunk_size),
        );
        self.vms.push(VmRt {
            vm: Vm::new(id, node, self.cfg.vm_ram, 2),
            crashed: false,
            strategy,
            driver: spec.build(),
            started_at: None,
            finished_at: None,
            disk: VirtualDisk::new(nchunks, self.cfg.chunk_size),
            cache,
            store: ChunkStore::new(nchunks),
            dest_store: None,
            compute: None,
            held_completions: Default::default(),
            group: None,
            migration: None,
            mig_epoch: 0,
            wb_inflight: 0,
            kupdate_credit: 0,
            fsync_waiters: Vec::new(),
            read_bytes: 0,
            write_bytes: 0,
            reads_hit_bytes: 0,
            reads_miss_bytes: 0,
            writes_buffered_bytes: 0,
            writes_throttled_bytes: 0,
            reads_pull_blocked: 0,
            read_busy: SimDuration::ZERO,
            write_busy: SimDuration::ZERO,
            pvfs_file_base: id.0 as u64 * self.cfg.image_size,
            rewrite_chunk_writes: 0,
            tele: Default::default(),
            live_job: None,
            last_moved: None,
            deferred_since: None,
        });
        self.queue.schedule(start_at, Ev::VmStart(id.0));
        let expire = SimDuration::from_secs_f64(self.cfg.dirty_expire_secs);
        self.queue
            .schedule(start_at + expire, Ev::KupdateTick(id.0));
        Ok(id)
    }

    /// Deploy a barrier-synchronized workload group (one VM per spec).
    /// All ranks must carry workloads that emit matching barriers (CM1).
    ///
    /// # Errors
    /// * [`EngineError::EmptyGroup`] — no placements given.
    /// * [`EngineError::GroupRankMismatch`] — a spec declares a rank
    ///   count that differs from the group size.
    /// * [`EngineError::InvalidTime`] — `start_at` is before
    ///   [`Engine::now`].
    /// * Everything [`Engine::add_vm`] can report per member.
    pub fn add_group(
        &mut self,
        placements: &[(u32, WorkloadSpec)],
        strategy: StrategyKind,
        start_at: SimTime,
    ) -> Result<Vec<VmId>, EngineError> {
        if placements.is_empty() {
            return Err(EngineError::EmptyGroup);
        }
        self.not_before_now("group start", start_at)?;
        for (_, spec) in placements {
            if let Some(expected) = spec.group_ranks() {
                if expected as usize != placements.len() {
                    return Err(EngineError::GroupRankMismatch {
                        expected,
                        got: placements.len() as u32,
                    });
                }
            }
        }
        // Validate all placements before deploying any, so a failed
        // group leaves the engine unchanged.
        for (node, spec) in placements {
            self.validate_placement(*node, spec)?;
        }
        let gid = self.groups.len() as u32;
        let mut members = Vec::with_capacity(placements.len());
        let mut ids = Vec::with_capacity(placements.len());
        for (rank, (node, spec)) in placements.iter().enumerate() {
            let id = self.add_vm_inner(*node, spec, strategy, start_at)?;
            self.vms[id.0 as usize].group = Some((gid, rank as u32));
            members.push(id.0);
            ids.push(id);
        }
        self.groups.push(GroupRt {
            waiting: vec![None; members.len()],
            members,
            arrived: 0,
            episodes: 0,
        });
        Ok(ids)
    }

    /// Schedule a fault to fire at `at`. Faults are first-class events:
    /// they interleave deterministically with every other event, and two
    /// runs with the same fault plan are bit-identical.
    ///
    /// # Errors
    /// [`EngineError::InvalidFault`] for out-of-range nodes or VMs, a
    /// link factor outside `(0, 1]`, or a non-positive stall duration;
    /// [`EngineError::InvalidTime`] when `at` is before [`Engine::now`].
    pub fn schedule_fault(&mut self, at: SimTime, kind: FaultKind) -> Result<(), EngineError> {
        self.not_before_now("fault", at)?;
        let fail = |reason: String| Err(EngineError::InvalidFault { reason });
        if let Some(node) = kind.node() {
            if node >= self.cfg.nodes {
                return fail(format!(
                    "{} targets node {node}, but the cluster has {} nodes",
                    kind.label(),
                    self.cfg.nodes
                ));
            }
        }
        match kind {
            FaultKind::LinkDegrade { factor, .. } => {
                if !(factor > 0.0 && factor <= 1.0) {
                    return fail(format!("link factor {factor} outside (0, 1]"));
                }
            }
            FaultKind::TransferStall { vm, secs } => {
                if vm as usize >= self.vms.len() {
                    return fail(format!(
                        "transfer-stall targets VM {vm}, but only {} are deployed",
                        self.vms.len()
                    ));
                }
                if !(secs.is_finite() && secs > 0.0) {
                    return fail(format!(
                        "stall duration {secs}s must be positive and finite"
                    ));
                }
            }
            FaultKind::LinkRestore { .. }
            | FaultKind::NodeCrash { .. }
            | FaultKind::NodeRestore { .. } => {}
        }
        self.queue.schedule(at, Ev::Fault(kind));
        Ok(())
    }

    /// Run until `horizon` (or until the event queue drains) and return
    /// the run report.
    pub fn run_until(&mut self, horizon: SimTime) -> RunReport {
        self.run_until_observed(horizon, &mut NullObserver)
    }

    /// Like [`Engine::run_until`], but delivering every job status
    /// change and migration milestone to `obs` as it happens. The
    /// observer can stop the run early by returning
    /// [`RunControl::Stop`]; the report then reflects the state at the
    /// abort instant. Either way the run ends with one
    /// [`Observer::on_finish`], after the report is built.
    pub fn run_until_observed(&mut self, horizon: SimTime, obs: &mut dyn Observer) -> RunReport {
        let stopped = self.step_until(horizon, obs) == RunControl::Stop;
        let report = self.finish_run(horizon, stopped);
        obs.on_finish(self);
        report
    }

    /// Process every pending event with time ≤ `until`, delivering
    /// observer callbacks, and return whether the observer stopped the
    /// run. This is the windowed building block of the sharded runner:
    /// a shard steps to each window barrier in turn, and a full run is
    /// one `step_until(horizon)` followed by [`Engine::finish_run`] and
    /// the observer's [`Observer::on_finish`].
    ///
    /// Unlike a finished run, this does **not** move the clock to
    /// `until` — the clock stays at the last processed event, so a
    /// later window (or a final `finish_run`) continues seamlessly.
    pub fn step_until(&mut self, until: SimTime, obs: &mut dyn Observer) -> RunControl {
        while let Some((now, ev)) = self.queue.pop_until(until) {
            debug_assert!(now >= self.now, "event time went backwards");
            self.now = now;
            self.events_processed += 1;
            self.dispatch(ev);
            if self.drain_job_events(obs) == RunControl::Stop {
                return RunControl::Stop;
            }
            // Post-event audit hook: invariant checkers (lsm-check) read
            // the full engine state after every dispatched event.
            if obs.on_tick(self) == RunControl::Stop {
                return RunControl::Stop;
            }
        }
        RunControl::Continue
    }

    /// Close out a run that was stepped to `horizon` with
    /// [`Engine::step_until`]: move the clock to the horizon (unless an
    /// observer aborted, in which case the report reflects the abort
    /// instant), settle the network clock, and build the report. The
    /// caller that holds the observer calls its [`Observer::on_finish`].
    pub fn finish_run(&mut self, horizon: SimTime, stopped: bool) -> RunReport {
        if !stopped {
            self.now = horizon;
        }
        self.net.advance(self.now);
        report::build(self)
    }

    /// Turn on the network's `(time, live-flow count)` changepoint log.
    /// The sharded runner enables this on every shard so the merged
    /// report can reconstruct the exact global concurrent-flow peak (a
    /// shard's own high-water mark is not the fleet's).
    pub fn enable_load_log(&mut self) {
        self.net.enable_load_log();
    }

    /// Deliver pending job events to the observer.
    fn drain_job_events(&mut self, obs: &mut dyn Observer) -> RunControl {
        let mut control = RunControl::Continue;
        while !self.job_events.is_empty() {
            let batch = std::mem::take(&mut self.job_events);
            for ev in batch {
                let outcome = match ev.kind {
                    JobEventKind::Status(status) => {
                        let progress = self.job_progress(ev.job).expect("event names a live job");
                        obs.on_status(ev.job, status, ev.at, &progress)
                    }
                    JobEventKind::Milestone(m) => obs.on_milestone(ev.job, m, ev.at),
                };
                if outcome == RunControl::Stop {
                    control = RunControl::Stop;
                }
            }
        }
        control
    }

    /// Number of events processed so far (diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    // ---------------- read-only inspection (invariant checkers) ----------------

    /// Whether a node has been taken down by a crash fault.
    pub fn node_crashed(&self, node: u32) -> bool {
        self.nodes
            .get(node as usize)
            .map(|n| n.crashed)
            .unwrap_or(false)
    }

    /// Number of deployed VMs.
    pub fn vm_count(&self) -> u32 {
        self.vms.len() as u32
    }

    /// Read-only snapshot handle for one VM's disk/store state, used by
    /// invariant checkers ([`Observer::on_tick`]) to audit conservation
    /// laws — chunk-version monotonicity, store/disk coverage — without
    /// reaching into engine internals.
    pub fn inspect_vm(&self, vm: u32) -> Option<VmInspect<'_>> {
        self.vms.get(vm as usize).map(|v| VmInspect { vm: v })
    }

    /// The network model (read-only): flow views, topology, delivered
    /// bytes — everything a conservation audit needs. Its flow contexts
    /// are the engine's own and stay opaque.
    pub fn network(&self) -> &FlowNet<impl Sized> {
        &self.net
    }

    /// Select the network rate solver. The default incremental solver is
    /// the production path; [`lsm_netsim::SolverMode::Reference`] re-runs
    /// the original from-scratch allocation on every change and exists so
    /// tests can assert the two produce bit-identical runs.
    pub fn set_solver_mode(&mut self, mode: lsm_netsim::SolverMode) {
        self.net.set_solver(mode);
    }

    // ---------------- event dispatch ----------------

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::NetWake => self.drain_net(),
            Ev::DiskWake(n) => self.drain_disk(n),
            Ev::CacheRdWake(n) => self.drain_cache(n, true),
            Ev::CacheWrWake(n) => self.drain_cache(n, false),
            Ev::ComputeDone(v) => self.compute_done(v),
            Ev::CtlArrive(node, msg) => {
                // Control messages addressed to a crashed node are lost
                // with it.
                if !self.nodes[node as usize].crashed {
                    migration::ctl_arrive(self, node, msg);
                }
            }
            Ev::VmStart(v) => self.vm_start(v),
            Ev::MigrationStart(job) => orchestrator::job_ready(self, JobId(job)),
            Ev::RequestReady(req) => orchestrator::intent_ready(self, req),
            Ev::PlannerDrain => orchestrator::planner_drain(self),
            Ev::TelemetryTick => orchestrator::telemetry_tick(self),
            Ev::OpTimer(op) => self.op_part_done(op),
            Ev::ConvergencePoll(v) => migration::convergence_poll(self, v),
            Ev::KupdateTick(v) => self.kupdate_tick(v),
            Ev::Fault(kind) => fault::apply_fault(self, kind),
            Ev::JobDeadline(job) => fault::job_deadline(self, JobId(job)),
            Ev::StallOver(v) => fault::stall_over(self, v),
            Ev::RebalanceTick => rebalance::rebalance_tick(self),
            Ev::RetryFire(job) => resilient::retry_fire(self, JobId(job)),
            Ev::CancelFire(job) => resilient::cancel_fire(self, JobId(job)),
        }
    }

    /// Periodic dirty-expiry sweep: grant the write-back pump credit to
    /// flush the currently dirty chunks even below the background
    /// threshold, then re-arm the timer.
    fn kupdate_tick(&mut self, v: VmIdx) {
        let expire = SimDuration::from_secs_f64(self.cfg.dirty_expire_secs);
        {
            let vm = &mut self.vms[v as usize];
            if vm.crashed {
                return; // the guest kernel died with its host
            }
            if vm.finished_at.is_some() && !vm.cache.has_writeback_work() {
                return; // workload done and clean: stop ticking
            }
            let dirty_chunks = (vm.cache.dirty_bytes() / self.cfg.chunk_size) as u32;
            vm.kupdate_credit = vm.kupdate_credit.max(dirty_chunks);
        }
        io::pump_writeback(self, v);
        self.schedule_in(expire, Ev::KupdateTick(v));
    }

    fn vm_start(&mut self, v: VmIdx) {
        let vm = &mut self.vms[v as usize];
        if vm.started_at.is_some() || vm.crashed {
            return;
        }
        vm.started_at = Some(self.now);
        let actions = vm.driver.start(self.now);
        self.handle_actions(v, actions);
    }

    // ---------------- resource wake/drain plumbing ----------------

    pub(crate) fn resync_net(&mut self) {
        let next = self.net.next_completion().map(|(t, _)| t);
        rearm(&mut self.queue, &mut self.net_wake, next, Ev::NetWake);
    }

    fn drain_net(&mut self) {
        self.net_wake = None;
        while let Some((t, id)) = self.net.next_completion() {
            if t > self.now {
                break;
            }
            let ctx = self.net.complete(self.now, id);
            self.flow_done(ctx);
        }
        self.resync_net();
    }

    /// Start a bulk transfer with completion routing: the network
    /// carries `ctx` and hands it back when the flow ends, and the
    /// context names the flow's traffic class. A flow toward (or from) a
    /// crashed node never enters the network: it is treated as severed
    /// on the spot and its context routed through the same loss handler
    /// a crash uses, so callers need no per-site crash checks.
    pub(crate) fn start_flow(
        &mut self,
        src: u32,
        dst: u32,
        bytes: u64,
        cap: Option<f64>,
        ctx: FlowCtx,
    ) {
        if self.nodes[src as usize].crashed || self.nodes[dst as usize].crashed {
            fault::flow_lost(self, ctx);
            return;
        }
        let (now, tag) = (self.now, ctx.tag());
        self.net
            .start(now, NodeId(src), NodeId(dst), bytes, cap, tag, ctx);
        self.resync_net();
    }

    /// Deliver a control message after the fabric latency (loopback
    /// messages are immediate).
    pub(crate) fn send_ctl(&mut self, from: u32, to: u32, msg: Ctl) {
        let delay = if from == to {
            SimDuration::ZERO
        } else {
            self.net.account_control(1500);
            self.net.latency()
        };
        self.queue
            .schedule(self.now + delay, Ev::CtlArrive(to, msg));
    }

    pub(crate) fn disk_submit(&mut self, node: u32, bytes: u64, ctx: DiskCtx) {
        let disk = &mut self.nodes[node as usize].disk;
        disk.res.submit(self.now, bytes, ctx);
        disk.rearm(&mut self.queue, Ev::DiskWake(node));
    }

    pub(crate) fn cache_submit(&mut self, node: u32, bytes: u64, read: bool, op: OpId) {
        let lane = self.nodes[node as usize].cache(read);
        lane.res.submit(self.now, bytes, op);
        lane.rearm(&mut self.queue, Ev::cache_wake(node, read));
    }

    /// A disk wake fired. Its slot is cleared once, up front: routing a
    /// completion may submit to this lane and arm a fresh wake, which
    /// the final rearm must see rather than overwrite.
    fn drain_disk(&mut self, node: u32) {
        self.nodes[node as usize].disk.wake = None;
        while let Some(ctx) = self.nodes[node as usize].disk.res.pop_due(self.now) {
            self.disk_done(node, ctx);
        }
        self.nodes[node as usize]
            .disk
            .rearm(&mut self.queue, Ev::DiskWake(node));
    }

    /// A cache wake fired; same order as [`Self::drain_disk`].
    fn drain_cache(&mut self, node: u32, read: bool) {
        self.nodes[node as usize].cache(read).wake = None;
        while let Some(op) = self.nodes[node as usize].cache(read).res.pop_due(self.now) {
            self.op_part_done(op);
        }
        self.nodes[node as usize]
            .cache(read)
            .rearm(&mut self.queue, Ev::cache_wake(node, read));
    }

    // ---------------- completion routing ----------------

    fn flow_done(&mut self, ctx: FlowCtx) {
        match ctx {
            FlowCtx::Mem { vm } => migration::mem_copy_done(self, vm),
            FlowCtx::Batch(batch) => migration::batch_arrived(self, batch),
            FlowCtx::MirrorWrite { vm, op, chunks } => {
                migration::mirror_write_arrived(self, vm, op, chunks)
            }
            FlowCtx::RepoFetch(fetch) => io::repo_fetch_arrived(self, fetch),
            FlowCtx::PvfsLeg(leg) => pvfs::leg_flow_done(self, leg),
            FlowCtx::Halo { op } => self.op_part_done(op),
        }
    }

    fn disk_done(&mut self, node: u32, ctx: DiskCtx) {
        if self.nodes[node as usize].crashed {
            // The device died mid-request: route the context through the
            // loss handler instead of its normal completion path.
            fault::disk_lost(self, node, ctx);
            return;
        }
        match ctx {
            DiskCtx::VmOp { op } => self.op_part_done(op),
            DiskCtx::Writeback { vm, chunk } => io::writeback_done(self, vm, chunk),
            DiskCtx::BatchRead(batch) => migration::batch_read_done(self, batch),
            DiskCtx::RepoRead(fetch) => io::repo_read_done(self, fetch),
            DiskCtx::Ingest { node } => {
                self.nodes[node as usize].ingest_inflight -= 1;
                self.pump_ingest(node);
            }
            DiskCtx::PvfsServer(leg) => pvfs::server_disk_done(self, leg),
        }
    }

    /// Queue network-received bytes for background drain to `node`'s disk
    /// (host page cache absorbs them; the disk stays busy for exactly the
    /// received volume without blocking the transfer pipelines).
    pub(crate) fn ingest(&mut self, node: u32, bytes: u64) {
        self.nodes[node as usize].ingest_backlog += bytes;
        self.pump_ingest(node);
    }

    fn pump_ingest(&mut self, node: u32) {
        let batch = self.cfg.chunk_size * self.cfg.transfer_batch as u64;
        loop {
            let n = &mut self.nodes[node as usize];
            if n.ingest_inflight >= self.cfg.writeback_depth.saturating_add(2)
                || n.ingest_backlog == 0
            {
                break;
            }
            let take = batch.min(n.ingest_backlog);
            n.ingest_backlog -= take;
            n.ingest_inflight += 1;
            self.disk_submit(node, take, DiskCtx::Ingest { node });
        }
    }

    // ---------------- ops ----------------

    pub(crate) fn new_op(
        &mut self,
        vm: VmIdx,
        token: ActionToken,
        kind: OpKind,
        bytes: u64,
    ) -> OpId {
        self.ops.insert(OpRt {
            vm,
            token,
            kind,
            parts: 0,
            issued: self.now,
            bytes,
        })
    }

    pub(crate) fn op_add_parts(&mut self, op: OpId, n: u32) {
        self.ops.get_mut(op).expect("live op").parts += n;
    }

    pub(crate) fn op_parts(&self, op: OpId) -> u32 {
        self.ops.get(op).map(|o| o.parts).unwrap_or(0)
    }

    pub(crate) fn op_vm(&self, op: OpId) -> Option<VmIdx> {
        self.ops.get(op).map(|o| o.vm)
    }

    /// One part of an op finished; completes the op at zero outstanding.
    /// Tolerates unknown ops: a node crash purges the ops of its VMs,
    /// but completions already in flight (other nodes' disks, timers)
    /// still land here afterwards.
    pub(crate) fn op_part_done(&mut self, op: OpId) {
        let done = {
            let Some(o) = self.ops.get_mut(op) else {
                return;
            };
            debug_assert!(o.parts > 0, "op part underflow");
            o.parts -= 1;
            o.parts == 0
        };
        if done {
            self.finish_op(op);
        }
    }

    pub(crate) fn finish_op(&mut self, op: OpId) {
        let Some(o) = self.ops.remove(op) else {
            return; // purged by a crash while a completion was in flight
        };
        let vm = &mut self.vms[o.vm as usize];
        let dur = self.now.since(o.issued);
        match o.kind {
            OpKind::Read => {
                vm.read_bytes += o.bytes;
                vm.read_busy += dur;
            }
            OpKind::Write => {
                vm.write_bytes += o.bytes;
                vm.write_busy += dur;
            }
            _ => {}
        }
        self.deliver_completion(o.vm, o.token);
    }

    // ---------------- driver interaction ----------------

    pub(crate) fn deliver_completion(&mut self, v: VmIdx, token: ActionToken) {
        let vm = &mut self.vms[v as usize];
        if vm.crashed {
            return; // the driver died with its host
        }
        if vm.vm.state() == VmState::Paused {
            vm.held_completions.push_back(token);
            return;
        }
        let actions = vm.driver.on_complete(self.now, token);
        self.handle_actions(v, actions);
    }

    pub(crate) fn release_held(&mut self, v: VmIdx) {
        if self.vms[v as usize].crashed {
            return;
        }
        while let Some(token) = self.vms[v as usize].held_completions.pop_front() {
            let vm = &mut self.vms[v as usize];
            if vm.vm.state() == VmState::Paused {
                // Re-paused mid-drain: put it back and stop.
                vm.held_completions.push_front(token);
                break;
            }
            let actions = vm.driver.on_complete(self.now, token);
            self.handle_actions(v, actions);
        }
    }

    pub(crate) fn handle_actions(&mut self, v: VmIdx, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Compute { token, dur } => self.start_compute(v, token, dur),
                Action::Io {
                    token,
                    kind,
                    offset,
                    len,
                } => {
                    if self.vms[v as usize].strategy == StrategyKind::SharedFs {
                        pvfs::submit_io(self, v, token, kind, offset, len);
                    } else {
                        io::submit_io(self, v, token, kind, offset, len);
                    }
                }
                Action::Fsync { token } => {
                    if self.vms[v as usize].strategy == StrategyKind::SharedFs {
                        // PVFS writes are synchronous: fsync is a no-op.
                        self.deliver_completion(v, token);
                    } else {
                        io::submit_fsync(self, v, token);
                    }
                }
                Action::NetSend { token, peer, bytes } => self.net_send(v, token, peer, bytes),
                Action::Barrier { token } => self.barrier_arrive(v, token),
                Action::Finish => {
                    self.vms[v as usize].finished_at = Some(self.now);
                }
            }
        }
    }

    // ---------------- compute (virtual progress) ----------------

    pub(crate) fn compute_factor(&self, v: VmIdx) -> f64 {
        let vm = &self.vms[v as usize];
        if vm.vm.state() == VmState::Paused {
            return 0.0;
        }
        let Some(m) = vm.migration.as_ref() else {
            return 1.0;
        };
        if matches!(m.phase, MigPhase::Complete | MigPhase::Aborted) {
            return 1.0;
        }
        // A QoS bandwidth cap bounds the transfer rate, and the
        // guest-visible interference shrinks with it (scale 1.0 when
        // no cap is configured).
        let mut f = 1.0 - self.cfg.migration_cpu_steal * qos::interference_scale(self);
        // Post-copy memory: remote page faults slow the guest while the
        // background pull is still running.
        if m.postcopy_mem
            .as_ref()
            .map(|p| p.faulting())
            .unwrap_or(false)
        {
            f *= self.cfg.postcopy_fault_slowdown;
        }
        // Auto-converge: each throttle step compounds a configured
        // slowdown onto the guest until switchover releases it.
        if m.throttle_step > 0 {
            if let Some(r) = self.resilience.as_ref() {
                f *= (1.0 - r.converge_step).powi(m.throttle_step as i32);
            }
        }
        // Compression: the source guest pays the CPU cost while it is
        // still the one generating (and compressing) the transfer —
        // i.e. until control moves to the destination.
        if m.control_at.is_none() && self.qos.compressing() {
            f *= 1.0 - self.qos.compress_cpu_frac;
        }
        f
    }

    fn start_compute(&mut self, v: VmIdx, token: ActionToken, dur: SimDuration) {
        debug_assert!(
            self.vms[v as usize].compute.is_none(),
            "driver issued overlapping compute bursts"
        );
        let factor = self.compute_factor(v);
        let mut rt = ComputeRt {
            token,
            remaining: dur.as_secs_f64(),
            last: self.now,
            factor,
            ev: None,
        };
        if factor > 0.0 {
            let at = self.now + SimDuration::from_secs_f64(rt.remaining / factor);
            rt.ev = Some(self.queue.schedule(at, Ev::ComputeDone(v)));
        }
        self.vms[v as usize].compute = Some(rt);
    }

    /// Recompute the compute timer after a factor change (pause, resume,
    /// migration start/stop).
    pub(crate) fn update_compute(&mut self, v: VmIdx) {
        // Every factor-changing transition routes through here, which
        // makes it the one choke point where the SLA degradation
        // integral can advance in lockstep with the compute model —
        // including for VMs with no compute burst in flight.
        let factor = self.compute_factor(v);
        qos::sla_transition(self, v, factor);
        let now = self.now;
        let Some(mut rt) = self.vms[v as usize].compute.take() else {
            return;
        };
        if factor.to_bits() == rt.factor.to_bits() {
            // Unchanged factor: progress since `rt.last` is still linear
            // at the same slope, so the pending completion timer (if
            // any) remains exact. Skipping the cancel + reschedule keeps
            // this no-op transition off the event heap — it was the
            // dominant cost of the always-on SLA hook on migration-heavy
            // runs.
            self.vms[v as usize].compute = Some(rt);
            return;
        }
        // Integrate progress at the old factor.
        let dt = now.since(rt.last).as_secs_f64();
        rt.remaining = (rt.remaining - dt * rt.factor).max(0.0);
        rt.last = now;
        rt.factor = factor;
        if let Some(ev) = rt.ev.take() {
            self.queue.cancel(ev);
        }
        if factor > 0.0 {
            let at = now + SimDuration::from_secs_f64(rt.remaining / factor);
            rt.ev = Some(self.queue.schedule(at, Ev::ComputeDone(v)));
        }
        self.vms[v as usize].compute = Some(rt);
    }

    fn compute_done(&mut self, v: VmIdx) {
        let now = self.now;
        let Some(mut rt) = self.vms[v as usize].compute.take() else {
            return; // stale timer after cancellation
        };
        let dt = now.since(rt.last).as_secs_f64();
        rt.remaining = (rt.remaining - dt * rt.factor).max(0.0);
        rt.last = now;
        if rt.remaining > 1e-9 {
            // Stale event (factor changed without cancel); reschedule.
            if rt.factor > 0.0 {
                let at = now + SimDuration::from_secs_f64(rt.remaining / rt.factor);
                rt.ev = Some(self.queue.schedule(at, Ev::ComputeDone(v)));
            }
            self.vms[v as usize].compute = Some(rt);
            return;
        }
        self.deliver_completion(v, rt.token);
    }

    // ---------------- group communication ----------------

    fn net_send(&mut self, v: VmIdx, token: ActionToken, peer_rank: u32, bytes: u64) {
        let (gid, _) = self.vms[v as usize].group.expect("NetSend outside a group");
        let peer_vm = self.groups[gid as usize].members[peer_rank as usize];
        let src = self.vms[v as usize].vm.host;
        let dst = self.vms[peer_vm as usize].vm.host;
        let op = self.new_op(v, token, OpKind::NetSend, bytes);
        self.op_add_parts(op, 1);
        if src == dst {
            // Same host (e.g. after migration): memory-speed loopback.
            self.op_part_done(op);
            return;
        }
        self.start_flow(src, dst, bytes, None, FlowCtx::Halo { op });
    }

    fn barrier_arrive(&mut self, v: VmIdx, token: ActionToken) {
        let (gid, rank) = self.vms[v as usize].group.expect("Barrier outside a group");
        let g = &mut self.groups[gid as usize];
        debug_assert!(g.waiting[rank as usize].is_none(), "double barrier arrival");
        g.waiting[rank as usize] = Some(token);
        g.arrived += 1;
        if g.arrived as usize == g.members.len() {
            g.arrived = 0;
            g.episodes += 1;
            let to_release: Vec<(VmIdx, ActionToken)> = g
                .members
                .clone()
                .into_iter()
                .zip(g.waiting.iter_mut().map(|w| w.take().expect("arrived")))
                .collect();
            for (member, tok) in to_release {
                self.deliver_completion(member, tok);
            }
        }
    }

    // ---------------- accessors for submodules ----------------

    pub(crate) fn cfg(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub(crate) fn vm(&self, v: VmIdx) -> &VmRt {
        &self.vms[v as usize]
    }

    pub(crate) fn vm_mut(&mut self, v: VmIdx) -> &mut VmRt {
        &mut self.vms[v as usize]
    }

    pub(crate) fn vms(&self) -> &[VmRt] {
        &self.vms
    }

    pub(crate) fn repo_mut(&mut self) -> &mut StripedRepo {
        &mut self.repo
    }

    pub(crate) fn pvfs_ref(&self) -> &PvfsFs {
        &self.pvfs
    }

    pub(crate) fn schedule_in(&mut self, d: SimDuration, ev: Ev) -> EventId {
        self.queue.schedule(self.now + d, ev)
    }
}

/// Read-only view of one VM's state for invariant checkers (see
/// [`Engine::inspect_vm`]).
pub struct VmInspect<'a> {
    vm: &'a VmRt,
}

impl VmInspect<'_> {
    /// The node currently hosting the VM.
    pub fn host(&self) -> u32 {
        self.vm.vm.host
    }

    /// Whether the VM died with its host.
    pub fn crashed(&self) -> bool {
        self.vm.crashed
    }

    /// Number of chunks in the VM's virtual disk.
    pub fn nchunks(&self) -> u32 {
        self.vm.disk.nchunks()
    }

    /// Logical content version the guest observes for a chunk
    /// (0 = pristine base content; strictly increasing across writes).
    pub fn disk_version(&self, chunk: u32) -> u64 {
        self.vm.disk.version(lsm_blockdev::ChunkId(chunk))
    }

    /// Version physically present for a chunk at the VM's current host
    /// (`None` if the store holds nothing for it).
    pub fn store_version(&self, chunk: u32) -> Option<u64> {
        let c = lsm_blockdev::ChunkId(chunk);
        self.vm.store.has(c).then(|| self.vm.store.version(c))
    }

    /// Version building up at a migration destination, if a migration
    /// is staging one.
    pub fn dest_store_version(&self, chunk: u32) -> Option<u64> {
        let c = lsm_blockdev::ChunkId(chunk);
        self.vm
            .dest_store
            .as_ref()
            .and_then(|s| s.has(c).then(|| s.version(c)))
    }
}
