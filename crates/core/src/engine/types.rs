//! Internal runtime state of the engine: events, per-node and per-VM
//! bookkeeping, in-flight operation contexts.
//!
//! Local storage moves in [`Batch`]es of one pipeline whatever their
//! [`BatchKind`]: the source's push and the destination's prefetch and
//! on-demand pulls. A batch carries `(chunk, version)` pairs from issue
//! on, through a pull request ([`Ctl::PullRequest`]), the source disk
//! read ([`DiskCtx::BatchRead`]) and its one flow ([`FlowCtx::Batch`]),
//! and [`MigrationRt::in_flight`] counts it per kind until it lands or
//! is lost.
//!
//! Guest memory moves in [`MemCopy`]s, one [`CopyKind`] each, under one
//! flow context ([`FlowCtx::Mem`]); [`MigrationRt::copy`] names the copy
//! in flight and the shards it still has out.
//!
//! The two guest-I/O pipelines carry one context each through their
//! disk read and their flow: a [`RepoFetch`] from a repository replica,
//! a [`PvfsLeg`] to or from a PVFS server.

use super::job::JobId;
use super::orchestrator::Telemetry;
use crate::policy::{HybridDest, HybridSource, MirrorSource, PrecopySource, StrategyKind};
use lsm_blockdev::{ChunkId, ChunkSet, PageCache, VirtualDisk, WriteCounter};
use lsm_hypervisor::{PrecopyMemory, Vm};
use lsm_netsim::{NodeId, TrafficTag};
use lsm_simcore::fault::FaultKind;
use lsm_simcore::resource::SharedResource;
use lsm_simcore::time::{SimDuration, SimTime};
use lsm_simcore::{EventId, EventQueue};
use lsm_workloads::{ActionToken, IoKind, Workload};
use std::collections::{HashMap, VecDeque};

pub(crate) type VmIdx = u32;
/// An [`OpTable`] handle: slot in the low 32 bits, the slot's generation
/// in the high 32.
pub(crate) type OpId = u64;

/// Engine events. Resource "wake" events are drained against the
/// resource's own completion clock, so stale wakes are harmless.
#[derive(Debug)]
pub(crate) enum Ev {
    /// The network may have a completion due.
    NetWake,
    /// A node's disk may have a completion due.
    DiskWake(u32),
    /// A node's cache-read lane may have a completion due.
    CacheRdWake(u32),
    /// A node's cache-write lane may have a completion due.
    CacheWrWake(u32),
    /// A VM's current compute burst finished (virtual-progress timer).
    ComputeDone(VmIdx),
    /// A control message arrives at `node`.
    CtlArrive(u32, Ctl),
    /// Start the workload of a VM.
    VmStart(VmIdx),
    /// A scheduled migration job's start time arrived: the job becomes
    /// ready for planner admission (the index into `Engine::jobs`).
    MigrationStart(u32),
    /// A submitted orchestration request's time arrived (the index into
    /// the orchestrator's intent table).
    RequestReady(u32),
    /// An admission slot freed earlier in this instant; the orchestrator
    /// re-drains its ready queue.
    PlannerDrain,
    /// Periodic per-VM I/O telemetry sampling (windowed write/read rates
    /// for the adaptive planner).
    TelemetryTick,
    /// Generic per-operation timer (PVFS op overhead).
    OpTimer(OpId),
    /// Re-check a gated stop-and-copy (block stream convergence poll).
    ConvergencePoll(VmIdx),
    /// Periodic dirty-expiry write-back sweep (Linux kupdate).
    KupdateTick(VmIdx),
    /// A scheduled fault fires.
    Fault(FaultKind),
    /// A job's configured deadline expires (index into `Engine::jobs`).
    JobDeadline(u32),
    /// A transfer stall on this VM's migration ends.
    StallOver(VmIdx),
    /// Periodic autonomic-rebalancer scan: classify node pressure and
    /// originate/re-plan migrations (only scheduled when an
    /// `[autonomic]` configuration is installed).
    RebalanceTick,
    /// A job's retry backoff elapsed: re-place if needed and re-queue
    /// the job through the planner (index into `Engine::jobs`; only
    /// scheduled when a `[resilience]` configuration is installed).
    RetryFire(u32),
    /// A scheduled cancellation of a job arrives (index into
    /// `Engine::jobs`).
    CancelFire(u32),
}

impl Ev {
    /// The wake event of `node`'s cache-read (`read`) or cache-write lane.
    pub fn cache_wake(node: u32, read: bool) -> Ev {
        if read {
            Ev::CacheRdWake(node)
        } else {
            Ev::CacheWrWake(node)
        }
    }
}

/// Control-plane messages between migration managers (latency-modeled).
#[derive(Debug)]
pub(crate) enum Ctl {
    /// Source → destination: assume the destination role (Algorithm 3,
    /// MIGRATION_NOTIFICATION).
    MigrationNotify,
    /// Source → destination: remaining set + write counts (Algorithm 3,
    /// TRANSFER_IO_CONTROL). The VM resumes at the destination once this
    /// arrives — the destination must be ready to intercept I/O first.
    /// The source's counter travels by value and becomes the
    /// destination's.
    TransferIoControl {
        vm: VmIdx,
        remaining: ChunkSet,
        counts: WriteCounter,
    },
    /// Destination → source: serve a prefetch or on-demand batch.
    PullRequest(Batch),
}

/// The three guises of the one storage transfer mechanism.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BatchKind {
    /// The source's background push (Algorithms 1–2), or the precopy
    /// and mirror bulk streams.
    Push,
    /// The destination's write-count-ordered BACKGROUND_PULL
    /// (Algorithm 3).
    Prefetch,
    /// Chunks a guest read at the destination waits for (Algorithm 4).
    OnDemand,
}

impl BatchKind {
    /// The traffic tag a batch's flow is accounted under.
    pub fn tag(self) -> TrafficTag {
        match self {
            BatchKind::Push => TrafficTag::StoragePush,
            BatchKind::Prefetch | BatchKind::OnDemand => TrafficTag::StoragePull,
        }
    }
}

/// Chunks that travel from the source to the destination together: one
/// source disk read, one flow, one completion event, per-chunk landing
/// in manifest order.
#[derive(Debug)]
pub(crate) struct Batch {
    pub vm: VmIdx,
    pub kind: BatchKind,
    /// The chunks with their versions. Versions are 0 placeholders until
    /// the source read completes and stamps them in place (send time).
    pub chunks: Vec<(ChunkId, u64)>,
    /// Migration generation that issued the batch (see
    /// `VmRt::mig_epoch`). Aborts cancel a migration's flows, but not its
    /// messages on the wire or its disk reads; a batch that outlives its
    /// migration (possibly with a successor already running) is dropped,
    /// never counted against the successor's pipeline.
    pub epoch: u64,
}

/// The kinds of memory copy a migration makes.
#[derive(Debug)]
pub(crate) enum CopyKind {
    /// An iterative pre-copy round; the first pass is round 1.
    Round,
    /// An extra round of fresh dirt while a pre-copy or mirror storage
    /// stream converges before the stop.
    Linger,
    /// The stop backlog riding one more live round, because the stop
    /// would blow the hard downtime limit.
    Deferral,
    /// The stop-and-copy flush, carrying the chunks a forced convergence
    /// still owed; they land at the destination with it.
    Stop { forced: Vec<ChunkId> },
    /// Post-copy: the hot set, moved while the guest is paused.
    Handover,
    /// Post-copy: the rest of the touched memory, pulled while the guest
    /// runs at the destination.
    Pull,
}

/// The memory copy a migration has in flight.
#[derive(Debug)]
pub(crate) struct MemCopy {
    pub kind: CopyKind,
    /// Guest bytes copied (before compression).
    pub raw: u64,
    /// Multifd shards still on the wire; the copy lands with the last.
    pub shards: u32,
}

/// A repository fetch of base chunks for the guest on `vm`: the replica
/// disk read, then the flow to the requesting `node` (skipped when the
/// replica is that node).
#[derive(Debug)]
pub(crate) struct RepoFetch {
    pub vm: VmIdx,
    pub node: u32,
    pub chunks: Vec<ChunkId>,
    /// The guest op waiting on the chunks (None: background prefetch).
    pub op: Option<OpId>,
    pub replica: NodeId,
}

/// One stripe leg of a PVFS op: a write goes over the wire, then to the
/// server disk; a read the other way round.
#[derive(Debug)]
pub(crate) struct PvfsLeg {
    pub op: OpId,
    pub server: NodeId,
    pub bytes: u64,
    pub write: bool,
}

/// Why a network flow exists (completion routing).
#[derive(Debug)]
pub(crate) enum FlowCtx {
    /// One shard of the VM's memory copy in flight.
    Mem { vm: VmIdx },
    /// A storage batch on the wire, its versions stamped.
    Batch(Batch),
    /// Mirrored write: `op` is the guest write gated on it.
    MirrorWrite {
        vm: VmIdx,
        op: OpId,
        chunks: Vec<(ChunkId, u64)>,
    },
    /// Repository chunks on their way to the requesting node.
    RepoFetch(RepoFetch),
    /// A PVFS leg's network hop.
    PvfsLeg(PvfsLeg),
    /// Application message (CM1 halo).
    Halo { op: OpId },
}

/// Why a disk request exists.
#[derive(Debug)]
pub(crate) enum DiskCtx {
    /// Part of a VM I/O op (cache miss read, or throttled write).
    VmOp { op: OpId },
    /// Background write-back of a dirty page-cache chunk.
    Writeback { vm: VmIdx, chunk: ChunkId },
    /// Source-side read of a storage batch; its flow starts when the
    /// read completes.
    BatchRead(Batch),
    /// Replica-side read serving a repository fetch; flow follows.
    RepoRead(RepoFetch),
    /// Ingest of network-received bytes to the local disk (host-cache
    /// drain); non-blocking for the pipelines.
    Ingest { node: u32 },
    /// PVFS server-side disk work for one stripe leg.
    PvfsServer(PvfsLeg),
}

/// An in-flight VM operation (one driver Action).
#[derive(Debug)]
pub(crate) struct OpRt {
    pub vm: VmIdx,
    pub token: ActionToken,
    pub kind: OpKind,
    /// Outstanding parts; the op completes when this reaches zero.
    pub parts: u32,
    pub issued: SimTime,
    pub bytes: u64,
}

/// The in-flight VM operations, in reusable slots. A slot's generation
/// advances whenever its op is removed or purged, so an [`OpId`] stops
/// resolving the moment its op leaves, even once the slot holds another
/// op: a completion still in flight for a purged op finds nothing.
#[derive(Default)]
pub(crate) struct OpTable {
    slots: Vec<OpSlot>,
    /// Vacant slots, reused last-freed first.
    free: Vec<u32>,
}

#[derive(Default)]
struct OpSlot {
    gen: u32,
    op: Option<OpRt>,
}

impl OpTable {
    pub fn insert(&mut self, op: OpRt) -> OpId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(OpSlot::default());
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 ops in flight")
        });
        let s = &mut self.slots[slot as usize];
        s.op = Some(op);
        u64::from(s.gen) << 32 | u64::from(slot)
    }

    /// The index of `id`'s slot while the slot is still in `id`'s
    /// generation.
    fn index(&self, id: OpId) -> Option<usize> {
        let slot = id as u32 as usize;
        (self.slots.get(slot)?.gen == (id >> 32) as u32).then_some(slot)
    }

    pub fn get(&self, id: OpId) -> Option<&OpRt> {
        self.slots[self.index(id)?].op.as_ref()
    }

    pub fn get_mut(&mut self, id: OpId) -> Option<&mut OpRt> {
        let i = self.index(id)?;
        self.slots[i].op.as_mut()
    }

    pub fn remove(&mut self, id: OpId) -> Option<OpRt> {
        let i = self.index(id)?;
        self.vacate(i)
    }

    /// Drop every op for which `keep` is false.
    pub fn retain(&mut self, mut keep: impl FnMut(&OpRt) -> bool) {
        for i in 0..self.slots.len() {
            if self.slots[i].op.as_ref().is_some_and(|o| !keep(o)) {
                self.vacate(i);
            }
        }
    }

    fn vacate(&mut self, i: usize) -> Option<OpRt> {
        let s = &mut self.slots[i];
        let op = s.op.take()?;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(i as u32);
        Some(op)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum OpKind {
    Read,
    Write,
    Fsync,
    NetSend,
}

impl From<IoKind> for OpKind {
    fn from(k: IoKind) -> Self {
        match k {
            IoKind::Read => OpKind::Read,
            IoKind::Write => OpKind::Write,
        }
    }
}

/// One disk or page-cache lane of a node: the equal-share resource
/// holding each request's completion context, and the lane's single
/// pending wake event with its time.
pub(crate) struct Lane<C> {
    pub res: SharedResource<C>,
    pub wake: Option<(EventId, SimTime)>,
}

impl<C> Lane<C> {
    pub fn new(capacity: f64) -> Self {
        Lane {
            res: SharedResource::new(capacity),
            wake: None,
        }
    }

    /// Move the wake to the lane's earliest completion (see [`rearm`]).
    pub fn rearm(&mut self, queue: &mut EventQueue<Ev>, ev: Ev) {
        rearm(queue, &mut self.wake, self.res.next_completion(), ev);
    }
}

/// Keep a lane's single pending wake at `next`, its earliest completion
/// (network, disk, cache read or cache write alike): a wake already set
/// for that time stays, any other is cancelled, and `ev` is scheduled
/// unless the lane is idle.
pub(crate) fn rearm(
    queue: &mut EventQueue<Ev>,
    wake: &mut Option<(EventId, SimTime)>,
    next: Option<SimTime>,
    ev: Ev,
) {
    let t = next.unwrap_or(SimTime::FAR_FUTURE);
    if let Some((id, at)) = *wake {
        if at == t {
            return;
        }
        queue.cancel(id);
    }
    *wake = (t != SimTime::FAR_FUTURE).then(|| (queue.schedule(t, ev), t));
}

/// Per-node physical state.
pub(crate) struct NodeRt {
    /// True once a crash fault took the node down (permanent).
    pub crashed: bool,
    pub disk: Lane<DiskCtx>,
    /// Page-cache lanes; they only ever serve VM ops.
    pub cache_rd: Lane<OpId>,
    pub cache_wr: Lane<OpId>,
    /// Bytes received from the network awaiting drain to disk.
    pub ingest_backlog: u64,
    pub ingest_inflight: u32,
}

impl NodeRt {
    /// The page-cache lane serving reads (`read`) or writes.
    pub fn cache(&mut self, read: bool) -> &mut Lane<OpId> {
        if read {
            &mut self.cache_rd
        } else {
            &mut self.cache_wr
        }
    }
}

/// Virtual-progress compute timer (stretchable by pause / CPU steal).
#[derive(Debug)]
pub(crate) struct ComputeRt {
    pub token: ActionToken,
    /// Nominal seconds of work left at `last`.
    pub remaining: f64,
    pub last: SimTime,
    /// Progress rate: 1.0 normal, <1 under migration steal, 0 paused.
    pub factor: f64,
    pub ev: Option<lsm_simcore::EventId>,
}

/// Migration lifecycle phase. Only `migration::set_phase` changes it
/// once the record exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MigPhase {
    /// Memory rounds + strategy push phase in progress.
    Active,
    /// Memory wants to stop but the block/bulk stream has not converged
    /// (precopy/mirror gating); extra engine-driven rounds run.
    Linger,
    /// VM paused; final memory flush in flight.
    StopAndCopy,
    /// Stop flush done; draining in-flight pushes before handoff.
    SyncDrain,
    /// Control at destination; destination pulling remaining chunks.
    PullPhase,
    /// Done.
    Complete,
    /// Aborted by a fault or deadline: the job is `Failed`, the state is
    /// kept only for partial-progress reporting. Terminal like
    /// `Complete` — no event handler advances an aborted migration.
    Aborted,
}

/// A migration's storage transfer state: the one policy state machine
/// its strategy runs (see [`crate::policy`]).
pub(crate) enum Transfer {
    /// The hybrid scheme (push enabled) and storage post-copy (push
    /// disabled): the source's state, and the destination's from the
    /// remaining-set handoff on.
    Hybrid {
        src: HybridSource,
        dst: Option<HybridDest>,
    },
    /// Incremental block migration alongside memory pre-copy.
    Precopy(PrecopySource),
    /// Background bulk copy with synchronous write mirroring.
    Mirror(MirrorSource),
    /// Nothing to move: a shared-FS guest has no local storage, and a
    /// completed migration has dropped its policy state.
    Idle,
}

impl Transfer {
    /// The fresh state of `strategy` over `manifest`, the chunks it must
    /// move (ignored for a shared-FS guest).
    pub fn start(strategy: StrategyKind, manifest: ChunkSet, threshold: u32) -> Transfer {
        match strategy {
            StrategyKind::Hybrid | StrategyKind::Postcopy => Transfer::Hybrid {
                src: HybridSource::start(manifest, threshold, strategy == StrategyKind::Hybrid),
                dst: None,
            },
            StrategyKind::Precopy => Transfer::Precopy(PrecopySource::start(manifest)),
            StrategyKind::Mirror => Transfer::Mirror(MirrorSource::start(manifest)),
            StrategyKind::SharedFs => Transfer::Idle,
        }
    }

    /// The destination's pull state, once the remaining set arrived.
    pub fn dest(&self) -> Option<&HybridDest> {
        match self {
            Transfer::Hybrid { dst, .. } => dst.as_ref(),
            _ => None,
        }
    }

    pub fn dest_mut(&mut self) -> Option<&mut HybridDest> {
        match self {
            Transfer::Hybrid { dst, .. } => dst.as_mut(),
            _ => None,
        }
    }

    /// The next chunk for the source's push or bulk stream.
    pub fn next_send(&mut self) -> Option<ChunkId> {
        match self {
            Transfer::Hybrid { src, .. } => src.next_push(),
            Transfer::Precopy(src) => src.next_send(),
            Transfer::Mirror(src) => src.next_send(),
            Transfer::Idle => None,
        }
    }

    /// Upper bound on the chunks [`Transfer::next_send`] can still
    /// return: the source's remaining set. A batch is sized by this,
    /// never by `transfer_batch` alone, which may be as large as
    /// `u32::MAX`.
    pub fn source_remaining(&self) -> u32 {
        match self {
            Transfer::Hybrid { src, .. } => src.remaining_count(),
            Transfer::Precopy(src) => src.remaining(),
            Transfer::Mirror(src) => src.remaining(),
            Transfer::Idle => 0,
        }
    }

    /// A sent chunk landed at the destination.
    pub fn send_done(&mut self, c: ChunkId) {
        match self {
            Transfer::Hybrid { src, .. } => src.push_done(c),
            Transfer::Precopy(src) => src.send_done(),
            Transfer::Mirror(src) => src.send_done(),
            Transfer::Idle => {}
        }
    }

    /// A sent chunk was lost in flight: it returns to the source's
    /// manifest.
    pub fn send_lost(&mut self, c: ChunkId) {
        match self {
            Transfer::Hybrid { src, .. } => src.push_lost(c),
            Transfer::Precopy(src) => src.send_lost(c),
            Transfer::Mirror(src) => src.send_lost(c),
            Transfer::Idle => {}
        }
    }

    /// A guest write of `c` before control moved. Returns true when the
    /// source re-sends written chunks, so its push or block stream should
    /// run; mirror mode copies the write synchronously instead.
    pub fn source_write(&mut self, c: ChunkId) -> bool {
        match self {
            Transfer::Hybrid { src, .. } => src.on_write(c),
            Transfer::Precopy(src) => src.on_write(c),
            Transfer::Mirror(src) => src.on_write(c),
            Transfer::Idle => {}
        }
        matches!(self, Transfer::Hybrid { .. } | Transfer::Precopy(_))
    }

    /// Forced convergence: every chunk the precopy or mirror bulk stream
    /// still owes, marked sent and landed (they travel inside the
    /// stop-and-copy flush). The hybrid scheme has nothing to force: its
    /// remaining set is pulled after control moves.
    pub fn drain_bulk(&mut self) -> Vec<ChunkId> {
        let mut out = Vec::new();
        if matches!(self, Transfer::Precopy(_) | Transfer::Mirror(_)) {
            while let Some(c) = self.next_send() {
                self.send_done(c);
                out.push(c);
            }
        }
        out
    }
}

/// Per-migration runtime state: one attempt of one job. It lives in its
/// VM's `migration` slot, which the I/O path reads on every guest
/// operation, until another job of the VM starts and moves it into
/// [`JobRt::archived`](super::orchestrator::JobRt::archived). A later
/// attempt of the same job replaces it instead.
pub(crate) struct MigrationRt {
    /// The job this attempt belongs to. Reports and milestones go to it,
    /// whatever other jobs the VM has since been given.
    pub job: JobId,
    pub strategy: StrategyKind,
    pub dest: u32,
    pub source: u32,
    pub phase: MigPhase,
    pub mem: PrecopyMemory,
    /// Post-copy memory migration state (memory-strategy ablation);
    /// `Some` replaces the pre-copy rounds entirely.
    pub postcopy_mem: Option<lsm_hypervisor::PostcopyMemory>,
    /// The memory copy in flight, if any.
    pub copy: Option<MemCopy>,
    /// The dirt mark: when [`MigrationRt::take_dirt`] last measured the
    /// guest memory dirtied.
    pub round_started: SimTime,
    /// Memory dirtied by I/O (guest page cache) since the dirt mark.
    pub io_dirty_accum: f64,
    /// Engine-driven linger rounds performed (bounded).
    pub linger_rounds: u32,
    /// The memory the stop-and-copy will flush: what the memory machine
    /// asked for, or what dirtied during a deferral round.
    pub pending_stop_bytes: u64,
    /// The storage transfer policy's state.
    pub transfer: Transfer,
    /// Storage batches in flight, indexed by [`BatchKind`]: counted from
    /// issue to landing or loss. The push count fills the push window and
    /// holds back convergence and the handoff, the prefetch count fills
    /// the pull window, and no pull phase completes with a batch in
    /// flight.
    pub in_flight: [u32; 3],
    /// The source-side physical store, frozen at control transfer and
    /// kept while the destination still pulls from it.
    pub source_store: Option<lsm_blockdev::ChunkStore>,
    /// Reads waiting for a specific chunk to be pulled.
    pub pull_waiters: HashMap<ChunkId, Vec<OpId>>,
    /// Synchronous mirror flows currently in flight (mirror gating).
    pub mirror_flows_inflight: u32,
    /// Whether TRANSFER_IO_CONTROL has been sent (guards re-handoff).
    pub handoff_sent: bool,
    /// End of the current transfer stall, if one is in force: the push
    /// and pull pipelines initiate nothing (and the remaining-set
    /// handoff waits) until the stall clears.
    pub stalled_until: Option<SimTime>,
    /// On-demand pull chunks a guest read asked for during the stall;
    /// not in flight until the stall clears and they go out as one
    /// batch, their reads still parked as pull waiters.
    pub stalled_ondemand: Vec<(ChunkId, u64)>,
    /// Metrics.
    pub requested_at: SimTime,
    pub control_at: Option<SimTime>,
    pub completed_at: Option<SimTime>,
    pub mem_rounds: u32,
    pub throttled: bool,
    pub pushed_chunks: u64,
    pub pulled_chunks: u64,
    pub ondemand_chunks: u64,
    pub consistent: Option<bool>,
    pub downtime_before: SimDuration,
    pub downtime: SimDuration,
    /// Auto-converge throttle step currently applied to the guest
    /// (0 = unthrottled; released at switchover and on teardown).
    pub throttle_step: u32,
    /// Consecutive hot memory rounds seen by the auto-converge trigger
    /// (reset by any cool round or by a throttle step).
    pub converge_hot_rounds: u32,
    /// Switchovers deferred by the hard downtime limit this attempt.
    pub downtime_deferrals: u32,
    /// SLA accounting: throughput-weighted seconds the guest ran
    /// degraded while this migration was live (∫ degrade_loss dt).
    pub degraded_secs: f64,
    /// When `degrade_loss` last changed (integration mark).
    pub degrade_mark: SimTime,
    /// The guest's current throughput loss fraction attributed to this
    /// migration: `1 − compute factor` while live and running, 0 while
    /// paused (that time is downtime, not degradation) or terminal.
    pub degrade_loss: f64,
    /// Timestamped lifecycle milestones for the report.
    pub timeline: Vec<(SimTime, crate::engine::report::Milestone)>,
}

impl MigrationRt {
    /// The guest memory dirtied since the dirt mark, anonymous-memory
    /// churn plus page-cache dirtying by buffered writes, and the seconds
    /// since the mark, which moves to `now`.
    pub fn take_dirt(&mut self, now: SimTime) -> (u64, f64) {
        let wall = now.since(self.round_started).as_secs_f64();
        let anon = self.mem.profile().base_dirty_rate * wall;
        let dirtied = (anon + self.io_dirty_accum) as u64;
        self.io_dirty_accum = 0.0;
        self.round_started = now;
        (dirtied, wall)
    }

    /// A storage batch was lost in flight: its flow severed by a stall,
    /// or its source read finished while one cut the wire. It stops
    /// counting, and its chunks return to the surviving manifest: the
    /// source's for a push, the destination's pull order for a pull
    /// (whose reads stay parked until the resumed pull delivers).
    pub fn batch_lost(&mut self, batch: Batch) {
        self.in_flight[batch.kind as usize] -= 1;
        for (c, _) in batch.chunks {
            if batch.kind == BatchKind::Push {
                self.transfer.send_lost(c);
            } else if let Some(dst) = self.transfer.dest_mut() {
                dst.pull_lost(c);
            }
        }
    }

    /// Chunks the destination still needs: exact during the pull phase,
    /// the strategy source's remaining set before the handoff.
    pub fn chunks_remaining(&self) -> u64 {
        match self.transfer.dest() {
            Some(dst) => dst.remaining_count() as u64,
            None => self.transfer.source_remaining() as u64,
        }
    }

    /// Downtime attributable to this migration so far. Terminal
    /// migrations (completed *or* aborted) report the downtime stamped
    /// at their end — an aborted attempt must not keep absorbing
    /// downtime a later migration of the same VM incurs.
    pub fn downtime_so_far(&self, vm: &Vm) -> SimDuration {
        if self.completed_at.is_some() || self.phase == MigPhase::Aborted {
            self.downtime
        } else {
            vm.total_downtime() - self.downtime_before
        }
    }
}

/// Per-VM runtime state.
pub(crate) struct VmRt {
    pub vm: Vm,
    /// True once the VM's host crashed under it: the guest is gone, its
    /// driver never runs again, completions addressed to it are dropped.
    pub crashed: bool,
    pub strategy: StrategyKind,
    pub driver: Option<Box<dyn Workload>>,
    pub started: bool,
    pub finished_at: Option<SimTime>,
    /// Manager-level (flushed) disk state.
    pub disk: VirtualDisk,
    /// Guest page cache (travels with the VM's memory).
    pub cache: PageCache,
    /// Physical chunk store at the current host.
    pub store: lsm_blockdev::ChunkStore,
    /// Physical chunk store building up at a migration destination.
    pub dest_store: Option<lsm_blockdev::ChunkStore>,
    /// Current compute burst (at most one per VM).
    pub compute: Option<ComputeRt>,
    /// Completions held while the VM is paused.
    pub held_completions: VecDeque<ActionToken>,
    /// Workload group (CM1) and rank.
    pub group: Option<(u32, u32)>,
    /// Active migration, if any.
    pub migration: Option<MigrationRt>,
    /// Migration generation counter: bumped every time a fresh
    /// [`MigrationRt`] is installed. Transfer contexts (disk reads,
    /// batch flows, pull requests) carry the epoch they were issued
    /// under; completions with a stale epoch are dropped instead of
    /// mutating the successor migration's pipeline state.
    pub mig_epoch: u64,
    /// Background write-back requests in flight.
    pub wb_inflight: u32,
    /// Chunks the periodic dirty-expiry sweep still wants flushed this
    /// round (kupdate credit).
    pub kupdate_credit: u32,
    /// Fsync ops waiting for a full cache drain.
    pub fsync_waiters: Vec<OpId>,
    /// Accumulated I/O metrics.
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// I/O-path breakdown counters (cache behaviour observability).
    pub reads_hit_bytes: u64,
    pub reads_miss_bytes: u64,
    pub writes_buffered_bytes: u64,
    pub writes_throttled_bytes: u64,
    pub reads_pull_blocked: u64,
    pub read_busy: SimDuration,
    pub write_busy: SimDuration,
    /// File offset base for PVFS planning (vm-disk offsets are used
    /// directly as file offsets).
    pub pvfs_file_base: u64,
    /// Cumulative count of manager-level writes landing on an
    /// already-modified chunk (the *overwrite* counter — the telemetry
    /// tick turns its delta into the windowed re-write rate, the
    /// paper's threshold signal).
    pub rewrite_chunk_writes: u64,
    /// I/O telemetry: the counters at the last sample and the rates of
    /// the window that ended there.
    pub tele: Telemetry,
    /// The VM's one non-terminal job: named when the job is created,
    /// cleared when it ends. It stays named through a retry's backoff,
    /// so a VM with a live job can be given no other.
    pub live_job: Option<JobId>,
    /// When the autonomic rebalancer last originated a move of this VM
    /// (the no-ping-pong cooldown reference).
    pub last_moved: Option<SimTime>,
    /// When a hot-phase deferral of this VM began (cleared when it
    /// cools or moves; drives the defer deadline).
    pub deferred_since: Option<SimTime>,
}

/// Workload group (barrier domain) state.
pub(crate) struct GroupRt {
    pub members: Vec<VmIdx>,
    /// Tokens waiting at the current barrier, per member slot.
    pub waiting: Vec<Option<ActionToken>>,
    pub arrived: u32,
    /// Completed barrier episodes (diagnostics).
    pub episodes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(vm: VmIdx) -> OpRt {
        OpRt {
            vm,
            token: ActionToken(vm as u64),
            kind: OpKind::Write,
            parts: 1,
            issued: SimTime::ZERO,
            bytes: 0,
        }
    }

    /// An op that left the table, by `remove` or by a crash's `retain`,
    /// never resolves again, even once its slot holds a new op.
    #[test]
    fn removed_and_purged_ids_do_not_resolve_after_slot_reuse() {
        let mut ops = OpTable::default();
        let removed = ops.insert(op(0));
        assert_eq!(ops.remove(removed).map(|o| o.vm), Some(0));
        let purged = ops.insert(op(1));
        assert_eq!(purged as u32, removed as u32, "the freed slot is reused");
        ops.retain(|o| o.vm != 1);
        let live = ops.insert(op(2));
        assert_eq!(live as u32, removed as u32, "and reused again");
        for stale in [removed, purged] {
            assert!(ops.get(stale).is_none());
            assert!(ops.get_mut(stale).is_none());
            assert!(ops.remove(stale).is_none());
        }
        assert_eq!(ops.get(live).map(|o| o.vm), Some(2));
        assert_eq!(ops.remove(live).map(|o| o.vm), Some(2));
    }
}
