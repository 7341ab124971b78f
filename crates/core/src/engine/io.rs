//! The VM I/O path for local-storage strategies.
//!
//! Guest I/O flows through the guest page cache first
//! ([`PageCache`](lsm_blockdev::PageCache));
//! the migration manager (and therefore every transfer policy) sees chunk
//! writes only when they are *flushed* — write-back completions, throttled
//! write-through, or fsync — exactly like the FUSE-level interposition of
//! §4.4, which sits below the guest's own caching.

use super::types::*;
use super::Engine;
use crate::policy::ReadPath;
use lsm_blockdev::{byte_range_to_chunks, ChunkId, ReadClass, WriteClass};
use lsm_hypervisor::VmState;
use lsm_netsim::NodeId;
use lsm_workloads::{ActionToken, IoKind};

/// Entry point for a driver `Io` action on a local-storage VM.
pub(crate) fn submit_io(
    eng: &mut Engine,
    v: VmIdx,
    token: ActionToken,
    kind: IoKind,
    offset: u64,
    len: u64,
) {
    let chunk_size = eng.cfg().chunk_size;
    let image = eng.cfg().image_size;
    assert!(
        offset + len <= image,
        "I/O beyond the virtual disk: {offset}+{len} > {image}"
    );
    let (first, last, first_partial, last_partial) = byte_range_to_chunks(offset, len, chunk_size);
    let op = eng.new_op(v, token, kind.into(), len);
    let nchunks_in_op = (last.0 - first.0 + 1) as u64;
    let bytes_per_chunk = (len / nchunks_in_op).max(1);

    match kind {
        IoKind::Write => {
            submit_write(
                eng,
                v,
                op,
                first,
                last,
                first_partial,
                last_partial,
                bytes_per_chunk,
            );
        }
        IoKind::Read => {
            submit_read(eng, v, op, first, last, bytes_per_chunk);
        }
    }
    // If nothing needed doing (degenerate), complete immediately.
    if eng.op_parts(op) == 0 {
        eng.finish_op(op);
    }
}

#[allow(clippy::too_many_arguments)]
fn submit_write(
    eng: &mut Engine,
    v: VmIdx,
    op: OpId,
    first: ChunkId,
    last: ChunkId,
    first_partial: bool,
    last_partial: bool,
    bytes_per_chunk: u64,
) {
    let node = eng.vm(v).vm.host;
    let mut buffered = 0u64;
    let mut throttled = 0u64;
    let mut fetch_chunks: Vec<ChunkId> = Vec::new();
    let mut mirror_batch: Vec<(ChunkId, u64)> = Vec::new();

    for raw in first.0..=last.0 {
        let c = ChunkId(raw);
        // A partial write to an untouched base chunk is a
        // read-modify-write: base content must come from the repository
        // first (§4.2) — unless the host cache already holds the chunk.
        let is_edge_partial = (raw == first.0 && first_partial) || (raw == last.0 && last_partial);
        if is_edge_partial && eng.vm(v).disk.needs_repo_fetch(c) && !eng.vm(v).cache.is_resident(c)
        {
            fetch_chunks.push(c);
        }
        // The migration manager interposes directly below the guest
        // (§4.4): it sees every write immediately — this is what makes
        // "rapid changes of disk state" visible at full write rate.
        let (ver, mirror) = manager_write(eng, v, c);
        if mirror {
            mirror_batch.push((c, ver));
        }
        // The host page cache then decides how fast the write is served.
        match eng.vm_mut(v).cache.classify_write(c) {
            WriteClass::Buffered => buffered += bytes_per_chunk,
            WriteClass::Throttled => throttled += bytes_per_chunk,
        }
    }

    // Guest-side write buffers dirty guest memory at a fraction of the
    // write rate: the memory migration has to re-send those pages.
    let factor = eng.cfg().io_mem_dirty_factor;
    let total = bytes_per_chunk * (last.0 - first.0 + 1) as u64;
    if let Some(mig) = eng.vm_mut(v).migration.as_mut() {
        if matches!(mig.phase, MigPhase::Active | MigPhase::Linger) {
            mig.io_dirty_accum += total as f64 * factor;
        }
    }

    if !fetch_chunks.is_empty() {
        repo_fetch(eng, v, Some(op), fetch_chunks);
    }
    if buffered > 0 {
        eng.vm_mut(v).writes_buffered_bytes += buffered;
        eng.op_add_parts(op, 1);
        eng.cache_submit(node, buffered, false, op);
    }
    if throttled > 0 {
        // Dirty limit exceeded: the writer pays disk speed.
        eng.vm_mut(v).writes_throttled_bytes += throttled;
        eng.op_add_parts(op, 1);
        eng.disk_submit(node, throttled, DiskCtx::VmOp { op });
    }
    // Synchronous mirroring: the guest write completes only after the
    // remote copy does (Haselhorst semantics) — the write-latency penalty
    // the paper criticizes in §3. Only a mirroring migration fills the
    // batch.
    let mirroring = eng
        .vm_mut(v)
        .migration
        .as_mut()
        .filter(|_| !mirror_batch.is_empty());
    if let Some(mig) = mirroring {
        mig.mirror_flows_inflight += 1;
        let dest = mig.dest;
        eng.op_add_parts(op, 1);
        let bytes = bytes_per_chunk * mirror_batch.len() as u64;
        eng.start_flow(
            node,
            dest,
            bytes,
            None,
            FlowCtx::MirrorWrite {
                vm: v,
                op,
                chunks: mirror_batch,
            },
        );
    }

    pump_writeback(eng, v);
}

fn submit_read(
    eng: &mut Engine,
    v: VmIdx,
    op: OpId,
    first: ChunkId,
    last: ChunkId,
    bytes_per_chunk: u64,
) {
    let node = eng.vm(v).vm.host;
    let mut cache_hit = 0u64;
    let mut disk_miss = 0u64;
    let mut fetch_chunks: Vec<ChunkId> = Vec::new();
    let mut ondemand: Vec<(ChunkId, u64)> = Vec::new();

    for raw in first.0..=last.0 {
        let c = ChunkId(raw);
        // The guest page cache sits above the migration manager: a
        // resident chunk is served from guest RAM no matter what the
        // manager-level transfer state says (it may even hold data newer
        // than anything flushed).
        if eng.vm(v).cache.classify_read(c) == ReadClass::CacheHit {
            cache_hit += bytes_per_chunk;
            continue;
        }
        // Destination-side reads during the pull phase follow Algorithm 4:
        // a chunk not yet local parks the read until its pull lands, and
        // one no pull has claimed yet is pulled on demand.
        let vm = eng.vm_mut(v);
        if let Some(mig) = vm
            .migration
            .as_mut()
            .filter(|m| m.phase == MigPhase::PullPhase)
        {
            let path = mig.transfer.dest_mut().map(|dst| dst.on_read(c));
            if let Some(path @ (ReadPath::WaitForPull | ReadPath::PullOnDemand)) = path {
                vm.reads_pull_blocked += 1;
                mig.pull_waiters.entry(c).or_default().push(op);
                if path == ReadPath::PullOnDemand {
                    mig.ondemand_chunks += 1;
                    ondemand.push((c, 0));
                }
                eng.op_add_parts(op, 1);
                continue;
            }
        }
        if eng.vm(v).disk.needs_repo_fetch(c) {
            fetch_chunks.push(c);
            continue;
        }
        disk_miss += bytes_per_chunk;
        eng.vm_mut(v).cache.fill(c);
    }
    {
        let vm = eng.vm_mut(v);
        vm.reads_hit_bytes += cache_hit;
        vm.reads_miss_bytes += disk_miss;
    }

    if !ondemand.is_empty() {
        // All on-demand chunks of this read op travel as one batch (one
        // request, one source disk read, one flow, one completion event).
        // During a transfer stall they wait, their reads parked as pull
        // waiters: they are not in flight until the stall clears and
        // `fault::stall_over` issues them.
        let stalled = eng
            .vm_mut(v)
            .migration
            .as_mut()
            .filter(|m| m.stalled_until.is_some());
        match stalled {
            Some(mig) => mig.stalled_ondemand.extend(ondemand),
            None => super::migration::issue_batch(eng, v, BatchKind::OnDemand, ondemand),
        }
    }
    if !fetch_chunks.is_empty() {
        repo_fetch(eng, v, Some(op), fetch_chunks);
    }
    if cache_hit > 0 {
        eng.op_add_parts(op, 1);
        eng.cache_submit(node, cache_hit, true, op);
    }
    if disk_miss > 0 {
        eng.op_add_parts(op, 1);
        eng.disk_submit(node, disk_miss, DiskCtx::VmOp { op });
    }
}

/// The manager-level write of chunk `c`: stamps the logical version,
/// updates the physical store at the current host, and notifies the
/// active migration policy (Algorithm 2 on the source, Algorithm 4's
/// write clause on the destination).
///
/// Returns `(version, should_mirror)`.
pub(crate) fn manager_write(eng: &mut Engine, v: VmIdx, c: ChunkId) -> (u64, bool) {
    if eng.vm(v).disk.modified().contains(c) {
        // Overwrite of an already-dirty chunk: the telemetry signal the
        // cost planner's withheld-set and re-send terms are built on.
        eng.vm_mut(v).rewrite_chunk_writes += 1;
    }
    let ver = eng.vm_mut(v).disk.write(c);
    eng.vm_mut(v).store.apply(c, ver);
    let mut mirror = false;
    let mut superseded_pull = false;
    let mut pump_needed = false;
    let mut maybe_done = false;
    if let Some(mig) = eng.vm_mut(v).migration.as_mut() {
        match mig.phase {
            phase @ (MigPhase::Active
            | MigPhase::Linger
            | MigPhase::StopAndCopy
            | MigPhase::SyncDrain) => {
                pump_needed = mig.transfer.source_write(c);
                mirror = matches!(mig.transfer, Transfer::Mirror(_))
                    && matches!(phase, MigPhase::Active | MigPhase::Linger);
            }
            MigPhase::PullPhase => {
                if let Some(dst) = mig.transfer.dest_mut() {
                    superseded_pull = dst.on_write(c);
                    maybe_done = true;
                }
            }
            MigPhase::Complete | MigPhase::Aborted => {}
        }
    }
    if superseded_pull {
        // The write supersedes an in-flight pull of this chunk: the
        // content is local now, so reads waiting on the pull complete
        // immediately. The chunk's batch flow keeps running (it carries
        // the rest of its manifest); the superseded chunk arrives with a
        // stale version, which the store rejects.
        let waiters = eng
            .vm_mut(v)
            .migration
            .as_mut()
            .and_then(|m| m.pull_waiters.remove(&c))
            .unwrap_or_default();
        for op in waiters {
            eng.op_part_done(op);
        }
    }
    if pump_needed {
        super::migration::pump_push(eng, v);
    }
    if maybe_done {
        super::migration::maybe_complete(eng, v);
    }
    (ver, mirror)
}

/// Background write-back pump: drains dirty page-cache chunks to the
/// current host's disk, bounded by `writeback_depth`. Frozen while the
/// guest is paused (write-back is guest-kernel activity).
pub(crate) fn pump_writeback(eng: &mut Engine, v: VmIdx) {
    if eng.vm(v).crashed || eng.vm(v).vm.state() == VmState::Paused {
        return;
    }
    let depth = eng.cfg().writeback_depth;
    let chunk_size = eng.cfg().chunk_size;
    loop {
        let vm = eng.vm_mut(v);
        if vm.wb_inflight >= depth {
            return;
        }
        let flushing = !vm.fsync_waiters.is_empty();
        let threshold = vm.cache.needs_writeback();
        let kupdate = vm.kupdate_credit > 0 && vm.cache.has_writeback_work();
        let should = threshold || kupdate || (flushing && vm.cache.has_writeback_work());
        if !should {
            return;
        }
        let Some(c) = vm.cache.start_writeback() else {
            return;
        };
        if !threshold && !flushing {
            vm.kupdate_credit -= 1;
        }
        vm.wb_inflight += 1;
        let node = vm.vm.host;
        eng.disk_submit(node, chunk_size, DiskCtx::Writeback { vm: v, chunk: c });
    }
}

/// A write-back disk write finished. Purely physical: the migration
/// manager already saw the write when the guest issued it.
pub(crate) fn writeback_done(eng: &mut Engine, v: VmIdx, c: ChunkId) {
    eng.vm_mut(v).cache.writeback_done(c);
    eng.vm_mut(v).wb_inflight -= 1;
    check_fsync(eng, v);
    pump_writeback(eng, v);
}

/// Fsync: wait until the whole dirty set is flushed.
pub(crate) fn submit_fsync(eng: &mut Engine, v: VmIdx, token: ActionToken) {
    let op = eng.new_op(v, token, OpKind::Fsync, 0);
    let clean = {
        let vm = eng.vm(v);
        !vm.cache.has_writeback_work() && vm.wb_inflight == 0
    };
    if clean {
        eng.finish_op(op);
        return;
    }
    eng.vm_mut(v).fsync_waiters.push(op);
    pump_writeback(eng, v);
}

fn check_fsync(eng: &mut Engine, v: VmIdx) {
    let done = {
        let vm = eng.vm(v);
        !vm.fsync_waiters.is_empty() && !vm.cache.has_writeback_work() && vm.wb_inflight == 0
    };
    if done {
        let waiters = std::mem::take(&mut eng.vm_mut(v).fsync_waiters);
        for op in waiters {
            eng.finish_op(op);
        }
    }
}

// ---------------- repository fetch pipeline ----------------

/// Fetch base chunks from the striped repository: replica disk read, then
/// a network flow to the requesting node (skipped when the replica is the
/// node itself).
pub(crate) fn repo_fetch(eng: &mut Engine, v: VmIdx, op: Option<OpId>, chunks: Vec<ChunkId>) {
    if let Some(o) = op {
        eng.op_add_parts(o, chunks.len() as u32);
    }
    repo_dispatch(eng, v, op, chunks);
}

/// A fetch lost its replica's disk or its wire to a crash: release the
/// replica's load and, while the requesting guest lives, dispatch the
/// chunks again. The op's outstanding parts were already counted by the
/// original [`repo_fetch`]; selection now avoids the dead replica, and
/// the dispatch re-resolves the VM's *current* host (the recorded
/// requester node may be one the VM migrated off of). A dead guest's op
/// was purged, so its fetch is dropped.
pub(crate) fn repo_lost(eng: &mut Engine, fetch: RepoFetch) {
    for _ in &fetch.chunks {
        eng.repo_mut().end_fetch(fetch.replica);
    }
    if !eng.vm(fetch.vm).crashed {
        repo_dispatch(eng, fetch.vm, fetch.op, fetch.chunks);
    }
}

fn repo_dispatch(eng: &mut Engine, v: VmIdx, op: Option<OpId>, chunks: Vec<ChunkId>) {
    let node = eng.vm(v).vm.host;
    let chunk_size = eng.cfg().chunk_size;
    // Striping sends different chunks to different replicas; coalesce
    // per replica so each serves one disk read + one flow per fetch
    // instead of one per chunk. Replica count is small: a linear probe
    // beats a map.
    let mut groups: Vec<(NodeId, Vec<ChunkId>)> = Vec::new();
    for c in chunks {
        let replica = eng.repo_mut().begin_fetch(c);
        match groups.iter_mut().find(|(r, _)| *r == replica) {
            Some((_, g)) => g.push(c),
            None => groups.push((replica, vec![c])),
        }
    }
    for (replica, group) in groups {
        if eng.node_crashed(replica.0) {
            // Selection fell back to a dead node: every replica of these
            // chunks is down. Degrade the read instead of hanging the
            // guest (content unavailability is a repository-durability
            // event, not a simulation deadlock).
            for _ in &group {
                eng.repo_mut().end_fetch(replica);
            }
            if let Some(o) = op {
                for _ in &group {
                    eng.op_part_done(o);
                }
            }
            continue;
        }
        let bytes = chunk_size * group.len() as u64;
        let fetch = RepoFetch {
            vm: v,
            node,
            chunks: group,
            op,
            replica,
        };
        eng.disk_submit(replica.0, bytes, DiskCtx::RepoRead(fetch));
    }
}

/// Replica-side disk read finished: forward over the network (or locally).
pub(crate) fn repo_read_done(eng: &mut Engine, fetch: RepoFetch) {
    if fetch.replica.0 == fetch.node {
        repo_fetch_arrived(eng, fetch);
        return;
    }
    let bytes = eng.cfg().chunk_size * fetch.chunks.len() as u64;
    let (src, dst) = (fetch.replica.0, fetch.node);
    eng.start_flow(src, dst, bytes, None, FlowCtx::RepoFetch(fetch));
}

/// Base content landed at the requesting node.
pub(crate) fn repo_fetch_arrived(eng: &mut Engine, fetch: RepoFetch) {
    let RepoFetch {
        vm: v,
        node,
        chunks,
        op,
        replica,
    } = fetch;
    // Fetch load is accounted per chunk (begin_fetch in `repo_fetch`),
    // so a batched arrival releases one unit per carried chunk.
    for _ in &chunks {
        eng.repo_mut().end_fetch(replica);
    }
    let bytes = eng.cfg().chunk_size * chunks.len() as u64;
    for &c in &chunks {
        eng.vm_mut(v).disk.cache_base(c);
        eng.vm_mut(v).cache.fill(c);
        eng.vm_mut(v).store.apply(c, 0);
    }
    eng.ingest(node, bytes);
    if let Some(o) = op {
        for _ in &chunks {
            eng.op_part_done(o);
        }
    }
}
