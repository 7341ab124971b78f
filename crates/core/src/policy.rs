//! Storage transfer policies — the paper's Algorithms 1–4 and the three
//! transfer baselines, as pure state machines.
//!
//! Everything here is engine-free and unit-testable: the engine asks
//! "what next?" (`next_push`, `next_pull`) and reports events
//! (`on_write`, `push_started`, `pull_done`); the policies keep the
//! `RemainingSet` / `WriteCount` bookkeeping of §4.3.

use lsm_blockdev::{ChunkId, ChunkSet, DirtyTracker, WriteCounter};
use serde::Serialize;
use std::cmp::Reverse;

/// The five storage transfer strategies compared in the paper (Table 1).
///
/// Deserialization accepts the variant name (`"Hybrid"`) or the paper's
/// plot label (`"our-approach"`), case-insensitively.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum StrategyKind {
    /// The paper's hybrid active push / prioritized prefetch (§4).
    Hybrid,
    /// QEMU-style incremental block migration alongside memory pre-copy.
    Precopy,
    /// Background bulk copy + synchronous write mirroring
    /// (Haselhorst et al.).
    Mirror,
    /// Passive until control transfer, then prioritized pull
    /// (pure I/O post-copy).
    Postcopy,
    /// No storage transfer: all I/O through the parallel file system.
    SharedFs,
}

impl StrategyKind {
    /// All strategies, in the paper's comparison order.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::Hybrid,
        StrategyKind::Mirror,
        StrategyKind::Postcopy,
        StrategyKind::Precopy,
        StrategyKind::SharedFs,
    ];

    /// Label used in the paper's plots.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Hybrid => "our-approach",
            StrategyKind::Precopy => "precopy",
            StrategyKind::Mirror => "mirror",
            StrategyKind::Postcopy => "postcopy",
            StrategyKind::SharedFs => "pvfs-shared",
        }
    }

    /// Whether migration time extends past control transfer (the paper's
    /// metric definition in §5.2: for hybrid and postcopy the source is
    /// only relinquished once the destination pulled everything).
    pub fn ends_after_control_transfer(self) -> bool {
        matches!(self, StrategyKind::Hybrid | StrategyKind::Postcopy)
    }

    /// Whether VM I/O goes to local storage (vs. the parallel FS).
    pub fn uses_local_storage(self) -> bool {
        !matches!(self, StrategyKind::SharedFs)
    }
}

impl serde::Deserialize for StrategyKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => s
                .parse::<StrategyKind>()
                .map_err(|e| serde::Error::new(e.to_string())),
            other => Err(serde::Error::new(format!(
                "expected strategy name string, found {}",
                other.kind()
            ))),
        }
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = crate::error::EngineError;

    /// Parse either the paper's plot label (`our-approach`, `precopy`,
    /// `mirror`, `postcopy`, `pvfs-shared`) or the variant name, case
    /// insensitively. `hybrid` is accepted as an alias of
    /// `our-approach`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        StrategyKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(s) || format!("{k:?}").eq_ignore_ascii_case(s))
            .ok_or_else(|| crate::error::EngineError::UnknownStrategy {
                name: s.to_string(),
            })
    }
}

/// Source-side state of the hybrid scheme (Algorithms 1 and 2).
///
/// Also used (with the push phase disabled) by the `postcopy` baseline,
/// which the paper derives from the same implementation.
#[derive(Debug)]
pub struct HybridSource {
    /// Algorithm's `RemainingSet`: chunks the destination still needs.
    remaining: ChunkSet,
    /// Chunks eligible for (re-)pushing, a subset of `remaining`.
    queue: ChunkSet,
    /// Per-chunk write counts since migration start, until [`handoff`]
    /// gives them to the destination.
    ///
    /// [`handoff`]: HybridSource::handoff
    wc: WriteCounter,
    /// Chunks currently in the push pipeline.
    inflight: ChunkSet,
    /// If false, the active push phase is disabled (postcopy mode).
    push_enabled: bool,
    /// Total push transmissions (for traffic assertions).
    pushes: u64,
}

impl HybridSource {
    /// Algorithm 1, MIGRATION_REQUEST: `RemainingSet ← ModifiedSet`,
    /// all write counts reset, background push armed.
    pub fn start(modified: ChunkSet, threshold: u32, push_enabled: bool) -> Self {
        let n = modified.capacity();
        HybridSource {
            queue: if push_enabled {
                modified.clone()
            } else {
                ChunkSet::new(n)
            },
            remaining: modified,
            wc: WriteCounter::new(n, threshold),
            inflight: ChunkSet::new(n),
            push_enabled,
            pushes: 0,
        }
    }

    /// Algorithm 2, WRITE on the source: count the write and requeue the
    /// chunk for the destination.
    pub fn on_write(&mut self, c: ChunkId) {
        self.wc.record_write(c);
        self.remaining.insert(c);
        if self.push_enabled && self.wc.pushable(c) {
            self.queue.insert(c);
        }
    }

    /// Algorithm 1, BACKGROUND_PUSH body: next chunk with
    /// `WriteCount[c] < Threshold`, removed from the remaining set.
    /// Returns `None` when nothing is currently pushable (hot chunks stay
    /// behind for the prioritized prefetch).
    pub fn next_push(&mut self) -> Option<ChunkId> {
        while let Some(c) = self.queue.pop_first() {
            if self.remaining.contains(c) && self.wc.pushable(c) {
                self.remaining.remove(c);
                self.inflight.insert(c);
                self.pushes += 1;
                return Some(c);
            }
        }
        None
    }

    /// A pushed chunk left the pipeline (landed at the destination).
    pub fn push_done(&mut self, c: ChunkId) {
        self.inflight.remove(c);
    }

    /// A pushed chunk was *lost* in flight (severed transfer): it goes
    /// back to the remaining set — and, subject to the same `Threshold`,
    /// back to the push queue — so the pipeline resumes from the
    /// surviving manifest without re-sending anything already delivered.
    pub fn push_lost(&mut self, c: ChunkId) {
        if self.inflight.remove(c) {
            self.remaining.insert(c);
            if self.push_enabled && self.wc.pushable(c) {
                self.queue.insert(c);
            }
        }
    }

    /// SYNC / TRANSFER_IO_CONTROL: stop pushing and hand the destination
    /// the remaining set plus the write counts (Algorithm 3 parameters).
    /// The counter itself moves; writes that still reach the source count
    /// into a fresh one, which nothing reads, since pushing has stopped.
    pub fn handoff(&mut self) -> (ChunkSet, WriteCounter) {
        self.queue.clear();
        self.push_enabled = false;
        let fresh = WriteCounter::new(self.remaining.capacity(), self.wc.threshold());
        let counts = std::mem::replace(&mut self.wc, fresh);
        (self.remaining.clone(), counts)
    }

    /// Chunks the destination still needs right now.
    pub fn remaining_count(&self) -> u32 {
        self.remaining.count()
    }

    /// Total chunks handed to the push pipeline so far.
    pub fn total_pushes(&self) -> u64 {
        self.pushes
    }
}

/// Destination-side state of the hybrid scheme (Algorithms 3 and 4).
///
/// BACKGROUND_PULL takes the remaining chunks hottest first, lowest id on
/// ties. The write counts are fixed at handoff, so [`HybridDest::start`]
/// sorts the order once and [`HybridDest::next_pull`] pops from its end;
/// only a chunk lost in flight ([`HybridDest::pull_lost`]) is inserted
/// again, at its sorted place.
#[derive(Debug)]
pub struct HybridDest {
    /// Chunks still owed by the source.
    remaining: ChunkSet,
    /// Prefetch order: `(write_count, Reverse(chunk))` keys sorted
    /// ascending, so the last is the hottest chunk, lowest id on ties.
    /// Entries are validated lazily against `remaining` on pop.
    order: Vec<(u32, Reverse<u32>)>,
    /// The handed-over write counts, kept so chunks lost in flight can
    /// re-enter the order under their original priority.
    counts: WriteCounter,
    /// Chunks currently being pulled (background or on-demand).
    inflight: ChunkSet,
    /// If false, prefetch in arrival order instead of write-count order
    /// (the priority ablation).
    prioritized: bool,
    /// Pull statistics.
    background_pulls: u64,
    ondemand_pulls: u64,
}

impl HybridDest {
    /// Algorithm 3, TRANSFER_IO_CONTROL: receive the remaining set and the
    /// write counts, start BACKGROUND_PULL.
    pub fn start(remaining: ChunkSet, counts: WriteCounter, prioritized: bool) -> Self {
        let mut order = Vec::with_capacity(remaining.count() as usize);
        order.extend(remaining.iter().map(|c| {
            let wc = if prioritized { counts.count(c) } else { 0 };
            (wc, Reverse(c.0))
        }));
        order.sort_unstable();
        let n = remaining.capacity();
        HybridDest {
            remaining,
            order,
            counts,
            inflight: ChunkSet::new(n),
            prioritized,
            background_pulls: 0,
            ondemand_pulls: 0,
        }
    }

    /// Algorithm 3, BACKGROUND_PULL body: highest write count first.
    pub fn next_pull(&mut self) -> Option<ChunkId> {
        while let Some((_, Reverse(raw))) = self.order.pop() {
            let c = ChunkId(raw);
            if self.remaining.remove(c) {
                self.inflight.insert(c);
                self.background_pulls += 1;
                return Some(c);
            }
        }
        None
    }

    /// Algorithm 4, READ of a chunk the destination does not hold yet.
    /// Returns what the read must do.
    pub fn on_read(&mut self, c: ChunkId) -> ReadPath {
        if self.inflight.contains(c) {
            return ReadPath::WaitForPull;
        }
        if self.remaining.remove(c) {
            self.inflight.insert(c);
            self.ondemand_pulls += 1;
            return ReadPath::PullOnDemand;
        }
        ReadPath::Local
    }

    /// Algorithm 4 (write clause): a local write supersedes the source's
    /// copy — drop it from the remaining set. Returns true if an in-flight
    /// pull of this chunk should be cancelled by the engine.
    pub fn on_write(&mut self, c: ChunkId) -> bool {
        self.remaining.remove(c);
        self.inflight.remove(c)
    }

    /// A pull (background or on-demand) delivered chunk `c`.
    pub fn pull_done(&mut self, c: ChunkId) {
        self.inflight.remove(c);
    }

    /// An in-flight pull of `c` was lost (severed transfer): the chunk
    /// returns to the remaining set and re-enters the prefetch order at
    /// its sorted place under its original write count, so the pull
    /// phase resumes from the surviving manifest. No-op if the chunk was
    /// not in flight (e.g. a local write superseded it first).
    pub fn pull_lost(&mut self, c: ChunkId) {
        if self.inflight.remove(c) {
            self.remaining.insert(c);
            let wc = if self.prioritized {
                self.counts.count(c)
            } else {
                0
            };
            let key = (wc, Reverse(c.0));
            let at = self.order.partition_point(|k| *k < key);
            self.order.insert(at, key);
        }
    }

    /// True when the source is no longer needed: nothing remaining and
    /// nothing in flight — the migration-complete condition of §4.3.
    pub fn is_complete(&self) -> bool {
        self.remaining.is_empty() && self.inflight.is_empty()
    }

    /// Chunks not yet pulled.
    pub fn remaining_count(&self) -> u32 {
        self.remaining.count()
    }

    /// Background pull count so far.
    pub fn background_pulls(&self) -> u64 {
        self.background_pulls
    }

    /// On-demand (read-triggered) pull count so far.
    pub fn ondemand_pulls(&self) -> u64 {
        self.ondemand_pulls
    }

    /// Whether prefetch ordering uses write counts.
    pub fn prioritized(&self) -> bool {
        self.prioritized
    }
}

/// What a destination read must do for a given chunk (Algorithm 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadPath {
    /// The chunk is already local (pulled, pushed, or freshly written).
    Local,
    /// A pull is in flight; wait for it.
    WaitForPull,
    /// Suspend background prefetch and pull this chunk with priority.
    PullOnDemand,
}

/// Source-side state of the `precopy` (incremental block migration)
/// baseline: a thin policy shell over [`DirtyTracker`].
#[derive(Debug)]
pub struct PrecopySource {
    tracker: DirtyTracker,
    inflight: u32,
}

impl PrecopySource {
    /// Start block migration over the locally allocated chunks.
    pub fn start(allocated: ChunkSet) -> Self {
        PrecopySource {
            tracker: DirtyTracker::start(allocated),
            inflight: 0,
        }
    }

    /// Guest wrote chunk `c` during migration.
    pub fn on_write(&mut self, c: ChunkId) {
        self.tracker.record_write(c);
    }

    /// Next chunk for the block stream.
    pub fn next_send(&mut self) -> Option<ChunkId> {
        let c = self.tracker.next_chunk();
        if c.is_some() {
            self.inflight += 1;
        }
        c
    }

    /// A sent chunk landed at the destination.
    pub fn send_done(&mut self) {
        debug_assert!(self.inflight > 0);
        self.inflight -= 1;
    }

    /// A sent chunk was lost in flight (severed transfer): it re-enters
    /// the dirty stream, exactly as if the guest had re-dirtied it.
    pub fn send_lost(&mut self, c: ChunkId) {
        debug_assert!(self.inflight > 0);
        self.inflight -= 1;
        self.tracker.record_write(c);
    }

    /// Chunks still owed (queued, not counting in-flight).
    pub fn remaining(&self) -> u32 {
        self.tracker.remaining()
    }

    /// True when the dirty stream drained and nothing is in flight — the
    /// condition for allowing the stop-and-copy.
    pub fn converged(&self) -> bool {
        self.tracker.converged() && self.inflight == 0
    }

    /// Re-transmissions beyond the first copy of each chunk.
    pub fn total_resent(&self) -> u64 {
        self.tracker.total_resent()
    }
}

/// Source-side state of the `mirror` baseline: one background bulk pass;
/// concurrent writes are mirrored synchronously so nothing is ever
/// re-sent by the bulk stream.
#[derive(Debug)]
pub struct MirrorSource {
    bulk: ChunkSet,
    inflight: u32,
    mirrored_writes: u64,
}

impl MirrorSource {
    /// Start the bulk phase over the locally allocated chunks.
    pub fn start(allocated: ChunkSet) -> Self {
        MirrorSource {
            bulk: allocated,
            inflight: 0,
            mirrored_writes: 0,
        }
    }

    /// Next chunk for the bulk stream.
    pub fn next_send(&mut self) -> Option<ChunkId> {
        let c = self.bulk.pop_first();
        if c.is_some() {
            self.inflight += 1;
        }
        c
    }

    /// A bulk chunk landed at the destination.
    pub fn send_done(&mut self) {
        debug_assert!(self.inflight > 0);
        self.inflight -= 1;
    }

    /// A bulk chunk was lost in flight (severed transfer): back into
    /// the bulk queue for another pass.
    pub fn send_lost(&mut self, c: ChunkId) {
        debug_assert!(self.inflight > 0);
        self.inflight -= 1;
        self.bulk.insert(c);
    }

    /// A guest write during migration: it is mirrored synchronously; if
    /// the chunk was still queued for bulk it can be dropped from the
    /// queue (the mirror just delivered fresher content).
    pub fn on_write(&mut self, c: ChunkId) {
        self.bulk.remove(c);
        self.mirrored_writes += 1;
    }

    /// True when the bulk pass fully drained — the stop-and-copy gate.
    pub fn converged(&self) -> bool {
        self.bulk.is_empty() && self.inflight == 0
    }

    /// Chunks still queued for the bulk pass.
    pub fn remaining(&self) -> u32 {
        self.bulk.count()
    }

    /// Number of synchronously mirrored writes.
    pub fn mirrored_writes(&self) -> u64 {
        self.mirrored_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: u32, ids: &[u32]) -> ChunkSet {
        ChunkSet::from_iter(n, ids.iter().map(|&i| ChunkId(i)))
    }

    /// Write counts over 16 chunks, `(chunk, count)` pairs, 0 elsewhere.
    fn counts(hot: &[(u32, u32)]) -> WriteCounter {
        let mut wc = WriteCounter::new(16, 1);
        for &(c, n) in hot {
            wc.record_writes(ChunkId(c), n);
        }
        wc
    }

    // ---- HybridSource (Algorithms 1 & 2) ----

    #[test]
    fn push_drains_modified_set() {
        let mut s = HybridSource::start(set(16, &[2, 5, 9]), 3, true);
        let mut pushed = vec![];
        while let Some(c) = s.next_push() {
            pushed.push(c.0);
            s.push_done(c);
        }
        assert_eq!(pushed, vec![2, 5, 9]);
        assert_eq!(s.remaining_count(), 0);
    }

    #[test]
    fn hot_chunk_withheld_after_threshold() {
        let mut s = HybridSource::start(set(16, &[1]), 2, true);
        s.on_write(ChunkId(1));
        s.on_write(ChunkId(1)); // count = 2 = Threshold: no longer pushable
        assert_eq!(s.next_push(), None);
        let (remaining, counts) = s.handoff();
        assert!(remaining.contains(ChunkId(1)));
        assert_eq!(counts.count(ChunkId(1)), 2);
    }

    #[test]
    fn chunk_pushed_at_most_threshold_times() {
        let threshold = 3u32;
        let mut s = HybridSource::start(set(16, &[7]), threshold, true);
        let mut pushes = 0;
        // Adversarial guest: rewrites the chunk right after every push.
        while let Some(c) = s.next_push() {
            pushes += 1;
            s.push_done(c);
            s.on_write(c);
        }
        assert_eq!(pushes as u32, threshold, "push bounded by Threshold");
        assert!(s.remaining_count() > 0, "hot chunk left for the prefetch");
    }

    #[test]
    fn rewrite_during_flight_requeues() {
        let mut s = HybridSource::start(set(16, &[4]), 3, true);
        let c = s.next_push().unwrap();
        s.on_write(c); // rewritten while the push is in the pipeline
        s.push_done(c);
        assert_eq!(s.next_push(), Some(c), "fresh content must go again");
    }

    #[test]
    fn postcopy_mode_never_pushes() {
        let mut s = HybridSource::start(set(16, &[1, 2, 3]), 3, false);
        assert_eq!(s.next_push(), None);
        s.on_write(ChunkId(5));
        assert_eq!(s.next_push(), None);
        let (remaining, _) = s.handoff();
        assert_eq!(remaining.count(), 4);
        assert_eq!(s.total_pushes(), 0);
    }

    /// The counter moves at the handoff: rewrites, hot chunks, fresh
    /// chunks and a loss of the push still in flight all leave the push
    /// stopped, and the handed-over counts fixed.
    #[test]
    fn handoff_stops_push_phase() {
        let mut s = HybridSource::start(set(16, &[1, 2, 3]), 2, true);
        let inflight = s.next_push().unwrap();
        s.on_write(ChunkId(2));
        let (remaining, counts) = s.handoff();
        assert_eq!(s.next_push(), None);
        assert_eq!(counts.count(ChunkId(2)), 1);
        for c in [2, 2, 2, 5, 15] {
            s.on_write(ChunkId(c));
        }
        s.push_lost(inflight);
        assert_eq!(s.next_push(), None, "no pushing after sync");
        assert_eq!(s.remaining_count(), remaining.count() + 3);
        assert_eq!(counts.count(ChunkId(2)), 1, "handed-over counts are fixed");
        assert_eq!(s.total_pushes(), 1);
    }

    // ---- HybridDest (Algorithms 3 & 4) ----

    #[test]
    fn prefetch_order_follows_write_counts() {
        let counts = counts(&[(3, 5), (8, 9), (1, 1)]);
        let mut d = HybridDest::start(set(16, &[1, 3, 8]), counts, true);
        let order: Vec<u32> = std::iter::from_fn(|| {
            d.next_pull().map(|c| {
                d.pull_done(c);
                c.0
            })
        })
        .collect();
        assert_eq!(order, vec![8, 3, 1], "hottest chunk first");
        assert!(d.is_complete());
    }

    #[test]
    fn unprioritized_prefetch_is_chunk_order() {
        let counts = counts(&[(3, 5), (8, 9)]);
        let mut d = HybridDest::start(set(16, &[3, 8, 1]), counts, false);
        let order: Vec<u32> = std::iter::from_fn(|| {
            d.next_pull().map(|c| {
                d.pull_done(c);
                c.0
            })
        })
        .collect();
        assert_eq!(order, vec![1, 3, 8]);
    }

    #[test]
    fn tie_break_is_low_chunk_id() {
        let counts = counts(&(0..16).map(|c| (c, 2)).collect::<Vec<_>>());
        let mut d = HybridDest::start(set(16, &[9, 4, 12]), counts, true);
        assert_eq!(d.next_pull(), Some(ChunkId(4)));
    }

    #[test]
    fn read_paths_follow_algorithm_4() {
        let mut d = HybridDest::start(set(16, &[1, 2]), counts(&[]), true);
        // Chunk being pulled: wait.
        let pulled = d.next_pull().unwrap();
        assert_eq!(d.on_read(pulled), ReadPath::WaitForPull);
        // Chunk still remaining: on-demand pull.
        let other = ChunkId(if pulled.0 == 1 { 2 } else { 1 });
        assert_eq!(d.on_read(other), ReadPath::PullOnDemand);
        // Anything else: local.
        assert_eq!(d.on_read(ChunkId(9)), ReadPath::Local);
        assert_eq!(d.ondemand_pulls(), 1);
    }

    #[test]
    fn write_cancels_pending_and_inflight_pulls() {
        let mut d = HybridDest::start(set(16, &[1, 2]), counts(&[]), true);
        // Write to a chunk never pulled: silently dropped from remaining.
        assert!(!d.on_write(ChunkId(2)), "no in-flight pull to cancel");
        // Write to an in-flight pull: engine must cancel the transfer.
        let pulled = d.next_pull().unwrap();
        assert_eq!(pulled, ChunkId(1));
        assert!(d.on_write(pulled), "in-flight pull must be cancelled");
        assert!(d.is_complete(), "nothing left after both writes");
    }

    #[test]
    fn stale_heap_entries_skipped() {
        let mut d = HybridDest::start(set(16, &[1, 2, 3]), counts(&[]), true);
        d.on_write(ChunkId(1));
        d.on_write(ChunkId(2));
        assert_eq!(d.next_pull(), Some(ChunkId(3)));
        d.pull_done(ChunkId(3));
        assert_eq!(d.next_pull(), None);
        assert!(d.is_complete());
    }

    // ---- PrecopySource ----

    #[test]
    fn precopy_convergence_gate_includes_inflight() {
        let mut p = PrecopySource::start(set(16, &[0]));
        let c = p.next_send().unwrap();
        assert!(!p.converged(), "in-flight chunk blocks convergence");
        p.send_done();
        assert!(p.converged());
        p.on_write(c);
        assert!(!p.converged(), "re-dirtied after send");
        assert_eq!(p.next_send(), Some(c));
        assert_eq!(p.total_resent(), 1);
    }

    // ---- MirrorSource ----

    #[test]
    fn mirror_bulk_skips_freshly_mirrored_chunks() {
        let mut m = MirrorSource::start(set(16, &[1, 2, 3]));
        m.on_write(ChunkId(2)); // mirrored synchronously: bulk can skip it
        let mut sent = vec![];
        while let Some(c) = m.next_send() {
            sent.push(c.0);
            m.send_done();
        }
        assert_eq!(sent, vec![1, 3]);
        assert!(m.converged());
        assert_eq!(m.mirrored_writes(), 1);
    }

    #[test]
    fn mirror_never_resends_bulk_chunks() {
        let mut m = MirrorSource::start(set(16, &[5]));
        let c = m.next_send().unwrap();
        m.send_done();
        m.on_write(c); // after bulk send: mirror carries it, not the bulk
        assert_eq!(m.next_send(), None);
        assert!(m.converged());
    }

    // ---- StrategyKind ----

    #[test]
    fn strategy_metadata() {
        assert_eq!(StrategyKind::Hybrid.label(), "our-approach");
        assert!(StrategyKind::Hybrid.ends_after_control_transfer());
        assert!(StrategyKind::Postcopy.ends_after_control_transfer());
        assert!(!StrategyKind::Precopy.ends_after_control_transfer());
        assert!(!StrategyKind::SharedFs.uses_local_storage());
        assert_eq!(StrategyKind::ALL.len(), 5);
    }
}
