//! Guest page-cache model: write-back buffering with dirty throttling.
//!
//! The paper's no-migration IOR numbers (1 GB/s reads, 266 MB/s writes on a
//! 55 MB/s disk, §5.3) are page-cache numbers. The cache is also the
//! coupling between disk I/O and *memory* dirtying that makes I/O-intensive
//! workloads hard for memory pre-copy.
//!
//! This model keeps chunk-granular state only; timing is applied by the
//! engine (buffered operations ride a fast "cache" resource, misses and
//! throttled writes ride the disk resource):
//!
//! * Reads hit if the chunk is resident; misses are filled on completion.
//! * Writes are **buffered** while dirty bytes stay under `dirty_limit`,
//!   and **throttled** (served at disk speed, like Linux
//!   `balance_dirty_pages`) above it.
//! * A background write-back pump drains dirty chunks oldest-first; the
//!   engine issues those as disk writes and acknowledges completion.
//! * Residency is bounded by `capacity_bytes`; clean chunks are evicted
//!   FIFO (a standard approximation of LRU); dirty chunks are never
//!   evicted.

use crate::chunk::{ChunkId, ChunkSet};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static configuration of a page cache.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Chunk size in bytes (matches the virtual disk).
    pub chunk_size: u64,
    /// Maximum resident bytes (clean + dirty).
    pub capacity_bytes: u64,
    /// Dirty bytes above which writers are throttled to disk speed.
    pub dirty_limit_bytes: u64,
    /// Dirty bytes above which background write-back starts.
    pub background_limit_bytes: u64,
}

impl CacheConfig {
    /// A configuration shaped like the paper's guests: 4 GB RAM with
    /// Linux-like dirty ratios (dirty_ratio applies to *available*
    /// memory, which is well under total RAM for a busy guest — the
    /// effective limits below reproduce the paper's sustained IOR write
    /// behaviour on the 55 MB/s disks).
    pub fn for_ram(ram_bytes: u64, chunk_size: u64) -> Self {
        CacheConfig {
            chunk_size,
            // ⌊3·ram/4⌋ without the product, which overflows above
            // `u64::MAX / 3`.
            capacity_bytes: ram_bytes / 4 * 3 + ram_bytes % 4 * 3 / 4,
            dirty_limit_bytes: ram_bytes / 8,
            background_limit_bytes: ram_bytes / 16,
        }
    }
}

/// How a read will be served.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadClass {
    /// Resident: served at memory speed.
    CacheHit,
    /// Not resident: must be read from the local disk (or remote source).
    Miss,
}

/// How a write will be served.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteClass {
    /// Absorbed by the cache at memory speed; written back later.
    Buffered,
    /// Dirty limit exceeded: writer pays disk speed (write-through).
    Throttled,
}

/// The page-cache state machine (see module docs).
#[derive(Clone, Debug)]
pub struct PageCache {
    cfg: CacheConfig,
    resident: ChunkSet,
    dirty: ChunkSet,
    /// FIFO of resident chunks for eviction order (may contain stale
    /// entries for already-evicted chunks; membership is `resident`).
    order: VecDeque<ChunkId>,
    /// FIFO of dirty chunks for write-back order.
    wb_queue: VecDeque<ChunkId>,
    /// Chunks currently being written back by the engine.
    wb_inflight: ChunkSet,
}

impl PageCache {
    /// An empty cache for a disk of `nchunks` chunks.
    pub fn new(nchunks: u32, cfg: CacheConfig) -> Self {
        assert!(cfg.background_limit_bytes <= cfg.dirty_limit_bytes);
        assert!(cfg.chunk_size > 0 && cfg.capacity_bytes >= cfg.chunk_size);
        PageCache {
            cfg,
            resident: ChunkSet::new(nchunks),
            dirty: ChunkSet::new(nchunks),
            order: VecDeque::new(),
            wb_queue: VecDeque::new(),
            wb_inflight: ChunkSet::new(nchunks),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Bytes currently dirty (buffered but not yet on disk).
    pub fn dirty_bytes(&self) -> u64 {
        (self.dirty.count() as u64 + self.wb_inflight.count() as u64) * self.cfg.chunk_size
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.count() as u64 * self.cfg.chunk_size
    }

    /// True if the chunk is resident.
    pub fn is_resident(&self, c: ChunkId) -> bool {
        self.resident.contains(c)
    }

    /// True if the chunk is dirty (including write-back in flight).
    pub fn is_dirty(&self, c: ChunkId) -> bool {
        self.dirty.contains(c) || self.wb_inflight.contains(c)
    }

    /// Classify a read of chunk `c`.
    pub fn classify_read(&self, c: ChunkId) -> ReadClass {
        if self.resident.contains(c) {
            ReadClass::CacheHit
        } else {
            ReadClass::Miss
        }
    }

    /// Record that a missed read finished: the chunk becomes resident
    /// clean.
    pub fn fill(&mut self, c: ChunkId) {
        if self.resident.insert(c) {
            self.order.push_back(c);
            self.evict_as_needed();
        }
    }

    /// Classify (and record) a write of chunk `c`.
    ///
    /// Buffered writes mark the chunk dirty; throttled writes are modeled
    /// as write-through (resident clean once the engine's disk write
    /// completes — call [`Self::fill`] then).
    pub fn classify_write(&mut self, c: ChunkId) -> WriteClass {
        if self.dirty_bytes() + self.cfg.chunk_size > self.cfg.dirty_limit_bytes {
            return WriteClass::Throttled;
        }
        if self.resident.insert(c) {
            self.order.push_back(c);
        }
        if self.dirty.insert(c) {
            self.wb_queue.push_back(c);
        }
        self.evict_as_needed();
        WriteClass::Buffered
    }

    /// True if background write-back should be running.
    pub fn needs_writeback(&self) -> bool {
        self.dirty_bytes() > self.cfg.background_limit_bytes && self.has_writeback_work()
    }

    /// True if *any* dirty chunk is waiting (used by fsync-style flushes,
    /// which drain regardless of the background threshold).
    pub fn has_writeback_work(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Take the next chunk to write back, marking it in-flight.
    pub fn start_writeback(&mut self) -> Option<ChunkId> {
        while let Some(c) = self.wb_queue.pop_front() {
            if self.dirty.remove(c) {
                self.wb_inflight.insert(c);
                return Some(c);
            }
            // else: stale queue entry (chunk was invalidated); skip
        }
        None
    }

    /// The engine finished writing `c` to disk.
    pub fn writeback_done(&mut self, c: ChunkId) {
        self.wb_inflight.remove(c);
    }

    /// Drop any cached copy of `c` (content replaced from the network,
    /// e.g. a pulled or pushed chunk landing on the local disk).
    pub fn invalidate(&mut self, c: ChunkId) {
        self.resident.remove(c);
        self.dirty.remove(c);
        self.wb_inflight.remove(c);
        // order/wb_queue entries become stale and are skipped lazily.
    }

    /// Drop the entire cache (the VM moved to a host whose page cache is
    /// cold; the source host's cache does not migrate). In-flight
    /// write-backs are forgotten — their completions become no-ops.
    pub fn clear(&mut self) {
        self.resident.clear();
        self.dirty.clear();
        self.wb_inflight.clear();
        self.order.clear();
        self.wb_queue.clear();
    }

    fn evict_as_needed(&mut self) {
        let cap_chunks = (self.cfg.capacity_bytes / self.cfg.chunk_size).max(1) as u32;
        while self.resident.count() > cap_chunks {
            // Evict the oldest *clean* chunk; dirty chunks are pinned.
            let mut evicted = false;
            let mut rotated = 0usize;
            while let Some(c) = self.order.pop_front() {
                if !self.resident.contains(c) {
                    continue; // stale
                }
                if self.dirty.contains(c) || self.wb_inflight.contains(c) {
                    self.order.push_back(c);
                    rotated += 1;
                    if rotated > self.order.len() {
                        break; // everything resident is dirty: give up
                    }
                    continue;
                }
                self.resident.remove(c);
                evicted = true;
                break;
            }
            if !evicted {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CK: u64 = 256 * 1024;

    fn cfg(capacity_chunks: u64, dirty_chunks: u64, bg_chunks: u64) -> CacheConfig {
        CacheConfig {
            chunk_size: CK,
            capacity_bytes: capacity_chunks * CK,
            dirty_limit_bytes: dirty_chunks * CK,
            background_limit_bytes: bg_chunks * CK,
        }
    }

    /// The capacity is ⌊3·ram/4⌋ for every `u64`, including those whose
    /// product with 3 overflows.
    #[test]
    fn for_ram_capacity_is_three_quarters_up_to_u64_max() {
        for ram in [
            0,
            1,
            2,
            3,
            5,
            4 << 30,
            u64::MAX / 3,
            u64::MAX / 3 + 1,
            9_000_000_000_000_000_000,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let want = (u128::from(ram) * 3 / 4) as u64;
            assert_eq!(
                CacheConfig::for_ram(ram, CK).capacity_bytes,
                want,
                "ram {ram}"
            );
        }
    }

    #[test]
    fn read_miss_then_hit() {
        let mut pc = PageCache::new(64, cfg(16, 8, 4));
        let c = ChunkId(3);
        assert_eq!(pc.classify_read(c), ReadClass::Miss);
        pc.fill(c);
        assert_eq!(pc.classify_read(c), ReadClass::CacheHit);
    }

    #[test]
    fn writes_buffer_until_dirty_limit() {
        let mut pc = PageCache::new(64, cfg(32, 4, 2));
        for i in 0..4 {
            assert_eq!(pc.classify_write(ChunkId(i)), WriteClass::Buffered);
        }
        // Fifth dirty chunk exceeds the 4-chunk dirty limit.
        assert_eq!(pc.classify_write(ChunkId(10)), WriteClass::Throttled);
        assert_eq!(pc.dirty_bytes(), 4 * CK);
    }

    #[test]
    fn rewriting_same_chunk_does_not_grow_dirty() {
        let mut pc = PageCache::new(64, cfg(32, 4, 2));
        for _ in 0..10 {
            assert_eq!(pc.classify_write(ChunkId(0)), WriteClass::Buffered);
        }
        assert_eq!(pc.dirty_bytes(), CK);
    }

    #[test]
    fn writeback_cycle_drains_dirty() {
        let mut pc = PageCache::new(64, cfg(32, 8, 1));
        pc.classify_write(ChunkId(0));
        pc.classify_write(ChunkId(1));
        assert!(pc.needs_writeback());
        let a = pc.start_writeback().unwrap();
        assert_eq!(a, ChunkId(0), "write-back is oldest-first");
        assert!(pc.is_dirty(a), "in-flight still counts as dirty");
        pc.writeback_done(a);
        let b = pc.start_writeback().unwrap();
        pc.writeback_done(b);
        assert_eq!(pc.dirty_bytes(), 0);
        assert!(!pc.needs_writeback());
        assert!(pc.is_resident(ChunkId(0)), "clean copy stays resident");
    }

    #[test]
    fn throttle_releases_after_drain() {
        let mut pc = PageCache::new(64, cfg(32, 2, 1));
        pc.classify_write(ChunkId(0));
        pc.classify_write(ChunkId(1));
        assert_eq!(pc.classify_write(ChunkId(2)), WriteClass::Throttled);
        let c = pc.start_writeback().unwrap();
        pc.writeback_done(c);
        assert_eq!(pc.classify_write(ChunkId(2)), WriteClass::Buffered);
    }

    #[test]
    fn eviction_prefers_clean_chunks() {
        let mut pc = PageCache::new(64, cfg(3, 8, 8));
        pc.classify_write(ChunkId(0)); // dirty
        pc.fill(ChunkId(1)); // clean
        pc.fill(ChunkId(2)); // clean
        pc.fill(ChunkId(3)); // forces eviction
        assert!(pc.is_resident(ChunkId(0)), "dirty chunk pinned");
        assert!(!pc.is_resident(ChunkId(1)), "oldest clean evicted");
        assert!(pc.is_resident(ChunkId(2)));
        assert!(pc.is_resident(ChunkId(3)));
    }

    #[test]
    fn all_dirty_cache_stops_evicting() {
        let mut pc = PageCache::new(64, cfg(2, 64, 64));
        pc.classify_write(ChunkId(0));
        pc.classify_write(ChunkId(1));
        pc.classify_write(ChunkId(2));
        // Over capacity but nothing evictable; the cache holds all three.
        assert_eq!(pc.resident_bytes(), 3 * CK);
    }

    #[test]
    fn invalidate_clears_all_state() {
        let mut pc = PageCache::new(64, cfg(16, 8, 1));
        pc.classify_write(ChunkId(0));
        pc.invalidate(ChunkId(0));
        assert!(!pc.is_resident(ChunkId(0)));
        assert!(!pc.is_dirty(ChunkId(0)));
        assert_eq!(pc.start_writeback(), None, "stale queue entry skipped");
    }

    #[test]
    fn invalidated_inflight_writeback_is_forgotten() {
        let mut pc = PageCache::new(64, cfg(16, 8, 1));
        pc.classify_write(ChunkId(0));
        let c = pc.start_writeback().unwrap();
        pc.invalidate(c);
        assert!(!pc.is_dirty(c));
        pc.writeback_done(c); // engine completion after invalidation: no-op
        assert!(!pc.is_resident(c));
    }

    #[test]
    fn for_ram_ratios() {
        let ram = 4u64 * 1024 * 1024 * 1024;
        let cfg = CacheConfig::for_ram(ram, CK);
        assert_eq!(cfg.capacity_bytes, ram * 3 / 4);
        assert_eq!(cfg.dirty_limit_bytes, ram / 8);
        assert_eq!(cfg.background_limit_bytes, ram / 16);
        assert!(cfg.background_limit_bytes < cfg.dirty_limit_bytes);
    }
}
