//! Copy-on-write virtual disks with versioned chunk content.
//!
//! The paper's migration manager exposes each VM a local view of a shared
//! **base disk image** (§4.2): reads of never-touched regions fetch chunks
//! from the repository and cache them locally; writes always create local
//! chunks. [`VirtualDisk`] is that view.
//!
//! Instead of storing chunk payloads, content is a **version number** per
//! chunk: version 0 is the pristine base content, and every write stamps a
//! fresh, globally unique version drawn from the disk's monotonic counter.
//! Two stores hold the same bytes iff they hold the same version — which
//! gives the engine (each migration record's `consistent` flag) and the
//! test-suite an exact equality check between the logical disk the VM
//! observed and the physical replica reconstructed at the migration
//! destination.
//!
//! # Per-chunk numbers in pages
//!
//! Versions and write counts only ever differ from 0 on chunks a guest
//! wrote, a few thousand of the 16,384 chunks of a 4 GiB image. So
//! [`ChunkStore`], [`VirtualDisk`] and [`WriteCounter`] keep them in fixed
//! 4 KiB pages (512 versions or 1,024 counts), each allocated the first
//! time one of its chunks is given a non-zero value. An absent page reads
//! as 0, the value a dense vector would hold there, so a lookup is two
//! indexings and readers see exactly the numbers a dense vector gives.

use crate::chunk::{ChunkId, ChunkSet};
use serde::{Deserialize, Serialize};

/// Bytes of one page of per-chunk numbers.
const PAGE_BYTES: usize = 4096;

/// Per-chunk numbers of one image, in [`PAGE_BYTES`] pages allocated on
/// the first non-zero value (see the module docs). It is two words and
/// keeps no chunk count: a [`WriteCounter`] travels inside an engine
/// event, whose size every pending event pays, and the chunk sets kept
/// beside each of these numbers check chunk ranges.
#[derive(Clone, Debug)]
struct ChunkPages<T> {
    pages: Box<[Option<Box<[T]>>]>,
}

impl<T: Copy + Default + PartialEq> ChunkPages<T> {
    /// Entries per page.
    const PER_PAGE: usize = PAGE_BYTES / std::mem::size_of::<T>();

    /// All zero, no page allocated.
    fn new(nchunks: u32) -> Self {
        ChunkPages {
            pages: vec![None; (nchunks as usize).div_ceil(Self::PER_PAGE)].into_boxed_slice(),
        }
    }

    /// The value of chunk `c`.
    #[inline]
    fn get(&self, c: ChunkId) -> T {
        match &self.pages[c.idx() / Self::PER_PAGE] {
            Some(page) => page[c.idx() % Self::PER_PAGE],
            None => T::default(),
        }
    }

    /// The value of chunk `c`, for update; allocates its page.
    #[inline]
    fn get_mut(&mut self, c: ChunkId) -> &mut T {
        let page = self.pages[c.idx() / Self::PER_PAGE]
            .get_or_insert_with(|| vec![T::default(); Self::PER_PAGE].into_boxed_slice());
        &mut page[c.idx() % Self::PER_PAGE]
    }

    /// Set chunk `c` to `v`. Zero on an absent page allocates nothing.
    #[inline]
    fn set(&mut self, c: ChunkId, v: T) {
        if v != T::default() || self.pages[c.idx() / Self::PER_PAGE].is_some() {
            *self.get_mut(c) = v;
        }
    }
}

/// Placement state of a chunk in a VM's local view (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ChunkState {
    /// Never read or written: lives only in the repository.
    Untouched,
    /// Base content fetched from the repository and cached on local disk.
    CachedBase,
    /// Locally written content (part of the ModifiedSet).
    Local,
}

/// Version of a chunk's content. `0` is the base-image content; larger
/// values order writes globally within one simulation.
pub type Version = u64;

/// A physical holder of chunk content (a node's local disk, or the
/// destination's reconstruction during migration).
///
/// `apply` enforces the no-clobber rule used by Algorithm 4: stale content
/// arriving late (a pull racing a local write) never overwrites newer data.
#[derive(Clone, Debug)]
pub struct ChunkStore {
    versions: ChunkPages<Version>,
    present: ChunkSet,
}

impl ChunkStore {
    /// An empty store for `nchunks` chunks (nothing present).
    pub fn new(nchunks: u32) -> Self {
        ChunkStore {
            versions: ChunkPages::new(nchunks),
            present: ChunkSet::new(nchunks),
        }
    }

    /// True if the store holds some version of `c`.
    pub fn has(&self, c: ChunkId) -> bool {
        self.present.contains(c)
    }

    /// Version held for `c` (meaningless if `!has(c)`).
    pub fn version(&self, c: ChunkId) -> Version {
        self.versions.get(c)
    }

    /// Store `v` for chunk `c` if it is newer than what is present.
    /// Returns true if the store changed.
    pub fn apply(&mut self, c: ChunkId, v: Version) -> bool {
        if self.present.contains(c) && self.versions.get(c) >= v {
            return false;
        }
        self.present.insert(c);
        self.versions.set(c, v);
        true
    }

    /// The set of chunks present.
    pub fn present(&self) -> &ChunkSet {
        &self.present
    }

    /// True if this store holds exactly the content of `disk`'s modified
    /// chunks — the end-of-migration consistency criterion.
    pub fn covers(&self, disk: &VirtualDisk) -> bool {
        disk.modified()
            .iter()
            .all(|c| self.has(c) && self.version(c) == disk.version(c))
    }

    /// Chunks of `disk.modified()` that this store is missing or holds
    /// stale versions of (diagnostic for failed consistency checks).
    pub fn divergence(&self, disk: &VirtualDisk) -> Vec<ChunkId> {
        disk.modified()
            .iter()
            .filter(|&c| !self.has(c) || self.version(c) != disk.version(c))
            .collect()
    }
}

/// The logical copy-on-write disk a VM reads and writes.
#[derive(Clone, Debug)]
pub struct VirtualDisk {
    chunk_size: u64,
    versions: ChunkPages<Version>,
    /// Chunks in state `Local`.
    modified: ChunkSet,
    /// Chunks in state `CachedBase`; disjoint from `modified`.
    cached: ChunkSet,
    next_version: Version,
}

impl VirtualDisk {
    /// A pristine view over a base image of `nchunks` chunks of
    /// `chunk_size` bytes.
    pub fn new(nchunks: u32, chunk_size: u64) -> Self {
        assert!(nchunks > 0 && chunk_size > 0);
        VirtualDisk {
            chunk_size,
            versions: ChunkPages::new(nchunks),
            modified: ChunkSet::new(nchunks),
            cached: ChunkSet::new(nchunks),
            next_version: 1,
        }
    }

    /// Number of chunks.
    pub fn nchunks(&self) -> u32 {
        self.modified.capacity()
    }

    /// Chunk size in bytes.
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// Total virtual size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.chunk_size * self.nchunks() as u64
    }

    /// Current placement state of a chunk.
    pub fn state(&self, c: ChunkId) -> ChunkState {
        if self.modified.contains(c) {
            ChunkState::Local
        } else if self.cached.contains(c) {
            ChunkState::CachedBase
        } else {
            ChunkState::Untouched
        }
    }

    /// Content version the VM observes for `c` (0 = base content).
    pub fn version(&self, c: ChunkId) -> Version {
        self.versions.get(c)
    }

    /// The ModifiedSet of §4.3: all chunks ever written locally.
    pub fn modified(&self) -> &ChunkSet {
        &self.modified
    }

    /// The set of chunks with any local presence (modified or cached base);
    /// everything a `mirror`/`precopy` bulk phase must copy.
    pub fn locally_present(&self) -> ChunkSet {
        let mut s = self.modified.clone();
        s.union_with(&self.cached);
        s
    }

    /// `locally_present().count()`, without building the set.
    pub fn local_count(&self) -> u32 {
        self.modified.count() + self.cached.count()
    }

    /// Record a full-chunk write; returns the fresh content version.
    pub fn write(&mut self, c: ChunkId) -> Version {
        let v = self.next_version;
        self.next_version += 1;
        self.versions.set(c, v);
        self.modified.insert(c);
        self.cached.remove(c);
        v
    }

    /// Record that base content for `c` was fetched from the repository
    /// and cached locally. No-op if the chunk was already local.
    pub fn cache_base(&mut self, c: ChunkId) {
        if !self.modified.contains(c) {
            self.cached.insert(c);
        }
    }

    /// Whether reading `c` requires a repository fetch first.
    pub fn needs_repo_fetch(&self, c: ChunkId) -> bool {
        self.state(c) == ChunkState::Untouched
    }

    /// Forget local caching of base content (chunks revert to
    /// `Untouched`). Used at control transfer: base chunks cached on the
    /// *source's* local disk are not transferred — the destination
    /// re-fetches them from the repository on demand (§4.1).
    pub fn demote_cached_base(&mut self) {
        self.cached.clear();
    }
}

/// Per-chunk write counts with the paper's `Threshold` semantics.
///
/// Algorithm 1 starts a fresh counter at migration start; Algorithm 2
/// increments on every write; the background push skips chunks whose
/// count reached `Threshold` (they are "hot" and will be prefetched with
/// priority after control transfer instead). At `TRANSFER_IO_CONTROL` the
/// counter itself moves to the destination, which orders its pulls by it.
#[derive(Clone, Debug)]
pub struct WriteCounter {
    counts: ChunkPages<u32>,
    threshold: u32,
}

impl WriteCounter {
    /// Zeroed counters for `nchunks` chunks with the given push threshold.
    pub fn new(nchunks: u32, threshold: u32) -> Self {
        assert!(threshold >= 1, "Threshold must be at least 1");
        WriteCounter {
            counts: ChunkPages::new(nchunks),
            threshold,
        }
    }

    /// The configured `Threshold`.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Increment the write count of `c` (Algorithm 2, line 9).
    pub fn record_write(&mut self, c: ChunkId) {
        self.record_writes(c, 1);
    }

    /// Add `n` writes to the count of `c`, saturating at `u32::MAX`.
    pub fn record_writes(&mut self, c: ChunkId, n: u32) {
        let count = self.counts.get_mut(c);
        *count = count.saturating_add(n);
    }

    /// Current count for `c`.
    pub fn count(&self, c: ChunkId) -> u32 {
        self.counts.get(c)
    }

    /// Whether the active push may still send `c`
    /// (Algorithm 1, line 15: `WriteCount[c] < Threshold`).
    pub fn pushable(&self, c: ChunkId) -> bool {
        self.count(c) < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_disk_is_untouched() {
        let d = VirtualDisk::new(16, 256 * 1024);
        assert_eq!(d.nchunks(), 16);
        assert_eq!(d.size_bytes(), 16 * 256 * 1024);
        for i in 0..16 {
            assert_eq!(d.state(ChunkId(i)), ChunkState::Untouched);
            assert_eq!(d.version(ChunkId(i)), 0);
        }
        assert!(d.modified().is_empty());
    }

    #[test]
    fn writes_bump_versions_monotonically() {
        let mut d = VirtualDisk::new(8, 4096);
        let v1 = d.write(ChunkId(3));
        let v2 = d.write(ChunkId(3));
        let v3 = d.write(ChunkId(5));
        assert!(v1 < v2 && v2 < v3);
        assert_eq!(d.state(ChunkId(3)), ChunkState::Local);
        assert_eq!(d.modified().count(), 2);
    }

    #[test]
    fn cache_base_does_not_demote_local() {
        let mut d = VirtualDisk::new(8, 4096);
        d.write(ChunkId(1));
        d.cache_base(ChunkId(1));
        assert_eq!(d.state(ChunkId(1)), ChunkState::Local);
        d.cache_base(ChunkId(2));
        assert_eq!(d.state(ChunkId(2)), ChunkState::CachedBase);
        assert!(!d.needs_repo_fetch(ChunkId(2)));
        assert!(d.needs_repo_fetch(ChunkId(3)));
    }

    #[test]
    fn locally_present_includes_cached_base() {
        let mut d = VirtualDisk::new(8, 4096);
        d.write(ChunkId(0));
        d.cache_base(ChunkId(4));
        let p = d.locally_present();
        assert_eq!(p.iter().map(|c| c.0).collect::<Vec<_>>(), vec![0, 4]);
    }

    #[test]
    fn store_apply_rejects_stale() {
        let mut s = ChunkStore::new(8);
        assert!(s.apply(ChunkId(1), 5));
        assert!(!s.apply(ChunkId(1), 3), "stale version must not clobber");
        assert!(!s.apply(ChunkId(1), 5), "equal version is a no-op");
        assert!(s.apply(ChunkId(1), 9));
        assert_eq!(s.version(ChunkId(1)), 9);
    }

    #[test]
    fn store_covers_and_divergence() {
        let mut d = VirtualDisk::new(8, 4096);
        let va = d.write(ChunkId(0));
        let _old = d.write(ChunkId(1));
        let vb = d.write(ChunkId(1)); // rewrite

        let mut s = ChunkStore::new(8);
        s.apply(ChunkId(0), va);
        s.apply(ChunkId(1), vb - 1); // stale copy of chunk 1
        assert!(!s.covers(&d));
        assert_eq!(s.divergence(&d), vec![ChunkId(1)]);

        s.apply(ChunkId(1), vb);
        assert!(s.covers(&d));
        assert!(s.divergence(&d).is_empty());
    }

    #[test]
    fn write_counter_threshold_semantics() {
        let mut wc = WriteCounter::new(4, 3);
        let c = ChunkId(2);
        assert!(wc.pushable(c));
        wc.record_write(c);
        wc.record_write(c);
        assert!(wc.pushable(c), "below threshold still pushable");
        wc.record_write(c);
        assert!(!wc.pushable(c), "at threshold: withheld from push");
        assert_eq!(wc.count(c), 3);
    }

    #[test]
    #[should_panic(expected = "Threshold")]
    fn zero_threshold_rejected() {
        let _ = WriteCounter::new(4, 0);
    }
}
