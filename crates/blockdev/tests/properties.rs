//! Property tests for the block-device substrate.

use lsm_blockdev::{
    byte_range_to_chunks, CacheConfig, ChunkId, ChunkSet, ChunkState, ChunkStore, DirtyTracker,
    PageCache, VirtualDisk, WriteClass, WriteCounter,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

const N: u32 = 512;

/// Chunks of the paged-storage properties: a multiple of neither page
/// (512 versions, 1,024 counts), so the last page of each is partial.
const PAGED: u32 = 2600;

/// A chunk of a `PAGED`-chunk image, half the time on a page edge: the
/// first or last chunk of a 512-chunk page (a 1,024-chunk page starts at
/// every second one), or the image's last chunk.
fn paged_chunk() -> impl Strategy<Value = ChunkId> {
    let edge = (0u32..12).prop_map(|i| (i / 2 * 512 + i % 2 * 511).min(PAGED - 1));
    prop_oneof![0..PAGED, edge].prop_map(ChunkId)
}

/// One step on a disk, a store and a write counter of `PAGED` chunks.
#[derive(Clone, Debug)]
enum PagedOp {
    /// `VirtualDisk::write`, and the store takes the new version.
    Write(ChunkId),
    /// `VirtualDisk::cache_base`.
    CacheBase(ChunkId),
    /// `VirtualDisk::demote_cached_base`.
    Demote,
    /// `ChunkStore::apply` of the `k`-th latest version the disk stamped
    /// on the chunk (`k` past the oldest: version 0).
    Redeliver(ChunkId, usize),
    /// `WriteCounter::record_writes`.
    Count(ChunkId, u32),
}

fn paged_op() -> impl Strategy<Value = PagedOp> {
    let writes = prop_oneof![Just(1u32), Just(2), Just(u32::MAX / 2), Just(u32::MAX)];
    prop_oneof![
        4 => paged_chunk().prop_map(PagedOp::Write),
        2 => paged_chunk().prop_map(PagedOp::CacheBase),
        1 => Just(PagedOp::Demote),
        3 => (paged_chunk(), 0usize..4).prop_map(|(c, k)| PagedOp::Redeliver(c, k)),
        3 => (paged_chunk(), writes).prop_map(|(c, n)| PagedOp::Count(c, n)),
    ]
}

proptest! {
    /// ChunkSet behaves exactly like a BTreeSet<u32> reference model.
    #[test]
    fn chunkset_matches_reference(ops in prop::collection::vec((0u32..N, prop::bool::ANY), 0..300)) {
        let mut cs = ChunkSet::new(N);
        let mut reference = BTreeSet::new();
        for (c, insert) in ops {
            if insert {
                prop_assert_eq!(cs.insert(ChunkId(c)), reference.insert(c));
            } else {
                prop_assert_eq!(cs.remove(ChunkId(c)), reference.remove(&c));
            }
            prop_assert_eq!(cs.count() as usize, reference.len());
        }
        let got: Vec<u32> = cs.iter().map(|c| c.0).collect();
        let want: Vec<u32> = reference.iter().copied().collect();
        prop_assert_eq!(got, want);
        // pop_first drains in sorted order.
        let mut drained = Vec::new();
        while let Some(c) = cs.pop_first() {
            drained.push(c.0);
        }
        let want: Vec<u32> = reference.iter().copied().collect();
        prop_assert_eq!(drained, want);
    }

    /// Set algebra agrees with the reference model.
    #[test]
    fn chunkset_algebra_matches_reference(
        a in prop::collection::btree_set(0u32..N, 0..100),
        b in prop::collection::btree_set(0u32..N, 0..100),
    ) {
        let mut ca = ChunkSet::from_iter(N, a.iter().map(|&i| ChunkId(i)));
        let cb = ChunkSet::from_iter(N, b.iter().map(|&i| ChunkId(i)));
        ca.union_with(&cb);
        let union: BTreeSet<u32> = a.union(&b).copied().collect();
        prop_assert_eq!(ca.iter().map(|c| c.0).collect::<BTreeSet<_>>(), union.clone());
        ca.subtract(&cb);
        let diff: BTreeSet<u32> = union.difference(&b).copied().collect();
        prop_assert_eq!(ca.iter().map(|c| c.0).collect::<BTreeSet<_>>(), diff);
    }

    /// Every byte of an I/O lands in exactly the chunk range reported.
    #[test]
    fn byte_range_covers_exactly(offset in 0u64..1_000_000, len in 1u64..500_000, ck_pow in 12u32..20) {
        let ck = 1u64 << ck_pow;
        let (first, last, first_partial, last_partial) = byte_range_to_chunks(offset, len, ck);
        prop_assert!(first.0 <= last.0);
        prop_assert_eq!(first.0 as u64, offset / ck);
        prop_assert_eq!(last.0 as u64, (offset + len - 1) / ck);
        prop_assert_eq!(first_partial, offset % ck != 0);
        prop_assert_eq!(last_partial, (offset + len) % ck != 0);
    }

    /// A ChunkStore that applies every write of a disk (in any interleaving
    /// with stale re-deliveries) ends up covering the disk.
    #[test]
    fn store_converges_despite_stale_redeliveries(
        writes in prop::collection::vec(0u32..64, 1..200),
        redeliver_every in 1usize..5,
    ) {
        let mut disk = VirtualDisk::new(64, 4096);
        let mut store = ChunkStore::new(64);
        let mut log: Vec<(ChunkId, u64)> = Vec::new();
        for (i, c) in writes.iter().enumerate() {
            let c = ChunkId(*c);
            let v = disk.write(c);
            log.push((c, v));
            store.apply(c, v);
            // Periodically re-deliver an old version: must never regress.
            if i % redeliver_every == 0 {
                let (oc, ov) = log[i / 2];
                store.apply(oc, ov);
            }
        }
        prop_assert!(store.covers(&disk), "divergence: {:?}", store.divergence(&disk));
    }

    /// The paged per-chunk numbers read exactly as dense vectors would:
    /// disk versions and states, store versions (with stale and base
    /// re-deliveries), and saturating write counts, over random steps
    /// that cross page edges and reach the partial last page.
    #[test]
    fn paged_numbers_match_dense_models(
        ops in prop::collection::vec(paged_op(), 1..300),
        threshold in 1u32..4,
    ) {
        let n = PAGED as usize;
        let mut disk = VirtualDisk::new(PAGED, 4096);
        let mut store = ChunkStore::new(PAGED);
        let mut wc = WriteCounter::new(PAGED, threshold);
        let mut versions = vec![vec![0u64]; n];
        let mut states = vec![ChunkState::Untouched; n];
        let mut held: Vec<Option<u64>> = vec![None; n];
        let mut counts = vec![0u32; n];
        let mut last = 0;
        for op in ops {
            match op {
                PagedOp::Write(c) => {
                    let v = disk.write(c);
                    prop_assert!(v > last, "versions grow");
                    last = v;
                    versions[c.idx()].push(v);
                    states[c.idx()] = ChunkState::Local;
                    prop_assert!(store.apply(c, v));
                    held[c.idx()] = Some(v);
                }
                PagedOp::CacheBase(c) => {
                    disk.cache_base(c);
                    if states[c.idx()] == ChunkState::Untouched {
                        states[c.idx()] = ChunkState::CachedBase;
                    }
                }
                PagedOp::Demote => {
                    disk.demote_cached_base();
                    for st in &mut states {
                        if *st == ChunkState::CachedBase {
                            *st = ChunkState::Untouched;
                        }
                    }
                }
                PagedOp::Redeliver(c, k) => {
                    let history = &versions[c.idx()];
                    let v = history[history.len().saturating_sub(k + 1)];
                    let newer = held[c.idx()].is_none_or(|h| v > h);
                    prop_assert_eq!(store.apply(c, v), newer, "apply {:?} v{}", c, v);
                    if newer {
                        held[c.idx()] = Some(v);
                    }
                }
                PagedOp::Count(c, k) => {
                    wc.record_writes(c, k);
                    counts[c.idx()] = counts[c.idx()].saturating_add(k);
                }
            }
        }
        for i in 0..n {
            let c = ChunkId(i as u32);
            prop_assert_eq!(disk.version(c), *versions[i].last().unwrap(), "disk {:?}", c);
            prop_assert_eq!(disk.state(c), states[i], "state {:?}", c);
            prop_assert_eq!(disk.needs_repo_fetch(c), states[i] == ChunkState::Untouched);
            prop_assert_eq!(store.has(c), held[i].is_some(), "present {:?}", c);
            prop_assert_eq!(store.version(c), held[i].unwrap_or(0), "store {:?}", c);
            prop_assert_eq!(wc.count(c), counts[i], "count {:?}", c);
            prop_assert_eq!(wc.pushable(c), counts[i] < threshold);
        }
        prop_assert!(store.covers(&disk), "divergence: {:?}", store.divergence(&disk));
    }

    /// `VirtualDisk::local_count` is the size of `locally_present` after
    /// every write, base fetch and demotion.
    #[test]
    fn local_count_matches_locally_present(
        ops in prop::collection::vec((0u8..9, paged_chunk()), 1..300),
    ) {
        let mut disk = VirtualDisk::new(PAGED, 4096);
        for (kind, c) in ops {
            match kind {
                0..=3 => {
                    disk.write(c);
                }
                4..=7 => disk.cache_base(c),
                _ => disk.demote_cached_base(),
            }
            prop_assert_eq!(disk.local_count(), disk.locally_present().count());
        }
    }

    /// WriteCounter: a chunk becomes unpushable exactly at Threshold.
    #[test]
    fn write_counter_threshold(threshold in 1u32..10, hits in 0u32..20) {
        let mut wc = WriteCounter::new(4, threshold);
        for _ in 0..hits {
            wc.record_write(ChunkId(0));
        }
        prop_assert_eq!(wc.pushable(ChunkId(0)), hits < threshold);
        prop_assert_eq!(wc.count(ChunkId(0)), hits);
    }

    /// Page cache: dirty bytes never exceed the configured limit, and
    /// resident bytes only exceed capacity when pinned dirty chunks force it.
    #[test]
    fn cache_limits_respected(ops in prop::collection::vec((0u32..128, 0u8..3), 1..400)) {
        let ck = 4096u64;
        let cfg = CacheConfig {
            chunk_size: ck,
            capacity_bytes: 32 * ck,
            dirty_limit_bytes: 8 * ck,
            background_limit_bytes: 4 * ck,
        };
        let mut pc = PageCache::new(128, cfg);
        for (c, kind) in ops {
            let c = ChunkId(c);
            match kind {
                0 => {
                    let class = pc.classify_write(c);
                    if pc.dirty_bytes() > cfg.dirty_limit_bytes {
                        prop_assert_eq!(class, WriteClass::Throttled);
                    }
                }
                1 => pc.fill(c),
                _ => {
                    if let Some(wb) = pc.start_writeback() {
                        pc.writeback_done(wb);
                    }
                }
            }
            prop_assert!(pc.dirty_bytes() <= cfg.dirty_limit_bytes,
                "dirty {} over limit", pc.dirty_bytes());
            let dirty_chunks = pc.dirty_bytes() / ck;
            let slack = dirty_chunks * ck;
            prop_assert!(pc.resident_bytes() <= cfg.capacity_bytes + slack + ck,
                "resident {} over capacity", pc.resident_bytes());
        }
        // Full drain always terminates and zeroes dirty bytes.
        while let Some(wb) = pc.start_writeback() {
            pc.writeback_done(wb);
        }
        prop_assert_eq!(pc.dirty_bytes(), 0);
    }

    /// DirtyTracker: every written chunk is eventually sent, and the number
    /// of sends of a chunk never exceeds 1 + times it was re-dirtied after
    /// being sent.
    #[test]
    fn dirty_tracker_send_counts(
        initial in prop::collection::btree_set(0u32..64, 1..32),
        interleave in prop::collection::vec((0u32..64, prop::bool::ANY), 0..200),
    ) {
        let bulk = ChunkSet::from_iter(64, initial.iter().map(|&i| ChunkId(i)));
        let mut t = DirtyTracker::start(bulk);
        let mut sent: Vec<u32> = Vec::new();
        let mut written: BTreeSet<u32> = initial.clone();
        for (c, send_next) in interleave {
            if send_next {
                if let Some(s) = t.next_chunk() {
                    sent.push(s.0);
                }
            } else {
                t.record_write(ChunkId(c));
                written.insert(c);
            }
        }
        for s in t.drain_all() {
            sent.push(s.0);
        }
        prop_assert!(t.converged());
        // Every written chunk was sent at least once.
        for w in &written {
            prop_assert!(sent.contains(w), "chunk {w} written but never sent");
        }
    }
}
