//! Algorithm 3's pull order against a binary-heap reference.
//!
//! [`HybridDest`] sorts its prefetch order once at handoff and pops from
//! the end. [`HeapDest`] is the same state machine over a max-heap of
//! `(write_count, Reverse(chunk))`, popped lazily: the order as it was
//! computed on every pop, over a dense vector of the counts. Driven by the
//! same calls, the two must answer every call alike. `HybridDest` gets
//! the counts as the source hands them over: a [`WriteCounter`], by value.

use lsm_blockdev::{ChunkId, ChunkSet, WriteCounter};
use lsm_core::policy::{HybridDest, ReadPath};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference: `HybridDest` with a binary heap for its prefetch order.
struct HeapDest {
    remaining: ChunkSet,
    heap: BinaryHeap<(u32, Reverse<u32>)>,
    counts: Vec<u32>,
    inflight: ChunkSet,
    prioritized: bool,
}

impl HeapDest {
    fn start(remaining: ChunkSet, counts: &[u32], prioritized: bool) -> Self {
        let heap = remaining
            .iter()
            .map(|c| (if prioritized { counts[c.idx()] } else { 0 }, Reverse(c.0)))
            .collect();
        let n = remaining.capacity();
        HeapDest {
            remaining,
            heap,
            counts: counts.to_vec(),
            inflight: ChunkSet::new(n),
            prioritized,
        }
    }

    fn next_pull(&mut self) -> Option<ChunkId> {
        while let Some((_, Reverse(raw))) = self.heap.pop() {
            let c = ChunkId(raw);
            if self.remaining.remove(c) {
                self.inflight.insert(c);
                return Some(c);
            }
        }
        None
    }

    fn on_read(&mut self, c: ChunkId) -> ReadPath {
        if self.inflight.contains(c) {
            return ReadPath::WaitForPull;
        }
        if self.remaining.remove(c) {
            self.inflight.insert(c);
            return ReadPath::PullOnDemand;
        }
        ReadPath::Local
    }

    fn on_write(&mut self, c: ChunkId) -> bool {
        self.remaining.remove(c);
        self.inflight.remove(c)
    }

    fn pull_done(&mut self, c: ChunkId) {
        self.inflight.remove(c);
    }

    fn pull_lost(&mut self, c: ChunkId) {
        if self.inflight.remove(c) {
            self.remaining.insert(c);
            let wc = if self.prioritized {
                self.counts[c.idx()]
            } else {
                0
            };
            self.heap.push((wc, Reverse(c.0)));
        }
    }

    fn is_complete(&self) -> bool {
        self.remaining.is_empty() && self.inflight.is_empty()
    }
}

/// Write counts with many zeros and ties, and a few large ones.
fn write_count() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(0u32), 0u32..4, 0u32..u32::MAX]
}

proptest! {
    /// Random remaining sets and write counts under both `prioritized`
    /// values, then a random interleaving of `next_pull`, `on_read`,
    /// `on_write`, `pull_done` and `pull_lost` on any chunk (half of the
    /// completions and losses on a chunk in flight), and a drain. Every
    /// return value, `remaining_count` and `is_complete` must match the
    /// reference after every call.
    #[test]
    fn pull_order_matches_the_heap(
        chunks in prop::collection::vec((prop::bool::ANY, write_count()), 1..96),
        prioritized in prop::bool::ANY,
        ops in prop::collection::vec((0u8..6, 0usize..1 << 16), 0..300),
    ) {
        let n = chunks.len() as u32;
        let counts: Vec<u32> = chunks.iter().map(|&(_, wc)| wc).collect();
        let set = ChunkSet::from_iter(
            n,
            (0..n).filter(|&c| chunks[c as usize].0).map(ChunkId),
        );
        let mut wc = WriteCounter::new(n, 1);
        for (c, &k) in counts.iter().enumerate() {
            wc.record_writes(ChunkId(c as u32), k);
        }
        let mut d = HybridDest::start(set.clone(), wc, prioritized);
        let mut m = HeapDest::start(set, &counts, prioritized);
        for (step, &(op, pick)) in ops.iter().enumerate() {
            let any = ChunkId(pick as u32 % n);
            let inflight: Vec<ChunkId> = m.inflight.iter().collect();
            let settled = match (pick % 2, inflight.len()) {
                (0, len) if len > 0 => inflight[pick / 2 % len],
                _ => any,
            };
            match op {
                0 | 1 => {
                    let c = m.next_pull();
                    prop_assert_eq!(d.next_pull(), c, "next_pull at step {}", step);
                }
                2 => prop_assert_eq!(d.on_read(any), m.on_read(any), "on_read at step {}", step),
                3 => prop_assert_eq!(d.on_write(any), m.on_write(any), "on_write at step {}", step),
                4 => {
                    d.pull_done(settled);
                    m.pull_done(settled);
                }
                _ => {
                    d.pull_lost(settled);
                    m.pull_lost(settled);
                }
            }
            prop_assert_eq!(d.remaining_count(), m.remaining.count(), "remaining at step {}", step);
            prop_assert_eq!(d.is_complete(), m.is_complete(), "complete at step {}", step);
        }
        loop {
            let c = m.next_pull();
            prop_assert_eq!(d.next_pull(), c, "drain");
            match c {
                Some(c) => {
                    d.pull_done(c);
                    m.pull_done(c);
                }
                None => break,
            }
        }
        prop_assert_eq!(d.remaining_count(), 0);
        prop_assert_eq!(d.is_complete(), m.is_complete());
    }
}
