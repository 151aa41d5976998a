//! Shared cost-ordered frontier machinery for every shortest-path call site.
//!
//! All Dijkstra variants in the workspace order their frontier the same
//! way: by `f64` cost ascending (via `total_cmp`, so the order is total
//! even for pathological values), tie-broken toward the lower node index.
//! [`CostEntry`] packages that comparator once so `graph::centrality`, the
//! risk engine in the core crate and its reference oracle all break ties
//! identically.
//!
//! [`BucketQueue`] is the continental-scale replacement for
//! `BinaryHeap<CostEntry>`: a monotone bucket queue over integer-quantized
//! costs. Its pop sequence is **provably identical** to the heap's for any
//! monotone quantization, because within the lowest non-empty bucket it
//! selects the exact `(cost, node)` minimum:
//!
//! - the heap pops entries in `(cost, node)` order (a total order);
//! - the bucket queue pops in `(key, (cost, node))` order where
//!   `key = ⌊cost · inv_quantum⌋`;
//! - `inv_quantum > 0` and IEEE-754 multiplication/truncation are monotone,
//!   so `cost₁ ≤ cost₂ ⇒ key₁ ≤ key₂` — the two orders coincide.
//!
//! When `inv_quantum` is a power of two (see [`inv_quantum_for_mean`]) the
//! multiply is a pure exponent shift (no rounding), so every cost that is
//! an exact multiple of the quantum lands exactly on its bucket boundary
//! and a bucket degenerates to a single cost class whose only tie-break is
//! the lowest node index.

use std::cmp::Ordering;

/// A frontier entry: the `cost` offered to reach `node`.
///
/// `Ord` is inverted (smaller cost = greater), so a
/// `std::collections::BinaryHeap<CostEntry>` pops the cheapest entry first;
/// ties break toward the lower node index. `total_cmp` keeps the order
/// total even if a NaN cost ever slips in (it sorts past infinity instead
/// of corrupting the heap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEntry {
    /// Offered path cost.
    pub cost: f64,
    /// Target node index.
    pub node: usize,
}

impl Eq for CostEntry {}

impl Ord for CostEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for CostEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Exact min-first order (the order a `BinaryHeap<CostEntry>` pops in).
#[inline]
fn min_first(a: &CostEntry, b: &CostEntry) -> Ordering {
    a.cost.total_cmp(&b.cost).then_with(|| a.node.cmp(&b.node))
}

/// Buckets a mean-sized relaxation step should advance the frontier by.
///
/// The ring holds [`RING_SLOTS`] buckets, so this targets ~4 mean steps of
/// in-window headroom. The value is deliberately large: the frontier of a
/// continental-scale Dijkstra holds hundreds of entries spread over only a
/// couple of mean steps of cost, and a coarse quantum would pile them into
/// a few buckets whose linear min-scans then dominate the pop (measured:
/// at 4 buckets/step a 10k-PoP sweep averaged ~13 chain steps per pop and
/// lost to the binary heap; at 256 chains are ~1 entry and it wins).
const BUCKETS_PER_MEAN_STEP: f64 = (RING_SLOTS / 4) as f64;

/// The power of two nearest `BUCKETS_PER_MEAN_STEP / mean_step`, the
/// quantization factor that spreads a frontier spanning a few mean-sized
/// relaxation steps across the whole ring. A power of two makes
/// `cost · inv_quantum` a pure exponent shift — exact for every
/// representable cost, so bucket boundaries never suffer rounding.
///
/// Returns `1.0` for a non-positive or non-finite `mean_step` (all-zero
/// graphs quantize trivially: every cost is key 0 and the queue
/// degenerates to the exact `(cost, node)` comparator).
pub fn inv_quantum_for_mean(mean_step: f64) -> f64 {
    if !(mean_step.is_finite() && mean_step > 0.0) {
        return 1.0;
    }
    let target = BUCKETS_PER_MEAN_STEP / mean_step;
    // Clamp the exponent so key arithmetic stays far inside u64 range even
    // for extreme weight scales.
    let e = target.log2().round().clamp(-40.0, 40.0) as i32;
    2f64.powi(e)
}

/// Ring size: spans a window of `RING_SLOTS` cost quanta (~4 mean
/// relaxation steps at the default quantum), so in-window pushes and pops
/// are O(1).
const RING_SLOTS: usize = 1024;
const RING_WORDS: usize = RING_SLOTS / 64;

/// Arena slot: one queued entry plus the intrusive link to the next entry
/// in the same bucket ([`NO_ENTRY`] terminates the chain).
#[derive(Debug, Clone, Copy)]
struct ArenaEntry {
    entry: CostEntry,
    next: u32,
}

/// Chain terminator / empty-bucket marker.
const NO_ENTRY: u32 = u32::MAX;

/// A monotone bucket queue whose pop sequence is bit-identical to a
/// `BinaryHeap<CostEntry>` (see the module docs for the argument).
///
/// Layout: a ring of `RING_SLOTS` buckets covering the key window
/// `[cur_key, cur_key + RING_SLOTS)` with a per-word occupancy bitmap, plus
/// an overflow list for keys beyond the window. The window rebases onto the
/// overflow minimum whenever that minimum is due — `≤`, not `<`, so
/// equal-key entries always compete on the exact `(cost, node)` comparator
/// inside one bucket.
///
/// Buckets are intrusive linked lists threaded through one contiguous
/// entry arena (`entries`), with the list heads in one flat array — a push
/// is an arena append plus a head swap, and nothing is allocated per
/// bucket. The compact layout is what lets the queue beat `BinaryHeap`'s
/// very cache-friendly array at continental scale; a `Vec<Vec<CostEntry>>`
/// ring pays a scattered heap allocation per live bucket and loses.
/// Unlinked arena slots are abandoned until the next [`reset`](Self::reset)
/// (an O(1) `clear`), bounding arena growth by the pushes of one run.
///
/// Contract: pushed costs must be non-decreasing in the sense of Dijkstra
/// (never below the last popped cost). Out-of-order keys are clamped into
/// the current bucket, which preserves the exact pop order whenever the
/// contract holds and degrades gracefully (still a total drain) otherwise.
#[derive(Debug, Default)]
pub struct BucketQueue {
    entries: Vec<ArenaEntry>,
    /// Per-slot chain heads; empty until the first push, then exactly
    /// [`RING_SLOTS`] long (kept lazy so `Default`/`new` never allocate —
    /// the engine's arena `mem::take`s the queue on every run).
    head: Vec<u32>,
    occupied: [u64; RING_WORDS],
    overflow: Vec<(u64, CostEntry)>,
    overflow_min: u64,
    cur_key: u64,
    len: usize,
    inv_quantum: f64,
}

impl BucketQueue {
    /// An empty queue with quantization factor 1.0 (call [`reset`](Self::reset)
    /// with the snapshot's factor before each run). Allocation-free until
    /// the first push.
    pub fn new() -> Self {
        BucketQueue {
            entries: Vec::new(),
            head: Vec::new(),
            occupied: [0; RING_WORDS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            cur_key: 0,
            len: 0,
            inv_quantum: 1.0,
        }
    }

    /// Empty the queue and install the quantization factor for the next
    /// run. Arena and ring capacities are retained, so steady-state reuse
    /// allocates nothing. A chain head is non-empty exactly when its
    /// `occupied` bit is set, so only those heads are cleared — a short run
    /// leaves a handful, not the whole ring.
    pub fn reset(&mut self, inv_quantum: f64) {
        self.entries.clear();
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.head[w * 64 + bits.trailing_zeros() as usize] = NO_ENTRY;
                bits &= bits - 1;
            }
        }
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.cur_key = 0;
        self.len = 0;
        self.inv_quantum = if inv_quantum.is_finite() && inv_quantum > 0.0 {
            inv_quantum
        } else {
            1.0
        };
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn key_of(&self, cost: f64) -> u64 {
        // Saturating float→int cast; costs are finite and non-negative on
        // every engine path (sanitized upstream).
        (cost * self.inv_quantum) as u64
    }

    #[inline]
    fn set_bit(occupied: &mut [u64; RING_WORDS], slot: usize) {
        occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    #[inline]
    fn clear_bit(occupied: &mut [u64; RING_WORDS], slot: usize) {
        occupied[slot / 64] &= !(1u64 << (slot % 64));
    }

    /// Link `e` into the ring bucket for in-window `key`.
    #[inline]
    fn link(&mut self, key: u64, e: CostEntry) {
        let slot = (key % RING_SLOTS as u64) as usize;
        let prev_head = self.head[slot];
        if prev_head == NO_ENTRY {
            Self::set_bit(&mut self.occupied, slot);
        }
        let idx = self.entries.len() as u32;
        self.entries.push(ArenaEntry {
            entry: e,
            next: prev_head,
        });
        self.head[slot] = idx;
    }

    /// Queue an entry.
    pub fn push(&mut self, e: CostEntry) {
        if self.head.is_empty() {
            self.head.resize(RING_SLOTS, NO_ENTRY);
        }
        let mut key = self.key_of(e.cost);
        if self.len == 0 {
            // An empty queue has no ordering constraints; rebase on the
            // first entry so the ring window starts where the costs are.
            self.cur_key = key;
        }
        if key < self.cur_key {
            key = self.cur_key;
        }
        if key - self.cur_key < RING_SLOTS as u64 {
            self.link(key, e);
        } else {
            self.overflow_min = self.overflow_min.min(key);
            self.overflow.push((key, e));
        }
        self.len += 1;
    }

    /// Smallest key present in the ring window, if any.
    fn scan_ring(&self) -> Option<u64> {
        let cur_slot = (self.cur_key % RING_SLOTS as u64) as usize;
        let (w0, b0) = (cur_slot / 64, cur_slot % 64);
        // Words in circular order starting at cur_slot give keys in
        // increasing order; the first word is split into its high bits
        // (keys ≥ cur_key) now and its low bits (wrapped keys) last.
        for wi in 0..=RING_WORDS {
            let w = (w0 + wi) % RING_WORDS;
            let mut word = self.occupied[w];
            if wi == 0 {
                word &= !0u64 << b0;
            } else if wi == RING_WORDS {
                word &= (1u64 << b0).wrapping_sub(1);
            }
            if word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                let offset = (slot + RING_SLOTS - cur_slot) % RING_SLOTS;
                return Some(self.cur_key + offset as u64);
            }
        }
        None
    }

    /// Advance the window to the overflow minimum and pull every
    /// now-in-window overflow entry into the ring.
    fn rebase_to_overflow(&mut self) {
        self.cur_key = self.overflow_min;
        let mut next_min = u64::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let (k, e) = self.overflow[i];
            if k - self.cur_key < RING_SLOTS as u64 {
                self.link(k, e);
                self.overflow.swap_remove(i);
            } else {
                next_min = next_min.min(k);
                i += 1;
            }
        }
        self.overflow_min = next_min;
    }

    /// Pop the globally minimal entry in exact `(cost, node)` order.
    pub fn pop(&mut self) -> Option<CostEntry> {
        if self.len == 0 {
            return None;
        }
        let mut ring_min = self.scan_ring();
        // The overflow minimum must compete before the window drains past
        // it: `≤` so equal keys still meet inside one bucket and resolve
        // on the exact comparator.
        if !self.overflow.is_empty() && ring_min.is_none_or(|k| self.overflow_min <= k) {
            self.rebase_to_overflow();
            ring_min = self.scan_ring();
        }
        let key = ring_min?;
        self.cur_key = key;
        let slot = (key % RING_SLOTS as u64) as usize;
        // Walk the bucket chain for the exact (cost, node) minimum,
        // remembering the link to splice it out.
        let mut best = self.head[slot];
        let mut best_prev = NO_ENTRY;
        let mut prev = best;
        let mut i = self.entries[best as usize].next;
        while i != NO_ENTRY {
            if min_first(
                &self.entries[i as usize].entry,
                &self.entries[best as usize].entry,
            ) == Ordering::Less
            {
                best = i;
                best_prev = prev;
            }
            prev = i;
            i = self.entries[i as usize].next;
        }
        let winner = self.entries[best as usize];
        if best_prev == NO_ENTRY {
            self.head[slot] = winner.next;
        } else {
            self.entries[best_prev as usize].next = winner.next;
        }
        if self.head[slot] == NO_ENTRY {
            Self::clear_bit(&mut self.occupied, slot);
        }
        self.len -= 1;
        Some(winner.entry)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_rng::StdRng;
    use std::collections::BinaryHeap;

    /// Drain both queues after identical pushes; sequences must agree
    /// entry-for-entry (bit-wise on cost).
    fn assert_matches_heap(entries: &[CostEntry], inv_quantum: f64) {
        let mut heap: BinaryHeap<CostEntry> = BinaryHeap::new();
        let mut bq = BucketQueue::new();
        bq.reset(inv_quantum);
        for &e in entries {
            heap.push(e);
            bq.push(e);
        }
        assert_eq!(bq.len(), entries.len());
        while let Some(h) = heap.pop() {
            let b = bq.pop().expect("bucket queue drained early");
            assert_eq!(h.cost.to_bits(), b.cost.to_bits());
            assert_eq!(h.node, b.node);
        }
        assert!(bq.pop().is_none());
        assert!(bq.is_empty());
    }

    #[test]
    fn empty_pops_none() {
        let mut bq = BucketQueue::new();
        assert!(bq.pop().is_none());
        bq.reset(8.0);
        assert!(bq.pop().is_none());
    }

    #[test]
    fn batch_drain_matches_heap_with_ties_and_zeros() {
        let entries = [
            CostEntry { cost: 3.5, node: 4 },
            CostEntry { cost: 0.0, node: 9 },
            CostEntry { cost: 3.5, node: 1 },
            CostEntry { cost: 0.0, node: 2 },
            CostEntry {
                cost: 3.5000000000000004,
                node: 0,
            },
            CostEntry {
                cost: 700.0,
                node: 3,
            },
        ];
        for q in [0.125, 1.0, 16.0] {
            assert_matches_heap(&entries, q);
        }
    }

    #[test]
    fn overflow_keys_compete_with_ring_keys() {
        // With inv_quantum 1.0, cost 5000 lands in overflow while 2.0 is in
        // the ring; a later push at 1500 also overflows. Pops must still
        // come out in global cost order.
        let mut bq = BucketQueue::new();
        bq.reset(1.0);
        bq.push(CostEntry { cost: 2.0, node: 1 });
        bq.push(CostEntry {
            cost: 5000.0,
            node: 2,
        });
        bq.push(CostEntry {
            cost: 1500.0,
            node: 3,
        });
        let order: Vec<usize> = std::iter::from_fn(|| bq.pop()).map(|e| e.node).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn interleaved_monotone_simulation_matches_heap() {
        // A Dijkstra-shaped workload: pops interleaved with pushes whose
        // costs are the popped cost plus a random non-negative increment.
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..50u64 {
            let inv = match trial % 3 {
                0 => 0.25,
                1 => 4.0,
                _ => 1024.0,
            };
            let mut heap: BinaryHeap<CostEntry> = BinaryHeap::new();
            let mut bq = BucketQueue::new();
            bq.reset(inv);
            let seed = CostEntry {
                cost: 0.0,
                node: (trial % 11) as usize,
            };
            heap.push(seed);
            bq.push(seed);
            // Finite push budget so the drain terminates: a length-based
            // cap would keep refilling the frontier forever.
            let mut budget = 300usize;
            while let Some(h) = heap.pop() {
                let b = bq.pop().expect("bucket queue drained early");
                assert_eq!(h.cost.to_bits(), b.cost.to_bits(), "trial {trial}");
                assert_eq!(h.node, b.node, "trial {trial}");
                if budget > 0 && rng.gen_f64() < 0.7 {
                    let fanout = (1 + (rng.next_u64() % 3) as usize).min(budget);
                    budget -= fanout;
                    for _ in 0..fanout {
                        // Mix zero, tiny, equal-cost, and huge increments.
                        let bump = match rng.next_u64() % 5 {
                            0 => 0.0,
                            1 => rng.gen_f64() * 1e-9,
                            2 => rng.gen_f64() * 3.0,
                            3 => rng.gen_f64() * 40.0,
                            _ => 500.0 + rng.gen_f64() * 5000.0,
                        };
                        let e = CostEntry {
                            cost: h.cost + bump,
                            node: (rng.next_u64() % 64) as usize,
                        };
                        heap.push(e);
                        bq.push(e);
                    }
                }
            }
            assert!(bq.pop().is_none(), "trial {trial}");
        }
    }

    #[test]
    fn reset_reuses_cleanly() {
        let mut bq = BucketQueue::new();
        for round in 0..3 {
            bq.reset(2.0);
            for i in 0..20 {
                bq.push(CostEntry {
                    cost: (i * 7 % 13) as f64 + round as f64,
                    node: i,
                });
            }
            let mut prev = f64::NEG_INFINITY;
            while let Some(e) = bq.pop() {
                assert!(e.cost >= prev);
                prev = e.cost;
            }
        }
    }

    #[test]
    fn a_queue_abandoned_mid_drain_resets_to_heap_order() {
        // An early-exit search abandons entries in ring buckets and in
        // overflow; after a reset the reused queue must pop exactly as a
        // fresh heap does.
        let mut rng = StdRng::seed_from_u64(11);
        let mut bq = BucketQueue::new();
        for round in 0..24 {
            bq.reset([0.25, 4.0, 1024.0][round % 3]);
            let mut heap: BinaryHeap<CostEntry> = BinaryHeap::new();
            for _ in 0..60 {
                let e = CostEntry {
                    cost: match rng.next_u64() % 4 {
                        0 => 0.0,
                        1 => rng.gen_f64() * 2.0,
                        2 => rng.gen_f64() * 40.0,
                        _ => 500.0 + rng.gen_f64() * 5000.0,
                    },
                    node: (rng.next_u64() % 32) as usize,
                };
                heap.push(e);
                bq.push(e);
            }
            // A few pops, none, half, then a full drain: every round
            // starts from what the one before it abandoned.
            for _ in 0..[7, 0, 30, 60][round % 4] {
                let h = heap.pop().expect("60 entries pushed");
                let b = bq.pop().expect("bucket queue drained early");
                assert_eq!(h.cost.to_bits(), b.cost.to_bits(), "round {round}");
                assert_eq!(h.node, b.node, "round {round}");
            }
        }
        assert!(bq.pop().is_none());
    }

    #[test]
    fn inv_quantum_is_a_power_of_two_near_target_over_mean() {
        // mean 20 → target 256/20 = 12.8 → nearest power of two 16.
        assert_eq!(inv_quantum_for_mean(20.0), 16.0);
        // A zero or non-finite mean (an all-zero graph) falls back to 1.
        assert_eq!(inv_quantum_for_mean(0.0), 1.0);
        assert_eq!(inv_quantum_for_mean(f64::INFINITY), 1.0);
        assert_eq!(inv_quantum_for_mean(f64::NAN), 1.0);
        let q = inv_quantum_for_mean(1e-30);
        assert!(q.is_finite() && q > 0.0, "exponent clamp keeps sane");
        assert_eq!(q, 2f64.powi(40), "the exponent clamps at 2^40");
    }

    #[test]
    fn quantized_multiples_share_single_cost_buckets() {
        // Weights that are exact multiples of the quantum: every bucket
        // holds one cost class, so tie-break is pure node order.
        let mut bq = BucketQueue::new();
        bq.reset(4.0); // quantum 0.25
        for (cost, node) in [(0.5, 3), (0.5, 1), (0.75, 0), (0.5, 2)] {
            bq.push(CostEntry { cost, node });
        }
        let order: Vec<usize> = std::iter::from_fn(|| bq.pop()).map(|e| e.node).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }
}
