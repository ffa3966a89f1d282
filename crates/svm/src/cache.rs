//! Slot cache for kernel rows.
//!
//! SMO revisits the same working-set indices many times (points near the
//! margin get selected repeatedly), so caching whole kernel rows — the
//! technique Joachims introduced for SVMlight and LIBSVM adopted — removes
//! a large fraction of the SMSV work. The cache is bounded by a byte budget
//! and evicts least-recently-used rows.
//!
//! Rows live in *slots*: a dense `index → slot` table finds a row in one
//! load, an intrusive doubly-linked list through the slots keeps the LRU
//! order in O(1), and the slots' buffers are allocated only as rows are
//! first fetched and recycled on eviction. A miss [`claim`]s a slot and the
//! caller computes the row *into* it; a hit hands the slot out, and
//! [`row`] reads it by reference — no row is ever copied or cloned.
//!
//! [`claim`]: KernelCache::claim
//! [`row`]: KernelCache::row

use dls_sparse::Scalar;

/// Byte budget `SmoParams::default()` and ε-SVR give the cache.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// "No slot" in the index table and the list links.
const NONE: u32 = u32::MAX;

/// Handle to one row buffer of a [`KernelCache`].
///
/// A slot holds its row for as long as the row is resident. A
/// [`KernelCache::claim`] into a full cache evicts the least recently used
/// row and recycles that row's buffer in place, so the row fetched last is
/// never the one a claim takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

#[derive(Debug)]
struct Entry {
    row: Vec<Scalar>,
    /// The sample index whose row this is.
    index: usize,
    /// Neighbour towards the most recently used end.
    prev: u32,
    /// Neighbour towards the least recently used end.
    next: u32,
}

/// A bounded LRU cache mapping sample index → kernel row.
#[derive(Debug)]
pub struct KernelCache {
    /// Maximum number of resident rows (derived from the byte budget).
    capacity: usize,
    /// `slot_of[index]` is the slot holding that row, or [`NONE`].
    slot_of: Vec<u32>,
    /// One per resident row: grown on demand to `capacity`, then recycled.
    entries: Vec<Entry>,
    /// Most recently used resident slot.
    head: u32,
    /// Least recently used resident slot.
    tail: u32,
    hits: u64,
    misses: u64,
}

impl KernelCache {
    /// Creates a cache for the `n × n` kernel matrix that holds at most
    /// `budget_bytes` worth of rows, clamped to `[2, n]`: SMO needs the
    /// `high` and `low` rows of the current iteration simultaneously, and
    /// there are only `n` rows to hold.
    pub fn with_budget(budget_bytes: usize, n: usize) -> Self {
        assert!(n < NONE as usize, "slot ids are u32");
        let row_bytes = (n * std::mem::size_of::<Scalar>()).max(1);
        Self {
            capacity: (budget_bytes / row_bytes).clamp(2, n.max(2)),
            slot_of: vec![NONE; n],
            entries: Vec::new(),
            head: NONE,
            tail: NONE,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of rows the cache can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rows currently resident.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no rows are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cache hits so far.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The slot of row `index` if resident, counting a hit (and making the
    /// row the most recently used) or a miss. After a miss the caller
    /// [`claim`](KernelCache::claim)s a slot and fills it.
    #[inline]
    pub fn lookup(&mut self, index: usize) -> Option<Slot> {
        let slot = self.slot_of[index];
        if slot == NONE {
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        self.touch(slot);
        Some(Slot(slot))
    }

    /// True when `index` is resident. Does not count toward hit/miss
    /// statistics and does not refresh recency.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.slot_of[index] != NONE
    }

    /// Makes row `index` — not resident, i.e. just missed — resident and
    /// most recently used, and returns its slot for the caller to fill
    /// through [`row_mut`](KernelCache::row_mut): the buffer holds `n` stale
    /// values until then. A full cache gives the least recently used row's
    /// buffer to `index`.
    pub fn claim(&mut self, index: usize) -> Slot {
        debug_assert!(!self.contains(index), "row {index} is resident: look it up");
        let slot = if self.entries.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.slot_of[self.entries[victim as usize].index] = NONE;
            victim
        } else {
            let n = self.slot_of.len();
            self.entries.push(Entry { row: vec![0.0; n], index, prev: NONE, next: NONE });
            (self.entries.len() - 1) as u32
        };
        self.entries[slot as usize].index = index;
        self.slot_of[index] = slot;
        self.push_front(slot);
        Slot(slot)
    }

    /// The row in `slot`.
    #[inline]
    pub fn row(&self, slot: Slot) -> &[Scalar] {
        &self.entries[slot.0 as usize].row
    }

    /// The row buffer of a slot just claimed, to compute the row into.
    #[inline]
    pub fn row_mut(&mut self, slot: Slot) -> &mut [Scalar] {
        &mut self.entries[slot.0 as usize].row
    }

    #[inline]
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Entry { prev, next, .. } = self.entries[slot as usize];
        match prev {
            NONE => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NONE => self.tail = prev,
            x => self.entries[x as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old = std::mem::replace(&mut self.head, slot);
        let e = &mut self.entries[slot as usize];
        e.prev = NONE;
        e.next = old;
        match old {
            NONE => self.tail = slot,
            o => self.entries[o as usize].prev = slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fetches `index` the way SMO does: a hit hands the slot out, a miss
    /// claims one and fills it with `index + 0.5` as a recognisable value.
    fn fetch(c: &mut KernelCache, index: usize) -> Slot {
        c.lookup(index).unwrap_or_else(|| {
            let slot = c.claim(index);
            c.row_mut(slot).fill(index as Scalar + 0.5);
            slot
        })
    }

    /// Resident indices, most recently used first.
    fn recency(c: &KernelCache) -> Vec<usize> {
        let mut order = Vec::new();
        let mut slot = c.head;
        while slot != NONE {
            order.push(c.entries[slot as usize].index);
            slot = c.entries[slot as usize].next;
        }
        order
    }

    #[test]
    fn hit_hands_out_the_row_the_miss_computed() {
        let mut c = KernelCache::with_budget(1024, 4);
        let first = fetch(&mut c, 3);
        assert_eq!(c.row(first), &[3.5; 4]);
        assert_eq!((c.hits(), c.misses()), (0, 1));
        let again = fetch(&mut c, 3);
        assert_eq!(again, first, "a hit returns the same slot, not a copy");
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_in_least_recently_used_order() {
        // 4 rows of 8 f64s in a 3-row budget.
        let mut c = KernelCache::with_budget(3 * 8 * 8, 8);
        assert_eq!(c.capacity(), 3);
        for i in [0, 1, 2] {
            fetch(&mut c, i);
        }
        assert_eq!(recency(&c), [2, 1, 0]);
        // A hit on 0 makes 1 the LRU row; 3 evicts it, then 4 evicts 2.
        fetch(&mut c, 0);
        assert_eq!(recency(&c), [0, 2, 1]);
        fetch(&mut c, 3);
        assert_eq!(recency(&c), [3, 0, 2]);
        assert!(!c.contains(1));
        fetch(&mut c, 4);
        assert_eq!(recency(&c), [4, 3, 0]);
        assert!(!c.contains(2));
        assert_eq!(c.len(), 3);
        // The evicted rows miss again.
        let misses = c.misses();
        assert!(c.lookup(1).is_none() && c.lookup(2).is_none());
        assert_eq!(c.misses(), misses + 2);
    }

    #[test]
    fn contains_leaves_recency_and_counters_alone() {
        let mut c = KernelCache::with_budget(2 * 4 * 8, 4);
        fetch(&mut c, 0);
        fetch(&mut c, 1);
        let counters = (c.hits(), c.misses());
        assert!(c.contains(0) && c.contains(1) && !c.contains(2));
        assert_eq!((c.hits(), c.misses()), counters);
        // 0 is still the LRU row: had contains(0) refreshed it, 1 would go.
        fetch(&mut c, 2);
        assert!(!c.contains(0) && c.contains(1));
    }

    #[test]
    fn capacity_is_clamped_to_two_and_n() {
        assert_eq!(KernelCache::with_budget(0, 1_000_000).capacity(), 2);
        assert_eq!(KernelCache::with_budget(usize::MAX, 10).capacity(), 10);
        assert_eq!(KernelCache::with_budget(DEFAULT_CACHE_BYTES, 1024).capacity(), 1024);
        assert_eq!(KernelCache::with_budget(DEFAULT_CACHE_BYTES, 1 << 20).capacity(), 8);
        // ε-SVR on a single sample still gets its two rows.
        assert_eq!(KernelCache::with_budget(DEFAULT_CACHE_BYTES, 1).capacity(), 2);
    }

    #[test]
    fn buffers_grow_lazily_and_are_recycled_on_eviction() {
        let mut c = KernelCache::with_budget(2 * 16 * 8, 16);
        assert_eq!(c.entries.len(), 0, "no buffer before the first fetch");
        fetch(&mut c, 5);
        assert_eq!(c.entries.len(), 1);
        fetch(&mut c, 5);
        assert_eq!(c.entries.len(), 1, "a hit allocates nothing");
        // Cycling every row through a 2-row cache settles on capacity
        // buffers and reuses them from then on.
        for round in 0..3 {
            for i in 0..16 {
                fetch(&mut c, i);
                assert!(c.entries.len() <= 2, "round {round}: row {i} grew the cache");
            }
        }
        assert_eq!(c.len(), 2);
    }

    /// SMO fetches `high`, then `low`, and reads both: in the tightest cache
    /// it runs with (two rows), claiming `low` must evict the other row.
    #[test]
    fn claiming_a_second_row_never_evicts_the_most_recent_one() {
        let mut c = KernelCache::with_budget(0, 4);
        assert_eq!(c.capacity(), 2);
        for (high, low) in [(0, 1), (2, 3), (3, 0), (1, 2), (1, 3)] {
            let h = fetch(&mut c, high);
            let l = fetch(&mut c, low);
            assert!(c.contains(high) && c.contains(low), "({high}, {low})");
            assert_eq!(c.row(h), &[high as Scalar + 0.5; 4], "({high}, {low})");
            assert_eq!(c.row(l), &[low as Scalar + 0.5; 4], "({high}, {low})");
        }
    }
}
