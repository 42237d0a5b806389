//! A deterministic hashed LRU table for million-entity state.
//!
//! The dense `LocTable`/last-owner vectors both backends carry per
//! stream stop scaling somewhere around 10^5 entities — real hosts
//! instead keep a *bounded* table hashed by flow id and evict the least
//! recently used entry when a new flow needs a slot (Jain's
//! destination-address-locality study is the canonical argument that
//! LRU over a Zipf-popular flow population keeps the hit rate high with
//! a table far smaller than the population). [`HashedLru`] is that
//! table, built for the determinism contract every scheduling structure
//! in this workspace obeys:
//!
//! * **Layout-independent behavior.** Keys are hashed with a fixed
//!   [`splitmix64`] finalizer into a power-of-two bucket array; no
//!   `std::collections` iteration order, pointer value, or allocator
//!   state ever influences a result. The same operation sequence gives
//!   the same hits, misses and evictions on every run and platform.
//! * **O(1) operations.** Entries live in a slab indexed by `u32`; the
//!   recency list is intrusive (prev/next indices in the entry), so
//!   touch/insert/evict never allocate after construction.
//! * **Counted.** Hits, misses, insertions and evictions are tallied in
//!   [`LruStats`]; the proptest battery pins `hits + misses == lookups`
//!   and `inserts == evictions + len` as table invariants.
//!
//! Reads come in two flavors: [`HashedLru::get`] promotes the entry to
//! most-recently-used (a cache access), while [`HashedLru::peek`] is a
//! pure read that leaves recency untouched (a model inspection). The
//! distinction is what lets the simulator's pricing views inspect the
//! stream-state cache without perturbing its eviction order.

/// The 64-bit finalizer from Steele et al.'s SplitMix64 — a fixed,
/// dependency-free avalanche function. Used for bucket selection and by
/// the RSS front-end hash.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Lifetime counters of one [`HashedLru`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups ([`HashedLru::get`]) that found the key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries inserted (first writes of a key).
    pub inserts: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry<V> {
    key: u64,
    value: V,
    /// Next entry in the bucket chain.
    chain: u32,
    /// Toward more recently used.
    newer: u32,
    /// Toward less recently used.
    older: u32,
}

/// A bounded, deterministically hashed LRU map from `u64` keys to
/// `Copy` values. See the module docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct HashedLru<V> {
    /// Bucket heads (slab indices), length a power of two.
    buckets: Vec<u32>,
    mask: u64,
    slab: Vec<Entry<V>>,
    /// Free slab slots (reused before the slab grows).
    free: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
    len: usize,
    /// Lifetime counters.
    pub stats: LruStats,
}

impl<V: Copy> HashedLru<V> {
    /// A table holding at most `capacity` entries (≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be at least 1");
        // Load factor ≤ 1: buckets is the capacity rounded up to a
        // power of two, so chains stay short at any fill level.
        let buckets = capacity.next_power_of_two().max(8);
        HashedLru {
            buckets: vec![NIL; buckets],
            mask: (buckets - 1) as u64,
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            len: 0,
            stats: LruStats::default(),
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (splitmix64(key) & self.mask) as usize
    }

    /// Slab index of `key`, if resident.
    #[inline]
    fn find(&self, key: u64) -> Option<u32> {
        let mut i = self.buckets[self.bucket_of(key)];
        while i != NIL {
            let e = &self.slab[i as usize];
            if e.key == key {
                return Some(i);
            }
            i = e.chain;
        }
        None
    }

    /// Unlink `i` from the recency list.
    fn unlink_recency(&mut self, i: u32) {
        let (newer, older) = {
            let e = &self.slab[i as usize];
            (e.newer, e.older)
        };
        if newer == NIL {
            self.head = older;
        } else {
            self.slab[newer as usize].older = older;
        }
        if older == NIL {
            self.tail = newer;
        } else {
            self.slab[older as usize].newer = newer;
        }
    }

    /// Push `i` to the most-recently-used end.
    fn push_front_recency(&mut self, i: u32) {
        let old_head = self.head;
        {
            let e = &mut self.slab[i as usize];
            e.newer = NIL;
            e.older = old_head;
        }
        if old_head != NIL {
            self.slab[old_head as usize].newer = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink_recency(i);
            self.push_front_recency(i);
        }
    }

    /// Unlink `i` from its bucket chain.
    fn unlink_chain(&mut self, i: u32) {
        let key = self.slab[i as usize].key;
        let b = self.bucket_of(key);
        let mut cur = self.buckets[b];
        if cur == i {
            self.buckets[b] = self.slab[i as usize].chain;
            return;
        }
        while cur != NIL {
            let next = self.slab[cur as usize].chain;
            if next == i {
                self.slab[cur as usize].chain = self.slab[i as usize].chain;
                return;
            }
            cur = next;
        }
        unreachable!("entry missing from its bucket chain");
    }

    /// Look `key` up and promote it to most recently used. Counts a hit
    /// or a miss.
    pub fn get(&mut self, key: u64) -> Option<V> {
        match self.find(key) {
            Some(i) => {
                self.stats.hits += 1;
                self.touch(i);
                Some(self.slab[i as usize].value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Pure read: neither recency order nor counters change.
    pub fn peek(&self, key: u64) -> Option<V> {
        self.find(key).map(|i| self.slab[i as usize].value)
    }

    /// Insert or update `key`, promoting it to most recently used. When
    /// the table is full and `key` is absent, the least recently used
    /// entry is evicted first; the evicted `(key, value)` is returned.
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        if let Some(i) = self.find(key) {
            self.slab[i as usize].value = value;
            self.touch(i);
            return None;
        }
        let mut evicted = None;
        if self.len == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let e = self.slab[victim as usize];
            self.unlink_recency(victim);
            self.unlink_chain(victim);
            self.free.push(victim);
            self.len -= 1;
            self.stats.evictions += 1;
            evicted = Some((e.key, e.value));
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Entry {
                    key,
                    value,
                    chain: NIL,
                    newer: NIL,
                    older: NIL,
                };
                s
            }
            None => {
                let s = self.slab.len() as u32;
                self.slab.push(Entry {
                    key,
                    value,
                    chain: NIL,
                    newer: NIL,
                    older: NIL,
                });
                s
            }
        };
        let b = self.bucket_of(key);
        self.slab[slot as usize].chain = self.buckets[b];
        self.buckets[b] = slot;
        self.push_front_recency(slot);
        self.len += 1;
        self.stats.inserts += 1;
        evicted
    }

    /// Remove `key` if resident, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        let v = self.slab[i as usize].value;
        self.unlink_recency(i);
        self.unlink_chain(i);
        self.free.push(i);
        self.len -= 1;
        Some(v)
    }

    /// Visit every resident entry's value mutably, in slab (insertion
    /// slot) order — a deterministic order independent of recency.
    /// Used for whole-table state transitions such as a processor
    /// crash invalidating every entry bound to it.
    pub fn for_each_value_mut(&mut self, mut f: impl FnMut(u64, &mut V)) {
        // Walk the recency list rather than the slab so freed slots
        // (which keep stale contents) are never visited.
        let mut i = self.head;
        while i != NIL {
            let next = self.slab[i as usize].older;
            let key = self.slab[i as usize].key;
            f(key, &mut self.slab[i as usize].value);
            i = next;
        }
    }

    /// Keys in recency order, most recent first (diagnostics/tests).
    pub fn keys_mru_first(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        let mut i = self.head;
        while i != NIL {
            out.push(self.slab[i as usize].key);
            i = self.slab[i as usize].older;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_evict_in_lru_order() {
        let mut t: HashedLru<u32> = HashedLru::new(2);
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(2, 20), None);
        assert_eq!(t.len(), 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(t.get(1), Some(10));
        assert_eq!(t.insert(3, 30), Some((2, 20)));
        assert_eq!(t.peek(2), None);
        assert_eq!(t.peek(1), Some(10));
        assert_eq!(t.peek(3), Some(30));
        assert_eq!(t.stats.evictions, 1);
        assert_eq!(t.stats.inserts, 3);
    }

    #[test]
    fn update_does_not_evict() {
        let mut t: HashedLru<u32> = HashedLru::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        assert_eq!(t.insert(1, 11), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.peek(1), Some(11));
        // 2 is now LRU.
        assert_eq!(t.keys_mru_first().last(), Some(&2));
    }

    #[test]
    fn peek_leaves_recency_untouched() {
        let mut t: HashedLru<u32> = HashedLru::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        assert_eq!(t.peek(1), Some(10));
        // 1 was NOT promoted: it is still the LRU victim.
        assert_eq!(t.insert(3, 30), Some((1, 10)));
        let s = t.stats;
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn counters_balance() {
        let mut t: HashedLru<u64> = HashedLru::new(4);
        let mut lookups = 0u64;
        for k in 0..32u64 {
            t.get(k % 7);
            lookups += 1;
            t.insert(k % 7, k);
        }
        assert_eq!(t.stats.hits + t.stats.misses, lookups);
        assert_eq!(t.stats.inserts, t.stats.evictions + t.len() as u64);
        assert!(t.len() <= 4);
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut t: HashedLru<u32> = HashedLru::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        assert_eq!(t.remove(1), Some(10));
        assert_eq!(t.len(), 1);
        assert_eq!(t.insert(3, 30), None); // no eviction needed
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(9), None);
    }

    #[test]
    fn for_each_value_mut_visits_all_live_entries() {
        let mut t: HashedLru<u32> = HashedLru::new(3);
        for k in 0..5u64 {
            t.insert(k, k as u32);
        }
        let mut seen = Vec::new();
        t.for_each_value_mut(|k, v| {
            seen.push(k);
            *v += 100;
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![2, 3, 4]);
        assert_eq!(t.peek(4), Some(104));
    }

    #[test]
    fn splitmix_is_fixed() {
        // Pin the finalizer so RSS hashing never drifts across builds.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }
}
