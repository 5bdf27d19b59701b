//! The one eviction policy behind every reuse layer: a size-aware LRU.
//!
//! [`WeightedLru`] is a bounded map whose budget is a total **weight**, not
//! an entry count. The caller charges each entry on insert — qubit-units
//! for layouts and templates, payload bytes for the service's results — so
//! one giant entry cannot occupy as little budget as a trivial one.
//! Eviction is strict least-recently-used by last touch (a hit or an
//! insert), via an intrusive doubly-linked list over a dense slab: `get`,
//! `insert` and each eviction are O(1) plus hashing.
//!
//! The layers keep what differs between them: the key type, the weight
//! function, and the warning printed when an entry outweighs the whole
//! budget ([`insert`](WeightedLru::insert) reports it as [`Oversized`]).

use std::collections::HashMap;
use std::hash::Hash;

/// Counters and gauges of one cache layer (a `STATS` sub-object).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently cached.
    pub len: usize,
    /// Maximum total weight (0 = disabled), in the layer's unit.
    pub capacity: usize,
    /// Total weight of the cached entries.
    pub weight: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups the cache could not answer.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

/// An entry that outweighs the whole (nonzero) budget and was not cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oversized {
    /// The entry's weight.
    pub weight: usize,
    /// The budget it exceeds.
    pub capacity: usize,
}

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    weight: usize,
    prev: usize,
    next: usize,
}

/// Bounded LRU map from `K` to `V`, budgeted in caller-charged weight.
pub struct WeightedLru<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most-recently-used slot index.
    head: usize,
    /// Least-recently-used slot index.
    tail: usize,
    capacity: usize,
    weight: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Clone + Eq + Hash, V> WeightedLru<K, V> {
    /// Create a cache holding at most `capacity` units of weight (0
    /// disables storage).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            weight: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, marking it most recently used and counting the
    /// hit or miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let Some(&i) = self.map.get(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.unlink(i);
        self.push_front(i);
        Some(&self.slots[i].value)
    }

    /// Insert (or refresh) `key` charged `weight`, evicting
    /// least-recently-used entries until it fits. A refresh re-charges the
    /// entry and makes it most recently used. A no-op at capacity 0. An
    /// entry outweighing the whole budget is not cached — a stale entry
    /// under the same key is dropped rather than kept — and is reported so
    /// the layer can warn.
    pub fn insert(&mut self, key: K, value: V, weight: usize) -> Result<(), Oversized> {
        if self.capacity == 0 {
            return Ok(());
        }
        if let Some(&i) = self.map.get(&key) {
            self.remove_slot(i);
        }
        if weight > self.capacity {
            return Err(Oversized { weight, capacity: self.capacity });
        }
        while self.weight + weight > self.capacity {
            self.evict_lru();
        }
        let i = self.slots.len();
        self.slots.push(Slot { key: key.clone(), value, weight, prev: NIL, next: NIL });
        self.map.insert(key, i);
        self.push_front(i);
        self.weight += weight;
        Ok(())
    }

    /// Change the budget at runtime: shrinking evicts LRU-first down to the
    /// new capacity, `0` disables and clears.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if capacity == 0 {
            self.clear();
            return;
        }
        while self.weight > capacity {
            self.evict_lru();
        }
    }

    /// Drop every entry. Counters survive, and cleared entries are not
    /// counted as evictions: nothing displaced them.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.weight = 0;
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.map.len(),
            capacity: self.capacity,
            weight: self.weight,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// Every cached entry, most recently used first; the tests check this
    /// order against a naive model.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut i = self.head;
        std::iter::from_fn(move || {
            let slot = self.slots.get(i)?;
            i = slot.next;
            Some((&slot.key, &slot.value))
        })
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Remove slot `i`, keeping the slab dense: the last slot moves into
    /// the hole and its neighbours and map entry are re-pointed.
    fn remove_slot(&mut self, i: usize) {
        self.unlink(i);
        let removed = self.slots.swap_remove(i);
        self.map.remove(&removed.key);
        self.weight -= removed.weight;
        if i < self.slots.len() {
            let (prev, next) = (self.slots[i].prev, self.slots[i].next);
            if prev != NIL {
                self.slots[prev].next = i;
            } else {
                self.head = i;
            }
            if next != NIL {
                self.slots[next].prev = i;
            } else {
                self.tail = i;
            }
            *self.map.get_mut(&self.slots[i].key).expect("moved slot is mapped") = i;
        }
    }

    /// Drop the least-recently-used entry (callers guarantee non-empty).
    fn evict_lru(&mut self) {
        debug_assert_ne!(self.tail, NIL, "nonzero weight implies an entry to evict");
        self.remove_slot(self.tail);
        self.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn keys<V>(c: &WeightedLru<u64, V>) -> Vec<u64> {
        c.iter().map(|(k, _)| *k).collect()
    }

    #[test]
    fn evicts_by_weight_in_recency_order() {
        let mut c = WeightedLru::new(8);
        assert_eq!(c.get(&1), None);
        c.insert(1, 'a', 2).unwrap();
        c.insert(2, 'b', 2).unwrap();
        c.insert(3, 'c', 4).unwrap();
        assert_eq!(c.get(&1), Some(&'a')); // 1 is now MRU, 2 is LRU
        c.insert(3, 'C', 5).unwrap(); // refresh: charged 5, MRU; 2 is evicted
        assert_eq!(keys(&c), vec![3, 1]);
        let s = c.stats();
        assert_eq!((s.len, s.weight, s.hits, s.misses, s.evictions), (2, 7, 1, 1, 1));
        c.insert(4, 'd', 8).unwrap(); // a heavy entry displaces both
        assert_eq!((keys(&c), c.stats().evictions), (vec![4], 3));
    }

    #[test]
    fn oversized_entries_and_capacity_changes() {
        let mut c = WeightedLru::new(4);
        c.insert(1, 'a', 2).unwrap();
        c.insert(2, 'b', 2).unwrap();
        assert_eq!(c.insert(1, 'A', 5), Err(Oversized { weight: 5, capacity: 4 }));
        assert_eq!(keys(&c), vec![2], "a stale value must not survive");
        assert_eq!((c.stats().weight, c.stats().evictions), (2, 0), "dropping is not evicting");
        c.set_capacity(0);
        assert_eq!(c.insert(3, 'c', 9), Ok(()), "disabled is not oversized");
        assert_eq!((c.stats().len, c.stats().weight, c.stats().evictions), (0, 0, 0));
        c.set_capacity(16);
        for k in 4..8 {
            c.insert(k, 'x', 4).unwrap();
        }
        c.set_capacity(8); // shrinking keeps the two most recent
        assert_eq!((keys(&c), c.stats().evictions), (vec![7, 6], 2));
    }

    /// The reference model: `(key, value, weight)` in recency order, most
    /// recent first, evicting from the back.
    #[derive(Default)]
    struct Naive {
        entries: Vec<(u64, u64, usize)>,
        stats: CacheStats,
    }

    impl Naive {
        fn evict_down_to(&mut self, budget: usize) {
            while self.stats.weight > budget {
                self.stats.weight -= self.entries.pop().expect("weight implies an entry").2;
                self.stats.evictions += 1;
            }
        }

        fn get(&mut self, key: u64) -> Option<u64> {
            let Some(at) = self.entries.iter().position(|e| e.0 == key) else {
                self.stats.misses += 1;
                return None;
            };
            self.stats.hits += 1;
            let e = self.entries.remove(at);
            self.entries.insert(0, e);
            Some(e.1)
        }

        fn insert(&mut self, key: u64, value: u64, weight: usize) -> Result<(), Oversized> {
            let capacity = self.stats.capacity;
            if capacity == 0 {
                return Ok(());
            }
            self.entries.retain(|e| e.0 != key);
            self.stats.weight = self.entries.iter().map(|e| e.2).sum();
            if weight > capacity {
                return Err(Oversized { weight, capacity });
            }
            self.evict_down_to(capacity - weight);
            self.entries.insert(0, (key, value, weight));
            self.stats.weight += weight;
            Ok(())
        }

        fn set_capacity(&mut self, capacity: usize) {
            self.stats.capacity = capacity;
            if capacity == 0 {
                self.entries.clear();
                self.stats.weight = 0;
            }
            self.evict_down_to(capacity);
        }
    }

    #[test]
    fn matches_a_naive_recency_list_on_random_streams() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = rng.random_range(0..40usize);
            let mut lru = WeightedLru::new(capacity);
            let mut naive = Naive::default();
            naive.set_capacity(capacity);
            for step in 0..400 {
                let key = rng.random_range(0..24u64);
                let at = format!("seed {seed} step {step}");
                match rng.random_range(0..10u32) {
                    0..=4 => assert_eq!(lru.get(&key).copied(), naive.get(key), "{at}"),
                    5..=8 => {
                        let (value, weight) = (rng.random(), rng.random_range(1..16usize));
                        let got = lru.insert(key, value, weight);
                        assert_eq!(got, naive.insert(key, value, weight), "{at}");
                    }
                    _ => {
                        let capacity = rng.random_range(0..40usize);
                        lru.set_capacity(capacity);
                        naive.set_capacity(capacity);
                    }
                }
                naive.stats.len = naive.entries.len();
                assert_eq!(lru.stats(), naive.stats, "{at}");
                let order: Vec<_> = lru.iter().map(|(k, v)| (*k, *v)).collect();
                let expected: Vec<_> = naive.entries.iter().map(|e| (e.0, e.1)).collect();
                assert_eq!(order, expected, "{at}: recency order");
            }
        }
    }
}
