//! Content-addressed result cache: a strict-LRU map from request digests to
//! shared (`Arc`-backed) serialized result payloads, bounded by a byte
//! budget. Payloads are handed out as `Arc` clones, so a cache hit costs a
//! refcount bump — the response path writes the cache's own allocation to
//! the wire, never a copy.
//!
//! The budget counts **payload bytes only** and is exact: after any insert,
//! the sum of stored payload lengths never exceeds the budget, with
//! least-recently-used entries evicted first. A payload larger than the
//! whole budget is rejected outright (never stored, never evicts others).
//! Hit / miss / eviction / rejection counts are kept here and surfaced
//! through the service's `MetricsRegistry`.

use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: a BLAKE2s-256 digest of the canonicalized request.
pub type Key = [u8; 32];

/// "No slot": the `prev` of the least and the `next` of the most recently
/// used entry.
const NIL: usize = usize::MAX;

/// One stored payload and its place in the recency list.
struct Entry {
    key: Key,
    value: Arc<Vec<u8>>,
    /// The slot used next less recently, and next more recently.
    prev: usize,
    next: usize,
}

/// The LRU cache. Not thread-safe by itself; the service wraps it in a
/// mutex.
///
/// Recency is a doubly linked list threaded through a slab by slot index, so
/// a hit, a replacement, a removal and an eviction each relink O(1) slots.
/// Invariant: `slots` is dense — `map` holds exactly one slot index per
/// entry and every slot is live (a removal moves the last slot into the
/// hole) — and following `next` from `lru` visits every slot once, ending at
/// `mru`.
pub struct ResultCache {
    budget: usize,
    bytes: usize,
    slots: Vec<Entry>,
    map: HashMap<Key, usize>,
    /// Least and most recently used slots (`NIL` when empty).
    lru: usize,
    mru: usize,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts refused because the payload alone exceeds the budget.
    pub rejected: u64,
}

impl ResultCache {
    /// An empty cache holding at most `budget` payload bytes.
    pub fn new(budget: usize) -> ResultCache {
        ResultCache {
            budget,
            bytes: 0,
            slots: Vec::new(),
            map: HashMap::new(),
            lru: NIL,
            mru: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
            rejected: 0,
        }
    }

    /// Payload bytes currently stored.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is stored, without touching recency or any counter —
    /// the fleet router's fill-if-absent probe.
    pub fn contains(&self, key: &Key) -> bool {
        self.map.contains_key(key)
    }

    /// Read `key` without counting a hit or a miss and without refreshing
    /// recency — replication and rebalancing must be able to copy entries
    /// between shards without perturbing the hit/miss ledger the replay
    /// artifacts pin.
    pub fn peek(&self, key: &Key) -> Option<Arc<Vec<u8>>> {
        let slot = *self.map.get(key)?;
        Some(Arc::clone(&self.slots[slot].value))
    }

    /// All stored keys in sorted (byte-lexicographic) order — a
    /// deterministic iteration order for rebalancing scans, independent of
    /// `HashMap` layout.
    pub fn keys_sorted(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Look up `key`, refreshing its recency on a hit. The returned `Arc`
    /// shares the stored allocation — no payload bytes are copied.
    pub fn get(&mut self, key: &Key) -> Option<Arc<Vec<u8>>> {
        let Some(&slot) = self.map.get(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.unlink(slot);
        self.link_as_mru(slot);
        Some(Arc::clone(&self.slots[slot].value))
    }

    /// Insert `value` under `key` as the most recently used entry, evicting
    /// LRU entries until the byte budget holds.
    pub fn insert(&mut self, key: Key, value: impl Into<Arc<Vec<u8>>>) {
        let value = value.into();
        if value.len() > self.budget {
            self.rejected += 1;
            return;
        }
        self.bytes += value.len();
        if let Some(&slot) = self.map.get(&key) {
            self.unlink(slot);
            let old = std::mem::replace(&mut self.slots[slot].value, value);
            self.bytes -= old.len();
            self.link_as_mru(slot);
        } else {
            let slot = self.slots.len();
            self.slots.push(Entry {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, slot);
            self.link_as_mru(slot);
        }
        // The new entry alone fits, so the walk stops before reaching it.
        while self.bytes > self.budget && self.lru != NIL {
            self.take(self.lru);
            self.evictions += 1;
        }
    }

    /// Remove `key` outright — the service uses this to evict an entry whose
    /// payload turned out to be corrupt. Counts as neither a hit, a miss,
    /// nor an eviction; callers account for the corruption themselves.
    pub fn remove(&mut self, key: &Key) -> Option<Arc<Vec<u8>>> {
        let slot = *self.map.get(key)?;
        Some(self.take(slot))
    }

    /// Detach `slot` from the recency list, joining its neighbours.
    fn unlink(&mut self, slot: usize) {
        let Entry { prev, next, .. } = self.slots[slot];
        match prev {
            NIL => self.lru = next,
            _ => self.slots[prev].next = next,
        }
        match next {
            NIL => self.mru = prev,
            _ => self.slots[next].prev = prev,
        }
    }

    /// Append the detached `slot` at the most recently used end.
    fn link_as_mru(&mut self, slot: usize) {
        self.slots[slot].prev = self.mru;
        self.slots[slot].next = NIL;
        match self.mru {
            NIL => self.lru = slot,
            mru => self.slots[mru].next = slot,
        }
        self.mru = slot;
    }

    /// Drop the entry in `slot` from list, map and slab, and hand back its
    /// payload. The last slot moves into the hole, so its neighbours and its
    /// map entry are repointed.
    fn take(&mut self, slot: usize) -> Arc<Vec<u8>> {
        self.unlink(slot);
        let entry = self.slots.swap_remove(slot);
        self.map.remove(&entry.key);
        self.bytes -= entry.value.len();
        if let Some(moved) = self.slots.get(slot) {
            let (key, prev, next) = (moved.key, moved.prev, moved.next);
            self.map.insert(key, slot);
            match prev {
                NIL => self.lru = slot,
                _ => self.slots[prev].next = slot,
            }
            match next {
                NIL => self.mru = slot,
                _ => self.slots[next].prev = slot,
            }
        }
        entry.value
    }
}

/// The cache as it was before the slab, verbatim: recency in a queue of
/// keys, searched linearly on every hit, replacement and removal. The oracle
/// for the model-based test below.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::{HashMap, VecDeque};
    use std::sync::Arc;

    use super::Key;

    /// The LRU cache. Not thread-safe by itself; the service wraps it in a
    /// mutex.
    pub struct ResultCache {
        budget: usize,
        bytes: usize,
        /// Recency order, front = least recently used.
        order: VecDeque<Key>,
        map: HashMap<Key, Arc<Vec<u8>>>,
        /// Lookups that found an entry.
        pub hits: u64,
        /// Lookups that found nothing.
        pub misses: u64,
        /// Entries evicted to make room.
        pub evictions: u64,
        /// Inserts refused because the payload alone exceeds the budget.
        pub rejected: u64,
    }

    impl ResultCache {
        /// An empty cache holding at most `budget` payload bytes.
        pub fn new(budget: usize) -> ResultCache {
            ResultCache {
                budget,
                bytes: 0,
                order: VecDeque::new(),
                map: HashMap::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
                rejected: 0,
            }
        }

        /// Payload bytes currently stored.
        pub fn bytes(&self) -> usize {
            self.bytes
        }

        /// Entries currently stored.
        pub fn len(&self) -> usize {
            self.map.len()
        }

        /// Whether the cache is empty.
        pub fn is_empty(&self) -> bool {
            self.map.is_empty()
        }

        /// Whether `key` is stored, without touching recency or any counter —
        /// the fleet router's fill-if-absent probe.
        pub fn contains(&self, key: &Key) -> bool {
            self.map.contains_key(key)
        }

        /// Read `key` without counting a hit or a miss and without refreshing
        /// recency — replication and rebalancing must be able to copy entries
        /// between shards without perturbing the hit/miss ledger the replay
        /// artifacts pin.
        pub fn peek(&self, key: &Key) -> Option<Arc<Vec<u8>>> {
            self.map.get(key).map(Arc::clone)
        }

        /// All stored keys in sorted (byte-lexicographic) order — a
        /// deterministic iteration order for rebalancing scans, independent of
        /// `HashMap` layout.
        pub fn keys_sorted(&self) -> Vec<Key> {
            let mut keys: Vec<Key> = self.map.keys().copied().collect();
            keys.sort_unstable();
            keys
        }

        /// Look up `key`, refreshing its recency on a hit. The returned `Arc`
        /// shares the stored allocation — no payload bytes are copied.
        pub fn get(&mut self, key: &Key) -> Option<Arc<Vec<u8>>> {
            if self.map.contains_key(key) {
                self.hits += 1;
                self.touch(key);
                self.map.get(key).map(Arc::clone)
            } else {
                self.misses += 1;
                None
            }
        }

        /// Insert `value` under `key` as the most recently used entry, evicting
        /// LRU entries until the byte budget holds.
        pub fn insert(&mut self, key: Key, value: impl Into<Arc<Vec<u8>>>) {
            let value = value.into();
            if value.len() > self.budget {
                self.rejected += 1;
                return;
            }
            if let Some(old) = self.map.remove(&key) {
                self.bytes -= old.len();
                self.order.retain(|k| k != &key);
            }
            self.bytes += value.len();
            self.map.insert(key, value);
            self.order.push_back(key);
            while self.bytes > self.budget {
                // Over budget implies entries remain; an empty queue would mean
                // the byte ledger drifted, so stop evicting rather than spin.
                let Some(lru) = self.order.pop_front() else {
                    break;
                };
                if let Some(evicted) = self.map.remove(&lru) {
                    self.bytes -= evicted.len();
                }
                self.evictions += 1;
            }
        }

        /// Remove `key` outright — the service uses this to evict an entry whose
        /// payload turned out to be corrupt. Counts as neither a hit, a miss,
        /// nor an eviction; callers account for the corruption themselves.
        pub fn remove(&mut self, key: &Key) -> Option<Arc<Vec<u8>>> {
            let value = self.map.remove(key)?;
            self.bytes -= value.len();
            self.order.retain(|k| k != key);
            Some(value)
        }

        fn touch(&mut self, key: &Key) {
            if let Some(pos) = self.order.iter().position(|k| k == key) {
                self.order.remove(pos);
                self.order.push_back(*key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(n: u8) -> Key {
        [n; 32]
    }

    #[test]
    fn byte_budget_is_exact() {
        let mut c = ResultCache::new(100);
        c.insert(key(1), vec![0; 40]);
        c.insert(key(2), vec![0; 40]);
        assert_eq!(c.bytes(), 80);
        // 40 + 40 + 30 = 110 > 100: exactly one eviction brings it to 70.
        c.insert(key(3), vec![0; 30]);
        assert_eq!(c.bytes(), 70);
        assert_eq!(c.evictions, 1);
        assert!(c.get(&key(1)).is_none(), "oldest entry evicted");
        assert!(c.get(&key(2)).is_some());
        assert!(c.get(&key(3)).is_some());
        // A boundary-exact insert fits with zero headroom and no eviction.
        let mut exact = ResultCache::new(10);
        exact.insert(key(9), vec![0; 10]);
        assert_eq!(exact.bytes(), 10);
        assert_eq!(exact.evictions, 0);
    }

    #[test]
    fn hits_refresh_recency() {
        let mut c = ResultCache::new(100);
        c.insert(key(1), vec![0; 40]);
        c.insert(key(2), vec![0; 40]);
        assert!(c.get(&key(1)).is_some()); // 1 becomes most recent
        c.insert(key(3), vec![0; 40]); // must evict 2, not 1
        assert!(c.get(&key(2)).is_none());
        assert!(c.get(&key(1)).is_some());
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn oversized_payloads_are_rejected_not_thrashed() {
        let mut c = ResultCache::new(50);
        c.insert(key(1), vec![0; 30]);
        c.insert(key(2), vec![0; 51]);
        assert_eq!(c.rejected, 1);
        assert_eq!(c.evictions, 0, "a rejected insert must not evict");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(2)).is_none());
    }

    #[test]
    fn hits_share_the_stored_allocation() {
        let mut c = ResultCache::new(100);
        let payload = Arc::new(vec![7u8; 10]);
        c.insert(key(1), Arc::clone(&payload));
        let got = c.get(&key(1)).expect("hit");
        assert!(Arc::ptr_eq(&got, &payload), "hit must not copy the payload");
    }

    #[test]
    fn peek_and_contains_do_not_touch_counters_or_recency() {
        let mut c = ResultCache::new(80);
        c.insert(key(1), vec![0; 40]);
        c.insert(key(2), vec![0; 40]);
        assert!(c.contains(&key(1)));
        assert!(c.peek(&key(1)).is_some());
        assert!(c.peek(&key(9)).is_none());
        assert_eq!((c.hits, c.misses), (0, 0), "peek must not count");
        // Peek did not refresh key 1: it is still the LRU entry.
        c.insert(key(3), vec![0; 40]);
        assert!(!c.contains(&key(1)), "peek must not refresh recency");
        assert_eq!(c.keys_sorted(), vec![key(2), key(3)]);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c = ResultCache::new(100);
        c.insert(key(1), vec![0; 60]);
        c.insert(key(1), vec![1; 30]);
        assert_eq!(c.bytes(), 30);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key(1)).unwrap().as_slice(), &[1u8; 30][..]);
    }

    /// One step of the model-based test: an operation on key `key(k)`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Get(u8),
        Insert(u8, usize),
        Remove(u8),
        Peek(u8),
        Contains(u8),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Few keys and payloads up to just past the largest budget: most
        // inserts replace or evict, some are rejected outright.
        let k = || 0u8..12;
        prop_oneof![
            k().prop_map(Op::Get),
            k().prop_map(Op::Get),
            (k(), 0usize..70).prop_map(|(k, len)| Op::Insert(k, len)),
            (k(), 0usize..70).prop_map(|(k, len)| Op::Insert(k, len)),
            k().prop_map(Op::Remove),
            k().prop_map(Op::Peek),
            k().prop_map(Op::Contains),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The slab against the retained queue-of-keys cache over one random
        /// history: every return value, every counter, the byte ledger and
        /// the stored key set (so: who was evicted, in which order) agree
        /// after every step.
        #[test]
        fn slab_lru_matches_the_queue_reference(
            budget in 0usize..64,
            ops in prop::collection::vec(arb_op(), 0..120),
        ) {
            let mut slab = ResultCache::new(budget);
            let mut queue = reference::ResultCache::new(budget);
            for (step, op) in ops.into_iter().enumerate() {
                let what = format!("step {step}: {op:?}");
                match op {
                    Op::Get(k) => prop_assert_eq!(slab.get(&key(k)), queue.get(&key(k)), "{}", what),
                    Op::Insert(k, len) => {
                        // The step number tells a replacement from what it replaced.
                        let payload = Arc::new(vec![step as u8; len]);
                        slab.insert(key(k), Arc::clone(&payload));
                        queue.insert(key(k), payload);
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(slab.remove(&key(k)), queue.remove(&key(k)), "{}", what)
                    }
                    Op::Peek(k) => prop_assert_eq!(slab.peek(&key(k)), queue.peek(&key(k)), "{}", what),
                    Op::Contains(k) => {
                        prop_assert_eq!(slab.contains(&key(k)), queue.contains(&key(k)), "{}", what)
                    }
                }
                prop_assert_eq!(
                    (slab.hits, slab.misses, slab.evictions, slab.rejected),
                    (queue.hits, queue.misses, queue.evictions, queue.rejected),
                    "{}", what
                );
                prop_assert_eq!((slab.bytes(), slab.len()), (queue.bytes(), queue.len()), "{}", what);
                prop_assert_eq!(slab.is_empty(), queue.is_empty(), "{}", what);
                prop_assert_eq!(slab.keys_sorted(), queue.keys_sorted(), "{}", what);
                prop_assert!(slab.bytes() <= budget, "{}", what);
                // The slab's own invariant: dense, and one list over all of it.
                prop_assert_eq!(slab.slots.len(), slab.map.len(), "{}", what);
                let mut walked = 0;
                let (mut at, mut before) = (slab.lru, NIL);
                while at != NIL {
                    prop_assert_eq!(slab.slots[at].prev, before, "{}", what);
                    prop_assert_eq!(slab.map.get(&slab.slots[at].key), Some(&at), "{}", what);
                    (before, at) = (at, slab.slots[at].next);
                    walked += 1;
                }
                prop_assert_eq!((walked, before), (slab.len(), slab.mru), "{}", what);
            }
        }
    }
}
