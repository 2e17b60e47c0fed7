//! A slab-based LRU cache used for buffer pools.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

const NIL: usize = usize::MAX;

/// Odd multiplier of [`FoldHasher`]'s folded multiply (the 64-bit golden
/// ratio).
const FOLD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The key hasher of [`LruCache`]: every word is folded into the state with
/// a 64×64→128-bit multiply whose high half is XORed back into its low half.
///
/// A pool stripe holds only page ids ≡ k (mod stripes), so the low bits of
/// its keys are all equal; the fold carries the varying high bits down into
/// the low bits the table indexes by (and into the top bits its control
/// bytes use). One multiply per `u64` key instead of SipHash's rounds. Not
/// flood-resistant, which pool keys (page ids) do not need.
#[derive(Debug, Default, Clone, Copy)]
struct FoldHasher(u64);

impl FoldHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * u128::from(FOLD_MUL);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // Zero-pad the tail and tag its length in the free top byte, so
            // tails differing only in trailing zeros hash apart.
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            word[7] = rest.len() as u8;
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache with O(1) get/insert/evict.
///
/// Capacity is counted in entries; the storage layer sizes it so that
/// `entries × PAGE_SIZE` matches the intended buffer-pool bytes.
///
/// ```
/// use hdov_storage::LruCache;
/// let mut pool = LruCache::new(2);
/// pool.insert("a", 1);
/// pool.insert("b", 2);
/// assert_eq!(pool.get(&"a"), Some(&1));     // promotes "a"
/// assert_eq!(pool.insert("c", 3), Some(("b", 2))); // evicts the LRU entry
/// assert_eq!(pool.hit_stats(), (1, 0));
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize, BuildHasherDefault<FoldHasher>>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            map: HashMap::with_capacity_and_hasher(capacity, Default::default()),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses)` counters over all `get` calls.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.detach(idx);
                self.attach_front(idx);
                Some(&self.slab[idx].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without touching recency or hit counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.slab[idx].value)
    }

    /// Looks up `key`, counting a hit or miss but **not** promoting: the
    /// eviction order is left untouched. Speculative probes (prefetch) use
    /// this so pages they only *might* need don't displace genuinely hot
    /// recency state, while the hit/miss accounting stays comparable with
    /// [`get`](Self::get).
    pub fn probe(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key) {
            Some(&idx) => {
                self.hits += 1;
                Some(&self.slab[idx].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key -> value`, evicting the least-recently-used entry when
    /// full. Returns the evicted `(key, value)` if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            let node = &mut self.slab[victim];
            self.map.remove(&node.key);
            // Reuse the slot.
            let old_key = std::mem::replace(&mut node.key, key.clone());
            let old_val = std::mem::replace(&mut node.value, value);
            evicted = Some((old_key, old_val));
            self.map.insert(key, victim);
            self.attach_front(victim);
            return evicted;
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.slab[idx] = Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.slab.push(Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V>
    where
        V: Default,
    {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        Some(std::mem::take(&mut self.slab[idx].value))
    }

    /// Drops all entries (capacity and counters retained).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get() {
        let mut c = LruCache::new(2);
        assert!(c.insert("a", 1).is_none());
        assert!(c.insert("b", 2).is_none());
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.get(&"a"); // a is now MRU
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert!(c.peek(&"b").is_none());
        assert_eq!(c.peek(&"a"), Some(&1));
        assert_eq!(c.peek(&"c"), Some(&3));
    }

    #[test]
    fn update_existing_key_no_eviction() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert!(c.insert("a", 10).is_none());
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_and_reuse_slot() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.remove(&"a"), Some(1));
        assert_eq!(c.len(), 1);
        assert!(c.insert("c", 3).is_none());
        assert!(c.insert("d", 4).is_some()); // evicts b
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn hit_stats_track() {
        let mut c = LruCache::new(4);
        c.insert(1u32, ());
        c.get(&1);
        c.get(&2);
        c.get(&1);
        assert_eq!(c.hit_stats(), (2, 1));
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.peek(&"a");
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("a", 1))); // a stayed LRU despite peek
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&"a").is_none());
        c.insert("b", 2);
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn capacity_one_churns_correctly() {
        let mut c = LruCache::new(1);
        for i in 0..100u32 {
            c.insert(i, i * 2);
            assert_eq!(c.len(), 1);
            assert_eq!(c.peek(&i), Some(&(i * 2)));
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _: LruCache<u8, u8> = LruCache::new(0);
    }

    #[test]
    fn fold_hasher_spreads_one_residue_class() {
        // Keys ≡ 3 (mod 8), as one of eight pool stripes sees them: the
        // low three bits of the keys are constant, those of the hashes must
        // not be, and no two keys may collide.
        let hashes: Vec<u64> = (0..4096u64)
            .map(|k| {
                let mut h = FoldHasher::default();
                h.write_u64(8 * k + 3);
                h.finish()
            })
            .collect();
        let mut low = [0u32; 8];
        for &h in &hashes {
            low[(h & 7) as usize] += 1;
        }
        assert!(low.iter().all(|&n| n > 256), "low bits skewed: {low:?}");
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hashes.len());
        // Byte tails that differ only in trailing zeros hash apart.
        let hash = |b: &[u8]| {
            let mut h = FoldHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
    }

    #[test]
    fn one_stripe_residue_class_keeps_exact_semantics() {
        // Page ids ≡ 3 (mod 8), spread over the whole u64 range, against a
        // naive model: every get, every eviction and the hit counters agree.
        use std::collections::VecDeque;
        let cap = 16;
        let mut c = LruCache::new(cap);
        let mut model: VecDeque<(u64, u64)> = VecDeque::new(); // front = MRU
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed
        };
        // 48 distinct keys: small ids and ids with high bits set.
        let keys: Vec<u64> = (0..48u64)
            .map(|i| {
                let k = if i % 2 == 0 { i } else { (i << 40) | (i << 20) };
                8 * k + 3
            })
            .collect();
        for step in 0..20_000u64 {
            let r = next();
            let k = keys[((r >> 33) % keys.len() as u64) as usize];
            if r % 3 == 0 {
                let expect = match model.iter().position(|&(mk, _)| mk == k) {
                    Some(pos) => {
                        model.remove(pos);
                        None
                    }
                    None if model.len() == cap => model.pop_back(),
                    None => None,
                };
                model.push_front((k, step));
                assert_eq!(c.insert(k, step), expect);
            } else {
                let got = c.get(&k).copied();
                match model.iter().position(|&(mk, _)| mk == k) {
                    Some(pos) => {
                        hits += 1;
                        let entry = model.remove(pos).unwrap();
                        assert_eq!(got, Some(entry.1));
                        model.push_front(entry);
                    }
                    None => {
                        misses += 1;
                        assert_eq!(got, None);
                    }
                }
            }
            assert_eq!(c.len(), model.len());
        }
        assert_eq!(c.hit_stats(), (hits, misses));
        assert!(hits > 0 && misses > 0);
    }

    #[test]
    fn long_random_workload_consistent_with_map() {
        // Differential test against a naive model.
        use std::collections::VecDeque;
        let cap = 8;
        let mut c = LruCache::new(cap);
        let mut model: VecDeque<(u32, u32)> = VecDeque::new(); // front = MRU
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % 32) as u32
        };
        for step in 0..5000 {
            let k = next();
            if step % 3 == 0 {
                // insert
                if let Some(pos) = model.iter().position(|&(mk, _)| mk == k) {
                    model.remove(pos);
                } else if model.len() == cap {
                    model.pop_back();
                }
                model.push_front((k, step as u32));
                c.insert(k, step as u32);
            } else {
                // get
                let expect = model.iter().position(|&(mk, _)| mk == k);
                let got = c.get(&k).copied();
                match expect {
                    Some(pos) => {
                        let entry = model.remove(pos).unwrap();
                        assert_eq!(got, Some(entry.1));
                        model.push_front(entry);
                    }
                    None => assert_eq!(got, None),
                }
            }
            assert_eq!(c.len(), model.len());
        }
    }
}
