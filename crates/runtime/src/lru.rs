//! The bounded least-recently-used map behind every serving cache: the
//! template shards and verdict points of [`crate::sharded`] and
//! `pdm-service`'s source memo.

use std::collections::HashMap;

/// A map of at most `capacity` values with least-recently-used eviction.
///
/// Values are bucketed by a 64-bit hash the caller computes and told
/// apart within a bucket by a predicate the caller passes, so a lookup
/// can compare against a borrowed key and a hit allocates nothing, while
/// keys whose hashes collide stay distinct entries. Every use stamps a
/// tick; at capacity the value with the oldest tick is evicted and
/// counted. Callers put the map behind their own lock.
#[derive(Debug)]
pub struct Lru<V> {
    capacity: usize,
    /// Hash → `(last-used tick, value)`, in insertion order per bucket.
    buckets: HashMap<u64, Vec<(u64, V)>>,
    len: usize,
    tick: u64,
    evictions: u64,
}

impl<V> Lru<V> {
    /// An empty map holding at most `capacity` values (≥ 1).
    pub fn new(capacity: usize) -> Lru<V> {
        Lru {
            capacity: capacity.max(1),
            buckets: HashMap::new(),
            len: 0,
            tick: 0,
            evictions: 0,
        }
    }

    /// The first value inserted under `hash` for which `is` holds,
    /// marked as just used.
    pub fn get(&mut self, hash: u64, mut is: impl FnMut(&V) -> bool) -> Option<&V> {
        let entry = self.buckets.get_mut(&hash)?.iter_mut().find(|e| is(&e.1))?;
        self.tick += 1;
        entry.0 = self.tick;
        Some(&entry.1)
    }

    /// Store `value` under `hash` and return the stored value. A value
    /// `v` with `same(v, &value)` is replaced in place (an update, which
    /// evicts nothing); otherwise, at capacity, the least recently used
    /// value is evicted first.
    pub fn insert(&mut self, hash: u64, value: V, same: impl Fn(&V, &V) -> bool) -> &V {
        let found = self
            .buckets
            .get(&hash)
            .and_then(|b| b.iter().position(|e| same(&e.1, &value)));
        if found.is_none() && self.len >= self.capacity {
            self.evict_oldest();
        }
        self.tick += 1;
        let bucket = self.buckets.entry(hash).or_default();
        match found {
            Some(i) => bucket[i] = (self.tick, value),
            None => {
                bucket.push((self.tick, value));
                self.len += 1;
            }
        }
        &bucket[found.unwrap_or(bucket.len() - 1)].1
    }

    /// The one eviction policy of the serving caches: drop the value
    /// with the oldest tick. An `O(len)` scan, paid only at capacity;
    /// each lock guards at most a few hundred values.
    fn evict_oldest(&mut self) {
        let (_, h, i) = self
            .buckets
            .iter()
            .flat_map(|(&h, b)| b.iter().enumerate().map(move |(i, e)| (e.0, h, i)))
            .min()
            .expect("a full map holds a value");
        let bucket = self.buckets.get_mut(&h).expect("victim bucket present");
        // `remove`, not `swap_remove`: a bucket keeps insertion order.
        bucket.remove(i);
        if bucket.is_empty() {
            self.buckets.remove(&h);
        }
        self.len -= 1;
        self.evictions += 1;
    }

    /// Maximum number of values.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Values currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Values displaced by eviction at capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Entry = (&'static str, u32);

    fn same(a: &Entry, b: &Entry) -> bool {
        a.0 == b.0
    }

    #[test]
    fn touched_values_survive_and_evictions_are_counted() {
        let mut lru = Lru::new(2);
        lru.insert(1, ("a", 1), same);
        lru.insert(2, ("b", 2), same);
        // Touch `a` so `b` is the least recently used, then overflow.
        assert!(lru.get(1, |e| e.0 == "a").is_some());
        lru.insert(3, ("c", 3), same);
        assert_eq!(lru.get(2, |e| e.0 == "b"), None, "untouched value evicted");
        assert!(
            lru.get(1, |e| e.0 == "a").is_some(),
            "touched value survives"
        );
        assert_eq!((lru.len(), lru.evictions()), (2, 1));
        // `c` is now the oldest: `b` back in evicts it, then `d` evicts `a`.
        lru.insert(2, ("b", 2), same);
        assert_eq!(lru.get(3, |e| e.0 == "c"), None);
        lru.insert(4, ("d", 4), same);
        assert_eq!(lru.get(1, |e| e.0 == "a"), None);
        assert_eq!((lru.len(), lru.evictions(), lru.capacity()), (2, 3, 2));
    }

    #[test]
    fn colliding_hashes_stay_apart_and_updates_evict_nothing() {
        let mut lru = Lru::new(2);
        assert!(lru.is_empty());
        lru.insert(7, ("x", 1), same);
        lru.insert(7, ("y", 2), same);
        // One hash, two keys: each answers only its own predicate.
        assert_eq!(lru.get(7, |e| e.0 == "x"), Some(&("x", 1)));
        assert_eq!(lru.get(7, |e| e.0 == "y"), Some(&("y", 2)));
        assert_eq!(lru.get(7, |e| e.0 == "z"), None);
        // Re-inserting a key updates its value and evicts nothing.
        assert_eq!(lru.insert(7, ("y", 3), same), &("y", 3));
        assert_eq!(lru.get(7, |e| e.0 == "y"), Some(&("y", 3)));
        assert_eq!((lru.len(), lru.evictions()), (2, 0));
        // The first value inserted answers an accept-all probe, however
        // recently the others were used.
        assert_eq!(lru.get(7, |_| true), Some(&("x", 1)));
    }
}
