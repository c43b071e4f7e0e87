//! The compile server's one memo type.
//!
//! A [`Memo`] maps a key to an immutable, shared value (`Arc<V>`).
//! `titand` keeps one per layer (see [`Memos`](crate::store::Memos)): the
//! unsealed payloads of cache files, and finished replies. Both hold
//! values that are pure functions of bytes the daemon has already seen,
//! so an evicted value is only ever *recomputed* — a payload is read from
//! the backing directory again or recompiled, a reply is executed again —
//! never wrong. That is what makes a fixed byte budget with
//! least-recently-used eviction safe by construction: each value is
//! weighed once, on the way in, and the memo never holds more.
//!
//! One mutex guards the map, the recency tick and the counters; a hit
//! clones an `Arc` under it and everything else (weighing, decoding what
//! a hit hands out) happens outside.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// What a [`Memo`] has done since it was created.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct MemoCounts {
    /// Lookups answered from the map.
    pub hits: u64,
    /// Lookups that found nothing (or something `accept` turned down).
    pub misses: u64,
    /// Values dropped to make room for another.
    pub evicted: u64,
    /// The summed weight of the values resident right now.
    pub resident_bytes: u64,
}

struct Slot<V> {
    value: Arc<V>,
    /// The tick of the last hit or insert; the smallest is evicted.
    used: u64,
    /// What the value weighed when it was admitted.
    bytes: usize,
}

struct Inner<K, V> {
    map: BTreeMap<K, Slot<V>>,
    tick: u64,
    counts: MemoCounts,
}

impl<K: Ord, V> Inner<K, V> {
    fn forget<Q: Ord + ?Sized>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
    {
        let gone = self.map.remove(key).map_or(0, |slot| slot.bytes);
        self.counts.resident_bytes -= gone as u64;
    }
}

/// A keyed memo of shared values weighing at most `budget` bytes together,
/// with LRU eviction.
pub(crate) struct Memo<K, V> {
    inner: Mutex<Inner<K, V>>,
    budget: usize,
    weight: fn(&V) -> usize,
}

impl<K: Ord + Clone, V> Memo<K, V> {
    /// An empty memo that keeps at most `budget` bytes resident, as
    /// `weight` (an estimate of what a value allocates) plus a fixed
    /// per-slot charge count them.
    pub(crate) fn new(budget: usize, weight: fn(&V) -> usize) -> Memo<K, V> {
        Memo {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                tick: 0,
                counts: MemoCounts::default(),
            }),
            budget,
            weight,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        // every update below leaves the map valid at every step, so a
        // panic elsewhere while the guard was held poisons nothing
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The value under `key`, if there is one and `accept` confirms it
    /// (a key is a digest where the value is large; `accept` compares what
    /// the digest stood for, so a collision reads as a miss). `accept`
    /// runs under the memo's lock: keep it to a comparison.
    pub(crate) fn get<Q>(&self, key: &Q, accept: impl FnOnce(&V) -> bool) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        match inner.map.get_mut(key) {
            Some(slot) if accept(&slot.value) => {
                slot.used = inner.tick;
                inner.counts.hits += 1;
                Some(Arc::clone(&slot.value))
            }
            _ => {
                inner.counts.misses += 1;
                None
            }
        }
    }

    /// Admits `value` under `key` (replacing what was there) and returns
    /// the shared handle. Least recently used values make room until it
    /// fits; a value heavier than the whole budget is handed back without
    /// being admitted, and the next lookup misses.
    pub(crate) fn insert(&self, key: K, value: V) -> Arc<V> {
        // the slot charge bounds the *number* of values, however light
        let bytes = (self.weight)(&value) + size_of::<(K, Slot<V>, V)>();
        let value = Arc::new(value);
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        inner.forget(&key);
        if bytes > self.budget {
            return value;
        }
        while inner.counts.resident_bytes as usize + bytes > self.budget {
            // a scan, but only once the memo is full
            let oldest = inner.map.iter().min_by_key(|(_, slot)| slot.used);
            let victim = oldest.map(|(k, _)| k.clone()).expect("bytes are resident");
            inner.forget(&victim);
            inner.counts.evicted += 1;
        }
        inner.counts.resident_bytes += bytes as u64;
        let slot = Slot {
            value: Arc::clone(&value),
            used: inner.tick,
            bytes,
        };
        inner.map.insert(key, slot);
        value
    }

    /// Drops the value under `key`, if any (a quarantined payload must not
    /// stay resident).
    pub(crate) fn remove<Q>(&self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.lock().forget(key);
    }

    /// How many values are resident right now.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// The counters so far.
    pub(crate) fn counts(&self) -> MemoCounts {
        self.lock().counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A memo of strings weighing their length, with room for `payload`
    /// bytes of them beside the slot charges of `slots` values.
    fn memo(slots: usize, payload: usize) -> Memo<u32, String> {
        Memo::new(
            slots * size_of::<(u32, Slot<String>, String)>() + payload,
            String::len,
        )
    }

    #[test]
    fn counts_hits_misses_and_refused_values() {
        let memo = memo(8, 64);
        assert!(memo.get(&1, |_| true).is_none());
        let a = memo.insert(1, "one".to_string());
        let hit = memo.get(&1, |_| true).expect("resident");
        assert!(Arc::ptr_eq(&a, &hit), "a hit hands out the admitted value");
        // a value `accept` turns down is a miss, and stays resident
        assert!(memo.get(&1, |v| v == "two").is_none());
        assert_eq!(memo.len(), 1);
        let counts = memo.counts();
        assert_eq!((counts.hits, counts.misses), (1, 2));
        assert_eq!(counts.evicted, 0);
        memo.remove(&1);
        assert!(memo.get(&1, |_| true).is_none());
        assert_eq!((memo.len(), memo.counts().resident_bytes), (0, 0));
    }

    #[test]
    fn the_least_recently_used_values_make_room_until_the_new_one_fits() {
        let memo = memo(3, 12);
        memo.insert(1, "aaaa".to_string());
        memo.insert(2, "bbbb".to_string());
        memo.insert(3, "cccc".to_string());
        let full = memo.counts().resident_bytes;
        assert_eq!(full as usize, memo.budget);
        // touching 1 makes 2, then 3, the oldest
        assert!(memo.get(&1, |_| true).is_some());
        memo.insert(4, "dddd".to_string());
        assert!(memo.get(&2, |_| true).is_none(), "2 was evicted");
        // a heavier value takes as many victims as it needs: 3, then 1
        memo.insert(5, "eeeeeeeeeeee".to_string());
        assert!(memo.get(&3, |_| true).is_none() && memo.get(&1, |_| true).is_none());
        assert!(memo.get(&4, |_| true).is_some() && memo.get(&5, |_| true).is_some());
        assert_eq!((memo.len(), memo.counts().evicted), (2, 3));
        assert!(memo.counts().resident_bytes <= full);
        // replacing a resident key evicts nothing and re-weighs the slot
        let before = memo.counts().resident_bytes;
        memo.insert(5, "e".to_string());
        assert_eq!((memo.len(), memo.counts().evicted), (2, 3));
        assert_eq!(memo.counts().resident_bytes, before - 11);
        // a value heavier than the whole budget is handed back unadmitted,
        // evicts nothing, and still supersedes what its key held
        let big = memo.insert(5, "f".repeat(memo.budget));
        assert_eq!(big.len(), memo.budget);
        assert!(memo.get(&5, |_| true).is_none() && memo.get(&4, |_| true).is_some());
        assert_eq!((memo.len(), memo.counts().evicted), (1, 3));
    }
}
