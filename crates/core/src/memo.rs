//! The compile server's one memo type.
//!
//! A [`Memo`] maps a key to an immutable, shared value (`Arc<V>`) that
//! was checked once, when it entered. `titand` keeps three of them (see
//! [`Memos`](crate::store::Memos)): front-end results per file content,
//! typed cache entries, decoded session manifests. All three hold values
//! that are pure functions of bytes the daemon has already seen, so an
//! evicted value is only ever *recomputed* — the front end re-parses, an
//! entry or manifest is re-admitted from the backing directory or
//! recompiled — never wrong. That is what makes the fixed entry cap with
//! least-recently-used eviction safe by construction.
//!
//! One mutex guards the map, the recency tick and the counters; a hit
//! clones an `Arc` under it and everything else (decoding, verifying,
//! cloning the value out) happens outside.

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
    /// Values inserted.
    pub admitted: u64,
    /// Values dropped to make room for another.
    pub evicted: u64,
}

struct Slot<V> {
    value: Arc<V>,
    /// The tick of the last hit or insert; the smallest is evicted.
    used: u64,
}

struct Inner<K, V> {
    map: BTreeMap<K, Slot<V>>,
    tick: u64,
    counts: MemoCounts,
}

/// A keyed memo of at most `cap` shared values with LRU eviction.
pub(crate) struct Memo<K, V> {
    inner: Mutex<Inner<K, V>>,
    cap: usize,
}

impl<K: Ord + Clone, V> Memo<K, V> {
    /// An empty memo that holds at most `cap` values (at least one).
    pub(crate) fn new(cap: usize) -> Memo<K, V> {
        Memo {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                tick: 0,
                counts: MemoCounts::default(),
            }),
            cap: cap.max(1),
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

    /// Admits `value` under `key` (replacing what was there: two workers
    /// admitting one key computed the same value) and returns the shared
    /// handle. At the cap, the least recently used value makes room.
    pub(crate) fn insert(&self, key: K, value: V) -> Arc<V> {
        let value = Arc::new(value);
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        if inner.map.len() >= self.cap && !inner.map.contains_key(&key) {
            // a scan, but only once the memo is full
            let oldest = inner.map.iter().min_by_key(|(_, slot)| slot.used);
            if let Some(victim) = oldest.map(|(k, _)| k.clone()) {
                inner.map.remove(&victim);
                inner.counts.evicted += 1;
            }
        }
        inner.counts.admitted += 1;
        inner.map.insert(
            key,
            Slot {
                value: Arc::clone(&value),
                used: inner.tick,
            },
        );
        value
    }

    /// Drops the value under `key`, if any (a quarantined payload must not
    /// stay resident in typed form).
    pub(crate) fn remove<Q>(&self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.lock().map.remove(key);
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

    #[test]
    fn counts_hits_misses_and_refused_values() {
        let memo: Memo<String, u32> = Memo::new(8);
        assert!(memo.get("a", |_| true).is_none());
        let a = memo.insert("a".to_string(), 1);
        let hit = memo.get("a", |_| true).expect("resident");
        assert!(Arc::ptr_eq(&a, &hit), "a hit hands out the admitted value");
        // a value `accept` turns down is a miss, and stays resident
        assert!(memo.get("a", |v| *v == 2).is_none());
        assert_eq!(memo.len(), 1);
        let want = MemoCounts {
            hits: 1,
            misses: 2,
            admitted: 1,
            evicted: 0,
        };
        assert_eq!(memo.counts(), want);
        memo.remove("a");
        assert!(memo.get("a", |_| true).is_none());
        assert_eq!(memo.len(), 0);
    }

    #[test]
    fn the_least_recently_used_value_makes_room() {
        let memo: Memo<u32, &str> = Memo::new(2);
        memo.insert(1, "one");
        memo.insert(2, "two");
        // touching 1 makes 2 the oldest
        assert!(memo.get(&1, |_| true).is_some());
        memo.insert(3, "three");
        assert!(memo.get(&2, |_| true).is_none(), "2 was evicted");
        assert!(memo.get(&1, |_| true).is_some());
        assert!(memo.get(&3, |_| true).is_some());
        // replacing a resident key evicts nothing
        memo.insert(3, "drei");
        assert_eq!((memo.len(), memo.counts().evicted), (2, 1));
        assert_eq!(memo.counts().admitted, 4);
    }
}
