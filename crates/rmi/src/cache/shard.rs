//! One LRU shard: a hash map over a slab with an intrusive recency list.
//!
//! Entries live in a slab (`Vec<Option<Entry>>`) and are threaded onto a
//! doubly-linked list by slab index — `head` is the most recently used
//! entry, `tail` the eviction candidate. All operations are O(1) except
//! construction. The shard is not synchronised; the [`Cache`](super::Cache)
//! wraps each shard in its own `Mutex`, which is the whole point of
//! sharding: concurrent calls with different keys contend only when they
//! land in the same shard.

use std::collections::HashMap;
use std::sync::Arc;

use crate::value::Value;

const NIL: usize = usize::MAX;

/// Why an entry left the shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Eviction {
    /// Displaced by newer entries under the weight bound.
    Lru,
    /// Written under a provider epoch that has since been bumped.
    Epoch,
}

pub(crate) struct Entry {
    key: u128,
    pub(crate) value: Value,
    pub(crate) weight: usize,
    pub(crate) provider: Arc<str>,
    pub(crate) epoch: u64,
    prev: usize,
    next: usize,
}

pub(crate) struct Shard {
    map: HashMap<u128, usize>,
    slots: Vec<Option<Entry>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
}

impl Shard {
    pub(crate) fn new() -> Shard {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let e = self.slots[idx].as_ref().expect("linked entry");
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("prev entry").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().expect("next entry").prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let e = self.slots[idx].as_mut().expect("entry to link");
            e.prev = NIL;
            e.next = self.head;
        }
        if self.head != NIL {
            self.slots[self.head].as_mut().expect("old head").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, refreshing its recency on a hit. Does not check
    /// the epoch — the cache validates it first via
    /// [`Shard::peek`] so stale entries can be counted correctly.
    pub(crate) fn touch(&mut self, key: u128) -> Option<&Entry> {
        let idx = *self.map.get(&key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.slots[idx].as_ref()
    }

    /// Looks up `key` without touching recency (for validity checks).
    pub(crate) fn peek(&self, key: u128) -> Option<&Entry> {
        let idx = *self.map.get(&key)?;
        self.slots[idx].as_ref()
    }

    /// Removes `key`, returning the entry's weight.
    pub(crate) fn remove(&mut self, key: u128) -> Option<usize> {
        let idx = self.map.remove(&key)?;
        self.unlink(idx);
        let entry = self.slots[idx].take().expect("mapped entry");
        self.free.push(idx);
        self.bytes -= entry.weight;
        Some(entry.weight)
    }

    /// Inserts (or replaces) `key`, evicting least-recently-used entries
    /// until the shard fits `max_bytes`. Returns the number of LRU
    /// evictions performed. An entry heavier than the whole bound is not
    /// admitted at all (admitting it would immediately evict everything
    /// *and* still exceed the bound).
    pub(crate) fn insert(
        &mut self,
        key: u128,
        value: Value,
        weight: usize,
        provider: &Arc<str>,
        epoch: u64,
        max_bytes: usize,
    ) -> usize {
        self.remove(key);
        if weight > max_bytes {
            return 0;
        }
        let mut evicted = 0;
        while self.bytes + weight > max_bytes {
            let tail = self.tail;
            debug_assert_ne!(tail, NIL, "weight accounting out of sync");
            let tail_key = self.slots[tail].as_ref().expect("tail entry").key;
            self.remove(tail_key);
            evicted += 1;
        }
        let entry = Entry {
            key,
            value,
            weight,
            provider: Arc::clone(provider),
            epoch,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(entry);
                i
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        self.bytes += weight;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider() -> Arc<str> {
        Arc::from("p")
    }

    fn put(s: &mut Shard, key: u128, weight: usize, max: usize) -> usize {
        s.insert(key, Value::I64(key as i64), weight, &provider(), 0, max)
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut s = Shard::new();
        put(&mut s, 1, 4, 10);
        put(&mut s, 2, 4, 10);
        // Touch 1 so 2 becomes the LRU.
        assert!(s.touch(1).is_some());
        let evicted = put(&mut s, 3, 4, 10);
        assert_eq!(evicted, 1);
        assert!(s.peek(1).is_some());
        assert!(s.peek(2).is_none());
        assert!(s.peek(3).is_some());
        assert_eq!(s.bytes(), 8);
    }

    #[test]
    fn replacing_a_key_updates_weight() {
        let mut s = Shard::new();
        put(&mut s, 7, 6, 10);
        put(&mut s, 7, 2, 10);
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes(), 2);
    }

    #[test]
    fn oversized_entries_are_not_admitted() {
        let mut s = Shard::new();
        put(&mut s, 1, 4, 10);
        put(&mut s, 2, 100, 10);
        assert!(s.peek(2).is_none());
        assert!(s.peek(1).is_some(), "resident entries survive a rejection");
    }

    #[test]
    fn weight_bound_holds_through_churn() {
        let mut s = Shard::new();
        for i in 0..1000u128 {
            put(&mut s, i, 3 + (i as usize % 5), 64);
            assert!(s.bytes() <= 64, "at insert {i}: {} bytes", s.bytes());
        }
        assert!(s.len() > 0);
    }

    #[test]
    fn remove_then_reinsert_reuses_slots() {
        let mut s = Shard::new();
        for i in 0..8u128 {
            put(&mut s, i, 1, 100);
        }
        for i in 0..8u128 {
            assert_eq!(s.remove(i), Some(1));
        }
        assert_eq!(s.bytes(), 0);
        assert_eq!(s.len(), 0);
        for i in 8..16u128 {
            put(&mut s, i, 1, 100);
        }
        // Slab did not grow beyond the original 8 slots.
        assert_eq!(s.slots.len(), 8);
    }
}
