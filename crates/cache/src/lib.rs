//! # vcad-cache — content-addressed memoization of remote IP calls
//!
//! The paper's evaluation turns on the cost of crossing the wire to an IP
//! provider: every remote estimate and detection-table fetch pays network
//! latency *and* provider fees, yet design-space exploration re-issues
//! the same calls with identical arguments over and over. This crate is
//! the client-side lever that makes that loop interactive:
//!
//! * **content addressing** — a cache key is a canonical 128-bit digest
//!   ([`hash::CanonicalHasher`]) of what the call *means* (target object,
//!   method, marshalled arguments), never of volatile envelope fields;
//! * **sharded, weight-bounded LRU** — entries carry an explicit byte
//!   weight; each shard enforces its slice of the global bound with O(1)
//!   operations, and concurrent callers only contend when their keys
//!   share a shard;
//! * **single-flight deduplication** — N concurrent identical calls
//!   produce one wire call; the rest block on a shared slot and receive
//!   the same result ([`CacheOutcome::Coalesced`]);
//! * **epoch invalidation** — each provider has a monotonically
//!   increasing epoch ([`Cache::bump_epoch`]); renegotiating an offering
//!   or a provider version bump flips it, and that provider's entries
//!   are invalidated *lazily* at next lookup (counted under
//!   `cache.evictions.epoch`);
//! * **metering** — `cache.hits`, `cache.misses`,
//!   `cache.evictions.{lru,epoch}`, `cache.singleflight.coalesced`
//!   (counters) and `cache.bytes` (gauge) via [`vcad_obs`].
//!
//! Like `vcad-obs`, the crate has zero dependencies outside the
//! workspace: plain `std` locks and atomics.
//!
//! # Examples
//!
//! ```
//! use vcad_cache::{Cache, CacheConfig, CacheOutcome, Fill};
//!
//! let cache: Cache<String> = Cache::new(CacheConfig::default());
//! let key = vcad_cache::hash::digest(b"area()");
//!
//! // First call goes to the "wire"…
//! let (v, outcome) = cache
//!     .get_or_join(key, "acme.example.com", || Ok(Fill::Store("42".into())))
//!     .unwrap();
//! assert_eq!((v.as_str(), outcome), ("42", CacheOutcome::Miss));
//!
//! // …the second is served locally.
//! let (v, outcome) = cache
//!     .get_or_join(key, "acme.example.com", || unreachable!("cached"))
//!     .unwrap();
//! assert_eq!((v.as_str(), outcome), ("42", CacheOutcome::Hit));
//!
//! // Renegotiation bumps the provider's epoch: the entry is stale now.
//! cache.bump_epoch("acme.example.com");
//! assert!(cache.get(key).is_none());
//! ```

pub mod hash;
mod shard;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use vcad_obs::{Collector, Counter, Gauge};

use crate::shard::{Eviction, Shard};

/// Sizing policy for a [`Cache`]. Entries never expire by age: they leave
/// under the weight bound or when their provider's epoch is bumped.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Number of independently locked shards (rounded up to at least 1).
    pub shards: usize,
    /// Global weight bound, in bytes, split evenly across shards.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 8,
            max_bytes: 16 << 20,
        }
    }
}

/// How a [`Cache::get_or_join`] call was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache; no wire call, no fee.
    Hit,
    /// Computed fresh and stored.
    Miss,
    /// Another thread's identical in-flight call supplied the result.
    Coalesced,
    /// Computed fresh but not storable (e.g. an application error
    /// response travelled back as a value).
    Bypass,
}

impl CacheOutcome {
    /// True when the result came from the cache or a coalesced flight —
    /// i.e. this caller put nothing new on the wire.
    #[must_use]
    pub fn avoided_wire_call(self) -> bool {
        matches!(self, CacheOutcome::Hit | CacheOutcome::Coalesced)
    }
}

/// What a [`Cache::get_or_join`] compute closure produced.
pub enum Fill<V> {
    /// Cache this value for future identical calls.
    Store(V),
    /// Return this value to the caller(s) but do not cache it.
    Bypass(V),
}

/// A point-in-time view of a cache's counters.
///
/// Counters are read in one pass but are individually relaxed atomics:
/// the struct is a monotonic view, not a linearizable cut — a snapshot
/// taken while another thread is mid-insert can lag that insert. Totals
/// only ever grow, so deltas between two snapshots are well-defined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that went to the wire (stored or bypassed).
    pub misses: u64,
    /// Calls that piggybacked on another thread's identical flight.
    pub coalesced: u64,
    /// Entries displaced by the weight bound.
    pub evictions_lru: u64,
    /// Entries invalidated by a provider epoch bump at lookup.
    pub evictions_epoch: u64,
    /// Resident weight, in bytes.
    pub bytes: u64,
    /// Resident entries.
    pub entries: u64,
}

struct Metrics {
    hits: Counter,
    misses: Counter,
    coalesced: Counter,
    ev_lru: Counter,
    ev_epoch: Counter,
    bytes: Gauge,
}

impl Metrics {
    fn new(obs: &Collector) -> Metrics {
        let m = obs.metrics();
        Metrics {
            hits: m.counter("cache.hits"),
            misses: m.counter("cache.misses"),
            coalesced: m.counter("cache.singleflight.coalesced"),
            ev_lru: m.counter("cache.evictions.lru"),
            ev_epoch: m.counter("cache.evictions.epoch"),
            bytes: m.gauge("cache.bytes"),
        }
    }

    fn count_eviction(&self, kind: Eviction, n: u64) {
        match kind {
            Eviction::Lru => self.ev_lru.add(n),
            Eviction::Epoch => self.ev_epoch.add(n),
        }
    }
}

enum FlightState<V, E> {
    Pending,
    Done(Result<V, E>),
    /// The leader died before producing a result; waiters re-compete.
    Abandoned,
}

struct Flight<V, E> {
    state: Mutex<FlightState<V, E>>,
    cv: Condvar,
}

/// Removes the flight and marks it abandoned if the leader unwinds
/// before completing — waiters then retry instead of blocking forever.
struct FlightGuard<'a, V, E> {
    inflight: &'a Mutex<HashMap<u128, Arc<Flight<V, E>>>>,
    flight: &'a Arc<Flight<V, E>>,
    key: u128,
    armed: bool,
}

impl<V, E> Drop for FlightGuard<'_, V, E> {
    fn drop(&mut self) {
        if self.armed {
            self.inflight.lock().unwrap().remove(&self.key);
            *self.flight.state.lock().unwrap() = FlightState::Abandoned;
            self.flight.cv.notify_all();
        }
    }
}

enum Lookup<V> {
    Found(V),
    Absent,
}

/// A sharded, weight-bounded, epoch-aware memoization cache with
/// single-flight deduplication. See the [crate docs](crate) for the
/// design and an example.
pub struct Cache<V, E = String> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_max: usize,
    epochs: RwLock<HashMap<Arc<str>, u64>>,
    inflight: Mutex<HashMap<u128, Arc<Flight<V, E>>>>,
    weigher: Arc<dyn Fn(&V) -> usize + Send + Sync>,
    total_bytes: AtomicUsize,
    metrics: Metrics,
}

impl<V: Clone + Send, E: Clone + Send> Cache<V, E> {
    /// Creates a cache with the default weigher (`size_of::<V>()` per
    /// entry) and no collector. Chain [`Cache::with_weigher`] /
    /// [`Cache::with_collector`] to customise.
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache<V, E> {
        let shards = config.shards.max(1);
        Cache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_max: (config.max_bytes / shards).max(1),
            epochs: RwLock::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            weigher: Arc::new(|_| std::mem::size_of::<V>()),
            total_bytes: AtomicUsize::new(0),
            metrics: Metrics::new(&Collector::disabled()),
        }
    }

    /// Meters the cache into `obs` (resolves every `cache.*` metric
    /// eagerly, so they all appear in summaries even when zero).
    #[must_use]
    pub fn with_collector(mut self, obs: &Collector) -> Cache<V, E> {
        self.metrics = Metrics::new(obs);
        self
    }

    /// Replaces the per-entry weight function (bytes per value).
    #[must_use]
    pub fn with_weigher(
        mut self,
        weigher: impl Fn(&V) -> usize + Send + Sync + 'static,
    ) -> Cache<V, E> {
        self.weigher = Arc::new(weigher);
        self
    }

    fn shard_for(&self, key: u128) -> &Mutex<Shard<V>> {
        &self.shards[(key % self.shards.len() as u128) as usize]
    }

    /// The current epoch for `provider` (0 until first bumped).
    #[must_use]
    pub fn epoch(&self, provider: &str) -> u64 {
        self.epochs
            .read()
            .unwrap()
            .get(provider)
            .copied()
            .unwrap_or(0)
    }

    /// Bumps `provider`'s epoch, lazily invalidating every entry written
    /// under earlier epochs for that provider (and only that provider).
    /// Returns the new epoch.
    pub fn bump_epoch(&self, provider: &str) -> u64 {
        let mut epochs = self.epochs.write().unwrap();
        match epochs.get_mut(provider) {
            Some(e) => {
                *e += 1;
                *e
            }
            None => {
                epochs.insert(Arc::from(provider), 1);
                1
            }
        }
    }

    fn provider_key(&self, provider: &str) -> Arc<str> {
        if let Some((k, _)) = self.epochs.read().unwrap().get_key_value(provider) {
            return Arc::clone(k);
        }
        Arc::from(provider)
    }

    fn sync_bytes_gauge(&self, delta_added: usize, delta_removed: usize) {
        let mut total = self.total_bytes.load(Ordering::Relaxed);
        loop {
            let next = total + delta_added - delta_removed.min(total + delta_added);
            match self.total_bytes.compare_exchange_weak(
                total,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.metrics.bytes.set(next as u64);
                    return;
                }
                Err(actual) => total = actual,
            }
        }
    }

    /// Validates and fetches `key`: an entry written under a since-bumped
    /// provider epoch is removed and counted before reporting absence.
    fn lookup(&self, key: u128) -> Lookup<V> {
        let mut shard = self.shard_for(key).lock().unwrap();
        let Some(entry) = shard.peek(key) else {
            return Lookup::Absent;
        };
        if entry.epoch != self.epoch(&entry.provider) {
            let removed = shard.remove(key).unwrap_or(0);
            drop(shard);
            self.metrics.count_eviction(Eviction::Epoch, 1);
            self.sync_bytes_gauge(0, removed);
            return Lookup::Absent;
        }
        let value = shard.touch(key).map(|e| e.value.clone());
        match value {
            Some(v) => Lookup::Found(v),
            None => Lookup::Absent,
        }
    }

    /// Looks up `key`, counting a hit or miss.
    #[must_use]
    pub fn get(&self, key: u128) -> Option<V> {
        match self.lookup(key) {
            Lookup::Found(v) => {
                self.metrics.hits.inc();
                Some(v)
            }
            Lookup::Absent => {
                self.metrics.misses.inc();
                None
            }
        }
    }

    /// Inserts `value` under `key` for `provider` at its current epoch.
    pub fn insert(&self, key: u128, provider: &str, value: V) {
        let weight = (self.weigher)(&value);
        let provider = self.provider_key(provider);
        let epoch = self.epoch(&provider);
        let mut shard = self.shard_for(key).lock().unwrap();
        let before = shard.bytes();
        let evicted = shard.insert(key, value, weight, &provider, epoch, self.shard_max);
        let after = shard.bytes();
        drop(shard);
        if evicted > 0 {
            self.metrics.count_eviction(Eviction::Lru, evicted as u64);
        }
        if after >= before {
            self.sync_bytes_gauge(after - before, 0);
        } else {
            self.sync_bytes_gauge(0, before - after);
        }
    }

    /// The memoization workhorse: returns the cached value for `key`, or
    /// runs `compute` exactly once across all concurrent callers with
    /// the same key, caching [`Fill::Store`] results under `provider`'s
    /// current epoch.
    ///
    /// Concurrent identical calls coalesce: one caller (the leader) goes
    /// to the wire; the rest block until the leader finishes and then
    /// share its result — including its error, cloned, so a failed wire
    /// call is *not* multiplied. Nothing is cached on error or
    /// [`Fill::Bypass`].
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (to the leader and every coalesced
    /// waiter alike).
    pub fn get_or_join(
        &self,
        key: u128,
        provider: &str,
        compute: impl FnOnce() -> Result<Fill<V>, E>,
    ) -> Result<(V, CacheOutcome), E> {
        let mut compute = Some(compute);
        loop {
            if let Lookup::Found(v) = self.lookup(key) {
                self.metrics.hits.inc();
                return Ok((v, CacheOutcome::Hit));
            }
            let flight = {
                let mut inflight = self.inflight.lock().unwrap();
                if let Some(existing) = inflight.get(&key) {
                    Err(Arc::clone(existing))
                } else {
                    let fresh = Arc::new(Flight {
                        state: Mutex::new(FlightState::Pending),
                        cv: Condvar::new(),
                    });
                    inflight.insert(key, Arc::clone(&fresh));
                    Ok(fresh)
                }
            };
            match flight {
                Ok(flight) => {
                    // Leader: one wire call on behalf of everyone.
                    let mut guard = FlightGuard {
                        inflight: &self.inflight,
                        flight: &flight,
                        key,
                        armed: true,
                    };
                    let computed = (compute.take().expect("leader computes once"))();
                    guard.armed = false;
                    drop(guard);
                    self.metrics.misses.inc();
                    let (result, outcome) = match computed {
                        Ok(Fill::Store(v)) => {
                            self.insert(key, provider, v.clone());
                            (Ok(v), CacheOutcome::Miss)
                        }
                        Ok(Fill::Bypass(v)) => (Ok(v), CacheOutcome::Bypass),
                        Err(e) => (Err(e), CacheOutcome::Miss),
                    };
                    {
                        self.inflight.lock().unwrap().remove(&key);
                        *flight.state.lock().unwrap() = FlightState::Done(result.clone());
                        flight.cv.notify_all();
                    }
                    return result.map(|v| (v, outcome));
                }
                Err(flight) => {
                    // Follower: wait for the leader's shared slot.
                    let mut state = flight.state.lock().unwrap();
                    loop {
                        match &*state {
                            FlightState::Pending => {
                                state = flight.cv.wait(state).unwrap();
                            }
                            FlightState::Done(result) => {
                                self.metrics.coalesced.inc();
                                return result.clone().map(|v| (v, CacheOutcome::Coalesced));
                            }
                            FlightState::Abandoned => break,
                        }
                    }
                    // Leader died without a result: re-compete.
                }
            }
        }
    }

    /// Resident weight across all shards, in bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().bytes()).sum()
    }

    /// Resident entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True when no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time view of the counters (see [`CacheStats`] for the
    /// consistency semantics).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.metrics.hits.get(),
            misses: self.metrics.misses.get(),
            coalesced: self.metrics.coalesced.get(),
            evictions_lru: self.metrics.ev_lru.get(),
            evictions_epoch: self.metrics.ev_epoch.get(),
            bytes: self.bytes() as u64,
            entries: self.len() as u64,
        }
    }
}

impl<V, E> std::fmt::Debug for Cache<V, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("shards", &self.shards.len())
            .field("shard_max", &self.shard_max)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache<Vec<u8>> {
        Cache::new(CacheConfig {
            shards: 2,
            max_bytes: 64,
        })
        .with_weigher(Vec::len)
    }

    #[test]
    fn miss_then_hit() {
        let c = small();
        let (v, o) = c
            .get_or_join(1, "p", || Ok(Fill::Store(vec![7u8; 4])))
            .unwrap();
        assert_eq!((v.len(), o), (4, CacheOutcome::Miss));
        let (v, o) = c
            .get_or_join(1, "p", || panic!("must not recompute"))
            .unwrap();
        assert_eq!((v.len(), o), (4, CacheOutcome::Hit));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.bytes, s.entries), (1, 1, 4, 1));
    }

    #[test]
    fn errors_are_returned_and_not_cached() {
        let c = small();
        let r = c.get_or_join(9, "p", || Err("boom".to_owned()));
        assert_eq!(r.unwrap_err(), "boom");
        let (_, o) = c.get_or_join(9, "p", || Ok(Fill::Store(vec![1]))).unwrap();
        assert_eq!(o, CacheOutcome::Miss, "error was not cached");
    }

    #[test]
    fn bypass_values_are_returned_but_not_cached() {
        let c = small();
        let (v, o) = c
            .get_or_join(5, "p", || Ok(Fill::Bypass(vec![9u8; 3])))
            .unwrap();
        assert_eq!((v.len(), o), (3, CacheOutcome::Bypass));
        assert!(c.is_empty());
        assert!(c.get(5).is_none());
    }

    #[test]
    fn weight_bound_evicts_lru() {
        let c: Cache<Vec<u8>> = Cache::new(CacheConfig {
            shards: 1,
            max_bytes: 10,
        })
        .with_weigher(Vec::len);
        c.insert(1, "p", vec![0; 4]);
        c.insert(2, "p", vec![0; 4]);
        assert!(c.get(1).is_some(), "refresh 1 so 2 is the LRU");
        c.insert(3, "p", vec![0; 4]);
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions_lru, 1);
        assert!(c.bytes() <= 10);
    }

    #[test]
    fn epoch_bump_invalidates_only_that_provider() {
        let c = small();
        c.insert(1, "alpha", vec![1]);
        c.insert(2, "beta", vec![2]);
        assert_eq!(c.bump_epoch("alpha"), 1);
        assert!(c.get(1).is_none(), "alpha entry invalidated");
        assert!(c.get(2).is_some(), "beta entry survives");
        assert_eq!(c.stats().evictions_epoch, 1);
        // Re-inserting under the new epoch works.
        c.insert(1, "alpha", vec![3]);
        assert_eq!(c.get(1), Some(vec![3]));
    }

    #[test]
    fn metrics_flow_into_a_collector() {
        let obs = Collector::disabled();
        let c: Cache<Vec<u8>> = Cache::new(CacheConfig::default())
            .with_collector(&obs)
            .with_weigher(Vec::len);
        let _ = c.get_or_join(1, "p", || Ok(Fill::Store(vec![0; 8])));
        let _ = c.get_or_join(1, "p", || unreachable!());
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("cache.hits"), 1);
        assert_eq!(snap.counter("cache.misses"), 1);
        assert_eq!(snap.gauges["cache.bytes"].value, 8);
        // Every cache.* metric is registered even when untouched.
        for name in [
            "cache.evictions.lru",
            "cache.evictions.epoch",
            "cache.singleflight.coalesced",
        ] {
            assert!(snap.counters.contains_key(name), "{name} missing");
        }
    }

    #[test]
    fn abandoned_flight_lets_waiters_recompete() {
        use std::sync::atomic::AtomicU64;
        let c = Arc::new(small());
        let computed = Arc::new(AtomicU64::new(0));
        // Leader panics mid-compute; a second caller must not deadlock.
        let leader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = c.get_or_join(1, "p", || -> Result<Fill<Vec<u8>>, String> {
                        panic!("leader dies")
                    });
                }));
            })
        };
        leader.join().unwrap();
        let (v, _) = c
            .get_or_join(1, "p", || {
                computed.fetch_add(1, Ordering::SeqCst);
                Ok(Fill::Store(vec![1]))
            })
            .unwrap();
        assert_eq!(v, vec![1]);
        assert_eq!(computed.load(Ordering::SeqCst), 1);
    }
}
