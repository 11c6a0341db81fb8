//! The client cache: content-addressed memoization of remote IP calls.

mod shard;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use vcad_obs::{Collector, Counter, Gauge};

use self::shard::{Eviction, Shard};
use crate::error::RmiError;
use crate::value::Value;

/// Independently locked shards.
const SHARDS: usize = 8;
/// Global weight bound, in encoded bytes, split evenly across shards.
const MAX_BYTES: usize = 16 << 20;

/// How a [`Cache::get_or_join`] call was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
    /// Served from the cache; no wire call, no fee.
    Hit,
    /// Computed fresh (and stored, unless it failed).
    Miss,
    /// Another thread's identical in-flight call supplied the result.
    Coalesced,
}

impl CacheOutcome {
    /// True when the result came from the cache or a coalesced flight —
    /// i.e. this caller put nothing new on the wire.
    pub(crate) fn avoided_wire_call(self) -> bool {
        matches!(self, CacheOutcome::Hit | CacheOutcome::Coalesced)
    }
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
    /// Lookups that went to the wire.
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

enum FlightState {
    Pending,
    Done(Result<Value, RmiError>),
    /// The leader died before producing a result; waiters re-compete.
    Abandoned,
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// Removes the flight and marks it abandoned if the leader unwinds
/// before completing — waiters then retry instead of blocking forever.
struct FlightGuard<'a> {
    inflight: &'a Mutex<HashMap<u128, Arc<Flight>>>,
    flight: &'a Arc<Flight>,
    key: u128,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.inflight.lock().unwrap().remove(&self.key);
            *self.flight.state.lock().unwrap() = FlightState::Abandoned;
            self.flight.cv.notify_all();
        }
    }
}

/// The client cache: the store of decoded results one or more clients
/// memoize pure calls into.
///
/// The paper's evaluation turns on the cost of crossing the wire to an IP
/// provider: every remote estimate and detection-table fetch pays network
/// latency *and* provider fees, yet design-space exploration re-issues
/// the same calls with identical arguments over and over. The cache is
/// the client-side lever that makes that loop interactive; a [`Client`]
/// consults it before marshalling anything ([`Client::with_cache`]):
///
/// * **content addressing** — a key is a canonical 128-bit digest
///   ([`CanonicalHasher`]) of what the call *means* (provider, target
///   object, method, marshalled arguments), never of volatile envelope
///   fields;
/// * **sharded, weight-bounded LRU** — each decoded result weighs its
///   encoded size ([`Value::encoded_len`]); each of the 8 shards enforces
///   its slice of the 16 MiB bound with O(1) operations, and concurrent
///   callers only contend when their keys share a shard;
/// * **single-flight deduplication** — N concurrent identical calls
///   produce one wire call; the rest block on a shared slot and receive
///   the same result (a coalesced call);
/// * **epoch invalidation** — each provider has a monotonically
///   increasing epoch ([`Cache::bump_epoch`]); renegotiating an offering
///   or a provider version bump flips it, and that provider's entries
///   are invalidated *lazily* at next lookup (counted under
///   `cache.evictions.epoch`). A result is stored under the epoch read
///   before its wire call started, so a bump during the call leaves it
///   stale;
/// * **metering** — `cache.hits`, `cache.misses`,
///   `cache.evictions.{lru,epoch}`, `cache.singleflight.coalesced`
///   (counters) and `cache.bytes` (gauge) via [`vcad_obs`].
///
/// Share one `Arc<Cache>` across clients of several providers freely:
/// keys are provider-scoped, so two providers never collide, and epoch
/// bumps stay per-provider.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use vcad_obs::Collector;
/// use vcad_rmi::{
///     Cache, Client, Dispatcher, InProcTransport, ObjectRegistry, RemoteObject, RmiError,
///     ServerCtx, Value,
/// };
///
/// struct Area;
/// impl RemoteObject for Area {
///     fn invoke(&self, _method: &str, _args: &[Value], _ctx: &ServerCtx)
///         -> Result<Value, RmiError>
///     {
///         Ok(Value::I64(42))
///     }
/// }
///
/// let registry = Arc::new(ObjectRegistry::new());
/// registry.register_root(Arc::new(Area));
/// let wire = Arc::new(InProcTransport::new(Arc::new(Dispatcher::new(registry))));
/// let cache = Arc::new(Cache::new(&Collector::disabled()));
/// let client = Client::new(wire).with_cache(Arc::clone(&cache), "acme.example.com", |m| m == "area");
///
/// // The first call goes to the wire, the second is served locally…
/// let area = || client.root().invoke_with_meta("area", vec![]);
/// assert_eq!(area()?, (Value::I64(42), false));
/// assert_eq!(area()?, (Value::I64(42), true));
/// // …until renegotiation bumps the provider's epoch: the entry is stale.
/// cache.bump_epoch("acme.example.com");
/// assert_eq!(area()?, (Value::I64(42), false));
/// # Ok::<(), RmiError>(())
/// ```
///
/// [`Client`]: crate::Client
/// [`Client::with_cache`]: crate::Client::with_cache
/// [`CanonicalHasher`]: crate::hash::CanonicalHasher
pub struct Cache {
    shards: Vec<Mutex<Shard>>,
    shard_max: usize,
    epochs: RwLock<HashMap<Arc<str>, u64>>,
    inflight: Mutex<HashMap<u128, Arc<Flight>>>,
    total_bytes: AtomicUsize,
    metrics: Metrics,
}

impl Cache {
    /// An empty cache metered into `obs` (every `cache.*` metric is
    /// resolved eagerly, so they all appear in summaries even when zero;
    /// pass [`Collector::disabled`] for an unpublished store).
    #[must_use]
    pub fn new(obs: &Collector) -> Cache {
        Cache::sized(SHARDS, MAX_BYTES, obs)
    }

    fn sized(shards: usize, max_bytes: usize, obs: &Collector) -> Cache {
        Cache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_max: max_bytes / shards,
            epochs: RwLock::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            total_bytes: AtomicUsize::new(0),
            metrics: Metrics::new(obs),
        }
    }

    fn shard_for(&self, key: u128) -> &Mutex<Shard> {
        &self.shards[(key % self.shards.len() as u128) as usize]
    }

    /// The current epoch for `provider` (0 until first bumped).
    fn epoch(&self, provider: &str) -> u64 {
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
    fn lookup(&self, key: u128) -> Option<Value> {
        let mut shard = self.shard_for(key).lock().unwrap();
        let entry = shard.peek(key)?;
        if entry.epoch != self.epoch(&entry.provider) {
            let removed = shard.remove(key).unwrap_or(0);
            drop(shard);
            self.metrics.count_eviction(Eviction::Epoch, 1);
            self.sync_bytes_gauge(0, removed);
            return None;
        }
        shard.touch(key).map(|e| e.value.clone())
    }

    /// Stores `value` under `key` for `provider` as of `epoch`.
    fn insert(&self, key: u128, provider: &str, epoch: u64, value: Value) {
        let weight = value.encoded_len();
        let provider = self.provider_key(provider);
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
    /// the same key, caching its result under the epoch `provider` had
    /// when `compute` started.
    ///
    /// Concurrent identical calls coalesce: one caller (the leader) goes
    /// to the wire; the rest block until the leader finishes and then
    /// share its result — including its error, cloned, so a failed wire
    /// call is *not* multiplied. Nothing is cached on error.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (to the leader and every coalesced
    /// waiter alike).
    pub(crate) fn get_or_join(
        &self,
        key: u128,
        provider: &str,
        compute: impl FnOnce() -> Result<Value, RmiError>,
    ) -> Result<(Value, CacheOutcome), RmiError> {
        let mut compute = Some(compute);
        loop {
            if let Some(v) = self.lookup(key) {
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
                    // Leader: one wire call on behalf of everyone. A bump
                    // while it is in flight must leave its result stale.
                    let epoch = self.epoch(provider);
                    let mut guard = FlightGuard {
                        inflight: &self.inflight,
                        flight: &flight,
                        key,
                        armed: true,
                    };
                    let result = (compute.take().expect("leader computes once"))();
                    guard.armed = false;
                    drop(guard);
                    self.metrics.misses.inc();
                    if let Ok(v) = &result {
                        self.insert(key, provider, epoch, v.clone());
                    }
                    {
                        self.inflight.lock().unwrap().remove(&key);
                        *flight.state.lock().unwrap() = FlightState::Done(result.clone());
                        flight.cv.notify_all();
                    }
                    return result.map(|v| (v, CacheOutcome::Miss));
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
    fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().bytes()).sum()
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
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap().len())
                .sum::<usize>() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Barrier;
    use std::time::Duration;

    use super::*;

    fn blob(len: usize) -> Value {
        Value::Bytes(vec![0; len])
    }

    /// Two shards of 64 encoded bytes, unpublished.
    fn small() -> Cache {
        Cache::sized(2, 128, &Collector::disabled())
    }

    #[test]
    fn miss_then_hit() {
        let c = small();
        let (v, o) = c.get_or_join(1, "p", || Ok(blob(4))).unwrap();
        assert_eq!((v, o), (blob(4), CacheOutcome::Miss));
        let (v, o) = c
            .get_or_join(1, "p", || panic!("must not recompute"))
            .unwrap();
        assert_eq!((v, o), (blob(4), CacheOutcome::Hit));
        let s = c.stats();
        let weight = blob(4).encoded_len() as u64;
        assert_eq!((s.hits, s.misses, s.bytes, s.entries), (1, 1, weight, 1));
    }

    #[test]
    fn errors_are_returned_and_not_cached() {
        let c = small();
        let r = c.get_or_join(9, "p", || Err(RmiError::application("boom")));
        assert_eq!(r.unwrap_err(), RmiError::application("boom"));
        let (_, o) = c.get_or_join(9, "p", || Ok(blob(1))).unwrap();
        assert_eq!(o, CacheOutcome::Miss, "error was not cached");
    }

    #[test]
    fn weight_bound_evicts_lru() {
        // Room for two 9-byte entries, not three.
        let c = Cache::sized(1, 20, &Collector::disabled());
        c.insert(1, "p", 0, blob(4));
        c.insert(2, "p", 0, blob(4));
        assert!(c.lookup(1).is_some(), "refresh 1 so 2 is the LRU");
        c.insert(3, "p", 0, blob(4));
        assert!(c.lookup(2).is_none());
        assert!(c.lookup(1).is_some());
        assert!(c.lookup(3).is_some());
        assert_eq!(c.stats().evictions_lru, 1);
        assert!(c.bytes() <= 20);
    }

    #[test]
    fn epoch_bump_invalidates_only_that_provider() {
        let c = small();
        c.insert(1, "alpha", 0, Value::I64(1));
        c.insert(2, "beta", 0, Value::I64(2));
        assert_eq!(c.bump_epoch("alpha"), 1);
        assert!(c.lookup(1).is_none(), "alpha entry invalidated");
        assert!(c.lookup(2).is_some(), "beta entry survives");
        assert_eq!(c.stats().evictions_epoch, 1);
        // Re-inserting under the new epoch works.
        c.insert(1, "alpha", c.epoch("alpha"), Value::I64(3));
        assert_eq!(c.lookup(1), Some(Value::I64(3)));
    }

    #[test]
    fn bump_epoch_is_scoped_to_one_provider() {
        let c = small();
        assert_eq!(c.bump_epoch("p"), 1);
        assert_eq!(c.bump_epoch("p"), 2);
        assert_eq!(c.epoch("p"), 2);
        assert_eq!(c.epoch("other"), 0);
    }

    #[test]
    fn a_bump_during_the_wire_call_leaves_its_result_stale() {
        let c = small();
        let (_, o) = c
            .get_or_join(1, "p", || {
                // A renegotiation lands while this call is in flight.
                c.bump_epoch("p");
                Ok(Value::I64(1))
            })
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        let (_, o) = c.get_or_join(1, "p", || Ok(Value::I64(2))).unwrap();
        assert_eq!(o, CacheOutcome::Miss, "a pre-bump result is not fresh");
    }

    #[test]
    fn metrics_flow_into_a_collector() {
        let obs = Collector::disabled();
        let c = Cache::new(&obs);
        let _ = c.get_or_join(1, "p", || Ok(blob(8)));
        let _ = c.get_or_join(1, "p", || unreachable!());
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("cache.hits"), 1);
        assert_eq!(snap.counter("cache.misses"), 1);
        assert_eq!(
            snap.gauges["cache.bytes"].value,
            blob(8).encoded_len() as u64
        );
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
        let c = Arc::new(small());
        let computed = Arc::new(AtomicU64::new(0));
        // Leader panics mid-compute; a second caller must not deadlock.
        let leader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = c.get_or_join(1, "p", || panic!("leader dies"));
                }));
            })
        };
        leader.join().unwrap();
        let (v, _) = c
            .get_or_join(1, "p", || {
                computed.fetch_add(1, Ordering::SeqCst);
                Ok(Value::I64(1))
            })
            .unwrap();
        assert_eq!(v, Value::I64(1));
        assert_eq!(computed.load(Ordering::SeqCst), 1);
    }

    /// Writers hammer overlapping key ranges while a checker thread polls
    /// the resident weight: each shard enforces its slice of the bound
    /// under its own lock, so the global total must never exceed the
    /// bound at any observable instant.
    #[test]
    fn weight_bound_holds_under_concurrent_churn() {
        const MAX: usize = 8 << 10;
        let cache = Arc::new(Cache::sized(4, MAX, &Collector::disabled()));
        let done = Arc::new(AtomicBool::new(false));

        let checker = {
            let cache = Arc::clone(&cache);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut observations = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let bytes = cache.bytes();
                    assert!(bytes <= MAX, "bound breached: {bytes} > {MAX}");
                    observations += 1;
                    std::thread::yield_now();
                }
                observations
            })
        };

        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    // Deterministic per-thread LCG; no external RNG crates.
                    let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1);
                    for i in 0..4000u64 {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let key = u128::from(state % 512);
                        let weight = 16 + (state >> 32) as usize % 240;
                        if i % 3 == 0 {
                            let _ = cache.lookup(key);
                        } else {
                            cache.insert(key, "soak", 0, blob(weight));
                        }
                    }
                })
            })
            .collect();

        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        let observations = checker.join().unwrap();
        assert!(observations > 0, "checker never observed the cache");
        assert!(cache.bytes() <= MAX);
        assert!(
            cache.stats().evictions_lru > 0,
            "churn should have forced evictions"
        );
    }

    /// N concurrent identical calls must produce exactly one dispatch.
    /// The leader's compute blocks until every thread has entered
    /// `get_or_join` (plus a grace period for the stragglers to reach the
    /// in-flight map), so the others can only coalesce on its slot or hit
    /// the stored value.
    #[test]
    fn single_flight_coalesces_identical_concurrent_calls() {
        const THREADS: u64 = 8;
        let cache = Arc::new(Cache::new(&Collector::disabled()));
        let dispatches = Arc::new(AtomicU64::new(0));
        let entered = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(THREADS as usize));

        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let dispatches = Arc::clone(&dispatches);
                let entered = Arc::clone(&entered);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    entered.fetch_add(1, Ordering::SeqCst);
                    let (value, outcome) = cache
                        .get_or_join(42, "p", || {
                            dispatches.fetch_add(1, Ordering::SeqCst);
                            while entered.load(Ordering::SeqCst) < THREADS {
                                std::thread::yield_now();
                            }
                            std::thread::sleep(Duration::from_millis(100));
                            Ok(blob(8))
                        })
                        .unwrap();
                    assert_eq!(value, blob(8));
                    outcome
                })
            })
            .collect();

        let outcomes: Vec<CacheOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            dispatches.load(Ordering::SeqCst),
            1,
            "exactly one wire call"
        );
        let misses = outcomes
            .iter()
            .filter(|o| **o == CacheOutcome::Miss)
            .count();
        assert_eq!(misses, 1, "exactly one leader");
        assert!(
            outcomes
                .iter()
                .all(|o| *o == CacheOutcome::Miss || o.avoided_wire_call()),
            "everyone else coalesced or hit: {outcomes:?}"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, THREADS - 1);
    }

    /// Bumping a provider's epoch invalidates that provider's entries —
    /// all of them, and only them — even when the entries were written
    /// from many threads.
    #[test]
    fn epoch_bump_invalidates_exactly_the_bumped_provider() {
        const PER_PROVIDER: u128 = 64;
        // Generous: no LRU interference.
        let cache = Arc::new(Cache::sized(4, 1 << 20, &Collector::disabled()));

        let writers: Vec<_> = (0..4u128)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..PER_PROVIDER / 4 {
                        let k = t * (PER_PROVIDER / 4) + i;
                        cache.insert(k, "alpha", 0, blob(16));
                        cache.insert(1000 + k, "beta", 0, blob(16));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }

        assert_eq!(cache.bump_epoch("alpha"), 1);

        for k in 0..PER_PROVIDER {
            assert!(cache.lookup(k).is_none(), "alpha key {k} survived the bump");
            assert!(
                cache.lookup(1000 + k).is_some(),
                "beta key {k} was invalidated"
            );
        }
        assert_eq!(cache.stats().evictions_epoch, PER_PROVIDER as u64);

        // Entries written under the new epoch are immediately valid.
        cache.insert(7, "alpha", 1, Value::I64(3));
        assert_eq!(cache.lookup(7), Some(Value::I64(3)));
    }
}
