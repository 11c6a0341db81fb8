//! Concurrency soaks for the cache invariants the rest of the stack
//! leans on: the weight bound holds under contention, single-flight
//! really coalesces identical concurrent calls into one dispatch, and an
//! epoch bump invalidates exactly the bumped provider's entries.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use vcad_cache::{Cache, CacheConfig, CacheOutcome, Fill};

const MAX_BYTES: usize = 8 << 10;

fn weighted(config: CacheConfig) -> Cache<Vec<u8>> {
    Cache::new(config).with_weigher(Vec::len)
}

/// Writers hammer overlapping key ranges while a checker thread polls
/// the resident weight: each shard enforces its slice of the bound under
/// its own lock, so the global total must never exceed `max_bytes` at
/// any observable instant.
#[test]
fn weight_bound_holds_under_concurrent_churn() {
    let cache = Arc::new(weighted(CacheConfig {
        shards: 4,
        max_bytes: MAX_BYTES,
    }));
    let done = Arc::new(AtomicBool::new(false));

    let checker = {
        let cache = Arc::clone(&cache);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut observations = 0u64;
            while !done.load(Ordering::Relaxed) {
                let bytes = cache.bytes();
                assert!(bytes <= MAX_BYTES, "bound breached: {bytes} > {MAX_BYTES}");
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
                        let _ = cache.get(key);
                    } else {
                        cache.insert(key, "soak", vec![0u8; weight]);
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
    assert!(cache.bytes() <= MAX_BYTES);
    let stats = cache.stats();
    assert!(
        stats.evictions_lru > 0,
        "churn should have forced evictions"
    );
}

/// N concurrent identical calls must produce exactly one dispatch. The
/// leader's compute blocks until every thread has entered `get_or_join`
/// (plus a grace period for the stragglers to reach the in-flight map),
/// so the others can only coalesce on its slot or hit the stored value.
#[test]
fn single_flight_coalesces_identical_concurrent_calls() {
    const THREADS: u64 = 8;
    let cache = Arc::new(weighted(CacheConfig::default()));
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
                        Ok(Fill::Store(vec![0xAB; 8]))
                    })
                    .unwrap();
                assert_eq!(value, vec![0xAB; 8]);
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

/// Bumping a provider's epoch invalidates that provider's entries — all
/// of them, and only them — even when the entries were written from many
/// threads.
#[test]
fn epoch_bump_invalidates_exactly_the_bumped_provider() {
    const PER_PROVIDER: u128 = 64;
    let cache = Arc::new(weighted(CacheConfig {
        shards: 4,
        max_bytes: 1 << 20, // generous: no LRU interference
    }));

    let writers: Vec<_> = (0..4u128)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                for i in 0..PER_PROVIDER / 4 {
                    let k = t * (PER_PROVIDER / 4) + i;
                    cache.insert(k, "alpha", vec![1u8; 16]);
                    cache.insert(1000 + k, "beta", vec![2u8; 16]);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }

    assert_eq!(cache.bump_epoch("alpha"), 1);

    for k in 0..PER_PROVIDER {
        assert!(cache.get(k).is_none(), "alpha key {k} survived the bump");
        assert!(
            cache.get(1000 + k).is_some(),
            "beta key {k} was invalidated"
        );
    }
    assert_eq!(cache.stats().evictions_epoch, PER_PROVIDER as u64);

    // Entries written under the new epoch are immediately valid.
    cache.insert(7, "alpha", vec![3u8; 16]);
    assert_eq!(cache.get(7), Some(vec![3u8; 16]));
}
