//! Client-side memoization of provider calls.
//!
//! An [`IpCache`] is the one store an IP user's sessions memoize into:
//! decoded [`Value`] results of the protocol's pure methods, keyed by
//! provider, target object, method and marshalled arguments. A session
//! connected [`with_cache`](crate::ClientSession::with_cache) hands it to
//! its [`vcad_rmi::Client`], which consults it before marshalling
//! anything — so every stub the session gives out shares it, a repeat
//! call never reaches the wire, and the stub is told it was a hit, which
//! the simulation controller turns into a zero fee.
//!
//! [`IpCache::bump_epoch`] (called automatically after a successful
//! renegotiation, or manually on a provider version bump) lazily
//! invalidates every entry of that provider, and only that provider's.
//!
//! Which methods are safe to memoize is decided by
//! [`cacheable_method`]: the pure, deterministic read side of the
//! protocol. Session-mutating methods (`instantiate`, `release`,
//! `negotiate`) and fee-observing ones (`bill`) always cross the wire.

use std::sync::Arc;

use vcad_cache::{Cache, CacheConfig, CacheStats};
use vcad_obs::Collector;
use vcad_rmi::{RmiError, Value};

use crate::protocol::{catalog, component};

/// True for protocol methods whose result is a pure function of the
/// target object and arguments — safe to serve from a cache.
///
/// The list is an explicit allowlist: an unknown method is assumed
/// impure, so protocol extensions stay correct by default.
#[must_use]
pub fn cacheable_method(method: &str) -> bool {
    matches!(
        method,
        catalog::LIST
            | component::DESCRIBE
            | component::AREA
            | component::DELAY
            | component::POWER_CONSTANT
            | component::POWER_REGRESSION
            | component::POWER_TOGGLE
            | component::POWER_PEAK
            | component::FUNCTIONAL_EVAL
            | component::FAULT_LIST
            | component::DETECTION_TABLE
    )
}

/// The client cache for one or more provider sessions.
///
/// Cheap to clone the `Arc` of and safe to share across sessions: keys
/// are provider-scoped, so two providers never collide, and epoch bumps
/// stay per-provider.
#[derive(Debug)]
pub struct IpCache {
    config: CacheConfig,
    store: Arc<Cache<Value, RmiError>>,
}

impl IpCache {
    /// Creates the store, weighing entries by their encoded size.
    #[must_use]
    pub fn new(config: CacheConfig) -> IpCache {
        IpCache::metered(config, &Collector::disabled())
    }

    /// Meters the cache into `obs` (`cache.*`, one count per lookup).
    /// A builder step: it starts from an empty store.
    #[must_use]
    pub fn with_collector(self, obs: &Collector) -> IpCache {
        IpCache::metered(self.config, obs)
    }

    fn metered(config: CacheConfig, obs: &Collector) -> IpCache {
        let store = Cache::new(config.clone())
            .with_weigher(Value::encoded_len)
            .with_collector(obs);
        IpCache {
            config,
            store: Arc::new(store),
        }
    }

    /// The store, for a session to hand to its client.
    pub(crate) fn store(&self) -> Arc<Cache<Value, RmiError>> {
        Arc::clone(&self.store)
    }

    /// Bumps `provider`'s epoch, lazily invalidating all of its entries
    /// (and nobody else's). Returns the new epoch.
    pub fn bump_epoch(&self, provider: &str) -> u64 {
        self.store.bump_epoch(provider)
    }

    /// A snapshot of the lookup counters and resident size.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_admits_only_pure_methods() {
        for pure in [
            "list",
            "describe",
            "area",
            "delay",
            "power_constant",
            "power_regression",
            "power_toggle",
            "power_peak",
            "functional_eval",
            "fault_list",
            "detection_table",
        ] {
            assert!(cacheable_method(pure), "{pure} should be cacheable");
        }
        for impure in [
            "instantiate",
            "release",
            "negotiate",
            "bill",
            "anything_else",
        ] {
            assert!(!cacheable_method(impure), "{impure} must not be cacheable");
        }
    }

    #[test]
    fn bump_epoch_is_scoped_to_one_provider() {
        let cache = IpCache::new(CacheConfig::default());
        assert_eq!(cache.bump_epoch("p"), 1);
        assert_eq!(cache.bump_epoch("p"), 2);
        assert_eq!(cache.store().epoch("p"), 2);
        assert_eq!(cache.store().epoch("other"), 0);
    }
}
