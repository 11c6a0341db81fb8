//! Which provider calls a client may memoize.
//!
//! A [`vcad_rmi::Cache`] is the one store an IP user's sessions memoize
//! into: decoded results of the protocol's pure methods, keyed by
//! provider, target object, method and marshalled arguments. A session
//! connected [`with_cache`](crate::ClientSession::with_cache) hands it to
//! its [`vcad_rmi::Client`], which consults it before marshalling
//! anything — so every stub the session gives out shares it, a repeat
//! call never reaches the wire, and the stub is told it was a hit, which
//! the simulation controller turns into a zero fee.
//!
//! [`Cache::bump_epoch`](vcad_rmi::Cache::bump_epoch) (called
//! automatically after a successful renegotiation, or manually on a
//! provider version bump) lazily invalidates every entry of that
//! provider, and only that provider's.
//!
//! Which methods are safe to memoize is decided by
//! [`cacheable_method`], generated from the protocol declaration: the
//! methods declared `pure`, the deterministic read side of the protocol.
//! Session-mutating methods (`instantiate`, `release`, `negotiate`) and
//! fee-observing ones (`bill`) always cross the wire.

pub(crate) use crate::protocol::cacheable_method;

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
}
