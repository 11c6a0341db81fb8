//! Cached client sessions: repeat queries stay local and fee-free, every
//! lookup is counted once, and a renegotiation invalidates exactly this
//! provider's memoized entries.

use std::sync::Arc;

use vcad_core::{EstimationInput, Parameter, PortSnapshot, SimTime};
use vcad_faults::DetectionTableSource;
use vcad_ip::{ClientSession, ComponentOffering, NegotiationRequest, ProviderServer};
use vcad_logic::LogicVec;
use vcad_obs::Collector;
use vcad_rmi::{Cache, InProcTransport, Transport};

type Rig = (
    ProviderServer,
    ClientSession,
    Arc<Cache>,
    Arc<dyn Transport>,
);

/// A cached in-process session with the wire transport kept visible so
/// tests can count actual round trips.
fn cached_rig() -> Rig {
    cached_rig_metered(&Collector::disabled())
}

/// [`cached_rig`] with the cache's `cache.*` counters published in `obs`.
fn cached_rig_metered(obs: &Collector) -> Rig {
    let server = ProviderServer::new("cached.example.com");
    server.offer(ComponentOffering::fast_low_power_multiplier());
    let wire: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.dispatcher()));
    let cache = Arc::new(Cache::new(obs));
    let session =
        ClientSession::connect(Arc::clone(&wire), server.host()).with_cache(Arc::clone(&cache));
    (server, session, cache, wire)
}

fn patterns(width: usize) -> EstimationInput {
    EstimationInput::new(
        (0..4u64)
            .map(|i| PortSnapshot {
                time: SimTime::new(i),
                ports: vec![
                    LogicVec::from_u64(width, i * 3 + 1),
                    LogicVec::from_u64(width, i * 5 + 2),
                    LogicVec::zeros(2 * width),
                ],
            })
            .collect(),
    )
}

#[test]
fn repeat_estimates_hit_the_wire_once_and_are_fee_free() {
    let (_server, session, cache, wire) = cached_rig();
    let component = session.instantiate("MultFastLowPower", 4).unwrap();
    let toggle = component
        .estimator_catalog()
        .unwrap()
        .into_iter()
        .find(|e| e.info().name == "power/gate-level-toggle")
        .unwrap();
    let input = patterns(4);
    let setup = cache.stats();

    let first = toggle.estimate_with_meta(&input).unwrap();
    assert!(!first.cached, "first call must reach the provider");
    let bill = session.bill().unwrap();
    assert!(bill > 0.0, "the provider charged for the fresh estimate");

    let before = wire.stats().calls;
    let second = toggle.estimate_with_meta(&input).unwrap();
    assert!(second.cached, "identical input must be served locally");
    assert_eq!(second.value, first.value);
    assert_eq!(
        wire.stats().calls,
        before,
        "a cache hit must not cross the wire"
    );
    assert_eq!(
        session.bill().unwrap(),
        bill,
        "a cache hit must not be billed"
    );
    // One lookup per estimate, counted once each: a miss, then a hit.
    let stats = cache.stats();
    assert_eq!(
        (stats.hits - setup.hits, stats.misses - setup.misses),
        (1, 1)
    );
}

#[test]
fn published_counters_count_each_lookup_once() {
    let obs = Collector::enabled();
    let (_server, session, cache, wire) = cached_rig_metered(&obs);
    let component = session.instantiate("MultFastLowPower", 4).unwrap();
    let source = component.detection_source();
    let input = patterns(4);
    // Nine lookups, all of allowlisted methods, none repeated: four
    // downloaded models, two billable estimates, three oracle queries.
    let pass = || {
        for estimator in component.estimator_catalog().unwrap() {
            if estimator.info().remote {
                estimator.estimate_with_meta(&input).unwrap();
            }
        }
        assert!(!source.fault_list().is_empty());
        for pattern in [0b1010_0101, 0b0101_1010] {
            source
                .detection_table(&LogicVec::from_u64(8, pattern))
                .unwrap();
        }
    };
    let published = || {
        let snapshot = obs.metrics().snapshot();
        (
            snapshot.counter("cache.hits"),
            snapshot.counter("cache.misses"),
        )
    };
    let (setup_calls, setup) = (wire.stats().calls, published());

    pass();
    let cold_calls = wire.stats().calls - setup_calls;
    assert_eq!(cold_calls, 9);
    assert_eq!(published(), (setup.0, setup.1 + cold_calls));

    pass();
    assert_eq!(wire.stats().calls - setup_calls, cold_calls, "warm pass");
    assert_eq!(published(), (setup.0 + cold_calls, setup.1 + cold_calls));

    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), published());
}

#[test]
fn detection_queries_are_memoized_per_pattern() {
    let (_server, session, _cache, wire) = cached_rig();
    let component = session.instantiate("MultFastLowPower", 2).unwrap();
    let source = component.detection_source();
    let inputs = LogicVec::from_u64(4, 0b1010);
    let faults = source.fault_list();
    assert!(!faults.is_empty());
    let table = source.detection_table(&inputs).unwrap();

    let before = wire.stats().calls;
    assert_eq!(source.fault_list(), faults);
    assert_eq!(source.detection_table(&inputs).unwrap(), table);
    assert_eq!(wire.stats().calls, before, "repeat queries stay local");

    // A different pattern is a different key: exactly one more trip.
    source
        .detection_table(&LogicVec::from_u64(4, 0b0101))
        .unwrap();
    assert_eq!(wire.stats().calls, before + 1);
}

#[test]
fn transport_layer_caches_pure_calls_but_never_bill() {
    let (_server, session, cache, wire) = cached_rig();
    let catalog = session.catalog().unwrap();
    let before = wire.stats().calls;
    assert_eq!(session.catalog().unwrap(), catalog);
    assert_eq!(wire.stats().calls, before, "`list` is pure and cacheable");
    assert!(cache.stats().hits >= 1);

    // `bill` observes server state: every query must cross the wire.
    let before = wire.stats().calls;
    session.bill().unwrap();
    session.bill().unwrap();
    assert_eq!(wire.stats().calls, before + 2);
}

#[test]
fn renegotiation_invalidates_this_providers_entries() {
    let (_server, session, _cache, _wire) = cached_rig();
    let component = session.instantiate("MultFastLowPower", 4).unwrap();
    let toggle = component
        .estimator_catalog()
        .unwrap()
        .into_iter()
        .find(|e| e.info().name == "power/gate-level-toggle")
        .unwrap();
    let input = patterns(4);
    toggle.estimate_with_meta(&input).unwrap();
    assert!(toggle.estimate_with_meta(&input).unwrap().cached);

    session
        .negotiate(
            "MultFastLowPower",
            &[NegotiationRequest {
                parameter: Parameter::AvgPower,
                max_fee_cents_per_pattern: 100.0,
                max_error_pct: 50.0,
            }],
        )
        .unwrap();

    // A successful renegotiation may have changed models and prices, so
    // the memoized estimate is suspect: the next call refetches, and
    // only then does the cache warm up again.
    let refetched = toggle.estimate_with_meta(&input).unwrap();
    assert!(!refetched.cached, "epoch bump must force a refetch");
    assert!(toggle.estimate_with_meta(&input).unwrap().cached);
}
