//! The cached-rerun determinism gate: the two-provider design simulated
//! twice through cached sessions. The second pass must be bit-identical
//! to the first, must never reach either provider, and must be charged
//! no fees — the contract that makes the cache safe to leave on. Over a
//! faulty link the warm pass must also stay clear of the retry layer:
//! the cache is consulted before anything is marshalled, so no transport
//! decorator ever sees a hit.

use std::sync::Arc;

use vcad::core::stdlib::{CaptureState, PrimaryOutput, RandomInput};
use vcad::core::{DesignBuilder, Parameter, SetupController, SetupCriterion, SimulationController};
use vcad::ip::{ClientSession, ComponentOffering, ModelAvailability, PriceList, ProviderServer};
use vcad::netlist::generators;
use vcad::obs::Collector;
use vcad::rmi::{heavy_chaos_stack, Cache, InProcTransport, Transport};

#[test]
fn cached_rerun_is_bit_identical_and_stays_local() {
    cold_then_warm(None);
}

#[test]
fn cached_rerun_over_a_faulty_link_never_wakes_the_retry_layer() {
    let obs = Collector::enabled();
    cold_then_warm(Some((42, &obs)));
}

/// Runs the design cold, then warm. With `chaos` set, each provider link
/// runs through [`heavy_chaos_stack`] (seeded from it, metered into the
/// collector) below the cached session.
fn cold_then_warm(chaos: Option<(u64, &Collector)>) {
    let width = 8;

    // Provider 1: full models, Wallace multiplier. Provider 2: a
    // functional-only adder (every event crosses the wire).
    let p1 = ProviderServer::new("provider1.example.com");
    p1.offer(ComponentOffering::fast_low_power_multiplier());
    let p2 = ProviderServer::new("provider2.example.com");
    p2.offer(ComponentOffering::new(
        "AdderIP",
        |w| Arc::new(generators::ripple_adder(w)),
        ModelAvailability::functional_only(),
        PriceList::default(),
    ));

    // One cache shared by both sessions: keys are provider-scoped, so
    // the two providers never collide in it.
    let cache = Arc::new(Cache::new(&Collector::disabled()));
    let wire1: Arc<dyn Transport> = Arc::new(InProcTransport::new(p1.dispatcher()));
    let wire2: Arc<dyn Transport> = Arc::new(InProcTransport::new(p2.dispatcher()));
    let link = |wire: &Arc<dyn Transport>, nth: u64| match chaos {
        Some((seed, obs)) => heavy_chaos_stack(Arc::clone(wire), seed + nth, obs).0,
        None => Arc::clone(wire),
    };
    let s1 = ClientSession::connect(link(&wire1, 0), p1.host()).with_cache(Arc::clone(&cache));
    let s2 = ClientSession::connect(link(&wire2, 1), p2.host()).with_cache(Arc::clone(&cache));
    // Only the link's decorators meter into the collector: this is every
    // `rmi.chaos.*` / `rmi.retry.*` / `rmi.breaker.*` counter.
    let turbulence = || chaos.map(|(_, obs)| obs.metrics().snapshot().counters);

    let mult = s1.instantiate("MultFastLowPower", width).unwrap();
    let adder = s2.instantiate("AdderIP", 2 * width).unwrap();

    // The Figure 1 topology: (a*b) from provider-1 IP, doubled by the
    // fully remote provider-2 adder.
    let mut b = DesignBuilder::new("cached-rerun");
    let ina = b.add_module(Arc::new(RandomInput::new("INA", width, 5, 10)));
    let inb = b.add_module(Arc::new(RandomInput::new("INB", width, 6, 10)));
    let m = b.add_module(mult.functional_module("MULT").unwrap());
    let fan = b.add_module(Arc::new(vcad::core::stdlib::Fanout::uniform(
        "FAN",
        2 * width,
        2,
    )));
    let add = b.add_module(Arc::new(vcad::ip::RemoteFunctionalModule::with_ports(
        "DOUBLER",
        vec![
            vcad::core::PortSpec::input("a", 2 * width),
            vcad::core::PortSpec::input("b", 2 * width),
            vcad::core::PortSpec::output("s", 2 * width + 1),
        ],
        adder.stub().clone(),
        vec![],
    )));
    let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * width + 1)));
    b.connect(ina, "out", m, "a").unwrap();
    b.connect(inb, "out", m, "b").unwrap();
    b.connect(m, "p", fan, "in").unwrap();
    b.connect(fan, "out0", add, "a").unwrap();
    b.connect(fan, "out1", add, "b").unwrap();
    b.connect(add, "s", out, "in").unwrap();
    let design = Arc::new(b.build().unwrap());

    // Scope the power setup to the multiplier: unbound modules would get
    // null estimators whose (free, uncached) records drown the hit/miss
    // accounting this gate checks.
    let mut setup = SetupController::new();
    setup.set(Parameter::AvgPower, SetupCriterion::MostAccurate);
    let run_once = || {
        SimulationController::new(Arc::clone(&design))
            .with_setup(setup.apply_to(&design, "MULT"))
            .run()
            .unwrap()
    };

    // Pass 1 fills the cache and pays the remote-estimation fees.
    let first = run_once();
    assert!(first.estimates().cache_misses() > 0);
    let bills = (s1.bill().unwrap(), s2.bill().unwrap());
    assert!(bills.0 > 0.0, "pass 1 must be billed for fresh estimates");

    let turbulence_before = turbulence();
    if let Some(counters) = &turbulence_before {
        assert!(counters["rmi.retry.retries"] > 0, "the link was calm");
    }

    // Pass 2: same design, same seeds, warm cache — count the wire.
    let calls_before = (wire1.stats().calls, wire2.stats().calls);
    let second = run_once();
    assert_eq!(
        (wire1.stats().calls, wire2.stats().calls),
        calls_before,
        "the warm pass must never reach a provider"
    );
    assert_eq!(
        turbulence(),
        turbulence_before,
        "the warm pass must not reach the chaos or retry layers either"
    );

    // Bit-identical outputs, instant by instant.
    assert_eq!(
        first.module_state::<CaptureState>(out).unwrap(),
        second.module_state::<CaptureState>(out).unwrap(),
        "warm pass diverged from the cold pass"
    );
    assert_eq!(first.events_processed(), second.events_processed());

    // Fee accounting: every remote estimate in pass 2 was a cache hit,
    // charged nothing, and the providers' ledgers did not move. The one
    // permitted uncached record is the degraded first flush — a
    // single-pattern buffer never reaches the estimator, let alone the
    // wire, and it degrades identically in both passes.
    for r in second.estimates().records() {
        assert!(
            r.cached || r.value == vcad::core::Value::Null,
            "pass-2 record was fetched remotely: {r:?}"
        );
    }
    assert!(second.estimates().cache_hits() > 0);
    assert_eq!(second.estimates().total_fees_cents(), 0.0);
    assert_eq!((s1.bill().unwrap(), s2.bill().unwrap()), bills);
}
