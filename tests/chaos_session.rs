//! Chaos soak: the two-provider Figure 1 scenario run through a
//! deterministically faulty network, asserting that the resilience layer
//! (retries + request-ID dedup + circuit breaker) makes the results
//! bit-identical to a fault-free run — and that when the network is worse
//! than the retry budget, estimation degrades gracefully instead of
//! failing the run.

use std::collections::BTreeMap;
use std::sync::Arc;

use vcad::core::stdlib::{CaptureState, Fanout, PrimaryOutput, RandomInput};
use vcad::core::{
    DesignBuilder, ModuleId, Parameter, PortSpec, SetupController, SetupCriterion, SimRun,
    SimulationController,
};
use vcad::ip::{
    ClientSession, ComponentOffering, ModelAvailability, PriceList, ProviderServer,
    RemoteFunctionalModule,
};
use vcad::netlist::generators;
use vcad::obs::Collector;
use vcad::rmi::{
    heavy_chaos_stack, FaultConfig, FaultPlan, FaultyTransport, InProcTransport, Transport,
};

const WIDTH: usize = 8;
const PATTERNS: u64 = 12;

/// Wraps an in-process transport to `server` in the shared chaos rig
/// ([`heavy_chaos_stack`], seeded by `seed`). Returns the session plus
/// the fault injector handle (so tests can swap the plan mid-run).
fn connect_chaotic(
    server: &ProviderServer,
    seed: u64,
    obs: &Collector,
) -> (ClientSession, Arc<FaultyTransport>) {
    let inproc: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.dispatcher()));
    let (resilient, faulty) = heavy_chaos_stack(inproc, seed, obs);
    (ClientSession::connect(resilient, server.host()), faulty)
}

struct Outcome {
    doubled: BTreeMap<u64, u128>,
    products: BTreeMap<u64, u128>,
    /// `(estimator, patterns, fee_cents bits, value bits)` per record.
    estimates: Vec<(String, usize, u64, u64)>,
    fees_bits: u64,
    bills_bits: (u64, u64),
    degradations: usize,
    snapshot: vcad::obs::MetricsSnapshot,
}

fn settled(run: &SimRun, m: ModuleId) -> BTreeMap<u64, u128> {
    run.module_state::<CaptureState>(m)
        .unwrap()
        .history()
        .iter()
        .filter_map(|(t, v)| v.to_word().map(|w| (t.ticks(), w.value())))
        .collect()
}

/// Builds and runs the two-provider scenario; `chaos_seed: None` is the
/// fault-free baseline every chaotic run must reproduce bit-for-bit.
fn run_scenario(chaos_seed: Option<u64>) -> Outcome {
    let obs = Collector::enabled();

    let p1 = ProviderServer::with_collector("provider1.example.com", obs.clone());
    p1.offer(ComponentOffering::fast_low_power_multiplier());
    let p2 = ProviderServer::with_collector("provider2.example.com", obs.clone());
    p2.offer(ComponentOffering::new(
        "AdderIP",
        |w| Arc::new(generators::ripple_adder(w)),
        ModelAvailability::functional_only(),
        PriceList::default(),
    ));

    let (s1, s2) = match chaos_seed {
        // Independent fault schedules per provider link, derived from
        // the one scenario seed.
        Some(seed) => (
            connect_chaotic(&p1, seed, &obs).0,
            connect_chaotic(&p2, seed.wrapping_add(1), &obs).0,
        ),
        None => (
            ClientSession::connect_in_process(&p1).unwrap(),
            ClientSession::connect_in_process(&p2).unwrap(),
        ),
    };

    let mult = s1.instantiate("MultFastLowPower", WIDTH).unwrap();
    let adder = s2.instantiate("AdderIP", 2 * WIDTH).unwrap();

    let mut b = DesignBuilder::new("chaos-two-providers");
    let ina = b.add_module(Arc::new(RandomInput::new("INA", WIDTH, 5, PATTERNS)));
    let inb = b.add_module(Arc::new(RandomInput::new("INB", WIDTH, 6, PATTERNS)));
    let m = b.add_module(mult.functional_module("MULT").unwrap());
    let fan = b.add_module(Arc::new(Fanout::uniform("FAN", 2 * WIDTH, 3)));
    let product_tap = b.add_module(Arc::new(PrimaryOutput::new("PRODUCT", 2 * WIDTH)));
    let add = b.add_module(Arc::new(RemoteFunctionalModule::with_ports(
        "DOUBLER",
        vec![
            PortSpec::input("a", 2 * WIDTH),
            PortSpec::input("b", 2 * WIDTH),
            PortSpec::output("s", 2 * WIDTH + 1),
        ],
        adder.stub().clone(),
        vec![],
    )));
    let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * WIDTH + 1)));
    b.connect(ina, "out", m, "a").unwrap();
    b.connect(inb, "out", m, "b").unwrap();
    b.connect(m, "p", fan, "in").unwrap();
    b.connect(fan, "out0", add, "a").unwrap();
    b.connect(fan, "out1", add, "b").unwrap();
    b.connect(add, "s", out, "in").unwrap();
    b.connect(fan, "out2", product_tap, "in").unwrap();
    let design = Arc::new(b.build().unwrap());

    let mut setup = SetupController::new();
    setup.set(Parameter::AvgPower, SetupCriterion::MostAccurate);
    let run = SimulationController::new(Arc::clone(&design))
        .with_setup(setup.apply(&design))
        .with_collector(obs.clone())
        .run()
        .unwrap();

    let estimates = run
        .estimates()
        .records()
        .iter()
        .map(|r| {
            let bits = match &r.value {
                vcad::rmi::Value::F64(f) => f.to_bits(),
                vcad::rmi::Value::Null => u64::MAX, // null-estimator record
                other => panic!("non-numeric estimate: {other:?}"),
            };
            (r.estimator.clone(), r.patterns, r.fee_cents.to_bits(), bits)
        })
        .collect();
    Outcome {
        doubled: settled(&run, out),
        products: settled(&run, product_tap),
        estimates,
        fees_bits: run.estimates().total_fees_cents().to_bits(),
        bills_bits: (s1.bill().unwrap().to_bits(), s2.bill().unwrap().to_bits()),
        degradations: run.estimates().degradations().len(),
        snapshot: obs.metrics().snapshot(),
    }
}

#[test]
fn chaos_soak_preserves_results_across_seeds() {
    let baseline = run_scenario(None);
    assert!(!baseline.doubled.is_empty());
    assert!(!baseline.estimates.is_empty());
    for (t, d) in &baseline.doubled {
        assert_eq!(*d, 2 * baseline.products[t], "baseline at t={t}");
    }

    let mut total_retries = 0;
    for seed in [3, 17, 0xD1CE] {
        let chaotic = run_scenario(Some(seed));
        assert_eq!(chaotic.doubled, baseline.doubled, "seed {seed}: outputs");
        assert_eq!(chaotic.products, baseline.products, "seed {seed}: products");
        assert_eq!(
            chaotic.estimates, baseline.estimates,
            "seed {seed}: estimates not bit-identical"
        );
        assert_eq!(chaotic.fees_bits, baseline.fees_bits, "seed {seed}: fees");
        assert_eq!(
            chaotic.bills_bits, baseline.bills_bits,
            "seed {seed}: bills"
        );
        assert_eq!(
            chaotic.degradations, 0,
            "seed {seed}: unexpected degradation"
        );
        assert!(
            chaotic.snapshot.counter("rmi.chaos.injected.total") > 0,
            "seed {seed}: chaos plan injected nothing"
        );
        total_retries += chaotic.snapshot.counter("rmi.retry.retries");
        assert_eq!(
            chaotic.snapshot.counter("rmi.retry.exhausted"),
            0,
            "seed {seed}: retry budget exhausted"
        );
    }
    assert!(total_retries > 0, "chaos never forced a retry");
}

#[test]
fn blackout_degrades_to_null_estimator() {
    let obs = Collector::enabled();
    let p1 = ProviderServer::with_collector("provider1.example.com", obs.clone());
    p1.offer(ComponentOffering::fast_low_power_multiplier());

    // Connect and instantiate while the retry budget still outlasts the
    // link's faults.
    let (session, faulty) = connect_chaotic(&p1, 7, &obs);
    let mult = session.instantiate("MultFastLowPower", WIDTH).unwrap();

    let mut b = DesignBuilder::new("blackout");
    let ina = b.add_module(Arc::new(RandomInput::new("INA", WIDTH, 5, PATTERNS)));
    let inb = b.add_module(Arc::new(RandomInput::new("INB", WIDTH, 6, PATTERNS)));
    let m = b.add_module(mult.functional_module("MULT").unwrap());
    let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * WIDTH)));
    b.connect(ina, "out", m, "a").unwrap();
    b.connect(inb, "out", m, "b").unwrap();
    b.connect(m, "p", out, "in").unwrap();
    let design = Arc::new(b.build().unwrap());

    // The provider vanishes: every request from here on is dropped, for
    // longer than the retry budget.
    faulty.set_plan(FaultPlan::new(7, FaultConfig::blackhole()));

    let mut setup = SetupController::new();
    setup.set(Parameter::AvgPower, SetupCriterion::MostAccurate);
    let run = SimulationController::new(Arc::clone(&design))
        .with_setup(setup.apply(&design))
        .with_collector(obs.clone())
        .run()
        .unwrap();

    // The run completed; the remote estimator was swapped for the null
    // estimator exactly once and never re-invoked.
    let degradations = run.estimates().degradations();
    assert_eq!(degradations.len(), 1, "{degradations:?}");
    assert_eq!(degradations[0].parameter, Parameter::AvgPower);
    assert!(
        degradations[0].from.contains("toggle"),
        "degraded from {:?}",
        degradations[0].from
    );
    let snap = obs.metrics().snapshot();
    assert_eq!(snap.counter("estimate.degraded"), 1);
    assert!(snap.counter("rmi.retry.exhausted") >= 1);
    // The provider stays dark: the next call's failures trip the breaker.
    assert!(session.bill().is_err());
    assert!(obs.metrics().snapshot().counter("rmi.breaker.opened") >= 1);
    // No fees for estimates that never arrived.
    assert_eq!(run.estimates().total_fees_cents(), 0.0);
    // The downloaded public part is unaffected: products stay correct.
    let products = run
        .module_state::<CaptureState>(out)
        .unwrap()
        .history()
        .iter()
        .filter_map(|(_, v)| v.to_word().map(|w| w.value()))
        .collect::<Vec<_>>();
    assert!(!products.is_empty());
    assert!(products.iter().all(|&p| p <= 255 * 255));
}

#[test]
fn fault_schedule_is_deterministic() {
    let a = run_scenario(Some(17));
    let b = run_scenario(Some(17));
    let rmi_counters = |o: &Outcome| -> BTreeMap<String, u64> {
        o.snapshot
            .counters
            .iter()
            .filter(|(k, _)| {
                k.starts_with("rmi.chaos.")
                    || k.starts_with("rmi.retry.")
                    || k.starts_with("rmi.breaker.")
                    || k.starts_with("rmi.dispatch.")
            })
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    };
    assert_eq!(rmi_counters(&a), rmi_counters(&b));
    assert_eq!(a.doubled, b.doubled);
    assert_eq!(a.estimates, b.estimates);
    assert_eq!(a.bills_bits, b.bills_bits);
    assert!(a.snapshot.counter("rmi.chaos.injected.total") > 0);
}
