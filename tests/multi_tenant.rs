//! Multi-tenant soak: three tenants, many concurrent sessions, one
//! provider served through the connection-multiplexing `MuxServer` over
//! real TCP sockets — with every client link running under
//! `FaultConfig::heavy` chaos.
//!
//! Asserts the invariants the multi-tenant provider promises:
//!
//! * every session completes its workload despite drops, corruption,
//!   duplicates and resets (the resilience layer absorbs both network
//!   faults and admission sheds);
//! * per-tenant fee ledgers are *exact* — retries are deduplicated and
//!   shed calls never reach the fee path, so each tenant owes precisely
//!   `sessions × calls × fee`;
//! * a tenant whose hard call quota is exhausted gets a typed,
//!   non-retryable `QuotaExceeded` error immediately — it never hangs
//!   and is never silently retried;
//! * a rate-limited tenant's shed surfaces as a typed, *retryable*
//!   `Overloaded` error;
//! * the whole soak is bit-identical across two runs with the same
//!   chaos seed.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use vcad::ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad::logic::LogicVec;
use vcad::obs::Collector;
use vcad::rmi::{
    heavy_chaos_stack, AdmissionControl, MuxServerConfig, RemoteErrorKind, ResilientTransport,
    RetryPolicy, RmiError, TcpTimeouts, TcpTransport, TenantQuota, Transport, Value,
};

/// Far above any loopback round trip, far below a CI job timeout.
const SOCKET_BUDGET: Duration = Duration::from_secs(10);

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
const SESSIONS_PER_TENANT: usize = 4;
const CALLS_PER_SESSION: usize = 3;
const WIDTH: usize = 4;

/// Published fee per `functional_eval`, cents.
const EVAL_FEE_CENTS: f64 = 0.001;

/// The chaos-shaped resilient stack from the chaos soak, over TCP, each
/// session on its own virtual clock so schedules stay independent of
/// thread interleaving.
fn connect_chaotic(addr: std::net::SocketAddr, tenant: &str, seed: u64) -> ClientSession {
    let raw: Arc<dyn Transport> = Arc::new(
        TcpTransport::connect_with_timeouts(addr, TcpTimeouts::all(SOCKET_BUDGET))
            .expect("connect to provider"),
    );
    let (resilient, _) = heavy_chaos_stack(raw, seed, &Collector::disabled());
    ClientSession::connect(resilient, "tenant-soak-provider").with_tenant(tenant)
}

/// Everything that must be bit-identical across same-seed runs.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(tenant, charge count, total cents bits)` from the ledger.
    fees: Vec<(String, u64, u64)>,
    /// `(tenant, session, call) → functional_eval output bits`.
    outputs: BTreeMap<(String, usize, usize), u128>,
}

fn soak(seed: u64) -> Outcome {
    let obs = Collector::enabled();
    let admission = Arc::new(
        AdmissionControl::new()
            .with_collector(&obs)
            .with_default_quota(TenantQuota::rate_limited(50_000.0, 4_096.0)),
    );
    let server = ProviderServer::with_admission("tenant-soak-provider", obs.clone(), admission);
    server.offer(ComponentOffering::fast_low_power_multiplier());
    let mux = server
        .serve_mux("127.0.0.1:0", MuxServerConfig::default())
        .expect("bind mux server");
    let addr = mux.addr();

    let total = TENANTS.len() * SESSIONS_PER_TENANT;
    let ready = Arc::new(Barrier::new(total));
    let handles: Vec<_> = (0..total)
        .map(|i| {
            let tenant = TENANTS[i % TENANTS.len()].to_owned();
            let session_idx = i / TENANTS.len();
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                let session = connect_chaotic(addr, &tenant, seed ^ (i as u64 + 1) << 8);
                let component = session
                    .instantiate("MultFastLowPower", WIDTH)
                    .expect("instantiate under chaos");
                // All sessions hold here so the provider really serves
                // them concurrently.
                ready.wait();
                let mut outputs = Vec::new();
                for k in 0..CALLS_PER_SESSION {
                    let inputs = LogicVec::from_u64(2 * WIDTH, (i as u64 * 16 + k as u64) & 0xff);
                    let reply = component
                        .stub()
                        .invoke("functional_eval", vec![Value::Vec(inputs)])
                        .expect("functional_eval under chaos");
                    let Value::Vec(bits) = reply else {
                        panic!("non-vector functional_eval reply")
                    };
                    outputs.push((
                        (tenant.clone(), session_idx, k),
                        bits.to_word().expect("settled output").value(),
                    ));
                }
                outputs
            })
        })
        .collect();

    let mut outputs = BTreeMap::new();
    for handle in handles {
        for (key, bits) in handle.join().expect("session thread") {
            outputs.insert(key, bits);
        }
    }
    let fees = server
        .ledger()
        .tenant_totals()
        .into_iter()
        .map(|(t, n, c)| (t, n, c.to_bits()))
        .collect();
    Outcome { fees, outputs }
}

#[test]
fn chaos_soak_charges_exact_per_tenant_fees() {
    let outcome = soak(7);
    assert_eq!(outcome.fees.len(), TENANTS.len());
    let expected = (SESSIONS_PER_TENANT * CALLS_PER_SESSION) as f64 * EVAL_FEE_CENTS;
    for (tenant, count, cents_bits) in &outcome.fees {
        assert_eq!(
            *count,
            (SESSIONS_PER_TENANT * CALLS_PER_SESSION) as u64,
            "{tenant}: wrong charge count"
        );
        let cents = f64::from_bits(*cents_bits);
        assert!(
            (cents - expected).abs() < 1e-9,
            "{tenant}: charged {cents}¢, want exactly {expected}¢ \
             (chaos retries must never double-charge)"
        );
    }
    assert_eq!(
        outcome.outputs.len(),
        TENANTS.len() * SESSIONS_PER_TENANT * CALLS_PER_SESSION,
        "lost session outputs"
    );
}

#[test]
fn chaos_soak_is_bit_identical_across_seeded_runs() {
    assert_eq!(soak(42), soak(42));
}

#[test]
fn exhausted_hard_quota_is_a_typed_permanent_denial() {
    let obs = Collector::enabled();
    let admission = Arc::new(AdmissionControl::new().with_collector(&obs));
    admission.set_quota(
        "broke",
        TenantQuota::rate_limited(50_000.0, 4_096.0).with_max_calls(4),
    );
    let server = ProviderServer::with_admission("tenant-soak-provider", obs, admission);
    server.offer(ComponentOffering::fast_low_power_multiplier());
    let mux = server
        .serve_mux("127.0.0.1:0", MuxServerConfig::default())
        .expect("bind mux server");

    // A fault-free but *resilient* client: the retry layer must fail
    // fast on the permanent error, not spin its attempt budget.
    let raw: Arc<dyn Transport> = Arc::new(
        TcpTransport::connect_with_timeouts(mux.addr(), TcpTimeouts::all(SOCKET_BUDGET))
            .expect("connect"),
    );
    let resilient: Arc<dyn Transport> = Arc::new(ResilientTransport::new(
        raw,
        RetryPolicy::default().with_max_attempts(12),
    ));
    let session = ClientSession::connect(resilient, "tenant-soak-provider").with_tenant("broke");

    // Calls 1–4 of the budget: catalog, then instantiate (which spends
    // three — instantiate, describe, and a catalog re-read).
    session.catalog().expect("call 1 is in budget");
    let component = session
        .instantiate("MultFastLowPower", WIDTH)
        .expect("in budget");
    // Call 5 must be denied — typed, permanent, immediate.
    let denial = component
        .stub()
        .invoke(
            "functional_eval",
            vec![Value::Vec(LogicVec::from_u64(2 * WIDTH, 1))],
        )
        .expect_err("budget is spent");
    match &denial {
        RmiError::Remote { kind, .. } => assert_eq!(*kind, RemoteErrorKind::QuotaExceeded),
        other => panic!("want QuotaExceeded, got {other}"),
    }
    assert!(
        !denial.is_retryable(),
        "a spent quota must not be retried: {denial}"
    );
}

#[test]
fn rate_limit_shed_is_a_typed_retryable_error() {
    let obs = Collector::enabled();
    let admission = Arc::new(AdmissionControl::new().with_collector(&obs));
    // One call in the bucket, essentially no refill.
    admission.set_quota("throttled", TenantQuota::rate_limited(1e-6, 1.0));
    let server = ProviderServer::with_admission("tenant-soak-provider", obs, admission);
    server.offer(ComponentOffering::fast_low_power_multiplier());
    let mux = server
        .serve_mux("127.0.0.1:0", MuxServerConfig::default())
        .expect("bind mux server");

    // A bare client — no retry layer — sees the shed itself.
    let raw: Arc<dyn Transport> = Arc::new(
        TcpTransport::connect_with_timeouts(mux.addr(), TcpTimeouts::all(SOCKET_BUDGET))
            .expect("connect"),
    );
    let session = ClientSession::connect(raw, "tenant-soak-provider").with_tenant("throttled");
    session.catalog().expect("first call fits the bucket");
    let shed = session.catalog().expect_err("bucket is dry");
    match &shed {
        RmiError::Remote { kind, .. } => assert_eq!(*kind, RemoteErrorKind::Overloaded),
        other => panic!("want Overloaded, got {other}"),
    }
    assert!(shed.is_retryable(), "a shed must invite a retry: {shed}");
}
