//! Backpressure fairness: a greedy tenant saturating the provider must
//! be shed at its own bucket while a well-behaved tenant keeps flowing.
//!
//! Two halves:
//!
//! * a **deterministic** admission simulation on a virtual clock. Its
//!   counts are pure functions of the schedule, pinned here as golden
//!   values (counts only, never wall times);
//! * a **live** run over real TCP through the mux server, where a
//!   flood of greedy calls is shed as typed errors while the polite
//!   tenant finishes its full workload with a bounded p99 (from the
//!   client-side obs histogram).

use std::sync::Arc;
use std::time::Duration;

use vcad::ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad::obs::Collector;
use vcad::rmi::{
    AdmissionControl, MuxServerConfig, RemoteErrorKind, ResilientTransport, RetryPolicy, RmiError,
    TcpTimeouts, TcpTransport, TenantQuota, Transport, VirtualClock,
};

/// Far above any loopback round trip, far below a CI job timeout.
const SOCKET_BUDGET: Duration = Duration::from_secs(10);

/// Golden counts for the fixed fairness schedule (see `fairness_sim`):
/// both tenants quota'd at 100 calls/s with burst 10; greedy fires
/// 5 calls per virtual millisecond for one second, polite fires one
/// call every 20 ms. Greedy is clamped to its bucket — burst 10 up
/// front, then the 100/s refill — while polite (50/s, inside budget)
/// is never shed.
const GREEDY_ADMITTED: u64 = 109;
const GREEDY_SHED: u64 = 4891;
const POLITE_ADMITTED: u64 = 50;
const POLITE_SHED: u64 = 0;

/// A fixed schedule on a virtual clock: no wall clock, no threads, no
/// I/O — every count is exact.
fn fairness_sim() -> (u64, u64, u64, u64) {
    let clock = Arc::new(VirtualClock::new());
    let admission = AdmissionControl::with_clock(clock.clone())
        .with_default_quota(TenantQuota::rate_limited(100.0, 10.0));
    let (mut greedy_ok, mut greedy_shed, mut polite_ok, mut polite_shed) = (0u64, 0u64, 0u64, 0u64);
    for step in 0..1000u64 {
        clock.advance(Duration::from_millis(1));
        for _ in 0..5 {
            match admission.admit(Some("greedy")) {
                Ok(()) => greedy_ok += 1,
                Err(_) => greedy_shed += 1,
            }
        }
        if step % 20 == 0 {
            match admission.admit(Some("polite")) {
                Ok(()) => polite_ok += 1,
                Err(_) => polite_shed += 1,
            }
        }
    }
    (greedy_ok, greedy_shed, polite_ok, polite_shed)
}

#[test]
fn deterministic_shed_counts_match_the_pinned_golden_values() {
    assert_eq!(
        fairness_sim(),
        (GREEDY_ADMITTED, GREEDY_SHED, POLITE_ADMITTED, POLITE_SHED)
    );
}

#[test]
fn polite_tenant_p99_stays_bounded_while_greedy_is_shed() {
    let server_obs = Collector::enabled();
    let admission = Arc::new(
        AdmissionControl::new()
            .with_collector(&server_obs)
            // Greedy gets a tight bucket; polite an unconstrained one.
            .with_default_quota(TenantQuota::unlimited()),
    );
    admission.set_quota("greedy", TenantQuota::rate_limited(50.0, 8.0));
    let server = ProviderServer::with_admission("fairness-provider", server_obs.clone(), admission);
    server.offer(ComponentOffering::fast_low_power_multiplier());
    let mux = server
        .serve_mux(
            "127.0.0.1:0",
            MuxServerConfig {
                workers: 2,
                queue_capacity: 64,
                max_connections: 64,
            },
        )
        .expect("bind mux server");
    let addr = mux.addr();

    // Four greedy connections hammer the catalog with no retry layer:
    // most calls are shed at the greedy bucket, as typed errors.
    let greedy: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let raw: Arc<dyn Transport> = Arc::new(
                    TcpTransport::connect_with_timeouts(addr, TcpTimeouts::all(SOCKET_BUDGET))
                        .expect("connect greedy"),
                );
                let session =
                    ClientSession::connect(raw, "fairness-provider").with_tenant("greedy");
                let mut shed = 0u64;
                for _ in 0..200 {
                    match session.catalog() {
                        Ok(_) => {}
                        Err(RmiError::Remote {
                            kind: RemoteErrorKind::Overloaded,
                            ..
                        }) => shed += 1,
                        Err(other) => panic!("greedy got a non-shed error: {other}"),
                    }
                }
                shed
            })
        })
        .collect();

    // The polite tenant runs its full workload concurrently, behind a
    // retry layer that absorbs any queue-level shed.
    let client_obs = Collector::enabled();
    let polite_obs = client_obs.clone();
    let polite = std::thread::spawn(move || {
        let raw: Arc<dyn Transport> = Arc::new(
            TcpTransport::connect_with_timeouts(addr, TcpTimeouts::all(SOCKET_BUDGET))
                .expect("connect polite"),
        );
        let resilient: Arc<dyn Transport> = Arc::new(ResilientTransport::new(
            raw,
            RetryPolicy::default()
                .with_max_attempts(10)
                .with_backoff(Duration::from_millis(1), Duration::from_millis(8)),
        ));
        let session = ClientSession::connect(resilient, "fairness-provider").with_tenant("polite");
        let latency = polite_obs.metrics().histogram("polite.call_ns");
        let mut completed = 0u64;
        for _ in 0..50 {
            let started = std::time::Instant::now();
            session.catalog().expect("polite call must succeed");
            latency.record_duration(started.elapsed());
            completed += 1;
        }
        completed
    });

    let greedy_shed: u64 = greedy
        .into_iter()
        .map(|h| h.join().expect("greedy thread"))
        .sum();
    let completed = polite.join().expect("polite thread");

    assert_eq!(completed, 50, "polite tenant lost calls under greedy load");
    assert!(
        greedy_shed > 0,
        "greedy tenant was never shed — the flood did not saturate its bucket"
    );
    let snap = server_obs.metrics().snapshot();
    assert!(
        snap.counter("tenant.greedy.shed") > 0,
        "server-side greedy shed counter never moved"
    );
    assert_eq!(
        snap.counter("tenant.polite.shed"),
        0,
        "polite tenant must not be shed at admission"
    );

    // Bounded, not golden: a latency bound loose enough for any CI
    // machine, tight enough to catch polite traffic starving behind
    // the greedy flood (which would push p99 toward the retry
    // deadline).
    let client_snap = client_obs.metrics().snapshot();
    let p99_ns = client_snap
        .histograms
        .get("polite.call_ns")
        .expect("polite latency histogram")
        .quantile(0.99);
    assert!(
        p99_ns < 2_000_000_000,
        "polite p99 {p99_ns}ns unbounded under greedy load"
    );
}
