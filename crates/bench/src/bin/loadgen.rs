//! `loadgen` — the multi-tenant soak/bench harness.
//!
//! Drives hundreds of concurrent client sessions, spread across several
//! tenant identities, against ONE provider served through the
//! connection-multiplexing [`vcad_rmi::MuxServer`]. Every session
//! connects over a real TCP socket, stamps its tenant id into the v3
//! call frame, and runs the same small workload: catalog, instantiate,
//! then a burst of chargeable `functional_eval` calls. All sessions
//! rendezvous on a barrier after connecting, so the configured session
//! count is genuinely *concurrent* — the server's connection high-water
//! mark proves it.
//!
//! The provider runs under admission control: per-tenant token buckets
//! shed excess load as retryable `Overloaded` errors, which the
//! client-side [`vcad_rmi::ResilientTransport`] absorbs with backoff.
//! The bin asserts the invariants the multi-tenant design promises:
//!
//! * **zero lost sessions** — every session completes its full workload
//!   despite shedding;
//! * **exact per-tenant fees** — each tenant's ledger equals its session
//!   count × calls × the published fee, to the cent, because retries
//!   are deduplicated and shed calls never reach the fee path;
//! * **bounded shed rate** — sheds may happen, but not dominate.
//!
//! The deterministic admission-fairness schedule (a greedy tenant next
//! to a polite one on a virtual clock) is pinned by
//! `tests/backpressure_fairness.rs`; call latency under load is
//! measured by the `serve_mt_*` workloads of `benchmark/`.
//!
//! Flags (each one run by `ci.sh`): `--out <dir>` (write Chrome trace
//! dumps for `obs-report` stitching) and `--health <path>` (write the
//! server side's final health snapshot as JSON, including each tenant's
//! fees and open sessions).

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use vcad_bench::cli;
use vcad_ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad_logic::LogicVec;
use vcad_obs::{chrome, Collector, HealthSnapshot};
use vcad_rmi::{
    AdmissionControl, MuxServerConfig, ResilientTransport, RetryPolicy, TcpTimeouts, TcpTransport,
    TenantQuota, Transport,
};

/// Far above any loopback round trip, far below a CI job timeout.
const SOCKET_BUDGET: Duration = Duration::from_secs(10);

/// The offering every session instantiates.
const OFFERING: &str = "MultFastLowPower";

/// Component bit width (inputs are `2 * WIDTH` bits wide).
const WIDTH: usize = 4;

/// Published fee per `functional_eval` call, cents (see
/// `vcad_ip::PriceList::default`).
const FUNCTIONAL_EVAL_FEE_CENTS: f64 = 0.001;

/// Sheds are tolerated, but must not dominate admitted traffic.
const MAX_SHED_RATE: f64 = 0.5;

/// Concurrent client sessions, all connected at once.
const SESSIONS: usize = 200;

/// Tenant identities the sessions are dealt across, round-robin.
const TENANTS: usize = 4;

/// Every tenant gets the same share of the fleet.
const SESSIONS_PER_TENANT: usize = SESSIONS / TENANTS;
const _: () = assert!(SESSIONS.is_multiple_of(TENANTS));

/// Chargeable `functional_eval` calls per session.
const CALLS: usize = 3;

/// The mux server's worker pool.
const WORKERS: usize = 8;

/// One session's workload. Returns an error description instead of
/// panicking so the main thread can count losses across the whole run.
fn run_session(
    addr: std::net::SocketAddr,
    tenant: &str,
    calls: usize,
    obs: &Collector,
    trace: bool,
    ready: &Barrier,
) -> Result<(), String> {
    let raw: Arc<dyn Transport> = Arc::new(
        TcpTransport::connect_with_timeouts_and_collector(
            addr,
            TcpTimeouts::all(SOCKET_BUDGET),
            obs,
        )
        .map_err(|e| format!("connect: {e}"))?,
    );
    let policy = RetryPolicy::default()
        .with_max_attempts(10)
        .with_deadline(Duration::from_secs(20))
        .with_backoff(Duration::from_millis(1), Duration::from_millis(16));
    let resilient: Arc<dyn Transport> =
        Arc::new(ResilientTransport::new(raw, policy).with_collector(obs));
    let mut session = ClientSession::connect(resilient, "loadgen-provider").with_tenant(tenant);
    if trace {
        session = session.with_collector(obs.clone());
    }

    let catalog = session.catalog().map_err(|e| format!("catalog: {e}"))?;
    if !catalog.iter().any(|o| o.name == OFFERING) {
        return Err(format!("offering {OFFERING} missing from catalog"));
    }
    let component = session
        .instantiate(OFFERING, WIDTH)
        .map_err(|e| format!("instantiate: {e}"))?;

    // Everyone holds here until the whole fleet is connected and
    // instantiated: the chargeable burst below is issued by all
    // sessions at once.
    ready.wait();

    for k in 0..calls {
        let inputs = LogicVec::from_u64(2 * WIDTH, (k as u64 * 37) & 0xff);
        component
            .functional_eval(inputs)
            .map_err(|e| format!("functional_eval {k}: {e}"))?;
    }
    Ok(())
}

fn main() {
    let out = cli::flag_value("--out", "a directory path").map(PathBuf::from);
    let trace = out.is_some();
    if let Some(out) = &out {
        std::fs::create_dir_all(out).expect("create output directory");
    }

    let (server_obs, client_obs) = if trace {
        (
            Collector::with_capacity(1 << 20).with_process_name("loadgen-provider"),
            Collector::with_capacity(1 << 20).with_process_name("loadgen-client"),
        )
    } else {
        (Collector::enabled(), Collector::enabled())
    };
    let health = cli::path_flag("--health");

    // A generous default quota: admission is exercised (bursts above
    // the bucket shed and retry), but a healthy fleet mostly passes.
    let admission = Arc::new(
        AdmissionControl::new()
            .with_collector(&server_obs)
            .with_default_quota(TenantQuota::rate_limited(20_000.0, 256.0)),
    );
    let server = ProviderServer::with_admission("loadgen-provider", server_obs.clone(), admission);
    server.offer(ComponentOffering::fast_low_power_multiplier());
    let mux = server
        .serve_mux(
            "127.0.0.1:0",
            MuxServerConfig {
                workers: WORKERS,
                queue_capacity: 256,
                max_connections: SESSIONS + 8,
            },
        )
        .expect("bind mux server");
    let addr = mux.addr();

    let ready = Arc::new(Barrier::new(SESSIONS));
    let started = Instant::now();
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let tenant = format!("tenant-{}", i % TENANTS);
            let obs = client_obs.clone();
            let ready = Arc::clone(&ready);
            std::thread::Builder::new()
                .name(format!("loadgen-session-{i}"))
                .spawn(move || run_session(addr, &tenant, CALLS, &obs, trace, &ready))
                .expect("spawn session thread")
        })
        .collect();
    let mut lost = 0usize;
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                eprintln!("session {i} lost: {e}");
                lost += 1;
            }
            Err(_) => {
                eprintln!("session {i} lost: panicked");
                lost += 1;
            }
        }
    }
    let wall = started.elapsed();
    // Shut the server down so every connection, and with it every
    // tenant session, is closed before the final health snapshot.
    drop(mux);
    if let Some(path) = &health {
        std::fs::write(path, HealthSnapshot::of(&server_obs).to_json())
            .expect("write health snapshot");
    }

    let server_snap = server_obs.metrics().snapshot();
    let admitted = server_snap.counter("server.admitted");
    let shed = server_snap.counter("server.shed") + server_snap.counter("server.queue_shed");
    let shed_rate = if admitted + shed > 0 {
        shed as f64 / (admitted + shed) as f64
    } else {
        0.0
    };
    let peak_conns = server_snap
        .gauges
        .get("server.connections")
        .map_or(0, |g| g.high_water);

    println!(
        "loadgen: {SESSIONS} sessions ({TENANTS} tenants, {CALLS} calls each) in {:.2}s — \
         peak {} connections, {} admitted, {} shed ({:.2}% shed rate), {} lost",
        wall.as_secs_f64(),
        peak_conns,
        admitted,
        shed,
        shed_rate * 100.0,
        lost,
    );

    // Exact per-tenant fee accounting: sessions are dealt round-robin,
    // every session charges `CALLS` functional evaluations, and neither
    // retries (deduplicated) nor sheds (rejected pre-fee) can move the
    // total.
    for t in 0..TENANTS {
        let tenant = format!("tenant-{t}");
        let expected = SESSIONS_PER_TENANT as f64 * CALLS as f64 * FUNCTIONAL_EVAL_FEE_CENTS;
        let actual = server.ledger().tenant_total_cents(&tenant);
        println!("  {tenant}: {SESSIONS_PER_TENANT} sessions, fees {actual:.3}¢");
        assert!(
            (actual - expected).abs() < 1e-9,
            "{tenant}: fees {actual} != expected {expected}"
        );
    }

    if let Some(out) = &out {
        for (path, obs) in [
            (out.join("client.json"), &client_obs),
            (out.join("provider.json"), &server_obs),
        ] {
            let trace = obs.trace();
            println!("{}: {} events", path.display(), trace.events.len());
            chrome::write_chrome_trace(&trace, &path).expect("write trace dump");
        }
        println!(
            "stitch with: obs-report report {}/client.json {}/provider.json --require-no-orphans",
            out.display(),
            out.display()
        );
    }

    // The gate's teeth, after any trace dumps are on disk for post-mortems.
    assert_eq!(lost, 0, "{lost} sessions lost");
    assert_eq!(
        peak_conns as usize, SESSIONS,
        "not all sessions were concurrent"
    );
    assert!(
        shed_rate <= MAX_SHED_RATE,
        "shed rate {shed_rate:.3} above budget {MAX_SHED_RATE}"
    );
    println!("loadgen: zero lost sessions, fees exact, shed rate within budget.");
}
