//! `tracesession` — a chaos-seeded two-provider session over real TCP
//! sockets that writes one Chrome trace dump per process, for stitching
//! with `obs-report`.
//!
//! Three collectors run side by side — one in the client, one in each
//! provider — exactly as they would in three separate JVM-era processes.
//! The client injects its trace context into every call frame; each
//! provider's dispatch, estimator and fee-ledger spans parent under the
//! calling client span, so `obs-report report client.json
//! provider-a.json provider-b.json` reconstructs a single causal tree
//! with zero orphans even though every process kept its own clock.
//!
//! The client-provider links run through `heavy_chaos_stack`, so the
//! dumps also exercise the hostile case: dropped, corrupted, duplicated
//! and delayed frames must surface as retried attempt spans — never as
//! orphan or crossed parents.
//!
//! Flag: `--out <dir>` (dump directory, default `target/tracesession`).
//! The chaos schedules are seeded from [`CHAOS_SEED`].

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vcad_bench::cli;
use vcad_cache::CacheConfig;
use vcad_faults::DetectionTableSource;
use vcad_ip::{ClientSession, ComponentOffering, IpCache, ProviderServer};
use vcad_logic::LogicVec;
use vcad_obs::{chrome, Collector};
use vcad_rmi::{
    heavy_chaos_stack, MuxServer, MuxServerConfig, TcpTimeouts, TcpTransport, Transport,
};

/// Far above any loopback round trip, far below a CI job timeout.
const SOCKET_BUDGET: Duration = Duration::from_secs(10);

/// Seed of the first provider link's chaos schedule; the second link
/// uses the next seed.
const CHAOS_SEED: u64 = 7;

/// Connects one resilient, chaos-shaped session to `server`'s TCP port.
fn connect(
    tcp: &MuxServer,
    host: &str,
    seed: u64,
    obs: &Collector,
    cache: Option<Arc<IpCache>>,
) -> ClientSession {
    let raw: Arc<dyn Transport> = Arc::new(
        TcpTransport::connect_with_timeouts_and_collector(
            tcp.addr(),
            TcpTimeouts::all(SOCKET_BUDGET),
            obs,
        )
        .expect("connect to provider"),
    );
    let (resilient, _) = heavy_chaos_stack(raw, seed, obs);
    let session = ClientSession::connect(resilient, host).with_collector(obs.clone());
    match cache {
        Some(c) => session.with_cache(c),
        None => session,
    }
}

/// One evaluation round against a provider: catalog, instantiate,
/// static estimates, then a handful of testability queries. Returns the
/// provider's bill, in cents.
fn evaluate(session: &ClientSession, offering: &str, width: usize) -> f64 {
    let catalog = session.catalog().expect("catalog");
    assert!(catalog.iter().any(|o| o.name == offering));
    let component = session.instantiate(offering, width).expect("instantiate");
    let area = component.area().expect("area");
    let delay = component.delay().expect("delay");
    let watts = component.constant_power().expect("constant power");
    assert!(area > 0.0 && delay > 0.0 && watts > 0.0);
    // Watts per input toggle: a power model's slope is finite and positive.
    let (_, slope) = component.regression_coefficients().expect("regression");
    assert!(slope.is_finite() && slope > 0.0, "regression slope {slope}");
    let source = component.detection_source();
    assert!(!source.fault_list().is_empty());
    for pattern in 0..4u64 {
        let inputs = LogicVec::from_u64(2 * width, pattern * 0x1111);
        let table = source.detection_table(&inputs).expect("detection table");
        assert_eq!(
            table.inputs().to_word().unwrap().value(),
            u128::from(pattern * 0x1111)
        );
    }
    // Repeat one query: on the cached session this is served locally.
    let _ = source
        .detection_table(&LogicVec::from_u64(2 * width, 0))
        .expect("repeat detection table");
    session.bill().expect("bill")
}

fn main() {
    let out = cli::flag_value("--out", "a directory path")
        .map_or_else(|| "target/tracesession".into(), PathBuf::from);
    std::fs::create_dir_all(&out).expect("create output directory");

    let client_obs = Collector::with_capacity(1 << 20).with_process_name("client");

    let providers = [
        ("provider-a.example.com", "MultFastLowPower"),
        ("provider-b.example.com", "MultBaselineArray"),
    ];
    let mut dumps = vec![(out.join("client.json"), client_obs.clone())];
    for (i, (host, offering)) in providers.iter().enumerate() {
        let provider_obs = Collector::with_capacity(1 << 20).with_process_name(host);
        let server = ProviderServer::with_collector(*host, provider_obs.clone());
        server.offer(ComponentOffering::fast_low_power_multiplier());
        server.offer(ComponentOffering::baseline_multiplier());
        let tcp = server
            .serve_mux("127.0.0.1:0", MuxServerConfig::default())
            .expect("bind provider");
        // The second provider's session memoizes calls client-side, so
        // the dumps also show cache hit spans.
        let cache = (i == 1)
            .then(|| Arc::new(IpCache::new(CacheConfig::default()).with_collector(&client_obs)));
        let session = connect(&tcp, host, CHAOS_SEED + i as u64, &client_obs, cache);
        let bill = evaluate(&session, offering, 8);
        println!("{host}: evaluated {offering}, billed {bill:.1}¢");
        dumps.push((
            out.join(format!("provider-{}.json", (b'a' + i as u8) as char)),
            provider_obs,
        ));
    }

    let snap = client_obs.metrics().snapshot();
    println!(
        "chaos (seed {CHAOS_SEED}): {} faults injected over {} transport calls, {} retries",
        snap.counter("rmi.chaos.injected.total"),
        snap.counter("rmi.chaos.calls"),
        snap.counter("rmi.retry.retries"),
    );

    let mut paths = Vec::new();
    for (path, obs) in dumps {
        let trace = obs.trace();
        println!("{}: {} events", path.display(), trace.events.len());
        chrome::write_chrome_trace(&trace, &path).expect("write trace dump");
        paths.push(path);
    }
    println!(
        "stitch with: obs-report report {} --require-no-orphans",
        paths
            .iter()
            .map(|p| p.display().to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
}
