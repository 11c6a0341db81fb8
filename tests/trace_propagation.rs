//! Distributed trace propagation: the context the client injects into
//! every RMI call frame must survive each transport — in-process
//! loopback, real TCP sockets, and a chaos-shaped link that corrupts,
//! drops and duplicates frames — so that provider-side spans always
//! parent under the calling client span. Each test dumps the collectors
//! exactly the way the real processes would (Chrome trace-event JSON),
//! parses the dumps back and runs the stitching analyzer on them: the
//! assertions exercise the same path as `obs-report --require-no-orphans`
//! in CI, not a private shortcut.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use vcad::ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad::obs::analyze::{analyze, Analysis};
use vcad::obs::chrome::{parse_chrome_json, to_chrome_json, ProcessLane};
use vcad::obs::Collector;
use vcad::rmi::{
    heavy_chaos_stack, Frame, InProcTransport, MuxServerConfig, RmiError, TcpTimeouts,
    TcpTransport, Transport, TransportStats,
};

/// Far above any loopback round trip, far below a CI job timeout.
const SOCKET_BUDGET: Duration = Duration::from_secs(10);

fn provider(host: &str, obs: Collector) -> ProviderServer {
    let server = ProviderServer::with_collector(host, obs);
    server.offer(ComponentOffering::fast_low_power_multiplier());
    server.offer(ComponentOffering::baseline_multiplier());
    server
}

/// Serializes each collector to its Chrome JSON dump and parses the
/// dumps back into lanes — the round trip the merge tool performs.
fn dump_lanes(collectors: &[&Collector]) -> Vec<ProcessLane> {
    let mut lanes = Vec::new();
    for obs in collectors {
        let json = to_chrome_json(&obs.trace());
        lanes.extend(parse_chrome_json(&json).expect("dump parses back"));
    }
    lanes
}

/// Map keys that smell like structural IP: a marshalled payload carrying
/// one is either a disclosure or, at best, a naming accident.
const STRUCTURAL_KEYS: &[&str] = &[
    "netlist",
    "gates",
    "nets",
    "topology",
    "schematic",
    "private_part",
    "structure",
    "placement",
];

/// Every map key in `value`, at any depth, that matches a structural key
/// case-insensitively.
fn structural_keys(value: &vcad::rmi::Value) -> Vec<String> {
    match value {
        vcad::rmi::Value::Map(entries) => entries
            .iter()
            .flat_map(|(key, inner)| {
                let hit = STRUCTURAL_KEYS
                    .iter()
                    .any(|s| key.eq_ignore_ascii_case(s))
                    .then(|| key.clone());
                hit.into_iter().chain(structural_keys(inner))
            })
            .collect(),
        vcad::rmi::Value::List(items) => items.iter().flat_map(structural_keys).collect(),
        _ => Vec::new(),
    }
}

#[test]
fn structural_key_walk_finds_keys_at_any_depth() {
    use vcad::rmi::Value;
    let v = Value::Map(vec![(
        "result".into(),
        Value::List(vec![Value::Map(vec![(
            "Netlist".into(),
            Value::Str("nand(a,b)".into()),
        )])]),
    )]);
    assert_eq!(structural_keys(&v), ["Netlist"]);
}

#[test]
fn detection_table_wire_form_has_no_structural_keys() {
    // A detection table's wire form names outputs and faults, nothing
    // structural.
    let nl = vcad::netlist::generators::half_adder_nand();
    let universe = vcad::faults::FaultUniverse::collapsed(&nl);
    let table = vcad::faults::DetectionTable::build(&nl, &universe, &"11".parse().unwrap());
    assert!(structural_keys(&table.to_value()).is_empty());
}

/// A few calls that cross the wire in both directions, including a
/// marshalled detection table.
fn exercise(session: &ClientSession) {
    use vcad::faults::DetectionTableSource;
    let catalog = session.catalog().expect("catalog");
    assert!(!catalog.is_empty());
    let component = session
        .instantiate("MultFastLowPower", 4)
        .expect("instantiate");
    assert!(component.area().expect("area") > 0.0);
    assert!(component.delay().expect("delay") > 0.0);
    let table = component
        .detection_source()
        .detection_table(&vcad::logic::LogicVec::from_u64(8, 0x5A))
        .expect("detection table");
    assert!(!table.rows().is_empty());
    let _ = session.bill().expect("bill");
}

/// Every provider-lane span must be a child (parent present), its parent
/// must resolve, and the chain must bottom out at a client-lane span of
/// the same trace.
fn assert_provider_spans_parent_under_client(a: &Analysis, client_lane: &str) {
    assert!(
        a.is_consistent(),
        "orphans {:?} crossed {:?} duplicates {:?}",
        a.orphans,
        a.crossed,
        a.duplicates
    );
    let find = |id: u64| a.spans.iter().find(|s| s.span_id == id);
    let mut provider_spans = 0;
    for s in a.spans.iter().filter(|s| s.process != client_lane) {
        provider_spans += 1;
        let mut cursor = s.clone();
        // Walk up; a provider span with no path to the client lane is a
        // propagation bug even when nothing is technically orphaned.
        for _ in 0..64 {
            let Some(pid) = cursor.parent else {
                panic!(
                    "provider span {}:{} (id {}) has a rootless ancestor {}:{}",
                    s.process, s.name, s.span_id, cursor.process, cursor.name
                );
            };
            let parent = find(pid).expect("consistent analysis resolves parents");
            assert_eq!(
                parent.trace_id, s.trace_id,
                "span {} crossed traces via parent {}",
                s.span_id, parent.span_id
            );
            cursor = parent.clone();
            if cursor.process == client_lane {
                break;
            }
        }
        assert_eq!(
            cursor.process, client_lane,
            "provider span {}:{} never reached a client-lane ancestor",
            s.process, s.name
        );
    }
    assert!(provider_spans > 0, "no provider spans captured");
}

#[test]
fn context_round_trips_over_inproc_loopback() {
    let client_obs = Collector::enabled().with_process_name("client");
    let provider_obs = Collector::enabled().with_process_name("provider");
    let server = provider("loopback-provider.example.com", provider_obs.clone());
    let transport: Arc<dyn Transport> = Arc::new(InProcTransport::with_collector(
        server.dispatcher(),
        &client_obs,
    ));
    let session =
        ClientSession::connect(transport, server.host()).with_collector(client_obs.clone());
    exercise(&session);

    let a = analyze(&dump_lanes(&[&client_obs, &provider_obs]));
    assert_eq!(a.lanes.len(), 2);
    assert_provider_spans_parent_under_client(&a, "client");
    // The provider lane was anchored through a cross-lane parent link.
    assert!(
        a.lanes
            .iter()
            .find(|l| l.name == "provider")
            .unwrap()
            .anchored
    );
    // The analyzer saw the client:{method} spans and attributed them.
    assert!(a.breakdowns.iter().any(|b| b.method == "area"));
}

#[test]
fn context_round_trips_over_tcp() {
    let client_obs = Collector::enabled().with_process_name("client");
    let provider_obs = Collector::enabled().with_process_name("provider");
    let server = provider("tcp-provider.example.com", provider_obs.clone());
    let tcp = server
        .serve_mux("127.0.0.1:0", MuxServerConfig::default())
        .unwrap();
    let transport: Arc<dyn Transport> = Arc::new(
        TcpTransport::connect_with_timeouts_and_collector(
            tcp.addr(),
            TcpTimeouts::all(SOCKET_BUDGET),
            &client_obs,
        )
        .unwrap(),
    );
    let session =
        ClientSession::connect(transport, server.host()).with_collector(client_obs.clone());
    exercise(&session);

    let a = analyze(&dump_lanes(&[&client_obs, &provider_obs]));
    assert_provider_spans_parent_under_client(&a, "client");
    assert!(
        a.lanes
            .iter()
            .find(|l| l.name == "provider")
            .unwrap()
            .anchored
    );
}

#[test]
fn corrupted_frames_never_produce_orphan_or_crossed_parents() {
    let client_obs = Collector::enabled().with_process_name("client");
    let provider_obs = Collector::enabled().with_process_name("provider");
    let server = provider("chaos-provider.example.com", provider_obs.clone());

    // FaultConfig::heavy corrupts, drops, duplicates and delays frames;
    // the resilience layer retries every failure. A corrupted frame that
    // still decodes provider-side must either carry the intact context
    // or fail the integrity check — it must never dispatch under a
    // mangled parent id.
    let inproc: Arc<dyn Transport> = Arc::new(InProcTransport::with_collector(
        server.dispatcher(),
        &client_obs,
    ));
    let (transport, _) = heavy_chaos_stack(inproc, 11, &client_obs);
    let session =
        ClientSession::connect(transport, server.host()).with_collector(client_obs.clone());
    exercise(&session);

    let snap = client_obs.metrics().snapshot();
    assert!(
        snap.counter("rmi.chaos.injected.total") > 0,
        "chaos plan injected nothing — the test proved nothing"
    );

    let a = analyze(&dump_lanes(&[&client_obs, &provider_obs]));
    assert_provider_spans_parent_under_client(&a, "client");
    // Retried attempts surface as attempt:N spans under resilient:call,
    // not as parent-less strays.
    let attempts = a
        .spans
        .iter()
        .filter(|s| s.name.starts_with("attempt:"))
        .count();
    assert!(attempts > 0, "no attempt spans recorded under chaos");
    assert!(a
        .spans
        .iter()
        .filter(|s| s.name.starts_with("attempt:"))
        .all(|s| s.parent.is_some()));
}

#[test]
fn two_provider_session_spans_all_parent_under_the_client() {
    let client_obs = Collector::enabled().with_process_name("client");
    let obs_a = Collector::enabled().with_process_name("provider-a");
    let obs_b = Collector::enabled().with_process_name("provider-b");
    let server_a = provider("provider-a.example.com", obs_a.clone());
    let server_b = provider("provider-b.example.com", obs_b.clone());

    for server in [&server_a, &server_b] {
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::with_collector(
            server.dispatcher(),
            &client_obs,
        ));
        let session =
            ClientSession::connect(transport, server.host()).with_collector(client_obs.clone());
        exercise(&session);
    }

    let a = analyze(&dump_lanes(&[&client_obs, &obs_a, &obs_b]));
    assert_eq!(a.lanes.len(), 3);
    assert_provider_spans_parent_under_client(&a, "client");
    for lane in ["provider-a", "provider-b"] {
        let l = a.lanes.iter().find(|l| l.name == lane).unwrap();
        assert!(l.anchored, "{lane} lane never anchored to the client");
        assert!(l.spans > 0, "{lane} recorded no spans");
    }
    // The two provider sessions belong to different traces (one root per
    // session), and no span leaked across them.
    let traces: std::collections::BTreeSet<u64> = a.spans.iter().map(|s| s.trace_id).collect();
    assert!(traces.len() >= 2, "expected at least one trace per session");
}

/// Observes every request frame that would hit the wire.
struct SniffingTransport {
    inner: Arc<dyn Transport>,
    requests: Mutex<Vec<Vec<u8>>>,
}

impl Transport for SniffingTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError> {
        self.requests.lock().unwrap().push(request.to_vec());
        self.inner.call(request)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[test]
fn wire_baggage_is_display_labels_only_and_passes_the_privacy_audit() {
    let client_obs = Collector::enabled().with_process_name("client");
    let server = provider("audited-provider.example.com", Collector::disabled());
    let sniffer = Arc::new(SniffingTransport {
        inner: Arc::new(InProcTransport::new(server.dispatcher())),
        requests: Mutex::new(Vec::new()),
    });
    let session =
        ClientSession::connect(sniffer.clone(), server.host()).with_collector(client_obs.clone());
    exercise(&session);

    let requests = sniffer.requests.lock().unwrap();
    let mut contexts = 0;
    for bytes in requests.iter() {
        let Ok(Frame::Call(call)) = Frame::decode(bytes) else {
            continue;
        };
        let Some(ctx) = call.context else { continue };
        contexts += 1;
        // The baggage is the advertised label set — nothing else rides
        // along, and every value is a short display string.
        for (key, value) in &ctx.baggage {
            assert!(
                matches!(key.as_str(), "session" | "provider" | "method"),
                "unexpected baggage key `{key}` on `{}`",
                call.method
            );
            assert!(value.len() < 256, "oversized baggage value for `{key}`");
        }
        // The structural-key deny-list accepts the baggage: no
        // structural design data crosses the wire inside the trace
        // context.
        let as_value = vcad::rmi::Value::Map(
            ctx.baggage
                .iter()
                .map(|(k, v)| (k.clone(), vcad::rmi::Value::Str(v.clone())))
                .collect(),
        );
        let findings = structural_keys(&as_value);
        assert!(
            findings.is_empty(),
            "`{}` baggage carries structural keys: {findings:?}",
            call.method
        );
    }
    assert!(contexts > 0, "no call frame carried a trace context");
}
