//! A full IP user/provider session over real TCP sockets (loopback),
//! optionally costed with the network models.
//!
//! Test hygiene: no assertion here depends on the wall clock — the one
//! timing check reads the *modeled* network time, a pure function of the
//! session's call and byte counts. Real sockets still block, though, so
//! every connection carries a generous explicit budget: a wedged
//! provider fails the test in seconds instead of hanging CI forever
//! (the library default, [`TcpTimeouts::none`], blocks indefinitely).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use vcad::faults::DetectionTableSource;
use vcad::ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad::netsim::NetworkModel;
use vcad::rmi::{MuxServerConfig, TcpTimeouts, TcpTransport, Transport};
use vcad_bench::report::modeled_network_time;

/// Far above any loopback round trip, far below a CI job timeout.
const SOCKET_BUDGET: Duration = Duration::from_secs(10);

fn connect(addr: SocketAddr) -> Arc<dyn Transport> {
    Arc::new(TcpTransport::connect_with_timeouts(addr, TcpTimeouts::all(SOCKET_BUDGET)).unwrap())
}

fn provider() -> ProviderServer {
    let server = ProviderServer::new("tcp-provider.example.com");
    server.offer(ComponentOffering::fast_low_power_multiplier());
    server
}

#[test]
fn catalog_and_component_over_tcp() {
    let server = provider();
    let tcp = server
        .serve_mux("127.0.0.1:0", MuxServerConfig::default())
        .unwrap();
    let session = ClientSession::connect(connect(tcp.addr()), server.host());

    let catalog = session.catalog().unwrap();
    assert_eq!(catalog[0].name, "MultFastLowPower");

    let component = session.instantiate("MultFastLowPower", 8).unwrap();
    assert!(component.area().unwrap() > 0.0);
    // A remote detection table crosses the real socket and decodes.
    let table = component
        .detection_source()
        .detection_table(&vcad::logic::LogicVec::from_u64(16, 0xF0F0 & 0xFFFF))
        .unwrap();
    assert!(!table.rows().is_empty());
}

#[test]
fn two_clients_share_one_tcp_server() {
    let server = provider();
    let tcp = server
        .serve_mux("127.0.0.1:0", MuxServerConfig::default())
        .unwrap();
    let mut handles = Vec::new();
    for i in 0..3usize {
        let addr = tcp.addr();
        let host = server.host().to_owned();
        handles.push(std::thread::spawn(move || {
            let session = ClientSession::connect(connect(addr), host);
            let width = 2 + i;
            let component = session.instantiate("MultFastLowPower", width).unwrap();
            assert_eq!(component.width(), width);
            component.area().unwrap()
        }));
    }
    let areas: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Wider multipliers are strictly larger.
    assert!(areas[0] < areas[1] && areas[1] < areas[2]);
}

#[test]
fn shaped_tcp_session_accumulates_virtual_network_time() {
    let server = provider();
    let tcp = server
        .serve_mux("127.0.0.1:0", MuxServerConfig::default())
        .unwrap();
    let raw = connect(tcp.addr());
    let session = ClientSession::connect(Arc::clone(&raw), server.host());
    let component = session.instantiate("MultFastLowPower", 4).unwrap();
    let _ = component.constant_power().unwrap();

    // The closed form over the session's own counters: several round
    // trips at >= 90 ms modeled WAN RTT each.
    let stats = raw.stats();
    assert!(stats.calls >= 3, "{stats:?}");
    let network = modeled_network_time(&stats, &NetworkModel::wan_1999());
    assert!(
        network.as_millis() >= 200,
        "modeled network time too small: {network:?}"
    );
}
