//! Dropping a [`MuxServer`] must close every accepted connection and
//! join every thread it started — the poll thread and the workers. A
//! server half that outlives the drop leaks a socket (and whatever
//! thread owns it) until process exit. Nor may a panicking provider
//! object take a worker, or the server, down with it.

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vcad_rmi::{
    Client, Dispatcher, MuxServer, MuxServerConfig, ObjectRegistry, RemoteErrorKind, RemoteObject,
    RmiError, ServerCtx, TcpTimeouts, TcpTransport, Value,
};

/// Far above any loopback latency, far below a CI job timeout.
const BUDGET: Duration = Duration::from_secs(5);

#[test]
fn dropping_the_server_closes_every_accepted_connection() {
    let dispatcher = Arc::new(Dispatcher::new(Arc::new(ObjectRegistry::new())));
    let server =
        MuxServer::bind("127.0.0.1:0", dispatcher, MuxServerConfig::default()).expect("bind");
    let addr = server.addr();

    // Idle clients: connected, never sending a frame.
    let mut clients: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // Let the poll loop accept every connection before the drop.
    let deadline = Instant::now() + BUDGET;
    while server.stats().accepted < 8 {
        assert!(
            Instant::now() < deadline,
            "{} of 8 connections accepted within {BUDGET:?}",
            server.stats().accepted
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let started = Instant::now();
    drop(server);
    let drop_took = started.elapsed();
    assert!(
        drop_took < BUDGET,
        "server drop blocked for {drop_took:?} — server threads not joined"
    );

    // Every client socket must now be closed by the server side: a read
    // sees EOF or a reset promptly, never data and never a timeout
    // (a timeout would mean the server half is still open somewhere).
    for (i, client) in clients.iter_mut().enumerate() {
        client
            .set_read_timeout(Some(BUDGET))
            .expect("set read timeout");
        let mut buf = [0u8; 16];
        match client.read(&mut buf) {
            Ok(0) => {}
            Ok(n) => panic!("client {i}: {n} unexpected bytes from a dropped server"),
            Err(e) => assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "client {i}: socket still open {BUDGET:?} after server drop: {e}"
            ),
        }
    }
}

#[test]
fn server_drop_is_clean_with_no_connections() {
    let dispatcher = Arc::new(Dispatcher::new(Arc::new(ObjectRegistry::new())));
    let server =
        MuxServer::bind("127.0.0.1:0", dispatcher, MuxServerConfig::default()).expect("bind");
    let started = Instant::now();
    drop(server);
    assert!(started.elapsed() < BUDGET);
}

/// Answers `ping`; panics on `panic`, as a provider bug would.
struct Buggy;

impl RemoteObject for Buggy {
    fn invoke(&self, method: &str, _: &[Value], _: &ServerCtx) -> Result<Value, RmiError> {
        match method {
            "ping" => Ok(Value::Str("pong".into())),
            "panic" => panic!("provider bug"),
            _ => Err(RmiError::unknown_method("Buggy", method)),
        }
    }
}

/// Ten panicking calls per worker each get an `Internal` reply, and the
/// server still answers on the same connection afterwards.
#[test]
fn a_panicking_call_costs_one_call_never_the_server() {
    let registry = Arc::new(ObjectRegistry::new());
    registry.register_root(Arc::new(Buggy));
    let config = MuxServerConfig::default();
    let workers = config.workers;
    let server =
        MuxServer::bind("127.0.0.1:0", Arc::new(Dispatcher::new(registry)), config).expect("bind");
    let transport = TcpTransport::connect_with_timeouts(server.addr(), TcpTimeouts::all(BUDGET))
        .expect("connect");
    let client = Client::new(Arc::new(transport));
    for i in 0..10 * workers {
        let err = client.root().invoke("panic", vec![]).unwrap_err();
        assert_eq!(
            err.remote_kind(),
            Some(RemoteErrorKind::Internal),
            "call {i}: {err}"
        );
    }
    let pong = client
        .root()
        .invoke("ping", vec![])
        .expect("ping after the panics");
    assert_eq!(pong, Value::Str("pong".into()));
}
