//! Request/response transports.
//!
//! Two implementations cover the paper's deployment spectrum:
//!
//! * [`InProcTransport`] — direct dispatch, no copies beyond marshalling;
//!   isolates pure RMI overhead (the paper's "local host" control).
//! * [`TcpTransport`] — length-prefixed frames over a real socket to a
//!   [`MuxServer`](crate::MuxServer) (loopback in tests).
//!
//! The paper's 1999 LAN and WAN are not transports: their modeled time
//! is a closed form over the call and byte counters below (`vcad-bench`'s
//! `modeled_network_time` with a `vcad_netsim::NetworkModel`).
//!
//! All transports count calls and bytes into a
//! [`vcad_obs`] metrics registry ([`Transport::stats`] is a view over
//! it); the Table 2 / Figure 3 harnesses read these counters, and a
//! `--trace` run additionally gets one span per round trip.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use std::sync::Mutex;
use std::time::Duration;

use vcad_obs::{Collector, Counter, Histogram};

use crate::dispatch::Dispatcher;
use crate::error::RmiError;
use crate::wire::{len_prefix, parse_len_prefix, FrameTooLong, LEN_PREFIX, MAX_FRAME_LEN};

/// A point-in-time view of a transport's traffic counters.
///
/// The counters themselves live in the transport's
/// [`vcad_obs::MetricsRegistry`] (names `rmi.transport.calls`,
/// `rmi.transport.bytes_sent`, `rmi.transport.bytes_received`); this
/// struct is the convenience snapshot the bench harnesses consume.
///
/// # Consistency
///
/// A snapshot is a *monotonic* view, not a linearizable cut: the three
/// counters are individual relaxed atomics, so a snapshot taken while
/// another thread is mid-`record` may lag
/// that call. Each field only ever grows, so deltas between two
/// snapshots of the same transport are well-defined. Writers publish
/// byte counts *before* bumping `calls` and the snapshot reads `calls`
/// first, so the byte totals always cover at least the round trips the
/// snapshot reports — `calls` can never run ahead of the traffic it
/// accounts for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Completed round trips.
    pub calls: u64,
    /// Request bytes sent.
    pub bytes_sent: u64,
    /// Response bytes received.
    pub bytes_received: u64,
}

/// Per-transport telemetry: registry-backed counters plus (when the
/// collector is enabled) one span per round trip.
struct TransportTelemetry {
    obs: Collector,
    calls: Counter,
    sent: Counter,
    received: Counter,
    round_trip_ns: Histogram,
}

impl TransportTelemetry {
    fn new(obs: &Collector) -> TransportTelemetry {
        let m = obs.metrics();
        TransportTelemetry {
            calls: m.counter("rmi.transport.calls"),
            sent: m.counter("rmi.transport.bytes_sent"),
            received: m.counter("rmi.transport.bytes_received"),
            round_trip_ns: m.histogram("rmi.transport.round_trip_ns"),
            obs: obs.clone(),
        }
    }

    /// Telemetry for a transport constructed without a caller-provided
    /// collector: counters still aggregate (so [`Transport::stats`]
    /// works), tracing stays off.
    fn detached() -> TransportTelemetry {
        TransportTelemetry::new(&Collector::disabled())
    }

    fn span(&self) -> vcad_obs::TracedSpan {
        // Traced, so the round trip parents under whatever RPC span is
        // ambient — this is the span the obs-report analyzer attributes
        // wire time to.
        self.obs.traced_span("rmi", "call")
    }

    fn record(&self, sent: usize, received: usize, started: Instant) {
        // Bytes first, `calls` last: a concurrent snapshot that observes
        // the new round trip then also observes its traffic (see the
        // consistency note on [`TransportStats`]).
        self.sent.add(sent as u64);
        self.received.add(received as u64);
        self.round_trip_ns.record_duration(started.elapsed());
        self.calls.inc();
    }

    fn snapshot(&self) -> TransportStats {
        // One pass, `calls` before the byte counters — the read-side
        // half of the ordering contract documented on
        // [`TransportStats`].
        let calls = self.calls.get();
        let bytes_sent = self.sent.get();
        let bytes_received = self.received.get();
        TransportStats {
            calls,
            bytes_sent,
            bytes_received,
        }
    }
}

/// A synchronous request/response channel to a peer.
///
/// Implementations must be safe to share across threads; concurrent calls
/// may be serialised internally.
pub trait Transport: Send + Sync {
    /// Delivers one encoded request and returns the encoded response.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::Transport`] when the peer is unreachable or the
    /// connection breaks mid-call.
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError>;

    /// Cumulative traffic statistics for this transport.
    fn stats(&self) -> TransportStats;
}

/// Directly dispatches requests to an in-process [`Dispatcher`].
pub struct InProcTransport {
    dispatcher: Arc<Dispatcher>,
    telemetry: TransportTelemetry,
}

impl InProcTransport {
    /// Creates a transport over the given dispatcher.
    #[must_use]
    pub fn new(dispatcher: Arc<Dispatcher>) -> InProcTransport {
        InProcTransport {
            dispatcher,
            telemetry: TransportTelemetry::detached(),
        }
    }

    /// Creates a transport recording its traffic into `obs`.
    #[must_use]
    pub fn with_collector(dispatcher: Arc<Dispatcher>, obs: &Collector) -> InProcTransport {
        InProcTransport {
            dispatcher,
            telemetry: TransportTelemetry::new(obs),
        }
    }
}

impl Transport for InProcTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError> {
        let mut span = self.telemetry.span();
        let started = Instant::now();
        let response = self.dispatcher.handle_bytes(request);
        self.telemetry
            .record(request.len(), response.len(), started);
        span.arg("bytes_sent", request.len());
        span.arg("bytes_received", response.len());
        Ok(response)
    }

    fn stats(&self) -> TransportStats {
        self.telemetry.snapshot()
    }
}

fn write_frame(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    stream.write_all(&len_prefix(bytes.len()))?;
    stream.write_all(bytes)?;
    stream.flush()
}

fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; LEN_PREFIX];
    stream.read_exact(&mut prefix)?;
    let len = parse_len_prefix(prefix).map_err(|FrameTooLong(len)| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        )
    })?;
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

/// Socket-level time budgets for a [`TcpTransport`].
///
/// `None` means "block forever" (the pre-timeout behaviour); the
/// convenience constructors bound everything, so a dead provider cannot
/// hang the client thread. Expired I/O surfaces as [`RmiError::Timeout`]
/// — retryable under a
/// [`ResilientTransport`](crate::ResilientTransport).
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpTimeouts {
    /// Budget for establishing the connection.
    pub connect: Option<Duration>,
    /// Budget for each blocking read.
    pub read: Option<Duration>,
    /// Budget for each blocking write.
    pub write: Option<Duration>,
}

impl TcpTimeouts {
    /// No budgets: block forever (the default).
    #[must_use]
    pub fn none() -> TcpTimeouts {
        TcpTimeouts::default()
    }

    /// The same budget for connect, read and write.
    #[must_use]
    pub fn all(budget: Duration) -> TcpTimeouts {
        TcpTimeouts {
            connect: Some(budget),
            read: Some(budget),
            write: Some(budget),
        }
    }
}

/// Maps socket I/O failures onto [`RmiError`], distinguishing expired
/// budgets ([`RmiError::Timeout`]) from broken connections.
fn io_to_rmi(op: &str, e: &std::io::Error) -> RmiError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            RmiError::Timeout(format!("{op}: {e}"))
        }
        _ => RmiError::Transport(format!("{op}: {e}")),
    }
}

/// A client transport over one TCP connection.
pub struct TcpTransport {
    stream: Mutex<TcpStream>,
    telemetry: TransportTelemetry,
}

impl TcpTransport {
    /// Connects to a [`MuxServer`](crate::MuxServer).
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::Transport`] when the connection fails.
    pub fn connect(addr: SocketAddr) -> Result<TcpTransport, RmiError> {
        TcpTransport::connect_inner(addr, TcpTimeouts::none(), TransportTelemetry::detached())
    }

    /// Connects with socket-level time budgets: the connect attempt, and
    /// every read and write afterwards, fail with [`RmiError::Timeout`]
    /// instead of blocking past their budget.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::Timeout`] when the connect budget expires and
    /// [`RmiError::Transport`] for other connection failures.
    pub fn connect_with_timeouts(
        addr: SocketAddr,
        timeouts: TcpTimeouts,
    ) -> Result<TcpTransport, RmiError> {
        TcpTransport::connect_inner(addr, timeouts, TransportTelemetry::detached())
    }

    /// As [`TcpTransport::connect_with_timeouts`], recording traffic into
    /// `obs`.
    ///
    /// # Errors
    ///
    /// As [`TcpTransport::connect_with_timeouts`].
    pub fn connect_with_timeouts_and_collector(
        addr: SocketAddr,
        timeouts: TcpTimeouts,
        obs: &Collector,
    ) -> Result<TcpTransport, RmiError> {
        TcpTransport::connect_inner(addr, timeouts, TransportTelemetry::new(obs))
    }

    fn connect_inner(
        addr: SocketAddr,
        timeouts: TcpTimeouts,
        telemetry: TransportTelemetry,
    ) -> Result<TcpTransport, RmiError> {
        let stream = match timeouts.connect {
            Some(budget) => TcpStream::connect_timeout(&addr, budget)
                .map_err(|e| io_to_rmi(&format!("connect {addr}"), &e))?,
            None => TcpStream::connect(addr)
                .map_err(|e| RmiError::Transport(format!("connect {addr}: {e}")))?,
        };
        stream
            .set_nodelay(true)
            .map_err(|e| RmiError::Transport(format!("nodelay: {e}")))?;
        stream
            .set_read_timeout(timeouts.read)
            .map_err(|e| RmiError::Transport(format!("read timeout: {e}")))?;
        stream
            .set_write_timeout(timeouts.write)
            .map_err(|e| RmiError::Transport(format!("write timeout: {e}")))?;
        Ok(TcpTransport {
            stream: Mutex::new(stream),
            telemetry,
        })
    }
}

impl Transport for TcpTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError> {
        let mut span = self.telemetry.span();
        let started = Instant::now();
        let mut stream = self.stream.lock().unwrap();
        write_frame(&mut stream, request).map_err(|e| io_to_rmi("send", &e))?;
        let response = read_frame(&mut stream).map_err(|e| io_to_rmi("receive", &e))?;
        self.telemetry
            .record(request.len(), response.len(), started);
        span.arg("bytes_sent", request.len());
        span.arg("bytes_received", response.len());
        Ok(response)
    }

    fn stats(&self) -> TransportStats {
        self.telemetry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{ObjectRegistry, RemoteObject, ServerCtx};
    use crate::{Client, MuxServer, MuxServerConfig, Value};

    struct Ping;
    impl RemoteObject for Ping {
        fn invoke(
            &self,
            method: &str,
            args: &[Value],
            _ctx: &ServerCtx,
        ) -> Result<Value, RmiError> {
            match method {
                "ping" => Ok(args.first().cloned().unwrap_or(Value::Null)),
                _ => Err(RmiError::unknown_method("Ping", method)),
            }
        }
    }

    fn dispatcher() -> Arc<Dispatcher> {
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Ping));
        Arc::new(Dispatcher::new(reg))
    }

    #[test]
    fn inproc_counts_traffic() {
        let t = Arc::new(InProcTransport::new(dispatcher()));
        let c = Client::new(Arc::clone(&t) as Arc<dyn Transport>);
        c.root().invoke("ping", vec![Value::I64(1)]).unwrap();
        c.root().invoke("ping", vec![Value::I64(2)]).unwrap();
        let stats = t.stats();
        assert_eq!(stats.calls, 2);
        assert!(stats.bytes_sent > 0);
        assert!(stats.bytes_received > 0);
    }

    #[test]
    fn tcp_round_trip() {
        let server =
            MuxServer::bind("127.0.0.1:0", dispatcher(), MuxServerConfig::default()).unwrap();
        let t = Arc::new(TcpTransport::connect(server.addr()).unwrap());
        let c = Client::new(Arc::clone(&t) as Arc<dyn Transport>);
        let v = c
            .root()
            .invoke("ping", vec![Value::Str("net".into())])
            .unwrap();
        assert_eq!(v, Value::Str("net".into()));
        assert_eq!(t.stats().calls, 1);
    }

    #[test]
    fn tcp_two_connections() {
        let server =
            MuxServer::bind("127.0.0.1:0", dispatcher(), MuxServerConfig::default()).unwrap();
        let t1 = Arc::new(TcpTransport::connect(server.addr()).unwrap());
        let t2 = Arc::new(TcpTransport::connect(server.addr()).unwrap());
        let c1 = Client::new(t1 as Arc<dyn Transport>);
        let c2 = Client::new(t2 as Arc<dyn Transport>);
        assert_eq!(
            c1.root().invoke("ping", vec![Value::I64(1)]).unwrap(),
            Value::I64(1)
        );
        assert_eq!(
            c2.root().invoke("ping", vec![Value::I64(2)]).unwrap(),
            Value::I64(2)
        );
    }

    #[test]
    fn read_timeout_unsticks_a_stalled_peer() {
        // A listener that accepts the connection into its backlog but
        // never reads or replies: without a read timeout the call would
        // block forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t =
            TcpTransport::connect_with_timeouts(addr, TcpTimeouts::all(Duration::from_millis(50)))
                .unwrap();
        let started = Instant::now();
        let err = t.call(b"hello?").unwrap_err();
        assert!(matches!(err, RmiError::Timeout(_)), "{err}");
        assert!(err.is_retryable());
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timed out promptly"
        );
        drop(listener);
    }

    #[test]
    fn oversized_reply_length_is_a_transport_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).unwrap();
            stream.write_all(&[0xff; 4]).unwrap();
        });
        let t = TcpTransport::connect(addr).unwrap();
        let err = t.call(b"hello?").unwrap_err();
        assert!(matches!(err, RmiError::Transport(_)), "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn transport_error_on_dead_server() {
        let addr = {
            let server =
                MuxServer::bind("127.0.0.1:0", dispatcher(), MuxServerConfig::default()).unwrap();
            server.addr()
            // server drops here
        };
        // Either the connect fails or the first call fails; both are
        // transport errors.
        match TcpTransport::connect(addr) {
            Ok(t) => {
                let c = Client::new(Arc::new(t) as Arc<dyn Transport>);
                let err = c.root().invoke("ping", vec![]).unwrap_err();
                assert!(matches!(err, RmiError::Transport(_)), "{err}");
            }
            Err(e) => assert!(matches!(e, RmiError::Transport(_))),
        }
    }
}
