//! The connection-multiplexing server: one non-blocking poll loop, a
//! bounded frame queue, and a fixed worker pool.
//!
//! A thread per connection is unbounded for the paper's "many
//! simultaneous fee-paying users"; [`MuxServer`] serves one connection or
//! hundreds from a constant number of threads:
//!
//! * one poll thread owns the listener and every connection socket (all
//!   non-blocking), accumulates bytes into per-connection buffers, and
//!   cuts complete length-prefixed frames out of them;
//! * complete frames enter a *bounded* queue. When the queue is full the
//!   poll thread sheds the frame right there with a typed, retryable
//!   [`RemoteErrorKind::Overloaded`](crate::RemoteErrorKind) response —
//!   backpressure costs one small write, never a blocked accept loop;
//! * `workers` threads drain the queue through the shared
//!   [`Dispatcher`] (which applies per-tenant admission when configured)
//!   and write responses back through per-connection write halves. The
//!   sockets are non-blocking, so a reply the peer is not draining is
//!   retried for [`REPLY_WRITE_BUDGET`] and then the connection is shut
//!   down: a peer sees whole frames or a closed socket, never a torn
//!   frame followed by more replies.
//!
//! Everything is `std::net` — no `mio`, no epoll binding — so the loop
//! is a plain poll-and-sleep: perfectly deterministic to test against
//! and fast enough for the few hundred sockets the load generator
//! drives.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vcad_obs::Collector;

use crate::dispatch::Dispatcher;
use crate::error::{RemoteErrorKind, RmiError};
use crate::frame::{self, corrupt_request_reply, Frame, Request, ResponseFrame};
use crate::wire::{len_prefix, parse_len_prefix, FrameTooLong, LEN_PREFIX};

/// How long the poll loop sleeps when no socket made progress, and a
/// worker between attempts at a reply the peer is not draining.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// How long a worker keeps retrying a reply against a full send buffer
/// before it gives the connection up. A reading peer drains a loopback
/// or LAN buffer in microseconds; one that has not read for this long
/// is holding a worker hostage.
const REPLY_WRITE_BUDGET: Duration = Duration::from_secs(1);

/// Tuning knobs for a [`MuxServer`].
#[derive(Clone, Debug)]
pub struct MuxServerConfig {
    /// Worker threads draining the frame queue.
    pub workers: usize,
    /// Bounded queue depth; frames arriving beyond it are shed with a
    /// retryable `Overloaded` response.
    pub queue_capacity: usize,
    /// Concurrent connection cap; sockets beyond it are closed at
    /// accept (clients see a retryable transport error).
    pub max_connections: usize,
}

impl Default for MuxServerConfig {
    fn default() -> MuxServerConfig {
        MuxServerConfig {
            workers: 4,
            queue_capacity: 256,
            max_connections: 1024,
        }
    }
}

/// One queued request: the raw frame plus the write half to answer on.
struct Job {
    bytes: Vec<u8>,
    write: Arc<Mutex<TcpStream>>,
}

struct Conn {
    stream: TcpStream,
    write: Arc<Mutex<TcpStream>>,
    buf: Vec<u8>,
    /// The tenant this connection's session is registered under, once a
    /// tenant-stamped frame has been seen.
    tenant: Option<String>,
}

/// Aggregate counters the load generator reads after a run.
#[derive(Clone, Debug, Default)]
pub struct MuxServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the cap.
    pub rejected_connections: u64,
    /// Frames shed because the queue was full.
    pub queue_shed: u64,
    /// Frames handed to the worker pool.
    pub enqueued: u64,
}

struct Shared {
    dispatcher: Arc<Dispatcher>,
    obs: Collector,
    shutdown: AtomicBool,
    queue_depth: AtomicUsize,
    // The [`MuxServerStats`] fields: statistics only, so `Relaxed`.
    accepted: AtomicU64,
    rejected_connections: AtomicU64,
    queue_shed: AtomicU64,
    enqueued: AtomicU64,
}

/// The multiplexing TCP server. Stops — joining the poll thread and
/// every worker — when dropped.
pub struct MuxServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    poll_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl MuxServer {
    /// Binds to `addr` (port `0` for ephemeral) and starts the poll
    /// loop plus worker pool, all serving `dispatcher`.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::Transport`] when binding fails.
    pub fn bind(
        addr: &str,
        dispatcher: Arc<Dispatcher>,
        config: MuxServerConfig,
    ) -> Result<MuxServer, RmiError> {
        MuxServer::bind_with_collector(addr, dispatcher, config, &Collector::disabled())
    }

    /// [`MuxServer::bind`], routing `server.*` metrics (connection and
    /// queue-depth gauges, accept/shed counters) into `obs`.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::Transport`] when binding fails.
    pub fn bind_with_collector(
        addr: &str,
        dispatcher: Arc<Dispatcher>,
        config: MuxServerConfig,
        obs: &Collector,
    ) -> Result<MuxServer, RmiError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| RmiError::Transport(format!("bind {addr}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| RmiError::Transport(format!("set_nonblocking: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| RmiError::Transport(format!("local_addr: {e}")))?;

        let obs = obs.clone();
        let shared = Arc::new(Shared {
            dispatcher,
            obs,
            shutdown: AtomicBool::new(false),
            queue_depth: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
            queue_shed: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
        });

        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut worker_handles = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("vcad-rmi-mux-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn mux worker"),
            );
        }

        let poll_shared = Arc::clone(&shared);
        let poll_handle = std::thread::Builder::new()
            .name("vcad-rmi-mux-poll".into())
            .spawn(move || poll_loop(&listener, &tx, &poll_shared, &config))
            .expect("spawn mux poll thread");

        Ok(MuxServer {
            addr: local,
            shared,
            poll_handle: Some(poll_handle),
            worker_handles,
        })
    }

    /// The bound address, including the actual ephemeral port.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters accumulated since bind.
    #[must_use]
    pub fn stats(&self) -> MuxServerStats {
        let shared = &self.shared;
        MuxServerStats {
            accepted: shared.accepted.load(Ordering::Relaxed),
            rejected_connections: shared.rejected_connections.load(Ordering::Relaxed),
            queue_shed: shared.queue_shed.load(Ordering::Relaxed),
            enqueued: shared.enqueued.load(Ordering::Relaxed),
        }
    }
}

impl Drop for MuxServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.poll_handle.take() {
            let _ = h.join();
        }
        // The poll loop dropped its sender on exit; workers drain what
        // is left and exit on the closed channel.
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>, shared: &Arc<Shared>) {
    loop {
        let job = {
            let rx = rx.lock().unwrap();
            rx.recv()
        };
        let Ok(job) = job else { break };
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let response = shared.dispatcher.handle_bytes(&job.bytes);
        let mut stream = job.write.lock().unwrap();
        write_reply(&mut stream, &response, REPLY_WRITE_BUDGET);
    }
}

/// Writes one length-prefixed frame to a non-blocking socket — whole, or
/// not at all as far as later replies are concerned: `WouldBlock` is
/// retried until `budget` lapses, and on lapse or any other error the
/// connection is shut down, so the peer sees a clean (retryable)
/// transport error instead of a stream that resumes mid-frame. Returns
/// whether the frame went out whole.
fn write_reply(stream: &mut TcpStream, response: &[u8], budget: Duration) -> bool {
    let prefix = len_prefix(response.len());
    // Set on the first `WouldBlock`: the usual reply never reads the clock.
    let mut deadline: Option<Instant> = None;
    for mut rest in [&prefix[..], response] {
        while !rest.is_empty() {
            match stream.write(rest) {
                Ok(n) if n > 0 => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        && Instant::now()
                            < *deadline.get_or_insert_with(|| Instant::now() + budget) =>
                {
                    std::thread::sleep(IDLE_SLEEP);
                }
                _ => {
                    let _ = stream.shutdown(Shutdown::Both);
                    return false;
                }
            }
        }
    }
    true
}

fn poll_loop(
    listener: &TcpListener,
    tx: &SyncSender<Job>,
    shared: &Arc<Shared>,
    config: &MuxServerConfig,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn_id: u64 = 0;
    let mut scratch = [0u8; 64 * 1024];
    let metrics = shared.obs.metrics();
    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut progressed = false;

        // Accept everything pending, up to the connection cap.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    progressed = true;
                    if conns.len() >= config.max_connections {
                        // Refuse by closing: the client surfaces a
                        // retryable transport error.
                        shared.rejected_connections.fetch_add(1, Ordering::Relaxed);
                        metrics.counter("server.conn_rejected").inc();
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are small frames written one at a time;
                    // without nodelay, Nagle against the client's
                    // delayed ACK costs tens of milliseconds per call.
                    let _ = stream.set_nodelay(true);
                    let Ok(write) = stream.try_clone() else {
                        continue;
                    };
                    shared.accepted.fetch_add(1, Ordering::Relaxed);
                    metrics.counter("server.accepted").inc();
                    conns.insert(
                        next_conn_id,
                        Conn {
                            stream,
                            write: Arc::new(Mutex::new(write)),
                            buf: Vec::new(),
                            tenant: None,
                        },
                    );
                    next_conn_id += 1;
                    metrics.gauge("server.connections").set(conns.len() as u64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Pump every connection.
        let mut dead: Vec<u64> = Vec::new();
        for (&id, conn) in &mut conns {
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        dead.push(id);
                        break;
                    }
                    Ok(n) => {
                        progressed = true;
                        conn.buf.extend_from_slice(&scratch[..n]);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead.push(id);
                        break;
                    }
                }
            }
            // Cut complete frames out of the buffer.
            loop {
                let frame = match take_frame(&mut conn.buf) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(FrameTooLong(_)) => {
                        // Hostile or corrupt length prefix: hang up on
                        // this peer, keep serving the rest.
                        let _ = conn.stream.shutdown(Shutdown::Both);
                        dead.push(id);
                        break;
                    }
                };
                progressed = true;
                register_session(shared, conn, &frame);
                let job = Job {
                    bytes: frame,
                    write: Arc::clone(&conn.write),
                };
                match tx.try_send(job) {
                    Ok(()) => {
                        shared.queue_depth.fetch_add(1, Ordering::Relaxed);
                        shared.enqueued.fetch_add(1, Ordering::Relaxed);
                        let depth = shared.queue_depth.load(Ordering::Relaxed) as u64;
                        metrics.gauge("server.queue_depth").set(depth);
                    }
                    Err(TrySendError::Full(job)) => {
                        shared.queue_shed.fetch_add(1, Ordering::Relaxed);
                        metrics.counter("server.queue_shed").inc();
                        if !shed_job(&job) {
                            let _ = conn.stream.shutdown(Shutdown::Both);
                            dead.push(id);
                            break;
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
        }
        for id in dead {
            if let Some(conn) = conns.remove(&id) {
                if let (Some(tenant), Some(admission)) =
                    (&conn.tenant, shared.dispatcher.admission())
                {
                    admission.close_session(tenant);
                }
            }
            metrics.gauge("server.connections").set(conns.len() as u64);
        }

        if !progressed {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    // Shutdown: close every socket so blocked clients fail fast.
    for (_, conn) in conns.drain() {
        let _ = conn.stream.shutdown(Shutdown::Both);
        if let (Some(tenant), Some(admission)) = (&conn.tenant, shared.dispatcher.admission()) {
            admission.close_session(tenant);
        }
    }
    // Dropping `tx` (by returning) closes the queue; workers drain what
    // is left and exit.
}

/// Removes and returns the first complete length-prefixed frame from
/// `buf`, if one has fully arrived. An oversized prefix is refused as
/// soon as its four bytes are in, before any of the body is buffered.
fn take_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, FrameTooLong> {
    let Some(&prefix) = buf.first_chunk::<LEN_PREFIX>() else {
        return Ok(None);
    };
    let end = LEN_PREFIX + parse_len_prefix(prefix)?;
    if buf.len() < end {
        return Ok(None);
    }
    let frame = buf[LEN_PREFIX..end].to_vec();
    buf.drain(..end);
    Ok(Some(frame))
}

/// Binds the connection to its tenant's session on the first stamped
/// frame seen, registering it with the dispatcher's admission gate. The
/// stamp is read from the header of the frame, inside any tracked
/// envelope; tenant-free (v1/v2) frames and corrupt envelopes bind
/// nothing.
fn register_session(shared: &Arc<Shared>, conn: &mut Conn, bytes: &[u8]) {
    if conn.tenant.is_some() {
        return;
    }
    let Some(admission) = shared.dispatcher.admission() else {
        return;
    };
    let Some(tenant) = Request::decode(bytes).and_then(|r| frame::peek_tenant(r.frame)) else {
        return;
    };
    admission.open_session(tenant);
    conn.tenant = Some(tenant.to_owned());
}

/// Answers a frame the queue had no room for: a typed, retryable
/// `Overloaded` response, tracked-wrapped when the request was tracked
/// (and deliberately not entered into the reply cache, so the retry is
/// re-admitted). A corrupt envelope gets the corrupt-request reply a
/// worker would give it, so its client retries at once instead of
/// waiting out its read budget. This runs on the poll thread, which must
/// not wait on one peer: `false` means the reply could not be written
/// whole right now and the caller must close the connection.
fn shed_job(job: &Job) -> bool {
    let response = match Request::decode(&job.bytes) {
        Some(request) => request.reply(ResponseFrame {
            call_id: match Frame::decode(request.frame) {
                Ok(Frame::Call(call)) => call.call_id,
                _ => 0,
            },
            result: Err((
                RemoteErrorKind::Overloaded,
                "server queue full: retry after backoff".into(),
            )),
        }),
        None => corrupt_request_reply(),
    };
    match lock_unless_stalled(&job.write) {
        Some(mut stream) => write_reply(&mut stream, &response, Duration::ZERO),
        None => false,
    }
}

/// The write half of a connection, for the poll thread. A worker
/// mid-reply holds the lock for a few microseconds, which these yields
/// outlast — unless the peer has stopped reading and the worker is
/// sleeping through [`REPLY_WRITE_BUDGET`] with it; that is `None`.
fn lock_unless_stalled(write: &Mutex<TcpStream>) -> Option<MutexGuard<'_, TcpStream>> {
    for _ in 0..1000 {
        match write.try_lock() {
            Ok(stream) => return Some(stream),
            Err(TryLockError::WouldBlock) => std::thread::yield_now(),
            Err(TryLockError::Poisoned(_)) => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{ObjectRegistry, RemoteObject, ServerCtx};
    use crate::frame::{tracked_call, tracked_ok_reply, CallFrame};
    use crate::{Client, ObjectId, TcpTransport, Transport, Value};

    /// Echoes its first argument; `blob(n)` answers with `n` bytes.
    struct Ping;
    impl RemoteObject for Ping {
        fn invoke(&self, method: &str, args: Vec<Value>, _: &ServerCtx) -> Result<Value, RmiError> {
            let first = args.into_iter().next().unwrap_or(Value::Null);
            match (method, first.as_i64()) {
                ("blob", Some(n)) => Ok(Value::Bytes(vec![0xAB; n as usize])),
                _ => Ok(first),
            }
        }
    }

    /// Cuts `received` into whole frames, leaving what trails the last.
    fn whole_frames(received: &mut Vec<u8>) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| take_frame(received).ok().flatten()).collect()
    }

    #[test]
    fn pipelined_large_replies_arrive_as_whole_frames() {
        const CALLS: u64 = 200; // under the default queue capacity: none shed
        const BLOB: usize = 256 * 1024; // 50 MiB of replies: no socket buffer holds that
        let registry = Arc::new(ObjectRegistry::new());
        registry.register_root(Arc::new(Ping));
        let dispatcher = Arc::new(Dispatcher::new(registry));
        let server =
            MuxServer::bind("127.0.0.1:0", dispatcher, MuxServerConfig::default()).expect("bind");

        let mut peer = TcpStream::connect(server.addr()).expect("connect");
        peer.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        for call_id in 1..=CALLS {
            let request = Frame::Call(CallFrame {
                call_id,
                object: ObjectId::ROOT,
                method: "blob".into(),
                args: vec![Value::I64(BLOB as i64)],
                context: None,
                tenant: None,
            })
            .encode();
            peer.write_all(&len_prefix(request.len())).unwrap();
            peer.write_all(&request).unwrap();
        }
        peer.shutdown(Shutdown::Write).unwrap();
        // Read nothing until every call is queued, so the workers fill
        // the send buffer and start seeing `WouldBlock` (not needed for
        // the test to pass, only for it to catch a server that tears
        // frames when that happens).
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.stats().enqueued < CALLS {
            assert!(
                Instant::now() < deadline,
                "{} of {CALLS} calls queued",
                server.stats().enqueued
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut received = Vec::new();
        peer.read_to_end(&mut received).expect("read to EOF");

        let frames = whole_frames(&mut received);
        assert!(received.is_empty(), "{} stray bytes", received.len());
        let mut answered: Vec<u64> = frames
            .iter()
            .map(|frame| match Frame::decode(frame) {
                Ok(Frame::Response(ResponseFrame {
                    call_id,
                    result: Ok(Value::Bytes(blob)),
                })) if blob.len() == BLOB => call_id,
                other => panic!("not a whole reply: {other:?}"),
            })
            .collect();
        answered.sort_unstable();
        assert_eq!(answered, (1..=CALLS).collect::<Vec<_>>());
    }

    #[test]
    fn a_reply_that_cannot_be_written_whole_closes_the_connection() {
        // The poll thread's budget (shed replies) and a lapsing worker's.
        for budget in [Duration::ZERO, Duration::from_millis(20)] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nonblocking(true).unwrap();

            let reply = vec![7u8; 64 * 1024];
            let whole = (0..100_000)
                .take_while(|_| write_reply(&mut stream, &reply, budget))
                .count();
            assert!(whole < 100_000, "the send buffer never filled");
            assert!(
                !write_reply(&mut stream, &reply, budget),
                "a reply went out after a torn one"
            );

            // The peer gets every whole reply, at most one torn one, and
            // then EOF — never bytes that resume mid-frame.
            let mut received = Vec::new();
            peer.read_to_end(&mut received).expect("read to EOF");
            let frames = whole_frames(&mut received);
            assert_eq!(frames.len(), whole);
            assert!(frames.iter().all(|f| *f == reply));
            assert!(received.len() < 4 + reply.len());
        }
    }

    #[test]
    fn every_frame_shed_at_a_full_queue_gets_a_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let write = Arc::new(Mutex::new(stream));

        let call = Frame::Call(CallFrame {
            call_id: 9,
            object: ObjectId::ROOT,
            method: "ping".into(),
            args: vec![],
            context: None,
            tenant: None,
        })
        .encode();
        let overloaded = Frame::Response(ResponseFrame {
            call_id: 9,
            result: Err((
                RemoteErrorKind::Overloaded,
                "server queue full: retry after backoff".into(),
            )),
        })
        .encode();
        let mut corrupt = tracked_call(2, &call);
        *corrupt.last_mut().unwrap() ^= 0x01;
        for (bytes, expected) in [
            (call.clone(), overloaded.clone()),
            (tracked_call(1, &call), tracked_ok_reply(&overloaded)),
            // Answered as a worker would: the client retries now rather
            // than waiting out its read budget (forever, without one).
            (corrupt, corrupt_request_reply()),
        ] {
            let job = Job {
                bytes,
                write: Arc::clone(&write),
            };
            assert!(shed_job(&job));
            let mut prefix = [0u8; LEN_PREFIX];
            peer.read_exact(&mut prefix)
                .expect("a reply to the shed frame");
            let mut reply = vec![0; parse_len_prefix(prefix).unwrap()];
            peer.read_exact(&mut reply).unwrap();
            assert_eq!(reply, expected);
        }
    }

    #[test]
    fn oversized_length_prefix_closes_only_the_offending_connection() {
        let registry = Arc::new(ObjectRegistry::new());
        registry.register_root(Arc::new(Ping));
        let dispatcher = Arc::new(Dispatcher::new(registry));
        let server =
            MuxServer::bind("127.0.0.1:0", dispatcher, MuxServerConfig::default()).expect("bind");

        let mut hostile = TcpStream::connect(server.addr()).expect("connect");
        hostile
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        hostile.write_all(&[0xff; 4]).unwrap();
        // Disconnected: EOF or a reset — never a reply, never a timeout.
        let mut byte = [0u8; 1];
        match hostile.read(&mut byte) {
            Ok(n) => assert_eq!(n, 0, "a reply to an oversized frame"),
            Err(e) => assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "connection still open: {e}"
            ),
        }

        let polite: Arc<dyn Transport> =
            Arc::new(TcpTransport::connect(server.addr()).expect("connect"));
        let reply = Client::new(polite)
            .root()
            .invoke("ping", vec![Value::I64(7)]);
        assert_eq!(reply.unwrap(), Value::I64(7));
    }
}
