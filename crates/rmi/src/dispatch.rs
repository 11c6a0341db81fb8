//! The server side: exported objects and call dispatch.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::{Mutex, RwLock};

use vcad_obs::Collector;

use crate::admission::AdmissionControl;
use crate::error::{RemoteErrorKind, RmiError};
use crate::frame::{corrupt_request_reply, CallFrame, Frame, Request, ResponseFrame};
use crate::security::SecurityManager;
use crate::value::{ObjectId, Value};

/// An object exported by a server (the "skeleton"/private-part side of the
/// distributed-object model).
///
/// Implementations receive the decoded method selector and arguments and
/// return a marshallable [`Value`]. A method may export further objects
/// through [`ServerCtx::export`] and hand back their
/// [`Value::ObjectRef`] — the factory pattern the IP provider uses to
/// instantiate parametric components.
pub trait RemoteObject: Send + Sync {
    /// Handles one method invocation.
    ///
    /// # Errors
    ///
    /// Implementations return [`RmiError`] for unknown methods, bad
    /// arguments or domain failures; the dispatcher converts the error
    /// into a response frame.
    fn invoke(&self, method: &str, args: &[Value], ctx: &ServerCtx) -> Result<Value, RmiError>;

    /// A short human-readable description for diagnostics.
    fn describe(&self) -> &str {
        "remote object"
    }
}

/// The table of exported objects on one server.
///
/// Object id `0` ([`ObjectId::ROOT`]) is the bootstrap object clients reach
/// first, analogous to an RMI registry entry.
#[derive(Default)]
pub struct ObjectRegistry {
    objects: RwLock<HashMap<u64, Arc<dyn RemoteObject>>>,
    next: AtomicU64,
}

impl ObjectRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> ObjectRegistry {
        ObjectRegistry {
            objects: RwLock::new(HashMap::new()),
            next: AtomicU64::new(1),
        }
    }

    /// Installs the root (bootstrap) object, replacing any previous one.
    pub fn register_root(&self, object: Arc<dyn RemoteObject>) {
        self.objects
            .write()
            .unwrap()
            .insert(ObjectId::ROOT.0, object);
    }

    /// Exports an object under a fresh id.
    pub fn register(&self, object: Arc<dyn RemoteObject>) -> ObjectId {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.objects.write().unwrap().insert(id, object);
        ObjectId(id)
    }

    /// Withdraws an exported object. Returns `true` if it existed.
    pub fn unregister(&self, id: ObjectId) -> bool {
        self.objects.write().unwrap().remove(&id.0).is_some()
    }

    /// Looks up an exported object.
    #[must_use]
    pub fn get(&self, id: ObjectId) -> Option<Arc<dyn RemoteObject>> {
        self.objects.read().unwrap().get(&id.0).cloned()
    }

    /// Number of exported objects (including the root, if set).
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.read().unwrap().len()
    }

    /// Returns `true` when nothing is exported.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.read().unwrap().is_empty()
    }
}

/// Context handed to [`RemoteObject::invoke`], giving server-side methods
/// controlled access to their own registry.
pub struct ServerCtx {
    registry: Arc<ObjectRegistry>,
    self_id: ObjectId,
    tenant: Option<String>,
}

impl ServerCtx {
    /// Exports a new object and returns its id, for factory methods.
    #[must_use]
    pub fn export(&self, object: Arc<dyn RemoteObject>) -> ObjectId {
        self.registry.register(object)
    }

    /// Withdraws a previously exported object.
    pub fn withdraw(&self, id: ObjectId) -> bool {
        self.registry.unregister(id)
    }

    /// The id under which the currently invoked object is exported.
    #[must_use]
    pub fn self_id(&self) -> ObjectId {
        self.self_id
    }

    /// The tenant paying for this call: the id stamped on the call frame,
    /// `None` for tenant-free (v1/v2) frames.
    #[must_use]
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Withdraws the currently invoked object — the standard way for a
    /// component to honour a release request. The in-flight call still
    /// completes.
    pub fn withdraw_self(&self) -> bool {
        self.registry.unregister(self.self_id)
    }
}

/// Tracked responses a dispatcher remembers.
const REPLY_CACHE_CAPACITY: usize = 4096;

/// A bounded FIFO cache of the last [`REPLY_CACHE_CAPACITY`] tracked-call
/// responses, keyed by request id.
///
/// This is what turns retried non-idempotent calls into at-most-once
/// execution: a retry of an already-executed call replays the cached
/// response bytes instead of executing (and billing) again.
#[derive(Default)]
struct ReplyCache {
    replies: HashMap<u128, Vec<u8>>,
    order: VecDeque<u128>,
}

impl ReplyCache {
    fn get(&self, request_id: u128) -> Option<Vec<u8>> {
        self.replies.get(&request_id).cloned()
    }

    fn insert(&mut self, request_id: u128, response: Vec<u8>) {
        if self.replies.insert(request_id, response).is_none() {
            self.order.push_back(request_id);
        }
        if self.order.len() > REPLY_CACHE_CAPACITY {
            if let Some(evicted) = self.order.pop_front() {
                self.replies.remove(&evicted);
            }
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// Decodes call frames, dispatches them to exported objects and encodes
/// the responses. One dispatcher serves any number of transports.
pub struct Dispatcher {
    registry: Arc<ObjectRegistry>,
    security: SecurityManager,
    obs: Collector,
    replies: Mutex<ReplyCache>,
    admission: Option<Arc<AdmissionControl>>,
}

impl Dispatcher {
    /// Creates a dispatcher with a permissive result policy (servers
    /// legitimately return detection tables, which are maps).
    #[must_use]
    pub fn new(registry: Arc<ObjectRegistry>) -> Dispatcher {
        Dispatcher::with_security(registry, SecurityManager::permissive())
    }

    /// Creates a dispatcher that also polices outgoing results.
    #[must_use]
    pub fn with_security(registry: Arc<ObjectRegistry>, security: SecurityManager) -> Dispatcher {
        Dispatcher {
            registry,
            security,
            obs: Collector::disabled(),
            replies: Mutex::default(),
            admission: None,
        }
    }

    /// Routes dispatch metrics (`rmi.dispatch.*`, and per-method counters
    /// and latency histograms for the methods objects answer) and
    /// per-call spans into `obs`.
    #[must_use]
    pub fn with_collector(mut self, obs: Collector) -> Dispatcher {
        self.obs = obs;
        self
    }

    /// Gates every tenant-stamped call through `admission` before it
    /// dispatches: rate-shed calls get the retryable
    /// [`RemoteErrorKind::Overloaded`] response, quota-exhausted tenants
    /// the permanent `QuotaExceeded`. Unstamped (v1/v2) frames bypass
    /// tenant policy.
    #[must_use]
    pub fn with_admission(mut self, admission: Arc<AdmissionControl>) -> Dispatcher {
        self.admission = Some(admission);
        self
    }

    /// The admission gate, when one is installed.
    #[must_use]
    pub fn admission(&self) -> Option<&Arc<AdmissionControl>> {
        self.admission.as_ref()
    }

    /// The registry this dispatcher serves.
    #[must_use]
    pub fn registry(&self) -> &Arc<ObjectRegistry> {
        &self.registry
    }

    /// Tracked responses currently cached.
    #[must_use]
    pub fn reply_cache_len(&self) -> usize {
        self.replies.lock().unwrap().len()
    }

    /// Handles one decoded call.
    ///
    /// When the call carries a [`TraceContext`](vcad_obs::TraceContext),
    /// it becomes ambient for the call's duration: the dispatch span —
    /// and every provider-side span opened beneath it (estimator
    /// compute, fee ledger) — parents under the client's call span.
    #[must_use]
    pub fn handle(&self, call: &CallFrame) -> ResponseFrame {
        if let Some(admission) = &self.admission {
            if let Err(e) = admission.admit(call.tenant.as_deref()) {
                // Shed fast: no span, no object lookup — the whole point
                // is to cost almost nothing under overload.
                let metrics = self.obs.metrics();
                metrics.counter("rmi.dispatch.calls").inc();
                metrics.counter("rmi.dispatch.shed").inc();
                let (kind, message) = match e {
                    RmiError::Remote { kind, message } => (kind, message),
                    other => (RemoteErrorKind::Internal, other.to_string()),
                };
                return ResponseFrame {
                    call_id: call.call_id,
                    result: Err((kind, message)),
                };
            }
        }
        let started = std::time::Instant::now();
        let _ctx_guard = call
            .context
            .as_ref()
            .map(|ctx| vcad_obs::context::push(ctx.clone()));
        let mut span = self
            .obs
            .traced_span("rmi", format!("dispatch:{}", call.method));
        let result = self.dispatch(call);
        let metrics = self.obs.metrics();
        metrics.counter("rmi.dispatch.calls").inc();
        if result.is_err() {
            metrics.counter("rmi.dispatch.errors").inc();
        }
        // The method name is the peer's choice: only a method an object
        // answered gets metrics of its own, so unknown names cannot grow
        // the registry.
        let unanswered = matches!(
            result,
            Err(RmiError::Remote {
                kind: RemoteErrorKind::UnknownObject | RemoteErrorKind::UnknownMethod,
                ..
            })
        );
        if !unanswered {
            metrics
                .counter(&format!("rmi.method.{}.calls", call.method))
                .inc();
            metrics
                .histogram(&format!("rmi.method.{}.latency_ns", call.method))
                .record_duration(started.elapsed());
        }
        span.arg("object", call.object.0);
        span.arg("ok", u64::from(result.is_ok()));
        drop(span);
        ResponseFrame {
            call_id: call.call_id,
            result: result.map_err(|e| match e {
                RmiError::Remote { kind, message } => (kind, message),
                RmiError::SecurityViolation(msg) => (RemoteErrorKind::Security, msg),
                other => (RemoteErrorKind::Internal, other.to_string()),
            }),
        }
    }

    /// Handles one encoded request and returns the encoded response.
    ///
    /// A tracked-call envelope (see
    /// [`ResilientTransport`](crate::ResilientTransport)) is
    /// integrity-checked and deduplicated through the reply cache before
    /// its inner frame is dispatched: a retried request id replays the
    /// cached response instead of executing again. Malformed requests
    /// that still carry a decodable call id get an error response;
    /// undecodable garbage gets an error response with call id 0.
    ///
    /// Deduplication is exact for the retry pattern it serves — the
    /// client retries a call only after the previous attempt returned —
    /// and best-effort for concurrent duplicates of the same id, which a
    /// single client never produces.
    #[must_use]
    pub fn handle_bytes(&self, bytes: &[u8]) -> Vec<u8> {
        let metrics = self.obs.metrics();
        let Some(request) = Request::decode(bytes) else {
            // Only a tracked envelope can be corrupt.
            metrics.counter("rmi.dispatch.tracked_calls").inc();
            metrics.counter("rmi.dispatch.corrupt_requests").inc();
            return corrupt_request_reply();
        };
        let Some(request_id) = request.id else {
            return request.reply(self.handle_frame(request.frame));
        };
        metrics.counter("rmi.dispatch.tracked_calls").inc();
        if let Some(cached) = self.replies.lock().unwrap().get(request_id) {
            metrics.counter("rmi.dispatch.dedup_hits").inc();
            return cached;
        }
        let response = self.handle_frame(request.frame);
        // A load-shed response is transient by contract: memoizing it
        // would replay the shed to every retry of this request id. Let
        // the retry re-enter admission instead.
        let memoize = !response.is_shed();
        let reply = request.reply(response);
        if memoize {
            self.replies
                .lock()
                .unwrap()
                .insert(request_id, reply.clone());
        }
        reply
    }

    /// Decodes and handles one plain frame. A response frame sent as a
    /// request, or bytes that do not decode, get an error response.
    fn handle_frame(&self, frame: &[u8]) -> ResponseFrame {
        match Frame::decode(frame) {
            Ok(Frame::Call(call)) => self.handle(&call),
            Ok(Frame::Response(r)) => ResponseFrame {
                call_id: r.call_id,
                result: Err((
                    RemoteErrorKind::Internal,
                    "server received a response frame".into(),
                )),
            },
            Err(e) => ResponseFrame {
                call_id: 0,
                result: Err((RemoteErrorKind::Internal, format!("bad request: {e}"))),
            },
        }
    }

    fn dispatch(&self, call: &CallFrame) -> Result<Value, RmiError> {
        let object = self
            .registry
            .get(call.object)
            .ok_or_else(|| RmiError::unknown_object(call.object))?;
        let ctx = ServerCtx {
            registry: Arc::clone(&self.registry),
            self_id: call.object,
            tenant: call.tenant.clone(),
        };
        let result = object.invoke(&call.method, &call.args, &ctx)?;
        self.security.check_result(&result)?;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::security::MarshalPolicy;

    struct Echo;
    impl RemoteObject for Echo {
        fn invoke(&self, method: &str, args: &[Value], ctx: &ServerCtx) -> Result<Value, RmiError> {
            match method {
                "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
                "spawn" => Ok(Value::ObjectRef(ctx.export(Arc::new(Echo)))),
                "leak" => Ok(Value::Bytes(vec![1, 2, 3])),
                "whoami" => Ok(ctx.tenant().map_or(Value::Null, |t| Value::Str(t.into()))),
                _ => Err(RmiError::unknown_method("Echo", method)),
            }
        }
    }

    fn call(method: &str, args: Vec<Value>) -> CallFrame {
        CallFrame {
            call_id: 1,
            object: ObjectId::ROOT,
            method: method.into(),
            args,
            context: None,
            tenant: None,
        }
    }

    #[test]
    fn dispatch_to_root() {
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Echo));
        let d = Dispatcher::new(Arc::clone(&reg));
        let resp = d.handle(&call("echo", vec![Value::I64(5)]));
        assert_eq!(resp.result, Ok(Value::I64(5)));
    }

    #[test]
    fn unknown_object_and_method() {
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Echo));
        let d = Dispatcher::new(Arc::clone(&reg));
        let mut c = call("echo", vec![]);
        c.object = ObjectId(404);
        assert!(matches!(
            d.handle(&c).result,
            Err((RemoteErrorKind::UnknownObject, _))
        ));
        assert!(matches!(
            d.handle(&call("nope", vec![])).result,
            Err((RemoteErrorKind::UnknownMethod, _))
        ));
    }

    #[test]
    fn factory_exports_new_objects() {
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Echo));
        let d = Dispatcher::new(Arc::clone(&reg));
        let resp = d.handle(&call("spawn", vec![]));
        let id = resp.result.unwrap().as_object().unwrap();
        assert!(reg.get(id).is_some());
        // The new object answers too.
        let mut c = call("echo", vec![Value::Bool(true)]);
        c.object = id;
        assert_eq!(d.handle(&c).result, Ok(Value::Bool(true)));
        assert!(reg.unregister(id));
        assert!(reg.get(id).is_none());
    }

    #[test]
    fn strict_server_blocks_leaky_results() {
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Echo));
        let d = Dispatcher::with_security(
            Arc::clone(&reg),
            SecurityManager::new(MarshalPolicy::port_data_only()),
        );
        assert!(matches!(
            d.handle(&call("leak", vec![])).result,
            Err((RemoteErrorKind::Security, _))
        ));
    }

    #[test]
    fn handle_bytes_round_trip() {
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Echo));
        let d = Dispatcher::new(reg);
        let req = Frame::Call(call("echo", vec![Value::Str("hi".into())])).encode();
        let resp_bytes = d.handle_bytes(&req);
        match Frame::decode(&resp_bytes).unwrap() {
            Frame::Response(r) => assert_eq!(r.result, Ok(Value::Str("hi".into()))),
            Frame::Call(_) => panic!("expected response"),
        }
    }

    #[test]
    fn frame_tenant_reaches_invoke_and_does_not_outlive_its_call() {
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Echo));
        let d = Dispatcher::new(reg);
        let whoami = |tenant: Option<&str>| {
            let mut c = call("whoami", vec![]);
            c.tenant = tenant.map(str::to_owned);
            match Frame::decode(&d.handle_bytes(&Frame::Call(c).encode())).unwrap() {
                Frame::Response(r) => r.result.unwrap(),
                Frame::Call(_) => panic!("expected response"),
            }
        };
        // A v3 frame's tenant is the call's context...
        assert_eq!(whoami(Some("acme")), Value::Str("acme".into()));
        // ...and a v1 frame served next on the same thread sees none.
        assert_eq!(whoami(None), Value::Null);
    }

    #[test]
    fn dispatcher_records_per_method_metrics() {
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Echo));
        let obs = Collector::enabled();
        let d = Dispatcher::new(reg).with_collector(obs.clone());
        let _ = d.handle(&call("echo", vec![Value::I64(1)]));
        let _ = d.handle(&call("echo", vec![Value::I64(2)]));
        let _ = d.handle(&call("nope", vec![]));
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters.get("rmi.dispatch.calls"), Some(&3));
        assert_eq!(snap.counters.get("rmi.dispatch.errors"), Some(&1));
        assert_eq!(snap.counters.get("rmi.method.echo.calls"), Some(&2));
        assert_eq!(snap.counters.get("rmi.method.nope.calls"), None);
        let h = snap.histograms.get("rmi.method.echo.latency_ns").unwrap();
        assert_eq!(h.count, 2);
        // One span per handled call.
        let trace = obs.trace();
        assert_eq!(trace.events_named("dispatch:").len(), 3);
        // Names a peer makes up cost an error count each, no new metric.
        let keys = |snap: &vcad_obs::MetricsSnapshot| {
            snap.counters.len()
                + snap.float_counters.len()
                + snap.gauges.len()
                + snap.histograms.len()
        };
        for i in 0..10_000 {
            let _ = d.handle(&call(&format!("probe{i}"), vec![]));
        }
        let after = obs.metrics().snapshot();
        assert_eq!(keys(&after), keys(&snap));
        assert_eq!(after.counter("rmi.dispatch.errors"), 10_001);
    }

    #[test]
    fn tracked_calls_deduplicate_and_replay() {
        use crate::frame::{
            open_tracked_reply as decode_tracked_resp, tracked_call as encode_tracked_call,
            TrackedResponse,
        };
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Echo));
        let obs = Collector::disabled();
        let d = Dispatcher::new(reg).with_collector(obs.clone());
        let inner = Frame::Call(call("spawn", vec![])).encode();
        let tracked = encode_tracked_call(0xA1, &inner);
        let first = d.handle_bytes(&tracked);
        let replay = d.handle_bytes(&tracked);
        // Byte-identical replay: "spawn" ran once, not twice.
        assert_eq!(first, replay);
        assert_eq!(d.reply_cache_len(), 1);
        let TrackedResponse::Ok(payload) = decode_tracked_resp(&first).unwrap() else {
            panic!("expected ok envelope");
        };
        match Frame::decode(payload).unwrap() {
            Frame::Response(r) => assert!(r.result.is_ok()),
            Frame::Call(_) => panic!("expected response"),
        }
        // Only the registry root plus the single spawned object exist.
        assert_eq!(d.registry().len(), 2);
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("rmi.dispatch.tracked_calls"), 2);
        assert_eq!(snap.counter("rmi.dispatch.dedup_hits"), 1);
        // The inner frame dispatched once.
        assert_eq!(snap.counter("rmi.dispatch.calls"), 1);
    }

    #[test]
    fn corrupted_tracked_calls_execute_nothing() {
        use crate::frame::{
            open_tracked_reply as decode_tracked_resp, tracked_call as encode_tracked_call,
            TrackedResponse,
        };
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Echo));
        let obs = Collector::disabled();
        let d = Dispatcher::new(reg).with_collector(obs.clone());
        let inner = Frame::Call(call("echo", vec![Value::I64(1)])).encode();
        let mut tracked = encode_tracked_call(0xB2, &inner);
        let last = tracked.len() - 1;
        tracked[last] ^= 0x10;
        let resp = d.handle_bytes(&tracked);
        assert!(matches!(
            decode_tracked_resp(&resp).unwrap(),
            TrackedResponse::CorruptRequest
        ));
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("rmi.dispatch.corrupt_requests"), 1);
        assert_eq!(snap.counter("rmi.dispatch.calls"), 0);
        assert_eq!(d.reply_cache_len(), 0);
    }

    #[test]
    fn reply_cache_is_bounded_fifo() {
        use crate::frame::tracked_call as encode_tracked_call;
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Echo));
        let obs = Collector::disabled();
        let d = Dispatcher::new(reg).with_collector(obs.clone());
        let inner = Frame::Call(call("echo", vec![])).encode();
        let overflow = 10;
        for id in 0..(REPLY_CACHE_CAPACITY + overflow) as u128 {
            let _ = d.handle_bytes(&encode_tracked_call(id, &inner));
        }
        assert_eq!(d.reply_cache_len(), REPLY_CACHE_CAPACITY);
        let executed = || obs.metrics().snapshot().counter("rmi.dispatch.calls");
        let before = executed();
        // The newest replay; the oldest were evicted and execute again.
        let _ = d.handle_bytes(&encode_tracked_call(REPLY_CACHE_CAPACITY as u128, &inner));
        assert_eq!(executed(), before);
        let _ = d.handle_bytes(&encode_tracked_call(0, &inner));
        assert_eq!(executed(), before + 1);
    }

    #[test]
    fn handle_bytes_survives_garbage() {
        let reg = Arc::new(ObjectRegistry::new());
        let d = Dispatcher::new(reg);
        let resp_bytes = d.handle_bytes(&[0xFF, 0x00, 0x13]);
        match Frame::decode(&resp_bytes).unwrap() {
            Frame::Response(r) => {
                assert!(matches!(r.result, Err((RemoteErrorKind::Internal, _))));
            }
            Frame::Call(_) => panic!("expected response"),
        }
    }
}
