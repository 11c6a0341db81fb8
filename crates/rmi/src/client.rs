//! The client side: call marshalling and remote references.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vcad_obs::{context, Collector, TracedSpan};

use crate::cache::{Cache, CacheOutcome};
use crate::error::RmiError;
use crate::frame::{CallFrame, Frame};
use crate::hash::CanonicalHasher;
use crate::transport::Transport;
use crate::value::{ObjectId, Value};
use crate::wire::WireWriter;

/// The client-side memo of pure calls: one store of decoded results,
/// consulted where the call is still typed, so a hit skips marshalling
/// altogether and can be reported to the caller for fee accounting.
struct Memo {
    cache: Arc<Cache>,
    provider: String,
    cacheable: fn(&str) -> bool,
}

impl Memo {
    /// What the call *means*: provider, target object, method selector
    /// and marshalled arguments — never the call id, trace context or
    /// tenant, so traced and untraced clients share entries.
    fn key(&self, object: ObjectId, method: &str, args: &[Value]) -> u128 {
        let mut encoded = WireWriter::new();
        for arg in args {
            arg.write(&mut encoded);
        }
        let mut h = CanonicalHasher::new();
        h.write_str(&self.provider);
        h.write_u64(object.0);
        h.write_str(method);
        h.write_u64(args.len() as u64);
        h.write_raw(&encoded.into_bytes());
        h.finish()
    }
}

/// The largest encoded size of one argument tree.
const MAX_ARGUMENT_BYTES: usize = 64 << 10;

/// The longest string an argument may hold: room for a selector or a
/// catalog name, not for a netlist.
const MAX_STRING_BYTES: usize = 64;

/// The user-side IP protection, applied to every outgoing argument: it
/// may hold logic values, vectors, words, numbers, short strings, object
/// references and lists of them. Byte blobs, maps and long strings, the
/// containers design structure could be smuggled in, are refused, as is
/// any tree larger than [`MAX_ARGUMENT_BYTES`] on the wire.
fn check_port_data(arg: &Value) -> Result<(), RmiError> {
    fn walk(value: &Value) -> Result<(), RmiError> {
        match value {
            Value::Null
            | Value::Bool(_)
            | Value::I64(_)
            | Value::F64(_)
            | Value::Logic(_)
            | Value::Vec(_)
            | Value::Word(_)
            | Value::ObjectRef(_) => Ok(()),
            Value::Str(s) if s.len() <= MAX_STRING_BYTES => Ok(()),
            Value::Str(_) => Err(RmiError::SecurityViolation(
                "string longer than a method selector may carry design data".into(),
            )),
            Value::Bytes(_) => Err(RmiError::SecurityViolation(
                "opaque byte blobs may carry design data".into(),
            )),
            Value::Map(_) => Err(RmiError::SecurityViolation(
                "structured maps may carry design data".into(),
            )),
            Value::List(items) => items.iter().try_for_each(walk),
        }
    }
    if arg.encoded_len() > MAX_ARGUMENT_BYTES {
        return Err(RmiError::SecurityViolation(format!(
            "argument tree exceeds marshalling cap of {MAX_ARGUMENT_BYTES} bytes"
        )));
    }
    walk(arg)
}

/// A connection to one server through a [`Transport`].
///
/// Every call obeys one marshalling rule, the paper's strict argument
/// marshalling: only port-local data crosses the wire. An argument that
/// holds a byte blob, a map or a string longer than 64 bytes, or that
/// encodes to more than 64 KiB, fails the call with
/// [`RmiError::SecurityViolation`] before the memo or the transport sees
/// it.
///
/// `Client` is cheap to clone; clones share the transport and the
/// call-id counter. See the [crate-level example](crate#examples) for
/// end-to-end usage.
#[derive(Clone)]
pub struct Client {
    transport: Arc<dyn Transport>,
    next_call: Arc<AtomicU64>,
    obs: Collector,
    baggage: Arc<Vec<(String, String)>>,
    tenant: Option<Arc<str>>,
    memo: Option<Arc<Memo>>,
}

impl Client {
    /// Creates a client that sends port data only through `transport`.
    #[must_use]
    pub fn new(transport: Arc<dyn Transport>) -> Client {
        Client {
            transport,
            next_call: Arc::new(AtomicU64::new(1)),
            obs: Collector::disabled(),
            baggage: Arc::new(Vec::new()),
            tenant: None,
            memo: None,
        }
    }

    /// Routes a `client:{method}` span per invocation into `obs` and
    /// injects the span's [`TraceContext`](vcad_obs::TraceContext) into
    /// every outgoing call frame, so server-side spans parent under it.
    #[must_use]
    pub fn with_collector(mut self, obs: Collector) -> Client {
        self.obs = obs;
        self
    }

    /// Adds a baggage label (session, provider, …) carried in every
    /// injected trace context.
    #[must_use]
    pub fn with_baggage(mut self, key: &str, value: &str) -> Client {
        let mut baggage = (*self.baggage).clone();
        if let Some(slot) = baggage.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value.to_string();
        } else {
            baggage.push((key.to_string(), value.to_string()));
        }
        self.baggage = Arc::new(baggage);
        self
    }

    /// Stamps every outgoing call frame with `tenant` — the id the
    /// provider's admission control and fee ledger account the call to.
    /// Tenant-free clients keep the frozen v1/v2 encodings.
    #[must_use]
    pub fn with_tenant(mut self, tenant: &str) -> Client {
        self.tenant = Some(Arc::from(tenant));
        self
    }

    /// Memoizes calls to methods `cacheable` declares pure in `cache`:
    /// identical calls (same `provider`, object, method and arguments)
    /// reach the wire once, concurrent ones coalesce onto one flight, and
    /// error results are never stored. Entries belong to `provider` for
    /// epoch invalidation ([`Cache::bump_epoch`]), so one cache can serve
    /// clients of several providers. Every [`RemoteRef`] this client
    /// hands out inherits the memo.
    #[must_use]
    pub fn with_cache(
        mut self,
        cache: Arc<Cache>,
        provider: &str,
        cacheable: fn(&str) -> bool,
    ) -> Client {
        self.memo = Some(Arc::new(Memo {
            cache,
            provider: provider.to_owned(),
            cacheable,
        }));
        self
    }

    /// The tenant id this client stamps on calls, if any.
    #[must_use]
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// A reference to the server's root (bootstrap) object.
    #[must_use]
    pub fn root(&self) -> RemoteRef {
        self.object(ObjectId::ROOT)
    }

    /// A reference to an arbitrary exported object.
    #[must_use]
    pub fn object(&self, id: ObjectId) -> RemoteRef {
        RemoteRef {
            client: self.clone(),
            id,
        }
    }

    /// The transport this client talks through.
    #[must_use]
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Invokes `method`, reporting whether the result came from the memo
    /// (a hit or a coalesced flight) instead of this caller's own wire
    /// call.
    fn invoke(
        &self,
        object: ObjectId,
        method: &str,
        args: Vec<Value>,
    ) -> Result<(Value, bool), RmiError> {
        args.iter().try_for_each(check_port_data)?;
        // The call span parents under whatever is ambient (a controller
        // run, a scheduler instant); the frame carries its context so the
        // provider's dispatch span parents under this call.
        let mut span = self.obs.traced_span("rmi", format!("client:{method}"));
        let Some(memo) = self.memo.as_deref().filter(|m| (m.cacheable)(method)) else {
            return self
                .call_wire(object, method, args, &mut span)
                .map(|v| (v, false));
        };
        let key = memo.key(object, method, &args);
        let (value, outcome) = memo.cache.get_or_join(key, &memo.provider, || {
            self.call_wire(object, method, args, &mut span)
        })?;
        span.arg(
            "outcome",
            match outcome {
                CacheOutcome::Hit => "hit",
                CacheOutcome::Coalesced => "coalesced",
                CacheOutcome::Miss => "miss",
            },
        );
        Ok((value, outcome.avoided_wire_call()))
    }

    /// Builds, sends and decodes one call frame.
    fn call_wire(
        &self,
        object: ObjectId,
        method: &str,
        args: Vec<Value>,
        span: &mut TracedSpan,
    ) -> Result<Value, RmiError> {
        let call_id = self.next_call.fetch_add(1, Ordering::Relaxed);
        // When this client has no collector, fall back to the bare
        // ambient context so cross-process parenting still works.
        let context = span
            .context()
            .cloned()
            .or_else(context::current)
            .map(|mut ctx| {
                for (k, v) in self.baggage.iter() {
                    ctx.set_baggage(k, v);
                }
                ctx.set_baggage("method", method);
                ctx
            });
        let request = Frame::Call(CallFrame {
            call_id,
            object,
            method: method.to_owned(),
            args,
            context,
            tenant: self.tenant.as_deref().map(str::to_owned),
        })
        .encode();
        let response_bytes = self.transport.call(&request);
        span.arg("ok", u64::from(response_bytes.is_ok()));
        match Frame::decode(&response_bytes?)? {
            // Id 0 is the dispatcher answering a request it could not
            // decode far enough to learn the id: only ever an error.
            Frame::Response(r) if r.call_id == call_id || (r.call_id == 0 && r.result.is_err()) => {
                r.into_result()
            }
            Frame::Response(r) => Err(RmiError::Transport(format!(
                "response for call {} while waiting for {}",
                r.call_id, call_id
            ))),
            Frame::Call(_) => Err(RmiError::Transport(
                "peer sent a call frame as a response".into(),
            )),
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("next_call", &self.next_call.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A handle to one exported object on the peer — the "stub" of the
/// distributed-object model.
///
/// `RemoteRef` is cheap to clone and `Send + Sync`; concurrent invocations
/// through the same underlying transport are serialised by the transport.
#[derive(Clone, Debug)]
pub struct RemoteRef {
    client: Client,
    id: ObjectId,
}

impl RemoteRef {
    /// The referenced object's id.
    #[must_use]
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Invokes a method on the remote object.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] on marshalling, security, transport or
    /// remote-side failures.
    pub fn invoke(&self, method: &str, args: Vec<Value>) -> Result<Value, RmiError> {
        self.invoke_with_meta(method, args).map(|(value, _)| value)
    }

    /// [`RemoteRef::invoke`], also reporting whether the result was
    /// served from the client's memo ([`Client::with_cache`]) — `true`
    /// means this call put nothing on the wire, so no fee is due. Always
    /// `false` on a client without a memo.
    ///
    /// # Errors
    ///
    /// As [`RemoteRef::invoke`].
    pub fn invoke_with_meta(
        &self,
        method: &str,
        args: Vec<Value>,
    ) -> Result<(Value, bool), RmiError> {
        self.client.invoke(self.id, method, args)
    }

    /// Invokes a method expected to return an object reference and wraps
    /// it into a new `RemoteRef` on the same connection — the factory
    /// idiom used to instantiate remote components.
    ///
    /// # Errors
    ///
    /// As [`RemoteRef::invoke`], plus an application error when the result
    /// is not an object reference.
    pub fn invoke_object(&self, method: &str, args: Vec<Value>) -> Result<RemoteRef, RmiError> {
        let value = self.invoke(method, args)?;
        let id = value.as_object().ok_or_else(|| {
            RmiError::application(format!("`{method}` did not return an object reference"))
        })?;
        Ok(self.client.object(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Dispatcher, ObjectRegistry, RemoteObject, ServerCtx};
    use crate::transport::InProcTransport;
    use vcad_logic::{Logic, LogicVec, Word};

    struct Counter;
    impl RemoteObject for Counter {
        fn invoke(
            &self,
            method: &str,
            args: Vec<Value>,
            ctx: &ServerCtx,
        ) -> Result<Value, RmiError> {
            match method {
                "double" => {
                    let v = args[0]
                        .as_i64()
                        .ok_or_else(|| RmiError::bad_args("double"))?;
                    Ok(Value::I64(v * 2))
                }
                "make" => Ok(Value::ObjectRef(ctx.export(Arc::new(Counter)))),
                "not_an_object" => Ok(Value::Null),
                _ => Err(RmiError::unknown_method("Counter", method)),
            }
        }
    }

    fn client_and_transport() -> (Client, Arc<InProcTransport>) {
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Counter));
        let transport = Arc::new(InProcTransport::new(Arc::new(Dispatcher::new(reg))));
        (
            Client::new(Arc::clone(&transport) as Arc<dyn Transport>),
            transport,
        )
    }

    fn client() -> Client {
        client_and_transport().0
    }

    #[test]
    fn basic_invocation() {
        let c = client();
        let v = c.root().invoke("double", vec![Value::I64(21)]).unwrap();
        assert_eq!(v, Value::I64(42));
    }

    #[test]
    fn factory_returns_usable_ref() {
        let c = client();
        let obj = c.root().invoke_object("make", vec![]).unwrap();
        assert_ne!(obj.id(), ObjectId::ROOT);
        let v = obj.invoke("double", vec![Value::I64(5)]).unwrap();
        assert_eq!(v, Value::I64(10));
    }

    #[test]
    fn invoke_object_rejects_non_object() {
        let c = client();
        let err = c.root().invoke_object("not_an_object", vec![]).unwrap_err();
        assert!(err.to_string().contains("did not return an object"));
    }

    #[test]
    fn strict_client_blocks_leaky_arguments() {
        let (c, transport) = client_and_transport();
        let err = c
            .root()
            .invoke("double", vec![Value::Bytes(vec![0; 10])])
            .unwrap_err();
        assert!(matches!(err, RmiError::SecurityViolation(_)));
        assert_eq!(transport.stats().calls, 0, "nothing was sent");
    }

    #[test]
    fn port_data_accepts_simulation_values() {
        check_port_data(&Value::Vec(LogicVec::unknown(16))).unwrap();
        check_port_data(&Value::Word(Word::new(16, 99))).unwrap();
        check_port_data(&Value::List(vec![Value::Logic(Logic::X)])).unwrap();
        check_port_data(&Value::Str("estimate".into())).unwrap();
        check_port_data(&Value::Str("x".repeat(MAX_STRING_BYTES))).unwrap();
    }

    #[test]
    fn port_data_rejects_structure_carriers() {
        let violation =
            |v: Value| matches!(check_port_data(&v), Err(RmiError::SecurityViolation(_)));
        assert!(violation(Value::Bytes(vec![0; 8])));
        assert!(violation(Value::Map(vec![])));
        assert!(violation(Value::Str("x".repeat(MAX_STRING_BYTES + 1))));
        // Nested violations are found too.
        assert!(violation(Value::List(vec![Value::List(vec![
            Value::Bytes(vec![1])
        ])])));
    }

    #[test]
    fn size_cap_enforced() {
        // A vector encodes as a tag, its width and length-prefixed bytes
        // of four elements each: 9 bytes of framing.
        let at_cap = Value::Vec(LogicVec::zeros((MAX_ARGUMENT_BYTES - 9) * 4));
        assert_eq!(at_cap.encoded_len(), MAX_ARGUMENT_BYTES);
        check_port_data(&at_cap).unwrap();
        let over = Value::Vec(LogicVec::zeros((MAX_ARGUMENT_BYTES - 8) * 4));
        let err = check_port_data(&over).unwrap_err();
        assert!(
            matches!(&err, RmiError::SecurityViolation(m)
                if m == "argument tree exceeds marshalling cap of 65536 bytes"),
            "{err}"
        );
        // The cap is per argument, not per call.
        let (c, transport) = client_and_transport();
        let err = c
            .root()
            .invoke("double", vec![Value::I64(1), over])
            .unwrap_err();
        assert!(matches!(err, RmiError::SecurityViolation(_)));
        assert_eq!(transport.stats().calls, 0);
    }

    #[test]
    fn call_ids_are_unique() {
        let c = client();
        // Two calls through clones share the counter; both succeed with
        // matching ids checked internally.
        let c2 = c.clone();
        c.root().invoke("double", vec![Value::I64(1)]).unwrap();
        c2.root().invoke("double", vec![Value::I64(2)]).unwrap();
    }

    /// Answers every call with the same canned response frame.
    struct Canned(Vec<u8>);
    impl Transport for Canned {
        fn call(&self, _request: &[u8]) -> Result<Vec<u8>, RmiError> {
            Ok(self.0.clone())
        }
        fn stats(&self) -> crate::TransportStats {
            crate::TransportStats::default()
        }
    }

    fn canned(call_id: u64, result: Result<Value, (crate::RemoteErrorKind, String)>) -> Client {
        let frame = Frame::Response(crate::ResponseFrame { call_id, result });
        Client::new(Arc::new(Canned(frame.encode())))
    }

    #[test]
    fn an_ok_value_under_call_id_zero_answers_no_call() {
        let err = canned(0, Ok(Value::I64(7)))
            .root()
            .invoke("double", vec![Value::I64(1)])
            .unwrap_err();
        assert!(matches!(err, RmiError::Transport(_)), "{err:?}");
        // Some other call's id is just as wrong.
        let err = canned(99, Ok(Value::I64(7)))
            .root()
            .invoke("double", vec![Value::I64(1)])
            .unwrap_err();
        assert!(matches!(err, RmiError::Transport(_)), "{err:?}");
    }

    #[test]
    fn an_error_under_call_id_zero_is_the_dispatchers_reply() {
        // What `Dispatcher::handle_bytes` sends back for a request it
        // could not decode: the error must reach the caller as itself.
        let err = canned(
            0,
            Err((crate::RemoteErrorKind::Internal, "undecodable".into())),
        )
        .root()
        .invoke("double", vec![Value::I64(1)])
        .unwrap_err();
        assert!(matches!(err, RmiError::Remote { .. }), "{err:?}");
    }
}
