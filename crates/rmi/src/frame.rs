//! Call and response frames, and the tracked envelope around them: the
//! one place the layout of a message on the wire is known.
//!
//! ## Versioning
//!
//! The original (v1) call frame has no version byte — its tag is
//! followed directly by the call body, and that encoding is frozen
//! forever: a context-free call still encodes byte-identically to the
//! seed, which keeps cache keys and golden outputs stable. Calls that
//! carry a [`TraceContext`] (but no tenant) use the `TAG_CALL_V2`
//! envelope: tag, an explicit version byte (`2`, frozen), the trace
//! context, then the unchanged v1 body. Calls that carry a tenant id use
//! the `TAG_CALL_V3` envelope: tag, version byte (`FRAME_VERSION`),
//! the tenant string, a presence byte plus the optional trace context,
//! then the unchanged v1 body. A decoder seeing a *future* version on
//! either envelope reports [`WireError::UnsupportedVersion`] rather than
//! misparsing.
//!
//! ## Tracked envelope
//!
//! A [`ResilientTransport`](crate::ResilientTransport) sends every call
//! as `TAG_TRACKED_CALL`: tag, the 128-bit request id, an FNV-1a checksum
//! of the payload, then the length-prefixed payload (a plain call frame).
//! The server answers `TAG_TRACKED_RESP`: tag, a status byte (ok or
//! corrupt request), the checksum, then the length-prefixed plain reply.
//! The checksum covers the payload only, not the request id.

use vcad_obs::context::MAX_BAGGAGE;
use vcad_obs::TraceContext;

use crate::error::{RemoteErrorKind, RmiError};
use crate::value::{ObjectId, Value};
use crate::wire::{WireError, WireReader, WireWriter};

const TAG_CALL: u8 = 0;
const TAG_OK: u8 = 1;
const TAG_ERR: u8 = 2;
/// Tracked (deduplicatable, integrity-checked) call envelope.
const TAG_TRACKED_CALL: u8 = 3;
/// Tracked response envelope.
const TAG_TRACKED_RESP: u8 = 4;
/// Versioned call envelope (call frames carrying a trace context).
const TAG_CALL_V2: u8 = 5;
/// Versioned call envelope (call frames carrying a tenant id and,
/// optionally, a trace context).
const TAG_CALL_V3: u8 = 6;

/// The version byte the frozen v2 envelope carries, forever.
const V2_VERSION: u8 = 2;

/// The frame-format revision this build encodes and decodes.
pub(crate) const FRAME_VERSION: u8 = 3;

/// Tracked response status: the payload is the reply.
const RESP_OK: u8 = 0;
/// Tracked response status: the request arrived corrupted and nothing
/// executed.
const RESP_CORRUPT_REQUEST: u8 = 1;

/// A method invocation request.
///
/// # Examples
///
/// ```
/// use vcad_rmi::{CallFrame, Frame, ObjectId, Value};
///
/// let call = CallFrame {
///     call_id: 7,
///     object: ObjectId::ROOT,
///     method: "estimate".into(),
///     args: vec![Value::Str("power".into())],
///     context: None,
///     tenant: None,
/// };
/// let bytes = Frame::Call(call.clone()).encode();
/// assert_eq!(Frame::decode(&bytes)?, Frame::Call(call));
/// # Ok::<(), vcad_rmi::WireError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CallFrame {
    /// Client-chosen id echoed in the response.
    pub call_id: u64,
    /// The target exported object.
    pub object: ObjectId,
    /// The method selector.
    pub method: String,
    /// Marshalled arguments.
    pub args: Vec<Value>,
    /// Distributed trace context, when the caller is traced. `None`
    /// (with no tenant) encodes as the frozen v1 format.
    pub context: Option<TraceContext>,
    /// The paying tenant the call is accounted to, when the caller
    /// identifies one. Selects the v3 envelope on the wire.
    pub tenant: Option<String>,
}

fn write_context(w: &mut WireWriter, ctx: &TraceContext) {
    w.u64(ctx.trace_id);
    w.u64(ctx.span_id);
    let n = ctx.baggage.len().min(MAX_BAGGAGE);
    w.u32(n as u32);
    for (k, v) in ctx.baggage.iter().take(n) {
        w.str(k);
        w.str(v);
    }
}

fn read_context(r: &mut WireReader<'_>) -> Result<TraceContext, WireError> {
    let trace_id = r.u64()?;
    let span_id = r.u64()?;
    let n = r.u32()? as usize;
    if n > MAX_BAGGAGE {
        return Err(WireError::BadValue("trace baggage count"));
    }
    let mut baggage = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.str()?.to_owned();
        let v = r.str()?.to_owned();
        baggage.push((k, v));
    }
    Ok(TraceContext {
        trace_id,
        span_id,
        baggage,
    })
}

/// Whether `bytes` encode an error response of the transient
/// [`RemoteErrorKind::Overloaded`] kind: the client's view of
/// [`ResponseFrame::is_shed`], read off the header without decoding.
pub(crate) fn response_is_shed(bytes: &[u8]) -> bool {
    // TAG_ERR layout: tag, u64 call id, kind code, message.
    bytes.first() == Some(&TAG_ERR) && bytes.get(9) == Some(&RemoteErrorKind::Overloaded.code())
}

/// The tenant a call frame is stamped with, read from its v3 header
/// alone; `None` for every other frame.
pub(crate) fn peek_tenant(frame: &[u8]) -> Option<&str> {
    let mut r = WireReader::new(frame);
    if r.u8().ok()? != TAG_CALL_V3 || r.u8().ok()? != FRAME_VERSION {
        return None;
    }
    r.str().ok()
}

/// A method invocation response.
#[derive(Clone, Debug, PartialEq)]
pub struct ResponseFrame {
    /// The id of the call being answered.
    pub call_id: u64,
    /// The method's result, or the error the server reported.
    pub result: Result<Value, (RemoteErrorKind, String)>,
}

impl ResponseFrame {
    /// Converts the response into the client-facing result type.
    ///
    /// # Errors
    ///
    /// Maps a remote error report onto [`RmiError::Remote`].
    pub fn into_result(self) -> Result<Value, RmiError> {
        self.result
            .map_err(|(kind, message)| RmiError::Remote { kind, message })
    }

    /// Whether this is a load shed ([`RemoteErrorKind::Overloaded`]).
    /// The dispatcher's reply cache must not memoize these: a retried
    /// request id would replay the shed forever instead of being
    /// re-admitted once the backlog drains.
    pub(crate) fn is_shed(&self) -> bool {
        matches!(self.result, Err((RemoteErrorKind::Overloaded, _)))
    }
}

/// A wire frame: either a call or a response.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A request from client to server.
    Call(CallFrame),
    /// A reply from server to client.
    Response(ResponseFrame),
}

impl Frame {
    /// Encodes the frame to bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Frame::Call(c) => {
                match (&c.tenant, &c.context) {
                    (None, None) => w.u8(TAG_CALL),
                    (None, Some(ctx)) => {
                        w.u8(TAG_CALL_V2);
                        w.u8(V2_VERSION);
                        write_context(&mut w, ctx);
                    }
                    (Some(tenant), ctx) => {
                        w.u8(TAG_CALL_V3);
                        w.u8(FRAME_VERSION);
                        w.str(tenant);
                        match ctx {
                            None => w.u8(0),
                            Some(ctx) => {
                                w.u8(1);
                                write_context(&mut w, ctx);
                            }
                        }
                    }
                }
                w.u64(c.call_id);
                w.u64(c.object.0);
                w.str(&c.method);
                w.u32(c.args.len() as u32);
                for a in &c.args {
                    a.write(&mut w);
                }
            }
            Frame::Response(r) => match &r.result {
                Ok(v) => {
                    w.u8(TAG_OK);
                    w.u64(r.call_id);
                    v.write(&mut w);
                }
                Err((kind, message)) => {
                    w.u8(TAG_ERR);
                    w.u64(r.call_id);
                    w.u8(kind.code());
                    w.str(message);
                }
            },
        }
        w.into_bytes()
    }

    /// Decodes a frame, requiring full consumption of the buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        fn call_body(
            r: &mut WireReader<'_>,
            context: Option<TraceContext>,
            tenant: Option<String>,
        ) -> Result<Frame, WireError> {
            let call_id = r.u64()?;
            let object = ObjectId(r.u64()?);
            let method = r.str()?.to_owned();
            let argc = r.u32()? as usize;
            let mut args = Vec::with_capacity(argc.min(4096));
            for _ in 0..argc {
                args.push(Value::read(r)?);
            }
            Ok(Frame::Call(CallFrame {
                call_id,
                object,
                method,
                args,
                context,
                tenant,
            }))
        }
        let mut r = WireReader::new(bytes);
        let frame = match r.u8()? {
            TAG_CALL => call_body(&mut r, None, None)?,
            TAG_CALL_V2 => {
                let version = r.u8()?;
                if version != V2_VERSION {
                    return Err(WireError::UnsupportedVersion(version));
                }
                let ctx = read_context(&mut r)?;
                call_body(&mut r, Some(ctx), None)?
            }
            TAG_CALL_V3 => {
                let version = r.u8()?;
                if version != FRAME_VERSION {
                    return Err(WireError::UnsupportedVersion(version));
                }
                let tenant = r.str()?.to_owned();
                let ctx = match r.u8()? {
                    0 => None,
                    1 => Some(read_context(&mut r)?),
                    _ => return Err(WireError::BadValue("trace context presence byte")),
                };
                call_body(&mut r, ctx, Some(tenant))?
            }
            TAG_OK => {
                let call_id = r.u64()?;
                let value = Value::read(&mut r)?;
                Frame::Response(ResponseFrame {
                    call_id,
                    result: Ok(value),
                })
            }
            TAG_ERR => {
                let call_id = r.u64()?;
                let kind = RemoteErrorKind::from_code(r.u8()?)
                    .ok_or(WireError::BadValue("remote error code"))?;
                let message = r.str()?.to_owned();
                Frame::Response(ResponseFrame {
                    call_id,
                    result: Err((kind, message)),
                })
            }
            other => return Err(WireError::BadTag(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// FNV-1a over `bytes`; the integrity check of tracked envelopes.
#[must_use]
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A request as a server receives it, its envelope decoded and
/// integrity-checked once.
pub(crate) struct Request<'a> {
    /// The request id of a tracked envelope; `None` for a plain frame.
    pub(crate) id: Option<u128>,
    /// The frame itself, borrowed from inside any envelope.
    pub(crate) frame: &'a [u8],
}

impl<'a> Request<'a> {
    /// Unwraps `bytes` when they are a tracked envelope. `None` is a
    /// tracked envelope that is malformed, fails its checksum or wraps a
    /// second envelope: nothing inside may execute.
    pub(crate) fn decode(bytes: &'a [u8]) -> Option<Request<'a>> {
        if bytes.first() != Some(&TAG_TRACKED_CALL) {
            return Some(Request {
                id: None,
                frame: bytes,
            });
        }
        let (id, frame) = open_tracked_call(bytes).ok()?;
        // A nested envelope is never legitimate; refuse it rather than
        // unwrap twice.
        (frame.first() != Some(&TAG_TRACKED_CALL)).then_some(Request {
            id: Some(id),
            frame,
        })
    }

    /// Encodes the reply to this request: the response frame, wrapped in
    /// a tracked envelope when the request came in one.
    pub(crate) fn reply(&self, response: ResponseFrame) -> Vec<u8> {
        let frame = Frame::Response(response).encode();
        match self.id {
            Some(_) => tracked_ok_reply(&frame),
            None => frame,
        }
    }
}

/// Wraps an encoded response frame in a tracked "ok" envelope.
pub(crate) fn tracked_ok_reply(payload: &[u8]) -> Vec<u8> {
    seal(TAG_TRACKED_RESP, |w| w.u8(RESP_OK), payload)
}

/// The reply to a corrupt tracked envelope: "your request arrived
/// corrupted, nothing executed", which the client retries.
pub(crate) fn corrupt_request_reply() -> Vec<u8> {
    seal(TAG_TRACKED_RESP, |w| w.u8(RESP_CORRUPT_REQUEST), &[])
}

/// Wraps an encoded call in a tracked envelope under `request_id`.
#[must_use]
pub(crate) fn tracked_call(request_id: u128, payload: &[u8]) -> Vec<u8> {
    seal(TAG_TRACKED_CALL, |w| w.u128(request_id), payload)
}

/// Encodes a tracked envelope: `tag`, the header `head` writes, the
/// payload's checksum, then the length-prefixed payload.
fn seal(tag: u8, head: impl FnOnce(&mut WireWriter), payload: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(tag);
    head(&mut w);
    w.u64(fnv1a64(payload));
    w.bytes(payload);
    w.into_bytes()
}

/// Decodes a tracked envelope [`seal`] wrote under `tag`, returning the
/// header `head` reads and the borrowed payload.
///
/// # Errors
///
/// Returns a [`WireError`] when the envelope is malformed or the payload
/// checksum does not match (it was corrupted in flight).
fn open<'a, H>(
    bytes: &'a [u8],
    tag: u8,
    head: impl FnOnce(&mut WireReader<'a>) -> Result<H, WireError>,
) -> Result<(H, &'a [u8]), WireError> {
    let mut r = WireReader::new(bytes);
    match r.u8()? {
        t if t == tag => {}
        other => return Err(WireError::BadTag(other)),
    }
    let head = head(&mut r)?;
    let checksum = r.u64()?;
    let payload = r.bytes()?;
    r.finish()?;
    if fnv1a64(payload) != checksum {
        return Err(WireError::BadValue(match tag {
            TAG_TRACKED_CALL => "tracked call checksum mismatch",
            _ => "tracked response checksum mismatch",
        }));
    }
    Ok((head, payload))
}

/// Decodes and integrity-checks a tracked call envelope: the request id
/// and the borrowed payload.
///
/// # Errors
///
/// As [`open`].
pub(crate) fn open_tracked_call(bytes: &[u8]) -> Result<(u128, &[u8]), WireError> {
    open(bytes, TAG_TRACKED_CALL, WireReader::u128)
}

/// The decoded form of a tracked response envelope.
pub(crate) enum TrackedResponse<P> {
    /// The inner response payload, integrity-checked.
    Ok(P),
    /// The server received a corrupted request and executed nothing.
    CorruptRequest,
}

/// Decodes and integrity-checks a tracked response envelope, borrowing
/// its payload.
///
/// # Errors
///
/// As [`open`], plus [`WireError::BadTag`] for an unknown status.
pub(crate) fn open_tracked_reply(bytes: &[u8]) -> Result<TrackedResponse<&[u8]>, WireError> {
    let (status, payload) = open(bytes, TAG_TRACKED_RESP, WireReader::u8)?;
    match status {
        RESP_OK => Ok(TrackedResponse::Ok(payload)),
        RESP_CORRUPT_REQUEST => Ok(TrackedResponse::CorruptRequest),
        other => Err(WireError::BadTag(other)),
    }
}

/// [`open_tracked_reply`] on an owned envelope: the payload keeps the
/// envelope's buffer instead of being copied out of it.
///
/// # Errors
///
/// As [`open_tracked_reply`].
pub(crate) fn unwrap_tracked_reply(
    mut envelope: Vec<u8>,
) -> Result<TrackedResponse<Vec<u8>>, WireError> {
    let len = match open_tracked_reply(&envelope)? {
        TrackedResponse::Ok(payload) => payload.len(),
        TrackedResponse::CorruptRequest => return Ok(TrackedResponse::CorruptRequest),
    };
    // The payload is the envelope's tail.
    envelope.drain(..envelope.len() - len);
    Ok(TrackedResponse::Ok(envelope))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcad_logic::Word;

    #[test]
    fn call_round_trip() {
        let call = CallFrame {
            call_id: u64::MAX,
            object: ObjectId(17),
            method: "processInputEvent".into(),
            args: vec![
                Value::Word(Word::new(16, 0x1234)),
                Value::List(vec![Value::Null]),
            ],
            context: None,
            tenant: None,
        };
        let bytes = Frame::Call(call.clone()).encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), Frame::Call(call));
    }

    #[test]
    fn traced_call_round_trips_context_and_baggage() {
        let call = CallFrame {
            call_id: 11,
            object: ObjectId(4),
            method: "POWER_TOGGLE".into(),
            args: vec![Value::I64(3)],
            context: Some(TraceContext {
                trace_id: 0xABCD,
                span_id: 42,
                baggage: vec![
                    ("session".into(), "s-1".into()),
                    ("provider".into(), "provider1.example.com".into()),
                    ("method".into(), "POWER_TOGGLE".into()),
                ],
            }),
            tenant: None,
        };
        let bytes = Frame::Call(call.clone()).encode();
        assert_eq!(bytes[0], TAG_CALL_V2);
        assert_eq!(bytes[1], V2_VERSION);
        assert_eq!(Frame::decode(&bytes).unwrap(), Frame::Call(call));
    }

    #[test]
    fn context_free_frames_keep_the_frozen_v1_encoding() {
        // Compatibility both ways: a context-free frame from this build
        // starts with the legacy tag, and a hand-built legacy frame
        // (what an old peer sends) decodes with `context: None`.
        let call = CallFrame {
            call_id: 5,
            object: ObjectId(2),
            method: "AREA".into(),
            args: vec![],
            context: None,
            tenant: None,
        };
        let bytes = Frame::Call(call.clone()).encode();
        assert_eq!(bytes[0], TAG_CALL);

        let mut legacy = WireWriter::new();
        legacy.u8(TAG_CALL);
        legacy.u64(5);
        legacy.u64(2);
        legacy.str("AREA");
        legacy.u32(0);
        assert_eq!(bytes, legacy.into_bytes());
        assert_eq!(Frame::decode(&bytes).unwrap(), Frame::Call(call));
    }

    #[test]
    fn future_frame_version_is_a_typed_error() {
        // Either envelope carrying a version it does not understand is a
        // typed error, not a misparse.
        for (tag, version) in [
            (TAG_CALL_V2, FRAME_VERSION),
            (TAG_CALL_V3, FRAME_VERSION + 1),
        ] {
            let mut w = WireWriter::new();
            w.u8(tag);
            w.u8(version);
            w.u64(1); // would-be body of a format we don't know
            let bytes = w.into_bytes();
            assert_eq!(
                Frame::decode(&bytes),
                Err(WireError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn tenant_call_round_trips_with_and_without_context() {
        let bare = CallFrame {
            call_id: 21,
            object: ObjectId(3),
            method: "AREA".into(),
            args: vec![],
            context: None,
            tenant: Some("acme".into()),
        };
        let bytes = Frame::Call(bare.clone()).encode();
        assert_eq!(bytes[0], TAG_CALL_V3);
        assert_eq!(bytes[1], FRAME_VERSION);
        assert_eq!(Frame::decode(&bytes).unwrap(), Frame::Call(bare));

        let traced = CallFrame {
            call_id: 22,
            object: ObjectId(3),
            method: "POWER_TOGGLE".into(),
            args: vec![Value::I64(9)],
            context: Some(TraceContext {
                trace_id: 0xFEED,
                span_id: 8,
                baggage: vec![("tenant".into(), "acme".into())],
            }),
            tenant: Some("acme".into()),
        };
        let bytes = Frame::Call(traced.clone()).encode();
        assert_eq!(bytes[0], TAG_CALL_V3);
        assert_eq!(Frame::decode(&bytes).unwrap(), Frame::Call(traced));
    }

    #[test]
    fn tenant_is_peeked_from_the_v3_header_alone() {
        let call = |context: Option<TraceContext>, tenant: Option<&str>| {
            Frame::Call(CallFrame {
                call_id: 1,
                object: ObjectId::ROOT,
                method: "m".into(),
                args: vec![],
                context,
                tenant: tenant.map(str::to_owned),
            })
            .encode()
        };
        let ctx = TraceContext {
            trace_id: 1,
            span_id: 2,
            baggage: vec![],
        };
        assert_eq!(peek_tenant(&call(None, Some("acme"))), Some("acme"));
        let traced = call(Some(ctx.clone()), Some("acme"));
        assert_eq!(peek_tenant(&traced), Some("acme"));
        // The header suffices: a body cut short does not hide the stamp.
        assert_eq!(peek_tenant(&traced[..10]), Some("acme"));
        assert_eq!(peek_tenant(&traced[..9]), None);
        assert_eq!(peek_tenant(&call(None, None)), None);
        assert_eq!(peek_tenant(&call(Some(ctx), None)), None);
        let ok = Frame::Response(ResponseFrame {
            call_id: 1,
            result: Ok(Value::Null),
        });
        assert_eq!(peek_tenant(&ok.encode()), None);
    }

    #[test]
    fn tenant_call_with_bad_context_presence_byte_is_rejected() {
        let mut w = WireWriter::new();
        w.u8(TAG_CALL_V3);
        w.u8(FRAME_VERSION);
        w.str("acme");
        w.u8(7); // neither "absent" nor "present"
        assert_eq!(
            Frame::decode(&w.into_bytes()),
            Err(WireError::BadValue("trace context presence byte"))
        );
    }

    #[test]
    fn oversized_baggage_is_rejected() {
        let call = CallFrame {
            call_id: 1,
            object: ObjectId::ROOT,
            method: "m".into(),
            args: vec![],
            context: Some(TraceContext {
                trace_id: 1,
                span_id: 2,
                baggage: (0..40).map(|i| (format!("k{i}"), "v".into())).collect(),
            }),
            tenant: None,
        };
        // The encoder truncates to the cap...
        let bytes = Frame::Call(call).encode();
        match Frame::decode(&bytes).unwrap() {
            Frame::Call(c) => assert_eq!(c.context.unwrap().baggage.len(), MAX_BAGGAGE),
            Frame::Response(_) => panic!("decoded as response"),
        }
        // ...and the decoder rejects a count beyond it outright.
        let mut w = WireWriter::new();
        w.u8(TAG_CALL_V2);
        w.u8(V2_VERSION);
        w.u64(1);
        w.u64(2);
        w.u32(MAX_BAGGAGE as u32 + 1);
        assert_eq!(
            Frame::decode(&w.into_bytes()),
            Err(WireError::BadValue("trace baggage count"))
        );
    }

    #[test]
    fn ok_response_round_trip() {
        let resp = ResponseFrame {
            call_id: 3,
            result: Ok(Value::F64(2.5)),
        };
        let bytes = Frame::Response(resp.clone()).encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), Frame::Response(resp));
    }

    #[test]
    fn err_response_round_trip() {
        let resp = ResponseFrame {
            call_id: 9,
            result: Err((RemoteErrorKind::Security, "design data blocked".into())),
        };
        let bytes = Frame::Response(resp.clone()).encode();
        match Frame::decode(&bytes).unwrap() {
            Frame::Response(r) => {
                let err = r.into_result().unwrap_err();
                assert_eq!(err.remote_kind(), Some(RemoteErrorKind::Security));
            }
            Frame::Call(_) => panic!("decoded as call"),
        }
    }

    #[test]
    fn bad_frame_tag_rejected() {
        assert_eq!(Frame::decode(&[9]), Err(WireError::BadTag(9)));
    }

    #[test]
    fn truncated_call_rejected() {
        let call = CallFrame {
            call_id: 1,
            object: ObjectId::ROOT,
            method: "m".into(),
            args: vec![Value::I64(1)],
            context: None,
            tenant: None,
        };
        let mut bytes = Frame::Call(call).encode();
        bytes.truncate(bytes.len() - 2);
        assert_eq!(Frame::decode(&bytes), Err(WireError::UnexpectedEof));
    }
}
