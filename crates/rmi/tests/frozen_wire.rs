//! The wire's bytes, frozen.
//!
//! Part one pins the exact encoding of every frame shape `vcad-rmi` puts
//! on a socket: the v1 / v2 / v3 calls, both responses, the tracked call
//! and response envelopes and the load-shed reply. Part two sends a
//! fixed-seed corpus of well-formed, enveloped, nested, truncated and
//! byte-flipped requests through a fresh [`Dispatcher`] and pins the
//! digest of every reply plus the dispatcher's envelope counters.
//!
//! Neither part may change under a refactor of the codec: the chaos
//! profiles corrupt bytes at offsets that depend on the frame layout, so
//! a moved byte here moves every seeded chaos result downstream.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

use vcad_logic::Word;
use vcad_obs::{Collector, TraceContext};
use vcad_prng::Rng;
use vcad_rmi::{
    AdmissionControl, CallFrame, Dispatcher, Frame, ObjectId, ObjectRegistry, RemoteErrorKind,
    RemoteObject, ResilienceClock, ResilientTransport, ResponseFrame, RetryPolicy, RmiError,
    ServerCtx, TenantQuota, Transport, TransportStats, Value, VirtualClock,
};

/// Parses a hex literal; whitespace separates fields and is ignored.
fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// FNV-1a, 64 bit: the tracked envelopes' checksum and this file's digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A tracked call envelope built by hand: tag 3, the request id, the
/// payload's checksum, then the length-prefixed payload.
fn tracked(request_id: u128, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![3];
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Echoes, counts, exports and reports its caller's tenant.
#[derive(Default)]
struct Fixture {
    hits: AtomicI64,
}

impl RemoteObject for Fixture {
    fn invoke(&self, method: &str, args: Vec<Value>, ctx: &ServerCtx) -> Result<Value, RmiError> {
        match method {
            "AREA" | "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
            "count" => Ok(Value::I64(self.hits.fetch_add(1, Ordering::Relaxed))),
            "spawn" => Ok(Value::ObjectRef(ctx.export(Arc::new(Fixture::default())))),
            "whoami" => Ok(ctx.tenant().map_or(Value::Null, |t| Value::Str(t.into()))),
            _ => Err(RmiError::unknown_method("Fixture", method)),
        }
    }
}

/// A dispatcher over [`Fixture`]s exported as objects 0, 1 and 2, whose
/// admission gate never refills: `greedy` gets three calls, then sheds;
/// `capped` gets four, then is denied for good; `acme` and everyone else
/// are unlimited.
fn dispatcher(obs: &Collector) -> Dispatcher {
    let registry = Arc::new(ObjectRegistry::new());
    registry.register_root(Arc::new(Fixture::default()));
    for _ in 1..=2 {
        registry.register(Arc::new(Fixture::default()));
    }
    let admission = AdmissionControl::with_clock(Arc::new(VirtualClock::new()));
    admission.set_quota("greedy", TenantQuota::rate_limited(0.0, 3.0));
    admission.set_quota(
        "capped",
        TenantQuota::rate_limited(f64::INFINITY, f64::INFINITY).with_max_calls(4),
    );
    Dispatcher::new(registry)
        .with_collector(obs.clone())
        .with_admission(Arc::new(admission))
}

fn context() -> TraceContext {
    TraceContext {
        trace_id: 0xABCD,
        span_id: 42,
        baggage: vec![("k".into(), "v".into())],
    }
}

fn area_call(context: Option<TraceContext>, tenant: Option<&str>) -> Vec<u8> {
    Frame::Call(CallFrame {
        call_id: 5,
        object: ObjectId(2),
        method: "AREA".into(),
        args: vec![Value::I64(-1)],
        context,
        tenant: tenant.map(str::to_owned),
    })
    .encode()
}

/// The call body every call tag shares: call id 5, object 2, method
/// "AREA", one argument `I64(-1)`.
const BODY: &str =
    "0500000000000000 0200000000000000 04000000 41524541 01000000 02 ffffffffffffffff";
/// The trace id 0xABCD, span id 42, one baggage pair ("k", "v").
const CONTEXT: &str = "cdab000000000000 2a00000000000000 01000000 01000000 6b 01000000 76";

#[test]
fn every_frame_shape_encodes_to_its_pinned_bytes() {
    let v1 = area_call(None, None);
    assert_eq!(v1, hex(&format!("00 {BODY}")));
    assert_eq!(
        area_call(Some(context()), None),
        hex(&format!("05 02 {CONTEXT} {BODY}"))
    );
    assert_eq!(
        area_call(None, Some("acme")),
        hex(&format!("06 03 04000000 61636d65 00 {BODY}"))
    );
    assert_eq!(
        area_call(Some(context()), Some("acme")),
        hex(&format!("06 03 04000000 61636d65 01 {CONTEXT} {BODY}"))
    );
    let ok = Frame::Response(ResponseFrame {
        call_id: 5,
        result: Ok(Value::Word(Word::new(16, 0x1234))),
    });
    assert_eq!(
        ok.encode(),
        hex("01 0500000000000000 0a 10 34120000000000000000000000000000")
    );
    let err = Frame::Response(ResponseFrame {
        call_id: 9,
        result: Err((RemoteErrorKind::Security, "no".into())),
    });
    assert_eq!(err.encode(), hex("02 0900000000000000 03 02000000 6e6f"));
}

#[test]
fn every_envelope_and_reply_shape_is_pinned() {
    let obs = Collector::disabled();
    let d = dispatcher(&obs);
    let v1 = area_call(None, None);

    // Tracked call: tag, request id, checksum of the payload, payload.
    let call = tracked(0xA1, &v1);
    assert_eq!(
        call,
        hex(&format!(
            "03 a1000000000000000000000000000000 e2752b1373bca8d6 26000000 00 {BODY}"
        ))
    );
    // Tracked OK: tag, status 0, checksum, the plain OK reply.
    assert_eq!(
        d.handle_bytes(&call),
        hex("04 00 09d15a49141875e0 12000000 01 0500000000000000 02 ffffffffffffffff")
    );
    // Tracked corrupt-request: status 1 around an empty payload.
    let mut flipped = call.clone();
    *flipped.last_mut().unwrap() ^= 0x01;
    assert_eq!(
        d.handle_bytes(&flipped),
        hex("04 01 25232284e49cf2cb 00000000")
    );

    // A rate-limit shed, plain and tracked; the tracked one is not
    // memoized, so a retry of the id re-enters admission.
    d.admission()
        .unwrap()
        .set_quota("acme", TenantQuota::rate_limited(0.0, 0.0));
    let shed = "02 0500000000000000 05 2d000000 \
                74656e616e74206061636d65602072617465206c696d69743a207265747279206166746572206261636b6f6666";
    let v3 = area_call(None, Some("acme"));
    assert_eq!(d.handle_bytes(&v3), hex(shed));
    let cached = d.reply_cache_len();
    assert_eq!(
        d.handle_bytes(&tracked(0xA2, &v3)),
        hex(&format!("04 00 8517cc8731574c84 3b000000 {shed}"))
    );
    assert_eq!(d.reply_cache_len(), cached);
}

/// Records what the retry layer puts on the wire, answering through a
/// dispatcher.
struct Recorder {
    dispatcher: Dispatcher,
    sent: Mutex<Vec<Vec<u8>>>,
}

impl Transport for Recorder {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError> {
        self.sent.lock().unwrap().push(request.to_vec());
        Ok(self.dispatcher.handle_bytes(request))
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

#[test]
fn the_retry_layer_sends_the_pinned_tracked_envelope() {
    let recorder = Arc::new(Recorder {
        dispatcher: dispatcher(&Collector::disabled()),
        sent: Mutex::new(Vec::new()),
    });
    let resilient = ResilientTransport::new(
        Arc::clone(&recorder) as Arc<dyn Transport>,
        RetryPolicy::default(),
    )
    .with_clock(Arc::new(VirtualClock::new()) as Arc<dyn ResilienceClock>);
    let v1 = area_call(None, None);
    let reply = resilient.call(&v1).unwrap();
    assert_eq!(reply, hex("01 0500000000000000 02 ffffffffffffffff"));

    let sent = recorder.sent.lock().unwrap();
    assert_eq!(sent.len(), 1);
    let expected = tracked(1, &v1);
    // The request id's high half is a per-process transport instance
    // number; its low half is the call's sequence number, 1 here.
    assert_eq!(sent[0][..9], expected[..9]);
    assert_eq!(sent[0][17..], expected[17..]);
}

fn arb_value(rng: &mut Rng) -> Value {
    match rng.gen_range(0usize..6) {
        0 => Value::Null,
        1 => Value::I64(rng.next_u64() as i64),
        2 => Value::Str(["", "x", "power", "acme"][rng.gen_range(0usize..4)].into()),
        3 => Value::Bytes((0..rng.gen_range(0usize..6)).map(|i| i as u8).collect()),
        4 => Value::Word(Word::new(rng.gen_range(0usize..=128), rng.next_u128())),
        _ => Value::List(vec![Value::Bool(rng.gen_bool(0.5)), Value::I64(-7)]),
    }
}

/// One frame of a random shape: a v1, v2, v3 or traced v3 call, or a
/// response frame sent where a call belongs.
fn arb_frame(rng: &mut Rng) -> Vec<u8> {
    const METHODS: [&str; 6] = ["echo", "count", "spawn", "whoami", "nope", "AREA"];
    const OBJECTS: [u64; 6] = [0, 0, 0, 1, 2, 404];
    const TENANTS: [&str; 3] = ["acme", "greedy", "capped"];
    let shape = rng.gen_range(0usize..6);
    if shape >= 4 {
        let result = if shape == 4 {
            Ok(arb_value(rng))
        } else {
            let kind = RemoteErrorKind::from_code(rng.gen_range(0u32..7) as u8).unwrap();
            Err((kind, "remote".into()))
        };
        return Frame::Response(ResponseFrame {
            call_id: rng.gen_range(0u64..1000),
            result,
        })
        .encode();
    }
    let tenant = (shape >= 2).then(|| TENANTS[rng.gen_range(0usize..3)].to_owned());
    let context = (shape == 1 || shape == 3).then(context);
    Frame::Call(CallFrame {
        call_id: rng.gen_range(0u64..1000),
        object: ObjectId(OBJECTS[rng.gen_range(0usize..6)]),
        method: METHODS[rng.gen_range(0usize..6)].into(),
        args: (0..rng.gen_range(0usize..3))
            .map(|_| arb_value(rng))
            .collect(),
        context,
        tenant,
    })
    .encode()
}

/// About 2 000 requests: every frame shape plain and enveloped (request
/// ids drawn from a small pool, so some are replays), nested envelopes,
/// bad checksums, every truncation of a few frames, and single-byte
/// flips anywhere.
fn corpus() -> Vec<Vec<u8>> {
    let mut rng = Rng::seed_from_u64(0x00F0_2E2E);
    let base: Vec<Vec<u8>> = (0..300).map(|_| arb_frame(&mut rng)).collect();
    let id = |rng: &mut Rng| u128::from(rng.gen_range(0u64..400));
    let mut out = Vec::new();
    for frame in &base {
        out.push(frame.clone());
        out.push(tracked(id(&mut rng), frame));
    }
    for frame in &base[..100] {
        let inner = tracked(id(&mut rng), frame);
        out.push(tracked(id(&mut rng), &inner));
    }
    for frame in &base[100..200] {
        let mut envelope = tracked(id(&mut rng), frame);
        envelope[17 + rng.gen_range(0usize..8)] ^= 1 << rng.gen_range(0u32..8);
        out.push(envelope);
    }
    for frame in &base[200..204] {
        let envelope = tracked(id(&mut rng), frame);
        out.extend((0..frame.len()).map(|n| frame[..n].to_vec()));
        out.extend((0..envelope.len()).map(|n| envelope[..n].to_vec()));
    }
    for _ in 0..800 {
        let frame = &base[rng.gen_range(0usize..base.len())];
        let mut bytes = if rng.gen_bool(0.5) {
            tracked(id(&mut rng), frame)
        } else {
            frame.clone()
        };
        let at = rng.gen_range(0usize..bytes.len());
        bytes[at] ^= rng.gen_range(1u32..256) as u8;
        out.push(bytes);
    }
    out
}

#[test]
fn a_fixed_corpus_gets_the_pinned_replies() {
    let obs = Collector::disabled();
    let d = dispatcher(&obs);
    let corpus = corpus();
    let mut digest = Vec::new();
    for request in &corpus {
        let reply = d.handle_bytes(request);
        digest.extend_from_slice(&(reply.len() as u32).to_le_bytes());
        digest.extend_from_slice(&reply);
    }
    let snap = obs.metrics().snapshot();
    // Requests, then calls dispatched, envelopes seen, replays served,
    // envelopes refused as corrupt, and calls shed by admission.
    let counts = [
        corpus.len() as u64,
        snap.counter("rmi.dispatch.calls"),
        snap.counter("rmi.dispatch.tracked_calls"),
        snap.counter("rmi.dispatch.dedup_hits"),
        snap.counter("rmi.dispatch.corrupt_requests"),
        snap.counter("rmi.dispatch.shed"),
    ];
    assert_eq!(
        (format!("{:016x}", fnv1a64(&digest)), counts),
        (
            "675368930cf9c8c7".to_owned(),
            [1998, 493, 1132, 97, 726, 129]
        )
    );
}
