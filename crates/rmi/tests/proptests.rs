//! Randomized property tests: the wire format round-trips arbitrary
//! values. Deterministic seeded sampling stands in for the external
//! property-testing framework the offline build cannot fetch.

use std::sync::Arc;
use vcad_logic::{Logic, LogicVec, Word};
use vcad_prng::Rng;

use vcad_rmi::{
    CallFrame, Client, Dispatcher, Frame, InProcTransport, ObjectId, ObjectRegistry, RemoteObject,
    ResponseFrame, RmiError, ServerCtx, Transport, Value,
};

const CASES: usize = 256;

fn arb_logic(rng: &mut Rng) -> Logic {
    match rng.gen_range(0usize..4) {
        0 => Logic::Zero,
        1 => Logic::One,
        2 => Logic::X,
        _ => Logic::Z,
    }
}

fn arb_string(rng: &mut Rng, max_len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.-";
    let len = rng.gen_range(0usize..=max_len);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0usize..ALPHABET.len())] as char)
        .collect()
}

fn arb_ident(rng: &mut Rng, max_len: usize) -> String {
    const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    let mut s = String::new();
    s.push(HEAD[rng.gen_range(0usize..HEAD.len())] as char);
    let extra = rng.gen_range(0usize..max_len);
    for _ in 0..extra {
        s.push(TAIL[rng.gen_range(0usize..TAIL.len())] as char);
    }
    s
}

fn arb_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0usize..max_len);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A leaf value: every non-recursive `Value` variant.
fn arb_leaf(rng: &mut Rng) -> Value {
    match rng.gen_range(0usize..10) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::I64(rng.next_u64() as i64),
        // Finite floats so equality round-trips (NaN != NaN).
        3 => Value::F64(rng.gen_range(-1e12f64..1e12)),
        4 => Value::Str(arb_string(rng, 40)),
        5 => Value::Bytes(arb_bytes(rng, 64)),
        6 => Value::Logic(arb_logic(rng)),
        7 => {
            let n = rng.gen_range(0usize..80);
            Value::Vec(LogicVec::from_bits((0..n).map(|_| arb_logic(rng))))
        }
        8 => Value::Word(Word::new(rng.gen_range(0usize..=128), rng.next_u128())),
        _ => Value::ObjectRef(ObjectId(rng.next_u64())),
    }
}

/// A possibly-nested value, recursing up to `depth` levels of lists/maps.
fn arb_value(rng: &mut Rng, depth: usize) -> Value {
    if depth == 0 || rng.gen_bool(0.6) {
        return arb_leaf(rng);
    }
    let n = rng.gen_range(0usize..8);
    if rng.gen_bool(0.5) {
        Value::List((0..n).map(|_| arb_value(rng, depth - 1)).collect())
    } else {
        Value::Map(
            (0..n)
                .map(|_| (arb_ident(rng, 7), arb_value(rng, depth - 1)))
                .collect(),
        )
    }
}

#[test]
fn value_encoding_round_trips() {
    let mut rng = Rng::seed_from_u64(0x9a11);
    for _ in 0..CASES {
        let v = arb_value(&mut rng, 3);
        let bytes = v.encode();
        assert_eq!(bytes.len(), v.encoded_len());
        assert_eq!(Value::decode(&bytes).unwrap(), v);
    }
}

#[test]
fn call_frames_round_trip() {
    let mut rng = Rng::seed_from_u64(0x9a12);
    for _ in 0..CASES {
        let n_args = rng.gen_range(0usize..6);
        // Half the frames carry a trace context, exercising the v2
        // envelope alongside the frozen v1 encoding.
        let context = if rng.gen_bool(0.5) {
            let n_baggage = rng.gen_range(0usize..4);
            Some(vcad_obs::TraceContext {
                trace_id: rng.next_u64(),
                span_id: rng.next_u64(),
                baggage: (0..n_baggage)
                    .map(|_| (arb_ident(&mut rng, 8), arb_ident(&mut rng, 12)))
                    .collect(),
            })
        } else {
            None
        };
        let frame = Frame::Call(CallFrame {
            call_id: rng.next_u64(),
            object: ObjectId(rng.next_u64()),
            method: arb_ident(&mut rng, 24),
            args: (0..n_args).map(|_| arb_value(&mut rng, 2)).collect(),
            context,
            tenant: if rng.gen_bool(0.33) {
                Some(arb_ident(&mut rng, 10))
            } else {
                None
            },
        });
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }
}

#[test]
fn response_frames_round_trip() {
    let mut rng = Rng::seed_from_u64(0x9a13);
    for _ in 0..CASES {
        let frame = Frame::Response(ResponseFrame {
            call_id: rng.next_u64(),
            result: Ok(arb_value(&mut rng, 3)),
        });
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }
}

#[test]
fn decoder_never_panics_on_garbage() {
    let mut rng = Rng::seed_from_u64(0x9a14);
    for _ in 0..CASES {
        let bytes = arb_bytes(&mut rng, 256);
        // Any result is fine; panics and hangs are not.
        let _ = Value::decode(&bytes);
        let _ = Frame::decode(&bytes);
    }
}

#[test]
fn truncation_is_always_an_error() {
    let mut rng = Rng::seed_from_u64(0x9a15);
    for _ in 0..CASES {
        let v = arb_value(&mut rng, 3);
        let cut = rng.gen_range(1usize..16);
        let bytes = v.encode();
        if bytes.len() <= cut {
            continue;
        }
        let truncated = &bytes[..bytes.len() - cut];
        assert!(Value::decode(truncated).is_err());
    }
}

/// Answers every call with its first argument.
struct Echo;

impl RemoteObject for Echo {
    fn invoke(&self, _: &str, args: Vec<Value>, _: &ServerCtx) -> Result<Value, RmiError> {
        Ok(args.into_iter().next().unwrap_or(Value::Null))
    }
}

/// A client of an in-process [`Echo`], and the transport it calls through.
fn echo_client() -> (Client, Arc<InProcTransport>) {
    let registry = Arc::new(ObjectRegistry::new());
    registry.register_root(Arc::new(Echo));
    let transport = Arc::new(InProcTransport::new(Arc::new(Dispatcher::new(registry))));
    (
        Client::new(Arc::clone(&transport) as Arc<dyn Transport>),
        transport,
    )
}

#[test]
fn port_data_policy_accepts_port_values() {
    let mut rng = Rng::seed_from_u64(0x9a16);
    let (client, transport) = echo_client();
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..64);
        let bits = Value::Vec(LogicVec::from_bits((0..n).map(|_| arb_logic(&mut rng))));
        let w = rng.gen_range(0usize..=128);
        let word = Value::Word(Word::new(w, rng.next_u128()));
        for v in [bits, word] {
            assert_eq!(client.root().invoke("echo", vec![v.clone()]).unwrap(), v);
        }
    }
    assert_eq!(transport.stats().calls, 2 * CASES as u64);
}

#[test]
fn port_data_policy_rejects_bytes_anywhere() {
    let mut rng = Rng::seed_from_u64(0x9a17);
    let (client, transport) = echo_client();
    for _ in 0..CASES {
        let depth = rng.gen_range(0usize..4);
        let payload = {
            let len = rng.gen_range(1usize..16);
            (0..len).map(|_| rng.next_u64() as u8).collect()
        };
        let mut v = Value::Bytes(payload);
        for _ in 0..depth {
            v = Value::List(vec![Value::I64(0), v]);
        }
        let err = client.root().invoke("echo", vec![v]).unwrap_err();
        assert!(matches!(err, RmiError::SecurityViolation(_)), "{err}");
    }
    assert_eq!(transport.stats().calls, 0, "nothing was sent");
}
