//! Seeded-defect fixtures: each is a small design or a pair of protocol
//! payloads with one composition or privacy defect, built through the
//! public API. Each must be refused where it is built, with an error that
//! names the culprits a user would look for.

use std::sync::Arc;

use vcad::core::stdlib::{Delay, PrimaryOutput, RandomInput};
use vcad::core::{DesignBuilder, DesignError};
use vcad::ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad::logic::LogicVec;
use vcad::rmi::{
    Client, Dispatcher, InProcTransport, ObjectRegistry, RemoteErrorKind, RemoteObject, RmiError,
    ServerCtx, Transport, Value,
};

fn source(name: &str, width: usize) -> Arc<RandomInput> {
    Arc::new(RandomInput::new(name, width, 1, 4))
}

#[test]
fn loop_fixture_names_the_cycle() {
    // A zero-delay ring that crosses a hierarchy boundary: B sits inside
    // an instantiated sub-design, so its ports carry the instance prefix.
    let mut cell = DesignBuilder::new("cell");
    let inner = cell.add_module(Arc::new(Delay::new("B", 1, 0)));
    cell.export_port("in", inner, "in").unwrap();
    cell.export_port("out", inner, "out").unwrap();
    let cell = cell.build().expect("the cell alone has no cycle");

    let mut b = DesignBuilder::new("loop");
    let a = b.add_module(Arc::new(Delay::new("A", 1, 0)));
    let (a_in, a_out) = (b.port(a, "in").unwrap(), b.port(a, "out").unwrap());
    let ports = b.instantiate("cell", &cell);
    b.connect_refs(a_out, ports["in"]).unwrap();
    b.connect_refs(ports["out"], a_in).unwrap();
    let err = b.build().unwrap_err();
    assert!(
        matches!(err, DesignError::CombinationalLoop { .. }),
        "{err}"
    );
    assert!(
        err.to_string()
            .ends_with("A.in -> A.out -> cell/B.in -> cell/B.out -> A.in"),
        "{err}"
    );
}

#[test]
fn double_driver_fixture() {
    // Two outputs on one connector.
    let mut b = DesignBuilder::new("double-driver");
    let s1 = b.add_module(source("S1", 4));
    let s2 = b.add_module(source("S2", 4));
    let err = b.connect(s1, "out", s2, "out").unwrap_err();
    assert!(
        matches!(err, DesignError::DirectionConflict { .. }),
        "{err}"
    );
    let text = err.to_string();
    assert!(text.contains("S1.out") && text.contains("S2.out"), "{text}");

    // Two connectors driving one input.
    let o = b.add_module(Arc::new(PrimaryOutput::new("O", 4)));
    b.connect(s1, "out", o, "in").unwrap();
    let err = b.connect(s2, "out", o, "in").unwrap_err();
    assert!(
        matches!(err, DesignError::PortAlreadyConnected { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("O.in"), "{err}");
}

#[test]
fn width_mismatch_fixture() {
    let mut b = DesignBuilder::new("width-mismatch");
    let s = b.add_module(source("S", 8));
    let t = b.add_module(Arc::new(PrimaryOutput::new("T", 4)));
    let err = b.connect(s, "out", t, "in").unwrap_err();
    assert!(matches!(err, DesignError::WidthMismatch { .. }), "{err}");
    let text = err.to_string();
    assert!(text.contains("S.out") && text.contains("T.in"), "{text}");
}

#[test]
fn privacy_leak_fixture_flags_both_directions() {
    // `upload_netlist`: a user's structure in a request. Every client
    // sends port data only, so the call fails before a byte is sent.
    let provider = ProviderServer::new("p.example.com");
    provider.offer(ComponentOffering::fast_low_power_multiplier());
    let transport = Arc::new(InProcTransport::new(provider.dispatcher()));
    let client = Client::new(Arc::clone(&transport) as Arc<dyn Transport>);
    let netlist = Value::Map(vec![("netlist".into(), Value::Str("nand(a,b)".into()))]);
    let err = client
        .root()
        .invoke("upload_netlist", vec![netlist])
        .unwrap_err();
    assert!(matches!(err, RmiError::SecurityViolation(_)), "{err}");
    assert_eq!(transport.stats().calls, 0);
    // Port values pass the rule; the provider then refuses the method.
    let port_values = Value::Vec(LogicVec::from_u64(4, 0b1010));
    let err = client
        .root()
        .invoke("upload_netlist", vec![port_values])
        .unwrap_err();
    assert_eq!(err.remote_kind(), Some(RemoteErrorKind::UnknownMethod));

    // `fetch_gates`: a provider's structure in a response. `describe` is
    // declared to return a description, so the typed stub refuses a byte
    // blob in its place and no component is instantiated.
    let registry = Arc::new(ObjectRegistry::new());
    registry.register_root(Arc::new(GateLeaker));
    let leaker = InProcTransport::new(Arc::new(Dispatcher::new(registry)));
    let session = ClientSession::connect(Arc::new(leaker), "leaker.example.com");
    let Err(err) = session.instantiate("MultFastLowPower", 4) else {
        panic!("a byte blob was accepted as a description");
    };
    assert!(matches!(err, RmiError::Wire(_)), "{err}");
}

/// A provider whose components answer `describe` with their gate list.
struct GateLeaker;

impl RemoteObject for GateLeaker {
    fn invoke(&self, method: &str, _: Vec<Value>, ctx: &ServerCtx) -> Result<Value, RmiError> {
        match method {
            "instantiate" => Ok(Value::ObjectRef(ctx.export(Arc::new(GateLeaker)))),
            "describe" => Ok(Value::Bytes(b"NAND2 NAND2 XOR2".to_vec())),
            _ => Err(RmiError::unknown_method("GateLeaker", method)),
        }
    }
}
