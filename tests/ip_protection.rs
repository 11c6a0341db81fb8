//! End-to-end IP-protection guarantees, both directions.

use std::sync::Arc;

use vcad::ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad::rmi::{
    Client, Dispatcher, InProcTransport, ObjectRegistry, RemoteObject, RmiError, ServerCtx,
    Transport, Value,
};

fn provider() -> ProviderServer {
    let server = ProviderServer::new("p.example.com");
    server.offer(ComponentOffering::fast_low_power_multiplier());
    server
}

#[test]
fn provider_netlist_never_crosses_the_wire() {
    // Observe every byte of a full evaluation session and check that no
    // response could encode the multiplier's structure: the largest
    // response must stay far below the size of the netlist itself.
    let server = provider();
    let transport = Arc::new(InProcTransport::new(server.dispatcher()));
    let session =
        ClientSession::connect(Arc::clone(&transport) as Arc<dyn Transport>, server.host());
    let width = 16;
    let component = session.instantiate("MultFastLowPower", width).unwrap();
    let _ = component.area().unwrap();
    let _ = component.delay().unwrap();
    let _ = component.constant_power().unwrap();
    let _ = component.regression_coefficients().unwrap();
    let module = component.functional_module("MULT").unwrap();
    assert_eq!(module.ports().len(), 3);

    let stats = transport.stats();
    // A 16×16 Wallace tree has thousands of gates; even a compact
    // structural encoding needs tens of kilobytes. The entire session's
    // response traffic is far smaller.
    assert!(
        stats.bytes_received < 4096,
        "suspiciously large responses: {} bytes",
        stats.bytes_received
    );
}

#[test]
fn user_design_structure_cannot_be_marshalled() {
    // Every client sends port data only: structure-shaped payloads are
    // rejected before they leave the process, even if some component
    // tried to send them.
    let server = provider();
    let transport = Arc::new(InProcTransport::new(server.dispatcher()));
    let client = Client::new(Arc::clone(&transport) as Arc<dyn Transport>);
    // A "netlist dump" disguised as bytes...
    let err = client
        .root()
        .invoke("instantiate", vec![Value::Bytes(vec![0u8; 256])])
        .unwrap_err();
    assert!(matches!(err, RmiError::SecurityViolation(_)), "{err}");
    // ...or as a structured map...
    let err = client
        .root()
        .invoke(
            "instantiate",
            vec![Value::Map(vec![("netlist".into(), Value::Null)])],
        )
        .unwrap_err();
    assert!(matches!(err, RmiError::SecurityViolation(_)));
    // ...or as a long free-form string.
    let err = client
        .root()
        .invoke("instantiate", vec![Value::Str("g1=AND(n1,n2);".repeat(20))])
        .unwrap_err();
    assert!(matches!(err, RmiError::SecurityViolation(_)));
    assert_eq!(transport.stats().calls, 0, "nothing was sent");
    // Port data still flows.
    let ok = client.root().invoke(
        "instantiate",
        vec![Value::Str("MultFastLowPower".into()), Value::I64(4)],
    );
    assert!(ok.is_ok());
}

#[test]
fn downloaded_public_parts_run_only_registered_behaviours() {
    // A public part names a behaviour the client library registers; the
    // library runs nothing else, whatever the provider sends.
    let server = provider();
    let session = ClientSession::connect_in_process(&server).unwrap();
    let component = session.instantiate("MultFastLowPower", 8).unwrap();
    assert_eq!(component.public_part().behavior(), "word-multiplier");
    assert!(component.functional_module("MULT").is_ok());

    let registry = Arc::new(ObjectRegistry::new());
    registry.register_root(Arc::new(Backdoor));
    let transport = InProcTransport::new(Arc::new(Dispatcher::new(registry)));
    let session = ClientSession::connect(Arc::new(transport), "backdoor.example.com");
    let component = session.instantiate("Anything", 8).unwrap();
    assert_eq!(component.public_part().behavior(), "read-user-files");
    let Err(err) = component.functional_module("X") else {
        panic!("an unregistered behaviour ran");
    };
    assert!(err.to_string().contains("read-user-files"), "{err}");
}

/// A provider whose components name a behaviour no client registers.
struct Backdoor;

impl RemoteObject for Backdoor {
    fn invoke(&self, method: &str, _: Vec<Value>, ctx: &ServerCtx) -> Result<Value, RmiError> {
        match method {
            "instantiate" => Ok(Value::ObjectRef(ctx.export(Arc::new(Backdoor)))),
            "describe" => Ok(Value::Map(vec![
                ("name".into(), Value::Str("Anything".into())),
                ("width".into(), Value::I64(8)),
                (
                    "public_behavior".into(),
                    Value::Str("read-user-files".into()),
                ),
            ])),
            "list" => Ok(Value::List(vec![])),
            _ => Err(RmiError::unknown_method("Backdoor", method)),
        }
    }
}

#[test]
fn symbolic_fault_names_reveal_no_structure_size() {
    // The fault list's total byte size must not scale with the component's
    // gate count beyond the linear fault-count relationship the paper
    // accepts; more importantly, no gate types or connections appear.
    let server = provider();
    let session = ClientSession::connect_in_process(&server).unwrap();
    let component = session.instantiate("MultFastLowPower", 4).unwrap();
    let faults = component.detection_source();
    use vcad::faults::DetectionTableSource;
    for name in faults.fault_list() {
        let text = name.as_str();
        assert!(
            !text.contains("NAND") && !text.contains("XOR") && !text.contains("("),
            "fault name leaks structure: {text}"
        );
    }
}

#[test]
fn released_components_stop_answering() {
    use vcad::rmi::RemoteErrorKind;
    let server = provider();
    let session = ClientSession::connect_in_process(&server).unwrap();
    let objects_before = server.registry().len();
    let component = session.instantiate("MultFastLowPower", 4).unwrap();
    assert_eq!(server.registry().len(), objects_before + 1);
    let stub = component.stub().clone();
    component.release().unwrap();
    assert_eq!(server.registry().len(), objects_before);
    let err = stub.invoke("area", vec![]).unwrap_err();
    assert_eq!(err.remote_kind(), Some(RemoteErrorKind::UnknownObject));
}
