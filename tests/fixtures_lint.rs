//! Seeded-defect fixtures: each is a small design or a pair of protocol
//! payloads with one composition or privacy defect, built through the
//! public API. Each must be refused where it is built, with an error that
//! names the culprits a user would look for.

use std::sync::Arc;

use vcad::core::stdlib::{Delay, PrimaryOutput, RandomInput};
use vcad::core::{DesignBuilder, DesignError};
use vcad::logic::LogicVec;
use vcad::rmi::{RmiError, SecurityManager, Value};

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
    // The IP-protecting posture: a client holding it checks what it
    // sends, a dispatcher holding it checks what it returns.
    let policy = SecurityManager::strict();
    let port_values = Value::Vec(LogicVec::from_u64(4, 0b1010));
    policy
        .check_outgoing(std::slice::from_ref(&port_values))
        .unwrap();
    policy.check_result(&port_values).unwrap();

    // `upload_netlist`: a user's structure in a request.
    let netlist = Value::Map(vec![("netlist".into(), Value::Str("nand(a,b)".into()))]);
    let err = policy.check_outgoing(&[netlist]).unwrap_err();
    assert!(matches!(err, RmiError::SecurityViolation(_)), "{err}");

    // `fetch_gates`: a provider's structure in a response.
    let gates = Value::Bytes(b"NAND2 NAND2 XOR2".to_vec());
    let err = policy.check_result(&gates).unwrap_err();
    assert!(matches!(err, RmiError::SecurityViolation(_)), "{err}");
}
