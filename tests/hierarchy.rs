//! Hierarchical descriptions: sub-design instantiation, scoped setup
//! application, and the in-process transport in an end-to-end session.

use std::sync::Arc;

use vcad::core::stdlib::{CaptureState, PrimaryOutput, RandomInput, Register, WordAdder};
use vcad::core::{
    Design, DesignBuilder, Parameter, SetupController, SetupCriterion, SimulationController,
};
use vcad::ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad::rmi::{InProcTransport, Transport};

/// A reusable sub-design: a registered adder stage with exported ports.
fn adder_stage(width: usize) -> Design {
    let mut b = DesignBuilder::new("stage");
    let reg_a = b.add_module(Arc::new(Register::new("RA", width)));
    let reg_b = b.add_module(Arc::new(Register::new("RB", width)));
    let add = b.add_module(Arc::new(WordAdder::new("ADD", width)));
    b.connect(reg_a, "q", add, "a").unwrap();
    b.connect(reg_b, "q", add, "b").unwrap();
    b.export_port("in_a", reg_a, "d").unwrap();
    b.export_port("in_b", reg_b, "d").unwrap();
    b.export_port("sum", add, "s").unwrap();
    b.build().unwrap()
}

#[test]
fn instantiated_stages_simulate_and_namespace() {
    let width = 8;
    let stage = adder_stage(width);

    let mut top = DesignBuilder::new("top");
    let ia = top.add_module(Arc::new(RandomInput::new("IA", width, 51, 10)));
    let ib = top.add_module(Arc::new(RandomInput::new("IB", width, 52, 10)));
    let u0 = top.instantiate("u0", &stage);
    let out = top.add_module(Arc::new(PrimaryOutput::new("OUT", width + 1)));
    top.connect_refs(top.port(ia, "out").unwrap(), u0["in_a"])
        .unwrap();
    top.connect_refs(top.port(ib, "out").unwrap(), u0["in_b"])
        .unwrap();
    top.connect_refs(u0["sum"], top.port(out, "in").unwrap())
        .unwrap();
    let design = Arc::new(top.build().unwrap());

    // Hierarchical names exist.
    assert!(design.find_module("u0/ADD").is_some());
    assert!(design.find_module("u0/RA").is_some());

    let run = SimulationController::new(Arc::clone(&design))
        .run()
        .unwrap();
    // Count settled instants (register outputs arrive as two events per
    // tick, so intermediate sums may also be captured).
    let history = run.module_state::<CaptureState>(out).unwrap().history();
    let instants: std::collections::BTreeSet<u64> =
        history.iter().map(|(t, _)| t.ticks()).collect();
    assert_eq!(instants.len(), 10);
    let sums = run.module_state::<CaptureState>(out).unwrap().words();
    assert!(sums.iter().all(|&s| s <= 2 * 255));
}

#[test]
fn setup_scopes_to_one_instance() {
    // Two instances of the same sub-design; the setup targets only u0.
    let width = 8;
    let stage = adder_stage(width);
    let mut top = DesignBuilder::new("top");
    let ia = top.add_module(Arc::new(RandomInput::new("IA", width, 1, 6)));
    let ib = top.add_module(Arc::new(RandomInput::new("IB", width, 2, 6)));
    let ic = top.add_module(Arc::new(RandomInput::new("IC", width, 3, 6)));
    let id = top.add_module(Arc::new(RandomInput::new("ID", width, 4, 6)));
    let u0 = top.instantiate("u0", &stage);
    let u1 = top.instantiate("u1", &stage);
    let o0 = top.add_module(Arc::new(PrimaryOutput::new("O0", width + 1)));
    let o1 = top.add_module(Arc::new(PrimaryOutput::new("O1", width + 1)));
    top.connect_refs(top.port(ia, "out").unwrap(), u0["in_a"])
        .unwrap();
    top.connect_refs(top.port(ib, "out").unwrap(), u0["in_b"])
        .unwrap();
    top.connect_refs(top.port(ic, "out").unwrap(), u1["in_a"])
        .unwrap();
    top.connect_refs(top.port(id, "out").unwrap(), u1["in_b"])
        .unwrap();
    top.connect_refs(u0["sum"], top.port(o0, "in").unwrap())
        .unwrap();
    top.connect_refs(u1["sum"], top.port(o1, "in").unwrap())
        .unwrap();
    let design = Arc::new(top.build().unwrap());

    let mut setup = SetupController::new();
    setup.set(Parameter::IoActivity, SetupCriterion::MostAccurate);
    // Apply hierarchically to the u0 subtree only (the paper's `apply`
    // semantics: a module and all its submodules).
    let binding = setup.apply_to(&design, "u0/ADD");
    let run = SimulationController::new(Arc::clone(&design))
        .with_setup(binding)
        .run()
        .unwrap();
    let u0_add = design.find_module("u0/ADD").unwrap();
    let u1_add = design.find_module("u1/ADD").unwrap();
    // u0's adder got estimates (the null estimator records Null values);
    // u1's adder got nothing at all.
    assert!(run
        .estimates()
        .latest(u0_add, &Parameter::IoActivity)
        .is_some());
    assert!(run
        .estimates()
        .latest(u1_add, &Parameter::IoActivity)
        .is_none());
}

#[test]
fn inproc_transport_serves_a_full_session() {
    // The in-process transport drives the same provider protocol as TCP.
    let server = ProviderServer::new("inproc.example.com");
    server.offer(ComponentOffering::fast_low_power_multiplier());
    let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.dispatcher()));
    let session = ClientSession::connect(transport, server.host());
    let component = session.instantiate("MultFastLowPower", 6).unwrap();
    assert!(component.area().unwrap() > 0.0);
    let (a, b) = component.regression_coefficients().unwrap();
    assert!(b > 0.0, "slope {b} (intercept {a})");
    let module = component.functional_module("MULT").unwrap();
    assert_eq!(module.ports()[2].width(), 12);
}
