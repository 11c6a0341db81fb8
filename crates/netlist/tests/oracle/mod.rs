//! The naive scalar evaluator: the netlist's `topo_order()` walked gate
//! by gate through [`GateKind::eval`](vcad_netlist::GateKind::eval),
//! chasing `Gate` structs and refilling a scratch `Vec` per gate. It
//! used to be `Evaluator::eval`; production one-pattern evaluation now
//! runs on the cached `ExecPlan` and this walk survives as the oracle
//! the plan is compared against. Shared by `#[path]` with the engine's
//! unit and differential tests and the fault-table oracle in
//! `crates/faults/tests/oracle/`.

use vcad_logic::{Logic, LogicVec};
use vcad_netlist::Netlist;

/// The value of every net, indexed by `NetId::index`; primary inputs
/// keep their raw (possibly `Z`) value.
pub fn eval_nets(netlist: &Netlist, inputs: &LogicVec) -> Vec<Logic> {
    assert_eq!(inputs.width(), netlist.input_count());
    let mut values = vec![Logic::X; netlist.net_count()];
    for (i, &net) in netlist.inputs().iter().enumerate() {
        values[net.index()] = inputs.get(i);
    }
    let mut scratch = Vec::new();
    for &gid in netlist.topo_order() {
        let gate = netlist.gate(gid);
        scratch.clear();
        scratch.extend(gate.inputs().iter().map(|n| values[n.index()]));
        values[gate.output().index()] = gate.kind().eval(&scratch);
    }
    values
}

/// The primary outputs, bit 0 first.
pub fn outputs(netlist: &Netlist, inputs: &LogicVec) -> LogicVec {
    let values = eval_nets(netlist, inputs);
    LogicVec::from_bits(netlist.outputs().iter().map(|(_, n)| values[n.index()]))
}
