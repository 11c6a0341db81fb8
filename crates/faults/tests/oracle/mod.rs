//! The serial detection-table algorithm: one scalar [`FaultyEvaluator`]
//! pass per fault class. It used to be `DetectionTable::build`; the
//! production builder is now the compiled parallel-fault transpose and
//! this loop survives as the oracle that transpose is compared against.
//! Shared by `#[path]` with the served-table test in the root package.

use vcad_faults::{DetectionTable, FaultUniverse, FaultyEvaluator, SymbolicFault};
use vcad_logic::{Logic, LogicVec};
use vcad_netlist::Netlist;

// The fault-free reference is the naive walk too: `Evaluator` runs the
// plan the tables under test are built on.
#[path = "../../../netlist/tests/oracle/mod.rs"]
mod scalar;

/// All-`X` and one-`Z`: the four-valued corners the dual-rail lanes must
/// reproduce, to append to a test's binary patterns.
pub fn four_valued_corners(width: usize) -> [LogicVec; 2] {
    let mut with_z = LogicVec::zeros(width);
    with_z.set(0, Logic::Z);
    [LogicVec::filled(width, Logic::X), with_z]
}

/// Asserts that `table` is bit-identical — fault-free configuration,
/// rows, row order, fault order within each row — to what the serial
/// algorithm builds for `table.inputs()`. Every class of `universe` is
/// simulated, statically untestable ones included.
pub fn assert_matches_serial_oracle(
    table: &DetectionTable,
    netlist: &Netlist,
    universe: &FaultUniverse,
    context: &str,
) {
    let inputs = table.inputs();
    let fault_free = scalar::outputs(netlist, inputs);
    let faulty = FaultyEvaluator::new(netlist);
    let mut rows: Vec<(_, Vec<SymbolicFault>)> = Vec::new();
    for class in universe.classes() {
        let out = faulty.outputs(&class.representative, inputs);
        if out == fault_free {
            continue;
        }
        let name = class.representative.name(netlist);
        match rows.iter_mut().find(|(o, _)| *o == out) {
            Some((_, faults)) => faults.push(name),
            None => rows.push((out, vec![name])),
        }
    }
    assert_eq!(
        table.fault_free(),
        &fault_free,
        "{context}: fault-free configuration under {inputs}"
    );
    assert_eq!(table.rows(), rows, "{context}: rows under {inputs}");
}
