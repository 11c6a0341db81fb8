//! Detection tables: the paper's per-pattern testability exchange format.

use vcad_engine::CompiledNetlist;
use vcad_logic::LogicVec;
use vcad_netlist::Netlist;
use vcad_rmi::Value;

use crate::collapse::FaultUniverse;
use crate::fault::{Fault, SymbolicFault};
use crate::parallel::one_pattern_all_faults;

/// The detection table of one component for one input configuration.
///
/// Each row associates an *erroneous* output configuration with the
/// symbolic faults that would cause it under the given inputs. It is a
/// local, IP-sensitive parameter the provider can evaluate independently
/// and return to the user; the user learns *which outputs can go wrong and
/// under which fault names* — never how the component is built.
///
/// # Examples
///
/// ```
/// use vcad_faults::{DetectionTable, FaultUniverse};
/// use vcad_logic::LogicVec;
/// use vcad_netlist::generators;
///
/// let ip1 = generators::half_adder_nand();
/// let universe = FaultUniverse::collapsed(&ip1);
/// // The paper's Figure 4 case: inputs (1, 0).
/// let table = DetectionTable::build(&ip1, &universe, &"01".parse().unwrap());
/// assert_eq!(table.fault_free().to_string(), "01"); // sum=1, carry=0
/// assert!(table.rows().len() >= 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DetectionTable {
    inputs: LogicVec,
    fault_free: LogicVec,
    rows: Vec<(LogicVec, Vec<SymbolicFault>)>,
}

impl DetectionTable {
    /// Builds the table by simulating every collapsed fault of `universe`
    /// under `inputs` — the provider-side computation. One-shot form:
    /// compiles `netlist` and calls [`DetectionTable::build_compiled`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.width()` differs from the netlist's input count.
    #[must_use]
    pub fn build(netlist: &Netlist, universe: &FaultUniverse, inputs: &LogicVec) -> DetectionTable {
        DetectionTable::build_compiled(
            &CompiledNetlist::compile(netlist),
            netlist,
            universe,
            inputs,
        )
    }

    /// [`DetectionTable::build`] over an already-compiled plan (a
    /// provider answering many per-pattern requests compiles once and
    /// calls this per table). Up to 64 fault classes are simulated per
    /// pass by replicating the pattern across lanes and injecting one
    /// lane-masked fault per class — the transposed parallel-fault
    /// layout.
    ///
    /// # Panics
    ///
    /// Panics if `compiled` was not compiled from `netlist`, or if
    /// `inputs.width()` differs from the netlist's input count.
    #[must_use]
    pub fn build_compiled(
        compiled: &CompiledNetlist,
        netlist: &Netlist,
        universe: &FaultUniverse,
        inputs: &LogicVec,
    ) -> DetectionTable {
        // Statically untestable classes simulate to the fault-free output
        // under every pattern, so skipping them leaves the table
        // bit-identical while saving their lanes.
        let testable: Vec<Fault> = universe
            .classes()
            .iter()
            .filter(|c| c.is_testable())
            .map(|c| c.representative)
            .collect();
        let (fault_free, differing) =
            one_pattern_all_faults(compiled, &mut compiled.evaluator(), inputs, &testable);
        let mut rows: Vec<(LogicVec, Vec<SymbolicFault>)> = Vec::new();
        for (index, faulty) in differing {
            let name = testable[index].name(netlist);
            match rows.iter_mut().find(|(o, _)| *o == faulty) {
                Some((_, faults)) => faults.push(name),
                None => rows.push((faulty, vec![name])),
            }
        }
        DetectionTable {
            inputs: inputs.clone(),
            fault_free,
            rows,
        }
    }

    /// The input configuration the table was built for.
    #[must_use]
    pub fn inputs(&self) -> &LogicVec {
        &self.inputs
    }

    /// The fault-free output configuration.
    #[must_use]
    pub fn fault_free(&self) -> &LogicVec {
        &self.fault_free
    }

    /// The rows: `(erroneous output, faults causing it)`.
    #[must_use]
    pub fn rows(&self) -> &[(LogicVec, Vec<SymbolicFault>)] {
        &self.rows
    }

    /// The erroneous output a given fault would produce, if it is excited
    /// and propagated to the component outputs by these inputs.
    #[must_use]
    pub fn output_for(&self, fault: &SymbolicFault) -> Option<&LogicVec> {
        self.rows
            .iter()
            .find(|(_, faults)| faults.contains(fault))
            .map(|(o, _)| o)
    }

    /// All faults this input configuration can expose at the component
    /// boundary.
    #[must_use]
    pub fn exposable_faults(&self) -> Vec<&SymbolicFault> {
        self.rows.iter().flat_map(|(_, fs)| fs.iter()).collect()
    }

    /// Encodes the table as a wire [`Value`] for RMI transmission.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("inputs".into(), Value::Vec(self.inputs.clone())),
            ("fault_free".into(), Value::Vec(self.fault_free.clone())),
            (
                "rows".into(),
                Value::List(
                    self.rows
                        .iter()
                        .map(|(out, faults)| {
                            Value::Map(vec![
                                ("output".into(), Value::Vec(out.clone())),
                                (
                                    "faults".into(),
                                    Value::List(
                                        faults
                                            .iter()
                                            .map(|f| Value::Str(f.as_str().to_owned()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a table from its wire [`Value`] form.
    ///
    /// Returns `None` when the value is not a well-formed table; a row
    /// whose output is not as wide as the fault-free configuration is
    /// malformed (consumers slice rows by the component's port widths).
    #[must_use]
    pub fn from_value(value: &Value) -> Option<DetectionTable> {
        let inputs = value.get("inputs")?.as_logic_vec()?.clone();
        let fault_free = value.get("fault_free")?.as_logic_vec()?.clone();
        let mut rows = Vec::new();
        for row in value.get("rows")?.as_list()? {
            let out = row.get("output")?.as_logic_vec()?.clone();
            if out.width() != fault_free.width() {
                return None;
            }
            let faults = row
                .get("faults")?
                .as_list()?
                .iter()
                .map(|f| f.as_str().map(SymbolicFault::from))
                .collect::<Option<Vec<_>>>()?;
            rows.push((out, faults));
        }
        Some(DetectionTable {
            inputs,
            fault_free,
            rows,
        })
    }
}

#[cfg(test)]
impl DetectionTable {
    /// Assembles a table from unchecked parts — shapes no builder or
    /// decoder produces, for testing the checks downstream of them.
    pub(crate) fn from_parts(
        inputs: LogicVec,
        fault_free: LogicVec,
        rows: Vec<(LogicVec, Vec<SymbolicFault>)>,
    ) -> DetectionTable {
        DetectionTable {
            inputs,
            fault_free,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::FaultyEvaluator;
    use vcad_netlist::generators;

    fn figure4_table() -> DetectionTable {
        let ip1 = generators::half_adder_nand();
        let universe = FaultUniverse::collapsed(&ip1);
        // Inputs (a=1, b=0): MSB-first string "01" means b=0, a=1.
        DetectionTable::build(&ip1, &universe, &"01".parse().unwrap())
    }

    #[test]
    fn figure4_shape() {
        let table = figure4_table();
        // Fault-free (sum, carry) = (1, 0).
        assert_eq!(table.fault_free().to_string(), "01");
        // Every row's output differs from the fault-free one.
        for (out, faults) in table.rows() {
            assert_ne!(out, table.fault_free());
            assert!(!faults.is_empty());
        }
        // The paper's two characteristic error configurations exist:
        // (sum, carry) = (1, 1) and (0, 0).
        let outputs: Vec<String> = table.rows().iter().map(|(o, _)| o.to_string()).collect();
        assert!(outputs.contains(&"11".to_string()), "{outputs:?}");
        assert!(outputs.contains(&"00".to_string()), "{outputs:?}");
    }

    #[test]
    fn rows_are_sound_against_faulty_evaluation() {
        let ip1 = generators::half_adder_nand();
        let universe = FaultUniverse::collapsed(&ip1);
        for p in 0..4u64 {
            let inputs = LogicVec::from_u64(2, p);
            let table = DetectionTable::build(&ip1, &universe, &inputs);
            let faulty = FaultyEvaluator::new(&ip1);
            for class in universe.classes() {
                let name = class.representative.name(&ip1);
                let simulated = faulty.outputs(&class.representative, &inputs);
                match table.output_for(&name) {
                    Some(out) => assert_eq!(*out, simulated, "{name} under {inputs}"),
                    None => assert_eq!(simulated, *table.fault_free(), "{name} under {inputs}"),
                }
            }
        }
    }

    #[test]
    fn wire_round_trip() {
        let table = figure4_table();
        let value = table.to_value();
        // The value survives actual encoding, like an RMI result would.
        let bytes = value.encode();
        let decoded = Value::decode(&bytes).unwrap();
        assert_eq!(DetectionTable::from_value(&decoded), Some(table));
    }

    #[test]
    fn from_value_rejects_garbage() {
        assert_eq!(DetectionTable::from_value(&Value::Null), None);
        assert_eq!(
            DetectionTable::from_value(&Value::Map(vec![("inputs".into(), Value::I64(3))])),
            None
        );
    }

    #[test]
    fn from_value_rejects_a_row_narrower_than_fault_free() {
        let short = DetectionTable::from_parts(
            "01".parse().unwrap(),
            "01".parse().unwrap(),
            vec![("0".parse().unwrap(), vec![SymbolicFault::from("f")])],
        );
        assert_eq!(DetectionTable::from_value(&short.to_value()), None);
    }

    #[test]
    fn exposable_faults_lists_all_rows() {
        let table = figure4_table();
        let n: usize = table.rows().iter().map(|(_, f)| f.len()).sum();
        assert_eq!(table.exposable_faults().len(), n);
    }
}
