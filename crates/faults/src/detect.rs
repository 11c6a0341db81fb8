//! Detection tables: the paper's per-pattern testability exchange format.

use std::collections::HashMap;

use vcad_engine::CompiledNetlist;
use vcad_logic::LogicVec;
use vcad_netlist::Netlist;
use vcad_rmi::{RmiError, Value, Wire, WireError};

use crate::collapse::FaultUniverse;
use crate::fault::{Fault, SymbolicFault};
use crate::parallel::{lanes, one_pattern_all_faults};

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
    /// layout. Only the faults that differ are named.
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
        let testable = testable_representatives(universe);
        FaultRows::simulate(compiled, inputs, &testable)
            .named(inputs, |i| testable[i].name(netlist))
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

    /// Drops the spare capacity a table keeps from being built or
    /// decoded (an in-place `collect` from wire values holds their
    /// larger buffers), before the table is stored for the long term.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.rows.shrink_to_fit();
        for (_, faults) in &mut self.rows {
            faults.shrink_to_fit();
        }
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

    /// Encodes the table as a wire [`Value`] for RMI transmission
    /// (copying it; [`Wire::into_value`] moves it).
    #[must_use]
    pub fn to_value(&self) -> Value {
        self.clone().into_value()
    }

    /// Decodes a table from its wire [`Value`] form (copying it;
    /// [`Wire::from_value`] moves it and says what is wrong).
    ///
    /// Returns `None` when the value is not a well-formed table.
    #[must_use]
    pub fn from_value(value: &Value) -> Option<DetectionTable> {
        <DetectionTable as Wire>::from_value(value.clone()).ok()
    }
}

/// The table moves onto the wire and off it without a copy: the
/// configurations and fault names are moved into (out of) the [`Value`].
impl Wire for DetectionTable {
    fn into_value(self) -> Value {
        let rows = self
            .rows
            .into_iter()
            .map(|(out, faults)| {
                Value::Map(vec![
                    ("output".into(), Value::Vec(out)),
                    ("faults".into(), faults.into_value()),
                ])
            })
            .collect();
        Value::Map(vec![
            ("inputs".into(), Value::Vec(self.inputs)),
            ("fault_free".into(), Value::Vec(self.fault_free)),
            ("rows".into(), Value::List(rows)),
        ])
    }

    /// A row whose output is not as wide as the fault-free configuration
    /// is malformed (consumers slice rows by the component's port widths).
    fn from_value(mut table: Value) -> Result<DetectionTable, RmiError> {
        let inputs = LogicVec::from_value(table.take("inputs"))?;
        let fault_free = LogicVec::from_value(table.take("fault_free"))?;
        let Value::List(rows) = table.take("rows") else {
            return Err(WireError::BadValue("detection table rows").into());
        };
        let rows = rows
            .into_iter()
            .map(|mut row| {
                let out = LogicVec::from_value(row.take("output"))?;
                let faults = Vec::from_value(row.take("faults"))?;
                if out.width() == fault_free.width() {
                    Ok((out, faults))
                } else {
                    Err(WireError::BadValue("detection table row width").into())
                }
            })
            .collect::<Result<_, RmiError>>()?;
        Ok(DetectionTable {
            inputs,
            fault_free,
            rows,
        })
    }
}

/// A detection table as the provider keeps it: the faults are indices
/// into the fault slice the table was simulated over, four bytes a
/// fault instead of a name, in one buffer grouped by row. A reply names
/// them ([`FaultRows::named`]).
#[derive(Debug)]
pub(crate) struct FaultRows {
    fault_free: LogicVec,
    /// Each row's erroneous output, rows in first-seen order.
    outputs: Vec<LogicVec>,
    /// Where each row's faults start in `faults`.
    starts: Vec<u32>,
    /// The faults that differ, each row's in simulation order.
    faults: Vec<u32>,
}

impl FaultRows {
    /// The rows of `faults` under `inputs`, listing only the faults that
    /// differ. Rows are hashed by the lane's outputs, two rail bits per
    /// output transposed out of each pass: one probe per fault, one
    /// [`LogicVec`] per row, rows in first-seen order.
    pub(crate) fn simulate(
        compiled: &CompiledNetlist,
        inputs: &LogicVec,
        faults: &[Fault],
    ) -> FaultRows {
        let index = |i: usize| u32::try_from(i).expect("fewer than 2^32 faults");
        let mut outputs: Vec<LogicVec> = Vec::new();
        let mut row_of: HashMap<Vec<u64>, u32> = HashMap::new();
        // (row, fault) per differing fault, in simulation order.
        let mut hits: Vec<(u32, u32)> = Vec::new();
        let mut keys = Vec::new();
        let mut eval = compiled.evaluator();
        let fault_free =
            one_pattern_all_faults(compiled, &mut eval, inputs, faults, |pass, out, mask| {
                let words = (2 * out.width()).div_ceil(64);
                keys.resize(64 * words, 0);
                for word in 0..words {
                    let mut rails = [0u64; 64];
                    for (j, bit) in (32 * word..out.width().min(32 * word + 32)).enumerate() {
                        (rails[2 * j], rails[2 * j + 1]) = (out.word(bit).one, out.word(bit).zero);
                    }
                    transpose64(&mut rails);
                    for (lane, key) in rails.into_iter().enumerate() {
                        keys[lane * words + word] = key;
                    }
                }
                for lane in lanes(mask) {
                    let key = &keys[lane * words..][..words];
                    let row = row_of.get(key).copied().unwrap_or_else(|| {
                        outputs.push(out.lane(lane));
                        row_of.insert(key.to_vec(), index(outputs.len() - 1));
                        index(outputs.len() - 1)
                    });
                    hits.push((row, index(pass[lane])));
                }
            });
        // Group the hits by row, keeping each row's order (a counting
        // sort): `starts` holds each row's end, then, filled backwards,
        // its start.
        let mut starts = vec![0u32; outputs.len()];
        for &(row, _) in &hits {
            starts[row as usize] += 1;
        }
        let mut end = 0;
        for start in &mut starts {
            end += *start;
            *start = end;
        }
        let mut grouped = vec![0u32; hits.len()];
        for &(row, fault) in hits.iter().rev() {
            let at = &mut starts[row as usize];
            *at -= 1;
            grouped[*at as usize] = fault;
        }
        FaultRows {
            fault_free,
            outputs,
            starts,
            faults: grouped,
        }
    }

    /// The table for `inputs`, naming fault `i` as `name(i)`.
    pub(crate) fn named(
        &self,
        inputs: &LogicVec,
        mut name: impl FnMut(usize) -> SymbolicFault,
    ) -> DetectionTable {
        let rows = self.outputs.iter().enumerate().map(|(row, out)| {
            let faults = self.row(row).iter().map(|&i| name(i as usize)).collect();
            (out.clone(), faults)
        });
        DetectionTable {
            inputs: inputs.clone(),
            fault_free: self.fault_free.clone(),
            rows: rows.collect(),
        }
    }

    /// The faults of row `row`.
    fn row(&self, row: usize) -> &[u32] {
        let end = self
            .starts
            .get(row + 1)
            .map_or(self.faults.len(), |&s| s as usize);
        &self.faults[self.starts[row] as usize..end]
    }

    /// Drops the spare capacity the outputs grew while being simulated
    /// (the index buffers are allocated to size).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.outputs.shrink_to_fit();
    }

    /// The heap bytes the rows hold, counted from their capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        let outputs = self.outputs.capacity() * size_of::<LogicVec>()
            + self.outputs.iter().map(logic_heap_bytes).sum::<usize>();
        let indices = (self.starts.capacity() + self.faults.capacity()) * size_of::<u32>();
        logic_heap_bytes(&self.fault_free) + outputs + indices
    }
}

/// The heap bytes of a [`LogicVec`]: none up to one 64-bit limb, which
/// it stores inline, then a value plane and a meta plane of limbs.
pub(crate) fn logic_heap_bytes(v: &LogicVec) -> usize {
    if v.width() <= 64 {
        0
    } else {
        2 * v.width().div_ceil(64) * size_of::<u64>()
    }
}

/// Transposes a 64 × 64 bit matrix in place: bit `c` of row `r` swaps
/// with bit `r` of row `c` (Hacker's Delight, 7-3).
fn transpose64(m: &mut [u64; 64]) {
    let (mut j, mut mask) = (32, 0x0000_0000_FFFF_FFFF_u64);
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// The classes a table simulates: statically untestable ones never
/// differ from the fault-free outputs, so skipping them saves lanes.
pub(crate) fn testable_representatives(universe: &FaultUniverse) -> Vec<Fault> {
    let testable = universe.classes().iter().filter(|c| c.is_testable());
    testable.map(|c| c.representative).collect()
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
    fn transpose64_swaps_rows_and_columns() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let original: [u64; 64] = std::array::from_fn(|_| vcad_prng::splitmix64(&mut state));
        let mut m = original;
        transpose64(&mut m);
        for (r, row) in original.iter().enumerate() {
            for (c, col) in m.iter().enumerate() {
                assert_eq!(row >> c & 1, col >> r & 1, "row {r}, column {c}");
            }
        }
    }

    #[test]
    fn exposable_faults_lists_all_rows() {
        let table = figure4_table();
        let n: usize = table.rows().iter().map(|(_, f)| f.len()).sum();
        assert_eq!(table.exposable_faults().len(), n);
    }
}
