//! Property tests for the served-table kernel: on random netlists and
//! random four-valued inputs, `NetlistDetectionSource` (interned fault
//! names, hashed rows) must build exactly the table `DetectionTable::build`
//! and the serial oracle build — with and without static testability,
//! including a source that served tables *before* `with_testability` —
//! and the owning codec must agree byte for byte with the borrowing one.
//!
//! Failures print the seed that produced them; rerun just that seed
//! with `VCAD_PROP_SEED=<seed> cargo test -p vcad-faults --test
//! table_property`.

use std::sync::Arc;

use vcad_faults::{DetectionTable, DetectionTableSource, FaultUniverse, NetlistDetectionSource};
use vcad_logic::{Logic, LogicVec};
use vcad_netlist::generators::{self, RandomCircuitSpec};
use vcad_netlist::Netlist;
use vcad_prng::Rng;
use vcad_rmi::{Value, Wire};

mod oracle;

const SEEDS: [u64; 6] = [3, 17, 41, 97, 1009, 8675309];

fn seeds_under_test() -> Vec<u64> {
    match std::env::var("VCAD_PROP_SEED") {
        Ok(s) => vec![s.parse().expect("VCAD_PROP_SEED: bad seed")],
        Err(_) => SEEDS.to_vec(),
    }
}

/// A random circuit per seed — sometimes with more than 32 outputs, so
/// row keys span two words — plus a circuit the testability analysis
/// prunes.
fn netlist(rng: &mut Rng, seed: u64) -> Netlist {
    let outputs = match seed % 3 {
        0 => return generators::untestable_demo(rng.gen_range(2usize..4)),
        1 => rng.gen_range(33usize..40),
        _ => rng.gen_range(1usize..8),
    };
    generators::random_circuit(RandomCircuitSpec {
        inputs: rng.gen_range(3usize..10),
        gates: outputs + rng.gen_range(10usize..120),
        outputs,
        seed,
    })
}

/// Inputs drawn uniformly from `0`, `1`, `X` and `Z`, all-binary ones so
/// rows are plentiful, and the four-valued corners.
fn patterns(rng: &mut Rng, width: usize) -> Vec<LogicVec> {
    const VALUES: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];
    (0..12)
        .map(|i| {
            let mut p = LogicVec::zeros(width);
            for bit in 0..width {
                let v = if i % 2 == 0 {
                    VALUES[rng.gen_range(0usize..2)]
                } else {
                    VALUES[rng.gen_range(0usize..4)]
                };
                p.set(bit, v);
            }
            p
        })
        .chain(oracle::four_valued_corners(width))
        .collect()
}

/// The checks every served table must pass.
fn check_table(
    served: &DetectionTable,
    nl: &Netlist,
    universe: &FaultUniverse,
    full: &FaultUniverse,
    context: &str,
) {
    let inputs = served.inputs();
    assert_eq!(
        *served,
        DetectionTable::build(nl, universe, inputs),
        "{context}: source vs build under {inputs}"
    );
    oracle::assert_matches_serial_oracle(served, nl, full, context);
    let owned = served.clone().into_value();
    assert_eq!(
        owned,
        served.to_value(),
        "{context}: into_value vs to_value"
    );
    assert_eq!(
        owned.encode(),
        served.to_value().encode(),
        "{context}: into_value bytes"
    );
    assert_eq!(
        <DetectionTable as Wire>::from_value(owned).ok().as_ref(),
        Some(served),
        "{context}: owning decode"
    );
}

#[test]
fn source_tables_equal_build_and_the_serial_oracle() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed ^ 0x7AB1E);
        let nl = Arc::new(netlist(&mut rng, seed));
        let full = FaultUniverse::collapsed(&nl);
        let pats = patterns(&mut rng, nl.input_count());
        let context = format!("seed {seed} (rerun with VCAD_PROP_SEED={seed})");

        let plain = NetlistDetectionSource::new(Arc::clone(&nl));
        let pruned = NetlistDetectionSource::new(Arc::clone(&nl)).with_testability();
        // Serves (and interns) first, then turns testability on.
        let late = NetlistDetectionSource::new(Arc::clone(&nl));
        let _ = late.detection_table(&pats[0]).unwrap();
        let late = late.with_testability();
        assert_eq!(
            late.universe().testable_class_count(),
            pruned.universe().testable_class_count(),
            "{context}"
        );

        for inputs in &pats {
            for (name, source) in [("plain", &plain), ("pruned", &pruned), ("late", &late)] {
                let served = source.detection_table(inputs).unwrap();
                assert_eq!(served.inputs(), inputs);
                check_table(
                    &served,
                    &nl,
                    source.universe(),
                    &full,
                    &format!("{context}, {name}"),
                );
            }
        }
    }
}

/// Every malformed shape: the owning decode rejects (or tolerates)
/// exactly what the borrowing one does.
#[test]
fn owning_decode_equals_from_value_on_every_shape() {
    let nl = generators::half_adder_nand();
    let table = DetectionTable::build(&nl, &FaultUniverse::collapsed(&nl), &"01".parse().unwrap());
    let Value::Map(entries) = table.to_value() else {
        panic!("tables encode as maps");
    };
    let row_entries = |entries: &[(String, Value)]| -> Vec<(String, Value)> {
        let rows = entries.iter().find(|(k, _)| k == "rows").unwrap();
        let Value::List(rows) = &rows.1 else {
            panic!("rows encode as a list")
        };
        let Value::Map(row) = &rows[0] else {
            panic!("a row encodes as a map")
        };
        row.clone()
    };
    let with_row = |row: Vec<(String, Value)>| -> Value {
        let mut e = entries.clone();
        let rows = e.iter_mut().find(|(k, _)| k == "rows").unwrap();
        let Value::List(list) = &mut rows.1 else {
            unreachable!()
        };
        list[0] = Value::Map(row);
        Value::Map(e)
    };
    let mut shapes: Vec<(&str, Value)> = vec![("well-formed", table.to_value())];
    for key in ["inputs", "fault_free", "rows"] {
        let missing: Vec<_> = entries.iter().filter(|(k, _)| k != key).cloned().collect();
        shapes.push(("missing key", Value::Map(missing)));
        let mut wrong = entries.clone();
        wrong.iter_mut().find(|(k, _)| k == key).unwrap().1 = Value::I64(7);
        shapes.push(("non-Vec value", Value::Map(wrong)));
    }
    let mut row = row_entries(&entries);
    row.retain(|(k, _)| k != "faults");
    shapes.push(("row missing faults", with_row(row)));
    let mut row = row_entries(&entries);
    row[0].1 = Value::Vec("0".parse().unwrap());
    shapes.push(("narrow row", with_row(row)));
    let mut row = row_entries(&entries);
    row[1].1 = Value::List(vec![Value::Str("f".into()), Value::I64(1)]);
    shapes.push(("non-Str fault", with_row(row)));
    let mut row = row_entries(&entries);
    row.push(("extra".into(), Value::Null));
    row.insert(0, ("output".into(), Value::Vec("11".parse().unwrap())));
    shapes.push(("duplicate row key, extra row key", with_row(row)));
    let mut dup = entries.clone();
    dup.insert(0, ("fault_free".into(), Value::Vec("10".parse().unwrap())));
    dup.push(("inputs".into(), Value::Null));
    dup.push(("comment".into(), Value::Str("ignored".into())));
    shapes.push(("duplicate keys, extra key", Value::Map(dup)));
    shapes.push(("not a map", Value::List(vec![])));
    shapes.push(("rows not a list", {
        let mut e = entries.clone();
        e.iter_mut().find(|(k, _)| k == "rows").unwrap().1 = Value::Str("rows".into());
        Value::Map(e)
    }));
    shapes.push(("row not a map", {
        let mut e = entries.clone();
        e.iter_mut().find(|(k, _)| k == "rows").unwrap().1 = Value::List(vec![Value::Null]);
        Value::Map(e)
    }));

    let mut accepted = 0;
    for (what, value) in shapes {
        let borrowed = DetectionTable::from_value(&value);
        accepted += usize::from(borrowed.is_some());
        assert_eq!(
            <DetectionTable as Wire>::from_value(value).ok(),
            borrowed,
            "{what}"
        );
    }
    // The well-formed table and the two duplicate/extra-key shapes.
    assert_eq!(accepted, 3);
}
