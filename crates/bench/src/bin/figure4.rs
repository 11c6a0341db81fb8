//! Regenerates **Figure 4**: the half-adder example circuit containing IP
//! block IP1, and IP1's detection table for the input configuration
//! `(IIP1, IIP2) = (1, 0)` — printed alongside the paper's walk-through
//! of patterns `ABCD = 1100` and `1101`.
//!
//! Run with `cargo run -p vcad-bench --bin figure4`. The bin asserts the
//! figure's shape: the fault-free `(carry,sum)` is `01`, the table has a
//! non-empty carry-flip row `11` and a non-empty sum-flip row `00`, and
//! no fault appears in two rows.

use std::sync::Arc;

use vcad_bench::report::print_table;
use vcad_faults::{DetectionTableSource, FaultUniverse, NetlistDetectionSource};
use vcad_netlist::generators;

fn main() {
    let ip1 = Arc::new(generators::half_adder_nand());
    let universe = FaultUniverse::collapsed(&ip1);
    println!(
        "IP1: NAND-style half adder, {} gates; fault universe {} faults \
         collapsing to {} classes (paper's list: 9 gate-output faults).",
        ip1.gate_count(),
        universe.total_faults(),
        universe.class_count()
    );

    let source = NetlistDetectionSource::new(Arc::clone(&ip1));
    println!("\nSymbolic fault list published to the user:");
    for f in source.fault_list() {
        println!("  {f}");
    }

    // The paper's case: IIP1 = 1, IIP2 = 0.
    let inputs: vcad_logic::LogicVec = "01".parse().expect("valid pattern");
    let table = source.detection_table(&inputs).expect("local source");
    assert_eq!(
        table.fault_free().to_string(),
        "01",
        "fault-free (carry,sum)"
    );
    let row = |out: &str| {
        table
            .rows()
            .iter()
            .find(|(o, _)| o.to_string() == out)
            .map(|(_, faults)| faults)
            .filter(|faults| !faults.is_empty())
            .unwrap_or_else(|| panic!("no non-empty detection row {out}"))
    };
    row("11"); // the carry-flip row
    let sum_flip = row("00");
    let mut seen = std::collections::HashSet::new();
    for (_, faults) in table.rows() {
        for f in faults {
            assert!(seen.insert(f), "fault {f} appears in two rows");
        }
    }
    let rows: Vec<Vec<String>> = table
        .rows()
        .iter()
        .map(|(out, faults)| {
            vec![
                out.to_string(),
                faults
                    .iter()
                    .map(|f| f.as_str().to_owned())
                    .collect::<Vec<_>>()
                    .join(", "),
            ]
        })
        .collect();
    print_table(
        "Figure 4(b) — IP1's detection table for (IIP1, IIP2) = (1, 0)",
        &["Faulty output (carry,sum)", "Fault list"],
        &rows,
    );
    println!(
        "\nFault-free output (carry,sum) = {}. Paper's table rows: 11 -> \
         {{I6sa1}}, 00 -> {{I3sa0, I4sa1}} (their gate numbering; our \
         structurally different IP1 yields the same two characteristic \
         rows: a carry-flip row and a sum-flip row).",
        table.fault_free()
    );

    // Walk the paper's propagation argument.
    println!(
        "\nWith ABCD = 1100 the faulty value on OIP1 (sum) does not \
         propagate to O1 because D = 0; pattern 1101 detects every fault \
         in the sum-flip row: {}.",
        sum_flip
            .iter()
            .map(|f| f.as_str().to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    );
}
