//! Ablation: fault-simulation substrate scaling — serial event-driven
//! evaluation (one fault at a time through the scalar evaluator) versus
//! the compiled 64-way PPSFP engine on generated circuits, plus the
//! collapse ratio of the fault universe.
//!
//! Run with `cargo run -p vcad-bench --bin faultscale --release`. Every
//! run is the CI gate: the compiled PPSFP path must be at least 4×
//! faster than the serial event-driven baseline at the same pattern
//! budget on the largest circuit, with identical detected-fault sets.

use std::time::{Duration, Instant};

use vcad_bench::report::print_table;
use vcad_bench::workload::random_patterns;
use vcad_faults::{BitParallelSim, FaultUniverse, SerialFaultSim};
use vcad_netlist::generators::{self, RandomCircuitSpec};

/// The compiled engine must beat the serial baseline by at least this
/// factor on the largest measured circuit.
const MIN_SPEEDUP: f64 = 4.0;

/// Circuit sizes (gates), smallest to largest; the gate judges the last.
const SIZES: [usize; 3] = [100, 300, 1000];

/// Random patterns per circuit.
const PATTERNS: usize = 128;

struct SizeResult {
    gates: usize,
    total_faults: usize,
    collapsed: usize,
    detected: usize,
    serial: Duration,
    parallel: Duration,
}

impl SizeResult {
    fn speedup(&self) -> f64 {
        self.serial.as_secs_f64() / self.parallel.as_secs_f64().max(1e-9)
    }
}

fn measure(gates: usize, inputs: usize, outputs: usize, patterns: usize) -> SizeResult {
    let nl = generators::random_circuit(RandomCircuitSpec {
        inputs,
        gates,
        outputs,
        seed: 0xFA_u64 + gates as u64,
    });
    let universe = FaultUniverse::collapsed(&nl);
    let targets = universe.representatives();
    let patterns = random_patterns(inputs, patterns, 9);

    let serial = SerialFaultSim::new(&nl, targets.clone());
    let t0 = Instant::now();
    let detected_serial = serial.run(&patterns);
    let t_serial = t0.elapsed();

    let parallel = BitParallelSim::new(&nl, targets.clone());
    let t0 = Instant::now();
    let detected_parallel = parallel.run(&patterns);
    let t_parallel = t0.elapsed();

    assert_eq!(detected_serial, detected_parallel, "sims must agree");
    SizeResult {
        gates,
        total_faults: universe.total_faults(),
        collapsed: targets.len(),
        detected: detected_serial.len(),
        serial: t_serial,
        parallel: t_parallel,
    }
}

fn main() {
    let results: Vec<SizeResult> = SIZES
        .iter()
        .map(|&gates| measure(gates, 32, 16, PATTERNS))
        .collect();

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.gates.to_string(),
                r.total_faults.to_string(),
                r.collapsed.to_string(),
                format!("{:.1}%", 100.0 * r.detected as f64 / r.collapsed as f64),
                format!("{:.1} ms", r.serial.as_secs_f64() * 1e3),
                format!("{:.1} ms", r.parallel.as_secs_f64() * 1e3),
                format!("{:.1}×", r.speedup()),
            ]
        })
        .collect();
    print_table(
        &format!("Fault-simulation substrate scaling ({PATTERNS} random patterns, 32 PIs)"),
        &[
            "Gates",
            "Faults",
            "Collapsed",
            "Coverage",
            "Serial (event)",
            "Compiled PPSFP",
            "Speed-up",
        ],
        &rows,
    );
    println!(
        "\nBoth simulators agree exactly on every circuit; the compiled \
         PPSFP engine demonstrates the substrate headroom available to the \
         provider-side detection-table computation."
    );

    let largest = results.last().expect("at least one size measured");
    assert!(
        largest.speedup() >= MIN_SPEEDUP,
        "compiled PPSFP speedup {:.2}× at {} gates is below the {MIN_SPEEDUP}× floor",
        largest.speedup(),
        largest.gates,
    );
    println!(
        "engine gate passed: {:.1}× ≥ {MIN_SPEEDUP}× at {} gates",
        largest.speedup(),
        largest.gates
    );
}
