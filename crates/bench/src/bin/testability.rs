//! Ablation: static untestable-fault pruning — the compiled PPSFP
//! engine over the full collapsed fault universe versus the universe
//! with statically-proven untestable classes removed
//! (`vcad_faults::TestabilityAnalysis`), on the faultscale generated
//! circuits.
//!
//! Run with `cargo run -p vcad-bench --bin testability --release`. Every
//! run is the CI gate: pruning must find untestable faults on the
//! largest circuit and must not slow simulation down, with identical
//! detected-fault sets (the static proofs are sound, so dropping the
//! dead sites can never change coverage).

use std::time::{Duration, Instant};

use vcad_bench::report::print_table;
use vcad_bench::workload::random_patterns;
use vcad_faults::{BitParallelSim, Fault, FaultUniverse, TestabilityAnalysis};
use vcad_netlist::generators::{self, RandomCircuitSpec};

/// The pruned run must be at least this much faster on the largest
/// circuit. The floor is deliberately mild — the pruned fraction of a
/// random circuit is what it is — but it proves the pruning is a
/// genuine speedup, not a wash.
const MIN_SPEEDUP: f64 = 1.05;

/// The faultscale circuit sizes (gates); the gate judges the last.
const SIZES: [usize; 3] = [100, 300, 1000];

/// Random patterns per circuit.
const PATTERNS: usize = 128;

struct SizeResult {
    gates: usize,
    collapsed: usize,
    untestable: usize,
    detected: usize,
    analysis: Duration,
    full: Duration,
    pruned: Duration,
}

impl SizeResult {
    fn speedup(&self) -> f64 {
        self.full.as_secs_f64() / self.pruned.as_secs_f64().max(1e-9)
    }
}

fn sorted_names(netlist: &vcad_netlist::Netlist, detected: &[Fault]) -> Vec<String> {
    let mut names: Vec<String> = detected
        .iter()
        .map(|f| f.name(netlist).as_str().to_owned())
        .collect();
    names.sort();
    names
}

fn measure(gates: usize, inputs: usize, outputs: usize, patterns: usize) -> SizeResult {
    let nl = generators::random_circuit(RandomCircuitSpec {
        inputs,
        gates,
        outputs,
        seed: 0xFA_u64 + gates as u64,
    });

    let t0 = Instant::now();
    let analysis = TestabilityAnalysis::analyze(&nl);
    let mut universe = FaultUniverse::collapsed(&nl);
    let marked = universe.apply_testability(&nl, &analysis);
    let t_analysis = t0.elapsed();

    let full_targets = universe.representatives();
    let pruned_targets: Vec<Fault> = universe
        .classes()
        .iter()
        .filter(|c| c.is_testable())
        .map(|c| c.representative)
        .collect();
    let patterns = random_patterns(inputs, patterns, 9);

    let full_sim = BitParallelSim::new(&nl, full_targets);
    let t0 = Instant::now();
    let detected_full = full_sim.run(&patterns);
    let t_full = t0.elapsed();

    let pruned_sim = BitParallelSim::new(&nl, pruned_targets);
    let t0 = Instant::now();
    let detected_pruned = pruned_sim.run(&patterns);
    let t_pruned = t0.elapsed();

    assert_eq!(
        sorted_names(&nl, &detected_full),
        sorted_names(&nl, &detected_pruned),
        "pruning must not change the detected set"
    );
    SizeResult {
        gates,
        collapsed: universe.class_count(),
        untestable: marked,
        detected: detected_full.len(),
        analysis: t_analysis,
        full: t_full,
        pruned: t_pruned,
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
                r.collapsed.to_string(),
                format!(
                    "{} ({:.1}%)",
                    r.untestable,
                    100.0 * r.untestable as f64 / r.collapsed as f64
                ),
                format!("{:.1}%", 100.0 * r.detected as f64 / r.collapsed as f64),
                format!("{:.1} ms", r.analysis.as_secs_f64() * 1e3),
                format!("{:.1} ms", r.full.as_secs_f64() * 1e3),
                format!("{:.1} ms", r.pruned.as_secs_f64() * 1e3),
                format!("{:.1}×", r.speedup()),
            ]
        })
        .collect();
    print_table(
        &format!("Static untestable-fault pruning ({PATTERNS} random patterns, 32 PIs)"),
        &[
            "Gates",
            "Classes",
            "Untestable",
            "Coverage",
            "Analysis",
            "Full PPSFP",
            "Pruned PPSFP",
            "Speed-up",
        ],
        &rows,
    );
    println!(
        "\nDetected sets agree exactly on every circuit: statically-proven \
         untestable faults simulate to the fault-free response under every \
         pattern, so pruning them buys wall clock without touching coverage."
    );

    let largest = results.last().expect("at least one size measured");
    assert!(
        largest.untestable > 0,
        "the {}-gate circuit should carry statically untestable faults",
        largest.gates,
    );
    assert!(
        largest.speedup() >= MIN_SPEEDUP,
        "pruned-universe speedup {:.2}× at {} gates is below the {MIN_SPEEDUP}× floor",
        largest.speedup(),
        largest.gates,
    );
    println!(
        "testability gate passed: {:.2}× ≥ {MIN_SPEEDUP}× at {} gates \
         ({} of {} classes pruned)",
        largest.speedup(),
        largest.gates,
        largest.untestable,
        largest.collapsed,
    );
}
