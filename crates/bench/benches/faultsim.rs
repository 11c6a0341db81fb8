//! Fault-simulation substrates: serial vs bit-parallel flat simulation,
//! detection-table construction (one-shot and over a held plan), and
//! the full virtual fault simulation of the Figure 4 circuit on both
//! scheduler engines.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use vcad_bench::microbench::Group;
use vcad_bench::workload::random_patterns;
use vcad_core::EngineKind;
use vcad_engine::CompiledNetlist;
use vcad_faults::{
    BitParallelSim, DetectionTable, FaultUniverse, NetlistDetectionSource, SerialFaultSim,
};
use vcad_logic::LogicVec;
use vcad_netlist::generators::{self, RandomCircuitSpec};

fn bench_flat() {
    let mut group = Group::new("faultsim_flat")
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for gates in [100usize, 300] {
        let nl = generators::random_circuit(RandomCircuitSpec {
            inputs: 24,
            gates,
            outputs: 12,
            seed: 31 + gates as u64,
        });
        let targets = FaultUniverse::collapsed(&nl).representatives();
        let patterns = random_patterns(24, 32, 4);
        let serial = SerialFaultSim::new(&nl, targets.clone());
        group.bench(format!("serial/{gates}"), || {
            black_box(serial.run(&patterns));
        });
        let parallel = BitParallelSim::new(&nl, targets.clone());
        group.bench(format!("bit_parallel/{gates}"), || {
            black_box(parallel.run(&patterns));
        });
    }
}

fn bench_detection_tables() {
    let mut group = Group::new("detection_tables")
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for width in [4usize, 6] {
        let nl = Arc::new(generators::wallace_multiplier(width));
        let universe = FaultUniverse::collapsed(&nl);
        let inputs = LogicVec::from_u64(2 * width, 0xA5A5 & ((1 << (2 * width)) - 1));
        group.bench(format!("build/{width}"), || {
            black_box(DetectionTable::build(&nl, &universe, &inputs));
        });
        let compiled = CompiledNetlist::compile(&nl);
        group.bench(format!("build_compiled/{width}"), || {
            black_box(DetectionTable::build_compiled(
                &compiled, &nl, &universe, &inputs,
            ));
        });
        let table = DetectionTable::build(&nl, &universe, &inputs);
        group.bench(format!("marshal/{width}"), || {
            black_box(table.to_value().encode());
        });
    }
}

fn bench_virtual() {
    use vcad_core::stdlib::{NetlistBlock, PrimaryOutput, VectorInput};
    use vcad_core::DesignBuilder;
    use vcad_faults::{IpBlockBinding, VirtualFaultSim};

    // A small design: random patterns driving an IP half adder whose
    // outputs are observed directly.
    let ip1 = Arc::new(generators::half_adder_nand());
    let patterns: Vec<u64> = (0..16).collect();
    let mut b = DesignBuilder::new("vfs");
    let ia = b.add_module(Arc::new(VectorInput::new(
        "A",
        patterns
            .iter()
            .map(|p| LogicVec::from_u64(1, p & 1))
            .collect(),
    )));
    let ib = b.add_module(Arc::new(VectorInput::new(
        "B",
        patterns
            .iter()
            .map(|p| LogicVec::from_u64(1, p >> 1 & 1))
            .collect(),
    )));
    let ip = b.add_module(Arc::new(NetlistBlock::new("IP1", Arc::clone(&ip1))));
    let o1 = b.add_module(Arc::new(PrimaryOutput::new("O1", 1)));
    let o2 = b.add_module(Arc::new(PrimaryOutput::new("O2", 1)));
    b.connect(ia, "out", ip, "a").unwrap();
    b.connect(ib, "out", ip, "b").unwrap();
    b.connect(ip, "sum", o1, "in").unwrap();
    b.connect(ip, "carry", o2, "in").unwrap();
    let design = Arc::new(b.build().unwrap());

    let mut group = Group::new("virtual_fault_sim")
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for engine in EngineKind::ALL {
        let design = Arc::clone(&design);
        let ip1 = Arc::clone(&ip1);
        group.bench(format!("half_adder_16_patterns/{engine}"), move || {
            let sim = VirtualFaultSim::new(
                Arc::clone(&design),
                vec![IpBlockBinding {
                    module: ip,
                    source: Arc::new(NetlistDetectionSource::new(Arc::clone(&ip1))),
                }],
                vec![o1, o2],
            )
            .expect("virtual fault sim config")
            .with_engine(engine);
            black_box(sim.run().expect("virtual fault simulation"));
        });
    }
}

fn main() {
    bench_flat();
    bench_detection_tables();
    bench_virtual();
}
