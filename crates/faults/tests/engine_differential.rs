//! Differential tests between the event-driven and compiled engines at
//! the fault-simulation level: virtual fault simulation must produce
//! identical coverage reports — detected faults in the same order, the
//! same per-pattern history, the same table-request and injection
//! counts — whichever backend evaluates the gates, across shard counts.
//! Detection tables have one production builder (the compiled
//! parallel-fault transpose); it is checked here against the serial
//! oracle in `oracle/mod.rs`.
//!
//! Failures print the seed that produced them; rerun just that seed
//! with `VCAD_PROP_SEED=<seed> cargo test -p vcad-faults --test
//! engine_differential`.

use std::sync::Arc;

use vcad_core::stdlib::{Fanout, NetlistBlock, PrimaryOutput, VectorInput};
use vcad_core::{Design, DesignBuilder, EngineKind, ModuleId, ShardPolicy};
use vcad_faults::{
    BitParallelSim, CoverageReport, DetectionTable, FaultUniverse, IpBlockBinding,
    NetlistDetectionSource, SerialFaultSim, TestabilityAnalysis, VirtualFaultSim,
};
use vcad_logic::LogicVec;
use vcad_netlist::generators::{self, RandomCircuitSpec};
use vcad_netlist::{GateKind, Netlist, NetlistBuilder};
use vcad_prng::Rng;

mod oracle;

const SEEDS: [u64; 6] = [2, 11, 29, 47, 101, 8675309];

fn seeds_under_test() -> Vec<u64> {
    match std::env::var("VCAD_PROP_SEED") {
        Ok(s) => vec![s.parse().expect("VCAD_PROP_SEED: bad seed")],
        Err(_) => SEEDS.to_vec(),
    }
}

/// A random IP block behind two layers of user logic, 16 exhaustive
/// ABCD patterns — the proptests scenario, reduced to what an engine
/// comparison needs.
fn scenario(seed: u64) -> (Arc<Design>, ModuleId, Vec<ModuleId>, Arc<Netlist>) {
    let mut rng = Rng::seed_from_u64(seed);
    let ip = Arc::new(generators::random_circuit(RandomCircuitSpec {
        inputs: 3,
        gates: rng.gen_range(8usize..20),
        outputs: 2,
        seed,
    }));
    let user_kind = |code: usize| match code % 4 {
        0 => GateKind::And,
        1 => GateKind::Or,
        2 => GateKind::Xor,
        _ => GateKind::Nand,
    };
    let gate2 = |name: &str, kind: GateKind| {
        let mut nb = NetlistBuilder::new(name);
        let x = nb.input("x");
        let y = nb.input("y");
        let o = nb.gate(kind, &[x, y]);
        nb.output("o", o);
        Arc::new(nb.build().unwrap())
    };
    let bit = |v: u64| LogicVec::from_u64(1, v);
    let seq = |f: &dyn Fn(u64) -> u64| (0..16).map(|p| bit(f(p))).collect::<Vec<_>>();

    let mut db = DesignBuilder::new("engine_diff");
    let ia = db.add_module(Arc::new(VectorInput::new("A", seq(&|p| p & 1))));
    let ib = db.add_module(Arc::new(VectorInput::new("B", seq(&|p| p >> 1 & 1))));
    let ic = db.add_module(Arc::new(VectorInput::new("C", seq(&|p| p >> 2 & 1))));
    let id = db.add_module(Arc::new(VectorInput::new("D", seq(&|p| p >> 3 & 1))));
    let fan_d = db.add_module(Arc::new(Fanout::uniform("FD", 1, 2)));
    let ip_mod = db.add_module(Arc::new(NetlistBlock::new("IP", Arc::clone(&ip))));
    let w1 = db.add_module(Arc::new(NetlistBlock::new(
        "W1",
        gate2("w1g", user_kind(rng.gen_range(0usize..4))),
    )));
    let w2 = db.add_module(Arc::new(NetlistBlock::new(
        "W2",
        gate2("w2g", user_kind(rng.gen_range(0usize..4))),
    )));
    let po1 = db.add_module(Arc::new(PrimaryOutput::new("O1", 1)));
    let po2 = db.add_module(Arc::new(PrimaryOutput::new("O2", 1)));

    let ip_in = |i: usize| ip.net(ip.inputs()[i]).name().to_owned();
    let ip_out = |i: usize| ip.outputs()[i].0.clone();
    db.connect(ia, "out", ip_mod, &ip_in(0)).unwrap();
    db.connect(ib, "out", ip_mod, &ip_in(1)).unwrap();
    db.connect(ic, "out", ip_mod, &ip_in(2)).unwrap();
    db.connect(id, "out", fan_d, "in").unwrap();
    db.connect(ip_mod, &ip_out(0), w1, "x").unwrap();
    db.connect(fan_d, "out0", w1, "y").unwrap();
    db.connect(ip_mod, &ip_out(1), w2, "x").unwrap();
    db.connect(fan_d, "out1", w2, "y").unwrap();
    db.connect(w1, "o", po1, "in").unwrap();
    db.connect(w2, "o", po2, "in").unwrap();
    let design = Arc::new(db.build().unwrap());
    (design, ip_mod, vec![po1, po2], ip)
}

/// Everything a coverage report asserts about a run, in comparable form.
fn fingerprint(r: &CoverageReport) -> (Vec<String>, Vec<(usize, usize)>, [usize; 4]) {
    assert_eq!(r.blocks.len(), 1);
    (
        r.blocks[0]
            .detected
            .iter()
            .map(|f| f.as_str().to_owned())
            .collect(),
        r.blocks[0].history.clone(),
        [r.patterns, r.tables_requested, r.cache_hits, r.injections],
    )
}

fn run_sim(
    design: &Arc<Design>,
    ip_mod: ModuleId,
    outputs: &[ModuleId],
    ip: &Arc<Netlist>,
    sim_engine: EngineKind,
    shards: usize,
    pruned: bool,
) -> CoverageReport {
    let mut source = NetlistDetectionSource::new(Arc::clone(ip));
    if pruned {
        source = source.with_testability();
    }
    VirtualFaultSim::new(
        Arc::clone(design),
        vec![IpBlockBinding {
            module: ip_mod,
            source: Arc::new(source),
        }],
        outputs.to_vec(),
    )
    .unwrap()
    .with_engine(sim_engine)
    .with_shards(ShardPolicy::Auto(shards))
    .run()
    .unwrap()
}

#[test]
fn virtual_sim_coverage_is_engine_invariant_across_shards() {
    for seed in seeds_under_test() {
        let (design, ip_mod, outputs, ip) = scenario(seed);
        let baseline = fingerprint(&run_sim(
            &design,
            ip_mod,
            &outputs,
            &ip,
            EngineKind::Event,
            1,
            false,
        ));
        assert!(
            !baseline.0.is_empty(),
            "seed {seed}: baseline detects nothing — scenario too weak \
             (rerun with VCAD_PROP_SEED={seed})"
        );
        for sim_engine in EngineKind::ALL {
            for shards in [1usize, 2, 8] {
                let got = fingerprint(&run_sim(
                    &design, ip_mod, &outputs, &ip, sim_engine, shards, false,
                ));
                assert_eq!(
                    got, baseline,
                    "seed {seed}: engine={sim_engine} shards={shards} diverges \
                     from the event-driven baseline (rerun with VCAD_PROP_SEED={seed})"
                );
            }
        }
    }
}

/// Static-testability pruning must be invisible to coverage: the
/// pruned run detects the same faults with the same per-pattern
/// history as the unpruned run (statically untestable faults are never
/// detected), its denominators account for the exclusion exactly, and
/// the pruned run itself is bit-identical across engine × shard-count
/// combinations.
#[test]
fn pruned_coverage_matches_unpruned_across_engines_and_shards() {
    for seed in seeds_under_test() {
        let (design, ip_mod, outputs, ip) = scenario(seed);
        let unpruned = run_sim(&design, ip_mod, &outputs, &ip, EngineKind::Event, 1, false);
        let baseline = run_sim(&design, ip_mod, &outputs, &ip, EngineKind::Event, 1, true);
        assert_eq!(
            fingerprint(&unpruned).0,
            fingerprint(&baseline).0,
            "seed {seed}: pruning changed the detected set \
             (rerun with VCAD_PROP_SEED={seed})"
        );
        assert_eq!(
            unpruned.blocks[0].history, baseline.blocks[0].history,
            "seed {seed}: pruning changed the detection history"
        );
        assert_eq!(
            baseline.blocks[0].total + baseline.blocks[0].untestable,
            unpruned.blocks[0].total,
            "seed {seed}: raw denominator must be reconstructible"
        );
        assert!(baseline.blocks[0].coverage() >= unpruned.blocks[0].coverage());
        let fp = fingerprint(&baseline);
        for sim_engine in EngineKind::ALL {
            for shards in [1usize, 2, 8] {
                let got = fingerprint(&run_sim(
                    &design, ip_mod, &outputs, &ip, sim_engine, shards, true,
                ));
                assert_eq!(
                    got, fp,
                    "seed {seed}: pruned run engine={sim_engine} shards={shards} \
                     diverges (rerun with VCAD_PROP_SEED={seed})"
                );
            }
        }
    }
}

/// Every binary pattern of the first six inputs, then the four-valued
/// corners.
fn table_patterns(width: usize) -> Vec<LogicVec> {
    (0..1u64 << width.min(6))
        .map(|p| LogicVec::from_u64(width, p))
        .chain(oracle::four_valued_corners(width))
        .collect()
}

#[test]
fn compiled_tables_are_identical_to_oracle_tables() {
    // More than 64 collapsed classes on the multiplier, so the
    // parallel-fault transpose spans several passes; the random circuits
    // add a netlist per seed.
    let mut netlists = vec![
        generators::half_adder_nand(),
        generators::array_multiplier(3),
    ];
    netlists.extend(seeds_under_test().into_iter().map(|seed| {
        generators::random_circuit(RandomCircuitSpec {
            inputs: 6,
            gates: 60,
            outputs: 4,
            seed,
        })
    }));
    for nl in &netlists {
        let universe = FaultUniverse::collapsed(nl);
        let compiled = vcad_engine::CompiledNetlist::compile(nl);
        for inputs in &table_patterns(nl.input_count()) {
            let one_shot = DetectionTable::build(nl, &universe, inputs);
            oracle::assert_matches_serial_oracle(&one_shot, nl, &universe, nl.name());
            let held_plan = DetectionTable::build_compiled(&compiled, nl, &universe, inputs);
            assert_eq!(one_shot, held_plan, "{} under {inputs}", nl.name());
        }
    }
}

#[test]
fn untestable_marking_leaves_tables_bit_identical() {
    let nl = generators::untestable_demo(3);
    let full = FaultUniverse::collapsed(&nl);
    let mut pruned = full.clone();
    let marked = pruned.apply_testability(&nl, &TestabilityAnalysis::analyze(&nl));
    assert!(marked > 0, "demo circuit must yield untestable classes");
    for inputs in &table_patterns(nl.input_count()) {
        // The oracle simulates every class of the full universe, so the
        // table that skipped the marked ones must not have lost a row.
        let skipped = DetectionTable::build(&nl, &pruned, inputs);
        oracle::assert_matches_serial_oracle(&skipped, &nl, &full, "pruned universe");
        assert_eq!(DetectionTable::build(&nl, &full, inputs), skipped);
    }
}

#[test]
fn flat_fault_sims_agree_bit_parallel_vs_serial() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5EED);
        let inputs = rng.gen_range(5usize..14);
        let nl = generators::random_circuit(RandomCircuitSpec {
            inputs,
            gates: rng.gen_range(20usize..120),
            outputs: rng.gen_range(2usize..8),
            seed,
        });
        let targets = FaultUniverse::collapsed(&nl).representatives();
        let patterns: Vec<LogicVec> = (0..150)
            .map(|_| LogicVec::from_u64(inputs, rng.next_u64() & ((1 << inputs) - 1)))
            .collect();
        let serial = SerialFaultSim::new(&nl, targets.clone()).run(&patterns);
        let parallel = BitParallelSim::new(&nl, targets).run(&patterns);
        assert_eq!(
            serial, parallel,
            "seed {seed}: serial and bit-parallel disagree \
             (rerun with VCAD_PROP_SEED={seed})"
        );
    }
}
