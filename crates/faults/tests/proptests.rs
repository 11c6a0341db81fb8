//! Randomized tests of the virtual fault simulator's load-bearing
//! invariant: over randomized IP blocks and randomized user logic,
//! virtual fault simulation (symbolic lists + detection tables, zero
//! structural disclosure) detects **exactly** the faults that flat
//! full-disclosure fault simulation detects.
//!
//! Deterministic seeded sampling replaces the external property-testing
//! framework (offline build).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use vcad_core::stdlib::{NetlistBlock, PrimaryOutput, VectorInput};
use vcad_core::{Design, DesignBuilder, ModuleId};
use vcad_faults::{
    FaultSite, FaultUniverse, IpBlockBinding, NetlistDetectionSource, SerialFaultSim,
    VirtualFaultSim,
};
use vcad_logic::LogicVec;
use vcad_netlist::{
    generators::{self, RandomCircuitSpec},
    GateKind, NetId, Netlist, NetlistBuilder,
};
use vcad_prng::Rng;

/// Replicates `ip`'s gates inside `b`, with `inputs` standing in for the
/// IP's primary inputs, preserving the IP's internal net names. Returns
/// the nets corresponding to the IP's primary outputs.
fn embed(b: &mut NetlistBuilder, ip: &Netlist, inputs: &[NetId]) -> Vec<NetId> {
    assert_eq!(inputs.len(), ip.input_count());
    let mut map: HashMap<NetId, NetId> = HashMap::new();
    for (i, &pi) in ip.inputs().iter().enumerate() {
        map.insert(pi, inputs[i]);
    }
    for &gid in ip.topo_order() {
        let gate = ip.gate(gid);
        let ins: Vec<NetId> = gate.inputs().iter().map(|n| map[n]).collect();
        let out = b.named_gate(ip.net(gate.output()).name(), gate.kind(), &ins);
        map.insert(gate.output(), out);
    }
    ip.outputs().iter().map(|(_, n)| map[n]).collect()
}

/// The randomized scenario: a small random IP block with 3 inputs and 2
/// outputs, wrapped in two layers of user logic chosen by `seed`.
struct Scenario {
    ip: Arc<Netlist>,
    flat: Netlist,
    design: Arc<Design>,
    ip_module: ModuleId,
    outputs: Vec<ModuleId>,
}

fn user_gate_kind(code: u8) -> GateKind {
    match code % 4 {
        0 => GateKind::And,
        1 => GateKind::Or,
        2 => GateKind::Xor,
        _ => GateKind::Nand,
    }
}

fn build_scenario(ip_seed: u64, k1: u8, k2: u8) -> Scenario {
    let ip = Arc::new(generators::random_circuit(RandomCircuitSpec {
        inputs: 3,
        gates: 10,
        outputs: 2,
        seed: ip_seed,
    }));

    // ── Flat full-disclosure netlist ────────────────────────────────
    // Inputs A,B,C feed the IP; D gates observability:
    //   O1 = k1(ip0, D); O2 = k2(ip1, D).
    let mut fb = NetlistBuilder::new("flat");
    let a = fb.input("A");
    let b_ = fb.input("B");
    let c = fb.input("C");
    let d = fb.input("D");
    let ip_outs = embed(&mut fb, &ip, &[a, b_, c]);
    let o1 = fb.named_gate("w1", user_gate_kind(k1), &[ip_outs[0], d]);
    let o2 = fb.named_gate("w2", user_gate_kind(k2), &[ip_outs[1], d]);
    fb.output("O1", o1);
    fb.output("O2", o2);
    let flat = fb.build().expect("flat wrapper is valid");

    // ── The same circuit as a vcad-core design with an IP block ────
    let gate2 = |name: &str, kind: GateKind| {
        let mut nb = NetlistBuilder::new(name);
        let x = nb.input("x");
        let y = nb.input("y");
        let o = nb.gate(kind, &[x, y]);
        nb.output("o", o);
        Arc::new(nb.build().expect("2-input gate"))
    };
    let bit = |v: u64| LogicVec::from_u64(1, v);
    let seq = |f: &dyn Fn(u64) -> u64| (0..16).map(|p| bit(f(p))).collect::<Vec<_>>();

    let mut db = DesignBuilder::new("wrapped");
    let ia = db.add_module(Arc::new(VectorInput::new("A", seq(&|p| p & 1))));
    let ib = db.add_module(Arc::new(VectorInput::new("B", seq(&|p| p >> 1 & 1))));
    let ic = db.add_module(Arc::new(VectorInput::new("C", seq(&|p| p >> 2 & 1))));
    let id = db.add_module(Arc::new(VectorInput::new("D", seq(&|p| p >> 3 & 1))));
    let fan_d = db.add_module(Arc::new(vcad_core::stdlib::Fanout::uniform("FD", 1, 2)));
    let ip_mod = db.add_module(Arc::new(NetlistBlock::new("IP", Arc::clone(&ip))));
    let w1 = db.add_module(Arc::new(NetlistBlock::new(
        "W1",
        gate2("w1g", user_gate_kind(k1)),
    )));
    let w2 = db.add_module(Arc::new(NetlistBlock::new(
        "W2",
        gate2("w2g", user_gate_kind(k2)),
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
    let design = Arc::new(db.build().expect("wrapped design is valid"));

    Scenario {
        ip,
        flat,
        design,
        ip_module: ip_mod,
        outputs: vec![po1, po2],
    }
}

/// Runs both simulators and checks exact agreement per IP-internal fault
/// class.
fn check_equality(s: &Scenario) {
    let source = Arc::new(NetlistDetectionSource::new(Arc::clone(&s.ip)));
    let ip_universe = source.universe().clone();
    let report = VirtualFaultSim::new(
        Arc::clone(&s.design),
        vec![IpBlockBinding {
            module: s.ip_module,
            source,
        }],
        s.outputs.clone(),
    )
    .expect("virtual fault sim config")
    .run()
    .expect("virtual fault simulation");
    let virtual_detected: HashSet<String> = report.blocks[0]
        .detected
        .iter()
        .map(|f| f.as_str().to_owned())
        .collect();

    let flat_universe = FaultUniverse::collapsed(&s.flat);
    let patterns: Vec<LogicVec> = (0..16u64).map(|p| LogicVec::from_u64(4, p)).collect();
    let flat_detected =
        SerialFaultSim::new(&s.flat, flat_universe.representatives()).run(&patterns);
    let flat_names: HashSet<String> = flat_detected
        .iter()
        .map(|f| f.name(&s.flat).as_str().to_owned())
        .collect();
    let mut member_to_rep: HashMap<String, String> = HashMap::new();
    for class in flat_universe.classes() {
        let rep = class.representative.name(&s.flat).as_str().to_owned();
        for m in &class.members {
            member_to_rep.insert(m.name(&s.flat).as_str().to_owned(), rep.clone());
        }
    }

    for class in ip_universe.classes() {
        // Skip pure boundary (input-stem) classes: the provider does not
        // list them, and in the flat netlist the IP inputs have merged
        // with wrapper nets of different names.
        let internal = class.members.iter().any(|m| match m.site {
            FaultSite::Net(n) => !s.ip.net(n).is_input(),
            FaultSite::Pin { .. } => true,
        });
        if !internal {
            continue;
        }
        let ip_name = class.representative.name(&s.ip).as_str().to_owned();
        // Find any member whose name exists in the flat universe (pin
        // faults on the IP's inputs keep their gate-anchored names).
        let flat_rep = class
            .members
            .iter()
            .find_map(|m| member_to_rep.get(m.name(&s.ip).as_str()));
        let Some(flat_rep) = flat_rep else {
            // Whole class anchored on boundary sites that merged away;
            // nothing to compare.
            continue;
        };
        let flat_hit = flat_names.contains(flat_rep);
        let virt_hit = virtual_detected.contains(&ip_name);
        assert_eq!(
            flat_hit, virt_hit,
            "fault {ip_name} (flat rep {flat_rep}): flat={flat_hit} virtual={virt_hit}"
        );
    }
}

#[test]
fn virtual_equals_flat_on_random_circuits() {
    let mut rng = Rng::seed_from_u64(0xfa01);
    for _ in 0..24 {
        let ip_seed = rng.gen_range(0u64..10_000);
        let k1 = rng.next_u64() as u8;
        let k2 = rng.next_u64() as u8;
        let scenario = build_scenario(ip_seed, k1, k2);
        check_equality(&scenario);
    }
}

#[test]
fn detection_tables_are_sound_on_random_circuits() {
    let mut rng = Rng::seed_from_u64(0xfa02);
    for _ in 0..24 {
        let ip_seed = rng.gen_range(0u64..10_000);
        let pattern = rng.gen_range(0u64..8);
        // Every table row must be reproducible by actually simulating the
        // named fault class representative.
        let ip = generators::random_circuit(RandomCircuitSpec {
            inputs: 3,
            gates: 12,
            outputs: 2,
            seed: ip_seed,
        });
        let universe = FaultUniverse::collapsed(&ip);
        let inputs = LogicVec::from_u64(3, pattern);
        let table = vcad_faults::DetectionTable::build(&ip, &universe, &inputs);
        let faulty = vcad_faults::FaultyEvaluator::new(&ip);
        for class in universe.classes() {
            let name = class.representative.name(&ip);
            let simulated = faulty.outputs(&class.representative, &inputs);
            match table.output_for(&name) {
                Some(out) => assert_eq!(out, &simulated),
                None => assert_eq!(&simulated, table.fault_free()),
            }
        }
    }
}

#[test]
fn equivalence_classes_behave_identically_on_random_circuits() {
    let mut rng = Rng::seed_from_u64(0xfa03);
    for _ in 0..24 {
        let ip_seed = rng.gen_range(0u64..10_000);
        let pattern = rng.gen_range(0u64..16);
        let ip = generators::random_circuit(RandomCircuitSpec {
            inputs: 4,
            gates: 16,
            outputs: 3,
            seed: ip_seed,
        });
        let universe = FaultUniverse::collapsed(&ip);
        let inputs = LogicVec::from_u64(4, pattern);
        let faulty = vcad_faults::FaultyEvaluator::new(&ip);
        for class in universe.classes() {
            let reference = faulty.outputs(&class.representative, &inputs);
            for member in &class.members {
                assert_eq!(
                    faulty.outputs(member, &inputs),
                    reference.clone(),
                    "class {:?} member {:?}",
                    class.representative,
                    member
                );
            }
        }
    }
}

#[test]
fn bit_parallel_equals_serial_on_random_circuits() {
    let mut rng = Rng::seed_from_u64(0xfa04);
    for _ in 0..24 {
        let seed = rng.gen_range(0u64..10_000);
        let n_patterns = rng.gen_range(1usize..100);
        let nl = generators::random_circuit(RandomCircuitSpec {
            inputs: 10,
            gates: 60,
            outputs: 6,
            seed,
        });
        let targets = FaultUniverse::collapsed(&nl).representatives();
        let patterns: Vec<LogicVec> = (0..n_patterns as u64)
            .map(|i| LogicVec::from_u64(10, i.wrapping_mul(0x9E37_79B9) & 0x3FF))
            .collect();
        let serial = SerialFaultSim::new(&nl, targets.clone()).run(&patterns);
        let parallel = vcad_faults::BitParallelSim::new(&nl, targets).run(&patterns);
        assert_eq!(serial, parallel);
    }
}

#[test]
fn mux_heavy_circuits_fault_simulate_consistently() {
    let mut rng = Rng::seed_from_u64(0xfa06);
    for _ in 0..16 {
        let width = rng.gen_range(2usize..5);
        let n_patterns = rng.gen_range(10usize..60);
        let seed = rng.next_u64();
        // The ALU is MUX2-dense; serial and bit-parallel simulation must
        // agree on it, and detection tables must stay sound.
        let nl = generators::alu(width);
        let universe = FaultUniverse::collapsed(&nl);
        let targets = universe.representatives();
        let in_bits = nl.input_count();
        let patterns: Vec<LogicVec> = (0..n_patterns as u64)
            .map(|i| {
                LogicVec::from_u64(
                    in_bits,
                    i.wrapping_mul(0x9E37_79B9).wrapping_add(seed) & ((1 << in_bits) - 1),
                )
            })
            .collect();
        let serial = SerialFaultSim::new(&nl, targets.clone()).run(&patterns);
        let parallel = vcad_faults::BitParallelSim::new(&nl, targets).run(&patterns);
        assert_eq!(&serial, &parallel);

        let table = vcad_faults::DetectionTable::build(&nl, &universe, &patterns[0]);
        let faulty = vcad_faults::FaultyEvaluator::new(&nl);
        for class in universe.classes() {
            let name = class.representative.name(&nl);
            let simulated = faulty.outputs(&class.representative, &patterns[0]);
            match table.output_for(&name) {
                Some(out) => assert_eq!(out, &simulated),
                None => assert_eq!(&simulated, table.fault_free()),
            }
        }
    }
}

#[test]
fn cache_ablation_changes_traffic_not_results() {
    let mut rng = Rng::seed_from_u64(0xfa07);
    for _ in 0..8 {
        let ip_seed = rng.gen_range(0u64..10_000);
        let k1 = rng.next_u64() as u8;
        let k2 = rng.next_u64() as u8;
        let s = build_scenario(ip_seed, k1, k2);
        let cached = VirtualFaultSim::new(
            Arc::clone(&s.design),
            vec![IpBlockBinding {
                module: s.ip_module,
                source: Arc::new(NetlistDetectionSource::new(Arc::clone(&s.ip))),
            }],
            s.outputs.clone(),
        )
        .unwrap()
        .run()
        .unwrap();
        let uncached = VirtualFaultSim::new(
            Arc::clone(&s.design),
            vec![IpBlockBinding {
                module: s.ip_module,
                source: Arc::new(NetlistDetectionSource::new(Arc::clone(&s.ip))),
            }],
            s.outputs.clone(),
        )
        .unwrap()
        .without_table_cache()
        .run()
        .unwrap();
        let as_set = |v: &[vcad_faults::SymbolicFault]| {
            v.iter()
                .map(|f| f.as_str().to_owned())
                .collect::<HashSet<_>>()
        };
        assert_eq!(
            as_set(&cached.blocks[0].detected),
            as_set(&uncached.blocks[0].detected)
        );
        assert!(uncached.tables_requested >= cached.tables_requested);
        assert_eq!(uncached.cache_hits, 0);
    }
}
