//! Differential + property tests: the compiled bit-parallel engine —
//! the 64-lane packed pass and the one-pattern plan entry the
//! event-driven scheduler's blocks execute — must agree bit-for-bit
//! with the naive scalar walk in `crates/netlist/tests/oracle/` on
//! every generator circuit and on vcad-prng-seeded random netlists,
//! over fully four-valued patterns (`0`, `1`, `X`, `Z`). (`Evaluator`
//! itself runs the plan, so it cannot be the reference here.)
//!
//! Failures print the seed that produced them; rerun just that seed
//! with `VCAD_PROP_SEED=<seed> cargo test -p vcad-engine --test
//! differential`.

use vcad_engine::CompiledNetlist;
use vcad_logic::{Logic, LogicVec};
use vcad_netlist::generators::{self, RandomCircuitSpec};
use vcad_netlist::Netlist;
use vcad_prng::Rng;

#[path = "../../netlist/tests/oracle/mod.rs"]
mod oracle;

const SEEDS: [u64; 8] = [3, 7, 21, 34, 55, 89, 144, 4242];

fn seeds_under_test() -> Vec<u64> {
    match std::env::var("VCAD_PROP_SEED") {
        Ok(s) => vec![s.parse().expect("VCAD_PROP_SEED: bad seed")],
        Err(_) => SEEDS.to_vec(),
    }
}

/// A random four-valued pattern; roughly half the bits binary, the
/// rest split between `X` and `Z` so both unknown codes propagate.
fn random_pattern(rng: &mut Rng, width: usize) -> LogicVec {
    LogicVec::from_bits((0..width).map(|_| match rng.gen_range(0usize..8) {
        0 => Logic::X,
        1 => Logic::Z,
        n => Logic::from(n & 1 == 1),
    }))
}

fn assert_engines_agree(nl: &Netlist, patterns: &[LogicVec], context: &str) {
    let compiled = CompiledNetlist::compile(nl);
    let mut eval = compiled.evaluator();
    for chunk in patterns.chunks(64) {
        let packed = compiled.pack(chunk);
        let out = eval.run(&packed, &[]);
        for (lane, pattern) in chunk.iter().enumerate() {
            let expect = oracle::outputs(nl, pattern);
            let got = out.lane(lane);
            assert_eq!(
                got, expect,
                "{context}: packed pass diverges on pattern {pattern} \
                 (compiled {got}, scalar oracle {expect})"
            );
            let single = compiled.outputs(pattern);
            assert_eq!(
                single, expect,
                "{context}: one-pattern entry diverges on pattern {pattern} \
                 (plan {single}, scalar oracle {expect})"
            );
        }
    }
}

#[test]
fn generator_circuits_agree_on_binary_and_four_valued_patterns() {
    let circuits: Vec<Netlist> = vec![
        generators::c17(),
        generators::half_adder(),
        generators::half_adder_nand(),
        generators::full_adder(),
        generators::ripple_adder(4),
        generators::carry_select_adder(8, 2),
        generators::array_multiplier(3),
        generators::wallace_multiplier(4),
        generators::parity_tree(8),
        generators::equality_comparator(4),
        generators::barrel_shifter(8),
        generators::alu(4),
    ];
    let mut rng = Rng::seed_from_u64(0xD1FF);
    for nl in &circuits {
        let w = nl.input_count();
        let mut patterns = Vec::new();
        // Exhaustive when narrow enough, sampled otherwise.
        if w <= 8 {
            patterns.extend((0u64..1 << w).map(|p| LogicVec::from_u64(w, p)));
        } else {
            patterns
                .extend((0..128).map(|_| LogicVec::from_u64(w, rng.next_u64() & ((1 << w) - 1))));
        }
        patterns.push(LogicVec::filled(w, Logic::X));
        patterns.push(LogicVec::filled(w, Logic::Z));
        patterns.extend((0..64).map(|_| random_pattern(&mut rng, w)));
        assert_engines_agree(nl, &patterns, nl.name());
    }
}

#[test]
fn random_circuits_agree_across_seeds() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed);
        let inputs = rng.gen_range(6usize..28);
        let spec = RandomCircuitSpec {
            inputs,
            gates: rng.gen_range(20usize..250),
            outputs: rng.gen_range(2usize..14),
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        let nl = generators::random_circuit(spec);
        let mut patterns: Vec<LogicVec> =
            (0..96).map(|_| random_pattern(&mut rng, inputs)).collect();
        patterns.push(LogicVec::filled(inputs, Logic::X));
        patterns.push(LogicVec::filled(inputs, Logic::Z));
        patterns.push(LogicVec::zeros(inputs));
        patterns.push(LogicVec::filled(inputs, Logic::One));
        assert_engines_agree(
            &nl,
            &patterns,
            &format!("seed {seed} (rerun with VCAD_PROP_SEED={seed})"),
        );
    }
}

#[test]
fn x_propagation_is_lane_exact() {
    // Flip exactly one input to X at a time and require the X cone to
    // match the scalar path output-for-output.
    for seed in seeds_under_test() {
        let nl = generators::random_circuit(RandomCircuitSpec {
            inputs: 12,
            gates: 80,
            outputs: 8,
            seed,
        });
        let compiled = CompiledNetlist::compile(&nl);
        let mut eval = compiled.evaluator();
        let mut rng = Rng::seed_from_u64(seed ^ 0xABCD);
        let base = LogicVec::from_u64(12, rng.next_u64() & 0xFFF);
        let patterns: Vec<LogicVec> = (0..12)
            .map(|i| {
                let mut p = base.clone();
                p.set(i, Logic::X);
                p
            })
            .collect();
        let packed = compiled.pack(&patterns);
        let out = eval.run(&packed, &[]);
        for (lane, pattern) in patterns.iter().enumerate() {
            assert_eq!(
                out.lane(lane),
                oracle::outputs(&nl, pattern),
                "seed {seed}, X on input {lane} \
                 (rerun with VCAD_PROP_SEED={seed})"
            );
        }
    }
}
