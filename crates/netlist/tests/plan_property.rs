//! Property test: one-pattern evaluation on the cached `ExecPlan` —
//! what `Evaluator::{eval, outputs}` run — equals the naive scalar walk
//! in `oracle/mod.rs` on every net and every output, for random
//! netlists drawing from every `GateKind` (n-ary gates, `Mux2`,
//! constants, an output aliasing an input) under random four-valued
//! patterns.
//!
//! Failures print the seed that produced them; rerun just that seed
//! with `VCAD_PROP_SEED=<seed> cargo test -p vcad-netlist --test
//! plan_property`.

use vcad_logic::{Logic, LogicVec};
use vcad_netlist::{Evaluator, GateKind, NetId, Netlist, NetlistBuilder};
use vcad_prng::Rng;

mod oracle;

const SEEDS: [u64; 12] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 1999, 4242];

fn seeds_under_test() -> Vec<u64> {
    match std::env::var("VCAD_PROP_SEED") {
        Ok(s) => vec![s.parse().expect("VCAD_PROP_SEED: bad seed")],
        Err(_) => SEEDS.to_vec(),
    }
}

/// A valid random netlist: every kind at every legal arity (n-ary gates
/// up to five inputs), operands drawn from all earlier nets so fan-out,
/// reconvergence and repeated operands occur, outputs tapping gates
/// *and* primary inputs.
fn random_netlist(rng: &mut Rng, seed: u64) -> Netlist {
    let mut b = NetlistBuilder::new(format!("prop_{seed}"));
    let inputs = rng.gen_range(1usize..10);
    let mut nets: Vec<NetId> = b.input_bus("pi", inputs);
    for _ in 0..rng.gen_range(1usize..120) {
        let kind = GateKind::ALL[rng.gen_range(0..GateKind::ALL.len())];
        let (lo, hi) = kind.arity();
        let arity = rng.gen_range(lo..=hi.min(5));
        let operands: Vec<NetId> = (0..arity)
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        nets.push(b.gate(kind, &operands));
    }
    b.output("alias", nets[rng.gen_range(0..inputs)]);
    for o in 0..rng.gen_range(1usize..8) {
        b.output(format!("po{o}"), nets[rng.gen_range(0..nets.len())]);
    }
    b.build().expect("random netlist is structurally valid")
}

/// Uniform over `0/1/X/Z`, so unknowns reach deep into the cone.
fn random_pattern(rng: &mut Rng, width: usize) -> LogicVec {
    LogicVec::from_bits((0..width).map(|_| Logic::ALL[rng.gen_range(0..4usize)]))
}

#[test]
fn plan_evaluation_equals_the_naive_walk_on_every_net() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed);
        for case in 0..24 {
            let nl = random_netlist(&mut rng, seed);
            let eval = Evaluator::new(&nl);
            let width = nl.input_count();
            let corners = Logic::ALL.map(|v| LogicVec::filled(width, v));
            let random: Vec<LogicVec> = (0..24).map(|_| random_pattern(&mut rng, width)).collect();
            for pattern in corners.iter().chain(&random) {
                let context = format!(
                    "seed {seed} case {case} pattern {pattern} \
                     (rerun with VCAD_PROP_SEED={seed})"
                );
                // The sweep's scratch slot never leaks into the result.
                assert_eq!(
                    nl.plan().eval_nets(pattern).len(),
                    nl.net_count(),
                    "net count: {context}"
                );
                assert_eq!(
                    eval.eval(pattern).as_slice(),
                    oracle::eval_nets(&nl, pattern),
                    "net values: {context}"
                );
                assert_eq!(
                    eval.outputs(pattern),
                    oracle::outputs(&nl, pattern),
                    "outputs: {context}"
                );
            }
        }
    }
}

/// The generator must actually produce what the property claims to
/// cover, or a green run means nothing. Every shape the plan lowers
/// differently is among it: constants, one operand read twice, a
/// two-operand step, a fold chained through the scratch slot, and `Mux2`.
#[test]
fn the_generator_covers_every_kind_wide_gates_and_a_z_carrying_alias() {
    let mut kinds = std::collections::BTreeSet::new();
    let mut arities = std::collections::BTreeSet::new();
    let mut widest = 0;
    for seed in SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        let nl = random_netlist(&mut rng, seed);
        for (_, gate) in nl.gates() {
            kinds.insert(gate.kind());
            arities.insert(gate.inputs().len().min(3));
            widest = widest.max(gate.inputs().len());
        }
        assert!(
            nl.net(nl.outputs()[0].1).is_input(),
            "output 0 aliases an input"
        );
        let all_z = LogicVec::filled(nl.input_count(), Logic::Z);
        assert_eq!(Evaluator::new(&nl).outputs(&all_z).get(0), Logic::Z);
    }
    assert_eq!(kinds.len(), GateKind::ALL.len(), "kinds seen: {kinds:?}");
    assert!(kinds.contains(&GateKind::Mux2));
    assert_eq!(arities.into_iter().collect::<Vec<_>>(), [0, 1, 2, 3]);
    // Only folds take more than three operands: one chains its
    // accumulator through the scratch slot.
    assert!(widest >= 4, "widest gate has {widest} inputs");
}
