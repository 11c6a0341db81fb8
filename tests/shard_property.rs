//! Property tests for the sharded scheduler, seeded by `vcad-prng`.
//!
//! Each seed generates a random multi-component design and a
//! batch of random shard partitions; every component-respecting
//! partition must reproduce the sequential run bit for bit, and *every*
//! partition — including ones that split components — must be
//! deterministic across repetitions.
//!
//! Failures print the seed that produced them; rerun just that seed with
//! `VCAD_PROP_SEED=<seed> cargo test --test shard_property`.

use std::sync::Arc;

use vcad::core::stdlib::{CaptureState, Delay, PrimaryOutput, RandomInput, Register, WordAdder};
use vcad::core::{
    connectivity_components, Design, DesignBuilder, ModuleId, ShardPolicy, SimRun,
    SimulationController,
};
use vcad_prng::Rng;

/// The fixed seed batch CI runs. Every seed is its own reproducible
/// case; a failure names the seed so it can be rerun in isolation.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 1999, 2002];

fn seeds_under_test() -> Vec<u64> {
    match std::env::var("VCAD_PROP_SEED") {
        Ok(s) => vec![s.parse().expect("VCAD_PROP_SEED: bad seed")],
        Err(_) => SEEDS.to_vec(),
    }
}

/// Builds a random design of 1–6 independent components. Each component
/// is a pipeline of 1–3 registered/delayed stages over a random width,
/// optionally folded through an adder — always structurally clean, which
/// `DesignBuilder::build` checks (it refuses zero-delay loops).
fn random_design(rng: &mut Rng, seed: u64) -> (Arc<Design>, Vec<ModuleId>) {
    let components = rng.gen_range(1usize..7);
    let mut b = DesignBuilder::new(format!("prop-{seed}"));
    let mut outputs = Vec::new();
    for c in 0..components {
        let width = rng.gen_range(2usize..17);
        let patterns = rng.gen_range(5u64..25);
        let src = b.add_module(Arc::new(RandomInput::new(
            format!("IN{c}"),
            width,
            seed ^ (c as u64) << 8,
            patterns,
        )));
        let mut tail = (src, "out".to_owned());
        let stages = rng.gen_range(1usize..4);
        for s in 0..stages {
            if rng.gen_bool(0.5) {
                let reg = b.add_module(Arc::new(Register::new(format!("REG{c}_{s}"), width)));
                b.connect(tail.0, &tail.1, reg, "d").unwrap();
                tail = (reg, "q".to_owned());
            } else {
                let ticks = rng.gen_range(1u64..4);
                let delay = b.add_module(Arc::new(Delay::new(format!("DEL{c}_{s}"), width, ticks)));
                b.connect(tail.0, &tail.1, delay, "in").unwrap();
                tail = (delay, "out".to_owned());
            }
        }
        // Half the components fold the pipeline through a two-input
        // adder fed by a second stimulus, widening the token traffic.
        if rng.gen_bool(0.5) {
            let src2 = b.add_module(Arc::new(RandomInput::new(
                format!("IN{c}b"),
                width,
                seed ^ 0xb0b ^ (c as u64),
                rng.gen_range(5u64..25),
            )));
            let add = b.add_module(Arc::new(WordAdder::new(format!("ADD{c}"), width)));
            b.connect(tail.0, &tail.1, add, "a").unwrap();
            b.connect(src2, "out", add, "b").unwrap();
            tail = (add, "s".to_owned());
            let out = b.add_module(Arc::new(PrimaryOutput::new(format!("OUT{c}"), width + 1)));
            b.connect(tail.0, &tail.1, out, "in").unwrap();
            outputs.push(out);
        } else {
            let out = b.add_module(Arc::new(PrimaryOutput::new(format!("OUT{c}"), width)));
            b.connect(tail.0, &tail.1, out, "in").unwrap();
            outputs.push(out);
        }
    }
    (Arc::new(b.build().unwrap()), outputs)
}

/// A random component-respecting partition: whole components land on
/// random shards, ids compacted to a dense `0..n`.
fn random_component_partition(rng: &mut Rng, design: &Design) -> Vec<usize> {
    let (labels, count) = connectivity_components(design);
    let shards = rng.gen_range(1usize..(count + 1));
    let component_shard: Vec<usize> = (0..count).map(|_| rng.gen_range(0usize..shards)).collect();
    compact(labels.iter().map(|&c| component_shard[c]).collect())
}

/// A fully random partition — may split components. Only determinism is
/// promised for these, not sequential equivalence.
fn random_partition(rng: &mut Rng, design: &Design) -> Vec<usize> {
    let n = design.module_count();
    let shards = rng.gen_range(1usize..5);
    compact((0..n).map(|_| rng.gen_range(0usize..shards)).collect())
}

/// Renumbers shard ids to be dense by first appearance.
fn compact(raw: Vec<usize>) -> Vec<usize> {
    let mut map = std::collections::HashMap::new();
    raw.into_iter()
        .map(|s| {
            let next = map.len();
            *map.entry(s).or_insert(next)
        })
        .collect()
}

fn assert_identical(a: &SimRun, b: &SimRun, outputs: &[ModuleId], context: &str) {
    assert_eq!(a.end_time(), b.end_time(), "{context}: end time");
    assert_eq!(
        a.events_processed(),
        b.events_processed(),
        "{context}: events"
    );
    assert_eq!(
        a.event_log().unwrap(),
        b.event_log().unwrap(),
        "{context}: event log"
    );
    for &out in outputs {
        assert_eq!(
            a.module_state::<CaptureState>(out).unwrap().history(),
            b.module_state::<CaptureState>(out).unwrap().history(),
            "{context}: capture history"
        );
    }
}

/// Random designs match the sequential run under every
/// random component-respecting partition.
#[test]
fn component_respecting_partitions_match_sequential() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed);
        let (design, outputs) = random_design(&mut rng, seed);

        let controller = SimulationController::new(Arc::clone(&design)).record_events();
        let reference = controller.clone().run().unwrap();
        for trial in 0..3 {
            let assignment = random_component_partition(&mut rng, &design);
            let run = controller
                .clone()
                .with_shards(ShardPolicy::Manual(assignment.clone()))
                .run()
                .unwrap_or_else(|e| {
                    panic!(
                        "seed {seed} trial {trial}: sharded run failed: {e} \
                         (rerun with VCAD_PROP_SEED={seed})"
                    )
                });
            assert_identical(
                &reference,
                &run,
                &outputs,
                &format!(
                    "seed {seed} trial {trial} partition {assignment:?} \
                     (rerun with VCAD_PROP_SEED={seed})"
                ),
            );
        }
    }
}

/// Every partition — even one that splits a component — yields the same
/// result on every repetition: thread interleaving never shows.
#[test]
fn arbitrary_partitions_are_deterministic() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed ^ 0xdead_beef);
        let (design, outputs) = random_design(&mut rng, seed);
        let controller = SimulationController::new(Arc::clone(&design)).record_events();
        for trial in 0..2 {
            let assignment = random_partition(&mut rng, &design);
            let policy = ShardPolicy::Manual(assignment.clone());
            let first = controller
                .clone()
                .with_shards(policy.clone())
                .run()
                .unwrap();
            for repeat in 0..2 {
                let again = controller
                    .clone()
                    .with_shards(policy.clone())
                    .run()
                    .unwrap();
                assert_identical(
                    &first,
                    &again,
                    &outputs,
                    &format!(
                        "seed {seed} trial {trial} repeat {repeat} partition \
                         {assignment:?} (rerun with VCAD_PROP_SEED={seed})"
                    ),
                );
            }
        }
    }
}

/// The auto-partitioner itself is deterministic and balanced for random
/// designs: same design → same plan, loads within one component of each
/// other when components allow it.
#[test]
fn auto_partitioner_is_stable() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
        let (design, _) = random_design(&mut rng, seed);
        for shards in [1usize, 2, 3, 8] {
            let a = vcad::core::ShardPlan::auto(&design, shards);
            let b = vcad::core::ShardPlan::auto(&design, shards);
            assert_eq!(
                a.assignment(),
                b.assignment(),
                "seed {seed} @{shards}: unstable auto plan"
            );
            assert_eq!(a.cross_edges(), 0, "seed {seed} @{shards}: cross edges");
            assert!(
                a.shard_count() <= shards.max(1) && a.shard_count() <= a.component_count().max(1),
                "seed {seed} @{shards}: shard count {}",
                a.shard_count()
            );
        }
    }
}
