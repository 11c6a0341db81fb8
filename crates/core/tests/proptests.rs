//! Randomized property tests of the simulation backplane: determinism,
//! scheduler isolation, timing semantics, and the composition checks
//! `DesignBuilder::build` runs (zero-delay loops, connectivity
//! components). Deterministic seeded sampling replaces the external
//! property-testing framework (offline build).
//!
//! The composition properties run a fixed seed batch; a failure names
//! its seed, and `VCAD_PROP_SEED=<seed> cargo test -p vcad-core --test
//! proptests` reruns just that one.

use std::sync::Arc;

use vcad_core::stdlib::{
    BehavioralBlock, CaptureState, Delay, Fanout, PrimaryOutput, RandomInput, Register,
};
use vcad_core::{
    connectivity_components, Design, DesignBuilder, DesignError, Module, ModuleCtx, ModuleId,
    PortSpec, SimTime, SimulationController,
};
use vcad_logic::LogicVec;
use vcad_prng::Rng;

const CASES: usize = 32;

/// A randomized pipeline: source → (0..3 registers) → fanout → delays →
/// two outputs.
fn pipeline(
    width: usize,
    patterns: u64,
    seed: u64,
    regs: usize,
    delay_a: u64,
    delay_b: u64,
) -> (Arc<Design>, ModuleId, ModuleId) {
    let mut b = DesignBuilder::new("pipe");
    let src = b.add_module(Arc::new(RandomInput::new("SRC", width, seed, patterns)));
    let mut tail = (src, "out".to_owned());
    for i in 0..regs {
        let r = b.add_module(Arc::new(Register::new(format!("R{i}"), width)));
        b.connect(tail.0, &tail.1, r, "d").unwrap();
        tail = (r, "q".into());
    }
    let fan = b.add_module(Arc::new(Fanout::new("FAN", width, vec![0, 0])));
    b.connect(tail.0, &tail.1, fan, "in").unwrap();
    let da = b.add_module(Arc::new(Delay::new("DA", width, delay_a)));
    let db_ = b.add_module(Arc::new(Delay::new("DB", width, delay_b)));
    b.connect(fan, "out0", da, "in").unwrap();
    b.connect(fan, "out1", db_, "in").unwrap();
    let oa = b.add_module(Arc::new(PrimaryOutput::new("OA", width)));
    let ob = b.add_module(Arc::new(PrimaryOutput::new("OB", width)));
    b.connect(da, "out", oa, "in").unwrap();
    b.connect(db_, "out", ob, "in").unwrap();
    (Arc::new(b.build().unwrap()), oa, ob)
}

#[test]
fn simulation_is_deterministic() {
    let mut rng = Rng::seed_from_u64(0xc0e1);
    for _ in 0..CASES {
        let width = rng.gen_range(1usize..32);
        let patterns = rng.gen_range(1u64..40);
        let seed = rng.next_u64();
        let regs = rng.gen_range(0usize..3);
        let da = rng.gen_range(0u64..5);
        let db = rng.gen_range(0u64..5);
        let (design, oa, _) = pipeline(width, patterns, seed, regs, da, db);
        let ctrl = SimulationController::new(design);
        let r1 = ctrl.run().unwrap();
        let r2 = ctrl.run().unwrap();
        assert_eq!(
            r1.module_state::<CaptureState>(oa).unwrap().history(),
            r2.module_state::<CaptureState>(oa).unwrap().history()
        );
        assert_eq!(r1.events_processed(), r2.events_processed());
    }
}

#[test]
fn concurrent_schedulers_never_interfere() {
    let mut rng = Rng::seed_from_u64(0xc0e2);
    for _ in 0..8 {
        let width = rng.gen_range(1usize..16);
        let patterns = rng.gen_range(1u64..25);
        let seed = rng.next_u64();
        let (design, oa, ob) = pipeline(width, patterns, seed, 1, 0, 2);
        let ctrl = SimulationController::new(design);
        let serial = ctrl.run().unwrap();
        let concurrent = ctrl.run_concurrent(4).unwrap();
        for run in &concurrent {
            for out in [oa, ob] {
                assert_eq!(
                    run.module_state::<CaptureState>(out).unwrap().history(),
                    serial.module_state::<CaptureState>(out).unwrap().history()
                );
            }
        }
    }
}

#[test]
fn register_and_delay_timing_compose() {
    let mut rng = Rng::seed_from_u64(0xc0e3);
    for _ in 0..CASES {
        let width = rng.gen_range(1usize..16);
        let seed = rng.next_u64();
        let regs = rng.gen_range(0usize..3);
        let da = rng.gen_range(0u64..6);
        let db = rng.gen_range(0u64..6);
        // One pattern through R registers and a D-tick delay arrives at
        // exactly t = regs + delay.
        let (design, oa, ob) = pipeline(width, 1, seed, regs, da, db);
        let run = SimulationController::new(design).run().unwrap();
        let t_a = run.module_state::<CaptureState>(oa).unwrap().history()[0].0;
        let t_b = run.module_state::<CaptureState>(ob).unwrap().history()[0].0;
        assert_eq!(t_a, SimTime::new(regs as u64 + da));
        assert_eq!(t_b, SimTime::new(regs as u64 + db));
        // Both branches carry the same value.
        let v_a = &run.module_state::<CaptureState>(oa).unwrap().history()[0].1;
        let v_b = &run.module_state::<CaptureState>(ob).unwrap().history()[0].1;
        assert_eq!(v_a, v_b);
    }
}

#[test]
fn until_is_a_prefix_of_the_full_run() {
    let mut rng = Rng::seed_from_u64(0xc0e4);
    for _ in 0..CASES {
        let width = rng.gen_range(1usize..8);
        let patterns = rng.gen_range(2u64..30);
        let seed = rng.next_u64();
        let cut = rng.gen_range(0u64..15);
        let (design, oa, _) = pipeline(width, patterns, seed, 1, 0, 0);
        let full = SimulationController::new(Arc::clone(&design))
            .run()
            .unwrap();
        let cut_run = SimulationController::new(design)
            .until(SimTime::new(cut))
            .run()
            .unwrap();
        let full_hist = full.module_state::<CaptureState>(oa).unwrap().history();
        let cut_hist = cut_run
            .module_state::<CaptureState>(oa)
            .map(|c| c.history().to_vec())
            .unwrap_or_default();
        assert!(cut_hist.len() <= full_hist.len());
        assert_eq!(&cut_hist[..], &full_hist[..cut_hist.len()]);
        for (t, _) in &cut_hist {
            assert!(*t <= SimTime::new(cut));
        }
    }
}

#[test]
fn pattern_sources_emit_exactly_count_patterns() {
    let mut rng = Rng::seed_from_u64(0xc0e5);
    for _ in 0..CASES {
        let width = rng.gen_range(1usize..64);
        let patterns = rng.gen_range(0usize..50) as u64;
        let seed = rng.next_u64();
        let mut b = DesignBuilder::new("count");
        let src = b.add_module(Arc::new(RandomInput::new("SRC", width, seed, patterns)));
        let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", width)));
        b.connect(src, "out", out, "in").unwrap();
        let design = Arc::new(b.build().unwrap());
        let run = SimulationController::new(design).run().unwrap();
        let captured = run
            .module_state::<CaptureState>(out)
            .map(|c| c.history().len())
            .unwrap_or(0);
        assert_eq!(captured as u64, patterns);
    }
}

fn seeds_under_test() -> Vec<u64> {
    match std::env::var("VCAD_PROP_SEED") {
        Ok(s) => vec![s.parse().expect("VCAD_PROP_SEED: bad seed")],
        Err(_) => (0..50).collect(),
    }
}

/// Three one-bit inputs `i0..i2` and three outputs `o0..o2`.
fn six_ports() -> Vec<PortSpec> {
    (0..3)
        .map(|i| PortSpec::input(format!("i{i}"), 1))
        .chain((0..3).map(|o| PortSpec::output(format!("o{o}"), 1)))
        .collect()
}

/// A combinational block: the default couplings, every input to every
/// output.
fn comb(name: String) -> Arc<dyn Module> {
    Arc::new(BehavioralBlock::new(
        name,
        six_ports(),
        Arc::new(|inputs: &[LogicVec]| inputs.to_vec()),
    ))
}

/// The same interface, registered: no zero-delay coupling.
struct Staged {
    name: String,
    ports: Vec<PortSpec>,
}

impl Module for Staged {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> &[PortSpec] {
        &self.ports
    }

    fn on_signal(&self, ctx: &mut ModuleCtx<'_>, port: usize, value: &LogicVec) {
        ctx.emit_after(3 + port, value.clone(), 1);
    }

    fn combinational_deps(&self) -> Vec<(usize, usize)> {
        Vec::new()
    }
}

/// A random DAG of `n` blocks `M0..Mn`, chained on `o0 -> i0`, plus
/// random forward edges on `o1 -> i1` and one back-edge `Mj.o2 -> Mi.i2`
/// with `i <= j`. Forward edges only ever point from a lower-indexed
/// block to a higher-indexed one, so only the back-edge can close a
/// cycle, through the chain `i -> ... -> j`.
struct Case {
    n: usize,
    forward: Vec<(usize, usize)>,
    back: (usize, usize),
}

fn random_case(seed: u64) -> Case {
    let mut rng = Rng::seed_from_u64(seed);
    let n = rng.gen_range(3usize..12);
    let mut used_out = vec![false; n];
    let mut forward = Vec::new();
    for m in 1..n {
        if rng.gen_bool(0.5) {
            let src = rng.gen_range(0usize..m);
            if !used_out[src] {
                used_out[src] = true;
                forward.push((src, m));
            }
        }
    }
    let i = rng.gen_range(0usize..n);
    let back = (i, rng.gen_range(i..n));
    Case { n, forward, back }
}

/// Builds a case, with or without its back-edge, every block
/// combinational except `registered`.
fn assemble(
    case: &Case,
    back_edge: bool,
    registered: Option<usize>,
) -> Result<Design, DesignError> {
    let mut b = DesignBuilder::new("prop-dag");
    let ids: Vec<ModuleId> = (0..case.n)
        .map(|m| {
            let name = format!("M{m}");
            b.add_module(if registered == Some(m) {
                Arc::new(Staged {
                    name,
                    ports: six_ports(),
                })
            } else {
                comb(name)
            })
        })
        .collect();
    for m in 0..case.n - 1 {
        b.connect(ids[m], "o0", ids[m + 1], "i0")?;
    }
    for &(src, dst) in &case.forward {
        b.connect(ids[src], "o1", ids[dst], "i1")?;
    }
    if back_edge {
        let (i, j) = case.back;
        b.connect(ids[j], "o2", ids[i], "i2")?;
    }
    b.build()
}

#[test]
fn random_dags_lint_clean() {
    for seed in seeds_under_test() {
        if let Err(e) = assemble(&random_case(seed), false, None) {
            panic!("seed {seed}: DAG refused: {e}");
        }
    }
}

#[test]
fn one_back_edge_is_exactly_one_loop_naming_the_edge() {
    for seed in seeds_under_test() {
        let case = random_case(seed);
        let (i, j) = case.back;
        match assemble(&case, true, None) {
            Err(DesignError::CombinationalLoop { path }) => {
                let (from, to) = (format!("M{j}.o2"), format!("M{i}.i2"));
                assert!(
                    path.windows(2).any(|w| w[0] == from && w[1] == to),
                    "seed {seed}: cycle path does not cross {from} -> {to}: {path:?}"
                );
                assert_eq!(path.first(), path.last(), "seed {seed}: path is not closed");
            }
            other => panic!("seed {seed}: back-edge M{j}.o2 -> M{i}.i2 gave {other:?}"),
        }
    }
}

#[test]
fn sequential_module_on_the_cycle_breaks_it() {
    for seed in seeds_under_test() {
        let case = random_case(seed);
        // Block `i` is on every cycle the back-edge closes (the edge
        // lands on its input); registering it severs them all.
        let i = case.back.0;
        if let Err(e) = assemble(&case, true, Some(i)) {
            panic!("seed {seed}: a register on M{i} did not break the cycle: {e}");
        }
    }
}

/// An independent labelling for the oracle: flood fill over the
/// connector adjacency, labels by first appearance in module order.
fn flood_fill_components(design: &Design) -> (Vec<usize>, usize) {
    let n = design.module_count();
    let mut adjacent = vec![Vec::new(); n];
    for (a, b) in design.connector_endpoints() {
        adjacent[a.module.index()].push(b.module.index());
        adjacent[b.module.index()].push(a.module.index());
    }
    let mut labels = vec![usize::MAX; n];
    let mut next = 0;
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        labels[start] = next;
        while let Some(m) = stack.pop() {
            for &peer in &adjacent[m] {
                if labels[peer] == usize::MAX {
                    labels[peer] = next;
                    stack.push(peer);
                }
            }
        }
        next += 1;
    }
    (labels, next)
}

#[test]
fn connectivity_components_agree_with_a_flood_fill_oracle() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = DesignBuilder::new("prop-components");
        // Random pipelines of register stages, plus lone outputs.
        for c in 0..rng.gen_range(1usize..6) {
            let src = b.add_module(Arc::new(RandomInput::new(format!("IN{c}"), 4, seed, 3)));
            let mut tail = (src, "out");
            for s in 0..rng.gen_range(0usize..3) {
                let r = b.add_module(Arc::new(Register::new(format!("R{c}.{s}"), 4)));
                b.connect(tail.0, tail.1, r, "d").unwrap();
                tail = (r, "q");
            }
            let out = b.add_module(Arc::new(PrimaryOutput::new(format!("OUT{c}"), 4)));
            b.connect(tail.0, tail.1, out, "in").unwrap();
            if rng.gen_bool(0.3) {
                b.add_module(Arc::new(PrimaryOutput::new(format!("LONE{c}"), 4)));
            }
        }
        let design = b.build().unwrap();
        assert_eq!(
            connectivity_components(&design),
            flood_fill_components(&design),
            "seed {seed}"
        );
    }
}
