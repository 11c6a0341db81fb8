//! `al_gates` — the all-local gate-level run: eight independent Figure 2
//! pipelines whose multipliers are `NetlistBusBlock`s over a 16-bit
//! Wallace tree, evaluated gate by gate on every event.
//!
//! Zero wire. `core` (the scheduler) and `netlist`/`engine` (one pattern
//! per evaluator call) do all the work, so this is the bypass workload
//! for every `rmi` change — prediction: no move — and the exercising
//! workload for a single-lane evaluator fast path. Closed loop, one
//! thread, `ShardPolicy::Sequential`.

use std::sync::Arc;
use std::time::Instant;

use vcad_core::stdlib::NetlistBusBlock;
use vcad_core::{DesignBuilder, Module, ModuleId, ShardPolicy, SimulationController};
use vcad_netlist::{generators, Netlist};

use crate::circuit::{add_pipeline, check_products};
use crate::harness::{
    latency_summary, median_setup, random_words, round_size, run_rounds, stream, to_vecs, Args,
    Outcome,
};
use crate::layers;
use crate::sys;
use crate::tap::{CallClock, TimedModule};
use crate::trace::{self, TraceCtx};

const WIDTH: usize = 16;
const PIPELINES: usize = 8;
/// Patterns per pipeline per `SimulationController::run`.
const ROUND_PATTERNS: usize = 100;
const WARMUP_PATTERNS: usize = 25;

struct RunStats {
    events: u64,
    secs: f64,
}

/// What a traced run adds around each gate-level block.
struct Probe {
    clock: Arc<CallClock>,
    trace: Arc<TraceCtx>,
}

type Pipelines = Vec<(ModuleId, Vec<u64>, Vec<u64>)>;

/// Elaborates the eight-pipeline design over fresh patterns.
fn build(
    netlist: &Arc<Netlist>,
    rng: &mut vcad_prng::Rng,
    patterns: usize,
    probe: Option<&Probe>,
) -> Result<(SimulationController, Pipelines), String> {
    let mut builder = DesignBuilder::new("al-gates-8x16");
    let mut pipelines = Vec::with_capacity(PIPELINES);
    for k in 0..PIPELINES {
        let a = random_words(rng, WIDTH, patterns);
        let b = random_words(rng, WIDTH, patterns);
        let block: Arc<dyn Module> = Arc::new(NetlistBusBlock::new(
            format!("MULT{k}"),
            Arc::clone(netlist),
            &[("a", WIDTH), ("b", WIDTH)],
            &[("p", 2 * WIDTH)],
        ));
        let block = match probe {
            Some(p) => Arc::new(TimedModule::new(
                block,
                "netlist.block",
                Arc::clone(&p.clock),
                Some(Arc::clone(&p.trace)),
            )),
            None => block,
        };
        let out = add_pipeline(&mut builder, k, WIDTH, &a, &b, block);
        pipelines.push((out, a, b));
    }
    let design = Arc::new(builder.build().map_err(|e| e.to_string())?);
    let controller = SimulationController::new(design).with_shards(ShardPolicy::Sequential);
    Ok((controller, pipelines))
}

/// Builds the design, runs it once and checks every output word of
/// every pipeline.
fn simulate(
    netlist: &Arc<Netlist>,
    rng: &mut vcad_prng::Rng,
    patterns: usize,
    probe: Option<&Probe>,
) -> Result<RunStats, String> {
    let (controller, pipelines) = build(netlist, rng, patterns, probe)?;
    let trace = probe.map(|p| &*p.trace);
    let (run, secs) = trace::timed(trace, "controller.run", || controller.run());
    let run = run.map_err(|e| e.to_string())?;
    for (k, (out, a, b)) in pipelines.iter().enumerate() {
        check_products(&run, *out, a, b).map_err(|e| format!("pipeline {k}: {e}"))?;
    }
    Ok(RunStats {
        events: run.events_processed(),
        secs,
    })
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    // Set-up is the netlist plus one elaborated design: what a user pays
    // before the first event.
    let (netlist, setup_s) = median_setup(args, || {
        let netlist = Arc::new(generators::wallace_multiplier(WIDTH));
        let mut rng = stream(args.seed, "al_gates.setup");
        drop(build(&netlist, &mut rng, ROUND_PATTERNS, None));
        netlist
    });
    let patterns = round_size(ROUND_PATTERNS, args.seconds);
    let mut rng = stream(args.seed, "al_gates.patterns");
    if let Err(e) = simulate(&netlist, &mut rng, WARMUP_PATTERNS, None) {
        out.violations.push(format!("warm-up: {e}"));
    }
    let mut round_us = Vec::new();
    let log = run_rounds(args.seconds, |round| {
        let started = Instant::now();
        match simulate(&netlist, &mut rng, patterns, None) {
            Ok(stats) => {
                round_us.push(stats.secs * 1e6);
                (stats.events as f64, stats.secs)
            }
            Err(e) => {
                out.failed += 1;
                out.violations.push(format!("round {round}: {e}"));
                (1.0, started.elapsed().as_secs_f64())
            }
        }
    });
    let (p50, p75, how) = latency_summary(round_us);
    out.notes.push(format!(
        "{} runs of {PIPELINES} x {patterns} patterns, {} events; latency is one \
         `SimulationController::run`, upper is {how}",
        log.rounds(),
        log.total_work()
    ));
    out.attempted = log.rounds() as u64;
    out.set_end_to_end(setup_s, log.rate_per_s(), (p50, p75));
    out
}

fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let netlist = Arc::new(generators::wallace_multiplier(WIDTH));
    let mut rng = stream(args.seed, "al_gates.patterns");
    if let Err(e) = simulate(&netlist, &mut rng, WARMUP_PATTERNS, None) {
        out.violations.push(format!("warm-up: {e}"));
    }
    let rounds = crate::traced_rounds(args.seconds, 0.1);
    let patterns = round_size(ROUND_PATTERNS, args.seconds);
    let probe = Probe {
        clock: Arc::new(CallClock::default()),
        trace: Arc::new(TraceCtx::with_capacity(
            rounds * PIPELINES * patterns * 2 + rounds + 16,
        )),
    };
    let window = Instant::now();
    let (mut events, mut run_s) = (0u64, 0.0f64);
    for round in 0..rounds {
        out.attempted += 1;
        match simulate(&netlist, &mut rng, patterns, Some(&probe)) {
            Ok(stats) => {
                events += stats.events;
                run_s += stats.secs;
            }
            Err(e) => {
                out.failed += 1;
                out.violations.push(format!("traced round {round}: {e}"));
            }
        }
    }
    let wall_s = window.elapsed().as_secs_f64();
    let mut plain_s = 0.0;
    for _ in 0..rounds {
        match simulate(&netlist, &mut rng, patterns, None) {
            Ok(stats) => plain_s += stats.secs,
            Err(e) => out.violations.push(format!("plain round: {e}")),
        }
    }

    let (block_ns, block_calls) = probe.clock.read();
    let inputs = to_vecs(
        &random_words(&mut stream(args.seed, "al_gates.layer"), 2 * WIDTH, 512),
        2 * WIDTH,
    );
    layers::engine_layer(&mut out, &netlist, &inputs);

    crate::write_trace(args, &[("al_gates", probe.trace.tracer.spans())], &mut out);

    out.set("core.events", events as f64);
    out.set(
        "core.sched.ns_per_event",
        (run_s * 1e9 - block_ns as f64) / events.max(1) as f64,
    );
    out.set("bench.wall_s", wall_s);
    out.set("bench.samples", block_calls as f64);
    out.set("bench.nproc", sys::nproc() as f64);
    out.set("bench.trace_overhead_ratio", plain_s / run_s);
    out
}
