//! `mr_tcp` — the paper's Table 2 "Multiplier remote" row on a real
//! socket: the Figure 2 circuit with its multiplier forwarded, event by
//! event, to a provider behind `MuxServer` on loopback TCP.
//!
//! Many tiny synchronous calls (two per pattern, ~100-byte frames) over
//! one connection: `rmi` (stub, codec, socket, mux poll loop, queue,
//! dispatch) and `ip` do nearly all the work, `core` almost none. Closed
//! loop, one client thread.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vcad_core::{DesignBuilder, Module, SimulationController};
use vcad_ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad_rmi::{MuxServer, MuxServerConfig, TcpTimeouts, TcpTransport, Transport};

use crate::circuit::{add_pipeline, check_products};
use crate::harness::{
    latency_summary, median_setup, random_words, round_size, run_rounds, stream, Args, Outcome,
};
use crate::layers::{self, Capture, WireRungs};
use crate::netmodel::traffic_delta;
use crate::stats;
use crate::tap::{CallClock, Tap, TimedModule};
use crate::trace::{self, TraceCtx};

pub const WIDTH: usize = 16;
pub const OFFERING: &str = "MultFastLowPower";
const HOST: &str = "provider.example.com";
/// Patterns per `SimulationController::run`; about half a second of
/// wall time while every call waits out the mux's idle sleep.
const ROUND_PATTERNS: usize = 400;
const WARMUP_PATTERNS: usize = 100;
/// Far above any loopback round trip, far below the driver's time cap.
pub const SOCKET_BUDGET: Duration = Duration::from_secs(10);

fn eval_fee() -> f64 {
    ComponentOffering::fast_low_power_multiplier()
        .prices()
        .functional_eval
}

pub fn provider() -> ProviderServer {
    let server = ProviderServer::new(HOST);
    server.offer(ComponentOffering::fast_low_power_multiplier());
    server
}

struct Rig {
    module: Arc<dyn Module>,
    tap: Arc<Tap>,
    mux: MuxServer,
    server: ProviderServer,
}

/// Provider, bind, connect, catalog, instantiate, estimator catalog.
fn build_rig(trace: Option<&Arc<TraceCtx>>) -> Rig {
    let server = provider();
    let mux = server
        .serve_mux("127.0.0.1:0", MuxServerConfig::default())
        .expect("bind mux server");
    let tcp = TcpTransport::connect_with_timeouts(mux.addr(), TcpTimeouts::all(SOCKET_BUDGET))
        .expect("connect to mux server");
    let mut tap = Tap::new(Arc::new(tcp), 1 << 18);
    if let Some(trace) = trace {
        tap = tap.traced("rpc", Arc::clone(trace));
        // Armed from the first byte: the replay needs the set-up calls
        // too, so that object ids and call ids line up.
        tap.arm(true);
    }
    let tap = Arc::new(tap);
    let session = ClientSession::connect(Arc::clone(&tap) as Arc<dyn Transport>, server.host());
    let catalog = session.catalog().expect("catalog");
    assert!(
        catalog.iter().any(|o| o.name == OFFERING),
        "offering listed"
    );
    let component = session.instantiate(OFFERING, WIDTH).expect("instantiate");
    let module = component
        .fully_remote_module("MULT0")
        .expect("estimator catalog");
    Rig {
        module,
        tap,
        mux,
        server,
    }
}

struct RunStats {
    events: u64,
    secs: f64,
}

/// One `SimulationController::run` over `patterns` fresh patterns, with
/// every output word checked against `a · b`.
fn simulate(
    module: Arc<dyn Module>,
    rng: &mut vcad_prng::Rng,
    patterns: usize,
    trace: Option<&TraceCtx>,
) -> Result<RunStats, String> {
    let a = random_words(rng, WIDTH, patterns);
    let b = random_words(rng, WIDTH, patterns);
    let mut builder = DesignBuilder::new("fig2-multiplier-remote");
    let out = add_pipeline(&mut builder, 0, WIDTH, &a, &b, module);
    let design = Arc::new(builder.build().map_err(|e| e.to_string())?);
    let controller = SimulationController::new(design);
    let (run, secs) = trace::timed(trace, "controller.run", || controller.run());
    let run = run.map_err(|e| e.to_string())?;
    check_products(&run, out, &a, &b)?;
    Ok(RunStats {
        events: run.events_processed(),
        secs,
    })
}

/// Every chargeable call the workload made cost `fee` cents, and the
/// provider's ledger holds exactly those.
pub fn check_ledger(out: &mut Outcome, server: &ProviderServer, calls: u64, fee: f64) {
    let ledger = server.ledger();
    out.check(ledger.entry_count() as u64 == calls, || {
        format!(
            "ledger has {} entries for {calls} chargeable calls",
            ledger.entry_count()
        )
    });
    let expected = calls as f64 * fee;
    out.check((ledger.total_cents() - expected).abs() < 1e-6, || {
        format!("ledger total {} != {expected}", ledger.total_cents())
    });
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let (rig, setup_s) = median_setup(args, || build_rig(None));
    let mut rng = stream(args.seed, "mr_tcp.patterns");
    let setup_calls = rig.tap.mark() as u64;

    let mut runs_failed = 0u64;
    let patterns = round_size(ROUND_PATTERNS, args.seconds);
    let warmup = round_size(WARMUP_PATTERNS, args.seconds);
    if let Err(e) = simulate(Arc::clone(&rig.module), &mut rng, warmup, None) {
        out.violations.push(format!("warm-up: {e}"));
    }
    let mark = rig.tap.mark();
    let log = run_rounds(args.seconds, |round| {
        let started = Instant::now();
        match simulate(Arc::clone(&rig.module), &mut rng, patterns, None) {
            Ok(stats) => (patterns as f64, stats.secs),
            Err(e) => {
                runs_failed += 1;
                out.violations.push(format!("round {round}: {e}"));
                (patterns as f64, started.elapsed().as_secs_f64())
            }
        }
    });

    let rtt_us = stats::sorted_us(rig.tap.durations_since(mark));
    let calls = rtt_us.len() as u64;
    let (p50, p75, how) = latency_summary(rtt_us);
    out.notes.push(format!(
        "{} rounds of {patterns} patterns, {calls} remote calls; upper is {how}",
        log.rounds()
    ));
    check_ledger(
        &mut out,
        &rig.server,
        rig.tap.mark() as u64 - setup_calls,
        eval_fee(),
    );

    out.attempted = calls + log.rounds() as u64;
    out.failed = rig.tap.errors() + runs_failed;
    out.set_end_to_end(setup_s, log.rate_per_s(), (p50, p75));
    out
}

/// The traced run: a fixed amount of work (so every count repeats
/// exactly), spans and byte capture on, then the replay rungs.
fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let trace = Arc::new(TraceCtx::with_capacity(1 << 16));
    let started = Instant::now();
    let rig = build_rig(Some(&trace));
    let session_setup_ms = started.elapsed().as_secs_f64() * 1e3;
    let setup_calls = rig.tap.mark() as u64;
    let mut rng = stream(args.seed, "mr_tcp.patterns");

    let patterns = round_size(ROUND_PATTERNS, args.seconds);
    let warmup = round_size(WARMUP_PATTERNS, args.seconds);
    if let Err(e) = simulate(Arc::clone(&rig.module), &mut rng, warmup, None) {
        out.violations.push(format!("warm-up: {e}"));
    }
    let rounds = crate::traced_rounds(args.seconds, 0.5);
    let window_from = rig.tap.captured_len();
    let mark = rig.tap.mark();
    let traffic_before = rig.tap.stats();

    let clock = Arc::new(CallClock::default());
    let timed: Arc<dyn Module> = Arc::new(TimedModule::new(
        Arc::clone(&rig.module),
        "ip.module",
        Arc::clone(&clock),
        Some(Arc::clone(&trace)),
    ));
    let window = Instant::now();
    let (mut events, mut run_s) = (0u64, 0.0f64);
    for round in 0..rounds {
        match simulate(Arc::clone(&timed), &mut rng, patterns, Some(&trace)) {
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
    let traffic = traffic_delta(&traffic_before, &rig.tap.stats());
    let rtt_ns = rig.tap.durations_since(mark);
    let capture = Capture {
        all: rig.tap.captured(),
        window_from,
    };
    let ledger_entries = rig.server.ledger().entry_count();
    let fees_cents = rig.server.ledger().total_cents();
    let mux = rig.mux.stats();

    // The same work with capture and spans off, for the tracing overhead.
    rig.tap.arm(false);
    let mut plain_s = 0.0;
    for _ in 0..rounds {
        match simulate(Arc::clone(&rig.module), &mut rng, patterns, None) {
            Ok(stats) => plain_s += stats.secs,
            Err(e) => out.violations.push(format!("plain round: {e}")),
        }
    }
    check_ledger(
        &mut out,
        &rig.server,
        rig.tap.mark() as u64 - setup_calls,
        eval_fee(),
    );
    out.attempted = rig.tap.mark() as u64;
    out.failed += rig.tap.errors();

    let (dispatched, inproc_ns) = layers::server_rungs(&capture, || (provider(), None));
    out.check(dispatched.diverged == 0, || {
        format!(
            "{} replayed responses differ from the live ones",
            dispatched.diverged
        )
    });
    let (stub_ns, remarshalled) = layers::stub_ns_per_call(&capture, None);
    out.check(remarshalled == 0, || {
        format!("{remarshalled} re-marshalled requests differ from the captured ones")
    });
    let netlist = ComponentOffering::fast_low_power_multiplier().instantiate(WIDTH);
    let inputs = layers::window_inputs(capture.window(), "functional_eval");
    let eval_ns = layers::functional_eval_ns(&netlist, &inputs);
    layers::engine_layer(&mut out, &netlist, &inputs[..inputs.len().min(512)]);

    let calls = capture.window().len();
    out.check(calls as u64 == traffic.calls, || {
        format!(
            "captured {calls} window calls, transport counted {}",
            traffic.calls
        )
    });
    let wire_us = layers::report_wire(
        &mut out,
        &WireRungs {
            traffic,
            rtt_ns: &rtt_ns,
            codec_ns: layers::codec_ns_per_call(capture.window()),
            dispatched: &dispatched,
            inproc_ns,
            mux,
        },
    );
    // What the client saw is the time inside the remote module; the
    // rungs are each call's dispatch, the wire around it and the stub.
    let live_ns = clock.read().0 as f64;
    let ladder_ns = calls as f64 * (dispatched.mean_ns() + wire_us * 1e3 + stub_ns);
    layers::close_ladder(&mut out, args, live_ns, ladder_ns);
    crate::write_trace(args, &[("mr_tcp.client", trace.tracer.spans())], &mut out);

    out.set("ip.stub.ns_per_call", stub_ns);
    out.set("ip.provider.eval_ns_per_call", eval_ns);
    out.set("ip.session.setup_ms", session_setup_ms);
    out.set("ip.ledger.entries", ledger_entries as f64);
    out.set("ip.fees_cents", fees_cents);
    out.set("core.events", events as f64);
    out.set(
        "core.sched.ns_per_event",
        (run_s * 1e9 - live_ns) / events.max(1) as f64,
    );
    out.set("bench.wall_s", wall_s);
    out.set("bench.trace_overhead_ratio", plain_s / run_s);
    out
}
