//! `vfs_tcp` — virtual fault simulation against a remote provider: the
//! user's design holds a functional twin of a 10-bit Wallace multiplier,
//! and every test pattern fetches the block's detection table over
//! loopback TCP.
//!
//! It uses the two hot layers differently from `mr_tcp` and `al_gates`:
//! the evaluator in fault-batch form (one table is a few thousand faulty
//! evaluations on the provider) and the wire in few-large-frames form
//! (one call per pattern, multi-KB responses). Closed loop, one client
//! thread.

use std::sync::Arc;
use std::time::Instant;

use vcad_core::stdlib::{NetlistBusBlock, PrimaryOutput, VectorInput};
use vcad_core::DesignBuilder;
use vcad_faults::{
    CoverageReport, DetectionTable, DetectionTableSource, FaultUniverse, IpBlockBinding,
    NetlistDetectionSource, VirtualFaultSim,
};
use vcad_ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad_netlist::{generators, Netlist};
use vcad_rmi::{Frame, MuxServer, MuxServerConfig, TcpTimeouts, TcpTransport, Transport};

use super::mr_tcp::{check_ledger, provider, OFFERING, SOCKET_BUDGET};
use crate::harness::{
    latency_summary, median_setup, random_words, round_size, run_rounds, stream, to_vecs, Args,
    Outcome,
};
use crate::layers::{self, Capture, WireRungs};
use crate::netmodel::traffic_delta;
use crate::stats;
use crate::tap::{CallClock, Tap, TimedSource};
use crate::trace::{self, TraceCtx};

const WIDTH: usize = 10;
/// Patterns per `VirtualFaultSim::run`.
const ROUND_PATTERNS: usize = 64;
const WARMUP_PATTERNS: usize = 8;

struct Rig {
    source: Arc<dyn DetectionTableSource>,
    /// The user's functional twin of the IP block.
    twin: Arc<Netlist>,
    faults: usize,
    tap: Arc<Tap>,
    mux: MuxServer,
    server: ProviderServer,
}

/// Provider, bind, connect, catalog, instantiate, symbolic fault list,
/// functional twin.
fn build_rig(trace: Option<&Arc<TraceCtx>>) -> Rig {
    let server = provider();
    let mux = server
        .serve_mux("127.0.0.1:0", MuxServerConfig::default())
        .expect("bind mux server");
    let tcp = TcpTransport::connect_with_timeouts(mux.addr(), TcpTimeouts::all(SOCKET_BUDGET))
        .expect("connect to mux server");
    let mut tap = Tap::new(Arc::new(tcp), 1 << 14);
    if let Some(trace) = trace {
        tap = tap.traced("rpc", Arc::clone(trace));
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
    let source = component.detection_source();
    let faults = source.fault_list().len();
    assert!(faults > 0, "provider published a fault list");
    Rig {
        source,
        twin: Arc::new(generators::wallace_multiplier(WIDTH)),
        faults,
        tap,
        mux,
        server,
    }
}

/// One `VirtualFaultSim::run` over `patterns` fresh patterns.
fn simulate(
    twin: &Arc<Netlist>,
    source: Arc<dyn DetectionTableSource>,
    a: &[u64],
    b: &[u64],
    trace: Option<&TraceCtx>,
) -> Result<(CoverageReport, f64), String> {
    let mut builder = DesignBuilder::new("vfs-wallace10");
    let ina = builder.add_module(Arc::new(VectorInput::new("A", to_vecs(a, WIDTH))));
    let inb = builder.add_module(Arc::new(VectorInput::new("B", to_vecs(b, WIDTH))));
    let ip = builder.add_module(Arc::new(NetlistBusBlock::new(
        "IP",
        Arc::clone(twin),
        &[("a", WIDTH), ("b", WIDTH)],
        &[("p", 2 * WIDTH)],
    )));
    let po = builder.add_module(Arc::new(PrimaryOutput::new("P", 2 * WIDTH)));
    builder.connect(ina, "out", ip, "a").expect("wire A");
    builder.connect(inb, "out", ip, "b").expect("wire B");
    builder.connect(ip, "p", po, "in").expect("wire P");
    let design = Arc::new(builder.build().map_err(|e| e.to_string())?);
    let sim = VirtualFaultSim::new(
        design,
        vec![IpBlockBinding { module: ip, source }],
        vec![po],
    )
    .map_err(|e| e.to_string())?;
    let (report, secs) = trace::timed(trace, "faultsim.run", || sim.run());
    let report = report.map_err(|e| e.to_string())?;
    if report.patterns != a.len() {
        return Err(format!(
            "{} of {} patterns simulated",
            report.patterns,
            a.len()
        ));
    }
    let block = &report.blocks[0];
    let answered = report.tables_requested + report.cache_hits;
    if answered != a.len() && block.detected.len() != block.total {
        return Err(format!("{answered} tables for {} patterns", a.len()));
    }
    Ok((report, secs))
}

fn patterns(rng: &mut vcad_prng::Rng, count: usize) -> (Vec<u64>, Vec<u64>) {
    (
        random_words(rng, WIDTH, count),
        random_words(rng, WIDTH, count),
    )
}

fn table_fee() -> f64 {
    ComponentOffering::fast_low_power_multiplier()
        .prices()
        .detection_table
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let (rig, setup_s) = median_setup(args, || build_rig(None));
    let mut rng = stream(args.seed, "vfs_tcp.patterns");
    let mut tables = 0u64;

    let (a, b) = patterns(&mut rng, WARMUP_PATTERNS);
    match simulate(&rig.twin, Arc::clone(&rig.source), &a, &b, None) {
        Ok((report, _)) => tables += report.tables_requested as u64,
        Err(e) => out.violations.push(format!("warm-up: {e}")),
    }
    let mark = rig.tap.mark();
    let per_run = round_size(ROUND_PATTERNS, args.seconds);
    let log = run_rounds(args.seconds, |round| {
        let (a, b) = patterns(&mut rng, per_run);
        let started = Instant::now();
        let work = (rig.faults * per_run) as f64;
        match simulate(&rig.twin, Arc::clone(&rig.source), &a, &b, None) {
            Ok((report, secs)) => {
                tables += report.tables_requested as u64;
                (work, secs)
            }
            Err(e) => {
                out.failed += 1;
                out.violations.push(format!("round {round}: {e}"));
                (work, started.elapsed().as_secs_f64())
            }
        }
    });

    let rtt_us = stats::sorted_us(rig.tap.durations_since(mark));
    let calls = rtt_us.len() as u64;
    let (p50, p75, how) = latency_summary(rtt_us);
    out.notes.push(format!(
        "{} runs of {per_run} patterns x {} faults, {calls} remote calls; upper is {how}",
        log.rounds(),
        rig.faults
    ));
    check_ledger(&mut out, &rig.server, tables, table_fee());

    out.attempted = calls + log.rounds() as u64;
    out.failed += rig.tap.errors();
    out.set_end_to_end(setup_s, log.rate_per_s(), (p50, p75));
    out
}

/// `faults.table.codec`: a table through `to_value`, frame encode,
/// frame decode and `from_value` — both ends of the wire format.
fn table_codec_us(tables: &[DetectionTable]) -> f64 {
    let started = Instant::now();
    for table in tables {
        let frame = Frame::Response(vcad_rmi::ResponseFrame {
            call_id: 1,
            result: Ok(table.to_value()),
        });
        let bytes = frame.encode();
        match Frame::decode(&bytes) {
            Ok(Frame::Response(r)) => {
                let value = r.result.expect("ok response");
                std::hint::black_box(DetectionTable::from_value(&value));
            }
            other => panic!("table frame did not round-trip: {other:?}"),
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / tables.len().max(1) as f64
}

fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let trace = Arc::new(TraceCtx::with_capacity(1 << 14));
    let started = Instant::now();
    let rig = build_rig(Some(&trace));
    let session_setup_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut rng = stream(args.seed, "vfs_tcp.patterns");

    let (a, b) = patterns(&mut rng, WARMUP_PATTERNS);
    if let Err(e) = simulate(&rig.twin, Arc::clone(&rig.source), &a, &b, None) {
        out.violations.push(format!("warm-up: {e}"));
    }
    let rounds = crate::traced_rounds(args.seconds, 1.0);
    let per_run = round_size(ROUND_PATTERNS, args.seconds);
    let window_from = rig.tap.captured_len();
    let mark = rig.tap.mark();
    let traffic_before = rig.tap.stats();

    let clock = Arc::new(CallClock::default());
    let timed: Arc<dyn DetectionTableSource> = Arc::new(TimedSource::new(
        Arc::clone(&rig.source),
        Arc::clone(&clock),
        Some(Arc::clone(&trace)),
    ));
    // The reference: the same designs against a local source over the
    // same netlist. Nothing may differ but where the tables came from.
    let local: Arc<dyn DetectionTableSource> =
        Arc::new(NetlistDetectionSource::new(Arc::clone(&rig.twin)));
    let window = Instant::now();
    let mut run_s = 0.0f64;
    let mut total = CoverageTotals::default();
    let mut stimuli = Vec::new();
    for round in 0..rounds {
        let (a, b) = patterns(&mut rng, per_run);
        out.attempted += 1;
        match simulate(&rig.twin, Arc::clone(&timed), &a, &b, Some(&trace)) {
            Ok((report, secs)) => {
                run_s += secs;
                total.add(&report);
                stimuli.push((a, b, report));
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

    rig.tap.arm(false);
    let mut plain_s = 0.0;
    for _ in 0..rounds {
        let (a, b) = patterns(&mut rng, per_run);
        match simulate(&rig.twin, Arc::clone(&rig.source), &a, &b, None) {
            Ok((_, secs)) => plain_s += secs,
            Err(e) => out.violations.push(format!("plain round: {e}")),
        }
    }
    out.attempted += rig.tap.mark() as u64;
    out.failed += rig.tap.errors();

    out.digests.push((
        "detected_faults",
        crate::harness::digest(
            &stimuli
                .iter()
                .flat_map(|(_, _, report)| &report.blocks[0].detected)
                .flat_map(|fault| fault.as_str().bytes().chain([b'\n']))
                .collect::<Vec<u8>>(),
        ),
    ));
    for (round, (a, b, remote)) in stimuli.iter().enumerate() {
        match simulate(&rig.twin, Arc::clone(&local), a, b, None) {
            Ok((reference, _)) => {
                let same = reference.blocks[0].detected == remote.blocks[0].detected
                    && reference.blocks[0].total == remote.blocks[0].total
                    && reference.injections == remote.injections
                    && reference.tables_requested == remote.tables_requested;
                out.check(same, || {
                    format!("round {round}: remote report differs from the local source's")
                });
            }
            Err(e) => out
                .violations
                .push(format!("local reference round {round}: {e}")),
        }
    }

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
    let started = Instant::now();
    let universe = FaultUniverse::collapsed(&netlist);
    let universe_ms = started.elapsed().as_secs_f64() * 1e3;
    let inputs = layers::window_inputs(capture.window(), "detection_table");
    let build_us = layers::table_build_ns(&netlist, &universe, &inputs) / 1e3;
    let sample = &inputs[..inputs.len().min(64)];
    let compiled = vcad_engine::CompiledNetlist::compile(&netlist);
    let started = Instant::now();
    let tables: Vec<DetectionTable> = sample
        .iter()
        .map(|x| DetectionTable::build_compiled(&compiled, &netlist, &universe, x))
        .collect();
    let build_compiled_us = started.elapsed().as_secs_f64() * 1e6 / sample.len().max(1) as f64;
    let table_bytes: usize = layers::window_calls(capture.window(), "detection_table")
        .map(|(exchange, _)| exchange.response.len())
        .sum();
    layers::engine_layer(&mut out, &netlist, sample);

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
    // What the client saw is the time inside the detection source; the
    // rungs are each table's dispatch, the wire around it and the stub.
    let live_ns = clock.read().0 as f64;
    let tables_requested = total.tables_requested as f64;
    let ladder_ns = tables_requested * (dispatched.mean_ns() + wire_us * 1e3 + stub_ns);
    layers::close_ladder(&mut out, args, live_ns, ladder_ns);
    out.notes.push(format!(
        "provider table builds are {:.0} % of the window ({tables_requested} tables x \
         {build_us:.0} us)",
        100.0 * tables_requested * build_us / (run_s * 1e6),
    ));
    crate::write_trace(args, &[("vfs_tcp.client", trace.tracer.spans())], &mut out);

    out.set("ip.stub.ns_per_call", stub_ns);
    out.set("ip.provider.eval_ns_per_call", build_us * 1e3);
    out.set("ip.session.setup_ms", session_setup_ms);
    out.set("ip.ledger.entries", ledger_entries as f64);
    out.set("ip.fees_cents", fees_cents);
    out.set("faults.universe.build_ms", universe_ms);
    out.set("faults.table.build_us", build_us);
    out.set("faults.table.build_compiled_us", build_compiled_us);
    out.set("faults.table.codec_us", table_codec_us(&tables));
    out.set("faults.table.bytes", table_bytes as f64);
    out.set(
        "faults.client.us_per_pattern",
        (run_s * 1e9 - live_ns) / 1e3 / total.patterns.max(1) as f64,
    );
    out.set("faults.tables_requested", tables_requested);
    out.set("faults.table_cache_hits", total.cache_hits as f64);
    out.set("faults.injections", total.injections as f64);
    out.set("faults.detected", total.detected as f64);
    out.set("faults.total", (rig.faults * rounds) as f64);
    out.set("bench.wall_s", wall_s);
    out.set("bench.trace_overhead_ratio", plain_s / run_s);
    out
}

#[derive(Default)]
struct CoverageTotals {
    patterns: usize,
    tables_requested: usize,
    cache_hits: usize,
    injections: usize,
    detected: usize,
}

impl CoverageTotals {
    fn add(&mut self, report: &CoverageReport) {
        self.patterns += report.patterns;
        self.tables_requested += report.tables_requested;
        self.cache_hits += report.cache_hits;
        self.injections += report.injections;
        self.detected += report.blocks[0].detected.len();
    }
}
