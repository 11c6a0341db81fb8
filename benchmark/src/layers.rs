//! The rungs of the per-layer ladder that are measured by replay or by
//! calling a layer's `pub` functions directly.
//!
//! "Replay" means: a [`Tap`](crate::tap::Tap) captured every request and
//! response of the live run, from connect onwards; afterwards the same
//! sequence is fed to a freshly built, identical provider, so object ids
//! and ledger state line up. Only the window's share of the sequence is
//! timed; set-up and warm-up calls are fed through untimed.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vcad_engine::CompiledNetlist;
use vcad_faults::{DetectionTable, FaultUniverse, FaultyEvaluator};
use vcad_ip::{ClientSession, ProviderServer};
use vcad_logic::LogicVec;
use vcad_netlist::{Evaluator, Netlist};
use vcad_netsim::NetworkModel;
use vcad_rmi::{
    Frame, InProcTransport, MuxServerStats, Transport, TransportStats, Value, VirtualClock,
};

use crate::harness::{Args, Outcome};
use crate::netmodel::modelled_seconds;
use crate::stats;
use crate::sys;
use crate::tap::{Exchange, ReplayTransport};

/// Virtual time between replayed calls: well above the interval of any
/// tenant quota the workloads configure (20 000 calls/s).
pub const ADMISSION_TICK: Duration = Duration::from_micros(100);

/// A live run's exchanges and where its measured window starts.
pub struct Capture {
    pub all: Vec<Exchange>,
    pub window_from: usize,
}

impl Capture {
    pub fn window(&self) -> &[Exchange] {
        &self.all[self.window_from..]
    }
}

fn per_call(started: Instant, calls: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// `rmi.codec`: every window frame through `Frame::decode` then
/// `Frame::encode`, request and response.
pub fn codec_ns_per_call(window: &[Exchange]) -> f64 {
    let started = Instant::now();
    for exchange in window {
        for bytes in [&exchange.request, &exchange.response] {
            let frame = Frame::decode(black_box(bytes)).expect("captured frames decode");
            black_box(frame.encode());
        }
    }
    per_call(started, window.len())
}

/// One replay of a capture's window through some server-side rung.
pub struct Replayed {
    /// Host time of each window call, in call order.
    pub per_call_ns: Vec<u32>,
    /// Window responses that differed from the live ones byte for byte.
    pub diverged: u64,
}

impl Replayed {
    pub fn mean_ns(&self) -> f64 {
        let total: f64 = self.per_call_ns.iter().map(|&ns| f64::from(ns)).sum();
        total / self.per_call_ns.len().max(1) as f64
    }
}

/// Feeds the whole capture to `serve`, timing each window call.
pub fn replay_through(capture: &Capture, mut serve: impl FnMut(&[u8]) -> Vec<u8>) -> Replayed {
    for exchange in &capture.all[..capture.window_from] {
        black_box(serve(&exchange.request));
    }
    let window = capture.window();
    let mut per_call_ns = Vec::with_capacity(window.len());
    let mut diverged = 0;
    for exchange in window {
        let started = Instant::now();
        let response = serve(black_box(&exchange.request));
        let ns = started.elapsed().as_nanos();
        per_call_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        diverged += u64::from(response != exchange.response);
    }
    Replayed {
        per_call_ns,
        diverged,
    }
}

/// The two server-side rungs, each against its own freshly built
/// provider: `Dispatcher::handle_bytes` (returned, with per-call times)
/// and the same sequence through `InProcTransport` (mean ns). A provider
/// that admits on a virtual clock has it advanced one quota interval
/// before every call, so a replay at memory speed takes the admission
/// path the live calls took and is not shed.
pub fn server_rungs(
    capture: &Capture,
    fresh: impl Fn() -> (ProviderServer, Option<Arc<VirtualClock>>),
) -> (Replayed, f64) {
    let tick = |clock: &Option<Arc<VirtualClock>>| {
        if let Some(clock) = clock {
            clock.advance(ADMISSION_TICK);
        }
    };
    let (provider, clock) = fresh();
    let dispatcher = provider.dispatcher();
    let dispatched = replay_through(capture, |request| {
        tick(&clock);
        dispatcher.handle_bytes(request)
    });
    let (provider, clock) = fresh();
    let inproc = InProcTransport::new(provider.dispatcher());
    let inproc_ns = replay_through(capture, |request| {
        tick(&clock);
        inproc.call(request).expect("in-process call")
    })
    .mean_ns();
    (dispatched, inproc_ns)
}

/// `rmi.mux.wire`: what the live round trip cost beyond its replayed
/// dispatch — socket, poll loop, queue wait, reply write. Each live call
/// is paired with the replay of the *same* request, so calls whose
/// provider work differs (one detection table is not like the next) do
/// not smear the difference; the median of the pairs is reported, in µs.
pub fn paired_wire_us(live_ns: &[u32], dispatch_ns: &[u32]) -> f64 {
    let mut gaps: Vec<f64> = live_ns
        .iter()
        .zip(dispatch_ns)
        .map(|(&live, &dispatch)| (f64::from(live) - f64::from(dispatch)) / 1e3)
        .collect();
    if gaps.is_empty() {
        return 0.0;
    }
    stats::median(&mut gaps)
}

/// What a socket workload measured live and by replay.
pub struct WireRungs<'a> {
    /// `Transport::stats()` delta over the window.
    pub traffic: TransportStats,
    /// Live per-call TCP round trips, in the capture's window order.
    pub rtt_ns: &'a [u32],
    pub codec_ns: f64,
    pub dispatched: &'a Replayed,
    pub inproc_ns: f64,
    pub mux: MuxServerStats,
}

/// Reports the `rmi.*` wire rungs, the `netsim.*` models and the sample
/// count the same way for every socket workload; returns
/// `rmi.mux.wire_us_per_call`.
pub fn report_wire(out: &mut Outcome, rungs: &WireRungs<'_>) -> f64 {
    let WireRungs { traffic, mux, .. } = rungs;
    let rtt_us = stats::sorted_us(rungs.rtt_ns.iter().copied());
    let wire_us = paired_wire_us(rungs.rtt_ns, &rungs.dispatched.per_call_ns);
    out.set("rmi.calls", traffic.calls as f64);
    out.set("rmi.bytes_sent", traffic.bytes_sent as f64);
    out.set("rmi.bytes_recv", traffic.bytes_received as f64);
    out.set("rmi.codec.ns_per_call", rungs.codec_ns);
    out.set("rmi.dispatch.ns_per_call", rungs.dispatched.mean_ns());
    out.set("rmi.inproc.ns_per_call", rungs.inproc_ns);
    let percentile = |p| stats::percentile(&rtt_us, p).unwrap_or(0.0);
    out.set("rmi.tcp.rtt_p50_us", percentile(50.0));
    out.set("rmi.tcp.rtt_p99_us", percentile(99.0));
    out.set("rmi.mux.wire_us_per_call", wire_us);
    out.set("rmi.mux.accepted", mux.accepted as f64);
    out.set("rmi.mux.enqueued", mux.enqueued as f64);
    out.set("rmi.mux.queue_shed", mux.queue_shed as f64);
    out.set(
        "rmi.mux.rejected_connections",
        mux.rejected_connections as f64,
    );
    for (name, model) in [
        ("netsim.wan_model_s", NetworkModel::wan_1999()),
        ("netsim.lan_model_s", NetworkModel::lan_1999()),
        ("netsim.local_model_s", NetworkModel::local_host()),
    ] {
        out.set(name, modelled_seconds(&model, traffic));
    }
    out.set("bench.samples", rtt_us.len() as f64);
    out.set("bench.nproc", sys::nproc() as f64);
    wire_us
}

/// Closes the ladder: the rungs must add up to what the client saw.
/// `bench.unattributed_frac` is their relative gap; above a quarter the
/// run is incorrect, because then the per-layer numbers explain nothing.
/// A smoke run only prints it: one host stall among its hundred calls
/// outweighs every rung.
pub fn close_ladder(out: &mut Outcome, args: &Args, live_ns: f64, ladder_ns: f64) {
    let unattributed = (live_ns - ladder_ns).abs() / live_ns;
    out.check(args.smoke() || unattributed <= 0.25, || {
        format!("ladder does not close: unattributed {unattributed:.3}")
    });
    out.set("bench.unattributed_frac", unattributed);
}

/// `ip.stub`: `RemoteRef::invoke` over a [`ReplayTransport`] — client
/// marshalling and unmarshalling with nothing behind them. A fresh
/// client numbers its calls from 1 exactly as the live one did, so
/// every request must come out byte-identical to the captured one; the
/// second value counts those that did not.
pub fn stub_ns_per_call(capture: &Capture, tenant: Option<&str>) -> (f64, u64) {
    let calls: Vec<_> = capture
        .all
        .iter()
        .map(|x| match Frame::decode(&x.request) {
            Ok(Frame::Call(call)) => call,
            other => panic!("captured request is not a call frame: {other:?}"),
        })
        .collect();
    let replay = Arc::new(ReplayTransport::new(capture.all.clone()));
    let mut session = ClientSession::connect(replay.clone(), "replay");
    if let Some(tenant) = tenant {
        session = session.with_tenant(tenant);
    }
    let client = session.client();
    let mut started = Instant::now();
    for (index, call) in calls.into_iter().enumerate() {
        if index == capture.window_from {
            started = Instant::now();
        }
        let _ = black_box(client.object(call.object).invoke(&call.method, call.args));
    }
    (
        per_call(started, capture.window().len()),
        replay.mismatches(),
    )
}

/// The window's calls to `method`, each with its single `LogicVec`
/// argument.
pub fn window_calls<'a>(
    window: &'a [Exchange],
    method: &'a str,
) -> impl Iterator<Item = (&'a Exchange, LogicVec)> + 'a {
    window
        .iter()
        .filter_map(move |x| match Frame::decode(&x.request) {
            Ok(Frame::Call(call)) if call.method == method => match call.args.first() {
                Some(Value::Vec(v)) => Some((x, v.clone())),
                _ => None,
            },
            _ => None,
        })
}

/// The provider-side inputs of the window's calls to `method`.
pub fn window_inputs(window: &[Exchange], method: &str) -> Vec<LogicVec> {
    window_calls(window, method).map(|(_, v)| v).collect()
}

/// `ip.provider.eval` for `functional_eval`: the provider's compute
/// alone, as its server object performs it.
pub fn functional_eval_ns(netlist: &Netlist, inputs: &[LogicVec]) -> f64 {
    let started = Instant::now();
    for x in inputs {
        black_box(Evaluator::new(netlist).outputs(black_box(x)));
    }
    per_call(started, inputs.len())
}

/// `ip.provider.eval` for `detection_table` (and `faults.table.build`):
/// the default table build on each captured input configuration.
pub fn table_build_ns(netlist: &Netlist, universe: &FaultUniverse, inputs: &[LogicVec]) -> f64 {
    let started = Instant::now();
    for x in inputs {
        black_box(DetectionTable::build(netlist, universe, black_box(x)));
    }
    per_call(started, inputs.len())
}

/// `netlist.*` and `engine.*` on the workload's own netlist and inputs.
pub fn engine_layer(out: &mut Outcome, netlist: &Netlist, inputs: &[LogicVec]) {
    assert!(!inputs.is_empty(), "engine layer needs patterns");
    let cycle = |n: usize| inputs.iter().cycle().take(n);

    let evals = 2_000.min(inputs.len() * 4);
    let started = Instant::now();
    for x in cycle(evals) {
        black_box(Evaluator::new(netlist).outputs(black_box(x)));
    }
    out.set("netlist.eval.ns_per_pattern", per_call(started, evals));

    let faults = FaultUniverse::collapsed(netlist).representatives();
    let faulty = FaultyEvaluator::new(netlist);
    let sample: Vec<_> = faults.iter().take(2_000).collect();
    let started = Instant::now();
    for fault in &sample {
        black_box(faulty.outputs(fault, black_box(&inputs[0])));
    }
    out.set(
        "netlist.faulty_eval.ns_per_fault",
        per_call(started, sample.len()),
    );

    let mut compile_us: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            black_box(CompiledNetlist::compile(black_box(netlist)));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.set("engine.compile_us", stats::median(&mut compile_us));

    let compiled = CompiledNetlist::compile(netlist);
    let started = Instant::now();
    for x in cycle(evals) {
        black_box(compiled.outputs(black_box(x)));
    }
    out.set("engine.single.ns_per_pattern", per_call(started, evals));

    let pack: Vec<LogicVec> = cycle(64).cloned().collect();
    let packed = compiled.pack(&pack);
    let mut evaluator = compiled.evaluator();
    let passes = 200;
    let started = Instant::now();
    for _ in 0..passes {
        black_box(evaluator.run(black_box(&packed), &[]));
    }
    out.set(
        "engine.packed.ns_per_pattern",
        per_call(started, passes * 64),
    );

    out.set("engine.gates", compiled.plan().op_count() as f64);
    out.set("engine.levels", compiled.plan().level_count() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::Tap;
    use vcad_ip::ComponentOffering;

    fn provider() -> ProviderServer {
        let server = ProviderServer::new("replay.example.com");
        server.offer(ComponentOffering::fast_low_power_multiplier());
        server
    }

    /// A live session against an in-process provider, captured from the
    /// first call: set-up, then `evals` functional evaluations.
    fn live_capture(evals: u64) -> Capture {
        let server = provider();
        let tap = Arc::new(Tap::new(
            Arc::new(InProcTransport::new(server.dispatcher())),
            64,
        ));
        tap.arm(true);
        let session = ClientSession::connect(Arc::clone(&tap) as Arc<dyn Transport>, server.host());
        let component = session.instantiate("MultFastLowPower", 4).unwrap();
        let window_from = tap.captured().len();
        for word in 0..evals {
            let out = component
                .stub()
                .invoke(
                    "functional_eval",
                    vec![Value::Vec(LogicVec::from_u64(8, word * 37))],
                )
                .unwrap();
            assert!(matches!(out, Value::Vec(_)));
        }
        assert_eq!(tap.mark(), tap.captured().len(), "every call was captured");
        Capture {
            all: tap.captured(),
            window_from,
        }
    }

    #[test]
    fn replay_reproduces_the_live_responses_byte_for_byte() {
        let capture = live_capture(12);
        assert!(capture.window_from >= 3, "instantiate, describe, catalog");
        assert_eq!(capture.window().len(), 12);

        // A fresh, identical provider answers the same bytes …
        let fresh = provider();
        let dispatcher = fresh.dispatcher();
        let replayed = replay_through(&capture, |r| dispatcher.handle_bytes(r));
        assert_eq!(replayed.diverged, 0);
        assert_eq!(replayed.per_call_ns.len(), 12);
        assert_eq!(fresh.ledger().entry_count(), 12, "fees replay too");

        // … a fresh stub marshals the same requests …
        let (_, remarshalled) = stub_ns_per_call(&capture, None);
        assert_eq!(remarshalled, 0);

        // … and the provider's inputs can be read back out of the capture.
        let inputs = window_inputs(capture.window(), "functional_eval");
        assert_eq!(inputs.len(), 12);
        assert_eq!(inputs[2], LogicVec::from_u64(8, 74));
    }

    #[test]
    fn replay_notices_when_the_provider_or_the_stub_drifts() {
        let capture = live_capture(6);
        // A provider that lost its state (no instantiate) cannot answer.
        let fresh = provider();
        let dispatcher = fresh.dispatcher();
        let only_window = Capture {
            all: capture.window().to_vec(),
            window_from: 0,
        };
        assert_eq!(
            replay_through(&only_window, |r| dispatcher.handle_bytes(r)).diverged,
            6
        );
        // A stub that numbers its calls differently re-marshals other bytes.
        let (_, remarshalled) = stub_ns_per_call(&only_window, None);
        assert_eq!(remarshalled, 6);
    }

    #[test]
    fn wire_is_the_median_of_paired_differences() {
        let live = [700_000, 15_600_000, 650_000];
        let dispatch = [100_000, 15_000_000, 40_000];
        assert_eq!(paired_wire_us(&live, &dispatch), 600.0);
        assert_eq!(paired_wire_us(&[], &[]), 0.0);
    }
}
