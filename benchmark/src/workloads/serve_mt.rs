//! `serve_mt_*` — one provider under admission control serving two
//! tenants on two connections through `MuxServer`, each client behind
//! `ResilientTransport`, calling `functional_eval`.
//!
//! Same mux and dispatch code as `mr_tcp`, but with concurrency, the v3
//! tenant frame, admission, the per-tenant ledger and the retry
//! decorator on the path: a mux change that helps one quiet connection
//! and hurts two busy ones (or the reverse) shows as a split between
//! `mr_tcp` and these. Three phases, one workload each, on the same rig:
//!
//! * `serve_mt_r1000` / `serve_mt_r2000` — **open loop** at 1000 / 2000
//!   calls/s (each connection gets half, on a fixed interleaved
//!   schedule); latency is timed from the instant a call was *due*;
//! * `serve_mt_sat` — **closed loop** saturation: both connections call
//!   back to back.
//!
//! Load-generator threads = connections = tenants = 2 = `nproc`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vcad_ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad_logic::LogicVec;
use vcad_obs::Collector;
use vcad_prng::Rng;
use vcad_rmi::{
    AdmissionControl, InProcTransport, MuxServer, MuxServerConfig, RemoteRef, ResilientTransport,
    RetryPolicy, TcpTimeouts, TcpTransport, TenantQuota, Transport, TransportStats, Value,
    VirtualClock,
};

use super::mr_tcp::{OFFERING, SOCKET_BUDGET};
use crate::harness::{latency_summary, median_setup, stream, Args, Outcome};
use crate::layers::{self, Capture, WireRungs};
use crate::netmodel::traffic_delta;
use crate::openloop::{interleaved, run_schedule, OpenLoopLog};
use crate::stats;
use crate::tap::{Exchange, Tap};
use crate::trace::{self, TraceCtx};

#[derive(Clone, Copy, Debug)]
pub enum Phase {
    Open { calls_per_s: u32 },
    Saturate,
}

const WIDTH: usize = 8;
const CONNECTIONS: usize = 2;
const HOST: &str = "serve.example.com";
const WARMUP_CALLS: usize = 200;
/// Back-to-back calls per connection in a traced saturation run, per
/// second of `--seconds` (a quarter of what the live phase sustains).
const TRACED_SAT_CALLS_PER_S: f64 = 400.0;
/// The latency limit of the open-loop phases: a call answered later than
/// this after its due instant does not count towards `throughput_per_s`.
/// Three times the quiet-connection median (one 500 us poll sleep plus
/// the call), so only queueing and stalls cross it.
const LATENCY_LIMIT_US: f64 = 2_000.0;
/// Saturated throughput is the median over slices of this length.
const SLICE: Duration = Duration::from_millis(500);

/// The default quota and retry budget the `loadgen` bin configures.
fn default_quota() -> TenantQuota {
    TenantQuota::rate_limited(20_000.0, 256.0)
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy::default()
        .with_max_attempts(10)
        .with_deadline(Duration::from_secs(20))
        .with_backoff(Duration::from_millis(1), Duration::from_millis(16))
}

fn provider(admission: Arc<AdmissionControl>) -> ProviderServer {
    let server = ProviderServer::with_admission(HOST, Collector::disabled(), admission);
    server.offer(ComponentOffering::fast_low_power_multiplier());
    server
}

fn tenant(k: usize) -> String {
    format!("tenant-{k}")
}

struct Conn {
    stub: RemoteRef,
    tcp: Arc<TcpTransport>,
    /// Above `ResilientTransport`: plain call frames.
    top: Option<Arc<Tap>>,
    /// Directly above `TcpTransport`: tracked envelopes.
    mid: Option<Arc<Tap>>,
    trace: Option<Arc<TraceCtx>>,
}

struct Rig {
    conns: Vec<Conn>,
    admission: Arc<AdmissionControl>,
    mux: MuxServer,
    server: ProviderServer,
}

/// Provider with admission, bind, then per connection — one after the
/// other, so object ids are the same on every run — connect, catalog,
/// instantiate.
fn build_rig(traced: bool) -> Rig {
    let admission = Arc::new(AdmissionControl::new().with_default_quota(default_quota()));
    let server = provider(Arc::clone(&admission));
    let mux = server
        .serve_mux("127.0.0.1:0", MuxServerConfig::default())
        .expect("bind mux server");
    let conns = (0..CONNECTIONS)
        .map(|k| {
            let tcp = Arc::new(
                TcpTransport::connect_with_timeouts(mux.addr(), TcpTimeouts::all(SOCKET_BUDGET))
                    .expect("connect to mux server"),
            );
            let trace = traced.then(|| Arc::new(TraceCtx::with_capacity(1 << 16)));
            let tap = |inner: Arc<dyn Transport>, name: &'static str| {
                trace.as_ref().map(|t| {
                    let tap = Tap::new(inner, 1 << 15).traced(name, Arc::clone(t));
                    tap.arm(true);
                    Arc::new(tap)
                })
            };
            let mid = tap(Arc::clone(&tcp) as Arc<dyn Transport>, "tcp");
            let below: Arc<dyn Transport> = match &mid {
                Some(tap) => Arc::clone(tap) as Arc<dyn Transport>,
                None => Arc::clone(&tcp) as Arc<dyn Transport>,
            };
            let resilient: Arc<dyn Transport> =
                Arc::new(ResilientTransport::new(below, retry_policy()));
            let top = tap(Arc::clone(&resilient), "rpc");
            let above: Arc<dyn Transport> = match &top {
                Some(tap) => Arc::clone(tap) as Arc<dyn Transport>,
                None => resilient,
            };
            let session = ClientSession::connect(above, server.host()).with_tenant(&tenant(k));
            let catalog = session.catalog().expect("catalog");
            assert!(
                catalog.iter().any(|o| o.name == OFFERING),
                "offering listed"
            );
            let component = session.instantiate(OFFERING, WIDTH).expect("instantiate");
            Conn {
                stub: component.stub().clone(),
                tcp,
                top,
                mid,
                trace,
            }
        })
        .collect();
    Rig {
        conns,
        admission,
        mux,
        server,
    }
}

/// One `functional_eval`, checked: the reply must be the product of the
/// two operand bytes.
fn eval(conn: &Conn, rng: &mut Rng) -> bool {
    let word = rng.next_u64() & 0xffff;
    let expected = u128::from(word & 0xff) * u128::from(word >> 8);
    let scope = conn.trace.as_ref().map(|t| (t, t.enter("call")));
    let reply = conn.stub.invoke(
        "functional_eval",
        vec![Value::Vec(LogicVec::from_u64(2 * WIDTH, word))],
    );
    if let Some((trace, scope)) = scope {
        trace.exit(scope);
    }
    matches!(reply, Ok(Value::Vec(v)) if v.to_word().map(|w| w.value()) == Some(expected))
}

/// What one connection's generator thread did in the window.
#[derive(Default)]
struct ConnLog {
    open: OpenLoopLog,
    /// Closed-loop samples: `(completion offset from start, service ns)`.
    closed: Vec<(Duration, u64)>,
    failed: u64,
}

enum Work {
    Schedule(Vec<Duration>),
    Until(Duration),
    Count(usize),
}

fn drive(conn: &Conn, rng: &mut Rng, start: Instant, work: &Work) -> ConnLog {
    let mut log = ConnLog::default();
    match work {
        Work::Schedule(offsets) => {
            let horizon = offsets.last().copied().unwrap_or_default();
            let cutoff = start + horizon + Duration::from_secs(2);
            log.open = run_schedule(start, offsets, cutoff, |_| eval(conn, rng));
            log.failed = log.open.failed + log.open.abandoned;
        }
        Work::Until(_) | Work::Count(_) => {
            let now = Instant::now();
            if now < start {
                std::thread::sleep(start - now);
            }
            let more = |done: usize| match work {
                Work::Until(window) => start.elapsed() < *window,
                Work::Count(n) => done < *n,
                Work::Schedule(_) => false,
            };
            while more(log.closed.len() + log.failed as usize) {
                let issued = Instant::now();
                if eval(conn, rng) {
                    let done = Instant::now();
                    log.closed
                        .push((done - start, (done - issued).as_nanos() as u64));
                } else {
                    log.failed += 1;
                }
            }
        }
    }
    log
}

/// Runs `work(k)` on every connection at once, one thread each.
fn window(rig: &Rig, rngs: &mut [Rng], work: impl Fn(usize) -> Work + Sync) -> (Vec<ConnLog>, f64) {
    let start = Instant::now() + Duration::from_millis(20);
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .conns
            .iter()
            .zip(rngs.iter_mut())
            .enumerate()
            .map(|(k, (conn, rng))| {
                let work = &work;
                scope.spawn(move || drive(conn, rng, start, &work(k)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    (logs, start.elapsed().as_secs_f64())
}

fn warm_up(rig: &Rig, rngs: &mut [Rng], out: &mut Outcome) {
    let (logs, _) = window(rig, rngs, |_| Work::Count(WARMUP_CALLS));
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    out.check(failed == 0, || format!("{failed} warm-up calls failed"));
}

/// Completed calls per second: the median over half-second slices of
/// the window (the trailing partial slice is dropped).
fn sliced_rate(logs: &[ConnLog], window_s: f64) -> f64 {
    let slices = (window_s / SLICE.as_secs_f64()).floor().max(1.0) as usize;
    let mut counts = vec![0.0f64; slices];
    for (done, _) in logs.iter().flat_map(|l| &l.closed) {
        let index = (done.as_secs_f64() / SLICE.as_secs_f64()) as usize;
        if let Some(slot) = counts.get_mut(index) {
            *slot += 1.0;
        }
    }
    let slice_s = SLICE.as_secs_f64().min(window_s);
    stats::median(&mut counts) / slice_s
}

/// Each tenant paid for exactly the calls it completed.
fn check_tenant_fees(out: &mut Outcome, rig: &Rig, completed: &[u64]) {
    let fee = ComponentOffering::fast_low_power_multiplier()
        .prices()
        .functional_eval;
    for (k, &calls) in completed.iter().enumerate() {
        let charged = rig.server.ledger().tenant_total_cents(&tenant(k));
        let expected = calls as f64 * fee;
        out.check((charged - expected).abs() < 1e-6, || {
            format!(
                "{}: charged {charged} for {calls} calls ({expected})",
                tenant(k)
            )
        });
    }
}

fn rngs(seed: u64) -> Vec<Rng> {
    (0..CONNECTIONS)
        .map(|k| stream(seed, &format!("serve_mt.inputs.{k}")))
        .collect()
}

fn phase_work(phase: Phase, seconds: f64, traced: bool) -> impl Fn(usize) -> Work + Sync {
    move |k| match (phase, traced) {
        (Phase::Open { calls_per_s }, false) => {
            Work::Schedule(interleaved(calls_per_s, seconds, CONNECTIONS, k))
        }
        (Phase::Open { calls_per_s }, true) => {
            Work::Schedule(interleaved(calls_per_s, seconds * 0.25, CONNECTIONS, k))
        }
        (Phase::Saturate, false) => Work::Until(Duration::from_secs_f64(seconds)),
        (Phase::Saturate, true) => Work::Count((TRACED_SAT_CALLS_PER_S * seconds) as usize),
    }
}

pub fn run(args: &Args, phase: Phase) -> Outcome {
    if args.trace {
        return run_traced(args, phase);
    }
    let mut out = Outcome::default();
    let (rig, setup_s) = median_setup(args, || build_rig(false));
    let mut rngs = rngs(args.seed);
    warm_up(&rig, &mut rngs, &mut out);

    let (logs, wall_s) = window(&rig, &mut rngs, phase_work(phase, args.seconds, false));
    let completed: Vec<u64> = logs
        .iter()
        .map(|l| (l.open.latency_ns.len() + l.closed.len()) as u64)
        .collect();
    let done: u64 = completed.iter().sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();

    let (latency_us, rate) = match phase {
        Phase::Open { .. } => {
            let latency_us =
                stats::sorted_us(logs.iter().flat_map(|l| l.open.latency_ns.iter().copied()));
            // An open loop completes what it is offered, so its rate is
            // the schedule's. What a change can move is how much of it
            // was served in time.
            let in_time = latency_us.partition_point(|&us| us <= LATENCY_LIMIT_US);
            (latency_us, in_time as f64 / wall_s)
        }
        Phase::Saturate => (
            stats::sorted_us(logs.iter().flat_map(|l| l.closed.iter().map(|c| c.1))),
            sliced_rate(&logs, args.seconds),
        ),
    };
    let (p50, p75, how) = latency_summary(latency_us);
    match phase {
        Phase::Open { calls_per_s } => {
            let late =
                stats::sorted_us(logs.iter().flat_map(|l| l.open.gen_late_ns.iter().copied()));
            let served =
                stats::sorted_us(logs.iter().flat_map(|l| l.open.service_ns.iter().copied()));
            out.notes.push(format!(
                "open loop at {calls_per_s} calls/s over {CONNECTIONS} connections, {done} calls; \
                 latency is from the due instant, upper is {how}; throughput counts the calls \
                 answered within {LATENCY_LIMIT_US} us of it"
            ));
            out.notes.push(format!(
                "slowest call served in {:.0} us; generator woke at most {:.0} us late",
                served.last().copied().unwrap_or(0.0),
                late.last().copied().unwrap_or(0.0)
            ));
        }
        Phase::Saturate => out.notes.push(format!(
            "closed loop, {CONNECTIONS} connections back to back, {done} calls; upper is {how}"
        )),
    }
    let with_warmup: Vec<u64> = completed.iter().map(|c| c + WARMUP_CALLS as u64).collect();
    check_tenant_fees(&mut out, &rig, &with_warmup);

    out.attempted = done + failed;
    out.failed = failed;
    out.set_end_to_end(setup_s, rate, (p50, p75));
    out
}

/// Set-up exchanges of every connection (in connect order) followed by
/// every connection's window exchanges, as one replayable sequence.
fn merge(captures: &[(Vec<Exchange>, usize)]) -> Capture {
    let mut all = Vec::new();
    for (exchanges, from) in captures {
        all.extend_from_slice(&exchanges[..*from]);
    }
    let window_from = all.len();
    for (exchanges, from) in captures {
        all.extend_from_slice(&exchanges[*from..]);
    }
    Capture { all, window_from }
}

fn run_traced(args: &Args, phase: Phase) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let rig = build_rig(true);
    let session_setup_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut rngs = rngs(args.seed);
    warm_up(&rig, &mut rngs, &mut out);

    let tops: Vec<&Tap> = rig.conns.iter().filter_map(|c| c.top.as_deref()).collect();
    let mids: Vec<&Tap> = rig.conns.iter().filter_map(|c| c.mid.as_deref()).collect();
    let top_from: Vec<usize> = tops.iter().map(|t| t.captured_len()).collect();
    let mid_from: Vec<usize> = mids.iter().map(|t| t.captured_len()).collect();
    let mid_mark: Vec<usize> = mids.iter().map(|t| t.mark()).collect();
    let traffic_before: Vec<TransportStats> = rig.conns.iter().map(|c| c.tcp.stats()).collect();
    let shed_before = shed_count(&rig.admission);

    let (logs, wall_s) = window(&rig, &mut rngs, phase_work(phase, args.seconds, true));
    let traffic = rig.conns.iter().zip(&traffic_before).fold(
        TransportStats::default(),
        |sum, (conn, before)| {
            let delta = traffic_delta(before, &conn.tcp.stats());
            TransportStats {
                calls: sum.calls + delta.calls,
                bytes_sent: sum.bytes_sent + delta.bytes_sent,
                bytes_received: sum.bytes_received + delta.bytes_received,
            }
        },
    );
    let shed = shed_count(&rig.admission) - shed_before;
    let completed: Vec<u64> = logs
        .iter()
        .map(|l| (l.open.latency_ns.len() + l.closed.len()) as u64)
        .collect();
    let done: u64 = completed.iter().sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let with_warmup: Vec<u64> = completed.iter().map(|c| c + WARMUP_CALLS as u64).collect();
    check_tenant_fees(&mut out, &rig, &with_warmup);
    let ledger_entries = rig.server.ledger().entry_count();
    let fees_cents = rig.server.ledger().total_cents();
    let mux = rig.mux.stats();

    let live_ns: f64 = logs
        .iter()
        .flat_map(|l| {
            l.open
                .service_ns
                .iter()
                .copied()
                .chain(l.closed.iter().map(|c| c.1))
        })
        .map(|ns| ns as f64)
        .sum();
    let mut gen_late =
        stats::sorted_us(logs.iter().flat_map(|l| l.open.gen_late_ns.iter().copied()));
    let gen_late_p99 = stats::percentile(&gen_late, 99.0)
        .or_else(|| gen_late.pop())
        .unwrap_or(0.0);

    // Live per-call TCP round trips, in the merged replay order.
    let rtt_ns: Vec<u32> = mids
        .iter()
        .zip(&mid_mark)
        .flat_map(|(tap, mark)| tap.durations_since(*mark))
        .collect();

    // The same work with capture and spans off, for the tracing overhead.
    for tap in tops.iter().chain(&mids) {
        tap.arm(false);
    }
    let traced_rate = done as f64 / wall_s;
    let (plain_logs, plain_wall_s) = window(&rig, &mut rngs, phase_work(phase, args.seconds, true));
    let plain_done: usize = plain_logs
        .iter()
        .map(|l| l.open.latency_ns.len() + l.closed.len())
        .sum();
    let plain_rate = plain_done as f64 / plain_wall_s;
    out.attempted = done + failed;
    out.failed = failed;

    let mid_capture = merge(
        &mids
            .iter()
            .zip(&mid_from)
            .map(|(t, from)| (t.captured(), *from))
            .collect::<Vec<_>>(),
    );
    let top_captures: Vec<Capture> = tops
        .iter()
        .zip(&top_from)
        .map(|(t, from)| Capture {
            all: t.captured(),
            window_from: *from,
        })
        .collect();
    out.check(mid_capture.window().len() as u64 == traffic.calls, || {
        format!(
            "captured {} window calls, transports counted {}",
            mid_capture.window().len(),
            traffic.calls
        )
    });

    // Replay rungs. The fresh providers admit on a virtual clock, so a
    // replay at memory speed is not shed (see `layers::server_rungs`).
    let replay_provider = || {
        let clock = Arc::new(VirtualClock::new());
        let admission = Arc::new(
            AdmissionControl::with_clock(clock.clone()).with_default_quota(default_quota()),
        );
        (provider(admission), Some(clock))
    };
    let codec_ns = top_captures
        .iter()
        .map(|c| layers::codec_ns_per_call(c.window()))
        .sum::<f64>()
        / CONNECTIONS as f64;
    let (dispatched, inproc_ns) = layers::server_rungs(&mid_capture, replay_provider);
    out.check(shed > 0 || dispatched.diverged == 0, || {
        format!(
            "{} replayed responses differ from the live ones",
            dispatched.diverged
        )
    });
    let (fresh, clock) = replay_provider();
    let resilient = ResilientTransport::new(
        Arc::new(InProcTransport::new(fresh.dispatcher())),
        retry_policy(),
    );
    let top_merged = merge(
        &tops
            .iter()
            .zip(&top_from)
            .map(|(t, from)| (t.captured(), *from))
            .collect::<Vec<_>>(),
    );
    let resilient_ns = layers::replay_through(&top_merged, |r| {
        clock.iter().for_each(|c| c.advance(layers::ADMISSION_TICK));
        resilient.call(r).expect("resilient in-process call")
    })
    .mean_ns();
    let resilient_overhead_ns = resilient_ns - inproc_ns;

    let mut stub_ns = 0.0;
    for (k, capture) in top_captures.iter().enumerate() {
        let (ns, remarshalled) = layers::stub_ns_per_call(capture, Some(&tenant(k)));
        out.check(remarshalled == 0, || {
            format!("{remarshalled} re-marshalled requests of connection {k} differ")
        });
        stub_ns += ns / CONNECTIONS as f64;
    }
    let netlist = ComponentOffering::fast_low_power_multiplier().instantiate(WIDTH);
    let inputs = layers::window_inputs(top_captures[0].window(), "functional_eval");
    let eval_ns = layers::functional_eval_ns(&netlist, &inputs);
    layers::engine_layer(&mut out, &netlist, &inputs[..inputs.len().min(512)]);

    let admits = 50_000;
    let clock = Arc::new(VirtualClock::new());
    let admission = AdmissionControl::with_clock(clock.clone()).with_default_quota(default_quota());
    let started = Instant::now();
    for _ in 0..admits {
        clock.advance(layers::ADMISSION_TICK);
        let _ = std::hint::black_box(admission.admit(Some("tenant-0")));
    }
    let admit_ns = started.elapsed().as_nanos() as f64 / f64::from(admits);

    let wire_us = layers::report_wire(
        &mut out,
        &WireRungs {
            traffic,
            rtt_ns: &rtt_ns,
            codec_ns,
            dispatched: &dispatched,
            inproc_ns,
            mux,
        },
    );
    // What the clients saw is the service time of each call; the rungs
    // are its dispatch, the wire around it, the stub and the retry
    // decorator.
    let dispatch_total_ns: f64 = dispatched.per_call_ns.iter().map(|&n| f64::from(n)).sum();
    let ladder_ns = dispatch_total_ns
        + done as f64 * (wire_us * 1e3 + stub_ns + resilient_overhead_ns.max(0.0));
    layers::close_ladder(&mut out, args, live_ns, ladder_ns);

    let lanes: Vec<(String, Vec<trace::Span>)> = rig
        .conns
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let spans = c.trace.as_ref().expect("traced rig").tracer.spans();
            (format!("serve_mt.client-{k}"), spans)
        })
        .collect();
    crate::write_trace(args, &lanes, &mut out);

    out.set("rmi.admission.ns_per_admit", admit_ns);
    out.set("rmi.admission.shed", shed as f64);
    out.set("rmi.resilient.overhead_ns_per_call", resilient_overhead_ns);
    out.set("ip.stub.ns_per_call", stub_ns);
    out.set("ip.provider.eval_ns_per_call", eval_ns);
    out.set("ip.session.setup_ms", session_setup_ms);
    out.set("ip.ledger.entries", ledger_entries as f64);
    out.set("ip.fees_cents", fees_cents);
    out.set("bench.wall_s", wall_s);
    out.set("bench.gen_late_p99_us", gen_late_p99);
    out.set("bench.trace_overhead_ratio", traced_rate / plain_rate);
    out
}

/// Calls the rate limiter has shed so far, over all tenants.
fn shed_count(admission: &AdmissionControl) -> u64 {
    admission
        .all_stats()
        .iter()
        .map(|(_, stats)| stats.shed_rate)
        .sum()
}
