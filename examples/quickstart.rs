//! Quickstart: the paper's Figure 2 design.
//!
//! Two random 16-bit input words are registered and multiplied by a
//! high-performance, low-power multiplier sold by a remote IP provider.
//! The user downloads the component's public part (an accurate functional
//! model), simulates locally, and lets the provider's server evaluate the
//! accurate gate-level power estimate — all without seeing a single gate
//! of the multiplier.
//!
//! Run with `cargo run --example quickstart`. Pass `--trace <path>` to
//! also write a Chrome trace-event JSON file (open in `chrome://tracing`
//! or <https://ui.perfetto.dev>) and print a metrics summary. Pass
//! `--chaos-seed <u64>` to run the session over a deterministically
//! faulty link — dropped, corrupted, duplicated and delayed frames —
//! behind the retry/dedup resilience layer: the results are identical,
//! and a fault/retry summary is printed at the end. Pass `--lint` (or
//! `--lint=json`) to statically analyse the composed design and exit
//! instead of simulating. Pass `--health <path>[:interval_ms]` to keep
//! a live health snapshot (counters, histogram percentiles, breaker
//! states, cache hit ratio) refreshed at `path` as JSON plus `path.txt`
//! as text — without an interval it is written once, on exit. Pass
//! `--shards <n>` to schedule the run under
//! `ShardPolicy::Auto(n)` — results are bit-identical to sequential by
//! design; this circuit is one connectivity component, so the engine
//! reports a single shard (see the `table2` bench for a design where
//! sharding spreads real work).

use std::error::Error;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use vcad::core::stdlib::{CaptureState, PrimaryOutput, RandomInput, Register};
use vcad::core::{
    DesignBuilder, Parameter, SetupController, SetupCriterion, ShardPolicy, SimulationController,
};
use vcad::ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad::netsim::{NetworkModel, VirtualTimeline};
use vcad::obs::Collector;
use vcad::rmi::{heavy_chaos_stack, InProcTransport, ShapedTransport, Transport};

/// Parses `--trace <path>` from the command line, if present.
fn trace_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            return Some(args.next().expect("--trace needs a file path").into());
        }
    }
    None
}

/// Parses `--shards <n>` from the command line, if present.
fn shards() -> Option<usize> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--shards" {
            let n = args
                .next()
                .expect("--shards needs a shard count")
                .parse()
                .expect("--shards needs a positive integer");
            assert!(n > 0, "--shards needs a positive integer");
            return Some(n);
        }
    }
    None
}

/// Parses `--health <path>[:interval_ms]` from the command line, if
/// present. A non-numeric suffix after the last `:` is part of the path.
fn health_spec() -> Option<(std::path::PathBuf, Option<Duration>)> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--health" {
            let spec = args.next().expect("--health needs a file path");
            if let Some((path, ms)) = spec.rsplit_once(':') {
                if let Ok(ms) = ms.parse::<u64>() {
                    return Some((path.into(), Some(Duration::from_millis(ms))));
                }
            }
            return Some((spec.into(), None));
        }
    }
    None
}

/// Parses `--chaos-seed <u64>` from the command line, if present.
fn chaos_seed() -> Option<u64> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--chaos-seed" {
            return Some(
                args.next()
                    .expect("--chaos-seed needs a seed")
                    .parse()
                    .expect("--chaos-seed needs an unsigned integer"),
            );
        }
    }
    None
}

fn main() -> Result<(), Box<dyn Error>> {
    let width = 16;
    let patterns = 100;
    let trace_out = trace_path();
    let chaos = chaos_seed();
    let obs = if trace_out.is_some() {
        Collector::enabled()
    } else {
        Collector::disabled()
    };
    // Keep the reporter alive for the whole run: dropping it writes the
    // final snapshot, so even `--health out.json` with no interval gets
    // the end-of-run state.
    let _health = health_spec()
        .map(|(path, interval)| vcad::obs::HealthReporter::start(&obs, path, interval));

    // ── Provider side ────────────────────────────────────────────────
    // In production this process lives on the provider's host behind a
    // TCP transport; here it runs in-process for a self-contained demo.
    let provider = ProviderServer::with_collector("provider.example.com", obs.clone());
    provider.offer(ComponentOffering::fast_low_power_multiplier());

    // ── IP user side ─────────────────────────────────────────────────
    // Under --trace, shape the link as the paper's 1999 WAN on a virtual
    // timeline attached to the collector, so every trace event carries
    // the modeled network clock next to the wall clock. Virtual shaping
    // only accounts time — it never sleeps — so results are unchanged.
    let inproc: Arc<dyn Transport> =
        Arc::new(InProcTransport::with_collector(provider.dispatcher(), &obs));
    let transport: Arc<dyn Transport> = if trace_out.is_some() {
        let timeline = Arc::new(Mutex::new(VirtualTimeline::new()));
        obs.attach_virtual_timeline(Arc::clone(&timeline));
        Arc::new(ShapedTransport::virtual_time(
            inproc,
            NetworkModel::wan_1999(),
            timeline,
        ))
    } else {
        inproc
    };
    // Under --chaos-seed, the link misbehaves deterministically and the
    // resilience layer (retries + request-ID dedup on the provider's
    // dispatcher) absorbs it, on a virtual clock: no wall time is spent
    // sleeping.
    let transport = match chaos {
        Some(seed) => heavy_chaos_stack(transport, seed, &obs).0,
        None => transport,
    };
    let session = ClientSession::connect(transport, provider.host());
    // Traced runs also get a `client:{method}` span per RMI call, with
    // the trace context injected into every call frame.
    let session = if obs.is_enabled() {
        session.with_collector(obs.clone())
    } else {
        session
    };
    println!("catalog:");
    for offering in session.catalog()? {
        println!(
            "  {} (functional {}, power {}, toggle fee {:.2}¢/pattern)",
            offering.name, offering.functional, offering.power, offering.toggle_fee_cents
        );
    }

    // Instantiate the remote multiplier — like any local module, but its
    // constructor cites the provider's server (paper, Figure 2).
    let component = session.instantiate("MultFastLowPower", width)?;
    println!(
        "\ninstantiated {} (width {}): area {:.0} gates, delay {:.0} ps \
         — both computed by the provider without disclosure",
        component.name(),
        component.width(),
        component.area()?,
        component.delay()?,
    );
    let mult_module = component.functional_module("MULT")?;

    // The design under development: IN → REG → MULT → OUT.
    let mut b = DesignBuilder::new("example");
    let ina = b.add_module(Arc::new(RandomInput::new("INA", width, 1, patterns)));
    let inb = b.add_module(Arc::new(RandomInput::new("INB", width, 2, patterns)));
    let rega = b.add_module(Arc::new(Register::new("REGA", width)));
    let regb = b.add_module(Arc::new(Register::new("REGB", width)));
    let mult = b.add_module(mult_module);
    let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * width)));
    b.connect(ina, "out", rega, "d")?;
    b.connect(inb, "out", regb, "d")?;
    b.connect(rega, "q", mult, "a")?;
    b.connect(regb, "q", mult, "b")?;
    b.connect(mult, "p", out, "in")?;
    let design = Arc::new(b.build()?);

    // Under --lint[=json], statically analyse the composed design (and
    // the wire protocol) instead of simulating.
    if vcad::lint::cli::run_lint_flag(&design) {
        return Ok(());
    }

    // Simulation setup: the most accurate power estimator the provider
    // offers, with a pattern buffer of 5 to amortise RMI calls.
    let mut setup = SetupController::new();
    setup.set(Parameter::AvgPower, SetupCriterion::MostAccurate);
    setup.set_buffer_size(5);
    let binding = setup.apply_to(&design, "MULT");

    let mut controller = SimulationController::new(Arc::clone(&design))
        .with_setup(binding)
        .with_collector(obs.clone());
    if let Some(n) = shards() {
        controller = controller.with_shards(ShardPolicy::Auto(n));
    }
    let run = controller.run()?;
    if shards().is_some() {
        println!(
            "scheduled under ShardPolicy::Auto: {} shard(s) — this design \
             is one connectivity component, so the engine stays sequential",
            run.shard_count()
        );
    }

    let captured = run
        .module_state::<CaptureState>(out)
        .expect("output capture");
    let settled: std::collections::BTreeMap<u64, u128> = captured
        .history()
        .iter()
        .filter_map(|(t, v)| v.to_word().map(|w| (t.ticks(), w.value())))
        .collect();
    let first: Vec<u128> = settled.values().take(5).copied().collect();
    println!(
        "\nsimulated {} patterns ({} output events); first products: {first:?}",
        settled.len(),
        captured.history().len(),
    );

    let records: Vec<_> = run
        .estimates()
        .records_for(mult, &Parameter::AvgPower)
        .collect();
    let mean_power =
        records.iter().filter_map(|r| r.value.as_f64()).sum::<f64>() / records.len() as f64;
    println!(
        "gate-level average power (computed remotely): {mean_power:.6} W \
         across {} buffered estimates",
        records.len()
    );
    println!(
        "estimation fees accrued: {:.2}¢ (provider bill: {:.2}¢)",
        run.estimates().total_fees_cents(),
        session.bill()?
    );

    if let Some(seed) = chaos {
        let snap = obs.metrics().snapshot();
        println!(
            "\nchaos (seed {seed}): {} faults injected over {} transport calls \
             — {} retries, {} calls recovered, {} exhausted, breaker opened {}×, \
             {} duplicates deduplicated by the provider",
            snap.counter("rmi.chaos.injected.total"),
            snap.counter("rmi.chaos.calls"),
            snap.counter("rmi.retry.retries"),
            snap.counter("rmi.retry.recovered"),
            snap.counter("rmi.retry.exhausted"),
            snap.counter("rmi.breaker.opened"),
            snap.counter("rmi.dispatch.dedup_hits"),
        );
    }

    if let Some(path) = trace_out {
        let trace = obs.trace();
        println!("\n{}", vcad::obs::summary::render_summary(&trace));
        vcad::obs::chrome::write_chrome_trace(&trace, &path)?;
        println!("Chrome trace written to {}", path.display());
    }
    Ok(())
}
