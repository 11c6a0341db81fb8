//! Regenerates **Table 2**: CPU and real time for 100 random patterns
//! (buffer of 5) in the AL / ER / MR scenarios across the three network
//! environments.
//!
//! CPU time is measured (this machine); network time is modeled by
//! `vcad-netsim` from the measured RMI traffic (see DESIGN.md's
//! substitution table). Compare *shape*, not absolute seconds.
//!
//! Run with `cargo run -p vcad-bench --bin table2 --release`.
//! Pass `--trace <path>` to also write a Chrome trace-event JSON file
//! (open in `chrome://tracing` or <https://ui.perfetto.dev>) covering
//! every RMI call, dispatch and scheduler instant of all three runs,
//! plus a plain-text metrics summary on stdout.
//! Pass `--chaos-seed <u64>` to run the remote scenarios over a
//! deterministically faulty link (drops, corruption, duplicates, delays)
//! behind the resilience layer; the results are unchanged while the
//! `rmi.chaos.*` / `rmi.retry.*` counters report the injected turbulence.
//! Pass `--cache` to memoize provider calls client-side
//! (`vcad_ip::IpCache`): each scenario then runs twice, a cold pass
//! filling the cache and a warm pass that must stay entirely local and
//! fee-free.
//! Pass `--json <path>` to also write the per-pass measurements (wall
//! time, RMI calls/bytes, fees, cache hit-rate) as a JSON file.
//! Pass `--health <path>[:interval_ms]` to keep a live health snapshot
//! (counters, histogram percentiles, breaker states, cache hit ratio)
//! refreshed at `path` as JSON plus `path.txt` as text; without an
//! interval the snapshot is written once, on exit.
//! Pass `--lint` (or `--lint=json`) to statically analyse each
//! scenario's design and exit instead of measuring.
//! Pass `--shards <n>` to run every scenario's scheduler under
//! `ShardPolicy::Auto(n)` (a no-op for the single-component Figure 2
//! circuit, asserted bit-identical by the scenario suite) and — for
//! `n > 1` — to additionally time the multi-component shard benchmark
//! at 1 versus `n` shards, asserting the outputs bit-identical and
//! recording both wall clocks in the `--json` report.
//! Pass `--engine <event|compiled>` to pick the gate-evaluation
//! backend (no-op for the behavioural/remote Figure 2 multiplier) and
//! to additionally time the gate-level multi-component benchmark on
//! both backends, asserting the outputs bit-identical and recording
//! both wall clocks in the `--json` report's `engine_bench` section.

use std::sync::Arc;
use std::time::Duration;

use vcad_bench::cli;
use vcad_bench::report::{modeled_real_time, print_table, secs};
use vcad_bench::scenarios::{self, Scenario, ScenarioRun};
use vcad_cache::CacheConfig;
use vcad_core::{EngineKind, ShardPolicy};
use vcad_ip::IpCache;
use vcad_netsim::NetworkModel;

/// Wall clocks of the multi-component benchmark at 1 and `shards`
/// shards (best of three runs each, to keep the committed numbers
/// stable against scheduler noise).
struct ShardBench {
    components: usize,
    width: usize,
    patterns: u64,
    shards: usize,
    events: u64,
    sequential: Duration,
    sharded: Duration,
}

fn run_shard_bench(shards: usize) -> ShardBench {
    let (components, width, patterns) = (8, 16, 400);
    let best = |policy: ShardPolicy| -> (Duration, vcad_bench::scenarios::MultiRun) {
        let rig = scenarios::build_multi_component(components, width, patterns, policy);
        let mut runs: Vec<vcad_bench::scenarios::MultiRun> = (0..3).map(|_| rig.run()).collect();
        runs.sort_by_key(|r| r.cpu);
        (runs[0].cpu, runs.swap_remove(0))
    };
    let (sequential, seq_run) = best(ShardPolicy::Sequential);
    let (sharded, par_run) = best(ShardPolicy::Auto(shards));
    assert_eq!(par_run.shard_count, shards.min(components));
    assert_eq!(
        par_run.events, seq_run.events,
        "sharded run processed a different event count"
    );
    assert_eq!(
        par_run.words, seq_run.words,
        "sharded run diverged from sequential"
    );
    ShardBench {
        components,
        width,
        patterns,
        shards,
        events: seq_run.events,
        sequential,
        sharded,
    }
}

/// Wall clocks of the gate-level multi-component benchmark on the
/// event-driven versus the compiled levelized engine (best of three runs
/// each), with the outputs asserted bit-identical.
struct EngineBench {
    components: usize,
    width: usize,
    patterns: u64,
    events: u64,
    event: Duration,
    compiled: Duration,
}

fn run_engine_bench() -> EngineBench {
    let (components, width, patterns) = (4, 12, 200);
    let best = |engine: EngineKind| -> (Duration, vcad_bench::scenarios::MultiRun) {
        let mut rig =
            scenarios::build_multi_component(components, width, patterns, ShardPolicy::Sequential);
        rig.set_engine(engine);
        let mut runs: Vec<vcad_bench::scenarios::MultiRun> = (0..3).map(|_| rig.run()).collect();
        runs.sort_by_key(|r| r.cpu);
        (runs[0].cpu, runs.swap_remove(0))
    };
    let (event, event_run) = best(EngineKind::Event);
    let (compiled, compiled_run) = best(EngineKind::Compiled);
    assert_eq!(
        compiled_run.events, event_run.events,
        "compiled run processed a different event count"
    );
    assert_eq!(
        compiled_run.words, event_run.words,
        "compiled engine diverged from event-driven"
    );
    EngineBench {
        components,
        width,
        patterns,
        events: event_run.events,
        event,
        compiled,
    }
}

fn main() {
    let width = 16;
    let patterns = 100;
    let buffer = 5;
    let trace_out = cli::trace_path();
    let chaos_seed = cli::chaos_seed();
    let cached = cli::cache_enabled();
    let json_out = cli::json_path();
    let shards = cli::shards();
    let engine = cli::engine();
    let obs = cli::collector_for(trace_out.as_ref());
    // Alive for the whole run: dropping it writes the final snapshot.
    let _health = cli::start_health(&obs);

    // Under --lint[=json], statically analyse each scenario's design
    // and exit instead of measuring.
    if cli::lint_mode() != cli::LintMode::Off {
        let rigs = Scenario::ALL.map(|s| (s.label(), scenarios::build(s, width, patterns, buffer)));
        cli::run_lint_flag(rigs.iter().map(|(label, rig)| (*label, rig.design())));
        return;
    }

    let environments = [
        ("NA (no network)", None),
        ("Local", Some(NetworkModel::local_host())),
        ("LAN", Some(NetworkModel::lan_1999())),
        ("WAN", Some(NetworkModel::wan_1999())),
    ];

    let mut rows = Vec::new();
    let mut cold_runs = Vec::new();
    // (scenario label, pass label, run) — everything the JSON reports.
    let mut passes: Vec<(&'static str, &'static str, ScenarioRun)> = Vec::new();
    for scenario in Scenario::ALL {
        // One cache per rig: keys include the provider host and object
        // ids, which repeat across independently built rigs.
        let cache =
            cached.then(|| Arc::new(IpCache::new(CacheConfig::default()).with_collector(&obs)));
        let mut rig = scenarios::build_full(
            scenario,
            width,
            patterns,
            buffer,
            obs.clone(),
            chaos_seed,
            cache,
        );
        if let Some(n) = shards {
            rig.set_shards(ShardPolicy::Auto(n));
        }
        if let Some(e) = engine {
            rig.set_engine(e);
        }
        let cold = rig.run(scenario);
        cold_runs.push(cold.clone());
        let scenario_passes: Vec<(&'static str, ScenarioRun)> = if cached {
            let warm = rig.run(scenario);
            vec![("cold", cold), ("warm", warm)]
        } else {
            vec![("single", cold)]
        };
        for (pass, run) in scenario_passes {
            for (env_name, model) in &environments {
                // AL has no network leg; remote scenarios skip the NA row.
                match (scenario, model) {
                    (Scenario::AllLocal, None) => {}
                    (Scenario::AllLocal, Some(_)) | (_, None) => continue,
                    _ => {}
                }
                let real = match model {
                    Some(m) => modeled_real_time(run.cpu, &run.stats, m),
                    None => run.cpu,
                };
                let design = if cached {
                    format!("{} [{pass}]", scenario.label())
                } else {
                    scenario.label().to_owned()
                };
                rows.push(vec![
                    design,
                    (*env_name).to_owned(),
                    secs(run.cpu),
                    secs(real),
                    run.stats.calls.to_string(),
                    (run.stats.bytes_sent + run.stats.bytes_received).to_string(),
                    format!("{:.1}", run.fees_cents),
                    format!("{:.0}%", run.cache_hit_rate() * 100.0),
                ]);
            }
            passes.push((scenario.label(), pass, run));
        }
    }

    print_table(
        "Table 2 — Figure 2 circuit, 100 random patterns, buffer 5",
        &[
            "Design",
            "Host",
            "CPU time (s)",
            "Real time (s)",
            "RMI calls",
            "RMI bytes",
            "Fees (¢)",
            "Cache hit",
        ],
        &rows,
    );
    println!(
        "\nPaper's values (CPU / real, seconds): AL 13/15; ER local 14/21, \
         LAN 14/32, WAN 14/168; MR local 38/87, LAN 38/65, WAN 38/407."
    );

    // Shape assertions mirroring the paper's observations.
    let al = &cold_runs[0];
    let er = &cold_runs[1];
    let mr = &cold_runs[2];
    // CPU-time comparisons are only meaningful untraced, unchaosed and
    // uncached: recording a span per scheduler instant and RMI call,
    // retrying injected faults, or hashing every request perturbs
    // exactly what these two assertions measure.
    if trace_out.is_none() && chaos_seed.is_none() && !cached {
        // "The impact of using RMI to access a module having only one
        //  remote method is almost negligible" — ER CPU close to AL's.
        assert!(
            er.cpu.as_secs_f64() < al.cpu.as_secs_f64() * 3.0 + 0.05,
            "ER cpu {:?} should be near AL cpu {:?}",
            er.cpu,
            al.cpu
        );
        // "Using RMI to access an entirely remote module adds a relevant
        //  overhead to the CPU time" — MR well above ER.
        assert!(
            mr.cpu > er.cpu,
            "MR cpu {:?} must exceed ER cpu {:?}",
            mr.cpu,
            er.cpu
        );
    }
    // Real time ordering per environment: WAN > LAN > local for both
    // remote scenarios; MR > ER on every network.
    for scenario_run in [er, mr] {
        let local = modeled_real_time(
            scenario_run.cpu,
            &scenario_run.stats,
            &NetworkModel::local_host(),
        );
        let lan = modeled_real_time(
            scenario_run.cpu,
            &scenario_run.stats,
            &NetworkModel::lan_1999(),
        );
        let wan = modeled_real_time(
            scenario_run.cpu,
            &scenario_run.stats,
            &NetworkModel::wan_1999(),
        );
        assert!(local < lan && lan < wan);
    }
    for model in [
        NetworkModel::local_host(),
        NetworkModel::lan_1999(),
        NetworkModel::wan_1999(),
    ] {
        assert!(
            modeled_real_time(mr.cpu, &mr.stats, &model)
                > modeled_real_time(er.cpu, &er.stats, &model)
        );
    }
    if cached {
        // The warm pass of each remote scenario must be served entirely
        // from the cache: zero wire calls, zero fees, same outputs.
        for ((label, pass, warm), cold) in passes
            .iter()
            .filter(|(_, pass, _)| *pass == "warm")
            .zip(&cold_runs)
        {
            assert_eq!(warm.outputs, cold.outputs, "{label} warm diverged");
            assert_eq!(warm.events, cold.events, "{label} warm diverged");
            if cold.stats.calls > 0 {
                assert_eq!(
                    warm.stats.calls, 0,
                    "{label} [{pass}] crossed the wire {} times",
                    warm.stats.calls
                );
                assert_eq!(warm.fees_cents, 0.0, "{label} warm pass was billed");
                assert!(warm.cache_hits > 0, "{label} warm pass never hit");
                // One count per lookup: every call of the cold pass
                // missed once and crossed the wire once (a faulty link
                // adds retried attempts to the wire count only), and
                // the warm pass repeats exactly those lookups as hits.
                assert_eq!(warm.cache_hits, cold.cache_misses, "{label} lookups");
                if chaos_seed.is_none() {
                    assert_eq!(cold.cache_misses, cold.stats.calls, "{label} misses");
                }
            }
        }
    }
    println!("\nAll shape assertions passed.");

    if let Some(seed) = chaos_seed {
        let snap = obs.metrics().snapshot();
        println!(
            "\nchaos (seed {seed}): {} faults injected over {} transport calls \
             — {} retries, {} calls recovered, {} exhausted, breaker opened {}×, \
             {} duplicate calls deduplicated by the provider",
            snap.counter("rmi.chaos.injected.total"),
            snap.counter("rmi.chaos.calls"),
            snap.counter("rmi.retry.retries"),
            snap.counter("rmi.retry.recovered"),
            snap.counter("rmi.retry.exhausted"),
            snap.counter("rmi.breaker.opened"),
            snap.counter("rmi.dispatch.dedup_hits"),
        );
    }
    if cached {
        let snap = obs.metrics().snapshot();
        println!(
            "\ncache: {} hits, {} misses, {} single-flight coalesced, \
             {} evictions (lru {}, ttl {}, epoch {})",
            snap.counter("cache.hits"),
            snap.counter("cache.misses"),
            snap.counter("cache.singleflight.coalesced"),
            snap.counter("cache.evictions.lru")
                + snap.counter("cache.evictions.ttl")
                + snap.counter("cache.evictions.epoch"),
            snap.counter("cache.evictions.lru"),
            snap.counter("cache.evictions.ttl"),
            snap.counter("cache.evictions.epoch"),
        );
    }

    // The Figure 2 multiplier is behavioural or remote, so the table
    // above is engine-invariant by construction; the engine story needs
    // the gate-level multi-component rig, where `Compiled` swaps every
    // NetlistBusBlock for its levelized twin.
    let engine_bench = engine.is_some().then(run_engine_bench);
    if let Some(bench) = &engine_bench {
        println!(
            "\nengine bench ({} components × {}-bit gate-level wallace \
             multipliers, {} patterns, {} events): event-driven {:.1} ms, \
             compiled {:.1} ms ({:.2}× speedup), outputs bit-identical",
            bench.components,
            bench.width,
            bench.patterns,
            bench.events,
            bench.event.as_secs_f64() * 1e3,
            bench.compiled.as_secs_f64() * 1e3,
            bench.event.as_secs_f64() / bench.compiled.as_secs_f64(),
        );
    }

    // The Figure 2 circuit is a single connectivity component, so the
    // table above is shard-invariant by construction; the scaling story
    // needs a design with independent components to spread.
    let shard_bench = shards.filter(|&n| n > 1).map(run_shard_bench);
    if let Some(bench) = &shard_bench {
        println!(
            "\nshard bench ({} components × {}-bit wallace multipliers, \
             {} patterns, {} events): 1 shard {:.1} ms, {} shards {:.1} ms \
             ({:.2}× speedup), outputs bit-identical",
            bench.components,
            bench.width,
            bench.patterns,
            bench.events,
            bench.sequential.as_secs_f64() * 1e3,
            bench.shards,
            bench.sharded.as_secs_f64() * 1e3,
            bench.sequential.as_secs_f64() / bench.sharded.as_secs_f64(),
        );
    }

    if let Some(path) = json_out {
        let entries: Vec<String> = passes
            .iter()
            .map(|(label, pass, run)| {
                format!(
                    "    {{\"scenario\": \"{label}\", \"pass\": \"{pass}\", \
                     \"wall_ms\": {:.3}, \"rmi_calls\": {}, \"rmi_bytes\": {}, \
                     \"fees_cents\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \
                     \"cache_hit_rate\": {:.4}}}",
                    run.cpu.as_secs_f64() * 1e3,
                    run.stats.calls,
                    run.stats.bytes_sent + run.stats.bytes_received,
                    run.fees_cents,
                    run.cache_hits,
                    run.cache_misses,
                    run.cache_hit_rate(),
                )
            })
            .collect();
        let shard_doc = shard_bench.as_ref().map_or_else(
            || "null".to_owned(),
            |b| {
                format!(
                    "{{\"components\": {}, \"width\": {}, \"patterns\": {}, \
                     \"events\": {}, \"shards\": {}, \"wall_ms_1_shard\": {:.3}, \
                     \"wall_ms_sharded\": {:.3}, \"speedup\": {:.3}}}",
                    b.components,
                    b.width,
                    b.patterns,
                    b.events,
                    b.shards,
                    b.sequential.as_secs_f64() * 1e3,
                    b.sharded.as_secs_f64() * 1e3,
                    b.sequential.as_secs_f64() / b.sharded.as_secs_f64(),
                )
            },
        );
        let engine_doc = engine_bench.as_ref().map_or_else(
            || "null".to_owned(),
            |b| {
                format!(
                    "{{\"components\": {}, \"width\": {}, \"patterns\": {}, \
                     \"events\": {}, \"wall_ms_event\": {:.3}, \
                     \"wall_ms_compiled\": {:.3}, \"speedup\": {:.3}}}",
                    b.components,
                    b.width,
                    b.patterns,
                    b.events,
                    b.event.as_secs_f64() * 1e3,
                    b.compiled.as_secs_f64() * 1e3,
                    b.event.as_secs_f64() / b.compiled.as_secs_f64(),
                )
            },
        );
        let doc = format!(
            "{{\n  \"bench\": \"table2\",\n  \"width\": {width},\n  \
             \"patterns\": {patterns},\n  \"buffer\": {buffer},\n  \
             \"cached\": {cached},\n  \"chaos_seed\": {},\n  \"engine\": {},\n  \
             \"engine_bench\": {engine_doc},\n  \
             \"shard_bench\": {shard_doc},\n  \"runs\": [\n{}\n  ]\n}}\n",
            chaos_seed.map_or_else(|| "null".to_owned(), |s| s.to_string()),
            engine.map_or_else(|| "null".to_owned(), |e| format!("\"{e}\"")),
            entries.join(",\n"),
        );
        std::fs::write(&path, doc).expect("write json results");
        println!("\nJSON results written to {}", path.display());
    }

    cli::finish_trace(&obs, trace_out);
}
