//! Regenerates **Table 2**: CPU and real time for 100 random patterns
//! (buffer of 5) in the AL / ER / MR scenarios across the three network
//! environments.
//!
//! CPU time is measured (this machine); network time is modeled by
//! `vcad-netsim` from the measured RMI traffic (see DESIGN.md's
//! substitution table). Compare *shape*, not absolute seconds. The
//! traffic, fees and modeled network time are asserted by
//! `tests/golden_outputs.rs`; this bin asserts the CPU and real-time
//! shape on top.
//!
//! Run with `cargo run -p vcad-bench --bin table2 --release`. Flags (each
//! one run by `ci.sh`):
//! * `--trace <path>` — also write a Chrome trace-event JSON file (open
//!   in `chrome://tracing` or <https://ui.perfetto.dev>) covering every
//!   RMI call, dispatch and scheduler instant of all three runs, plus a
//!   plain-text metrics summary on stdout.
//! * `--chaos-seed <u64>` — run the remote scenarios over a
//!   deterministically faulty link (drops, corruption, duplicates,
//!   delays) behind the resilience layer; the results are unchanged
//!   while the `rmi.chaos.*` / `rmi.retry.*` counters report the injected
//!   turbulence.
//! * `--cache` — memoize provider calls client-side (`vcad_ip::IpCache`):
//!   each scenario then runs twice, a cold pass filling the cache and a
//!   warm pass that must stay entirely local and fee-free.
//! * `--lint[=json]` — statically analyse each scenario's design and exit
//!   instead of measuring.
//! * `--shards <n>` — run every scenario's scheduler under
//!   `ShardPolicy::Auto(n)` (a no-op for the single-component Figure 2
//!   circuit, asserted bit-identical by the golden test) and, for
//!   `n > 1`, additionally time the multi-component shard benchmark at 1
//!   versus `n` shards, asserting the outputs bit-identical and printing
//!   both wall clocks.
//!
//! The bin writes no result file: its timings are single-shot and only
//! printed. Repeated, spread-reporting timings live in `benchmark/`.

use std::time::Duration;

use vcad_bench::cli;
use vcad_bench::paper;
use vcad_bench::report::{modeled_real_time, print_table, secs};
use vcad_bench::scenarios::{self, MultiRun, Scenario, ScenarioRun};
use vcad_core::ShardPolicy;
use vcad_lint::cli::{print_reports, LintMode};
use vcad_lint::graph::LintGraph;
use vcad_lint::Linter;
use vcad_netsim::NetworkModel;
use vcad_obs::Collector;

/// Wall clocks of the multi-component benchmark at 1 and `shards`
/// shards (best of three runs each, to damp scheduler noise).
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
    let best = |policy: ShardPolicy| -> (Duration, MultiRun) {
        let rig = scenarios::build_multi_component(components, width, patterns, policy);
        let mut runs: Vec<MultiRun> = (0..3).map(|_| rig.run()).collect();
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

fn main() {
    let trace_out = cli::path_flag("--trace");
    let chaos_seed = cli::parsed_flag::<u64>("--chaos-seed", "an unsigned integer");
    let cached = cli::flag_present("--cache");
    let shards = cli::positive_flag("--shards");

    // Under --lint[=json], statically analyse each scenario's design (and
    // the wire protocol's frames) and exit instead of measuring.
    let lint = cli::lint_mode("--lint");
    if lint != LintMode::Off {
        let reports: Vec<_> = Scenario::ALL
            .iter()
            .map(|&s| {
                let rig = scenarios::build(s, paper::WIDTH, paper::PATTERNS, paper::BUFFER);
                let graph = LintGraph::from_design(rig.design()).with_builtin_frames();
                (s.label(), Linter::new().check_graph(&graph))
            })
            .collect();
        let deny = print_reports(lint, reports.iter().map(|(label, r)| (*label, r)));
        std::process::exit(i32::from(deny));
    }

    // A traced run records hundreds of thousands of events (one per
    // scheduler instant and RMI call); give the ring room.
    let obs = if trace_out.is_some() {
        Collector::with_capacity(1 << 20)
    } else {
        Collector::disabled()
    };
    let policy = shards.map_or(ShardPolicy::Sequential, ShardPolicy::Auto);
    let table = paper::table2(&obs, chaos_seed, cached, &policy);

    let environments = [
        ("NA (no network)", None),
        ("Local", Some(NetworkModel::local_host())),
        ("LAN", Some(NetworkModel::lan_1999())),
        ("WAN", Some(NetworkModel::wan_1999())),
    ];
    let mut rows = Vec::new();
    for row in &table {
        let scenario = row.cold.scenario;
        let passes: Vec<(&str, &ScenarioRun)> = match &row.warm {
            Some(warm) => vec![("cold", &row.cold), ("warm", warm)],
            None => vec![("single", &row.cold)],
        };
        for (pass, run) in passes {
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
    let [er, mr] = [&table[1].cold, &table[2].cold];
    // CPU-time comparisons are only meaningful untraced, unchaosed and
    // uncached: recording a span per scheduler instant and RMI call,
    // retrying injected faults, or hashing every request perturbs
    // exactly what these two assertions measure.
    if trace_out.is_none() && chaos_seed.is_none() && !cached {
        // One run's CPU times are a few milliseconds and swing with
        // machine load: compare each scenario's best of five runs.
        let reruns = [1, 2, 3, 4].map(|_| paper::table2(&obs, None, false, &policy));
        let best = |i: usize| {
            let rerun_cpu = reruns.iter().map(|t| t[i].cold.cpu);
            rerun_cpu.fold(table[i].cold.cpu, Duration::min)
        };
        let (al_cpu, er_cpu, mr_cpu) = (best(0), best(1), best(2));
        // "The impact of using RMI to access a module having only one
        //  remote method is almost negligible" — ER CPU close to AL's.
        assert!(
            er_cpu.as_secs_f64() < al_cpu.as_secs_f64() * 3.0 + 0.05,
            "ER cpu {er_cpu:?} should be near AL cpu {al_cpu:?}"
        );
        // "Using RMI to access an entirely remote module adds a relevant
        //  overhead to the CPU time" — MR well above ER.
        assert!(
            mr_cpu > er_cpu,
            "MR cpu {mr_cpu:?} must exceed ER cpu {er_cpu:?}"
        );
    }
    // Real time ordering per environment: WAN > LAN > local for both
    // remote scenarios; MR > ER on every network.
    let models = [
        NetworkModel::local_host(),
        NetworkModel::lan_1999(),
        NetworkModel::wan_1999(),
    ];
    for run in [er, mr] {
        let real = |m: &NetworkModel| modeled_real_time(run.cpu, &run.stats, m);
        assert!(real(&models[0]) < real(&models[1]) && real(&models[1]) < real(&models[2]));
    }
    for model in &models {
        assert!(
            modeled_real_time(mr.cpu, &mr.stats, model)
                > modeled_real_time(er.cpu, &er.stats, model)
        );
    }
    println!("\nAll shape assertions passed.");

    let snap = obs.metrics().snapshot();
    if let Some(seed) = chaos_seed {
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
        println!(
            "\ncache: {} hits, {} misses, {} single-flight coalesced, \
             {} evictions (lru {}, epoch {})",
            snap.counter("cache.hits"),
            snap.counter("cache.misses"),
            snap.counter("cache.singleflight.coalesced"),
            snap.counter("cache.evictions.lru") + snap.counter("cache.evictions.epoch"),
            snap.counter("cache.evictions.lru"),
            snap.counter("cache.evictions.epoch"),
        );
    }

    // The Figure 2 circuit is a single connectivity component, so the
    // table above is shard-invariant by construction; the scaling story
    // needs a design with independent components to spread.
    if let Some(bench) = shards.filter(|&n| n > 1).map(run_shard_bench) {
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

    if let Some(path) = trace_out {
        let trace = obs.trace();
        println!("\n{}", vcad_obs::summary::render_summary(&trace));
        vcad_obs::chrome::write_chrome_trace(&trace, &path).expect("write trace file");
        println!("Chrome trace written to {}", path.display());
    }
}
