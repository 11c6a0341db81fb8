//! The repo benchmark.
//!
//! ```text
//! vcad-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! vcad-benchmark compare <baseline.json> <toolchain> <results.json>...
//! vcad-benchmark plan
//! ```
//!
//! One process runs one workload, prints every metric by name with its
//! unit, and ends with one JSON line `{correct, attempted, failed,
//! metrics}`. `--trace 0` measures the end-to-end metrics with nothing
//! but a `u32` duration recorded per call; `--trace 1` does a fixed,
//! quarter-size amount of work with spans and byte capture on and
//! reports the per-layer ladder. See `README.md` beside this package.

#![forbid(unsafe_code)]

mod circuit;
mod compare;
mod harness;
mod layers;
mod metrics;
mod netmodel;
mod openloop;
mod stats;
mod sys;
mod tap;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Args, Outcome};

/// How many fixed-size rounds a traced run does: a quarter of what the
/// untraced window would fit at the workload's nominal round length.
/// Depends only on `--seconds`, so every count repeats exactly.
fn traced_rounds(seconds: f64, nominal_round_s: f64) -> usize {
    ((seconds * 0.25 / nominal_round_s).round() as usize).max(1)
}

/// Writes the traced run's spans to `<out>/trace.<workload>.json` and
/// notes each span name's self time.
fn write_trace<S: AsRef<str>>(args: &Args, lanes: &[(S, Vec<trace::Span>)], out: &mut Outcome) {
    let mut self_ns = std::collections::BTreeMap::new();
    for (_, spans) in lanes {
        for (name, ns) in trace::self_times(spans) {
            *self_ns.entry(name).or_insert(0u64) += ns;
        }
    }
    for (name, ns) in self_ns {
        out.notes
            .push(format!("self time {name}: {:.3} ms", ns as f64 / 1e6));
    }
    let path = args.out.join(format!("trace.{}.json", args.workload));
    let spans: usize = lanes.iter().map(|(_, s)| s.len()).sum();
    match std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(lanes)))
    {
        Ok(()) => out
            .notes
            .push(format!("{spans} spans written to {}", path.display())),
        Err(e) => out
            .violations
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

/// Checks a traced run against `expected.json`, which pins the exact
/// counts and output digests of the default seed and window. A change
/// meant only to make the simulator faster must leave every one of them
/// as it was. Other seeds have only the differential checks.
fn check_pins(args: &Args, outcome: &mut Outcome) {
    let doc = vcad_obs::json::parse(include_str!("../expected.json")).expect("expected.json");
    let number = |key: &str| doc.get(key).and_then(|v| v.as_f64());
    if !args.trace
        || number("seed") != Some(args.seed as f64)
        || number("seconds") != Some(args.seconds)
    {
        return;
    }
    let Some(pins) = doc.get("workloads").and_then(|w| w.get(&args.workload)) else {
        return;
    };
    let entries = |key: &str| {
        pins.get(key)
            .and_then(|m| m.as_object())
            .into_iter()
            .flatten()
    };
    for (name, pinned) in entries("metrics") {
        let measured = outcome
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v);
        if measured != pinned.as_f64() {
            outcome.violations.push(format!(
                "`{name}` is {measured:?}, pinned {:?}",
                pinned.as_f64()
            ));
        }
    }
    for (name, pinned) in entries("digests") {
        let measured = outcome
            .digests
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_str());
        if measured != pinned.as_str() {
            outcome.violations.push(format!(
                "digest `{name}` is {measured:?}, pinned {:?}",
                pinned.as_str()
            ));
        }
    }
    outcome
        .notes
        .push("pinned counts and digests of the default seed checked".into());
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: vcad-benchmark --workload <{}> --seed <u64> --seconds <s> --trace <0|1> \
         [--out <dir>]\n       \
         vcad-benchmark compare <baseline.json> <toolchain> <results.json>...\n       \
         vcad-benchmark plan",
        metrics::manifest().workloads.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return None,
        }
    }
    metrics::manifest()
        .workloads
        .contains(&args.workload)
        .then_some(args)
}

/// The result line: exactly the registry's metrics, in its order.
fn result_json(args: &Args, outcome: &Outcome) -> Result<String, String> {
    let registry = metrics::manifest().registry(args.trace);
    for (name, _) in &outcome.metrics {
        if !registry.iter().any(|m| m.name == *name) {
            return Err(format!("workload reported unregistered metric `{name}`"));
        }
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, metrics::Metric { name, unit, .. }) in registry.iter().enumerate() {
        let value = outcome
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric `{name}` is {v}")),
            // A layer this workload does not touch.
            None if args.trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(json)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare::main(&argv[1..]),
        // What `run.sh` loops over: the window, then the workloads.
        Some("plan") => {
            let manifest = metrics::manifest();
            println!("{}", manifest.run_seconds);
            manifest.workloads.iter().for_each(|w| println!("{w}"));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    // Bring the core out of its idle state before anything is timed:
    // set-up happens in the first milliseconds of the process, and a
    // clock still ramping up made `setup_s` differ by a third between
    // two runs of the same binary.
    let spin = std::time::Instant::now();
    let mut x = args.seed;
    while spin.elapsed() < std::time::Duration::from_millis(100) {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    let Some(mut outcome) = workloads::run(&args) else {
        return usage();
    };
    check_pins(&args, &mut outcome);

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for (name, digest) in &outcome.digests {
        println!("  digest {name}: {digest}");
    }
    let registry = metrics::manifest().registry(args.trace);
    for (name, value) in &outcome.metrics {
        let unit = registry
            .iter()
            .find(|m| m.name == *name)
            .map_or("?", |m| m.unit.as_str());
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!(
        "  failed_frac {} / {} operations",
        outcome.failed,
        outcome.attempted.max(1)
    );
    for violation in &outcome.violations {
        println!("  VIOLATION: {violation}");
    }
    match result_json(&args, &outcome) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vcad-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
