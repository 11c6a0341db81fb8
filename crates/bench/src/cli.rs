//! Tiny shared argument handling for the bench binaries.
//!
//! Every flag is parsed by one of three generic scanners —
//! [`flag_value`], [`path_flag`], [`parsed_flag`] — so each binary's
//! surface is a list of one-line wrappers instead of a copy of the same
//! argument-walking loop.

use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

use vcad_core::Design;
pub use vcad_lint::cli::LintMode;
use vcad_lint::graph::LintGraph;
use vcad_lint::Linter;
use vcad_obs::Collector;

/// Scans the process arguments for `flag` and returns its operand.
///
/// Exits with status 2 when the flag is present but its operand is
/// missing (`expects` finishes the error message: `"--trace needs a
/// file path"`).
#[must_use]
pub fn flag_value(flag: &str, expects: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == flag {
            return Some(args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {expects}");
                std::process::exit(2);
            }));
        }
    }
    None
}

/// [`flag_value`] as a [`PathBuf`].
#[must_use]
pub fn path_flag(flag: &str) -> Option<PathBuf> {
    flag_value(flag, "a file path").map(PathBuf::from)
}

/// [`flag_value`] parsed into `T`. Exits with status 2 when the operand
/// is present but does not parse.
#[must_use]
pub fn parsed_flag<T: FromStr>(flag: &str, expects: &str) -> Option<T> {
    flag_value(flag, expects).map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("{flag} needs {expects}");
            std::process::exit(2);
        })
    })
}

/// [`parsed_flag`] restricted to positive integers.
#[must_use]
pub fn positive_flag(flag: &str) -> Option<usize> {
    let n = parsed_flag::<usize>(flag, "a positive integer")?;
    if n == 0 {
        eprintln!("{flag} needs a positive integer");
        std::process::exit(2);
    }
    Some(n)
}

/// True when the bare `flag` is present.
#[must_use]
pub fn flag_present(flag: &str) -> bool {
    std::env::args().skip(1).any(|a| a == flag)
}

/// Parses `--trace <path>` from the process arguments, if present.
///
/// Exits with status 2 when `--trace` is given without a path.
#[must_use]
pub fn trace_path() -> Option<PathBuf> {
    path_flag("--trace")
}

/// Parses `--chaos-seed <u64>` from the process arguments, if present.
///
/// The seed selects a deterministic fault-injection schedule (see
/// `vcad_rmi::FaultPlan`): the same seed reproduces the same drops,
/// corruptions and delays on every run.
///
/// Exits with status 2 when `--chaos-seed` is given without a valid
/// unsigned integer.
#[must_use]
pub fn chaos_seed() -> Option<u64> {
    parsed_flag("--chaos-seed", "an unsigned integer")
}

/// Parses `--shards <n>` from the process arguments, if present: the
/// bench runs its scheduler sharded over up to `n` worker threads
/// (`vcad_core::ShardPolicy::Auto`), and — where the bin defines one —
/// additionally measures the multi-component benchmark at `--shards 1`
/// versus `--shards n`. Results are bit-identical to sequential runs;
/// only the wall clock moves.
///
/// Exits with status 2 when `--shards` is given without a positive
/// integer.
#[must_use]
pub fn shards() -> Option<usize> {
    positive_flag("--shards")
}

/// Parses `--json <path>` from the process arguments, if present: where
/// `campaign` writes its deterministic report.
///
/// Exits with status 2 when `--json` is given without a path.
#[must_use]
pub fn json_path() -> Option<PathBuf> {
    path_flag("--json")
}

/// Parses `--out <dir>` with a per-binary default — the dump directory
/// used by `tracesession`.
#[must_use]
pub fn out_dir(default: &str) -> PathBuf {
    flag_value("--out", "a directory path").map_or_else(|| default.into(), PathBuf::from)
}

/// Parses `--workers <n>` from the process arguments, if present — the
/// campaign orchestrator's worker-pool size.
///
/// Exits with status 2 when `--workers` is given without a positive
/// integer.
#[must_use]
pub fn workers() -> Option<usize> {
    positive_flag("--workers")
}

/// Parses `--sessions <n>` from the process arguments, if present — how
/// many concurrent client sessions the load generator drives.
///
/// Exits with status 2 when `--sessions` is given without a positive
/// integer.
#[must_use]
pub fn sessions() -> Option<usize> {
    positive_flag("--sessions")
}

/// Parses `--tenants <n>` from the process arguments, if present — how
/// many distinct tenant identities the load generator spreads its
/// sessions across.
///
/// Exits with status 2 when `--tenants` is given without a positive
/// integer.
#[must_use]
pub fn tenants() -> Option<usize> {
    positive_flag("--tenants")
}

/// Parses `--calls <n>` from the process arguments, if present — how
/// many chargeable calls each load-generator session issues.
///
/// Exits with status 2 when `--calls` is given without a positive
/// integer.
#[must_use]
pub fn calls() -> Option<usize> {
    positive_flag("--calls")
}

/// Parses `--checkpoint <path>` from the process arguments, if present —
/// where the campaign journal lives.
///
/// Exits with status 2 when `--checkpoint` is given without a path.
#[must_use]
pub fn checkpoint_path() -> Option<PathBuf> {
    path_flag("--checkpoint")
}

/// Parses `--max-cells <n>` from the process arguments, if present — a
/// deterministic mid-campaign interruption point, used by the resume
/// tests and the CI gate.
///
/// Exits with status 2 when `--max-cells` is given without a positive
/// integer.
#[must_use]
pub fn max_cells() -> Option<usize> {
    positive_flag("--max-cells")
}

/// Parses `--engine <event|compiled>` (also accepted as
/// `--engine=<...>`) from the process arguments, if present: which
/// gate-evaluation backend the bench runs on. Both backends are
/// bit-identical by construction — the flag only moves the wall clock.
///
/// Exits with status 2 when the label is missing or unknown.
#[must_use]
pub fn engine() -> Option<vcad_core::EngineKind> {
    std::env::args()
        .skip(1)
        .find_map(|arg| arg.strip_prefix("--engine=").map(str::to_owned))
        .or_else(|| flag_value("--engine", "`event` or `compiled`"))
        .map(|label| {
            label.parse().unwrap_or_else(|e: String| {
                eprintln!("--engine: {e}");
                std::process::exit(2);
            })
        })
}

/// Parses `--health <path>[:interval_ms]` from the process arguments,
/// if present: the bench periodically writes a machine-readable health
/// snapshot (counters, gauge high-waters, histogram percentiles,
/// breaker states, cache hit ratio) to `path` as JSON plus a text
/// rendering to `path.txt`. Without an interval the snapshot is written
/// once, on exit.
///
/// Exits with status 2 when `--health` is given without a path.
#[must_use]
pub fn health_spec() -> Option<(PathBuf, Option<std::time::Duration>)> {
    flag_value("--health", "a file path (optionally `path:interval_ms`)")
        .map(|spec| parse_health_spec(&spec))
}

fn parse_health_spec(spec: &str) -> (PathBuf, Option<std::time::Duration>) {
    if let Some((path, ms)) = spec.rsplit_once(':') {
        if let Ok(ms) = ms.parse::<u64>() {
            return (path.into(), Some(std::time::Duration::from_millis(ms)));
        }
    }
    (spec.into(), None)
}

/// Starts the periodic health reporter when `--health` is present. Keep
/// the returned handle alive for the whole run: dropping it writes the
/// final snapshot.
#[must_use]
pub fn start_health(obs: &Collector) -> Option<vcad_obs::HealthReporter> {
    health_spec().map(|(path, interval)| vcad_obs::HealthReporter::start(obs, path, interval))
}

/// True when `--cache` is present: remote sessions memoize provider
/// calls (see `vcad_ip::IpCache`) and the bench runs each scenario
/// twice — a cold pass filling the cache and a warm pass served from
/// it.
#[must_use]
pub fn cache_enabled() -> bool {
    flag_present("--cache")
}

/// Whether `--lint` / `--lint=json` is present on the command line.
#[must_use]
pub fn lint_mode() -> LintMode {
    vcad_lint::cli::lint_mode()
}

/// Handles `--lint[=json]` for a bench binary: statically analyses each
/// named design (including the built-in wire-protocol frame audit) and
/// prints one report per design in the requested format. Returns `true`
/// when reports were produced — the caller should skip measurement.
/// Exits with status 1 when any design carries a Deny-level finding.
pub fn run_lint_flag<'a>(designs: impl IntoIterator<Item = (&'a str, &'a Arc<Design>)>) -> bool {
    let mode = lint_mode();
    if mode == LintMode::Off {
        return false;
    }
    let mut any_deny = false;
    for (label, design) in designs {
        let graph = LintGraph::from_design(design).with_builtin_frames();
        let report = Linter::new().check_graph(&graph);
        match mode {
            LintMode::Json => println!("{}", report.to_json()),
            _ => {
                println!("— {label}");
                print!("{}", report.render());
            }
        }
        any_deny |= report.has_deny();
    }
    if any_deny {
        std::process::exit(1);
    }
    true
}

/// A collector sized for a full bench run when tracing is requested,
/// or a disabled one (metrics only) otherwise.
#[must_use]
pub fn collector_for(trace: Option<&PathBuf>) -> Collector {
    if trace.is_some() {
        // A bench run records hundreds of thousands of events (one per
        // scheduler instant and RMI call); give the ring room.
        Collector::with_capacity(1 << 20)
    } else {
        Collector::disabled()
    }
}

/// Writes the Chrome trace and prints the text summary, when requested.
///
/// # Panics
///
/// Panics when the trace file cannot be written.
pub fn finish_trace(obs: &Collector, path: Option<PathBuf>) {
    let Some(path) = path else { return };
    let trace = obs.trace();
    println!("\n{}", vcad_obs::summary::render_summary(&trace));
    vcad_obs::chrome::write_chrome_trace(&trace, &path).expect("write trace file");
    println!("Chrome trace written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::parse_health_spec;
    use std::time::Duration;

    #[test]
    fn health_spec_with_and_without_interval() {
        let (path, interval) = parse_health_spec("out/health.json:250");
        assert_eq!(path.to_str(), Some("out/health.json"));
        assert_eq!(interval, Some(Duration::from_millis(250)));

        let (path, interval) = parse_health_spec("out/health.json");
        assert_eq!(path.to_str(), Some("out/health.json"));
        assert_eq!(interval, None);

        // A non-numeric suffix is part of the path, not an interval.
        let (path, interval) = parse_health_spec("odd:name.json");
        assert_eq!(path.to_str(), Some("odd:name.json"));
        assert_eq!(interval, None);
    }
}
