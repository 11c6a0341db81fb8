//! Tiny shared argument handling for the bench binaries.
//!
//! Every flag is parsed by one of these generic scanners, called with the
//! flag's literal name, so each binary's whole surface is visible in its
//! own source — which is where `ci.sh`'s entry-point ratchet looks for
//! it — instead of in a list of one-line wrappers here.

use std::path::PathBuf;
use std::str::FromStr;

use vcad_lint::cli::LintMode;
use vcad_obs::{Collector, HealthReporter};

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

/// How the lint `flag` was given: bare for the human-readable report,
/// `<flag>=json` for JSON, absent for [`LintMode::Off`].
#[must_use]
pub fn lint_mode(flag: &str) -> LintMode {
    let json = format!("{flag}=json");
    std::env::args()
        .skip(1)
        .find_map(|arg| {
            if arg == flag {
                Some(LintMode::Human)
            } else if arg == json {
                Some(LintMode::Json)
            } else {
                None
            }
        })
        .unwrap_or(LintMode::Off)
}

/// Starts a health reporter over `obs` when `flag` is given as
/// `<path>[:interval_ms]`: it writes a machine-readable snapshot
/// (counters, gauge high-waters, histogram percentiles, per-tenant fees
/// and sessions) to `path` as JSON plus a text rendering to `path.txt`,
/// every interval or, without one, once on exit. Keep the returned handle
/// alive for the whole run: dropping it writes the final snapshot.
///
/// Exits with status 2 when the flag is given without a path.
#[must_use]
pub fn health_reporter(flag: &str, obs: &Collector) -> Option<HealthReporter> {
    flag_value(flag, "a file path (optionally `path:interval_ms`)").map(|spec| {
        let (path, interval) = parse_health_spec(&spec);
        HealthReporter::start(obs, path, interval)
    })
}

fn parse_health_spec(spec: &str) -> (PathBuf, Option<std::time::Duration>) {
    if let Some((path, ms)) = spec.rsplit_once(':') {
        if let Ok(ms) = ms.parse::<u64>() {
            return (path.into(), Some(std::time::Duration::from_millis(ms)));
        }
    }
    (spec.into(), None)
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
