//! `compare`: two sets of `results.json` files side by side, judged by
//! the benchmark's own rules.
//!
//! A set is several runs of the suite folded into one, each metric the
//! median of its values. Then
//!
//! * every end-to-end metric of every workload must agree between the
//!   sets within the bound `BENCHMARK.json` gives it;
//! * every *exact* per-layer count must be identical in every file;
//! * every run must be correct, with no failed operation.
//!
//! When they agree, the median of the two sets (of two values, their
//! midpoint) is written out as a baseline to read later changes against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use vcad_obs::json::{self, JsonValue};

use crate::metrics::{self, Metric};
use crate::stats;
use crate::sys;

/// One workload run out of a `results.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    pub workload: String,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or("no `runs` array")?;
    runs.iter()
        .map(|run| {
            let result = run.get("result").ok_or("run without a result")?;
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .ok_or("result without metrics")?
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(JsonValue::as_f64);
                    value
                        .map(|v| (name.clone(), v))
                        .ok_or("metric without a value")
                })
                .collect::<Result<_, _>>()?;
            Ok(Run {
                workload: run
                    .get("workload")
                    .and_then(JsonValue::as_str)
                    .ok_or("run without a workload")?
                    .to_owned(),
                trace: run.get("trace").and_then(JsonValue::as_u64) == Some(1),
                correct: matches!(result.get("correct"), Some(JsonValue::Bool(true))),
                attempted: result
                    .get("attempted")
                    .and_then(JsonValue::as_u64)
                    .ok_or("result without `attempted`")?,
                failed: result
                    .get("failed")
                    .and_then(JsonValue::as_u64)
                    .ok_or("result without `failed`")?,
                metrics,
            })
        })
        .collect()
}

/// Folds several runs of the suite into one set: each metric is the
/// median of its values, a run is correct only if every one was, and
/// attempts and failures add up. An *exact* count that differs inside a
/// set is already a disagreement.
pub fn fold(files: &[Vec<Run>], problems: &mut Vec<String>) -> Vec<Run> {
    let Some((head, rest)) = files.split_first() else {
        return Vec::new();
    };
    head.iter()
        .map(|run| {
            let same: Vec<&Run> = std::iter::once(run)
                .chain(rest.iter().filter_map(|file| {
                    file.iter()
                        .find(|r| r.workload == run.workload && r.trace == run.trace)
                }))
                .collect();
            let metrics = run
                .metrics
                .keys()
                .map(|name| {
                    let mut values: Vec<f64> = same
                        .iter()
                        .filter_map(|r| r.metrics.get(name).copied())
                        .collect();
                    if metrics::EXACT.contains(&name.as_str())
                        && values.iter().any(|v| *v != values[0])
                    {
                        problems.push(format!(
                            "{}: `{name}` differs within a set: {values:?} (exact)",
                            run.workload
                        ));
                    }
                    (name.clone(), stats::median(&mut values))
                })
                .collect();
            Run {
                workload: run.workload.clone(),
                trace: run.trace,
                correct: same.iter().all(|r| r.correct),
                attempted: same.iter().map(|r| r.attempted).sum(),
                failed: same.iter().map(|r| r.failed).sum(),
                metrics,
            }
        })
        .collect()
}

/// The side-by-side table and the list of disagreements.
pub fn judge(first: &[Run], second: &[Run], rules: &[Metric]) -> (String, Vec<String>) {
    let mut table = String::new();
    let mut problems = Vec::new();
    let _ = writeln!(
        table,
        "{:<16} {:<34} {:>16} {:>16} {:>9}  rule",
        "workload", "metric", "first", "second", "differ"
    );
    for a in first {
        let Some(b) = second
            .iter()
            .find(|r| r.workload == a.workload && r.trace == a.trace)
        else {
            problems.push(format!("{}: missing from the second set", a.workload));
            continue;
        };
        for (set, run) in [("first", a), ("second", b)] {
            if !run.correct || run.failed > 0 {
                problems.push(format!(
                    "{} ({set} set, trace {}): correct={} failed={}",
                    run.workload,
                    u8::from(run.trace),
                    run.correct,
                    run.failed
                ));
            }
        }
        for (name, &x) in &a.metrics {
            let Some(&y) = b.metrics.get(name) else {
                problems.push(format!(
                    "{}: `{name}` missing from the second set",
                    a.workload
                ));
                continue;
            };
            let (low, high) = (x.min(y), x.max(y));
            let differ = if high == low { 0.0 } else { high / low - 1.0 };
            let (rule, ok) = if a.trace {
                if !metrics::EXACT.contains(&name.as_str()) {
                    continue;
                }
                ("exact".to_owned(), x == y)
            } else {
                let bound = rules
                    .iter()
                    .find(|r| &r.name == name)
                    .and_then(|r| r.bound)
                    .unwrap_or(0.0);
                (format!("within {bound}"), differ <= bound)
            };
            let _ = writeln!(
                table,
                "{:<16} {:<34} {:>16.4} {:>16.4} {:>8.2}%  {rule}{}",
                a.workload,
                name,
                x,
                y,
                differ * 100.0,
                if ok { "" } else { "  <== DISAGREE" }
            );
            if !ok {
                problems.push(format!("{}: `{name}` {x} vs {y} ({rule})", a.workload));
            }
        }
    }
    (table, problems)
}

/// The midpoint of the two sets, per workload and metric, as JSON.
fn baseline_json(first: &[Run], second: &[Run], toolchain: &str) -> String {
    let manifest = metrics::manifest();
    let mut out = format!(
        "{{\n  \"what\": \"median of the two sets of benchmark/repeat.sh\",\n  \
         \"toolchain\": \"{toolchain}\",\n  \"profile\": \"release\",\n  \"nproc\": {},\n  \
         \"workloads\": {{",
        sys::nproc()
    );
    for (w, workload) in manifest.workloads.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{workload}\": {{",
            if w == 0 { "" } else { "," }
        );
        let mut first_metric = true;
        for trace in [false, true] {
            let pick = |set: &[Run]| {
                set.iter()
                    .find(|r| r.workload == *workload && r.trace == trace)
                    .map(|r| r.metrics.clone())
                    .unwrap_or_default()
            };
            let (a, b) = (pick(first), pick(second));
            for Metric { name, .. } in manifest.registry(trace) {
                if let (Some(x), Some(y)) = (a.get(name), b.get(name)) {
                    let _ = write!(
                        out,
                        "{}\n      \"{name}\": {}",
                        if first_metric { "" } else { "," },
                        (x + y) / 2.0
                    );
                    first_metric = false;
                }
            }
        }
        out.push_str("\n    }");
    }
    out.push_str("\n  }\n}\n");
    out
}

pub fn main(argv: &[String]) -> ExitCode {
    let run = || -> Result<bool, String> {
        let [baseline, toolchain, files @ ..] = argv else {
            return Err("compare needs <baseline.json> <toolchain> <results.json>...".into());
        };
        if files.is_empty() || files.len() % 2 != 0 {
            return Err("compare needs the first set's files, then as many of the second's".into());
        }
        let files = files
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                parse_runs(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let (first, second) = files.split_at(files.len() / 2);
        let mut problems = Vec::new();
        let first = fold(first, &mut problems);
        let second = fold(second, &mut problems);
        let (table, disagreements) = judge(&first, &second, &metrics::manifest().end_to_end);
        problems.extend(disagreements);
        print!("{table}");
        for problem in &problems {
            println!("DISAGREE: {problem}");
        }
        if problems.is_empty() {
            std::fs::write(baseline, baseline_json(&first, &second, toolchain))
                .map_err(|e| format!("cannot write {baseline}: {e}"))?;
            println!("baseline written to {baseline}");
        }
        Ok(problems.is_empty())
    };
    match run() {
        Ok(true) => {
            println!("the two sets agree");
            ExitCode::SUCCESS
        }
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("vcad-benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, trace: bool, metrics: &[(&str, f64)]) -> Run {
        Run {
            workload: workload.to_owned(),
            trace,
            correct: true,
            attempted: 8,
            failed: 0,
            metrics: metrics.iter().map(|(n, v)| ((*n).to_owned(), *v)).collect(),
        }
    }

    fn rules() -> Vec<Metric> {
        vec![Metric {
            name: "throughput_per_s".into(),
            unit: "1/s".into(),
            bound: Some(0.10),
        }]
    }

    #[test]
    fn timings_agree_within_their_bound_in_either_direction() {
        let a = [run("mr_tcp", false, &[("throughput_per_s", 100.0)])];
        for (other, agrees) in [(109.0, true), (92.0, true), (111.0, false), (89.0, false)] {
            let b = [run("mr_tcp", false, &[("throughput_per_s", other)])];
            let (_, problems) = judge(&a, &b, &rules());
            assert_eq!(problems.is_empty(), agrees, "{other}: {problems:?}");
        }
    }

    #[test]
    fn exact_counts_must_be_identical_and_other_layer_timings_are_free() {
        let a = [run(
            "mr_tcp",
            true,
            &[("rmi.calls", 3995.0), ("rmi.codec.ns_per_call", 900.0)],
        )];
        let same = [run(
            "mr_tcp",
            true,
            &[("rmi.calls", 3995.0), ("rmi.codec.ns_per_call", 1500.0)],
        )];
        assert!(judge(&a, &same, &rules()).1.is_empty());
        let off = [run(
            "mr_tcp",
            true,
            &[("rmi.calls", 3996.0), ("rmi.codec.ns_per_call", 900.0)],
        )];
        let (table, problems) = judge(&a, &off, &rules());
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(table.contains("DISAGREE"));
    }

    #[test]
    fn failures_and_missing_runs_are_disagreements() {
        let a = [run("al_gates", false, &[("throughput_per_s", 5.0)])];
        let mut failed = a.clone();
        failed[0].failed = 1;
        assert!(!judge(&a, &failed, &rules()).1.is_empty());
        assert!(!judge(&a, &[], &rules()).1.is_empty());
    }

    #[test]
    fn a_set_is_the_median_of_its_files_and_keeps_the_worst_verdict() {
        let file = |rate: f64, calls: f64| {
            vec![
                run("mr_tcp", false, &[("throughput_per_s", rate)]),
                run("mr_tcp", true, &[("rmi.calls", calls)]),
            ]
        };
        let mut problems = Vec::new();
        let set = fold(
            &[file(900.0, 40.0), file(500.0, 40.0), file(800.0, 40.0)],
            &mut problems,
        );
        assert!(problems.is_empty(), "{problems:?}");
        // The 500 straggler does not set the figure.
        assert_eq!(set[0].metrics["throughput_per_s"], 800.0);
        assert_eq!(set[1].metrics["rmi.calls"], 40.0);
        assert_eq!(
            (set[0].correct, set[0].attempted, set[0].failed),
            (true, 24, 0)
        );

        // One failed run spoils its set; one stray exact count is reported.
        let mut spoiled = file(900.0, 41.0);
        spoiled[0].failed = 2;
        let set = fold(
            &[file(900.0, 40.0), spoiled, file(800.0, 40.0)],
            &mut problems,
        );
        assert_eq!(set[0].failed, 2);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(fold(&[], &mut problems).is_empty());
    }

    #[test]
    fn results_files_round_trip_through_the_parser() {
        let text = r#"{"seed": 1, "seconds": 10, "runs": [
{"workload": "mr_tcp", "trace": 0, "result": {"correct": true, "attempted": 8, "failed": 0,
 "metrics": {"setup_s": {"value": 0.0125, "unit": "s"}}}},
{"workload": "mr_tcp", "trace": 1, "result": {"correct": false, "attempted": 8, "failed": 2,
 "metrics": {"rmi.calls": {"value": 3995, "unit": "count"}}}}
]}"#;
        let runs = parse_runs(text).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], run("mr_tcp", false, &[("setup_s", 0.0125)]));
        assert_eq!(runs[0].attempted, 8);
        assert!(runs[1].trace && !runs[1].correct && runs[1].failed == 2);
    }
}
