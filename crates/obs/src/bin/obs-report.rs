//! `obs-report` — stitch and analyze distributed trace dumps.
//!
//! ```text
//! obs-report report <dump.json>... [--require-no-orphans]
//! obs-report merge  <dump.json>... --out <merged.json>
//! ```
//!
//! `report` loads one or more Chrome trace dumps (one per process
//! collector), stitches them onto one causal clock and prints per-span
//! percentile tables, the per-RPC latency breakdown and the critical
//! path. With `--require-no-orphans` the exit code is 2 when any span's
//! parent is missing or crossed into another trace — the CI gate for
//! end-to-end context propagation.
//!
//! `merge` writes the stitched lanes back out as a single multi-process
//! Chrome trace for `chrome://tracing` / Perfetto.

use std::process::ExitCode;

use vcad_obs::analyze::{analyze, stitched_lanes};
use vcad_obs::chrome::{parse_chrome_json, to_chrome_json_lanes, ProcessLane};
use vcad_obs::Trace;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  obs-report report <dump.json>... [--require-no-orphans]\n  obs-report merge <dump.json>... --out <merged.json>"
    );
    ExitCode::from(64)
}

fn load_lanes(paths: &[String]) -> Result<Vec<ProcessLane>, String> {
    let mut lanes = Vec::new();
    for p in paths {
        let body = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        let mut parsed = parse_chrome_json(&body).map_err(|e| format!("cannot parse {p}: {e}"))?;
        // Re-number pids so lanes from different files never collide.
        for lane in &mut parsed {
            lane.pid = u32::try_from(lanes.len()).unwrap_or(u32::MAX) + 1;
            lanes.push(lane.clone());
        }
    }
    Ok(lanes)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        return usage();
    };
    match mode.as_str() {
        "report" => {
            let mut paths = Vec::new();
            let mut gate = false;
            for a in rest {
                if a == "--require-no-orphans" {
                    gate = true;
                } else {
                    paths.push(a.clone());
                }
            }
            if paths.is_empty() {
                return usage();
            }
            let lanes = match load_lanes(&paths) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("obs-report: {e}");
                    return ExitCode::from(66);
                }
            };
            let analysis = analyze(&lanes);
            print!("{}", analysis.render_text());
            if gate && !analysis.is_consistent() {
                eprintln!(
                    "obs-report: consistency gate failed: {} orphan(s), {} crossed, {} duplicate(s)",
                    analysis.orphans.len(),
                    analysis.crossed.len(),
                    analysis.duplicates.len()
                );
                return ExitCode::from(2);
            }
            ExitCode::SUCCESS
        }
        "merge" => {
            let mut paths = Vec::new();
            let mut out_path: Option<String> = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                if a == "--out" {
                    out_path = it.next().cloned();
                } else {
                    paths.push(a.clone());
                }
            }
            let (Some(out_path), false) = (out_path, paths.is_empty()) else {
                return usage();
            };
            let lanes = match load_lanes(&paths) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("obs-report: {e}");
                    return ExitCode::from(66);
                }
            };
            let stitched = stitched_lanes(&lanes);
            let traces: Vec<Trace> = stitched
                .into_iter()
                .map(|lane| Trace {
                    process: lane.name,
                    events: lane.events,
                    ..Trace::default()
                })
                .collect();
            if let Err(e) = std::fs::write(&out_path, to_chrome_json_lanes(&traces)) {
                eprintln!("obs-report: cannot write {out_path}: {e}");
                return ExitCode::from(73);
            }
            println!("wrote {out_path}");
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
