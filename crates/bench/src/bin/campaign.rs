//! `campaign` — the resumable fault-injection campaign driver.
//!
//! Run with `cargo run -p vcad-bench --bin campaign --release --
//! <spec.json>`. The spec (see `examples/specs/`) sweeps virtual fault
//! simulation across providers × fault models × location ranges ×
//! pattern budgets × chaos seeds × estimator tiers; every completed cell
//! is journalled to a CRC-framed checkpoint, so killing the process at
//! any instant loses nothing — rerun the same command and only
//! incomplete cells execute. The final report is byte-identical however
//! many times the campaign was interrupted.
//!
//! Flags (each one run by `ci.sh`):
//! * `--workers <n>` — worker-pool size (default 4).
//! * `--checkpoint <path>` — journal location (default
//!   `target/campaign/<name>.journal`).
//! * `--max-cells <n>` — stop after executing `n` cells this run and
//!   exit with status 10 (deterministic interruption; the CI resume gate
//!   and kill-tolerance tests build on it).
//! * `--json <path>` — write the deterministic JSON report.
//! * `--lint[=json]` — instead of running, print one static
//!   testability lint report per provider (SCOAP-proven untestable
//!   fault sites as stable-ID Warn diagnostics) and exit. Pairs with
//!   the spec's `"testability"` knob: the report names exactly the
//!   faults `prune` would drop.
//!
//! Exit status: 0 on a complete campaign, 10 when interrupted by
//! `--max-cells`, 2 on a rejected spec or usage error, 1 on journal I/O
//! failures or Deny-level lint findings.

use std::path::PathBuf;
use std::time::Instant;

use vcad_bench::cli;
use vcad_campaign::{CampaignError, CampaignSpec, Orchestrator};
use vcad_lint::cli::{print_reports, LintMode};

/// Exit status for a run stopped by `--max-cells` before grid exhaustion.
const EXIT_INTERRUPTED: i32 = 10;

fn main() {
    let spec_path = spec_path_arg().unwrap_or_else(|| {
        eprintln!("usage: campaign <spec.json> [--workers N] [--checkpoint PATH] [--max-cells N] [--lint[=json]] [--json PATH]");
        std::process::exit(2);
    });

    let text = std::fs::read_to_string(&spec_path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", spec_path.display());
        std::process::exit(2);
    });
    let spec = CampaignSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("campaign spec rejected: {e}");
        std::process::exit(2);
    });

    let lint = cli::lint_mode("--lint");
    if lint != LintMode::Off {
        let reports = vcad_campaign::lint_reports(&spec).unwrap_or_else(|e| {
            eprintln!("campaign spec rejected: {e}");
            std::process::exit(2);
        });
        let labels = spec
            .providers
            .iter()
            .map(|p| format!("{} ({})", p.host, p.offering));
        let deny = print_reports(lint, labels.zip(&reports));
        std::process::exit(i32::from(deny));
    }

    let checkpoint = cli::path_flag("--checkpoint")
        .unwrap_or_else(|| PathBuf::from(format!("target/campaign/{}.journal", spec.name)));
    let workers = cli::positive_flag("--workers").unwrap_or(4);

    let mut orchestrator = Orchestrator::new(spec.clone(), &checkpoint).with_workers(workers);
    if let Some(cap) = cli::positive_flag("--max-cells") {
        orchestrator = orchestrator.with_max_cells(cap);
    }

    let started = Instant::now();
    let outcome = orchestrator.run().unwrap_or_else(|e| {
        eprintln!("campaign failed: {e}");
        let status = match e {
            CampaignError::Spec(_) | CampaignError::ZeroWorkers => 2,
            CampaignError::Journal(_) => 1,
        };
        std::process::exit(status);
    });
    let wall = started.elapsed();

    println!(
        "campaign `{}`: executed {} cells, resumed {} from {} ({} torn bytes dropped), {:.2}s",
        spec.name,
        outcome.executed,
        outcome.resumed,
        checkpoint.display(),
        outcome.torn_bytes,
        wall.as_secs_f64(),
    );

    match outcome.report {
        Some(report) => {
            print!("\n{}", report.to_text());
            if let Some(path) = cli::path_flag("--json") {
                std::fs::write(&path, report.to_json()).expect("write report JSON");
                println!("\nreport written to {}", path.display());
            }
        }
        None => {
            println!("campaign interrupted before completion; rerun the same command to resume");
            std::process::exit(EXIT_INTERRUPTED);
        }
    }
}

/// The first positional argument, skipping every `--flag <operand>`
/// pair. `--lint` and `--flag=value` forms carry no separate operand.
fn spec_path_arg() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            if arg != "--lint" && !arg.contains('=') {
                drop(args.next());
            }
        } else {
            return Some(arg.into());
        }
    }
    None
}
