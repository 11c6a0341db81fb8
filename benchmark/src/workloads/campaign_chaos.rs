//! `campaign_chaos` — the batch user's end-to-end number: a
//! fault-injection campaign under heavy link chaos, run to a journalled
//! report by `Orchestrator` with two workers.
//!
//! The only workload where `campaign` (expansion, preflight, CRC journal
//! with an fsync per cell), `FaultyTransport` and `ResilientTransport`
//! retries under injected faults carry load. The transport is in-process,
//! so this is a second bypass for socket and mux changes. Closed loop;
//! the orchestrator's two workers are the only concurrency.

use std::path::{Path, PathBuf};
use std::time::Instant;

use vcad_campaign::cell::run_cell;
use vcad_campaign::{
    validate_against_providers, CampaignSpec, CellOutcome, Journal, Orchestrator, ProviderAudit,
};

use crate::harness::{latency_summary, median_setup, run_rounds, stream, Args, Outcome};
use crate::stats;
use crate::sys;
use crate::trace::TraceCtx;

const WORKERS: usize = 2;
/// Chaos seeds per campaign: 2 providers x 2 models x 2 ranges x 1
/// budget x 2 tiers = 16 cells per seed.
const ROUND_SEEDS: usize = 1;
const CELLS_PER_SEED: usize = 16;
/// The traced run calls `run_cell` directly on every n-th cell.
const CELL_SAMPLE_STRIDE: usize = 16;

/// The campaign document, exactly as a user would write it. Pattern
/// seed and chaos seeds come from the run's seed.
fn spec_json(seed: u64, chaos_seeds: usize) -> String {
    let mut rng = stream(seed, "campaign_chaos.spec");
    let pattern_seed = rng.next_u64() >> 12;
    let seeds: Vec<String> = (0..chaos_seeds)
        .map(|_| (rng.next_u64() >> 12).to_string())
        .collect();
    format!(
        r#"{{
  "name": "benchmark-heavy-chaos",
  "seed": {pattern_seed},
  "providers": [
    {{"host": "mult.example.com", "offering": "MultFastLowPower", "width": 6}},
    {{"host": "adder.example.com", "offering": "AdderRipple", "width": 16}}
  ],
  "fault_models": ["both", "sa0"],
  "location_ranges": [{{"start": 0, "len": 200}}, {{"start": 100, "len": 200}}],
  "pattern_budgets": [32],
  "chaos": {{"profile": "heavy", "seeds": [{}], "attempt_budget": 4}},
  "estimator_tiers": ["exact", "optimistic"]
}}"#,
        seeds.join(", ")
    )
}

struct Rig {
    spec: CampaignSpec,
    audits: Vec<ProviderAudit>,
    cells: usize,
    preflight_ms: f64,
}

/// Parse, expand, preflight.
fn build_rig(seed: u64, chaos_seeds: usize) -> Rig {
    let spec = CampaignSpec::parse(&spec_json(seed, chaos_seeds)).expect("generated spec parses");
    let cells = spec.expand().len();
    assert_eq!(cells, chaos_seeds * CELLS_PER_SEED, "grid size");
    let started = Instant::now();
    let audits = validate_against_providers(&spec).expect("preflight accepts the spec");
    let preflight_ms = started.elapsed().as_secs_f64() * 1e3;
    Rig {
        spec,
        audits,
        cells,
        preflight_ms,
    }
}

fn journal_path(out: &Path, tag: &str) -> PathBuf {
    out.join(format!("campaign-{}-{tag}.vcampjnl", std::process::id()))
}

struct Campaign {
    secs: f64,
    report_json: String,
    retries: u64,
    fees_cents: f64,
    failed: u64,
    journal_bytes: u64,
}

/// One `Orchestrator::run` on a fresh journal, checked: every cell
/// executed and completed.
fn campaign(rig: &Rig, journal: &Path) -> Result<Campaign, String> {
    let _ = std::fs::remove_file(journal);
    let orchestrator = Orchestrator::new(rig.spec.clone(), journal).with_workers(WORKERS);
    let started = Instant::now();
    let outcome = orchestrator.run();
    let secs = started.elapsed().as_secs_f64();
    let journal_bytes = std::fs::metadata(journal).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(journal);
    let outcome = outcome.map_err(|e| e.to_string())?;
    if outcome.executed != rig.cells as u64 || outcome.resumed != 0 {
        return Err(format!(
            "{} cells executed, {} resumed, of {}",
            outcome.executed, outcome.resumed, rig.cells
        ));
    }
    let report = outcome.report.ok_or("campaign ended without a report")?;
    if report.completed() + report.failed() != rig.cells as u64 {
        return Err(format!(
            "report covers {} cells",
            report.completed() + report.failed()
        ));
    }
    Ok(Campaign {
        secs,
        report_json: report.to_json(),
        retries: report.total_retries(),
        fees_cents: report.total_fee_cents(),
        failed: report.failed(),
        journal_bytes,
    })
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let (rig, setup_s) = median_setup(args, || build_rig(args.seed, ROUND_SEEDS));
    std::fs::create_dir_all(&args.out).expect("create scratch directory");
    let journal = journal_path(&args.out, "window");

    let mut reference: Option<String> = None;
    match campaign(&rig, &journal) {
        Ok(warm) => reference = Some(warm.report_json),
        Err(e) => out.violations.push(format!("warm-up: {e}")),
    }
    let mut round_us = Vec::new();
    let mut cells_failed = 0u64;
    let log = run_rounds(args.seconds, |round| {
        let started = Instant::now();
        match campaign(&rig, &journal) {
            Ok(done) => {
                cells_failed += done.failed;
                // Same spec, fresh journal: the report must not move.
                if reference.as_deref() != Some(done.report_json.as_str()) {
                    out.violations.push(format!(
                        "round {round}: report differs from the first run's"
                    ));
                }
                round_us.push(done.secs * 1e6);
                (rig.cells as f64, done.secs)
            }
            Err(e) => {
                cells_failed += rig.cells as u64;
                out.violations.push(format!("round {round}: {e}"));
                (rig.cells as f64, started.elapsed().as_secs_f64())
            }
        }
    });
    out.check(cells_failed == 0, || format!("{cells_failed} cells failed"));
    let (p50, p75, how) = latency_summary(round_us);
    out.notes.push(format!(
        "{} campaigns of {} cells on {WORKERS} workers; latency is one `Orchestrator::run`, \
         upper is {how}",
        log.rounds(),
        rig.cells
    ));
    out.attempted = log.total_work() as u64;
    out.failed = cells_failed;
    out.set_end_to_end(setup_s, log.rate_per_s(), (p50, p75));
    out
}

fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // A quarter of the untraced window's cells, in one campaign.
    let seeds = ((args.seconds * 0.25 * 45.0 / CELLS_PER_SEED as f64).round() as usize).max(1);
    let rig = build_rig(args.seed, seeds);
    std::fs::create_dir_all(&args.out).expect("create scratch directory");
    let trace = TraceCtx::with_capacity(1 << 10);

    let journal = journal_path(&args.out, "traced");
    let window = Instant::now();
    let scope = trace.enter("campaign.run");
    let first = campaign(&rig, &journal);
    trace.exit(scope);
    let wall_s = window.elapsed().as_secs_f64();
    out.attempted = rig.cells as u64;
    let Ok(first) = first.map_err(|e| out.violations.push(e)) else {
        return out;
    };
    out.failed = first.failed;
    out.check(first.failed == 0, || {
        format!("{} cells failed", first.failed)
    });
    out.digests.push((
        "campaign_report",
        crate::harness::digest(first.report_json.as_bytes()),
    ));
    // Determinism: a second run of the same spec reports byte-identically.
    match campaign(&rig, &journal) {
        Ok(second) => out.check(second.report_json == first.report_json, || {
            "second campaign's report differs from the first's".to_owned()
        }),
        Err(e) => out.violations.push(format!("second campaign: {e}")),
    }

    // `campaign.cell`: `run_cell` called directly, single thread.
    let cells = rig.spec.expand();
    let scope = trace.enter("cells.direct");
    let mut cell_ms = Vec::new();
    let mut records = Vec::new();
    for cell in cells.iter().step_by(CELL_SAMPLE_STRIDE) {
        let audit = rig
            .audits
            .iter()
            .find(|a| a.provider.host == cell.provider.host)
            .expect("every provider was audited");
        let subset = audit.subset_for(cell);
        let cell_scope = trace.enter("campaign.cell");
        let started = Instant::now();
        let record = run_cell(&rig.spec, cell, &subset);
        cell_ms.push(started.elapsed().as_secs_f64() * 1e3);
        trace.exit(cell_scope);
        out.check(record.outcome == CellOutcome::Completed, || {
            format!("direct cell {} did not complete", cell.index)
        });
        records.push(record);
    }
    trace.exit(scope);

    // `campaign.journal.append`: append + fsync on a scratch journal.
    let scratch = journal_path(&args.out, "append");
    let _ = std::fs::remove_file(&scratch);
    let mut append_us = Vec::new();
    match Journal::open(&scratch, rig.spec.digest()) {
        Ok((mut journal, _)) => {
            let scope = trace.enter("journal.appends");
            for record in records.iter().cycle().take(64) {
                let started = Instant::now();
                if let Err(e) = journal.append(record) {
                    out.violations.push(format!("journal append: {e}"));
                    break;
                }
                append_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
            trace.exit(scope);
        }
        Err(e) => out.violations.push(format!("scratch journal: {e}")),
    }
    let _ = std::fs::remove_file(&scratch);

    crate::write_trace(args, &[("campaign_chaos", trace.tracer.spans())], &mut out);

    out.set("rmi.retry.retries", first.retries as f64);
    out.set("campaign.cells", rig.cells as f64);
    out.set("campaign.failed", first.failed as f64);
    out.set("campaign.fees_cents", first.fees_cents);
    out.set("campaign.journal.bytes", first.journal_bytes as f64);
    out.set("campaign.preflight_ms", rig.preflight_ms);
    out.set("campaign.cell.p50_ms", stats::median(&mut cell_ms));
    if !append_us.is_empty() {
        out.set("campaign.journal.append_us", stats::median(&mut append_us));
    }
    out.set("bench.wall_s", wall_s);
    out.set("bench.samples", rig.cells as f64);
    out.set("bench.nproc", sys::nproc() as f64);
    out.notes.push(format!(
        "{:.1} cells/s in the traced campaign ({} cells, {:.3} s in `Orchestrator::run`)",
        rig.cells as f64 / first.secs,
        rig.cells,
        first.secs
    ));
    out
}
