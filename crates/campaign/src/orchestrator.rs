//! The campaign orchestrator: preflight, journal replay, a bounded
//! worker pool, and append-in-completion-order checkpointing.
//!
//! The orchestrator owns the only mutable campaign state — the journal —
//! and keeps it on the main thread: workers compute [`CellRecord`]s and
//! send them back over a channel, so a kill at any instant loses at most
//! the cells in flight, never a partially written frame (the journal
//! fsyncs per append and tolerates torn tails on replay).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

use vcad_faults::SymbolicFault;
use vcad_ip::ComponentOffering;
use vcad_obs::Collector;

use crate::cell::run_cell_on;
use crate::checkpoint::{CellOutcome, CellRecord, Journal, JournalError};
use crate::preflight::validate_against_providers;
use crate::report::CampaignReport;
use crate::spec::{CampaignSpec, CellSpec, SpecError};

/// Why a campaign could not run. Everything here fails closed before any
/// worker starts; once workers run, per-cell trouble becomes journalled
/// [`CellOutcome::Failed`] records instead of errors.
#[derive(Debug)]
pub enum CampaignError {
    /// The spec failed document- or provider-level validation.
    Spec(SpecError),
    /// The checkpoint journal could not be opened or appended to.
    Journal(JournalError),
    /// A worker pool of zero workers can make no progress.
    ZeroWorkers,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "campaign spec rejected: {e}"),
            CampaignError::Journal(e) => write!(f, "campaign checkpoint failed: {e}"),
            CampaignError::ZeroWorkers => write!(f, "campaign needs at least one worker"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Spec(e) => Some(e),
            CampaignError::Journal(e) => Some(e),
            CampaignError::ZeroWorkers => None,
        }
    }
}

impl From<SpecError> for CampaignError {
    fn from(e: SpecError) -> CampaignError {
        CampaignError::Spec(e)
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> CampaignError {
        CampaignError::Journal(e)
    }
}

/// What one orchestrator run did. The deterministic campaign result
/// lives in `report`; the remaining fields describe *this process's*
/// share of the work and so legitimately vary across resume boundaries.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The full campaign report — `Some` only once every grid cell has a
    /// journalled terminal record.
    pub report: Option<CampaignReport>,
    /// Cells this run executed (as opposed to replayed).
    pub executed: u64,
    /// Cells recovered from the checkpoint journal.
    pub resumed: u64,
    /// Whether a `max_cells` cap stopped the run before the grid was
    /// exhausted.
    pub interrupted: bool,
    /// Torn bytes the journal replay truncated from a killed predecessor.
    pub torn_bytes: u64,
}

/// Runs a [`CampaignSpec`] to a checkpointed, resumable completion.
pub struct Orchestrator {
    spec: CampaignSpec,
    checkpoint: PathBuf,
    workers: usize,
    max_cells: Option<usize>,
    obs: Collector,
}

impl Orchestrator {
    /// A new orchestrator journalling to `checkpoint`.
    #[must_use]
    pub fn new(spec: CampaignSpec, checkpoint: impl Into<PathBuf>) -> Orchestrator {
        Orchestrator {
            spec,
            checkpoint: checkpoint.into(),
            workers: 4,
            max_cells: None,
            obs: Collector::disabled(),
        }
    }

    /// Sets the worker pool size (default 4).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Orchestrator {
        self.workers = workers;
        self
    }

    /// Caps how many cells this run may execute before stopping with
    /// `interrupted = true` — deterministic mid-campaign interruption,
    /// used by the resume tests and the CI gate.
    #[must_use]
    pub fn with_max_cells(mut self, max_cells: usize) -> Orchestrator {
        self.max_cells = Some(max_cells);
        self
    }

    /// Attaches an observability collector for `campaign.*` metrics and
    /// the run span.
    #[must_use]
    pub fn with_collector(mut self, obs: &Collector) -> Orchestrator {
        self.obs = obs.clone();
        self
    }

    /// Validates, replays the checkpoint, executes incomplete cells on
    /// the worker pool, and reports.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] when preflight rejects the spec,
    /// [`CampaignError::Journal`] when the checkpoint cannot be opened or
    /// appended, [`CampaignError::ZeroWorkers`] for an empty pool.
    pub fn run(&self) -> Result<CampaignOutcome, CampaignError> {
        if self.workers == 0 {
            return Err(CampaignError::ZeroWorkers);
        }
        let _span = self.obs.span("campaign", "campaign.run");

        let audits = validate_against_providers(&self.spec)?;
        let cells = self.spec.expand();
        let (mut journal, replay) = Journal::open(&self.checkpoint, self.spec.digest())?;

        let mut records: BTreeMap<u128, CellRecord> = BTreeMap::new();
        for record in replay.records {
            records.insert(record.key, record);
        }
        let resumed = cells
            .iter()
            .filter(|c| records.contains_key(&c.key))
            .count() as u64;

        // Pending work in grid order, each cell paired with its
        // preflight-validated fault subset and the offering preflight
        // stood up: every attempt at every cell of one provider shares
        // its characterisation, so each detection table is simulated
        // once per run. Preflight refused repeated hosts, so the host
        // finds the cell's own provider.
        let pending: Vec<(CellSpec, Vec<SymbolicFault>, &ComponentOffering)> = cells
            .iter()
            .filter(|c| !records.contains_key(&c.key))
            .map(|c| {
                let audit = audits
                    .iter()
                    .find(|a| a.provider.host == c.provider.host)
                    .expect("expansion only references audited providers");
                (c.clone(), audit.subset_for(c), &audit.offering)
            })
            .collect();
        let to_run = self
            .max_cells
            .map_or(pending.len(), |cap| cap.min(pending.len()));
        let interrupted = to_run < pending.len();

        let mut executed = 0u64;
        let mut append_error: Option<JournalError> = None;
        if to_run > 0 {
            let (job_tx, job_rx) = mpsc::channel::<usize>();
            let job_rx = Arc::new(Mutex::new(job_rx));
            let (result_tx, result_rx) = mpsc::channel::<CellRecord>();
            let spec = &self.spec;
            let pending = &pending;
            thread::scope(|scope| {
                for _ in 0..self.workers.min(to_run) {
                    let job_rx = Arc::clone(&job_rx);
                    let result_tx = result_tx.clone();
                    scope.spawn(move || loop {
                        let job = job_rx.lock().expect("job queue lock").recv();
                        let Ok(index) = job else { break };
                        let (cell, subset, offering) = &pending[index];
                        let record = run_cell_on(spec, cell, subset, Some(offering));
                        if result_tx.send(record).is_err() {
                            break;
                        }
                    });
                }
                drop(result_tx);
                for index in 0..to_run {
                    job_tx.send(index).expect("workers outlive the job queue");
                }
                drop(job_tx);

                // Journal appends happen here, on the scope's owning
                // thread, in completion order: the checkpoint is valid
                // after every single append.
                for record in result_rx {
                    if let Err(e) = journal.append(&record) {
                        append_error = Some(e);
                        break;
                    }
                    executed += 1;
                    self.observe(&record);
                    records.insert(record.key, record);
                }
            });
        }
        if let Some(e) = append_error {
            return Err(CampaignError::Journal(e));
        }

        let metrics = self.obs.metrics();
        metrics
            .counter("campaign.cells.total")
            .add(cells.len() as u64);
        metrics.counter("campaign.cells.resumed").add(resumed);
        metrics.counter("campaign.cells.executed").add(executed);

        let report = if cells.iter().all(|c| records.contains_key(&c.key)) {
            Some(CampaignReport::build(&self.spec, &cells, &records))
        } else {
            None
        };
        Ok(CampaignOutcome {
            report,
            executed,
            resumed,
            interrupted,
            torn_bytes: replay.torn_bytes,
        })
    }

    fn observe(&self, record: &CellRecord) {
        let metrics = self.obs.metrics();
        match &record.outcome {
            CellOutcome::Completed => metrics.counter("campaign.cells.completed").add(1),
            CellOutcome::Failed { .. } => metrics.counter("campaign.cells.failed").add(1),
        }
        metrics
            .counter("campaign.cell.attempts")
            .add(u64::from(record.attempts));
        metrics.counter("campaign.rmi.retries").add(record.retries);
        metrics
            .counter("campaign.chaos.injected")
            .add(record.chaos_injected);
        self.obs.event("campaign", "campaign.cell.journalled");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests_support::smoke_spec;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("vcad-campaign-orch-{}-{tag}", std::process::id()));
        p.push("journal.vcampjnl");
        p
    }

    fn cleanup(path: &std::path::Path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn runs_a_campaign_to_a_full_report() {
        let path = temp_path("full");
        cleanup(&path);
        let outcome = Orchestrator::new(smoke_spec(), &path)
            .with_workers(3)
            .run()
            .unwrap();
        assert_eq!(outcome.executed, 4);
        assert_eq!(outcome.resumed, 0);
        assert!(!outcome.interrupted);
        let report = outcome.report.expect("all cells journalled");
        assert_eq!(report.completed(), 4);
        assert_eq!(report.failed(), 0);

        // A rerun replays everything and recomputes nothing.
        let again = Orchestrator::new(smoke_spec(), &path).run().unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.resumed, 4);
        assert_eq!(
            again.report.expect("still complete").to_json(),
            report.to_json(),
            "replayed report is byte-identical"
        );
        cleanup(&path);
    }

    #[test]
    fn max_cells_interrupts_and_resume_completes_identically() {
        let clean_path = temp_path("clean");
        let staged_path = temp_path("staged");
        cleanup(&clean_path);
        cleanup(&staged_path);

        let clean = Orchestrator::new(smoke_spec(), &clean_path)
            .run()
            .unwrap()
            .report
            .expect("complete");

        let first = Orchestrator::new(smoke_spec(), &staged_path)
            .with_max_cells(1)
            .run()
            .unwrap();
        assert!(first.interrupted);
        assert_eq!(first.executed, 1);
        assert!(
            first.report.is_none(),
            "incomplete campaigns have no report"
        );

        let second = Orchestrator::new(smoke_spec(), &staged_path).run().unwrap();
        assert!(!second.interrupted);
        assert_eq!(second.resumed, 1);
        assert_eq!(second.executed, 3);
        assert_eq!(
            second.report.expect("complete").to_json(),
            clean.to_json(),
            "resumed report is byte-identical to the uninterrupted run"
        );
        cleanup(&clean_path);
        cleanup(&staged_path);
    }

    /// The orchestrator runs its cells on the offerings preflight stood
    /// up, sharing their characterisations and remembered tables; every
    /// record must equal the cold `run_cell`'s, attempts, retries, chaos
    /// draws and fees included.
    #[test]
    fn shared_offering_cells_equal_cold_cells() {
        let path = temp_path("shared");
        cleanup(&path);
        let spec = CampaignSpec::parse(include_str!("../../../examples/specs/campaign_ci.json"))
            .expect("CI spec parses");
        let report = Orchestrator::new(spec.clone(), &path)
            .with_workers(2)
            .run()
            .unwrap()
            .report
            .expect("complete");
        let audits = validate_against_providers(&spec).unwrap();
        assert_eq!(report.rows.len(), spec.expand().len());
        for row in &report.rows {
            let audit = audits
                .iter()
                .find(|a| a.provider.host == row.cell.provider.host)
                .unwrap();
            let cold = crate::cell::run_cell(&spec, &row.cell, &audit.subset_for(&row.cell));
            assert_eq!(row.record, cold, "cell {}", row.cell.index);
        }
        cleanup(&path);
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let path = temp_path("zero");
        let err = Orchestrator::new(smoke_spec(), &path)
            .with_workers(0)
            .run()
            .expect_err("must fail");
        assert!(matches!(err, CampaignError::ZeroWorkers));
    }
}
