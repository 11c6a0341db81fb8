//! Executing one campaign cell: provider standup, deterministic chaos
//! stack, per-tier design construction, virtual fault simulation, and
//! the retry loop that turns a dead session into a typed terminal
//! [`CellOutcome::Failed`] instead of an aborted campaign.

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use vcad_core::stdlib::{NetlistBusBlock, PrimaryOutput, VectorInput};
use vcad_core::{Design, DesignBuilder, Module, ModuleId};
use vcad_faults::{
    DetectionTableSource, IpBlockBinding, SymbolicFault, VirtualFaultSim, VirtualSimError,
};
use vcad_ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad_logic::LogicVec;
use vcad_netlist::{GateKind, Netlist, NetlistBuilder};
use vcad_obs::Collector;
use vcad_prng::{splitmix64, Rng};
use vcad_rmi::{
    BreakerConfig, FaultConfig, FaultPlan, FaultyTransport, InProcTransport, ResilientTransport,
    RetryPolicy, RmiError, Transport, VirtualClock,
};

use crate::checkpoint::{CellOutcome, CellRecord};
use crate::spec::{registered_offering, CampaignSpec, CellSpec, ChaosProfile, EstimatorTier};

/// Why one attempt at a cell died. All variants are retriable — the
/// retry loop in [`run_cell`] re-derives the chaos schedule per attempt,
/// so a transient network disaster does not repeat identically.
#[derive(Clone, Debug)]
pub enum CellError {
    /// The session could not instantiate or download the component.
    Connect(String),
    /// The virtual fault simulation itself failed (typically a
    /// detection-table request that outlived the retry budget).
    Sim(VirtualSimError),
    /// The attempt panicked; the worker caught it and carries on.
    Panicked,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Connect(m) => write!(f, "session setup failed: {m}"),
            CellError::Sim(e) => write!(f, "virtual fault simulation failed: {e}"),
            CellError::Panicked => write!(f, "cell attempt panicked"),
        }
    }
}

impl Error for CellError {}

impl From<RmiError> for CellError {
    fn from(e: RmiError) -> CellError {
        CellError::Connect(e.to_string())
    }
}

impl From<VirtualSimError> for CellError {
    fn from(e: VirtualSimError) -> CellError {
        CellError::Sim(e)
    }
}

/// The fault-list view a cell hands to [`VirtualFaultSim`]: the
/// preflight-validated (model × range) subset, served locally.
///
/// [`RemoteDetectionSource`](vcad_ip::RemoteDetectionSource) deliberately
/// degrades a failed phase-1 call to an empty list; inside a campaign an
/// empty list would silently score a cell as 100% covered. Serving the
/// preflighted subset keeps phase 1 off the chaotic wire entirely — only
/// per-pattern detection tables (phase 2) cross it, and those fail loud.
struct FilteredSource {
    subset: Vec<SymbolicFault>,
    remote: Arc<dyn DetectionTableSource>,
}

impl DetectionTableSource for FilteredSource {
    fn fault_list(&self) -> Vec<SymbolicFault> {
        self.subset.clone()
    }

    fn detection_table(
        &self,
        inputs: &LogicVec,
    ) -> Result<vcad_faults::DetectionTable, VirtualSimError> {
        self.remote.detection_table(inputs)
    }
}

/// The per-attempt chaos schedule seed: mixes the cell's chaos seed with
/// the attempt ordinal so a retried cell faces fresh (still fully
/// deterministic) network weather.
#[must_use]
pub fn attempt_seed(chaos_seed: u64, attempt: u32) -> u64 {
    let mut s = chaos_seed ^ 0xC0FF_EE00u64.wrapping_add(u64::from(attempt));
    splitmix64(&mut s)
}

fn chaos_config(profile: ChaosProfile) -> FaultConfig {
    match profile {
        ChaosProfile::Off => FaultConfig::off(),
        ChaosProfile::Mild => FaultConfig::mild(),
        ChaosProfile::Heavy => FaultConfig::heavy(),
    }
}

/// The transport-level resilience budget inside one attempt. Backoff runs
/// on the attempt's virtual clock, so no wall time is spent sleeping.
fn retry_policy(profile: ChaosProfile) -> (RetryPolicy, BreakerConfig) {
    let policy = match profile {
        // A clean or mildly faulty link needs little patience.
        ChaosProfile::Off | ChaosProfile::Mild => RetryPolicy::default()
            .with_max_attempts(6)
            .with_deadline(Duration::from_secs(10))
            .with_backoff(Duration::from_millis(1), Duration::from_millis(20)),
        // Heavy chaos gets a budget that survives most bursts — but not
        // all: exhaustion surfaces as a failed attempt, which is the
        // campaign-level retry loop's job.
        ChaosProfile::Heavy => RetryPolicy::default()
            .with_max_attempts(10)
            .with_deadline(Duration::from_secs(30))
            .with_backoff(Duration::from_millis(1), Duration::from_millis(50)),
    };
    let breaker = BreakerConfig {
        failure_threshold: 16,
        cooldown: Duration::from_secs(5),
    };
    (policy, breaker)
}

/// Bitwise AND of two equal-width buses: the exact tier's masking glue.
fn and_mask(width: usize) -> Arc<Netlist> {
    let mut b = NetlistBuilder::new(format!("and_mask_{width}"));
    let p = b.input_bus("p", width);
    let g = b.input_bus("g", width);
    let o: Vec<_> = p
        .iter()
        .zip(&g)
        .map(|(&pi, &gi)| b.gate(GateKind::And, &[pi, gi]))
        .collect();
    b.output_bus("o", &o);
    Arc::new(b.build().expect("mask netlist is structurally valid"))
}

fn random_vec(rng: &mut Rng, width: usize) -> LogicVec {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    LogicVec::from_u64(width, rng.next_u64() & mask)
}

/// Builds the cell's design around the downloaded functional module.
///
/// * [`EstimatorTier::Optimistic`] observes every block output directly —
///   boundary observability, an upper bound on detection.
/// * [`EstimatorTier::Exact`] routes each block output through an AND
///   mask against a seeded random guard vector before observation, so
///   propagation masking suppresses part of the detections — the full
///   Figure 5 setting with surrounding logic.
///
/// Both tiers drive identical input patterns (the guard stream is drawn
/// from an independently derived seed), which is what makes the reported
/// tier deltas meaningful.
fn build_design(
    ip_module: Arc<dyn Module>,
    cell: &CellSpec,
    spec_seed: u64,
) -> Result<(Arc<Design>, ModuleId, Vec<ModuleId>), CellError> {
    let mut rng_in = Rng::seed_from_u64(cell.pattern_seed(spec_seed));
    let mut guard_state = cell.pattern_seed(spec_seed) ^ 0x6A5D_9CF3_1B2E_4D07;
    let mut rng_guard = Rng::seed_from_u64(splitmix64(&mut guard_state));

    let in_ports: Vec<(String, usize)> = ip_module
        .ports()
        .iter()
        .filter(|p| p.direction().accepts_input())
        .map(|p| (p.name().to_owned(), p.width()))
        .collect();
    let out_ports: Vec<(String, usize)> = ip_module
        .ports()
        .iter()
        .filter(|p| p.direction().produces_output())
        .map(|p| (p.name().to_owned(), p.width()))
        .collect();

    // Input patterns, drawn port-major then pattern-minor so the stream
    // depends only on the pattern seed and the interface.
    let mut input_vectors: Vec<Vec<LogicVec>> =
        vec![Vec::with_capacity(cell.budget); in_ports.len()];
    for _ in 0..cell.budget {
        for (pi, (_, w)) in in_ports.iter().enumerate() {
            input_vectors[pi].push(random_vec(&mut rng_in, *w));
        }
    }

    let mut b = DesignBuilder::new(format!("cell_{:016x}", cell.key as u64));
    let ip = b.add_module(ip_module);
    for ((name, _), vectors) in in_ports.iter().zip(input_vectors) {
        let src = b.add_module(Arc::new(VectorInput::new(format!("IN_{name}"), vectors)));
        b.connect(src, "out", ip, name)
            .map_err(|e| CellError::Connect(e.to_string()))?;
    }

    let mut outputs = Vec::with_capacity(out_ports.len());
    for (name, width) in &out_ports {
        let po = b.add_module(Arc::new(PrimaryOutput::new(format!("PO_{name}"), *width)));
        match cell.tier {
            EstimatorTier::Optimistic => {
                b.connect(ip, name, po, "in")
                    .map_err(|e| CellError::Connect(e.to_string()))?;
            }
            EstimatorTier::Exact => {
                let guards: Vec<LogicVec> = (0..cell.budget)
                    .map(|_| random_vec(&mut rng_guard, *width))
                    .collect();
                let guard = b.add_module(Arc::new(VectorInput::new(format!("G_{name}"), guards)));
                let mask = b.add_module(Arc::new(NetlistBusBlock::new(
                    format!("MASK_{name}"),
                    and_mask(*width),
                    &[("p", *width), ("g", *width)],
                    &[("o", *width)],
                )));
                b.connect(ip, name, mask, "p")
                    .map_err(|e| CellError::Connect(e.to_string()))?;
                b.connect(guard, "out", mask, "g")
                    .map_err(|e| CellError::Connect(e.to_string()))?;
                b.connect(mask, "o", po, "in")
                    .map_err(|e| CellError::Connect(e.to_string()))?;
            }
        }
        outputs.push(po);
    }

    let design = b.build().map_err(|e| CellError::Connect(e.to_string()))?;
    Ok((Arc::new(design), ip, outputs))
}

/// Everything one successful attempt produced.
struct AttemptResult {
    patterns: u64,
    total_faults: u64,
    detected: u64,
    injections: u64,
    tables_requested: u64,
    fee_cents: f64,
    retries: u64,
    chaos_injected: u64,
}

fn run_attempt(
    spec: &CampaignSpec,
    cell: &CellSpec,
    subset: &[SymbolicFault],
    offering: Option<&ComponentOffering>,
    attempt: u32,
) -> Result<AttemptResult, CellError> {
    // Counters only: the record reads two of them, and a disabled
    // collector still aggregates metrics without a trace ring.
    let obs = Collector::disabled();
    let clock = Arc::new(VirtualClock::new());

    // A server of its own per attempt, whatever it is offered: object
    // ids, the fee ledger and so the chaos schedule start fresh.
    let offering = match offering {
        Some(shared) => shared.clone(),
        None => registered_offering(&cell.provider.offering)
            .map_err(|e| CellError::Connect(e.to_string()))?,
    };
    let server = ProviderServer::new(&cell.provider.host);
    server.offer(offering);

    let (policy, breaker) = retry_policy(spec.chaos.profile);
    let inproc: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.dispatcher()));
    let faulty = Arc::new(
        FaultyTransport::new(
            inproc,
            FaultPlan::new(
                attempt_seed(cell.chaos_seed, attempt),
                chaos_config(spec.chaos.profile),
            ),
        )
        .with_clock(clock.clone())
        .with_collector(&obs),
    );
    let resilient = ResilientTransport::new(faulty, policy)
        .with_breaker(breaker)
        .with_clock(clock)
        .with_collector(&obs);
    let session = ClientSession::connect(Arc::new(resilient), server.host());

    let component = session.instantiate(&cell.provider.offering, cell.provider.width)?;
    let ip_module = component.functional_module("IP")?;
    let source = Arc::new(FilteredSource {
        subset: subset.to_vec(),
        remote: component.detection_source(),
    });

    let (design, ip, outputs) = build_design(ip_module, cell, spec.seed)?;
    let report =
        VirtualFaultSim::new(design, vec![IpBlockBinding { module: ip, source }], outputs)?
            .with_engine(cell.engine)
            .run()?;

    let snap = obs.metrics().snapshot();
    Ok(AttemptResult {
        patterns: report.patterns as u64,
        total_faults: report.blocks[0].total as u64,
        detected: report.blocks[0].detected.len() as u64,
        injections: report.injections as u64,
        tables_requested: report.tables_requested as u64,
        fee_cents: server.ledger().total_cents(),
        retries: snap.counter("rmi.retry.retries"),
        chaos_injected: snap.counter("rmi.chaos.injected.total"),
    })
}

/// Runs one cell to a terminal [`CellRecord`]: retried up to the
/// campaign's attempt budget, then recorded as
/// [`CellOutcome::Failed`] rather than aborting the campaign. Never
/// panics — a panicking attempt is caught and counts as a failed attempt.
///
/// This is the cold path: every attempt stands its provider up from a
/// fresh offering. [`Orchestrator`](crate::Orchestrator) runs its cells
/// on the offerings preflight stood up instead; the records are the same.
#[must_use]
pub fn run_cell(spec: &CampaignSpec, cell: &CellSpec, subset: &[SymbolicFault]) -> CellRecord {
    run_cell_on(spec, cell, subset, None)
}

/// [`run_cell`], each attempt's provider offering a clone of `offering`
/// when one is given, so the attempts share its characterisation.
pub(crate) fn run_cell_on(
    spec: &CampaignSpec,
    cell: &CellSpec,
    subset: &[SymbolicFault],
    offering: Option<&ComponentOffering>,
) -> CellRecord {
    let mut last_error = String::new();
    for attempt in 1..=spec.chaos.attempt_budget {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_attempt(spec, cell, subset, offering, attempt)
        }));
        match outcome {
            Ok(Ok(a)) => {
                return CellRecord {
                    key: cell.key,
                    outcome: CellOutcome::Completed,
                    attempts: attempt,
                    patterns: a.patterns,
                    total_faults: a.total_faults,
                    detected: a.detected,
                    injections: a.injections,
                    tables_requested: a.tables_requested,
                    fee_cents: a.fee_cents,
                    retries: a.retries,
                    chaos_injected: a.chaos_injected,
                }
            }
            Ok(Err(e)) => last_error = e.to_string(),
            Err(_) => last_error = CellError::Panicked.to_string(),
        }
    }
    CellRecord {
        key: cell.key,
        outcome: CellOutcome::Failed { error: last_error },
        attempts: spec.chaos.attempt_budget,
        patterns: 0,
        total_faults: subset.len() as u64,
        detected: 0,
        injections: 0,
        tables_requested: 0,
        fee_cents: 0.0,
        retries: 0,
        chaos_injected: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preflight::validate_against_providers;
    use crate::spec::tests_support::smoke_spec;

    #[test]
    fn cells_complete_on_a_clean_link() {
        let spec = smoke_spec();
        let audits = validate_against_providers(&spec).unwrap();
        let cells = spec.expand();
        let subset = audits[0].subset_for(&cells[0]);
        let record = run_cell(&spec, &cells[0], &subset);
        assert_eq!(record.outcome, CellOutcome::Completed);
        assert_eq!(record.attempts, 1);
        assert_eq!(record.total_faults, subset.len() as u64);
        assert!(record.detected <= record.total_faults);
        assert!(record.fee_cents > 0.0, "detection tables are chargeable");
    }

    #[test]
    fn cell_results_are_deterministic() {
        let spec = smoke_spec();
        let audits = validate_against_providers(&spec).unwrap();
        let cells = spec.expand();
        let subset = audits[0].subset_for(&cells[0]);
        let a = run_cell(&spec, &cells[0], &subset);
        let b = run_cell(&spec, &cells[0], &subset);
        assert_eq!(a, b);
    }

    #[test]
    fn cell_records_are_engine_invariant() {
        let event_spec = smoke_spec();
        let mut compiled_spec = smoke_spec();
        compiled_spec.engine = vcad_core::EngineKind::Compiled;
        let event_audits = validate_against_providers(&event_spec).unwrap();
        let compiled_audits = validate_against_providers(&compiled_spec).unwrap();
        let event_cells = event_spec.expand();
        let compiled_cells = compiled_spec.expand();
        for (ec, cc) in event_cells.iter().zip(&compiled_cells) {
            assert_ne!(ec.key, cc.key, "engine change must re-key the grid");
            let e = run_cell(&event_spec, ec, &event_audits[0].subset_for(ec));
            let c = run_cell(&compiled_spec, cc, &compiled_audits[0].subset_for(cc));
            // Everything but the content address — fees included — must
            // be bit-identical: the engine is a pure throughput knob.
            assert_eq!(
                (
                    e.outcome,
                    e.attempts,
                    e.patterns,
                    e.total_faults,
                    e.detected
                ),
                (
                    c.outcome,
                    c.attempts,
                    c.patterns,
                    c.total_faults,
                    c.detected
                )
            );
            assert_eq!(
                (
                    e.injections,
                    e.tables_requested,
                    e.retries,
                    e.chaos_injected
                ),
                (
                    c.injections,
                    c.tables_requested,
                    c.retries,
                    c.chaos_injected
                )
            );
            assert_eq!(e.fee_cents, c.fee_cents);
        }
    }

    #[test]
    fn optimistic_tier_detects_at_least_as_much_as_exact() {
        let spec = smoke_spec();
        let audits = validate_against_providers(&spec).unwrap();
        let cells = spec.expand();
        // SMOKE expands tiers innermost: even = exact, odd = optimistic.
        let exact = &cells[0];
        let optimistic = &cells[1];
        assert_eq!(exact.tier, EstimatorTier::Exact);
        assert_eq!(optimistic.tier, EstimatorTier::Optimistic);
        let r_exact = run_cell(&spec, exact, &audits[0].subset_for(exact));
        let r_opt = run_cell(&spec, optimistic, &audits[0].subset_for(optimistic));
        assert!(
            r_opt.detected >= r_exact.detected,
            "optimistic {} < exact {}",
            r_opt.detected,
            r_exact.detected
        );
    }
}
