//! The deterministic campaign report.
//!
//! Built *solely* from journalled [`CellRecord`]s mapped over the
//! expanded grid in grid order — never from execution-time state — so a
//! campaign resumed across any number of kills produces a report
//! byte-identical to an uninterrupted run. Wall-clock times, worker
//! counts and resume statistics deliberately never appear here; they go
//! to stdout, metrics and the bench baseline instead.

use std::collections::BTreeMap;

use vcad_obs::json;

use crate::checkpoint::{CellOutcome, CellRecord};
use crate::spec::{CampaignSpec, CellSpec, EstimatorTier};

/// One reported grid cell: the cell's coordinates joined with its
/// journalled result.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportRow {
    /// The cell's coordinates.
    pub cell: CellSpec,
    /// The journalled result.
    pub record: CellRecord,
}

/// Aggregate coverage for one (provider, tier) pair.
#[derive(Clone, Debug, PartialEq)]
pub struct TierCoverage {
    /// The provider host.
    pub provider: String,
    /// The estimator tier.
    pub tier: EstimatorTier,
    /// Completed cells aggregated.
    pub cells: u64,
    /// Summed fault-list sizes.
    pub total_faults: u64,
    /// Summed detections.
    pub detected: u64,
}

impl TierCoverage {
    /// Aggregate fault coverage in `[0, 1]`.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            0.0
        } else {
            self.detected as f64 / self.total_faults as f64
        }
    }
}

/// Detection deltas between the optimistic and exact estimator tiers,
/// per provider, over cell pairs that differ only in tier.
#[derive(Clone, Debug, PartialEq)]
pub struct TierDelta {
    /// The provider host.
    pub provider: String,
    /// Comparable (both tiers completed) cell pairs.
    pub pairs: u64,
    /// Summed `optimistic.detected - exact.detected` over the pairs.
    pub detection_delta: i64,
}

/// The complete campaign report. See the module docs for the determinism
/// contract.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// The spec's content digest.
    pub spec_digest: u128,
    /// One row per grid cell, in grid order.
    pub rows: Vec<ReportRow>,
    /// Per (provider, tier) aggregate coverage, in first-seen grid order.
    pub tiers: Vec<TierCoverage>,
    /// Per-provider optimistic-vs-exact deltas, in provider spec order.
    pub deltas: Vec<TierDelta>,
}

impl CampaignReport {
    /// Joins the expanded grid with its journalled records.
    ///
    /// # Panics
    ///
    /// Panics if a cell has no record — the orchestrator only builds the
    /// report once every cell is journalled.
    #[must_use]
    pub fn build(
        spec: &CampaignSpec,
        cells: &[CellSpec],
        records: &BTreeMap<u128, CellRecord>,
    ) -> CampaignReport {
        let rows: Vec<ReportRow> = cells
            .iter()
            .map(|cell| ReportRow {
                cell: cell.clone(),
                record: records
                    .get(&cell.key)
                    .unwrap_or_else(|| panic!("cell {} has no journalled record", cell.index))
                    .clone(),
            })
            .collect();

        let mut tiers: Vec<TierCoverage> = Vec::new();
        for row in &rows {
            if row.record.outcome != CellOutcome::Completed {
                continue;
            }
            let provider = &row.cell.provider.host;
            let tier = row.cell.tier;
            let entry = match tiers
                .iter_mut()
                .find(|t| &t.provider == provider && t.tier == tier)
            {
                Some(t) => t,
                None => {
                    tiers.push(TierCoverage {
                        provider: provider.clone(),
                        tier,
                        cells: 0,
                        total_faults: 0,
                        detected: 0,
                    });
                    tiers.last_mut().expect("just pushed")
                }
            };
            entry.cells += 1;
            entry.total_faults += row.record.total_faults;
            entry.detected += row.record.detected;
        }

        // Pair cells differing only in tier: group by every non-tier
        // coordinate — (host, model label, range start, range len,
        // budget, chaos seed) — then diff optimistic against exact.
        type PairKey = (String, String, usize, usize, usize, u64);
        let mut groups: BTreeMap<PairKey, [Option<u64>; 2]> = BTreeMap::new();
        for row in &rows {
            if row.record.outcome != CellOutcome::Completed {
                continue;
            }
            let k = (
                row.cell.provider.host.clone(),
                row.cell.model.label().to_owned(),
                row.cell.range.start,
                row.cell.range.len,
                row.cell.budget,
                row.cell.chaos_seed,
            );
            let slot = match row.cell.tier {
                EstimatorTier::Exact => 0,
                EstimatorTier::Optimistic => 1,
            };
            groups.entry(k).or_default()[slot] = Some(row.record.detected);
        }
        let deltas: Vec<TierDelta> = spec
            .providers
            .iter()
            .map(|p| {
                let mut pairs = 0u64;
                let mut delta = 0i64;
                for ((host, ..), slots) in &groups {
                    if host == &p.host {
                        if let [Some(exact), Some(optimistic)] = slots {
                            pairs += 1;
                            delta += *optimistic as i64 - *exact as i64;
                        }
                    }
                }
                TierDelta {
                    provider: p.host.clone(),
                    pairs,
                    detection_delta: delta,
                }
            })
            .collect();

        CampaignReport {
            name: spec.name.clone(),
            spec_digest: spec.digest(),
            rows,
            tiers,
            deltas,
        }
    }

    /// Completed cells.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.record.outcome == CellOutcome::Completed)
            .count() as u64
    }

    /// Cells recorded as terminally failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.rows.len() as u64 - self.completed()
    }

    /// Total provider fees over completed cells, in cents.
    #[must_use]
    pub fn total_fee_cents(&self) -> f64 {
        self.rows.iter().map(|r| r.record.fee_cents).sum()
    }

    /// Total transport-level retries the resilience layer performed.
    #[must_use]
    pub fn total_retries(&self) -> u64 {
        self.rows.iter().map(|r| r.record.retries).sum()
    }

    /// The canonical JSON rendering. Field order, number formatting and
    /// row order are all deterministic; two runs of the same spec produce
    /// byte-identical documents regardless of worker count, execution
    /// order or resume boundaries.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str(&format!(
            "{{\n  \"name\": {},\n  \"spec_digest\": \"{:032x}\",\n  \"cells\": {},\n  \
             \"completed\": {},\n  \"failed\": {},\n  \"fee_cents_bits\": \"{:016x}\",\n  \
             \"retries\": {},\n",
            json::quote(&self.name),
            self.spec_digest,
            self.rows.len(),
            self.completed(),
            self.failed(),
            self.total_fee_cents().to_bits(),
            self.total_retries(),
        ));
        s.push_str("  \"tiers\": [\n");
        for (i, t) in self.tiers.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"provider\": {}, \"tier\": \"{}\", \"cells\": {}, \"total_faults\": {}, \
                 \"detected\": {}, \"coverage_bits\": \"{:016x}\"}}{}\n",
                json::quote(&t.provider),
                t.tier.label(),
                t.cells,
                t.total_faults,
                t.detected,
                t.coverage().to_bits(),
                if i + 1 < self.tiers.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n  \"tier_deltas\": [\n");
        for (i, d) in self.deltas.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"provider\": {}, \"pairs\": {}, \"detection_delta\": {}}}{}\n",
                json::quote(&d.provider),
                d.pairs,
                d.detection_delta,
                if i + 1 < self.deltas.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let outcome = match &r.record.outcome {
                CellOutcome::Completed => "\"completed\"".to_owned(),
                CellOutcome::Failed { error } => {
                    format!("{{\"failed\": {}}}", json::quote(error))
                }
            };
            s.push_str(&format!(
                "    {{\"index\": {}, \"key\": \"{:032x}\", \"provider\": {}, \"model\": \"{}\", \
                 \"range\": [{}, {}], \"budget\": {}, \"chaos_seed\": {}, \"tier\": \"{}\", \
                 \"outcome\": {}, \"attempts\": {}, \"patterns\": {}, \"total_faults\": {}, \
                 \"detected\": {}, \"injections\": {}, \"tables_requested\": {}, \
                 \"fee_cents_bits\": \"{:016x}\", \"retries\": {}, \"chaos_injected\": {}}}{}\n",
                r.cell.index,
                r.cell.key,
                json::quote(&r.cell.provider.host),
                r.cell.model.label(),
                r.cell.range.start,
                r.cell.range.len,
                r.cell.budget,
                r.cell.chaos_seed,
                r.cell.tier.label(),
                outcome,
                r.record.attempts,
                r.record.patterns,
                r.record.total_faults,
                r.record.detected,
                r.record.injections,
                r.record.tables_requested,
                r.record.fee_cents.to_bits(),
                r.record.retries,
                r.record.chaos_injected,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// The human-readable rendering, equally deterministic.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str(&format!(
            "campaign `{}` — {} cells, {} completed, {} failed\n",
            self.name,
            self.rows.len(),
            self.completed(),
            self.failed(),
        ));
        s.push_str(&format!(
            "fees: {:.2} cents; transport retries: {}\n\n",
            self.total_fee_cents(),
            self.total_retries(),
        ));
        s.push_str("per-tier fault coverage:\n");
        for t in &self.tiers {
            s.push_str(&format!(
                "  {:<28} {:<10} {:>4} cells  {:>6}/{:<6} faults  {:6.2}%\n",
                t.provider,
                t.tier.label(),
                t.cells,
                t.detected,
                t.total_faults,
                t.coverage() * 100.0,
            ));
        }
        s.push_str("\noptimistic − exact detection deltas:\n");
        for d in &self.deltas {
            s.push_str(&format!(
                "  {:<28} {:>4} pairs  Δdetected = {:+}\n",
                d.provider, d.pairs, d.detection_delta,
            ));
        }
        let failures: Vec<&ReportRow> = self
            .rows
            .iter()
            .filter(|r| r.record.outcome != CellOutcome::Completed)
            .collect();
        if !failures.is_empty() {
            s.push_str("\nfailed cells:\n");
            for r in failures {
                if let CellOutcome::Failed { error } = &r.record.outcome {
                    s.push_str(&format!(
                        "  cell {} ({} {} {}+{} seed {}): {}\n",
                        r.cell.index,
                        r.cell.provider.host,
                        r.cell.model.label(),
                        r.cell.range.start,
                        r.cell.range.len,
                        r.cell.chaos_seed,
                        error,
                    ));
                }
            }
        }
        s
    }
}
