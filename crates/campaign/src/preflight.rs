//! Fault-list–dependent spec validation, run against live (in-process,
//! chaos-free) providers *before any worker starts*.
//!
//! [`CampaignSpec::parse`] already rejects everything knowable from the
//! document alone. This pass stands each provider up, fetches its
//! symbolic fault list over a clean link, and fails the campaign closed
//! when a location range reaches past the list, a (model × range)
//! intersection is empty — a cell that would vacuously report 100%
//! coverage — or the provider's fault metadata names a fault outside
//! the component's collapsed universe.
//!
//! Preflight also runs the static testability analysis
//! ([`vcad_faults::TestabilityAnalysis`]) once per provider. The audit
//! carries the statically untestable fault names and a per-fault SCOAP
//! difficulty score, which [`ProviderAudit::subset_for`] uses to prune
//! and order cell subsets when the spec's [`TestabilityMode`] asks for
//! it.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use vcad_faults::{
    DetectionTable, DetectionTableSource, FaultUniverse, SymbolicFault, TestabilityAnalysis,
    TestabilityReport,
};
use vcad_ip::{ClientSession, ComponentOffering, ProviderServer};
use vcad_logic::LogicVec;

use crate::spec::{
    registered_offering, CampaignSpec, CellSpec, ProviderSpec, SpecError, TestabilityMode,
};

/// One provider's validated fault-list view, shared by every cell that
/// targets it.
#[derive(Clone, Debug)]
pub struct ProviderAudit {
    /// The audited provider.
    pub provider: ProviderSpec,
    /// The provider's full symbolic fault list, sorted lexicographically —
    /// the stable coordinate system location ranges index into.
    pub faults: Vec<SymbolicFault>,
    /// Statically untestable fault names (collapsed-class
    /// representatives whose whole class is proven untestable).
    pub untestable: BTreeSet<SymbolicFault>,
    /// Per-fault SCOAP difficulty estimate, by representative name.
    pub scores: BTreeMap<SymbolicFault, u32>,
    /// The offering preflight stood up. The orchestrator offers it to
    /// every cell attempt, so they share its characterisation and the
    /// detection tables it remembers.
    pub(crate) offering: ComponentOffering,
}

impl ProviderAudit {
    /// The (model × range) fault subset one cell targets. Preflight has
    /// already proven the range in bounds and the subset non-empty.
    ///
    /// Pruning and ordering are applied *after* the range slice: the
    /// full sorted fault list stays the coordinate system location
    /// ranges index into, so turning testability on never shifts which
    /// sites a range refers to — it only drops the provably dead ones.
    #[must_use]
    pub fn subset_for(&self, cell: &CellSpec) -> Vec<SymbolicFault> {
        let mut subset: Vec<SymbolicFault> = self.faults
            [cell.range.start..cell.range.start + cell.range.len]
            .iter()
            .filter(|f| cell.model.matches(f.as_str()))
            .filter(|f| !cell.testability.prunes() || !self.untestable.contains(*f))
            .cloned()
            .collect();
        if cell.testability == TestabilityMode::HardestFirst {
            subset.sort_by(|a, b| {
                let sa = self.scores.get(a).copied().unwrap_or(0);
                let sb = self.scores.get(b).copied().unwrap_or(0);
                sb.cmp(&sa).then_with(|| a.cmp(b))
            });
        }
        subset
    }
}

/// Validates the spec against its providers' published fault lists; on
/// success returns one audit per provider, in spec order.
///
/// # Errors
///
/// Returns [`SpecError::InvalidField`] for a host listed twice (the host
/// names the provider: cells find their audit by it),
/// [`SpecError::ProviderUnavailable`],
/// [`SpecError::LocationOutOfRange`], [`SpecError::EmptyCellUniverse`] or
/// [`SpecError::FaultModelLint`] — all before any cell executes.
pub fn validate_against_providers(spec: &CampaignSpec) -> Result<Vec<ProviderAudit>, SpecError> {
    let mut hosts = HashSet::with_capacity(spec.providers.len());
    if let Some(repeated) = spec.providers.iter().find(|p| !hosts.insert(&p.host)) {
        return Err(SpecError::InvalidField {
            field: "providers",
            why: format!("host `{}` is listed twice", repeated.host),
        });
    }
    let mut audits = Vec::with_capacity(spec.providers.len());
    for provider in &spec.providers {
        let unavailable = |why: String| SpecError::ProviderUnavailable {
            provider: provider.host.clone(),
            why,
        };
        let offering = registered_offering(&provider.offering)?;
        let netlist = offering.instantiate(provider.width);
        let in_bits = netlist.input_count();
        let server = ProviderServer::new(&provider.host);
        server.offer(offering.clone());
        let session =
            ClientSession::connect_in_process(&server).map_err(|e| unavailable(e.to_string()))?;
        let component = session
            .instantiate(&provider.offering, provider.width)
            .map_err(|e| unavailable(e.to_string()))?;
        let source = component.detection_source();

        let mut faults = source.fault_list();
        faults.sort();
        if faults.is_empty() {
            return Err(unavailable("provider published an empty fault list".into()));
        }

        // The provider's metadata must name only real faults: an unknown
        // fault name means every coverage number downstream would be
        // garbage (a table too narrow for its fault-free response never
        // decodes). The baseline is the component's full collapsed fault
        // universe — detection tables legitimately name boundary
        // (input-pin) classes the published fault list omits, because
        // per the paper those belong to the surrounding design, not the
        // provider.
        let analysis = TestabilityAnalysis::analyze(&netlist);
        let mut collapsed = FaultUniverse::collapsed(&netlist);
        collapsed.apply_testability(&netlist, &analysis);
        let mut untestable = BTreeSet::new();
        let mut scores = BTreeMap::new();
        let mut known: HashSet<SymbolicFault> = HashSet::with_capacity(collapsed.class_count());
        for class in collapsed.classes() {
            let name = class.representative.name(&netlist);
            scores.insert(
                name.clone(),
                analysis.fault_score(&netlist, &class.representative),
            );
            if !class.is_testable() {
                untestable.insert(name.clone());
            }
            known.insert(name);
        }
        if let Some(foreign) = faults.iter().find(|f| !known.contains(f)) {
            return Err(SpecError::FaultModelLint {
                provider: provider.host.clone(),
                diagnostics: format!(
                    "published fault `{}` is not in the component's collapsed universe",
                    foreign.as_str()
                ),
            });
        }
        let table = source
            .detection_table(&LogicVec::zeros(in_bits))
            .map_err(|e| unavailable(e.to_string()))?;
        check_detection_rows(provider, &table, &known)?;

        for range in &spec.location_ranges {
            if range.start + range.len > faults.len() {
                return Err(SpecError::LocationOutOfRange {
                    provider: provider.host.clone(),
                    start: range.start,
                    len: range.len,
                    total: faults.len(),
                });
            }
            for &model in &spec.fault_models {
                // A subset emptied by pruning fails closed too: such a
                // cell would vacuously report 100% coverage.
                let slice = &faults[range.start..range.start + range.len];
                let alive = |f: &SymbolicFault| {
                    model.matches(f.as_str())
                        && (!spec.testability.prunes() || !untestable.contains(f))
                };
                if !slice.iter().any(alive) {
                    return Err(SpecError::EmptyCellUniverse {
                        provider: provider.host.clone(),
                        model: model.label().to_owned(),
                        start: range.start,
                        len: range.len,
                    });
                }
            }
        }

        audits.push(ProviderAudit {
            provider: provider.clone(),
            faults,
            untestable,
            scores,
            offering,
        });
    }
    Ok(audits)
}

/// Refuses a detection table that names a fault outside `known`, one
/// line per offending entry.
fn check_detection_rows(
    provider: &ProviderSpec,
    table: &DetectionTable,
    known: &HashSet<SymbolicFault>,
) -> Result<(), SpecError> {
    let unknown: Vec<String> = table
        .rows()
        .iter()
        .enumerate()
        .flat_map(|(row, (_, faults))| {
            faults.iter().filter(|f| !known.contains(*f)).map(move |f| {
                format!(
                    "deny: [faults/unknown-fault] {}: detection row {row} names fault `{}` \
                     which is not in the fault list",
                    provider.offering,
                    f.as_str()
                )
            })
        })
        .collect();
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(SpecError::FaultModelLint {
            provider: provider.host.clone(),
            diagnostics: unknown.join("\n"),
        })
    }
}

/// One testability report per provider, in spec order: the component
/// netlists scored by [`TestabilityReport`]. This is what the campaign
/// binary's `--lint` flag prints before a run.
///
/// # Errors
///
/// Returns [`SpecError::UnknownOffering`] when a provider names an
/// unregistered offering.
pub fn lint_reports(spec: &CampaignSpec) -> Result<Vec<TestabilityReport>, SpecError> {
    let mut out = Vec::with_capacity(spec.providers.len());
    for provider in &spec.providers {
        let offering = registered_offering(&provider.offering)?;
        let netlist = offering.instantiate(provider.width);
        out.push(TestabilityReport::analyze(&netlist, 10));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests_support::smoke_spec;
    use crate::spec::LocationRange;

    #[test]
    fn audits_every_provider_with_sorted_fault_lists() {
        let spec = smoke_spec();
        let audits = validate_against_providers(&spec).unwrap();
        assert_eq!(audits.len(), 1);
        let faults = &audits[0].faults;
        assert!(!faults.is_empty());
        assert!(faults.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    /// Two offerings on one host: the host is the provider's identity,
    /// and a cell of the second would be paired with the first's audit
    /// (its fault subset, its offering), so the spec fails closed.
    #[test]
    fn a_host_listed_twice_fails_closed() {
        let mut spec = smoke_spec();
        spec.providers = vec![
            ProviderSpec {
                host: "mult.example.com".into(),
                offering: "MultFastLowPower".into(),
                width: 4,
            },
            ProviderSpec {
                host: "mult.example.com".into(),
                offering: "AdderRipple".into(),
                width: 8,
            },
        ];
        assert!(matches!(
            validate_against_providers(&spec),
            Err(SpecError::InvalidField { field: "providers", why })
                if why.contains("`mult.example.com`")
        ));
        spec.providers[1].host = "adder.example.com".into();
        assert_eq!(validate_against_providers(&spec).unwrap().len(), 2);
    }

    #[test]
    fn out_of_range_locations_fail_closed() {
        let mut spec = smoke_spec();
        spec.location_ranges = vec![LocationRange {
            start: 0,
            len: 100_000,
        }];
        assert!(matches!(
            validate_against_providers(&spec),
            Err(SpecError::LocationOutOfRange { total, .. }) if total > 0
        ));
    }

    /// The planted-untestable demo spec, validated with the full fault
    /// list in range under `mode`.
    fn demo_spec(mode: TestabilityMode) -> (CampaignSpec, Vec<ProviderAudit>) {
        let mut spec = smoke_spec();
        spec.providers[0].offering = "UntestableDemo".into();
        spec.location_ranges = vec![LocationRange { start: 0, len: 1 }];
        let probe = validate_against_providers(&spec).unwrap();
        spec.location_ranges = vec![LocationRange {
            start: 0,
            len: probe[0].faults.len(),
        }];
        spec.testability = mode;
        let audits = validate_against_providers(&spec).unwrap();
        (spec, audits)
    }

    #[test]
    fn pruned_subsets_drop_exactly_the_untestable_faults() {
        let (off_spec, off_audits) = demo_spec(TestabilityMode::Off);
        let (prune_spec, prune_audits) = demo_spec(TestabilityMode::Prune);
        assert!(!prune_audits[0].untestable.is_empty(), "demo plants some");

        let off_cell = &off_spec.expand()[0];
        let prune_cell = &prune_spec.expand()[0];
        let full = off_audits[0].subset_for(off_cell);
        let pruned = prune_audits[0].subset_for(prune_cell);

        let expected: Vec<SymbolicFault> = full
            .iter()
            .filter(|f| !prune_audits[0].untestable.contains(*f))
            .cloned()
            .collect();
        assert_eq!(pruned, expected);
        assert!(pruned.len() < full.len());
    }

    #[test]
    fn hardest_first_orders_by_descending_score() {
        let (spec, audits) = demo_spec(TestabilityMode::HardestFirst);
        let cell = &spec.expand()[0];
        let subset = audits[0].subset_for(cell);
        assert!(!subset.is_empty());
        assert!(subset.iter().all(|f| !audits[0].untestable.contains(f)));
        let scores: Vec<u32> = subset
            .iter()
            .map(|f| audits[0].scores.get(f).copied().unwrap_or(0))
            .collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{scores:?}");

        // Same set as plain pruning, different order.
        let (pspec, paudits) = demo_spec(TestabilityMode::Prune);
        let mut pruned = paudits[0].subset_for(&pspec.expand()[0]);
        let mut sorted_subset = subset;
        pruned.sort();
        sorted_subset.sort();
        assert_eq!(sorted_subset, pruned);
    }

    #[test]
    fn ranges_holding_only_untestable_faults_fail_closed_when_pruning() {
        let (mut spec, audits) = demo_spec(TestabilityMode::Prune);
        let dead = audits[0]
            .untestable
            .iter()
            .next()
            .expect("demo plants some")
            .clone();
        let idx = audits[0].faults.iter().position(|f| *f == dead).unwrap();
        spec.location_ranges = vec![LocationRange { start: idx, len: 1 }];
        assert!(matches!(
            validate_against_providers(&spec),
            Err(SpecError::EmptyCellUniverse { .. })
        ));
        // The same range is a valid (if pointless) cell without pruning.
        spec.testability = TestabilityMode::Off;
        assert!(validate_against_providers(&spec).is_ok());
    }

    #[test]
    fn lint_reports_cover_every_provider() {
        let (spec, _) = demo_spec(TestabilityMode::Off);
        let reports = lint_reports(&spec).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(
            !reports[0].unobservable_nets().is_empty(),
            "demo plants untestable sites"
        );
    }

    /// A one-row table over two input bits and a one-bit response, in
    /// the wire form (the only way to name arbitrary faults).
    fn table_naming(fault: &str) -> DetectionTable {
        let bits = |s: &str| vcad_rmi::Value::Vec(s.parse().unwrap());
        DetectionTable::from_value(&vcad_rmi::Value::Map(vec![
            ("inputs".into(), bits("00")),
            ("fault_free".into(), bits("0")),
            (
                "rows".into(),
                vcad_rmi::Value::List(vec![vcad_rmi::Value::Map(vec![
                    ("output".into(), bits("1")),
                    (
                        "faults".into(),
                        vcad_rmi::Value::List(vec![vcad_rmi::Value::Str(fault.into())]),
                    ),
                ])]),
            ),
        ]))
        .unwrap()
    }

    #[test]
    fn detection_rows_inside_the_universe_pass() {
        let provider = &smoke_spec().providers[0];
        let known = HashSet::from([SymbolicFault("a-sa0".into())]);
        assert!(check_detection_rows(provider, &table_naming("a-sa0"), &known).is_ok());
    }

    #[test]
    fn a_detection_row_naming_an_unknown_fault_fails_closed() {
        let provider = &smoke_spec().providers[0];
        let known = HashSet::from([SymbolicFault("a-sa0".into())]);
        let Err(SpecError::FaultModelLint { diagnostics, .. }) =
            check_detection_rows(provider, &table_naming("ghost"), &known)
        else {
            panic!("unknown fault accepted");
        };
        assert_eq!(
            diagnostics,
            format!(
                "deny: [faults/unknown-fault] {}: detection row 0 names fault `ghost` \
                 which is not in the fault list",
                provider.offering
            )
        );
    }

    #[test]
    fn empty_model_range_intersections_fail_closed() {
        let mut spec = smoke_spec();
        // Single-polarity model over a single fault location: whichever
        // polarity the first sorted fault is, the other model's universe
        // over this range is empty.
        spec.location_ranges = vec![LocationRange { start: 0, len: 1 }];
        spec.fault_models = vec![
            crate::spec::FaultModel::StuckAt0,
            crate::spec::FaultModel::StuckAt1,
        ];
        assert!(matches!(
            validate_against_providers(&spec),
            Err(SpecError::EmptyCellUniverse { .. })
        ));
    }
}
