//! Campaign specifications: the hand-written JSON file describing a
//! sweep, its typed validation, and the deterministic expansion into a
//! grid of content-addressed cells.
//!
//! A spec is six orthogonal dimensions — providers × fault models ×
//! location ranges × pattern budgets × chaos seeds × estimator tiers —
//! plus campaign-level knobs (base pattern seed, chaos profile, attempt
//! budget). Every cell's *content address* hashes the complete spec plus
//! the cell's own coordinates, so rerunning the same spec reuses
//! journalled results while changing any field at all produces a disjoint
//! key set (edits never silently inherit stale results).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use vcad_core::EngineKind;
use vcad_ip::{ComponentOffering, ModelAvailability, PriceList};
use vcad_obs::json::{self, JsonValue};
use vcad_rmi::hash::CanonicalHasher;

/// Version tag mixed into every cell key; bump when cell semantics (not
/// just the spec grammar) change incompatibly.
///
/// v2: the gate-evaluation `engine` knob joined the digest, so journals
/// written before the compiled engine existed are never silently reused.
///
/// v3: the `testability` knob joined the digest — a pruned campaign
/// visits different fault subsets, so its journals must never satisfy
/// an unpruned spec (or vice versa).
pub const KEY_FORMAT_VERSION: u64 = 3;

/// A typed campaign-spec failure. Every variant is raised *before* any
/// worker starts: a malformed spec fails the campaign closed.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The file was not syntactically valid JSON.
    Parse(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but malformed.
    InvalidField {
        /// Which field.
        field: &'static str,
        /// Why it was rejected.
        why: String,
    },
    /// A grid dimension is empty — the campaign would be zero cells.
    EmptyDimension(&'static str),
    /// A provider names an offering this client library cannot stand up.
    UnknownOffering(String),
    /// A provider could not be stood up or audited during preflight.
    ProviderUnavailable {
        /// The offending provider host.
        provider: String,
        /// What failed.
        why: String,
    },
    /// A pattern budget of zero patterns can never detect anything.
    ZeroPatternBudget,
    /// The per-cell attempt budget must allow at least one attempt.
    ZeroAttemptBudget,
    /// A location range reaches past the provider's published fault list.
    LocationOutOfRange {
        /// The offending provider host.
        provider: String,
        /// Range start index.
        start: usize,
        /// Range length.
        len: usize,
        /// The provider's fault-list length.
        total: usize,
    },
    /// A (model × range) intersection selects no faults for a provider —
    /// the cell would vacuously report 100% coverage.
    EmptyCellUniverse {
        /// The offending provider host.
        provider: String,
        /// The fault-model label.
        model: String,
        /// Range start index.
        start: usize,
        /// Range length.
        len: usize,
    },
    /// The provider's fault metadata names a fault outside the
    /// component's collapsed universe.
    FaultModelLint {
        /// The offending provider host.
        provider: String,
        /// Rendered Deny diagnostics.
        diagnostics: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(m) => write!(f, "spec is not valid JSON: {m}"),
            SpecError::MissingField(field) => write!(f, "spec field `{field}` is missing"),
            SpecError::InvalidField { field, why } => {
                write!(f, "spec field `{field}` is invalid: {why}")
            }
            SpecError::EmptyDimension(d) => {
                write!(f, "spec dimension `{d}` is empty; the grid has no cells")
            }
            SpecError::UnknownOffering(name) => {
                write!(f, "unknown offering `{name}`; no registered generator")
            }
            SpecError::ProviderUnavailable { provider, why } => {
                write!(f, "provider `{provider}` failed preflight: {why}")
            }
            SpecError::ZeroPatternBudget => write!(f, "pattern budgets must be positive"),
            SpecError::ZeroAttemptBudget => write!(f, "the attempt budget must be positive"),
            SpecError::LocationOutOfRange {
                provider,
                start,
                len,
                total,
            } => write!(
                f,
                "location range {start}+{len} exceeds {provider}'s fault list ({total} faults)"
            ),
            SpecError::EmptyCellUniverse {
                provider,
                model,
                start,
                len,
            } => write!(
                f,
                "model `{model}` over range {start}+{len} selects no faults on {provider}"
            ),
            SpecError::FaultModelLint {
                provider,
                diagnostics,
            } => write!(f, "{provider}'s fault metadata failed lint:\n{diagnostics}"),
        }
    }
}

impl Error for SpecError {}

/// Which stuck-at polarities a cell targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Stuck-at-0 faults only.
    StuckAt0,
    /// Stuck-at-1 faults only.
    StuckAt1,
    /// Both polarities.
    Both,
}

impl FaultModel {
    /// The spec-file label (`sa0` / `sa1` / `both`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultModel::StuckAt0 => "sa0",
            FaultModel::StuckAt1 => "sa1",
            FaultModel::Both => "both",
        }
    }

    fn parse(s: &str) -> Option<FaultModel> {
        match s {
            "sa0" => Some(FaultModel::StuckAt0),
            "sa1" => Some(FaultModel::StuckAt1),
            "both" => Some(FaultModel::Both),
            _ => None,
        }
    }

    /// Whether a symbolic fault name (conventionally suffixed `/sa0` or
    /// `/sa1`) belongs to this model.
    #[must_use]
    pub fn matches(self, symbolic: &str) -> bool {
        match self {
            FaultModel::StuckAt0 => symbolic.ends_with("sa0"),
            FaultModel::StuckAt1 => symbolic.ends_with("sa1"),
            FaultModel::Both => true,
        }
    }
}

/// The detection estimator tier a cell runs under.
///
/// Tiers trade fidelity for simulation cost, exactly like the paper's
/// power-estimator tiers: the *exact* tier propagates every candidate
/// erroneous configuration through the surrounding design to the observed
/// primary outputs, while the *optimistic* tier observes the IP block's
/// boundary directly — an upper bound that skips propagation masking.
/// The campaign report quantifies the detection delta between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EstimatorTier {
    /// Full propagation to primary outputs behind masking glue logic.
    Exact,
    /// Block-boundary observability: every exposable fault counts.
    Optimistic,
}

impl EstimatorTier {
    /// The spec-file label (`exact` / `optimistic`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EstimatorTier::Exact => "exact",
            EstimatorTier::Optimistic => "optimistic",
        }
    }

    fn parse(s: &str) -> Option<EstimatorTier> {
        match s {
            "exact" => Some(EstimatorTier::Exact),
            "optimistic" => Some(EstimatorTier::Optimistic),
            _ => None,
        }
    }
}

/// The chaos intensity every cell's provider link runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChaosProfile {
    /// Fault-free links.
    Off,
    /// Occasional drops/corruption (`FaultConfig::mild`).
    Mild,
    /// Hostile links (`FaultConfig::heavy`).
    Heavy,
}

impl ChaosProfile {
    /// The spec-file label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ChaosProfile::Off => "off",
            ChaosProfile::Mild => "mild",
            ChaosProfile::Heavy => "heavy",
        }
    }

    fn parse(s: &str) -> Option<ChaosProfile> {
        match s {
            "off" => Some(ChaosProfile::Off),
            "mild" => Some(ChaosProfile::Mild),
            "heavy" => Some(ChaosProfile::Heavy),
            _ => None,
        }
    }
}

/// How the campaign uses static testability analysis
/// (`vcad_faults::TestabilityAnalysis`) when carving per-cell fault
/// subsets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TestabilityMode {
    /// No analysis: cells target every fault in their range slice.
    #[default]
    Off,
    /// Statically-proven untestable faults are pruned from every cell's
    /// subset. Sound: an untestable fault simulates to the fault-free
    /// output under every pattern, so detected sets are unchanged.
    Prune,
    /// Prune, then order each cell's subset hardest-first by SCOAP
    /// fault score so scarce pattern budgets hit the difficult sites.
    HardestFirst,
}

impl TestabilityMode {
    /// The spec-file label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TestabilityMode::Off => "off",
            TestabilityMode::Prune => "prune",
            TestabilityMode::HardestFirst => "prune-hardest-first",
        }
    }

    fn parse(s: &str) -> Option<TestabilityMode> {
        match s {
            "off" => Some(TestabilityMode::Off),
            "prune" => Some(TestabilityMode::Prune),
            "prune-hardest-first" => Some(TestabilityMode::HardestFirst),
            _ => None,
        }
    }

    /// True when untestable faults are excluded from cell subsets.
    #[must_use]
    pub fn prunes(self) -> bool {
        !matches!(self, TestabilityMode::Off)
    }
}

/// One IP provider in the sweep.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProviderSpec {
    /// Display host name (also the provider's identity in reports).
    pub host: String,
    /// The catalog offering to instantiate.
    pub offering: String,
    /// Component bit width.
    pub width: usize,
}

/// A contiguous slice of the provider's (sorted) symbolic fault list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LocationRange {
    /// First fault index.
    pub start: usize,
    /// Number of fault indices covered.
    pub len: usize,
}

/// Chaos settings shared by every cell.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSpec {
    /// Link-fault intensity.
    pub profile: ChaosProfile,
    /// One grid dimension: each seed is a distinct deterministic fault
    /// schedule.
    pub seeds: Vec<u64>,
    /// How many times a cell whose session dies is retried before it is
    /// recorded as [`CellOutcome::Failed`](crate::CellOutcome::Failed).
    pub attempt_budget: u32,
}

/// A parsed, validated campaign description.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (reports, journal header).
    pub name: String,
    /// Base seed for the per-cell random test patterns.
    pub seed: u64,
    /// Provider dimension.
    pub providers: Vec<ProviderSpec>,
    /// Fault-model dimension.
    pub fault_models: Vec<FaultModel>,
    /// Location-range dimension.
    pub location_ranges: Vec<LocationRange>,
    /// Pattern-budget dimension.
    pub pattern_budgets: Vec<usize>,
    /// Chaos profile, seeds (a dimension) and the retry budget.
    pub chaos: ChaosSpec,
    /// Estimator-tier dimension.
    pub estimator_tiers: Vec<EstimatorTier>,
    /// Gate-evaluation backend every cell runs on. Optional in the spec
    /// file (`"engine": "event" | "compiled"`, default `event`); both
    /// backends produce bit-identical records, so this is a throughput
    /// knob — but it still feeds the digest, keeping journals honest.
    pub engine: EngineKind,
    /// Static-testability handling. Optional in the spec file
    /// (`"testability": "off" | "prune" | "prune-hardest-first"`,
    /// default `off`). Pruning changes which faults a cell visits, so
    /// the mode feeds the digest.
    pub testability: TestabilityMode,
}

/// One cell of the expanded grid: a single self-contained
/// `VirtualFaultSim` run.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Position in the deterministic grid order.
    pub index: usize,
    /// The provider evaluated.
    pub provider: ProviderSpec,
    /// Targeted polarities.
    pub model: FaultModel,
    /// Targeted slice of the fault list.
    pub range: LocationRange,
    /// Number of random test patterns applied.
    pub budget: usize,
    /// Chaos seed for this cell's link.
    pub chaos_seed: u64,
    /// Detection estimator tier.
    pub tier: EstimatorTier,
    /// Gate-evaluation backend, copied from the campaign level.
    pub engine: EngineKind,
    /// Static-testability handling, copied from the campaign level.
    pub testability: TestabilityMode,
    /// Content address: a pure function of the whole spec plus this
    /// cell's coordinates. See [`CampaignSpec::expand`].
    pub key: u128,
}

impl CellSpec {
    /// Seed for this cell's random test patterns. Deliberately *excludes*
    /// model, range, tier and chaos seed so that cells differing only in
    /// those dimensions simulate identical pattern sequences — that is
    /// what makes tier deltas and chaos-invariance comparisons
    /// meaningful.
    #[must_use]
    pub fn pattern_seed(&self, spec_seed: u64) -> u64 {
        let mut h = CanonicalHasher::new();
        h.write_str("campaign.patterns");
        h.write_u64(spec_seed);
        h.write_str(&self.provider.host);
        h.write_str(&self.provider.offering);
        h.write_u64(self.provider.width as u64);
        h.write_u64(self.budget as u64);
        h.finish() as u64
    }
}

/// Looks up the registered generator for an offering name.
///
/// The campaign stands its providers up in-process, so the set of
/// instantiable offerings is the client library's registry — an unknown
/// name fails closed at validation time.
///
/// # Errors
///
/// Returns [`SpecError::UnknownOffering`] for names without a generator.
pub fn registered_offering(name: &str) -> Result<ComponentOffering, SpecError> {
    match name {
        "MultFastLowPower" => Ok(ComponentOffering::fast_low_power_multiplier()),
        "MultBaselineArray" => Ok(ComponentOffering::baseline_multiplier()),
        "AdderRipple" => Ok(ComponentOffering::new(
            "AdderRipple",
            |w| std::sync::Arc::new(vcad_netlist::generators::ripple_adder(w)),
            ModelAvailability::full(),
            PriceList::default(),
        )
        .with_public_behavior("word-adder")),
        "UntestableDemo" => Ok(ComponentOffering::new(
            "UntestableDemo",
            |w| std::sync::Arc::new(vcad_netlist::generators::untestable_demo(w)),
            ModelAvailability::full(),
            PriceList::default(),
        )
        .with_public_behavior("untestable-demo")),
        other => Err(SpecError::UnknownOffering(other.to_owned())),
    }
}

fn str_field(obj: &BTreeMap<String, JsonValue>, field: &'static str) -> Result<String, SpecError> {
    obj.get(field)
        .ok_or(SpecError::MissingField(field))?
        .as_str()
        .map(str::to_owned)
        .ok_or(SpecError::InvalidField {
            field,
            why: "expected a string".into(),
        })
}

fn u64_field(obj: &BTreeMap<String, JsonValue>, field: &'static str) -> Result<u64, SpecError> {
    obj.get(field)
        .ok_or(SpecError::MissingField(field))?
        .as_u64()
        .ok_or(SpecError::InvalidField {
            field,
            why: "expected a non-negative integer".into(),
        })
}

fn array_field<'a>(
    obj: &'a BTreeMap<String, JsonValue>,
    field: &'static str,
) -> Result<&'a [JsonValue], SpecError> {
    obj.get(field)
        .ok_or(SpecError::MissingField(field))?
        .as_array()
        .ok_or(SpecError::InvalidField {
            field,
            why: "expected an array".into(),
        })
}

impl CampaignSpec {
    /// Parses and structurally validates a spec document.
    ///
    /// Structural validation covers everything knowable without touching
    /// a provider: JSON shape, enum labels, non-empty dimensions,
    /// positive budgets. Fault-list–dependent checks (range bounds,
    /// empty cell universes, metadata lint) happen in
    /// [`validate_against_providers`](crate::preflight::validate_against_providers).
    ///
    /// # Errors
    ///
    /// Returns a typed [`SpecError`] naming the first offending field.
    pub fn parse(text: &str) -> Result<CampaignSpec, SpecError> {
        let doc = json::parse(text).map_err(|e| SpecError::Parse(e.to_string()))?;
        let obj = doc.as_object().ok_or(SpecError::Parse(
            "top-level value must be an object".to_owned(),
        ))?;

        let name = str_field(obj, "name")?;
        let seed = u64_field(obj, "seed")?;

        let mut providers = Vec::new();
        for p in array_field(obj, "providers")? {
            let p = p.as_object().ok_or(SpecError::InvalidField {
                field: "providers",
                why: "each provider must be an object".into(),
            })?;
            let width = u64_field(p, "width")? as usize;
            if width == 0 {
                return Err(SpecError::InvalidField {
                    field: "providers",
                    why: "width must be positive".into(),
                });
            }
            if width > 16 {
                return Err(SpecError::InvalidField {
                    field: "providers",
                    why: format!("width {width} exceeds the campaign maximum of 16 bits"),
                });
            }
            providers.push(ProviderSpec {
                host: str_field(p, "host")?,
                offering: str_field(p, "offering")?,
                width,
            });
        }

        let mut fault_models = Vec::new();
        for m in array_field(obj, "fault_models")? {
            let label = m.as_str().ok_or(SpecError::InvalidField {
                field: "fault_models",
                why: "each model must be a string".into(),
            })?;
            fault_models.push(FaultModel::parse(label).ok_or(SpecError::InvalidField {
                field: "fault_models",
                why: format!("unknown model `{label}` (expected sa0 | sa1 | both)"),
            })?);
        }

        let mut location_ranges = Vec::new();
        for r in array_field(obj, "location_ranges")? {
            let r = r.as_object().ok_or(SpecError::InvalidField {
                field: "location_ranges",
                why: "each range must be an object".into(),
            })?;
            let range = LocationRange {
                start: u64_field(r, "start")? as usize,
                len: u64_field(r, "len")? as usize,
            };
            if range.len == 0 {
                return Err(SpecError::InvalidField {
                    field: "location_ranges",
                    why: "len must be positive".into(),
                });
            }
            location_ranges.push(range);
        }

        let mut pattern_budgets = Vec::new();
        for b in array_field(obj, "pattern_budgets")? {
            let b = b.as_u64().ok_or(SpecError::InvalidField {
                field: "pattern_budgets",
                why: "each budget must be a non-negative integer".into(),
            })? as usize;
            if b == 0 {
                return Err(SpecError::ZeroPatternBudget);
            }
            pattern_budgets.push(b);
        }

        let chaos_obj = obj
            .get("chaos")
            .ok_or(SpecError::MissingField("chaos"))?
            .as_object()
            .ok_or(SpecError::InvalidField {
                field: "chaos",
                why: "expected an object".into(),
            })?;
        let profile_label = str_field(chaos_obj, "profile")?;
        let profile = ChaosProfile::parse(&profile_label).ok_or(SpecError::InvalidField {
            field: "chaos",
            why: format!("unknown profile `{profile_label}` (expected off | mild | heavy)"),
        })?;
        let mut seeds = Vec::new();
        for s in array_field(chaos_obj, "seeds")? {
            seeds.push(s.as_u64().ok_or(SpecError::InvalidField {
                field: "chaos",
                why: "each seed must be a non-negative integer".into(),
            })?);
        }
        let attempt_budget =
            u32::try_from(u64_field(chaos_obj, "attempt_budget")?).map_err(|_| {
                SpecError::InvalidField {
                    field: "attempt_budget",
                    why: format!("at most {} attempts", u32::MAX),
                }
            })?;
        if attempt_budget == 0 {
            return Err(SpecError::ZeroAttemptBudget);
        }

        let mut estimator_tiers = Vec::new();
        for t in array_field(obj, "estimator_tiers")? {
            let label = t.as_str().ok_or(SpecError::InvalidField {
                field: "estimator_tiers",
                why: "each tier must be a string".into(),
            })?;
            estimator_tiers.push(EstimatorTier::parse(label).ok_or(SpecError::InvalidField {
                field: "estimator_tiers",
                why: format!("unknown tier `{label}` (expected exact | optimistic)"),
            })?);
        }

        let engine = match obj.get("engine") {
            None => EngineKind::default(),
            Some(v) => {
                let label = v.as_str().ok_or(SpecError::InvalidField {
                    field: "engine",
                    why: "expected a string".into(),
                })?;
                EngineKind::parse(label).ok_or(SpecError::InvalidField {
                    field: "engine",
                    why: format!("unknown engine `{label}` (expected event | compiled)"),
                })?
            }
        };

        let testability = match obj.get("testability") {
            None => TestabilityMode::default(),
            Some(v) => {
                let label = v.as_str().ok_or(SpecError::InvalidField {
                    field: "testability",
                    why: "expected a string".into(),
                })?;
                TestabilityMode::parse(label).ok_or(SpecError::InvalidField {
                    field: "testability",
                    why: format!(
                        "unknown testability mode `{label}` \
                         (expected off | prune | prune-hardest-first)"
                    ),
                })?
            }
        };

        let spec = CampaignSpec {
            name,
            seed,
            providers,
            fault_models,
            location_ranges,
            pattern_budgets,
            chaos: ChaosSpec {
                profile,
                seeds,
                attempt_budget,
            },
            estimator_tiers,
            engine,
            testability,
        };
        spec.check_dimensions()?;
        for p in &spec.providers {
            registered_offering(&p.offering)?;
        }
        Ok(spec)
    }

    fn check_dimensions(&self) -> Result<(), SpecError> {
        let dims: [(&'static str, bool); 6] = [
            ("providers", self.providers.is_empty()),
            ("fault_models", self.fault_models.is_empty()),
            ("location_ranges", self.location_ranges.is_empty()),
            ("pattern_budgets", self.pattern_budgets.is_empty()),
            ("chaos.seeds", self.chaos.seeds.is_empty()),
            ("estimator_tiers", self.estimator_tiers.is_empty()),
        ];
        for (name, empty) in dims {
            if empty {
                return Err(SpecError::EmptyDimension(name));
            }
        }
        Ok(())
    }

    /// The canonical content digest of the whole spec. Hashed into every
    /// cell key, so *any* spec edit yields a disjoint key set.
    #[must_use]
    pub fn digest(&self) -> u128 {
        let mut h = CanonicalHasher::new();
        h.write_u64(KEY_FORMAT_VERSION);
        h.write_str(&self.name);
        h.write_u64(self.seed);
        h.write_u64(self.providers.len() as u64);
        for p in &self.providers {
            h.write_str(&p.host);
            h.write_str(&p.offering);
            h.write_u64(p.width as u64);
        }
        h.write_u64(self.fault_models.len() as u64);
        for m in &self.fault_models {
            h.write_str(m.label());
        }
        h.write_u64(self.location_ranges.len() as u64);
        for r in &self.location_ranges {
            h.write_u64(r.start as u64);
            h.write_u64(r.len as u64);
        }
        h.write_u64(self.pattern_budgets.len() as u64);
        for &b in &self.pattern_budgets {
            h.write_u64(b as u64);
        }
        h.write_str(self.chaos.profile.label());
        h.write_u64(self.chaos.seeds.len() as u64);
        for &s in &self.chaos.seeds {
            h.write_u64(s);
        }
        h.write_u64(u64::from(self.chaos.attempt_budget));
        h.write_u64(self.estimator_tiers.len() as u64);
        for t in &self.estimator_tiers {
            h.write_str(t.label());
        }
        h.write_str(self.engine.label());
        h.write_str(self.testability.label());
        h.finish()
    }

    /// Expands the spec into its cell grid, in deterministic nested order
    /// (providers outermost, estimator tiers innermost).
    ///
    /// Cell keys are content addresses: `hash(spec digest, provider,
    /// model, range, budget, chaos seed, tier)`. They are independent of
    /// worker count, execution order and resume boundaries by
    /// construction — nothing execution-dependent is hashed.
    #[must_use]
    pub fn expand(&self) -> Vec<CellSpec> {
        let digest = self.digest();
        let mut cells = Vec::new();
        for provider in &self.providers {
            for &model in &self.fault_models {
                for &range in &self.location_ranges {
                    for &budget in &self.pattern_budgets {
                        for &chaos_seed in &self.chaos.seeds {
                            for &tier in &self.estimator_tiers {
                                let mut h = CanonicalHasher::new();
                                h.write_str("campaign.cell");
                                h.write_raw(&digest.to_le_bytes());
                                h.write_str(&provider.host);
                                h.write_str(&provider.offering);
                                h.write_u64(provider.width as u64);
                                h.write_str(model.label());
                                h.write_u64(range.start as u64);
                                h.write_u64(range.len as u64);
                                h.write_u64(budget as u64);
                                h.write_u64(chaos_seed);
                                h.write_str(tier.label());
                                cells.push(CellSpec {
                                    index: cells.len(),
                                    provider: provider.clone(),
                                    model,
                                    range,
                                    budget,
                                    chaos_seed,
                                    tier,
                                    engine: self.engine,
                                    testability: self.testability,
                                    key: h.finish(),
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::CampaignSpec;

    /// A 4-cell chaos-free fixture over one small multiplier provider.
    pub(crate) const SMOKE: &str = r#"{
        "name": "smoke",
        "seed": 7,
        "providers": [
            {"host": "alpha.example.com", "offering": "MultFastLowPower", "width": 2}
        ],
        "fault_models": ["both"],
        "location_ranges": [{"start": 0, "len": 8}],
        "pattern_budgets": [3],
        "chaos": {"profile": "off", "seeds": [1, 2], "attempt_budget": 2},
        "estimator_tiers": ["exact", "optimistic"]
    }"#;

    /// The parsed [`SMOKE`] fixture.
    pub(crate) fn smoke_spec() -> CampaignSpec {
        CampaignSpec::parse(SMOKE).expect("smoke fixture parses")
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::SMOKE;
    use super::*;

    #[test]
    fn parses_and_expands_deterministically() {
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4); // 1×1×1×1×2 seeds×2 tiers
        let keys: std::collections::HashSet<u128> = a.iter().map(|c| c.key).collect();
        assert_eq!(keys.len(), a.len(), "cell keys must be unique");
    }

    #[test]
    fn any_field_change_is_a_disjoint_key_set() {
        let base = CampaignSpec::parse(SMOKE).unwrap();
        let base_keys: std::collections::HashSet<u128> =
            base.expand().iter().map(|c| c.key).collect();
        let mut edited = base.clone();
        edited.seed = 8;
        let edited_keys: std::collections::HashSet<u128> =
            edited.expand().iter().map(|c| c.key).collect();
        assert!(base_keys.is_disjoint(&edited_keys));
    }

    #[test]
    fn typed_errors_for_malformed_specs() {
        assert!(matches!(
            CampaignSpec::parse("not json"),
            Err(SpecError::Parse(_))
        ));
        assert_eq!(
            CampaignSpec::parse(r#"{"seed": 1}"#),
            Err(SpecError::MissingField("name"))
        );
        let empty_models = SMOKE.replace(r#"["both"]"#, "[]");
        assert_eq!(
            CampaignSpec::parse(&empty_models),
            Err(SpecError::EmptyDimension("fault_models"))
        );
        let zero_budget = SMOKE.replace("\"pattern_budgets\": [3]", "\"pattern_budgets\": [0]");
        assert_eq!(
            CampaignSpec::parse(&zero_budget),
            Err(SpecError::ZeroPatternBudget)
        );
        let bad_offering = SMOKE.replace("MultFastLowPower", "Nonexistent");
        assert!(matches!(
            CampaignSpec::parse(&bad_offering),
            Err(SpecError::UnknownOffering(_))
        ));
        let zero_attempts = SMOKE.replace("\"attempt_budget\": 2", "\"attempt_budget\": 0");
        assert_eq!(
            CampaignSpec::parse(&zero_attempts),
            Err(SpecError::ZeroAttemptBudget)
        );
        for budget in ["4294967296", "4294967297"] {
            let huge = SMOKE.replace(
                "\"attempt_budget\": 2",
                &format!("\"attempt_budget\": {budget}"),
            );
            assert!(matches!(
                CampaignSpec::parse(&huge),
                Err(SpecError::InvalidField {
                    field: "attempt_budget",
                    ..
                })
            ));
        }
    }

    #[test]
    fn engine_defaults_to_event_and_parses_labels() {
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        assert_eq!(spec.engine, EngineKind::Event);
        assert!(spec.expand().iter().all(|c| c.engine == EngineKind::Event));

        let compiled = SMOKE.replace("\"seed\": 7,", "\"seed\": 7, \"engine\": \"compiled\",");
        let spec = CampaignSpec::parse(&compiled).unwrap();
        assert_eq!(spec.engine, EngineKind::Compiled);
        assert!(spec
            .expand()
            .iter()
            .all(|c| c.engine == EngineKind::Compiled));

        let unknown = SMOKE.replace("\"seed\": 7,", "\"seed\": 7, \"engine\": \"warp\",");
        assert_eq!(
            CampaignSpec::parse(&unknown),
            Err(SpecError::InvalidField {
                field: "engine",
                why: "unknown engine `warp` (expected event | compiled)".into(),
            })
        );
        let not_a_string = SMOKE.replace("\"seed\": 7,", "\"seed\": 7, \"engine\": 3,");
        assert!(matches!(
            CampaignSpec::parse(&not_a_string),
            Err(SpecError::InvalidField {
                field: "engine",
                ..
            })
        ));
    }

    #[test]
    fn engine_change_yields_a_disjoint_key_set() {
        let base = CampaignSpec::parse(SMOKE).unwrap();
        let mut edited = base.clone();
        edited.engine = EngineKind::Compiled;
        let base_keys: std::collections::HashSet<u128> =
            base.expand().iter().map(|c| c.key).collect();
        let edited_keys: std::collections::HashSet<u128> =
            edited.expand().iter().map(|c| c.key).collect();
        assert!(
            base_keys.is_disjoint(&edited_keys),
            "journals from one engine must never satisfy the other"
        );
    }

    #[test]
    fn testability_defaults_to_off_and_parses_labels() {
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        assert_eq!(spec.testability, TestabilityMode::Off);
        assert!(!spec.testability.prunes());

        for (label, mode) in [
            ("prune", TestabilityMode::Prune),
            ("prune-hardest-first", TestabilityMode::HardestFirst),
        ] {
            let doc = SMOKE.replace(
                "\"seed\": 7,",
                &format!("\"seed\": 7, \"testability\": \"{label}\","),
            );
            let spec = CampaignSpec::parse(&doc).unwrap();
            assert_eq!(spec.testability, mode);
            assert!(spec.testability.prunes());
            assert!(spec.expand().iter().all(|c| c.testability == mode));
        }

        let unknown = SMOKE.replace("\"seed\": 7,", "\"seed\": 7, \"testability\": \"maybe\",");
        assert_eq!(
            CampaignSpec::parse(&unknown),
            Err(SpecError::InvalidField {
                field: "testability",
                why: "unknown testability mode `maybe` \
                      (expected off | prune | prune-hardest-first)"
                    .into(),
            })
        );
        let not_a_string = SMOKE.replace("\"seed\": 7,", "\"seed\": 7, \"testability\": 1,");
        assert!(matches!(
            CampaignSpec::parse(&not_a_string),
            Err(SpecError::InvalidField {
                field: "testability",
                ..
            })
        ));
    }

    #[test]
    fn testability_change_yields_a_disjoint_key_set() {
        let base = CampaignSpec::parse(SMOKE).unwrap();
        let mut edited = base.clone();
        edited.testability = TestabilityMode::Prune;
        let base_keys: std::collections::HashSet<u128> =
            base.expand().iter().map(|c| c.key).collect();
        let edited_keys: std::collections::HashSet<u128> =
            edited.expand().iter().map(|c| c.key).collect();
        assert!(
            base_keys.is_disjoint(&edited_keys),
            "a pruned campaign visits different fault subsets — its \
             journals must never satisfy an unpruned spec"
        );
    }

    #[test]
    fn pattern_seed_ignores_model_range_tier_and_chaos() {
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        let cells = spec.expand();
        // Cells differ in chaos seed and tier; pattern seeds agree.
        let seeds: Vec<u64> = cells.iter().map(|c| c.pattern_seed(spec.seed)).collect();
        assert!(seeds.windows(2).all(|w| w[0] == w[1]));
    }
}
