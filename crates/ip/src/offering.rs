//! Component offerings: what a provider publishes.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use vcad_netlist::{generators, Netlist};

use crate::server::Characterisation;

/// Which models a provider makes available for a component, and at what
/// fidelity — the per-provider "setup" of the paper's Figure 1
/// (`Functional model 1, Power model 2, Timing model 2, Area model 0`).
///
/// Level `0` means unavailable; higher levels mean higher-fidelity models
/// are offered (possibly at a fee and/or remotely).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelAvailability {
    /// Functional model level (1 = downloadable behavioural model).
    pub functional: u8,
    /// Power model level (1 = static numbers, 2 = remote gate-level).
    pub power: u8,
    /// Timing model level.
    pub timing: u8,
    /// Area model level.
    pub area: u8,
}

impl ModelAvailability {
    /// Everything available at the highest level the prototype supports.
    #[must_use]
    pub fn full() -> ModelAvailability {
        ModelAvailability {
            functional: 1,
            power: 2,
            timing: 2,
            area: 1,
        }
    }

    /// Functional model only — the minimal, free offering of the paper's
    /// second provider in Figure 1.
    #[must_use]
    pub fn functional_only() -> ModelAvailability {
        ModelAvailability {
            functional: 1,
            power: 0,
            timing: 0,
            area: 0,
        }
    }
}

impl fmt::Display for ModelAvailability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "functional {} / power {} / timing {} / area {}",
            self.functional, self.power, self.timing, self.area
        )
    }
}

/// The provider's fee schedule, in cents (the paper's Table 1 cost
/// column).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PriceList {
    /// Fee per pattern evaluated by the remote gate-level power estimator.
    pub toggle_power_per_pattern: f64,
    /// Fee per detection table computed.
    pub detection_table: f64,
    /// Fee per remote functional evaluation (MR scenario).
    pub functional_eval: f64,
    /// One-off fee per component instantiation.
    pub instantiation: f64,
}

impl Default for PriceList {
    fn default() -> PriceList {
        PriceList {
            toggle_power_per_pattern: 0.1,
            detection_table: 0.05,
            functional_eval: 0.001,
            instantiation: 0.0,
        }
    }
}

/// One sellable IP component: a parametric generator for the private
/// netlist plus published model availability and prices.
///
/// The generator runs only on the provider's server; nothing it produces
/// is ever serialised.
///
/// Clones share one characterisation per width: the netlist, the trained
/// estimators and the detection-table source (with the tables it
/// remembers) are built by the first component instantiated at that
/// width and reused by every later one, on any server the clones are
/// offered by, for as long as a clone lives. None of it is per-session
/// state: names, prices and the fee ledger stay with each component.
#[derive(Clone)]
pub struct ComponentOffering {
    name: String,
    generator: Arc<dyn Fn(usize) -> Arc<Netlist> + Send + Sync>,
    models: ModelAvailability,
    prices: PriceList,
    public_behavior: String,
    characterised: Arc<Mutex<BTreeMap<usize, Arc<Characterisation>>>>,
}

impl ComponentOffering {
    /// Creates an offering from a netlist generator parameterised by bit
    /// width (the paper's parametric design macros).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        generator: impl Fn(usize) -> Arc<Netlist> + Send + Sync + 'static,
        models: ModelAvailability,
        prices: PriceList,
    ) -> ComponentOffering {
        ComponentOffering {
            name: name.into(),
            generator: Arc::new(generator),
            models,
            prices,
            public_behavior: "word-multiplier".into(),
            characterised: Arc::default(),
        }
    }

    /// Sets the registered behaviour the client library instantiates as
    /// the component's public part (defaults to `word-multiplier`).
    #[must_use]
    pub fn with_public_behavior(mut self, behavior: impl Into<String>) -> ComponentOffering {
        self.public_behavior = behavior.into();
        self
    }

    /// The registered behaviour shipped as the public part.
    #[must_use]
    pub fn public_behavior(&self) -> &str {
        &self.public_behavior
    }

    /// The paper's example component: a high-performance, low-power
    /// multiplier (`MULT` in Figure 2), realised as a Wallace tree.
    #[must_use]
    pub fn fast_low_power_multiplier() -> ComponentOffering {
        ComponentOffering::new(
            "MultFastLowPower",
            |width| Arc::new(generators::wallace_multiplier(width)),
            ModelAvailability::full(),
            PriceList::default(),
        )
    }

    /// A cheaper, slower multiplier for comparison shopping: an array
    /// multiplier with the same interface.
    #[must_use]
    pub fn baseline_multiplier() -> ComponentOffering {
        ComponentOffering::new(
            "MultBaselineArray",
            |width| Arc::new(generators::array_multiplier(width)),
            ModelAvailability::full(),
            PriceList {
                toggle_power_per_pattern: 0.05,
                ..PriceList::default()
            },
        )
    }

    /// The offering's catalog name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Published model availability.
    #[must_use]
    pub fn models(&self) -> ModelAvailability {
        self.models
    }

    /// Published prices.
    #[must_use]
    pub fn prices(&self) -> PriceList {
        self.prices
    }

    /// Instantiates the private netlist for a given width (provider side
    /// only).
    #[must_use]
    pub fn instantiate(&self, width: usize) -> Arc<Netlist> {
        (self.generator)(width)
    }

    /// The characterisation at `width` that every clone shares, built on
    /// first use. A concurrent caller waits for it rather than building
    /// a second one.
    pub(crate) fn characterise(&self, width: usize) -> Arc<Characterisation> {
        // A characterisation that panics inserts nothing, so a poisoned
        // map is still whole.
        let mut characterised = self
            .characterised
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let shared = characterised
            .entry(width)
            .or_insert_with(|| Arc::new(Characterisation::new(self, width)));
        Arc::clone(shared)
    }
}

impl fmt::Debug for ComponentOffering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentOffering")
            .field("name", &self.name)
            .field("models", &self.models)
            .field("prices", &self.prices)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_offering_generates_correct_netlists() {
        let offer = ComponentOffering::fast_low_power_multiplier();
        let nl = offer.instantiate(4);
        assert_eq!(nl.input_count(), 8);
        assert_eq!(nl.output_count(), 8);
        let nl16 = offer.instantiate(16);
        assert_eq!(nl16.input_count(), 32);
    }

    #[test]
    fn availability_profiles() {
        assert_eq!(ModelAvailability::full().power, 2);
        let min = ModelAvailability::functional_only();
        assert_eq!(min.functional, 1);
        assert_eq!(min.power, 0);
        assert_eq!(
            min.to_string(),
            "functional 1 / power 0 / timing 0 / area 0"
        );
    }

    #[test]
    fn default_prices_match_table_1() {
        let p = PriceList::default();
        assert!((p.toggle_power_per_pattern - 0.1).abs() < 1e-12);
    }
}
