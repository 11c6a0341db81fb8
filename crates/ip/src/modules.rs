//! Remote-component module flavours.

use std::sync::Arc;

use vcad_core::stdlib::{WordAdder, WordMultiplier};
use vcad_core::{Estimator, Module, ModuleCtx, PortSpec, Value};
use vcad_logic::LogicVec;
use vcad_rmi::{RemoteRef, RmiError};

use crate::protocol::component;

/// The downloadable public part of a remote component.
///
/// Java ships bytecode; Rust cannot, so the provider instead names one of
/// a fixed set of *registered behaviours* plus its parameters, and the
/// client library instantiates it locally. The contract is the paper's:
/// an accurate functional model that reveals nothing structural. What
/// confines it is that registry: [`PublicPart::instantiate`] runs only
/// code this library ships, and refuses any other name.
#[derive(Clone, Debug)]
pub struct PublicPart {
    behavior: String,
    width: usize,
}

impl PublicPart {
    /// Creates a public part for a registered behaviour.
    #[must_use]
    pub fn new(behavior: impl Into<String>, width: usize) -> PublicPart {
        PublicPart {
            behavior: behavior.into(),
            width,
        }
    }

    /// The registered behaviour's name.
    #[must_use]
    pub fn behavior(&self) -> &str {
        &self.behavior
    }

    /// Instantiates the behaviour as a local module.
    ///
    /// # Errors
    ///
    /// Returns an error when the behaviour is not registered in this
    /// client library.
    pub fn instantiate(&self, instance: &str) -> Result<Arc<dyn Module>, RmiError> {
        match self.behavior.as_str() {
            "word-multiplier" => Ok(Arc::new(WordMultiplier::new(instance, self.width))),
            "word-adder" => Ok(Arc::new(WordAdder::new(instance, self.width))),
            "untestable-demo" => Ok(Arc::new(vcad_core::stdlib::NetlistBlock::new(
                instance,
                Arc::new(vcad_netlist::generators::untestable_demo(self.width)),
            ))),
            other => Err(RmiError::application(format!(
                "unknown public behaviour `{other}`"
            ))),
        }
    }
}

/// A local module (the public part) bundled with the component's
/// estimator catalog — what the user actually instantiates in a design
/// for the paper's **ER** scenario.
pub struct IpComponentModule {
    inner: Arc<dyn Module>,
    estimators: Vec<Arc<dyn Estimator>>,
}

impl IpComponentModule {
    /// Wraps a local functional model with its estimators.
    #[must_use]
    pub fn new(inner: Arc<dyn Module>, estimators: Vec<Arc<dyn Estimator>>) -> IpComponentModule {
        IpComponentModule { inner, estimators }
    }
}

impl Module for IpComponentModule {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ports(&self) -> &[PortSpec] {
        self.inner.ports()
    }

    fn init(&self, ctx: &mut ModuleCtx<'_>) {
        self.inner.init(ctx);
    }

    fn on_signal(&self, ctx: &mut ModuleCtx<'_>, port: usize, value: &LogicVec) {
        self.inner.on_signal(ctx, port, value);
    }

    fn on_self_trigger(&self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        self.inner.on_self_trigger(ctx, tag);
    }

    fn on_control(&self, ctx: &mut ModuleCtx<'_>, message: &Value) {
        self.inner.on_control(ctx, message);
    }

    fn estimators(&self) -> Vec<Arc<dyn Estimator>> {
        self.estimators.clone()
    }
}

/// A fully remote component: *every* event is forwarded to the provider
/// over RMI (the paper's **MR** scenario — "not realistic, but useful for
/// comparison purposes").
///
/// Ports are `a`, `b` (inputs, `width` bits) and `p` (output,
/// `2 × width` bits), matching the multiplier interface.
pub struct RemoteFunctionalModule {
    name: String,
    ports: Vec<PortSpec>,
    component: component::Stub,
    estimators: Vec<Arc<dyn Estimator>>,
}

impl RemoteFunctionalModule {
    /// Creates the fully remote multiplier module.
    #[must_use]
    pub fn new(
        instance: impl Into<String>,
        width: usize,
        component: RemoteRef,
        estimators: Vec<Arc<dyn Estimator>>,
    ) -> RemoteFunctionalModule {
        RemoteFunctionalModule::with_ports(
            instance,
            vec![
                PortSpec::input("a", width),
                PortSpec::input("b", width),
                PortSpec::output("p", 2 * width),
            ],
            component,
            estimators,
        )
    }

    /// Creates a fully remote module with an arbitrary port interface.
    ///
    /// Input ports (in port order, concatenated) must match the remote
    /// netlist's inputs; output ports its outputs.
    ///
    /// # Panics
    ///
    /// Panics if the interface has no input or no output port.
    #[must_use]
    pub fn with_ports(
        instance: impl Into<String>,
        ports: Vec<PortSpec>,
        component: RemoteRef,
        estimators: Vec<Arc<dyn Estimator>>,
    ) -> RemoteFunctionalModule {
        assert!(
            ports.iter().any(|p| p.direction().accepts_input())
                && ports.iter().any(|p| p.direction().produces_output()),
            "remote module needs at least one input and one output port"
        );
        RemoteFunctionalModule {
            name: instance.into(),
            ports,
            component: component::Stub(component),
            estimators,
        }
    }
}

impl Module for RemoteFunctionalModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> &[PortSpec] {
        &self.ports
    }

    fn on_signal(&self, ctx: &mut ModuleCtx<'_>, _port: usize, _value: &LogicVec) {
        let mut inputs = LogicVec::zeros(0);
        for (i, p) in self.ports.iter().enumerate() {
            if p.direction().accepts_input() {
                inputs = inputs.concat(ctx.port_value(i));
            }
        }
        let out_width: usize = self
            .ports
            .iter()
            .filter(|p| p.direction().produces_output())
            .map(PortSpec::width)
            .sum();
        // Marshal the ports, call the provider, unmarshal the result —
        // once per event, which is exactly the overhead Table 2 measures
        // for the MR scenario.
        let result = if inputs.is_binary() {
            self.component
                .functional_eval(inputs)
                .ok()
                .filter(|v| v.width() == out_width)
                .unwrap_or_else(|| LogicVec::unknown(out_width))
        } else {
            LogicVec::unknown(out_width)
        };
        let mut offset = 0;
        for (i, p) in self.ports.iter().enumerate() {
            if p.direction().produces_output() {
                let slice = result.slice(offset, p.width());
                offset += p.width();
                if *ctx.port_value(i) != slice {
                    ctx.emit(i, slice);
                }
            }
        }
    }

    fn estimators(&self) -> Vec<Arc<dyn Estimator>> {
        self.estimators.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_part_instantiates_registered_behaviour() {
        let part = PublicPart::new("word-multiplier", 8);
        let module = part.instantiate("MULT").unwrap();
        assert_eq!(module.name(), "MULT");
        assert_eq!(module.ports().len(), 3);
        assert_eq!(module.ports()[2].width(), 16);
    }

    #[test]
    fn public_part_rejects_unknown_behaviour() {
        let part = PublicPart::new("backdoor", 8);
        assert!(part.instantiate("X").is_err());
    }
}
