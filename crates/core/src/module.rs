//! The module abstraction and its execution context.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use vcad_logic::LogicVec;
use vcad_rmi::Value;

use crate::design::ModuleId;
use crate::estimate::Estimator;
use crate::time::SimTime;

/// Direction of a module port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// The module only receives events on this port.
    Input,
    /// The module only emits events on this port.
    Output,
    /// The port both receives and emits (JavaCAD's bidirectional ports).
    Bidirectional,
}

impl PortDirection {
    /// Whether events may arrive at this port.
    #[must_use]
    pub fn accepts_input(self) -> bool {
        matches!(self, PortDirection::Input | PortDirection::Bidirectional)
    }

    /// Whether the module may emit on this port.
    #[must_use]
    pub fn produces_output(self) -> bool {
        matches!(self, PortDirection::Output | PortDirection::Bidirectional)
    }
}

/// Static description of one module port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortSpec {
    name: String,
    direction: PortDirection,
    width: usize,
}

impl PortSpec {
    /// Creates a port description.
    #[must_use]
    pub fn new(name: impl Into<String>, direction: PortDirection, width: usize) -> PortSpec {
        PortSpec {
            name: name.into(),
            direction,
            width,
        }
    }

    /// Shorthand for an input port.
    #[must_use]
    pub fn input(name: impl Into<String>, width: usize) -> PortSpec {
        PortSpec::new(name, PortDirection::Input, width)
    }

    /// Shorthand for an output port.
    #[must_use]
    pub fn output(name: impl Into<String>, width: usize) -> PortSpec {
        PortSpec::new(name, PortDirection::Output, width)
    }

    /// The port's name, unique within its module.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The port's direction.
    #[must_use]
    pub fn direction(&self) -> PortDirection {
        self.direction
    }

    /// The port's width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }
}

impl fmt::Display for PortSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = match self.direction {
            PortDirection::Input => "in",
            PortDirection::Output => "out",
            PortDirection::Bidirectional => "inout",
        };
        write!(f, "{} {}[{}]", dir, self.name, self.width)
    }
}

/// A design component — the analogue of JavaCAD's `ModuleSkeleton`
/// subclasses.
///
/// Implementations are **stateless with respect to simulation**: all
/// mutable simulation state lives in the executing scheduler's state store
/// and is reached through [`ModuleCtx::state`]. This is what makes it safe
/// to run many concurrent simulations over one shared design — the paper's
/// per-scheduler lookup-table design.
///
/// Handlers receive events ([`Module::on_signal`],
/// [`Module::on_self_trigger`], [`Module::on_control`]) and react by
/// emitting values on output ports or scheduling future tokens via the
/// context.
pub trait Module: Send + Sync {
    /// The instance name (unique within a design after elaboration).
    fn name(&self) -> &str;

    /// The module's port list; indices into this slice identify ports in
    /// every other API.
    fn ports(&self) -> &[PortSpec];

    /// Called once when a scheduler starts, before any event; sources
    /// typically schedule their first self-trigger here.
    fn init(&self, ctx: &mut ModuleCtx<'_>) {
        let _ = ctx;
    }

    /// Handles a signal arriving on input port `port`.
    fn on_signal(&self, ctx: &mut ModuleCtx<'_>, port: usize, value: &LogicVec);

    /// Handles a self-scheduled wake-up.
    fn on_self_trigger(&self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Handles general control traffic.
    fn on_control(&self, ctx: &mut ModuleCtx<'_>, message: &Value) {
        let _ = (ctx, message);
    }

    /// Candidate estimators this module offers for cost parameters.
    fn estimators(&self) -> Vec<Arc<dyn Estimator>> {
        Vec::new()
    }

    /// The module's zero-delay input→output port couplings, as
    /// `(input port index, output port index)` pairs: an event arriving
    /// on the input may cause an emission on the output *in the same
    /// simulated instant*.
    ///
    /// [`DesignBuilder::build`](crate::DesignBuilder::build) walks these
    /// couplings across connectors and refuses a combinational loop
    /// before a scheduler burns its event budget discovering one
    /// dynamically. The default is deliberately conservative — every
    /// input feeds every output — so a module that breaks the zero-delay
    /// path (a register, a delay line) must override this to declare
    /// itself sequential. A false "combinational" claim refuses a design
    /// that would have run; a false "sequential" claim would hide a real
    /// loop.
    fn combinational_deps(&self) -> Vec<(usize, usize)> {
        let ports = self.ports();
        let mut deps = Vec::new();
        for (i, pi) in ports.iter().enumerate() {
            if !pi.direction().accepts_input() {
                continue;
            }
            for (o, po) in ports.iter().enumerate() {
                if i != o && po.direction().produces_output() {
                    deps.push((i, o));
                }
            }
        }
        deps
    }

    /// Looks up a port index by name.
    fn port_index(&self, name: &str) -> Option<usize> {
        self.ports().iter().position(|p| p.name() == name)
    }

    /// A behaviourally identical replacement for this module that
    /// evaluates on the compiled bit-parallel engine, or `None` (the
    /// default) when the module has nothing to compile — or is already
    /// compiled. Schedulers apply these as module overrides when a run
    /// selects [`EngineKind::Compiled`](vcad_engine::EngineKind); the
    /// twin must be observably indistinguishable from the original.
    fn compiled_twin(&self) -> Option<Arc<dyn Module>> {
        None
    }
}

/// One pending action produced by a module handler.
#[derive(Clone, Debug)]
pub(crate) enum Action {
    Emit {
        port: usize,
        value: LogicVec,
        delay: u64,
    },
    SelfTrigger {
        delay: u64,
        tag: u64,
    },
    Control {
        target: ModuleId,
        delay: u64,
        message: Value,
    },
}

/// The execution context handed to module handlers.
///
/// It provides the current time, the module's latched input values, access
/// to per-scheduler module state, and the means to emit values and schedule
/// future tokens.
pub struct ModuleCtx<'a> {
    pub(crate) module: ModuleId,
    pub(crate) time: SimTime,
    pub(crate) inputs: &'a [LogicVec],
    pub(crate) ports: &'a [PortSpec],
    pub(crate) state: &'a mut Option<Box<dyn Any + Send>>,
    pub(crate) actions: &'a mut Vec<Action>,
}

impl ModuleCtx<'_> {
    /// The module's own id.
    #[must_use]
    pub fn module_id(&self) -> ModuleId {
        self.module
    }

    /// The current simulation time.
    #[must_use]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The last value seen on a port (inputs latch arriving signals;
    /// outputs latch emitted values). All-`X` before any event.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    #[must_use]
    pub fn port_value(&self, port: usize) -> &LogicVec {
        &self.inputs[port]
    }

    /// Mutable access to this module's state in the executing scheduler's
    /// store, created with `T::default()` on first use.
    ///
    /// # Panics
    ///
    /// Panics if the module previously stored a state of a different type
    /// in the same scheduler — a module must use a single state type.
    pub fn state<T: Default + Send + 'static>(&mut self) -> &mut T {
        if self.state.is_none() {
            *self.state = Some(Box::new(T::default()));
        }
        self.state
            .as_mut()
            .expect("state initialised above")
            .downcast_mut::<T>()
            .expect("module state accessed with inconsistent types")
    }

    /// Emits `value` on output port `port` in the current instant
    /// (connectors are zero-delay).
    ///
    /// # Panics
    ///
    /// Panics if the port is not an output or the width does not match.
    pub fn emit(&mut self, port: usize, value: LogicVec) {
        self.emit_after(port, value, 0);
    }

    /// Emits `value` on output port `port` after `delay` ticks.
    ///
    /// # Panics
    ///
    /// Panics if the port is not an output or the width does not match.
    pub fn emit_after(&mut self, port: usize, value: LogicVec, delay: u64) {
        let spec = &self.ports[port];
        assert!(
            spec.direction().produces_output(),
            "module emitted on non-output port `{}`",
            spec.name()
        );
        assert_eq!(
            spec.width(),
            value.width(),
            "width mismatch emitting on port `{}`",
            spec.name()
        );
        self.actions.push(Action::Emit { port, value, delay });
    }

    /// Schedules a wake-up for this module `delay` ticks from now; `tag`
    /// is returned to [`Module::on_self_trigger`].
    pub fn schedule_self(&mut self, delay: u64, tag: u64) {
        self.actions.push(Action::SelfTrigger { delay, tag });
    }

    /// Sends a control token to another module after `delay` ticks.
    pub fn send_control(&mut self, target: ModuleId, delay: u64, message: Value) {
        self.actions.push(Action::Control {
            target,
            delay,
            message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_spec_accessors() {
        let p = PortSpec::input("d", 16);
        assert_eq!(p.name(), "d");
        assert_eq!(p.width(), 16);
        assert!(p.direction().accepts_input());
        assert!(!p.direction().produces_output());
        assert_eq!(p.to_string(), "in d[16]");
        let q = PortSpec::new("io", PortDirection::Bidirectional, 1);
        assert!(q.direction().accepts_input() && q.direction().produces_output());
    }

    struct Probe;
    impl Module for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn ports(&self) -> &[PortSpec] {
            use std::sync::OnceLock;
            static PORTS: OnceLock<Vec<PortSpec>> = OnceLock::new();
            PORTS.get_or_init(|| vec![PortSpec::input("in", 4), PortSpec::output("out", 4)])
        }
        fn on_signal(&self, ctx: &mut ModuleCtx<'_>, _port: usize, value: &LogicVec) {
            let count: &mut u32 = ctx.state::<u32>();
            *count += 1;
            ctx.emit(1, value.clone());
        }
    }

    #[test]
    fn ctx_state_and_emissions() {
        let probe = Probe;
        let inputs = vec![LogicVec::unknown(4), LogicVec::unknown(4)];
        let mut state: Option<Box<dyn Any + Send>> = None;
        let mut actions = Vec::new();
        let mut ctx = ModuleCtx {
            module: ModuleId::from_index(0),
            time: SimTime::ZERO,
            inputs: &inputs,
            ports: probe.ports(),
            state: &mut state,
            actions: &mut actions,
        };
        probe.on_signal(&mut ctx, 0, &LogicVec::from_u64(4, 3));
        probe.on_signal(&mut ctx, 0, &LogicVec::from_u64(4, 5));
        assert_eq!(actions.len(), 2);
        assert_eq!(state.unwrap().downcast_ref::<u32>().copied(), Some(2));
    }

    #[test]
    #[should_panic(expected = "non-output port")]
    fn emit_on_input_port_panics() {
        let probe = Probe;
        let inputs = vec![LogicVec::unknown(4), LogicVec::unknown(4)];
        let mut state: Option<Box<dyn Any + Send>> = None;
        let mut actions = Vec::new();
        let mut ctx = ModuleCtx {
            module: ModuleId::from_index(0),
            time: SimTime::ZERO,
            inputs: &inputs,
            ports: probe.ports(),
            state: &mut state,
            actions: &mut actions,
        };
        ctx.emit(0, LogicVec::zeros(4));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn emit_wrong_width_panics() {
        let probe = Probe;
        let inputs = vec![LogicVec::unknown(4), LogicVec::unknown(4)];
        let mut state: Option<Box<dyn Any + Send>> = None;
        let mut actions = Vec::new();
        let mut ctx = ModuleCtx {
            module: ModuleId::from_index(0),
            time: SimTime::ZERO,
            inputs: &inputs,
            ports: probe.ports(),
            state: &mut state,
            actions: &mut actions,
        };
        ctx.emit(1, LogicVec::zeros(3));
    }
}
