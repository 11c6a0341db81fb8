//! Designs: hierarchical collections of interconnected modules.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::module::Module;

/// Identifier of a module instance within a [`Design`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(u32);

impl ModuleId {
    /// Creates an id from a dense index (test and internal use).
    #[must_use]
    pub fn from_index(index: usize) -> ModuleId {
        ModuleId(index as u32)
    }

    /// The dense index of this module within its design.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A reference to one port of one module instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The module instance.
    pub module: ModuleId,
    /// Index into the module's port list.
    pub port: usize,
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.p{}", self.module, self.port)
    }
}

/// Errors reported while assembling a [`Design`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DesignError {
    /// A referenced module id does not exist.
    UnknownModule(String),
    /// A referenced port name does not exist on the module.
    UnknownPort {
        /// The module's instance name.
        module: String,
        /// The missing port name.
        port: String,
    },
    /// Connectors are point-to-point; this port is already tied.
    PortAlreadyConnected {
        /// The module's instance name.
        module: String,
        /// The doubly connected port.
        port: String,
    },
    /// The two connected ports have different widths.
    WidthMismatch {
        /// `module.port` of the first endpoint.
        a: String,
        /// `module.port` of the second endpoint.
        b: String,
    },
    /// Neither endpoint can drive, or neither can receive.
    DirectionConflict {
        /// `module.port` of the first endpoint.
        a: String,
        /// `module.port` of the second endpoint.
        b: String,
    },
    /// Two instances share a name after elaboration.
    DuplicateInstanceName(String),
    /// An exported interface name was declared twice.
    DuplicateExport(String),
    /// A module's [`Module::combinational_deps`] names a pair that is
    /// not one of its input/output port pairs.
    BadDependency {
        /// The module's instance name.
        module: String,
        /// The declared input port index.
        input: usize,
        /// The declared output port index.
        output: usize,
    },
    /// Zero-delay couplings and connectors close a cycle: an event on it
    /// would re-trigger itself within one simulated instant.
    CombinationalLoop {
        /// The cycle as `instance.port` hops; the first hop is repeated
        /// at the end.
        path: Vec<String>,
    },
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::UnknownModule(m) => write!(f, "unknown module `{m}`"),
            DesignError::UnknownPort { module, port } => {
                write!(f, "module `{module}` has no port `{port}`")
            }
            DesignError::PortAlreadyConnected { module, port } => {
                write!(f, "port `{module}.{port}` is already connected")
            }
            DesignError::WidthMismatch { a, b } => {
                write!(f, "width mismatch connecting `{a}` to `{b}`")
            }
            DesignError::DirectionConflict { a, b } => {
                write!(f, "direction conflict connecting `{a}` to `{b}`")
            }
            DesignError::DuplicateInstanceName(n) => {
                write!(f, "duplicate instance name `{n}`")
            }
            DesignError::DuplicateExport(n) => write!(f, "duplicate exported port `{n}`"),
            DesignError::BadDependency {
                module,
                input,
                output,
            } => write!(
                f,
                "zero-delay coupling ({input} -> {output}) does not name an \
                 input/output port pair of `{module}`"
            ),
            DesignError::CombinationalLoop { path } => {
                write!(f, "zero-delay cycle: {}", path.join(" -> "))
            }
        }
    }
}

impl Error for DesignError {}

#[derive(Clone, Debug)]
pub(crate) struct Connector {
    pub(crate) a: PortRef,
    pub(crate) b: PortRef,
    #[allow(dead_code)]
    pub(crate) width: usize,
}

impl Connector {
    /// The endpoint opposite to `from`, if `from` is one of the two.
    pub(crate) fn opposite(&self, from: PortRef) -> Option<PortRef> {
        if self.a == from {
            Some(self.b)
        } else if self.b == from {
            Some(self.a)
        } else {
            None
        }
    }
}

/// An elaborated design: shared, immutable, and safe to simulate from any
/// number of schedulers concurrently.
///
/// Build one with [`DesignBuilder`]; see the [crate
/// example](crate#examples).
pub struct Design {
    name: String,
    modules: Vec<Arc<dyn Module>>,
    instance_names: Vec<String>,
    connectors: Vec<Connector>,
    /// port -> connector index, dense by (module index, port index).
    port_to_connector: HashMap<PortRef, usize>,
    exports: Vec<(String, PortRef)>,
}

impl Design {
    /// The design's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of module instances.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Number of connectors.
    #[must_use]
    pub fn connector_count(&self) -> usize {
        self.connectors.len()
    }

    /// The module behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn module(&self, id: ModuleId) -> &Arc<dyn Module> {
        &self.modules[id.index()]
    }

    /// The hierarchical instance name of a module (e.g. `u0/REGA`).
    #[must_use]
    pub(crate) fn instance_name(&self, id: ModuleId) -> &str {
        &self.instance_names[id.index()]
    }

    /// Iterates over `(id, module)` pairs.
    pub fn modules(&self) -> impl Iterator<Item = (ModuleId, &Arc<dyn Module>)> {
        self.modules
            .iter()
            .enumerate()
            .map(|(i, m)| (ModuleId(i as u32), m))
    }

    /// The compiled-engine module overrides for this design: every
    /// module that offers a [`Module::compiled_twin`], paired with it.
    /// Apply them via
    /// [`SimEngine::override_module`](crate::SimEngine::override_module),
    /// the one engine every run goes through (or let
    /// [`SimulationController::with_engine`](crate::SimulationController::with_engine)
    /// do it), to run the design on the bit-parallel engine; coverage and
    /// outputs are bit-identical to the event-driven evaluation.
    #[must_use]
    pub fn compiled_overrides(&self) -> Vec<(ModuleId, Arc<dyn Module>)> {
        self.modules()
            .filter_map(|(id, m)| m.compiled_twin().map(|t| (id, t)))
            .collect()
    }

    /// Finds a module instance by hierarchical name.
    #[must_use]
    pub fn find_module(&self, name: &str) -> Option<ModuleId> {
        self.instance_names
            .iter()
            .position(|n| n == name)
            .map(|i| ModuleId(i as u32))
    }

    /// The opposite endpoint of the connector tied to `port`, if any.
    #[must_use]
    pub(crate) fn peer_of(&self, port: PortRef) -> Option<PortRef> {
        let idx = *self.port_to_connector.get(&port)?;
        self.connectors[idx].opposite(port)
    }

    /// Iterates over connector endpoint pairs.
    ///
    /// This is the boundary along which [`ShardPlan`](crate::ShardPlan)
    /// partitions a design: modules tied by a connector always land in the
    /// same shard, so zero-delay signal traffic never crosses threads.
    pub fn connector_endpoints(&self) -> impl Iterator<Item = (PortRef, PortRef)> + '_ {
        self.connectors.iter().map(|c| (c.a, c.b))
    }

    /// Exported (interface) ports, as `(name, port)`.
    #[must_use]
    pub fn exports(&self) -> &[(String, PortRef)] {
        &self.exports
    }

    /// Looks up an exported port by name.
    #[must_use]
    pub fn export(&self, name: &str) -> Option<PortRef> {
        self.exports
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
    }
}

impl fmt::Debug for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Design")
            .field("name", &self.name)
            .field("modules", &self.modules.len())
            .field("connectors", &self.connectors.len())
            .finish()
    }
}

/// Assembles a [`Design`] from modules and connections.
///
/// Hierarchy is supported by *elaboration*: [`DesignBuilder::instantiate`]
/// copies another design's structure under a name prefix (modules are
/// shared `Arc`s — they carry no simulation state, so one behaviour object
/// can serve any number of instances).
pub struct DesignBuilder {
    name: String,
    modules: Vec<Arc<dyn Module>>,
    instance_names: Vec<String>,
    connectors: Vec<Connector>,
    port_to_connector: HashMap<PortRef, usize>,
    exports: Vec<(String, PortRef)>,
    error: Option<DesignError>,
}

impl DesignBuilder {
    /// Creates an empty builder for a design called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> DesignBuilder {
        DesignBuilder {
            name: name.into(),
            modules: Vec::new(),
            instance_names: Vec::new(),
            connectors: Vec::new(),
            port_to_connector: HashMap::new(),
            exports: Vec::new(),
            error: None,
        }
    }

    /// Adds a module instance under its own [`Module::name`].
    pub fn add_module(&mut self, module: Arc<dyn Module>) -> ModuleId {
        let name = module.name().to_owned();
        self.add_named(name, module)
    }

    /// Adds a module instance under an explicit instance name.
    pub(crate) fn add_named(
        &mut self,
        instance: impl Into<String>,
        module: Arc<dyn Module>,
    ) -> ModuleId {
        let instance = instance.into();
        if self.instance_names.contains(&instance) {
            self.record(DesignError::DuplicateInstanceName(instance.clone()));
        }
        let id = ModuleId(self.modules.len() as u32);
        self.modules.push(module);
        self.instance_names.push(instance);
        id
    }

    /// Resolves `(module, port-name)` to a [`PortRef`].
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::UnknownModule`] / [`DesignError::UnknownPort`].
    pub fn port(&self, module: ModuleId, port: &str) -> Result<PortRef, DesignError> {
        let m = self
            .modules
            .get(module.index())
            .ok_or_else(|| DesignError::UnknownModule(format!("{module}")))?;
        let idx = m.port_index(port).ok_or_else(|| DesignError::UnknownPort {
            module: self.instance_names[module.index()].clone(),
            port: port.to_owned(),
        })?;
        Ok(PortRef { module, port: idx })
    }

    /// Ties two ports together with a point-to-point, zero-delay connector.
    ///
    /// # Errors
    ///
    /// Returns a [`DesignError`] on unknown names, width mismatch,
    /// direction conflicts or an already-connected port.
    pub fn connect(
        &mut self,
        module_a: ModuleId,
        port_a: &str,
        module_b: ModuleId,
        port_b: &str,
    ) -> Result<(), DesignError> {
        let a = self.port(module_a, port_a)?;
        let b = self.port(module_b, port_b)?;
        self.connect_refs(a, b)
    }

    /// Ties two resolved port references together.
    ///
    /// # Errors
    ///
    /// As [`DesignBuilder::connect`]. A [`PortRef`] pointing at a module
    /// or port that does not exist (the fields are public, so a caller
    /// can fabricate one) is reported as
    /// [`DesignError::UnknownModule`] / [`DesignError::UnknownPort`]
    /// instead of panicking.
    pub fn connect_refs(&mut self, a: PortRef, b: PortRef) -> Result<(), DesignError> {
        let spec_a = self.checked_spec(a)?.clone();
        let spec_b = self.checked_spec(b)?.clone();
        let label = |p: PortRef, s: &crate::module::PortSpec| {
            format!("{}.{}", self.instance_names[p.module.index()], s.name())
        };
        crate::connectivity::check((&label(a, &spec_a), &spec_a), (&label(b, &spec_b), &spec_b))?;
        for p in [a, b] {
            if self.port_to_connector.contains_key(&p) {
                let spec = self.spec(p).clone();
                return Err(DesignError::PortAlreadyConnected {
                    module: self.instance_names[p.module.index()].clone(),
                    port: spec.name().to_owned(),
                });
            }
        }
        let idx = self.connectors.len();
        self.connectors.push(Connector {
            a,
            b,
            width: spec_a.width(),
        });
        self.port_to_connector.insert(a, idx);
        self.port_to_connector.insert(b, idx);
        Ok(())
    }

    /// Exports a port as part of this design's interface, so a parent
    /// design can connect to it after [`DesignBuilder::instantiate`].
    ///
    /// # Errors
    ///
    /// Returns a [`DesignError`] on unknown names or duplicate exports.
    pub fn export_port(
        &mut self,
        name: impl Into<String>,
        module: ModuleId,
        port: &str,
    ) -> Result<(), DesignError> {
        let name = name.into();
        if self.exports.iter().any(|(n, _)| *n == name) {
            return Err(DesignError::DuplicateExport(name));
        }
        let p = self.port(module, port)?;
        self.exports.push((name, p));
        Ok(())
    }

    /// Copies `sub`'s modules and connectors into this design under
    /// `prefix/`, returning the mapping from `sub`'s exported port names to
    /// the new port references.
    ///
    /// This is the elaboration step behind hierarchical descriptions:
    /// module behaviours are shared (`Arc::clone`), connectors are
    /// re-created with translated ids.
    pub fn instantiate(&mut self, prefix: &str, sub: &Design) -> HashMap<String, PortRef> {
        let base = self.modules.len() as u32;
        for (i, module) in sub.modules.iter().enumerate() {
            let name = format!("{prefix}/{}", sub.instance_names[i]);
            self.add_named(name, Arc::clone(module));
        }
        let translate = |p: PortRef| PortRef {
            module: ModuleId(base + p.module.0),
            port: p.port,
        };
        for c in &sub.connectors {
            // The sub-design validated these; re-validation cannot fail
            // except via the duplicate bookkeeping, which translation
            // preserves.
            let _ = self.connect_refs(translate(c.a), translate(c.b));
        }
        sub.exports
            .iter()
            .map(|(n, p)| (n.clone(), translate(*p)))
            .collect()
    }

    /// Finalises the design.
    ///
    /// # Errors
    ///
    /// Returns the first recorded construction error, then
    /// [`DesignError::BadDependency`] for a malformed
    /// [`Module::combinational_deps`] entry and
    /// [`DesignError::CombinationalLoop`] for a zero-delay cycle.
    pub fn build(self) -> Result<Design, DesignError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        let design = Design {
            name: self.name,
            modules: self.modules,
            instance_names: self.instance_names,
            connectors: self.connectors,
            port_to_connector: self.port_to_connector,
            exports: self.exports,
        };
        crate::loops::check(&design)?;
        Ok(design)
    }

    fn spec(&self, p: PortRef) -> &crate::module::PortSpec {
        &self.modules[p.module.index()].ports()[p.port]
    }

    fn checked_spec(&self, p: PortRef) -> Result<&crate::module::PortSpec, DesignError> {
        let module = self
            .modules
            .get(p.module.index())
            .ok_or_else(|| DesignError::UnknownModule(format!("{}", p.module)))?;
        module
            .ports()
            .get(p.port)
            .ok_or_else(|| DesignError::UnknownPort {
                module: self.instance_names[p.module.index()].clone(),
                port: format!("p{}", p.port),
            })
    }

    fn record(&mut self, err: DesignError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stdlib::{Delay, PrimaryOutput, RandomInput, Register};

    fn source(width: usize) -> Arc<dyn Module> {
        Arc::new(RandomInput::new("SRC", width, 1, 4))
    }

    #[test]
    fn connect_and_lookup() {
        let mut b = DesignBuilder::new("d");
        let s = b.add_module(source(8));
        let r = b.add_module(Arc::new(Register::new("REG", 8)));
        let o = b.add_module(Arc::new(PrimaryOutput::new("OUT", 8)));
        b.connect(s, "out", r, "d").unwrap();
        b.connect(r, "q", o, "in").unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.module_count(), 3);
        assert_eq!(d.connector_count(), 2);
        assert_eq!(d.find_module("REG"), Some(r));
        let q = PortRef { module: r, port: 1 };
        assert_eq!(d.peer_of(q), Some(PortRef { module: o, port: 0 }));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut b = DesignBuilder::new("d");
        let s = b.add_module(source(8));
        let o = b.add_module(Arc::new(PrimaryOutput::new("OUT", 4)));
        assert!(matches!(
            b.connect(s, "out", o, "in"),
            Err(DesignError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn direction_conflict_rejected() {
        let mut b = DesignBuilder::new("d");
        let s1 = b.add_named("S1", source(8));
        let s2 = b.add_named("S2", source(8));
        assert!(matches!(
            b.connect(s1, "out", s2, "out"),
            Err(DesignError::DirectionConflict { .. })
        ));
    }

    #[test]
    fn point_to_point_enforced() {
        let mut b = DesignBuilder::new("d");
        let s = b.add_module(source(8));
        let o1 = b.add_named(
            "O1",
            Arc::new(PrimaryOutput::new("OUT", 8)) as Arc<dyn Module>,
        );
        let o2 = b.add_named(
            "O2",
            Arc::new(PrimaryOutput::new("OUT", 8)) as Arc<dyn Module>,
        );
        b.connect(s, "out", o1, "in").unwrap();
        assert!(matches!(
            b.connect(s, "out", o2, "in"),
            Err(DesignError::PortAlreadyConnected { .. })
        ));
    }

    #[test]
    fn fabricated_port_ref_reported_not_panicking() {
        let mut b = DesignBuilder::new("d");
        let s = b.add_module(source(8));
        let out = b.port(s, "out").unwrap();
        let bogus_module = PortRef {
            module: ModuleId::from_index(7),
            port: 0,
        };
        assert!(matches!(
            b.connect_refs(bogus_module, out),
            Err(DesignError::UnknownModule(_))
        ));
        let bogus_port = PortRef {
            module: s,
            port: 99,
        };
        assert!(matches!(
            b.connect_refs(out, bogus_port),
            Err(DesignError::UnknownPort { .. })
        ));
    }

    #[test]
    fn unknown_port_reported() {
        let mut b = DesignBuilder::new("d");
        let s = b.add_module(source(8));
        let o = b.add_module(Arc::new(PrimaryOutput::new("OUT", 8)));
        assert!(matches!(
            b.connect(s, "nope", o, "in"),
            Err(DesignError::UnknownPort { .. })
        ));
    }

    #[test]
    fn duplicate_instance_name_rejected_at_build() {
        let mut b = DesignBuilder::new("d");
        b.add_named("X", source(8));
        b.add_named("X", source(8));
        assert!(matches!(
            b.build(),
            Err(DesignError::DuplicateInstanceName(_))
        ));
    }

    /// Ports and couplings as given; the behaviour never runs.
    struct Stub {
        ports: Vec<crate::module::PortSpec>,
        deps: Vec<(usize, usize)>,
    }

    impl Module for Stub {
        fn name(&self) -> &str {
            "STUB"
        }

        fn ports(&self) -> &[crate::module::PortSpec] {
            &self.ports
        }

        fn on_signal(&self, _: &mut crate::ModuleCtx<'_>, _: usize, _: &vcad_logic::LogicVec) {}

        fn combinational_deps(&self) -> Vec<(usize, usize)> {
            self.deps.clone()
        }
    }

    fn ring(delay_b: u64) -> Result<Design, DesignError> {
        let mut b = DesignBuilder::new("ring");
        let a = b.add_module(Arc::new(Delay::new("A", 4, 0)));
        let d = b.add_module(Arc::new(Delay::new("B", 4, delay_b)));
        b.connect(a, "out", d, "in")?;
        b.connect(d, "out", a, "in")?;
        b.build()
    }

    #[test]
    fn zero_delay_ring_is_a_combinational_loop() {
        let err = ring(0).unwrap_err();
        assert!(matches!(err, DesignError::CombinationalLoop { .. }));
        assert!(
            err.to_string()
                .contains("A.in -> A.out -> B.in -> B.out -> A.in"),
            "{err}"
        );
    }

    #[test]
    fn a_delay_on_the_ring_breaks_the_loop() {
        assert!(ring(1).is_ok());
    }

    #[test]
    fn coupling_out_of_range_is_a_bad_dependency() {
        for deps in [vec![(0, 5)], vec![(1, 0)]] {
            let mut b = DesignBuilder::new("d");
            b.add_module(Arc::new(Stub {
                ports: vec![
                    crate::module::PortSpec::input("a", 1),
                    crate::module::PortSpec::output("y", 1),
                ],
                deps,
            }));
            assert!(matches!(b.build(), Err(DesignError::BadDependency { .. })));
        }
    }

    #[test]
    fn two_bidirectional_ports_alone_are_not_a_loop() {
        let bidi = || {
            Arc::new(Stub {
                ports: vec![crate::module::PortSpec::new(
                    "io",
                    crate::PortDirection::Bidirectional,
                    1,
                )],
                deps: Vec::new(),
            }) as Arc<dyn Module>
        };
        let mut b = DesignBuilder::new("d");
        let x = b.add_named("X", bidi());
        let y = b.add_named("Y", bidi());
        b.connect(x, "io", y, "io").unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn hierarchy_instantiation() {
        // Sub-design: register with exported d/q.
        let mut sub = DesignBuilder::new("cell");
        let r = sub.add_module(Arc::new(Register::new("REG", 8)) as Arc<dyn Module>);
        sub.export_port("d", r, "d").unwrap();
        sub.export_port("q", r, "q").unwrap();
        let sub = sub.build().unwrap();
        assert_eq!(sub.exports().len(), 2);

        // Parent instantiates it twice and chains them.
        let mut top = DesignBuilder::new("top");
        let s = top.add_module(source(8));
        let o = top.add_module(Arc::new(PrimaryOutput::new("OUT", 8)) as Arc<dyn Module>);
        let u0 = top.instantiate("u0", &sub);
        let u1 = top.instantiate("u1", &sub);
        top.connect_refs(top.port(s, "out").unwrap(), u0["d"])
            .unwrap();
        top.connect_refs(u0["q"], u1["d"]).unwrap();
        top.connect_refs(u1["q"], top.port(o, "in").unwrap())
            .unwrap();
        let top = top.build().unwrap();
        assert_eq!(top.module_count(), 4);
        assert!(top.find_module("u0/REG").is_some());
        assert!(top.find_module("u1/REG").is_some());
    }
}
