//! Incremental netlist construction.

use std::collections::HashSet;

use vcad_logic::Logic;

use crate::netlist::{Gate, Net, Netlist};
use crate::{GateId, GateKind, NetId, NetlistError};

/// Builds a [`Netlist`] incrementally, then validates and levelizes it.
///
/// The high-level API (`input`, [`NetlistBuilder::gate`]) creates a fresh
/// output net per gate, which makes cycles and double drivers impossible by
/// construction. The low-level API ([`NetlistBuilder::net`] +
/// [`NetlistBuilder::drive`]) allows forward references — needed when
/// generating arbitrary graphs — and relies on [`NetlistBuilder::build`] to
/// reject invalid structures.
///
/// # Examples
///
/// ```
/// use vcad_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("maj3");
/// let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
/// let xy = b.gate(GateKind::And, &[x, y]);
/// let yz = b.gate(GateKind::And, &[y, z]);
/// let xz = b.gate(GateKind::And, &[x, z]);
/// let m = b.gate(GateKind::Or, &[xy, yz, xz]);
/// b.output("maj", m);
/// let nl = b.build()?;
/// assert_eq!(nl.stats().depth, 2);
/// # Ok::<(), vcad_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug)]
pub struct NetlistBuilder {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    names: HashSet<String>,
    error: Option<NetlistError>,
}

impl NetlistBuilder {
    /// Creates an empty builder for a netlist called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> NetlistBuilder {
        NetlistBuilder {
            name: name.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            names: HashSet::new(),
            error: None,
        }
    }

    /// Declares a primary input and returns its net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.fresh_net(name.into(), true);
        self.inputs.push(id);
        id
    }

    /// Declares `width` primary inputs named `name[0]`…, LSB first.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// Adds a gate with a fresh, auto-named output net and returns that net.
    ///
    /// Arity violations are recorded and reported by
    /// [`NetlistBuilder::build`].
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        let out = self.fresh_net(format!("n{}", self.nets.len()), false);
        self.drive(out, kind, inputs);
        out
    }

    /// Adds a gate whose output net gets the given `name`.
    pub fn named_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        inputs: &[NetId],
    ) -> NetId {
        let out = self.fresh_net(name.into(), false);
        self.drive(out, kind, inputs);
        out
    }

    /// Declares a floating net to be driven later with
    /// [`NetlistBuilder::drive`].
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        self.fresh_net(name.into(), false)
    }

    /// Drives an existing net with a new gate.
    ///
    /// Errors (double drivers, arity violations) are recorded and reported
    /// by [`NetlistBuilder::build`].
    pub fn drive(&mut self, output: NetId, kind: GateKind, inputs: &[NetId]) {
        if !kind.accepts_inputs(inputs.len()) {
            self.record(NetlistError::BadArity {
                kind: kind.to_string(),
                inputs: inputs.len(),
            });
            return;
        }
        let net = &mut self.nets[output.index()];
        if net.driver.is_some() || net.is_input {
            let net = net.name.clone();
            self.record(NetlistError::MultipleDrivers { net });
            return;
        }
        let gid = GateId(self.gates.len() as u32);
        net.driver = Some(gid);
        for &i in inputs {
            self.nets[i.index()].fanout += 1;
        }
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
    }

    /// Adds a constant driver and returns its net.
    pub fn constant(&mut self, value: Logic) -> NetId {
        let kind = match value {
            Logic::One => GateKind::Const1,
            _ => GateKind::Const0,
        };
        self.gate(kind, &[])
    }

    /// Declares `net` as the primary output called `name`.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Declares a bus of primary outputs `name[0]`…, LSB first.
    pub fn output_bus(&mut self, name: &str, nets: &[NetId]) {
        for (i, &n) in nets.iter().enumerate() {
            self.output(format!("{name}[{i}]"), n);
        }
    }

    /// Validates the structure, computes the topological order and logic
    /// levels, and returns the finished [`Netlist`].
    ///
    /// # Errors
    ///
    /// Returns the first recorded construction error, or a structural error:
    /// [`NetlistError::Undriven`], [`NetlistError::CombinationalCycle`],
    /// [`NetlistError::NoOutputs`].
    pub fn build(self) -> Result<Netlist, NetlistError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        for net in &self.nets {
            if net.driver.is_none() && !net.is_input {
                return Err(NetlistError::Undriven {
                    net: net.name.clone(),
                });
            }
        }

        // Kahn's algorithm over gates; also assigns logic levels.
        let gate_count = self.gates.len();
        let mut pending: Vec<usize> = self
            .gates
            .iter()
            .map(|g| {
                g.inputs
                    .iter()
                    .filter(|n| self.nets[n.index()].driver.is_some())
                    .count()
            })
            .collect();
        let mut level = vec![0u32; gate_count];
        let mut net_level = vec![0u32; self.nets.len()];
        let mut ready: Vec<GateId> = (0..gate_count)
            .filter(|&i| pending[i] == 0)
            .map(|i| GateId(i as u32))
            .collect();
        // Consumers of each net, so we can decrement dependents.
        let mut consumers: Vec<Vec<GateId>> = vec![Vec::new(); self.nets.len()];
        for (i, g) in self.gates.iter().enumerate() {
            for &n in &g.inputs {
                consumers[n.index()].push(GateId(i as u32));
            }
        }
        let mut topo = Vec::with_capacity(gate_count);
        while let Some(gid) = ready.pop() {
            let gate = &self.gates[gid.index()];
            let lvl = gate
                .inputs
                .iter()
                .map(|n| net_level[n.index()])
                .max()
                .unwrap_or(0)
                + 1;
            level[gid.index()] = lvl;
            net_level[gate.output.index()] = lvl;
            topo.push(gid);
            for &next in &consumers[gate.output.index()] {
                pending[next.index()] -= 1;
                if pending[next.index()] == 0 {
                    ready.push(next);
                }
            }
        }
        if topo.len() != gate_count {
            return Err(NetlistError::CombinationalCycle);
        }

        Ok(Netlist {
            name: self.name,
            nets: self.nets,
            gates: self.gates,
            inputs: self.inputs,
            outputs: self.outputs,
            topo,
            level,
            plan: std::sync::OnceLock::new(),
        })
    }

    fn fresh_net(&mut self, name: String, is_input: bool) -> NetId {
        if !self.names.insert(name.clone()) {
            self.record(NetlistError::DuplicateName { name: name.clone() });
        }
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name,
            driver: None,
            is_input,
            fanout: 0,
        });
        id
    }

    fn record(&mut self, err: NetlistError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_build() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::Nand, &[a, c]);
        b.output("y", y);
        let nl = b.build().unwrap();
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.input_count(), 2);
        assert_eq!(nl.net(a).fanout(), 1);
        assert_eq!(nl.gate_level(nl.topo_order()[0]), 1);
    }

    #[test]
    fn bad_arity_reported_at_build() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.gate(GateKind::Mux2, &[a, a]);
        b.output("y", y);
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::BadArity {
                kind: "MUX2".into(),
                inputs: 2
            }
        );
    }

    #[test]
    fn double_driver_rejected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.net("y");
        b.drive(y, GateKind::Buf, &[a]);
        b.drive(y, GateKind::Not, &[a]);
        b.output("y", y);
        assert!(matches!(
            b.build(),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn driving_an_input_rejected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        b.drive(a, GateKind::Const1, &[]);
        b.output("y", a);
        assert!(matches!(
            b.build(),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn undriven_net_rejected() {
        let mut b = NetlistBuilder::new("t");
        let y = b.net("floating");
        b.output("y", y);
        assert!(matches!(b.build(), Err(NetlistError::Undriven { .. })));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.net("x");
        let y = b.net("y");
        b.drive(x, GateKind::And, &[a, y]);
        b.drive(y, GateKind::Buf, &[x]);
        b.output("y", y);
        assert_eq!(b.build().unwrap_err(), NetlistError::CombinationalCycle);
    }

    #[test]
    fn no_outputs_rejected() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        assert_eq!(b.build().unwrap_err(), NetlistError::NoOutputs);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        let dup = b.input("a");
        b.output("y", dup);
        assert!(matches!(b.build(), Err(NetlistError::DuplicateName { .. })));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let n1 = b.gate(GateKind::Not, &[a]);
        let n2 = b.gate(GateKind::Not, &[n1]);
        let n3 = b.gate(GateKind::And, &[n1, n2]);
        b.output("y", n3);
        let nl = b.build().unwrap();
        let pos: Vec<usize> = nl
            .topo_order()
            .iter()
            .map(|g| nl.topo_order().iter().position(|x| x == g).unwrap())
            .collect();
        assert_eq!(pos.len(), 3);
        // n3's gate must come after both inverters.
        let idx_of = |out: NetId| {
            nl.topo_order()
                .iter()
                .position(|&g| nl.gate(g).output() == out)
                .unwrap()
        };
        assert!(idx_of(n3) > idx_of(n1));
        assert!(idx_of(n3) > idx_of(n2));
        assert_eq!(nl.gate_level(nl.net(n3).driver().unwrap()), 3);
    }

    #[test]
    fn buses_are_lsb_first() {
        let mut b = NetlistBuilder::new("t");
        let bus = b.input_bus("a", 3);
        b.output_bus("y", &bus);
        let nl = b.build().unwrap();
        assert_eq!(nl.net(bus[0]).name(), "a[0]");
        assert_eq!(nl.outputs()[2].0, "y[2]");
    }
}
