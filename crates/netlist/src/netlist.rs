//! The netlist data structure.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::{ExecPlan, GateKind};

/// Identifier of a net inside a [`Netlist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The net's dense index, usable for side tables sized by
    /// [`Netlist::net_count`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a gate inside a [`Netlist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The gate's dense index, usable for side tables sized by
    /// [`Netlist::gate_count`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A net (signal wire) in a [`Netlist`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Net {
    pub(crate) name: String,
    pub(crate) driver: Option<GateId>,
    pub(crate) is_input: bool,
    pub(crate) fanout: u32,
}

impl Net {
    /// The net's name (auto-generated names look like `n7`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate driving this net, or `None` for primary inputs.
    #[must_use]
    pub fn driver(&self) -> Option<GateId> {
        self.driver
    }

    /// Whether the net is a primary input.
    #[must_use]
    pub fn is_input(&self) -> bool {
        self.is_input
    }

    /// Number of gate input pins this net feeds (primary-output taps are
    /// not counted).
    #[must_use]
    pub fn fanout(&self) -> u32 {
        self.fanout
    }
}

/// A gate instance in a [`Netlist`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
}

impl Gate {
    /// The gate's logic function.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The nets feeding the gate's input pins, in pin order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The net driven by the gate.
    #[must_use]
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// A validated, levelized combinational gate-level netlist.
///
/// Construct one with [`NetlistBuilder`](crate::NetlistBuilder); the builder
/// guarantees on success that every net has at most one driver, every gate's
/// arity is legal, the structure is acyclic, and a topological evaluation
/// order is precomputed.
///
/// # Examples
///
/// ```
/// use vcad_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("and2");
/// let a = b.input("a");
/// let c = b.input("b");
/// let y = b.gate(GateKind::And, &[a, c]);
/// b.output("y", y);
/// let nl = b.build()?;
/// assert_eq!(nl.gate_count(), 1);
/// assert_eq!(nl.stats().depth, 1);
/// # Ok::<(), vcad_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    pub(crate) gates: Vec<Gate>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<(String, NetId)>,
    /// Gates in topological order: every gate appears after all gates
    /// driving its input nets.
    pub(crate) topo: Vec<GateId>,
    /// Logic level of every gate (primary-input consumers are level 1).
    pub(crate) level: Vec<u32>,
    /// The levelized plan, compiled on first use; a clone shares it.
    pub(crate) plan: OnceLock<Arc<ExecPlan>>,
}

impl Netlist {
    /// The netlist's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets, including primary inputs.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Primary input nets, in declaration order (bit 0 first).
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)`, in declaration order (bit 0 first).
    #[must_use]
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Looks up a net.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Looks up a gate.
    #[must_use]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Iterates over all gates with their ids.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Iterates over all nets with their ids.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Gates in topological (evaluation) order.
    #[must_use]
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// The netlist compiled to its levelized [`ExecPlan`] — what every
    /// evaluator executes. Compiled once, on first use (a netlist is
    /// immutable after `build`); clones made afterwards share it.
    #[must_use]
    pub fn plan(&self) -> &Arc<ExecPlan> {
        self.plan.get_or_init(|| Arc::new(ExecPlan::compile(self)))
    }

    /// The logic level of a gate (distance from the primary inputs).
    #[must_use]
    pub fn gate_level(&self, id: GateId) -> u32 {
        self.level[id.index()]
    }

    /// Whether the net is tapped as a primary output (directly
    /// observable regardless of its gate fan-out).
    #[must_use]
    pub fn is_primary_output(&self, id: NetId) -> bool {
        self.outputs.iter().any(|(_, n)| *n == id)
    }

    /// Finds a net by name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(|i| NetId(i as u32))
    }

    /// Aggregate size/shape statistics, the inputs to static estimators.
    #[must_use]
    pub fn stats(&self) -> NetlistStats {
        let area = self.gates.iter().map(|g| g.kind.unit_area()).sum();
        let depth = self.level.iter().copied().max().unwrap_or(0);
        let critical_path_delay = self.critical_path_delay();
        NetlistStats {
            gates: self.gates.len(),
            nets: self.nets.len(),
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            depth,
            area,
            critical_path_delay,
        }
    }

    /// Worst-case input-to-output delay using the per-kind unit delays, in
    /// picoseconds.
    #[must_use]
    pub fn critical_path_delay(&self) -> f64 {
        let mut arrival = vec![0.0f64; self.nets.len()];
        for &gid in &self.topo {
            let gate = &self.gates[gid.index()];
            let worst_in = gate
                .inputs
                .iter()
                .map(|n| arrival[n.index()])
                .fold(0.0, f64::max);
            arrival[gate.output.index()] = worst_in + gate.kind.unit_delay();
        }
        self.outputs
            .iter()
            .map(|(_, n)| arrival[n.index()])
            .fold(0.0, f64::max)
    }
}

/// Aggregate statistics of a [`Netlist`], as reported by
/// [`Netlist::stats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetlistStats {
    /// Gate instances.
    pub gates: usize,
    /// Nets, including primary inputs.
    pub nets: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Maximum logic depth in gate levels.
    pub depth: u32,
    /// Total cell area in equivalent-gate units.
    pub area: f64,
    /// Worst-case propagation delay in picoseconds.
    pub critical_path_delay: f64,
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates, {} nets, {} in, {} out, depth {}, area {:.1}, tpd {:.0} ps",
            self.gates,
            self.nets,
            self.inputs,
            self.outputs,
            self.depth,
            self.area,
            self.critical_path_delay
        )
    }
}
