//! Levelized execution plans — what every gate evaluation executes.
//!
//! [`ExecPlan::compile`] flattens a validated [`Netlist`] into a dense,
//! allocation-free instruction stream: one [`PlanOp`] per gate, sorted
//! by the logic levels the builder's Kahn pass already computed, with
//! every operand net spelled out in one flat `u32` array. An evaluator
//! walks the stream front to back — a whole level per pass — touching
//! nothing but flat arrays indexed by [`NetId::index`]: no per-gate
//! `Vec`s, no hash lookups, no pointer chasing through
//! [`Gate`](crate::Gate) structs. [`Netlist::plan`] compiles and caches
//! the plan; [`ExecPlan::eval_nets`] / [`ExecPlan::eval_outputs`] are the
//! one-pattern evaluator ([`Evaluator`](crate::Evaluator) runs them) and
//! `vcad-engine` the 64-pattern one.
//!
//! For the one-pattern evaluator the compiler also lowers every op into
//! two-operand truth-table steps `(tt, out, a, b)`: a 0- or 1-operand op
//! reads `(a, a)`, an n-ary fold chains through one scratch slot past
//! the nets, and `Mux2` runs its defining formula. The sweep is then one
//! loop with no branch on kind or arity.
//!
//! The plan also precomputes the two lookups fault injection needs:
//! the flat *operand slot* of every `(gate, pin)` pair (so a pin fault
//! is one masked override at a known index) and, for every primary
//! output, whether it aliases a primary input net (those outputs must
//! reproduce the raw, possibly-`Z` input value exactly as the
//! event-driven path does).

use std::ops::{BitAnd, BitOr, BitXor, Range};
use std::sync::OnceLock;

use vcad_logic::{Logic, LogicVec};

use crate::{GateId, GateKind, NetId, Netlist};

/// One compiled gate: its function, output net and operand range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOp {
    kind: GateKind,
    output: u32,
    first_operand: u32,
    operand_count: u32,
}

impl PlanOp {
    /// The gate's logic function.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Dense index of the net this op drives.
    #[must_use]
    pub fn output(&self) -> usize {
        self.output as usize
    }

    /// The op's slots in [`ExecPlan::operands`], in pin order.
    #[must_use]
    pub fn operand_range(&self) -> Range<usize> {
        let start = self.first_operand as usize;
        start..start + self.operand_count as usize
    }
}

/// Where a primary output reads its value from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputSource {
    /// The output taps a gate-driven net (dense net index).
    Net(usize),
    /// The output aliases the `n`-th declared primary input and must
    /// reproduce its raw (possibly `Z`) value.
    Input(usize),
}

/// One lowered step of the one-pattern sweep:
/// `slots[out] = tt[slots[a] << 2 | slots[b]]`, where `tt` packs a
/// 16-entry truth table two bits per entry.
#[derive(Clone, Copy, Debug)]
struct Step {
    tt: u32,
    out: u32,
    a: u32,
    b: u32,
}

/// Packs `f` over every operand pair into a [`Step`] truth table.
fn truth_table(f: impl Fn(Logic, Logic) -> Logic) -> u32 {
    let mut tt = 0;
    for a in Logic::ALL {
        for b in Logic::ALL {
            tt |= (f(a, b) as u32) << (2 * ((a as u32) << 2 | b as u32));
        }
    }
    tt
}

const KINDS: usize = GateKind::ALL.len();

/// The truth tables gates lower to. Every kind but `Mux2` is a fold of
/// one [`Logic`] operator (`step`) from its identity (`init`), then
/// `finish`: `!` for the inverting kinds, else `driven`. The tables are
/// filled from those operators, which stay the definition.
#[derive(Default)]
struct Tables {
    /// `[kind]`: the whole gate over one operand read twice —
    /// `finish(step(init, a))`, or `finish(init)` for a constant.
    unary: [u32; KINDS],
    /// `[kind][last]`: the fold's first step, `step(step(init, a), b)`,
    /// through `finish` when it is also the last (a two-operand gate).
    first: [[u32; 2]; KINDS],
    /// `[kind][last]`: a later step, `step(acc, b)`, through `finish`
    /// when it is the last.
    next: [[u32; 2]; KINDS],
    /// `a & b`, `!s & a` and `a | b`: the operators of `Mux2`'s formula.
    mux: [u32; 3],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Tables::default();
        for kind in GateKind::ALL {
            let (init, step): (Logic, fn(Logic, Logic) -> Logic) = match kind {
                GateKind::Or | GateKind::Nor | GateKind::Const0 => (Logic::Zero, BitOr::bitor),
                GateKind::Xor | GateKind::Xnor => (Logic::Zero, BitXor::bitxor),
                _ => (Logic::One, BitAnd::bitand),
            };
            let invert = matches!(
                kind,
                GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor
            );
            let finish = |acc: Logic| if invert { !acc } else { acc.driven() };
            let close = |last: bool, acc: Logic| if last { finish(acc) } else { acc };
            let constant = kind.arity().1 == 0;
            let k = kind as usize;
            t.unary[k] = truth_table(|a, _| finish(if constant { init } else { step(init, a) }));
            t.first[k] =
                [false, true].map(|last| truth_table(|a, b| close(last, step(step(init, a), b))));
            t.next[k] = [false, true].map(|last| truth_table(|acc, b| close(last, step(acc, b))));
        }
        t.mux = [
            truth_table(|a, b| a & b),
            truth_table(|s, a| !s & a),
            truth_table(|a, b| a | b),
        ];
        t
    })
}

/// Lowers one gate driving `out` from `operands` into two-operand
/// steps. A longer fold chains its accumulator through `scratch`, the
/// one slot past the nets; only its last step applies `finish`.
fn lower(kind: GateKind, out: u32, operands: &[u32], scratch: u32, steps: &mut Vec<Step>) {
    let t = tables();
    let k = kind as usize;
    let mut push = |tt, out, a, b| steps.push(Step { tt, out, a, b });
    match *operands {
        [] => push(t.unary[k], out, out, out),
        [a] => push(t.unary[k], out, a, a),
        [s, a, b] if kind == GateKind::Mux2 => {
            // (a & b) | (!s & a) | (s & b), the output net serving as the
            // second temporary. The consensus term `a & b` keeps the
            // output defined under an unknown select when both data
            // inputs agree on a binary value.
            let [and, and_not, or] = t.mux;
            push(and, scratch, a, b);
            push(and_not, out, s, a);
            push(or, scratch, scratch, out);
            push(and, out, s, b);
            push(or, out, scratch, out);
        }
        [a, b, ref rest @ ..] => {
            let to = |last: bool| if last { out } else { scratch };
            let last = rest.is_empty();
            push(t.first[k][usize::from(last)], to(last), a, b);
            for (i, &operand) in rest.iter().enumerate() {
                let last = i + 1 == rest.len();
                push(t.next[k][usize::from(last)], to(last), scratch, operand);
            }
        }
    }
}

/// A [`Netlist`] compiled to a levelized, flat instruction stream.
///
/// The plan is self-contained: it captures everything an evaluator
/// needs (ops, operands, level boundaries, input nets, output sources,
/// net count), so it can outlive the netlist it was compiled from.
///
/// # Examples
///
/// ```
/// use vcad_netlist::{generators, ExecPlan};
///
/// let plan = ExecPlan::compile(&generators::c17());
/// assert_eq!(plan.op_count(), generators::c17().gate_count());
/// assert_eq!(plan.level_count(), generators::c17().stats().depth as usize);
/// ```
#[derive(Clone, Debug)]
pub struct ExecPlan {
    name: String,
    ops: Vec<PlanOp>,
    operands: Vec<u32>,
    /// The ops lowered for the one-pattern sweep, in op order.
    steps: Vec<Step>,
    /// `level_bounds[l]..level_bounds[l + 1]` is the op range of level
    /// `l + 1` (builder levels are 1-based).
    level_bounds: Vec<u32>,
    /// Dense indices of the primary-input nets, declaration order.
    input_nets: Vec<u32>,
    outputs: Vec<OutputSource>,
    net_count: usize,
    /// Op index of every gate, indexed by [`GateId::index`].
    op_of_gate: Vec<u32>,
}

impl ExecPlan {
    /// Compiles `netlist` into a levelized plan.
    ///
    /// Gates are ordered by `(level, GateId)` — a valid topological
    /// order, since a gate's level strictly exceeds every driver's —
    /// so the stream is deterministic for a given netlist regardless
    /// of the builder's Kahn tie-breaking.
    #[must_use]
    pub fn compile(netlist: &Netlist) -> ExecPlan {
        let gate_count = netlist.gate_count();
        let mut order: Vec<GateId> = netlist.topo_order().to_vec();
        order.sort_by_key(|&g| (netlist.gate_level(g), g.index()));

        let mut ops = Vec::with_capacity(gate_count);
        let mut operands = Vec::new();
        let mut steps = Vec::with_capacity(gate_count);
        let scratch = netlist.net_count() as u32;
        let mut level_bounds = vec![0u32];
        let mut open_level = 1u32;
        let mut op_of_gate = vec![0u32; gate_count];
        for &gid in &order {
            let level = netlist.gate_level(gid);
            // Close levels up to this gate's (empty levels cannot occur:
            // every level is defined by some gate carrying it).
            while open_level < level {
                level_bounds.push(ops.len() as u32);
                open_level += 1;
            }
            let gate = netlist.gate(gid);
            op_of_gate[gid.index()] = ops.len() as u32;
            let first_operand = operands.len() as u32;
            operands.extend(gate.inputs().iter().map(|n| n.index() as u32));
            let op = PlanOp {
                kind: gate.kind(),
                output: gate.output().index() as u32,
                first_operand,
                operand_count: gate.inputs().len() as u32,
            };
            lower(
                op.kind,
                op.output,
                &operands[op.operand_range()],
                scratch,
                &mut steps,
            );
            ops.push(op);
        }
        level_bounds.push(ops.len() as u32);

        let input_nets: Vec<u32> = netlist.inputs().iter().map(|n| n.index() as u32).collect();
        let outputs = netlist
            .outputs()
            .iter()
            .map(|(_, net)| {
                netlist
                    .inputs()
                    .iter()
                    .position(|i| i == net)
                    .map_or(OutputSource::Net(net.index()), OutputSource::Input)
            })
            .collect();

        ExecPlan {
            name: netlist.name().to_string(),
            ops,
            operands,
            steps,
            level_bounds,
            input_nets,
            outputs,
            net_count: netlist.net_count(),
            op_of_gate,
        }
    }

    /// Evaluates one pattern and returns the value of every net, indexed
    /// by [`NetId::index`] — the one-pattern entry every scalar caller
    /// runs on. Bit `i` of `inputs` drives the `i`-th primary input;
    /// input nets keep their raw (possibly `Z`) value.
    ///
    /// One front-to-back sweep over the lowered two-operand steps, one
    /// byte per net plus the scratch slot, a truth-table lookup per step
    /// and no branch on gate kind, arity or signal value; the returned
    /// vector is the only allocation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.width()` differs from the input count.
    #[must_use]
    pub fn eval_nets(&self, inputs: &LogicVec) -> Vec<Logic> {
        assert_eq!(
            inputs.width(),
            self.input_nets.len(),
            "pattern width must match the netlist's input count"
        );
        let mut slots = vec![Logic::X; self.net_count + 1];
        for (&net, bit) in self.input_nets.iter().zip(inputs) {
            slots[net as usize] = bit;
        }
        for step in &self.steps {
            let row = (slots[step.a as usize] as u32) << 2 | slots[step.b as usize] as u32;
            slots[step.out as usize] = Logic::ALL[(step.tt >> (2 * row) & 3) as usize];
        }
        slots.truncate(self.net_count);
        slots
    }

    /// Evaluates one pattern and returns the primary outputs, bit 0
    /// first. An output aliasing a primary input reproduces its raw
    /// value, `Z` included.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.width()` differs from the input count.
    #[must_use]
    pub fn eval_outputs(&self, inputs: &LogicVec) -> LogicVec {
        let values = self.eval_nets(inputs);
        LogicVec::from_bits(self.outputs.iter().map(|source| match *source {
            OutputSource::Net(net) => values[net],
            OutputSource::Input(i) => values[self.input_nets[i] as usize],
        }))
    }

    /// The source netlist's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of compiled ops (= source gate count).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of logic levels (= netlist depth).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.level_bounds.len() - 1
    }

    /// The compiled instruction stream, level-major.
    #[must_use]
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// The flat operand array: dense net indices, shared by all ops.
    #[must_use]
    pub fn operands(&self) -> &[u32] {
        &self.operands
    }

    /// The op range of level `level` (0-based here; builder level
    /// `level + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.level_count()`.
    #[must_use]
    pub fn level(&self, level: usize) -> Range<usize> {
        self.level_bounds[level] as usize..self.level_bounds[level + 1] as usize
    }

    /// Dense indices of the primary-input nets, declaration order.
    #[must_use]
    pub fn input_nets(&self) -> &[u32] {
        &self.input_nets
    }

    /// Where each primary output reads from, declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[OutputSource] {
        &self.outputs
    }

    /// Number of nets in the source netlist (sizes evaluator arrays).
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// The flat operand slot of `(gate, pin)`, or `None` when the pin
    /// does not exist — the address a pin fault masks.
    #[must_use]
    pub fn operand_slot(&self, gate: GateId, pin: usize) -> Option<usize> {
        let op = &self.ops[*self.op_of_gate.get(gate.index())? as usize];
        let range = op.operand_range();
        (pin < range.len()).then(|| range.start + pin)
    }

    /// The net feeding operand slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn operand_net(&self, slot: usize) -> NetId {
        NetId(self.operands[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, GateKind, NetlistBuilder};

    #[test]
    fn levels_partition_ops_in_dependency_order() {
        let nl = generators::c17();
        let plan = ExecPlan::compile(&nl);
        assert_eq!(plan.op_count(), nl.gate_count());
        assert_eq!(plan.level_count(), nl.stats().depth as usize);

        // Level ranges tile 0..op_count without gaps.
        let mut cursor = 0;
        for l in 0..plan.level_count() {
            let range = plan.level(l);
            assert_eq!(range.start, cursor);
            assert!(!range.is_empty(), "level {l} empty");
            cursor = range.end;
        }
        assert_eq!(cursor, plan.op_count());

        // Every operand of an op is either a primary input or driven
        // by an earlier op.
        let mut ready = vec![false; plan.net_count()];
        for &n in plan.input_nets() {
            ready[n as usize] = true;
        }
        for op in plan.ops() {
            for &slot in &plan.operands()[op.operand_range()] {
                assert!(ready[slot as usize], "operand net {slot} not yet driven");
            }
            ready[op.output()] = true;
        }
    }

    #[test]
    fn operand_slots_address_pins() {
        let nl = generators::half_adder_nand();
        let plan = ExecPlan::compile(&nl);
        for (gid, gate) in nl.gates() {
            for pin in 0..gate.inputs().len() {
                let slot = plan.operand_slot(gid, pin).expect("pin exists");
                assert_eq!(plan.operand_net(slot), gate.inputs()[pin]);
            }
            assert_eq!(plan.operand_slot(gid, gate.inputs().len()), None);
        }
    }

    #[test]
    fn outputs_distinguish_input_aliases() {
        let mut b = NetlistBuilder::new("alias");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::And, &[a, c]);
        b.output("pass", c);
        b.output("y", y);
        let nl = b.build().unwrap();
        let plan = ExecPlan::compile(&nl);
        assert_eq!(plan.outputs()[0], OutputSource::Input(1));
        assert_eq!(plan.outputs()[1], OutputSource::Net(y.index()));
    }

    #[test]
    fn plan_is_deterministic() {
        let nl = generators::wallace_multiplier(4);
        let a = ExecPlan::compile(&nl);
        let b = ExecPlan::compile(&nl);
        assert_eq!(a.ops(), b.ops());
        assert_eq!(a.operands(), b.operands());
    }
}
