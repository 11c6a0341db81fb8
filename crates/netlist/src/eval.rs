//! Full-netlist evaluation.

use vcad_logic::{Logic, LogicVec};

use crate::{NetId, Netlist};

/// Evaluates a [`Netlist`] over four-valued inputs.
///
/// The evaluator borrows the netlist and runs the one-pattern entry of
/// its cached [`ExecPlan`](crate::ExecPlan) ([`Netlist::plan`]), compiled
/// on the first evaluation; creating an evaluator costs nothing.
///
/// # Examples
///
/// ```
/// use vcad_logic::LogicVec;
/// use vcad_netlist::{generators, Evaluator};
///
/// let add = generators::ripple_adder(4);
/// let eval = Evaluator::new(&add);
/// // a = 5, b = 6 → sum bus carries 11.
/// let a = LogicVec::from_u64(4, 5);
/// let b = LogicVec::from_u64(4, 6);
/// let out = eval.outputs(&a.concat(&b));
/// assert_eq!(out.to_word().unwrap().value(), 11);
/// ```
#[derive(Debug)]
pub struct Evaluator<'a> {
    netlist: &'a Netlist,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for `netlist`.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Evaluator<'a> {
        Evaluator { netlist }
    }

    /// The netlist this evaluator runs.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Evaluates all nets for the given primary-input pattern.
    ///
    /// Bit `i` of `inputs` is the value of the `i`-th declared primary
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.width() != self.netlist().input_count()`.
    #[must_use]
    pub fn eval(&self, inputs: &LogicVec) -> NetValues<'a> {
        NetValues {
            netlist: self.netlist,
            values: self.netlist.plan().eval_nets(inputs),
        }
    }

    /// Evaluates and returns only the primary outputs, bit 0 first.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the input count.
    #[must_use]
    pub fn outputs(&self, inputs: &LogicVec) -> LogicVec {
        self.netlist.plan().eval_outputs(inputs)
    }
}

/// The value of every net after one evaluation, produced by
/// [`Evaluator::eval`].
#[derive(Debug)]
pub struct NetValues<'a> {
    netlist: &'a Netlist,
    values: Vec<Logic>,
}

impl NetValues<'_> {
    /// The value of one net.
    #[must_use]
    pub fn net(&self, id: NetId) -> Logic {
        self.values[id.index()]
    }

    /// The primary outputs as a vector, bit 0 first.
    #[must_use]
    pub fn outputs(&self) -> LogicVec {
        LogicVec::from_bits(
            self.netlist
                .outputs()
                .iter()
                .map(|(_, n)| self.values[n.index()]),
        )
    }

    /// The values of an arbitrary set of nets, in the given order.
    #[must_use]
    pub fn collect(&self, nets: &[NetId]) -> LogicVec {
        LogicVec::from_bits(nets.iter().map(|n| self.values[n.index()]))
    }

    /// All net values as a slice indexed by [`NetId::index`].
    #[must_use]
    pub fn as_slice(&self) -> &[Logic] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateKind, NetlistBuilder};

    fn xor2() -> Netlist {
        let mut b = NetlistBuilder::new("xor2");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::Xor, &[a, c]);
        b.output("y", y);
        b.build().unwrap()
    }

    #[test]
    fn xor_truth_table() {
        let nl = xor2();
        let ev = Evaluator::new(&nl);
        for (pattern, expect) in [(0b00, 0), (0b01, 1), (0b10, 1), (0b11, 0)] {
            let out = ev.outputs(&LogicVec::from_u64(2, pattern));
            assert_eq!(
                out.to_word().unwrap().value(),
                expect,
                "pattern {pattern:02b}"
            );
        }
    }

    #[test]
    fn x_propagation() {
        let nl = xor2();
        let ev = Evaluator::new(&nl);
        let mut inp = LogicVec::from_u64(2, 0b01);
        inp.set(1, Logic::X);
        assert_eq!(ev.outputs(&inp).get(0), Logic::X);
    }

    #[test]
    fn net_values_expose_internals() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let inv = b.named_gate("inv", GateKind::Not, &[a]);
        let y = b.gate(GateKind::And, &[a, inv]);
        b.output("y", y);
        let nl = b.build().unwrap();
        let ev = Evaluator::new(&nl);
        let vals = ev.eval(&LogicVec::from_u64(1, 1));
        assert_eq!(vals.net(inv), Logic::Zero);
        assert_eq!(vals.net(y), Logic::Zero);
        assert_eq!(vals.collect(&[a, inv]).to_string(), "01");
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn wrong_width_panics() {
        let nl = xor2();
        let _ = Evaluator::new(&nl).eval(&LogicVec::zeros(3));
    }
}
