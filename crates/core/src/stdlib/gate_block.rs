//! Gate-level netlist blocks: mixing gate level into an RTL design.

use std::sync::Arc;

use vcad_engine::EngineKind;
use vcad_logic::LogicVec;
use vcad_netlist::{Evaluator, Netlist};

use crate::module::{Module, ModuleCtx, PortSpec};

/// Wraps a combinational [`Netlist`] as a module with one single-bit port
/// per netlist primary input and output.
///
/// Ports are ordered netlist inputs first (named after their nets), then
/// netlist outputs. Whenever an input changes, the whole netlist is
/// re-evaluated and any changed outputs are emitted — a functional
/// zero-delay gate-level model, evaluated on the netlist's cached plan
/// ([`Netlist::plan`]).
#[derive(Debug)]
pub struct NetlistBlock {
    name: String,
    netlist: Arc<Netlist>,
    ports: Vec<PortSpec>,
    engine: EngineKind,
}

impl NetlistBlock {
    /// Creates a block over `netlist`.
    #[must_use]
    pub fn new(name: impl Into<String>, netlist: Arc<Netlist>) -> NetlistBlock {
        let mut ports = Vec::with_capacity(netlist.input_count() + netlist.output_count());
        for &net in netlist.inputs() {
            ports.push(PortSpec::input(netlist.net(net).name(), 1));
        }
        for (out_name, _) in netlist.outputs() {
            ports.push(PortSpec::output(out_name.clone(), 1));
        }
        NetlistBlock {
            name: name.into(),
            netlist,
            ports,
            engine: EngineKind::Event,
        }
    }

    /// Labels the block with a gate-evaluation backend. Both run the
    /// one-pattern entry of the netlist's cached plan
    /// ([`Netlist::plan`]), so the label moves neither results nor the
    /// wall clock.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> NetlistBlock {
        self.engine = engine;
        self
    }

    /// The backend this block is labelled with.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    fn input_count(&self) -> usize {
        self.netlist.input_count()
    }
}

impl Module for NetlistBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> &[PortSpec] {
        &self.ports
    }

    fn on_signal(&self, ctx: &mut ModuleCtx<'_>, _port: usize, _value: &LogicVec) {
        let n_in = self.input_count();
        let inputs = LogicVec::from_bits((0..n_in).map(|i| ctx.port_value(i).get(0)));
        let outputs = Evaluator::new(&self.netlist).outputs(&inputs);
        for (i, bit) in outputs.iter().enumerate() {
            let port = n_in + i;
            let current = ctx.port_value(port).get(0);
            if current != bit {
                ctx.emit(port, LogicVec::from_bits([bit]));
            }
        }
    }

    fn compiled_twin(&self) -> Option<Arc<dyn Module>> {
        if self.engine == EngineKind::Compiled {
            return None;
        }
        Some(Arc::new(
            NetlistBlock::new(self.name.clone(), Arc::clone(&self.netlist))
                .with_engine(EngineKind::Compiled),
        ))
    }
}

/// Wraps a combinational [`Netlist`] behind *bus* ports.
///
/// The netlist's primary inputs, in declaration order, are split across the
/// declared input buses; likewise for outputs. This is how a gate-level
/// multiplier (`a[16]`, `b[16]` → `p[32]`) plugs into a word-level design —
/// the paper's mixed-level support.
#[derive(Debug)]
pub struct NetlistBusBlock {
    name: String,
    netlist: Arc<Netlist>,
    ports: Vec<PortSpec>,
    input_buses: usize,
    engine: EngineKind,
}

impl NetlistBusBlock {
    /// Creates a bus block, partitioning netlist inputs/outputs over the
    /// named buses.
    ///
    /// # Panics
    ///
    /// Panics if the bus widths do not sum to the netlist's input and
    /// output counts.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        netlist: Arc<Netlist>,
        input_buses: &[(&str, usize)],
        output_buses: &[(&str, usize)],
    ) -> NetlistBusBlock {
        let in_total: usize = input_buses.iter().map(|(_, w)| w).sum();
        let out_total: usize = output_buses.iter().map(|(_, w)| w).sum();
        assert_eq!(
            in_total,
            netlist.input_count(),
            "input buses must cover all netlist inputs"
        );
        assert_eq!(
            out_total,
            netlist.output_count(),
            "output buses must cover all netlist outputs"
        );
        let mut ports = Vec::new();
        for (n, w) in input_buses {
            ports.push(PortSpec::input(*n, *w));
        }
        for (n, w) in output_buses {
            ports.push(PortSpec::output(*n, *w));
        }
        NetlistBusBlock {
            name: name.into(),
            netlist,
            ports,
            input_buses: input_buses.len(),
            engine: EngineKind::Event,
        }
    }

    /// Labels the block with a gate-evaluation backend. Both run the
    /// one-pattern entry of the netlist's cached plan
    /// ([`Netlist::plan`]), so the label moves neither results nor the
    /// wall clock.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> NetlistBusBlock {
        self.engine = engine;
        self
    }

    /// The backend this block is labelled with.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }
}

impl Module for NetlistBusBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> &[PortSpec] {
        &self.ports
    }

    fn on_signal(&self, ctx: &mut ModuleCtx<'_>, _port: usize, _value: &LogicVec) {
        // Up to 64 bits a `LogicVec` is inline: building the input word,
        // slicing the output buses and comparing them allocate nothing.
        let inputs = (0..self.input_buses).fold(LogicVec::default(), |word, i| {
            word.concat(ctx.port_value(i))
        });
        let outputs = Evaluator::new(&self.netlist).outputs(&inputs);
        let mut offset = 0;
        for (i, spec) in self.ports.iter().enumerate().skip(self.input_buses) {
            let bus = outputs.slice(offset, spec.width());
            offset += spec.width();
            if *ctx.port_value(i) != bus {
                ctx.emit(i, bus);
            }
        }
    }

    fn compiled_twin(&self) -> Option<Arc<dyn Module>> {
        if self.engine == EngineKind::Compiled {
            return None;
        }
        Some(Arc::new(NetlistBusBlock {
            name: self.name.clone(),
            netlist: Arc::clone(&self.netlist),
            ports: self.ports.clone(),
            input_buses: self.input_buses,
            engine: EngineKind::Compiled,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignBuilder;
    use crate::stdlib::{CaptureState, PrimaryOutput, VectorInput};
    use crate::SimulationController;
    use vcad_netlist::generators;

    #[test]
    fn bit_block_computes_half_adder() {
        let ha = Arc::new(generators::half_adder());
        let block = NetlistBlock::new("HA", Arc::clone(&ha));
        assert_eq!(block.ports().len(), 4);
        assert_eq!(block.ports()[0].name(), "a");
        assert_eq!(block.ports()[2].name(), "sum");

        let mut b = DesignBuilder::new("t");
        let pat_a = b.add_module(Arc::new(VectorInput::new(
            "A",
            vec!["1".parse().unwrap(), "1".parse().unwrap()],
        )));
        let pat_b = b.add_module(Arc::new(VectorInput::new(
            "B",
            vec!["0".parse().unwrap(), "1".parse().unwrap()],
        )));
        let haid = b.add_module(Arc::new(block));
        let sum = b.add_module(Arc::new(PrimaryOutput::new("SUM", 1)));
        let carry = b.add_module(Arc::new(PrimaryOutput::new("CARRY", 1)));
        b.connect(pat_a, "out", haid, "a").unwrap();
        b.connect(pat_b, "out", haid, "b").unwrap();
        b.connect(haid, "sum", sum, "in").unwrap();
        b.connect(haid, "carry", carry, "in").unwrap();
        let d = Arc::new(b.build().unwrap());
        let run = SimulationController::new(d).run().unwrap();
        // t0: a=1,b=0 -> sum=1 carry=0; t1: a=1,b=1 -> sum=0 carry=1.
        // Output latches start at X, so the first defined value (carry=0)
        // is itself a change and is emitted.
        let sums = run.module_state::<CaptureState>(sum).unwrap().words();
        let carries = run.module_state::<CaptureState>(carry).unwrap().words();
        assert_eq!(sums, vec![1, 0]);
        assert_eq!(carries, vec![0, 1]);
    }

    #[test]
    fn bus_block_computes_multiplication() {
        let mul = Arc::new(generators::wallace_multiplier(4));
        let block = NetlistBusBlock::new("MUL", mul, &[("a", 4), ("b", 4)], &[("p", 8)]);

        let mut b = DesignBuilder::new("t");
        let ia = b.add_module(Arc::new(VectorInput::new(
            "A",
            vec![LogicVec::from_u64(4, 7), LogicVec::from_u64(4, 12)],
        )));
        let ib = b.add_module(Arc::new(VectorInput::new(
            "B",
            vec![LogicVec::from_u64(4, 5), LogicVec::from_u64(4, 13)],
        )));
        let m = b.add_module(Arc::new(block));
        let o = b.add_module(Arc::new(PrimaryOutput::new("P", 8)));
        b.connect(ia, "out", m, "a").unwrap();
        b.connect(ib, "out", m, "b").unwrap();
        b.connect(m, "p", o, "in").unwrap();
        let d = Arc::new(b.build().unwrap());
        let run = SimulationController::new(d).run().unwrap();
        let products = run.module_state::<CaptureState>(o).unwrap().words();
        // At t1 the new `a` arrives before the new `b` within the same
        // instant, so the block transiently evaluates 12 × 5 = 60 — genuine
        // event-driven (glitching) behaviour.
        assert_eq!(products, vec![35, 60, 156]);
    }

    #[test]
    #[should_panic(expected = "input buses must cover")]
    fn bus_block_validates_widths() {
        let mul = Arc::new(generators::wallace_multiplier(4));
        let _ = NetlistBusBlock::new("MUL", mul, &[("a", 4)], &[("p", 8)]);
    }

    #[test]
    fn twins_share_the_netlist_and_so_its_one_plan() {
        let mul = Arc::new(generators::wallace_multiplier(4));
        let plan = Arc::clone(mul.plan());
        let bus = NetlistBusBlock::new("MUL", Arc::clone(&mul), &[("a", 4), ("b", 4)], &[("p", 8)]);
        let bit = NetlistBlock::new("MULBITS", Arc::clone(&mul));
        let holders = Arc::strong_count(&mul);
        let twins = [bus.compiled_twin(), bit.compiled_twin()].map(Option::unwrap);
        // Each twin holds the same netlist, not a copy or a recompile ...
        assert_eq!(Arc::strong_count(&mul), holders + twins.len());
        // ... and the netlist's plan is still the one compiled above.
        assert!(Arc::ptr_eq(mul.plan(), &plan));
    }

    #[test]
    fn compiled_engine_runs_are_bit_identical() {
        use vcad_engine::EngineKind;

        let mul = Arc::new(generators::wallace_multiplier(4));
        let block = NetlistBusBlock::new("MUL", mul, &[("a", 4), ("b", 4)], &[("p", 8)]);
        assert_eq!(block.engine(), EngineKind::Event);
        assert!(block.compiled_twin().is_some());
        assert!(block
            .compiled_twin()
            .and_then(|t| t.compiled_twin())
            .is_none());

        let mut b = DesignBuilder::new("t");
        let ia = b.add_module(Arc::new(VectorInput::new(
            "A",
            (0..8).map(|i| LogicVec::from_u64(4, i * 2 % 16)).collect(),
        )));
        let ib = b.add_module(Arc::new(VectorInput::new(
            "B",
            (0..8)
                .map(|i| LogicVec::from_u64(4, (i * 7 + 3) % 16))
                .collect(),
        )));
        let m = b.add_module(Arc::new(block));
        let o = b.add_module(Arc::new(PrimaryOutput::new("P", 8)));
        b.connect(ia, "out", m, "a").unwrap();
        b.connect(ib, "out", m, "b").unwrap();
        b.connect(m, "p", o, "in").unwrap();
        let d = Arc::new(b.build().unwrap());

        let event = SimulationController::new(Arc::clone(&d))
            .record_events()
            .run()
            .unwrap();
        let compiled = SimulationController::new(d)
            .with_engine(EngineKind::Compiled)
            .record_events()
            .run()
            .unwrap();
        assert_eq!(
            event.module_state::<CaptureState>(o).unwrap().history(),
            compiled.module_state::<CaptureState>(o).unwrap().history()
        );
        assert_eq!(event.event_log(), compiled.event_log());
        assert_eq!(event.events_processed(), compiled.events_processed());
    }
}
