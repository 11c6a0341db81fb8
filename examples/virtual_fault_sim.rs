//! Virtual fault simulation of the paper's Figure 4 circuit.
//!
//! A half-adder IP block (`IP1`) sits inside a user design. The user
//! obtains IP1's *symbolic* fault list and per-pattern *detection tables*
//! from the provider over RMI, and computes exact stuck-at coverage for
//! the whole design — without ever seeing IP1's gates.
//!
//! Run with `cargo run --example virtual_fault_sim`.

use std::error::Error;
use std::sync::Arc;

use vcad::core::stdlib::{Fanout, NetlistBlock, PrimaryOutput, VectorInput};
use vcad::core::DesignBuilder;
use vcad::faults::{DetectionTableSource, IpBlockBinding, VirtualFaultSim};
use vcad::ip::{ClientSession, ComponentOffering, ModelAvailability, PriceList, ProviderServer};
use vcad::logic::LogicVec;
use vcad::netlist::{generators, GateKind, NetlistBuilder};

fn main() -> Result<(), Box<dyn Error>> {
    // ── Provider: offers the IP1 half adder ──────────────────────────
    let provider = ProviderServer::new("testability.example.com");
    provider.offer(ComponentOffering::new(
        "HalfAdderIP",
        |_| Arc::new(generators::half_adder_nand()),
        ModelAvailability::full(),
        PriceList::default(),
    ));
    let session = ClientSession::connect_in_process(&provider)?;
    let component = session.instantiate("HalfAdderIP", 1)?;
    let detection_source = component.detection_source();

    println!("IP1 symbolic fault list (no structure disclosed):");
    for fault in detection_source.fault_list() {
        println!("  {fault}");
    }

    // ── User design: Figure 4 ────────────────────────────────────────
    // E = AND(A,B); (sum, carry) = IP1(E, C); F = AND(C, D);
    // O1 = AND(sum, D); O2 = OR(carry, F). Patterns: all 16 ABCD values.
    let and2 = |name: &str| -> Result<Arc<_>, Box<dyn Error>> {
        let mut nb = NetlistBuilder::new(name);
        let x = nb.input("x");
        let y = nb.input("y");
        let o = nb.gate(GateKind::And, &[x, y]);
        nb.output("o", o);
        Ok(Arc::new(nb.build()?))
    };
    let or2 = {
        let mut nb = NetlistBuilder::new("or2");
        let x = nb.input("x");
        let y = nb.input("y");
        let o = nb.gate(GateKind::Or, &[x, y]);
        nb.output("o", o);
        Arc::new(nb.build()?)
    };
    // The IP block's *public* gate-level view for simulation is just its
    // functional model; here we use the same interface the provider
    // publishes (two inputs, sum+carry outputs).
    let ip1_functional = Arc::new(generators::half_adder());

    let bit = |v: u64| LogicVec::from_u64(1, v);
    let seq = |f: &dyn Fn(u64) -> u64| (0..16).map(|p| bit(f(p))).collect::<Vec<_>>();

    let mut b = DesignBuilder::new("figure4");
    let ia = b.add_module(Arc::new(VectorInput::new("A", seq(&|p| p & 1))));
    let ib = b.add_module(Arc::new(VectorInput::new("B", seq(&|p| p >> 1 & 1))));
    let ic = b.add_module(Arc::new(VectorInput::new("C", seq(&|p| p >> 2 & 1))));
    let id = b.add_module(Arc::new(VectorInput::new("D", seq(&|p| p >> 3 & 1))));
    let fan_c = b.add_module(Arc::new(Fanout::uniform("FC", 1, 2)));
    let fan_d = b.add_module(Arc::new(Fanout::uniform("FD", 1, 2)));
    let e_gate = b.add_module(Arc::new(NetlistBlock::new("E", and2("e_and")?)));
    let ip = b.add_module(Arc::new(NetlistBlock::new("IP1", ip1_functional)));
    let f_gate = b.add_module(Arc::new(NetlistBlock::new("F", and2("f_and")?)));
    let o1_gate = b.add_module(Arc::new(NetlistBlock::new("O1G", and2("o1_and")?)));
    let o2_gate = b.add_module(Arc::new(NetlistBlock::new("O2G", or2)));
    let o1 = b.add_module(Arc::new(PrimaryOutput::new("O1", 1)));
    let o2 = b.add_module(Arc::new(PrimaryOutput::new("O2", 1)));
    b.connect(ia, "out", e_gate, "x")?;
    b.connect(ib, "out", e_gate, "y")?;
    b.connect(ic, "out", fan_c, "in")?;
    b.connect(id, "out", fan_d, "in")?;
    b.connect(e_gate, "o", ip, "a")?;
    b.connect(fan_c, "out0", ip, "b")?;
    b.connect(fan_c, "out1", f_gate, "x")?;
    b.connect(fan_d, "out0", f_gate, "y")?;
    b.connect(ip, "sum", o1_gate, "x")?;
    b.connect(fan_d, "out1", o1_gate, "y")?;
    b.connect(ip, "carry", o2_gate, "x")?;
    b.connect(f_gate, "o", o2_gate, "y")?;
    b.connect(o1_gate, "o", o1, "in")?;
    b.connect(o2_gate, "o", o2, "in")?;
    let design = Arc::new(b.build()?);

    // ── Virtual fault simulation (Figure 5) ──────────────────────────
    let sim = VirtualFaultSim::new(
        design,
        vec![IpBlockBinding {
            module: ip,
            source: detection_source,
        }],
        vec![o1, o2],
    )?;
    let report = sim.run()?;
    let cov = &report.blocks[0];
    println!(
        "\nsimulated {} patterns: {}/{} IP faults detected ({:.0}% coverage)",
        report.patterns,
        cov.detected.len(),
        cov.total,
        cov.coverage() * 100.0
    );
    println!(
        "detection tables requested: {} (cache hits: {}), injections: {}",
        report.tables_requested, report.cache_hits, report.injections
    );
    println!("\ncoverage growth:");
    for (pattern, cumulative) in &cov.history {
        if *pattern == 0 || cov.history.get(pattern - 1).map(|(_, c)| c) != Some(cumulative) {
            println!("  after pattern {pattern:2}: {cumulative} faults");
        }
    }
    println!(
        "\nprovider bill for testability services: {:.2}¢",
        session.bill()?
    );

    Ok(())
}
