//! Mixed-level simulation: RTL and gate level in one design.
//!
//! A word-level (RTL) datapath feeds a gate-level comparator through
//! interface modules, with a custom fan-out carrying different delays per
//! branch and a self-triggering clock — the backplane features the paper
//! highlights: multiple abstraction levels, custom connector semantics,
//! fan-out/delay modules and autonomous components.
//!
//! Run with `cargo run --example mixed_level`.

use std::error::Error;
use std::sync::Arc;

use vcad::core::stdlib::{
    CaptureState, ClockGen, Fanout, NetlistBusBlock, PrimaryOutput, RandomInput, WordAdder,
};
use vcad::core::{DesignBuilder, SimulationController};
use vcad::netlist::generators;

fn main() -> Result<(), Box<dyn Error>> {
    let width = 8;

    // Gate-level block: equality comparator between two words.
    let eq = Arc::new(generators::equality_comparator(width + 1));
    let eq_block = NetlistBusBlock::new(
        "EQ",
        eq,
        &[("a", width + 1), ("b", width + 1)],
        &[("eq", 1)],
    );

    let mut b = DesignBuilder::new("mixed");
    // RTL half: two random sources and two adders computing x+y twice.
    let x = b.add_module(Arc::new(RandomInput::new("X", width, 21, 20)));
    let y = b.add_module(Arc::new(RandomInput::new("Y", width, 22, 20)));
    let fan_x = b.add_module(Arc::new(Fanout::new("FX", width, vec![0, 0])));
    let fan_y = b.add_module(Arc::new(Fanout::new("FY", width, vec![0, 0])));
    let add1 = b.add_module(Arc::new(WordAdder::new("ADD1", width)));
    let add2 = b.add_module(Arc::new(WordAdder::new("ADD2", width)));
    // Gate-level half: the comparator checks both adders agree.
    let cmp = b.add_module(Arc::new(eq_block));
    let out = b.add_module(Arc::new(PrimaryOutput::new("AGREE", 1)));
    // A clock observed alongside, showing the self-trigger mechanism.
    let clk = b.add_module(Arc::new(ClockGen::new("CLK", 4, 10)));
    let clk_out = b.add_module(Arc::new(PrimaryOutput::new("CLKOUT", 1)));

    b.connect(x, "out", fan_x, "in")?;
    b.connect(y, "out", fan_y, "in")?;
    b.connect(fan_x, "out0", add1, "a")?;
    b.connect(fan_y, "out0", add1, "b")?;
    b.connect(fan_x, "out1", add2, "a")?;
    b.connect(fan_y, "out1", add2, "b")?;
    b.connect(add1, "s", cmp, "a")?;
    b.connect(add2, "s", cmp, "b")?;
    b.connect(cmp, "eq", out, "in")?;
    b.connect(clk, "clk", clk_out, "in")?;

    let design = Arc::new(b.build()?);

    let run = SimulationController::new(design).run()?;

    // The comparator glitches while operands settle within an instant
    // (genuine event-driven behaviour); judge the settled value per
    // instant: the last capture at each time.
    let history = run
        .module_state::<CaptureState>(out)
        .expect("comparator capture")
        .history()
        .to_vec();
    let mut settled = std::collections::BTreeMap::new();
    for (t, v) in &history {
        if let Some(w) = v.to_word() {
            settled.insert(t.ticks(), w.value());
        }
    }
    println!(
        "comparator fired {} times over {} instants; settled values all agree: {}",
        history.len(),
        settled.len(),
        settled.values().all(|&v| v == 1)
    );
    assert!(settled.values().all(|&v| v == 1), "adders must agree");

    let clock_edges = run
        .module_state::<CaptureState>(clk_out)
        .expect("clock capture")
        .history()
        .len();
    println!("clock generated {clock_edges} edges via self-triggering");
    println!("events processed: {}", run.events_processed());
    Ok(())
}
