//! Quickstart: the paper's Figure 2 design.
//!
//! Two random 16-bit input words are registered and multiplied by a
//! high-performance, low-power multiplier sold by a remote IP provider.
//! The user downloads the component's public part (an accurate functional
//! model), simulates locally, and lets the provider's server evaluate the
//! accurate gate-level power estimate — all without seeing a single gate
//! of the multiplier.
//!
//! Run with `cargo run --example quickstart`.

use std::error::Error;
use std::sync::Arc;

use vcad::core::stdlib::{CaptureState, PrimaryOutput, RandomInput, Register};
use vcad::core::{DesignBuilder, Parameter, SetupController, SetupCriterion, SimulationController};
use vcad::ip::{ClientSession, ComponentOffering, ProviderServer};

fn main() -> Result<(), Box<dyn Error>> {
    let width = 16;
    let patterns = 100;

    // ── Provider side ────────────────────────────────────────────────
    // In production this process lives on the provider's host behind a
    // TCP transport; here it runs in-process for a self-contained demo.
    let provider = ProviderServer::new("provider.example.com");
    provider.offer(ComponentOffering::fast_low_power_multiplier());

    // ── IP user side ─────────────────────────────────────────────────
    let session = ClientSession::connect_in_process(&provider)?;
    println!("catalog:");
    for offering in session.catalog()? {
        println!(
            "  {} (functional {}, power {}, toggle fee {:.2}¢/pattern)",
            offering.name, offering.functional, offering.power, offering.toggle_fee_cents
        );
    }

    // Instantiate the remote multiplier — like any local module, but its
    // constructor cites the provider's server (paper, Figure 2).
    let component = session.instantiate("MultFastLowPower", width)?;
    println!(
        "\ninstantiated {} (width {}): area {:.0} gates, delay {:.0} ps \
         — both computed by the provider without disclosure",
        component.name(),
        component.width(),
        component.area()?,
        component.delay()?,
    );
    let mult_module = component.functional_module("MULT")?;

    // The design under development: IN → REG → MULT → OUT.
    let mut b = DesignBuilder::new("example");
    let ina = b.add_module(Arc::new(RandomInput::new("INA", width, 1, patterns)));
    let inb = b.add_module(Arc::new(RandomInput::new("INB", width, 2, patterns)));
    let rega = b.add_module(Arc::new(Register::new("REGA", width)));
    let regb = b.add_module(Arc::new(Register::new("REGB", width)));
    let mult = b.add_module(mult_module);
    let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * width)));
    b.connect(ina, "out", rega, "d")?;
    b.connect(inb, "out", regb, "d")?;
    b.connect(rega, "q", mult, "a")?;
    b.connect(regb, "q", mult, "b")?;
    b.connect(mult, "p", out, "in")?;
    let design = Arc::new(b.build()?);

    // Simulation setup: the most accurate power estimator the provider
    // offers, with a pattern buffer of 5 to amortise RMI calls.
    let mut setup = SetupController::new();
    setup.set(Parameter::AvgPower, SetupCriterion::MostAccurate);
    setup.set_buffer_size(5);
    let binding = setup.apply_to(&design, "MULT");

    let run = SimulationController::new(Arc::clone(&design))
        .with_setup(binding)
        .run()?;

    let captured = run
        .module_state::<CaptureState>(out)
        .expect("output capture");
    let settled: std::collections::BTreeMap<u64, u128> = captured
        .history()
        .iter()
        .filter_map(|(t, v)| v.to_word().map(|w| (t.ticks(), w.value())))
        .collect();
    let first: Vec<u128> = settled.values().take(5).copied().collect();
    println!(
        "\nsimulated {} patterns ({} output events); first products: {first:?}",
        settled.len(),
        captured.history().len(),
    );

    let records: Vec<_> = run
        .estimates()
        .records_for(mult, &Parameter::AvgPower)
        .collect();
    let mean_power =
        records.iter().filter_map(|r| r.value.as_f64()).sum::<f64>() / records.len() as f64;
    println!(
        "gate-level average power (computed remotely): {mean_power:.6} W \
         across {} buffered estimates",
        records.len()
    );
    println!(
        "estimation fees accrued: {:.2}¢ (provider bill: {:.2}¢)",
        run.estimates().total_fees_cents(),
        session.bill()?
    );
    Ok(())
}
