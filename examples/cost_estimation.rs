//! IP evaluation before purchase: comparing two providers' multipliers.
//!
//! The user connects to two providers (the paper's Figure 1 topology),
//! inspects their model availability, and trades accuracy against cost
//! across the estimator tiers of Table 1 — ending with an informed
//! architecture choice, having disclosed nothing and seen nothing.
//!
//! Run with `cargo run --example cost_estimation`.

use std::error::Error;
use std::sync::Arc;

use vcad::core::stdlib::{CaptureState, PrimaryOutput, RandomInput};
use vcad::core::{DesignBuilder, Parameter, SetupController, SetupCriterion, SimulationController};
use vcad::ip::{ClientSession, ComponentOffering, ProviderServer};

fn evaluate(
    session: &ClientSession,
    offering: &str,
    criterion: SetupCriterion,
) -> Result<(f64, f64, f64, f64), Box<dyn Error>> {
    let width = 12;
    let component = session.instantiate(offering, width)?;
    let area = component.area()?;
    let delay = component.delay()?;
    let module = component.functional_module("MULT")?;

    let mut b = DesignBuilder::new("eval");
    let ina = b.add_module(Arc::new(RandomInput::new("INA", width, 7, 60)));
    let inb = b.add_module(Arc::new(RandomInput::new("INB", width, 8, 60)));
    let mult = b.add_module(module);
    let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * width)));
    b.connect(ina, "out", mult, "a")?;
    b.connect(inb, "out", mult, "b")?;
    b.connect(mult, "p", out, "in")?;
    let design = Arc::new(b.build()?);

    let mut setup = SetupController::new();
    setup.set(Parameter::AvgPower, criterion);
    setup.set_buffer_size(10);
    let run = SimulationController::new(Arc::clone(&design))
        .with_setup(setup.apply_to(&design, "MULT"))
        .run()?;
    assert!(!run
        .module_state::<CaptureState>(out)
        .expect("capture")
        .history()
        .is_empty());
    let power = run
        .estimates()
        .latest(mult, &Parameter::AvgPower)
        .and_then(|r| r.value.as_f64())
        .unwrap_or(f64::NAN);
    Ok((area, delay, power, run.estimates().total_fees_cents()))
}

fn main() -> Result<(), Box<dyn Error>> {
    // Two competing providers, as in Figure 1.
    let provider1 = ProviderServer::new("provider1.example.com");
    provider1.offer(ComponentOffering::fast_low_power_multiplier());
    let provider2 = ProviderServer::new("provider2.example.com");
    provider2.offer(ComponentOffering::baseline_multiplier());

    let session1 = ClientSession::connect_in_process(&provider1)?;
    let session2 = ClientSession::connect_in_process(&provider2)?;

    println!("provider catalogs:");
    for (host, session) in [("provider1", &session1), ("provider2", &session2)] {
        for o in session.catalog()? {
            println!(
                "  {host}: {} — models f{}/p{}/t{}/a{}, toggle fee {:.2}¢",
                o.name, o.functional, o.power, o.timing, o.area, o.toggle_fee_cents
            );
        }
    }

    println!("\nevaluation (12×12 multipliers, 60 random patterns):");
    println!(
        "{:<22} {:>10} {:>10} {:>14} {:>8}",
        "component/criterion", "area", "delay ps", "avg power W", "fees ¢"
    );
    for (session, offering) in [
        (&session1, "MultFastLowPower"),
        (&session2, "MultBaselineArray"),
    ] {
        for (label, criterion) in [
            ("free tier", SetupCriterion::LocalOnly),
            ("accurate tier", SetupCriterion::MostAccurate),
        ] {
            let (area, delay, power, fees) = evaluate(session, offering, criterion.clone())?;
            println!(
                "{:<22} {:>10.0} {:>10.0} {:>14.6} {:>8.2}",
                format!("{offering}/{label}"),
                area,
                delay,
                power,
                fees
            );
        }
    }
    println!(
        "\ntotal bills: provider1 {:.2}¢, provider2 {:.2}¢",
        session1.bill()?,
        session2.bill()?
    );
    println!(
        "\nThe Wallace tree is larger but much faster; the accurate power \
         tier (remote, fee-bearing) refines the free estimates before any \
         purchase decision."
    );
    Ok(())
}
