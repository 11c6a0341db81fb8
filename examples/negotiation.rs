//! Interactive parameter negotiation before instantiation.
//!
//! The paper's closing future-work item: "flexible simulation setup with
//! interactive client-server negotiation of simulation parameters". The
//! user states per-parameter constraints (maximum fee, maximum error); the
//! provider answers with the best estimator it offers within them; the
//! agreed names feed the setup controller directly.
//!
//! Run with `cargo run --example negotiation`.

use std::error::Error;
use std::sync::Arc;

use vcad::core::stdlib::{PrimaryOutput, RandomInput};
use vcad::core::{DesignBuilder, Parameter, SetupController, SetupCriterion, SimulationController};
use vcad::ip::{ClientSession, ComponentOffering, NegotiationRequest, ProviderServer};

fn main() -> Result<(), Box<dyn Error>> {
    let provider = ProviderServer::new("provider.example.com");
    provider.offer(ComponentOffering::fast_low_power_multiplier());
    let session = ClientSession::connect_in_process(&provider)?;

    // Two negotiation rounds: a tight budget, then a realistic one.
    for (label, max_fee) in [("free tier only", 0.0), ("up to 0.2¢/pattern", 0.2)] {
        println!("— negotiating with budget: {label}");
        let outcomes = session.negotiate(
            "MultFastLowPower",
            &[
                NegotiationRequest {
                    parameter: Parameter::AvgPower,
                    max_fee_cents_per_pattern: max_fee,
                    max_error_pct: 100.0,
                },
                NegotiationRequest {
                    parameter: Parameter::PeakPower,
                    max_fee_cents_per_pattern: max_fee,
                    max_error_pct: 100.0,
                },
                NegotiationRequest {
                    parameter: Parameter::IoActivity,
                    max_fee_cents_per_pattern: 0.0,
                    max_error_pct: 1.0,
                },
            ],
        )?;
        for outcome in &outcomes {
            match &outcome.offer {
                Some(offer) => println!(
                    "  {}: {} ({}% error, {:.2}¢/pattern{})",
                    outcome.parameter,
                    offer.name,
                    offer.expected_error_pct,
                    offer.fee_cents_per_pattern,
                    if offer.remote { ", remote" } else { "" }
                ),
                None => println!("  {}: no offer within constraints", outcome.parameter),
            }
        }
    }

    // Accept the realistic round and run with the agreed estimators.
    let outcomes = session.negotiate(
        "MultFastLowPower",
        &[
            NegotiationRequest {
                parameter: Parameter::AvgPower,
                max_fee_cents_per_pattern: 0.2,
                max_error_pct: 100.0,
            },
            NegotiationRequest {
                parameter: Parameter::IoActivity,
                max_fee_cents_per_pattern: 0.0,
                max_error_pct: 1.0,
            },
        ],
    )?;

    let width = 12;
    let component = session.instantiate("MultFastLowPower", width)?;
    let mut b = DesignBuilder::new("negotiated");
    let ina = b.add_module(Arc::new(RandomInput::new("INA", width, 31, 40)));
    let inb = b.add_module(Arc::new(RandomInput::new("INB", width, 32, 40)));
    let mult = b.add_module(component.functional_module("MULT")?);
    let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * width)));
    b.connect(ina, "out", mult, "a")?;
    b.connect(inb, "out", mult, "b")?;
    b.connect(mult, "p", out, "in")?;
    let design = Arc::new(b.build()?);

    let mut setup = SetupController::new();
    for outcome in &outcomes {
        if let Some(offer) = &outcome.offer {
            setup.set(
                outcome.parameter.clone(),
                SetupCriterion::Named(offer.name.clone()),
            );
        }
    }
    setup.set_buffer_size(8);
    let run = SimulationController::new(Arc::clone(&design))
        .with_setup(setup.apply_to(&design, "MULT"))
        .run()?;

    let power = run
        .estimates()
        .latest(mult, &Parameter::AvgPower)
        .and_then(|r| r.value.as_f64())
        .expect("negotiated power estimate");
    let activity = run
        .estimates()
        .latest(mult, &Parameter::IoActivity)
        .and_then(|r| r.value.as_f64())
        .expect("negotiated activity estimate");
    println!("\nsimulated with the agreed setup:");
    println!("  gate-level average power: {power:.6} W");
    println!("  port activity: {activity:.1} toggles/pattern");
    println!(
        "  fees: {:.2}¢ (provider bill {:.2}¢)",
        run.estimates().total_fees_cents(),
        session.bill()?
    );
    Ok(())
}
