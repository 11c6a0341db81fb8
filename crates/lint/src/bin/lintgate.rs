//! The CI lint gate.
//!
//! Three subcommands, each run by `ci.sh` and each exiting non-zero on
//! any unexpected outcome:
//!
//! * `lintgate clean` — composes the repository's reference two-provider
//!   design (the Figure 1 topology from `tests/two_providers.rs`), lints
//!   it together with the shipped wire-protocol manifest and runs the
//!   [`Elaborate`] gate; everything must come back free of Deny
//!   findings.
//! * `lintgate dirty` — parses every `*.design` fixture under the
//!   repository's `tests/fixtures/`, expecting each to produce the Deny
//!   rules named in `EXPECTATIONS`.
//! * `lintgate testability` — prints the reference testability reports,
//!   which `ci.sh` compares with `tests/golden/testability_report.golden`.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use vcad_core::stdlib::{Fanout, PrimaryOutput, RandomInput};
use vcad_core::{Design, DesignBuilder, PortSpec, SimulationController};
use vcad_ip::{
    ClientSession, ComponentOffering, ModelAvailability, PriceList, ProviderServer,
    RemoteFunctionalModule,
};
use vcad_lint::fixtures::parse_fixture;
use vcad_lint::graph::LintGraph;
use vcad_lint::{diag::rules, Elaborate, Linter};

/// Fixture file name -> Deny rules it must (at minimum) produce.
const EXPECTATIONS: &[(&str, &[&str])] = &[
    ("loop.design", &[rules::COMBINATIONAL_LOOP]),
    ("double_driver.design", &[rules::DOUBLE_DRIVER]),
    ("width_mismatch.design", &[rules::WIDTH_MISMATCH]),
    (
        "privacy_leak.design",
        &[rules::STRUCTURAL_REQUEST, rules::STRUCTURAL_RESPONSE],
    ),
];

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("clean") => clean(),
        Some("dirty") => dirty(),
        Some("testability") => testability(),
        _ => {
            eprintln!("usage: lintgate <clean|dirty|testability>");
            ExitCode::from(2)
        }
    }
}

/// Prints the shared reference testability reports, blank-line
/// separated — byte-identical to the golden file pinned by the
/// `testability_reports_match_golden` test in `tests/golden_outputs.rs`.
fn testability() -> ExitCode {
    for report in vcad_lint::testability::reference_reports() {
        println!("{}", report.render());
    }
    ExitCode::SUCCESS
}

/// The reference design must lint clean and pass the elaboration gate.
fn clean() -> ExitCode {
    let design = match two_provider_design() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("lintgate: composing the reference design failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let graph = LintGraph::from_design(&design).with_builtin_frames();
    let report = Linter::new().check_graph(&graph);
    print!("{}", report.render());
    if report.has_deny() {
        eprintln!("lintgate: reference design has deny-level findings");
        return ExitCode::FAILURE;
    }
    match SimulationController::new(design).elaborate() {
        Ok(_) => {
            println!("lintgate: clean gate passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lintgate: elaborate() refused the reference design: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every seeded fixture must produce its expected Deny rules.
fn dirty() -> ExitCode {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let mut failures = 0u32;
    for (file, want_rules) in EXPECTATIONS {
        let path = dir.join(file);
        match check_fixture(&path, want_rules) {
            Ok(()) => println!("lintgate: {file}: expected defects detected"),
            Err(why) => {
                eprintln!("lintgate: {file}: {why}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!(
            "lintgate: dirty gate passed ({} fixtures)",
            EXPECTATIONS.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check_fixture(path: &Path, want_rules: &[&str]) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("unreadable ({e}): {}", path.display()))?;
    let graph = parse_fixture(&text).map_err(|e| e.to_string())?;
    let report = Linter::new().check_graph(&graph);
    print!("{}", report.render());
    for rule in want_rules {
        let hit = report
            .by_rule(rule)
            .any(|d| d.severity == vcad_lint::Severity::Deny);
        if !hit {
            return Err(format!("expected a Deny `{rule}` finding, got none"));
        }
    }
    Ok(())
}

/// The Figure 1 reference topology: provider-1 multiplier IP (public
/// part local) feeding provider-2 adder IP (fully remote), mirroring
/// `tests/two_providers.rs`.
fn two_provider_design() -> Result<Arc<Design>, Box<dyn std::error::Error>> {
    let width = 8;
    let p1 = ProviderServer::new("provider1.example.com");
    p1.offer(ComponentOffering::fast_low_power_multiplier());
    let p2 = ProviderServer::new("provider2.example.com");
    p2.offer(ComponentOffering::new(
        "AdderIP",
        |w| Arc::new(vcad_netlist::generators::ripple_adder(w)),
        ModelAvailability::functional_only(),
        PriceList::default(),
    ));
    let s1 = ClientSession::connect_in_process(&p1)?;
    let s2 = ClientSession::connect_in_process(&p2)?;
    let mult = s1.instantiate("MultFastLowPower", width)?;
    let adder = s2.instantiate("AdderIP", 2 * width)?;

    let mut b = DesignBuilder::new("two-providers");
    let ina = b.add_module(Arc::new(RandomInput::new("INA", width, 5, 10)));
    let inb = b.add_module(Arc::new(RandomInput::new("INB", width, 6, 10)));
    let m = b.add_module(mult.functional_module("MULT")?);
    let fan = b.add_module(Arc::new(Fanout::uniform("FAN", 2 * width, 3)));
    let product_tap = b.add_module(Arc::new(PrimaryOutput::new("PRODUCT", 2 * width)));
    let add = b.add_module(Arc::new(RemoteFunctionalModule::with_ports(
        "DOUBLER",
        vec![
            PortSpec::input("a", 2 * width),
            PortSpec::input("b", 2 * width),
            PortSpec::output("s", 2 * width + 1),
        ],
        adder.stub().clone(),
        vec![],
    )));
    let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * width + 1)));
    b.connect(ina, "out", m, "a")?;
    b.connect(inb, "out", m, "b")?;
    b.connect(m, "p", fan, "in")?;
    b.connect(fan, "out0", add, "a")?;
    b.connect(fan, "out1", add, "b")?;
    b.connect(add, "s", out, "in")?;
    b.connect(fan, "out2", product_tap, "in")?;
    Ok(Arc::new(b.build()?))
}
