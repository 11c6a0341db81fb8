//! The seeded defect fixtures under `tests/fixtures/` must each produce
//! their expected Deny rules. This mirrors what `lintgate dirty` asserts
//! in CI, as an ordinary test.

use std::path::PathBuf;

use vcad_lint::diag::rules;
use vcad_lint::fixtures::parse_fixture;
use vcad_lint::{LintReport, Linter, Severity};

fn fixture(name: &str) -> LintReport {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let graph = parse_fixture(&text).expect("fixture parses");
    Linter::new().check_graph(&graph)
}

fn assert_denies(report: &LintReport, rule: &str) {
    assert!(
        report.by_rule(rule).any(|d| d.severity == Severity::Deny),
        "expected Deny `{rule}`, got:\n{}",
        report.render()
    );
}

#[test]
fn loop_fixture_names_the_cycle() {
    let report = fixture("loop.design");
    assert_denies(&report, rules::COMBINATIONAL_LOOP);
    let d = report.by_rule(rules::COMBINATIONAL_LOOP).next().unwrap();
    for hop in ["A.a", "A.y", "B.a", "B.y"] {
        assert!(
            d.message.contains(hop),
            "cycle path misses {hop}: {}",
            d.message
        );
    }
}

#[test]
fn double_driver_fixture() {
    let report = fixture("double_driver.design");
    assert_denies(&report, rules::DOUBLE_DRIVER);
}

#[test]
fn width_mismatch_fixture() {
    let report = fixture("width_mismatch.design");
    assert_denies(&report, rules::WIDTH_MISMATCH);
}

#[test]
fn privacy_leak_fixture_flags_both_directions() {
    let report = fixture("privacy_leak.design");
    assert_denies(&report, rules::STRUCTURAL_REQUEST);
    assert_denies(&report, rules::STRUCTURAL_RESPONSE);
}
