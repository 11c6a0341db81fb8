//! The rule-ID registry: every diagnostic rule, pinned.
//!
//! Scripts and CI gates key on these strings, so a rename must
//! fail CI loudly instead of silently breaking them. If you add a rule,
//! extend both `rules::ALL` and the golden list here; if a rename is
//! really intended, treat it as a breaking schema change and say so in
//! the changelog.

use std::collections::HashSet;

use vcad_lint::diag::rules;

/// The golden registry, one line per rule, in declaration order.
const GOLDEN: &[&str] = &[
    "connectivity/width-mismatch",
    "connectivity/double-driver",
    "connectivity/no-driver",
    "connectivity/bidi-contention",
    "connectivity/undriven-input",
    "connectivity/dangling-output",
    "connectivity/bad-dep",
    "loops/combinational-loop",
    "meta/estimator-name",
    "meta/estimator-cost",
    "meta/estimator-accuracy",
    "meta/estimator-duplicate",
    "faults/unknown-fault",
    "faults/detection-width",
    "faults/duplicate-fault",
    "faults/empty-fault-list",
    "faults/malformed-table",
    "privacy/structural-request",
    "privacy/structural-response",
    "privacy/cacheable-impure",
    "privacy/uncached-pure",
    "privacy/structural-payload",
    "testability/untestable-fault",
    "testability/unobservable-net",
];

#[test]
fn registry_matches_the_golden_list_exactly() {
    assert_eq!(
        rules::ALL,
        GOLDEN,
        "rule registry drifted — a rename breaks scripts keyed on rule ids"
    );
}

#[test]
fn rule_ids_are_unique() {
    let mut seen = HashSet::new();
    for rule in rules::ALL {
        assert!(seen.insert(*rule), "duplicate rule id: {rule}");
    }
}

#[test]
fn rule_ids_follow_the_family_slash_kebab_convention() {
    for rule in rules::ALL {
        let (family, name) = rule.split_once('/').expect("family/name shape");
        for part in [family, name] {
            assert!(
                !part.is_empty()
                    && part
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "rule id `{rule}` violates the lowercase-kebab convention"
            );
        }
    }
}
